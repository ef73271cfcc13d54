//! Execution targets, named after the CUDA-Q target strings the paper
//! passes on the command line (`--target nvidia-mgpu`, Appendix E.3).

use qgear_perfmodel::ModelTarget;
use std::fmt;
use std::str::FromStr;

/// Where a transformed circuit executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Target {
    /// The Qiskit Aer baseline on a CPU node (sequential, unfused).
    QiskitAerCpu,
    /// One simulated A100 (`nvidia`).
    #[default]
    Nvidia,
    /// Pooled memory over a GPU cluster (`nvidia-mgpu`).
    NvidiaMgpu {
        /// Device count (power of two).
        devices: usize,
    },
    /// One independent circuit per GPU (`nvidia-mqpu`).
    NvidiaMqpu {
        /// Device count.
        devices: usize,
    },
    /// The Pennylane lightning.gpu baseline (unfused GPU execution with
    /// per-gate transpilation, §4).
    PennylaneLightningGpu,
}


impl Target {
    /// Canonical target string.
    pub fn name(&self) -> &'static str {
        match self {
            Target::QiskitAerCpu => "qiskit-aer-cpu",
            Target::Nvidia => "nvidia",
            Target::NvidiaMgpu { .. } => "nvidia-mgpu",
            Target::NvidiaMqpu { .. } => "nvidia-mqpu",
            Target::PennylaneLightningGpu => "pennylane-lightning-gpu",
        }
    }

    /// Device count this target occupies.
    pub fn devices(&self) -> usize {
        match self {
            Target::QiskitAerCpu | Target::Nvidia | Target::PennylaneLightningGpu => 1,
            Target::NvidiaMgpu { devices } | Target::NvidiaMqpu { devices } => *devices,
        }
    }

    /// The performance-model target this corresponds to (mqpu projects as
    /// independent single-GPU runs).
    pub fn model_target(&self) -> ModelTarget {
        match self {
            Target::QiskitAerCpu => ModelTarget::QiskitCpu,
            Target::Nvidia | Target::NvidiaMqpu { .. } => ModelTarget::QGearGpu { devices: 1 },
            Target::NvidiaMgpu { devices } => ModelTarget::QGearGpu { devices: *devices },
            Target::PennylaneLightningGpu => ModelTarget::PennylaneGpu { devices: 1 },
        }
    }

    /// Parse a target string, with an optional `:<devices>` suffix for
    /// the cluster targets (`"nvidia-mgpu:4"`). A zero device count is
    /// refused.
    pub fn parse(s: &str) -> Option<Target> {
        let (name, devices) = match s.split_once(':') {
            Some((n, d)) => (n, d.parse::<usize>().ok().filter(|&d| d > 0)?),
            None => (s, 4),
        };
        Some(match name {
            "qiskit-aer-cpu" | "aer" | "cpu" => Target::QiskitAerCpu,
            "nvidia" => Target::Nvidia,
            "nvidia-mgpu" => Target::NvidiaMgpu { devices },
            "nvidia-mqpu" => Target::NvidiaMqpu { devices },
            "pennylane-lightning-gpu" | "pennylane" => Target::PennylaneLightningGpu,
            _ => return None,
        })
    }
}

impl FromStr for Target {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Target::parse(s).ok_or_else(|| format!("unknown target '{s}'"))
    }
}

impl fmt::Display for Target {
    /// Canonical name plus a `:<devices>` suffix for the cluster targets.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::NvidiaMgpu { devices } | Target::NvidiaMqpu { devices } => {
                write!(f, "{}:{}", self.name(), devices)
            }
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in ["qiskit-aer-cpu", "nvidia", "nvidia-mgpu:8", "nvidia-mqpu:4", "pennylane-lightning-gpu"] {
            let t = Target::parse(s).unwrap();
            assert_eq!(Target::parse(&t.to_string()), Some(t), "{s}");
        }
        assert_eq!(Target::parse("tpu"), None);
        assert_eq!(Target::parse("nvidia-mqpu:0"), None);
        assert_eq!(Target::parse("nvidia-mgpu:0"), None);
    }

    #[test]
    fn default_device_count() {
        assert_eq!(Target::parse("nvidia-mgpu").unwrap().devices(), 4);
        assert_eq!(Target::parse("nvidia").unwrap().devices(), 1);
    }

    #[test]
    fn model_target_mapping() {
        assert_eq!(Target::QiskitAerCpu.model_target(), ModelTarget::QiskitCpu);
        assert_eq!(
            Target::NvidiaMgpu { devices: 16 }.model_target(),
            ModelTarget::QGearGpu { devices: 16 }
        );
        assert_eq!(
            Target::PennylaneLightningGpu.model_target(),
            ModelTarget::PennylaneGpu { devices: 1 }
        );
    }

    #[test]
    fn aliases() {
        assert_eq!(Target::parse("aer"), Some(Target::QiskitAerCpu));
        assert_eq!(Target::parse("pennylane"), Some(Target::PennylaneLightningGpu));
    }
}
