//! Container image descriptions.
//!
//! Appendix E.1/E.2: the Podman image starts from a GCC-preinstalled
//! CUDA 12 DevOps base and layers NERSC's Cray MPICH plus the Python
//! stack (`cupy-cuda12x`, `mpi4py`, `qiskit`, `cudaq`); the Shifter image
//! builds on the cuda-quantum nightly with `qiskit-aer`, `h5py`, and
//! `qiskit-ibm-experiment`. The structures here model layers and stable
//! content digests — enough to validate that a workflow's image actually
//! provides what its jobs import.

use std::collections::{BTreeMap, BTreeSet};

/// Which engine runs the image (same CLI syntax, per §4: "Docker and
/// Podman share the same syntax").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerRuntime {
    /// Podman-HPC (single-node mode, Appendix E.1).
    PodmanHpc,
    /// Shifter (multi-node mode, Appendix E.2).
    Shifter,
    /// Plain Docker (compatible syntax).
    Docker,
}

impl ContainerRuntime {
    /// CLI executable name.
    pub const fn command(self) -> &'static str {
        match self {
            ContainerRuntime::PodmanHpc => "podman-hpc",
            ContainerRuntime::Shifter => "shifter",
            ContainerRuntime::Docker => "docker",
        }
    }
}

/// An immutable container image: base layer, packages, environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerImage {
    /// Image reference (name:tag).
    pub reference: String,
    /// Base image reference.
    pub base: String,
    /// Runtime flavor.
    pub runtime: ContainerRuntime,
    /// Installed packages (sorted set — layer order doesn't affect the
    /// resolved content).
    pub packages: BTreeSet<String>,
    /// Baked-in environment.
    pub env: BTreeMap<String, String>,
}

impl ContainerImage {
    /// True if `pkg` is installed.
    pub fn provides(&self, pkg: &str) -> bool {
        self.packages.contains(pkg)
    }

    /// Stable content digest (order-independent over packages and env).
    pub fn digest(&self) -> u64 {
        // FNV-1a over a canonical rendering; stability matters, speed not.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |s: &str| {
            for b in s.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(&self.reference);
        eat(&self.base);
        eat(self.runtime.command());
        for p in &self.packages {
            eat(p);
        }
        for (k, v) in &self.env {
            eat(k);
            eat(v);
        }
        h
    }

    /// The paper's Podman-HPC image (Appendix E.1).
    pub fn podman_hpc_image() -> Self {
        ImageBuilder::from_base("nvcr.io/nvidia/cuda:12.0-devel", ContainerRuntime::PodmanHpc)
            .name("qgear-podman:latest")
            .package("cuda-12")
            .package("gcc")
            .package("cray-mpich")
            .package("cuquantum")
            .package("cudaq")
            .package("cupy-cuda12x")
            .package("mpi4py")
            .package("qiskit")
            .package("hdf5")
            .package("h5py")
            .env("MPICH_GPU_SUPPORT_ENABLED", "1")
            .build()
    }

}

/// Builder for [`ContainerImage`].
#[derive(Debug, Clone)]
pub struct ImageBuilder {
    reference: String,
    base: String,
    runtime: ContainerRuntime,
    packages: BTreeSet<String>,
    env: BTreeMap<String, String>,
}

impl ImageBuilder {
    /// Start from a base image.
    pub fn from_base(base: &str, runtime: ContainerRuntime) -> Self {
        ImageBuilder {
            reference: format!("{base}-derived"),
            base: base.to_owned(),
            runtime,
            packages: BTreeSet::new(),
            env: BTreeMap::new(),
        }
    }

    /// Set the image reference.
    pub fn name(mut self, reference: &str) -> Self {
        self.reference = reference.to_owned();
        self
    }

    /// Install a package.
    pub fn package(mut self, pkg: &str) -> Self {
        self.packages.insert(pkg.to_owned());
        self
    }

    /// Bake an environment variable.
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.env.insert(key.to_owned(), value.to_owned());
        self
    }

    /// Finalize.
    pub fn build(self) -> ContainerImage {
        ContainerImage {
            reference: self.reference,
            base: self.base,
            runtime: self.runtime,
            packages: self.packages,
            env: self.env,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_stable_and_content_sensitive() {
        let a = ContainerImage::podman_hpc_image();
        let b = ContainerImage::podman_hpc_image();
        assert_eq!(a.digest(), b.digest());
        let c = ImageBuilder::from_base("nvcr.io/nvidia/cuda:12.0-devel", ContainerRuntime::PodmanHpc)
            .name("qgear-podman:latest")
            .package("cuda-12")
            .build();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_order_independent() {
        let a = ImageBuilder::from_base("x", ContainerRuntime::Docker)
            .package("p1")
            .package("p2")
            .build();
        let b = ImageBuilder::from_base("x", ContainerRuntime::Docker)
            .package("p2")
            .package("p1")
            .build();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn provides_and_runtime_commands() {
        let img = ContainerImage::podman_hpc_image();
        assert!(img.provides("cudaq"));
        assert!(!img.provides("tensorflow-quantum"));
        assert_eq!(img.runtime.command(), "podman-hpc");
        assert_eq!(ContainerRuntime::Shifter.command(), "shifter");
    }
}
