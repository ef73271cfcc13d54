//! The "podman wrapper" (Appendix E.1): a launch-spec builder that
//! "dynamically links batch submission variables, environment parameters
//! (e.g., MPI rank), locally generated circuits, and output directories to
//! the containerized execution environment".

use crate::image::ContainerImage;
use std::collections::BTreeMap;

/// A fully-resolved containerized launch: what one Slurm task executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Runtime executable (`podman-hpc`, `shifter`, …).
    pub runtime: String,
    /// Image reference.
    pub image: String,
    /// Environment passed through to the container.
    pub env: BTreeMap<String, String>,
    /// Host→container bind mounts.
    pub mounts: Vec<(String, String)>,
    /// Program and arguments inside the container.
    pub command: Vec<String>,
}

impl LaunchSpec {
    /// Render the equivalent shell line (the Appendix E.3 form).
    pub fn shell_line(&self) -> String {
        let mut parts = vec![self.runtime.clone(), "run".into()];
        for (k, v) in &self.env {
            parts.push(format!("-e {k}={v}"));
        }
        for (host, cont) in &self.mounts {
            parts.push(format!("-v {host}:{cont}"));
        }
        parts.push(self.image.clone());
        parts.extend(self.command.iter().cloned());
        parts.join(" ")
    }
}

/// Builder threading batch context into containerized launches.
#[derive(Debug, Clone)]
pub struct PodmanWrapper {
    image: ContainerImage,
    env: BTreeMap<String, String>,
    mounts: Vec<(String, String)>,
}

impl PodmanWrapper {
    /// Wrap an image.
    pub fn new(image: ContainerImage) -> Self {
        PodmanWrapper { image, env: BTreeMap::new(), mounts: Vec::new() }
    }

    /// Pass an environment variable into the container.
    pub fn env(mut self, key: &str, value: impl ToString) -> Self {
        self.env.insert(key.to_owned(), value.to_string());
        self
    }

    /// Bind-mount a host path.
    fn mount(mut self, host: &str, container: &str) -> Self {
        self.mounts.push((host.to_owned(), container.to_owned()));
        self
    }

    /// Thread the standard Slurm/MPI batch variables for task `rank` of
    /// `world` (the wrapper's core job).
    fn with_mpi_rank(self, rank: u32, world: u32) -> Self {
        self.env("SLURM_PROCID", rank)
            .env("SLURM_NTASKS", world)
            .env("MPICH_GPU_SUPPORT_ENABLED", 1)
    }

    /// Bind the circuit input (HDF5 tensor file) and output directory —
    /// "locally generated circuits and output directories".
    pub fn with_circuit_io(self, circuits_h5: &str, out_dir: &str) -> Self {
        self.mount(circuits_h5, "/input/circuits.h5")
            .mount(out_dir, "/output")
            .env("QGEAR_CIRCUITS", "/input/circuits.h5")
            .env("QGEAR_OUTDIR", "/output")
    }

    /// Finalize with the in-container command.
    pub fn command(&self, program: &str, args: &[&str]) -> LaunchSpec {
        let mut env = self.image.env.clone();
        env.extend(self.env.clone());
        LaunchSpec {
            runtime: self.image.runtime.command().to_owned(),
            image: self.image.reference.clone(),
            env,
            mounts: self.mounts.clone(),
            command: std::iter::once(program.to_owned())
                .chain(args.iter().map(|s| (*s).to_owned()))
                .collect(),
        }
    }

    /// Build one launch per MPI rank — what `mpiexec -np <world>` expands
    /// to under the wrapper.
    pub fn mpi_launches(&self, world: u32, program: &str, args: &[&str]) -> Vec<LaunchSpec> {
        (0..world)
            .map(|rank| {
                self.clone()
                    .with_mpi_rank(rank, world)
                    .command(program, args)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrapper() -> PodmanWrapper {
        PodmanWrapper::new(ContainerImage::podman_hpc_image())
    }

    #[test]
    fn env_and_mounts_thread_through() {
        let spec = wrapper()
            .with_circuit_io("/scratch/circ.h5", "/scratch/out")
            .env("QGEAR_TARGET", "nvidia-mgpu")
            .command("python", &["run.py", "--target", "nvidia-mgpu"]);
        assert_eq!(spec.env.get("QGEAR_TARGET").unwrap(), "nvidia-mgpu");
        assert_eq!(spec.env.get("QGEAR_CIRCUITS").unwrap(), "/input/circuits.h5");
        assert!(spec.mounts.contains(&("/scratch/out".into(), "/output".into())));
        assert_eq!(spec.command[0], "python");
    }

    #[test]
    fn image_env_baked_in_but_overridable() {
        let spec = wrapper().command("true", &[]);
        // Baked into the podman image:
        assert_eq!(spec.env.get("MPICH_GPU_SUPPORT_ENABLED").unwrap(), "1");
        let spec2 = wrapper().env("MPICH_GPU_SUPPORT_ENABLED", 0).command("true", &[]);
        assert_eq!(spec2.env.get("MPICH_GPU_SUPPORT_ENABLED").unwrap(), "0");
    }

    #[test]
    fn mpi_launches_enumerate_ranks() {
        let launches = wrapper().mpi_launches(4, "python", &["run.py"]);
        assert_eq!(launches.len(), 4);
        for (rank, spec) in launches.iter().enumerate() {
            assert_eq!(spec.env.get("SLURM_PROCID").unwrap(), &rank.to_string());
            assert_eq!(spec.env.get("SLURM_NTASKS").unwrap(), "4");
        }
    }

    #[test]
    fn shell_line_resembles_appendix_e3() {
        let line = wrapper()
            .with_mpi_rank(0, 4)
            .command("python", &["run.py", "--target", "nvidia-mgpu"])
            .shell_line();
        assert!(line.starts_with("podman-hpc run"));
        assert!(line.contains("--target nvidia-mgpu"));
        assert!(line.contains("SLURM_PROCID=0"));
    }
}
