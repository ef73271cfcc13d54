//! Distributed multi-device state-vector simulation.
//!
//! Implements the paper's `nvidia-mgpu` and `nvidia-mqpu` targets over
//! *simulated* GPUs:
//!
//! * **mgpu** ([`DistributedState`], walked by [`ShardedRun`];
//!   `ClusterEngine::run` drives one straight through) — one state
//!   vector pooled across `P = 2^p` devices. Device `r` owns the
//!   amplitudes whose top `p` index bits equal `r`; gates on those global
//!   qubits are handled by first *remapping* the global qubit onto a local
//!   position with a pairwise half-exchange between partner devices (the
//!   standard cuQuantum/mpi distribution scheme), after which every kernel
//!   is local. This is what lets Fig. 4a's 4-GPU curve reach 34 qubits and
//!   Fig. 4b scale to 42 qubits on 1024 GPUs.
//! * **mqpu** ([`ClusterEngine::run_batch`]) — many independent circuits,
//!   one per device, "effectively utilizing them as four quantum
//!   processing units" (§3).
//!
//! Exchanges move real buffers between scoped threads through crossbeam
//! channels, and every message is accounted against the [`comm`] topology
//! (NVLink inside a node, Slingshot between nodes, a penalty class across
//! rack/dragonfly groups) — the raw material for the Fig. 4b reversal
//! analysis in `qgear-perfmodel`.

pub mod comm;
pub mod distributed;
pub mod engine;
pub mod layout;
pub mod sharded;

pub use comm::{exchange_buffers, ClusterTopology, CommError, LinkClass, TrafficStats};
pub use distributed::DistributedState;
pub use layout::{QubitLayout, TrafficPlanner};
pub use engine::ClusterEngine;
pub use sharded::ShardedRun;
