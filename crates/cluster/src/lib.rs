//! Distributed multi-device state-vector simulation.
//!
//! Implements the paper's `nvidia-mgpu` target over *simulated* GPUs:
//! one state vector ([`DistributedState`], walked by [`ShardedRun`];
//! `ClusterEngine::run` drives one straight through) pooled across
//! `P = 2^p` devices. Device `r` owns the amplitudes whose top `p` index
//! bits equal `r`; gates on those global qubits are handled by first
//! *remapping* the global qubit onto a local position with a pairwise
//! half-exchange between partner devices (the standard cuQuantum/mpi
//! distribution scheme), after which every kernel is local. This is what
//! lets Fig. 4a's 4-GPU curve reach 34 qubits and Fig. 4b scale to 42
//! qubits on 1024 GPUs.
//!
//! The devices are slices of one process's memory, so an exchange swaps
//! the two partners' halves in place; what the interconnect would have
//! carried is accounted per message against the [`comm`] topology
//! (NVLink inside a node, Slingshot between nodes, a penalty class across
//! rack/dragonfly groups) by one [`TrafficPlanner`], shared with the dry
//! run — the raw material for the Fig. 4b reversal analysis in
//! `qgear-perfmodel`.

pub mod comm;
pub mod distributed;
pub mod engine;
pub mod layout;
pub mod sharded;

pub use comm::{ClusterTopology, CommError, LinkClass, TrafficStats};
pub use distributed::DistributedState;
pub use layout::{QubitLayout, TrafficPlanner};
pub use engine::ClusterEngine;
pub use sharded::ShardedRun;
