//! Interconnect topology and per-link-class traffic accounting.
//!
//! Perlmutter's GPU partition (§2.3, Fig. 3): 4 A100s per node joined by
//! NVLink-3, nodes joined by HPE Slingshot-11 NICs, and nodes grouped into
//! racks / dragonfly groups — the paper attributes the Fig. 4b throughput
//! reversal at 1024 GPUs to traffic "crossing the rack boundary". The
//! topology here classifies every device pair into one of those three
//! link classes so traffic can be costed per class.

use qgear_telemetry::names;
use std::fmt;

/// Link classes in increasing cost order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum LinkClass {
    /// Same node: third-generation NVLink (25 GB/s per direction per
    /// link, 4 links).
    IntraNode = 0,
    /// Different node, same rack group: Slingshot-11 NIC.
    InterNode = 1,
    /// Different rack/dragonfly group: Slingshot through the global links,
    /// with contention — the paper's suspected reversal cause.
    InterRack = 2,
}

impl LinkClass {
    /// All classes, index-aligned with the counter arrays.
    pub const ALL: [LinkClass; 3] = [LinkClass::IntraNode, LinkClass::InterNode, LinkClass::InterRack];

    /// Human-readable label.
    pub const fn name(self) -> &'static str {
        match self {
            LinkClass::IntraNode => "nvlink-intra-node",
            LinkClass::InterNode => "slingshot-inter-node",
            LinkClass::InterRack => "slingshot-inter-rack",
        }
    }

    /// The `(comm.bytes.<class>, comm.messages.<class>)` counters the
    /// real distributed engine adds to per exchange over this class.
    pub const fn counters(self) -> (&'static str, &'static str) {
        match self {
            LinkClass::IntraNode => (names::COMM_BYTES_INTRA_NODE, names::COMM_MESSAGES_INTRA_NODE),
            LinkClass::InterNode => (names::COMM_BYTES_INTER_NODE, names::COMM_MESSAGES_INTER_NODE),
            LinkClass::InterRack => (names::COMM_BYTES_INTER_RACK, names::COMM_MESSAGES_INTER_RACK),
        }
    }
}

/// The two link faults a test or fault plan can inject into an exchange
/// (`DistributedState::inject_link_fault`) — the shapes a real fabric
/// fails in: a peer (or its NIC) going away mid-transfer, and a transfer
/// whose link-layer integrity check rejects the payload. Nothing in this
/// one-process simulation fails on its own. Either way the amplitudes of
/// the failed exchange are lost — callers must treat the partitioned
/// state as dead and recover from a checkpoint, never patch around a
/// half-exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommError {
    /// The partner endpoint went away before the exchange completed.
    Dropped,
    /// The payload arrived but failed the link-layer integrity check.
    Corrupted,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Dropped => f.write_str("exchange dropped: partner endpoint died"),
            CommError::Corrupted => f.write_str("exchange corrupted: payload failed integrity check"),
        }
    }
}

impl std::error::Error for CommError {}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical layout of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// GPUs per node (Perlmutter: 4).
    pub gpus_per_node: usize,
    /// Nodes per rack / dragonfly group (Perlmutter groups are larger, but
    /// 32 nodes ≈ 128 GPUs reproduces the observed 256→1024 GPU behaviour;
    /// see `qgear-perfmodel::calibration`).
    pub nodes_per_rack: usize,
}

impl Default for ClusterTopology {
    fn default() -> Self {
        ClusterTopology { gpus_per_node: 4, nodes_per_rack: 32 }
    }
}

impl ClusterTopology {
    /// Node index of a device rank.
    fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// Rack index of a device rank.
    fn rack_of(&self, rank: usize) -> usize {
        self.node_of(rank) / self.nodes_per_rack
    }

    /// Classify the link between two device ranks.
    pub fn link_class(&self, a: usize, b: usize) -> LinkClass {
        if self.node_of(a) == self.node_of(b) {
            LinkClass::IntraNode
        } else if self.rack_of(a) == self.rack_of(b) {
            LinkClass::InterNode
        } else {
            LinkClass::InterRack
        }
    }

    /// Number of nodes needed for `gpus` devices.
    pub fn nodes_for(&self, gpus: usize) -> usize {
        gpus.div_ceil(self.gpus_per_node)
    }
}

/// Per-link-class traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bytes moved, indexed by [`LinkClass`].
    pub bytes: [u128; 3],
    /// Messages sent, indexed by [`LinkClass`].
    pub messages: [u64; 3],
}

impl TrafficStats {
    /// Record one message of `bytes` over `class`.
    pub fn record(&mut self, class: LinkClass, bytes: u128) {
        self.bytes[class as usize] += bytes;
        self.messages[class as usize] += 1;
    }

    /// Total bytes over all classes.
    pub fn total_bytes(&self) -> u128 {
        self.bytes.iter().sum()
    }

    /// Total messages over all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Bytes over one class.
    pub fn bytes_over(&self, class: LinkClass) -> u128 {
        self.bytes[class as usize]
    }

    /// Merge counters from another run.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..3 {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_classification() {
        let t = ClusterTopology::default(); // 4 GPUs/node, 32 nodes/rack
        assert_eq!(t.link_class(0, 3), LinkClass::IntraNode);
        assert_eq!(t.link_class(0, 4), LinkClass::InterNode);
        assert_eq!(t.link_class(0, 127), LinkClass::InterNode); // node 31, rack 0
        assert_eq!(t.link_class(0, 128), LinkClass::InterRack); // node 32, rack 1
        assert_eq!(t.link_class(130, 131), LinkClass::IntraNode);
    }

    #[test]
    fn nodes_for_rounds_up() {
        let t = ClusterTopology::default();
        assert_eq!(t.nodes_for(1), 1);
        assert_eq!(t.nodes_for(4), 1);
        assert_eq!(t.nodes_for(5), 2);
        assert_eq!(t.nodes_for(1024), 256);
    }

    #[test]
    fn traffic_counters() {
        let mut s = TrafficStats::default();
        s.record(LinkClass::IntraNode, 100);
        s.record(LinkClass::InterRack, 1000);
        s.record(LinkClass::InterRack, 1000);
        assert_eq!(s.total_bytes(), 2100);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.bytes_over(LinkClass::InterRack), 2000);
        let mut t = TrafficStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.total_bytes(), 4200);
    }

    #[test]
    fn comm_error_displays_both_shapes() {
        assert!(CommError::Dropped.to_string().contains("dropped"));
        assert!(CommError::Corrupted.to_string().contains("integrity"));
        assert_ne!(CommError::Dropped, CommError::Corrupted);
    }

    #[test]
    fn class_counters_follow_the_naming_convention_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for class in LinkClass::ALL {
            let (bytes, messages) = class.counters();
            let suffix = bytes.strip_prefix("comm.bytes.").expect("comm.bytes.<class>");
            assert_eq!(messages.strip_prefix("comm.messages."), Some(suffix));
            assert!(suffix.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert!(seen.insert(suffix));
        }
    }
}
