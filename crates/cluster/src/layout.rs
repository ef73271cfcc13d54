//! Logical↔physical qubit layout and the traffic accountant built on it.
//!
//! The amplitude-moving engine ([`crate::DistributedState`]) and the dry
//! run must make *identical* remap decisions and charge them identically,
//! or the performance model would cost a different communication schedule
//! than the one actually executed. Both therefore plan with
//! [`QubitLayout::plan_block_mixing`] and charge through one
//! [`TrafficPlanner`] — the engine holds one as a field.

use crate::comm::{ClusterTopology, CommError, LinkClass, TrafficStats};
use qgear_ir::fusion::FusedProgram;

/// Tracks which physical bit position holds each logical qubit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitLayout {
    /// Logical qubit → physical bit position.
    layout: Vec<u32>,
    /// Physical bit position → logical qubit.
    inverse: Vec<u32>,
    /// Local width: positions `< lw` are device-local.
    lw: u32,
}

/// One planned remap: swap this local physical position with this global
/// physical position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedSwap {
    /// Local physical position (`< local_width`).
    pub local: u32,
    /// Global physical position (`>= local_width`).
    pub global: u32,
}

impl QubitLayout {
    /// Identity layout over `n` qubits with `lw` local positions.
    pub fn identity(n: u32, lw: u32) -> Self {
        QubitLayout { layout: (0..n).collect(), inverse: (0..n).collect(), lw }
    }

    /// Local width.
    pub fn local_width(&self) -> u32 {
        self.lw
    }

    /// Physical position of a logical qubit.
    pub fn physical(&self, logical: u32) -> u32 {
        self.layout[logical as usize]
    }

    /// Logical qubit at a physical position.
    pub fn logical_at(&self, physical: u32) -> u32 {
        self.inverse[physical as usize]
    }

    /// True if every logical qubit sits at its home position.
    pub fn is_identity(&self) -> bool {
        self.layout.iter().enumerate().all(|(q, &p)| q as u32 == p)
    }

    /// Record a swap of two physical positions (the caller moves the data).
    pub fn note_swap(&mut self, a: u32, b: u32) {
        let qa = self.inverse[a as usize];
        let qb = self.inverse[b as usize];
        self.layout[qa as usize] = b;
        self.layout[qb as usize] = a;
        self.inverse[a as usize] = qb;
        self.inverse[b as usize] = qa;
    }

    /// Plan the remaps needed before a kernel over `block_qubits` (logical)
    /// can run locally, updating the layout as each swap is planned. The
    /// policy — remap each global operand onto the highest free local
    /// position — is the single source of truth for both execution and
    /// cost projection.
    pub fn plan_block(&mut self, block_qubits: &[u32]) -> Vec<PlannedSwap> {
        let all = vec![true; block_qubits.len()];
        self.plan_block_mixing(block_qubits, &all)
    }

    /// Mixing-aware planning: only operands the kernel actually *mixes*
    /// (per [`qgear_ir::fusion::FusedBlock::mixing_mask`]) must be local;
    /// unmixed operands (pure controls / diagonal phases) stay global and
    /// are handled by rank-selected sub-tables with zero communication.
    pub fn plan_block_mixing(
        &mut self,
        block_qubits: &[u32],
        mixing: &[bool],
    ) -> Vec<PlannedSwap> {
        debug_assert_eq!(block_qubits.len(), mixing.len());
        let lw = self.lw;
        let mut swaps = Vec::new();
        loop {
            let phys: Vec<u32> = block_qubits.iter().map(|&q| self.physical(q)).collect();
            let Some(pos) = phys
                .iter()
                .enumerate()
                .position(|(j, &p)| mixing[j] && p >= lw)
            else {
                break;
            };
            // The highest local position no block qubit holds, else the
            // highest one an unmixed block qubit holds: a block may span
            // more qubits than the local width, never mix more.
            let unmixed_at = |cand: u32| phys.iter().zip(mixing).any(|(&p, &m)| p == cand && !m);
            let free = (0..lw)
                .rev()
                .find(|cand| !phys.contains(cand))
                .or_else(|| (0..lw).rev().find(|&cand| unmixed_at(cand)))
                .expect("block mixes more qubits than the local width");
            let swap = PlannedSwap { local: free, global: phys[pos] };
            self.note_swap(swap.local, swap.global);
            swaps.push(swap);
        }
        swaps
    }
}

/// The one traffic accountant: owns the qubit layout, the per-class
/// [`TrafficStats`] and the swap count of a run over `2^p` devices.
/// [`crate::DistributedState`] holds one and moves amplitudes as it
/// charges; on its own it is the dry run that walks a fused program
/// through the same remap policy without touching a single amplitude —
/// how `qgear-perfmodel` costs 42-qubit runs on 1024 GPUs from a laptop.
#[derive(Debug, Clone)]
pub struct TrafficPlanner {
    pub(crate) layout: QubitLayout,
    num_devices: usize,
    topology: ClusterTopology,
    traffic: TrafficStats,
    swaps: u64,
    /// Bytes one device sends its partner in a swap: half its slice.
    message_bytes: u128,
}

impl TrafficPlanner {
    /// Plan for `num_qubits` over `num_devices = 2^p` devices with
    /// `amp_bytes` per amplitude (8 for fp32, 16 for fp64).
    pub fn new(
        num_qubits: u32,
        num_devices: usize,
        topology: ClusterTopology,
        amp_bytes: u64,
    ) -> Self {
        assert!(num_devices.is_power_of_two(), "device count must be a power of two");
        let p = num_devices.trailing_zeros();
        assert!(p <= num_qubits, "more device index bits than qubits");
        TrafficPlanner {
            layout: QubitLayout::identity(num_qubits, num_qubits - p),
            num_devices,
            topology,
            traffic: TrafficStats::default(),
            swaps: 0,
            message_bytes: (1u128 << (num_qubits - p)) / 2 * amp_bytes as u128,
        }
    }

    /// Charge the swap of physical positions `local` and `global`: every
    /// device pairs with the partner across the global bit and the two
    /// exchange half a slice, one message each way. `exchange` is handed
    /// each pair (lower rank first), its link class and the bytes of one
    /// message before the pair is charged — the engine moves the
    /// amplitudes there, the dry run does nothing — and its error stops
    /// the swap with the earlier pairs charged and the layout as it was.
    pub(crate) fn swap(
        &mut self,
        local: u32,
        global: u32,
        mut exchange: impl FnMut(usize, usize, LinkClass, u128) -> Result<(), CommError>,
    ) -> Result<(), CommError> {
        let partner_bit = 1usize << (global - self.layout.local_width());
        for r0 in (0..self.num_devices).filter(|r| r & partner_bit == 0) {
            let r1 = r0 | partner_bit;
            let class = self.topology.link_class(r0, r1);
            exchange(r0, r1, class, self.message_bytes)?;
            self.traffic.record(class, self.message_bytes);
            self.traffic.record(class, self.message_bytes);
        }
        self.swaps += 1;
        self.layout.note_swap(local, global);
        Ok(())
    }

    /// Walk a whole fused program (mixing-aware, matching the engine).
    pub fn run_program(&mut self, program: &FusedProgram) {
        for block in &program.blocks {
            for swap in self.layout.clone().plan_block_mixing(&block.qubits, &block.mixing_mask()) {
                self.swap(swap.local, swap.global, |_, _, _, _| Ok(()))
                    .expect("the dry run's exchange cannot fail");
            }
        }
    }

    /// Accumulated traffic.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Number of remap swaps planned.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::fusion::fuse;
    use qgear_ir::Circuit;

    #[test]
    fn identity_layout_roundtrip() {
        let mut l = QubitLayout::identity(6, 4);
        assert!(l.is_identity());
        assert_eq!(l.physical(5), 5);
        l.note_swap(1, 5);
        assert!(!l.is_identity());
        assert_eq!(l.physical(5), 1);
        assert_eq!(l.physical(1), 5);
        assert_eq!(l.logical_at(1), 5);
        l.note_swap(1, 5);
        assert!(l.is_identity());
    }

    #[test]
    fn plan_block_local_only_is_empty() {
        let mut l = QubitLayout::identity(8, 5);
        assert!(l.plan_block(&[0, 3, 4]).is_empty());
    }

    #[test]
    fn plan_block_remaps_globals() {
        let mut l = QubitLayout::identity(8, 5);
        let swaps = l.plan_block(&[6, 7]);
        assert_eq!(swaps.len(), 2);
        for s in &swaps {
            assert!(s.local < 5);
            assert!(s.global >= 5);
        }
        // After planning, both block qubits sit locally.
        assert!(l.physical(6) < 5);
        assert!(l.physical(7) < 5);
        // Planning again is free.
        assert!(l.plan_block(&[6, 7]).is_empty());
    }

    #[test]
    fn a_block_wider_than_the_local_width_displaces_a_control() {
        // Six qubits over four local positions: a kernel mixing global
        // qubit 5 and only controlling 0..=4 holds every local position,
        // so the control at the highest one goes global in its place.
        let mut l = QubitLayout::identity(6, 4);
        let swaps = l.plan_block_mixing(&[5, 0, 1, 2, 3, 4], &[true, false, false, false, false, false]);
        assert_eq!(swaps, vec![PlannedSwap { local: 3, global: 5 }]);
        assert_eq!((l.physical(5), l.physical(3)), (3, 5));
    }

    #[test]
    fn planner_traffic_matches_real_engine() {
        use crate::distributed::DistributedState;
        // The dry-run planner and the amplitude-moving engine must report
        // the same traffic for the same program.
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        for i in 0..20u32 {
            c.cx(i % 8, (i + 3) % 8);
            c.ry(0.1 * i as f64, (i + 5) % 8);
        }
        let prog = fuse(&c, 3);
        let topo = ClusterTopology::default();
        let mut planner = TrafficPlanner::new(8, 4, topo, 16);
        planner.run_program(&prog);
        let mut real: DistributedState<f64> = DistributedState::zero(8, 4, topo);
        real.run_program(&prog).expect("healthy fabric");
        assert_eq!(planner.traffic(), real.traffic());
        assert_eq!(planner.swaps(), real.swaps());
        assert!(planner.swaps() > 0);
    }

    #[test]
    fn planner_scales_to_paper_sizes() {
        // 42 qubits on 1024 GPUs — impossible to *execute* here, trivial to
        // plan: this is the Fig. 4b costing path.
        let mut c = Circuit::new(42);
        for i in 0..200u32 {
            let a = (i * 7) % 42;
            let b = (a + 1 + (i * 13) % 41) % 42;
            c.ry(0.3, a);
            c.rz(0.2, b);
            c.cx(a, b);
        }
        let prog = fuse(&c, 5);
        let mut planner = TrafficPlanner::new(42, 1024, ClusterTopology::default(), 8);
        planner.run_program(&prog);
        assert!(planner.swaps() > 0);
        let t = planner.traffic();
        // Some swaps land on rank bits crossing nodes and racks.
        assert!(t.total_bytes() > 0);
        // Per-message size: half of 2^32 amps × 8 B = 16 GiB.
        let expected_msg = (1u128 << 31) * 8;
        assert_eq!(t.total_bytes() % expected_msg, 0);
    }
}
