//! The pooled-memory distributed state vector (`nvidia-mgpu`).
//!
//! Amplitude `i` of the `2^n`-element state lives on device
//! `r = i >> (n - p)` at local offset `i mod 2^(n-p)`, for `P = 2^p`
//! devices. Kernels on *local* qubits (bit positions `< n-p`) run
//! device-parallel with no communication. Kernels touching *global*
//! qubits are preceded by a **qubit remap**: the global bit is swapped
//! with a free local bit via a pairwise half-exchange between partner
//! devices, after which the kernel is local. The logical→physical qubit
//! layout is tracked so remaps persist across kernels (cheaper than
//! swapping back, and the default; see [`DistributedState::set_restore_layout`]
//! for the ablation).

use crate::comm::{ClusterTopology, CommError, TrafficStats};
use crate::layout::TrafficPlanner;
use qgear_ir::fusion::{FusedBlock, FusedProgram};
use qgear_num::{Complex, Scalar};
use qgear_statevec::gpu::GpuDevice;
use qgear_statevec::StateVector;

/// A state vector partitioned over `2^p` simulated devices.
#[derive(Debug, Clone)]
pub struct DistributedState<T: Scalar> {
    /// Per-device amplitude slices, each of length `2^(n-p)`.
    parts: Vec<Vec<Complex<T>>>,
    /// Qubit layout, per-class traffic and swap count — the same
    /// accountant the dry run uses, so the two cannot disagree.
    planner: TrafficPlanner,
    /// Pairwise exchanges attempted (each moves two messages).
    exchanges: u64,
    /// Injected link fault: fail the exchange with this index. Consulted
    /// once; the fault fires on the matching exchange and is cleared.
    inject: Option<(u64, CommError)>,
    /// Restore the identity layout after every block (ablation mode;
    /// costs extra exchanges).
    restore_layout: bool,
}

impl<T: Scalar> DistributedState<T> {
    /// `|0…0⟩` over `num_qubits`, split across `num_devices` (a power of
    /// two, at most `2^num_qubits`).
    pub fn zero(num_qubits: u32, num_devices: usize, topology: ClusterTopology) -> Self {
        let planner = TrafficPlanner::new(num_qubits, num_devices, topology, 2 * T::BYTES as u64);
        let local_len = 1usize << (num_qubits - num_devices.trailing_zeros());
        let mut parts = vec![vec![Complex::ZERO; local_len]; num_devices];
        parts[0][0] = Complex::ONE;
        DistributedState { parts, planner, exchanges: 0, inject: None, restore_layout: false }
    }

    /// Register width.
    pub fn num_qubits(&self) -> u32 {
        self.local_width() + self.parts.len().trailing_zeros()
    }

    /// Device count.
    pub fn num_devices(&self) -> usize {
        self.parts.len()
    }

    /// Width of the local index (qubits resident on one device).
    pub fn local_width(&self) -> u32 {
        self.planner.layout.local_width()
    }

    /// Per-device amplitude bytes.
    pub fn local_bytes(&self) -> u128 {
        (self.parts[0].len() as u128) * 2 * T::BYTES as u128
    }

    /// Accumulated exchange traffic.
    pub fn traffic(&self) -> &TrafficStats {
        self.planner.traffic()
    }

    /// Global↔local swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.planner.swaps()
    }

    /// Pairwise exchanges performed so far (each exchange carries two
    /// messages, one per direction).
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Arm a link-fault injection: the exchange with 0-based index
    /// `at_exchange` (counting every pairwise exchange this state
    /// performs) fails with `err` instead of moving amplitudes. The
    /// injection fires at most once and is cleared afterwards. Exchanges
    /// already performed are unaffected — arming a past index is a no-op.
    pub fn inject_link_fault(&mut self, at_exchange: u64, err: CommError) {
        self.inject = Some((at_exchange, err));
    }

    /// Enable the remap-and-restore ablation: after each block, swap the
    /// layout back to identity (doubling exchange traffic on global-qubit
    /// blocks).
    pub fn set_restore_layout(&mut self, restore: bool) {
        self.restore_layout = restore;
    }

    /// Physical bit position of a logical qubit.
    pub fn physical(&self, logical: u32) -> u32 {
        self.planner.layout.physical(logical)
    }

    /// Swap physical bit positions `local` and `global`: partner devices
    /// trade half a slice each. All the devices are slices of this
    /// process's memory, so the exchange is a swap in place — the upper
    /// half of every `2^(local+1)` block on the lower rank against the
    /// lower half of the same block on the higher rank — and the
    /// interconnect is what the planner charges for it.
    ///
    /// On a [`CommError`] (armed with
    /// [`DistributedState::inject_link_fault`]) the partitioned state is
    /// left **inconsistent** (the earlier pairs have exchanged, the
    /// failed pair has not) and must be discarded; callers recover from a
    /// checkpoint or restart.
    fn swap_local_global(&mut self, local: u32, global: u32) -> Result<(), CommError> {
        debug_assert!(local < self.local_width() && global >= self.local_width());
        let run = 1usize << local;
        self.planner.swap(local, global, |r0, r1, class, bytes| {
            let this_exchange = self.exchanges;
            self.exchanges += 1;
            if let Some((_, err)) = self.inject.take_if(|(at, _)| *at == this_exchange) {
                return Err(err);
            }
            let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::EXCHANGE);
            let (lower, upper) = self.parts.split_at_mut(r1);
            let (p0, p1) = (&mut lower[r0], &mut upper[0]);
            for (b0, b1) in p0.chunks_exact_mut(2 * run).zip(p1.chunks_exact_mut(2 * run)) {
                b0[run..].swap_with_slice(&mut b1[..run]);
            }
            // Process-wide counters for the engine only: a dry run
            // charges its own `TrafficStats` and no telemetry.
            let (bytes_counter, messages_counter) = class.counters();
            qgear_telemetry::counter_add(bytes_counter, 2 * bytes);
            qgear_telemetry::counter_add(messages_counter, 2);
            Ok(())
        })
    }

    /// Apply one fused kernel addressed in *logical* qubits.
    ///
    /// Global operands the kernel *mixes* are first remapped onto local
    /// positions (pairwise half-exchanges). Global operands it does **not**
    /// mix — pure controls and diagonal phases — stay global: each device
    /// applies the sub-table its own rank bits select
    /// ([`FusedBlock::select`]), with zero communication (the
    /// cuQuantum-style control/diagonal optimization).
    ///
    /// The kernel itself is [`GpuDevice::apply_to_slices`]: planned once
    /// per step at the operands' physical positions — once per rank-bit
    /// pattern when some stayed global — and run over every slice that
    /// plan serves, each slice getting bit for bit what
    /// [`GpuDevice::apply_block`] would do to it.
    pub fn apply_block(&mut self, block: &FusedBlock) -> Result<(), CommError> {
        // Plan remaps on a layout clone (the shared mixing-aware policy in
        // `QubitLayout::plan_block_mixing`), then execute each planned
        // swap — the data movement updates the planner's layout to match.
        let mut planned = self.planner.layout.clone();
        for swap in planned.plan_block_mixing(&block.qubits, &block.mixing_mask()) {
            self.swap_local_global(swap.local, swap.global)?;
        }
        debug_assert_eq!(self.planner.layout, planned, "execution diverged from plan");
        let lw = self.local_width();
        // Split operands: still-global ones (all unmixed, by planning)
        // condition the kernel on `(local bit, rank bit)`, the rest say
        // which slice bits it acts on, in local-bit order.
        let mut conditional: Vec<(usize, u32)> = Vec::new();
        let mut positions: Vec<u32> = Vec::with_capacity(block.qubits.len());
        for (j, &q) in block.qubits.iter().enumerate() {
            match self.physical(q) {
                p if p < lw => positions.push(p),
                p => conditional.push((j, p - lw)),
            }
        }
        let pattern_of = |rank: usize| -> usize {
            let bits = conditional.iter().enumerate();
            bits.map(|(bit, &(_, rank_bit))| (rank >> rank_bit & 1) << bit).sum()
        };
        // One kernel per rank-bit pattern, shared by every device with
        // that pattern: the sub-table the pattern selects, or with
        // nothing conditional the block itself on every slice.
        for pattern in 0..1usize << conditional.len() {
            let selected;
            let kernel = if conditional.is_empty() {
                block
            } else {
                let fixed: Vec<(usize, usize)> = conditional
                    .iter()
                    .enumerate()
                    .map(|(bit, &(j, _))| (j, (pattern >> bit) & 1))
                    .collect();
                selected = block.select(&fixed);
                &selected
            };
            let slices = self.parts.iter_mut().enumerate();
            let slices = slices.filter(|&(rank, _)| pattern_of(rank) == pattern);
            let slices = slices.map(|(_, part)| part.as_mut_slice());
            GpuDevice::apply_to_slices(slices, kernel, &positions);
        }
        if self.restore_layout {
            self.restore_identity_layout()?;
        }
        Ok(())
    }

    /// Swap physical positions until the layout is the identity again.
    ///
    /// Selection-fix loop: repeatedly take the lowest misplaced logical
    /// qubit and swap it home. Fixing `q` can only disturb the occupant of
    /// `q`'s home position, which is itself misplaced, so the fixed prefix
    /// grows monotonically and the loop terminates after ≤ n swaps.
    pub(crate) fn restore_identity_layout(&mut self) -> Result<(), CommError> {
        let lw = self.local_width();
        while let Some(q) = (0..self.num_qubits()).find(|&q| self.physical(q) != q) {
            let cur = self.physical(q);
            let home = q;
            match (cur < lw, home < lw) {
                (true, true) => self.swap_local_local(cur, home),
                (true, false) => self.swap_local_global(cur, home)?,
                (false, true) => self.swap_local_global(home, cur)?,
                (false, false) => {
                    // Route through any local bit f: swap(f,cur), swap(f,home),
                    // swap(f,cur) exchanges the two global positions and
                    // returns f's occupant.
                    let f = lw - 1;
                    self.swap_local_global(f, cur)?;
                    self.swap_local_global(f, home)?;
                    self.swap_local_global(f, cur)?;
                }
            }
        }
        Ok(())
    }

    /// Swap two *local* physical bit positions on every device (pure local
    /// data permutation, no communication).
    fn swap_local_local(&mut self, a: u32, b: u32) {
        debug_assert!(a != b);
        let (ma, mb) = (1usize << a, 1usize << b);
        for part in &mut self.parts {
            for i in 0..part.len() {
                // Visit each mismatched pair once: bit a set, bit b clear.
                if i & ma != 0 && i & mb == 0 {
                    part.swap(i, (i & !ma) | mb);
                }
            }
        }
        self.planner.layout.note_swap(a, b);
    }

    /// Run a whole fused program.
    pub fn run_program(&mut self, program: &FusedProgram) -> Result<(), CommError> {
        assert_eq!(program.num_qubits, self.num_qubits());
        for block in &program.blocks {
            self.apply_block(block)?;
        }
        Ok(())
    }

    /// The register in logical amplitude order, as the runs of amplitudes
    /// that are contiguous in a slice: the one walker from physical
    /// placement back to logical order, for whoever needs the state whole
    /// ([`DistributedState::gather`]) or in order without ever holding it
    /// whole (a checkpoint write, the measurement marginal).
    ///
    /// Low bits the layout has left in place (all of the local ones, until
    /// a block mixes a global qubit) keep `2^in_place` logically
    /// consecutive amplitudes side by side in one slice; that is a run. A
    /// run's physical address is the OR of its remaining logical bits'
    /// images under the layout, so two small tables replace the `n`
    /// shifts per run.
    pub fn logical_runs(&self) -> impl Iterator<Item = &[Complex<T>]> + '_ {
        let lw = self.local_width();
        let layout = &self.planner.layout;
        let in_place = (0..lw).take_while(|&p| layout.logical_at(p) == p).count() as u32;
        // Physical index bits of the logical bits `from..` set in `bits`.
        let image = |bits: usize, from: u32| -> usize {
            (0..usize::BITS - bits.leading_zeros())
                .filter(|b| bits >> b & 1 == 1)
                .map(|b| 1usize << layout.physical(from + b))
                .sum()
        };
        let rest = self.num_qubits() - in_place;
        let low = rest / 2;
        let low_image: Vec<usize> = (0..1usize << low).map(|i| image(i, in_place)).collect();
        let high_image: Vec<usize> =
            (0..1usize << (rest - low)).map(|i| image(i, in_place + low)).collect();
        (0..1usize << rest).map(move |run| {
            let at = high_image[run >> low] | low_image[run & ((1 << low) - 1)];
            let offset = at & ((1 << lw) - 1);
            &self.parts[at >> lw][offset..offset + (1 << in_place)]
        })
    }

    /// Reassemble the full state in logical qubit order (bit-exact at any
    /// layout): [`DistributedState::logical_runs`], laid end to end.
    pub fn gather(&self) -> StateVector<T> {
        let mut state = StateVector::zero(self.num_qubits());
        let mut rest = state.amplitudes_mut();
        for run in self.logical_runs() {
            let (now, later) = rest.split_at_mut(run.len());
            now.copy_from_slice(run);
            rest = later;
        }
        state
    }

    /// Partition a full state vector (logical amplitude order) across
    /// `num_devices`, with the identity layout — the inverse of
    /// [`DistributedState::gather`] on an identity-layout state. This is
    /// how a migrated shard group re-scatters a restored checkpoint onto
    /// replacement workers.
    pub fn from_state(
        state: &StateVector<T>,
        num_devices: usize,
        topology: ClusterTopology,
    ) -> Self {
        let num_qubits = state.num_qubits();
        let mut dist = DistributedState::zero(num_qubits, num_devices, topology);
        let lw = dist.local_width() as usize;
        let amps = state.amplitudes();
        for (r, part) in dist.parts.iter_mut().enumerate() {
            let base = r << lw;
            part.copy_from_slice(&amps[base..base + (1 << lw)]);
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::fusion::fuse;
    use qgear_ir::{reference, Circuit};
    use qgear_num::approx::max_deviation;
    use qgear_statevec::backend::{marginal_of_runs, marginal_probs};

    fn random_native(n: u32, gates: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..gates {
            match rnd(4) {
                0 => {
                    c.h(rnd(n as u64) as u32);
                }
                1 => {
                    c.ry(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                2 => {
                    c.rz(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                _ => {
                    let a = rnd(n as u64) as u32;
                    let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
                    c.cx(a, b);
                }
            }
        }
        c
    }

    fn check_cluster_matches_reference(n: u32, devices: usize, gates: usize, seed: u64, width: usize) {
        let c = random_native(n, gates, seed);
        let prog = fuse(&c, width);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(n, devices, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        let got = dist.gather();
        let expect = reference::run(&c);
        assert!(
            max_deviation(got.amplitudes(), &expect) < 1e-11,
            "n={n} devices={devices} seed={seed} width={width}: dev {}",
            max_deviation(got.amplitudes(), &expect)
        );
    }

    #[test]
    fn single_device_degenerate_case() {
        check_cluster_matches_reference(5, 1, 40, 1, 5);
    }

    #[test]
    fn two_and_four_devices_match_reference() {
        check_cluster_matches_reference(6, 2, 60, 2, 3);
        check_cluster_matches_reference(6, 4, 60, 3, 3);
    }

    #[test]
    fn eight_devices_narrow_local_width() {
        // 6 qubits over 8 devices: local width 3 with fusion width 2.
        check_cluster_matches_reference(6, 8, 50, 4, 2);
    }

    #[test]
    fn sixteen_devices() {
        check_cluster_matches_reference(7, 16, 48, 5, 2);
    }

    #[test]
    fn traffic_zero_for_local_only_circuits() {
        // Gates confined to qubits 0..2 on 4 devices of a 6-qubit state
        // never touch the global bits.
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 1).ry(0.4, 2).cx(1, 2);
        let prog = fuse(&c, 3);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert_eq!(dist.traffic().total_bytes(), 0);
        assert_eq!(dist.swaps(), 0);
        let expect = reference::run(&c);
        assert!(max_deviation(dist.gather().amplitudes(), &expect) < 1e-12);
    }

    #[test]
    fn global_gate_triggers_exchange() {
        // 4 devices, 6 qubits: lw = 4; qubit 5 is global.
        let mut c = Circuit::new(6);
        c.h(5);
        let prog = fuse(&c, 2);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert!(dist.swaps() >= 1);
        assert!(dist.traffic().total_bytes() > 0);
        let expect = reference::run(&c);
        assert!(max_deviation(dist.gather().amplitudes(), &expect) < 1e-12);
    }

    #[test]
    fn global_control_cx_needs_no_exchange() {
        // 4 devices, 6 qubits: qubits 4,5 are global. A CX *controlled* by
        // a global qubit never mixes it — zero communication.
        let mut c = Circuit::new(6);
        c.h(0).cx(5, 1).cx(4, 2).cx(5, 0);
        let prog = fuse(&c, 2);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert_eq!(dist.swaps(), 0, "control-only global use must not swap");
        assert_eq!(dist.traffic().total_bytes(), 0);
        let expect = reference::run(&c);
        assert!(max_deviation(dist.gather().amplitudes(), &expect) < 1e-12);
    }

    #[test]
    fn diagonal_gates_on_global_qubits_need_no_exchange() {
        // rz / cr1 are diagonal: even acting *on* global qubits they cost
        // nothing (each device applies its rank-conditioned phase).
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q.min(3)); // superpose local qubits only
        }
        c.rz(0.7, 5).cr1(0.9, 4, 5).cr1(0.3, 5, 1).rz(-0.2, 4);
        let prog = fuse(&c, 3);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert_eq!(dist.traffic().total_bytes(), 0);
        let expect = reference::run(&c);
        assert!(max_deviation(dist.gather().amplitudes(), &expect) < 1e-12);
    }

    #[test]
    fn mixed_global_targets_still_exchange_and_stay_correct() {
        // cx with a global TARGET mixes it: exchange required; verify
        // correctness with a blend of conditional and mixing global uses.
        let mut c = Circuit::new(6);
        c.h(0).h(5).cx(0, 5).cx(5, 1).cr1(0.4, 4, 0).ry(0.8, 4);
        let prog = fuse(&c, 2);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert!(dist.swaps() > 0);
        let expect = reference::run(&c);
        assert!(max_deviation(dist.gather().amplitudes(), &expect) < 1e-11);
    }

    #[test]
    fn qft_on_cluster_exchanges_less_than_naive_plan() {
        // QFT ladders are cr1-heavy (diagonal): the mixing-aware plan must
        // move far less data than remapping every global operand.
        use crate::layout::TrafficPlanner;
        let circ = {
            // Inline QFT to avoid a workloads dev-dependency cycle.
            let n = 8u32;
            let mut c = Circuit::new(n);
            for i in (0..n).rev() {
                c.h(i);
                for j in (0..i).rev() {
                    c.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
                }
            }
            c
        };
        let prog = fuse(&circ, 3);
        let topo = ClusterTopology::default();
        // Mixing-aware (the engine's plan).
        let mut smart = TrafficPlanner::new(8, 4, topo, 16);
        smart.run_program(&prog);
        // Naive: every block operand treated as mixing.
        let mut naive_layout = crate::layout::QubitLayout::identity(8, 6);
        let mut naive_swaps = 0u64;
        for b in &prog.blocks {
            naive_swaps += naive_layout.plan_block(&b.qubits).len() as u64;
        }
        assert!(
            smart.swaps() < naive_swaps,
            "mixing-aware {} vs naive {naive_swaps}",
            smart.swaps()
        );
        // And the engine must still be correct.
        let mut dist: DistributedState<f64> =
            DistributedState::zero(8, 4, topo);
        dist.run_program(&prog).expect("healthy fabric");
        let expect = reference::run(&circ);
        assert!(max_deviation(dist.gather().amplitudes(), &expect) < 1e-11);
        assert_eq!(dist.swaps(), smart.swaps(), "engine matches planner");
    }

    #[test]
    fn persistent_layout_cheaper_than_restore() {
        let c = random_native(6, 60, 9);
        let prog = fuse(&c, 2);
        let mut keep: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        keep.run_program(&prog).expect("healthy fabric");
        let mut restore: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        restore.set_restore_layout(true);
        restore.run_program(&prog).expect("healthy fabric");
        // Both are correct…
        let expect = reference::run(&c);
        assert!(max_deviation(keep.gather().amplitudes(), &expect) < 1e-11);
        assert!(max_deviation(restore.gather().amplitudes(), &expect) < 1e-11);
        // …but restoring the layout costs at least as much traffic.
        assert!(restore.traffic().total_bytes() >= keep.traffic().total_bytes());
    }

    #[test]
    fn marginal_matches_gathered_state() {
        // The marginal read from the slices in place is the dense
        // marginal of the gathered state, bit for bit, at any layout.
        fn check<T: Scalar>(n: u32, devices: usize, seed: u64) {
            let mut c = random_native(n, 12 * n as usize, seed);
            c.h(n - 1); // the top qubit, global at rest, ends local
            let prog = fuse(&c, 2);
            let mut dist: DistributedState<T> =
                DistributedState::zero(n, devices, ClusterTopology::default());
            dist.run_program(&prog).expect("healthy fabric");
            let label = format!("n={n} {devices} devices seed {seed} {}", T::PRECISION_NAME);
            assert!((0..n).any(|q| dist.physical(q) != q), "{label}: the layout was remapped");
            let gathered = dist.gather();
            let all: Vec<u32> = (0..n).collect();
            let reversed: Vec<u32> = (0..n).rev().collect();
            // Partial, permuted, and complete in order (the element-wise
            // fill) and out of order.
            let sets: [&[u32]; 6] =
                [&[0], &[n - 1, 1], &[2, n - 2, 0], &[1, 0, 3, 2], &all, &reversed];
            for measured in sets {
                let got = marginal_of_runs(dist.logical_runs(), n, measured);
                let expect = marginal_probs(&gathered, measured);
                let bits = |p: &[f64]| p.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "{label}: measured {measured:?}");
            }
        }
        for seed in [11, 12, 13] {
            for (n, devices) in [(8, 2), (8, 4), (10, 8)] {
                check::<f32>(n, devices, seed);
                check::<f64>(n, devices, seed);
            }
        }
    }

    #[test]
    fn norm_preserved_through_exchanges() {
        let c = random_native(7, 80, 13);
        let prog = fuse(&c, 2);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(7, 8, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert!((dist.gather().norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn local_bytes_accounting() {
        let dist: DistributedState<f32> =
            DistributedState::zero(10, 4, ClusterTopology::default());
        // 2^8 amps × 8 B = 2 KiB per device.
        assert_eq!(dist.local_bytes(), 2048);
        assert_eq!(dist.local_width(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_devices_rejected() {
        let _: DistributedState<f64> = DistributedState::zero(4, 3, ClusterTopology::default());
    }

    #[test]
    fn injected_link_fault_surfaces_as_comm_error() {
        use crate::comm::CommError;
        let mut c = Circuit::new(6);
        c.h(5).cx(5, 4).h(4); // several global-qubit blocks → several exchanges
        let prog = fuse(&c, 1);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.inject_link_fault(0, CommError::Corrupted);
        assert_eq!(dist.run_program(&prog), Err(CommError::Corrupted));
        // The injection is one-shot: a fresh state with no injection runs clean.
        let mut clean: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        clean.run_program(&prog).expect("healthy fabric");
        assert!(clean.exchanges() > 0);
    }

    #[test]
    fn link_fault_beyond_exchange_count_never_fires() {
        let mut c = Circuit::new(6);
        c.h(5);
        let prog = fuse(&c, 1);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.inject_link_fault(1_000_000, crate::comm::CommError::Dropped);
        dist.run_program(&prog).expect("fault index out of range is a no-op");
    }

    /// Amplitude `i` carries the value `i`, so a misplaced one shows.
    fn counting_state(n: u32) -> StateVector<f64> {
        StateVector::from_amplitudes(
            (0..1 << n).map(|i| Complex::new(f64::from(i), -f64::from(i))).collect(),
        )
    }

    /// `i` with bits `a` and `b` exchanged.
    fn swap_bits(i: usize, a: u32, b: u32) -> usize {
        let differ = (i >> a ^ i >> b) & 1;
        i ^ (differ << a | differ << b)
    }

    #[test]
    fn every_local_global_swap_is_the_bit_permutation_and_charges_what_the_planner_does() {
        // Local width 8: runs from 1 to 128 amplitudes, both global bits.
        let (n, devices, topo) = (10u32, 4usize, ClusterTopology::default());
        let state = counting_state(n);
        let mut dist = DistributedState::from_state(&state, devices, topo);
        let mut planner = TrafficPlanner::new(n, devices, topo, 16);
        let mut expect = state.amplitudes().to_vec();
        let lw = dist.local_width();
        for global in lw..n {
            for local in 0..lw {
                dist.swap_local_global(local, global).expect("healthy fabric");
                planner.swap(local, global, |_, _, _, _| Ok(())).expect("dry run");
                expect = (0..expect.len()).map(|i| expect[swap_bits(i, local, global)]).collect();
                assert_eq!(dist.parts.concat(), expect, "physical order after ({local}, {global})");
                assert_eq!(dist.gather(), state, "logical order after ({local}, {global})");
            }
        }
        assert_eq!(dist.traffic(), planner.traffic());
        assert_eq!(dist.swaps(), planner.swaps());
        assert_eq!(dist.swaps(), u64::from(lw * (n - lw)));
        assert_eq!(dist.exchanges(), dist.swaps() * devices as u64 / 2);
    }

    #[test]
    fn a_fault_at_exchange_k_stops_the_swap_between_pair_k_minus_one_and_pair_k() {
        let (n, devices, topo) = (10u32, 4usize, ClusterTopology::default());
        let state = counting_state(n);
        // Swapping with the lowest global bit pairs ranks (0,1) then (2,3).
        let (local, global, half) = (7u32, 8u32, 1usize << 9);
        let swapped: Vec<_> =
            (0..1usize << n).map(|i| state.amplitudes()[swap_bits(i, local, global)]).collect();
        for k in 0..2u64 {
            let mut dist = DistributedState::from_state(&state, devices, topo);
            dist.inject_link_fault(k, CommError::Dropped);
            assert_eq!(dist.swap_local_global(local, global), Err(CommError::Dropped));
            let done = k as usize * half;
            let now = dist.parts.concat();
            assert_eq!(now[..done], swapped[..done], "pairs before {k} exchanged");
            assert_eq!(now[done..], state.amplitudes()[done..], "pair {k} and later untouched");
            assert_eq!(dist.exchanges(), k + 1);
            assert_eq!(dist.swaps(), 0);
            assert_eq!(dist.physical(local), local, "layout as it was");
            let mut charged = TrafficStats::default();
            for _ in 0..2 * k {
                charged.record(topo.link_class(0, 1), dist.local_bytes() / 2);
            }
            assert_eq!(dist.traffic(), &charged, "the traffic of {k} exchanges");
        }
    }

    #[test]
    fn messages_are_twice_the_exchanges() {
        let c = random_native(6, 60, 21);
        let prog = fuse(&c, 2);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        assert_eq!(dist.traffic().total_messages(), 2 * dist.exchanges());
    }

    #[test]
    fn gather_undoes_any_layout() {
        let n = 7u32;
        let state = counting_state(n);
        for devices in [1usize, 2, 4, 16, 128] {
            let mut dist = DistributedState::from_state(&state, devices, ClusterTopology::default());
            assert_eq!(dist.gather(), state, "{devices} devices, identity layout");
            let lw = dist.local_width();
            // Displace the lowest local bit (so no run stays contiguous),
            // the highest one, and a global one.
            if lw >= 2 {
                dist.swap_local_local(0, lw - 1);
            }
            if (1..n).contains(&lw) {
                dist.swap_local_global(0, n - 1).expect("healthy fabric");
                dist.swap_local_global(lw - 1, lw).expect("healthy fabric");
            }
            assert_eq!(dist.gather(), state, "{devices} devices, {:?}", dist.planner.layout);
            // Put bit 0 back: runs of two stay contiguous, the rest is
            // still scattered.
            if lw >= 2 {
                let at = dist.physical(0);
                if at < lw {
                    dist.swap_local_local(0, at);
                } else {
                    dist.swap_local_global(0, at).expect("healthy fabric");
                }
                assert_eq!(dist.gather(), state, "{devices} devices, {:?}", dist.planner.layout);
            }
        }
    }

    #[test]
    fn scatter_gather_roundtrip_is_bit_exact() {
        let c = random_native(6, 40, 17);
        let prog = fuse(&c, 2);
        let mut dist: DistributedState<f64> =
            DistributedState::zero(6, 4, ClusterTopology::default());
        dist.run_program(&prog).expect("healthy fabric");
        let gathered = dist.gather();
        let rescattered: DistributedState<f64> =
            DistributedState::from_state(&gathered, 4, ClusterTopology::default());
        let again = rescattered.gather();
        assert_eq!(gathered.amplitudes(), again.amplitudes(), "bit-exact roundtrip");
    }
}
