//! The §2.1 three-dimensional tensor encoding.
//!
//! The paper converts saved gate lists into "a three-dimensional tensor
//! comprising matrices and tensors":
//!
//! * **dimension 1** — per-circuit metadata: circuit type, qubit count,
//!   gate count;
//! * **dimension 2** — per-gate structure: gate category (stored as the
//!   row index into the one-hot Eq. 8 matrix **M**: tags 0..4 are
//!   `h, ry, rz, cx, measure`), control qubit index, target qubit index;
//! * **dimension 3** — unified continuous gate parameters.
//!
//! All arrays are pre-allocated at a fixed capacity `d` satisfying
//! Lemma B.2 (`d ≥ max(|G|, |C|)`), so the encoding cost per circuit is
//! independent of entanglement depth — the property Appendix C measures.
//! The flat column arrays exposed here are exactly what gets written into
//! the HDF5-like container by the core pipeline.

use crate::circuit::Circuit;
use crate::error::IrError;
use crate::gate::{Gate, GateKind};

/// Sentinel index meaning "no control qubit" for single-qubit rows.
pub const NO_CONTROL: i32 = -1;

/// Number of parameter slots per gate row (covers `u(θ, φ, λ)`).
pub const PARAMS_PER_GATE: usize = 3;

/// Borrowed column views of a [`TensorEncoding`]:
/// `(names, gate_counts, gate_type, control, target, param)`.
pub type EncodingColumns<'a> =
    (&'a [String], &'a [u32], &'a [u8], &'a [i32], &'a [i32], &'a [f64]);

/// A batch of circuits packed into fixed-shape column arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorEncoding {
    /// Gate-slot capacity `d` per circuit (Lemma B.2).
    capacity: usize,
    /// Register width shared by every circuit in the batch.
    num_qubits: u32,
    /// Circuit names, length = number of circuits.
    names: Vec<String>,
    /// Actual gate count per circuit (≤ `capacity`).
    gate_counts: Vec<u32>,
    /// Gate-kind tags; shape `[circuits][capacity]`, flattened row-major.
    gate_type: Vec<u8>,
    /// Control qubit per gate or [`NO_CONTROL`]; same shape as `gate_type`.
    control: Vec<i32>,
    /// Target qubit per gate; same shape as `gate_type`.
    target: Vec<i32>,
    /// Parameters; shape `[circuits][capacity][PARAMS_PER_GATE]`.
    param: Vec<f64>,
}

/// Read-only view of one encoded circuit inside a [`TensorEncoding`].
#[derive(Debug, Clone, Copy)]
pub struct EncodedCircuit<'a> {
    /// Circuit name.
    pub name: &'a str,
    /// Register width.
    pub num_qubits: u32,
    /// Gate-kind tags for the populated slots.
    pub gate_type: &'a [u8],
    /// Control indices for the populated slots.
    pub control: &'a [i32],
    /// Target indices for the populated slots.
    pub target: &'a [i32],
    /// Parameter triples for the populated slots.
    pub param: &'a [f64],
}

impl TensorEncoding {
    /// Encode a batch of circuits.
    ///
    /// `capacity` is the per-circuit gate-slot count `d`; `None` chooses the
    /// minimal legal value `max(|G|, |C|)` from Lemma B.2. Returns
    /// [`IrError::CapacityExceeded`] when an explicit capacity is too small,
    /// [`IrError::MixedWidths`] when register widths differ, and
    /// [`IrError::Malformed`] for gates the tensor layout cannot represent
    /// (arity 3 — transpile `ccx` away first).
    pub fn encode(circuits: &[Circuit], capacity: Option<usize>) -> Result<Self, IrError> {
        let max_gates = circuits
            .iter()
            .map(|c| c.gates().iter().filter(|g| g.kind != GateKind::Barrier).count())
            .max()
            .unwrap_or(0);
        let required = max_gates.max(circuits.len());
        let capacity = match capacity {
            Some(d) if d < required => {
                return Err(IrError::CapacityExceeded { capacity: d, required })
            }
            Some(d) => d,
            None => required,
        };

        let num_qubits = circuits.first().map_or(0, |c| c.num_qubits());
        for c in circuits {
            if c.num_qubits() != num_qubits {
                return Err(IrError::MixedWidths { expected: num_qubits, found: c.num_qubits() });
            }
        }

        let n = circuits.len();
        let mut enc = TensorEncoding {
            capacity,
            num_qubits,
            names: Vec::with_capacity(n),
            gate_counts: Vec::with_capacity(n),
            gate_type: vec![0u8; n * capacity],
            control: vec![NO_CONTROL; n * capacity],
            target: vec![0i32; n * capacity],
            param: vec![0.0f64; n * capacity * PARAMS_PER_GATE],
        };

        for (ci, circ) in circuits.iter().enumerate() {
            let base = ci * capacity;
            let mut slot = 0usize;
            for g in circ.gates() {
                match g.kind.arity() {
                    0 => continue, // barriers carry no simulation content
                    1 => {
                        enc.control[base + slot] = NO_CONTROL;
                        enc.target[base + slot] = g.qubits[0] as i32;
                    }
                    2 => {
                        enc.control[base + slot] = g.qubits[0] as i32;
                        enc.target[base + slot] = g.qubits[1] as i32;
                    }
                    _ => {
                        return Err(IrError::Malformed(format!(
                            "gate '{}' has arity {} — lower it to the native set before encoding",
                            g.kind.name(),
                            g.kind.arity()
                        )))
                    }
                }
                enc.gate_type[base + slot] = g.kind.tag();
                let pbase = (base + slot) * PARAMS_PER_GATE;
                enc.param[pbase..pbase + PARAMS_PER_GATE].copy_from_slice(&g.params);
                slot += 1;
            }
            enc.gate_counts.push(slot as u32);
            enc.names.push(circ.name.clone());
        }
        Ok(enc)
    }

    /// Number of circuits in the batch.
    pub fn num_circuits(&self) -> usize {
        self.names.len()
    }

    /// Gate-slot capacity `d`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shared register width.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Populated gate count of circuit `i`.
    pub fn gate_count(&self, i: usize) -> usize {
        self.gate_counts[i] as usize
    }

    /// Borrow the view of circuit `i`.
    pub fn view(&self, i: usize) -> EncodedCircuit<'_> {
        let base = i * self.capacity;
        let count = self.gate_counts[i] as usize;
        EncodedCircuit {
            name: &self.names[i],
            num_qubits: self.num_qubits,
            gate_type: &self.gate_type[base..base + count],
            control: &self.control[base..base + count],
            target: &self.target[base..base + count],
            param: &self.param[base * PARAMS_PER_GATE..(base + count) * PARAMS_PER_GATE],
        }
    }

    /// Decode circuit `i` back into a [`Circuit`].
    pub fn decode_one(&self, i: usize) -> Result<Circuit, IrError> {
        let v = self.view(i);
        let mut circ = Circuit::with_capacity(v.num_qubits, v.name, v.gate_type.len());
        for (slot, &tag) in v.gate_type.iter().enumerate() {
            let kind = GateKind::from_tag(tag).ok_or(IrError::UnknownGateKind(tag))?;
            let mut params = [0.0f64; 3];
            params.copy_from_slice(&v.param[slot * PARAMS_PER_GATE..(slot + 1) * PARAMS_PER_GATE]);
            let gate = match kind.arity() {
                1 => Gate { kind, qubits: [v.target[slot] as u32, 0, 0], params },
                2 => Gate {
                    kind,
                    qubits: [v.control[slot] as u32, v.target[slot] as u32, 0],
                    params,
                },
                a => {
                    return Err(IrError::Malformed(format!(
                        "tensor row decodes to arity-{a} gate '{}'",
                        kind.name()
                    )))
                }
            };
            circ.push(gate)?;
        }
        Ok(circ)
    }

    /// Decode the whole batch.
    pub fn decode(&self) -> Result<Vec<Circuit>, IrError> {
        (0..self.num_circuits()).map(|i| self.decode_one(i)).collect()
    }

    /// Total bytes of the flat arrays — the quantity HDF5 compression acts
    /// on in Appendix C.
    pub fn payload_bytes(&self) -> usize {
        self.gate_type.len()
            + self.control.len() * 4
            + self.target.len() * 4
            + self.param.len() * 8
    }

    /// Raw column access for storage backends: `(names, gate_counts,
    /// gate_type, control, target, param)`.
    pub fn columns(&self) -> EncodingColumns<'_> {
        (
            &self.names,
            &self.gate_counts,
            &self.gate_type,
            &self.control,
            &self.target,
            &self.param,
        )
    }

    /// Rebuild an encoding from raw columns (the storage read path).
    /// Validates array shapes against `capacity` and the circuit count.
    #[allow(clippy::too_many_arguments)]
    pub fn from_columns(
        capacity: usize,
        num_qubits: u32,
        names: Vec<String>,
        gate_counts: Vec<u32>,
        gate_type: Vec<u8>,
        control: Vec<i32>,
        target: Vec<i32>,
        param: Vec<f64>,
    ) -> Result<Self, IrError> {
        let n = names.len();
        if gate_counts.len() != n {
            return Err(IrError::Malformed("gate_counts length mismatch".into()));
        }
        if gate_type.len() != n * capacity
            || control.len() != n * capacity
            || target.len() != n * capacity
            || param.len() != n * capacity * PARAMS_PER_GATE
        {
            return Err(IrError::Malformed("column shape mismatch".into()));
        }
        if let Some(&c) = gate_counts.iter().find(|&&c| c as usize > capacity) {
            return Err(IrError::CapacityExceeded { capacity, required: c as usize });
        }
        Ok(TensorEncoding {
            capacity,
            num_qubits,
            names,
            gate_counts,
            gate_type,
            control,
            target,
            param,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_circuit(seedish: u32) -> Circuit {
        let mut c = Circuit::with_capacity(4, format!("c{seedish}"), 8);
        c.h(0)
            .ry(0.1 + seedish as f64, 1)
            .rz(-0.4, 2)
            .cx(0, 3)
            .cx(2, 1)
            .measure_all();
        c
    }

    #[test]
    fn roundtrip_single() {
        let c = sample_circuit(0);
        let enc = TensorEncoding::encode(std::slice::from_ref(&c), None).unwrap();
        let back = enc.decode_one(0).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn roundtrip_batch() {
        let batch: Vec<Circuit> = (0..5).map(sample_circuit).collect();
        let enc = TensorEncoding::encode(&batch, None).unwrap();
        assert_eq!(enc.num_circuits(), 5);
        let back = enc.decode().unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn lemma_b2_minimum_capacity() {
        // 5 circuits of 9 gates each: d must be >= max(9, 5) = 9.
        let batch: Vec<Circuit> = (0..5).map(sample_circuit).collect();
        let enc = TensorEncoding::encode(&batch, None).unwrap();
        assert_eq!(enc.capacity(), 9);
        // Explicit under-capacity must fail with the Lemma B.2 bound.
        let err = TensorEncoding::encode(&batch, Some(4)).unwrap_err();
        assert_eq!(err, IrError::CapacityExceeded { capacity: 4, required: 9 });
    }

    #[test]
    fn lemma_b2_circuit_count_dominates() {
        // Many tiny circuits: |C| > |G| so d = |C|.
        let batch: Vec<Circuit> = (0..12)
            .map(|i| {
                let mut c = Circuit::new(2);
                c.h(i % 2);
                c
            })
            .collect();
        let enc = TensorEncoding::encode(&batch, None).unwrap();
        assert_eq!(enc.capacity(), 12);
    }

    #[test]
    fn over_capacity_padding_is_transparent() {
        let c = sample_circuit(1);
        let enc = TensorEncoding::encode(std::slice::from_ref(&c), Some(64)).unwrap();
        assert_eq!(enc.capacity(), 64);
        assert_eq!(enc.gate_count(0), 9);
        assert_eq!(enc.decode_one(0).unwrap(), c);
    }

    #[test]
    fn mixed_widths_rejected() {
        let a = Circuit::new(3);
        let b = Circuit::new(4);
        let err = TensorEncoding::encode(&[a, b], None).unwrap_err();
        assert_eq!(err, IrError::MixedWidths { expected: 3, found: 4 });
    }

    #[test]
    fn ccx_rejected_until_transpiled() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert!(matches!(
            TensorEncoding::encode(&[c], None),
            Err(IrError::Malformed(_))
        ));
    }

    #[test]
    fn barriers_not_encoded() {
        let mut c = Circuit::new(2);
        c.h(0).barrier().cx(0, 1);
        let enc = TensorEncoding::encode(&[c], None).unwrap();
        assert_eq!(enc.gate_count(0), 2);
        let back = enc.decode_one(0).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn single_qubit_rows_use_no_control() {
        let mut c = Circuit::new(2);
        c.ry(0.25, 1).cx(1, 0);
        let enc = TensorEncoding::encode(&[c], None).unwrap();
        let v = enc.view(0);
        assert_eq!(v.control[0], NO_CONTROL);
        assert_eq!(v.target[0], 1);
        assert_eq!(v.control[1], 1);
        assert_eq!(v.target[1], 0);
        assert_eq!(v.param[0], 0.25);
    }

    #[test]
    fn columns_roundtrip() {
        let batch: Vec<Circuit> = (0..3).map(sample_circuit).collect();
        let enc = TensorEncoding::encode(&batch, Some(16)).unwrap();
        let (names, counts, gt, ctl, tgt, par) = enc.columns();
        let rebuilt = TensorEncoding::from_columns(
            16,
            enc.num_qubits(),
            names.to_vec(),
            counts.to_vec(),
            gt.to_vec(),
            ctl.to_vec(),
            tgt.to_vec(),
            par.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, enc);
    }

    #[test]
    fn from_columns_validates_shapes() {
        let err = TensorEncoding::from_columns(
            4,
            2,
            vec!["a".into()],
            vec![1],
            vec![0; 3], // wrong: should be 4
            vec![0; 4],
            vec![0; 4],
            vec![0.0; 12],
        )
        .unwrap_err();
        assert!(matches!(err, IrError::Malformed(_)));
    }

    #[test]
    fn payload_bytes_scale_with_capacity() {
        let c = sample_circuit(0);
        let small = TensorEncoding::encode(std::slice::from_ref(&c), None).unwrap();
        let big = TensorEncoding::encode(std::slice::from_ref(&c), Some(100)).unwrap();
        assert!(big.payload_bytes() > small.payload_bytes());
        // 1 circuit × 100 slots × (1 + 4 + 4 + 24) bytes
        assert_eq!(big.payload_bytes(), 100 * (1 + 4 + 4 + 24));
    }
}
