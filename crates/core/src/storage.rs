//! Tensor-encoding persistence through the HDF5-like container.
//!
//! §3: "the same Qiskit circuits were exported … and converted to Cuda-Q
//! kernels … either within a single program or by saving NumPy circuits in
//! the format HDF5 for use in a separate Cuda-Q program". This module is
//! that second path: a [`qgear_ir::TensorEncoding`] round-trips through a
//! `qgear-hdf5lite` file with full metadata, so the "Qiskit side" and the
//! "CUDA-Q side" can be separate processes.

use qgear_hdf5lite::{Attr, Compression, Dataset, H5Error, H5File};
use qgear_ir::encoding::PARAMS_PER_GATE;
use qgear_ir::{IrError, TensorEncoding};

/// Group that holds the encoding inside the container.
const GROUP: &str = "qgear/circuits";

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Container-level failure.
    H5(H5Error),
    /// Encoding-level failure.
    Ir(IrError),
    /// Structural problem in a previously-written file.
    Corrupt(String),
}

impl From<H5Error> for StorageError {
    fn from(e: H5Error) -> Self {
        StorageError::H5(e)
    }
}

impl From<IrError> for StorageError {
    fn from(e: IrError) -> Self {
        StorageError::Ir(e)
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::H5(e) => write!(f, "container error: {e}"),
            StorageError::Ir(e) => write!(f, "encoding error: {e}"),
            StorageError::Corrupt(m) => write!(f, "corrupt encoding file: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Write a tensor encoding into a fresh container.
pub fn encoding_to_h5(enc: &TensorEncoding) -> Result<H5File, StorageError> {
    let mut f = H5File::new();
    let (names, counts, gate_type, control, target, param) = enc.columns();
    f.create_group(GROUP)?;
    f.set_attr(GROUP, "capacity", Attr::Int(enc.capacity() as i64))?;
    f.set_attr(GROUP, "num_qubits", Attr::Int(enc.num_qubits() as i64))?;
    f.set_attr(GROUP, "num_circuits", Attr::Int(enc.num_circuits() as i64))?;
    f.set_attr(GROUP, "format", Attr::Str("qgear-tensor-encoding-v1".into()))?;

    let n = enc.num_circuits() as u64;
    let d = enc.capacity() as u64;
    // Names as one newline-joined blob (mirrors HDF5 string tables).
    let blob = names.join("\n");
    f.write_dataset(
        &format!("{GROUP}/names"),
        Dataset::from_u8(blob.as_bytes(), &[blob.len() as u64]),
    )?;
    f.write_dataset(&format!("{GROUP}/gate_counts"), Dataset::from_u32(counts, &[n]))?;
    f.write_dataset(&format!("{GROUP}/gate_type"), Dataset::from_u8(gate_type, &[n, d]))?;
    f.write_dataset(&format!("{GROUP}/control"), Dataset::from_i32(control, &[n, d]))?;
    f.write_dataset(&format!("{GROUP}/target"), Dataset::from_i32(target, &[n, d]))?;
    f.write_dataset(
        &format!("{GROUP}/param"),
        Dataset::from_f64(param, &[n, d, PARAMS_PER_GATE as u64]),
    )?;
    Ok(f)
}

/// Read a tensor encoding back from a container.
pub fn encoding_from_h5(f: &H5File) -> Result<TensorEncoding, StorageError> {
    let capacity = f
        .attr(GROUP, "capacity")?
        .as_int()
        .ok_or_else(|| StorageError::Corrupt("capacity attr wrong type".into()))?
        as usize;
    let num_qubits = f
        .attr(GROUP, "num_qubits")?
        .as_int()
        .ok_or_else(|| StorageError::Corrupt("num_qubits attr wrong type".into()))?
        as u32;
    let blob = f.dataset(&format!("{GROUP}/names"))?.as_u8()?;
    let blob = String::from_utf8(blob)
        .map_err(|_| StorageError::Corrupt("names not UTF-8".into()))?;
    let names: Vec<String> = if blob.is_empty() {
        Vec::new()
    } else {
        blob.split('\n').map(str::to_owned).collect()
    };
    let counts = f.dataset(&format!("{GROUP}/gate_counts"))?.as_u32()?;
    let gate_type = f.dataset(&format!("{GROUP}/gate_type"))?.as_u8()?;
    let control = f.dataset(&format!("{GROUP}/control"))?.as_i32()?;
    let target = f.dataset(&format!("{GROUP}/target"))?.as_i32()?;
    let param = f.dataset(&format!("{GROUP}/param"))?.as_f64()?;
    Ok(TensorEncoding::from_columns(
        capacity, num_qubits, names, counts, gate_type, control, target, param,
    )?)
}

/// One-call convenience: encode circuits → container bytes (compressed).
pub fn circuits_to_h5_bytes(
    circuits: &[qgear_ir::Circuit],
    capacity: Option<usize>,
) -> Result<Vec<u8>, StorageError> {
    let enc = TensorEncoding::encode(circuits, capacity)?;
    Ok(encoding_to_h5(&enc)?.to_bytes(Compression::ShuffleRle))
}

/// One-call convenience: container bytes → circuits.
pub fn circuits_from_h5_bytes(bytes: &[u8]) -> Result<Vec<qgear_ir::Circuit>, StorageError> {
    let f = H5File::from_bytes(bytes)?;
    let enc = encoding_from_h5(&f)?;
    Ok(enc.decode()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::Circuit;

    fn sample_circuits() -> Vec<Circuit> {
        (0..4)
            .map(|i| {
                let mut c = Circuit::with_capacity(5, format!("c{i}"), 8);
                c.h(0).ry(0.1 * i as f64, 1).cx(0, 2).rz(-0.3, 3).cx(3, 4).measure_all();
                c
            })
            .collect()
    }

    #[test]
    fn encoding_roundtrip_through_container() {
        let circuits = sample_circuits();
        let enc = TensorEncoding::encode(&circuits, Some(32)).unwrap();
        let f = encoding_to_h5(&enc).unwrap();
        let back = encoding_from_h5(&f).unwrap();
        assert_eq!(back, enc);
        assert_eq!(back.decode().unwrap(), circuits);
    }

    #[test]
    fn bytes_roundtrip_with_compression() {
        let circuits = sample_circuits();
        let bytes = circuits_to_h5_bytes(&circuits, None).unwrap();
        let back = circuits_from_h5_bytes(&bytes).unwrap();
        assert_eq!(back, circuits);
    }

    #[test]
    fn compression_beats_raw_for_padded_encodings() {
        // High capacity → heavy zero padding → Appendix C's ~50 % claim.
        let circuits = sample_circuits();
        let enc = TensorEncoding::encode(&circuits, Some(4096)).unwrap();
        let f = encoding_to_h5(&enc).unwrap();
        let raw = f.to_bytes(Compression::None).len();
        let packed = f.to_bytes(Compression::ShuffleRle).len();
        assert!(packed * 2 < raw, "{packed} vs {raw}");
    }

    #[test]
    fn corrupt_attrs_detected() {
        let circuits = sample_circuits();
        let enc = TensorEncoding::encode(&circuits, None).unwrap();
        let mut f = encoding_to_h5(&enc).unwrap();
        f.set_attr(GROUP, "capacity", Attr::Str("nope".into())).unwrap();
        assert!(matches!(
            encoding_from_h5(&f),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_dataset_detected() {
        let mut f = H5File::new();
        f.create_group(GROUP).unwrap();
        f.set_attr(GROUP, "capacity", Attr::Int(4)).unwrap();
        f.set_attr(GROUP, "num_qubits", Attr::Int(2)).unwrap();
        assert!(matches!(encoding_from_h5(&f), Err(StorageError::H5(_))));
    }

    #[test]
    fn empty_batch_roundtrip() {
        let bytes = circuits_to_h5_bytes(&[], None).unwrap();
        assert_eq!(circuits_from_h5_bytes(&bytes).unwrap(), Vec::<Circuit>::new());
    }
}
