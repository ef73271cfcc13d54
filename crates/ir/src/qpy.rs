//! QPY-lite: compact binary circuit serialization.
//!
//! The paper's encoder extracts gate parameters "from the QPY file" — the
//! binary interchange format Qiskit uses to persist circuits. This module
//! implements a compatible-in-spirit container: a magic header, a format
//! version, and fixed-width little-endian gate records. It is the wire
//! format used when circuits are handed between the "Qiskit side" and the
//! "CUDA-Q side" of the pipeline as standalone files.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   [4]  = "QPYL"
//! version u16  = 1
//! count   u32  — number of circuits
//! per circuit:
//!   num_qubits u32
//!   name_len   u16, name bytes (UTF-8)
//!   num_gates  u32
//!   per gate: kind u8, q0 u32, q1 u32, q2 u32, p0 f64, p1 f64, p2 f64
//! crc32   u32 over everything before it
//! ```

use crate::circuit::Circuit;
use crate::error::IrError;
use crate::gate::{Gate, GateKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// File magic.
pub const MAGIC: &[u8; 4] = b"QPYL";
/// Current format version.
pub const VERSION: u16 = 1;

/// Serialize a batch of circuits to a QPY-lite byte buffer.
pub fn write(circuits: &[Circuit]) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + circuits
            .iter()
            .map(|c| 10 + c.name.len() + c.gates().len() * 37)
            .sum::<usize>(),
    );
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(circuits.len() as u32);
    for c in circuits {
        buf.put_u32_le(c.num_qubits());
        let name = c.name.as_bytes();
        buf.put_u16_le(name.len().min(u16::MAX as usize) as u16);
        buf.put_slice(&name[..name.len().min(u16::MAX as usize)]);
        buf.put_u32_le(c.gates().len() as u32);
        for g in c.gates() {
            buf.put_u8(g.kind.tag());
            for q in g.qubits {
                buf.put_u32_le(q);
            }
            for p in g.params {
                buf.put_f64_le(p);
            }
        }
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.freeze()
}

/// Deserialize a QPY-lite byte buffer.
pub fn read(mut data: &[u8]) -> Result<Vec<Circuit>, IrError> {
    if data.len() < 14 {
        return Err(IrError::Malformed("buffer shorter than header".into()));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(IrError::Malformed("CRC mismatch".into()));
    }
    data = body;

    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IrError::Malformed("bad magic".into()));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(IrError::UnsupportedVersion(version));
    }
    let count = data.get_u32_le() as usize;
    // The count is untrusted even under a valid CRC: bound it by what
    // the body can hold (10 bytes is a circuit with no name and no
    // gates) before allocating for it.
    if count > data.remaining() / 10 {
        return Err(IrError::Malformed("circuit count exceeds the buffer".into()));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if data.remaining() < 6 {
            return Err(IrError::Malformed("truncated circuit header".into()));
        }
        let num_qubits = data.get_u32_le();
        let name_len = data.get_u16_le() as usize;
        if data.remaining() < name_len + 4 {
            return Err(IrError::Malformed("truncated circuit name".into()));
        }
        let name = std::str::from_utf8(&data[..name_len])
            .map_err(|_| IrError::Malformed("name not UTF-8".into()))?
            .to_owned();
        data.advance(name_len);
        let num_gates = data.get_u32_le() as usize;
        if data.remaining() < num_gates * 37 {
            return Err(IrError::Malformed("truncated gate records".into()));
        }
        let mut circ = Circuit::with_capacity(num_qubits, name, num_gates);
        for _ in 0..num_gates {
            let tag = data.get_u8();
            let kind = GateKind::from_tag(tag).ok_or(IrError::UnknownGateKind(tag))?;
            let qubits = [data.get_u32_le(), data.get_u32_le(), data.get_u32_le()];
            let params = [data.get_f64_le(), data.get_f64_le(), data.get_f64_le()];
            circ.push(Gate { kind, qubits, params })?;
        }
        out.push(circ);
    }
    if data.has_remaining() {
        return Err(IrError::Malformed(format!(
            "{} trailing bytes after last circuit",
            data.remaining()
        )));
    }
    Ok(out)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-free bitwise variant —
/// throughput is irrelevant for these headers (a QPY-lite file is a few
/// KB) and it keeps the format self-contained. It is the only bitwise
/// CRC in the workspace: anything state-sized goes through the
/// table-driven `qgear_hdf5lite::format::crc32`, which
/// `tests/wire_stability.rs` holds to this function's values.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Circuit> {
        let mut a = Circuit::with_capacity(3, "alpha", 4);
        a.h(0).cx(0, 1).ry(1.25, 2).measure_all();
        let mut b = Circuit::with_capacity(3, "beta-β", 2);
        b.u(1.0, -0.5, 2.25, 1).cr1(0.125, 0, 2);
        vec![a, b]
    }

    #[test]
    fn roundtrip() {
        let circuits = sample();
        let bytes = write(&circuits);
        let back = read(&bytes).unwrap();
        assert_eq!(circuits, back);
    }

    #[test]
    fn roundtrip_empty_batch() {
        let bytes = write(&[]);
        assert_eq!(read(&bytes).unwrap(), Vec::<Circuit>::new());
    }

    #[test]
    fn crc_detects_corruption() {
        let mut bytes = write(&sample()).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(read(&bytes), Err(IrError::Malformed(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write(&sample()).to_vec();
        bytes[0] = b'X';
        // CRC covers the magic, so corruption is caught either way; fix the
        // CRC to verify the magic check specifically.
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(read(&bytes), Err(IrError::Malformed(msg)) if msg == "bad magic"));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = write(&sample()).to_vec();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(read(&bytes), Err(IrError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = write(&sample());
        for cut in [1usize, 8, 20] {
            let truncated = &bytes[..bytes.len().saturating_sub(cut)];
            assert!(read(truncated).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn unicode_names_survive() {
        let circuits = sample();
        let back = read(&write(&circuits)).unwrap();
        assert_eq!(back[1].name, "beta-β");
    }
}
