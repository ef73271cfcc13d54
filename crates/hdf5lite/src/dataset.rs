//! Typed datasets and attributes.

use crate::error::H5Error;

/// Element type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Dtype {
    /// Unsigned 8-bit (gate-kind tags, raw image pixels).
    U8 = 0,
    /// Signed 32-bit (control/target indices, `-1` sentinel included).
    I32 = 1,
    /// Signed 64-bit (shot counts).
    I64 = 2,
    /// Unsigned 32-bit (gate counts, qubit counts).
    U32 = 3,
    /// 32-bit float.
    F32 = 4,
    /// 64-bit float (gate parameters, angles).
    F64 = 5,
}

impl Dtype {
    /// Bytes per element.
    pub const fn size(self) -> usize {
        match self {
            Dtype::U8 => 1,
            Dtype::I32 | Dtype::U32 | Dtype::F32 => 4,
            Dtype::I64 | Dtype::F64 => 8,
        }
    }

    /// Stable tag for serialization.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a stable tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Dtype::U8,
            1 => Dtype::I32,
            2 => Dtype::I64,
            3 => Dtype::U32,
            4 => Dtype::F32,
            5 => Dtype::F64,
            _ => return None,
        })
    }

    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            Dtype::U8 => "u8",
            Dtype::I32 => "i32",
            Dtype::I64 => "i64",
            Dtype::U32 => "u32",
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }
}

/// A typed n-dimensional array stored as little-endian bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Element type.
    pub dtype: Dtype,
    /// Dimensions; the element count is the product.
    pub shape: Vec<u64>,
    /// Raw little-endian element bytes.
    pub data: Vec<u8>,
    /// Attributes attached to this dataset.
    pub attrs: std::collections::BTreeMap<String, Attr>,
}

macro_rules! dataset_typed {
    ($from:ident, $as:ident, $t:ty, $dtype:expr) => {
        /// Build a dataset of this element type; panics if `shape` does not
        /// multiply out to the element count.
        pub fn $from(values: &[$t], shape: &[u64]) -> Dataset {
            let product: u64 = shape.iter().product();
            assert_eq!(
                product as usize,
                values.len(),
                "shape {:?} does not match {} elements",
                shape,
                values.len()
            );
            let mut data = Vec::with_capacity(values.len() * std::mem::size_of::<$t>());
            for v in values {
                data.extend_from_slice(&v.to_le_bytes());
            }
            Dataset {
                dtype: $dtype,
                shape: shape.to_vec(),
                data,
                attrs: Default::default(),
            }
        }

        /// Decode the dataset as this element type.
        pub fn $as(&self) -> Result<Vec<$t>, H5Error> {
            if self.dtype != $dtype {
                return Err(H5Error::DtypeMismatch {
                    stored: self.dtype.name(),
                    requested: $dtype.name(),
                });
            }
            const W: usize = std::mem::size_of::<$t>();
            Ok(self
                .data
                .chunks_exact(W)
                .map(|c| <$t>::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
    };
}

impl Dataset {
    dataset_typed!(from_u8, as_u8, u8, Dtype::U8);
    dataset_typed!(from_i32, as_i32, i32, Dtype::I32);
    dataset_typed!(from_i64, as_i64, i64, Dtype::I64);
    dataset_typed!(from_u32, as_u32, u32, Dtype::U32);
    dataset_typed!(from_f32, as_f32, f32, Dtype::F32);
    dataset_typed!(from_f64, as_f64, f64, Dtype::F64);

    /// Element count (shape product).
    pub fn len(&self) -> usize {
        self.shape.iter().product::<u64>() as usize
    }

    /// True if the dataset has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Validate that shape, dtype, and byte length agree (used after
    /// deserialization).
    pub fn validate(&self) -> Result<(), H5Error> {
        let expect = self.len() * self.dtype.size();
        if expect != self.data.len() {
            return Err(H5Error::ShapeMismatch {
                elements: self.data.len() / self.dtype.size().max(1),
                shape_product: self.len(),
            });
        }
        Ok(())
    }
}

/// A scalar or string metadata attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Signed integer.
    Int(i64),
    /// Double float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Integer list (e.g. image dimensions).
    IntVec(Vec<i64>),
}

impl Attr {
    /// Integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float value, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attr::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attr::Str(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrips() {
        let d = Dataset::from_f64(&[1.5, -2.25, 0.0], &[3]);
        assert_eq!(d.as_f64().unwrap(), vec![1.5, -2.25, 0.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.byte_len(), 24);

        let d = Dataset::from_i32(&[-1, 7], &[2]);
        assert_eq!(d.as_i32().unwrap(), vec![-1, 7]);

        let d = Dataset::from_u8(&[0, 255, 128], &[3]);
        assert_eq!(d.as_u8().unwrap(), vec![0, 255, 128]);
    }

    #[test]
    fn multidimensional_shapes() {
        let vals: Vec<u32> = (0..24).collect();
        let d = Dataset::from_u32(&vals, &[2, 3, 4]);
        assert_eq!(d.len(), 24);
        assert_eq!(d.shape, vec![2, 3, 4]);
        assert_eq!(d.as_u32().unwrap(), vals);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_mismatch_panics() {
        Dataset::from_u8(&[1, 2, 3], &[2]);
    }

    #[test]
    fn dtype_mismatch_on_access() {
        let d = Dataset::from_f32(&[1.0], &[1]);
        assert_eq!(
            d.as_f64().unwrap_err(),
            H5Error::DtypeMismatch { stored: "f32", requested: "f64" }
        );
    }

    #[test]
    fn dtype_tags_roundtrip() {
        for dt in [Dtype::U8, Dtype::I32, Dtype::I64, Dtype::U32, Dtype::F32, Dtype::F64] {
            assert_eq!(Dtype::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(Dtype::from_tag(99), None);
    }

    #[test]
    fn validate_catches_corrupt_length() {
        let mut d = Dataset::from_f64(&[1.0, 2.0], &[2]);
        assert!(d.validate().is_ok());
        d.data.pop();
        assert!(d.validate().is_err());
    }

    #[test]
    fn attr_accessors() {
        assert_eq!(Attr::Int(5).as_int(), Some(5));
        assert_eq!(Attr::Int(5).as_float(), None);
        assert_eq!(Attr::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Attr::Str("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_f64(&[], &[0]);
        assert!(d.is_empty());
        assert!(d.validate().is_ok());
    }
}
