//! Cache-line-aligned storage for amplitude arrays.
//!
//! State vectors are the hottest data in the workspace: every kernel streams
//! over them. [`AlignedVec`] guarantees the first element sits on a 64-byte
//! cache-line boundary in both precisions, so SIMD lane loads
//! ([`crate::simd`]) never straddle a line at the start of the array and the
//! hardware prefetcher sees clean line-granular streams. A plain `Vec<T>`
//! only guarantees `align_of::<T>()` (8 or 16 bytes for complex amplitudes).
//!
//! The implementation backs the storage with a `Vec` of 64-byte
//! `repr(C, align(64))` cache-line blocks and exposes the payload through
//! slice views. Elements must be `Copy` (amplitudes are), which keeps the
//! pointer casts trivially sound: no drop obligations, no uninitialized
//! reads (the backing store is always fully written before exposure).

/// One 64-byte cache line, the allocation granule of [`AlignedVec`].
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct CacheLine([u8; 64]);

/// The alignment (in bytes) guaranteed by [`AlignedVec`].
pub const CACHE_LINE_BYTES: usize = 64;

/// A fixed-length, 64-byte-aligned array of `Copy` elements.
///
/// Semantically a `Box<[T]>` whose base pointer is cache-line aligned.
/// Supports the operations amplitude storage needs (indexing, slices,
/// iteration via `Deref`, clone, equality) and nothing else — it is not a
/// growable container.
pub struct AlignedVec<T: Copy> {
    /// Backing allocation; `lines.as_ptr()` is 64-byte aligned.
    lines: Vec<CacheLine>,
    /// Number of valid `T` elements at the front of the allocation.
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Copy> AlignedVec<T> {
    /// Allocate `len` elements, each initialized to `fill`.
    pub fn from_elem(fill: T, len: usize) -> Self {
        assert!(std::mem::align_of::<T>() <= CACHE_LINE_BYTES);
        let bytes = len * std::mem::size_of::<T>();
        let nlines = bytes.div_ceil(CACHE_LINE_BYTES);
        let lines = vec![CacheLine([0u8; 64]); nlines];
        let mut v = Self { lines, len, _marker: std::marker::PhantomData };
        for slot in v.as_mut_slice() {
            *slot = fill;
        }
        v
    }

    /// Copy an existing slice into freshly aligned storage.
    pub fn from_slice(src: &[T]) -> Self {
        let Some(&first) = src.first() else {
            return Self { lines: Vec::new(), len: 0, _marker: std::marker::PhantomData };
        };
        let mut v = Self::from_elem(first, src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View the elements as a slice. The base pointer is 64-byte aligned.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the backing lines were fully initialized at construction,
        // `T: Copy` has no invalid bit patterns beyond what the callers
        // wrote through `as_mut_slice`, every byte of the first `len`
        // elements lies inside the allocation, and CacheLine's 64-byte
        // alignment satisfies (and exceeds) T's.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const T, self.len) }
    }

    /// View the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: same reasons as `as_slice`; `&mut self` guarantees
        // exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr() as *mut T, self.len) }
    }

    /// Copy the elements out into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self {
            lines: self.lines.clone(),
            len: self.len,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Copy + PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy> std::ops::Deref for AlignedVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> std::ops::DerefMut for AlignedVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T: Copy> IntoIterator for &'a AlignedVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{C32, C64, Complex};

    #[test]
    fn base_pointer_is_cache_line_aligned_fp64() {
        for len in [0usize, 1, 3, 4, 64, 1000] {
            let v = AlignedVec::<C64>::from_elem(C64::ZERO, len);
            assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE_BYTES, 0);
            assert_eq!(v.len(), len);
        }
    }

    #[test]
    fn base_pointer_is_cache_line_aligned_fp32() {
        for len in [1usize, 7, 8, 9, 4096] {
            let v = AlignedVec::<C32>::from_elem(C32::ZERO, len);
            assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE_BYTES, 0);
            assert_eq!(v.len(), len);
        }
    }

    #[test]
    fn from_slice_roundtrip() {
        let src: Vec<C64> = (0..13).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let v = AlignedVec::from_slice(&src);
        assert_eq!(v.to_vec(), src);
    }

    #[test]
    fn clone_and_eq_follow_contents() {
        let mut a = AlignedVec::<C64>::from_elem(C64::ZERO, 5);
        let b = a.clone();
        assert_eq!(a, b);
        a.as_mut_slice()[2] = Complex::new(1.0, 0.0);
        assert_ne!(a, b);
    }
}
