//! In-tree offline shim for the subset of the `bytes` crate this workspace
//! uses: cheaply-clonable immutable byte buffers ([`Bytes`]) and a growable
//! builder ([`BytesMut`]). See README "Offline builds".
//!
//! Semantics match the real crate for the operations exposed: `Bytes` clones
//! and `slice()` share one allocation (reference-counted), `from_static`
//! borrows without allocating, and `BytesMut::freeze` converts without
//! copying more than once.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

/// A cheaply clonable, sliceable, immutable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[inline]
    pub const fn new() -> Bytes {
        Bytes {
            repr: Repr::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Borrow a static slice without allocating.
    #[inline]
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing this buffer's storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice start {begin} > end {end}");
        assert!(end <= len, "slice end {end} out of bounds ({len})");
        Bytes {
            repr: self.repr.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let all = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a.as_ref(),
        };
        &all[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            repr: Repr::Shared(Arc::from(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "...({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes preallocated.
    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append `extend` to the end of the buffer.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Number of bytes written.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`]. This allocates once and copies
    /// the contents once: `Bytes` shares an `Arc<[u8]>`, whose reference
    /// counts sit in front of the bytes, so the vector's buffer cannot be
    /// taken over as it is.
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { buf: v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_and_bounds_check() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[1, 2, 3]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn static_and_eq() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, b"hello".to_vec());
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(&[1, 2]);
        m.extend_from_slice(&[3]);
        let f = m.freeze();
        assert_eq!(&f[..], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_oob_panics() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
    }
}
