//! Typed buffers seen as their wire bytes: the workspace's one `unsafe`
//! module.
//!
//! The execute plane moves and combines `[u8]` runs, while callers hand in
//! and get back `Vec<T>` of a [`Datatype`](super::Datatype).  On a
//! little-endian host the little-endian wire encoding of a slice of primitive
//! integers or floats *is* its in-memory representation, so the bytes a plan
//! reads and writes can be the caller's own allocation: an [`ElemBuf`] owns
//! the caller's typed vector and dereferences to its bytes, and
//! [`as_bytes`]/[`as_bytes_mut`] view a borrowed typed slice the same way.
//! A result therefore comes back to the caller without a decode and without
//! a second allocation.
//!
//! Soundness rests on three facts, each enforced here:
//!
//! * the element types are exactly the ten primitive types [`DtypeId`]
//!   names — [`Datatype`](super::Datatype) is sealed by [`Sealed`], whose
//!   only impls are below;
//! * those types have no padding and every bit pattern of their size is a
//!   valid value, so any byte may be read and any byte may be written;
//! * their alignment is at least `u8`'s, so a byte view of their storage is
//!   always aligned.
//!
//! The byte order is checked at compile time: on a big-endian host the host
//! bytes are not the wire format, and the crate refuses to build.

use super::DtypeId;

#[cfg(target_endian = "big")]
compile_error!(
    "pip-collectives moves typed buffers as their in-memory bytes, which are the \
     little-endian wire format only on a little-endian host"
);

/// Seals [`Datatype`](super::Datatype): only the ten primitive element
/// types below implement it, which is what makes the byte views sound.
pub trait Sealed: Copy + 'static {}

macro_rules! seal {
    ($($ty:ty),*) => {$(impl Sealed for $ty {})*};
}
seal!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// The bytes of `values`, in wire (little-endian) order.
pub fn as_bytes<T: Sealed>(values: &[T]) -> &[u8] {
    // SAFETY: `T` is one of the ten primitive types `Sealed` is implemented
    // for; they have no padding, so all `size_of_val(values)` bytes behind
    // the pointer are initialised, and `u8` needs no alignment.  The view
    // borrows `values`, so it cannot outlive or alias a mutable borrow.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// The bytes of `values`, writable: a write of any byte leaves a valid `T`.
pub fn as_bytes_mut<T: Sealed>(values: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`; in addition every bit pattern is a valid
    // value of the ten primitive types, so writing arbitrary bytes through
    // the view cannot create an invalid `T`.  The view holds the unique
    // borrow of `values` for its whole lifetime.
    unsafe {
        std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), std::mem::size_of_val(values))
    }
}

/// A caller's typed buffer, owned by the collective while it runs: one
/// `Vec<T>` of the ten element types, dereferencing to its wire bytes.
///
/// The execute plane holds send, receive and in/out buffers as `ElemBuf`s,
/// so it reads and writes the caller's allocation in place and hands the
/// same allocation back when the collective completes
/// ([`Datatype::from_elem_buf`](super::Datatype::from_elem_buf)).
#[derive(Debug, Clone, PartialEq)]
pub enum ElemBuf {
    /// `u8` elements (also the form of untyped byte buffers).
    U8(Vec<u8>),
    /// `i8` elements.
    I8(Vec<i8>),
    /// `u16` elements.
    U16(Vec<u16>),
    /// `i16` elements.
    I16(Vec<i16>),
    /// `u32` elements.
    U32(Vec<u32>),
    /// `i32` elements.
    I32(Vec<i32>),
    /// `u64` elements.
    U64(Vec<u64>),
    /// `i64` elements.
    I64(Vec<i64>),
    /// `f32` elements.
    F32(Vec<f32>),
    /// `f64` elements.
    F64(Vec<f64>),
}

/// Apply `$f` to the vector inside `$buf`, whatever its element type.
macro_rules! each {
    ($buf:expr, $v:ident => $f:expr) => {
        match $buf {
            ElemBuf::U8($v) => $f,
            ElemBuf::I8($v) => $f,
            ElemBuf::U16($v) => $f,
            ElemBuf::I16($v) => $f,
            ElemBuf::U32($v) => $f,
            ElemBuf::I32($v) => $f,
            ElemBuf::U64($v) => $f,
            ElemBuf::I64($v) => $f,
            ElemBuf::F32($v) => $f,
            ElemBuf::F64($v) => $f,
        }
    };
}

impl ElemBuf {
    /// A zeroed buffer of `bytes` bytes of `dtype` elements.
    ///
    /// # Panics
    ///
    /// If `bytes` is not a whole number of elements.
    pub fn zeroed(dtype: DtypeId, bytes: usize) -> Self {
        assert_eq!(
            bytes % dtype.size(),
            0,
            "{bytes} B is not a whole number of {} elements",
            dtype.name()
        );
        let n = bytes / dtype.size();
        match dtype {
            DtypeId::U8 => ElemBuf::U8(vec![0; n]),
            DtypeId::I8 => ElemBuf::I8(vec![0; n]),
            DtypeId::U16 => ElemBuf::U16(vec![0; n]),
            DtypeId::I16 => ElemBuf::I16(vec![0; n]),
            DtypeId::U32 => ElemBuf::U32(vec![0; n]),
            DtypeId::I32 => ElemBuf::I32(vec![0; n]),
            DtypeId::U64 => ElemBuf::U64(vec![0; n]),
            DtypeId::I64 => ElemBuf::I64(vec![0; n]),
            DtypeId::F32 => ElemBuf::F32(vec![0.0; n]),
            DtypeId::F64 => ElemBuf::F64(vec![0.0; n]),
        }
    }

    /// The element type.
    pub fn dtype(&self) -> DtypeId {
        match self {
            ElemBuf::U8(_) => DtypeId::U8,
            ElemBuf::I8(_) => DtypeId::I8,
            ElemBuf::U16(_) => DtypeId::U16,
            ElemBuf::I16(_) => DtypeId::I16,
            ElemBuf::U32(_) => DtypeId::U32,
            ElemBuf::I32(_) => DtypeId::I32,
            ElemBuf::U64(_) => DtypeId::U64,
            ElemBuf::I64(_) => DtypeId::I64,
            ElemBuf::F32(_) => DtypeId::F32,
            ElemBuf::F64(_) => DtypeId::F64,
        }
    }
}

impl From<Vec<u8>> for ElemBuf {
    fn from(bytes: Vec<u8>) -> Self {
        ElemBuf::U8(bytes)
    }
}

impl std::ops::Deref for ElemBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        each!(self, v => as_bytes(v))
    }
}

impl std::ops::DerefMut for ElemBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        each!(self, v => as_bytes_mut(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{to_bytes, Datatype};

    /// The view of a vector is its `to_bytes` encoding, the erased round
    /// trip returns the same vector, and writing the encoding through the
    /// mutable views of zeroed buffers gives the values back.  Values are
    /// compared through the encoding, so NaN payloads count.
    fn check<T: Datatype>(values: Vec<T>) {
        let name = T::ID.name();
        let bytes = to_bytes(&values);
        assert_eq!(as_bytes(&values), &bytes[..], "view of {name}");
        let buf = T::into_elem_buf(values.clone());
        assert_eq!(buf.dtype(), T::ID, "{name}");
        assert_eq!(&buf[..], &bytes[..], "erased view of {name}");
        assert_eq!(
            to_bytes(&T::from_elem_buf(buf)),
            bytes,
            "round trip of {name}"
        );

        let mut zeroed = ElemBuf::zeroed(T::ID, bytes.len());
        assert_eq!(zeroed.dtype(), T::ID);
        assert!(zeroed.iter().all(|&b| b == 0), "zeroed {name}");
        zeroed.copy_from_slice(&bytes);
        let mut typed = T::from_elem_buf(zeroed);
        assert_eq!(to_bytes(&typed), bytes, "erased write of {name}");
        as_bytes_mut(&mut typed).fill(0);
        as_bytes_mut(&mut typed).copy_from_slice(&bytes);
        assert_eq!(to_bytes(&typed), bytes, "typed write of {name}");
    }

    #[test]
    fn views_are_the_wire_bytes_for_every_datatype() {
        check(vec![0u8, 1, 0x7F, 0x80, u8::MAX]);
        check(vec![0i8, -1, i8::MIN, i8::MAX]);
        check(vec![0u16, 0x1234, u16::MAX]);
        check(vec![0i16, -2, i16::MIN, i16::MAX]);
        check(vec![0u32, 0xDEAD_BEEF, u32::MAX]);
        check(vec![0i32, -3, i32::MIN, i32::MAX]);
        check(vec![0u64, 0x0123_4567_89AB_CDEF, u64::MAX]);
        check(vec![0i64, -4, i64::MIN, i64::MAX]);
        check(vec![
            -0.0f32,
            0.0,
            f32::MIN,
            f32::MAX,
            f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
            f32::from_bits(0xFFA0_0001), // negative signalling NaN
            f32::INFINITY,
            f32::from_bits(1),
        ]);
        check(vec![
            -0.0f64,
            0.0,
            f64::MIN,
            f64::MAX,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF4_0000_0000_0001),
            f64::NEG_INFINITY,
            f64::from_bits(1),
        ]);
        check(Vec::<f64>::new());
    }

    #[test]
    fn a_byte_vector_is_a_u8_buffer() {
        let buf = ElemBuf::from(vec![1u8, 2, 3]);
        assert_eq!(buf.dtype(), DtypeId::U8);
        assert_eq!(&buf[..], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "holds f32 elements, not i32")]
    fn unwrapping_as_another_type_panics() {
        let _ = i32::from_elem_buf(f32::into_elem_buf(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "not a whole number of f64 elements")]
    fn zeroed_rejects_a_partial_element() {
        let _ = ElemBuf::zeroed(DtypeId::F64, 12);
    }
}
