//! Typed elements, reduction operators and the erased reduction kernels the
//! collective algorithms consume.
//!
//! MPI expresses a buffer as `(pointer, count, datatype, op)`; the Rust
//! equivalent used here is a slice of a type implementing [`Datatype`], which
//! knows how to serialize itself to the little-endian byte representation the
//! communication layer moves around, and how the built-in [`ReduceOp`]s
//! combine two values.
//!
//! ## Wire bytes are host bytes
//!
//! The element types are exactly the ten primitive integers and floats
//! [`DtypeId`] names ([`Datatype`] is sealed), and the crate builds only on
//! little-endian hosts, so a typed buffer's in-memory bytes *are* its wire
//! encoding.  The execute plane therefore holds the caller's own `Vec<T>` as
//! an [`ElemBuf`] and reads and writes its bytes in place: results come back
//! without a decode, and point-to-point calls send the [`as_bytes`] view of
//! the caller's slice.  The byte views are the workspace's one `unsafe`
//! module (`datatype/elem_buf.rs`), whose header states why they are sound.
//! [`to_bytes`]/[`from_bytes`] remain for callers that want an owned byte
//! copy.
//!
//! The collective algorithms themselves stay byte-oriented (they move and
//! combine `[u8]` runs); the bridge between the two worlds is
//! [`ReduceKernel`]: a `Copy` handle around a **monomorphized** `(type, op)`
//! byte kernel (`fn(&mut [u8], &[u8])`) together with its
//! [`ReduceIdent`] identity. The identity travels with every reduction
//! request so compiled plans can be keyed by `(collective, type, op)` —
//! an `f32`-Sum plan never serves an `i32`-Max call — while the kernel
//! pointer coerces to the `&ReduceFn` the algorithms already accept.
//!
//! ## Kernel performance
//!
//! [`ReduceOp::apply_bytes`] hoists the operator match out of the loop: each
//! `(type, op)` gets one monomorphized per-element fold, which LLVM
//! auto-vectorizes because `read_le`/`write_le` and the `op_*` impls are
//! `#[inline]`. Hand-shaped variants (eight-element groups, an unrolled
//! float Sum) measured no faster for f32 Sum, nor at 64 KiB and above
//! except for u64 Prod (≈ 1.3x); their other gains (1.15–1.5x) were on
//! cache-resident 4 KiB buffers of other types. The per-element
//! path with the operator matched per element survives as
//! [`ReduceOp::apply_bytes_scalar`], the reference of the differential
//! tests. Only the float Max/Min folds have a shape of their own, a loop of
//! branch-free selections that vectorizes where the NaN and signed-zero
//! branches of the per-element operator do not (1.5–3x the reference).
//!
//! ## Float semantics
//!
//! `Max`/`Min` over floats are **NaN-propagating**: if either input is NaN
//! the result is the canonical `NAN` of the type, so the outcome does not
//! depend on which rank contributed the NaN or on the algorithm's combine
//! order (Rust's `f32::max` would silently drop the NaN instead). Signed
//! zeros are ordered like [`f32::total_cmp`]: `max(-0.0, +0.0) == +0.0` and
//! `min(-0.0, +0.0) == -0.0`, again independent of combine order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::comm::ReduceFn;

#[allow(unsafe_code)]
mod elem_buf;

pub use elem_buf::{as_bytes, as_bytes_mut, ElemBuf};

/// Wire identity of a [`Datatype`] implementation.
///
/// This is what travels inside [`ReduceIdent`] into plan-cache keys, so two
/// datatypes with the same byte width (`f32` vs `i32`) still produce
/// distinct plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DtypeId {
    /// `u8`
    U8,
    /// `i8`
    I8,
    /// `u16`
    U16,
    /// `i16`
    I16,
    /// `u32`
    U32,
    /// `i32`
    I32,
    /// `u64`
    U64,
    /// `i64`
    I64,
    /// `f32`
    F32,
    /// `f64`
    F64,
}

impl DtypeId {
    /// Wire size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            DtypeId::U8 | DtypeId::I8 => 1,
            DtypeId::U16 | DtypeId::I16 => 2,
            DtypeId::U32 | DtypeId::I32 | DtypeId::F32 => 4,
            DtypeId::U64 | DtypeId::I64 | DtypeId::F64 => 8,
        }
    }

    /// Display name (the Rust type name).
    pub fn name(self) -> &'static str {
        match self {
            DtypeId::U8 => "u8",
            DtypeId::I8 => "i8",
            DtypeId::U16 => "u16",
            DtypeId::I16 => "i16",
            DtypeId::U32 => "u32",
            DtypeId::I32 => "i32",
            DtypeId::U64 => "u64",
            DtypeId::I64 => "i64",
            DtypeId::F32 => "f32",
            DtypeId::F64 => "f64",
        }
    }
}

/// A fixed-size element that can travel through the communication layer.
///
/// The trait is sealed: its impls are exactly the ten primitive integer and
/// float types [`DtypeId`] names, which is what lets the execute plane treat
/// a typed buffer's memory as its wire bytes ([`ElemBuf`], [`as_bytes`]).
///
/// # Wire-format stability
///
/// The serialized form is part of the cross-rank protocol, so every
/// implementation guarantees:
///
/// * [`Datatype::SIZE`] is a **platform-independent** constant (this is why
///   `usize`/`isize` deliberately have no impl — their width differs between
///   32- and 64-bit targets, so a serialized buffer would not be portable);
/// * the encoding is little-endian and exactly `SIZE` bytes — the host's own
///   bytes, since the crate refuses to build on a big-endian host;
/// * `read_le(write_le(x)) == x` bit-for-bit (floats round-trip NaN
///   payloads unchanged).
///
/// # Performance
///
/// Every `read_le`, `write_le` and `op_*` impl is `#[inline]`.
/// [`to_bytes`], [`from_bytes`], [`read_into`] and the reduction folds
/// ([`Op::of_typed`]'s included) are generic, so they are instantiated in
/// the calling crate, where a non-`#[inline]` impl is one out-of-line call
/// per element and nothing vectorizes: warm 64 KiB `f32` decoding measured
/// 1.6–2.1 GB/s without the hint against 20–29 GB/s with it, a typed user
/// Sum 0.8 against 15 GB/s, the `i32` Max fold 1.8 against 20 GB/s
/// (`bench_reduce_kernels` asserts the decode rate).
pub trait Datatype:
    elem_buf::Sealed + Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// Size of one element in bytes.
    const SIZE: usize;

    /// Stable wire identity of this type.
    const ID: DtypeId;

    /// Hand `values` to the execute plane as an erased buffer, without a
    /// copy.
    fn into_elem_buf(values: Vec<Self>) -> ElemBuf;

    /// Take back the vector [`Datatype::into_elem_buf`] wrapped, without a
    /// copy.
    ///
    /// # Panics
    ///
    /// If `buf` holds elements of another type.
    fn from_elem_buf(buf: ElemBuf) -> Vec<Self>;

    /// Serialize into exactly [`Datatype::SIZE`] bytes.
    fn write_le(&self, out: &mut [u8]);

    /// Deserialize from exactly [`Datatype::SIZE`] bytes.
    fn read_le(src: &[u8]) -> Self;

    /// `a + b` for the SUM operator.
    fn op_sum(a: Self, b: Self) -> Self;
    /// `a * b` for the PROD operator.
    fn op_prod(a: Self, b: Self) -> Self;
    /// `max(a, b)` for the MAX operator (NaN-propagating for floats).
    fn op_max(a: Self, b: Self) -> Self;
    /// `min(a, b)` for the MIN operator (NaN-propagating for floats).
    fn op_min(a: Self, b: Self) -> Self;

    /// `acc[i] = max(acc[i], other[i])` over serialized buffers; the float
    /// impls override it with a branch-free loop. Callers go through
    /// [`ReduceOp::apply_bytes`], which validates lengths first.
    fn fold_max(acc: &mut [u8], other: &[u8]) {
        fold(Self::op_max, acc, other);
    }

    /// `acc[i] = min(acc[i], other[i])` over serialized buffers.
    fn fold_min(acc: &mut [u8], other: &[u8]) {
        fold(Self::op_min, acc, other);
    }
}

/// The reduction kernels' loop: `acc[i] = combine(acc[i], other[i])` over
/// serialized buffers, one element at a time. `combine` is a concrete
/// `fn`/closure per `(type, op)`, so the loop monomorphizes without
/// per-element dispatch, and with `read_le`/`write_le` inlined LLVM
/// vectorizes it.
fn fold<T: Datatype>(combine: impl Fn(T, T) -> T, acc: &mut [u8], other: &[u8]) {
    for (a, b) in acc
        .chunks_exact_mut(T::SIZE)
        .zip(other.chunks_exact(T::SIZE))
    {
        combine(T::read_le(a), T::read_le(b)).write_le(a);
    }
}

/// [`Datatype::into_elem_buf`] and [`Datatype::from_elem_buf`] for the type
/// `ElemBuf::$id` holds.
macro_rules! elem_buf_conversions {
    ($id:ident) => {
        fn into_elem_buf(values: Vec<Self>) -> ElemBuf {
            ElemBuf::$id(values)
        }

        fn from_elem_buf(buf: ElemBuf) -> Vec<Self> {
            match buf {
                ElemBuf::$id(values) => values,
                other => panic!(
                    "buffer holds {} elements, not {}",
                    other.dtype().name(),
                    DtypeId::$id.name()
                ),
            }
        }
    };
}

macro_rules! impl_datatype_int {
    ($($ty:ty => $id:ident),* $(,)?) => {$(
        impl Datatype for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
            const ID: DtypeId = DtypeId::$id;

            elem_buf_conversions!($id);

            // `to_bytes` is instantiated in the calling crate; without the
            // hint every element pays a call there and nothing vectorizes.
            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            // `from_bytes`, `read_into` and user-operator folds are
            // instantiated in the calling crate too; without the hint they
            // decode one call per element at about 2 GB/s.
            #[inline]
            fn read_le(src: &[u8]) -> Self {
                <$ty>::from_le_bytes(src.try_into().expect("element size"))
            }

            #[inline]
            fn op_sum(a: Self, b: Self) -> Self {
                a.wrapping_add(b)
            }

            #[inline]
            fn op_prod(a: Self, b: Self) -> Self {
                a.wrapping_mul(b)
            }

            #[inline]
            fn op_max(a: Self, b: Self) -> Self {
                a.max(b)
            }

            #[inline]
            fn op_min(a: Self, b: Self) -> Self {
                a.min(b)
            }
        }
    )*};
}

/// The float Max/Min fold: `acc[i] = pick(acc[i], other[i])`, where
/// `pick` gives the result's bits for two non-NaN values and a NaN on
/// either side gives the canonical NaN.  A plain zip loop of branch-free
/// selections, which vectorizes (the per-element operator's branches do
/// not).
macro_rules! fold_float_extremum {
    ($ty:ty, $acc:expr, $other:expr, |$x:ident, $y:ident| $pick:expr) => {{
        const S: usize = std::mem::size_of::<$ty>();
        // A function, not a closure, and the pick made before the NaN test:
        // either change turns LLVM's `maxps`/`minps` into compare-and-blend
        // code at ≈ 0.6x the rate.
        fn float(bytes: &[u8]) -> $ty {
            <$ty>::from_le_bytes(bytes.try_into().expect("element size"))
        }
        for (a, b) in $acc.chunks_exact_mut(S).zip($other.chunks_exact(S)) {
            let ($x, $y) = (float(a), float(b));
            let picked = $pick;
            let bits = if $x.is_nan() | $y.is_nan() {
                <$ty>::NAN.to_bits()
            } else {
                picked
            };
            a.copy_from_slice(&bits.to_le_bytes());
        }
    }};
}

macro_rules! impl_datatype_float {
    ($($ty:ty => $id:ident),* $(,)?) => {$(
        impl Datatype for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
            const ID: DtypeId = DtypeId::$id;

            elem_buf_conversions!($id);

            // `to_bytes` is instantiated in the calling crate; without the
            // hint every element pays a call there and nothing vectorizes.
            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            // `from_bytes`, `read_into` and user-operator folds are
            // instantiated in the calling crate too; without the hint they
            // decode one call per element at about 2 GB/s.
            #[inline]
            fn read_le(src: &[u8]) -> Self {
                <$ty>::from_le_bytes(src.try_into().expect("element size"))
            }

            #[inline]
            fn op_sum(a: Self, b: Self) -> Self {
                a + b
            }

            #[inline]
            fn op_prod(a: Self, b: Self) -> Self {
                a * b
            }

            // NaN-propagating, canonical-NaN max/min with total_cmp ordering
            // of signed zeros (see the module docs). Rust's `max`/`min`
            // would drop the NaN, making the reduction depend on combine
            // order.
            #[inline]
            fn op_max(a: Self, b: Self) -> Self {
                if a.is_nan() || b.is_nan() {
                    <$ty>::NAN
                } else if a.total_cmp(&b) == std::cmp::Ordering::Less {
                    b
                } else {
                    a
                }
            }

            #[inline]
            fn op_min(a: Self, b: Self) -> Self {
                if a.is_nan() || b.is_nan() {
                    <$ty>::NAN
                } else if a.total_cmp(&b) == std::cmp::Ordering::Greater {
                    b
                } else {
                    a
                }
            }

            // `op_max` bit for bit: unequal values make both selections
            // the larger, equal ones (signed zeros included) give the AND
            // of their bits, +0.0 when either is.
            fn fold_max(acc: &mut [u8], other: &[u8]) {
                fold_float_extremum!($ty, acc, other, |x, y| {
                    (if x > y { x } else { y }).to_bits() & (if y > x { y } else { x }).to_bits()
                })
            }

            // `op_min` bit for bit: the OR of equal values' bits is -0.0
            // when either is.
            fn fold_min(acc: &mut [u8], other: &[u8]) {
                fold_float_extremum!($ty, acc, other, |x, y| {
                    (if x < y { x } else { y }).to_bits() | (if y < x { y } else { x }).to_bits()
                })
            }
        }
    )*};
}

impl_datatype_int!(
    u8 => U8,
    i8 => I8,
    u16 => U16,
    i16 => I16,
    u32 => U32,
    i32 => I32,
    u64 => U64,
    i64 => I64,
);
impl_datatype_float!(f32 => F32, f64 => F64);

/// The built-in commutative reduction operators (MPI_SUM, MPI_PROD, MPI_MAX,
/// MPI_MIN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// All built-in operators, for grids in tests and benches.
    pub const ALL: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];

    /// Display name matching MPI nomenclature.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceOp::Sum => "MPI_SUM",
            ReduceOp::Prod => "MPI_PROD",
            ReduceOp::Max => "MPI_MAX",
            ReduceOp::Min => "MPI_MIN",
        }
    }

    /// Combine two values.
    pub fn combine<T: Datatype>(&self, a: T, b: T) -> T {
        match self {
            ReduceOp::Sum => T::op_sum(a, b),
            ReduceOp::Prod => T::op_prod(a, b),
            ReduceOp::Max => T::op_max(a, b),
            ReduceOp::Min => T::op_min(a, b),
        }
    }

    /// Element-wise combine over serialized buffers (`acc ⊕= other`), the
    /// form the byte-level collective algorithms consume.
    ///
    /// Dispatches once to the monomorphized `(type, op)` fold (see the
    /// module docs); use [`ReduceKernel::of`] to fix the dispatch ahead of
    /// time.
    ///
    /// # Panics
    ///
    /// In **every** build profile, if the buffers differ in length or the
    /// length is not a whole number of elements. These used to be
    /// `debug_assert`s, which in release builds turned a short `other` into
    /// a mid-loop index panic and *silently dropped* a trailing partial
    /// element.
    pub fn apply_bytes<T: Datatype>(&self, acc: &mut [u8], other: &[u8]) {
        validate_reduce_buffers::<T>(acc, other);
        match self {
            ReduceOp::Sum => fold(T::op_sum, acc, other),
            ReduceOp::Prod => fold(T::op_prod, acc, other),
            ReduceOp::Max => T::fold_max(acc, other),
            ReduceOp::Min => T::fold_min(acc, other),
        }
    }

    /// The historical per-element implementation: decode one element from
    /// each side, dispatch the operator, re-encode.
    ///
    /// Kept as the reference semantics for the differential tests and as
    /// the scalar baseline `bench_reduce_kernels` measures
    /// [`ReduceOp::apply_bytes`] against. Validates like `apply_bytes`.
    pub fn apply_bytes_scalar<T: Datatype>(&self, acc: &mut [u8], other: &[u8]) {
        validate_reduce_buffers::<T>(acc, other);
        for (acc_el, other_el) in acc
            .chunks_exact_mut(T::SIZE)
            .zip(other.chunks_exact(T::SIZE))
        {
            let a = T::read_le(acc_el);
            let b = T::read_le(other_el);
            self.combine(a, b).write_le(acc_el);
        }
    }
}

/// Unconditional buffer validation shared by both kernel paths.
fn validate_reduce_buffers<T: Datatype>(acc: &[u8], other: &[u8]) {
    assert_eq!(
        acc.len(),
        other.len(),
        "reduction buffers must have equal lengths (acc {} B, other {} B)",
        acc.len(),
        other.len()
    );
    assert_eq!(
        acc.len() % T::SIZE,
        0,
        "reduction buffer of {} B is not a whole number of {}-byte {} elements",
        acc.len(),
        T::SIZE,
        T::ID.name()
    );
}

/// Identity of a reduction: which element type and which operator.
///
/// Travels with every reduction request into `CollectiveShape`/`PlanKey`,
/// so the plan cache distinguishes same-width, different-meaning reductions.
/// Built-in reductions are identified structurally by `(type, op)`;
/// user-defined operators ([`Op`]) carry the process-unique id minted at
/// registration, so two different user operators over same-size elements
/// never serve each other's cached plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceIdent {
    /// A built-in `(type, op)` kernel.
    Builtin {
        /// Element type.
        dtype: DtypeId,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// A user-defined operator registered through [`Op::create`].
    User {
        /// Process-unique registration id (see [`Op::id`]).
        id: u64,
        /// Element size in bytes the operator assumes.
        elem_size: usize,
    },
}

impl ReduceIdent {
    /// Wire size of one element.
    pub fn elem_size(self) -> usize {
        match self {
            ReduceIdent::Builtin { dtype, .. } => dtype.size(),
            ReduceIdent::User { elem_size, .. } => elem_size,
        }
    }
}

/// Source of process-unique [`Op`] ids. Starts at 1 so 0 never names a
/// registered operator.
static NEXT_OP_ID: AtomicU64 = AtomicU64::new(1);

/// A user-defined reduction operator — the `MPI_Op_create` analogue.
///
/// Wraps an arbitrary `acc ⊕= other` byte closure together with a **stable
/// 64-bit identity** minted at registration. The identity travels into
/// `CollectiveShape`/`PlanKey` as [`ReduceIdent::User`], so plans compiled
/// for one user operator are never served to another, even when both operate
/// on same-size elements.
///
/// # Operator contract
///
/// The collective algorithms assume the operator is **associative and
/// commutative**: recursive doubling, ring and hierarchical schedules all
/// combine contributions in rank orders that vary with the topology and the
/// library. A non-commutative or non-associative closure produces
/// schedule-dependent results (exactly as a non-commutative `MPI_Op` does
/// under `MPI_Allreduce`). Floating-point closures additionally inherit the
/// usual caveat that `(a + b) + c != a + (b + c)` in general; the built-in
/// float kernels (see the module docs) pick NaN-propagating, total-order
/// semantics for this reason.
///
/// `Op` is cheaply cloneable (the closure is behind an [`Arc`]); clones share
/// the same identity, so they also share cached plans.
#[derive(Clone)]
pub struct Op {
    id: u64,
    elem_size: usize,
    f: SharedOpFn,
}

/// The shared, erased form of a registered operator's combine closure.
type SharedOpFn = Arc<dyn Fn(&mut [u8], &[u8]) + Send + Sync>;

impl Op {
    /// Register a byte-level operator over `elem_size`-byte elements.
    ///
    /// The closure receives `(acc, other)` buffers of equal length, always a
    /// whole number of elements, and must fold `other` into `acc`
    /// element-wise. See the type docs for the associativity/commutativity
    /// contract.
    ///
    /// # Panics
    ///
    /// If `elem_size` is zero.
    pub fn create(elem_size: usize, f: impl Fn(&mut [u8], &[u8]) + Send + Sync + 'static) -> Self {
        assert!(elem_size > 0, "user operator element size must be non-zero");
        Op {
            id: NEXT_OP_ID.fetch_add(1, Ordering::Relaxed),
            elem_size,
            f: Arc::new(f),
        }
    }

    /// Register a typed element-wise operator: `combine(acc, other)` is
    /// applied per element, with serialization handled here.
    pub fn of_typed<T: Datatype>(combine: impl Fn(T, T) -> T + Send + Sync + 'static) -> Self {
        Op::create(T::SIZE, move |acc, other| {
            validate_reduce_buffers::<T>(acc, other);
            fold(&combine, acc, other);
        })
    }

    /// The process-unique registration id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Element size in bytes the operator assumes.
    pub fn elem_size(&self) -> usize {
        self.elem_size
    }

    /// The plan-cache identity of this operator.
    pub fn ident(&self) -> ReduceIdent {
        ReduceIdent::User {
            id: self.id,
            elem_size: self.elem_size,
        }
    }

    /// Combine `other` into `acc`.
    pub fn apply(&self, acc: &mut [u8], other: &[u8]) {
        (self.f)(acc, other)
    }

    /// Borrow as the `&ReduceFn` form every collective algorithm accepts.
    pub fn as_fn(&self) -> &ReduceFn<'_> {
        // `&(dyn Fn + Send + Sync)` coerces to `&(dyn Fn + Sync)` by
        // dropping the auto trait.
        &*self.f
    }
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Op")
            .field("id", &self.id)
            .field("elem_size", &self.elem_size)
            .finish_non_exhaustive()
    }
}

/// The reduction operator a collective request carries, whatever its entry
/// style: either a built-in [`ReduceKernel`] or a registered user-defined
/// [`Op`].  Both have an identity that keys the plan cache, so two distinct
/// operators of the same width never share a plan.
#[derive(Debug, Clone)]
pub enum OwnedReduction {
    /// A built-in `(type, op)` kernel.
    Typed(ReduceKernel),
    /// A user-defined operator.
    User(Op),
}

impl OwnedReduction {
    /// The plan-cache identity.
    pub fn ident(&self) -> ReduceIdent {
        match self {
            OwnedReduction::Typed(kernel) => kernel.ident(),
            OwnedReduction::User(op) => op.ident(),
        }
    }

    /// Wire size of one element.
    pub fn elem_size(&self) -> usize {
        match self {
            OwnedReduction::Typed(kernel) => kernel.elem_size(),
            OwnedReduction::User(op) => op.elem_size(),
        }
    }

    /// Borrow the byte operator every collective algorithm accepts.
    pub fn as_fn(&self) -> &ReduceFn<'_> {
        match self {
            OwnedReduction::Typed(kernel) => kernel.as_fn(),
            OwnedReduction::User(op) => op.as_fn(),
        }
    }
}

/// A reduction operator over elements of type `T`: the one operator argument
/// every reduction entry point takes, as MPI passes built-in and user
/// operators through one `MPI_Op`.
///
/// A built-in [`ReduceOp`] compiles to the monomorphized `(T, op)`
/// [`ReduceKernel`].  A registered `&`[`Op`] must combine `T::SIZE`-byte
/// elements (the conversion panics otherwise) and be **associative and
/// commutative** over their serialized little-endian bytes — the algorithms
/// combine contributions in topology-dependent order.  Its process-unique
/// identity, minted by [`Op::create`], keys the plan cache, so it never
/// shares a plan with another operator of the same width.
pub trait Reduction<T: Datatype> {
    /// The operator a collective request carries.
    fn reduction(self) -> OwnedReduction;
}

impl<T: Datatype> Reduction<T> for ReduceOp {
    fn reduction(self) -> OwnedReduction {
        OwnedReduction::Typed(ReduceKernel::of::<T>(self))
    }
}

impl<T: Datatype> Reduction<T> for &Op {
    fn reduction(self) -> OwnedReduction {
        assert_eq!(
            self.elem_size(),
            T::SIZE,
            "operator element size ({}) must match the datatype width ({})",
            self.elem_size(),
            T::SIZE,
        );
        OwnedReduction::User(self.clone())
    }
}

/// A strided (vector) derived datatype: `count` blocks of `blocklen`
/// elements, block starts `stride` elements apart — the `MPI_Type_vector`
/// triple. All fields are in **elements**; multiply by the element size
/// ([`Layout::scaled`]) to get the byte-level layout the plan executor uses.
///
/// A layout describes how a collective's data sits in the caller's buffer:
/// the buffer spans [`Layout::extent`] elements, of which the
/// [`Layout::packed_len`] elements inside blocks participate in the
/// collective and the gap elements are left untouched. Non-contiguous
/// layouts are packed into scratch before the algorithm runs and unpacked
/// after ([`Layout::pack_bytes`]/[`Layout::unpack_bytes`]); contiguous ones
/// (`stride == blocklen`, or fewer than two blocks) ride the existing
/// contiguous plans unchanged.
///
/// The layout is part of [`ReduceIdent`]'s sibling key material in
/// `CollectiveShape`, so two layouts with equal total bytes never alias a
/// cached plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    /// Number of blocks.
    pub count: usize,
    /// Elements per block.
    pub blocklen: usize,
    /// Elements between successive block starts (`>= blocklen`).
    pub stride: usize,
}

impl Layout {
    /// The `MPI_Type_vector(count, blocklen, stride)` layout.
    ///
    /// # Panics
    ///
    /// If `stride < blocklen` (blocks would overlap) or `blocklen == 0`
    /// with a non-zero count.
    pub fn vector(count: usize, blocklen: usize, stride: usize) -> Self {
        assert!(
            stride >= blocklen,
            "layout stride {stride} must be >= blocklen {blocklen} (blocks may not overlap)"
        );
        assert!(
            count == 0 || blocklen > 0,
            "layout blocklen must be non-zero when count > 0"
        );
        Layout {
            count,
            blocklen,
            stride,
        }
    }

    /// A contiguous run of `len` elements (`stride == blocklen`).
    pub fn contiguous(len: usize) -> Self {
        Layout {
            count: 1,
            blocklen: len,
            stride: len,
        }
    }

    /// Elements that participate in the collective: `count * blocklen`.
    pub fn packed_len(&self) -> usize {
        self.count * self.blocklen
    }

    /// Elements the caller's buffer must span: the last block ends at
    /// `(count - 1) * stride + blocklen`. Zero when `count == 0`.
    pub fn extent(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            (self.count - 1) * self.stride + self.blocklen
        }
    }

    /// Whether the layout is a plain contiguous run (no gaps). Contiguous
    /// layouts share the plans of un-layouted collectives.
    pub fn is_contiguous(&self) -> bool {
        self.count <= 1 || self.stride == self.blocklen
    }

    /// The same layout with every field scaled from elements to bytes.
    pub fn scaled(&self, elem_size: usize) -> Layout {
        Layout {
            count: self.count,
            blocklen: self.blocklen * elem_size,
            stride: self.stride * elem_size,
        }
    }

    /// Gather the blocks of `src` (an extent-length buffer, fields in
    /// bytes) into `dst`, which is cleared first and ends up
    /// `packed_len` bytes long.
    pub fn pack_bytes(&self, src: &[u8], dst: &mut Vec<u8>) {
        assert!(
            src.len() >= self.extent(),
            "pack source of {} B is shorter than the layout extent {} B",
            src.len(),
            self.extent()
        );
        dst.clear();
        dst.reserve(self.packed_len());
        for block in 0..self.count {
            let start = block * self.stride;
            dst.extend_from_slice(&src[start..start + self.blocklen]);
        }
    }

    /// Scatter `src` (`packed_len` bytes) back into the blocks of `dst`
    /// (an extent-length buffer, fields in bytes), leaving the gap bytes
    /// untouched.
    pub fn unpack_bytes(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            self.packed_len(),
            "unpack source must be exactly the packed length"
        );
        assert!(
            dst.len() >= self.extent(),
            "unpack destination of {} B is shorter than the layout extent {} B",
            dst.len(),
            self.extent()
        );
        for block in 0..self.count {
            let start = block * self.stride;
            dst[start..start + self.blocklen]
                .copy_from_slice(&src[block * self.blocklen..(block + 1) * self.blocklen]);
        }
    }
}

/// An erased reduction kernel: the monomorphized `(type, op)` byte fold plus
/// its identity.
///
/// `Copy` and `'static`, so it can be stored in owned collective
/// descriptors and plan cursors, and turned into the `&ReduceFn` the
/// algorithms take ([`ReduceKernel::as_fn`]).
#[derive(Debug, Clone, Copy)]
pub struct ReduceKernel {
    ident: ReduceIdent,
    kernel: fn(&mut [u8], &[u8]),
}

impl ReduceKernel {
    /// The kernel for element type `T` and operator `op`.
    ///
    /// `ReduceKernel::of::<u8>(ReduceOp::Sum)` is the trivial instantiation
    /// the historical byte API reduces to (wrapping per-byte addition).
    pub fn of<T: Datatype>(op: ReduceOp) -> Self {
        // Capture-free closures coerce to `fn`, fixing the (type, op)
        // dispatch here instead of per call.
        let kernel: fn(&mut [u8], &[u8]) = match op {
            ReduceOp::Sum => |acc, other| ReduceOp::Sum.apply_bytes::<T>(acc, other),
            ReduceOp::Prod => |acc, other| ReduceOp::Prod.apply_bytes::<T>(acc, other),
            ReduceOp::Max => |acc, other| ReduceOp::Max.apply_bytes::<T>(acc, other),
            ReduceOp::Min => |acc, other| ReduceOp::Min.apply_bytes::<T>(acc, other),
        };
        ReduceKernel {
            ident: ReduceIdent::Builtin { dtype: T::ID, op },
            kernel,
        }
    }

    /// The `(type, op)` identity.
    pub fn ident(&self) -> ReduceIdent {
        self.ident
    }

    /// Wire size of one element.
    pub fn elem_size(&self) -> usize {
        self.ident.elem_size()
    }

    /// Combine `other` into `acc`.
    pub fn apply(&self, acc: &mut [u8], other: &[u8]) {
        (self.kernel)(acc, other)
    }

    /// Borrow as the `&ReduceFn` form every collective algorithm accepts.
    pub fn as_fn(&self) -> &ReduceFn<'static> {
        &self.kernel
    }
}

/// Serialize a typed slice to its little-endian byte representation.
///
/// Writes into a zeroed buffer through fixed-width chunks, a loop without
/// per-element length bookkeeping that LLVM vectorizes.
pub fn to_bytes<T: Datatype>(values: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * T::SIZE];
    for (chunk, value) in out.chunks_exact_mut(T::SIZE).zip(values) {
        value.write_le(chunk);
    }
    out
}

/// Deserialize a little-endian byte buffer into typed elements.
pub fn from_bytes<T: Datatype>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % T::SIZE,
        0,
        "byte length must be a multiple of the element size"
    );
    bytes.chunks_exact(T::SIZE).map(T::read_le).collect()
}

/// Deserialize a little-endian byte buffer over the elements of `out`: the
/// read-back half of a [`to_bytes`] → collective → typed-buffer round trip.
///
/// # Panics
///
/// In **every** build profile, if `bytes` is not exactly `out.len()`
/// elements long; a short buffer would otherwise leave the tail of `out`
/// stale.
pub fn read_into<T: Datatype>(out: &mut [T], bytes: &[u8]) {
    assert_eq!(
        bytes.len(),
        out.len() * T::SIZE,
        "read_into needs exactly {} elements of {} bytes",
        out.len(),
        T::SIZE
    );
    for (value, chunk) in out.iter_mut().zip(bytes.chunks_exact(T::SIZE)) {
        *value = T::read_le(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_integers() {
        let values: Vec<i32> = vec![-5, 0, 7, i32::MAX, i32::MIN];
        assert_eq!(from_bytes::<i32>(&to_bytes(&values)), values);
        let values: Vec<u64> = vec![0, 1, u64::MAX];
        assert_eq!(from_bytes::<u64>(&to_bytes(&values)), values);
    }

    #[test]
    fn round_trip_floats() {
        let values: Vec<f64> = vec![0.0, -1.5, std::f64::consts::PI];
        assert_eq!(from_bytes::<f64>(&to_bytes(&values)), values);
    }

    /// The per-element encoding `to_bytes` used to be; it must still
    /// produce exactly these bytes.
    fn encode_each<T: Datatype>(values: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut elem = [0u8; 16];
        for value in values {
            value.write_le(&mut elem[..T::SIZE]);
            out.extend_from_slice(&elem[..T::SIZE]);
        }
        out
    }

    /// Well-spread bit patterns, so every byte of every element varies.
    fn bits(i: usize) -> u64 {
        (i as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
    }

    /// `to_bytes` matches the per-element encoding, and `from_bytes` and
    /// `read_into` decode it bit for bit (compared through the encoding, so
    /// NaN payloads and signed zeros count), across the chunk boundaries.
    fn check_conversions<T: Datatype>(value: impl Fn(usize) -> T) {
        for len in [0, 1, 7, 8, 9, 1025] {
            let name = T::ID.name();
            let values: Vec<T> = (0..len).map(&value).collect();
            let bytes = to_bytes(&values);
            assert_eq!(bytes, encode_each(&values), "to_bytes of {len} {name}");
            assert_eq!(
                encode_each(&from_bytes::<T>(&bytes)),
                bytes,
                "from_bytes of {len} {name}"
            );
            let mut out: Vec<T> = (len..2 * len).map(&value).collect();
            read_into(&mut out, &bytes);
            assert_eq!(encode_each(&out), bytes, "read_into of {len} {name}");
        }
    }

    #[test]
    fn conversions_round_trip_bit_for_bit_for_every_datatype() {
        check_conversions(|i| bits(i) as u8);
        check_conversions(|i| bits(i) as i8);
        check_conversions(|i| bits(i) as u16);
        check_conversions(|i| bits(i) as i16);
        check_conversions(|i| bits(i) as u32);
        check_conversions(|i| bits(i) as i32);
        check_conversions(bits);
        check_conversions(|i| bits(i) as i64);
        let f32_specials = [
            -0.0,
            f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
            f32::from_bits(0xFFA0_0001), // negative signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1), // smallest subnormal
        ];
        check_conversions(|i| {
            f32_specials
                .get(i)
                .copied()
                .unwrap_or_else(|| f32::from_bits(bits(i) as u32))
        });
        let f64_specials = [
            -0.0,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF4_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
        ];
        check_conversions(|i| {
            f64_specials
                .get(i)
                .copied()
                .unwrap_or_else(|| f64::from_bits(bits(i)))
        });
    }

    #[test]
    #[should_panic(expected = "read_into needs exactly 3 elements")]
    fn read_into_rejects_a_short_buffer() {
        read_into(&mut [0i32; 3], &[0u8; 8]);
    }

    #[test]
    fn dtype_ids_report_their_wire_size() {
        assert_eq!(<u8 as Datatype>::ID.size(), 1);
        assert_eq!(<i16 as Datatype>::ID.size(), 2);
        assert_eq!(<f32 as Datatype>::ID.size(), 4);
        assert_eq!(<u64 as Datatype>::ID.size(), 8);
        assert_eq!(DtypeId::F64.name(), "f64");
    }

    #[test]
    fn reduce_ops_combine_as_expected() {
        assert_eq!(ReduceOp::Sum.combine(3i32, 4), 7);
        assert_eq!(ReduceOp::Prod.combine(3i32, 4), 12);
        assert_eq!(ReduceOp::Max.combine(3i32, 4), 4);
        assert_eq!(ReduceOp::Min.combine(3i32, 4), 3);
        assert_eq!(ReduceOp::Sum.combine(1.5f64, 2.25), 3.75);
    }

    #[test]
    fn apply_bytes_is_elementwise() {
        let mut acc = to_bytes(&[1i32, 10, 100]);
        let other = to_bytes(&[2i32, 20, 200]);
        ReduceOp::Sum.apply_bytes::<i32>(&mut acc, &other);
        assert_eq!(from_bytes::<i32>(&acc), vec![3, 30, 300]);
        ReduceOp::Max.apply_bytes::<i32>(&mut acc, &to_bytes(&[5i32, 40, 1]));
        assert_eq!(from_bytes::<i32>(&acc), vec![5, 40, 300]);
    }

    #[test]
    fn integer_sum_wraps_instead_of_panicking() {
        assert_eq!(ReduceOp::Sum.combine(u8::MAX, 1u8), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the element size")]
    fn from_bytes_rejects_misaligned_lengths() {
        let _ = from_bytes::<i32>(&[0u8; 6]);
    }

    /// The production kernels and a typed user operator built from the
    /// same `combine` agree bit-for-bit with the scalar reference, for every
    /// op and at lengths around the vector widths (so the vectorized body
    /// and its scalar tail both run).
    #[test]
    fn chunked_kernels_match_the_scalar_reference() {
        fn check<T: Datatype>(values: impl Fn(usize) -> T) {
            for count in [0, 1, 7, 8, 9, 15, 16, 17, 64, 65] {
                let a: Vec<T> = (0..count).map(&values).collect();
                let b: Vec<T> = (0..count).map(|i| values(i + 3)).collect();
                for op in ReduceOp::ALL {
                    let other = to_bytes(&b);
                    let mut scalar = to_bytes(&a);
                    op.apply_bytes_scalar::<T>(&mut scalar, &other);
                    let mut kernel = to_bytes(&a);
                    op.apply_bytes::<T>(&mut kernel, &other);
                    let mut user = to_bytes(&a);
                    Op::of_typed::<T>(move |x, y| op.combine(x, y)).apply(&mut user, &other);
                    for (route, bytes) in [("apply_bytes", kernel), ("Op::of_typed", user)] {
                        assert_eq!(
                            bytes,
                            scalar,
                            "{route} {:?} over {} x {}",
                            op,
                            count,
                            std::any::type_name::<T>()
                        );
                    }
                }
            }
        }
        check::<u8>(|i| (i * 37 + 11) as u8);
        check::<i32>(|i| i as i32 * 1_000_003 - 17);
        check::<u64>(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        check::<f32>(|i| i as f32 * 0.75 - 4.0);
        check::<f64>(|i| i as f64 * -1.25 + 3.0);
    }

    /// The float Max/Min folds agree with the per-element operator bit for
    /// bit on every pair of special values — NaN payloads of both signs,
    /// signed zeros, infinities, extremes, subnormals — in both argument
    /// orders and at every position of a chunk.
    #[test]
    fn float_max_min_folds_match_the_operator_on_special_values() {
        fn check<T: Datatype>(specials: &[T]) {
            let pairs: Vec<(T, T)> = specials
                .iter()
                .flat_map(|&a| specials.iter().map(move |&b| (a, b)))
                .collect();
            let (a, b): (Vec<T>, Vec<T>) = pairs.into_iter().unzip();
            for op in [ReduceOp::Max, ReduceOp::Min] {
                let mut chunked = to_bytes(&a);
                let mut scalar = chunked.clone();
                op.apply_bytes::<T>(&mut chunked, &to_bytes(&b));
                op.apply_bytes_scalar::<T>(&mut scalar, &to_bytes(&b));
                assert_eq!(chunked, scalar, "{op:?} over {}", T::ID.name());
            }
        }
        check(&[
            0.0f32,
            -0.0,
            1.5,
            -1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::from_bits(1),
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFA0_0001),
            f32::NAN,
        ]);
        check(&[
            0.0f64,
            -0.0,
            2.25,
            -2.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::from_bits(1),
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF4_0000_0000_0001),
            f64::NAN,
        ]);
    }

    #[test]
    fn float_max_min_propagate_nan_canonically() {
        for op in [ReduceOp::Max, ReduceOp::Min] {
            assert!(op.combine(f32::NAN, 1.0).is_nan());
            assert!(op.combine(1.0f32, f32::NAN).is_nan());
            assert!(op.combine(f64::NAN, f64::NEG_INFINITY).is_nan());
            // Canonical: the result is the positive canonical NaN, not the
            // input's payload — so combine order cannot change the bits.
            let negative_nan = f32::from_bits(f32::NAN.to_bits() | 0x8000_0000);
            assert_eq!(
                op.combine(negative_nan, 1.0f32).to_bits(),
                f32::NAN.to_bits()
            );
        }
    }

    #[test]
    fn float_max_min_order_signed_zeros_like_total_cmp() {
        assert_eq!(
            ReduceOp::Max.combine(-0.0f32, 0.0).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            ReduceOp::Max.combine(0.0f32, -0.0).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            ReduceOp::Min.combine(-0.0f64, 0.0).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            ReduceOp::Min.combine(0.0f64, -0.0).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn reduce_kernel_carries_identity_and_reduces() {
        let kernel = ReduceKernel::of::<f32>(ReduceOp::Sum);
        assert_eq!(
            kernel.ident(),
            ReduceIdent::Builtin {
                dtype: DtypeId::F32,
                op: ReduceOp::Sum
            }
        );
        assert_eq!(kernel.elem_size(), 4);
        let mut acc = to_bytes(&[1.0f32, 2.0]);
        kernel.apply(&mut acc, &to_bytes(&[0.5f32, 0.25]));
        assert_eq!(from_bytes::<f32>(&acc), vec![1.5, 2.25]);
        // The erased forms keep working as plain byte operators.
        let mut acc = to_bytes(&[1.0f32]);
        (kernel.as_fn())(&mut acc, &to_bytes(&[2.0f32]));
        let copy = kernel;
        (copy.as_fn())(&mut acc, &to_bytes(&[4.0f32]));
        assert_eq!(from_bytes::<f32>(&acc), vec![7.0]);
    }

    #[test]
    fn u8_sum_kernel_is_the_trivial_byte_instantiation() {
        let kernel = ReduceKernel::of::<u8>(ReduceOp::Sum);
        let mut acc = vec![250u8, 1, 2];
        kernel.apply(&mut acc, &[10, 1, 1]);
        assert_eq!(acc, vec![4, 2, 3], "wrapping per-byte addition");
    }

    #[test]
    fn owned_reduction_reports_identity_width_and_operator() {
        let typed = OwnedReduction::Typed(ReduceKernel::of::<i32>(ReduceOp::Max));
        assert_eq!(typed.elem_size(), 4);
        assert_eq!(
            typed.ident(),
            ReduceIdent::Builtin {
                dtype: DtypeId::I32,
                op: ReduceOp::Max
            }
        );
        let mut acc = to_bytes(&[3i32, -7]);
        (typed.as_fn())(&mut acc, &to_bytes(&[5i32, -9]));
        assert_eq!(from_bytes::<i32>(&acc), vec![5, -7]);
        let xor = Op::create(2, |acc, other| {
            for (a, b) in acc.iter_mut().zip(other) {
                *a ^= *b;
            }
        });
        let user = OwnedReduction::User(xor.clone());
        assert_eq!(user.elem_size(), 2);
        assert_eq!(user.ident(), xor.ident());
        let mut acc = vec![0b1010u8, 0xFF];
        (user.as_fn())(&mut acc, &[0b0110, 0x0F]);
        (user.clone().as_fn())(&mut acc, &[0b0001, 0x00]);
        assert_eq!(acc, vec![0b1101, 0xF0]);
    }

    #[test]
    fn user_ops_mint_distinct_identities() {
        let a = Op::create(4, |acc, other| {
            for (x, y) in acc.iter_mut().zip(other) {
                *x = x.wrapping_add(*y);
            }
        });
        let b = Op::of_typed::<u32>(|x, y| x.wrapping_add(y).wrapping_add(7));
        assert_ne!(a.ident(), b.ident(), "each registration mints a fresh id");
        assert_ne!(a.id(), 0, "id 0 never names a registered operator");
        // Clones share identity (and therefore cached plans).
        assert_eq!(a.ident(), a.clone().ident());
        assert_eq!(a.elem_size(), 4);
        assert_eq!(
            a.ident(),
            ReduceIdent::User {
                id: a.id(),
                elem_size: 4
            }
        );
        // A user identity never equals a builtin of the same width.
        assert_ne!(
            a.ident(),
            ReduceKernel::of::<f32>(ReduceOp::Sum).ident(),
            "user ids and builtin (type, op) pairs live in disjoint key spaces"
        );
    }

    #[test]
    fn user_op_erased_forms_apply_the_closure() {
        let op = Op::of_typed::<u32>(|x, y| x.wrapping_add(y).wrapping_add(10));
        let mut acc = to_bytes(&[1u32, 2]);
        op.apply(&mut acc, &to_bytes(&[5u32, 6]));
        assert_eq!(from_bytes::<u32>(&acc), vec![16, 18]);
        (op.as_fn())(&mut acc, &to_bytes(&[0u32, 0]));
        (op.clone().as_fn())(&mut acc, &to_bytes(&[1u32, 1]));
        assert_eq!(from_bytes::<u32>(&acc), vec![37, 39]);
    }

    #[test]
    fn layout_geometry_is_mpi_type_vector() {
        let l = Layout::vector(3, 2, 5);
        assert_eq!(l.packed_len(), 6);
        assert_eq!(l.extent(), 12); // 2*5 + 2
        assert!(!l.is_contiguous());
        assert_eq!(l.scaled(8), Layout::vector(3, 16, 40));

        assert!(Layout::contiguous(7).is_contiguous());
        assert_eq!(Layout::contiguous(7).extent(), 7);
        assert_eq!(Layout::contiguous(7).packed_len(), 7);
        // stride == blocklen is the degenerate-contiguous edge.
        assert!(Layout::vector(4, 3, 3).is_contiguous());
        assert_eq!(Layout::vector(4, 3, 3).extent(), 12);
        // count <= 1 is contiguous regardless of stride.
        assert!(Layout::vector(1, 3, 9).is_contiguous());
        assert_eq!(Layout::vector(1, 3, 9).extent(), 3);
        assert_eq!(Layout::vector(0, 3, 9).extent(), 0);
    }

    #[test]
    #[should_panic(expected = "blocks may not overlap")]
    fn layout_rejects_overlapping_blocks() {
        let _ = Layout::vector(2, 4, 3);
    }

    #[test]
    fn layout_pack_unpack_round_trips_and_preserves_gaps() {
        let l = Layout::vector(3, 2, 4); // bytes: blocks at 0..2, 4..6, 8..10
        let src: Vec<u8> = (0..10).collect();
        let mut packed = Vec::new();
        l.pack_bytes(&src, &mut packed);
        assert_eq!(packed, vec![0, 1, 4, 5, 8, 9]);

        let mut dst = vec![0xEEu8; 10];
        l.unpack_bytes(&packed, &mut dst);
        assert_eq!(dst, vec![0, 1, 0xEE, 0xEE, 4, 5, 0xEE, 0xEE, 8, 9]);
    }

    // --- release-profile pins -------------------------------------------
    //
    // The validation used to be `debug_assert_eq!`, so release builds
    // panicked mid-loop on short buffers and silently *dropped* a trailing
    // partial element. These run in every profile (CI additionally runs the
    // ignored twin under `cargo test --release -- --ignored` to pin the
    // release behavior specifically).

    fn assert_rejects_in_this_profile() {
        let mismatch = std::panic::catch_unwind(|| {
            let mut acc = vec![0u8; 8];
            ReduceOp::Sum.apply_bytes::<i32>(&mut acc, &[0u8; 4]);
        });
        let message = *mismatch
            .expect_err("length mismatch must panic in every profile")
            .downcast::<String>()
            .expect("panic message");
        assert!(
            message.contains("equal lengths"),
            "unexpected message: {message}"
        );

        let partial = std::panic::catch_unwind(|| {
            let mut acc = vec![0u8; 6];
            ReduceOp::Sum.apply_bytes::<i32>(&mut acc, &[0u8; 6]);
        });
        let message = *partial
            .expect_err("trailing partial element must panic, not be dropped")
            .downcast::<String>()
            .expect("panic message");
        assert!(
            message.contains("whole number"),
            "unexpected message: {message}"
        );
    }

    #[test]
    fn apply_bytes_validates_buffers_unconditionally() {
        assert_rejects_in_this_profile();
    }

    #[test]
    #[ignore = "release-profile pin: CI runs this under cargo test --release -- --ignored"]
    fn apply_bytes_validation_survives_release_profile() {
        assert_rejects_in_this_profile();
    }

    /// `read_into` used to check its lengths with `debug_assert_eq!`, so in
    /// release a short buffer silently left the tail of `out` stale.
    #[test]
    #[ignore = "release-profile pin: CI runs this under cargo test --release -- --ignored"]
    #[should_panic(expected = "read_into needs exactly 3 elements")]
    fn read_into_validation_survives_release_profile() {
        read_into(&mut [0i32; 3], &[0u8; 8]);
    }
}
