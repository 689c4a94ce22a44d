//! Exposed memory regions: the PiP "peer memory is directly addressable"
//! property.
//!
//! Under PiP every task of a node lives in one virtual address space, so a
//! task can hand a plain pointer to a peer and the peer dereferences it.
//! The safe-Rust equivalent used here is an [`ExposedRegion`]: a named,
//! fixed-size byte buffer owned by one local rank and registered in the
//! node's [`crate::NodeSpace`].  Peers obtain a handle with
//! [`crate::TaskCtx::attach`] and then read or write the bytes directly —
//! exactly one copy, no kernel involvement, which is the behaviour the
//! PiP-MColl cost model assigns to the `Pip` transport.
//!
//! Synchronization between the writer and its readers is the algorithm's
//! responsibility (as it is in the real system); the collectives in this
//! workspace use node barriers between the produce and consume phases.  The
//! region itself is protected by a reader-writer lock so that data races are
//! impossible even if an algorithm gets its synchronization wrong — a buggy
//! schedule produces wrong bytes, never undefined behaviour.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{Result, RuntimeError};

/// Identifies a region inside one node: the owning local rank plus a name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegionKey {
    /// Local rank of the task that exposed the region.
    pub owner_local_rank: usize,
    /// Region name, unique per owner.
    pub name: String,
}

impl RegionKey {
    /// Build a key from its parts.
    pub fn new(owner_local_rank: usize, name: impl Into<String>) -> Self {
        Self {
            owner_local_rank,
            name: name.into(),
        }
    }
}

#[derive(Debug)]
struct RegionInner {
    name: String,
    /// Fixed at allocation, so bounds checks never touch the lock.
    len: usize,
    data: RwLock<Box<[u8]>>,
}

/// A byte buffer exposed by one task and directly accessible to every task on
/// the same node.
///
/// Handles are cheaply cloneable (`Arc` internally); all clones refer to the
/// same storage.
#[derive(Debug, Clone)]
pub struct ExposedRegion {
    inner: Arc<RegionInner>,
}

impl ExposedRegion {
    /// Allocate a zero-initialized region of `len` bytes.
    pub(crate) fn allocate(name: impl Into<String>, len: usize) -> Self {
        Self {
            inner: Arc::new(RegionInner {
                name: name.into(),
                len,
                data: RwLock::new(vec![0u8; len].into_boxed_slice()),
            }),
        }
    }

    /// Whether no other handle to this region's storage exists.
    pub(crate) fn is_sole_handle(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }

    /// The region's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The region's capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the region has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes, read-locked.  Like every lock in this crate the region
    /// never poisons: a panic inside [`ExposedRegion::with_slice_mut`] leaves
    /// the bytes usable by every other handle.
    fn bytes(&self) -> RwLockReadGuard<'_, Box<[u8]>> {
        self.inner
            .data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The bytes, write-locked (see [`ExposedRegion::bytes`]).
    fn bytes_mut(&self) -> RwLockWriteGuard<'_, Box<[u8]>> {
        self.inner
            .data
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        let capacity = self.len();
        if offset.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(RuntimeError::RegionOutOfBounds {
                name: self.inner.name.clone(),
                offset,
                len,
                capacity,
            });
        }
        Ok(())
    }

    /// Write `src` into the region starting at `offset`.
    pub fn try_write(&self, offset: usize, src: &[u8]) -> Result<()> {
        self.check_bounds(offset, src.len())?;
        let mut guard = self.bytes_mut();
        guard[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Write `src` into the region starting at `offset`, panicking on
    /// out-of-bounds access (convenience for algorithm code whose offsets are
    /// computed from validated sizes).
    pub fn write(&self, offset: usize, src: &[u8]) {
        self.try_write(offset, src)
            .expect("exposed-region write out of bounds");
    }

    /// Read `dst.len()` bytes starting at `offset` into `dst`.
    pub fn try_read(&self, offset: usize, dst: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, dst.len())?;
        let guard = self.bytes();
        dst.copy_from_slice(&guard[offset..offset + dst.len()]);
        Ok(())
    }

    /// Read `dst.len()` bytes starting at `offset`, panicking on
    /// out-of-bounds access.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        self.try_read(offset, dst)
            .expect("exposed-region read out of bounds");
    }

    /// Copy out a sub-range as a fresh `Vec`.
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.check_bounds(offset, len)?;
        let guard = self.bytes();
        Ok(guard[offset..offset + len].to_vec())
    }

    /// Copy a sub-range into `out` (cleared first), reusing its allocation —
    /// the single copy, with no zero-fill and no allocation when `out` has
    /// capacity (the plan executor's arena-backed shared reads).
    pub fn try_read_into_vec(&self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<()> {
        self.check_bounds(offset, len)?;
        let guard = self.bytes();
        out.clear();
        out.extend_from_slice(&guard[offset..offset + len]);
        Ok(())
    }

    /// As [`ExposedRegion::try_read_into_vec`], panicking on out-of-bounds
    /// access.
    pub fn read_into_vec(&self, offset: usize, len: usize, out: &mut Vec<u8>) {
        self.try_read_into_vec(offset, len, out)
            .expect("exposed-region read out of bounds");
    }

    /// Snapshot the full contents.
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }

    /// Run `f` with a mutable view of the full region, avoiding a copy.
    pub fn with_slice_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut guard = self.bytes_mut();
        f(&mut guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_then_read_round_trips() {
        let region = ExposedRegion::allocate("buf", 16);
        region.write(4, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        region.read(4, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        // Unwritten bytes stay zero.
        assert_eq!(region.read_vec(0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let region = ExposedRegion::allocate("buf", 8);
        let err = region.try_write(6, &[0; 4]).unwrap_err();
        match err {
            RuntimeError::RegionOutOfBounds { capacity, .. } => assert_eq!(capacity, 8),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(region.try_read(8, &mut [0; 1]).is_err());
        // Boundary case: zero-length access at the end is fine.
        assert!(region.try_read(8, &mut []).is_ok());
    }

    #[test]
    fn clones_share_storage() {
        let a = ExposedRegion::allocate("a", 4);
        let b = a.clone();
        a.write(0, &[42; 4]);
        assert_eq!(b.to_vec(), vec![42; 4]);
    }

    #[test]
    fn with_slice_mut_allows_in_place_reduction() {
        let a = ExposedRegion::allocate("a", 4);
        a.write(0, &[1, 2, 3, 4]);
        a.with_slice_mut(|s| s.iter_mut().for_each(|b| *b *= 2));
        assert_eq!(a.to_vec(), vec![2, 4, 6, 8]);
    }

    #[test]
    fn a_panic_inside_with_slice_mut_does_not_poison_the_region() {
        let a = ExposedRegion::allocate("a", 4);
        let panicked = std::panic::catch_unwind(|| {
            a.with_slice_mut(|s| {
                s[0] = 1;
                panic!("rank dies mid-write");
            })
        });
        assert!(panicked.is_err());
        a.write(0, &[5, 6, 7, 8]);
        let mut out = [0u8; 4];
        a.read(0, &mut out);
        assert_eq!(out, [5, 6, 7, 8]);
    }

    proptest! {
        #[test]
        fn prop_round_trip(len in 1usize..256, offset in 0usize..256, payload in proptest::collection::vec(any::<u8>(), 0..128)) {
            let region = ExposedRegion::allocate("buf", len);
            let fits = offset + payload.len() <= len;
            let res = region.try_write(offset, &payload);
            prop_assert_eq!(res.is_ok(), fits);
            if fits {
                let back = region.read_vec(offset, payload.len()).unwrap();
                prop_assert_eq!(back, payload);
            }
        }
    }
}
