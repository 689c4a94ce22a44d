//! The buffers an algorithm's payload bytes live in.
//!
//! An algorithm touches payload bytes only through [`Buf`] — slice, copy,
//! zero-fill — and the [`crate::comm::Comm`] calls, so the same code
//! runs on two representations:
//!
//! * `[u8]`, with `Vec<u8>` as its owned form, when the algorithm executes
//!   on the thread runtime ([`crate::comm::ThreadComm`]): every operation is
//!   the slice operation the algorithm would write by hand, borrowing where
//!   a slice borrows;
//! * [`SymBuf`] when it is recorded into a plan
//!   ([`crate::plan::PlanComm`]): a run-length list of where each byte came
//!   from, so the recorder reads a payload's source off the buffer instead
//!   of inferring it from byte values.

use std::borrow::{Borrow, Cow};
use std::ops::{Deref, DerefMut, Range};

use crate::plan::ir::{Src, SrcSeg, ValId};

/// A byte buffer as the algorithms see it.
pub trait Buf: ToOwned<Owned = <Self as Buf>::Vec> {
    /// An owned buffer: what a receive returns and an algorithm allocates.
    type Vec: DerefMut<Target = Self>;

    /// Length in bytes.
    fn len(&self) -> usize;

    /// Whether the buffer holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A buffer of `len` zero bytes.
    fn zeroed(len: usize) -> Self::Vec;

    /// Bytes `range`, borrowed where the representation allows.
    fn slice(&self, range: Range<usize>) -> Cow<'_, Self>;

    /// Overwrite bytes `at..at + src.len()` with `src`.
    fn copy_from(&mut self, at: usize, src: &Self);

    /// Run `f` on bytes `range` as a buffer of their own: what `f` writes
    /// there lands in `range`.
    fn with_mut<R>(&mut self, range: Range<usize>, f: impl FnOnce(&mut Self) -> R) -> R;
}

impl Buf for [u8] {
    type Vec = Vec<u8>;

    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn zeroed(len: usize) -> Vec<u8> {
        vec![0; len]
    }

    fn slice(&self, range: Range<usize>) -> Cow<'_, [u8]> {
        Cow::Borrowed(&self[range])
    }

    fn copy_from(&mut self, at: usize, src: &[u8]) {
        self[at..at + src.len()].copy_from_slice(src);
    }

    fn with_mut<R>(&mut self, range: Range<usize>, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self[range])
    }
}

/// Where a run of a [`SymBuf`]'s bytes came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Origin {
    /// The caller's send buffer.
    SendBuf,
    /// The caller's receive buffer as it was on entry.
    RecvInit,
    /// A runtime value.
    Val(ValId),
    /// Zero bytes the algorithm made itself.
    Zero,
    /// Bytes whose source a schedule-fidelity recording does not track; it
    /// absorbs the zeroes next to it, whose source it does not track either.
    Opaque,
}

impl Origin {
    /// Whether a run's offset locates its bytes in a buffer.
    fn located(self) -> bool {
        matches!(self, Origin::SendBuf | Origin::RecvInit | Origin::Val(_))
    }
}

/// A run: `len` bytes of `origin` from `offset` on (0 unless `origin` is
/// located).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Seg {
    pub(crate) origin: Origin,
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl Seg {
    /// The first `len` bytes of `origin`.
    pub(crate) fn new(origin: Origin, len: usize) -> Seg {
        Seg {
            origin,
            offset: 0,
            len,
        }
    }

    /// Bytes `start..start + len` of this run.
    #[inline]
    fn sub(self, start: usize, len: usize) -> Seg {
        let offset = if self.origin.located() {
            self.offset + start
        } else {
            0
        };
        Seg {
            offset,
            len,
            ..self
        }
    }

    /// `self` followed by `next` as one run, when `next` continues it: the
    /// next bytes of the same buffer, more zeroes, or opaque bytes next to
    /// opaque bytes or zeroes.
    fn joined(self, next: Seg) -> Option<Seg> {
        let origin = match (self.origin, next.origin) {
            (a, b) if a == b && (!a.located() || self.offset + self.len == next.offset) => a,
            (Origin::Opaque, Origin::Zero) | (Origin::Zero, Origin::Opaque) => Origin::Opaque,
            _ => return None,
        };
        let len = self.len + next.len;
        Some(Seg {
            origin,
            len,
            ..self
        })
    }

    /// The plan's form of this run.
    fn src_seg(self) -> SrcSeg {
        let Seg { offset, len, .. } = self;
        match self.origin {
            Origin::SendBuf => SrcSeg::SendBuf { offset, len },
            Origin::RecvInit => SrcSeg::RecvInit { offset, len },
            Origin::Val(id) => SrcSeg::Val { id, offset, len },
            Origin::Zero => SrcSeg::Lit(vec![0; len]),
            Origin::Opaque => SrcSeg::Opaque { len },
        }
    }
}

/// A recorded buffer: where each of its bytes came from, as maximal runs
/// (`Seg`s).  Runs are never empty and no run continues its predecessor,
/// so a buffer's runs are exactly the segments of the [`Src`] that reads it.
/// The first run is held inline, so a buffer of one run — every buffer of a
/// schedule-fidelity recording — allocates nothing.
#[derive(Debug, Default, PartialEq)]
pub struct SymBuf {
    len: usize,
    first: Option<Seg>,
    rest: Vec<Seg>,
}

/// An owned [`SymBuf`], as `Vec<u8>` is an owned `[u8]`.
#[derive(Debug, Default, PartialEq)]
pub struct SymVec(SymBuf);

impl Deref for SymVec {
    type Target = SymBuf;

    fn deref(&self) -> &SymBuf {
        &self.0
    }
}

impl DerefMut for SymVec {
    fn deref_mut(&mut self) -> &mut SymBuf {
        &mut self.0
    }
}

impl Borrow<SymBuf> for SymVec {
    fn borrow(&self) -> &SymBuf {
        &self.0
    }
}

impl SymBuf {
    /// A buffer of the one run `seg`.
    pub(crate) fn of(seg: Seg) -> SymVec {
        let mut buf = SymBuf::default();
        buf.push(seg);
        SymVec(buf)
    }

    /// Make the buffer the one run `seg`, of its own length.
    pub(crate) fn set(&mut self, seg: Seg) {
        assert_eq!(seg.len, self.len, "a buffer keeps its length");
        *self = SymBuf::default();
        self.push(seg);
    }

    /// The source that reads these bytes.
    pub(crate) fn src(&self) -> Src {
        Src {
            segs: self.segs().map(Seg::src_seg).collect(),
        }
    }

    /// Its runs, each with the offset it starts at.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, SrcSeg)> + '_ {
        self.segs().scan(0, |at, seg| {
            let start = *at;
            *at += seg.len;
            Some((start, seg.src_seg()))
        })
    }

    fn segs(&self) -> impl Iterator<Item = Seg> + '_ {
        self.first.iter().chain(&self.rest).copied()
    }

    /// Append `seg`, joined to the last run when it continues it.
    fn push(&mut self, seg: Seg) {
        if seg.len == 0 {
            return;
        }
        self.len += seg.len;
        let last = match (self.rest.last_mut(), &mut self.first) {
            (Some(last), _) | (None, Some(last)) => last,
            (None, first @ None) => {
                *first = Some(seg);
                return;
            }
        };
        match last.joined(seg) {
            Some(joined) => *last = joined,
            None => self.rest.push(seg),
        }
    }

    /// Append bytes `range` of `src`.
    fn push_range(&mut self, src: &SymBuf, range: Range<usize>) {
        let mut at = 0;
        for seg in src.segs() {
            let (start, end) = (at, at + seg.len);
            at = end;
            if end <= range.start {
                continue;
            }
            if start >= range.end {
                break;
            }
            let lo = range.start.max(start);
            let hi = range.end.min(end);
            self.push(seg.sub(lo - start, hi - lo));
        }
    }
}

impl ToOwned for SymBuf {
    type Owned = SymVec;

    fn to_owned(&self) -> SymVec {
        SymVec(SymBuf {
            len: self.len,
            first: self.first,
            rest: self.rest.clone(),
        })
    }
}

impl Buf for SymBuf {
    type Vec = SymVec;

    fn len(&self) -> usize {
        self.len
    }

    fn zeroed(len: usize) -> SymVec {
        SymBuf::of(Seg::new(Origin::Zero, len))
    }

    #[inline]
    fn slice(&self, range: Range<usize>) -> Cow<'_, SymBuf> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice out of bounds"
        );
        if range == (0..self.len) {
            return Cow::Borrowed(self);
        }
        let mut part = SymBuf::default();
        match (self.first, self.rest.is_empty()) {
            (Some(run), true) => part.push(run.sub(range.start, range.len())),
            _ => part.push_range(self, range),
        }
        Cow::Owned(SymVec(part))
    }

    fn copy_from(&mut self, at: usize, src: &SymBuf) {
        let end = at + src.len;
        assert!(end <= self.len, "copy out of bounds");
        if src.len == 0 {
            return;
        }
        // An opaque buffer absorbs whatever is copied into it: under schedule
        // fidelity, every copy.
        if self.rest.is_empty() && self.first.is_some_and(|run| run.origin == Origin::Opaque) {
            return;
        }
        let mut out = SymBuf::default();
        out.push_range(self, 0..at);
        src.segs().for_each(|seg| out.push(seg));
        out.push_range(self, end..self.len);
        *self = out;
    }

    fn with_mut<R>(&mut self, range: Range<usize>, f: impl FnOnce(&mut SymBuf) -> R) -> R {
        let mut part = self.slice(range.clone()).into_owned();
        let result = f(&mut part);
        assert_eq!(part.len, range.len(), "a buffer keeps its length");
        self.copy_from(range.start, &part);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(offset: usize, len: usize) -> Seg {
        Seg {
            origin: Origin::SendBuf,
            offset,
            len,
        }
    }

    fn zero(len: usize) -> Seg {
        Seg::new(Origin::Zero, len)
    }

    #[test]
    fn slices_and_copies_keep_runs_maximal() {
        let sendbuf = SymBuf::of(send(0, 16));
        let mut buf = SymBuf::zeroed(12);
        // Two adjacent pieces of one range, copied in turn, are one run.
        buf.copy_from(2, &sendbuf.slice(4..8));
        buf.copy_from(6, &sendbuf.slice(8..10));
        assert_eq!(
            buf.segs().collect::<Vec<_>>(),
            [zero(2), send(4, 6), zero(4)]
        );
        // Overwriting the gap between two zero runs joins them.
        buf.copy_from(2, &SymBuf::zeroed(6));
        assert_eq!(*buf, *SymBuf::of(zero(12)));
        // A slice of the whole buffer borrows it.
        assert!(matches!(buf.slice(0..12), Cow::Borrowed(_)));
    }

    /// Opaque bytes absorb what is copied into them and the zeroes beside
    /// them, so a schedule-fidelity buffer is always one run.
    #[test]
    fn opaque_runs_absorb_copies_and_zeroes() {
        let opaque = |len| SymBuf::of(Seg::new(Origin::Opaque, len));
        let mut buf = SymBuf::zeroed(8);
        buf.copy_from(2, &opaque(3));
        assert_eq!(buf, opaque(8));
        buf.copy_from(0, &SymBuf::of(send(0, 4)));
        assert_eq!(buf, opaque(8));
    }

    #[test]
    fn a_range_edited_in_place_lands_where_it_was_taken() {
        let mut buf = SymBuf::of(send(0, 8));
        buf.with_mut(2..5, |part| {
            assert_eq!(*part, *SymBuf::of(send(2, 3)));
            part.set(Seg::new(Origin::Val(3), 3));
        });
        let val = Seg::new(Origin::Val(3), 3);
        assert_eq!(
            buf.segs().collect::<Vec<_>>(),
            [send(0, 2), val, send(5, 3)]
        );
        assert_eq!(
            buf.runs()
                .map(|(at, seg)| (at, seg.len()))
                .collect::<Vec<_>>(),
            [(0, 2), (2, 3), (5, 3)]
        );
    }

    #[test]
    fn byte_slices_are_edited_in_place() {
        let mut bytes = vec![1u8, 2, 3, 4];
        bytes.with_mut(1..3, |part| part.copy_from(0, &[7, 8]));
        assert_eq!(bytes, [1, 7, 8, 4]);
        assert!(matches!(bytes.slice(1..2), Cow::Borrowed(&[7])));
    }
}
