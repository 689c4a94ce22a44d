//! Compiling a collective algorithm to a [`RankPlan`] by *recording* it.
//!
//! [`PlanComm`] is the recording [`Comm`] implementation, beside the
//! executing `ThreadComm`: it runs the unmodified algorithm once per rank
//! without moving real data and captures a full symbolic program, which
//! executes later or lowers to a simulator trace ([`record_trace`] records
//! and lowers an ad-hoc schedule in one call).  The hard part is *data
//! provenance*: algorithms privately copy, slice and concatenate the byte
//! buffers the `Comm` surface hands them, so the recorder cannot see where an
//! outgoing payload came from.  The compiler recovers provenance with **fingerprint taint**:
//!
//! * every symbolic location `(value, offset)` has a 64-bit *fingerprint
//!   key*, `mix64((value << 32 | offset) + C)`, where `mix64` is the
//!   splitmix64 finaliser — a **bijection** on `u64` with a closed-form
//!   inverse (`unmix64`);
//! * an exec-fidelity compile runs the algorithm **eight times**
//!   ([`EXEC_PASSES`]), and in pass *p* every byte the recorder hands to the
//!   algorithm (receives, shared reads, the caller's buffers) is byte *p* of
//!   its location's key.  Running the algorithm repeatedly is sound because
//!   algorithms never branch on payload contents — the op skeleton is
//!   asserted identical across passes — and eight passes are exactly what
//!   it takes to show all 64 key bits through a one-byte window;
//! * reductions are intercepted by a compiler-provided operator
//!   ([`PlanComm::reducer`]) that records a [`PlanOp::Reduce`] and rewrites
//!   the accumulator with the fingerprints of a fresh value, so reduced data
//!   stays trackable;
//! * every byte the algorithm passes back (sends, shared writes, the final
//!   output buffer) is resolved by stacking the eight bytes its position
//!   showed into a key and *un-mixing* it: the result either names a
//!   `(value, offset)` inside a defined value or the byte cannot be
//!   attributed.  No table of fingerprints exists, and because the key
//!   function is injective two locations can never be confused.
//!
//! **Literal rule.**  A byte that is identical in all eight passes is a
//! constant the algorithm wrote itself and becomes [`SrcSeg::Lit`].  Such a
//! position stacks to one of the 256 keys `b * 0x0101…01`; the additive
//! constant `C` is chosen so that none of them decodes to a value id below
//! `MAX_VALS` = 2²⁰ (checked by enumeration in the tests — without `C`, key 0
//! would be the send buffer's first byte), and the recorder refuses to define
//! more values than that, so no fingerprinted position can pass for a
//! literal.
//!
//! **Cost.**  An exec-fidelity compile costs the eight recording passes plus
//! one linear scan over the captured payload bytes: a resolved position
//! starts a run that is extended while the following keys equal the keys of
//! the following offsets, so the work per byte is one `mix64`, independent
//! of how many values the plan defines.
//!
//! Schedule-fidelity compiles skip all of this: one pass, zero-filled
//! buffers, [`SrcSeg::Opaque`] payloads — the cost of running the algorithm
//! once, producing a cacheable [`RankPlan`].

use std::fmt;
use std::sync::Mutex;

use pip_netsim::trace::Trace;
use pip_runtime::Topology;

use crate::comm::Comm;
use crate::plan::ir::{Fidelity, IoShape, NameId, Plan, PlanOp, RankPlan, Src, SrcSeg, ValId};

/// Number of recording passes for an exec-fidelity compile: pass *p* shows
/// byte *p* of every 64-bit fingerprint key.
pub const EXEC_PASSES: usize = 8;

/// Pseudo-value standing for the caller's send buffer in the internal value
/// numbering (mapped to [`SrcSeg::SendBuf`] on emission).
const VAL_SENDBUF: ValId = 0;
/// Pseudo-value standing for the receive buffer's initial contents.
const VAL_RECVINIT: ValId = 1;
/// First id for values that materialize during execution.
const FIRST_RUNTIME_VAL: ValId = 2;
/// Bound on the internal value ids of one exec-fidelity plan; what the
/// literal rule's enumeration proof quantifies over.
const MAX_VALS: ValId = 1 << 20;

/// Added to a packed `(value, offset)` before mixing so that no in-domain
/// location's key has eight equal bytes (the bare finaliser maps 0 to 0).
const KEY_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finaliser: xor-shifts and odd multiplications, hence a
/// bijection on `u64`.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Inverse of [`mix64`]: each step undone in reverse order (the multipliers
/// are the modular inverses of the finaliser's).
#[inline]
fn unmix64(mut x: u64) -> u64 {
    x = x ^ (x >> 31) ^ (x >> 62);
    x = x.wrapping_mul(0x3196_42b2_d24d_8ec3);
    x = x ^ (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96de_1b17_3f11_9089);
    x ^ (x >> 30) ^ (x >> 60)
}

/// The fingerprint key of `(val, offset)`.  Offsets own the low 32 bits —
/// every fingerprinted length is checked by [`PlanComm::assert_addressable`]
/// — so distinct locations have distinct keys, at any offset.
#[inline]
fn key_of(val: ValId, offset: usize) -> u64 {
    debug_assert!(offset <= u32::MAX as usize);
    mix64((((val as u64) << 32) | offset as u64).wrapping_add(KEY_OFFSET))
}

/// The `(val, offset)` whose key is `key`.
#[inline]
fn location_of(key: u64) -> (ValId, usize) {
    let packed = unmix64(key).wrapping_sub(KEY_OFFSET);
    ((packed >> 32) as ValId, (packed & 0xffff_ffff) as usize)
}

/// The fingerprint bytes of value `val` in `pass`, offsets `0..len`.
fn fingerprints(pass: u32, val: ValId, len: usize) -> impl Iterator<Item = u8> {
    (0..len).map(move |offset| key_of(val, offset).to_le_bytes()[pass as usize])
}

/// Index of a captured payload within a pass recording.
type SiteId = u32;

/// The op skeleton recorded during one pass: identical to [`PlanOp`] except
/// that payloads are capture-site indices and names are still strings.
#[derive(Debug, Clone, PartialEq)]
enum RecOp {
    SharedAlloc {
        name: String,
        len: usize,
    },
    SharedPublish {
        name: String,
        site: SiteId,
    },
    SharedCollect {
        name: String,
        len: usize,
        dst: ValId,
    },
    SharedWrite {
        owner_local: usize,
        name: String,
        offset: usize,
        site: SiteId,
    },
    SharedRead {
        owner_local: usize,
        name: String,
        offset: usize,
        len: usize,
        dst: ValId,
    },
    Send {
        dest: usize,
        tag: u64,
        site: SiteId,
    },
    Recv {
        source: usize,
        tag: u64,
        len: usize,
        dst: ValId,
    },
    SendFromShared {
        owner_local: usize,
        name: String,
        offset: usize,
        len: usize,
        dest: usize,
        tag: u64,
    },
    RecvIntoShared {
        owner_local: usize,
        name: String,
        offset: usize,
        source: usize,
        tag: u64,
        len: usize,
    },
    NodeBarrier,
    Reduce {
        dst: ValId,
        acc: SiteId,
        other: SiteId,
    },
    ChargeCopy {
        bytes: usize,
    },
    ChargeReduce {
        bytes: usize,
    },
    Delay {
        nanos: f64,
    },
}

/// Everything one pass recorded: filled through [`PlanComm`], extracted with
/// [`PlanComm::finish`].
#[derive(Debug, Default)]
pub struct PassRecording {
    ops: Vec<RecOp>,
    /// Length of each runtime value (ids offset by [`FIRST_RUNTIME_VAL`]).
    val_lens: Vec<usize>,
    /// Captured payload bytes, one entry per resolution site (empty vectors
    /// under schedule fidelity, where only the length matters).
    sites: Vec<Vec<u8>>,
    /// Length of each resolution site.
    site_lens: Vec<usize>,
    /// Final contents of the caller-visible output buffer, if any.
    out: Option<Vec<u8>>,
}

/// The recording [`Comm`] implementation.  One instance records one pass for
/// one rank; [`assemble`] fuses the passes into a [`RankPlan`].
pub struct PlanComm {
    rank: usize,
    topology: Topology,
    pass: u32,
    fidelity: Fidelity,
    state: Mutex<PassRecording>,
}

impl PlanComm {
    /// Create a recorder for `rank` in `topology`, for recording pass
    /// `pass` (always 0 for schedule fidelity).
    pub fn new(rank: usize, topology: Topology, pass: u32, fidelity: Fidelity) -> Self {
        assert!(
            fidelity == Fidelity::Exec || pass == 0,
            "schedule fidelity records a single pass"
        );
        assert!(
            (pass as usize) < EXEC_PASSES,
            "a fingerprint key has a byte for {EXEC_PASSES} passes only"
        );
        Self {
            rank,
            topology,
            pass,
            fidelity,
            state: Mutex::new(PassRecording::default()),
        }
    }

    /// The pass this recorder fills.
    pub fn pass(&self) -> u32 {
        self.pass
    }

    /// Fill `buf` with the fingerprints of the caller's send buffer for this
    /// pass (zeroes under schedule fidelity).  The compile driver uses this
    /// to prepare the synthetic input buffers before running the algorithm.
    pub fn fill_sendbuf(&self, buf: &mut [u8]) {
        self.fill(VAL_SENDBUF, &"the send buffer", buf);
    }

    /// As [`PlanComm::fill_sendbuf`] for the receive buffer's initial
    /// contents.
    pub fn fill_recvbuf(&self, buf: &mut [u8]) {
        self.fill(VAL_RECVINIT, &"the receive buffer", buf);
    }

    /// Overwrite `buf` with the fingerprints of `val` for this pass (zeroes
    /// under schedule fidelity).
    fn fill(&self, val: ValId, what: &dyn fmt::Display, buf: &mut [u8]) {
        match self.fidelity {
            Fidelity::Exec => {
                let len = buf.len();
                self.assert_addressable(what, len);
                for (byte, fingerprint) in buf.iter_mut().zip(fingerprints(self.pass, val, len)) {
                    *byte = fingerprint;
                }
            }
            Fidelity::Schedule => buf.fill(0),
        }
    }

    /// A fingerprint key has 32 offset bits; a longer buffer would alias its
    /// own bytes 4 GiB apart, so refuse to fingerprint it.
    fn assert_addressable(&self, what: &dyn fmt::Display, len: usize) {
        assert!(
            len <= u32::MAX as usize,
            "rank {}: {what} is {len} bytes long, but an exec-fidelity plan can only \
             fingerprint {} bytes per buffer",
            self.rank,
            u32::MAX
        );
    }

    /// A reduction operator that records [`PlanOp::Reduce`] and re-taints
    /// the accumulator.  The compile driver passes this to allreduce-style
    /// requests instead of the caller's real operator — typed or opaque —
    /// which is supplied again at execution time (e.g. as a
    /// [`crate::datatype::ReduceKernel`]).  The recorded plan is therefore
    /// operator-agnostic; the plan cache keys it by the reduction's
    /// `(datatype, op)` identity because the *schedule* (element-aligned
    /// chunk boundaries) depends on the element size.
    pub fn reducer(&self) -> impl Fn(&mut [u8], &[u8]) + Sync + '_ {
        move |acc: &mut [u8], other: &[u8]| {
            let mut state = self.state.lock().unwrap();
            let acc_site = Self::capture(&mut state, acc, self.fidelity);
            let other_site = Self::capture(&mut state, other, self.fidelity);
            let dst = self.new_val(&mut state, acc.len());
            state.ops.push(RecOp::Reduce {
                dst,
                acc: acc_site,
                other: other_site,
            });
            drop(state);
            if self.fidelity == Fidelity::Exec {
                self.fill(dst, &format_args!("value {}", dst - FIRST_RUNTIME_VAL), acc);
            }
        }
    }

    /// Extract the pass recording.  `out` is the final contents of the
    /// caller-visible output buffer (`None` when the rank has none, e.g. a
    /// non-root gather rank or a barrier).
    pub fn finish(self, out: Option<Vec<u8>>) -> PassRecording {
        let mut recording = self.state.into_inner().unwrap();
        recording.out = out;
        recording
    }

    fn capture(state: &mut PassRecording, data: &[u8], fidelity: Fidelity) -> SiteId {
        let id = state.sites.len() as SiteId;
        // Under schedule fidelity only the length matters; never copy (or
        // even allocate for) the payload bytes.
        state.site_lens.push(data.len());
        match fidelity {
            Fidelity::Exec => state.sites.push(data.to_vec()),
            Fidelity::Schedule => state.sites.push(Vec::new()),
        }
        id
    }

    fn new_val(&self, state: &mut PassRecording, len: usize) -> ValId {
        let id = FIRST_RUNTIME_VAL + state.val_lens.len() as ValId;
        if self.fidelity == Fidelity::Exec {
            assert!(
                id < MAX_VALS,
                "rank {}: an exec-fidelity plan can define at most {MAX_VALS} values",
                self.rank
            );
            self.assert_addressable(&format_args!("value {}", id - FIRST_RUNTIME_VAL), len);
        }
        state.val_lens.push(len);
        id
    }

    /// Record `op` and hand the new value's fingerprint bytes back to the
    /// algorithm.
    fn define_val(&self, len: usize, make_op: impl FnOnce(ValId) -> RecOp) -> Vec<u8> {
        let mut state = self.state.lock().unwrap();
        let dst = self.new_val(&mut state, len);
        let op = make_op(dst);
        state.ops.push(op);
        drop(state);
        match self.fidelity {
            Fidelity::Exec => fingerprints(self.pass, dst, len).collect(),
            Fidelity::Schedule => vec![0u8; len],
        }
    }

    fn push(&self, op: RecOp) {
        self.state.lock().unwrap().ops.push(op);
    }

    fn push_with_site(&self, data: &[u8], make_op: impl FnOnce(SiteId) -> RecOp) {
        let mut state = self.state.lock().unwrap();
        let site = Self::capture(&mut state, data, self.fidelity);
        let op = make_op(site);
        state.ops.push(op);
    }
}

impl Comm for PlanComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        self.push_with_site(data, |site| RecOp::Send { dest, tag, site });
    }

    fn recv(&self, source: usize, tag: u64, len: usize) -> Vec<u8> {
        self.define_val(len, |dst| RecOp::Recv {
            source,
            tag,
            len,
            dst,
        })
    }

    fn shared_alloc(&self, name: &str, len: usize) {
        self.push(RecOp::SharedAlloc {
            name: name.to_string(),
            len,
        });
    }

    fn shared_publish(&self, name: &str, data: &[u8]) {
        self.push_with_site(data, |site| RecOp::SharedPublish {
            name: name.to_string(),
            site,
        });
    }

    fn shared_collect(&self, name: &str, len: usize) -> Vec<u8> {
        self.define_val(len, |dst| RecOp::SharedCollect {
            name: name.to_string(),
            len,
            dst,
        })
    }

    fn shared_write(&self, owner_local: usize, name: &str, offset: usize, data: &[u8]) {
        self.push_with_site(data, |site| RecOp::SharedWrite {
            owner_local,
            name: name.to_string(),
            offset,
            site,
        });
    }

    fn shared_read(&self, owner_local: usize, name: &str, offset: usize, len: usize) -> Vec<u8> {
        self.define_val(len, |dst| RecOp::SharedRead {
            owner_local,
            name: name.to_string(),
            offset,
            len,
            dst,
        })
    }

    fn send_from_shared(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        len: usize,
        dest: usize,
        tag: u64,
    ) {
        self.push(RecOp::SendFromShared {
            owner_local,
            name: name.to_string(),
            offset,
            len,
            dest,
            tag,
        });
    }

    fn recv_into_shared(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        source: usize,
        tag: u64,
        len: usize,
    ) {
        self.push(RecOp::RecvIntoShared {
            owner_local,
            name: name.to_string(),
            offset,
            source,
            tag,
            len,
        });
    }

    fn node_barrier(&self) {
        self.push(RecOp::NodeBarrier);
    }

    fn charge_copy(&self, bytes: usize) {
        self.push(RecOp::ChargeCopy { bytes });
    }

    fn charge_reduce(&self, bytes: usize) {
        self.push(RecOp::ChargeReduce { bytes });
    }

    fn delay(&self, nanos: f64) {
        self.push(RecOp::Delay { nanos });
    }
}

// ---------------------------------------------------------------------------
// Multi-pass assembly: fingerprint inversion.
// ---------------------------------------------------------------------------

/// The key position `i` of a payload showed: byte `p` is what pass `p`
/// captured there.
#[inline]
fn key_at(passes: &[&[u8]; EXEC_PASSES], i: usize) -> u64 {
    u64::from_le_bytes(passes.map(|bytes| bytes[i]))
}

/// Resolve a payload, given as each pass captured it, into a [`Src`].
/// `lens[val]` is the length of internal value `val` (0 if it does not
/// exist).  Fails with the index of the first position that is neither a
/// literal nor inside a value.
fn resolve_site(passes: &[&[u8]; EXEC_PASSES], lens: &[usize]) -> Result<Src, usize> {
    let end = passes[0].len();
    assert!(
        passes.iter().all(|bytes| bytes.len() == end),
        "payload length diverged between passes"
    );
    // Identical in every pass: a constant the algorithm wrote itself.
    let is_literal = |key: u64| key == (key & 0xff) * 0x0101_0101_0101_0101;
    let mut segs: Vec<SrcSeg> = Vec::new();
    let mut i = 0;
    while i < end {
        let key = key_at(passes, i);
        if is_literal(key) {
            let start = i;
            while i < end && is_literal(key_at(passes, i)) {
                i += 1;
            }
            segs.push(SrcSeg::Lit(passes[0][start..i].to_vec()));
            continue;
        }
        let (val, offset) = location_of(key);
        let room = match lens.get(val as usize) {
            Some(&len) if offset < len => len - offset,
            _ => return Err(i),
        };
        // The run lasts while successive positions show successive offsets.
        let len = 1
            + (1..room.min(end - i))
                .take_while(|&k| key_at(passes, i + k) == key_of(val, offset + k))
                .count();
        // Map the pseudo-values to their caller-buffer segments and shift
        // runtime ids down to a dense 0-based numbering.
        segs.push(match val {
            VAL_SENDBUF => SrcSeg::SendBuf { offset, len },
            VAL_RECVINIT => SrcSeg::RecvInit { offset, len },
            _ => SrcSeg::Val {
                id: val - FIRST_RUNTIME_VAL,
                offset,
                len,
            },
        });
        i += len;
    }
    Ok(Src { segs })
}

/// Fuse the recordings of all passes into a [`RankPlan`].
///
/// Panics if the passes recorded different op skeletons (which would mean an
/// algorithm branched on payload contents, violating the `Comm` contract) or
/// if a payload byte cannot be attributed to any source.
pub fn assemble(
    rank: usize,
    topology: Topology,
    fidelity: Fidelity,
    io: IoShape,
    passes: Vec<PassRecording>,
) -> RankPlan {
    let expected = match fidelity {
        Fidelity::Exec => EXEC_PASSES,
        Fidelity::Schedule => 1,
    };
    assert_eq!(passes.len(), expected, "wrong number of recording passes");
    let first = &passes[0];
    for pass in &passes[1..] {
        assert_eq!(
            pass.ops, first.ops,
            "rank {rank}: op skeleton diverged between recording passes — \
             an algorithm branched on payload contents"
        );
        assert_eq!(pass.val_lens, first.val_lens, "value table diverged");
    }

    // Length of every internal value, indexed by id: the two pseudo-values
    // (an in/out buffer is all "send buffer"), then the runtime values.
    let lens: Option<Vec<usize>> = (fidelity == Fidelity::Exec).then(|| {
        let (sendbuf, recvinit) = if io.inout {
            (io.recvbuf, None)
        } else {
            (io.sendbuf, io.recvbuf)
        };
        let mut lens = vec![sendbuf.unwrap_or(0), recvinit.unwrap_or(0)];
        lens.extend_from_slice(&first.val_lens);
        lens
    });
    // Attribute the payload whose bytes in each pass `bytes_of` selects.
    let attribute = |lens: &[usize],
                     what: &dyn fmt::Display,
                     bytes_of: &dyn Fn(&PassRecording) -> &[u8]|
     -> Src {
        let views: [&[u8]; EXEC_PASSES] = std::array::from_fn(|pass| bytes_of(&passes[pass]));
        resolve_site(&views, lens).unwrap_or_else(|byte| {
            let key = key_at(&views, byte);
            let (val, offset) = location_of(key);
            panic!(
                "rank {rank}: cannot attribute byte {byte} of {what} to any symbolic \
                 source: its key {key:#018x} decodes to internal value {val} offset \
                 {offset}, outside every defined value"
            )
        })
    };
    let resolve = |site: SiteId| -> Src {
        let site = site as usize;
        match &lens {
            Some(lens) => attribute(lens, &format_args!("payload site {site}"), &|pass| {
                &pass.sites[site]
            }),
            None => Src::opaque(first.site_lens[site]),
        }
    };

    let mut names: Vec<String> = Vec::new();
    let intern = |name: &str, names: &mut Vec<String>| -> NameId {
        match names.iter().position(|n| n == name) {
            Some(i) => i as NameId,
            None => {
                names.push(name.to_string());
                (names.len() - 1) as NameId
            }
        }
    };

    let shift = |val: ValId| -> ValId { val - FIRST_RUNTIME_VAL };
    let mut ops: Vec<PlanOp> = Vec::with_capacity(first.ops.len() + 2);
    for op in &first.ops {
        ops.push(match op {
            RecOp::SharedAlloc { name, len } => PlanOp::SharedAlloc {
                name: intern(name, &mut names),
                len: *len,
            },
            RecOp::SharedPublish { name, site } => PlanOp::SharedPublish {
                name: intern(name, &mut names),
                src: resolve(*site),
            },
            RecOp::SharedCollect { name, len, dst } => PlanOp::SharedCollect {
                name: intern(name, &mut names),
                len: *len,
                dst: shift(*dst),
            },
            RecOp::SharedWrite {
                owner_local,
                name,
                offset,
                site,
            } => PlanOp::SharedWrite {
                owner_local: *owner_local,
                name: intern(name, &mut names),
                offset: *offset,
                src: resolve(*site),
            },
            RecOp::SharedRead {
                owner_local,
                name,
                offset,
                len,
                dst,
            } => PlanOp::SharedRead {
                owner_local: *owner_local,
                name: intern(name, &mut names),
                offset: *offset,
                len: *len,
                dst: shift(*dst),
            },
            RecOp::Send { dest, tag, site } => PlanOp::Send {
                dest: *dest,
                tag: *tag,
                src: resolve(*site),
            },
            RecOp::Recv {
                source,
                tag,
                len,
                dst,
            } => PlanOp::Recv {
                source: *source,
                tag: *tag,
                len: *len,
                dst: shift(*dst),
            },
            RecOp::SendFromShared {
                owner_local,
                name,
                offset,
                len,
                dest,
                tag,
            } => PlanOp::SendFromShared {
                owner_local: *owner_local,
                name: intern(name, &mut names),
                offset: *offset,
                len: *len,
                dest: *dest,
                tag: *tag,
            },
            RecOp::RecvIntoShared {
                owner_local,
                name,
                offset,
                source,
                tag,
                len,
            } => PlanOp::RecvIntoShared {
                owner_local: *owner_local,
                name: intern(name, &mut names),
                offset: *offset,
                source: *source,
                tag: *tag,
                len: *len,
            },
            RecOp::NodeBarrier => PlanOp::NodeBarrier,
            RecOp::Reduce { dst, acc, other } => PlanOp::Reduce {
                dst: shift(*dst),
                acc: resolve(*acc),
                other: resolve(*other),
            },
            RecOp::ChargeCopy { bytes } => PlanOp::ChargeCopy { bytes: *bytes },
            RecOp::ChargeReduce { bytes } => PlanOp::ChargeReduce { bytes: *bytes },
            RecOp::Delay { nanos } => PlanOp::Delay { nanos: *nanos },
        });
    }

    // Derive the trailing CopyOut ops from the final output buffer: resolve
    // its contents and drop the identity pieces (bytes the algorithm left
    // untouched, or — for in/out collectives — bytes that still hold the
    // caller's own input at the same position).
    if let (Some(lens), Some(_)) = (&lens, &first.out) {
        let src = attribute(lens, &"the output buffer", &|pass| {
            pass.out.as_deref().expect("out present in every pass")
        });
        let mut cursor = 0usize;
        for seg in src.segs {
            let len = seg.len();
            let identity = match seg {
                SrcSeg::RecvInit { offset, .. } => offset == cursor,
                SrcSeg::SendBuf { offset, .. } => io.inout && offset == cursor,
                _ => false,
            };
            if !identity && len > 0 {
                ops.push(PlanOp::CopyOut {
                    offset: cursor,
                    src: Src { segs: vec![seg] },
                });
            }
            cursor += len;
        }
    }

    let needs_reduce_op = first
        .ops
        .iter()
        .any(|op| matches!(op, RecOp::Reduce { .. }));
    let plan = RankPlan {
        rank,
        topology,
        fidelity,
        io: IoShape {
            needs_reduce_op,
            ..io
        },
        names,
        val_lens: first.val_lens.clone(),
        ops,
    };
    plan.validate().unwrap_or_else(|e| {
        panic!("rank {rank}: compiled plan failed validation: {e}");
    });
    plan
}

/// Record a full-cluster trace of an ad-hoc schedule: run `per_rank` once per
/// rank against a schedule-fidelity [`PlanComm`], assemble each rank's plan
/// and lower the whole with tag base 0, so the trace carries the literal tags
/// the closure used.
///
/// The closure must run the *same* algorithm every rank would run; recording
/// is sequential and needs no threads because recorded receives never block.
pub fn record_trace(topology: Topology, per_rank: impl Fn(&PlanComm)) -> Trace {
    let ranks = (0..topology.world_size())
        .map(|rank| {
            let comm = PlanComm::new(rank, topology, 0, Fidelity::Schedule);
            per_rank(&comm);
            let pass = comm.finish(None);
            assemble(
                rank,
                topology,
                Fidelity::Schedule,
                IoShape::default(),
                vec![pass],
            )
        })
        .collect();
    Plan { topology, ranks }.to_trace(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_netsim::trace::TraceOp;
    use pip_transport::cost::IntranodeMechanism;
    use proptest::prelude::*;

    /// The bytes positions `offsets` of `val` show in each pass.
    fn observed(val: ValId, offsets: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        (0..EXEC_PASSES as u32)
            .map(|pass| {
                fingerprints(pass, val, offsets.end)
                    .skip(offsets.start)
                    .collect()
            })
            .collect()
    }

    fn resolve(passes: &[Vec<u8>], lens: &[usize]) -> Result<Src, usize> {
        resolve_site(&std::array::from_fn(|pass| passes[pass].as_slice()), lens)
    }

    #[test]
    fn the_eight_passes_show_the_eight_bytes_of_the_key() {
        let passes = observed(7, 13..14);
        let key = key_of(7, 13).to_le_bytes();
        for (pass, bytes) in passes.iter().enumerate() {
            assert_eq!(bytes, &[key[pass]]);
        }
    }

    #[test]
    fn no_in_domain_location_can_look_like_a_literal() {
        // Proof by enumeration of the literal rule: the only keys with
        // eight equal bytes are these 256, and each decodes to a value id
        // the recorder refuses to define.
        for byte in 0..=255u64 {
            let (val, offset) = location_of(byte * 0x0101_0101_0101_0101);
            assert!(
                val >= MAX_VALS,
                "literal {byte:#04x} is the key of value {val} offset {offset}"
            );
        }
        // ... which is what the additive constant is for.
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn fingerprint_keys_do_not_alias_across_values_at_large_offsets() {
        // Regression: a bit-packed (pass, val, offset) key once let offsets
        // >= 2^24 spill into the value bits, so RecvInit byte 2^24+k
        // collided with SendBuf byte k in *every* pass.  Offsets own 32
        // bits of the key now, and every location decodes to itself.
        for k in [0usize, 1, 77, 4096] {
            let a = key_of(VAL_SENDBUF, k);
            let b = key_of(VAL_RECVINIT, (1 << 24) + k);
            assert_ne!(a, b, "aliased keys at offset {k}");
            assert_eq!(location_of(b), (VAL_RECVINIT, (1 << 24) + k));
        }
        let last = u32::MAX as usize - 1;
        assert_eq!(
            location_of(key_of(MAX_VALS - 1, last)),
            (MAX_VALS - 1, last)
        );
        assert_eq!(location_of(key_of(VAL_SENDBUF, last)), (VAL_SENDBUF, last));
    }

    #[test]
    #[should_panic(expected = "rank 3: value 0 is 4294967296 bytes long")]
    fn values_too_long_to_fingerprint_are_rejected() {
        let comm = PlanComm::new(3, Topology::new(2, 2), 0, Fidelity::Exec);
        let _ = comm.recv(0, 0, u32::MAX as usize + 1);
    }

    #[test]
    fn resolver_round_trips_value_bytes() {
        // Bytes of runtime value 0 at offsets 4..12.
        let src = resolve(&observed(FIRST_RUNTIME_VAL, 4..12), &[32, 0, 16]).unwrap();
        assert_eq!(
            src.segs,
            vec![SrcSeg::Val {
                id: 0,
                offset: 4,
                len: 8
            }]
        );
    }

    #[test]
    fn resolver_detects_literals_and_concatenations() {
        let mut passes = observed(VAL_SENDBUF, 0..8);
        for bytes in &mut passes {
            bytes.extend_from_slice(&[0xAB, 0xCD]); // constants
        }
        let src = resolve(&passes, &[8]).unwrap();
        assert_eq!(
            src.segs,
            vec![
                SrcSeg::SendBuf { offset: 0, len: 8 },
                SrcSeg::Lit(vec![0xAB, 0xCD]),
            ]
        );
    }

    #[test]
    fn resolver_rejects_bytes_outside_every_value() {
        // Offsets 6..10 of an 8-byte value: the run stops at the value's
        // end and byte 2 of the payload is unattributable.
        assert_eq!(resolve(&observed(VAL_SENDBUF, 6..10), &[8]), Err(2));
        // A value that was never defined.
        assert_eq!(resolve(&observed(5, 0..4), &[8, 8]), Err(0));
    }

    proptest! {
        #[test]
        fn prop_unmix64_inverts_mix64(x in any::<u64>()) {
            prop_assert_eq!(unmix64(mix64(x)), x);
            prop_assert_eq!(mix64(unmix64(x)), x);
        }

        #[test]
        fn prop_concatenations_resolve_to_their_segments(
            lens in collection::vec(1usize..300, 1..6),
            draws in collection::vec(any::<u64>(), 3..36),
        ) {
            // Build a payload from random slices of random values and
            // random literal runs, as an algorithm's private copying would.
            // `expected` uses internal value ids until the final mapping.
            let mut expected: Vec<SrcSeg> = Vec::new();
            let mut passes = vec![Vec::new(); EXEC_PASSES];
            for draw in draws.chunks_exact(3) {
                if draw[0] % 4 == 0 {
                    let run = vec![draw[1] as u8; 1 + draw[2] as usize % 5];
                    for bytes in &mut passes {
                        bytes.extend_from_slice(&run);
                    }
                    match expected.last_mut() {
                        Some(SrcSeg::Lit(bytes)) => bytes.extend_from_slice(&run),
                        _ => expected.push(SrcSeg::Lit(run)),
                    }
                    continue;
                }
                let val = (draw[0] / 4) as usize % lens.len();
                let offset = draw[1] as usize % lens[val];
                let len = 1 + draw[2] as usize % (lens[val] - offset);
                let seen = observed(val as ValId, offset..offset + len);
                for (bytes, seen) in passes.iter_mut().zip(&seen) {
                    bytes.extend_from_slice(seen);
                }
                match expected.last_mut() {
                    // A slice that starts where the previous one ended
                    // continues its run.
                    Some(SrcSeg::Val { id, offset: start, len: run })
                        if *id as usize == val && *start + *run == offset =>
                    {
                        *run += len
                    }
                    _ => expected.push(SrcSeg::Val { id: val as ValId, offset, len }),
                }
            }
            for seg in &mut expected {
                if let SrcSeg::Val { id, offset, len } = *seg {
                    *seg = match id {
                        VAL_SENDBUF => SrcSeg::SendBuf { offset, len },
                        VAL_RECVINIT => SrcSeg::RecvInit { offset, len },
                        _ => SrcSeg::Val { id: id - FIRST_RUNTIME_VAL, offset, len },
                    };
                }
            }
            prop_assert_eq!(resolve(&passes, &lens), Ok(Src { segs: expected }));
        }
    }

    #[test]
    fn plan_comm_records_a_simple_exchange() {
        let topo = Topology::new(1, 2);
        let passes: Vec<PassRecording> = (0..EXEC_PASSES as u32)
            .map(|pass| {
                let comm = PlanComm::new(0, topo, pass, Fidelity::Exec);
                let mut sendbuf = vec![0u8; 4];
                comm.fill_sendbuf(&mut sendbuf);
                comm.send(1, 0, &sendbuf);
                let data = comm.recv(1, 1, 4);
                comm.node_barrier();
                comm.finish(Some(data))
            })
            .collect();
        let io = IoShape {
            sendbuf: Some(4),
            recvbuf: Some(4),
            ..IoShape::default()
        };
        let plan = assemble(0, topo, Fidelity::Exec, io, passes);
        assert_eq!(plan.ops.len(), 4);
        assert!(matches!(
            &plan.ops[0],
            PlanOp::Send { dest: 1, tag: 0, src }
                if src.segs == vec![SrcSeg::SendBuf { offset: 0, len: 4 }]
        ));
        assert!(matches!(
            plan.ops[1],
            PlanOp::Recv {
                source: 1,
                tag: 1,
                len: 4,
                dst: 0
            }
        ));
        assert!(matches!(plan.ops[2], PlanOp::NodeBarrier));
        assert!(matches!(
            &plan.ops[3],
            PlanOp::CopyOut { offset: 0, src }
                if src.segs == vec![SrcSeg::Val { id: 0, offset: 0, len: 4 }]
        ));
    }

    #[test]
    fn schedule_fidelity_produces_opaque_payloads_in_one_pass() {
        let topo = Topology::new(1, 2);
        let comm = PlanComm::new(0, topo, 0, Fidelity::Schedule);
        comm.send(1, 0, &[0u8; 16]);
        let _ = comm.recv(1, 0, 16);
        let passes = vec![comm.finish(None)];
        let io = IoShape::default();
        let plan = assemble(0, topo, Fidelity::Schedule, io, passes);
        assert!(matches!(
            &plan.ops[0],
            PlanOp::Send { src, .. } if src.is_opaque() && src.len() == 16
        ));
    }

    #[test]
    fn reducer_interception_tracks_reduced_data() {
        let topo = Topology::new(1, 1);
        let passes: Vec<PassRecording> = (0..EXEC_PASSES as u32)
            .map(|pass| {
                let comm = PlanComm::new(0, topo, pass, Fidelity::Exec);
                let mut buf = vec![0u8; 8];
                comm.fill_sendbuf(&mut buf);
                let other = comm.recv(0, 0, 8);
                let op = comm.reducer();
                op(&mut buf, &other);
                comm.charge_reduce(8);
                drop(op);
                comm.send(0, 1, &buf);
                comm.finish(Some(buf))
            })
            .collect();
        let io = IoShape {
            sendbuf: None,
            recvbuf: Some(8),
            inout: true,
            needs_reduce_op: true,
            ..IoShape::default()
        };
        let plan = assemble(0, topo, Fidelity::Exec, io, passes);
        // Recv, Reduce, ChargeReduce, Send, CopyOut.
        assert!(matches!(plan.ops[1], PlanOp::Reduce { dst: 1, .. }));
        assert!(matches!(
            &plan.ops[3],
            PlanOp::Send { src, .. }
                if src.segs == vec![SrcSeg::Val { id: 1, offset: 0, len: 8 }]
        ));
        assert!(matches!(
            &plan.ops[4],
            PlanOp::CopyOut { offset: 0, src }
                if src.segs == vec![SrcSeg::Val { id: 1, offset: 0, len: 8 }]
        ));
        assert!(plan.io.needs_reduce_op);
    }

    /// Every `Comm` method reaches the trace through assemble and lowering:
    /// messages keep their peers, sizes and tags, shared reads and writes
    /// become transport-priced copies, `charge_copy` a PiP copy, and the
    /// free PiP operations (alloc, publish, collect) vanish.
    #[test]
    fn record_trace_lowers_every_comm_method() {
        let trace = record_trace(Topology::new(2, 2), |comm| {
            if comm.rank() != 1 {
                return;
            }
            comm.send(3, 7, &[0u8; 32]);
            assert_eq!(comm.recv(3, 8, 16), vec![0u8; 16]);
            comm.shared_alloc("x", 64);
            comm.shared_publish("y", &[0u8; 4]);
            assert_eq!(comm.shared_collect("y", 4), vec![0u8; 4]);
            comm.shared_write(0, "x", 0, &[0u8; 8]);
            assert_eq!(comm.shared_read(0, "x", 8, 12), vec![0u8; 12]);
            comm.node_barrier();
            comm.charge_copy(40);
            comm.charge_reduce(64);
            comm.delay(123.0);
            comm.send_from_shared(0, "x", 0, 24, 2, 9);
            comm.recv_into_shared(0, "x", 24, 2, 10, 20);
        });
        assert_eq!(
            &trace.ranks[1].ops[..],
            &[
                TraceOp::Send {
                    dest: 3,
                    bytes: 32,
                    tag: 7
                },
                TraceOp::Recv {
                    source: 3,
                    bytes: 16,
                    tag: 8
                },
                TraceOp::CopyIntra {
                    bytes: 8,
                    mechanism: None,
                    first_use: false
                },
                TraceOp::CopyIntra {
                    bytes: 12,
                    mechanism: None,
                    first_use: false
                },
                TraceOp::LocalBarrier,
                TraceOp::CopyIntra {
                    bytes: 40,
                    mechanism: Some(IntranodeMechanism::Pip),
                    first_use: false
                },
                TraceOp::Reduce { bytes: 64 },
                TraceOp::Delay { nanos: 123.0 },
                TraceOp::Send {
                    dest: 2,
                    bytes: 24,
                    tag: 9
                },
                TraceOp::Recv {
                    source: 2,
                    bytes: 20,
                    tag: 10
                },
            ][..]
        );
        assert!(trace.ranks[0].ops.is_empty());
    }

    #[test]
    fn record_trace_produces_one_entry_per_rank() {
        let topo = Topology::new(2, 2);
        let trace = record_trace(topo, |comm| {
            let next = (comm.rank() + 1) % comm.world_size();
            let prev = (comm.rank() + comm.world_size() - 1) % comm.world_size();
            comm.send(next, 0, &[0u8; 8]);
            comm.recv(prev, 0, 8);
        });
        assert_eq!(trace.ranks.len(), 4);
        assert!(trace.validate().is_ok());
        assert_eq!(trace.total_messages(), 4);
    }
}
