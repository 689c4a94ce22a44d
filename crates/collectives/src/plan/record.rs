//! Compiling a collective algorithm to a [`RankPlan`] by *recording* it.
//!
//! [`PlanComm`] is the recording [`Comm`] implementation, beside the
//! executing `ThreadComm`: it runs the unmodified algorithm once per rank
//! without moving real data and writes the plan's ops as the algorithm
//! calls it, which execute later or lower to a simulator trace
//! ([`record_trace`] records and lowers an ad-hoc schedule in one call).
//!
//! **One op type.**  The recorder pushes [`PlanOp`]s: region names are
//! interned into the pass's name table on first use, values are numbered
//! densely from 0, and a payload is [`Src::opaque`] of its length — the
//! final form — under schedule fidelity, an empty placeholder and captured
//! bytes under exec fidelity.  [`assemble`] then *agrees* (every pass
//! recorded equal ops, names, value and payload lengths and locations),
//! *resolves* each captured payload into its source in place, in op order
//! (`PlanOp::sources`), *derives* the trailing [`PlanOp::CopyOut`]s from
//! the output buffer and *validates* the plan.
//!
//! The hard part is *data provenance*: algorithms privately copy, slice and
//! concatenate the byte buffers the `Comm` surface hands them, so the
//! recorder cannot see where an outgoing payload came from.  The compiler
//! recovers provenance with **fingerprint taint**:
//!
//! * every byte the recorder hands to the algorithm has a dense *location
//!   number*: each buffer it taints — the caller's send and receive
//!   buffers, then every receive, shared read or collect and reduction
//!   result, in recording order — takes the next `len` numbers of a running
//!   counter, and the pass recording keeps a `(first location, buffer,
//!   len)` table of them;
//! * the *fingerprint key* of location `L` is `L + C`, with
//!   `C = 0x8080_8080_8080_8081`, and in recording pass *p* every tainted
//!   byte is byte *p* of its key — a fill is the counter loop
//!   `((first + C + i) >> 8p) as u8`, which pass 0 writes as a wrapping
//!   byte counter and every later pass as runs of equal bytes;
//! * an exec-fidelity compile ([`compile_exec`]) runs the algorithm once,
//!   which fixes `T`, the number of fingerprinted bytes, then as many more
//!   times as the keys of `0..T` need: `k` passes in all, the fewest with
//!   `T < R_k = (256^k − 1) / 255` — two passes up to 256 B, three up to
//!   ≈ 64 KiB, four up to ≈ 16 MiB, at most eight.  Carries only propagate
//!   upward, so the byte a pass shows does not depend on `k`.  Running the
//!   algorithm repeatedly is sound because algorithms never branch on
//!   payload contents — which is what [`assemble`]'s agreement check
//!   asserts;
//! * reductions are intercepted by a compiler-provided operator
//!   ([`PlanComm::reducer`]) that records a [`PlanOp::Reduce`] and rewrites
//!   the accumulator with the fingerprints of a fresh value, so reduced data
//!   stays trackable;
//! * every byte the algorithm passes back (sends, shared writes, the final
//!   output buffer) is resolved by stacking the `k` bytes its position
//!   showed into a key and subtracting `C` modulo `256^k`: the result is a
//!   location below `T`, which a binary search of the table names as a
//!   `(buffer, offset)`, or the byte cannot be attributed.
//!
//! **Literal rule.**  A byte that is identical in all `k` passes is a
//! constant the algorithm wrote itself and becomes [`SrcSeg::Lit`].  Such a
//! position stacks to one of the 256 keys `b · R_k`.  `C mod 256^k` is
//! `0x80 · R_k + 1`, so every fingerprinted key lies in
//! `[0x80 · R_k + 1, 0x80 · R_k + T]`, strictly between the equal-byte keys
//! `0x80 · R_k` and `0x81 · R_k` because `T < R_k`: no fingerprinted
//! position can pass for a literal.  Put the other way round, every
//! equal-byte key decodes to a location of at least `R_k − 1`, outside
//! `0..T` (checked by enumeration in the tests).
//!
//! **Cost.**  An exec-fidelity compile costs `k` recording passes, whose
//! fills vectorize, plus one linear scan over the captured payload
//! bytes: a resolved position starts a run, which is extended by comparing
//! each pass's captured bytes with the expected counter bytes a chunk at a
//! time, so the work per byte is `k` byte compares and the work per run one
//! binary search of the table.
//!
//! **In place.**  A receive or shared read the algorithm lands in its own
//! buffer ([`Comm::recv_into`], [`Comm::shared_read_into`]) records the same
//! op and defines the same value as its `Vec` twin; under exec fidelity the
//! destination is tainted in place with the location numbers a fresh buffer
//! would get, so the location table, the output bytes and the plan do not
//! depend on which of the two the algorithm called.
//!
//! Schedule-fidelity compiles skip all of this: one pass, and the recorder
//! writes no byte — no fill, no taint, no capture — so the buffers'
//! contents are dead and a driver may record every rank into one reused,
//! never re-zeroed pair of caller buffers.  What is left is the cost of
//! running the algorithm once: O(ops) plus the algorithm's own private
//! copies, producing a cacheable [`RankPlan`] that [`assemble`] only
//! validates.

use std::fmt;
use std::sync::Mutex;

use pip_netsim::trace::Trace;
use pip_runtime::Topology;

use crate::comm::Comm;
use crate::plan::ir::{Fidelity, IoShape, NameId, Plan, PlanOp, RankPlan, Src, SrcSeg, ValId};

/// Most recording passes an exec-fidelity compile can run: a 64-bit key has
/// eight bytes to show.
const MAX_PASSES: usize = 8;

/// `C`: added to a location to make its key.  Every byte is `0x80` but the
/// lowest, so the keys of `0..T` sit just above the equal-byte key
/// `0x80 · R_k` whatever the pass count `k`.
const KEY_OFFSET: u64 = 0x8080_8080_8080_8081;

/// Bytes compared per step while a run is extended.
const RUN_CHUNK: usize = 256;

/// `256^k − 1`: the keys `k` passes can show.
#[inline]
fn key_mask(passes: usize) -> u64 {
    u64::MAX >> (64 - 8 * passes)
}

/// `R_k = (256^k − 1) / 255`: `k` passes can key the locations below this.
fn key_capacity(passes: usize) -> u64 {
    key_mask(passes) / 255
}

/// The number of recording passes `total` fingerprinted bytes need: the
/// fewest `k` with `total < R_k`.
fn passes_needed(rank: usize, total: u64) -> usize {
    (1..=MAX_PASSES)
        .find(|&passes| total < key_capacity(passes))
        .unwrap_or_else(|| {
            panic!(
                "rank {rank}: {total} fingerprinted bytes, but {MAX_PASSES} recording passes \
                 can key only {}",
                key_capacity(MAX_PASSES) - 1
            )
        })
}

/// Write the key bytes `pass` shows for locations `first..first + buf.len()`.
#[inline]
fn fill_keys(pass: usize, first: u64, buf: &mut [u8]) {
    let start = first + KEY_OFFSET;
    if pass == 0 {
        for (i, byte) in buf.iter_mut().enumerate() {
            *byte = (start as u8).wrapping_add(i as u8);
        }
        return;
    }
    // Byte `pass` of successive keys holds for 256^pass keys at a time.
    let shift = 8 * pass;
    let mut key = start;
    let mut rest = buf;
    while !rest.is_empty() {
        let run = ((key | ((1 << shift) - 1)) - key + 1).min(rest.len() as u64) as usize;
        let (head, tail) = rest.split_at_mut(run);
        head.fill((key >> shift) as u8);
        key += run as u64;
        rest = tail;
    }
}

/// The buffer a tainted range belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tainted {
    /// The caller's send buffer.
    SendBuf,
    /// The receive buffer's initial contents.
    RecvInit,
    /// A runtime value.
    Val(ValId),
}

/// One tainted buffer: locations `first..first + len` are offsets `0..len`
/// of `buf`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Taint {
    first: u64,
    buf: Tainted,
    len: usize,
}

impl Taint {
    /// The first location after the buffer.
    fn end(&self) -> u64 {
        self.first + self.len as u64
    }

    /// Bytes `offset..offset + len` of the buffer, as a source segment.
    fn seg(&self, offset: usize, len: usize) -> SrcSeg {
        match self.buf {
            Tainted::SendBuf => SrcSeg::SendBuf { offset, len },
            Tainted::RecvInit => SrcSeg::RecvInit { offset, len },
            Tainted::Val(id) => SrcSeg::Val { id, offset, len },
        }
    }
}

/// Everything one pass recorded: filled through [`PlanComm`], extracted with
/// [`PlanComm::finish`].
#[derive(Debug, Default)]
pub struct PassRecording {
    /// The plan's ops so far, payloads as the recorder writes them.
    ops: Vec<PlanOp>,
    /// Region names, interned in first-use order.
    names: Vec<String>,
    /// Length of each value.
    val_lens: Vec<usize>,
    /// The location table: every tainted buffer in taint order (empty under
    /// schedule fidelity).
    locations: Vec<Taint>,
    /// Captured bytes of every payload, in the order the ops read them
    /// (exec fidelity only).
    payloads: Vec<Vec<u8>>,
    /// Final contents of the caller-visible output buffer, if any.
    out: Option<Vec<u8>>,
}

impl PassRecording {
    /// `T`: how many location numbers the pass handed out.
    fn total(&self) -> u64 {
        self.locations.last().map_or(0, Taint::end)
    }

    /// The id of region `name`, interned on first use.
    fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.names.iter().position(|n| n == name) {
            return id as NameId;
        }
        self.names.push(name.to_owned());
        (self.names.len() - 1) as NameId
    }

    /// A fresh value of `len` bytes.
    fn new_val(&mut self, len: usize) -> ValId {
        self.val_lens.push(len);
        (self.val_lens.len() - 1) as ValId
    }
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
            (pass as usize) < MAX_PASSES,
            "a fingerprint key has a byte for {MAX_PASSES} passes only"
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
    /// pass.  The compile driver uses this to prepare the synthetic input
    /// buffers before running the algorithm.  Under schedule fidelity `buf`
    /// is left as it is: nothing reads its bytes, so it may hold anything.
    pub fn fill_sendbuf(&self, buf: &mut [u8]) {
        self.fill(Tainted::SendBuf, buf);
    }

    /// As [`PlanComm::fill_sendbuf`] for the receive buffer's initial
    /// contents.
    pub fn fill_recvbuf(&self, buf: &mut [u8]) {
        self.fill(Tainted::RecvInit, buf);
    }

    /// Overwrite `bytes` with the fingerprints of `buf` for this pass (exec
    /// fidelity only).
    fn fill(&self, buf: Tainted, bytes: &mut [u8]) {
        if self.fidelity == Fidelity::Exec {
            self.taint(&mut self.state.lock().unwrap(), buf, bytes);
        }
    }

    /// Give `bytes` the next `bytes.len()` location numbers, as offsets of
    /// `buf`, and overwrite them with their key bytes for this pass (exec
    /// fidelity only).
    fn taint(&self, state: &mut PassRecording, buf: Tainted, bytes: &mut [u8]) {
        let first = state.total();
        state.locations.push(Taint {
            first,
            buf,
            len: bytes.len(),
        });
        fill_keys(self.pass as usize, first, bytes);
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
            let acc_src = self.payload(&mut state, acc);
            let other = self.payload(&mut state, other);
            drop(state);
            self.define_val(acc, |_, dst| PlanOp::Reduce {
                dst,
                acc: acc_src,
                other,
            });
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

    /// The source to record for payload `data`: opaque, of its length, under
    /// schedule fidelity; under exec an empty one, its bytes captured.
    fn payload(&self, state: &mut PassRecording, data: &[u8]) -> Src {
        if self.fidelity == Fidelity::Exec {
            state.payloads.push(data.to_vec());
            return Src::empty();
        }
        Src::opaque(data.len())
    }

    /// Record the op `make_op` builds against the pass state.
    fn push(&self, make_op: impl FnOnce(&mut PassRecording) -> PlanOp) {
        let mut state = self.state.lock().unwrap();
        let op = make_op(&mut state);
        state.ops.push(op);
    }

    /// Record `op`, which defines a new value of `out.len()` bytes that the
    /// algorithm receives in `out`: tainted in place under exec fidelity,
    /// left as it is under schedule fidelity, where nothing reads it.
    fn define_val(
        &self,
        out: &mut [u8],
        make_op: impl FnOnce(&mut PassRecording, ValId) -> PlanOp,
    ) {
        let mut state = self.state.lock().unwrap();
        let dst = state.new_val(out.len());
        let op = make_op(&mut state, dst);
        state.ops.push(op);
        if self.fidelity == Fidelity::Exec {
            self.taint(&mut state, Tainted::Val(dst), out);
        }
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
        self.push(|state| PlanOp::Send {
            dest,
            tag,
            src: self.payload(state, data),
        });
    }

    fn recv(&self, source: usize, tag: u64, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        self.recv_into(source, tag, &mut bytes);
        bytes
    }

    fn recv_into(&self, source: usize, tag: u64, out: &mut [u8]) {
        let len = out.len();
        self.define_val(out, |_, dst| PlanOp::Recv {
            source,
            tag,
            len,
            dst,
        })
    }

    fn shared_alloc(&self, name: &str, len: usize) {
        self.push(|state| PlanOp::SharedAlloc {
            name: state.intern(name),
            len,
        });
    }

    fn shared_publish(&self, name: &str, data: &[u8]) {
        self.push(|state| PlanOp::SharedPublish {
            name: state.intern(name),
            src: self.payload(state, data),
        });
    }

    fn shared_collect(&self, name: &str, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        self.define_val(&mut bytes, |state, dst| PlanOp::SharedCollect {
            name: state.intern(name),
            len,
            dst,
        });
        bytes
    }

    fn shared_write(&self, owner_local: usize, name: &str, offset: usize, data: &[u8]) {
        self.push(|state| PlanOp::SharedWrite {
            owner_local,
            name: state.intern(name),
            offset,
            src: self.payload(state, data),
        });
    }

    fn shared_read(&self, owner_local: usize, name: &str, offset: usize, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        self.shared_read_into(owner_local, name, offset, &mut bytes);
        bytes
    }

    fn shared_read_into(&self, owner_local: usize, name: &str, offset: usize, out: &mut [u8]) {
        let len = out.len();
        self.define_val(out, |state, dst| PlanOp::SharedRead {
            owner_local,
            name: state.intern(name),
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
        self.push(|state| PlanOp::SendFromShared {
            owner_local,
            name: state.intern(name),
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
        self.push(|state| PlanOp::RecvIntoShared {
            owner_local,
            name: state.intern(name),
            offset,
            source,
            tag,
            len,
        });
    }

    fn node_barrier(&self) {
        self.push(|_| PlanOp::NodeBarrier);
    }

    fn charge_copy(&self, bytes: usize) {
        self.push(|_| PlanOp::ChargeCopy { bytes });
    }

    fn delay(&self, nanos: f64) {
        self.push(|_| PlanOp::Delay { nanos });
    }
}

// ---------------------------------------------------------------------------
// Multi-pass assembly: fingerprint inversion.
// ---------------------------------------------------------------------------

/// The location position `i` of a payload showed: the bytes the passes
/// captured there stacked into a key (pass `p` gives byte `p`), minus `C`
/// modulo `256^k`.
#[inline]
fn location_at(passes: &[&[u8]], i: usize) -> u64 {
    let key = passes
        .iter()
        .rev()
        .fold(0u64, |key, bytes| key << 8 | bytes[i] as u64);
    key.wrapping_sub(KEY_OFFSET) & key_mask(passes.len())
}

/// How many of the positions from `i` on, at most `limit`, show the
/// successive locations from `location` on in every pass: each pass's
/// captured bytes are compared with the expected counter bytes a chunk at a
/// time.
fn run_length(passes: &[&[u8]], i: usize, location: u64, limit: usize) -> usize {
    let mut expected = [0u8; RUN_CHUNK];
    let mut len = 0;
    while len < limit {
        let chunk = RUN_CHUNK.min(limit - len);
        let mut matched = chunk;
        for (pass, bytes) in passes.iter().enumerate() {
            let expected = &mut expected[..matched];
            fill_keys(pass, location + len as u64, expected);
            let seen = &bytes[i + len..i + len + matched];
            if seen != expected {
                matched = seen
                    .iter()
                    .zip(&*expected)
                    .take_while(|(a, b)| a == b)
                    .count();
            }
        }
        len += matched;
        if matched < chunk {
            break;
        }
    }
    len
}

/// Resolve a payload, given as each pass captured it, into a [`Src`] against
/// the location table `table`.  Fails with the index of the first position
/// that is neither a literal nor a location below the table's total.
fn resolve_site(passes: &[&[u8]], table: &[Taint]) -> Result<Src, usize> {
    let end = passes[0].len();
    let total = table.last().map_or(0, Taint::end);
    // Identical in every pass: a constant the algorithm wrote itself.
    let is_literal = |i: usize| passes[1..].iter().all(|bytes| bytes[i] == passes[0][i]);
    let mut segs: Vec<SrcSeg> = Vec::new();
    let mut i = 0;
    while i < end {
        if is_literal(i) {
            let start = i;
            while i < end && is_literal(i) {
                i += 1;
            }
            segs.push(SrcSeg::Lit(passes[0][start..i].to_vec()));
            continue;
        }
        let location = location_at(passes, i);
        if location >= total {
            return Err(i);
        }
        // The table covers `0..total` without gaps, in ascending order, so
        // the last buffer starting at or before `location` holds it.
        let taint = table[table.partition_point(|taint| taint.first <= location) - 1];
        let offset = (location - taint.first) as usize;
        // The run lasts while successive positions show successive
        // locations, up to the end of the buffer.
        let len = run_length(passes, i, location, (taint.len - offset).min(end - i));
        segs.push(taint.seg(offset, len));
        i += len;
    }
    Ok(Src { segs })
}

/// Compile `rank`'s exec-fidelity plan of `body`, which runs the algorithm
/// against the recorder it is given and returns the final contents of the
/// caller-visible output buffer: record pass 0, which fixes how many
/// fingerprinted bytes the plan has, record as many more passes as their
/// keys need, and [`assemble`].
pub fn compile_exec(
    rank: usize,
    topology: Topology,
    io: IoShape,
    body: impl Fn(&PlanComm) -> Option<Vec<u8>>,
) -> RankPlan {
    let record = |pass: u32| {
        let comm = PlanComm::new(rank, topology, pass, Fidelity::Exec);
        let out = body(&comm);
        comm.finish(out)
    };
    let first = record(0);
    let npasses = passes_needed(rank, first.total());
    let mut passes = Vec::with_capacity(npasses);
    passes.push(first);
    passes.extend((1..npasses as u32).map(record));
    assemble(rank, topology, Fidelity::Exec, io, passes)
}

/// Fuse the recordings of all passes into a [`RankPlan`]: check that they
/// agree, resolve every captured payload (exec fidelity), derive the
/// trailing [`PlanOp::CopyOut`]s from the output buffer and validate.
///
/// Panics if the number of passes is not the one the fidelity and the
/// location table need, if the passes recorded different ops, names, value
/// lengths or location tables (which would mean an algorithm branched on
/// payload contents, violating the `Comm` contract) or if a payload byte
/// cannot be attributed to any source.
pub fn assemble(
    rank: usize,
    topology: Topology,
    fidelity: Fidelity,
    io: IoShape,
    mut passes: Vec<PassRecording>,
) -> RankPlan {
    let first = passes.first().expect("at least one recording pass");
    let exec = fidelity == Fidelity::Exec;
    let expected = if exec {
        passes_needed(rank, first.total())
    } else {
        1
    };
    assert_eq!(
        passes.len(),
        expected,
        "rank {rank}: {} recording passes, but {} fingerprinted bytes need {expected}",
        passes.len(),
        first.total()
    );
    // Exec ops hold empty placeholders: only the captures show lengths.
    let lens = |p: &PassRecording| -> Vec<usize> {
        p.payloads.iter().chain(&p.out).map(Vec::len).collect()
    };
    for pass in &passes[1..] {
        assert_eq!(
            (&pass.ops, &pass.names),
            (&first.ops, &first.names),
            "rank {rank}: op skeleton diverged between recording passes — \
             an algorithm branched on payload contents"
        );
        assert_eq!(pass.val_lens, first.val_lens, "value table diverged");
        assert_eq!(
            lens(pass),
            lens(first),
            "rank {rank}: payload lengths diverged between recording passes"
        );
        assert_eq!(
            pass.locations, first.locations,
            "rank {rank}: location table diverged between recording passes"
        );
    }
    let mut ops = std::mem::take(&mut passes[0].ops);
    let names = std::mem::take(&mut passes[0].names);
    let mut val_lens = std::mem::take(&mut passes[0].val_lens);
    let first = &passes[0];

    // Attribute the payload whose bytes in each pass `bytes_of` selects.
    let attribute = |what: &dyn fmt::Display, bytes_of: &dyn Fn(&PassRecording) -> &[u8]| -> Src {
        let views: Vec<&[u8]> = passes.iter().map(bytes_of).collect();
        resolve_site(&views, &first.locations).unwrap_or_else(|byte| {
            panic!(
                "rank {rank}: cannot attribute byte {byte} of {what} to any symbolic \
                 source: it decodes to location {}, beyond the {} fingerprinted bytes",
                location_at(&views, byte),
                first.total()
            )
        })
    };

    if exec {
        // The payloads were captured in the order the ops read them.
        for (site, src) in ops.iter_mut().flat_map(PlanOp::sources_mut).enumerate() {
            *src = attribute(&format_args!("payload {site}"), &|pass| {
                &pass.payloads[site]
            });
        }
    }

    // Derive the trailing CopyOut ops from the final output buffer: resolve
    // its contents and drop the identity pieces (bytes the algorithm left
    // untouched, or — for in/out collectives — bytes that still hold the
    // caller's own input at the same position).
    if exec && first.out.is_some() {
        let src = attribute(&"the output buffer", &|pass| {
            pass.out.as_deref().expect("out present in every pass")
        });
        let mut cursor = 0usize;
        for seg in src.segs {
            let len = seg.len();
            let identity = match seg {
                SrcSeg::RecvInit { offset, .. } => offset == cursor,
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

    // Plans live in caches: keep none of the recording's growth slack.
    ops.shrink_to_fit();
    val_lens.shrink_to_fit();
    let needs_reduce_op = ops.iter().any(|op| matches!(op, PlanOp::Reduce { .. }));
    let plan = RankPlan {
        rank,
        topology,
        fidelity,
        io: IoShape {
            needs_reduce_op,
            ..io
        },
        names,
        val_lens,
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
    Plan::from_ranks(topology, ranks).to_trace(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_netsim::trace::TraceOp;
    use pip_transport::cost::IntranodeMechanism;
    use proptest::prelude::*;

    /// The location table of consecutive buffers of lengths `lens`: the
    /// caller's send and receive buffers, then values 0, 1, ...
    fn table(lens: &[usize]) -> Vec<Taint> {
        let mut first = 0;
        lens.iter()
            .enumerate()
            .map(|(i, &len)| {
                let buf = match i {
                    0 => Tainted::SendBuf,
                    1 => Tainted::RecvInit,
                    _ => Tainted::Val(i as ValId - 2),
                };
                let taint = Taint { first, buf, len };
                first = taint.end();
                taint
            })
            .collect()
    }

    /// The bytes `locations` show in each of `passes` passes.
    fn observed(passes: usize, locations: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        (0..passes)
            .map(|pass| {
                let mut bytes = vec![0u8; (locations.end - locations.start) as usize];
                fill_keys(pass, locations.start, &mut bytes);
                bytes
            })
            .collect()
    }

    fn resolve(passes: &[Vec<u8>], table: &[Taint]) -> Result<Src, usize> {
        let views: Vec<&[u8]> = passes.iter().map(Vec::as_slice).collect();
        resolve_site(&views, table)
    }

    #[test]
    fn the_eight_passes_show_the_eight_bytes_of_the_key() {
        for location in [0, 13, 0x7f7e, key_capacity(MAX_PASSES) - 1] {
            let key = (location + KEY_OFFSET).to_le_bytes();
            let passes = observed(MAX_PASSES, location..location + 1);
            for (pass, bytes) in passes.iter().enumerate() {
                assert_eq!(bytes, &[key[pass]]);
            }
        }
        // A fill is a counter: keys 0x80ff..=0x8101 carry into pass 1's byte.
        assert_eq!(
            observed(2, 0x7e..0x81),
            vec![vec![0xff, 0x00, 0x01], vec![0x80, 0x81, 0x81]]
        );
        // Across the carries into bytes 1, 2 and 7, every pass's fill is the
        // byte of the per-position key.
        for first in [0, 0x7f7e - 500, 0x7f_7f7f_7f7f_7f7e - 500] {
            for (pass, bytes) in observed(MAX_PASSES, first..first + 1000).iter().enumerate() {
                for (i, &byte) in bytes.iter().enumerate() {
                    assert_eq!(byte, ((first + i as u64 + KEY_OFFSET) >> (8 * pass)) as u8);
                }
            }
        }
    }

    #[test]
    fn no_in_domain_location_can_look_like_a_literal() {
        // Proof by enumeration of the literal rule: the only k-byte keys
        // with k equal bytes are these 256, and each decodes to a location
        // of at least R_k - 1, outside every admissible 0..T (T < R_k).
        for passes in 1..=MAX_PASSES {
            for byte in 0..=255u8 {
                let location = location_at(&vec![&[byte][..]; passes], 0);
                assert!(
                    location >= key_capacity(passes) - 1,
                    "{passes} passes: literal {byte:#04x} decodes to location {location}"
                );
            }
            // ... and the bound is tight.
            assert_eq!(
                location_at(&vec![&[0x81][..]; passes], 0),
                key_capacity(passes) - 1
            );
        }
    }

    #[test]
    fn pass_count_is_the_fewest_whose_keys_cover_the_total() {
        assert_eq!(
            [2, 3, 4].map(key_capacity),
            [257, 65_793, 16_843_009],
            "2 passes up to 256 B, 3 up to ~64 KiB, 4 up to ~16 MiB"
        );
        assert_eq!(passes_needed(0, 0), 1);
        for passes in 1..MAX_PASSES {
            assert_eq!(passes_needed(0, key_capacity(passes) - 1), passes);
            assert_eq!(passes_needed(0, key_capacity(passes)), passes + 1);
        }
        assert_eq!(passes_needed(0, key_capacity(MAX_PASSES) - 1), MAX_PASSES);
    }

    #[test]
    #[should_panic(expected = "rank 5: 72340172838076673 fingerprinted bytes")]
    fn totals_no_pass_count_can_key_are_refused() {
        passes_needed(5, key_capacity(MAX_PASSES));
    }

    #[test]
    fn resolver_round_trips_value_bytes() {
        // Bytes of runtime value 0 (the third buffer) at offsets 4..12.
        let src = resolve(&observed(2, 36..44), &table(&[32, 0, 16])).unwrap();
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
        let mut passes = observed(2, 0..8);
        for bytes in &mut passes {
            bytes.extend_from_slice(&[0xAB, 0xCD]); // constants
        }
        let src = resolve(&passes, &table(&[8])).unwrap();
        assert_eq!(
            src.segs,
            vec![
                SrcSeg::SendBuf { offset: 0, len: 8 },
                SrcSeg::Lit(vec![0xAB, 0xCD]),
            ]
        );
        // Successive locations of two buffers are two segments.
        let src = resolve(&observed(2, 6..10), &table(&[8, 8])).unwrap();
        assert_eq!(
            src.segs,
            vec![
                SrcSeg::SendBuf { offset: 6, len: 2 },
                SrcSeg::RecvInit { offset: 0, len: 2 },
            ]
        );
    }

    #[test]
    fn resolver_rejects_bytes_outside_every_value() {
        // Offsets 6..10 of the only, 8-byte buffer: the run stops at its
        // end and byte 2 of the payload decodes to location 8, beyond the
        // table.
        assert_eq!(resolve(&observed(2, 6..10), &table(&[8])), Err(2));
        // A location no buffer was given.
        assert_eq!(resolve(&observed(2, 20..24), &table(&[8, 8])), Err(0));
    }

    proptest! {
        #[test]
        fn prop_concatenations_resolve_to_their_segments(
            passes in 2usize..5,
            span in any::<u64>(),
            cuts in collection::vec(any::<u64>(), 0..6),
            draws in collection::vec(any::<u64>(), 3..36),
        ) {
            // A location table whose total needs exactly `passes` passes
            // (at most 2^17 locations past the previous pass count's
            // capacity, to keep payloads small), cut into random buffers.
            let low = key_capacity(passes - 1);
            let total = low + span % (key_capacity(passes) - low).min(1 << 17);
            let mut bounds: Vec<u64> = cuts.iter().map(|cut| cut % total).chain([0, total]).collect();
            bounds.sort_unstable();
            bounds.dedup();
            let lens: Vec<usize> = bounds.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
            let table = table(&lens);
            prop_assert_eq!(passes_needed(0, total), passes);
            // The first locations after a carry into pass 1's byte (every
            // 256 locations from 0x7f on) and into pass 2's (0x7f7f).
            let carries: Vec<u64> = [0x7f, 0x17f, 0x7f7f]
                .into_iter()
                .filter(|&carry| carry < total)
                .collect();

            // Build a payload from random runs of locations, some across a
            // carry, and random literal runs, as an algorithm's private
            // copying would.  `expected` names buffers by their index in
            // the table until the final mapping.
            let mut expected: Vec<SrcSeg> = Vec::new();
            let mut payload = vec![Vec::new(); passes];
            for draw in draws.chunks_exact(3) {
                if draw[0] % 4 == 0 {
                    let run = vec![draw[1] as u8; 1 + draw[2] as usize % 5];
                    for bytes in &mut payload {
                        bytes.extend_from_slice(&run);
                    }
                    match expected.last_mut() {
                        Some(SrcSeg::Lit(bytes)) => bytes.extend_from_slice(&run),
                        _ => expected.push(SrcSeg::Lit(run)),
                    }
                    continue;
                }
                let (lo, hi) = match carries.get((draw[0] / 4) as usize % (carries.len() + 1)) {
                    Some(&carry) => (
                        carry - 1 - draw[1] % carry.min(300),
                        (carry + 1 + draw[2] % 300).min(total),
                    ),
                    None => {
                        let lo = draw[1] % total;
                        (lo, lo + 1 + draw[2] % (total - lo).min(300))
                    }
                };
                for (bytes, seen) in payload.iter_mut().zip(observed(passes, lo..hi)) {
                    bytes.extend_from_slice(&seen);
                }
                let mut location = lo;
                while location < hi {
                    let index = table.iter().position(|taint| location < taint.end()).unwrap();
                    let taint = table[index];
                    let offset = (location - taint.first) as usize;
                    let len = (taint.end().min(hi) - location) as usize;
                    match expected.last_mut() {
                        // A run that starts where the previous one ended
                        // continues it.
                        Some(SrcSeg::Val { id, offset: start, len: run })
                            if *id as usize == index && *start + *run == offset =>
                        {
                            *run += len
                        }
                        _ => expected.push(SrcSeg::Val { id: index as ValId, offset, len }),
                    }
                    location += len as u64;
                }
            }
            for seg in &mut expected {
                if let SrcSeg::Val { id, offset, len } = *seg {
                    *seg = table[id as usize].seg(offset, len);
                }
            }
            prop_assert_eq!(resolve(&payload, &table), Ok(Src { segs: expected }));
        }
    }

    fn exchange_io() -> IoShape {
        IoShape {
            sendbuf: Some(4),
            recvbuf: Some(4),
            ..IoShape::default()
        }
    }

    /// Rank 0's half of a 4-byte exchange with rank 1.
    fn record_exchange(comm: &PlanComm) -> Option<Vec<u8>> {
        let mut sendbuf = vec![0u8; 4];
        comm.fill_sendbuf(&mut sendbuf);
        comm.send(1, 0, &sendbuf);
        let data = comm.recv(1, 1, 4);
        comm.node_barrier();
        Some(data)
    }

    #[test]
    fn plan_comm_records_a_simple_exchange() {
        let topo = Topology::new(1, 2);
        let plan = compile_exec(0, topo, exchange_io(), record_exchange);
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
    #[should_panic(expected = "rank 0: 3 recording passes, but 8 fingerprinted bytes need 2")]
    fn assemble_rejects_a_pass_count_the_location_table_does_not_need() {
        let topo = Topology::new(1, 2);
        let passes = (0..3)
            .map(|pass| {
                let comm = PlanComm::new(0, topo, pass, Fidelity::Exec);
                let out = record_exchange(&comm);
                comm.finish(out)
            })
            .collect();
        assemble(0, topo, Fidelity::Exec, exchange_io(), passes);
    }

    /// Rank 0's half of the exchange, then an op that depends on the
    /// first send-buffer byte: 0x81 in pass 0, 0x80 in pass 1.
    fn record_branching(comm: &PlanComm, op: impl Fn(&PlanComm, u8)) -> Option<Vec<u8>> {
        let mut sendbuf = vec![0u8; 4];
        comm.fill_sendbuf(&mut sendbuf);
        comm.send(1, 0, &sendbuf);
        op(comm, sendbuf[0]);
        None
    }

    /// Both passes allocate their first region, so both intern its name
    /// as 0: only the name tables tell the passes apart.
    #[test]
    #[should_panic(expected = "an algorithm branched on payload contents")]
    fn assemble_rejects_passes_that_name_a_region_by_payload() {
        compile_exec(0, Topology::new(1, 2), exchange_io(), |comm| {
            record_branching(comm, |comm, byte| {
                comm.shared_alloc(if byte == 0x81 { "a" } else { "b" }, 4)
            })
        });
    }

    #[test]
    #[should_panic(expected = "an algorithm branched on payload contents")]
    fn assemble_rejects_passes_that_pick_an_op_by_payload() {
        compile_exec(0, Topology::new(1, 2), exchange_io(), |comm| {
            record_branching(comm, |comm, byte| match byte {
                0x81 => comm.shared_alloc("a", 4),
                _ => comm.node_barrier(),
            })
        });
    }

    /// Exec-fidelity ops hold empty placeholders, so a payload whose length
    /// follows a payload byte is caught by the payload-length comparison.
    #[test]
    #[should_panic(expected = "rank 0: payload lengths diverged between recording passes")]
    fn assemble_rejects_passes_that_size_a_payload_by_payload() {
        compile_exec(0, Topology::new(1, 2), exchange_io(), |comm| {
            record_branching(comm, |comm, byte| {
                comm.send(1, 1, &[0u8; 8][..if byte == 0x81 { 4 } else { 8 }])
            })
        });
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

    /// Under schedule fidelity the in-place reads and the caller-buffer
    /// fills write nothing, and each `_into` read records exactly what its
    /// `Vec` twin records.
    #[test]
    fn schedule_fidelity_in_place_reads_write_nothing_and_record_their_twins() {
        let topo = Topology::new(1, 2);
        let in_place = PlanComm::new(0, topo, 0, Fidelity::Schedule);
        let mut out = [0xA5u8; 24];
        in_place.fill_sendbuf(&mut out[..4]);
        in_place.fill_recvbuf(&mut out[4..8]);
        in_place.recv_into(1, 3, &mut out[..16]);
        in_place.shared_read_into(1, "x", 8, &mut out[16..]);
        assert_eq!(out, [0xA5u8; 24]);
        let twins = PlanComm::new(0, topo, 0, Fidelity::Schedule);
        twins.recv(1, 3, 16);
        twins.shared_read(1, "x", 8, 8);
        let (in_place, twins) = (in_place.finish(None), twins.finish(None));
        assert_eq!(
            in_place.ops,
            vec![
                PlanOp::Recv {
                    source: 1,
                    tag: 3,
                    len: 16,
                    dst: 0
                },
                PlanOp::SharedRead {
                    owner_local: 1,
                    name: 0,
                    offset: 8,
                    len: 8,
                    dst: 1
                },
            ]
        );
        assert_eq!(in_place.names, ["x"]);
        assert_eq!((&in_place.ops, &in_place.names), (&twins.ops, &twins.names));
        assert_eq!(in_place.val_lens, twins.val_lens);
        assert!(in_place.locations.is_empty());
    }

    /// Through the exec compile, landing a receive or a shared read in
    /// place assembles to the same plan as receiving a `Vec` and copying it
    /// into the same slice.
    #[test]
    fn exec_in_place_reads_assemble_to_the_plan_of_read_and_copy() {
        let topo = Topology::new(1, 2);
        let io = IoShape {
            sendbuf: Some(4),
            recvbuf: Some(16),
            ..IoShape::default()
        };
        let body = |in_place: bool| {
            move |comm: &PlanComm| {
                let mut sendbuf = vec![0u8; 4];
                comm.fill_sendbuf(&mut sendbuf);
                let mut recvbuf = vec![0u8; 16];
                comm.fill_recvbuf(&mut recvbuf);
                comm.send(1, 0, &sendbuf);
                if in_place {
                    comm.recv_into(1, 1, &mut recvbuf[2..10]);
                    comm.shared_read_into(1, "x", 4, &mut recvbuf[11..15]);
                } else {
                    recvbuf[2..10].copy_from_slice(&comm.recv(1, 1, 8));
                    recvbuf[11..15].copy_from_slice(&comm.shared_read(1, "x", 4, 4));
                }
                comm.send(1, 2, &recvbuf[..12]);
                Some(recvbuf)
            }
        };
        let plan = compile_exec(0, topo, io, body(true));
        assert_eq!(plan, compile_exec(0, topo, io, body(false)));
        // The received bytes reach the outgoing payload and the output.
        assert!(matches!(
            &plan.ops[3],
            PlanOp::Send { tag: 2, src, .. } if src.segs[1] == SrcSeg::Val { id: 0, offset: 0, len: 8 }
        ));
        assert!(plan.ops.iter().any(|op| matches!(
            op,
            PlanOp::CopyOut { offset: 11, src } if src.segs == vec![SrcSeg::Val { id: 1, offset: 0, len: 4 }]
        )));
    }

    #[test]
    fn reducer_interception_tracks_reduced_data() {
        let topo = Topology::new(1, 1);
        let io = IoShape {
            sendbuf: None,
            recvbuf: Some(8),
            inout: true,
            ..IoShape::default()
        };
        let plan = compile_exec(0, topo, io, |comm| {
            let mut buf = vec![0u8; 8];
            comm.fill_recvbuf(&mut buf);
            let other = comm.recv(0, 0, 8);
            let op = comm.reducer();
            op(&mut buf, &other);
            drop(op);
            comm.send(0, 1, &buf);
            Some(buf)
        });
        // Recv, Reduce, Send, CopyOut.
        assert_eq!(plan.ops.len(), 4);
        // The in/out buffer's input is the receive buffer's entry bytes.
        assert!(matches!(
            &plan.ops[1],
            PlanOp::Reduce { dst: 1, acc, .. }
                if acc.segs == vec![SrcSeg::RecvInit { offset: 0, len: 8 }]
        ));
        assert!(matches!(
            &plan.ops[2],
            PlanOp::Send { src, .. }
                if src.segs == vec![SrcSeg::Val { id: 1, offset: 0, len: 8 }]
        ));
        assert!(matches!(
            &plan.ops[3],
            PlanOp::CopyOut { offset: 0, src }
                if src.segs == vec![SrcSeg::Val { id: 1, offset: 0, len: 8 }]
        ));
        assert!(plan.io.needs_reduce_op);
    }

    /// Every `Comm` method and the recorder's reduction operator reach the
    /// trace through assemble and lowering: messages keep their peers, sizes
    /// and tags, shared reads and writes become transport-priced copies,
    /// `charge_copy` a PiP copy, a reduction a reduction over its second
    /// operand, and the free PiP operations (alloc, publish, collect)
    /// vanish.
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
            comm.reducer()(&mut [0u8; 64], &[0u8; 64]);
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
                },
                TraceOp::CopyIntra {
                    bytes: 12,
                    mechanism: None,
                },
                TraceOp::LocalBarrier,
                TraceOp::CopyIntra {
                    bytes: 40,
                    mechanism: Some(IntranodeMechanism::Pip),
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

    /// A reduction needs no cost hook: the `Reduce` the recorder's operator
    /// writes lowers to a trace reduction over its second operand's bytes,
    /// at its own position.
    #[test]
    fn record_trace_prices_a_reduction_where_it_is_recorded() {
        let trace = record_trace(Topology::new(1, 2), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 0, &[0u8; 24]);
                comm.recv(0, 1, 24);
                return;
            }
            let mut acc = vec![0u8; 24];
            let other = comm.recv(1, 0, 24);
            comm.reducer()(&mut acc, &other);
            comm.send(1, 1, &acc);
        });
        assert_eq!(
            &trace.ranks[0].ops[..],
            &[
                TraceOp::Recv {
                    source: 1,
                    bytes: 24,
                    tag: 0
                },
                TraceOp::Reduce { bytes: 24 },
                TraceOp::Send {
                    dest: 1,
                    bytes: 24,
                    tag: 1
                },
            ][..]
        );
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
