//! Error-bounded lossy compression for float streams (the C-Coll codec).
//!
//! The codec is cuSZ's *dual quantization* (Tian et al., PACT 2020): every
//! element is first quantized **on its own** to the bin grid of the error
//! bound, `q = rne(x / step)` with `step` a hair under `2·bound`, and only
//! then predicted — on the integer bin indices, each as its predecessor's
//! index.  No floating-point value depends on another element's
//! reconstruction, so the encoder has no serial dependency chain: it runs
//! three independent sweeps per 256-element block.
//!
//! 1. **Quantize and check.**  `q = rne(x · (1/step))` via the
//!    `(s + 1.5·2⁵²) − 1.5·2⁵²` trick (`round_ties_even` is a libm call
//!    without SSE4.1), then the exact expression the decoder evaluates,
//!    `round_store(q · step)`, is compared with `x`.  An element becomes an
//!    **exception** unless `|q| < 2⁴⁰` and the reconstruction is within
//!    `bound`; NaN fails both comparisons.
//! 2. **Place the exceptions.**  An exception keeps its own index when it
//!    has one (it failed only the store-rounding check, so its index is as
//!    good a predictor as any); one without (NaN, ±Inf, `|q| ≥ 2⁴⁰`) takes
//!    its predecessor's index, and the last of such a run takes the
//!    midpoint between that and its successor's.  Either way an isolated
//!    exception never widens the block's deltas.
//! 3. **Delta, zigzag, pack.**  The `n − 1` index deltas are zigzagged, the
//!    block's width is the bit length of their OR, and they are packed
//!    LSB-first, flushed a 64-bit word at a time.
//!
//! A block goes verbatim only when its quantized form is not smaller.
//!
//! # Frame format
//!
//! A frame is one block per 256 elements (the last may be short), no
//! header: the receiver knows the raw length from the plan.
//!
//! | block | bytes |
//! |---|---|
//! | verbatim | `0x00`, then the `n` raw little-endian elements |
//! | quantized | `0x01`, width `w ≤ 42`, exception count `c`, anchor, packed deltas, exceptions |
//!
//! * **anchor** — the block's first index as a zigzag LEB128 varint,
//!   delta-coded against the previous *quantized* block's last index (0
//!   at stream start);
//! * **packed deltas** — `⌈(n − 1)·w / 8⌉` bytes;
//! * **exceptions** — `c` times a `u8` element index plus the raw element.
//!
//! # The bound holds by construction
//!
//! The decoder computes `round_store(q · step)` from the same `f64` index
//! and the same `step` the encoder checked, so every non-exception element
//! decodes to a value the encoder already verified within `bound` of the
//! original — and exceptions and verbatim blocks are bit-exact.  Finite
//! elements are therefore always within `bound`, non-finite ones survive
//! bitwise, and incompressible data costs at most one type byte per block
//! over raw ([`max_frame_len`]).
//!
//! Plans embed compressed transfers as fused
//! [`PlanOp::Compress`](crate::plan::PlanOp::Compress) /
//! [`PlanOp::Decompress`](crate::plan::PlanOp::Decompress) ops.  Because
//! plans are symbolic, the byte count a compressed send contributes to a
//! lowered trace must be deterministic: [`calibrated_wire_bytes`]
//! compresses a synthetic smooth stream of matching length once per
//! `(length, codec)` and both endpoints stamp that size into their ops.
//! Live execution ships the real variable-length frame (received with the
//! unsized receive entry points, which skip the exact-length assertion);
//! the plan cursor encodes into, and decodes out of, arena buffers sized by
//! [`max_frame_len`] and the raw length, so the codec allocates nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Element type of a compressed float stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatElem {
    /// IEEE-754 binary32 (`f32`) little-endian elements.
    F32,
    /// IEEE-754 binary64 (`f64`) little-endian elements.
    F64,
}

impl FloatElem {
    /// Byte width of one element.
    pub fn size(self) -> usize {
        match self {
            FloatElem::F32 => 4,
            FloatElem::F64 => 8,
        }
    }

    /// The element type with the given byte width (4 or 8), if any.
    pub fn for_size(size: usize) -> Option<FloatElem> {
        match size {
            4 => Some(FloatElem::F32),
            8 => Some(FloatElem::F64),
            _ => None,
        }
    }
}

/// Element types the error-bounded codec can compress.  Implemented by the
/// IEEE-754 floats only; integer and user-defined element types have no
/// meaningful "absolute error bound" and always travel exact.
pub trait FloatDatatype: crate::datatype::Datatype {
    /// Codec element width of this type.
    const ELEM: FloatElem;
}

impl FloatDatatype for f32 {
    const ELEM: FloatElem = FloatElem::F32;
}

impl FloatDatatype for f64 {
    const ELEM: FloatElem = FloatElem::F64;
}

/// Wire codec for one compressed transfer: the element type plus the
/// absolute error bound every decoded element is guaranteed to satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Element type of the stream.
    pub elem: FloatElem,
    /// Absolute per-element error bound (`|decoded - original| <= bound`).
    pub bound: f64,
}

/// Elements per encoded block.
const BLOCK: usize = 256;
/// Block type byte: raw little-endian element bytes follow.
const TYPE_VERBATIM: u8 = 0;
/// Block type byte: width, exception count, anchor, packed deltas and
/// exceptions follow.
const TYPE_QUANTIZED: u8 = 1;
/// Bin indices at or beyond this magnitude make an element an exception
/// (keeps every delta, zigzag and `f64` conversion far from overflow).
const MAX_INDEX: f64 = (1u64 << 40) as f64;
/// The widest zigzagged delta the encoder emits: indices are below 2⁴⁰ in
/// magnitude, so deltas are below 2⁴¹ and their zigzags below 2⁴².
const MAX_WIDTH: u8 = 42;
/// Largest packed-delta section of one block, in bytes.
const MAX_PACKED: usize = ((BLOCK - 1) * MAX_WIDTH as usize).div_ceil(8);
/// `1.5·2⁵²`: adding and then subtracting it rounds any `|s| < 2⁵¹` to the
/// nearest integer, ties to even — and the sum's low mantissa bits *are*
/// that integer.
const RNE_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Quantization step for a bound.  A hair under `2 * bound` so an element
/// sitting exactly on a bin midpoint still reconstructs within the bound
/// after f64 rounding instead of overshooting by one ulp.  Encoder and
/// decoder must agree on this — both call here.
fn quant_step(bound: f64) -> f64 {
    2.0 * bound * (1.0 - 1e-9)
}

/// Whether `codec` can quantize at all: a positive, finite step with a
/// finite reciprocal.  Otherwise every block goes verbatim.
fn quantizable(codec: Codec) -> bool {
    let step = quant_step(codec.bound);
    step.is_finite() && step > 0.0 && (1.0 / step).is_finite()
}

/// Upper bound on the frame length of a `raw_len`-byte stream under
/// `codec`: a block is quantized only when that is smaller than storing
/// it verbatim, so no frame exceeds raw plus one type byte per block.
pub fn max_frame_len(raw_len: usize, codec: Codec) -> usize {
    raw_len + (raw_len / codec.elem.size()).div_ceil(BLOCK)
}

/// One element type of the stream, so the block codec is monomorphised per
/// width instead of branching per element.
trait Lane {
    const SIZE: usize;
    /// Read one little-endian element as `f64`.
    fn get(bytes: &[u8]) -> f64;
    /// Write `value` stored at this type's precision (little-endian).
    fn put(value: f64, out: &mut [u8]);
    /// The value the decoder holds after storing `value` at this type's
    /// precision.
    fn round_store(value: f64) -> f64;
}

struct F32Lane;
struct F64Lane;

impl Lane for F32Lane {
    const SIZE: usize = 4;

    fn get(bytes: &[u8]) -> f64 {
        f64::from(f32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn put(value: f64, out: &mut [u8]) {
        out.copy_from_slice(&(value as f32).to_le_bytes());
    }

    fn round_store(value: f64) -> f64 {
        f64::from(value as f32)
    }
}

impl Lane for F64Lane {
    const SIZE: usize = 8;

    fn get(bytes: &[u8]) -> f64 {
        f64::from_le_bytes(bytes.try_into().unwrap())
    }

    fn put(value: f64, out: &mut [u8]) {
        out.copy_from_slice(&value.to_le_bytes());
    }

    fn round_store(value: f64) -> f64 {
        value
    }
}

fn zigzag(code: i64) -> u64 {
    ((code << 1) ^ (code >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bit-pack `codes` at `width` bits each, LSB first, a 64-bit word at a
/// time; exactly `⌈codes.len()·width / 8⌉` bytes are appended.
fn pack(codes: &[u64], width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut filled = 0u32;
    for &code in codes {
        acc |= code << filled;
        filled += width;
        if filled >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            filled -= 64;
            // The bits of `code` that did not fit (none when `filled` is 0:
            // codes are below 2^width).
            acc = code >> (width - filled);
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..(filled as usize).div_ceil(8)]);
}

/// `x / step` rounded to the nearest integer, ties to even, for any
/// `|x / step| < 2⁵¹` — plus the shifted sum whose low mantissa bits are
/// that integer.
fn rne(x: f64, inv_step: f64) -> (f64, f64) {
    let shifted = x * inv_step + RNE_MAGIC;
    (shifted - RNE_MAGIC, shifted)
}

/// Whether a rounded bin position is a usable index.
fn indexed(qf: f64) -> bool {
    qf.abs() < MAX_INDEX
}

/// Pass 2: list the positions of one block's exceptions in `at` and give
/// the index-less ones (NaN, ±Inf, `|q| ≥ 2⁴⁰`) indices that keep deltas
/// narrow; returns how many exceptions there are.  `last` is the index the
/// block's first element is predicted from.
fn place_exceptions<L: Lane>(
    chunk: &[u8],
    q: &mut [i64],
    exceptional: &[bool],
    last: i64,
    inv_step: f64,
    at: &mut [u8; BLOCK],
) -> usize {
    let mut count = 0;
    for (i, &e) in exceptional.iter().enumerate() {
        at[count] = i as u8;
        count += usize::from(e);
    }
    let unindexed = |i: usize| {
        exceptional[i] && !indexed(rne(L::get(&chunk[i * L::SIZE..][..L::SIZE]), inv_step).0)
    };
    for &i in &at[..count] {
        let i = usize::from(i);
        if unindexed(i) {
            // The predecessor's index — or, for the last of a run before an
            // indexed element, the midpoint: neither delta then exceeds the
            // larger of the two it replaces.
            let before = if i == 0 { last } else { q[i - 1] };
            q[i] = if i + 1 < q.len() && !unindexed(i + 1) {
                before + (q[i + 1] - before) / 2
            } else {
                before
            };
        }
    }
    count
}

/// Encode `data` (whole `L` elements) block by block into `out`.
fn compress_lanes<L: Lane>(data: &[u8], codec: Codec, out: &mut Vec<u8>) {
    if !quantizable(codec) {
        for chunk in data.chunks(BLOCK * L::SIZE) {
            out.push(TYPE_VERBATIM);
            out.extend_from_slice(chunk);
        }
        return;
    }
    let bound = codec.bound;
    let step = quant_step(bound);
    let inv_step = 1.0 / step;
    let magic_bits = RNE_MAGIC.to_bits() as i64;
    let mut q = [0i64; BLOCK];
    let mut exceptional = [false; BLOCK];
    let mut codes = [0u64; BLOCK];
    let mut at = [0u8; BLOCK];
    // Last index of the previous quantized block: the anchor's reference.
    let mut last = 0i64;
    for chunk in data.chunks(BLOCK * L::SIZE) {
        let n = chunk.len() / L::SIZE;
        let (q, exceptional) = (&mut q[..n], &mut exceptional[..n]);

        // Pass 1: quantize every element on its own and check it against
        // the exact expression the decoder evaluates.
        let mut exceptions = 0usize;
        for ((x, qi), ei) in chunk
            .chunks_exact(L::SIZE)
            .zip(q.iter_mut())
            .zip(exceptional.iter_mut())
        {
            let x = L::get(x);
            let (qf, shifted) = rne(x, inv_step);
            let within = (L::round_store(qf * step) - x).abs() <= bound;
            *qi = (shifted.to_bits() as i64).wrapping_sub(magic_bits);
            *ei = !(indexed(qf) && within);
            exceptions += usize::from(*ei);
        }

        // Pass 2 (rare): list the exceptions, place the index-less ones.
        if exceptions > 0 {
            place_exceptions::<L>(chunk, q, exceptional, last, inv_step, &mut at);
        }

        // Pass 3: deltas, zigzag, OR-reduce for the width.
        let codes = &mut codes[..n - 1];
        let mut or = 0u64;
        for (code, pair) in codes.iter_mut().zip(q.windows(2)) {
            *code = zigzag(pair[1] - pair[0]);
            or |= *code;
        }
        let width = 64 - or.leading_zeros();
        let anchor = zigzag(q[0] - last);
        let quantized_len = 3
            + varint_len(anchor)
            + (codes.len() * width as usize).div_ceil(8)
            + exceptions * (1 + L::SIZE);
        if exceptions < BLOCK && quantized_len < 1 + chunk.len() {
            out.extend_from_slice(&[TYPE_QUANTIZED, width as u8, exceptions as u8]);
            put_varint(anchor, out);
            pack(codes, width, out);
            for &i in &at[..exceptions] {
                out.push(i);
                out.extend_from_slice(&chunk[usize::from(i) * L::SIZE..][..L::SIZE]);
            }
            last = q[n - 1];
        } else {
            out.push(TYPE_VERBATIM);
            out.extend_from_slice(chunk);
        }
    }
}

/// Append the frame of the little-endian float stream `data` under `codec`
/// to `out`.  Reserves [`max_frame_len`] up front, so a buffer handed in
/// with that much spare capacity is never reallocated.
///
/// # Panics
///
/// Panics when `data.len()` is not a multiple of the element width.
pub fn compress_into(data: &[u8], codec: Codec, out: &mut Vec<u8>) {
    assert_eq!(
        data.len() % codec.elem.size(),
        0,
        "compressed stream must be whole elements"
    );
    out.reserve(max_frame_len(data.len(), codec));
    match codec.elem {
        FloatElem::F32 => compress_lanes::<F32Lane>(data, codec, out),
        FloatElem::F64 => compress_lanes::<F64Lane>(data, codec, out),
    }
}

/// Compress a little-endian float stream under `codec` into a fresh frame
/// (see [`compress_into`]).
///
/// # Panics
///
/// Panics when `data.len()` is not a multiple of the element width.
pub fn compress(data: &[u8], codec: Codec) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, codec, &mut out);
    out
}

#[cold]
#[track_caller]
fn corrupt(what: std::fmt::Arguments<'_>) -> ! {
    panic!("corrupt compressed frame: {what}")
}

/// Bounds-checked reads from a frame; running off its end is corruption.
struct Reader<'a> {
    frame: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> &'a [u8] {
        let Some(bytes) = self.frame.get(self.pos..self.pos + len) else {
            corrupt(format_args!("truncated at byte {}", self.pos))
        };
        self.pos += len;
        bytes
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// A LEB128 varint no wider than a zigzagged index delta.
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
            if shift > u32::from(MAX_WIDTH) {
                corrupt(format_args!("overlong anchor"))
            }
        }
        if v >> MAX_WIDTH != 0 {
            corrupt(format_args!("anchor {v:#x} out of range"))
        }
        v
    }
}

/// An index the encoder cannot have emitted is corruption (and keeping
/// every block's ends below 2⁴⁰ keeps the decoder's arithmetic exact).
fn check_index(index: i64) {
    if index.unsigned_abs() >= 1 << 40 {
        corrupt(format_args!("bin index {index} out of range"))
    }
}

/// Decode `count` `L` elements from `frame` into `out`.
fn decompress_lanes<L: Lane>(frame: &[u8], count: usize, codec: Codec, out: &mut Vec<u8>) {
    let step = quant_step(codec.bound);
    let mut reader = Reader { frame, pos: 0 };
    let mut block = [0u8; BLOCK * 8];
    // The packed deltas, zero-padded so every code is one unaligned 64-bit
    // load: a code starts at most 7 bits into its first byte and is at most
    // 42 bits wide.
    let mut packed = [0u8; MAX_PACKED + 8];
    let mut indices = [0i64; BLOCK];
    let magic_bits = RNE_MAGIC.to_bits() as i64;
    let mut last = 0i64;
    let mut remaining = count;
    while remaining > 0 {
        let n = remaining.min(BLOCK);
        remaining -= n;
        let bytes = n * L::SIZE;
        match reader.byte() {
            TYPE_VERBATIM => out.extend_from_slice(reader.take(bytes)),
            TYPE_QUANTIZED => {
                let width = reader.byte();
                if width > MAX_WIDTH {
                    corrupt(format_args!("code width {width} exceeds {MAX_WIDTH}"))
                }
                let width = usize::from(width);
                let exceptions = reader.byte();
                let mut index = last + unzigzag(reader.varint());
                check_index(index);
                let codes = reader.take(((n - 1) * width).div_ceil(8));
                packed[..codes.len()].copy_from_slice(codes);
                let mask = (1u64 << width) - 1;
                indices[0] = index;
                for (i, slot) in indices[1..n].iter_mut().enumerate() {
                    let bit = i * width;
                    let word = u64::from_le_bytes(packed[bit / 8..][..8].try_into().unwrap());
                    index += unzigzag((word >> (bit % 8)) & mask);
                    *slot = index;
                }
                check_index(index);
                last = index;
                // `q as f64` through the magic constant: exact for the
                // |q| < 2⁵¹ a block can reach, and free of a scalar
                // conversion.
                for (value, &q) in block[..bytes].chunks_exact_mut(L::SIZE).zip(&indices[..n]) {
                    let qf = f64::from_bits(q.wrapping_add(magic_bits) as u64) - RNE_MAGIC;
                    L::put(qf * step, value);
                }
                for _ in 0..exceptions {
                    let at = usize::from(reader.byte());
                    if at >= n {
                        corrupt(format_args!("exception index {at} beyond a block of {n}"))
                    }
                    block[at * L::SIZE..][..L::SIZE].copy_from_slice(reader.take(L::SIZE));
                }
                out.extend_from_slice(&block[..bytes]);
            }
            other => corrupt(format_args!("unknown block type {other}")),
        }
    }
    if reader.pos != frame.len() {
        corrupt(format_args!("{} trailing bytes", frame.len() - reader.pos))
    }
}

/// Append the `raw_len` bytes of little-endian elements that `frame` (a
/// [`compress`] / [`compress_into`] frame under the same `codec`) decodes
/// to onto `out`.  Reserves `raw_len` up front.
///
/// # Panics
///
/// Panics with "corrupt compressed frame" on a malformed frame (frames
/// only travel between the codec's own endpoints; corruption is a logic
/// error, not an input condition), and when `raw_len` is not whole
/// elements.
pub fn decompress_into(frame: &[u8], raw_len: usize, codec: Codec, out: &mut Vec<u8>) {
    let elem = codec.elem.size();
    assert_eq!(raw_len % elem, 0, "raw length must be whole elements");
    out.reserve(raw_len);
    match codec.elem {
        FloatElem::F32 => decompress_lanes::<F32Lane>(frame, raw_len / elem, codec, out),
        FloatElem::F64 => decompress_lanes::<F64Lane>(frame, raw_len / elem, codec, out),
    }
}

/// Decompress a frame produced by [`compress`] back into a fresh buffer of
/// `raw_len` bytes (see [`decompress_into`]).
///
/// # Panics
///
/// As [`decompress_into`].
pub fn decompress(frame: &[u8], raw_len: usize, codec: Codec) -> Vec<u8> {
    let mut out = Vec::new();
    decompress_into(frame, raw_len, codec, &mut out);
    out
}

/// Deterministic smooth calibration stream: the value of element `i`.
///
/// Plans are symbolic, so the byte count a compressed send contributes to
/// a lowered trace cannot depend on runtime payloads.  Both endpoints of a
/// rewritten transfer instead price the wire with the compressed size of
/// this stream — a slow sine typical of the smooth scientific fields
/// lossy-compressed collectives target.
fn calibration_value(i: usize) -> f64 {
    (i as f64 * 0.001).sin() * 10.0
}

/// The wire size a `raw_len`-byte transfer under `codec` is priced at in
/// lowered traces: the compressed size of the deterministic calibration
/// stream of the same length.  Cached process-wide per `(length, codec)`.
pub fn calibrated_wire_bytes(raw_len: usize, codec: Codec) -> usize {
    static CACHE: Mutex<BTreeMap<(usize, u8, u64), usize>> = Mutex::new(BTreeMap::new());
    let key = (raw_len, codec.elem.size() as u8, codec.bound.to_bits());
    if let Some(&size) = CACHE.lock().unwrap().get(&key) {
        return size;
    }
    let count = raw_len / codec.elem.size();
    let data: Vec<u8> = match codec.elem {
        FloatElem::F32 => (0..count)
            .flat_map(|i| (calibration_value(i) as f32).to_le_bytes())
            .collect(),
        FloatElem::F64 => (0..count)
            .flat_map(|i| calibration_value(i).to_le_bytes())
            .collect(),
    };
    let size = compress(&data, codec).len();
    CACHE.lock().unwrap().insert(key, size);
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_bytes(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn f32_bytes(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn assert_bound_f64(original: &[u8], decoded: &[u8], bound: f64) {
        for (o, d) in original.chunks_exact(8).zip(decoded.chunks_exact(8)) {
            let o = f64::from_le_bytes(o.try_into().unwrap());
            let d = f64::from_le_bytes(d.try_into().unwrap());
            if o.is_finite() {
                assert!((d - o).abs() <= bound, "|{d} - {o}| > {bound}");
            } else {
                assert_eq!(o.to_bits(), d.to_bits(), "non-finite must pass verbatim");
            }
        }
    }

    fn assert_bound_f32(original: &[u8], decoded: &[u8], bound: f64) {
        for (o, d) in original.chunks_exact(4).zip(decoded.chunks_exact(4)) {
            let o = f32::from_le_bytes(o.try_into().unwrap());
            let d = f32::from_le_bytes(d.try_into().unwrap());
            if o.is_finite() {
                let err = (f64::from(d) - f64::from(o)).abs();
                assert!(err <= bound, "|{d} - {o}| > {bound}");
            } else {
                assert_eq!(o.to_bits(), d.to_bits(), "non-finite must pass verbatim");
            }
        }
    }

    /// splitmix64 step, for seeded test streams.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (mix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A smooth field like the ones lossy collectives carry: two sinusoids
    /// of seeded amplitude, phase and period (thousands and hundreds of
    /// elements), on a grid of 1/1024.
    fn smooth_stream(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed;
        let tau = std::f64::consts::TAU;
        let (amp_a, amp_b) = (1.0 + 2.0 * unit(&mut s), 0.25 + 0.5 * unit(&mut s));
        let (phase_a, phase_b) = (tau * unit(&mut s), tau * unit(&mut s));
        let step_a = tau / (4000.0 + 4000.0 * unit(&mut s));
        let step_b = tau / (600.0 + 600.0 * unit(&mut s));
        (0..len)
            .map(|i| {
                let x = i as f64;
                let v = amp_a * (phase_a + step_a * x).sin() + amp_b * (phase_b + step_b * x).sin();
                ((v * 1024.0).round() / 1024.0) as f32
            })
            .collect()
    }

    #[test]
    fn smooth_stream_round_trips_within_bound_and_compresses() {
        for &bound in &[1e-2, 1e-4, 1e-6] {
            let codec = Codec {
                elem: FloatElem::F64,
                bound,
            };
            let values: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
            let raw = f64_bytes(&values);
            let frame = compress(&raw, codec);
            assert!(
                frame.len() * 4 <= raw.len(),
                "smooth f64 stream should compress >= 4x at bound {bound} \
                 (got {} from {})",
                frame.len(),
                raw.len()
            );
            let decoded = decompress(&frame, raw.len(), codec);
            assert_eq!(decoded.len(), raw.len());
            assert_bound_f64(&raw, &decoded, bound);
        }
    }

    #[test]
    fn f32_streams_hold_the_bound_despite_storage_rounding() {
        let codec = Codec {
            elem: FloatElem::F32,
            bound: 1e-3,
        };
        let values: Vec<f32> = (0..1000)
            .map(|i| ((i as f32 * 0.02).sin() * 100.0) + i as f32)
            .collect();
        let raw = f32_bytes(&values);
        let frame = compress(&raw, codec);
        let decoded = decompress(&frame, raw.len(), codec);
        assert_bound_f32(&raw, &decoded, codec.bound);
    }

    #[test]
    fn incompressible_stream_expands_at_most_one_byte_per_block() {
        let codec = Codec {
            elem: FloatElem::F64,
            bound: 1e-12,
        };
        // Pseudo-random wild magnitudes: every bin index is far beyond
        // 2^40, so every element is an exception and blocks go verbatim.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let values: Vec<f64> = (0..2048)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e18
            })
            .collect();
        let raw = f64_bytes(&values);
        let frame = compress(&raw, codec);
        assert!(frame.len() <= raw.len() + raw.len().div_ceil(BLOCK * 8));
        assert!(frame.len() <= max_frame_len(raw.len(), codec));
        let decoded = decompress(&frame, raw.len(), codec);
        assert_eq!(decoded, raw, "verbatim blocks must be bit-exact");
    }

    /// Non-finite elements come back bitwise, finite ones within the bound
    /// — whether the block around them is quantized or verbatim.
    #[test]
    fn non_finite_values_pass_through_verbatim() {
        let codec = Codec {
            elem: FloatElem::F64,
            bound: 0.5,
        };
        let values = vec![1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0];
        let raw = f64_bytes(&values);
        let frame = compress(&raw, codec);
        let decoded = decompress(&frame, raw.len(), codec);
        assert_bound_f64(&raw, &decoded, codec.bound);
    }

    /// One NaN in an otherwise smooth f32 block is one exception — an index
    /// byte plus the raw element — and nothing else: the block stays
    /// quantized at its width.  The NaN sits at the block's steepest point,
    /// where an index copied from the predecessor would double a maximal
    /// delta.
    #[test]
    fn a_nan_in_a_smooth_block_costs_one_exception() {
        let codec = Codec {
            elem: FloatElem::F32,
            bound: 1e-3 / 30.0,
        };
        for seed in 0..8 {
            let values = smooth_stream(seed, BLOCK);
            let steepest = (1..BLOCK - 1)
                .max_by(|&a, &b| {
                    let slope = |i: usize| (values[i + 1] - values[i - 1]).abs();
                    slope(a).total_cmp(&slope(b))
                })
                .unwrap();
            let mut with_nan = values.clone();
            with_nan[steepest] = f32::NAN;
            let clean = compress(&f32_bytes(&values), codec);
            let raw = f32_bytes(&with_nan);
            let frame = compress(&raw, codec);
            assert_eq!(frame[0], TYPE_QUANTIZED, "seed {seed}: block went verbatim");
            assert!(
                frame.len() <= clean.len() + 1 + 4,
                "seed {seed}: a NaN at {steepest} cost {} bytes",
                frame.len() - clean.len()
            );
            assert_bound_f32(&raw, &decompress(&frame, raw.len(), codec), codec.bound);
        }
    }

    /// Partial sums of many smooth f32 streams, at the per-hop bound of a
    /// 16-rank ring (1e-3 / 30), compress at least 3x: storage rounding
    /// makes some elements exceptions, but each costs five bytes, not its
    /// block.
    #[test]
    fn f32_partial_sums_of_many_streams_compress_three_fold() {
        let codec = Codec {
            elem: FloatElem::F32,
            bound: 1e-3 / 30.0,
        };
        let len = 16 * 1024;
        for streams in [8u64, 16] {
            let mut sum = vec![0.0f32; len];
            for seed in 0..streams {
                for (acc, v) in sum.iter_mut().zip(smooth_stream(100 + seed, len)) {
                    *acc += v;
                }
            }
            let raw = f32_bytes(&sum);
            let frame = compress(&raw, codec);
            let ratio = raw.len() as f64 / frame.len() as f64;
            assert!(ratio >= 3.0, "{streams} streams compress only {ratio:.2}x");
            assert_bound_f32(&raw, &decompress(&frame, raw.len(), codec), codec.bound);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt compressed frame")]
    fn a_corrupt_width_byte_is_rejected() {
        let codec = Codec {
            elem: FloatElem::F32,
            bound: 1e-3,
        };
        let raw = f32_bytes(&smooth_stream(1, BLOCK));
        let mut frame = compress(&raw, codec);
        assert_eq!(frame[0], TYPE_QUANTIZED);
        frame[1] = MAX_WIDTH + 1;
        decompress(&frame, raw.len(), codec);
    }

    #[test]
    #[should_panic(expected = "corrupt compressed frame")]
    fn a_truncated_frame_is_rejected() {
        let codec = Codec {
            elem: FloatElem::F64,
            bound: 1e-3,
        };
        let raw = f64_bytes(&[0.5; 300]);
        let frame = compress(&raw, codec);
        decompress(&frame[..frame.len() - 1], raw.len(), codec);
    }

    #[test]
    fn zero_bound_degenerates_to_bit_exact_verbatim() {
        let codec = Codec {
            elem: FloatElem::F32,
            bound: 0.0,
        };
        let values: Vec<f32> = (0..700).map(|i| (i as f32).sqrt()).collect();
        let raw = f32_bytes(&values);
        let frame = compress(&raw, codec);
        let decoded = decompress(&frame, raw.len(), codec);
        assert_eq!(decoded, raw);
    }

    #[test]
    fn empty_stream_round_trips() {
        let codec = Codec {
            elem: FloatElem::F64,
            bound: 1e-3,
        };
        let frame = compress(&[], codec);
        assert!(frame.is_empty());
        assert!(decompress(&frame, 0, codec).is_empty());
    }

    #[test]
    fn constant_stream_collapses_to_near_nothing() {
        let codec = Codec {
            elem: FloatElem::F64,
            bound: 1e-3,
        };
        let raw = f64_bytes(&vec![0.125f64; 4096]);
        let frame = compress(&raw, codec);
        // Every index equals the first: zero-width deltas, so each block is
        // its three header bytes plus a one-byte anchor.
        assert!(
            frame.len() < raw.len() / 100,
            "constant stream should collapse (got {})",
            frame.len()
        );
        let decoded = decompress(&frame, raw.len(), codec);
        assert_bound_f64(&raw, &decoded, codec.bound);
    }

    #[test]
    fn calibrated_wire_bytes_is_deterministic_and_smaller() {
        let codec = Codec {
            elem: FloatElem::F32,
            bound: 1e-3,
        };
        let a = calibrated_wire_bytes(1 << 20, codec);
        let b = calibrated_wire_bytes(1 << 20, codec);
        assert_eq!(a, b);
        assert!(
            a * 4 <= 1 << 20,
            "calibration stream should compress >= 4x (got {a})"
        );
        // A different bound must calibrate independently.
        let tighter = calibrated_wire_bytes(
            1 << 20,
            Codec {
                elem: FloatElem::F32,
                bound: 1e-6,
            },
        );
        assert!(tighter >= a);
    }

    /// The streams of the wire-format table.  Built from `+`, `*` and
    /// integer hashing only — no libm — so they are the same bits on every
    /// platform.
    const WIRE_STREAMS: [&str; 5] = ["smooth", "partial-sum", "constant", "specials", "wild"];

    fn wire_stream(stream: &str, elem: FloatElem, len: usize) -> Vec<u8> {
        // A cubic over [-2, 4): smooth, magnitude ~10.
        let cubic = |i: usize, shift: f64| {
            let t = i as f64 / 700.0 - 2.0 + shift;
            0.5 * t * (t - 3.0) * (t + 2.0)
        };
        let mut state = 7u64;
        let values: Vec<f64> = (0..len)
            .map(|i| match stream {
                "smooth" => cubic(i, 0.0),
                // Eight shifted cubics summed at the element's precision, as
                // a reduction's intermediate hop holds them.
                "partial-sum" => (0..8).fold(0.0, |acc: f64, k| {
                    let v = acc + cubic(i, k as f64 * 0.37);
                    match elem {
                        FloatElem::F32 => f64::from(v as f32),
                        FloatElem::F64 => v,
                    }
                }),
                "constant" => 0.1,
                "specials" => match i % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => match elem {
                        FloatElem::F32 => f64::from(f32::from_bits(1)),
                        FloatElem::F64 => f64::from_bits(1),
                    },
                    3 => f64::NAN,
                    4 => f64::INFINITY,
                    5 => f64::NEG_INFINITY,
                    _ => cubic(i, 0.0),
                },
                "wild" => (unit(&mut state) - 0.5) * 1e18,
                other => unreachable!("{other}"),
            })
            .collect();
        match elem {
            FloatElem::F32 => values
                .iter()
                .flat_map(|&v| (v as f32).to_le_bytes())
                .collect(),
            FloatElem::F64 => f64_bytes(&values),
        }
    }

    /// FNV-1a of the frames of every table stream at every table length,
    /// one row per element type × bound × stream.
    fn wire_table() -> Vec<(String, u64)> {
        let mut rows = Vec::new();
        for elem in [FloatElem::F32, FloatElem::F64] {
            for bound in [1e-2, 3.3e-5, 1e-9] {
                let codec = Codec { elem, bound };
                for stream in WIRE_STREAMS {
                    let mut hash = 0xcbf2_9ce4_8422_2325u64;
                    for len in [1, 255, 256, 257, 4099] {
                        let raw = wire_stream(stream, elem, len);
                        let frame = compress(&raw, codec);
                        let decoded = decompress(&frame, raw.len(), codec);
                        match elem {
                            FloatElem::F32 => assert_bound_f32(&raw, &decoded, bound),
                            FloatElem::F64 => assert_bound_f64(&raw, &decoded, bound),
                        }
                        for byte in (frame.len() as u64).to_le_bytes().iter().chain(&frame) {
                            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
                        }
                    }
                    rows.push((format!("{elem:?}/{bound:e}/{stream}"), hash));
                }
            }
        }
        rows
    }

    /// The wire format is frozen on purpose: a frame that changes by one
    /// bit changes a row here.  If the format is changed deliberately,
    /// print the new table with
    /// `cargo test -p pip-collectives --lib -- --ignored --nocapture print_wire_table`.
    #[test]
    fn wire_format_is_frozen() {
        let table = wire_table();
        let moved: Vec<String> = table
            .iter()
            .zip(WIRE_TABLE)
            .filter(|((name, hash), (gname, ghash))| name != gname || hash != ghash)
            .map(|((name, hash), (_, ghash))| format!("{name}: {hash:#018x} != {ghash:#018x}"))
            .collect();
        assert_eq!(table.len(), WIRE_TABLE.len(), "row list and table differ");
        assert!(moved.is_empty(), "frames moved:\n{}", moved.join("\n"));
    }

    #[test]
    #[ignore = "prints the wire-format table after a deliberate format change"]
    fn print_wire_table() {
        for (name, hash) in wire_table() {
            println!("        (\"{name}\", {hash:#018x}),");
        }
    }

    #[rustfmt::skip]
    const WIRE_TABLE: &[(&str, u64)] = &[
        ("F32/1e-2/smooth", 0x631f82aa36c8b54f),
        ("F32/1e-2/partial-sum", 0x4eda78f8b4bc36be),
        ("F32/1e-2/constant", 0x1e309fa3c507c087),
        ("F32/1e-2/specials", 0x1c3f88088739b7ea),
        ("F32/1e-2/wild", 0x0109c1fadce9868e),
        ("F32/3.3e-5/smooth", 0xac75921f2a66144b),
        ("F32/3.3e-5/partial-sum", 0x7a8ddb935ff4b72e),
        ("F32/3.3e-5/constant", 0xc81f728f4533b23d),
        ("F32/3.3e-5/specials", 0xf576f600810e56d3),
        ("F32/3.3e-5/wild", 0x0109c1fadce9868e),
        ("F32/1e-9/smooth", 0x6a14bad99aba87ff),
        ("F32/1e-9/partial-sum", 0x4d31f21fecdf9862),
        ("F32/1e-9/constant", 0x57288c0b0ae50a59),
        ("F32/1e-9/specials", 0x78e6851a5e649c67),
        ("F32/1e-9/wild", 0x0109c1fadce9868e),
        ("F64/1e-2/smooth", 0x631f82aa36c8b54f),
        ("F64/1e-2/partial-sum", 0x2f63750b4104e532),
        ("F64/1e-2/constant", 0x1e309fa3c507c087),
        ("F64/1e-2/specials", 0x81b24464f6335895),
        ("F64/1e-2/wild", 0x5314325111fd21a7),
        ("F64/3.3e-5/smooth", 0x0451683a17533b73),
        ("F64/3.3e-5/partial-sum", 0xb42bcbf573ffcc51),
        ("F64/3.3e-5/constant", 0xbabfc78681fafdcf),
        ("F64/3.3e-5/specials", 0x9b13ea6ac1d522d0),
        ("F64/3.3e-5/wild", 0x5314325111fd21a7),
        ("F64/1e-9/smooth", 0x692f8febf9851168),
        ("F64/1e-9/partial-sum", 0x1b0faccb9f59b36e),
        ("F64/1e-9/constant", 0xd58d6b5fdfb8b84a),
        ("F64/1e-9/specials", 0x07901ffe4894ace9),
        ("F64/1e-9/wild", 0x5314325111fd21a7),
    ];
}
