//! **BENCH-REDUCE-KERNELS**: the typed reduction kernels, measured.
//!
//! Sweeps datatype × operator × buffer size and times the two byte-level
//! reduction paths against each other on identical buffers:
//!
//! - **scalar** — `ReduceOp::apply_bytes_scalar`, the per-element
//!   decode/combine/encode reference loop;
//! - **kernel** — `ReduceOp::apply_bytes`, the production kernel: the
//!   operator matched once per call, then one monomorphized per-element
//!   loop (a branch-free one for the float Max/Min), which LLVM
//!   auto-vectorizes.
//!
//! A second table times the conversions between typed slices and their
//! wire bytes — `to_bytes`, `from_bytes` and `read_into` — for f32, f64
//! and i32 on warm buffers.
//!
//! Three headline assertions.  Two are relative to `to_bytes::<f32>` at the
//! same size on the same host: the f32 Sum kernel must run at least
//! 0.5x its rate at 64 KiB and above, and `from_bytes::<f32>` and
//! `read_into::<f32>` at least 0.5x at 64 KiB.  The first fails when the
//! kernel stops vectorising, the second when `Datatype::read_le` loses its
//! `#[inline]`: every decoded element then pays an out-of-line call
//! (measured ≈ 0.1x).  The per-element scalar path is no reference for Sum:
//! with the hint it vectorises too, and for Sum, Prod and the integer ops it
//! compiles to the kernel's own loop, so their speedup column reads ≈ 1x.
//! It is the reference for the float Max/Min folds, whose NaN and
//! signed-zero rules are easy to write in a shape that does not vectorise:
//! the third assertion wants every f32/f64 Max/Min kernel at least 0.8x the
//! scalar path at 64 KiB and above (branchy lanes measured 0.5-0.9x, the
//! branch-free folds 1.5-3x).
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin bench_reduce_kernels
//! ```

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use pip_mcoll_core::datatype::{from_bytes, read_into, to_bytes, Datatype, ReduceOp};

/// Buffer sizes under test, in bytes: cache-resident, the 64 KiB headline
/// point, and a memory-bound megabyte.
const SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 1024 * 1024];

/// Bytes each timing sample chews through (split into repeat applications
/// of the buffer-sized kernel): large enough to time reliably, small enough
/// for a CI smoke run.
const WORK_BYTES: usize = 16 * 1024 * 1024;

/// Timing samples per cell; the median is reported.
const SAMPLES: usize = 3;

/// One measured cell of the type × op × size grid.
struct KernelPoint {
    dtype: &'static str,
    op: ReduceOp,
    bytes: usize,
    scalar_gbs: f64,
    kernel_gbs: f64,
    speedup: f64,
}

/// Deterministic non-degenerate inputs: small positive values so Prod stays
/// finite over thousands of repeat applications and floats never hit NaN or
/// infinity (which would put the comparison on a different hardware path).
trait BenchValue: Datatype {
    const NAME: &'static str;
    fn gen(i: usize) -> Self;
}

impl BenchValue for f32 {
    const NAME: &'static str = "f32";
    fn gen(i: usize) -> Self {
        1.0 + ((i % 64) as f32) * (1.0 / 128.0)
    }
}

impl BenchValue for f64 {
    const NAME: &'static str = "f64";
    fn gen(i: usize) -> Self {
        1.0 + ((i % 64) as f64) * (1.0 / 128.0)
    }
}

impl BenchValue for i32 {
    const NAME: &'static str = "i32";
    fn gen(i: usize) -> Self {
        (i % 251) as i32 - 125
    }
}

impl BenchValue for u64 {
    const NAME: &'static str = "u64";
    fn gen(i: usize) -> Self {
        (i % 251) as u64 + 1
    }
}

/// Median of a handful of throughput samples, each timing `iters` repeat
/// applications of `kernel` over the same pair of buffers.
fn median_gbs(
    kernel: impl Fn(&mut [u8], &[u8]),
    acc_proto: &[u8],
    other: &[u8],
    iters: usize,
) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            // Fresh accumulator per sample so float magnitudes stay bounded
            // across samples (Sum/Prod drift within one sample is fine).
            let mut acc = acc_proto.to_vec();
            let start = Instant::now();
            for _ in 0..iters {
                kernel(&mut acc, other);
            }
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(&acc);
            // Each application reads both buffers and writes one.
            (iters * acc.len()) as f64 / secs / 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

fn bench_cell<T: BenchValue>(op: ReduceOp, bytes: usize) -> KernelPoint {
    let count = bytes / T::SIZE;
    let mut acc = vec![0u8; count * T::SIZE];
    let mut other = vec![0u8; count * T::SIZE];
    for i in 0..count {
        T::gen(i).write_le(&mut acc[i * T::SIZE..(i + 1) * T::SIZE]);
        T::gen(i + 17).write_le(&mut other[i * T::SIZE..(i + 1) * T::SIZE]);
    }
    let iters = (WORK_BYTES / bytes).max(1);

    // Warm both paths (page in the buffers, settle the branch predictors).
    {
        let mut warm = acc.clone();
        op.apply_bytes_scalar::<T>(&mut warm, &other);
        op.apply_bytes::<T>(&mut warm, &other);
    }

    let scalar_gbs = median_gbs(|a, b| op.apply_bytes_scalar::<T>(a, b), &acc, &other, iters);
    let kernel_gbs = median_gbs(|a, b| op.apply_bytes::<T>(a, b), &acc, &other, iters);

    // Sanity: the two paths must produce identical bytes (the differential
    // tests pin this exhaustively; here it guards the benchmark itself
    // against measuring two different computations).
    let mut via_scalar = acc.clone();
    let mut via_kernel = acc;
    op.apply_bytes_scalar::<T>(&mut via_scalar, &other);
    op.apply_bytes::<T>(&mut via_kernel, &other);
    assert_eq!(
        via_scalar,
        via_kernel,
        "{} {} {} B: scalar path and kernel disagree",
        T::NAME,
        op.name(),
        bytes
    );

    KernelPoint {
        dtype: T::NAME,
        op,
        bytes,
        scalar_gbs,
        kernel_gbs,
        speedup: kernel_gbs / scalar_gbs,
    }
}

fn bench_type<T: BenchValue>(grid: &mut Vec<KernelPoint>) {
    for op in ReduceOp::ALL {
        for bytes in SIZES {
            let point = bench_cell::<T>(op, bytes);
            println!(
                "| {} | {} | {} | {:.2} | {:.2} | {:.2}x |",
                point.dtype,
                point.op.name(),
                point.bytes,
                point.scalar_gbs,
                point.kernel_gbs,
                point.speedup
            );
            grid.push(point);
        }
    }
}

/// Warm conversion rates of one datatype at one buffer size: encoding a
/// typed slice ([`to_bytes`]), decoding into a fresh `Vec` ([`from_bytes`])
/// and decoding over an existing slice ([`read_into`]).
struct ConversionPoint {
    dtype: &'static str,
    bytes: usize,
    to_bytes_gbs: f64,
    from_bytes_gbs: f64,
    read_into_gbs: f64,
}

/// Buffer sizes of the conversion table: the 64 KiB headline point and a
/// megabyte.
const CONVERSION_SIZES: [usize; 2] = [64 * 1024, 1024 * 1024];

/// Median throughput of `SAMPLES` samples, each timing `iters` calls of
/// `call`, each of which converts `bytes` bytes.
fn median_call_gbs(bytes: usize, iters: usize, mut call: impl FnMut()) -> f64 {
    // One untimed call pages the buffers in and lets the allocator settle.
    call();
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                call();
            }
            (iters * bytes) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

fn conversion_cell<T: BenchValue>(bytes: usize) -> ConversionPoint {
    let values: Vec<T> = (0..bytes / T::SIZE).map(T::gen).collect();
    let encoded = to_bytes(&values);
    let mut decoded = values.clone();
    let iters = (WORK_BYTES / bytes).max(1);
    let to_bytes_gbs = median_call_gbs(bytes, iters, || {
        black_box(to_bytes(black_box(&values)));
    });
    let from_bytes_gbs = median_call_gbs(bytes, iters, || {
        black_box(from_bytes::<T>(black_box(&encoded)));
    });
    let read_into_gbs = median_call_gbs(bytes, iters, || {
        read_into(black_box(&mut decoded[..]), black_box(&encoded));
    });
    assert_eq!(
        decoded,
        values,
        "{} {bytes} B: decoding lost bytes",
        T::NAME
    );
    ConversionPoint {
        dtype: T::NAME,
        bytes,
        to_bytes_gbs,
        from_bytes_gbs,
        read_into_gbs,
    }
}

fn conversion_type<T: BenchValue>(grid: &mut Vec<ConversionPoint>) {
    for bytes in CONVERSION_SIZES {
        let point = conversion_cell::<T>(bytes);
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} |",
            point.dtype, point.bytes, point.to_bytes_gbs, point.from_bytes_gbs, point.read_into_gbs
        );
        grid.push(point);
    }
}

fn main() {
    println!("=== BENCH-REDUCE-KERNELS: typed reduction kernel vs per-element scalar ===\n");
    println!(
        "{} samples per cell, ~{} MiB per sample, median reported.\n",
        SAMPLES,
        WORK_BYTES / (1024 * 1024)
    );
    println!("| Type | Op | Bytes | Scalar GB/s | Kernel GB/s | Speedup |");
    println!("|---|---|---|---|---|---|");

    let mut grid: Vec<KernelPoint> = Vec::new();
    bench_type::<f32>(&mut grid);
    bench_type::<f64>(&mut grid);
    bench_type::<i32>(&mut grid);
    bench_type::<u64>(&mut grid);

    println!("\n| Type | Bytes | to_bytes GB/s | from_bytes GB/s | read_into GB/s |");
    println!("|---|---|---|---|---|");
    let mut conversions: Vec<ConversionPoint> = Vec::new();
    conversion_type::<f32>(&mut conversions);
    conversion_type::<f64>(&mut conversions);
    conversion_type::<i32>(&mut conversions);

    // Headlines, each against `to_bytes` of the same type and size on the
    // same host, a vectorised streaming encode.  The per-element scalar
    // path is no reference for the Sum kernel: with `read_le` inlined it
    // vectorises too (f32 Sum ≈ 1x the kernel).
    let f32_at = |bytes: usize| {
        conversions
            .iter()
            .find(|p| p.dtype == "f32" && p.bytes == bytes)
            .expect("f32 conversions are measured at every conversion size")
    };
    // The f32 Sum kernel stays vectorised at 64 KiB and above.
    let kernel = grid
        .iter()
        .filter(|p| p.dtype == "f32" && p.op == ReduceOp::Sum && p.bytes >= 64 * 1024)
        .map(|p| p.kernel_gbs / f32_at(p.bytes).to_bytes_gbs)
        .fold(f64::INFINITY, f64::min);
    println!("\nHeadline: the f32 Sum kernel runs at >= {kernel:.2}x to_bytes::<f32> at 64 KiB+.");
    assert!(
        kernel >= 0.5,
        "the f32 Sum kernel fell below 0.5x to_bytes::<f32> ({kernel:.2}x)"
    );
    // The float Max/Min folds keep up with the per-element reference: their
    // NaN and signed-zero handling must not cost them vectorization
    // (compare-and-branch lanes measured 0.5-0.9x).
    let extremum = grid
        .iter()
        .filter(|p| {
            matches!(p.dtype, "f32" | "f64")
                && matches!(p.op, ReduceOp::Max | ReduceOp::Min)
                && p.bytes >= 64 * 1024
        })
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "Headline: the float Max/Min kernels run at >= {extremum:.2}x the scalar path at 64 KiB+."
    );
    assert!(
        extremum >= 0.8,
        "a float Max/Min kernel fell below 0.8x the scalar path ({extremum:.2}x)"
    );
    // Decoding is as fast as encoding: an out-of-line `read_le` costs one
    // call per element, about 0.1x.
    let f32_64k = f32_at(64 * 1024);
    let decode = f32_64k.from_bytes_gbs.min(f32_64k.read_into_gbs) / f32_64k.to_bytes_gbs;
    println!("Headline: from_bytes/read_into::<f32> run at >= {decode:.2}x to_bytes at 64 KiB.");
    assert!(
        decode >= 0.5,
        "decoding f32 fell below 0.5x to_bytes at 64 KiB ({decode:.2}x): is read_le still #[inline]?"
    );
}
