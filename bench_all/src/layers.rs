//! The layer replay of the execute-plane traced runs.
//!
//! The traced stretch counted what a round asks of each layer (plan
//! lookups, arena acquisitions, fabric messages), and the compiled plans
//! say how many bytes it reduces, copies, codes and converts in calls of
//! which size.  Here each layer's public entry point is called in
//! isolation, with those sizes, to price those counts.  With one driver
//! thread nothing contends, so `count x unit cost` is the most a round can
//! gain from that layer.  Whatever the priced layers do not
//! explain is the interpreter residual: cursor stepping, `materialize`, the
//! progress engine, allocation and page faults.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use pip_collectives::compress::{compress, decompress};
use pip_collectives::plan::{BufferArena, Fidelity, PlanOp, RankPlan};
use pip_collectives::Codec;
use pip_mcoll_core::datatype::{from_bytes, to_bytes};
use pip_mcoll_core::{ReduceKernel, ReduceOp, World as ThreadedWorld};
use pip_mpi_model::plan::compile_rank;
use pip_mpi_model::{CollectiveShape, CompressSpec, Library, OwnedCollective, PlanCache};
use pip_runtime::fabric::MatchSpec;
use pip_runtime::{Cluster, Fabric, NodeSpace, Topology};
use pip_transport::memcpy::MemcpyModel;
use pip_transport::{engine_for, IntranodeMechanism};

use crate::clock::without_companion;
use crate::exec::{Counters, ExecSpec, Inputs, OpKind, OpSpec, COMPRESS_BOUND, NODES, PPN, WORLD};
use crate::stats::median;
use crate::workloads::LayerMetrics;

/// Size the issue fixes for the named bandwidth metrics.
const BANDWIDTH_BYTES: usize = 256 * 1024;

/// Median wall time of one call of `f`, in nanoseconds, over batches sized
/// so that clock reads are noise.
fn time_ns(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 15;
    const BATCH_NS: f64 = 200_000.0;
    f();
    let started = Instant::now();
    f();
    let once = started.elapsed().as_nanos().max(1) as f64;
    let calls = (BATCH_NS / once).clamp(1.0, 20_000.0) as usize;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// The plan-cache key of one op of the table.
fn shape_of(op: &OpSpec, world: usize) -> CollectiveShape {
    let profile = Library::PipMColl.profile();
    let sum = pip_mcoll_core::OwnedReduction::Typed(ReduceKernel::of::<f32>(ReduceOp::Sum));
    let bytes = op.elems * 4;
    let owned = match op.kind {
        OpKind::Allgather | OpKind::PersistentAllgather => OwnedCollective::Allgather {
            sendbuf: vec![0; bytes],
        },
        OpKind::Scatter => OwnedCollective::Scatter {
            sendbuf: None,
            block: bytes,
            root: 0,
        },
        OpKind::Allreduce | OpKind::PersistentAllreduce => OwnedCollective::Allreduce {
            buf: vec![0; bytes],
            op: sum,
            layout: None,
            compress: None,
        },
        OpKind::AllreduceCompressed => OwnedCollective::Allreduce {
            buf: vec![0; bytes],
            op: sum,
            layout: None,
            compress: Some(CompressSpec::from_bound(
                COMPRESS_BOUND,
                profile.selection.compress_min_bytes,
            )),
        },
        OpKind::ReduceScatter => OwnedCollective::ReduceScatter {
            sendbuf: vec![0; bytes * world],
            op: sum,
        },
    };
    owned.shape(world)
}

/// Calls by size in bytes.
type Sizes = BTreeMap<usize, u64>;

/// What the compiled plans of one op ask for, summed over ranks: how many
/// calls of which size each byte-moving layer gets.
#[derive(Debug, Clone, Default)]
struct PlanCounts {
    ops: u64,
    reduce: Sizes,
    copy: Sizes,
    compress: Sizes,
    decompress: Sizes,
    /// Typed -> bytes conversion of the input at the API boundary.
    to_bytes: Sizes,
    /// Bytes -> typed conversion of the result.
    from_bytes: Sizes,
}

impl PlanCounts {
    fn add_plan(&mut self, plan: &RankPlan, scale: u64) {
        let call = |sizes: &mut Sizes, bytes: usize| {
            if bytes > 0 {
                *sizes.entry(bytes).or_default() += scale;
            }
        };
        for op in &plan.ops {
            match op {
                PlanOp::SharedPublish { src, .. }
                | PlanOp::SharedWrite { src, .. }
                | PlanOp::Send { src, .. }
                | PlanOp::CopyOut { src, .. } => call(&mut self.copy, src.len()),
                PlanOp::SharedCollect { len, .. }
                | PlanOp::SharedRead { len, .. }
                | PlanOp::SendFromShared { len, .. }
                | PlanOp::RecvIntoShared { len, .. } => call(&mut self.copy, *len),
                PlanOp::Compress { src, .. } => {
                    call(&mut self.copy, src.len());
                    call(&mut self.compress, src.len());
                }
                PlanOp::Decompress { raw_len, .. } => call(&mut self.decompress, *raw_len),
                PlanOp::Reduce { other, .. } => call(&mut self.reduce, other.len()),
                _ => {}
            }
        }
        self.ops += scale * plan.ops.len() as u64;
        // The input goes in and the result comes out as typed slices (the
        // same buffer for in/out ops).
        let io = plan.io;
        let input = if io.inout { io.recvbuf } else { io.sendbuf };
        call(&mut self.to_bytes, input.unwrap_or(0));
        call(&mut self.from_bytes, io.recvbuf.unwrap_or(0));
    }
}

/// Prices calls of a given size by timing them once per distinct
/// (layer, size) pair.
#[derive(Default)]
struct Pricer {
    memo: BTreeMap<(&'static str, usize), f64>,
}

impl Pricer {
    /// Microseconds `sizes` costs when one call of `bytes` bytes takes
    /// `time(bytes)` nanoseconds.
    fn price(&mut self, layer: &'static str, sizes: &Sizes, time: impl Fn(usize) -> f64) -> f64 {
        sizes
            .iter()
            .map(|(&bytes, &calls)| {
                let ns = *self
                    .memo
                    .entry((layer, bytes))
                    .or_insert_with(|| time(bytes));
                calls as f64 * ns / 1e3
            })
            // An empty f64 sum is -0.0; keep the table free of "-0.0".
            .fold(0.0, |total, us| total + us)
    }
}

fn plan_hit_ns(shapes: &[CollectiveShape], topology: Topology) -> f64 {
    let profile = Library::PipMColl.profile();
    let mut cache = PlanCache::new();
    for shape in shapes {
        cache.lookup_or_compile(&profile, topology, 0, shape);
    }
    let mut next = 0usize;
    time_ns(|| {
        let shape = &shapes[next % shapes.len()];
        next += 1;
        black_box(cache.lookup_or_compile(&profile, topology, 0, black_box(shape)));
    })
}

fn arena_ns(classes: &[usize]) -> f64 {
    let mut arena = BufferArena::new();
    for &len in classes {
        let buf = arena.acquire(len);
        arena.release(buf);
    }
    let mut next = 0usize;
    time_ns(|| {
        let len = classes[next % classes.len()];
        next += 1;
        let buf = arena.acquire(black_box(len));
        arena.release(black_box(buf));
    })
}

fn fabric_ns(payload_bytes: usize) -> f64 {
    let fabric = Fabric::new(WORLD);
    let payload = vec![7u8; payload_bytes];
    let mut tag = 0u64;
    time_ns(|| {
        tag += 1;
        fabric.send_bytes(1, 2, tag, &payload).expect("send");
        let msg = fabric
            .try_recv(2, MatchSpec::exact(1, tag))
            .expect("try_recv")
            .expect("message just sent");
        black_box(msg);
    })
}

fn reduce_ns(bytes: usize) -> f64 {
    let kernel = ReduceKernel::of::<f32>(ReduceOp::Sum);
    let mut acc = to_bytes(&vec![0.0f32; bytes / 4]);
    let other = to_bytes(&vec![1.0f32 / 1024.0; bytes / 4]);
    time_ns(|| kernel.apply(black_box(&mut acc), black_box(&other)))
}

fn copy_ns(mechanism: IntranodeMechanism, bytes: usize) -> f64 {
    let mut engine = engine_for(mechanism);
    let src = vec![3u8; bytes];
    let mut dst = vec![0u8; bytes];
    time_ns(|| {
        black_box(engine.copy(black_box(&src), black_box(&mut dst)));
    })
}

fn to_bytes_ns(bytes: usize) -> f64 {
    let values = vec![0.5f32; bytes / 4];
    time_ns(|| {
        black_box(to_bytes(black_box(&values)));
    })
}

fn from_bytes_ns(bytes: usize) -> f64 {
    let raw = vec![0u8; bytes];
    time_ns(|| {
        black_box(from_bytes::<f32>(black_box(&raw)));
    })
}

fn compress_ns(chunk: &[u8], codec: Codec) -> f64 {
    time_ns(|| {
        black_box(compress(black_box(chunk), codec));
    })
}

fn decompress_ns(chunk: &[u8], codec: Codec) -> f64 {
    let frame = compress(chunk, codec);
    time_ns(|| {
        black_box(decompress(black_box(&frame), chunk.len(), codec));
    })
}

fn expose_attach_ns() -> f64 {
    const NAMES: usize = 1000;
    let node = NodeSpace::new(0, PPN);
    let names: Vec<String> = (0..NAMES).map(|i| format!("pl{i}.region")).collect();
    let per_pair: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for name in &names {
                node.expose(0, name.as_str(), 64).expect("expose");
                black_box(node.attach(0, name).expect("attach"));
            }
            let ns = started.elapsed().as_nanos() as f64 / NAMES as f64;
            // The program under test never unexposes; here the registry is
            // emptied between batches so every batch sees the same state.
            for name in &names {
                node.unexpose(0, name);
            }
            ns
        })
        .collect();
    median(&per_pair)
}

/// Median latency of a blocking 64 B allreduce inside a long-lived
/// *threaded* world of 2 nodes x 1 process.  Informational: it is the only
/// number on the blocking executor path, and it moves by up to 3x between
/// runs with the scheduler's wake-up latency.
fn blocking_allreduce_us() -> f64 {
    const CALLS: usize = 2000;
    let medians = ThreadedWorld::builder()
        .nodes(2)
        .ppn(1)
        .library(Library::PipMColl)
        .run(|comm| {
            let mut buf = [1.0f32; 16];
            let samples: Vec<f64> = (0..CALLS)
                .map(|_| {
                    buf.fill(1.0);
                    let started = Instant::now();
                    comm.allreduce(&mut buf, ReduceOp::Sum);
                    started.elapsed().as_nanos() as f64
                })
                .collect();
            median(&samples)
        })
        .expect("threaded world");
    medians[0] / 1e3
}

fn launch_ms() -> f64 {
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            Cluster::launch(Topology::new(2, 1), |ctx| ctx.rank()).expect("launch");
            started.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    median(&samples)
}

/// Compile the analysis plans, price the layers, and write the attribution.
pub fn replay(
    spec: &ExecSpec,
    inputs: &Inputs,
    census: &[Counters],
    op_p50_ns: &[f64],
    layers: &mut LayerMetrics,
    notes: &mut Vec<String>,
) {
    let topology = Topology::new(NODES, PPN);
    let profile = Library::PipMColl.profile();
    let (ranks, scale) = if spec.large {
        (PPN, NODES as u64)
    } else {
        (WORLD, 1)
    };

    // One compile per distinct (shape, rank); persistent ops share the
    // shape of their one-shot twins, exactly as they share cache entries.
    let shapes: Vec<CollectiveShape> = spec.ops.iter().map(|op| shape_of(op, WORLD)).collect();
    let mut distinct: Vec<CollectiveShape> = Vec::new();
    let mut compiled: Vec<Vec<RankPlan>> = Vec::new();
    let mut compile_us = Vec::new();
    for shape in &shapes {
        if distinct.contains(shape) {
            continue;
        }
        distinct.push(*shape);
        compiled.push(
            (0..ranks)
                .map(|rank| {
                    let started = Instant::now();
                    let plan = compile_rank(&profile, topology, rank, shape, Fidelity::Exec);
                    compile_us.push(started.elapsed().as_nanos() as f64 / 1e3);
                    plan
                })
                .collect(),
        );
    }
    let counts: Vec<PlanCounts> = shapes
        .iter()
        .map(|shape| {
            let idx = distinct.iter().position(|s| s == shape).expect("compiled");
            let mut counts = PlanCounts::default();
            for plan in &compiled[idx] {
                counts.add_plan(plan, scale);
            }
            counts
        })
        .collect();
    let plan_ops: u64 = counts.iter().map(|c| c.ops).sum();

    // Unit prices of the count-proportional layers.
    let classes: Vec<usize> = compiled
        .iter()
        .flatten()
        .flat_map(|plan| plan.val_lens.iter().copied())
        .filter(|&len| len > 0)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let fabric_payload = if spec.large { 64 * 1024 } else { 64 };
    let plan_hit = plan_hit_ns(&distinct, topology);
    let arena = arena_ns(&classes);
    let fabric = fabric_ns(fabric_payload);
    layers.set("mpi-model.plan_hit_ns", plan_hit);
    layers.set("collectives.arena_ns_per_acquire", arena);
    layers.set("collectives.plan_ops_per_round", plan_ops as f64);

    // The codec and payload of the compressed allreduce, if the table has one.
    let codec = compiled.iter().flatten().find_map(|plan| {
        plan.ops.iter().find_map(|op| match op {
            PlanOp::Compress { codec, .. } => Some(*codec),
            _ => None,
        })
    });
    let payload: Vec<u8> = spec
        .ops
        .iter()
        .position(|op| op.kind == OpKind::AllreduceCompressed)
        .map(|op_idx| to_bytes(&inputs.sets[0][op_idx].block[0]))
        .unwrap_or_default();

    if spec.large {
        layers.set("pip-runtime.fabric_ns_per_msg_64k", fabric);
        let model = MemcpyModel::default();
        let reduce = reduce_ns(BANDWIDTH_BYTES);
        let pip = copy_ns(IntranodeMechanism::Pip, BANDWIDTH_BYTES);
        let shmem = copy_ns(IntranodeMechanism::PosixShmem, BANDWIDTH_BYTES);
        let gbps = |ns: f64| BANDWIDTH_BYTES as f64 / ns;
        layers.set("collectives.reduce_gbps.f32_sum", gbps(reduce));
        layers.set("transport.copy_gbps.pip", gbps(pip));
        layers.set("transport.copy_gbps.posix_shmem", gbps(shmem));
        layers.set(
            "transport.copy_vs_model",
            pip / model.copy_cost(BANDWIDTH_BYTES),
        );
        layers.set(
            "transport.reduce_vs_model",
            reduce / model.reduce_cost(BANDWIDTH_BYTES),
        );
        let convert = to_bytes_ns(BANDWIDTH_BYTES) + from_bytes_ns(BANDWIDTH_BYTES);
        layers.set(
            "core.to_from_bytes_ns_per_kib",
            convert / (BANDWIDTH_BYTES / 1024) as f64,
        );
        if let Some(codec) = codec {
            // One chunk as the plans cut it, from the workload's own payload.
            let len = counts
                .iter()
                .find_map(|c| c.compress.keys().next().copied())
                .expect("a codec implies a Compress op");
            let chunk = &payload[..len];
            let encode = compress_ns(chunk, codec);
            let decode = decompress_ns(chunk, codec);
            layers.set("collectives.compress_mbps", len as f64 / encode * 1e3);
            layers.set("collectives.decompress_mbps", len as f64 / decode * 1e3);
            layers.set(
                "collectives.codec_ratio",
                len as f64 / compress(chunk, codec).len() as f64,
            );
            // The simulator charges a codec pass at streaming-copy speed.
            layers.set(
                "transport.codec_vs_model",
                (encode + decode) / 2.0 / model.copy_cost(len),
            );
        }
    } else {
        layers.set("pip-runtime.fabric_ns_per_msg", fabric);
        layers.set("pip-runtime.expose_attach_ns", expose_attach_ns());
        layers.set("mpi-model.plan_compile_us", median(&compile_us));
        // These two run threads of their own.
        let (blocking, launch) = without_companion(|| (blocking_allreduce_us(), launch_ms()));
        layers.set("core.blocking_allreduce_us_p50", blocking);
        layers.set("pip-runtime.launch_ms", launch);
    }

    // Attribution: per op, what each layer's counted calls cost when
    // re-issued in isolation at the same sizes, and what is left.
    let columns = [
        "plan", "arena", "fabric", "reduce", "copy", "codec", "convert",
    ];
    let mut pricer = Pricer::default();
    let mut layer_us = [0.0f64; 7];
    let mut residual_us = 0.0;
    notes.push("attribution per round, us:".to_string());
    notes.push(format!(
        "  {:<22} {:>9} {}  {:>9}",
        "op",
        "p50",
        columns.map(|c| format!("{c:>9}")).join(" "),
        "residual"
    ));
    for (((op, counted), planned), &p50_ns) in
        spec.ops.iter().zip(census).zip(&counts).zip(op_p50_ns)
    {
        let coded = |bytes: usize| codec.map(|codec| (&payload[..bytes], codec));
        let priced = [
            counted.plan_hits as f64 * plan_hit / 1e3,
            counted.arena_acquires() as f64 * arena / 1e3,
            counted.msgs as f64 * fabric / 1e3,
            pricer.price("reduce", &planned.reduce, reduce_ns),
            pricer.price("copy", &planned.copy, |bytes| {
                copy_ns(IntranodeMechanism::Pip, bytes)
            }),
            pricer.price("compress", &planned.compress, |bytes| {
                coded(bytes).map_or(0.0, |(chunk, codec)| compress_ns(chunk, codec))
            }) + pricer.price("decompress", &planned.decompress, |bytes| {
                coded(bytes).map_or(0.0, |(chunk, codec)| decompress_ns(chunk, codec))
            }),
            pricer.price("to_bytes", &planned.to_bytes, to_bytes_ns)
                + pricer.price("from_bytes", &planned.from_bytes, from_bytes_ns),
        ];
        let residual = p50_ns / 1e3 - priced.iter().sum::<f64>();
        for (total, us) in layer_us.iter_mut().zip(priced) {
            *total += us;
        }
        residual_us += residual;
        notes.push(format!(
            "  {:<22} {:>9.1} {}  {:>9.1}",
            op.name,
            p50_ns / 1e3,
            priced.map(|us| format!("{us:>9.1}")).join(" "),
            residual
        ));
    }
    let round_us: f64 = op_p50_ns.iter().sum::<f64>() / 1e3;
    notes.push(format!(
        "  {:<22} {:>9.1} {}  {:>9.1}",
        "round (= ceiling)",
        round_us,
        layer_us.map(|us| format!("{us:>9.1}")).join(" "),
        residual_us
    ));
    notes.push(format!(
        "  a layer's round total is the most iter_ms_p50 can gain from that layer; \
         the interpreter residual is {:.0} % of the round",
        100.0 * residual_us / round_us
    ));
    if spec.large {
        layers.set("collectives.interp_residual_large_us", residual_us);
    } else {
        layers.set("collectives.interp_residual_us", residual_us);
    }
    layers.set(
        "collectives.interp_ns_per_op",
        residual_us * 1e3 / plan_ops as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SMALL;

    #[test]
    fn plan_counts_follow_the_ops_of_a_compiled_plan() {
        let topology = Topology::new(2, 2);
        let profile = Library::PipMColl.profile();
        // iallreduce of the small table: reduces, copies, converts 64 B each way.
        let shape = shape_of(&SMALL.ops[2], 4);
        let plan = compile_rank(&profile, topology, 1, &shape, Fidelity::Exec);
        let mut once = PlanCounts::default();
        once.add_plan(&plan, 1);
        assert_eq!(once.ops, plan.ops.len() as u64);
        assert!(once.reduce.values().sum::<u64>() > 0);
        assert!(once.reduce.keys().all(|&bytes| bytes <= 64));
        assert!(!once.copy.is_empty());
        assert_eq!(once.to_bytes, Sizes::from([(64, 1)]));
        assert_eq!(once.from_bytes, Sizes::from([(64, 1)]));
        assert!(once.compress.is_empty() && once.decompress.is_empty());
        let mut scaled = PlanCounts::default();
        scaled.add_plan(&plan, 4);
        assert_eq!(scaled.ops, 4 * once.ops);
        assert_eq!(scaled.to_bytes, Sizes::from([(64, 4)]));
    }

    #[test]
    fn the_pricer_times_each_size_once() {
        let calls = std::cell::Cell::new(0);
        let time = |bytes: usize| {
            calls.set(calls.get() + 1);
            bytes as f64 * 1000.0
        };
        let mut pricer = Pricer::default();
        let sizes = Sizes::from([(2, 3), (5, 1)]);
        // 3 calls x 2000 ns + 1 call x 5000 ns = 11 us.
        assert_eq!(pricer.price("copy", &sizes, time), 11.0);
        assert_eq!(pricer.price("copy", &sizes, time), 11.0);
        assert_eq!(calls.get(), 2);
        pricer.price("reduce", &sizes, time);
        assert_eq!(calls.get(), 4);
    }

    #[test]
    fn persistent_ops_share_the_shape_of_their_one_shot_twins() {
        let shapes: Vec<_> = SMALL.ops.iter().map(|op| shape_of(op, 16)).collect();
        assert_eq!(shapes[0], shapes[4]);
        assert_eq!(shapes[2], shapes[5]);
        assert_ne!(shapes[0], shapes[2]);
    }

    #[test]
    fn time_ns_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                (0..n).for_each(|i| {
                    black_box(i);
                })
            }
        };
        let short = time_ns(spin(100));
        let long = time_ns(spin(10_000));
        assert!(long > 10.0 * short, "{short} ns vs {long} ns");
    }
}
