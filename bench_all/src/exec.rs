//! The execute-plane workloads: real collectives on the lockstep world.
//!
//! `exec_small` and `exec_large` run the same loop over different op
//! tables.  One *round* makes one world-call of every op in the table; the
//! round is the iteration that is timed, a world-call is the operation that
//! is counted and checked.

use pip_collectives::oracle;
use pip_mcoll_core::datatype::{from_bytes, to_bytes};
use pip_mcoll_core::{Communicator, PersistentColl, ReduceOp};
use pip_mpi_model::Library;

use crate::clock::Stopwatch;
use crate::inputs::{grid_values, smooth_values, Rng};
use crate::layers;
use crate::lockstep::{persistent_call, world_call, World};
use crate::measure::{disturbance_note, end_to_end_metrics, wall_over_cpu, TimeBox};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{LayerMetrics, RunConfig, RunOutput};

pub const NODES: usize = 4;
pub const PPN: usize = 4;
pub const WORLD: usize = NODES * PPN;

/// End-to-end error bound asked of the compressed allreduce.
pub const COMPRESS_BOUND: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Allgather,
    Scatter,
    Allreduce,
    ReduceScatter,
    AllreduceCompressed,
    PersistentAllgather,
    PersistentAllreduce,
}

pub struct OpSpec {
    /// Span name of the world-call.
    pub name: &'static str,
    /// Per-layer metric holding the world-call's median time.
    pub metric: &'static str,
    pub kind: OpKind,
    /// `f32` elements per rank block.
    pub elems: usize,
}

pub struct ExecSpec {
    pub ops: &'static [OpSpec],
    /// Distinct seeded input sets the rounds cycle through.
    pub input_sets: usize,
    /// Rounds one world lives for at most.  The program under test keeps
    /// every shared region of every invocation registered in its
    /// `NodeSpace` for the life of the world (about 57 KB per small round,
    /// 27 MB per large one), so a world that lived as long as the machine
    /// let it would make peak memory, and with it the cache and TLB misses
    /// of every round, a function of the machine's speed.
    pub max_rounds: usize,
    /// How an untraced run is bounded.  `None`: worlds of `max_rounds`
    /// rounds, one after the other, until `--seconds` have passed; every
    /// world's set-up is one `setup_s` sample.  `Some(rate)`: one world and
    /// `rate * seconds` rounds (at most `max_rounds`) however long they
    /// take, for a table whose set-up is too dear to repeat; the count,
    /// and so the peak memory, then repeats exactly.
    pub fixed_rounds_per_second: Option<f64>,
    /// Every rank's output of every op is checked on round 0 and on every
    /// round that is a multiple of this.
    pub verify_every: usize,
    /// The large-message table.  It gets smooth (compressible) payloads
    /// instead of uniform ones, reports the byte-rate metrics instead of
    /// the per-message ones, and its traced run compiles only node 0's
    /// plans for the byte counts and scales by the node count: every op of
    /// the table is a node-symmetric collective, and compiling all 16 ranks
    /// would repeat the 15 s the communicators already spent in set-up.
    pub large: bool,
}

pub const SMALL: ExecSpec = ExecSpec {
    ops: &[
        OpSpec {
            name: "iallgather",
            metric: "core.iallgather_us_p50",
            kind: OpKind::Allgather,
            elems: 16,
        },
        OpSpec {
            name: "iscatter",
            metric: "core.iscatter_us_p50",
            kind: OpKind::Scatter,
            elems: 16,
        },
        OpSpec {
            name: "iallreduce",
            metric: "core.iallreduce_us_p50",
            kind: OpKind::Allreduce,
            elems: 16,
        },
        OpSpec {
            name: "ireduce_scatter",
            metric: "core.ireduce_scatter_us_p50",
            kind: OpKind::ReduceScatter,
            elems: 16,
        },
        OpSpec {
            name: "pallgather",
            metric: "core.pallgather_us_p50",
            kind: OpKind::PersistentAllgather,
            elems: 16,
        },
        OpSpec {
            name: "pallreduce",
            metric: "core.pallreduce_us_p50",
            kind: OpKind::PersistentAllreduce,
            elems: 16,
        },
    ],
    input_sets: 4,
    max_rounds: 2_000,
    fixed_rounds_per_second: None,
    verify_every: 100,
    large: false,
};

pub const LARGE: ExecSpec = ExecSpec {
    ops: &[
        OpSpec {
            name: "iallreduce_large",
            metric: "core.iallreduce_large_us_p50",
            kind: OpKind::Allreduce,
            elems: 65_536,
        },
        OpSpec {
            name: "iallgather_large",
            metric: "core.iallgather_large_us_p50",
            kind: OpKind::Allgather,
            elems: 16_384,
        },
        OpSpec {
            name: "iallreduce_compressed",
            metric: "core.iallreduce_compressed_us_p50",
            kind: OpKind::AllreduceCompressed,
            elems: 65_536,
        },
        OpSpec {
            name: "pallreduce_large",
            metric: "core.pallreduce_large_us_p50",
            kind: OpKind::PersistentAllreduce,
            elems: 65_536,
        },
    ],
    input_sets: 2,
    max_rounds: 48,
    fixed_rounds_per_second: Some(2.0),
    verify_every: 16,
    large: true,
};

/// What every rank must hold after an op.
pub enum Expected {
    /// The same vector on every rank.
    Same(Vec<f32>),
    PerRank(Vec<Vec<f32>>),
}

/// One op's buffers for one input set.
pub struct OpInput {
    /// Per rank, the rank's block.
    pub block: Vec<Vec<f32>>,
    /// Per rank, `world` blocks (scatter root and reduce_scatter only).
    pub wide: Vec<Vec<f32>>,
    pub expected: Expected,
    /// Largest allowed `|got - expected|`; 0 demands equal bits.
    pub tolerance: f32,
}

/// `[set][op]`.
pub struct Inputs {
    pub sets: Vec<Vec<OpInput>>,
}

impl Inputs {
    pub fn generate(seed: u64, spec: &ExecSpec, world: usize) -> Self {
        let root = Rng::new(seed);
        let values = if spec.large {
            smooth_values
        } else {
            grid_values
        };
        let sets = (0..spec.input_sets)
            .map(|set| {
                spec.ops
                    .iter()
                    .enumerate()
                    .map(|(op_idx, op)| {
                        let rng = root.fork((set * spec.ops.len() + op_idx) as u64);
                        Self::for_op(op, world, &rng, values)
                    })
                    .collect()
            })
            .collect();
        Self { sets }
    }

    fn for_op(
        op: &OpSpec,
        world: usize,
        rng: &Rng,
        values: fn(&mut Rng, usize) -> Vec<f32>,
    ) -> OpInput {
        let per_rank = |len: usize| -> Vec<Vec<f32>> {
            (0..world)
                .map(|rank| values(&mut rng.fork(rank as u64), len))
                .collect()
        };
        let typed = |bytes: Vec<u8>| from_bytes::<f32>(&bytes);
        let (block, wide, expected) = match op.kind {
            OpKind::Allgather | OpKind::PersistentAllgather => {
                let block = per_rank(op.elems);
                let bytes: Vec<Vec<u8>> = block.iter().map(|b| to_bytes(b)).collect();
                let expected = Expected::Same(typed(oracle::allgather(&bytes)));
                (block, Vec::new(), expected)
            }
            OpKind::Scatter => {
                // Only the root's buffer is significant.
                let mut wide = vec![Vec::new(); world];
                wide[0] = values(&mut rng.fork(0), op.elems * world);
                let blocks = oracle::scatter(&to_bytes(&wide[0]), world);
                let expected = Expected::PerRank(blocks.into_iter().map(typed).collect());
                (Vec::new(), wide, expected)
            }
            OpKind::Allreduce | OpKind::PersistentAllreduce | OpKind::AllreduceCompressed => {
                let block = per_rank(op.elems);
                let expected = Expected::Same(oracle::allreduce_t(&block, ReduceOp::Sum));
                (block, Vec::new(), expected)
            }
            OpKind::ReduceScatter => {
                let wide = per_rank(op.elems * world);
                let expected =
                    Expected::PerRank(oracle::reduce_scatter_t(&wide, world, ReduceOp::Sum));
                (Vec::new(), wide, expected)
            }
        };
        let tolerance = if op.kind == OpKind::AllreduceCompressed {
            COMPRESS_BOUND as f32
        } else {
            0.0
        };
        OpInput {
            block,
            wide,
            expected,
            tolerance,
        }
    }
}

impl OpInput {
    /// Whether every rank's output matches the oracle.
    pub fn check(&self, outputs: &[Vec<f32>]) -> bool {
        outputs.iter().enumerate().all(|(rank, got)| {
            let want = match &self.expected {
                Expected::Same(v) => v,
                Expected::PerRank(per_rank) => &per_rank[rank],
            };
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| (g - w).abs() <= self.tolerance)
        })
    }
}

/// Counters read from the public `*Stats` of the fabric, the plan caches
/// and the arenas, summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub msgs: u64,
    pub bytes_copied: u64,
    pub recvs: u64,
    pub scanned: u64,
    pub contentions: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub arena_hits: u64,
    pub arena_misses: u64,
    /// Shared regions registered in the nodes' `NodeSpace`s.
    pub regions: u64,
}

impl Counters {
    fn zip_with(self, rhs: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            msgs: f(self.msgs, rhs.msgs),
            bytes_copied: f(self.bytes_copied, rhs.bytes_copied),
            recvs: f(self.recvs, rhs.recvs),
            scanned: f(self.scanned, rhs.scanned),
            contentions: f(self.contentions, rhs.contentions),
            plan_hits: f(self.plan_hits, rhs.plan_hits),
            plan_misses: f(self.plan_misses, rhs.plan_misses),
            arena_hits: f(self.arena_hits, rhs.arena_hits),
            arena_misses: f(self.arena_misses, rhs.arena_misses),
            regions: f(self.regions, rhs.regions),
        }
    }

    pub fn arena_acquires(&self) -> u64 {
        self.arena_hits + self.arena_misses
    }
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, rhs: Counters) -> Counters {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;
    fn add(self, rhs: Counters) -> Counters {
        self.zip_with(rhs, |a, b| a + b)
    }
}

/// A built world: communicators plus the persistent handles of the op
/// table, ready for rounds.
pub struct Session<'c> {
    spec: &'static ExecSpec,
    world: &'c World,
    comms: &'c [Communicator<'c>],
    /// Per op; empty for one-shot ops.
    handles: Vec<Vec<PersistentColl<'c, Vec<f32>>>>,
    /// Arena misses seen across the persistent ops of traced rounds.
    persistent_arena_misses: u64,
}

impl<'c> Session<'c> {
    fn new(
        spec: &'static ExecSpec,
        world: &'c World,
        comms: &'c [Communicator<'c>],
        first: &[OpInput],
    ) -> Self {
        let handles = spec
            .ops
            .iter()
            .zip(first)
            .map(|(op, input)| match op.kind {
                OpKind::PersistentAllgather => comms
                    .iter()
                    .zip(&input.block)
                    .map(|(comm, block)| comm.allgather_init(block))
                    .collect(),
                OpKind::PersistentAllreduce => comms
                    .iter()
                    .zip(&input.block)
                    .map(|(comm, block)| comm.allreduce_init(block, ReduceOp::Sum))
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        Self {
            spec,
            world,
            comms,
            handles,
            persistent_arena_misses: 0,
        }
    }

    pub fn counters(&self) -> Counters {
        let fabric = self.world.fabric().stats();
        let mut c = Counters {
            msgs: fabric.sends as u64,
            bytes_copied: fabric.bytes_copied as u64,
            recvs: (fabric.exact_recvs + fabric.wildcard_recvs) as u64,
            scanned: fabric.messages_scanned as u64,
            contentions: fabric.lock_contentions as u64,
            regions: self.world.exposed_regions() as u64,
            ..Counters::default()
        };
        for comm in self.comms {
            let (hits, misses) = comm.plan_stats();
            let arena = comm.arena_stats();
            c.plan_hits += hits;
            c.plan_misses += misses;
            c.arena_hits += arena.hits;
            c.arena_misses += arena.misses;
        }
        c
    }

    fn arena_misses(&self) -> u64 {
        self.comms.iter().map(|c| c.arena_stats().misses).sum()
    }

    /// One world-call of op `op_idx`; returns every rank's output.
    pub fn call(
        &mut self,
        op_idx: usize,
        input: &OpInput,
        rec: &mut Recorder,
        iter: u32,
    ) -> Vec<Vec<f32>> {
        let op = &self.spec.ops[op_idx];
        let comms = self.comms;
        let world = comms.len();
        match op.kind {
            OpKind::Allgather => world_call(rec, op.name, iter, world, |r| {
                comms[r].iallgather(&input.block[r])
            }),
            OpKind::Scatter => world_call(rec, op.name, iter, world, |r| {
                comms[r].iscatter((r == 0).then_some(&input.wide[0][..]), op.elems, 0)
            }),
            OpKind::Allreduce => world_call(rec, op.name, iter, world, |r| {
                comms[r].iallreduce(&input.block[r], ReduceOp::Sum)
            }),
            OpKind::ReduceScatter => world_call(rec, op.name, iter, world, |r| {
                comms[r].ireduce_scatter(&input.wide[r], op.elems, ReduceOp::Sum)
            }),
            OpKind::AllreduceCompressed => world_call(rec, op.name, iter, world, |r| {
                comms[r].iallreduce_compressed(&input.block[r], ReduceOp::Sum, COMPRESS_BOUND)
            }),
            OpKind::PersistentAllgather | OpKind::PersistentAllreduce => {
                // The steady-state claim of persistent handles is "no
                // allocation after the first start"; count arena misses
                // across them while tracing.
                let before = rec.is_on().then(|| self.arena_misses());
                let out =
                    persistent_call(rec, op.name, iter, &mut self.handles[op_idx], &input.block);
                if let Some(before) = before {
                    self.persistent_arena_misses += self.arena_misses() - before;
                }
                out
            }
        }
    }

    /// One round: every op of the table once.
    pub fn round(&mut self, set: &[OpInput], rec: &mut Recorder, iter: u32) -> Vec<Vec<Vec<f32>>> {
        (0..self.spec.ops.len())
            .map(|op_idx| self.call(op_idx, &set[op_idx], rec, iter))
            .collect()
    }
}

/// Build the world, its communicators and persistent handles and make the
/// first call of every shape (which compiles every plan), then hand the
/// session to `body`.  Returns the set-up wall time in seconds.
pub fn with_session<R>(
    spec: &'static ExecSpec,
    nodes: usize,
    ppn: usize,
    inputs: &Inputs,
    body: impl FnOnce(&mut Session<'_>) -> R,
) -> (f64, R) {
    let started = Stopwatch::start();
    let world = World::new(nodes, ppn);
    let comms = world.communicators(Library::PipMColl);
    let mut session = Session::new(spec, &world, &comms, &inputs.sets[0]);
    let warm = session.round(&inputs.sets[0], &mut Recorder::off(), 0);
    let setup_s = started.cpu_ns() / 1e9;
    drop(warm);
    (setup_s, body(&mut session))
}

/// What the timed loop found.
#[derive(Default)]
pub struct Measured {
    /// CPU time of every round, in arrival order.
    pub round_ns: Vec<f64>,
    /// Wall time of the same rounds, to tell how disturbed the run was.
    pub wall_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// The timed loop: rounds on `session` until the time box ends or the world
/// has lived `max_rounds` rounds, added to `measured`.
pub fn measure(
    session: &mut Session<'_>,
    inputs: &Inputs,
    rec: &mut Recorder,
    time_box: &mut TimeBox,
    max_rounds: usize,
    measured: &mut Measured,
) {
    let spec = session.spec;
    for _ in 0..max_rounds {
        if !time_box.next() {
            break;
        }
        let round = measured.round_ns.len();
        let set = &inputs.sets[round % inputs.sets.len()];
        let iter = round as u32;
        let span = rec.enter("round", iter);
        let started = Stopwatch::start();
        let outputs = session.round(set, rec, iter);
        measured.round_ns.push(started.cpu_ns());
        measured.wall_ns.push(started.wall_ns());
        rec.exit(span);
        measured.attempted += spec.ops.len() as u64;
        // Checking happens outside the timed part of the round.
        if round.is_multiple_of(spec.verify_every) {
            for (input, output) in set.iter().zip(&outputs) {
                if !input.check(output) {
                    measured.failed += 1;
                }
            }
        }
    }
}

/// The time box of an untraced run of `seconds`.
fn untraced_box(spec: &ExecSpec, seconds: f64) -> TimeBox {
    match spec.fixed_rounds_per_second {
        None => TimeBox::new(seconds, 10, usize::MAX),
        Some(rate) => {
            let rounds = ((rate * seconds).round() as usize).clamp(10, spec.max_rounds);
            TimeBox::new(0.0, rounds, rounds)
        }
    }
}

pub fn run(cfg: &RunConfig, spec: &'static ExecSpec) -> RunOutput {
    let inputs = Inputs::generate(cfg.seed, spec, WORLD);
    if cfg.traced {
        let (_, output) = with_session(spec, NODES, PPN, &inputs, |session| {
            run_traced(cfg, spec, &inputs, session)
        });
        return output;
    }
    let mut time_box = untraced_box(spec, cfg.seconds);
    let mut setup_s = Vec::new();
    let mut measured = Measured::default();
    while !time_box.ended() {
        let (setup, ()) = with_session(spec, NODES, PPN, &inputs, |session| {
            measure(
                session,
                &inputs,
                &mut Recorder::off(),
                &mut time_box,
                spec.max_rounds,
                &mut measured,
            );
        });
        setup_s.push(setup);
    }
    RunOutput {
        attempted: measured.attempted,
        failed: measured.failed,
        iterations: measured.round_ns.len(),
        metrics: end_to_end_metrics(&setup_s, &measured.round_ns, measured.attempted),
        notes: vec![disturbance_note(&measured.round_ns, &measured.wall_ns)],
        spans: None,
    }
}

/// One stretch of a traced run: at most `max_rounds` rounds in `seconds`.
fn stretch(
    session: &mut Session<'_>,
    inputs: &Inputs,
    rec: &mut Recorder,
    seconds: f64,
    max_rounds: usize,
) -> Measured {
    let mut measured = Measured::default();
    let mut time_box = TimeBox::new(seconds, 10, max_rounds);
    measure(
        session,
        inputs,
        rec,
        &mut time_box,
        max_rounds,
        &mut measured,
    );
    measured
}

/// The traced run: a short untraced stretch for reference, a traced
/// stretch for spans and counts, one census round for per-op counts, and
/// the layer replay that prices those counts.
fn run_traced(
    cfg: &RunConfig,
    spec: &'static ExecSpec,
    inputs: &Inputs,
    session: &mut Session<'_>,
) -> RunOutput {
    let mut layers = LayerMetrics::default();
    let mut notes = Vec::new();

    let reference = stretch(
        session,
        inputs,
        &mut Recorder::off(),
        cfg.seconds * 0.25,
        spec.max_rounds / 4,
    );
    let before = session.counters();
    let mut rec = Recorder::new(true);
    let traced = stretch(
        session,
        inputs,
        &mut rec,
        cfg.seconds * 0.5,
        spec.max_rounds / 2,
    );
    let total = session.counters() - before;
    let rounds = traced.round_ns.len() as f64;

    // Census: one more round, reading the counters between ops.
    let census_set = &inputs.sets[0];
    let census: Vec<Counters> = (0..spec.ops.len())
        .map(|op_idx| {
            let before = session.counters();
            session.call(op_idx, &census_set[op_idx], &mut Recorder::off(), 0);
            session.counters() - before
        })
        .collect();
    let census_sum = census.iter().fold(Counters::default(), |acc, &c| acc + c);
    if census_sum.msgs as f64 * rounds != total.msgs as f64
        || census_sum.plan_hits as f64 * rounds != total.plan_hits as f64
    {
        notes.push(format!(
            "WARNING: counts did not repeat exactly: census round {} msgs / {} plan hits, \
             traced stretch {} / {} over {} rounds",
            census_sum.msgs, census_sum.plan_hits, total.msgs, total.plan_hits, rounds
        ));
    }

    let op_p50_ns: Vec<f64> = spec
        .ops
        .iter()
        .map(|op| median(&rec.durations_ns(op.name)))
        .collect();
    for (op, p50_ns) in spec.ops.iter().zip(&op_p50_ns) {
        layers.set(op.metric, p50_ns / 1e3);
    }
    layers.set(
        "core.round_us_p99",
        percentile(&traced.round_ns, 99.0) / 1e3,
    );
    layers.set(
        "mpi-model.plan_hits_per_round",
        total.plan_hits as f64 / rounds,
    );
    layers.set(
        "mpi-model.plan_misses",
        session.counters().plan_misses as f64,
    );
    layers.set(
        "collectives.arena_hits_per_round",
        total.arena_hits as f64 / rounds,
    );
    layers.set(
        "collectives.arena_misses_steady",
        session.persistent_arena_misses as f64,
    );
    layers.set("pip-runtime.msgs_per_round", total.msgs as f64 / rounds);
    layers.set(
        "pip-runtime.scanned_per_recv",
        if total.scanned == 0 {
            0.0
        } else {
            total.recvs as f64 / total.scanned as f64
        },
    );
    layers.set("pip-runtime.lock_contentions", total.contentions as f64);
    layers.set(
        "pip-runtime.bytes_copied_per_round",
        total.bytes_copied as f64 / rounds,
    );
    layers.set(
        "pip-runtime.regions_per_round",
        total.regions as f64 / rounds,
    );
    layers.set(
        "bench.trace_overhead",
        median(&traced.round_ns) / median(&reference.round_ns),
    );
    layers.set(
        "bench.iter_ms_p90",
        percentile(&traced.round_ns, 90.0) / 1e6,
    );
    layers.set(
        "bench.wall_over_cpu",
        wall_over_cpu(&traced.round_ns, &traced.wall_ns),
    );
    let attempted = reference.attempted + traced.attempted;
    let failed = reference.failed + traced.failed;
    layers.set("bench.failed_share", failed as f64 / attempted as f64);

    layers::replay(spec, inputs, &census, &op_p50_ns, &mut layers, &mut notes);

    RunOutput {
        attempted,
        failed,
        iterations: traced.round_ns.len(),
        metrics: layers.finish(),
        notes,
        spans: Some(rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_2x2_lockstep_world_completes_all_six_small_ops_against_the_oracle() {
        let inputs = Inputs::generate(5, &SMALL, 4);
        let (setup_s, (outputs, counters)) = with_session(&SMALL, 2, 2, &inputs, |session| {
            let mut rec = Recorder::new(true);
            let outputs = session.round(&inputs.sets[1], &mut rec, 0);
            let ops: Vec<_> = rec
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.name)
                .collect();
            let names: Vec<_> = SMALL.ops.iter().map(|op| op.name).collect();
            assert_eq!(ops, names);
            (outputs, session.counters())
        });
        assert!(setup_s > 0.0);
        assert_eq!(outputs.len(), 6);
        for ((op, input), output) in SMALL.ops.iter().zip(&inputs.sets[1]).zip(&outputs) {
            assert_eq!(output.len(), 4, "{}", op.name);
            assert!(input.check(output), "{} disagrees with the oracle", op.name);
        }
        // Two rounds ran (warm-up and ours); four distinct shapes compiled
        // once per rank, everything after that hit the cache.
        assert_eq!(counters.plan_misses, 4 * 4);
        assert!(counters.plan_hits > 0 && counters.msgs > 0);
    }

    #[test]
    fn a_wrong_output_is_caught() {
        let inputs = Inputs::generate(5, &SMALL, 4);
        let input = &inputs.sets[0][2];
        let Expected::Same(sum) = &input.expected else {
            panic!("allreduce expects the same vector everywhere");
        };
        let mut outputs = vec![sum.clone(); 4];
        assert!(input.check(&outputs));
        outputs[3][5] += 1.0 / 64.0;
        assert!(!input.check(&outputs));
        outputs[3].pop();
        assert!(!input.check(&outputs));
    }

    #[test]
    fn the_same_seed_gives_the_same_exec_inputs() {
        let a = Inputs::generate(11, &SMALL, 4);
        let b = Inputs::generate(11, &SMALL, 4);
        let c = Inputs::generate(12, &SMALL, 4);
        assert_eq!(a.sets[3][0].block, b.sets[3][0].block);
        assert_eq!(a.sets[2][3].wide, b.sets[2][3].wide);
        assert_ne!(a.sets[3][0].block, c.sets[3][0].block);
        // Ranks and sets differ from each other.
        assert_ne!(a.sets[0][0].block[0], a.sets[0][0].block[1]);
        assert_ne!(a.sets[0][0].block, a.sets[1][0].block);
    }
}
