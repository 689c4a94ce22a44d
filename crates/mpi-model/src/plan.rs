//! Compiling collectives to plans, and caching them.
//!
//! This is where the plan/execute split meets the library model: a
//! [`CollectiveShape`] (collective kind, per-process block size, root,
//! element size) plus a topology and the one thing a recording reads of a
//! [`crate::LibraryProfile`] — the algorithm it selects for the shape —
//! fully determine the schedule.  A compiled plan is cached under a
//! [`PlanKey`] of exactly those and reused for every later call that
//! resolves to it, whichever library makes the call: the key is the full
//! functional determinant by construction.
//!
//! Two cache granularities exist for the two consumers:
//!
//! * [`PlanCache`] holds **one rank's** plans (exec fidelity: every payload
//!   names its sources) — what a `Communicator` embeds so its dispatch hot
//!   path becomes *lookup-or-compile, then run*.
//! * [`ClusterPlanCache`] holds **whole-cluster** plans (schedule fidelity:
//!   payloads are opaque) — what figure generation uses so repeated data
//!   points lower a cached plan to a trace instead of replaying the
//!   algorithm once per rank.
//!
//! Either fidelity compiles a rank by running its algorithm once.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use pip_collectives::plan::{
    compile, compress_rank_transfers, ranks_equal_under, schedules_equal_under, shared_arena,
    ArenaStats, ExecPlan, Fidelity, IoShape, Plan, RankPlan, SharedArena,
};
use pip_collectives::CollectiveKind;
use pip_netsim::{FoldGroup, FoldedTrace};
use pip_runtime::Topology;

use pip_collectives::datatype::{Layout, ReduceIdent};

use crate::dispatch;
use crate::{Algorithm, LibraryProfile};

/// The tag base plans are compiled at; executions rebase by the invocation
/// tag.  Zero keeps recorded tags equal to the algorithms' tag offsets.
pub const COMPILE_TAG_BASE: u64 = 0;

/// Compression request carried by a collective's shape: the end-to-end
/// absolute error bound (stored as `f64` bits so the shape stays `Eq +
/// Hash`) plus the bytes-on-wire threshold below which transfers stay
/// exact.
///
/// Being part of [`CollectiveShape`] puts the spec in the [`PlanKey`], so a
/// bounded plan can never alias the exact plan of the same size — and two
/// different bounds never alias each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompressSpec {
    /// `f64::to_bits` of the end-to-end absolute error bound.
    pub bound_bits: u64,
    /// Transfers below this many bytes stay exact.
    pub min_wire_bytes: usize,
}

impl CompressSpec {
    /// A spec for the given end-to-end bound and wire threshold.
    pub fn from_bound(bound: f64, min_wire_bytes: usize) -> Self {
        Self {
            bound_bits: bound.to_bits(),
            min_wire_bytes,
        }
    }

    /// The end-to-end absolute error bound.
    pub fn bound(self) -> f64 {
        f64::from_bits(self.bound_bits)
    }

    /// Normalize against a message of `block` bytes: a spec that cannot
    /// rewrite anything (zero/invalid bound, or the whole buffer under the
    /// wire threshold) collapses to `None`, so the invocation shares the
    /// exact plan's cache entry instead of compiling a bit-identical twin.
    pub fn normalized_for(self, block: usize) -> Option<Self> {
        (self.bound() > 0.0 && block >= self.min_wire_bytes).then_some(self)
    }
}

/// The shape of one collective invocation — everything besides library and
/// topology that algorithm selection and scheduling depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectiveShape {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Per-process block size in bytes (the paper's message size axis).
    pub block: usize,
    /// Root rank for rooted collectives; 0 otherwise.
    pub root: usize,
    /// Reduction element size in bytes (reduction family only; 1 otherwise).
    pub elem_size: usize,
    /// Identity of the reduction operator; `None` for non-reductions.  Part
    /// of the plan-cache key, so an `f32`-Sum plan never serves an
    /// `i32`-Max call even though both have `elem_size: 4`, and a
    /// user-defined operator ([`pip_collectives::datatype::Op`]) never
    /// serves another user operator of the same width.
    pub reduce: Option<ReduceIdent>,
    /// Strided layout of the caller's buffer, in **elements**; `None` for
    /// contiguous buffers (including degenerate layouts normalized away by
    /// [`CollectiveShape::allreduce`]).  Part of the plan-cache key, so two
    /// layouts with equal total bytes never alias, and a strided call
    /// never hits a contiguous plan.  When present, [`CollectiveShape::block`]
    /// is the **packed** byte count.
    pub layout: Option<Layout>,
    /// Error-bounded lossy compression of large transfers; `None` for the
    /// exact path (including bounded requests normalized away by
    /// [`CompressSpec::normalized_for`]).  Part of the plan-cache key:
    /// bounded and exact plans of the same size never alias, nor do two
    /// different bounds.
    pub compress: Option<CompressSpec>,
}

impl CollectiveShape {
    /// The shape of a collective without a reduction operator.
    ///
    /// Non-reduction kinds key on `elem_size: 1, reduce: None, layout: None`
    /// uniformly: their schedules depend only on byte counts, so `(kind,
    /// block, root)` fully determines per-rank IO and no aliasing is
    /// possible between two requests of the same kind and byte count —
    /// unlike reductions (operator identity) and strided buffers (layout),
    /// which each contribute their own key component.
    pub fn plain(kind: CollectiveKind, block: usize, root: usize) -> Self {
        Self::reduction(kind, block, root, 1, None)
    }

    /// The shape of a reduction over contiguous `elem_size`-byte elements
    /// whose operator has the cache identity `reduce`.
    pub fn reduction(
        kind: CollectiveKind,
        block: usize,
        root: usize,
        elem_size: usize,
        reduce: Option<ReduceIdent>,
    ) -> Self {
        Self {
            kind,
            block,
            root,
            elem_size,
            reduce,
            layout: None,
            compress: None,
        }
    }

    /// The shape of an allreduce over a caller buffer of `buf_len` bytes —
    /// the one collective that carries a derived datatype and a compression
    /// spec, and the one place both are normalized.
    pub fn allreduce(
        buf_len: usize,
        elem_size: usize,
        reduce: Option<ReduceIdent>,
        layout: Option<Layout>,
        compress: Option<CompressSpec>,
    ) -> Self {
        // Degenerate (contiguous) layouts share the contiguous plans: their
        // IO behavior is byte-identical, so giving them distinct keys would
        // only split the cache.
        let layout = layout.filter(|l| !l.is_contiguous());
        let block = layout.map_or(buf_len, |l| l.packed_len() * elem_size);
        Self {
            layout,
            compress: compress.and_then(|spec| spec.normalized_for(block)),
            ..Self::reduction(CollectiveKind::Allreduce, block, 0, elem_size, reduce)
        }
    }

    /// The largest single caller buffer this shape touches, in bytes — what
    /// [`EXEC_PLAN_MAX_BYTES`] bounds.
    pub fn buffer_footprint(&self, world: usize) -> usize {
        match self.kind {
            CollectiveKind::Allgather
            | CollectiveKind::Scatter
            | CollectiveKind::Gather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Alltoall => world * self.block,
            CollectiveKind::Bcast
            | CollectiveKind::Allreduce
            | CollectiveKind::Reduce
            | CollectiveKind::Scan
            | CollectiveKind::Exscan => self.block,
            CollectiveKind::Barrier => 0,
        }
    }

    /// The buffer shape rank `rank` presents to a plan of this shape.
    ///
    /// `sendbuf`/`recvbuf` are packed byte counts; a strided shape
    /// additionally carries its byte-scaled layout so the executor packs
    /// the caller's extent-length buffer before replay.  `needs_reduce_op`
    /// is left unset: `PlanComm::finish` derives it from the recorded ops.
    pub(crate) fn io_for(&self, rank: usize, world: usize) -> IoShape {
        let b = self.block;
        match self.kind {
            CollectiveKind::Allgather => IoShape {
                sendbuf: Some(b),
                recvbuf: Some(world * b),
                ..IoShape::default()
            },
            CollectiveKind::Scatter => IoShape {
                sendbuf: (rank == self.root).then_some(world * b),
                recvbuf: Some(b),
                ..IoShape::default()
            },
            CollectiveKind::Bcast => IoShape {
                sendbuf: None,
                recvbuf: Some(b),
                inout: true,
                ..IoShape::default()
            },
            CollectiveKind::Gather => IoShape {
                sendbuf: Some(b),
                recvbuf: (rank == self.root).then_some(world * b),
                ..IoShape::default()
            },
            CollectiveKind::Allreduce => IoShape {
                sendbuf: None,
                recvbuf: Some(b),
                inout: true,
                recv_layout: self.layout.map(|l| l.scaled(self.elem_size)),
                ..IoShape::default()
            },
            CollectiveKind::Reduce => IoShape {
                sendbuf: Some(b),
                recvbuf: (rank == self.root).then_some(b),
                ..IoShape::default()
            },
            CollectiveKind::ReduceScatter => IoShape {
                sendbuf: Some(world * b),
                recvbuf: Some(b),
                ..IoShape::default()
            },
            CollectiveKind::Scan | CollectiveKind::Exscan => IoShape {
                sendbuf: None,
                recvbuf: Some(b),
                inout: true,
                ..IoShape::default()
            },
            CollectiveKind::Alltoall => IoShape {
                sendbuf: Some(world * b),
                recvbuf: Some(world * b),
                ..IoShape::default()
            },
            CollectiveKind::Barrier => IoShape::default(),
        }
    }
}

/// Cache key: the full functional determinant of a compiled plan.
///
/// A recording reads exactly one thing of a [`LibraryProfile`]: the
/// algorithm it selects for the shape ([`LibraryProfile::algorithm_for`])
/// — [`dispatch::execute`] takes that and no profile, and charges every
/// library the same setup delay
/// ([`crate::calibration::GENERIC_COLLECTIVE_SETUP`]).  So the key holds
/// the algorithm instead of the library: two libraries selecting the same
/// algorithm share one plan, and a customized profile whose selection
/// differs never aliases the stock one.
/// Building a key scans the profile's rule list (at most 16 rows) and
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The algorithm the profile selects for the shape.
    pub algorithm: Algorithm,
    /// Number of nodes.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
    /// The invocation shape.
    pub shape: CollectiveShape,
}

impl PlanKey {
    /// Build a key.
    pub fn new(profile: &LibraryProfile, topology: Topology, shape: CollectiveShape) -> Self {
        Self {
            algorithm: profile.algorithm_for(&shape, topology.world_size()),
            nodes: topology.nodes(),
            ppn: topology.ppn(),
            shape,
        }
    }
}

/// Compile the plan of one rank by running the selected algorithm once
/// against the recording communicator
/// ([`pip_collectives::plan::compile`]), through the ordinary dispatcher on
/// the caller buffers the shape declares, with the recorder standing in for
/// the reduction operator.  Recording always runs on packed contiguous
/// buffers; a layout lives in the plan's [`IoShape`] (`io_for`), where the
/// executor packs and unpacks.
pub fn compile_rank(
    profile: &LibraryProfile,
    topology: Topology,
    rank: usize,
    shape: &CollectiveShape,
    fidelity: Fidelity,
) -> RankPlan {
    let world = topology.world_size();
    let io = shape.io_for(rank, world);
    let packed = CollectiveShape {
        layout: None,
        ..*shape
    };
    let algorithm = profile.algorithm_for(&packed, world);
    let mut plan = compile(rank, topology, fidelity, io, |comm, send, recv| {
        let op = comm.reducer();
        dispatch::execute(
            algorithm,
            comm,
            &packed,
            send,
            recv,
            Some(&op),
            COMPILE_TAG_BASE,
        );
    });
    if let Some(spec) = shape.compress {
        if let Some(codec) = per_message_codec(spec, shape.elem_size, world) {
            compress_rank_transfers(&mut plan, codec, spec.min_wire_bytes);
        }
    }
    plan
}

/// The per-message codec a [`CompressSpec`] implies on a world of `world`
/// ranks, or `None` when the element size is not a float width the codec
/// handles.
///
/// The user's bound constrains the **result**; each decode adds at most the
/// per-message bound to one element's error, and an element of a ring
/// allreduce (the deepest schedule here: `world - 1` reduce-scatter hops
/// plus `world - 1` allgather hops) passes through at most
/// `2 * (world - 1)` lossy transfers, so dividing by that keeps the
/// end-to-end error within the user's bound for every schedule in the
/// workspace.  Recursive doubling and the hierarchical schedules touch each
/// element strictly fewer times, so the budget is conservative there.
fn per_message_codec(
    spec: CompressSpec,
    elem_size: usize,
    world: usize,
) -> Option<pip_collectives::Codec> {
    let elem = pip_collectives::FloatElem::for_size(elem_size)?;
    let hops = 2 * world.saturating_sub(1);
    Some(pip_collectives::Codec {
        elem,
        bound: spec.bound() / hops.max(1) as f64,
    })
}

/// A relabeled comparison of two rank programs: [`ranks_equal_under`]
/// (whole-program strength) or [`schedules_equal_under`] (schedule strength).
type EqualUnder = fn(Topology, FoldGroup, usize, &RankPlan, &RankPlan) -> bool;

/// What the class compiler has in hand after sampling the node symmetry.
struct NodeClasses {
    /// Node 0's `ppn` programs — one representative per class.
    reps: Vec<RankPlan>,
    /// The probe ranks compiled while sampling, ascending by rank: all of
    /// them when `group` is `Some`, the prefix up to the first mismatch of
    /// the last candidate group otherwise.
    probed: Vec<RankPlan>,
    /// The node group that carries `reps` onto every probe node.
    group: Option<FoldGroup>,
}

/// The one probe policy: the nodes whose programs are compared against node
/// 0's.  Root-adjacency, halfway pivots and wrap-around edges are the
/// asymmetries the workspace's algorithms derive from the topology, hence
/// `{1, N/2, N-1}`; the one rank a *shape* singles out is its root, whose
/// program can differ from every other rank's in nothing but its buffer
/// shape, hence the root's node (node 0 — no probe — for unrooted kinds).
fn probe_nodes(nodes: usize, root_node: usize) -> Vec<usize> {
    let mut probes = vec![1, nodes / 2, nodes - 1, root_node];
    probes.sort_unstable();
    probes.dedup();
    probes.retain(|&m| m != 0);
    probes
}

/// The class compiler: compile node 0's `ppn` ranks, then the same local
/// ranks on the [`probe_nodes`] — each at most once, and only until a
/// mismatch — and find the node group (rotation first, then XOR for
/// power-of-two node counts) whose element `m` carries node 0's programs
/// onto node `m`'s under `equal_under`, for every probe node `m`.
///
/// Costs at most `(1 + probes) × ppn` rank compilations, independent of the
/// node count.  The probes *sample* the symmetry rather than prove it; that
/// they catch every asymmetric schedule in the workspace is pinned where the
/// whole plan is materialized rank by rank (`tests/cluster_instantiation.rs`
/// for instantiation, `tests/plan_equivalence.rs` for folding).
fn compile_classes(
    profile: &LibraryProfile,
    topology: Topology,
    shape: &CollectiveShape,
    fidelity: Fidelity,
    equal_under: EqualUnder,
) -> NodeClasses {
    let nodes = topology.nodes();
    let ppn = topology.ppn();
    let compile = |rank| compile_rank(profile, topology, rank, shape, fidelity);
    let reps: Vec<RankPlan> = (0..ppn).map(compile).collect();
    let mut probed: Vec<RankPlan> = Vec::new();
    let group = if nodes < 2 {
        None
    } else {
        let probes = probe_nodes(nodes, topology.node_of(shape.root));
        let mut carries_reps_onto_probes = |group| {
            let probe_ranks = probes
                .iter()
                .flat_map(|&m| (0..ppn).map(move |local| (m, local)));
            probe_ranks.enumerate().all(|(idx, (m, local))| {
                if idx == probed.len() {
                    probed.push(compile(topology.rank_of(m, local)));
                }
                equal_under(topology, group, m, &reps[local], &probed[idx])
            })
        };
        if carries_reps_onto_probes(FoldGroup::Rotation) {
            Some(FoldGroup::Rotation)
        } else if nodes.is_power_of_two() && carries_reps_onto_probes(FoldGroup::Xor) {
            Some(FoldGroup::Xor)
        } else {
            None
        }
    };
    NodeClasses {
        reps,
        probed,
        group,
    }
}

/// Compile the whole-cluster plan (every rank's program).
///
/// A thin user of the class compiler at **whole-program strength**
/// ([`ranks_equal_under`]): when a node group carries node 0's programs
/// onto every probe node, the plan stores node 0's programs and the group
/// ([`Plan::from_representatives`]) and every other rank is an
/// *instantiation* — node 0's program of the same local rank with its peers
/// relabeled, made only when a caller asks for that rank — so a
/// node-symmetric schedule costs `(1 + probes) × ppn` compilations and
/// `ppn` stored programs whatever the node count.  The probes only witness
/// the symmetry and are dropped.  Otherwise (rooted collectives, scans,
/// schedules with node-dependent data movement) the remaining ranks are
/// recorded one by one, the representatives and probes already compiled
/// included.  Either way the result equals, rank by rank, the plan
/// rank-by-rank compilation produces.
pub fn compile_cluster(
    profile: &LibraryProfile,
    topology: Topology,
    shape: &CollectiveShape,
    fidelity: Fidelity,
) -> Plan {
    compile_cluster_counted(profile, topology, shape, fidelity).0
}

/// [`compile_cluster`], also reporting `(ranks_compiled,
/// ranks_instantiated)`: how many ranks were recorded through the algorithm
/// and how many are relabeled from a representative.  The two sum to the
/// world size; no instantiated rank means the symmetry did not verify and
/// the compile was O(world).
fn compile_cluster_counted(
    profile: &LibraryProfile,
    topology: Topology,
    shape: &CollectiveShape,
    fidelity: Fidelity,
) -> (Plan, (u64, u64)) {
    let world = topology.world_size();
    let NodeClasses {
        reps,
        probed,
        group,
    } = compile_classes(profile, topology, shape, fidelity, ranks_equal_under);
    if let Some(group) = group {
        // Every recorded rank passed `PlanComm::finish`'s validation, and a
        // relabeled rank validates as its representative does.
        let compiled = reps.len() + probed.len();
        let counts = (compiled as u64, (world - compiled) as u64);
        return (Plan::from_representatives(topology, group, reps), counts);
    }
    // Node 0's ranks first; the probes and the rest follow in rank order.
    let mut probed = probed.into_iter().peekable();
    let mut ranks = reps;
    ranks.reserve_exact(world - ranks.len());
    for rank in ranks.len()..world {
        let plan = probed
            .next_if(|plan| plan.rank == rank)
            .unwrap_or_else(|| compile_rank(profile, topology, rank, shape, fidelity));
        ranks.push(plan);
    }
    (Plan::from_ranks(topology, ranks), (world as u64, 0))
}

/// Compile a symmetry-folded trace without compiling the whole world.
///
/// A thin user of the class compiler at **schedule strength**
/// ([`schedules_equal_under`] — a folded replay only needs the trace
/// projection to be symmetric, so rank-dependent data ops do not stop it).
/// On success node 0's programs are lowered (tags rebased by `tag`) into a
/// [`FoldedTrace`] ready for `SimEngine::run_folded_trace`; on failure
/// (rooted collectives, scans, asymmetric schedules) the caller must compile
/// the full cluster.
///
/// This entry point exists for the 10^5–10^6-rank projections where even
/// instantiating the world is the bottleneck: its cost is `(1 + probes) ×
/// ppn` rank compilations and nothing per node.
pub fn compile_folded(
    profile: &LibraryProfile,
    topology: Topology,
    shape: &CollectiveShape,
    tag: u64,
) -> Option<FoldedTrace> {
    let classes = compile_classes(
        profile,
        topology,
        shape,
        Fidelity::Schedule,
        schedules_equal_under,
    );
    let group = classes.group?;
    let lowered = classes
        .reps
        .iter()
        .map(|plan| plan.to_trace_ops(tag).into())
        .collect();
    FoldedTrace::from_representatives(topology, group, lowered).ok()
}

/// Shapes whose [`CollectiveShape::buffer_footprint`] exceeds this are not
/// compiled on the blocking path; [`crate::dispatch::run_blocking`] falls
/// back to direct algorithm execution instead.  A compile runs the
/// algorithm once and moves no payload bytes, so its cost follows the op
/// count, not the block; what the bypass still skips for a one-shot
/// multi-megabyte collective (bandwidth-bound anyway, so schedule
/// interpretation is noise there) is that compile, the cached plan and the
/// cursor's scratch buffers.
pub const EXEC_PLAN_MAX_BYTES: usize = 4 << 20;

/// Per-communicator cache of one rank's compiled plans (exec fidelity),
/// plus the rank's shared scratch-buffer arena — together they make the
/// repeat-dispatch hot path both compile-free and allocation-free.
#[derive(Debug)]
pub struct PlanCache {
    plans: HashMap<PlanKey, Rc<ExecPlan>>,
    arena: SharedArena,
    hits: u64,
    misses: u64,
    bypasses: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            plans: HashMap::new(),
            arena: shared_arena(),
            hits: 0,
            misses: 0,
            bypasses: 0,
        }
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch-buffer arena shared by every execution dispatched through
    /// this cache (blocking calls, requests, persistent handles).
    pub fn arena(&self) -> SharedArena {
        Rc::clone(&self.arena)
    }

    /// Arena accounting: in the persistent-collective steady state the miss
    /// counter stops moving after the first invocation of each shape.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.borrow().stats()
    }

    /// Look the key up, compiling (and remembering) the rank's plan on a
    /// miss.  A compiled plan enters the cache as an [`ExecPlan`], so the
    /// analysis of which shared reads land directly in the receive buffer
    /// runs once per plan, not once per call.
    pub fn lookup_or_compile(
        &mut self,
        profile: &LibraryProfile,
        topology: Topology,
        rank: usize,
        shape: &CollectiveShape,
    ) -> Rc<ExecPlan> {
        let key = PlanKey::new(profile, topology, *shape);
        if let Some(plan) = self.plans.get(&key) {
            debug_assert_eq!(plan.rank, rank, "one cache serves one rank");
            self.hits += 1;
            return Rc::clone(plan);
        }
        self.misses += 1;
        let plan = compile_rank(profile, topology, rank, shape, Fidelity::Exec);
        let plan = Rc::new(ExecPlan::new(plan));
        self.plans.insert(key, Rc::clone(&plan));
        plan
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Record that a request bypassed compilation (footprint over
    /// [`EXEC_PLAN_MAX_BYTES`]).
    pub fn note_bypass(&mut self) {
        self.bypasses += 1;
    }

    /// Requests that skipped the plan path since creation.
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// Cache of whole-cluster schedule-fidelity plans, shared by figure
/// generation (thread-safe values so one cache can sit behind a lock).
#[derive(Debug, Default)]
pub struct ClusterPlanCache {
    plans: HashMap<PlanKey, Arc<Plan>>,
    hits: u64,
    misses: u64,
    ranks_compiled: u64,
    ranks_instantiated: u64,
}

impl ClusterPlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look the key up, compiling the whole-cluster plan on a miss.
    ///
    /// When the cache sits behind a lock shared by several threads, prefer
    /// [`ClusterPlanCache::lookup`] + [`ClusterPlanCache::insert`] so the
    /// (possibly multi-second, whole-cluster) compile runs outside the
    /// critical section.
    pub fn lookup_or_compile(
        &mut self,
        profile: &LibraryProfile,
        topology: Topology,
        shape: &CollectiveShape,
    ) -> Arc<Plan> {
        if let Some(plan) = self.lookup(profile, topology, shape) {
            return plan;
        }
        let (plan, (compiled, instantiated)) =
            compile_cluster_counted(profile, topology, shape, Fidelity::Schedule);
        self.ranks_compiled += compiled;
        self.ranks_instantiated += instantiated;
        self.insert(profile, topology, shape, Arc::new(plan))
    }

    /// Look the key up without compiling; records a hit when found.
    pub fn lookup(
        &mut self,
        profile: &LibraryProfile,
        topology: Topology,
        shape: &CollectiveShape,
    ) -> Option<Arc<Plan>> {
        let key = PlanKey::new(profile, topology, *shape);
        let plan = self.plans.get(&key).map(Arc::clone);
        if plan.is_some() {
            self.hits += 1;
        }
        plan
    }

    /// Insert a plan compiled outside the cache (records a miss).  If a
    /// concurrent compile got there first, the existing entry wins and is
    /// returned, so every caller shares one canonical plan per key.
    pub fn insert(
        &mut self,
        profile: &LibraryProfile,
        topology: Topology,
        shape: &CollectiveShape,
        plan: Arc<Plan>,
    ) -> Arc<Plan> {
        let key = PlanKey::new(profile, topology, *shape);
        self.misses += 1;
        Arc::clone(self.plans.entry(key).or_insert(plan))
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(ranks_compiled, ranks_instantiated)` summed over every plan
    /// [`ClusterPlanCache::lookup_or_compile`] compiled: ranks recorded
    /// through the algorithm vs. ranks the plan instantiates from a node-0
    /// representative and does not store.  A miss that adds no
    /// instantiated ranks was an O(world) compile — the fallback that plan
    /// equality alone cannot show.  Plans handed to
    /// [`ClusterPlanCache::insert`] arrive compiled and are not counted.
    pub fn compile_counts(&self) -> (u64, u64) {
        (self.ranks_compiled, self.ranks_instantiated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::OwnedCollective;
    use crate::Library;
    use pip_collectives::datatype::DtypeId;
    use pip_collectives::oracle;
    use pip_collectives::plan::PlanCursor;
    use pip_collectives::{Comm as _, ThreadComm};
    use pip_runtime::Cluster;

    #[test]
    fn shape_of_extracts_block_and_root() {
        let request: OwnedCollective = OwnedCollective::Scatter {
            sendbuf: None,
            block: 8,
            root: 3,
        };
        let shape = request.shape(4);
        assert_eq!(shape.kind, CollectiveKind::Scatter);
        assert_eq!(shape.block, 8);
        assert_eq!(shape.root, 3);
    }

    #[test]
    fn customized_profiles_do_not_alias_in_the_cache() {
        // Two profiles sharing a Library tag but differing in content must
        // get distinct cached plans (the selected algorithm is part of the
        // key — the tag alone is not the functional determinant).
        let stock = Library::OpenMpi.profile();
        let mut custom = Library::OpenMpi.profile();
        custom.selection.rules = crate::selection::PIP_MCOLL;
        let topo = Topology::new(2, 2);
        let shape = CollectiveShape {
            kind: CollectiveKind::Allgather,
            block: 16,
            root: 0,
            elem_size: 1,
            reduce: None,
            layout: None,
            compress: None,
        };
        let world = topo.world_size();
        assert_ne!(
            stock.algorithm_for(&shape, world),
            custom.algorithm_for(&shape, world)
        );
        let mut cache = PlanCache::new();
        let a = cache.lookup_or_compile(&stock, topo, 0, &shape);
        let b = cache.lookup_or_compile(&custom, topo, 0, &shape);
        assert_eq!(cache.stats(), (0, 2), "distinct profiles must both compile");
        assert_ne!(a.ops, b.ops, "different rule lists, different plans");
        // And each profile still hits its own entry on repeat.
        cache.lookup_or_compile(&stock, topo, 0, &shape);
        assert_eq!(cache.stats(), (1, 2));
    }

    /// Open MPI and PiP-MPICH both select Bruck for a 64 B allgather on
    /// 16×18 (288 ranks, not a power of two), so the second library is
    /// served the first one's plan.
    #[test]
    fn libraries_selecting_the_same_algorithm_share_one_cluster_plan() {
        let topo = Topology::new(16, 18);
        let shape = CollectiveShape::plain(CollectiveKind::Allgather, 64, 0);
        let mut cache = ClusterPlanCache::new();
        let open_mpi = cache.lookup_or_compile(&Library::OpenMpi.profile(), topo, &shape);
        let pip_mpich = cache.lookup_or_compile(&Library::PipMpich.profile(), topo, &shape);
        assert!(Arc::ptr_eq(&open_mpi, &pip_mpich));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn cache_hits_after_first_compile() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(2, 2);
        let shape = CollectiveShape {
            kind: CollectiveKind::Allgather,
            block: 16,
            root: 0,
            elem_size: 1,
            reduce: None,
            layout: None,
            compress: None,
        };
        let mut cache = PlanCache::new();
        let a = cache.lookup_or_compile(&profile, topo, 0, &shape);
        let b = cache.lookup_or_compile(&profile, topo, 0, &shape);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_shapes_get_different_plans() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(2, 2);
        let mut cache = PlanCache::new();
        for block in [16usize, 32, 64] {
            let shape = CollectiveShape {
                kind: CollectiveKind::Allgather,
                block,
                root: 0,
                elem_size: 1,
                reduce: None,
                layout: None,
                compress: None,
            };
            cache.lookup_or_compile(&profile, topo, 0, &shape);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (0, 3));
    }

    /// A compile runs the algorithm once per rank, whatever the fidelity and
    /// the block: the recorder counts the setup delay every dispatch opens
    /// with, on the 4×4 PiP-MColl 64 B and 256 KiB `f32` allreduce.
    #[test]
    fn every_compile_runs_the_algorithm_once() {
        use pip_collectives::datatype::{DtypeId, ReduceOp};
        use pip_collectives::plan::PlanOp;
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(4, 4);
        let f32_sum = ReduceIdent::Builtin {
            dtype: DtypeId::F32,
            op: ReduceOp::Sum,
        };
        for block in [64, 256 << 10] {
            let shape = CollectiveShape::allreduce(block, 4, Some(f32_sum), None, None);
            for fidelity in [Fidelity::Exec, Fidelity::Schedule] {
                for rank in 0..topo.world_size() {
                    let plan = compile_rank(&profile, topo, rank, &shape, fidelity);
                    let runs = plan
                        .ops
                        .iter()
                        .filter(|op| matches!(op, PlanOp::Delay { .. }));
                    assert_eq!(runs.count(), 1, "{block} B, {fidelity:?}, rank {rank}");
                }
            }
        }
    }

    /// Compile a multi-object allgather plan per rank and execute it on the
    /// thread runtime: the output must equal the oracle.
    #[test]
    fn compiled_allgather_executes_correctly() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(3, 2);
        let world = topo.world_size();
        let block = 8;
        let shape = CollectiveShape {
            kind: CollectiveKind::Allgather,
            block,
            root: 0,
            elem_size: 1,
            reduce: None,
            layout: None,
            compress: None,
        };
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let plan = compile_rank(&profile, topo, comm.rank(), &shape, Fidelity::Exec);
            let mut cursor = PlanCursor::new(
                Rc::new(ExecPlan::new(plan)),
                Some(oracle::rank_payload(comm.rank(), block).into()),
                Some(vec![0u8; world * block].into()),
                1 << 16,
                shared_arena(),
                None,
            );
            cursor.run(ctx);
            cursor.into_output().recvbuf.unwrap().to_vec()
        })
        .unwrap();
        for buf in &results {
            assert_eq!(buf, &expected);
        }
    }

    /// MPI semantics: the scatter send buffer is significant only at the
    /// root.  Non-root ranks passing `Some` anyway (a common caller idiom)
    /// must behave exactly as under the legacy dispatch path.
    #[test]
    fn scatter_sendbuf_at_non_root_is_ignored_like_legacy() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(2, 2);
        let world = topo.world_size();
        let block = 8;
        let sendbuf = oracle::rank_payload(0, world * block);
        let expected = oracle::scatter(&sendbuf, world);
        let sendbuf_ref = &sendbuf;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut cache = PlanCache::new();
            let request = OwnedCollective::Scatter {
                // Every rank supplies the buffer, not just the root.
                sendbuf: Some(sendbuf_ref.clone().into()),
                block,
                root: 0,
            };
            let u8s = DtypeId::U8;
            let recvbuf =
                dispatch::run_blocking(&profile, &comm, request, u8s, 1 << 16, &mut cache);
            recvbuf.unwrap().to_vec()
        })
        .unwrap();
        for (rank, buf) in results.iter().enumerate() {
            assert_eq!(buf, &expected[rank]);
        }
    }

    /// A blocking collective whose buffer footprint exceeds
    /// [`EXEC_PLAN_MAX_BYTES`] skips compilation entirely and still matches
    /// the oracle.
    #[test]
    fn oversized_collectives_bypass_the_plan_path() {
        let profile = Library::PipMColl.profile();
        let topo = Topology::new(1, 2);
        let world = topo.world_size();
        // world * block = 6 MiB > the 4 MiB compile ceiling.
        let block = 3 << 20;
        let contributions: Vec<Vec<u8>> =
            (0..world).map(|r| oracle::rank_payload(r, block)).collect();
        let expected = oracle::allgather(&contributions);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let mut cache = PlanCache::new();
            let request = OwnedCollective::Allgather {
                sendbuf: oracle::rank_payload(comm.rank(), block).into(),
            };
            let u8s = DtypeId::U8;
            let recvbuf =
                dispatch::run_blocking(&profile, &comm, request, u8s, 1 << 16, &mut cache);
            (
                recvbuf.map(|buf| buf.to_vec()),
                cache.len(),
                cache.stats(),
                cache.bypasses(),
            )
        })
        .unwrap();
        for (recvbuf, entries, stats, bypasses) in results {
            assert!(recvbuf.as_ref() == Some(&expected), "allgather incorrect");
            assert_eq!(entries, 0, "no plan must be cached");
            assert_eq!(stats, (0, 0), "no compile must happen");
            assert_eq!(bypasses, 1);
        }
    }
}
