//! The plan/execute split: compile a collective once, run it many times.
//!
//! A collective schedule is a pure function of `(collective, topology,
//! message size, library)` — nothing in it depends on payload contents.
//! This module exploits that invariance the way persistent/partitioned MPI
//! collectives do, by separating the two phases that today's `execute()`
//! path fuses:
//!
//! * **Compile** ([`record`]): run the unmodified algorithm once against the
//!   recording [`record::PlanComm`] (the [`crate::comm::Comm`] implementation
//!   beside the executing `ThreadComm`) and assemble a validated
//!   [`ir::RankPlan`] — a symbolic per-rank program.
//! * **Execute** ([`cursor`]): replay the compiled program on a live
//!   communicator with fresh caller buffers — one resumable interpreter
//!   behind blocking, non-blocking and persistent collectives alike — or
//!   lower it straight to a `pip-netsim` trace ([`ir::Plan::to_trace`])
//!   without touching the algorithm again.  Lowering is the only way a
//!   simulator trace is made.
//!
//! Caching compiled plans per communicator (see `pip-mpi-model`'s
//! `PlanCache`) turns the dispatch hot path into *lookup-or-compile, then
//! run*.

pub mod arena;
pub mod cursor;
pub mod ir;
pub mod record;
pub mod rewrite;
pub mod symmetry;

pub use arena::{shared_arena, ArenaStats, BufferArena, SharedArena};
pub use cursor::{CursorOutput, ExecPlan, PlanCursor, StepOutcome};
pub use ir::{Fidelity, IoShape, Plan, PlanError, PlanOp, RankPlan, Src, SrcSeg, ValId};
pub use record::{compile, record_trace, PlanComm};
pub use rewrite::compress_rank_transfers;
pub use symmetry::{ranks_equal_under, schedules_equal_under};
