//! # pip-netsim
//!
//! A discrete-event simulator for MPI collective communication schedules.
//!
//! The correctness of every algorithm in this workspace is established by
//! running it on the thread-based PiP runtime and comparing against an
//! oracle.  Its *performance at the paper's scale* — 128 nodes × 18
//! processes per node on 100 Gb/s Omni-Path — is produced here: the same
//! algorithm is executed once more against a recording communicator, the
//! resulting per-rank [`trace::Trace`] is handed to the [`engine`], and the
//! engine replays it against the cost models of `pip-transport`:
//!
//! * every rank is a sequential processor that pays host overhead for each
//!   send/receive and the modelled copy cost for each intra-node transfer;
//! * every node has one NIC that serializes injections at the adapter's
//!   message rate and bandwidth (the resource the multi-object design keeps
//!   busy);
//! * the wire adds latency; intra-node messages bypass the NIC and are
//!   charged to the configured intra-node mechanism (PiP, CMA, XPMEM or
//!   POSIX-SHMEM);
//! * node-local barriers synchronize all ranks of a node.
//!
//! The simulator is deterministic: identical traces and parameters produce
//! identical reports.
//!
//! Two scheduler implementations coexist: the calendar-queue engine in
//! [`engine`] (the default) and the seed `BinaryHeap` engine retained as a
//! differential baseline behind [`engine::SimEngine::run_reference`].  For
//! node-symmetric schedules, [`fold`] partitions ranks into equivalence
//! classes and [`engine::SimEngine::run_folded`] replays one representative
//! per class — bit-identical to the full replay, so [`network::simulate`]
//! folds whenever it can — which is what makes million-rank projections
//! tractable.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod engine;
pub mod fold;
pub mod network;
pub mod params;
pub mod perturb;
mod reference;
pub mod trace;

pub use cluster::ClusterSpec;
pub use engine::{RunOptions, SimEngine, SimError, SimFailure, SimOutcome, SimStats, StarvedRecv};
pub use fold::{FoldGroup, FoldedTrace};
pub use network::{simulate, simulate_degraded, SimulationReport};
pub use params::SimParams;
pub use perturb::{DropSpec, Perturbation, SendFate};
pub use trace::{OpVec, RankTrace, Trace, TraceOp};
