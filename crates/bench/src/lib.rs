//! # pip-mcoll-bench
//!
//! The benchmark harness: everything needed to regenerate the paper's
//! figures and the additional ablations listed in `DESIGN.md`.
//!
//! * [`figures`] builds library-vs-library comparison tables by recording
//!   each library's collective schedule and replaying it through the
//!   discrete-event simulator on the paper's cluster (128 nodes × 18
//!   processes per node, Omni-Path).
//! * [`report`] renders those tables in the paper's format — *scaled
//!   execution time*, normalized to PiP-MColl, with values above the
//!   clipping threshold marked the way Figure 1 annotates them.
//!
//! The `src/bin/*` binaries print one figure or claim each to stdout.  The
//! deterministic ones' output is committed under `docs/figures/` and
//! checked by `tests/figure_golden.rs`; the host-timed ones
//! (`bench_netsim`, `bench_reduce_kernels`, `abl_mailbox_contention`)
//! only assert their headline.  Timing the real thread-runtime
//! collectives is the `bench_all` package's job.

#![forbid(unsafe_code)]

pub mod fabric_bench;
pub mod figures;
pub mod overlap;
pub mod report;

pub use fabric_bench::{run_mailbox_workload, MailboxPoint};
pub use figures::{collective_comparison, ComparisonTable, LibrarySeries};
pub use overlap::{allreduce_overlap, allreduce_overlap_sweep, OverlapPoint};
pub use report::render_scaled_table;
