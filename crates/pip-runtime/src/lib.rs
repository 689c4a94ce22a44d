//! # pip-runtime
//!
//! A Process-in-Process (PiP) substrate in safe Rust.
//!
//! The PiP programming environment (Hori et al., HPDC '18) loads every MPI
//! process of a node into a *single virtual address space*, so processes can
//! read and write each other's memory with plain loads and stores — no
//! system call, no page-fault storm, and no intermediate copy.  The PiP-MColl
//! collectives (Huang et al., HPDC '23) rely on exactly that property for
//! their intra-node phases.
//!
//! This crate reproduces the property with *tasks as threads*: a simulated
//! cluster is launched inside one Rust process, every simulated node is a
//! [`NodeSpace`] (one shared address space), and every MPI process is a
//! [`task::TaskCtx`] running on its own thread.  Tasks on the same node
//! exchange data through [`memory::ExposedRegion`]s — buffers a task exposes
//! so that its local peers may read or write them directly.  Tasks on
//! different nodes exchange data through the [`fabric::Fabric`], a
//! tag-matching mailbox that stands in for the interconnect.
//!
//! The runtime moves real bytes and is used for correctness: every collective
//! algorithm in the workspace is executed here against a sequential oracle.
//! Timing at the paper's scale (128 nodes × 18 processes) is produced by the
//! `pip-netsim` discrete-event simulator from traces of the same algorithms.
//!
//! ## Quick example
//!
//! ```
//! use pip_runtime::{Cluster, Topology};
//!
//! // 2 nodes x 3 tasks per node = 6 ranks, all inside this process.
//! let topo = Topology::new(2, 3);
//! let results = Cluster::launch(topo, |ctx| {
//!     // Every task contributes its rank; rank 0 of each node sums its node.
//!     let region = ctx.expose("slot", 8);
//!     region.write(0, &(ctx.rank() as u64).to_le_bytes());
//!     ctx.node_barrier();
//!     let mut sum = 0u64;
//!     if ctx.local_rank() == 0 {
//!         for lr in 0..ctx.ppn() {
//!             let peer = ctx.attach(lr, "slot");
//!             let mut buf = [0u8; 8];
//!             peer.read(0, &mut buf);
//!             sum += u64::from_le_bytes(buf);
//!         }
//!     }
//!     ctx.node_barrier();
//!     sum
//! })
//! .unwrap();
//! assert_eq!(results[0], 0 + 1 + 2);
//! assert_eq!(results[3], 3 + 4 + 5);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod fabric;
pub mod memory;
pub mod node;
pub mod scope;
pub mod sync;
pub mod task;
pub mod topology;

pub use error::{Result, RuntimeError};
pub use fabric::{Fabric, FabricStats, Message, Tag, DEFAULT_MAILBOX_SHARDS};
pub use memory::{ExposedRegion, RegionKey};
pub use node::NodeSpace;
pub use scope::{RegionPoolStats, ScopeHandle};
pub use task::{Cluster, TaskCtx};
pub use topology::Topology;
