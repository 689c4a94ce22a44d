//! The communication abstraction the algorithms are written against, and its
//! executing implementation on the PiP thread runtime.  The other
//! implementation, [`crate::plan::PlanComm`], records an algorithm into a plan
//! that executes later or lowers to a trace for the simulator.
//!
//! ## Cost semantics
//!
//! The trait separates operations by what they cost on the real system:
//!
//! * [`Comm::send`] / [`Comm::recv`] — a message between two processes.  The
//!   simulator charges network costs when the endpoints are on different
//!   nodes and the library's intra-node transport when they share a node.
//! * [`Comm::shared_write`] / [`Comm::shared_read`] — a PiP-style direct
//!   load/store into a peer's exposed buffer: exactly one copy, charged to
//!   the calling process.
//! * [`Comm::send_from_shared`] / [`Comm::recv_into_shared`] — the zero-copy
//!   pattern PiP-MColl relies on: a process injects a message straight out
//!   of (or receives straight into) a peer's exposed buffer, so only the
//!   network transfer is charged.
//! * [`Comm::charge_copy`] / [`Comm::delay`] — local work no call shows (a
//!   reduction is priced from the [`crate::plan::PlanOp::Reduce`] its `op`
//!   records); the thread implementation moves nothing more (the algorithm
//!   did the work on its own buffers), the recorder notes the cost.
//!
//! Algorithms touch payload bytes only through the communicator's
//! [`Comm::Buf`] ([`crate::buf`]) and never branch on payload contents —
//! only on ranks, sizes and topology — so that a plan recorded without real
//! data is faithful to the real execution.

use std::cell::RefCell;

use pip_runtime::{TaskCtx, Topology};

use crate::buf::Buf;

/// A commutative reduction operator over the buffers `B` (raw bytes by
/// default).
///
/// The operator combines `other` into `acc` (`acc[i] ⊕= other[i]` for the
/// element interpretation the caller chose).
pub type ReduceFn<'a, B = [u8]> = dyn Fn(&mut B, &B) + Sync + 'a;

/// The owned buffer of communicator `C`: what a receive returns.
pub type BufVec<C> = <<C as Comm>::Buf as Buf>::Vec;

/// The communication surface available to a collective algorithm.
pub trait Comm {
    /// The buffers payload bytes live in: byte slices when executing,
    /// [`crate::buf::SymBuf`]s when recording.
    type Buf: ?Sized + Buf;

    /// This process's global rank.
    fn rank(&self) -> usize;

    /// The cluster topology.
    fn topology(&self) -> Topology;

    /// Total number of processes.
    fn world_size(&self) -> usize {
        self.topology().world_size()
    }

    /// Node hosting this process.
    fn node_id(&self) -> usize {
        self.topology().node_of(self.rank())
    }

    /// Local rank within the node (the paper's `R_l`).
    fn local_rank(&self) -> usize {
        self.topology().local_rank_of(self.rank())
    }

    /// Processes per node (the paper's `P`).
    fn ppn(&self) -> usize {
        self.topology().ppn()
    }

    /// Number of nodes (the paper's `N`).
    fn num_nodes(&self) -> usize {
        self.topology().nodes()
    }

    /// Whether this process is its node's leader (local rank 0).
    fn is_node_root(&self) -> bool {
        self.local_rank() == 0
    }

    // -- messaging -----------------------------------------------------

    /// Send `data` to `dest` with `tag`.
    ///
    /// **Contract: sending never blocks.**  Every implementation provides
    /// buffered (eager) semantics — the call enqueues the message and
    /// returns without waiting for a matching receive.  The default
    /// [`Comm::sendrecv`] and the deadlock-freedom of every symmetric
    /// exchange in the algorithms rely on this guarantee.
    fn send(&self, dest: usize, tag: u64, data: &Self::Buf);

    /// As [`Comm::send`] but taking ownership of the payload, so
    /// implementations that can hand the buffer straight to the transport
    /// (the thread runtime's fabric) avoid re-copying it.  The default
    /// forwards to [`Comm::send`].
    fn send_owned(&self, dest: usize, tag: u64, data: BufVec<Self>) {
        self.send(dest, tag, &data);
    }

    /// Receive exactly `len` bytes from `source` with `tag`.
    fn recv(&self, source: usize, tag: u64, len: usize) -> BufVec<Self>;

    /// As [`Comm::recv`] for `out.len()` bytes, landing them in `out`: the
    /// receive for a message the algorithm would otherwise copy whole into
    /// one contiguous slice of its own buffer.  Records the same operation
    /// as [`Comm::recv`]; the default receives a `Vec` and copies it.
    fn recv_into(&self, source: usize, tag: u64, out: &mut Self::Buf) {
        out.copy_from(0, &self.recv(source, tag, out.len()));
    }

    /// Send to `dest`, then receive from `source`.
    ///
    /// The default implementation posts the send first and then blocks on
    /// the receive.  Because [`Comm::send`] is guaranteed not to block, the
    /// two directions cannot deadlock: in a symmetric exchange both peers
    /// get their sends posted before either waits, regardless of ordering.
    /// This is MPI_Sendrecv's semantics over an eager transport — the
    /// directions are concurrent *in effect* (neither waits on the other's
    /// completion), not via extra threads.
    fn sendrecv(
        &self,
        dest: usize,
        send_tag: u64,
        data: &Self::Buf,
        source: usize,
        recv_tag: u64,
        recv_len: usize,
    ) -> BufVec<Self> {
        self.send(dest, send_tag, data);
        self.recv(source, recv_tag, recv_len)
    }

    // -- PiP shared address space (intra-node) ---------------------------

    /// Expose a buffer of `len` bytes under `name`, owned by this process.
    fn shared_alloc(&self, name: &str, len: usize);

    /// Publish an existing private buffer under `name` so peers can read it
    /// directly.
    ///
    /// Under PiP a process's private memory is already addressable by its
    /// peers, so publication costs nothing — this is the zero-copy property
    /// the multi-object algorithms rely on.  (The thread implementation
    /// copies into a region purely to make the bytes reachable; no cost is
    /// recorded.)
    fn shared_publish(&self, name: &str, data: &Self::Buf);

    /// Retrieve the contents of a region this process owns, at no cost.
    ///
    /// The inverse of [`Comm::shared_publish`]: the region served as this
    /// process's own destination buffer (peers deposited data into it), so
    /// under PiP no additional copy is needed to "collect" it.
    fn shared_collect(&self, name: &str, len: usize) -> BufVec<Self>;

    /// Store `data` into the buffer `name` owned by local rank
    /// `owner_local`, starting at `offset` (one copy, performed by the
    /// caller).
    fn shared_write(&self, owner_local: usize, name: &str, offset: usize, data: &Self::Buf);

    /// Load `len` bytes from the buffer `name` owned by local rank
    /// `owner_local`, starting at `offset` (one copy, performed by the
    /// caller).
    fn shared_read(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        len: usize,
    ) -> BufVec<Self>;

    /// As [`Comm::shared_read`] for `out.len()` bytes, loading them straight
    /// into `out` — the one copy PiP charges, with no intermediate buffer.
    /// Records the same operation as [`Comm::shared_read`]; the default
    /// reads a `Vec` and copies it.
    fn shared_read_into(&self, owner_local: usize, name: &str, offset: usize, out: &mut Self::Buf) {
        out.copy_from(0, &self.shared_read(owner_local, name, offset, out.len()));
    }

    /// Send `len` bytes straight out of a peer's exposed buffer (zero-copy:
    /// only the message itself is charged).
    fn send_from_shared(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        len: usize,
        dest: usize,
        tag: u64,
    );

    /// Receive `len` bytes straight into a peer's exposed buffer (zero-copy).
    fn recv_into_shared(
        &self,
        owner_local: usize,
        name: &str,
        offset: usize,
        source: usize,
        tag: u64,
        len: usize,
    );

    /// Barrier across the tasks of this node.
    fn node_barrier(&self);

    // -- local work annotations ------------------------------------------

    /// Account for a local copy of `bytes` bytes the algorithm performed on
    /// its private buffers (e.g. the final Bruck shift).
    fn charge_copy(&self, bytes: usize);

    /// Account for fixed software overhead (e.g. PiP-MPICH's size
    /// synchronization).
    fn delay(&self, nanos: f64);
}

// ---------------------------------------------------------------------------
// Real execution on the PiP thread runtime.
// ---------------------------------------------------------------------------

/// [`Comm`] implementation that runs on the thread-based PiP runtime and
/// moves real bytes.  Used by the correctness tests and the examples.
///
/// A compiled plan does not run through [`Comm`]: the plan cursor
/// ([`crate::plan::PlanCursor`]) drives the task context itself, so the
/// recording communicator ([`crate::plan::PlanComm`]) can never be handed to
/// an executor.
pub struct ThreadComm<'a> {
    ctx: &'a TaskCtx,
    /// Region names this rank exposed since the last
    /// [`ThreadComm::release_shared`].
    exposed: RefCell<Vec<String>>,
}

impl<'a> ThreadComm<'a> {
    /// Wrap a task context.
    pub fn new(ctx: &'a TaskCtx) -> Self {
        Self {
            ctx,
            exposed: RefCell::new(Vec::new()),
        }
    }

    /// The underlying task context.
    pub fn ctx(&self) -> &TaskCtx {
        self.ctx
    }

    /// Retire the regions this rank exposed by name
    /// ([`Comm::shared_alloc`], [`Comm::shared_publish`]) since the last
    /// call: the node's ranks pass a barrier, so no peer still has to
    /// attach, and each then unexposes its own.  Ends an algorithm run
    /// directly on the communicator rather than through a plan's scope;
    /// every rank of the node calls it.
    pub fn release_shared(&self) {
        self.ctx.node_barrier();
        let local = self.local_rank();
        for name in self.exposed.take() {
            self.ctx.node().unexpose(local, &name);
        }
    }

    /// Expose `name` and remember it for [`ThreadComm::release_shared`].
    fn expose(&self, name: &str, len: usize) -> pip_runtime::ExposedRegion {
        let mut exposed = self.exposed.borrow_mut();
        if !exposed.iter().any(|n| n == name) {
            exposed.push(name.to_string());
        }
        self.ctx.expose(name, len)
    }
}

impl Comm for ThreadComm<'_> {
    type Buf = [u8];

    fn rank(&self) -> usize {
        self.ctx.rank()
    }

    fn topology(&self) -> Topology {
        self.ctx.topology()
    }

    fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        // One copy: the fabric takes ownership of the borrowed bytes once
        // and the allocation travels to the receiver untouched.
        self.ctx.send_bytes(dest, tag, data).expect("send failed");
    }

    fn send_owned(&self, dest: usize, tag: u64, data: Vec<u8>) {
        // Zero copies: the caller's allocation moves into the fabric.
        self.ctx.send(dest, tag, data).expect("send failed");
    }

    fn recv(&self, source: usize, tag: u64, len: usize) -> Vec<u8> {
        let msg = self.ctx.recv(source, tag).expect("recv failed");
        assert_eq!(
            msg.payload.len(),
            len,
            "rank {} expected {} bytes from {} (tag {}), got {}",
            self.rank(),
            len,
            source,
            tag,
            msg.payload.len()
        );
        msg.payload
    }

    fn shared_alloc(&self, name: &str, len: usize) {
        self.expose(name, len);
    }

    fn shared_publish(&self, name: &str, data: &[u8]) {
        let region = self.expose(name, data.len());
        region.write(0, data);
    }

    fn shared_collect(&self, name: &str, len: usize) -> Vec<u8> {
        let region = self.ctx.attach(self.local_rank(), name);
        region.read_vec(0, len).expect("shared_collect in bounds")
    }

    fn shared_write(&self, owner_local: usize, name: &str, offset: usize, data: &[u8]) {
        let region = self.ctx.attach(owner_local, name);
        region.write(offset, data);
    }

    fn shared_read(&self, owner_local: usize, name: &str, offset: usize, len: usize) -> Vec<u8> {
        let region = self.ctx.attach(owner_local, name);
        region.read_vec(offset, len).expect("shared_read in bounds")
    }

    fn shared_read_into(&self, owner_local: usize, name: &str, offset: usize, out: &mut [u8]) {
        self.ctx.attach(owner_local, name).read(offset, out);
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
        let region = self.ctx.attach(owner_local, name);
        let data = region
            .read_vec(offset, len)
            .expect("send_from_shared in bounds");
        // The single copy out of the shared region is the only one; the
        // resulting allocation moves into the fabric.
        self.ctx.send(dest, tag, data).expect("send failed");
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
        let msg = self.ctx.recv(source, tag).expect("recv failed");
        assert_eq!(msg.payload.len(), len, "recv_into_shared length mismatch");
        let region = self.ctx.attach(owner_local, name);
        region.write(offset, &msg.payload);
    }

    fn node_barrier(&self) {
        self.ctx.node_barrier();
    }

    fn charge_copy(&self, _bytes: usize) {}

    fn delay(&self, _nanos: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fidelity, PlanComm};
    use pip_runtime::Cluster;

    #[test]
    fn thread_comm_exposes_coordinates() {
        let topo = Topology::new(2, 3);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            (comm.rank(), comm.node_id(), comm.local_rank(), comm.ppn())
        })
        .unwrap();
        assert_eq!(results[4], (4, 1, 1, 3));
    }

    #[test]
    fn thread_comm_send_recv_moves_real_bytes() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            if comm.rank() == 0 {
                comm.send(1, 5, &[1, 2, 3]);
                comm.send(1, 6, &[4, 5, 6]);
                (Vec::new(), Vec::new())
            } else {
                // `recv_into` lands the bytes `recv` returns, in place.
                let mut landed = vec![0xA5; 5];
                comm.recv_into(0, 6, &mut landed[1..4]);
                (comm.recv(0, 5, 3), landed)
            }
        })
        .unwrap();
        assert_eq!(results[1], (vec![1, 2, 3], vec![0xA5, 4, 5, 6, 0xA5]));
    }

    #[test]
    fn thread_comm_shared_ops_move_real_bytes() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            if comm.local_rank() == 0 {
                comm.shared_alloc("buf", 8);
            }
            comm.node_barrier();
            if comm.local_rank() == 1 {
                comm.shared_write(0, "buf", 2, &[7, 8]);
            }
            comm.node_barrier();
            // `shared_read_into` loads the bytes `shared_read` returns, in
            // place.
            let mut loaded = vec![0xA5; 5];
            comm.shared_read_into(0, "buf", 1, &mut loaded[1..4]);
            (comm.shared_read(0, "buf", 0, 4), loaded)
        })
        .unwrap();
        for result in results {
            assert_eq!(result, (vec![0, 0, 7, 8], vec![0xA5, 0, 7, 8, 0xA5]));
        }
    }

    #[test]
    fn thread_comm_zero_copy_paths_deliver_data() {
        let topo = Topology::new(2, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            // Node 0's leader exposes data; node 0's rank 1 sends it from the
            // shared buffer to node 1's rank 1, which receives it into node
            // 1's leader's buffer.
            if comm.rank() == 0 {
                comm.shared_alloc("src", 4);
                comm.shared_write(0, "src", 0, &[9, 9, 9, 9]);
            }
            if comm.rank() == 2 {
                comm.shared_alloc("dst", 4);
            }
            comm.node_barrier();
            if comm.rank() == 1 {
                comm.send_from_shared(0, "src", 0, 4, 3, 11);
            }
            if comm.rank() == 3 {
                comm.recv_into_shared(0, "dst", 0, 1, 11, 4);
            }
            comm.node_barrier();
            if comm.node_id() == 1 {
                comm.shared_read(0, "dst", 0, 4)
            } else {
                Vec::new()
            }
        })
        .unwrap();
        assert_eq!(results[2], vec![9, 9, 9, 9]);
        assert_eq!(results[3], vec![9, 9, 9, 9]);
    }

    /// Regression test for the sendrecv contract: symmetric exchange
    /// patterns — both peers inside a pairwise exchange calling `sendrecv`
    /// towards each other at the same time — must complete, because sends
    /// are buffered and never block.  Runs several rounds with payloads big
    /// enough that a rendezvous-style (blocking) send would deadlock the
    /// pair immediately.
    #[test]
    fn sendrecv_exchange_pattern_completes_and_delivers() {
        let topo = Topology::new(2, 2);
        let rounds = 4u64;
        let len = 256 * 1024;
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            let p = comm.world_size();
            let mut sum = 0u64;
            for round in 0..rounds {
                // Pairwise exchange: partner = rank ^ (1 + round % (p-1)),
                // clipped to the world — every rank sends and receives in
                // the same call.
                let partner = comm.rank() ^ (1 + (round as usize) % (p - 1));
                if partner >= p {
                    continue;
                }
                let payload = vec![comm.rank() as u8; len];
                let received =
                    comm.sendrecv(partner, 42 + round, &payload, partner, 42 + round, len);
                assert_eq!(received, vec![partner as u8; len]);
                sum += received[0] as u64;
            }
            sum
        })
        .unwrap();
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn send_owned_delivers_without_extra_copy() {
        let topo = Topology::new(1, 2);
        let results = Cluster::launch(topo, |ctx| {
            let comm = ThreadComm::new(ctx);
            if comm.rank() == 0 {
                comm.send_owned(1, 5, vec![4, 5, 6]);
                Vec::new()
            } else {
                comm.recv(0, 5, 3)
            }
        })
        .unwrap();
        assert_eq!(results[1], vec![4, 5, 6]);
    }

    #[test]
    fn default_accessors_derive_from_topology() {
        let topo = Topology::new(3, 4);
        let comm = PlanComm::new(7, topo, Fidelity::Schedule);
        assert_eq!(comm.world_size(), 12);
        assert_eq!(comm.node_id(), 1);
        assert_eq!(comm.local_rank(), 3);
        assert_eq!(comm.num_nodes(), 3);
        assert!(!comm.is_node_root());
    }
}
