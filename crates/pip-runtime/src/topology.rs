//! Cluster topology: the mapping between global ranks and (node, local rank).
//!
//! PiP-MColl is a *hierarchical* design, so every algorithm in the workspace
//! reasons in terms of a node id `N_id`, a local rank `R_l`, and the number of
//! processes per node `P` (the paper's notation).  [`Topology`] is the single
//! source of truth for that mapping and is shared verbatim between the thread
//! runtime, the trace recorder, and the discrete-event simulator so that the
//! correctness runs and the timed runs describe the same machine.
//!
//! Ranks are laid out node-major and block-wise, which is the layout the
//! paper assumes (the paired process of local rank `R_l` on node `N` is
//! `N * P + R_l`).

use crate::error::{Result, RuntimeError};

/// A rectangular cluster: `nodes` nodes, each running `ppn` processes.
///
/// The global rank of local rank `l` on node `n` is `n * ppn + l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    nodes: usize,
    ppn: usize,
}

impl Topology {
    /// Create a topology of `nodes` nodes with `ppn` processes per node.
    ///
    /// # Panics
    /// Panics if either dimension is zero; use [`Topology::try_new`] for a
    /// fallible constructor.
    pub fn new(nodes: usize, ppn: usize) -> Self {
        Self::try_new(nodes, ppn).expect("topology dimensions must be non-zero")
    }

    /// Fallible constructor.
    pub fn try_new(nodes: usize, ppn: usize) -> Result<Self> {
        if nodes == 0 || ppn == 0 {
            return Err(RuntimeError::InvalidTopology(format!(
                "nodes={nodes}, ppn={ppn}: both must be >= 1"
            )));
        }
        Ok(Self { nodes, ppn })
    }

    /// Number of nodes in the cluster.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Processes per node (the paper's `P`).
    #[inline]
    pub fn ppn(&self) -> usize {
        self.ppn
    }

    /// Total number of ranks (`nodes * ppn`).
    #[inline]
    pub fn world_size(&self) -> usize {
        self.nodes * self.ppn
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.world_size());
        rank / self.ppn
    }

    /// The local rank of `rank` on its node (the paper's `R_l`).
    #[inline]
    pub fn local_rank_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.world_size());
        rank % self.ppn
    }

    /// The global rank of local rank `local` on node `node`.
    #[inline]
    pub fn rank_of(&self, node: usize, local: usize) -> usize {
        debug_assert!(node < self.nodes && local < self.ppn);
        node * self.ppn + local
    }

    /// The node-leader rank (local rank 0) of `node`.
    #[inline]
    pub fn node_root(&self, node: usize) -> usize {
        self.rank_of(node, 0)
    }

    /// Whether `rank` is a node leader.
    #[inline]
    pub fn is_node_root(&self, rank: usize) -> bool {
        self.local_rank_of(rank) == 0
    }

    /// Whether `a` and `b` are hosted by the same node (i.e. PiP direct
    /// memory access between them is possible).
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// All global ranks hosted by `node`, in local-rank order.
    pub fn ranks_on_node(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let base = node * self.ppn;
        (0..self.ppn).map(move |l| base + l)
    }

    /// Validate that `rank` is inside the world.
    pub fn check_rank(&self, rank: usize) -> Result<()> {
        if rank < self.world_size() {
            Ok(())
        } else {
            Err(RuntimeError::RankOutOfRange {
                rank,
                world_size: self.world_size(),
            })
        }
    }

    /// Validate that `local` is inside a node.
    pub fn check_local_rank(&self, local: usize) -> Result<()> {
        if local < self.ppn {
            Ok(())
        } else {
            Err(RuntimeError::LocalRankOutOfRange {
                local_rank: local,
                ppn: self.ppn,
            })
        }
    }

    /// The paper's testbed: 128 nodes x 18 processes per node = 2304 ranks.
    pub fn hpdc23() -> Self {
        Self::new(128, 18)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_small() {
        let t = Topology::new(4, 3);
        assert_eq!(t.world_size(), 12);
        for rank in 0..t.world_size() {
            let n = t.node_of(rank);
            let l = t.local_rank_of(rank);
            assert_eq!(t.rank_of(n, l), rank);
        }
    }

    #[test]
    fn node_roots_are_multiples_of_ppn() {
        let t = Topology::new(5, 7);
        for node in 0..5 {
            assert_eq!(t.node_root(node), node * 7);
            assert!(t.is_node_root(t.node_root(node)));
        }
    }

    #[test]
    fn ranks_on_node_enumerates_block() {
        let t = Topology::new(3, 4);
        let ranks: Vec<_> = t.ranks_on_node(1).collect();
        assert_eq!(ranks, vec![4, 5, 6, 7]);
    }

    #[test]
    fn same_node_is_block_wise() {
        let t = Topology::new(2, 3);
        assert!(t.same_node(0, 2));
        assert!(!t.same_node(2, 3));
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(Topology::try_new(0, 4).is_err());
        assert!(Topology::try_new(4, 0).is_err());
    }

    #[test]
    fn rank_range_checks() {
        let t = Topology::new(2, 2);
        assert!(t.check_rank(3).is_ok());
        assert!(t.check_rank(4).is_err());
        assert!(t.check_local_rank(1).is_ok());
        assert!(t.check_local_rank(2).is_err());
    }

    #[test]
    fn hpdc23_matches_paper() {
        let t = Topology::hpdc23();
        assert_eq!(t.nodes(), 128);
        assert_eq!(t.ppn(), 18);
        assert_eq!(t.world_size(), 2304);
    }

    proptest! {
        #[test]
        fn prop_round_trip(nodes in 1usize..64, ppn in 1usize..32, seed in 0usize..4096) {
            let t = Topology::new(nodes, ppn);
            let rank = seed % t.world_size();
            let n = t.node_of(rank);
            let l = t.local_rank_of(rank);
            prop_assert!(n < nodes);
            prop_assert!(l < ppn);
            prop_assert_eq!(t.rank_of(n, l), rank);
        }

        #[test]
        fn prop_node_partition_is_exact(nodes in 1usize..32, ppn in 1usize..16) {
            let t = Topology::new(nodes, ppn);
            let mut seen = vec![false; t.world_size()];
            for node in 0..nodes {
                for rank in t.ranks_on_node(node) {
                    prop_assert!(!seen[rank], "rank {} assigned to two nodes", rank);
                    seen[rank] = true;
                    prop_assert_eq!(t.node_of(rank), node);
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
