//! Launching a simulated world: topology + library profile + user program.

use pip_mpi_model::{Library, LibraryProfile};
use pip_runtime::{Cluster, Result, Topology};

use crate::comm::Communicator;

/// Entry point for running MPI-like programs on the in-process cluster.
pub struct World;

impl World {
    /// Start building a world description.
    pub fn builder() -> WorldBuilder {
        WorldBuilder::default()
    }

    /// Run `f` on every rank of `topology` with the given library profile
    /// and collect the per-rank results in rank order.
    pub fn run_with_profile<T, F>(
        topology: Topology,
        profile: LibraryProfile,
        f: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Communicator<'_>) -> T + Sync,
    {
        Cluster::launch(topology, |ctx| {
            let comm = Communicator::new(ctx, profile.clone());
            f(&comm)
        })
    }
}

/// Builder for [`World::run_with_profile`].
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    nodes: usize,
    ppn: usize,
    library: Library,
}

impl Default for WorldBuilder {
    fn default() -> Self {
        Self {
            nodes: 1,
            ppn: 2,
            library: Library::PipMColl,
        }
    }
}

impl WorldBuilder {
    /// Number of simulated nodes (default 1).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Processes per node (default 2).
    pub fn ppn(mut self, ppn: usize) -> Self {
        self.ppn = ppn;
        self
    }

    /// Which library's algorithms to use (default PiP-MColl).
    pub fn library(mut self, library: Library) -> Self {
        self.library = library;
        self
    }

    /// The topology this builder describes.
    ///
    /// # Panics
    /// Panics when `nodes` or `ppn` is zero ([`WorldBuilder::run`] reports
    /// that as an error instead).
    pub fn topology(&self) -> Topology {
        Topology::new(self.nodes, self.ppn)
    }

    /// Launch the world and run `f` on every rank.  A builder with zero
    /// nodes or zero processes per node yields
    /// [`pip_runtime::RuntimeError::InvalidTopology`].
    pub fn run<T, F>(self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Communicator<'_>) -> T + Sync,
    {
        let topology = Topology::try_new(self.nodes, self.ppn)?;
        World::run_with_profile(topology, self.library.profile(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_runtime::RuntimeError;

    #[test]
    fn builder_defaults_are_sane() {
        let builder = World::builder();
        assert_eq!(builder.topology().world_size(), 2);
    }

    #[test]
    fn run_collects_results_in_rank_order() {
        let results = World::builder()
            .nodes(2)
            .ppn(2)
            .run(|comm| comm.rank() * 2)
            .unwrap();
        assert_eq!(results, vec![0, 2, 4, 6]);
    }

    #[test]
    fn every_library_can_run_a_program() {
        for library in Library::ALL {
            let results = World::builder()
                .nodes(2)
                .ppn(2)
                .library(library)
                .run(|comm| {
                    let gathered = comm.allgather(&[comm.rank() as u16]);
                    gathered.iter().copied().sum::<u16>()
                })
                .unwrap();
            assert!(results.iter().all(|&s| s == 6), "{}", library.name());
        }
    }

    #[test]
    fn empty_dimensions_are_an_error_not_a_panic() {
        for (nodes, ppn) in [(0, 2), (2, 0), (0, 0)] {
            let err = World::builder()
                .nodes(nodes)
                .ppn(ppn)
                .run(|comm| comm.rank())
                .unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidTopology(_)),
                "{nodes}x{ppn}: {err}"
            );
        }
    }

    #[test]
    fn panics_in_user_code_surface_as_errors() {
        let err = World::builder()
            .nodes(1)
            .ppn(2)
            .run(|comm| {
                if comm.rank() == 1 {
                    panic!("boom");
                }
                0
            })
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }
}
