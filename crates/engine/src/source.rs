//! Adjacency-set data sources for the engine.
//!
//! A `GetAdj` (DBQ) instruction resolves through a [`DataSource`]. A
//! lookup may fail — a store shard can stay dark past its retry policy,
//! a value can rot, a vertex can be missing — and the failure is
//! returned as a value: the engine stops the task at the failing fetch
//! and hands the error to its caller, which decides at the task boundary
//! whether to rerun the task or fail its chunk (local search tasks are
//! idempotent, paper §III-C).
//!
//! This crate ships [`InMemorySource`] — the whole graph pinned in
//! memory, which cannot fail ([`Infallible`]); it serves tests, examples
//! and the single-machine baselines. The store-backed source (a
//! per-machine DB cache in front of the sharded store, every miss a
//! counted database query) lives with the cluster runtime that owns the
//! store transport.

use benu_graph::{AdjSet, Graph, VertexId};
use std::convert::Infallible;
use std::sync::Arc;

/// Resolves adjacency sets for DBQ instructions. Implementations must be
/// shareable across worker threads.
pub trait DataSource: Sync {
    /// Why a lookup failed; [`Infallible`] for sources that cannot fail.
    type Error;

    /// Number of vertices in the data graph (`V(G)` for `AllVertices`
    /// operands).
    fn num_vertices(&self) -> usize;

    /// The adjacency set of `v`.
    ///
    /// # Errors
    ///
    /// Whatever the backend cannot serve: the engine stops the task at
    /// the first error and returns it.
    fn get_adj(&self, v: VertexId) -> Result<Arc<AdjSet>, Self::Error>;

    /// The adjacency sets of `vs`, in order. The default resolves each
    /// vertex with [`DataSource::get_adj`]; batched backends override this
    /// to group the lookups into fewer round trips (e.g. one per store
    /// shard), which is how frontier prefetching stays cheap.
    ///
    /// # Errors
    ///
    /// The first lookup that fails fails the whole batch.
    fn get_adj_batch(&self, vs: &[VertexId]) -> Result<Vec<Arc<AdjSet>>, Self::Error> {
        vs.iter().map(|&v| self.get_adj(v)).collect()
    }
}

/// The whole data graph resident in memory as shared adjacency sets.
#[derive(Debug)]
pub struct InMemorySource {
    adj: Vec<Arc<AdjSet>>,
}

impl InMemorySource {
    /// Materialises every adjacency set of `g`, building the bitset-block
    /// sidecar for dense vertices (the same per-vertex representation
    /// decision the distributed store makes at decode time).
    pub fn from_graph(g: &Graph) -> Self {
        InMemorySource {
            adj: g
                .vertices()
                .map(|v| Arc::new(g.adj_set(v).with_blocks(benu_graph::DENSE_BLOCK_THRESHOLD)))
                .collect(),
        }
    }
}

impl DataSource for InMemorySource {
    type Error = Infallible;

    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph (plans only query
    /// mapped vertices, which always exist).
    fn get_adj(&self, v: VertexId) -> Result<Arc<AdjSet>, Infallible> {
        Ok(Arc::clone(&self.adj[v as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benu_graph::gen;

    #[test]
    fn in_memory_source_matches_graph() {
        let g = gen::cycle(6);
        let src = InMemorySource::from_graph(&g);
        assert_eq!(src.num_vertices(), 6);
        for v in g.vertices() {
            let Ok(adj) = src.get_adj(v);
            assert_eq!(adj.as_slice(), g.neighbors(v));
        }
    }

    #[test]
    fn default_batch_matches_single_gets() {
        let g = gen::cycle(5);
        let src = InMemorySource::from_graph(&g);
        let Ok(sets) = src.get_adj_batch(&[4, 0, 2]);
        assert_eq!(sets[0].as_slice(), g.neighbors(4));
        assert_eq!(sets[1].as_slice(), g.neighbors(0));
        assert_eq!(sets[2].as_slice(), g.neighbors(2));
    }
}
