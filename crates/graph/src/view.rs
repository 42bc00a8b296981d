//! A read-only view trait unifying [`CsrGraph`] and [`DynamicGraph`].
//!
//! The metric kernels in `osn-metrics` were originally written against
//! frozen [`CsrGraph`] snapshots. The incremental engine
//! (`osn_metrics::engine`) evaluates the same kernels directly on the
//! evolving [`DynamicGraph`] — skipping the per-day CSR freeze — so the
//! kernels are generic over this trait instead.
//!
//! **Byte-identity contract:** both implementations expose neighbour
//! lists sorted ascending and iterate edges in the same order
//! (`u` ascending, then `v` ascending with `u < v`). Any kernel written
//! against `GraphView` therefore performs bit-identical arithmetic on a
//! frozen snapshot and on the live graph at the same instant — the
//! property the batch-vs-incremental differential tests pin down.
//!
//! [`GraphView::node_triangles`] is the one place the two differ in
//! cost, not in value: the live graph maintains per-node triangle counts
//! on every edge insert and answers in `O(1)`, while a frozen snapshot
//! answers `None` and the caller falls back to counting by
//! sorted-neighbour intersection, the independent check the live counts
//! are tested against.

use crate::csr::CsrGraph;
use crate::dynamic::DynamicGraph;
use crate::time::NodeId;

/// Read-only access to an undirected graph with sorted adjacency.
pub trait GraphView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges.
    fn num_edges(&self) -> u64;

    /// Degree of a node.
    fn degree(&self, node: u32) -> usize;

    /// Neighbours of a node, sorted ascending.
    fn neighbors(&self, node: u32) -> &[u32];

    /// Number of triangles through `node`, if the view maintains it
    /// (the live [`DynamicGraph`] does; a frozen [`CsrGraph`] does not).
    fn node_triangles(&self, node: u32) -> Option<u64> {
        let _ = node;
        None
    }

    /// Iterate every undirected edge once, as `(u, v)` with `u < v`,
    /// `u` ascending then `v` ascending — the canonical order every
    /// edge-driven kernel relies on for bit-identical results.
    fn edges(&self) -> EdgesIter<'_, Self>
    where
        Self: Sized,
    {
        EdgesIter {
            g: self,
            u: 0,
            i: 0,
        }
    }
}

/// Iterator over the edges of any [`GraphView`] in canonical order.
#[derive(Debug)]
pub struct EdgesIter<'a, G: GraphView> {
    g: &'a G,
    u: u32,
    i: usize,
}

impl<G: GraphView> Iterator for EdgesIter<'_, G> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        let n = self.g.num_nodes() as u32;
        while self.u < n {
            let neigh = self.g.neighbors(self.u);
            while self.i < neigh.len() {
                let v = neigh[self.i];
                self.i += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.i = 0;
        }
        None
    }
}

impl GraphView for CsrGraph {
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    fn num_edges(&self) -> u64 {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, node: u32) -> usize {
        CsrGraph::degree(self, node)
    }

    #[inline]
    fn neighbors(&self, node: u32) -> &[u32] {
        CsrGraph::neighbors(self, node)
    }
}

impl GraphView for DynamicGraph {
    fn num_nodes(&self) -> usize {
        DynamicGraph::num_nodes(self)
    }

    fn num_edges(&self) -> u64 {
        DynamicGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, node: u32) -> usize {
        DynamicGraph::degree(self, NodeId(node))
    }

    #[inline]
    fn neighbors(&self, node: u32) -> &[u32] {
        DynamicGraph::neighbors(self, NodeId(node))
    }

    #[inline]
    fn node_triangles(&self, node: u32) -> Option<u64> {
        Some(DynamicGraph::node_triangles(self, NodeId(node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Origin};
    use crate::time::Time;

    fn both_views() -> (DynamicGraph, CsrGraph) {
        let mut g = DynamicGraph::new();
        for id in 0..5u32 {
            g.apply(&Event::node(Time(id as u64), NodeId(id), Origin::Core))
                .unwrap();
        }
        for (t, (u, v)) in [(0, 1), (1, 2), (0, 2), (2, 3)].iter().enumerate() {
            g.apply(&Event::edge(Time(10 + t as u64), NodeId(*u), NodeId(*v)))
                .unwrap();
        }
        let csr = g.freeze();
        (g, csr)
    }

    fn edge_list<G: GraphView>(g: &G) -> Vec<(u32, u32)> {
        g.edges().collect()
    }

    #[test]
    fn views_agree() {
        let (dynamic, csr) = both_views();
        assert_eq!(GraphView::num_nodes(&dynamic), GraphView::num_nodes(&csr));
        assert_eq!(GraphView::num_edges(&dynamic), GraphView::num_edges(&csr));
        for u in 0..5u32 {
            assert_eq!(GraphView::degree(&dynamic, u), GraphView::degree(&csr, u));
            assert_eq!(
                GraphView::neighbors(&dynamic, u),
                GraphView::neighbors(&csr, u)
            );
        }
    }

    #[test]
    fn edges_iterate_in_canonical_order() {
        let (dynamic, csr) = both_views();
        let from_view = edge_list(&dynamic);
        // The inherent CsrGraph::edges is the historical reference order.
        let inherent: Vec<_> = csr.edges().collect();
        assert_eq!(from_view, inherent);
        assert_eq!(edge_list(&csr), inherent);
        assert_eq!(from_view, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = DynamicGraph::new();
        assert_eq!(g.edges().count(), 0);
    }
}
