//! Clustering coefficient.
//!
//! The local clustering coefficient of a node is the number of edges
//! among its neighbours divided by the maximum possible
//! `deg·(deg−1)/2`. Figure 1(e) of the paper tracks the network average
//! over time; on large snapshots we estimate the average from a uniform
//! node sample, which is the standard practice the paper follows for path
//! lengths and is accurate to well under the plot's resolution.

use osn_graph::GraphView;
use osn_stats::sampling::sample_without_replacement;
use rand::Rng;

/// Local clustering coefficient of one node.
///
/// Nodes of degree < 2 have coefficient 0 (the convention the paper's
/// network-average uses: they contribute zero to the mean).
///
/// The number of links among the neighbours is the node's triangle
/// count: read in `O(1)` from a view that maintains it
/// ([`GraphView::node_triangles`]), counted by sorted-list intersection
/// otherwise. Both give the same integer, so the result is bit-identical.
pub fn local_clustering<G: GraphView>(g: &G, node: u32) -> f64 {
    let d = g.degree(node);
    if d < 2 {
        return 0.0;
    }
    let links = g
        .node_triangles(node)
        .unwrap_or_else(|| triangles_by_intersection(g, node));
    2.0 * links as f64 / (d as f64 * (d as f64 - 1.0))
}

/// Edges among `node`'s neighbours, counted by intersecting each
/// neighbour's sorted list with the later part of `node`'s own
/// (two-pointer merge), so each pair is counted once.
pub(crate) fn triangles_by_intersection<G: GraphView>(g: &G, node: u32) -> u64 {
    let neigh = g.neighbors(node);
    neigh
        .iter()
        .enumerate()
        .map(|(i, &a)| sorted_intersection_count(g.neighbors(a), &neigh[i + 1..]))
        .sum()
}

/// Number of common elements of two sorted slices.
fn sorted_intersection_count(a: &[u32], b: &[u32]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Exact average clustering coefficient over all nodes.
pub fn average_clustering_exact<G: GraphView>(g: &G) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = (0..n as u32).map(|u| local_clustering(g, u)).sum();
    sum / n as f64
}

/// Average clustering coefficient, estimated from `sample_size` uniformly
/// sampled nodes when the graph is larger than that (exact otherwise).
pub fn average_clustering<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    sample_size: usize,
    rng: &mut R,
) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    if n <= sample_size {
        return average_clustering_exact(g);
    }
    let nodes: Vec<u32> = (0..n as u32).collect();
    let sample = sample_without_replacement(&nodes, sample_size, rng);
    let sum: f64 = sample.iter().map(|&u| local_clustering(g, u)).sum();
    sum / sample.len() as f64
}

/// Global transitivity: `3 × triangles / connected triples`.
///
/// Not used by any figure directly but exposed for completeness and used
/// by tests as an independent cross-check of the triangle counting.
pub fn transitivity<G: GraphView>(g: &G) -> f64 {
    let mut triangles3 = 0u64; // 3 × number of triangles
    let mut triples = 0u64;
    for u in 0..g.num_nodes() as u32 {
        let d = g.degree(u) as u64;
        triples += d.saturating_sub(1) * d / 2;
        triangles3 += triangles_by_intersection(g, u);
    }
    if triples == 0 {
        0.0
    } else {
        triangles3 as f64 / triples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::CsrGraph;
    use osn_stats::rng_from_seed;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        for u in 0..3 {
            assert_eq!(local_clustering(&g, u), 1.0);
        }
        assert_eq!(average_clustering_exact(&g), 1.0);
        assert_eq!(transitivity(&g), 1.0);
    }

    #[test]
    fn path_has_no_clustering() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(average_clustering_exact(&g), 0.0);
        assert_eq!(transitivity(&g), 0.0);
    }

    #[test]
    fn square_with_diagonal() {
        // 0-1-2-3-0 plus diagonal 0-2
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        // Node 0 neighbours {1,2,3}: pairs 1-2 and 2-3 are linked, 1-3 is not.
        assert!((local_clustering(&g, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((local_clustering(&g, 1) - 1.0).abs() < 1e-12);
        assert!((local_clustering(&g, 3) - 1.0).abs() < 1e-12);
        let avg = (2.0 / 3.0 + 1.0 + 2.0 / 3.0 + 1.0) / 4.0;
        assert!((average_clustering_exact(&g) - avg).abs() < 1e-12);
    }

    #[test]
    fn low_degree_nodes_are_zero() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(local_clustering(&g, 0), 0.0);
    }

    #[test]
    fn sampled_matches_exact_on_small_graphs() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let mut rng = rng_from_seed(1);
        let exact = average_clustering_exact(&g);
        assert_eq!(average_clustering(&g, 100, &mut rng), exact);
    }

    #[test]
    fn sampled_is_close_on_larger_graphs() {
        // A clique of 30 (cc = 1 everywhere) plus a chain of 70 (cc = 0).
        let mut edges = Vec::new();
        for i in 0..30u32 {
            for j in (i + 1)..30 {
                edges.push((i, j));
            }
        }
        for i in 30..99u32 {
            edges.push((i, i + 1));
        }
        let g = CsrGraph::from_edges(100, &edges);
        let exact = average_clustering_exact(&g);
        assert!((exact - 0.3).abs() < 1e-12);
        let mut rng = rng_from_seed(5);
        let approx = average_clustering(&g, 60, &mut rng);
        assert!(
            (approx - exact).abs() < 0.15,
            "approx {approx} vs exact {exact}"
        );
    }

    /// The live graph reads its maintained triangle counts, the frozen
    /// snapshot intersects neighbour lists; every value must be the same
    /// bits at every instant.
    #[test]
    fn live_and_frozen_views_agree_bit_for_bit() {
        use osn_graph::{DynamicGraph, Event, NodeId, Origin, Time};
        use rand::Rng;
        let mut rng = rng_from_seed(3);
        let mut g = DynamicGraph::new();
        for id in 0..40u32 {
            g.apply(&Event::node(Time(0), NodeId(id), Origin::Core))
                .unwrap();
        }
        for step in 1..=400u64 {
            let (a, b) = (rng.gen_range(0..40u32), rng.gen_range(0..40u32));
            let _ = g.apply(&Event::edge(Time(step), NodeId(a), NodeId(b)));
            if step % 20 != 0 {
                continue;
            }
            let frozen = g.freeze();
            for u in 0..40u32 {
                assert!(GraphView::node_triangles(&g, u).is_some());
                assert!(GraphView::node_triangles(&frozen, u).is_none());
                assert_eq!(
                    local_clustering(&g, u).to_bits(),
                    local_clustering(&frozen, u).to_bits(),
                    "node {u} after {step} events"
                );
            }
            assert_eq!(
                average_clustering(&g, 15, &mut rng_from_seed(step)).to_bits(),
                average_clustering(&frozen, 15, &mut rng_from_seed(step)).to_bits()
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(average_clustering_exact(&g), 0.0);
        assert_eq!(transitivity(&g), 0.0);
    }
}
