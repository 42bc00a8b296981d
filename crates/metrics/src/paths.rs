//! Shortest paths: BFS, sampled average path length, distance to a group.
//!
//! Generic over [`GraphView`] so the kernels run identically on frozen
//! CSR snapshots and on the incremental engine's live graph.

use osn_graph::{CsrGraph, GraphView};
use osn_stats::sampling::sample_without_replacement;
use rand::Rng;
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` to every node (`UNREACHABLE` if disconnected).
pub fn bfs_distances<G: GraphView>(g: &G, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Average shortest-path length estimated from `sample_size` BFS sources
/// drawn uniformly from the largest connected component, averaging finite
/// pairwise distances — the paper's methodology for Figure 1(d)
/// ("a sample of 1000 nodes from the SCC for each snapshot").
///
/// Returns `None` if the giant component has fewer than two nodes.
pub fn avg_path_length_sampled<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    sample_size: usize,
    rng: &mut R,
) -> Option<f64> {
    let giant = crate::components::largest_component(g);
    avg_path_length_over_component(g, &giant, sample_size, rng)
}

/// [`avg_path_length_sampled`] with the giant component supplied by the
/// caller (sorted ascending, as [`crate::components::largest_component`]
/// returns it). The incremental engine uses this to reuse its live
/// union-find instead of rebuilding components per snapshot; passing the
/// same component yields bit-identical results to the one-shot form.
///
/// The sampled sources are traversed 64 at a time by a bit-parallel
/// multi-source BFS over a compact copy of the component. Distances are
/// summed as exact integers, so the traversal order cannot change the
/// result: it equals one plain BFS per source.
///
/// # Panics
/// Panics unless `giant` is a set of distinct nodes closed under
/// adjacency (a connected component, or a union of them).
pub fn avg_path_length_over_component<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    giant: &[u32],
    sample_size: usize,
    rng: &mut R,
) -> Option<f64> {
    if giant.len() < 2 {
        return None;
    }
    let sources = sample_without_replacement(giant, sample_size, rng);
    let (total, count) = ComponentCsr::new(g, giant).msbfs_distance_sums(&sources);
    if count == 0 {
        None
    } else {
        Some(total as f64 / count as f64)
    }
}

/// A node set relabelled `0..len` in slice order, with its adjacency as
/// a CSR restricted to the set. Built once per call; dropped with it.
struct ComponentCsr {
    /// Graph node id → local index (`UNREACHABLE` outside the set).
    local: Vec<u32>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl ComponentCsr {
    /// Panics unless `members` is a set of distinct nodes closed under
    /// adjacency, the only case where a traversal confined to it finds
    /// the same distances as one over the whole graph.
    fn new<G: GraphView>(g: &G, members: &[u32]) -> Self {
        let mut local = vec![UNREACHABLE; g.num_nodes()];
        for (i, &u) in members.iter().enumerate() {
            let before = std::mem::replace(&mut local[u as usize], i as u32);
            assert_eq!(
                before, UNREACHABLE,
                "node {u} listed twice in the component"
            );
        }
        let mut offsets = Vec::with_capacity(members.len() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(members.iter().map(|&u| g.degree(u)).sum());
        for &u in members {
            for &v in g.neighbors(u) {
                let l = local[v as usize];
                assert_ne!(l, UNREACHABLE, "component not closed: {u}-{v} leaves it");
                targets.push(l);
            }
            offsets.push(targets.len());
        }
        ComponentCsr {
            local,
            offsets,
            targets,
        }
    }

    /// Multi-source BFS (MS-BFS; Then et al., "The More the Merrier",
    /// VLDB 2015): the sources run in batches of 64, one bit of a `u64`
    /// per source, so one sweep over a level's frontier advances every
    /// source of the batch at once. Returns the sum of the distances
    /// from each source to every other member it reaches, and the number
    /// of such pairs.
    fn msbfs_distance_sums(&self, sources: &[u32]) -> (u64, u64) {
        let n = self.offsets.len() - 1;
        let mut seen = vec![0u64; n];
        let mut frontier = vec![0u64; n];
        let mut next = vec![0u64; n];
        let (mut total, mut count) = (0u64, 0u64);
        for batch in sources.chunks(64) {
            seen.fill(0);
            frontier.fill(0);
            for (bit, &s) in batch.iter().enumerate() {
                let l = self.local[s as usize] as usize;
                seen[l] |= 1 << bit;
                frontier[l] |= 1 << bit;
            }
            for level in 1u64.. {
                for (v, &f) in frontier.iter().enumerate() {
                    if f != 0 {
                        for &w in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
                            next[w as usize] |= f;
                        }
                    }
                }
                let mut found = 0u64;
                for ((reached, f), s) in next.iter_mut().zip(&mut frontier).zip(&mut seen) {
                    let new = *reached & !*s;
                    *reached = 0;
                    *f = new;
                    *s |= new;
                    found += u64::from(new.count_ones());
                }
                if found == 0 {
                    break;
                }
                total += level * found;
                count += found;
            }
        }
        (total, count)
    }
}

/// Shortest distance from `src` to any node for which `is_target` holds,
/// traversing only nodes for which `allowed` holds (`src` itself is always
/// traversed). Early-exits as soon as a target is dequeued.
///
/// This is the primitive behind Figure 9(c): distance from a sampled
/// pre-merge user of one OSN to the nearest user of the other OSN,
/// ignoring post-merge users entirely.
pub fn distance_to_group(
    g: &CsrGraph,
    src: u32,
    is_target: &dyn Fn(u32) -> bool,
    allowed: &dyn Fn(u32) -> bool,
) -> Option<u32> {
    if is_target(src) {
        return Some(0);
    }
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] != UNREACHABLE || !allowed(v) {
                continue;
            }
            if is_target(v) {
                return Some(du + 1);
            }
            dist[v as usize] = du + 1;
            queue.push_back(v);
        }
    }
    None
}

/// Eccentricity-style diameter lower bound: the largest BFS distance seen
/// from `rounds` random sources. Exposed for exploratory use and tests.
pub fn diameter_lower_bound<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    rounds: usize,
    rng: &mut R,
) -> u32 {
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut best = 0;
    for _ in 0..rounds {
        let src = rng.gen_range(0..n as u32);
        let dist = bfs_distances(g, src);
        for d in dist {
            if d != UNREACHABLE {
                best = best.max(d);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component;
    use osn_stats::rng_from_seed;
    use osn_stats::sampling::shuffle;
    use std::collections::BTreeSet;

    /// One connected component of `giant` nodes (a random spanning tree
    /// plus chords), one to four strictly smaller ones (size 1 =
    /// isolated node), node ids shuffled so no component is contiguous.
    fn multi_component_graph(giant: usize, seed: u64) -> CsrGraph {
        let mut rng = rng_from_seed(seed);
        let mut sizes = vec![giant];
        for _ in 0..rng.gen_range(1..5) {
            sizes.push(rng.gen_range(1..giant.max(2)));
        }
        let n: usize = sizes.iter().sum();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        shuffle(&mut ids, &mut rng);
        let mut edges = BTreeSet::new();
        let mut rest = &ids[..];
        for size in sizes {
            let (comp, tail) = rest.split_at(size);
            rest = tail;
            let mut link = |a: u32, b: u32| {
                if a != b {
                    edges.insert((a.min(b), a.max(b)));
                }
            };
            for i in 1..size {
                link(comp[i], comp[rng.gen_range(0..i)]);
            }
            for _ in 0..size {
                link(comp[rng.gen_range(0..size)], comp[rng.gen_range(0..size)]);
            }
        }
        CsrGraph::from_edges(n, &edges.into_iter().collect::<Vec<_>>())
    }

    /// The kernel as it was before multi-source BFS: one full BFS per
    /// sampled source.
    fn per_source_reference<R: Rng>(
        g: &CsrGraph,
        giant: &[u32],
        sample_size: usize,
        rng: &mut R,
    ) -> Option<f64> {
        if giant.len() < 2 {
            return None;
        }
        let sources = sample_without_replacement(giant, sample_size, rng);
        let (mut total, mut count) = (0u64, 0u64);
        for &s in &sources {
            let dist = bfs_distances(g, s);
            for &u in giant {
                if dist[u as usize] != UNREACHABLE && u != s {
                    total += dist[u as usize] as u64;
                    count += 1;
                }
            }
        }
        (count > 0).then(|| total as f64 / count as f64)
    }

    /// Runs the kernel and the reference from the same RNG state, and
    /// asserts the same bits out and the same RNG state left behind.
    fn assert_matches_reference(g: &CsrGraph, giant: &[u32], sample: usize, seed: u64) {
        let (mut fast_rng, mut slow_rng) = (rng_from_seed(seed), rng_from_seed(seed));
        let fast = avg_path_length_over_component(g, giant, sample, &mut fast_rng);
        let slow = per_source_reference(g, giant, sample, &mut slow_rng);
        assert_eq!(
            fast.map(f64::to_bits),
            slow.map(f64::to_bits),
            "giant {} sample {sample} seed {seed}: {fast:?} vs {slow:?}",
            giant.len()
        );
        assert_eq!(
            fast_rng.gen::<u64>(),
            slow_rng.gen::<u64>(),
            "RNG stream moved"
        );
    }

    #[test]
    fn msbfs_matches_per_source_bfs() {
        for giant_size in [1, 2, 63, 64, 65, 128, 129] {
            for seed in 0..3 {
                let g = multi_component_graph(giant_size, seed);
                let giant = largest_component(&g);
                assert_eq!(giant.len(), giant_size);
                let mut samples = vec![0, 1, 2, 63, 64, 65, 300];
                samples.extend([giant_size - 1, giant_size, giant_size + 1]);
                for sample in samples {
                    assert_matches_reference(&g, &giant, sample, seed + 100);
                }
            }
        }
    }

    /// Half a component is not closed under adjacency: a traversal
    /// confined to it would miss paths through the other half.
    #[test]
    #[should_panic(expected = "component not closed")]
    fn rejects_node_sets_that_are_not_components() {
        let g = path5();
        avg_path_length_over_component(&g, &[0, 1, 2], 10, &mut rng_from_seed(1));
    }

    fn path5() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn exact_apl_on_path() {
        // Path of 5: sum of pairwise distances = 2*(4*1+3*2+2*3+1*4)=40 over 20 ordered pairs = 2.0
        let g = path5();
        let mut rng = rng_from_seed(1);
        let apl = avg_path_length_sampled(&g, 100, &mut rng).unwrap();
        assert!((apl - 2.0).abs() < 1e-12);
    }

    #[test]
    fn apl_ignores_other_components() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut rng = rng_from_seed(1);
        let apl = avg_path_length_sampled(&g, 100, &mut rng).unwrap();
        // giant component is the path 0-1-2: avg over ordered pairs = (1+2+1+1+2+1)/6
        assert!((apl - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn apl_undefined_for_empty() {
        let g = CsrGraph::from_edges(1, &[]);
        let mut rng = rng_from_seed(1);
        assert!(avg_path_length_sampled(&g, 10, &mut rng).is_none());
    }

    #[test]
    fn group_distance_basic() {
        let g = path5();
        let is_target = |u: u32| u == 4;
        let allowed = |_: u32| true;
        assert_eq!(distance_to_group(&g, 0, &is_target, &allowed), Some(4));
        assert_eq!(distance_to_group(&g, 4, &is_target, &allowed), Some(0));
    }

    #[test]
    fn group_distance_respects_filter() {
        let g = path5();
        let is_target = |u: u32| u == 4;
        // node 2 is blocked: 4 becomes unreachable from 0
        let allowed = |u: u32| u != 2;
        assert_eq!(distance_to_group(&g, 0, &is_target, &allowed), None);
    }

    #[test]
    fn group_distance_shortcut_through_target() {
        // 0-1, 1-2; target = {1}; distance from 0 is 1 even though 1 is a "gateway"
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let is_target = |u: u32| u == 1;
        let allowed = |_: u32| true;
        assert_eq!(distance_to_group(&g, 0, &is_target, &allowed), Some(1));
    }

    #[test]
    fn diameter_bound() {
        let g = path5();
        let mut rng = rng_from_seed(9);
        let d = diameter_lower_bound(&g, 10, &mut rng);
        assert!((2..=4).contains(&d));
    }
}
