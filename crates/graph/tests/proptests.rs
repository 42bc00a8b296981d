//! Property-based tests for the graph substrate.

use osn_graph::io::{read_log, write_log};
use osn_graph::{CsrGraph, DynamicGraph, Event, EventLogBuilder, NodeId, Origin, Time, UnionFind};
use proptest::prelude::*;

/// Triangles through `u` on a frozen snapshot, counted independently of
/// the live counters: each neighbour's sorted list merged with the later
/// part of `u`'s own, so every linked neighbour pair counts once.
fn merge_triangles(g: &CsrGraph, u: u32) -> u64 {
    let neigh = g.neighbors(u);
    let mut links = 0;
    for (i, &a) in neigh.iter().enumerate() {
        let (x, y) = (g.neighbors(a), &neigh[i + 1..]);
        let (mut p, mut q) = (0, 0);
        while p < x.len() && q < y.len() {
            match x[p].cmp(&y[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    links += 1;
                    p += 1;
                    q += 1;
                }
            }
        }
    }
    links
}

/// Strategy: a random sequence of (time-increment, op) forming a valid
/// event schedule.
fn ops_strategy() -> impl Strategy<Value = Vec<(u64, Option<(u8, u8)>)>> {
    prop::collection::vec(
        (0u64..5_000, prop::option::of((any::<u8>(), any::<u8>()))),
        1..120,
    )
}

proptest! {
    /// The builder only ever produces logs satisfying its invariants,
    /// regardless of the op sequence thrown at it (invalid ops error
    /// without corrupting state).
    #[test]
    fn builder_invariants_hold(ops in ops_strategy()) {
        let mut b = EventLogBuilder::new();
        let mut t = 0u64;
        let mut edges_accepted = 0u64;
        for (dt, op) in ops {
            t += dt;
            match op {
                None => {
                    b.add_node(Time(t), Origin::Core).unwrap();
                }
                Some((x, y)) => {
                    let n = b.num_nodes();
                    if n == 0 {
                        continue;
                    }
                    let u = NodeId(x as u32 % n);
                    let v = NodeId(y as u32 % n);
                    if b.add_edge(Time(t), u, v).is_ok() {
                        edges_accepted += 1;
                    }
                }
            }
        }
        let log = b.build();
        prop_assert_eq!(log.num_edges(), edges_accepted);
        // time-sorted
        for w in log.events().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        // no duplicate edges, no self-loops
        let mut seen = std::collections::HashSet::new();
        for (_, u, v) in log.edge_events() {
            prop_assert!(u != v);
            prop_assert!(seen.insert((u, v)), "duplicate edge {u:?}-{v:?}");
        }
        // io round-trip is lossless
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(&buf[..]).unwrap();
        prop_assert_eq!(back.events().len(), log.events().len());
        prop_assert_eq!(back.num_edges(), log.num_edges());
    }

    /// CSR construction from any edge set preserves degrees and
    /// symmetric adjacency.
    #[test]
    fn csr_is_symmetric(edges in prop::collection::vec((0u32..40, 0u32..40), 0..120)) {
        // sanitise: drop self-loops and duplicates
        let mut set = std::collections::HashSet::new();
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .filter(|e| set.insert(*e))
            .collect();
        let g = CsrGraph::from_edges(40, &edges);
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        for u in 0..40u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge {u}-{v}");
            }
            // sorted, unique
            let n = g.neighbors(u);
            prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
        }
        let degree_sum: usize = (0..40u32).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum as u64, 2 * g.num_edges());
    }

    /// Union-find: set sizes always partition the universe; connectivity
    /// is transitive and symmetric.
    #[test]
    fn unionfind_partitions(pairs in prop::collection::vec((0u32..30, 0u32..30), 0..60)) {
        let mut uf = UnionFind::new(30);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        // sizes partition
        let mut total = 0u32;
        let mut reps = std::collections::HashSet::new();
        for x in 0..30 {
            let r = uf.find(x);
            if reps.insert(r) {
                total += uf.set_size(x);
            }
        }
        prop_assert_eq!(total, 30);
        prop_assert_eq!(reps.len(), uf.num_sets());
        // symmetry & transitivity through the union history
        for &(a, b) in &pairs {
            prop_assert!(uf.connected(a, b));
            prop_assert!(uf.connected(b, a));
        }
    }

    /// The live graph's per-node triangle counts equal an intersection
    /// count on its frozen snapshot after every event of a random log,
    /// rejected events (self-loops, duplicates) included. Few nodes and
    /// many edge attempts make the graph dense enough to close triangles.
    #[test]
    fn live_triangle_counts_match_frozen_snapshot(
        nodes in 1u32..16,
        ops in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 0..160),
    ) {
        let mut g = DynamicGraph::new();
        let mut t = 0u64;
        for id in 0..nodes {
            g.apply(&Event::node(Time(id as u64), NodeId(id), Origin::Core)).unwrap();
        }
        for (kind, x, y) in ops {
            t += 1;
            let n = g.num_nodes() as u32;
            // One op in eight is a node arrival, the rest edge attempts.
            let event = if kind == 0 {
                Event::node(Time(t), NodeId(n), Origin::Core)
            } else {
                Event::edge(Time(t), NodeId(x as u32 % n), NodeId(y as u32 % n))
            };
            let _ = g.apply(&event);
            let frozen = g.freeze();
            for u in 0..g.num_nodes() as u32 {
                prop_assert_eq!(g.node_triangles(NodeId(u)), merge_triangles(&frozen, u), "node {}", u);
            }
        }
    }

    /// Time arithmetic: day indexing is consistent with day bounds.
    #[test]
    fn time_day_consistency(secs in 0u64..10_000_000_000) {
        let t = Time(secs);
        let d = t.day();
        prop_assert!(Time::day_start(d) <= t);
        prop_assert!(t < Time::day_end(d));
        prop_assert!((t.as_days_f64() - d as f64) < 1.0 + 1e-9);
    }
}
