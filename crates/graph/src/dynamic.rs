//! Mutable, replayable adjacency structure.
//!
//! A [`DynamicGraph`] is the in-memory state of the network at a moment in
//! trace time. It is built by applying events in order (normally via
//! [`Replayer`](crate::snapshots::Replayer)) and can be frozen into a
//! [`crate::csr::CsrGraph`] whenever a read-optimised snapshot is
//! needed.
//!
//! Neighbour lists are kept sorted so that membership checks are
//! `O(log deg)` and CSR freezing is a straight copy.
//!
//! The graph also keeps a per-node triangle count `t(u)`, updated on each
//! edge insert by one sorted merge of the endpoints' neighbour lists, so
//! the local clustering coefficient of any node is `O(1)` at any instant.

use crate::csr::CsrGraph;
use crate::event::{Event, EventKind, Origin};
use crate::time::{NodeId, Time};
use std::fmt;

/// A malformed event reaching [`DynamicGraph::apply`].
///
/// Events normally come from a validated [`EventLog`](crate::log::EventLog)
/// whose builder enforces these invariants, so in correct pipelines none of
/// these variants is reachable. They are checked in **all** build profiles:
/// an unchecked duplicate edge or unknown endpoint would silently corrupt
/// the edge count and adjacency lists in release builds, which is exactly
/// the class of bug that must fail loudly instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A node arrival whose id is not the next dense id.
    NonDenseNode {
        /// The id the event carried.
        node: NodeId,
        /// The id the graph expected next.
        expected: u32,
    },
    /// An edge endpoint that has not been added yet.
    UnknownEndpoint {
        /// The unknown endpoint.
        node: NodeId,
        /// Number of nodes currently in the graph.
        num_nodes: usize,
    },
    /// An edge whose endpoints are the same node.
    SelfLoop {
        /// The repeated endpoint.
        node: NodeId,
    },
    /// An edge that already exists.
    DuplicateEdge {
        /// Canonical smaller endpoint.
        u: NodeId,
        /// Canonical larger endpoint.
        v: NodeId,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::NonDenseNode { node, expected } => {
                write!(f, "node id {} is not dense (expected {expected})", node.0)
            }
            ApplyError::UnknownEndpoint { node, num_nodes } => write!(
                f,
                "edge endpoint {} is unknown (graph has {num_nodes} nodes)",
                node.0
            ),
            ApplyError::SelfLoop { node } => write!(f, "self-loop on node {}", node.0),
            ApplyError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge {}-{}", u.0, v.0)
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Hook invoked by [`DynamicGraph::apply_with`] for every accepted event,
/// **after validation but before the mutation** — so `edge_added` can
/// inspect the pre-insert neighbourhoods of both endpoints (the state an
/// incremental triangle/wedge counter needs).
///
/// All methods default to no-ops; implement only what you track. A
/// rejected event never reaches the observer.
pub trait DeltaObserver {
    /// A node arrival was validated and is about to be added. `graph` is
    /// the state *before* the node exists.
    fn node_added(&mut self, graph: &DynamicGraph, node: NodeId, origin: Origin, time: Time) {
        let _ = (graph, node, origin, time);
    }

    /// An edge arrival was validated and is about to be inserted. `graph`
    /// is the state *before* the edge exists — `graph.degree(u)` and
    /// `graph.neighbors(u)` are the pre-insert values.
    fn edge_added(&mut self, graph: &DynamicGraph, u: NodeId, v: NodeId) {
        let _ = (graph, u, v);
    }
}

/// The no-op observer [`DynamicGraph::apply`] uses; compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDelta;

impl DeltaObserver for NoDelta {}

/// Mutable dynamic graph with per-node metadata.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    adj: Vec<Vec<u32>>,
    /// `triangles[u]` = number of triangles through `u` = edges among
    /// `u`'s neighbours.
    triangles: Vec<u64>,
    origins: Vec<Origin>,
    join_times: Vec<Time>,
    num_edges: u64,
    now: Time,
}

impl DynamicGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with a node-capacity hint.
    pub fn with_capacity(nodes: usize) -> Self {
        DynamicGraph {
            adj: Vec::with_capacity(nodes),
            triangles: Vec::with_capacity(nodes),
            origins: Vec::with_capacity(nodes),
            join_times: Vec::with_capacity(nodes),
            num_edges: 0,
            now: Time::ZERO,
        }
    }

    /// Number of nodes currently in the graph.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges currently in the graph.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Timestamp of the most recently applied event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Degree of a node (0 for ids not yet added).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj.get(node.index()).map_or(0, |v| v.len())
    }

    /// Sorted neighbour list of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        &self.adj[node.index()]
    }

    /// Origin network of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn origin(&self, node: NodeId) -> Origin {
        self.origins[node.index()]
    }

    /// Join time of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn join_time(&self, node: NodeId) -> Time {
        self.join_times[node.index()]
    }

    /// Number of triangles through a node (0 for ids not yet added).
    pub fn node_triangles(&self, node: NodeId) -> u64 {
        self.triangles.get(node.index()).copied().unwrap_or(0)
    }

    /// True if the undirected edge `a-b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        match self.adj.get(a.index()) {
            Some(list) => list.binary_search(&b.0).is_ok(),
            None => false,
        }
    }

    /// Apply one event.
    ///
    /// Malformed input (non-dense node ids, unknown endpoints, self-loops,
    /// duplicate edges) is rejected with a typed [`ApplyError`] in every
    /// build profile — these checks used to be `debug_assert`s, which let
    /// release builds silently corrupt the edge count and adjacency lists.
    /// On error the graph is left exactly as it was (no partial insert).
    pub fn apply(&mut self, event: &Event) -> Result<(), ApplyError> {
        self.apply_with(event, &mut NoDelta)
    }

    /// Apply one event, notifying `obs` after validation and before the
    /// mutation (see [`DeltaObserver`] for the exact contract). A rejected
    /// event leaves both the graph and the observer untouched.
    pub fn apply_with<O: DeltaObserver>(
        &mut self,
        event: &Event,
        obs: &mut O,
    ) -> Result<(), ApplyError> {
        match event.kind {
            EventKind::AddNode { node, origin } => {
                if node.index() != self.adj.len() {
                    return Err(ApplyError::NonDenseNode {
                        node,
                        expected: self.adj.len() as u32,
                    });
                }
                obs.node_added(self, node, origin, event.time);
                self.adj.push(Vec::new());
                self.triangles.push(0);
                self.origins.push(origin);
                self.join_times.push(event.time);
            }
            EventKind::AddEdge { u, v } => {
                // Validate everything before touching either list so a
                // rejected event never leaves a half-inserted edge behind.
                for node in [u, v] {
                    if node.index() >= self.adj.len() {
                        return Err(ApplyError::UnknownEndpoint {
                            node,
                            num_nodes: self.adj.len(),
                        });
                    }
                }
                if u == v {
                    return Err(ApplyError::SelfLoop { node: u });
                }
                let pos_u = match self.adj[u.index()].binary_search(&v.0) {
                    Err(pos) => pos,
                    Ok(_) => return Err(ApplyError::DuplicateEdge { u, v }),
                };
                obs.edge_added(self, u, v);
                self.count_closed_triangles(u, v);
                self.adj[u.index()].insert(pos_u, v.0);
                let pos_v = self.adj[v.index()]
                    .binary_search(&u.0)
                    .expect_err("u-side insert implies v-side absence");
                self.adj[v.index()].insert(pos_v, u.0);
                self.num_edges += 1;
            }
        }
        self.now = event.time;
        Ok(())
    }

    /// Credit the triangles the not-yet-inserted edge `u-v` closes: each
    /// common neighbour `w` gains one, `u` and `v` gain one per `w`.
    fn count_closed_triangles(&mut self, u: NodeId, v: NodeId) {
        let (a, b) = (&self.adj[u.index()], &self.adj[v.index()]);
        let (mut i, mut j, mut common) = (0, 0, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.triangles[a[i] as usize] += 1;
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        self.triangles[u.index()] += common;
        self.triangles[v.index()] += common;
    }

    /// Freeze the current state into a read-optimised CSR snapshot.
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_sorted_adjacency(&self.adj, self.now)
    }

    /// Average degree `2E / N` (0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventLogBuilder;

    fn sample_log() -> crate::log::EventLog {
        let mut b = EventLogBuilder::new();
        let n0 = b.add_node(Time(0), Origin::Core).unwrap();
        let n1 = b.add_node(Time(1), Origin::Core).unwrap();
        let n2 = b.add_node(Time(2), Origin::Competitor).unwrap();
        b.add_edge(Time(3), n0, n1).unwrap();
        b.add_edge(Time(4), n2, n0).unwrap();
        b.build()
    }

    #[test]
    fn replays_events() {
        let log = sample_log();
        let mut g = DynamicGraph::new();
        for e in log.events() {
            g.apply(e).unwrap();
        }
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 1);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(g.now(), Time(4));
        assert_eq!(g.origin(NodeId(2)), Origin::Competitor);
        assert_eq!(g.join_time(NodeId(1)), Time(1));
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = EventLogBuilder::new();
        let n0 = b.add_node(Time(0), Origin::Core).unwrap();
        for _ in 1..6 {
            b.add_node(Time(0), Origin::Core).unwrap();
        }
        // insert in scrambled order
        for other in [4u32, 1, 5, 2, 3] {
            b.add_edge(Time(1), n0, NodeId(other)).unwrap();
        }
        let log = b.build();
        let mut g = DynamicGraph::new();
        for e in log.events() {
            g.apply(e).unwrap();
        }
        assert_eq!(g.neighbors(n0), &[1, 2, 3, 4, 5]);
    }

    /// The release-build silent-corruption hazard: duplicate and unknown
    /// events must be rejected with typed errors in *every* profile, and
    /// a rejected event must leave the graph untouched.
    #[test]
    fn malformed_events_rejected_in_all_profiles() {
        let mut g = DynamicGraph::new();
        g.apply(&Event::node(Time(0), NodeId(0), Origin::Core))
            .unwrap();
        g.apply(&Event::node(Time(1), NodeId(1), Origin::Core))
            .unwrap();
        g.apply(&Event::edge(Time(2), NodeId(0), NodeId(1)))
            .unwrap();

        // Non-dense node id.
        assert_eq!(
            g.apply(&Event::node(Time(3), NodeId(5), Origin::Core)),
            Err(ApplyError::NonDenseNode {
                node: NodeId(5),
                expected: 2
            })
        );
        // Unknown endpoint.
        assert_eq!(
            g.apply(&Event::edge(Time(3), NodeId(0), NodeId(9))),
            Err(ApplyError::UnknownEndpoint {
                node: NodeId(9),
                num_nodes: 2
            })
        );
        // Self-loop.
        assert_eq!(
            g.apply(&Event {
                time: Time(3),
                kind: EventKind::AddEdge {
                    u: NodeId(1),
                    v: NodeId(1)
                }
            }),
            Err(ApplyError::SelfLoop { node: NodeId(1) })
        );
        // Duplicate edge (the original hazard).
        assert_eq!(
            g.apply(&Event::edge(Time(3), NodeId(1), NodeId(0))),
            Err(ApplyError::DuplicateEdge {
                u: NodeId(0),
                v: NodeId(1)
            })
        );
        // Nothing was corrupted by the rejected events.
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(NodeId(0)), &[1]);
        assert_eq!(g.neighbors(NodeId(1)), &[0]);
        assert_eq!(g.now(), Time(2), "rejected events must not advance time");
        let shown = ApplyError::DuplicateEdge {
            u: NodeId(0),
            v: NodeId(1),
        }
        .to_string();
        assert!(shown.contains("duplicate edge 0-1"), "{shown}");
    }

    /// The observer sees every accepted event with pre-insert state, and
    /// never sees a rejected one.
    #[test]
    fn delta_observer_sees_pre_insert_state() {
        #[derive(Default)]
        struct Probe {
            nodes: usize,
            edges: Vec<(u32, u32, usize, usize)>, // (u, v, pre-deg u, pre-deg v)
        }
        impl DeltaObserver for Probe {
            fn node_added(&mut self, g: &DynamicGraph, node: NodeId, _: Origin, _: Time) {
                assert_eq!(node.index(), g.num_nodes(), "called before the push");
                self.nodes += 1;
            }
            fn edge_added(&mut self, g: &DynamicGraph, u: NodeId, v: NodeId) {
                assert!(!g.has_edge(u, v), "called before the insert");
                self.edges.push((u.0, v.0, g.degree(u), g.degree(v)));
            }
        }
        let log = sample_log();
        let mut g = DynamicGraph::new();
        let mut probe = Probe::default();
        for e in log.events() {
            g.apply_with(e, &mut probe).unwrap();
        }
        assert_eq!(probe.nodes, 3);
        // The log builder canonicalises endpoints as (min, max).
        assert_eq!(probe.edges, vec![(0, 1, 0, 0), (0, 2, 1, 0)]);
        // Rejected events leave the observe count unchanged.
        let before = probe.edges.len();
        assert!(g
            .apply_with(&Event::edge(Time(9), NodeId(0), NodeId(1)), &mut probe)
            .is_err());
        assert_eq!(probe.edges.len(), before);
    }

    #[test]
    fn average_degree() {
        let log = sample_log();
        let mut g = DynamicGraph::new();
        for e in log.events() {
            g.apply(e).unwrap();
        }
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(DynamicGraph::new().average_degree(), 0.0);
    }
}
