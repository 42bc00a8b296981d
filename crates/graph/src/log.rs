//! The validated, time-ordered event stream.
//!
//! An [`EventLog`] is the canonical representation of a dynamic social
//! network in this workspace: every analysis in `osn-core` consumes one.
//! Logs are constructed through [`EventLogBuilder`], which enforces the
//! invariants the downstream code relies on:
//!
//! 1. events are sorted by time (ties keep insertion order);
//! 2. node ids are dense and appear before any edge that uses them;
//! 3. no self-loops and no duplicate edges.

use crate::event::{Event, EventKind, Origin};
use crate::time::{Day, NodeId, Time};
use std::fmt;

/// Errors raised while building an [`EventLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// An event's timestamp was earlier than its predecessor's.
    OutOfOrder {
        /// Index of the offending event.
        index: usize,
        /// Its timestamp.
        time: Time,
        /// The previous event's timestamp.
        prev: Time,
    },
    /// A node id skipped ahead (ids must be dense: 0, 1, 2, …).
    NonDenseNode {
        /// The id that was added.
        got: NodeId,
        /// The id that was expected.
        expected: NodeId,
    },
    /// An edge referenced a node that has not been added yet.
    UnknownNode {
        /// The unknown endpoint.
        node: NodeId,
    },
    /// An edge connected a node to itself.
    SelfLoop {
        /// The node in question.
        node: NodeId,
    },
    /// The same undirected edge was added twice.
    DuplicateEdge {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::OutOfOrder { index, time, prev } => write!(
                f,
                "event {index} at {time} is earlier than its predecessor at {prev}"
            ),
            LogError::NonDenseNode { got, expected } => {
                write!(
                    f,
                    "node {got} added but {expected} was expected (ids must be dense)"
                )
            }
            LogError::UnknownNode { node } => write!(f, "edge references unknown node {node}"),
            LogError::SelfLoop { node } => write!(f, "self-loop on {node}"),
            LogError::DuplicateEdge { u, v } => write!(f, "duplicate edge {u}-{v}"),
        }
    }
}

impl std::error::Error for LogError {}

/// A validated, time-sorted stream of creation events.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    num_nodes: u32,
    num_edges: u64,
    /// `origins[i]` is the origin network of `NodeId(i)`.
    origins: Vec<Origin>,
    /// `join_times[i]` is the creation time of `NodeId(i)`.
    join_times: Vec<Time>,
}

impl EventLog {
    /// All events, in time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total number of node-creation events.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Total number of edge-creation events.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Timestamp of the last event (zero for an empty log).
    pub fn end_time(&self) -> Time {
        self.events.last().map(|e| e.time).unwrap_or(Time::ZERO)
    }

    /// Day index of the last event.
    pub fn end_day(&self) -> Day {
        self.end_time().day()
    }

    /// The origin network of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn origin(&self, node: NodeId) -> Origin {
        self.origins[node.index()]
    }

    /// The join (creation) time of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn join_time(&self, node: NodeId) -> Time {
        self.join_times[node.index()]
    }

    /// Per-node origins, indexed by node id.
    pub fn origins(&self) -> &[Origin] {
        &self.origins
    }

    /// Per-node join times, indexed by node id.
    pub fn join_times(&self) -> &[Time] {
        &self.join_times
    }

    /// Index of the first event with `time >= t` (binary search).
    pub fn first_event_at_or_after(&self, t: Time) -> usize {
        self.events.partition_point(|e| e.time < t)
    }

    /// Iterate the edge events only, as `(time, u, v)` triples.
    pub fn edge_events(&self) -> impl Iterator<Item = (Time, NodeId, NodeId)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            EventKind::AddEdge { u, v } => Some((e.time, u, v)),
            _ => None,
        })
    }

    /// Order-sensitive 64-bit fingerprint of the full event stream
    /// (FNV-1a over every event's time, kind and payload).
    ///
    /// Used by checkpoint files to refuse resuming against a different
    /// trace than the one the checkpoint was taken from. Not
    /// cryptographic — it guards against operator mistakes, not
    /// adversaries.
    pub fn fingerprint(&self) -> u64 {
        let mut h = EventFingerprint::new();
        for e in &self.events {
            h.push(e);
        }
        h.value()
    }

    /// Count nodes and edges created on each day, over `0..=end_day`.
    ///
    /// Returns `(nodes_per_day, edges_per_day)`.
    pub fn daily_counts(&self) -> (Vec<u64>, Vec<u64>) {
        let days = self.end_day() as usize + 1;
        let mut nodes = vec![0u64; days];
        let mut edges = vec![0u64; days];
        for e in &self.events {
            let d = e.time.day() as usize;
            match e.kind {
                EventKind::AddNode { .. } => nodes[d] += 1,
                EventKind::AddEdge { .. } => edges[d] += 1,
            }
        }
        (nodes, edges)
    }
}

/// Streaming form of [`EventLog::fingerprint`]: pushing a log's events
/// in order yields the same value, so a consumer that receives events
/// one at a time can fingerprint its prefix without building a log.
#[derive(Debug, Clone)]
pub struct EventFingerprint(u64);

impl EventFingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The fingerprint of the empty stream.
    pub fn new() -> Self {
        EventFingerprint(Self::OFFSET)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// Fold in the next event (FNV-1a over its time, kind and payload).
    pub fn push(&mut self, e: &Event) {
        self.mix(e.time.seconds());
        match e.kind {
            EventKind::AddNode { node, origin } => {
                self.mix(1);
                self.mix(node.0 as u64);
                self.mix(origin as u64);
            }
            EventKind::AddEdge { u, v } => {
                self.mix(2);
                self.mix(u.0 as u64);
                self.mix(v.0 as u64);
            }
        }
    }

    /// The fingerprint of the events pushed so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for EventFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// [`EventLog`]'s validity rules for one more event, against the log
/// built so far: the time order first, then, for an edge `Some((a, b))`,
/// that both endpoints are among the `num_nodes` nodes, that it is no
/// self-loop and that `has_edge` does not already report it. `index` is
/// the event's position in the log, for the error. The watermark
/// `last_time` rises to the event's time whenever the order check
/// passes, even if a later check then fails.
///
/// [`EventLogBuilder`] calls this, and so does any consumer that checks a
/// stream against a graph of its own, so both keep the same events.
pub fn check_event(
    last_time: &mut Time,
    index: usize,
    time: Time,
    edge: Option<(NodeId, NodeId)>,
    num_nodes: u32,
    has_edge: impl FnOnce(NodeId, NodeId) -> bool,
) -> Result<(), LogError> {
    if time < *last_time {
        return Err(LogError::OutOfOrder {
            index,
            time,
            prev: *last_time,
        });
    }
    *last_time = time;
    let Some((a, b)) = edge else {
        return Ok(());
    };
    for node in [a, b] {
        if node.0 >= num_nodes {
            return Err(LogError::UnknownNode { node });
        }
    }
    if a == b {
        return Err(LogError::SelfLoop { node: a });
    }
    if has_edge(a, b) {
        return Err(LogError::DuplicateEdge {
            u: a.min(b),
            v: a.max(b),
        });
    }
    Ok(())
}

/// True if `a-b` is in the sorted adjacency `adj`, probing the smaller
/// list.
fn adj_has_edge(adj: &[Vec<u32>], a: NodeId, b: NodeId) -> bool {
    if a.index() >= adj.len() || b.index() >= adj.len() {
        return false;
    }
    let (probe, other) = if adj[a.index()].len() <= adj[b.index()].len() {
        (a, b)
    } else {
        (b, a)
    };
    adj[probe.index()].binary_search(&other.0).is_ok()
}

/// Incremental builder enforcing [`EventLog`]'s invariants.
///
/// Duplicate-edge detection uses a per-node sorted neighbour list, which
/// keeps the builder allocation-friendly for multi-million-edge traces.
#[derive(Debug, Default)]
pub struct EventLogBuilder {
    events: Vec<Event>,
    origins: Vec<Origin>,
    join_times: Vec<Time>,
    /// Sorted adjacency used only for duplicate detection.
    adj: Vec<Vec<u32>>,
    num_edges: u64,
    last_time: Time,
}

impl EventLogBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        EventLogBuilder {
            events: Vec::with_capacity(nodes + edges),
            origins: Vec::with_capacity(nodes),
            join_times: Vec::with_capacity(nodes),
            adj: Vec::with_capacity(nodes),
            num_edges: 0,
            last_time: Time::ZERO,
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> u32 {
        self.origins.len() as u32
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Append a node-creation event. The new node's id is returned and is
    /// always `NodeId(n)` where `n` is the number of nodes added before.
    pub fn add_node(&mut self, time: Time, origin: Origin) -> Result<NodeId, LogError> {
        let n = self.num_nodes();
        check_event(
            &mut self.last_time,
            self.events.len(),
            time,
            None,
            n,
            |_, _| false,
        )?;
        let id = NodeId(self.origins.len() as u32);
        self.origins.push(origin);
        self.join_times.push(time);
        self.adj.push(Vec::new());
        self.events.push(Event::node(time, id, origin));
        Ok(id)
    }

    /// Append an edge-creation event between two existing nodes.
    pub fn add_edge(&mut self, time: Time, a: NodeId, b: NodeId) -> Result<(), LogError> {
        let n = self.num_nodes();
        check_event(
            &mut self.last_time,
            self.events.len(),
            time,
            Some((a, b)),
            n,
            |a, b| adj_has_edge(&self.adj, a, b),
        )?;
        let (u, v) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let pos = self.adj[u.index()].binary_search(&v.0).unwrap_err();
        self.adj[u.index()].insert(pos, v.0);
        let pos = self.adj[v.index()].binary_search(&u.0).unwrap_err();
        self.adj[v.index()].insert(pos, u.0);
        self.num_edges += 1;
        self.events.push(Event::edge(time, u, v));
        Ok(())
    }

    /// True if the undirected edge `a-b` has already been added.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        adj_has_edge(&self.adj, a, b)
    }

    /// Current degree of a node (0 for unknown ids).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj.get(node.index()).map_or(0, |v| v.len())
    }

    /// Current sorted neighbour list of a node (empty for unknown ids).
    ///
    /// Exposed so trace generators can implement triadic closure
    /// (friend-of-friend attachment) against the graph built so far.
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        self.adj.get(node.index()).map_or(&[], |v| v.as_slice())
    }

    /// Finish building and return the validated log.
    pub fn build(self) -> EventLog {
        EventLog {
            num_nodes: self.origins.len() as u32,
            num_edges: self.num_edges,
            events: self.events,
            origins: self.origins,
            join_times: self.join_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(d: u64) -> Time {
        Time::from_days(d)
    }

    #[test]
    fn build_small_log() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        let d = b.add_node(t(1), Origin::Competitor).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        b.add_edge(t(2), c, d).unwrap();
        let log = b.build();
        assert_eq!(log.num_nodes(), 3);
        assert_eq!(log.num_edges(), 2);
        assert_eq!(log.end_day(), 2);
        assert_eq!(log.origin(d), Origin::Competitor);
        assert_eq!(log.join_time(a), t(0));
    }

    #[test]
    fn rejects_out_of_order() {
        let mut b = EventLogBuilder::new();
        b.add_node(t(5), Origin::Core).unwrap();
        let err = b.add_node(t(4), Origin::Core).unwrap_err();
        assert!(matches!(err, LogError::OutOfOrder { .. }));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = EventLogBuilder::new();
        b.add_node(t(0), Origin::Core).unwrap();
        let err = b.add_edge(t(0), NodeId(0), NodeId(7)).unwrap_err();
        assert_eq!(err, LogError::UnknownNode { node: NodeId(7) });
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        assert_eq!(
            b.add_edge(t(0), a, a).unwrap_err(),
            LogError::SelfLoop { node: a }
        );
    }

    #[test]
    fn rejects_duplicate_edge_both_orders() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        assert!(matches!(
            b.add_edge(t(1), a, c),
            Err(LogError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            b.add_edge(t(2), c, a),
            Err(LogError::DuplicateEdge { .. })
        ));
        assert!(b.has_edge(a, c));
        assert!(b.has_edge(c, a));
    }

    #[test]
    fn daily_counts_cover_gap_days() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(3), a, c).unwrap();
        let log = b.build();
        let (nodes, edges) = log.daily_counts();
        assert_eq!(nodes, vec![2, 0, 0, 0]);
        assert_eq!(edges, vec![0, 0, 0, 1]);
    }

    #[test]
    fn binary_search_boundary() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(1), Origin::Core).unwrap();
        b.add_edge(t(2), a, c).unwrap();
        let log = b.build();
        assert_eq!(log.first_event_at_or_after(t(0)), 0);
        assert_eq!(log.first_event_at_or_after(t(1)), 1);
        assert_eq!(log.first_event_at_or_after(t(2)), 2);
        assert_eq!(log.first_event_at_or_after(t(3)), 3);
    }

    #[test]
    fn edge_event_iterator_skips_nodes() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), c, a).unwrap();
        let log = b.build();
        let edges: Vec<_> = log.edge_events().collect();
        assert_eq!(edges, vec![(t(1), a, c)]);
    }

    #[test]
    fn degree_tracking() {
        let mut b = EventLogBuilder::new();
        let a = b.add_node(t(0), Origin::Core).unwrap();
        let c = b.add_node(t(0), Origin::Core).unwrap();
        let d = b.add_node(t(0), Origin::Core).unwrap();
        b.add_edge(t(1), a, c).unwrap();
        b.add_edge(t(1), a, d).unwrap();
        assert_eq!(b.degree(a), 2);
        assert_eq!(b.degree(c), 1);
        assert_eq!(b.degree(NodeId(99)), 0);
    }
}
