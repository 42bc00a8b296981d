//! The live ingest head: bounded-staleness serving over a growing trace.
//!
//! `osn serve --follow` runs [`run_follow`] on a dedicated thread. It
//! tails an append-only v2 trace with [`osn_graph::TailReader`] (torn
//! tails are pending, mid-file corruption quarantines per policy),
//! accumulates the committed events, and — each time a new *complete*
//! day becomes final — extends the analysis to that day-prefix and
//! publishes the resulting [`SnapshotQuery`] into a shared [`LiveQuery`]
//! behind an atomic `Arc` swap. Query workers clone the `Arc` per
//! request, so every request sees one internally consistent snapshot
//! and the head never blocks the serving plane.
//!
//! ## Incremental publishes
//!
//! The head keeps its build state between publishes: the event
//! validator (the [`EventLogBuilder`] rules of
//! [`osn_graph::check_event`]), one evolving graph with its incremental
//! metric state ([`LiveEngine`], the core of the batch sweep's
//! `EngineState`), one [`CommunityTracker`], the running trace
//! fingerprint and the accumulated rows with their rendered CSVs. A
//! publish validates only the events committed since the last one,
//! computes only the snapshot days they complete, and appends their
//! lines, so its computation is proportional to the new days, not to
//! the history; only the copy of the rows and CSV text into the new
//! snapshot still grows with the row count. The prefix it publishes
//! ends at the first event past the final day (a linear scan, since the
//! stream need not be in time order), so no row is computed before all
//! of its day's events are in. Every row is computed by the same
//! per-day code as the batch sweep, on a graph holding exactly the
//! events through that day, with the day-derived sampler seed; the
//! tracker is causal. A publish-by-publish differential test holds the
//! published bytes equal to [`SnapshotQuery::build`] over the same
//! prefix. Follow snapshots therefore report the incremental engine
//! whatever `--engine` says.
//!
//! ## Staleness model
//!
//! A day is *final* once a later-day event (or the `#%end` footer) has
//! been committed — until then its events may still be arriving, so the
//! newest publishable prefix is always `day(last committed event) - 1`.
//! Once the footer verifies, the full log is published, byte-identical
//! to what a batch run over the completed trace serves.
//! [`LiveQuery::head_json`] reports the published day, applied event
//! count, ingest lag (committed-but-unpublished events, uncommitted
//! tail bytes) and health, so clients can bound the staleness of any
//! answer. Between polls the head waits on [`LiveQuery::notify_appended`],
//! so a write accepted in-process is picked up at once; appends by other
//! processes are seen at the next poll.
//!
//! ## Crash resume
//!
//! After every publish the head writes an engine-agnostic
//! [`ReplayCheckpoint`] (`head.ckpt`, atomic tmp+rename) whose `pos` is
//! the published day-boundary event position and whose fingerprint is
//! the published prefix's [`EventLog::fingerprint`]. On restart the
//! head re-reads the trace from byte zero — the committed event
//! sequence is a pure function of the file bytes, so the rebuilt state
//! is byte-identical to the pre-kill run — validates the checkpointed
//! fingerprint against the re-read prefix (refusing a swapped trace),
//! and suppresses intermediate publishes below the checkpointed day so
//! catch-up costs one build, not one per day.
//!
//! ## Degradation
//!
//! The publish step runs under [`osn_metrics::supervisor`] panic
//! isolation with deterministic retries. A failed attempt discards the
//! carried build state; the next attempt rebuilds it from the retained
//! events in one catch-up build. If a build fails, the tailed
//! file disappears, ingest stops committing for longer than the
//! watchdog, or the stream turns out corrupt under `Strict`, queries
//! keep being answered from the last published snapshot with
//! [`IngestHealth`] (`wedged` / `missing`) and staleness reported —
//! the serving plane never turns ingest trouble into 500s.

use crate::network::{day_row, snapshot_days};
use crate::query::{CommunityRow, MetricsRow, SnapshotQuery, SnapshotQueryConfig, TraceMeta};
use osn_community::CommunityTracker;
use osn_graph::atomicfile::write_bytes_atomic;
use osn_graph::{
    check_event, Day, Event, EventFingerprint, EventLog, EventLogBuilder, LogError, NodeId,
    RecoveryPolicy, ReplayCheckpoint, TailError, TailEvent, TailReader, Time,
};
use osn_metrics::engine::{day_sweep, EngineConfig, EngineKind, LiveEngine};
use osn_metrics::supervisor::{supervised_call, RunPolicy, TaskError, TaskFailure};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Ingest health as reported by `/v1/head`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestHealth {
    /// Tailing normally (including quietly waiting for appends).
    Ok,
    /// The tailed file does not currently exist; serving the last
    /// published snapshot until it (re)appears.
    Missing,
    /// Ingest or publishing is stuck (corruption under `Strict`, a
    /// deterministic build failure, no progress past the watchdog);
    /// serving the last published snapshot.
    Wedged,
    /// The trace footer verified: the stream is complete and the final
    /// snapshot is published.
    Complete,
}

impl IngestHealth {
    /// Stable lower-case token for JSON and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            IngestHealth::Ok => "ok",
            IngestHealth::Missing => "missing",
            IngestHealth::Wedged => "wedged",
            IngestHealth::Complete => "complete",
        }
    }

    fn from_u8(v: u8) -> IngestHealth {
        match v {
            1 => IngestHealth::Missing,
            2 => IngestHealth::Wedged,
            3 => IngestHealth::Complete,
            _ => IngestHealth::Ok,
        }
    }
}

const RESUMED_NONE: u32 = u32::MAX;

/// The shared handle between the ingest head and the serving plane: the
/// current snapshot behind an atomic swap, plus the head-state gauges
/// `/v1/head` reports.
///
/// Readers call [`LiveQuery::get`] once per request and keep the
/// returned `Arc` for the request's lifetime — a concurrent publish
/// never mutates a snapshot in place, so a request's view is always
/// internally consistent (bounded staleness, no torn reads).
#[derive(Debug)]
pub struct LiveQuery {
    current: RwLock<Option<Arc<SnapshotQuery>>>,
    epoch: Instant,
    follow: bool,
    health: AtomicU8,
    published: AtomicBool,
    day: AtomicU32,
    events_applied: AtomicU64,
    published_pos: AtomicU64,
    committed_events: AtomicU64,
    committed_bytes: AtomicU64,
    pending_bytes: AtomicU64,
    last_publish_ms: AtomicU64,
    resumed_from: AtomicU32,
    /// Bumped on every snapshot install; response caches key the one
    /// mutable published day (and the day list) to this, so a publish
    /// invalidates exactly what it can have changed.
    generation: AtomicU64,
    /// Count of [`LiveQuery::notify_appended`] calls; the head waits on
    /// `appended_cv` for it to move between polls.
    appended: Mutex<u64>,
    appended_cv: Condvar,
}

impl LiveQuery {
    fn empty(follow: bool, health: IngestHealth) -> LiveQuery {
        LiveQuery {
            current: RwLock::new(None),
            epoch: Instant::now(),
            follow,
            health: AtomicU8::new(health as u8),
            published: AtomicBool::new(false),
            day: AtomicU32::new(0),
            events_applied: AtomicU64::new(0),
            published_pos: AtomicU64::new(0),
            committed_events: AtomicU64::new(0),
            committed_bytes: AtomicU64::new(0),
            pending_bytes: AtomicU64::new(0),
            last_publish_ms: AtomicU64::new(0),
            resumed_from: AtomicU32::new(RESUMED_NONE),
            generation: AtomicU64::new(0),
            appended: Mutex::new(0),
            appended_cv: Condvar::new(),
        }
    }

    /// A follow-mode handle with nothing published yet. The head fills
    /// it in as days become final.
    pub fn for_follow() -> Arc<LiveQuery> {
        Arc::new(LiveQuery::empty(true, IngestHealth::Ok))
    }

    /// A frozen handle over a finished trace — the batch `osn serve`
    /// path. Health is `complete` and the snapshot never changes.
    pub fn fixed(query: Arc<SnapshotQuery>) -> Arc<LiveQuery> {
        let live = LiveQuery::empty(false, IngestHealth::Complete);
        let meta = query.meta();
        let events = meta.num_nodes as u64 + meta.num_edges;
        live.install_arc(query, meta.num_days.saturating_sub(1), events, events);
        Arc::new(live)
    }

    /// The snapshot to answer this request from, or `None` when nothing
    /// has been published yet (fresh follow on an empty trace).
    pub fn get(&self) -> Option<Arc<SnapshotQuery>> {
        self.current.read().ok()?.clone()
    }

    /// Current ingest health.
    pub fn health(&self) -> IngestHealth {
        IngestHealth::from_u8(self.health.load(Ordering::Relaxed))
    }

    /// Whether at least one snapshot is available to serve.
    pub fn is_published(&self) -> bool {
        self.published.load(Ordering::Relaxed)
    }

    /// Monotone publish generation: 0 before the first install, bumped
    /// on every snapshot swap. Read it around [`LiveQuery::get`] (equal
    /// before and after) to key caches to one consistent snapshot.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The last published (final) day, if any.
    pub fn published_day(&self) -> Option<Day> {
        self.is_published()
            .then(|| self.day.load(Ordering::Relaxed))
    }

    /// Committed-but-not-yet-published events: they belong to a day that
    /// is not final yet. The write-plane admission controller sheds
    /// writes when this exceeds its bound.
    pub fn lag_events(&self) -> u64 {
        self.committed_events
            .load(Ordering::Relaxed)
            .saturating_sub(self.published_pos.load(Ordering::Relaxed))
    }

    /// Uncommitted bytes at the tail (a chunk mid-append).
    pub fn lag_bytes(&self) -> u64 {
        self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last snapshot publish (since construction
    /// when nothing has been published yet).
    pub fn staleness_ms(&self) -> u64 {
        self.now_ms()
            .saturating_sub(self.last_publish_ms.load(Ordering::Relaxed))
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Swap in a freshly built snapshot. `pos` is the committed-event
    /// position the snapshot covers (for lag math); `applied` is the
    /// event count the log actually kept after policy skips.
    fn install(&self, query: SnapshotQuery, day: Day, pos: u64, applied: u64) {
        self.install_arc(Arc::new(query), day, pos, applied);
    }

    fn install_arc(&self, query: Arc<SnapshotQuery>, day: Day, pos: u64, applied: u64) {
        if let Ok(mut cur) = self.current.write() {
            *cur = Some(query);
            // Bumped while the swap lock is held, so a reader seeing the
            // same generation before and after `get` is guaranteed the
            // snapshot it got belongs to that generation.
            self.generation.fetch_add(1, Ordering::Release);
        }
        self.day.store(day, Ordering::Relaxed);
        self.events_applied.store(applied, Ordering::Relaxed);
        self.published_pos.store(pos, Ordering::Relaxed);
        self.last_publish_ms.store(self.now_ms(), Ordering::Relaxed);
        self.published.store(true, Ordering::Relaxed);
        osn_obs::counter!("head.publishes").inc();
        osn_obs::gauge!("head.day").set(day as i64);
        osn_obs::gauge!("head.events_applied").set(applied as i64);
    }

    fn set_health(&self, health: IngestHealth) {
        self.health.store(health as u8, Ordering::Relaxed);
        osn_obs::gauge!("head.health").set(health as u8 as i64);
    }

    fn record_tail(&self, committed_bytes: u64, committed_events: u64, pending_bytes: u64) {
        self.committed_bytes
            .store(committed_bytes, Ordering::Relaxed);
        self.committed_events
            .store(committed_events, Ordering::Relaxed);
        self.pending_bytes.store(pending_bytes, Ordering::Relaxed);
        osn_obs::gauge!("head.lag_bytes").set(pending_bytes as i64);
        osn_obs::gauge!("head.committed_events").set(committed_events as i64);
    }

    fn set_resumed(&self, day: Day) {
        self.resumed_from.store(day, Ordering::Relaxed);
    }

    /// Wake the follow head now rather than at its next poll: a writer in
    /// this process has just appended a batch to the tailed trace (and
    /// applied it, so the head's next poll sees it).
    pub fn notify_appended(&self) {
        *self.appended.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.appended_cv.notify_all();
    }

    fn appends_notified(&self) -> u64 {
        *self.appended.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait up to `timeout` for an append notified after `seen` was read,
    /// checking `shutdown` at least every 10 ms.
    fn wait_for_append(&self, seen: u64, timeout: Duration, shutdown: &AtomicBool) {
        let deadline = Instant::now() + timeout;
        let mut notified = self.appended.lock().unwrap_or_else(|e| e.into_inner());
        while *notified == seen && !shutdown.load(Ordering::Acquire) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let slice = left.min(Duration::from_millis(10));
            notified = match self.appended_cv.wait_timeout(notified, slice) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
        }
    }

    /// `/v1/head` body: one JSON line with the published day, applied
    /// event count, lag estimates, staleness, and ingest health.
    ///
    /// `lag_events` is committed-but-not-yet-published events (they
    /// belong to a day that is not final yet); `lag_bytes` is
    /// uncommitted bytes at the tail (a chunk mid-append). `day` is
    /// `null` until the first publish.
    pub fn head_json(&self) -> String {
        let published = self.is_published();
        let day = self.day.load(Ordering::Relaxed);
        let committed = self.committed_events.load(Ordering::Relaxed);
        let staleness = self.staleness_ms();
        let resumed = self.resumed_from.load(Ordering::Relaxed);
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"follow\":{}", self.follow));
        out.push_str(&format!(",\"health\":\"{}\"", self.health().as_str()));
        out.push_str(&format!(",\"published\":{published}"));
        if published {
            out.push_str(&format!(",\"day\":{day}"));
        } else {
            out.push_str(",\"day\":null");
        }
        out.push_str(&format!(
            ",\"events_applied\":{}",
            self.events_applied.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(",\"committed_events\":{committed}"));
        out.push_str(&format!(",\"lag_events\":{}", self.lag_events()));
        out.push_str(&format!(",\"lag_bytes\":{}", self.lag_bytes()));
        out.push_str(&format!(
            ",\"committed_bytes\":{}",
            self.committed_bytes.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(",\"staleness_ms\":{staleness}"));
        if resumed == RESUMED_NONE {
            out.push_str(",\"resumed_from_day\":null");
        } else {
            out.push_str(&format!(",\"resumed_from_day\":{resumed}"));
        }
        out.push('}');
        out
    }
}

/// Configuration of the follow loop.
#[derive(Debug, Clone)]
pub struct LiveHeadConfig {
    /// The v2 trace file to tail.
    pub path: PathBuf,
    /// Framing recovery policy (same vocabulary as the batch reader).
    pub policy: RecoveryPolicy,
    /// Analysis configuration for every published snapshot.
    pub query: SnapshotQueryConfig,
    /// Directory for `head.ckpt` (crash resume); `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Base delay between polls that made no progress; backs off
    /// exponentially (capped at 8×) while the tail stays torn or quiet.
    pub poll_interval: Duration,
    /// With uncommitted bytes pending and no commit progress for this
    /// long, health degrades to [`IngestHealth::Wedged`] (the tail keeps
    /// being retried — a recovering writer heals it back to `ok`).
    pub watchdog: Duration,
    /// Supervision (retries, timeout, chaos) for the publish step.
    pub run_policy: RunPolicy,
}

impl LiveHeadConfig {
    /// Follow `path` with default pacing: 25ms polls, 30s watchdog,
    /// `Skip`-with-unlimited-budget recovery, default analysis config.
    pub fn new(path: impl Into<PathBuf>) -> LiveHeadConfig {
        LiveHeadConfig {
            path: path.into(),
            policy: RecoveryPolicy::Skip {
                max_errors: usize::MAX,
            },
            query: SnapshotQueryConfig::default(),
            checkpoint_dir: None,
            poll_interval: Duration::from_millis(25),
            watchdog: Duration::from_secs(30),
            run_policy: RunPolicy::default(),
        }
    }
}

/// Why the follow loop gave up (it only gives up on non-recoverable
/// states; torn tails, missing files and build failures degrade instead).
#[derive(Debug)]
pub enum LiveError {
    /// Filesystem failure on the checkpoint path.
    Io(io::Error),
    /// Non-recoverable tail failure: not a v2 trace, corruption under
    /// `Strict`, error budget exhausted, or the file shrank beneath the
    /// committed prefix.
    Tail(TailError),
    /// `head.ckpt` is unusable or contradicts the re-read trace.
    Checkpoint(String),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "head checkpoint I/O error: {e}"),
            LiveError::Tail(e) => write!(f, "live ingest failed: {e}"),
            LiveError::Checkpoint(r) => write!(f, "head checkpoint rejected: {r}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}

impl From<TailError> for LiveError {
    fn from(e: TailError) -> Self {
        LiveError::Tail(e)
    }
}

/// What a finished (or drained) follow run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowReport {
    /// Last published day, if anything was published.
    pub published_day: Option<Day>,
    /// Events in the last published snapshot (after policy skips).
    pub events_applied: u64,
    /// Total committed events, published or not.
    pub committed_events: u64,
    /// Snapshot publishes performed.
    pub publishes: u64,
    /// True when the trace footer verified (stream complete), false on
    /// a shutdown drain mid-stream.
    pub completed: bool,
}

/// The checkpoint file inside a head checkpoint directory.
pub fn head_checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("head.ckpt")
}

/// Build an [`EventLog`] from a committed-event prefix, applying the
/// log's validity invariants under the same policy split as the batch
/// reader: `Strict` refuses an invalid event, anything else skips it.
/// Returns the log plus how many events were skipped.
fn build_prefix(
    events: &[TailEvent],
    strict: bool,
) -> Result<(EventLog, u64), osn_graph::LogError> {
    let mut b = EventLogBuilder::new();
    let mut skipped = 0u64;
    for e in events {
        let outcome = match *e {
            TailEvent::Node { time, origin } => b.add_node(time, origin).map(|_| ()),
            TailEvent::Edge { time, u, v } => b.add_edge(time, u, v),
        };
        if let Err(err) = outcome {
            if strict {
                return Err(err);
            }
            skipped += 1;
        }
    }
    Ok((b.build(), skipped))
}

/// The follow head's build state, carried from one publish to the next:
/// everything [`SnapshotQuery::build`] would derive from the published
/// prefix, kept so the next publish only consumes the events after it.
struct LiveBuild {
    /// Committed events consumed so far, accepted or skipped.
    pos: usize,
    /// The validator's time watermark (see [`check_event`]).
    watermark: Time,
    /// Events consumed so far that the policy skipped.
    skipped: u64,
    engine: LiveEngine,
    fingerprint: EventFingerprint,
    /// Day of the last accepted event (0 before any, as for an empty
    /// [`EventLog`]).
    end_day: Day,
    tracker: CommunityTracker,
    metric_rows: Vec<MetricsRow>,
    community_rows: Vec<CommunityRow>,
    metrics_csv: String,
    communities_csv: String,
}

/// Day `k` of the grid `first, first + stride, …`, widened so it cannot
/// overflow.
fn grid_day(first: Day, stride: Day, k: usize) -> u64 {
    first as u64 + k as u64 * stride as u64
}

impl LiveBuild {
    fn new(cfg: &SnapshotQueryConfig) -> LiveBuild {
        // As the batch sweeps require; a zero stride would never leave
        // its first grid day.
        assert!(
            cfg.metrics.stride > 0 && cfg.communities.stride > 0,
            "stride must be positive"
        );
        LiveBuild {
            pos: 0,
            watermark: Time::ZERO,
            skipped: 0,
            engine: LiveEngine::new(),
            fingerprint: EventFingerprint::new(),
            end_day: 0,
            tracker: CommunityTracker::new(cfg.communities.tracker_config()),
            metric_rows: Vec::new(),
            community_rows: Vec::new(),
            metrics_csv: format!("{}\n", MetricsRow::CSV_HEADER),
            communities_csv: format!("{}\n", CommunityRow::CSV_HEADER),
        }
    }

    /// A fresh build whose metric rows over `events` are computed up front
    /// by the parallel day sweep (`--build-workers`), as a batch build
    /// computes them; [`LiveBuild::advance`] then replays the prefix for
    /// everything else. This is the first publish after start, resume or
    /// a failed attempt.
    fn catch_up(
        events: &[TailEvent],
        strict: bool,
        cfg: &SnapshotQueryConfig,
    ) -> Result<LiveBuild, TaskError> {
        let (log, _) = build_prefix(events, strict).map_err(invalid_stream)?;
        let m = &cfg.metrics;
        let days = snapshot_days(&log, m.first_day, m.stride);
        let ecfg = EngineConfig::builder().workers(m.workers).build();
        let rows = day_sweep(&log, &days, &ecfg, |state, idx, day| {
            let giant = m.samples_paths(idx).then(|| state.giant_component());
            day_row(state.graph(), giant.as_deref(), m, day)
        });
        let mut build = LiveBuild::new(cfg);
        for (day, row) in days.into_iter().zip(&rows) {
            build.push_metric_row(MetricsRow::from_day_row(day, row));
        }
        Ok(build)
    }

    /// Consume `events[self.pos..]`: validate each as [`build_prefix`]
    /// would, compute the rows of every grid day the accepted events
    /// close, and apply them.
    ///
    /// Rows computed at the end of one call stay final because the
    /// caller passes prefixes cut by [`publish_target`]: every event past
    /// the cut comes after one later than the published day, so a later
    /// event on or before that day fails the order check.
    fn advance(
        &mut self,
        events: &[TailEvent],
        strict: bool,
        cfg: &SnapshotQueryConfig,
    ) -> Result<(), TaskError> {
        for e in &events[self.pos..] {
            self.pos += 1;
            let event = match self.validate(e) {
                Ok(event) => event,
                Err(err) if strict => return Err(invalid_stream(err)),
                Err(_) => {
                    self.skipped += 1;
                    continue;
                }
            };
            let day = event.time.day();
            if let Some(prev) = day.checked_sub(1) {
                self.compute_rows_through(prev, cfg);
            }
            self.engine
                .apply(&event)
                .expect("validated event applies to the live graph");
            self.fingerprint.push(&event);
            self.end_day = day;
        }
        self.compute_rows_through(self.end_day, cfg);
        Ok(())
    }

    /// [`EventLogBuilder`]'s rules ([`check_event`]), against the live
    /// graph.
    fn validate(&mut self, e: &TailEvent) -> Result<Event, LogError> {
        let (time, index) = (e.time(), self.applied() as usize);
        let g = self.engine.graph();
        let n = g.num_nodes() as u32;
        let edge = match *e {
            TailEvent::Node { .. } => None,
            TailEvent::Edge { u, v, .. } => Some((u, v)),
        };
        check_event(&mut self.watermark, index, time, edge, n, |u, v| {
            g.has_edge(u, v)
        })?;
        Ok(match *e {
            TailEvent::Node { origin, .. } => Event::node(time, NodeId(n), origin),
            TailEvent::Edge { u, v, .. } => Event::edge(time, u, v),
        })
    }

    /// Compute every metric and community grid day through `day` that has
    /// no row yet, in day order. The graph must hold exactly the events
    /// through each of those days.
    fn compute_rows_through(&mut self, day: Day, cfg: &SnapshotQueryConfig) {
        let (m, c) = (&cfg.metrics, &cfg.communities);
        loop {
            let idx = self.metric_rows.len();
            let next_m = grid_day(m.first_day, m.stride, idx);
            let next_c = grid_day(c.first_day, c.stride, self.community_rows.len());
            if next_m.min(next_c) > day as u64 {
                return;
            }
            if next_m <= next_c {
                let d = next_m as Day;
                let giant = m.samples_paths(idx).then(|| self.engine.giant_component());
                let row = day_row(self.engine.graph(), giant.as_deref(), m, d);
                self.push_metric_row(MetricsRow::from_day_row(d, &row));
            }
            if next_c <= next_m {
                let summary = self
                    .tracker
                    .observe(next_c as Day, &self.engine.graph().freeze());
                let row = CommunityRow::from_summary(&summary);
                self.communities_csv.push_str(&row.to_csv_row());
                self.communities_csv.push('\n');
                self.community_rows.push(row);
            }
        }
    }

    fn push_metric_row(&mut self, row: MetricsRow) {
        self.metrics_csv.push_str(&row.to_csv_row());
        self.metrics_csv.push('\n');
        self.metric_rows.push(row);
    }

    /// Events kept in the log so far (accepted, not skipped).
    fn applied(&self) -> u64 {
        let g = self.engine.graph();
        g.num_nodes() as u64 + g.num_edges()
    }

    /// The published form of the state: a fresh query over copies of the
    /// rows and documents (a copy that grows with the row count, though
    /// no row is recomputed).
    fn snapshot(&self) -> SnapshotQuery {
        let g = self.engine.graph();
        SnapshotQuery::from_parts(
            TraceMeta {
                num_nodes: g.num_nodes() as u32,
                num_edges: g.num_edges(),
                num_days: self.end_day + 1,
                fingerprint: self.fingerprint.value(),
            },
            EngineKind::Incremental,
            self.metric_rows.clone(),
            self.community_rows.clone(),
            self.metrics_csv.clone(),
            self.communities_csv.clone(),
        )
    }
}

fn invalid_stream(e: LogError) -> TaskError {
    TaskError::Fatal(format!("invalid event stream: {e}"))
}

/// One supervised publish of the committed prefix `events`, final through
/// `day`: advance the carried `state` over the events new since the last
/// publish, or rebuild it from the whole prefix when there is none. The
/// state is taken before anything can fail, so a failed attempt leaves
/// none behind and the next attempt rebuilds. Returns the snapshot and
/// how many events of the prefix the policy skipped.
fn publish(
    state: &mut Option<LiveBuild>,
    events: &[TailEvent],
    day: Day,
    cfg: &LiveHeadConfig,
) -> Result<(SnapshotQuery, u64), TaskFailure> {
    let strict = matches!(cfg.policy, RecoveryPolicy::Strict);
    let scfg = cfg.run_policy.supervisor_config(1);
    let chaos = cfg.run_policy.chaos.as_ref();
    let (build, query) = supervised_call(&format!("head-publish-day-{day}"), &scfg, |attempt| {
        let prior = state.take();
        osn_metrics::supervisor::chaos_gate(chaos, day as u64, attempt)?;
        let mut build = match prior {
            Some(build) => build,
            None => LiveBuild::catch_up(events, strict, &cfg.query)?,
        };
        build.advance(events, strict, &cfg.query)?;
        let query = build.snapshot();
        Ok((build, query))
    })?;
    let skipped = build.skipped;
    *state = Some(build);
    Ok((query, skipped))
}

/// Load and sanity-check `head.ckpt`, if present.
fn load_checkpoint(dir: &Path) -> Result<Option<ReplayCheckpoint>, LiveError> {
    let path = head_checkpoint_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    ReplayCheckpoint::from_text(&text)
        .map(Some)
        .map_err(|e| LiveError::Checkpoint(format!("{}: {e}", path.display())))
}

/// Tail `cfg.path` until the stream completes or `shutdown` is raised,
/// publishing every newly final day-prefix into `live`. See the module
/// docs for the staleness, resume and degradation contracts.
///
/// Returns `Ok` with a [`FollowReport`] on completion or drain; `Err`
/// only for non-recoverable states (after setting health to `wedged`,
/// so an embedding server keeps answering from the last snapshot).
pub fn run_follow(
    cfg: &LiveHeadConfig,
    live: &LiveQuery,
    shutdown: &AtomicBool,
) -> Result<FollowReport, LiveError> {
    let mut tail = TailReader::new(&cfg.path, cfg.policy.clone());

    // Crash resume: validate once the re-read prefix reaches cp.pos, and
    // suppress publishes below cp.day so catch-up costs one build.
    let mut resume = match &cfg.checkpoint_dir {
        Some(dir) => load_checkpoint(dir)?,
        None => None,
    };
    if let Some(cp) = &resume {
        live.set_resumed(cp.day);
        osn_obs::counter!("head.resumes").inc();
    }

    let mut events: Vec<TailEvent> = Vec::new();
    let mut report = FollowReport {
        published_day: None,
        events_applied: 0,
        committed_events: 0,
        publishes: 0,
        completed: false,
    };
    let mut build: Option<LiveBuild> = None;
    // Skipped events already counted: those of the last published prefix.
    let mut skips_counted = 0u64;
    let mut failed_at: Option<usize> = None;
    let mut backoff = PollBackoff::new();
    let mut last_progress = Instant::now();

    loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        // Read before polling, so an append notified during this round
        // cuts the next wait short instead of being missed.
        let seen = live.appends_notified();
        let batch = match tail.poll() {
            Ok(b) => b,
            Err(TailError::Missing) => {
                live.set_health(IngestHealth::Missing);
                osn_obs::counter!("head.file_missing_polls").inc();
                live.wait_for_append(seen, backoff.on_poll(false, cfg.poll_interval), shutdown);
                continue;
            }
            Err(e) => {
                // Non-recoverable: surface it, but leave the last good
                // snapshot being served with health = wedged.
                live.set_health(IngestHealth::Wedged);
                return Err(e.into());
            }
        };

        let progressed = !batch.events.is_empty() || batch.footer.is_some();
        events.extend(batch.events);
        report.committed_events = events.len() as u64;
        live.record_tail(
            tail.committed_offset(),
            report.committed_events,
            batch.pending_bytes,
        );
        if progressed {
            last_progress = Instant::now();
        }

        // Checkpoint validation: the re-read prefix at cp.pos must carry
        // the recorded fingerprint, or the trace was swapped.
        if let Some(cp) = resume {
            let reached = events.len() >= cp.pos;
            if reached || tail.finished() {
                if !reached {
                    live.set_health(IngestHealth::Wedged);
                    return Err(LiveError::Checkpoint(format!(
                        "trace ended after {} events but head.ckpt was taken at {}",
                        events.len(),
                        cp.pos
                    )));
                }
                let (prefix, _) = build_prefix(&events[..cp.pos], false)
                    .expect("non-strict prefix build cannot fail");
                if prefix.fingerprint() != cp.fingerprint {
                    live.set_health(IngestHealth::Wedged);
                    return Err(LiveError::Checkpoint(format!(
                        "fingerprint mismatch at event {} (recorded {:016x}, trace has {:016x})",
                        cp.pos,
                        cp.fingerprint,
                        prefix.fingerprint()
                    )));
                }
                resume = None;
            }
        }

        // Newest publishable prefix: everything before the last committed
        // event's day (that day may still be receiving events), or the
        // whole log once the footer verified.
        let min_day = resume.as_ref().map(|cp| cp.day);
        let already = live.published_pos.load(Ordering::Relaxed) as usize;
        let (want_pos, want_day) = publish_target(&events, already, tail.finished(), min_day);
        if want_pos > already && failed_at != Some(want_pos) {
            let t0 = Instant::now();
            match publish(&mut build, &events[..want_pos], want_day, cfg) {
                Ok((query, skipped)) => {
                    let meta = query.meta();
                    let (fingerprint, applied) =
                        (meta.fingerprint, meta.num_nodes as u64 + meta.num_edges);
                    if skipped > skips_counted {
                        osn_obs::counter!("head.events_skipped").add(skipped - skips_counted);
                    }
                    skips_counted = skipped;
                    live.install(query, want_day, want_pos as u64, applied);
                    live.set_health(if tail.finished() {
                        IngestHealth::Complete
                    } else {
                        IngestHealth::Ok
                    });
                    osn_obs::histogram!("head.publish_ms").record(t0.elapsed().as_millis() as u64);
                    report.published_day = Some(want_day);
                    report.events_applied = applied;
                    report.publishes += 1;
                    failed_at = None;
                    if let Some(dir) = &cfg.checkpoint_dir {
                        std::fs::create_dir_all(dir)?;
                        let cp = ReplayCheckpoint {
                            pos: want_pos,
                            day: want_day,
                            fingerprint,
                        };
                        write_bytes_atomic(&head_checkpoint_path(dir), cp.to_text().as_bytes())?;
                        osn_obs::counter!("head.checkpoints").inc();
                    }
                }
                Err(failure) => {
                    // Keep serving the last snapshot; retry this position
                    // only once more data arrives (a deterministic failure
                    // would just repeat).
                    osn_obs::counter!("head.build_failures").inc();
                    live.set_health(IngestHealth::Wedged);
                    failed_at = Some(want_pos);
                    eprintln!(
                        "head: publish of day {want_day} failed ({}): {} — serving last snapshot",
                        failure.kind.as_str(),
                        failure.payload
                    );
                }
            }
        }

        if tail.finished() {
            report.completed = true;
            if failed_at.is_none() {
                live.set_health(IngestHealth::Complete);
            }
            break;
        }

        // Watchdog: bytes are pending but nothing has committed for too
        // long — the writer died mid-chunk or the file is stuck.
        if batch.tail_pending && last_progress.elapsed() >= cfg.watchdog {
            live.set_health(IngestHealth::Wedged);
            osn_obs::counter!("head.watchdog_trips").inc();
        } else if (!matches!(live.health(), IngestHealth::Wedged) || progressed)
            && failed_at.is_none()
        {
            live.set_health(IngestHealth::Ok);
        }

        live.wait_for_append(
            seen,
            backoff.on_poll(progressed, cfg.poll_interval),
            shutdown,
        );
    }
    Ok(report)
}

/// The newest publishable `(position, day)` in the committed events:
/// the whole log once finished, otherwise the prefix of days strictly
/// before the last committed event's day, clamped up to `min_day` while
/// resuming. `(0, _)` means nothing to publish.
///
/// The prefix ends at the first event past that day, searched linearly
/// from `published` (the end of the last published prefix): the stream
/// need not be in time order, and an event past the day must never enter
/// a publish, since the day it lands on would be computed before all of
/// its events are in.
fn publish_target(
    events: &[TailEvent],
    published: usize,
    finished: bool,
    min_day: Option<Day>,
) -> (usize, Day) {
    let Some(last) = events.last() else {
        return (0, 0);
    };
    if finished {
        return (events.len(), last.time().day());
    }
    let Some(day) = last.time().day().checked_sub(1) else {
        return (0, 0);
    };
    if let Some(min) = min_day {
        if day < min {
            return (0, 0);
        }
    }
    let end = Time::day_end(day);
    let pos = events[published..]
        .iter()
        .position(|e| e.time() >= end)
        .map_or(events.len(), |k| published + k);
    (pos, day)
}

/// Exponential poll pacing for the follow loop: every poll that makes no
/// progress doubles the delay, capped at 8× the base interval; any
/// progress (committed events, a verified footer) resets to the base.
/// Extracted so the schedule is testable without a real clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollBackoff {
    level: u32,
}

impl PollBackoff {
    /// Highest doubling level: delays cap at `base * 2^MAX_LEVEL` = 8×.
    pub const MAX_LEVEL: u32 = 3;

    pub fn new() -> Self {
        PollBackoff { level: 0 }
    }

    /// Record one poll outcome and return the delay before the next poll.
    pub fn on_poll(&mut self, progressed: bool, base: Duration) -> Duration {
        if progressed {
            self.level = 0;
        } else {
            self.level = (self.level + 1).min(Self::MAX_LEVEL);
        }
        base * (1 << self.level)
    }

    /// Current doubling level (0 = base interval).
    pub fn level(&self) -> u32 {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communities::CommunityAnalysisConfig;
    use crate::network::MetricSeriesConfig;
    use osn_genstream::{TraceConfig, TraceGenerator};
    use osn_graph::io::{write_log_v2_chunked, LogAppender};
    use osn_graph::testutil::{ChaosAction, ChaosTaskPlan};
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osn-live-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_log() -> EventLog {
        TraceGenerator::new(TraceConfig::tiny()).generate()
    }

    fn fast_query_cfg() -> SnapshotQueryConfig {
        SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 25,
                path_sample: 20,
                clustering_sample: 50,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                stride: 50,
                ..Default::default()
            })
            .config()
            .clone()
    }

    fn head_cfg(path: &Path) -> LiveHeadConfig {
        LiveHeadConfig {
            poll_interval: Duration::from_millis(1),
            query: fast_query_cfg(),
            ..LiveHeadConfig::new(path)
        }
    }

    #[test]
    fn poll_backoff_schedule_caps_at_8x_and_resets_on_progress() {
        let base = Duration::from_millis(10);
        let mut bo = PollBackoff::new();
        assert_eq!(bo.level(), 0);
        // No-progress polls double the delay: 2×, 4×, 8×, then stay capped.
        assert_eq!(bo.on_poll(false, base), base * 2);
        assert_eq!(bo.on_poll(false, base), base * 4);
        assert_eq!(bo.on_poll(false, base), base * 8);
        assert_eq!(bo.on_poll(false, base), base * 8);
        assert_eq!(bo.on_poll(false, base), base * 8);
        assert_eq!(bo.level(), PollBackoff::MAX_LEVEL);
        // Any progress drops straight back to the base interval.
        assert_eq!(bo.on_poll(true, base), base);
        assert_eq!(bo.level(), 0);
        assert_eq!(bo.on_poll(false, base), base * 2);
    }

    #[test]
    fn tail_pending_survives_pause_longer_than_backoff_cap_then_commits() {
        use osn_graph::crc32::Crc32;
        use osn_graph::io::FORMAT_V2_MAGIC;
        use osn_graph::testutil::SlowAppendWriter;

        let dir = scratch("slow-writer");
        let path = dir.join("trace.events");
        std::fs::write(&path, format!("{FORMAT_V2_MAGIC}\n")).unwrap();

        let mut chunk = String::new();
        let mut crc = Crc32::new();
        for line in ["N 0 core", "N 10 core", "E 20 0 1"] {
            chunk.push_str(line);
            chunk.push('\n');
            crc.update(line.as_bytes());
            crc.update(b"\n");
        }
        chunk.push_str(&format!("#%chunk lines=3 crc={:08x}\n", crc.finalize()));

        let file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut w = SlowAppendWriter::new(file, Duration::ZERO);
        let split = w.append_torn(chunk.as_bytes()).unwrap();

        let mut tail = TailReader::new(
            &path,
            RecoveryPolicy::Skip {
                max_errors: usize::MAX,
            },
        );
        let base = Duration::from_millis(2);
        let cap = base * (1 << PollBackoff::MAX_LEVEL);
        let mut bo = PollBackoff::new();
        let mut delays = Vec::new();
        // The writer stays paused for several multiples of the capped
        // delay; every poll sees the same torn tail and never an error.
        let pause_until = Instant::now() + cap * 3;
        while Instant::now() < pause_until {
            let b = tail.poll().unwrap();
            assert!(b.events.is_empty(), "torn chunk must not emit events");
            assert!(b.tail_pending && b.pending_bytes > 0);
            assert_eq!(b.chunks_dropped, 0, "a slow writer is not corruption");
            let d = bo.on_poll(false, base);
            delays.push(d);
            std::thread::sleep(d);
        }
        assert!(delays.len() >= 4, "several polls happened during the pause");
        assert_eq!(delays[0], base * 2);
        assert_eq!(delays[1], base * 4);
        assert_eq!(delays[2], base * 8);
        assert!(
            delays[2..].iter().all(|d| *d == cap),
            "delay stays at the cap while the pause outlasts it"
        );
        assert_eq!(bo.level(), PollBackoff::MAX_LEVEL);

        // Writer resumes: the next poll commits the whole chunk and the
        // backoff resets to the base interval.
        w.complete(chunk.as_bytes(), split).unwrap();
        let b = tail.poll().unwrap();
        assert_eq!(b.events.len(), 3);
        assert_eq!(b.chunks_verified, 1);
        assert!(!b.tail_pending);
        assert_eq!(bo.on_poll(true, base), base);
        assert_eq!(bo.level(), 0);
        assert_eq!(w.flushes(), 2);
    }

    #[test]
    fn follow_over_complete_trace_is_byte_identical_to_batch() {
        let dir = scratch("differential");
        let path = dir.join("trace.events");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let cfg = head_cfg(&path);
        let live = LiveQuery::for_follow();
        let report = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, Some(log.end_day()));
        assert_eq!(report.events_applied, log.events().len() as u64);
        assert_eq!(live.health(), IngestHealth::Complete);

        let followed = live.get().expect("published");
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
        assert_eq!(followed.communities_csv(), batch.communities_csv());
        assert_eq!(followed.days_json(), batch.days_json());
    }

    #[test]
    fn growing_trace_publishes_only_final_days_then_completes() {
        let dir = scratch("growing");
        let path = dir.join("trace.events");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        // First instalment: roughly the first half of the file.
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();

        let cfg = head_cfg(&path);
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let live2 = live.clone();
        let cfg2 = cfg.clone();
        let head = std::thread::spawn(move || run_follow(&cfg2, &live2, &stop));

        // Wait for the head to publish something from the half trace.
        let deadline = Instant::now() + Duration::from_secs(120);
        while live.published_day().is_none() {
            assert!(Instant::now() < deadline, "no publish from half trace");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mid_day = live.published_day().unwrap();
        assert!(
            mid_day < log.end_day(),
            "a half-written trace must publish a strictly earlier day"
        );
        // The half-trace state serves immediately and reports staleness.
        let json = live.head_json();
        assert!(json.contains("\"follow\":true"), "{json}");
        assert!(json.contains("\"published\":true"), "{json}");

        // Finish the file; the head must reach the footer and complete.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[split..]).unwrap();
        drop(f);
        let report = head.join().unwrap().unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, Some(log.end_day()));
        let followed = live.get().unwrap();
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
    }

    #[test]
    fn drain_then_resume_reaches_batch_identical_state() {
        let dir = scratch("resume");
        let path = dir.join("trace.events");
        let ckpt = dir.join("ckpt");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();

        let mut cfg = head_cfg(&path);
        cfg.checkpoint_dir = Some(ckpt.clone());

        // Phase one: ingest the half trace, then drain via shutdown.
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (stop, live2, cfg2) = (shutdown.clone(), live.clone(), cfg.clone());
        let head = std::thread::spawn(move || run_follow(&cfg2, &live2, &stop));
        let deadline = Instant::now() + Duration::from_secs(120);
        while live.published_day().is_none() {
            assert!(Instant::now() < deadline, "no publish before drain");
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::Release);
        let drained = head.join().unwrap().unwrap();
        assert!(!drained.completed, "drained mid-stream");
        let day1 = drained.published_day.unwrap();
        assert!(
            head_checkpoint_path(&ckpt).exists(),
            "drain must leave the head checkpoint on disk"
        );

        // Phase two: complete the file, restart from the checkpoint.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[split..]).unwrap();
        drop(f);
        let live_b = LiveQuery::for_follow();
        let report = run_follow(&cfg, &live_b, &AtomicBool::new(false)).unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, Some(log.end_day()));
        let json = live_b.head_json();
        assert!(
            json.contains(&format!("\"resumed_from_day\":{day1}")),
            "{json}"
        );
        let followed = live_b.get().unwrap();
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
        assert_eq!(followed.communities_csv(), batch.communities_csv());
    }

    #[test]
    fn checkpoint_from_a_different_trace_is_refused() {
        let dir = scratch("swap");
        let path = dir.join("trace.events");
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).unwrap();
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        // A checkpoint whose fingerprint matches nothing.
        let fake = ReplayCheckpoint {
            pos: 10,
            day: 0,
            fingerprint: 0xdead_beef,
        };
        std::fs::write(head_checkpoint_path(&ckpt), fake.to_text()).unwrap();

        let mut cfg = head_cfg(&path);
        cfg.checkpoint_dir = Some(ckpt);
        let live = LiveQuery::for_follow();
        let err = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap_err();
        assert!(matches!(err, LiveError::Checkpoint(_)), "{err}");
        assert_eq!(live.health(), IngestHealth::Wedged);
    }

    #[test]
    fn empty_trace_completes_without_publishing() {
        let dir = scratch("empty");
        let path = dir.join("trace.events");
        let empty = EventLogBuilder::new().build();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&empty, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let cfg = head_cfg(&path);
        let live = LiveQuery::for_follow();
        let report = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap();
        assert!(report.completed);
        assert_eq!(report.published_day, None);
        assert!(live.get().is_none(), "nothing to serve yet");
        let json = live.head_json();
        assert!(json.contains("\"published\":false"), "{json}");
        assert!(json.contains("\"day\":null"), "{json}");
    }

    #[test]
    fn strict_corruption_wedges_but_does_not_panic() {
        let dir = scratch("wedge");
        let path = dir.join("trace.events");
        std::fs::write(
            &path,
            "#%osn-events v2\nN 0 core\n#%chunk lines=1 crc=00000000\n",
        )
        .unwrap();
        let mut cfg = head_cfg(&path);
        cfg.policy = RecoveryPolicy::Strict;
        let live = LiveQuery::for_follow();
        let err = run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap_err();
        assert!(
            matches!(err, LiveError::Tail(TailError::Corrupt { .. })),
            "{err}"
        );
        assert_eq!(live.health(), IngestHealth::Wedged);
    }

    #[test]
    fn fixed_handle_reports_complete_and_serves() {
        let log = tiny_log();
        let cfg = fast_query_cfg();
        let q = Arc::new(SnapshotQuery::build(&log, &cfg));
        let live = LiveQuery::fixed(q);
        assert_eq!(live.health(), IngestHealth::Complete);
        assert_eq!(live.published_day(), Some(log.end_day()));
        assert!(live.get().is_some());
        let json = live.head_json();
        assert!(json.contains("\"follow\":false"), "{json}");
        assert!(json.contains("\"health\":\"complete\""), "{json}");
        assert!(
            json.contains(&format!("\"day\":{}", log.end_day())),
            "{json}"
        );
    }

    /// A writer whose bytes the test can read while a [`LogAppender`]
    /// owns it.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    /// Publish by publish, the carried build must serve exactly the bytes
    /// a batch build over the same committed prefix serves.
    #[test]
    fn every_publish_matches_a_batch_build_of_its_prefix() {
        use crate::network::import_view;

        let tcfg = TraceConfig::tiny();
        let merge_day = tcfg.merge.as_ref().unwrap().merge_day;
        // The import view bulk-loads the competitor on the merge day.
        let log = import_view(&TraceGenerator::new(tcfg).generate(), merge_day);
        // Day 31 (on both grids below) is emptied into day 32.
        let empty_day = 31;
        let mut by_day: Vec<Vec<Event>> = vec![Vec::new(); log.end_day() as usize + 1];
        for e in log.events() {
            let mut e = *e;
            if e.time.day() == empty_day {
                e.time = Time::day_start(empty_day + 1);
            }
            by_day[e.time.day() as usize].push(e);
        }
        assert!(by_day[empty_day as usize].is_empty());
        assert!(by_day[merge_day as usize].len() > 200, "bulk import");
        // Invalid events the skip policy drops: a self-loop, an unknown
        // endpoint, a duplicate edge and an out-of-order arrival. Then a
        // self-loop one second ahead of the next edge: it still raises
        // the order watermark, so that edge is dropped as out of order.
        let j = (1..by_day[100].len())
            .find(|&j| by_day[100][j].is_edge())
            .expect("an edge on day 100");
        let t = by_day[100][j].time;
        let (_, u, v) = log.edge_events().next().unwrap();
        let bad = [
            Event::edge(t, NodeId(0), NodeId(0)),
            Event::edge(t, NodeId(0), NodeId(999_999)),
            Event::edge(t, v, u),
            Event::node(Time(t.seconds() - 1), NodeId(0), osn_graph::Origin::Core),
            Event::edge(t.plus_seconds(1), NodeId(0), NodeId(0)),
        ];
        by_day[100].splice(j..j, bad);
        // Day 6's instalment ends with an event from day 7 (a grid day on
        // both grids), then late arrivals: more day-6 events than precede
        // it, and one day-7 event. Only the events before the day-7 one
        // may enter that publish, or day 7's rows would be computed
        // before its remaining events are in.
        let late_day = 6;
        assert!(!by_day[late_day as usize + 1].is_empty());
        let before: usize = by_day[..=late_day as usize].iter().map(Vec::len).sum();
        let (ahead, late) = (
            Time::day_start(late_day + 1),
            Time::day_start(late_day).plus_seconds(1),
        );
        let core = osn_graph::Origin::Core;
        let day6 = &mut by_day[late_day as usize];
        day6.push(Event::node(ahead, NodeId(0), core));
        day6.extend((0..before + 2).map(|_| Event::node(late, NodeId(0), core)));
        day6.push(Event::node(ahead, NodeId(0), core));

        // 37-event chunks, plus a chunk break at the end of a few days.
        let boundary_days = [late_day, 25, 60, merge_day, 120];
        let mut chunks: Vec<Vec<Event>> = vec![Vec::new()];
        let mut day_end_chunks = Vec::new();
        for (day, events) in by_day.iter().enumerate() {
            for &e in events {
                if chunks.last().unwrap().len() == 37 {
                    chunks.push(Vec::new());
                }
                chunks.last_mut().unwrap().push(e);
            }
            if boundary_days.contains(&(day as Day)) {
                day_end_chunks.push(chunks.len() - 1);
                chunks.push(Vec::new());
            }
        }
        let buf = SharedBuf::default();
        let mut trace = LogAppender::new(buf.clone()).unwrap();
        let mut ends = Vec::new();
        for chunk in &chunks {
            trace.append_chunk(chunk).unwrap();
            ends.push(buf.0.borrow().len());
        }
        trace.finish().unwrap();
        let bytes = buf.0.borrow().clone();
        let mid = |frac: f64| {
            let k = ((ends.len() as f64 * frac) as usize).max(1);
            (ends[k - 1] + ends[k]) / 2
        };
        let mut cuts: Vec<usize> = day_end_chunks.iter().map(|&k| ends[k]).collect();
        cuts.extend([
            mid(0.3),
            mid(0.5),
            mid(0.7),
            ends[ends.len() * 9 / 10],
            bytes.len(),
        ]);
        cuts.sort_unstable();
        cuts.dedup();

        let dir = scratch("publish-differential");
        let path = dir.join("trace.events");
        let mut cfg = head_cfg(&path);
        cfg.query = SnapshotQuery::builder()
            .metrics(MetricSeriesConfig {
                stride: 3,
                first_day: 1,
                path_sample: 20,
                clustering_sample: 40,
                workers: 2,
                ..Default::default()
            })
            .communities(CommunityAnalysisConfig {
                first_day: 3,
                stride: 4,
                ..Default::default()
            })
            .config()
            .clone();

        let mut tail = TailReader::new(&path, cfg.policy.clone());
        let mut events = Vec::new();
        let (mut state, mut published, mut publishes) = (None, 0, 0);
        let mut written = 0;
        for &cut in &cuts {
            append(&path, &bytes[written..cut]);
            written = cut;
            events.extend(tail.poll().unwrap().events);
            let (pos, day) = publish_target(&events, published, tail.finished(), None);
            if pos <= published {
                continue;
            }
            let (query, skipped) = publish(&mut state, &events[..pos], day, &cfg).unwrap();
            let (prefix, skipped_by_batch) = build_prefix(&events[..pos], false).unwrap();
            let batch = SnapshotQuery::build(&prefix, &cfg.query);
            assert_eq!(query.metrics_csv(), batch.metrics_csv(), "publish at {pos}");
            assert_eq!(query.communities_csv(), batch.communities_csv(), "at {pos}");
            assert_eq!(query.days_json(), batch.days_json(), "at {pos}");
            assert_eq!(query.meta_json("v"), batch.meta_json("v"), "at {pos}");
            assert_eq!(skipped, skipped_by_batch, "at {pos}");
            if publishes == 0 {
                assert_eq!(day, late_day, "the first cut ends day {late_day}");
                assert!(prefix.end_day() <= late_day, "no later event published");
            }
            published = pos;
            publishes += 1;
        }
        assert!(tail.finished());
        assert_eq!(published, events.len());
        assert!(publishes >= 5, "{publishes} publishes");
        let (_, skipped) = build_prefix(&events, false).unwrap();
        assert!(skipped >= 6 + before as u64, "{skipped} skipped");
    }

    /// The cut ends at the first event past the publishable day, also when
    /// a later event on or before that day follows it.
    #[test]
    fn publish_target_cuts_at_the_first_event_past_the_day() {
        let at = |day| TailEvent::Node {
            time: Time::day_start(day),
            origin: osn_graph::Origin::Core,
        };
        let events = [at(1), at(7), at(3), at(4)];
        assert_eq!(publish_target(&events, 0, false, None), (1, 3));
        assert_eq!(publish_target(&events, 1, false, None), (1, 3));
        assert_eq!(publish_target(&events, 0, true, None), (4, 4));
        assert_eq!(publish_target(&events, 0, false, Some(4)), (0, 0));
        let sorted = [at(1), at(2), at(2), at(5)];
        assert_eq!(publish_target(&sorted, 1, false, None), (3, 4));
    }

    /// `--engine` selects the non-follow build only: a follow snapshot
    /// says it was built incrementally, with the batch engine's bytes.
    #[test]
    fn follow_snapshots_report_the_incremental_engine() {
        let dir = scratch("meta-engine");
        let path = dir.join("trace.events");
        let log = tiny_log();
        let mut bytes = Vec::new();
        write_log_v2_chunked(&log, &mut bytes, 64).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let mut cfg = head_cfg(&path);
        cfg.query.engine = EngineKind::Batch;
        let live = LiveQuery::for_follow();
        run_follow(&cfg, &live, &AtomicBool::new(false)).unwrap();
        let followed = live.get().expect("published");
        let batch = SnapshotQuery::build(&log, &cfg.query);
        assert!(followed
            .meta_json("v")
            .contains("\"engine\":\"incremental\""));
        assert!(batch.meta_json("v").contains("\"engine\":\"batch\""));
        assert_eq!(followed.metrics_csv(), batch.metrics_csv());
        assert_eq!(followed.communities_csv(), batch.communities_csv());
    }

    /// Start `run_follow` on its own thread.
    fn spawn_head(
        cfg: &LiveHeadConfig,
        live: &Arc<LiveQuery>,
        shutdown: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<Result<FollowReport, LiveError>> {
        let (cfg, live, stop) = (cfg.clone(), live.clone(), shutdown.clone());
        std::thread::spawn(move || run_follow(&cfg, &live, &stop))
    }

    fn wait_until(what: &str, timeout: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + timeout;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The tiny trace in three instalments cut on chunk boundaries, with
    /// the day each one makes final, the batch query over that prefix and
    /// how many of its events the skip policy drops.
    struct Instalments {
        parts: Vec<Vec<u8>>,
        days: Vec<Day>,
        batches: Vec<SnapshotQuery>,
        skipped: Vec<u64>,
    }

    /// With `self_loops`, the trace carries a self-loop early in each
    /// instalment, for the skip policy to drop.
    fn instalments(dir: &Path, query: &SnapshotQueryConfig, self_loops: bool) -> Instalments {
        let mut events = tiny_log().events().to_vec();
        if self_loops {
            for k in [5, 3, 1] {
                let i = events.len() * k / 6;
                let t = events[i].time;
                events.insert(i, Event::edge(t, NodeId(0), NodeId(0)));
            }
        }
        let buf = SharedBuf::default();
        let mut trace = LogAppender::new(buf.clone()).unwrap();
        for chunk in events.chunks(64) {
            trace.append_chunk(chunk).unwrap();
        }
        trace.finish().unwrap();
        let bytes = buf.0.borrow().clone();
        let ends: Vec<usize> = bytes
            .split_inclusive(|&b| b == b'\n')
            .scan(0, |at, line| {
                *at += line.len();
                Some((*at, line.starts_with(b"#%chunk")))
            })
            .filter_map(|(at, chunk)| chunk.then_some(at))
            .collect();
        let cuts = [
            0,
            ends[ends.len() / 3],
            ends[ends.len() * 2 / 3],
            bytes.len(),
        ];
        let probe_path = dir.join("probe.events");
        let mut probe = TailReader::new(&probe_path, RecoveryPolicy::Strict);
        let mut events = Vec::new();
        let mut out = Instalments {
            parts: Vec::new(),
            days: Vec::new(),
            batches: Vec::new(),
            skipped: Vec::new(),
        };
        for w in cuts.windows(2) {
            let part = bytes[w[0]..w[1]].to_vec();
            append(&probe_path, &part);
            events.extend(probe.poll().unwrap().events);
            let (pos, day) = publish_target(&events, 0, probe.finished(), None);
            let (prefix, skipped) = build_prefix(&events[..pos], false).unwrap();
            out.parts.push(part);
            out.days.push(day);
            out.batches.push(SnapshotQuery::build(&prefix, query));
            out.skipped.push(skipped);
        }
        assert!(out.days.windows(2).all(|d| d[0] < d[1]), "{:?}", out.days);
        out
    }

    fn assert_serves(live: &LiveQuery, batch: &SnapshotQuery) {
        let q = live.get().expect("published");
        assert_eq!(q.metrics_csv(), batch.metrics_csv());
        assert_eq!(q.communities_csv(), batch.communities_csv());
        assert_eq!(q.days_json(), batch.days_json());
    }

    /// A publish that panics with no retries left wedges the head on the
    /// previous snapshot; the next publish rebuilds and recovers, counting
    /// each skipped event once.
    #[test]
    fn failed_publish_keeps_serving_then_recovers() {
        let _gate = osn_obs::test_gate();
        osn_obs::set_enabled(true);
        let dir = scratch("publish-panic");
        let path = dir.join("trace.events");
        let mut cfg = head_cfg(&path);
        cfg.poll_interval = Duration::from_secs(30);
        let parts = instalments(&dir, &cfg.query, true);
        cfg.run_policy.chaos = Some(ChaosTaskPlan::default().with_rule(
            parts.days[1] as u64,
            None,
            ChaosAction::Panic("poisoned publish".into()),
        ));
        let failures = osn_obs::counter!("head.build_failures");
        let failures_before = failures.value();
        let skips = osn_obs::counter!("head.events_skipped");
        let skips_before = skips.value();

        append(&path, &parts.parts[0]);
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let head = spawn_head(&cfg, &live, &shutdown);
        let minute = Duration::from_secs(60);
        wait_until("first publish", minute, || live.published_day().is_some());
        assert_eq!(live.published_day(), Some(parts.days[0]));
        assert!(parts.skipped[0] >= 1);
        assert_eq!(skips.value() - skips_before, parts.skipped[0]);

        append(&path, &parts.parts[1]);
        live.notify_appended();
        wait_until("wedged", minute, || live.health() == IngestHealth::Wedged);
        assert_eq!(live.published_day(), Some(parts.days[0]));
        assert_serves(&live, &parts.batches[0]);
        assert_eq!(failures.value() - failures_before, 1);

        append(&path, &parts.parts[2]);
        live.notify_appended();
        let report = head.join().unwrap().unwrap();
        osn_obs::set_enabled(false);
        assert!(report.completed);
        assert_eq!(report.published_day, Some(parts.days[2]));
        assert_eq!(live.health(), IngestHealth::Complete);
        assert_serves(&live, &parts.batches[2]);
        assert_eq!(parts.skipped[2], 3);
        assert_eq!(skips.value() - skips_before, 3);
    }

    /// A retried publish rebuilds the discarded state and serves the same
    /// bytes. Panics are never retried, so the retry is driven by a
    /// transient failure on the first attempt.
    #[test]
    fn retried_publish_serves_identical_bytes() {
        let dir = scratch("publish-retry");
        let path = dir.join("trace.events");
        let mut cfg = head_cfg(&path);
        cfg.poll_interval = Duration::from_secs(30);
        let parts = instalments(&dir, &cfg.query, false);
        cfg.run_policy.retries = 1;
        cfg.run_policy.chaos = Some(ChaosTaskPlan::default().with_rule(
            parts.days[1] as u64,
            Some(1),
            ChaosAction::Transient("flaky publish".into()),
        ));

        append(&path, &parts.parts[0]);
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let head = spawn_head(&cfg, &live, &shutdown);
        let minute = Duration::from_secs(60);
        wait_until("first publish", minute, || live.published_day().is_some());
        append(&path, &parts.parts[1]);
        live.notify_appended();
        wait_until("retried publish", minute, || {
            live.published_day() == Some(parts.days[1])
        });
        assert_eq!(live.health(), IngestHealth::Ok);
        assert_serves(&live, &parts.batches[1]);
        shutdown.store(true, Ordering::Release);
        head.join().unwrap().unwrap();
    }

    /// With a 30 s poll interval, an accepted write's wake publishes the
    /// new day at once, and shutdown still interrupts the wait promptly.
    #[test]
    fn notified_append_publishes_without_waiting_for_the_poll() {
        let dir = scratch("wake");
        let path = dir.join("trace.events");
        let mut cfg = head_cfg(&path);
        cfg.poll_interval = Duration::from_secs(30);
        let parts = instalments(&dir, &cfg.query, false);

        append(&path, &parts.parts[0]);
        let live = LiveQuery::for_follow();
        let shutdown = Arc::new(AtomicBool::new(false));
        let head = spawn_head(&cfg, &live, &shutdown);
        wait_until("first publish", Duration::from_secs(60), || {
            live.published_day().is_some()
        });
        append(&path, &parts.parts[1]);
        live.notify_appended();
        wait_until("woken publish", Duration::from_secs(1), || {
            live.published_day() == Some(parts.days[1])
        });
        // Let the head go back to waiting before asking it to stop.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        shutdown.store(true, Ordering::Release);
        head.join().unwrap().unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "{:?}",
            t0.elapsed()
        );
    }
}
