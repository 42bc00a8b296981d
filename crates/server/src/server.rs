//! The daemon: one readiness loop per shard that owns every connection
//! of the shard, a bounded per-shard work queue feeding handler workers,
//! explicit load shedding at every hand-off, and a deadline-bounded
//! graceful drain.
//!
//! ```text
//!   shard 0..N  (one listener each; SO_REUSEPORT siblings when N > 1)
//!        │
//!   readiness loop (1 thread per shard): one poll(2) over the listener,
//!   every connection the shard owns, and a wake socket
//!   - accept: accept_backlog connections already without a complete
//!     head ⇒ raw 503, no read
//!   - read heads nonblocking under the header deadline (408, slow-loris)
//!   - /healthz, /readyz, /v1/stats, /metrics, 4xx and response-cache
//!     hits: answered HERE and written nonblocking, never queued, so
//!     probes stay green while the work queue burns
//!   - idle keep-alive connections wait in the same poll set, culled
//!     at --keepalive-timeout
//!        │ cache miss, admitted POST /v1/events, chaos
//!        │ try_send ── full ⇒ 503 + Retry-After
//!        ▼
//!   work queue (bounded, --queue-depth per shard)
//!        │
//!   handler workers (--workers split across shards)
//!   - per-request soft deadline net of queue wait
//!   - catch_unwind panic isolation via the shared supervisor
//!   - blocking body read and response write, then the connection goes
//!     back to its loop (channel + wake byte), which answers whatever
//!     pipelined heads are already buffered
//! ```
//!
//! A connection has one owner at a time — its loop or one worker — and
//! the loop parses no further head on a connection while a response on
//! it is pending, so pipelined responses leave in request order. No
//! thread ever waits on an idle socket.
//!
//! Shutdown: flip the shared flag and wake every loop → each loop closes
//! its listener and its idle connections, finishes the heads it is
//! reading, and closes every connection after its current response; the
//! workers exit once their loop is gone and the queue is empty. The
//! coordinator waits up to the drain deadline; whatever is still
//! unanswered after that is *aborted* (reported, and mapped to exit 4 by
//! the CLI).

use crate::accesslog::{AccessLog, ServerStats, StatsSnapshot};
use crate::cache::{CacheKind, ResponseCache};
use crate::handlers::{handle, Handled, HandlerPolicy};
use crate::http::{Conn, Flush, HeadError, RequestHead, Response, RAW_SHED_503};
use crate::net::{bind_shard_listeners, poll, PollFd, POLLIN, POLLOUT};
use crate::router::{route, Route};
use crate::write::{WritePlaneConfig, WriteState};
use osn_core::live::LiveQuery;
use osn_core::query::SnapshotQuery;
use osn_graph::testutil::ChaosTaskPlan;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on auto-detected shards: beyond this the listener fan-out
/// stops paying for itself on the workloads this daemon sees.
const MAX_AUTO_SHARDS: usize = 8;

/// Budget for getting one response onto the socket.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a loop stops accepting after an accept error (fd exhaustion
/// under a connect flood) instead of spinning on a listener that stays
/// readable.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Everything `Server::start` needs. `Default` gives the classic
/// single-shard values; tests override the knobs they are drilling and
/// the CLI asks for `shards: 0` (one per core).
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Handler worker threads, split across shards; 0 = all cores minus
    /// one, at least one per shard.
    pub workers: usize,
    /// Bound on each shard's work queue; beyond it requests are shed.
    pub queue_depth: usize,
    /// Cap on each shard's connections that have no complete request head
    /// yet (fresh connects and heads still arriving). Heads parse in
    /// microseconds, so this can sit well above `queue_depth` without
    /// creating real backlog — it exists so health probes keep flowing
    /// while the work queue sheds, yet a connect flood still hits a hard
    /// wall (raw 503, no read) instead of unbounded fd growth.
    pub accept_backlog: usize,
    /// Per-request soft deadline, covering queue wait plus handling.
    pub request_timeout: Duration,
    /// Budget for reading one request head, counted from accept for the
    /// first request and re-armed per request on kept-alive connections.
    pub header_timeout: Duration,
    /// How long a drain may take before in-flight work is abandoned.
    pub drain_timeout: Duration,
    /// Transient handler retries before a 503.
    pub retries: u32,
    /// Deterministic fault injection for the serving plane (drills
    /// only). Keys are snapshot days. Also disables the response cache:
    /// chaos drills rely on every request reaching a handler.
    pub chaos: Option<ChaosTaskPlan>,
    /// Access-line sink.
    pub access_log: AccessLog,
    /// Durable write plane (`POST /v1/events`). `None` — the default —
    /// keeps the daemon read-only: the route answers `403`.
    pub write: Option<WritePlaneConfig>,
    /// Listener shards. 1 = one listener and one readiness loop; 0 = one
    /// shard per core (capped); N = exactly N shards, each with its own
    /// `SO_REUSEPORT` listener, readiness loop, work queue and workers.
    /// With more than one shard a failed `SO_REUSEPORT` bind fails
    /// startup.
    pub shards: usize,
    /// Idle keep-alive connections are closed after this long with no
    /// request bytes.
    pub keepalive_timeout: Duration,
    /// Hot-day response cache (pre-rendered CSV + precompressed gzip).
    /// Forced off when `chaos` is set.
    pub response_cache: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            accept_backlog: 128,
            request_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
            retries: 0,
            chaos: None,
            access_log: AccessLog::default(),
            write: None,
            shards: 1,
            keepalive_timeout: Duration::from_secs(5),
            response_cache: true,
        }
    }
}

/// What happened to in-flight work when the server went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections still unanswered when the drain deadline expired.
    /// `0` means a clean drain.
    pub aborted: usize,
}

impl DrainReport {
    /// True when every in-flight request finished before the deadline.
    pub fn clean(&self) -> bool {
        self.aborted == 0
    }
}

/// Per-shard observability: queue-depth gauges and a shed counter, all
/// registered in `osn-obs` under `http.shard.{i}.*` so they surface in
/// the `/v1/stats` telemetry document, plus rendered with a `shard`
/// label on `/metrics`.
#[derive(Debug)]
struct ShardStats {
    triage_depth: Arc<osn_obs::Gauge>,
    work_depth: Arc<osn_obs::Gauge>,
    parked: Arc<osn_obs::Gauge>,
    shed: Arc<osn_obs::Counter>,
}

impl ShardStats {
    fn new(shard: usize) -> ShardStats {
        ShardStats {
            triage_depth: osn_obs::gauge(&format!("http.shard.{shard}.triage_depth")),
            work_depth: osn_obs::gauge(&format!("http.shard.{shard}.work_depth")),
            parked: osn_obs::gauge(&format!("http.shard.{shard}.parked")),
            shed: osn_obs::counter(&format!("http.shard.{shard}.shed")),
        }
    }
}

/// Decrements `in_flight` when the connection is dropped, however it is
/// dropped — answered, shed, culled, or abandoned by a panicking stage.
#[derive(Debug)]
struct Ticket(Arc<Shared>);

impl Drop for Ticket {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// One accepted connection moving between its loop and the workers.
#[derive(Debug)]
struct Flow {
    conn: Conn,
    _ticket: Ticket,
}

/// A parsed request waiting for a handler worker.
struct Job {
    flow: Flow,
    head: RequestHead,
    route: Route,
    /// When this request's budget opened (see [`Conn::request_started`]).
    started: Instant,
    /// When the loop put the job on the work queue.
    queued: Instant,
}

/// A connection a worker hands back to its loop, and whether it stays
/// open.
type Returned = (Flow, bool);

/// Shared state every stage touches.
#[derive(Debug)]
struct Shared {
    live: Arc<LiveQuery>,
    stats: ServerStats,
    log: AccessLog,
    shutdown: AtomicBool,
    /// Connections accepted but not yet answered-and-closed (includes
    /// idle keep-alive connections).
    in_flight: AtomicU64,
    /// Loop + worker threads still running.
    live_threads: AtomicUsize,
    request_timeout: Duration,
    header_timeout: Duration,
    keepalive_timeout: Duration,
    retries: u32,
    chaos: Option<ChaosTaskPlan>,
    write: Option<WriteState>,
    cache: Option<ResponseCache>,
    shards: Vec<ShardStats>,
}

impl Shared {
    fn finish(
        &self,
        shard: usize,
        method: &str,
        path: &str,
        status: u16,
        since: Instant,
        reason: &str,
    ) {
        let elapsed = since.elapsed();
        let load_shed =
            reason == "shed" || reason == "timed-out" || reason == "transient-exhausted";
        self.stats
            .count_response(status, load_shed, reason == "panicked");
        if load_shed && !(200..=499).contains(&status) {
            // Mirror of `count_response`'s shed classification, kept
            // per shard so the drills can sum shard sheds to the global.
            self.shards[shard].shed.inc();
        }
        record_http_telemetry(path, status, elapsed, load_shed);
        self.log.record(method, path, status, elapsed, reason);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether the connection closes after this request's response: the
    /// peer asked, the server is draining, or a body sits unread in the
    /// socket, where it would be parsed as the next head (only the write
    /// plane consumes bodies).
    fn closes_after(&self, head: &RequestHead, route: Route) -> bool {
        head.wants_close
            || self.shutting_down()
            || (head.content_length.unwrap_or(0) > 0 && route != Route::PostEvents)
    }
}

/// Per-route latency histograms plus shed/status counters. The route
/// label set is closed, so every handle resolves through a cached
/// per-call-site lookup — no allocation on the request path.
fn record_http_telemetry(path: &str, status: u16, elapsed: Duration, load_shed: bool) {
    if !osn_obs::enabled() {
        return;
    }
    let hist = match path {
        "/healthz" => osn_obs::histogram!("http.latency_us.healthz"),
        "/readyz" => osn_obs::histogram!("http.latency_us.readyz"),
        "/v1/meta" => osn_obs::histogram!("http.latency_us.meta"),
        "/v1/days" => osn_obs::histogram!("http.latency_us.days"),
        "/v1/stats" => osn_obs::histogram!("http.latency_us.stats"),
        "/v1/head" => osn_obs::histogram!("http.latency_us.head"),
        "/v1/events" => osn_obs::histogram!("http.latency_us.events"),
        "/metrics" => osn_obs::histogram!("http.latency_us.prometheus"),
        p if p.starts_with("/v1/metrics/") => osn_obs::histogram!("http.latency_us.metrics"),
        p if p.starts_with("/v1/communities/") => {
            osn_obs::histogram!("http.latency_us.communities")
        }
        "-" => osn_obs::histogram!("http.latency_us.unparsed"),
        _ => osn_obs::histogram!("http.latency_us.other"),
    };
    hist.record_duration(elapsed);
    osn_obs::counter!("http.responses").inc();
    if load_shed {
        osn_obs::counter!("http.shed").inc();
    }
    match status {
        408 => osn_obs::counter!("http.status.408").inc(),
        431 => osn_obs::counter!("http.status.431").inc(),
        500 => osn_obs::counter!("http.status.500").inc(),
        503 => osn_obs::counter!("http.status.503").inc(),
        _ => {}
    }
}

/// A running daemon. In batch mode ([`Server::start`]) startup is
/// all-or-nothing: the trace analyses were already materialised into the
/// [`SnapshotQuery`] before `start`, so by the time `start` returns the
/// server answers every endpoint. In follow mode ([`Server::start_live`])
/// the snapshot behind the [`LiveQuery`] may still be empty or stale;
/// data endpoints answer `503` + `Retry-After` until the first publish,
/// and `/v1/head` reports staleness throughout.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// The write end of each shard loop's wake socket.
    wakers: Vec<Arc<UnixStream>>,
    drain_timeout: Duration,
}

impl Server {
    /// Bind, spawn the shards, and return once the listeners are live.
    /// Serves one frozen snapshot (batch mode).
    pub fn start(cfg: ServerConfig, query: Arc<SnapshotQuery>) -> io::Result<Server> {
        Server::start_live(cfg, LiveQuery::fixed(query))
    }

    /// Bind and serve whatever the [`LiveQuery`] currently publishes —
    /// the follow-mode entry point, where an ingest head keeps swapping
    /// fresher snapshots in behind this handle.
    pub fn start_live(cfg: ServerConfig, live: Arc<LiveQuery>) -> io::Result<Server> {
        // The daemon always runs instrumented: `/v1/stats` and `/metrics`
        // must answer with live numbers, and the per-record cost is one
        // relaxed atomic add on paths that already take a mutex.
        osn_obs::set_enabled(true);
        let shards = if cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, MAX_AUTO_SHARDS)
        } else {
            cfg.shards
        };
        let workers_total = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
                .max(1)
        } else {
            cfg.workers
        };
        let workers_per_shard = (workers_total / shards).max(1);

        let (listeners, addr) = bind_shard_listeners(&cfg.addr, shards)?;

        let shared = Arc::new(Shared {
            live,
            stats: ServerStats::default(),
            log: cfg.access_log,
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            live_threads: AtomicUsize::new(shards * (1 + workers_per_shard)),
            request_timeout: cfg.request_timeout,
            header_timeout: cfg.header_timeout,
            keepalive_timeout: cfg.keepalive_timeout,
            retries: cfg.retries,
            chaos: cfg.chaos.clone(),
            write: cfg.write.map(WriteState::new),
            cache: (cfg.response_cache && cfg.chaos.is_none()).then(ResponseCache::default),
            shards: (0..shards).map(ShardStats::new).collect(),
        });

        let mut threads = Vec::with_capacity(shards * (1 + workers_per_shard));
        let mut wakers = Vec::with_capacity(shards);
        for (shard, listener) in listeners.into_iter().enumerate() {
            let (wake, waker) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            waker.set_nonblocking(true)?;
            let waker = Arc::new(waker);
            let (work_tx, work_rx) = sync_channel::<Job>(cfg.queue_depth);
            let (back_tx, back_rx) = channel::<Returned>();
            let work_rx = Arc::new(Mutex::new(work_rx));
            for i in 0..workers_per_shard {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&work_rx);
                let back = back_tx.clone();
                let waker = Arc::clone(&waker);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("osn-worker-{shard}-{i}"))
                        .spawn(move || worker_loop(&shared, shard, &rx, &back, &waker))?,
                );
            }
            let shard_loop = ShardLoop {
                shared: Arc::clone(&shared),
                shard,
                listener: Some(listener),
                wake,
                work_tx,
                back_rx,
                conns: Vec::new(),
                lent: 0,
                heading: 0,
                accept_backlog: cfg.accept_backlog.max(1),
                accept_paused_until: None,
                published: (0, 0),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("osn-loop-{shard}"))
                    .spawn(move || shard_loop.run())?,
            );
            wakers.push(waker);
        }

        Ok(Server {
            addr,
            shared,
            threads,
            wakers,
            drain_timeout: cfg.drain_timeout,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Begin a graceful drain: stop accepting, finish in-flight work.
    /// Idempotent; does not block — follow with [`Server::join`].
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            wake(waker);
        }
    }

    /// Wait for shutdown (someone must call [`Server::request_shutdown`]
    /// or this blocks forever), then drain: every stage finishes what it
    /// already holds, bounded by the drain deadline. Whatever is still
    /// unanswered at the deadline is abandoned and reported.
    pub fn join(self) -> DrainReport {
        while !self.shared.shutting_down() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            if self.shared.live_threads.load(Ordering::Acquire) == 0 {
                for h in self.threads {
                    let _ = h.join();
                }
                return DrainReport { aborted: 0 };
            }
            if Instant::now() >= deadline {
                // Stuck stages stay detached; the process exit (or the
                // test harness) reclaims them. Their connections count
                // as aborted.
                return DrainReport {
                    aborted: self.shared.in_flight.load(Ordering::Acquire) as usize,
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Nudge a shard loop out of `poll`. A full socket already holds an
/// unread nudge, so a failed write loses nothing.
fn wake(waker: &UnixStream) {
    let _ = (&*waker).write(&[1]);
}

/// Decrement a live-count even if a stage loop panics.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// One shard's readiness loop: the only thread that touches the shard's
/// listener and its connections while they are between workers.
struct ShardLoop {
    shared: Arc<Shared>,
    shard: usize,
    /// `None` once draining.
    listener: Option<TcpListener>,
    /// Read end of the wake socket: workers (and shutdown) write a byte.
    wake: UnixStream,
    /// The work queue's only sender: dropping it lets the workers exit.
    work_tx: SyncSender<Job>,
    back_rx: Receiver<Returned>,
    /// The connections this loop owns, all nonblocking, in poll order.
    conns: Vec<Flow>,
    /// Connections out with workers (queued or being handled).
    lent: usize,
    /// Owned connections without a complete head yet.
    heading: usize,
    accept_backlog: usize,
    accept_paused_until: Option<Instant>,
    /// `(heading, idle)` as last added to the shard gauges, which are
    /// moved by deltas so several servers in one process add up.
    published: (i64, i64),
}

impl ShardLoop {
    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let _threads = CountGuard(&shared.live_threads);
        let (header, keepalive) = (shared.header_timeout, shared.keepalive_timeout);
        let deadline = |f: &Flow| f.conn.deadline(header, keepalive, WRITE_TIMEOUT);
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            if shared.shutting_down() {
                // Stop accepting; idle connections have no request in
                // flight, so the drain closes them at once.
                self.listener = None;
                self.conns.retain(|f| !f.conn.is_idle());
                if self.conns.is_empty() && self.lent == 0 {
                    break;
                }
            }
            // One pass builds the poll set, finds the earliest deadline
            // (the poll timeout) and counts the shard gauges.
            let now = Instant::now();
            self.accept_paused_until = self.accept_paused_until.filter(|&t| t > now);
            let mut next = self.accept_paused_until;
            let listener = match &self.listener {
                Some(l) if next.is_none() => l.as_raw_fd(),
                _ => -1,
            };
            fds.clear();
            fds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
            fds.push(PollFd::new(listener, POLLIN));
            let (mut heading, mut idle) = (0, 0);
            for f in &self.conns {
                let d = deadline(f);
                next = Some(next.map_or(d, |n| n.min(d)));
                let events = if f.conn.has_pending_output() {
                    POLLOUT
                } else if f.conn.is_idle() {
                    idle += 1;
                    POLLIN
                } else {
                    heading += 1;
                    POLLIN
                };
                fds.push(PollFd::new(f.conn.stream().as_raw_fd(), events));
            }
            self.heading = heading;
            self.publish(heading as i64, idle);
            if poll(&mut fds, next.map(|t| t.saturating_duration_since(now))).is_err() {
                // Only a broken poll set gets here; back off, don't spin.
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
            // Connections first, while their poll slots still line up
            // with `conns`; returns and accepts append behind them.
            let now = Instant::now();
            let polled = std::mem::take(&mut self.conns);
            for (flow, fd) in polled.into_iter().zip(&fds[2..]) {
                let flow = if fd.revents() != 0 {
                    self.step(flow)
                } else {
                    Some(flow)
                };
                let kept = match flow {
                    Some(f) if now >= deadline(&f) => self.expire(f),
                    other => other,
                };
                self.conns.extend(kept);
            }
            if fds[0].revents() != 0 {
                self.take_back();
            }
            if fds[1].revents() != 0 {
                self.accept();
            }
        }
        self.publish(0, 0);
    }

    fn publish(&mut self, heading: i64, idle: i64) {
        let stats = &self.shared.shards[self.shard];
        stats.triage_depth.add(heading - self.published.0);
        stats.parked.add(idle - self.published.1);
        self.published = (heading, idle);
    }

    /// A connection past its deadline: a head that never completed gets
    /// its 408; a blown write window (the peer stopped reading) or an
    /// idle keep-alive window closes silently — between requests there
    /// is nothing to answer and nothing to log.
    fn expire(&mut self, flow: Flow) -> Option<Flow> {
        if flow.conn.has_pending_output() || flow.conn.is_idle() {
            return None;
        }
        let started = flow.conn.request_started();
        self.reject(flow, HeadError::TimedOut, started)
    }

    /// Act on a connection the poll reported ready.
    fn step(&mut self, mut flow: Flow) -> Option<Flow> {
        if flow.conn.has_pending_output() {
            return match flow.conn.flush() {
                Flush::Done => {
                    flow.conn.rearm();
                    self.drive(flow, true)
                }
                Flush::Pending => Some(flow),
                Flush::Close => None,
            };
        }
        let open = flow.conn.read_ready();
        self.drive(flow, open)
    }

    /// Answer the heads buffered on `flow`, in order, until a response is
    /// waiting for the socket, the connection has gone to a worker, or
    /// no complete head is left. `open` is false once the peer has
    /// stopped sending.
    fn drive(&mut self, mut flow: Flow, open: bool) -> Option<Flow> {
        loop {
            let started = flow.conn.request_started();
            let head = match flow.conn.next_head() {
                Some(Ok(head)) => head,
                Some(Err(err)) => return self.reject(flow, err, started),
                None if open => return Some(flow),
                None => {
                    // A clean hangup between requests, or a head cut short.
                    let err = if flow.conn.is_idle() {
                        HeadError::Closed
                    } else {
                        HeadError::ConnectionLost
                    };
                    return self.reject(flow, err, started);
                }
            };
            flow = self.answer(flow, head, started)?;
            if flow.conn.has_pending_output() {
                return Some(flow);
            }
        }
    }

    /// Answer one parsed head inline, or hand it to a worker.
    fn answer(&mut self, flow: Flow, head: RequestHead, started: Instant) -> Option<Flow> {
        let r = route(&head);
        let handled = if r.is_fast_path() {
            Handled {
                response: fast_response(&self.shared, r),
                reason: "-",
            }
        } else if r == Route::PostEvents {
            match reject_write(&self.shared, &head) {
                Some(rejected) => rejected,
                None => return self.hand_off(flow, head, r, started),
            }
        } else {
            match answer_from_cache(&self.shared, &head, r) {
                Some(hit) => hit,
                None => return self.hand_off(flow, head, r, started),
            }
        };
        // A rejected write's body was never read: the connection cannot
        // be reused.
        let close = self.shared.closes_after(&head, r) || r == Route::PostEvents;
        self.reply(flow, &head.method, &head.path, handled, close, started)
    }

    /// Queue a request for the shard's workers; a full queue sheds it
    /// with a 503 + `Retry-After` instead.
    fn hand_off(
        &mut self,
        flow: Flow,
        head: RequestHead,
        route: Route,
        started: Instant,
    ) -> Option<Flow> {
        // Gauge up *before* the send: a worker's matching `sub` can run
        // the instant the job lands, and a decrement racing ahead of
        // this increment would show a negative depth in /v1/stats.
        self.shared.shards[self.shard].work_depth.add(1);
        let job = Job {
            flow,
            head,
            route,
            started,
            queued: Instant::now(),
        };
        match self.work_tx.try_send(job) {
            Ok(()) => {
                self.lent += 1;
                None
            }
            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                self.shared.shards[self.shard].work_depth.sub(1);
                let Job { flow, head, .. } = job;
                let shed = Handled {
                    response: Response::shed("queue-full"),
                    reason: "shed",
                };
                self.reply(flow, &head.method, &head.path, shed, true, started)
            }
        }
    }

    /// Answer a head that cannot be served — 408/431/400, or silence
    /// when the peer is gone — and close.
    fn reject(&mut self, flow: Flow, err: HeadError, started: Instant) -> Option<Flow> {
        if err == HeadError::Closed {
            return None;
        }
        self.shared.stats.bad_heads.fetch_add(1, Ordering::Relaxed);
        let Some(status) = err.status() else {
            self.shared
                .finish(self.shard, "-", "-", 0, started, err.as_str());
            return None;
        };
        let rejected = Handled {
            response: Response::text(status, &format!("{}\n", err.as_str())),
            reason: err.as_str(),
        };
        self.reply(flow, "-", "-", rejected, true, started)
    }

    /// Write a response nonblocking and log it; whatever the socket does
    /// not take now waits for `POLLOUT` under the write deadline.
    fn reply(
        &mut self,
        mut flow: Flow,
        method: &str,
        path: &str,
        handled: Handled,
        close: bool,
        started: Instant,
    ) -> Option<Flow> {
        let flushed = flow.conn.send(&handled.response, close);
        self.shared.finish(
            self.shard,
            method,
            path,
            handled.response.status,
            started,
            handled.reason,
        );
        flow.conn.served += 1;
        match flushed {
            Flush::Done => {
                flow.conn.rearm();
                Some(flow)
            }
            Flush::Pending => Some(flow),
            Flush::Close => None,
        }
    }

    /// Take back the connections workers have finished with, answering
    /// any pipelined heads they already hold.
    fn take_back(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        while let Ok((mut flow, keep_alive)) = self.back_rx.try_recv() {
            self.lent -= 1;
            if keep_alive {
                flow.conn.rearm();
                let kept = self.drive(flow, true);
                self.conns.extend(kept);
            }
        }
    }

    fn accept(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.in_flight.fetch_add(1, Ordering::Release);
        // Every response leaves in one write, so Nagle's algorithm has
        // nothing to coalesce: it only holds a pipelined response back
        // until the peer acknowledges the one before it.
        let _ = stream.set_nodelay(true);
        let flow = Flow {
            conn: Conn::new(stream),
            _ticket: Ticket(Arc::clone(&self.shared)),
        };
        if flow.conn.set_blocking(false).is_err() || self.heading >= self.accept_backlog {
            // The shard already holds its fill of heads still arriving:
            // answer with a canned 503 without reading a byte, so the
            // reject path costs nothing a flood can amplify. The answer
            // fits any fresh socket's send buffer.
            let _ = flow.conn.stream().write(RAW_SHED_503);
            self.shared
                .finish(self.shard, "-", "-", 503, flow.conn.accepted, "shed");
            return;
        }
        self.heading += 1;
        self.conns.push(flow);
    }
}

fn worker_loop(
    shared: &Arc<Shared>,
    shard: usize,
    rx: &Mutex<Receiver<Job>>,
    back: &Sender<Returned>,
    waker: &UnixStream,
) {
    let _threads = CountGuard(&shared.live_threads);
    let mut policy = HandlerPolicy {
        retries: shared.retries,
        deadline: None,
        chaos: shared.chaos.clone(),
    };
    loop {
        // The lock is held only while dequeuing, never across socket
        // I/O. The loop owns the only sender: once it has exited and the
        // queue is empty, `recv` fails and the worker exits.
        let job = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        shared.shards[shard].work_depth.sub(1);
        osn_obs::histogram!("http.queue_wait_us").record_duration(job.queued.elapsed());
        // Back to the loop either way: it keeps the count of connections
        // out with workers, and closes the ones that do not stay open.
        if back.send(work_one(shared, shard, job, &mut policy)).is_ok() {
            wake(waker);
        }
    }
}

/// Answer one queued request with blocking I/O: a cache miss rendered
/// under the supervisor, or an admitted write whose body is read here.
fn work_one(shared: &Shared, shard: usize, job: Job, policy: &mut HandlerPolicy) -> Returned {
    let Job {
        mut flow,
        head,
        route,
        started,
        ..
    } = job;
    if flow.conn.set_blocking(true).is_err() {
        return (flow, false);
    }
    let (handled, body_consumed) = match (route, &shared.write) {
        (Route::PostEvents, Some(write)) => {
            let deadline = started + shared.request_timeout;
            let handled = write.handle_post(&mut flow.conn, &head, deadline, &shared.live);
            // Only a 2xx proves the body was consumed in full.
            let consumed = handled.response.status < 300;
            (handled, consumed)
        }
        // Unreachable: the loop admits writes only with a write plane.
        (Route::PostEvents, None) => (
            Handled {
                response: Response::text(403, "write plane disabled\n"),
                reason: "denied",
            },
            false,
        ),
        _ => match shared.request_timeout.checked_sub(started.elapsed()) {
            // The request's whole budget evaporated in the queue: shed
            // it now instead of doing work nobody is waiting for.
            None => (
                Handled {
                    response: Response::shed("expired-in-queue"),
                    reason: "timed-out",
                },
                true,
            ),
            Some(budget) => {
                policy.deadline = Some(budget);
                (handle_data(shared, route, &head, policy), true)
            }
        },
    };
    let close = !body_consumed || shared.closes_after(&head, route);
    let write_ok = flow
        .conn
        .write_response(&handled.response, WRITE_TIMEOUT, close)
        .is_ok();
    shared.finish(
        shard,
        &head.method,
        &head.path,
        handled.response.status,
        started,
        handled.reason,
    );
    flow.conn.served += 1;
    let keep_alive = write_ok && !close && flow.conn.set_blocking(false).is_ok();
    (flow, keep_alive)
}

/// `503` for data requests that arrive before the live head has
/// published its first snapshot: a degradation, not an error — the
/// client backs off and retries, and `/v1/head` explains the state.
fn not_ready_response(shared: &Shared) -> Response {
    let mut r = Response::text(
        503,
        &format!(
            "no snapshot published yet (ingest {})\n",
            shared.live.health().as_str()
        ),
    );
    r.retry_after = Some(1);
    r
}

/// Inline responses for routes that must not depend on worker capacity.
fn fast_response(shared: &Shared, r: Route) -> Response {
    match r {
        Route::Health => Response::text(200, "ok\n"),
        Route::Ready => match shared.live.get() {
            Some(query) => {
                let meta = query.meta();
                Response::json(
                    200,
                    format!(
                        "{{\"ready\":true,\"days\":{},\"nodes\":{},\"fingerprint\":\"{:016x}\"}}",
                        meta.num_days, meta.num_nodes, meta.fingerprint
                    ),
                )
            }
            // Follow mode before the first publish: alive but not ready.
            None => {
                let mut r = Response::json(
                    503,
                    format!(
                        "{{\"ready\":false,\"ingest\":\"{}\"}}",
                        shared.live.health().as_str()
                    ),
                );
                r.retry_after = Some(1);
                r
            }
        },
        Route::Meta => match shared.live.get() {
            Some(query) => Response::json(200, query.meta_json(env!("CARGO_PKG_VERSION"))),
            None => not_ready_response(shared),
        },
        Route::Head => Response::json(200, shared.live.head_json()),
        Route::Stats => {
            // Serving-plane counters, per-shard queue state, and the
            // full telemetry snapshot in one document; all renderings
            // are single-line JSON.
            let mut shards_json = String::from("[");
            for (i, s) in shared.shards.iter().enumerate() {
                if i > 0 {
                    shards_json.push(',');
                }
                shards_json.push_str(&format!(
                    "{{\"triage\":{},\"work\":{},\"parked\":{},\"shed\":{}}}",
                    s.triage_depth.value(),
                    s.work_depth.value(),
                    s.parked.value(),
                    s.shed.value(),
                ));
            }
            shards_json.push(']');
            let cache_json = match &shared.cache {
                Some(cache) => {
                    let (m, c, d) = cache.sizes();
                    format!("{{\"enabled\":true,\"metrics\":{m},\"communities\":{c},\"days\":{d}}}")
                }
                None => "{\"enabled\":false}".to_string(),
            };
            let body = format!(
                "{{\"server\":{},\"shards\":{},\"cache\":{},\"telemetry\":{}}}",
                shared.stats.snapshot().to_json(),
                shards_json,
                cache_json,
                osn_obs::snapshot().to_json()
            );
            Response::json(200, body)
        }
        Route::Prometheus => {
            let s = shared.stats.snapshot();
            let mut body = String::new();
            for (name, v) in [
                ("osn_server_accepted", s.accepted),
                ("osn_server_requests", s.requests),
                ("osn_server_ok", s.ok),
                ("osn_server_client_error", s.client_error),
                ("osn_server_server_error", s.server_error),
                ("osn_server_shed", s.shed),
                ("osn_server_panicked", s.panicked),
                ("osn_server_bad_heads", s.bad_heads),
            ] {
                body.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            // Per-shard queue state as one labeled gauge family (the
            // global `osn_http_queue_depth` of the single-acceptor era),
            // plus per-shard shed counters.
            body.push_str("# TYPE osn_http_queue_depth gauge\n");
            for (i, sh) in shared.shards.iter().enumerate() {
                for (queue, v) in [
                    ("triage", sh.triage_depth.value()),
                    ("work", sh.work_depth.value()),
                    ("parked", sh.parked.value()),
                ] {
                    body.push_str(&format!(
                        "osn_http_queue_depth{{shard=\"{i}\",queue=\"{queue}\"}} {v}\n"
                    ));
                }
            }
            body.push_str("# TYPE osn_http_shard_shed counter\n");
            for (i, sh) in shared.shards.iter().enumerate() {
                body.push_str(&format!(
                    "osn_http_shard_shed{{shard=\"{i}\"}} {}\n",
                    sh.shed.value()
                ));
            }
            // Live-head freshness as first-class gauges, so scrapers do
            // not have to parse the `/v1/head` JSON. `published_day` is
            // -1 until the first publish (Prometheus has no null).
            let day = shared.live.published_day().map(|d| d as i64).unwrap_or(-1);
            for (name, v) in [
                ("osn_head_published", i64::from(shared.live.is_published())),
                ("osn_head_published_day", day),
                ("osn_head_lag_events", shared.live.lag_events() as i64),
                ("osn_head_lag_bytes", shared.live.lag_bytes() as i64),
                ("osn_head_staleness_ms", shared.live.staleness_ms() as i64),
            ] {
                body.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
            if let Some(write) = &shared.write {
                let w = write.wal().stats();
                for (name, v) in [
                    ("osn_wal_appends", w.appends),
                    ("osn_wal_duplicates", w.duplicates),
                    ("osn_wal_fsyncs", w.fsyncs),
                    ("osn_wal_last_seq", w.last_seq),
                ] {
                    body.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                body.push_str(&format!(
                    "# TYPE osn_wal_sync_queue gauge\nosn_wal_sync_queue {}\n",
                    write.wal().sync_queue_depth()
                ));
            }
            body.push_str(&osn_obs::snapshot().to_prometheus());
            Response::text(200, &body)
        }
        Route::BadDay => Response::text(400, "day must be a non-negative integer\n"),
        Route::NotFound => Response::text(404, "no such endpoint\n"),
        Route::MethodNotAllowed => Response::text(405, "only GET is supported\n"),
        work => unreachable!("work route {work:?} is not fast-path"),
    }
}

/// Write admission, run on the loop before a write can hold a queue slot
/// or a worker: the write plane's auth, rate budget and fsync/lag valves
/// are all cheap header-only checks, and rejecting here keeps a write
/// flood from starving queued reads. `None` admits the request.
fn reject_write(shared: &Shared, head: &RequestHead) -> Option<Handled> {
    let response = match &shared.write {
        None => Response::text(403, "write plane disabled (start with --accept-writes)\n"),
        Some(w) => w.admit(head, &shared.live)?,
    };
    let reason = match response.status {
        429 | 503 => "shed",
        _ => "denied",
    };
    Some(Handled { response, reason })
}

/// The cache key of a data route.
fn cache_key(route: Route) -> (CacheKind, u32) {
    match route {
        Route::Days => (CacheKind::Days, 0),
        Route::Metrics(day) => (CacheKind::Metrics, day),
        Route::Communities(day) => (CacheKind::Communities, day),
        other => unreachable!("non-data route {other:?}"),
    }
}

/// A consistent snapshot view: the query plus its publish generation
/// when no publish raced the fetch. The generation is read on both sides
/// of the fetch: equal means the `Arc` belongs to that generation and
/// cache entries may be keyed to it; unequal means skip the cache for
/// this request rather than risk filing a body under the wrong
/// generation.
fn snapshot(shared: &Shared) -> (Option<Arc<SnapshotQuery>>, Option<u64>) {
    let g1 = shared.live.generation();
    let query = shared.live.get();
    (query, (shared.live.generation() == g1).then_some(g1))
}

/// Answer a data route without a worker when that costs no handler
/// work: a response-cache hit, or the not-ready 503 before the first
/// publish. `None` sends the request to the work queue.
fn answer_from_cache(shared: &Shared, head: &RequestHead, route: Route) -> Option<Handled> {
    let (query, generation) = snapshot(shared);
    let Some(query) = query else {
        return Some(Handled {
            response: not_ready_response(shared),
            reason: "not-ready",
        });
    };
    let cache = shared.cache.as_ref()?;
    let (kind, day) = cache_key(route);
    // Days strictly below the latest published day are immutable
    // history: entries for them survive publishes.
    let frozen_below = query.meta().num_days.saturating_sub(1);
    let hit = cache.lookup(kind, day, generation?, frozen_below)?;
    let content_type = match kind {
        CacheKind::Days => "application/json",
        _ => "text/csv; charset=utf-8",
    };
    Some(Handled {
        response: cached_response(content_type, hit, head.accept_gzip),
        reason: "-",
    })
}

/// Render a data route the cache could not answer, under the
/// supervisor, and file a successful body in the cache.
fn handle_data(
    shared: &Shared,
    route: Route,
    head: &RequestHead,
    policy: &HandlerPolicy,
) -> Handled {
    let (query, generation) = snapshot(shared);
    let Some(query) = query else {
        return Handled {
            response: not_ready_response(shared),
            reason: "not-ready",
        };
    };
    let mut handled = handle(&query, route, policy);
    if let (200, Some(cache), Some(generation)) =
        (handled.response.status, &shared.cache, generation)
    {
        let (kind, day) = cache_key(route);
        let content_type = handled.response.content_type;
        let body = std::mem::replace(
            &mut handled.response.body,
            crate::http::Body::Owned(Vec::new()),
        )
        .into_vec();
        let stored = cache.store(kind, day, generation, body);
        handled.response = cached_response(content_type, stored, head.accept_gzip);
    }
    handled
}

fn cached_response(
    content_type: &'static str,
    body: crate::cache::CachedBody,
    accept_gzip: bool,
) -> Response {
    if accept_gzip && body.gzip.len() < body.plain.len() {
        Response::cached(content_type, body.gzip, true)
    } else {
        Response::cached(content_type, body.plain, false)
    }
}
