//! `write-mixed`: `osn serve --follow --accept-writes` (WAL fsync on)
//! fed the workload trace as idempotency-keyed 64-event `POST
//! /v1/events` batches on one connection, at the trace's own timestamps
//! compressed to the run length, every eighth key sent twice. A second
//! connection reads `/v1/head`, `/v1/days`, the latest metrics day and
//! older immutable days from the first publish on.

use crate::client::{
    get_request, post_request, run_open_loop, Completed, Failure, Session, SimpleConn,
};
use crate::procs::Server;
use crate::serve::{
    build_layers, connect_probe, scrape, server_layers, start_servers, Outcome, Queues, Sampler,
    MAX_IN_FLIGHT,
};
use osn_core::query::SnapshotQuery;
use osn_graph::wal::{Wal, WalEvent, WalOptions};
use osn_graph::{Day, EventKind, EventLog, EventLogBuilder, SECONDS_PER_DAY};
use osn_stats::rng_from_seed;
use osn_stats::sampling::derive_seed;
use perfbench::counters::{self, json_int, Scrape};
use perfbench::mix::Weighted;
use perfbench::report::Report;
use perfbench::sched::{compress, due_at_rate};
use perfbench::stats::{median, Samples};
use rand::rngs::SmallRng;
use rand::Rng;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCH_EVENTS: usize = 64;
/// Every this-many-th key is sent a second time.
pub const RESEND_EVERY: usize = 8;
/// Offered rate of the read connection.
pub const READ_RATE: f64 = 2_000.0;
const TOKEN: &str = "perfbench-token";
/// Server starts before the phase, each over a fresh copy of the prefix,
/// and as many again after it; `setup_s` is the median of all of them.
/// A start takes 30–100 ms, mostly the head's first publish of the prefix
/// (CPU; about the same with WAL fsync off), so a shared host's load
/// moves single starts a lot: the median needs many starts, spread over
/// the run.
const SETUP_REPEATS: usize = 16;
/// How long the head may take to publish every complete day after the
/// last ack.
const CATCH_UP: Duration = Duration::from_secs(60);

/// One POST of the stream.
#[derive(Debug, Clone)]
pub struct Post {
    pub batch: usize,
    pub key: String,
    pub lines: Arc<String>,
    pub due: Duration,
    pub resend: bool,
}

/// The server starts over the trace's events before this day, already
/// on disk, and becomes ready when its head has published them; the rest
/// arrives as POSTs. The cut leaves the merge (day 386) in the stream.
pub const PREFIX_DAYS: Day = 380;

/// The write stream of a run.
pub struct Stream {
    /// The v2 trace the server starts over: the events before
    /// [`PREFIX_DAYS`].
    pub prefix: Vec<u8>,
    /// The first day the POSTs make final: every earlier day is published
    /// at start.
    pub first_day: Day,
    pub posts: Vec<Post>,
    /// Per batch, the highest event day it carries.
    pub max_day: Vec<Day>,
    /// Trace seconds per run second.
    pub factor: f64,
}

/// Everything a write phase needs besides its server.
struct Inputs<'a> {
    q: &'a SnapshotQuery,
    log: &'a EventLog,
    stream: &'a Stream,
    seed: u64,
    seconds: u64,
}

/// The trace split at [`PREFIX_DAYS`]: the prefix as a v2 trace, the
/// rest as POSTs due at its timestamps compressed so the stream spans
/// `seconds`.
pub fn stream(log: &EventLog, bytes: &[u8], seconds: u64) -> Stream {
    let cut = log.events().partition_point(|e| e.time.day() < PREFIX_DAYS);
    let mut prefix = EventLogBuilder::new();
    for e in &log.events()[..cut] {
        match e.kind {
            EventKind::AddNode { origin, .. } => {
                prefix
                    .add_node(e.time, origin)
                    .expect("prefix of a valid log");
            }
            EventKind::AddEdge { u, v } => prefix
                .add_edge(e.time, u, v)
                .expect("prefix of a valid log"),
        }
    }
    let prefix = crate::v2_bytes(&prefix.build());
    let text = std::str::from_utf8(bytes).expect("v2 traces are utf-8");
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("N ") || l.starts_with("E "))
        .skip(cut)
        .collect();
    let time = |l: &str| -> u64 {
        l.split(' ')
            .nth(1)
            .and_then(|t| t.parse().ok())
            .expect("event line carries a timestamp")
    };
    let chunks: Vec<&[&str]> = lines.chunks(BATCH_EVENTS).collect();
    // A batch is due when its last event happens.
    let stamps: Vec<u64> = chunks.iter().map(|c| time(c[c.len() - 1])).collect();
    let span = (stamps.last().copied().unwrap_or(0) - stamps.first().copied().unwrap_or(0)).max(1);
    let factor = span as f64 / seconds as f64;
    let dues = compress(&stamps, factor);
    let mut out = Vec::new();
    let mut max_day = Vec::new();
    for (i, (chunk, due)) in chunks.iter().zip(dues).enumerate() {
        let mut body = chunk.join("\n");
        body.push('\n');
        let body = Arc::new(body);
        max_day.push((stamps[i] / SECONDS_PER_DAY) as Day);
        let resend = i % RESEND_EVERY == 0;
        for copy in 0..if resend { 2 } else { 1 } {
            out.push(Post {
                batch: i,
                key: format!("perfbench-{i}"),
                lines: Arc::clone(&body),
                due,
                resend: copy == 1,
            });
        }
    }
    Stream {
        prefix,
        first_day: log.events()[cut - 1].time.day(),
        posts: out,
        max_day,
        factor,
    }
}

/// Shared between the writer and the reader connection.
#[derive(Default)]
struct Shared {
    writer_done: AtomicBool,
    /// Latest published day seen on `/v1/head` (-1: none yet).
    head_day: AtomicI64,
}

struct WriteSession<'a> {
    posts: &'a [Post],
    auth: String,
    i: usize,
    ack: Samples,
    /// Ack offset of each batch's first 201.
    acked_at: Vec<Option<Duration>>,
    accepted: u64,
    duplicates: u64,
    bad_acks: u64,
    out: Outcome,
}

impl Session for WriteSession<'_> {
    fn next_due(&mut self) -> Option<Duration> {
        self.posts.get(self.i).map(|p| p.due)
    }

    fn build(&mut self) -> (Vec<u8>, u64) {
        let p = &self.posts[self.i];
        self.i += 1;
        self.out.attempted += 1;
        let req = post_request(
            "/v1/events",
            &[("Authorization", &self.auth), ("Idempotency-Key", &p.key)],
            p.lines.as_bytes(),
        );
        (req, (self.i - 1) as u64)
    }

    fn done(&mut self, c: Completed) {
        let p = &self.posts[c.tag as usize];
        let body = String::from_utf8_lossy(&c.body);
        let dup = body.contains("\"duplicate\":true");
        let ok = match c.status {
            201 if !p.resend && !dup => {
                self.accepted += 1;
                self.acked_at[p.batch].get_or_insert(c.done);
                true
            }
            200 if p.resend && dup => {
                self.duplicates += 1;
                true
            }
            201 | 200 => {
                self.bad_acks += 1;
                false
            }
            _ => true,
        };
        self.ack.push(c.latency_us());
        self.out.record(&c, ok);
    }

    fn failed(&mut self, _tag: u64, _due: Duration, kind: Failure) {
        self.out.record_failure(kind);
    }
}

/// Shares of the reader's requests: `/v1/head`, `/v1/days`, the latest
/// published metrics day, older metrics days, older communities days.
/// The first three are the moving-head read mix of the repository's
/// `bench_serve --write-rate` run, a quarter each; that mix's fourth
/// quarter, `/healthz`, goes to the older immutable days instead, half
/// metrics and half communities, since the latest day's cache
/// invalidation must leave them alone.
pub const READ_SHARES: [f64; 5] = [0.25, 0.25, 0.25, 0.125, 0.125];

/// What the read connection asks for.
#[derive(Debug, Clone, Copy)]
enum Read {
    Head,
    Days,
    Metrics(Day),
    Communities(Day),
}

struct ReadSession<'a> {
    q: &'a SnapshotQuery,
    shared: &'a Shared,
    rng: SmallRng,
    mix: Weighted,
    rate: f64,
    i: u64,
    /// The last publishable day; the reader stops once the head shows it
    /// after the writer is done.
    final_day: Day,
    deadline: Duration,
    start: Instant,
    kinds: Vec<Read>,
    /// `(response offset, published day)` of every `/v1/head` answer.
    heads: Vec<(Duration, i64)>,
    out: Outcome,
}

/// Stride grid days (`first`, `first + stride`, ...) up to `last`.
fn grid(first: Day, stride: Day, last: Day) -> Vec<Day> {
    (first..=last).step_by(stride as usize).collect()
}

impl Session for ReadSession<'_> {
    fn next_due(&mut self) -> Option<Duration> {
        let head = self.shared.head_day.load(Ordering::Relaxed);
        let caught_up =
            self.shared.writer_done.load(Ordering::Relaxed) && head >= self.final_day as i64;
        (!caught_up && self.start.elapsed() < self.deadline).then(|| due_at_rate(self.i, self.rate))
    }

    fn build(&mut self) -> (Vec<u8>, u64) {
        self.i += 1;
        self.out.attempted += 1;
        let head = self.shared.head_day.load(Ordering::Relaxed).max(0) as Day;
        let m = self.q.metric_days();
        let c = self.q.community_days();
        let metric_grid = grid(m[0], 7, head);
        let community_grid = if c[0] <= head {
            grid(c[0], 7, head)
        } else {
            Vec::new()
        };
        let pick = |g: &[Day], rng: &mut SmallRng| g[rng.gen_range(0..g.len())];
        let read = match self.mix.sample(&mut self.rng) {
            0 => Read::Head,
            1 => Read::Days,
            3 if metric_grid.len() >= 2 => {
                Read::Metrics(pick(&metric_grid[..metric_grid.len() - 1], &mut self.rng))
            }
            4 if community_grid.len() >= 2 => Read::Communities(pick(
                &community_grid[..community_grid.len() - 1],
                &mut self.rng,
            )),
            _ => match metric_grid.last() {
                Some(&d) => Read::Metrics(d),
                None => Read::Head,
            },
        };
        let path = match read {
            Read::Head => "/v1/head".to_string(),
            Read::Days => "/v1/days".to_string(),
            Read::Metrics(d) => format!("/v1/metrics/{d}"),
            Read::Communities(d) => format!("/v1/communities/{d}"),
        };
        self.kinds.push(read);
        (get_request(&path), self.kinds.len() as u64 - 1)
    }

    fn done(&mut self, c: Completed) {
        let body = String::from_utf8_lossy(&c.body);
        let ok = match self.kinds[c.tag as usize] {
            Read::Head => match json_int(&body, "day") {
                Some(day) => {
                    self.heads.push((c.done, day));
                    self.shared.head_day.fetch_max(day, Ordering::Relaxed);
                    true
                }
                None => false,
            },
            Read::Days => body.contains("\"metric_days\":["),
            Read::Metrics(d) => self
                .q
                .metrics_row_csv(d)
                .is_some_and(|r| r.as_bytes() == c.body),
            Read::Communities(d) => self
                .q
                .communities_row_csv(d)
                .is_some_and(|r| r.as_bytes() == c.body),
        };
        self.out.record(&c, ok);
    }

    fn failed(&mut self, _tag: u64, _due: Duration, kind: Failure) {
        self.out.record_failure(kind);
    }
}

/// Everything one write phase measured.
struct Phase {
    ack: Samples,
    lag_ms: Samples,
    /// Publish lag of the first and last quarter of days, for the trend.
    lag_quarters: (Samples, Samples),
    writes: Outcome,
    reads: Outcome,
    accepted: u64,
    duplicates: u64,
    before: Scrape,
    after: Scrape,
    queues: Queues,
    peak_rss_mb: f64,
    threads: u64,
}

fn write_phase(report: &mut Report, server: Server, inputs: &Inputs, sampled: bool) -> Phase {
    let Inputs {
        q,
        log,
        stream,
        seed,
        seconds,
    } = *inputs;
    let addr = server.addr;
    let (posts, max_day) = (&stream.posts, &stream.max_day);
    let batches = max_day.len();
    let final_day = log.end_day().saturating_sub(1);
    let shared = Shared {
        head_day: AtomicI64::new(-1),
        ..Shared::default()
    };
    let before = scrape(addr);
    let sampler = sampled.then(|| Sampler::start(addr));
    let start = Instant::now() + Duration::from_millis(20);

    let mut writer = WriteSession {
        posts,
        auth: format!("Bearer {TOKEN}"),
        i: 0,
        ack: Samples::new(),
        acked_at: vec![None; batches],
        accepted: 0,
        duplicates: 0,
        bad_acks: 0,
        out: Outcome::default(),
    };
    let mut reader = None;
    std::thread::scope(|s| {
        let w = s.spawn(|| {
            run_open_loop(&addr, start, &mut writer, MAX_IN_FLIGHT);
            shared.writer_done.store(true, Ordering::Relaxed);
        });
        let r = s.spawn(|| {
            // Reads start at the first publish: before it there is
            // nothing to serve.
            let mut probe = SimpleConn::new(addr);
            let deadline = Duration::from_secs(seconds) + CATCH_UP;
            while start.elapsed() < deadline {
                if let Ok((200, body)) = probe.get("/v1/head") {
                    if let Some(day) = json_int(&String::from_utf8_lossy(&body), "day") {
                        shared.head_day.fetch_max(day, Ordering::Relaxed);
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(probe);
            let read_start = Instant::now();
            let mut d = ReadSession {
                q,
                shared: &shared,
                rng: rng_from_seed(derive_seed(seed, 0)),
                mix: Weighted::new(&READ_SHARES),
                rate: READ_RATE,
                i: 0,
                final_day,
                deadline: deadline.saturating_sub(start.elapsed()),
                start: read_start,
                kinds: Vec::new(),
                heads: Vec::new(),
                out: Outcome::default(),
            };
            run_open_loop(&addr, read_start, &mut d, MAX_IN_FLIGHT);
            // Re-base head observations onto the writer's clock.
            let shift = read_start.saturating_duration_since(start);
            let heads: Vec<(Duration, i64)> =
                d.heads.iter().map(|&(t, day)| (t + shift, day)).collect();
            (d.out, heads)
        });
        w.join().expect("writer thread");
        reader = Some(r.join().expect("reader thread"));
    });
    let (reads, heads) = reader.expect("reader ran");
    let queues = sampler.map(Sampler::finish).unwrap_or_default();
    let after = scrape(addr);

    // Publish lag per day: the ack of the batch that makes the day final
    // (the first batch carrying a later day) to the first /v1/head
    // answer showing it published.
    let mut lag_ms = Samples::new();
    let (mut first_q, mut last_q) = (Samples::new(), Samples::new());
    let mut final_from = stream.first_day;
    let quarter = (final_day - stream.first_day) / 4;
    let mut missing = 0;
    for (b, &day) in max_day.iter().enumerate() {
        let Some(acked) = writer.acked_at[b] else {
            final_from = final_from.max(day);
            continue;
        };
        for d in final_from..day {
            match heads.iter().find(|&&(_, h)| h >= d as i64) {
                Some(&(seen, _)) => {
                    let lag = (seen.as_secs_f64() - acked.as_secs_f64()) * 1e3;
                    lag_ms.push(lag);
                    if d < stream.first_day + quarter {
                        first_q.push(lag);
                    } else if d >= final_day - quarter {
                        last_q.push(lag);
                    }
                }
                None => missing += 1,
            }
        }
        final_from = final_from.max(day);
    }
    report.check(
        "write.phase_answered",
        writer.out.ok > 0 && reads.ok > 0 && !lag_ms.is_empty(),
        format!(
            "{} writes and {} reads answered correctly, {} publish lags",
            writer.out.ok,
            reads.ok,
            lag_ms.len()
        ),
    );
    report.check(
        "write.every_day_published",
        missing == 0 && shared.head_day.load(Ordering::Relaxed) >= final_day as i64,
        format!("{missing} day(s) never seen published"),
    );

    // Final answers against the batch build over the generated log.
    let mut conn = SimpleConn::new(addr);
    let mut mismatched = 0;
    let mut checked = 0;
    let published = shared.head_day.load(Ordering::Relaxed).max(0) as Day;
    for d in q.metric_days().into_iter().filter(|&d| d <= published) {
        checked += 1;
        let ok = matches!(conn.get(&format!("/v1/metrics/{d}")),
            Ok((200, b)) if q.metrics_row_csv(d).is_some_and(|r| r.as_bytes() == b));
        mismatched += u64::from(!ok);
    }
    for d in q.community_days().into_iter().filter(|&d| d <= published) {
        checked += 1;
        let ok = matches!(conn.get(&format!("/v1/communities/{d}")),
            Ok((200, b)) if q.communities_row_csv(d).is_some_and(|r| r.as_bytes() == b));
        mismatched += u64::from(!ok);
    }
    drop(conn);
    report.check(
        "write.final_answers_match_batch_build",
        mismatched == 0 && checked > 0,
        format!("{mismatched} of {checked} day bodies differ"),
    );
    let resent = posts.iter().filter(|p| p.resend).count() as u64;
    report.check(
        "write.accepted_equals_wal_last_seq",
        writer.accepted == batches as u64
            && after.get("osn_wal_last_seq").copied() == Some(batches as f64),
        format!(
            "{} accepted, {} batches, osn_wal_last_seq {:?}",
            writer.accepted,
            batches,
            after.get("osn_wal_last_seq")
        ),
    );
    report.check(
        "write.duplicates_equal_resent_keys",
        writer.duplicates == resent
            && counters::delta(&before, &after, "osn_wal_duplicates") == resent as f64,
        format!(
            "{} duplicate acks for {resent} re-sent keys",
            writer.duplicates
        ),
    );
    report.check(
        "write.acks_well_formed",
        writer.bad_acks == 0,
        format!("{} unexpected acks", writer.bad_acks),
    );
    report.check(
        "write.read_bodies_match",
        reads.wrong == 0,
        format!("{} wrong of {}", reads.wrong, reads.ok + reads.wrong),
    );

    let peak_rss_mb = server.peak_rss_mb();
    let threads = server.threads();
    let trace_path = server.trace.clone();
    match server.stop() {
        Ok((code, err)) => report.check(
            "write.clean_drain_and_seal",
            code == 0 && err.contains("wal sealed:"),
            format!("exit {code}"),
        ),
        Err(e) => report.check("write.clean_drain_and_seal", false, e),
    }
    // The sealed trace is the generated log, event for event.
    let sealed = std::fs::read(&trace_path)
        .ok()
        .and_then(|b| osn_graph::io::read_log(&b[..]).ok());
    report.check(
        "write.sealed_trace_equals_generated_log",
        sealed.is_some_and(|l| l.fingerprint() == log.fingerprint()),
        trace_path.display(),
    );

    Phase {
        ack: writer.ack,
        lag_ms,
        lag_quarters: (first_q, last_q),
        writes: writer.out,
        reads,
        accepted: writer.accepted,
        duplicates: writer.duplicates,
        before,
        after,
        queues,
        peak_rss_mb,
        threads,
    }
}

fn start_write_server(osn: &Path, work: &Path, prefix: &[u8], i: usize) -> Result<Server, String> {
    let trace = work.join(format!("write-{i}.events"));
    std::fs::write(&trace, prefix).map_err(|e| format!("write {}: {e}", trace.display()))?;
    let args = vec![
        trace.display().to_string(),
        "--follow".into(),
        "--accept-writes".into(),
        "--token".into(),
        TOKEN.into(),
        "--telemetry".into(),
        work.join(format!("telemetry-w{i}.json"))
            .display()
            .to_string(),
    ];
    Server::start(osn, &args, "/readyz")
}

/// Time `Wal::append` directly on a scratch WAL over the prefix: the
/// same batch stream and fsync policy, repeated in fresh WALs until at
/// least 1,000 appends.
fn wal_append_layer(report: &mut Report, work: &Path, stream: &Stream) {
    let mut samples = Samples::new();
    let mut round = 0;
    while samples.len() < 1_000 {
        let trace = work.join(format!("scratch-{round}.events"));
        std::fs::write(&trace, &stream.prefix).expect("write the scratch trace");
        let (wal, _) = Wal::open(
            &trace,
            &work.join(format!("scratch-{round}.wal")),
            WalOptions::default(),
        )
        .expect("open scratch WAL");
        for p in &stream.posts {
            let events: Vec<WalEvent> = p
                .lines
                .lines()
                .map(|l| WalEvent::parse_line(l).expect("trace line"))
                .collect();
            let t = Instant::now();
            wal.append(Some(&p.key), &events).expect("scratch append");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let _ = wal.seal();
        round += 1;
    }
    if let Some(v) = samples.quantile(0.5) {
        report.metric("graph.wal_append_p50_us", v, samples.len());
    }
    if let Some(v) = samples.quantile(0.99) {
        report.metric("graph.wal_append_p99_us", v, samples.len());
    }
}

/// The ack stream splits into this many consecutive parts; `op_time_ms`
/// is the median of their mean ack latencies.
const ACK_PARTS: usize = 5;

/// Median over [`ACK_PARTS`] consecutive parts (in due order) of each
/// part's mean ack latency, in microseconds.
fn ack_time_us(acks: &[(Duration, f64)]) -> f64 {
    let mut acks = acks.to_vec();
    acks.sort_by_key(|(due, _)| *due);
    let part = acks.len().div_ceil(ACK_PARTS).max(1);
    let means: Vec<f64> = acks
        .chunks(part)
        .map(|c| c.iter().map(|(_, l)| l).sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

pub fn run(
    osn: &Path,
    work: &Path,
    log: &EventLog,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> ExitCode {
    let mut report = Report::new(traced);
    let bytes = crate::v2_bytes(log);
    let q = build_layers(&mut report, log, &bytes);
    let stream = stream(log, &bytes, seconds);
    report.figure("write.batches", stream.max_day.len() as f64, "count", 1);
    report.figure("write.posts", stream.posts.len() as f64, "count", 1);
    report.figure("write.compression", stream.factor, "x", 1);
    let inputs = Inputs {
        q: &q,
        log,
        stream: &stream,
        seed,
        seconds,
    };

    let (server, setup) = match start_servers(&mut report, SETUP_REPEATS, |i| {
        start_write_server(osn, work, &stream.prefix, i)
    }) {
        Ok(s) => s,
        Err(e) => {
            report.check("write.start", false, e);
            return report.finish();
        }
    };
    let mut phase = write_phase(&mut report, server, &inputs, false);
    let mut setup = setup;
    match start_servers(&mut report, SETUP_REPEATS, |i| {
        start_write_server(osn, work, &stream.prefix, SETUP_REPEATS + i)
    }) {
        Ok((server, more)) => {
            setup.extend(more);
            let stopped = server.stop().map(|(code, _)| code);
            report.check(
                "serve.setup_drain",
                stopped == Ok(0),
                format!("{stopped:?}"),
            );
        }
        Err(e) => report.check("write.start", false, e),
    }
    report.attempted = phase.writes.attempted + phase.reads.attempted;
    report.failed = phase.writes.failed() + phase.reads.failed();
    println!(
        "outcome writes: attempted {} accepted {} duplicates {} non-2xx {} timeouts {} transport {}",
        phase.writes.attempted,
        phase.accepted,
        phase.duplicates,
        phase.writes.non_2xx,
        phase.writes.timeouts,
        phase.writes.transport
    );
    println!(
        "outcome reads: attempted {} ok {} non-2xx {} timeouts {} transport {} wrong {}",
        phase.reads.attempted,
        phase.reads.ok,
        phase.reads.non_2xx,
        phase.reads.timeouts,
        phase.reads.transport,
        phase.reads.wrong
    );
    let ack_time = ack_time_us(&phase.writes.by_due);
    report.figure("setup_s", median(&setup), "s", setup.len());
    report.figure("peak_rss_mb", phase.peak_rss_mb, "MiB", 1);
    report.figure("ack_time_us", ack_time, "us", ACK_PARTS);
    report.quantile("ack_p50_us", &mut phase.ack, 0.5, "us");
    report.quantile("ack_p99_us", &mut phase.ack, 0.99, "us");
    let lag_p50 = report.quantile("publish_lag_p50_ms", &mut phase.lag_ms, 0.5, "ms");
    report.quantile("publish_lag_p90_ms", &mut phase.lag_ms, 0.9, "ms");
    report.quantile(
        "publish_lag_first_quarter_p50_ms",
        &mut phase.lag_quarters.0,
        0.5,
        "ms",
    );
    report.quantile(
        "publish_lag_last_quarter_p50_ms",
        &mut phase.lag_quarters.1,
        0.5,
        "ms",
    );
    report.quantile("mixed_read_p50_us", &mut phase.reads.latency, 0.5, "us");
    report.quantile("mixed_read_p99_us", &mut phase.reads.latency, 0.99, "us");

    if !traced {
        report.metric("setup_s", median(&setup), setup.len());
        report.metric("peak_rss_mb", phase.peak_rss_mb, 1);
        report.metric(
            "op_time_ms",
            lag_p50.unwrap_or(f64::NAN),
            phase.lag_ms.len(),
        );
        return report.finish();
    }

    // Traced: a second phase on a fresh server with the sampler running
    // gives the per-layer figures; its ack time against the first phase's
    // gives the sampler's cost.
    wal_append_layer(&mut report, work, &stream);
    let server = match start_write_server(osn, work, &stream.prefix, 2 * SETUP_REPEATS) {
        Ok(s) => s,
        Err(e) => {
            report.check("write.start", false, e);
            return report.finish();
        }
    };
    connect_probe(&mut report, server.addr);
    let mut sampled = write_phase(&mut report, server, &inputs, true);
    let d = |name: &str| counters::delta(&sampled.before, &sampled.after, name);
    report.metric("graph.wal_appends", d("osn_wal_appends"), 1);
    report.metric("graph.wal_fsyncs", d("osn_wal_fsyncs"), 1);
    if d("osn_wal_fsyncs") > 0.0 {
        report.metric(
            "graph.wal_batches_per_fsync",
            d("osn_wal_appends") / d("osn_wal_fsyncs"),
            1,
        );
    }
    report.metric("graph.wal_sync_queue_max", sampled.queues.wal_sync, 1);
    report.metric("core.head_publishes", d("osn_head_publishes"), 1);
    if let Some(mean) = counters::hist_mean(&sampled.before, &sampled.after, "osn_head_publish_ms")
    {
        report.metric(
            "core.head_publish_mean_ms",
            mean,
            d("osn_head_publish_ms_count") as usize,
        );
    }
    server_layers(
        &mut report,
        &mut sampled.reads,
        &sampled.before,
        &sampled.after,
        sampled.queues,
    );
    let mut late = Samples::new();
    late.extend(&sampled.writes.late);
    late.extend(&sampled.reads.late);
    if let Some(v) = late.quantile(0.99) {
        report.metric("loadgen.late_p99_us", v, late.len());
    }
    report.metric("server.threads", sampled.threads as f64, 1);
    let traced_ack = ack_time_us(&sampled.writes.by_due);
    report.metric(
        "trace.overhead_pct",
        (traced_ack - ack_time) / ack_time * 100.0,
        ACK_PARTS,
    );
    report.finish()
}
