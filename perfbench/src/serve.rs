//! `serve-read`: the `osn serve` read path. The daemon runs in its own
//! process with its CLI defaults over the workload trace; two keep-alive
//! connections offer a recency-skewed mix of every per-day metrics and
//! communities body plus `/v1/days`, `/v1/meta` and `/healthz`, open
//! loop. The whole working set fits the response cache.

use crate::client::{get_request, run_open_loop, Completed, Failure, Session, SimpleConn};
use crate::procs::Server;
use osn_core::communities::{track, CommunityAnalysisConfig};
use osn_core::network::MetricSeriesConfig;
use osn_core::query::{SnapshotQuery, SnapshotQueryBuilder};
use osn_graph::EventLog;
use osn_metrics::parallel::default_workers;
use osn_stats::rng_from_seed;
use osn_stats::sampling::derive_seed;
use perfbench::counters::{self, Scrape};
use perfbench::kernels::timed_sweep;
use perfbench::mix::Weighted;
use perfbench::report::Report;
use perfbench::sched::{
    backlog_grows, count_at_rate, due_at_rate, highest_passing, ladder, lateness,
};
use perfbench::stats::{median, Samples};
use rand::rngs::SmallRng;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Offered rate of the fixed-rate phase, well under capacity.
pub const FIXED_RATE: f64 = 10_000.0;
/// The fixed-rate phase runs as this many equal parts, each on fresh
/// connections; `op_time_ms` is the median of their mean latencies.
const FIXED_PARTS: u32 = 5;
/// Latency limit of the capacity ladder.
const LADDER_P99_US: f64 = 2_000.0;
/// Rungs of the capacity ladder: 5% apart.
const LADDER_STEP: f64 = 0.05;
const LADDER_TOP: f64 = 200_000.0;
/// Rungs skipped per step of the coarse downward search.
const LADDER_COARSE: usize = 5;
/// Lowest rung of the capacity ladder.
const LADDER_BOTTOM: f64 = 1_000.0;
const PROBE: Duration = Duration::from_millis(600);
/// The fixed-rate phase: [`FIXED_PARTS`] equal parts on fresh
/// connections. Returns every sample and each part's mean latency.
fn fixed_phase(
    addr: SocketAddr,
    q: &SnapshotQuery,
    mix: &(Vec<Target>, Weighted),
    phase: Duration,
    seed: u64,
) -> (Outcome, Vec<f64>) {
    let mut all = Outcome::default();
    let mut means = Vec::new();
    for part in 0..FIXED_PARTS {
        let out = read_phase(
            addr,
            q,
            mix,
            FIXED_RATE,
            phase / FIXED_PARTS,
            seed ^ u64::from(part) << 32,
        );
        means.push(out.latency.mean().unwrap_or(f64::NAN));
        all.merge(out);
    }
    (all, means)
}

/// Samples a probe needs for its p99 (ten beyond it).
const PROBE_SAMPLES: f64 = 1_100.0;
/// Pipelining depth per connection.
pub const MAX_IN_FLIGHT: usize = 256;

/// The analysis configuration `osn serve` uses with no flags.
pub fn serve_builder() -> SnapshotQueryBuilder {
    SnapshotQuery::builder()
        .metrics(MetricSeriesConfig {
            stride: 7,
            seed: 0,
            workers: 0,
            ..MetricSeriesConfig::default()
        })
        .communities(CommunityAnalysisConfig {
            stride: 7,
            delta: 0.04,
            min_size: 10,
            seed: 0,
            ..CommunityAnalysisConfig::default()
        })
}

/// What a 200 body must be.
#[derive(Debug, Clone)]
pub enum Expect {
    Bytes(Vec<u8>),
    /// `/v1/meta`: the query's `meta_json` for the version the server
    /// reports.
    Meta,
}

#[derive(Debug, Clone)]
pub struct Target {
    pub path: String,
    pub expect: Expect,
}

impl Target {
    pub fn matches(&self, q: &SnapshotQuery, body: &[u8]) -> bool {
        match &self.expect {
            Expect::Bytes(b) => b == body,
            Expect::Meta => {
                let text = String::from_utf8_lossy(body);
                let version = text
                    .split("\"version\":\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .unwrap_or("");
                q.meta_json(version).as_bytes() == body
            }
        }
    }
}

/// Share of the mix that goes to per-day bodies, split evenly between
/// metrics and communities days, as the repository's `bench_serve`
/// rotation splits them (one of each per snapshot day).
const DAY_SHARE: f64 = 0.90;
/// The index and probe endpoints share the rest; these three shares are
/// assumed, not measured: small because a client lists the days once and
/// then reads bodies, and a health probe is periodic.
const OTHER_SHARES: [(&str, f64); 3] = [("/v1/days", 0.04), ("/v1/meta", 0.03), ("/healthz", 0.03)];

/// Recency weights of `n` days, oldest first: the day of recency rank
/// `r` (0 for the newest) is read in proportion to 1/(1 + r), a
/// Zipf-like law of exponent 1. Web request popularity follows Zipf-like
/// laws (Breslau et al., "Web Caching and Zipf-like Distributions",
/// INFOCOM 1999); ranking by recency and the exponent are assumptions.
fn recency(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (n - i) as f64).collect()
}

/// The read mix: every metrics and communities day, recency skewed, and
/// the index and probe endpoints (see [`DAY_SHARE`], [`OTHER_SHARES`]).
pub fn read_mix(q: &SnapshotQuery) -> (Vec<Target>, Weighted) {
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for (share, days, render) in [
        (DAY_SHARE / 2.0, q.metric_days(), true),
        (DAY_SHARE / 2.0, q.community_days(), false),
    ] {
        let w = recency(days.len());
        let sum: f64 = w.iter().sum();
        for (day, w) in days.iter().zip(w) {
            let (path, body) = if render {
                (format!("/v1/metrics/{day}"), q.metrics_row_csv(*day))
            } else {
                (
                    format!("/v1/communities/{day}"),
                    q.communities_row_csv(*day),
                )
            };
            targets.push(Target {
                path,
                expect: Expect::Bytes(body.expect("listed day has a row").into_bytes()),
            });
            weights.push(share * w / sum);
        }
    }
    for (path, share) in OTHER_SHARES {
        let expect = match path {
            "/v1/days" => Expect::Bytes(q.days_json().into_bytes()),
            "/v1/meta" => Expect::Meta,
            _ => Expect::Bytes(b"ok\n".to_vec()),
        };
        targets.push(Target {
            path: path.to_string(),
            expect,
        });
        weights.push(share);
    }
    (targets, Weighted::new(&weights))
}

/// Client-side outcome of a phase on one or more connections.
#[derive(Debug, Default)]
pub struct Outcome {
    pub latency: Samples,
    /// Latencies in due order, for the backlog test.
    pub by_due: Vec<(Duration, f64)>,
    pub ttfb: Samples,
    pub transfer: Samples,
    pub late: Samples,
    pub ok: u64,
    pub attempted: u64,
    pub non_2xx: u64,
    pub timeouts: u64,
    pub transport: u64,
    pub wrong: u64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.non_2xx + self.timeouts + self.transport + self.wrong
    }

    pub fn merge(&mut self, o: Outcome) {
        self.latency.extend(&o.latency);
        self.by_due.extend(o.by_due);
        self.ttfb.extend(&o.ttfb);
        self.transfer.extend(&o.transfer);
        self.late.extend(&o.late);
        self.ok += o.ok;
        self.attempted += o.attempted;
        self.non_2xx += o.non_2xx;
        self.timeouts += o.timeouts;
        self.transport += o.transport;
        self.wrong += o.wrong;
    }

    /// Record one completion checked against `matches`.
    pub fn record(&mut self, c: &Completed, body_ok: bool) {
        let lat = c.latency_us();
        self.latency.push(lat);
        self.by_due.push((c.due, lat));
        self.ttfb
            .push(c.first_byte.saturating_sub(c.sent).as_secs_f64() * 1e6);
        self.transfer
            .push(c.done.saturating_sub(c.first_byte).as_secs_f64() * 1e6);
        self.late
            .push(lateness(c.due, c.queued).as_secs_f64() * 1e6);
        if !(200..300).contains(&c.status) {
            self.non_2xx += 1;
        } else if !body_ok {
            self.wrong += 1;
        } else {
            self.ok += 1;
        }
    }

    pub fn record_failure(&mut self, kind: Failure) {
        match kind {
            Failure::Timeout => self.timeouts += 1,
            Failure::Transport => self.transport += 1,
        }
    }

    /// Whether the latencies grew through the phase (a backlog).
    pub fn backlog(&mut self) -> bool {
        self.by_due.sort_by_key(|(d, _)| *d);
        let lat: Vec<f64> = self.by_due.iter().map(|(_, l)| *l).collect();
        backlog_grows(&lat, 500.0)
    }
}

/// Fixed-rate reads over the mix on one connection.
struct ReadSession<'a> {
    q: &'a SnapshotQuery,
    targets: &'a [Target],
    weights: &'a Weighted,
    rng: SmallRng,
    rate: f64,
    phase: Duration,
    count: u64,
    i: u64,
    out: Outcome,
}

impl Session for ReadSession<'_> {
    fn next_due(&mut self) -> Option<Duration> {
        (self.i < self.count).then(|| self.phase + due_at_rate(self.i, self.rate))
    }

    fn build(&mut self) -> (Vec<u8>, u64) {
        self.i += 1;
        self.out.attempted += 1;
        let t = self.weights.sample(&mut self.rng);
        (get_request(&self.targets[t].path), t as u64)
    }

    fn done(&mut self, c: Completed) {
        let ok = self.targets[c.tag as usize].matches(self.q, &c.body);
        self.out.record(&c, ok);
    }

    fn failed(&mut self, _tag: u64, _due: Duration, kind: Failure) {
        self.out.record_failure(kind);
    }
}

/// Offer `rate` req/s over two connections for `duration`.
pub fn read_phase(
    addr: SocketAddr,
    q: &SnapshotQuery,
    mix: &(Vec<Target>, Weighted),
    rate: f64,
    duration: Duration,
    seed: u64,
) -> Outcome {
    let per_conn = rate / 2.0;
    let count = count_at_rate(per_conn, duration);
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|conn| {
                s.spawn(move || {
                    let mut d = ReadSession {
                        q,
                        targets: &mix.0,
                        weights: &mix.1,
                        rng: rng_from_seed(derive_seed(seed, conn)),
                        rate: per_conn,
                        // Interleave the two connections' schedules.
                        phase: Duration::from_secs_f64(conn as f64 * 0.5 / per_conn),
                        count,
                        i: 0,
                        out: Outcome::default(),
                    };
                    run_open_loop(&addr, start, &mut d, MAX_IN_FLIGHT);
                    d.out
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("generator thread"));
        }
    });
    total
}

/// Deepest queues seen while a phase ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct Queues {
    pub work: f64,
    pub triage: f64,
    pub wal_sync: f64,
}

/// Polls `/metrics` every 10 ms on its own connection for the deepest
/// shard queues and WAL fsync queue.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Queues>,
}

impl Sampler {
    pub fn start(addr: SocketAddr) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut conn = SimpleConn::new(addr);
            let mut q = Queues::default();
            while !flag.load(Ordering::Relaxed) {
                if let Ok((200, body)) = conn.get("/metrics") {
                    let s = counters::parse_prometheus(&String::from_utf8_lossy(&body));
                    for (k, &v) in &s {
                        let slot = match k.as_str() {
                            "osn_wal_sync_queue" => &mut q.wal_sync,
                            k if k.starts_with("osn_http_queue_depth")
                                && k.contains("\"work\"") =>
                            {
                                &mut q.work
                            }
                            k if k.starts_with("osn_http_queue_depth")
                                && k.contains("\"triage\"") =>
                            {
                                &mut q.triage
                            }
                            _ => continue,
                        };
                        *slot = slot.max(v);
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            q
        });
        Sampler { stop, handle }
    }

    pub fn finish(self) -> Queues {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

pub fn scrape(addr: SocketAddr) -> Scrape {
    match SimpleConn::new(addr).get("/metrics") {
        Ok((200, body)) => counters::parse_prometheus(&String::from_utf8_lossy(&body)),
        _ => Scrape::new(),
    }
}

/// Start `repeats` servers in turn; all but the last are drained
/// again. Returns the last one and every start time.
pub fn start_servers(
    report: &mut Report,
    repeats: usize,
    mut start: impl FnMut(usize) -> Result<Server, String>,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    for i in 0..repeats {
        let server = start(i)?;
        times.push(server.ready_after.as_secs_f64());
        if i + 1 == repeats {
            return Ok((server, times));
        }
        let (code, _) = server.stop()?;
        report.check("serve.setup_drain", code == 0, format!("exit {code}"));
    }
    Err("no server started".into())
}

/// The build-side layers, timed from outside on the serve configuration:
/// ingest, query build, community tracking, and the kernels of the
/// stride-7 sweep the build runs. Returns the reference query.
pub fn build_layers(report: &mut Report, log: &EventLog, bytes: &[u8]) -> SnapshotQuery {
    let builder = serve_builder();
    if !report.traced() {
        return builder.build(log);
    }
    osn_obs::set_enabled(true);
    let chunks = osn_obs::counter("ingest.chunks_verified");
    let before = chunks.value();
    let t = Instant::now();
    let ingested = osn_graph::io::read_log(bytes).expect("strict-clean trace");
    report.metric("graph.ingest_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    report.metric("graph.ingest_chunks", (chunks.value() - before) as f64, 1);
    drop(ingested);

    let t = Instant::now();
    let q = builder.build(log);
    report.metric("core.query_build_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let t = Instant::now();
    let _ = track(log, &builder.config().communities);
    report.metric("community.track_ms", t.elapsed().as_secs_f64() * 1e3, 1);

    let engine_chunks = osn_obs::counter("engine.chunks");
    let before = engine_chunks.value();
    let cfg = builder.config().metrics;
    let (_, k) = timed_sweep(log, &cfg);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    report.metric("metrics.replay_ms", ms(k.replay), 1);
    report.metric("metrics.giant_ms", ms(k.giant), k.days as usize);
    report.metric("metrics.paths_ms", ms(k.paths), k.days as usize);
    report.metric("metrics.paths_sources", k.paths_sources as f64, 1);
    report.metric("metrics.clustering_ms", ms(k.clustering), k.days as usize);
    report.metric("metrics.clustering_nodes", k.clustering_nodes as f64, 1);
    report.metric(
        "metrics.assortativity_ms",
        ms(k.assortativity),
        k.days as usize,
    );
    report.metric("metrics.workers", default_workers() as f64, 1);
    report.metric("metrics.chunks", (engine_chunks.value() - before) as f64, 1);
    report.metric("core.sweep_self_ms", ms(k.sweep_self), 1);
    osn_obs::set_enabled(false);
    q
}

/// Client- and server-side per-layer figures of a read phase.
pub fn server_layers(
    report: &mut Report,
    out: &mut Outcome,
    before: &Scrape,
    after: &Scrape,
    queues: Queues,
) {
    if let Some(v) = out.ttfb.quantile(0.5) {
        report.metric("server.ttfb_p50_us", v, out.ttfb.len());
    }
    if let Some(v) = out.ttfb.quantile(0.99) {
        report.metric("server.ttfb_p99_us", v, out.ttfb.len());
    }
    if let Some(v) = out.transfer.quantile(0.5) {
        report.metric("server.transfer_p50_us", v, out.transfer.len());
    }
    let d = |name: &str| counters::delta(before, after, name);
    let hits = d("osn_http_cache_hits");
    let lookups = hits + d("osn_http_cache_misses");
    if lookups > 0.0 {
        report.metric("server.cache_hit_ratio", hits / lookups, lookups as usize);
    }
    let responses = d("osn_http_responses");
    if responses > 0.0 {
        report.metric(
            "server.shed_ratio",
            d("osn_http_shed") / responses,
            responses as usize,
        );
    }
    report.metric("server.work_depth_max", queues.work, 1);
    report.metric("server.triage_depth_max", queues.triage, 1);
    if let Some(mean) = counters::hist_mean(before, after, "osn_http_latency_us_metrics") {
        let n = d("osn_http_latency_us_metrics_count") as usize;
        report.metric("server.route_metrics_mean_us", mean, n);
    }
}

/// Sequential connects to the server, for `server.connect_p50_us`.
pub fn connect_probe(report: &mut Report, addr: SocketAddr) {
    let mut s = Samples::new();
    for _ in 0..100 {
        if let Ok((_, took)) = crate::client::connect(&addr) {
            s.push(took.as_secs_f64() * 1e6);
        }
    }
    if let Some(v) = s.quantile(0.5) {
        report.metric("server.connect_p50_us", v, s.len());
    }
}

/// Whether a ladder probe met the limit: nothing failed, p99 within the
/// limit, and no growing backlog.
fn probe_passes(out: &mut Outcome) -> bool {
    out.failed() == 0
        && out.attempted > 0
        && out
            .latency
            .quantile(0.99)
            .is_some_and(|p| p <= LADDER_P99_US)
        && !out.backlog()
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
    let trace = work.join("serve.events");
    std::fs::write(&trace, &bytes).expect("write the trace");
    let q = build_layers(&mut report, log, &bytes);
    let mix = read_mix(&q);

    let started = start_servers(&mut report, SETUP_REPEATS, |i| {
        let args = vec![
            trace.display().to_string(),
            "--telemetry".to_string(),
            work.join(format!("telemetry-{i}.json"))
                .display()
                .to_string(),
        ];
        Server::start(osn, &args, "/readyz")
    });
    let (server, setup) = match started {
        Ok(s) => s,
        Err(e) => {
            report.check("serve.start", false, e);
            return report.finish();
        }
    };
    let addr = server.addr;
    let phase = Duration::from_secs(seconds);

    // Fixed-rate phase: the latency figures at a rate well under capacity.
    let (mut fixed, part_means) = fixed_phase(addr, &q, &mix, phase, seed);
    report.attempted = fixed.attempted;
    report.failed = fixed.failed();
    report.check(
        "serve.every_part_answered",
        part_means.iter().all(|m| m.is_finite()) && fixed.ok > 0,
        format!(
            "{} of {} requests answered correctly",
            fixed.ok, fixed.attempted
        ),
    );
    report.check(
        "serve.bodies_match_query",
        fixed.wrong == 0,
        format!(
            "{} wrong of {} answered",
            fixed.wrong,
            fixed.ok + fixed.wrong
        ),
    );
    report.figure("setup_s", median(&setup), "s", setup.len());
    report.quantile("read_p50_us", &mut fixed.latency, 0.5, "us");
    report.quantile("read_p99_us", &mut fixed.latency, 0.99, "us");
    report.figure("read_mean_us", median(&part_means), "us", part_means.len());
    report.figure("read_offered_rps", FIXED_RATE, "1/s", 1);
    println!(
        "outcome fixed-rate: attempted {} ok {} non-2xx {} timeouts {} transport {} wrong {}",
        fixed.attempted, fixed.ok, fixed.non_2xx, fixed.timeouts, fixed.transport, fixed.wrong
    );

    if traced {
        // A second fixed-rate phase with the queue sampler running: the
        // per-layer figures, and the sampler's cost against the first.
        let before = scrape(addr);
        let sampler = Sampler::start(addr);
        let (mut traced_out, traced_means) = fixed_phase(addr, &q, &mix, phase, seed ^ 0x5eed);
        let queues = sampler.finish();
        let after = scrape(addr);
        report.check(
            "serve.every_part_answered_traced",
            traced_means.iter().all(|m| m.is_finite()) && traced_out.ok > 0,
            format!(
                "{} of {} requests answered correctly",
                traced_out.ok, traced_out.attempted
            ),
        );
        report.check(
            "serve.bodies_match_query_traced",
            traced_out.wrong == 0,
            format!("{} wrong", traced_out.wrong),
        );
        server_layers(&mut report, &mut traced_out, &before, &after, queues);
        if let Some(v) = traced_out.late.quantile(0.99) {
            report.metric("loadgen.late_p99_us", v, traced_out.late.len());
        }
        report.metric("server.threads", server.threads() as f64, 1);
        connect_probe(&mut report, addr);
        let (a, b) = (median(&part_means), median(&traced_means));
        report.metric(
            "trace.overhead_pct",
            (b - a) / a * 100.0,
            FIXED_PARTS as usize,
        );
    } else {
        // Capacity: the highest rung of a 5%-step ladder that meets the
        // limit, searched from the top.
        let rungs = ladder(LADDER_BOTTOM, LADDER_TOP, LADDER_STEP);
        let mut probes = 0;
        let best = highest_passing(rungs.len(), LADDER_COARSE, |i| {
            std::thread::sleep(Duration::from_millis(100));
            let probe = PROBE.max(Duration::from_secs_f64(PROBE_SAMPLES / rungs[i]));
            let mut out = read_phase(addr, &q, &mix, rungs[i], probe, seed ^ i as u64);
            probes += 1;
            report.check(
                "serve.bodies_match_query_ladder",
                out.wrong == 0,
                format!("{} wrong at {} req/s", out.wrong, rungs[i]),
            );
            probe_passes(&mut out)
        })
        .map(|i| rungs[i]);
        report.figure("read_max_rps", best.unwrap_or(0.0), "1/s", probes);

        report.metric("setup_s", median(&setup), setup.len());
        report.metric("peak_rss_mb", server.peak_rss_mb(), 1);
        report.metric("op_time_ms", median(&part_means) / 1e3, part_means.len());
    }
    report.figure("peak_rss_mb", server.peak_rss_mb(), "MiB", 1);

    match server.stop() {
        Ok((code, _)) => report.check("serve.clean_drain", code == 0, format!("exit {code}")),
        Err(e) => report.check("serve.clean_drain", false, e),
    }
    report.finish()
}
