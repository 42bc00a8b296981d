//! The daily metric sweep, kernel by kernel, timed from outside.
//!
//! [`timed_sweep`] drives the engine's public `day_sweep` with a per-day
//! closure that makes the same calls, in the same order and with the same
//! per-day RNG streams, as the program's own sweep
//! (`osn_core::network::metric_series_supervised`), and times each call
//! into the `metrics` layer. Its rows must therefore equal the program's
//! series byte for byte; the benchmark checks that on every run.

use osn_core::network::{MetricSeries, MetricSeriesConfig};
use osn_graph::{Day, EventLog};
use osn_metrics::engine::{day_sweep, EngineConfig};
use osn_metrics::supervisor::{supervised_call, RunPolicy};
use osn_metrics::{average_clustering, avg_path_length_over_component, degree_assortativity};
use osn_stats::sampling::derive_seed;
use osn_stats::{rng_from_seed, Series};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Where a sweep's time went, per worker.
///
/// Each worker's time from the sweep's start to its return splits into
/// replay (outside the per-day closure: engine seeding and
/// `advance_through_day`), the four kernels, and self time (the rest of
/// the closure, and the wait after its last day until the sweep
/// returns). Every time figure is the sum over the workers that ran a
/// day divided by their number, so replay, the kernels and
/// [`KernelTimes::sweep_self`] add up to `wall` for any worker count.
#[derive(Debug, Default)]
pub struct KernelTimes {
    pub wall: Duration,
    /// Threads that ran at least one day.
    pub workers: u64,
    pub replay: Duration,
    pub giant: Duration,
    pub paths: Duration,
    pub clustering: Duration,
    pub assortativity: Duration,
    /// Orchestration: supervision, RNG set-up, average degree and row
    /// assembly inside the closure, plus each worker's wait after its
    /// last day (load imbalance, join, collection).
    pub sweep_self: Duration,
    pub paths_sources: u64,
    pub clustering_nodes: u64,
    pub days: u64,
}

impl KernelTimes {
    /// Replay, the kernels and self time: equal to `wall` up to rounding.
    pub fn parts(&self) -> Duration {
        self.replay
            + self.giant
            + self.paths
            + self.clustering
            + self.assortativity
            + self.sweep_self
    }
}

#[derive(Default)]
struct Acc {
    /// Per worker thread, when it last left the closure.
    last_exit: Mutex<HashMap<ThreadId, Instant>>,
    replay: AtomicU64,
    closure: AtomicU64,
    giant: AtomicU64,
    paths: AtomicU64,
    clustering: AtomicU64,
    assortativity: AtomicU64,
    paths_sources: AtomicU64,
    clustering_nodes: AtomicU64,
}

impl Acc {
    /// Entering the closure: the time since this worker last left it
    /// (or since the sweep started) was replay.
    fn enter(&self, start: Instant) -> Instant {
        let now = Instant::now();
        let exits = self.last_exit.lock().expect("not poisoned");
        let since = exits
            .get(&std::thread::current().id())
            .copied()
            .unwrap_or(start);
        drop(exits);
        add_span(&self.replay, now.saturating_duration_since(since));
        now
    }

    fn leave(&self, entered: Instant) {
        let now = Instant::now();
        add_span(&self.closure, now - entered);
        self.last_exit
            .lock()
            .expect("not poisoned")
            .insert(std::thread::current().id(), now);
    }
}

fn add_span(slot: &AtomicU64, d: Duration) {
    slot.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

fn add(slot: &AtomicU64, since: Instant) {
    add_span(slot, since.elapsed());
}

fn get(slot: &AtomicU64) -> Duration {
    Duration::from_nanos(slot.load(Ordering::Relaxed))
}

struct Row {
    day: Day,
    avg_degree: f64,
    path_length: Option<f64>,
    clustering: f64,
    assortativity: Option<f64>,
}

/// Run the sweep of `cfg` kernel by kernel. Returns the series (the same
/// shape the program returns) and the time spent in each kernel.
pub fn timed_sweep(log: &EventLog, cfg: &MetricSeriesConfig) -> (MetricSeries, KernelTimes) {
    let days: Vec<Day> = (cfg.first_day..=log.end_day())
        .step_by(cfg.stride as usize)
        .collect();
    let path_every = cfg.path_every.max(1);
    let scfg = RunPolicy::default().supervisor_config(1);
    let ecfg = EngineConfig::builder().workers(cfg.workers).build();
    let acc = Acc::default();
    let t0 = Instant::now();
    let rows = day_sweep(log, &days, &ecfg, |state, idx, day| {
        let entered = acc.enter(t0);
        let row = supervised_call(&format!("day-{day}"), &scfg, |_attempt| {
            let mut rng = rng_from_seed(derive_seed(cfg.seed, day as u64));
            let path_length = if idx % path_every == 0 {
                let t = Instant::now();
                let giant = state.giant_component();
                add(&acc.giant, t);
                if giant.len() >= 2 {
                    acc.paths_sources
                        .fetch_add(giant.len().min(cfg.path_sample) as u64, Ordering::Relaxed);
                }
                let t = Instant::now();
                let p = avg_path_length_over_component(
                    state.graph(),
                    &giant,
                    cfg.path_sample,
                    &mut rng,
                );
                add(&acc.paths, t);
                p
            } else {
                None
            };
            let g = state.graph();
            let avg_degree = g.average_degree();
            let t = Instant::now();
            let clustering = average_clustering(g, cfg.clustering_sample, &mut rng);
            add(&acc.clustering, t);
            acc.clustering_nodes.fetch_add(
                g.num_nodes().min(cfg.clustering_sample) as u64,
                Ordering::Relaxed,
            );
            let t = Instant::now();
            let assortativity = degree_assortativity(g);
            add(&acc.assortativity, t);
            Ok(Row {
                day,
                avg_degree,
                path_length,
                clustering,
                assortativity,
            })
        });
        acc.leave(entered);
        row
    });
    let end = Instant::now();
    let wall = end - t0;

    let mut series = MetricSeries {
        avg_degree: Series::new("avg_degree"),
        path_length: Series::new("avg_path_length"),
        clustering: Series::new("avg_clustering"),
        assortativity: Series::new("assortativity"),
    };
    for row in rows.into_iter().flatten() {
        let d = row.day as f64;
        series.avg_degree.push(d, row.avg_degree);
        if let Some(p) = row.path_length {
            series.path_length.push(d, p);
        }
        series.clustering.push(d, row.clustering);
        if let Some(a) = row.assortativity {
            series.assortativity.push(d, a);
        }
    }
    let exits = acc.last_exit.into_inner().expect("not poisoned");
    let workers = exits.len().max(1) as u32;
    let tail: Duration = exits.values().map(|&t| end - t).sum();
    let (giant, paths) = (get(&acc.giant), get(&acc.paths));
    let (clustering, assortativity) = (get(&acc.clustering), get(&acc.assortativity));
    let kernels = giant + paths + clustering + assortativity;
    let times = KernelTimes {
        wall,
        workers: u64::from(workers),
        replay: get(&acc.replay) / workers,
        giant: giant / workers,
        paths: paths / workers,
        clustering: clustering / workers,
        assortativity: assortativity / workers,
        sweep_self: (get(&acc.closure).saturating_sub(kernels) + tail) / workers,
        paths_sources: acc.paths_sources.load(Ordering::Relaxed),
        clustering_nodes: acc.clustering_nodes.load(Ordering::Relaxed),
        days: days.len() as u64,
    };
    (series, times)
}
