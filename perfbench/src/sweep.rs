//! `sweep-daily`: `read_log` over an in-memory v2 trace, then
//! `metric_series_supervised` at stride 1 with the default samplers and
//! workers, as `osn metrics --stride 1` runs it (telemetry off).
//!
//! The sweep runs in a child process (this binary with `--child-sweep`),
//! so its peak RSS and its telemetry registry are its own.

use osn_core::network::{
    metric_series_supervised, metric_series_supervised_with, MetricSeriesConfig,
};
use osn_graph::io::read_log;
use osn_graph::EventLog;
use osn_metrics::engine::EngineKind;
use osn_metrics::parallel::default_workers;
use osn_metrics::supervisor::RunPolicy;
use perfbench::counters::status_field;
use perfbench::kernels::timed_sweep;
use perfbench::report::Report;
use perfbench::stats::median;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Program sweeps of a traced run, each followed by a kernel-by-kernel
/// sweep; the overhead compares their medians.
const TRACED_PAIRS: usize = 2;

/// Ingests per batch; a run ingests one batch before the first sweep and
/// one after each sweep, and `setup_s` is the median of all of them, so
/// the figure spans the run rather than its first instant.
const INGEST_REPEATS: usize = 21;

fn counter(name: &str) -> u64 {
    osn_obs::counter(name).value()
}

/// Ingest `bytes` [`INGEST_REPEATS`] times, appending each ingest time to
/// `times`; returns the log.
fn ingest(bytes: &[u8], times: &mut Vec<f64>) -> EventLog {
    let mut log = None;
    for _ in 0..INGEST_REPEATS {
        let t = Instant::now();
        let l = read_log(bytes).expect("the generated trace is strict-clean");
        times.push(t.elapsed().as_secs_f64());
        log = Some(l);
    }
    log.expect("at least one ingest")
}

/// The child side: everything `sweep-daily` measures.
pub fn child(trace: &Path, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let bytes = std::fs::read(trace).expect("read the generated trace");
    let cfg = MetricSeriesConfig {
        stride: 1,
        seed,
        ..MetricSeriesConfig::default()
    };
    let mut report = Report::new(traced);
    if traced {
        osn_obs::set_enabled(true);
    }

    let chunks_before = counter("ingest.chunks_verified");
    let mut ingest_s = Vec::new();
    let log = ingest(&bytes, &mut ingest_s);
    let chunks = (counter("ingest.chunks_verified") - chunks_before) / INGEST_REPEATS as u64;
    let days = (cfg.first_day..=log.end_day()).count() as u64;
    report.figure("trace.nodes", log.num_nodes() as f64, "count", 1);
    report.figure("trace.edges", log.num_edges() as f64, "count", 1);
    report.figure("trace.days", (log.end_day() + 1) as f64, "count", 1);

    // The program's sweep, repeated until the run's time is used up; a
    // traced run alternates it with the kernel-by-kernel sweep.
    let started = Instant::now();
    let mut sweep_s = Vec::new();
    let mut timed_s = Vec::new();
    let mut timed = None;
    let mut engine_chunks = 0;
    let mut reference: Option<String> = None;
    let mut failures = 0;
    let mut identical = true;
    let more = |n: usize| match traced {
        true => n < TRACED_PAIRS,
        false => n == 0 || started.elapsed() < Duration::from_secs(seconds),
    };
    while more(sweep_s.len()) {
        let t = Instant::now();
        let (series, failed) = metric_series_supervised(&log, &cfg, &RunPolicy::default());
        sweep_s.push(t.elapsed().as_secs_f64());
        drop(ingest(&bytes, &mut ingest_s));
        failures += failed.len() as u64;
        let csv = series.to_table().to_csv();
        match &reference {
            None => reference = Some(csv),
            Some(r) => identical &= *r == csv,
        }
        if traced {
            let before = counter("engine.chunks");
            let (series, k) = timed_sweep(&log, &cfg);
            engine_chunks = counter("engine.chunks") - before;
            timed_s.push(k.wall.as_secs_f64());
            timed = Some((series, k));
        }
    }
    let series_csv = reference.expect("at least one sweep");
    report.attempted = days * sweep_s.len() as u64;
    report.failed = failures;
    report.check(
        "sweep.no_quarantined_days",
        failures == 0,
        format!("{failures} day(s) failed"),
    );
    report.check(
        "sweep.repeats_identical",
        identical,
        format!("{} sweep(s)", sweep_s.len()),
    );

    // Kernel by kernel: the same calls, timed; the rows must match.
    let (timed, k) = timed.unwrap_or_else(|| timed_sweep(&log, &cfg));
    report.check(
        "sweep.equals_kernel_rows",
        timed.to_table().to_csv() == series_csv,
        format!("{} day rows", k.days),
    );

    let untraced = median(&sweep_s);
    report.figure("sweep_s", untraced, "s", sweep_s.len());
    report.figure("setup_s", median(&ingest_s), "s", ingest_s.len());
    let peak = status_field(
        &std::fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM",
    )
    .unwrap_or(0) as f64
        / 1024.0;
    report.figure("peak_rss_mb", peak, "MiB", 1);

    if traced {
        // Once per traced run: the series against the batch oracle.
        let (batch, _) =
            metric_series_supervised_with(&log, &cfg, &RunPolicy::default(), EngineKind::Batch);
        report.check(
            "sweep.equals_batch_oracle",
            batch.to_table().to_csv() == series_csv,
            "EngineKind::Batch",
        );
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        report.metric("graph.ingest_ms", median(&ingest_s) * 1e3, ingest_s.len());
        report.metric("graph.ingest_chunks", chunks as f64, 1);
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
        let workers = if cfg.workers == 0 {
            default_workers()
        } else {
            cfg.workers
        };
        report.metric("metrics.workers", workers as f64, 1);
        report.metric("metrics.chunks", engine_chunks as f64, 1);
        report.metric("core.sweep_self_ms", ms(k.sweep_self), 1);
        report.figure("sweep.workers_with_days", k.workers as f64, "count", 1);
        report.check(
            "sweep.layers_add_up",
            (k.parts().as_secs_f64() - k.wall.as_secs_f64()).abs() <= k.wall.as_secs_f64() * 1e-3,
            format!(
                "replay + kernels + self {:.3} ms, kernel-by-kernel sweep {:.3} ms",
                ms(k.parts()),
                ms(k.wall)
            ),
        );
        let traced_s = median(&timed_s);
        report.figure("traced_sweep_s", traced_s, "s", timed_s.len());
        report.metric(
            "trace.overhead_pct",
            (traced_s - untraced) / untraced * 100.0,
            timed_s.len(),
        );
    } else {
        report.metric("setup_s", median(&ingest_s), ingest_s.len());
        report.metric("peak_rss_mb", peak, 1);
        report.metric("op_time_ms", untraced * 1e3, sweep_s.len());
    }
    report.finish()
}

/// The parent side: write the trace where the child can read it, run the
/// child with this process's output, and pass on its exit code.
pub fn run(work: &Path, trace_bytes: &[u8], seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let trace = work.join("sweep.events");
    std::fs::write(&trace, trace_bytes).expect("write the trace");
    let exe = std::env::current_exe().expect("own executable");
    let status = crate::procs::command(&exe)
        .arg("--child-sweep")
        .arg(&trace)
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .expect("run the sweep child");
    if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
