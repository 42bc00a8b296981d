//! What a run prints: one human-readable line per figure (name, value,
//! unit, sample count), one line per correctness check, and as the last
//! line one JSON object with `correct`, `attempted`, `failed` and the
//! metrics of the run's mode.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_time_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload leaves idle reports zero.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("graph.ingest_ms", "ms"),
    ("graph.ingest_chunks", "count"),
    ("metrics.replay_ms", "ms"),
    ("metrics.giant_ms", "ms"),
    ("metrics.paths_ms", "ms"),
    ("metrics.paths_sources", "count"),
    ("metrics.clustering_ms", "ms"),
    ("metrics.clustering_nodes", "count"),
    ("metrics.assortativity_ms", "ms"),
    ("metrics.workers", "count"),
    ("metrics.chunks", "count"),
    ("core.sweep_self_ms", "ms"),
    ("core.query_build_ms", "ms"),
    ("community.track_ms", "ms"),
    ("server.connect_p50_us", "us"),
    ("server.ttfb_p50_us", "us"),
    ("server.ttfb_p99_us", "us"),
    ("server.transfer_p50_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.shed_ratio", "ratio"),
    ("server.work_depth_max", "count"),
    ("server.triage_depth_max", "count"),
    ("server.route_metrics_mean_us", "us"),
    ("server.threads", "count"),
    ("graph.wal_appends", "count"),
    ("graph.wal_fsyncs", "count"),
    ("graph.wal_batches_per_fsync", "ratio"),
    ("graph.wal_sync_queue_max", "count"),
    ("graph.wal_append_p50_us", "us"),
    ("graph.wal_append_p99_us", "us"),
    ("core.head_publishes", "count"),
    ("core.head_publish_mean_ms", "ms"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Default)]
pub struct Report {
    traced: bool,
    values: BTreeMap<&'static str, f64>,
    checks_failed: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            ..Report::default()
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Record a metric of the run's mode (a name from [`END_TO_END`] or
    /// [`PER_LAYER`]) and print it. A value that is not finite fails the
    /// run.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        println!("metric {name} = {value} {unit} (n={samples})");
        if !value.is_finite() {
            self.check(&format!("result.{name}"), false, "not a finite value");
            return;
        }
        self.values.insert(name, value);
    }

    /// Print a figure that is reported but not part of the JSON result
    /// (a workload's own named metrics).
    pub fn figure(&self, name: &str, value: f64, unit: &str, samples: usize) {
        println!("figure {name} = {value} {unit} (n={samples})");
    }

    /// Print the `q` quantile of `samples` under the ten-beyond rule, or
    /// note that it is omitted. Returns the value when reported.
    pub fn quantile(&self, name: &str, samples: &mut Samples, q: f64, unit: &str) -> Option<f64> {
        let v = samples.quantile(q);
        match v {
            Some(v) => self.figure(name, v, unit, samples.len()),
            None => println!(
                "figure {name} omitted (n={}: fewer than 10 samples beyond it)",
                samples.len()
            ),
        }
        v
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        println!(
            "check {name}: {} {detail}",
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.checks_failed.push(name.to_string());
        }
    }

    /// The JSON result line and whether the run is correct. Every
    /// end-to-end metric must have been measured; a per-layer metric of a
    /// layer the workload leaves idle reads 0.
    pub fn result(&mut self) -> (bool, String) {
        let declared: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let v = match self.values.get(name) {
                Some(v) => v.to_string(),
                None if self.traced => "0".to_string(),
                None => {
                    self.check(&format!("result.{name}"), false, "not measured");
                    "null".to_string()
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.checks_failed.is_empty() && self.attempted > 0;
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (correct, line)
    }

    /// Print the JSON result as the last line; exit non-zero when a
    /// check failed.
    pub fn finish(mut self) -> ExitCode {
        let (correct, line) = self.result();
        println!("{line}");
        if correct {
            ExitCode::SUCCESS
        } else {
            eprintln!("failed checks: {:?}", self.checks_failed);
            ExitCode::FAILURE
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
