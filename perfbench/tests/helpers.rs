//! The benchmark's own measurement rules.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use osn_core::network::{metric_series_supervised, MetricSeriesConfig};
use osn_genstream::{TraceConfig, TraceGenerator};
use osn_metrics::supervisor::RunPolicy;
use osn_stats::rng_from_seed;
use osn_stats::sampling::derive_seed;
use perfbench::counters::{delta, hist_mean, json_int, parse_prometheus, status_field};
use perfbench::kernels::timed_sweep;
use perfbench::mix::Weighted;
use perfbench::report::Report;
use perfbench::sched::{
    backlog_grows, compress, count_at_rate, due_at_rate, highest_passing, ladder, lateness,
};
use perfbench::stats::{median, percentile, rank, Samples, MIN_BEYOND};
use std::time::Duration;

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank_from_raw_samples() {
    let v = ascending(1_000);
    assert_eq!(percentile(&v, 0.5), Some(500.0));
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(rank(1_000, 0.99), 990);
    assert_eq!(rank(3, 0.5), 2);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // p99 is reported from 1,000 samples on, never below.
    assert!(percentile(&ascending(1_000), 0.99).is_some());
    assert!(percentile(&ascending(999), 0.99).is_none());
    // p50 needs 20; p90 needs 100.
    assert!(percentile(&ascending(20), 0.5).is_some());
    assert!(percentile(&ascending(19), 0.5).is_none());
    assert!(percentile(&ascending(100), 0.9).is_some());
    assert!(percentile(&ascending(99), 0.9).is_none());
    assert!(percentile(&[], 0.5).is_none());
    for n in [20, 57, 100, 1_000, 4_321] {
        for q in [0.5, 0.9, 0.99] {
            if percentile(&ascending(n), q).is_some() {
                assert!(n - rank(n, q) >= MIN_BEYOND, "n={n} q={q}");
            }
        }
    }
}

#[test]
fn samples_sort_lazily_and_keep_their_count() {
    let mut s = Samples::new();
    for v in (0..200).rev() {
        s.push(v as f64);
    }
    assert_eq!(s.len(), 200);
    assert_eq!(s.quantile(0.5), Some(99.0));
    s.push(1e9);
    assert_eq!(s.len(), 201);
    assert_eq!(s.quantile(0.5), Some(100.0));
    assert_eq!(Samples::new().mean(), None);
}

#[test]
fn median_of_repeats_has_no_minimum_count() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn fixed_rate_schedule_is_evenly_spaced() {
    assert_eq!(due_at_rate(0, 1_000.0), Duration::ZERO);
    assert_eq!(due_at_rate(1_000, 1_000.0), Duration::from_secs(1));
    assert_eq!(due_at_rate(5, 10_000.0), Duration::from_micros(500));
    assert_eq!(count_at_rate(10_000.0, Duration::from_secs(10)), 100_000);
    assert_eq!(count_at_rate(2.5, Duration::from_secs(1)), 2);
}

#[test]
fn compressed_schedule_follows_the_timestamps() {
    let dues = compress(&[100, 100, 1_100, 86_500], 86_400.0);
    assert_eq!(dues[0], Duration::ZERO);
    assert_eq!(dues[1], Duration::ZERO);
    assert_eq!(dues[2], Duration::from_secs_f64(1_000.0 / 86_400.0));
    assert_eq!(dues[3], Duration::from_secs(1));
    assert!(dues.windows(2).all(|w| w[0] <= w[1]));
    assert!(compress(&[], 2.0).is_empty());
}

#[test]
fn lateness_is_send_minus_due_and_never_negative() {
    let due = Duration::from_millis(10);
    assert_eq!(
        lateness(due, Duration::from_millis(12)),
        Duration::from_millis(2)
    );
    assert_eq!(lateness(due, Duration::from_millis(9)), Duration::ZERO);
}

#[test]
fn backlog_shows_as_latency_growing_through_the_phase() {
    let flat: Vec<f64> = (0..300).map(|i| 100.0 + (i % 7) as f64).collect();
    assert!(!backlog_grows(&flat, 500.0));
    let growing: Vec<f64> = (0..300).map(|i| 100.0 + 50.0 * i as f64).collect();
    assert!(backlog_grows(&growing, 500.0));
    assert!(!backlog_grows(&[1.0, 1e9], 0.0));
}

#[test]
fn ladder_steps_stay_within_the_bound() {
    let rungs = ladder(1_000.0, 400_000.0, 0.05);
    assert_eq!(rungs[0], 1_000.0);
    assert!(*rungs.last().unwrap() <= 400_000.0);
    assert!(rungs.windows(2).all(|w| w[1] > w[0] && w[1] <= w[0] * 1.05));
    assert!(rungs.windows(2).all(|w| w[1] <= w[0] * 1.10));
}

#[test]
fn capacity_search_finds_the_top_of_the_passing_band() {
    // Monotone: everything up to rung 37 passes.
    assert_eq!(highest_passing(100, 5, |i| i <= 37), Some(37));
    // A band: low rates fail too (slower when idle), as do high ones.
    let mut probes = 0;
    let top = highest_passing(109, 5, |i| {
        probes += 1;
        (40..=61).contains(&i)
    });
    assert_eq!(top, Some(61));
    assert!(probes < 20, "{probes} probes");
    // The top rung passing needs one probe.
    assert_eq!(highest_passing(10, 3, |_| true), Some(9));
    assert_eq!(highest_passing(10, 3, |_| false), None);
    assert_eq!(highest_passing(0, 3, |_| true), None);
}

const SCRAPE_BEFORE: &str = "\
# TYPE osn_http_cache_hits counter
osn_http_cache_hits 10
# TYPE osn_http_queue_depth gauge
osn_http_queue_depth{shard=\"0\",queue=\"work\"} 1
osn_http_queue_depth{shard=\"1\",queue=\"work\"} 2
# TYPE osn_head_publish_ms histogram
osn_head_publish_ms_bucket{le=\"+Inf\"} 2
osn_head_publish_ms_sum 30
osn_head_publish_ms_count 2
";

const SCRAPE_AFTER: &str = "\
osn_http_cache_hits 110
osn_http_cache_misses 5
osn_head_publish_ms_sum 130
osn_head_publish_ms_count 6
";

#[test]
fn prometheus_text_parses_with_labels_verbatim() {
    let s = parse_prometheus(SCRAPE_BEFORE);
    assert_eq!(s.get("osn_http_cache_hits"), Some(&10.0));
    assert_eq!(
        s.get("osn_http_queue_depth{shard=\"1\",queue=\"work\"}"),
        Some(&2.0)
    );
    assert!(!s.keys().any(|k| k.starts_with('#')));
}

#[test]
fn counter_deltas_treat_missing_series_as_zero() {
    let (b, a) = (
        parse_prometheus(SCRAPE_BEFORE),
        parse_prometheus(SCRAPE_AFTER),
    );
    assert_eq!(delta(&b, &a, "osn_http_cache_hits"), 100.0);
    // Created lazily during the phase: counted from zero.
    assert_eq!(delta(&b, &a, "osn_http_cache_misses"), 5.0);
    assert_eq!(delta(&b, &a, "osn_not_there"), 0.0);
    // Histogram mean over the phase from its sum and count deltas.
    assert_eq!(hist_mean(&b, &a, "osn_head_publish_ms"), Some(25.0));
    assert_eq!(hist_mean(&b, &b, "osn_head_publish_ms"), None);
}

#[test]
fn proc_status_and_json_fields() {
    let status = "Name:\tosn\nVmHWM:\t   12345 kB\nThreads:\t6\n";
    assert_eq!(status_field(status, "VmHWM"), Some(12_345));
    assert_eq!(status_field(status, "Threads"), Some(6));
    assert_eq!(status_field(status, "VmRSS"), None);
    let head = "{\"follow\":true,\"published\":true,\"day\":412,\"lag_events\":0}";
    assert_eq!(json_int(head, "day"), Some(412));
    assert_eq!(json_int("{\"day\":null}", "day"), None);
    assert_eq!(json_int("{\"day\":-1}", "day"), Some(-1));
}

#[test]
fn weighted_choice_follows_its_weights() {
    let w = Weighted::new(&[1.0, 0.0, 3.0]);
    let mut rng = rng_from_seed(derive_seed(1, 0));
    let mut counts = [0u32; 3];
    for _ in 0..40_000 {
        counts[w.sample(&mut rng)] += 1;
    }
    assert_eq!(counts[1], 0);
    let share = counts[2] as f64 / 40_000.0;
    assert!((share - 0.75).abs() < 0.02, "share {share}");
}

/// With two workers the per-worker parts still add up to the sweep's
/// wall time, replay is charged, and the rows are the program's.
#[test]
fn kernel_sweep_parts_add_up_with_two_workers() {
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    let cfg = MetricSeriesConfig {
        stride: 1,
        seed: 3,
        workers: 2,
        ..MetricSeriesConfig::default()
    };
    let (series, k) = timed_sweep(&log, &cfg);
    let (program, failed) = metric_series_supervised(&log, &cfg, &RunPolicy::default());
    assert!(failed.is_empty());
    assert_eq!(series.to_table().to_csv(), program.to_table().to_csv());
    assert_eq!(k.workers, 2);
    assert!(k.replay > Duration::ZERO && k.clustering > Duration::ZERO);
    let (parts, wall) = (k.parts().as_secs_f64(), k.wall.as_secs_f64());
    assert!(
        (parts - wall).abs() <= wall * 1e-3,
        "parts {parts} wall {wall}"
    );
}

#[test]
fn unmeasured_or_non_finite_end_to_end_metrics_fail_the_run() {
    let mut r = Report::new(false);
    r.attempted = 10;
    r.metric("setup_s", 0.5, 5);
    r.metric("peak_rss_mb", 6.0, 1);
    r.metric("op_time_ms", f64::NAN, 5);
    let (correct, line) = r.result();
    assert!(!correct);
    assert!(line.contains("\"op_time_ms\": {\"value\": null"), "{line}");

    let mut r = Report::new(false);
    r.attempted = 10;
    r.metric("setup_s", 0.5, 5);
    r.metric("op_time_ms", 3.0, 5);
    assert!(!r.result().0, "peak_rss_mb was never measured");

    let mut r = Report::new(false);
    r.attempted = 10;
    r.metric("setup_s", 0.5, 5);
    r.metric("peak_rss_mb", 6.0, 1);
    r.metric("op_time_ms", 3.0, 5);
    assert!(r.result().0);

    // A traced run reports 0 for a layer the workload leaves idle.
    let mut r = Report::new(true);
    r.attempted = 1;
    let (correct, line) = r.result();
    assert!(correct);
    assert!(
        line.contains("\"graph.wal_fsyncs\": {\"value\": 0,"),
        "{line}"
    );
}
