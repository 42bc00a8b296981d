//! Golden Figure 1(c)–(f) series: the daily metric CSV of the `tiny`
//! trace, committed byte for byte, must come out of both snapshot
//! engines unchanged. One config samples nothing but paths (clustering
//! exact on every day); the other sets the clustering sample below the
//! node count, so the sampled clustering branch runs on the later days.
//!
//! A kernel change that moves any float, or any draw of a per-day RNG
//! stream, fails here.

use multiscale_osn::core::network::{metric_series_supervised_with, MetricSeriesConfig};
use multiscale_osn::genstream::{TraceConfig, TraceGenerator};
use multiscale_osn::metrics::supervisor::RunPolicy;
use multiscale_osn::metrics::EngineKind;

fn assert_golden(cfg: &MetricSeriesConfig, golden: &str) {
    let log = TraceGenerator::new(TraceConfig::tiny()).generate();
    for engine in [EngineKind::Batch, EngineKind::Incremental] {
        let (series, failures) =
            metric_series_supervised_with(&log, cfg, &RunPolicy::default(), engine);
        assert!(
            failures.is_empty(),
            "{engine}: {} failed days",
            failures.len()
        );
        let csv = series.to_table().to_csv();
        if let Some((line, (got, want))) = csv
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
        {
            panic!(
                "{engine}: line {} differs\n got: {got}\nwant: {want}",
                line + 1
            );
        }
        assert_eq!(csv, golden, "{engine}: CSV differs in length");
    }
}

#[test]
fn default_config_matches_golden_csv() {
    let cfg = MetricSeriesConfig {
        stride: 1,
        ..MetricSeriesConfig::default()
    };
    assert_golden(&cfg, include_str!("golden/tiny_stride1_default.csv"));
}

#[test]
fn sampled_clustering_matches_golden_csv() {
    let cfg = MetricSeriesConfig {
        stride: 1,
        clustering_sample: 100,
        ..MetricSeriesConfig::default()
    };
    assert_golden(&cfg, include_str!("golden/tiny_stride1_sampled.csv"));
}
