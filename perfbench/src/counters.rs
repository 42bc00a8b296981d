//! Counters the program already exports, read from outside: Prometheus
//! text from `GET /metrics` and `/proc/<pid>/status`.
//!
//! The `osn-obs` registry is process-global and counts from process
//! start, so every figure is a delta taken around the measured phase.

use std::collections::BTreeMap;

/// One scrape: series name (labels included, verbatim) → value.
pub type Scrape = BTreeMap<String, f64>;

/// Parse Prometheus text exposition. Comment lines are skipped; a sample
/// line is `name{labels} value`, split at its last space.
pub fn parse_prometheus(text: &str) -> Scrape {
    let mut out = Scrape::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.trim().parse::<f64>() {
                out.insert(name.trim().to_string(), v);
            }
        }
    }
    out
}

/// `after[name] - before[name]`; a series missing from a scrape counts
/// as zero (the registry creates series lazily on first record).
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Mean of a histogram over a phase from its `_sum`/`_count` deltas:
/// exact, unlike a quantile read off the log2 buckets. `None` when
/// nothing was recorded.
pub fn hist_mean(before: &Scrape, after: &Scrape, hist: &str) -> Option<f64> {
    let count = delta(before, after, &format!("{hist}_count"));
    (count > 0.0).then(|| delta(before, after, &format!("{hist}_sum")) / count)
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM`, `Threads`, ...),
/// with its unit suffix dropped (`VmHWM` is in KiB).
pub fn status_field(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == field).then(|| v.split_whitespace().next()?.parse().ok())?
    })
}

/// The integer value of `"key":N` in a flat JSON object; `None` when the
/// key is absent or not an integer (e.g. `null`).
pub fn json_int(body: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
