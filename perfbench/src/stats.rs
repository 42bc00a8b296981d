//! Percentiles computed from raw samples.
//!
//! A percentile is the nearest-rank value of the sorted samples. It is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p99 needs 1,000 samples and a p50 needs 20; otherwise it is omitted.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The `q` quantile of `sorted` (ascending), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    (n - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// Median of repeated whole measurements (set-up repeats, whole sweeps):
/// the middle value, or the mean of the middle two. Unlike
/// [`percentile`] it has no minimum count; it summarises a handful of
/// repeats of one measurement, not a latency distribution.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency distribution: raw samples plus the percentiles the rule
/// allows.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q` quantile under the ten-beyond rule.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        self.sort();
        percentile(&self.values, q)
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.values.iter().sum::<f64>() / self.len() as f64)
    }
}
