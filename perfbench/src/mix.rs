//! Request mixes: sampling from fixed weights. The mixes draw from the
//! workspace's own seeded generator,
//! `osn_stats::rng_from_seed(derive_seed(seed, stream))`.

use rand::Rng;

/// Sampling from fixed weights by binary search over their running sum.
#[derive(Debug, Clone)]
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    /// `weights` must be non-empty with a positive sum.
    pub fn new(weights: &[f64]) -> Weighted {
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Weighted { cumulative }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty weights");
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}
