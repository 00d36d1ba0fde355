//! Order statistics over timed samples.

/// Minimum, median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Summary {
    /// Summarises `values` (linear interpolation between order
    /// statistics). An empty sample summarises to zeros.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            min: quantile(&v, 0.0),
            p25: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            p75: quantile(&v, 0.75),
        }
    }
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}
