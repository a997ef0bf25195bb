//! Order statistics over raw samples.

/// The `q` quantile (0..=1) by linear interpolation between closest
/// ranks; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the middle half of `samples` (the interquartile mean):
/// robust to outlying values like the median, but it moves smoothly
/// when the samples are bimodal, where the median jumps between modes.
pub fn iqm(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Per-chunk samples of the end-to-end metrics (one chunk is a grid or
/// a time window). A run reports the interquartile mean over its
/// chunks: the host's speed drifts by ±15% over seconds on a shared
/// machine, and this averages the drift without letting one disturbed
/// chunk through.
#[derive(Debug, Default)]
pub struct PerChunk {
    /// Completed cells per (steal-adjusted) second.
    pub rate: Vec<f64>,
    /// Completed requests per second.
    pub req_rate: Vec<f64>,
    pub hit_p50_us: Vec<f64>,
    pub hit_p99_us: Vec<f64>,
    pub miss_p50_ms: Vec<f64>,
    pub miss_p90_ms: Vec<f64>,
}

impl PerChunk {
    /// One chunk's hit latencies; chunks with too few to place a p99
    /// are skipped.
    pub fn add_hits(&mut self, us: &[f64]) {
        if us.len() >= 100 {
            self.hit_p50_us.push(median(us));
            self.hit_p99_us.push(quantile(us, 0.99));
        }
    }

    /// One chunk's miss latencies; chunks with too few to place a p90
    /// are skipped.
    pub fn add_misses(&mut self, ms: &[f64]) {
        if ms.len() >= 10 {
            self.miss_p50_ms.push(median(ms));
            self.miss_p90_ms.push(quantile(ms, 0.9));
        }
    }

    /// Where no chunk held enough misses for its own percentiles, takes
    /// them over all of the run's misses as one chunk.
    pub fn pool_misses_if_sparse(&mut self, all_ms: &[f64]) {
        if self.miss_p50_ms.is_empty() && !all_ms.is_empty() {
            self.miss_p50_ms.push(median(all_ms));
            self.miss_p90_ms.push(quantile(all_ms, 0.9));
        }
    }

    /// Sets the interquartile means over chunks; `samples` are the raw
    /// counts behind them (cells, requests, misses).
    pub fn emit(
        &self,
        out: &mut crate::report::Outcome,
        cells: usize,
        requests: usize,
        misses: usize,
    ) {
        out.set("cells_per_s", iqm(&self.rate), cells);
        out.set("req_per_s", iqm(&self.req_rate), requests);
        out.set("hit_p50_us", iqm(&self.hit_p50_us), requests);
        out.set("hit_p99_us", iqm(&self.hit_p99_us), requests);
        out.set("miss_p50_ms", iqm(&self.miss_p50_ms), misses);
        out.set("miss_p90_ms", iqm(&self.miss_p90_ms), misses);
    }
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqm_drops_the_outer_quarters() {
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 4.0, 100.0, -50.0, 2.5, 3.5]), 2.75);
        assert_eq!(iqm(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
