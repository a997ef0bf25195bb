//! Fixed log-bucket latency histograms with atomic buckets.
//!
//! One shared bucket layout for every latency family in the system: a
//! 1-2-5 decade ladder from 1 µs to 10 s (22 finite bounds) plus the
//! `+Inf` overflow bucket. A fixed layout keeps [`Histogram::observe`]
//! lock-free (a scan over 22 integer bounds and two `fetch_add`s), lets
//! snapshots from different processes be compared bucket-for-bucket,
//! and renders directly as a Prometheus `histogram` family
//! (`_bucket`/`_sum`/`_count`) — see `MetricsBuilder::histogram` in
//! `mcdla-serve`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The finite bucket upper bounds, in seconds: a 1-2-5 ladder per
/// decade from 1 µs through 10 s. Observations above 10 s land in the
/// implicit `+Inf` bucket.
pub(crate) const BUCKET_BOUNDS: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0,
];

/// The same bounds in integer nanoseconds: the hot-path comparison
/// avoids float conversion per observation.
const BOUNDS_NANOS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Total bucket count including `+Inf`.
pub const BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A fixed-layout latency histogram with atomic buckets: `observe` is
/// lock-free and wait-free apart from two relaxed `fetch_add`s, so one
/// histogram handle can be shared across every serve/gateway thread.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the array element by element.
        // The const is a repeat-element seed, not shared state.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; BUCKETS],
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation, in seconds. Negative and non-finite
    /// values clamp to zero (first bucket) — a histogram must never
    /// lose a count to a NaN.
    pub fn observe(&self, seconds: f64) {
        let nanos = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round().min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.observe_nanos(nanos);
    }

    /// Records one observation from a [`Duration`].
    pub fn observe_duration(&self, d: Duration) {
        self.observe_nanos(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    fn observe_nanos(&self, nanos: u64) {
        let idx = BOUNDS_NANOS
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent observers may
    /// land between the bucket reads and the count read, so the
    /// snapshot re-derives `count` from the buckets to stay internally
    /// consistent (`+Inf` cumulative == count, always).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_seconds: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// An immutable copy of a [`Histogram`]'s counters, with per-bucket
/// (non-cumulative) counts. [`HistogramSnapshot::cumulative`] yields
/// the Prometheus view.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; the last entry is the `+Inf` bucket.
    pub buckets: [u64; BUCKETS],
    /// Sum of all observations, in seconds.
    pub sum_seconds: f64,
}

impl HistogramSnapshot {
    /// Total observation count (the sum of every bucket).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The Prometheus view: `(upper_bound_seconds, cumulative_count)`
    /// per bucket in ascending `le` order, ending with
    /// `(f64::INFINITY, count)`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cum += c;
                let bound = BUCKET_BOUNDS.get(i).copied().unwrap_or(f64::INFINITY);
                (bound, cum)
            })
            .collect()
    }

    /// Estimates the `q`-quantile (0.0..=1.0) in seconds by linear
    /// interpolation inside the bucket holding the target rank; the
    /// `+Inf` bucket answers its lower bound (the largest finite
    /// bound). Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                cum += c;
                continue;
            }
            let before = cum;
            cum += c;
            if cum >= target {
                let upper = match BUCKET_BOUNDS.get(i) {
                    Some(&b) => b,
                    // +Inf bucket: answer the largest finite bound.
                    None => return BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1],
                };
                let lower = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
                let frac = (target - before) as f64 / c as f64;
                return lower + (upper - lower) * frac;
            }
        }
        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]
    }

    /// The observations recorded since `earlier` was taken: per-bucket
    /// saturating differences. Both snapshots must come from the same
    /// (monotonically growing) histogram; the sampler uses this to
    /// compute *windowed* quantiles between ticks instead of
    /// lifetime-cumulative ones.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *out = now.saturating_sub(*then);
        }
        HistogramSnapshot {
            buckets,
            sum_seconds: (self.sum_seconds - earlier.sum_seconds).max(0.0),
        }
    }

    /// The upper bound of the highest non-empty bucket, in seconds —
    /// a conservative estimate of the maximum observation. Returns 0.0
    /// for an empty histogram.
    #[cfg(test)]
    pub(crate) fn max_estimate(&self) -> f64 {
        for i in (0..BUCKETS).rev() {
            if self.buckets[i] > 0 {
                return BUCKET_BOUNDS
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_ascending_and_match_nanos() {
        for w in BUCKET_BOUNDS.windows(2) {
            assert!(w[0] < w[1], "bounds must ascend: {w:?}");
        }
        for (b, n) in BUCKET_BOUNDS.iter().zip(BOUNDS_NANOS) {
            let from_secs = (b * 1e9).round() as u64;
            assert_eq!(from_secs, n, "nanos table disagrees at {b}");
        }
    }

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::new();
        h.observe(0.5e-6); // <= 1µs
        h.observe(1e-6); // boundary: still the 1µs bucket
        h.observe(3e-6); // 5µs bucket
        h.observe(0.3); // 0.5s bucket
        h.observe(1e9); // +Inf
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[17], 1);
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_count() {
        let h = Histogram::new();
        for i in 0..1000 {
            h.observe(i as f64 * 1e-5);
        }
        let s = h.snapshot();
        let cum = s.cumulative();
        assert_eq!(cum.len(), BUCKETS);
        for w in cum.windows(2) {
            assert!(w[0].1 <= w[1].1, "cumulative counts must not decrease");
            assert!(w[0].0 < w[1].0, "le bounds must ascend");
        }
        let (last_bound, last_count) = cum[cum.len() - 1];
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, s.count());
    }

    #[test]
    fn degenerate_observations_never_lose_counts() {
        let h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets[0], 3);
    }

    #[test]
    fn quantiles_bracket_a_uniform_load() {
        let h = Histogram::new();
        // 100 observations spread 1ms..100ms.
        for i in 1..=100 {
            h.observe(i as f64 * 1e-3);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((0.02..=0.1).contains(&p50), "p50 ~50ms, got {p50}");
        assert!((0.05..=0.2).contains(&p99), "p99 ~99ms, got {p99}");
        assert!(p50 <= p99);
        assert!(s.max_estimate() >= 0.1);
        assert_eq!(s.quantile(0.0), s.quantile(1e-9));
    }

    #[test]
    fn delta_isolates_the_window() {
        let h = Histogram::new();
        h.observe(1e-3);
        h.observe(1e-3);
        let before = h.snapshot();
        h.observe(0.3);
        h.observe(0.3);
        h.observe(0.3);
        let after = h.snapshot();
        let window = after.delta(&before);
        assert_eq!(window.count(), 3);
        assert_eq!(window.buckets[17], 3, "all window observations ~0.3s");
        assert!((window.sum_seconds - 0.9).abs() < 1e-9);
        // The window quantile reflects only the new observations.
        assert!(window.quantile(0.5) > 0.1);
        // Empty window: identical snapshots.
        assert_eq!(after.delta(&after).count(), 0);
    }

    #[test]
    fn sum_tracks_observations() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_millis(10));
        h.observe_duration(Duration::from_millis(30));
        let s = h.snapshot();
        assert!((s.sum_seconds - 0.04).abs() < 1e-9);
    }
}
