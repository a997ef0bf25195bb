//! Retained time-series telemetry: fixed-capacity per-series rings.
//!
//! A [`History`] holds one ring of sample timestamps plus one parallel
//! ring of `f64` values per named series, all bounded by the same
//! capacity (`MCDLA_HISTORY_CAP`, default 600 samples — ten minutes at
//! the default 1 s cadence). The series set is fixed at construction:
//! every tick appends exactly one value per series, so the rings stay
//! aligned and a reader can zip any series against the shared
//! timestamp column. Writers (the sampler thread) and readers (the
//! `/metrics/history` handler) share one mutex; at a 1 Hz sample rate
//! contention is unmeasurable.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default number of retained samples per series.
pub(crate) const DEFAULT_HISTORY_CAP: usize = 600;

/// Reads `MCDLA_HISTORY_CAP` for the per-series retention: unset,
/// zero, or unparsable → 600 samples.
pub fn history_cap_from_env() -> usize {
    std::env::var("MCDLA_HISTORY_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_HISTORY_CAP)
}

/// A point-in-time copy of a [`History`]: the shared timestamp column
/// plus the selected series, aligned index-for-index.
#[derive(Debug, Clone)]
pub struct HistoryDump {
    /// Sample timestamps, unix milliseconds, oldest first.
    pub timestamps_ms: Vec<u64>,
    /// `(name, values)` per selected series; every `values` vector has
    /// the same length as `timestamps_ms`.
    pub series: Vec<(String, Vec<f64>)>,
    /// The configured retention bound (samples per series).
    pub capacity: usize,
    /// The sampler cadence that feeds this history, in milliseconds.
    pub interval_ms: u64,
}

struct Inner {
    timestamps_ms: VecDeque<u64>,
    values: Vec<VecDeque<f64>>,
}

/// Bounded, named time-series rings (see module docs). Shared between
/// the sampler thread and HTTP readers behind `&self`.
pub struct History {
    names: Vec<String>,
    capacity: usize,
    interval_ms: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for History {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("History")
            .field("names", &self.names.len())
            .field("capacity", &self.capacity)
            .field("interval_ms", &self.interval_ms)
            .field("len", &self.len())
            .finish()
    }
}

impl History {
    /// A history retaining `capacity` samples (clamped to at least 1)
    /// for the given fixed series set. `interval_ms` is advertised in
    /// dumps so readers can convert sample counts to wall time.
    pub fn new(names: Vec<String>, capacity: usize, interval_ms: u64) -> History {
        let capacity = capacity.max(1);
        let values = names.iter().map(|_| VecDeque::new()).collect();
        History {
            names,
            capacity,
            interval_ms,
            inner: Mutex::new(Inner {
                timestamps_ms: VecDeque::new(),
                values,
            }),
        }
    }

    /// The fixed series names, in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of samples currently retained.
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("history poisoned")
            .timestamps_ms
            .len()
    }

    /// Appends one sample: a timestamp plus one value per series.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the registered series
    /// count — that is a wiring bug, not a runtime condition.
    pub fn record(&self, timestamp_ms: u64, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.names.len(),
            "history sample arity must match the registered series"
        );
        let mut inner = self.inner.lock().expect("history poisoned");
        inner.timestamps_ms.push_back(timestamp_ms);
        if inner.timestamps_ms.len() > self.capacity {
            inner.timestamps_ms.pop_front();
        }
        for (ring, &v) in inner.values.iter_mut().zip(values) {
            ring.push_back(v);
            if ring.len() > self.capacity {
                ring.pop_front();
            }
        }
    }

    /// Copies out the retained samples, oldest first. `filter` selects
    /// series by exact name (`None` = all, unknown names are ignored);
    /// `last` keeps only the newest N samples.
    pub fn dump(&self, filter: Option<&[&str]>, last: Option<usize>) -> HistoryDump {
        let inner = self.inner.lock().expect("history poisoned");
        let len = inner.timestamps_ms.len();
        let keep = last.unwrap_or(len).min(len);
        let skip = len - keep;
        let timestamps_ms: Vec<u64> = inner.timestamps_ms.iter().skip(skip).copied().collect();
        let series = self
            .names
            .iter()
            .zip(&inner.values)
            .filter(|(name, _)| filter.is_none_or(|f| f.contains(&name.as_str())))
            .map(|(name, ring)| (name.clone(), ring.iter().skip(skip).copied().collect()))
            .collect();
        HistoryDump {
            timestamps_ms,
            series,
            capacity: self.capacity,
            interval_ms: self.interval_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> History {
        History::new(vec!["a".into(), "b".into()], 4, 1000)
    }

    #[test]
    fn rings_stay_aligned_and_bounded() {
        let h = history();
        for i in 0..10u64 {
            h.record(i * 1000, &[i as f64, -(i as f64)]);
        }
        assert_eq!(h.len(), 4);
        let d = h.dump(None, None);
        assert_eq!(d.timestamps_ms, vec![6000, 7000, 8000, 9000]);
        assert_eq!(d.series.len(), 2);
        assert_eq!(d.series[0].1, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(d.series[1].1, vec![-6.0, -7.0, -8.0, -9.0]);
        assert_eq!(d.capacity, 4);
        assert_eq!(d.interval_ms, 1000);
    }

    #[test]
    fn dump_filters_series_and_truncates_to_last() {
        let h = history();
        for i in 0..3u64 {
            h.record(i, &[i as f64, 0.0]);
        }
        let d = h.dump(Some(&["b", "nope"]), Some(2));
        assert_eq!(d.timestamps_ms, vec![1, 2]);
        assert_eq!(d.series.len(), 1);
        assert_eq!(d.series[0].0, "b");
        assert_eq!(d.series[0].1, vec![0.0, 0.0]);
        // `last` larger than retention answers everything.
        assert_eq!(h.dump(None, Some(99)).timestamps_ms.len(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_is_a_wiring_bug() {
        history().record(0, &[1.0]);
    }

    #[test]
    fn env_cap_parses_with_default() {
        // Serialized via the single-threaded test: only this test reads
        // the variable.
        std::env::remove_var("MCDLA_HISTORY_CAP");
        assert_eq!(history_cap_from_env(), DEFAULT_HISTORY_CAP);
        std::env::set_var("MCDLA_HISTORY_CAP", "42");
        assert_eq!(history_cap_from_env(), 42);
        std::env::set_var("MCDLA_HISTORY_CAP", "0");
        assert_eq!(history_cap_from_env(), DEFAULT_HISTORY_CAP);
        std::env::remove_var("MCDLA_HISTORY_CAP");
    }
}
