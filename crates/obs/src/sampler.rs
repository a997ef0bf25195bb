//! The background telemetry sampler: one thread, one closure, one
//! tick per `MCDLA_SAMPLE_MS`.
//!
//! The sampler owns no metrics itself — each server wires a `FnMut`
//! collector that snapshots its counters, computes windowed deltas,
//! and records into a [`crate::History`]. Keeping the closure on the
//! server side means the obs crate stays dependency-free and the
//! sampler stays generic across tiers (worker and gateway sample
//! different series sets through the same machinery).
//!
//! Shutdown is prompt: [`Sampler::stop`] (and `Drop`) signals a
//! condvar, so tearing a server down never waits out a full sample
//! interval.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampler cadence, in milliseconds.
pub(crate) const DEFAULT_SAMPLE_MS: u64 = 1000;

/// Reads `MCDLA_SAMPLE_MS` for the sampler cadence: unset or
/// unparsable → 1000 ms; `0` → `None` (sampling disabled).
pub fn sample_ms_from_env() -> Option<u64> {
    sample_ms_from(std::env::var("MCDLA_SAMPLE_MS").ok().as_deref())
}

/// Resolves a cadence from an `MCDLA_SAMPLE_MS`-style value (kept
/// separate from the environment read so tests never mutate
/// process-global state).
fn sample_ms_from(env_value: Option<&str>) -> Option<u64> {
    match env_value.map(|v| v.trim().parse::<u64>()) {
        Some(Ok(0)) => None,
        Some(Ok(n)) => Some(n),
        _ => Some(DEFAULT_SAMPLE_MS),
    }
}

/// The current wall clock as unix milliseconds (0 before the epoch).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Resident set size of this process in bytes, read from
/// `/proc/self/statm` (Linux). `None` where /proc is unavailable —
/// callers should then report 0 rather than omit the series.
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    // Page size is a boot-time constant; 4 KiB everywhere we run, and
    // an RSS gauge tolerates being off by a fixed factor on exotica.
    Some(resident_pages * 4096)
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A background sampling thread driving a tick closure at a fixed
/// cadence until stopped (see module docs).
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    interval_ms: u64,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("interval_ms", &self.interval_ms)
            .field("running", &self.thread.is_some())
            .finish()
    }
}

impl Sampler {
    /// Spawns the sampler thread. `tick` runs once immediately (so a
    /// just-bound server has a first sample) and then once per
    /// `interval_ms` until [`Sampler::stop`] or drop.
    pub fn spawn(interval_ms: u64, mut tick: impl FnMut() + Send + 'static) -> Sampler {
        let interval_ms = interval_ms.max(1);
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("mcdla-sampler".into())
            .spawn(move || {
                let interval = Duration::from_millis(interval_ms);
                loop {
                    tick();
                    let guard = thread_shared.stop.lock().expect("sampler flag poisoned");
                    let (guard, _timeout) = thread_shared
                        .wake
                        .wait_timeout_while(guard, interval, |stop| !*stop)
                        .expect("sampler flag poisoned");
                    if *guard {
                        return;
                    }
                }
            })
            .expect("spawning sampler thread");
        Sampler {
            shared,
            thread: Some(thread),
            interval_ms,
        }
    }

    /// Signals the thread and joins it. Idempotent via `Drop`.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            *self.shared.stop.lock().expect("sampler flag poisoned") = true;
            self.shared.wake.notify_all();
            let _ = thread.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn ticks_at_least_once_and_stops_promptly() {
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        let sampler = Sampler::spawn(10, move || {
            t.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ticks.load(Ordering::Relaxed) >= 3, "sampler never ticked");
        // A long interval must not delay shutdown.
        let slow = Sampler::spawn(60_000, || {});
        let start = std::time::Instant::now();
        slow.stop();
        assert!(start.elapsed() < Duration::from_secs(5));
        sampler.stop();
    }

    #[test]
    fn rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = rss_bytes().expect("/proc/self/statm readable");
            assert!(rss > 0);
        }
    }

    #[test]
    fn env_cadence_parses_with_default_and_disable() {
        assert_eq!(sample_ms_from(None), Some(DEFAULT_SAMPLE_MS));
        assert_eq!(sample_ms_from(Some("250")), Some(250));
        assert_eq!(sample_ms_from(Some(" 250 ")), Some(250));
        assert_eq!(sample_ms_from(Some("0")), None);
        assert_eq!(sample_ms_from(Some("junk")), Some(DEFAULT_SAMPLE_MS));
    }
}
