//! The flight recorder: a bounded ring buffer of the last N completed
//! request traces.
//!
//! Each server instance owns one recorder (worker and gateway keep
//! separate recorders even when co-resident in one process, so
//! `/debug/trace/<id>` answers per tier). One mutex guards the ring:
//! a record takes its sequence number and joins the back under the
//! lock, and the front is evicted past capacity, so the recorder keeps
//! exactly the `capacity` newest sequence numbers, in order.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::span::TraceRecord;

/// A bounded ring buffer of completed [`TraceRecord`]s (see module
/// docs). Shared across handler threads behind `&self`.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Retained records, oldest first. Never empty once written, so
    /// the newest record's sequence number numbers the next one.
    ring: Mutex<VecDeque<Arc<TraceRecord>>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` traces (`capacity` is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Admits a completed trace, assigning its recorder sequence
    /// number, and returns the shared record.
    pub fn record(&self, mut rec: TraceRecord) -> Arc<TraceRecord> {
        let mut ring = self.ring.lock().expect("recorder lock poisoned");
        rec.seq = ring.back().map_or(0, |last| last.seq + 1);
        let rec = Arc::new(rec);
        ring.push_back(Arc::clone(&rec));
        if ring.len() > self.capacity {
            ring.pop_front();
        }
        rec
    }

    /// Finds the most recent trace with the given request id.
    pub fn lookup(&self, id: &str) -> Option<Arc<TraceRecord>> {
        let ring = self.ring.lock().expect("recorder lock poisoned");
        ring.iter().rev().find(|r| r.id == id).cloned()
    }

    /// Every retained trace, newest first.
    pub fn recent(&self) -> Vec<Arc<TraceRecord>> {
        let ring = self.ring.lock().expect("recorder lock poisoned");
        ring.iter().rev().cloned().collect()
    }

    /// The configured retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("recorder lock poisoned").len()
    }

    /// Whether the recorder holds no traces yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, endpoint: &str, total_us: u64) -> TraceRecord {
        TraceRecord {
            id: id.to_string(),
            endpoint: endpoint.to_string(),
            status: 200,
            started_unix_ms: 0,
            total_us,
            spans: Vec::new(),
            seq: 0,
        }
    }

    #[test]
    fn holds_exactly_the_last_capacity_traces() {
        let r = FlightRecorder::new(16);
        for i in 0..100 {
            r.record(rec(&format!("id-{i}"), "simulate", i));
        }
        assert_eq!(r.len(), 16);
        let recent = r.recent();
        assert_eq!(recent.len(), 16);
        // Newest first, and exactly the last 16 sequence numbers.
        let seqs: Vec<u64> = recent.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (84..100).rev().collect::<Vec<u64>>());
    }

    #[test]
    fn lookup_answers_the_latest_record_for_an_id() {
        let r = FlightRecorder::new(64);
        r.record(rec("dup", "simulate", 10));
        r.record(rec("other", "grid", 20));
        r.record(rec("dup", "grid", 30));
        let hit = r.lookup("dup").expect("dup is retained");
        assert_eq!(hit.endpoint, "grid");
        assert_eq!(hit.total_us, 30);
        assert!(r.lookup("missing").is_none());
    }

    #[test]
    fn tiny_capacities_survive() {
        let r = FlightRecorder::new(1);
        r.record(rec("a", "x", 1));
        r.record(rec("b", "x", 2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.recent()[0].id, "b");
        assert_eq!(FlightRecorder::new(0).capacity(), 1);
    }

    #[test]
    fn concurrent_recording_keeps_the_bound() {
        let r = std::sync::Arc::new(FlightRecorder::new(128));
        std::thread::scope(|s| {
            for t in 0..8 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..200 {
                        r.record(rec(&format!("t{t}-{i}"), "simulate", i));
                    }
                });
            }
        });
        assert_eq!(r.len(), 128);
    }

    /// The observability contract under contention: with writers racing
    /// at capacity, eviction must keep exactly the newest `capacity`
    /// sequence numbers — a dashboard reading `recent()` after a burst
    /// sees the burst's tail, never a random survivor set.
    #[test]
    fn concurrent_eviction_keeps_exactly_the_newest_n() {
        const CAP: usize = 64;
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let r = std::sync::Arc::new(FlightRecorder::new(CAP));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        r.record(rec(&format!("t{t}-{i}"), "simulate", i));
                    }
                });
            }
        });
        let total = THREADS * PER_THREAD;
        let mut seqs: Vec<u64> = r.recent().iter().map(|t| t.seq).collect();
        // `recent()` is already newest first and strictly ordered…
        let mut sorted = seqs.clone();
        sorted.sort_by_key(|&s| std::cmp::Reverse(s));
        assert_eq!(seqs, sorted, "recent() must be newest-first");
        // …and holds exactly the top `CAP` sequence numbers.
        seqs.sort_unstable();
        let expect: Vec<u64> = (total - CAP as u64..total).collect();
        assert_eq!(seqs, expect, "eviction must keep the newest {CAP}");
    }

    /// Records are admitted whole (one Arc swap under the stripe lock):
    /// a reader scanning during a write burst must never observe a
    /// half-written record. Encode a checksum across fields and verify
    /// every observed record while writers run.
    #[test]
    fn readers_never_observe_torn_records() {
        let r = std::sync::Arc::new(FlightRecorder::new(32));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let total_us = t * 10_000 + i;
                        // id mirrors total_us: a torn record breaks the pairing.
                        r.record(rec(&format!("us-{total_us}"), "simulate", total_us));
                    }
                });
            }
            for _ in 0..2 {
                let r = std::sync::Arc::clone(&r);
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for t in r.recent() {
                            assert_eq!(
                                t.id,
                                format!("us-{}", t.total_us),
                                "record fields must be mutually consistent"
                            );
                            assert_eq!(t.endpoint, "simulate");
                        }
                    }
                });
            }
            // Writers finish first (scope ordering is manual here).
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(r.len(), 32);
    }
}
