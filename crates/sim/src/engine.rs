//! Serialized execution resources ("streams").
//!
//! A device-node in the iteration simulator owns several independent hardware
//! engines — the PE array (compute stream), the DMA unit (memory-overlaying
//! stream), and the link/protocol engine (communication stream). Each
//! processes work items one at a time, in submission order. [`FifoEngine`]
//! models such a resource and tracks its cumulative busy time, which is
//! exactly the quantity stacked in the paper's Figure 11 latency breakdown.

use crate::time::{SimDuration, SimTime};

/// A resource that executes submitted work items serially, in FIFO order.
///
/// # Examples
///
/// ```
/// use mcdla_sim::{FifoEngine, SimDuration, SimTime};
///
/// let mut dma = FifoEngine::new();
/// let a = dma.submit(SimTime::ZERO, SimDuration::from_us(10));
/// // Submitted while the engine is still busy: queued behind `a`.
/// let b = dma.submit(SimTime::from_us(2), SimDuration::from_us(5));
/// assert_eq!(a.end, SimTime::from_us(10));
/// assert_eq!(b.start, SimTime::from_us(10));
/// assert_eq!(b.end, SimTime::from_us(15));
/// assert_eq!(dma.busy_time(), SimDuration::from_us(15));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoEngine {
    free_at: SimTime,
    busy: SimDuration,
}

/// The scheduled execution window of one submitted work item.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Completion {
    /// When the engine actually began the item.
    pub start: SimTime,
    /// When the item finishes.
    pub end: SimTime,
}

impl FifoEngine {
    /// Creates an idle engine at time zero.
    #[inline]
    pub fn new() -> Self {
        FifoEngine::default()
    }

    /// Submits a work item of length `duration`, ready to start at `ready`.
    ///
    /// The item begins at `max(ready, previous item's end)` and the engine's
    /// busy-time accumulator grows by `duration`.
    #[inline]
    pub fn submit(&mut self, ready: SimTime, duration: SimDuration) -> Completion {
        let start = self.free_at.max(ready);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        Completion { start, end }
    }

    /// Instant at which the engine next becomes free.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent executing work items (the Figure 11 stack component).
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_overlapping_submissions() {
        let mut e = FifoEngine::new();
        let a = e.submit(SimTime::ZERO, SimDuration::from_ns(100));
        let b = e.submit(SimTime::from_ns(50), SimDuration::from_ns(100));
        let c = e.submit(SimTime::from_ns(250), SimDuration::from_ns(10));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::from_ns(100));
        assert_eq!(b.end, SimTime::from_ns(200));
        // Engine idle between 200 and 250.
        assert_eq!(c.start, SimTime::from_ns(250));
        assert_eq!(e.free_at(), SimTime::from_ns(260));
        assert_eq!(e.busy_time(), SimDuration::from_ns(210));
    }

    #[test]
    fn zero_duration_items_complete_instantly() {
        let mut e = FifoEngine::new();
        let c = e.submit(SimTime::from_ns(7), SimDuration::ZERO);
        assert_eq!(c.start, c.end);
    }
}
