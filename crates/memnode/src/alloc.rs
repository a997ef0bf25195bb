//! Page allocation and placement over `deviceremote` memory (Fig. 10).
//!
//! The device driver concatenates each half of the left and right
//! memory-nodes' physical memory above the devicelocal region in a single
//! device address space. `cudaMallocRemote` requests are placed by one of
//! two policies:
//!
//! * **LOCAL** — the whole allocation lands in a single memory-node's
//!   share, reachable at `(N/2) × B` GB/s;
//! * **BW_AWARE** — the allocation is split into two page-aligned halves
//!   interleaved round-robin across the left and right memory-nodes, so
//!   reads and writes proceed concurrently over all N links:
//!
//! ```text
//! Latency_LOCAL    = D / (N·B/2)
//! Latency_BW_AWARE = (D/2) / (N·B/2)   per side, concurrently = D / (N·B)
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

/// Which neighbor memory-node a page lives in.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The memory-node on the device's logical left in the ring.
    Left,
    /// The memory-node on the device's logical right in the ring.
    Right,
}

/// Page placement policy (Fig. 10).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PagePolicy {
    /// Entire allocation under a single memory-node — named after
    /// libNUMA's local zone policy (paper footnote 3).
    Local,
    /// Split in two page-aligned halves, round-robin across both
    /// memory-nodes, unlocking all N links.
    #[default]
    BwAware,
}

impl fmt::Display for PagePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagePolicy::Local => f.write_str("LOCAL"),
            PagePolicy::BwAware => f.write_str("BW_AWARE"),
        }
    }
}

/// One allocated remote region: which pages live on which side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteAllocation {
    bytes: u64,
    page_bytes: u64,
    /// Page-index placement, in virtual page order.
    placement: Vec<Side>,
}

impl RemoteAllocation {
    /// Requested size in bytes.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Page placements in virtual-address order.
    #[cfg(test)]
    pub(crate) fn placement(&self) -> &[Side] {
        &self.placement
    }

    /// Bytes resident on `side`.
    pub fn bytes_on(&self, side: Side) -> u64 {
        let full_pages = self.placement.iter().filter(|s| **s == side).count() as u64;
        let mut bytes = 0u64;
        let mut remaining = self.bytes;
        for s in &self.placement {
            let page = remaining.min(self.page_bytes);
            if *s == side {
                bytes += page;
            }
            remaining -= page;
        }
        debug_assert!(full_pages * self.page_bytes >= bytes);
        bytes
    }
}

/// Errors from the remote allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free capacity in the requested placement.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes free under the chosen policy.
        available: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of deviceremote memory: requested {requested} bytes, {available} free"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// The driver-side allocator managing one device's two half-memory-node
/// shares (Fig. 8(a): "available resources to the D1 device driver").
///
/// # Examples
///
/// ```
/// use mcdla_memnode::{PagePolicy, RemoteAllocator, Side};
///
/// // 640 GB per half (half of a 1.28 TB LRDIMM node), 2 MiB pages.
/// let mut alloc = RemoteAllocator::new(640_000_000_000, 640_000_000_000, 2 << 20);
/// let a = alloc.malloc_remote(64 << 20, PagePolicy::BwAware).unwrap();
/// // BW_AWARE interleaves pages evenly across both sides.
/// assert_eq!(a.bytes_on(Side::Left), a.bytes_on(Side::Right));
/// ```
#[derive(Debug, Clone)]
pub struct RemoteAllocator {
    page_bytes: u64,
    free: [u64; 2], // [left, right]
}

impl RemoteAllocator {
    /// Creates an allocator over `left_bytes` + `right_bytes` of remote
    /// capacity with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn new(left_bytes: u64, right_bytes: u64, page_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be non-zero");
        RemoteAllocator {
            page_bytes,
            free: [left_bytes, right_bytes],
        }
    }

    /// Total free bytes across both sides.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.free[0] + self.free[1]
    }

    /// `cudaMallocRemote`: places `bytes` under `policy` (Table I).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the placement does not fit —
    /// LOCAL requires the whole size on one side, BW_AWARE half on each.
    pub fn malloc_remote(
        &mut self,
        bytes: u64,
        policy: PagePolicy,
    ) -> Result<RemoteAllocation, AllocError> {
        let pages = bytes.div_ceil(self.page_bytes).max(1);
        let placement: Vec<Side> = match policy {
            PagePolicy::Local => {
                // Prefer the side with more free space (the driver's choice
                // is not specified by the paper; any single side satisfies
                // the policy).
                let side = if self.free[0] >= self.free[1] {
                    Side::Left
                } else {
                    Side::Right
                };
                let need = pages * self.page_bytes;
                if self.free[side as usize] < need {
                    return Err(AllocError::OutOfMemory {
                        requested: bytes,
                        available: self.free[side as usize],
                    });
                }
                vec![side; pages as usize]
            }
            PagePolicy::BwAware => {
                // Round-robin page interleave: even pages left, odd right.
                let left_pages = pages.div_ceil(2);
                let right_pages = pages / 2;
                if self.free[0] < left_pages * self.page_bytes
                    || self.free[1] < right_pages * self.page_bytes
                {
                    return Err(AllocError::OutOfMemory {
                        requested: bytes,
                        available: self.free_bytes(),
                    });
                }
                (0..pages)
                    .map(|p| if p % 2 == 0 { Side::Left } else { Side::Right })
                    .collect()
            }
        };
        for side in &placement {
            self.free[*side as usize] -= self.page_bytes;
        }
        Ok(RemoteAllocation {
            bytes,
            page_bytes: self.page_bytes,
            placement,
        })
    }

    /// Effective transfer bandwidth for an allocation under `policy` given
    /// per-side link bandwidth `side_bandwidth_gbs` (= `N·B/2`), per the
    /// Fig. 10 latency equations.
    pub fn effective_bandwidth_gbs(policy: PagePolicy, side_bandwidth_gbs: f64) -> f64 {
        match policy {
            PagePolicy::Local => side_bandwidth_gbs,
            PagePolicy::BwAware => 2.0 * side_bandwidth_gbs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 2 << 20;

    fn alloc() -> RemoteAllocator {
        RemoteAllocator::new(64 * PAGE, 64 * PAGE, PAGE)
    }

    #[test]
    fn local_places_on_one_side() {
        let mut a = alloc();
        let r = a.malloc_remote(10 * PAGE, PagePolicy::Local).unwrap();
        let left = r.bytes_on(Side::Left);
        let right = r.bytes_on(Side::Right);
        assert!(left == 0 || right == 0, "LOCAL must not straddle sides");
        assert_eq!(left + right, 10 * PAGE);
    }

    #[test]
    fn bw_aware_interleaves_evenly() {
        let mut a = alloc();
        let r = a.malloc_remote(10 * PAGE, PagePolicy::BwAware).unwrap();
        assert_eq!(r.bytes_on(Side::Left), 5 * PAGE);
        assert_eq!(r.bytes_on(Side::Right), 5 * PAGE);
        // Round-robin order.
        assert_eq!(r.placement()[0], Side::Left);
        assert_eq!(r.placement()[1], Side::Right);
    }

    #[test]
    fn odd_page_counts_round_toward_left() {
        let mut a = alloc();
        let r = a.malloc_remote(3 * PAGE, PagePolicy::BwAware).unwrap();
        assert_eq!(r.placement().len(), 3);
        assert_eq!(r.bytes_on(Side::Left), 2 * PAGE);
        assert_eq!(r.bytes_on(Side::Right), PAGE);
    }

    #[test]
    fn sub_page_allocations_consume_one_page() {
        let mut a = alloc();
        let before = a.free_bytes();
        let r = a.malloc_remote(100, PagePolicy::Local).unwrap();
        assert_eq!(a.free_bytes(), before - PAGE);
        assert_eq!(r.bytes(), 100);
        assert_eq!(r.bytes_on(Side::Left) + r.bytes_on(Side::Right), 100);
    }

    #[test]
    fn local_fails_when_no_side_fits_even_if_total_would() {
        let mut a = RemoteAllocator::new(4 * PAGE, 4 * PAGE, PAGE);
        // 6 pages fit in total but not on one side.
        let err = a.malloc_remote(6 * PAGE, PagePolicy::Local).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        // BW_AWARE fits: 3 pages per side.
        assert!(a.malloc_remote(6 * PAGE, PagePolicy::BwAware).is_ok());
    }

    #[test]
    fn fig10_bandwidth_equations() {
        // N = 6 links, B = 25 GB/s: per-side N·B/2 = 75 GB/s.
        let side = 75.0;
        assert_eq!(
            RemoteAllocator::effective_bandwidth_gbs(PagePolicy::Local, side),
            75.0
        );
        assert_eq!(
            RemoteAllocator::effective_bandwidth_gbs(PagePolicy::BwAware, side),
            150.0
        );
    }

    #[test]
    fn exhausting_capacity_reports_out_of_memory() {
        let mut a = RemoteAllocator::new(2 * PAGE, 2 * PAGE, PAGE);
        a.malloc_remote(4 * PAGE, PagePolicy::BwAware).unwrap();
        let err = a.malloc_remote(PAGE, PagePolicy::BwAware).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }
}
