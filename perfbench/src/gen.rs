//! Seeded input generation. Every input a workload hands to the program
//! is drawn here from the `--seed` argument, so the same seed always
//! yields the same cells, the same request order and the same probes.

use mcdla_accel::DeviceGeneration;
use mcdla_core::{FabricTopology, Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_parallel::ParallelStrategy;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn derive(seed: u64, tag: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn base_cell(rng: &mut Rng) -> Scenario {
    Scenario::new(
        rng.pick(&SystemDesign::ALL),
        rng.pick(&Benchmark::ALL),
        rng.pick(&ParallelStrategy::ALL),
    )
}

/// A data-parallel batch must cover the devices; raise it when it does not.
fn cover(cell: Scenario) -> Scenario {
    let devices = cell.devices.unwrap_or(mcdla_core::PAPER_DEFAULT_DEVICES) as u64;
    let batch = cell.batch.unwrap_or(mcdla_core::PAPER_DEFAULT_BATCH);
    if cell.strategy == ParallelStrategy::DataParallel && batch < devices {
        cell.with_batch(devices)
    } else {
        cell
    }
}

/// One analytical design-space cell: every design, benchmark and
/// strategy, 1-`max_devices` devices in powers of two, a batch of 64 to
/// 16384 in steps of 64, and half the time a device generation and an
/// activation-compression ratio (1.00-3.99). The knobs are fine-grained
/// so that fresh cells rarely coincide by chance.
pub fn analytical_cell(rng: &mut Rng, max_devices: usize) -> Scenario {
    let mut cell = base_cell(rng);
    let max_log = max_devices.max(1).ilog2() as usize;
    let devices = 1usize << rng.below(max_log + 1);
    if devices != mcdla_core::PAPER_DEFAULT_DEVICES {
        cell = cell.with_devices(devices);
    }
    cell = cell.with_batch(64 * (1 + rng.below(256)) as u64);
    if rng.chance(0.5) {
        cell = cell.with_generation(rng.pick(&DeviceGeneration::ALL));
    }
    if rng.chance(0.5) {
        cell = cell.with_compression(1.0 + rng.below(300) as f64 / 100.0);
    }
    cover(cell)
}

/// One flow-routed cell: a concrete topology at `devices` (16-64, any
/// count, so fabrics rarely repeat), with the generation and PCIe axes
/// multiplying the distinct fabrics further.
pub fn routed_cell(
    rng: &mut Rng,
    benchmark: Benchmark,
    strategy: ParallelStrategy,
    devices: usize,
) -> Scenario {
    let mut cell = Scenario::new(rng.pick(&SystemDesign::ALL), benchmark, strategy)
        .with_devices(devices)
        .with_topology(rng.pick(&FabricTopology::ALL));
    if rng.chance(0.5) {
        cell = cell.with_generation(rng.pick(&DeviceGeneration::ALL));
    }
    if rng.chance(0.2) {
        cell = cell.with_pcie_gen4();
    }
    if rng.chance(0.3) {
        cell = cell.with_batch(1u64 << (9 + rng.below(3)));
    }
    cover(cell)
}

/// A single-backplane routed Ring cell: the routed fabric must price it
/// like the analytical model.
pub fn anchor_cell(rng: &mut Rng) -> Scenario {
    base_cell(rng)
        .with_devices(rng.pick(&[2usize, 4, 8]))
        .with_topology(FabricTopology::Ring)
}

/// An endless seeded cell stream with a share of repeats: a repeat
/// is one of the last `window` cells again.
#[derive(Debug)]
pub struct CellStream {
    rng: Rng,
    kind: CellKind,
    repeat_share: f64,
    recent: Vec<Scenario>,
    window: usize,
    next_slot: usize,
    /// Fabric cells cycle through every (benchmark, strategy, device
    /// quarter) in a seeded order, so each run of 64 routed cells has the
    /// same mix: a routed cell's cost depends mostly on those three.
    block: Vec<(Benchmark, ParallelStrategy, usize)>,
}

/// Which generator a [`CellStream`] draws fresh cells from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// [`analytical_cell`] up to 4096 devices.
    Sweep,
    /// [`routed_cell`], with one in ten an [`anchor_cell`].
    Fabric,
}

impl CellStream {
    pub fn new(rng: Rng, kind: CellKind, repeat_share: f64, window: usize) -> CellStream {
        CellStream {
            rng,
            kind,
            repeat_share,
            recent: Vec::with_capacity(window),
            window: window.max(1),
            next_slot: 0,
            block: Vec::new(),
        }
    }

    /// The next cell and whether it repeats an earlier one.
    pub fn next_cell(&mut self) -> (Scenario, bool) {
        if !self.recent.is_empty() && self.rng.chance(self.repeat_share) {
            let i = self.rng.below(self.recent.len());
            return (self.recent[i], true);
        }
        let cell = match self.kind {
            CellKind::Sweep => analytical_cell(&mut self.rng, 4096),
            CellKind::Fabric if self.rng.chance(0.1) => anchor_cell(&mut self.rng),
            CellKind::Fabric => {
                if self.block.is_empty() {
                    self.block = Benchmark::ALL
                        .iter()
                        .flat_map(|&b| ParallelStrategy::ALL.map(|s| (b, s)))
                        .flat_map(|(b, s)| (0..4).map(move |q| (b, s, q)))
                        .collect();
                    for i in (1..self.block.len()).rev() {
                        let j = self.rng.below(i + 1);
                        self.block.swap(i, j);
                    }
                }
                let (benchmark, strategy, quarter) = self.block.pop().expect("refilled above");
                let devices =
                    16 + 12 * quarter + self.rng.below(if quarter == 3 { 13 } else { 12 });
                routed_cell(&mut self.rng, benchmark, strategy, devices)
            }
        };
        if self.recent.len() < self.window {
            self.recent.push(cell);
        } else {
            self.recent[self.next_slot] = cell;
            self.next_slot = (self.next_slot + 1) % self.window;
        }
        (cell, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_cells() {
        for kind in [CellKind::Sweep, CellKind::Fabric] {
            let take = |seed| {
                let mut s = CellStream::new(Rng::derive(seed, "t"), kind, 0.1, 64);
                (0..500).map(|_| s.next_cell()).collect::<Vec<_>>()
            };
            let (a, b, c) = (take(7), take(7), take(8));
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn generated_cells_are_valid() {
        let mut s = CellStream::new(Rng::new(3), CellKind::Sweep, 0.0, 1);
        let mut f = CellStream::new(Rng::new(3), CellKind::Fabric, 0.0, 1);
        for _ in 0..2000 {
            s.next_cell().0.validate().unwrap();
            f.next_cell().0.validate().unwrap();
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hits > 4_000, "{hits}");
    }
}
