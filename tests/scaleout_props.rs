//! Property tests for the scale-out scenario axis: trends that must
//! hold for *any* device count now that `Scenario.devices` sweeps 4–256,
//! plus serde round-trips for scenarios with the new axes populated
//! (seeded in-repo RNG, the workspace's proptest idiom).

use mcdla::accel::DeviceGeneration;
use mcdla::core::{IterationSim, Scenario, SystemConfig, SystemDesign, BACKPLANE_DEVICES};
use mcdla::dnn::Benchmark;
use mcdla::interconnect::ScaleOutPlane;
use mcdla::parallel::ParallelStrategy;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::json;

const DEVICE_SWEEP: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

fn iteration_secs(design: SystemDesign, bm: Benchmark, devices: usize) -> f64 {
    let net = bm.build();
    IterationSim::new(
        SystemConfig::new(design).with_devices(devices),
        &net,
        ParallelStrategy::DataParallel,
    )
    .run()
    .iteration_time
    .as_secs_f64()
}

/// On the pooled fabric, adding devices never makes an iteration more
/// than marginally slower: per-device compute shrinks with the batch
/// share, and the switched plane keeps collective bandwidth flat, so
/// the only growth term is ring pipeline fill. The tolerance absorbs
/// that fill on sync-bound cells (ResNet at 256 devices); anything
/// beyond it would mean the fabric model lost its physical footing.
#[test]
fn scale_out_is_monotone_for_memory_centric_designs() {
    const TOLERANCE: f64 = 1.30;
    for design in [
        SystemDesign::McDlaStar,
        SystemDesign::McDlaLocal,
        SystemDesign::McDlaBwAware,
    ] {
        for bm in Benchmark::ALL {
            let mut prev: Option<f64> = None;
            for devices in DEVICE_SWEEP {
                let t = iteration_secs(design, bm, devices);
                if let Some(p) = prev {
                    assert!(
                        t <= p * TOLERANCE,
                        "{design}/{bm}: {devices} devices took {t:.4}s, \
                         more than {TOLERANCE}x the previous count's {p:.4}s"
                    );
                }
                prev = Some(t);
            }
        }
    }
}

/// End to end, scaling 4 -> 256 devices never *loses* ground for a
/// virtualizing design (timestep-serial RNNs flatten out — their
/// recurrence can't parallelize over the batch split — but stay within
/// a 10% band), and strictly wins on every CNN. (The oracle is exempt —
/// with zero virtualization cost, communication-bound workloads
/// genuinely regress once DC-DLA's rings leave the backplane for PCIe,
/// which is the cliff §VI's pooled plane exists to remove.)
#[test]
fn scale_out_trends_downward_end_to_end() {
    for design in SystemDesign::ALL {
        if !design.virtualizes() {
            continue;
        }
        for bm in Benchmark::ALL {
            let small = iteration_secs(design, bm, DEVICE_SWEEP[0]);
            let large = iteration_secs(design, bm, *DEVICE_SWEEP.last().unwrap());
            assert!(
                large <= small * 1.10,
                "{design}/{bm}: 256 devices ({large:.4}s) lost ground vs 4 ({small:.4}s)"
            );
            if Benchmark::CNNS.contains(&bm) {
                assert!(
                    large < small,
                    "{design}/{bm}: 256 devices ({large:.4}s) not faster than 4 ({small:.4}s)"
                );
            }
        }
    }
}

/// The host-routed designs pay a real cliff at the backplane boundary
/// on communication-bound workloads; the pooled fabric must not. This
/// pins the *shape* of the §VI argument, not just the endpoints.
#[test]
fn pooled_fabric_removes_the_backplane_cliff() {
    let bm = Benchmark::AlexNet; // tiny compute, all synchronization
    let at = |design, devices| iteration_secs(design, bm, devices);
    // Oracle (pure communication over the host path): crossing 8 -> 16
    // devices gets *slower* — the cliff exists.
    assert!(
        at(SystemDesign::DcDlaOracle, 2 * BACKPLANE_DEVICES)
            > at(SystemDesign::DcDlaOracle, BACKPLANE_DEVICES),
        "host-routed scale-out lost its PCIe cliff"
    );
    // MC-DLA(B) (pooled fabric): the same crossing keeps getting faster.
    assert!(
        at(SystemDesign::McDlaBwAware, 2 * BACKPLANE_DEVICES)
            < at(SystemDesign::McDlaBwAware, BACKPLANE_DEVICES),
        "the pooled fabric should scale through the backplane boundary"
    );
}

/// Bisection bandwidth is strictly monotone in node count (and linear
/// in links and link rate) for any plane shape.
#[test]
fn bisection_bandwidth_is_monotone_in_node_count() {
    let mut rng = StdRng::seed_from_u64(0x5ca1_ab1e);
    for _ in 0..64 {
        let links = rng.gen_range(1usize..=6);
        let bw = rng.gen_range(5.0f64..100.0);
        let mut prev = 0.0f64;
        for devices in [4usize, 8, 16, 32, 64, 128, 256] {
            let plane = ScaleOutPlane::new(devices, devices, links, bw);
            let bisection = plane.bisection_bandwidth_gbs();
            assert!(
                bisection > prev,
                "bisection not monotone: {devices} devices, {links} links, {bw} GB/s"
            );
            // And the collective share never exceeds the link rate.
            assert!(plane.collective_ring_share_gbs(links) <= bw + 1e-9);
            prev = bisection;
        }
    }
}

/// Scenarios with the scale-out axes populated survive the wire format:
/// serde round-trips preserve equality, digest, and label for random
/// (devices, generation, batch, overrides) combinations.
#[test]
fn scale_out_scenarios_round_trip_through_serde() {
    let designs = SystemDesign::ALL;
    let benchmarks = Benchmark::ALL;
    let strategies = ParallelStrategy::ALL;
    let generations = DeviceGeneration::ALL;
    let mut rng = StdRng::seed_from_u64(0xdead_beef);
    for case in 0..256 {
        let mut s = Scenario::new(
            designs[rng.gen_range(0..designs.len())],
            benchmarks[rng.gen_range(0..benchmarks.len())],
            strategies[rng.gen_range(0..strategies.len())],
        );
        // The new axis is always populated; the others join randomly.
        s = s.with_devices(DEVICE_SWEEP[rng.gen_range(0..DEVICE_SWEEP.len())]);
        if rng.gen_bool(0.7) {
            s = s.with_generation(generations[rng.gen_range(0..generations.len())]);
        }
        if rng.gen_bool(0.5) {
            s = s.with_batch(1 << rng.gen_range(8u32..14));
        }
        if rng.gen_bool(0.3) {
            s = s.with_pcie_gen4();
        }
        if rng.gen_bool(0.3) {
            s = s.with_compression(1.0 + rng.gen_f64() * 3.0);
        }
        let text = json::to_string(&s);
        let back: Scenario = json::from_str(&text).expect("round-trip parses");
        assert_eq!(s, back, "case {case}: round-trip changed the scenario");
        assert_eq!(s.digest(), back.digest(), "case {case}: digest drifted");
        assert_eq!(s.label(), back.label(), "case {case}: label drifted");
        // Valid combinations stay valid on the far side of the wire.
        assert_eq!(s.validate(), back.validate(), "case {case}");
    }
}

/// The generation knob reaches the scale-out plane: the plane is built
/// from the generation's device link specs, so it exists (and carries
/// bandwidth) for every generation at every scale-out device count.
#[test]
fn generations_parameterize_the_plane() {
    for generation in DeviceGeneration::ALL {
        let scenario = Scenario::new(
            SystemDesign::McDlaBwAware,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        )
        .with_devices(32)
        .with_generation(generation);
        let cfg = scenario.config();
        let plane = cfg.scale_out_plane().expect("scale-out plane");
        assert_eq!(plane.devices(), 32, "{generation}");
        assert_eq!(
            plane.link_bandwidth_gbs(),
            cfg.device.link_bandwidth_gbs,
            "{generation}: plane must be built from the generation's links"
        );
        assert!(plane.bisection_bandwidth_gbs() > 0.0, "{generation}");
    }
}
