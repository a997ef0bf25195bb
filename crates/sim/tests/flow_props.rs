//! Property-based tests for the fluid-flow network invariants, driven by
//! seeded random topologies (the vendored `rand` replaces `proptest`,
//! which the offline build environment cannot fetch; every case is
//! deterministic per seed, so failures reproduce exactly).

use mcdla_sim::{Bandwidth, Bytes, FlowNetwork, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 128;

/// A small random network topology plus a batch of flows over it:
/// channel capacities in GB/s and `(path as channel indexes, bytes)`.
fn network_and_flows(seed: u64) -> (Vec<f64>, Vec<(Vec<usize>, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_ch = rng.gen_range(1..6usize);
    let caps: Vec<f64> = (0..n_ch).map(|_| rng.gen_range(0.5f64..100.0)).collect();
    let n_flows = rng.gen_range(1..12usize);
    let flows: Vec<(Vec<usize>, u64)> = (0..n_flows)
        .map(|_| {
            let path_len = rng.gen_range(1..=n_ch.min(3));
            let path: Vec<usize> = (0..path_len).map(|_| rng.gen_range(0..n_ch)).collect();
            (path, rng.gen_range(1u64..50_000_000_000))
        })
        .collect();
    (caps, flows)
}

#[test]
fn channel_capacity_never_exceeded() {
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let mut net = FlowNetwork::new();
        let chs: Vec<_> = caps
            .iter()
            .map(|c| net.add_channel(Bandwidth::gb_per_sec(*c)))
            .collect();
        let mut ids = Vec::new();
        for (path, bytes) in &flows {
            let p: Vec<_> = path.iter().map(|i| chs[*i]).collect();
            ids.push(
                net.open_flow(SimTime::ZERO, &p, Bytes::new(*bytes))
                    .unwrap(),
            );
        }
        // Sum of allocated rates through each channel <= capacity (+eps).
        let mut through = vec![0.0f64; caps.len()];
        for (id, (path, _)) in ids.iter().zip(&flows) {
            let rate = net.flow_rate(*id).unwrap().as_gb_per_sec();
            assert!(rate >= 0.0, "seed {seed}: negative rate");
            for i in path {
                through[*i] += rate;
            }
        }
        for (used, cap) in through.iter().zip(&caps) {
            assert!(
                *used <= cap * (1.0 + 1e-6),
                "seed {seed}: channel over-allocated: {used} > {cap}"
            );
        }
    }
}

#[test]
fn all_flows_drain() {
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let mut net = FlowNetwork::new();
        let chs: Vec<_> = caps
            .iter()
            .map(|c| net.add_channel(Bandwidth::gb_per_sec(*c)))
            .collect();
        for (path, bytes) in &flows {
            let p: Vec<_> = path.iter().map(|i| chs[*i]).collect();
            net.open_flow(SimTime::ZERO, &p, Bytes::new(*bytes))
                .unwrap();
        }
        let done = net.drain_all().expect("positive capacities must drain");
        assert_eq!(done.len(), flows.len(), "seed {seed}");
        // Completion times are non-decreasing.
        for w in done.windows(2) {
            assert!(w[0].0 <= w[1].0, "seed {seed}: completions out of order");
        }
        assert_eq!(net.active_flows(), 0, "seed {seed}");
    }
}

#[test]
fn single_channel_work_conserving() {
    // n equal-priority flows on one channel finish exactly when the
    // serial transfer of all bytes would.
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap_gb = rng.gen_range(1.0f64..100.0);
        let n = rng.gen_range(1..8usize);
        let sizes: Vec<u64> = (0..n)
            .map(|_| rng.gen_range(1u64..10_000_000_000))
            .collect();
        let mut net = FlowNetwork::new();
        let ch = net.add_channel(Bandwidth::gb_per_sec(cap_gb));
        for s in &sizes {
            net.open_flow(SimTime::ZERO, &[ch], Bytes::new(*s)).unwrap();
        }
        let done = net.drain_all().unwrap();
        let total: u64 = sizes.iter().sum();
        let expect_secs = total as f64 / (cap_gb * 1e9);
        let last = done.last().unwrap().0.as_secs_f64();
        // The channel is always fully utilized until the last byte moves.
        assert!(
            (last - expect_secs).abs() <= expect_secs * 1e-6 + 1e-9,
            "seed {seed}: last completion {last}, expected {expect_secs}"
        );
    }
}

#[test]
fn bytes_carried_matches_flow_sizes() {
    // Conservation: what the channel carried equals the sum of all flow
    // sizes routed through it.
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10usize);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..1_000_000_000)).collect();
        let mut net = FlowNetwork::new();
        let ch = net.add_channel(Bandwidth::gb_per_sec(10.0));
        for s in &sizes {
            net.open_flow(SimTime::ZERO, &[ch], Bytes::new(*s)).unwrap();
        }
        net.drain_all().unwrap();
        let total: u64 = sizes.iter().sum();
        let carried = net.bytes_carried(ch).as_u64();
        let tolerance = total / 1000 + 8;
        assert!(
            carried.abs_diff(total) <= tolerance,
            "seed {seed}: carried {carried}, expected {total}"
        );
    }
}

#[test]
fn routed_flows_conserve_bytes_per_channel() {
    // Conservation generalizes to multi-link routes: every channel ends
    // up having carried exactly the bytes of the flows routed over it
    // (a flow deposits its full size on *each* link of its path).
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let mut net = FlowNetwork::new();
        let chs: Vec<_> = caps
            .iter()
            .map(|c| net.add_channel(Bandwidth::gb_per_sec(*c)))
            .collect();
        for (path, bytes) in &flows {
            let p: Vec<_> = path.iter().map(|i| chs[*i]).collect();
            net.open_flow(SimTime::ZERO, &p, Bytes::new(*bytes))
                .unwrap();
        }
        net.drain_all().unwrap();
        for (i, ch) in chs.iter().enumerate() {
            // A path may traverse the same channel more than once; each
            // traversal carries the bytes again.
            let expect: u64 = flows
                .iter()
                .map(|(path, bytes)| bytes * path.iter().filter(|p| **p == i).count() as u64)
                .sum();
            let carried = net.bytes_carried(*ch).as_u64();
            let tolerance = expect / 1000 + 8;
            assert!(
                carried.abs_diff(expect) <= tolerance,
                "seed {seed}: channel {i} carried {carried}, expected {expect}"
            );
        }
    }
}

#[test]
fn symmetric_flows_share_a_link_equally() {
    // Max-min fairness: n identical flows over one bottleneck each get
    // exactly cap/n, regardless of how many there are.
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap_gb = rng.gen_range(1.0f64..100.0);
        let n = rng.gen_range(2..10usize);
        let bytes = rng.gen_range(1_000_000u64..1_000_000_000);
        let mut net = FlowNetwork::new();
        let ch = net.add_channel(Bandwidth::gb_per_sec(cap_gb));
        let ids: Vec<_> = (0..n)
            .map(|_| {
                net.open_flow(SimTime::ZERO, &[ch], Bytes::new(bytes))
                    .unwrap()
            })
            .collect();
        let fair = cap_gb / n as f64;
        for id in &ids {
            let rate = net.flow_rate(*id).unwrap().as_gb_per_sec();
            assert!(
                (rate - fair).abs() <= fair * 1e-9,
                "seed {seed}: rate {rate} != fair share {fair} of {n} flows"
            );
        }
        // ...and being identical, they all finish at the same instant.
        let done = net.drain_all().unwrap();
        let first = done.first().unwrap().0.as_secs_f64();
        let last = done.last().unwrap().0.as_secs_f64();
        assert!(
            (last - first).abs() <= first * 1e-9 + 1e-12,
            "seed {seed}: symmetric flows finished apart: {first} vs {last}"
        );
    }
}

#[test]
fn open_order_does_not_change_completion_times() {
    // Flows released at the same instant must complete at the same
    // times whatever order they were opened in — the fluid model has no
    // hidden arrival-order priority.
    for seed in 0..SEEDS {
        let (caps, flows) = network_and_flows(seed);
        let run = |order: &[usize]| -> Vec<f64> {
            let mut net = FlowNetwork::new();
            let chs: Vec<_> = caps
                .iter()
                .map(|c| net.add_channel(Bandwidth::gb_per_sec(*c)))
                .collect();
            for &fi in order {
                let (path, bytes) = &flows[fi];
                let p: Vec<_> = path.iter().map(|i| chs[*i]).collect();
                net.open_flow(SimTime::ZERO, &p, Bytes::new(*bytes))
                    .unwrap();
            }
            let mut done: Vec<f64> = net
                .drain_all()
                .unwrap()
                .into_iter()
                .map(|(t, _)| t.as_secs_f64())
                .collect();
            done.sort_by(f64::total_cmp);
            done
        };
        let forward: Vec<usize> = (0..flows.len()).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let mut shuffled = forward.clone();
        // Deterministic Fisher-Yates off the seed.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let base = run(&forward);
        for other in [run(&reversed), run(&shuffled)] {
            for (a, b) in base.iter().zip(&other) {
                assert!(
                    (a - b).abs() <= a.abs() * 1e-9 + 1e-12,
                    "seed {seed}: completion times depend on open order: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn later_release_never_finishes_earlier() {
    // Monotonicity of the fluid model under staggered arrivals.
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = rng.gen_range(1_000_000u64..5_000_000_000);
        let delay_us = rng.gen_range(0u64..2_000_000);
        let run = |delay: u64| -> f64 {
            let mut net = FlowNetwork::new();
            let ch = net.add_channel(Bandwidth::gb_per_sec(5.0));
            net.open_flow(SimTime::ZERO, &[ch], Bytes::new(bytes))
                .unwrap();
            net.open_flow(SimTime::from_us(delay), &[ch], Bytes::new(bytes))
                .unwrap();
            net.drain_all().unwrap().last().unwrap().0.as_secs_f64()
        };
        let t0 = run(0);
        let t1 = run(delay_us);
        assert!(
            t1 >= t0 - 1e-6,
            "seed {seed}: later release finished earlier: {t1} < {t0}"
        );
    }
}

/// A random network built for exact ties: a few flow templates over
/// channels drawn from a handful of capacities, each template opened
/// 1-5 times, in shuffled order. Identical flows on shared channels
/// finish on the same tick; multi-channel paths couple the cohorts.
fn tied_network(seed: u64) -> (Vec<f64>, Vec<(Vec<usize>, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_ch = rng.gen_range(1..8usize);
    let caps: Vec<f64> = (0..n_ch)
        .map(|_| [10.0, 25.0, 50.0, 100.0][rng.gen_range(0..4usize)])
        .collect();
    let mut flows = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let path_len = rng.gen_range(1..=n_ch.min(4));
        let path: Vec<usize> = (0..path_len).map(|_| rng.gen_range(0..n_ch)).collect();
        let bytes = [1u64 << 20, 64 << 20, 1 << 30, 3_000_000_007][rng.gen_range(0..4usize)];
        for _ in 0..rng.gen_range(1..=5usize) {
            flows.push((path.clone(), bytes));
        }
    }
    for i in (1..flows.len()).rev() {
        flows.swap(i, rng.gen_range(0..=i));
    }
    (caps, flows)
}

/// The one-flow-per-event reference solver: retire the earliest
/// `(time, flow)` completion, rerun the whole progressive fill, repeat.
/// Returns each flow's completion time, in input order.
fn one_at_a_time(caps_gbs: &[f64], flows: &[(Vec<usize>, u64)]) -> Vec<SimTime> {
    struct Live {
        input: usize,
        path: Vec<usize>,
        remaining: f64,
        rate: f64,
    }
    fn fill(caps: &[f64], live: &mut [Live]) {
        let mut residual = caps.to_vec();
        let mut load = vec![0usize; caps.len()];
        for f in live.iter() {
            for &c in &f.path {
                load[c] += 1;
            }
        }
        let mut frozen = vec![false; live.len()];
        loop {
            let per_flow = |c: usize| residual[c].max(0.0) / load[c] as f64;
            let share = (0..caps.len())
                .filter(|&c| load[c] > 0)
                .map(per_flow)
                .fold(f64::INFINITY, f64::min);
            if !share.is_finite() {
                return;
            }
            let bottlenecks: Vec<usize> = (0..caps.len())
                .filter(|&c| load[c] > 0 && per_flow(c) <= share * (1.0 + 1e-9))
                .collect();
            for (i, f) in live.iter_mut().enumerate() {
                if frozen[i] || !f.path.iter().any(|c| bottlenecks.contains(c)) {
                    continue;
                }
                f.rate = share;
                frozen[i] = true;
                for &c in &f.path {
                    residual[c] -= share;
                    load[c] -= 1;
                }
            }
        }
    }
    let caps: Vec<f64> = caps_gbs
        .iter()
        .map(|&c| Bandwidth::gb_per_sec(c).as_bytes_per_sec())
        .collect();
    let mut live: Vec<Live> = flows
        .iter()
        .enumerate()
        .map(|(input, (path, bytes))| Live {
            input,
            path: path.clone(),
            remaining: *bytes as f64,
            rate: 0.0,
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut done = vec![SimTime::ZERO; flows.len()];
    fill(&caps, &mut live);
    while !live.is_empty() {
        let (t, pos) = live
            .iter()
            .enumerate()
            .map(|(pos, f)| {
                let secs = (f.remaining / f.rate).max(0.0);
                ((now + SimDuration::from_secs_f64(secs), f.input), pos)
            })
            .min()
            .map(|((t, _), pos)| (t, pos))
            .expect("a live flow");
        let dt = t.saturating_since(now).as_secs_f64();
        for f in &mut live {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        now = now.max(t);
        done[live.remove(pos).input] = t;
        fill(&caps, &mut live);
    }
    done
}

#[test]
fn cohort_retirement_matches_one_flow_per_event() {
    let mut shared_ticks = 0usize;
    for seed in 0..SEEDS {
        let (caps, flows) = tied_network(seed);
        let mut net = FlowNetwork::new();
        let chs: Vec<_> = caps
            .iter()
            .map(|c| net.add_channel(Bandwidth::gb_per_sec(*c)))
            .collect();
        let ids = net
            .open_flows(
                SimTime::ZERO,
                flows.iter().map(|(path, bytes)| {
                    (path.iter().map(|i| chs[*i]).collect(), Bytes::new(*bytes))
                }),
            )
            .unwrap();
        let done = net.drain_all().unwrap();
        assert_eq!(done.len(), flows.len(), "seed {seed}");
        // Completion order, and flow-id order inside each tick's cohort.
        for w in done.windows(2) {
            assert!(w[0] < w[1], "seed {seed}: {:?} before {:?}", w[0], w[1]);
            shared_ticks += usize::from(w[0].0 == w[1].0);
        }
        let reference = one_at_a_time(&caps, &flows);
        for (t, id) in &done {
            let input = ids.iter().position(|i| i == id).unwrap();
            let (got, want) = (t.as_secs_f64(), reference[input].as_secs_f64());
            assert!(
                (got - want).abs() <= want * 1e-9,
                "seed {seed}: flow {input} done at {got}, one at a time {want}"
            );
        }
    }
    assert!(
        shared_ticks > SEEDS as usize,
        "too few ties: {shared_ticks}"
    );
}
