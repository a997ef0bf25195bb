//! The fleet topology: which workers exist and which worker owns which
//! scenario, decided by **rendezvous (highest-random-weight) hashing**
//! of the canonical result-store key.
//!
//! Rendezvous hashing gives the two properties a scenario cache shard
//! map needs:
//!
//! * **Agreement without coordination** — every gateway (and a restarted
//!   one) computes the same owner for a key from nothing but the worker
//!   address list, because both the scenario key
//!   ([`mcdla_core::key_hash`], the exact hash the `ResultStore` shards
//!   by) and the per-worker mixing are stable across processes.
//! * **Minimal disruption** — removing a worker reassigns only the keys
//!   that worker owned; every other key keeps its owner (and therefore
//!   its warm cache). Adding a worker steals only ~1/N of each
//!   incumbent's keys.
//!
//! The full ranking (not just the winner) doubles as the **failover
//! order**: the second-ranked worker for a key is its replica of last
//! resort, and so on down the list.

use mcdla_core::Scenario;

/// An ordered fleet of worker addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    workers: Vec<String>,
}

/// FNV-1a over a byte string — the same construction `Scenario::digest`
/// uses, applied to worker addresses so placement is stable across
/// processes and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a full-avalanche mix of the (key, worker)
/// combination, so rendezvous scores are uniform even though scenario
/// key hashes are correlated across similar cells.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Topology {
    /// Builds a topology from worker addresses (`host:port`).
    /// Addresses are kept in the given order (worker indices are stable
    /// and name workers in stats, logs, and errors); duplicates and
    /// empties are errors.
    pub fn new<S: Into<String>>(addrs: impl IntoIterator<Item = S>) -> Result<Self, String> {
        let workers: Vec<String> = addrs
            .into_iter()
            .map(|a| a.into().trim().to_owned())
            .collect();
        if workers.is_empty() {
            return Err("a cluster needs at least one worker address".into());
        }
        for (i, w) in workers.iter().enumerate() {
            if w.is_empty() {
                return Err(format!("worker address {i} is empty"));
            }
            if workers[..i].contains(w) {
                return Err(format!("duplicate worker address `{w}`"));
            }
        }
        Ok(Topology { workers })
    }

    /// The worker addresses, in index order.
    pub(crate) fn workers(&self) -> &[String] {
        &self.workers
    }

    /// The rendezvous score of `(key, worker i)`.
    fn score(&self, key: u64, i: usize) -> u64 {
        mix64(key ^ fnv1a(self.workers[i].as_bytes()))
    }

    /// Worker indices ranked for `key`: the owner first, then each
    /// failover replica in preference order. Deterministic for a given
    /// (key, address list) everywhere.
    pub(crate) fn ranked(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.workers.len()).collect();
        // Descending score; ties (score collisions) break by index so
        // the order stays total and stable.
        order.sort_by_key(|&i| (std::cmp::Reverse(self.score(key, i)), i));
        order
    }

    /// The owning worker index for `key`.
    pub(crate) fn owner(&self, key: u64) -> usize {
        (0..self.workers.len())
            .max_by_key(|&i| (self.score(key, i), std::cmp::Reverse(i)))
            .expect("topology is never empty")
    }

    /// The owning worker index for a scenario: the rendezvous owner of
    /// its canonical store key.
    pub fn owner_of(&self, scenario: &Scenario) -> usize {
        self.owner(mcdla_core::key_hash(scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
    }

    #[test]
    fn construction_rejects_empty_and_duplicates() {
        assert!(Topology::new(Vec::<String>::new()).is_err());
        assert!(Topology::new(["a:1", ""]).is_err());
        let err = Topology::new(["a:1", "b:2", "a:1"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        // Whitespace-padded duplicates are still duplicates.
        assert!(Topology::new(["a:1", " a:1 "]).is_err());
    }

    #[test]
    fn ranking_is_a_permutation_led_by_the_owner() {
        let t = Topology::new(addrs(5)).unwrap();
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            let ranked = t.ranked(key);
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>());
            assert_eq!(ranked[0], t.owner(key));
        }
    }

    #[test]
    fn keys_spread_over_the_fleet() {
        let t = Topology::new(addrs(4)).unwrap();
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[t.owner(mix64(key))] += 1;
        }
        // Uniform would be 1000 each; accept a generous band.
        for &c in &counts {
            assert!((600..=1400).contains(&c), "lopsided ownership: {counts:?}");
        }
    }

    #[test]
    fn removing_a_worker_only_remaps_its_own_keys() {
        let full = Topology::new(addrs(4)).unwrap();
        // Drop worker 2; the survivors keep their indices' addresses.
        let survivors: Vec<String> = addrs(4)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, a)| a)
            .collect();
        let reduced = Topology::new(survivors.clone()).unwrap();
        for key in 0..2000u64 {
            let key = mix64(key.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let before = &full.workers()[full.owner(key)];
            let after = &survivors[reduced.owner(key)];
            if before != &full.workers()[2] {
                assert_eq!(before, after, "key moved although its owner survived");
            }
        }
    }

    #[test]
    fn failover_order_matches_ranking_tail() {
        let t = Topology::new(addrs(3)).unwrap();
        let key = 0x1234_5678_9abc_def0;
        let ranked = t.ranked(key);
        // Killing the owner promotes exactly the second-ranked worker.
        let survivors: Vec<String> = (0..3)
            .filter(|i| *i != ranked[0])
            .map(|i| t.workers()[i].clone())
            .collect();
        let reduced = Topology::new(survivors.clone()).unwrap();
        assert_eq!(
            survivors[reduced.owner(key)],
            t.workers()[ranked[1]],
            "failover target is not the second-ranked replica"
        );
    }
}
