//! The measurement core every `mcdla *-bench` shares.
//!
//! A bench returns a list of [`Metric`]s. Timings come from `sample`
//! (one untimed warm-up call, then N measured chunks) or `sample_pair`
//! (the same for two sides, alternating which goes first so drift lands
//! on both equally), summarized by `Metric::sampled` as the median
//! with an exact order-statistic 95% interval: distribution-free, and
//! deterministic for given samples. Correctness checks are
//! `Metric::exact` (`lo = hi = value`).
//!
//! A metric may carry a `floor`, written once next to the metric in its
//! bench. An envelope check fails a metric whose interval misses it:
//! `lo < floor` when higher is better, `hi > floor` when lower is
//! better. Every `BENCH_*.json` a bench writes is one [`Envelope`], and
//! `mcdla bench-report` reads them back and applies the same check.

use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::render_table;

/// The fewest samples whose order-statistic interval reaches 95%
/// coverage: with n = 5 even `[min, max]` covers the median only with
/// probability 1 − 2/32 = 93.75%.
pub(crate) const MIN_CHUNKS: usize = 6;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    /// Throughputs, speedups, hit rates.
    Higher,
    /// Latencies, overheads, errors.
    Lower,
}

/// One measured quantity: a median with its 95% interval, or an exact
/// value, plus the bound it is gated on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Dotted name, unique within its bench (`cached.req_per_s`).
    pub name: String,
    /// Unit label (`req/s`, `us`, `x`, `ratio`).
    pub unit: String,
    /// Which direction is an improvement; also which end of the
    /// interval the floor is checked against.
    pub better: Better,
    /// The median of the samples, or the exact value.
    pub value: f64,
    /// Lower end of the 95% interval (`value` when exact).
    pub lo: f64,
    /// Upper end of the 95% interval (`value` when exact).
    pub hi: f64,
    /// The gate: `lo` must reach it when higher is better, `hi` must
    /// stay under it when lower is better. `None` is ungated.
    pub floor: Option<f64>,
}

impl Metric {
    /// An exact metric (a count, a ratio of counts, a correctness check,
    /// or a single sample too costly to repeat): `lo = hi = value`.
    pub(crate) fn exact(name: impl Into<String>, unit: &str, better: Better, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            better,
            value,
            lo: value,
            hi: value,
            floor: None,
        }
    }

    /// The median of `samples` with its 95% interval.
    ///
    /// # Panics
    ///
    /// Panics when `samples` has fewer than [`MIN_CHUNKS`] values or a
    /// non-finite one: a bench that asks for fewer chunks is broken.
    pub(crate) fn sampled(
        name: impl Into<String>,
        unit: &str,
        better: Better,
        samples: &[f64],
    ) -> Metric {
        let name = name.into();
        let (value, lo, hi) = median_interval(samples).unwrap_or_else(|e| panic!("{name}: {e}"));
        Metric {
            lo,
            hi,
            ..Metric::exact(name, unit, better, value)
        }
    }

    /// Gates this metric on `floor` (see [`Metric::misses_floor`]).
    pub(crate) fn floor(self, floor: f64) -> Metric {
        Metric {
            floor: Some(floor),
            ..self
        }
    }

    /// Whether the interval misses the floor: `lo < floor` when higher
    /// is better, `hi > floor` when lower is better. A NaN end misses.
    pub(crate) fn misses_floor(&self) -> bool {
        match (self.floor, self.better) {
            (None, _) => false,
            (Some(floor), Better::Higher) => self.lo.is_nan() || self.lo < floor,
            (Some(floor), Better::Lower) => self.hi.is_nan() || self.hi > floor,
        }
    }

    /// `>= floor` or `<= floor`; empty when ungated.
    fn gate(&self) -> String {
        let op = if self.better == Better::Higher {
            ">="
        } else {
            "<="
        };
        self.floor
            .map_or_else(String::new, |f| format!("{op} {}", num(f)))
    }
}

/// The median of `samples` and the exact 95% confidence interval for
/// the population median: `[x(k), x(n+1−k)]` of the sorted samples,
/// with the largest `k` for which `P(Binomial(n, ½) < k) ≤ 2.5%`. It
/// assumes only independent draws from one distribution.
///
/// # Errors
///
/// Fewer than [`MIN_CHUNKS`] samples, or a non-finite sample.
pub(crate) fn median_interval(samples: &[f64]) -> Result<(f64, f64, f64), String> {
    let n = samples.len();
    if n < MIN_CHUNKS {
        return Err(format!(
            "{n} samples; a 95% median interval needs at least {MIN_CHUNKS}"
        ));
    }
    if let Some(bad) = samples.iter().find(|v| !v.is_finite()) {
        return Err(format!("non-finite sample {bad}"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    // Walk the binomial CDF in log space (0.5^n underflows past n ≈ 1074).
    let (mut cdf, mut ln_p, mut k) = (0.0f64, -(n as f64) * std::f64::consts::LN_2, 0usize);
    for j in 0..n {
        let p = ln_p.exp();
        if 2.0 * (cdf + p) > 0.05 {
            break;
        }
        cdf += p;
        k = j + 1;
        ln_p += ((n - j) as f64 / (j + 1) as f64).ln();
    }
    Ok((median, sorted[k - 1], sorted[n - k]))
}

/// Wall-clock seconds `f` takes.
pub(crate) fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Calls `chunk` once untimed (warm-up), then `n` times, and returns
/// the `n` values it measured. A chunk that walks through a workload
/// keeps its own cursor, so the warm-up consumes the first piece.
pub(crate) fn sample<T>(n: usize, mut chunk: impl FnMut() -> T) -> Vec<T> {
    chunk();
    (0..n).map(|_| chunk()).collect()
}

/// Two-sided [`sample`]: warms `a` and `b` once each, then measures `n`
/// chunks of both, `a` first in even chunks and `b` first in odd ones.
/// Returns `(a, b)` per chunk.
pub(crate) fn sample_pair<A, B>(
    n: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Vec<(A, B)> {
    a();
    b();
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect()
}

/// The machine a bench ran on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `std::env::consts::OS`.
    pub os: String,
}

impl Host {
    /// This machine.
    pub(crate) fn current() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            os: std::env::consts::OS.to_owned(),
        }
    }
}

/// One `BENCH_*.json`: who wrote it, from which commit, on which host,
/// and what it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// The subcommand that wrote the file (`mcdla serve-bench`).
    pub generated_by: String,
    /// The build id of the binary that measured ([`mcdla_obs::build_id`]).
    pub commit: String,
    /// The machine it ran on.
    pub host: Host,
    /// Everything measured, in bench order.
    pub metrics: Vec<Metric>,
}

impl Envelope {
    /// Wraps `metrics` measured by `generated_by` on this build and host.
    pub(crate) fn new(generated_by: &str, metrics: Vec<Metric>) -> Envelope {
        Envelope {
            generated_by: generated_by.to_owned(),
            commit: mcdla_obs::build_id().to_owned(),
            host: Host::current(),
            metrics,
        }
    }

    /// Writes the envelope as pretty JSON.
    ///
    /// # Errors
    ///
    /// The I/O error, naming the path.
    pub(crate) fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, serde::json::to_string_pretty(self) + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Reads an envelope back.
    ///
    /// # Errors
    ///
    /// A missing or unreadable file, or one that is not an envelope.
    pub(crate) fn read(path: &Path) -> Result<Envelope, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        serde::json::from_str(&body).map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    /// The envelope as one aligned table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .metrics
            .iter()
            .map(|m| {
                vec![
                    m.name.clone(),
                    format!("{} {}", num(m.value), m.unit),
                    if m.lo == m.hi {
                        "exact".into()
                    } else {
                        format!("[{}, {}]", num(m.lo), num(m.hi))
                    },
                    match (m.floor, m.misses_floor()) {
                        (None, _) => String::new(),
                        (Some(_), missed) => {
                            format!("{} {}", m.gate(), if missed { "FAIL" } else { "ok" })
                        }
                    },
                ]
            })
            .collect();
        render_table(
            &format!(
                "{} (commit {}, {} x {})",
                self.generated_by, self.commit, self.host.nproc, self.host.os
            ),
            &["metric", "median", "95% interval", "gate"],
            &rows,
        )
    }

    /// Fails when any metric's interval misses its floor.
    ///
    /// # Errors
    ///
    /// Names every metric that missed, with its interval and floor.
    pub(crate) fn check(&self) -> Result<(), String> {
        let missed: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.misses_floor())
            .map(|m| {
                format!(
                    "{} [{}, {}] {} misses {}",
                    m.name,
                    num(m.lo),
                    num(m.hi),
                    m.unit,
                    m.gate()
                )
            })
            .collect();
        if missed.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", self.generated_by, missed.join("; ")))
        }
    }
}

/// Wraps `metrics` in an envelope, writes it to `path`, prints its
/// table, and checks every floor.
///
/// # Errors
///
/// A write failure or a missed floor.
pub fn publish(generated_by: &str, path: &str, metrics: Vec<Metric>) -> Result<(), String> {
    let envelope = Envelope::new(generated_by, metrics);
    envelope.write(Path::new(path))?;
    print!("{}", envelope.render());
    println!("wrote {path}");
    envelope.check()
}

/// About four significant digits, switching to exponent form outside
/// [1e-3, 1e6).
fn num(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 || !a.is_finite() {
        format!("{v}")
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else {
        let decimals = (3 - a.log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fewer_than_six_samples_is_an_error() {
        assert!(median_interval(&[1.0; 5]).is_err());
        assert!(median_interval(&[1.0, 2.0, f64::NAN, 3.0, 4.0, 5.0]).is_err());
        // n = 6: only [min, max] reaches 95% (1 − 2/64 = 96.9%).
        assert_eq!(
            median_interval(&[6.0, 1.0, 5.0, 2.0, 4.0, 3.0]),
            Ok((3.5, 1.0, 6.0))
        );
        // n = 9 odd median; k = 2 (1 − 2·10/512 = 96.1%).
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(median_interval(&nine), Ok((5.0, 2.0, 8.0)));
    }

    #[test]
    fn interval_covers_the_true_median_in_95_percent_of_trials() {
        // Exponential draws (skewed, median ln 2) at several chunk counts.
        let mut rng = StdRng::seed_from_u64(2018);
        let true_median = std::f64::consts::LN_2;
        let (mut covered, mut trials) = (0usize, 0usize);
        for n in [6usize, 7, 10, 16, 31, 64, 200] {
            for _ in 0..400 {
                let samples: Vec<f64> = (0..n).map(|_| -(1.0 - rng.gen_f64()).ln()).collect();
                let (_, lo, hi) = median_interval(&samples).unwrap();
                covered += usize::from(lo <= true_median && true_median <= hi);
                trials += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate >= 0.94, "coverage {rate} over {trials} trials");
    }

    #[test]
    fn sample_warms_up_then_measures_n_chunks() {
        let mut calls = 0;
        let samples = sample(6, || {
            calls += 1;
            calls
        });
        assert_eq!(samples, [2, 3, 4, 5, 6, 7], "call 1 is the warm-up");
    }

    #[test]
    fn sample_pair_warms_both_and_alternates_order() {
        let order = std::cell::RefCell::new(String::new());
        let pairs = sample_pair(
            3,
            || {
                order.borrow_mut().push('a');
                1.0
            },
            || {
                order.borrow_mut().push('b');
                2.0
            },
        );
        // Warm-up, then chunks 0 (a first), 1 (b first), 2 (a first).
        assert_eq!(order.into_inner(), "ab".to_owned() + "ab" + "ba" + "ab");
        assert_eq!(pairs, vec![(1.0, 2.0); 3]);
    }

    #[test]
    fn floors_check_the_interval_end_that_matters() {
        let up = Metric {
            lo: 90.0,
            hi: 110.0,
            ..Metric::exact("tput", "req/s", Better::Higher, 100.0)
        };
        assert!(!up.clone().misses_floor(), "ungated");
        assert!(!up.clone().floor(90.0).misses_floor());
        assert!(up.clone().floor(95.0).misses_floor(), "lo below floor");
        let down = Metric {
            better: Better::Lower,
            ..up
        };
        assert!(!down.clone().floor(110.0).misses_floor());
        assert!(down.floor(105.0).misses_floor(), "hi above ceiling");
        // Exact metrics check their one value in both directions.
        let err = Metric::exact("err", "ratio", Better::Lower, 0.02);
        assert!(err.clone().floor(0.01).misses_floor());
        assert!(!err.floor(0.02).misses_floor());
        let share = Metric::exact("share", "ratio", Better::Higher, 0.8);
        assert!(!share.clone().floor(0.8).misses_floor());
        assert!(share.floor(0.81).misses_floor());
        assert!(Metric::exact("nan", "x", Better::Higher, f64::NAN)
            .floor(0.0)
            .misses_floor());
    }

    #[test]
    fn envelope_round_trips_and_check_names_misses() {
        let envelope = Envelope::new(
            "mcdla test-bench",
            vec![
                Metric::sampled(
                    "t",
                    "ms",
                    Better::Lower,
                    &[3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 7.0],
                )
                .floor(10.0),
                Metric::exact("hits", "ratio", Better::Higher, 0.5).floor(0.8),
                Metric::exact("cells", "count", Better::Higher, 18.0),
            ],
        );
        let dir = std::env::temp_dir().join(format!("mcdla-envelope-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        envelope.write(&path).unwrap();
        let back = Envelope::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, envelope);
        assert_eq!(back.host, Host::current());
        let err = back.check().unwrap_err();
        assert!(err.contains("hits") && !err.contains("cells"), "{err}");
        let text = back.render();
        assert!(
            text.contains("FAIL") && text.contains("[1.000, 7.000]"),
            "{text}"
        );
        assert!(Envelope::read(&dir.join("absent.json")).is_err());
    }

    #[test]
    fn numbers_keep_four_significant_digits() {
        assert_eq!(num(77658.75), "77659");
        assert_eq!(num(5.7176), "5.718");
        assert_eq!(num(0.0123456), "0.01235");
        assert_eq!(num(4.2e6), "4.200e6");
        assert_eq!(num(1.09e-9), "1.090e-9");
        assert_eq!(num(0.0), "0");
    }
}
