//! The mcdla benchmark: one command, four seeded workloads, eight
//! end-to-end metrics, and a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result object (`correct`, `attempted`, `failed`, `metrics`); the
//! line before it is a detail object with the host, the code under
//! test, every metric's sample count, the workload's traffic shares and
//! the simulated headline. See `perfbench/README.md`.

mod gen;
mod grid;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use serde::Value;

use report::Outcome;

/// The workloads, each run in a fresh process: the stage caches and the
/// span switch are process-global, so one workload's state would leak
/// into the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Fabric,
    ServeRead,
    ServeWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::Fabric,
        Workload::ServeRead,
        Workload::ServeWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Fabric => "fabric",
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced runs print the per-layer metrics instead of the
    /// end-to-end ones.
    pub traced: bool,
    /// Worker threads and client connections.
    pub nproc: usize,
    /// Output directory for snapshots and traces (inside the checkout).
    pub dir: PathBuf,
    /// Shrinks every input, for the benchmark's own tests.
    pub small: bool,
    /// Which of an untraced run's [`PARTS`] processes this is; `None`
    /// for the process the command started.
    pub part: Option<u64>,
}

/// An untraced run measures in this many fresh processes, one after
/// another, each for an equal share of `--seconds`, and reports the
/// interquartile mean of their figures. On a shared host each process
/// lands in its own memory layout, hash seeds and host phase; one
/// process per run made those differences the run-to-run spread.
pub const PARTS: u64 = 4;

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut part = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::ALL.into_iter().find(|w| w.name() == name).ok_or(
                    format!("unknown workload `{name}` (sweep, fabric, serve_read, serve_write)"),
                )?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--part" => {
                part = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--part: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Every measuring process needs at least a second (two of
    // `serve_read`'s 0.5 s windows).
    let processes = if traced || part.is_some() {
        1.0
    } else {
        PARTS as f64
    };
    if seconds < processes {
        return Err(format!("--seconds must be at least {processes} here"));
    }
    Ok(Config {
        workload,
        seed,
        seconds,
        traced,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        dir: PathBuf::from(".bench_run"),
        small: false,
        part,
    })
}

impl Config {
    /// The seeded stream for one purpose (`tag`) of this run (and part).
    pub fn rng(&self, tag: &str) -> gen::Rng {
        match self.part {
            Some(part) => gen::Rng::derive(self.seed, &format!("{tag}/part{part}")),
            None => gen::Rng::derive(self.seed, tag),
        }
    }

    /// This run's private scratch directory, removed when it ends.
    pub fn scratch(&self) -> PathBuf {
        self.dir.join(format!(
            "{}-s{}-p{}",
            self.workload.name(),
            self.seed,
            std::process::id()
        ))
    }

    /// Where a traced run writes its spans (the latest run per workload
    /// and seed).
    pub fn trace_path(&self) -> PathBuf {
        self.dir
            .join("traces")
            .join(format!("{}-seed{}.ndjson", self.workload.name(), self.seed))
    }
}

/// Runs one workload and returns its outcome, with the run-wide details
/// filled in.
pub fn run(cfg: &Config) -> Outcome {
    let started = Instant::now();
    let scratch = cfg.scratch();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        let mut out = Outcome::default();
        out.tally
            .fail(format!("cannot create {}: {e}", scratch.display()));
        return out;
    }
    let mut out = match cfg.workload {
        Workload::Sweep | Workload::Fabric => grid::run(cfg),
        Workload::ServeRead => serve::run_read(cfg),
        Workload::ServeWrite => serve::run_write(cfg),
    };
    // The simulated headline, for information only: the model has no
    // hardware reference, so no error against the paper is claimed.
    let headline = mcdla_core::experiment::headline_speedup();
    out.note(
        "headline",
        Value::Map(vec![
            ("mc_dla_b_over_dc_dla".into(), Value::F64(headline)),
            ("paper".into(), Value::F64(2.8)),
            (
                "note".into(),
                Value::Str(
                    "simulated only; the model has no hardware reference, so no error is stated"
                        .into(),
                ),
            ),
        ]),
    );
    out.note("wall_s", Value::F64(started.elapsed().as_secs_f64()));

    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// Runs an untraced measurement as [`PARTS`] child processes and folds
/// their results: counts add up, each metric is the interquartile mean
/// of the parts' values.
fn run_parts(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut values: Vec<(String, Vec<f64>, u64)> = Outcome::catalogue(false)
        .into_iter()
        .map(|(name, _)| (name, Vec::new(), 0))
        .collect();
    let mut parts = Vec::new();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.tally
                .fail(format!("locating the benchmark binary: {e}"));
            return out;
        }
    };
    for part in 0..PARTS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", cfg.workload.name()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &(cfg.seconds / PARTS as f64).to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = child.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let mut lines = text.lines().rev();
            let result = lines.next().and_then(|l| serde::json::parse(l).ok());
            let detail = lines.next().and_then(|l| serde::json::parse(l).ok());
            match (o.status.success(), result, detail) {
                (true, Some(r), Some(d)) => Ok((r, d)),
                _ => Err(format!("exited with {} without a result", o.status)),
            }
        });
        let (result, detail) = match parsed {
            Ok(p) => p,
            Err(e) => {
                out.tally.fail(format!("part {part}: {e}"));
                continue;
            }
        };
        let count = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
        let failures = detail
            .get("failures")
            .and_then(Value::as_seq)
            .unwrap_or(&[]);
        out.tally.absorb(report::Tally {
            attempted: count("attempted"),
            failed: count("failed"),
            failures: failures
                .iter()
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
        });
        for (name, vals, samples) in &mut values {
            let m = detail.get("metrics").and_then(|m| m.get(name));
            if let Some(v) = m.and_then(|m| m.get("value")).and_then(Value::as_f64) {
                vals.push(v);
            }
            *samples += m
                .and_then(|m| m.get("samples"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
        }
        let keep = |key: &str| detail.get(key).cloned().unwrap_or(Value::Null);
        if part == 0 {
            out.note("headline", keep("headline"));
        }
        parts.push(Value::Map(vec![
            ("traffic".into(), keep("traffic")),
            ("wall_s".into(), keep("wall_s")),
        ]));
    }
    for (name, vals, samples) in values {
        if vals.len() as u64 == PARTS {
            out.set(&name, stats::iqm(&vals), samples as usize);
        }
    }
    out.note("parts", Value::Seq(parts));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = if cfg.traced || cfg.part.is_some() {
        run(&cfg)
    } else {
        run_parts(&cfg)
    };
    let result = out.result_line(cfg.traced);
    let mut detail = vec![
        (
            "workload".to_string(),
            Value::Str(cfg.workload.name().into()),
        ),
        ("seed".into(), Value::U64(cfg.seed)),
        ("seconds".into(), Value::F64(cfg.seconds)),
        ("trace".into(), Value::Bool(cfg.traced)),
        ("host".into(), report::host()),
        ("commit".into(), report::commit()),
        ("metrics".into(), out.samples(cfg.traced)),
        (
            "failures".into(),
            Value::Seq(
                out.tally
                    .failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ),
    ];
    detail.append(&mut out.detail);
    println!("{}", serde::json::to_string(&Value::Map(detail)));
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, traced: bool) -> Config {
        // Stage caches are process-global and every test shares one
        // process: distinct seeds keep the probes' cold cells cold.
        Config {
            workload,
            seed: 11 + 2 * workload as u64 + u64::from(traced),
            seconds: 1.2,
            traced,
            nproc: 2,
            dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.bench_run")),
            small: true,
            part: None,
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args("--workload fabric --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.seconds, cfg.traced),
            (Workload::Fabric, 9, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload sweep")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --seconds 3")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --seconds 3 --trace 1")).is_ok());
    }

    /// Every catalogue metric is measured, finite, and carries its unit
    /// and sample count, on every workload in both modes; and at HEAD no
    /// operation fails.
    #[test]
    fn every_metric_is_emitted_with_unit_and_samples() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let mut out = run(&small(workload, traced));
                let line = out.result_line(traced);
                assert_eq!(
                    out.tally.failed, 0,
                    "{workload:?} traced={traced}: {:?}",
                    out.tally.failures
                );
                let parsed = serde::json::parse(&line).unwrap();
                let keys: Vec<&str> = parsed
                    .as_map()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let metrics = parsed.get("metrics").unwrap().as_map().unwrap();
                let samples = out.samples(traced);
                for ((name, unit), (got, value)) in Outcome::catalogue(traced).iter().zip(metrics) {
                    assert_eq!(name, got);
                    assert_eq!(value.get("unit").unwrap().as_str(), Some(*unit));
                    assert!(value.get("value").unwrap().as_f64().unwrap().is_finite());
                    assert!(samples
                        .get(name)
                        .unwrap()
                        .get("samples")
                        .unwrap()
                        .as_u64()
                        .is_some());
                }
                assert_eq!(metrics.len(), Outcome::catalogue(traced).len());
            }
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// catalogue, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = serde::json::parse(&text).unwrap();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .unwrap()
                .as_seq()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = Outcome::catalogue(traced)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
