//! Metric catalogue and the result line.

use std::collections::BTreeMap;

use serde::Value;

/// End-to-end metrics, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("hit_p50_us", "us"),
    ("hit_p99_us", "us"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
];

/// The engine's stage tables, in `stage_stats()` order.
pub const STAGES: [&str; 7] = [
    "fabric",
    "network",
    "layer_timing",
    "plan",
    "schedule",
    "collective",
    "sync",
];

/// Per-layer metrics, emitted by every traced run. The stage ratios and
/// miss counts (`core.stages.<stage>.*`) are expanded by [`per_layer`].
const LAYERS: [(&str, &str); 36] = [
    ("core.stages.evictions", "count"),
    ("core.engine.simulate_warm_us_p50", "us"),
    ("core.engine.simulate_cold_us_p50", "us"),
    ("core.runner.busy_frac", "ratio"),
    ("core.runner.store_hit_ratio", "ratio"),
    ("sim.flow.solves", "count"),
    ("sim.flow.flows_per_solve", "count"),
    ("sim.flow.solve_us_p50", "us"),
    ("sim.flow.solve_us_p99", "us"),
    ("sim.flow.ns_per_flow", "ns"),
    ("interconnect.fabric.build_us_p50", "us"),
    ("core.store.get_us_p50", "us"),
    ("core.store.insert_us_p50", "us"),
    ("core.store.hit_ratio", "ratio"),
    ("core.store.evictions", "count"),
    ("core.store.dedup_waits", "count"),
    ("core.store.snapshot_save_ms_p50", "ms"),
    ("core.store.snapshot_bytes", "bytes"),
    ("serve.decode_us_p50", "us"),
    ("serve.encode_us_p50", "us"),
    ("serve.worker_rtt_us_p50", "us"),
    ("serve.loop_remainder_us", "us"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("cluster.gateway_self_us_p50", "us"),
    ("cluster.route_ns", "ns"),
    ("cluster.retries", "count"),
    ("cluster.fleet_hit_ratio", "ratio"),
    ("obs.span_ns", "ns"),
    ("obs.span_disabled_ns", "ns"),
    ("obs.hist_observe_ns", "ns"),
    ("obs.recorder_record_ns", "ns"),
    ("obs.log_filtered_ns", "ns"),
    ("obs.history_record_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unexplained_frac", "ratio"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = STAGES
        .iter()
        .flat_map(|s| {
            [
                (format!("core.stages.{s}.hit_ratio"), "ratio"),
                (format!("core.stages.{s}.misses"), "count"),
            ]
        })
        .collect();
    out.extend(LAYERS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// One measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// What one run found: its checked operations and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, Measured>,
    /// Context printed beside the result: traffic shares, the
    /// simulated headline, self times.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                samples: samples as u64,
            },
        );
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// The metrics a run of this mode must print, with their units.
    pub fn catalogue(traced: bool) -> Vec<(String, &'static str)> {
        if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. A catalogue metric the run did not measure, or one
    /// that is not finite, is a failure reported as 0.
    pub fn result_line(&mut self, traced: bool) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in Self::catalogue(traced) {
            let value = match self.metrics.get(&name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(_) => {
                    self.tally.fail(format!("metric {name} is not finite"));
                    0.0
                }
                None => {
                    self.tally.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push((
                name,
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            ));
        }
        serde::json::to_string(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.tally.failed == 0)),
            ("attempted".into(), Value::U64(self.tally.attempted.max(1))),
            ("failed".into(), Value::U64(self.tally.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]))
    }

    /// Sample counts of the printed metrics.
    pub fn samples(&self, traced: bool) -> Value {
        Value::Map(
            Self::catalogue(traced)
                .into_iter()
                .map(|(name, unit)| {
                    let m = self.metrics.get(&name);
                    let v = Value::Map(vec![
                        ("value".into(), Value::F64(m.map_or(f64::NAN, |m| m.value))),
                        ("unit".into(), Value::Str(unit.into())),
                        ("samples".into(), Value::U64(m.map_or(0, |m| m.samples))),
                    ]);
                    (name, v)
                })
                .collect(),
        )
    }
}

/// Checked operations: how many ran, how many failed, and the first
/// few failure descriptions.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one checked operation; a mismatch is a failure, not a crash.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    /// Folds in checks counted elsewhere, such as on a client thread.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 10 {
                self.failures.push(f);
            }
        }
    }
}

/// Cumulative CPU time of this machine from the first line of
/// `/proc/stat`: `(all jiffies, steal jiffies)`. Steal is time the
/// hypervisor ran other guests on our virtual CPUs.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Wall-clock time that leaves out the share of the machine's CPU time
/// the hypervisor stole while it ran. On a shared host, steal comes and
/// goes with the neighbours' load; throughput divided by this time
/// measures the program, not the neighbours.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    wall: std::time::Instant,
    jiffies: Option<(u64, u64)>,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            wall: std::time::Instant::now(),
            jiffies: cpu_jiffies(),
        }
    }

    /// Share of CPU time stolen since `start` (0 where unknown).
    pub fn steal_share(&self) -> f64 {
        match (self.jiffies, cpu_jiffies()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host a result was measured on.
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Value::Map(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("os".into(), Value::Str(std::env::consts::OS.into())),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
        ("kernel".into(), Value::Str(kernel)),
    ])
}

/// Identifies the code under test: the build id baked in by `mcdla-obs`
/// (a git commit when built inside a repository) and an FNV-1a digest
/// of every manifest and Rust source file under `crates/`, which also
/// names the code in a checkout without git metadata.
pub fn commit() -> Value {
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files
        .iter()
        .chain([&"Cargo.toml".into(), &"Cargo.lock".into()])
    {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Value::Map(vec![
        ("build_id".into(), Value::Str(mcdla_obs::build_id().into())),
        ("source_digest".into(), Value::Str(format!("{h:016x}"))),
        ("source_files".into(), Value::U64(files.len() as u64)),
    ])
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn missing_metric_is_a_failure_not_a_crash() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.5, 3);
        let line = out.result_line(false);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
        assert_eq!(out.tally.failed, 7);
    }
}
