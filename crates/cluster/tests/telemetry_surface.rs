//! Pins each tier's telemetry surface against committed name lists, so
//! a metric, history series, or stats key can only appear, vanish, or
//! change type on purpose.
//!
//! Checked on a booted one-worker fleet (bounded store, sampler on):
//! * every `# TYPE` family with its type on each tier's `/metrics`;
//! * every `/metrics/history` series name on each tier;
//! * the flattened key paths of the worker's `/stats` and of the
//!   gateway's `/cluster/stats` (minus the scraped `workers[].stats`
//!   copies, which are the worker's own `/stats`).
//!
//! Regenerate after a deliberate change, then review the diff:
//!
//! ```text
//! $ MCDLA_BLESS=1 cargo test -p mcdla-cluster --test telemetry_surface
//! $ git diff crates/cluster/tests/telemetry/
//! ```

use std::path::PathBuf;

use mcdla_cluster::{spawn_local_fleet, FleetConfig};
use mcdla_serve::client::request_once;
use serde::Value;

fn bless() -> bool {
    std::env::var("MCDLA_BLESS").is_ok_and(|v| v == "1")
}

/// Compares `names` (sorted here) against the committed list, or
/// rewrites the list under `MCDLA_BLESS=1`.
fn check_list(file: &str, mut names: Vec<String>) {
    names.sort();
    names.dedup();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/telemetry")
        .join(file);
    let current = names.iter().map(|n| format!("{n}\n")).collect::<String>();
    if bless() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let committed: Vec<&str> = committed.lines().collect();
    let missing: Vec<&&str> = committed
        .iter()
        .filter(|c| !names.iter().any(|n| n == **c))
        .collect();
    let added: Vec<&String> = names
        .iter()
        .filter(|n| !committed.contains(&n.as_str()))
        .collect();
    assert!(
        missing.is_empty() && added.is_empty(),
        "{file} drifted: missing {missing:?}, added {added:?} \
         (bless with MCDLA_BLESS=1 if deliberate)"
    );
}

fn get(addr: &str, path: &str) -> String {
    let resp = request_once(addr, "GET", path, None).unwrap();
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    resp.body
}

/// `name kind` for every `# TYPE` line of an exposition.
fn metric_types(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(str::to_owned)
        .collect()
}

fn series_names(history: &str) -> Vec<String> {
    let parsed = serde::json::parse(history).unwrap();
    let series = parsed.get("series").and_then(Value::as_map).unwrap();
    series.iter().map(|(name, _)| name.clone()).collect()
}

/// Every leaf key path of a JSON document: maps join with `.`, array
/// elements collapse to `[]`, and `skip` prunes a subtree by path.
fn key_paths(value: &Value, prefix: &str, skip: Option<&str>, out: &mut Vec<String>) {
    if skip == Some(prefix) {
        return;
    }
    match value {
        Value::Map(entries) if !entries.is_empty() => {
            for (k, v) in entries {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                key_paths(v, &path, skip, out);
            }
        }
        Value::Seq(items) if !items.is_empty() => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), skip, out);
            }
        }
        _ => out.push(prefix.to_owned()),
    }
}

#[test]
fn telemetry_surfaces_match_the_committed_name_lists() {
    let fleet = spawn_local_fleet(&FleetConfig {
        workers: 1,
        cache_cap: Some(64),
        probe_interval: None,
        sample_ms: Some(50),
        ..FleetConfig::default()
    })
    .unwrap();
    let gateway = fleet.gateway_addr().to_string();
    let worker = fleet.worker_addrs()[0].clone();
    // One routed request so every per-endpoint and per-stage block is
    // populated on both tiers.
    let cell = r#"{"design":"McDlaBwAware","benchmark":"AlexNet"}"#;
    let resp = request_once(&gateway, "POST", "/simulate", Some(cell)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    check_list(
        "worker_metrics.txt",
        metric_types(&get(&worker, "/metrics")),
    );
    check_list(
        "gateway_metrics.txt",
        metric_types(&get(&gateway, "/metrics")),
    );
    check_list(
        "worker_series.txt",
        series_names(&get(&worker, "/metrics/history")),
    );
    check_list(
        "gateway_series.txt",
        series_names(&get(&gateway, "/metrics/history")),
    );

    let mut paths = Vec::new();
    let stats = serde::json::parse(&get(&worker, "/stats")).unwrap();
    key_paths(&stats, "", None, &mut paths);
    check_list("worker_stats.txt", paths);
    let mut paths = Vec::new();
    let cluster = serde::json::parse(&get(&gateway, "/cluster/stats")).unwrap();
    key_paths(&cluster, "", Some("workers[].stats"), &mut paths);
    check_list("cluster_stats.txt", paths);
    fleet.shutdown();
}
