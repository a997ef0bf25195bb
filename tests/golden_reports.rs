//! Golden-report harness: the paper-default 96-cell grid is pinned by a
//! committed JSON snapshot (`tests/golden/paper_default.json`) carrying
//! each cell's scenario digest and simulated numbers, plus the headline
//! harmonic-mean speedup. With the scenario space opened up to
//! thousands of scale-out cells, these snapshots are what keeps the
//! paper-default numbers from drifting silently: the ~2.84x headline
//! becomes one of many pinned values instead of the only one.
//!
//! A second, compact snapshot (`tests/golden/routed.json`) pins the
//! flow-routed prices: the same matrix at five device counts on every
//! routed topology, one line per (topology, devices) group with its cell
//! count and an FNV-1a digest of the group's simulated times.
//!
//! Regenerating after an *intentional* model change:
//!
//! ```console
//! $ MCDLA_BLESS=1 cargo test --test golden_reports
//! $ git diff tests/golden/   # review every changed cell, then commit
//! ```
//!
//! On main, regeneration must produce a zero diff.

use std::path::{Path, PathBuf};

use mcdla::core::scenario::global_runner;
use mcdla::core::{experiment, ScenarioGrid};
use mcdla::interconnect::FabricTopology;
use serde::{json, Value};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper_default.json")
}

fn routed_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/routed.json")
}

/// Renders the paper-default grid into the golden snapshot value. The
/// cell order is the grid's deterministic expansion order; every field
/// is a pure function of the simulator, so two runs of the same code
/// produce byte-identical snapshots.
fn current_golden() -> Value {
    let scenarios = ScenarioGrid::paper_default().scenarios();
    let runs = global_runner().run_grid(&scenarios);
    let cells: Vec<Value> = scenarios
        .iter()
        .zip(&runs)
        .map(|(s, r)| {
            Value::Map(vec![
                ("label".into(), Value::Str(s.label())),
                ("digest".into(), Value::Str(format!("{:016x}", s.digest()))),
                (
                    "iteration_time".into(),
                    serde::Serialize::to_value(&r.iteration_time),
                ),
                ("performance".into(), Value::F64(r.performance())),
            ])
        })
        .collect();
    Value::Map(vec![
        (
            "generated_by".into(),
            Value::Str("MCDLA_BLESS=1 cargo test --test golden_reports".into()),
        ),
        ("grid".into(), Value::Str("paper_default".into())),
        (
            "headline_speedup".into(),
            Value::F64(experiment::headline_speedup()),
        ),
        ("cells".into(), Value::Seq(cells)),
    ])
}

fn bless_requested() -> bool {
    std::env::var("MCDLA_BLESS").is_ok_and(|v| v == "1")
}

#[test]
fn paper_default_grid_matches_the_golden_snapshot() {
    let path = golden_path();
    let current = format!("{}\n", json::to_string_pretty(&current_golden()));

    if bless_requested() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {} ({} bytes)", path.display(), current.len());
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             generate it with `MCDLA_BLESS=1 cargo test --test golden_reports`",
            path.display()
        )
    });

    // Structured diff first, so a drift names the offending cells
    // instead of dumping two 30 KB strings.
    let committed_value = json::parse(&committed).expect("golden snapshot is valid JSON");
    let current_value = json::parse(&current).expect("current snapshot serializes");
    let cells_of = |v: &Value| -> Vec<Value> {
        v.get("cells")
            .and_then(|c| c.as_seq())
            .expect("snapshot has a cells array")
            .to_vec()
    };
    let want = cells_of(&committed_value);
    let got = cells_of(&current_value);
    assert_eq!(
        want.len(),
        got.len(),
        "paper-default grid changed size: committed {} cells, current {} \
         (if intentional, re-bless with MCDLA_BLESS=1)",
        want.len(),
        got.len()
    );
    let mut drifted = Vec::new();
    for (w, g) in want.iter().zip(&got) {
        if w != g {
            drifted.push(format!(
                "  {}:\n    committed: {}\n    current:   {}",
                w.get("label").and_then(|l| l.as_str()).unwrap_or("?"),
                json::to_string(w),
                json::to_string(g),
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} of {} paper-default cells drifted from the golden snapshot:\n{}\n\
         if this change is intentional, regenerate with \
         `MCDLA_BLESS=1 cargo test --test golden_reports` and commit the diff",
        drifted.len(),
        want.len(),
        drifted.join("\n")
    );
    assert_eq!(
        committed_value.get("headline_speedup"),
        current_value.get("headline_speedup"),
        "headline harmonic-mean speedup drifted from the golden snapshot"
    );
    // Belt and braces: the snapshot is byte-stable end to end.
    assert_eq!(
        committed, current,
        "golden snapshot bytes differ (field order or formatting changed); \
         re-bless with MCDLA_BLESS=1 if intentional"
    );
}

#[test]
fn golden_digests_discriminate_every_cell() {
    // The digest is the join key consumers use to pair streamed cells
    // with golden entries — it must be unique across the default grid.
    let scenarios = ScenarioGrid::paper_default().scenarios();
    let mut digests: Vec<u64> = scenarios.iter().map(|s| s.digest()).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), scenarios.len());
}

#[test]
fn golden_headline_stays_in_the_paper_band() {
    // The snapshot pins the exact value; this keeps the *meaning*
    // honest too (paper: 2.8x, our calibration: ~2.84x).
    let headline = experiment::headline_speedup();
    assert!(
        (2.7..=3.0).contains(&headline),
        "headline speedup {headline} left the paper's band"
    );
}

/// Device counts of the routed snapshot: one backplane island, two, a
/// partial last island, and the scale-out range.
const ROUTED_DEVICES: [usize; 5] = [8, 16, 40, 64, 128];

/// FNV-1a, 64-bit.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders the routed snapshot: the paper-default matrix × [`ROUTED_DEVICES`]
/// × every routed topology, one JSON line per (topology, devices) group
/// carrying its cell count and the FNV-1a digest of each cell's
/// `iteration_time` and `sync_busy` picoseconds, in grid order.
fn current_routed() -> String {
    let topologies: Vec<_> = FabricTopology::ALL.iter().map(|&t| Some(t)).collect();
    let scenarios = ScenarioGrid::paper_default()
        .device_counts(&ROUTED_DEVICES)
        .topology_axis(&topologies)
        .scenarios();
    let runs = global_runner().run_grid(&scenarios);
    let mut groups = Vec::new();
    for topology in FabricTopology::ALL {
        for devices in ROUTED_DEVICES {
            let (mut cells, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
            for (s, r) in scenarios.iter().zip(&runs) {
                if s.topology == Some(topology) && s.devices == Some(devices) {
                    cells += 1;
                    for ps in [r.iteration_time.as_ps(), r.sync_busy.as_ps()] {
                        digest = fnv1a(digest, &ps.to_le_bytes());
                    }
                }
            }
            groups.push(format!(
                r#"    {{"topology": "{topology}", "devices": {devices}, "cells": {cells}, "fnv1a": "{digest:016x}"}}"#
            ));
        }
    }
    format!(
        "{{\n  \"generated_by\": \"MCDLA_BLESS=1 cargo test --test golden_reports\",\n  \
         \"grid\": \"paper_default x devices {ROUTED_DEVICES:?} x every routed topology\",\n  \
         \"groups\": [\n{}\n  ]\n}}\n",
        groups.join(",\n")
    )
}

#[test]
fn routed_grid_matches_the_golden_snapshot() {
    let path = routed_path();
    let current = current_routed();
    json::parse(&current).expect("routed snapshot is valid JSON");

    if bless_requested() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &current).expect("write routed snapshot");
        eprintln!("blessed {} ({} bytes)", path.display(), current.len());
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing routed snapshot {}: {e}\n\
             generate it with `MCDLA_BLESS=1 cargo test --test golden_reports`",
            path.display()
        )
    });
    let drifted: Vec<String> = committed
        .lines()
        .zip(current.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  committed: {}\n  current:   {}", want.trim(), got.trim()))
        .collect();
    assert!(
        drifted.is_empty() && committed == current,
        "routed prices drifted from the golden snapshot:\n{}\n\
         if this change is intentional, regenerate with \
         `MCDLA_BLESS=1 cargo test --test golden_reports` and commit the diff",
        drifted.join("\n")
    );
}
