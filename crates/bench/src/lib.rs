//! # `mcdla-bench` — the evaluation harness
//!
//! One `mcdla` CLI regenerates every table and figure of the paper
//! (`cargo run --release --bin mcdla -- <subcommand>`):
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `table2` | Table II device/memory-node configuration |
//! | `table3` | Table III benchmark suite |
//! | `table4` | Table IV memory-node power + §V-C perf/W |
//! | `fig2` | Fig. 2 execution time across device generations |
//! | `fig7` | Fig. 5/7 ring structure and link budgets |
//! | `fig9` | Fig. 9 collective latency vs ring size |
//! | `fig10` | Fig. 10 LOCAL vs BW_AWARE placement |
//! | `fig11` | Fig. 11 latency breakdown stacks |
//! | `fig12` | Fig. 12 CPU memory-bandwidth usage |
//! | `fig13` | Fig. 13 normalized performance |
//! | `fig14` | Fig. 14 batch-size sensitivity |
//! | `scalability` | §V-D multi-device scaling |
//! | `sensitivity` | §V-B sensitivity studies |
//! | `scale-out` | §VI NVSwitch-class weak scaling |
//! | `ablations` | mechanism ablation studies |
//! | `energy` | dynamic energy-per-iteration comparison |
//! | `paper-report` | the full paper-vs-measured summary |
//! | `sweep` | times every grid cell, writes `BENCH_scenarios.json` |
//! | `all` | every report above, in order |
//!
//! Global flags: `--json` (machine-readable experiment data where
//! available), `--threads N` (worker threads; equivalent to the
//! `MCDLA_THREADS` environment variable), `--out FILE` (`sweep` output
//! path). The report bodies live in [`reports`]; the `mcdla` binary is a
//! thin dispatcher.
//!
//! The six `*-bench` subcommands measure through the [`measure`] core;
//! each writes one [`measure::Envelope`] and `bench-report` ([`collate`])
//! reads the six back.

#![warn(missing_docs)]

use std::fmt::Write as _;

pub mod cluster_bench;
pub mod collate;
pub mod fabric_bench;
pub mod measure;
pub mod obs_bench;
pub mod reports;
pub mod service;
pub mod stage_bench;
pub mod store_bench;

/// Renders an aligned ASCII table.
pub(crate) fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |out: &mut String| {
        let _ = write!(out, "+");
        for w in &widths {
            let _ = write!(out, "{}+", "-".repeat(w + 2));
        }
        let _ = writeln!(out);
    };
    line(&mut out);
    let _ = write!(out, "|");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, " {h:<w$} |");
    }
    let _ = writeln!(out);
    line(&mut out);
    for row in rows {
        let _ = write!(out, "|");
        for (c, w) in row.iter().zip(&widths) {
            let _ = write!(out, " {c:<w$} |");
        }
        let _ = writeln!(out);
    }
    line(&mut out);
    out
}

/// Formats a ratio as `N.NNx`.
pub(crate) fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a GB/s quantity.
pub(crate) fn fmt_gbs(v: f64) -> String {
    format!("{v:.1} GB/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_prints_headers_and_rows() {
        let t = render_table(
            "demo",
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["b".into(), "2".into()]],
        );
        assert!(t.starts_with("== demo =="));
        assert!(t.contains("| name | value |"));
        assert!(t.contains("| b    | 2     |"));
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            "t",
            &["a", "long-header"],
            &[vec!["xxxxxx".into(), "1".into()]],
        );
        // All body lines equal width.
        let lens: Vec<usize> = t.lines().skip(1).map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_x(2.816), "2.82x");
        assert_eq!(fmt_pct(0.321), "32.1%");
        assert_eq!(fmt_gbs(149.96), "150.0 GB/s");
    }
}
