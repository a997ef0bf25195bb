//! `mcdla bench-report`: reads the six committed bench envelopes and
//! applies the same floor check each bench applied when it ran, so a
//! reviewer reads the repo's performance story, and CI re-checks it,
//! without opening six JSON files.

use std::path::Path;

use crate::measure::Envelope;

/// The bench envelopes `bench-report` reads. `BENCH_scenarios.json` is
/// the sweep's data output, not a bench, and is not among them.
pub(crate) const FILES: [&str; 6] = [
    "BENCH_service.json",
    "BENCH_store.json",
    "BENCH_stages.json",
    "BENCH_fabric.json",
    "BENCH_obs.json",
    "BENCH_cluster.json",
];

/// Reads the six committed `BENCH_*.json` envelopes under `dir`.
///
/// # Errors
///
/// The first file that is missing or is not an envelope.
pub fn collect(dir: &Path) -> Result<Vec<Envelope>, String> {
    FILES
        .iter()
        .map(|name| Envelope::read(&dir.join(name)))
        .collect()
}

/// Applies every envelope's floor check.
///
/// # Errors
///
/// Every missed floor, one bench per line.
pub fn check(envelopes: &[Envelope]) -> Result<(), String> {
    let missed: Vec<String> = envelopes.iter().filter_map(|e| e.check().err()).collect();
    if missed.is_empty() {
        Ok(())
    } else {
        Err(missed.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Better, Metric};

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn collator_reads_the_committed_benchmarks() {
        let envelopes = collect(&repo_root()).unwrap();
        assert_eq!(envelopes.len(), FILES.len());
        for (envelope, file) in envelopes.iter().zip(FILES) {
            assert!(
                envelope.generated_by.starts_with("mcdla ") && !envelope.metrics.is_empty(),
                "{file}: {envelope:?}"
            );
        }
    }

    #[test]
    fn headlines_extract_known_fields_and_tolerate_missing_files() {
        // A hand-written envelope in the committed file format reads back
        // field by field, an ungated `null` floor included. With only
        // that file present, the collator names the first missing one
        // instead of passing over it.
        let dir = std::env::temp_dir().join(format!("mcdla-collate-fields-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(FILES[0]),
            r#"{"generated_by": "mcdla serve-bench", "commit": "0123abcd",
                "host": {"nproc": 2, "os": "linux"},
                "metrics": [
                  {"name": "cached.req_per_s", "unit": "req/s", "better": "Higher",
                   "value": 77000.0, "lo": 70000.0, "hi": 80000.0, "floor": 30000.0},
                  {"name": "cached.p50_us", "unit": "us", "better": "Lower",
                   "value": 76.0, "lo": 70.0, "hi": 81.0, "floor": null}]}"#,
        )
        .unwrap();
        let service = Envelope::read(&dir.join(FILES[0])).unwrap();
        let err = collect(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            (service.generated_by.as_str(), service.commit.as_str()),
            ("mcdla serve-bench", "0123abcd")
        );
        assert_eq!((service.host.nproc, service.host.os.as_str()), (2, "linux"));
        let cached = &service.metrics[0];
        assert_eq!(
            (cached.name.as_str(), cached.unit.as_str(), cached.better),
            ("cached.req_per_s", "req/s", Better::Higher)
        );
        assert_eq!(
            (cached.value, cached.lo, cached.hi, cached.floor),
            (77000.0, 70000.0, 80000.0, Some(30000.0))
        );
        assert_eq!(service.metrics[1].floor, None);
        service.check().unwrap();
        assert!(err.contains(FILES[1]), "{err}");
    }

    #[test]
    fn json_report_carries_floor_verdicts() {
        // Every committed envelope records at least one gate, and the
        // committed measurements clear all of them.
        let envelopes = collect(&repo_root()).unwrap();
        for envelope in &envelopes {
            assert!(
                envelope.metrics.iter().any(|m| m.floor.is_some()),
                "{} records no floor",
                envelope.generated_by
            );
        }
        check(&envelopes).unwrap();
    }

    #[test]
    fn text_report_flags_floors_and_missing_values() {
        let dir = std::env::temp_dir().join(format!("mcdla-collate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, file) in FILES.iter().enumerate() {
            let floor = if i == 0 { 2.0 } else { 0.5 };
            let metric = Metric::exact("m", "x", Better::Higher, 1.0).floor(floor);
            Envelope::new("mcdla test-bench", vec![metric])
                .write(&dir.join(file))
                .unwrap();
        }
        let envelopes = collect(&dir).unwrap();
        let text: String = envelopes.iter().map(Envelope::render).collect();
        assert!(
            text.contains(">= 2.000 FAIL") && text.contains(">= 0.5000 ok"),
            "{text}"
        );
        assert_eq!(check(&envelopes).unwrap_err().lines().count(), 1);
        std::fs::remove_file(dir.join(FILES[5])).unwrap();
        let err = collect(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains(FILES[5]), "{err}");
    }
}
