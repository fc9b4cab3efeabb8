//! Every workload at tiny size: every named metric is emitted with its
//! unit, and every operation is oracle-exact. Runs from the repository
//! root, like `run.py` does, so the scratch files land in `.bench_out/`.

use std::path::Path;
use std::process::Command;

const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

fn run(workload: &str, trace: bool) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, names: &[(&str, &str)]) {
    let last = run(workload, trace);
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    for (name, unit) in names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing in {last}"));
        let rest = &last[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} unit"
        );
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
}

/// Per-layer names and units, read from the benchmark's manifest of
/// metrics so the two cannot drift apart.
fn layer_names() -> Vec<(String, String)> {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json");
    let section = &json[json.find("\"per_layer\"").expect("per_layer section")..];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| {
            let name = s[..s.find('"').unwrap()].to_string();
            let u = &s[s.find("\"unit\": \"").unwrap() + 9..];
            (name, u[..u.find('"').unwrap()].to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_oracle_exact() {
    let layers = layer_names();
    let layer_refs: Vec<(&str, &str)> = layers
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    for workload in ["ingest", "query", "paper_sim"] {
        check(workload, false, &E2E);
        check(workload, true, &layer_refs);
    }
}
