//! The benchmark's own tests: the smoke mode runs every workload once in
//! both modes and checks every metric, and the metric names the binary
//! reports are exactly the ones `BENCHMARK.json` declares.

use autocat_scenario::value::{self, Value};
use std::process::Command;

fn perfbench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    // Scratch files (`.perfbench/`) land in the test target, not the tree.
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"));
    cmd
}

#[test]
fn smoke_mode_reports_every_metric_finite() {
    let out = perfbench()
        .arg("--smoke")
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.lines().any(|l| l == "smoke ok"), "{stdout}");
}

fn declared(doc: &Value, key: &str) -> Vec<String> {
    doc.as_table().expect("BENCHMARK.json is an object")[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let m = m.as_table().expect("metric object");
            format!(
                "{} {}",
                m["name"].as_str().unwrap(),
                m["unit"].as_str().unwrap()
            )
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let doc = value::from_json(&text).expect("parse BENCHMARK.json");
    let mut expected = declared(&doc, "end_to_end");
    expected.extend(declared(&doc, "per_layer"));
    let out = perfbench()
        .arg("--list-metrics")
        .output()
        .expect("run perfbench");
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(listed, expected);
}

#[test]
fn interaction_map_names_declared_metrics_and_workloads() {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        value::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    };
    let bench = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let map = read(concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json"));
    let names = |key: &str| -> Vec<String> {
        bench.as_table().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.as_table().unwrap()["name"].as_str().unwrap().to_string())
            .collect()
    };
    let (end_to_end, per_layer, workloads) =
        (names("end_to_end"), names("per_layer"), names("workloads"));
    for layer in map.as_table().unwrap()["layers"].as_array().unwrap() {
        let layer = layer.as_table().unwrap();
        for m in layer["metrics"].as_array().unwrap() {
            assert!(
                per_layer.contains(&m.as_str().unwrap().to_string()),
                "{m:?}"
            );
        }
        for edge in layer["moves"].as_array().unwrap() {
            let edge = edge.as_table().unwrap();
            assert!(end_to_end.contains(&edge["metric"].as_str().unwrap().to_string()));
            assert!(workloads.contains(&edge["workload"].as_str().unwrap().to_string()));
        }
    }
}
