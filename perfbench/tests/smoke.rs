//! Smoke test: every workload at a tiny size, untraced and traced.
//!
//! Checks that each run is correct with no failed operation, that the
//! result line carries exactly the metrics `BENCHMARK.json` names for its
//! mode (with the same units), and that each workload's own figures and
//! on-path layers are present and non-zero.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(e) => e,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(s) => s,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a JSON string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(bench: &Value, section: &str) -> Vec<(String, String)> {
    items(&bench[section])
        .iter()
        .map(|m| (text(&m["name"]).to_string(), text(&m["unit"]).to_string()))
        .collect()
}

/// Run one smoke workload; returns `(detail, result)` parsed from the
/// last two lines of standard output.
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&cwd)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: too little output: {stdout}");
    let parse = |l: &str| serde_json::from_str::<Value>(l).expect("JSON line");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn value(metrics: &Value, name: &str) -> f64 {
    metrics[name]["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("{name} has no numeric value"))
}

#[test]
fn every_workload_emits_its_metrics_and_fails_nothing() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench_text =
        std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&bench_text).expect("BENCHMARK.json parses");

    // Per workload: the figures it names on its untraced detail line, and
    // per-layer metrics that must be non-zero where the layer is on the
    // path of its traced run.
    let own: &[(&str, &[&str], &[&str])] = &[
        (
            "sim-dense",
            &["setup_raw_s", "events_per_s", "replay_events_per_s"],
            &[
                "serve.shard_busy_max_s",
                "core.feature_compute_s",
                "osn_sim.pull_s",
            ],
        ),
        (
            "persist-restart",
            &["setup_raw_s", "events_per_s", "restart_s"],
            &[
                "store.journal_append_s",
                "store.journal_bytes",
                "store.open_s",
                "graph.freeze_s",
                "features.extract_s",
                "defense.sumup_s",
            ],
        ),
    ];
    let names: Vec<&str> = items(&bench["workloads"])
        .iter()
        .map(|w| text(&w["name"]))
        .collect();
    assert_eq!(names, own.iter().map(|o| o.0).collect::<Vec<_>>());

    for &(workload, figures, layers) in own {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (detail, result) = run(workload, trace);
            assert_eq!(
                result["correct"],
                Value::Bool(true),
                "{workload} trace={trace}"
            );
            assert_eq!(
                result["failed"].as_u64(),
                Some(0),
                "{workload} trace={trace}"
            );
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
            let got: Vec<(String, String)> = entries(&result["metrics"])
                .iter()
                .map(|(k, v)| (k.clone(), text(&v["unit"]).to_string()))
                .collect();
            assert_eq!(got, declared(&bench, section), "{workload} trace={trace}");

            let detail = &detail["perfbench"];
            assert_eq!(detail["seed"].as_u64(), Some(7));
            assert!(detail["accounts"].as_u64().unwrap_or(0) > 0);
            assert!(detail["peak_rss_bytes"].as_u64().unwrap_or(0) > 0);
            assert_eq!(value(&detail["named"], "failed_frac"), 0.0);
            if trace == 0 {
                for (name, _) in declared(&bench, section) {
                    let v = value(&result["metrics"], &name);
                    assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
                }
                for name in figures {
                    assert!(value(&detail["named"], name) > 0.0, "{workload}: {name}");
                }
                assert!(
                    !items(&detail["host_ref_s"]).is_empty(),
                    "{workload}: no host-speed reference timed"
                );
            } else {
                for name in layers {
                    assert!(value(&result["metrics"], name) > 0.0, "{workload}: {name}");
                }
            }
        }
    }
}
