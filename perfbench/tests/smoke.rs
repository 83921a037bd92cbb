//! Smoke test: every workload at a tiny size, traced and untraced, on a seed
//! other than the default. Each `BENCHMARK.json` metric must be emitted with the
//! unit `BENCHMARK.json` names, every output check must pass, and the
//! deterministic metrics and counts must repeat exactly.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;
use tora_perfbench::{per_layer, run, Options, Outcome, Scale, Workload, END_TO_END};

const SEED: u64 = 7;

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let opts = Options {
        workload,
        seed: SEED,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

fn by_name(out: &Outcome) -> BTreeMap<String, (f64, &'static str)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), (m.value, m.unit)))
        .collect()
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.into()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, trace);
            let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
            assert!(
                out.correct(),
                "{} trace={trace}: {failed:?}",
                workload.name()
            );
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{}: no operation may fail", workload.name());
            let got = by_name(&out);
            let want: Vec<(String, &str)> = if trace {
                per_layer()
            } else {
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            };
            assert_eq!(got.len(), want.len(), "{} trace={trace}", workload.name());
            for (name, unit) in want {
                let (value, got_unit) = got.get(&name).unwrap_or_else(|| {
                    panic!("{} trace={trace}: `{name}` missing", workload.name())
                });
                assert_eq!(*got_unit, unit, "{name}");
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            }
            if !trace {
                for name in [
                    "tasks_per_s",
                    "requests_per_s",
                    "latency_p50_us",
                    "memory_awe",
                    "makespan_s",
                ] {
                    assert!(
                        got[name].0 > 0.0,
                        "{}: {name} must be positive",
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_metrics_and_counts_repeat_exactly() {
    const DETERMINISTIC: [&str; 4] = [
        "memory_awe",
        "failed_attempt_share",
        "completed_share",
        "makespan_s",
    ];
    for workload in Workload::ALL {
        let (a, b) = (
            by_name(&tiny(workload, false)),
            by_name(&tiny(workload, false)),
        );
        for name in DETERMINISTIC {
            assert_eq!(
                a[name].0.to_bits(),
                b[name].0.to_bits(),
                "{}: {name}",
                workload.name()
            );
        }
        let (a, b) = (
            by_name(&tiny(workload, true)),
            by_name(&tiny(workload, true)),
        );
        for (name, (value, unit)) in &a {
            if !name.ends_with("_us") && !name.ends_with("_s") {
                assert_eq!(
                    value.to_bits(),
                    b[name].0.to_bits(),
                    "{}: {name} ({unit})",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn command_line_prints_the_result_last_and_rejects_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_tora-perfbench");
    let ok = Command::new(exe)
        .args([
            "--workload",
            "serve-tenants",
            "--seed",
            "5",
            "--seconds",
            "0.05",
            "--trace",
            "0",
            "--tiny",
        ])
        .output()
        .expect("benchmark runs");
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).expect("utf-8");
    let last: Value =
        serde_json::from_str(stdout.lines().last().expect("output")).expect("JSON last line");
    let keys: Vec<&str> = last
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        stdout.contains("\"nproc\""),
        "the report carries the machine fingerprint"
    );

    for bad in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper-fig5",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper-fig5",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "paper-fig5", "--bogus", "1"],
    ] {
        let out = Command::new(exe)
            .args(&bad)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{bad:?} must fail");
        assert!(out.stdout.is_empty(), "{bad:?} must print no result");
    }
}
