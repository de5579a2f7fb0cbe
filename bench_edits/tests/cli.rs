//! The command line as the benchmark harness drives it: `--quick` runs of
//! every workload finish within five seconds, print a parsable result
//! line as the last line of stdout, and report exactly the metrics
//! `BENCHMARK.json` lists, with its units; `all` and `compare` work end to
//! end.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use bench_edits::json::Json;
use bench_edits::workload::{Workload, RUN_SECONDS};

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// A fresh working directory for one test, so runs never share files.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

fn run_bench(dir: &Path, args: &[&str]) -> (Output, Duration) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_edits"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    (out, start.elapsed())
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("stdout has a result line");
    Json::parse(line).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn listed(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_describes_this_benchmark() {
    let bench = benchmark();
    let keys: Vec<&str> = bench
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert_eq!(
        bench.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );
    for m in bench.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    assert!(listed(&bench, "end_to_end").contains(&("setup_s".into(), "s".into())));
}

#[test]
fn quick_runs_report_every_listed_metric() {
    let bench = benchmark();
    let dir = workdir("quick_runs");
    for workload in Workload::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let what = format!("{} --trace {trace}", workload.name());
            let (out, took) = run_bench(
                &dir,
                &[
                    "--workload",
                    workload.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "10",
                    "--trace",
                    trace,
                    "--quick",
                ],
            );
            assert!(out.status.success(), "{what}: {out:?}");
            assert!(took < Duration::from_secs(5), "{what} took {took:?}");
            let result = last_line(&out);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            // A quick run is one untraced session; a traced run adds one
            // traced session, and counts the edits of both.
            let sessions = if trace == "1" { 2 } else { 1 };
            assert_eq!(
                result.get("attempted").and_then(Json::as_f64),
                Some((sessions * workload.shape(true).edits) as f64),
                "{what}"
            );
            let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(Json::as_f64).is_some(),
                        "{what}: {k}"
                    );
                    let unit = v.get("unit").and_then(Json::as_str).unwrap();
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(reported, listed(&bench, list), "{what}");
        }
        let trace = dir.join(format!(".bench_out/trace-{}-seed3.json", workload.name()));
        let doc = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("edit")));
    }
    // Checkpoint directories are cleaned up after every session.
    let leftovers: Vec<_> = std::fs::read_dir(dir.join(".bench_out"))
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let dir = workdir("bad_arguments");
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "obs_sweep", "--seed", "x"],
        &["--workload", "obs_sweep", "--seed", "1", "--trace", "2"],
        &["--workload", "obs_sweep", "--seed", "1", "--seconds", "0"],
        &["--seed", "1"],
    ] {
        let (out, _) = run_bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn suites_run_each_seed_and_compare_against_the_bounds() {
    let dir = workdir("suites");
    let (out, _) = run_bench(
        &dir,
        &[
            "all",
            "--workload",
            "grow_resample",
            "--runs",
            "2",
            "--seed",
            "5",
            "--quick",
            "--out",
            "a.json",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let suite = Json::parse(&std::fs::read_to_string(dir.join("a.json")).unwrap()).unwrap();
    let runs = suite.get("runs").unwrap().get("grow_resample").unwrap();
    assert_eq!(runs.as_array().unwrap().len(), 2);
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let (out, _) = run_bench(
        &dir,
        &[
            "compare",
            "a.json",
            "a.json",
            "--benchmark",
            bench_path.to_str().unwrap(),
        ],
    );
    // Identical suites never regress; quick runs may still be too noisy
    // for the spread check, which exits 1.
    assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("== grow_resample"), "{report}");
    assert!(report.contains("edit_p50_ms"), "{report}");
    assert!(!report.contains("REGRESSION"), "{report}");
}
