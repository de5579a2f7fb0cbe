//! Command-level entry points: one measured run (a few sessions, each in its
//! own process), a suite of runs, and the comparison of two suites
//! against the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::session::{nproc, percentile, run_session, setup, Inputs, SetupTimes, Spec};
use crate::trace::SpanLog;
use crate::workload::Workload;

/// Set-ups per session; `setup_s` is the median over every set-up of a
/// run. Each session runs on its last set-up.
pub const SETUP_REPEATS: usize = 5;

/// The arguments of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run is sized for (see [`Workload::sessions`]).
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Small configuration.
    pub quick: bool,
}

/// One metric of a result line.
pub type Metric = (&'static str, f64, &'static str);

/// The input seed of session `i` of a run; session 0 uses the run's seed.
fn session_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs [`SETUP_REPEATS`] set-ups and returns the last one's inputs with
/// every set-up's times.
fn setups(spec: &Spec, mut log: Option<&mut SpanLog>) -> Result<(Inputs, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let (next, t) = setup(spec, log.as_deref_mut())?;
        inputs = Some(next);
        times.push(t);
    }
    Ok((inputs.expect("at least one set-up ran"), times))
}

/// Runs one untraced session of `workload` in this process and returns
/// its raw report line: correctness, edit counts, every edit latency,
/// every set-up time, peak RSS and the final checksum.
///
/// # Errors
///
/// Set-up failures and benchmark I/O failures.
pub fn session_line(workload: Workload, seed: u64, quick: bool) -> Result<String, String> {
    let spec = Spec::new(workload, quick, seed);
    let (inputs, times) = setups(&spec, None)?;
    let outcome = run_session(&spec, inputs, None)?;
    eprintln!(
        "bench_edits: session workload={} seed={seed} nproc={} threads={} particles={} \
         edits={} failed={} checksum={:016x}",
        workload.name(),
        nproc(),
        spec.threads,
        spec.shape.particles,
        outcome.attempted,
        outcome.failed,
        outcome.checksum
    );
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    let count = |n: usize| Json::Num(n as f64);
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), count(outcome.attempted)),
        ("failed".into(), count(outcome.failed)),
        ("particles".into(), count(spec.shape.particles)),
        ("peak_rss_mb".into(), Json::Num(outcome.peak_rss_mb)),
        (
            "setup_s".into(),
            nums(times.iter().map(|t| t.total_s).collect()),
        ),
        ("latencies_ms".into(), nums(outcome.latencies_ms)),
        (
            "checksum".into(),
            Json::Str(format!("{:016x}", outcome.checksum)),
        ),
    ]);
    Ok(doc.to_string())
}

/// Runs one workload and returns its result line: `{"correct",
/// "attempted", "failed", "metrics"}`.
///
/// The run measures [`Workload::sessions`] sessions, each in a fresh
/// process of this executable, and pools them into the end-to-end
/// metrics. A traced run then runs one more session (with the run's seed)
/// in this process with tracing on, reports the per-layer metrics —
/// `trace.overhead_pct` against the pooled untraced `edit_p50_ms` — and
/// writes a Chrome trace under `.bench_out`. Its edit counts cover every
/// session, traced or not.
///
/// # Errors
///
/// Set-up failures, benchmark I/O failures, and a failed session process.
pub fn run_once(args: &RunArgs) -> Result<Json, String> {
    let sessions = (0..args.workload.sessions(args.quick, args.seconds))
        .map(|i| {
            let mut child = vec![
                "session".to_string(),
                "--workload".to_string(),
                args.workload.name().to_string(),
                "--seed".to_string(),
                session_seed(args.seed, i).to_string(),
            ];
            if args.quick {
                child.push("--quick".to_string());
            }
            run_child(&child)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pooled = Pooled::new(&sessions)?;
    let end_to_end = pooled.end_to_end();
    if !args.trace {
        return Ok(result_line(
            pooled.correct,
            pooled.attempted,
            pooled.failed,
            &end_to_end,
        ));
    }

    let spec = Spec::new(args.workload, args.quick, args.seed);
    let mut log = SpanLog::new(Instant::now());
    let (inputs, times) = setups(&spec, Some(&mut log))?;
    let outcome = run_session(&spec, inputs, Some(&mut log))?;
    let layers = outcome
        .layers
        .as_ref()
        .expect("a traced session reports layers");
    let dir = Path::new(crate::OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, log.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("bench_edits: trace written to {}", path.display());
    let untraced_p50 = end_to_end
        .iter()
        .find(|m| m.0 == "edit_p50_ms")
        .map_or(f64::NAN, |m| m.1);
    Ok(result_line(
        pooled.correct && outcome.failed == 0,
        pooled.attempted + outcome.attempted,
        pooled.failed + outcome.failed,
        &layers.metrics(&times, untraced_p50),
    ))
}

/// The sessions of a run, pooled.
#[derive(Debug)]
struct Pooled {
    correct: bool,
    attempted: usize,
    failed: usize,
    particle_edits: f64,
    latencies_ms: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
}

impl Pooled {
    fn new(sessions: &[Json]) -> Result<Pooled, String> {
        let mut pooled = Pooled {
            correct: true,
            attempted: 0,
            failed: 0,
            particle_edits: 0.0,
            latencies_ms: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mb: Vec::new(),
        };
        for s in sessions {
            let num = |k: &str| {
                s.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("session report lacks `{k}`"))
            };
            let nums = |k: &str| -> Result<Vec<f64>, String> {
                s.get(k)
                    .and_then(Json::as_array)
                    .ok_or(format!("session report lacks `{k}`"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or(format!("`{k}` holds a non-number")))
                    .collect()
            };
            let latencies = nums("latencies_ms")?;
            pooled.correct &= s.get("correct") == Some(&Json::Bool(true));
            pooled.attempted += num("attempted")? as usize;
            pooled.failed += num("failed")? as usize;
            pooled.particle_edits += num("particles")? * latencies.len() as f64;
            pooled.peak_rss_mb.push(num("peak_rss_mb")?);
            pooled.setup_s.extend(nums("setup_s")?);
            pooled.latencies_ms.extend(latencies);
        }
        Ok(pooled)
    }

    /// The end-to-end metrics: latency percentiles over every edit of
    /// every session, throughput over their total time, and medians of
    /// the per-session set-up times and peak RSS.
    fn end_to_end(&self) -> Vec<Metric> {
        let mut latencies = self.latencies_ms.clone();
        let edit_s = latencies.iter().sum::<f64>() / 1e3;
        vec![
            ("setup_s", percentile(&mut self.setup_s.clone(), 0.5), "s"),
            ("edit_p50_ms", percentile(&mut latencies, 0.5), "ms"),
            ("edit_p90_ms", percentile(&mut latencies, 0.9), "ms"),
            ("particle_edits_per_s", self.particle_edits / edit_s, "1/s"),
            (
                "peak_rss_mb",
                percentile(&mut self.peak_rss_mb.clone(), 0.5),
                "MiB",
            ),
        ]
    }
}

/// The result line. A non-finite value, which only a session with no
/// completed edit produces, is written as 0 and makes the run incorrect.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            let metric = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name.to_string(), metric)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct && finite)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// The value of `name` in a parsed result line.
pub fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs this executable with `args` in a fresh process, waits for it,
/// and parses the last line of its standard output.
///
/// # Errors
///
/// Spawn failure, a non-zero exit, or an unparsable last line.
fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a benchmark process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "benchmark process {args:?} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("benchmark process printed nothing")?;
    Json::parse(line)
}

/// Runs `runs` untraced seeds (`seed`, `seed + 1`, …) of every workload
/// in `workloads` and returns the suite document that [`compare`] reads.
/// Each run's sessions run in their own processes, as in [`run_once`].
///
/// # Errors
///
/// As [`run_once`].
pub fn run_suite(
    workloads: &[Workload],
    seed: u64,
    runs: u64,
    seconds: u64,
    quick: bool,
) -> Result<Json, String> {
    let mut per_workload = Vec::new();
    for &workload in workloads {
        let mut results = Vec::new();
        for r in 0..runs {
            let args = RunArgs {
                workload,
                seed: seed + r,
                seconds,
                trace: false,
                quick,
            };
            eprintln!(
                "bench_edits: running {} seed {} ({seconds} s)",
                workload.name(),
                args.seed
            );
            results.push(run_once(&args)?);
        }
        per_workload.push((workload.name().to_string(), Json::Arr(results)));
    }
    let num = |v: u64| Json::Num(v as f64);
    Ok(Json::Obj(vec![
        ("schema".into(), Json::Str("bench-edits-runs/v1".into())),
        ("nproc".into(), num(nproc() as u64)),
        (
            "threads".into(),
            num(crate::session::default_threads() as u64),
        ),
        ("seed".into(), num(seed)),
        ("seconds".into(), num(seconds)),
        ("quick".into(), Json::Bool(quick)),
        ("runs".into(), Json::Obj(per_workload)),
    ]))
}

/// A suite's per-workload table: for every metric, the number of runs,
/// the quartiles, and the spread (interquartile range over median).
///
/// # Errors
///
/// A document without the expected shape.
pub fn summarize(suite: &Json) -> Result<String, String> {
    let runs = suite
        .get("runs")
        .and_then(Json::as_object)
        .ok_or("suite has no `runs` object")?;
    let mut out = String::new();
    for (workload, results) in runs {
        let results = results.as_array().unwrap_or(&[]);
        let failed: f64 = results
            .iter()
            .filter_map(|r| r.get("failed").and_then(Json::as_f64))
            .sum();
        let _ = writeln!(
            out,
            "== {workload}: {} runs, {failed} failed edits",
            results.len()
        );
        let names = results
            .first()
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, first) in names {
            let unit = first.get("unit").and_then(Json::as_str).unwrap_or("");
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| metric_value(r, name))
                .collect();
            let (q1, med, q3) = quartiles(&values);
            let _ = writeln!(
                out,
                "  {name:<38} {q1:>12.4} / {med:>12.4} / {q3:>12.4} {unit:<6} spread {:>6.2}%",
                (q3 - q1) / med.abs() * 100.0
            );
        }
    }
    Ok(out)
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) and `statistics.median` compute them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let median = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), median, cut(3))
        }
    }
}

/// Compares suite `b` against suite `a` under the bounds of
/// `benchmark` (a parsed `BENCHMARK.json`). For every workload and
/// end-to-end metric it prints both sides' median and quartiles, and
/// flags a metric whose median in `b` is worse than in `a` by more than
/// its bound (`REGRESSION`), or whose spread (interquartile range over
/// median) on either side exceeds its bound (`SPREAD`: the comparison is
/// unresolved). Returns the report and whether anything was flagged.
///
/// # Errors
///
/// A document without the expected shape.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool), String> {
    let runs = |doc: &Json, side: &str| {
        doc.get("runs")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or(format!("suite {side} has no `runs` object"))
    };
    let (runs_a, runs_b) = (runs(a, "A")?, runs(b, "B")?);
    let end_to_end = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;

    let mut out = String::new();
    let mut flagged = false;
    for (workload, results_a) in &runs_a {
        let Some((_, results_b)) = runs_b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        let _ = writeln!(out, "== {workload}");
        let _ = writeln!(
            out,
            "  {:<38} {:>31}   {:>31}  {:>8}  flags",
            "metric", "A: q1 / median / q3", "B: q1 / median / q3", "B vs A"
        );
        for spec in end_to_end {
            let name = spec.get("name").and_then(Json::as_str).unwrap_or("?");
            let values = |results: &Json| -> Vec<f64> {
                results
                    .as_array()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|r| metric_value(r, name))
                    .collect()
            };
            let (va, vb) = (values(results_a), values(results_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let change = (qb.1 - qa.1) / qa.1.abs();
            let bound = spec
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("BENCHMARK.json gives `{name}` no bound"))?;
            let worse = match spec.get("better").and_then(Json::as_str) {
                Some("higher") => -change,
                _ => change,
            };
            let mut flags = Vec::new();
            if worse > bound {
                flags.push(format!("REGRESSION>{bound}"));
            }
            for (side, q) in [("A", qa), ("B", qb)] {
                if (q.2 - q.0) / q.1.abs() > bound {
                    flags.push(format!("SPREAD({side})>{bound}"));
                }
            }
            flagged |= !flags.is_empty();
            let _ = writeln!(
                out,
                "  {:<38} {:>9.4} / {:>9.4} / {:>9.4}   {:>9.4} / {:>9.4} / {:>9.4}  {:>+7.2}%  {}",
                name,
                qa.0,
                qa.1,
                qa.2,
                qb.0,
                qb.1,
                qb.2,
                change * 100.0,
                flags.join(" ")
            );
        }
    }
    Ok((out, flagged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn result_lines_parse_and_reject_non_finite_values() {
        let line = result_line(
            true,
            10,
            0,
            &[("edit_p50_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
        );
        let doc = Json::parse(&line.to_string()).unwrap();
        assert_eq!(doc, line);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(10.0));
        assert_eq!(metric_value(&doc, "edit_p50_ms"), Some(1.25));
        let bad = result_line(true, 1, 0, &[("x", f64::NAN, "ms")]);
        assert_eq!(bad.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(metric_value(&bad, "x"), Some(0.0));
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound() {
        let suite = |p50: [f64; 4]| {
            let runs: Vec<Json> = p50
                .iter()
                .map(|v| result_line(true, 1, 0, &[("edit_p50_ms", *v, "ms")]))
                .collect();
            Json::Obj(vec![(
                "runs".into(),
                Json::Obj(vec![("w".into(), Json::Arr(runs))]),
            )])
        };
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "edit_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let a = suite([10.0, 10.1, 9.9, 10.0]);
        let (_, flagged) = compare(&a, &suite([10.2, 10.3, 10.1, 10.2]), &bench).unwrap();
        assert!(!flagged);
        let (report, flagged) = compare(&a, &suite([12.0, 12.1, 11.9, 12.0]), &bench).unwrap();
        assert!(flagged);
        assert!(report.contains("REGRESSION"), "{report}");
        let (report, flagged) = compare(&a, &suite([6.0, 10.0, 14.0, 10.0]), &bench).unwrap();
        assert!(flagged);
        assert!(report.contains("SPREAD(B)"), "{report}");
        assert!(!report.contains("REGRESSION"), "{report}");
    }
}
