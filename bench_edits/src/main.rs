//! `bench_edits`: the edit-session benchmark's command line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use bench_edits::json::Json;
use bench_edits::suite::{compare, run_once, run_suite, session_line, summarize, RunArgs};
use bench_edits::workload::{Workload, RUN_SECONDS};

const USAGE: &str = "\
usage:
  bench_edits --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]
      one run of one workload; the last line of stdout is the result
  bench_edits session --workload <name> --seed <n> [--quick]
      one untraced session in this process, reported raw (a run spawns these)
  bench_edits all [--workload <name>]... [--seed <n>] [--runs <r>] [--seconds <s>]
                  [--quick] [--out <file>]
      <r> untraced runs (seeds <n>, <n>+1, ...) of each workload, saved as a suite file
  bench_edits compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]
      medians and quartiles of two suite files, flagging metrics outside their bounds
workloads: obs_sweep, tail_edit, wide_program, grow_resample";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("session") => cmd_session(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => cmd_run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bench_edits: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", flags.positional[0]));
    }
    let run = RunArgs {
        workload: workload(flags.get("workload").ok_or("--workload is required")?)?,
        seed: flags.num("seed", None)?,
        seconds: seconds(&flags)?,
        trace: trace(&flags)?,
        quick: flags.quick,
    };
    println!("{}", run_once(&run)?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_session(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument `{}`", flags.positional[0]));
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    println!(
        "{}",
        session_line(workload(name)?, flags.num("seed", None)?, flags.quick)?
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "runs", "seconds", "out"])?;
    let mut workloads = flags
        .all("workload")
        .into_iter()
        .map(workload)
        .collect::<Result<Vec<_>, _>>()?;
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    let seed = flags.num("seed", Some(1))?;
    let runs: u64 = flags.num("runs", Some(5))?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let suite = run_suite(&workloads, seed, runs, seconds(&flags)?, flags.quick)?;
    let out = flags.get("out").map_or_else(
        || Path::new(bench_edits::OUT_DIR).join(format!("suite-seed{seed}.json")),
        PathBuf::from,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{suite}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    print!("{}", summarize(&suite)?);
    println!("suite written to {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["benchmark"])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err("compare takes two suite files".into());
    };
    let bench = flags.get("benchmark").unwrap_or("BENCHMARK.json");
    let (report, flagged) = compare(&read_json(a)?, &read_json(b)?, &read_json(bench)?)?;
    print!("{report}");
    Ok(if flagged {
        println!("some metrics are outside their bounds");
        ExitCode::from(1)
    } else {
        println!("every metric is within its bound");
        ExitCode::SUCCESS
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

fn seconds(flags: &Flags) -> Result<u64, String> {
    match flags.num("seconds", Some(RUN_SECONDS))? {
        0 => Err("--seconds must be at least 1".into()),
        s => Ok(s),
    }
}

fn trace(flags: &Flags) -> Result<bool, String> {
    match flags.get("trace").unwrap_or("0") {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace takes 0 or 1, not `{other}`")),
    }
}

/// Parsed `--name value` flags, the `--quick` switch, and positional
/// arguments.
struct Flags {
    values: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--quick" {
                flags.quick = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                if !known.contains(&name) {
                    return Err(format!("unknown flag `{arg}`"));
                }
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.push((name.to_string(), value.clone()));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn num<T: FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, not `{v}`")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }
}
