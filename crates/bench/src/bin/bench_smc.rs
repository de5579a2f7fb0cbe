//! `bench_smc` — runs the BENCH_smc edit-sequence benchmark, prints its
//! timings, and with `--out PATH` writes the `bench-smc/v1` document.
//!
//! Usage:
//!
//! ```text
//! bench_smc [--quick] [--label NAME] [--out PATH] [--threads N]
//!           [--particles N] [--chain-len N] [--steps N] [--repeats N]
//!           [--scaling-sizes N,N,...]
//! ```
//!
//! `--quick` selects the tiny CI smoke configuration. Without `--out`
//! nothing is written, so a run never overwrites a committed baseline;
//! committed baselines merge one entry per measured build. An unknown
//! flag or a malformed value prints this usage to stderr and exits 2
//! before any work; `--help` prints it to stdout.

use std::process::ExitCode;

use benches::smc_bench::{run, SmcBenchConfig};

const USAGE: &str = "\
usage: bench_smc [--quick] [--label NAME] [--out PATH] [--threads N]
                 [--particles N] [--chain-len N] [--steps N] [--repeats N]
                 [--scaling-sizes N,N,...]
  --quick   the tiny CI smoke configuration
  --out     write the bench-smc/v1 document to PATH (default: write nothing)";

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Help,
    Run {
        config: SmcBenchConfig,
        label: String,
        out: Option<String>,
    },
}

/// Parses the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut config = if quick {
        SmcBenchConfig::quick()
    } else {
        SmcBenchConfig::default()
    };
    let mut label = if quick { "quick" } else { "full" }.to_string();
    let mut out = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            continue;
        }
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<usize>()
                .map_err(|e| format!("{flag} takes a number, not `{v}`: {e}"))
        };
        match flag.as_str() {
            "--label" => label = value()?,
            "--out" => out = Some(value()?),
            "--threads" => config.threads = number(value()?)?,
            "--particles" => config.particles = number(value()?)?,
            "--chain-len" => config.chain_len = number(value()?)?,
            "--steps" => config.steps = number(value()?)?,
            "--repeats" => config.repeats = number(value()?)?,
            "--scaling-sizes" => {
                config.scaling_sizes = value()?
                    .split(',')
                    .map(|s| number(s.trim().to_string()))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run { config, label, out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, label, out) = match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run { config, label, out }) => (config, label, out),
        Err(e) => {
            eprintln!("bench_smc: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config, &label);
    print!("{}", report.render());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).expect("write benchmark output");
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_write_nothing() {
        let Ok(Command::Run { config, label, out }) = parse(&[]) else {
            panic!("no arguments run the default benchmark");
        };
        assert_eq!(config.particles, SmcBenchConfig::default().particles);
        assert_eq!(label, "full");
        assert_eq!(out, None);
    }

    #[test]
    fn flags_set_the_run() {
        let parsed = parse(&[
            "--threads",
            "4",
            "--quick",
            "--particles",
            "800",
            "--label",
            "ci-smoke",
            "--out",
            "bench-smoke.json",
            "--scaling-sizes",
            "16, 64,256",
        ]);
        let Ok(Command::Run { config, label, out }) = parsed else {
            panic!("a valid command line runs: {parsed:?}");
        };
        assert_eq!((config.threads, config.particles), (4, 800));
        assert_eq!(config.chain_len, SmcBenchConfig::quick().chain_len);
        assert_eq!(config.scaling_sizes, vec![16, 64, 256]);
        assert_eq!(label, "ci-smoke");
        assert_eq!(out.as_deref(), Some("bench-smoke.json"));
        assert!(matches!(parse(&["--quick"]), Ok(Command::Run { label, .. }) if label == "quick"));
    }

    #[test]
    fn help_and_bad_arguments() {
        assert!(matches!(parse(&["--help"]), Ok(Command::Help)));
        assert!(matches!(parse(&["--quick", "-h"]), Ok(Command::Help)));
        for (args, message) in [
            (&["--no-such-flag"][..], "unknown argument `--no-such-flag`"),
            (&["--quick", "extra"][..], "unknown argument `extra`"),
            (&["--out"][..], "--out needs a value"),
            (&["--threads", "four"][..], "--threads takes a number"),
            (
                &["--scaling-sizes", "16,x"][..],
                "--scaling-sizes takes a number",
            ),
        ] {
            match parse(args) {
                Err(e) => assert!(e.contains(message), "{args:?}: {e}"),
                Ok(command) => panic!("{args:?} parsed as {command:?}"),
            }
        }
    }
}
