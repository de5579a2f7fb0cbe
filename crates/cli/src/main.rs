//! The `ppl` binary: thin argument/file plumbing over [`ppl_cli`].

use std::path::PathBuf;
use std::process::ExitCode;

use ppl_cli::CliError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// The flags `command` takes, each with whether it takes a value, or
/// `None` for an unknown command.
fn command_flags(command: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match command {
        "help" | "--help" | "-h" | "fmt" => &[],
        "check" => &[("--deny-warnings", false)],
        "analyze" => &[("--json", false)],
        "run" => &[("--seed", true), ("--save", true)],
        "enumerate" => &[("--limit", true)],
        "sample" => &[
            ("--steps", true),
            ("--seed", true),
            ("--save", true),
            ("--keep", true),
        ],
        "translate" => &[
            ("--traces", true),
            ("--seed", true),
            ("--policy", true),
            ("--stats", false),
            ("--load", true),
        ],
        "sequence" => &[
            ("--traces", true),
            ("--seed", true),
            ("--threads", true),
            ("--policy", true),
            ("--checkpoint", true),
            ("--checkpoint-every", true),
            ("--deadline-ms", true),
            ("--resume", false),
            ("--metrics-out", true),
            ("--verify-slices", false),
        ],
        _ => return None,
    })
}

/// The positional arguments of `command`'s arguments `args`: everything
/// but its flags and their values. A flag the command does not take is a
/// usage error, so a typo or a removed flag never runs with defaults.
fn positionals<'a>(
    command: &str,
    flags: &[(&str, bool)],
    args: &'a [String],
) -> Result<Vec<&'a String>, CliError> {
    let mut out = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            out.push(arg);
            continue;
        }
        match flags.iter().find(|(name, _)| name == arg) {
            Some((_, true)) => {
                args.next();
            }
            Some((_, false)) => {}
            None => {
                return Err(CliError::usage(format!(
                    "`{command}` does not take `{arg}`; see `ppl help`"
                )))
            }
        }
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    let Some(flags) = command_flags(command) else {
        return Err(CliError::usage(format!(
            "unknown command `{command}`\n{}",
            ppl_cli::usage()
        )));
    };
    let positional_args = positionals(command, flags, args.get(1..).unwrap_or_default())?;
    let read = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::io(format!("cannot read `{path}`: {e}")))
    };
    let flag = |name: &str, default: u64| -> Result<u64, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(default),
            Some(i) => args
                .get(i + 1)
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}")),
        }
    };
    let positional = |n: usize| -> Result<&String, String> {
        positional_args
            .get(n)
            .copied()
            .ok_or_else(|| format!("missing argument; see `ppl help`\n{}", ppl_cli::usage()))
    };
    let render = |r: Result<String, ppl::PplError>| r.map_err(CliError::from);

    match command {
        "help" | "--help" | "-h" => Ok(ppl_cli::usage()),
        "check" => ppl_cli::cmd_check(
            &read(positional(0)?)?,
            args.iter().any(|a| a == "--deny-warnings"),
        ),
        "analyze" => render(ppl_cli::cmd_analyze(
            &read(positional(0)?)?,
            &read(positional(1)?)?,
            args.iter().any(|a| a == "--json"),
        )),
        "fmt" => render(ppl_cli::cmd_fmt(&read(positional(0)?)?)),
        "run" => {
            let source = read(positional(0)?)?;
            let seed = flag("--seed", 0)?;
            match args.iter().position(|a| a == "--save") {
                Some(i) => {
                    let path = args
                        .get(i + 1)
                        .ok_or_else(|| "--save needs a path".to_string())?;
                    let text = render(ppl_cli::cmd_run_save(&source, seed))?;
                    std::fs::write(path, text)
                        .map_err(|e| CliError::io(format!("cannot write `{path}`: {e}")))?;
                    Ok(format!("saved trace to {path}\n"))
                }
                None => render(ppl_cli::cmd_run(&source, seed)),
            }
        }
        "enumerate" => {
            let source = read(positional(0)?)?;
            render(ppl_cli::cmd_enumerate(
                &source,
                flag("--limit", ppl::enumerate::DEFAULT_CHOICE_LIMIT as u64)? as usize,
            ))
        }
        "sample" => {
            let source = read(positional(0)?)?;
            let steps = flag("--steps", 10_000)? as usize;
            let seed = flag("--seed", 0)?;
            match args.iter().position(|a| a == "--save") {
                Some(i) => {
                    let path = args
                        .get(i + 1)
                        .ok_or_else(|| "--save needs a path".to_string())?;
                    let keep = flag("--keep", 100)? as usize;
                    let text = render(ppl_cli::cmd_sample_save(&source, steps, keep, seed))?;
                    std::fs::write(path, text)
                        .map_err(|e| CliError::io(format!("cannot write `{path}`: {e}")))?;
                    Ok(format!("saved samples to {path}\n"))
                }
                None => render(ppl_cli::cmd_sample(&source, steps, seed)),
            }
        }
        "translate" => {
            let p = read(positional(0)?)?;
            let q = read(positional(1)?)?;
            if args.iter().any(|a| a == "--stats") {
                render(ppl_cli::cmd_translate_stats(&p, &q, flag("--seed", 0)?))
            } else if let Some(i) = args.iter().position(|a| a == "--load") {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| "--load needs a path".to_string())?;
                let saved = read(path)?;
                render(ppl_cli::cmd_translate_saved(
                    &p,
                    &q,
                    &saved,
                    flag("--seed", 0)?,
                ))
            } else {
                let policy = match args.iter().position(|a| a == "--policy") {
                    None => incremental::FailurePolicy::FailFast,
                    Some(i) => {
                        let spec = args
                            .get(i + 1)
                            .ok_or_else(|| "--policy needs a value".to_string())?;
                        ppl_cli::parse_policy(spec).map_err(|e| e.to_string())?
                    }
                };
                render(ppl_cli::cmd_translate(
                    &p,
                    &q,
                    flag("--traces", 1_000)? as usize,
                    flag("--seed", 0)?,
                    &policy,
                ))
            }
        }
        "sequence" => {
            if args.iter().any(|a| a == "--verify-slices") {
                depgraph::set_verify_slices(true);
            }
            let sources = positional_args
                .iter()
                .map(|path| read(path))
                .collect::<Result<Vec<_>, _>>()?;
            if sources.len() < 2 {
                return Err(CliError::usage(format!(
                    "sequence needs at least two program files\n{}",
                    ppl_cli::usage()
                )));
            }
            let policy = match args.iter().position(|a| a == "--policy") {
                None => incremental::FailurePolicy::FailFast,
                Some(i) => {
                    let spec = args
                        .get(i + 1)
                        .ok_or_else(|| "--policy needs a value".to_string())?;
                    ppl_cli::parse_policy(spec).map_err(|e| e.to_string())?
                }
            };
            let checkpoint_dir = match args.iter().position(|a| a == "--checkpoint") {
                None => None,
                Some(i) => Some(PathBuf::from(
                    args.get(i + 1)
                        .ok_or_else(|| "--checkpoint needs a path".to_string())?,
                )),
            };
            let deadline_ms = match args.iter().position(|a| a == "--deadline-ms") {
                None => None,
                Some(_) => {
                    let ms = flag("--deadline-ms", 0)?;
                    if ms == 0 {
                        return Err(CliError::usage("--deadline-ms must be at least 1"));
                    }
                    Some(ms)
                }
            };
            let metrics_out = match args.iter().position(|a| a == "--metrics-out") {
                None => None,
                Some(i) => Some(PathBuf::from(
                    args.get(i + 1)
                        .ok_or_else(|| "--metrics-out needs a path".to_string())?,
                )),
            };
            let opts = ppl_cli::SequenceOpts {
                traces: flag("--traces", 1_000)? as usize,
                seed: flag("--seed", 0)?,
                threads: flag("--threads", 1)? as usize,
                policy,
                deadline_ms,
                checkpoint_dir,
                checkpoint_every: flag("--checkpoint-every", 1)? as usize,
                resume: args.iter().any(|a| a == "--resume"),
                metrics_out,
            };
            ppl_cli::cmd_sequence_supervised(&sources, &opts)
        }
        _ => unreachable!("`command_flags` knows every command"),
    }
}
