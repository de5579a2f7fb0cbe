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

fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
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
        args.iter()
            .skip(1)
            .filter(|a| !a.starts_with("--"))
            .nth(n)
            .ok_or_else(|| format!("missing argument; see `ppl help`\n{}", ppl_cli::usage()))
    };
    let render = |r: Result<String, ppl::PplError>| r.map_err(CliError::from);

    if args.iter().any(|a| a == "--verify-slices") {
        depgraph::set_verify_slices(true);
    }

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
            let mut sources = Vec::new();
            let mut skip_next = false;
            for arg in args.iter().skip(1) {
                if skip_next {
                    skip_next = false;
                    continue;
                }
                if arg == "--resume" || arg == "--verify-slices" {
                    // Boolean sequence flags: take no value.
                    continue;
                }
                if arg.starts_with("--") {
                    // Every other sequence flag takes a value.
                    skip_next = true;
                    continue;
                }
                sources.push(read(arg)?);
            }
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
            let chunk_size = match args.iter().position(|a| a == "--chunk-size") {
                None => None,
                Some(_) => {
                    let k = flag("--chunk-size", 0)? as usize;
                    if k == 0 {
                        return Err(CliError::usage("--chunk-size must be at least 1"));
                    }
                    Some(k)
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
                chunk_size,
            };
            ppl_cli::cmd_sequence_supervised(&sources, &opts)
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n{}",
            ppl_cli::usage()
        ))),
    }
}
