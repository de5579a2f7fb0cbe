//! The `ppl` binary: parses the command line once with
//! [`ppl_cli::Args`], reads the files it names and dispatches to
//! [`ppl_cli`].

use std::process::ExitCode;

use ppl_cli::{Args, CliError, SequenceOpts};

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

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::io(format!("cannot read `{path}`: {e}")))
}

fn write(path: &str, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(|e| CliError::io(format!("cannot write `{path}`: {e}")))
}

/// The options `translate` and `sequence` share; a flag the command does
/// not take is never given, so it keeps its default. A run must start
/// from at least one particle, so an empty starting collection is refused
/// here, before any work.
fn sequence_opts(args: &Args) -> Result<SequenceOpts, CliError> {
    let defaults = SequenceOpts::default();
    let deadline_ms = args.get("--deadline-ms")?;
    if deadline_ms == Some(0) {
        return Err(CliError::usage("--deadline-ms must be at least 1"));
    }
    let traces = args.get("--traces")?.unwrap_or(defaults.traces);
    if traces == 0 {
        return Err(CliError::usage("--traces must be at least 1"));
    }
    let load = match args.value("--load") {
        Some(path) => {
            let saved = read(path)?;
            let parsed = ppl::trace_io::parse_weighted_collection(&saved);
            if parsed.is_ok_and(|entries| entries.is_empty()) {
                return Err(CliError::usage(format!(
                    "`{path}` holds no traces: a run needs at least one to start from"
                )));
            }
            Some(saved)
        }
        None => None,
    };
    Ok(SequenceOpts {
        traces,
        seed: args.get("--seed")?.unwrap_or(defaults.seed),
        threads: args.get("--threads")?.unwrap_or(defaults.threads),
        policy: match args.value("--policy") {
            Some(spec) => ppl_cli::parse_policy(spec)?,
            None => defaults.policy,
        },
        deadline_ms,
        checkpoint_dir: args.get("--checkpoint")?,
        checkpoint_every: args
            .get("--checkpoint-every")?
            .unwrap_or(defaults.checkpoint_every),
        resume: args.has("--resume"),
        metrics_out: args.get("--metrics-out")?,
        load,
    })
}

fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    let file = |i: usize| read(&args.positionals[i]);
    let render = |r: Result<String, ppl::PplError>| r.map_err(CliError::from);
    let seed = args.get("--seed")?.unwrap_or(0);

    match args.command.name {
        "help" => Ok(ppl_cli::usage()),
        "check" => ppl_cli::cmd_check(&file(0)?, args.has("--deny-warnings")),
        "analyze" => render(ppl_cli::cmd_analyze(
            &file(0)?,
            &file(1)?,
            args.has("--json"),
        )),
        "fmt" => render(ppl_cli::cmd_fmt(&file(0)?)),
        "run" => {
            let source = file(0)?;
            match args.value("--save") {
                Some(path) => {
                    write(path, &render(ppl_cli::cmd_run_save(&source, seed))?)?;
                    Ok(format!("saved trace to {path}\n"))
                }
                None => render(ppl_cli::cmd_run(&source, seed)),
            }
        }
        "enumerate" => {
            let limit = args.get("--limit")?;
            render(ppl_cli::cmd_enumerate(
                &file(0)?,
                limit.unwrap_or(ppl::enumerate::DEFAULT_CHOICE_LIMIT),
            ))
        }
        "sample" => {
            let steps = args.get("--steps")?.unwrap_or(10_000);
            match args.value("--save") {
                Some(path) => {
                    let keep = args.get("--keep")?.unwrap_or(100);
                    let text = render(ppl_cli::cmd_sample_save(&file(0)?, steps, keep, seed))?;
                    write(path, &text)?;
                    Ok(format!("saved samples to {path}\n"))
                }
                None => {
                    args.refuse("sample without --save", &["--keep"])?;
                    render(ppl_cli::cmd_sample(&file(0)?, steps, seed))
                }
            }
        }
        "translate" if args.has("--stats") => {
            args.refuse("translate --stats", &["--policy", "--load"])?;
            let graphs = args.get("--traces")?.unwrap_or(1);
            render(ppl_cli::cmd_translate_stats(
                &file(0)?,
                &file(1)?,
                graphs,
                seed,
            ))
        }
        "translate" => {
            if args.has("--load") {
                args.refuse("translate --load", &["--traces"])?;
            }
            let opts = sequence_opts(&args)?;
            ppl_cli::cmd_sequence_supervised(&[file(0)?, file(1)?], &opts)
        }
        "sequence" => {
            if !args.has("--checkpoint") {
                args.refuse("sequence without --checkpoint", &["--checkpoint-every"])?;
            }
            let opts = sequence_opts(&args)?;
            if args.has("--verify-slices") {
                depgraph::set_verify_slices(true);
            }
            let sources = args
                .positionals
                .iter()
                .map(|path| read(path))
                .collect::<Result<Vec<_>, _>>()?;
            ppl_cli::cmd_sequence_supervised(&sources, &opts)
        }
        _ => unreachable!("every command of `COMMANDS` has an arm"),
    }
}
