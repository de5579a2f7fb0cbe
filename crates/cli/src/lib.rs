//! # ppl-cli — command-line front end
//!
//! Drives the workspace from program *source text*: static checks and
//! edit analysis, simulation, exact enumeration, single-site MH, and
//! incremental inference across one edit (`translate`, a one-stage
//! `sequence`) or a whole edit history (`sequence`).
//!
//! All command logic lives here as functions from source text to rendered
//! output, so it is directly unit-testable. [`COMMANDS`] describes every
//! command once: [`Args::parse`] parses a command line from it and
//! [`usage`] renders `ppl help` from it. `main.rs` only reads files and
//! dispatches.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use depgraph::{
    diff_programs, impact_of_edit, program_fingerprint, resume_collection,
    run_edit_sequence_supervised, EditImpact, ExecGraph, IncrementalTranslator,
};
use incremental::{
    collection_checksum, Checkpoint, CheckpointError, FailurePolicy, McmcKernel, MetricsRecorder,
    ParticleCollection, SmcConfig, SmcError, StageObserver, StagePolicy, StageSnapshot,
};
use inference::{ExactPosterior, SingleSiteMh};
use ppl::analysis::{preorder, slot_names, stmt_label};
use ppl::ast::Program;
use ppl::check::{check_with_spans, Severity};
use ppl::handlers::simulate;
use ppl::logweight::log_sum_exp;
use ppl::{parse, parse_with_spans, Enumeration, LogWeight, PplError, SlotId, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parses and statically checks a program; renders the diagnostics with
/// source spans and stable codes (`PPL001`, …).
///
/// Exits non-zero when the program has findings: any `error`-severity
/// diagnostic fails the check, and with `deny_warnings` so does any
/// warning (for CI lint gates).
///
/// # Errors
///
/// Returns parse errors and failed checks, both with exit code 1; the
/// rendered diagnostics ride in the error message.
pub fn cmd_check(source: &str, deny_warnings: bool) -> Result<String, CliError> {
    let (program, spans) = parse_with_spans(source).map_err(CliError::from)?;
    let diagnostics = check_with_spans(&program, Some(&spans));
    if diagnostics.is_empty() {
        return Ok("no issues found\n".to_string());
    }
    let mut out = String::new();
    for d in &diagnostics {
        let _ = writeln!(out, "{d}");
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    if errors > 0 || (deny_warnings && warnings > 0) {
        if errors == 0 {
            let _ = writeln!(out, "check failed: warnings denied (--deny-warnings)");
        }
        return Err(CliError::usage(out.trim_end().to_string()));
    }
    Ok(out)
}

/// Renders a JSON string literal (escaping quotes, backslashes, and
/// control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a JSON array of strings from any string iterator.
fn json_string_array<'a>(items: impl Iterator<Item = &'a str>) -> String {
    let rendered: Vec<String> = items.map(json_string).collect();
    format!("[{}]", rendered.join(", "))
}

/// Static diff-impact analysis across a program edit: diffs the two
/// programs, infers per-statement effects of the new program, and
/// computes the over-approximate impact slice — which statements any
/// execution could revisit under the edit and which variables may go
/// dirty. Statements outside the slice are proven skippable, so this
/// predicts (without running anything) how much work the incremental
/// runtime can statically pre-prune.
///
/// With `json`, emits a versioned machine-readable report
/// (`ppl-analyze/v1`) instead of the human table.
///
/// # Errors
///
/// Returns parse errors.
pub fn cmd_analyze(old_source: &str, new_source: &str, json: bool) -> Result<String, PplError> {
    let p = parse(old_source)?;
    let q = parse(new_source)?;
    let edit = diff_programs(&p, &q);
    let EditImpact {
        compiled,
        effects,
        impact,
    } = impact_of_edit(&q, &p, &edit);
    let stmts = preorder(&q);
    let names = |slots: &[SlotId]| slot_names(&compiled, slots.iter().copied());
    let dirty = slot_names(&compiled, impact.may_dirty());
    let sites = impact.sites(&stmts);
    let mut out = String::new();
    if json {
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"ppl-analyze/v1\",");
        let _ = writeln!(out, "  \"statements\": {},", impact.total());
        let _ = writeln!(out, "  \"impacted\": {},", impact.impacted_count());
        let _ = writeln!(out, "  \"skippable\": {},", impact.skippable_count());
        let _ = writeln!(
            out,
            "  \"may_dirty\": {},",
            json_string_array(dirty.iter().copied())
        );
        let _ = writeln!(
            out,
            "  \"sites\": {},",
            json_string_array(sites.iter().map(String::as_str))
        );
        let _ = writeln!(out, "  \"stmts\": [");
        for (i, stmt) in stmts.iter().enumerate() {
            let mut samples = Vec::new();
            stmt.collect_sites(&mut samples);
            let samples: BTreeSet<&str> = samples.iter().map(|s| s.as_str()).collect();
            let _ = writeln!(
                out,
                "    {{\"index\": {i}, \"depth\": {}, \"label\": {}, \
                 \"impacted\": {}, \"reads\": {}, \"writes\": {}, \"samples\": {}}}{}",
                effects.stmt(i).depth,
                json_string(&stmt_label(stmt)),
                impact.contains(i),
                json_string_array(names(effects.subtree_reads(i)).into_iter()),
                json_string_array(names(effects.subtree_writes(i)).into_iter()),
                json_string_array(samples.into_iter()),
                if i + 1 < stmts.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "impact slice: {} of {} statement(s) impacted, {} proven skippable",
        impact.impacted_count(),
        impact.total(),
        impact.skippable_count()
    );
    let joined = |names: BTreeSet<&str>| names.into_iter().collect::<Vec<_>>().join(", ");
    for (i, stmt) in stmts.iter().enumerate() {
        let verdict = if impact.contains(i) {
            "impacted "
        } else {
            "skippable"
        };
        let _ = writeln!(
            out,
            "  #{:<3} {}{:<24} {}  reads={{{}}} writes={{{}}}",
            i,
            "  ".repeat(effects.stmt(i).depth),
            stmt_label(stmt),
            verdict,
            joined(names(effects.subtree_reads(i))),
            joined(names(effects.subtree_writes(i))),
        );
    }
    let sites: BTreeSet<&str> = sites.iter().map(String::as_str).collect();
    let _ = writeln!(out, "may-dirty variables: {{{}}}", joined(dirty));
    let _ = writeln!(out, "revisited sites: {{{}}}", joined(sites));
    Ok(out)
}

/// Pretty-prints a program in canonical form (explicit site labels).
///
/// # Errors
///
/// Returns parse errors.
pub fn cmd_fmt(source: &str) -> Result<String, PplError> {
    Ok(parse(source)?.to_string())
}

/// Simulates one trace and renders it.
///
/// # Errors
///
/// Returns parse and evaluation errors.
pub fn cmd_run(source: &str, seed: u64) -> Result<String, PplError> {
    let program = parse(source)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = simulate(&program, &mut rng)?;
    Ok(trace.to_string())
}

/// Simulates one trace and serializes its choices in the
/// [`ppl::trace_io`] format (for `ppl run --save`).
///
/// # Errors
///
/// Returns parse and evaluation errors.
pub fn cmd_run_save(source: &str, seed: u64) -> Result<String, PplError> {
    let program = parse(source)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = simulate(&program, &mut rng)?;
    Ok(ppl::trace_io::write_choice_map(&trace.to_choice_map()))
}

/// Runs single-site MH and serializes thinned chain states as a weighted
/// collection (for `ppl sample --save`; unit weights).
///
/// # Errors
///
/// Returns parse and evaluation errors.
pub fn cmd_sample_save(
    source: &str,
    steps: usize,
    keep: usize,
    seed: u64,
) -> Result<String, PplError> {
    let program = parse(source)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let thin = (steps / keep.max(1)).max(1);
    let mut entries = Vec::with_capacity(keep);
    mh_chain(
        &program,
        &mut rng,
        0,
        thin,
        keep.min(steps / thin),
        |trace| entries.push((trace.to_choice_map(), 0.0)),
    )?;
    Ok(ppl::trace_io::write_weighted_collection(&entries))
}

/// Runs single-site MH on `program` from a simulated state: `burn_in`
/// steps, then `count` states `thin` steps apart, each handed to `keep`.
/// `sample`, `sample --save` and the MH fallback of [`initial_particles`]
/// are this one chain with their own spacing.
fn mh_chain(
    program: &Program,
    rng: &mut StdRng,
    burn_in: usize,
    thin: usize,
    count: usize,
    mut keep: impl FnMut(&Trace),
) -> Result<(), PplError> {
    let kernel = SingleSiteMh::new(program.clone());
    let mut state = simulate(program, rng)?;
    for _ in 0..burn_in {
        state = kernel.step(&state, rng)?;
    }
    for _ in 0..count {
        for _ in 0..thin {
            state = kernel.step(&state, rng)?;
        }
        keep(&state);
    }
    Ok(())
}

/// Exactly enumerates a finite discrete program: normalizing constant and
/// the posterior over return values.
///
/// # Errors
///
/// Returns parse/enumeration errors (e.g. continuous choices).
pub fn cmd_enumerate(source: &str, limit: usize) -> Result<String, PplError> {
    let program = parse(source)?;
    let enumeration = Enumeration::run_with_limit(&program, limit)?;
    let mut out = String::new();
    let _ = writeln!(out, "traces: {}", enumeration.traces().len());
    let _ = writeln!(out, "Z = {:.6}", enumeration.z());
    let _ = writeln!(out, "posterior over return values:");
    let mut rows = enumeration.return_distribution();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (value, prob) in rows {
        let _ = writeln!(out, "  {value} : {prob:.6}");
    }
    Ok(out)
}

/// Runs single-site MH and renders the empirical return-value
/// distribution.
///
/// # Errors
///
/// Returns parse and evaluation errors.
pub fn cmd_sample(source: &str, steps: usize, seed: u64) -> Result<String, PplError> {
    let program = parse(source)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let burn_in = steps / 5;
    let mut counts: Vec<(Value, usize)> = Vec::new();
    mh_chain(&program, &mut rng, burn_in, 1, steps - burn_in, |trace| {
        if let Some(v) = trace.return_value() {
            match counts.iter_mut().find(|(u, _)| u.num_eq(v)) {
                Some(slot) => slot.1 += 1,
                None => counts.push((v.clone(), 1)),
            }
        }
    })?;
    let kept = (steps - burn_in).max(1);
    counts.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
    let mut out = String::new();
    let _ = writeln!(out, "{steps} MH steps ({burn_in} burn-in); return values:");
    for (value, count) in counts.into_iter().take(20) {
        let _ = writeln!(out, "  {value} : {:.4}", count as f64 / kept as f64);
    }
    Ok(out)
}

/// Parses a `--policy` argument: `fail-fast`, `drop:<max_loss>` (e.g.
/// `drop:0.1`), or `retry:<attempts>[:<seed>]` (e.g. `retry:3` or
/// `retry:3:42`).
///
/// # Errors
///
/// Returns an error describing the expected grammar on a malformed spec.
pub fn parse_policy(spec: &str) -> Result<FailurePolicy, PplError> {
    let bad = |msg: &str| {
        PplError::Other(format!(
            "invalid --policy `{spec}`: {msg} \
             (expected `fail-fast`, `drop:<max_loss>`, or `retry:<attempts>[:<seed>]`)"
        ))
    };
    let mut parts = spec.split(':');
    match parts.next() {
        Some("fail-fast") => match parts.next() {
            None => Ok(FailurePolicy::FailFast),
            Some(_) => Err(bad("fail-fast takes no parameter")),
        },
        Some("drop") => {
            let max_loss: f64 = parts
                .next()
                .ok_or_else(|| bad("drop needs a loss fraction"))?
                .parse()
                .map_err(|_| bad("loss fraction must be a number"))?;
            if !(0.0..=1.0).contains(&max_loss) {
                return Err(bad("loss fraction must be in [0, 1]"));
            }
            match parts.next() {
                None => Ok(FailurePolicy::DropAndRenormalize { max_loss }),
                Some(_) => Err(bad("drop takes one parameter")),
            }
        }
        Some("retry") => {
            let max_attempts: usize = parts
                .next()
                .ok_or_else(|| bad("retry needs an attempt count"))?
                .parse()
                .map_err(|_| bad("attempt count must be an integer"))?;
            if max_attempts == 0 {
                return Err(bad("attempt count must be at least 1"));
            }
            let seed: u64 = match parts.next() {
                None => 0,
                Some(s) => s.parse().map_err(|_| bad("seed must be an integer"))?,
            };
            match parts.next() {
                None => Ok(FailurePolicy::Retry { max_attempts, seed }),
                Some(_) => Err(bad("retry takes at most two parameters")),
            }
        }
        _ => Err(bad("unknown policy")),
    }
}

/// The particles a fresh run starts from, noting their source in `out`:
/// the saved collection `opts.load`, each choice map scored under `p`, or
/// else `opts.traces` posterior samples of `p` — exact when the program is
/// finite discrete, otherwise a thinned single-site MH chain.
fn initial_particles(
    p: &Program,
    opts: &SequenceOpts,
    out: &mut String,
) -> Result<ParticleCollection, PplError> {
    let Some(saved) = &opts.load else {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let traces = match ExactPosterior::new(p) {
            Ok(sampler) => {
                let _ = writeln!(out, "P posterior: exact (by enumeration)");
                sampler.samples(opts.traces, &mut rng)
            }
            Err(_) => {
                let _ = writeln!(out, "P posterior: single-site MH (thinned chain)");
                let mut collected = Vec::with_capacity(opts.traces);
                mh_chain(p, &mut rng, 500, 10, opts.traces, |trace| {
                    collected.push(trace.clone())
                })?;
                collected
            }
        };
        return Ok(ParticleCollection::from_traces(traces));
    };
    let entries = ppl::trace_io::parse_weighted_collection(saved)?;
    let mut particles = ParticleCollection::new();
    for (map, log_weight) in &entries {
        // Replay against P to rebuild full traces (re-validating them).
        let trace = ppl::handlers::score(p, map)?;
        particles.push(trace, LogWeight::from_log(*log_weight));
    }
    let _ = writeln!(out, "P posterior: loaded {} traces", entries.len());
    Ok(particles)
}

/// Appends the weighted posterior over return values (top 20 rows).
fn render_return_posterior(
    out: &mut String,
    collection: &ParticleCollection,
) -> Result<(), PplError> {
    let _ = writeln!(out, "weighted posterior over Q's return values:");
    let mut rows: Vec<(Value, f64)> = Vec::new();
    let weights = collection.normalized_weights()?;
    for (particle, w) in collection.iter().zip(weights) {
        if let Some(v) = particle.trace.return_value() {
            match rows.iter_mut().find(|(u, _)| u.num_eq(v)) {
                Some(slot) => slot.1 += w,
                None => rows.push((v.clone(), w)),
            }
        }
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (value, prob) in rows.into_iter().take(20) {
        let _ = writeln!(out, "  {value} : {prob:.4}");
    }
    Ok(())
}

/// A CLI-level error: a rendered message plus the process exit code it
/// maps to, so callers (and scripts around the `ppl` binary) can tell
/// inference failures from I/O problems.
///
/// Exit codes: `1` usage/parse/evaluation errors, `2` inference failures
/// (particle collapse, fail-fast particle errors, excessive drop loss),
/// `3` I/O and checkpoint errors.
#[derive(Debug)]
pub struct CliError {
    /// The message printed to stderr.
    pub message: String,
    /// The process exit code (1, 2, or 3).
    pub code: u8,
}

impl CliError {
    /// A usage / parse / evaluation error (exit code 1).
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 1,
        }
    }

    /// An I/O error (exit code 3).
    pub fn io(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 3,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::usage(message)
    }
}

impl From<PplError> for CliError {
    fn from(e: PplError) -> CliError {
        CliError::usage(e.to_string())
    }
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> CliError {
        CliError::io(e.to_string())
    }
}

impl From<SmcError> for CliError {
    fn from(e: SmcError) -> CliError {
        let code = match &e {
            SmcError::Particle(_) | SmcError::TooManyDropped { .. } | SmcError::Collapse { .. } => {
                2
            }
            _ => 1,
        };
        CliError {
            message: e.to_string(),
            code,
        }
    }
}

/// Options for [`cmd_sequence_supervised`] beyond the program sources.
#[derive(Debug, Clone)]
pub struct SequenceOpts {
    /// Number of posterior traces of the first program to start from.
    pub traces: usize,
    /// Base seed; all per-stage randomness derives from it.
    pub seed: u64,
    /// Worker-pool width (1 = serial).
    pub threads: usize,
    /// Per-particle failure policy.
    pub policy: FailurePolicy,
    /// Deadline per translation attempt, in milliseconds
    /// ([`StagePolicy::deadline`]).
    pub deadline_ms: Option<u64>,
    /// Directory for durable checkpoints (`--checkpoint`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N completed stages (`--checkpoint-every`).
    pub checkpoint_every: usize,
    /// Resume from the latest checkpoint in `checkpoint_dir` (`--resume`).
    pub resume: bool,
    /// Write a `metrics/v1` JSON report here (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
    /// A saved weighted collection of the first program's traces, in the
    /// [`ppl::trace_io`] format (`translate --load`): a fresh run starts
    /// from it instead of sampling `traces` posterior traces.
    pub load: Option<String>,
}

impl Default for SequenceOpts {
    fn default() -> SequenceOpts {
        SequenceOpts {
            traces: 1_000,
            seed: 0,
            threads: 1,
            policy: FailurePolicy::FailFast,
            deadline_ms: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            metrics_out: None,
            load: None,
        }
    }
}

/// Appends one `stage N: ...` line (plus quarantine details) per report.
fn render_stage_reports(out: &mut String, ess: &[f64], reports: &[incremental::StepReport]) {
    for (step, (ess, report)) in ess.iter().zip(reports).enumerate() {
        let _ = writeln!(out, "stage {step}: ESS = {ess:.1}; health: {report}");
        for failure in &report.failures {
            let _ = writeln!(out, "  quarantined: {failure}");
        }
    }
}

/// Writes the `metrics/v1` JSON report to `path` and appends the human
/// summary table to `out`.
fn emit_metrics(
    path: &std::path::Path,
    recorder: &MetricsRecorder,
    out: &mut String,
) -> Result<(), CliError> {
    let report = recorder.report("sequence");
    std::fs::write(path, report.to_json())
        .map_err(|e| CliError::io(format!("cannot write metrics to {}: {e}", path.display())))?;
    out.push_str(&report.render());
    let _ = writeln!(out, "metrics written to {}", path.display());
    Ok(())
}

/// Graph-native SMC across a whole edit history
/// ([`depgraph::run_edit_sequence_supervised`]): samples the posterior of
/// the first program (or loads [`SequenceOpts::load`]), lifts the
/// particles into execution graphs once, then propagates the *graphs*
/// through every edit on the persistent worker pool, with optional
/// durable checkpoints, per-attempt deadlines, and resume-from-checkpoint.
/// Per-particle randomness derives from the seed, so the output is
/// bit-identical for any `threads` value; particles are flattened back to
/// traces only at the output boundary. `ppl translate` is this command
/// over one edit.
///
/// With `--checkpoint <dir>`, every `checkpoint_every`-th stage boundary
/// (and the final one) is written atomically to `dir`; with `resume`,
/// the run restarts from the latest checkpoint found there — validating
/// its checksum and program fingerprint — and continues bit-identically
/// to an uninterrupted run. The final line reports a checksum of the
/// flattened output collection so interrupted-and-resumed runs can be
/// compared against uninterrupted references.
///
/// # Errors
///
/// [`CliError`] carrying the exit code: parse/eval errors (1), inference
/// failures (2), checkpoint/I/O errors (3).
pub fn cmd_sequence_supervised(
    sources: &[String],
    opts: &SequenceOpts,
) -> Result<String, CliError> {
    let programs: Vec<Program> = sources
        .iter()
        .map(|s| parse(s))
        .collect::<Result<_, _>>()
        .map_err(CliError::from)?;
    if programs.len() < 2 {
        return Err(CliError::usage("sequence needs at least two programs"));
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err(CliError::usage("--resume needs --checkpoint <dir>"));
    }
    let n_stages = programs.len() - 1;
    // Install before any work so the recorder sees every stage; the guard
    // keeps collection enabled (and other metrics runs excluded) until
    // this command returns.
    let metrics = opts.metrics_out.as_ref().map(|path| {
        let recorder = Arc::new(MetricsRecorder::new());
        let guard = incremental::metrics::install(Arc::clone(&recorder));
        (path, recorder, guard)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "edit history: {} programs, {n_stages} stages",
        programs.len()
    );

    let resumed = match (&opts.checkpoint_dir, opts.resume) {
        (Some(dir), true) => Checkpoint::latest_in(dir)?,
        _ => None,
    };
    let (collection, base_seed, start_step, prior_ess, prior_reports) = match &resumed {
        Some((path, ck)) => {
            let _ = writeln!(
                out,
                "resumed from {} ({} of {n_stages} stages complete)",
                path.display(),
                ck.step
            );
            let collection = resume_collection(&programs, ck)?;
            (
                collection,
                ck.base_seed,
                ck.step,
                ck.ess_history.clone(),
                ck.reports.clone(),
            )
        }
        None => {
            if opts.resume {
                let _ = writeln!(out, "no checkpoint found; starting from stage 0");
            }
            let initial = initial_particles(&programs[0], opts, &mut out)?;
            (initial, opts.seed, 0, Vec::new(), Vec::new())
        }
    };

    let flat = if start_step >= n_stages {
        // The checkpoint already covers the whole sequence.
        render_stage_reports(&mut out, &prior_ess, &prior_reports);
        let _ = writeln!(out, "all {n_stages} stages already complete");
        collection
    } else {
        let mut stage_policy = StagePolicy::checkpoint_every(if opts.checkpoint_dir.is_some() {
            opts.checkpoint_every.max(1)
        } else {
            0
        });
        if let Some(ms) = opts.deadline_ms {
            stage_policy = stage_policy.with_deadline(Duration::from_millis(ms));
        }
        let fingerprints: Vec<u64> = programs.iter().map(program_fingerprint).collect();
        let mut ck_err: Option<CheckpointError> = None;
        let mut saver;
        let observer: Option<&mut StageObserver<'_, Arc<ExecGraph>>> = match &opts.checkpoint_dir {
            Some(dir) => {
                saver = |snap: &StageSnapshot<'_, Arc<ExecGraph>>| -> Result<(), SmcError> {
                    let ck = Checkpoint::from_snapshot(snap, base_seed, fingerprints[snap.step])
                        .map_err(SmcError::Eval)?;
                    if let Err(e) = ck.save(dir) {
                        let msg = e.to_string();
                        ck_err = Some(e);
                        return Err(SmcError::Internal(format!(
                            "checkpoint write failed: {msg}"
                        )));
                    }
                    Ok(())
                };
                Some(&mut saver)
            }
            None => None,
        };
        let run_result = run_edit_sequence_supervised(
            &programs,
            &collection,
            start_step,
            &prior_ess,
            &prior_reports,
            &SmcConfig::translate_only(),
            &opts.policy,
            &stage_policy,
            base_seed,
            opts.threads.max(1),
            observer,
        );
        // A checkpoint-write failure surfaces as an I/O error (exit 3), not
        // as the Internal error it rode through the runner on.
        let run = match (run_result, ck_err) {
            (Ok(run), _) => run,
            (Err(_), Some(ck)) => return Err(CliError::from(ck)),
            (Err(e), None) => return Err(CliError::from(e)),
        };
        render_stage_reports(&mut out, &run.ess_history, &run.reports);
        run.last().flatten()?
    };
    render_return_posterior(&mut out, &flat)?;
    let entries: Vec<_> = flat
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect();
    let _ = writeln!(
        out,
        "final collection checksum: {:016x}",
        collection_checksum(&entries)
    );
    if let Some((path, recorder, _guard)) = &metrics {
        emit_metrics(path, recorder, &mut out)?;
    }
    Ok(out)
}

/// Simulates `graphs` prior graphs of `P` from one seeded RNG and
/// translates each through the dependency graph in turn — the `--stats`
/// mode of `translate`. Reports the summed trace sizes and visit counts,
/// and the log of the mean weight; one graph gives that graph's own.
///
/// # Errors
///
/// Returns parse, evaluation, and translation errors, and an error for
/// zero graphs.
pub fn cmd_translate_stats(
    p_source: &str,
    q_source: &str,
    graphs: usize,
    seed: u64,
) -> Result<String, PplError> {
    if graphs == 0 {
        return Err(PplError::Other("--traces must be at least 1".into()));
    }
    let p = parse(p_source)?;
    let q = parse(q_source)?;
    let translator = IncrementalTranslator::from_edit(p.clone(), q);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut choices, mut visited, mut skipped) = (0, 0, 0);
    let mut log_weights = Vec::with_capacity(graphs);
    for _ in 0..graphs {
        let graph = ExecGraph::simulate(&p, &mut rng)?;
        let result = translator.translate_graph(&graph, &mut rng)?;
        choices += graph.num_choices();
        visited += result.stats.nodes_visited;
        skipped += result.stats.nodes_skipped;
        log_weights.push(result.log_weight.log());
    }
    let log_mean_weight = log_sum_exp(&log_weights) - (graphs as f64).ln();
    let mut out = String::new();
    let _ = writeln!(out, "trace size: {choices} choices");
    let _ = writeln!(
        out,
        "visited {visited} statement instances, skipped {skipped}"
    );
    let _ = writeln!(out, "log weight: {log_mean_weight:.6}");
    Ok(out)
}

/// One command of `ppl`: [`Args::parse`] parses its command lines and
/// [`usage`] renders its help from this entry alone.
#[derive(Debug)]
pub struct Command {
    /// The command's name, its first argument.
    pub name: &'static str,
    /// Its positional arguments as `ppl help` prints them; one in
    /// brackets is optional and may repeat.
    pub args: &'static [&'static str],
    /// Its flags as `ppl help` prints them: a flag that takes a value is
    /// followed by a name for it (`--seed N`).
    pub flags: &'static [&'static str],
    /// Its description, wrapped by [`usage`].
    pub help: &'static str,
}

/// Every command of `ppl`, in the order `ppl help` lists them.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "help",
        args: &[],
        flags: &[],
        help: "print this help",
    },
    Command {
        name: "check",
        args: &["<file>"],
        flags: &["--deny-warnings"],
        help: "parse and statically check (spans + stable codes; exit 1 on errors, or on \
               warnings under --deny-warnings)",
    },
    Command {
        name: "analyze",
        args: &["<old>", "<new>"],
        flags: &["--json"],
        help: "static diff-impact slice of an edit (--json: versioned ppl-analyze/v1 report)",
    },
    Command {
        name: "fmt",
        args: &["<file>"],
        flags: &[],
        help: "canonical pretty-printed form",
    },
    Command {
        name: "run",
        args: &["<file>"],
        flags: &["--seed N", "--save F"],
        help: "simulate one trace (--save: write its choices to F)",
    },
    Command {
        name: "enumerate",
        args: &["<file>"],
        flags: &["--limit N"],
        help: "exact posterior (finite discrete; N caps the choices recorded over all traces)",
    },
    Command {
        name: "sample",
        args: &["<file>"],
        flags: &["--steps N", "--seed N", "--save F", "--keep K"],
        help: "single-site MH, N steps (default 10000); --save writes K thinned states \
               (default 100) to F instead of the return values' frequencies",
    },
    Command {
        name: "translate",
        args: &["<p>", "<q>"],
        flags: &[
            "--traces M",
            "--seed N",
            "--policy P",
            "--load F",
            "--stats",
        ],
        help: "incremental inference across one edit: a one-stage `sequence` at --threads 1, \
               from M posterior traces of <p>, or with --load from the weighted traces saved \
               in F (--policy: fail-fast, drop:<max_loss> or retry:<n>[:<seed>]). --stats \
               translates M prior graphs of <p> (default 1) and prints their visit counts",
    },
    Command {
        name: "sequence",
        args: &["<p0>", "<p1>", "[<p2> ...]"],
        flags: &[
            "--traces M",
            "--seed N",
            "--threads T",
            "--policy P",
            "--checkpoint DIR",
            "--checkpoint-every N",
            "--deadline-ms N",
            "--resume",
            "--metrics-out FILE",
            "--verify-slices",
        ],
        help: "graph-native SMC across an edit history; output is identical for any \
               --threads. --checkpoint writes durable stage snapshots, --resume restarts from \
               the latest one, --deadline-ms N stops each translation attempt after N ms (a \
               timeout under --policy); parsed programs stop at their next step. --metrics-out \
               writes a metrics/v1 JSON report (propagation counters, stage timings, pool \
               stats), --verify-slices checks every dynamically visited statement against the \
               static impact slice",
    },
];

/// A command line parsed once against [`COMMANDS`]: the command, its
/// positional arguments and the flags given, each with its value.
#[derive(Debug)]
pub struct Args {
    /// The command's entry in [`COMMANDS`].
    pub command: &'static Command,
    /// The positional arguments, as many as the command takes.
    pub positionals: Vec<String>,
    /// The flags given, each with its value (empty for a switch).
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses `argv`, the arguments after the program name. An empty
    /// command line, `--help` and `-h` all mean `help`.
    ///
    /// # Errors
    ///
    /// A usage error (exit 1) for an unknown command, a flag the command
    /// does not take or that is given twice, a flag without its value, or
    /// too few or too many positional arguments.
    pub fn parse(argv: &[String]) -> Result<Args, CliError> {
        let name = match argv.first().map(String::as_str) {
            None | Some("--help" | "-h") => "help",
            Some(name) => name,
        };
        let command = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| CliError::usage(format!("unknown command `{name}`\n{}", usage())))?;
        let mut args = Args {
            command,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = argv.iter().skip(1);
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                args.positionals.push(arg.clone());
                continue;
            }
            let Some((flag, value)) = command
                .flags
                .iter()
                .map(|spec| spec.split_once(' ').unwrap_or((spec, "")))
                .find(|(flag, _)| flag == arg)
            else {
                return Err(format!("`{name}` does not take `{arg}`; see `ppl help`").into());
            };
            if args.has(flag) {
                return Err(format!("`{flag}` is given twice").into());
            }
            let value = match value {
                "" => String::new(),
                _ => rest.next().ok_or(format!("{flag} needs a value"))?.clone(),
            };
            args.flags.push((flag, value));
        }
        let needed = command.args.iter().filter(|a| !a.starts_with('[')).count();
        let (given, repeats) = (args.positionals.len(), needed < command.args.len());
        if given < needed {
            return Err(format!("missing {}; see `ppl help`", command.args[given]).into());
        }
        if given > needed && !repeats {
            let extra = &args.positionals[needed];
            return Err(format!("unexpected argument `{extra}`; see `ppl help`").into());
        }
        Ok(args)
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of flag `name` (empty for a switch), if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().find(|(flag, _)| *flag == name);
        given.map(|(_, value)| value.as_str())
    }

    /// The value of flag `name` as a `T`, if it was given.
    ///
    /// # Errors
    ///
    /// A usage error naming the flag if its value does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |value: &str| value.parse().map_err(|e| format!("{name}: {e}").into());
        self.value(name).map(parse).transpose()
    }

    /// Refuses `flags`, which `mode` of the command would ignore.
    ///
    /// # Errors
    ///
    /// A usage error naming the first of `flags` that was given.
    pub fn refuse(&self, mode: &str, flags: &[&str]) -> Result<(), CliError> {
        match flags.iter().find(|flag| self.has(flag)) {
            Some(flag) => Err(format!("`{mode}` does not take `{flag}`; see `ppl help`").into()),
            None => Ok(()),
        }
    }
}

/// Renders `ppl help` from [`COMMANDS`]: each command's synopsis and, in
/// a column of its own, its description, both wrapped at 80 columns.
pub fn usage() -> String {
    const COLUMN: usize = 39;
    let mut out = String::from("usage: ppl <command> [args]\ncommands:\n");
    for command in COMMANDS {
        let flags = command.flags.iter().map(|flag| format!("[{flag}]"));
        let synopsis = command.args.iter().map(|arg| arg.to_string()).chain(flags);
        let mut line = format!("  {}", command.name);
        for word in synopsis {
            if line.len() + 1 + word.len() > 80 {
                let _ = writeln!(out, "{line}");
                line = " ".repeat(command.name.len() + 2);
            }
            line = format!("{line} {word}");
        }
        if line.len() >= COLUMN {
            let _ = writeln!(out, "{line}");
            line.clear();
        }
        for word in command.help.split(' ') {
            if line.len() > COLUMN && line.len() + 1 + word.len() > 80 {
                let _ = writeln!(out, "{line}");
                line.clear();
            }
            line = match line.len() > COLUMN {
                true => format!("{line} {word}"),
                false => format!("{line:COLUMN$}{word}"),
            };
        }
        let _ = writeln!(out, "{line}");
    }
    out.push_str("exit codes: 0 ok, 1 usage/parse/eval error, 2 inference failure, 3 I/O error\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COIN: &str = "x = flip(0.3) @ x; observe(flip(x ? 0.9 : 0.1) @ o == 1); return x;";

    #[test]
    fn check_reports_clean_and_dirty() {
        assert_eq!(cmd_check(COIN, false).unwrap(), "no issues found\n");
        // Errors carry a span and a stable code, and fail the command.
        let err = cmd_check("y = ghost; return y;", false).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("error[PPL001]"), "{}", err.message);
        assert!(err.message.contains("1:1: "), "{}", err.message);
        assert!(err.message.contains("1 error(s)"), "{}", err.message);
        assert!(cmd_check("x = ;", false).is_err());
    }

    #[test]
    fn check_denies_warnings_only_when_asked() {
        // `w` is assigned but never read: PPL010, a warning.
        let dusty = "w = 1; x = flip(0.5) @ x; return x;";
        let out = cmd_check(dusty, false).unwrap();
        assert!(out.contains("warning[PPL010]"), "{out}");
        assert!(out.contains("0 error(s), 1 warning(s)"), "{out}");
        let err = cmd_check(dusty, true).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("warnings denied"), "{}", err.message);
    }

    #[test]
    fn analyze_renders_the_impact_slice() {
        let p = "a = 1; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let q = "a = 2; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let out = cmd_analyze(p, q, false).unwrap();
        assert!(
            out.contains("2 of 3 statement(s) impacted, 1 proven skippable"),
            "{out}"
        );
        assert!(out.contains("a = …"), "{out}");
        assert!(out.contains("skippable"), "{out}");
        assert!(out.contains("may-dirty variables: {a, b}"), "{out}");
    }

    #[test]
    fn analyze_json_is_versioned_and_structured() {
        let p = "a = 1; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let q = "a = 2; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let out = cmd_analyze(p, q, true).unwrap();
        assert!(out.contains("\"schema\": \"ppl-analyze/v1\""), "{out}");
        assert!(out.contains("\"statements\": 3"), "{out}");
        assert!(out.contains("\"impacted\": 2"), "{out}");
        assert!(out.contains("\"skippable\": 1"), "{out}");
        assert!(out.contains("\"sites\": [\"b\"]"), "{out}");
        // An identity edit impacts nothing.
        let same = cmd_analyze(p, p, true).unwrap();
        assert!(same.contains("\"impacted\": 0"), "{same}");
        assert!(same.contains("\"skippable\": 3"), "{same}");
    }

    #[test]
    fn fmt_is_canonical() {
        let out = cmd_fmt("x=flip(0.3)@x;return x;").unwrap();
        assert!(out.contains("x = flip(0.3) @ \"x\";"), "{out}");
        // Idempotent.
        assert_eq!(cmd_fmt(&out).unwrap(), out);
    }

    #[test]
    fn run_prints_a_trace() {
        let out = cmd_run(COIN, 1).unwrap();
        assert!(out.contains("x ->"), "{out}");
        assert!(out.contains("return"), "{out}");
    }

    #[test]
    fn enumerate_prints_z_and_distribution() {
        let out = cmd_enumerate(COIN, 10_000).unwrap();
        assert!(out.contains("Z = 0.34"), "{out}"); // 0.3*0.9 + 0.7*0.1
        assert!(out.contains("posterior over return values"), "{out}");
        // Continuous programs are rejected.
        assert!(cmd_enumerate("x = gauss(0.0, 1.0); return x;", 100).is_err());
    }

    #[test]
    fn sample_matches_enumeration() {
        let out = cmd_sample(COIN, 40_000, 3).unwrap();
        // exact posterior P(x=1) = 0.27 / 0.34 ≈ 0.794
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("true"))
            .expect("true row");
        let freq: f64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!((freq - 0.794).abs() < 0.02, "{out}");
    }

    #[test]
    fn sequence_falls_back_to_mh_for_continuous_p() {
        let p = "m = gauss(0.0, 2.0) @ m; observe(gauss(m, 1.0) @ o == 1.5); return m;";
        let q = "m = gauss(0.0, 2.0) @ m; observe(gauss(m, 0.5) @ o == 1.5); return m;";
        let opts = SequenceOpts {
            traces: 50,
            seed: 5,
            ..SequenceOpts::default()
        };
        let out = cmd_sequence_supervised(&[p.to_string(), q.to_string()], &opts).unwrap();
        assert!(out.contains("single-site MH"), "{out}");
        assert!(out.contains("stage 0: ESS"), "{out}");
    }

    #[test]
    fn translate_stats_sums_over_prior_graphs() {
        let p = "a = 1; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let q = "a = 2; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let one = cmd_translate_stats(p, q, 1, 6).unwrap();
        assert!(one.contains("trace size: 2 choices"), "{one}");
        assert!(one.contains("visited"), "{one}");
        assert!(one.contains("log weight"), "{one}");
        // Every graph of P makes both choices and every edit visits the
        // same statements, so the counts scale with the graphs.
        let counts = |out: &str| -> Vec<usize> {
            out.split(|c: char| !c.is_ascii_digit())
                .filter_map(|n| n.parse().ok())
                .take(3)
                .collect()
        };
        let three = cmd_translate_stats(p, q, 3, 6).unwrap();
        let tripled: Vec<usize> = counts(&one).iter().map(|n| 3 * n).collect();
        assert_eq!(counts(&three), tripled, "{one}{three}");
        assert!(cmd_translate_stats(p, q, 0, 6).is_err());
    }

    #[test]
    fn mh_chain_spaces_its_states() {
        // A chain of `burn_in + count * thin` steps, read every `thin`
        // steps after the burn-in: the states of one long chain.
        let program = parse(COIN).unwrap();
        let states = |burn_in, thin, count| {
            let mut rng = StdRng::seed_from_u64(8);
            let mut states = Vec::new();
            mh_chain(&program, &mut rng, burn_in, thin, count, |t| {
                states.push(t.to_choice_map())
            })
            .unwrap();
            states
        };
        let every = states(0, 1, 30);
        assert_eq!(
            states(6, 4, 6),
            every.iter().skip(9).step_by(4).cloned().collect::<Vec<_>>()
        );
        assert_eq!(
            states(0, 3, 10),
            every.iter().skip(2).step_by(3).cloned().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sequence_runs_graph_native_end_to_end() {
        let mid = "x = flip(0.3) @ x; observe(flip(x ? 0.95 : 0.05) @ o == 1); return x;";
        let last = "x = flip(0.3) @ x; observe(flip(x ? 0.99 : 0.01) @ o == 1); return x;";
        let sources = [COIN.to_string(), mid.to_string(), last.to_string()];
        let opts = SequenceOpts {
            traces: 20_000,
            seed: 4,
            ..SequenceOpts::default()
        };
        let out = cmd_sequence_supervised(&sources, &opts).unwrap();
        assert!(out.contains("3 programs, 2 stages"), "{out}");
        assert!(out.contains("P posterior: exact (by enumeration)"), "{out}");
        assert!(out.contains("stage 0: ESS"), "{out}");
        assert!(out.contains("stage 1: ESS"), "{out}");
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("true"))
            .expect("true row");
        let freq: f64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        // exact for the final program: 0.3*0.99 / (0.3*0.99 + 0.7*0.01) ≈ 0.977
        assert!((freq - 0.977).abs() < 0.02, "{out}");
    }

    #[test]
    fn sequence_output_is_identical_for_any_thread_count() {
        let mid = "x = flip(0.3) @ x; observe(flip(x ? 0.95 : 0.05) @ o == 1); return x;";
        let sources = [COIN.to_string(), mid.to_string()];
        let run = |threads| {
            let opts = SequenceOpts {
                traces: 2_000,
                seed: 7,
                threads,
                ..SequenceOpts::default()
            };
            cmd_sequence_supervised(&sources, &opts).unwrap()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn sequence_rejects_a_single_program() {
        let sources = [COIN.to_string()];
        let err = cmd_sequence_supervised(&sources, &SequenceOpts::default()).unwrap_err();
        assert_eq!(err.code, 1, "{err}");
    }

    #[test]
    fn sequence_metrics_out_writes_versioned_json() {
        let mid = "x = flip(0.3) @ x; observe(flip(x ? 0.95 : 0.05) @ o == 1); return x;";
        let sources = [COIN.to_string(), mid.to_string()];
        let path =
            std::env::temp_dir().join(format!("ppl-metrics-test-{}.json", std::process::id()));
        let opts = SequenceOpts {
            traces: 500,
            seed: 5,
            threads: 2,
            metrics_out: Some(path.clone()),
            ..SequenceOpts::default()
        };
        let out = cmd_sequence_supervised(&sources, &opts).unwrap();
        assert!(out.contains("metrics for `sequence`"), "{out}");
        assert!(out.contains("metrics written to"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"schema\": \"metrics/v1\""), "{json}");
        assert!(json.contains("\"nodes_visited\": "), "{json}");
        assert!(json.contains("\"translate_ms\": "), "{json}");
        assert!(json.contains("\"pool\": "), "{json}");
    }

    #[test]
    fn save_and_reload_round_trip() {
        // Save MH samples of P, reload them, translate into Q.
        let q = "x = flip(0.3) @ x; observe(flip(x ? 0.99 : 0.01) @ o == 1); return x;";
        let saved = cmd_sample_save(COIN, 30_000, 2_000, 9).unwrap();
        assert!(saved.starts_with("# incremental-ppl collection v1"));
        let opts = SequenceOpts {
            seed: 10,
            load: Some(saved),
            ..SequenceOpts::default()
        };
        let out = cmd_sequence_supervised(&[COIN.to_string(), q.to_string()], &opts).unwrap();
        assert!(out.contains("P posterior: loaded 2000 traces"), "{out}");
        assert!(out.contains("stage 0: ESS"), "{out}");
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("true"))
            .expect("true row");
        let freq: f64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!((freq - 0.977).abs() < 0.05, "{out}");
    }

    #[test]
    fn run_save_produces_parsable_choices() {
        let saved = cmd_run_save(COIN, 11).unwrap();
        let map = ppl::trace_io::parse_choice_map(&saved).unwrap();
        assert_eq!(map.len(), 1); // one latent (the observation is not a choice)
    }

    #[test]
    fn parse_policy_accepts_the_documented_grammar() {
        assert_eq!(parse_policy("fail-fast").unwrap(), FailurePolicy::FailFast);
        assert_eq!(
            parse_policy("drop:0.25").unwrap(),
            FailurePolicy::DropAndRenormalize { max_loss: 0.25 }
        );
        assert_eq!(
            parse_policy("retry:3").unwrap(),
            FailurePolicy::Retry {
                max_attempts: 3,
                seed: 0
            }
        );
        assert_eq!(
            parse_policy("retry:3:42").unwrap(),
            FailurePolicy::Retry {
                max_attempts: 3,
                seed: 42
            }
        );
    }

    #[test]
    fn parse_policy_rejects_malformed_specs() {
        for spec in [
            "",
            "nonsense",
            "fail-fast:1",
            "drop",
            "drop:2.0",
            "drop:x",
            "drop:0.1:0",
            "retry",
            "retry:0",
            "retry:x",
            "retry:2:y",
            "retry:2:3:4",
        ] {
            let err = parse_policy(spec).unwrap_err().to_string();
            assert!(err.contains("invalid --policy"), "{spec}: {err}");
        }
    }

    #[test]
    fn usage_lists_commands() {
        let u = usage();
        for command in COMMANDS {
            assert!(u.contains(&format!("\n  {} ", command.name)), "{u}");
            for flag in command.flags {
                assert!(u.contains(&format!("[{flag}]")), "{flag}\n{u}");
            }
        }
        assert!(u.lines().all(|line| line.len() <= 80), "{u}");
    }

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_positionals_and_typed_flags() {
        let args = Args::parse(&argv("sequence a b c --seed 7 --resume --checkpoint d")).unwrap();
        assert_eq!(args.command.name, "sequence");
        assert_eq!(args.positionals, ["a", "b", "c"]);
        assert_eq!(args.get::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(args.get::<usize>("--threads").unwrap(), None);
        assert_eq!(
            args.get::<PathBuf>("--checkpoint").unwrap(),
            Some("d".into())
        );
        assert!(args.has("--resume") && !args.has("--verify-slices"));
        for words in ["", "--help", "-h"] {
            assert_eq!(Args::parse(&argv(words)).unwrap().command.name, "help");
        }
    }

    #[test]
    fn args_refuse_what_the_table_does_not_allow() {
        for (words, message) in [
            ("frobnicate", "unknown command `frobnicate`"),
            ("run f --limit 3", "`run` does not take `--limit`"),
            ("run f --seed 1 --seed 2", "`--seed` is given twice"),
            ("run f --seed", "--seed needs a value"),
            ("translate p", "missing <q>"),
            ("sequence p0", "missing <p1>"),
            ("fmt f g", "unexpected argument `g`"),
        ] {
            let err = Args::parse(&argv(words)).unwrap_err();
            assert_eq!(err.code, 1, "{words}");
            assert!(err.message.contains(message), "{words}: {}", err.message);
        }
        let args = Args::parse(&argv("run f --seed x")).unwrap();
        let err = args.get::<u64>("--seed").unwrap_err();
        assert!(err.message.starts_with("--seed: "), "{}", err.message);
        let args = Args::parse(&argv("translate p q --stats --policy drop:0.1")).unwrap();
        let err = args
            .refuse("translate --stats", &["--load", "--policy"])
            .unwrap_err();
        assert!(err.message.contains("`--policy`"), "{}", err.message);
    }
}
