//! # ppl-cli — command-line front end
//!
//! Drives the workspace from program *source text*:
//!
//! ```text
//! ppl check <file> [--deny-warnings]    # parse + static diagnostics
//! ppl analyze <old> <new> [--json]      # static diff-impact slice of an edit
//! ppl fmt <file>                        # canonical pretty-printed form
//! ppl run <file> [--seed N]             # simulate one trace
//! ppl enumerate <file> [--limit N]      # exact posterior (finite discrete)
//! ppl sample <file> --steps N [--seed]  # single-site MH over the posterior
//! ppl translate <p> <q> [--traces M]    # incremental inference across an edit
//! ppl sequence <p0> <p1> [<p2> ...]     # graph-native SMC across an edit history
//! ```
//!
//! All command logic lives here as functions from source text to rendered
//! output, so it is directly unit-testable; `main.rs` only handles files
//! and argument plumbing.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use depgraph::{
    diff_programs, impact_of_edit, program_fingerprint, resume_collection,
    run_edit_sequence_supervised, ExecGraph, IncrementalTranslator,
};
use incremental::{
    collection_checksum, Checkpoint, CheckpointError, FailurePolicy, McmcKernel, MetricsRecorder,
    ParticleCollection, SmcConfig, SmcError, StageObserver, StagePolicy, StageSnapshot,
};
use inference::{ExactPosterior, SingleSiteMh};
use ppl::ast::Program;
use ppl::check::{check_with_spans, Severity};
use ppl::handlers::simulate;
use ppl::{parse, parse_with_spans, Enumeration, PplError, Trace, Value};
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
    let (effects, impact) = impact_of_edit(&q, &p, &edit);
    let mut out = String::new();
    if json {
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"ppl-analyze/v1\",");
        let _ = writeln!(out, "  \"statements\": {},", impact.total);
        let _ = writeln!(out, "  \"impacted\": {},", impact.impacted.len());
        let _ = writeln!(out, "  \"skippable\": {},", impact.skippable_count());
        let _ = writeln!(
            out,
            "  \"may_dirty\": {},",
            json_string_array(impact.may_dirty.iter().map(String::as_str))
        );
        let _ = writeln!(
            out,
            "  \"sites\": {},",
            json_string_array(impact.sites.iter().map(String::as_str))
        );
        let _ = writeln!(out, "  \"stmts\": [");
        for (i, facts) in effects.stmts.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"index\": {}, \"depth\": {}, \"label\": {}, \
                 \"impacted\": {}, \"reads\": {}, \"writes\": {}, \"samples\": {}}}{}",
                facts.index,
                facts.depth,
                json_string(&facts.label),
                impact.contains(facts.index),
                json_string_array(facts.subtree.reads.iter().map(String::as_str)),
                json_string_array(facts.subtree.writes.iter().map(String::as_str)),
                json_string_array(facts.subtree.samples.iter().map(String::as_str)),
                if i + 1 < effects.stmts.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "impact slice: {} of {} statement(s) impacted, {} proven skippable",
        impact.impacted.len(),
        impact.total,
        impact.skippable_count()
    );
    for facts in &effects.stmts {
        let verdict = if impact.contains(facts.index) {
            "impacted "
        } else {
            "skippable"
        };
        let _ = writeln!(
            out,
            "  #{:<3} {}{:<24} {}  reads={{{}}} writes={{{}}}",
            facts.index,
            "  ".repeat(facts.depth),
            facts.label,
            verdict,
            facts
                .subtree
                .reads
                .iter()
                .cloned()
                .collect::<Vec<_>>()
                .join(", "),
            facts
                .subtree
                .writes
                .iter()
                .cloned()
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    let dirty: Vec<&str> = impact.may_dirty.iter().map(String::as_str).collect();
    let sites: Vec<&str> = impact.sites.iter().map(String::as_str).collect();
    let _ = writeln!(out, "may-dirty variables: {{{}}}", dirty.join(", "));
    let _ = writeln!(out, "revisited sites: {{{}}}", sites.join(", "));
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
    let kernel = SingleSiteMh::new(program.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = simulate(&program, &mut rng)?;
    let thin = (steps / keep.max(1)).max(1);
    let mut entries = Vec::with_capacity(keep);
    for i in 0..steps {
        trace = kernel.step(&trace, &mut rng)?;
        if (i + 1) % thin == 0 && entries.len() < keep {
            entries.push((trace.to_choice_map(), 0.0));
        }
    }
    Ok(ppl::trace_io::write_weighted_collection(&entries))
}

/// Translates *saved* traces (the `trace_io` collection format) of `P`
/// into weighted traces of `Q`, rendering estimates (for
/// `ppl translate --load`).
///
/// # Errors
///
/// Returns parse, deserialization, replay, and translation errors.
pub fn cmd_translate_saved(
    p_source: &str,
    q_source: &str,
    saved: &str,
    seed: u64,
) -> Result<String, PplError> {
    let p = parse(p_source)?;
    let q = parse(q_source)?;
    let translator = IncrementalTranslator::from_edit(p.clone(), q);
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = ppl::trace_io::parse_weighted_collection(saved)?;
    let mut particles = ParticleCollection::new();
    for (map, log_weight) in &entries {
        // Replay against P to rebuild full traces (re-validating them).
        let trace = ppl::handlers::score(&p, map)?;
        particles.push(trace, ppl::LogWeight::from_log(*log_weight));
    }
    let adapted = incremental::infer(
        &translator,
        None,
        &particles,
        &SmcConfig::translate_only(),
        &mut rng,
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "loaded {} traces; translated; ESS = {:.1}",
        entries.len(),
        adapted.ess()
    );
    let mut rows: Vec<(Value, f64)> = Vec::new();
    let weights = adapted.normalized_weights()?;
    for (particle, w) in adapted.iter().zip(weights) {
        if let Some(v) = particle.trace.return_value() {
            match rows.iter_mut().find(|(u, _)| u.num_eq(v)) {
                Some(slot) => slot.1 += w,
                None => rows.push((v.clone(), w)),
            }
        }
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let _ = writeln!(out, "weighted posterior over Q's return values:");
    for (value, prob) in rows.into_iter().take(20) {
        let _ = writeln!(out, "  {value} : {prob:.4}");
    }
    Ok(out)
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
    let kernel = SingleSiteMh::new(program.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = simulate(&program, &mut rng)?;
    let burn_in = steps / 5;
    let mut counts: Vec<(Value, usize)> = Vec::new();
    for i in 0..steps {
        trace = kernel.step(&trace, &mut rng)?;
        if i >= burn_in {
            if let Some(v) = trace.return_value() {
                match counts.iter_mut().find(|(u, _)| u.num_eq(v)) {
                    Some(slot) => slot.1 += 1,
                    None => counts.push((v.clone(), 1)),
                }
            }
        }
    }
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

/// Incremental inference across a program edit: derives the
/// correspondence by diffing, obtains posterior traces of `P` (exactly
/// when enumerable, otherwise by thinned MH), translates them under the
/// given [`FailurePolicy`], and renders the weighted return-value
/// estimate for `Q` plus diagnostics — including the step's health
/// report (ESS, quarantined/retried particles, collapse events).
///
/// # Errors
///
/// Returns parse, inference, and translation errors (typed SMC errors
/// flattened to [`PplError`]).
pub fn cmd_translate(
    p_source: &str,
    q_source: &str,
    traces: usize,
    seed: u64,
    policy: &FailurePolicy,
) -> Result<String, PplError> {
    let p = parse(p_source)?;
    let q = parse(q_source)?;
    let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let mut rng = StdRng::seed_from_u64(seed);

    let mut out = String::new();
    let _ = writeln!(out, "derived correspondence (Q site -> P site):");
    let mut rules: Vec<_> = translator
        .edit()
        .correspondence
        .site_rules()
        .map(|(a, b)| format!("  {a} -> {b}"))
        .collect();
    rules.sort();
    for r in &rules {
        let _ = writeln!(out, "{r}");
    }
    if rules.is_empty() {
        let _ = writeln!(out, "  (none)");
    }

    let input = posterior_traces(&p, traces, &mut rng, &mut out)?;

    let particles = ParticleCollection::from_traces(input);
    let (adapted, report) = incremental::infer_with_policy(
        &translator,
        None,
        &particles,
        &SmcConfig::translate_only(),
        policy,
        0,
        &mut rng,
    )
    .map_err(PplError::from)?;
    let _ = writeln!(
        out,
        "translated {} traces; ESS = {:.1}",
        adapted.len(),
        adapted.ess()
    );
    let _ = writeln!(out, "health: {report}");
    for failure in &report.failures {
        let _ = writeln!(out, "  quarantined: {failure}");
    }
    render_return_posterior(&mut out, &adapted)?;
    Ok(out)
}

/// Draws `traces` posterior samples of `p` — exact when the program is
/// finite discrete, otherwise a thinned single-site MH chain — noting
/// which sampler was used in `out`.
fn posterior_traces(
    p: &Program,
    traces: usize,
    rng: &mut StdRng,
    out: &mut String,
) -> Result<Vec<Trace>, PplError> {
    match ExactPosterior::new(p) {
        Ok(sampler) => {
            let _ = writeln!(out, "P posterior: exact (by enumeration)");
            Ok(sampler.samples(traces, rng))
        }
        Err(_) => {
            let _ = writeln!(out, "P posterior: single-site MH (thinned chain)");
            let kernel = SingleSiteMh::new(p.clone());
            let mut chain = simulate(p, rng)?;
            let thin = 10;
            for _ in 0..50 * thin {
                chain = kernel.step(&chain, rng)?; // burn-in
            }
            let mut collected = Vec::with_capacity(traces);
            while collected.len() < traces {
                for _ in 0..thin {
                    chain = kernel.step(&chain, rng)?;
                }
                collected.push(chain.clone());
            }
            Ok(collected)
        }
    }
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
    std::fs::write(path, report.to_json()).map_err(|e| CliError {
        message: format!("cannot write metrics to {}: {e}", path.display()),
        code: 3,
    })?;
    out.push_str(&report.render());
    let _ = writeln!(out, "metrics written to {}", path.display());
    Ok(())
}

/// Flattens a trace collection to the weighted choice-map entries used by
/// both the checkpoint format and [`collection_checksum`].
fn collection_entries(collection: &ParticleCollection) -> Vec<(ppl::ChoiceMap, f64)> {
    collection
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect()
}

/// Graph-native SMC across a whole edit history
/// ([`depgraph::run_edit_sequence_supervised`]): samples the posterior of
/// the first program, lifts the particles into execution graphs once,
/// then propagates the *graphs* through every edit on the persistent
/// worker pool, with optional durable checkpoints, per-attempt
/// deadlines, and resume-from-checkpoint. Per-particle randomness derives from the
/// seed, so the output is bit-identical for any `threads` value;
/// particles are flattened back to traces only at the output boundary.
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
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let input = posterior_traces(&programs[0], opts.traces, &mut rng, &mut out)
                .map_err(CliError::from)?;
            (
                ParticleCollection::from_traces(input),
                opts.seed,
                0,
                Vec::new(),
                Vec::new(),
            )
        }
    };

    if start_step >= n_stages {
        // The checkpoint already covers the whole sequence.
        render_stage_reports(&mut out, &prior_ess, &prior_reports);
        let _ = writeln!(out, "all {n_stages} stages already complete");
        render_return_posterior(&mut out, &collection).map_err(CliError::from)?;
        let entries = collection_entries(&collection);
        let _ = writeln!(
            out,
            "final collection checksum: {:016x}",
            collection_checksum(&entries)
        );
        if let Some((path, recorder, _guard)) = &metrics {
            emit_metrics(path, recorder, &mut out)?;
        }
        return Ok(out);
    }

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
    let run_result = {
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
        run_edit_sequence_supervised(
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
        )
    };
    let run = match run_result {
        Ok(run) => run,
        Err(e) => {
            // A checkpoint-write failure surfaces as an I/O error (exit 3),
            // not as the Internal error it rode through the runner on.
            if let Some(ck) = ck_err {
                return Err(CliError::from(ck));
            }
            return Err(CliError::from(e));
        }
    };

    render_stage_reports(&mut out, &run.ess_history, &run.reports);
    let flat = run.last().flatten().map_err(CliError::from)?;
    render_return_posterior(&mut out, &flat).map_err(CliError::from)?;
    let entries = collection_entries(&flat);
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

/// Builds and translates through the dependency graph, reporting the
/// visit statistics — the `--stats` mode of `translate`.
///
/// # Errors
///
/// Returns parse, evaluation, and translation errors.
pub fn cmd_translate_stats(p_source: &str, q_source: &str, seed: u64) -> Result<String, PplError> {
    let p = parse(p_source)?;
    let q = parse(q_source)?;
    let translator = IncrementalTranslator::from_edit(p.clone(), q);
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = ExecGraph::simulate(&p, &mut rng)?;
    let result = translator.translate_graph(&graph, &mut rng)?;
    let mut out = String::new();
    let _ = writeln!(out, "trace size: {} choices", graph.num_choices());
    let _ = writeln!(
        out,
        "visited {} statement instances, skipped {}",
        result.stats.nodes_visited, result.stats.nodes_skipped
    );
    let _ = writeln!(out, "log weight: {:.6}", result.log_weight.log());
    Ok(out)
}

/// Renders usage help.
pub fn usage() -> String {
    "usage: ppl <command> [args]\n\
     commands:\n\
       check <file> [--deny-warnings]       parse and statically check (spans +\n\
                                            stable codes; exit 1 on errors, or on\n\
                                            warnings under --deny-warnings)\n\
       analyze <old> <new> [--json]         static diff-impact slice of an edit\n\
                                            (--json: versioned ppl-analyze/v1 report)\n\
       fmt <file>                           canonical pretty-printed form\n\
       run <file> [--seed N] [--save F]     simulate one trace\n\
       enumerate <file> [--limit N]         exact posterior (finite discrete; N caps\n\
                                            the choices recorded over all traces)\n\
       sample <file> --steps N [--seed N] [--save F --keep K]\n\
                                            single-site MH\n\
       translate <p> <q> [--traces M] [--seed N] [--policy P] [--stats] [--load F]\n\
                                            incremental inference across an edit\n\
                                            (P: fail-fast | drop:<max_loss> | retry:<n>[:<seed>])\n\
       sequence <p0> <p1> [<p2> ...] [--traces M] [--seed N] [--threads T] [--policy P]\n\
                [--checkpoint DIR] [--checkpoint-every N] [--deadline-ms N] [--resume]\n\
                [--metrics-out FILE] [--verify-slices]\n\
                                            graph-native SMC across an edit history;\n\
                                            output is identical for any --threads.\n\
                                            --checkpoint writes durable stage snapshots,\n\
                                            --resume restarts from the latest one,\n\
                                            --deadline-ms N stops each translation attempt\n\
                                            after N ms (a timeout under --policy); parsed\n\
                                            programs stop at their next step\n\
                                            --metrics-out writes a metrics/v1 JSON report\n\
                                            (propagation counters, stage timings, pool stats),\n\
                                            --verify-slices checks every dynamically visited\n\
                                            statement against the static impact slice\n\
     exit codes: 0 ok, 1 usage/parse/eval error, 2 inference failure, 3 I/O error\n"
        .to_string()
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
    fn translate_reports_correspondence_and_estimate() {
        let q = "x = flip(0.3) @ x; observe(flip(x ? 0.99 : 0.01) @ o == 1); return x;";
        let out = cmd_translate(COIN, q, 20_000, 4, &FailurePolicy::FailFast).unwrap();
        assert!(out.contains("health:"), "{out}");
        assert!(out.contains("x -> x"), "{out}");
        assert!(out.contains("exact (by enumeration)"), "{out}");
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("true"))
            .expect("true row");
        let freq: f64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        // exact for Q: 0.3*0.99 / (0.3*0.99 + 0.7*0.01) ≈ 0.977
        assert!((freq - 0.977).abs() < 0.02, "{out}");
    }

    #[test]
    fn translate_falls_back_to_mh_for_continuous_p() {
        let p = "m = gauss(0.0, 2.0) @ m; observe(gauss(m, 1.0) @ o == 1.5); return m;";
        let q = "m = gauss(0.0, 2.0) @ m; observe(gauss(m, 0.5) @ o == 1.5); return m;";
        let out = cmd_translate(p, q, 50, 5, &FailurePolicy::FailFast).unwrap();
        assert!(out.contains("single-site MH"), "{out}");
        assert!(out.contains("ESS"), "{out}");
    }

    #[test]
    fn translate_stats_shows_visits() {
        let p = "a = 1; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let q = "a = 2; b = flip(a / 3) @ b; c = flip(0.5) @ c; return b;";
        let out = cmd_translate_stats(p, q, 6).unwrap();
        assert!(out.contains("visited"), "{out}");
        assert!(out.contains("log weight"), "{out}");
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
        let out = cmd_translate_saved(COIN, q, &saved, 10).unwrap();
        assert!(out.contains("loaded 2000 traces"), "{out}");
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
        for cmd in ["check", "fmt", "run", "enumerate", "sample", "translate"] {
            assert!(u.contains(cmd));
        }
    }
}
