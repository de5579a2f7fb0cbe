//! One edit session: set-up, the closed-loop edit loop, and the
//! measurements taken around it.
//!
//! The session models one user who holds a posterior, edits the program,
//! and waits for the updated posterior before making the next edit (one
//! client, zero think time). An edit is
//! `IncrementalTranslator::from_shared(prev, next)`, one
//! `run_state_sequence_supervised` stage on the graph-native collection
//! the session carries, and a posterior query of the final latent. Because
//! every stage runs at its absolute step with seeds derived from the base
//! seed, the per-edit loop is bit-identical to one
//! `depgraph::run_edit_sequence_supervised` call over the whole history.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use depgraph::{
    diff_programs, impact_of_edit, lift_collection, program_fingerprint, ExecGraph,
    IncrementalTranslator, StagePlan,
};
use incremental::{
    collection_checksum, metrics, run_state_sequence_supervised, Checkpoint, FailurePolicy,
    MetricsRecorder, MetricsReport, ParticleCollection, ResamplePolicy, SmcConfig, SmcError,
    StageObserver, StagePolicy, StageSnapshot, StateTranslator, StepReport,
};
use ppl::ast::Program;
use ppl::{addr, Address, PplError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{SpanLog, TimedTranslator};
use crate::workload::{Chain, Latent, Shape, Workload};

/// Graph-native particle collection carried by a session.
pub type Graphs = ParticleCollection<Arc<ExecGraph>>;

/// A stage translator as the supervised runner takes it.
type DynStage = Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>;

/// Everything that determines a session's inputs and outputs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Its size and inference settings.
    pub shape: Shape,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Worker threads of the stage runner.
    pub threads: usize,
}

impl Spec {
    /// The full (`quick = false`) or small configuration of `workload`,
    /// run with [`default_threads`].
    pub fn new(workload: Workload, quick: bool, seed: u64) -> Spec {
        Spec {
            workload,
            shape: workload.shape(quick),
            seed,
            threads: default_threads(),
        }
    }

    /// The SMC step configuration of every stage.
    pub fn smc_config(&self) -> SmcConfig {
        SmcConfig {
            resample: if self.shape.resample {
                ResamplePolicy::EssBelow(0.5)
            } else {
                ResamplePolicy::Never
            },
            ..SmcConfig::translate_only()
        }
    }

    /// The supervision policy of every stage.
    pub fn stage_policy(&self) -> StagePolicy {
        StagePolicy::checkpoint_every(self.shape.checkpoint_every)
    }

    /// The runner's base seed, from which every stage's translation and
    /// resampling seeds derive.
    pub fn base_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0BE2_C4ED_17ED_0001
    }
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The load the benchmark applies: `min(2, nproc)` worker threads.
pub fn default_threads() -> usize {
    nproc().min(2)
}

/// The products of one set-up.
#[derive(Debug)]
pub struct Inputs {
    /// The parsed edit history.
    pub programs: Vec<Arc<Program>>,
    /// The chain each program denotes (the oracle's view).
    pub chains: Vec<Chain>,
    /// The final latent of each program.
    pub latents: Vec<Option<Address>>,
    /// Prior draws of `programs[0]`, as flat traces.
    pub initial: ParticleCollection,
    /// The same draws lifted into execution graphs.
    pub lifted: Graphs,
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Generate + parse + simulate + lift, seconds.
    pub total_s: f64,
    /// Parsing every program, milliseconds.
    pub parse_ms: f64,
    /// Simulating the initial particles, milliseconds.
    pub simulate_ms: f64,
    /// `lift_collection`, milliseconds.
    pub lift_ms: f64,
}

/// Generates and parses the edit history, simulates the initial
/// particles, and lifts them into execution graphs. With a span log, each
/// phase is recorded.
///
/// # Errors
///
/// Reports a parse, simulation or lift failure.
pub fn setup(spec: &Spec, log: Option<&mut SpanLog>) -> Result<(Inputs, SetupTimes), String> {
    let start = Instant::now();
    let history = spec.workload.history(spec.shape.edits, spec.seed);
    let generated = Instant::now();
    let programs = history
        .iter()
        .map(|p| ppl::parse(&p.source).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("generated program does not parse: {e}"))?;
    let parsed = Instant::now();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5349_4d55_4c41_5445);
    let traces = (0..spec.shape.particles)
        .map(|_| ppl::handlers::simulate(&*programs[0], &mut rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("simulating the initial particles failed: {e}"))?;
    let initial = ParticleCollection::from_traces(traces);
    let simulated = Instant::now();
    let lifted = lift_collection(&programs[0], &initial)
        .map_err(|e| format!("lifting the initial particles failed: {e}"))?;
    let end = Instant::now();
    if let Some(log) = log {
        log.record("setup", start, end, None);
        log.record("setup.generate", start, generated, None);
        log.record("ppl.parse", generated, parsed, None);
        log.record("ppl.simulate", parsed, simulated, None);
        log.record("depgraph.lift", simulated, end, None);
    }
    let latents = history
        .iter()
        .map(|p| {
            p.latent.as_ref().map(|l| match l {
                Latent::Loop(i) => addr!["x", *i],
                Latent::Site(name) => addr![name.as_str()],
            })
        })
        .collect();
    let inputs = Inputs {
        programs,
        chains: history.into_iter().map(|p| p.chain).collect(),
        latents,
        initial,
        lifted,
    };
    let times = SetupTimes {
        total_s: secs(start, end),
        parse_ms: ms(generated, parsed),
        simulate_ms: ms(parsed, simulated),
        lift_ms: ms(simulated, end),
    };
    Ok((inputs, times))
}

/// The outcome of a session.
#[derive(Debug)]
pub struct Outcome {
    /// Latency of every completed edit, submission to answer, ms.
    pub latencies_ms: Vec<f64>,
    /// Edits submitted (the planned session length).
    pub attempted: usize,
    /// Edits that errored, were never run because an earlier edit
    /// errored, or missed the exact-posterior check.
    pub failed: usize,
    /// `incremental::collection_checksum` of the final collection,
    /// flattened (choice maps and weights).
    pub checksum: u64,
    /// `VmHWM` right after the last edit, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer measurements (traced sessions only).
    pub layers: Option<Layers>,
}

/// The checkpoint writes of a session.
#[derive(Debug, Clone, Copy)]
struct CheckpointCost {
    start: Instant,
    snapshot_end: Instant,
    end: Instant,
    bytes: u64,
}

/// Per-edit span durations of a traced session, ms.
#[derive(Debug, Clone, Copy, Default)]
struct EditTimes {
    total: f64,
    build: f64,
    stage: f64,
    translate: f64,
    busy: f64,
    checkpoint: f64,
    query: f64,
    diff: f64,
    impact: f64,
    plan: f64,
}

/// What a traced session measured, by layer.
#[derive(Debug)]
pub struct Layers {
    edits: Vec<EditTimes>,
    particle_us: Vec<f64>,
    checkpoints: Vec<(f64, f64, u64)>,
    report: MetricsReport,
    flatten_ms: f64,
    segments_per_particle: f64,
    nodes_per_particle: f64,
    rss_growth_kb_per_edit: f64,
    rss_retained_mb: f64,
    threads: usize,
}

/// Runs the session over `inputs`. With a span log the session is
/// traced: per-particle calls are timed, `core::metrics` is installed,
/// the plan layers are re-timed outside each edit, and the per-layer
/// measurements are returned in [`Outcome::layers`].
///
/// # Errors
///
/// Reports failures of the benchmark's own I/O (checkpoint directory,
/// `/proc/self/status`) and of flattening the final collection. Edit
/// failures are counted in [`Outcome::failed`] instead.
pub fn run_session(
    spec: &Spec,
    inputs: Inputs,
    mut log: Option<&mut SpanLog>,
) -> Result<Outcome, String> {
    let Inputs {
        programs,
        chains,
        latents,
        initial: _,
        lifted,
    } = inputs;
    let edits = spec.shape.edits;
    let smc = spec.smc_config();
    let stage_policy = spec.stage_policy();
    let policy = FailurePolicy::FailFast;
    let base_seed = spec.base_seed();
    let traced = log.is_some();
    let ck_dir = checkpoint_dir(spec);

    let recorder = Arc::new(MetricsRecorder::new());
    let guard = traced.then(|| metrics::install(Arc::clone(&recorder) as _));

    let mut current = lifted;
    let mut latencies_ms = Vec::with_capacity(edits);
    let mut failed = 0;
    let mut edit_times = Vec::new();
    let mut particle_us = Vec::new();
    let mut checkpoints = Vec::new();
    let mut rss_after_first = 0.0;
    for k in 0..edits {
        let (p, q) = (&programs[k], &programs[k + 1]);
        let due = spec.shape.checkpoint_every > 0 && (k + 1) % spec.shape.checkpoint_every == 0;
        let mut ck_cost = None;
        let mut observer = |snap: &StageSnapshot<'_, Arc<ExecGraph>>| {
            let cost = write_checkpoint(&ck_dir, snap, q, base_seed).map_err(SmcError::Eval)?;
            ck_cost = Some(cost);
            Ok(())
        };

        let t0 = Instant::now();
        let translator = IncrementalTranslator::from_shared(Arc::clone(p), Arc::clone(q));
        let built = Instant::now();
        let (stage, timed): (DynStage, _) = match &log {
            Some(log) => {
                let timed = Arc::new(TimedTranslator::new(
                    translator,
                    log.epoch(),
                    spec.shape.particles,
                ));
                (Arc::clone(&timed) as DynStage, Some(timed))
            }
            None => (Arc::new(translator), None),
        };
        let obs: Option<&mut StageObserver<'_, Arc<ExecGraph>>> =
            if due { Some(&mut observer) } else { None };
        let result = run_state_sequence_supervised(
            &[stage],
            &current,
            k,
            &[],
            &[],
            &smc,
            &policy,
            &stage_policy,
            base_seed,
            spec.threads,
            obs,
        );
        let staged = Instant::now();
        let next = match result {
            Ok(mut run) => run.collections.pop().zip(run.reports.pop()),
            Err(e) => {
                eprintln!("bench_edits: edit {k} failed: {e}");
                None
            }
        };
        let Some((next, report)) = next else {
            failed += edits - k;
            break;
        };
        // The previous collection is dropped once the answer is timed, so
        // that freeing it is not charged to the query.
        let prev = std::mem::replace(&mut current, next);
        let latent = latents[k + 1].as_ref();
        let estimate = latent.map(|a| query(&current, a));
        let answered = Instant::now();
        latencies_ms.push(ms(t0, answered));
        drop(prev);

        let exact = chains[k + 1].posterior_last();
        let ess = oracle_ess(&report, current.len());
        if !answer_is_exact(estimate, exact, ess) {
            eprintln!(
                "bench_edits: edit {k}: estimate {estimate:?} misses the exact posterior {exact:?} \
                 (effective sample size {ess:.1})"
            );
            failed += 1;
        }

        if let (Some(log), Some(timed)) = (log.as_deref_mut(), timed) {
            let calls = timed.take_calls();
            let mut times = EditTimes {
                total: ms(t0, answered),
                build: ms(t0, built),
                stage: ms(built, staged),
                query: ms(staged, answered),
                ..EditTimes::default()
            };
            log.record("edit", t0, answered, Some(k));
            log.record("depgraph.translator_build", t0, built, Some(k));
            log.record("core.stage", built, staged, Some(k));
            if let (Some(first), Some(last)) = (
                calls.iter().map(|c| c.0).min(),
                calls.iter().map(|c| c.1).max(),
            ) {
                let mut durations: Vec<f64> =
                    calls.iter().map(|(s, e)| (e - s) as f64 / 1e3).collect();
                times.translate = (last - first) as f64 / 1e6;
                times.busy = durations.iter().sum::<f64>() / 1e3;
                let p50 = percentile(&mut durations, 0.5);
                log.record_ns(
                    "core.translate",
                    first,
                    last,
                    Some(k),
                    vec![
                        ("particles", calls.len() as f64),
                        ("busy_ms", times.busy),
                        ("propagate_p50_us", p50),
                    ],
                );
                particle_us.extend(durations);
            }
            if let Some(c) = ck_cost {
                times.checkpoint = ms(c.start, c.end);
                log.record("core.checkpoint", c.start, c.end, Some(k));
                log.record("core.checkpoint.snapshot", c.start, c.snapshot_end, Some(k));
                log.record("core.checkpoint.save", c.snapshot_end, c.end, Some(k));
                checkpoints.push((
                    ms(c.start, c.snapshot_end),
                    ms(c.snapshot_end, c.end),
                    c.bytes,
                ));
            }
            log.record("bench.query", staged, answered, Some(k));
            replan(log, p, q, k, &mut times);
            edit_times.push(times);
            if k == 0 {
                rss_after_first = proc_status_kb("VmRSS")?;
            }
        }
    }
    let peak_rss_mb = proc_status_kb("VmHWM")? / 1024.0;
    let last_rss = if traced {
        proc_status_kb("VmRSS")?
    } else {
        0.0
    };
    drop(guard);

    let flatten_start = Instant::now();
    let flat = current
        .flatten()
        .map_err(|e| format!("flattening the final collection failed: {e}"))?;
    let flatten_end = Instant::now();
    let entries: Vec<_> = flat
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect();
    let checksum = collection_checksum(&entries);
    drop((entries, flat));

    let layers = match log {
        Some(log) => {
            log.record("core.flatten", flatten_start, flatten_end, None);
            if spec.shape.checkpoint_every == 0 {
                // Workloads without a checkpoint cadence still report the
                // cost of checkpointing their final collection, written
                // after the session so no edit pays for it.
                let snap = StageSnapshot {
                    step: edits,
                    collection: &current,
                    ess_history: &[],
                    reports: &[],
                };
                let c = write_checkpoint(&ck_dir, &snap, &programs[edits], base_seed)
                    .map_err(|e| format!("final checkpoint failed: {e}"))?;
                log.record("core.checkpoint", c.start, c.end, None);
                checkpoints.push((
                    ms(c.start, c.snapshot_end),
                    ms(c.snapshot_end, c.end),
                    c.bytes,
                ));
            }
            let n = current.len().max(1) as f64;
            let segments_per_particle = current
                .iter()
                .map(|p| p.trace.store().segments())
                .sum::<usize>() as f64
                / n;
            let nodes_per_particle =
                current.iter().map(|p| p.trace.store().len()).sum::<usize>() as f64 / n;
            drop(current);
            let rss_retained_mb = proc_status_kb("VmRSS")? / 1024.0;
            Some(Layers {
                rss_growth_kb_per_edit: (last_rss - rss_after_first)
                    / (latencies_ms.len().max(2) - 1) as f64,
                edits: edit_times,
                particle_us,
                checkpoints,
                report: recorder.report(spec.workload.name()),
                flatten_ms: ms(flatten_start, flatten_end),
                segments_per_particle,
                nodes_per_particle,
                rss_retained_mb,
                threads: spec.threads,
            })
        }
        None => None,
    };
    if ck_dir.exists() {
        std::fs::remove_dir_all(&ck_dir)
            .map_err(|e| format!("removing {}: {e}", ck_dir.display()))?;
    }
    Ok(Outcome {
        attempted: edits,
        failed,
        latencies_ms,
        checksum,
        peak_rss_mb,
        layers,
    })
}

/// Re-runs the three parts of `IncrementalTranslator::from_shared` on the
/// same program pair, outside the edit span, to split the plan layer.
/// `StagePlan::new` calls `impact_of_edit` itself, so the plan's time is
/// reported net of the impact time.
fn replan(log: &mut SpanLog, p: &Program, q: &Program, k: usize, times: &mut EditTimes) {
    let t0 = Instant::now();
    let edit = diff_programs(p, q);
    let t1 = Instant::now();
    let impact = impact_of_edit(q, p, &edit);
    let t2 = Instant::now();
    let plan = StagePlan::new(q, p, &edit);
    let t3 = Instant::now();
    drop((impact, plan));
    times.diff = ms(t0, t1);
    times.impact = ms(t1, t2);
    times.plan = (ms(t2, t3) - times.impact).max(0.0);
    log.record("replan.depgraph.diff", t0, t1, Some(k));
    log.record("replan.depgraph.impact", t1, t2, Some(k));
    log.record("replan.depgraph.stageplan", t2, t3, Some(k));
}

/// Where a session writes its checkpoints: a per-process directory under
/// `.bench_out`, removed when the session ends.
fn checkpoint_dir(spec: &Spec) -> PathBuf {
    Path::new(crate::OUT_DIR).join(format!(
        "ckpt-{}-{}",
        spec.workload.name(),
        std::process::id()
    ))
}

/// Writes one checkpoint of `snap` the way a checkpointing caller does:
/// fingerprint the target program, flatten, save durably.
fn write_checkpoint(
    dir: &Path,
    snap: &StageSnapshot<'_, Arc<ExecGraph>>,
    target: &Program,
    base_seed: u64,
) -> Result<CheckpointCost, PplError> {
    let start = Instant::now();
    let ck = Checkpoint::from_snapshot(snap, base_seed, program_fingerprint(target))?;
    let snapshot_end = Instant::now();
    let path = ck.save(dir)?;
    let end = Instant::now();
    let bytes = std::fs::metadata(&path)
        .map_err(|e| PplError::Other(format!("{}: {e}", path.display())))?
        .len();
    Ok(CheckpointCost {
        start,
        snapshot_end,
        end,
        bytes,
    })
}

/// The posterior query: the self-normalised probability that the final
/// latent is 1. `None` when a particle lacks the latent or the weights
/// are degenerate. `ExecGraph::choice` builds each new graph's lazy
/// address index, so the query also pays for an index that later lookups
/// on the graph would otherwise build.
fn query(collection: &Graphs, latent: &Address) -> Option<f64> {
    let mut missing = false;
    let p = collection.probability(|g| match g.choice(latent) {
        Some(c) => c.value.truthy().unwrap_or_else(|_| {
            missing = true;
            false
        }),
        None => {
            missing = true;
            false
        }
    });
    p.ok().filter(|_| !missing)
}

/// The sample size the exact-posterior check allows for: the stage's
/// post-reweight ESS, and, when the stage resampled, the `particles`
/// multinomial draws on top of it, whose noise adds to the estimate's
/// variance (`1/n = 1/ESS + 1/particles`). The ESS of a resampled
/// collection alone would overstate what it knows.
fn oracle_ess(report: &StepReport, particles: usize) -> f64 {
    if report.resampled {
        1.0 / (1.0 / report.ess + 1.0 / particles as f64)
    } else {
        report.ess
    }
}

/// The exact-posterior check: the estimate lies within five standard
/// errors `sqrt(p (1 - p) / ess)` of the forward-algorithm answer. A
/// program without a latent needs no answer.
pub fn answer_is_exact(estimate: Option<Option<f64>>, exact: Option<f64>, ess: f64) -> bool {
    match (estimate, exact) {
        (None, None) => true,
        (Some(Some(est)), Some(p)) => {
            ess > 0.0 && (est - p).abs() <= 5.0 * (p * (1.0 - p) / ess).sqrt()
        }
        _ => false,
    }
}

/// A field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("/proc/self/status has no {field} field"))
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (sorts in place). `0` for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// `num / den`, or `empty` when nothing was counted.
fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

impl Layers {
    /// The per-layer metrics, `(name, value, unit)`. `untraced_p50_ms` is
    /// the untraced run's `edit_p50_ms`, for the tracing overhead.
    pub fn metrics(
        &self,
        setups: &[SetupTimes],
        untraced_p50_ms: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let col = |f: fn(&EditTimes) -> f64| self.edits.iter().map(f).collect::<Vec<f64>>();
        let med = |mut v: Vec<f64>| percentile(&mut v, 0.5);
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64, 0.0);
        let setup_med = |f: fn(&SetupTimes) -> f64| med(setups.iter().map(f).collect());

        let stages = &self.report.stages;
        let prop = self.report.total_propagation();
        let particles: f64 = stages.iter().map(|s| s.input_particles as f64).sum();
        let edits = stages.len().max(1) as f64;
        let eval = &self.report.eval;

        let busy: f64 = col(|e| e.busy).iter().sum();
        let wall: f64 = col(|e| e.translate).iter().sum();
        let traced_p50 = med(col(|e| e.total));
        let ck = |f: fn(&(f64, f64, u64)) -> f64| {
            mean(&self.checkpoints.iter().map(f).collect::<Vec<_>>())
        };

        vec![
            ("ppl.parse_ms", setup_med(|s| s.parse_ms), "ms"),
            ("ppl.simulate_ms", setup_med(|s| s.simulate_ms), "ms"),
            ("depgraph.lift_ms", setup_med(|s| s.lift_ms), "ms"),
            ("depgraph.translator_build_ms", med(col(|e| e.build)), "ms"),
            ("depgraph.diff_ms", med(col(|e| e.diff)), "ms"),
            ("depgraph.impact_ms", med(col(|e| e.impact)), "ms"),
            ("depgraph.stageplan_ms", med(col(|e| e.plan)), "ms"),
            ("depgraph.propagate_us", med(self.particle_us.clone()), "us"),
            ("depgraph.propagate_busy_ms", med(col(|e| e.busy)), "ms"),
            (
                "depgraph.nodes_visited_per_particle",
                ratio(prop.nodes_visited as f64, particles, 0.0),
                "count",
            ),
            (
                "depgraph.visit_ratio",
                ratio(
                    prop.nodes_visited as f64,
                    (prop.nodes_visited + prop.nodes_skipped) as f64,
                    0.0,
                ),
                "ratio",
            ),
            (
                "depgraph.static_skip_share",
                ratio(prop.static_skips as f64, prop.nodes_skipped as f64, 0.0),
                "ratio",
            ),
            (
                "depgraph.choice_reuse_ratio",
                ratio(
                    prop.choices_reused as f64,
                    (prop.choices_reused + prop.choices_fresh) as f64,
                    1.0,
                ),
                "ratio",
            ),
            (
                "depgraph.choices_fresh_per_particle",
                ratio(prop.choices_fresh as f64, particles, 0.0),
                "count",
            ),
            (
                "ppl.compile_cache_hit_ratio",
                ratio(
                    eval.compile_cache_hits as f64,
                    (eval.compile_cache_hits + eval.compile_cache_misses) as f64,
                    1.0,
                ),
                "ratio",
            ),
            (
                "ppl.frame_reuse_ratio",
                ratio(
                    eval.frames_reused as f64,
                    (eval.frames_reused + eval.frames_created) as f64,
                    1.0,
                ),
                "ratio",
            ),
            ("core.translate_wall_ms", med(col(|e| e.translate)), "ms"),
            (
                "core.parallel_efficiency",
                ratio(busy, wall * self.threads as f64, 0.0),
                "ratio",
            ),
            ("core.runner_self_ms", med(col(runner_self)), "ms"),
            (
                "core.pool_tasks_per_edit",
                stages.iter().map(|s| s.pool_tasks as f64).sum::<f64>() / edits,
                "count",
            ),
            (
                "core.pool_queue_hwm",
                self.report.pool.queue_depth_hwm as f64,
                "count",
            ),
            (
                "core.resample_ms",
                stages.iter().map(|s| s.resample_ms).sum::<f64>() / edits,
                "ms",
            ),
            (
                "core.resample_rate",
                stages.iter().filter(|s| s.resampled).count() as f64 / edits,
                "ratio",
            ),
            ("core.checkpoint_snapshot_ms", ck(|c| c.0), "ms"),
            ("core.checkpoint_save_ms", ck(|c| c.1), "ms"),
            ("core.checkpoint_bytes", ck(|c| c.2 as f64), "bytes"),
            (
                "depgraph.arena_segments_per_particle",
                self.segments_per_particle,
                "count",
            ),
            (
                "depgraph.arena_nodes_per_particle",
                self.nodes_per_particle,
                "count",
            ),
            (
                "depgraph.rss_growth_kb_per_edit",
                self.rss_growth_kb_per_edit,
                "kB",
            ),
            ("depgraph.rss_retained_mb", self.rss_retained_mb, "MiB"),
            ("core.flatten_ms", self.flatten_ms, "ms"),
            ("bench.query_ms", med(col(|e| e.query)), "ms"),
            (
                "trace.overhead_pct",
                (ratio(traced_p50, untraced_p50_ms, 1.0) - 1.0) * 100.0,
                "%",
            ),
        ]
    }
}

/// The stage span minus the translate and checkpoint spans inside it.
fn runner_self(e: &EditTimes) -> f64 {
    (e.stage - e.translate - e.checkpoint).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.5), 2.5);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert!((percentile(&mut v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn oracle_bound_scales_with_ess() {
        assert!(answer_is_exact(Some(Some(0.52)), Some(0.5), 100.0));
        assert!(!answer_is_exact(Some(Some(0.80)), Some(0.5), 100.0));
        assert!(answer_is_exact(Some(Some(0.80)), Some(0.5), 4.0));
        assert!(!answer_is_exact(Some(None), Some(0.5), 100.0));
        assert!(!answer_is_exact(Some(Some(0.5)), Some(0.5), 0.0));
        assert!(answer_is_exact(None, None, 10.0));
    }

    #[test]
    fn resampling_adds_its_draws_to_the_oracle_error() {
        let mut report = StepReport {
            step: 0,
            input_particles: 100,
            output_particles: 100,
            ess: 50.0,
            dropped: 0,
            retries: 0,
            recovered: 0,
            failures: vec![],
            resampled: false,
            collapse_recovered: false,
        };
        assert_eq!(oracle_ess(&report, 100), 50.0);
        report.resampled = true;
        assert!((oracle_ess(&report, 100) - 100.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn proc_status_fields_parse() {
        assert!(proc_status_kb("VmHWM").unwrap() > 0.0);
        assert!(proc_status_kb("NoSuchField").is_err());
    }
}
