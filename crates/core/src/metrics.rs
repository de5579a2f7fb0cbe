//! Runtime observability: propagation counters, stage metrics, and pool
//! telemetry — zero-cost when disabled.
//!
//! The paper's central performance claim (a fixed-size edit costs O(1)
//! per SMC step, independent of program size — Figs. 9/10) is usually
//! argued with wall-clock medians. This module counts what the runtime
//! actually *did* — execution-graph nodes visited vs skipped, whole
//! loops skipped by summary reuse, random choices reused vs freshly
//! sampled — turning the asymptotic claim into an asserted invariant.
//! Alongside the counters it records per-stage wall time decomposed into
//! translate / resample / checkpoint, health tallies pulled from
//! [`StepReport`], and worker-pool telemetry (queue-depth high-water
//! mark, a fixed-bucket task-latency histogram, respawn and retirement
//! counts).
//!
//! # Design
//!
//! - **Disabled by default, one branch to check.** Every record path is
//!   gated on a single relaxed [`AtomicBool`] load ([`enabled`]); when
//!   off, hooks are a load-and-branch and [`clock`] returns `None`
//!   without touching the OS clock. Inference output is byte-identical
//!   with metrics on or off — the layer only *observes*.
//! - **Deterministic counters.** All counters are `u64` sums accumulated
//!   with relaxed atomic adds. Addition is commutative and associative,
//!   and every stage boundary is a barrier (the pooled runners drain all
//!   tasks before reporting), so per-stage counter totals are
//!   bit-identical across thread counts for a fixed seed — exactly like
//!   the weights they describe. Wall times and pool telemetry are
//!   inherently schedule-dependent and therefore excluded from the
//!   deterministic subset ([`MetricsReport::counters_json`]).
//! - **One run at a time.** [`install`] serializes metrics-enabled runs
//!   behind a process-wide lock so concurrent tests cannot contaminate
//!   each other's counters; the returned [`MetricsGuard`] re-disables
//!   collection on drop.
//!
//! The JSON schema (`metrics/v1`) is documented in DESIGN.md §13.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::health::{FailureKind, StepReport};

/// Change-propagation work counters for one unit of translation work
/// (one particle, one stage, or a whole run — they add).
///
/// `depgraph` fills one of these per `translate_graph` call from its
/// `VisitStats`; the flat (non-graph) translator records nothing, so a
/// flat run reports all-zero propagation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationCounters {
    /// Statement instances re-executed (the affected slice).
    pub nodes_visited: u64,
    /// Statement instances skipped with their recorded effects reused.
    pub nodes_skipped: u64,
    /// Whole loop records (`for`/`while`) skipped without entering the
    /// body — the O(1) fixed-size-edit claim in counter form.
    pub loop_skips: u64,
    /// Per-iteration skips inside loops that *were* entered.
    pub iter_skips: u64,
    /// Random choices reused from the source trace (summary cache hits).
    pub choices_reused: u64,
    /// Random choices freshly sampled.
    pub choices_fresh: u64,
    /// Observation statements re-scored.
    pub observes_rescored: u64,
    /// Statement records skipped purely from static impact-slice facts,
    /// with no runtime dirty check (subset of `nodes_skipped`).
    pub static_skips: u64,
    /// Slice-soundness oracle membership checks performed (non-zero only
    /// under `--verify-slices`).
    pub oracle_checks: u64,
}

impl PropagationCounters {
    /// Field-wise sum.
    #[must_use]
    pub fn merged(&self, other: &PropagationCounters) -> PropagationCounters {
        PropagationCounters {
            nodes_visited: self.nodes_visited + other.nodes_visited,
            nodes_skipped: self.nodes_skipped + other.nodes_skipped,
            loop_skips: self.loop_skips + other.loop_skips,
            iter_skips: self.iter_skips + other.iter_skips,
            choices_reused: self.choices_reused + other.choices_reused,
            choices_fresh: self.choices_fresh + other.choices_fresh,
            observes_rescored: self.observes_rescored + other.observes_rescored,
            static_skips: self.static_skips + other.static_skips,
            oracle_checks: self.oracle_checks + other.oracle_checks,
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == PropagationCounters::default()
    }
}

/// Everything recorded about one completed SMC stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Absolute stage (SMC step) index.
    pub step: usize,
    /// Collection size before the stage.
    pub input_particles: usize,
    /// Collection size after the stage.
    pub output_particles: usize,
    /// Post-reweight ESS (the degeneracy diagnostic).
    pub ess: f64,
    /// Particles quarantined this stage.
    pub dropped: usize,
    /// Retry attempts beyond first attempts.
    pub retries: usize,
    /// Particles that succeeded only after a retry.
    pub recovered: usize,
    /// Failures of kind [`FailureKind::Timeout`] this stage.
    pub timeouts: usize,
    /// Whether resampling ran.
    pub resampled: bool,
    /// Whether a weight collapse was recovered from.
    pub collapse_recovered: bool,
    /// Wall time of the translate/reweight phase, milliseconds.
    pub translate_ms: f64,
    /// Wall time of the degeneracy tail (ESS + resampling), milliseconds.
    pub resample_ms: f64,
    /// Wall time spent in the checkpoint observer, milliseconds.
    pub checkpoint_ms: f64,
    /// Worker tasks dispatched for this stage's translate phase (0 on
    /// the serial fast path). Schedule-shaped (depends on thread count
    /// and chunk size), so not part of the deterministic subset.
    pub pool_tasks: u64,
    /// Particles per task used by this stage's translate dispatch (the
    /// high-water value across the stage's rounds; 0 when serial).
    pub chunk_size: u64,
    /// Propagation counters summed over every particle of the stage.
    pub propagation: PropagationCounters,
}

/// Number of log-spaced task-latency buckets: bucket `i` counts tasks
/// whose latency is in `[2^i, 2^{i+1})` microseconds (bucket 0 includes
/// sub-microsecond tasks; the last bucket is open-ended at ~2.3 hours).
pub const LATENCY_BUCKETS: usize = 24;

/// Worker-pool telemetry accumulated over a metrics-enabled run.
///
/// Schedule-dependent by nature (queue depth and latency depend on OS
/// scheduling), so never part of the deterministic counter subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// Tasks dispatched to the pool (scoped batches + owned spawns).
    pub tasks: u64,
    /// High-water mark of simultaneously pending scoped tasks.
    pub queue_depth_hwm: u64,
    /// Dead workers replaced by `respawn_dead`.
    pub respawns: u64,
    /// Global pools retired (wedged-pool replacement events).
    pub retirements: u64,
    /// Task-latency histogram, log2-spaced microsecond buckets.
    pub latency_buckets: [u64; LATENCY_BUCKETS],
}

impl Default for PoolTelemetry {
    fn default() -> PoolTelemetry {
        PoolTelemetry {
            tasks: 0,
            queue_depth_hwm: 0,
            respawns: 0,
            retirements: 0,
            latency_buckets: [0; LATENCY_BUCKETS],
        }
    }
}

/// Compiled-evaluation telemetry snapshot: compile-cache effectiveness,
/// compiled-vs-tree-walk execution mix, and eval-frame reuse. Counts are
/// process-wide and schedule-dependent (frame pools are per worker
/// thread, the compile cache persists across runs), so this section is
/// report-only and deliberately excluded from the deterministic subset
/// ([`MetricsReport::counters_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalTelemetry {
    /// Compile-cache lookups served from the cache.
    pub compile_cache_hits: u64,
    /// Compile-cache lookups that had to lower the program.
    pub compile_cache_misses: u64,
    /// Program executions through the compiled register path.
    pub compiled_execs: u64,
    /// Program executions through the tree-walk reference path.
    pub tree_walk_execs: u64,
    /// Eval frames allocated fresh.
    pub frames_created: u64,
    /// Eval frames reused from a worker's frame pool.
    pub frames_reused: u64,
}

/// Consumer of per-stage metrics. Implementations must be cheap and
/// non-blocking-ish: `record_stage` is called once per stage from the
/// sequence-runner thread, never from workers.
pub trait MetricsSink: Send + Sync {
    /// Called once after each completed stage.
    fn record_stage(&self, stage: &StageMetrics);
}

/// A sink that discards everything (the default when none is installed).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    fn record_stage(&self, _stage: &StageMetrics) {}
}

/// The standard sink: accumulates stages in memory and snapshots them
/// into a [`MetricsReport`].
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    stages: Mutex<Vec<StageMetrics>>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    /// Snapshots the recorded stages plus the pool telemetry accumulated
    /// since [`install`] into a report.
    pub fn report(&self, label: &str) -> MetricsReport {
        MetricsReport {
            label: label.to_string(),
            stages: lock(&self.stages).clone(),
            pool: pool_telemetry(),
            eval: eval_telemetry(),
        }
    }
}

impl MetricsSink for MetricsRecorder {
    fn record_stage(&self, stage: &StageMetrics) {
        lock(&self.stages).push(stage.clone());
    }
}

/// A metrics-enabled run's collected output: per-stage metrics plus
/// run-wide pool telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Caller-chosen run label.
    pub label: String,
    /// One entry per completed stage, in order.
    pub stages: Vec<StageMetrics>,
    /// Pool telemetry accumulated over the run.
    pub pool: PoolTelemetry,
    /// Compiled-evaluation telemetry accumulated over the run.
    pub eval: EvalTelemetry,
}

impl MetricsReport {
    /// Propagation counters summed over all stages.
    pub fn total_propagation(&self) -> PropagationCounters {
        self.stages
            .iter()
            .fold(PropagationCounters::default(), |acc, s| {
                acc.merged(&s.propagation)
            })
    }

    /// The full `metrics/v1` JSON document: deterministic counters plus
    /// wall times and pool telemetry.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"metrics/v1\",\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", escape(&self.label)));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let sep = if i + 1 == self.stages.len() { "" } else { "," };
            out.push_str("    {\n");
            out.push_str(&stage_counter_fields(s, "      "));
            out.push_str(&format!(
                "      \"pool_tasks\": {},\n      \"chunk_size\": {},\n",
                s.pool_tasks, s.chunk_size
            ));
            out.push_str(&format!(
                "      \"translate_ms\": {:.3},\n      \"resample_ms\": {:.3},\n      \"checkpoint_ms\": {:.3}\n",
                s.translate_ms, s.resample_ms, s.checkpoint_ms
            ));
            out.push_str(&format!("    }}{sep}\n"));
        }
        out.push_str("  ],\n");
        out.push_str("  \"pool\": {\n");
        out.push_str(&format!("    \"tasks\": {},\n", self.pool.tasks));
        out.push_str(&format!(
            "    \"queue_depth_hwm\": {},\n",
            self.pool.queue_depth_hwm
        ));
        out.push_str(&format!("    \"respawns\": {},\n", self.pool.respawns));
        out.push_str(&format!(
            "    \"retirements\": {},\n",
            self.pool.retirements
        ));
        let buckets: Vec<String> = self
            .pool
            .latency_buckets
            .iter()
            .map(u64::to_string)
            .collect();
        out.push_str(&format!(
            "    \"latency_us_log2_buckets\": [{}]\n",
            buckets.join(", ")
        ));
        out.push_str("  },\n");
        out.push_str("  \"eval\": {\n");
        out.push_str(&format!(
            "    \"compile_cache_hits\": {},\n",
            self.eval.compile_cache_hits
        ));
        out.push_str(&format!(
            "    \"compile_cache_misses\": {},\n",
            self.eval.compile_cache_misses
        ));
        out.push_str(&format!(
            "    \"compiled_execs\": {},\n",
            self.eval.compiled_execs
        ));
        out.push_str(&format!(
            "    \"tree_walk_execs\": {},\n",
            self.eval.tree_walk_execs
        ));
        out.push_str(&format!(
            "    \"frames_created\": {},\n",
            self.eval.frames_created
        ));
        out.push_str(&format!(
            "    \"frames_reused\": {}\n",
            self.eval.frames_reused
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// The deterministic subset only: per-stage counters and health
    /// tallies, no wall times, no pool telemetry. Bit-identical across
    /// thread counts for a fixed seed — the determinism tests compare
    /// this string byte for byte.
    pub fn counters_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"metrics/v1-counters\",\n");
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let sep = if i + 1 == self.stages.len() { "" } else { "," };
            out.push_str("    {\n");
            let mut fields = stage_counter_fields(s, "      ");
            // Drop the trailing comma of the last counter field.
            if fields.ends_with(",\n") {
                fields.truncate(fields.len() - 2);
                fields.push('\n');
            }
            out.push_str(&fields);
            out.push_str(&format!("    }}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human summary: one table row per stage plus pool totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("metrics for `{}`:\n", self.label));
        out.push_str(
            "  stage    visited    skipped  loop-skip     reused      fresh  \
             tasks  chunk  translate   resample  checkpoint\n",
        );
        for s in &self.stages {
            out.push_str(&format!(
                "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6} {:>9.2}ms {:>8.2}ms {:>9.2}ms\n",
                s.step,
                s.propagation.nodes_visited,
                s.propagation.nodes_skipped,
                s.propagation.loop_skips,
                s.propagation.choices_reused,
                s.propagation.choices_fresh,
                s.pool_tasks,
                s.chunk_size,
                s.translate_ms,
                s.resample_ms,
                s.checkpoint_ms,
            ));
        }
        let total = self.total_propagation();
        out.push_str(&format!(
            "  total: {} visited, {} skipped ({} whole-loop), \
             {} choices reused / {} fresh, {} observes re-scored\n",
            total.nodes_visited,
            total.nodes_skipped,
            total.loop_skips,
            total.choices_reused,
            total.choices_fresh,
            total.observes_rescored,
        ));
        out.push_str(&format!(
            "  static: {} records pre-pruned by the impact slice, {} oracle checks\n",
            total.static_skips, total.oracle_checks,
        ));
        out.push_str(&format!(
            "  pool: {} tasks, queue depth high-water {}, {} respawns, {} retirements\n",
            self.pool.tasks, self.pool.queue_depth_hwm, self.pool.respawns, self.pool.retirements,
        ));
        out.push_str(&format!(
            "  eval: {} compiled / {} tree-walk execs, cache {} hits / {} misses, \
             frames {} created / {} reused\n",
            self.eval.compiled_execs,
            self.eval.tree_walk_execs,
            self.eval.compile_cache_hits,
            self.eval.compile_cache_misses,
            self.eval.frames_created,
            self.eval.frames_reused,
        ));
        out
    }
}

/// The per-stage counter fields shared by [`MetricsReport::to_json`] and
/// [`MetricsReport::counters_json`] (every line comma-terminated).
fn stage_counter_fields(s: &StageMetrics, pad: &str) -> String {
    let p = &s.propagation;
    format!(
        "{pad}\"step\": {},\n\
         {pad}\"input_particles\": {},\n\
         {pad}\"output_particles\": {},\n\
         {pad}\"ess\": {:?},\n\
         {pad}\"dropped\": {},\n\
         {pad}\"retries\": {},\n\
         {pad}\"recovered\": {},\n\
         {pad}\"timeouts\": {},\n\
         {pad}\"resampled\": {},\n\
         {pad}\"collapse_recovered\": {},\n\
         {pad}\"nodes_visited\": {},\n\
         {pad}\"nodes_skipped\": {},\n\
         {pad}\"loop_skips\": {},\n\
         {pad}\"iter_skips\": {},\n\
         {pad}\"choices_reused\": {},\n\
         {pad}\"choices_fresh\": {},\n\
         {pad}\"observes_rescored\": {},\n\
         {pad}\"static_skips\": {},\n\
         {pad}\"oracle_checks\": {},\n",
        s.step,
        s.input_particles,
        s.output_particles,
        s.ess,
        s.dropped,
        s.retries,
        s.recovered,
        s.timeouts,
        s.resampled,
        s.collapse_recovered,
        p.nodes_visited,
        p.nodes_skipped,
        p.loop_skips,
        p.iter_skips,
        p.choices_reused,
        p.choices_fresh,
        p.observes_rescored,
        p.static_skips,
        p.oracle_checks,
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Global collection state.
//
// One metrics-enabled run at a time (serialized by EXCLUSIVE); all hot
// paths check ENABLED with one relaxed load and add into relaxed
// AtomicU64 accumulators, which the stage loop drains at each stage
// boundary. Those boundaries are barriers (every particle of a stage has
// finished), so the drain is race-free with respect to worker threads.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static EXCLUSIVE: Mutex<()> = Mutex::new(());
static SINK: Mutex<Option<std::sync::Arc<dyn MetricsSink>>> = Mutex::new(None);

// Propagation accumulators (drained per stage).
static P_VISITED: AtomicU64 = AtomicU64::new(0);
static P_SKIPPED: AtomicU64 = AtomicU64::new(0);
static P_LOOP_SKIPS: AtomicU64 = AtomicU64::new(0);
static P_ITER_SKIPS: AtomicU64 = AtomicU64::new(0);
static P_REUSED: AtomicU64 = AtomicU64::new(0);
static P_FRESH: AtomicU64 = AtomicU64::new(0);
static P_OBSERVES: AtomicU64 = AtomicU64::new(0);
static P_STATIC_SKIPS: AtomicU64 = AtomicU64::new(0);
static P_ORACLE_CHECKS: AtomicU64 = AtomicU64::new(0);

// Phase-time accumulators, nanoseconds (drained per stage).
static T_TRANSLATE_NS: AtomicU64 = AtomicU64::new(0);
static T_RESAMPLE_NS: AtomicU64 = AtomicU64::new(0);
static T_CHECKPOINT_NS: AtomicU64 = AtomicU64::new(0);

// Dispatch gauges (drained per stage).
static D_TASKS: AtomicU64 = AtomicU64::new(0);
static D_CHUNK: AtomicU64 = AtomicU64::new(0);

// Pool telemetry (accumulated per run, read at report time).
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
static POOL_DEPTH: AtomicU64 = AtomicU64::new(0);
static POOL_DEPTH_HWM: AtomicU64 = AtomicU64::new(0);
static POOL_RESPAWNS: AtomicU64 = AtomicU64::new(0);
static POOL_RETIREMENTS: AtomicU64 = AtomicU64::new(0);
static POOL_LATENCY: [AtomicU64; LATENCY_BUCKETS] = [const { AtomicU64::new(0) }; LATENCY_BUCKETS];

/// Whether metrics collection is currently enabled. One relaxed atomic
/// load — the entire cost of the layer when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard of a metrics-enabled run: collection stays on until it is
/// dropped, and no other run can enable metrics while it lives.
pub struct MetricsGuard {
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *lock(&SINK) = None;
    }
}

/// Enables metrics collection with `sink` receiving per-stage metrics,
/// returning a guard that disables collection when dropped.
///
/// Blocks until any other metrics-enabled run finishes (collection state
/// is process-global), then resets all accumulators so the new run
/// starts from zero.
pub fn install(sink: std::sync::Arc<dyn MetricsSink>) -> MetricsGuard {
    let exclusive = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    for c in [
        &P_VISITED,
        &P_SKIPPED,
        &P_LOOP_SKIPS,
        &P_ITER_SKIPS,
        &P_REUSED,
        &P_FRESH,
        &P_OBSERVES,
        &P_STATIC_SKIPS,
        &P_ORACLE_CHECKS,
        &T_TRANSLATE_NS,
        &T_RESAMPLE_NS,
        &T_CHECKPOINT_NS,
        &D_TASKS,
        &D_CHUNK,
        &POOL_TASKS,
        &POOL_DEPTH,
        &POOL_DEPTH_HWM,
        &POOL_RESPAWNS,
        &POOL_RETIREMENTS,
    ] {
        c.store(0, Ordering::SeqCst);
    }
    for b in &POOL_LATENCY {
        b.store(0, Ordering::SeqCst);
    }
    ppl::compile::reset_eval_counters();
    *lock(&SINK) = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
    MetricsGuard {
        _exclusive: exclusive,
    }
}

/// Adds a translation's propagation counters to the current stage's
/// accumulators. Called by `depgraph` once per `translate_graph`.
#[inline]
pub fn record_propagation(c: &PropagationCounters) {
    if !enabled() {
        return;
    }
    P_VISITED.fetch_add(c.nodes_visited, Ordering::Relaxed);
    P_SKIPPED.fetch_add(c.nodes_skipped, Ordering::Relaxed);
    P_LOOP_SKIPS.fetch_add(c.loop_skips, Ordering::Relaxed);
    P_ITER_SKIPS.fetch_add(c.iter_skips, Ordering::Relaxed);
    P_REUSED.fetch_add(c.choices_reused, Ordering::Relaxed);
    P_FRESH.fetch_add(c.choices_fresh, Ordering::Relaxed);
    P_OBSERVES.fetch_add(c.observes_rescored, Ordering::Relaxed);
    P_STATIC_SKIPS.fetch_add(c.static_skips, Ordering::Relaxed);
    P_ORACLE_CHECKS.fetch_add(c.oracle_checks, Ordering::Relaxed);
}

/// `Some(now)` iff metrics are enabled — phase timing reads the OS clock
/// only when someone is listening.
#[inline]
pub fn clock() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

#[inline]
fn note_elapsed(counter: &AtomicU64, start: Option<Instant>) {
    if let Some(start) = start {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        counter.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Credits elapsed time since `start` (a [`clock`] result) to the
/// current stage's translate phase.
#[inline]
pub fn note_translate(start: Option<Instant>) {
    note_elapsed(&T_TRANSLATE_NS, start);
}

/// Credits elapsed time since `start` to the current stage's degeneracy
/// tail (ESS + resampling).
#[inline]
pub fn note_resample(start: Option<Instant>) {
    note_elapsed(&T_RESAMPLE_NS, start);
}

/// Credits elapsed time since `start` to the current stage's checkpoint
/// observer.
#[inline]
pub fn note_checkpoint(start: Option<Instant>) {
    note_elapsed(&T_CHECKPOINT_NS, start);
}

/// Drains the stage accumulators into a [`StageMetrics`] built from the
/// completed stage's [`StepReport`] and hands it to the installed sink.
/// Called by every sequence runner at each stage boundary (a barrier:
/// all of the stage's worker tasks have completed).
pub fn stage_complete(report: &StepReport) {
    if !enabled() {
        return;
    }
    let drain = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
    let propagation = PropagationCounters {
        nodes_visited: drain(&P_VISITED),
        nodes_skipped: drain(&P_SKIPPED),
        loop_skips: drain(&P_LOOP_SKIPS),
        iter_skips: drain(&P_ITER_SKIPS),
        choices_reused: drain(&P_REUSED),
        choices_fresh: drain(&P_FRESH),
        observes_rescored: drain(&P_OBSERVES),
        static_skips: drain(&P_STATIC_SKIPS),
        oracle_checks: drain(&P_ORACLE_CHECKS),
    };
    let to_ms = |ns: u64| ns as f64 / 1e6;
    let stage = StageMetrics {
        step: report.step,
        input_particles: report.input_particles,
        output_particles: report.output_particles,
        ess: report.ess,
        dropped: report.dropped,
        retries: report.retries,
        recovered: report.recovered,
        timeouts: report
            .failures
            .iter()
            .filter(|f| matches!(f.kind, FailureKind::Timeout { .. }))
            .count(),
        resampled: report.resampled,
        collapse_recovered: report.collapse_recovered,
        translate_ms: to_ms(drain(&T_TRANSLATE_NS)),
        resample_ms: to_ms(drain(&T_RESAMPLE_NS)),
        checkpoint_ms: to_ms(drain(&T_CHECKPOINT_NS)),
        pool_tasks: drain(&D_TASKS),
        chunk_size: drain(&D_CHUNK),
        propagation,
    };
    if let Some(sink) = lock(&SINK).clone() {
        sink.record_stage(&stage);
    }
}

/// Records one translate-phase dispatch of `tasks` worker tasks at
/// `chunk` particles per task. Tasks accumulate across a stage's rounds
/// (the deadline path re-dispatches stragglers); the chunk gauge keeps
/// the round high-water value.
#[inline]
pub fn note_stage_dispatch(tasks: u64, chunk: u64) {
    if !enabled() {
        return;
    }
    D_TASKS.fetch_add(tasks, Ordering::Relaxed);
    D_CHUNK.fetch_max(chunk, Ordering::Relaxed);
}

/// Snapshot of the compiled-evaluation telemetry maintained by
/// [`ppl::compile`]. Unlike the other accumulators these live in the
/// `ppl` crate (the hot eval paths must not depend on `core`); they are
/// zeroed by [`install`] so a report covers one run.
pub fn eval_telemetry() -> EvalTelemetry {
    let c = ppl::compile::eval_counters();
    EvalTelemetry {
        compile_cache_hits: c.compile_cache_hits,
        compile_cache_misses: c.compile_cache_misses,
        compiled_execs: c.compiled_execs,
        tree_walk_execs: c.tree_walk_execs,
        frames_created: c.frames_created,
        frames_reused: c.frames_reused,
    }
}

/// Records `n` tasks entering the pool's pending set, updating the
/// queue-depth high-water mark.
#[inline]
pub fn note_pool_enqueue(n: u64) {
    if !enabled() {
        return;
    }
    POOL_TASKS.fetch_add(n, Ordering::Relaxed);
    let depth = POOL_DEPTH.fetch_add(n, Ordering::Relaxed) + n;
    POOL_DEPTH_HWM.fetch_max(depth, Ordering::Relaxed);
}

/// Records completion of a pool task whose start was captured with
/// [`clock`]; a `None` start (metrics were off when the task began) is
/// ignored.
#[inline]
pub fn note_pool_task(start: Option<Instant>) {
    if let Some(start) = start {
        note_pool_task_done(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Records one task leaving the pending set after running for
/// `elapsed_ns` nanoseconds; buckets the latency log2 by microsecond.
#[inline]
pub fn note_pool_task_done(elapsed_ns: u64) {
    if !enabled() {
        return;
    }
    // Saturating decrement: enqueue/dequeue pairs can straddle an
    // install() reset.
    let _ = POOL_DEPTH.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
        Some(d.saturating_sub(1))
    });
    let us = elapsed_ns / 1_000;
    // Bucket i covers [2^i, 2^{i+1}) µs; sub-µs tasks land in bucket 0.
    let idx = (63 - (us | 1).leading_zeros()) as usize;
    POOL_LATENCY[idx.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
}

/// Records `n` dead workers replaced by the pool's respawn sweep.
#[inline]
pub fn note_pool_respawn(n: u64) {
    if enabled() && n > 0 {
        POOL_RESPAWNS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records a global-pool retirement (wedged-pool replacement).
#[inline]
pub fn note_pool_retirement() {
    if enabled() {
        POOL_RETIREMENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot of the pool telemetry accumulated since [`install`].
pub fn pool_telemetry() -> PoolTelemetry {
    let mut latency_buckets = [0u64; LATENCY_BUCKETS];
    for (out, b) in latency_buckets.iter_mut().zip(POOL_LATENCY.iter()) {
        *out = b.load(Ordering::Relaxed);
    }
    PoolTelemetry {
        tasks: POOL_TASKS.load(Ordering::Relaxed),
        queue_depth_hwm: POOL_DEPTH_HWM.load(Ordering::Relaxed),
        respawns: POOL_RESPAWNS.load(Ordering::Relaxed),
        retirements: POOL_RETIREMENTS.load(Ordering::Relaxed),
        latency_buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn report(step: usize) -> StepReport {
        StepReport {
            step,
            input_particles: 4,
            output_particles: 4,
            ess: 3.5,
            dropped: 0,
            retries: 0,
            recovered: 0,
            failures: vec![],
            resampled: false,
            collapse_recovered: false,
        }
    }

    #[test]
    fn disabled_hooks_are_inert() {
        assert!(!enabled());
        assert!(clock().is_none());
        record_propagation(&PropagationCounters {
            nodes_visited: 10,
            ..PropagationCounters::default()
        });
        note_pool_enqueue(5);
        stage_complete(&report(0)); // must not panic or record anywhere
    }

    #[test]
    fn install_collects_and_guard_disables() {
        let recorder = Arc::new(MetricsRecorder::new());
        {
            let _guard = install(recorder.clone());
            assert!(enabled());
            assert!(clock().is_some());
            record_propagation(&PropagationCounters {
                nodes_visited: 3,
                nodes_skipped: 7,
                loop_skips: 1,
                iter_skips: 0,
                choices_reused: 5,
                choices_fresh: 2,
                observes_rescored: 4,
                static_skips: 6,
                oracle_checks: 3,
            });
            note_pool_enqueue(3);
            note_pool_task_done(1_500_000); // 1.5 ms → 1500 µs → bucket 10
            stage_complete(&report(0));
            // Second stage sees drained (zeroed) accumulators.
            stage_complete(&report(1));
        }
        assert!(!enabled());
        let rep = recorder.report("unit");
        assert_eq!(rep.stages.len(), 2);
        assert_eq!(rep.stages[0].propagation.nodes_visited, 3);
        assert_eq!(rep.stages[0].propagation.loop_skips, 1);
        assert!(rep.stages[1].propagation.is_zero());
        assert_eq!(rep.total_propagation().nodes_skipped, 7);
        assert_eq!(rep.stages[0].propagation.static_skips, 6);
        assert_eq!(rep.total_propagation().oracle_checks, 3);
        assert_eq!(rep.pool.tasks, 3);
        assert_eq!(rep.pool.queue_depth_hwm, 3);
        assert_eq!(rep.pool.latency_buckets[10], 1);
        let json = rep.to_json();
        assert!(json.contains("\"schema\": \"metrics/v1\""));
        assert!(json.contains("\"nodes_visited\": 3"));
        assert!(json.contains("\"static_skips\": 6"));
        assert!(json.contains("\"oracle_checks\": 3"));
        assert!(json.contains("\"queue_depth_hwm\": 3"));
        assert!(json.contains("\"eval\": {"));
        assert!(json.contains("\"compiled_execs\""));
        assert!(json.contains("\"frames_reused\""));
        let counters = rep.counters_json();
        assert!(counters.contains("\"nodes_visited\": 3"));
        assert!(!counters.contains("translate_ms"));
        assert!(!counters.contains("pool"));
        assert!(!counters.contains("compiled_execs"));
        let table = rep.render();
        assert!(table.contains("visited"));
        assert!(table.contains("1 whole-loop"));
        assert!(table.contains("eval:"));
    }

    #[test]
    fn latency_bucketing_is_log2_microseconds() {
        let idx = |us: u64| (63 - (us | 1).leading_zeros()) as usize;
        assert_eq!(idx(0), 0);
        assert_eq!(idx(1), 0);
        assert_eq!(idx(2), 1);
        assert_eq!(idx(3), 1);
        assert_eq!(idx(1024), 10);
        assert_eq!(idx(u64::MAX).min(LATENCY_BUCKETS - 1), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn counters_merge_and_report_json_escapes_labels() {
        let a = PropagationCounters {
            nodes_visited: 1,
            choices_fresh: 2,
            ..PropagationCounters::default()
        };
        let b = PropagationCounters {
            nodes_visited: 10,
            loop_skips: 3,
            ..PropagationCounters::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.nodes_visited, 11);
        assert_eq!(m.loop_skips, 3);
        assert_eq!(m.choices_fresh, 2);
        let rep = MetricsReport {
            label: "a\"b\\c".to_string(),
            stages: vec![],
            pool: PoolTelemetry::default(),
            eval: EvalTelemetry::default(),
        };
        assert!(rep.to_json().contains("a\\\"b\\\\c"));
    }
}
