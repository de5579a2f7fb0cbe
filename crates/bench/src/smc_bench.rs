//! BENCH_smc: the edit-sequence benchmark gate.
//!
//! A fig9-style workload — a chain model with indexed addresses
//! (`state/i`, `obs/i`), translated across a sequence of observation-model
//! edits by site-rule correspondences — timed end to end, so the
//! translate/replay hot path (trace recording, address hashing,
//! correspondence lookup, backward replay) has a committed baseline and a
//! regression gate. Results are written to `BENCH_smc.json`; the CI quick
//! mode re-runs a tiny configuration and validates the file shape so the
//! harness cannot rot.
//!
//! Every workload runs the whole edit chain (the Section 4.2 "Multiple
//! Steps" regime) through the one stage loop,
//! [`incremental::run_state_sequence_supervised`]; they differ only in
//! the stages, the particle representation, and the thread count:
//!
//! - `serial_edit_sequence` — closure-model correspondence translators
//!   on one thread: a pure measurement of the translate/replay hot path.
//! - `parallel_edit_sequence` — the same stages on the persistent worker
//!   pool with `threads` workers (pool dispatch plus the same
//!   per-particle hot path).
//! - `incremental_flat_edit_sequence` — the same edit history as a
//!   *parsed* chain program, its [`depgraph::edit_chain`] links run on
//!   flat traces: every stage rebuilds each particle's execution graph
//!   from its trace and flattens it back, O(M·|t|) per stage.
//! - `incremental_graph_edit_sequence` — the graph-native runner
//!   ([`depgraph::run_edit_sequence_supervised`]) on one thread:
//!   particles *are* execution graphs, carried across all stages; each
//!   stage propagates the edit directly, O(M·K) for an edit touching K
//!   records.
//! - `incremental_graph_pooled_edit_sequence` — the graph-native runner
//!   on the persistent worker pool with `threads` workers.
//!
//! All five workloads must produce bit-identical checksums (the edits
//! reuse every random choice, so no fresh randomness is drawn and
//! representation/threading cannot change the weights) — the tests and
//! the CI smoke validation pin this down.
//!
//! The harness also runs a *scaling sweep* ([`run_scaling`]): per-step
//! translation cost as a function of chain length for a **fixed-size
//! edit** (one trailing observation edited, the latent chain untouched).
//! Flat-trace interop grows linearly in the chain length; the
//! graph-native path should stay near-constant — the Figure 9/10
//! asymptotic claim, committed as numbers.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use depgraph::{
    edit_chain, edit_chain_shared, lift_collection, run_edit_sequence_supervised, ExecGraph,
};
use incremental::{
    run_state_sequence_supervised, Correspondence, CorrespondenceTranslator, FailurePolicy,
    MetricsRecorder, ParticleCollection, SequenceRun, SmcConfig, StagePolicy, StateTranslator,
};
use ppl::ast::Program;
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, parse, Handler, PplError, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the BENCH_smc workload.
#[derive(Debug, Clone)]
pub struct SmcBenchConfig {
    /// Number of chained latent sites (`state/0 … state/N-1`).
    pub chain_len: usize,
    /// Particles in the collection threaded through the sequence.
    pub particles: usize,
    /// Number of edit steps (stages) in the program sequence.
    pub steps: usize,
    /// Worker threads for the parallel workload.
    pub threads: usize,
    /// Timed repetitions per workload (median reported).
    pub repeats: usize,
    /// RNG seed.
    pub seed: u64,
    /// Chain lengths measured by the fixed-size-edit scaling sweep.
    pub scaling_sizes: Vec<usize>,
}

impl Default for SmcBenchConfig {
    fn default() -> Self {
        SmcBenchConfig {
            chain_len: 48,
            particles: 1200,
            steps: 8,
            threads: 4,
            repeats: 5,
            seed: 1729,
            scaling_sizes: vec![16, 64, 256, 1024],
        }
    }
}

impl SmcBenchConfig {
    /// Tiny configuration for CI smoke runs and tests.
    pub fn quick() -> SmcBenchConfig {
        SmcBenchConfig {
            chain_len: 6,
            particles: 40,
            steps: 3,
            threads: 2,
            repeats: 2,
            seed: 1729,
            scaling_sizes: vec![4, 8],
        }
    }
}

/// Timings of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Wall time of the untimed warm-up iteration run before the
    /// repetitions. The warm-up populates process-wide caches (address
    /// interner, eval-frame pools, worker-pool threads) and compiles the
    /// workload's programs, so the timed repetitions measure steady state
    /// rather than cold start.
    pub warmup_ms: f64,
    /// Per-repetition wall times in milliseconds (excludes the warm-up).
    pub runs_ms: Vec<f64>,
    /// A checksum of the final collection (total log weight sum), so two
    /// runs of the same binary can be checked for identical output.
    pub checksum: f64,
}

impl WorkloadResult {
    /// Median of the repetition times.
    pub fn median_ms(&self) -> f64 {
        let mut sorted = self.runs_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[sorted.len() / 2]
    }

    /// Minimum repetition time (least-noise estimate).
    pub fn min_ms(&self) -> f64 {
        self.runs_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// A full harness run: configuration plus one result per workload.
#[derive(Debug, Clone)]
pub struct SmcBenchReport {
    /// Label identifying the build being measured (e.g. `seed-baseline`).
    pub label: String,
    /// The configuration measured.
    pub config: SmcBenchConfig,
    /// Cores available to the process
    /// (`std::thread::available_parallelism`): with fewer cores than
    /// `config.threads`, the pooled timings say nothing about parallel
    /// speed-up.
    pub cores: usize,
    /// Per-workload results.
    pub results: Vec<WorkloadResult>,
    /// The fixed-size-edit scaling sweep ([`run_scaling`]).
    pub scaling: Vec<ScalingPoint>,
}

/// The chain model family: `state/i ~ flip(p(state/i-1))` with one
/// observation per site whose strength is the edit knob. Editing
/// `obs_strength` changes every observation's density but no structure,
/// so the whole latent chain is reused through the site-rule
/// correspondence — the translate/replay hot path does all the work.
fn chain_model(
    n: usize,
    obs_strength: f64,
) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> + Clone + Send + Sync {
    move |h: &mut dyn Handler| {
        let mut prev = true;
        for i in 0..n {
            let p = if prev { 0.7 } else { 0.3 };
            let x = h.sample(addr!["state", i], Dist::flip(p))?.truthy()?;
            let po = if x { obs_strength } else { 1.0 - obs_strength };
            h.observe(addr!["obs", i], Dist::flip(po), Value::Bool(true))?;
            prev = x;
        }
        Ok(Value::Bool(prev))
    }
}

type ChainModel = Box<dyn Fn(&mut dyn Handler) -> Result<Value, PplError> + Send + Sync>;

/// One stage of the loop: a translator into the stage's program.
type DynStage<S> = Arc<dyn StateTranslator<S> + Send + Sync>;

/// Observation strength of stage `s` (stage 0 is the uninformative
/// starting program, so prior simulations are posterior samples of it).
fn stage_strength(step: usize) -> f64 {
    0.5 + 0.03 * step as f64
}

fn build_translators(config: &SmcBenchConfig) -> Vec<DynStage<Trace>> {
    (0..config.steps)
        .map(|s| {
            let p: ChainModel = Box::new(chain_model(config.chain_len, stage_strength(s)));
            let q: ChainModel = Box::new(chain_model(config.chain_len, stage_strength(s + 1)));
            let translator =
                CorrespondenceTranslator::new(p, q, Correspondence::identity_on(["state"]));
            Arc::new(translator) as DynStage<Trace>
        })
        .collect()
}

/// The edit chain of `programs` with flat-trace particles: each
/// [`depgraph::IncrementalTranslator`] rebuilds a graph from the trace
/// and flattens the result back.
fn flat_edit_stages(programs: &[Program]) -> Vec<DynStage<Trace>> {
    edit_chain(programs)
        .into_iter()
        .map(|t| Arc::new(t) as DynStage<Trace>)
        .collect()
}

/// Runs `stages` through the one stage loop: translate-only, fail-fast,
/// no deadline or checkpoints.
fn run_stages<S>(
    stages: &[DynStage<S>],
    initial: &ParticleCollection<S>,
    seed: u64,
    threads: usize,
) -> SequenceRun<S>
where
    S: Clone + Send + Sync + 'static,
{
    run_state_sequence_supervised(
        stages,
        initial,
        0,
        &[],
        &[],
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        seed,
        threads,
        None,
    )
    .expect("edit sequence runs")
}

/// The graph-native runner over the whole history (lift included).
fn run_graph(
    programs: &[Program],
    initial: &ParticleCollection,
    seed: u64,
    threads: usize,
) -> SequenceRun<Arc<ExecGraph>> {
    run_edit_sequence_supervised(
        programs,
        initial,
        0,
        &[],
        &[],
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        seed,
        threads,
        None,
    )
    .expect("graph-native sequence runs")
}

fn initial_particles(config: &SmcBenchConfig) -> ParticleCollection {
    let model = chain_model(config.chain_len, stage_strength(0));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let traces: Vec<_> = (0..config.particles)
        .map(|_| simulate(&model, &mut rng).expect("chain model simulates"))
        .collect();
    ParticleCollection::from_traces(traces)
}

/// The same chain family as [`chain_model`], but as *surface syntax*, so
/// it can drive the depgraph runtime. Editing `strength` rewrites every
/// observation — the fig9-style whole-chain edit.
fn chain_source(n: usize, strength: f64) -> String {
    let lo = 1.0 - strength;
    format!(
        "n = {n}; prev = 1;\n\
         for i in [0..n) {{\n\
           x = flip(prev ? 0.7 : 0.3) @ x;\n\
           observe(flip(x ? {strength} : {lo}) @ o == 1);\n\
           prev = x;\n\
         }}\n\
         return prev;"
    )
}

/// Chain family for the scaling sweep: the latent chain is identical
/// across stages and only the strength of the single trailing
/// observation is edited, so an incremental stage revisits O(1)
/// statements regardless of `n` while flat-trace interop still pays
/// O(n) per particle.
fn chain_source_fixed_edit(n: usize, strength: f64) -> String {
    let lo = 1.0 - strength;
    format!(
        "n = {n}; prev = 1;\n\
         for i in [0..n) {{ x = flip(prev ? 0.7 : 0.3) @ x; prev = x; }}\n\
         observe(flip(prev ? {strength} : {lo}) @ o == 1);\n\
         return prev;"
    )
}

/// Parses the edit history `source(len, strength(0)) → ... →
/// source(len, strength(steps))`.
fn parsed_chain(source: impl Fn(usize, f64) -> String, len: usize, steps: usize) -> Vec<Program> {
    (0..=steps)
        .map(|s| parse(&source(len, stage_strength(s))).expect("chain source parses"))
        .collect()
}

/// Prior simulations of `programs[0]` (whose observations are
/// uninformative at `stage_strength(0)`, so they are posterior samples).
fn parsed_initial(programs: &[Program], particles: usize, seed: u64) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(seed);
    let traces: Vec<_> = (0..particles)
        .map(|_| simulate(&programs[0], &mut rng).expect("chain program simulates"))
        .collect();
    ParticleCollection::from_traces(traces)
}

fn collection_checksum<S>(collection: &ParticleCollection<S>) -> f64 {
    collection
        .iter()
        .map(|p| p.log_weight.log())
        .filter(|w| w.is_finite())
        .sum()
}

/// Runs `body` once as a warm-up (timed separately, not counted as a
/// repetition), then `repeats` timed repetitions. `body()` returns the
/// final-collection checksum; the last repetition's checksum is reported.
fn measure(repeats: usize, mut body: impl FnMut() -> f64) -> (f64, Vec<f64>, f64) {
    let start = Instant::now();
    let mut checksum = body();
    let warmup_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut runs_ms = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        checksum = body();
        runs_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (warmup_ms, runs_ms, checksum)
}

/// Runs the full harness: every workload, `repeats` times each.
pub fn run(config: &SmcBenchConfig, label: &str) -> SmcBenchReport {
    let translators = build_translators(config);
    let initial = initial_particles(config);

    let mut results = Vec::new();

    // Workloads 1–2: the closure-model chain on one thread and on the
    // worker pool (the translate/replay hot path, then pool dispatch).
    for (name, threads) in [
        ("serial_edit_sequence", 1),
        ("parallel_edit_sequence", config.threads),
    ] {
        let (warmup_ms, runs_ms, checksum) = measure(config.repeats, || {
            collection_checksum(run_stages(&translators, &initial, config.seed, threads).last())
        });
        results.push(WorkloadResult {
            name: name.to_string(),
            warmup_ms,
            runs_ms,
            checksum,
        });
    }

    // Workloads 3–5: the same edit history as a parsed program, driven
    // through the depgraph runtime — flat-trace interop vs. graph-native
    // particles (serial and pooled). The edits reuse every random
    // choice, so all five workloads must produce bit-identical checksums.
    let programs = parsed_chain(chain_source, config.chain_len, config.steps);
    let parsed = parsed_initial(&programs, config.particles, config.seed);

    {
        let stages = flat_edit_stages(&programs);
        let (warmup_ms, runs_ms, checksum) = measure(config.repeats, || {
            collection_checksum(run_stages(&stages, &parsed, config.seed, 1).last())
        });
        results.push(WorkloadResult {
            name: "incremental_flat_edit_sequence".to_string(),
            warmup_ms,
            runs_ms,
            checksum,
        });
    }

    for (name, threads) in [
        ("incremental_graph_edit_sequence", 1),
        ("incremental_graph_pooled_edit_sequence", config.threads),
    ] {
        let (warmup_ms, runs_ms, checksum) = measure(config.repeats, || {
            collection_checksum(run_graph(&programs, &parsed, config.seed, threads).last())
        });
        results.push(WorkloadResult {
            name: name.to_string(),
            warmup_ms,
            runs_ms,
            checksum,
        });
    }

    SmcBenchReport {
        label: label.to_string(),
        config: config.clone(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        results,
        scaling: run_scaling(config),
    }
}

/// One point of the fixed-size-edit scaling sweep: per-step translation
/// cost at chain length [`chain_len`](ScalingPoint::chain_len), for the
/// flat-trace interop path and the graph-native path (minimum over
/// `repeats`, graph lift excluded from the timer — it is paid once at
/// the entry boundary, not per stage).
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Number of latent sites in the chain.
    pub chain_len: usize,
    /// Per-step cost of the flat-trace interop stage loop.
    pub flat_ms_per_step: f64,
    /// Per-step cost of the graph-native stage loop.
    pub graph_ms_per_step: f64,
    /// Final-collection checksum of the flat run.
    pub checksum_flat: f64,
    /// Final-collection checksum of the graph run (must equal the flat
    /// one bit-for-bit).
    pub checksum_graph: f64,
    /// Statement records visited per stage by the graph-native run
    /// (propagation counters from an untimed metrics-enabled run).
    /// Constant across chain lengths for a fixed-size edit — the
    /// Figure 9/10 claim as an integer, not a wall time.
    pub nodes_visited_per_step: u64,
    /// Statement records skipped per stage by the graph-native run.
    /// Grows with the chain: skipping is how the run stays O(K).
    pub nodes_skipped_per_step: u64,
    /// Whole `for`/`while` records skipped per stage without entering
    /// the body (subset of the skips).
    pub loop_skips_per_step: u64,
}

/// Runs the fixed-size-edit scaling sweep over
/// [`SmcBenchConfig::scaling_sizes`]: each stage edits only the single
/// trailing observation, so graph-native per-step cost should stay
/// near-constant as the chain grows while flat interop grows linearly.
/// Uses at most 64 particles — the sweep measures per-particle per-step
/// asymptotics, not throughput.
pub fn run_scaling(config: &SmcBenchConfig) -> Vec<ScalingPoint> {
    let particles = config.particles.min(64);
    config
        .scaling_sizes
        .iter()
        .map(|&n| {
            let programs = parsed_chain(chain_source_fixed_edit, n, config.steps);
            let initial = parsed_initial(&programs, particles, config.seed);

            let flat_stages = flat_edit_stages(&programs);
            let mut flat_ms = f64::INFINITY;
            let mut checksum_flat = 0.0;
            for _ in 0..config.repeats {
                let start = Instant::now();
                let run = run_stages(&flat_stages, &initial, config.seed, 1);
                flat_ms = flat_ms.min(start.elapsed().as_secs_f64() * 1e3);
                checksum_flat = collection_checksum(run.last());
            }

            // Graph-native: lift once outside the timer, then time only
            // the stage loop.
            let shared: Vec<Arc<Program>> = programs.iter().cloned().map(Arc::new).collect();
            let lifted = lift_collection(&shared[0], &initial).expect("lift scaling particles");
            let graph_stages: Vec<DynStage<Arc<ExecGraph>>> = edit_chain_shared(&shared)
                .into_iter()
                .map(|t| Arc::new(t) as DynStage<Arc<ExecGraph>>)
                .collect();
            let mut graph_ms = f64::INFINITY;
            let mut checksum_graph = 0.0;
            for _ in 0..config.repeats {
                let start = Instant::now();
                let run = run_stages(&graph_stages, &lifted, config.seed, 1);
                graph_ms = graph_ms.min(start.elapsed().as_secs_f64() * 1e3);
                checksum_graph = collection_checksum(run.last());
            }

            // One extra untimed graph-native run with metrics enabled:
            // the propagation counters land in the committed report, so
            // the O(1) fixed-size-edit claim is checkable as exact
            // integers, not just as noisy wall times.
            let recorder = Arc::new(MetricsRecorder::new());
            let counters = {
                let _guard = incremental::metrics::install(Arc::clone(&recorder));
                run_stages(&graph_stages, &lifted, config.seed, 1);
                recorder.report("scaling").total_propagation()
            };

            let steps = config.steps.max(1) as f64;
            let steps_u = config.steps.max(1) as u64;
            ScalingPoint {
                chain_len: n,
                flat_ms_per_step: flat_ms / steps,
                graph_ms_per_step: graph_ms / steps,
                checksum_flat,
                checksum_graph,
                nodes_visited_per_step: counters.nodes_visited / steps_u,
                nodes_skipped_per_step: counters.nodes_skipped / steps_u,
                loop_skips_per_step: counters.loop_skips / steps_u,
            }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl SmcBenchReport {
    /// Renders the report as a `BENCH_smc.json` document (schema
    /// `bench-smc/v1`): one entry per measured build, so baseline and
    /// post-change runs can live side by side in the committed file.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"bench-smc/v1\",\n");
        out.push_str(
            "  \"workload\": \"fig9-style edit-sequence (chain model, site-rule correspondence)\",\n",
        );
        out.push_str("  \"entries\": [\n");
        out.push_str(&self.entry_json("    "));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders just this run's entry object (used when merging several
    /// runs into one committed file).
    pub fn entry_json(&self, indent: &str) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = write!(
            out,
            "{indent}{{\n{indent}  \"label\": \"{}\",\n",
            json_escape(&self.label)
        );
        let sizes: Vec<String> = c.scaling_sizes.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(
            out,
            "{indent}  \"config\": {{\"chain_len\": {}, \"particles\": {}, \"steps\": {}, \"threads\": {}, \"cores\": {}, \"repeats\": {}, \"seed\": {}, \"scaling_sizes\": [{}]}},",
            c.chain_len, c.particles, c.steps, c.threads, self.cores, c.repeats, c.seed, sizes.join(", ")
        );
        let _ = writeln!(out, "{indent}  \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            let runs: Vec<String> = r.runs_ms.iter().map(|t| format!("{t:.3}")).collect();
            let _ = writeln!(
                out,
                "{indent}    {{\"name\": \"{}\", \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"warmup_ms\": {:.3}, \"runs_ms\": [{}], \"checksum\": {:.6}}}{}",
                json_escape(&r.name),
                r.median_ms(),
                r.min_ms(),
                r.warmup_ms,
                runs.join(", "),
                r.checksum,
                if i + 1 < self.results.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "{indent}  ],");
        let _ = writeln!(out, "{indent}  \"scaling\": [");
        for (i, s) in self.scaling.iter().enumerate() {
            let _ = writeln!(
                out,
                "{indent}    {{\"chain_len\": {}, \"flat_ms_per_step\": {:.3}, \"graph_ms_per_step\": {:.3}, \"checksum_flat\": {:.6}, \"checksum_graph\": {:.6}, \"nodes_visited_per_step\": {}, \"nodes_skipped_per_step\": {}, \"loop_skips_per_step\": {}}}{}",
                s.chain_len,
                s.flat_ms_per_step,
                s.graph_ms_per_step,
                s.checksum_flat,
                s.checksum_graph,
                s.nodes_visited_per_step,
                s.nodes_skipped_per_step,
                s.loop_skips_per_step,
                if i + 1 < self.scaling.len() { "," } else { "" }
            );
        }
        let _ = write!(out, "{indent}  ]\n{indent}}}");
        out
    }

    /// Renders a human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== BENCH_smc [{}] chain_len={} particles={} steps={} threads={} cores={} ==",
            self.label,
            self.config.chain_len,
            self.config.particles,
            self.config.steps,
            self.config.threads,
            self.cores
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "  {:>38}  median {:>9.3} ms  min {:>9.3} ms  warmup {:>9.3} ms  checksum {:.6}",
                r.name,
                r.median_ms(),
                r.min_ms(),
                r.warmup_ms,
                r.checksum
            );
        }
        if !self.scaling.is_empty() {
            let _ = writeln!(out, "  fixed-size-edit scaling (per-step cost):");
            for s in &self.scaling {
                let _ = writeln!(
                    out,
                    "    chain_len {:>5}  flat {:>9.3} ms/step  graph {:>9.3} ms/step  visited {:>6}/step  skipped {:>8}/step",
                    s.chain_len,
                    s.flat_ms_per_step,
                    s.graph_ms_per_step,
                    s.nodes_visited_per_step,
                    s.nodes_skipped_per_step
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_workloads_and_valid_json() {
        let report = run(&SmcBenchConfig::quick(), "test");
        assert_eq!(report.results.len(), 5);
        for r in &report.results {
            assert_eq!(r.runs_ms.len(), 2);
            assert!(r.runs_ms.iter().all(|t| *t >= 0.0));
            assert!(r.warmup_ms >= 0.0);
            assert!(r.checksum.is_finite());
        }
        assert!(report.to_json().contains("\"warmup_ms\""));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"bench-smc/v1\""));
        assert!(json.contains("serial_edit_sequence"));
        assert!(json.contains("parallel_edit_sequence"));
        assert!(json.contains("incremental_flat_edit_sequence"));
        assert!(json.contains("incremental_graph_edit_sequence"));
        assert!(json.contains("incremental_graph_pooled_edit_sequence"));
        assert!(json.contains("\"scaling\""));
        assert!(report.cores >= 1);
        assert!(
            json.contains(&format!("\"threads\": 2, \"cores\": {}, ", report.cores)),
            "{json}"
        );
        assert!(report
            .render()
            .contains(&format!(" cores={} ", report.cores)));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn render_prints_each_workload_checksum() {
        let result = |name: &str, checksum| WorkloadResult {
            name: name.to_string(),
            warmup_ms: 4.0,
            runs_ms: vec![2.0, 1.0, 3.0],
            checksum,
        };
        let report = SmcBenchReport {
            label: "render".to_string(),
            config: SmcBenchConfig::quick(),
            cores: 2,
            results: vec![
                result("serial_edit_sequence", -7254.628781),
                result("incremental_graph_edit_sequence", -1.7685884),
            ],
            scaling: Vec::new(),
        };
        let text = report.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(
            lines[1].contains("serial_edit_sequence  median     2.000 ms"),
            "{text}"
        );
        assert!(lines[1].ends_with("  checksum -7254.628781"), "{text}");
        assert!(lines[2].ends_with("  checksum -1.768588"), "{text}");
    }

    #[test]
    fn incremental_workloads_agree_bitwise() {
        // All five workloads are routes through the same translation in
        // the same stage loop — stages, representation, and threading
        // must not change the weights.
        let report = run(&SmcBenchConfig::quick(), "test");
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "serial_edit_sequence",
                "parallel_edit_sequence",
                "incremental_flat_edit_sequence",
                "incremental_graph_edit_sequence",
                "incremental_graph_pooled_edit_sequence",
            ]
        );
        // Threading and representation are bit-exact within one model
        // encoding; the closure models and the parsed programs evaluate
        // the same densities in a different floating-point order, so
        // across encodings the checksums agree to the reported precision.
        let bits: Vec<u64> = report
            .results
            .iter()
            .map(|r| r.checksum.to_bits())
            .collect();
        assert_eq!(bits[0], bits[1], "serial vs parallel");
        assert_eq!(bits[2], bits[3], "flat vs graph");
        assert_eq!(bits[2], bits[4], "flat vs pooled graph");
        let shown = format!("{:.6}", report.results[0].checksum);
        for r in &report.results {
            assert_eq!(format!("{:.6}", r.checksum), shown, "{}", r.name);
        }
    }

    #[test]
    fn scaling_sweep_covers_configured_sizes_with_identical_checksums() {
        let config = SmcBenchConfig::quick();
        let points = run_scaling(&config);
        assert_eq!(points.len(), config.scaling_sizes.len());
        for (point, &n) in points.iter().zip(&config.scaling_sizes) {
            assert_eq!(point.chain_len, n);
            assert!(point.flat_ms_per_step > 0.0);
            assert!(point.graph_ms_per_step > 0.0);
            assert_eq!(
                point.checksum_flat.to_bits(),
                point.checksum_graph.to_bits()
            );
        }
        // The O(1) fixed-size-edit claim as integers: the latent chain is
        // skipped as one whole-loop record, so the visit count is the
        // same at every chain length.
        assert!(points.iter().all(|p| p.nodes_visited_per_step > 0));
        assert!(points.iter().all(|p| p.loop_skips_per_step > 0));
        assert!(
            points
                .windows(2)
                .all(|w| w[0].nodes_visited_per_step == w[1].nodes_visited_per_step),
            "nodes_visited_per_step should not depend on chain_len: {points:?}"
        );
    }

    #[test]
    fn workloads_are_deterministic_per_build() {
        let a = run(&SmcBenchConfig::quick(), "a");
        let b = run(&SmcBenchConfig::quick(), "b");
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.checksum.to_bits(), y.checksum.to_bits(), "{}", x.name);
        }
    }
}
