//! Determinism contract for the metrics layer.
//!
//! The deterministic counter subset ([`MetricsReport::counters_json`]) —
//! propagation counters and stage health tallies, no wall times, no pool
//! telemetry — must be *bit-identical* across worker-thread counts for a
//! fixed seed, on both the flat-trace interop runner and the graph-native
//! runner. Counters are drained at stage boundaries (barriers), and
//! per-stage totals are sums of per-particle contributions, so the
//! schedule may never leak into the numbers.

use std::sync::Arc;

use depgraph::{edit_chain, run_edit_sequence_supervised};
use incremental::{
    metrics, run_state_sequence_supervised, FailurePolicy, MetricsRecorder, ParticleCollection,
    SmcConfig, StagePolicy, StateTranslator,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::{parse, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 120;
const SEED: u64 = 0xD5EED;
const THREADS: [usize; 3] = [1, 3, 8];

/// A loop-structured edit history (observation-strength edits over a
/// latent chain), so propagation exercises loop records, per-iteration
/// skips, choice reuse, and observation rescoring.
fn programs() -> Vec<Program> {
    [0.5_f64, 0.6, 0.8, 0.9]
        .iter()
        .map(|hi| {
            let lo = 1.0 - hi;
            parse(&format!(
                "n = 5; prev = 1;\n\
                 for i in [0..n) {{\n\
                   x = flip(prev ? 0.7 : 0.3) @ x;\n\
                   observe(flip(x ? {hi} : {lo}) @ o == 1);\n\
                   prev = x;\n\
                 }}\n\
                 return prev;"
            ))
            .expect("chain program parses")
        })
        .collect()
}

fn initial(ps: &[Program]) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(11);
    let traces: Vec<_> = (0..PARTICLES)
        .map(|_| simulate(&ps[0], &mut rng).expect("prior simulation"))
        .collect();
    ParticleCollection::from_traces(traces)
}

/// Runs the graph-native runner over `programs` (the recorder, if any,
/// must already be installed).
fn run_graph(programs: &[Program], initial: &ParticleCollection, threads: usize) {
    run_edit_sequence_supervised(
        programs,
        initial,
        0,
        &[],
        &[],
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        SEED,
        threads,
        None,
    )
    .expect("graph-native run");
}

/// Runs the graph-native pooled runner under a recorder and returns the
/// deterministic counter document.
fn graph_counters(threads: usize) -> String {
    let programs = programs();
    let initial = initial(&programs);
    let recorder = Arc::new(MetricsRecorder::new());
    let _guard = metrics::install(Arc::clone(&recorder));
    run_graph(&programs, &initial, threads);
    recorder.report("graph").counters_json()
}

/// Runs the flat-trace interop path (per-stage graph rebuild) under a
/// recorder and returns the deterministic counter document.
fn flat_counters(threads: usize) -> String {
    let programs = programs();
    let initial = initial(&programs);
    let stages: Vec<Arc<dyn StateTranslator<Trace> + Send + Sync>> = edit_chain(&programs)
        .into_iter()
        .map(|t| Arc::new(t) as Arc<dyn StateTranslator<Trace> + Send + Sync>)
        .collect();
    let recorder = Arc::new(MetricsRecorder::new());
    let _guard = metrics::install(Arc::clone(&recorder));
    run_state_sequence_supervised(
        &stages,
        &initial,
        0,
        &[],
        &[],
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        SEED,
        threads,
        None,
    )
    .expect("flat run");
    recorder.report("flat").counters_json()
}

#[test]
fn graph_native_counters_are_identical_across_thread_counts() {
    let reference = graph_counters(THREADS[0]);
    assert!(reference.contains("\"schema\": \"metrics/v1-counters\""));
    assert!(!reference.contains("\"nodes_visited\": 0,"), "{reference}");
    for &threads in &THREADS[1..] {
        assert_eq!(
            reference,
            graph_counters(threads),
            "graph-native counters diverged at {threads} threads"
        );
    }
}

#[test]
fn flat_counters_are_identical_across_thread_counts() {
    let reference = flat_counters(THREADS[0]);
    assert!(reference.contains("\"schema\": \"metrics/v1-counters\""));
    for &threads in &THREADS[1..] {
        assert_eq!(
            reference,
            flat_counters(threads),
            "flat counters diverged at {threads} threads"
        );
    }
}

#[test]
fn propagation_totals_reflect_the_chain_workload() {
    let programs = programs();
    let initial = initial(&programs);
    let recorder = Arc::new(MetricsRecorder::new());
    let _guard = metrics::install(Arc::clone(&recorder));
    run_graph(&programs, &initial, 2);
    let report = recorder.report("totals");
    assert_eq!(report.stages.len(), programs.len() - 1);
    let totals = report.total_propagation();
    // Every stage edits every observation's density: each observation is
    // rescored, nothing is sampled fresh, and the unchanged sample
    // statements are reused via record-level *skips* (`iter_skips` stays
    // zero because each iteration's observe is dirty), not via
    // re-executed draws — so `choices_reused` stays zero here too.
    assert!(totals.nodes_visited > 0);
    assert!(totals.nodes_skipped > 0);
    assert_eq!(totals.choices_fresh, 0);
    assert_eq!(totals.choices_reused, 0);
    assert_eq!(
        totals.observes_rescored,
        (programs.len() - 1) as u64 * PARTICLES as u64 * 5
    );
}

#[test]
fn prior_edit_counts_reused_choices() {
    // Editing a sample statement's *distribution* forces it to be
    // re-executed; the draw then reuses the old value through the
    // correspondence, which is exactly what `choices_reused` counts.
    let programs: Vec<Program> = ["0.3", "0.4"]
        .iter()
        .map(|p| {
            parse(&format!(
                "x = flip({p}) @ x; observe(flip(x ? 0.9 : 0.1) @ o == 1); return x;"
            ))
            .expect("coin program parses")
        })
        .collect();
    let initial = initial(&programs);
    let recorder = Arc::new(MetricsRecorder::new());
    let _guard = metrics::install(Arc::clone(&recorder));
    run_graph(&programs, &initial, 2);
    let totals = recorder.report("prior-edit").total_propagation();
    assert_eq!(totals.choices_reused, PARTICLES as u64);
    assert_eq!(totals.choices_fresh, 0);
    // The observation statement itself is unchanged, so it is skipped
    // wholesale — rescoring only counts re-executed observes.
    assert_eq!(totals.observes_rescored, 0);
}
