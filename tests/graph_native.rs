//! Differential tests for graph-native particle SMC.
//!
//! Graph-native stages ([`run_edit_sequence_supervised`], or
//! [`IncrementalTranslator`]s over lifted graphs) must be *bit-identical*
//! to flat-trace stages (the same translators over `Trace` particles) run
//! through the same stage loop, whenever the
//! edits reuse every random choice: the representation (traces vs.
//! persistent execution graphs) and the threading (inline vs. worker
//! pool) are implementation details that may never change the weights.
//! These tests pin that contract down across failure policies,
//! resampling schemes, thread counts, and fault injection with
//! quarantine and retry.

use std::sync::Arc;

use depgraph::{
    edit_chain, edit_chain_shared, lift_collection, run_edit_sequence_supervised, ExecGraph,
    IncrementalTranslator,
};
use incremental::{
    run_state_sequence_supervised, FailurePolicy, FaultKind, FaultPlan, FaultSpec,
    FaultyTranslator, ParticleCollection, ResamplePolicy, ResampleScheme, SequenceRun, SmcConfig,
    StagePolicy, StateTranslator,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::{parse, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 300;

/// A loop-structured edit history: whole-chain observation-strength
/// edits over a small latent chain, so translation exercises indexed
/// (per-iteration) addresses. The first program is uninformative, so prior
/// simulations are posterior samples of it.
fn programs() -> Vec<Program> {
    [0.5_f64, 0.6, 0.8, 0.9]
        .iter()
        .map(|hi| {
            let lo = 1.0 - hi;
            parse(&format!(
                "n = 4; prev = 1;\n\
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

/// Asserts two flat sequence runs are bit-identical: same per-stage log
/// weights (to the bit), same choice maps, same health reports.
fn assert_bit_identical(reference: &SequenceRun, candidate: &SequenceRun, context: &str) {
    assert_eq!(
        reference.collections.len(),
        candidate.collections.len(),
        "{context}: stage count"
    );
    for (stage, (a, b)) in reference
        .collections
        .iter()
        .zip(&candidate.collections)
        .enumerate()
    {
        assert_eq!(a.len(), b.len(), "{context}: stage {stage} size");
        for (j, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                pa.log_weight.log().to_bits(),
                pb.log_weight.log().to_bits(),
                "{context}: stage {stage} particle {j} weight"
            );
            assert_eq!(
                pa.trace.to_choice_map(),
                pb.trace.to_choice_map(),
                "{context}: stage {stage} particle {j} choices"
            );
        }
    }
    for (a, b) in reference.reports.iter().zip(&candidate.reports) {
        assert_eq!(a.ess.to_bits(), b.ess.to_bits(), "{context}: report ess");
        assert_eq!(a.dropped, b.dropped, "{context}: report dropped");
        assert_eq!(a.retries, b.retries, "{context}: report retries");
        assert_eq!(a.recovered, b.recovered, "{context}: report recovered");
    }
}

/// Seed of every run in this suite: flat and graph runs share it, so
/// their per-stage seeds agree.
const SEED: u64 = 41;

type DynStage<S> = Arc<dyn StateTranslator<S> + Send + Sync>;

/// Runs `stages` through the one stage loop.
fn run_loop<S: Clone + Send + Sync + 'static>(
    stages: &[DynStage<S>],
    initial: &ParticleCollection<S>,
    config: &SmcConfig,
    policy: &FailurePolicy,
    threads: usize,
) -> SequenceRun<S> {
    run_state_sequence_supervised(
        stages,
        initial,
        0,
        &[],
        &[],
        config,
        policy,
        &StagePolicy::default(),
        SEED,
        threads,
        None,
    )
    .unwrap()
}

/// The flat-trace reference: the edit chain's links adapted to traces,
/// each wrapped to inject `plan`.
fn flat_run(
    ps: &[Program],
    init: &ParticleCollection,
    config: &SmcConfig,
    policy: &FailurePolicy,
    plan: &FaultPlan,
) -> SequenceRun {
    let stages: Vec<DynStage<Trace>> = edit_chain(ps)
        .into_iter()
        .map(|t| Arc::new(FaultyTranslator::new(t, plan.clone())) as DynStage<Trace>)
        .collect();
    run_loop(&stages, init, config, policy, 1)
}

/// Graph-native stages over lifted particles, each wrapped to inject
/// `plan`, flattened for comparison.
fn graph_run(
    ps: &[Program],
    init: &ParticleCollection,
    config: &SmcConfig,
    policy: &FailurePolicy,
    plan: &FaultPlan,
) -> SequenceRun {
    let shared: Vec<Arc<Program>> = ps.iter().cloned().map(Arc::new).collect();
    let stages: Vec<DynStage<Arc<ExecGraph>>> = edit_chain_shared(&shared)
        .into_iter()
        .map(|t: IncrementalTranslator| {
            Arc::new(FaultyTranslator::new(t, plan.clone())) as DynStage<Arc<ExecGraph>>
        })
        .collect();
    let lifted = lift_collection(&shared[0], init).unwrap();
    run_loop(&stages, &lifted, config, policy, 1)
        .flatten()
        .unwrap()
}

/// The graph-native edit-history runner, flattened for comparison.
fn supervised_run(
    ps: &[Program],
    init: &ParticleCollection,
    config: &SmcConfig,
    policy: &FailurePolicy,
    threads: usize,
) -> SequenceRun {
    run_edit_sequence_supervised(
        ps,
        init,
        0,
        &[],
        &[],
        config,
        policy,
        &StagePolicy::default(),
        SEED,
        threads,
        None,
    )
    .unwrap()
    .flatten()
    .unwrap()
}

#[test]
fn graph_native_matches_flat_across_failure_policies() {
    let ps = programs();
    let init = initial(&ps);
    let config = SmcConfig::translate_only();
    for policy in [
        FailurePolicy::FailFast,
        FailurePolicy::DropAndRenormalize { max_loss: 1.0 },
        FailurePolicy::Retry {
            max_attempts: 3,
            seed: 5,
        },
    ] {
        let flat = flat_run(&ps, &init, &config, &policy, &FaultPlan::new());
        let graph = supervised_run(&ps, &init, &config, &policy, 1);
        assert_bit_identical(&flat, &graph, &format!("{policy:?}"));
    }
}

#[test]
fn graph_native_matches_flat_across_resampling_schemes() {
    let ps = programs();
    let init = initial(&ps);
    for scheme in [
        ResampleScheme::Multinomial,
        ResampleScheme::Systematic,
        ResampleScheme::Stratified,
        ResampleScheme::Residual,
    ] {
        let config = SmcConfig {
            resample: ResamplePolicy::Always,
            scheme,
            ..SmcConfig::translate_only()
        };
        let policy = FailurePolicy::FailFast;
        let flat = flat_run(&ps, &init, &config, &policy, &FaultPlan::new());
        let graph = supervised_run(&ps, &init, &config, &policy, 1);
        assert_bit_identical(&flat, &graph, &format!("{scheme:?}"));
    }
}

#[test]
fn pooled_runs_are_thread_count_invariant() {
    let ps = programs();
    let init = initial(&ps);
    let config = SmcConfig::translate_only();
    for policy in [
        FailurePolicy::FailFast,
        FailurePolicy::Retry {
            max_attempts: 2,
            seed: 7,
        },
    ] {
        let reference = supervised_run(&ps, &init, &config, &policy, 1);
        for threads in [3, 8] {
            let candidate = supervised_run(&ps, &init, &config, &policy, threads);
            assert_bit_identical(
                &reference,
                &candidate,
                &format!("{policy:?} threads={threads}"),
            );
        }
    }
}

/// Injects the same fault plan into the flat reference and the
/// graph-native stages; both must quarantine the same particles and
/// produce bit-identical survivors.
#[test]
fn fault_quarantine_is_identical_in_flat_and_graph_runs() {
    let ps = programs();
    let init = initial(&ps);
    let config = SmcConfig::translate_only();
    let policy = FailurePolicy::DropAndRenormalize { max_loss: 0.5 };
    let plan = FaultPlan::new()
        .with(FaultSpec::always(1, 3, FaultKind::Error))
        .with(FaultSpec::always(2, 7, FaultKind::NanWeight));
    let flat = flat_run(&ps, &init, &config, &policy, &plan);
    let graph = graph_run(&ps, &init, &config, &policy, &plan);

    assert_eq!(flat.reports[1].dropped, 1);
    assert_eq!(flat.reports[2].dropped, 1);
    let flat_failed: Vec<_> = flat.reports[1]
        .failures
        .iter()
        .map(|f| f.particle)
        .collect();
    let graph_failed: Vec<_> = graph.reports[1]
        .failures
        .iter()
        .map(|f| f.particle)
        .collect();
    assert_eq!(flat_failed, vec![3]);
    assert_eq!(flat_failed, graph_failed);
    assert_bit_identical(&flat, &graph, "quarantine");
}

/// A transient panic cleared by one retry: both representations must
/// recover the same particle deterministically and agree bit-for-bit.
#[test]
fn fault_retry_recovers_identically_in_flat_and_graph_runs() {
    let ps = programs();
    let init = initial(&ps);
    let config = SmcConfig::translate_only();
    let policy = FailurePolicy::Retry {
        max_attempts: 2,
        seed: 9,
    };
    let plan = FaultPlan::new().with(FaultSpec::once(1, 4, FaultKind::Panic));
    let flat = flat_run(&ps, &init, &config, &policy, &plan);
    let graph = graph_run(&ps, &init, &config, &policy, &plan);

    assert_eq!(flat.reports[1].recovered, 1);
    assert_eq!(flat.reports[1].retries, 1);
    assert_eq!(flat.reports[1].dropped, 0);
    assert_bit_identical(&flat, &graph, "retry");
}
