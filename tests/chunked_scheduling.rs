//! Differential tests for chunked particle scheduling and persistent
//! execution graphs.
//!
//! Chunk size is pure dispatch granularity: every particle keeps its own
//! seed derivation, output slot, and failure isolation, so the pooled
//! translate paths must be *bit-identical* for any chunk size and any
//! thread count — including under fault injection (retry, quarantine)
//! and on the watchdog deadline path. The property test at the bottom
//! pins the graph representation down: carrying a particle as a
//! persistent execution graph (each translation sharing the unchanged
//! records of the previous graph by `Arc`) must flatten to exactly the
//! trace the flat round-trip path produces.

use std::sync::Arc;
use std::time::Duration;

use depgraph::{edit_chain_shared, lift_collection, run_edit_sequence_supervised, ExecGraph};
use incremental::{
    run_state_sequence_supervised, Backoff, FailurePolicy, FaultKind, FaultPlan, FaultSpec,
    FaultyTranslator, ParticleCollection, SequenceRun, SmcConfig, StagePolicy, StateTranslator,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 120;

/// Loop-structured whole-chain edit history (observation strengths), so
/// translation exercises indexed addresses and iteration reuse.
fn chain_source(n: usize, hi: f64) -> String {
    let lo = 1.0 - hi;
    format!(
        "n = {n}; prev = 1;\n\
         for i in [0..n) {{\n\
           x = flip(prev ? 0.7 : 0.3) @ x;\n\
           observe(flip(x ? {hi} : {lo}) @ o == 1);\n\
           prev = x;\n\
         }}\n\
         return prev;"
    )
}

fn programs() -> Vec<Program> {
    [0.5_f64, 0.6, 0.8, 0.9]
        .iter()
        .map(|hi| parse(&chain_source(4, *hi)).expect("chain program parses"))
        .collect()
}

fn initial(ps: &[Program]) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(13);
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

/// The chunk sizes the suite sweeps: single-particle tasks, an uneven
/// divisor, a chunk larger than `particles / threads`, and one chunk for
/// the whole stage.
fn chunk_sizes() -> [Option<usize>; 4] {
    [Some(1), Some(7), Some(64), Some(PARTICLES)]
}

#[test]
fn chunk_size_and_thread_count_do_not_change_results() {
    let ps = programs();
    let init = initial(&ps);
    let run_with = |chunk: Option<usize>, threads: usize| {
        let config = SmcConfig::translate_only().with_chunk_size(chunk);
        run_edit_sequence_supervised(
            &ps,
            &init,
            0,
            &[],
            &[],
            &config,
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            707,
            threads,
            None,
        )
        .unwrap()
        .flatten()
        .unwrap()
    };
    let reference = run_with(None, 1);
    for chunk in chunk_sizes() {
        for threads in [1, 3, 8] {
            let candidate = run_with(chunk, threads);
            assert_bit_identical(
                &reference,
                &candidate,
                &format!("chunk={chunk:?} threads={threads}"),
            );
        }
    }
}

/// Fault injection must hit the same particles and produce the same
/// retries/quarantines regardless of how particles are grouped into
/// dispatch chunks.
#[test]
fn chunking_is_invariant_under_fault_retry_and_drop() {
    let ps = programs();
    let init = initial(&ps);
    let shared: Vec<Arc<Program>> = ps.iter().cloned().map(Arc::new).collect();
    let lifted = lift_collection(&shared[0], &init).unwrap();
    // Retry can only recover transient faults; the permanent error is
    // reserved for the quarantine (drop) policy.
    let retry_plan = FaultPlan::new().with(FaultSpec::once(1, 4, FaultKind::Panic));
    let drop_plan = FaultPlan::new()
        .with(FaultSpec::once(1, 4, FaultKind::Panic))
        .with(FaultSpec::always(2, 9, FaultKind::Error));
    for (policy, plan) in [
        (
            FailurePolicy::Retry {
                max_attempts: 3,
                seed: 17,
            },
            retry_plan,
        ),
        (
            FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
            drop_plan,
        ),
    ] {
        let run_with = |chunk: Option<usize>, threads: usize| {
            let stages: Vec<Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>> =
                edit_chain_shared(&shared)
                    .into_iter()
                    .map(|t| {
                        Arc::new(FaultyTranslator::new(t, plan.clone()))
                            as Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>
                    })
                    .collect();
            let config = SmcConfig::translate_only().with_chunk_size(chunk);
            run_state_sequence_supervised(
                &stages,
                &lifted,
                0,
                &[],
                &[],
                &config,
                &policy,
                &StagePolicy::default(),
                808,
                threads,
                None,
            )
            .unwrap()
            .flatten()
            .unwrap()
        };
        let reference = run_with(None, 1);
        for chunk in chunk_sizes() {
            for threads in [3, 8] {
                let candidate = run_with(chunk, threads);
                assert_bit_identical(
                    &reference,
                    &candidate,
                    &format!("{policy:?} chunk={chunk:?} threads={threads}"),
                );
            }
        }
    }
}

/// The watchdog (deadline-supervised) translate path chunks its rounds
/// too; with a deadline generous enough that nothing times out, every
/// chunk size must reproduce the unsupervised result bit-for-bit.
#[test]
fn deadline_supervised_path_is_chunk_invariant() {
    let ps = programs();
    let init = initial(&ps);
    let shared: Vec<Arc<Program>> = ps.iter().cloned().map(Arc::new).collect();
    let lifted = lift_collection(&shared[0], &init).unwrap();
    let stage_policy = StagePolicy::default()
        .with_deadline(Duration::from_secs(20))
        .with_backoff(Backoff::new(
            Duration::from_millis(5),
            2.0,
            Duration::from_millis(50),
        ));
    let run_with = |chunk: Option<usize>, threads: usize| {
        let stages: Vec<Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>> =
            edit_chain_shared(&shared)
                .into_iter()
                .map(|t| Arc::new(t) as Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>)
                .collect();
        let config = SmcConfig::translate_only().with_chunk_size(chunk);
        run_state_sequence_supervised(
            &stages,
            &lifted,
            0,
            &[],
            &[],
            &config,
            &FailurePolicy::FailFast,
            &stage_policy,
            909,
            threads,
            None,
        )
        .unwrap()
        .flatten()
        .unwrap()
    };
    let reference = run_with(None, 1);
    for chunk in chunk_sizes() {
        for threads in [1, 3] {
            let candidate = run_with(chunk, threads);
            assert_bit_identical(
                &reference,
                &candidate,
                &format!("deadline chunk={chunk:?} threads={threads}"),
            );
        }
    }
}

proptest! {
    /// Graph representation property: carrying a particle graph-natively
    /// across a chain of edits (each translation shares the previous
    /// graph's unchanged records by `Arc`) flattens to exactly the trace
    /// — and weight — that the flat round-trip path (flatten → rebuild
    /// graph → translate) produces at every stage.
    #[test]
    fn graph_native_chain_flattens_like_flat_roundtrip(
        n in 1usize..5,
        strengths in proptest::collection::vec(5u32..95, 3..4),
        seed in 0u64..256,
    ) {
        let shared: Vec<Arc<Program>> = strengths
            .iter()
            .map(|s| {
                Arc::new(
                    parse(&chain_source(n, f64::from(*s) / 100.0)).expect("chain parses"),
                )
            })
            .collect();
        let chain = edit_chain_shared(&shared);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace0 = simulate(&*shared[0], &mut rng).expect("prior simulation");
        let mut graph = ExecGraph::from_trace_shared(&shared[0], &trace0).expect("lift");
        let mut flat = trace0;
        for (step, translator) in chain.iter().enumerate() {
            let mut rng_graph = StdRng::seed_from_u64(seed ^ 0xfeed ^ step as u64);
            let result = translator.translate_graph(&graph, &mut rng_graph).expect("graph step");
            let mut rng_flat = StdRng::seed_from_u64(seed ^ 0xfeed ^ step as u64);
            let (u, w) = translator.translate(&flat, &mut rng_flat).expect("flat step");
            let flattened = result.graph.to_trace().expect("flatten");
            prop_assert_eq!(
                flattened.to_choice_map(),
                u.to_choice_map(),
                "stage {} choices", step
            );
            prop_assert_eq!(
                result.log_weight.log().to_bits(),
                w.log().to_bits(),
                "stage {} weight", step
            );
            graph = result.graph;
            flat = u;
        }
    }
}
