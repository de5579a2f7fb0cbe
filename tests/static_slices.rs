//! Soundness of the static impact slice (`ppl::analysis`) against the
//! dynamic propagation runtime: with `--verify-slices` enabled, every
//! translation checks that each dynamically visited statement lies inside
//! the statically computed [`ppl::analysis::ImpactSet`] and fails loudly
//! otherwise. These tests drive that oracle over random programs, random
//! hyperparameter edits, whole edit sequences, and every runner flavor
//! (flat, graph-native, pooled at several thread counts).

mod common;

use std::sync::Arc;

use common::{perturb_constants, program_strategy, structural_edit_strategy};
use depgraph::{edit_chain, run_edit_sequence_supervised, ExecGraph, IncrementalTranslator};
use incremental::{
    collection_checksum, run_state_sequence_supervised, FailurePolicy, ParticleCollection,
    SmcConfig, StagePolicy, StateTranslator,
};
use ppl::handlers::simulate;
use ppl::{parse, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flattens a collection to checksum-ready weighted choice-map entries.
fn entries(collection: &ParticleCollection) -> Vec<(ppl::ChoiceMap, f64)> {
    collection
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any generated program, constant perturbation, and seed: the
    /// slice oracle holds — no dynamically visited statement falls
    /// outside the static impact set. The oracle runs inside
    /// `translate_graph` when verify-slices is on and turns any
    /// violation into an error.
    #[test]
    fn visited_statements_stay_inside_the_static_slice(
        src in program_strategy(),
        delta in 1u32..37,
        seed in 0u64..200,
    ) {
        depgraph::set_verify_slices(true);
        let p = parse(&src).unwrap();
        let q_src = perturb_constants(&src, delta);
        let q = parse(&q_src).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let result = translator.translate_graph(&graph, &mut rng);
        prop_assert!(
            result.is_ok(),
            "slice oracle rejected src:\n{src}\nq:\n{q_src}\n{}",
            result.err().map(|e| e.to_string()).unwrap_or_default()
        );
        let result = result.unwrap();
        // The oracle checks each *distinct* visited statement once;
        // `visited` counts instances (loop iterations included).
        prop_assert!(result.stats.oracle_checks <= result.stats.nodes_visited);
        prop_assert!(result.stats.nodes_visited == 0 || result.stats.oracle_checks > 0);
    }

    /// The identity edit is statically fully pruned: every top-level
    /// statement is skipped by the impact slice before any dirty bit is
    /// consulted, and nothing is visited.
    #[test]
    fn identity_edit_is_statically_pruned(src in program_strategy(), seed in 0u64..100) {
        depgraph::set_verify_slices(true);
        let p = parse(&src).unwrap();
        let q = parse(&src).unwrap();
        let top_level = p.body().stmts().len() as u64;
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let result = translator.translate_graph(&graph, &mut rng).unwrap();
        prop_assert_eq!(result.stats.nodes_visited, 0, "src:\n{}", src);
        prop_assert_eq!(result.stats.static_skips, top_level, "src:\n{}", src);
    }

    /// The oracle holds across whole edit sequences with flat-trace
    /// stages (graph built from each trace per stage).
    #[test]
    fn slice_oracle_holds_across_flat_sequences(
        src in program_strategy(),
        delta in 1u32..23,
        seed in 0u64..50,
    ) {
        depgraph::set_verify_slices(true);
        let sources = [
            src.clone(),
            perturb_constants(&src, delta),
            perturb_constants(&src, delta * 2),
        ];
        let programs: Vec<_> = sources.iter().map(|s| parse(s).unwrap()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let traces: Vec<_> = (0..4)
            .map(|_| simulate(&programs[0], &mut rng).unwrap())
            .collect();
        let particles = ParticleCollection::from_traces(traces);
        let stages: Vec<Arc<dyn StateTranslator<Trace> + Send + Sync>> = edit_chain(&programs)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn StateTranslator<Trace> + Send + Sync>)
            .collect();
        let run = run_state_sequence_supervised(
            &stages,
            &particles,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            seed,
            1,
            None,
        );
        prop_assert!(
            run.is_ok(),
            "slice oracle rejected sequence of:\n{}\n{}",
            sources.join("\n---\n"),
            run.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The slice oracle holds under structural edits, which remove old
    /// statements, walk fresh ones and shift auto-generated site labels.
    #[test]
    fn visited_statements_stay_inside_the_slice_under_structural_edits(
        edit in structural_edit_strategy(),
        seed in 0u64..200,
    ) {
        depgraph::set_verify_slices(true);
        let (p_src, q_src) = edit;
        let p = parse(&p_src).unwrap();
        let q = parse(&q_src).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let result = translator.translate_graph(&graph, &mut rng);
        prop_assert!(
            result.is_ok(),
            "slice oracle rejected p:\n{p_src}\nq:\n{q_src}\n{}",
            result.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
}

/// The pooled graph-native runner under the oracle: bit-identical output
/// for thread counts 1, 3, and 8, all passing the slice check.
#[test]
fn slice_oracle_holds_for_every_thread_count() {
    depgraph::set_verify_slices(true);
    let p0 =
        "x = flip(0.3) @ x; y = flip(0.6) @ y; observe(flip(x ? 0.9 : 0.1) @ o == 1); return x;";
    let p1 =
        "x = flip(0.3) @ x; y = flip(0.6) @ y; observe(flip(x ? 0.95 : 0.05) @ o == 1); return x;";
    let p2 =
        "x = flip(0.3) @ x; y = flip(0.7) @ y; observe(flip(x ? 0.95 : 0.05) @ o == 1); return x;";
    let programs: Vec<_> = [p0, p1, p2].iter().map(|s| parse(s).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(11);
    let traces: Vec<_> = (0..64)
        .map(|_| simulate(&programs[0], &mut rng).unwrap())
        .collect();
    let particles = ParticleCollection::from_traces(traces);
    let mut checksums = Vec::new();
    for threads in [1usize, 3, 8] {
        let run = run_edit_sequence_supervised(
            &programs,
            &particles,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            42,
            threads,
            None,
        )
        .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        let flat = run.last().flatten().unwrap();
        checksums.push(collection_checksum(&entries(&flat)));
    }
    assert_eq!(checksums[0], checksums[1]);
    assert_eq!(checksums[0], checksums[2]);
}

/// Static pre-pruning fires on a real hyperparameter edit: statements
/// after the edited one that do not read its writes are pruned by the
/// slice without consulting dirty bits, and pruning does not change the
/// translated graph.
#[test]
fn static_pruning_skips_the_unaffected_suffix() {
    depgraph::set_verify_slices(true);
    let p_src = "a = flip(0.2) @ a; b = flip(0.5) @ b; c = flip(0.7) @ c; return c;";
    let q_src = "a = flip(0.4) @ a; b = flip(0.5) @ b; c = flip(0.7) @ c; return c;";
    let p = parse(p_src).unwrap();
    let q = parse(q_src).unwrap();
    let translator = IncrementalTranslator::from_edit(p.clone(), q);
    assert_eq!(translator.plan().impact().impacted.len(), 1);
    assert_eq!(translator.plan().impact().skippable_count(), 2);
    let mut rng = StdRng::seed_from_u64(3);
    let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
    let result = translator.translate_graph(&graph, &mut rng).unwrap();
    assert_eq!(result.stats.nodes_visited, 1);
    assert_eq!(result.stats.static_skips, 2);
    // Every choice is reused (the edit only rescales a flip parameter),
    // so pruning leaves the translated choices bit-identical.
    let before = graph.to_trace().unwrap().to_choice_map();
    let after = result.graph.to_trace().unwrap().to_choice_map();
    assert_eq!(before, after);
}

/// The graph-native runner over shared program handles also passes the
/// oracle (pointer-identity validation path).
#[test]
fn slice_oracle_holds_on_shared_edit_chains() {
    depgraph::set_verify_slices(true);
    let p0 = "n = 3; s = 0; for i in [0..n) { s = s + uniform(0, 2) @ u; } return s;";
    let p1 = "n = 3; s = 1; for i in [0..n) { s = s + uniform(0, 2) @ u; } return s;";
    let a = Arc::new(parse(p0).unwrap());
    let b = Arc::new(parse(p1).unwrap());
    let translator = IncrementalTranslator::from_shared(Arc::clone(&a), b);
    let mut rng = StdRng::seed_from_u64(9);
    let graph = ExecGraph::simulate(&a, &mut rng).unwrap();
    let result = translator.translate_graph(&graph, &mut rng).unwrap();
    assert!(result.stats.nodes_visited > 0);
    assert!(result.stats.oracle_checks > 0);
    assert!(result.stats.oracle_checks <= result.stats.nodes_visited);
}
