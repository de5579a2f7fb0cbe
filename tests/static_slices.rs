//! Soundness of the static impact slice (`ppl::analysis`) against the
//! dynamic propagation runtime: with `--verify-slices` enabled, every
//! translation checks that each dynamically visited statement lies inside
//! the statically computed [`ppl::analysis::ImpactSet`] and fails loudly
//! otherwise. These tests drive that oracle over random programs, random
//! hyperparameter edits, whole edit sequences, and every runner flavor
//! (flat, graph-native, pooled at several thread counts).
//!
//! The slot-keyed facts and slice are also checked against the analysis
//! as it was computed on strings (`common::reference_analysis`): every
//! name, label, verdict and site they render must be the reference's.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::reference_analysis as reference;
use common::{
    perturb_constants, program_strategy, rich_program_strategy, structural_edit_from,
    structural_edit_strategy,
};
use depgraph::{
    diff_programs, edit_chain, impact_of_edit, run_edit_sequence_supervised, EditImpact, ExecGraph,
    IncrementalTranslator,
};
use incremental::{
    collection_checksum, run_state_sequence_supervised, FailurePolicy, ParticleCollection,
    SmcConfig, StagePolicy, StateTranslator,
};
use ppl::analysis::{head_sites, preorder, slot_names, stmt_label};
use ppl::handlers::simulate;
use ppl::SlotId;
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

/// Sorted names of `slots` in `compiled`, as owned strings.
fn rendered(compiled: &ppl::CompiledProgram, slots: &[SlotId]) -> Vec<String> {
    let names = slot_names(compiled, slots.iter().copied());
    names.into_iter().map(str::to_string).collect()
}

fn sorted(set: &BTreeSet<String>) -> Vec<String> {
    set.iter().cloned().collect()
}

/// Sorted, deduplicated labels of `sites`.
fn site_labels(sites: &[ppl::ast::SiteId]) -> Vec<String> {
    let set: BTreeSet<String> = sites.iter().map(|s| s.as_str().to_string()).collect();
    set.into_iter().collect()
}

/// Asserts that the edit `p → q`'s slot-keyed facts and impact slice
/// render to exactly what the string-keyed reference computes.
fn assert_matches_reference(p_src: &str, q_src: &str) -> Result<(), String> {
    let p = parse(p_src).map_err(|e| format!("{e} in {p_src}"))?;
    let q = parse(q_src).map_err(|e| format!("{e} in {q_src}"))?;
    let edit = diff_programs(&p, &q);
    let EditImpact {
        compiled,
        effects,
        impact,
    } = impact_of_edit(&q, &p, &edit);
    let (want_effects, want_impact) = reference::impact_of_edit(&q, &p, &edit);
    let stmts = preorder(&q);
    prop_assert_eq!(effects.len(), want_effects.len());
    prop_assert_eq!(stmts.len(), want_effects.len());
    for (i, want) in want_effects.stmts.iter().enumerate() {
        let got = effects.stmt(i);
        let at = format!("statement #{i} `{}`", want.label);
        prop_assert_eq!(stmt_label(stmts[i]), want.label.clone(), "{}", at);
        prop_assert_eq!(got.end, want.end, "end of {}", at);
        prop_assert_eq!(got.depth, want.depth, "depth of {}", at);
        prop_assert_eq!(
            format!("{:?}", got.shape),
            format!("{:?}", want.shape),
            "shape of {}",
            at
        );
        prop_assert_eq!(
            got.loop_var.map(|s| compiled.slot_name(s).to_string()),
            want.loop_var.clone(),
            "loop variable of {}",
            at
        );
        let facts = [
            (effects.head_reads(i), &want.head.reads, "head reads"),
            (effects.head_writes(i), &want.head.writes, "head writes"),
            (
                effects.subtree_reads(i),
                &want.subtree.reads,
                "subtree reads",
            ),
            (
                effects.subtree_writes(i),
                &want.subtree.writes,
                "subtree writes",
            ),
        ];
        for (got, want, what) in facts {
            prop_assert_eq!(rendered(&compiled, got), sorted(want), "{} of {}", what, at);
        }
        let mut head = Vec::new();
        head_sites(stmts[i], &mut head);
        prop_assert_eq!(
            site_labels(&head),
            sorted(&want.head.samples),
            "head samples of {}",
            at
        );
        let mut subtree = Vec::new();
        stmts[i].collect_sites(&mut subtree);
        prop_assert_eq!(
            site_labels(&subtree),
            sorted(&want.subtree.samples),
            "subtree samples of {}",
            at
        );
    }
    prop_assert_eq!(
        rendered(&compiled, effects.ret_reads()),
        sorted(&want_effects.ret_reads)
    );
    prop_assert_eq!(impact.total(), want_impact.total);
    prop_assert_eq!(
        impact.impacted().collect::<Vec<_>>(),
        want_impact.impacted.iter().copied().collect::<Vec<_>>(),
        "impacted statements"
    );
    let dirty: Vec<String> = slot_names(&compiled, impact.may_dirty())
        .into_iter()
        .map(str::to_string)
        .collect();
    prop_assert_eq!(dirty, sorted(&want_impact.may_dirty), "may-dirty variables");
    prop_assert_eq!(impact.sites(&stmts), want_impact.sites, "revisited sites");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Under a hyperparameter edit of a program with nested `if`, `for`
    /// and `while`, element writes and constant-condition ternaries, the
    /// slot-keyed facts and slice agree with the string reference.
    #[test]
    fn slot_facts_match_the_string_reference_under_constant_edits(
        src in rich_program_strategy(),
        delta in 1u32..37,
    ) {
        let q_src = perturb_constants(&src, delta);
        assert_matches_reference(&src, &q_src)
            .map_err(|e| format!("{e}\np:\n{src}\nq:\n{q_src}"))?;
    }

    /// The same under structural edits, which remove old statements (so
    /// their writes go stale), add fresh ones and shift site labels.
    #[test]
    fn slot_facts_match_the_string_reference_under_structural_edits(
        edit in structural_edit_from(rich_program_strategy),
        plain in structural_edit_strategy(),
    ) {
        for (p_src, q_src) in [edit, plain] {
            assert_matches_reference(&p_src, &q_src)
                .map_err(|e| format!("{e}\np:\n{p_src}\nq:\n{q_src}"))?;
        }
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
    assert_eq!(translator.plan().impact().impacted_count(), 1);
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
