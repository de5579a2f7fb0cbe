//! Property-based differential testing of the whole incremental pipeline:
//! random surface programs, random constant edits, and the invariant that
//! the Section 6 translator's weight always equals the exact Eq. (2)
//! oracle for the produced trace pair.

mod common;

use common::{perturb_constants, program_strategy};
use depgraph::IncrementalTranslator;
use incremental::{exact_weight_estimate, TraceTranslator};
use ppl::handlers::simulate;
use ppl::parse;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any generated program, any constant perturbation, and any
    /// seed: the incremental translator's weight matches the exact
    /// oracle, and translating with the identity edit is free.
    #[test]
    fn incremental_weights_match_oracle_on_random_edits(
        src in program_strategy(),
        delta in 1u32..37,
        seed in 0u64..200,
    ) {
        let p = parse(&src).unwrap();
        let q_src = perturb_constants(&src, delta);
        let q = parse(&q_src).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let corr = translator.edit().correspondence.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = simulate(&p, &mut rng).unwrap();
        let out = translator.translate(&t, &mut rng).unwrap();
        let oracle = exact_weight_estimate(&p, &q, &corr, &t, &out.trace).unwrap();
        prop_assert!(
            (out.log_weight.log() - oracle.log()).abs() < 1e-9
                || (out.log_weight.is_zero() && oracle.is_zero()),
            "src:\n{src}\nq:\n{q_src}\nincremental {} vs oracle {}",
            out.log_weight.log(),
            oracle.log()
        );
    }

    /// The identity edit is always recognized: zero visits, unit weight.
    #[test]
    fn identity_edit_is_always_free(src in program_strategy(), seed in 0u64..100) {
        let p = parse(&src).unwrap();
        let q = parse(&src).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = depgraph::ExecGraph::simulate(&p, &mut rng).unwrap();
        let result = translator.translate_graph(&graph, &mut rng).unwrap();
        prop_assert_eq!(result.stats.visited, 0, "src:\n{}", src);
        prop_assert!(result.log_weight.log().abs() < 1e-12);
        prop_assert_eq!(
            result.graph.to_trace().unwrap().to_choice_map(),
            graph.to_trace().unwrap().to_choice_map()
        );
    }

    /// Building a graph agrees with the interpreter: under the prior, the
    /// same seed gives the same choices, score bits and return value; from
    /// a trace, flattening the graph gives the trace back.
    #[test]
    fn graph_builds_agree_with_the_interpreter(src in program_strategy(), seed in 0u64..100) {
        let p = parse(&src).unwrap();
        let graph = depgraph::ExecGraph::simulate(&p, &mut StdRng::seed_from_u64(seed)).unwrap();
        let built = graph.to_trace().unwrap();
        let reference = simulate(&p, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(built.to_choice_map(), reference.to_choice_map(), "src:\n{}", src);
        prop_assert_eq!(built.score().log().to_bits(), reference.score().log().to_bits());
        prop_assert_eq!(built.return_value(), reference.return_value());
        let lifted = depgraph::ExecGraph::from_trace(&p, &reference).unwrap();
        prop_assert_eq!(lifted.to_trace().unwrap(), reference, "src:\n{}", src);
    }
}
