//! Property-based differential testing of the whole incremental pipeline:
//! random surface programs, random constant edits, and the invariant that
//! the Section 6 translator's weight always equals the exact Eq. (2)
//! oracle for the produced trace pair.

mod common;

use common::{perturb_constants, program_strategy};
use depgraph::{ExecGraph, IncrementalTranslator};
use incremental::{exact_weight_estimate, TraceTranslator};
use ppl::address::Component;
use ppl::handlers::simulate;
use ppl::{parse, Address};
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

    /// Address lookups agree with the flattened trace on a simulated
    /// graph and on its translation under a constant edit, and addresses
    /// no run records resolve to nothing.
    #[test]
    fn lookups_agree_with_the_flattened_trace(
        src in program_strategy(),
        delta in 1u32..37,
        seed in 0u64..100,
    ) {
        let p = parse(&src).unwrap();
        let q = parse(&perturb_constants(&src, delta)).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let translated = translator.translate_graph(&graph, &mut rng).unwrap().graph;
        for g in [&graph, &translated] {
            if let Err(msg) = lookups_agree(g) {
                return Err(format!("src:\n{src}\n{msg}"));
            }
        }
    }
}

/// Checks one graph's lookups against its flattened trace: same value,
/// dist and log-prob bits at every address, `None` at every perturbation
/// of one.
fn lookups_agree(graph: &ExecGraph) -> Result<(), String> {
    let trace = graph.to_trace().unwrap();
    for (addr, c) in trace.choices() {
        let found = graph.choice(addr);
        prop_assert!(found.is_some(), "no choice at {addr}");
        let found = found.unwrap();
        prop_assert_eq!(&found.value, &c.value, "value at {}", addr);
        prop_assert_eq!(&found.dist, &c.dist, "dist at {}", addr);
        prop_assert_eq!(found.log_prob.log().to_bits(), c.log_prob.log().to_bits());
        for wrong in perturbed(addr) {
            prop_assert!(graph.choice(&wrong).is_none(), "choice at {wrong}");
        }
    }
    for (addr, o) in trace.observations() {
        let found = graph.observation(addr);
        prop_assert!(found.is_some(), "no observation at {addr}");
        let found = found.unwrap();
        prop_assert_eq!(&found.value, &o.value, "value at {}", addr);
        prop_assert_eq!(&found.dist, &o.dist, "dist at {}", addr);
        prop_assert_eq!(found.log_prob.log().to_bits(), o.log_prob.log().to_bits());
        for wrong in perturbed(addr) {
            prop_assert!(
                graph.observation(&wrong).is_none(),
                "observation at {wrong}"
            );
        }
    }
    Ok(())
}

/// Addresses no run of a generated program records: a loop index past
/// its bounds, a missing or an extra index, and an unknown site. (The
/// generator's loops run at most four iterations, and every site label is
/// unique.)
fn perturbed(addr: &Address) -> Vec<Address> {
    let comps = addr.components();
    let mut out = vec![
        addr.child(0_i64),
        Address::new(
            std::iter::once(Component::from("no_such_site"))
                .chain(comps[1..].iter().cloned())
                .collect(),
        ),
    ];
    if let Some((Component::Idx(last), init)) = comps.split_last() {
        out.push(Address::new(init.to_vec()));
        let mut past = init.to_vec();
        past.push(Component::Idx(last + 4));
        out.push(Address::new(past));
    }
    out
}
