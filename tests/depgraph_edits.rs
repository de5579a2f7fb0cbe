//! Integration tests of the Section 6 pipeline: program edits, derived
//! correspondences, dependency-graph propagation, and agreement with the
//! baseline translator across crates.

use depgraph::{diff_programs, ExecGraph, IncrementalTranslator};
use incremental::{exact_weight_estimate, CorrespondenceTranslator, StateTranslator};
use models::worked_examples::{fig7_edited, fig7_original};
use ppl::handlers::simulate;
use ppl::{addr, parse};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Figure 7: the paper's worked propagation for the edit `a = 1 → a = 2`.
#[test]
fn figure7_partial_propagation() {
    let p = fig7_original();
    let q = fig7_edited();
    let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let mut rng = StdRng::seed_from_u64(1);
    let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
    let t = graph.to_trace().unwrap();
    let result = translator.translate_graph(&graph, &mut rng).unwrap();
    let u = result.graph.to_trace().unwrap();
    // "the change does not propagate through node b = flip(a/3), because
    // the correspondence allows one to reuse the random choice b"
    assert_eq!(u.value(&addr!["b"]), t.value(&addr!["b"]));
    // "node c = uniform(0,5) and its parents must be deleted, and
    // replaced by those in the else-branch"
    assert!(!u.has_choice(&addr!["cthen"]));
    assert!(u.has_choice(&addr!["celse"]));
    // d = flip(b/2) is untouched.
    assert_eq!(u.value(&addr!["d"]), t.value(&addr!["d"]));
    // The weight matches the exact Eq. (2) oracle.
    let corr = &translator.edit().correspondence;
    let exact = exact_weight_estimate(&p, &q, corr, &t, &u).unwrap();
    assert!((result.log_weight.log() - exact.log()).abs() < 1e-9);
}

/// The diff-derived correspondence of the GMM hyperparameter edit maps
/// all three sites, and both translators agree exactly.
#[test]
fn gmm_edit_derived_correspondence_and_agreement() {
    let p = models::gmm::gmm_program(10.0, 50, 10);
    let q = models::gmm::gmm_program(20.0, 50, 10);
    let edit = diff_programs(&p, &q);
    for site in ["center", "pick", "point"] {
        assert!(
            edit.correspondence.maps(&addr![site, 0]),
            "site {site} should correspond"
        );
    }
    let incr = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let base = CorrespondenceTranslator::new(p.clone(), q, models::gmm::gmm_correspondence());
    let mut rng = StdRng::seed_from_u64(2);
    let t = simulate(&p, &mut rng).unwrap();
    let (u_incr, w_incr) = incr.translate(&t, &mut rng).unwrap();
    let (u_base, w_base) = base.translate(&t, &mut rng).unwrap();
    assert_eq!(u_incr.to_choice_map(), u_base.to_choice_map());
    assert!((w_incr.log() - w_base.log()).abs() < 1e-9);
}

/// Inserting a statement shifts auto-generated site labels; the diff
/// still matches the surviving statements and inference stays correct.
#[test]
fn insertion_edit_translates_correctly() {
    let p = parse(
        "x = flip(0.5);
         observe(flip(x ? 0.9 : 0.1) == 1);
         return x;",
    )
    .unwrap();
    let q = parse(
        "e = flip(0.1);
         x = flip(0.5);
         observe(flip((x || e) ? 0.9 : 0.1) == 1);
         return x;",
    )
    .unwrap();
    let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let corr = translator.edit().correspondence.clone();
    // Q's x is flip#2 (shifted by the insertion), P's x is flip#1.
    assert_eq!(corr.lookup(&addr!["flip#2"]), Some(addr!["flip#1"]));
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..25 {
        let t = simulate(&p, &mut rng).unwrap();
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
        assert!((w.log() - exact.log()).abs() < 1e-9);
        // x is reused.
        assert_eq!(u.value(&addr!["flip#2"]), t.value(&addr!["flip#1"]));
    }
}

/// End-to-end incremental inference through the edit-derived translator:
/// translating exact posterior samples of P yields Q's posterior.
#[test]
fn edit_translator_drives_smc_correctly() {
    let p = parse(
        "x = flip(0.5) @ x;
         observe(flip(x ? 0.7 : 0.3) @ o == 1);
         return x;",
    )
    .unwrap();
    let q = parse(
        "x = flip(0.5) @ x;
         observe(flip(x ? 0.95 : 0.05) @ o == 1);
         return x;",
    )
    .unwrap();
    let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let sampler = inference::ExactPosterior::new(&p).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let particles = incremental::ParticleCollection::from_traces(sampler.samples(40_000, &mut rng));
    let adapted = incremental::infer(
        &translator,
        None,
        &particles,
        &incremental::SmcConfig::translate_only(),
        &mut rng,
    )
    .unwrap();
    let estimate = adapted
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
        .unwrap();
    let exact = ppl::Enumeration::run(&q)
        .unwrap()
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
    assert!(
        (estimate - exact).abs() < 0.01,
        "estimate {estimate} vs exact {exact}"
    );
}

/// Iterated edits (Section 4.2 "Multiple Steps"): a chain of graph
/// translations composes and keeps exact weights.
#[test]
fn chained_graph_translations() {
    let programs: Vec<_> = [0.3, 0.5, 0.7, 0.9]
        .iter()
        .map(|p| {
            parse(&format!(
                "x = flip(0.5) @ x; observe(flip(x ? {p:?} : 0.1) @ o == 1); return x;"
            ))
            .unwrap()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let mut graph = ExecGraph::simulate(&programs[0], &mut rng).unwrap();
    let mut total_log_weight = 0.0;
    for window in programs.windows(2) {
        let translator = IncrementalTranslator::from_edit(window[0].clone(), window[1].clone());
        let result = translator.translate_graph(&graph, &mut rng).unwrap();
        total_log_weight += result.log_weight.log();
        graph = result.graph;
    }
    // The chain composes to the direct weight from first to last (all
    // choices reused, so only observation factors accumulate).
    let t0 = ExecGraph::simulate(&programs[0], &mut rng).unwrap();
    let _ = t0; // the chain used its own start; recompute directly:
    let first = &programs[0];
    let last = &programs[3];
    let direct = IncrementalTranslator::from_edit(first.clone(), last.clone());
    let start = ExecGraph::simulate(first, &mut rng).unwrap();
    let direct_result = direct.translate_graph(&start, &mut rng).unwrap();
    // Same x value ⇒ same weight; compare conditioned on matching x.
    let chain_x = graph
        .to_trace()
        .unwrap()
        .value(&addr!["x"])
        .unwrap()
        .clone();
    let direct_x = direct_result
        .graph
        .to_trace()
        .unwrap()
        .value(&addr!["x"])
        .unwrap()
        .clone();
    if chain_x.num_eq(&direct_x) {
        assert!((total_log_weight - direct_result.log_weight.log()).abs() < 1e-9);
    } else {
        // Different start traces: weights are per-trace; just check both
        // are finite.
        assert!(total_log_weight.is_finite());
        assert!(direct_result.log_weight.log().is_finite());
    }
}

/// Randomized cross-runtime agreement: for arbitrary small program pairs,
/// the flat-trace path of the incremental translator produces weights
/// that match the exact oracle.
#[test]
fn randomized_cross_runtime_agreement() {
    let sources = [
        (
            "a = flip(0.4) @ a; b = uniform(0, 2) @ b;
             if a { observe(flip(0.8) @ o == 1); } else { skip; }
             return b;",
            "a = flip(0.6) @ a; b = uniform(0, 2) @ b;
             if a { observe(flip(0.5) @ o == 1); } else { skip; }
             return b;",
        ),
        (
            "n = 3; s = 0;
             for i in [0..n) { s = s + flip(0.5) @ f; }
             observe(flip(s > 1 ? 0.9 : 0.2) @ o == 1);
             return s;",
            "n = 5; s = 0;
             for i in [0..n) { s = s + flip(0.5) @ f; }
             observe(flip(s > 2 ? 0.9 : 0.2) @ o == 1);
             return s;",
        ),
    ];
    for (sp, sq) in sources {
        let p = parse(sp).unwrap();
        let q = parse(sq).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let corr = translator.edit().correspondence.clone();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = simulate(&p, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
            assert!(
                (w.log() - exact.log()).abs() < 1e-9,
                "seed {seed}: {} vs {} for `{sq}`",
                w.log(),
                exact.log()
            );
        }
    }
}
