//! Integration tests pinning every worked example in the paper's text.

use incremental::{CorrespondenceTranslator, StateTranslator};
use models::{burglary, worked_examples};
use ppl::dist::Dist;
use ppl::{addr, Enumeration, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn burgled(t: &Trace) -> bool {
    t.return_value().unwrap().truthy().unwrap()
}

/// Figure 1 bar charts: prior 98%/2% both; posteriors 79.5%/20.5% and
/// 80.6%/19.4%.
#[test]
fn figure1_bars() {
    let e_p = Enumeration::run(&burglary::original).unwrap();
    assert!((e_p.prior_probability(burgled) - 0.02).abs() < 1e-12);
    assert!((e_p.probability(burgled) - 0.205).abs() < 5e-4);
    let e_q = Enumeration::run(&burglary::refined).unwrap();
    assert!((e_q.prior_probability(burgled) - 0.02).abs() < 1e-12);
    assert!((e_q.probability(burgled) - 0.194).abs() < 5e-4);
}

/// Figure 1 worked weight: w' = (p_α' p_β' p_o') / (p_α p_β p_o) ≈ 1.19.
#[test]
fn figure1_weight() {
    let mut t = Trace::new();
    for (name, p) in [("alpha", 0.02), ("beta", 0.9)] {
        let d = Dist::flip(p);
        let lp = d.log_prob(&Value::Bool(true));
        t.record_choice(addr![name], Value::Bool(true), d, lp)
            .unwrap();
    }
    let d = Dist::flip(0.8);
    let lp = d.log_prob(&Value::Bool(true));
    t.record_observation(addr!["o"], Value::Bool(true), d, lp)
        .unwrap();

    let translator = CorrespondenceTranslator::new(
        burglary::original,
        burglary::refined,
        burglary::correspondence(),
    );
    let mut rng = StdRng::seed_from_u64(0);
    let expected = (0.02 * 0.95 * 0.9) / (0.02 * 0.9 * 0.8); // = 1.1875
    let mut seen = false;
    for _ in 0..50_000 {
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        if u.value(&addr!["gamma_"]).unwrap().truthy().unwrap() {
            assert!((w.prob() - expected).abs() < 1e-9);
            seen = true;
            break;
        }
    }
    assert!(seen, "earthquake branch never sampled");
}

/// Example 1 (Figure 3): Z_P = 0.7 and the normalized trace probability.
#[test]
fn example1_z_and_trace_probability() {
    let program = worked_examples::fig3_program();
    let e = Enumeration::run(&program).unwrap();
    assert!((e.z() - 0.7).abs() < 1e-12);
    let target = (1.0 / 3.0) * (1.0 / 6.0) * 0.5 * 0.2 / 0.7;
    let prob = e.probability(|t| {
        t.value(&addr!["b"]).unwrap().num_eq(&Value::Bool(true))
            && t.value(&addr!["c"]).unwrap().num_eq(&Value::Int(4))
            && t.value(&addr!["d"]).unwrap().num_eq(&Value::Bool(true))
    });
    assert!((prob - target).abs() < 1e-12);
}

/// Example 3 (Figure 5): ŵ = 2/3 for t = [α↦1, γ↦1, δ↦1].
#[test]
fn example3_weight_two_thirds() {
    let mut t = Trace::new();
    let d = Dist::flip(0.5);
    for name in ["alpha", "gamma", "delta"] {
        let lp = d.log_prob(&Value::Bool(true));
        t.record_choice(addr![name], Value::Bool(true), d.clone(), lp)
            .unwrap();
    }
    let translator = CorrespondenceTranslator::new(
        worked_examples::fig5_p,
        worked_examples::fig5_q,
        worked_examples::fig5_correspondence(),
    );
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..20 {
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        // The weight is 2/3 regardless of how θ and ι are sampled.
        assert!((w.prob() - 2.0 / 3.0).abs() < 1e-12);
        // θ and ι were sampled fresh within their supports.
        let theta = u.value(&addr!["theta"]).unwrap().as_int().unwrap();
        let iota = u.value(&addr!["iota"]).unwrap().as_int().unwrap();
        assert!((1..=6).contains(&theta));
        assert!((-5..=-2).contains(&iota));
    }
}

/// Example 3's footnote: δ and θ must NOT be matched — their supports
/// differ — and the forward kernel enforces this dynamically.
#[test]
fn example3_support_discipline() {
    assert!(!Dist::flip(0.5).same_support(&Dist::uniform_int(1, 6)));
    assert!(!Dist::uniform_int(0, 5).same_support(&Dist::flip(0.5)));
    // Matching them anyway falls back to fresh sampling (no crash, no
    // corruption): kernel density stays well-defined.
    let f = incremental::Correspondence::from_pairs([
        (addr!["eps"], addr!["alpha"]),
        (addr!["theta"], addr!["delta"]),
    ])
    .unwrap();
    let translator =
        CorrespondenceTranslator::new(worked_examples::fig5_p, worked_examples::fig5_q, f);
    let mut t = Trace::new();
    let d = Dist::flip(0.5);
    for name in ["alpha", "gamma", "delta"] {
        let lp = d.log_prob(&Value::Bool(true));
        t.record_choice(addr![name], Value::Bool(true), d.clone(), lp)
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(2);
    let (_, w) = translator.translate(&t, &mut rng).unwrap();
    assert!(w.log().is_finite());
}

/// Section 5.4: the geometric program's trials are indexed so that
/// changing the success probability reuses the whole trial sequence.
#[test]
fn geometric_loop_correspondence() {
    let p = worked_examples::geometric(0.5);
    let q = worked_examples::geometric(0.25);
    let translator =
        CorrespondenceTranslator::new(p.clone(), q, worked_examples::geometric_correspondence());
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..30 {
        let t = ppl::handlers::simulate(&p, &mut rng).unwrap();
        let (u, _) = translator.translate(&t, &mut rng).unwrap();
        assert_eq!(u.return_value(), t.return_value());
        assert_eq!(u.len(), t.len());
    }
}

/// The surface-language versions of the burglary programs agree with the
/// embedded versions, through the parser and the interpreter.
#[test]
fn surface_and_embedded_burglary_agree() {
    let via_ast = Enumeration::run(&burglary::original_program()).unwrap();
    let via_fn = Enumeration::run(&burglary::original).unwrap();
    assert!((via_ast.z() - via_fn.z()).abs() < 1e-12);
    let a = via_ast.probability(burgled);
    let b = via_fn.probability(burgled);
    assert!((a - b).abs() < 1e-12);
}
