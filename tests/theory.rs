#![allow(clippy::type_complexity)] // fn-pointer model types are spelled out for clarity

//! Integration tests of the paper's formal guarantees (Lemma 2 and the
//! supplemental Lemmas 4–7), checked against exact enumeration.

use incremental::{
    infer, translator_error, Correspondence, CorrespondenceTranslator, ParticleCollection,
    SmcConfig, StateTranslator,
};
use inference::{ExactPosterior, SingleSiteMh};
use ppl::dist::Dist;
use ppl::{addr, Enumeration, Handler, PplError, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn p_model(h: &mut dyn Handler) -> Result<Value, PplError> {
    let x = h.sample(addr!["x"], Dist::flip(0.4))?;
    let po = if x.truthy()? { 0.7 } else { 0.2 };
    h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
    Ok(x)
}

fn q_model(h: &mut dyn Handler) -> Result<Value, PplError> {
    let x = h.sample(addr!["x"], Dist::flip(0.4))?;
    let y = h.sample(addr!["y"], Dist::flip(0.25))?;
    let po = if x.truthy()? || y.truthy()? { 0.9 } else { 0.1 };
    h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
    Ok(x)
}

fn translator() -> CorrespondenceTranslator<
    fn(&mut dyn Handler) -> Result<Value, PplError>,
    fn(&mut dyn Handler) -> Result<Value, PplError>,
> {
    CorrespondenceTranslator::new(p_model, q_model, Correspondence::identity_on(["x"]))
}

/// Lemma 4: `E[ŵ(U; T) | U = u] = (Z_Q / Z_P) · w(u)`, verified in the
/// aggregate form of Lemma 6: `(1/M) Σ ŵ_j → Z_Q / Z_P` for `t_j ∼ P`.
#[test]
fn lemma6_mean_weight_converges_to_z_ratio() {
    let z_p = Enumeration::run(&p_model).unwrap().z();
    let z_q = Enumeration::run(&q_model).unwrap().z();
    let sampler = ExactPosterior::new(&p_model).unwrap();
    let translator = translator();
    let mut rng = StdRng::seed_from_u64(10);
    let m = 200_000;
    let mut total = 0.0;
    for _ in 0..m {
        let t = sampler.sample(&mut rng);
        let (_, w) = translator.translate(&t, &mut rng).unwrap();
        total += w.prob();
    }
    let estimate = total / m as f64;
    let expected = z_q / z_p;
    assert!(
        (estimate - expected).abs() < 0.01 * expected,
        "mean weight {estimate} vs Z_Q/Z_P {expected}"
    );
}

/// Lemma 7 / Lemma 2 without MCMC: the self-normalized estimator
/// converges to `E_{u∼Q}[φ(u)]`.
#[test]
fn lemma7_self_normalized_estimator_converges() {
    let exact = Enumeration::run(&q_model)
        .unwrap()
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
    let sampler = ExactPosterior::new(&p_model).unwrap();
    let translator = translator();
    let mut rng = StdRng::seed_from_u64(11);
    let particles = ParticleCollection::from_traces(sampler.samples(100_000, &mut rng));
    let adapted = infer(
        &translator,
        None,
        &particles,
        &SmcConfig::translate_only(),
        &mut rng,
    )
    .unwrap();
    let estimate = adapted
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
        .unwrap();
    assert!(
        (estimate - exact).abs() < 0.01,
        "estimate {estimate} vs exact {exact}"
    );
}

/// Lemma 2 with MCMC rejuvenation: appending a posterior-invariant
/// kernel must not change the limit (and helps the y marginal, which the
/// translator samples from the prior).
#[test]
fn lemma2_with_mcmc_rejuvenation() {
    let exact_y = Enumeration::run(&q_model)
        .unwrap()
        .probability(|t| t.value(&addr!["y"]).unwrap().truthy().unwrap());
    let sampler = ExactPosterior::new(&p_model).unwrap();
    let translator = translator();
    let kernel = SingleSiteMh::new(q_model as fn(&mut dyn Handler) -> Result<Value, PplError>);
    let mut rng = StdRng::seed_from_u64(12);
    let particles = ParticleCollection::from_traces(sampler.samples(60_000, &mut rng));
    let config = SmcConfig {
        mcmc_steps: 3,
        ..SmcConfig::translate_only()
    };
    let adapted = infer(&translator, Some(&kernel), &particles, &config, &mut rng).unwrap();
    let estimate = adapted
        .probability(|t| t.value(&addr!["y"]).unwrap().truthy().unwrap())
        .unwrap();
    assert!(
        (estimate - exact_y).abs() < 0.015,
        "estimate {estimate} vs exact {exact_y}"
    );
}

/// The Section 5.3 identity: ε(R) equals the sum of the three error
/// terms, across several model pairs.
#[test]
fn section53_decomposition_identity() {
    let pairs: Vec<(
        fn(&mut dyn Handler) -> Result<Value, PplError>,
        fn(&mut dyn Handler) -> Result<Value, PplError>,
        Correspondence,
    )> = vec![
        (p_model, q_model, Correspondence::identity_on(["x"])),
        (p_model, p_model, Correspondence::identity_on(["x"])),
        (q_model, p_model, Correspondence::identity_on(["x"])),
        (p_model, q_model, Correspondence::new()),
    ];
    for (p, q, f) in pairs {
        let report = translator_error(&p, &q, &f).unwrap();
        assert!(
            (report.epsilon - report.decomposition_sum()).abs() < 1e-9,
            "eps {} vs sum {}",
            report.epsilon,
            report.decomposition_sum()
        );
        assert!(report.semantic_term >= -1e-12);
        assert!(report.forward_sampling_term >= -1e-12);
        assert!(report.backward_sampling_term >= -1e-12);
    }
}

/// "If every random choice in P is in correspondence with some random
/// choice in Q, then the third term is zero" (Section 5.3).
#[test]
fn third_term_zero_when_p_fully_covered() {
    let report = translator_error(&p_model, &q_model, &Correspondence::identity_on(["x"])).unwrap();
    assert!(report.backward_sampling_term.abs() < 1e-12);
}

/// Degenerate-weight soundness: a translator whose backward kernel
/// cannot reproduce `t` yields weight zero (not a wrong finite weight).
#[test]
fn zero_backward_density_gives_zero_weight() {
    // Correspondence maps x ↦ x but the P-side trace is constructed with
    // a value that Q would overwrite differently on reuse — impossible
    // under always-reuse, so instead check the Eq. (2) oracle directly
    // for a mismatched pair of traces.
    let f = Correspondence::identity_on(["x"]);
    let mut t = ppl::Trace::new();
    let d = Dist::flip(0.4);
    let lp = d.log_prob(&Value::Bool(true));
    t.record_choice(addr!["x"], Value::Bool(true), d, lp)
        .unwrap();
    let d = Dist::flip(0.7);
    let lp = d.log_prob(&Value::Bool(true));
    t.record_observation(addr!["o"], Value::Bool(true), d, lp)
        .unwrap();
    // u disagrees with t on the corresponding choice.
    let mut u = ppl::Trace::new();
    let d = Dist::flip(0.4);
    let lp = d.log_prob(&Value::Bool(false));
    u.record_choice(addr!["x"], Value::Bool(false), d, lp)
        .unwrap();
    let d = Dist::flip(0.25);
    let lp = d.log_prob(&Value::Bool(false));
    u.record_choice(addr!["y"], Value::Bool(false), d, lp)
        .unwrap();
    let d = Dist::flip(0.1);
    let lp = d.log_prob(&Value::Bool(true));
    u.record_observation(addr!["o"], Value::Bool(true), d, lp)
        .unwrap();
    let w = incremental::exact_weight_estimate(&p_model, &q_model, &f, &t, &u).unwrap();
    assert!(w.is_zero(), "weight {w:?} should be zero");
}
