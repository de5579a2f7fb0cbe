//! End-to-end integration tests of the full experiment pipelines at
//! reduced scale.

use std::sync::Arc;

use incremental::{
    infer, infer_without_weights, run_state_sequence_supervised, Correspondence,
    CorrespondenceTranslator, FailurePolicy, ParticleCollection, ResamplePolicy, SmcConfig,
    StagePolicy, StateTranslator,
};
use inference::stats::mean;
use models::data::hospital::HospitalData;
use models::data::typo::{train_models, TypoCorpus};
use models::hmm_model::{
    addr_hidden, exact_first_order_traces, ground_truth_log_prob, hmm_correspondence, to_dp_hmm,
    FirstOrderHmmModel, SecondOrderHmmModel,
};
use models::regression::{
    addr_slope, exact_posterior_traces, regression_correspondence, LinRegModel, NoOutlierParams,
    OutlierParams, RobustRegModel,
};
use ppl::dist::Dist;
use ppl::{addr, Enumeration, Handler, PplError, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The regression pipeline: weighted translation moves the slope
/// estimate toward the robust answer; dropping the weights leaves it at
/// the non-robust answer.
#[test]
fn regression_pipeline_weights_matter() {
    let data = HospitalData::generate(120, 0.1, 5);
    let p_model = LinRegModel {
        params: NoOutlierParams::default(),
        xs: data.xs.clone(),
        ys: data.ys.clone(),
    };
    let q_model = RobustRegModel {
        params: OutlierParams::default(),
        xs: data.xs.clone(),
        ys: data.ys.clone(),
    };
    let translator =
        CorrespondenceTranslator::new(p_model.clone(), q_model, regression_correspondence());
    let mut rng = StdRng::seed_from_u64(6);
    let slope = |t: &ppl::Trace| t.value(&addr_slope()).unwrap().as_real().unwrap();

    // Average the estimates over several replications to tame weight
    // degeneracy noise.
    let (mut with_w, mut without_w, mut p_means) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..10 {
        let particles = exact_posterior_traces(&p_model, 80, &mut rng).unwrap();
        p_means.push(particles.estimate(slope).unwrap());
        let adapted = infer(
            &translator,
            None,
            &particles,
            &SmcConfig::translate_only(),
            &mut rng,
        )
        .unwrap();
        with_w.push(adapted.estimate(slope).unwrap());
        let plain = infer_without_weights(&translator, &particles, &mut rng).unwrap();
        without_w.push(plain.estimate(slope).unwrap());
    }
    let p_mean = mean(&p_means);
    let weighted = mean(&with_w);
    let unweighted = mean(&without_w);
    // Without weights, translation cannot move the slope distribution at
    // all (slope/intercept are reused): the estimate equals P's.
    assert!(
        (unweighted - p_mean).abs() < 1e-9,
        "unweighted {unweighted} should equal P posterior mean {p_mean}"
    );
    // With weights, the estimate moves toward the true slope.
    assert!(
        (weighted - data.true_slope).abs() < (p_mean - data.true_slope).abs() + 1e-9,
        "weighted {weighted} not closer to truth {} than P mean {p_mean}",
        data.true_slope
    );
}

/// The HMM pipeline: translated FFBS traces score the ground truth at
/// least as well as the raw first-order posterior on average, and the
/// translated approximation targets the second-order posterior.
#[test]
fn hmm_pipeline_improves_over_first_order() {
    let train = TypoCorpus::generate(12_000, 0.15, 8);
    let test = TypoCorpus::generate(25, 0.15, 9);
    let (first, second) = train_models(&train);
    let (first, second) = (Arc::new(first), Arc::new(second));
    let mut rng = StdRng::seed_from_u64(10);
    let (mut lp_first, mut lp_translated) = (Vec::new(), Vec::new());
    for pair in &test.pairs {
        let p_model = FirstOrderHmmModel {
            params: Arc::clone(&first),
            observations: pair.typed.clone(),
        };
        let q_model = SecondOrderHmmModel {
            params: Arc::clone(&second),
            observations: pair.typed.clone(),
        };
        let translator =
            CorrespondenceTranslator::new(p_model.clone(), q_model, hmm_correspondence());
        let input = exact_first_order_traces(&p_model, 60, &mut rng).unwrap();
        lp_first.push(ground_truth_log_prob(&input, &pair.intended, 1e-3).unwrap());
        let adapted = infer(
            &translator,
            None,
            &input,
            &SmcConfig::translate_only(),
            &mut rng,
        )
        .unwrap();
        lp_translated.push(ground_truth_log_prob(&adapted, &pair.intended, 1e-3).unwrap());
    }
    assert!(
        mean(&lp_translated) > mean(&lp_first) - 0.05,
        "translated {} vs first-order {}",
        mean(&lp_translated),
        mean(&lp_first)
    );
}

/// FFBS inputs really are exact: their marginals match forward–backward.
#[test]
fn ffbs_marginals_check() {
    let train = TypoCorpus::generate(5_000, 0.15, 12);
    let (first, _) = train_models(&train);
    let params = Arc::new(first);
    let word = TypoCorpus::generate(1, 0.15, 13).pairs[0].typed.clone();
    let model = FirstOrderHmmModel {
        params: Arc::clone(&params),
        observations: word.clone(),
    };
    let mut rng = StdRng::seed_from_u64(14);
    let particles = exact_first_order_traces(&model, 20_000, &mut rng).unwrap();
    let dp = to_dp_hmm(&params);
    let gamma = dp.smoothed_marginals(&word);
    for (i, row) in gamma.iter().enumerate().take(word.len()) {
        let mode = (0..row.len())
            .max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap())
            .unwrap();
        let freq = particles
            .probability(|t| {
                t.value(&addr_hidden(i))
                    .map(|v| v.num_eq(&Value::Int(mode as i64)))
                    .unwrap_or(false)
            })
            .unwrap();
        assert!(
            (freq - row[mode]).abs() < 0.02,
            "pos {i}: FFBS {freq} vs exact {}",
            row[mode]
        );
    }
}

/// A three-stage program sequence with ESS-triggered resampling tracks
/// the final posterior (the Section 4.2 "Multiple Steps" regime).
#[test]
fn sequence_with_adaptive_resampling() {
    fn stage_model(q: f64) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> + Clone {
        move |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let po = if x.truthy()? { q } else { 1.0 - q };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        }
    }
    let models: Vec<_> = [0.55, 0.7, 0.85, 0.95]
        .iter()
        .map(|&q| stage_model(q))
        .collect();
    let stages: Vec<Arc<dyn StateTranslator<Trace> + Send + Sync>> = models
        .windows(2)
        .map(|w| {
            let translator = CorrespondenceTranslator::new(
                w[0].clone(),
                w[1].clone(),
                Correspondence::identity_on(["x"]),
            );
            Arc::new(translator) as Arc<dyn StateTranslator<Trace> + Send + Sync>
        })
        .collect();
    let sampler = inference::ExactPosterior::new(&models[0]).unwrap();
    let mut rng = StdRng::seed_from_u64(15);
    let initial = ParticleCollection::from_traces(sampler.samples(30_000, &mut rng));
    let config = SmcConfig {
        resample: ResamplePolicy::EssBelow(0.5),
        ..SmcConfig::default()
    };
    let run = run_state_sequence_supervised(
        &stages,
        &initial,
        0,
        &[],
        &[],
        &config,
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        15,
        1,
        None,
    )
    .unwrap();
    let estimate = run
        .last()
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
        .unwrap();
    let exact = Enumeration::run(&models[3])
        .unwrap()
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
    assert!(
        (estimate - exact).abs() < 0.02,
        "estimate {estimate} vs exact {exact}"
    );
}

/// Degeneracy monitoring: a huge model jump collapses the ESS, which the
/// paper says should be used "to detect when an incremental approach may
/// not be feasible".
#[test]
fn ess_detects_infeasible_translation() {
    let p = |h: &mut dyn Handler| {
        let x = h.sample(addr!["x"], Dist::normal(0.0, 1.0))?;
        h.observe(
            addr!["o"],
            Dist::normal(x.as_real()?, 1.0),
            Value::Real(0.0),
        )?;
        Ok(x)
    };
    // Q observes a wildly different value with a tight likelihood.
    let q = |h: &mut dyn Handler| {
        let x = h.sample(addr!["x"], Dist::normal(0.0, 1.0))?;
        h.observe(
            addr!["o"],
            Dist::normal(x.as_real()?, 0.05),
            Value::Real(8.0),
        )?;
        Ok(x)
    };
    let translator = CorrespondenceTranslator::new(p, q, Correspondence::identity_on(["x"]));
    let mut rng = StdRng::seed_from_u64(16);
    // Approximate P posterior by importance-weighted prior samples, then
    // resample to unweighted.
    let weighted = inference::likelihood_weighting(&p, 4_000, &mut rng).unwrap();
    let particles =
        incremental::resample(&weighted, incremental::ResampleScheme::Systematic, &mut rng)
            .unwrap();
    let adapted = infer(
        &translator,
        None,
        &particles,
        &SmcConfig::translate_only(),
        &mut rng,
    )
    .unwrap();
    let ess_fraction = adapted.ess() / adapted.len() as f64;
    assert!(
        ess_fraction < 0.05,
        "expected collapse, got ESS fraction {ess_fraction}"
    );
}
