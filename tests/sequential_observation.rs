//! Sequential-observation SMC as a special case of trace translation.
//!
//! The related-work section claims: "Our work generalizes the sequential
//! observation case studied in previous work" — conditioning on data one
//! batch at a time (the classic SMC-for-PPL setting of [19, 29, 37, 45])
//! is just a program sequence where each program observes a prefix of the
//! data, with the identity correspondence on the latents. This test
//! exercises that construction end to end on a Gaussian-mean model and
//! checks the result against the conjugate closed form.

use incremental::{
    infer, Correspondence, CorrespondenceTranslator, ParticleCollection, ResamplePolicy, SmcConfig,
};
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, Handler, PplError, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The model observing the first `n` data points: mu ~ N(0, 3), each
/// `y_i ~ N(mu, 1)`.
fn prefix_model(
    data: &[f64],
    n: usize,
) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> + Clone {
    let data: Vec<f64> = data[..n].to_vec();
    move |h: &mut dyn Handler| {
        let mu = h.sample(addr!["mu"], Dist::normal(0.0, 3.0))?;
        for (i, y) in data.iter().enumerate() {
            h.observe(
                addr!["y", i],
                Dist::normal(mu.as_real()?, 1.0),
                Value::Real(*y),
            )?;
        }
        Ok(mu)
    }
}

/// Conjugate posterior for the Gaussian mean.
fn exact_posterior(data: &[f64], prior_std: f64, noise_std: f64) -> (f64, f64) {
    let prior_prec = 1.0 / (prior_std * prior_std);
    let noise_prec = 1.0 / (noise_std * noise_std);
    let prec = prior_prec + data.len() as f64 * noise_prec;
    let mean = noise_prec * data.iter().sum::<f64>() / prec;
    (mean, 1.0 / prec)
}

#[test]
fn data_annealing_by_trace_translation() {
    // A fixed data set drawn around mu = 1.7.
    let data = [2.1, 1.4, 1.9, 1.2, 2.4, 1.5, 1.8, 2.0, 1.1, 1.6];
    let mut rng = StdRng::seed_from_u64(7);

    // The first stage observes nothing: prior samples ARE posterior samples.
    let m = 20_000;
    let initial_model = prefix_model(&data, 0);
    let traces: Vec<_> = (0..m)
        .map(|_| simulate(&initial_model, &mut rng).unwrap())
        .collect();
    let mut collection = ParticleCollection::from_traces(traces);

    // Observe the data two points at a time: each stage is a translator
    // from the (n)-observation program to the (n+2)-observation program
    // with the identity correspondence on mu.
    let config = SmcConfig {
        resample: ResamplePolicy::EssBelow(0.5),
        ..SmcConfig::default()
    };
    let mut n = 0;
    while n < data.len() {
        let next = (n + 2).min(data.len());
        let translator = CorrespondenceTranslator::new(
            prefix_model(&data, n),
            prefix_model(&data, next),
            Correspondence::identity_on(["mu"]),
        );
        collection = infer(&translator, None, &collection, &config, &mut rng).unwrap();
        n = next;
    }

    let (exact_mean, exact_var) = exact_posterior(&data, 3.0, 1.0);
    let mu = |t: &ppl::Trace| t.value(&addr!["mu"]).unwrap().as_real().unwrap();
    let est_mean = collection.estimate(mu).unwrap();
    let est_var = collection
        .estimate(|t| {
            let x = mu(t);
            x * x
        })
        .unwrap()
        - est_mean * est_mean;
    assert!(
        (est_mean - exact_mean).abs() < 0.05,
        "mean {est_mean} vs exact {exact_mean}"
    );
    assert!(
        (est_var - exact_var).abs() < 0.05,
        "var {est_var} vs exact {exact_var}"
    );
}

/// The same chain run in one shot (translate directly from prior to the
/// full-data program) suffers far worse degeneracy than the annealed
/// schedule — the reason sequential observation exists.
#[test]
fn annealing_beats_one_shot_in_ess() {
    let data = [2.1, 1.4, 1.9, 1.2, 2.4, 1.5, 1.8, 2.0, 1.1, 1.6];
    let m = 5_000;
    let mut rng = StdRng::seed_from_u64(8);
    let initial_model = prefix_model(&data, 0);
    let traces: Vec<_> = (0..m)
        .map(|_| simulate(&initial_model, &mut rng).unwrap())
        .collect();
    let initial = ParticleCollection::from_traces(traces);

    // One shot.
    let one_shot = CorrespondenceTranslator::new(
        prefix_model(&data, 0),
        prefix_model(&data, data.len()),
        Correspondence::identity_on(["mu"]),
    );
    let direct = infer(
        &one_shot,
        None,
        &initial,
        &SmcConfig::translate_only(),
        &mut rng,
    )
    .unwrap();

    // Annealed with resampling between stages.
    let config = SmcConfig {
        resample: ResamplePolicy::Always,
        ..SmcConfig::default()
    };
    let mut annealed = initial.clone();
    let mut n = 0;
    while n < data.len() {
        let next = (n + 2).min(data.len());
        let translator = CorrespondenceTranslator::new(
            prefix_model(&data, n),
            prefix_model(&data, next),
            Correspondence::identity_on(["mu"]),
        );
        annealed = infer(&translator, None, &annealed, &config, &mut rng).unwrap();
        n = next;
    }
    // After the final resample the annealed collection is unweighted;
    // compare the *distinct trace* count instead: a degenerate one-shot
    // run concentrates its weight on a handful of prior draws.
    let direct_ess = direct.ess();
    assert!(
        direct_ess < 0.25 * m as f64,
        "one-shot ESS {direct_ess} should be degenerate"
    );
    // The annealed posterior mean is still accurate.
    let mu = |t: &ppl::Trace| t.value(&addr!["mu"]).unwrap().as_real().unwrap();
    let (exact_mean, _) = {
        let prior_prec = 1.0 / 9.0;
        let prec = prior_prec + data.len() as f64;
        (data.iter().sum::<f64>() / prec, ())
    };
    let est = annealed.estimate(mu).unwrap();
    assert!(
        (est - exact_mean).abs() < 0.1,
        "annealed mean {est} vs exact {exact_mean}"
    );
}
