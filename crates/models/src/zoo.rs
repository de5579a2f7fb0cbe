//! A zoo of classic discrete models (the "classic program" family the
//! paper's Section 2 draws from [7, 17, 22, 36]), useful for exercising
//! exact enumeration, translators, and the error decomposition on
//! well-understood posteriors.

use incremental::Correspondence;
use ppl::dist::Dist;
use ppl::{addr, Handler, PplError, Value};

/// The sprinkler/wet-grass network: rain and a sprinkler both wet the
/// grass; conditioning on wet grass "explains away".
///
/// Choices: `rain`, `sprinkler`; observation `grass`. The small leak in
/// the (no rain, no sprinkler) case matters for incremental inference:
/// without it that configuration has zero posterior mass under this
/// model, and a translator into any refinement that *can* explain wet
/// grass another way (e.g. [`sprinkler_with_hose`]) cannot reach part of
/// the refined posterior — ε(R) is infinite (see the
/// `leak_free_prior_makes_translator_error_infinite` test).
pub fn sprinkler(h: &mut dyn Handler) -> Result<Value, PplError> {
    let rain = h.sample(addr!["rain"], Dist::flip(0.2))?;
    let p_sprinkler = if rain.truthy()? { 0.01 } else { 0.4 };
    let sprinkler = h.sample(addr!["sprinkler"], Dist::flip(p_sprinkler))?;
    let p_wet = match (rain.truthy()?, sprinkler.truthy()?) {
        (true, true) => 0.99,
        (true, false) => 0.8,
        (false, true) => 0.9,
        (false, false) => 0.02,
    };
    h.observe(addr!["grass"], Dist::flip(p_wet), Value::Bool(true))?;
    Ok(rain)
}

/// [`sprinkler`] without the leak: wet grass is impossible without a
/// cause. Used to demonstrate the unreachable-posterior diagnostic.
pub fn sprinkler_leak_free(h: &mut dyn Handler) -> Result<Value, PplError> {
    let rain = h.sample(addr!["rain"], Dist::flip(0.2))?;
    let p_sprinkler = if rain.truthy()? { 0.01 } else { 0.4 };
    let sprinkler = h.sample(addr!["sprinkler"], Dist::flip(p_sprinkler))?;
    let p_wet = match (rain.truthy()?, sprinkler.truthy()?) {
        (true, true) => 0.99,
        (true, false) => 0.8,
        (false, true) => 0.9,
        (false, false) => 0.0,
    };
    h.observe(addr!["grass"], Dist::flip(p_wet), Value::Bool(true))?;
    Ok(rain)
}

/// A refinement of [`sprinkler`] that adds a third cause (a garden hose
/// left running) — the same model-refinement shape as Figure 1.
pub fn sprinkler_with_hose(h: &mut dyn Handler) -> Result<Value, PplError> {
    let rain = h.sample(addr!["rain"], Dist::flip(0.2))?;
    let p_sprinkler = if rain.truthy()? { 0.01 } else { 0.4 };
    let sprinkler = h.sample(addr!["sprinkler"], Dist::flip(p_sprinkler))?;
    let hose = h.sample(addr!["hose"], Dist::flip(0.05))?;
    let causes =
        u8::from(rain.truthy()?) + u8::from(sprinkler.truthy()?) + u8::from(hose.truthy()?);
    let p_wet = match causes {
        0 => 0.0,
        1 => 0.85,
        2 => 0.97,
        _ => 0.995,
    };
    h.observe(addr!["grass"], Dist::flip(p_wet), Value::Bool(true))?;
    Ok(rain)
}

/// The correspondence for the sprinkler refinement: rain and sprinkler
/// carry over, the hose is new.
pub fn sprinkler_correspondence() -> Correspondence {
    Correspondence::identity_on(["rain", "sprinkler"])
}

/// A noisy-OR network with `k` independent causes of one effect: cause
/// `i` fires with probability `priors[i]` and, when active, triggers the
/// effect with probability `strengths[i]`; the effect also has a leak
/// probability. The effect is observed true.
///
/// Choices: `cause/i`; observation `effect`.
#[derive(Debug, Clone)]
pub struct NoisyOr {
    /// Prior activation probability of each cause.
    pub priors: Vec<f64>,
    /// Per-cause trigger strength.
    pub strengths: Vec<f64>,
    /// Leak probability (effect with no active cause).
    pub leak: f64,
}

impl ppl::Model for NoisyOr {
    fn exec(&self, h: &mut dyn Handler) -> Result<Value, PplError> {
        let mut p_not_effect = 1.0 - self.leak;
        let mut active = Vec::with_capacity(self.priors.len());
        for (i, (prior, strength)) in self.priors.iter().zip(&self.strengths).enumerate() {
            let cause = h.sample(addr!["cause", i], Dist::flip(*prior))?;
            if cause.truthy()? {
                p_not_effect *= 1.0 - strength;
            }
            active.push(cause);
        }
        h.observe(
            addr!["effect"],
            Dist::flip(1.0 - p_not_effect),
            Value::Bool(true),
        )?;
        Ok(Value::array(active))
    }
}

/// A two-component mixture with explicit assignment variables — the
/// discrete cousin of the GMM of Listing 5.
///
/// Choices: `weight`-ish `bias/0`, `bias/1` (component biases, discretized
/// by `levels`), and per-point assignments `z/i`; observations `y/i`.
#[derive(Debug, Clone)]
pub struct DiscreteMixture {
    /// Observed binary data.
    pub data: Vec<bool>,
    /// Number of discrete bias levels per component (bias `ℓ` means
    /// success probability `(ℓ+1)/(levels+1)`).
    pub levels: i64,
}

impl ppl::Model for DiscreteMixture {
    fn exec(&self, h: &mut dyn Handler) -> Result<Value, PplError> {
        let mut biases = [0.0; 2];
        for (c, slot) in biases.iter_mut().enumerate() {
            let level = h
                .sample(addr!["bias", c], Dist::uniform_int(0, self.levels - 1))?
                .as_int()?;
            *slot = (level + 1) as f64 / (self.levels + 1) as f64;
        }
        for (i, y) in self.data.iter().enumerate() {
            let z = h.sample(addr!["z", i], Dist::flip(0.5))?;
            let bias = biases[usize::from(z.truthy()?)];
            h.observe(addr!["y", i], Dist::flip(bias), Value::Bool(*y))?;
        }
        Ok(Value::Real(biases[1] - biases[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incremental::{translator_error, CorrespondenceTranslator, StateTranslator};
    use inference::ExactPosterior;
    use ppl::{Enumeration, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rains(t: &Trace) -> bool {
        t.value(&addr!["rain"]).unwrap().truthy().unwrap()
    }

    #[test]
    fn sprinkler_explaining_away() {
        let e = Enumeration::run(&sprinkler).unwrap();
        let p_rain_given_wet = e.probability(rains);
        // Conditioning further on the sprinkler being ON lowers the rain
        // probability (explaining away).
        let p_rain_and_sprinkler =
            e.probability(|t| rains(t) && t.value(&addr!["sprinkler"]).unwrap().truthy().unwrap());
        let p_sprinkler =
            e.probability(|t| t.value(&addr!["sprinkler"]).unwrap().truthy().unwrap());
        let p_rain_given_wet_and_sprinkler = p_rain_and_sprinkler / p_sprinkler;
        assert!(
            p_rain_given_wet_and_sprinkler < p_rain_given_wet,
            "{p_rain_given_wet_and_sprinkler} !< {p_rain_given_wet}"
        );
        // And both beat the prior.
        assert!(p_rain_given_wet > 0.2);
    }

    #[test]
    fn sprinkler_refinement_translates() {
        let translator = CorrespondenceTranslator::new(
            sprinkler,
            sprinkler_with_hose,
            sprinkler_correspondence(),
        );
        let exact = Enumeration::run(&sprinkler_with_hose)
            .unwrap()
            .probability(rains);
        let sampler = ExactPosterior::new(&sprinkler).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let particles =
            incremental::ParticleCollection::from_traces(sampler.samples(60_000, &mut rng));
        let adapted = incremental::infer(
            &translator,
            None,
            &particles,
            &incremental::SmcConfig::translate_only(),
            &mut rng,
        )
        .unwrap();
        let estimate = adapted.probability(rains).unwrap();
        assert!(
            (estimate - exact).abs() < 0.02,
            "estimate {estimate} vs exact {exact}"
        );
        // The error decomposition holds (and is finite thanks to the
        // leak in the base model).
        let report = translator_error(
            &sprinkler,
            &sprinkler_with_hose,
            &sprinkler_correspondence(),
        )
        .unwrap();
        assert!(report.epsilon.is_finite(), "{report:?}");
        assert!(
            (report.epsilon - report.decomposition_sum()).abs() < 1e-9,
            "{report:?}"
        );
    }

    /// Without the leak, (rain=F, sprinkler=F) is impossible under P's
    /// posterior, so the translator can never produce the refined traces
    /// where only the hose explains the wet grass: ε(R) = ∞, the exact
    /// diagnostic that "an incremental approach may not be feasible".
    #[test]
    fn leak_free_prior_makes_translator_error_infinite() {
        let report = translator_error(
            &sprinkler_leak_free,
            &sprinkler_with_hose,
            &sprinkler_correspondence(),
        )
        .unwrap();
        assert!(report.epsilon.is_infinite(), "{report:?}");
        assert!(report.output_divergence.is_infinite());
    }

    #[test]
    fn noisy_or_posterior_prefers_strong_causes() {
        let model = NoisyOr {
            priors: vec![0.1, 0.1],
            strengths: vec![0.95, 0.3],
            leak: 0.01,
        };
        let e = Enumeration::run(&model).unwrap();
        let p0 = e.probability(|t| t.value(&addr!["cause", 0]).unwrap().truthy().unwrap());
        let p1 = e.probability(|t| t.value(&addr!["cause", 1]).unwrap().truthy().unwrap());
        assert!(p0 > p1, "strong cause {p0} should beat weak cause {p1}");
        assert!(p0 > 0.1, "posterior should exceed the prior");
    }

    #[test]
    fn noisy_or_strength_edit_translates_with_exact_weight() {
        let p = NoisyOr {
            priors: vec![0.1, 0.2, 0.15],
            strengths: vec![0.9, 0.5, 0.7],
            leak: 0.05,
        };
        let q = NoisyOr {
            priors: vec![0.1, 0.2, 0.15],
            strengths: vec![0.9, 0.8, 0.7],
            leak: 0.05,
        };
        let corr = Correspondence::identity_on(["cause"]);
        let translator = CorrespondenceTranslator::new(p.clone(), q.clone(), corr.clone());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let t = ppl::handlers::simulate(&p, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            let oracle = incremental::exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
            assert!((w.log() - oracle.log()).abs() < 1e-9);
        }
    }

    #[test]
    fn discrete_mixture_recovers_separation() {
        // Data from a well-separated mixture: mostly-true and
        // mostly-false halves.
        let data = vec![
            true, true, true, true, false, false, false, false, true, false,
        ];
        let model = DiscreteMixture { data, levels: 4 };
        let e = Enumeration::run(&model).unwrap();
        // The posterior mean absolute bias separation is positive.
        let sep = e.expectation(|t| t.return_value().unwrap().as_real().unwrap().abs());
        assert!(sep > 0.2, "separation {sep}");
        assert!(e.z() > 0.0);
    }
}
