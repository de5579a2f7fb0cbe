//! Experiment FIG1: the Figure 1 burglary example — prior/posterior bar
//! values, the worked translation weight ≈ 1.19, end-to-end incremental
//! inference, and the exact translator error of the refinement.

use incremental::{
    infer, translator_error, Correspondence, CorrespondenceTranslator, ParticleCollection,
    SmcConfig, StateTranslator,
};
use inference::ExactPosterior;
use models::burglary;
use ppl::dist::Dist;
use ppl::{addr, Enumeration, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Table;

/// All numbers reported by the FIG1 experiment.
#[derive(Debug, Clone)]
pub struct Fig1Results {
    /// Prior P(burglary=1) in the original model (paper: 2%).
    pub original_prior: f64,
    /// Posterior P(burglary=1) in the original model (paper: 20.5%).
    pub original_posterior: f64,
    /// Prior P(burglary=1) in the refined model (paper: 2%).
    pub refined_prior: f64,
    /// Posterior P(burglary=1) in the refined model (paper: 19.4%).
    pub refined_posterior: f64,
    /// The worked weight for t = [α↦1, β↦1] with γ'↦1 (paper: ≈1.19).
    pub showcased_weight: f64,
    /// Incremental estimate of the refined posterior from translated
    /// traces.
    pub incremental_estimate: f64,
    /// Number of traces used for the incremental estimate.
    pub num_traces: usize,
    /// Exact translator error ε(R) of the refinement edit.
    pub translator_epsilon: f64,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics only on internal errors (the models are fixed and valid).
pub fn run(num_traces: usize, seed: u64) -> Fig1Results {
    let e_p = Enumeration::run(&burglary::original).expect("finite model");
    let e_q = Enumeration::run(&burglary::refined).expect("finite model");
    let burgled = |t: &Trace| t.return_value().unwrap().truthy().unwrap();

    // The worked example: force the paper's showcased input trace and an
    // earthquake outcome.
    let showcased_weight = showcased_translation_weight(seed);

    // End-to-end: exact posterior samples of P, translated to Q.
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ExactPosterior::new(&burglary::original).expect("finite model");
    let particles = ParticleCollection::from_traces(sampler.samples(num_traces, &mut rng));
    let translator = CorrespondenceTranslator::new(
        burglary::original,
        burglary::refined,
        burglary::correspondence(),
    );
    let adapted = infer(
        &translator,
        None,
        &particles,
        &SmcConfig::translate_only(),
        &mut rng,
    )
    .expect("translation succeeds");
    let incremental_estimate = adapted.probability(burgled).expect("non-degenerate");

    let report = translator_error(
        &burglary::original,
        &burglary::refined,
        &burglary::correspondence(),
    )
    .expect("finite models");

    Fig1Results {
        original_prior: e_p.prior_probability(burgled),
        original_posterior: e_p.probability(burgled),
        refined_prior: e_q.prior_probability(burgled),
        refined_posterior: e_q.probability(burgled),
        showcased_weight,
        incremental_estimate,
        num_traces,
        translator_epsilon: report.epsilon,
    }
}

/// Translates the paper's showcased trace `t = [α ↦ 1, β ↦ 1]` until the
/// sampled earthquake variable comes up 1 and returns that weight.
fn showcased_translation_weight(seed: u64) -> f64 {
    let mut t = Trace::new();
    for (name, p) in [("alpha", 0.02), ("beta", 0.9)] {
        let d = Dist::flip(p);
        let lp = d.log_prob(&Value::Bool(true));
        t.record_choice(addr![name], Value::Bool(true), d, lp)
            .expect("fresh addresses");
    }
    let d = Dist::flip(0.8);
    let lp = d.log_prob(&Value::Bool(true));
    t.record_observation(addr!["o"], Value::Bool(true), d, lp)
        .expect("fresh address");
    let translator = CorrespondenceTranslator::new(
        burglary::original,
        burglary::refined,
        burglary::correspondence(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..100_000 {
        let (u, w) = translator.translate(&t, &mut rng).expect("translates");
        if u.value(&addr!["gamma_"])
            .expect("earthquake choice exists")
            .truthy()
            .unwrap()
        {
            return w.prob();
        }
    }
    unreachable!("flip(0.005) surely fires within 100k attempts")
}

/// Renders the results as tables.
pub fn render(r: &Fig1Results) -> String {
    let mut bars = Table::new(
        "Figure 1: prior/posterior of burglary (paper: 2%/20.5% and 2%/19.4%)",
        &["model", "prior P(b=1)", "posterior P(b=1)"],
    );
    bars.row(&[
        "original".into(),
        format!("{:.4}", r.original_prior),
        format!("{:.4}", r.original_posterior),
    ]);
    bars.row(&[
        "refined".into(),
        format!("{:.4}", r.refined_prior),
        format!("{:.4}", r.refined_posterior),
    ]);
    let mut xlate = Table::new(
        "Figure 1: trace translation",
        &["quantity", "value", "paper"],
    );
    xlate.row(&[
        "weight of showcased trace".into(),
        format!("{:.4}", r.showcased_weight),
        "~1.19".into(),
    ]);
    xlate.row(&[
        format!("incremental estimate ({} traces)", r.num_traces),
        format!("{:.4}", r.incremental_estimate),
        format!("{:.4} (exact)", r.refined_posterior),
    ]);
    xlate.row(&[
        "translator error eps(R)".into(),
        format!("{:.6}", r.translator_epsilon),
        "-".into(),
    ]);
    format!("{}\n{}", bars.render(), xlate.render())
}

/// An `unused` helper so the correspondence type appears in the public
/// API surface of this module for documentation purposes.
pub fn correspondence() -> Correspondence {
    burglary::correspondence()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_paper_numbers() {
        let r = run(4000, 7);
        assert!((r.original_prior - 0.02).abs() < 1e-9);
        assert!((r.refined_prior - 0.02).abs() < 1e-9);
        assert!((r.original_posterior - 0.205).abs() < 5e-4);
        assert!((r.refined_posterior - 0.194).abs() < 5e-4);
        assert!((r.showcased_weight - 1.1875).abs() < 1e-6);
        assert!(
            (r.incremental_estimate - r.refined_posterior).abs() < 0.03,
            "estimate {} vs exact {}",
            r.incremental_estimate,
            r.refined_posterior
        );
        // ε(R) ≈ 0.207 for the earthquake refinement: mostly the
        // forward-sampling term (the fresh earthquake variable influences
        // the observation), plus a small semantic term.
        assert!((r.translator_epsilon - 0.2074).abs() < 1e-3);
        let rendered = render(&r);
        assert!(rendered.contains("Figure 1"));
    }
}
