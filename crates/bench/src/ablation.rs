//! Ablation studies beyond the paper's headline figures:
//!
//! 1. **Error vs sample size** (Appendix B): the number of translated
//!    traces needed for a target accuracy grows approximately
//!    exponentially in the translator error ε(R). We compute ε(R) exactly
//!    for a family of increasingly divergent targets and measure the
//!    empirical trace count needed.
//! 2. **Resampling schemes** (Section 4.2 footnote): estimator spread of
//!    multinomial vs systematic vs stratified vs residual resampling over
//!    a program sequence.

use incremental::{
    infer, resample, translator_error, Correspondence, CorrespondenceTranslator,
    ParticleCollection, ResampleScheme, SmcConfig,
};
use inference::stats::{mean, std_dev};
use inference::ExactPosterior;
use ppl::dist::Dist;
use ppl::{addr, Enumeration, Handler, PplError, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Table;

fn obs_model(q: f64) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> + Clone {
    move |h: &mut dyn Handler| {
        let x = h.sample(addr!["x"], Dist::flip(0.5))?;
        let po = if x.truthy()? { q } else { 1.0 - q };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        Ok(x)
    }
}

/// One row of the ε-vs-sample-efficiency ablation.
#[derive(Debug, Clone)]
pub struct EpsilonRow {
    /// Target observation strength.
    pub q: f64,
    /// Exact translator error ε(R).
    pub epsilon: f64,
    /// Average `ESS / M` of the translated weights: the fraction of
    /// traces that remain effective. Appendix B says the necessary sample
    /// size grows approximately exponentially in ε(R), i.e. this fraction
    /// decays with ε.
    pub ess_fraction: f64,
    /// `M / ESS`: the sample-size inflation factor relative to a perfect
    /// translator.
    pub inflation: f64,
}

/// Runs the ε(R)-vs-sample-efficiency ablation: `P` fixes `q = 0.6`;
/// targets sweep `q` upward, increasing the divergence; for each target
/// the exact ε(R) is computed and the ESS of `m` translated traces is
/// measured.
///
/// # Panics
///
/// Panics on internal errors only.
pub fn epsilon_vs_samples(seed: u64, m: usize, replications: usize) -> Vec<EpsilonRow> {
    let p_model = obs_model(0.6);
    let mut rows = Vec::new();
    for q in [0.6, 0.7, 0.8, 0.9, 0.97] {
        let q_model = obs_model(q);
        let corr = Correspondence::identity_on(["x"]);
        let report = translator_error(&p_model, &q_model, &corr).expect("finite models");
        let translator = CorrespondenceTranslator::new(p_model.clone(), q_model.clone(), corr);
        let sampler = ExactPosterior::new(&p_model).expect("finite");
        let mut fractions = Vec::new();
        for rep in 0..replications {
            let mut rng = StdRng::seed_from_u64(seed + rep as u64 * 7919);
            let particles = ParticleCollection::from_traces(sampler.samples(m, &mut rng));
            let adapted = infer(
                &translator,
                None,
                &particles,
                &SmcConfig::translate_only(),
                &mut rng,
            )
            .expect("translates");
            fractions.push(adapted.ess() / m as f64);
        }
        let ess_fraction = mean(&fractions);
        rows.push(EpsilonRow {
            q,
            epsilon: report.epsilon,
            ess_fraction,
            inflation: 1.0 / ess_fraction.max(1e-12),
        });
    }
    rows
}

/// Renders the ε ablation.
pub fn render_epsilon(rows: &[EpsilonRow]) -> String {
    let mut table = Table::new(
        "Ablation: translator error eps(R) vs effective-sample-size fraction",
        &["target q", "eps(R)", "ESS / M", "inflation M/ESS"],
    );
    for r in rows {
        table.row(&[
            format!("{:.2}", r.q),
            format!("{:.4}", r.epsilon),
            format!("{:.3}", r.ess_fraction),
            format!("{:.2}x", r.inflation),
        ]);
    }
    table.render()
}

/// One row of the fresh-proposal ablation.
#[derive(Debug, Clone)]
pub struct ProposalRow {
    /// Whether the smart proposal was used.
    pub smart: bool,
    /// Average ESS fraction across replications.
    pub ess_fraction: f64,
    /// Average absolute error of `E[y | data]`.
    pub avg_error: f64,
}

/// Ablation of the `FreshProposal` hook (the paper's future-work item):
/// `Q` adds a tightly observed continuous latent; sampling it from the
/// prior collapses the ESS, while the conjugate conditional keeps the
/// collection fully effective. Returns `(exact posterior mean, rows)`.
///
/// # Panics
///
/// Panics on internal errors only.
pub fn fresh_proposal_ablation(
    seed: u64,
    m: usize,
    replications: usize,
) -> (f64, Vec<ProposalRow>) {
    use incremental::StateTranslator;
    let p = obs_model(0.6);
    let q = |h: &mut dyn Handler| -> Result<Value, PplError> {
        let x = h.sample(addr!["x"], Dist::flip(0.5))?;
        let po = if x.truthy()? { 0.6 } else { 0.4 };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        let y = h.sample(addr!["y"], Dist::normal(0.0, 5.0))?;
        h.observe(
            addr!["oy"],
            Dist::normal(y.as_real()?, 0.2),
            Value::Real(3.0),
        )?;
        Ok(x)
    };
    // Conjugate posterior of y.
    let post_var = 1.0 / (1.0 / 25.0 + 1.0 / 0.04);
    let post_mean = 3.0 * post_var / 0.04;
    let corr = || Correspondence::identity_on(["x"]);
    let sampler = ExactPosterior::new(&p).expect("finite");
    let mut rows = Vec::new();
    for smart in [false, true] {
        let base = CorrespondenceTranslator::new(p.clone(), q, corr());
        let translator = if smart {
            base.with_fresh_proposal(move |a: &ppl::Address, _prior: &Dist, _old: &ppl::Trace| {
                if *a == addr!["y"] {
                    Some(Dist::normal(post_mean, post_var.sqrt()))
                } else {
                    None
                }
            })
        } else {
            base
        };
        let mut fractions = Vec::new();
        let mut errors = Vec::new();
        for rep in 0..replications {
            let mut rng = StdRng::seed_from_u64(seed + 31 * rep as u64 + smart as u64);
            let particles = ParticleCollection::from_traces(sampler.samples(m, &mut rng));
            let mut adapted = ParticleCollection::new();
            for particle in particles.iter() {
                let (u, w) = translator
                    .translate(&particle.trace, &mut rng)
                    .expect("translates");
                adapted.push(u, w);
            }
            fractions.push(adapted.ess() / m as f64);
            let ey = adapted
                .estimate(|t| t.value(&addr!["y"]).unwrap().as_real().unwrap())
                .unwrap_or(f64::NAN);
            errors.push((ey - post_mean).abs());
        }
        rows.push(ProposalRow {
            smart,
            ess_fraction: mean(&fractions),
            avg_error: mean(&errors),
        });
    }
    (post_mean, rows)
}

/// Renders the proposal ablation.
pub fn render_proposals(exact_mean: f64, rows: &[ProposalRow]) -> String {
    let mut table = Table::new(
        "Ablation: fresh-choice proposals (paper future work) — ESS and accuracy",
        &["proposal", "ESS / M", "avg |E[y] error|", "exact E[y]"],
    );
    for r in rows {
        table.row(&[
            if r.smart {
                "conjugate conditional"
            } else {
                "prior (paper default)"
            }
            .into(),
            format!("{:.3}", r.ess_fraction),
            format!("{:.4}", r.avg_error),
            format!("{exact_mean:.4}"),
        ]);
    }
    table.render()
}

/// One row of the resampling-scheme ablation.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// The scheme.
    pub scheme: ResampleScheme,
    /// Mean final estimate across replications.
    pub mean_estimate: f64,
    /// Standard deviation of the final estimate across replications.
    pub spread: f64,
}

/// Compares resampling schemes on a two-step program sequence.
///
/// # Panics
///
/// Panics on internal errors only.
pub fn resampling_schemes(seed: u64, m: usize, replications: usize) -> (f64, Vec<SchemeRow>) {
    let p = obs_model(0.6);
    let mid = obs_model(0.8);
    let q = obs_model(0.95);
    let exact = Enumeration::run(&q)
        .unwrap()
        .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
    let corr = || Correspondence::identity_on(["x"]);
    let t1 = CorrespondenceTranslator::new(p.clone(), mid.clone(), corr());
    let t2 = CorrespondenceTranslator::new(mid.clone(), q.clone(), corr());
    let sampler = ExactPosterior::new(&p).expect("finite");
    let mut rows = Vec::new();
    for scheme in [
        ResampleScheme::Multinomial,
        ResampleScheme::Systematic,
        ResampleScheme::Stratified,
        ResampleScheme::Residual,
    ] {
        let mut estimates = Vec::new();
        for rep in 0..replications {
            let mut rng = StdRng::seed_from_u64(seed + rep as u64);
            let particles = ParticleCollection::from_traces(sampler.samples(m, &mut rng));
            let step1 = infer(
                &t1,
                None,
                &particles,
                &SmcConfig::translate_only(),
                &mut rng,
            )
            .expect("translates");
            let resampled = resample(&step1, scheme, &mut rng).expect("resamples");
            let step2 = infer(
                &t2,
                None,
                &resampled,
                &SmcConfig::translate_only(),
                &mut rng,
            )
            .expect("translates");
            estimates.push(
                step2
                    .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
                    .unwrap_or(f64::NAN),
            );
        }
        rows.push(SchemeRow {
            scheme,
            mean_estimate: mean(&estimates),
            spread: std_dev(&estimates),
        });
    }
    (exact, rows)
}

/// Renders the resampling ablation.
pub fn render_schemes(exact: f64, rows: &[SchemeRow]) -> String {
    let mut table = Table::new(
        "Ablation: resampling schemes over a 2-step program sequence",
        &["scheme", "mean estimate", "spread (std)", "exact"],
    );
    for r in rows {
        table.row(&[
            format!("{:?}", r.scheme),
            format!("{:.4}", r.mean_estimate),
            format!("{:.4}", r.spread),
            format!("{exact:.4}"),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_grows_with_divergence_and_costs_samples() {
        let rows = epsilon_vs_samples(11, 2000, 6);
        // ε increases along the q sweep.
        for w in rows.windows(2) {
            assert!(
                w[1].epsilon >= w[0].epsilon - 1e-12,
                "eps not monotone: {:?}",
                rows
            );
        }
        // The identity translator keeps all traces effective; divergent
        // targets lose effective sample size monotonically (within noise).
        assert!(
            (rows[0].ess_fraction - 1.0).abs() < 1e-9,
            "identity ESS fraction {}",
            rows[0].ess_fraction
        );
        for w in rows.windows(2) {
            assert!(
                w[1].ess_fraction <= w[0].ess_fraction + 0.02,
                "ESS fraction not decaying: {rows:?}"
            );
        }
        assert!(
            rows.last().unwrap().inflation > 1.2,
            "most divergent target should inflate the needed sample size: {rows:?}"
        );
        assert!(render_epsilon(&rows).contains("eps(R)"));
    }

    #[test]
    fn smart_proposal_dominates_prior_proposal() {
        let (_, rows) = fresh_proposal_ablation(19, 600, 4);
        let prior = rows.iter().find(|r| !r.smart).unwrap();
        let smart = rows.iter().find(|r| r.smart).unwrap();
        assert!(smart.ess_fraction > 0.9, "{rows:?}");
        assert!(prior.ess_fraction < 0.3, "{rows:?}");
        assert!(smart.avg_error < prior.avg_error, "{rows:?}");
        assert!(render_proposals(3.0, &rows).contains("conjugate"));
    }

    #[test]
    fn all_schemes_are_unbiased_and_low_variance_beats_multinomial() {
        let (exact, rows) = resampling_schemes(13, 400, 40);
        for r in &rows {
            assert!(
                (r.mean_estimate - exact).abs() < 0.05,
                "{:?} biased: {} vs {exact}",
                r.scheme,
                r.mean_estimate
            );
        }
        assert!(render_schemes(exact, &rows).contains("Multinomial"));
    }
}
