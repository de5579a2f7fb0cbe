//! Experiment FIG8: robust Bayesian linear regression (Section 7.2).
//!
//! Task: estimate the posterior mean of the slope in the robust model
//! `Q`, given exact conjugate posterior samples of the plain model `P`.
//! Methods: incremental inference (translate + weights), incremental
//! without weights, and from-scratch MCMC (a cycle of independent
//! Metropolis updates, the paper's baseline). The paper reports that
//! incremental inference gave 0.031 error at 0.043 s/estimate vs MCMC's
//! 0.19 error at 0.53 s/estimate — an order-of-magnitude runtime
//! advantage at better accuracy, with the no-weights variant converging
//! to the wrong value.

use std::time::Duration;

use incremental::CorrespondenceTranslator;
use incremental::{McmcKernel, ParticleCollection, StateTranslator};
use inference::stats::mean;
use inference::{GaussianDriftKernel, IndependentMetropolisCycle};
use models::data::hospital::HospitalData;
use models::regression::{
    addr_slope, exact_posterior_traces, regression_correspondence, LinRegModel, NoOutlierParams,
    OutlierParams, RobustRegModel,
};
use ppl::handlers::simulate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{fmt_duration, median_duration, timed, Table};

/// Configuration of the FIG8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Number of data points (paper: 305).
    pub data_points: usize,
    /// Outlier contamination fraction.
    pub outlier_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Replications per point (for error averaging and runtime medians).
    pub replications: usize,
    /// Trace counts for the incremental methods.
    pub incremental_m: Vec<usize>,
    /// Sweep counts for the MCMC baseline.
    pub mcmc_sweeps: Vec<usize>,
    /// Sweeps used for the gold-standard estimate.
    pub gold_sweeps: usize,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            data_points: 305,
            outlier_fraction: 0.08,
            seed: 2018,
            replications: 20,
            incremental_m: vec![5, 15, 50, 150],
            mcmc_sweeps: vec![1, 3, 10, 30, 100],
            gold_sweeps: 2000,
        }
    }
}

impl Fig8Config {
    /// A smaller configuration for tests and smoke runs.
    pub fn quick() -> Fig8Config {
        Fig8Config {
            data_points: 60,
            replications: 5,
            incremental_m: vec![10, 40],
            mcmc_sweeps: vec![2, 10],
            gold_sweeps: 400,
            ..Fig8Config::default()
        }
    }
}

/// One point on the Figure 8 error-vs-runtime plot.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Method name.
    pub method: &'static str,
    /// Work parameter (traces for incremental, sweeps for MCMC).
    pub work: usize,
    /// Median runtime per estimate.
    pub median_runtime: Duration,
    /// Average absolute error of the posterior-mean-slope estimate.
    pub avg_error: f64,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct Fig8Results {
    /// Gold-standard posterior mean slope (long MCMC run).
    pub gold_slope: f64,
    /// Ground-truth generating slope of the synthetic data.
    pub true_slope: f64,
    /// All method points.
    pub points: Vec<Fig8Point>,
}

fn slope_of(trace: &ppl::Trace) -> f64 {
    trace
        .value(&addr_slope())
        .expect("slope choice exists")
        .as_real()
        .expect("slope is real")
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on internal errors only (fixed valid models).
pub fn run(config: &Fig8Config) -> Fig8Results {
    let data = HospitalData::generate(config.data_points, config.outlier_fraction, config.seed);
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
    let translator = CorrespondenceTranslator::new(
        p_model.clone(),
        q_model.clone(),
        regression_correspondence(),
    );
    let kernel = IndependentMetropolisCycle::new(q_model.clone());

    // Gold standard: a long run of hand-tuned random-walk MH (the paper
    // uses "a hand-optimized MCMC algorithm as the gold-standard"),
    // initialized at the conjugate fit so burn-in is short.
    let gold_kernel = GaussianDriftKernel::new(q_model.clone(), 0.05);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD1CE);
    let mut chain = {
        let init = exact_posterior_traces(&p_model, 1, &mut rng).expect("conjugate");
        let mut constraints = init.particles()[0].trace.to_choice_map();
        constraints.remove(&models::regression::addr_y(0)); // keep only latents
        let mut map = ppl::ChoiceMap::new();
        for addr in [addr_slope(), models::regression::addr_intercept()] {
            if let Some(v) = constraints.get(&addr) {
                map.insert(addr.clone(), v.clone());
            }
        }
        ppl::handlers::generate(&q_model, &map, &mut rng)
            .expect("q generates")
            .0
    };
    let mut gold_samples = Vec::new();
    for i in 0..config.gold_sweeps {
        chain = gold_kernel.step(&chain, &mut rng).expect("kernel steps");
        if i >= config.gold_sweeps / 2 {
            gold_samples.push(slope_of(&chain));
        }
    }
    let gold_slope = mean(&gold_samples);

    let mut points = Vec::new();

    for &m in &config.incremental_m {
        for weights in [true, false] {
            let mut errors = Vec::new();
            let mut runtimes = Vec::new();
            for rep in 0..config.replications {
                let mut rng = StdRng::seed_from_u64(config.seed + 31 * rep as u64 + m as u64);
                let (estimate, elapsed) = timed(|| {
                    let particles =
                        exact_posterior_traces(&p_model, m, &mut rng).expect("conjugate");
                    estimate_slope(&translator, &particles, weights, &mut rng)
                });
                errors.push((estimate - gold_slope).abs());
                runtimes.push(elapsed);
            }
            points.push(Fig8Point {
                method: if weights {
                    "incremental"
                } else {
                    "incremental-no-weights"
                },
                work: m,
                median_runtime: median_duration(&runtimes),
                avg_error: mean(&errors),
            });
        }
    }

    for &sweeps in &config.mcmc_sweeps {
        let mut errors = Vec::new();
        let mut runtimes = Vec::new();
        for rep in 0..config.replications {
            let mut rng = StdRng::seed_from_u64(config.seed + 77 * rep as u64 + sweeps as u64);
            let (estimate, elapsed) = timed(|| {
                let mut chain = simulate(&q_model, &mut rng).expect("q simulates");
                let mut samples = Vec::new();
                for i in 0..sweeps {
                    chain = kernel.step(&chain, &mut rng).expect("kernel steps");
                    if i >= sweeps / 2 {
                        samples.push(slope_of(&chain));
                    }
                }
                mean(&samples)
            });
            errors.push((estimate - gold_slope).abs());
            runtimes.push(elapsed);
        }
        points.push(Fig8Point {
            method: "mcmc",
            work: sweeps,
            median_runtime: median_duration(&runtimes),
            avg_error: mean(&errors),
        });
    }

    Fig8Results {
        gold_slope,
        true_slope: data.true_slope,
        points,
    }
}

fn estimate_slope(
    translator: &dyn StateTranslator<ppl::Trace>,
    particles: &ParticleCollection,
    use_weights: bool,
    rng: &mut StdRng,
) -> f64 {
    if use_weights {
        let adapted = incremental::infer(
            translator,
            None,
            particles,
            &incremental::SmcConfig::translate_only(),
            rng,
        )
        .expect("translation succeeds");
        adapted.estimate(slope_of).unwrap_or(f64::NAN)
    } else {
        let adapted = incremental::infer_without_weights(translator, particles, rng)
            .expect("translation succeeds");
        adapted.estimate(slope_of).unwrap_or(f64::NAN)
    }
}

/// Renders the results.
pub fn render(r: &Fig8Results) -> String {
    let mut table = Table::new(
        "Figure 8: robust regression — average error vs median runtime per estimate",
        &["method", "work", "median runtime", "avg |error|"],
    );
    for p in &r.points {
        table.row(&[
            p.method.into(),
            p.work.to_string(),
            fmt_duration(p.median_runtime),
            format!("{:.4}", p.avg_error),
        ]);
    }
    format!(
        "gold-standard slope (long MCMC): {:.4}   data-generating slope: {:.4}\n\n{}",
        r.gold_slope,
        r.true_slope,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_the_paper_shape() {
        let r = run(&Fig8Config::quick());
        // The gold standard should land near the generating slope — the
        // robust model is designed to ignore the outliers.
        assert!(
            (r.gold_slope - r.true_slope).abs() < 0.25,
            "gold {} vs truth {}",
            r.gold_slope,
            r.true_slope
        );
        let best_incr = r
            .points
            .iter()
            .filter(|p| p.method == "incremental")
            .map(|p| p.avg_error)
            .fold(f64::INFINITY, f64::min);
        let worst_mcmc_fast = r
            .points
            .iter()
            .filter(|p| p.method == "mcmc" && p.work <= 2)
            .map(|p| p.avg_error)
            .fold(0.0, f64::max);
        // Incremental with enough traces beats the short-MCMC estimates.
        assert!(
            best_incr < worst_mcmc_fast + 1e-9,
            "incremental {best_incr} vs fast mcmc {worst_mcmc_fast}"
        );
        let rendered = render(&r);
        assert!(rendered.contains("Figure 8"));
    }
}
