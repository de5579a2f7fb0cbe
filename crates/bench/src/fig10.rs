//! Experiment FIG10: baseline vs optimized trace translation on the
//! Gaussian mixture model (Section 7.4).
//!
//! The edit changes the prior variance of the cluster centers. The
//! Section 5 baseline translator visits every trace element — `O(N + K)`
//! — while the Section 6 dependency-tracking translator only visits the
//! `K` cluster centers, so its translation time is flat in `N`.

use std::time::Duration;

use depgraph::{ExecGraph, IncrementalTranslator};
use incremental::{CorrespondenceTranslator, TraceTranslator};
use models::gmm::{gmm_correspondence, gmm_program};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{fmt_duration, median_duration, timed, Table};

/// Configuration of the FIG10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Data-point counts to sweep (the paper sweeps 1..1000 on a log
    /// axis).
    pub ns: Vec<usize>,
    /// Number of clusters (paper: 10).
    pub k: usize,
    /// Prior std before the edit.
    pub sigma_before: f64,
    /// Prior std after the edit.
    pub sigma_after: f64,
    /// Timing repetitions per point.
    pub reps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            ns: vec![1, 3, 10, 32, 100, 316, 1000],
            k: 10,
            sigma_before: 10.0,
            sigma_after: 20.0,
            reps: 20,
            seed: 7,
        }
    }
}

impl Fig10Config {
    /// Smaller configuration for tests.
    pub fn quick() -> Fig10Config {
        Fig10Config {
            ns: vec![10, 100, 400],
            reps: 5,
            ..Fig10Config::default()
        }
    }
}

/// One point on the Figure 10 plot.
#[derive(Debug, Clone)]
pub struct Fig10Point {
    /// Number of data points.
    pub n: usize,
    /// Median translation time of the Section 5 baseline.
    pub baseline: Duration,
    /// Median translation time of the Section 6 optimized translator.
    pub optimized: Duration,
    /// Statement instances the optimized translator re-executed.
    pub visited: usize,
    /// Statement instances (or loop regions) it skipped.
    pub skipped: usize,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on internal errors only.
pub fn run(config: &Fig10Config) -> Vec<Fig10Point> {
    let mut points = Vec::new();
    for &n in &config.ns {
        let p = gmm_program(config.sigma_before, n, config.k);
        let q = gmm_program(config.sigma_after, n, config.k);
        let baseline = CorrespondenceTranslator::new(p.clone(), q.clone(), gmm_correspondence());
        let optimized = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let mut rng = StdRng::seed_from_u64(config.seed + n as u64);
        let graph = ExecGraph::simulate(&p, &mut rng).expect("gmm simulates");
        let trace = graph.to_trace().expect("graph flattens");

        let mut base_times = Vec::with_capacity(config.reps);
        let mut opt_times = Vec::with_capacity(config.reps);
        let mut visited = 0;
        let mut skipped = 0;
        for _ in 0..config.reps {
            let (_, d) = timed(|| baseline.translate(&trace, &mut rng).expect("translates"));
            base_times.push(d);
            let (result, d) = timed(|| {
                optimized
                    .translate_graph(&graph, &mut rng)
                    .expect("translates")
            });
            opt_times.push(d);
            visited = result.stats.visited;
            skipped = result.stats.skipped;
        }
        points.push(Fig10Point {
            n,
            baseline: median_duration(&base_times),
            optimized: median_duration(&opt_times),
            visited,
            skipped,
        });
    }
    points
}

/// Renders the results.
pub fn render(points: &[Fig10Point]) -> String {
    let mut table = Table::new(
        "Figure 10: translation time vs number of data points (K = 10)",
        &[
            "N",
            "baseline (Sec. 5)",
            "optimized (Sec. 6)",
            "speedup",
            "visited",
            "skipped",
        ],
    );
    for p in points {
        let speedup = p.baseline.as_secs_f64() / p.optimized.as_secs_f64().max(1e-12);
        table.row(&[
            p.n.to_string(),
            fmt_duration(p.baseline),
            fmt_duration(p.optimized),
            format!("{speedup:.1}x"),
            p.visited.to_string(),
            p.skipped.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_translation_is_flat_in_n() {
        let r = run(&Fig10Config::quick());
        assert_eq!(r.len(), 3);
        // Visited counts are exactly N-independent.
        assert!(r.windows(2).all(|w| w[0].visited == w[1].visited));
        // Baseline time grows with N (N=400 vs N=10 should differ by a
        // lot more than the optimized times do).
        let base_growth =
            r.last().unwrap().baseline.as_secs_f64() / r[0].baseline.as_secs_f64().max(1e-12);
        let opt_growth =
            r.last().unwrap().optimized.as_secs_f64() / r[0].optimized.as_secs_f64().max(1e-12);
        assert!(
            base_growth > 3.0 * opt_growth,
            "baseline growth {base_growth} vs optimized growth {opt_growth}"
        );
        // At the largest N, the optimized translator wins clearly.
        let last = r.last().unwrap();
        assert!(
            last.optimized < last.baseline,
            "optimized {:?} vs baseline {:?} at N = {}",
            last.optimized,
            last.baseline,
            last.n
        );
        assert!(render(&r).contains("Figure 10"));
    }
}
