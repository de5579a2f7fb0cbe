//! Incremental translation under a program edit (Section 6): change a
//! hyperparameter of the Gaussian mixture program (Listing 5) and
//! translate the trace by propagating the change through the dependency
//! graph — visiting only the cluster centers, not the data points.
//!
//! Run with: `cargo run --release --example gmm_edit`

use depgraph::{ExecGraph, IncrementalTranslator};
use incremental_ppl::prelude::*;
use models::gmm::{gmm_correspondence, gmm_program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<(), PplError> {
    let (n, k) = (1_000, 10);
    let p = gmm_program(10.0, n, k);
    let q = gmm_program(20.0, n, k); // the edit: prior std 10 -> 20

    let mut rng = StdRng::seed_from_u64(3);
    let graph = ExecGraph::simulate(&p, &mut rng)?;
    println!(
        "trace of P has {} random choices (K={k} centers + 2N={})",
        graph.num_choices(),
        2 * n
    );

    // Section 6: diff the programs, derive the correspondence, propagate.
    let optimized = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let start = Instant::now();
    let result = optimized.translate_graph(&graph, &mut rng)?;
    let optimized_time = start.elapsed();
    println!(
        "optimized translation: visited {} statements, skipped {}, log-weight {:.4}, {:?}",
        result.stats.visited,
        result.stats.skipped,
        result.log_weight.log(),
        optimized_time
    );

    // Section 5 baseline for comparison: visits every trace element.
    let baseline = CorrespondenceTranslator::new(p.clone(), q, gmm_correspondence());
    let trace = graph.to_trace()?;
    let start = Instant::now();
    let out = baseline.translate(&trace, &mut rng)?;
    let baseline_time = start.elapsed();
    println!(
        "baseline translation: log-weight {:.4}, {:?}",
        out.log_weight.log(),
        baseline_time
    );
    println!(
        "speedup: {:.1}x (weights agree to {:.2e})",
        baseline_time.as_secs_f64() / optimized_time.as_secs_f64().max(1e-12),
        (out.log_weight.log() - result.log_weight.log()).abs()
    );
    Ok(())
}
