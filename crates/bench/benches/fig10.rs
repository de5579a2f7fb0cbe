//! Criterion bench for Figure 10: baseline vs optimized trace
//! translation on the GMM hyperparameter edit, swept over N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use depgraph::{ExecGraph, IncrementalTranslator};
use incremental::{CorrespondenceTranslator, StateTranslator};
use models::gmm::{gmm_correspondence, gmm_program};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_translation_time");
    for &n in &[10usize, 100, 1000] {
        let k = 10;
        let p = gmm_program(10.0, n, k);
        let q = gmm_program(20.0, n, k);
        let baseline = CorrespondenceTranslator::new(p.clone(), q.clone(), gmm_correspondence());
        let optimized = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(7 + n as u64);
        let graph = ExecGraph::simulate(&p, &mut rng).expect("gmm simulates");
        let trace = graph.to_trace().expect("flattens");

        group.bench_with_input(BenchmarkId::new("baseline_sec5", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| baseline.translate(&trace, &mut rng).expect("translates"));
        });
        group.bench_with_input(BenchmarkId::new("optimized_sec6", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| {
                optimized
                    .translate_graph(&graph, &mut rng)
                    .expect("translates")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
