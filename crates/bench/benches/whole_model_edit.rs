//! Criterion bench for the per-particle cost of a whole-model edit, the
//! edit of the edit-session benchmark's `obs_sweep` workload: a 48-site
//! chain whose edit changes the strength of every observation, so every
//! observation is rescored and every choice reused. It times the three
//! ways to get a particle of Q on one thread: the Section 6 graph walk,
//! the Section 5 correspondence translator on the parsed program, and a
//! plain trace simulation of Q, the floor that re-running Q from its
//! reused choices could reach.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use depgraph::{ExecGraph, IncrementalTranslator};
use incremental::{CorrespondenceTranslator, StateTranslator};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The 48-site loop chain with every site observed at `strength`.
fn chain(strength: &str, weak: &str) -> Program {
    parse(&format!(
        "n = 48; prev = 1;
         for i in [0..n) {{
           x = flip(prev ? 0.700 : 0.250) @ x;
           observe(flip(x ? {strength} : {weak}) @ o == 1);
           prev = x;
         }}
         return prev;"
    ))
    .expect("the chain parses")
}

fn bench_whole_model_edit(c: &mut Criterion) {
    let (p, q) = (chain("0.510", "0.490"), chain("0.540", "0.460"));
    let incremental = IncrementalTranslator::from_edit(p.clone(), q.clone());
    let correspondence = incremental.edit().correspondence.clone();
    let baseline = CorrespondenceTranslator::new(p.clone(), q.clone(), correspondence);
    let mut rng = StdRng::seed_from_u64(48);
    let graph = ExecGraph::simulate(&p, &mut rng).expect("the chain simulates");
    let trace = graph.to_trace().expect("the graph flattens");

    let mut group = c.benchmark_group("whole_model_edit_per_particle");
    group.bench_function("graph_walk_sec6", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            incremental
                .translate_graph(&graph, &mut rng)
                .expect("translates")
        });
    });
    group.bench_function("correspondence_sec5", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| baseline.translate(&trace, &mut rng).expect("translates"));
    });
    group.bench_function("simulate_q", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(simulate(&q, &mut rng).expect("simulates")));
    });
    group.finish();
}

criterion_group!(benches, bench_whole_model_edit);
criterion_main!(benches);
