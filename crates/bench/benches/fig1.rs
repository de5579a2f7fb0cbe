//! Criterion bench for the Figure 1 example: one burglary trace
//! translation vs sampling the refined model from scratch by rejection.

use criterion::{criterion_group, criterion_main, Criterion};
use incremental::{CorrespondenceTranslator, StateTranslator};
use inference::{rejection_sample, ExactPosterior};
use models::burglary;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fig1(c: &mut Criterion) {
    let translator = CorrespondenceTranslator::new(
        burglary::original,
        burglary::refined,
        burglary::correspondence(),
    );
    let mut rng = StdRng::seed_from_u64(3);
    let sampler = ExactPosterior::new(&burglary::original).expect("finite");
    let t = sampler.sample(&mut rng);

    c.bench_function("fig1_translate_one_trace", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| translator.translate(&t, &mut rng).expect("translates"));
    });
    c.bench_function("fig1_rejection_sample_refined", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| rejection_sample(&burglary::refined, &mut rng, 1_000_000).expect("accepts"));
    });
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
