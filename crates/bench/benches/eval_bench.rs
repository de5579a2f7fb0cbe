//! Criterion microbench for the compiled evaluator: register-lowered
//! execution against pooled frames vs the tree-walk reference, on a
//! deterministic arithmetic/control-flow kernel and on a sampling
//! program driven by a prior handler.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ppl::compile::{run_compiled, EvalFrame};
use ppl::handlers::PriorSampler;
use ppl::interp::DEFAULT_FUEL;
use ppl::{parse, Interp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic kernel: slots, loops, builtins, branches — no handler
/// traffic, so the numbers isolate pure evaluation cost.
const KERNEL: &str = "x = 3; acc = 0;\n\
     for i in [0..32) {\n\
       acc = acc + i * x;\n\
       if acc > 100 { acc = acc - 7; } else { acc = acc + 2; }\n\
     }\n\
     k = 0;\n\
     while k < 16 { k = k + 1; acc = acc + k; }\n\
     z = sqrt(abs(acc) + 1.0) + max(1.5, 0.25);\n\
     return acc + floor(z);";

/// Sampling program: random choices and an observation, so the bench
/// includes address construction and trace recording.
const SAMPLER: &str = "prev = 1;\n\
     for i in [0..8) {\n\
       x = flip(prev ? 0.7 : 0.3) @ x;\n\
       observe(flip(x ? 0.9 : 0.1) @ o == 1);\n\
       prev = x;\n\
     }\n\
     return prev;";

fn bench_eval(c: &mut Criterion) {
    let kernel = parse(KERNEL).expect("kernel parses");
    let sampler = parse(SAMPLER).expect("sampler parses");

    // Precompiled + warm frame: the steady-state inner-loop shape used
    // by the particle executors.
    let compiled = kernel.compiled();
    let mut frame = EvalFrame::new();
    c.bench_function("eval_kernel_compiled_warm", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut handler = PriorSampler::new(&mut rng);
            black_box(
                run_compiled(compiled, &mut frame, DEFAULT_FUEL, &mut handler)
                    .expect("kernel runs"),
            )
        });
    });

    c.bench_function("eval_kernel_tree_walk", |b| {
        let interp = Interp::new();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut handler = PriorSampler::new(&mut rng);
            black_box(
                interp
                    .run_tree_walk(&kernel, &mut handler)
                    .expect("kernel runs"),
            )
        });
    });

    c.bench_function("eval_sampler_compiled", |b| {
        let interp = Interp::new();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let mut handler = PriorSampler::new(&mut rng);
            black_box(interp.run(&sampler, &mut handler).expect("sampler runs"))
        });
    });

    c.bench_function("eval_sampler_tree_walk", |b| {
        let interp = Interp::new();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let mut handler = PriorSampler::new(&mut rng);
            black_box(
                interp
                    .run_tree_walk(&sampler, &mut handler)
                    .expect("sampler runs"),
            )
        });
    });
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
