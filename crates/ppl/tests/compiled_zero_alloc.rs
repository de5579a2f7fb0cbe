//! Allocation contract for the compiled evaluator.
//!
//! Once a program is compiled and a worker's eval frame is warm, a
//! [`run_compiled`] execution on the happy path must perform **zero**
//! heap allocations: values stay in registers/slots, loop state reuses
//! the frame's scratch vectors, and builtin calls use a fixed argument
//! buffer. This file installs a counting global allocator and holds the
//! compiled path, and [`Interp::run`] over it, to that bar; it contains
//! exactly one test so no concurrent test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ppl::compile::{run_compiled, EvalFrame};
use ppl::handlers::PriorSampler;
use ppl::{parse, Interp};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_compiled_eval_allocates_nothing() {
    // Deterministic program exercising slots, arithmetic, builtins,
    // ternaries, if/else, for and while loops — but no random choices or
    // arrays, whose *handler-side* recording legitimately allocates.
    let program = parse(
        "x = 3; y = 0.5; acc = 0;\n\
         for i in [0..6) {\n\
           acc = acc + i * x;\n\
           if acc > 10 { acc = acc - 1; } else { acc = acc + 2; }\n\
         }\n\
         k = 0;\n\
         while k < 5 { k = k + 1; acc = acc + k; }\n\
         z = sqrt(abs(acc) + 1.0) + max(y, 0.25);\n\
         w = acc > 0 ? floor(z) : 0 - 1;\n\
         return acc + w;",
    )
    .expect("program parses");

    let compiled = program.compiled();
    let mut frame = EvalFrame::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut handler = PriorSampler::new(&mut rng);

    // Warm-up: grows the frame's slot and loop vectors to capacity and
    // initializes process-wide lazies (telemetry, interner).
    let warm =
        run_compiled(compiled, &mut frame, 1_000_000, &mut handler).expect("warm-up run succeeds");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hot =
        run_compiled(compiled, &mut frame, 1_000_000, &mut handler).expect("hot run succeeds");
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(hot, warm, "deterministic program must repeat its result");
    assert_eq!(
        after - before,
        0,
        "warm compiled eval must not allocate ({} allocations)",
        after - before
    );

    // The public entry point adds only the program's compiled memo and
    // this thread's pooled frame, both warm after one run.
    let interp = Interp::new();
    let warm = interp
        .run(&program, &mut handler)
        .expect("warm-up run succeeds");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hot = interp
        .run(&program, &mut handler)
        .expect("hot run succeeds");
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(hot, warm, "deterministic program must repeat its result");
    assert_eq!(
        after - before,
        0,
        "a warm Interp::run must not allocate ({} allocations)",
        after - before
    );
}
