//! Allocation contract for execution-graph address lookups.
//!
//! A graph holds no address index: a lookup follows the site's static
//! path through the records, using the site table its compiled program
//! builds once. So once any graph of a stage has served a lookup, looking
//! up an address in a freshly translated graph of that stage must perform
//! **zero** heap allocations, however long the trace. This file installs
//! a counting global allocator and holds lookups to that bar; it contains
//! exactly one test so no concurrent test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use depgraph::{ExecGraph, IncrementalTranslator};
use ppl::{addr, parse};
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

/// A 256-site latent chain whose trailing observation has strength `s`.
fn chain(s: &str) -> String {
    format!(
        "n = 256; prev = 1;\n\
         for i in [0..n) {{ x = flip(prev ? 0.7 : 0.3) @ x; prev = x; }}\n\
         observe(flip(prev ? {s} : 0.1) @ o == 1);\n\
         return prev;\n"
    )
}

#[test]
fn lookups_on_a_fresh_translation_allocate_nothing() {
    let p = parse(&chain("0.9")).expect("program parses");
    let q = parse(&chain("0.8")).expect("program parses");
    let translator = IncrementalTranslator::from_edit(p.clone(), q);
    let mut rng = StdRng::seed_from_u64(1);
    let graph = ExecGraph::simulate(&p, &mut rng).expect("chain simulates");

    // Addresses are built (and interned) outside the counted region.
    let latent = addr!["x", 255];
    let latent_id = latent.id();
    let obs = addr!["o"];

    // One lookup on any graph of the stage builds the site table of the
    // stage's compiled program.
    let first = translator.translate_graph(&graph, &mut rng).unwrap();
    assert!(first.graph.choice(&latent).is_some());

    let fresh = translator.translate_graph(&graph, &mut rng).unwrap();
    assert_eq!(
        fresh.stats.nodes_visited, 1,
        "the edit touches one statement"
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let by_addr = fresh.graph.choice(&latent).is_some();
    let by_id = fresh.graph.choice_by_id(latent_id).is_some();
    let observed = fresh.graph.observation(&obs).is_some();
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(by_addr && by_id && observed, "every lookup resolves");
    assert_eq!(
        after - before,
        0,
        "lookups on a fresh graph must not allocate ({} allocations)",
        after - before
    );
}
