//! Allocation count of translating a one-statement edit of a wide program.
//!
//! Propagating an edit that visits one statement must cost the edit plus
//! one pointer copy per statement it shares, not a pass over every
//! statement's summary. This file installs a global allocator that counts
//! allocations and requested bytes, and holds `translate_graph` on
//! one-observation edits of 300- and 4,800-statement straight-line
//! programs to the same number of allocations; the bytes may differ only
//! by the root block's pointer vector. It contains exactly one test so no
//! concurrent test thread can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use depgraph::{ExecGraph, IncrementalTranslator};
use ppl::ast::Program;
use ppl::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; counting touches only atomics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A straight-line chain of `sites` sites, three statements each
/// (transition probability, latent, observation), with the observation
/// of site `edited` weakened when given.
fn program(sites: usize, edited: Option<usize>) -> Arc<Program> {
    let mut src = String::new();
    for i in 0..sites {
        let prev = match i {
            0 => "1".to_string(),
            _ => format!("x{}", i - 1),
        };
        let strength = if Some(i) == edited {
            "0.6 : 0.4"
        } else {
            "0.9 : 0.1"
        };
        src.push_str(&format!(
            "p{i} = {prev} ? 0.7 : 0.3;\nx{i} = flip(p{i}) @ x{i};\n\
             observe(flip(x{i} ? {strength}) @ o{i} == 1);\n"
        ));
    }
    src.push_str(&format!("return x{};\n", sites - 1));
    Arc::new(parse(&src).expect("program parses"))
}

/// Allocations and bytes of one warm `translate_graph` call on a
/// one-observation edit of a `statements`-statement program. The plan and
/// the old graph are built, and one warm-up call made, outside the count.
fn translation_allocations(statements: usize) -> (u64, u64) {
    let sites = statements / 3;
    let p = program(sites, None);
    assert_eq!(p.body().stmts().len(), statements);
    let translator =
        IncrementalTranslator::from_shared(Arc::clone(&p), program(sites, Some(sites / 2)));
    let graph = ExecGraph::simulate(&p, &mut StdRng::seed_from_u64(1)).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let warm = translator.translate_graph(&graph, &mut rng).unwrap();
    assert_eq!(
        warm.stats.nodes_visited, 1,
        "the edit visits its observation"
    );
    assert_eq!(warm.stats.static_skips, statements as u64 - 1);
    drop(warm);

    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let result = translator.translate_graph(&graph, &mut rng);
    let counted = (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
    );
    assert_eq!(result.unwrap().stats.nodes_visited, 1);
    counted
}

#[test]
fn translating_a_one_statement_edit_allocates_independently_of_program_size() {
    let (small, large) = (300, 4800);
    let (small_allocs, small_bytes) = translation_allocations(small);
    let (large_allocs, large_bytes) = translation_allocations(large);
    assert_eq!(
        small_allocs, large_allocs,
        "allocations at {small} and {large} statements"
    );
    // The root's pointer vector holds one record pointer per statement,
    // and holding the return expression's leaf as well reallocates it
    // once at twice the size.
    let pointer = std::mem::size_of::<usize>() as u64;
    let root_vector = |n: u64| pointer * n + 2 * pointer * n;
    assert!(
        large_bytes - small_bytes <= root_vector(large as u64) - root_vector(small as u64),
        "bytes at {small} and {large} statements: {small_bytes} and {large_bytes}"
    );
}
