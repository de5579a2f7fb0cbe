//! Allocation bound for planning a small edit of a wide program.
//!
//! Diffing and planning an edit must cost what the edit affects, not the
//! square of the program: the diff aligns only the window between the
//! blocks' common prefix and suffix. This file installs a global
//! allocator that counts requested bytes and allocation calls, and holds
//! one-statement edits of a 4,800-statement straight-line program to a
//! byte bound that a table over the whole program (about 90 MiB for the
//! diff alone) would break. Planning must not allocate per statement
//! either: effect facts live in flat arenas on frame slots, names are
//! interned once, and site rules share the parsed labels, so a warm plan
//! makes a number of allocations that grows only with the arenas'
//! doublings. It contains exactly one test so no concurrent test thread
//! can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use depgraph::{diff_programs, IncrementalTranslator};
use ppl::ast::Program;
use ppl::parse;

struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const MIB: u64 = 1 << 20;

/// The statements of a straight-line chain of `sites` sites, three each:
/// transition probability, latent, observation.
fn straight_line(sites: usize) -> Vec<String> {
    let mut stmts = Vec::with_capacity(3 * sites);
    for i in 0..sites {
        let prev = match i {
            0 => "1".to_string(),
            _ => format!("x{}", i - 1),
        };
        stmts.push(format!("p{i} = {prev} ? 0.7 : 0.3;"));
        stmts.push(format!("x{i} = flip(p{i}) @ x{i};"));
        stmts.push(format!("observe(flip(x{i} ? 0.9 : 0.1) @ o{i} == 1);"));
    }
    stmts
}

fn program(stmts: &[String]) -> Arc<Program> {
    let last = stmts.len() / 3 - 1;
    let src = format!("{}\nreturn x{last};\n", stmts.join("\n"));
    Arc::new(parse(&src).expect("program parses"))
}

/// Bytes allocated while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

/// Allocation calls (`alloc` and `realloc`) made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

#[test]
fn planning_a_one_statement_edit_allocates_linearly() {
    let sites = 1600;
    let stmts = straight_line(sites);
    let p = program(&stmts);
    assert_eq!(p.body().stmts().len(), 4800);
    let obs = 3 * (sites / 2) + 2;

    let mut edited = stmts.clone();
    edited[obs] = format!("observe(flip(x{0} ? 0.6 : 0.4) @ o{0} == 1);", sites / 2);
    // A copy of the next statement over the observation leaves the window
    // ending in a statement equal to the first suffix statement, so the
    // diff must give suffix pairs back to the window.
    let mut overwritten = stmts.clone();
    overwritten[obs] = stmts[obs + 1].clone();

    for (what, q, impacted) in [
        ("an edited observation", program(&edited), Some(1)),
        ("an observation overwritten", program(&overwritten), None),
    ] {
        let (edit, diff_bytes) = allocated(|| diff_programs(&p, &q));
        assert!(!edit.diff.is_unchanged(), "{what} changes the program");
        assert!(
            diff_bytes < 8 * MIB,
            "{what}: diff_programs allocated {:.1} MiB",
            diff_bytes as f64 / MIB as f64
        );

        let (translator, plan_bytes) =
            allocated(|| IncrementalTranslator::from_shared(Arc::clone(&p), Arc::clone(&q)));
        if let Some(n) = impacted {
            assert_eq!(translator.plan().impact().impacted_count(), n, "{what}");
        }
        assert!(
            plan_bytes < 48 * MIB,
            "{what}: from_shared allocated {:.1} MiB",
            plan_bytes as f64 / MIB as f64
        );
        // Warm: every name is interned by now.
        let (_, calls) = allocations(|| IncrementalTranslator::from_shared(Arc::clone(&p), q));
        assert!(
            calls <= 1_000,
            "{what}: a warm from_shared made {calls} allocations"
        );
    }
}
