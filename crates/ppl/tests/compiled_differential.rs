//! Differential contract between the compiled evaluator and the
//! tree-walk reference interpreter.
//!
//! [`Interp::run`] (register-lowered programs, slot-resolved
//! environments, pooled eval frames) must be *bit-identical* to
//! [`Interp::run_tree_walk`]: same RNG draws, same recorded trace (the
//! `{:?}` rendering pins log-weights to the bit), same error variants,
//! and the same fuel accounting at every budget. These tests sweep
//! randomly generated surface programs, hand-built error shapes the
//! parser cannot produce, and fuel budgets from zero up.

use ppl::ast::{Block, Builtin, Expr, Program, Stmt};
use ppl::handlers::PriorSampler;
use ppl::parse;
use ppl::Interp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `program` through one evaluator with a fresh seeded RNG and
/// renders everything observable about the run: the result (value or
/// error variant) and the full recorded trace.
fn run_one(program: &Program, fuel: u64, seed: u64, compiled: bool) -> String {
    let interp = Interp::with_fuel(fuel);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut handler = PriorSampler::new(&mut rng);
    let result = if compiled {
        interp.run(program, &mut handler)
    } else {
        interp.run_tree_walk(program, &mut handler)
    };
    format!("{result:?} | {:?}", handler.trace())
}

/// Asserts the compiled and tree-walk runs of `program` render
/// identically under `fuel` and `seed`.
fn assert_paths_agree(program: &Program, fuel: u64, seed: u64, context: &str) {
    let compiled = run_one(program, fuel, seed, true);
    let tree = run_one(program, fuel, seed, false);
    assert_eq!(compiled, tree, "{context}: compiled vs tree-walk");
}

/// A generator of surface programs that deliberately includes failing
/// shapes — division by zero, out-of-bounds indexing, reads of unbound
/// variables, invalid distribution parameters, unbounded loops — so the
/// differential covers the error surface, not just happy paths.
fn program_strategy() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (0usize..3, 1u32..99).prop_map(|(v, p)| format!("v{v} = flip(0.{p:02}) @ f{v};")),
        (0usize..3, 0i64..4, 1i64..5)
            .prop_map(|(v, lo, k)| format!("v{v} = uniform({lo}, {}) @ u{v};", lo + k)),
        (0usize..3, 0i64..5).prop_map(|(v, m)| format!("v{v} = gauss({m}, 1.5) @ g{v};")),
        (0usize..3, 1i64..6).prop_map(|(v, l)| format!("v{v} = poisson({l}.0) @ p{v};")),
        (0usize..3, 1u32..9, 1u32..9)
            .prop_map(|(v, a, b)| format!("v{v} = categorical(0.{a}, 0.{b}, 0.1) @ c{v};")),
        // Arithmetic over prior statements' values; `v / (w - w)` and
        // `v % 0` manufacture DivisionByZero nondeterministically.
        (0usize..3, 0usize..3, 0usize..3)
            .prop_map(|(v, a, b)| format!("v{v} = va{a} * 2 + va{b};")),
        (0usize..3, 0usize..3).prop_map(|(v, a)| format!("v{v} = va{a} / (va{a} - 1);")),
        // Array traffic, with indices that can run off the end.
        (0usize..3, 1i64..4).prop_map(|(v, n)| format!("arr{v} = array({n}, 0);")),
        (0usize..3, 0i64..5, 0i64..9).prop_map(|(v, i, x)| format!("arr{v}[{i}] = {x};")),
        (0usize..3, 0usize..3, 0i64..5).prop_map(|(v, a, i)| format!("v{v} = arr{a}[{i}];")),
        // Reads of a variable no statement ever binds.
        (0usize..3).prop_map(|v| format!("v{v} = ghost + 1;")),
        // Builtins, ternaries, comparisons.
        (0usize..3, 0usize..3).prop_map(|(v, a)| format!("v{v} = sqrt(abs(va{a}) + 1);")),
        (0usize..3, 0usize..3, 0usize..3).prop_map(|(v, a, b)| {
            format!("v{v} = va{a} > va{b} ? max(va{a}, 2) : min(va{b}, 7);")
        }),
        // Control flow: if/else, bounded for, while with a counter that
        // may exhaust fuel at small budgets.
        (0usize..3, 1u32..99, 0usize..3).prop_map(|(c, p, a)| {
            format!("if va{c} > 0 {{ va{a} = flip(0.{p:02}) @ w{a}; }} else {{ va{a} = 1; }}")
        }),
        (0usize..3, 1i64..4, 1u32..99).prop_map(|(v, n, p)| {
            format!("for i{v} in [0..{n}) {{ va{v} = flip(0.{p:02}) @ l{v}; }}")
        }),
        (0usize..3, 1i64..5)
            .prop_map(|(v, n)| { format!("k{v} = 0; while k{v} < {n} {{ k{v} = k{v} + 1; }}") }),
        (1u32..99, 0usize..3)
            .prop_map(|(p, v)| format!("observe(flip(0.{p:02}) @ o{v} == (va{v} > 0));")),
    ];
    proptest::collection::vec(stmt, 1..8).prop_map(|stmts| {
        let mut src = String::from(
            "va0 = 1; va1 = 0; va2 = 1; v0 = 0; v1 = 0; v2 = 0;\n\
             arr0 = array(2, 0); arr1 = array(3, 1); arr2 = array(1, 0);\n",
        );
        for s in stmts {
            src.push_str(&s);
            src.push('\n');
        }
        src.push_str("return va0 + v0;");
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random programs at the default budget: both paths must render
    /// identically (values, traces with bit-level log-weights, errors).
    #[test]
    fn compiled_matches_tree_walk_on_random_programs(
        src in program_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let program = parse(&src).expect("generated program parses");
        let compiled = run_one(&program, ppl::interp::DEFAULT_FUEL, seed, true);
        let tree = run_one(&program, ppl::interp::DEFAULT_FUEL, seed, false);
        prop_assert_eq!(compiled, tree, "program:\n{}", src);
    }

    /// Fuel sweep: at every budget from 0 up, the two paths exhaust (or
    /// don't) at exactly the same step with the same partial trace.
    #[test]
    fn fuel_accounting_is_bit_identical(
        src in program_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let program = parse(&src).expect("generated program parses");
        for fuel in 0..48u64 {
            let compiled = run_one(&program, fuel, seed, true);
            let tree = run_one(&program, fuel, seed, false);
            prop_assert_eq!(
                compiled, tree,
                "fuel {} program:\n{}", fuel, src
            );
        }
    }
}

/// Error shapes the parser rejects up front but the AST admits: builtin
/// calls with the wrong arity must fail identically on both paths (the
/// compiler pre-checks arity but preserves the eval-time error).
#[test]
fn bad_arity_errors_agree() {
    let cases = [
        Expr::Call(Builtin::Sqrt, vec![]),
        Expr::Call(Builtin::Sqrt, vec![Expr::int(1), Expr::int(2)]),
        Expr::Call(Builtin::Max, vec![Expr::int(1)]),
        Expr::Call(Builtin::Len, vec![Expr::int(1), Expr::int(2), Expr::int(3)]),
    ];
    for (i, call) in cases.into_iter().enumerate() {
        let program = Program::new(
            Block::new(vec![Stmt::Assign("x".into(), call)]),
            Some(Expr::var("x")),
        );
        assert_paths_agree(
            &program,
            ppl::interp::DEFAULT_FUEL,
            7,
            &format!("arity case {i}"),
        );
        // The arity error must also win at every fuel level it is
        // reachable at.
        for fuel in 0..6 {
            assert_paths_agree(&program, fuel, 7, &format!("arity case {i} fuel {fuel}"));
        }
    }
}

/// An infinite loop exhausts the same budget on both paths.
#[test]
fn fuel_exhaustion_agrees_on_unbounded_loop() {
    let program = parse("n = 0; while true { n = n + 1; } return n;").unwrap();
    for fuel in [0, 1, 5, 100, 1000] {
        assert_paths_agree(&program, fuel, 3, &format!("unbounded loop fuel {fuel}"));
    }
}

/// Repeated runs through the public path reuse pooled frames and the
/// program's compiled form: the telemetry counters must move.
#[test]
fn frame_pool_and_compile_cache_telemetry() {
    let program = parse("x = flip(0.5) @ x; y = gauss(0, 1) @ y; return y;").unwrap();
    let interp = Interp::new();
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut handler = PriorSampler::new(&mut rng);
        interp.run(&program, &mut handler).unwrap();
    };
    run(0); // warm: compiles the program, creates this thread's frame
    let before = ppl::compile::eval_counters();
    run(1);
    run(2);
    let after = ppl::compile::eval_counters();
    // Counters are process-global and only ever increase, so deltas are
    // lower bounds even with other tests running concurrently.
    assert!(
        after.compiled_execs >= before.compiled_execs + 2,
        "compiled execs: {before:?} -> {after:?}"
    );
    assert!(
        after.compile_cache_hits >= before.compile_cache_hits + 2,
        "cache hits: {before:?} -> {after:?}"
    );
    // The frame pool is per-thread and this thread's frame was returned
    // after the warm-up run, so both runs reuse rather than create.
    assert!(
        after.frames_reused >= before.frames_reused + 2,
        "frame reuse: {before:?} -> {after:?}"
    );
}
