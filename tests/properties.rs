//! Property-based tests (proptest) of core invariants across the
//! workspace.

use incremental::{
    resample, Correspondence, CorrespondenceTranslator, ParticleCollection, ResampleScheme,
    StateTranslator,
};
use ppl::dist::Dist;
use ppl::handlers::{score, simulate};
use ppl::logweight::{log_sum_exp, normalize_log_weights};
use ppl::{addr, parse, Enumeration, Handler, LogWeight, PplError, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A parameterized branching model used across the properties.
fn branchy(
    p0: f64,
    p1: f64,
    lo: i64,
    span: i64,
) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> + Clone {
    move |h: &mut dyn Handler| {
        let a = h.sample(addr!["a"], Dist::flip(p0))?;
        let b = if a.truthy()? {
            h.sample(addr!["b1"], Dist::flip(p1))?
        } else {
            h.sample(addr!["b0"], Dist::uniform_int(lo, lo + span))?
        };
        let obs_p = if b.truthy()? { 0.75 } else { 0.25 };
        h.observe(addr!["o"], Dist::flip(obs_p), Value::Bool(true))?;
        Ok(a)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulating then re-scoring the recorded choices reproduces the
    /// score exactly, for arbitrary model parameters and seeds.
    #[test]
    fn simulate_score_round_trip(
        p0 in 0.05f64..0.95,
        p1 in 0.05f64..0.95,
        lo in -5i64..5,
        span in 0i64..6,
        seed in 0u64..1_000,
    ) {
        let model = branchy(p0, p1, lo, span);
        let mut rng = StdRng::seed_from_u64(seed);
        let t = simulate(&model, &mut rng).unwrap();
        let rescored = score(&model, &t.to_choice_map()).unwrap();
        prop_assert!((t.score().log() - rescored.score().log()).abs() < 1e-12);
        prop_assert_eq!(t.return_value(), rescored.return_value());
    }

    /// Without observations, enumeration always sums to exactly 1.
    #[test]
    fn enumeration_normalizes_without_observations(
        p0 in 0.05f64..0.95,
        p1 in 0.05f64..0.95,
        span in 0i64..6,
    ) {
        let model = move |h: &mut dyn Handler| {
            let a = h.sample(addr!["a"], Dist::flip(p0))?;
            if a.truthy()? {
                h.sample(addr!["b"], Dist::flip(p1))?;
            } else {
                h.sample(addr!["c"], Dist::uniform_int(0, span))?;
            }
            Ok(a)
        };
        let e = Enumeration::run(&model).unwrap();
        prop_assert!((e.z() - 1.0).abs() < 1e-12);
    }

    /// The translator's weight estimate always matches the exact Eq. (2)
    /// oracle on the produced pair of traces.
    #[test]
    fn translated_weight_matches_oracle(
        p0 in 0.05f64..0.95,
        q0 in 0.05f64..0.95,
        p1 in 0.05f64..0.95,
        q1 in 0.05f64..0.95,
        seed in 0u64..500,
    ) {
        let p = branchy(p0, p1, 0, 3);
        let q = branchy(q0, q1, 0, 3);
        let corr = Correspondence::identity_on(["a", "b1", "b0"]);
        let translator = CorrespondenceTranslator::new(p.clone(), q.clone(), corr.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let t = simulate(&p, &mut rng).unwrap();
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        let oracle = incremental::exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
        prop_assert!((w.log() - oracle.log()).abs() < 1e-9,
            "translator {} vs oracle {}", w.log(), oracle.log());
    }

    /// LogWeight algebra: addition is commutative/associative and ONE is
    /// the identity (within floating-point tolerance).
    #[test]
    fn log_weight_algebra(a in 1e-6f64..1.0, b in 1e-6f64..1.0, c in 1e-6f64..1.0) {
        let (wa, wb, wc) = (
            LogWeight::from_prob(a),
            LogWeight::from_prob(b),
            LogWeight::from_prob(c),
        );
        prop_assert!(((wa + wb).log() - (wb + wa).log()).abs() < 1e-12);
        prop_assert!((((wa + wb) + wc).log() - (wa + (wb + wc)).log()).abs() < 1e-12);
        prop_assert!(((wa + LogWeight::ONE).log() - wa.log()).abs() < 1e-12);
        prop_assert!((wa - wa).log().abs() < 1e-12);
    }

    /// Normalized log weights sum to 1 and log_sum_exp upper-bounds the
    /// max.
    #[test]
    fn weight_normalization(ws in proptest::collection::vec(-30.0f64..0.0, 1..40)) {
        let probs = normalize_log_weights(&ws).unwrap();
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let max = ws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(log_sum_exp(&ws) >= max);
        prop_assert!(log_sum_exp(&ws) <= max + (ws.len() as f64).ln() + 1e-12);
    }

    /// Resampling preserves the particle count, drops zero-weight
    /// particles, and only emits traces from the input.
    #[test]
    fn resampling_invariants(
        weights in proptest::collection::vec(0.0f64..1.0, 2..30),
        scheme_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        prop_assume!(weights.iter().any(|w| *w > 0.0));
        let scheme = [
            ResampleScheme::Multinomial,
            ResampleScheme::Systematic,
            ResampleScheme::Stratified,
            ResampleScheme::Residual,
        ][scheme_idx];
        let mut collection = ParticleCollection::new();
        for (i, w) in weights.iter().enumerate() {
            let mut t = ppl::Trace::new();
            let d = Dist::uniform_int(0, weights.len() as i64);
            let lp = d.log_prob(&Value::Int(i as i64));
            t.record_choice(addr!["id"], Value::Int(i as i64), d, lp).unwrap();
            collection.push(t, LogWeight::from_prob(*w));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let out = resample(&collection, scheme, &mut rng).unwrap();
        prop_assert_eq!(out.len(), collection.len());
        for particle in out.iter() {
            let id = particle.trace.value(&addr!["id"]).unwrap().as_int().unwrap() as usize;
            prop_assert!(weights[id] > 0.0, "zero-weight particle {id} survived {scheme:?}");
            prop_assert_eq!(particle.log_weight, LogWeight::ONE);
        }
    }

    /// Correspondence site rules: looking up through the inverse is the
    /// identity on mapped addresses.
    #[test]
    fn correspondence_inverse_round_trip(
        names in proptest::collection::btree_set("[a-z]{1,6}", 1..6),
        idx in 0i64..100,
    ) {
        let names: Vec<String> = names.into_iter().collect();
        let mut f = Correspondence::new();
        for (i, n) in names.iter().enumerate() {
            f.add_site_rule(n, &format!("{n}_p{i}")).unwrap();
        }
        let inv = f.inverse();
        for n in &names {
            let a = addr![n.as_str(), idx];
            let there = f.lookup(&a).unwrap();
            let back = inv.lookup(&there).unwrap();
            prop_assert_eq!(back, a);
        }
    }
}

/// Random program generator for parser round-trips: builds a small valid
/// program, pretty-prints it, re-parses, and compares ASTs.
mod parser_round_trip {
    use super::*;
    use ppl::ast::Program;

    fn expr_strategy(depth: u32) -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            (-9i64..10).prop_map(|i| i.to_string()),
            (1u32..10).prop_map(|i| format!("{}.5", i)),
            (0usize..3).prop_map(|i| format!("v{i}")),
        ];
        leaf.prop_recursive(depth, 16, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), 0usize..5).prop_map(|(a, b, op)| {
                    let ops = ["+", "-", "*", "<", "=="];
                    format!("({a} {} {b})", ops[op])
                }),
                (inner.clone(), inner.clone(), inner.clone())
                    .prop_map(|(c, t, e)| format!("({c} ? {t} : {e})")),
                (1u32..99).prop_map(|p| format!("flip(0.{p:02})")),
                (0i64..5, 1i64..5).prop_map(|(lo, k)| format!("uniform({lo}, {})", lo + k)),
                inner.prop_map(|e| format!("abs({e})")),
            ]
        })
    }

    fn stmt_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..3, expr_strategy(2)).prop_map(|(v, e)| format!("v{v} = {e};")),
            (expr_strategy(1), 0usize..3, 0usize..3)
                .prop_map(|(c, a, b)| { format!("if {c} {{ v{a} = 1; }} else {{ v{b} = 2; }}") }),
            (1u32..99, 0usize..3).prop_map(|(p, v)| format!("observe(flip(0.{p:02}) == v{v});")),
            (0usize..3, 1i64..4, expr_strategy(1))
                .prop_map(|(v, n, e)| { format!("for i{v} in [0..{n}) {{ v{v} = {e}; }}") }),
        ]
    }

    fn program_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(stmt_strategy(), 0..5).prop_map(|stmts| {
            let mut src = String::from("v0 = 0; v1 = 1; v2 = 2;\n");
            for s in stmts {
                src.push_str(&s);
                src.push('\n');
            }
            src.push_str("return v0;");
            src
        })
    }

    fn reparse(p: &Program) -> Program {
        parse(&p.to_string()).expect("pretty-printed program re-parses")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pretty_print_parse_round_trip(src in program_strategy()) {
            let p1 = parse(&src).unwrap();
            let p2 = reparse(&p1);
            prop_assert_eq!(&p1, &p2, "source:\n{}\nprinted:\n{}", src, p1);
            // Printing is a fixed point after one round.
            prop_assert_eq!(p1.to_string(), p2.to_string());
        }
    }
}
