//! # ppl — probabilistic language substrate
//!
//! The probabilistic programming substrate underlying the incremental
//! inference workspace (a reproduction of *Incremental Inference for
//! Probabilistic Programs*, PLDI 2018). It provides:
//!
//! - the surface language of the paper's Section 3 plus the extensions its
//!   evaluation programs need: [`ast`], [`parser`], a pretty-printer, and a
//!   reference [small-step semantics](smallstep) (Figure 2);
//! - traces and hierarchical addresses: [`Trace`], [`Address`];
//! - the distribution library: [`dist`];
//! - the effect-handler runtime in the lightweight transformational
//!   compilation style of Wingate et al. used by the paper's Section 7.1
//!   embedding: [`Model`], [`Handler`], and the standard [`handlers`];
//! - exact enumeration of finite discrete programs: [`enumerate`].
//!
//! # Example: define, simulate, and score a model
//!
//! ```
//! use ppl::{addr, Handler, Model, PplError, Value};
//! use ppl::dist::Dist;
//! use ppl::handlers::{simulate, score};
//! use rand::SeedableRng;
//!
//! // A model is any closure over a handler...
//! let model = |h: &mut dyn Handler| -> Result<Value, PplError> {
//!     let x = h.sample(addr!["x"], Dist::flip(0.25))?;
//!     h.observe(addr!["o"], Dist::flip(0.9), Value::Bool(true))?;
//!     Ok(x)
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let trace = simulate(&model, &mut rng)?;
//!
//! // ...or a parsed program in the paper's surface syntax.
//! let program = ppl::parse("x = flip(0.25) @ x; return x;")?;
//! let trace2 = score(&program, &trace.filter_choices(|_| true))?;
//! assert_eq!(trace2.len(), 1);
//! # Ok::<(), PplError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod address;
pub mod analysis;
pub mod ast;
pub mod check;
pub mod compile;
pub mod dist;
pub mod effects;
pub mod enumerate;
pub mod error;
pub mod fxhash;
pub mod gen;
pub mod handlers;
pub mod intern;
pub mod interp;
pub mod logweight;
pub mod parser;
pub mod pretty;
pub mod smallstep;
pub mod trace;
pub mod trace_io;
pub mod value;

pub use address::{Address, AddressId, AddressInterner};
pub use compile::{compiled_for_pair, CompiledProgram, EvalFrame, PooledFrame, SlotId};
pub use effects::{Handler, Model};
pub use enumerate::Enumeration;
pub use error::PplError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::intern_name;
pub use interp::Interp;
pub use logweight::LogWeight;
pub use parser::{parse, parse_with_spans, Span, SpanTable};
pub use trace::{ChoiceMap, ChoiceRecord, ObsRecord, Trace};
pub use value::Value;

#[cfg(test)]
mod semantics_agreement {
    //! The big-step traced interpreter and the small-step reference
    //! semantics must induce the same distribution on executions.

    use std::collections::HashMap;

    use crate::enumerate::Enumeration;
    use crate::parser::parse;
    use crate::smallstep::enumerate_executions;

    fn distribution_by_trace(program_src: &str) -> (HashMap<String, f64>, HashMap<String, f64>) {
        let program = parse(program_src).unwrap();
        // Big-step: enumerate with the handler machinery.
        let big = Enumeration::run(&program).unwrap();
        let mut big_map = HashMap::new();
        for t in big.traces() {
            let key: Vec<String> = t.choices().map(|(_, c)| c.value.to_string()).collect();
            let p = t.score().prob();
            if p > 0.0 {
                *big_map.entry(key.join(",")).or_insert(0.0) += p;
            }
        }
        // Small-step reference semantics.
        let small = enumerate_executions(&program, 1_000_000).unwrap();
        let mut small_map = HashMap::new();
        for r in small {
            let key: Vec<String> = r.trace.iter().map(|v| v.to_string()).collect();
            if r.prob > 0.0 {
                *small_map.entry(key.join(",")).or_insert(0.0) += r.prob;
            }
        }
        (big_map, small_map)
    }

    fn assert_same_distribution(src: &str) {
        let (big, small) = distribution_by_trace(src);
        assert_eq!(
            big.len(),
            small.len(),
            "different numbers of positive-probability traces for `{src}`:\nbig: {big:?}\nsmall: {small:?}"
        );
        for (key, p_big) in &big {
            let p_small = small
                .get(key)
                .unwrap_or_else(|| panic!("small-step lacks trace {key} for `{src}`"));
            assert!(
                (p_big - p_small).abs() < 1e-12,
                "trace {key}: big {p_big} vs small {p_small}"
            );
        }
    }

    #[test]
    fn agreement_on_straight_line() {
        assert_same_distribution("x = flip(0.3); y = flip(0.6); return x;");
    }

    #[test]
    fn agreement_on_example1() {
        assert_same_distribution(
            "a = 1;
             b = flip(a / 3);
             if a < 2 { c = uniform(1, 6); } else { c = uniform(6, 10); }
             d = flip(b / 2);
             observe(flip(1 / 5) == d);
             return c;",
        );
    }

    #[test]
    fn agreement_on_burglary() {
        assert_same_distribution(
            "burglary = flip(0.02);
             pAlarm = burglary ? 0.9 : 0.01;
             alarm = flip(pAlarm);
             if alarm { pMaryWakes = 0.8; } else { pMaryWakes = 0.05; }
             observe(flip(pMaryWakes) == 1);
             return burglary;",
        );
    }

    #[test]
    fn agreement_with_observation_of_variable() {
        assert_same_distribution(
            "x = flip(0.5);
             observe(flip(0.2) == x);
             return x;",
        );
    }

    #[test]
    fn agreement_with_dependent_chain() {
        assert_same_distribution(
            "a = flip(0.5);
             b = flip(a ? 0.9 : 0.1);
             c = flip(b ? 0.8 : 0.2);
             observe(flip(0.5) == c);
             return c;",
        );
    }
}
