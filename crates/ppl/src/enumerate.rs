//! Exact enumeration of finite discrete programs.
//!
//! Enumerates every trace `t ∈ T_P` of a program whose random choices all
//! have finite support, yielding the exact unnormalized probabilities
//! `P̃r[t ∼ P]`, the normalizing constant `Z_P`, and posterior
//! expectations. Used as ground truth throughout the test suite and for
//! computing the trace translator error of Section 5.3 exactly.

use crate::address::Address;
use crate::dist::Dist;
use crate::effects::{Handler, Model};
use crate::error::PplError;
use crate::logweight::log_sum_exp;
use crate::trace::Trace;
use crate::value::Value;

/// Default cap on the choices recorded over all enumerated traces before
/// giving up ([`ChoiceBudget`]): about ten times the largest enumeration
/// the test suite runs (196,608 choices over 16,384 traces).
pub const DEFAULT_CHOICE_LIMIT: usize = 1 << 21;

/// A budget on the choices an enumeration records, summed over its traces.
///
/// Enumeration's memory and time grow with the total length of the traces
/// it keeps, not with their number: the n-th trace of a geometric loop
/// records n choices. Each trace is charged its recorded choices, and at
/// least one, so choice-free traces count too.
#[derive(Debug)]
pub struct ChoiceBudget {
    limit: usize,
    spent: usize,
}

impl ChoiceBudget {
    /// A budget of `limit` recorded choices.
    pub fn new(limit: usize) -> ChoiceBudget {
        ChoiceBudget { limit, spent: 0 }
    }

    /// Charges one enumerated trace.
    ///
    /// # Errors
    ///
    /// [`PplError::FuelExhausted`] once the charged choices exceed the
    /// limit.
    pub fn charge(&mut self, trace: &Trace) -> Result<(), PplError> {
        self.spent = self.spent.saturating_add(trace.len().max(1));
        if self.spent > self.limit {
            return Err(PplError::FuelExhausted {
                budget: self.limit as u64,
            });
        }
        Ok(())
    }
}

/// The result of exactly enumerating a program: all traces with their
/// unnormalized probabilities.
#[derive(Debug, Clone)]
pub struct Enumeration {
    traces: Vec<Trace>,
    log_z: f64,
}

impl Enumeration {
    /// Exhaustively enumerates `model` with the default choice limit.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::NonEnumerable`] if the model makes a choice with
    /// non-finite support, and [`PplError::FuelExhausted`] if the
    /// enumerated traces record more choices than the limit.
    pub fn run(model: &dyn Model) -> Result<Enumeration, PplError> {
        Self::run_with_limit(model, DEFAULT_CHOICE_LIMIT)
    }

    /// Exhaustively enumerates `model`, aborting once its traces record
    /// more than `limit` choices in total ([`ChoiceBudget`]).
    ///
    /// # Errors
    ///
    /// See [`Enumeration::run`].
    pub fn run_with_limit(model: &dyn Model, limit: usize) -> Result<Enumeration, PplError> {
        let mut budget = ChoiceBudget::new(limit);
        let mut traces = Vec::new();
        // Work items are prefixes of choice-value sequences (in evaluation
        // order) that still need their first full execution.
        let mut work: Vec<Vec<Value>> = vec![Vec::new()];
        while let Some(prefix) = work.pop() {
            let mut handler = EnumHandler {
                prefix: &prefix,
                taken: Vec::new(),
                branch_supports: Vec::new(),
                trace: Trace::new(),
            };
            let value = model.exec(&mut handler)?;
            let EnumHandler {
                taken,
                branch_supports,
                mut trace,
                ..
            } = handler;
            trace.set_return_value(value);
            budget.charge(&trace)?;
            // Schedule the untried alternatives at every fresh branch point.
            for (pos, support) in branch_supports {
                for alt in support.into_iter().skip(1) {
                    let mut new_prefix = taken[..pos].to_vec();
                    new_prefix.push(alt);
                    work.push(new_prefix);
                }
            }
            traces.push(trace);
        }
        let log_z = log_sum_exp(&traces.iter().map(|t| t.score().log()).collect::<Vec<_>>());
        Ok(Enumeration { traces, log_z })
    }

    /// The log normalizing constant `log Z_P`.
    pub fn log_z(&self) -> f64 {
        self.log_z
    }

    /// The normalizing constant `Z_P` (the probability of satisfying all
    /// observations).
    pub fn z(&self) -> f64 {
        self.log_z.exp()
    }

    /// All enumerated traces (including probability-zero ones).
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Iterates over `(trace, posterior probability)` pairs, skipping
    /// zero-probability traces.
    pub fn posterior(&self) -> impl Iterator<Item = (&Trace, f64)> {
        let log_z = self.log_z;
        self.traces.iter().filter_map(move |t| {
            let s = t.score().log();
            if s == f64::NEG_INFINITY {
                None
            } else {
                Some((t, (s - log_z).exp()))
            }
        })
    }

    /// Exact posterior expectation `E_{t ∼ P}[f(t)]`.
    pub fn expectation(&self, mut f: impl FnMut(&Trace) -> f64) -> f64 {
        self.posterior().map(|(t, p)| p * f(t)).sum()
    }

    /// Exact posterior probability of an event.
    pub fn probability(&self, mut event: impl FnMut(&Trace) -> bool) -> f64 {
        self.expectation(|t| if event(t) { 1.0 } else { 0.0 })
    }

    /// Exact *prior* probability of an event: observations are ignored,
    /// choices alone weight the traces. This is what the "Prior" bars of
    /// Figure 1 show.
    pub fn prior_probability(&self, mut event: impl FnMut(&Trace) -> bool) -> f64 {
        self.traces
            .iter()
            .filter(|t| event(t))
            .map(|t| t.choice_score().prob())
            .sum()
    }

    /// Exact posterior marginal of the choice at `addr`: a list of
    /// `(value, probability)` pairs in first-seen order. Traces lacking the
    /// address are skipped (their mass is not counted).
    pub fn marginal(&self, addr: &Address) -> Vec<(Value, f64)> {
        let mut out: Vec<(Value, f64)> = Vec::new();
        for (t, p) in self.posterior() {
            if let Some(v) = t.value(addr) {
                if let Some(slot) = out.iter_mut().find(|(u, _)| u.num_eq(v)) {
                    slot.1 += p;
                } else {
                    out.push((v.clone(), p));
                }
            }
        }
        out
    }

    /// Exact posterior distribution over return values.
    pub fn return_distribution(&self) -> Vec<(Value, f64)> {
        let mut out: Vec<(Value, f64)> = Vec::new();
        for (t, p) in self.posterior() {
            if let Some(v) = t.return_value() {
                if let Some(slot) = out.iter_mut().find(|(u, _)| u.num_eq(v)) {
                    slot.1 += p;
                } else {
                    out.push((v.clone(), p));
                }
            }
        }
        out
    }
}

struct EnumHandler<'a> {
    prefix: &'a [Value],
    taken: Vec<Value>,
    /// `(position, full support)` for every choice made beyond the prefix.
    branch_supports: Vec<(usize, Vec<Value>)>,
    trace: Trace,
}

impl Handler for EnumHandler<'_> {
    fn sample(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError> {
        let pos = self.taken.len();
        let value = if pos < self.prefix.len() {
            self.prefix[pos].clone()
        } else {
            let support = dist
                .enumerate_support()
                .ok_or(PplError::NonEnumerable(addr.clone()))?;
            if support.is_empty() {
                return Err(PplError::NonEnumerable(addr));
            }
            let first = support[0].clone();
            self.branch_supports.push((pos, support));
            first
        };
        let log_prob = dist.log_prob(&value);
        self.taken.push(value.clone());
        self.trace
            .record_choice(addr, value.clone(), dist, log_prob)?;
        Ok(value)
    }

    fn observe(&mut self, addr: Address, dist: Dist, value: Value) -> Result<(), PplError> {
        let log_prob = dist.log_prob(&value);
        self.trace.record_observation(addr, value, dist, log_prob)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::addr;
    use crate::parser::parse;

    #[test]
    fn enumerates_two_flips() {
        let model = |h: &mut dyn Handler| {
            let a = h.sample(addr!["a"], Dist::flip(0.5))?;
            let _b = h.sample(addr!["b"], Dist::flip(0.5))?;
            Ok(a)
        };
        let e = Enumeration::run(&model).unwrap();
        assert_eq!(e.traces().len(), 4);
        assert!((e.z() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn example1_normalizing_constant_is_0_7() {
        // Figure 3 / Example 1: Z_P = 0.7.
        let src = r#"
            a = 1;
            b = flip(a / 3) @ b;
            if a < 2 { c = uniform(1, 6) @ c; } else { c = uniform(6, 10) @ c; }
            d = flip(b / 2) @ d;
            observe(flip(1 / 5) @ obs == d);
            return c;
        "#;
        let p = parse(src).unwrap();
        let e = Enumeration::run(&p).unwrap();
        assert!((e.z() - 0.7).abs() < 1e-12, "Z = {}", e.z());
        // 2 values of b * 6 of c * 2 of d = 24 traces.
        assert_eq!(e.traces().len(), 24);
        // Normalized probability of [b -> 1, c -> 4, d -> 1]:
        let target = (1.0 / 3.0) * (1.0 / 6.0) * 0.5 * 0.2 / 0.7;
        let prob = e.probability(|t| {
            t.value(&addr!["b"]).unwrap().num_eq(&Value::Bool(true))
                && t.value(&addr!["c"]).unwrap().num_eq(&Value::Int(4))
                && t.value(&addr!["d"]).unwrap().num_eq(&Value::Bool(true))
        });
        assert!((prob - target).abs() < 1e-12);
    }

    #[test]
    fn branching_support_enumeration() {
        // Choices guard which later choices exist.
        let model = |h: &mut dyn Handler| {
            let a = h.sample(addr!["a"], Dist::flip(0.5))?;
            if a.truthy()? {
                h.sample(addr!["b"], Dist::uniform_int(0, 2))?;
            }
            Ok(a)
        };
        let e = Enumeration::run(&model).unwrap();
        // a=false (1 trace) + a=true with 3 values of b.
        assert_eq!(e.traces().len(), 4);
        assert!((e.z() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn continuous_choice_is_an_error() {
        let model = |h: &mut dyn Handler| h.sample(addr!["x"], Dist::normal(0.0, 1.0));
        assert!(matches!(
            Enumeration::run(&model),
            Err(PplError::NonEnumerable(_))
        ));
    }

    #[test]
    fn limit_aborts_unbounded_models() {
        // A geometric loop enumerates forever, and its n-th trace records
        // n choices, so a budget of 100 choices admits 13 traces (1 + 2 +
        // … + 13 = 91), not 100.
        let model = |h: &mut dyn Handler| {
            let mut n = 0_i64;
            loop {
                let keep = h.sample(addr!["t", n], Dist::flip(0.5))?;
                if !keep.truthy()? {
                    return Ok(Value::Int(n));
                }
                n += 1;
            }
        };
        let traces = Cell::new(0);
        let counted = |h: &mut dyn Handler| {
            traces.set(traces.get() + 1);
            model(h)
        };
        assert_eq!(
            Enumeration::run_with_limit(&counted, 100).unwrap_err(),
            PplError::FuelExhausted { budget: 100 }
        );
        assert_eq!(traces.get(), 14);
    }

    #[test]
    fn a_budget_of_the_exact_total_suffices() {
        // One trace with `a` alone and three with `a` and `b`: 1 + 2 + 2 +
        // 2 = 7 choices.
        let model = |h: &mut dyn Handler| {
            let a = h.sample(addr!["a"], Dist::flip(0.5))?;
            if a.truthy()? {
                h.sample(addr!["b"], Dist::uniform_int(0, 2))?;
            }
            Ok(a)
        };
        assert_eq!(
            Enumeration::run_with_limit(&model, 7)
                .unwrap()
                .traces()
                .len(),
            4
        );
        assert_eq!(
            Enumeration::run_with_limit(&model, 6).unwrap_err(),
            PplError::FuelExhausted { budget: 6 }
        );
        // A trace without choices still costs one.
        let choice_free = |h: &mut dyn Handler| {
            h.observe(addr!["o"], Dist::flip(0.5), Value::Bool(true))?;
            Ok(Value::Int(0))
        };
        assert!(Enumeration::run_with_limit(&choice_free, 1).is_ok());
        assert!(Enumeration::run_with_limit(&choice_free, 0).is_err());
    }

    #[test]
    fn marginal_and_prior_differ_under_observation() {
        // x ~ flip(0.5); observe(flip(x ? 0.9 : 0.1) == 1)
        let model = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let p = if x.truthy()? { 0.9 } else { 0.1 };
            h.observe(addr!["o"], Dist::flip(p), Value::Bool(true))?;
            Ok(x)
        };
        let e = Enumeration::run(&model).unwrap();
        let prior = e.prior_probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        assert!((prior - 0.5).abs() < 1e-12);
        let posterior = e.probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        assert!((posterior - 0.9).abs() < 1e-12);
        let marg = e.marginal(&addr!["x"]);
        assert_eq!(marg.len(), 2);
        let ret = e.return_distribution();
        let p_true: f64 = ret
            .iter()
            .filter(|(v, _)| v.num_eq(&Value::Bool(true)))
            .map(|(_, p)| *p)
            .sum();
        assert!((p_true - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_traces_kept_but_skipped_in_posterior() {
        let model = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let p = if x.truthy()? { 1.0 } else { 0.0 };
            h.observe(addr!["o"], Dist::flip(p), Value::Bool(true))?;
            Ok(x)
        };
        let e = Enumeration::run(&model).unwrap();
        assert_eq!(e.traces().len(), 2);
        assert_eq!(e.posterior().count(), 1);
        assert!((e.z() - 0.5).abs() < 1e-12);
    }
}
