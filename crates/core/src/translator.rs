//! Abstract trace translators (Section 4.1, Algorithm 1).
//!
//! A trace translator is a tuple `R = (P, Q, k_{P→Q}, ℓ_{Q→P})`. Its
//! `translate` operation (Algorithm 1) samples `u ∼ k_{P→Q}(·; t)` and
//! evaluates the weight estimate
//!
//! ```text
//!             P̃r[u ∼ Q] · ℓ_{Q→P}(t; u)
//! ŵ(u; t) =  ---------------------------          (Eq. 2)
//!             P̃r[t ∼ P] · k_{P→Q}(u; t)
//! ```
//!
//! which is an unbiased estimate of `(Z_Q / Z_P) · w_{P→Q}(u)` (Lemma 4 of
//! the supplement).

use std::time::Instant;

use rand::RngCore;

use ppl::{LogWeight, PplError};

/// The position of one `translate` call inside a larger SMC run: which
/// sequence step, which particle, and which attempt (0 for the first try,
/// ≥ 1 for retries under [`crate::FailurePolicy::Retry`]), plus the
/// attempt's deadline.
///
/// The runtime threads this through [`StateTranslator::translate_state`]
/// so that wrappers such as [`crate::FaultyTranslator`] can behave
/// deterministically regardless of thread count or retry schedule.
///
/// The deadline is cooperative: the runtime sets it, and a translator
/// stops itself by returning [`PplError::DeadlineExceeded`] once it has
/// passed ([`PplError::check_deadline`]). The built-in translators check
/// it where they make progress: `depgraph`'s graph walker at every fuel
/// charge, and [`crate::CorrespondenceTranslator`] at every choice and
/// observation its target model makes. A translator that never checks —
/// a closure model that spins without calling its handler, or a custom
/// translator that ignores the field — is not stopped; its result only
/// counts as a timeout once it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TranslateCtx {
    /// Index of the SMC step (stage in a program sequence).
    pub step: usize,
    /// Index of the particle being translated.
    pub particle: usize,
    /// Attempt number: 0 for the initial translation, `k` for the `k`-th
    /// retry.
    pub attempt: usize,
    /// When this attempt times out: its start plus
    /// [`crate::StagePolicy::deadline`], set by the sequence runtime for
    /// each attempt. `None` when the run has no deadline.
    pub deadline: Option<Instant>,
}

impl TranslateCtx {
    /// A context for `particle` at `step`, attempt 0, with no deadline.
    pub fn new(step: usize, particle: usize) -> TranslateCtx {
        TranslateCtx {
            step,
            particle,
            attempt: 0,
            deadline: None,
        }
    }

    /// The same position with the attempt counter set to `attempt`.
    pub fn with_attempt(self, attempt: usize) -> TranslateCtx {
        TranslateCtx { attempt, ..self }
    }
}

/// A trace translator over a particle state `S`: anything that can adapt
/// a state of one program into a weighted state of another (Algorithm 1's
/// `translate`).
///
/// The state is a flat [`ppl::Trace`] or, in the Section 6 runtime, an
/// execution graph that SMC threads through a whole program sequence
/// without flattening between stages. The returned [`LogWeight`] is the
/// weight increment `log ŵ_{P→Q}(u; t)`.
///
/// Implementations in this workspace:
/// - [`crate::CorrespondenceTranslator`] — the Section 5 translator driven
///   by a semantic correspondence of random choices, over traces;
/// - `depgraph::IncrementalTranslator` — the Section 6 optimized
///   translator that re-executes only the program slice affected by an
///   edit, over execution graphs and (lifting and flattening) traces;
/// - [`crate::FaultyTranslator`] — a fault-injecting wrapper over any
///   translator.
pub trait StateTranslator<S> {
    /// Translates `state` at a known position `ctx` within an SMC run,
    /// returning the successor state and the log weight increment.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from running the target program.
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError>;

    /// Translates `state` outside any SMC run: [`Self::translate_state`]
    /// at the default position (step 0, particle 0, attempt 0).
    ///
    /// # Errors
    ///
    /// As for [`Self::translate_state`].
    fn translate(&self, state: &S, rng: &mut dyn RngCore) -> Result<(S, LogWeight), PplError> {
        self.translate_state(state, TranslateCtx::default(), rng)
    }
}

impl<S, T: StateTranslator<S> + ?Sized> StateTranslator<S> for &T {
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError> {
        (**self).translate_state(state, ctx, rng)
    }
}

impl<S, T: StateTranslator<S> + ?Sized> StateTranslator<S> for Box<T> {
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError> {
        (**self).translate_state(state, ctx, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::Trace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A translator whose weight encodes the context it was handed, to
    /// check that wrappers forward it and that `translate` passes the
    /// default position.
    struct CtxEcho;

    impl StateTranslator<Trace> for CtxEcho {
        fn translate_state(
            &self,
            t: &Trace,
            ctx: TranslateCtx,
            _rng: &mut dyn RngCore,
        ) -> Result<(Trace, LogWeight), PplError> {
            let code = ctx.step * 100 + ctx.particle * 10 + ctx.attempt;
            Ok((t.clone(), LogWeight::from_log(code as f64)))
        }
    }

    #[test]
    fn wrappers_forward_the_context() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Trace::new();
        let ctx = TranslateCtx::new(1, 2).with_attempt(3);
        let boxed: Box<dyn StateTranslator<Trace>> = Box::new(CtxEcho);
        let (_, w) = boxed.translate_state(&t, ctx, &mut rng).unwrap();
        assert_eq!(w.log(), 123.0);
        let by_ref: &dyn StateTranslator<Trace> = &CtxEcho;
        let (_, w) = by_ref.translate_state(&t, ctx, &mut rng).unwrap();
        assert_eq!(w.log(), 123.0);
        let (_, w) = (&by_ref).translate_state(&t, ctx, &mut rng).unwrap();
        assert_eq!(w.log(), 123.0);
    }

    #[test]
    fn translate_uses_the_default_position() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Trace::new();
        let (_, w) = CtxEcho.translate(&t, &mut rng).unwrap();
        assert_eq!(w, LogWeight::ONE);
        let boxed: Box<dyn StateTranslator<Trace>> = Box::new(CtxEcho);
        let (_, w) = boxed.translate(&t, &mut rng).unwrap();
        assert_eq!(w, LogWeight::ONE);
    }
}
