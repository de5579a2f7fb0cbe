//! Deterministic fault injection for exercising the SMC failure paths.
//!
//! [`FaultyTranslator`] wraps any [`StateTranslator`] and misbehaves
//! exactly where a [`FaultPlan`] says to: "particle `j` at step `s`
//! panics / returns a NaN weight / errors". Because faults key on the
//! [`TranslateCtx`] position rather than on call order, an injected run
//! is reproducible across thread counts and retry schedules — which is
//! what lets the integration tests assert exact recovery behavior.

use std::time::Instant;

use rand::RngCore;

use ppl::{LogWeight, PplError};

use crate::translator::{StateTranslator, TranslateCtx};

/// The kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside `translate` (exercises panic isolation).
    Panic,
    /// Translate normally but overwrite the weight with a NaN log weight
    /// (exercises the non-finite-weight quarantine).
    NanWeight,
    /// Return a structured [`PplError`] (exercises error handling).
    Error,
    /// Sleep for the plan's hang duration before delegating to the inner
    /// translator, simulating a translation far slower than its deadline
    /// (see [`FaultPlan::with_hang_duration`]). Like the built-in
    /// translators, the hang is cooperative: if the attempt's
    /// [`TranslateCtx::deadline`] comes first, it wakes there and returns
    /// [`PplError::DeadlineExceeded`].
    Hang,
}

/// One planned fault: particle `particle` at step `step` misbehaves on
/// attempts `0..fail_attempts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The SMC step at which to inject.
    pub step: usize,
    /// The particle index to fault.
    pub particle: usize,
    /// What to do.
    pub kind: FaultKind,
    /// Number of leading attempts that fail; attempt `fail_attempts` and
    /// later succeed. `usize::MAX` means the particle never recovers.
    pub fail_attempts: usize,
}

impl FaultSpec {
    /// A fault that fails only the first attempt (so one retry recovers).
    pub fn once(step: usize, particle: usize, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            step,
            particle,
            kind,
            fail_attempts: 1,
        }
    }

    /// A fault that fails every attempt.
    pub fn always(step: usize, particle: usize, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            step,
            particle,
            kind,
            fail_attempts: usize::MAX,
        }
    }
}

/// A set of planned faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
    /// How long a [`FaultKind::Hang`] fault sleeps before completing.
    hang: std::time::Duration,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            faults: Vec::new(),
            hang: std::time::Duration::from_millis(500),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults — the wrapper is transparent).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.faults.push(spec);
        self
    }

    /// Sets how long [`FaultKind::Hang`] faults sleep (default 500 ms —
    /// long enough to trip any realistic test deadline, short enough to
    /// keep test wall-clock bounded).
    #[must_use]
    pub fn with_hang_duration(mut self, hang: std::time::Duration) -> FaultPlan {
        self.hang = hang;
        self
    }

    /// The configured hang duration.
    pub fn hang_duration(&self) -> std::time::Duration {
        self.hang
    }

    /// The fault (if any) scheduled for the given position.
    pub fn fault_at(&self, ctx: TranslateCtx) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| {
                f.step == ctx.step && f.particle == ctx.particle && ctx.attempt < f.fail_attempts
            })
            .map(|f| f.kind)
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A [`StateTranslator`] wrapper that injects the faults of a
/// [`FaultPlan`] and otherwise delegates to the inner translator.
#[derive(Debug, Clone)]
pub struct FaultyTranslator<T> {
    inner: T,
    plan: FaultPlan,
}

impl<T> FaultyTranslator<T> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTranslator<T> {
        FaultyTranslator { inner, plan }
    }

    /// The wrapped translator.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<S, T: StateTranslator<S>> StateTranslator<S> for FaultyTranslator<T> {
    fn translate_state(
        &self,
        state: &S,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(S, LogWeight), PplError> {
        match self.plan.fault_at(ctx) {
            Some(FaultKind::Panic) => panic!(
                "injected panic: step {} particle {} attempt {}",
                ctx.step, ctx.particle, ctx.attempt
            ),
            Some(FaultKind::Error) => Err(PplError::Other(format!(
                "injected translation error: step {} particle {} attempt {}",
                ctx.step, ctx.particle, ctx.attempt
            ))),
            Some(FaultKind::NanWeight) => {
                let (next, _) = self.inner.translate_state(state, ctx, rng)?;
                Ok((next, LogWeight::from_log(f64::NAN)))
            }
            Some(FaultKind::Hang) => {
                let wake = Instant::now() + self.plan.hang;
                match ctx.deadline {
                    Some(deadline) if deadline < wake => {
                        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                        Err(PplError::DeadlineExceeded)
                    }
                    _ => {
                        std::thread::sleep(self.plan.hang);
                        self.inner.translate_state(state, ctx, rng)
                    }
                }
            }
            None => self.inner.translate_state(state, ctx, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::{addr, Trace, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Identity;

    impl StateTranslator<Trace> for Identity {
        fn translate_state(
            &self,
            t: &Trace,
            _ctx: TranslateCtx,
            _rng: &mut dyn RngCore,
        ) -> Result<(Trace, LogWeight), PplError> {
            Ok((t.clone(), LogWeight::ONE))
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut rng = StdRng::seed_from_u64(0);
        let faulty = FaultyTranslator::new(Identity, FaultPlan::new());
        assert!(faulty.plan.is_empty());
        let (_, w) = faulty
            .translate_state(&Trace::new(), TranslateCtx::new(3, 9), &mut rng)
            .unwrap();
        assert_eq!(w, LogWeight::ONE);
    }

    #[test]
    fn error_fault_fires_only_at_its_position() {
        let mut rng = StdRng::seed_from_u64(0);
        let plan = FaultPlan::new().with(FaultSpec::always(1, 2, FaultKind::Error));
        assert_eq!(plan.len(), 1);
        let faulty = FaultyTranslator::new(Identity, plan);
        let t = Trace::new();
        assert!(faulty
            .translate_state(&t, TranslateCtx::new(1, 2), &mut rng)
            .is_err());
        assert!(faulty
            .translate_state(&t, TranslateCtx::new(1, 3), &mut rng)
            .is_ok());
        assert!(faulty
            .translate_state(&t, TranslateCtx::new(0, 2), &mut rng)
            .is_ok());
    }

    #[test]
    fn once_fault_clears_after_first_attempt() {
        let mut rng = StdRng::seed_from_u64(0);
        let plan = FaultPlan::new().with(FaultSpec::once(0, 5, FaultKind::Error));
        let faulty = FaultyTranslator::new(Identity, plan);
        let t = Trace::new();
        let ctx = TranslateCtx::new(0, 5);
        assert!(faulty.translate_state(&t, ctx, &mut rng).is_err());
        assert!(faulty
            .translate_state(&t, ctx.with_attempt(1), &mut rng)
            .is_ok());
    }

    #[test]
    fn nan_fault_poisons_the_weight_only() {
        let mut rng = StdRng::seed_from_u64(0);
        let plan = FaultPlan::new().with(FaultSpec::always(0, 0, FaultKind::NanWeight));
        let faulty = FaultyTranslator::new(Identity, plan);
        let mut t = Trace::new();
        t.record_choice(
            addr!["x"],
            Value::Int(4),
            ppl::dist::Dist::uniform_int(0, 9),
            LogWeight::ONE,
        )
        .unwrap();
        // A context-less `translate` is position (0, 0, 0), so the plan
        // fires on a standalone call too.
        let (u, w) = faulty.translate(&t, &mut rng).unwrap();
        assert!(w.is_nan());
        assert_eq!(u.to_choice_map(), t.to_choice_map());
    }

    #[test]
    fn hang_fault_delays_then_succeeds() {
        let mut rng = StdRng::seed_from_u64(0);
        let plan = FaultPlan::new()
            .with(FaultSpec::once(0, 0, FaultKind::Hang))
            .with_hang_duration(std::time::Duration::from_millis(30));
        assert_eq!(plan.hang_duration(), std::time::Duration::from_millis(30));
        let faulty = FaultyTranslator::new(Identity, plan);
        let start = std::time::Instant::now();
        let (_, w) = faulty
            .translate_state(&Trace::new(), TranslateCtx::new(0, 0), &mut rng)
            .unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(w, LogWeight::ONE);
        // A deadline before the hang ends wakes it there, with the
        // deadline error.
        let plan = FaultPlan::new()
            .with(FaultSpec::once(0, 0, FaultKind::Hang))
            .with_hang_duration(std::time::Duration::from_secs(600));
        let faulty = FaultyTranslator::new(Identity, plan);
        let start = Instant::now();
        let ctx = TranslateCtx {
            deadline: Some(start + std::time::Duration::from_millis(30)),
            ..TranslateCtx::new(0, 0)
        };
        let err = faulty
            .translate_state(&Trace::new(), ctx, &mut rng)
            .unwrap_err();
        assert_eq!(err, PplError::DeadlineExceeded);
        assert!(start.elapsed() < std::time::Duration::from_secs(60));
    }

    #[test]
    fn panic_fault_panics() {
        let plan = FaultPlan::new().with(FaultSpec::always(0, 0, FaultKind::Panic));
        let faulty = FaultyTranslator::new(Identity, plan);
        let result = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(0);
            faulty.translate_state(&Trace::new(), TranslateCtx::new(0, 0), &mut rng)
        });
        assert!(result.is_err());
    }
}
