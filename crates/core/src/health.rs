//! Failure taxonomy, recovery policies, and per-step health reports for
//! the SMC runtime.
//!
//! Algorithm 2 assumes every `translate` call succeeds and returns a
//! usable weight. In a long-running system neither holds: user-supplied
//! model code can return errors, panic, or produce NaN/infinite weight
//! estimates (e.g. a density ratio of `∞/∞` from a mis-specified
//! correspondence). This module gives those events a structured
//! vocabulary:
//!
//! - [`ParticleFailure`] / [`FailureKind`] — what went wrong, for which
//!   particle, after how many attempts;
//! - [`FailurePolicy`] — what the runtime should do about it (abort,
//!   quarantine, or retry with a reseeded RNG);
//! - [`SmcError`] — the typed errors a policy-aware step can surface;
//! - [`StepReport`] — what actually happened during one step (ESS,
//!   drops, retries, collapse events), for monitoring and tests.
//!
//! The soundness story: dropping a failed particle and renormalizing over
//! the survivors keeps the collection properly weighted for the same
//! target (it is a smaller importance sample), as long as failures are
//! independent of the latent values — which is why the loss fraction is
//! bounded and every drop is reported rather than silent.

use std::fmt;

use ppl::PplError;

/// Why a single particle's translation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The translator returned a structured evaluation error.
    Error(PplError),
    /// The translator panicked; the captured payload message.
    Panic(String),
    /// Translation produced a weight whose log is NaN or `+∞`. The
    /// offending log-weight is carried for diagnosis (`-∞` — a zero
    /// weight — is *not* a failure; it is a valid degenerate weight).
    NonFiniteWeight(f64),
    /// The attempt did not finish within its deadline
    /// ([`StagePolicy::deadline`]): it stopped itself there with
    /// [`PplError::DeadlineExceeded`], or it came back after the deadline,
    /// whatever it returned. A translation that never checks the deadline
    /// is not stopped, so it becomes a timeout only once it returns.
    Timeout {
        /// The configured deadline in milliseconds (not the time
        /// measured, so reports are reproducible).
        waited_ms: u64,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Error(e) => write!(f, "translation error: {e}"),
            FailureKind::Panic(msg) => write!(f, "translation panicked: {msg}"),
            FailureKind::NonFiniteWeight(w) => {
                write!(f, "non-finite log weight {w} from translation")
            }
            FailureKind::Timeout { waited_ms } => {
                write!(f, "translation timed out after {waited_ms} ms")
            }
        }
    }
}

/// The failure record of one particle at one SMC step.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleFailure {
    /// The SMC step (stage index) at which the failure happened.
    pub step: usize,
    /// The index of the failed particle.
    pub particle: usize,
    /// How many attempts were made (1 = failed on the first try with no
    /// retries).
    pub attempts: usize,
    /// What went wrong on the last attempt.
    pub kind: FailureKind,
}

impl fmt::Display for ParticleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "particle {} at step {} failed after {} attempt(s): {}",
            self.particle, self.step, self.attempts, self.kind
        )
    }
}

/// How a policy-aware SMC step responds to particle failures.
///
/// All variants isolate panics (a panicking particle never takes down the
/// run un-reported) and quarantine non-finite weights at the collection
/// boundary; they differ in what happens next.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailurePolicy {
    /// Abort the step on the first failure with
    /// [`SmcError::Particle`]. The default — matches the legacy
    /// error-propagating behavior, plus panic capture.
    #[default]
    FailFast,
    /// Quarantine failed particles: drop them and renormalize over the
    /// survivors, as long as at most `max_loss` (a fraction in `[0, 1]`)
    /// of the collection is lost; otherwise the step fails with
    /// [`SmcError::TooManyDropped`]. Every drop is recorded in the
    /// [`StepReport`].
    DropAndRenormalize {
        /// Maximum tolerated fraction of dropped particles per step.
        max_loss: f64,
    },
    /// Re-run a failed particle's translation with a fresh RNG seeded
    /// deterministically from `seed` and the particle's position
    /// ([`retry_seed`]), up to `max_attempts` total attempts. A particle
    /// still failing after the budget aborts the step with
    /// [`SmcError::Particle`] (with `attempts = max_attempts`).
    Retry {
        /// Total attempts per particle, counting the first (must be ≥ 1;
        /// 1 behaves like [`FailurePolicy::FailFast`]).
        max_attempts: usize,
        /// Base seed for deterministic reseeding of retry attempts.
        seed: u64,
    },
}

impl FailurePolicy {
    /// The retry budget: total attempts allowed per particle.
    pub fn max_attempts(&self) -> usize {
        match self {
            FailurePolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
            _ => 1,
        }
    }

    /// Whether a step that dropped `dropped` of `total` particles is
    /// within this policy's tolerated loss.
    pub fn loss_allowed(&self, dropped: usize, total: usize) -> bool {
        match self {
            FailurePolicy::DropAndRenormalize { max_loss } => {
                if total == 0 {
                    return dropped == 0;
                }
                dropped as f64 / total as f64 <= *max_loss
            }
            // Fail-fast and retry tolerate no drops at all.
            _ => dropped == 0,
        }
    }
}

/// Deterministic seed for retry attempt `attempt` of `particle` at `step`
/// (SplitMix64-style finalizer over the packed position).
///
/// The derived stream is independent of thread count and of how many
/// random draws earlier particles consumed, so retries reproduce exactly
/// across runs and parallel schedules.
pub fn retry_seed(seed: u64, step: usize, particle: usize, attempt: usize) -> u64 {
    let mut z = seed
        ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (particle as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (attempt as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-stage supervision policy for a sequence run: how often to
/// checkpoint, and how long one translation attempt may run.
///
/// Orthogonal to [`FailurePolicy`], which decides what happens to a
/// particle once it *has* failed (including by
/// [`FailureKind::Timeout`]): retry, drop, or abort.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StagePolicy {
    /// Checkpoint every `n` completed stages (`0` = never). The final
    /// stage is always checkpointed when checkpointing is enabled.
    pub checkpoint_every: usize,
    /// Per-attempt translation deadline, counted from the attempt's start
    /// (queueing is never charged). The runtime hands each attempt its
    /// end in [`crate::TranslateCtx::deadline`], and the translation
    /// stops itself there: `depgraph`'s graph walker checks at every fuel
    /// charge, [`crate::CorrespondenceTranslator`] at every choice and
    /// observation. The contract is cooperative. A translation that never
    /// checks, such as a closure model that spins without calling its
    /// handler or a custom translator that ignores the field, runs until
    /// it returns and holds its worker until then; its result then counts
    /// as a [`FailureKind::Timeout`]. `None` sets no deadline.
    pub deadline: Option<std::time::Duration>,
}

impl StagePolicy {
    /// A policy that checkpoints every `n` stages with no deadline.
    pub fn checkpoint_every(n: usize) -> StagePolicy {
        StagePolicy {
            checkpoint_every: n,
            ..StagePolicy::default()
        }
    }

    /// Sets the per-attempt deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> StagePolicy {
        self.deadline = Some(deadline);
        self
    }
}

/// Typed errors from a policy-aware SMC step.
#[derive(Debug, Clone, PartialEq)]
pub enum SmcError {
    /// A particle failed under [`FailurePolicy::FailFast`], or exhausted
    /// its retry budget under [`FailurePolicy::Retry`].
    Particle(ParticleFailure),
    /// More particles failed than
    /// [`FailurePolicy::DropAndRenormalize`]'s `max_loss` tolerates.
    TooManyDropped {
        /// The SMC step at which the loss occurred.
        step: usize,
        /// Number of particles dropped.
        dropped: usize,
        /// Collection size before the step.
        total: usize,
        /// The policy's tolerated loss fraction.
        max_loss: f64,
        /// The failure records of the dropped particles.
        failures: Vec<ParticleFailure>,
    },
    /// Every surviving weight is zero (ESS = 0) and the policy is
    /// fail-fast: the particle approximation has collapsed.
    Collapse {
        /// The SMC step at which the collapse was detected.
        step: usize,
    },
    /// An evaluation error outside per-particle translation (resampling a
    /// pathological collection, MCMC rejuvenation, ...).
    Eval(PplError),
    /// The parallel runtime itself misbehaved (a worker thread died
    /// outside user translation code, or a particle slot was never
    /// filled). Indicates a bug in the harness, not the model.
    Internal(String),
}

impl fmt::Display for SmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmcError::Particle(failure) => write!(f, "{failure}"),
            SmcError::TooManyDropped {
                step,
                dropped,
                total,
                max_loss,
                ..
            } => write!(
                f,
                "step {step} dropped {dropped} of {total} particles, \
                 exceeding the tolerated loss fraction {max_loss}"
            ),
            SmcError::Collapse { step } => write!(
                f,
                "step {step}: all particle weights are zero; the approximation has collapsed"
            ),
            SmcError::Eval(e) => write!(f, "{e}"),
            SmcError::Internal(msg) => write!(f, "internal SMC runtime error: {msg}"),
        }
    }
}

impl std::error::Error for SmcError {}

impl From<PplError> for SmcError {
    fn from(e: PplError) -> SmcError {
        SmcError::Eval(e)
    }
}

impl From<SmcError> for PplError {
    /// Flattens a typed SMC error for legacy `PplError` call sites,
    /// preserving the underlying evaluation error when there is one.
    fn from(e: SmcError) -> PplError {
        match e {
            SmcError::Particle(ParticleFailure {
                kind: FailureKind::Error(inner),
                ..
            }) => inner,
            SmcError::Eval(inner) => inner,
            other => PplError::Other(other.to_string()),
        }
    }
}

/// What happened during one policy-aware SMC step.
///
/// A clean step has `dropped == 0`, `retries == 0`, empty `failures`, and
/// `collapse_recovered == false`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// The step (stage) index.
    pub step: usize,
    /// Collection size before the step.
    pub input_particles: usize,
    /// Collection size after the step.
    pub output_particles: usize,
    /// Effective sample size after reweighting, before any resampling —
    /// the degeneracy diagnostic of Section 4.2.
    pub ess: f64,
    /// Number of particles quarantined (dropped) this step.
    pub dropped: usize,
    /// Total retry attempts made this step (beyond first attempts).
    pub retries: usize,
    /// Particles that succeeded only after at least one retry.
    pub recovered: usize,
    /// Failure records of every quarantined particle (empty unless the
    /// policy drops).
    pub failures: Vec<ParticleFailure>,
    /// Whether resampling ran this step.
    pub resampled: bool,
    /// Whether a total weight collapse was detected and recovered from by
    /// keeping the pre-step collection.
    pub collapse_recovered: bool,
}

impl StepReport {
    /// Whether the step completed without failures, drops, retries, or
    /// collapse events.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0
            && self.retries == 0
            && self.recovered == 0
            && self.failures.is_empty()
            && !self.collapse_recovered
    }
}

impl fmt::Display for StepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: {} -> {} particles, ess {:.2}",
            self.step, self.input_particles, self.output_particles, self.ess
        )?;
        if self.dropped > 0 {
            write!(f, ", dropped {}", self.dropped)?;
        }
        if self.retries > 0 {
            write!(
                f,
                ", {} retries ({} recovered)",
                self.retries, self.recovered
            )?;
        }
        if self.resampled {
            write!(f, ", resampled")?;
        }
        if self.collapse_recovered {
            write!(f, ", collapse recovered")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kinds_display() {
        let e = FailureKind::Error(PplError::DivisionByZero);
        assert!(e.to_string().contains("division by zero"));
        let p = FailureKind::Panic("boom".into());
        assert!(p.to_string().contains("boom"));
        let w = FailureKind::NonFiniteWeight(f64::NAN);
        assert!(w.to_string().contains("NaN"));
        let failure = ParticleFailure {
            step: 2,
            particle: 7,
            attempts: 3,
            kind: w,
        };
        let msg = failure.to_string();
        assert!(msg.contains("particle 7") && msg.contains("step 2") && msg.contains("3 attempt"));
    }

    #[test]
    fn timeout_kind_displays_wait() {
        let t = FailureKind::Timeout { waited_ms: 250 };
        assert!(t.to_string().contains("250 ms"));
    }

    #[test]
    fn stage_policy_builders() {
        let p =
            StagePolicy::checkpoint_every(4).with_deadline(std::time::Duration::from_millis(200));
        assert_eq!(p.checkpoint_every, 4);
        assert_eq!(p.deadline, Some(std::time::Duration::from_millis(200)));
        let q = StagePolicy::default();
        assert_eq!(q.checkpoint_every, 0);
        assert!(q.deadline.is_none());
    }

    #[test]
    fn policy_loss_budgets() {
        let ff = FailurePolicy::FailFast;
        assert!(ff.loss_allowed(0, 10));
        assert!(!ff.loss_allowed(1, 10));
        assert_eq!(ff.max_attempts(), 1);

        let drop = FailurePolicy::DropAndRenormalize { max_loss: 0.2 };
        assert!(drop.loss_allowed(2, 10));
        assert!(!drop.loss_allowed(3, 10));
        assert!(drop.loss_allowed(0, 0));
        assert_eq!(drop.max_attempts(), 1);

        let retry = FailurePolicy::Retry {
            max_attempts: 3,
            seed: 42,
        };
        assert_eq!(retry.max_attempts(), 3);
        assert!(!retry.loss_allowed(1, 10));
        // A zero budget still allows the mandatory first attempt.
        let degenerate = FailurePolicy::Retry {
            max_attempts: 0,
            seed: 0,
        };
        assert_eq!(degenerate.max_attempts(), 1);
    }

    #[test]
    fn retry_seeds_are_distinct_and_deterministic() {
        let a = retry_seed(1, 0, 0, 1);
        assert_eq!(a, retry_seed(1, 0, 0, 1));
        // Varying any coordinate changes the seed.
        assert_ne!(a, retry_seed(2, 0, 0, 1));
        assert_ne!(a, retry_seed(1, 1, 0, 1));
        assert_ne!(a, retry_seed(1, 0, 1, 1));
        assert_ne!(a, retry_seed(1, 0, 0, 2));
    }

    #[test]
    fn smc_error_round_trips_to_ppl_error() {
        let inner = PplError::DivisionByZero;
        let e = SmcError::Particle(ParticleFailure {
            step: 0,
            particle: 1,
            attempts: 1,
            kind: FailureKind::Error(inner.clone()),
        });
        assert_eq!(PplError::from(e), inner);
        let e = SmcError::Eval(inner.clone());
        assert_eq!(PplError::from(e), inner);
        let e = SmcError::Collapse { step: 3 };
        match PplError::from(e) {
            PplError::Other(msg) => assert!(msg.contains("step 3")),
            other => panic!("expected Other, got {other:?}"),
        }
    }

    #[test]
    fn report_cleanliness_and_display() {
        let clean = StepReport {
            step: 0,
            input_particles: 10,
            output_particles: 10,
            ess: 9.5,
            dropped: 0,
            retries: 0,
            recovered: 0,
            failures: vec![],
            resampled: false,
            collapse_recovered: false,
        };
        assert!(clean.is_clean());
        let mut dirty = clean.clone();
        dirty.dropped = 1;
        dirty.resampled = true;
        assert!(!dirty.is_clean());
        let msg = dirty.to_string();
        assert!(msg.contains("dropped 1") && msg.contains("resampled"));
    }
}
