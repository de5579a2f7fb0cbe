//! # incremental — trace translators and SMC for incremental inference
//!
//! The primary contribution of *Incremental Inference for Probabilistic
//! Programs* (PLDI 2018): adapt posterior samples (traces) of a program
//! `P` into weighted posterior samples of a related program `Q`, with SMC
//! convergence guarantees.
//!
//! - [`StateTranslator`] — the abstract translator tuple
//!   `R = (P, Q, k_{P→Q}, ℓ_{Q→P})` and Algorithm 1's `translate`, over
//!   flat traces or any other particle state.
//! - [`Correspondence`] + [`CorrespondenceTranslator`] — the Section 5
//!   translator: reuse corresponding random choices, sample the rest,
//!   weight by Eq. (8).
//! - [`infer`] — Algorithm 2: translate, reweight, optionally
//!   [`resample()`](resample::resample), optionally rejuvenate with an [`McmcKernel`].
//! - [`ParticleCollection`] — weighted collections and the Eq. (5)
//!   estimator; [`diagnostics`] — effective-sample-size monitoring.
//! - [`run_state_sequence_supervised`] — the one stage loop: iterated SMC
//!   across program sequences (Section 4.2), for flat traces or any
//!   other particle state, with pooled or inline translation, failure
//!   policies, a per-attempt deadline, and checkpoint/resume.
//! - [`health`] + [`fault`] — the fault-tolerant runtime:
//!   [`infer_with_policy`] isolates per-particle panics, quarantines
//!   NaN/`+∞` weights, and applies a [`FailurePolicy`] (fail fast, drop
//!   and renormalize, or retry with reseeded RNGs), reporting each step
//!   in a [`StepReport`]; [`FaultyTranslator`] injects deterministic
//!   faults for testing.
//! - [`translator_error`] — the exact error ε(R) of Eq. (4) and its
//!   Section 5.3 decomposition, by enumeration.
//!
//! # Example: Figure 1, end to end
//!
//! ```
//! use incremental::{infer, Correspondence, CorrespondenceTranslator,
//!                   ParticleCollection, SmcConfig};
//! use ppl::{addr, Handler, PplError, Value};
//! use ppl::dist::Dist;
//! use ppl::handlers::simulate;
//! use rand::SeedableRng;
//!
//! // Original burglary model (Fig. 1 left).
//! let p = |h: &mut dyn Handler| {
//!     let burglary = h.sample(addr!["b"], Dist::flip(0.02))?;
//!     let p_alarm = if burglary.truthy()? { 0.9 } else { 0.01 };
//!     let alarm = h.sample(addr!["a"], Dist::flip(p_alarm))?;
//!     let p_wakes = if alarm.truthy()? { 0.8 } else { 0.05 };
//!     h.observe(addr!["o"], Dist::flip(p_wakes), Value::Bool(true))?;
//!     Ok(burglary)
//! };
//! // Refined model with an earthquake variable (Fig. 1 right).
//! let q = |h: &mut dyn Handler| {
//!     let burglary = h.sample(addr!["b"], Dist::flip(0.02))?;
//!     let quake = h.sample(addr!["e"], Dist::flip(0.005))?;
//!     let p_alarm = if quake.truthy()? { 0.95 }
//!                   else if burglary.truthy()? { 0.9 } else { 0.01 };
//!     let alarm = h.sample(addr!["a"], Dist::flip(p_alarm))?;
//!     let p_wakes = if alarm.truthy()? {
//!         if quake.truthy()? { 0.9 } else { 0.8 }
//!     } else { 0.05 };
//!     h.observe(addr!["o"], Dist::flip(p_wakes), Value::Bool(true))?;
//!     Ok(burglary)
//! };
//! let translator = CorrespondenceTranslator::new(p, q,
//!     Correspondence::identity_on(["b", "a"]));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let traces = (0..50).map(|_| simulate(&p, &mut rng)).collect::<Result<Vec<_>, _>>()?;
//! let particles = ParticleCollection::from_traces(traces);
//! let adapted = infer(&translator, None, &particles,
//!                     &SmcConfig::translate_only(), &mut rng)?;
//! assert_eq!(adapted.len(), 50);
//! # Ok::<(), PplError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod checkpoint;
pub mod correspondence;
pub mod diagnostics;
pub mod error_decomp;
pub mod fault;
pub mod forward;
pub mod health;
pub mod mcmc;
pub mod metrics;
pub mod particles;
pub mod pool;
pub mod resample;
pub mod sequence;
pub mod smc;
pub mod translator;

pub use checkpoint::{collection_checksum, Checkpoint, CheckpointError};
pub use correspondence::{Correspondence, CoverageReport};
pub use error_decomp::{translator_error, TranslatorErrorReport};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultyTranslator};
pub use forward::{
    exact_weight_estimate, CorrespondenceTranslator, FreshProposal, FreshReason, TranslationStats,
};
pub use health::{
    retry_seed, FailureKind, FailurePolicy, ParticleFailure, SmcError, StagePolicy, StepReport,
};
pub use mcmc::{IdentityKernel, McmcKernel};
pub use metrics::{
    EvalTelemetry, MetricsGuard, MetricsRecorder, MetricsReport, PoolTelemetry,
    PropagationCounters, StageMetrics,
};
pub use particles::{Particle, ParticleCollection, ParticleState};
pub use pool::WorkerPool;
pub use resample::{resample, ResampleError, ResampleScheme};
pub use sequence::{
    resample_seed, run_state_sequence_supervised, stage_seed, SequenceRun, StageObserver,
    StageSnapshot,
};
pub use smc::{infer, infer_with_policy, infer_without_weights, ResamplePolicy, SmcConfig};
pub use translator::{StateTranslator, TranslateCtx};
