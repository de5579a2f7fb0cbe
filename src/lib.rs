//! # incremental-ppl — incremental inference for probabilistic programs
//!
//! An umbrella crate re-exporting the whole workspace, a faithful
//! reproduction of *Incremental Inference for Probabilistic Programs*
//! (Cusumano-Towner, Bichsel, Gehr, Vechev, Mansinghka — PLDI 2018):
//!
//! - [`ppl`] — the probabilistic language substrate: surface language,
//!   traced interpreters, traces, distributions, exact enumeration;
//! - [`incremental`] — trace translators and SMC (the paper's primary
//!   contribution: Sections 4–5);
//! - [`inference`] — baseline samplers (MH, Gibbs, rejection, importance)
//!   and exact substrates (FFBS, conjugate regression);
//! - [`depgraph`] — the dependency-tracking runtime and edit-derived
//!   correspondences (Section 6);
//! - [`models`] — the evaluation model zoo and synthetic data sets.
//!
//! # Quickstart
//!
//! ```
//! use incremental_ppl::prelude::*;
//! use rand::SeedableRng;
//!
//! // P: a coin with a noisy observation.
//! let p = |h: &mut dyn Handler| -> Result<Value, PplError> {
//!     let x = h.sample(addr!["x"], Dist::flip(0.5))?;
//!     let po = if x.truthy()? { 0.8 } else { 0.2 };
//!     h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
//!     Ok(x)
//! };
//! // Q: the same model with a stronger observation.
//! let q = |h: &mut dyn Handler| -> Result<Value, PplError> {
//!     let x = h.sample(addr!["x"], Dist::flip(0.5))?;
//!     let po = if x.truthy()? { 0.95 } else { 0.05 };
//!     h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
//!     Ok(x)
//! };
//! let translator = CorrespondenceTranslator::new(p, q, Correspondence::identity_on(["x"]));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let posterior_p = inference::ExactPosterior::new(&p)?;
//! let particles = ParticleCollection::from_traces(posterior_p.samples(5_000, &mut rng));
//! let adapted = infer(&translator, None, &particles, &SmcConfig::translate_only(), &mut rng)?;
//! let estimate = adapted.probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())?;
//! assert!((estimate - 0.95).abs() < 0.05);
//! # Ok::<(), PplError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub use depgraph;
pub use incremental;
pub use inference;
pub use models;
pub use ppl;

/// Everything needed for typical incremental-inference workflows.
pub mod prelude {
    pub use incremental::{
        infer, infer_without_weights, resample, run_state_sequence_supervised, Correspondence,
        CorrespondenceTranslator, FailurePolicy, McmcKernel, Particle, ParticleCollection,
        ResamplePolicy, ResampleScheme, SmcConfig, StagePolicy, StateTranslator,
    };
    pub use ppl::dist::Dist;
    pub use ppl::handlers::{generate, score, simulate};
    pub use ppl::{
        addr, Address, ChoiceMap, Enumeration, Handler, LogWeight, Model, PplError, Trace, Value,
    };
}
