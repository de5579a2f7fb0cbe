//! # depgraph — the dependency-tracking runtime of Section 6
//!
//! When `Q` results from a small edit to `P`, trace translation can avoid
//! a full execution of `Q`: this crate represents the trace as an
//! execution graph ([`ExecGraph`]), diffs the two programs
//! ([`diff_programs`]) to derive the syntactic→semantic correspondence
//! automatically, and propagates changes through the graph, re-executing
//! only the affected slice ([`IncrementalTranslator`]).
//!
//! For the Gaussian-mixture hyperparameter edit of Figure 10, translation
//! work is `O(K)` in the number of clusters, independent of the `N` data
//! points — while the baseline Section 5 translator
//! (`incremental::CorrespondenceTranslator`) visits all `O(N + K)` trace
//! elements.
//!
//! Edit histories run through `incremental`'s one stage loop:
//! [`run_edit_sequence_supervised`] diffs consecutive programs into an
//! [`edit_chain`], lifts the starting traces into graphs once
//! ([`lift_collection`]), and carries graph-native particles through every
//! edit, with failure policies, a per-attempt deadline, and checkpoint/resume
//! ([`resume_collection`]). Flat-trace runs hand the loop the same chain
//! links, which also translate `Trace` particles.
//!
//! Loops are fully supported: `for` iterations are keyed by the loop
//! variable and `while` iterations by their iteration counter, matching
//! the interpreter's Section 5.4 addressing, so unchanged iterations are
//! skipped and reused by reference.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod build;
pub mod diff;
mod eval;
mod flatten;
pub mod impact;
pub mod plan;
pub mod propagate;
pub mod record;
pub mod sequence;
pub mod translator;

pub use diff::{diff_programs, BlockDiff, DiffOp, ProgramEdit, StmtDiff};
pub use impact::{change_seed, impact_of_edit, EditImpact};
pub use plan::StagePlan;
pub use propagate::{set_verify_slices, verify_slices_enabled, IncrementalResult};
pub use record::{program_fingerprint, ExecGraph};
pub use sequence::{
    edit_chain, edit_chain_shared, lift_collection, resume_collection, run_edit_sequence_supervised,
};
pub use translator::IncrementalTranslator;
