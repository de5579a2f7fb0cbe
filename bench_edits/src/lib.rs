//! # bench_edits — the edit-session benchmark
//!
//! Drives closed-loop edit sessions through the incremental runtime's
//! public API and reports what a user waits for (per-edit latency,
//! set-up time, throughput, memory) and, in a separate traced run, where
//! that time goes layer by layer. See `BENCHMARK.md` next to this crate.

pub mod json;
pub mod session;
pub mod suite;
pub mod trace;
pub mod workload;

/// Directory, relative to the working directory, that runs write their
/// traces, checkpoints and suite files into.
pub const OUT_DIR: &str = ".bench_out";
