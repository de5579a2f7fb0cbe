//! Thread-count invariance of the compiled evaluation path.
//!
//! Every executor now runs register-lowered programs against pooled eval
//! frames (`ppl::compile`): forward execution, fresh graph builds, and
//! propagation rescoring all share per-stage compiled plans. Frames are
//! per-worker and a program's compiled form is shared by every worker,
//! so the worker schedule must never leak into the numbers: a fixed-seed
//! edit sequence must produce bit-identical per-stage particle weights
//! and choice maps at 1, 3, and 8 worker threads, and the summed
//! log-weight checksum must match to the bit.

use depgraph::{run_edit_sequence_supervised, ExecGraph};
use incremental::{FailurePolicy, ParticleCollection, SequenceRun, SmcConfig, StagePolicy};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const PARTICLES: usize = 160;
const SEED: u64 = 0xC0FFEE;
const THREADS: [usize; 3] = [1, 3, 8];

/// A loop-structured edit history over a latent chain: propagation
/// exercises loop records, iteration skips, choice reuse, and
/// observation rescoring — all through compiled stage plans.
fn programs() -> Vec<Program> {
    [0.5_f64, 0.65, 0.8, 0.9]
        .iter()
        .map(|hi| {
            let lo = 1.0 - hi;
            parse(&format!(
                "n = 5; prev = 1;\n\
                 for i in [0..n) {{\n\
                   x = flip(prev ? 0.7 : 0.3) @ x;\n\
                   observe(flip(x ? {hi} : {lo}) @ o == 1);\n\
                   prev = x;\n\
                 }}\n\
                 return prev;"
            ))
            .expect("chain program parses")
        })
        .collect()
}

fn run(threads: usize) -> SequenceRun<Arc<ExecGraph>> {
    let programs = programs();
    let mut rng = StdRng::seed_from_u64(11);
    let traces: Vec<_> = (0..PARTICLES)
        .map(|_| simulate(&programs[0], &mut rng).expect("prior simulation"))
        .collect();
    let initial = ParticleCollection::from_traces(traces);
    run_edit_sequence_supervised(
        &programs,
        &initial,
        0,
        &[],
        &[],
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        SEED,
        threads,
        None,
    )
    .expect("graph-native run")
}

/// Sum of finite per-particle log-weights in the final collection — the
/// same checksum the benchmark harness records.
fn checksum(run: &SequenceRun<Arc<ExecGraph>>) -> f64 {
    run.collections
        .last()
        .expect("at least one stage")
        .iter()
        .map(|p| p.log_weight.log())
        .filter(|w| w.is_finite())
        .sum()
}

#[test]
fn sequence_checksums_are_identical_across_thread_counts() {
    let reference = run(THREADS[0]);
    let ref_checksum = checksum(&reference);
    assert!(
        ref_checksum.is_finite(),
        "reference checksum {ref_checksum}"
    );
    for &threads in &THREADS[1..] {
        let candidate = run(threads);
        assert_eq!(
            ref_checksum.to_bits(),
            checksum(&candidate).to_bits(),
            "checksum diverged at {threads} threads"
        );
        assert_eq!(
            reference.collections.len(),
            candidate.collections.len(),
            "{threads} threads: stage count"
        );
        for (stage, (a, b)) in reference
            .collections
            .iter()
            .zip(&candidate.collections)
            .enumerate()
        {
            assert_eq!(a.len(), b.len(), "{threads} threads: stage {stage} size");
            for (j, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(
                    pa.log_weight.log().to_bits(),
                    pb.log_weight.log().to_bits(),
                    "{threads} threads: stage {stage} particle {j} weight"
                );
            }
        }
    }
}

/// The sweep above must actually have gone through the compiled path:
/// the process-global eval telemetry shows compiled executions and frame
/// reuse after a run.
#[test]
fn sweep_exercises_compiled_path() {
    let before = ppl::compile::eval_counters();
    let result = run(1);
    let after = ppl::compile::eval_counters();
    assert_eq!(result.collections.len(), programs().len() - 1);
    assert!(
        after.compiled_execs > before.compiled_execs,
        "expected compiled executions: {before:?} -> {after:?}"
    );
    assert!(
        after.compile_cache_hits + after.compile_cache_misses
            > before.compile_cache_hits + before.compile_cache_misses,
        "expected compiled-form lookups: {before:?} -> {after:?}"
    );
}
