//! Differential kill-and-resume tests for the crash-safe sequence runner.
//!
//! The contract under test: a supervised edit-sequence run that is killed
//! mid-sequence and resumed from its last durable checkpoint produces a
//! final particle collection **bit-identical** to an uninterrupted run —
//! for serial and pooled execution, for flat-trace and graph-native
//! particle representations, and with ESS-triggered resampling enabled
//! (so the per-stage resampling seeds are exercised, not just
//! translation). "Bit-identical" is checked through
//! [`collection_checksum`], which hashes the serialized choice maps and
//! exact log-weight bits.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use depgraph::{edit_chain, resume_collection, run_edit_sequence_supervised, ExecGraph};
use incremental::{
    collection_checksum, run_state_sequence_supervised, Checkpoint, CheckpointError, FailurePolicy,
    ParticleCollection, ParticleState, ResamplePolicy, SequenceRun, SmcConfig, SmcError,
    StageObserver, StagePolicy, StageSnapshot, StateTranslator, StepReport,
};
use ppl::ast::Program;
use ppl::handlers::simulate;
use ppl::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTICLES: usize = 120;
const SEED: u64 = 20_260_808;

/// A 4-program (3-stage) observation-strength edit history over a small
/// latent chain. The first program is uninformative enough that prior
/// simulations serve as its posterior samples.
fn programs() -> Vec<Program> {
    chain_programs(&[0.5, 0.6, 0.8, 0.9])
}

fn chain_programs(strengths: &[f64]) -> Vec<Program> {
    strengths
        .iter()
        .map(|hi| {
            let lo = 1.0 - hi;
            parse(&format!(
                "n = 3; prev = 1;\n\
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

fn initial(ps: &[Program]) -> ParticleCollection {
    let mut rng = StdRng::seed_from_u64(7);
    let traces: Vec<_> = (0..PARTICLES)
        .map(|_| simulate(&ps[0], &mut rng).expect("prior simulation"))
        .collect();
    ParticleCollection::from_traces(traces)
}

/// ESS-triggered resampling, so resumed runs must also reproduce the
/// resampling RNG stream (derived from `resample_seed(base_seed, step)`).
fn config() -> SmcConfig {
    SmcConfig {
        resample: ResamplePolicy::EssBelow(0.9),
        ..SmcConfig::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppl-ckpt-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checksum of a collection's serialized flat form.
fn checksum<S: ParticleState>(collection: &ParticleCollection<S>) -> u64 {
    let flat = collection.flatten().expect("flatten");
    let entries: Vec<_> = flat
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect();
    collection_checksum(&entries)
}

/// The checkpoint text of a stage snapshot.
fn rendered<S: ParticleState>(
    ps: &[Program],
    snap: &StageSnapshot<'_, S>,
) -> Result<String, SmcError> {
    let fp = depgraph::program_fingerprint(&ps[snap.step]);
    let ck = Checkpoint::from_snapshot(snap, SEED, fp).map_err(SmcError::Eval)?;
    Ok(ck.render())
}

/// An observer that saves every stage checkpoint into `dir` and then
/// simulates a crash (kills the run) right after writing the checkpoint
/// for `crash_after` completed stages.
fn crashing_saver<S: ParticleState>(
    ps: &[Program],
    dir: PathBuf,
    crash_after: usize,
) -> impl FnMut(&StageSnapshot<'_, S>) -> Result<(), SmcError> + '_ {
    move |snap| {
        let fp = depgraph::program_fingerprint(&ps[snap.step]);
        let ck = Checkpoint::from_snapshot(snap, SEED, fp).map_err(SmcError::Eval)?;
        ck.save(&dir)
            .map_err(|e| SmcError::Internal(e.to_string()))?;
        if snap.step == crash_after {
            return Err(SmcError::Internal("simulated crash (SIGKILL)".to_string()));
        }
        Ok(())
    }
}

fn run_graph(
    ps: &[Program],
    start: &ParticleCollection,
    start_step: usize,
    prior_ess: &[f64],
    prior_reports: &[StepReport],
    threads: usize,
    observer: Option<&mut StageObserver<'_, Arc<ExecGraph>>>,
) -> Result<SequenceRun<Arc<ExecGraph>>, SmcError> {
    run_edit_sequence_supervised(
        ps,
        start,
        start_step,
        prior_ess,
        prior_reports,
        &config(),
        &FailurePolicy::FailFast,
        &StagePolicy::checkpoint_every(1),
        SEED,
        threads,
        observer,
    )
}

fn run_flat(
    ps: &[Program],
    start: &ParticleCollection,
    start_step: usize,
    prior_ess: &[f64],
    prior_reports: &[StepReport],
    threads: usize,
    observer: Option<&mut StageObserver<'_, ppl::Trace>>,
) -> Result<SequenceRun, SmcError> {
    // Flat-trace stages: the remaining edit-chain links behind the trace
    // adapter, run through the same loop as the graph-native runner.
    let stages: Vec<Arc<dyn StateTranslator<ppl::Trace> + Send + Sync>> =
        edit_chain(&ps[start_step..])
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn StateTranslator<ppl::Trace> + Send + Sync>)
            .collect();
    run_state_sequence_supervised(
        &stages,
        start,
        start_step,
        prior_ess,
        prior_reports,
        &config(),
        &FailurePolicy::FailFast,
        &StagePolicy::checkpoint_every(1),
        SEED,
        threads,
        observer,
    )
}

#[test]
fn graph_native_kill_and_resume_is_bit_identical() {
    let ps = programs();
    let start = initial(&ps);
    let reference = run_graph(&ps, &start, 0, &[], &[], 1, None).expect("uninterrupted run");
    let reference_sum = checksum(reference.last());

    for threads in [1, 4] {
        let dir = temp_dir(&format!("graph-{threads}"));
        // Kill the run right after the checkpoint for 2 completed stages.
        let mut saver = crashing_saver::<Arc<ExecGraph>>(&ps, dir.clone(), 2);
        let killed = run_graph(&ps, &start, 0, &[], &[], threads, Some(&mut saver));
        assert!(killed.is_err(), "simulated crash must abort the run");

        let (_, ck) = Checkpoint::latest_in(&dir)
            .expect("scan checkpoints")
            .expect("a checkpoint was written");
        assert_eq!(ck.step, 2);
        assert_eq!(ck.ess_history.len(), 2);
        let restored = resume_collection(&ps, &ck).expect("resume from checkpoint");
        let resumed = run_graph(
            &ps,
            &restored,
            ck.step,
            &ck.ess_history,
            &ck.reports,
            threads,
            None,
        )
        .expect("resumed run");

        assert_eq!(
            checksum(resumed.last()),
            reference_sum,
            "threads={threads}: resumed collection differs from uninterrupted run"
        );
        assert_eq!(resumed.ess_history, reference.ess_history);
        assert_eq!(resumed.reports, reference.reports);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn flat_kill_and_resume_is_bit_identical() {
    let ps = programs();
    let start = initial(&ps);
    let reference = run_flat(&ps, &start, 0, &[], &[], 1, None).expect("uninterrupted run");
    let reference_sum = checksum(reference.last());

    for threads in [1, 4] {
        let dir = temp_dir(&format!("flat-{threads}"));
        let mut saver = crashing_saver::<ppl::Trace>(&ps, dir.clone(), 1);
        let killed = run_flat(&ps, &start, 0, &[], &[], threads, Some(&mut saver));
        assert!(killed.is_err(), "simulated crash must abort the run");

        let (_, ck) = Checkpoint::latest_in(&dir)
            .expect("scan checkpoints")
            .expect("a checkpoint was written");
        assert_eq!(ck.step, 1);
        let restored = resume_collection(&ps, &ck).expect("resume from checkpoint");
        let resumed = run_flat(
            &ps,
            &restored,
            ck.step,
            &ck.ess_history,
            &ck.reports,
            threads,
            None,
        )
        .expect("resumed run");

        assert_eq!(
            checksum(resumed.last()),
            reference_sum,
            "threads={threads}: resumed collection differs from uninterrupted run"
        );
        assert_eq!(resumed.ess_history, reference.ess_history);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flat-trace and graph-native supervised runs agree bit-for-bit — the
/// same representation-independence contract `graph_native.rs` pins,
/// here on the checkpointing path with resampling enabled.
#[test]
fn flat_and_graph_supervised_runs_agree() {
    let ps = programs();
    let start = initial(&ps);
    let graph = run_graph(&ps, &start, 0, &[], &[], 2, None).expect("graph run");
    let flat = run_flat(&ps, &start, 0, &[], &[], 2, None).expect("flat run");
    assert_eq!(checksum(graph.last()), checksum(flat.last()));
    assert_eq!(graph.ess_history, flat.ess_history);
}

/// Graph-native checkpoints are the same bytes as flat ones at every
/// step: a graph checkpoint flattens each graph that resampling left
/// shared once and copies its rendered block to the duplicates, and the
/// text equals what flattening every trace gives. At least one graph
/// checkpoint holds fewer distinct states than particles, so the copy
/// path runs.
#[test]
fn graph_checkpoints_are_byte_identical_to_flat_ones() {
    let ps = programs();
    let start = initial(&ps);
    let mut graph_texts = Vec::new();
    let mut shared_checkpoints = 0;
    let mut graph_saver = |snap: &StageSnapshot<'_, Arc<ExecGraph>>| -> Result<(), SmcError> {
        let distinct: HashSet<usize> = snap
            .collection
            .iter()
            .map(|p| p.trace.share_key().expect("an `Arc` state has a key"))
            .collect();
        shared_checkpoints += usize::from(distinct.len() < snap.collection.len());
        graph_texts.push(rendered(&ps, snap)?);
        Ok(())
    };
    run_graph(&ps, &start, 0, &[], &[], 2, Some(&mut graph_saver)).expect("graph run");
    let mut flat_texts = Vec::new();
    let mut flat_saver = |snap: &StageSnapshot<'_, ppl::Trace>| -> Result<(), SmcError> {
        flat_texts.push(rendered(&ps, snap)?);
        Ok(())
    };
    run_flat(&ps, &start, 0, &[], &[], 2, Some(&mut flat_saver)).expect("flat run");

    assert_eq!(graph_texts.len(), ps.len() - 1, "one checkpoint per stage");
    assert_eq!(flat_texts.len(), graph_texts.len());
    for (step, (graph, flat)) in graph_texts.iter().zip(&flat_texts).enumerate() {
        assert!(graph == flat, "checkpoint after stage {step} differs");
    }
    assert!(
        shared_checkpoints > 0,
        "no graph checkpoint held shared states"
    );
}

/// A checkpoint taken against one program chain must refuse to resume
/// into an edited chain whose program at that step fingerprints
/// differently: silently translating from the wrong program would
/// invalidate the SMC weights.
#[test]
fn fingerprint_mismatch_is_rejected() {
    let ps = programs();
    let start = initial(&ps);
    let dir = temp_dir("fingerprint");
    let mut saver = |snap: &StageSnapshot<'_, Arc<ExecGraph>>| -> Result<(), SmcError> {
        let fp = depgraph::program_fingerprint(&ps[snap.step]);
        let ck = Checkpoint::from_snapshot(snap, SEED, fp).map_err(SmcError::Eval)?;
        ck.save(&dir)
            .map_err(|e| SmcError::Internal(e.to_string()))?;
        Err(SmcError::Internal(
            "stop after first checkpoint".to_string(),
        ))
    };
    let _ = run_graph(&ps, &start, 0, &[], &[], 1, Some(&mut saver));
    let (_, ck) = Checkpoint::latest_in(&dir)
        .expect("scan checkpoints")
        .expect("a checkpoint was written");

    // Same chain: accepted.
    assert!(resume_collection(&ps, &ck).is_ok());
    // A chain whose program at `ck.step` differs: typed rejection.
    let edited = chain_programs(&[0.5, 0.65, 0.8, 0.9]);
    match resume_collection(&edited, &ck) {
        Err(CheckpointError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    // A checkpoint beyond the chain: typed rejection.
    match resume_collection(&ps[..1], &ck) {
        Err(CheckpointError::StepOutOfRange { .. }) => {}
        other => panic!("expected StepOutOfRange, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
