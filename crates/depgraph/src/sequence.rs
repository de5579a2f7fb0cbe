//! Policy-aware iterated SMC over a sequence of program edits.
//!
//! The "Multiple Steps" regime of Section 4.2 driven by the Section 6
//! runtime: consecutive programs are diffed into
//! [`IncrementalTranslator`]s automatically ([`edit_chain`]), and the
//! particle collection is threaded through them by `incremental`'s one
//! stage loop ([`incremental::run_state_sequence_supervised`]) — so
//! callers get per-stage [`incremental::StepReport`]s (ESS, quarantined
//! particles, retries, collapse recoveries) for the whole edit history.
//!
//! [`run_edit_sequence_supervised`] carries the particles as execution
//! graphs end to end. For flat-trace particles, hand the loop the same
//! chain links as `StateTranslator<Trace>` stages, or flatten the
//! graph-native run with [`SequenceRun::flatten`].

use std::sync::Arc;

use incremental::{
    run_state_sequence_supervised, Checkpoint, CheckpointError, FailurePolicy, ParticleCollection,
    SequenceRun, SmcConfig, SmcError, StageObserver, StagePolicy, StateTranslator, StepReport,
};
use ppl::ast::Program;
use ppl::{LogWeight, PplError};

use crate::record::{program_fingerprint, ExecGraph};
use crate::translator::IncrementalTranslator;

/// Builds the translator chain for an edit history: one
/// [`IncrementalTranslator`] per consecutive program pair. Each program
/// is wrapped in an `Arc` once and shared by both translators that
/// reference it (no per-window deep clones), so consecutive links
/// validate chained graphs by pointer identity.
///
/// Returns an empty chain for fewer than two programs.
pub fn edit_chain(programs: &[Program]) -> Vec<IncrementalTranslator> {
    let shared: Vec<Arc<Program>> = programs.iter().cloned().map(Arc::new).collect();
    edit_chain_shared(&shared)
}

/// [`edit_chain`] over pre-shared program handles.
pub fn edit_chain_shared(programs: &[Arc<Program>]) -> Vec<IncrementalTranslator> {
    programs
        .windows(2)
        .map(|pair| IncrementalTranslator::from_shared(Arc::clone(&pair[0]), Arc::clone(&pair[1])))
        .collect()
}

/// Lifts a flat collection of `program` traces into graph-native
/// particles: each trace is replayed once into an [`ExecGraph`] sharing
/// the given program handle (so the first edit-chain translator validates
/// it by pointer identity), preserving weights.
///
/// This is the one O(M·|t|) conversion a graph-native run pays — at the
/// entry boundary, not once per particle per stage.
///
/// # Errors
///
/// Propagates replay failures (a trace inconsistent with `program`).
pub fn lift_collection(
    program: &Arc<Program>,
    initial: &ParticleCollection,
) -> Result<ParticleCollection<Arc<ExecGraph>>, PplError> {
    let mut lifted = ParticleCollection::new();
    for particle in initial.iter() {
        let graph = ExecGraph::from_trace_shared(program, &particle.trace)?;
        lifted.push(Arc::new(graph), particle.log_weight);
    }
    Ok(lifted)
}

/// Rebuilds the particle collection of a checkpoint against the program
/// sequence it will resume into: validates the checkpoint's step index
/// and program fingerprint, then re-scores every checkpointed choice map
/// under `programs[ck.step]` (the program the particles target).
///
/// Scoring recomputes each trace's densities from the exactly
/// round-tripped choice values with the same pure evaluator the original
/// run used, so the rebuilt collection is bit-identical to the one that
/// was checkpointed — the foundation of the kill-and-resume determinism
/// contract.
///
/// # Errors
///
/// [`CheckpointError::StepOutOfRange`] when the checkpoint indexes past
/// the sequence, [`CheckpointError::FingerprintMismatch`] when the
/// target program was edited since the checkpoint was written, and
/// [`CheckpointError::Corrupt`] when a choice map does not score under
/// the target program.
pub fn resume_collection(
    programs: &[Program],
    ck: &Checkpoint,
) -> Result<ParticleCollection, CheckpointError> {
    if ck.step >= programs.len() {
        return Err(CheckpointError::StepOutOfRange {
            step: ck.step,
            programs: programs.len(),
        });
    }
    let target = &programs[ck.step];
    ck.validate_fingerprint(program_fingerprint(target))?;
    let mut collection = ParticleCollection::new();
    for (j, (choices, log_weight)) in ck.particles.iter().enumerate() {
        let trace =
            ppl::handlers::score(target, choices).map_err(|e| CheckpointError::Corrupt {
                reason: format!("particle {j} does not score under the checkpointed program: {e}"),
            })?;
        collection.push(trace, LogWeight::from_log(*log_weight));
    }
    Ok(collection)
}

/// Runs Algorithm 2 across the edit history `programs[0] → ... →
/// programs[n]` with graph-native particles: lifts `initial` into
/// execution graphs once, then threads the *graphs* through the one
/// stage loop — each stage's [`IncrementalTranslator`] propagates the
/// edit directly on the previous stage's graph, never flattening to a
/// trace between stages, so per-stage cost is O(M·K) for an edit
/// touching K records. Flatten the returned run lazily with
/// [`SequenceRun::flatten`] at the API boundary.
///
/// `initial` must hold posterior traces of `programs[start_step]` (for a
/// fresh run `start_step == 0`; for a resume, the collection rebuilt by
/// [`resume_collection`]). The remaining chain's `i`-th stage runs as
/// absolute SMC step `start_step + i`, with all per-stage randomness
/// derived from `base_seed` and the absolute index
/// ([`incremental::stage_seed`] / [`incremental::resample_seed`]) — so a
/// resumed run continues bit-identically to an uninterrupted one.
///
/// `observer` fires at [`StagePolicy::checkpoint_every`] boundaries with
/// the graph-native collection; checkpoint writers flatten it via
/// [`Checkpoint::from_snapshot`].
///
/// # Errors
///
/// Lift failures surface as [`SmcError::Eval`]; stage errors as in
/// [`incremental::run_state_sequence_supervised`], plus any error the
/// observer returns.
#[allow(clippy::too_many_arguments)]
pub fn run_edit_sequence_supervised(
    programs: &[Program],
    initial: &ParticleCollection,
    start_step: usize,
    prior_ess: &[f64],
    prior_reports: &[StepReport],
    config: &SmcConfig,
    policy: &FailurePolicy,
    stage_policy: &StagePolicy,
    base_seed: u64,
    threads: usize,
    observer: Option<&mut StageObserver<'_, Arc<ExecGraph>>>,
) -> Result<SequenceRun<Arc<ExecGraph>>, SmcError> {
    // Only the links still to run are built: a resumed run never
    // re-diffs or re-plans its completed prefix.
    let remaining = programs.get(start_step..).unwrap_or_default();
    let shared: Vec<Arc<Program>> = remaining.iter().cloned().map(Arc::new).collect();
    let stages: Vec<Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>> =
        edit_chain_shared(&shared)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn StateTranslator<Arc<ExecGraph>> + Send + Sync>)
            .collect();
    let lifted = match shared.first() {
        Some(target) => lift_collection(target, initial).map_err(SmcError::Eval)?,
        None => ParticleCollection::new(),
    };
    run_state_sequence_supervised(
        &stages,
        &lifted,
        start_step,
        prior_ess,
        prior_reports,
        config,
        policy,
        stage_policy,
        base_seed,
        threads,
        observer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use incremental::{FaultKind, FaultPlan, FaultSpec, FaultyTranslator};
    use ppl::handlers::simulate;
    use ppl::{parse, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type TraceStage = Arc<dyn StateTranslator<Trace> + Send + Sync>;

    fn programs() -> Vec<Program> {
        // An evidence-strengthening edit history over one latent.
        [("0.5", "0.5"), ("0.7", "0.3"), ("0.9", "0.1")]
            .iter()
            .map(|(hi, lo)| {
                parse(&format!(
                    "x = flip(0.5) @ x; observe(flip(x ? {hi} : {lo}) @ o == 1); return x;"
                ))
                .unwrap()
            })
            .collect()
    }

    /// Prior simulations of the first program; its observation is
    /// uninformative (flip(0.5)), so they are posterior samples of it.
    fn initial(ps: &[Program], m: usize, seed: u64) -> ParticleCollection {
        let mut rng = StdRng::seed_from_u64(seed);
        ParticleCollection::from_traces((0..m).map(|_| simulate(&ps[0], &mut rng).unwrap()))
    }

    fn run_graph(
        ps: &[Program],
        initial: &ParticleCollection,
        threads: usize,
    ) -> SequenceRun<Arc<ExecGraph>> {
        run_edit_sequence_supervised(
            ps,
            initial,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            31,
            threads,
            None,
        )
        .unwrap()
    }

    /// Runs flat-trace stages through the same loop.
    fn run_flat(
        stages: &[TraceStage],
        initial: &ParticleCollection,
        policy: &FailurePolicy,
    ) -> Result<SequenceRun, SmcError> {
        run_state_sequence_supervised(
            stages,
            initial,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            policy,
            &StagePolicy::default(),
            31,
            1,
            None,
        )
    }

    #[test]
    fn edit_chain_links_consecutive_programs() {
        let ps = programs();
        let chain = edit_chain(&ps);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].source_program(), &ps[0]);
        assert_eq!(chain[0].target_program(), &ps[1]);
        assert_eq!(chain[1].source_program(), &ps[1]);
        assert_eq!(chain[1].target_program(), &ps[2]);
        assert!(edit_chain(&ps[..1]).is_empty());
        assert!(edit_chain(&[]).is_empty());
    }

    #[test]
    fn clean_edit_sequence_reports_are_clean() {
        let ps = programs();
        let run = run_graph(&ps, &initial(&ps, 4_000, 21), 1)
            .flatten()
            .unwrap();
        assert_eq!(run.reports.len(), 2);
        assert!(run.is_clean());
        let estimate = run
            .last()
            .probability(|t| t.value(&ppl::addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        // Exact posterior of the final program: 0.9 / (0.9 + 0.1) = 0.9.
        assert!((estimate - 0.9).abs() < 0.03, "estimate {estimate}");
    }

    #[test]
    fn graph_native_sequence_matches_flat_sequence_bitwise() {
        let ps = programs();
        let initial = initial(&ps, 500, 23);
        let stages: Vec<TraceStage> = edit_chain(&ps)
            .into_iter()
            .map(|t| Arc::new(t) as TraceStage)
            .collect();
        let flat = run_flat(&stages, &initial, &FailurePolicy::FailFast).unwrap();
        let graph = run_graph(&ps, &initial, 1);
        assert_eq!(graph.collections.len(), flat.collections.len());
        let flattened = graph.flatten().unwrap();
        for (a, b) in flat.collections.iter().zip(flattened.collections.iter()) {
            assert_eq!(a.len(), b.len());
            for (pa, pb) in a.iter().zip(b.iter()) {
                assert_eq!(pa.log_weight.log().to_bits(), pb.log_weight.log().to_bits());
                assert_eq!(pa.trace.to_choice_map(), pb.trace.to_choice_map());
            }
        }
        // Pooled graph-native runs are thread-count invariant.
        for threads in [3, 8] {
            let other = run_graph(&ps, &initial, threads);
            for (a, b) in graph.collections.iter().zip(other.collections.iter()) {
                for (pa, pb) in a.iter().zip(b.iter()) {
                    assert_eq!(
                        pa.log_weight.log().to_bits(),
                        pb.log_weight.log().to_bits(),
                        "threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn faults_in_one_stage_are_quarantined_and_reported() {
        let ps = programs();
        // Inject failures into stage 1 only, through the same
        // TranslateCtx plumbing the runtime uses.
        let plan = FaultPlan::new()
            .with(FaultSpec::always(1, 5, FaultKind::Error))
            .with(FaultSpec::always(1, 9, FaultKind::NanWeight));
        let stages: Vec<TraceStage> = edit_chain(&ps)
            .into_iter()
            .map(|t| Arc::new(FaultyTranslator::new(t, plan.clone())) as TraceStage)
            .collect();
        let run = run_flat(
            &stages,
            &initial(&ps, 200, 22),
            &FailurePolicy::DropAndRenormalize { max_loss: 0.1 },
        )
        .unwrap();
        assert!(run.reports[0].is_clean());
        assert_eq!(run.reports[1].dropped, 2);
        assert_eq!(run.collections[0].len(), 200);
        assert_eq!(run.collections[1].len(), 198);
        let failed: Vec<_> = run.reports[1].failures.iter().map(|f| f.particle).collect();
        assert_eq!(failed, vec![5, 9]);
    }
}
