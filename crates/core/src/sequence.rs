//! Iterated SMC across a sequence of programs (Section 4.2, "Multiple
//! Steps and resample").
//!
//! "Often, programs are modified in an iterative process … we can run
//! Algorithm 2 repeatedly, once for each new program in the sequence, to
//! iteratively transform the weighted collection of traces from one
//! program to the next."
//!
//! [`run_state_sequence_supervised`] is that loop, for any particle state:
//! flat traces or execution graphs (depgraph's translators). Threads,
//! failure policy, per-attempt deadline, checkpoint cadence, and resume
//! are all arguments of the one loop. A deadline is cooperative
//! ([`StagePolicy::deadline`]): the runtime hands it to each attempt in
//! its [`crate::TranslateCtx`], and the translation stops itself there.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ppl::{PplError, Trace};

use crate::health::{FailurePolicy, SmcError, StagePolicy, StepReport};
use crate::metrics;
use crate::particles::{ParticleCollection, ParticleState};
use crate::smc::{supervised_step, SmcConfig};
use crate::translator::StateTranslator;

/// The trajectory of a program-sequence run: the particle collection after
/// every stage, plus per-stage health for degeneracy monitoring.
///
/// Generic over the particle state `S` (default [`Trace`]); graph-native
/// runs carry execution graphs end to end and [`SequenceRun::flatten`]
/// lazily at the API boundary.
#[derive(Debug, Clone)]
pub struct SequenceRun<S = Trace> {
    /// Particle collections after each stage (the input collection is not
    /// included).
    pub collections: Vec<ParticleCollection<S>>,
    /// ESS of the collection produced by each stage (after any resampling
    /// and rejuvenation).
    pub ess_history: Vec<f64>,
    /// Per-stage health reports: post-reweight ESS, dropped/retried
    /// particle counts, and collapse events. On a clean run every report
    /// [`StepReport::is_clean`]s.
    pub reports: Vec<StepReport>,
}

impl<S> SequenceRun<S> {
    /// The final collection.
    ///
    /// # Panics
    ///
    /// Panics if the sequence was empty.
    pub fn last(&self) -> &ParticleCollection<S> {
        self.collections.last().expect("empty sequence run")
    }

    /// Whether every stage completed without drops, retries, or collapse
    /// events.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(StepReport::is_clean)
    }
}

impl<S: ParticleState> SequenceRun<S> {
    /// Flattens every stage's collection to plain traces, preserving
    /// weights, ESS history, and reports.
    ///
    /// # Errors
    ///
    /// Propagates [`ParticleState::to_trace`] failures.
    pub fn flatten(&self) -> Result<SequenceRun, PplError> {
        let collections = self
            .collections
            .iter()
            .map(ParticleCollection::flatten)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SequenceRun {
            collections,
            ess_history: self.ess_history.clone(),
            reports: self.reports.clone(),
        })
    }
}

/// The deterministic translation seed of stage `step` in a sequence run
/// (a golden-ratio stride over `base_seed`).
///
/// Public because checkpoint/resume must re-derive the exact same seed
/// for stage `step` of a resumed run as the uninterrupted run used.
pub fn stage_seed(base_seed: u64, step: usize) -> u64 {
    base_seed.wrapping_add((step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Salt separating the resampling seed stream from the translation seed
/// stream ([`stage_seed`]); an arbitrary odd constant.
const RESAMPLE_SALT: u64 = 0x5EED_5A17_C0FF_EE00;

/// The deterministic *resampling* seed of stage `step` in a sequence run.
///
/// Threading one caller RNG through every stage's resampling step would
/// make a stage's randomness depend on how many draws earlier stages
/// consumed — impossible to reproduce when resuming from a checkpoint
/// without replaying the whole prefix. The sequence loop instead seeds
/// each stage's resampler from `base_seed` and the absolute stage index
/// alone, so stage `s` of a resumed run is bit-identical to stage `s` of
/// an uninterrupted one.
pub fn resample_seed(base_seed: u64, step: usize) -> u64 {
    stage_seed(base_seed ^ RESAMPLE_SALT, step)
}

/// The state of a supervised sequence run at a stage boundary, handed to
/// the [`StageObserver`] for checkpointing.
///
/// `step` counts *completed* stages — equivalently, the index of the
/// program the particles currently target — so a snapshot with
/// `step == n` resumes by running stages `n..` of the same sequence.
#[derive(Debug)]
pub struct StageSnapshot<'a, S> {
    /// Number of completed stages (absolute, counting pre-resume ones).
    pub step: usize,
    /// The collection after stage `step - 1`.
    pub collection: &'a ParticleCollection<S>,
    /// ESS after every completed stage, from stage 0.
    pub ess_history: &'a [f64],
    /// Health reports of every completed stage, from stage 0.
    pub reports: &'a [StepReport],
}

/// Callback fired at checkpoint boundaries of a supervised sequence run.
/// Returning an error aborts the run with [`SmcError::Internal`]-style
/// propagation (the error is returned as-is).
pub type StageObserver<'a, S> = dyn FnMut(&StageSnapshot<'_, S>) -> Result<(), SmcError> + 'a;

/// Runs Algorithm 2 once per stage, threading the collection through the
/// sequence: pooled translation per stage (each attempt under an optional
/// deadline), per-stage deterministic seeds, and an observer fired at
/// checkpoint boundaries.
///
/// - **Threads.** Translation runs on the persistent
///   [`crate::WorkerPool`], spawned once and reused across stages and
///   runs; `threads = 1` translates inline, and otherwise each of up to
///   `threads` tasks translates one contiguous chunk of particles.
///   Particle `j` of stage `s` draws from a seed derived from
///   [`stage_seed`]`(base_seed, s)` and `j`, so results are bit-identical
///   for any `threads` value.
/// - **Failures.** `policy` applies per particle (abort, drop, or retry
///   with reseeded RNGs); total weight collapse under a tolerant policy
///   keeps the pre-stage collection and flags it in that stage's report.
/// - **Resume support.** `start_step` offsets every stage index:
///   `stages[i]` runs as absolute SMC step `start_step + i`, with
///   translation seeded by [`stage_seed`]`(base_seed, step)` and
///   resampling by [`resample_seed`]`(base_seed, step)`. Because all
///   per-stage randomness derives from `base_seed` and the absolute
///   index (there is no threaded RNG), running stages `k..n` on a
///   checkpointed collection reproduces the uninterrupted run's stages
///   `k..n` bit for bit.
/// - **History splicing.** `prior_ess` / `prior_reports` (from the
///   checkpoint) are prepended to the returned run's histories, so
///   observers always see the full sequence history. `collections` only
///   contains post-resume collections.
/// - **Deadlines.** When [`StagePolicy::deadline`] is set, every attempt
///   gets that long from its own start, on the pool and inline alike. A
///   translation stops itself at its deadline (the built-in ones check
///   at every fuel charge and handler call), and an attempt that stops
///   there or returns late becomes a [`crate::FailureKind::Timeout`]
///   under `policy`, and a retry starts at once. A translation that never
///   checks is not stopped: it holds its worker until it returns.
/// - **Observer.** After stage `i` completes, if its absolute completed
///   count hits a [`StagePolicy::checkpoint_every`] boundary (or it is
///   the final stage), `observer` is called with a [`StageSnapshot`].
///
/// # Errors
///
/// Propagates typed errors from the supervised step and any error the
/// observer returns. Returns [`SmcError::Eval`] before any stage runs if
/// [`SmcConfig::mcmc_steps`] is not 0: the stage loop does not rejuvenate
/// yet, and would otherwise ignore the field.
#[allow(clippy::too_many_arguments)]
pub fn run_state_sequence_supervised<S>(
    stages: &[Arc<dyn StateTranslator<S> + Send + Sync>],
    initial: &ParticleCollection<S>,
    start_step: usize,
    prior_ess: &[f64],
    prior_reports: &[StepReport],
    config: &SmcConfig,
    policy: &FailurePolicy,
    stage_policy: &StagePolicy,
    base_seed: u64,
    threads: usize,
    mut observer: Option<&mut StageObserver<'_, S>>,
) -> Result<SequenceRun<S>, SmcError>
where
    S: Clone + Send + Sync + 'static,
{
    if config.mcmc_steps > 0 {
        return Err(SmcError::Eval(PplError::Other(format!(
            "SmcConfig::mcmc_steps is {}, but the sequence loop does not rejuvenate; set it to 0",
            config.mcmc_steps
        ))));
    }
    let mut collections: Vec<ParticleCollection<S>> = Vec::with_capacity(stages.len());
    let mut ess_history: Vec<f64> = prior_ess.to_vec();
    let mut reports: Vec<StepReport> = prior_reports.to_vec();
    for (i, translator) in stages.iter().enumerate() {
        let step = start_step + i;
        let mut resample_rng = StdRng::seed_from_u64(resample_seed(base_seed, step));
        let (next, report) = supervised_step(
            &**translator,
            collections.last().unwrap_or(initial),
            config,
            policy,
            stage_policy,
            step,
            stage_seed(base_seed, step),
            threads,
            &mut resample_rng,
        )?;
        ess_history.push(next.ess());
        reports.push(report);
        collections.push(next);
        if let Some(observer) = observer.as_deref_mut() {
            let completed = step + 1;
            let is_last = i + 1 == stages.len();
            let every = stage_policy.checkpoint_every;
            if every > 0 && (completed.is_multiple_of(every) || is_last) {
                let ck_start = metrics::clock();
                observer(&StageSnapshot {
                    step: completed,
                    collection: collections.last().expect("stage just pushed"),
                    ess_history: &ess_history,
                    reports: &reports,
                })?;
                metrics::note_checkpoint(ck_start);
            }
        }
        // After the observer, so checkpoint time lands in this stage.
        metrics::stage_complete(reports.last().expect("stage just pushed"));
    }
    Ok(SequenceRun {
        collections,
        ess_history,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::Correspondence;
    use crate::forward::CorrespondenceTranslator;
    use ppl::dist::Dist;
    use ppl::handlers::simulate;
    use ppl::{addr, Enumeration, Handler, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type TraceStage = Arc<dyn StateTranslator<Trace> + Send + Sync>;

    fn model_with_obs(
        p_obs_true: f64,
    ) -> impl Fn(&mut dyn Handler) -> Result<Value, ppl::PplError> {
        move |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let po = if x.truthy()? {
                p_obs_true
            } else {
                1.0 - p_obs_true
            };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        }
    }

    /// P0 (prior-ish) → P1 → P2 with increasingly strong evidence.
    fn stages() -> Vec<TraceStage> {
        [(0.5, 0.7), (0.7, 0.9)]
            .into_iter()
            .map(|(from, to)| {
                let translator = CorrespondenceTranslator::new(
                    model_with_obs(from),
                    model_with_obs(to),
                    Correspondence::identity_on(["x"]),
                );
                Arc::new(translator) as TraceStage
            })
            .collect()
    }

    /// Prior samples of P0; its observation is uninformative, so they ARE
    /// posterior samples of P0.
    fn initial(m: usize, seed: u64) -> ParticleCollection {
        let m0 = model_with_obs(0.5);
        let mut rng = StdRng::seed_from_u64(seed);
        ParticleCollection::from_traces((0..m).map(|_| simulate(&m0, &mut rng).unwrap()))
    }

    fn run(stages: &[TraceStage], initial: &ParticleCollection, threads: usize) -> SequenceRun {
        run_state_sequence_supervised(
            stages,
            initial,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            777,
            threads,
            None,
        )
        .unwrap()
    }

    fn exact_final() -> f64 {
        Enumeration::run(&model_with_obs(0.9))
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
    }

    #[test]
    fn three_stage_sequence_tracks_final_posterior() {
        let run = run(&stages(), &initial(20_000, 7), 1);
        assert_eq!(run.collections.len(), 2);
        assert_eq!(run.ess_history.len(), 2);
        assert_eq!(run.reports.len(), 2);
        assert!(run.is_clean());
        assert_eq!(run.reports[0].step, 0);
        assert_eq!(run.reports[1].step, 1);
        let estimate = run
            .last()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        let exact = exact_final();
        assert!(
            (estimate - exact).abs() < 0.02,
            "estimate {estimate} vs exact {exact}"
        );
        // Weights concentrate, so ESS decreases along the sequence.
        assert!(run.ess_history[1] <= run.ess_history[0] * 1.05);
    }

    #[test]
    fn parallel_sequence_is_thread_count_invariant_and_correct() {
        let stages = stages();
        let initial = initial(8000, 9);
        let one = run(&stages, &initial, 1);
        assert!(one.is_clean());
        let estimate = one
            .last()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        let exact = exact_final();
        assert!(
            (estimate - exact).abs() < 0.03,
            "estimate {estimate} vs exact {exact}"
        );
        // Bit-identical trajectories for any thread count.
        for threads in [3, 8] {
            let other = run(&stages, &initial, threads);
            for (a, b) in one.collections.iter().zip(other.collections.iter()) {
                assert_eq!(a.len(), b.len());
                for (pa, pb) in a.iter().zip(b.iter()) {
                    assert_eq!(
                        pa.log_weight.log().to_bits(),
                        pb.log_weight.log().to_bits(),
                        "threads={threads}"
                    );
                    assert_eq!(pa.trace, pb.trace);
                }
            }
        }
    }

    #[test]
    fn empty_sequence_is_empty_run() {
        let run = run(&[], &ParticleCollection::new(), 1);
        assert!(run.collections.is_empty());
    }

    /// The loop has no rejuvenation step, so it refuses a config that
    /// asks for one instead of silently resampling without it.
    #[test]
    fn rejuvenation_is_refused_not_ignored() {
        let err = run_state_sequence_supervised(
            &stages(),
            &initial(10, 3),
            0,
            &[],
            &[],
            &SmcConfig::with_rejuvenation(1),
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            777,
            1,
            None,
        )
        .unwrap_err();
        match err {
            SmcError::Eval(e) => assert!(e.to_string().contains("mcmc_steps"), "{e}"),
            other => panic!("expected an evaluation error, got {other:?}"),
        }
    }

    /// A translator that returns `Ok` after its deadline without ever
    /// checking it still times out: its late result is not used.
    #[test]
    fn a_late_result_is_a_timeout() {
        struct Late;
        impl StateTranslator<Trace> for Late {
            fn translate_state(
                &self,
                t: &Trace,
                ctx: crate::TranslateCtx,
                _rng: &mut dyn rand::RngCore,
            ) -> Result<(Trace, ppl::LogWeight), PplError> {
                let deadline = ctx.deadline.expect("the run sets a deadline");
                std::thread::sleep(deadline.saturating_duration_since(std::time::Instant::now()));
                Ok((t.clone(), ppl::LogWeight::ONE))
            }
        }
        let stage: TraceStage = Arc::new(Late);
        let deadline = std::time::Duration::from_millis(1);
        let err = run_state_sequence_supervised(
            &[stage],
            &initial(2, 3),
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::default().with_deadline(deadline),
            777,
            1,
            None,
        )
        .unwrap_err();
        match err {
            SmcError::Particle(f) => {
                assert_eq!((f.particle, f.attempts), (0, 1));
                assert_eq!(f.kind, crate::FailureKind::Timeout { waited_ms: 1 });
            }
            other => panic!("expected a particle failure, got {other:?}"),
        }
    }
}
