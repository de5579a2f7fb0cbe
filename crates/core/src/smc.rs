//! A single SMC step for probabilistic programs (Algorithm 2).
//!
//! `infer` transforms a weighted collection of traces of `P` into a
//! weighted collection of traces of `Q`:
//!
//! 1. translate every trace (`(u_j, Δw_j) ∼ translate(R, t_j)`,
//!    `w'_j ← w_j · Δw_j`);
//! 2. optionally resample;
//! 3. optionally rejuvenate each trace with an MCMC kernel for `Q`.
//!
//! [`infer_with_policy`] is the fault-tolerant entry point: it isolates
//! per-particle panics, quarantines non-finite weights, applies a
//! [`FailurePolicy`] to failures, recovers from total weight collapse,
//! and reports what happened in a [`StepReport`]. `infer` is the
//! fail-fast special case of it.
//!
//! Iterating the step over a sequence of programs is the "Multiple
//! Steps" regime of Section 4.2, driven by the one stage loop
//! [`crate::run_state_sequence_supervised`]. Its step translates with
//! per-particle seeds, one contiguous chunk of particles per thread on
//! the persistent [`WorkerPool`] (inline for one thread). With
//! [`StagePolicy::deadline`] set, every attempt carries its own deadline
//! in its [`TranslateCtx`], and the translation stops itself there, so a
//! retry after a timeout starts at once. The deadline is cooperative: a
//! translation that never checks it runs until it returns, and only then
//! counts as a timeout. Both steps share the per-particle attempt, the
//! assembly of the translated collection, and the degeneracy tail defined
//! here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use ppl::{LogWeight, PplError, Trace};

use crate::health::{
    retry_seed, FailureKind, FailurePolicy, ParticleFailure, SmcError, StagePolicy, StepReport,
};
use crate::mcmc::McmcKernel;
use crate::metrics;
use crate::particles::{Particle, ParticleCollection};
use crate::pool::WorkerPool;
use crate::resample::{resample, ResampleError, ResampleScheme};
use crate::translator::{StateTranslator, TranslateCtx};

/// When to resample within an `infer` step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ResamplePolicy {
    /// Never resample (the weights carry all information).
    #[default]
    Never,
    /// Always resample after reweighting.
    Always,
    /// Resample when `ESS < threshold_fraction · M` — the standard
    /// degeneracy trigger suggested in Section 4.2.
    EssBelow(f64),
}

/// Configuration of one SMC step.
#[derive(Debug, Clone, Default)]
pub struct SmcConfig {
    /// When to resample.
    pub resample: ResamplePolicy,
    /// How to resample.
    pub scheme: ResampleScheme,
    /// Number of MCMC transitions applied per particle (0 disables
    /// rejuvenation even if a kernel is supplied).
    pub mcmc_steps: usize,
}

impl SmcConfig {
    /// The paper's default: no resampling, no rejuvenation — translation
    /// and reweighting only (as in the Section 7.2/7.3 experiments).
    pub fn translate_only() -> SmcConfig {
        SmcConfig::default()
    }

    /// Resample always with `n` rejuvenation sweeps.
    pub fn with_rejuvenation(n: usize) -> SmcConfig {
        SmcConfig {
            resample: ResamplePolicy::Always,
            scheme: ResampleScheme::default(),
            mcmc_steps: n,
        }
    }
}

/// Renders a panic payload as a message for [`FailureKind::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one translation attempt with panic isolation and weight
/// validation: a panic in the translator is caught, and a NaN or `+∞`
/// combined log weight is rejected before it can enter a collection.
///
/// With a `deadline`, the attempt's context carries its start plus
/// `deadline`. An attempt that stops there, or ends after it in any other
/// way, is a [`FailureKind::Timeout`].
fn attempt_translate<S>(
    translator: &dyn StateTranslator<S>,
    particle: &Particle<S>,
    ctx: TranslateCtx,
    deadline: Option<Duration>,
    rng: &mut dyn RngCore,
) -> Result<(S, LogWeight), FailureKind> {
    let ctx = TranslateCtx {
        deadline: deadline.map(|d| Instant::now() + d),
        ..ctx
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        translator.translate_state(&particle.trace, ctx, rng)
    }));
    if let (Some(waited), Err(_)) = (deadline, PplError::check_deadline(ctx.deadline)) {
        // `waited_ms` is the configured deadline, not the time measured,
        // so reports are reproducible.
        return Err(FailureKind::Timeout {
            waited_ms: waited.as_millis() as u64,
        });
    }
    match result {
        Err(payload) => Err(FailureKind::Panic(panic_message(payload))),
        Ok(Err(e)) => Err(FailureKind::Error(e)),
        Ok(Ok((state, delta))) => {
            let weight = particle.log_weight + delta;
            let lw = weight.log();
            if lw.is_nan() || lw == f64::INFINITY {
                Err(FailureKind::NonFiniteWeight(lw))
            } else {
                Ok((state, weight))
            }
        }
    }
}

/// The seed [`FailurePolicy::Retry`] derives retry streams from (`0` for
/// the other policies, which never retry).
fn policy_seed(policy: &FailurePolicy) -> u64 {
    match policy {
        FailurePolicy::Retry { seed, .. } => *seed,
        _ => 0,
    }
}

/// The per-particle seed of the pooled path's first attempt. Kept
/// identical to the historical formula so clean parallel runs are
/// bit-for-bit reproducible across versions.
fn particle_seed(base_seed: u64, index: usize) -> u64 {
    base_seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9))
}

/// The outcome of translating one particle: translated state + combined
/// weight + attempts used, or the particle's failure.
type Slot<S = Trace> = Result<(S, LogWeight, usize), ParticleFailure>;

/// Translates one particle under the policy's attempt budget. The first
/// attempt draws from `first` (the caller's stream for [`infer`], a
/// per-particle seeded stream for the pooled path); retry attempt `k`
/// draws from `StdRng::seed_from_u64(retry_seed(policy seed, step, j,
/// k))`, so its randomness is independent of call order and thread
/// schedule.
///
/// Each attempt gets its own `stage.deadline`, counted from its start,
/// so time spent queued or on earlier attempts is never charged. A retry
/// starts at once, after a timeout too: the timed-out attempt has
/// already stopped.
fn translate_particle<S>(
    translator: &dyn StateTranslator<S>,
    particle: &Particle<S>,
    step: usize,
    j: usize,
    policy: &FailurePolicy,
    stage: &StagePolicy,
    first: &mut dyn RngCore,
) -> Slot<S> {
    let mut attempt = 0;
    loop {
        let ctx = TranslateCtx::new(step, j).with_attempt(attempt);
        let result = if attempt == 0 {
            attempt_translate(translator, particle, ctx, stage.deadline, first)
        } else {
            let mut rng = StdRng::seed_from_u64(retry_seed(policy_seed(policy), step, j, attempt));
            attempt_translate(translator, particle, ctx, stage.deadline, &mut rng)
        };
        attempt += 1;
        match result {
            Ok((state, weight)) => return Ok((state, weight, attempt)),
            Err(kind) if attempt >= policy.max_attempts() => {
                return Err(ParticleFailure {
                    step,
                    particle: j,
                    attempts: attempt,
                    kind,
                })
            }
            Err(_) => {}
        }
    }
}

/// One step of SMC (Algorithm 2) under a [`FailurePolicy`]: translate
/// with panic isolation and weight quarantine, reweight, optionally
/// resample, optionally run `mcmc_Q` — returning the new collection plus
/// a [`StepReport`] of everything that went wrong and was recovered.
///
/// Every particle's first attempt draws from `rng` in index order, so
/// the step reproduces the caller's stream exactly; retries draw from
/// per-particle [`retry_seed`] streams.
///
/// Failure handling:
///
/// - a particle whose translation errors, panics, or yields a NaN/`+∞`
///   weight is handled per `policy` (abort, drop, or retry);
/// - if after reweighting every surviving weight is zero (`ESS = 0` on a
///   non-empty input — total collapse), a fail-fast policy surfaces
///   [`SmcError::Collapse`]; tolerant policies keep the *pre-step*
///   collection (still properly weighted for the previous program),
///   skip resampling, apply rejuvenation to it, and flag the event as
///   `collapse_recovered` in the report.
///
/// With [`FailurePolicy::FailFast`] and a healthy model this is
/// bit-identical to [`infer`].
///
/// # Errors
///
/// [`SmcError::Particle`] under fail-fast (or retry exhaustion),
/// [`SmcError::TooManyDropped`] when quarantining exceeded the policy's
/// loss budget, [`SmcError::Collapse`] on unrecoverable weight collapse,
/// and [`SmcError::Eval`] for evaluation errors outside translation
/// (resampling an empty collection, MCMC rejuvenation).
pub fn infer_with_policy(
    translator: &dyn StateTranslator<Trace>,
    mcmc: Option<&dyn McmcKernel>,
    particles: &ParticleCollection,
    config: &SmcConfig,
    policy: &FailurePolicy,
    step: usize,
    rng: &mut dyn RngCore,
) -> Result<(ParticleCollection, StepReport), SmcError> {
    // 1. Translate and reweight, applying the policy per particle.
    let t_translate = metrics::clock();
    let mut slots = Vec::with_capacity(particles.len());
    for (j, particle) in particles.iter().enumerate() {
        let slot = translate_particle(
            translator,
            particle,
            step,
            j,
            policy,
            &StagePolicy::default(),
            rng,
        );
        // Only a drop policy survives a failed particle; stop at the
        // first fatal failure instead of drawing further from `rng`.
        let fatal = slot.is_err() && !matches!(policy, FailurePolicy::DropAndRenormalize { .. });
        slots.push(Some(slot));
        if fatal {
            break;
        }
    }
    let translated = assemble(particles, slots, policy, step)?;
    metrics::note_translate(t_translate);

    // 2.–3. Degeneracy handling, resampling, and rejuvenation (also
    // applied to a collapse-recovered collection, per the recovery
    // contract).
    let t_resample = metrics::clock();
    let (collection, report) = degeneracy_tail(translated, particles, config, policy, step, rng)?;
    let collection = match (mcmc, config.mcmc_steps) {
        (Some(kernel), steps) if steps > 0 => {
            let mut rejuvenated = ParticleCollection::new();
            for particle in collection.iter() {
                let trace: Trace = kernel.steps(&particle.trace, steps, rng)?;
                rejuvenated.push(trace, particle.log_weight);
            }
            rejuvenated
        }
        _ => collection,
    };
    metrics::note_resample(t_resample);
    Ok((collection, report))
}

/// One step of SMC (Algorithm 2): translate, reweight, optionally
/// resample, optionally run `mcmc_Q`.
///
/// This is [`infer_with_policy`] under [`FailurePolicy::FailFast`] with
/// the report discarded: the first particle failure (translation error,
/// panic, or non-finite weight) aborts the step, and a total weight
/// collapse after reweighting (`ESS = 0` on a non-empty collection) is
/// an error rather than a silently degenerate collection. Use
/// [`infer_with_policy`] to drop or retry failed particles and to
/// observe per-step health.
///
/// # Errors
///
/// Propagates translation/MCMC errors (flattened to [`PplError`]), and a
/// collapse error if every weight is zero after reweighting.
///
/// # Examples
///
/// ```
/// use incremental::{infer, Correspondence, CorrespondenceTranslator,
///                   ParticleCollection, SmcConfig};
/// use ppl::{addr, Handler, PplError};
/// use ppl::dist::Dist;
/// use ppl::handlers::simulate;
/// use rand::SeedableRng;
///
/// let p = |h: &mut dyn Handler| h.sample(addr!["x"], Dist::flip(0.5));
/// let q = |h: &mut dyn Handler| h.sample(addr!["x"], Dist::flip(0.9));
/// let translator = CorrespondenceTranslator::new(p, q, Correspondence::identity_on(["x"]));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let traces = (0..200).map(|_| simulate(&p, &mut rng)).collect::<Result<Vec<_>, _>>()?;
/// let particles = ParticleCollection::from_traces(traces);
/// let out = infer(&translator, None, &particles, &SmcConfig::translate_only(), &mut rng)?;
/// let p_true = out.probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())?;
/// assert!((p_true - 0.9).abs() < 0.1);
/// # Ok::<(), PplError>(())
/// ```
pub fn infer(
    translator: &dyn StateTranslator<Trace>,
    mcmc: Option<&dyn McmcKernel>,
    particles: &ParticleCollection,
    config: &SmcConfig,
    rng: &mut dyn RngCore,
) -> Result<ParticleCollection, PplError> {
    let (collection, _report) = infer_with_policy(
        translator,
        mcmc,
        particles,
        config,
        &FailurePolicy::FailFast,
        0,
        rng,
    )
    .map_err(PplError::from)?;
    Ok(collection)
}

/// One step of the sequence loop: pooled translation, each attempt
/// under [`StagePolicy::deadline`] when it is set, then the degeneracy
/// tail on `rng`.
///
/// Translation randomness comes from `base_seed` per particle (see
/// [`translate_pooled`]), so the result is bit-identical for any
/// `threads` value and pool size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervised_step<S: Clone + Send + Sync>(
    translator: &(dyn StateTranslator<S> + Sync),
    particles: &ParticleCollection<S>,
    config: &SmcConfig,
    policy: &FailurePolicy,
    stage_policy: &StagePolicy,
    step: usize,
    base_seed: u64,
    threads: usize,
    rng: &mut dyn RngCore,
) -> Result<(ParticleCollection<S>, StepReport), SmcError> {
    let t_translate = metrics::clock();
    let slots = translate_pooled(
        translator,
        particles,
        base_seed,
        threads,
        policy,
        stage_policy,
        step,
    )?;
    let translated = assemble(particles, slots, policy, step)?;
    metrics::note_translate(t_translate);
    let t_resample = metrics::clock();
    let out = degeneracy_tail(translated, particles, config, policy, step, rng)?;
    metrics::note_resample(t_resample);
    Ok(out)
}

/// Pooled translation under a [`FailurePolicy`]: each particle's
/// `translate` is independent (Algorithm 2's first loop is
/// embarrassingly parallel), so the collection is cut into contiguous
/// chunks of `ceil(M / threads)` particles, executed on the persistent
/// [`WorkerPool`] with per-particle panic isolation and weight
/// quarantine: a stage of `M` particles costs at most `threads`
/// dispatches, not `M`. With one thread (or one particle) the loop runs
/// inline with no dispatch at all.
///
/// Determinism: particle `j`'s first attempt uses an RNG seeded from
/// `base_seed` and `j`, and retry attempt `k` uses
/// `retry_seed(policy_seed, step, j, k)`; every particle keeps its own
/// output slot. Results, reports, and (under fail-fast) *which* failure
/// is reported are therefore identical for any thread count and pool
/// size — [`assemble`] surfaces the failure of the smallest
/// particle index, not whichever worker lost the race. A timeout is the
/// one exception: whether an attempt beats its deadline depends on how
/// fast it runs. Time spent queued is never charged, since each
/// attempt's deadline counts from its own start.
///
/// A fatal failure (any under fail-fast, an exhausted budget under
/// retry, never a drop) decides the step, so particles above the
/// smallest fatal index seen so far are not translated and keep an empty
/// slot: the inline loop stops at the failure, and each chunk stops at
/// its first particle above it. Every particle below the smallest failed
/// index of a full run still runs, so the reported failure is the same.
#[allow(clippy::too_many_arguments)]
fn translate_pooled<S: Send + Sync>(
    translator: &(dyn StateTranslator<S> + Sync),
    particles: &ParticleCollection<S>,
    base_seed: u64,
    threads: usize,
    policy: &FailurePolicy,
    stage: &StagePolicy,
    step: usize,
) -> Result<Vec<Option<Slot<S>>>, SmcError> {
    let fatal = !matches!(policy, FailurePolicy::DropAndRenormalize { .. });
    // The smallest fatal failure index so far. A particle past it cannot
    // change the step's outcome and is not translated (`None`). The index
    // publishes no other data, so `Relaxed` suffices: a stale read only
    // translates a particle that could have been skipped.
    let first_fatal = AtomicUsize::new(usize::MAX);
    let translate = |j: usize, particle: &Particle<S>| -> Option<Slot<S>> {
        if j > first_fatal.load(Ordering::Relaxed) {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(particle_seed(base_seed, j));
        let slot = translate_particle(translator, particle, step, j, policy, stage, &mut rng);
        if fatal && slot.is_err() {
            first_fatal.fetch_min(j, Ordering::Relaxed);
        }
        Some(slot)
    };
    // Translates `items` in order into their slots, up to the first one
    // past a fatal failure.
    let run = |items: &[(usize, &Particle<S>)], out: &mut [Option<Slot<S>>]| {
        for ((j, particle), slot) in items.iter().zip(out) {
            *slot = translate(*j, particle);
            if slot.is_none() {
                break;
            }
        }
    };
    let items: Vec<(usize, &Particle<S>)> = particles.iter().enumerate().collect();
    let mut slots: Vec<Option<Slot<S>>> = (0..particles.len()).map(|_| None).collect();
    if threads <= 1 || particles.len() <= 1 {
        run(&items, &mut slots);
        return Ok(slots);
    }
    let chunk = items.len().div_ceil(threads);
    // Items are enumerated in order, so chunking items and slots with the
    // same stride pairs every particle with its own output slot.
    let run = &run;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .chunks(chunk)
        .zip(slots.chunks_mut(chunk))
        .map(|(chunk, out)| Box::new(move || run(chunk, out)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    metrics::note_stage_dispatch(tasks.len() as u64, chunk as u64);
    WorkerPool::global()
        .run_scoped(tasks)
        .map_err(SmcError::Internal)?;
    Ok(slots)
}

/// Scans the translated slots in index order and builds the reweighted
/// collection and the step's [`StepReport`] — the assembly step shared by
/// every translate phase. A fatal failure (anything but a drop) aborts
/// at the smallest failed index, so slots after it may be missing.
fn assemble<S>(
    particles: &ParticleCollection<S>,
    slots: Vec<Option<Slot<S>>>,
    policy: &FailurePolicy,
    step: usize,
) -> Result<(ParticleCollection<S>, StepReport), SmcError> {
    let mut out = ParticleCollection::new();
    let mut failures: Vec<ParticleFailure> = Vec::new();
    let mut retries = 0;
    let mut recovered = 0;
    for (j, slot) in slots.into_iter().enumerate() {
        let slot =
            slot.ok_or_else(|| SmcError::Internal(format!("particle {j} was never translated")))?;
        match slot {
            Ok((state, weight, attempts)) => {
                retries += attempts - 1;
                if attempts > 1 {
                    recovered += 1;
                }
                out.push(state, weight);
            }
            Err(failure) => match policy {
                FailurePolicy::DropAndRenormalize { .. } => failures.push(failure),
                // Fail-fast, and retry budgets exhausted, abort the step.
                _ => return Err(SmcError::Particle(failure)),
            },
        }
    }
    let dropped = failures.len();
    if !policy.loss_allowed(dropped, particles.len()) {
        let max_loss = match policy {
            FailurePolicy::DropAndRenormalize { max_loss } => *max_loss,
            _ => 0.0,
        };
        return Err(SmcError::TooManyDropped {
            step,
            dropped,
            total: particles.len(),
            max_loss,
            failures,
        });
    }
    let report = StepReport {
        step,
        input_particles: particles.len(),
        output_particles: out.len(),
        ess: out.ess(),
        dropped,
        retries,
        recovered,
        failures,
        resampled: false,
        collapse_recovered: false,
    };
    Ok((out, report))
}

/// Phase 2 of Algorithm 2, shared by both steps: degeneracy diagnosis,
/// optional resampling, and collapse recovery, completing the report
/// [`assemble`] started. The report's `ess` stays the post-reweight ESS
/// (before any resampling).
fn degeneracy_tail<S: Clone>(
    (translated, mut report): (ParticleCollection<S>, StepReport),
    particles: &ParticleCollection<S>,
    config: &SmcConfig,
    policy: &FailurePolicy,
    step: usize,
    rng: &mut dyn RngCore,
) -> Result<(ParticleCollection<S>, StepReport), SmcError> {
    // Dropping under DropAndRenormalize needs no explicit
    // renormalization: the collection's estimators self-normalize over
    // the survivors.
    let ess = report.ess;
    let collapsed = !particles.is_empty() && ess == 0.0;
    let collection = if collapsed {
        if matches!(policy, FailurePolicy::FailFast) {
            return Err(SmcError::Collapse { step });
        }
        // Recovery: the pre-step collection is still a properly weighted
        // approximation of the *previous* program's posterior — strictly
        // more useful than an empty or all-zero collection, and the
        // report makes the substitution visible.
        report.collapse_recovered = true;
        particles.clone()
    } else {
        let should_resample = match config.resample {
            ResamplePolicy::Never => false,
            ResamplePolicy::Always => true,
            ResamplePolicy::EssBelow(fraction) => ess < fraction * translated.len() as f64,
        };
        if should_resample {
            match resample(&translated, config.scheme, rng) {
                Ok(resampled) => {
                    report.resampled = true;
                    resampled
                }
                Err(ResampleError::Collapsed | ResampleError::NonFiniteTotal) => {
                    // Defensive: the ESS check above should have caught
                    // this, but treat it as the collapse it is.
                    if matches!(policy, FailurePolicy::FailFast) {
                        return Err(SmcError::Collapse { step });
                    }
                    report.collapse_recovered = true;
                    particles.clone()
                }
                Err(e @ ResampleError::Empty) => return Err(SmcError::Eval(e.into())),
            }
        } else {
            translated
        }
    };
    report.output_particles = collection.len();
    Ok((collection, report))
}

/// The "no weights" ablation: translate but *discard* the weight
/// estimates, keeping the input weights. Converges to the wrong
/// distribution (the translator output distribution `η_{P→Q}`, not the
/// posterior of `Q`) — exactly the failure mode Figures 8 and 9
/// demonstrate.
///
/// # Errors
///
/// Propagates translation errors.
pub fn infer_without_weights(
    translator: &dyn StateTranslator<Trace>,
    particles: &ParticleCollection,
    rng: &mut dyn RngCore,
) -> Result<ParticleCollection, PplError> {
    let mut out = ParticleCollection::new();
    for particle in particles.iter() {
        let (u, _) = translator.translate(&particle.trace, rng)?;
        out.push(u, particle.log_weight);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::correspondence::Correspondence;
    use crate::fault::{FaultKind, FaultPlan, FaultSpec, FaultyTranslator};
    use crate::forward::CorrespondenceTranslator;
    use crate::mcmc::IdentityKernel;
    use ppl::dist::Dist;
    use ppl::{addr, Enumeration, Handler, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// P: x ~ flip(0.5), observe flip(x?0.2:0.8)=1.
    fn p_model(h: &mut dyn Handler) -> Result<Value, ppl::PplError> {
        let x = h.sample(addr!["x"], Dist::flip(0.5))?;
        let po = if x.truthy()? { 0.2 } else { 0.8 };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        Ok(x)
    }

    /// Q: same latent, different observation model.
    fn q_model(h: &mut dyn Handler) -> Result<Value, ppl::PplError> {
        let x = h.sample(addr!["x"], Dist::flip(0.5))?;
        let po = if x.truthy()? { 0.7 } else { 0.1 };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        Ok(x)
    }

    fn posterior_samples_of_p(m: usize, rng: &mut StdRng) -> ParticleCollection {
        // Exact posterior sampling by enumeration + inverse CDF.
        let e = Enumeration::run(&p_model).unwrap();
        let marg = e.probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        let mut traces = Vec::with_capacity(m);
        for _ in 0..m {
            let x = ppl::dist::util::uniform_unit(rng) < marg;
            // Rebuild the full trace by constrained scoring.
            let mut map = ppl::ChoiceMap::new();
            map.insert(addr!["x"], Value::Bool(x));
            let t = ppl::handlers::score(&p_model, &map).unwrap();
            traces.push(t);
        }
        ParticleCollection::from_traces(traces)
    }

    type ModelFn = fn(&mut dyn Handler) -> Result<Value, ppl::PplError>;

    fn pq_translator() -> CorrespondenceTranslator<ModelFn, ModelFn> {
        CorrespondenceTranslator::new(
            p_model as ModelFn,
            q_model as ModelFn,
            Correspondence::identity_on(["x"]),
        )
    }

    /// One pooled translate-only step through the sequence loop: a single
    /// stage run as SMC step `step` with translation seeded from
    /// `base_seed`.
    fn pooled_step<T: StateTranslator<Trace> + Send + Sync + 'static>(
        translator: T,
        particles: &ParticleCollection,
        base_seed: u64,
        threads: usize,
        policy: &FailurePolicy,
        step: usize,
    ) -> Result<(ParticleCollection, StepReport), SmcError> {
        let stage: Arc<dyn StateTranslator<Trace> + Send + Sync> = Arc::new(translator);
        let mut run = crate::run_state_sequence_supervised(
            &[stage],
            particles,
            step,
            &[],
            &[],
            &SmcConfig::translate_only(),
            policy,
            &StagePolicy::default(),
            base_seed,
            threads,
            None,
        )?;
        let report = run.reports.pop().expect("one stage ran");
        Ok((run.collections.pop().expect("one stage ran"), report))
    }

    #[test]
    fn infer_converges_to_q_posterior() {
        let mut rng = StdRng::seed_from_u64(99);
        let particles = posterior_samples_of_p(20_000, &mut rng);
        let translator = pq_translator();
        let out = infer(
            &translator,
            None,
            &particles,
            &SmcConfig::translate_only(),
            &mut rng,
        )
        .unwrap();
        let estimate = out
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        let exact = Enumeration::run(&q_model)
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        assert!(
            (estimate - exact).abs() < 0.02,
            "estimate {estimate} vs exact {exact}"
        );
    }

    #[test]
    fn without_weights_converges_to_wrong_answer() {
        let mut rng = StdRng::seed_from_u64(100);
        let particles = posterior_samples_of_p(20_000, &mut rng);
        let translator = pq_translator();
        let out = infer_without_weights(&translator, &particles, &mut rng).unwrap();
        let estimate = out
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        // Without weights the x marginal stays at P's posterior.
        let p_posterior = Enumeration::run(&p_model)
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        let q_posterior = Enumeration::run(&q_model)
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        assert!((estimate - p_posterior).abs() < 0.02);
        assert!((estimate - q_posterior).abs() > 0.1);
    }

    #[test]
    fn resampling_policies_work() {
        let mut rng = StdRng::seed_from_u64(101);
        let particles = posterior_samples_of_p(500, &mut rng);
        let translator = pq_translator();
        for policy in [
            ResamplePolicy::Never,
            ResamplePolicy::Always,
            ResamplePolicy::EssBelow(0.99),
            ResamplePolicy::EssBelow(0.001),
        ] {
            let config = SmcConfig {
                resample: policy,
                ..SmcConfig::default()
            };
            let out = infer(&translator, None, &particles, &config, &mut rng).unwrap();
            assert_eq!(out.len(), 500);
            // After Always/high-threshold resampling, weights are unit.
            if policy == ResamplePolicy::Always {
                assert!(out.iter().all(|p| p.log_weight.log() == 0.0));
            }
        }
    }

    #[test]
    fn mcmc_rejuvenation_runs() {
        let mut rng = StdRng::seed_from_u64(102);
        let particles = posterior_samples_of_p(50, &mut rng);
        let translator = pq_translator();
        let config = SmcConfig {
            mcmc_steps: 3,
            ..SmcConfig::default()
        };
        let kernel = IdentityKernel;
        let out = infer(&translator, Some(&kernel), &particles, &config, &mut rng).unwrap();
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn parallel_translation_is_deterministic_and_correct() {
        let mut rng = StdRng::seed_from_u64(104);
        let particles = posterior_samples_of_p(2_000, &mut rng);
        let fail_fast = FailurePolicy::FailFast;
        let run = |threads| {
            pooled_step(pq_translator(), &particles, 7, threads, &fail_fast, 0)
                .unwrap()
                .0
        };
        let (one, four, nine) = (run(1), run(4), run(9));
        // Thread-count independence: identical traces and weights.
        for ((a, b), c) in one.iter().zip(four.iter()).zip(nine.iter()) {
            assert_eq!(a.trace.to_choice_map(), b.trace.to_choice_map());
            assert_eq!(b.trace.to_choice_map(), c.trace.to_choice_map());
            assert!((a.log_weight.log() - b.log_weight.log()).abs() < 1e-15);
        }
        // And the estimate matches the exact posterior.
        let exact = Enumeration::run(&q_model)
            .unwrap()
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap());
        let estimate = four
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        assert!((estimate - exact).abs() < 0.05, "{estimate} vs {exact}");
    }

    #[test]
    fn clean_policy_run_matches_legacy_infer_exactly() {
        let mut rng_a = StdRng::seed_from_u64(105);
        let mut rng_b = StdRng::seed_from_u64(105);
        let particles_a = posterior_samples_of_p(300, &mut rng_a);
        let particles_b = posterior_samples_of_p(300, &mut rng_b);
        let translator = pq_translator();
        let config = SmcConfig {
            resample: ResamplePolicy::EssBelow(0.9),
            ..SmcConfig::default()
        };
        let legacy = infer(&translator, None, &particles_a, &config, &mut rng_a).unwrap();
        let (fresh, report) = infer_with_policy(
            &translator,
            None,
            &particles_b,
            &config,
            &FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
            0,
            &mut rng_b,
        )
        .unwrap();
        assert!(report.is_clean());
        assert_eq!(legacy.len(), fresh.len());
        for (a, b) in legacy.iter().zip(fresh.iter()) {
            assert_eq!(a.trace.to_choice_map(), b.trace.to_choice_map());
            assert_eq!(a.log_weight.log().to_bits(), b.log_weight.log().to_bits());
        }
    }

    #[test]
    fn failfast_surfaces_minimum_index_panic_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(106);
        let particles = posterior_samples_of_p(64, &mut rng);
        let plan = FaultPlan::new()
            .with(FaultSpec::always(0, 41, FaultKind::Panic))
            .with(FaultSpec::always(0, 17, FaultKind::Panic));
        for threads in [1, 3, 8] {
            let faulty = FaultyTranslator::new(pq_translator(), plan.clone());
            let err = pooled_step(faulty, &particles, 7, threads, &FailurePolicy::FailFast, 0)
                .unwrap_err();
            match err {
                SmcError::Particle(failure) => {
                    assert_eq!(failure.particle, 17, "threads = {threads}");
                    assert!(matches!(failure.kind, FailureKind::Panic(_)));
                }
                other => panic!("expected particle failure, got {other:?}"),
            }
        }
    }

    /// A fatal failure at particle `k` decides the step: the inline loop
    /// translates only particles `0..=k`, and threads 1 and 3 report the
    /// same failure, under fail-fast and under an exhausted retry budget.
    /// A drop is not fatal, so every particle still runs.
    #[test]
    fn a_fatal_failure_stops_the_step_translating() {
        /// Records which particles it was asked to translate.
        struct Recording {
            inner: FaultyTranslator<CorrespondenceTranslator<ModelFn, ModelFn>>,
            calls: Arc<std::sync::Mutex<Vec<usize>>>,
        }
        impl StateTranslator<Trace> for Recording {
            fn translate_state(
                &self,
                t: &Trace,
                ctx: TranslateCtx,
                rng: &mut dyn RngCore,
            ) -> Result<(Trace, LogWeight), PplError> {
                self.calls.lock().unwrap().push(ctx.particle);
                self.inner.translate_state(t, ctx, rng)
            }
        }
        let particles = posterior_samples_of_p(40, &mut StdRng::seed_from_u64(109));
        let k = 13;
        let plan = FaultPlan::new()
            .with(FaultSpec::always(0, 30, FaultKind::Error))
            .with(FaultSpec::always(0, k, FaultKind::Error));
        let run = |policy: &FailurePolicy, threads: usize| {
            let calls = Arc::new(std::sync::Mutex::new(Vec::new()));
            let translator = Recording {
                inner: FaultyTranslator::new(pq_translator(), plan.clone()),
                calls: Arc::clone(&calls),
            };
            let result = pooled_step(translator, &particles, 3, threads, policy, 0);
            let mut called = calls.lock().unwrap().clone();
            called.sort_unstable();
            called.dedup();
            (result, called)
        };
        let retry = FailurePolicy::Retry {
            max_attempts: 2,
            seed: 5,
        };
        for policy in [FailurePolicy::FailFast, retry] {
            let (inline, called) = run(&policy, 1);
            assert_eq!(called, (0..=k).collect::<Vec<_>>(), "{policy:?}");
            let inline = inline.unwrap_err();
            match &inline {
                SmcError::Particle(failure) => assert_eq!(failure.particle, k),
                other => panic!("expected a particle failure, got {other:?}"),
            }
            let (pooled, _) = run(&policy, 3);
            assert_eq!(pooled.unwrap_err(), inline, "{policy:?}");
        }
        let drop = FailurePolicy::DropAndRenormalize { max_loss: 0.1 };
        let (dropped, called) = run(&drop, 1);
        assert_eq!(called, (0..40).collect::<Vec<_>>());
        assert_eq!(dropped.unwrap().1.dropped, 2);
    }

    #[test]
    fn drop_policy_parallel_is_thread_count_invariant_under_faults() {
        let mut rng = StdRng::seed_from_u64(107);
        let particles = posterior_samples_of_p(200, &mut rng);
        let plan = FaultPlan::new()
            .with(FaultSpec::always(0, 3, FaultKind::Panic))
            .with(FaultSpec::always(0, 77, FaultKind::NanWeight))
            .with(FaultSpec::always(0, 150, FaultKind::Error));
        let faulty = || FaultyTranslator::new(pq_translator(), plan.clone());
        let policy = FailurePolicy::DropAndRenormalize { max_loss: 0.05 };
        let (first, first_report) = pooled_step(faulty(), &particles, 11, 1, &policy, 0).unwrap();
        for threads in [2, 5, 16] {
            let (other, report) =
                pooled_step(faulty(), &particles, 11, threads, &policy, 0).unwrap();
            // NaN in the NonFiniteWeight record defeats `==` on the whole
            // report, so compare field by field.
            assert_eq!(report.ess.to_bits(), first_report.ess.to_bits());
            assert_eq!(report.dropped, first_report.dropped, "threads = {threads}");
            assert_eq!(report.retries, first_report.retries);
            let positions: Vec<_> = report
                .failures
                .iter()
                .map(|f| (f.particle, f.attempts, std::mem::discriminant(&f.kind)))
                .collect();
            let first_positions: Vec<_> = first_report
                .failures
                .iter()
                .map(|f| (f.particle, f.attempts, std::mem::discriminant(&f.kind)))
                .collect();
            assert_eq!(positions, first_positions, "threads = {threads}");
            assert_eq!(other.len(), first.len());
            for (a, b) in first.iter().zip(other.iter()) {
                assert_eq!(a.trace.to_choice_map(), b.trace.to_choice_map());
                assert_eq!(a.log_weight.log().to_bits(), b.log_weight.log().to_bits());
            }
        }
        assert_eq!(first_report.dropped, 3);
        assert_eq!(first.len(), 197);
        let kinds: Vec<_> = first_report.failures.iter().map(|f| f.particle).collect();
        assert_eq!(kinds, vec![3, 77, 150]);
    }

    /// The runtime's weight check rejects a `+∞` log weight, not only the
    /// NaN that [`FaultKind::NanWeight`] injects, inline and pooled alike.
    #[test]
    fn an_infinite_weight_is_a_particle_failure() {
        /// Translates like [`pq_translator`], but hands particle 5 a `+∞`
        /// log weight.
        struct Infinite;
        impl StateTranslator<Trace> for Infinite {
            fn translate_state(
                &self,
                t: &Trace,
                ctx: TranslateCtx,
                rng: &mut dyn RngCore,
            ) -> Result<(Trace, LogWeight), PplError> {
                let (u, w) = pq_translator().translate_state(t, ctx, rng)?;
                if ctx.particle == 5 {
                    Ok((u, LogWeight::from_log(f64::INFINITY)))
                } else {
                    Ok((u, w))
                }
            }
        }
        let particles = posterior_samples_of_p(20, &mut StdRng::seed_from_u64(110));
        let infinite = FailureKind::NonFiniteWeight(f64::INFINITY);
        for threads in [1, 3] {
            let drop = FailurePolicy::DropAndRenormalize { max_loss: 0.1 };
            let (out, report) = pooled_step(Infinite, &particles, 9, threads, &drop, 0).unwrap();
            assert_eq!(out.len(), 19, "threads = {threads}");
            let dropped: Vec<_> = report
                .failures
                .iter()
                .map(|f| (f.particle, f.kind.clone()))
                .collect();
            assert_eq!(dropped, vec![(5, infinite.clone())], "threads = {threads}");
            match pooled_step(
                Infinite,
                &particles,
                9,
                threads,
                &FailurePolicy::FailFast,
                0,
            ) {
                Err(SmcError::Particle(failure)) => {
                    assert_eq!((failure.particle, failure.kind), (5, infinite.clone()));
                }
                other => panic!("expected a particle failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn retry_policy_recovers_transient_faults_deterministically() {
        let mut rng = StdRng::seed_from_u64(108);
        let particles = posterior_samples_of_p(50, &mut rng);
        let plan = FaultPlan::new().with(FaultSpec::once(0, 20, FaultKind::Error));
        let faulty = || FaultyTranslator::new(pq_translator(), plan.clone());
        let policy = FailurePolicy::Retry {
            max_attempts: 3,
            seed: 99,
        };
        let (a, report_a) = pooled_step(faulty(), &particles, 5, 2, &policy, 0).unwrap();
        let (b, report_b) = pooled_step(faulty(), &particles, 5, 7, &policy, 0).unwrap();
        assert_eq!(report_a, report_b);
        assert_eq!(report_a.retries, 1);
        assert_eq!(report_a.recovered, 1);
        assert_eq!(report_a.dropped, 0);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.trace.to_choice_map(), y.trace.to_choice_map());
        }
    }

    #[test]
    fn collapse_recovery_keeps_pre_step_collection() {
        /// A translator that zeroes every weight: total collapse.
        struct Zeroing;
        impl StateTranslator<Trace> for Zeroing {
            fn translate_state(
                &self,
                t: &Trace,
                _ctx: TranslateCtx,
                _rng: &mut dyn RngCore,
            ) -> Result<(Trace, LogWeight), PplError> {
                Ok((t.clone(), LogWeight::ZERO))
            }
        }
        let mut rng = StdRng::seed_from_u64(109);
        let particles = posterior_samples_of_p(30, &mut rng);
        // Fail-fast: typed collapse error.
        let err = infer_with_policy(
            &Zeroing,
            None,
            &particles,
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            4,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, SmcError::Collapse { step: 4 }));
        // Tolerant policy: pre-step collection survives, flagged.
        let (recovered, report) = infer_with_policy(
            &Zeroing,
            None,
            &particles,
            &SmcConfig::with_rejuvenation(0),
            &FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
            4,
            &mut rng,
        )
        .unwrap();
        assert!(report.collapse_recovered);
        assert!(!report.resampled);
        assert_eq!(recovered.len(), particles.len());
        for (a, b) in particles.iter().zip(recovered.iter()) {
            assert_eq!(a.trace.to_choice_map(), b.trace.to_choice_map());
        }
    }
}
