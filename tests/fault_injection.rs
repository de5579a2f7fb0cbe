//! Fault-injection integration tests for the fault-tolerant SMC runtime.
//!
//! A three-stage SMC sequence is driven through [`FaultyTranslator`]s
//! injecting all three failure modes — a worker panic, a NaN weight, and
//! a structured translation error — and each [`FailurePolicy`] is checked
//! against its contract: fail-fast surfaces a typed error, drop-and-
//! renormalize completes on the survivors and reports the quarantine, and
//! retry recovers deterministically with reseeded per-attempt RNGs.

use std::sync::Arc;

use incremental::{
    infer, run_state_sequence_supervised, Correspondence, CorrespondenceTranslator, FailureKind,
    FailurePolicy, FaultKind, FaultPlan, FaultSpec, FaultyTranslator, ParticleCollection,
    SequenceRun, SmcConfig, SmcError, StagePolicy, StateTranslator,
};
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, Handler, PplError, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_PARTICLES: usize = 400;

fn model_with_obs(p_obs_true: f64) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> {
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

/// Three translators for the edit history 0.5 → 0.6 → 0.8 → 0.9.
#[allow(clippy::type_complexity)]
fn translator_chain() -> Vec<
    CorrespondenceTranslator<
        impl Fn(&mut dyn Handler) -> Result<Value, PplError>,
        impl Fn(&mut dyn Handler) -> Result<Value, PplError>,
    >,
> {
    [(0.5, 0.6), (0.6, 0.8), (0.8, 0.9)]
        .into_iter()
        .map(|(p_from, p_to)| {
            CorrespondenceTranslator::new(
                model_with_obs(p_from),
                model_with_obs(p_to),
                Correspondence::identity_on(["x"]),
            )
        })
        .collect()
}

/// Posterior samples of the first-stage source model. Its observation is
/// uninformative (flip(0.5)), so prior simulations are posterior samples.
fn initial_particles(seed: u64) -> ParticleCollection {
    let m0 = model_with_obs(0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    ParticleCollection::from_traces((0..N_PARTICLES).map(|_| simulate(&m0, &mut rng).unwrap()))
}

/// All three failure modes across a multi-step sequence: a panic at stage
/// 0, a NaN weight at stage 1, and a translation error at stage 2.
fn all_modes_plan(fail_attempts: fn(usize, usize, FaultKind) -> FaultSpec) -> FaultPlan {
    FaultPlan::new()
        .with(fail_attempts(0, 7, FaultKind::Panic))
        .with(fail_attempts(1, 3, FaultKind::NanWeight))
        .with(fail_attempts(2, 11, FaultKind::Error))
}

type TraceStage = Arc<dyn StateTranslator<Trace> + Send + Sync>;

/// The translator chain as loop stages, each wrapped to inject `plan`.
fn faulty_stages(plan: &FaultPlan) -> Vec<TraceStage> {
    translator_chain()
        .into_iter()
        .map(|t| Arc::new(FaultyTranslator::new(t, plan.clone())) as TraceStage)
        .collect()
}

/// Runs `stages` translate-only through the sequence loop on one thread.
fn run_stages(
    stages: &[TraceStage],
    initial: &ParticleCollection,
    policy: &FailurePolicy,
    seed: u64,
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
        seed,
        1,
        None,
    )
}

fn posterior_true(c: &ParticleCollection) -> f64 {
    c.probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
        .unwrap()
}

#[test]
fn fail_fast_surfaces_the_first_fault_as_a_typed_error() {
    let stages = faulty_stages(&all_modes_plan(FaultSpec::always));
    let err = run_stages(&stages, &initial_particles(1), &FailurePolicy::FailFast, 1).unwrap_err();
    // The first planned fault is the stage-0 panic: the run dies there
    // with a structured record, not an unwinding panic.
    match err {
        SmcError::Particle(f) => {
            assert_eq!(f.step, 0);
            assert_eq!(f.particle, 7);
            assert_eq!(f.attempts, 1);
            assert!(
                matches!(f.kind, FailureKind::Panic(ref msg)
                             if msg.contains("injected panic: step 0 particle 7")),
                "{f}"
            );
        }
        other => panic!("expected SmcError::Particle, got {other}"),
    }
}

#[test]
fn drop_and_renormalize_quarantines_all_three_modes() {
    let stages = faulty_stages(&all_modes_plan(FaultSpec::always));
    let run = run_stages(
        &stages,
        &initial_particles(2),
        &FailurePolicy::DropAndRenormalize { max_loss: 0.05 },
        2,
    )
    .unwrap();

    // Each stage drops exactly its one faulted particle and records the
    // failure mode in its report.
    assert!(!run.is_clean());
    let expect = [(7, "panic"), (3, "non-finite"), (11, "error")];
    for (step, (particle, _)) in expect.iter().enumerate() {
        let report = &run.reports[step];
        assert_eq!(report.step, step);
        assert_eq!(report.dropped, 1, "stage {step}: {report}");
        assert_eq!(report.retries, 0);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].particle, *particle);
        assert_eq!(report.input_particles, N_PARTICLES - step);
        assert_eq!(report.output_particles, N_PARTICLES - step - 1);
    }
    assert!(matches!(
        run.reports[0].failures[0].kind,
        FailureKind::Panic(_)
    ));
    assert!(matches!(
        run.reports[1].failures[0].kind,
        FailureKind::NonFiniteWeight(w) if w.is_nan()
    ));
    assert!(matches!(
        run.reports[2].failures[0].kind,
        FailureKind::Error(_)
    ));

    // The survivors still form a properly-weighted collection: the
    // estimator self-normalizes over them and tracks the final posterior
    // (exact for the 0.9 model: 0.9).
    assert_eq!(run.last().len(), N_PARTICLES - 3);
    let estimate = posterior_true(run.last());
    assert!((estimate - 0.9).abs() < 0.06, "estimate {estimate}");
}

#[test]
fn drop_policy_rejects_runs_exceeding_the_loss_bound() {
    // Fault 3 of 400 particles at stage 0 with a 0.5% loss budget (2 max).
    let plan = FaultPlan::new()
        .with(FaultSpec::always(0, 1, FaultKind::Error))
        .with(FaultSpec::always(0, 2, FaultKind::Error))
        .with(FaultSpec::always(0, 3, FaultKind::Error));
    let err = run_stages(
        &faulty_stages(&plan),
        &initial_particles(3),
        &FailurePolicy::DropAndRenormalize { max_loss: 0.005 },
        3,
    )
    .unwrap_err();
    match err {
        SmcError::TooManyDropped {
            step,
            dropped,
            total,
            failures,
            ..
        } => {
            assert_eq!(step, 0);
            assert_eq!(dropped, 3);
            assert_eq!(total, N_PARTICLES);
            assert_eq!(failures.len(), 3);
        }
        other => panic!("expected SmcError::TooManyDropped, got {other}"),
    }
}

#[test]
fn retry_recovers_transient_faults_deterministically() {
    // Each fault clears after the first attempt, so one reseeded retry
    // recovers every particle.
    let stages = faulty_stages(&all_modes_plan(FaultSpec::once));
    let policy = FailurePolicy::Retry {
        max_attempts: 3,
        seed: 17,
    };
    let run_once =
        |seed: u64| run_stages(&stages, &initial_particles(seed), &policy, seed).unwrap();
    let run = run_once(4);

    // No particle is lost; each stage records exactly one recovery.
    for (step, report) in run.reports.iter().enumerate() {
        assert_eq!(report.dropped, 0, "stage {step}: {report}");
        assert_eq!(report.retries, 1);
        assert_eq!(report.recovered, 1);
        assert!(report.failures.is_empty());
        assert_eq!(report.output_particles, N_PARTICLES);
    }
    let estimate = posterior_true(run.last());
    assert!((estimate - 0.9).abs() < 0.06, "estimate {estimate}");

    // Retry RNGs are derived from (policy seed, step, particle, attempt),
    // not from any shared stream, so a rerun is bit-identical.
    let rerun = run_once(4);
    let bits = |r: &SequenceRun| -> Vec<u64> {
        r.last()
            .iter()
            .map(|p| p.log_weight.log().to_bits())
            .collect()
    };
    assert_eq!(bits(&run), bits(&rerun));
    assert_eq!(
        posterior_true(run.last()).to_bits(),
        posterior_true(rerun.last()).to_bits()
    );
}

#[test]
fn retry_exhaustion_is_a_typed_error() {
    // A permanent fault outlives any retry budget.
    let plan = FaultPlan::new().with(FaultSpec::always(1, 5, FaultKind::Error));
    let err = run_stages(
        &faulty_stages(&plan),
        &initial_particles(5),
        &FailurePolicy::Retry {
            max_attempts: 4,
            seed: 0,
        },
        5,
    )
    .unwrap_err();
    match err {
        SmcError::Particle(f) => {
            assert_eq!((f.step, f.particle, f.attempts), (1, 5, 4));
        }
        other => panic!("expected SmcError::Particle, got {other}"),
    }
}

/// The robustness machinery must be invisible on clean runs: a tolerant
/// policy over stages wrapped in a no-fault `FaultyTranslator`
/// reproduces the plain fail-fast run and `infer` bit for bit.
#[test]
fn clean_runs_are_bit_identical_to_the_legacy_path() {
    let chain = translator_chain();

    // Plain fail-fast sequence run.
    let plain: Vec<TraceStage> = translator_chain()
        .into_iter()
        .map(|t| Arc::new(t) as TraceStage)
        .collect();
    let legacy = run_stages(&plain, &initial_particles(6), &FailurePolicy::FailFast, 6).unwrap();

    // Policy path with an empty fault plan and a tolerant policy.
    let policy_run = run_stages(
        &faulty_stages(&FaultPlan::new()),
        &initial_particles(6),
        &FailurePolicy::DropAndRenormalize { max_loss: 0.5 },
        6,
    )
    .unwrap();

    assert!(legacy.is_clean());
    assert!(policy_run.is_clean());
    for (a, b) in legacy.collections.iter().zip(&policy_run.collections) {
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b.iter()) {
            assert_eq!(pa.log_weight.log().to_bits(), pb.log_weight.log().to_bits());
        }
    }
    assert_eq!(
        posterior_true(legacy.last()).to_bits(),
        posterior_true(policy_run.last()).to_bits()
    );

    // Single-step `infer` agrees with the first sequence stage too.
    let one = infer(
        &chain[0],
        None,
        &initial_particles(6),
        &SmcConfig::translate_only(),
        &mut StdRng::seed_from_u64(6),
    )
    .unwrap();
    assert_eq!(
        posterior_true(&one).to_bits(),
        posterior_true(&legacy.collections[0]).to_bits()
    );
}
