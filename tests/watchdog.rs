//! Deadline integration tests: deterministic hang injection
//! ([`FaultKind::Hang`]) against per-attempt deadlines in the SMC
//! runtime.
//!
//! Contracts pinned here, one per [`FailurePolicy`]:
//! - **Retry**: a transiently hung particle times out, is retried at
//!   once (its hung attempt has already stopped), recovers, and the run's
//!   output is bit-identical to a fault-free run (the hung attempt's
//!   result is never used).
//! - **Drop**: permanently hung particles are quarantined as
//!   [`FailureKind::Timeout`] within the loss budget.
//! - **Fail-fast**: a hung particle surfaces as a typed
//!   [`SmcError::Particle`] carrying the timeout.
//!
//! All hangs are far longer than the deadline, and every run asserts a
//! wall-clock bound: a hang stops at its attempt's deadline rather than
//! being waited out. Every test runs inline (one thread) and on the
//! pool (three), with the same assertions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use incremental::{
    collection_checksum, run_state_sequence_supervised, Correspondence, CorrespondenceTranslator,
    FailureKind, FailurePolicy, FaultKind, FaultPlan, FaultSpec, FaultyTranslator,
    ParticleCollection, SequenceRun, SmcConfig, SmcError, StagePolicy, StateTranslator,
};
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, Handler, PplError, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_PARTICLES: usize = 32;
const SEED: u64 = 99;
/// Hung translations sleep 600 ms; each attempt stops after 150 ms.
const HANG: Duration = Duration::from_millis(600);
const DEADLINE: Duration = Duration::from_millis(150);

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

/// Supervised stages for the edit history 0.5 → 0.6 → 0.8, wrapped in
/// hang-injecting fault translators. With the identity correspondence on
/// every site, translation reuses all choices and consumes no fresh
/// randomness — so a recovered retry (different RNG stream) must still
/// reproduce the fault-free result exactly.
fn stages(plan: &FaultPlan) -> Vec<Arc<dyn StateTranslator<ppl::Trace> + Send + Sync>> {
    [(0.5, 0.6), (0.6, 0.8)]
        .into_iter()
        .map(|(p_from, p_to)| {
            let inner = CorrespondenceTranslator::new(
                model_with_obs(p_from),
                model_with_obs(p_to),
                Correspondence::identity_on(["x"]),
            );
            Arc::new(FaultyTranslator::new(inner, plan.clone()))
                as Arc<dyn StateTranslator<ppl::Trace> + Send + Sync>
        })
        .collect()
}

fn initial_particles() -> ParticleCollection {
    let m0 = model_with_obs(0.5);
    let mut rng = StdRng::seed_from_u64(5);
    ParticleCollection::from_traces((0..N_PARTICLES).map(|_| simulate(&m0, &mut rng).unwrap()))
}

/// The thread counts every test runs at: inline and pooled.
const THREADS: [usize; 2] = [1, 3];

fn run_supervised(
    plan: &FaultPlan,
    policy: &FailurePolicy,
    stage_policy: &StagePolicy,
    threads: usize,
) -> Result<SequenceRun, SmcError> {
    run_state_sequence_supervised(
        &stages(plan),
        &initial_particles(),
        0,
        &[],
        &[],
        &SmcConfig::translate_only(),
        policy,
        stage_policy,
        SEED,
        threads,
        None,
    )
}

fn watched() -> StagePolicy {
    StagePolicy::default().with_deadline(DEADLINE)
}

fn checksum(run: &SequenceRun) -> u64 {
    let entries: Vec<_> = run
        .last()
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect();
    collection_checksum(&entries)
}

#[test]
fn transient_hang_retries_and_matches_fault_free_run() {
    for threads in THREADS {
        let start = Instant::now();
        let clean = run_supervised(
            &FaultPlan::new(),
            &FailurePolicy::FailFast,
            &watched(),
            threads,
        )
        .expect("fault-free supervised run");

        let plan = FaultPlan::new()
            .with(FaultSpec::once(1, 3, FaultKind::Hang))
            .with_hang_duration(HANG);
        let policy = FailurePolicy::Retry {
            max_attempts: 3,
            seed: 1,
        };
        let run =
            run_supervised(&plan, &policy, &watched(), threads).expect("retry recovers the hang");

        assert_eq!(run.reports[0].retries, 0);
        assert_eq!(run.reports[1].retries, 1, "{:?}", run.reports[1]);
        assert_eq!(run.reports[1].recovered, 1);
        assert_eq!(run.reports[1].dropped, 0);
        assert_eq!(
            checksum(&run),
            checksum(&clean),
            "recovered run must be bit-identical to the fault-free run"
        );
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog must not wait out hung workers"
        );
    }
}

#[test]
fn permanent_hangs_are_dropped_as_timeouts_within_budget() {
    for threads in THREADS {
        let start = Instant::now();
        let plan = FaultPlan::new()
            .with(FaultSpec::always(0, 2, FaultKind::Hang))
            .with(FaultSpec::always(0, 9, FaultKind::Hang))
            .with_hang_duration(HANG);
        let policy = FailurePolicy::DropAndRenormalize { max_loss: 0.1 };
        let run =
            run_supervised(&plan, &policy, &watched(), threads).expect("drop absorbs the hangs");

        let report = &run.reports[0];
        assert_eq!(report.dropped, 2, "{report:?}");
        assert_eq!(report.output_particles, N_PARTICLES - 2);
        let mut hung: Vec<usize> = report.failures.iter().map(|f| f.particle).collect();
        hung.sort_unstable();
        assert_eq!(hung, vec![2, 9]);
        for failure in &report.failures {
            assert_eq!(
                failure.kind,
                FailureKind::Timeout {
                    waited_ms: DEADLINE.as_millis() as u64
                },
                "{failure:?}"
            );
        }
        // The second stage is fault-free.
        assert_eq!(run.reports[1].dropped, 0);
        assert!(start.elapsed() < Duration::from_secs(20));
    }
}

#[test]
fn fail_fast_surfaces_a_hang_as_a_typed_timeout_error() {
    for threads in THREADS {
        let start = Instant::now();
        let plan = FaultPlan::new()
            .with(FaultSpec::always(0, 4, FaultKind::Hang))
            .with_hang_duration(HANG);
        let err = run_supervised(&plan, &FailurePolicy::FailFast, &watched(), threads)
            .expect_err("fail-fast must surface the hang");
        match err {
            SmcError::Particle(f) => {
                assert_eq!(f.step, 0);
                assert_eq!(f.particle, 4);
                assert_eq!(f.attempts, 1);
                assert_eq!(
                    f.kind,
                    FailureKind::Timeout {
                        waited_ms: DEADLINE.as_millis() as u64
                    }
                );
            }
            other => panic!("expected SmcError::Particle, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(20));
    }
}

/// Retry exhaustion on a permanent hang: every attempt times out and the
/// run fails with the *last* attempt's timeout, having spent the full
/// retry budget.
#[test]
fn retry_exhaustion_on_a_permanent_hang_is_a_typed_error() {
    for threads in THREADS {
        let start = Instant::now();
        let plan = FaultPlan::new()
            .with(FaultSpec::always(0, 7, FaultKind::Hang))
            .with_hang_duration(HANG);
        let policy = FailurePolicy::Retry {
            max_attempts: 2,
            seed: 3,
        };
        let err =
            run_supervised(&plan, &policy, &watched(), threads).expect_err("retries must exhaust");
        match err {
            SmcError::Particle(f) => {
                assert_eq!(f.particle, 7);
                assert_eq!(f.attempts, 2);
                assert!(matches!(f.kind, FailureKind::Timeout { .. }), "{f:?}");
            }
            other => panic!("expected SmcError::Particle, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(20));
    }
}
