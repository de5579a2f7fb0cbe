//! Properties of the performance architecture introduced with address
//! interning and the persistent SMC worker pool:
//!
//! 1. the small-vector-backed, internable [`Address`] must be
//!    observationally identical (Display, Eq, Ord, Hash) to the legacy
//!    `Vec<Component>` representation it replaced;
//! 2. interning must round-trip: `a.id().resolve() == a`, and ids are
//!    equal exactly when addresses are;
//! 3. pooled parallel translation must be bit-identical across thread
//!    counts and to the inline `threads = 1` loop.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use incremental::{
    run_state_sequence_supervised, Correspondence, CorrespondenceTranslator, FailurePolicy,
    ParticleCollection, SmcConfig, StagePolicy, StateTranslator,
};
use ppl::address::Component;
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, Address, Handler, PplError, Trace, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-interning address representation: a component vector with
/// *derived* Eq/Ord/Hash — the exact semantics `Address` must preserve
/// across its inline/heap/interned representations.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LegacyComponent {
    Sym(String),
    Idx(i64),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct LegacyAddress(Vec<LegacyComponent>);

impl LegacyAddress {
    fn to_modern(&self) -> Address {
        Address::new(
            self.0
                .iter()
                .map(|c| match c {
                    LegacyComponent::Sym(s) => Component::from(s.as_str()),
                    LegacyComponent::Idx(i) => Component::Idx(*i),
                })
                .collect(),
        )
    }

    /// The legacy Display rendering (slash-joined components).
    fn render(&self) -> String {
        if self.0.is_empty() {
            return "<root>".to_string();
        }
        self.0
            .iter()
            .map(|c| match c {
                LegacyComponent::Sym(s) => s.clone(),
                LegacyComponent::Idx(i) => i.to_string(),
            })
            .collect::<Vec<_>>()
            .join("/")
    }
}

fn legacy_component() -> impl Strategy<Value = LegacyComponent> {
    prop_oneof![
        "[a-z]{1,6}".prop_map(LegacyComponent::Sym),
        (-40i64..40).prop_map(LegacyComponent::Idx),
    ]
}

fn legacy_address() -> impl Strategy<Value = LegacyAddress> {
    // Lengths 0..=5 cross the inline (≤2) / heap (>2) representation
    // boundary in both directions.
    proptest::collection::vec(legacy_component(), 0..6).prop_map(LegacyAddress)
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Display matches the legacy slash-joined rendering for every
    /// representation (inline, heap, and interned resolution).
    #[test]
    fn display_round_trips_against_legacy(legacy in legacy_address()) {
        let modern = legacy.to_modern();
        prop_assert_eq!(modern.to_string(), legacy.render());
        prop_assert_eq!(modern.id().to_string(), legacy.render());
    }

    /// Eq and Ord agree with the derived legacy semantics on arbitrary
    /// address pairs.
    #[test]
    fn eq_and_ord_agree_with_legacy(a in legacy_address(), b in legacy_address()) {
        let (ma, mb) = (a.to_modern(), b.to_modern());
        prop_assert_eq!(ma == mb, a == b);
        prop_assert_eq!(ma.cmp(&mb), a.cmp(&b));
    }

    /// Equal addresses hash identically regardless of how they were
    /// built (bulk construction vs incremental child extension), and the
    /// hash stream matches the legacy derive bit-for-bit.
    #[test]
    fn hash_equality_across_representations(legacy in legacy_address()) {
        let modern = legacy.to_modern();
        // Rebuild incrementally: root → child → child …, which exercises
        // the inline-to-heap spill path.
        let mut grown = Address::root();
        for c in modern.components() {
            grown = grown.child(c.clone());
        }
        prop_assert_eq!(&grown, &modern);
        prop_assert_eq!(hash_of(&grown), hash_of(&modern));
        prop_assert_eq!(hash_of(&modern), hash_of(&legacy));
    }

    /// Interning round-trips: resolving the id yields an equal address,
    /// and two addresses share an id exactly when they are equal.
    #[test]
    fn interning_round_trips(a in legacy_address(), b in legacy_address()) {
        let (ma, mb) = (a.to_modern(), b.to_modern());
        prop_assert_eq!(ma.id().resolve(), &ma);
        prop_assert_eq!(ma.id() == mb.id(), ma == mb);
        // Ids are stable: re-interning returns the same id.
        prop_assert_eq!(ma.id(), ma.id());
    }
}

/// P: a three-site chain with an observation.
fn p_model(h: &mut dyn Handler) -> Result<Value, PplError> {
    let mut prev = Value::Bool(true);
    for i in 0..3 {
        let p = if prev.truthy()? { 0.7 } else { 0.3 };
        prev = h.sample(addr!["state", i], Dist::flip(p))?;
        let po = if prev.truthy()? { 0.8 } else { 0.2 };
        h.observe(addr!["obs", i], Dist::flip(po), Value::Bool(true))?;
    }
    Ok(prev)
}

/// Q: same sites, shifted parameters (every translation reuses all
/// states and reweights).
fn q_model(h: &mut dyn Handler) -> Result<Value, PplError> {
    let mut prev = Value::Bool(true);
    for i in 0..3 {
        let p = if prev.truthy()? { 0.6 } else { 0.4 };
        prev = h.sample(addr!["state", i], Dist::flip(p))?;
        let po = if prev.truthy()? { 0.9 } else { 0.1 };
        h.observe(addr!["obs", i], Dist::flip(po), Value::Bool(true))?;
    }
    Ok(prev)
}

type ModelFn = fn(&mut dyn Handler) -> Result<Value, PplError>;

fn fixture() -> (
    Arc<dyn StateTranslator<Trace> + Send + Sync>,
    ParticleCollection,
) {
    let translator = CorrespondenceTranslator::new(
        p_model as ModelFn,
        q_model as ModelFn,
        Correspondence::identity_on(["state"]),
    );
    let mut rng = StdRng::seed_from_u64(97);
    let traces: Vec<_> = (0..61)
        .map(|_| simulate(&p_model, &mut rng).unwrap())
        .collect();
    (
        Arc::new(translator),
        ParticleCollection::from_traces(traces),
    )
}

/// One translate-only, fail-fast stage through the sequence loop, run as
/// SMC step `step`.
fn pooled_step(
    translator: &Arc<dyn StateTranslator<Trace> + Send + Sync>,
    particles: &ParticleCollection,
    base_seed: u64,
    threads: usize,
    step: usize,
) -> ParticleCollection {
    run_state_sequence_supervised(
        std::slice::from_ref(translator),
        particles,
        step,
        &[],
        &[],
        &SmcConfig::translate_only(),
        &FailurePolicy::FailFast,
        &StagePolicy::default(),
        base_seed,
        threads,
        None,
    )
    .unwrap()
    .collections
    .pop()
    .unwrap()
}

/// Exact (bit-level) equality of two collections: same traces in the
/// same order with identical weight bits.
fn assert_bit_identical(a: &ParticleCollection, b: &ParticleCollection, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: particle counts differ");
    for (i, (pa, pb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            pa.log_weight.log().to_bits(),
            pb.log_weight.log().to_bits(),
            "{label}: weight bits differ at particle {i}"
        );
        assert_eq!(pa.trace, pb.trace, "{label}: trace differs at particle {i}");
    }
}

#[test]
fn pooled_translation_is_bit_identical_across_thread_counts() {
    let (translator, particles) = fixture();
    let baseline = pooled_step(&translator, &particles, 4242, 1, 0);
    for threads in [3, 8] {
        let out = pooled_step(&translator, &particles, 4242, threads, 0);
        assert_bit_identical(&baseline, &out, &format!("threads={threads}"));
    }
}

/// The inline `threads = 1` loop is the reference the pooled dispatch
/// must reproduce, at a nonzero step so stage seeding is exercised too.
#[test]
fn pooled_translation_matches_scoped_reference() {
    let (translator, particles) = fixture();
    let inline = pooled_step(&translator, &particles, 9000, 1, 2);
    for threads in [3, 8] {
        let pooled = pooled_step(&translator, &particles, 9000, threads, 2);
        assert_bit_identical(
            &inline,
            &pooled,
            &format!("pooled vs inline, threads={threads}"),
        );
    }
}

#[test]
fn pool_reuse_across_steps_is_deterministic() {
    // Two passes over the same multi-step edit sequence, interleaved with
    // other pool work by prior tests, must agree bit-for-bit: pool state
    // carries no randomness between steps.
    let (translator, particles) = fixture();
    let run = || {
        let mut current = particles.clone();
        let mut weights = Vec::new();
        for step in 0..5 {
            current = pooled_step(&translator, &current, 1000 + step as u64, 4, step);
            weights.extend(current.iter().map(|p| p.log_weight.log().to_bits()));
        }
        weights
    };
    assert_eq!(run(), run());
}
