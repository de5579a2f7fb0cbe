//! Weighted particle collections.
//!
//! A weighted collection `{(t_j, w_j)}` approximates a posterior
//! `Pr[t ∼ P]` by the empirical distribution
//! `P̂(t) = Σ_j (w_j / Σ_k w_k) δ(t, t_j)` (Section 4.2), and estimates
//! expectations with the self-normalized estimator of Eq. (5).
//!
//! Collections are generic over the particle *state* `S` (default
//! [`Trace`]): the Section 6 runtime keeps particles as execution graphs
//! across a whole edit sequence and only flattens them to traces at API
//! boundaries via [`ParticleState`].

use std::collections::hash_map::Entry;
use std::sync::Arc;

use ppl::logweight::log_sum_exp;
use ppl::{ChoiceMap, FxHashMap, LogWeight, PplError, Trace};

/// A particle state that can be flattened to a plain [`Trace`] at an API
/// boundary (estimation over trace predicates, reporting, hand-off to
/// trace-level translators).
///
/// A flat [`Trace`] is its own state (flattening is a clone); the
/// Section 6 runtime implements this for shared execution graphs so
/// graph-native collections can be inspected without leaving the graph
/// representation during inference.
///
/// Resampling duplicates a particle by cloning its state, and for an
/// `Arc` that clone shares one allocation. [`ParticleState::share_key`]
/// exposes that sharing, so [`ParticleCollection::flatten`] flattens each
/// shared state once and copies the result to its duplicates. Choice
/// maps, which checkpoints and collection checksums are built from, are
/// flattened for the whole collection in one
/// [`ParticleState::choice_maps`] call, so that a representation can
/// share work across it. Either way the output is the same as flattening
/// every particle on its own.
pub trait ParticleState: Sized {
    /// Flattens the state to the trace it represents.
    ///
    /// # Errors
    ///
    /// Propagates representation-specific flattening failures (a
    /// [`Trace`] never fails).
    fn to_trace(&self) -> Result<Trace, PplError>;

    /// The choice map of each of `states`, in order: what
    /// `to_trace()?.to_choice_map()` returns for it. States that are one
    /// allocation share one `Arc`, and a representation may also give
    /// one `Arc` to states whose choices are identical bit for bit, so
    /// that a writer that renders each distinct `Arc` once
    /// ([`ppl::trace_io::write_weighted_entries`]) renders each distinct
    /// map once. The default flattens each distinct state once;
    /// representations that can list their choices without building a
    /// [`Trace`] override it.
    ///
    /// # Errors
    ///
    /// The first failure in order.
    fn choice_maps(states: &[&Self]) -> Result<Vec<Arc<ChoiceMap>>, PplError> {
        each_distinct(states, |state| {
            Ok(Arc::new(state.to_trace()?.to_choice_map()))
        })
    }

    /// A key shared by states that are one allocation, or `None` (the
    /// default) when the state shares nothing. Two states of one
    /// collection with equal keys flatten to equal traces and choice
    /// maps. Keys are compared only while the whole collection is
    /// borrowed, so no key can be freed and reused meanwhile.
    fn share_key(&self) -> Option<usize> {
        None
    }
}

/// `flatten` applied to each of `states`, in order: once per distinct
/// state, the result cloned for the state's duplicates. A state is
/// told apart by its [`ParticleState::share_key`], or by its address when
/// it has none, so the states an `Arc` impl hands on are told apart by
/// the allocation they share.
///
/// # Errors
///
/// The first error `flatten` returns.
fn each_distinct<S: ParticleState, T: Clone>(
    states: &[&S],
    mut flatten: impl FnMut(&S) -> Result<T, PplError>,
) -> Result<Vec<T>, PplError> {
    let mut out: Vec<T> = Vec::with_capacity(states.len());
    let mut first: FxHashMap<usize, usize> = FxHashMap::default();
    for &state in states {
        let key = state
            .share_key()
            .unwrap_or(std::ptr::from_ref(state) as usize);
        let flat = match first.entry(key) {
            Entry::Occupied(seen) => out[*seen.get()].clone(),
            Entry::Vacant(slot) => {
                slot.insert(out.len());
                flatten(state)?
            }
        };
        out.push(flat);
    }
    Ok(out)
}

impl ParticleState for Trace {
    fn to_trace(&self) -> Result<Trace, PplError> {
        Ok(self.clone())
    }
}

/// Shared states flatten through the reference — this is what lets
/// copy-on-write `Arc`-backed graph particles satisfy the boundary
/// contract without a newtype. Clones of one `Arc` share its address as
/// their [`ParticleState::share_key`], and
/// [`ParticleState::choice_maps`] receives the shared states themselves,
/// so the clones of one state arrive as one.
impl<S: ParticleState> ParticleState for Arc<S> {
    fn to_trace(&self) -> Result<Trace, PplError> {
        (**self).to_trace()
    }

    fn choice_maps(states: &[&Self]) -> Result<Vec<Arc<ChoiceMap>>, PplError> {
        let targets: Vec<&S> = states.iter().map(|&state| &**state).collect();
        S::choice_maps(&targets)
    }

    fn share_key(&self) -> Option<usize> {
        Some(Arc::as_ptr(self).cast::<()>() as usize)
    }
}

/// One weighted particle: a state (by default a trace) and its log
/// weight.
#[derive(Debug, Clone)]
pub struct Particle<S = Trace> {
    /// The particle state (a [`Trace`] unless the runtime carries a
    /// richer representation).
    pub trace: S,
    /// Its log weight.
    pub log_weight: LogWeight,
}

/// A weighted collection of particle states approximating a posterior.
///
/// # Examples
///
/// ```
/// use incremental::ParticleCollection;
/// use ppl::{addr, Handler, PplError};
/// use ppl::dist::Dist;
/// use ppl::handlers::simulate;
/// use rand::SeedableRng;
///
/// let model = |h: &mut dyn Handler| h.sample(addr!["x"], Dist::flip(0.5));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let traces = (0..100).map(|_| simulate(&model, &mut rng)).collect::<Result<Vec<_>, _>>()?;
/// let particles = ParticleCollection::from_traces(traces);
/// let p = particles.probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())?;
/// assert!(p > 0.2 && p < 0.8);
/// # Ok::<(), PplError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParticleCollection<S = Trace> {
    particles: Vec<Particle<S>>,
}

impl<S> Default for ParticleCollection<S> {
    fn default() -> ParticleCollection<S> {
        ParticleCollection {
            particles: Vec::new(),
        }
    }
}

impl<S> ParticleCollection<S> {
    /// Creates an empty collection.
    pub fn new() -> ParticleCollection<S> {
        ParticleCollection::default()
    }

    /// Creates a collection from explicit particles.
    pub fn from_particles(particles: Vec<Particle<S>>) -> ParticleCollection<S> {
        ParticleCollection { particles }
    }

    /// Adds a particle.
    pub fn push(&mut self, trace: S, log_weight: LogWeight) {
        self.particles.push(Particle { trace, log_weight });
    }

    /// Number of particles `M`.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Iterates over the particles.
    pub fn iter(&self) -> impl Iterator<Item = &Particle<S>> {
        self.particles.iter()
    }

    /// The particles as a slice.
    pub fn particles(&self) -> &[Particle<S>] {
        &self.particles
    }

    /// The log weights.
    pub fn log_weights(&self) -> Vec<f64> {
        self.particles.iter().map(|p| p.log_weight.log()).collect()
    }

    /// Self-normalized weights summing to 1.
    ///
    /// # Errors
    ///
    /// Errors if the collection is empty or all weights are zero (total
    /// particle degeneracy), or if the weight total is non-finite — a NaN
    /// or `+∞` weight entered the collection, so no proper normalization
    /// exists. The SMC runtime never lets one in: it turns such a
    /// translation into a [`crate::FailureKind::NonFiniteWeight`] failure.
    pub fn normalized_weights(&self) -> Result<Vec<f64>, PplError> {
        let lw = self.log_weights();
        let lse = log_sum_exp(&lw);
        if lse == f64::NEG_INFINITY {
            return Err(PplError::Other(
                "all particle weights are zero; the approximation has collapsed".to_string(),
            ));
        }
        if !lse.is_finite() {
            return Err(PplError::Other(format!(
                "particle weights have non-finite total (log-sum-exp = {lse}); \
                 a NaN or infinite weight entered the collection"
            )));
        }
        Ok(lw.iter().map(|w| (w - lse).exp()).collect())
    }

    /// The self-normalized estimator of Eq. (5):
    /// `Σ_j w'_j φ(u'_j) / Σ_j w'_j ≈ E_{u∼Q}[φ(u)]`.
    ///
    /// # Errors
    ///
    /// Errors on an empty or fully degenerate collection.
    pub fn estimate(&self, mut phi: impl FnMut(&S) -> f64) -> Result<f64, PplError> {
        let ws = self.normalized_weights()?;
        Ok(self
            .particles
            .iter()
            .zip(ws)
            .map(|(p, w)| w * phi(&p.trace))
            .sum())
    }

    /// Estimates the probability of an event `A ⊆ T_Q` using the indicator
    /// estimator of Section 4.2.
    ///
    /// # Errors
    ///
    /// Errors on an empty or fully degenerate collection.
    pub fn probability(&self, mut event: impl FnMut(&S) -> bool) -> Result<f64, PplError> {
        self.estimate(|t| if event(t) { 1.0 } else { 0.0 })
    }

    /// Effective sample size `(Σ_j w_j)² / Σ_j w_j²` — the degeneracy
    /// diagnostic of Section 4.2 ("Multiple Steps and resample").
    pub fn ess(&self) -> f64 {
        crate::diagnostics::effective_sample_size(&self.log_weights())
    }

    /// `log((1/M) Σ_j w_j)` — across one `infer` step starting from unit
    /// weights this estimates `log(Z_Q / Z_P)` (Lemma 6).
    pub fn log_mean_weight(&self) -> f64 {
        if self.particles.is_empty() {
            return f64::NEG_INFINITY;
        }
        log_sum_exp(&self.log_weights()) - (self.particles.len() as f64).ln()
    }
}

impl ParticleCollection {
    /// Creates a collection of unit-weight particles from plain traces
    /// (e.g. exact posterior samples, as in Sections 7.2–7.3).
    pub fn from_traces(traces: impl IntoIterator<Item = Trace>) -> ParticleCollection {
        ParticleCollection {
            particles: traces
                .into_iter()
                .map(|trace| Particle {
                    trace,
                    log_weight: LogWeight::ONE,
                })
                .collect(),
        }
    }
}

impl<S: ParticleState> ParticleCollection<S> {
    /// Flattens every particle state to its trace, preserving weights —
    /// the lazy boundary between a graph-native run and trace-level
    /// consumers. A shared state is flattened once and its trace cloned
    /// for each duplicate.
    ///
    /// # Errors
    ///
    /// Propagates [`ParticleState::to_trace`] failures.
    pub fn flatten(&self) -> Result<ParticleCollection, PplError> {
        let traces = each_distinct(&self.states(), ParticleState::to_trace)?;
        Ok(traces
            .into_iter()
            .zip(&self.particles)
            .map(|(trace, p)| Particle {
                trace,
                log_weight: p.log_weight,
            })
            .collect())
    }

    /// Every particle's choice map and log weight, in order, from one
    /// [`ParticleState::choice_maps`] call: particles whose choices are
    /// the same map share its `Arc`. This is what checkpoints and
    /// collection checksums are built from.
    ///
    /// # Errors
    ///
    /// The first [`ParticleState::choice_maps`] failure in order.
    pub fn weighted_maps(&self) -> Result<Vec<(Arc<ChoiceMap>, f64)>, PplError> {
        let maps = S::choice_maps(&self.states())?;
        Ok(maps
            .into_iter()
            .zip(&self.particles)
            .map(|(map, p)| (map, p.log_weight.log()))
            .collect())
    }

    fn states(&self) -> Vec<&S> {
        self.particles.iter().map(|p| &p.trace).collect()
    }
}

impl<S> FromIterator<Particle<S>> for ParticleCollection<S> {
    fn from_iter<I: IntoIterator<Item = Particle<S>>>(iter: I) -> Self {
        ParticleCollection {
            particles: iter.into_iter().collect(),
        }
    }
}

impl<S> Extend<Particle<S>> for ParticleCollection<S> {
    fn extend<I: IntoIterator<Item = Particle<S>>>(&mut self, iter: I) {
        self.particles.extend(iter);
    }
}

impl<S> IntoIterator for ParticleCollection<S> {
    type Item = Particle<S>;
    type IntoIter = std::vec::IntoIter<Particle<S>>;

    fn into_iter(self) -> Self::IntoIter {
        self.particles.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::addr;
    use ppl::dist::Dist;
    use ppl::Value;

    fn trace_with(name: &str, b: bool) -> Trace {
        let mut t = Trace::new();
        let d = Dist::flip(0.5);
        let lp = d.log_prob(&Value::Bool(b));
        t.record_choice(addr![name], Value::Bool(b), d, lp).unwrap();
        t
    }

    #[test]
    fn weighted_estimate_matches_hand_computation() {
        let mut c = ParticleCollection::new();
        c.push(trace_with("x", true), LogWeight::from_prob(3.0));
        c.push(trace_with("x", false), LogWeight::from_prob(1.0));
        let p = c
            .probability(|t| t.value(&addr!["x"]).unwrap().truthy().unwrap())
            .unwrap();
        assert!((p - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_collection_errors() {
        let mut c = ParticleCollection::new();
        c.push(trace_with("x", true), LogWeight::ZERO);
        assert!(c.estimate(|_| 1.0).is_err());
        assert!(ParticleCollection::<Trace>::new()
            .estimate(|_| 1.0)
            .is_err());
    }

    #[test]
    fn normalized_weights_edge_cases() {
        // Single particle: weight 1 regardless of magnitude.
        let mut single = ParticleCollection::new();
        single.push(trace_with("x", true), LogWeight::from_log(-300.0));
        let ws = single.normalized_weights().unwrap();
        assert_eq!(ws, vec![1.0]);
        // All -inf: typed degeneracy error, not NaN output.
        let mut dead = ParticleCollection::new();
        dead.push(trace_with("x", true), LogWeight::ZERO);
        dead.push(trace_with("x", false), LogWeight::ZERO);
        assert!(dead.normalized_weights().is_err());
        // A +inf or NaN weight (pushed through the unchecked path) is a
        // typed error, not NaN-poisoned output.
        let mut spiked = ParticleCollection::new();
        spiked.push(trace_with("x", true), LogWeight::from_log(f64::INFINITY));
        spiked.push(trace_with("x", false), LogWeight::ONE);
        assert!(spiked.normalized_weights().is_err());
        assert_eq!(spiked.ess(), 1.0);
        let mut poisoned = ParticleCollection::new();
        poisoned.push(trace_with("x", true), LogWeight::from_log(f64::NAN));
        assert!(poisoned.normalized_weights().is_err());
        assert_eq!(poisoned.ess(), 0.0);
    }

    #[test]
    fn ess_of_equal_weights_is_m() {
        let c = ParticleCollection::from_traces((0..10).map(|_| trace_with("x", true)));
        assert!((c.ess() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ess_collapses_with_one_dominant_weight() {
        let mut c = ParticleCollection::new();
        c.push(trace_with("x", true), LogWeight::from_log(0.0));
        for _ in 0..9 {
            c.push(trace_with("x", false), LogWeight::from_log(-40.0));
        }
        assert!(c.ess() < 1.001);
    }

    #[test]
    fn log_mean_weight_of_unit_weights_is_zero() {
        let c = ParticleCollection::from_traces((0..7).map(|_| trace_with("x", true)));
        assert!(c.log_mean_weight().abs() < 1e-12);
        assert_eq!(
            ParticleCollection::<Trace>::new().log_mean_weight(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn flatten_of_trace_collection_is_identity() {
        let mut c = ParticleCollection::new();
        c.push(trace_with("x", true), LogWeight::from_prob(2.0));
        c.push(trace_with("x", false), LogWeight::from_prob(1.0));
        let flat = c.flatten().unwrap();
        assert_eq!(flat.len(), c.len());
        for (a, b) in c.iter().zip(flat.iter()) {
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.log_weight.log().to_bits(), b.log_weight.log().to_bits());
        }
    }

    #[test]
    fn collect_and_extend() {
        let particles: Vec<Particle> = (0..3)
            .map(|_| Particle {
                trace: trace_with("x", true),
                log_weight: LogWeight::ONE,
            })
            .collect();
        let mut c: ParticleCollection = particles.clone().into_iter().collect();
        c.extend(particles);
        assert_eq!(c.len(), 6);
        assert_eq!(c.into_iter().count(), 6);
    }
}
