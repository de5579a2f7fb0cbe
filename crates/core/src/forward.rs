//! The correspondence-based trace translator (Section 5).
//!
//! **Forward kernel** (Section 5.1, Eq. 6): execute `Q`; at a random
//! choice `i` with `f(i)` present in `t` and equal support, reuse the value
//! `t_{f(i)}`; otherwise sample by evaluating the random expression. The
//! kernel density is the product of the freshly sampled choices'
//! probabilities.
//!
//! **Backward kernel** (Section 5.2, Eq. 7): `ℓ_{Q→P} = k_{Q→P}` — the
//! kernel that translates back the same way. Its density at the original
//! trace `t` is computed exactly by replaying `P` pinned to `t`, charging
//! each choice that would *not* be reused from `u` its prior probability
//! (reused choices are deterministic; a reused choice that disagrees with
//! `t` makes the density zero).
//!
//! **Weight estimate** (Eq. 2/8):
//! `log ŵ = log P̃r[u ∼ Q] + log ℓ(t; u) − log P̃r[t ∼ P] − log k(u; t)`.
//! When every corresponding choice is consumed in both directions, the
//! fresh-choice factors cancel and this reduces exactly to Eq. (8) — the
//! ratio over corresponding choices and observations only.

use std::time::Instant;

use rand::RngCore;

use ppl::dist::Dist;
use ppl::{Address, Handler, LogWeight, Model, PplError, Trace, Value};

use crate::correspondence::Correspondence;
use crate::translator::{StateTranslator, TranslateCtx};

/// Why a choice of `Q` was not reused from the old trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreshReason {
    /// The address has no correspondence entry (`i ∉ F_Q`).
    NotInCorrespondence,
    /// `f(i)` is not present in `t` (case (i) of Section 5.1).
    MissingInOld,
    /// The supports differ (case (ii) of Section 5.1).
    SupportMismatch,
}

/// Statistics of one translation, useful for diagnosing translator
/// quality.
#[derive(Debug, Clone, Default)]
pub struct TranslationStats {
    /// Number of choices of `u` reused from `t` through the
    /// correspondence.
    pub reused: usize,
    /// Freshly sampled choices, with the reason each fell back.
    pub fresh: Vec<(Address, FreshReason)>,
    /// Whether the backward kernel density was zero (the translated trace
    /// then carries weight zero).
    pub backward_zero: bool,
}

/// A proposal for the *fresh* (non-corresponding) choices of the forward
/// kernel.
///
/// The paper samples non-corresponding choices of `Q` "by evaluating the
/// appropriate random expression" — i.e. from the prior — and names
/// smarter choices as future work: "reducing the error of the trace
/// translator by exploiting analytically tractable conditional
/// distributions for non-corresponding choices is a promising area".
/// Implementations of this trait provide exactly that hook: given the
/// fresh choice's address, its prior, and the *old* trace, return a
/// custom distribution to sample from (the kernel density is adjusted
/// accordingly, so the weight estimate stays unbiased).
///
/// # Correctness requirement
///
/// The proposal's support must cover the prior's support wherever the
/// posterior of `Q` puts mass; otherwise some traces become unreachable
/// and Lemma 2's guarantee degrades to the reachable subset.
pub trait FreshProposal: Send + Sync {
    /// A proposal distribution for the fresh choice at `addr`, or `None`
    /// to sample from `prior`.
    fn propose(&self, addr: &Address, prior: &Dist, old: &Trace) -> Option<Dist>;
}

impl<F> FreshProposal for F
where
    F: Fn(&Address, &Dist, &Trace) -> Option<Dist> + Send + Sync,
{
    fn propose(&self, addr: &Address, prior: &Dist, old: &Trace) -> Option<Dist> {
        self(addr, prior, old)
    }
}

/// The Section 5 trace translator for a pair of programs related by a
/// semantic [`Correspondence`].
///
/// # Examples
///
/// ```
/// use incremental::{Correspondence, CorrespondenceTranslator, StateTranslator};
/// use ppl::{addr, Handler, PplError, Value};
/// use ppl::dist::Dist;
/// use ppl::handlers::simulate;
/// use rand::SeedableRng;
///
/// let p = |h: &mut dyn Handler| h.sample(addr!["x"], Dist::flip(0.5));
/// let q = |h: &mut dyn Handler| h.sample(addr!["x"], Dist::flip(0.25));
/// let translator = CorrespondenceTranslator::new(p, q, Correspondence::identity_on(["x"]));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let t = simulate(&p, &mut rng)?;
/// let (u, _log_weight) = translator.translate(&t, &mut rng)?;
/// assert_eq!(u.value(&addr!["x"]), t.value(&addr!["x"]));
/// # Ok::<(), PplError>(())
/// ```
#[derive(Clone)]
pub struct CorrespondenceTranslator<P, Q> {
    p: P,
    q: Q,
    correspondence: Correspondence,
    /// `f⁻¹`, computed once at construction: the backward replay needs it
    /// on every translation.
    inverse: Correspondence,
    proposal: Option<std::sync::Arc<dyn FreshProposal>>,
}

impl<P: std::fmt::Debug, Q: std::fmt::Debug> std::fmt::Debug for CorrespondenceTranslator<P, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorrespondenceTranslator")
            .field("p", &self.p)
            .field("q", &self.q)
            .field("correspondence", &self.correspondence)
            .field("has_proposal", &self.proposal.is_some())
            .finish()
    }
}

impl<P: Model, Q: Model> CorrespondenceTranslator<P, Q> {
    /// Creates a translator from `p` to `q` using `correspondence` (a map
    /// from `Q` addresses to `P` addresses).
    pub fn new(p: P, q: Q, correspondence: Correspondence) -> CorrespondenceTranslator<P, Q> {
        let inverse = correspondence.inverse();
        CorrespondenceTranslator {
            p,
            q,
            correspondence,
            inverse,
            proposal: None,
        }
    }

    /// Installs a custom proposal for fresh (non-corresponding) choices —
    /// the paper's "analytically tractable conditional distributions"
    /// future-work hook. See [`FreshProposal`] for the correctness
    /// requirement.
    #[must_use]
    pub fn with_fresh_proposal(
        mut self,
        proposal: impl FreshProposal + 'static,
    ) -> CorrespondenceTranslator<P, Q> {
        self.proposal = Some(std::sync::Arc::new(proposal));
        self
    }

    /// The correspondence in use.
    pub fn correspondence(&self) -> &Correspondence {
        &self.correspondence
    }

    /// Translates `t` into `(u, log ŵ)`, as [`StateTranslator::translate`],
    /// and additionally returns per-translation statistics.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from `Q` and the backward replay of
    /// `P`.
    pub fn translate_with_stats(
        &self,
        t: &Trace,
        rng: &mut dyn RngCore,
    ) -> Result<(Trace, LogWeight, TranslationStats), PplError> {
        self.translate_until(t, None, rng)
    }

    /// [`Self::translate_with_stats`], stopped with
    /// [`PplError::DeadlineExceeded`] at the first choice or observation
    /// `Q` makes after `deadline`.
    fn translate_until(
        &self,
        t: &Trace,
        deadline: Option<Instant>,
        rng: &mut dyn RngCore,
    ) -> Result<(Trace, LogWeight, TranslationStats), PplError> {
        // 1. Forward: run Q, reusing corresponding choices of t.
        let mut fwd = ForwardHandler {
            old: t,
            correspondence: &self.correspondence,
            proposal: self.proposal.as_deref(),
            rng,
            deadline,
            trace: Trace::new(),
            log_kernel: LogWeight::ONE,
            stats: TranslationStats::default(),
        };
        let output = self.q.exec(&mut fwd)?;
        let ForwardHandler {
            mut trace,
            log_kernel,
            mut stats,
            ..
        } = fwd;
        trace.set_return_value(output);

        // 2. Backward: replay P pinned to t, reusing from u, to get
        //    log ℓ_{Q→P}(t; u) and a freshly re-scored log P̃r[t ∼ P].
        let (log_l, replayed) = kernel_density(&self.p, t, &trace, &self.inverse)?;
        let t_score = replayed.score();
        if log_l.is_zero() {
            stats.backward_zero = true;
        }

        // 3. ŵ = P̃r[u ∼ Q] · ℓ(t; u) / (P̃r[t ∼ P] · k(u; t)).
        let log_weight = trace.score() + log_l - t_score - log_kernel;
        Ok((trace, log_weight, stats))
    }
}

impl<P: Model, Q: Model> StateTranslator<Trace> for CorrespondenceTranslator<P, Q> {
    fn translate_state(
        &self,
        t: &Trace,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(Trace, LogWeight), PplError> {
        self.translate_until(t, ctx.deadline, rng)
            .map(|(u, log_weight, _)| (u, log_weight))
    }
}

struct ForwardHandler<'a> {
    old: &'a Trace,
    correspondence: &'a Correspondence,
    proposal: Option<&'a dyn FreshProposal>,
    rng: &'a mut dyn RngCore,
    deadline: Option<Instant>,
    trace: Trace,
    /// `log k_{P→Q}(u; t)`: probability of the freshly sampled choices.
    log_kernel: LogWeight,
    stats: TranslationStats,
}

impl Handler for ForwardHandler<'_> {
    fn sample(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError> {
        PplError::check_deadline(self.deadline)?;
        // Intern once; every map touch below is a copyable-id probe.
        let id = addr.id();
        let mut fresh_reason = None;
        let reused_value = match self.correspondence.lookup_id(id) {
            None => {
                fresh_reason = Some(FreshReason::NotInCorrespondence);
                None
            }
            Some(p_id) => match self.old.choice_by_id(p_id) {
                None => {
                    fresh_reason = Some(FreshReason::MissingInOld);
                    None
                }
                Some(record) => {
                    if dist.same_support(&record.dist) {
                        Some(record.value.clone())
                    } else {
                        fresh_reason = Some(FreshReason::SupportMismatch);
                        None
                    }
                }
            },
        };
        let value = match reused_value {
            Some(v) => {
                self.stats.reused += 1;
                v
            }
            None => {
                // Fresh choice: sample from the prior, or from a custom
                // proposal when one is installed (the kernel density uses
                // whichever distribution produced the value).
                let proposal_dist = self
                    .proposal
                    .and_then(|p| p.propose(&addr, &dist, self.old));
                let v = match &proposal_dist {
                    Some(q_dist) => {
                        let v = q_dist.sample(self.rng);
                        self.log_kernel += q_dist.log_prob(&v);
                        v
                    }
                    None => {
                        let v = dist.sample(self.rng);
                        self.log_kernel += dist.log_prob(&v);
                        v
                    }
                };
                self.stats
                    .fresh
                    .push((addr, fresh_reason.expect("fresh without reason")));
                v
            }
        };
        let log_prob = dist.log_prob(&value);
        self.trace
            .record_choice_interned(id, value.clone(), dist, log_prob)?;
        Ok(value)
    }

    fn observe(&mut self, addr: Address, dist: Dist, value: Value) -> Result<(), PplError> {
        PplError::check_deadline(self.deadline)?;
        let log_prob = dist.log_prob(&value);
        self.trace.record_observation(addr, value, dist, log_prob)
    }
}

/// Evaluates the exact weight estimate `ŵ_{P→Q}(u; t)` (Eq. 2 with the
/// Section 5 kernels) for a *given* pair of traces.
///
/// This recomputes all four factors from scratch — `P̃r[u ∼ Q]`,
/// `ℓ_{Q→P}(t; u)`, `P̃r[t ∼ P]`, `k_{P→Q}(u; t)` — and is the reference
/// oracle the optimized Section 6 translator is differentially tested
/// against.
///
/// # Errors
///
/// Propagates evaluation errors from replaying either program.
pub fn exact_weight_estimate(
    p: &dyn Model,
    q: &dyn Model,
    correspondence: &Correspondence,
    t: &Trace,
    u: &Trace,
) -> Result<LogWeight, PplError> {
    let (log_k, u_rescored) = kernel_density(q, u, t, correspondence)?;
    let inverse = correspondence.inverse();
    let (log_l, t_rescored) = kernel_density(p, t, u, &inverse)?;
    Ok(u_rescored.score() + log_l - t_rescored.score() - log_k)
}

/// Evaluates the density of a correspondence kernel at a *given* output
/// trace.
///
/// Replays `model` pinned to the choices of `pinned`; a choice whose
/// address maps (through `corr_into_source`) to a same-support choice of
/// `source` would be reused deterministically by the kernel — it
/// contributes density 1 when the values agree and density 0 otherwise.
/// Every other choice is charged its prior probability. Returns the log
/// density together with the re-scored replay of `pinned` under `model`.
///
/// Instantiations: `kernel_density(P, t, u, f⁻¹)` is the backward density
/// `ℓ_{Q→P}(t; u) = k_{Q→P}(t; u)` of Eq. (7); `kernel_density(Q, u, t, f)`
/// is the forward density `k_{P→Q}(u; t)` of Eq. (6).
pub(crate) fn kernel_density(
    model: &dyn Model,
    pinned: &Trace,
    source: &Trace,
    corr_into_source: &Correspondence,
) -> Result<(LogWeight, Trace), PplError> {
    let mut scorer = KernelDensityScorer {
        pinned,
        source,
        corr: corr_into_source,
        replayed: Trace::new(),
        log_density: LogWeight::ONE,
    };
    model.exec(&mut scorer)?;
    Ok((scorer.log_density, scorer.replayed))
}

struct KernelDensityScorer<'a> {
    pinned: &'a Trace,
    source: &'a Trace,
    corr: &'a Correspondence,
    replayed: Trace,
    log_density: LogWeight,
}

impl Handler for KernelDensityScorer<'_> {
    fn sample(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError> {
        let id = addr.id();
        let value = match self.pinned.value_by_id(id) {
            Some(v) => v.clone(),
            None => return Err(PplError::MissingChoice(addr)),
        };
        // Borrow the source value: it only feeds the num_eq comparison.
        let reusable = match self.corr.lookup_id(id) {
            Some(src_id) => match self.source.choice_by_id(src_id) {
                Some(record) if dist.same_support(&record.dist) => Some(&record.value),
                _ => None,
            },
            None => None,
        };
        match reusable {
            Some(src_value) => {
                // Deterministic reuse: density 1 if it reproduces the
                // pinned value, else 0.
                if !src_value.num_eq(&value) {
                    self.log_density = LogWeight::ZERO;
                }
            }
            None => {
                self.log_density += dist.log_prob(&value);
            }
        }
        let log_prob = dist.log_prob(&value);
        self.replayed
            .record_choice_interned(id, value.clone(), dist, log_prob)?;
        Ok(value)
    }

    fn observe(&mut self, addr: Address, dist: Dist, value: Value) -> Result<(), PplError> {
        let log_prob = dist.log_prob(&value);
        self.replayed
            .record_observation(addr, value, dist, log_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::addr;
    use ppl::handlers::simulate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fig. 5 left program P.
    fn fig5_p(h: &mut dyn Handler) -> Result<Value, PplError> {
        let a = h.sample(addr!["alpha"], Dist::flip(0.5))?;
        let _b = if !a.truthy()? {
            h.sample(addr!["beta"], Dist::uniform_int(0, 5))?
        } else {
            h.sample(addr!["gamma"], Dist::flip(0.5))?
        };
        let _c = h.sample(addr!["delta"], Dist::flip(0.5))?;
        Ok(a)
    }

    /// Fig. 5 right program Q.
    fn fig5_q(h: &mut dyn Handler) -> Result<Value, PplError> {
        let a = h.sample(addr!["eps"], Dist::flip(1.0 / 3.0))?;
        let _b = if !a.truthy()? {
            h.sample(addr!["zeta"], Dist::uniform_int(0, 5))?
        } else {
            h.sample(addr!["eta"], Dist::flip(0.5))?
        };
        let _c = h.sample(addr!["theta"], Dist::uniform_int(1, 6))?;
        let _d = h.sample(addr!["iota"], Dist::uniform_int(-5, -2))?;
        Ok(a)
    }

    fn fig5_correspondence() -> Correspondence {
        Correspondence::from_pairs([
            (addr!["eps"], addr!["alpha"]),
            (addr!["zeta"], addr!["beta"]),
            (addr!["eta"], addr!["gamma"]),
        ])
        .unwrap()
    }

    #[test]
    fn example3_weight_estimate_is_two_thirds() {
        // t = [α ↦ 1, γ ↦ 1, δ ↦ 1]; the translated trace reuses α and γ;
        // ŵ = (1/3 · 1/2) / (1/2 · 1/2) = 2/3 (Section 5.2).
        let mut t = Trace::new();
        let d = Dist::flip(0.5);
        for name in ["alpha", "gamma", "delta"] {
            let lp = d.log_prob(&Value::Bool(true));
            t.record_choice(addr![name], Value::Bool(true), d.clone(), lp)
                .unwrap();
        }
        let translator = CorrespondenceTranslator::new(fig5_p, fig5_q, fig5_correspondence());
        let mut rng = StdRng::seed_from_u64(17);
        let (u, w, stats) = translator.translate_with_stats(&t, &mut rng).unwrap();
        assert_eq!(u.value(&addr!["eps"]), Some(&Value::Bool(true)));
        assert_eq!(u.value(&addr!["eta"]), Some(&Value::Bool(true)));
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.fresh.len(), 2); // theta and iota sampled fresh
        assert!(!stats.backward_zero);
        assert!((w.prob() - 2.0 / 3.0).abs() < 1e-12, "weight {}", w.prob());
    }

    #[test]
    fn fig1_weight_is_1_19() {
        // The Overview example: ŵ = (0.02 · 0.95 · 0.9) / (0.02 · 0.9 · 0.8)
        // ≈ 1.19 for the trace [α ↦ 1, β ↦ 1].
        let p = |h: &mut dyn Handler| {
            let burglary = h.sample(addr!["alpha"], Dist::flip(0.02))?;
            let p_alarm = if burglary.truthy()? { 0.9 } else { 0.01 };
            let alarm = h.sample(addr!["beta"], Dist::flip(p_alarm))?;
            let p_wakes = if alarm.truthy()? { 0.8 } else { 0.05 };
            h.observe(addr!["o"], Dist::flip(p_wakes), Value::Bool(true))?;
            Ok(burglary)
        };
        let q = |h: &mut dyn Handler| {
            let burglary = h.sample(addr!["alpha'"], Dist::flip(0.02))?;
            let earthquake = h.sample(addr!["gamma'"], Dist::flip(0.005))?;
            let p_alarm = if earthquake.truthy()? {
                0.95
            } else if burglary.truthy()? {
                0.9
            } else {
                0.01
            };
            let alarm = h.sample(addr!["beta'"], Dist::flip(p_alarm))?;
            let p_wakes = if alarm.truthy()? {
                if earthquake.truthy()? {
                    0.9
                } else {
                    0.8
                }
            } else {
                0.05
            };
            h.observe(addr!["o'"], Dist::flip(p_wakes), Value::Bool(true))?;
            Ok(burglary)
        };
        let f = Correspondence::from_pairs([
            (addr!["alpha'"], addr!["alpha"]),
            (addr!["beta'"], addr!["beta"]),
        ])
        .unwrap();
        let translator = CorrespondenceTranslator::new(p, q, f);

        // The input trace [α ↦ 1, β ↦ 1] with its observation.
        let mut t = Trace::new();
        t.record_choice(
            addr!["alpha"],
            Value::Bool(true),
            Dist::flip(0.02),
            Dist::flip(0.02).log_prob(&Value::Bool(true)),
        )
        .unwrap();
        t.record_choice(
            addr!["beta"],
            Value::Bool(true),
            Dist::flip(0.9),
            Dist::flip(0.9).log_prob(&Value::Bool(true)),
        )
        .unwrap();
        t.record_observation(
            addr!["o"],
            Value::Bool(true),
            Dist::flip(0.8),
            Dist::flip(0.8).log_prob(&Value::Bool(true)),
        )
        .unwrap();

        // Find a run where γ' = 1 to match the paper's illustrated u.
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen_earthquake = false;
        for _ in 0..10_000 {
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            let earthquake = u.value(&addr!["gamma'"]).unwrap().truthy().unwrap();
            if earthquake {
                seen_earthquake = true;
                let expected = (0.02 * 0.95 * 0.9) / (0.02 * 0.9 * 0.8);
                assert!(
                    (w.prob() - expected).abs() < 1e-9,
                    "weight {} vs expected {expected}",
                    w.prob()
                );
            } else {
                // γ' = 0: pAlarm stays 0.9, pMaryWakes stays 0.8 — the
                // weight is exactly 1 (nothing changed).
                assert!((w.prob() - 1.0).abs() < 1e-9);
            }
        }
        assert!(seen_earthquake, "0.005 flip never came up in 10k runs");
    }

    #[test]
    fn support_mismatch_falls_back_to_sampling() {
        // Matching delta (flip) to theta (uniform 1..6) must not reuse.
        let f = Correspondence::from_pairs([
            (addr!["eps"], addr!["alpha"]),
            (addr!["theta"], addr!["delta"]),
        ])
        .unwrap();
        let translator = CorrespondenceTranslator::new(fig5_p, fig5_q, f);
        let mut t = Trace::new();
        let d = Dist::flip(0.5);
        for name in ["alpha", "gamma", "delta"] {
            let lp = d.log_prob(&Value::Bool(true));
            t.record_choice(addr![name], Value::Bool(true), d.clone(), lp)
                .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(5);
        let (_, _, stats) = translator.translate_with_stats(&t, &mut rng).unwrap();
        assert!(stats
            .fresh
            .iter()
            .any(|(a, r)| *a == addr!["theta"] && *r == FreshReason::SupportMismatch));
    }

    #[test]
    fn missing_choice_falls_back_to_sampling() {
        // Case (i) of Section 5.1: the correspondence maps eta ↦ gamma,
        // but P never makes a gamma choice, so f(eta) is absent from every
        // trace t and eta must be sampled fresh.
        let p_small = |h: &mut dyn Handler| {
            let a = h.sample(addr!["alpha"], Dist::flip(0.5))?;
            let _c = h.sample(addr!["delta"], Dist::flip(0.5))?;
            Ok(a)
        };
        let mut rng = StdRng::seed_from_u64(6);
        // A valid trace of p_small with alpha = 1 (so Q takes the eta
        // branch).
        let t = loop {
            let t = simulate(&p_small, &mut rng).unwrap();
            if t.value(&addr!["alpha"]).unwrap().truthy().unwrap() {
                break t;
            }
        };
        let f = Correspondence::from_pairs([
            (addr!["eps"], addr!["alpha"]),
            (addr!["eta"], addr!["gamma"]),
        ])
        .unwrap();
        let translator = CorrespondenceTranslator::new(p_small, fig5_q, f);
        let (u, _, stats) = translator.translate_with_stats(&t, &mut rng).unwrap();
        assert_eq!(u.value(&addr!["eps"]), Some(&Value::Bool(true)));
        assert!(stats
            .fresh
            .iter()
            .any(|(a, r)| *a == addr!["eta"] && *r == FreshReason::MissingInOld));
    }

    #[test]
    fn identity_translation_has_weight_one() {
        // P = Q and a full correspondence: ŵ must be exactly 1 for every
        // input trace.
        let model = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.3))?;
            let p = if x.truthy()? { 0.9 } else { 0.2 };
            let _y = h.sample(addr!["y"], Dist::flip(p))?;
            h.observe(addr!["o"], Dist::flip(0.6), Value::Bool(true))?;
            Ok(x)
        };
        let translator =
            CorrespondenceTranslator::new(model, model, Correspondence::identity_on(["x", "y"]));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let t = simulate(&model, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            assert!(w.log().abs() < 1e-12, "identity weight {}", w.prob());
            assert_eq!(u.to_choice_map(), t.to_choice_map());
        }
    }

    /// The future-work hook: a smart proposal for a fresh choice leaves
    /// the estimator unbiased while collapsing the weight variance.
    #[test]
    fn fresh_proposal_reduces_variance_without_bias() {
        use crate::particles::ParticleCollection;
        // P: one coin with an observation.
        let p = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let po = if x.truthy()? { 0.7 } else { 0.3 };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        };
        // Q: adds a tightly observed continuous latent y.
        let q = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let po = if x.truthy()? { 0.7 } else { 0.3 };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            let y = h.sample(addr!["y"], Dist::normal(0.0, 5.0))?;
            h.observe(
                addr!["oy"],
                Dist::normal(y.as_real()?, 0.2),
                Value::Real(3.0),
            )?;
            Ok(x)
        };
        let corr = || Correspondence::identity_on(["x"]);
        let prior_translator = CorrespondenceTranslator::new(p, q, corr());
        // The conjugate conditional for y given the observation.
        let smart_translator = CorrespondenceTranslator::new(p, q, corr()).with_fresh_proposal(
            |addr: &Address, _prior: &Dist, _old: &Trace| {
                if *addr == addr!["y"] {
                    // posterior of y: precision 1/25 + 1/0.04, mean ≈ 2.995
                    let var = 1.0 / (1.0 / 25.0 + 1.0 / 0.04);
                    Some(Dist::normal(3.0 * var / 0.04, var.sqrt()))
                } else {
                    None
                }
            },
        );
        let mut rng = StdRng::seed_from_u64(21);
        let m = 4000;
        let mut run = |translator: &CorrespondenceTranslator<_, _>| {
            let mut out = ParticleCollection::new();
            for _ in 0..m {
                let t = simulate(&p, &mut rng).unwrap();
                let (u, w) = translator.translate(&t, &mut rng).unwrap();
                out.push(u, w);
            }
            out
        };
        let with_prior = run(&prior_translator);
        let with_smart = run(&smart_translator);
        // Smart proposal: near-perfect ESS; prior proposal: collapsed.
        assert!(
            with_smart.ess() > 0.9 * m as f64,
            "smart ESS {}",
            with_smart.ess()
        );
        assert!(
            with_prior.ess() < 0.2 * m as f64,
            "prior ESS {}",
            with_prior.ess()
        );
        // And the smart estimator is accurate: E[y | obs] ≈ 2.995.
        let ey = with_smart
            .estimate(|t| t.value(&addr!["y"]).unwrap().as_real().unwrap())
            .unwrap();
        assert!((ey - 2.995).abs() < 0.02, "E[y] = {ey}");
    }

    /// A passed deadline stops the target model at its first handler
    /// call, even a model that would sample fresh choices for ever.
    #[test]
    fn a_passed_deadline_stops_the_model_at_its_first_call() {
        let calls = std::cell::Cell::new(0_i64);
        let endless = |h: &mut dyn Handler| -> Result<Value, PplError> {
            loop {
                calls.set(calls.get() + 1);
                h.sample(addr!["x", calls.get()], Dist::flip(0.5))?;
            }
        };
        let empty = |_: &mut dyn Handler| Ok(Value::Int(0));
        let translator = CorrespondenceTranslator::new(empty, endless, Correspondence::new());
        let ctx = TranslateCtx {
            deadline: Some(Instant::now()),
            ..TranslateCtx::new(0, 0)
        };
        let mut rng = StdRng::seed_from_u64(9);
        let err = translator
            .translate_state(&Trace::new(), ctx, &mut rng)
            .unwrap_err();
        assert_eq!(err, PplError::DeadlineExceeded);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn empty_correspondence_is_importance_sampling_from_prior() {
        // With no correspondence, u is an independent prior sample of Q
        // and ŵ = P̃r[u]/k(u) × ℓ(t)/P̃r[t] = (obs of u) / (obs of t)
        // — since every choice is fresh both ways.
        let p = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            h.observe(addr!["o"], Dist::flip(0.25), Value::Bool(true))?;
            Ok(x)
        };
        let q = |h: &mut dyn Handler| {
            let y = h.sample(addr!["y"], Dist::flip(0.5))?;
            h.observe(addr!["o"], Dist::flip(0.75), Value::Bool(true))?;
            Ok(y)
        };
        let translator = CorrespondenceTranslator::new(p, q, Correspondence::new());
        let mut rng = StdRng::seed_from_u64(8);
        let t = simulate(&p, &mut rng).unwrap();
        let (_, w) = translator.translate(&t, &mut rng).unwrap();
        assert!((w.prob() - 0.75 / 0.25).abs() < 1e-12);
    }
}
