//! Exact trace translator error (Eq. 4) and its Section 5.3
//! decomposition, computed by exhaustive enumeration on finite discrete
//! programs.
//!
//! The translator error
//!
//! ```text
//! ε(R) = D_KL(Q ‖ η_{P→Q})
//!      + E_{u∼Q}[ D_KL( ℓ_{Q→P}(·; u) ‖ ℓ_OPT(·; u) ) ]         (Eq. 4)
//! ```
//!
//! governs how many translated traces are needed for a given accuracy
//! (approximately exponentially many in ε(R), Appendix B). For the
//! correspondence translator, Section 5.3 splits ε(R) into three terms:
//! a *semantic* term `D_KL(Q^(f) ‖ P^(f))` on the corresponding choices, a
//! *forward-sampling* term for non-corresponding choices of `Q` sampled
//! from the prior, and a *backward-sampling* term for non-corresponding
//! choices of `P`.
//!
//! Everything here is exact (no Monte Carlo), which is why it demands
//! finite discrete programs. The test suite verifies `ε = Σ terms` and the
//! benches use it as an ablation axis.

use std::collections::HashMap;

use ppl::dist::Dist;
use ppl::enumerate::{ChoiceBudget, DEFAULT_CHOICE_LIMIT};
use ppl::Address;
use ppl::{ChoiceMap, Enumeration, Handler, LogWeight, Model, PplError, Trace, Value};

use crate::correspondence::Correspondence;
use crate::forward::kernel_density;

/// The exact error of a correspondence translator, with the Section 5.3
/// decomposition.
#[derive(Debug, Clone)]
pub struct TranslatorErrorReport {
    /// `ε(R)` of Eq. (4). `f64::INFINITY` when the translator cannot reach
    /// some posterior trace of `Q`.
    pub epsilon: f64,
    /// First term of Eq. (4): `D_KL(Q ‖ η_{P→Q})`.
    pub output_divergence: f64,
    /// Second term of Eq. (4): expected backward-kernel divergence from
    /// the optimal backward kernel (Eq. 3).
    pub backward_divergence: f64,
    /// Section 5.3 term 1: `D_KL(Q^(f) ‖ P^(f))` — the difference in
    /// probabilistic semantics of the corresponding choices.
    pub semantic_term: f64,
    /// Section 5.3 term 2: error from prior-sampling the
    /// non-corresponding choices of `Q`.
    pub forward_sampling_term: f64,
    /// Section 5.3 term 3: error from prior-sampling the
    /// non-corresponding choices of `P` in the weight estimate.
    pub backward_sampling_term: f64,
}

impl TranslatorErrorReport {
    /// The sum of the three Section 5.3 terms (equal to
    /// [`TranslatorErrorReport::epsilon`] whenever the correspondence is
    /// always consumable, per the paper's standing assumption).
    pub fn decomposition_sum(&self) -> f64 {
        self.semantic_term + self.forward_sampling_term + self.backward_sampling_term
    }
}

/// Computes the exact translator error for finite discrete `p`, `q`, and
/// `correspondence` (Q addresses → P addresses).
///
/// # Errors
///
/// Propagates enumeration failures (non-finite supports, trace-limit
/// overflow) and evaluation errors.
pub fn translator_error(
    p: &dyn Model,
    q: &dyn Model,
    correspondence: &Correspondence,
) -> Result<TranslatorErrorReport, PplError> {
    let p_enum = Enumeration::run(p)?;
    let q_enum = Enumeration::run(q)?;
    let inverse = correspondence.inverse();

    // Posterior tables keyed by canonical choice-map strings.
    let p_post: Vec<(Trace, f64)> = p_enum.posterior().map(|(t, pr)| (t.clone(), pr)).collect();
    let q_post: Vec<(Trace, f64)> = q_enum.posterior().map(|(u, pr)| (u.clone(), pr)).collect();

    // η_{P→Q}(u) = Σ_t Pr[t ∼ P] k(u; t): enumerate the forward kernel
    // from every posterior trace of P.
    let mut eta: HashMap<String, f64> = HashMap::new();
    let mut kernel_outputs: HashMap<String, Vec<(String, f64)>> = HashMap::new();
    for (t, p_t) in &p_post {
        let outputs = enumerate_kernel(q, t, correspondence)?;
        let mut entry = Vec::with_capacity(outputs.len());
        for (u, k) in outputs {
            let u_key = key_of(&u);
            *eta.entry(u_key.clone()).or_insert(0.0) += p_t * k;
            entry.push((u_key, k));
        }
        kernel_outputs.insert(key_of(t), entry);
    }

    // Term 1 of Eq. (4): D_KL(Q ‖ η).
    let mut output_divergence = 0.0;
    for (u, q_u) in &q_post {
        if *q_u == 0.0 {
            continue;
        }
        match eta.get(&key_of(u)) {
            Some(eta_u) if *eta_u > 0.0 => output_divergence += q_u * (q_u / eta_u).ln(),
            _ => {
                output_divergence = f64::INFINITY;
                break;
            }
        }
    }

    // Term 2 of Eq. (4): E_{u∼Q} D_KL(ℓ(·;u) ‖ ℓ_OPT(·;u)), with
    // ℓ_OPT(t;u) = Pr[t ∼ P] k(u;t) / η(u) (Eq. 3).
    let mut backward_divergence = 0.0;
    if output_divergence.is_finite() {
        for (u, q_u) in &q_post {
            if *q_u == 0.0 {
                continue;
            }
            let eta_u = eta.get(&key_of(u)).copied().unwrap_or(0.0);
            let backward = enumerate_kernel(p, u, &inverse)?;
            let mut inner = 0.0;
            for (t, l) in &backward {
                if *l == 0.0 {
                    continue;
                }
                // ℓ_OPT needs Pr[t ∼ P] and k(u; t).
                let p_t = p_post
                    .iter()
                    .find(|(pt, _)| key_of(pt) == key_of(t))
                    .map(|(_, pr)| *pr)
                    .unwrap_or(0.0);
                let (k_log, _) = kernel_density(q, u, t, correspondence)?;
                let k = k_log.prob();
                let l_opt = if eta_u > 0.0 { p_t * k / eta_u } else { 0.0 };
                if l_opt == 0.0 {
                    inner = f64::INFINITY;
                    break;
                }
                inner += l * (l / l_opt).ln();
            }
            backward_divergence += q_u * inner;
            if backward_divergence.is_infinite() {
                break;
            }
        }
    }

    let epsilon = output_divergence + backward_divergence;

    // ----- Section 5.3 three-term decomposition -----

    // Q^(f): marginal of the corresponding partial trace under Q.
    let mut q_f: HashMap<String, f64> = HashMap::new();
    let mut q_by_partial: HashMap<String, Vec<(Trace, f64)>> = HashMap::new();
    for (u, q_u) in &q_post {
        let s = partial_of_q(u, correspondence);
        let s_key = s.to_string();
        *q_f.entry(s_key.clone()).or_insert(0.0) += q_u;
        q_by_partial
            .entry(s_key)
            .or_default()
            .push((u.clone(), *q_u));
    }
    // P^(f): same partial (expressed in Q addresses) under P.
    let mut p_f: HashMap<String, f64> = HashMap::new();
    let mut p_by_partial: HashMap<String, Vec<(Trace, f64)>> = HashMap::new();
    for (t, p_t) in &p_post {
        let s = partial_of_p(t, &inverse);
        let s_key = s.to_string();
        *p_f.entry(s_key.clone()).or_insert(0.0) += p_t;
        p_by_partial
            .entry(s_key)
            .or_default()
            .push((t.clone(), *p_t));
    }

    // Term 1: D_KL(Q^(f) ‖ P^(f)).
    let mut semantic_term = 0.0;
    for (s_key, q_s) in &q_f {
        if *q_s == 0.0 {
            continue;
        }
        match p_f.get(s_key) {
            Some(p_s) if *p_s > 0.0 => semantic_term += q_s * (q_s / p_s).ln(),
            _ => {
                semantic_term = f64::INFINITY;
                break;
            }
        }
    }

    // Term 2: E_{s∼Q^(f)} D_KL(Q(·|s) ‖ η_{P→Q}(·|s)).
    // η(u|s) = k_{P→Q}(u; t) for any t consistent with f[s].
    let mut forward_sampling_term = 0.0;
    for (s_key, q_s) in &q_f {
        if *q_s == 0.0 {
            continue;
        }
        let Some(reps) = p_by_partial.get(s_key) else {
            forward_sampling_term = f64::INFINITY;
            break;
        };
        let rep_t = &reps[0].0;
        let mut inner = 0.0;
        for (u, q_u) in &q_by_partial[s_key] {
            let cond_q = q_u / q_s;
            if cond_q == 0.0 {
                continue;
            }
            let (k_log, _) = kernel_density(q, u, rep_t, correspondence)?;
            let k = k_log.prob();
            if k == 0.0 {
                inner = f64::INFINITY;
                break;
            }
            inner += cond_q * (cond_q / k).ln();
        }
        forward_sampling_term += q_s * inner;
        if forward_sampling_term.is_infinite() {
            break;
        }
    }

    // Term 3: E_{s∼Q^(f)} D_KL(η_{Q→P}(·|f[s]) ‖ P(·|f[s])).
    // η_{Q→P}(t|f[s]) = ℓ(t; u) for any u consistent with s.
    let mut backward_sampling_term = 0.0;
    for (s_key, q_s) in &q_f {
        if *q_s == 0.0 {
            continue;
        }
        let Some(p_group) = p_by_partial.get(s_key) else {
            backward_sampling_term = f64::INFINITY;
            break;
        };
        let p_s: f64 = p_group.iter().map(|(_, pr)| pr).sum();
        let rep_u = &q_by_partial[s_key][0].0;
        let backward = enumerate_kernel(p, rep_u, &inverse)?;
        let mut inner = 0.0;
        for (t, l) in &backward {
            if *l == 0.0 {
                continue;
            }
            let p_t = p_group
                .iter()
                .find(|(pt, _)| key_of(pt) == key_of(t))
                .map(|(_, pr)| *pr)
                .unwrap_or(0.0);
            let cond_p = if p_s > 0.0 { p_t / p_s } else { 0.0 };
            if cond_p == 0.0 {
                inner = f64::INFINITY;
                break;
            }
            inner += l * (l / cond_p).ln();
        }
        backward_sampling_term += q_s * inner;
        if backward_sampling_term.is_infinite() {
            break;
        }
    }

    Ok(TranslatorErrorReport {
        epsilon,
        output_divergence,
        backward_divergence,
        semantic_term,
        forward_sampling_term,
        backward_sampling_term,
    })
}

/// Canonical key of a trace: its choice map rendered in address order.
fn key_of(t: &Trace) -> String {
    t.to_choice_map().to_string()
}

/// The corresponding partial trace `s` of a trace `u` of `Q`: the choices
/// at addresses in `F_Q`.
fn partial_of_q(u: &Trace, correspondence: &Correspondence) -> ChoiceMap {
    u.filter_choices(|addr| correspondence.maps(addr))
}

/// The corresponding partial trace of a trace `t` of `P`, expressed in Q
/// addresses (so it is directly comparable with [`partial_of_q`]).
fn partial_of_p(t: &Trace, inverse: &Correspondence) -> ChoiceMap {
    let mut s = ChoiceMap::new();
    for (addr_p, rec) in t.choices() {
        if let Some(addr_q) = inverse.lookup(addr_p) {
            s.insert(addr_q, rec.value.clone());
        }
    }
    s
}

/// Enumerates the output distribution of a correspondence kernel: all
/// traces of `model` obtainable by reusing corresponding choices from
/// `source` and enumerating the rest, with their kernel probabilities.
/// Bounded like [`Enumeration::run`], by the choices its traces record.
fn enumerate_kernel(
    model: &dyn Model,
    source: &Trace,
    corr_into_source: &Correspondence,
) -> Result<Vec<(Trace, f64)>, PplError> {
    let mut budget = ChoiceBudget::new(DEFAULT_CHOICE_LIMIT);
    let mut results = Vec::new();
    let mut work: Vec<Vec<Value>> = vec![Vec::new()];
    while let Some(prefix) = work.pop() {
        let mut handler = KernelEnumHandler {
            source,
            corr: corr_into_source,
            prefix: &prefix,
            taken: Vec::new(),
            branch_supports: Vec::new(),
            trace: Trace::new(),
            log_k: LogWeight::ONE,
        };
        let value = model.exec(&mut handler)?;
        let KernelEnumHandler {
            taken,
            branch_supports,
            mut trace,
            log_k,
            ..
        } = handler;
        trace.set_return_value(value);
        budget.charge(&trace)?;
        for (pos, support) in branch_supports {
            for alt in support.into_iter().skip(1) {
                let mut new_prefix = taken[..pos].to_vec();
                new_prefix.push(alt);
                work.push(new_prefix);
            }
        }
        results.push((trace, log_k.prob()));
    }
    Ok(results)
}

/// Enumerating handler that reuses corresponding choices deterministically
/// and branches over the support of every fresh choice. Only the *fresh*
/// choices count toward the kernel probability; fresh choices also count
/// toward the branching prefix.
struct KernelEnumHandler<'a> {
    source: &'a Trace,
    corr: &'a Correspondence,
    prefix: &'a [Value],
    taken: Vec<Value>,
    branch_supports: Vec<(usize, Vec<Value>)>,
    trace: Trace,
    log_k: LogWeight,
}

impl Handler for KernelEnumHandler<'_> {
    fn sample(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError> {
        let reusable = match self.corr.lookup_id(addr.id()) {
            Some(src_id) => match self.source.choice_by_id(src_id) {
                Some(record) if dist.same_support(&record.dist) => Some(record.value.clone()),
                _ => None,
            },
            None => None,
        };
        let value = match reusable {
            Some(v) => v,
            None => {
                // Fresh: consume the prefix or open a new branch point.
                let pos = self.taken.len();
                let v = if pos < self.prefix.len() {
                    self.prefix[pos].clone()
                } else {
                    let support = dist
                        .enumerate_support()
                        .ok_or(PplError::NonEnumerable(addr.clone()))?;
                    let first = support[0].clone();
                    self.branch_supports.push((pos, support));
                    first
                };
                self.log_k += dist.log_prob(&v);
                self.taken.push(v.clone());
                v
            }
        };
        let log_prob = dist.log_prob(&value);
        self.trace
            .record_choice(addr, value.clone(), dist, log_prob)?;
        Ok(value)
    }

    fn observe(&mut self, addr: Address, dist: Dist, value: Value) -> Result<(), PplError> {
        let log_prob = dist.log_prob(&value);
        self.trace.record_observation(addr, value, dist, log_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::addr;
    use ppl::Handler;

    /// P: x ~ flip(0.5); observe flip(x?0.9:0.1)=1.
    fn p_model(h: &mut dyn Handler) -> Result<Value, PplError> {
        let x = h.sample(addr!["x"], Dist::flip(0.5))?;
        let po = if x.truthy()? { 0.9 } else { 0.1 };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        Ok(x)
    }

    #[test]
    fn identity_translator_has_zero_error() {
        let f = Correspondence::identity_on(["x"]);
        let report = translator_error(&p_model, &p_model, &f).unwrap();
        assert!(report.epsilon.abs() < 1e-12, "ε = {}", report.epsilon);
        assert!(report.decomposition_sum().abs() < 1e-12);
    }

    #[test]
    fn semantic_term_detects_changed_prior() {
        // Q changes the prior on x; everything in correspondence, so the
        // error is purely semantic.
        let q_model = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.2))?;
            let po = if x.truthy()? { 0.9 } else { 0.1 };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        };
        let f = Correspondence::identity_on(["x"]);
        let report = translator_error(&p_model, &q_model, &f).unwrap();
        assert!(report.epsilon > 0.0);
        assert!(report.semantic_term > 0.0);
        assert!(report.forward_sampling_term.abs() < 1e-12);
        assert!(report.backward_sampling_term.abs() < 1e-12);
        assert!(
            (report.epsilon - report.decomposition_sum()).abs() < 1e-9,
            "ε {} vs sum {}",
            report.epsilon,
            report.decomposition_sum()
        );
    }

    #[test]
    fn forward_sampling_term_charges_new_choices() {
        // Q adds a fresh latent that the observation depends on, like the
        // earthquake variable of Fig. 1.
        let q_model = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let y = h.sample(addr!["y"], Dist::flip(0.3))?;
            let po = if x.truthy()? || y.truthy()? { 0.9 } else { 0.1 };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        };
        let f = Correspondence::identity_on(["x"]);
        let report = translator_error(&p_model, &q_model, &f).unwrap();
        assert!(report.forward_sampling_term > 0.0);
        assert!(report.backward_sampling_term.abs() < 1e-12);
        assert!(
            (report.epsilon - report.decomposition_sum()).abs() < 1e-9,
            "ε {} vs sum {}",
            report.epsilon,
            report.decomposition_sum()
        );
    }

    #[test]
    fn backward_sampling_term_charges_removed_choices() {
        // P has an extra latent that Q lacks: the third term fires
        // ("if every random choice in P is in correspondence … the third
        // term is zero" — here it is not).
        let p_big = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let y = h.sample(addr!["y"], Dist::flip(0.3))?;
            let po = if x.truthy()? || y.truthy()? { 0.9 } else { 0.1 };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(x)
        };
        let f = Correspondence::identity_on(["x"]);
        let report = translator_error(&p_big, &p_model, &f).unwrap();
        assert!(report.backward_sampling_term > 0.0);
        assert!(
            (report.epsilon - report.decomposition_sum()).abs() < 1e-9,
            "ε {} vs sum {}",
            report.epsilon,
            report.decomposition_sum()
        );
    }

    #[test]
    fn empty_correspondence_error_is_finite_and_decomposes() {
        let q_model = |h: &mut dyn Handler| {
            let y = h.sample(addr!["y"], Dist::flip(0.4))?;
            let po = if y.truthy()? { 0.6 } else { 0.3 };
            h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
            Ok(y)
        };
        let f = Correspondence::new();
        let report = translator_error(&p_model, &q_model, &f).unwrap();
        assert!(report.epsilon.is_finite());
        assert!(report.semantic_term.abs() < 1e-12); // nothing corresponds
        assert!(
            (report.epsilon - report.decomposition_sum()).abs() < 1e-9,
            "ε {} vs sum {}",
            report.epsilon,
            report.decomposition_sum()
        );
    }
}
