//! Semantic correspondence between the random choices of two programs.
//!
//! A correspondence (Section 5.1) is a bijection `f : F_Q → F_P` between a
//! subset of the addresses of program `Q` and a subset of the addresses of
//! program `P`. Two kinds of entries are supported:
//!
//! - **explicit pairs** between individual addresses, and
//! - **site rules** mapping a site label of `Q` to a site label of `P`
//!   while preserving loop-index components — the indexed-family scheme of
//!   Section 5.4 (e.g. every `hidden/i` of the second-order HMM corresponds
//!   to `hidden/i` of the first-order HMM).
//!
//! Lookups are on the translate/replay hot path (once per random choice,
//! forward and backward), so pairs are keyed on interned [`AddressId`]s
//! and site-rule resolutions are memoized per address: after the first
//! translation of a trace shape, every `lookup_id` is a single fast-hash
//! probe. Site rules share their labels by `Arc`, so a derived
//! correspondence holds the parsed programs' own labels rather than
//! copies.

use std::sync::{Arc, RwLock};

use ppl::address::Component;
use ppl::fxhash::{FxHashMap, FxHashSet};
use ppl::{Address, AddressId, PplError};

/// A correspondence `f : F_Q → F_P` from addresses of the *new* program `Q`
/// to addresses of the *old* program `P`.
///
/// # Examples
///
/// ```
/// use incremental::Correspondence;
/// use ppl::addr;
/// let mut f = Correspondence::new();
/// f.add_pair(addr!["eps"], addr!["alpha"]).unwrap();
/// f.add_site_rule("hidden", "hidden").unwrap();
/// assert_eq!(f.lookup(&addr!["eps"]), Some(addr!["alpha"]));
/// assert_eq!(f.lookup(&addr!["hidden", 3]), Some(addr!["hidden", 3]));
/// assert_eq!(f.lookup(&addr!["other"]), None);
/// ```
#[derive(Debug, Default)]
pub struct Correspondence {
    pairs: FxHashMap<AddressId, AddressId>,
    /// `pairs` inverted, so the bijection check is one probe and
    /// [`Correspondence::inverse`] a swap.
    pair_sources: FxHashMap<AddressId, AddressId>,
    site_rules: FxHashMap<Arc<str>, Arc<str>>,
    /// `site_rules` inverted, for the same reasons.
    rule_sources: FxHashMap<Arc<str>, Arc<str>>,
    /// Memoized site-rule resolutions (`q id → f(q) id`, `None` for
    /// unmapped). Cleared on mutation, through `&mut self` and so without
    /// taking the lock; never observable in results.
    cache: RwLock<FxHashMap<AddressId, Option<AddressId>>>,
}

impl Clone for Correspondence {
    fn clone(&self) -> Correspondence {
        Correspondence {
            pairs: self.pairs.clone(),
            pair_sources: self.pair_sources.clone(),
            site_rules: self.site_rules.clone(),
            rule_sources: self.rule_sources.clone(),
            cache: RwLock::new(self.cache.read().expect("cache poisoned").clone()),
        }
    }
}

impl Correspondence {
    /// Creates an empty correspondence (no choice is reused).
    pub fn new() -> Correspondence {
        Correspondence::default()
    }

    /// The identity correspondence on the given site labels: each site of
    /// `Q` maps to the same-named site of `P`, preserving indices.
    ///
    /// # Panics
    ///
    /// Panics if a site appears twice in `sites`.
    pub fn identity_on<'a>(sites: impl IntoIterator<Item = &'a str>) -> Correspondence {
        let mut f = Correspondence::new();
        for s in sites {
            f.add_site_rule(s, s)
                .expect("duplicate site in identity correspondence");
        }
        f
    }

    /// Builds a correspondence from explicit `(Q address, P address)`
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the pairs do not describe a bijection.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (Address, Address)>,
    ) -> Result<Correspondence, PplError> {
        let mut f = Correspondence::new();
        for (q, p) in pairs {
            f.add_pair(q, p)?;
        }
        Ok(f)
    }

    /// Adds an explicit address pair `f(q) = p`.
    ///
    /// # Errors
    ///
    /// Returns an error if `q` is already mapped or `p` is already a target
    /// (the correspondence must stay a bijection).
    pub fn add_pair(&mut self, q: Address, p: Address) -> Result<(), PplError> {
        let q_id = q.id();
        let p_id = p.id();
        if self.pairs.contains_key(&q_id) {
            return Err(PplError::Other(format!(
                "correspondence already maps Q address `{q}`"
            )));
        }
        if self.pair_sources.contains_key(&p_id) {
            return Err(PplError::Other(format!(
                "correspondence already targets P address `{p}`"
            )));
        }
        self.pairs.insert(q_id, p_id);
        self.pair_sources.insert(p_id, q_id);
        self.clear_cache();
        Ok(())
    }

    /// Drops every memoized resolution after a mutation.
    fn clear_cache(&mut self) {
        self.cache.get_mut().expect("cache poisoned").clear();
    }

    /// Adds a site rule: every Q address with head symbol `q_site` maps to
    /// the P address with head `p_site` and the same index components.
    ///
    /// # Errors
    ///
    /// Returns an error if `q_site` already has a rule or `p_site` is
    /// already a rule target.
    pub fn add_site_rule(&mut self, q_site: &str, p_site: &str) -> Result<(), PplError> {
        self.add_shared_site_rule(&Arc::from(q_site), &Arc::from(p_site))
    }

    /// [`Correspondence::add_site_rule`] for labels already shared by
    /// `Arc`, such as a parsed program's site labels: the rule holds the
    /// labels themselves, not copies.
    ///
    /// # Errors
    ///
    /// As for [`Correspondence::add_site_rule`].
    pub fn add_shared_site_rule(
        &mut self,
        q_site: &Arc<str>,
        p_site: &Arc<str>,
    ) -> Result<(), PplError> {
        if self.site_rules.contains_key(q_site) {
            return Err(PplError::Other(format!(
                "correspondence already has a rule for Q site `{q_site}`"
            )));
        }
        if self.rule_sources.contains_key(p_site) {
            return Err(PplError::Other(format!(
                "correspondence already targets P site `{p_site}`"
            )));
        }
        self.site_rules
            .insert(Arc::clone(q_site), Arc::clone(p_site));
        self.rule_sources
            .insert(Arc::clone(p_site), Arc::clone(q_site));
        self.clear_cache();
        Ok(())
    }

    /// Looks up `f(q)`, if `q ∈ F_Q`. Explicit pairs take precedence over
    /// site rules.
    pub fn lookup(&self, q: &Address) -> Option<Address> {
        self.lookup_id(q.id()).map(|id| id.resolve().clone())
    }

    /// Looks up `f(q)` on interned ids — the hot path. Semantics are
    /// identical to [`Correspondence::lookup`].
    pub fn lookup_id(&self, q: AddressId) -> Option<AddressId> {
        if let Some(&p) = self.pairs.get(&q) {
            return Some(p);
        }
        if self.site_rules.is_empty() {
            return None;
        }
        if let Some(&hit) = self.cache.read().expect("cache poisoned").get(&q) {
            return hit;
        }
        let q_addr = q.resolve();
        let result = match q_addr.components().first() {
            Some(Component::Sym(head)) => self
                .site_rules
                .get(head.as_ref())
                .map(|p_site| q_addr.with_head_sym(p_site).id()),
            _ => None,
        };
        self.cache
            .write()
            .expect("cache poisoned")
            .insert(q, result);
        result
    }

    /// Whether `q ∈ F_Q`.
    pub fn maps(&self, q: &Address) -> bool {
        self.lookup_id(q.id()).is_some()
    }

    /// The inverse correspondence `f⁻¹ : F_P → F_Q` (used by the backward
    /// kernel `ℓ_{Q→P} = k_{Q→P}` of Eq. (7)).
    pub fn inverse(&self) -> Correspondence {
        Correspondence {
            pairs: self.pair_sources.clone(),
            pair_sources: self.pairs.clone(),
            site_rules: self.rule_sources.clone(),
            rule_sources: self.site_rules.clone(),
            cache: RwLock::new(FxHashMap::default()),
        }
    }

    /// Number of explicit pairs (site rules not counted: they describe
    /// unboundedly many pairs).
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the correspondence is empty (maps nothing).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty() && self.site_rules.is_empty()
    }

    /// Iterates over the explicit pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (&Address, &Address)> {
        self.pairs.iter().map(|(q, p)| (q.resolve(), p.resolve()))
    }

    /// Iterates over the site rules as `(Q site, P site)`.
    pub fn site_rules(&self) -> impl Iterator<Item = (&str, &str)> {
        self.site_rules.iter().map(|(q, p)| (&**q, &**p))
    }
}

/// A diagnostic of how a correspondence covers a concrete pair of
/// traces — useful before committing to a translation (Section 5.3: the
/// error grows with every non-corresponding choice).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageReport {
    /// Pairs `(q address, p address)` that would be reused (mapped, both
    /// present, supports equal).
    pub reusable: Vec<(Address, Address)>,
    /// Q addresses with no correspondence entry.
    pub unmapped_q: Vec<Address>,
    /// Q addresses mapped to a P address absent from the P trace
    /// (Section 5.1 case (i)).
    pub missing_in_p: Vec<Address>,
    /// Q addresses mapped to a same-named choice with a different support
    /// (Section 5.1 case (ii)).
    pub support_mismatch: Vec<Address>,
    /// P addresses in the correspondence image that no Q choice consumed.
    pub unconsumed_p: Vec<Address>,
}

impl CoverageReport {
    /// Fraction of Q's choices that reuse a P choice (1.0 = every choice
    /// carried over).
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reusable.len()
            + self.unmapped_q.len()
            + self.missing_in_p.len()
            + self.support_mismatch.len();
        if total == 0 {
            return 1.0;
        }
        self.reusable.len() as f64 / total as f64
    }
}

impl Correspondence {
    /// Analyzes how this correspondence covers the concrete trace pair
    /// `(t of P, u of Q)` — which choices reuse, which fall back, and
    /// which P choices go unconsumed.
    pub fn coverage(&self, p_trace: &ppl::Trace, q_trace: &ppl::Trace) -> CoverageReport {
        let mut report = CoverageReport::default();
        let mut consumed: FxHashSet<AddressId> = FxHashSet::default();
        for (q_id, q_choice) in q_trace.choices_interned() {
            let q_addr = q_id.resolve();
            match self.lookup_id(q_id) {
                None => report.unmapped_q.push(q_addr.clone()),
                Some(p_id) => match p_trace.choice_by_id(p_id) {
                    None => report.missing_in_p.push(q_addr.clone()),
                    Some(p_choice) => {
                        if q_choice.dist.same_support(&p_choice.dist) {
                            consumed.insert(p_id);
                            report
                                .reusable
                                .push((q_addr.clone(), p_id.resolve().clone()));
                        } else {
                            report.support_mismatch.push(q_addr.clone());
                        }
                    }
                },
            }
        }
        let inverse = self.inverse();
        for (p_id, _) in p_trace.choices_interned() {
            if inverse.lookup_id(p_id).is_some() && !consumed.contains(&p_id) {
                report.unconsumed_p.push(p_id.resolve().clone());
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::addr;

    #[test]
    fn explicit_pairs_round_trip() {
        // Fig. 5 correspondence: ε↔α, ζ↔β, η↔γ.
        let f = Correspondence::from_pairs([
            (addr!["eps"], addr!["alpha"]),
            (addr!["zeta"], addr!["beta"]),
            (addr!["eta"], addr!["gamma"]),
        ])
        .unwrap();
        assert_eq!(f.lookup(&addr!["eps"]), Some(addr!["alpha"]));
        assert_eq!(f.lookup(&addr!["iota"]), None);
        assert_eq!(f.num_pairs(), 3);
        let inv = f.inverse();
        assert_eq!(inv.lookup(&addr!["alpha"]), Some(addr!["eps"]));
        assert_eq!(inv.lookup(&addr!["eps"]), None);
    }

    /// Asserts that `f`, which maps address `q` to `p` and site `qs` to
    /// `ps`, refuses a second entry for either end of either, and still
    /// accepts fresh ones.
    fn assert_stays_a_bijection(
        mut f: Correspondence,
        (q, p): (&str, &str),
        (qs, ps): (&str, &str),
    ) {
        let refusal =
            |r: Result<(), PplError>| r.expect_err("a duplicate was accepted").to_string();
        assert_eq!(
            refusal(f.add_pair(addr![q], addr!["new_p"])),
            format!("correspondence already maps Q address `{q}`")
        );
        assert_eq!(
            refusal(f.add_pair(addr!["new_q"], addr![p])),
            format!("correspondence already targets P address `{p}`")
        );
        assert_eq!(
            refusal(f.add_site_rule(qs, "new_p")),
            format!("correspondence already has a rule for Q site `{qs}`")
        );
        assert_eq!(
            refusal(f.add_site_rule("new_q", ps)),
            format!("correspondence already targets P site `{ps}`")
        );
        f.add_pair(addr!["new_q"], addr!["new_p"]).unwrap();
        f.add_site_rule("new_q", "new_p").unwrap();
    }

    #[test]
    fn bijectivity_enforced() {
        let mut f = Correspondence::new();
        f.add_pair(addr!["a"], addr!["x"]).unwrap();
        f.add_site_rule("s", "t").unwrap();
        assert_stays_a_bijection(f.clone(), ("a", "x"), ("s", "t"));
        assert_stays_a_bijection(f.inverse(), ("x", "a"), ("t", "s"));
        assert_stays_a_bijection(f, ("a", "x"), ("s", "t"));
    }

    #[test]
    #[should_panic(expected = "duplicate site in identity correspondence")]
    fn identity_on_a_duplicate_site_panics() {
        let _ = Correspondence::identity_on(["trial", "hidden", "trial"]);
    }

    #[test]
    fn site_rules_preserve_indices() {
        // Section 5.4: geometric trial i corresponds to trial i.
        let f = Correspondence::identity_on(["trial"]);
        assert_eq!(f.lookup(&addr!["trial", 7]), Some(addr!["trial", 7]));
        assert_eq!(f.lookup(&addr!["trial"]), Some(addr!["trial"]));
        let mut g = Correspondence::new();
        g.add_site_rule("state", "hidden").unwrap();
        assert_eq!(g.lookup(&addr!["state", 2]), Some(addr!["hidden", 2]));
    }

    #[test]
    fn explicit_pairs_shadow_site_rules() {
        let mut f = Correspondence::new();
        f.add_site_rule("x", "x").unwrap();
        f.add_pair(addr!["x", 0], addr!["y", 9]).unwrap();
        assert_eq!(f.lookup(&addr!["x", 0]), Some(addr!["y", 9]));
        assert_eq!(f.lookup(&addr!["x", 1]), Some(addr!["x", 1]));
    }

    #[test]
    fn cached_lookups_survive_mutation() {
        // The memo cache must be invalidated by add_pair/add_site_rule.
        let mut f = Correspondence::new();
        f.add_site_rule("a", "b").unwrap();
        assert_eq!(f.lookup(&addr!["a", 1]), Some(addr!["b", 1]));
        assert_eq!(f.lookup(&addr!["q", 1]), None);
        // Now shadow the site rule with an explicit pair and add a rule
        // covering the previously-unmapped head.
        f.add_pair(addr!["a", 1], addr!["z", 0]).unwrap();
        f.add_site_rule("q", "r").unwrap();
        assert_eq!(f.lookup(&addr!["a", 1]), Some(addr!["z", 0]));
        assert_eq!(f.lookup(&addr!["a", 2]), Some(addr!["b", 2]));
        assert_eq!(f.lookup(&addr!["q", 1]), Some(addr!["r", 1]));
        // Clones behave identically.
        let g = f.clone();
        assert_eq!(g.lookup(&addr!["a", 1]), Some(addr!["z", 0]));
        assert_eq!(g.lookup(&addr!["q", 7]), Some(addr!["r", 7]));
    }

    #[test]
    fn lookup_and_lookup_id_agree() {
        let f = Correspondence::identity_on(["trial"]);
        let a = addr!["trial", 3];
        assert_eq!(
            f.lookup(&a).map(|p| p.id()),
            f.lookup_id(a.id()),
            "lookup and lookup_id disagree"
        );
        let unmapped = addr!["nope", 3];
        assert_eq!(f.lookup(&unmapped), None);
        assert_eq!(f.lookup_id(unmapped.id()), None);
    }

    #[test]
    fn empty_correspondence_maps_nothing() {
        let f = Correspondence::new();
        assert!(f.is_empty());
        assert!(!f.maps(&addr!["anything"]));
    }

    #[test]
    fn coverage_classifies_every_case() {
        use ppl::dist::Dist;
        use ppl::{Trace, Value};
        // P trace: alpha (flip), beta (uniform 0..5), omega (flip, mapped
        // but never consumed).
        let mut t = Trace::new();
        for (name, dist, value) in [
            ("alpha", Dist::flip(0.5), Value::Bool(true)),
            ("beta", Dist::uniform_int(0, 5), Value::Int(3)),
            ("omega", Dist::flip(0.5), Value::Bool(false)),
        ] {
            let lp = dist.log_prob(&value);
            t.record_choice(addr![name], value, dist, lp).unwrap();
        }
        // Q trace: eps (mapped to alpha, reusable), zeta (mapped to beta
        // but support differs), eta (mapped to missing gamma), iota
        // (unmapped).
        let mut u = Trace::new();
        for (name, dist, value) in [
            ("eps", Dist::flip(0.25), Value::Bool(true)),
            ("zeta", Dist::uniform_int(0, 9), Value::Int(7)),
            ("eta", Dist::flip(0.5), Value::Bool(true)),
            ("iota", Dist::uniform_int(-5, -2), Value::Int(-3)),
        ] {
            let lp = dist.log_prob(&value);
            u.record_choice(addr![name], value, dist, lp).unwrap();
        }
        let f = Correspondence::from_pairs([
            (addr!["eps"], addr!["alpha"]),
            (addr!["zeta"], addr!["beta"]),
            (addr!["eta"], addr!["gamma"]),
            (addr!["never"], addr!["omega"]),
        ])
        .unwrap();
        let report = f.coverage(&t, &u);
        assert_eq!(report.reusable, vec![(addr!["eps"], addr!["alpha"])]);
        assert_eq!(report.support_mismatch, vec![addr!["zeta"]]);
        assert_eq!(report.missing_in_p, vec![addr!["eta"]]);
        assert_eq!(report.unmapped_q, vec![addr!["iota"]]);
        assert_eq!(report.unconsumed_p, vec![addr!["beta"], addr!["omega"]]);
        assert!((report.reuse_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn full_coverage_reports_fraction_one() {
        let f = Correspondence::new();
        let report = f.coverage(&ppl::Trace::new(), &ppl::Trace::new());
        assert_eq!(report.reuse_fraction(), 1.0);
    }
}
