//! Traces: the recorded random choices and observations of one program
//! execution.
//!
//! A trace `t` (Section 3) is the sequence of values taken by every random
//! expression evaluated during an execution, in evaluation order, indexed by
//! address. We additionally record, per choice, the distribution it was
//! drawn from and its log probability, so that
//! `P̃r[t ∼ P] = Π_i Pr[t_i ∼ P | t_{1:i-1}] · Π_i Pr[i ∼ P | t_{1:i-1}]`
//! is available as [`Trace::score`] without re-execution.
//!
//! Internally, traces and choice maps are keyed on interned
//! [`AddressId`]s rather than full [`Address`] values: recording a choice
//! interns its address once (no clone), and lookups hash a `u32` handle
//! instead of the component list. The id-based accessors
//! ([`Trace::choice_by_id`], [`ChoiceMap::get_id`], …) let hot paths skip
//! even that single interning step when they already hold an id. Display
//! and iteration still present full addresses, and [`ChoiceMap`]
//! iteration remains sorted by address order, so serialized output is
//! unchanged.

use std::fmt;

use crate::address::{Address, AddressId, AddressInterner};
use crate::dist::Dist;
use crate::error::PplError;
use crate::fxhash::FxHashMap;
use crate::logweight::LogWeight;
use crate::value::Value;

/// One recorded random choice.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceRecord {
    /// The sampled (or reused) value `t_i`.
    pub value: Value,
    /// The distribution the choice was scored against, with the concrete
    /// parameters in effect at evaluation time.
    pub dist: Dist,
    /// `log Pr[t_i ∼ P | t_{1:i-1}]`.
    pub log_prob: LogWeight,
}

/// One recorded observation (`observe(R == E)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// The observed value `E`.
    pub value: Value,
    /// The observation distribution `R` with concrete parameters.
    pub dist: Dist,
    /// `log Pr[i ∼ P | t_{1:i-1}]`.
    pub log_prob: LogWeight,
}

/// A complete execution trace: ordered random choices, ordered
/// observations, and the program's return value.
///
/// # Examples
///
/// ```
/// use ppl::{Trace, Value, addr};
/// use ppl::dist::Dist;
/// let mut t = Trace::new();
/// let d = Dist::flip(0.2);
/// let lp = d.log_prob(&Value::Bool(true));
/// t.record_choice(addr!["b"], Value::Bool(true), d, lp).unwrap();
/// assert!((t.score().prob() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    choices: Vec<(AddressId, ChoiceRecord)>,
    choice_index: FxHashMap<AddressId, usize>,
    observations: Vec<(AddressId, ObsRecord)>,
    obs_index: FxHashMap<AddressId, usize>,
    return_value: Option<Value>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Records a random choice at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::AddressCollision`] if the address was already
    /// used by a choice in this trace.
    pub fn record_choice(
        &mut self,
        addr: Address,
        value: Value,
        dist: Dist,
        log_prob: LogWeight,
    ) -> Result<(), PplError> {
        self.record_choice_interned(addr.id(), value, dist, log_prob)
    }

    /// Records a random choice at an already-interned address — the hot
    /// path used when the caller holds an [`AddressId`].
    ///
    /// # Errors
    ///
    /// Returns [`PplError::AddressCollision`] if the address was already
    /// used by a choice in this trace.
    pub fn record_choice_interned(
        &mut self,
        id: AddressId,
        value: Value,
        dist: Dist,
        log_prob: LogWeight,
    ) -> Result<(), PplError> {
        if self.choice_index.contains_key(&id) {
            return Err(PplError::AddressCollision(id.resolve().clone()));
        }
        self.choice_index.insert(id, self.choices.len());
        self.choices.push((
            id,
            ChoiceRecord {
                value,
                dist,
                log_prob,
            },
        ));
        Ok(())
    }

    /// Records an observation at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::AddressCollision`] if the address was already
    /// used by an observation in this trace.
    pub fn record_observation(
        &mut self,
        addr: Address,
        value: Value,
        dist: Dist,
        log_prob: LogWeight,
    ) -> Result<(), PplError> {
        self.record_observation_interned(addr.id(), value, dist, log_prob)
    }

    /// Records an observation at an already-interned address.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::AddressCollision`] if the address was already
    /// used by an observation in this trace.
    pub fn record_observation_interned(
        &mut self,
        id: AddressId,
        value: Value,
        dist: Dist,
        log_prob: LogWeight,
    ) -> Result<(), PplError> {
        if self.obs_index.contains_key(&id) {
            return Err(PplError::AddressCollision(id.resolve().clone()));
        }
        self.obs_index.insert(id, self.observations.len());
        self.observations.push((
            id,
            ObsRecord {
                value,
                dist,
                log_prob,
            },
        ));
        Ok(())
    }

    /// Sets the program's return value.
    pub fn set_return_value(&mut self, value: Value) {
        self.return_value = Some(value);
    }

    /// The program's return value, if the execution completed.
    pub fn return_value(&self) -> Option<&Value> {
        self.return_value.as_ref()
    }

    /// Looks up the choice recorded at `addr`.
    pub fn choice(&self, addr: &Address) -> Option<&ChoiceRecord> {
        AddressInterner::global()
            .get(addr)
            .and_then(|id| self.choice_by_id(id))
    }

    /// Looks up the choice recorded at an interned address.
    pub fn choice_by_id(&self, id: AddressId) -> Option<&ChoiceRecord> {
        self.choice_index.get(&id).map(|&i| &self.choices[i].1)
    }

    /// Looks up the value of the choice at `addr`.
    pub fn value(&self, addr: &Address) -> Option<&Value> {
        self.choice(addr).map(|c| &c.value)
    }

    /// Looks up the value of the choice at an interned address.
    pub fn value_by_id(&self, id: AddressId) -> Option<&Value> {
        self.choice_by_id(id).map(|c| &c.value)
    }

    /// Looks up the observation recorded at `addr`.
    pub fn observation(&self, addr: &Address) -> Option<&ObsRecord> {
        AddressInterner::global()
            .get(addr)
            .and_then(|id| self.observation_by_id(id))
    }

    /// Looks up the observation recorded at an interned address.
    pub fn observation_by_id(&self, id: AddressId) -> Option<&ObsRecord> {
        self.obs_index.get(&id).map(|&i| &self.observations[i].1)
    }

    /// Whether a choice exists at `addr`.
    pub fn has_choice(&self, addr: &Address) -> bool {
        AddressInterner::global()
            .get(addr)
            .is_some_and(|id| self.choice_index.contains_key(&id))
    }

    /// Whether a choice exists at an interned address.
    pub fn has_choice_id(&self, id: AddressId) -> bool {
        self.choice_index.contains_key(&id)
    }

    /// Iterates over choices in evaluation order.
    pub fn choices(&self) -> impl Iterator<Item = (&Address, &ChoiceRecord)> {
        self.choices.iter().map(|(id, c)| (id.resolve(), c))
    }

    /// Iterates over choices in evaluation order, yielding interned ids.
    pub fn choices_interned(&self) -> impl Iterator<Item = (AddressId, &ChoiceRecord)> {
        self.choices.iter().map(|(id, c)| (*id, c))
    }

    /// Iterates over observations in evaluation order.
    pub fn observations(&self) -> impl Iterator<Item = (&Address, &ObsRecord)> {
        self.observations.iter().map(|(id, o)| (id.resolve(), o))
    }

    /// Iterates over observations in evaluation order, yielding interned
    /// ids.
    pub fn observations_interned(&self) -> impl Iterator<Item = (AddressId, &ObsRecord)> {
        self.observations.iter().map(|(id, o)| (*id, o))
    }

    /// Number of random choices (`|R_t|`).
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the trace has no random choices.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Number of observations (`|O_t|`).
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// `Σ_i log Pr[t_i ∼ P | t_{1:i-1}]`: the joint log probability of the
    /// random choices.
    pub fn choice_score(&self) -> LogWeight {
        self.choices.iter().map(|(_, c)| c.log_prob).sum()
    }

    /// `Σ_i log Pr[i ∼ P | t_{1:i-1}]`: the joint log likelihood of the
    /// observations.
    pub fn observation_score(&self) -> LogWeight {
        self.observations.iter().map(|(_, o)| o.log_prob).sum()
    }

    /// `log P̃r[t ∼ P]`: the unnormalized log probability of the trace
    /// (choices times observations).
    pub fn score(&self) -> LogWeight {
        self.choice_score() + self.observation_score()
    }

    /// Extracts the choice values as a [`ChoiceMap`].
    pub fn to_choice_map(&self) -> ChoiceMap {
        let mut map = ChoiceMap::new();
        for (id, c) in &self.choices {
            map.insert_id(*id, c.value.clone());
        }
        map
    }

    /// Extracts only the choices whose address satisfies `keep` — used to
    /// form the partial traces `s` of Section 5.3.
    pub fn filter_choices(&self, mut keep: impl FnMut(&Address) -> bool) -> ChoiceMap {
        let mut map = ChoiceMap::new();
        for (id, c) in &self.choices {
            if keep(id.resolve()) {
                map.insert_id(*id, c.value.clone());
            }
        }
        map
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace (score {}):", self.score())?;
        for (addr, c) in self.choices() {
            writeln!(
                f,
                "  {addr} -> {} (log p = {:.6})",
                c.value,
                c.log_prob.log()
            )?;
        }
        for (addr, o) in self.observations() {
            writeln!(
                f,
                "  observe {addr}: {} (log p = {:.6})",
                o.value,
                o.log_prob.log()
            )?;
        }
        if let Some(rv) = &self.return_value {
            writeln!(f, "  return {rv}")?;
        }
        Ok(())
    }
}

/// A flat map from addresses to values: constraints for replay, partial
/// traces for error analysis, or observation bindings.
///
/// Iteration order is the address order (deterministic). Storage is an
/// id-keyed hash map — inserts and lookups are O(1) with no address
/// clone; [`ChoiceMap::iter`]/[`ChoiceMap::addresses`] sort on demand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChoiceMap {
    map: FxHashMap<AddressId, Value>,
}

impl ChoiceMap {
    /// Creates an empty map.
    pub fn new() -> ChoiceMap {
        ChoiceMap::default()
    }

    /// Creates an empty map with room for `n` bindings.
    pub fn with_capacity(n: usize) -> ChoiceMap {
        ChoiceMap {
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Inserts a value, returning the previous value at that address.
    pub fn insert(&mut self, addr: Address, value: Value) -> Option<Value> {
        self.map.insert(addr.id(), value)
    }

    /// Inserts a value at an already-interned address.
    pub fn insert_id(&mut self, id: AddressId, value: Value) -> Option<Value> {
        self.map.insert(id, value)
    }

    /// Looks up a value.
    pub fn get(&self, addr: &Address) -> Option<&Value> {
        AddressInterner::global()
            .get(addr)
            .and_then(|id| self.map.get(&id))
    }

    /// Looks up a value by interned address.
    pub fn get_id(&self, id: AddressId) -> Option<&Value> {
        self.map.get(&id)
    }

    /// Whether the map binds `addr`.
    pub fn contains(&self, addr: &Address) -> bool {
        self.get(addr).is_some()
    }

    /// Removes a binding.
    pub fn remove(&mut self, addr: &Address) -> Option<Value> {
        AddressInterner::global()
            .get(addr)
            .and_then(|id| self.map.remove(&id))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The bindings sorted by address order (computed on demand).
    fn sorted(&self) -> Vec<(&'static Address, &Value)> {
        let mut entries: Vec<(&'static Address, &Value)> =
            self.map.iter().map(|(id, v)| (id.resolve(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Iterates over bindings in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Value)> {
        self.sorted().into_iter()
    }

    /// Iterates over the bound addresses in address order.
    pub fn addresses(&self) -> impl Iterator<Item = &Address> {
        self.sorted().into_iter().map(|(a, _)| a)
    }
}

impl FromIterator<(Address, Value)> for ChoiceMap {
    fn from_iter<I: IntoIterator<Item = (Address, Value)>>(iter: I) -> Self {
        ChoiceMap {
            map: iter.into_iter().map(|(a, v)| (a.id(), v)).collect(),
        }
    }
}

impl Extend<(Address, Value)> for ChoiceMap {
    fn extend<I: IntoIterator<Item = (Address, Value)>>(&mut self, iter: I) {
        self.map.extend(iter.into_iter().map(|(a, v)| (a.id(), v)));
    }
}

impl fmt::Display for ChoiceMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (addr, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{addr} -> {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr;

    fn flip_record(t: &mut Trace, name: &str, b: bool, p: f64) {
        let d = Dist::flip(p);
        let lp = d.log_prob(&Value::Bool(b));
        t.record_choice(addr![name], Value::Bool(b), d, lp).unwrap();
    }

    #[test]
    fn fig1_original_trace_score() {
        // t = [alpha -> 1, beta -> 1] with observation o (p = 0.8):
        // P̃r[t ∼ P] = 0.02 * 0.9 * 0.8
        let mut t = Trace::new();
        flip_record(&mut t, "alpha", true, 0.02);
        flip_record(&mut t, "beta", true, 0.9);
        let d = Dist::flip(0.8);
        let lp = d.log_prob(&Value::Bool(true));
        t.record_observation(addr!["o"], Value::Bool(true), d, lp)
            .unwrap();
        assert!((t.score().prob() - 0.02 * 0.9 * 0.8).abs() < 1e-12);
        assert!((t.choice_score().prob() - 0.02 * 0.9).abs() < 1e-12);
        assert!((t.observation_score().prob() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn collision_detected() {
        let mut t = Trace::new();
        flip_record(&mut t, "x", true, 0.5);
        let d = Dist::flip(0.5);
        let lp = d.log_prob(&Value::Bool(false));
        let err = t
            .record_choice(addr!["x"], Value::Bool(false), d, lp)
            .unwrap_err();
        assert!(matches!(err, PplError::AddressCollision(_)));
    }

    #[test]
    fn order_is_preserved() {
        let mut t = Trace::new();
        flip_record(&mut t, "c", true, 0.5);
        flip_record(&mut t, "a", true, 0.5);
        flip_record(&mut t, "b", true, 0.5);
        // Compare addresses directly — no string materialization.
        let order: Vec<&Address> = t.choices().map(|(a, _)| a).collect();
        assert_eq!(order, [&addr!["c"], &addr!["a"], &addr!["b"]]);
    }

    #[test]
    fn lookup_and_len() {
        let mut t = Trace::new();
        flip_record(&mut t, "x", true, 0.25);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.has_choice(&addr!["x"]));
        assert!(!t.has_choice(&addr!["y"]));
        assert_eq!(t.value(&addr!["x"]), Some(&Value::Bool(true)));
        assert!(t.observation(&addr!["x"]).is_none());
    }

    #[test]
    fn interned_lookups_agree_with_address_lookups() {
        let mut t = Trace::new();
        flip_record(&mut t, "x", true, 0.25);
        let id = addr!["x"].id();
        assert_eq!(t.choice_by_id(id), t.choice(&addr!["x"]));
        assert_eq!(t.value_by_id(id), t.value(&addr!["x"]));
        assert!(t.has_choice_id(id));
        let ids: Vec<AddressId> = t.choices_interned().map(|(i, _)| i).collect();
        assert_eq!(ids, [id]);
    }

    #[test]
    fn return_value_round_trip() {
        let mut t = Trace::new();
        assert!(t.return_value().is_none());
        t.set_return_value(Value::Int(42));
        assert_eq!(t.return_value(), Some(&Value::Int(42)));
    }

    #[test]
    fn choice_map_extraction_and_filter() {
        let mut t = Trace::new();
        flip_record(&mut t, "a", true, 0.5);
        flip_record(&mut t, "b", false, 0.5);
        let all = t.to_choice_map();
        assert_eq!(all.len(), 2);
        let only_a = t.filter_choices(|addr| *addr == addr!["a"]);
        assert_eq!(only_a.len(), 1);
        assert!(only_a.contains(&addr!["a"]));
        assert!(!only_a.contains(&addr!["b"]));
    }

    #[test]
    fn choice_map_basics() {
        let mut m = ChoiceMap::new();
        assert!(m.is_empty());
        m.insert(addr!["x"], Value::Int(1));
        assert_eq!(m.insert(addr!["x"], Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(m.get(&addr!["x"]), Some(&Value::Int(2)));
        m.remove(&addr!["x"]);
        assert!(m.is_empty());
        let m: ChoiceMap = vec![(addr!["z"], Value::Int(0)), (addr!["a"], Value::Int(1))]
            .into_iter()
            .collect();
        // Iteration is address order regardless of insertion order —
        // compared as addresses, rendered only on failure.
        let keys: Vec<&Address> = m.addresses().collect();
        assert_eq!(keys, [&addr!["a"], &addr!["z"]]);
    }

    #[test]
    fn empty_trace_scores_one() {
        let t = Trace::new();
        assert_eq!(t.score(), LogWeight::ONE);
    }

    #[test]
    fn display_contains_choices() {
        let mut t = Trace::new();
        flip_record(&mut t, "a", true, 0.5);
        t.set_return_value(Value::Bool(true));
        let s = t.to_string();
        assert!(s.contains("a -> true"));
        assert!(s.contains("return true"));
    }
}
