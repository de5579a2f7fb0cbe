//! The dependency-graph runtime's side of expression evaluation.
//!
//! Expressions are evaluated by [`CompiledProgram::eval`], the one
//! evaluator over compiled expressions, which forward execution shares.
//! [`Recorder`] is this runtime's [`EvalHooks`]: it charges fuel to the
//! walk's [`Tally`], records every variable read into a [`Summary`] — the
//! dependency information change propagation runs on — and draws each
//! random choice from a [`ChoiceSource`], recording the value with its
//! density.
//!
//! The frame doubles as the propagation environment: each slot carries
//! the value plus the dirty bit change propagation tracks, which
//! [`apply_effects`] writes and [`any_dirty`] reads.

use ppl::compile::{CompiledProgram, EvalFrame, EvalHooks, SlotId};
use ppl::dist::Dist;
use ppl::{Address, PplError, Value};

use crate::propagate::Tally;
use crate::record::{ChoiceData, Effect, Summary};

/// Where choice values come from: prior sampling (graph building), replay
/// (rebuilding a graph from a trace), or correspondence reuse (change
/// propagation, which accounts its weight factors in the [`Tally`]).
pub(crate) trait ChoiceSource {
    fn draw(&mut self, addr: &Address, dist: &Dist, tally: &mut Tally) -> Result<Value, PplError>;
}

/// Records the reads and choices of one evaluation into `sum`.
pub(crate) struct Recorder<'a> {
    pub source: &'a mut dyn ChoiceSource,
    pub tally: &'a mut Tally,
    pub sum: &'a mut Summary,
}

impl EvalHooks for Recorder<'_> {
    fn charge(&mut self, ticks: u64) -> Result<(), PplError> {
        self.tally.charge(ticks)
    }

    fn read(&mut self, name: &'static str) {
        self.sum.reads.insert(name);
    }

    fn draw(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError> {
        let value = self.source.draw(&addr, &dist, self.tally)?;
        let log_prob = dist.log_prob(&value);
        self.sum.choices.push((
            addr,
            ChoiceData {
                value: value.clone(),
                dist,
                log_prob,
            },
        ));
        Ok(value)
    }
}

/// Replays recorded effects into the frame, marking every written slot
/// with the given dirtiness. Used when an unchanged record is skipped
/// (`dirty = false`: the skipped subtree wrote exactly what it wrote
/// before) and when an old branch's state must be reconstructed.
pub(crate) fn apply_effects(
    prog: &CompiledProgram,
    frame: &mut EvalFrame,
    effects: &[Effect],
    dirty: bool,
) -> Result<(), PplError> {
    apply_effects_where(prog, frame, effects, dirty, |_| true)
}

/// [`apply_effects`] restricted to the effects whose slot `keep` accepts.
pub(crate) fn apply_effects_where(
    prog: &CompiledProgram,
    frame: &mut EvalFrame,
    effects: &[Effect],
    dirty: bool,
    keep: impl Fn(SlotId) -> bool,
) -> Result<(), PplError> {
    for effect in effects {
        let slot = prog
            .slot_of(effect.var_name())
            .expect("pair-compiled slot table covers every old-program effect");
        if !keep(slot) {
            continue;
        }
        match effect {
            Effect::Var(_, value) => frame.bind(slot, value.clone(), dirty),
            Effect::Elem(name, i, value) => {
                let s = frame
                    .get_mut(slot)
                    .ok_or_else(|| PplError::UnboundVariable((*name).to_string()))?;
                let items = s.value.as_array_mut()?;
                if *i < 0 || *i as usize >= items.len() {
                    return Err(PplError::IndexOutOfBounds {
                        index: *i,
                        len: items.len(),
                    });
                }
                items[*i as usize] = value.clone();
                s.dirty = s.dirty || dirty;
            }
        }
    }
    Ok(())
}

/// Whether any of the named reads is (possibly) dirty. A name with no
/// slot or no binding is conservatively dirty.
pub(crate) fn any_dirty<'a>(
    prog: &CompiledProgram,
    frame: &EvalFrame,
    mut reads: impl Iterator<Item = &'a str>,
) -> bool {
    reads.any(|name| match prog.slot_of(name) {
        Some(slot) => frame.get(slot).map(|s| s.dirty).unwrap_or(true),
        None => true,
    })
}
