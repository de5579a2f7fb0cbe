//! Change propagation: the optimized trace translation of Section 6, and
//! the one statement walker of the dependency-graph runtime.
//!
//! Given the execution graph `G_t` of `P`, the edited program `Q`, and
//! the diff-derived correspondence, this constructs the translated graph
//! `G_u` and the weight estimate `ŵ_{P→Q}(u; t)` by re-executing only the
//! statements affected by the edit — "propagating changes from these
//! nodes throughout the dependency graph in topological order". The walk
//! pushes a new record, `Arc::new(record)`, for each visited statement
//! or loop iteration, and shares a skipped one between `G_t` and `G_u`
//! by cloning its `Arc`: no store, no ids, no lookups. A run of
//! statements the plan statically skips is one step: it clones the run's
//! `Arc`s and replays only the writes a later step can read
//! ([`crate::plan`]'s `SkipRun`), so a one-statement edit costs the edit
//! plus one pointer copy per statement. A translated graph's root block
//! keeps no summary, since nothing reads it.
//!
//! A subtree with no old record — a new statement, a flipped branch, an
//! unmatched loop iteration — is walked straight from its compiled block.
//! Building a graph from scratch ([`ExecGraph::simulate`],
//! [`ExecGraph::from_trace`]) is the same walk with no old graph at all.
//!
//! The walk drives a compiled program (for a translation,
//! [`StagePlan::compiled`]): expressions are evaluated by
//! [`CompiledProgram::eval`], variables resolve to frame slots (the slot
//! universe covers both `P` and `Q`, so old-record effects replay into
//! the same frame), and the frame itself is pooled per worker — a
//! particle task borrows warmed storage and returns it on drop.
//!
//! Weight accounting follows the paper's efficient scheme exactly:
//!
//! - every *visited* corresponding random choice contributes
//!   `Pr[u_i ∼ Q | …]` to the numerator and `Pr[t_{f(i)} ∼ P | …]` to the
//!   denominator;
//! - every *visited* observation contributes its new likelihood to the
//!   numerator and (when matched) its old likelihood to the denominator;
//! - observations *removed* by the edit contribute their old likelihood
//!   to the denominator;
//! - everything else cancels and is never touched.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;

use incremental::{Correspondence, PropagationCounters};
use ppl::analysis::{preorder, stmt_label, ProgramEffects};
use ppl::ast::Program;
use ppl::compile::{
    acquire_frame, note_compiled_exec, CBlockId, CRandKind, CStmt, CStmtId, CompiledProgram,
    EvalFrame, ExprId,
};
use ppl::dist::Dist;
use ppl::interp::DEFAULT_FUEL;
use ppl::{Address, LogWeight, PplError, Value};

use crate::diff::ProgramEdit;
use crate::eval::{any_dirty, apply_effects, apply_effects_where, ChoiceSource, Recorder};
use crate::plan::{PlanBlock, PlanOp, PlanStmt, StagePlan};
use crate::record::{
    BlockRecord, Effect, ExecGraph, ObsData, ReadSet, StmtRecord, Summary, WhileIter,
};

/// Whether the slice-soundness oracle is enabled: every dynamically
/// visited statement is checked for membership in the static
/// [`ImpactSet`](ppl::analysis::ImpactSet), and translation fails with a
/// structured report on any violation.
///
/// Initialized from the `PPL_VERIFY_SLICES` environment variable (any
/// value but `0`); overridable with [`set_verify_slices`] (the CLI's
/// `--verify-slices` flag).
pub fn verify_slices_enabled() -> bool {
    match VERIFY_SLICES.load(Ordering::Relaxed) {
        VERIFY_ON => true,
        VERIFY_OFF => false,
        _ => {
            let on = std::env::var_os("PPL_VERIFY_SLICES").is_some_and(|v| v != *"0");
            let encoded = if on { VERIFY_ON } else { VERIFY_OFF };
            // Racing initializers agree: both read the same environment.
            VERIFY_SLICES.store(encoded, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the slice-soundness oracle on or off, overriding
/// `PPL_VERIFY_SLICES`.
pub fn set_verify_slices(on: bool) {
    VERIFY_SLICES.store(if on { VERIFY_ON } else { VERIFY_OFF }, Ordering::Relaxed);
}

const VERIFY_UNSET: u8 = 0;
const VERIFY_OFF: u8 = 1;
const VERIFY_ON: u8 = 2;
static VERIFY_SLICES: AtomicU8 = AtomicU8::new(VERIFY_UNSET);

/// The result of one incremental translation.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// The translated execution graph `G_u`.
    pub graph: ExecGraph,
    /// `log ŵ_{P→Q}(u; t)`.
    pub log_weight: LogWeight,
    /// Work counters. `nodes_visited`/`nodes_skipped` are the Figure 10
    /// series; the other fields break the same work down for
    /// `incremental::metrics`, whose `metrics/v1` keys are these field
    /// names. Loop records whose diff is unchanged and whose inputs are
    /// clean skip as one record (`loop_skips`), however many iterations
    /// they recorded: the O(1) fixed-size-edit claim in counter form.
    pub stats: PropagationCounters,
}

/// Translates the execution graph `old` of `P` into a graph of `q`,
/// guided by `edit` (produced by [`crate::diff::diff_programs`]) and the
/// edit's precomputed [`StagePlan`] — the per-particle entry point used
/// by [`IncrementalTranslator`](crate::IncrementalTranslator), which
/// builds the plan once per stage and shares it across all particle
/// tasks. With a `deadline`, the walk stops at the first fuel charge
/// after it.
///
/// # Errors
///
/// Propagates evaluation errors from re-executing the affected slice,
/// returns [`PplError::DeadlineExceeded`] once `deadline` has passed, or
/// reports a shape mismatch if `plan` was built for a different edit.
pub fn translate_graph_with_plan(
    q: &Arc<Program>,
    edit: &ProgramEdit,
    plan: &StagePlan,
    old: &ExecGraph,
    deadline: Option<Instant>,
    rng: &mut dyn RngCore,
) -> Result<IncrementalResult, PplError> {
    translate(q, edit, plan, old, deadline, verify_slices_enabled(), rng)
}

/// [`translate_graph_with_plan`], with the slice-soundness oracle on when
/// `verify` holds.
fn translate(
    q: &Arc<Program>,
    edit: &ProgramEdit,
    plan: &StagePlan,
    old: &ExecGraph,
    deadline: Option<Instant>,
    verify: bool,
    rng: &mut dyn RngCore,
) -> Result<IncrementalResult, PplError> {
    let mut source = ReuseSource {
        old,
        correspondence: &edit.correspondence,
        rng,
    };
    let oracle = verify.then(|| plan.effects());
    let pass = walk(
        q,
        plan.compiled(),
        Some((old, plan)),
        &mut source,
        oracle,
        deadline,
    )?;
    let mut stats = pass.tally.stats;
    if let Some(visited) = pass.visited {
        stats.oracle_checks += visited.len() as u64;
        verify_visited_in_slice(&visited, plan, q)?;
    }
    Ok(IncrementalResult {
        graph: pass.graph,
        log_weight: pass.tally.log_num - pass.tally.log_den,
        stats,
    })
}

/// The running weight estimate, work counters, fuel and deadline of one
/// walk.
#[derive(Default)]
pub(crate) struct Tally {
    log_num: LogWeight,
    log_den: LogWeight,
    stats: PropagationCounters,
    /// Fuel ticks spent so far, out of [`DEFAULT_FUEL`].
    ticks: u64,
    /// When the walk must stop, if ever.
    deadline: Option<Instant>,
}

impl Tally {
    /// Charges `n` fuel ticks: one per visited statement and `for`
    /// iteration plus the expression ticks of [`CompiledProgram::eval`],
    /// exactly what forward execution charges for the same statements, so
    /// a walk runs out of fuel where [`ppl::Interp::run`] would. Fuel
    /// bounds a walk's steps, not its time (one `array` call is one
    /// tick), so a charge also stops a walk that has passed its deadline.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), PplError> {
        if DEFAULT_FUEL - self.ticks < n {
            return Err(PplError::FuelExhausted {
                budget: DEFAULT_FUEL,
            });
        }
        self.ticks += n;
        PplError::check_deadline(self.deadline)
    }
}

/// What one walk produced.
pub(crate) struct Pass {
    pub(crate) graph: ExecGraph,
    tally: Tally,
    /// Pre-order indices of the visited statements, when the oracle ran.
    visited: Option<BTreeSet<usize>>,
}

/// Walks `prog`, the compiled form of `program`, once and assembles the
/// resulting graph. With `old`, the walk propagates from that graph along
/// the plan; without it, every statement is walked fresh — a graph build.
/// With `oracle`, the walk records the pre-order index (in those effect
/// facts) of every statement it visits. With `deadline`, the walk stops
/// at the first fuel charge after it.
pub(crate) fn walk(
    program: &Arc<Program>,
    prog: &Arc<CompiledProgram>,
    old: Option<(&ExecGraph, &StagePlan)>,
    source: &mut dyn ChoiceSource,
    oracle: Option<&ProgramEffects>,
    deadline: Option<Instant>,
) -> Result<Pass, PplError> {
    note_compiled_exec();
    let mut frame = acquire_frame();
    frame.prepare(prog.slot_count());
    let mut walker = Propagator {
        prog,
        source,
        frame: &mut frame,
        live: old.map_or(&[], |(_, plan)| plan.live()),
        tally: Tally {
            deadline,
            ..Tally::default()
        },
        oracle: oracle.map(|effects| Oracle {
            effects,
            visited: BTreeSet::new(),
        }),
    };
    let mut stmts = match old {
        Some((graph, plan)) => walker.exec_block(prog.body(), plan.root(), graph.root())?,
        None => walker.fresh_block(prog.body(), 0)?,
    };
    // The return expression is recorded as a trailing pseudo-leaf so that
    // any choices it makes are part of the graph.
    let mut ret_summary = Summary::default();
    let return_value = match prog.ret() {
        Some(e) => {
            let v = walker.eval(e, &mut ret_summary)?;
            if !ret_summary.choices.is_empty() || !ret_summary.reads.is_empty() {
                stmts.push(Arc::new(StmtRecord::Leaf {
                    summary: ret_summary,
                }));
            }
            v
        }
        None => Value::Int(0),
    };
    let Propagator { tally, oracle, .. } = walker;
    let root = match old {
        // Only nested blocks' summaries have a reader, so a translation
        // leaves the root's empty: sealing it would aggregate every
        // top-level record, O(program) per particle.
        Some(_) => BlockRecord {
            stmts,
            summary: Summary::default(),
        },
        // A build seals it still: dropping that too slowed the
        // benchmark's repeated set-ups through heap placement (DESIGN
        // §14, ROADMAP item 2).
        None => BlockRecord::finalize(stmts),
    };
    Ok(Pass {
        graph: ExecGraph::assemble(Arc::clone(program), Arc::clone(prog), root, return_value),
        tally,
        visited: oracle.map(|o| o.visited),
    })
}

/// The statement walker: one pass over a compiled program, against the
/// old graph's records where they exist and fresh where they do not.
struct Propagator<'a> {
    /// The compiled program walked (for a translation, the stage's
    /// program, whose slot universe covers `P` and `Q`).
    prog: &'a CompiledProgram,
    source: &'a mut dyn ChoiceSource,
    frame: &'a mut EvalFrame,
    /// The stage's live set, one flag per slot ([`StagePlan::live`]);
    /// empty for a build, which has no skip runs.
    live: &'a [bool],
    tally: Tally,
    /// Present only while the slice-soundness oracle runs.
    oracle: Option<Oracle<'a>>,
}

/// The slice-soundness oracle's record of one walk.
struct Oracle<'a> {
    /// Static facts of the target program, whose pre-order indexing
    /// freshly walked statements are numbered in.
    effects: &'a ProgramEffects,
    visited: BTreeSet<usize>,
}

/// Choice source used inside visited statements: reuse through the
/// correspondence when the old graph has a same-support counterpart
/// (accumulating Eq. (8) factors), sample fresh otherwise (the fresh
/// factors cancel against the kernel density).
struct ReuseSource<'a> {
    old: &'a ExecGraph,
    correspondence: &'a Correspondence,
    rng: &'a mut dyn RngCore,
}

impl ChoiceSource for ReuseSource<'_> {
    fn draw(&mut self, addr: &Address, dist: &Dist, tally: &mut Tally) -> Result<Value, PplError> {
        if let Some(p_id) = self.correspondence.lookup_id(addr.id()) {
            if let Some(old_choice) = self.old.choice_by_id(p_id) {
                if dist.same_support(&old_choice.dist) {
                    tally.log_num += dist.log_prob(&old_choice.value);
                    tally.log_den += old_choice.log_prob;
                    tally.stats.choices_reused += 1;
                    return Ok(old_choice.value.clone());
                }
            }
        }
        tally.stats.choices_fresh += 1;
        Ok(dist.sample(self.rng))
    }
}

impl<'a> Propagator<'a> {
    fn eval(&mut self, expr: ExprId, sum: &mut Summary) -> Result<Value, PplError> {
        let mut hooks = Recorder {
            source: &mut *self.source,
            tally: &mut self.tally,
            sum,
        };
        self.prog.eval(self.frame, expr, &mut hooks)
    }

    fn eval_dist(&mut self, kind: &CRandKind, sum: &mut Summary) -> Result<Dist, PplError> {
        let mut hooks = Recorder {
            source: &mut *self.source,
            tally: &mut self.tally,
            sum,
        };
        self.prog.eval_dist(self.frame, kind, &mut hooks)
    }

    fn any_dirty(&self, reads: &ReadSet) -> bool {
        any_dirty(self.prog, self.frame, reads.iter())
    }

    /// One past the last pre-order index of `count` sibling subtrees
    /// starting at `start`. Pre-order indices feed only the oracle, so
    /// without it this returns `start`.
    fn pre_end(&self, start: usize, count: usize) -> usize {
        match &self.oracle {
            Some(oracle) => oracle.effects.block_end(start, count),
            None => start,
        }
    }

    /// Applies a skipped record's effects (clean: identical to the old
    /// execution).
    fn skip_record(&mut self, record: &StmtRecord) -> Result<(), PplError> {
        if let Some(summary) = record.summary() {
            apply_effects(self.prog, self.frame, &summary.effects, false)?;
        }
        self.tally.stats.nodes_skipped += 1;
        if matches!(record, StmtRecord::For { .. } | StmtRecord::While { .. }) {
            // An entire loop skipped as one record — the O(1) claim.
            self.tally.stats.loop_skips += 1;
        }
        Ok(())
    }

    /// Replays the writes of a statically skipped record, with `live_only`
    /// only those of a live variable (see [`crate::plan`]'s `SkipRun`).
    fn replay(&mut self, record: &StmtRecord, live_only: bool) -> Result<(), PplError> {
        let Some(summary) = record.summary() else {
            return Ok(());
        };
        let live = self.live;
        apply_effects_where(self.prog, self.frame, &summary.effects, false, |slot| {
            !live_only || live[slot.index()]
        })
    }

    /// Accounts for a removed old subtree: its observations enter the
    /// denominator, and variables it wrote are re-checked for dirtiness.
    fn remove_record(&mut self, summary: &Summary) {
        self.tally.log_den += summary.obs_score;
        self.reconcile_writes(summary);
    }

    /// After re-executing (or removing) a statement with an old record,
    /// re-derives the dirtiness of every variable the old execution
    /// wrote: clean iff the current value equals the old final value.
    fn reconcile_writes(&mut self, old_summary: &Summary) {
        for effect in &old_summary.effects {
            match effect {
                Effect::Var(name, old_value) => {
                    if let Some(slot) = self.prog.slot_of(name) {
                        if let Some(s) = self.frame.get_mut(slot) {
                            s.dirty = !s.value.num_eq(old_value);
                        }
                    }
                }
                Effect::Elem(name, _, _) => {
                    // Element-level old finals cannot be reconstructed in
                    // isolation; stay with whatever dirtiness execution
                    // set (conservative).
                    let _ = name;
                }
            }
        }
    }

    /// Walks a block against its plan and old records when it has them,
    /// fresh otherwise; `start` is the pre-order index of its first
    /// statement. Returns the block's finished record.
    fn walk_block(
        &mut self,
        block: CBlockId,
        old: Option<(&'a PlanBlock, &'a BlockRecord)>,
        start: usize,
    ) -> Result<BlockRecord, PplError> {
        let stmts = match old {
            Some((plan, old_block)) => self.exec_block(block, plan, old_block),
            None => self.fresh_block(block, start),
        };
        Ok(BlockRecord::finalize(stmts?))
    }

    /// Walks a block that has an old record, along its plan.
    fn exec_block(
        &mut self,
        block: CBlockId,
        plan: &'a PlanBlock,
        old_block: &'a BlockRecord,
    ) -> Result<Vec<Arc<StmtRecord>>, PplError> {
        let prog = self.prog;
        let stmts = &prog.block(block).stmts;
        let mut records = Vec::with_capacity(stmts.len());
        for op in &plan.ops {
            match op {
                PlanOp::RemovedP(p_index) => {
                    if let Some(summary) = old_block.stmts[*p_index].summary() {
                        self.remove_record(summary);
                    }
                }
                PlanOp::Fresh { q_index, pre_index } => {
                    let record = self.visit_stmt(stmts[*q_index], None, *pre_index)?;
                    records.push(Arc::new(record));
                }
                PlanOp::SkipRun(run) => {
                    // Static pre-pruning: the plan proved these statements
                    // outside the impact slice, so their inputs cannot be
                    // dirty — share them without scanning their read
                    // sets, and replay only the writes a later step can
                    // read. Bit-identical to skipping them one by one (the
                    // dirty scan consumes no RNG, and no write left out is
                    // ever read).
                    let shared = &old_block.stmts[run.p_start..run.p_start + run.len];
                    for &k in &run.replay {
                        self.replay(&shared[k], run.live_only)?;
                    }
                    records.extend(shared.iter().cloned());
                    let stats = &mut self.tally.stats;
                    stats.nodes_skipped += run.len as u64;
                    stats.static_skips += run.len as u64;
                    stats.loop_skips += run.loops as u64;
                }
                PlanOp::Stmt {
                    q_index,
                    p_index,
                    unchanged,
                    pre_index,
                    detail,
                } => {
                    // Compiled blocks are index-aligned with the AST
                    // blocks the plan was built from.
                    let old = &old_block.stmts[*p_index];
                    let rec: &'a StmtRecord = old;
                    // Skip when nothing changed and no dirty inputs (the
                    // diff half of the check is precomputed in the plan).
                    let clean = rec.summary().is_none_or(|s| !self.any_dirty(&s.reads));
                    if *unchanged && clean {
                        self.skip_record(rec)?;
                        // O(1) subtree sharing.
                        records.push(Arc::clone(old));
                        continue;
                    }
                    let record =
                        self.visit_stmt(stmts[*q_index], Some((detail, rec)), *pre_index)?;
                    records.push(Arc::new(record));
                }
            }
        }
        Ok(records)
    }

    /// Walks a block that has no old record, straight from its compiled
    /// statements; `start` is the pre-order index of its first statement.
    fn fresh_block(
        &mut self,
        block: CBlockId,
        start: usize,
    ) -> Result<Vec<Arc<StmtRecord>>, PplError> {
        let prog = self.prog;
        let stmts = &prog.block(block).stmts;
        let mut records = Vec::with_capacity(stmts.len());
        let mut pre_index = start;
        for &stmt in stmts {
            let record = self.visit_stmt(stmt, None, pre_index)?;
            records.push(Arc::new(record));
            pre_index = self.pre_end(pre_index, 1);
        }
        Ok(records)
    }

    /// Executes one statement — against its plan and old record when it
    /// has one, fresh otherwise — and counts the visit.
    fn visit_stmt(
        &mut self,
        stmt: CStmtId,
        old: Option<(&'a PlanStmt, &'a StmtRecord)>,
        pre_index: usize,
    ) -> Result<StmtRecord, PplError> {
        self.tally.charge(1)?;
        self.tally.stats.nodes_visited += 1;
        if let Some(oracle) = &mut self.oracle {
            oracle.visited.insert(pre_index);
        }
        let old_rec = old.map(|(_, rec)| rec);
        let prog = self.prog;
        match prog.stmt(stmt) {
            CStmt::Skip => Ok(StmtRecord::Skip),
            CStmt::Assign { slot, name, expr } => {
                let (slot, name, expr) = (*slot, *name, *expr);
                let mut summary = Summary::default();
                let value = self.eval(expr, &mut summary)?;
                let old_final = old_rec.and_then(final_var_value(name));
                let dirty = old_final.is_none_or(|old| !value.num_eq(old));
                self.frame.bind(slot, value.clone(), dirty);
                summary.effects.push(Effect::Var(name, value));
                Ok(StmtRecord::Leaf { summary })
            }
            CStmt::AssignIndex {
                slot,
                name,
                index,
                expr,
            } => {
                let (slot, name, index, expr) = (*slot, *name, *index, *expr);
                let mut summary = Summary::default();
                let i = self.eval(index, &mut summary)?.as_int()?;
                let value = self.eval(expr, &mut summary)?;
                // Element assignment reads the array (it preserves the
                // other elements).
                summary.reads.insert(name);
                let old_elem = old_rec.and_then(|r| {
                    r.summary().and_then(|s| {
                        s.effects.iter().find_map(|e| match e {
                            Effect::Elem(n, j, v) if *n == name && *j == i => Some(v),
                            _ => None,
                        })
                    })
                });
                let changed = old_elem.is_none_or(|old| !value.num_eq(old));
                let s = self
                    .frame
                    .get_mut(slot)
                    .ok_or_else(|| PplError::UnboundVariable(name.to_string()))?;
                let items = s.value.as_array_mut()?;
                if i < 0 || i as usize >= items.len() {
                    return Err(PplError::IndexOutOfBounds {
                        index: i,
                        len: items.len(),
                    });
                }
                items[i as usize] = value.clone();
                s.dirty = s.dirty || changed;
                summary.effects.push(Effect::Elem(name, i, value));
                Ok(StmtRecord::Leaf { summary })
            }
            CStmt::Observe { rand, value } => {
                let value_e = *value;
                self.tally.stats.observes_rescored += 1;
                let mut summary = Summary::default();
                let dist = self.eval_dist(&rand.kind, &mut summary)?;
                let value = self.eval(value_e, &mut summary)?;
                let addr = self.frame.address_for(&rand.site);
                let log_prob = dist.log_prob(&value);
                // Numerator: the observation under Q.
                self.tally.log_num += log_prob;
                // Denominator: the matched old observation, if any.
                if let Some(old_summary) = old_rec.and_then(StmtRecord::summary) {
                    self.tally.log_den += old_summary.obs_score;
                }
                summary.obs_score += log_prob;
                summary.observations.push((
                    addr,
                    ObsData {
                        value,
                        dist,
                        log_prob,
                    },
                ));
                Ok(StmtRecord::Leaf { summary })
            }
            CStmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let (cond, then_b, else_b) = (*cond, *then_b, *else_b);
                let plans = match old {
                    Some((
                        PlanStmt::If {
                            then_plan,
                            else_plan,
                        },
                        rec,
                    )) => Some((then_plan, else_plan, rec)),
                    Some(_) => return Err(plan_shape_mismatch("if")),
                    None => None,
                };
                let mut summary = Summary::default();
                let took_then = self.eval(cond, &mut summary)?.truthy()?;
                let branch = if took_then { then_b } else { else_b };
                let old_branch = match plans {
                    Some((
                        then_plan,
                        else_plan,
                        StmtRecord::If {
                            took_then: old_took,
                            body,
                            ..
                        },
                    )) => {
                        if *old_took == took_then {
                            Some((if took_then { then_plan } else { else_plan }, &**body))
                        } else {
                            // The branch flipped: the old branch is removed
                            // and the new branch runs fresh.
                            self.remove_record(&body.summary);
                            None
                        }
                    }
                    _ => None,
                };
                let start = if took_then {
                    pre_index + 1
                } else {
                    self.pre_end(pre_index + 1, prog.block(then_b).stmts.len())
                };
                let body = self.walk_block(branch, old_branch, start)?;
                summary.reads.extend(body.summary.reads.iter());
                summary.effects.extend(body.summary.effects.iter().cloned());
                summary.obs_score += body.summary.obs_score;
                if let Some(old_summary) = old_rec.and_then(StmtRecord::summary) {
                    self.reconcile_writes(old_summary);
                }
                Ok(StmtRecord::If {
                    took_then,
                    body: Arc::new(body),
                    summary,
                })
            }
            CStmt::For {
                slot,
                name,
                lo,
                hi,
                body,
            } => {
                let (slot, var_name, lo_e, hi_e, body) = (*slot, *name, *lo, *hi, *body);
                // The body plan, whether an iteration with clean inputs
                // may be skipped, and the old loop's bounds and iterations.
                let (body_plan, body_unchanged, old_for) = match old {
                    Some((
                        PlanStmt::For {
                            body: plan,
                            body_unchanged,
                        },
                        rec,
                    )) => {
                        let old_for: Option<(i64, i64, &'a [Arc<BlockRecord>])> = match rec {
                            StmtRecord::For { lo, hi, iters, .. } => Some((*lo, *hi, iters)),
                            _ => None,
                        };
                        (Some(plan), *body_unchanged, old_for)
                    }
                    Some(_) => return Err(plan_shape_mismatch("for")),
                    None => (None, false, None),
                };
                let mut summary = Summary::default();
                let lo = self.eval(lo_e, &mut summary)?.as_int()?;
                let hi = self.eval(hi_e, &mut summary)?.as_int()?;
                // Every visited iteration costs a tick, so a loop runs out
                // of fuel within `DEFAULT_FUEL` iterations; reserving more
                // would only let huge bounds allocate before the budget
                // fails.
                let trip = hi.saturating_sub(lo).clamp(0, DEFAULT_FUEL as i64);
                let mut iters = Vec::with_capacity(trip as usize);
                let mut written: BTreeSet<&'static str> = BTreeSet::new();
                written.insert(var_name);
                for i in lo..hi {
                    self.frame.bind(slot, Value::Int(i), false);
                    let old_iter: Option<&'a Arc<BlockRecord>> =
                        old_for.and_then(|(old_lo, old_hi, old_iters)| {
                            if old_lo <= i && i < old_hi {
                                old_iters.get((i - old_lo) as usize)
                            } else {
                                None
                            }
                        });
                    let iter = match old_iter {
                        Some(old) if body_unchanged && !self.any_dirty(&old.summary.reads) => {
                            // Skip the whole iteration and share its record.
                            apply_effects(self.prog, self.frame, &old.summary.effects, false)?;
                            self.tally.stats.nodes_skipped += 1;
                            self.tally.stats.iter_skips += 1;
                            Arc::clone(old)
                        }
                        _ => {
                            self.tally.charge(1)?;
                            self.tally.stats.nodes_visited += 1;
                            self.frame.push_loop(i);
                            let old_body = old_iter.map(|b| &**b);
                            let result =
                                self.walk_block(body, body_plan.zip(old_body), pre_index + 1);
                            self.frame.pop_loop();
                            Arc::new(result?)
                        }
                    };
                    // Def-before-use across iterations: a read satisfied
                    // by an earlier iteration's write is loop-internal.
                    let iter_sum = &iter.summary;
                    summary
                        .reads
                        .extend(iter_sum.reads.iter().filter(|r| !written.contains(r)));
                    summary.obs_score += iter_sum.obs_score;
                    for effect in &iter_sum.effects {
                        written.insert(effect.var_name());
                    }
                    iters.push(iter);
                }
                // Old iterations beyond the new bounds were removed.
                if let Some((old_lo, old_hi, old_iters)) = old_for {
                    for i in old_lo..old_hi {
                        if i < lo || i >= hi {
                            self.remove_record(&old_iters[(i - old_lo) as usize].summary);
                        }
                    }
                }
                // Compress effects into one final snapshot per written
                // variable (O(1) each thanks to Arc-backed arrays).
                for name in &written {
                    if let Some(slot) = prog.slot_of(name) {
                        if let Some(s) = self.frame.get(slot) {
                            summary.effects.push(Effect::Var(name, s.value.clone()));
                        }
                    }
                }
                // The loop variable itself is loop-internal; reading it
                // within the body does not create an external dependency.
                summary.reads.remove(var_name);
                if let Some(old_summary) = old_rec.and_then(StmtRecord::summary) {
                    self.reconcile_writes(old_summary);
                }
                Ok(StmtRecord::For {
                    lo,
                    hi,
                    iters,
                    summary,
                })
            }
            CStmt::While { cond, body } => {
                let (cond_e, body) = (*cond, *body);
                // The body plan, whether an iteration with clean inputs
                // may be skipped, and the old loop's iterations.
                let (body_plan, iter_skippable, old_iters) = match old {
                    Some((
                        PlanStmt::While {
                            body: plan,
                            iter_skippable,
                        },
                        rec,
                    )) => {
                        let old_iters: Option<&'a [WhileIter]> = match rec {
                            StmtRecord::While { iters, .. } => Some(iters),
                            _ => None,
                        };
                        (Some(plan), *iter_skippable, old_iters)
                    }
                    Some(_) => return Err(plan_shape_mismatch("while")),
                    None => (None, false, None),
                };
                let mut summary = Summary::default();
                let mut iters: Vec<WhileIter> = Vec::new();
                let mut written: BTreeSet<&'static str> = BTreeSet::new();
                let mut i = 0_i64;
                loop {
                    let old_iter = old_iters.and_then(|v| v.get(i as usize));
                    // Skip the iteration wholesale when nothing can have
                    // changed (same code, clean inputs).
                    if let Some(old_iter) = old_iter {
                        let clean =
                            iter_skippable && !any_dirty(self.prog, self.frame, old_iter.reads());
                        if clean {
                            if let Some(b) = &old_iter.body {
                                apply_effects(self.prog, self.frame, &b.summary.effects, false)?;
                            }
                            self.tally.stats.nodes_skipped += 1;
                            self.tally.stats.iter_skips += 1;
                            summary
                                .reads
                                .extend(old_iter.reads().filter(|r| !written.contains(r)));
                            summary.obs_score += old_iter.obs_score();
                            for effect in old_iter.body.iter().flat_map(|b| &b.summary.effects) {
                                written.insert(effect.var_name());
                            }
                            let continued = old_iter.continued;
                            iters.push(old_iter.clone());
                            if !continued {
                                break;
                            }
                            i += 1;
                            continue;
                        }
                    }
                    // Visit: re-evaluate the condition (reusing choices
                    // through the correspondence) and, when it holds, the
                    // body against the matched old records.
                    self.tally.stats.nodes_visited += 1;
                    self.frame.push_loop(i);
                    let mut cond_sum = Summary::default();
                    let continued = self.eval(cond_e, &mut cond_sum).and_then(|v| v.truthy());
                    let continued = match continued {
                        Ok(b) => b,
                        Err(e) => {
                            self.frame.pop_loop();
                            return Err(e);
                        }
                    };
                    summary
                        .reads
                        .extend(cond_sum.reads.iter().filter(|r| !written.contains(r)));
                    summary.obs_score += cond_sum.obs_score;
                    if !continued {
                        self.frame.pop_loop();
                        iters.push(WhileIter {
                            cond: cond_sum,
                            continued: false,
                            body: None,
                        });
                        // The old iteration at this index may have had a
                        // body that no longer runs.
                        if let Some(b) = old_iter.and_then(|it| it.body.as_ref()) {
                            self.remove_record(&b.summary);
                        }
                        break;
                    }
                    let old_body = old_iter.and_then(|it| it.body.as_deref());
                    let body_result = self.walk_block(body, body_plan.zip(old_body), pre_index + 1);
                    self.frame.pop_loop();
                    let body_rec = body_result?;
                    summary.reads.extend(
                        body_rec
                            .summary
                            .reads
                            .iter()
                            .filter(|r| !written.contains(r)),
                    );
                    summary.obs_score += body_rec.summary.obs_score;
                    for effect in &body_rec.summary.effects {
                        written.insert(effect.var_name());
                    }
                    iters.push(WhileIter {
                        cond: cond_sum,
                        continued: true,
                        body: Some(Arc::new(body_rec)),
                    });
                    i += 1;
                }
                // Old iterations beyond the new termination point were
                // removed entirely.
                if let Some(old_iters) = old_iters {
                    for old_iter in old_iters.iter().skip(iters.len()) {
                        self.tally.log_den += old_iter.obs_score();
                        if let Some(b) = &old_iter.body {
                            self.reconcile_writes(&b.summary);
                        }
                    }
                }
                for name in &written {
                    if let Some(slot) = prog.slot_of(name) {
                        if let Some(s) = self.frame.get(slot) {
                            summary.effects.push(Effect::Var(name, s.value.clone()));
                        }
                    }
                }
                if let Some(old_summary) = old_rec.and_then(StmtRecord::summary) {
                    self.reconcile_writes(old_summary);
                }
                Ok(StmtRecord::While { iters, summary })
            }
        }
    }
}

/// Extracts the old final value of `name` from a record's summary.
fn final_var_value(name: &str) -> impl Fn(&StmtRecord) -> Option<&Value> + '_ {
    move |record: &StmtRecord| {
        record.summary().and_then(|s| {
            s.effects.iter().rev().find_map(|e| match e {
                Effect::Var(n, v) if *n == name => Some(v),
                _ => None,
            })
        })
    }
}

/// A [`StagePlan`] node's shape disagreed with the statement it was
/// paired with — only possible if a plan built for a different edit is
/// passed to [`translate_graph_with_plan`].
fn plan_shape_mismatch(at: &str) -> PplError {
    PplError::Other(format!(
        "stage plan does not match the target program (at `{at}` statement)"
    ))
}

/// The slice-soundness check: every dynamically visited statement must
/// lie inside the static impact slice. A violation is a bug in the
/// static analysis (or an unsound skip rule) and produces a structured
/// report naming each escaping statement of `q`.
fn verify_visited_in_slice(
    visited: &BTreeSet<usize>,
    plan: &StagePlan,
    q: &Program,
) -> Result<(), PplError> {
    let impact = plan.impact();
    let violations: Vec<usize> = visited
        .iter()
        .copied()
        .filter(|i| !impact.contains(*i))
        .collect();
    if violations.is_empty() {
        return Ok(());
    }
    let stmts = preorder(q);
    let mut report = format!(
        "slice-soundness violation: {} dynamically visited statement(s) \
         outside the static impact slice ({} impacted of {} total)",
        violations.len(),
        impact.impacted_count(),
        impact.total(),
    );
    for i in violations {
        let detail = stmts
            .get(i)
            .map(|stmt| {
                let depth = plan.effects().stmt(i).depth;
                format!("`{}` (depth {depth})", stmt_label(stmt))
            })
            .unwrap_or_else(|| "<unknown statement>".to_string());
        report.push_str(&format!("\n  - statement #{i}: {detail}"));
    }
    Err(PplError::Other(report))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Instant;

    use incremental::{
        exact_weight_estimate, FailureKind, FailurePolicy, ParticleCollection, SmcConfig, SmcError,
        StagePolicy, StateTranslator, TranslateCtx,
    };
    use ppl::ast::Program;
    use ppl::handlers::simulate;
    use ppl::{parse, PplError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::{translate, IncrementalResult};
    use crate::diff::diff_programs;
    use crate::plan::StagePlan;
    use crate::{run_edit_sequence_supervised, ExecGraph, IncrementalTranslator};

    /// `n` iterations of a loop whose iterations cost 201 fuel ticks: one
    /// for the iteration, one for the statement, two for `i * (…)` and
    /// 197 for the constant sum, which the compiler folds into one node
    /// charged in one step.
    fn heavy_loop(n: u64) -> String {
        let sum = vec!["1"; 99].join(" + ");
        format!("for i in [0..{n}) {{ y = i * ({sum}); }}")
    }

    /// The largest `n` for which `heavy_loop(n); return 0;` fits the
    /// default budget: the loop statement and its bounds cost 3 ticks,
    /// the return expression 1.
    const HEAVY_LOOP_MAX: u64 = (ppl::interp::DEFAULT_FUEL - 4) / 201;

    /// A graph build charges what `Interp::run` charges, so the two accept
    /// and reject the same iteration counts.
    #[test]
    fn graph_builds_run_out_of_fuel_where_the_interpreter_does() {
        let run = |n: u64| {
            let program = parse(&format!("{} return 0;", heavy_loop(n))).unwrap();
            let interp = simulate(&program, &mut StdRng::seed_from_u64(0));
            let graph = ExecGraph::simulate(&program, &mut StdRng::seed_from_u64(0));
            (interp.map(|_| ()), graph.map(|_| ()))
        };
        let (interp, graph) = run(HEAVY_LOOP_MAX);
        assert!(interp.is_ok() && graph.is_ok(), "{interp:?} {graph:?}");
        let (interp, graph) = run(HEAVY_LOOP_MAX + 1);
        for err in [interp.unwrap_err(), graph.unwrap_err()] {
            assert!(matches!(err, PplError::FuelExhausted { .. }), "{err}");
        }
    }

    /// An edit that inserts a loop past the budget fails the particle with
    /// a typed fuel error instead of running the loop to completion.
    #[test]
    fn inserting_an_overlong_loop_fails_the_particle() {
        let obs = "observe(flip(x ? 0.6 : 0.4) @ o == 1); return x;";
        let p = parse(&format!("x = flip(0.5) @ x; {obs}")).unwrap();
        let q = parse(&format!(
            "x = flip(0.5) @ x; {} {obs}",
            heavy_loop(HEAVY_LOOP_MAX + 1)
        ))
        .unwrap();
        let initial =
            ParticleCollection::from_traces([simulate(&p, &mut StdRng::seed_from_u64(1)).unwrap()]);
        let err = run_edit_sequence_supervised(
            &[p, q],
            &initial,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            7,
            1,
            None,
        )
        .unwrap_err();
        match err {
            SmcError::Particle(failure) => assert!(
                matches!(
                    failure.kind,
                    FailureKind::Error(PplError::FuelExhausted { .. })
                ),
                "{failure}"
            ),
            other => panic!("expected a particle failure, got {other}"),
        }
    }

    /// A walk past its deadline stops at its next fuel charge, long before
    /// an inserted 10^9-iteration loop would run out of fuel.
    #[test]
    fn a_passed_deadline_stops_the_walk_before_its_fuel_runs_out() {
        let obs = "observe(flip(x ? 0.6 : 0.4) @ o == 1); return x;";
        let p = parse(&format!("x = flip(0.5) @ x; {obs}")).unwrap();
        let q = parse(&format!(
            "x = flip(0.5) @ x; {} {obs}",
            heavy_loop(1_000_000_000)
        ))
        .unwrap();
        let graph = Arc::new(ExecGraph::simulate(&p, &mut StdRng::seed_from_u64(1)).unwrap());
        let translator = IncrementalTranslator::from_edit(p, q);
        let ctx = TranslateCtx {
            deadline: Some(Instant::now()),
            ..TranslateCtx::new(0, 0)
        };
        let err = translator
            .translate_state(&graph, ctx, &mut StdRng::seed_from_u64(2))
            .unwrap_err();
        assert_eq!(err, PplError::DeadlineExceeded);
    }

    /// One link `p → q` translated under the slice-soundness oracle, with
    /// the stage's plan and with a plan whose skip runs replay every write
    /// (what skipping statements one by one did): the two must agree bit
    /// for bit, and the weight must match the exact Section 5 estimate.
    fn assert_replay_rule_holds(p: &Arc<Program>, q: &Arc<Program>, old: &ExecGraph) -> ExecGraph {
        let edit = diff_programs(p, q);
        let run = |plan: &StagePlan| -> IncrementalResult {
            let mut rng = StdRng::seed_from_u64(5);
            translate(q, &edit, plan, old, None, true, &mut rng)
                .unwrap_or_else(|e| panic!("translating to\n{q:?}\nfailed: {e}"))
        };
        let got = run(&StagePlan::new(q, p, &edit));
        let want = run(&StagePlan::replaying_every_write(q, p, &edit));
        assert!(got.stats.static_skips > 0, "the edit skips statically");
        assert_eq!(got.stats, want.stats);
        assert_eq!(
            got.log_weight.log().to_bits(),
            want.log_weight.log().to_bits()
        );
        assert_eq!(got.graph.choice_map(), want.graph.choice_map());
        assert_eq!(got.graph.return_value, want.graph.return_value);
        let (t, u) = (old.to_trace().unwrap(), got.graph.to_trace().unwrap());
        let exact = exact_weight_estimate(&**p, &**q, &edit.correspondence, &t, &u).unwrap();
        assert!(
            (got.log_weight.log() - exact.log()).abs() < 1e-9,
            "incremental {} vs exact {}",
            got.log_weight.log(),
            exact.log()
        );
        got.graph
    }

    /// Translates a simulated graph of the first program along the chain.
    fn assert_chain_replays(sources: &[String]) {
        let programs: Vec<Arc<Program>> = sources
            .iter()
            .map(|src| Arc::new(parse(src).unwrap()))
            .collect();
        for seed in 0..8 {
            let mut graph =
                ExecGraph::simulate(&programs[0], &mut StdRng::seed_from_u64(seed)).unwrap();
            for pair in programs.windows(2) {
                graph = assert_replay_rule_holds(&pair[0], &pair[1], &graph);
            }
        }
    }

    /// The strength of the one edited observation in the replay cases.
    fn obs(strength: &str) -> String {
        format!("flip(x ? {strength}) @ o == 1")
    }

    /// A statically skipped write stays visible to a later visited
    /// statement: `a` is written twice by skipped statements, so dropping
    /// either write changes the visited observation's likelihood.
    #[test]
    fn skipped_writes_reach_a_later_visited_statement() {
        let src = |s: &str| {
            format!(
                "a = 1; a = a + 2; x = flip(0.5) @ x; c = 7;
                 observe(flip(a > 2 ? {s}) @ o == x); return c;"
            )
        };
        assert_chain_replays(&[src("0.9 : 0.1"), src("0.8 : 0.2")]);
    }

    /// ... and to the return expression, which only `s` reaches.
    #[test]
    fn skipped_writes_reach_the_return_expression() {
        let src = |s: &str| {
            format!(
                "r = flip(0.3) @ r; s = r + 1; x = flip(0.5) @ x;
                 observe({}); return s * 2;",
                obs(s)
            )
        };
        assert_chain_replays(&[src("0.9 : 0.1"), src("0.8 : 0.2")]);
    }

    /// ... and to a visited `if` condition and the branch it flips to,
    /// which runs fresh and reads `v`.
    #[test]
    fn skipped_writes_reach_a_flipped_branch() {
        let src = |cond: &str| {
            format!(
                "c = 1; w = 5; v = 7; x = flip(0.5) @ x;
                 if {cond} {{ y = w; }} else {{ y = v + flip(0.5) @ z; }}
                 observe(flip(y > 6 ? 0.9 : 0.1) @ o == x); return y;"
            )
        };
        assert_chain_replays(&[src("c > 0"), src("c < 1"), src("c > 0")]);
    }

    /// Inside a loop body every write is replayed: the next iteration's
    /// visited observation reads `t`, and the loop's effect snapshot keeps
    /// `z`, which nothing reads until a later edit inserts a reader.
    #[test]
    fn skipped_writes_reach_the_next_iteration_and_the_loop_snapshot() {
        let src = |s: &str, tail: &str| {
            format!(
                "t = 0; x = 1;
                 for i in [0..3) {{ observe(flip(t > 0 ? {s}) @ o == 1); t = t + 2; z = t * 3; }}
                 {tail} return t;"
            )
        };
        assert_chain_replays(&[
            src("0.8 : 0.3", ""),
            src("0.7 : 0.4", ""),
            src("0.7 : 0.4", "observe(flip(z > 10 ? 0.9 : 0.2) @ q == 1);"),
        ]);
    }

    /// ... and to a visited read of an array that skipped element writes
    /// built.
    #[test]
    fn skipped_element_writes_reach_a_visited_array_read() {
        let src = |s: &str| {
            format!(
                "b = array(3, 0); b[0] = 4; b[2] = flip(0.5) @ e; k = 1;
                 observe(flip(b[0] + b[2] > 4 ? {s}) @ o == 1); return k;"
            )
        };
        assert_chain_replays(&[src("0.9 : 0.1"), src("0.8 : 0.2")]);
    }

    /// A skipped `if` writes both `b[0]`, an array nothing later reads, and
    /// `v`, which the visited observation reads. Its record is replayed for
    /// `v`, but `b` was never defined in the frame (its definition is not
    /// live), so replaying the whole record would fail with
    /// `UnboundVariable("b")`: the filter must drop the element write.
    #[test]
    fn skip_runs_filter_writes_per_effect() {
        let src = |s: &str| {
            format!(
                "b = array(2, 0); c = 1; v = 1;
                 if c > 0 {{ b[0] = 1; v = 2; }} else {{ v = 3; }}
                 observe(flip(v > 1 ? {s}) @ o == 1); return c;"
            )
        };
        assert_chain_replays(&[src("0.8 : 0.2"), src("0.7 : 0.3")]);
    }
}
