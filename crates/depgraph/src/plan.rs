//! Translation plans shared by every particle of a stage.
//!
//! A [`StagePlan`] hoists everything about one edit `p → q` that is
//! invariant across particles out of the per-particle propagation loop:
//!
//! - every `StmtDiff::is_unchanged()` / `BlockDiff::is_unchanged()`
//!   decision, which the propagator would otherwise recompute (a full
//!   subtree walk) once per statement per particle per skip check;
//! - the edit's static impact slice, which marks the statements the
//!   propagator may skip without consulting dirty bits; each maximal run
//!   of them in a block becomes one [`PlanOp::SkipRun`], which shares the
//!   run's old records and replays only the writes a later step can read
//!   (see [`SkipRun`]).
//!
//! The plan is built once per stage by
//! [`IncrementalTranslator::from_shared`](crate::IncrementalTranslator::from_shared)
//! and shared immutably (`Arc`) by every particle task. Walking a plan is
//! semantically identical to walking the diff — the propagator's output
//! (graph, weight, and RNG consumption) is bit-for-bit the same.
//!
//! A plan covers only statements matched to an old statement. A statement
//! with no old counterpart is a [`PlanOp::Fresh`] leaf carrying its
//! pre-order index: the propagator walks it, and everything under it,
//! straight from the compiled program, as it walks a flipped branch or an
//! unmatched loop iteration.

use std::sync::Arc;

use ppl::analysis::{ImpactSet, ProgramEffects};
use ppl::ast::{Block, Program, Stmt};
use ppl::compile::{CompiledProgram, SlotId};

use crate::diff::{BlockDiff, DiffOp, ProgramEdit, StmtDiff};
use crate::impact::{impact_of_edit, EditImpact};

/// Per-stage immutable translation plan; see the module docs.
#[derive(Debug)]
pub struct StagePlan {
    root: PlanBlock,
    /// The compiled form of `q` whose slot universe also covers `p`'s
    /// variables (old records replay `p`-named effects into the frame).
    /// Compiled once per stage and shared by every particle task: this
    /// `Arc` and those of the stage's graphs keep it exactly as long as
    /// they live.
    compiled: Arc<CompiledProgram>,
    /// Static effect facts for `q` on the slots of `compiled`, in
    /// pre-order (the indexing used by [`PlanOp::Stmt::pre_index`]).
    effects: ProgramEffects,
    /// The static impact slice of the edit: unchanged statements outside
    /// it are proven skippable and pre-pruned into [`PlanOp::SkipRun`]s;
    /// the `--verify-slices` oracle checks dynamic visits against it.
    impact: ImpactSet,
    /// The stage's live set, one flag per slot of `compiled`: the
    /// variables a step outside a loop body may read after a skip run
    /// wrote them (see [`live_set`]). A skip run outside loops replays
    /// only its writes of these.
    live: Vec<bool>,
}

/// Plan for one block: mirrors [`BlockDiff`] with the per-op decisions
/// precomputed.
#[derive(Debug)]
pub(crate) struct PlanBlock {
    pub(crate) ops: Vec<PlanOp>,
}

/// Plan for one diff op.
#[derive(Debug)]
pub(crate) enum PlanOp {
    /// An old statement removed by the edit (its observations enter the
    /// weight denominator).
    RemovedP(usize),
    /// A statement of `q` with no old counterpart: walked fresh.
    Fresh {
        /// Index into the block's statements.
        q_index: usize,
        /// Pre-order index of the statement in `q`.
        pre_index: usize,
    },
    /// A maximal run of consecutive statements of `q` that are statically
    /// proven skippable: matched, unchanged *and* outside the edit's
    /// [`ImpactSet`], so the propagator shares their old records without
    /// consulting runtime dirty bits.
    SkipRun(SkipRun),
    /// A statement of `q` matched to an old statement and not statically
    /// skipped.
    Stmt {
        /// Index into the block's statements.
        q_index: usize,
        /// Index of the matching old statement.
        p_index: usize,
        /// Precomputed `StmtDiff::is_unchanged()` — the skip-eligibility
        /// half of the propagator's per-statement check.
        unchanged: bool,
        /// Pre-order index of the statement in `q` (the indexing of
        /// [`ppl::analysis::ProgramEffects`]).
        pre_index: usize,
        /// Control-structure sub-plans.
        detail: PlanStmt,
    },
}

/// A run of statically skipped statements, walked in one step: the
/// propagator clones the run's record pointers from the old block, adds
/// the run's skip counts in bulk, and replays the writes of the records
/// listed in `replay` into the frame.
///
/// Which writes are replayed follows from who reads the frame later:
///
/// - *Inside a loop body* (at any depth), every write. The loop's effect
///   snapshot reads the final value of every variable its iterations
///   wrote, and the next iteration reads the frame.
/// - *Outside loops*, only writes of the stage's live set: the static
///   subtree may-reads of every statement the plan does not statically
///   skip, plus the return expression's reads. Every later read of the
///   frame — a visited statement's evaluation, a dirty check of its
///   recorded reads, the return expression — names a live variable, and
///   every write of a live variable is replayed in order, so each live
///   slot ends up exactly as replaying everything would leave it. The
///   filter is per effect: one record may write a live variable and an
///   array nothing reads (whose definition was then never replayed).
#[derive(Debug)]
pub(crate) struct SkipRun {
    /// The run shares the old block's records `p_start..p_start + len`.
    pub(crate) p_start: usize,
    /// Number of statements in the run.
    pub(crate) len: usize,
    /// `for` and `while` statements in the run, each a whole-loop skip.
    pub(crate) loops: usize,
    /// Offsets into the run of the records whose writes are replayed:
    /// those whose statement may write a variable a later step reads.
    pub(crate) replay: Vec<usize>,
    /// Whether a replayed record replays only its writes of live
    /// variables; false inside loop bodies.
    pub(crate) live_only: bool,
}

/// Statement-shape-specific sub-plans.
#[derive(Debug)]
pub(crate) enum PlanStmt {
    /// `skip` / assignment / observe: no sub-blocks.
    Opaque,
    /// `if`: the branch plans of the `IfDiff`, used when the same branch
    /// runs again.
    If {
        then_plan: PlanBlock,
        else_plan: PlanBlock,
    },
    /// `for`: body plan plus the hoisted per-iteration skip eligibility.
    For {
        body: PlanBlock,
        /// Precomputed `body_diff.is_unchanged()`.
        body_unchanged: bool,
    },
    /// `while`: body plan plus the hoisted per-iteration skip
    /// eligibility.
    While {
        body: PlanBlock,
        /// Precomputed `!cond_changed && body_diff.is_unchanged()`.
        iter_skippable: bool,
    },
}

impl StagePlan {
    /// Builds the plan for the edit underlying `edit` from source program
    /// `p` to target program `q`: precomputes the skip decisions and
    /// compiles `q` (with `p`'s variables in the slot universe).
    pub fn new(q: &Program, p: &Program, edit: &ProgramEdit) -> StagePlan {
        Self::build(q, p, edit, false)
    }

    /// [`StagePlan::new`]; with `replay_all`, every skip run replays every
    /// write, as skipping the statements one by one does (the reference
    /// the replay-rule tests compare against).
    fn build(q: &Program, p: &Program, edit: &ProgramEdit, replay_all: bool) -> StagePlan {
        let EditImpact {
            compiled,
            effects,
            impact,
        } = impact_of_edit(q, p, edit);
        let live = live_set(&edit.diff, &effects, &impact, compiled.slot_count());
        let ctx = PlanCtx {
            effects: &effects,
            impact: &impact,
            live: &live,
            replay_all,
        };
        let root = plan_block(q.body(), &edit.diff, 0, false, &ctx);
        StagePlan {
            root,
            compiled,
            effects,
            impact,
            live,
        }
    }

    /// [`StagePlan::new`] with skip runs that replay every write.
    #[cfg(test)]
    pub(crate) fn replaying_every_write(q: &Program, p: &Program, edit: &ProgramEdit) -> StagePlan {
        Self::build(q, p, edit, true)
    }

    /// The root block plan (what the propagator walks).
    pub(crate) fn root(&self) -> &PlanBlock {
        &self.root
    }

    /// Static effect facts for `q` (pre-order indexing).
    pub fn effects(&self) -> &ProgramEffects {
        &self.effects
    }

    /// The static impact slice of the edit.
    pub fn impact(&self) -> &ImpactSet {
        &self.impact
    }

    /// The stage's compiled program (slot universe covers `p` and `q`),
    /// compiled by this plan alone.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// The live set as one flag per slot of [`StagePlan::compiled`].
    pub(crate) fn live(&self) -> &[bool] {
        &self.live
    }
}

/// Static context threaded through plan construction: the pre-order
/// effect facts of `q`, the edit's impact slice and the stage's live set.
struct PlanCtx<'a> {
    effects: &'a ProgramEffects,
    impact: &'a ImpactSet,
    live: &'a [bool],
    /// Make every skip run replay every write (see [`StagePlan::build`]).
    replay_all: bool,
}

/// The plan's static-skip rule: a matched statement is skipped without
/// dirty checks when it is unchanged and outside the impact slice.
fn statically_skipped(unchanged: bool, pre_index: usize, impact: &ImpactSet) -> bool {
    unchanged && impact.skippable(pre_index)
}

/// The stage's live set, one flag per slot: the static subtree may-reads
/// of every top-level statement the plan does not statically skip, plus
/// the return expression's reads. A subtree's reads cover every step the
/// walk takes inside it, so these are all the variables the walk may read
/// from the frame outside a loop body.
fn live_set(
    diff: &BlockDiff,
    effects: &ProgramEffects,
    impact: &ImpactSet,
    slots: usize,
) -> Vec<bool> {
    let mut live = vec![false; slots];
    let mut flag = |reads: &[SlotId]| {
        for slot in reads {
            live[slot.index()] = true;
        }
    };
    flag(effects.ret_reads());
    let mut pre_indices = effects.siblings(0);
    for op in &diff.ops {
        if let DiffOp::Stmt { p_index, diff, .. } = op {
            let pre_index = pre_indices.next().expect("a pre-order index per statement");
            if p_index.is_none() || !statically_skipped(diff.is_unchanged(), pre_index, impact) {
                flag(effects.subtree_reads(pre_index));
            }
        }
    }
    live
}

/// Mirrors the propagator's `(stmt, diff)` dispatch, merging each maximal
/// run of statically skipped statements into one [`PlanOp::SkipRun`].
/// `start` is the pre-order index of the block's first statement, and
/// `in_loop` whether the block lies inside a loop body.
fn plan_block(
    block: &Block,
    diff: &BlockDiff,
    start: usize,
    in_loop: bool,
    ctx: &PlanCtx<'_>,
) -> PlanBlock {
    let mut ops = Vec::new();
    let mut run: Option<SkipRun> = None;
    // The ops list the block's statements in order.
    let mut pre_indices = ctx.effects.siblings(start);
    let mut pre_index_of_next = || pre_indices.next().expect("a pre-order index per statement");
    for op in &diff.ops {
        let planned = match op {
            DiffOp::RemovedP(p_index) => PlanOp::RemovedP(*p_index),
            DiffOp::Stmt {
                q_index,
                p_index: None,
                ..
            } => PlanOp::Fresh {
                q_index: *q_index,
                pre_index: pre_index_of_next(),
            },
            DiffOp::Stmt {
                q_index,
                p_index: Some(p_index),
                diff,
            } => {
                let (q_index, p_index) = (*q_index, *p_index);
                let pre_index = pre_index_of_next();
                let stmt = &block.stmts()[q_index];
                let unchanged = diff.is_unchanged();
                if statically_skipped(unchanged, pre_index, ctx.impact) {
                    // A run shares a contiguous slice of the old block.
                    if let Some(done) = run.take_if(|r| r.p_start + r.len != p_index) {
                        ops.push(PlanOp::SkipRun(done));
                    }
                    let run = run.get_or_insert_with(|| SkipRun {
                        p_start: p_index,
                        len: 0,
                        loops: 0,
                        replay: Vec::new(),
                        live_only: !in_loop && !ctx.replay_all,
                    });
                    if ctx.replays(pre_index, run.live_only) {
                        run.replay.push(run.len);
                    }
                    if matches!(stmt, Stmt::For(..) | Stmt::While(..)) {
                        run.loops += 1;
                    }
                    run.len += 1;
                    continue;
                }
                PlanOp::Stmt {
                    q_index,
                    p_index,
                    unchanged,
                    pre_index,
                    detail: plan_stmt(stmt, diff, pre_index, in_loop, ctx),
                }
            }
        };
        ops.extend(run.take().map(PlanOp::SkipRun));
        ops.push(planned);
    }
    ops.extend(run.map(PlanOp::SkipRun));
    PlanBlock { ops }
}

impl PlanCtx<'_> {
    /// Whether a skip run replays the record of the statement at
    /// `pre_index`: when the statement may write anything at all, or with
    /// `live_only`, anything live.
    fn replays(&self, pre_index: usize, live_only: bool) -> bool {
        let writes = self.effects.subtree_writes(pre_index);
        if live_only {
            writes.iter().any(|w| self.live[w.index()])
        } else {
            !writes.is_empty()
        }
    }
}

fn plan_stmt(
    stmt: &Stmt,
    diff: &StmtDiff,
    pre_index: usize,
    in_loop: bool,
    ctx: &PlanCtx<'_>,
) -> PlanStmt {
    match (stmt, diff) {
        (
            Stmt::If(_, then_b, else_b),
            StmtDiff::IfDiff {
                then_diff,
                else_diff,
                ..
            },
        ) => {
            let then_start = pre_index + 1;
            let else_start = ctx.effects.block_end(then_start, then_b.stmts().len());
            PlanStmt::If {
                then_plan: plan_block(then_b, then_diff, then_start, in_loop, ctx),
                else_plan: plan_block(else_b, else_diff, else_start, in_loop, ctx),
            }
        }
        (Stmt::For(_, _, _, body), StmtDiff::ForDiff { body_diff, .. }) => PlanStmt::For {
            body: plan_block(body, body_diff, pre_index + 1, true, ctx),
            body_unchanged: body_diff.is_unchanged(),
        },
        (
            Stmt::While(_, body),
            StmtDiff::WhileDiff {
                cond_changed,
                body_diff,
            },
        ) => PlanStmt::While {
            body: plan_block(body, body_diff, pre_index + 1, true, ctx),
            iter_skippable: !cond_changed && body_diff.is_unchanged(),
        },
        _ => PlanStmt::Opaque,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_programs;
    use ppl::parse;

    #[test]
    fn plan_mirrors_diff_shape() {
        let p = parse("x = flip(0.5); if x { y = gauss(0.0, 1.0); } else { y = 0.0; } return y;")
            .unwrap();
        let q = parse("x = flip(0.6); if x { y = gauss(0.0, 1.0); } else { y = 0.0; } return y;")
            .unwrap();
        let edit = diff_programs(&p, &q);
        let plan = StagePlan::new(&q, &p, &edit);
        assert_eq!(plan.root().ops.len(), edit.diff.ops.len());
        for (op, diff_op) in plan.root().ops.iter().zip(&edit.diff.ops) {
            if let (PlanOp::Stmt { unchanged, .. }, DiffOp::Stmt { diff, .. }) = (op, diff_op) {
                assert_eq!(*unchanged, diff.is_unchanged());
            }
        }
    }

    #[test]
    fn unmatched_statements_are_fresh_leaves() {
        let p = parse("a = 1; return a;").unwrap();
        let q = parse("a = 1; for i in [0..2) { b = flip(0.5); } return a;").unwrap();
        let edit = diff_programs(&p, &q);
        let plan = StagePlan::new(&q, &p, &edit);
        assert!(matches!(
            plan.root().ops[1],
            PlanOp::Fresh {
                q_index: 1,
                pre_index: 1
            }
        ));
    }

    /// The pre-order indices of a plan's walked statements, and the old
    /// ranges of its skip runs.
    fn walked_and_runs(ops: &[PlanOp]) -> (Vec<usize>, Vec<(usize, usize)>) {
        let walked = ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::Stmt { pre_index, .. } | PlanOp::Fresh { pre_index, .. } => {
                    Some(*pre_index)
                }
                PlanOp::RemovedP(_) | PlanOp::SkipRun(_) => None,
            })
            .collect();
        let runs = ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::SkipRun(run) => Some((run.p_start, run.len)),
                _ => None,
            })
            .collect();
        (walked, runs)
    }

    #[test]
    fn static_skip_marks_unaffected_statements() {
        let p = parse("a = 1; b = a + 1; c = 7; observe(flip(0.5) @ o == c); return b;").unwrap();
        let q = parse("a = 2; b = a + 1; c = 7; observe(flip(0.5) @ o == c); return b;").unwrap();
        let edit = diff_programs(&p, &q);
        let plan = StagePlan::new(&q, &p, &edit);
        // a (edited) and b (reads a) are impacted and walked; c and the
        // observe (old statements 2 and 3) are statically skippable and
        // form one run.
        let (walked, runs) = walked_and_runs(&plan.root().ops);
        assert_eq!(walked, vec![0, 1]);
        assert_eq!(runs, vec![(2, 2)]);
        assert_eq!(plan.impact().skippable_count(), 2);
        assert_eq!(plan.effects().len(), 4);
        // The live set is what the walked statements and the return read.
        let live: Vec<&str> = ["a", "b", "c"]
            .into_iter()
            .filter(|name| plan.live()[plan.compiled().slot_of(name).unwrap().index()])
            .collect();
        assert_eq!(live, ["a", "b"]);
    }

    /// Outside loops a run replays only records that may write a live
    /// variable; inside a loop body it replays every record that writes.
    #[test]
    fn skip_runs_replay_what_a_later_step_can_read() {
        let program = |s: &str| {
            parse(&format!(
                "a = 1; c = 7; d = c + 1; for j in [0..2) {{ g = j; }}
                 observe(flip({s}) @ o == a);
                 for i in [0..2) {{ e = i; f = 2; observe(flip({s}) @ l == e); }}
                 return d;"
            ))
            .unwrap()
        };
        let (p, q) = (program("0.5"), program("0.6"));
        let edit = diff_programs(&p, &q);
        let plan = StagePlan::new(&q, &p, &edit);
        let ops = &plan.root().ops;
        let PlanOp::SkipRun(root_run) = &ops[0] else {
            panic!("expected a skip run, got {:?}", ops[0]);
        };
        // a (read by the visited observe) and d (read by the return) are
        // live; c is read only by the skipped d, and the loop writes only
        // j and g.
        assert_eq!((root_run.p_start, root_run.len, root_run.loops), (0, 4, 1));
        assert_eq!(root_run.replay, vec![0, 2]);
        assert!(root_run.live_only);
        let PlanOp::Stmt {
            detail: PlanStmt::For { body, .. },
            ..
        } = &ops[2]
        else {
            panic!("expected the edited loop, got {:?}", ops[2]);
        };
        // e reads the rebound loop variable, so only f is skipped, and
        // replayed although nothing reads it.
        let (walked, runs) = walked_and_runs(&body.ops);
        assert_eq!(walked, vec![7, 9]);
        assert_eq!(runs, vec![(1, 1)]);
        let PlanOp::SkipRun(body_run) = &body.ops[1] else {
            panic!("expected a skip run");
        };
        assert_eq!(body_run.replay, vec![0]);
        assert!(!body_run.live_only);
    }

    #[test]
    fn nested_pre_indices_follow_pre_order() {
        // Editing p reaches both branches, so no statement is skipped.
        let p = parse("p = 1; if p > 0 { x = 1; y = 2; } else { z = 3; } return p;").unwrap();
        let q =
            parse("p = 2; if p > 0 { x = 1; w = 0; y = 2; } else { z = 3; } return p;").unwrap();
        let edit = diff_programs(&p, &q);
        let plan = StagePlan::new(&q, &p, &edit);
        let PlanOp::Stmt { detail, .. } = &plan.root().ops[1] else {
            panic!("expected a statement op");
        };
        let PlanStmt::If {
            then_plan,
            else_plan,
        } = detail
        else {
            panic!("expected an if plan");
        };
        assert_eq!(walked_and_runs(&then_plan.ops), (vec![2, 3, 4], vec![]));
        assert_eq!(walked_and_runs(&else_plan.ops), (vec![5], vec![]));
    }
}
