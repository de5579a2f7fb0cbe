//! Translation plans shared by every particle of a stage.
//!
//! A [`StagePlan`] hoists everything about one edit `p → q` that is
//! invariant across particles out of the per-particle propagation loop:
//!
//! - every `StmtDiff::is_unchanged()` / `BlockDiff::is_unchanged()`
//!   decision, which the propagator would otherwise recompute (a full
//!   subtree walk) once per statement per particle per skip check;
//! - the edit's static impact slice, which marks the statements the
//!   propagator may skip without consulting dirty bits;
//! - the interned base addresses of every random site in `q`, with the
//!   [`Correspondence`](incremental::Correspondence) memo cache pre-warmed
//!   so the per-particle `lookup_id` calls take the shared read path.
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
use ppl::compile::{compiled_for_pair, CompiledProgram};
use ppl::Address;

use crate::diff::{BlockDiff, DiffOp, ProgramEdit, StmtDiff};
use crate::impact::impact_of_edit;

/// Per-stage immutable translation plan; see the module docs.
#[derive(Debug)]
pub struct StagePlan {
    root: PlanBlock,
    /// Interned depth-0 addresses of `q`'s random sites (loop-indexed
    /// instances extend these and are memoized on first use).
    sites: Vec<Address>,
    /// The compiled form of `q` whose slot universe also covers `p`'s
    /// variables (old records replay `p`-named effects into the frame).
    /// Compiled once per stage and shared by every particle task: this
    /// `Arc` and those of the stage's graphs keep it exactly as long as
    /// they live.
    compiled: Arc<CompiledProgram>,
    /// Static effect facts for `q`, in pre-order (the indexing used by
    /// [`PlanOp::Stmt::pre_index`]).
    effects: ProgramEffects,
    /// The static impact slice of the edit: statements outside it are
    /// proven skippable and pre-pruned via [`PlanOp::Stmt::static_skip`];
    /// the `--verify-slices` oracle checks dynamic visits against it.
    impact: ImpactSet,
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
    /// A statement of `q` matched to an old statement.
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
        /// Statically proven skippable: unchanged *and* outside the
        /// edit's [`ImpactSet`], so the propagator may skip without
        /// consulting runtime dirty bits.
        static_skip: bool,
        /// Control-structure sub-plans.
        detail: PlanStmt,
    },
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
    /// `p` to target program `q`: precomputes the skip decisions, compiles
    /// `q` (with `p`'s variables in the slot universe), and pre-warms the
    /// correspondence memo cache with the interned base address of every
    /// random site in `q`.
    pub fn new(q: &Program, p: &Program, edit: &ProgramEdit) -> StagePlan {
        let compiled = compiled_for_pair(q, p);
        let (effects, impact) = impact_of_edit(q, p, edit);
        let ctx = PlanCtx {
            effects: &effects,
            impact: &impact,
        };
        let root = plan_block(q.body(), &edit.diff, 0, &ctx);
        let mut names: Vec<Arc<str>> = q.sites().into_iter().map(|site| site.0).collect();
        names.sort_unstable();
        names.dedup();
        let sites: Vec<Address> = names
            .into_iter()
            .map(|name| Address::from_components([name.into()]))
            .collect();
        for addr in &sites {
            // Interns the address and memoizes the (possibly negative)
            // correspondence lookup; per-particle lookups then take the
            // shared read path.
            let _ = edit.correspondence.lookup_id(addr.id());
        }
        StagePlan {
            root,
            sites,
            compiled,
            effects,
            impact,
        }
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

    /// Number of distinct random sites in `q` (interned at plan build).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The stage's compiled program (slot universe covers `p` and `q`),
    /// compiled by this plan alone.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }
}

/// Static context threaded through plan construction: the pre-order
/// effect facts of `q` and the edit's impact slice.
struct PlanCtx<'a> {
    effects: &'a ProgramEffects,
    impact: &'a ImpactSet,
}

/// Mirrors the propagator's `(stmt, diff)` dispatch. `start` is the
/// pre-order index of the block's first statement.
fn plan_block(block: &Block, diff: &BlockDiff, start: usize, ctx: &PlanCtx<'_>) -> PlanBlock {
    let indices = ctx.effects.block_child_indices(start, block.stmts().len());
    let ops = diff
        .ops
        .iter()
        .map(|op| match op {
            DiffOp::RemovedP(p_index) => PlanOp::RemovedP(*p_index),
            DiffOp::Stmt {
                q_index,
                p_index: None,
                ..
            } => PlanOp::Fresh {
                q_index: *q_index,
                pre_index: indices[*q_index],
            },
            DiffOp::Stmt {
                q_index,
                p_index: Some(p_index),
                diff,
            } => {
                let pre_index = indices[*q_index];
                let unchanged = diff.is_unchanged();
                PlanOp::Stmt {
                    q_index: *q_index,
                    p_index: *p_index,
                    unchanged,
                    pre_index,
                    // Sound pre-pruning: unchanged statements outside the
                    // impact slice are skippable without dirty checks.
                    static_skip: unchanged && ctx.impact.skippable(pre_index),
                    detail: plan_stmt(&block.stmts()[*q_index], diff, pre_index, ctx),
                }
            }
        })
        .collect();
    PlanBlock { ops }
}

fn plan_stmt(stmt: &Stmt, diff: &StmtDiff, pre_index: usize, ctx: &PlanCtx<'_>) -> PlanStmt {
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
                then_plan: plan_block(then_b, then_diff, then_start, ctx),
                else_plan: plan_block(else_b, else_diff, else_start, ctx),
            }
        }
        (Stmt::For(_, _, _, body), StmtDiff::ForDiff { body_diff, .. }) => PlanStmt::For {
            body: plan_block(body, body_diff, pre_index + 1, ctx),
            body_unchanged: body_diff.is_unchanged(),
        },
        (
            Stmt::While(_, body),
            StmtDiff::WhileDiff {
                cond_changed,
                body_diff,
            },
        ) => PlanStmt::While {
            body: plan_block(body, body_diff, pre_index + 1, ctx),
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
        // Both random sites of q are interned and pre-warmed.
        assert_eq!(plan.site_count(), 2);
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

    #[test]
    fn static_skip_marks_unaffected_statements() {
        let p = parse("a = 1; b = a + 1; c = 7; observe(flip(0.5) @ o == c); return b;").unwrap();
        let q = parse("a = 2; b = a + 1; c = 7; observe(flip(0.5) @ o == c); return b;").unwrap();
        let edit = diff_programs(&p, &q);
        let plan = StagePlan::new(&q, &p, &edit);
        let flags: Vec<(usize, bool)> = plan
            .root()
            .ops
            .iter()
            .filter_map(|op| match op {
                PlanOp::Stmt {
                    pre_index,
                    static_skip,
                    ..
                } => Some((*pre_index, *static_skip)),
                PlanOp::RemovedP(_) | PlanOp::Fresh { .. } => None,
            })
            .collect();
        // a (edited) and b (reads a) are impacted; c and the observe are
        // statically skippable.
        assert_eq!(flags, vec![(0, false), (1, false), (2, true), (3, true)]);
        assert_eq!(plan.impact().skippable_count(), 2);
        assert_eq!(plan.effects().len(), 4);
    }

    #[test]
    fn nested_pre_indices_follow_pre_order() {
        let p = parse("p = 1; if p > 0 { x = 1; y = 2; } else { z = 3; } return p;").unwrap();
        let q =
            parse("p = 1; if p > 0 { x = 1; w = 0; y = 2; } else { z = 3; } return p;").unwrap();
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
        let indices = |b: &PlanBlock| -> Vec<usize> {
            b.ops
                .iter()
                .filter_map(|op| match op {
                    PlanOp::Stmt { pre_index, .. } | PlanOp::Fresh { pre_index, .. } => {
                        Some(*pre_index)
                    }
                    PlanOp::RemovedP(_) => None,
                })
                .collect()
        };
        assert_eq!(indices(then_plan), vec![2, 3, 4]);
        assert_eq!(indices(else_plan), vec![5]);
    }
}
