//! Static diff-impact slicing: from a structural diff to a
//! [`ChangeSeed`] and an over-approximate [`ImpactSet`].
//!
//! [`ppl::analysis`] owns the generic machinery (effect facts on frame
//! slots and the impact fixpoint over an abstract change seed); this
//! module supplies the missing link — walking a [`ProgramEdit`]'s
//! [`BlockDiff`] in lockstep with the new program's AST and the old
//! program's AST to classify every new-program statement ([`ChangeKind`])
//! and flag the slots of old-program writes that go stale (removed or
//! replaced statements whose final values the propagation runtime
//! re-derives as dirty).
//!
//! The derived [`ImpactSet`] is what [`crate::plan::StagePlan`] bakes
//! into its static skip runs and what the `--verify-slices` oracle
//! checks dynamic visits against.

use std::sync::Arc;

use ppl::analysis::{for_each_write, impact, ChangeKind, ChangeSeed, ImpactSet, ProgramEffects};
use ppl::ast::{Block, Program, Stmt};
use ppl::compile::{compiled_for_pair, CompiledProgram};

use crate::diff::{BlockDiff, DiffOp, ProgramEdit, StmtDiff};

/// The static view of one edit `p → q`: the stage's pair compile, the
/// effect facts its lowering gathered for `q`, and the impact slice.
#[derive(Debug)]
pub struct EditImpact {
    /// `q` compiled with every variable of `p` in its slot universe.
    pub compiled: Arc<CompiledProgram>,
    /// `q`'s effect facts, keyed by `compiled`'s slots.
    pub effects: ProgramEffects,
    /// The edit's impact slice.
    pub impact: ImpactSet,
}

/// Classifies every statement of `q` under the edit `p → q` and flags the
/// stale old-program writes, producing the seed for
/// [`ppl::analysis::impact`]. `effects` must be `q`'s facts on the slots
/// of `compiled`, whose slot universe covers `p`'s variables.
pub fn change_seed(
    q: &Program,
    p: &Program,
    edit: &ProgramEdit,
    effects: &ProgramEffects,
    compiled: &CompiledProgram,
) -> ChangeSeed {
    let mut cx = SeedCx {
        effects,
        compiled,
        seed: ChangeSeed::identity(effects.len(), compiled.slot_count()),
    };
    cx.block(q.body(), 0, p.body(), &edit.diff);
    cx.seed
}

/// The whole static pipeline for the edit `p → q`: the pair compile with
/// its effect facts, the change seed, and the impact fixpoint.
pub fn impact_of_edit(q: &Program, p: &Program, edit: &ProgramEdit) -> EditImpact {
    let (compiled, effects) = compiled_for_pair(q, p);
    let seed = change_seed(q, p, edit, &effects, &compiled);
    let impact = impact(&effects, &seed);
    EditImpact {
        compiled,
        effects,
        impact,
    }
}

/// What the seed walk reads and the seed it fills in.
struct SeedCx<'a> {
    effects: &'a ProgramEffects,
    compiled: &'a CompiledProgram,
    seed: ChangeSeed,
}

impl SeedCx<'_> {
    /// Marks the whole pre-order subtree rooted at `i` as
    /// [`ChangeKind::Changed`].
    fn mark_subtree_changed(&mut self, i: usize) {
        self.seed.kinds[i..self.effects.stmt(i).end].fill(ChangeKind::Changed);
    }

    /// Flags the (transitive) writes of an old-program statement as
    /// stale: the runtime reconciles its recorded final values as dirty
    /// when the statement is removed or replaced.
    fn stale_from(&mut self, p_stmt: &Stmt) {
        let (compiled, stale) = (self.compiled, &mut self.seed.stale_writes);
        for_each_write(p_stmt, &mut |name| {
            let slot = compiled
                .slot_of(name)
                .expect("the pair compile gives every variable of p a slot");
            stale[slot.index()] = true;
        });
    }

    /// Walks a block's diff ops, which list `q`'s statements in order;
    /// `start` is the pre-order index of the block's first statement.
    fn block(&mut self, q_block: &Block, start: usize, p_block: &Block, diff: &BlockDiff) {
        let effects = self.effects;
        let mut pre_indices = effects.siblings(start);
        for op in &diff.ops {
            match op {
                DiffOp::RemovedP(p_index) => {
                    if let Some(p_stmt) = p_block.stmts().get(*p_index) {
                        self.stale_from(p_stmt);
                    }
                }
                DiffOp::Stmt {
                    q_index,
                    p_index,
                    diff,
                } => {
                    let i = pre_indices.next().expect("a pre-order index per statement");
                    let q_stmt = &q_block.stmts()[*q_index];
                    let p_stmt = p_index.and_then(|pi| p_block.stmts().get(pi));
                    self.stmt(q_stmt, i, p_stmt, diff);
                }
            }
        }
    }

    fn stmt(&mut self, q_stmt: &Stmt, i: usize, p_stmt: Option<&Stmt>, diff: &StmtDiff) {
        if diff.is_unchanged() && p_stmt.is_some() {
            return;
        }
        match (q_stmt, p_stmt, diff) {
            (
                Stmt::If(_, then_b, else_b),
                Some(Stmt::If(_, p_then, p_else)),
                StmtDiff::IfDiff {
                    cond_changed: false,
                    then_diff,
                    else_diff,
                },
            ) => {
                self.seed.kinds[i] = ChangeKind::Inner;
                let then_start = i + 1;
                let else_start = self.effects.block_end(then_start, then_b.stmts().len());
                self.block(then_b, then_start, p_then, then_diff);
                self.block(else_b, else_start, p_else, else_diff);
            }
            (
                Stmt::For(_, _, _, body),
                Some(Stmt::For(_, _, _, p_body)),
                StmtDiff::ForDiff {
                    bounds_changed: false,
                    body_diff,
                },
            )
            | (
                Stmt::While(_, body),
                Some(Stmt::While(_, p_body)),
                // The impact fixpoint already treats a `while` with any
                // inner edit as wholly re-executable; the `Inner` mark
                // just records where the edit sits.
                StmtDiff::WhileDiff {
                    cond_changed: false,
                    body_diff,
                },
            ) => {
                self.seed.kinds[i] = ChangeKind::Inner;
                self.block(body, i + 1, p_body, body_diff);
            }
            _ => {
                // Edited leaf; a changed condition or bounds, which can
                // flip the branch or change the iteration count so that
                // anything inside could run fresh; a fresh statement (no
                // old counterpart); or a shape disagreement between diff
                // and AST (conservative). The old statement's writes go
                // stale.
                self.mark_subtree_changed(i);
                if let Some(p_stmt) = p_stmt {
                    self.stale_from(p_stmt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_programs;
    use ppl::parse;

    /// The pair compile, facts and seed of the edit `p_src → q_src`.
    struct Seeded {
        compiled: Arc<CompiledProgram>,
        effects: ProgramEffects,
        seed: ChangeSeed,
    }

    impl Seeded {
        fn stale(&self, name: &str) -> bool {
            self.seed.stale_writes[self.compiled.slot_of(name).unwrap().index()]
        }

        fn impact(&self) -> ImpactSet {
            impact(&self.effects, &self.seed)
        }
    }

    fn seed_for(p_src: &str, q_src: &str) -> Seeded {
        let p = parse(p_src).unwrap();
        let q = parse(q_src).unwrap();
        let edit = diff_programs(&p, &q);
        let (compiled, effects) = compiled_for_pair(&q, &p);
        let seed = change_seed(&q, &p, &edit, &effects, &compiled);
        Seeded {
            compiled,
            effects,
            seed,
        }
    }

    #[test]
    fn identity_edit_is_all_unchanged() {
        let src = "a = 1; if a > 0 { b = 2; } else { c = 3; } return a;";
        let s = seed_for(src, src);
        assert!(s.seed.kinds.iter().all(|k| *k == ChangeKind::Unchanged));
        assert!(!s.seed.stale_writes.contains(&true));
        assert_eq!(s.impact().impacted_count(), 0);
    }

    #[test]
    fn edited_leaf_is_changed_and_stales_its_old_write() {
        let s = seed_for("a = 1; b = 2; return b;", "a = 1; b = 3; return b;");
        assert_eq!(s.seed.kinds[0], ChangeKind::Unchanged);
        assert_eq!(s.seed.kinds[1], ChangeKind::Changed);
        assert!(s.stale("b"));
    }

    #[test]
    fn removed_statement_stales_its_writes() {
        let s = seed_for(
            "a = 1; tmp = 9; b = a + 1; return b;",
            "a = 1; b = a + 1; return b;",
        );
        assert!(s.stale("tmp"));
        assert!(s.seed.kinds.iter().all(|k| *k == ChangeKind::Unchanged));
        // No q statement reads tmp, so nothing is impacted.
        assert_eq!(s.impact().impacted_count(), 0);
    }

    #[test]
    fn renamed_assignment_stales_the_old_name() {
        let s = seed_for("x = 1; y = x + 1; return y;", "z = 1; y = z + 1; return y;");
        // `x = 1` was replaced by `z = 1`: x's old value is stale.
        assert!(s.stale("x"));
        let set = s.impact();
        assert!(set.contains(0) && set.contains(1));
    }

    #[test]
    fn inner_if_edit_marks_the_path_only() {
        let s = seed_for(
            "p = 1; if p > 0 { x = 1; y = 2; } else { skip; } return p;",
            "p = 1; if p > 0 { x = 7; y = 2; } else { skip; } return p;",
        );
        assert_eq!(s.seed.kinds[0], ChangeKind::Unchanged);
        assert_eq!(s.seed.kinds[1], ChangeKind::Inner);
        assert_eq!(s.seed.kinds[2], ChangeKind::Changed); // x = 7
        assert_eq!(s.seed.kinds[3], ChangeKind::Unchanged); // y = 2
        let set = s.impact();
        assert!(set.skippable(3), "sibling inside the branch stays clean");
        assert!(set.skippable(0));
    }

    #[test]
    fn changed_condition_spreads_and_stales_old_branch_writes() {
        let s = seed_for(
            "p = 1; if p > 0 { x = 1; } else { y = 2; } z = x + 0; return z;",
            "p = 1; if p > 1 { x = 1; } else { y = 2; } z = x + 0; return z;",
        );
        assert_eq!(s.seed.kinds[1], ChangeKind::Changed);
        assert_eq!(s.seed.kinds[2], ChangeKind::Changed);
        assert_eq!(s.seed.kinds[3], ChangeKind::Changed);
        assert!(s.stale("x") && s.stale("y"));
        assert!(s.impact().contains(4), "z reads possibly-dirty x");
    }

    #[test]
    fn loop_bounds_edit_marks_the_loop_changed() {
        let s = seed_for(
            "xs = array(5, 0); for i in [0..3) { xs[i] = 1; } return xs;",
            "xs = array(5, 0); for i in [0..5) { xs[i] = 1; } return xs;",
        );
        assert_eq!(s.seed.kinds[1], ChangeKind::Changed);
        assert_eq!(s.seed.kinds[2], ChangeKind::Changed);
        let set = s.impact();
        assert!(set.contains(1) && set.contains(2));
        assert!(set.skippable(0));
    }

    #[test]
    fn impact_of_edit_is_the_composed_pipeline() {
        let p = parse("a = flip(0.5) @ a; b = a + 1; c = 7; return b;").unwrap();
        let q = parse("a = flip(0.9) @ a; b = a + 1; c = 7; return b;").unwrap();
        let edit = diff_programs(&p, &q);
        let EditImpact {
            effects, impact, ..
        } = impact_of_edit(&q, &p, &edit);
        assert_eq!(effects.len(), 3);
        assert!(impact.contains(0) && impact.contains(1));
        assert!(impact.skippable(2));
        let stmts = ppl::analysis::preorder(&q);
        assert!(impact.sites(&stmts).contains("a"));
    }
}
