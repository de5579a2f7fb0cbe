//! Static diff-impact slicing: from a structural diff to a
//! [`ChangeSeed`] and an over-approximate [`ImpactSet`].
//!
//! [`ppl::analysis`] owns the generic machinery (effect inference and the
//! impact fixpoint over an abstract change seed); this module supplies
//! the missing link — walking a [`ProgramEdit`]'s [`BlockDiff`] in
//! lockstep with the new program's AST and the old program's AST to
//! classify every new-program statement ([`ChangeKind`]) and collect the
//! old-program writes that go stale (removed or replaced statements whose
//! final values the propagation runtime re-derives as dirty).
//!
//! The derived [`ImpactSet`] is what [`crate::plan::StagePlan`] bakes
//! into its static skip runs and what the `--verify-slices` oracle
//! checks dynamic visits against.

use ppl::analysis::{
    impact, infer_effects, stmt_effects, ChangeKind, ChangeSeed, ImpactSet, ProgramEffects,
};
use ppl::ast::{Block, Program, Stmt};

use crate::diff::{BlockDiff, DiffOp, ProgramEdit, StmtDiff};

/// Classifies every statement of `q` under the edit `p → q` and collects
/// the stale old-program writes, producing the seed for
/// [`ppl::analysis::impact`]. `effects` must be [`infer_effects`]`(q)`.
pub fn change_seed(
    q: &Program,
    p: &Program,
    edit: &ProgramEdit,
    effects: &ProgramEffects,
) -> ChangeSeed {
    let mut seed = ChangeSeed::identity(effects.len());
    walk_block(q.body(), 0, p.body(), &edit.diff, effects, &mut seed);
    seed
}

/// Convenience entry: effect inference + seed derivation + impact
/// fixpoint for the edit `p → q`.
pub fn impact_of_edit(q: &Program, p: &Program, edit: &ProgramEdit) -> (ProgramEffects, ImpactSet) {
    let effects = infer_effects(q);
    let seed = change_seed(q, p, edit, &effects);
    let set = impact(&effects, &seed);
    (effects, set)
}

/// Marks the whole pre-order subtree rooted at `i` as [`ChangeKind::Changed`].
fn mark_subtree_changed(effects: &ProgramEffects, i: usize, seed: &mut ChangeSeed) {
    for kind in &mut seed.kinds[i..effects.stmts[i].end] {
        *kind = ChangeKind::Changed;
    }
}

/// Adds the (transitive) writes of an old-program statement to the stale
/// set: the runtime reconciles its recorded final values as dirty when
/// the statement is removed or replaced.
fn stale_from(p_stmt: &Stmt, seed: &mut ChangeSeed) {
    seed.stale_writes.extend(stmt_effects(p_stmt).writes);
}

fn walk_block(
    q_block: &Block,
    start: usize,
    p_block: &Block,
    diff: &BlockDiff,
    effects: &ProgramEffects,
    seed: &mut ChangeSeed,
) {
    let indices = effects.block_child_indices(start, q_block.stmts().len());
    for op in &diff.ops {
        match op {
            DiffOp::RemovedP(p_index) => {
                if let Some(p_stmt) = p_block.stmts().get(*p_index) {
                    stale_from(p_stmt, seed);
                }
            }
            DiffOp::Stmt {
                q_index,
                p_index,
                diff,
            } => {
                let i = indices[*q_index];
                let q_stmt = &q_block.stmts()[*q_index];
                let p_stmt = p_index.and_then(|pi| p_block.stmts().get(pi));
                walk_stmt(q_stmt, i, p_stmt, diff, effects, seed);
            }
        }
    }
}

fn walk_stmt(
    q_stmt: &Stmt,
    i: usize,
    p_stmt: Option<&Stmt>,
    diff: &StmtDiff,
    effects: &ProgramEffects,
    seed: &mut ChangeSeed,
) {
    if diff.is_unchanged() && p_stmt.is_some() {
        return;
    }
    match (q_stmt, p_stmt, diff) {
        (
            Stmt::If(_, then_b, else_b),
            Some(Stmt::If(_, p_then, p_else)),
            StmtDiff::IfDiff {
                cond_changed,
                then_diff,
                else_diff,
            },
        ) => {
            if *cond_changed {
                // A changed condition can flip the branch: either branch
                // could run fresh, and the old branch's writes go stale.
                mark_subtree_changed(effects, i, seed);
                if let Some(p_stmt) = p_stmt {
                    stale_from(p_stmt, seed);
                }
            } else {
                seed.kinds[i] = ChangeKind::Inner;
                let then_start = i + 1;
                let else_start = block_end(effects, then_start, then_b.stmts().len());
                walk_block(then_b, then_start, p_then, then_diff, effects, seed);
                walk_block(else_b, else_start, p_else, else_diff, effects, seed);
            }
        }
        (
            Stmt::For(_, _, _, body),
            Some(Stmt::For(_, _, _, p_body)),
            StmtDiff::ForDiff {
                bounds_changed,
                body_diff,
            },
        ) => {
            if *bounds_changed {
                mark_subtree_changed(effects, i, seed);
                if let Some(p_stmt) = p_stmt {
                    stale_from(p_stmt, seed);
                }
            } else {
                seed.kinds[i] = ChangeKind::Inner;
                walk_block(body, i + 1, p_body, body_diff, effects, seed);
            }
        }
        (
            Stmt::While(_, body),
            Some(Stmt::While(_, p_body)),
            StmtDiff::WhileDiff {
                cond_changed,
                body_diff,
            },
        ) => {
            if *cond_changed {
                mark_subtree_changed(effects, i, seed);
                if let Some(p_stmt) = p_stmt {
                    stale_from(p_stmt, seed);
                }
            } else {
                // The impact fixpoint already treats a `while` with any
                // inner edit as wholly re-executable; the `Inner` mark
                // just records where the edit sits.
                seed.kinds[i] = ChangeKind::Inner;
                walk_block(body, i + 1, p_body, body_diff, effects, seed);
            }
        }
        _ => {
            // Edited leaf, fresh statement (no old counterpart), or a
            // shape disagreement between diff and AST (conservative).
            mark_subtree_changed(effects, i, seed);
            if let Some(p_stmt) = p_stmt {
                stale_from(p_stmt, seed);
            }
        }
    }
}

/// One past the last pre-order index of a run of `count` sibling
/// statements starting at `start`.
fn block_end(effects: &ProgramEffects, start: usize, count: usize) -> usize {
    let mut i = start;
    for _ in 0..count {
        i = effects.stmts[i].end;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_programs;
    use ppl::parse;

    fn seed_for(p_src: &str, q_src: &str) -> (ProgramEffects, ChangeSeed) {
        let p = parse(p_src).unwrap();
        let q = parse(q_src).unwrap();
        let edit = diff_programs(&p, &q);
        let effects = infer_effects(&q);
        let seed = change_seed(&q, &p, &edit, &effects);
        (effects, seed)
    }

    #[test]
    fn identity_edit_is_all_unchanged() {
        let src = "a = 1; if a > 0 { b = 2; } else { c = 3; } return a;";
        let (effects, seed) = seed_for(src, src);
        assert!(seed.kinds.iter().all(|k| *k == ChangeKind::Unchanged));
        assert!(seed.stale_writes.is_empty());
        let set = impact(&effects, &seed);
        assert!(set.impacted.is_empty());
    }

    #[test]
    fn edited_leaf_is_changed_and_stales_its_old_write() {
        let (_, seed) = seed_for("a = 1; b = 2; return b;", "a = 1; b = 3; return b;");
        assert_eq!(seed.kinds[0], ChangeKind::Unchanged);
        assert_eq!(seed.kinds[1], ChangeKind::Changed);
        assert!(seed.stale_writes.contains("b"));
    }

    #[test]
    fn removed_statement_stales_its_writes() {
        let (effects, seed) = seed_for(
            "a = 1; tmp = 9; b = a + 1; return b;",
            "a = 1; b = a + 1; return b;",
        );
        assert!(seed.stale_writes.contains("tmp"));
        assert!(seed.kinds.iter().all(|k| *k == ChangeKind::Unchanged));
        // No q statement reads tmp, so nothing is impacted.
        let set = impact(&effects, &seed);
        assert!(set.impacted.is_empty());
    }

    #[test]
    fn renamed_assignment_stales_the_old_name() {
        let (effects, seed) =
            seed_for("x = 1; y = x + 1; return y;", "z = 1; y = z + 1; return y;");
        // `x = 1` was replaced by `z = 1`: x's old value is stale.
        assert!(seed.stale_writes.contains("x"));
        let set = impact(&effects, &seed);
        assert!(set.contains(0) && set.contains(1));
    }

    #[test]
    fn inner_if_edit_marks_the_path_only() {
        let (effects, seed) = seed_for(
            "p = 1; if p > 0 { x = 1; y = 2; } else { skip; } return p;",
            "p = 1; if p > 0 { x = 7; y = 2; } else { skip; } return p;",
        );
        assert_eq!(seed.kinds[0], ChangeKind::Unchanged);
        assert_eq!(seed.kinds[1], ChangeKind::Inner);
        assert_eq!(seed.kinds[2], ChangeKind::Changed); // x = 7
        assert_eq!(seed.kinds[3], ChangeKind::Unchanged); // y = 2
        let set = impact(&effects, &seed);
        assert!(set.skippable(3), "sibling inside the branch stays clean");
        assert!(set.skippable(0));
    }

    #[test]
    fn changed_condition_spreads_and_stales_old_branch_writes() {
        let (effects, seed) = seed_for(
            "p = 1; if p > 0 { x = 1; } else { y = 2; } z = x + 0; return z;",
            "p = 1; if p > 1 { x = 1; } else { y = 2; } z = x + 0; return z;",
        );
        assert_eq!(seed.kinds[1], ChangeKind::Changed);
        assert_eq!(seed.kinds[2], ChangeKind::Changed);
        assert_eq!(seed.kinds[3], ChangeKind::Changed);
        assert!(seed.stale_writes.contains("x") && seed.stale_writes.contains("y"));
        let set = impact(&effects, &seed);
        assert!(set.contains(4), "z reads possibly-dirty x");
    }

    #[test]
    fn loop_bounds_edit_marks_the_loop_changed() {
        let (effects, seed) = seed_for(
            "xs = array(5, 0); for i in [0..3) { xs[i] = 1; } return xs;",
            "xs = array(5, 0); for i in [0..5) { xs[i] = 1; } return xs;",
        );
        assert_eq!(seed.kinds[1], ChangeKind::Changed);
        assert_eq!(seed.kinds[2], ChangeKind::Changed);
        let set = impact(&effects, &seed);
        assert!(set.contains(1) && set.contains(2));
        assert!(set.skippable(0));
    }

    #[test]
    fn impact_of_edit_is_the_composed_pipeline() {
        let p = parse("a = flip(0.5) @ a; b = a + 1; c = 7; return b;").unwrap();
        let q = parse("a = flip(0.9) @ a; b = a + 1; c = 7; return b;").unwrap();
        let edit = diff_programs(&p, &q);
        let (effects, set) = impact_of_edit(&q, &p, &edit);
        assert_eq!(effects.len(), 3);
        assert!(set.contains(0) && set.contains(1));
        assert!(set.skippable(2));
        assert!(set.sites.contains("a"));
    }
}
