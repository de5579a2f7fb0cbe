//! Structural diff of two programs, and the derived correspondence.
//!
//! Section 6: "We generate a semantic correspondence automatically from a
//! program edit by assuming that random expressions that correspond
//! syntactically in the two programs also correspond semantically."
//!
//! Statements are aligned block-by-block with a weighted LCS; matched
//! statements are compared *modulo site labels* (two separately parsed
//! programs number their auto-generated sites independently), and random
//! expressions at matching structural positions yield site rules in the
//! [`Correspondence`]. The LCS table covers only the window between a
//! block pair's common prefix and suffix, so a small edit costs one pass
//! over the block, not its square; the alignment is the one the table
//! over the whole block gives.

use incremental::Correspondence;
use ppl::ast::{Block, Expr, Program, RandExpr, RandKind, Stmt};

/// How a matched statement pair differs.
#[derive(Debug, Clone)]
pub enum StmtDiff {
    /// Deep-equal modulo site labels: skippable when no inputs changed.
    Unchanged,
    /// Same shape (kind and target), but sub-expressions differ: must be
    /// re-executed.
    Edited,
    /// Matched `if` statements; branches diff recursively.
    IfDiff {
        /// Whether the conditions differ (modulo sites).
        cond_changed: bool,
        /// Diff of the then-branches.
        then_diff: Box<BlockDiff>,
        /// Diff of the else-branches.
        else_diff: Box<BlockDiff>,
    },
    /// Matched `for` statements; the body diffs recursively.
    ForDiff {
        /// Whether the bound expressions differ (modulo sites).
        bounds_changed: bool,
        /// Diff of the bodies.
        body_diff: Box<BlockDiff>,
    },
    /// Matched `while` statements; the body diffs recursively.
    WhileDiff {
        /// Whether the conditions differ (modulo sites or in site labels).
        cond_changed: bool,
        /// Diff of the bodies.
        body_diff: Box<BlockDiff>,
    },
}

impl StmtDiff {
    /// Whether the whole subtree is unchanged (skippable when clean).
    pub fn is_unchanged(&self) -> bool {
        match self {
            StmtDiff::Unchanged => true,
            StmtDiff::Edited => false,
            StmtDiff::IfDiff {
                cond_changed,
                then_diff,
                else_diff,
            } => !cond_changed && then_diff.is_unchanged() && else_diff.is_unchanged(),
            StmtDiff::ForDiff {
                bounds_changed,
                body_diff,
            } => !bounds_changed && body_diff.is_unchanged(),
            StmtDiff::WhileDiff {
                cond_changed,
                body_diff,
            } => !cond_changed && body_diff.is_unchanged(),
        }
    }
}

/// One entry in a block's diff, in Q-program order (with removals
/// interleaved at their original position).
#[derive(Debug, Clone)]
pub enum DiffOp {
    /// A Q statement, possibly matched to a P statement.
    Stmt {
        /// Index into the Q block.
        q_index: usize,
        /// Index into the P block, when matched.
        p_index: Option<usize>,
        /// How the pair differs (always [`StmtDiff::Edited`]-equivalent
        /// semantics when unmatched — callers treat `p_index: None` as
        /// fresh execution).
        diff: StmtDiff,
    },
    /// A P statement with no counterpart in Q (deleted by the edit).
    RemovedP(usize),
}

/// The diff of two blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockDiff {
    /// Operations in order.
    pub ops: Vec<DiffOp>,
}

impl BlockDiff {
    /// Whether the whole block is unchanged.
    pub fn is_unchanged(&self) -> bool {
        self.ops.iter().all(|op| match op {
            DiffOp::Stmt { p_index, diff, .. } => p_index.is_some() && diff.is_unchanged(),
            DiffOp::RemovedP(_) => false,
        })
    }
}

/// A program edit: the target program `Q`, the structural diff against
/// `P`, and the derived site correspondence (Q sites → P sites).
#[derive(Debug, Clone)]
pub struct ProgramEdit {
    /// The diff of the top-level blocks.
    pub diff: BlockDiff,
    /// The derived semantic correspondence.
    pub correspondence: Correspondence,
}

/// Diffs `p` against `q` and derives the correspondence.
pub fn diff_programs(p: &Program, q: &Program) -> ProgramEdit {
    let mut corr = Correspondence::new();
    let diff = diff_blocks(p.body(), q.body(), false, &mut corr);
    ProgramEdit {
        diff,
        correspondence: corr,
    }
}

/// Alignment score: higher is better; `None` means the pair must not be
/// matched.
fn match_score(p: &Stmt, q: &Stmt) -> Option<u32> {
    if stmt_eq_mod_sites(p, q) {
        return Some(3);
    }
    match (p, q) {
        (Stmt::Assign(a, _), Stmt::Assign(b, _)) if a == b => Some(2),
        (Stmt::AssignIndex(a, _, _), Stmt::AssignIndex(b, _, _)) if a == b => Some(2),
        (Stmt::If(..), Stmt::If(..)) => Some(2),
        (Stmt::While(..), Stmt::While(..)) => Some(2),
        (Stmt::For(a, ..), Stmt::For(b, ..)) if a == b => Some(2),
        (Stmt::Observe(..), Stmt::Observe(..)) => Some(2),
        (Stmt::Assign(..), Stmt::Assign(..)) => Some(1),
        _ => None,
    }
}

/// One step of an alignment of two statement lists, as indices into them.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `ps[i]` is matched to `qs[j]`; with `true`, the two are known to be
    /// equal modulo sites.
    Match(usize, usize, bool),
    /// `ps[i]` has no counterpart.
    Removed(usize),
    /// `qs[j]` has no counterpart.
    Inserted(usize),
}

/// Aligns two blocks and diffs their matched statements front to back
/// (the order decides which of two rules for a duplicated site label
/// lands in `corr`). With `equal`, the blocks are known to be equal
/// modulo sites, so every statement matches its counterpart without
/// another comparison.
fn diff_blocks(p: &Block, q: &Block, equal: bool, corr: &mut Correspondence) -> BlockDiff {
    let (ps, qs) = (p.stmts(), q.stmts());
    let steps = if equal {
        (0..qs.len()).map(|i| Step::Match(i, i, true)).collect()
    } else {
        align_trimmed(ps, qs)
    };
    let ops = steps
        .into_iter()
        .map(|step| match step {
            Step::Match(i, j, equal) => DiffOp::Stmt {
                q_index: j,
                p_index: Some(i),
                diff: diff_stmt(&ps[i], &qs[j], equal, corr),
            },
            Step::Removed(i) => DiffOp::RemovedP(i),
            Step::Inserted(j) => DiffOp::Stmt {
                q_index: j,
                p_index: None,
                diff: StmtDiff::Edited,
            },
        })
        .collect();
    BlockDiff { ops }
}

/// The alignment [`align`] gives `ps` and `qs`, with the table filled only
/// over the window between their common prefix and common suffix (pairs
/// equal modulo sites), so a small edit costs one linear pass.
///
/// It is exact because a pair equal modulo sites scores 3, the most any
/// pair scores. So the whole table's trace-back matches every prefix pair,
/// and inside the window the whole table is the window's table plus 3 per
/// suffix pair, so the trace-back takes the same steps there. The two part
/// only once one side of the window has run out: the whole trace-back then
/// matches the other side's next leftover statement to the first suffix
/// statement if the two are equal modulo sites. When any such leftover
/// is, fewer suffix pairs are trimmed and the check repeats: every
/// shorter suffix is common too, so the argument holds for it, and with
/// none trimmed there is nothing to check. Each retry gives back twice as
/// many suffix pairs as the one before, so the retries together cost a
/// constant factor more than the last window's table.
fn align_trimmed(ps: &[Stmt], qs: &[Stmt]) -> Vec<Step> {
    let prefix = common_len(ps.iter(), qs.iter());
    let (pr, qr) = (&ps[prefix..], &qs[prefix..]);
    let mut suffix = common_len(pr.iter().rev(), qr.iter().rev());
    let mut window = align(&pr[..pr.len() - suffix], &qr[..qr.len() - suffix]);
    let mut untrim = 1;
    while suffix > 0 && runs_into_suffix(&window, pr, qr, suffix) {
        suffix -= untrim.min(suffix);
        untrim *= 2;
        window = align(&pr[..pr.len() - suffix], &qr[..qr.len() - suffix]);
    }
    let (n, m) = (ps.len(), qs.len());
    let mut steps = Vec::with_capacity(prefix + window.len() + suffix);
    steps.extend((0..prefix).map(|i| Step::Match(i, i, true)));
    steps.extend(window.into_iter().map(|step| match step {
        Step::Match(i, j, equal) => Step::Match(prefix + i, prefix + j, equal),
        Step::Removed(i) => Step::Removed(prefix + i),
        Step::Inserted(j) => Step::Inserted(prefix + j),
    }));
    steps.extend((1..=suffix).rev().map(|k| Step::Match(n - k, m - k, true)));
    steps
}

/// Length of the longest run of leading pairs equal modulo sites.
fn common_len<'a>(ps: impl Iterator<Item = &'a Stmt>, qs: impl Iterator<Item = &'a Stmt>) -> usize {
    ps.zip(qs)
        .take_while(|(p, q)| stmt_eq_mod_sites(p, q))
        .count()
}

/// Whether a statement the window's alignment leaves unmatched after one
/// side ran out equals, modulo sites, the other side's first suffix
/// statement. `ps` and `qs` end with the `suffix` common statements; the
/// window is the rest.
fn runs_into_suffix(window: &[Step], ps: &[Stmt], qs: &[Stmt], suffix: usize) -> bool {
    let (p_head, q_head) = (&ps[ps.len() - suffix], &qs[qs.len() - suffix]);
    // The trailing run of one kind of step is exactly what the trace-back
    // emits after the other side ran out.
    let trailing = |step: &Step| match (window.last(), *step) {
        (Some(Step::Inserted(_)), Step::Inserted(j)) => Some(stmt_eq_mod_sites(&qs[j], p_head)),
        (Some(Step::Removed(_)), Step::Removed(i)) => Some(stmt_eq_mod_sites(&ps[i], q_head)),
        _ => None,
    };
    window.iter().rev().map_while(trailing).any(|equal| equal)
}

/// Weighted LCS of two statement lists (Needleman–Wunsch with zero gap
/// penalty), traced back front to back. A match scores 3 exactly when the
/// pair is equal modulo sites, which its step records.
fn align(ps: &[Stmt], qs: &[Stmt]) -> Vec<Step> {
    let (n, m) = (ps.len(), qs.len());
    let width = m + 1;
    let at = |i: usize, j: usize| i * width + j;
    let mut table = vec![0u32; (n + 1) * width];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            let skip = table[at(i + 1, j)].max(table[at(i, j + 1)]);
            let matched = match_score(&ps[i], &qs[j]).map(|s| s + table[at(i + 1, j + 1)]);
            table[at(i, j)] = matched.map_or(skip, |mv| mv.max(skip));
        }
    }
    let mut steps = Vec::with_capacity(n + m);
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        let score = match_score(&ps[i], &qs[j]);
        if score.map(|s| s + table[at(i + 1, j + 1)]) == Some(table[at(i, j)]) {
            steps.push(Step::Match(i, j, score == Some(3)));
            i += 1;
            j += 1;
        } else if table[at(i + 1, j)] >= table[at(i, j + 1)] {
            steps.push(Step::Removed(i));
            i += 1;
        } else {
            steps.push(Step::Inserted(j));
            j += 1;
        }
    }
    steps.extend((i..n).map(Step::Removed));
    steps.extend((j..m).map(Step::Inserted));
    steps
}

/// Diffs a matched statement pair; `equal` says whether the two are
/// already known to be equal modulo sites.
fn diff_stmt(p: &Stmt, q: &Stmt, equal: bool, corr: &mut Correspondence) -> StmtDiff {
    // Parts of a pair equal modulo sites are equal modulo sites too.
    let expr_eq = |a: &Expr, b: &Expr| equal || expr_eq_mod_sites(a, b);
    match (p, q) {
        (Stmt::If(pc, pt, pe), Stmt::If(qc, qt, qe)) => {
            pair_expr_sites(pc, qc, corr);
            StmtDiff::IfDiff {
                cond_changed: !expr_eq(pc, qc) || !exprs_sites_equal(pc, qc),
                then_diff: Box::new(diff_blocks(pt, qt, equal, corr)),
                else_diff: Box::new(diff_blocks(pe, qe, equal, corr)),
            }
        }
        (Stmt::While(pc, pb), Stmt::While(qc, qb)) => {
            pair_expr_sites(pc, qc, corr);
            StmtDiff::WhileDiff {
                cond_changed: !expr_eq(pc, qc) || !exprs_sites_equal(pc, qc),
                body_diff: Box::new(diff_blocks(pb, qb, equal, corr)),
            }
        }
        (Stmt::For(_, plo, phi, pb), Stmt::For(_, qlo, qhi, qb)) => {
            pair_expr_sites(plo, qlo, corr);
            pair_expr_sites(phi, qhi, corr);
            StmtDiff::ForDiff {
                bounds_changed: !expr_eq(plo, qlo)
                    || !expr_eq(phi, qhi)
                    || !exprs_sites_equal(plo, qlo)
                    || !exprs_sites_equal(phi, qhi),
                body_diff: Box::new(diff_blocks(pb, qb, equal, corr)),
            }
        }
        _ => {
            pair_stmt_sites(p, q, corr);
            // A statement is skippable only when it is deep-equal
            // *including* site labels: skipping shares the old record, so
            // its recorded addresses must be exactly what Q would
            // generate. (Auto-generated labels shift under insertions;
            // such statements are re-executed instead — the
            // correspondence still reuses their values, so the weight is
            // unaffected.)
            if (equal || stmt_eq_mod_sites(p, q)) && stmt_sites_equal(p, q) {
                StmtDiff::Unchanged
            } else {
                StmtDiff::Edited
            }
        }
    }
}

/// Whether two expressions equal modulo sites carry identical site
/// labels: a walk of both in lockstep, comparing each random expression's
/// label.
fn exprs_sites_equal(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Const(_), Expr::Const(_)) | (Expr::Var(_), Expr::Var(_)) => true,
        (Expr::Unary(_, x), Expr::Unary(_, y)) => exprs_sites_equal(x, y),
        (Expr::Binary(_, a1, b1), Expr::Binary(_, a2, b2))
        | (Expr::Index(a1, b1), Expr::Index(a2, b2))
        | (Expr::ArrayInit(a1, b1), Expr::ArrayInit(a2, b2)) => {
            exprs_sites_equal(a1, a2) && exprs_sites_equal(b1, b2)
        }
        (Expr::Call(_, xs), Expr::Call(_, ys)) => all_sites_equal(xs, ys),
        (Expr::Ternary(c1, t1, e1), Expr::Ternary(c2, t2, e2)) => {
            exprs_sites_equal(c1, c2) && exprs_sites_equal(t1, t2) && exprs_sites_equal(e1, e2)
        }
        (Expr::Random(r1), Expr::Random(r2)) => rand_sites_equal(r1, r2),
        _ => false,
    }
}

fn all_sites_equal(xs: &[Expr], ys: &[Expr]) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| exprs_sites_equal(x, y))
}

fn rand_sites_equal(a: &RandExpr, b: &RandExpr) -> bool {
    a.site == b.site
        && match (&a.kind, &b.kind) {
            (RandKind::Flip(p1), RandKind::Flip(p2))
            | (RandKind::Poisson(p1), RandKind::Poisson(p2))
            | (RandKind::GeometricDist(p1), RandKind::GeometricDist(p2))
            | (RandKind::Exponential(p1), RandKind::Exponential(p2)) => exprs_sites_equal(p1, p2),
            (RandKind::UniformInt(a1, b1), RandKind::UniformInt(a2, b2))
            | (RandKind::UniformReal(a1, b1), RandKind::UniformReal(a2, b2))
            | (RandKind::Gauss(a1, b1), RandKind::Gauss(a2, b2))
            | (RandKind::Beta(a1, b1), RandKind::Beta(a2, b2)) => {
                exprs_sites_equal(a1, a2) && exprs_sites_equal(b1, b2)
            }
            (RandKind::Categorical(w1), RandKind::Categorical(w2)) => all_sites_equal(w1, w2),
            _ => false,
        }
}

/// Whether two leaf statements equal modulo sites carry identical site
/// labels.
fn stmt_sites_equal(p: &Stmt, q: &Stmt) -> bool {
    match (p, q) {
        (Stmt::Skip, Stmt::Skip) => true,
        (Stmt::Assign(_, e1), Stmt::Assign(_, e2)) => exprs_sites_equal(e1, e2),
        (Stmt::AssignIndex(_, i1, e1), Stmt::AssignIndex(_, i2, e2)) => {
            exprs_sites_equal(i1, i2) && exprs_sites_equal(e1, e2)
        }
        (Stmt::Observe(r1, e1), Stmt::Observe(r2, e2)) => {
            rand_sites_equal(r1, r2) && exprs_sites_equal(e1, e2)
        }
        _ => false,
    }
}

/// Deep statement equality ignoring site labels.
pub fn stmt_eq_mod_sites(p: &Stmt, q: &Stmt) -> bool {
    match (p, q) {
        (Stmt::Skip, Stmt::Skip) => true,
        (Stmt::Assign(a, e1), Stmt::Assign(b, e2)) => a == b && expr_eq_mod_sites(e1, e2),
        (Stmt::AssignIndex(a, i1, e1), Stmt::AssignIndex(b, i2, e2)) => {
            a == b && expr_eq_mod_sites(i1, i2) && expr_eq_mod_sites(e1, e2)
        }
        (Stmt::If(c1, t1, e1), Stmt::If(c2, t2, e2)) => {
            expr_eq_mod_sites(c1, c2) && block_eq_mod_sites(t1, t2) && block_eq_mod_sites(e1, e2)
        }
        (Stmt::While(c1, b1), Stmt::While(c2, b2)) => {
            expr_eq_mod_sites(c1, c2) && block_eq_mod_sites(b1, b2)
        }
        (Stmt::For(v1, l1, h1, b1), Stmt::For(v2, l2, h2, b2)) => {
            v1 == v2
                && expr_eq_mod_sites(l1, l2)
                && expr_eq_mod_sites(h1, h2)
                && block_eq_mod_sites(b1, b2)
        }
        (Stmt::Observe(r1, e1), Stmt::Observe(r2, e2)) => {
            rand_eq_mod_sites(r1, r2) && expr_eq_mod_sites(e1, e2)
        }
        _ => false,
    }
}

fn block_eq_mod_sites(a: &Block, b: &Block) -> bool {
    a.stmts().len() == b.stmts().len()
        && a.stmts()
            .iter()
            .zip(b.stmts())
            .all(|(x, y)| stmt_eq_mod_sites(x, y))
}

/// Deep expression equality ignoring site labels.
pub fn expr_eq_mod_sites(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Const(x), Expr::Const(y)) => x == y,
        (Expr::Var(x), Expr::Var(y)) => x == y,
        (Expr::Unary(o1, e1), Expr::Unary(o2, e2)) => o1 == o2 && expr_eq_mod_sites(e1, e2),
        (Expr::Binary(o1, a1, b1), Expr::Binary(o2, a2, b2)) => {
            o1 == o2 && expr_eq_mod_sites(a1, a2) && expr_eq_mod_sites(b1, b2)
        }
        (Expr::Index(a1, b1), Expr::Index(a2, b2))
        | (Expr::ArrayInit(a1, b1), Expr::ArrayInit(a2, b2)) => {
            expr_eq_mod_sites(a1, a2) && expr_eq_mod_sites(b1, b2)
        }
        (Expr::Call(f1, as1), Expr::Call(f2, as2)) => {
            f1 == f2
                && as1.len() == as2.len()
                && as1.iter().zip(as2).all(|(x, y)| expr_eq_mod_sites(x, y))
        }
        (Expr::Ternary(c1, t1, e1), Expr::Ternary(c2, t2, e2)) => {
            expr_eq_mod_sites(c1, c2) && expr_eq_mod_sites(t1, t2) && expr_eq_mod_sites(e1, e2)
        }
        (Expr::Random(r1), Expr::Random(r2)) => rand_eq_mod_sites(r1, r2),
        _ => false,
    }
}

fn rand_eq_mod_sites(a: &RandExpr, b: &RandExpr) -> bool {
    match (&a.kind, &b.kind) {
        (RandKind::Flip(p1), RandKind::Flip(p2))
        | (RandKind::Poisson(p1), RandKind::Poisson(p2))
        | (RandKind::GeometricDist(p1), RandKind::GeometricDist(p2))
        | (RandKind::Exponential(p1), RandKind::Exponential(p2)) => expr_eq_mod_sites(p1, p2),
        (RandKind::UniformInt(a1, b1), RandKind::UniformInt(a2, b2))
        | (RandKind::UniformReal(a1, b1), RandKind::UniformReal(a2, b2))
        | (RandKind::Gauss(a1, b1), RandKind::Gauss(a2, b2))
        | (RandKind::Beta(a1, b1), RandKind::Beta(a2, b2)) => {
            expr_eq_mod_sites(a1, a2) && expr_eq_mod_sites(b1, b2)
        }
        (RandKind::Categorical(w1), RandKind::Categorical(w2)) => {
            w1.len() == w2.len() && w1.iter().zip(w2).all(|(x, y)| expr_eq_mod_sites(x, y))
        }
        _ => false,
    }
}

/// Pairs the random-expression sites of two *matched* statements.
fn pair_stmt_sites(p: &Stmt, q: &Stmt, corr: &mut Correspondence) {
    match (p, q) {
        (Stmt::Assign(_, e1), Stmt::Assign(_, e2)) => pair_expr_sites(e1, e2, corr),
        (Stmt::AssignIndex(_, i1, e1), Stmt::AssignIndex(_, i2, e2)) => {
            pair_expr_sites(i1, i2, corr);
            pair_expr_sites(e1, e2, corr);
        }
        (Stmt::Observe(r1, e1), Stmt::Observe(r2, e2)) => {
            pair_rand_sites(r1, r2, corr);
            pair_expr_sites(e1, e2, corr);
        }
        _ => {}
    }
}

/// Walks two expressions in parallel; random expressions of the same
/// family at the same structural position are put in correspondence.
fn pair_expr_sites(p: &Expr, q: &Expr, corr: &mut Correspondence) {
    match (p, q) {
        (Expr::Unary(_, e1), Expr::Unary(_, e2)) => pair_expr_sites(e1, e2, corr),
        (Expr::Binary(_, a1, b1), Expr::Binary(_, a2, b2))
        | (Expr::Index(a1, b1), Expr::Index(a2, b2))
        | (Expr::ArrayInit(a1, b1), Expr::ArrayInit(a2, b2)) => {
            pair_expr_sites(a1, a2, corr);
            pair_expr_sites(b1, b2, corr);
        }
        (Expr::Call(_, as1), Expr::Call(_, as2)) => {
            for (x, y) in as1.iter().zip(as2) {
                pair_expr_sites(x, y, corr);
            }
        }
        (Expr::Ternary(c1, t1, e1), Expr::Ternary(c2, t2, e2)) => {
            pair_expr_sites(c1, c2, corr);
            pair_expr_sites(t1, t2, corr);
            pair_expr_sites(e1, e2, corr);
        }
        (Expr::Random(r1), Expr::Random(r2)) => pair_rand_sites(r1, r2, corr),
        _ => {}
    }
}

fn pair_rand_sites(p: &RandExpr, q: &RandExpr, corr: &mut Correspondence) {
    if p.kind.family() != q.kind.family() {
        return;
    }
    // Recurse into parameters first (nested random expressions).
    match (&p.kind, &q.kind) {
        (RandKind::Flip(a), RandKind::Flip(b))
        | (RandKind::Poisson(a), RandKind::Poisson(b))
        | (RandKind::GeometricDist(a), RandKind::GeometricDist(b))
        | (RandKind::Exponential(a), RandKind::Exponential(b)) => pair_expr_sites(a, b, corr),
        (RandKind::UniformInt(a1, b1), RandKind::UniformInt(a2, b2))
        | (RandKind::UniformReal(a1, b1), RandKind::UniformReal(a2, b2))
        | (RandKind::Gauss(a1, b1), RandKind::Gauss(a2, b2))
        | (RandKind::Beta(a1, b1), RandKind::Beta(a2, b2)) => {
            pair_expr_sites(a1, a2, corr);
            pair_expr_sites(b1, b2, corr);
        }
        (RandKind::Categorical(w1), RandKind::Categorical(w2)) => {
            for (x, y) in w1.iter().zip(w2) {
                pair_expr_sites(x, y, corr);
            }
        }
        _ => {}
    }
    // Best effort: duplicate labels (same site reused) are skipped rather
    // than erroring — the translator then treats the choice as fresh.
    let _ = corr.add_shared_site_rule(&q.site.0, &p.site.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::parse;
    use proptest::prelude::*;

    /// The diff as it was before trimming: the weighted-LCS table over
    /// whole blocks. The reference the trimmed diff must reproduce.
    mod reference {
        use super::super::*;

        pub fn diff_blocks(p: &Block, q: &Block, corr: &mut Correspondence) -> BlockDiff {
            let ps = p.stmts();
            let qs = q.stmts();
            let n = ps.len();
            let m = qs.len();
            let mut table = vec![vec![0u32; m + 1]; n + 1];
            for i in (0..n).rev() {
                for j in (0..m).rev() {
                    let skip = table[i + 1][j].max(table[i][j + 1]);
                    let matched = match_score(&ps[i], &qs[j]).map(|s| s + table[i + 1][j + 1]);
                    table[i][j] = matched.map_or(skip, |mv| mv.max(skip));
                }
            }
            let mut ops = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < n && j < m {
                let matched = match_score(&ps[i], &qs[j]).map(|s| s + table[i + 1][j + 1]);
                if matched == Some(table[i][j]) && matched.is_some() {
                    let diff = diff_stmt(&ps[i], &qs[j], corr);
                    ops.push(DiffOp::Stmt {
                        q_index: j,
                        p_index: Some(i),
                        diff,
                    });
                    i += 1;
                    j += 1;
                } else if table[i + 1][j] >= table[i][j + 1] {
                    ops.push(DiffOp::RemovedP(i));
                    i += 1;
                } else {
                    ops.push(DiffOp::Stmt {
                        q_index: j,
                        p_index: None,
                        diff: StmtDiff::Edited,
                    });
                    j += 1;
                }
            }
            while i < n {
                ops.push(DiffOp::RemovedP(i));
                i += 1;
            }
            while j < m {
                ops.push(DiffOp::Stmt {
                    q_index: j,
                    p_index: None,
                    diff: StmtDiff::Edited,
                });
                j += 1;
            }
            BlockDiff { ops }
        }

        fn diff_stmt(p: &Stmt, q: &Stmt, corr: &mut Correspondence) -> StmtDiff {
            match (p, q) {
                (Stmt::If(pc, pt, pe), Stmt::If(qc, qt, qe)) => {
                    pair_expr_sites(pc, qc, corr);
                    StmtDiff::IfDiff {
                        cond_changed: !expr_eq_mod_sites(pc, qc) || !exprs_sites_equal(pc, qc),
                        then_diff: Box::new(diff_blocks(pt, qt, corr)),
                        else_diff: Box::new(diff_blocks(pe, qe, corr)),
                    }
                }
                (Stmt::While(pc, pb), Stmt::While(qc, qb)) => {
                    pair_expr_sites(pc, qc, corr);
                    StmtDiff::WhileDiff {
                        cond_changed: !expr_eq_mod_sites(pc, qc) || !exprs_sites_equal(pc, qc),
                        body_diff: Box::new(diff_blocks(pb, qb, corr)),
                    }
                }
                (Stmt::For(_, plo, phi, pb), Stmt::For(_, qlo, qhi, qb)) => {
                    pair_expr_sites(plo, qlo, corr);
                    pair_expr_sites(phi, qhi, corr);
                    StmtDiff::ForDiff {
                        bounds_changed: !expr_eq_mod_sites(plo, qlo)
                            || !expr_eq_mod_sites(phi, qhi)
                            || !exprs_sites_equal(plo, qlo)
                            || !exprs_sites_equal(phi, qhi),
                        body_diff: Box::new(diff_blocks(pb, qb, corr)),
                    }
                }
                _ => {
                    pair_stmt_sites(p, q, corr);
                    if stmt_eq_mod_sites(p, q) && stmt_sites_equal(p, q) {
                        StmtDiff::Unchanged
                    } else {
                        StmtDiff::Edited
                    }
                }
            }
        }
    }

    /// A statement of a generated program: one line, or an `if`/`for`
    /// around generated bodies.
    #[derive(Debug, Clone)]
    enum Item {
        Line(String),
        If(usize, Vec<Item>, Vec<Item>),
        For(usize, i64, Vec<Item>),
    }

    /// The statement shapes of the root suite's `program_strategy`, over
    /// few variables and constants, so lines often repeat (ties in the
    /// alignment) and two explicit labels are often shared.
    fn line() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..3, 1u32..4).prop_map(|(v, p)| format!("v{v} = flip(0.{p});")),
            (0usize..3, 0i64..2, 1i64..3)
                .prop_map(|(v, lo, k)| format!("v{v} = uniform({lo}, {});", lo + k)),
            (0usize..3, 0usize..3, 0usize..3)
                .prop_map(|(v, a, b)| format!("v{v} = va{a} + va{b};")),
            (1u32..4, 0usize..3).prop_map(|(p, v)| format!("observe(flip(0.{p}) == (va{v} > 0));")),
            (0usize..3, 1u32..4, 0usize..2)
                .prop_map(|(v, p, s)| format!("va{v} = flip(0.{p}) @ s{s};")),
        ]
    }

    fn item() -> BoxedStrategy<Item> {
        line()
            .prop_map(Item::Line)
            .prop_recursive(2, 0, 0, |inner| {
                let body = || proptest::collection::vec(inner.clone(), 1..4);
                prop_oneof![
                    inner.clone(),
                    inner.clone(),
                    (0usize..3, body(), body()).prop_map(|(c, t, e)| Item::If(c, t, e)),
                    (0usize..3, 1i64..4, body()).prop_map(|(v, n, b)| Item::For(v, n, b)),
                ]
            })
    }

    fn render(block: &[Item], out: &mut String) {
        for item in block {
            match item {
                Item::Line(line) => out.push_str(line),
                Item::If(c, then_b, else_b) => {
                    out.push_str(&format!("if va{c} > 0 {{ "));
                    render(then_b, out);
                    out.push_str("} else { ");
                    render(else_b, out);
                    out.push('}');
                }
                Item::For(v, n, body) => {
                    out.push_str(&format!("for i{v} in [0..{n}) {{ "));
                    render(body, out);
                    out.push('}');
                }
            }
            out.push('\n');
        }
    }

    fn source(block: &[Item]) -> String {
        let mut src = String::from("va0 = 1; va1 = 0; va2 = 1; v0 = 0; v1 = 0; v2 = 0;\n");
        render(block, &mut src);
        src.push_str("return va0;");
        src
    }

    /// Applies one edit to the block that `picks` leads to: the first pick
    /// chooses a statement, and while picks remain and that statement is
    /// an `if` or `for`, the edit goes into one of its bodies.
    fn apply(block: &mut Vec<Item>, picks: &[usize], kind: u8, donor: &Item) {
        let (&pick, rest) = picks.split_first().expect("at least one pick");
        let len = block.len();
        if let (Some(&next), Some(stmt)) = (rest.first(), block.get_mut(pick % len.max(1))) {
            match stmt {
                Item::If(_, then_b, else_b) => {
                    let body = if next % 2 == 0 { then_b } else { else_b };
                    return apply(body, rest, kind, donor);
                }
                Item::For(_, _, body) => return apply(body, rest, kind, donor),
                Item::Line(_) => {}
            }
        }
        let at = pick % (len + 1);
        match kind {
            // Delete a statement.
            1 if len > 0 => {
                block.remove(at % len);
            }
            // Replace a statement.
            2 if len > 0 => block[at % len] = donor.clone(),
            // Duplicate a statement next to itself.
            3 if len > 0 => block.insert(at % len, block[at % len].clone()),
            // Overwrite a statement with a copy of its successor.
            4 if len > 1 => block[at % (len - 1)] = block[at % (len - 1) + 1].clone(),
            // Insert a statement.
            _ => block.insert(at, donor.clone()),
        }
    }

    /// A program and the program one to three edits away from it.
    fn edit_pair() -> impl Strategy<Value = (String, String)> {
        let edit = (0u8..5, proptest::collection::vec(0usize..64, 1..4), item());
        (
            proptest::collection::vec(item(), 1..8),
            proptest::collection::vec(edit, 1..4),
        )
            .prop_map(|(mut block, edits)| {
                let before = source(&block);
                for (kind, picks, donor) in &edits {
                    apply(&mut block, picks, *kind, donor);
                }
                (before, source(&block))
            })
    }

    fn sorted_rules(corr: &Correspondence) -> Vec<(String, String)> {
        let mut rules: Vec<(String, String)> = corr
            .site_rules()
            .map(|(q, p)| (q.to_string(), p.to_string()))
            .collect();
        rules.sort();
        rules
    }

    /// Asserts that the trimmed diff of `p` → `q` is the reference's.
    fn assert_matches_reference(p: &Program, q: &Program) -> Result<(), String> {
        let edit = diff_programs(p, q);
        let mut corr = Correspondence::new();
        let want = reference::diff_blocks(p.body(), q.body(), &mut corr);
        prop_assert_eq!(format!("{:?}", edit.diff), format!("{want:?}"));
        prop_assert_eq!(sorted_rules(&edit.correspondence), sorted_rules(&corr));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn trimmed_diff_matches_the_whole_table_diff(pair in edit_pair()) {
            let (src_p, src_q) = pair;
            let p = parse(&src_p).map_err(|e| format!("{e} in {src_p}"))?;
            let q = parse(&src_q).map_err(|e| format!("{e} in {src_q}"))?;
            assert_matches_reference(&p, &q)
                .map_err(|e| format!("{e}\nP:\n{src_p}\nQ:\n{src_q}"))?;
            assert_matches_reference(&q, &p)
                .map_err(|e| format!("{e} (reversed)\nP:\n{src_q}\nQ:\n{src_p}"))?;
        }
    }

    /// Diffs `p` → `q` and checks it against the reference and against
    /// the expected `(q_index, p_index)` of every Q statement.
    fn assert_pairs(p: &str, q: &str, expected: &[(usize, Option<usize>)]) {
        let (p, q) = (parse(p).unwrap(), parse(q).unwrap());
        let edit = diff_programs(&p, &q);
        let pairs: Vec<(usize, Option<usize>)> = edit
            .diff
            .ops
            .iter()
            .filter_map(|op| match op {
                DiffOp::Stmt {
                    q_index, p_index, ..
                } => Some((*q_index, *p_index)),
                DiffOp::RemovedP(_) => None,
            })
            .collect();
        assert_eq!(pairs, expected);
        assert_matches_reference(&p, &q).unwrap();
    }

    #[test]
    fn ties_at_the_suffix_keep_the_whole_table_alignment() {
        // With the suffix `b` trimmed, the window's leftover `c; b` would
        // be inserted and P's `b` paired with Q's second `b`; the whole
        // table pairs it with the first.
        assert_pairs(
            "a = 1; b = flip(0.5) @ s; return b;",
            "a = 1; c = 7; b = flip(0.5) @ s; b = flip(0.5) @ s; return b;",
            &[(0, Some(0)), (1, None), (2, Some(1)), (3, None)],
        );
        // Giving one suffix pair back still leaves a `v` line equal to the
        // next suffix statement, so the check must repeat.
        assert_pairs(
            "observe(flip(0.5) == 1); v = flip(0.5); v = flip(0.5); return v;",
            "v = flip(0.5); v = flip(0.5); v = flip(0.5); return v;",
            &[(0, Some(1)), (1, Some(2)), (2, None)],
        );
    }

    #[test]
    fn identical_programs_diff_as_unchanged() {
        let p = parse("x = flip(0.5); y = x + 1; return y;").unwrap();
        let q = parse("x = flip(0.5); y = x + 1; return y;").unwrap();
        let edit = diff_programs(&p, &q);
        assert!(edit.diff.is_unchanged());
        // flip#1 of Q maps to flip#1 of P.
        assert_eq!(
            edit.correspondence.lookup(&ppl::addr!["flip#1"]),
            Some(ppl::addr!["flip#1"])
        );
    }

    #[test]
    fn constant_edit_is_edited_statement() {
        let p = parse("a = 1; b = flip(a / 3); return b;").unwrap();
        let q = parse("a = 2; b = flip(a / 3); return b;").unwrap();
        let edit = diff_programs(&p, &q);
        assert!(!edit.diff.is_unchanged());
        let kinds: Vec<bool> = edit
            .diff
            .ops
            .iter()
            .map(|op| match op {
                DiffOp::Stmt { diff, p_index, .. } => p_index.is_some() && diff.is_unchanged(),
                DiffOp::RemovedP(_) => false,
            })
            .collect();
        assert_eq!(kinds, [false, true]); // a=... edited, b=... unchanged
                                          // The flip still corresponds.
        assert!(edit.correspondence.maps(&ppl::addr!["flip#1"]));
    }

    #[test]
    fn insertion_shifts_auto_labels_but_still_corresponds() {
        // Q inserts a flip before the shared one: the shared flip is
        // flip#1 in P but flip#2 in Q.
        let p = parse("x = flip(0.5); return x;").unwrap();
        let q = parse("e = flip(0.1); x = flip(0.5); return x;").unwrap();
        let edit = diff_programs(&p, &q);
        assert_eq!(
            edit.correspondence.lookup(&ppl::addr!["flip#2"]),
            Some(ppl::addr!["flip#1"])
        );
        assert!(!edit.correspondence.maps(&ppl::addr!["flip#1"]));
    }

    #[test]
    fn deletion_produces_removed_op() {
        let p = parse("a = flip(0.5); b = flip(0.5); return b;").unwrap();
        let q = parse("b = flip(0.5); return b;").unwrap();
        let edit = diff_programs(&p, &q);
        let removed: Vec<usize> = edit
            .diff
            .ops
            .iter()
            .filter_map(|op| match op {
                DiffOp::RemovedP(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(removed, [0]);
    }

    #[test]
    fn if_and_for_diff_recursively() {
        let p = parse(
            "k = 2; xs = array(k, 0);
             for i in [0..k) { xs[i] = gauss(0.0, 1.0); }
             if k < 3 { y = 1; } else { y = 2; }
             return y;",
        )
        .unwrap();
        let q = parse(
            "k = 2; xs = array(k, 0);
             for i in [0..k) { xs[i] = gauss(0.0, 5.0); }
             if k < 3 { y = 1; } else { y = 2; }
             return y;",
        )
        .unwrap();
        let edit = diff_programs(&p, &q);
        let mut saw_for = false;
        for op in &edit.diff.ops {
            if let DiffOp::Stmt {
                diff:
                    StmtDiff::ForDiff {
                        bounds_changed,
                        body_diff,
                    },
                ..
            } = op
            {
                saw_for = true;
                assert!(!bounds_changed);
                assert!(!body_diff.is_unchanged());
            }
        }
        assert!(saw_for);
        // The gauss inside the loop still corresponds (it moved from
        // parameter 1.0 to 5.0 but keeps its structural position).
        assert!(edit.correspondence.maps(&ppl::addr!["gauss#1", 0]));
    }

    #[test]
    fn different_families_do_not_correspond() {
        // Fig. 5 moral: flip and uniform never pair up.
        let p = parse("c = flip(0.5); return c;").unwrap();
        let q = parse("c = uniform(1, 6); return c;").unwrap();
        let edit = diff_programs(&p, &q);
        assert!(!edit.correspondence.maps(&ppl::addr!["uniform#1"]));
    }

    #[test]
    fn annotated_sites_survive_the_diff() {
        let p = parse("x = flip(0.5) @ keep; return x;").unwrap();
        let q = parse("x = flip(0.25) @ kept; return x;").unwrap();
        let edit = diff_programs(&p, &q);
        assert_eq!(
            edit.correspondence.lookup(&ppl::addr!["kept"]),
            Some(ppl::addr!["keep"])
        );
    }
}
