//! The static effect analysis and impact slice as they were computed on
//! strings, kept verbatim as a test-only reference: `static_slices.rs`
//! checks that the slot-keyed facts the pair compile derives render to
//! exactly these names, verdicts and sites.

#![allow(dead_code)]

use std::collections::BTreeSet;

use depgraph::diff::{BlockDiff, DiffOp, ProgramEdit, StmtDiff};
use ppl::ast::{Block, Expr, Program, RandExpr, RandKind, Stmt};

/// May-read / may-write / may-sample sets of a statement or block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// Variables the code may read.
    pub reads: BTreeSet<String>,
    /// Variables the code may write.
    pub writes: BTreeSet<String>,
    /// Site labels the code may sample or observe at.
    pub samples: BTreeSet<String>,
}

impl EffectSummary {
    /// Unions `other` into `self`.
    pub fn absorb(&mut self, other: &EffectSummary) {
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
        self.samples.extend(other.samples.iter().cloned());
    }

    /// Whether any read intersects `vars`.
    pub fn reads_any(&self, vars: &BTreeSet<String>) -> bool {
        self.reads.iter().any(|r| vars.contains(r))
    }
}

/// Control shape of a statement, for the impact fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtShape {
    /// A straight-line statement: assignment, element assignment,
    /// observation, or `skip`.
    Leaf,
    /// An `if` statement.
    If,
    /// A `for` loop.
    For,
    /// A `while` loop.
    While,
}

/// Static facts about one statement, at its pre-order index.
#[derive(Debug, Clone)]
pub struct StmtFacts {
    /// Pre-order index of this statement.
    pub index: usize,
    /// One past the last pre-order index of this statement's subtree.
    pub end: usize,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Control shape.
    pub shape: StmtShape,
    /// Effects of the statement head alone: a leaf's expressions, a
    /// branch condition, loop bounds (plus the loop variable as a
    /// write).
    pub head: EffectSummary,
    /// Aggregate effects of the whole subtree, head included.
    pub subtree: EffectSummary,
    /// The loop variable of a `for` statement.
    pub loop_var: Option<String>,
    /// A short human-readable rendering for reports.
    pub label: String,
}

/// Effect facts for every statement of a program, in pre-order.
#[derive(Debug, Clone)]
pub struct ProgramEffects {
    /// Per-statement facts; `stmts[i].index == i`.
    pub stmts: Vec<StmtFacts>,
    /// Variables read by the `return` expression.
    pub ret_reads: BTreeSet<String>,
}

impl ProgramEffects {
    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// The pre-order indices of the `count` statements of a block whose
    /// first statement sits at pre-order index `start`: consecutive
    /// siblings are separated by their subtree sizes.
    pub fn block_child_indices(&self, start: usize, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count);
        let mut i = start;
        for _ in 0..count {
            out.push(i);
            i = self.stmts[i].end;
        }
        out
    }

    /// One past the last pre-order index of the `count` sibling subtrees
    /// whose first statement sits at pre-order index `start`.
    pub fn block_end(&self, start: usize, count: usize) -> usize {
        (0..count).fold(start, |i, _| self.stmts[i].end)
    }
}

/// Computes per-statement effect facts for `program`.
pub fn infer_effects(program: &Program) -> ProgramEffects {
    let mut stmts = Vec::new();
    walk_block(program.body(), 0, &mut stmts);
    let mut ret_reads = BTreeSet::new();
    if let Some(ret) = program.ret() {
        let mut sum = EffectSummary::default();
        expr_effects(ret, &mut sum);
        ret_reads = sum.reads;
    }
    ProgramEffects { stmts, ret_reads }
}

/// Transitive effect summary of a single statement (subtree included).
pub fn stmt_effects(stmt: &Stmt) -> EffectSummary {
    let mut scratch = Vec::new();
    walk_stmt(stmt, 0, &mut scratch)
}

fn walk_block(block: &Block, depth: usize, out: &mut Vec<StmtFacts>) -> EffectSummary {
    let mut sum = EffectSummary::default();
    for stmt in block.stmts() {
        sum.absorb(&walk_stmt(stmt, depth, out));
    }
    sum
}

fn walk_stmt(stmt: &Stmt, depth: usize, out: &mut Vec<StmtFacts>) -> EffectSummary {
    let index = out.len();
    // Reserve the slot so children land after their parent in pre-order.
    out.push(StmtFacts {
        index,
        end: index + 1,
        depth,
        shape: StmtShape::Leaf,
        head: EffectSummary::default(),
        subtree: EffectSummary::default(),
        loop_var: None,
        label: stmt_label(stmt),
    });
    let mut head = EffectSummary::default();
    let mut loop_var = None;
    let shape;
    let mut subtree;
    match stmt {
        Stmt::Skip => {
            shape = StmtShape::Leaf;
            subtree = head.clone();
        }
        Stmt::Assign(name, expr) => {
            shape = StmtShape::Leaf;
            expr_effects(expr, &mut head);
            head.writes.insert(name.clone());
            subtree = head.clone();
        }
        Stmt::AssignIndex(name, idx, expr) => {
            shape = StmtShape::Leaf;
            expr_effects(idx, &mut head);
            expr_effects(expr, &mut head);
            // An element write reads the array it updates.
            head.reads.insert(name.clone());
            head.writes.insert(name.clone());
            subtree = head.clone();
        }
        Stmt::Observe(rand, expr) => {
            shape = StmtShape::Leaf;
            rand_effects(rand, &mut head);
            expr_effects(expr, &mut head);
            subtree = head.clone();
        }
        Stmt::If(cond, then_b, else_b) => {
            shape = StmtShape::If;
            expr_effects(cond, &mut head);
            subtree = head.clone();
            subtree.absorb(&walk_block(then_b, depth + 1, out));
            subtree.absorb(&walk_block(else_b, depth + 1, out));
        }
        Stmt::While(cond, body) => {
            shape = StmtShape::While;
            expr_effects(cond, &mut head);
            subtree = head.clone();
            subtree.absorb(&walk_block(body, depth + 1, out));
        }
        Stmt::For(var, lo, hi, body) => {
            shape = StmtShape::For;
            expr_effects(lo, &mut head);
            expr_effects(hi, &mut head);
            head.writes.insert(var.clone());
            loop_var = Some(var.clone());
            subtree = head.clone();
            subtree.absorb(&walk_block(body, depth + 1, out));
        }
    }
    let end = out.len();
    let facts = &mut out[index];
    facts.end = end;
    facts.shape = shape;
    facts.head = head;
    facts.subtree = subtree.clone();
    facts.loop_var = loop_var;
    subtree
}

fn stmt_label(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Skip => "skip".to_string(),
        Stmt::Assign(name, _) => format!("{name} = …"),
        Stmt::AssignIndex(name, _, _) => format!("{name}[…] = …"),
        Stmt::Observe(rand, _) => format!("observe(… @ {})", rand.site),
        Stmt::If(..) => "if …".to_string(),
        Stmt::While(..) => "while …".to_string(),
        Stmt::For(var, ..) => format!("for {var} in …"),
    }
}

fn expr_effects(expr: &Expr, out: &mut EffectSummary) {
    match expr {
        Expr::Const(_) => {}
        Expr::Var(name) => {
            out.reads.insert(name.clone());
        }
        Expr::Unary(_, e) => expr_effects(e, out),
        Expr::Binary(_, a, b) => {
            expr_effects(a, out);
            expr_effects(b, out);
        }
        Expr::Index(arr, idx) => {
            expr_effects(arr, out);
            expr_effects(idx, out);
        }
        Expr::ArrayInit(n, init) => {
            expr_effects(n, out);
            expr_effects(init, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_effects(a, out);
            }
        }
        Expr::Ternary(c, t, e) => {
            expr_effects(c, out);
            expr_effects(t, out);
            expr_effects(e, out);
        }
        Expr::Random(rand) => rand_effects(rand, out),
    }
}

fn rand_effects(rand: &RandExpr, out: &mut EffectSummary) {
    out.samples.insert(rand.site.as_str().to_string());
    match &rand.kind {
        RandKind::Flip(p)
        | RandKind::Poisson(p)
        | RandKind::GeometricDist(p)
        | RandKind::Exponential(p) => expr_effects(p, out),
        RandKind::UniformInt(a, b)
        | RandKind::UniformReal(a, b)
        | RandKind::Gauss(a, b)
        | RandKind::Beta(a, b) => {
            expr_effects(a, out);
            expr_effects(b, out);
        }
        RandKind::Categorical(ws) => {
            for w in ws {
                expr_effects(w, out);
            }
        }
    }
}

/// How an edit touches one statement of the *new* program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// Syntactically identical to its old counterpart (site labels
    /// included).
    Unchanged,
    /// The statement itself is unchanged but something inside its
    /// sub-blocks was edited (control statements only).
    Inner,
    /// The statement's own computation changed: an edited expression, a
    /// changed condition or bounds, or no old counterpart at all.
    Changed,
}

/// A statically derived description of a program edit: the input to
/// [`impact`]. Built from a structural diff by the dependency-graph
/// crate's `impact` module.
#[derive(Debug, Clone)]
pub struct ChangeSeed {
    /// Per-statement change kinds, indexed by pre-order index in the new
    /// program (same indexing as [`ProgramEffects::stmts`]).
    pub kinds: Vec<ChangeKind>,
    /// Variables whose old values go stale under the edit: writes of
    /// removed or edited old-program statements.
    pub stale_writes: BTreeSet<String>,
}

impl ChangeSeed {
    /// The identity seed: nothing changed.
    pub fn identity(len: usize) -> ChangeSeed {
        ChangeSeed {
            kinds: vec![ChangeKind::Unchanged; len],
            stale_writes: BTreeSet::new(),
        }
    }
}

/// The over-approximate impact slice of an edit.
#[derive(Debug, Clone)]
pub struct ImpactSet {
    /// Pre-order indices of new-program statements some execution could
    /// revisit under the edit.
    pub impacted: BTreeSet<usize>,
    /// Variables whose values may differ from the old execution.
    pub may_dirty: BTreeSet<String>,
    /// Site labels whose choices or observations may be revisited.
    pub sites: BTreeSet<String>,
    /// Total number of statements in the new program.
    pub total: usize,
}

impl ImpactSet {
    /// Whether statement `index` may be revisited.
    pub fn contains(&self, index: usize) -> bool {
        self.impacted.contains(&index)
    }

    /// Whether statement `index` is statically proven skippable.
    pub fn skippable(&self, index: usize) -> bool {
        !self.contains(index)
    }

    /// Number of statements statically proven skippable.
    pub fn skippable_count(&self) -> usize {
        self.total - self.impacted.len()
    }
}

/// Computes the impact slice of an edit described by `seed` over the
/// effect facts of the new program.
///
/// The result is sound with respect to the dynamic skip rule of the
/// propagation runtime, which skips a statement iff it is syntactically
/// unchanged *and* none of its recorded reads is dirty:
///
/// - every dynamically dirty variable is in `may_dirty` (dirty values
///   originate from re-executed or removed writes, and every statement
///   that can re-execute contributes its writes here);
/// - every dynamically visited statement is in `impacted` (a statement
///   is visited only when it is changed or reads a dirty variable, and
///   static subtree reads over-approximate recorded reads).
pub fn impact(effects: &ProgramEffects, seed: &ChangeSeed) -> ImpactSet {
    let n = effects.stmts.len();
    debug_assert_eq!(seed.kinds.len(), n, "seed must cover every statement");
    let mut impacted = vec![false; n];
    let mut spread = vec![false; n];
    let mut dirty = seed.stale_writes.clone();

    // A `while` loop whose subtree carries any edit may change its
    // iteration count, which can re-execute anything inside: treat the
    // whole loop as changed.
    let while_touched: Vec<bool> = (0..n)
        .map(|i| {
            effects.stmts[i].shape == StmtShape::While
                && (i..effects.stmts[i].end)
                    .any(|j| seed.kinds.get(j) != Some(&ChangeKind::Unchanged))
        })
        .collect();

    // Seed pass.
    for i in 0..n {
        let facts = &effects.stmts[i];
        match seed.kinds.get(i).copied().unwrap_or(ChangeKind::Changed) {
            ChangeKind::Unchanged => {}
            ChangeKind::Inner => {
                impacted[i] = true;
                // Re-visited loop iterations rebind the loop variable.
                if let Some(var) = &facts.loop_var {
                    dirty.insert(var.clone());
                }
            }
            ChangeKind::Changed => match facts.shape {
                StmtShape::Leaf => {
                    impacted[i] = true;
                    dirty.extend(facts.head.writes.iter().cloned());
                }
                StmtShape::If | StmtShape::For | StmtShape::While => {
                    spread_subtree(effects, i, &mut impacted, &mut spread, &mut dirty);
                }
            },
        }
        if while_touched[i] && !spread[i] {
            spread_subtree(effects, i, &mut impacted, &mut spread, &mut dirty);
        }
    }

    // Fixpoint: dirty reads make statements re-executable, and
    // re-executed statements dirty their writes.
    loop {
        let mut changed = false;
        for i in 0..n {
            let facts = &effects.stmts[i];
            match facts.shape {
                StmtShape::Leaf => {
                    if !impacted[i] && facts.head.reads_any(&dirty) {
                        impacted[i] = true;
                        dirty.extend(facts.head.writes.iter().cloned());
                        changed = true;
                    }
                }
                StmtShape::If => {
                    // A possibly different condition can flip the branch:
                    // either branch could then run fresh.
                    if facts.head.reads_any(&dirty) && !spread[i] {
                        spread_subtree(effects, i, &mut impacted, &mut spread, &mut dirty);
                        changed = true;
                    } else if !impacted[i] && facts.subtree.reads_any(&dirty) {
                        // The aggregate record reads a dirty variable, so
                        // the `if` itself is visited — but the branch
                        // cannot flip, so children are judged one by one.
                        impacted[i] = true;
                        changed = true;
                    }
                }
                StmtShape::For => {
                    // Possibly different bounds change the iteration
                    // count: fresh iterations re-run the whole body.
                    if facts.head.reads_any(&dirty) && !spread[i] {
                        spread_subtree(effects, i, &mut impacted, &mut spread, &mut dirty);
                        changed = true;
                    } else if facts.subtree.reads_any(&dirty) {
                        if !impacted[i] {
                            impacted[i] = true;
                            changed = true;
                        }
                        if let Some(var) = &facts.loop_var {
                            if dirty.insert(var.clone()) {
                                changed = true;
                            }
                        }
                    }
                }
                StmtShape::While => {
                    // Any dirty read inside a `while` can change how many
                    // iterations run: conservatively re-run everything.
                    if facts.subtree.reads_any(&dirty) && !spread[i] {
                        spread_subtree(effects, i, &mut impacted, &mut spread, &mut dirty);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut sites = BTreeSet::new();
    for i in 0..n {
        if !impacted[i] {
            continue;
        }
        let facts = &effects.stmts[i];
        if spread[i] || facts.shape == StmtShape::Leaf {
            sites.extend(facts.subtree.samples.iter().cloned());
        } else {
            // Visited control statement whose children are judged
            // individually: only its own head re-evaluates.
            sites.extend(facts.head.samples.iter().cloned());
        }
    }

    ImpactSet {
        impacted: impacted
            .iter()
            .enumerate()
            .filter_map(|(i, hit)| hit.then_some(i))
            .collect(),
        may_dirty: dirty,
        sites,
        total: n,
    }
}

fn spread_subtree(
    effects: &ProgramEffects,
    i: usize,
    impacted: &mut [bool],
    spread: &mut [bool],
    dirty: &mut BTreeSet<String>,
) {
    spread[i] = true;
    impacted[i..effects.stmts[i].end].fill(true);
    dirty.extend(effects.stmts[i].subtree.writes.iter().cloned());
}

/// Classifies every statement of `q` under the edit `p → q` and collects
/// the stale old-program writes, producing the seed for
/// [`impact`]. `effects` must be [`infer_effects`]`(q)`.
pub fn change_seed(
    q: &Program,
    p: &Program,
    edit: &ProgramEdit,
    effects: &ProgramEffects,
) -> ChangeSeed {
    let mut seed = ChangeSeed::identity(effects.len());
    seed_block(q.body(), 0, p.body(), &edit.diff, effects, &mut seed);
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

fn seed_block(
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
                seed_stmt(q_stmt, i, p_stmt, diff, effects, seed);
            }
        }
    }
}

fn seed_stmt(
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
                seed_block(then_b, then_start, p_then, then_diff, effects, seed);
                seed_block(else_b, else_start, p_else, else_diff, effects, seed);
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
                seed_block(body, i + 1, p_body, body_diff, effects, seed);
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
                seed_block(body, i + 1, p_body, body_diff, effects, seed);
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
