//! Static dependence analysis over the surface AST.
//!
//! Three layers, mirroring what the dynamic dependency-graph runtime
//! tracks per execution:
//!
//! 1. **Effect inference** ([`infer_effects`]): for every statement, in
//!    pre-order, the may-read, may-write and may-sample (site label)
//!    sets — both for the statement head alone (a leaf expression, a
//!    branch condition, loop bounds) and for its whole subtree. The
//!    subtree summary is the static mirror of the dynamic block
//!    summaries recorded by the propagation runtime: every variable a
//!    dynamic record could report as read is contained in the static
//!    `subtree.reads` of its statement.
//! 2. **Change seeds** ([`ChangeSeed`]): a per-statement classification
//!    of a program edit (unchanged / inner edits only / own computation
//!    changed) plus the set of old-program writes whose values go stale.
//!    Derived from a structural diff by the dependency-graph crate.
//! 3. **Impact slicing** ([`impact`]): a fixpoint over the effect facts
//!    computing an over-approximate [`ImpactSet`] — every statement any
//!    execution of the new program could *revisit* (fail to skip) under
//!    the edit, and every variable whose value may differ from the old
//!    execution. The set is deliberately flow-insensitive and
//!    conservative: statements outside it are *proven* skippable, so a
//!    stage plan may pre-prune them without consulting runtime dirty
//!    bits, and a dynamic run that visits a statement outside the set
//!    indicates a soundness bug (see the `--verify-slices` oracle).

use std::collections::BTreeSet;

use crate::ast::{Block, Expr, Program, RandExpr, RandKind, Stmt};

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
///
/// # Examples
///
/// ```
/// let p = ppl::parse("x = flip(0.5) @ s; y = x + 1; return y;").unwrap();
/// let fx = ppl::analysis::infer_effects(&p);
/// assert_eq!(fx.len(), 2);
/// assert!(fx.stmts[0].head.samples.contains("s"));
/// assert!(fx.stmts[1].head.reads.contains("x"));
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn fx(src: &str) -> ProgramEffects {
        infer_effects(&parse(src).unwrap())
    }

    #[test]
    fn preorder_indices_and_subtree_ranges() {
        let e = fx("a = 1; if a > 0 { b = 2; c = 3; } else { d = 4; } e = 5; return e;");
        // a=1 | if | b=2 | c=3 | d=4 | e=5
        assert_eq!(e.len(), 6);
        assert_eq!(e.stmts[1].shape, StmtShape::If);
        assert_eq!(e.stmts[1].end, 5);
        assert_eq!(e.stmts[5].label, "e = …");
        assert_eq!(e.block_child_indices(0, 3), vec![0, 1, 5]);
    }

    #[test]
    fn loop_effects_include_loop_variable_and_bounds() {
        let e = fx("n = 3; xs = array(n, 0); for i in [0..n) { xs[i] = i * 2; } return xs;");
        let f = &e.stmts[2];
        assert_eq!(f.shape, StmtShape::For);
        assert_eq!(f.loop_var.as_deref(), Some("i"));
        assert!(f.head.reads.contains("n"));
        assert!(f.head.writes.contains("i"));
        assert!(f.subtree.writes.contains("xs"));
        assert!(f.subtree.reads.contains("i"));
    }

    #[test]
    fn sample_sites_are_collected() {
        let e = fx("x = flip(0.5) @ a; observe(flip(0.9) @ o == x); return x;");
        assert!(e.stmts[0].head.samples.contains("a"));
        assert!(e.stmts[1].head.samples.contains("o"));
        assert!(e.stmts[1].head.reads.contains("x"));
        assert_eq!(e.ret_reads, BTreeSet::from(["x".to_string()]));
    }

    #[test]
    fn identity_seed_impacts_nothing() {
        let e = fx("a = 1; b = a + 1; observe(flip(0.5) == b); return b;");
        let set = impact(&e, &ChangeSeed::identity(e.len()));
        assert!(set.impacted.is_empty());
        assert!(set.may_dirty.is_empty());
        assert_eq!(set.skippable_count(), 3);
    }

    #[test]
    fn leaf_edit_cascades_through_reads() {
        let e = fx("a = 1; b = a + 1; c = 7; observe(flip(0.5) @ o == b); return c;");
        let mut seed = ChangeSeed::identity(e.len());
        seed.kinds[0] = ChangeKind::Changed; // a = …
        let set = impact(&e, &seed);
        // a dirties b, which dirties the observe; c is untouched.
        assert!(set.contains(0) && set.contains(1) && set.contains(3));
        assert!(set.skippable(2));
        assert!(set.may_dirty.contains("a") && set.may_dirty.contains("b"));
        assert!(!set.may_dirty.contains("c"));
        assert!(set.sites.contains("o"));
    }

    #[test]
    fn changed_if_condition_spreads_both_branches() {
        let e = fx("p = flip(0.5); if p { x = 1; } else { y = 2; } z = x + 0; return z;");
        let mut seed = ChangeSeed::identity(e.len());
        seed.kinds[1] = ChangeKind::Changed; // condition edited
        let set = impact(&e, &seed);
        assert!(set.contains(1) && set.contains(2) && set.contains(3));
        assert!(set.may_dirty.contains("x") && set.may_dirty.contains("y"));
        assert!(set.contains(4), "z reads the dirtied x");
        assert!(set.skippable(0));
    }

    #[test]
    fn inner_if_edit_does_not_spread_siblings() {
        let e = fx("p = flip(0.5); if p { x = 1; y = 2; } else { skip; } return p;");
        let mut seed = ChangeSeed::identity(e.len());
        seed.kinds[1] = ChangeKind::Inner;
        seed.kinds[2] = ChangeKind::Changed; // x = … edited
        let set = impact(&e, &seed);
        assert!(set.contains(1) && set.contains(2));
        assert!(set.skippable(3), "y = 2 is untouched");
        assert!(set.skippable(4));
    }

    #[test]
    fn while_with_any_inner_edit_spreads() {
        let e = fx("n = 0; while n < 3 { n = n + 1; m = n; } return n;");
        let mut seed = ChangeSeed::identity(e.len());
        seed.kinds[2] = ChangeKind::Changed; // n = n + 1 edited
        seed.kinds[1] = ChangeKind::Inner;
        let set = impact(&e, &seed);
        assert!(set.contains(1) && set.contains(2) && set.contains(3));
        assert!(set.may_dirty.contains("n") && set.may_dirty.contains("m"));
    }

    #[test]
    fn stale_writes_seed_the_fixpoint() {
        let e = fx("a = 1; b = a + c; return b;");
        let mut seed = ChangeSeed::identity(e.len());
        seed.stale_writes.insert("c".to_string()); // removed old stmt wrote c
        let set = impact(&e, &seed);
        assert!(set.skippable(0));
        assert!(set.contains(1));
    }

    #[test]
    fn dirty_loop_bounds_spread_the_loop_body() {
        let e = fx("n = 3; xs = array(4, 0); for i in [0..n) { xs[i] = 1; } return xs;");
        let mut seed = ChangeSeed::identity(e.len());
        seed.kinds[0] = ChangeKind::Changed; // n = …
        let set = impact(&e, &seed);
        assert!(set.contains(2) && set.contains(3));
        assert!(set.may_dirty.contains("xs") && set.may_dirty.contains("i"));
        assert!(set.skippable(1));
    }

    #[test]
    fn single_statement_effects_helper_is_transitive() {
        let p =
            parse("for i in [0..3) { xs = array(2, i); observe(flip(0.5) @ w == 1); } return 0;")
                .unwrap();
        let sum = stmt_effects(&p.body().stmts()[0]);
        assert!(sum.writes.contains("xs") && sum.writes.contains("i"));
        assert!(sum.samples.contains("w"));
    }
}
