//! Static dependence analysis over frame slots.
//!
//! Three layers, mirroring what the dynamic dependency-graph runtime
//! tracks per execution:
//!
//! 1. **Effect facts** ([`ProgramEffects`]): for every statement, in
//!    pre-order, the frame slots it may read and write — both for the
//!    statement head alone (a leaf's expressions, a branch condition, loop
//!    bounds plus the loop variable as a write) and for its whole subtree.
//!    The lowering pass that resolves names to slots gathers them
//!    ([`compile_with_effects`](crate::compile::compile_with_effects)),
//!    so a stage's pair compile
//!    ([`compiled_for_pair`](crate::compile::compiled_for_pair)) derives
//!    them in the same walk. The subtree facts are the static mirror of
//!    the dynamic block summaries recorded by the propagation runtime:
//!    every variable a dynamic record could report as read is among its
//!    statement's subtree reads.
//! 2. **Change seeds** ([`ChangeSeed`]): a per-statement classification
//!    of a program edit (unchanged / inner edits only / own computation
//!    changed) plus the slots whose old values go stale. Derived from a
//!    structural diff by the dependency-graph crate.
//! 3. **Impact slicing** ([`impact`]): a fixpoint over the effect facts
//!    computing an over-approximate [`ImpactSet`] — every statement any
//!    execution of the new program could *revisit* (fail to skip) under
//!    the edit, and every slot whose value may differ from the old
//!    execution. The set is deliberately flow-insensitive and
//!    conservative: statements outside it are *proven* skippable, so a
//!    stage plan may pre-prune them without consulting runtime dirty
//!    bits, and a dynamic run that visits a statement outside the set
//!    indicates a soundness bug (see the `--verify-slices` oracle).
//!
//! Facts, seeds and slices hold slot ids and flags, never names. Names,
//! statement labels and sample sites are rendered only where a report
//! prints them — `ppl analyze`, `ppl check` and the `--verify-slices`
//! report — through [`slot_names`], [`stmt_label`], [`preorder`] and
//! [`ImpactSet::sites`].

use std::collections::BTreeSet;

use crate::ast::{Block, Program, SiteId, Stmt};
use crate::compile::{CompiledProgram, SlotId};

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

impl StmtShape {
    /// The shape of `stmt`.
    pub fn of(stmt: &Stmt) -> StmtShape {
        match stmt {
            Stmt::If(..) => StmtShape::If,
            Stmt::For(..) => StmtShape::For,
            Stmt::While(..) => StmtShape::While,
            Stmt::Skip | Stmt::Assign(..) | Stmt::AssignIndex(..) | Stmt::Observe(..) => {
                StmtShape::Leaf
            }
        }
    }
}

/// Static facts about one statement, at its pre-order index. Its reads
/// and writes live in [`ProgramEffects`]' arenas.
#[derive(Debug, Clone, Copy)]
pub struct StmtFacts {
    /// One past the last pre-order index of this statement's subtree.
    pub end: usize,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Control shape.
    pub shape: StmtShape,
    /// The loop variable of a `for` statement.
    pub loop_var: Option<SlotId>,
    /// Where the head's reads start in the read arena.
    reads: u32,
    /// Where the head's writes start in the write arena.
    writes: u32,
}

/// Effect facts for every statement of a program, in pre-order, keyed by
/// the frame slots of the compile that gathered them.
///
/// The head reads of every statement sit back to back in one arena, in
/// pre-order, followed by the return expression's; the head writes in a
/// second. A statement's subtree facts are therefore the arena run from
/// its own head to the head after its subtree: a leaf's subtree facts are
/// its head facts, stored once. A head lists each slot once; a subtree
/// run may list a slot once per statement that reads it.
#[derive(Debug, Clone, Default)]
pub struct ProgramEffects {
    stmts: Vec<StmtFacts>,
    reads: Vec<SlotId>,
    writes: Vec<SlotId>,
    /// Where the return expression's reads start in `reads`.
    ret_reads: usize,
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

    /// The facts of the statement at pre-order index `i`.
    pub fn stmt(&self, i: usize) -> &StmtFacts {
        &self.stmts[i]
    }

    fn read_start(&self, i: usize) -> usize {
        self.stmts
            .get(i)
            .map_or(self.ret_reads, |f| f.reads as usize)
    }

    fn write_start(&self, i: usize) -> usize {
        self.stmts
            .get(i)
            .map_or(self.writes.len(), |f| f.writes as usize)
    }

    /// Slots the head of statement `i` may read.
    pub fn head_reads(&self, i: usize) -> &[SlotId] {
        &self.reads[self.read_start(i)..self.read_start(i + 1)]
    }

    /// Slots the head of statement `i` may write: an assignment's target
    /// or a `for` loop's variable.
    pub fn head_writes(&self, i: usize) -> &[SlotId] {
        &self.writes[self.write_start(i)..self.write_start(i + 1)]
    }

    /// Slots the subtree of statement `i` may read, head included.
    pub fn subtree_reads(&self, i: usize) -> &[SlotId] {
        &self.reads[self.read_start(i)..self.read_start(self.stmts[i].end)]
    }

    /// Slots the subtree of statement `i` may write, head included.
    pub fn subtree_writes(&self, i: usize) -> &[SlotId] {
        &self.writes[self.write_start(i)..self.write_start(self.stmts[i].end)]
    }

    /// Slots the `return` expression reads.
    pub fn ret_reads(&self) -> &[SlotId] {
        &self.reads[self.ret_reads..]
    }

    /// One past the last pre-order index of the `count` sibling subtrees
    /// whose first statement sits at pre-order index `start`.
    pub fn block_end(&self, start: usize, count: usize) -> usize {
        (0..count).fold(start, |i, _| self.stmts[i].end)
    }

    /// The pre-order indices of sibling statements, the first at `start`:
    /// each one follows the subtree of the one before. Take no more than
    /// the block has.
    pub fn siblings(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(start), |&i| Some(self.stmts[i].end))
    }
}

/// Gathers [`ProgramEffects`] while the lowering pass walks a program:
/// statements are entered in pre-order, and every head's reads and writes
/// are noted before its children are entered.
#[derive(Debug, Default)]
pub(crate) struct EffectsBuilder {
    effects: ProgramEffects,
    /// Nesting depth of the statements entered next.
    depth: usize,
    /// The head being gathered, numbered from 1.
    head: u32,
    /// Per slot, the last head that read it, so a head lists it once.
    last_read: Vec<u32>,
}

impl EffectsBuilder {
    /// Starts the facts of the next statement in pre-order and returns its
    /// index.
    pub(crate) fn enter(&mut self, shape: StmtShape) -> usize {
        let index = self.effects.stmts.len();
        self.head += 1;
        self.effects.stmts.push(StmtFacts {
            end: index + 1,
            depth: self.depth,
            shape,
            loop_var: None,
            reads: self.effects.reads.len() as u32,
            writes: self.effects.writes.len() as u32,
        });
        index
    }

    /// Closes statement `index`: its subtree ends with the statements
    /// entered so far.
    pub(crate) fn exit(&mut self, index: usize) {
        self.effects.stmts[index].end = self.effects.stmts.len();
    }

    /// Enters (`true`) or leaves (`false`) a nested block.
    pub(crate) fn nest(&mut self, inside: bool) {
        if inside {
            self.depth += 1;
        } else {
            self.depth -= 1;
        }
    }

    /// Notes a read of `slot` by the current head.
    pub(crate) fn read(&mut self, slot: SlotId) {
        let i = slot.index();
        if i >= self.last_read.len() {
            self.last_read.resize(i + 1, 0);
        }
        if self.last_read[i] != self.head {
            self.last_read[i] = self.head;
            self.effects.reads.push(slot);
        }
    }

    /// Notes a write of `slot` by the current head.
    pub(crate) fn write(&mut self, slot: SlotId) {
        self.effects.writes.push(slot);
    }

    /// Marks `slot` as the loop variable of `for` statement `index`.
    pub(crate) fn loop_var(&mut self, index: usize, slot: SlotId) {
        self.effects.stmts[index].loop_var = Some(slot);
    }

    /// Ends the body: the reads noted from here on are the return
    /// expression's.
    pub(crate) fn end_body(&mut self) {
        self.head += 1;
        self.effects.ret_reads = self.effects.reads.len();
    }

    pub(crate) fn finish(self) -> ProgramEffects {
        self.effects
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
    /// program (same indexing as [`ProgramEffects`]).
    pub kinds: Vec<ChangeKind>,
    /// One flag per frame slot: whether the slot's old value goes stale,
    /// as a write of a removed or edited old-program statement.
    pub stale_writes: Vec<bool>,
}

impl ChangeSeed {
    /// The identity seed over `len` statements and `slots` frame slots:
    /// nothing changed.
    pub fn identity(len: usize, slots: usize) -> ChangeSeed {
        ChangeSeed {
            kinds: vec![ChangeKind::Unchanged; len],
            stale_writes: vec![false; slots],
        }
    }
}

/// The over-approximate impact slice of an edit.
#[derive(Debug, Clone)]
pub struct ImpactSet {
    /// Per statement of the new program: whether some execution could
    /// revisit it under the edit.
    impacted: Vec<bool>,
    /// Per statement: whether its whole subtree was spread into the slice
    /// (so every site in it may be revisited, not just its head's).
    spread: Vec<bool>,
    /// Per frame slot: whether its value may differ from the old
    /// execution.
    may_dirty: Vec<bool>,
    /// Number of set `impacted` flags.
    count: usize,
}

impl ImpactSet {
    /// Whether statement `index` may be revisited.
    pub fn contains(&self, index: usize) -> bool {
        self.impacted.get(index).copied().unwrap_or(false)
    }

    /// Whether statement `index` is statically proven skippable.
    pub fn skippable(&self, index: usize) -> bool {
        !self.contains(index)
    }

    /// Total number of statements in the new program.
    pub fn total(&self) -> usize {
        self.impacted.len()
    }

    /// Number of statements that may be revisited.
    pub fn impacted_count(&self) -> usize {
        self.count
    }

    /// Number of statements statically proven skippable.
    pub fn skippable_count(&self) -> usize {
        self.total() - self.count
    }

    /// Pre-order indices of the statements that may be revisited, in
    /// order.
    pub fn impacted(&self) -> impl Iterator<Item = usize> + '_ {
        self.impacted
            .iter()
            .enumerate()
            .filter_map(|(i, hit)| hit.then_some(i))
    }

    /// The slots whose values may differ from the old execution.
    pub fn may_dirty(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.may_dirty
            .iter()
            .enumerate()
            .filter_map(|(i, dirty)| dirty.then_some(SlotId::from_index(i)))
    }

    /// The site labels whose choices or observations may be revisited,
    /// rendered for reports. `stmts` are the new program's statements in
    /// pre-order ([`preorder`]).
    pub fn sites(&self, stmts: &[&Stmt]) -> BTreeSet<String> {
        let mut sites = Vec::new();
        for i in self.impacted() {
            if self.spread[i] || StmtShape::of(stmts[i]) == StmtShape::Leaf {
                stmts[i].collect_sites(&mut sites);
            } else {
                // Visited control statement whose children are judged
                // individually: only its own head re-evaluates.
                head_sites(stmts[i], &mut sites);
            }
        }
        sites.iter().map(|s| s.as_str().to_string()).collect()
    }
}

/// Whether any of `slots` is flagged in `flags`.
fn any_flagged(flags: &[bool], slots: &[SlotId]) -> bool {
    slots.iter().any(|s| flags[s.index()])
}

/// Flags every slot of `slots` in `flags`.
fn flag_all(flags: &mut [bool], slots: &[SlotId]) {
    for s in slots {
        flags[s.index()] = true;
    }
}

/// Computes the impact slice of an edit described by `seed` over the
/// effect facts of the new program.
///
/// The result is sound with respect to the dynamic skip rule of the
/// propagation runtime, which skips a statement iff it is syntactically
/// unchanged *and* none of its recorded reads is dirty:
///
/// - every dynamically dirty variable's slot is flagged may-dirty (dirty
///   values originate from re-executed or removed writes, and every
///   statement that can re-execute contributes its writes here);
/// - every dynamically visited statement is impacted (a statement is
///   visited only when it is changed or reads a dirty variable, and
///   static subtree reads over-approximate recorded reads).
pub fn impact(effects: &ProgramEffects, seed: &ChangeSeed) -> ImpactSet {
    let n = effects.len();
    debug_assert_eq!(seed.kinds.len(), n, "seed must cover every statement");
    let mut impacted = vec![false; n];
    let mut spread = vec![false; n];
    let mut dirty = seed.stale_writes.clone();
    let spread_subtree =
        |i: usize, impacted: &mut [bool], spread: &mut [bool], dirty: &mut [bool]| {
            spread[i] = true;
            impacted[i..effects.stmt(i).end].fill(true);
            flag_all(dirty, effects.subtree_writes(i));
        };

    // A `while` loop whose subtree carries any edit may change its
    // iteration count, which can re-execute anything inside: treat the
    // whole loop as changed.
    let while_touched = |i: usize| {
        effects.stmt(i).shape == StmtShape::While
            && seed.kinds[i..effects.stmt(i).end]
                .iter()
                .any(|k| *k != ChangeKind::Unchanged)
    };

    // Seed pass.
    for i in 0..n {
        let facts = effects.stmt(i);
        match seed.kinds[i] {
            ChangeKind::Unchanged => {}
            ChangeKind::Inner => {
                impacted[i] = true;
                // Re-visited loop iterations rebind the loop variable.
                if let Some(var) = facts.loop_var {
                    dirty[var.index()] = true;
                }
            }
            ChangeKind::Changed => match facts.shape {
                StmtShape::Leaf => {
                    impacted[i] = true;
                    flag_all(&mut dirty, effects.head_writes(i));
                }
                StmtShape::If | StmtShape::For | StmtShape::While => {
                    spread_subtree(i, &mut impacted, &mut spread, &mut dirty);
                }
            },
        }
        if !spread[i] && while_touched(i) {
            spread_subtree(i, &mut impacted, &mut spread, &mut dirty);
        }
    }

    // Fixpoint: dirty reads make statements re-executable, and
    // re-executed statements dirty their writes.
    loop {
        let mut changed = false;
        for i in 0..n {
            let facts = effects.stmt(i);
            match facts.shape {
                StmtShape::Leaf => {
                    if !impacted[i] && any_flagged(&dirty, effects.head_reads(i)) {
                        impacted[i] = true;
                        flag_all(&mut dirty, effects.head_writes(i));
                        changed = true;
                    }
                }
                StmtShape::If => {
                    // A possibly different condition can flip the branch:
                    // either branch could then run fresh.
                    if !spread[i] && any_flagged(&dirty, effects.head_reads(i)) {
                        spread_subtree(i, &mut impacted, &mut spread, &mut dirty);
                        changed = true;
                    } else if !impacted[i] && any_flagged(&dirty, effects.subtree_reads(i)) {
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
                    if !spread[i] && any_flagged(&dirty, effects.head_reads(i)) {
                        spread_subtree(i, &mut impacted, &mut spread, &mut dirty);
                        changed = true;
                    } else if any_flagged(&dirty, effects.subtree_reads(i)) {
                        if !impacted[i] {
                            impacted[i] = true;
                            changed = true;
                        }
                        if let Some(var) = facts.loop_var {
                            if !dirty[var.index()] {
                                dirty[var.index()] = true;
                                changed = true;
                            }
                        }
                    }
                }
                StmtShape::While => {
                    // Any dirty read inside a `while` can change how many
                    // iterations run: conservatively re-run everything.
                    if !spread[i] && any_flagged(&dirty, effects.subtree_reads(i)) {
                        spread_subtree(i, &mut impacted, &mut spread, &mut dirty);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let count = impacted.iter().filter(|hit| **hit).count();
    ImpactSet {
        impacted,
        spread,
        may_dirty: dirty,
        count,
    }
}

// ---------------------------------------------------------------------------
// Rendering for reports.
// ---------------------------------------------------------------------------

/// The statements of `program` in pre-order: index `i` of the result is
/// the statement at pre-order index `i` of [`ProgramEffects`].
pub fn preorder(program: &Program) -> Vec<&Stmt> {
    fn walk<'a>(block: &'a Block, out: &mut Vec<&'a Stmt>) {
        for stmt in block.stmts() {
            out.push(stmt);
            match stmt {
                Stmt::If(_, then_b, else_b) => {
                    walk(then_b, out);
                    walk(else_b, out);
                }
                Stmt::While(_, body) | Stmt::For(_, _, _, body) => walk(body, out),
                Stmt::Skip | Stmt::Assign(..) | Stmt::AssignIndex(..) | Stmt::Observe(..) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(program.body(), &mut out);
    out
}

/// A short human-readable rendering of a statement for reports.
pub fn stmt_label(stmt: &Stmt) -> String {
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

/// Appends the sites a statement's head samples or observes at: a leaf's
/// every site, a branch or loop condition's, or loop bounds'. The sites of
/// its whole subtree are [`Stmt::collect_sites`].
pub fn head_sites(stmt: &Stmt, out: &mut Vec<SiteId>) {
    match stmt {
        Stmt::If(cond, ..) | Stmt::While(cond, _) => cond.collect_sites(out),
        Stmt::For(_, lo, hi, _) => {
            lo.collect_sites(out);
            hi.collect_sites(out);
        }
        Stmt::Skip | Stmt::Assign(..) | Stmt::AssignIndex(..) | Stmt::Observe(..) => {
            stmt.collect_sites(out)
        }
    }
}

/// The names of `slots` in `compiled`, sorted and deduplicated.
pub fn slot_names(
    compiled: &CompiledProgram,
    slots: impl IntoIterator<Item = SlotId>,
) -> BTreeSet<&'static str> {
    slots.into_iter().map(|s| compiled.slot_name(s)).collect()
}

/// Calls `f` with every variable `stmt` may write, nested blocks
/// included: assignment targets and loop variables.
pub fn for_each_write<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a str)) {
    let nested: &[Stmt] = match stmt {
        Stmt::Assign(name, _) | Stmt::AssignIndex(name, ..) => {
            f(name);
            &[]
        }
        Stmt::For(var, _, _, body) => {
            f(var);
            body.stmts()
        }
        Stmt::If(_, then_b, else_b) => {
            then_b.stmts().iter().for_each(|s| for_each_write(s, f));
            else_b.stmts()
        }
        Stmt::While(_, body) => body.stmts(),
        Stmt::Skip | Stmt::Observe(..) => &[],
    };
    for s in nested {
        for_each_write(s, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_with_effects;
    use crate::parse;

    /// The effect facts of `src`, with the compiled form naming their
    /// slots.
    fn fx(src: &str) -> (CompiledProgram, ProgramEffects) {
        compile_with_effects(&parse(src).unwrap(), None)
    }

    fn names(c: &CompiledProgram, slots: &[SlotId]) -> Vec<&'static str> {
        slot_names(c, slots.iter().copied()).into_iter().collect()
    }

    fn slot(c: &CompiledProgram, name: &str) -> usize {
        c.slot_of(name).unwrap().index()
    }

    fn dirty_names(c: &CompiledProgram, set: &ImpactSet) -> Vec<&'static str> {
        slot_names(c, set.may_dirty()).into_iter().collect()
    }

    #[test]
    fn preorder_indices_and_subtree_ranges() {
        let p =
            parse("a = 1; if a > 0 { b = 2; c = 3; } else { d = 4; } e = 5; return e;").unwrap();
        let (_, e) = compile_with_effects(&p, None);
        // a=1 | if | b=2 | c=3 | d=4 | e=5
        assert_eq!(e.len(), 6);
        assert_eq!(e.stmt(1).shape, StmtShape::If);
        assert_eq!(e.stmt(1).end, 5);
        assert_eq!(e.stmt(3).depth, 1);
        assert_eq!(stmt_label(preorder(&p)[5]), "e = …");
        assert_eq!(e.block_end(0, 3), 6);
    }

    #[test]
    fn loop_effects_include_loop_variable_and_bounds() {
        let (c, e) = fx("n = 3; xs = array(n, 0); for i in [0..n) { xs[i] = i * 2; } return xs;");
        let f = e.stmt(2);
        assert_eq!(f.shape, StmtShape::For);
        assert_eq!(f.loop_var.map(|s| c.slot_name(s)), Some("i"));
        assert_eq!(names(&c, e.head_reads(2)), ["n"]);
        assert_eq!(names(&c, e.head_writes(2)), ["i"]);
        assert_eq!(names(&c, e.subtree_writes(2)), ["i", "xs"]);
        assert_eq!(names(&c, e.subtree_reads(2)), ["i", "n", "xs"]);
    }

    #[test]
    fn a_head_lists_each_read_once_and_a_leaf_subtree_is_its_head() {
        let (c, e) = fx("x = 1; xs = array(2, x); xs[x] = x + x * x; return xs;");
        assert_eq!(e.head_reads(2).len(), 2, "x and the updated array xs");
        assert_eq!(e.subtree_reads(2), e.head_reads(2));
        assert_eq!(names(&c, e.ret_reads()), ["xs"]);
    }

    #[test]
    fn sample_sites_render_from_the_statements() {
        let p = parse(
            "x = flip(0.5) @ a; if x { observe(flip(0.9) @ o == x); } else { skip; } return x;",
        )
        .unwrap();
        let stmts = preorder(&p);
        let mut head = Vec::new();
        head_sites(stmts[1], &mut head);
        assert!(head.is_empty(), "the condition samples nothing");
        let mut subtree = Vec::new();
        stmts[1].collect_sites(&mut subtree);
        assert_eq!(subtree, [SiteId::new("o")]);
    }

    #[test]
    fn identity_seed_impacts_nothing() {
        let (c, e) = fx("a = 1; b = a + 1; observe(flip(0.5) == b); return b;");
        let set = impact(&e, &ChangeSeed::identity(e.len(), c.slot_count()));
        assert_eq!(set.impacted_count(), 0);
        assert_eq!(set.may_dirty().count(), 0);
        assert_eq!(set.skippable_count(), 3);
    }

    #[test]
    fn leaf_edit_cascades_through_reads() {
        let src = "a = 1; b = a + 1; c = 7; observe(flip(0.5) @ o == b); return c;";
        let p = parse(src).unwrap();
        let (c, e) = compile_with_effects(&p, None);
        let mut seed = ChangeSeed::identity(e.len(), c.slot_count());
        seed.kinds[0] = ChangeKind::Changed; // a = …
        let set = impact(&e, &seed);
        // a dirties b, which dirties the observe; c is untouched.
        assert_eq!(set.impacted().collect::<Vec<_>>(), [0, 1, 3]);
        assert!(set.skippable(2));
        assert_eq!(dirty_names(&c, &set), ["a", "b"]);
        assert_eq!(set.sites(&preorder(&p)), BTreeSet::from(["o".to_string()]));
    }

    #[test]
    fn changed_if_condition_spreads_both_branches() {
        let (c, e) = fx("p = flip(0.5); if p { x = 1; } else { y = 2; } z = x + 0; return z;");
        let mut seed = ChangeSeed::identity(e.len(), c.slot_count());
        seed.kinds[1] = ChangeKind::Changed; // condition edited
        let set = impact(&e, &seed);
        assert!(set.contains(1) && set.contains(2) && set.contains(3));
        assert_eq!(dirty_names(&c, &set), ["x", "y", "z"]);
        assert!(set.contains(4), "z reads the dirtied x");
        assert!(set.skippable(0));
    }

    #[test]
    fn inner_if_edit_does_not_spread_siblings() {
        let (c, e) = fx("p = flip(0.5); if p { x = 1; y = 2; } else { skip; } return p;");
        let mut seed = ChangeSeed::identity(e.len(), c.slot_count());
        seed.kinds[1] = ChangeKind::Inner;
        seed.kinds[2] = ChangeKind::Changed; // x = … edited
        let set = impact(&e, &seed);
        assert!(set.contains(1) && set.contains(2));
        assert!(set.skippable(3), "y = 2 is untouched");
        assert!(set.skippable(4));
    }

    #[test]
    fn while_with_any_inner_edit_spreads() {
        let (c, e) = fx("n = 0; while n < 3 { n = n + 1; m = n; } return n;");
        let mut seed = ChangeSeed::identity(e.len(), c.slot_count());
        seed.kinds[2] = ChangeKind::Changed; // n = n + 1 edited
        seed.kinds[1] = ChangeKind::Inner;
        let set = impact(&e, &seed);
        assert!(set.contains(1) && set.contains(2) && set.contains(3));
        assert_eq!(dirty_names(&c, &set), ["m", "n"]);
    }

    #[test]
    fn stale_writes_seed_the_fixpoint() {
        let (c, e) = fx("a = 1; b = a + c; return b;");
        let mut seed = ChangeSeed::identity(e.len(), c.slot_count());
        seed.stale_writes[slot(&c, "c")] = true; // removed old stmt wrote c
        let set = impact(&e, &seed);
        assert!(set.skippable(0));
        assert!(set.contains(1));
    }

    #[test]
    fn dirty_loop_bounds_spread_the_loop_body() {
        let (c, e) = fx("n = 3; xs = array(4, 0); for i in [0..n) { xs[i] = 1; } return xs;");
        let mut seed = ChangeSeed::identity(e.len(), c.slot_count());
        seed.kinds[0] = ChangeKind::Changed; // n = …
        let set = impact(&e, &seed);
        assert!(set.contains(2) && set.contains(3));
        assert_eq!(dirty_names(&c, &set), ["i", "n", "xs"]);
        assert!(set.skippable(1));
    }

    #[test]
    fn writes_are_collected_through_nested_blocks() {
        let p =
            parse("for i in [0..3) { xs = array(2, i); observe(flip(0.5) @ w == 1); } return 0;")
                .unwrap();
        let mut writes = Vec::new();
        for_each_write(&p.body().stmts()[0], &mut |name| writes.push(name));
        assert_eq!(writes, ["i", "xs"]);
    }
}
