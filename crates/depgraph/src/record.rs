//! Execution graphs: the trace representation of Section 6.
//!
//! "We assume that t is provided to the algorithm in the form of a graph
//! data structure G_t, where every expression, sub-expression, and
//! statement evaluated during the construction of t is a node." Our
//! [`ExecGraph`] stores one *record* per executed statement instance,
//! organized as a tree mirroring the program structure; dependencies are
//! tracked through variable read/write *summaries* on each record rather
//! than explicit edges (the summaries are what change propagation needs).
//!
//! Records are linked by `Arc`: a block owns its statement records, and
//! an `if`, `for` or `while` record owns its body blocks. The incremental
//! translator shares an unchanged subtree between `G_t` and `G_u` by
//! cloning the subtree's `Arc` (O(1), the key to the `O(K)`
//! hyperparameter edit of Figure 10), and a record is freed when the
//! last graph that refers to it drops, so graph memory follows the live
//! graphs rather than the edit history. Duplicating a graph under
//! resampling clones one `Arc<ExecGraph>`.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use ppl::address::Component;
use ppl::ast::Program;
use ppl::compile::{CompiledProgram, SitePath, SiteStep};
use ppl::dist::Dist;
use ppl::{Address, AddressId, ChoiceMap, LogWeight, PplError, Trace, Value};

/// The global variable-name interner, shared with the compiled-program
/// slot tables in [`ppl::compile`].
///
/// Dependency summaries hold reads as `&'static str`, so aggregating a
/// child summary into its parent (done once per visited block, at every
/// nesting level, for every particle) copies pointer-sized values
/// instead of allocating a `String` per name. Sharing one interner with
/// `ppl` means a compiled slot name and a summary read of the same
/// variable are the *same* pointer.
pub use ppl::intern_name;

/// The recorded data of one random choice.
#[derive(Debug, Clone)]
pub struct ChoiceData {
    /// The value.
    pub value: Value,
    /// The distribution with concrete parameters at evaluation time.
    pub dist: Dist,
    /// Its log probability.
    pub log_prob: LogWeight,
}

/// The recorded data of one observation.
#[derive(Debug, Clone)]
pub struct ObsData {
    /// The observed value.
    pub value: Value,
    /// The observation distribution.
    pub dist: Dist,
    /// Its log likelihood.
    pub log_prob: LogWeight,
}

/// One write performed by a statement.
#[derive(Debug, Clone)]
pub enum Effect {
    /// `x = value`
    Var(&'static str, Value),
    /// `x[i] = value`
    Elem(&'static str, i64, Value),
}

impl Effect {
    /// The written variable's name ([`intern_name`]-interned, so effect
    /// aggregation copies pointers, not strings).
    pub fn var_name(&self) -> &'static str {
        match self {
            Effect::Var(name, _) | Effect::Elem(name, _, _) => name,
        }
    }
}

/// A set of variable names kept in insertion order.
///
/// A record's read set holds a handful of names, so a linear scan beats a
/// tree, and the first insert allocates one 4-name buffer instead of a
/// B-tree leaf. Nothing observes the order: dirty checks ask whether
/// *any* read is dirty, and aggregation is a set union.
#[derive(Debug, Clone, Default)]
pub struct ReadSet(Vec<&'static str>);

impl ReadSet {
    /// Adds `name` unless it is already present.
    pub(crate) fn insert(&mut self, name: &'static str) {
        if !self.contains(name) {
            self.0.push(name);
        }
    }

    /// Adds every name of `names` that is not already present.
    pub(crate) fn extend(&mut self, names: impl IntoIterator<Item = &'static str>) {
        for name in names {
            self.insert(name);
        }
    }

    /// Whether `name` is in the set.
    pub fn contains(&self, name: &str) -> bool {
        self.0.contains(&name)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The number of names.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The first `n` names, in insertion order, as a set of their own.
    pub(crate) fn prefix(&self, n: usize) -> ReadSet {
        ReadSet(self.0[..n].to_vec())
    }

    /// The names, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().copied()
    }
}

/// Dependency summary of a record subtree.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Variables read anywhere in the subtree (including loop variables
    /// and array index expressions), as [`intern_name`]-interned names so
    /// summary aggregation copies pointers, not strings.
    pub reads: ReadSet,
    /// Writes, in execution order. Loop records compress element writes
    /// into one final [`Effect::Var`] snapshot per variable (O(1) to
    /// apply thanks to `Arc`-backed arrays).
    pub effects: Vec<Effect>,
    /// Random choices made directly by this record (leaves, conditions,
    /// and bounds — not descendants).
    pub choices: Vec<(Address, ChoiceData)>,
    /// Observations made directly by this record.
    pub observations: Vec<(Address, ObsData)>,
    /// Total observation log likelihood of the subtree *including*
    /// descendants — the "removed observation" factor of Section 6.
    pub obs_score: LogWeight,
}

/// A recorded statement instance.
#[derive(Debug, Clone)]
pub enum StmtRecord {
    /// `skip`
    Skip,
    /// A leaf statement: assignment, element assignment, or observation.
    Leaf {
        /// Dependency summary.
        summary: Summary,
    },
    /// An executed `if`.
    If {
        /// Whether the then-branch was taken.
        took_then: bool,
        /// The executed branch's records.
        body: Arc<BlockRecord>,
        /// Summary covering the condition and the executed branch.
        summary: Summary,
    },
    /// An executed `for` loop.
    For {
        /// Evaluated lower bound.
        lo: i64,
        /// Evaluated upper bound (exclusive).
        hi: i64,
        /// Per-iteration records, indexed `0 ↦ lo`, `1 ↦ lo+1`, ….
        iters: Vec<Arc<BlockRecord>>,
        /// Summary with compressed (snapshot) effects. Its reads list
        /// first what the iterations read from outside the loop, then
        /// the bounds' reads.
        summary: Summary,
        /// How many of the summary's reads the iterations made. A later
        /// walk checks only these to share every iteration at once. They
        /// lead because a read set keeps one copy of each name: a
        /// variable that both a bound and the body read must count as an
        /// iteration read.
        iter_reads: u32,
        /// Whether the loop's first write to some array writes one
        /// element, so the loop kept the other elements as it found them.
        /// The effect snapshot holds those elements, and a numerically
        /// equal array that a later walk finds can differ from them in
        /// type (`1` against `1.0`), so that walk does not share the
        /// iterations at once.
        incoming_elems: bool,
    },
    /// An executed `while` loop.
    While {
        /// Per-iteration records (the last one has `continued == false`
        /// and no body).
        iters: Vec<WhileIter>,
        /// Summary with compressed (snapshot) effects.
        summary: Summary,
    },
}

/// One iteration of a recorded `while` loop: the condition evaluation
/// plus, when the condition held, the body.
#[derive(Debug, Clone)]
pub struct WhileIter {
    /// Reads and random choices of the condition evaluation at this
    /// iteration (addresses carry the iteration index).
    pub cond: Summary,
    /// Whether the condition evaluated to true (and the body ran).
    pub continued: bool,
    /// The body records (present iff `continued`).
    pub body: Option<Arc<BlockRecord>>,
}

impl WhileIter {
    /// Aggregate observation score of the iteration (condition + body).
    pub fn obs_score(&self) -> LogWeight {
        let body = self
            .body
            .as_ref()
            .map_or(LogWeight::ONE, |b| b.summary.obs_score);
        self.cond.obs_score + body
    }

    /// Reads of the iteration (condition + body), for skip checks.
    pub fn reads(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.cond
            .reads
            .iter()
            .chain(self.body.iter().flat_map(|b| b.summary.reads.iter()))
    }
}

impl StmtRecord {
    /// The record's dependency summary (empty for `skip`).
    pub fn summary(&self) -> Option<&Summary> {
        match self {
            StmtRecord::Skip => None,
            StmtRecord::Leaf { summary }
            | StmtRecord::If { summary, .. }
            | StmtRecord::For { summary, .. }
            | StmtRecord::While { summary, .. } => Some(summary),
        }
    }
}

/// The records of one executed block, with an aggregate summary.
#[derive(Debug, Clone, Default)]
pub struct BlockRecord {
    /// One record per executed statement, in order.
    pub stmts: Vec<Arc<StmtRecord>>,
    /// Aggregate summary of the whole block ([`BlockRecord::finalize`]).
    /// Only nested blocks' summaries are read (by their parent record's
    /// summary and by skip checks), so a translated graph's root keeps
    /// an empty one; a built graph's root is still sealed (see
    /// [`ExecGraph::root`]).
    pub summary: Summary,
}

impl BlockRecord {
    /// Builds the aggregate summary from the statement records.
    ///
    /// Reads are filtered def-before-use: a variable read by a statement
    /// does not become a *block* read if an earlier statement of the
    /// block already wrote it — only genuinely external dependencies
    /// surface. (An element write counts as a definition because the
    /// writing statement records its own read of the array, so the
    /// array's external dependency — if any — is already surfaced.)
    /// This is what lets change propagation skip an entire unchanged
    /// loop whose body wires its iterations together through variables
    /// defined inside the loop.
    pub fn finalize(stmts: Vec<Arc<StmtRecord>>) -> BlockRecord {
        let mut summary = Summary::default();
        let mut written: BTreeSet<&str> = BTreeSet::new();
        for stmt in &stmts {
            if let Some(s) = stmt.summary() {
                summary
                    .reads
                    .extend(s.reads.iter().filter(|r| !written.contains(r)));
                summary.effects.extend(s.effects.iter().cloned());
                summary.obs_score += s.obs_score;
                written.extend(s.effects.iter().map(|e| e.var_name()));
            }
        }
        BlockRecord { stmts, summary }
    }
}

/// The execution graph of one program run.
///
/// A graph holds no address index. A lookup resolves an address
/// `site/i₁/…/iₖ` along the static paths of `site` in the compiled
/// program's [`SiteTable`](ppl::compile::SiteTable). Records are
/// index-aligned with the compiled blocks, so each step is one pointer
/// dereference and a lookup costs O(nesting depth) whatever the trace
/// size.
/// Producing a translated graph therefore stays proportional to the
/// visited nodes (the Figure 10 `O(K)` property), and so does querying
/// it.
#[derive(Debug, Clone)]
pub struct ExecGraph {
    /// The program this graph was built from (shared, so graphs produced
    /// by a chain of translations alias one allocation per program and
    /// validation can compare `Arc` identity).
    pub program: Arc<Program>,
    /// The compiled program the graph was walked with; its site table
    /// resolves addresses.
    compiled: Arc<CompiledProgram>,
    /// The root block record, which owns (or shares with other graphs)
    /// every record of the run. Its summary is empty when a translation
    /// produced the graph: nothing reads it, and sealing it cost
    /// O(program) per particle. A build still seals it; see the
    /// `fingerprint` memo for why.
    root: BlockRecord,
    /// The return value of the execution.
    pub return_value: Value,
    /// The program's fingerprint, memoized per graph. `Program` memoizes
    /// it as well, so this memo saves nothing; it stays because removing
    /// its 16 bytes moves the graph's `Arc` out of glibc's 208-byte size
    /// class. In that class the allocation reuses the chunk that a graph
    /// build's root `finalize` has just freed; outside it, the
    /// edit-session benchmark's repeated set-ups return their heap to the
    /// OS and fault it back in (`tail_edit` `setup_s` +50%). Dropping the
    /// root summary from builds also slows those set-ups, which is why
    /// builds still seal their root. ROADMAP item 2 tracks making set-up
    /// independent of this placement.
    fingerprint: OnceLock<u64>,
}

/// The program's structural fingerprint ([`Program::fingerprint`]), which
/// checkpoints store to check that they resume into the program they
/// were written from.
pub fn program_fingerprint(program: &Program) -> u64 {
    program.fingerprint()
}

impl ExecGraph {
    /// Assembles a graph from the records a walk of `compiled` (the
    /// compiled form of `program`) produced. Duplicate addresses (which
    /// only well-formed programs avoid) surface as
    /// [`PplError::AddressCollision`] from [`ExecGraph::to_trace`] and
    /// [`ExecGraph::choice_maps`].
    pub fn assemble(
        program: Arc<Program>,
        compiled: Arc<CompiledProgram>,
        root: BlockRecord,
        return_value: Value,
    ) -> ExecGraph {
        ExecGraph {
            program,
            compiled,
            root,
            return_value,
            fingerprint: OnceLock::new(),
        }
    }

    /// The graph's record counts in the shape the edit-session benchmark
    /// (`bench_edits`) reads them: the records reachable from the root,
    /// in one "segment". It exists only for that benchmark's
    /// records-per-particle metrics.
    pub fn store(&self) -> RecordCount {
        RecordCount {
            records: count_records(&self.root),
        }
    }

    /// The root block record. A translated graph's root has an empty
    /// summary; a built graph's root is sealed by
    /// [`BlockRecord::finalize`].
    pub fn root(&self) -> &BlockRecord {
        &self.root
    }

    /// The fingerprint of this graph's program ([`Program::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.program.fingerprint())
    }

    /// Looks up the choice at `addr` in `t`. When several records carry
    /// the address, the first in execution order wins.
    pub fn choice(&self, addr: &Address) -> Option<&ChoiceData> {
        let (site, indices) = split_address(addr)?;
        let paths = self.compiled.sites().choice_paths(site);
        self.first_on(paths, addr, indices, |s| &s.choices)
    }

    /// Looks up the choice at an interned address id (change propagation
    /// resolves every reuse candidate through here).
    pub fn choice_by_id(&self, id: AddressId) -> Option<&ChoiceData> {
        self.choice(id.resolve())
    }

    /// Looks up the observation at `addr`.
    pub fn observation(&self, addr: &Address) -> Option<&ObsData> {
        let (site, indices) = split_address(addr)?;
        let paths = self.compiled.sites().observation_paths(site);
        self.first_on(paths, addr, indices, |s| &s.observations)
    }

    /// The first record at `addr` in the summaries `paths` reach, trying
    /// the paths in pre-order.
    fn first_on<'g, T>(
        &'g self,
        mut paths: impl Iterator<Item = SitePath<'g>>,
        addr: &Address,
        indices: &[Component],
        records: impl Fn(&'g Summary) -> &'g Vec<(Address, T)>,
    ) -> Option<&'g T> {
        paths.find_map(|path| {
            let summary = self.resolve(path, indices)?;
            records(summary)
                .iter()
                .find(|(a, _)| a == addr)
                .map(|(_, r)| r)
        })
    }

    /// Follows `path` through the records, taking one of `indices` per
    /// loop step, to the summary of the statement (or `while` condition)
    /// it names. `None` when the run never reached that statement
    /// instance.
    fn resolve(&self, path: SitePath<'_>, indices: &[Component]) -> Option<&Summary> {
        if path.loops() != indices.len() {
            return None;
        }
        let mut indices = indices.iter();
        let mut block = &self.root;
        let mut stmt = &StmtRecord::Skip;
        for step in path.steps() {
            match (*step, stmt) {
                (SiteStep::Stmt(i), _) => stmt = block.stmts.get(i as usize)?,
                (
                    SiteStep::Branch(then),
                    StmtRecord::If {
                        took_then, body, ..
                    },
                ) if *took_then == then => {
                    block = body;
                }
                (SiteStep::ForIter, StmtRecord::For { lo, iters, .. }) => {
                    let k = next_index(&mut indices)?.checked_sub(*lo)?;
                    block = iters.get(usize::try_from(k).ok()?)?;
                }
                (SiteStep::WhileBody, StmtRecord::While { iters, .. }) => {
                    let i = usize::try_from(next_index(&mut indices)?).ok()?;
                    block = iters.get(i)?.body.as_ref()?;
                }
                (SiteStep::WhileCond, StmtRecord::While { iters, .. }) => {
                    let i = usize::try_from(next_index(&mut indices)?).ok()?;
                    return Some(&iters.get(i)?.cond);
                }
                _ => return None,
            }
        }
        stmt.summary()
    }

    /// Number of recorded choices.
    pub fn num_choices(&self) -> usize {
        self.summaries().iter().map(|s| s.choices.len()).sum()
    }

    /// `log P̃r[t ∼ P]`: total score of the recorded execution, summed in
    /// execution order (as [`Trace::score`] sums the flattened trace).
    pub fn score(&self) -> LogWeight {
        let summaries = self.summaries();
        let choices: LogWeight = summaries
            .iter()
            .flat_map(|s| &s.choices)
            .map(|(_, c)| c.log_prob)
            .sum();
        let observations: LogWeight = summaries
            .iter()
            .flat_map(|s| &s.observations)
            .map(|(_, o)| o.log_prob)
            .sum();
        choices + observations
    }

    /// Flattens the graph into a [`Trace`] (O(trace size)).
    ///
    /// # Errors
    ///
    /// Returns [`PplError::AddressCollision`] on duplicate addresses.
    pub fn to_trace(&self) -> Result<Trace, PplError> {
        let mut trace = Trace::new();
        for summary in self.summaries() {
            for (addr, data) in &summary.choices {
                trace.record_choice(
                    addr.clone(),
                    data.value.clone(),
                    data.dist.clone(),
                    data.log_prob,
                )?;
            }
            for (addr, data) in &summary.observations {
                trace.record_observation(
                    addr.clone(),
                    data.value.clone(),
                    data.dist.clone(),
                    data.log_prob,
                )?;
            }
        }
        trace.set_return_value(self.return_value.clone());
        Ok(trace)
    }

    /// The values of the graph's choices by address: what
    /// `to_trace()?.to_choice_map()` returns, without building the trace
    /// (no distribution is cloned and no log-probability kept).
    ///
    /// # Errors
    ///
    /// [`PplError::AddressCollision`] wherever [`ExecGraph::to_trace`]
    /// returns it: on the first choice address or observation address
    /// recorded twice, in execution order.
    pub fn choice_map(&self) -> Result<ChoiceMap, PplError> {
        let map = ExecGraph::choice_maps(&[self])?
            .pop()
            .expect("one map per graph");
        Ok(Arc::unwrap_or_clone(map))
    }

    /// [`ExecGraph::choice_map`] of each of `graphs`, in order, in one
    /// call: how checkpoints flatten a collection. Each record that
    /// several graphs share is listed once, and graphs whose choices and
    /// observation addresses are identical, values compared bit for bit,
    /// share one `Arc` (the `flatten` module gives the argument).
    ///
    /// # Errors
    ///
    /// As [`ExecGraph::choice_map`], for the first graph in order that
    /// fails.
    pub fn choice_maps(graphs: &[&ExecGraph]) -> Result<Vec<Arc<ChoiceMap>>, PplError> {
        crate::flatten::choice_maps(graphs)
    }

    /// Every statement summary and `while` condition of the run, in
    /// execution order.
    fn summaries(&self) -> Vec<&Summary> {
        let mut out = Vec::new();
        collect_summaries(&self.root, &mut out);
        out
    }
}

/// The record count [`ExecGraph::store`] reports.
#[derive(Debug, Clone, Copy)]
pub struct RecordCount {
    records: usize,
}

impl RecordCount {
    /// Statement and block records reachable from the graph's root,
    /// including the root block.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the graph holds no records (never: the root is one).
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Always 1: a graph's records form one tree.
    pub fn segments(&self) -> usize {
        1
    }
}

/// The block record plus every statement and block record below it.
fn count_records(block: &BlockRecord) -> usize {
    let below: usize = block
        .stmts
        .iter()
        .map(|stmt| {
            1 + match &**stmt {
                StmtRecord::If { body, .. } => count_records(body),
                StmtRecord::For { iters, .. } => iters.iter().map(|b| count_records(b)).sum(),
                StmtRecord::While { iters, .. } => iters
                    .iter()
                    .filter_map(|it| it.body.as_deref())
                    .map(count_records)
                    .sum(),
                StmtRecord::Skip | StmtRecord::Leaf { .. } => 0,
            }
        })
        .sum();
    1 + below
}

/// Splits an address into its site label and its loop indices; `None`
/// when it does not start with a label.
fn split_address(addr: &Address) -> Option<(&str, &[Component])> {
    match addr.components() {
        [Component::Sym(site), indices @ ..] => Some((site, indices)),
        _ => None,
    }
}

/// The next loop index of an address; `None` past the end or at a label.
fn next_index(indices: &mut std::slice::Iter<'_, Component>) -> Option<i64> {
    match indices.next()? {
        Component::Idx(i) => Some(*i),
        Component::Sym(_) => None,
    }
}

fn collect_summaries<'s>(block: &'s BlockRecord, out: &mut Vec<&'s Summary>) {
    for stmt in &block.stmts {
        out.extend(stmt.summary());
        match &**stmt {
            StmtRecord::If { body, .. } => collect_summaries(body, out),
            StmtRecord::For { iters, .. } => {
                for iter in iters {
                    collect_summaries(iter, out);
                }
            }
            StmtRecord::While { iters, .. } => {
                for iter in iters {
                    out.push(&iter.cond);
                    if let Some(body) = &iter.body {
                        collect_summaries(body, out);
                    }
                }
            }
            StmtRecord::Skip | StmtRecord::Leaf { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use ppl::dist::Dist;
    use ppl::{addr, parse, PplError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn simulate(src: &str, seed: u64) -> ExecGraph {
        let program = parse(src).unwrap();
        ExecGraph::simulate(&program, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    /// Every address of the flattened trace resolves to the record the
    /// trace holds, bit for bit, and the record walks agree with it.
    fn assert_lookups_match_trace(graph: &ExecGraph) {
        let trace = graph.to_trace().unwrap();
        for (addr, c) in trace.choices() {
            let found = graph
                .choice(addr)
                .unwrap_or_else(|| panic!("no choice at {addr}"));
            assert_eq!(found.value, c.value, "{addr}");
            assert_eq!(found.dist, c.dist, "{addr}");
            assert_eq!(found.log_prob.log().to_bits(), c.log_prob.log().to_bits());
            assert!(graph.choice_by_id(addr.id()).is_some());
            assert!(
                graph.observation(addr).is_none(),
                "{addr} is not an observation"
            );
        }
        for (addr, o) in trace.observations() {
            let found = graph
                .observation(addr)
                .unwrap_or_else(|| panic!("no obs at {addr}"));
            assert_eq!(found.value, o.value, "{addr}");
            assert_eq!(found.dist, o.dist, "{addr}");
            assert_eq!(found.log_prob.log().to_bits(), o.log_prob.log().to_bits());
        }
        assert_eq!(graph.num_choices(), trace.len());
        assert_eq!(graph.score().log().to_bits(), trace.score().log().to_bits());
        assert_eq!(graph.choice_map().unwrap(), trace.to_choice_map());
    }

    /// `Arc<StmtRecord>` (16 bytes of counts, then the record) must stay
    /// in glibc's 176-byte chunk: a graph build makes one per statement,
    /// and moving them to another size class moves where the benchmark's
    /// repeated set-ups place their heap (ROADMAP item 2, DESIGN §14).
    #[test]
    fn a_statement_record_keeps_its_allocation_size_class() {
        let size = std::mem::size_of::<StmtRecord>();
        assert!(
            size <= 152,
            "StmtRecord is {size} bytes; above 152 its Arc leaves glibc's \
             176-byte chunk and moves the set-up heap placement"
        );
    }

    #[test]
    fn while_conditions_and_bodies_resolve() {
        let src = "n = 0; while flip(0.7) @ c { n = n + 1; x = flip(0.4) @ b; } return n;";
        let mut longest = 0;
        for seed in 0..20 {
            let graph = simulate(src, seed);
            assert_lookups_match_trace(&graph);
            let k = graph.return_value.as_int().unwrap();
            longest = longest.max(k);
            // The last condition evaluated false, so its body never ran.
            assert!(graph.choice(&addr!["c", k]).is_some());
            assert!(graph.choice(&addr!["c", k + 1]).is_none());
            assert!(graph.choice(&addr!["b", k]).is_none());
            assert!(graph.choice(&addr!["c", -1]).is_none());
            assert!(graph.choice(&addr!["c"]).is_none());
            assert!(graph.choice(&addr!["c", 0, 0]).is_none());
        }
        assert!(longest >= 2, "some run should iterate twice");
    }

    #[test]
    fn nested_loops_resolve_one_index_per_loop() {
        let src = "for i in [1..3) { for j in [0..i) { x = flip(0.5) @ a; } y = flip(0.3) @ b; }
                   return 0;";
        let graph = simulate(src, 1);
        assert_lookups_match_trace(&graph);
        assert!(graph.choice(&addr!["a", 2, 1]).is_some());
        assert!(graph.choice(&addr!["b", 1]).is_some());
        // Past the inner bound at i = 1, below and past the outer bounds.
        assert!(graph.choice(&addr!["a", 1, 1]).is_none());
        assert!(graph.choice(&addr!["a", 0, 0]).is_none());
        assert!(graph.choice(&addr!["a", 3, 0]).is_none());
        assert!(graph.choice(&addr!["a", 1, -1]).is_none());
        assert!(graph.choice(&addr!["a", i64::MIN, 0]).is_none());
        // Missing and extra indices, and a label where an index belongs.
        assert!(graph.choice(&addr!["a", 1]).is_none());
        assert!(graph.choice(&addr!["b", 1, 0]).is_none());
        assert!(graph.choice(&addr!["a", 1, "x"]).is_none());
        assert!(graph.choice(&addr!["zz", 1]).is_none());
    }

    #[test]
    fn sites_in_a_for_bound_and_the_return_expression_resolve() {
        let src = "for i in [0..uniform(1, 4) @ n) { x = flip(0.5) @ a; } return flip(0.25) @ r;";
        for seed in 0..5 {
            let graph = simulate(src, seed);
            assert_lookups_match_trace(&graph);
            let n = graph.choice(&addr!["n"]).unwrap().value.as_int().unwrap();
            assert!(graph.choice(&addr!["a", n - 1]).is_some());
            assert!(graph.choice(&addr!["a", n]).is_none());
            assert!(graph.choice(&addr!["n", 0]).is_none());
            let r = graph.choice(&addr!["r"]).unwrap();
            assert_eq!(r.value, graph.return_value);
            assert_eq!(r.dist, Dist::flip(0.25));
        }
    }

    #[test]
    fn only_the_taken_branch_resolves() {
        let src = "c = flip(0.5) @ c;
                   if c { x = flip(0.2) @ t; y = flip(0.2) @ s; }
                   else { x = flip(0.8) @ e; y = flip(0.8) @ s; }
                   observe(flip(0.5) @ o == c);
                   return c;";
        let mut taken = [false, false];
        for seed in 0..20 {
            let graph = simulate(src, seed);
            assert_lookups_match_trace(&graph);
            let then = graph.choice(&addr!["c"]).unwrap().value.truthy().unwrap();
            taken[usize::from(then)] = true;
            assert_eq!(graph.choice(&addr!["t"]).is_some(), then);
            assert_eq!(graph.choice(&addr!["e"]).is_some(), !then);
            let p = if then { 0.2 } else { 0.8 };
            assert_eq!(graph.choice(&addr!["s"]).unwrap().dist, Dist::flip(p));
            assert!(graph.observation(&addr!["o"]).is_some());
            assert!(graph.choice(&addr!["o"]).is_none());
        }
        assert_eq!(taken, [true, true], "both branches should be taken");
    }

    /// Both flattenings refuse a graph that records an address twice.
    fn assert_flattening_collides(graph: &ExecGraph) {
        assert!(matches!(
            graph.to_trace(),
            Err(PplError::AddressCollision(_))
        ));
        assert!(matches!(
            graph.choice_map(),
            Err(PplError::AddressCollision(_))
        ));
    }

    #[test]
    fn a_colliding_site_resolves_to_its_first_record_in_pre_order() {
        let graph = simulate("x = flip(0.1) @ a; y = flip(0.9) @ a; return x;", 0);
        assert_eq!(graph.choice(&addr!["a"]).unwrap().dist, Dist::flip(0.1));
        assert_flattening_collides(&graph);

        // Two observations at one label collide as well.
        let graph = simulate(
            "x = flip(0.5) @ a; observe(flip(0.9) @ o == 1); observe(flip(0.2) @ o == 0);
             return x;",
            0,
        );
        assert_flattening_collides(&graph);
        // A choice and an observation at one label do not: choices and
        // observations are addressed separately.
        let graph = simulate(
            "x = flip(0.5) @ a; observe(flip(0.9) @ a == 1); return x;",
            0,
        );
        let trace = graph.to_trace().unwrap();
        assert_eq!(graph.choice_map().unwrap(), trace.to_choice_map());

        let graph = simulate(
            "for i in [0..2) { x = flip(0.1) @ a; } for j in [1..3) { y = flip(0.9) @ a; }
             return 0;",
            0,
        );
        assert_eq!(graph.choice(&addr!["a", 1]).unwrap().dist, Dist::flip(0.1));
        assert_eq!(graph.choice(&addr!["a", 2]).unwrap().dist, Dist::flip(0.9));

        // A `while` condition runs before its body at the same index.
        let mut bodies = 0;
        for seed in 0..20 {
            let graph = simulate("while flip(0.5) @ c { y = flip(0.1) @ c; } return 0;", seed);
            bodies += graph.num_choices() / 2;
            for i in 0..=graph.num_choices() as i64 {
                if let Some(c) = graph.choice(&addr!["c", i]) {
                    assert_eq!(c.dist, Dist::flip(0.5));
                }
            }
        }
        assert!(bodies > 0, "some run should enter the body");
    }

    /// A record lives exactly as long as some graph refers to it: after a
    /// translation re-executes the trailing observation and shares the
    /// loop, dropping the old graph frees its observation record and
    /// keeps its loop record alive in the new graph.
    #[test]
    fn a_record_is_freed_with_the_last_graph_that_refers_to_it() {
        let chain = |s: &str| {
            parse(&format!(
                "prev = 1;
                 for i in [0..8) {{ x = flip(prev ? 0.7 : 0.3) @ x; prev = x; }}
                 observe(flip(prev ? {s} : 0.1) @ o == 1);
                 return prev;"
            ))
            .unwrap()
        };
        let (p, q) = (chain("0.9"), chain("0.8"));
        let translator = crate::IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(3);
        let old = ExecGraph::simulate(&p, &mut rng).unwrap();
        let loop_record = Arc::downgrade(&old.root().stmts[1]);
        let obs_record = Arc::downgrade(&old.root().stmts[2]);
        assert!(matches!(
            loop_record.upgrade().as_deref(),
            Some(StmtRecord::For { .. })
        ));
        let obs = obs_record.upgrade().unwrap();
        assert_eq!(obs.summary().unwrap().observations.len(), 1);
        drop(obs);

        let new = translator.translate_graph(&old, &mut rng).unwrap().graph;
        drop(old);
        assert!(
            obs_record.upgrade().is_none(),
            "the replaced record is freed"
        );
        let shared = loop_record
            .upgrade()
            .expect("the new graph shares the loop");
        assert!(Arc::ptr_eq(&shared, &new.root().stmts[1]));
    }
}
