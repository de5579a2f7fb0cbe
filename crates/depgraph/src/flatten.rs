//! Flattening a collection of execution graphs to choice maps, each
//! shared record once and each distinct map once.
//!
//! After resampling, the particles of a collection share records at two
//! levels: duplicates hold clones of one `Arc<ExecGraph>`, and distinct
//! graphs hold clones of the statement and iteration records that their
//! translations shared with a common ancestor. [`choice_maps`] flattens
//! the graphs of a collection in one call. It lists the choices and
//! observations of each record once and memoizes the list, with its
//! hash, by the record's address; a later reference to the record copies
//! the list. A leaf statement, and any record that only one reference
//! holds, is listed in place without the memo. The addresses stay valid
//! while the collection is borrowed, so no record can be freed and its
//! address reused meanwhile.
//!
//! It then groups graphs whose lists are identical, and builds one
//! `Arc<ChoiceMap>` per group, shared by every graph of the group. Two
//! lists are identical when they hold the same addresses, in the same
//! order, with the same kinds and with values that are
//! [`Value::same_bits`]: the maps of such graphs are equal, they render
//! to the same text, and building either map fails in the same way. The
//! hash only narrows the candidates; a graph joins a group after an
//! exact comparison of the two lists, so the grouping never depends on
//! the hash.

use std::hash::Hasher;
use std::ptr;
use std::sync::Arc;

use ppl::address::Component;
use ppl::{Address, AddressId, ChoiceMap, FxHashMap, FxHashSet, FxHasher, PplError, Value};

use crate::record::{BlockRecord, ExecGraph, StmtRecord, Summary};

/// The choice map of each of `graphs`, in order: what
/// [`ExecGraph::choice_map`] gives for it. Graphs with identical choices
/// and observation addresses share one `Arc`.
///
/// # Errors
///
/// The first failure in collection order:
/// [`PplError::AddressCollision`] on the first choice or observation
/// address that a graph records twice, as [`ExecGraph::to_trace`] reports
/// it.
pub(crate) fn choice_maps(graphs: &[&ExecGraph]) -> Result<Vec<Arc<ChoiceMap>>, PplError> {
    let mut flat = Flattener::default();
    graphs.iter().map(|graph| flat.graph(graph)).collect()
}

/// One listed choice or observation. A choice's address is interned
/// once, when its record is listed, since the map is keyed by the id; an
/// observation's address is only checked for collisions, so it stays an
/// address.
#[derive(Clone, Copy)]
enum Entry<'g> {
    Choice(AddressId, &'g Value),
    Observation(&'g Address),
}

impl Entry<'_> {
    /// Whether the two list the same kind, address and value bits.
    fn same(&self, other: &Entry<'_>) -> bool {
        match (self, other) {
            (Entry::Choice(a, x), Entry::Choice(b, y)) => {
                a == b && (ptr::eq(*x, *y) || x.same_bits(y))
            }
            (Entry::Observation(a), Entry::Observation(b)) => ptr::eq(*a, *b) || a == b,
            _ => false,
        }
    }

    /// A hash that entries which are [`Entry::same`] share. An
    /// observation's address enters through its length and last index
    /// only, which costs no string hashing; lists that differ in
    /// observation labels alone hash alike and are told apart by the
    /// comparison.
    fn hash(&self) -> u64 {
        let mut h = FxHasher::default();
        match self {
            Entry::Choice(id, value) => {
                h.write_usize(id.index());
                value.hash_bits(&mut h);
            }
            Entry::Observation(addr) => {
                let components = addr.components();
                h.write_u8(0xff);
                h.write_usize(components.len());
                if let Some(Component::Idx(i)) = components.last() {
                    h.write_i64(*i);
                }
            }
        }
        h.finish()
    }
}

/// The polynomial hash of an entry list, kept with the power of the
/// multiplier that appending the list applies, so lists hash in pieces:
/// `hash(a ++ b) = hash(a) · pow(b) + hash(b)` (wrapping).
#[derive(Clone, Copy)]
struct ListHash {
    hash: u64,
    pow: u64,
}

impl ListHash {
    const EMPTY: ListHash = ListHash { hash: 0, pow: 1 };
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn push(&mut self, entry: u64) {
        self.hash = self.hash.wrapping_mul(Self::MUL).wrapping_add(entry);
        self.pow = self.pow.wrapping_mul(Self::MUL);
    }

    fn append(&mut self, tail: ListHash) {
        self.hash = self.hash.wrapping_mul(tail.pow).wrapping_add(tail.hash);
        self.pow = self.pow.wrapping_mul(tail.pow);
    }
}

/// A memoized record: where its list sits in [`Flattener::listed`], and
/// its hash.
struct Listed {
    start: usize,
    len: usize,
    hash: ListHash,
}

/// Graphs with identical lists, and their one map.
struct Group<'g> {
    list: Vec<Entry<'g>>,
    map: Arc<ChoiceMap>,
}

#[derive(Default)]
struct Flattener<'g> {
    /// The list of the graph being flattened: the lists of its records,
    /// in execution order.
    list: Vec<Entry<'g>>,
    /// The lists of the shared records met so far, back to back.
    listed: Vec<Entry<'g>>,
    /// Where each shared record's list sits in `listed`, by address.
    records: FxHashMap<*const (), Listed>,
    /// The group of each graph met, by address: clones of one
    /// `Arc<ExecGraph>` are one graph.
    graphs: FxHashMap<*const ExecGraph, usize>,
    groups: Vec<Group<'g>>,
    /// The groups of each list hash.
    by_hash: FxHashMap<u64, Vec<usize>>,
    /// Bodies (`if` branches and loop iterations) listed rather than
    /// copied, for tests.
    bodies: usize,
}

impl<'g> Flattener<'g> {
    fn graph(&mut self, graph: &'g ExecGraph) -> Result<Arc<ChoiceMap>, PplError> {
        let key: *const ExecGraph = graph;
        let group = match self.graphs.get(&key) {
            Some(&group) => group,
            None => {
                self.list.clear();
                let mut hash = ListHash::EMPTY;
                self.block(graph.root(), &mut hash);
                let group = self.group(hash.hash)?;
                self.graphs.insert(key, group);
                group
            }
        };
        Ok(Arc::clone(&self.groups[group].map))
    }

    fn block(&mut self, block: &'g BlockRecord, hash: &mut ListHash) {
        for stmt in &block.stmts {
            match &**stmt {
                // A leaf lists its few entries faster than the memo would
                // look it up.
                StmtRecord::Skip | StmtRecord::Leaf { .. } => self.stmt(stmt, hash),
                _ => self.shared(stmt, hash, Self::stmt),
            }
        }
    }

    /// Lists a nested block: an `if` branch or a loop iteration.
    fn body(&mut self, block: &'g BlockRecord, hash: &mut ListHash) {
        self.bodies += 1;
        self.block(block, hash);
    }

    /// Lists a statement's own summary, then its bodies, in the order
    /// [`ExecGraph::to_trace`] records them.
    fn stmt(&mut self, stmt: &'g StmtRecord, hash: &mut ListHash) {
        if let Some(summary) = stmt.summary() {
            self.summary(summary, hash);
        }
        match stmt {
            StmtRecord::If { body, .. } => self.shared(body, hash, Self::body),
            StmtRecord::For { iters, .. } => {
                for iter in iters {
                    self.shared(iter, hash, Self::body);
                }
            }
            StmtRecord::While { iters, .. } => {
                for iter in iters {
                    self.summary(&iter.cond, hash);
                    if let Some(body) = &iter.body {
                        self.shared(body, hash, Self::body);
                    }
                }
            }
            StmtRecord::Skip | StmtRecord::Leaf { .. } => {}
        }
    }

    fn summary(&mut self, summary: &'g Summary, hash: &mut ListHash) {
        for (addr, choice) in &summary.choices {
            self.push(Entry::Choice(addr.id(), &choice.value), hash);
        }
        for (addr, _) in &summary.observations {
            self.push(Entry::Observation(addr), hash);
        }
    }

    fn push(&mut self, entry: Entry<'g>, hash: &mut ListHash) {
        hash.push(entry.hash());
        self.list.push(entry);
    }

    /// Lists `record` with `list`, or copies its memoized list when
    /// another reference listed it already. A record whose only
    /// reference is this one is never met again, so it skips the memo.
    fn shared<T>(
        &mut self,
        record: &'g Arc<T>,
        hash: &mut ListHash,
        list: fn(&mut Self, &'g T, &mut ListHash),
    ) {
        if Arc::strong_count(record) == 1 {
            return list(self, record, hash);
        }
        let key = Arc::as_ptr(record).cast::<()>();
        if let Some(listed) = self.records.get(&key) {
            let run = listed.start..listed.start + listed.len;
            self.list.extend_from_slice(&self.listed[run]);
            hash.append(listed.hash);
            return;
        }
        let start = self.list.len();
        let mut own = ListHash::EMPTY;
        list(self, record, &mut own);
        let listed = Listed {
            start: self.listed.len(),
            len: self.list.len() - start,
            hash: own,
        };
        self.listed.extend_from_slice(&self.list[start..]);
        self.records.insert(key, listed);
        hash.append(own);
    }

    /// The group of the current list: an existing group with an
    /// identical list, or a new one, which takes the list and builds its
    /// map.
    fn group(&mut self, hash: u64) -> Result<usize, PplError> {
        let candidates = self.by_hash.entry(hash).or_default();
        let same = |group: &Group<'_>| {
            group.list.len() == self.list.len()
                && group.list.iter().zip(&self.list).all(|(a, b)| a.same(b))
        };
        if let Some(&index) = candidates.iter().find(|&&i| same(&self.groups[i])) {
            return Ok(index);
        }
        let map = Arc::new(build_map(&self.list)?);
        let capacity = self.list.len();
        let list = std::mem::replace(&mut self.list, Vec::with_capacity(capacity));
        candidates.push(self.groups.len());
        self.groups.push(Group { list, map });
        Ok(self.groups.len() - 1)
    }
}

/// The choice map of one graph's list.
///
/// # Errors
///
/// [`PplError::AddressCollision`] on the first choice address or
/// observation address listed twice.
fn build_map(list: &[Entry<'_>]) -> Result<ChoiceMap, PplError> {
    let choices = list
        .iter()
        .filter(|e| matches!(e, Entry::Choice(..)))
        .count();
    let mut map = ChoiceMap::with_capacity(choices);
    let mut observed: FxHashSet<&Address> = FxHashSet::default();
    for entry in list {
        match *entry {
            Entry::Choice(id, value) => {
                if map.insert_id(id, value.clone()).is_some() {
                    return Err(PplError::AddressCollision(id.resolve().clone()));
                }
            }
            Entry::Observation(addr) => {
                if !observed.insert(addr) {
                    return Err(PplError::AddressCollision(addr.clone()));
                }
            }
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use incremental::{FailurePolicy, ParticleCollection, ResamplePolicy, SmcConfig, StagePolicy};
    use ppl::dist::Dist;
    use ppl::handlers::simulate;
    use ppl::trace_io::write_bindings;
    use ppl::{addr, parse, LogWeight};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::record::ChoiceData;
    use crate::run_edit_sequence_supervised;

    /// Program `k` of a chain that grows by two observed sites per edit,
    /// as the edit-session benchmark's `grow_resample` does.
    fn grow(k: usize) -> ppl::ast::Program {
        parse(&format!(
            "n = {}; prev = 1;
             for i in [0..n) {{
               x = flip(prev ? 0.550 : 0.250) @ x;
               observe(flip(x ? 0.980 : 0.020) @ o == 1);
               prev = x;
             }}
             return prev;",
            2 * k
        ))
        .unwrap()
    }

    /// Flattens `graphs` with a fresh flattener, returning it too.
    fn flatten<'g>(graphs: &[&'g ExecGraph]) -> (Vec<Arc<ChoiceMap>>, Flattener<'g>) {
        let mut flat = Flattener::default();
        let maps = graphs
            .iter()
            .map(|g| flat.graph(g))
            .collect::<Result<_, _>>();
        (maps.unwrap(), flat)
    }

    /// The statement and body records below `block`, by address, and how
    /// many references to loop iterations the walk met.
    #[derive(Default)]
    struct Census {
        stmts: HashSet<*const StmtRecord>,
        bodies: HashSet<*const BlockRecord>,
        iterations: usize,
    }

    impl Census {
        fn block(&mut self, block: &BlockRecord) {
            for stmt in &block.stmts {
                if !self.stmts.insert(Arc::as_ptr(stmt)) {
                    continue;
                }
                match &**stmt {
                    StmtRecord::If { body, .. } => self.body(body),
                    StmtRecord::For { iters, .. } => {
                        self.iterations += iters.len();
                        iters.iter().for_each(|b| self.body(b));
                    }
                    StmtRecord::While { iters, .. } => {
                        self.iterations += iters.len();
                        iters
                            .iter()
                            .filter_map(|it| it.body.as_ref())
                            .for_each(|b| self.body(b));
                    }
                    StmtRecord::Skip | StmtRecord::Leaf { .. } => {}
                }
            }
        }

        fn body(&mut self, body: &Arc<BlockRecord>) {
            if self.bodies.insert(Arc::as_ptr(body)) {
                self.block(body);
            }
        }
    }

    /// The checkpoint of a resampled 120-iteration collection lists each
    /// distinct iteration block once, about a tenth of the blocks its
    /// distinct graphs refer to, and builds one map per distinct content,
    /// a score of maps for about ninety graphs.
    #[test]
    fn a_resampled_collection_lists_each_block_once_and_each_map_once() {
        let programs: Vec<_> = (0..=60).map(grow).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let initial = ParticleCollection::from_traces(
            (0..300).map(|_| simulate(&programs[0], &mut rng).unwrap()),
        );
        let config = SmcConfig {
            resample: ResamplePolicy::EssBelow(0.5),
            ..SmcConfig::translate_only()
        };
        let run = run_edit_sequence_supervised(
            &programs,
            &initial,
            0,
            &[],
            &[],
            &config,
            &FailurePolicy::FailFast,
            &StagePolicy::default(),
            7,
            1,
            None,
        )
        .unwrap();
        let graphs: Vec<&ExecGraph> = run.last().iter().map(|p| &*p.trace).collect();
        let (maps, flat) = flatten(&graphs);

        let distinct: HashSet<*const ExecGraph> =
            graphs.iter().map(|&g| ptr::from_ref(g)).collect();
        let mut census = Census::default();
        for graph in &graphs {
            census.block(graph.root());
        }
        assert_eq!(
            flat.bodies,
            census.bodies.len(),
            "each distinct body is listed once"
        );
        assert!(
            census.bodies.len() * 5 < census.iterations,
            "{} distinct iteration blocks of {} met",
            census.bodies.len(),
            census.iterations
        );

        let mut texts = HashSet::new();
        for (graph, map) in graphs.iter().zip(&maps) {
            assert_eq!(**map, graph.to_trace().unwrap().to_choice_map());
            let mut text = String::new();
            write_bindings(&mut text, map);
            texts.insert(text);
        }
        let shared: HashSet<*const ChoiceMap> = maps.iter().map(Arc::as_ptr).collect();
        assert_eq!(shared.len(), texts.len(), "one map per distinct content");
        assert_eq!(flat.groups.len(), texts.len());
        assert!(
            texts.len() * 3 < distinct.len(),
            "{} maps for {} graphs",
            texts.len(),
            distinct.len()
        );
    }

    /// A leaf statement's choices and observation addresses.
    type Leaf<'a> = (&'a [(Address, Value)], &'a [Address]);

    /// A graph whose root holds one leaf statement per item of `stmts`.
    fn graph_of(stmts: &[Leaf<'_>]) -> ExecGraph {
        let program = Arc::new(parse("return 0;").unwrap());
        let stmts = stmts
            .iter()
            .map(|(choices, observations)| {
                let data = |value: &Value| ChoiceData {
                    value: value.clone(),
                    dist: Dist::flip(0.5),
                    log_prob: LogWeight::ONE,
                };
                let summary = Summary {
                    choices: choices.iter().map(|(a, v)| (a.clone(), data(v))).collect(),
                    observations: observations
                        .iter()
                        .map(|a| {
                            let obs = crate::record::ObsData {
                                value: Value::Bool(true),
                                dist: Dist::flip(0.5),
                                log_prob: LogWeight::ONE,
                            };
                            (a.clone(), obs)
                        })
                        .collect(),
                    ..Summary::default()
                };
                Arc::new(StmtRecord::Leaf { summary })
            })
            .collect();
        let root = BlockRecord {
            stmts,
            summary: Summary::default(),
        };
        ExecGraph::assemble(
            Arc::clone(&program),
            Arc::clone(program.compiled()),
            root,
            Value::Int(0),
        )
    }

    /// Graphs share a map only when their lists are the same bit for bit:
    /// `0.0` and `-0.0`, `1` and `1.0`, and NaNs of other bits stay
    /// apart, and so do equal choices with other observation addresses.
    /// Equal content in separate records is grouped.
    #[test]
    fn only_lists_that_are_the_same_bit_for_bit_share_a_map() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let one = |v: Value| vec![(addr!["x"], v)];
        let (zero, minus_zero) = (one(Value::Real(0.0)), one(Value::Real(-0.0)));
        let (int, real) = (one(Value::Int(1)), one(Value::Real(1.0)));
        let (nan_a, nan_b) = (one(Value::Real(nan)), one(Value::Real(f64::NAN)));
        let o = [addr!["o"]];
        let graphs = [
            graph_of(&[(&zero, &[])]),
            graph_of(&[(&minus_zero, &[])]),
            graph_of(&[(&zero, &[])]),
            graph_of(&[(&int, &[])]),
            graph_of(&[(&real, &[])]),
            graph_of(&[(&nan_a, &[])]),
            graph_of(&[(&nan_b, &[])]),
            graph_of(&[(&nan_a, &[])]),
            graph_of(&[(&zero, &o)]),
            graph_of(&[(&[], &o), (&zero, &[])]),
        ];
        let refs: Vec<&ExecGraph> = graphs.iter().collect();
        let (maps, flat) = flatten(&refs);
        // The same graphs again with every list hashed alike, so every
        // graph is compared with every group: the comparison alone
        // decides.
        let mut colliding = Flattener::default();
        let collided: Vec<Arc<ChoiceMap>> = (refs.iter())
            .map(|graph| {
                colliding.list.clear();
                let mut hash = ListHash::EMPTY;
                colliding.block(graph.root(), &mut hash);
                let group = colliding.group(0).unwrap();
                Arc::clone(&colliding.groups[group].map)
            })
            .collect();
        for maps in [&maps, &collided] {
            let same = |a: usize, b: usize| Arc::ptr_eq(&maps[a], &maps[b]);
            assert!(same(0, 2) && same(5, 7));
            assert!(!same(0, 1) && !same(3, 4) && !same(5, 6));
            assert!(!same(0, 8) && !same(8, 9));
        }
        assert_eq!((flat.groups.len(), colliding.groups.len()), (8, 8));
        for (graph, map) in graphs.iter().zip(&maps) {
            let mut want = String::new();
            write_bindings(&mut want, &graph.to_trace().unwrap().to_choice_map());
            let mut got = String::new();
            write_bindings(&mut got, map);
            assert_eq!(got, want);
        }
    }

    /// A collision fails the collection with the first failing graph's
    /// error, in collection order, whatever the graphs share.
    #[test]
    fn the_first_failing_graph_reports_its_collision() {
        let x = [(addr!["x"], Value::Bool(true))];
        let twice_x = [
            (addr!["x"], Value::Bool(true)),
            (addr!["x"], Value::Bool(false)),
        ];
        let (y, o) = ([(addr!["y"], Value::Bool(true))], [addr!["o"]]);
        let ok = graph_of(&[(&x, &[])]);
        let obs_twice = graph_of(&[(&y, &o), (&[], &o)]);
        let choice_twice = graph_of(&[(&twice_x, &[])]);
        for (graphs, want) in [
            (vec![&ok, &obs_twice, &choice_twice], addr!["o"]),
            (vec![&ok, &choice_twice, &obs_twice], addr!["x"]),
        ] {
            assert_eq!(
                ExecGraph::choice_maps(&graphs).unwrap_err(),
                PplError::AddressCollision(want.clone())
            );
            let first_failure = graphs.iter().find_map(|g| g.to_trace().err());
            assert_eq!(first_failure, Some(PplError::AddressCollision(want)));
        }
    }
}
