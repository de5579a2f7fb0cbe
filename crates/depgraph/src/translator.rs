//! The optimized incremental trace translator (Section 6).

use std::sync::Arc;
use std::time::Instant;

use rand::RngCore;

use incremental::{ParticleState, StateTranslator, TranslateCtx};
use ppl::ast::Program;
use ppl::{ChoiceMap, LogWeight, PplError, Trace};

use crate::diff::{diff_programs, ProgramEdit};
use crate::plan::StagePlan;
use crate::propagate::{translate_graph_with_plan, IncrementalResult};
use crate::record::ExecGraph;

/// A trace translator between two programs related by an edit, running on
/// the dependency-tracking runtime: only the program slice affected by
/// the edit is re-executed.
///
/// Construct with [`IncrementalTranslator::from_edit`], which derives the
/// semantic correspondence from the syntactic diff automatically
/// (Section 6: "random expressions that correspond syntactically in the
/// two programs also correspond semantically").
///
/// # Examples
///
/// ```
/// use depgraph::{ExecGraph, IncrementalTranslator};
/// use ppl::parse;
/// use rand::SeedableRng;
///
/// let p = parse("a = 1; b = flip(a / 3); return b;")?;
/// let q = parse("a = 2; b = flip(a / 3); return b;")?;
/// let translator = IncrementalTranslator::from_edit(p.clone(), q);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let g_t = ExecGraph::simulate(&p, &mut rng)?;
/// let result = translator.translate_graph(&g_t, &mut rng)?;
/// assert!(result.log_weight.log().is_finite());
/// # Ok::<(), ppl::PplError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalTranslator {
    p: Arc<Program>,
    q: Arc<Program>,
    edit: ProgramEdit,
    /// Translation plan invariant across a stage, built once per edit and shared
    /// (immutably) by every particle task in a stage.
    plan: Arc<StagePlan>,
}

impl IncrementalTranslator {
    /// Creates a translator for the edit `p → q`, deriving the diff and
    /// correspondence.
    pub fn from_edit(p: Program, q: Program) -> IncrementalTranslator {
        Self::from_shared(Arc::new(p), Arc::new(q))
    }

    /// [`IncrementalTranslator::from_edit`] over shared program handles:
    /// graphs built with the same `Arc` (e.g. by the previous link of an
    /// edit chain) validate by pointer identity, and the chain shares one
    /// allocation per program instead of deep-cloning each window.
    pub fn from_shared(p: Arc<Program>, q: Arc<Program>) -> IncrementalTranslator {
        let edit = diff_programs(&p, &q);
        let plan = Arc::new(StagePlan::new(&q, &p, &edit));
        IncrementalTranslator { p, q, edit, plan }
    }

    /// The derived edit (diff + correspondence).
    pub fn edit(&self) -> &ProgramEdit {
        &self.edit
    }

    /// The stage-shared translation plan.
    pub fn plan(&self) -> &Arc<StagePlan> {
        &self.plan
    }

    /// The source program `P`.
    pub fn source_program(&self) -> &Program {
        &self.p
    }

    /// The target program `Q`.
    pub fn target_program(&self) -> &Program {
        &self.q
    }

    /// The shared handle to the source program `P`.
    pub fn source_program_shared(&self) -> &Arc<Program> {
        &self.p
    }

    /// The shared handle to the target program `Q`.
    pub fn target_program_shared(&self) -> &Arc<Program> {
        &self.q
    }

    /// Checks that `graph` was built from this translator's `P`: `Arc`
    /// identity first (free along a shared edit chain), the programs'
    /// memoized fingerprints otherwise — never a deep `Program`
    /// comparison.
    fn validate_source(&self, graph: &ExecGraph) -> Result<(), PplError> {
        if Arc::ptr_eq(&graph.program, &self.p) || graph.fingerprint() == self.p.fingerprint() {
            Ok(())
        } else {
            Err(PplError::Other(
                "execution graph was built from a different program than this translator's P"
                    .to_string(),
            ))
        }
    }

    /// Translates an execution graph of `P` into a graph of `Q` with the
    /// weight estimate, re-executing only the affected slice. The output
    /// graph shares this translator's `Q` handle, so the next chained
    /// translator validates it by pointer identity.
    ///
    /// # Errors
    ///
    /// Returns an error if `graph` was built from a different program, or
    /// on evaluation failure.
    pub fn translate_graph(
        &self,
        graph: &ExecGraph,
        rng: &mut dyn RngCore,
    ) -> Result<IncrementalResult, PplError> {
        self.translate_graph_until(graph, None, rng)
    }

    /// [`Self::translate_graph`], stopped with
    /// [`PplError::DeadlineExceeded`] at the walk's first fuel charge
    /// after `deadline`.
    fn translate_graph_until(
        &self,
        graph: &ExecGraph,
        deadline: Option<Instant>,
        rng: &mut dyn RngCore,
    ) -> Result<IncrementalResult, PplError> {
        self.validate_source(graph)?;
        let result =
            translate_graph_with_plan(&self.q, &self.edit, &self.plan, graph, deadline, rng)?;
        incremental::metrics::record_propagation(&result.stats);
        Ok(result)
    }
}

/// The graph-native runtime interface: SMC particles *are* execution
/// graphs, carried across the whole edit sequence. Each stage calls
/// [`IncrementalTranslator::translate_graph`] directly on the previous
/// stage's graph — no per-particle `ExecGraph::from_trace` rebuild and no
/// flattening between stages, so a fixed-size edit costs O(K) per
/// particle regardless of trace size. The output graph shares this
/// translator's `Q` handle, so the next chained translator validates it
/// by pointer identity.
impl StateTranslator<Arc<ExecGraph>> for IncrementalTranslator {
    fn translate_state(
        &self,
        state: &Arc<ExecGraph>,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(Arc<ExecGraph>, LogWeight), PplError> {
        let result = self.translate_graph_until(state, ctx.deadline, rng)?;
        Ok((Arc::new(result.graph), result.log_weight))
    }
}

/// The flat-trace interop path: lifts the trace to a graph, translates
/// incrementally, and flattens back. The lift costs O(|t|); callers
/// holding graphs should use [`IncrementalTranslator::translate_graph`]
/// directly (or run the SMC machinery over `Arc<ExecGraph>` particle
/// states) to get the Section 6 asymptotics.
impl StateTranslator<Trace> for IncrementalTranslator {
    fn translate_state(
        &self,
        t: &Trace,
        ctx: TranslateCtx,
        rng: &mut dyn RngCore,
    ) -> Result<(Trace, LogWeight), PplError> {
        let graph = ExecGraph::from_trace_shared(&self.p, t)?;
        let result = self.translate_graph_until(&graph, ctx.deadline, rng)?;
        Ok((result.graph.to_trace()?, result.log_weight))
    }
}

/// Flattening an execution graph walks its records once —
/// [`ExecGraph::to_trace`] — which the SMC runtime only does lazily at
/// API boundaries (estimation, reporting). A checkpoint needs only the
/// choice values, which [`ExecGraph::choice_maps`] lists for a whole
/// collection without building traces: each record that several graphs
/// share once, and each distinct map once. `Arc<ExecGraph>` particles
/// flatten through `incremental`'s blanket `Arc` forwarding impl, which
/// hands these calls the graphs themselves, so the clones of one graph
/// arrive as one.
impl ParticleState for ExecGraph {
    fn to_trace(&self) -> Result<Trace, PplError> {
        ExecGraph::to_trace(self)
    }

    fn choice_maps(graphs: &[&ExecGraph]) -> Result<Vec<Arc<ChoiceMap>>, PplError> {
        ExecGraph::choice_maps(graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incremental::{exact_weight_estimate, CorrespondenceTranslator};
    use ppl::handlers::simulate;
    use ppl::{addr, parse, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The GMM hyperparameter edit: all choices reused, so the translated
    /// trace is deterministic and must agree exactly with the baseline
    /// Section 5 translator — in values AND in weight.
    #[test]
    fn gmm_edit_agrees_with_baseline_translator() {
        let p = models::gmm::gmm_program(10.0, 30, 5);
        let q = models::gmm::gmm_program(20.0, 30, 5);
        let incr = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let baseline =
            CorrespondenceTranslator::new(p.clone(), q.clone(), models::gmm::gmm_correspondence());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let t = simulate(&p, &mut rng).unwrap();
            let (u_incr, w_incr) = incr.translate(&t, &mut rng).unwrap();
            let (u_base, w_base) = baseline.translate(&t, &mut rng).unwrap();
            assert_eq!(u_incr.to_choice_map(), u_base.to_choice_map());
            assert!(
                (w_incr.log() - w_base.log()).abs() < 1e-9,
                "incremental {} vs baseline {}",
                w_incr.log(),
                w_base.log()
            );
        }
    }

    /// The visit count for the hyperparameter edit depends on K only —
    /// the O(K) vs O(N + K) claim behind Figure 10.
    #[test]
    fn gmm_edit_visits_are_independent_of_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut visit_counts = Vec::new();
        for n in [10usize, 100, 400] {
            let p = models::gmm::gmm_program(10.0, n, 10);
            let q = models::gmm::gmm_program(20.0, n, 10);
            let translator = IncrementalTranslator::from_edit(p.clone(), q);
            let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
            let result = translator.translate_graph(&graph, &mut rng).unwrap();
            visit_counts.push(result.stats.nodes_visited);
        }
        assert_eq!(
            visit_counts[0], visit_counts[1],
            "visited counts must not grow with N: {visit_counts:?}"
        );
        assert_eq!(visit_counts[1], visit_counts[2], "{visit_counts:?}");
    }

    /// Figure 7: the constant edit `a = 1 → a = 2` flips the branch. The
    /// reused flip `b` changes its probability (1/3 → 2/3); `c` is
    /// resampled in the other branch; `d = flip(b/2)` does not propagate.
    #[test]
    fn fig7_edit_propagates_partially() {
        let p = models::worked_examples::fig7_original();
        let q = models::worked_examples::fig7_edited();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let t = graph.to_trace().unwrap();
        let result = translator.translate_graph(&graph, &mut rng).unwrap();
        let u = result.graph.to_trace().unwrap();
        // b reused, c from the else-branch now, d unchanged.
        assert_eq!(u.value(&addr!["b"]), t.value(&addr!["b"]));
        let c = u.value(&addr!["celse"]).unwrap().as_int().unwrap();
        assert!((6..=10).contains(&c));
        assert!(!u.has_choice(&addr!["cthen"]));
        assert_eq!(u.value(&addr!["d"]), t.value(&addr!["d"]));
        // Weight: only the b factor ratio (c cancels, d untouched).
        let b = t.value(&addr!["b"]).unwrap().truthy().unwrap();
        let expected: f64 = if b {
            (2.0f64 / 3.0 / (1.0 / 3.0)).ln()
        } else {
            (1.0f64 / 3.0 / (2.0 / 3.0)).ln()
        };
        assert!(
            (result.log_weight.log() - expected).abs() < 1e-9,
            "weight {} vs {}",
            result.log_weight.log(),
            expected
        );
        // The d statement must have been skipped ("the change does not
        // propagate through node b").
        let corr = &translator.edit().correspondence;
        let exact = exact_weight_estimate(&p, &q, corr, &t, &u).unwrap();
        assert!((result.log_weight.log() - exact.log()).abs() < 1e-9);
    }

    /// The burglary refinement (Fig. 1) through the edit-derived
    /// correspondence: the incremental weight must equal the exact weight
    /// estimate recomputed from scratch for the same (t, u) pair.
    #[test]
    fn burglary_edit_weight_matches_exact_oracle() {
        let p = models::burglary::original_program();
        let q = models::burglary::refined_program();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let corr = translator.edit().correspondence.clone();
        // Sanity: the diff derives the Fig. 1 correspondence.
        assert_eq!(corr.lookup(&addr!["alpha"]), Some(addr!["alpha"]));
        assert_eq!(corr.lookup(&addr!["beta"]), Some(addr!["beta"]));
        assert!(!corr.maps(&addr!["gamma"]));
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let t = simulate(&p, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
            assert!(
                (w.log() - exact.log()).abs() < 1e-9,
                "incremental {} vs exact {}",
                w.log(),
                exact.log()
            );
        }
    }

    /// Observation edits: changing an observation's parameter factors the
    /// old likelihood out and the new one in.
    #[test]
    fn observation_edit_reweights() {
        let p = parse("x = flip(0.5) @ x; observe(flip(0.8) @ o == 1); return x;").unwrap();
        let q = parse("x = flip(0.5) @ x; observe(flip(0.4) @ o == 1); return x;").unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(5);
        let t = simulate(&p, &mut rng).unwrap();
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        assert!((w.prob() - 0.4 / 0.8).abs() < 1e-9, "weight {}", w.prob());
        assert_eq!(u.value(&addr!["x"]), t.value(&addr!["x"]));
    }

    /// Removed observations factor into the denominator.
    #[test]
    fn removed_observation_enters_denominator() {
        let p = parse("x = flip(0.5) @ x; observe(flip(0.25) @ o == 1); return x;").unwrap();
        let q = parse("x = flip(0.5) @ x; return x;").unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(6);
        let t = simulate(&p, &mut rng).unwrap();
        let (_, w) = translator.translate(&t, &mut rng).unwrap();
        assert!((w.prob() - 1.0 / 0.25).abs() < 1e-9, "weight {}", w.prob());
    }

    /// Added observations factor into the numerator.
    #[test]
    fn added_observation_enters_numerator() {
        let p = parse("x = flip(0.5) @ x; return x;").unwrap();
        let q = parse("x = flip(0.5) @ x; observe(flip(0.9) @ o == 1); return x;").unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(7);
        let t = simulate(&p, &mut rng).unwrap();
        let (_, w) = translator.translate(&t, &mut rng).unwrap();
        assert!((w.prob() - 0.9).abs() < 1e-9);
    }

    /// Identity edit: weight exactly 1, everything skipped.
    #[test]
    fn identity_edit_is_free() {
        let src = "a = flip(0.3) @ a; b = flip(a ? 0.9 : 0.1) @ b;
                   observe(flip(b ? 0.7 : 0.2) @ o == 1); return b;";
        let p = parse(src).unwrap();
        let q = parse(src).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(8);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let result = translator.translate_graph(&graph, &mut rng).unwrap();
        assert_eq!(result.stats.nodes_visited, 0);
        assert!(result.log_weight.log().abs() < 1e-12);
        assert_eq!(
            result.graph.to_trace().unwrap().to_choice_map(),
            graph.to_trace().unwrap().to_choice_map()
        );
    }

    /// Loop-bound edits: growing the loop samples new iterations fresh;
    /// shrinking removes old ones.
    #[test]
    fn loop_bound_edit() {
        let p = parse("xs = array(5, 0); for i in [0..3) { xs[i] = flip(0.5) @ x; } return xs;")
            .unwrap();
        let q = parse("xs = array(5, 0); for i in [0..5) { xs[i] = flip(0.5) @ x; } return xs;")
            .unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let t = simulate(&p, &mut rng).unwrap();
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        assert_eq!(u.len(), 5);
        for i in 0..3_i64 {
            assert_eq!(u.value(&addr!["x", i]), t.value(&addr!["x", i]));
        }
        // The weight for identical-parameter reuse + fresh sampling is 1.
        assert!(w.log().abs() < 1e-9);
        let corr = &translator.edit().correspondence;
        let exact = exact_weight_estimate(&p, &q, corr, &t, &u).unwrap();
        assert!((w.log() - exact.log()).abs() < 1e-9);
    }

    /// An edit that replaces a statement with a different *kind* of
    /// statement (a loop instead of an assignment): the old record is
    /// removed and the new statement runs fresh, with exact weights.
    #[test]
    fn statement_kind_change_edit() {
        let p = parse(
            "s = 0; s = s + flip(0.5) @ a;
             observe(flip(s > 0 ? 0.9 : 0.1) @ o == 1); return s;",
        )
        .unwrap();
        let q = parse(
            "s = 0; for i in [0..2) { s = s + flip(0.5) @ a; }
             observe(flip(s > 0 ? 0.9 : 0.1) @ o == 1); return s;",
        )
        .unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let corr = translator.edit().correspondence.clone();
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..20 {
            let t = simulate(&p, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            assert_eq!(u.len(), 2); // a/0 and a/1 now
            let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
            assert!(
                (w.log() - exact.log()).abs() < 1e-9,
                "incremental {} vs exact {}",
                w.log(),
                exact.log()
            );
        }
    }

    #[test]
    fn wrong_program_graph_is_rejected() {
        let p = parse("x = flip(0.5); return x;").unwrap();
        let q = parse("x = flip(0.25); return x;").unwrap();
        let other = parse("y = flip(0.5); return y;").unwrap();
        let translator = IncrementalTranslator::from_edit(p, q);
        let mut rng = StdRng::seed_from_u64(10);
        let graph = ExecGraph::simulate(&other, &mut rng).unwrap();
        assert!(translator.translate_graph(&graph, &mut rng).is_err());
    }

    /// A randomized differential test across many seeds: the incremental
    /// weight always matches the exact Eq. (2) oracle for the produced
    /// pair (t, u).
    #[test]
    fn randomized_differential_weights() {
        let pairs = [
            (
                "a = flip(0.5) @ a; b = flip(a ? 0.2 : 0.7) @ b;
                 observe(flip(b ? 0.9 : 0.3) @ o == 1); return b;",
                "a = flip(0.6) @ a; b = flip(a ? 0.4 : 0.7) @ b;
                 observe(flip(b ? 0.5 : 0.3) @ o == 1); return b;",
            ),
            (
                "n = 4; xs = array(n, 0);
                 for i in [0..n) { xs[i] = flip(0.5) @ x; }
                 observe(flip(xs[0] ? 0.9 : 0.1) @ o == 1); return xs;",
                "n = 4; xs = array(n, 0);
                 for i in [0..n) { xs[i] = flip(0.3) @ x; }
                 observe(flip(xs[0] ? 0.8 : 0.1) @ o == 1); return xs;",
            ),
            (
                "c = flip(0.5) @ c; if c { y = uniform(0, 3) @ u; } else { y = uniform(0, 3) @ v; }
                 return y;",
                "c = flip(0.9) @ c; if c { y = uniform(0, 3) @ u; } else { y = uniform(1, 4) @ v; }
                 return y;",
            ),
        ];
        for (src_p, src_q) in pairs {
            let p = parse(src_p).unwrap();
            let q = parse(src_q).unwrap();
            let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
            let corr = translator.edit().correspondence.clone();
            for seed in 0..30 {
                let mut rng = StdRng::seed_from_u64(seed);
                let t = simulate(&p, &mut rng).unwrap();
                let (u, w) = translator.translate(&t, &mut rng).unwrap();
                let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
                assert!(
                    (w.log() - exact.log()).abs() < 1e-9,
                    "seed {seed} on `{src_q}`: incremental {} vs exact {}",
                    w.log(),
                    exact.log()
                );
            }
        }
    }

    /// While loops on the dependency-graph runtime: the Figure 6
    /// geometric edit `p = 1/2 → 1/3` reuses every trial (Section 5.4)
    /// and its weight matches the exact oracle.
    #[test]
    fn while_loop_geometric_edit() {
        let p = parse("p = 0.5; n = 1; while flip(p) @ t { n = n + 1; } return n;").unwrap();
        let q = parse("p = 1.0 / 3.0; n = 1; while flip(p) @ t { n = n + 1; } return n;").unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let corr = translator.edit().correspondence.clone();
        assert_eq!(corr.lookup(&addr!["t", 3]), Some(addr!["t", 3]));
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..30 {
            let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
            let t = graph.to_trace().unwrap();
            let result = translator.translate_graph(&graph, &mut rng).unwrap();
            let u = result.graph.to_trace().unwrap();
            // Whole trial sequence reused: same n.
            assert_eq!(u.return_value(), t.return_value());
            assert_eq!(u.to_choice_map(), t.to_choice_map());
            let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
            assert!(
                (result.log_weight.log() - exact.log()).abs() < 1e-9,
                "incremental {} vs exact {}",
                result.log_weight.log(),
                exact.log()
            );
            // Hand-computed: ((1/3)/(1/2))^(n-1) * ((2/3)/(1/2)).
            let n = t.return_value().unwrap().as_int().unwrap();
            let expected = ((2.0f64 / 3.0).powi((n - 1) as i32) * (2.0 / 3.0) / 0.5).ln();
            assert!((result.log_weight.log() - expected).abs() < 1e-9);
        }
    }

    /// A while loop whose *termination condition* changes: the loop runs
    /// a different number of iterations; removed/added iterations are
    /// accounted exactly.
    #[test]
    fn while_loop_bound_change() {
        let p = parse(
            "n = 0; s = 0;
             while n < 3 { s = s + flip(0.5) @ f; n = n + 1; }
             observe(flip(s > 1 ? 0.9 : 0.2) @ o == 1);
             return s;",
        )
        .unwrap();
        let q = parse(
            "n = 0; s = 0;
             while n < 5 { s = s + flip(0.5) @ f; n = n + 1; }
             observe(flip(s > 2 ? 0.9 : 0.2) @ o == 1);
             return s;",
        )
        .unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let corr = translator.edit().correspondence.clone();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let t = simulate(&p, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            assert_eq!(u.len(), 5);
            // The first three flips are reused.
            for i in 0..3_i64 {
                assert_eq!(u.value(&addr!["f", i]), t.value(&addr!["f", i]));
            }
            let exact = exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
            assert!(
                (w.log() - exact.log()).abs() < 1e-9,
                "incremental {} vs exact {}",
                w.log(),
                exact.log()
            );
        }
        // And shrinking: Q runs fewer iterations than P.
        let translator = IncrementalTranslator::from_edit(q.clone(), p.clone());
        let corr = translator.edit().correspondence.clone();
        for _ in 0..30 {
            let t = simulate(&q, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            assert_eq!(u.len(), 3);
            let exact = exact_weight_estimate(&q, &p, &corr, &t, &u).unwrap();
            assert!(
                (w.log() - exact.log()).abs() < 1e-9,
                "shrink: incremental {} vs exact {}",
                w.log(),
                exact.log()
            );
        }
    }

    /// An identity edit on a while program skips every iteration.
    #[test]
    fn while_identity_edit_skips_everything() {
        let src = "n = 0; while n < 4 { n = n + flip(0.9) @ f; } return n;";
        let p = parse(src).unwrap();
        let q = parse(src).unwrap();
        let translator = IncrementalTranslator::from_edit(p.clone(), q);
        let mut rng = StdRng::seed_from_u64(22);
        let graph = ExecGraph::simulate(&p, &mut rng).unwrap();
        let result = translator.translate_graph(&graph, &mut rng).unwrap();
        assert_eq!(result.stats.nodes_visited, 0);
        assert!(result.log_weight.log().abs() < 1e-12);
        assert_eq!(
            result.graph.to_trace().unwrap().to_choice_map(),
            graph.to_trace().unwrap().to_choice_map()
        );
    }

    /// Graph translations compose: translate P → Q, then reuse the output
    /// graph to translate Q → R.
    #[test]
    fn chained_edits_compose() {
        let p = parse("s = 1.0; x = gauss(0.0, s) @ x; return x;").unwrap();
        let q = parse("s = 2.0; x = gauss(0.0, s) @ x; return x;").unwrap();
        let r = parse("s = 4.0; x = gauss(0.0, s) @ x; return x;").unwrap();
        let t1 = IncrementalTranslator::from_edit(p.clone(), q.clone());
        let t2 = IncrementalTranslator::from_edit(q.clone(), r.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let g_p = ExecGraph::simulate(&p, &mut rng).unwrap();
        let step1 = t1.translate_graph(&g_p, &mut rng).unwrap();
        let step2 = t2.translate_graph(&step1.graph, &mut rng).unwrap();
        let x = g_p.to_trace().unwrap().value(&addr!["x"]).unwrap().clone();
        assert_eq!(step2.graph.to_trace().unwrap().value(&addr!["x"]), Some(&x));
        // Total weight = N(x; 0,4)/N(x; 0,1) through the chain.
        let x = x.as_real().unwrap();
        let n1 = ppl::dist::Normal::new(0.0, 1.0).unwrap();
        let n4 = ppl::dist::Normal::new(0.0, 4.0).unwrap();
        let expected = n4.log_prob(&Value::Real(x)).log() - n1.log_prob(&Value::Real(x)).log();
        let total = step1.log_weight.log() + step2.log_weight.log();
        assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
    }
}
