//! Building execution graphs: run a program once, recording every
//! statement instance, its dependencies, and its effects.
//!
//! A build is a walk of the propagation runtime ([`crate::propagate`])
//! with no old graph: every statement is walked fresh from the program's
//! compiled form ([`ppl::compile`], lowered once, cached globally and
//! shared by `Arc`), drawing each choice from the prior or from the trace
//! being replayed.

use std::sync::Arc;

use rand::RngCore;

use ppl::ast::Program;
use ppl::compile::compiled_for_shared;
use ppl::dist::Dist;
use ppl::{Address, ChoiceMap, PplError, Trace, Value};

use crate::eval::ChoiceSource;
use crate::propagate::{walk, Tally};
use crate::record::ExecGraph;

/// Samples every choice from its prior.
struct PriorSource<'a> {
    rng: &'a mut dyn RngCore,
}

impl ChoiceSource for PriorSource<'_> {
    fn draw(
        &mut self,
        _addr: &Address,
        dist: &Dist,
        _tally: &mut Tally,
    ) -> Result<Value, PplError> {
        Ok(dist.sample(self.rng))
    }
}

/// Replays choices from a map; errors on missing addresses.
struct ReplaySource<'a> {
    choices: &'a ChoiceMap,
}

impl ChoiceSource for ReplaySource<'_> {
    fn draw(
        &mut self,
        addr: &Address,
        _dist: &Dist,
        _tally: &mut Tally,
    ) -> Result<Value, PplError> {
        self.choices
            .get(addr)
            .cloned()
            .ok_or_else(|| PplError::MissingChoice(addr.clone()))
    }
}

impl ExecGraph {
    /// Builds a graph by executing `program` under the prior.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn simulate(program: &Program, rng: &mut dyn RngCore) -> Result<ExecGraph, PplError> {
        build(&Arc::new(program.clone()), &mut PriorSource { rng })
    }

    /// Builds a graph from an existing trace of the program.
    ///
    /// # Errors
    ///
    /// Returns [`PplError::MissingChoice`] when the program needs a choice
    /// the trace lacks, plus any evaluation errors.
    pub fn from_trace(program: &Program, trace: &Trace) -> Result<ExecGraph, PplError> {
        Self::from_trace_shared(&Arc::new(program.clone()), trace)
    }

    /// [`ExecGraph::from_trace`] with a shared program handle: the graph
    /// aliases `program` instead of cloning it, so translator validation
    /// can succeed on `Arc` identity alone.
    ///
    /// # Errors
    ///
    /// See [`ExecGraph::from_trace`].
    pub fn from_trace_shared(program: &Arc<Program>, trace: &Trace) -> Result<ExecGraph, PplError> {
        let choices = trace.to_choice_map();
        build(program, &mut ReplaySource { choices: &choices })
    }
}

fn build(program: &Arc<Program>, source: &mut dyn ChoiceSource) -> Result<ExecGraph, PplError> {
    let compiled = compiled_for_shared(program);
    Ok(walk(program, &compiled, None, source, None)?.graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::handlers::simulate;
    use ppl::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn graph_flattens_to_the_same_trace_as_the_interpreter() {
        let program = parse(
            "a = 1;
             b = flip(a / 3) @ b;
             if a < 2 { c = uniform(0, 5) @ c1; } else { c = uniform(6, 10) @ c2; }
             d = flip(b / 2) @ d;
             observe(flip(1 / 5) @ o == d);
             return c;",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let reference = simulate(&program, &mut rng).unwrap();
        let graph = ExecGraph::from_trace(&program, &reference).unwrap();
        let flattened = graph.to_trace().unwrap();
        assert_eq!(flattened.to_choice_map(), reference.to_choice_map());
        assert!((flattened.score().log() - reference.score().log()).abs() < 1e-12);
        assert_eq!(flattened.return_value(), reference.return_value());
        assert!((graph.score().log() - reference.score().log()).abs() < 1e-12);
    }

    #[test]
    fn gmm_graph_records_loops() {
        let program = models::gmm::gmm_program(10.0, 20, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let graph = ExecGraph::simulate(&program, &mut rng).unwrap();
        assert_eq!(graph.num_choices(), 5 + 2 * 20);
        let trace = graph.to_trace().unwrap();
        assert_eq!(trace.len(), 45);
        // Evaluation order: centers first, then pick/point interleaved.
        let order: Vec<&ppl::Address> = trace.choices().map(|(a, _)| a).collect();
        assert_eq!(order[0], &ppl::addr!["center", 0]);
        assert_eq!(order[5], &ppl::addr!["pick", 0]);
        assert_eq!(order[6], &ppl::addr!["point", 0]);
    }

    #[test]
    fn simulate_and_replay_agree() {
        let program = models::gmm::gmm_program(5.0, 7, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let g1 = ExecGraph::simulate(&program, &mut rng).unwrap();
        let t1 = g1.to_trace().unwrap();
        let g2 = ExecGraph::from_trace(&program, &t1).unwrap();
        let t2 = g2.to_trace().unwrap();
        assert_eq!(t1.to_choice_map(), t2.to_choice_map());
        assert!((t1.score().log() - t2.score().log()).abs() < 1e-12);
    }

    #[test]
    fn while_graph_matches_interpreter() {
        let program = parse("n = 1; while flip(0.6) @ t { n = n + 1; } return n;").unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let reference = simulate(&program, &mut rng).unwrap();
            let graph = ExecGraph::from_trace(&program, &reference).unwrap();
            let flattened = graph.to_trace().unwrap();
            assert_eq!(flattened.to_choice_map(), reference.to_choice_map());
            assert!((flattened.score().log() - reference.score().log()).abs() < 1e-12);
            assert_eq!(flattened.return_value(), reference.return_value());
        }
    }

    #[test]
    fn huge_arrays_are_a_typed_error_in_graph_builds() {
        let program = parse("x = array(100000000000, 0); return 0;").unwrap();
        let err = ExecGraph::simulate(&program, &mut StdRng::seed_from_u64(6)).unwrap_err();
        assert!(matches!(err, PplError::ArrayTooLong { .. }), "{err}");
    }

    #[test]
    fn observations_recorded_with_scores() {
        let program = parse("observe(flip(0.25) @ o == 1); return 0;").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let graph = ExecGraph::simulate(&program, &mut rng).unwrap();
        let obs = graph.observation(&ppl::addr!["o"]).unwrap();
        assert!((obs.log_prob.prob() - 0.25).abs() < 1e-12);
        assert!((graph.score().prob() - 0.25).abs() < 1e-12);
    }
}
