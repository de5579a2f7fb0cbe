//! A session submits one edit at a time, yet its final
//! collection must equal, bit for bit, one
//! `depgraph::run_edit_sequence_supervised` call over the whole edit
//! history — traced or not, for one and two worker threads.

use std::time::Instant;

use bench_edits::session::{run_session, setup, Spec};
use bench_edits::trace::SpanLog;
use bench_edits::workload::Workload;
use depgraph::run_edit_sequence_supervised;
use incremental::{collection_checksum, FailurePolicy};
use ppl::ast::Program;

fn reference_checksum(spec: &Spec) -> u64 {
    let (inputs, _) = setup(spec, None).expect("set-up succeeds");
    let programs: Vec<Program> = inputs.programs.iter().map(|p| (**p).clone()).collect();
    let run = run_edit_sequence_supervised(
        &programs,
        &inputs.initial,
        0,
        &[],
        &[],
        &spec.smc_config(),
        &FailurePolicy::FailFast,
        &spec.stage_policy(),
        spec.base_seed(),
        spec.threads,
        None,
    )
    .expect("reference run succeeds");
    let flat = run.last().flatten().expect("final collection flattens");
    let entries: Vec<_> = flat
        .iter()
        .map(|p| (p.trace.to_choice_map(), p.log_weight.log()))
        .collect();
    collection_checksum(&entries)
}

#[test]
fn per_edit_sessions_match_one_supervised_call() {
    for workload in Workload::ALL {
        let mut checksums = Vec::new();
        for threads in [1, 2] {
            let spec = Spec {
                threads,
                ..Spec::new(workload, true, 7)
            };
            let expected = reference_checksum(&spec);
            let what = format!("{} threads={threads}", workload.name());

            let (inputs, _) = setup(&spec, None).expect("set-up succeeds");
            let plain = run_session(&spec, inputs, None).expect("session runs");
            assert_eq!(plain.failed, 0, "{what}");
            assert_eq!(plain.checksum, expected, "untraced {what}");

            let mut log = SpanLog::new(Instant::now());
            let (inputs, _) = setup(&spec, None).expect("set-up succeeds");
            let traced = run_session(&spec, inputs, Some(&mut log)).expect("session runs");
            assert_eq!(traced.checksum, expected, "traced {what}");
            assert!(traced.layers.is_some(), "{what}");
            checksums.push(expected);
        }
        assert_eq!(checksums[0], checksums[1], "{}", workload.name());
    }
}
