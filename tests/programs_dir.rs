//! The shipped `programs/*.ppl` files parse, pass the static checker, and
//! behave as documented.

use std::fs;
use std::path::PathBuf;

use ppl::check::{check, Severity};
use ppl::{addr, parse, Enumeration};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("programs")
}

fn read(name: &str) -> String {
    fs::read_to_string(programs_dir().join(name)).expect("program file exists")
}

#[test]
fn all_shipped_programs_parse_and_check_cleanly() {
    let entries: Vec<_> = fs::read_dir(programs_dir())
        .expect("programs dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().map(|x| x == "ppl").unwrap_or(false))
        .collect();
    assert!(entries.len() >= 8, "expected the shipped program set");
    for entry in entries {
        let source = fs::read_to_string(entry.path()).unwrap();
        let program =
            parse(&source).unwrap_or_else(|e| panic!("{:?} fails to parse: {e}", entry.path()));
        let errors: Vec<_> = check(&program)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{:?}: {errors:?}", entry.path());
        // Pretty-print round trip.
        let reparsed = parse(&program.to_string()).unwrap();
        assert_eq!(program, reparsed, "{:?} round trip", entry.path());
    }
}

/// Checkpoints store `program_fingerprint` of their target program, and
/// resume rejects a mismatch, so these values must not move: a change to
/// `Program`'s `Debug` output would strand every checkpoint on disk.
#[test]
fn shipped_program_fingerprints_are_pinned() {
    let pinned = [
        ("burglary", 0x4320_6e93_4e22_764f_u64),
        ("burglary_earthquake", 0xa41d_fb69_143f_19da),
        ("example1", 0x81f0_fc36_57d6_8860),
        ("geometric", 0xf8a2_f6f3_7ad3_ec14),
        ("geometric_third", 0x59da_efea_8218_1ca1),
        ("gmm", 0xaac2_6d51_45c2_c633),
        ("gmm_wide", 0xf1a8_8b81_dbe1_92d1),
        ("sprinkler", 0x359e_dbc6_dc94_f5ee),
    ];
    for (name, want) in pinned {
        let program = parse(&read(&format!("{name}.ppl"))).unwrap();
        let got = depgraph::program_fingerprint(&program);
        assert_eq!(got, want, "{name}: {got:#018x}");
    }
}

#[test]
fn shipped_burglary_files_reproduce_figure1() {
    let p = parse(&read("burglary.ppl")).unwrap();
    let q = parse(&read("burglary_earthquake.ppl")).unwrap();
    let burgled = |t: &ppl::Trace| t.return_value().unwrap().truthy().unwrap();
    let e_p = Enumeration::run(&p).unwrap();
    let e_q = Enumeration::run(&q).unwrap();
    assert!((e_p.probability(burgled) - 0.205).abs() < 5e-4);
    assert!((e_q.probability(burgled) - 0.194).abs() < 5e-4);
}

#[test]
fn shipped_example1_has_z_0_7() {
    let p = parse(&read("example1.ppl")).unwrap();
    assert!((Enumeration::run(&p).unwrap().z() - 0.7).abs() < 1e-12);
}

#[test]
fn shipped_geometric_edit_translates_through_the_cli_path() {
    let out =
        ppl_cli::cmd_translate_stats(&read("geometric.ppl"), &read("geometric_third.ppl"), 1, 3)
            .unwrap();
    assert!(out.contains("log weight"), "{out}");
}

#[test]
fn shipped_gmm_edit_is_the_figure10_workload() {
    let p = parse(&read("gmm.ppl")).unwrap();
    let q = parse(&read("gmm_wide.ppl")).unwrap();
    let translator = depgraph::IncrementalTranslator::from_edit(p.clone(), q);
    let mut rng = StdRng::seed_from_u64(4);
    let graph = depgraph::ExecGraph::simulate(&p, &mut rng).unwrap();
    let result = translator.translate_graph(&graph, &mut rng).unwrap();
    // K = 10 centers reused with a weight ratio; everything else skipped.
    assert!(result.log_weight.log().is_finite());
    assert!(
        result.stats.nodes_visited <= 25,
        "visited {}",
        result.stats.nodes_visited
    );
    assert!(graph.to_trace().unwrap().has_choice(&addr!["center", 9]));
}
