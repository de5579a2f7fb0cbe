//! End-to-end tests of the `ppl` binary: real process invocations over
//! real files.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn ppl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppl"))
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppl-cli-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    fs::write(&path, contents).unwrap();
    path
}

const COIN: &str = "x = flip(0.3) @ x; observe(flip(x ? 0.9 : 0.1) @ o == 1); return x;";
const COIN_SHARP: &str = "x = flip(0.3) @ x; observe(flip(x ? 0.99 : 0.01) @ o == 1); return x;";

#[test]
fn help_prints_usage_and_succeeds() {
    let out = ppl().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("translate"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = ppl().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"), "{text}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = ppl()
        .args(["check", "/nonexistent/nope.ppl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("cannot read"), "{text}");
}

#[test]
fn check_and_enumerate_round_trip() {
    let file = temp_file("coin.ppl", COIN);
    let out = ppl().arg("check").arg(&file).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no issues"));

    let out = ppl().arg("enumerate").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Z = 0.34"), "{text}");
}

#[test]
fn run_save_then_translate_load() {
    let p = temp_file("p.ppl", COIN);
    let q = temp_file("q.ppl", COIN_SHARP);
    let saved = temp_file("samples.txt", "");
    // Save MH samples of P.
    let out = ppl()
        .args(["sample"])
        .arg(&p)
        .args(["--steps", "20000", "--save"])
        .arg(&saved)
        .args(["--keep", "500", "--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let saved_text = fs::read_to_string(&saved).unwrap();
    assert!(saved_text.contains("weight"), "{saved_text}");
    // Translate the saved samples into Q.
    let out = ppl()
        .arg("translate")
        .arg(&p)
        .arg(&q)
        .arg("--load")
        .arg(&saved)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loaded 500 traces"), "{text}");
    assert!(text.contains("true"), "{text}");
}

#[test]
fn translate_stats_on_files() {
    let p = temp_file("stats_p.ppl", "a = 1; b = flip(a / 3) @ b; return b;");
    let q = temp_file("stats_q.ppl", "a = 2; b = flip(a / 3) @ b; return b;");
    let out = ppl()
        .arg("translate")
        .arg(&p)
        .arg(&q)
        .arg("--stats")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("visited"), "{text}");
}

#[test]
fn huge_arrays_make_run_exit_1_not_abort() {
    for (name, n) in [
        ("huge.ppl", "100000000000"),
        ("max.ppl", "9223372036854775807"),
    ] {
        let file = temp_file(name, &format!("x = array({n}, 0); return 0;"));
        let out = ppl().arg("run").arg(&file).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("exceeds the limit"), "{text}");
    }
}

fn shipped(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../programs")
        .join(name)
}

/// The n-th trace of the geometric loop records n choices, so a budget on
/// traces let enumeration grow without bound in memory; the budget on
/// recorded choices stops it.
#[test]
fn enumerating_an_unbounded_program_stops_at_its_budget() {
    let out = ppl()
        .arg("enumerate")
        .arg(shipped("geometric.ppl"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("budget of 2097152"), "{text}");

    // `translate` samples P's posterior exactly when it can enumerate P,
    // and falls back to MH when the budget runs out.
    let out = ppl()
        .arg("translate")
        .arg(shipped("geometric.ppl"))
        .arg(shipped("geometric_third.ppl"))
        .args(["--traces", "20"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P posterior: single-site MH"), "{text}");
}

/// A zero deadline would time every attempt out at once, so it is a
/// usage error.
#[test]
fn a_zero_deadline_is_a_usage_error() {
    let p = temp_file("deadline_p.ppl", COIN);
    let q = temp_file("deadline_q.ppl", COIN_SHARP);
    let out = ppl()
        .arg("sequence")
        .arg(&p)
        .arg(&q)
        .args(["--traces", "4", "--deadline-ms", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--deadline-ms must be at least 1"), "{text}");
}

/// A flag the command does not take is a usage error that names it, not
/// a run with defaults: `sequence` has no `--chunk-size`, and `--trace`
/// is a typo of `translate`'s `--traces`.
#[test]
fn a_flag_the_command_does_not_take_is_a_usage_error() {
    let p = temp_file("flags_p.ppl", COIN);
    let q = temp_file("flags_q.ppl", COIN_SHARP);
    for (command, flag, value) in [
        ("sequence", "--chunk-size", "4"),
        ("translate", "--trace", "5"),
    ] {
        let out = ppl()
            .arg(command)
            .arg(&p)
            .arg(&q)
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{command} {flag}");
        assert!(out.stdout.is_empty(), "{command} {flag}: nothing ran");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(
            text.contains(&format!("`{flag}`")),
            "{command} {flag}: {text}"
        );
    }
}

/// `ppl help` lays its commands out as a table: each command indented
/// two spaces, each further description line at the description column.
#[test]
fn help_indents_the_commands_and_their_descriptions() {
    let out = ppl().arg("help").output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    for command in ["check", "analyze", "translate", "sequence"] {
        assert!(
            text.lines()
                .any(|l| l.starts_with(&format!("  {command} <"))),
            "{command}: {text}"
        );
    }
    let continued = format!("{:39}stable codes", "");
    assert!(text.lines().any(|l| l.starts_with(&continued)), "{text}");
}

/// `translate` is a one-stage `sequence`: the same programs, seed and
/// trace count give the same final collection.
#[test]
fn translate_is_a_one_stage_sequence() {
    let p = temp_file("one_stage_p.ppl", COIN);
    let q = temp_file("one_stage_q.ppl", COIN_SHARP);
    let checksum = |command: &str| {
        let out = ppl()
            .arg(command)
            .arg(&p)
            .arg(&q)
            .args(["--traces", "300", "--seed", "7"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{command}");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        text.lines()
            .find(|l| l.starts_with("final collection checksum: "))
            .unwrap_or_else(|| panic!("{command}: {text}"))
            .to_string()
    };
    assert_eq!(checksum("translate"), checksum("sequence"));
}

/// Loaded traces go through the same stage as sampled ones, so `--policy`
/// applies and the stage's health is reported.
#[test]
fn translate_load_honours_the_policy_and_reports_health() {
    let p = temp_file("load_policy_p.ppl", COIN);
    let q = temp_file("load_policy_q.ppl", COIN_SHARP);
    let saved = temp_file("load_policy_samples.txt", "");
    let out = ppl()
        .arg("sample")
        .arg(&p)
        .args(["--steps", "2000", "--keep", "50", "--save"])
        .arg(&saved)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ppl()
        .arg("translate")
        .arg(&p)
        .arg(&q)
        .arg("--load")
        .arg(&saved)
        .args(["--policy", "drop:0.1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loaded 50 traces"), "{text}");
    assert!(text.contains("health: "), "{text}");
}

/// A flag that the chosen mode would ignore is a usage error that names
/// it, and nothing runs.
#[test]
fn a_flag_a_mode_would_ignore_is_a_usage_error() {
    let p = temp_file("mode_p.ppl", COIN);
    let q = temp_file("mode_q.ppl", COIN_SHARP);
    let saved = temp_file("mode_samples.txt", "# incremental-ppl collection v1\n");
    let saved = saved.to_str().unwrap();
    for (command, args, flag) in [
        ("translate", vec!["--stats", "--load", saved], "--load"),
        (
            "translate",
            vec!["--stats", "--policy", "drop:0.1"],
            "--policy",
        ),
        (
            "translate",
            vec!["--load", saved, "--traces", "5"],
            "--traces",
        ),
        ("sample", vec!["--keep", "5"], "--keep"),
        (
            "sequence",
            vec!["--checkpoint-every", "2"],
            "--checkpoint-every",
        ),
    ] {
        let mut cmd = ppl();
        cmd.arg(command).arg(&p);
        if command != "sample" {
            cmd.arg(&q);
        }
        let out = cmd.args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{command} {args:?}");
        assert!(out.stdout.is_empty(), "{command} {args:?}: nothing ran");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains(&format!("`{flag}`")), "{command}: {text}");
    }
    // `--stats` takes `--traces`: the number of prior graphs it sums over.
    let out = ppl()
        .arg("translate")
        .arg(&p)
        .arg(&q)
        .args(["--stats", "--traces", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace size: 3 choices"));
}

/// An edit whose every translated weight is zero collapses the stage: an
/// inference failure, exit 2, as under `sequence`.
#[test]
fn a_zero_likelihood_translate_exits_2() {
    let p = temp_file("zero_p.ppl", COIN);
    let q = temp_file(
        "zero_q.ppl",
        "x = flip(0.3) @ x; observe(flip(0.0) @ o == 1); return x;",
    );
    let out = ppl()
        .arg("translate")
        .arg(&p)
        .arg(&q)
        .args(["--traces", "20"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("collapsed"), "{text}");
}

/// A run needs at least one particle to start from: an empty starting
/// collection, asked for or loaded, is a usage error before any work,
/// not a collapse reported after it.
#[test]
fn an_empty_starting_collection_is_a_usage_error() {
    let p = temp_file("empty_p.ppl", COIN);
    let q = temp_file("empty_q.ppl", COIN_SHARP);
    let refused = |cmd: &mut Command, naming: &str| {
        let out = cmd.output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains(naming), "{err}");
        assert!(!err.contains("collapsed"), "{err}");
        assert!(out.stdout.is_empty(), "no work is done");
    };
    for command in ["sequence", "translate"] {
        refused(
            ppl().arg(command).arg(&p).arg(&q).args(["--traces", "0"]),
            "--traces must be at least 1",
        );
    }
    let saved = temp_file("empty_samples.txt", "");
    let out = ppl()
        .arg("sample")
        .arg(&p)
        .args(["--steps", "100", "--keep", "0", "--save"])
        .arg(&saved)
        .output()
        .unwrap();
    assert!(out.status.success());
    let named = format!("`{}` holds no traces", saved.display());
    refused(
        ppl()
            .arg("translate")
            .arg(&p)
            .arg(&q)
            .arg("--load")
            .arg(&saved),
        &named,
    );
}
