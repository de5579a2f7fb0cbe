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
