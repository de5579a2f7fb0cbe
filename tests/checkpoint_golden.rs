//! Golden-file test pinning the on-disk checkpoint format (v1).
//!
//! Crash-safe resume only works if every build of this workspace can read
//! checkpoints written by every other build, so the rendered bytes are
//! pinned the same way `trace_io_golden.rs` pins the collection format.
//! The companion corruption test proves a damaged checkpoint is rejected
//! with a typed error — never silently resumed.
//!
//! Regenerate with `BLESS=1 cargo test --test checkpoint_golden` after an
//! *intentional* format change only.

use incremental::{Checkpoint, CheckpointError, FailureKind, ParticleFailure, StepReport};
use ppl::{addr, ChoiceMap, PplError, Value};

const GOLDEN_PATH: &str = "tests/golden/checkpoint_v1.ckpt";

/// A deterministic checkpoint exercising every field the format carries:
/// multiple ESS entries (including a non-representable-in-decimal one),
/// clean and dirty step reports, every failure kind, a non-finite weight,
/// and particles with nested/indexed addresses and negative log-weights.
///
/// All diagnostic messages are single-line so the reference round-trips
/// exactly (multiline messages flatten lossily by design).
fn reference_checkpoint() -> Checkpoint {
    let mut m1 = ChoiceMap::new();
    m1.insert(addr!["x"], Value::Bool(true));
    m1.insert(addr!["mu", 2], Value::Real(0.1 + 0.2));
    m1.insert(addr!["state", 0, "inner"], Value::Int(-7));
    let mut m2 = ChoiceMap::new();
    m2.insert(addr!["x"], Value::Bool(false));
    m2.insert(addr!["needs quoting", 1], Value::Real(-1.5e-3));
    Checkpoint {
        step: 2,
        base_seed: 424_242,
        fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        ess_history: vec![64.0, 1.0 / 3.0],
        reports: vec![
            StepReport {
                step: 0,
                input_particles: 64,
                output_particles: 64,
                ess: 64.0,
                dropped: 0,
                retries: 2,
                recovered: 1,
                failures: vec![],
                resampled: true,
                collapse_recovered: false,
            },
            StepReport {
                step: 1,
                input_particles: 64,
                output_particles: 61,
                ess: 1.0 / 3.0,
                dropped: 3,
                retries: 0,
                recovered: 0,
                failures: vec![
                    ParticleFailure {
                        step: 1,
                        particle: 5,
                        attempts: 1,
                        kind: FailureKind::Error(PplError::Other("division by zero".to_string())),
                    },
                    ParticleFailure {
                        step: 1,
                        particle: 17,
                        attempts: 3,
                        kind: FailureKind::Panic("index out of bounds".to_string()),
                    },
                    ParticleFailure {
                        step: 1,
                        particle: 23,
                        attempts: 1,
                        kind: FailureKind::Timeout { waited_ms: 250 },
                    },
                    ParticleFailure {
                        step: 1,
                        particle: 40,
                        attempts: 1,
                        kind: FailureKind::NonFiniteWeight(f64::INFINITY),
                    },
                ],
                resampled: false,
                collapse_recovered: true,
            },
        ],
        particles: vec![(m1.into(), -0.5), (m2.into(), -12.345_678_901_234_567)],
    }
}

#[test]
fn rendered_checkpoint_matches_golden_file() {
    let rendered = reference_checkpoint().render();
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to create it");
    assert_eq!(
        rendered, golden,
        "checkpoint format changed; if intentional, re-bless with BLESS=1"
    );
}

#[test]
fn golden_file_round_trips() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to create it");
    let parsed = Checkpoint::parse(&golden).unwrap();
    let reference = reference_checkpoint();
    assert_eq!(parsed.step, reference.step);
    assert_eq!(parsed.base_seed, reference.base_seed);
    assert_eq!(parsed.fingerprint, reference.fingerprint);
    assert_eq!(parsed.ess_history, reference.ess_history);
    assert_eq!(parsed.reports, reference.reports);
    assert_eq!(parsed.particles.len(), reference.particles.len());
    for ((pm, pw), (rm, rw)) in parsed.particles.iter().zip(&reference.particles) {
        assert_eq!(pm, rm);
        assert_eq!(pw.to_bits(), rw.to_bits());
    }
}

/// Every single-bit flip anywhere in the golden file must either fail to
/// parse with a typed [`CheckpointError`] or (for flips confined to
/// comments / insignificant whitespace) parse to exactly the canonical
/// checkpoint — a corrupted file is never silently resumed as different
/// data. Probing every 7th bit keeps the test fast while still covering
/// every byte of the file.
#[test]
fn bit_flipped_golden_is_rejected_or_benign() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to create it");
    let canonical = Checkpoint::parse(&golden).unwrap();
    let bytes = golden.as_bytes();
    let mut rejected = 0_usize;
    for bit in (0..bytes.len() * 8).step_by(7) {
        let mut corrupted = bytes.to_vec();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        let Ok(text) = String::from_utf8(corrupted) else {
            continue; // not valid UTF-8 — the loader rejects it earlier
        };
        match Checkpoint::parse(&text) {
            Err(
                CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::Corrupt { .. }
                | CheckpointError::VersionMismatch { .. },
            ) => rejected += 1,
            Err(other) => panic!("unexpected error kind for bit {bit}: {other}"),
            Ok(reparsed) => assert_eq!(
                reparsed, canonical,
                "bit flip {bit} silently changed the checkpoint"
            ),
        }
    }
    assert!(
        rejected > bytes.len() / 2,
        "suspiciously few rejections ({rejected}) — is the checksum being checked?"
    );
}
