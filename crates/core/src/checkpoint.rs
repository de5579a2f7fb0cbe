//! Durable checkpoints for sequence runs: the crash-safety half of the
//! robustness layer.
//!
//! A long edit sequence (the paper's Fig. 9 regime — hundreds of
//! programs, particles carried end to end) keeps all inference state in
//! memory; one crash or OOM-kill loses the whole run. A [`Checkpoint`]
//! snapshots everything needed to continue from a stage boundary:
//!
//! - the particle collection as *flat* weighted choice maps (graph-native
//!   states flatten on save and re-lift on resume), serialized with the
//!   existing [`ppl::trace_io`] format, which round-trips every `f64`
//!   exactly;
//! - the number of completed stages and the run's base seed — with the
//!   supervised runner's per-stage seed derivation
//!   ([`crate::stage_seed`] / [`crate::resample_seed`]) these two values
//!   reconstruct *all* remaining randomness, so no RNG state needs to be
//!   persisted;
//! - the fingerprint of the program the particles target (opaque to this
//!   crate; computed and validated by `depgraph`), so a checkpoint is
//!   never resumed against an edited program;
//! - the accumulated ESS and [`StepReport`] history, so a resumed run
//!   reports the full sequence.
//!
//! Resampling leaves particles that share state: duplicates that are one
//! `Arc`, and distinct graphs that share records and often hold the same
//! choices. [`Checkpoint::from_snapshot`] flattens the collection in one
//! [`ParticleState::choice_maps`] call, which gives particles with the
//! same map one `Arc` (for graphs: each shared record listed once, and
//! graphs with identical choices grouped after an exact comparison), and
//! [`Checkpoint::render`] writes each distinct map's binding lines once
//! and copies them for the other particles that share it. Every particle
//! keeps its own block and `weight` line, so the file is the same v1 text
//! that flattening and writing each particle separately gives, byte for
//! byte.
//!
//! Durability: [`Checkpoint::save`] writes to a temp file in the target
//! directory, syncs it, and renames it into place, so a crash mid-write
//! can never produce a truncated checkpoint under the final name. Once
//! the new file is durable, `save` removes the files of earlier steps:
//! a resume reads only the newest file ([`Checkpoint::latest_in`]), so a
//! directory holds one checkpoint however long the run. An
//! FxHash64 checksum trailer covers the whole body; [`Checkpoint::parse`]
//! rejects any corruption with a typed [`CheckpointError`] — a bit-flipped
//! checkpoint is never silently resumed.
//!
//! Lossiness: particle values, weights, seeds, and step indices round-trip
//! bit-exactly. Failure *diagnostics* do not: a structured
//! [`FailureKind::Error`] reloads as `PplError::Other` with the same
//! message, and embedded newlines in panic/error messages are flattened
//! to spaces. Diagnostics never feed back into inference, so this cannot
//! affect resume determinism.

use std::borrow::Borrow;
use std::fmt;
use std::hash::Hasher;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ppl::trace_io::{parse_weighted_collection, write_weighted_collection, write_weighted_entries};
use ppl::{ChoiceMap, FxHasher, PplError};

use crate::health::{FailureKind, ParticleFailure, StepReport};
use crate::particles::ParticleState;
use crate::sequence::StageSnapshot;

/// The first line of every checkpoint file; bump the trailing version on
/// any format change (and keep a migration or a clear error).
const HEADER: &str = "# incremental-ppl checkpoint v1";

/// Typed failures of checkpoint I/O and validation. Every variant is an
/// explicit refusal to resume — corruption is never silently ignored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem-level failure (open, read, write, sync, rename).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
    /// The file does not parse as a checkpoint (missing or malformed
    /// fields, bad particle block, truncated trailer).
    Corrupt {
        /// What failed to parse.
        reason: String,
    },
    /// The integrity checksum does not match the file body: the file was
    /// altered (or bit-rotted) after it was written.
    ChecksumMismatch {
        /// Checksum recomputed from the body.
        computed: u64,
        /// Checksum recorded in the trailer.
        recorded: u64,
    },
    /// The file's header is not this version's [`HEADER`] line.
    VersionMismatch {
        /// The header line actually found.
        found: String,
    },
    /// The checkpointed program fingerprint does not match the program
    /// the resume was asked to continue into.
    FingerprintMismatch {
        /// Fingerprint of the program at the checkpoint's step.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// The checkpoint's step index is beyond the supplied sequence.
    StepOutOfRange {
        /// Completed-stage count recorded in the checkpoint.
        step: usize,
        /// Number of programs in the sequence being resumed.
        programs: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error at {}: {message}", path.display())
            }
            CheckpointError::Corrupt { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            CheckpointError::ChecksumMismatch { computed, recorded } => write!(
                f,
                "checkpoint checksum mismatch: body hashes to {computed:016x} \
                 but trailer records {recorded:016x}"
            ),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "unsupported checkpoint version: expected `{HEADER}`, found `{found}`"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint program fingerprint {found:016x} does not match \
                 the sequence being resumed (expected {expected:016x}); \
                 the program was edited since the checkpoint was written"
            ),
            CheckpointError::StepOutOfRange { step, programs } => write!(
                f,
                "checkpoint records {step} completed stages but the sequence \
                 has only {programs} programs"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for PplError {
    fn from(e: CheckpointError) -> PplError {
        PplError::Other(e.to_string())
    }
}

/// A durable snapshot of a sequence run at a stage boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Number of completed stages — equivalently, the index of the
    /// program the particles currently target. Resuming runs stages
    /// `step..` of the same program sequence.
    pub step: usize,
    /// The run's base seed. All remaining per-stage randomness derives
    /// from this and the absolute stage index.
    pub base_seed: u64,
    /// Fingerprint of the program the particles target (`programs[step]`),
    /// opaque to this crate; `depgraph::resume_collection` validates it.
    pub fingerprint: u64,
    /// ESS after every completed stage.
    pub ess_history: Vec<f64>,
    /// Health reports of every completed stage.
    pub reports: Vec<StepReport>,
    /// The particle collection, flattened to weighted choice maps
    /// (`(choices, log_weight)`). Particles that shared one state when
    /// the snapshot was taken share one map.
    pub particles: Vec<(Arc<ChoiceMap>, f64)>,
}

impl Checkpoint {
    /// Builds a checkpoint from a supervised-runner stage snapshot,
    /// flattening the collection to weighted choice maps in one
    /// [`ParticleCollection::weighted_maps`](crate::ParticleCollection::weighted_maps)
    /// call: particles with the same map share it.
    ///
    /// # Errors
    ///
    /// Propagates [`ParticleState::choice_maps`] failures from
    /// flattening graph-native states: the first failing particle's.
    pub fn from_snapshot<S: ParticleState>(
        snapshot: &StageSnapshot<'_, S>,
        base_seed: u64,
        fingerprint: u64,
    ) -> Result<Checkpoint, PplError> {
        Ok(Checkpoint {
            step: snapshot.step,
            base_seed,
            fingerprint,
            ess_history: snapshot.ess_history.to_vec(),
            reports: snapshot.reports.to_vec(),
            particles: snapshot.collection.weighted_maps()?,
        })
    }

    /// Checks the checkpoint against the fingerprint of the program it
    /// is about to be resumed into.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FingerprintMismatch`] when they differ.
    pub fn validate_fingerprint(&self, expected: u64) -> Result<(), CheckpointError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(CheckpointError::FingerprintMismatch {
                expected,
                found: self.fingerprint,
            })
        }
    }

    /// The file name of the checkpoint for `step` completed stages.
    ///
    /// Zero-padded to 8 digits so lexicographic file ordering matches
    /// numeric step ordering up to step 99 999 999 (5 digits broke at
    /// step 100 000). [`Checkpoint::latest_in`] parses the step
    /// numerically, so directories mixing old 5-digit and new 8-digit
    /// names still resolve to the highest step.
    pub fn file_name(step: usize) -> String {
        format!("step-{step:08}.ckpt")
    }

    /// Renders the checkpoint to its on-disk text format, including the
    /// checksum trailer. The format is pinned by
    /// `tests/checkpoint_golden.rs`.
    pub fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(HEADER);
        body.push('\n');
        body.push_str(&format!("step {}\n", self.step));
        body.push_str(&format!("base-seed {}\n", self.base_seed));
        body.push_str(&format!("fingerprint {}\n", self.fingerprint));
        for ess in &self.ess_history {
            body.push_str(&format!("ess {ess:?}\n"));
        }
        for report in &self.reports {
            body.push_str(&render_report(report));
        }
        body.push_str("begin particles\n");
        self.write_particles(&mut body);
        body.push_str("end particles\n");
        let checksum = fxhash64(body.as_bytes());
        body.push_str(&format!("checksum {checksum:016x}\n"));
        body
    }

    /// Parses and validates checkpoint text: header version, field
    /// syntax, particle block, and the checksum trailer.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::VersionMismatch`], [`CheckpointError::Corrupt`],
    /// or [`CheckpointError::ChecksumMismatch`].
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        // Split off the checksum trailer: the last non-empty line.
        let trimmed = text.trim_end_matches(['\n', '\r']);
        let trailer_start = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let trailer = &trimmed[trailer_start..];
        let recorded = trailer
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
            .ok_or_else(|| CheckpointError::Corrupt {
                reason: "missing or malformed checksum trailer".to_string(),
            })?;
        let body = &text[..trailer_start];
        let computed = fxhash64(body.as_bytes());
        if computed != recorded {
            return Err(CheckpointError::ChecksumMismatch { computed, recorded });
        }

        let mut lines = body.lines();
        let header = lines.next().unwrap_or("");
        if header != HEADER {
            return Err(CheckpointError::VersionMismatch {
                found: header.to_string(),
            });
        }

        let mut step: Option<usize> = None;
        let mut base_seed: Option<u64> = None;
        let mut fingerprint: Option<u64> = None;
        let mut ess_history: Vec<f64> = Vec::new();
        let mut reports: Vec<StepReport> = Vec::new();
        let mut particle_text = String::new();
        let mut in_particles = false;
        let mut saw_particles = false;
        for line in lines {
            if in_particles {
                if line == "end particles" {
                    in_particles = false;
                } else {
                    particle_text.push_str(line);
                    particle_text.push('\n');
                }
                continue;
            }
            if line.is_empty() {
                continue;
            }
            if line == "begin particles" {
                in_particles = true;
                saw_particles = true;
            } else if let Some(v) = line.strip_prefix("step ") {
                step = Some(parse_field(v, "step")?);
            } else if let Some(v) = line.strip_prefix("base-seed ") {
                base_seed = Some(parse_field(v, "base-seed")?);
            } else if let Some(v) = line.strip_prefix("fingerprint ") {
                fingerprint = Some(parse_field(v, "fingerprint")?);
            } else if let Some(v) = line.strip_prefix("ess ") {
                ess_history.push(parse_field(v, "ess")?);
            } else if let Some(v) = line.strip_prefix("report ") {
                reports.push(parse_report(v)?);
            } else if let Some(v) = line.strip_prefix("failure ") {
                let report = reports.last_mut().ok_or_else(|| CheckpointError::Corrupt {
                    reason: "failure line before any report line".to_string(),
                })?;
                report.failures.push(parse_failure(v)?);
            } else if !line.starts_with('#') {
                return Err(CheckpointError::Corrupt {
                    reason: format!("unrecognized line: `{line}`"),
                });
            }
        }
        if in_particles {
            return Err(CheckpointError::Corrupt {
                reason: "unterminated particle block".to_string(),
            });
        }
        if !saw_particles {
            return Err(CheckpointError::Corrupt {
                reason: "missing particle block".to_string(),
            });
        }
        let particles = parse_weighted_collection(&particle_text)
            .map_err(|e| CheckpointError::Corrupt {
                reason: format!("particle block: {e}"),
            })?
            .into_iter()
            .map(|(map, log_weight)| (Arc::new(map), log_weight))
            .collect();
        Ok(Checkpoint {
            step: step.ok_or_else(|| missing("step"))?,
            base_seed: base_seed.ok_or_else(|| missing("base-seed"))?,
            fingerprint: fingerprint.ok_or_else(|| missing("fingerprint"))?,
            ess_history,
            reports,
            particles,
        })
    }

    /// Writes the checkpoint durably into `dir` as
    /// [`Checkpoint::file_name`]`(self.step)`: the text is written to a
    /// temp file in the same directory, synced, renamed into place, and
    /// the directory itself is synced — so a crash mid-save never leaves
    /// a truncated file under the final name, and a power loss right
    /// after `save` returns cannot lose the directory entry of the
    /// completed checkpoint. Then one pass over the directory removes
    /// the checkpoints of lower steps, which this one supersedes, and
    /// stale temp files orphaned by an earlier crash (a SIGKILL between
    /// temp-file creation and rename); checkpoints of higher steps stay.
    /// Creates `dir` if needed. Returns the final path.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |e: std::io::Error| CheckpointError::Io {
                path,
                message: e.to_string(),
            }
        };
        std::fs::create_dir_all(dir).map_err(io(dir))?;
        let final_path = dir.join(Checkpoint::file_name(self.step));
        let tmp_path = dir.join(format!(
            ".{}.tmp-{}",
            Checkpoint::file_name(self.step),
            std::process::id()
        ));
        {
            let mut tmp = std::fs::File::create(&tmp_path).map_err(io(&tmp_path))?;
            tmp.write_all(self.render().as_bytes())
                .map_err(io(&tmp_path))?;
            tmp.sync_all().map_err(io(&tmp_path))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(io(&final_path))?;
        // The rename is durable only once the directory entry itself is
        // on disk: fsync the parent directory.
        sync_dir(dir).map_err(io(dir))?;
        if let Ok(entries) = std::fs::read_dir(dir) {
            scan(entries, |step, _, path| {
                if step < self.step {
                    // Best-effort, as the sweep: the new checkpoint is
                    // already durable.
                    let _ = std::fs::remove_file(path);
                }
            });
        }
        Ok(final_path)
    }

    /// Loads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on read failure; parse/validation errors
    /// as [`Checkpoint::parse`].
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Checkpoint::parse(&text)
    }

    /// Finds and loads the checkpoint with the highest step number in
    /// `dir`, sweeping stale temp files in the same pass over the
    /// directory. Returns `Ok(None)` when the directory does not exist or
    /// holds no checkpoint files.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`] for the newest file found.
    pub fn latest_in(dir: &Path) -> Result<Option<(PathBuf, Checkpoint)>, CheckpointError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CheckpointError::Io {
                    path: dir.to_path_buf(),
                    message: e.to_string(),
                })
            }
        };
        let mut best: Option<(usize, String, PathBuf)> = None;
        scan(entries, |step, name, path| {
            // A step can appear under both the current 8-digit padding
            // and the legacy 5-digit one; prefer the current (longer)
            // name so the pick never depends on directory order.
            let better = match &best {
                None => true,
                Some((s, n, _)) => {
                    step > *s || (step == *s && (name.len(), name) > (n.len(), n.as_str()))
                }
            };
            if better {
                best = Some((step, name.to_string(), path));
            }
        });
        match best {
            Some((_, _, path)) => {
                let ck = Checkpoint::load(&path)?;
                Ok(Some((path, ck)))
            }
            None => Ok(None),
        }
    }

    /// The checksum of this checkpoint's particle collection — the value
    /// the kill-and-resume differential tests compare. It hashes the
    /// particle block [`Checkpoint::render`] writes, which is the text
    /// [`collection_checksum`] hashes for the same maps unshared.
    pub fn particle_checksum(&self) -> u64 {
        let mut block = String::new();
        self.write_particles(&mut block);
        fxhash64(block.as_bytes())
    }

    /// Appends the particle block. A map shared by several particles is
    /// rendered once and its binding lines copied for the others.
    fn write_particles(&self, out: &mut String) {
        write_weighted_entries(out, self.particles.iter().map(|(map, w)| (&**map, *w)));
    }
}

/// FxHash64 checksum of the checkpoint's particle collection in its
/// serialized form — the "bit-identical resume" acceptance criterion in
/// executable form. Byte-identical serialized choice maps and log-weights
/// give equal checksums; the converse is not guaranteed, since the
/// checksum is a 64-bit hash. The entries are owned maps or the shared
/// ones of
/// [`ParticleCollection::weighted_maps`](crate::ParticleCollection::weighted_maps);
/// a shared map is rendered once.
pub fn collection_checksum<M: Borrow<ChoiceMap>>(entries: &[(M, f64)]) -> u64 {
    fxhash64(write_weighted_collection(entries).as_bytes())
}

/// Process-wide count of successful parent-directory fsyncs performed by
/// [`Checkpoint::save`] — the strace-free unit seam for asserting the
/// rename was made durable.
static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

/// Number of checkpoint-directory fsyncs performed by [`Checkpoint::save`]
/// since process start. A successful `save` increments this exactly once,
/// *after* the rename; tests diff it across a save to prove the directory
/// entry was synced.
pub fn dir_sync_count() -> u64 {
    DIR_SYNCS.load(Ordering::Relaxed)
}

/// Fsyncs a directory so a just-renamed entry survives power loss.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    let handle = std::fs::File::open(dir)?;
    handle.sync_all()?;
    DIR_SYNCS.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// One pass over a checkpoint directory's `entries`: removes temp files
/// orphaned by a crash between temp-file creation and rename
/// (`.step-NNNNN.ckpt.tmp-<pid>`, any padding width), and calls `found`
/// with the step, name and path of every checkpoint file
/// (`step-NNNNNNNN.ckpt`, any padding width). Best-effort: per-file
/// errors are ignored — a concurrent sweeper may have won the race, and
/// an unremovable orphan must not fail the save that found it.
fn scan(entries: std::fs::ReadDir, mut found: impl FnMut(usize, &str, PathBuf)) {
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(".step-") && name.contains(".ckpt.tmp-") {
            let _ = std::fs::remove_file(entry.path());
        } else if let Some(step) = name
            .strip_prefix("step-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            found(step, name, entry.path());
        }
    }
}

fn fxhash64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn missing(field: &str) -> CheckpointError {
    CheckpointError::Corrupt {
        reason: format!("missing `{field}` field"),
    }
}

fn parse_field<T: std::str::FromStr>(v: &str, field: &str) -> Result<T, CheckpointError> {
    v.trim().parse().map_err(|_| CheckpointError::Corrupt {
        reason: format!("malformed `{field}` value `{}`", v.trim()),
    })
}

/// Flattens embedded newlines so a diagnostic message stays on one line
/// of the checkpoint file (documented lossy; see module docs).
fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

fn render_report(r: &StepReport) -> String {
    let mut out = format!(
        "report step={} in={} out={} ess={:?} dropped={} retries={} recovered={} resampled={} collapse={}\n",
        r.step,
        r.input_particles,
        r.output_particles,
        r.ess,
        r.dropped,
        r.retries,
        r.recovered,
        u8::from(r.resampled),
        u8::from(r.collapse_recovered),
    );
    for f in &r.failures {
        let kind = match &f.kind {
            FailureKind::Error(e) => format!("kind=error msg={}", one_line(&e.to_string())),
            FailureKind::Panic(msg) => format!("kind=panic msg={}", one_line(msg)),
            FailureKind::NonFiniteWeight(w) => format!("kind=nonfinite value={w:?}"),
            FailureKind::Timeout { waited_ms } => format!("kind=timeout waited={waited_ms}"),
        };
        out.push_str(&format!(
            "failure step={} particle={} attempts={} {kind}\n",
            f.step, f.particle, f.attempts
        ));
    }
    out
}

/// Pulls `key=` from a `key=value` token list, returning the value up to
/// the next space (or, for `msg=`, the rest of the line).
fn take_kv<'a>(line: &'a str, key: &str) -> Result<&'a str, CheckpointError> {
    let pat = format!("{key}=");
    let start = line.find(&pat).ok_or_else(|| CheckpointError::Corrupt {
        reason: format!("missing `{key}=` in `{line}`"),
    })? + pat.len();
    let rest = &line[start..];
    if key == "msg" {
        Ok(rest)
    } else {
        Ok(rest.split_whitespace().next().unwrap_or(""))
    }
}

fn parse_report(v: &str) -> Result<StepReport, CheckpointError> {
    Ok(StepReport {
        step: parse_field(take_kv(v, "step")?, "report step")?,
        input_particles: parse_field(take_kv(v, "in")?, "report in")?,
        output_particles: parse_field(take_kv(v, "out")?, "report out")?,
        ess: parse_field(take_kv(v, "ess")?, "report ess")?,
        dropped: parse_field(take_kv(v, "dropped")?, "report dropped")?,
        retries: parse_field(take_kv(v, "retries")?, "report retries")?,
        recovered: parse_field(take_kv(v, "recovered")?, "report recovered")?,
        failures: Vec::new(),
        resampled: parse_field::<u8>(take_kv(v, "resampled")?, "report resampled")? != 0,
        collapse_recovered: parse_field::<u8>(take_kv(v, "collapse")?, "report collapse")? != 0,
    })
}

fn parse_failure(v: &str) -> Result<ParticleFailure, CheckpointError> {
    let kind = match take_kv(v, "kind")? {
        // A structured error reloads as its message (documented lossy).
        "error" => FailureKind::Error(PplError::Other(take_kv(v, "msg")?.to_string())),
        "panic" => FailureKind::Panic(take_kv(v, "msg")?.to_string()),
        "nonfinite" => {
            FailureKind::NonFiniteWeight(parse_field(take_kv(v, "value")?, "failure value")?)
        }
        "timeout" => FailureKind::Timeout {
            waited_ms: parse_field(take_kv(v, "waited")?, "failure waited")?,
        },
        other => {
            return Err(CheckpointError::Corrupt {
                reason: format!("unknown failure kind `{other}`"),
            })
        }
    };
    Ok(ParticleFailure {
        step: parse_field(take_kv(v, "step")?, "failure step")?,
        particle: parse_field(take_kv(v, "particle")?, "failure particle")?,
        attempts: parse_field(take_kv(v, "attempts")?, "failure attempts")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;
    use crate::particles::ParticleCollection;
    use ppl::{addr, LogWeight, Value};

    fn sample_checkpoint() -> Checkpoint {
        let mut m1 = ChoiceMap::new();
        m1.insert(addr!["x"], Value::Bool(true));
        m1.insert(addr!["mu", 2], Value::Real(0.1 + 0.2));
        let mut m2 = ChoiceMap::new();
        m2.insert(addr!["x"], Value::Bool(false));
        Checkpoint {
            step: 3,
            base_seed: 777,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            ess_history: vec![15.5, 12.25, 1.0 / 3.0],
            reports: vec![
                StepReport {
                    step: 2,
                    input_particles: 2,
                    output_particles: 2,
                    ess: 1.75,
                    dropped: 0,
                    retries: 1,
                    recovered: 1,
                    failures: vec![],
                    resampled: true,
                    collapse_recovered: false,
                },
                StepReport {
                    step: 2,
                    input_particles: 2,
                    output_particles: 1,
                    ess: 1.0,
                    dropped: 1,
                    retries: 0,
                    recovered: 0,
                    failures: vec![
                        ParticleFailure {
                            step: 2,
                            particle: 1,
                            attempts: 2,
                            kind: FailureKind::Panic("boom:\nmultiline".to_string()),
                        },
                        ParticleFailure {
                            step: 2,
                            particle: 0,
                            attempts: 1,
                            kind: FailureKind::Timeout { waited_ms: 250 },
                        },
                        ParticleFailure {
                            step: 2,
                            particle: 3,
                            attempts: 1,
                            kind: FailureKind::NonFiniteWeight(f64::INFINITY),
                        },
                    ],
                    resampled: false,
                    collapse_recovered: true,
                },
            ],
            particles: vec![(m1.into(), -0.5), (m2.into(), 0.0)],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let ck = sample_checkpoint();
        let parsed = Checkpoint::parse(&ck.render()).unwrap();
        assert_eq!(parsed.step, ck.step);
        assert_eq!(parsed.base_seed, ck.base_seed);
        assert_eq!(parsed.fingerprint, ck.fingerprint);
        assert_eq!(parsed.particles, ck.particles);
        for (a, b) in parsed.ess_history.iter().zip(ck.ess_history.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(parsed.reports.len(), 2);
        assert_eq!(parsed.reports[0], ck.reports[0]);
        // The multiline panic message flattens (documented lossy); the
        // rest of the failure records round-trip exactly.
        let fs = &parsed.reports[1].failures;
        assert_eq!(
            fs[0].kind,
            FailureKind::Panic("boom: multiline".to_string())
        );
        assert_eq!(fs[1], ck.reports[1].failures[1]);
        assert_eq!(fs[2], ck.reports[1].failures[2]);
        assert_eq!(parsed.particle_checksum(), ck.particle_checksum());
    }

    #[test]
    fn nan_ess_round_trips() {
        let mut ck = sample_checkpoint();
        ck.reports.truncate(1);
        ck.ess_history = vec![f64::NAN];
        let parsed = Checkpoint::parse(&ck.render()).unwrap();
        assert!(parsed.ess_history[0].is_nan());
    }

    #[test]
    fn every_bit_flip_is_rejected_or_roundtrips_nothing_silently() {
        // Flipping any single byte of the rendered text must never yield
        // a checkpoint that parses clean with different content.
        let ck = sample_checkpoint();
        let text = ck.render();
        let canonical = Checkpoint::parse(&text).unwrap();
        let bytes = text.as_bytes();
        // Probe a spread of positions (full scan is O(n²) in test time).
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupted = bytes.to_vec();
            corrupted[pos] ^= 0x01;
            let Ok(corrupted) = String::from_utf8(corrupted) else {
                continue;
            };
            match Checkpoint::parse(&corrupted) {
                Err(_) => {}
                Ok(reparsed) => assert_eq!(
                    reparsed, canonical,
                    "byte {pos}: corrupted checkpoint parsed to different content"
                ),
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let ck = sample_checkpoint();
        let text = ck.render();
        // Flip a content byte well inside the body.
        let mut corrupted = text.clone().into_bytes();
        let pos = text.find("base-seed 777").unwrap() + 10;
        corrupted[pos] = b'8';
        let err = Checkpoint::parse(&String::from_utf8(corrupted).unwrap()).unwrap_err();
        assert!(matches!(err, CheckpointError::ChecksumMismatch { .. }));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let ck = sample_checkpoint();
        let body = ck.render().replace("checkpoint v1", "checkpoint v99");
        // Re-trailer so the version check (not the checksum) fires.
        let without_trailer = &body[..body.rfind("checksum ").unwrap()];
        let sum = fxhash64(without_trailer.as_bytes());
        let retrailered = format!("{without_trailer}checksum {sum:016x}\n");
        let err = Checkpoint::parse(&retrailered).unwrap_err();
        assert!(matches!(err, CheckpointError::VersionMismatch { .. }));
    }

    #[test]
    fn fingerprint_validation() {
        let ck = sample_checkpoint();
        ck.validate_fingerprint(0xDEAD_BEEF_CAFE_F00D).unwrap();
        let err = ck.validate_fingerprint(1).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
    }

    #[test]
    fn save_load_and_latest() {
        let dir =
            std::env::temp_dir().join(format!("ppl-ckpt-unit-{}-save-load", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = sample_checkpoint();
        ck.step = 2;
        let p2 = ck.save(&dir).unwrap();
        assert!(p2.ends_with("step-00000002.ckpt"));
        ck.step = 5;
        ck.save(&dir).unwrap();
        let (path, latest) = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert!(path.ends_with("step-00000005.ckpt"));
        assert_eq!(latest.step, 5);
        assert_eq!(latest.particles, ck.particles);
        // Missing directory is a clean None, not an error.
        let missing_dir = dir.join("nope");
        assert!(Checkpoint::latest_in(&missing_dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checkpoint files in `dir`, by name.
    fn checkpoint_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_save_removes_the_checkpoints_it_supersedes() {
        let dir = std::env::temp_dir().join(format!("ppl-ckpt-unit-{}-prune", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut ck = sample_checkpoint();
        // A legacy-padded lower step, and a higher step a later save
        // must leave alone.
        ck.step = 1;
        std::fs::write(dir.join("step-00001.ckpt"), ck.render()).unwrap();
        ck.step = 9;
        std::fs::write(dir.join(Checkpoint::file_name(9)), ck.render()).unwrap();
        for step in [2, 5] {
            ck.step = step;
            ck.save(&dir).unwrap();
        }
        assert_eq!(
            checkpoint_files(&dir),
            [Checkpoint::file_name(5), Checkpoint::file_name(9)]
        );
        let kept = std::fs::read_to_string(dir.join(Checkpoint::file_name(5))).unwrap();
        assert_eq!(kept, ck.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One coin flip, the model of every stage below.
    fn coin(h: &mut dyn ppl::Handler) -> Result<Value, PplError> {
        h.sample(addr!["x"], ppl::dist::Dist::flip(0.5))
    }

    /// A four-stage run that checkpoints after every stage leaves one
    /// file, the last stage's.
    #[test]
    fn a_run_checkpointing_every_stage_leaves_one_file() {
        use crate::correspondence::Correspondence;
        use crate::forward::CorrespondenceTranslator;
        use crate::health::{FailurePolicy, StagePolicy};
        use crate::sequence::run_state_sequence_supervised;
        use crate::smc::SmcConfig;
        use crate::translator::StateTranslator;
        use crate::SmcError;
        use rand::SeedableRng;

        let dir = std::env::temp_dir().join(format!("ppl-ckpt-unit-{}-run", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stage: Arc<dyn StateTranslator<ppl::Trace> + Send + Sync> = Arc::new(
            CorrespondenceTranslator::new(coin, coin, Correspondence::identity_on(["x"])),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let initial = ParticleCollection::from_traces(
            (0..8).map(|_| ppl::handlers::simulate(&coin, &mut rng).unwrap()),
        );
        let mut save = |snap: &StageSnapshot<'_, ppl::Trace>| {
            let ck = Checkpoint::from_snapshot(snap, 11, 0).map_err(SmcError::Eval)?;
            ck.save(&dir)
                .map_err(|e| SmcError::Internal(e.to_string()))?;
            Ok(())
        };
        run_state_sequence_supervised(
            &vec![stage; 4],
            &initial,
            0,
            &[],
            &[],
            &SmcConfig::translate_only(),
            &FailurePolicy::FailFast,
            &StagePolicy::checkpoint_every(1),
            11,
            1,
            Some(&mut save),
        )
        .unwrap();
        assert_eq!(checkpoint_files(&dir), [Checkpoint::file_name(4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_syncs_the_checkpoint_directory() {
        let dir =
            std::env::temp_dir().join(format!("ppl-ckpt-unit-{}-dir-sync", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = sample_checkpoint();
        let before = dir_sync_count();
        ck.save(&dir).unwrap();
        let after = dir_sync_count();
        // Exactly-once per save can't be asserted process-wide (other
        // tests save concurrently); at-least-once across *this* save can.
        assert!(
            after > before,
            "save must fsync the parent directory after rename"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_and_real_checkpoints_kept() {
        let dir =
            std::env::temp_dir().join(format!("ppl-ckpt-unit-{}-tmp-sweep", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Plant orphans as a SIGKILLed writer would leave them: one with
        // the current padding, one with the legacy 5-digit padding, from
        // a process id that no longer exists.
        let orphan_new = dir.join(".step-00000007.ckpt.tmp-99999");
        let orphan_old = dir.join(".step-00007.ckpt.tmp-4242");
        std::fs::write(&orphan_new, "partial write").unwrap();
        std::fs::write(&orphan_old, "partial write").unwrap();
        let mut ck = sample_checkpoint();
        ck.step = 1;
        let real = ck.save(&dir).unwrap();
        assert!(!orphan_new.exists(), "save must sweep orphaned tmp files");
        assert!(
            !orphan_old.exists(),
            "save must sweep legacy-padded orphans"
        );
        assert!(real.exists(), "the real checkpoint must be untouched");

        // latest_in sweeps too, and still resolves the real checkpoint.
        std::fs::write(&orphan_new, "partial write").unwrap();
        let (path, latest) = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert!(!orphan_new.exists(), "latest_in must sweep orphans");
        assert_eq!(path, real);
        assert_eq!(latest.step, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_in_handles_mixed_padding_widths() {
        let dir = std::env::temp_dir().join(format!(
            "ppl-ckpt-unit-{}-mixed-padding",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Files are written directly, since a save removes lower steps.
        let plant = |ck: &Checkpoint| {
            let path = dir.join(Checkpoint::file_name(ck.step));
            std::fs::write(&path, ck.render()).unwrap();
            path
        };
        // An old 5-digit checkpoint (written by a pre-widening build)
        // alongside new 8-digit ones, including a step past 100000 where
        // 5-digit lexicographic ordering used to break.
        let mut ck = sample_checkpoint();
        ck.step = 3;
        std::fs::write(dir.join("step-00003.ckpt"), ck.render()).unwrap();
        ck.step = 12;
        plant(&ck);
        ck.step = 100_001;
        let newest = plant(&ck);
        assert!(newest.ends_with("step-00100001.ckpt"));
        let (path, latest) = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert_eq!(path, newest);
        assert_eq!(latest.step, 100_001);

        // With the >100k checkpoint gone, the newest of the remaining
        // mixed-width names wins regardless of padding.
        std::fs::remove_file(&newest).unwrap();
        let (_, latest) = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert_eq!(latest.step, 12);
        std::fs::remove_file(dir.join(Checkpoint::file_name(12))).unwrap();
        let (path, latest) = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert!(path.ends_with("step-00003.ckpt"));
        assert_eq!(latest.step, 3);

        // The same step under both paddings: the current 8-digit name
        // wins deterministically (never directory order), so stale
        // legacy-named files — even corrupt ones — cannot shadow a valid
        // current checkpoint of the same step.
        ck.step = 3;
        let current = plant(&ck);
        std::fs::write(dir.join("step-00003.ckpt"), "garbage\n").unwrap();
        let (path, latest) = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert_eq!(path, current);
        assert_eq!(latest.step, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A state that counts how often it is flattened.
    struct Counted {
        trace: ppl::Trace,
        traces: AtomicUsize,
    }

    impl Counted {
        fn new(x: bool) -> Counted {
            let mut trace = ppl::Trace::new();
            let dist = ppl::dist::Dist::flip(0.5);
            let lp = dist.log_prob(&Value::Bool(x));
            trace
                .record_choice(addr!["x"], Value::Bool(x), dist, lp)
                .unwrap();
            Counted {
                trace,
                traces: AtomicUsize::new(0),
            }
        }

        fn count(&self) -> usize {
            self.traces.load(Ordering::Relaxed)
        }
    }

    impl ParticleState for Counted {
        fn to_trace(&self) -> Result<ppl::Trace, PplError> {
            self.traces.fetch_add(1, Ordering::Relaxed);
            Ok(self.trace.clone())
        }
    }

    fn snapshot<S>(collection: &ParticleCollection<S>) -> StageSnapshot<'_, S> {
        StageSnapshot {
            step: 1,
            collection,
            ess_history: &[],
            reports: &[],
        }
    }

    #[test]
    fn each_shared_state_flattens_once() {
        // Five particles over two shared states, as resampling leaves
        // them: a, a, b, a, b.
        let (a, b) = (Arc::new(Counted::new(true)), Arc::new(Counted::new(false)));
        let mut shared = ParticleCollection::new();
        for (state, lw) in [(&a, 0.0), (&a, -1.0), (&b, -2.0), (&a, -3.0), (&b, -4.0)] {
            shared.push(Arc::clone(state), LogWeight::from_log(lw));
        }
        let ck = Checkpoint::from_snapshot(&snapshot(&shared), 9, 9).unwrap();
        assert_eq!((a.count(), b.count()), (1, 1));
        assert!(Arc::ptr_eq(&ck.particles[0].0, &ck.particles[3].0));
        assert!(Arc::ptr_eq(&ck.particles[2].0, &ck.particles[4].0));
        let flat = shared.flatten().unwrap();
        assert_eq!((a.count(), b.count()), (2, 2));
        for (p, f) in shared.iter().zip(flat.iter()) {
            assert_eq!(p.trace.trace, f.trace);
            assert_eq!(p.log_weight.log().to_bits(), f.log_weight.log().to_bits());
        }

        // Equal states that share no allocation flatten once each.
        let mut unshared = ParticleCollection::new();
        for _ in 0..3 {
            unshared.push(Counted::new(true), LogWeight::ONE);
        }
        Checkpoint::from_snapshot(&snapshot(&unshared), 9, 9).unwrap();
        unshared.flatten().unwrap();
        for p in unshared.iter() {
            assert_eq!(p.trace.count(), 2);
        }
        // A collection of equal traces is unshared too.
        let traces = ParticleCollection::from_traces((0..3).map(|_| Counted::new(true).trace));
        assert!(traces.iter().all(|p| p.trace.share_key().is_none()));
        let ck = Checkpoint::from_snapshot(&snapshot(&traces), 9, 9).unwrap();
        assert!(!Arc::ptr_eq(&ck.particles[0].0, &ck.particles[1].0));
    }

    #[test]
    fn shared_maps_render_like_deep_clones() {
        let mut ck = sample_checkpoint();
        let (m1, m2) = (ck.particles[0].0.clone(), ck.particles[1].0.clone());
        ck.particles = vec![
            (m1.clone(), -0.5),
            (m2.clone(), 0.0),
            (m1.clone(), f64::NEG_INFINITY),
            (m1, 1.25),
            (m2, -0.0),
        ];
        let mut unshared = ck.clone();
        for (map, _) in &mut unshared.particles {
            *map = Arc::new(ChoiceMap::clone(map));
        }
        assert!(!Arc::ptr_eq(
            &unshared.particles[0].0,
            &unshared.particles[2].0
        ));
        let text = ck.render();
        assert_eq!(text, unshared.render());
        assert_eq!(ck.particle_checksum(), unshared.particle_checksum());
        let entries: Vec<(ChoiceMap, f64)> = ck
            .particles
            .iter()
            .map(|(map, w)| (ChoiceMap::clone(map), *w))
            .collect();
        assert_eq!(ck.particle_checksum(), collection_checksum(&entries));
        let block = write_weighted_collection(&entries);
        assert!(text.contains(&format!("begin particles\n{block}end particles\n")));
        let parsed = Checkpoint::parse(&text).unwrap();
        assert_eq!(parsed.particles.len(), 5);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn empty_collection_checkpoint_round_trips() {
        let ck = Checkpoint {
            step: 0,
            base_seed: 1,
            fingerprint: 2,
            ess_history: vec![],
            reports: vec![],
            particles: vec![],
        };
        let parsed = Checkpoint::parse(&ck.render()).unwrap();
        assert_eq!(parsed, ck);
    }
}
