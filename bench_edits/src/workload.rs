//! The four edit-session workloads: seeded generators for their edit
//! histories, and the exact posterior each program of a history implies.
//!
//! Every workload is a 2-state hidden Markov chain written in the surface
//! language. Latent sites `x_0 … x_{n-1}` start from `x_{-1} = 1` and move
//! with `P(x_i = 1 | x_{i-1} = 1) = stay` and `P(x_i = 1 | x_{i-1} = 0) =
//! rise`; an observed site contributes `observe(flip(x ? s : 1 - s) == 1)`.
//! The workloads differ only in which part of the program an edit touches,
//! which is what decides the layer the time goes to.
//!
//! All probabilities are whole thousandths, written into the source as
//! exact decimal literals, so the oracle and the parsed program use the
//! same `f64` values.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One edit-session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole-model edit: every edit changes the strength of all
    /// observations of a 48-site chain, so every observation is rescored
    /// and every choice is reused.
    ObsSweep,
    /// Fixed-size edit: every edit changes only the trailing observation
    /// of a 256-site latent chain.
    TailEdit,
    /// Planning-bound edit: a straight-line program of 400 sites (1200
    /// statements) where each edit changes one site's observation.
    WideProgram,
    /// Growing model: every edit appends two observed sites, with
    /// ESS-triggered resampling and periodic checkpoints.
    GrowResample,
}

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`, and the
/// run length the session counts of [`Workload::sessions`] are set for.
pub const RUN_SECONDS: u64 = 10;

/// Session size and inference settings of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Particles carried through the session.
    pub particles: usize,
    /// Edits submitted in the session.
    pub edits: usize,
    /// Whether stages resample when `ESS < 0.5 · particles`.
    pub resample: bool,
    /// Write a checkpoint after every this many edits (`0` = never).
    pub checkpoint_every: usize,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ObsSweep,
        Workload::TailEdit,
        Workload::WideProgram,
        Workload::GrowResample,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ObsSweep => "obs_sweep",
            Workload::TailEdit => "tail_edit",
            Workload::WideProgram => "wide_program",
            Workload::GrowResample => "grow_resample",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The session shape. `quick` is a small configuration for tests and
    /// smoke runs. A full session runs at least 100 edits, so that ten
    /// latency samples lie beyond its 90th percentile; its size is
    /// otherwise capped by memory, since every edit leaves graph storage
    /// behind.
    pub fn shape(self, quick: bool) -> Shape {
        let (particles, edits) = match (self, quick) {
            (Workload::ObsSweep, false) => (100, 120),
            (Workload::TailEdit, false) => (250, 150),
            (Workload::WideProgram, false) => (32, 100),
            (Workload::GrowResample, false) => (300, 120),
            (Workload::GrowResample, true) => (48, 24),
            (_, true) => (24, 12),
        };
        Shape {
            particles,
            edits,
            resample: self == Workload::GrowResample,
            // One edit in five checkpoints, so the 90th latency
            // percentile lies among the checkpointing edits rather than
            // on the boundary between them and the rest.
            checkpoint_every: if self == Workload::GrowResample { 5 } else { 0 },
        }
    }

    /// Sessions one run measures, each in a fresh process. Sized for
    /// `seconds` of edits on a 2-core machine (scaled from the count for
    /// [`RUN_SECONDS`]); a fixed `seconds` gives both sides of a
    /// comparison the same work. Several short sessions average out the
    /// process-to-process noise one session shows.
    pub fn sessions(self, quick: bool, seconds: u64) -> usize {
        if quick {
            return 1;
        }
        let base: u64 = match self {
            Workload::ObsSweep => 5,
            Workload::TailEdit | Workload::WideProgram | Workload::GrowResample => 4,
        };
        usize::try_from((base * seconds).div_ceil(RUN_SECONDS)).unwrap_or(usize::MAX)
    }

    /// Generates the edit history `programs[0] → … → programs[edits]`
    /// from `seed`. `programs[0]` observes nothing informative, so prior
    /// draws of it are posterior draws.
    pub fn history(self, edits: usize, seed: u64) -> Vec<ProgramSpec> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4849_5354_4f52_5953);
        let rise = draw(&mut rng, 150, 400);
        let stay = if self == Workload::GrowResample {
            // With near-certain observations, each edit's two new sites
            // then cut the ESS to well under half the particles, so the
            // session resamples on every edit. How often it resamples
            // decides how much graph storage particles share, and so its
            // speed; it must not depend on the seed.
            draw(&mut rng, 500, 600)
        } else {
            draw(&mut rng, 600, 850)
        };
        match self {
            Workload::ObsSweep => {
                let len = 48;
                let mut s = 500;
                (0..=edits)
                    .map(|k| {
                        if k > 0 {
                            s = draw_other(&mut rng, 510, 580, s);
                        }
                        loop_chain(len, stay, rise, s, false)
                    })
                    .collect()
            }
            Workload::TailEdit => {
                let len = 256;
                let mut s = 500;
                (0..=edits)
                    .map(|k| {
                        if k > 0 {
                            s = draw_other(&mut rng, 550, 950, s);
                        }
                        loop_chain(len, stay, rise, s, true)
                    })
                    .collect()
            }
            Workload::WideProgram => {
                let sites = 400;
                let mut strengths = vec![500; sites];
                (0..=edits)
                    .map(|k| {
                        if k > 0 {
                            let j = (rng.next_u64() % sites as u64) as usize;
                            strengths[j] = draw_other(&mut rng, 400, 600, strengths[j]);
                        }
                        straight_line(stay, rise, &strengths)
                    })
                    .collect()
            }
            Workload::GrowResample => {
                let s = draw(&mut rng, 970, 990);
                (0..=edits)
                    .map(|k| loop_chain(2 * k, stay, rise, s, false))
                    .collect()
            }
        }
    }
}

/// Where a program's final latent lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Latent {
    /// Iteration `i` of the loop site `x` (address `x/i`).
    Loop(i64),
    /// The straight-line site with this name.
    Site(String),
}

/// One program of an edit history: its source, the chain it denotes, and
/// the address of its final latent (`None` for an empty chain).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Surface-language source.
    pub source: String,
    /// The hidden Markov chain the program denotes.
    pub chain: Chain,
    /// The final latent the posterior query reads.
    pub latent: Option<Latent>,
}

/// A 2-state chain as the oracle sees it; probabilities in thousandths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// `P(x_i = 1 | x_{i-1} = 1)`.
    pub stay: u32,
    /// `P(x_i = 1 | x_{i-1} = 0)`.
    pub rise: u32,
    /// Observation strength of each site, `None` where a site is not
    /// observed.
    pub strengths: Vec<Option<u32>>,
}

impl Chain {
    /// The exact `P(x_{n-1} = 1 | observations)` by the forward
    /// algorithm, normalised at every site; `None` for an empty chain.
    pub fn posterior_last(&self) -> Option<f64> {
        let (stay, rise) = (prob(self.stay), prob(self.rise));
        let (mut p0, mut p1) = (0.0, 1.0);
        for s in &self.strengths {
            let mut q1 = p1 * stay + p0 * rise;
            let mut q0 = p1 * prob(1000 - self.stay) + p0 * prob(1000 - self.rise);
            if let Some(s) = s {
                q1 *= prob(*s);
                q0 *= prob(1000 - s);
            }
            let z = q0 + q1;
            p0 = q0 / z;
            p1 = q1 / z;
        }
        (!self.strengths.is_empty()).then_some(p1)
    }
}

fn prob(thousandths: u32) -> f64 {
    f64::from(thousandths) / 1000.0
}

/// A thousandths value as an exact decimal literal (`617` → `0.617`).
fn lit(thousandths: u32) -> String {
    format!("{}.{:03}", thousandths / 1000, thousandths % 1000)
}

/// Uniform draw from `lo..=hi`.
fn draw(rng: &mut StdRng, lo: u32, hi: u32) -> u32 {
    lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
}

/// Uniform draw from `lo..=hi` that differs from `current`, so every edit
/// really changes the program.
fn draw_other(rng: &mut StdRng, lo: u32, hi: u32, current: u32) -> u32 {
    loop {
        let v = draw(rng, lo, hi);
        if v != current {
            return v;
        }
    }
}

/// A `for`-loop chain of `len` sites. With `tail_only`, the loop holds
/// only latents and one observation of the last latent follows it;
/// otherwise every site is observed inside the loop.
fn loop_chain(len: usize, stay: u32, rise: u32, s: u32, tail_only: bool) -> ProgramSpec {
    let (st, ri, sv, lo) = (lit(stay), lit(rise), lit(s), lit(1000 - s));
    let source = if tail_only {
        format!(
            "n = {len}; prev = 1;\n\
             for i in [0..n) {{ x = flip(prev ? {st} : {ri}) @ x; prev = x; }}\n\
             observe(flip(prev ? {sv} : {lo}) @ o == 1);\n\
             return prev;\n"
        )
    } else {
        format!(
            "n = {len}; prev = 1;\n\
             for i in [0..n) {{\n\
             \x20 x = flip(prev ? {st} : {ri}) @ x;\n\
             \x20 observe(flip(x ? {sv} : {lo}) @ o == 1);\n\
             \x20 prev = x;\n\
             }}\n\
             return prev;\n"
        )
    };
    let mut strengths = vec![if tail_only { None } else { Some(s) }; len];
    if tail_only {
        if let Some(last) = strengths.last_mut() {
            *last = Some(s);
        }
    }
    ProgramSpec {
        source,
        chain: Chain {
            stay,
            rise,
            strengths,
        },
        latent: len.checked_sub(1).map(|i| Latent::Loop(i as i64)),
    }
}

/// A straight-line chain: three statements per site (transition
/// probability, latent, observation).
fn straight_line(stay: u32, rise: u32, strengths: &[u32]) -> ProgramSpec {
    let (st, ri) = (lit(stay), lit(rise));
    let mut source = String::with_capacity(strengths.len() * 96);
    for (i, &s) in strengths.iter().enumerate() {
        let prev = if i == 0 {
            "1".to_string()
        } else {
            format!("x{}", i - 1)
        };
        source.push_str(&format!(
            "p{i} = {prev} ? {st} : {ri};\n\
             x{i} = flip(p{i}) @ x{i};\n\
             observe(flip(x{i} ? {} : {}) @ o{i} == 1);\n",
            lit(s),
            lit(1000 - s)
        ));
    }
    let last = strengths.len().checked_sub(1);
    if let Some(last) = last {
        source.push_str(&format!("return x{last};\n"));
    }
    ProgramSpec {
        source,
        chain: Chain {
            stay,
            rise,
            strengths: strengths.iter().map(|&s| Some(s)).collect(),
        },
        latent: last.map(|i| Latent::Site(format!("x{i}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_are_exact_thousandths() {
        assert_eq!(lit(617), "0.617");
        assert_eq!(lit(5), "0.005");
        assert_eq!(lit(1000), "1.000");
        assert_eq!("0.617".parse::<f64>().unwrap(), prob(617));
    }

    #[test]
    fn forward_algorithm_matches_enumeration() {
        let chain = Chain {
            stay: 700,
            rise: 200,
            strengths: vec![Some(800), None, Some(300)],
        };
        // Brute force over the 8 latent paths.
        let (mut num, mut den) = (0.0, 0.0);
        for bits in 0..8u32 {
            let xs: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let mut p = 1.0;
            let mut prev = true;
            for (i, &x) in xs.iter().enumerate() {
                let up = if prev { 0.7 } else { 0.2 };
                p *= if x { up } else { 1.0 - up };
                if let Some(s) = chain.strengths[i] {
                    let s = prob(s);
                    p *= if x { s } else { 1.0 - s };
                }
                prev = x;
            }
            den += p;
            if xs[2] {
                num += p;
            }
        }
        let exact = chain.posterior_last().unwrap();
        assert!(
            (exact - num / den).abs() < 1e-12,
            "{exact} vs {}",
            num / den
        );
    }

    #[test]
    fn full_sessions_have_ten_samples_beyond_p90() {
        for w in Workload::ALL {
            assert!(w.shape(false).edits >= 100, "{}", w.name());
            assert!(w.sessions(false, 1) >= 1, "{}", w.name());
        }
    }

    #[test]
    fn histories_are_seeded_and_every_edit_changes_the_program() {
        for w in Workload::ALL {
            let a = w.history(6, 11);
            assert_eq!(a, w.history(6, 11), "{}", w.name());
            assert_ne!(a, w.history(6, 12), "{}", w.name());
            assert_eq!(a.len(), 7);
            for pair in a.windows(2) {
                assert_ne!(pair[0].source, pair[1].source, "{}", w.name());
            }
            for spec in &a {
                ppl::parse(&spec.source).expect("generated source parses");
            }
        }
    }
}
