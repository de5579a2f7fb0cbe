//! Resampling schemes for weighted particle collections.
//!
//! `resample` (Algorithm 2) draws `M` particles with replacement with
//! probability proportional to weight and resets all weights to 1,
//! re-allocating computation onto representative traces. The paper notes
//! that "other resampling schemes besides independent resampling are also
//! possible"; we provide the standard four.

use std::fmt;

use rand::RngCore;

use ppl::dist::util::uniform_unit;
use ppl::logweight::log_sum_exp;
use ppl::{LogWeight, PplError};

use crate::particles::{Particle, ParticleCollection};

/// Why a resampling step could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResampleError {
    /// The collection has no particles to draw from.
    Empty,
    /// Every particle's weight is zero: the approximation has collapsed
    /// and there is no distribution to resample from.
    Collapsed,
    /// The weight total is NaN or `+∞`, so normalized weights do not
    /// exist (an inadmissible weight bypassed the quarantine).
    NonFiniteTotal,
}

impl fmt::Display for ResampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResampleError::Empty => write!(f, "cannot resample an empty particle collection"),
            ResampleError::Collapsed => write!(
                f,
                "cannot resample: all particle weights are zero (total collapse)"
            ),
            ResampleError::NonFiniteTotal => write!(
                f,
                "cannot resample: particle weights have a non-finite total"
            ),
        }
    }
}

impl std::error::Error for ResampleError {}

impl From<ResampleError> for PplError {
    fn from(e: ResampleError) -> PplError {
        PplError::Other(e.to_string())
    }
}

/// The resampling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResampleScheme {
    /// Independent categorical draws (the paper's `resample`).
    #[default]
    Multinomial,
    /// A single uniform offset, stratified over `M` equal slices; lower
    /// variance than multinomial.
    Systematic,
    /// One uniform draw per slice.
    Stratified,
    /// Deterministic copies of `⌊M·w̄_j⌋`, residual mass multinomially.
    Residual,
}

/// Resamples `M = collection.len()` particles according to `scheme`,
/// returning a collection of unit-weight particles.
///
/// Works over any particle state: duplicating a particle clones its
/// state, which for shared-graph states (`Arc`-backed execution graphs)
/// is a copy-on-write reference bump rather than a deep copy.
///
/// # Errors
///
/// Returns [`ResampleError::Empty`] for an empty collection,
/// [`ResampleError::Collapsed`] when every weight is zero, and
/// [`ResampleError::NonFiniteTotal`] when the weight total is NaN or
/// infinite. The error converts into [`PplError`] via `?` at legacy call
/// sites.
pub fn resample<S: Clone>(
    collection: &ParticleCollection<S>,
    scheme: ResampleScheme,
    rng: &mut dyn RngCore,
) -> Result<ParticleCollection<S>, ResampleError> {
    let m = collection.len();
    if m == 0 {
        return Err(ResampleError::Empty);
    }
    let lw = collection.log_weights();
    let lse = log_sum_exp(&lw);
    if lse == f64::NEG_INFINITY {
        return Err(ResampleError::Collapsed);
    }
    if !lse.is_finite() {
        return Err(ResampleError::NonFiniteTotal);
    }
    let weights: Vec<f64> = lw.iter().map(|w| (w - lse).exp()).collect();
    let indices = match scheme {
        ResampleScheme::Multinomial => multinomial_indices(&weights, m, rng),
        ResampleScheme::Systematic => offset_indices(&weights, m, rng, true),
        ResampleScheme::Stratified => offset_indices(&weights, m, rng, false),
        ResampleScheme::Residual => residual_indices(&weights, m, rng),
    };
    Ok(indices
        .into_iter()
        .map(|i| Particle {
            trace: collection.particles()[i].trace.clone(),
            log_weight: LogWeight::ONE,
        })
        .collect())
}

fn multinomial_indices(weights: &[f64], m: usize, rng: &mut dyn RngCore) -> Vec<usize> {
    let cdf = Cdf::new(weights);
    (0..m).map(|_| cdf.pick(uniform_unit(rng))).collect()
}

/// Systematic (`single_offset = true`) or stratified resampling. The
/// offsets `(j + u) / m` never decrease with `j`, so one forward pass
/// over the cumulative weights serves them all.
fn offset_indices(
    weights: &[f64],
    m: usize,
    rng: &mut dyn RngCore,
    single_offset: bool,
) -> Vec<usize> {
    let cdf = Cdf::new(weights);
    let shared = uniform_unit(rng);
    let mut from = 0;
    (0..m)
        .map(|j| {
            let u = if single_offset {
                shared
            } else {
                uniform_unit(rng)
            };
            cdf.pick_from(&mut from, (j as f64 + u) / m as f64)
        })
        .collect()
}

fn residual_indices(weights: &[f64], m: usize, rng: &mut dyn RngCore) -> Vec<usize> {
    let mut indices = Vec::with_capacity(m);
    let mut residual = Vec::with_capacity(weights.len());
    for (i, w) in weights.iter().enumerate() {
        let expected = w * m as f64;
        let copies = expected.floor() as usize;
        indices.extend(std::iter::repeat_n(i, copies));
        residual.push(expected - copies as f64);
    }
    let remaining = m - indices.len();
    if remaining > 0 {
        let total: f64 = residual.iter().sum();
        if total > 0.0 {
            let normalized: Vec<f64> = residual.iter().map(|r| r / total).collect();
            let cdf = Cdf::new(&normalized);
            for _ in 0..remaining {
                indices.push(cdf.pick(uniform_unit(rng)));
            }
        } else {
            // Exact integer weights: fill by repeating the largest weight.
            let argmax = weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0);
            indices.extend(std::iter::repeat_n(argmax, remaining));
        }
    }
    indices
}

/// Inverse-CDF lookup in normalized weights: the first index whose
/// cumulative weight exceeds `u ∈ [0, 1)`, or, past the total (floating
/// point slack), the last positive-weight index. The cumulative weights
/// are one running total added in index order, so a lookup returns the
/// index that scanning the weights and adding them up would.
struct Cdf {
    cumulative: Vec<f64>,
    last_positive: Option<usize>,
}

impl Cdf {
    fn new(weights: &[f64]) -> Cdf {
        let mut total = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        Cdf {
            cumulative,
            last_positive: weights.iter().rposition(|w| *w > 0.0),
        }
    }

    /// The index of `u`, by binary search. The cumulative weights never
    /// decrease, since every weight is non-negative.
    fn pick(&self, u: f64) -> usize {
        self.index(self.cumulative.partition_point(|&c| c <= u))
    }

    /// The index of `u`, scanning forward from `*from`, which must not
    /// lie beyond the index of `u`: true when the `u`s of successive
    /// calls never decrease. Leaves `*from` there for the next call.
    fn pick_from(&self, from: &mut usize, u: f64) -> usize {
        while self.cumulative.get(*from).is_some_and(|&c| c <= u) {
            *from += 1;
        }
        self.index(*from)
    }

    fn index(&self, i: usize) -> usize {
        if i < self.cumulative.len() {
            i
        } else {
            self.last_positive
                .expect("normalized weights must have positive mass")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl::dist::Dist;
    use ppl::{addr, Trace, Value};
    use proptest::collection;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labeled_trace(i: i64) -> Trace {
        let mut t = Trace::new();
        let d = Dist::uniform_int(0, 1_000);
        let lp = d.log_prob(&Value::Int(i));
        t.record_choice(addr!["id"], Value::Int(i), d, lp).unwrap();
        t
    }

    fn weighted_collection(weights: &[f64]) -> ParticleCollection {
        let mut c = ParticleCollection::new();
        for (i, w) in weights.iter().enumerate() {
            c.push(labeled_trace(i as i64), LogWeight::from_prob(*w));
        }
        c
    }

    fn label(p: &Particle) -> i64 {
        p.trace.value(&addr!["id"]).unwrap().as_int().unwrap()
    }

    #[test]
    fn all_schemes_preserve_count_and_reset_weights() {
        let c = weighted_collection(&[0.1, 0.2, 0.3, 0.4]);
        let mut rng = StdRng::seed_from_u64(1);
        for scheme in [
            ResampleScheme::Multinomial,
            ResampleScheme::Systematic,
            ResampleScheme::Stratified,
            ResampleScheme::Residual,
        ] {
            let r = resample(&c, scheme, &mut rng).unwrap();
            assert_eq!(r.len(), 4, "{scheme:?}");
            for p in r.iter() {
                assert_eq!(p.log_weight, LogWeight::ONE, "{scheme:?}");
            }
        }
    }

    /// Every scheme is unbiased: the expected number of copies of particle
    /// `j` is `M · w̄_j`.
    #[test]
    fn resampling_is_unbiased() {
        let weights = [0.05, 0.15, 0.30, 0.50];
        let c = weighted_collection(&weights);
        let mut rng = StdRng::seed_from_u64(2);
        let rounds = 20_000;
        for scheme in [
            ResampleScheme::Multinomial,
            ResampleScheme::Systematic,
            ResampleScheme::Stratified,
            ResampleScheme::Residual,
        ] {
            let mut counts = [0usize; 4];
            for _ in 0..rounds {
                let r = resample(&c, scheme, &mut rng).unwrap();
                for p in r.iter() {
                    counts[label(p) as usize] += 1;
                }
            }
            for (j, w) in weights.iter().enumerate() {
                let freq = counts[j] as f64 / (rounds * 4) as f64;
                assert!(
                    (freq - w).abs() < 0.01,
                    "{scheme:?}: particle {j} frequency {freq} vs weight {w}"
                );
            }
        }
    }

    #[test]
    fn zero_weight_particles_never_survive() {
        let c = weighted_collection(&[0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for scheme in [
            ResampleScheme::Multinomial,
            ResampleScheme::Systematic,
            ResampleScheme::Stratified,
            ResampleScheme::Residual,
        ] {
            let r = resample(&c, scheme, &mut rng).unwrap();
            assert!(r.iter().all(|p| label(p) == 1), "{scheme:?}");
        }
    }

    #[test]
    fn residual_keeps_integer_copies() {
        // weights M*w = [2, 1, 1] exactly: residual resampling is
        // deterministic.
        let c = weighted_collection(&[0.5, 0.25, 0.25]);
        let mut rng = StdRng::seed_from_u64(4);
        // M = 3, expected copies: 1.5, 0.75, 0.75 — at least one copy of 0.
        let r = resample(&c, ResampleScheme::Residual, &mut rng).unwrap();
        assert!(r.iter().any(|p| label(p) == 0));
    }

    #[test]
    fn degenerate_input_errors_are_typed() {
        let c = weighted_collection(&[0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            resample(&c, ResampleScheme::Multinomial, &mut rng),
            Err(ResampleError::Collapsed)
        ));
        let empty: ParticleCollection = ParticleCollection::new();
        assert!(matches!(
            resample(&empty, ResampleScheme::Systematic, &mut rng),
            Err(ResampleError::Empty)
        ));
        let mut spiked = ParticleCollection::new();
        spiked.push(labeled_trace(0), LogWeight::from_log(f64::INFINITY));
        assert!(matches!(
            resample(&spiked, ResampleScheme::Stratified, &mut rng),
            Err(ResampleError::NonFiniteTotal)
        ));
        // The conversion keeps the message.
        let e: PplError = ResampleError::Collapsed.into();
        assert!(e.to_string().contains("collapse"));
    }

    /// The linear inverse-CDF scan that [`Cdf`] replaces.
    fn scan_pick(weights: &[f64], u: f64) -> usize {
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return i;
            }
        }
        weights
            .iter()
            .rposition(|w| *w > 0.0)
            .expect("normalized weights must have positive mass")
    }

    /// Normalized weights from raw draws in `[0, 1)`, about a third of
    /// them zero, with at least one positive.
    fn normalized(raw: &[f64]) -> Vec<f64> {
        let mut weights: Vec<f64> = raw
            .iter()
            .map(|&r| if r < 0.35 { 0.0 } else { r })
            .collect();
        if weights.iter().all(|w| *w == 0.0) {
            weights[0] = 1.0;
        }
        let total: f64 = weights.iter().sum();
        weights.iter().map(|w| w / total).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Binary search and the forward pass pick the index the linear
        /// scan picks, for random weights with zeros, random offsets and
        /// offsets at the end of the range, where rounding can leave the
        /// running total below `u` (the slack case).
        #[test]
        fn cdf_lookups_match_the_linear_scan(
            raw in collection::vec(0.0..1.0f64, 1..40),
            draws in collection::vec(0.0..1.0f64, 1..60),
        ) {
            let weights = normalized(&raw);
            let cdf = Cdf::new(&weights);
            let total = *cdf.cumulative.last().unwrap();
            let mut us = draws.clone();
            us.extend([0.0, total, 1.0 - f64::EPSILON / 2.0]);
            us.extend(weights.iter().scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            }));
            for &u in &us {
                prop_assert_eq!(cdf.pick(u), scan_pick(&weights, u), "u = {u:e}");
            }
            us.sort_by(f64::total_cmp);
            let mut from = 0;
            for &u in &us {
                prop_assert_eq!(cdf.pick_from(&mut from, u), scan_pick(&weights, u), "u = {u:e}");
            }
        }
    }

    /// Weights whose running total stops short of 1: an offset above the
    /// total falls back to the last positive weight, skipping the
    /// trailing zero.
    #[test]
    fn offsets_past_the_total_take_the_last_positive_weight() {
        let weights = [0.1; 10].iter().copied().chain([0.0]).collect::<Vec<_>>();
        let cdf = Cdf::new(&weights);
        let total = *cdf.cumulative.last().unwrap();
        assert!(total < 1.0, "the running total {total} rounds below 1");
        let u = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(cdf.pick(u), 9);
        assert_eq!(scan_pick(&weights, u), 9);
        assert_eq!(cdf.pick_from(&mut 0, u), 9);
    }

    #[test]
    fn systematic_with_equal_weights_is_a_permutation() {
        let c = weighted_collection(&[0.25, 0.25, 0.25, 0.25]);
        let mut rng = StdRng::seed_from_u64(6);
        let r = resample(&c, ResampleScheme::Systematic, &mut rng).unwrap();
        let mut labels: Vec<i64> = r.iter().map(label).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }
}
