//! Weight diagnostics: effective sample size and degeneracy detection.
//!
//! Section 4.2 recommends monitoring the "effective number of traces"
//! [Liu & Chen 1995] to decide when to resample and to "detect when an
//! incremental approach may not be feasible".

use ppl::logweight::log_sum_exp;

/// Effective sample size `ESS = (Σ_j w_j)² / Σ_j w_j²`, computed stably
/// from log weights. Ranges from 1 (one particle dominates) to `M` (equal
/// weights); 0 for an empty or all-zero collection.
///
/// Non-finite weights are handled without NaN fallout: any `+∞` weight
/// dominates all finite mass, so the ESS is the count of `+∞` entries
/// (they share the mass equally in the limit); a NaN weight makes the
/// ESS 0, since a collection containing an invalid weight carries no
/// usable information. The SMC runtime quarantines both cases before a
/// translated particle enters its collection (a
/// [`crate::FailureKind::NonFiniteWeight`] failure), so these branches
/// only fire on hand-built weight vectors.
pub fn effective_sample_size(log_weights: &[f64]) -> f64 {
    if log_weights.iter().any(|w| w.is_nan()) {
        return 0.0;
    }
    let infinite = log_weights.iter().filter(|w| **w == f64::INFINITY).count();
    if infinite > 0 {
        return infinite as f64;
    }
    let lse = log_sum_exp(log_weights);
    if lse == f64::NEG_INFINITY {
        return 0.0;
    }
    let doubled: Vec<f64> = log_weights.iter().map(|w| 2.0 * w).collect();
    let lse2 = log_sum_exp(&doubled);
    (2.0 * lse - lse2).exp()
}

/// A compact summary of a weight vector, for logging and experiment
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSummary {
    /// Number of particles.
    pub count: usize,
    /// Effective sample size.
    pub ess: f64,
    /// Fraction of particles with zero weight.
    pub zero_fraction: f64,
    /// Largest normalized weight (1/M for uniform weights, →1 under
    /// degeneracy).
    pub max_normalized: f64,
}

/// Summarizes log weights.
pub fn summarize(log_weights: &[f64]) -> WeightSummary {
    let count = log_weights.len();
    let zeroes = log_weights
        .iter()
        .filter(|w| **w == f64::NEG_INFINITY)
        .count();
    let lse = log_sum_exp(log_weights);
    let max_normalized = if lse == f64::NEG_INFINITY {
        0.0
    } else {
        log_weights
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            .exp()
            / lse.exp()
    };
    WeightSummary {
        count,
        ess: effective_sample_size(log_weights),
        zero_fraction: if count == 0 {
            0.0
        } else {
            zeroes as f64 / count as f64
        },
        max_normalized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ess_equal_weights() {
        let lw = vec![2.5; 16];
        assert!((effective_sample_size(&lw) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn ess_single_survivor() {
        let mut lw = vec![f64::NEG_INFINITY; 9];
        lw.push(0.0);
        assert!((effective_sample_size(&lw) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ess_known_two_weight_case() {
        // weights 3 and 1: ESS = 16 / 10 = 1.6
        let lw = [3.0_f64.ln(), 1.0_f64.ln()];
        assert!((effective_sample_size(&lw) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn ess_empty_and_degenerate() {
        assert_eq!(effective_sample_size(&[]), 0.0);
        assert_eq!(effective_sample_size(&[f64::NEG_INFINITY]), 0.0);
    }

    #[test]
    fn ess_non_finite_weights() {
        // NaN anywhere: no usable information.
        assert_eq!(effective_sample_size(&[0.0, f64::NAN]), 0.0);
        // +inf entries dominate; ESS is their count.
        assert_eq!(effective_sample_size(&[f64::INFINITY, 0.0, -1.0]), 1.0);
        assert_eq!(
            effective_sample_size(&[f64::INFINITY, f64::INFINITY, 0.0]),
            2.0
        );
        // A single particle has ESS exactly 1 whatever its finite weight.
        assert_eq!(effective_sample_size(&[-123.0]), 1.0);
    }

    #[test]
    fn ess_is_scale_invariant() {
        let a = [0.0, -1.0, -2.0];
        let b = [100.0, 99.0, 98.0];
        assert!((effective_sample_size(&a) - effective_sample_size(&b)).abs() < 1e-9);
    }

    #[test]
    fn summary_fields() {
        let s = summarize(&[0.0, f64::NEG_INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.zero_fraction - 0.5).abs() < 1e-12);
        assert!((s.max_normalized - 1.0).abs() < 1e-12);
        assert!((s.ess - 1.0).abs() < 1e-12);
        let empty = summarize(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.zero_fraction, 0.0);
    }
}
