//! The finite Gaussian mixture model of Listing 5 (PSI), for the
//! Figure 10 experiment.
//!
//! The program draws `K` cluster centers from `N(0, σ)` and `N` data
//! points from unit-variance Gaussians around uniformly chosen centers.
//! The Figure 10 edit changes the hyperparameter `σ` — "the variance of
//! the prior on cluster centers" — which affects only the `K` center
//! choices, so the optimized Section 6 translator runs in `O(K)` while
//! the baseline Section 5 translator visits all `O(N + K)` trace
//! elements.

use incremental::Correspondence;
use ppl::ast::Program;
use ppl::parse;

/// Number of clusters used in the paper's experiment.
pub const PAPER_K: usize = 10;

/// Builds the Listing 5 program with prior std `sigma`, `n` data points,
/// and `k` clusters. Sites: `center/i`, `pick/i`, `point/i`.
///
/// # Panics
///
/// Panics if `sigma` is not positive-finite or `k == 0` (the generated
/// program would be invalid).
pub fn gmm_program(sigma: f64, n: usize, k: usize) -> Program {
    assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
    assert!(k > 0, "need at least one cluster");
    let source = format!(
        r#"
        k = {k};
        n = {n};
        centers = array(k, 0);
        for i in [0..k) {{ centers[i] = gauss(0.0, {sigma:?}) @ center; }}
        data = array(n, 0);
        for i in [0..n) {{ data[i] = gauss(centers[uniform(0, k - 1) @ pick], 1.0) @ point; }}
        return data;
        "#
    );
    parse(&source).expect("generated GMM program parses")
}

/// The correspondence for the hyperparameter edit: every site maps to
/// itself (all supports match: centers and points are real-valued, picks
/// share the range `0..k`).
pub fn gmm_correspondence() -> Correspondence {
    Correspondence::identity_on(["center", "pick", "point"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use incremental::{CorrespondenceTranslator, StateTranslator};
    use ppl::handlers::simulate;
    use ppl::{addr, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_has_n_plus_k_choices() {
        let program = gmm_program(10.0, 25, PAPER_K);
        let mut rng = StdRng::seed_from_u64(1);
        let t = simulate(&program, &mut rng).unwrap();
        // K centers + N picks + N points.
        assert_eq!(t.len(), PAPER_K + 2 * 25);
        assert!(t.has_choice(&addr!["center", 0]));
        assert!(t.has_choice(&addr!["pick", 24]));
        assert!(t.has_choice(&addr!["point", 24]));
        let data = t.return_value().unwrap().as_array().unwrap();
        assert_eq!(data.len(), 25);
        assert!(matches!(data[0], Value::Real(_)));
    }

    #[test]
    fn hyperparameter_edit_weight_involves_only_centers() {
        // Translating σ = 10 → σ = 20 reuses every choice; the weight is
        // Π_i N(c_i; 0, 20) / N(c_i; 0, 10).
        let p = gmm_program(10.0, 8, 4);
        let q = gmm_program(20.0, 8, 4);
        let translator = CorrespondenceTranslator::new(p.clone(), q, gmm_correspondence());
        let mut rng = StdRng::seed_from_u64(2);
        let t = simulate(&p, &mut rng).unwrap();
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        let mut expected = 0.0;
        for i in 0..4_i64 {
            let c = t.value(&addr!["center", i]).unwrap().as_real().unwrap();
            let n10 = ppl::dist::Normal::new(0.0, 10.0).unwrap();
            let n20 = ppl::dist::Normal::new(0.0, 20.0).unwrap();
            expected += n20.log_prob(&Value::Real(c)).log() - n10.log_prob(&Value::Real(c)).log();
        }
        assert!(
            (w.log() - expected).abs() < 1e-9,
            "weight {} vs expected {}",
            w.log(),
            expected
        );
        // All choices reused: u's choice map equals t's.
        assert_eq!(u.to_choice_map(), t.to_choice_map());
    }

    #[test]
    #[should_panic]
    fn invalid_sigma_panics() {
        let _ = gmm_program(-1.0, 5, 2);
    }
}
