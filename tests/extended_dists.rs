//! Integration tests of the extended distribution library through the
//! full pipeline: surface syntax, inference kernels, and trace
//! translation.

use incremental::McmcKernel;
use incremental::{Correspondence, CorrespondenceTranslator, StateTranslator};
use inference::{GaussianDriftKernel, SingleSiteMh};
use ppl::dist::Dist;
use ppl::handlers::simulate;
use ppl::{addr, parse, Handler, PplError, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The new families parse, print, and re-parse.
#[test]
fn new_families_round_trip_through_the_parser() {
    let src = "a = poisson(3.0) @ a;
               b = geometric(0.4) @ b;
               c = beta(2.0, 5.0) @ c;
               d = exponential(1.5) @ d;
               return a + b;";
    let p1 = parse(src).unwrap();
    let p2 = parse(&p1.to_string()).unwrap();
    assert_eq!(p1, p2);
    let mut rng = StdRng::seed_from_u64(1);
    let t = simulate(&p1, &mut rng).unwrap();
    assert_eq!(t.len(), 4);
    let c = t.value(&addr!["c"]).unwrap().as_real().unwrap();
    assert!((0.0..1.0).contains(&c));
}

/// Single-site MH targets a Poisson posterior (checked against a fine
/// truncated-enumeration reference).
#[test]
fn mh_on_poisson_model() {
    // n ~ Poisson(4); observe flip(n >= 4 ? 0.9 : 0.1) == 1.
    let model = |h: &mut dyn Handler| {
        let n = h.sample(addr!["n"], Dist::poisson(4.0))?;
        let po = if n.as_int()? >= 4 { 0.9 } else { 0.1 };
        h.observe(addr!["o"], Dist::flip(po), Value::Bool(true))?;
        Ok(n)
    };
    // Reference by truncation (the tail beyond 40 is negligible).
    let d = Dist::poisson(4.0);
    let mut num = 0.0;
    let mut den = 0.0;
    for k in 0..60_i64 {
        let p = d.log_prob(&Value::Int(k)).prob();
        let like = if k >= 4 { 0.9 } else { 0.1 };
        den += p * like;
        if k >= 4 {
            num += p * like;
        }
    }
    let exact = num / den;
    let kernel = SingleSiteMh::new(model);
    let mut rng = StdRng::seed_from_u64(2);
    let mut trace = simulate(&model, &mut rng).unwrap();
    let (mut hits, total, burn) = (0usize, 120_000usize, 2_000usize);
    for i in 0..total {
        trace = kernel.step(&trace, &mut rng).unwrap();
        if i >= burn && trace.value(&addr!["n"]).unwrap().as_int().unwrap() >= 4 {
            hits += 1;
        }
    }
    let freq = hits as f64 / (total - burn) as f64;
    assert!((freq - exact).abs() < 0.02, "freq {freq} vs exact {exact}");
}

/// A beta latent translates across an edit: the coin bias survives, the
/// weight matches the oracle.
#[test]
fn beta_latent_translates() {
    let p = |h: &mut dyn Handler| {
        let theta = h.sample(addr!["theta"], Dist::beta(2.0, 2.0))?;
        h.observe(addr!["o"], Dist::flip(theta.as_real()?), Value::Bool(true))?;
        Ok(theta)
    };
    let q = |h: &mut dyn Handler| {
        let theta = h.sample(addr!["theta"], Dist::beta(3.0, 1.0))?;
        h.observe(addr!["o"], Dist::flip(theta.as_real()?), Value::Bool(true))?;
        Ok(theta)
    };
    let corr = Correspondence::identity_on(["theta"]);
    let translator = CorrespondenceTranslator::new(p, q, corr.clone());
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let t = simulate(&p, &mut rng).unwrap();
        let (u, w) = translator.translate(&t, &mut rng).unwrap();
        assert_eq!(u.value(&addr!["theta"]), t.value(&addr!["theta"]));
        let oracle = incremental::exact_weight_estimate(&p, &q, &corr, &t, &u).unwrap();
        assert!((w.log() - oracle.log()).abs() < 1e-9);
        // Weight = Beta(3,1)(θ) / Beta(2,2)(θ) — the observation cancels.
        let theta = t.value(&addr!["theta"]).unwrap().clone();
        let expected = Dist::beta(3.0, 1.0).log_prob(&theta).log()
            - Dist::beta(2.0, 2.0).log_prob(&theta).log();
        assert!((w.log() - expected).abs() < 1e-9);
    }
}

/// Drift MH on an exponential-prior model matches the closed-form
/// posterior mean (conjugate via gamma: Exp(1) prior, Exp-likelihood).
#[test]
fn drift_mh_on_exponential_model() {
    // rate ~ Exponential(1); observe one waiting time 0.5 under
    // Exponential(rate): posterior ∝ rate·e^{-rate(1+0.5)} = Gamma(2, 1.5),
    // mean 2/1.5 = 4/3.
    let model = |h: &mut dyn Handler| {
        let rate = h.sample(addr!["rate"], Dist::exponential(1.0))?;
        // `try_` because a drift proposal may push the rate negative; the
        // resulting InvalidDistribution error is a rejection for MH.
        h.observe(
            addr!["o"],
            Dist::try_exponential(rate.as_real()?)?,
            Value::Real(0.5),
        )?;
        Ok(rate)
    };
    let kernel = GaussianDriftKernel::new(model, 0.7);
    let mut rng = StdRng::seed_from_u64(4);
    let mut trace = simulate(&model, &mut rng).unwrap();
    let (mut sum, total, burn) = (0.0, 80_000usize, 2_000usize);
    for i in 0..total {
        trace = kernel.step(&trace, &mut rng).unwrap();
        if i >= burn {
            sum += trace.value(&addr!["rate"]).unwrap().as_real().unwrap();
        }
    }
    let mean = sum / (total - burn) as f64;
    assert!((mean - 4.0 / 3.0).abs() < 0.03, "posterior mean {mean}");
}

/// The geometric distribution's infinite support is handled: reuse works
/// (same support), enumeration refuses, Gibbs skips.
#[test]
fn geometric_support_discipline() {
    assert!(Dist::geometric(0.5).same_support(&Dist::geometric(0.2)));
    assert!(Dist::geometric(0.5).same_support(&Dist::poisson(3.0)));
    assert!(!Dist::geometric(0.5).same_support(&Dist::uniform_int(0, 10)));
    assert!(Dist::geometric(0.5).is_discrete());
    assert!(Dist::geometric(0.5).enumerate_support().is_none());

    let model = |h: &mut dyn Handler| h.sample(addr!["g"], Dist::geometric(0.5));
    assert!(matches!(
        ppl::Enumeration::run(&model),
        Err(PplError::NonEnumerable(_))
    ));

    // Translation across a geometric-rate edit reuses the count.
    let p = |h: &mut dyn Handler| h.sample(addr!["g"], Dist::geometric(0.5));
    let q = |h: &mut dyn Handler| h.sample(addr!["g"], Dist::geometric(0.25));
    let translator = CorrespondenceTranslator::new(p, q, Correspondence::identity_on(["g"]));
    let mut rng = StdRng::seed_from_u64(5);
    let t = simulate(&p, &mut rng).unwrap();
    let (u, w) = translator.translate(&t, &mut rng).unwrap();
    assert_eq!(u.value(&addr!["g"]), t.value(&addr!["g"]));
    let k = t.value(&addr!["g"]).unwrap().clone();
    let expected =
        Dist::geometric(0.25).log_prob(&k).log() - Dist::geometric(0.5).log_prob(&k).log();
    assert!((w.log() - expected).abs() < 1e-9);
}

/// The static checker understands the new families.
#[test]
fn checker_covers_new_families() {
    let ok = parse("x = poisson(2.0); y = beta(1.0, 1.0); return x + y;").unwrap();
    assert!(ppl::check::check(&ok).is_empty());
    let bad = parse("a = array(2, 0); x = poisson(a); return x;").unwrap();
    assert!(!ppl::check::is_clean(&bad));
}
