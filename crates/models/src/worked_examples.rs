//! The paper's small worked examples: the Figure 3 / Example 1 program
//! (also the Figure 7 edit pair) and the Figure 5 pair of Example 3.

use incremental::Correspondence;
use ppl::ast::Program;
use ppl::dist::Dist;
use ppl::{addr, parse, Handler, PplError, Value};

/// The Figure 3 program (Example 1): `Z_P = 0.7`.
///
/// # Panics
///
/// Never panics: the source is a fixed valid program.
pub fn fig3_program() -> Program {
    parse(
        r#"
        a = 1;
        b = flip(a / 3) @ b;
        if a < 2 { c = uniform(1, 6) @ c; } else { c = uniform(6, 10) @ c; }
        d = flip(b / 2) @ d;
        observe(flip(1 / 5) @ obs == d);
        return c;
        "#,
    )
    .expect("fixed program parses")
}

/// The Figure 7 original program (`a = 1`); same structure as Figure 3
/// but with `c = uniform(0, 5)` in the then-branch and no observation.
///
/// # Panics
///
/// Never panics: the source is a fixed valid program.
pub fn fig7_original() -> Program {
    parse(
        r#"
        a = 1;
        b = flip(a / 3) @ b;
        if a < 2 { c = uniform(0, 5) @ cthen; } else { c = uniform(6, 10) @ celse; }
        d = flip(b / 2) @ d;
        return c;
        "#,
    )
    .expect("fixed program parses")
}

/// The Figure 7 edited program: the constant edit `a = 1 → a = 2`.
///
/// # Panics
///
/// Never panics: the source is a fixed valid program.
pub fn fig7_edited() -> Program {
    parse(
        r#"
        a = 2;
        b = flip(a / 3) @ b;
        if a < 2 { c = uniform(0, 5) @ cthen; } else { c = uniform(6, 10) @ celse; }
        d = flip(b / 2) @ d;
        return c;
        "#,
    )
    .expect("fixed program parses")
}

/// Figure 5 left program `P` (random choices α, β, γ, δ).
pub fn fig5_p(h: &mut dyn Handler) -> Result<Value, PplError> {
    let a = h.sample(addr!["alpha"], Dist::flip(0.5))?;
    if !a.truthy()? {
        h.sample(addr!["beta"], Dist::uniform_int(0, 5))?;
    } else {
        h.sample(addr!["gamma"], Dist::flip(0.5))?;
    }
    h.sample(addr!["delta"], Dist::flip(0.5))?;
    Ok(a)
}

/// Figure 5 right program `Q` (random choices ε, ζ, η, θ, ι).
pub fn fig5_q(h: &mut dyn Handler) -> Result<Value, PplError> {
    let a = h.sample(addr!["eps"], Dist::flip(1.0 / 3.0))?;
    if !a.truthy()? {
        h.sample(addr!["zeta"], Dist::uniform_int(0, 5))?;
    } else {
        h.sample(addr!["eta"], Dist::flip(0.5))?;
    }
    h.sample(addr!["theta"], Dist::uniform_int(1, 6))?;
    h.sample(addr!["iota"], Dist::uniform_int(-5, -2))?;
    Ok(a)
}

/// The Example 3 correspondence: ε ↔ α, ζ ↔ β, η ↔ γ.
///
/// # Panics
///
/// Never panics: the pairs are fixed and bijective.
pub fn fig5_correspondence() -> Correspondence {
    Correspondence::from_pairs([
        (addr!["eps"], addr!["alpha"]),
        (addr!["zeta"], addr!["beta"]),
        (addr!["eta"], addr!["gamma"]),
    ])
    .expect("fixed bijection")
}

/// The geometric program of Figure 6 with success probability `p`,
/// trials addressed `trial/0`, `trial/1`, ….
pub fn geometric(p: f64) -> impl Fn(&mut dyn Handler) -> Result<Value, PplError> + Clone {
    move |h: &mut dyn Handler| {
        let mut n = 1_i64;
        let mut i = 0_i64;
        while h.sample(addr!["trial", i], Dist::flip(p))?.truthy()? {
            n += 1;
            i += 1;
        }
        Ok(Value::Int(n))
    }
}

/// The Section 5.4 correspondence for the geometric edit `p = 1/2 → 1/3`:
/// trial `i` maps to trial `i`.
pub fn geometric_correspondence() -> Correspondence {
    Correspondence::identity_on(["trial"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use incremental::{CorrespondenceTranslator, StateTranslator};
    use ppl::handlers::simulate;
    use ppl::Enumeration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn example1_z_is_0_7() {
        let e = Enumeration::run(&fig3_program()).unwrap();
        assert!((e.z() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn fig7_programs_differ_only_in_constant() {
        let p = fig7_original();
        let q = fig7_edited();
        // Original takes the then-branch, edited the else-branch.
        let ep = Enumeration::run(&p).unwrap();
        let eq = Enumeration::run(&q).unwrap();
        assert!(ep.traces().iter().all(|t| t.has_choice(&addr!["cthen"])));
        assert!(eq.traces().iter().all(|t| t.has_choice(&addr!["celse"])));
        // b = flip(1/3) vs flip(2/3).
        let pb = ep.probability(|t| t.value(&addr!["b"]).unwrap().truthy().unwrap());
        let qb = eq.probability(|t| t.value(&addr!["b"]).unwrap().truthy().unwrap());
        assert!((pb - 1.0 / 3.0).abs() < 1e-12);
        assert!((qb - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_translation_reindexes_trials() {
        let p = geometric(0.5);
        let q = geometric(1.0 / 3.0);
        let translator = CorrespondenceTranslator::new(p.clone(), q, geometric_correspondence());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let t = simulate(&p, &mut rng).unwrap();
            let (u, w) = translator.translate(&t, &mut rng).unwrap();
            // The whole trial sequence is reused, so the return values
            // match and the weight is (1/3 / 1/2)^(n-1) * (2/3 / 1/2).
            assert_eq!(u.return_value(), t.return_value());
            let n = t.return_value().unwrap().as_int().unwrap();
            let expected = (2.0f64 / 3.0).powi((n - 1) as i32) * ((2.0 / 3.0) / 0.5);
            assert!(
                (w.prob() - expected).abs() < 1e-9,
                "n={n}: {} vs {expected}",
                w.prob()
            );
        }
    }
}
