//! Shared generators for the property-based differential suites: random
//! surface programs, the "hyperparameter edit" constant perturbation, and
//! structural edits that insert or delete a statement. Used by
//! `random_edits.rs` (weight-oracle differential tests),
//! `static_slices.rs` (static impact-slice soundness tests and the
//! differential test against [`reference_analysis`]) and
//! `front_end_fuzz.rs`.

#![allow(dead_code)]

pub mod reference_analysis;

use proptest::prelude::*;

/// A generator of small, runtime-safe surface programs: all variables are
/// pre-initialized, flip probabilities stay in (0, 1), no division.
pub fn program_strategy() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (0usize..3, 1u32..99).prop_map(|(v, p)| format!("v{v} = flip(0.{p:02});")),
        (0usize..3, 0i64..4, 1i64..5)
            .prop_map(|(v, lo, k)| format!("v{v} = uniform({lo}, {});", lo + k)),
        (0usize..3, 0usize..3, 0usize..3)
            .prop_map(|(v, a, b)| { format!("v{v} = va{a} + va{b};") }),
        (0usize..3, 1u32..99, 0usize..3, 0usize..3).prop_map(|(c, p, a, b)| {
            format!("if va{c} > 0 {{ va{a} = flip(0.{p:02}); }} else {{ va{b} = 1; }}")
        }),
        (1u32..99, 0usize..3)
            .prop_map(|(p, v)| { format!("observe(flip(0.{p:02}) == (va{v} > 0));") }),
        (0usize..3, 1i64..4, 1u32..99).prop_map(|(v, n, p)| {
            format!("for i{v} in [0..{n}) {{ va{v} = flip(0.{p:02}); }}")
        }),
    ];
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        let mut src = String::from("va0 = 1; va1 = 0; va2 = 1; v0 = 0; v1 = 0; v2 = 0;\n");
        for s in stmts {
            src.push_str(&s);
            src.push('\n');
        }
        src.push_str("return va0;");
        src
    })
}

/// Perturbs every `0.XX` constant by a deterministic amount, producing a
/// semantically different but structurally identical program — the
/// "hyperparameter edit" shape.
pub fn perturb_constants(src: &str, delta: u32) -> String {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '0' && chars.peek() == Some(&'.') {
            chars.next(); // '.'
            let mut digits = String::new();
            while chars.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
                digits.push(chars.next().unwrap());
            }
            if digits.is_empty() {
                // Not a real literal — e.g. the `0..` of a range.
                out.push_str("0.");
                continue;
            }
            let value: u32 = digits.parse().unwrap_or(50);
            let scale = 10u32.pow(digits.len() as u32);
            // Stay strictly inside (0, scale).
            let perturbed = (value + delta) % (scale - 1) + 1;
            out.push_str(&format!("0.{perturbed:0width$}", width = digits.len()));
        } else {
            out.push(c);
        }
    }
    out
}

/// A structural edit `(P, Q)`: `Q` is `P` with one statement line of a
/// second generated program inserted at a generated position, or, half
/// the time, the same pair swapped so that the edit deletes that line.
/// The edits remove old statements, add fresh ones, and shift the
/// auto-generated site labels of every later random expression.
pub fn structural_edit_strategy() -> impl Strategy<Value = (String, String)> {
    structural_edit_from(program_strategy)
}

/// [`structural_edit_strategy`] over the programs `programs` generates:
/// one statement per line between an initialising first line and a
/// returning last one.
pub fn structural_edit_from<S: Strategy<Value = String>>(
    programs: impl Fn() -> S,
) -> impl Strategy<Value = (String, String)> {
    (programs(), programs(), 0usize..8, 0usize..8, 0u8..2).prop_map(
        |(src, donor, at, pick, delete)| {
            // Line 0 initializes the variables and the last line returns,
            // so statement lines sit strictly between them.
            let donor: Vec<&str> = donor.lines().collect();
            let line = donor[1 + pick % (donor.len() - 2)];
            let mut lines: Vec<&str> = src.lines().collect();
            lines.insert(1 + at % (lines.len() - 1), line);
            let edited = lines.join("\n");
            if delete == 1 {
                (edited, src)
            } else {
                (src, edited)
            }
        },
    )
}

/// A generator of programs for static analysis only: besides the shapes
/// of [`program_strategy`], `while` loops, element writes and reads,
/// statements nested up to three deep, loop variables read in their
/// bodies, and ternaries — among them ones with a constant condition
/// whose untaken branch reads a variable, which constant folding drops
/// from the compiled form. Each top-level statement is one line, so
/// [`structural_edit_from`] applies. The programs parse; they are not
/// meant to run.
pub fn rich_program_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0usize..3, 1u32..99).prop_map(|(v, p)| format!("v{v} = flip(0.{p:02});")),
        (0usize..3, 0usize..3, 0usize..3).prop_map(|(v, a, b)| format!("v{v} = va{a} + va{b};")),
        (0usize..2, 0usize..3, 0usize..3)
            .prop_map(|(a, i, v)| format!("xs{a}[va{i} > 0 ? 1 : 0] = v{v} + i{i};")),
        (0usize..3, 0usize..2, 0i64..2).prop_map(|(v, a, k)| format!("va{v} = xs{a}[{k}];")),
        (0usize..3, 0usize..3, 0u8..2).prop_map(|(v, a, taken)| if taken == 1 {
            format!("v{v} = true ? 1 : va{a};")
        } else {
            format!("v{v} = false ? va{a} : 2;")
        }),
        (0usize..3, 1u32..99, 0usize..3)
            .prop_map(|(v, p, a)| format!("v{v} = va{a} > 0 ? flip(0.{p:02}) : v{v};")),
        (1u32..99, 0usize..3).prop_map(|(p, v)| format!("observe(flip(0.{p:02}) == (va{v} > 0));")),
        Just("skip;"),
    ];
    let stmt = leaf.prop_recursive(3, 0, 0, |inner| {
        let body = || proptest::collection::vec(inner.clone(), 1..3).prop_map(|b| b.join(" "));
        prop_oneof![
            inner.clone(),
            (0usize..3, body(), body())
                .prop_map(|(c, t, e)| format!("if va{c} > 0 {{ {t} }} else {{ {e} }}")),
            (0usize..3, 1i64..4, body())
                .prop_map(|(v, n, b)| format!("for i{v} in [0..{n}) {{ {b} }}")),
            (0usize..3, 1i64..3, body())
                .prop_map(|(v, n, b)| { format!("while w{v} < {n} {{ w{v} = w{v} + 1; {b} }}") }),
        ]
    });
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        let mut src = String::from(
            "va0 = 1; va1 = 0; va2 = 1; v0 = 0; v1 = 0; v2 = 0; w0 = 0; w1 = 0; w2 = 0; \
             xs0 = array(2, 0); xs1 = array(2, 1);\n",
        );
        for s in stmts {
            src.push_str(&s);
            src.push('\n');
        }
        src.push_str("return va0 + xs0[1];");
        src
    })
}

/// A strategy that always yields `value`.
pub struct Just(pub &'static str);

impl Strategy for Just {
    type Value = String;
    fn generate(&self, _rng: &mut rand::rngs::StdRng) -> String {
        self.0.to_string()
    }
}
