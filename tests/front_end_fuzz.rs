//! Front-end fuzz: arbitrary byte strings, token soup and generated
//! programs go through `parse` → `check` → `compile`, and every program
//! that parses is also planned as an edit of itself and of a copy with
//! its constants perturbed (`IncrementalTranslator::from_shared`: the
//! diff, the pair compile with its effect facts, the impact slice and the
//! stage plan). Nothing may panic; errors are fine.

mod common;

use std::sync::Arc;

use common::{perturb_constants, rich_program_strategy};
use depgraph::IncrementalTranslator;
use ppl::{check::check, compile::compile, parse};
use proptest::prelude::*;

/// Runs every front-end stage on `src`.
fn drive(src: &str) {
    let Ok(program) = parse(src) else {
        return;
    };
    let _ = check(&program);
    let _ = compile(&program);
    let p = Arc::new(program);
    let _ = IncrementalTranslator::from_shared(Arc::clone(&p), Arc::clone(&p));
    if let Ok(q) = parse(&perturb_constants(src, 7)) {
        let _ = IncrementalTranslator::from_shared(p, Arc::new(q));
    }
}

/// Surface tokens, chosen so that random sequences of them parse now
/// and then.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "x", "y", "z", "xs", "i", "n", "=", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/",
    "%", "&&", "||", "!", "?", ":", ";", ",", "(", ")", "[", "]", "{", "}", "..", "@", "s",
    "if", "else", "while", "for", "in", "observe", "return", "skip", "true", "false", "flip",
    "uniform", "uniformReal", "gauss", "categorical", "poisson", "geometric", "beta",
    "exponential", "array", "sqrt", "exp", "ln", "abs", "min", "max", "floor", "len", "0", "1",
    "2", "0.5", "1.0e3", "9223372036854775807", "-1", "0.25", "x = flip(0.5);",
    "observe(flip(0.9) == x);", "return x;", "for i in [0..3) {", "if x {", "} else {",
    "while x < 3 {", "xs[i] = ", "xs = array(3, 0);",
];

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..48).prop_map(|picks| {
        picks
            .iter()
            .map(|&t| TOKENS[t])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// A generated program with a token spliced in at a random place, or a
/// random stretch cut out: it often still parses, and when it does not,
/// the error is deep inside a real program.
fn mutated_program() -> impl Strategy<Value = String> {
    (
        rich_program_strategy(),
        0usize..4096,
        0usize..TOKENS.len(),
        0usize..24,
    )
        .prop_map(|(src, at, token, cut)| {
            let at = (0..=at % (src.len() + 1))
                .rev()
                .find(|&i| src.is_char_boundary(i))
                .unwrap_or(0);
            let end = (at + cut).min(src.len());
            if cut % 2 == 0 && src.is_char_boundary(end) {
                format!("{}{}", &src[..at], &src[end..])
            } else {
                format!("{} {} {}", &src[..at], TOKENS[token], &src[at..])
            }
        })
}

fn bytes() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u16..256, 0..96).prop_map(|raw| {
        let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&raw).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn arbitrary_bytes_do_not_panic_the_front_end(src in bytes()) {
        drive(&src);
    }

    #[test]
    fn token_soup_does_not_panic_the_front_end(src in token_soup()) {
        drive(&src);
    }

    #[test]
    fn mutated_programs_do_not_panic_the_front_end(src in mutated_program()) {
        drive(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Programs that parse by construction, with every statement shape,
    /// so that the planning half always runs.
    #[test]
    fn generated_programs_plan_without_panicking(src in rich_program_strategy()) {
        prop_assert!(parse(&src).is_ok(), "generated program parses:\n{}", src);
        drive(&src);
    }
}
