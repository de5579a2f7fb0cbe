//! Static checks for surface-language programs.
//!
//! Catches before execution the mistakes that would otherwise surface as
//! runtime [`crate::PplError`]s mid-inference:
//!
//! - **use of possibly-undefined variables** (path-sensitive: a variable
//!   assigned in only one branch of an `if`, or only inside a loop body,
//!   is not definitely defined afterwards);
//! - **duplicate site labels** that would collide at runtime (two random
//!   expressions with the same label on one execution path at the same
//!   loop depth);
//! - **obvious type errors** (an array used where a number is needed, a
//!   number indexed like an array) via a simple abstract interpretation;
//! - **dead or vacuous probabilistic structure**: variables assigned but
//!   never read, branches whose condition is a constant, and
//!   observations whose success probability is statically 0 or 1.
//!
//! Every diagnostic carries a stable machine-readable code (`PPL001`,
//! …), and — when the program was parsed with
//! [`crate::parser::parse_with_spans`] — the source position of the
//! offending statement:
//!
//! | code     | severity | meaning                                          |
//! |----------|----------|--------------------------------------------------|
//! | `PPL001` | error    | variable used before being defined               |
//! | `PPL002` | warning  | variable possibly undefined (path-dependent)     |
//! | `PPL003` | error    | duplicate site label on one execution path       |
//! | `PPL004` | error    | type error (array/number misuse)                 |
//! | `PPL005` | warning  | element assignment to a possibly-undefined array |
//! | `PPL010` | warning  | variable assigned but never read                 |
//! | `PPL011` | warning  | statically unreachable branch or loop body       |
//! | `PPL012` | warning  | observation statically certain (probability 1)   |
//! | `PPL013` | error    | observation statically impossible (probability 0)|

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast::{Block, Expr, Program, RandExpr, RandKind, Stmt};
use crate::interp::{apply_binary, apply_unary};
use crate::parser::{Span, SpanTable};
use crate::value::Value;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Will (or is very likely to) fail at runtime.
    Error,
    /// Suspicious but possibly intentional.
    Warning,
}

/// One finding of the checker.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How severe the finding is.
    pub severity: Severity,
    /// Stable machine-readable code (`"PPL001"`, …).
    pub code: &'static str,
    /// Source position of the offending statement, when the program was
    /// checked with a [`SpanTable`] (see [`check_with_spans`]).
    pub span: Option<Span>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.span {
            write!(f, "{span}: ")?;
        }
        let kind = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{kind}[{}]: {}", self.code, self.message)
    }
}

/// A coarse abstract type for the flow analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsType {
    Number,
    Array,
    Unknown,
}

impl AbsType {
    fn join(self, other: AbsType) -> AbsType {
        if self == other {
            self
        } else {
            AbsType::Unknown
        }
    }
}

/// Definedness of a variable at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defined {
    Definitely,
    Maybe,
}

#[derive(Debug, Clone, Default)]
struct Env {
    vars: HashMap<String, (Defined, AbsType)>,
}

impl Env {
    fn define(&mut self, name: &str, ty: AbsType) {
        self.vars
            .insert(name.to_string(), (Defined::Definitely, ty));
    }

    /// Merge of two branch outcomes: defined only if defined in both.
    fn join(mut self, other: Env) -> Env {
        let mut merged = HashMap::new();
        for (name, (d1, t1)) in self.vars.drain() {
            match other.vars.get(&name) {
                Some((d2, t2)) => {
                    let d = if d1 == Defined::Definitely && *d2 == Defined::Definitely {
                        Defined::Definitely
                    } else {
                        Defined::Maybe
                    };
                    merged.insert(name, (d, t1.join(*t2)));
                }
                None => {
                    merged.insert(name, (Defined::Maybe, t1));
                }
            }
        }
        for (name, (_, t)) in other.vars {
            merged.entry(name).or_insert((Defined::Maybe, t));
        }
        Env { vars: merged }
    }
}

struct Checker<'a> {
    diagnostics: Vec<Diagnostic>,
    spans: Option<&'a SpanTable>,
    /// Pre-order index of the next statement to enter (matches the
    /// parser's statement numbering).
    next_index: usize,
    /// Span of the statement currently being checked.
    current: Option<Span>,
}

/// Checks `program`, returning all diagnostics (errors first).
pub fn check(program: &Program) -> Vec<Diagnostic> {
    check_with_spans(program, None)
}

/// Checks `program` with source positions from `spans` (as produced by
/// [`crate::parser::parse_with_spans`]) attached to each diagnostic.
///
/// # Examples
///
/// ```
/// let (p, spans) = ppl::parse_with_spans("x = 1;\ny = ghost;\nreturn y;")?;
/// let diags = ppl::check::check_with_spans(&p, Some(&spans));
/// assert_eq!(diags[0].code, "PPL001");
/// assert_eq!(diags[0].span.unwrap().line, 2);
/// # Ok::<(), ppl::PplError>(())
/// ```
pub fn check_with_spans(program: &Program, spans: Option<&SpanTable>) -> Vec<Diagnostic> {
    let mut checker = Checker {
        diagnostics: Vec::new(),
        spans,
        next_index: 0,
        current: None,
    };
    let mut env = Env::default();
    let mut path_sites = HashSet::new();
    checker.check_block(program.body(), &mut env, &mut path_sites, 0);
    checker.current = spans.and_then(|t| t.ret);
    if let Some(ret) = program.ret() {
        checker.check_expr(ret, &env, &mut path_sites, 0);
    }
    checker.check_unused(program);
    checker.diagnostics.sort_by_key(|d| {
        (
            d.severity != Severity::Error,
            d.code,
            d.span,
            d.message.clone(),
        )
    });
    checker.diagnostics.dedup();
    checker.diagnostics
}

/// Convenience: parse-and-check error count is zero.
pub fn is_clean(program: &Program) -> bool {
    check(program).iter().all(|d| d.severity != Severity::Error)
}

/// Evaluates a variable- and randomness-free expression to a constant.
fn const_value(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Const(v) => Some(v.clone()),
        Expr::Unary(op, e) => apply_unary(*op, &const_value(e)?).ok(),
        Expr::Binary(op, a, b) => apply_binary(*op, &const_value(a)?, &const_value(b)?).ok(),
        Expr::Ternary(c, t, e) => {
            if const_value(c)?.truthy().ok()? {
                const_value(t)
            } else {
                const_value(e)
            }
        }
        _ => None,
    }
}

impl Checker<'_> {
    fn error(&mut self, code: &'static str, message: String) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code,
            span: self.current,
            message,
        });
    }

    fn warning(&mut self, code: &'static str, message: String) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code,
            span: self.current,
            message,
        });
    }

    /// Flags variables that are assigned somewhere but read nowhere —
    /// dead state that silently widens every dependence slice. Loop
    /// variables are exempt (iterating without using the index is
    /// idiomatic).
    fn check_unused(&mut self, program: &Program) {
        let (compiled, effects) = crate::compile::compile_with_effects(program, None);
        // Every head's reads and the return expression's: the whole read
        // arena, one head after another.
        let mut used = vec![false; compiled.slot_count()];
        for slot in (0..effects.len())
            .flat_map(|i| effects.head_reads(i))
            .chain(effects.ret_reads())
        {
            used[slot.index()] = true;
        }
        let mut reported = vec![false; compiled.slot_count()];
        for i in 0..effects.len() {
            for &slot in effects.head_writes(i) {
                if effects.stmt(i).loop_var == Some(slot) {
                    continue;
                }
                if !used[slot.index()] && !reported[slot.index()] {
                    reported[slot.index()] = true;
                    self.current = self.spans.and_then(|t| t.stmts.get(i)).copied();
                    self.warning(
                        "PPL010",
                        format!(
                            "variable `{}` is assigned but never read",
                            compiled.slot_name(slot)
                        ),
                    );
                }
            }
        }
        self.current = None;
    }

    /// Flags observations whose success probability is statically 0
    /// (every execution rejected) or 1 (the observation is a no-op).
    fn check_observe_determinism(&mut self, rand: &RandExpr, expr: &Expr) {
        let Some(observed) = const_value(expr) else {
            return;
        };
        match &rand.kind {
            RandKind::Flip(p) => {
                let Some(p) = const_value(p).and_then(|v| v.as_real().ok()) else {
                    return;
                };
                // Only 0/1-like observed values have a clear coercion.
                let want = match observed {
                    Value::Bool(b) => b,
                    Value::Int(0) => false,
                    Value::Int(1) => true,
                    _ => return,
                };
                let prob = if want { p } else { 1.0 - p };
                if prob == 0.0 {
                    self.error(
                        "PPL013",
                        format!(
                            "observation at site `{}` is statically impossible \
                             (probability 0); every execution would be rejected",
                            rand.site
                        ),
                    );
                } else if prob == 1.0 {
                    self.warning(
                        "PPL012",
                        format!(
                            "observation at site `{}` is statically certain \
                             (probability 1); it never constrains the posterior",
                            rand.site
                        ),
                    );
                }
            }
            RandKind::UniformInt(lo, hi) => {
                let (Some(lo), Some(hi)) = (
                    const_value(lo).and_then(|v| v.as_int().ok()),
                    const_value(hi).and_then(|v| v.as_int().ok()),
                ) else {
                    return;
                };
                let Value::Int(k) = observed else {
                    return;
                };
                if k < lo || k > hi {
                    self.error(
                        "PPL013",
                        format!(
                            "observation at site `{}` is statically impossible: \
                             {k} is outside uniform({lo}, {hi})",
                            rand.site
                        ),
                    );
                } else if lo == hi {
                    self.warning(
                        "PPL012",
                        format!(
                            "observation at site `{}` is statically certain \
                             (probability 1); it never constrains the posterior",
                            rand.site
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    fn check_block(
        &mut self,
        block: &Block,
        env: &mut Env,
        path_sites: &mut HashSet<String>,
        loop_depth: usize,
    ) {
        for stmt in block.stmts() {
            self.check_stmt(stmt, env, path_sites, loop_depth);
        }
    }

    fn check_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut Env,
        path_sites: &mut HashSet<String>,
        loop_depth: usize,
    ) {
        // Statements are visited in the parser's pre-order, so the span
        // table lines up index-for-index.
        self.current = self
            .spans
            .and_then(|t| t.stmts.get(self.next_index))
            .copied();
        self.next_index += 1;
        let span_here = self.current;
        match stmt {
            Stmt::Skip => {}
            Stmt::Assign(name, expr) => {
                let ty = self.check_expr(expr, env, path_sites, loop_depth);
                env.define(name, ty);
            }
            Stmt::AssignIndex(name, idx, expr) => {
                let idx_ty = self.check_expr(idx, env, path_sites, loop_depth);
                if idx_ty == AbsType::Array {
                    self.error(
                        "PPL004",
                        format!("index expression for `{name}` is an array"),
                    );
                }
                self.check_expr(expr, env, path_sites, loop_depth);
                match env.vars.get(name) {
                    None => self.error(
                        "PPL004",
                        format!("element assignment to `{name}` before the array is defined"),
                    ),
                    Some((Defined::Maybe, _)) => self.warning(
                        "PPL005",
                        format!("element assignment to `{name}`, which may be undefined here"),
                    ),
                    Some((Defined::Definitely, AbsType::Number)) => self.error(
                        "PPL004",
                        format!("`{name}` is a number but is indexed like an array"),
                    ),
                    _ => {}
                }
            }
            Stmt::Observe(rand, expr) => {
                self.check_rand(rand, env, path_sites, loop_depth);
                self.check_expr(expr, env, path_sites, loop_depth);
                self.check_observe_determinism(rand, expr);
            }
            Stmt::If(cond, then_b, else_b) => {
                let cond_ty = self.check_expr(cond, env, path_sites, loop_depth);
                if cond_ty == AbsType::Array {
                    self.error("PPL004", "`if` condition is an array".to_string());
                }
                if let Some(truthy) = const_value(cond).and_then(|v| v.truthy().ok()) {
                    let dead = if truthy { "else" } else { "then" };
                    let dead_empty = if truthy {
                        else_b.stmts().is_empty()
                    } else {
                        then_b.stmts().is_empty()
                    };
                    if !dead_empty {
                        self.warning(
                            "PPL011",
                            format!(
                                "`{dead}` branch is statically unreachable: the condition \
                                 is constantly {truthy}"
                            ),
                        );
                    }
                }
                // Branches see independent site paths (they never both
                // execute).
                let mut then_env = env.clone();
                let mut then_sites = path_sites.clone();
                self.check_block(then_b, &mut then_env, &mut then_sites, loop_depth);
                let mut else_env = env.clone();
                let mut else_sites = path_sites.clone();
                self.check_block(else_b, &mut else_env, &mut else_sites, loop_depth);
                *env = then_env.join(else_env);
                // Sites used in either branch are used on *some* path.
                path_sites.extend(then_sites);
                path_sites.extend(else_sites);
            }
            Stmt::While(cond, body) => {
                // Condition checked in the pre-loop environment; the body
                // may run zero times, so its definitions are only Maybe.
                self.check_expr(cond, env, path_sites, loop_depth);
                if const_value(cond).and_then(|v| v.truthy().ok()) == Some(false)
                    && !body.stmts().is_empty()
                {
                    self.current = span_here;
                    self.warning(
                        "PPL011",
                        "`while` body is statically unreachable: the condition is \
                         constantly false"
                            .to_string(),
                    );
                }
                let mut body_env = env.clone();
                let mut body_sites = HashSet::new();
                self.check_block(body, &mut body_env, &mut body_sites, loop_depth + 1);
                *env = env.clone().join(body_env);
            }
            Stmt::For(var, lo, hi, body) => {
                let lo_ty = self.check_expr(lo, env, path_sites, loop_depth);
                let hi_ty = self.check_expr(hi, env, path_sites, loop_depth);
                if lo_ty == AbsType::Array || hi_ty == AbsType::Array {
                    self.error("PPL004", format!("loop bounds of `for {var}` are arrays"));
                }
                let mut body_env = env.clone();
                body_env.define(var, AbsType::Number);
                // Loop iterations get distinct loop indices in their
                // addresses, so the body starts a fresh site path.
                let mut body_sites = HashSet::new();
                self.check_block(body, &mut body_env, &mut body_sites, loop_depth + 1);
                // The body may run zero times: join with the pre-state.
                *env = env.clone().join(body_env);
            }
        }
    }

    fn check_rand(
        &mut self,
        rand: &RandExpr,
        env: &Env,
        path_sites: &mut HashSet<String>,
        loop_depth: usize,
    ) {
        // A site executed twice on the same path at the same loop depth
        // collides at runtime.
        if !path_sites.insert(rand.site.as_str().to_string()) {
            self.error(
                "PPL003",
                format!(
                    "site `{}` is used by more than one random expression on the same \
                     execution path; the addresses would collide",
                    rand.site
                ),
            );
        }
        let mut check_param = |e: &Expr, what: &str| {
            let ty = self.check_expr_inner(e, env, path_sites, loop_depth);
            if ty == AbsType::Array {
                self.error(
                    "PPL004",
                    format!(
                        "{what} of `{}` at site `{}` is an array",
                        rand.kind.family(),
                        rand.site
                    ),
                );
            }
        };
        match &rand.kind {
            RandKind::Flip(p)
            | RandKind::Poisson(p)
            | RandKind::GeometricDist(p)
            | RandKind::Exponential(p) => check_param(p, "parameter"),
            RandKind::UniformInt(a, b)
            | RandKind::UniformReal(a, b)
            | RandKind::Gauss(a, b)
            | RandKind::Beta(a, b) => {
                check_param(a, "first parameter");
                check_param(b, "second parameter");
            }
            RandKind::Categorical(ws) => {
                for w in ws {
                    check_param(w, "weight");
                }
            }
        }
    }

    fn check_expr(
        &mut self,
        expr: &Expr,
        env: &Env,
        path_sites: &mut HashSet<String>,
        loop_depth: usize,
    ) -> AbsType {
        self.check_expr_inner(expr, env, path_sites, loop_depth)
    }

    fn check_expr_inner(
        &mut self,
        expr: &Expr,
        env: &Env,
        path_sites: &mut HashSet<String>,
        loop_depth: usize,
    ) -> AbsType {
        match expr {
            Expr::Const(v) => match v {
                crate::Value::Array(_) => AbsType::Array,
                _ => AbsType::Number,
            },
            Expr::Var(name) => match env.vars.get(name) {
                None => {
                    self.error(
                        "PPL001",
                        format!("variable `{name}` is used before being defined"),
                    );
                    AbsType::Unknown
                }
                Some((Defined::Maybe, ty)) => {
                    self.warning(
                        "PPL002",
                        format!(
                            "variable `{name}` may be undefined here (it is not assigned on \
                             every path)"
                        ),
                    );
                    *ty
                }
                Some((Defined::Definitely, ty)) => *ty,
            },
            Expr::Unary(_, e) => {
                let ty = self.check_expr_inner(e, env, path_sites, loop_depth);
                if ty == AbsType::Array {
                    self.error("PPL004", "unary operator applied to an array".to_string());
                }
                AbsType::Number
            }
            Expr::Binary(op, a, b) => {
                let ta = self.check_expr_inner(a, env, path_sites, loop_depth);
                let tb = self.check_expr_inner(b, env, path_sites, loop_depth);
                use crate::ast::BinOp::*;
                // `==`/`!=` compare arrays fine; everything else needs
                // numbers.
                if !matches!(op, Eq | Ne) && (ta == AbsType::Array || tb == AbsType::Array) {
                    self.error(
                        "PPL004",
                        format!("binary operator `{op:?}` applied to an array operand"),
                    );
                }
                AbsType::Number
            }
            Expr::Index(arr, idx) => {
                let ta = self.check_expr_inner(arr, env, path_sites, loop_depth);
                if ta == AbsType::Number {
                    self.error("PPL004", "indexing into a number".to_string());
                }
                let ti = self.check_expr_inner(idx, env, path_sites, loop_depth);
                if ti == AbsType::Array {
                    self.error("PPL004", "array used as an index".to_string());
                }
                AbsType::Unknown
            }
            Expr::ArrayInit(n, init) => {
                let tn = self.check_expr_inner(n, env, path_sites, loop_depth);
                if tn == AbsType::Array {
                    self.error("PPL004", "array length is an array".to_string());
                }
                self.check_expr_inner(init, env, path_sites, loop_depth);
                AbsType::Array
            }
            Expr::Call(builtin, args) => {
                for a in args {
                    self.check_expr_inner(a, env, path_sites, loop_depth);
                }
                match builtin {
                    crate::ast::Builtin::Len => AbsType::Number,
                    _ => AbsType::Number,
                }
            }
            Expr::Ternary(c, t, e) => {
                let tc = self.check_expr_inner(c, env, path_sites, loop_depth);
                if tc == AbsType::Array {
                    self.error("PPL004", "ternary condition is an array".to_string());
                }
                let tt = self.check_expr_inner(t, env, path_sites, loop_depth);
                let te = self.check_expr_inner(e, env, path_sites, loop_depth);
                tt.join(te)
            }
            Expr::Random(rand) => {
                self.check_rand(rand, env, path_sites, loop_depth);
                AbsType::Number
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::parser::parse_with_spans;

    fn errors(src: &str) -> Vec<String> {
        check(&parse(src).unwrap())
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message)
            .collect()
    }

    fn warnings(src: &str) -> Vec<String> {
        check(&parse(src).unwrap())
            .into_iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| d.message)
            .collect()
    }

    fn codes(src: &str) -> Vec<&'static str> {
        check(&parse(src).unwrap())
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_programs_have_no_diagnostics() {
        for src in [
            "x = flip(0.5); return x;",
            "a = 1; b = a + 2; if a < b { c = 1; } else { c = 2; } return c;",
            "xs = array(3, 0); for i in [0..3) { xs[i] = gauss(0.0, 1.0); } return xs;",
            "observe(flip(0.5) == 1);",
        ] {
            let diagnostics = check(&parse(src).unwrap());
            assert!(diagnostics.is_empty(), "{src}: {diagnostics:?}");
        }
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let errs = errors("x = ghost + 1; return x;");
        assert!(errs.iter().any(|m| m.contains("`ghost`")), "{errs:?}");
        assert!(codes("x = ghost + 1; return x;").contains(&"PPL001"));
    }

    #[test]
    fn branch_only_definition_is_a_warning() {
        let warns = warnings("a = flip(0.5); if a { y = 1; } x = y + 1; return x;");
        assert!(warns.iter().any(|m| m.contains("`y`")), "{warns:?}");
        // Defined in both branches: clean.
        assert!(
            warnings("a = flip(0.5); if a { y = 1; } else { y = 2; } x = y + 1; return x;")
                .is_empty()
        );
    }

    #[test]
    fn loop_body_definition_is_maybe() {
        let warns = warnings("for i in [0..3) { y = i; } x = y; return x;");
        assert!(warns.iter().any(|m| m.contains("`y`")), "{warns:?}");
    }

    #[test]
    fn duplicate_site_on_one_path_is_an_error() {
        let errs = errors("x = flip(0.5) @ s; y = flip(0.5) @ s; return x;");
        assert!(errs.iter().any(|m| m.contains("`s`")), "{errs:?}");
        // Different branches: fine.
        assert!(errors(
            "a = flip(0.5); if a { x = flip(0.5) @ s; } else { x = flip(0.3) @ s; } return x;"
        )
        .is_empty());
        // Inside a loop: loop indices disambiguate — fine.
        assert!(errors("for i in [0..3) { x = flip(0.5) @ s; } return 0;").is_empty());
    }

    #[test]
    fn array_type_errors() {
        let errs = errors("a = array(3, 0); x = a + 1; return x;");
        assert!(errs.iter().any(|m| m.contains("array operand")), "{errs:?}");
        let errs = errors("n = 3; x = n[0]; return x;");
        assert!(
            errs.iter().any(|m| m.contains("indexing into a number")),
            "{errs:?}"
        );
        let errs = errors("a = array(2, 0); x = flip(a); return x;");
        assert!(errs.iter().any(|m| m.contains("parameter")), "{errs:?}");
        let errs = errors("n = 1; n[0] = 2; return n;");
        assert!(
            errs.iter().any(|m| m.contains("indexed like an array")),
            "{errs:?}"
        );
    }

    #[test]
    fn element_assignment_before_definition() {
        let errs = errors("xs[0] = 1; return 0;");
        assert!(
            errs.iter()
                .any(|m| m.contains("before the array is defined")),
            "{errs:?}"
        );
    }

    #[test]
    fn is_clean_matches_error_presence() {
        assert!(is_clean(&parse("x = 1; return x;").unwrap()));
        assert!(!is_clean(&parse("x = ghost; return x;").unwrap()));
    }

    #[test]
    fn evaluation_programs_are_clean() {
        assert!(check(&models_src_burglary()).is_empty());
        fn models_src_burglary() -> crate::ast::Program {
            parse(
                "burglary = flip(0.02) @ alpha;
                 pAlarm = burglary ? 0.9 : 0.01;
                 alarm = flip(pAlarm) @ beta;
                 if alarm { pMaryWakes = 0.8; } else { pMaryWakes = 0.05; }
                 observe(flip(pMaryWakes) == 1) @ o;
                 return burglary;",
            )
            .unwrap()
        }
    }

    #[test]
    fn while_loops_check() {
        let warns = warnings("n = 0; while n < 3 { n = n + 1; m = n; } x = m; return x;");
        assert!(warns.iter().any(|m| m.contains("`m`")), "{warns:?}");
        let errs = errors("while ghost { skip; }");
        assert!(errs.iter().any(|m| m.contains("`ghost`")), "{errs:?}");
    }

    #[test]
    fn unused_variable_is_ppl010() {
        let src = "x = flip(0.5); dead = 7; return x;";
        assert!(
            codes(src).contains(&"PPL010"),
            "{:?}",
            check(&parse(src).unwrap())
        );
        // Loop variables are exempt.
        assert!(
            !codes("for i in [0..3) { x = flip(0.5); observe(flip(0.5) == x); } return 0;")
                .contains(&"PPL010")
        );
    }

    #[test]
    fn unreachable_branches_are_ppl011() {
        let src = "if 1 < 2 { x = 1; } else { x = 2; } return x;";
        assert!(codes(src).contains(&"PPL011"));
        let src = "if false { x = 1; } else { x = 2; } return x;";
        assert!(codes(src).contains(&"PPL011"));
        let src = "while false { skip; } return 0;";
        assert!(codes(src).contains(&"PPL011"));
        // An always-true condition with an *empty* else is fine.
        assert!(!codes("x = 0; if true { x = 1; } return x;").contains(&"PPL011"));
    }

    #[test]
    fn deterministic_observes_are_flagged() {
        // Probability 0: error.
        let src = "observe(flip(0.0) == 1);";
        let d = check(&parse(src).unwrap());
        assert!(
            d.iter()
                .any(|x| x.code == "PPL013" && x.severity == Severity::Error),
            "{d:?}"
        );
        let src = "observe(uniform(0, 3) == 7);";
        assert!(codes(src).contains(&"PPL013"));
        // Probability 1: warning.
        let src = "observe(flip(1.0) == 1);";
        let d = check(&parse(src).unwrap());
        assert!(
            d.iter()
                .any(|x| x.code == "PPL012" && x.severity == Severity::Warning),
            "{d:?}"
        );
        // Non-constant parameters or values are never flagged.
        assert!(
            !codes("p = flip(0.5); observe(flip(p ? 0.0 : 1.0) == 1); return p;")
                .iter()
                .any(|c| *c == "PPL012" || *c == "PPL013")
        );
    }

    #[test]
    fn spans_point_at_the_offending_statement() {
        let (p, spans) =
            parse_with_spans("x = 1;\ny = ghost;\nif false { z = 2; }\nreturn x;").unwrap();
        let diags = check_with_spans(&p, Some(&spans));
        let ghost = diags.iter().find(|d| d.code == "PPL001").unwrap();
        assert_eq!(ghost.span.unwrap().line, 2);
        let dead = diags.iter().find(|d| d.code == "PPL011").unwrap();
        assert_eq!(dead.span.unwrap().line, 3);
        let rendered = ghost.to_string();
        assert!(rendered.starts_with("2:1: error[PPL001]"), "{rendered}");
    }

    #[test]
    fn spanless_check_still_renders_codes() {
        let d = &check(&parse("x = ghost; return x;").unwrap())[0];
        assert_eq!(d.to_string(), format!("error[PPL001]: {}", d.message));
    }
}
