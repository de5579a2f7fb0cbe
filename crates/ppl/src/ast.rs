//! Abstract syntax of the probabilistic surface language.
//!
//! The grammar extends Section 3 of the paper:
//!
//! ```text
//! E ::= v | x | ⊖E | E1 ⊕ E2 | E1[E2] | array(E1, E2) | f(E...) | R
//! R ::= flip(E) | uniform(E1, E2) | uniformReal(E1, E2)
//!     | gauss(E1, E2) | categorical(E...)
//! P ::= skip | x = E | x[E1] = E2 | P1; P2 | observe(R == E)
//!     | if E {P1} else {P2} | while E {P} | for x in [E1..E2) {P}
//! ```
//!
//! Extensions (arrays, bounded `for`, `gauss`, builtins) support the
//! evaluation programs of Section 7, in particular the PSI Gaussian mixture
//! model of Listing 5. Random expressions carry a *site* label used to
//! address their choices; loop iterations extend the address with their
//! indices (Section 5.4).

use std::fmt;
use std::hash::Hasher as _;
use std::sync::{Arc, OnceLock};

use crate::compile::{compile, note_compile_lookup, CompiledProgram};
use crate::fxhash::FxHasher;
use crate::value::Value;

/// A variable identifier.
pub type Ident = String;

/// A stable label for a random expression or observation site.
///
/// Sites seed the addresses of random choices: the choice made by the site
/// `s` inside loops at iterations `i, j` has address `s/i/j`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub Arc<str>);

impl SiteId {
    /// Creates a site label.
    pub fn new(label: &str) -> SiteId {
        SiteId(Arc::from(label))
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for SiteId {
    fn from(s: &str) -> Self {
        SiteId::new(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical negation `!e`.
    Not,
}

/// Binary operators. `&&`/`||` evaluate both operands (strict), matching
/// the paper's `E1 ⊕ E2` rule which evaluates sub-expressions first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (numeric equality across bool/int/real)
    Eq,
    /// `!=`
    Ne,
    /// `&&` (strict)
    And,
    /// `||` (strict)
    Or,
}

/// Builtin pure functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Absolute value.
    Abs,
    /// Binary minimum.
    Min,
    /// Binary maximum.
    Max,
    /// Floor to integer.
    Floor,
    /// Array or string length.
    Len,
}

impl Builtin {
    /// The surface name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Sqrt => "sqrt",
            Builtin::Exp => "exp",
            Builtin::Ln => "ln",
            Builtin::Abs => "abs",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Floor => "floor",
            Builtin::Len => "len",
        }
    }

    /// Resolves a surface name, if it is a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "sqrt" => Builtin::Sqrt,
            "exp" => Builtin::Exp,
            "ln" => Builtin::Ln,
            "abs" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "floor" => Builtin::Floor,
            "len" => Builtin::Len,
            _ => return None,
        })
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Min | Builtin::Max => 2,
            _ => 1,
        }
    }
}

/// The kind of a random expression (its distribution family with parameter
/// expressions).
#[derive(Debug, Clone, PartialEq)]
pub enum RandKind {
    /// `flip(p)`
    Flip(Box<Expr>),
    /// `uniform(lo, hi)` over integers (inclusive).
    UniformInt(Box<Expr>, Box<Expr>),
    /// `uniformReal(lo, hi)` over reals.
    UniformReal(Box<Expr>, Box<Expr>),
    /// `gauss(mean, std)`
    Gauss(Box<Expr>, Box<Expr>),
    /// `categorical(w0, w1, ...)` over `0..k`.
    Categorical(Vec<Expr>),
    /// `poisson(lambda)`
    Poisson(Box<Expr>),
    /// `geometric(p)` — successes before the first failure.
    GeometricDist(Box<Expr>),
    /// `beta(alpha, beta)`
    Beta(Box<Expr>, Box<Expr>),
    /// `exponential(rate)`
    Exponential(Box<Expr>),
}

impl RandKind {
    /// The surface keyword of this family.
    pub fn family(&self) -> &'static str {
        match self {
            RandKind::Flip(_) => "flip",
            RandKind::UniformInt(..) => "uniform",
            RandKind::UniformReal(..) => "uniformReal",
            RandKind::Gauss(..) => "gauss",
            RandKind::Categorical(_) => "categorical",
            RandKind::Poisson(_) => "poisson",
            RandKind::GeometricDist(_) => "geometric",
            RandKind::Beta(..) => "beta",
            RandKind::Exponential(_) => "exponential",
        }
    }
}

/// A random expression: a site label plus a distribution family.
#[derive(Debug, Clone, PartialEq)]
pub struct RandExpr {
    /// The site label used for addressing.
    pub site: SiteId,
    /// Distribution family and parameters.
    pub kind: RandKind,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(Value),
    /// A variable reference.
    Var(Ident),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Array indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Array construction `array(n, init)`.
    ArrayInit(Box<Expr>, Box<Expr>),
    /// A builtin function call.
    Call(Builtin, Vec<Expr>),
    /// Ternary conditional `c ? t : e` — only the taken branch is
    /// evaluated.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A random expression.
    Random(RandExpr),
}

#[allow(clippy::should_implement_trait)] // `add`/`sub`/`mul`/`div` are AST builders, not arithmetic
impl Expr {
    /// Integer constant.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// Real constant.
    pub fn real(r: f64) -> Expr {
        Expr::Const(Value::Real(r))
    }

    /// Boolean constant.
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// Variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// `flip(p)` with an explicit site label.
    pub fn flip(site: &str, p: Expr) -> Expr {
        Expr::Random(RandExpr {
            site: SiteId::new(site),
            kind: RandKind::Flip(Box::new(p)),
        })
    }

    /// Integer `uniform(lo, hi)` with an explicit site label.
    pub fn uniform(site: &str, lo: Expr, hi: Expr) -> Expr {
        Expr::Random(RandExpr {
            site: SiteId::new(site),
            kind: RandKind::UniformInt(Box::new(lo), Box::new(hi)),
        })
    }

    /// `gauss(mean, std)` with an explicit site label.
    pub fn gauss(site: &str, mean: Expr, std: Expr) -> Expr {
        Expr::Random(RandExpr {
            site: SiteId::new(site),
            kind: RandKind::Gauss(Box::new(mean), Box::new(std)),
        })
    }

    /// Binary operation helper.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }

    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }

    /// `self / rhs`
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }

    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, rhs)
    }

    /// `self == rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, rhs)
    }

    /// `self[idx]`
    pub fn index(self, idx: Expr) -> Expr {
        Expr::Index(Box::new(self), Box::new(idx))
    }

    /// `self ? t : e`
    pub fn ternary(self, t: Expr, e: Expr) -> Expr {
        Expr::Ternary(Box::new(self), Box::new(t), Box::new(e))
    }

    /// Collects the sites of all random expressions in this expression, in
    /// evaluation order.
    pub fn collect_sites(&self, out: &mut Vec<SiteId>) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Unary(_, e) => e.collect_sites(out),
            Expr::Binary(_, a, b) => {
                a.collect_sites(out);
                b.collect_sites(out);
            }
            Expr::Index(a, b) | Expr::ArrayInit(a, b) => {
                a.collect_sites(out);
                b.collect_sites(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_sites(out);
                }
            }
            Expr::Ternary(c, t, e) => {
                c.collect_sites(out);
                t.collect_sites(out);
                e.collect_sites(out);
            }
            Expr::Random(r) => {
                r.kind.collect_sites(out);
                out.push(r.site.clone());
            }
        }
    }
}

impl RandKind {
    /// Collects the sites of all random expressions in the distribution's
    /// parameters, in evaluation order.
    fn collect_sites(&self, out: &mut Vec<SiteId>) {
        match self {
            RandKind::Flip(p)
            | RandKind::Poisson(p)
            | RandKind::GeometricDist(p)
            | RandKind::Exponential(p) => p.collect_sites(out),
            RandKind::UniformInt(a, b)
            | RandKind::UniformReal(a, b)
            | RandKind::Gauss(a, b)
            | RandKind::Beta(a, b) => {
                a.collect_sites(out);
                b.collect_sites(out);
            }
            RandKind::Categorical(ws) => {
                for w in ws {
                    w.collect_sites(out);
                }
            }
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `skip`
    Skip,
    /// `x = e`
    Assign(Ident, Expr),
    /// `x[i] = e`
    AssignIndex(Ident, Expr, Expr),
    /// `if cond { then } else { els }`
    If(Expr, Block, Block),
    /// `while cond { body }`
    While(Expr, Block),
    /// `for x in [lo..hi) { body }` — `hi` exclusive.
    For(Ident, Expr, Expr, Block),
    /// `observe(R == e)`
    Observe(RandExpr, Expr),
}

impl Stmt {
    /// Collects the sites of all random expressions and observations in
    /// this statement, nested blocks included, in evaluation order: an
    /// observation lists its distribution's parameters, then its observed
    /// value, then its own site. Both branches of an `if` are listed, then
    /// branch first.
    pub fn collect_sites(&self, out: &mut Vec<SiteId>) {
        let block = |b: &Block, out: &mut Vec<SiteId>| {
            for s in &b.0 {
                s.collect_sites(out);
            }
        };
        match self {
            Stmt::Skip => {}
            Stmt::Assign(_, e) => e.collect_sites(out),
            Stmt::AssignIndex(_, i, e) => {
                i.collect_sites(out);
                e.collect_sites(out);
            }
            Stmt::If(c, t, e) => {
                c.collect_sites(out);
                block(t, out);
                block(e, out);
            }
            Stmt::While(c, b) => {
                c.collect_sites(out);
                block(b, out);
            }
            Stmt::For(_, lo, hi, b) => {
                lo.collect_sites(out);
                hi.collect_sites(out);
                block(b, out);
            }
            Stmt::Observe(r, e) => {
                r.kind.collect_sites(out);
                e.collect_sites(out);
                out.push(r.site.clone());
            }
        }
    }
}

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    /// Creates a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Block {
        Block(stmts)
    }

    /// An empty block.
    pub fn empty() -> Block {
        Block(Vec::new())
    }

    /// The statements.
    pub fn stmts(&self) -> &[Stmt] {
        &self.0
    }
}

/// A complete program: a body and an optional return expression.
///
/// A program cannot change once built, so it keeps what is derived from
/// it: its compiled form ([`Program::compiled`]) and its fingerprint
/// ([`Program::fingerprint`]), each computed on first use. A clone shares
/// the ones already computed; an equal but separately built program
/// computes its own.
#[derive(Clone, Default)]
pub struct Program {
    body: Block,
    ret: Option<Expr>,
    compiled: OnceLock<Arc<CompiledProgram>>,
    fingerprint: OnceLock<u64>,
}

impl Program {
    /// Creates a program.
    pub fn new(body: Block, ret: Option<Expr>) -> Program {
        Program {
            body,
            ret,
            compiled: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The statement body.
    pub fn body(&self) -> &Block {
        &self.body
    }

    /// The `return e;` expression, if present.
    pub fn ret(&self) -> Option<&Expr> {
        self.ret.as_ref()
    }

    /// The compiled form of this program, lowered on the first call and
    /// shared by `Arc` with every later call and with clones made after
    /// it.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        let mut lowered = false;
        let compiled = self.compiled.get_or_init(|| {
            lowered = true;
            Arc::new(compile(self))
        });
        note_compile_lookup(lowered);
        compiled
    }

    /// A structural fingerprint: the FxHash of the program's `Debug`
    /// text, computed on the first call. Checkpoints store it, so the
    /// `Debug` output must not change.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut hasher = FxHasher::default();
            hasher.write(format!("{self:?}").as_bytes());
            hasher.finish()
        })
    }

    /// Collects the sites of all random expressions and observations,
    /// those nested in an observation's distribution included, in the
    /// order of [`Stmt::collect_sites`], then the return expression's.
    pub fn sites(&self) -> Vec<SiteId> {
        let mut out = Vec::new();
        for stmt in &self.body.0 {
            stmt.collect_sites(&mut out);
        }
        if let Some(e) = &self.ret {
            e.collect_sites(&mut out);
        }
        out
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("body", &self.body)
            .field("ret", &self.ret)
            .finish()
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.body == other.body && self.ret == other.ret
    }
}

/// Calls `f` with every variable name `expr` mentions (reads only —
/// expressions cannot bind), in evaluation order. Names may repeat.
pub fn for_each_expr_var_name<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a str)) {
    match expr {
        Expr::Const(_) => {}
        Expr::Var(name) => f(name),
        Expr::Unary(_, e) => for_each_expr_var_name(e, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) | Expr::ArrayInit(a, b) => {
            for_each_expr_var_name(a, f);
            for_each_expr_var_name(b, f);
        }
        Expr::Call(_, args) => {
            for a in args {
                for_each_expr_var_name(a, f);
            }
        }
        Expr::Ternary(c, t, e) => {
            for_each_expr_var_name(c, f);
            for_each_expr_var_name(t, f);
            for_each_expr_var_name(e, f);
        }
        Expr::Random(r) => for_each_rand_var_name(&r.kind, f),
    }
}

fn for_each_rand_var_name<'a>(kind: &'a RandKind, f: &mut impl FnMut(&'a str)) {
    match kind {
        RandKind::Flip(p)
        | RandKind::Poisson(p)
        | RandKind::GeometricDist(p)
        | RandKind::Exponential(p) => for_each_expr_var_name(p, f),
        RandKind::UniformInt(a, b)
        | RandKind::UniformReal(a, b)
        | RandKind::Gauss(a, b)
        | RandKind::Beta(a, b) => {
            for_each_expr_var_name(a, f);
            for_each_expr_var_name(b, f);
        }
        RandKind::Categorical(ws) => {
            for w in ws {
                for_each_expr_var_name(w, f);
            }
        }
    }
}

/// Calls `f` with every variable name `program` mentions — assignment
/// targets, loop variables, and reads — in syntactic order, which is the
/// order the compile pass ([`crate::compile`]) numbers frame slots in.
/// Names may repeat.
pub fn for_each_var_name<'a>(program: &'a Program, f: &mut impl FnMut(&'a str)) {
    fn walk_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a str)) {
        for stmt in &block.0 {
            match stmt {
                Stmt::Skip => {}
                Stmt::Assign(name, e) => {
                    f(name);
                    for_each_expr_var_name(e, f);
                }
                Stmt::AssignIndex(name, i, e) => {
                    f(name);
                    for_each_expr_var_name(i, f);
                    for_each_expr_var_name(e, f);
                }
                Stmt::If(c, t, e) => {
                    for_each_expr_var_name(c, f);
                    walk_block(t, f);
                    walk_block(e, f);
                }
                Stmt::While(c, b) => {
                    for_each_expr_var_name(c, f);
                    walk_block(b, f);
                }
                Stmt::For(var, lo, hi, b) => {
                    f(var);
                    for_each_expr_var_name(lo, f);
                    for_each_expr_var_name(hi, f);
                    walk_block(b, f);
                }
                Stmt::Observe(r, e) => {
                    for_each_rand_var_name(&r.kind, f);
                    for_each_expr_var_name(e, f);
                }
            }
        }
    }
    walk_block(&program.body, f);
    if let Some(e) = &program.ret {
        for_each_expr_var_name(e, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = Expr::var("x").add(Expr::int(1)).mul(Expr::real(2.0));
        match &e {
            Expr::Binary(BinOp::Mul, lhs, _) => {
                assert!(matches!(**lhs, Expr::Binary(BinOp::Add, _, _)));
            }
            _ => panic!("unexpected shape"),
        }
    }

    #[test]
    fn sites_collected_in_order() {
        let p = Program::new(
            Block::new(vec![
                Stmt::Assign("a".into(), Expr::flip("alpha", Expr::real(0.5))),
                Stmt::If(
                    Expr::var("a"),
                    Block::new(vec![Stmt::Assign(
                        "b".into(),
                        Expr::uniform("beta", Expr::int(0), Expr::int(5)),
                    )]),
                    Block::empty(),
                ),
                Stmt::Observe(
                    RandExpr {
                        site: SiteId::new("o"),
                        kind: RandKind::Flip(Box::new(Expr::real(0.8))),
                    },
                    Expr::int(1),
                ),
            ]),
            Some(Expr::var("a")),
        );
        let sites: Vec<String> = p.sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(sites, ["alpha", "beta", "o"]);
    }

    #[test]
    fn sites_nested_in_an_observation_are_collected() {
        let p =
            crate::parse("observe(flip(flip(0.5) @ a ? 0.9 : 0.1) @ o == 1); return 0;").unwrap();
        let sites: Vec<String> = p.sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(sites, ["a", "o"]);
        // Parameters, then the observed value, then the observation.
        let p =
            crate::parse("observe(gauss(flip(0.5) @ m, 1) @ o == uniform(0, 3) @ v); return 0;")
                .unwrap();
        let sites: Vec<String> = p.sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(sites, ["m", "v", "o"]);
    }

    #[test]
    fn nested_random_sites_inner_first() {
        // gauss(centers[uniformInt(...)], 1): the inner uniform evaluates
        // before the outer gauss.
        let inner = Expr::uniform("pick", Expr::int(0), Expr::int(9));
        let outer = Expr::gauss("point", Expr::var("c").index(inner), Expr::real(1.0));
        let mut sites = Vec::new();
        outer.collect_sites(&mut sites);
        let names: Vec<&str> = sites.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["pick", "point"]);
    }

    #[test]
    fn builtin_name_round_trip() {
        for b in [
            Builtin::Sqrt,
            Builtin::Exp,
            Builtin::Ln,
            Builtin::Abs,
            Builtin::Min,
            Builtin::Max,
            Builtin::Floor,
            Builtin::Len,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("nope"), None);
    }
}
