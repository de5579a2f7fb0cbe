//! Pretty-printer: renders ASTs back to parsable surface syntax.

use std::fmt;

use crate::ast::{BinOp, Block, Expr, Program, RandExpr, RandKind, Stmt, UnOp};

fn bin_op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn write_rand(f: &mut fmt::Formatter<'_>, r: &RandExpr) -> fmt::Result {
    match &r.kind {
        RandKind::Flip(p) => write!(f, "flip({p})")?,
        RandKind::UniformInt(lo, hi) => write!(f, "uniform({lo}, {hi})")?,
        RandKind::UniformReal(lo, hi) => write!(f, "uniformReal({lo}, {hi})")?,
        RandKind::Gauss(m, s) => write!(f, "gauss({m}, {s})")?,
        RandKind::Poisson(l) => write!(f, "poisson({l})")?,
        RandKind::GeometricDist(p) => write!(f, "geometric({p})")?,
        RandKind::Beta(a, b) => write!(f, "beta({a}, {b})")?,
        RandKind::Exponential(r) => write!(f, "exponential({r})")?,
        RandKind::Categorical(ws) => {
            write!(f, "categorical(")?;
            for (i, w) in ws.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{w}")?;
            }
            write!(f, ")")?;
        }
    }
    write!(f, " @ \"{}\"", r.site)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(!{e})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", bin_op_str(*op)),
            Expr::Index(a, i) => write!(f, "{a}[{i}]"),
            Expr::ArrayInit(n, init) => write!(f, "array({n}, {init})"),
            Expr::Call(b, args) => {
                write!(f, "{}(", b.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Ternary(c, t, e) => write!(f, "({c} ? {t} : {e})"),
            Expr::Random(r) => write_rand(f, r),
        }
    }
}

fn write_block(f: &mut fmt::Formatter<'_>, block: &Block, indent: usize) -> fmt::Result {
    writeln!(f, "{{")?;
    for stmt in block.stmts() {
        write_stmt(f, stmt, indent + 1)?;
    }
    write!(f, "{}}}", "  ".repeat(indent))
}

fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match stmt {
        Stmt::Skip => writeln!(f, "{pad}skip;"),
        Stmt::Assign(x, e) => writeln!(f, "{pad}{x} = {e};"),
        Stmt::AssignIndex(x, i, e) => writeln!(f, "{pad}{x}[{i}] = {e};"),
        Stmt::If(c, t, e) => {
            write!(f, "{pad}if {c} ")?;
            write_block(f, t, indent)?;
            if !e.stmts().is_empty() {
                write!(f, " else ")?;
                write_block(f, e, indent)?;
            }
            writeln!(f)
        }
        Stmt::While(c, b) => {
            write!(f, "{pad}while {c} ")?;
            write_block(f, b, indent)?;
            writeln!(f)
        }
        Stmt::For(x, lo, hi, b) => {
            write!(f, "{pad}for {x} in [{lo}..{hi}) ")?;
            write_block(f, b, indent)?;
            writeln!(f)
        }
        Stmt::Observe(r, e) => {
            write!(f, "{pad}observe(")?;
            write_rand(f, r)?;
            writeln!(f, " == {e});")
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stmt in self.body().stmts() {
            write_stmt(f, stmt, 0)?;
        }
        if let Some(ret) = self.ret() {
            writeln!(f, "return {ret};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    /// Parsing the pretty-printed text yields the same AST (after one
    /// round, printing is a fixed point because site labels become
    /// explicit).
    #[test]
    fn round_trip_is_identity_on_ast() {
        let sources = [
            "x = flip(0.5) @ a; return x;",
            "if flip(0.1) @ c { y = 1; } else { y = 2; } return y;",
            "n = 0; while n < 3 { n = n + 1; } return n;",
            "a = array(3, 0); for i in [0..3) { a[i] = gauss(0, 1) @ g; } return a;",
            "observe(flip(0.3) @ o == 1);",
            "x = 1 < 2 ? sqrt(4.0) : 0; return -x;",
            "x = uniformReal(0.0, 2.0) @ u; observe(categorical(0.5, 0.5) @ k == 1);",
        ];
        for src in sources {
            let p1 = parse(src).unwrap();
            let printed = p1.to_string();
            let p2 = parse(&printed).unwrap();
            assert_eq!(p1, p2, "round-trip failed for `{src}`:\n{printed}");
            // And printing is idempotent.
            assert_eq!(printed, p2.to_string());
        }
    }

    #[test]
    fn printed_burglary_mentions_sites() {
        let src = "burglary = flip(0.02) @ alpha; return burglary;";
        let printed = parse(src).unwrap().to_string();
        assert!(printed.contains("@ \"alpha\""), "{printed}");
    }
}
