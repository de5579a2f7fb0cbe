//! Parser for the surface language.
//!
//! The concrete syntax mirrors the paper's programs:
//!
//! ```text
//! burglary = flip(0.02) @ alpha;
//! pAlarm = burglary ? 0.9 : 0.01;
//! alarm = flip(pAlarm) @ beta;
//! if alarm { pMaryWakes = 0.8; } else { pMaryWakes = 0.05; }
//! observe(flip(pMaryWakes) == 1) @ o;
//! return burglary;
//! ```
//!
//! Random expressions may carry a site annotation `@ label`; unannotated
//! sites get deterministic labels `family#k` in parse order.

pub mod lexer;

use std::collections::HashMap;
use std::fmt;

use crate::ast::{BinOp, Block, Builtin, Expr, Program, RandExpr, RandKind, SiteId, Stmt, UnOp};
use crate::error::PplError;
use crate::value::Value;

use lexer::{lex, Tok, Token};

/// The deepest nesting the parser accepts. Parsing, checking, lowering,
/// evaluation and dropping a program all recurse once per level, so
/// deeper input would overflow the stack; it is rejected with
/// [`PplError::NestingTooDeep`] instead. A statement, a (parenthesized or
/// argument) expression, a prefix operator, an index, and each operator
/// of a left-associative chain count as one level each. The value keeps
/// a program nested exactly this deep within a 2 MiB thread stack in an
/// unoptimized build, where every level costs the most stack.
pub const MAX_NESTING: usize = 128;

/// A 1-based source position (line and column) of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Source spans for a parsed program, kept out of the AST so structural
/// equality of [`Program`]s ignores formatting.
///
/// `stmts` holds one span per statement in *pre-order* (the order
/// statements are entered during parsing: a statement before the
/// statements of its sub-blocks). The same pre-order indexing is used by
/// [`crate::check::check_with_spans`] and [`crate::analysis`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTable {
    /// Per-statement spans, indexed by statement pre-order.
    pub stmts: Vec<Span>,
    /// Position of the `return` expression, if present.
    pub ret: Option<Span>,
}

/// Parses a complete program.
///
/// # Errors
///
/// Returns [`PplError::Other`] with line/column information on syntax
/// errors.
///
/// # Examples
///
/// ```
/// let program = ppl::parse("x = flip(0.5) @ x; return x;")?;
/// assert_eq!(program.sites().len(), 1);
/// # Ok::<(), ppl::PplError>(())
/// ```
pub fn parse(source: &str) -> Result<Program, PplError> {
    parse_with_spans(source).map(|(program, _)| program)
}

/// Parses a complete program together with its statement [`SpanTable`].
///
/// # Errors
///
/// Returns [`PplError::Other`] with line/column information on syntax
/// errors.
///
/// # Examples
///
/// ```
/// let (program, spans) = ppl::parser::parse_with_spans("x = flip(0.5);\ny = x;\nreturn y;")?;
/// assert_eq!(spans.stmts.len(), 2);
/// assert_eq!(spans.stmts[1].line, 2);
/// # Ok::<(), ppl::PplError>(())
/// ```
pub fn parse_with_spans(source: &str) -> Result<(Program, SpanTable), PplError> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        site_counters: HashMap::new(),
        spans: SpanTable::default(),
        depth: 0,
    };
    let program = parser.program()?;
    parser.expect(&Tok::Eof)?;
    Ok((program, parser.spans))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    site_counters: HashMap<&'static str, usize>,
    spans: SpanTable,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn advance(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: &str) -> PplError {
        let t = &self.tokens[self.pos];
        PplError::Other(format!(
            "parse error at line {}, column {}: {msg} (found `{}`)",
            t.line, t.col, t.tok
        ))
    }

    /// Enters one nesting level, failing past [`MAX_NESTING`]. Callers
    /// restore `depth` when the nested construct is done.
    fn descend(&mut self) -> Result<(), PplError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            let t = &self.tokens[self.pos];
            return Err(PplError::NestingTooDeep {
                line: t.line,
                col: t.col,
                limit: MAX_NESTING,
            });
        }
        Ok(())
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), PplError> {
        if self.peek() == tok {
            self.advance();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{tok}`")))
        }
    }

    fn eat_ident(&mut self) -> Result<String, PplError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.advance();
                Ok(name)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    fn is_keyword(name: &str) -> bool {
        matches!(
            name,
            "skip"
                | "observe"
                | "if"
                | "else"
                | "while"
                | "for"
                | "in"
                | "return"
                | "true"
                | "false"
                | "array"
        )
    }

    fn fresh_site(&mut self, family: &'static str) -> SiteId {
        let n = self.site_counters.entry(family).or_insert(0);
        *n += 1;
        SiteId::new(&format!("{family}#{n}"))
    }

    fn site_annotation(&mut self, family: &'static str) -> Result<SiteId, PplError> {
        if self.peek() == &Tok::At {
            self.advance();
            match self.peek().clone() {
                Tok::Ident(label) => {
                    self.advance();
                    Ok(SiteId::new(&label))
                }
                Tok::Str(label) => {
                    self.advance();
                    Ok(SiteId::new(&label))
                }
                _ => Err(self.error("expected site label after `@`")),
            }
        } else {
            Ok(self.fresh_site(family))
        }
    }

    fn program(&mut self) -> Result<Program, PplError> {
        let mut stmts = Vec::new();
        let mut ret = None;
        while self.peek() != &Tok::Eof {
            if self.peek() == &Tok::Ident("return".into()) {
                self.spans.ret = Some(self.here());
                self.advance();
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                ret = Some(e);
                break;
            }
            stmts.push(self.stmt()?);
        }
        Ok(Program::new(Block::new(stmts), ret))
    }

    fn block(&mut self) -> Result<Block, PplError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace && self.peek() != &Tok::Eof {
            stmts.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Block::new(stmts))
    }

    fn here(&self) -> Span {
        let t = &self.tokens[self.pos];
        Span {
            line: t.line,
            col: t.col,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, PplError> {
        self.descend()?;
        let stmt = self.stmt_body()?;
        self.depth -= 1;
        Ok(stmt)
    }

    fn stmt_body(&mut self) -> Result<Stmt, PplError> {
        // Statements are recorded in pre-order: a statement's span lands
        // before the spans of the statements inside its sub-blocks.
        self.spans.stmts.push(self.here());
        match self.peek().clone() {
            Tok::Ident(name) if name == "skip" => {
                self.advance();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Skip)
            }
            Tok::Ident(name) if name == "observe" => {
                self.advance();
                self.expect(&Tok::LParen)?;
                let rand = self.rand_expr_required()?;
                self.expect(&Tok::EqEq)?;
                let value = self.expr()?;
                self.expect(&Tok::RParen)?;
                // Optional site annotation overrides the one parsed inside.
                let rand = if self.peek() == &Tok::At {
                    let site = self.site_annotation("observe")?;
                    RandExpr { site, ..rand }
                } else {
                    rand
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Observe(rand, value))
            }
            Tok::Ident(name) if name == "if" => {
                self.advance();
                let cond = self.expr()?;
                let then_b = self.block()?;
                let else_b = if self.peek() == &Tok::Ident("else".into()) {
                    self.advance();
                    if self.peek() == &Tok::Ident("if".into()) {
                        // else-if chains desugar into a nested block.
                        Block::new(vec![self.stmt()?])
                    } else {
                        self.block()?
                    }
                } else {
                    Block::empty()
                };
                Ok(Stmt::If(cond, then_b, else_b))
            }
            Tok::Ident(name) if name == "while" => {
                self.advance();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While(cond, body))
            }
            Tok::Ident(name) if name == "for" => {
                self.advance();
                let var = self.eat_ident()?;
                match self.peek().clone() {
                    Tok::Ident(kw) if kw == "in" => {
                        self.advance();
                    }
                    _ => return Err(self.error("expected `in`")),
                }
                self.expect(&Tok::LBracket)?;
                let lo = self.expr()?;
                self.expect(&Tok::DotDot)?;
                let hi = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::For(var, lo, hi, body))
            }
            Tok::Ident(name) => {
                if Self::is_keyword(&name) {
                    return Err(self.error("unexpected keyword"));
                }
                self.advance();
                if self.peek() == &Tok::LBracket {
                    self.advance();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    self.expect(&Tok::Assign)?;
                    let value = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::AssignIndex(name, idx, value))
                } else {
                    self.expect(&Tok::Assign)?;
                    let value = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Assign(name, value))
                }
            }
            _ => Err(self.error("expected statement")),
        }
    }

    fn rand_expr_required(&mut self) -> Result<RandExpr, PplError> {
        // Parse above equality precedence so the observation's `==` is not
        // swallowed into the expression.
        let e = self.rel_expr()?;
        match e {
            Expr::Random(r) => Ok(r),
            _ => Err(self.error("observe requires a random expression on the left of `==`")),
        }
    }

    fn expr(&mut self) -> Result<Expr, PplError> {
        self.descend()?;
        let e = self.ternary()?;
        self.depth -= 1;
        Ok(e)
    }

    fn ternary(&mut self) -> Result<Expr, PplError> {
        let cond = self.or_expr()?;
        if self.peek() == &Tok::Question {
            self.advance();
            let t = self.expr()?;
            self.expect(&Tok::Colon)?;
            let e = self.expr()?;
            Ok(cond.ternary(t, e))
        } else {
            Ok(cond)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::OrOr {
            self.advance();
            self.descend()?;
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut lhs = self.eq_expr()?;
        while self.peek() == &Tok::AndAnd {
            self.advance();
            self.descend()?;
            let rhs = self.eq_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn eq_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut lhs = self.rel_expr()?;
        loop {
            let op = match self.peek() {
                Tok::EqEq => BinOp::Eq,
                Tok::NotEq => BinOp::Ne,
                _ => break,
            };
            self.advance();
            self.descend()?;
            let rhs = self.rel_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn rel_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            self.advance();
            self.descend()?;
            let rhs = self.add_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            self.descend()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            self.descend()?;
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, PplError> {
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            _ => return self.postfix_expr(),
        };
        self.advance();
        self.descend()?;
        let e = self.unary_expr()?;
        self.depth -= 1;
        Ok(Expr::Unary(op, Box::new(e)))
    }

    fn postfix_expr(&mut self) -> Result<Expr, PplError> {
        let depth = self.depth;
        let mut e = self.primary()?;
        while self.peek() == &Tok::LBracket {
            self.advance();
            self.descend()?;
            let idx = self.expr()?;
            self.expect(&Tok::RBracket)?;
            e = e.index(idx);
        }
        self.depth = depth;
        Ok(e)
    }

    fn args(&mut self) -> Result<Vec<Expr>, PplError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            args.push(self.expr()?);
            while self.peek() == &Tok::Comma {
                self.advance();
                args.push(self.expr()?);
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    fn rand_call(
        &mut self,
        family: &'static str,
        arity: Option<usize>,
    ) -> Result<(Vec<Expr>, SiteId), PplError> {
        let args = self.args()?;
        if let Some(n) = arity {
            if args.len() != n {
                return Err(self.error(&format!("{family} expects {n} argument(s)")));
            }
        }
        let site = self.site_annotation(family)?;
        Ok((args, site))
    }

    fn primary(&mut self) -> Result<Expr, PplError> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.advance();
                Ok(Expr::Const(Value::Int(i)))
            }
            Tok::Real(r) => {
                self.advance();
                Ok(Expr::Const(Value::Real(r)))
            }
            Tok::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => self.named_expr(name),
            _ => Err(self.error("expected expression")),
        }
    }

    /// A primary expression that starts with an identifier: a literal
    /// keyword, a random expression, an array, a builtin call or a
    /// variable. Kept out of [`Parser::primary`] so the frame that every
    /// parenthesized level pays stays small.
    fn named_expr(&mut self, name: String) -> Result<Expr, PplError> {
        match name.as_str() {
            "true" => {
                self.advance();
                Ok(Expr::Const(Value::Bool(true)))
            }
            "false" => {
                self.advance();
                Ok(Expr::Const(Value::Bool(false)))
            }
            "flip" => {
                self.advance();
                let (mut args, site) = self.rand_call("flip", Some(1))?;
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::Flip(Box::new(args.remove(0))),
                }))
            }
            "uniform" | "uniformInt" => {
                self.advance();
                let (mut args, site) = self.rand_call("uniform", Some(2))?;
                let lo = args.remove(0);
                let hi = args.remove(0);
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::UniformInt(Box::new(lo), Box::new(hi)),
                }))
            }
            "uniformReal" => {
                self.advance();
                let (mut args, site) = self.rand_call("uniformReal", Some(2))?;
                let lo = args.remove(0);
                let hi = args.remove(0);
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::UniformReal(Box::new(lo), Box::new(hi)),
                }))
            }
            "gauss" | "normal" => {
                self.advance();
                let (mut args, site) = self.rand_call("gauss", Some(2))?;
                let mean = args.remove(0);
                let std = args.remove(0);
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::Gauss(Box::new(mean), Box::new(std)),
                }))
            }
            "poisson" => {
                self.advance();
                let (mut args, site) = self.rand_call("poisson", Some(1))?;
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::Poisson(Box::new(args.remove(0))),
                }))
            }
            "geometric" => {
                self.advance();
                let (mut args, site) = self.rand_call("geometric", Some(1))?;
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::GeometricDist(Box::new(args.remove(0))),
                }))
            }
            "beta" => {
                self.advance();
                let (mut args, site) = self.rand_call("beta", Some(2))?;
                let a = args.remove(0);
                let b = args.remove(0);
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::Beta(Box::new(a), Box::new(b)),
                }))
            }
            "exponential" => {
                self.advance();
                let (mut args, site) = self.rand_call("exponential", Some(1))?;
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::Exponential(Box::new(args.remove(0))),
                }))
            }
            "categorical" => {
                self.advance();
                let (args, site) = self.rand_call("categorical", None)?;
                if args.is_empty() {
                    return Err(self.error("categorical needs at least one weight"));
                }
                Ok(Expr::Random(RandExpr {
                    site,
                    kind: RandKind::Categorical(args),
                }))
            }
            "array" => {
                self.advance();
                let mut args = self.args()?;
                if args.len() != 2 {
                    return Err(self.error("array expects 2 arguments: array(n, init)"));
                }
                let n = args.remove(0);
                let init = args.remove(0);
                Ok(Expr::ArrayInit(Box::new(n), Box::new(init)))
            }
            _ => {
                if let Some(builtin) = Builtin::from_name(&name) {
                    if self.peek2() == &Tok::LParen {
                        self.advance();
                        let args = self.args()?;
                        if args.len() != builtin.arity() {
                            return Err(self.error(&format!(
                                "{} expects {} argument(s)",
                                builtin.name(),
                                builtin.arity()
                            )));
                        }
                        return Ok(Expr::Call(builtin, args));
                    }
                }
                if Self::is_keyword(&name) {
                    return Err(self.error("unexpected keyword in expression"));
                }
                self.advance();
                Ok(Expr::var(&name))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr;
    use crate::check::is_clean;
    use crate::compile::compile;
    use crate::handlers::score;
    use crate::trace::ChoiceMap;

    #[test]
    fn parses_burglary_original() {
        let src = r#"
            burglary = flip(0.02) @ alpha;
            pAlarm = burglary ? 0.9 : 0.01;
            alarm = flip(pAlarm) @ beta;
            if alarm { pMaryWakes = 0.8; } else { pMaryWakes = 0.05; }
            observe(flip(pMaryWakes) == 1) @ o;
            return burglary;
        "#;
        let p = parse(src).unwrap();
        let sites: Vec<String> = p.sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(sites, ["alpha", "beta", "o"]);
        // Score the trace [alpha -> 1, beta -> 1]: 0.02 * 0.9 * 0.8.
        let mut map = ChoiceMap::new();
        map.insert(addr!["alpha"], Value::Bool(true));
        map.insert(addr!["beta"], Value::Bool(true));
        let t = score(&p, &map).unwrap();
        assert!((t.score().prob() - 0.02 * 0.9 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn auto_sites_are_deterministic() {
        let p = parse("x = flip(0.5); y = flip(0.5); return x;").unwrap();
        let sites: Vec<String> = p.sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(sites, ["flip#1", "flip#2"]);
    }

    #[test]
    fn precedence_is_conventional() {
        let p = parse("x = 1 + 2 * 3; return x;").unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(7)));
        let p = parse("x = (1 + 2) * 3; return x;").unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(9)));
    }

    #[test]
    fn ternary_parses_right_associative() {
        let p = parse("x = 1 < 2 ? 10 : 20; return x;").unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(10)));
    }

    #[test]
    fn for_loop_and_arrays() {
        let src = r#"
            data = array(4, 0);
            for i in [0..4) { data[i] = i * i; }
            return data[3];
        "#;
        let p = parse(src).unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(9)));
    }

    #[test]
    fn while_loop_parses() {
        let src = r#"
            n = 0;
            while n < 5 { n = n + 1; }
            return n;
        "#;
        let p = parse(src).unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(5)));
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            x = 3;
            if x == 1 { y = 10; } else if x == 3 { y = 30; } else { y = 0; }
            return y;
        "#;
        let p = parse(src).unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(30)));
    }

    #[test]
    fn observe_requires_random_lhs() {
        assert!(parse("observe(x == 1);").is_err());
        assert!(parse("observe(flip(0.5) == 1);").is_ok());
    }

    #[test]
    fn builtins_parse_as_calls() {
        let p = parse("x = sqrt(16); return max(x, 5);").unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Real(5.0)));
    }

    #[test]
    fn builtin_names_can_be_variables() {
        // `len` used as a plain variable, not a call.
        let p = parse("len = 3; return len;").unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(3)));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse("x = ;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn negative_literals_and_unary() {
        let p = parse("x = -5; y = !false; return x + (y ? 1 : 0);").unwrap();
        let t = score(&p, &ChoiceMap::new()).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(-4)));
    }

    #[test]
    fn gmm_listing5_parses() {
        // Listing 5, adapted: sigma and n as constants here.
        let src = r#"
            sigma = 10.0;
            n = 5;
            k = 10;
            centers = array(k, 0);
            for i in [0..k) { centers[i] = gauss(0, sigma) @ center; }
            data = array(n, 0);
            for i in [0..n) { data[i] = gauss(centers[uniform(0, k - 1) @ pick], 1) @ point; }
            return data;
        "#;
        let p = parse(src).unwrap();
        let sites: Vec<String> = p.sites().iter().map(|s| s.to_string()).collect();
        assert_eq!(sites, ["center", "pick", "point"]);
    }

    /// A program nested exactly to the limit parses, checks, compiles and
    /// runs on a test thread's stack; one level deeper is a positioned
    /// parse error. `x = e;` spends two levels (the statement and its
    /// expression) before `e` nests.
    #[test]
    fn nesting_is_bounded() {
        let shapes: [fn(usize) -> String; 4] = [
            |n| format!("x = {}1{};", "(".repeat(n), ")".repeat(n)),
            |n| format!("x = 1{};", "+1".repeat(n)),
            |n| format!("x = {}1;", "-".repeat(n)),
            |n| format!("{}x = 1;{}", "if true { ".repeat(n), " }".repeat(n)),
        ];
        for shape in shapes {
            let at_limit = shape(MAX_NESTING - 2);
            let p = parse(&at_limit).unwrap();
            assert!(is_clean(&p), "{at_limit}");
            compile(&p);
            score(&p, &ChoiceMap::new()).unwrap();
            let err = parse(&shape(MAX_NESTING - 1)).unwrap_err();
            assert!(
                matches!(
                    err,
                    PplError::NestingTooDeep {
                        line: 1,
                        limit: MAX_NESTING,
                        ..
                    }
                ),
                "{err}"
            );
        }
    }
}
