//! Big-step traced interpreter for the surface language.
//!
//! Executes a [`Program`] end-to-end against any [`Handler`], issuing a
//! `sample` effect at each random expression and an `observe` effect at
//! each observation. Addresses are the random expression's site label
//! extended with the indices of all enclosing loops (Section 5.4): `for`
//! loops contribute the loop-variable value, `while` loops their iteration
//! counter.

use std::collections::HashMap;

use crate::address::Address;
use crate::ast::{BinOp, Block, Builtin, Expr, Program, RandExpr, RandKind, Stmt, UnOp};
use crate::compile::{acquire_frame, note_tree_walk_exec, run_compiled};
use crate::dist::Dist;
use crate::effects::{Handler, Model};
use crate::error::PplError;
use crate::intern::intern_name;
use crate::value::Value;

/// Default step budget: generous enough for every evaluation program, small
/// enough to catch accidental infinite loops in tests.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// The longest array `array(n, init)` may build: 2^24 elements (256 MiB
/// of values). Fuel charges one tick per `array` call whatever its length,
/// so without this bound one expression could ask for terabytes and abort
/// the process.
pub const MAX_ARRAY_LEN: i64 = 1 << 24;

/// The interpreter configuration.
#[derive(Debug, Clone)]
pub struct Interp {
    fuel: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Interp { fuel: DEFAULT_FUEL }
    }
}

impl Interp {
    /// Creates an interpreter with the default step budget.
    pub fn new() -> Interp {
        Interp::default()
    }

    /// Sets the step budget (number of statement, `for`-iteration and
    /// expression steps before the run is aborted with
    /// [`PplError::FuelExhausted`]).
    pub fn with_fuel(fuel: u64) -> Interp {
        Interp { fuel }
    }

    /// Runs `program` against `handler` and returns its return value (or
    /// `Value::Int(0)` if the program has no `return`).
    ///
    /// Execution goes through the compiled path ([`crate::compile`]): the
    /// program is lowered on its first run and keeps that compiled form
    /// ([`Program::compiled`]), which is evaluated against a pooled
    /// register frame. Semantics are
    /// bit-identical to [`Interp::run_tree_walk`], which the differential
    /// suite holds this path against.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (unbound variables, type errors,
    /// invalid distribution parameters, fuel exhaustion) and handler
    /// errors.
    pub fn run(&self, program: &Program, handler: &mut dyn Handler) -> Result<Value, PplError> {
        let mut frame = acquire_frame();
        run_compiled(program.compiled(), &mut frame, self.fuel, handler)
    }

    /// Runs `program` by direct tree-walk over the AST — the reference
    /// semantics the compiled path is tested against.
    ///
    /// # Errors
    ///
    /// As for [`Interp::run`].
    pub fn run_tree_walk(
        &self,
        program: &Program,
        handler: &mut dyn Handler,
    ) -> Result<Value, PplError> {
        note_tree_walk_exec();
        let mut state = State {
            env: HashMap::new(),
            loops: Vec::new(),
            fuel: self.fuel,
            budget: self.fuel,
        };
        state.exec_block(program.body(), handler)?;
        match program.ret() {
            Some(e) => state.eval(e, handler),
            None => Ok(Value::Int(0)),
        }
    }
}

struct State {
    // Keys are interned: binding a variable copies a pointer, not a
    // `String` (names recur across iterations and runs, so the interner
    // is warm after the first execution).
    env: HashMap<&'static str, Value>,
    loops: Vec<i64>,
    fuel: u64,
    budget: u64,
}

impl State {
    fn tick(&mut self) -> Result<(), PplError> {
        if self.fuel == 0 {
            return Err(PplError::FuelExhausted {
                budget: self.budget,
            });
        }
        self.fuel -= 1;
        Ok(())
    }

    fn address_for(&self, rand: &RandExpr) -> Address {
        let mut addr = Address::from(rand.site.as_str());
        for &i in &self.loops {
            addr.push(i);
        }
        addr
    }

    fn lookup(&self, name: &str) -> Result<&Value, PplError> {
        self.env
            .get(name)
            .ok_or_else(|| PplError::UnboundVariable(name.to_string()))
    }

    fn eval(&mut self, expr: &Expr, handler: &mut dyn Handler) -> Result<Value, PplError> {
        self.tick()?;
        match expr {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(name) => Ok(self.lookup(name)?.clone()),
            Expr::Unary(op, e) => {
                let v = self.eval(e, handler)?;
                apply_unary(*op, &v)
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.eval(lhs, handler)?;
                let b = self.eval(rhs, handler)?;
                apply_binary(*op, &a, &b)
            }
            Expr::Index(arr, idx) => {
                let a = self.eval(arr, handler)?;
                let i = self.eval(idx, handler)?.as_int()?;
                let items = a.as_array()?;
                if i < 0 || i as usize >= items.len() {
                    return Err(PplError::IndexOutOfBounds {
                        index: i,
                        len: items.len(),
                    });
                }
                Ok(items[i as usize].clone())
            }
            Expr::ArrayInit(n, init) => {
                let n = array_len(self.eval(n, handler)?.as_int()?)?;
                let init = self.eval(init, handler)?;
                Ok(Value::array(vec![init; n]))
            }
            Expr::Call(builtin, args) => {
                if args.len() != builtin.arity() {
                    return Err(PplError::Other(format!(
                        "{} expects {} argument(s), got {}",
                        builtin.name(),
                        builtin.arity(),
                        args.len()
                    )));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, handler)?);
                }
                apply_builtin(*builtin, &vals)
            }
            Expr::Ternary(cond, then_e, else_e) => {
                if self.eval(cond, handler)?.truthy()? {
                    self.eval(then_e, handler)
                } else {
                    self.eval(else_e, handler)
                }
            }
            Expr::Random(rand) => self.eval_random(rand, handler),
        }
    }

    fn build_dist(&mut self, kind: &RandKind, handler: &mut dyn Handler) -> Result<Dist, PplError> {
        match kind {
            RandKind::Flip(p) => {
                let p = self.eval(p, handler)?.as_real()?;
                Dist::try_flip(p)
            }
            RandKind::UniformInt(lo, hi) => {
                let lo = self.eval(lo, handler)?.as_int()?;
                let hi = self.eval(hi, handler)?.as_int()?;
                Dist::try_uniform_int(lo, hi)
            }
            RandKind::UniformReal(lo, hi) => {
                let lo = self.eval(lo, handler)?.as_real()?;
                let hi = self.eval(hi, handler)?.as_real()?;
                Dist::try_uniform_real(lo, hi)
            }
            RandKind::Gauss(mean, std) => {
                let mean = self.eval(mean, handler)?.as_real()?;
                let std = self.eval(std, handler)?.as_real()?;
                Dist::try_normal(mean, std)
            }
            RandKind::Categorical(ws) => {
                let mut probs = Vec::with_capacity(ws.len());
                for w in ws {
                    probs.push(self.eval(w, handler)?.as_real()?);
                }
                Dist::try_categorical(&probs)
            }
            RandKind::Poisson(l) => {
                let l = self.eval(l, handler)?.as_real()?;
                Dist::try_poisson(l)
            }
            RandKind::GeometricDist(p) => {
                let p = self.eval(p, handler)?.as_real()?;
                Dist::try_geometric(p)
            }
            RandKind::Beta(a, b) => {
                let a = self.eval(a, handler)?.as_real()?;
                let b = self.eval(b, handler)?.as_real()?;
                Dist::try_beta(a, b)
            }
            RandKind::Exponential(r) => {
                let r = self.eval(r, handler)?.as_real()?;
                Dist::try_exponential(r)
            }
        }
    }

    fn eval_random(
        &mut self,
        rand: &RandExpr,
        handler: &mut dyn Handler,
    ) -> Result<Value, PplError> {
        let dist = self.build_dist(&rand.kind, handler)?;
        let addr = self.address_for(rand);
        handler.sample(addr, dist)
    }

    fn exec_block(&mut self, block: &Block, handler: &mut dyn Handler) -> Result<(), PplError> {
        for stmt in block.stmts() {
            self.exec_stmt(stmt, handler)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt, handler: &mut dyn Handler) -> Result<(), PplError> {
        self.tick()?;
        match stmt {
            Stmt::Skip => Ok(()),
            Stmt::Assign(name, e) => {
                let v = self.eval(e, handler)?;
                self.env.insert(intern_name(name), v);
                Ok(())
            }
            Stmt::AssignIndex(name, idx, e) => {
                let i = self.eval(idx, handler)?.as_int()?;
                let v = self.eval(e, handler)?;
                let slot = self
                    .env
                    .get_mut(name.as_str())
                    .ok_or_else(|| PplError::UnboundVariable(name.clone()))?;
                let items = slot.as_array_mut()?;
                if i < 0 || i as usize >= items.len() {
                    return Err(PplError::IndexOutOfBounds {
                        index: i,
                        len: items.len(),
                    });
                }
                items[i as usize] = v;
                Ok(())
            }
            Stmt::If(cond, then_b, else_b) => {
                if self.eval(cond, handler)?.truthy()? {
                    self.exec_block(then_b, handler)
                } else {
                    self.exec_block(else_b, handler)
                }
            }
            Stmt::While(cond, body) => {
                // Both the condition and the body of iteration `i` address
                // their choices under loop index `i`, so unbounded loops
                // like the geometric program of Fig. 6 index their
                // Bernoulli trials 0, 1, 2, … (Section 5.4).
                let mut iter = 0_i64;
                loop {
                    self.loops.push(iter);
                    let keep_going = self.eval(cond, handler).and_then(|v| v.truthy());
                    match keep_going {
                        Ok(true) => {}
                        other => {
                            self.loops.pop();
                            return other.map(|_| ());
                        }
                    }
                    let r = self.exec_block(body, handler);
                    self.loops.pop();
                    r?;
                    iter += 1;
                }
            }
            Stmt::For(var, lo, hi, body) => {
                let lo = self.eval(lo, handler)?.as_int()?;
                let hi = self.eval(hi, handler)?.as_int()?;
                let var = intern_name(var);
                for i in lo..hi {
                    // One tick per iteration, so an empty body cannot
                    // spin past the budget.
                    self.tick()?;
                    self.env.insert(var, Value::Int(i));
                    self.loops.push(i);
                    let r = self.exec_block(body, handler);
                    self.loops.pop();
                    r?;
                }
                Ok(())
            }
            Stmt::Observe(rand, value_expr) => {
                let dist = self.build_dist(&rand.kind, handler)?;
                let value = self.eval(value_expr, handler)?;
                let addr = self.address_for(rand);
                handler.observe(addr, dist, value)
            }
        }
    }
}

/// Checks the length `n` of an `array(n, init)` expression: negative
/// lengths and lengths past [`MAX_ARRAY_LEN`] are errors.
///
/// # Errors
///
/// Returns [`PplError::ArrayTooLong`] past the limit, and
/// [`PplError::Other`] for a negative length.
pub(crate) fn array_len(n: i64) -> Result<usize, PplError> {
    if n < 0 {
        return Err(PplError::Other(format!("array length is negative: {n}")));
    }
    if n > MAX_ARRAY_LEN {
        return Err(PplError::ArrayTooLong {
            len: n,
            limit: MAX_ARRAY_LEN,
        });
    }
    Ok(n as usize)
}

/// Applies a unary operator to a value — the language's operator
/// semantics, exposed for alternative interpreters (e.g. the
/// dependency-graph runtime).
///
/// # Errors
///
/// Returns [`PplError::Type`] on ill-typed operands.
pub fn apply_unary(op: UnOp, v: &Value) -> Result<Value, PplError> {
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            other => Ok(Value::Real(-other.as_real()?)),
        },
        UnOp::Not => Ok(Value::Bool(!v.truthy()?)),
    }
}

/// Applies a binary operator to two values.
///
/// # Errors
///
/// Returns [`PplError::Type`] on ill-typed operands and
/// [`PplError::DivisionByZero`] for `/` and `%` by zero.
pub fn apply_binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, PplError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Mod => {
            // Integer arithmetic stays integral; anything else promotes.
            match (a, b) {
                (Value::Int(x), Value::Int(y)) => match op {
                    Add => Ok(Value::Int(x.wrapping_add(*y))),
                    Sub => Ok(Value::Int(x.wrapping_sub(*y))),
                    Mul => Ok(Value::Int(x.wrapping_mul(*y))),
                    Mod => {
                        if *y == 0 {
                            Err(PplError::DivisionByZero)
                        } else {
                            Ok(Value::Int(x.rem_euclid(*y)))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => {
                    let x = a.as_real()?;
                    let y = b.as_real()?;
                    match op {
                        Add => Ok(Value::Real(x + y)),
                        Sub => Ok(Value::Real(x - y)),
                        Mul => Ok(Value::Real(x * y)),
                        Mod => {
                            if y == 0.0 {
                                Err(PplError::DivisionByZero)
                            } else {
                                Ok(Value::Real(x.rem_euclid(y)))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        // Division is exact (rational) in the paper; we always produce a
        // real so `a/3` means one third, not integer division.
        Div => {
            let x = a.as_real()?;
            let y = b.as_real()?;
            if y == 0.0 {
                return Err(PplError::DivisionByZero);
            }
            Ok(Value::Real(x / y))
        }
        Lt => Ok(Value::Bool(a.as_real()? < b.as_real()?)),
        Le => Ok(Value::Bool(a.as_real()? <= b.as_real()?)),
        Gt => Ok(Value::Bool(a.as_real()? > b.as_real()?)),
        Ge => Ok(Value::Bool(a.as_real()? >= b.as_real()?)),
        Eq => Ok(Value::Bool(a.num_eq(b))),
        Ne => Ok(Value::Bool(!a.num_eq(b))),
        And => Ok(Value::Bool(a.truthy()? && b.truthy()?)),
        Or => Ok(Value::Bool(a.truthy()? || b.truthy()?)),
    }
}

/// Applies a builtin function to evaluated arguments.
///
/// # Errors
///
/// Returns [`PplError::Type`] on ill-typed arguments.
///
/// # Panics
///
/// Panics if `args` has fewer elements than the builtin's arity (callers
/// validate arity first).
pub fn apply_builtin(builtin: Builtin, args: &[Value]) -> Result<Value, PplError> {
    match builtin {
        Builtin::Sqrt => Ok(Value::Real(args[0].as_real()?.sqrt())),
        Builtin::Exp => Ok(Value::Real(args[0].as_real()?.exp())),
        Builtin::Ln => Ok(Value::Real(args[0].as_real()?.ln())),
        Builtin::Abs => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            other => Ok(Value::Real(other.as_real()?.abs())),
        },
        Builtin::Min => Ok(Value::Real(args[0].as_real()?.min(args[1].as_real()?))),
        Builtin::Max => Ok(Value::Real(args[0].as_real()?.max(args[1].as_real()?))),
        Builtin::Floor => Ok(Value::Int(args[0].as_real()?.floor() as i64)),
        Builtin::Len => Ok(Value::Int(args[0].as_array()?.len() as i64)),
    }
}

impl Model for Program {
    fn exec(&self, handler: &mut dyn Handler) -> Result<Value, PplError> {
        Interp::new().run(self, handler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr;
    use crate::ast::SiteId;
    use crate::handlers::{score, simulate};
    use crate::trace::ChoiceMap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The program of Figure 3 (Example 1).
    fn fig3_program() -> Program {
        Program::new(
            Block::new(vec![
                Stmt::Assign("a".into(), Expr::int(1)),
                Stmt::Assign(
                    "b".into(),
                    Expr::flip("b", Expr::var("a").div(Expr::int(3))),
                ),
                Stmt::If(
                    Expr::var("a").lt(Expr::int(2)),
                    Block::new(vec![Stmt::Assign(
                        "c".into(),
                        Expr::uniform("c", Expr::int(1), Expr::int(6)),
                    )]),
                    Block::new(vec![Stmt::Assign(
                        "c".into(),
                        Expr::uniform("c", Expr::int(6), Expr::int(10)),
                    )]),
                ),
                Stmt::Assign(
                    "d".into(),
                    Expr::flip("d", Expr::var("b").div(Expr::int(2))),
                ),
                Stmt::Observe(
                    RandExpr {
                        site: SiteId::new("obs"),
                        kind: RandKind::Flip(Box::new(Expr::real(0.2))),
                    },
                    Expr::var("d"),
                ),
            ]),
            Some(Expr::var("c")),
        )
    }

    #[test]
    fn example1_trace_probability() {
        // t = [b -> 1, c -> 4, d -> 1]: P̃r[t ∼ P] = 1/3 * 1/6 * 1/2 * 1/5.
        let program = fig3_program();
        let mut map = ChoiceMap::new();
        map.insert(addr!["b"], Value::Bool(true));
        map.insert(addr!["c"], Value::Int(4));
        map.insert(addr!["d"], Value::Bool(true));
        let trace = score(&program, &map).unwrap();
        let expected = (1.0 / 3.0) * (1.0 / 6.0) * 0.5 * 0.2;
        assert!((trace.score().prob() - expected).abs() < 1e-12);
        assert_eq!(trace.return_value(), Some(&Value::Int(4)));
    }

    #[test]
    fn branch_selects_distribution() {
        // With a = 1 the then-branch runs: c in 1..=6.
        let program = fig3_program();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let t = simulate(&program, &mut rng).unwrap();
            let c = t.value(&addr!["c"]).unwrap().as_int().unwrap();
            assert!((1..=6).contains(&c));
        }
    }

    #[test]
    fn while_loop_indexes_addresses() {
        // geometric from Fig. 6: while (flip(p)) n++
        let program = Program::new(
            Block::new(vec![
                Stmt::Assign("n".into(), Expr::int(1)),
                Stmt::While(
                    Expr::flip("t", Expr::real(0.5)),
                    Block::new(vec![Stmt::Assign(
                        "n".into(),
                        Expr::var("n").add(Expr::int(1)),
                    )]),
                ),
            ]),
            Some(Expr::var("n")),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let t = simulate(&program, &mut rng).unwrap();
        // Condition evaluations are indexed by iteration: t/0, t/1, ...
        let n = t.return_value().unwrap().as_int().unwrap();
        assert_eq!(t.len() as i64, n); // n-1 successes + 1 failure
        for i in 0..n {
            assert!(t.has_choice(&addr!["t", i]), "missing t/{i}");
        }
    }

    #[test]
    fn for_loop_uses_loop_variable_in_address() {
        let program = Program::new(
            Block::new(vec![
                Stmt::Assign(
                    "xs".into(),
                    Expr::ArrayInit(Box::new(Expr::int(3)), Box::new(Expr::int(0))),
                ),
                Stmt::For(
                    "i".into(),
                    Expr::int(0),
                    Expr::int(3),
                    Block::new(vec![Stmt::AssignIndex(
                        "xs".into(),
                        Expr::var("i"),
                        Expr::flip("x", Expr::real(0.5)),
                    )]),
                ),
            ]),
            Some(Expr::var("xs")),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let t = simulate(&program, &mut rng).unwrap();
        assert_eq!(t.len(), 3);
        for i in 0..3_i64 {
            assert!(t.has_choice(&addr!["x", i]), "missing x/{i}");
        }
        let rv = t.return_value().unwrap().as_array().unwrap().to_vec();
        assert_eq!(rv.len(), 3);
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let program = Program::new(
            Block::new(vec![Stmt::While(Expr::bool(true), Block::empty())]),
            None,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut h = crate::handlers::PriorSampler::new(&mut rng);
        let err = Interp::with_fuel(1000).run(&program, &mut h).unwrap_err();
        assert!(matches!(err, PplError::FuelExhausted { .. }));
    }

    #[test]
    fn empty_for_iterations_charge_fuel() {
        let program = crate::parse("for i in [0..1000000) { } return 0;").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut h = crate::handlers::PriorSampler::new(&mut rng);
        let interp = Interp::with_fuel(1000);
        for err in [
            interp.run(&program, &mut h).unwrap_err(),
            interp.run_tree_walk(&program, &mut h).unwrap_err(),
        ] {
            assert!(matches!(err, PplError::FuelExhausted { .. }), "{err}");
        }
    }

    #[test]
    fn huge_arrays_are_a_typed_error_not_an_abort() {
        for n in ["100000000000", "9223372036854775807"] {
            let program = crate::parse(&format!("x = array({n}, 0); return 0;")).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let mut h = crate::handlers::PriorSampler::new(&mut rng);
            let err = Interp::new().run_tree_walk(&program, &mut h).unwrap_err();
            assert_eq!(
                err,
                PplError::ArrayTooLong {
                    len: n.parse().unwrap(),
                    limit: MAX_ARRAY_LEN,
                }
            );
        }
        // The limit itself is allowed; one past it is not.
        assert_eq!(array_len(MAX_ARRAY_LEN), Ok(MAX_ARRAY_LEN as usize));
        assert!(matches!(
            array_len(MAX_ARRAY_LEN + 1),
            Err(PplError::ArrayTooLong { .. })
        ));
    }

    #[test]
    fn arithmetic_and_builtins() {
        let program = Program::new(
            Block::new(vec![
                Stmt::Assign("x".into(), Expr::int(7).sub(Expr::int(3))),
                Stmt::Assign("y".into(), Expr::Call(Builtin::Sqrt, vec![Expr::var("x")])),
                Stmt::Assign(
                    "z".into(),
                    Expr::Call(Builtin::Max, vec![Expr::var("y"), Expr::real(1.5)]),
                ),
            ]),
            Some(Expr::var("z")),
        );
        let mut rng = StdRng::seed_from_u64(6);
        let t = simulate(&program, &mut rng).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Real(2.0)));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let program = Program::new(
            Block::new(vec![Stmt::Assign(
                "x".into(),
                Expr::int(1).div(Expr::int(0)),
            )]),
            None,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = crate::handlers::PriorSampler::new(&mut rng);
        assert!(matches!(
            Interp::new().run(&program, &mut h),
            Err(PplError::DivisionByZero)
        ));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let program = Program::new(
            Block::new(vec![Stmt::Assign("x".into(), Expr::var("ghost"))]),
            None,
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut h = crate::handlers::PriorSampler::new(&mut rng);
        assert!(matches!(
            Interp::new().run(&program, &mut h),
            Err(PplError::UnboundVariable(_))
        ));
    }

    #[test]
    fn index_out_of_bounds_is_an_error() {
        let program = Program::new(
            Block::new(vec![
                Stmt::Assign(
                    "a".into(),
                    Expr::ArrayInit(Box::new(Expr::int(2)), Box::new(Expr::int(0))),
                ),
                Stmt::Assign("x".into(), Expr::var("a").index(Expr::int(5))),
            ]),
            None,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mut h = crate::handlers::PriorSampler::new(&mut rng);
        assert!(matches!(
            Interp::new().run(&program, &mut h),
            Err(PplError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_flip_parameter_is_an_error() {
        let program = Program::new(
            Block::new(vec![Stmt::Assign(
                "x".into(),
                Expr::flip("x", Expr::real(1.5)),
            )]),
            None,
        );
        let mut rng = StdRng::seed_from_u64(10);
        let mut h = crate::handlers::PriorSampler::new(&mut rng);
        assert!(matches!(
            Interp::new().run(&program, &mut h),
            Err(PplError::InvalidDistribution(_))
        ));
    }

    #[test]
    fn ternary_branches_are_lazy() {
        // Only the taken branch's random expression is evaluated, so
        // exactly one of a/b appears in the trace.
        let program = Program::new(
            Block::new(vec![
                Stmt::Assign("c".into(), Expr::flip("c", Expr::real(0.5))),
                Stmt::Assign(
                    "x".into(),
                    Expr::var("c").ternary(
                        Expr::flip("a", Expr::real(0.5)),
                        Expr::flip("b", Expr::real(0.5)),
                    ),
                ),
            ]),
            Some(Expr::var("x")),
        );
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let t = simulate(&program, &mut rng).unwrap();
            assert_eq!(t.len(), 2);
            let c = t.value(&addr!["c"]).unwrap().truthy().unwrap();
            assert_eq!(t.has_choice(&addr!["a"]), c);
            assert_eq!(t.has_choice(&addr!["b"]), !c);
        }
    }

    #[test]
    fn modulo_is_euclidean() {
        let program = Program::new(
            Block::new(vec![Stmt::Assign(
                "x".into(),
                Expr::bin(BinOp::Mod, Expr::int(-7), Expr::int(3)),
            )]),
            Some(Expr::var("x")),
        );
        let mut rng = StdRng::seed_from_u64(11);
        let t = simulate(&program, &mut rng).unwrap();
        assert_eq!(t.return_value(), Some(&Value::Int(2)));
    }
}
