//! Compiled expression evaluation: register-lowered programs, slot-resolved
//! environments, and reusable eval frames.
//!
//! The tree-walking interpreter ([`crate::interp`]) resolves every variable
//! through a string-keyed hash map and re-discovers constants, arities, and
//! name bindings on every visit. This module lowers a [`Program`] **once**
//! into a flat, register-based form:
//!
//! - all nodes live in contiguous arenas ([`CompiledProgram`]) addressed by
//!   `u32` ids — no per-node boxes, no pointer chasing;
//! - variable references are resolved at compile time to dense frame-slot
//!   indices ([`SlotId`]), so an environment is a plain vector
//!   ([`EvalFrame`]) indexed in O(1);
//! - constant subexpressions are folded (using the *same* operator
//!   implementations the interpreter runs, so results are bit-identical),
//!   with the subtree's fuel cost recorded on the folded node;
//! - builtin arity is checked up front, so the happy path never re-counts
//!   arguments.
//!
//! Evaluation against a compiled program is **bit-identical** to the
//! tree-walk: the node visit order (and hence RNG draw order, `LogWeight`
//! accumulation order, and error surface) mirrors the AST one-to-one, fuel
//! is charged at the same points (folded constants carry the tick count of
//! the subtree they replace, charged where the tree-walk would start
//! charging it — with no observable effect in between, since only
//! successfully-evaluated effect-free subtrees fold), and compiled blocks
//! are index-aligned with their AST blocks so structural consumers (the
//! dependency-graph planner) can address both with the same indices.
//!
//! [`CompiledProgram::eval`] is the one evaluator over compiled
//! expressions. What differs between its callers — fuel, read tracking,
//! where a random choice's value comes from — goes through the
//! [`EvalHooks`] they pass: forward execution ([`run_compiled`]) charges
//! fuel and samples through a [`Handler`]; the dependency-graph runtime
//! records reads and choices for change propagation.
//!
//! Frames are pooled per worker thread ([`acquire_frame`]): a particle
//! task takes a warmed frame, evaluates an entire translation with zero
//! per-eval allocation on the happy path, and returns the frame's storage
//! to the pool on drop. Compiled programs are cached globally keyed by
//! program fingerprint ([`compiled_for`]), so a stage compiles once and
//! every particle shares the artifact by `Arc`.
//!
//! A compiled program also answers where each random site is evaluated:
//! [`CompiledProgram::sites`] builds its [`SiteTable`] on first use.

use std::cell::RefCell;
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::address::Address;
use crate::ast::{collect_var_names, BinOp, Block, Builtin, Expr, Program, RandKind, Stmt, UnOp};
use crate::dist::Dist;
use crate::effects::Handler;
use crate::error::PplError;
use crate::fxhash::{FxHashMap, FxHasher};
use crate::intern::intern_name;
use crate::interp::{apply_binary, apply_builtin, apply_unary, array_len};
use crate::value::Value;

mod sites;

pub use sites::{SitePath, SiteStep, SiteTable};

/// Index of a compiled expression node in [`CompiledProgram`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(u32);

/// Index of a compiled statement node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CStmtId(u32);

/// Index of a compiled block node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CBlockId(u32);

/// A dense frame-slot index: every variable name in the program (plus any
/// extra names from a paired source program) gets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

impl SlotId {
    /// The slot's index into an [`EvalFrame`]'s slot vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous run of argument ids in the program's argument arena
/// (builtin calls and categorical weight lists).
#[derive(Debug, Clone, Copy)]
pub struct ArgRange {
    start: u32,
    len: u32,
}

impl ArgRange {
    /// Number of arguments in the range.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A lowered expression node.
///
/// Mirrors [`Expr`] one-to-one except that variables carry resolved slots,
/// constants carry the fuel cost of the subtree they fold away, and calls
/// have their arity pre-checked.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// A constant (literal or folded subtree). `ticks` is the number of
    /// `eval` entries the tree-walk would perform for the original
    /// subtree, charged in one step for fuel parity.
    Const {
        /// The value.
        value: Value,
        /// Fuel ticks of the folded subtree (1 for a plain literal).
        ticks: u32,
    },
    /// A variable read, resolved to a frame slot.
    Var {
        /// The resolved slot.
        slot: SlotId,
        /// The interned name (for dependency summaries and errors).
        name: &'static str,
    },
    /// Unary operator application.
    Unary(UnOp, ExprId),
    /// Binary operator application.
    Binary(BinOp, ExprId, ExprId),
    /// Array indexing `a[i]`.
    Index(ExprId, ExprId),
    /// Array construction `[init; n]`.
    ArrayInit(ExprId, ExprId),
    /// A builtin call whose arity was verified at compile time.
    Call {
        /// The builtin.
        builtin: Builtin,
        /// Argument ids (length equals the builtin's arity).
        args: ArgRange,
    },
    /// A builtin call with the wrong number of arguments: evaluation
    /// reproduces the interpreter's arity error without re-counting.
    CallBadArity {
        /// The builtin.
        builtin: Builtin,
        /// The argument count the source program supplied.
        got: usize,
    },
    /// Lazy conditional `c ? t : e`.
    Ternary(ExprId, ExprId, ExprId),
    /// A random expression.
    Random(CRand),
}

/// A lowered random expression: the site label plus the lowered
/// distribution parameters.
#[derive(Debug, Clone)]
pub struct CRand {
    /// The site label (shared with the AST's `Arc<str>`).
    pub site: Arc<str>,
    /// The lowered distribution constructor.
    pub kind: CRandKind,
}

/// Lowered distribution parameter expressions (mirrors [`RandKind`]).
#[derive(Debug, Clone)]
pub enum CRandKind {
    /// Bernoulli.
    Flip(ExprId),
    /// Uniform over an integer range.
    UniformInt(ExprId, ExprId),
    /// Uniform over a real interval.
    UniformReal(ExprId, ExprId),
    /// Gaussian.
    Gauss(ExprId, ExprId),
    /// Categorical over explicit weights.
    Categorical(ArgRange),
    /// Poisson.
    Poisson(ExprId),
    /// Geometric.
    GeometricDist(ExprId),
    /// Beta.
    Beta(ExprId, ExprId),
    /// Exponential.
    Exponential(ExprId),
}

/// A lowered statement node (mirrors [`Stmt`] one-to-one).
#[derive(Debug, Clone)]
pub enum CStmt {
    /// `skip`.
    Skip,
    /// `name = expr`.
    Assign {
        /// Target slot.
        slot: SlotId,
        /// Interned target name.
        name: &'static str,
        /// Right-hand side.
        expr: ExprId,
    },
    /// `name[index] = expr`.
    AssignIndex {
        /// Target slot.
        slot: SlotId,
        /// Interned target name.
        name: &'static str,
        /// Index expression.
        index: ExprId,
        /// Right-hand side.
        expr: ExprId,
    },
    /// `if cond { … } else { … }`.
    If {
        /// Condition.
        cond: ExprId,
        /// Then-block.
        then_b: CBlockId,
        /// Else-block.
        else_b: CBlockId,
    },
    /// `while cond { … }`.
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: CBlockId,
    },
    /// `for name in [lo..hi) { … }`.
    For {
        /// Loop-variable slot.
        slot: SlotId,
        /// Interned loop-variable name.
        name: &'static str,
        /// Lower bound.
        lo: ExprId,
        /// Upper bound.
        hi: ExprId,
        /// Body.
        body: CBlockId,
    },
    /// `observe(rand == value)`.
    Observe {
        /// The observed random expression.
        rand: CRand,
        /// The observed value expression.
        value: ExprId,
    },
}

/// A lowered block: statement ids **index-aligned** with the AST block's
/// statement list, so a position valid in one is valid in the other.
#[derive(Debug, Clone)]
pub struct CBlock {
    /// The block's statements, in source order.
    pub stmts: Vec<CStmtId>,
}

/// A program lowered into flat arenas; see the module docs.
#[derive(Debug)]
pub struct CompiledProgram {
    exprs: Vec<CExpr>,
    stmts: Vec<CStmt>,
    blocks: Vec<CBlock>,
    arg_ids: Vec<ExprId>,
    body: CBlockId,
    ret: Option<ExprId>,
    slots: Vec<&'static str>,
    slot_ids: FxHashMap<&'static str, SlotId>,
    /// Where each random site is evaluated, built on the first
    /// [`CompiledProgram::sites`] call.
    sites: OnceLock<SiteTable>,
}

impl CompiledProgram {
    /// Resolves an expression id.
    pub fn expr(&self, id: ExprId) -> &CExpr {
        &self.exprs[id.0 as usize]
    }

    /// Resolves a statement id.
    pub fn stmt(&self, id: CStmtId) -> &CStmt {
        &self.stmts[id.0 as usize]
    }

    /// Resolves a block id.
    pub fn block(&self, id: CBlockId) -> &CBlock {
        &self.blocks[id.0 as usize]
    }

    /// Resolves an argument range.
    pub fn args(&self, range: ArgRange) -> &[ExprId] {
        &self.arg_ids[range.start as usize..(range.start + range.len) as usize]
    }

    /// The program body's block id.
    pub fn body(&self) -> CBlockId {
        self.body
    }

    /// The compiled return expression, if the program has one.
    pub fn ret(&self) -> Option<ExprId> {
        self.ret
    }

    /// Number of frame slots a frame for this program needs.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Resolves an interned variable name to its slot, if the name is in
    /// this program's slot universe.
    pub fn slot_of(&self, name: &str) -> Option<SlotId> {
        self.slot_ids.get(name).copied()
    }

    /// The interned name of a slot.
    pub fn slot_name(&self, slot: SlotId) -> &'static str {
        self.slots[slot.0 as usize]
    }

    /// The program's site table, built once on first use (a compile that
    /// serves no address lookup never builds it).
    pub fn sites(&self) -> &SiteTable {
        self.sites.get_or_init(|| SiteTable::build(self))
    }
}

/// One environment slot of an [`EvalFrame`].
#[derive(Debug, Clone)]
pub struct FrameSlot {
    /// The bound value (meaningless while `bound` is false).
    pub value: Value,
    /// Whether the slot is bound in the current execution.
    pub bound: bool,
    /// Dirtiness for change propagation (ignored by forward execution):
    /// whether the value (possibly) differs from the corresponding old
    /// execution.
    pub dirty: bool,
}

/// Reusable evaluation scratch: the slot vector plus the enclosing-loop
/// index stack. Allocated once per worker (see [`acquire_frame`]) and
/// reused across particles, iterations, and stages — `prepare` resets the
/// bindings without releasing storage.
#[derive(Debug, Default)]
pub struct EvalFrame {
    slots: Vec<FrameSlot>,
    loops: Vec<i64>,
}

impl EvalFrame {
    /// Creates an empty frame (prefer [`acquire_frame`]).
    pub fn new() -> EvalFrame {
        EvalFrame::default()
    }

    /// Resets the frame for a program with `n` slots: every slot unbound
    /// (and dirty, matching the propagation convention that an unknown
    /// variable is conservatively dirty), the loop stack empty. Retains
    /// allocated capacity.
    pub fn prepare(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(
            n,
            FrameSlot {
                value: Value::Int(0),
                bound: false,
                dirty: true,
            },
        );
        self.loops.clear();
    }

    /// Binds `slot` to `value` with the given dirtiness.
    pub fn bind(&mut self, slot: SlotId, value: Value, dirty: bool) {
        let s = &mut self.slots[slot.index()];
        s.value = value;
        s.bound = true;
        s.dirty = dirty;
    }

    /// The slot's state, if bound.
    pub fn get(&self, slot: SlotId) -> Option<&FrameSlot> {
        self.slots.get(slot.index()).filter(|s| s.bound)
    }

    /// Mutable access to the slot's state, if bound.
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut FrameSlot> {
        self.slots.get_mut(slot.index()).filter(|s| s.bound)
    }

    /// The enclosing-loop index stack (outermost first).
    pub fn loops(&self) -> &[i64] {
        &self.loops
    }

    /// Pushes a loop index (entering an iteration).
    pub fn push_loop(&mut self, i: i64) {
        self.loops.push(i);
    }

    /// Pops the innermost loop index (leaving an iteration).
    pub fn pop_loop(&mut self) {
        self.loops.pop();
    }

    /// Builds the address of a random site under the current loop nesting:
    /// the site label extended with every enclosing loop index.
    pub fn address_for(&self, site: &Arc<str>) -> Address {
        let mut addr = Address::from_components([Arc::clone(site).into()]);
        for &i in &self.loops {
            addr.push(i);
        }
        addr
    }
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

struct Lowerer<'a> {
    exprs: Vec<CExpr>,
    stmts: Vec<CStmt>,
    blocks: Vec<CBlock>,
    arg_ids: Vec<ExprId>,
    slot_ids: &'a FxHashMap<&'static str, SlotId>,
}

/// Lowers `program` into its compiled form; slot universe = the program's
/// own variable names.
pub fn compile(program: &Program) -> CompiledProgram {
    compile_with_extra_names(program, &[])
}

/// [`compile`] with extra slot-table entries: change propagation replays
/// effects recorded under a *source* program `P` into the frame of the
/// target `Q`, so the frame must have a slot for every name of either
/// program.
pub fn compile_with_extra_names(program: &Program, extra: &[&str]) -> CompiledProgram {
    let mut names: Vec<&str> = Vec::new();
    collect_var_names(program, &mut names);
    names.extend_from_slice(extra);
    let mut slots: Vec<&'static str> = Vec::new();
    let mut slot_ids: FxHashMap<&'static str, SlotId> = FxHashMap::default();
    for name in names {
        let name = intern_name(name);
        if !slot_ids.contains_key(name) {
            slot_ids.insert(name, SlotId(slots.len() as u32));
            slots.push(name);
        }
    }
    let mut lw = Lowerer {
        exprs: Vec::new(),
        stmts: Vec::new(),
        blocks: Vec::new(),
        arg_ids: Vec::new(),
        slot_ids: &slot_ids,
    };
    let body = lw.lower_block(&program.body);
    let ret = program.ret.as_ref().map(|e| lw.lower_expr(e));
    CompiledProgram {
        exprs: lw.exprs,
        stmts: lw.stmts,
        blocks: lw.blocks,
        arg_ids: lw.arg_ids,
        body,
        ret,
        slots,
        slot_ids,
        sites: OnceLock::new(),
    }
}

impl Lowerer<'_> {
    fn push_expr(&mut self, node: CExpr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(node);
        id
    }

    fn slot(&self, name: &'static str) -> SlotId {
        *self
            .slot_ids
            .get(name)
            .expect("every program variable has a slot")
    }

    /// The value and folded tick count of an already-lowered node, when it
    /// is a constant.
    fn const_of(&self, id: ExprId) -> Option<(&Value, u32)> {
        match &self.exprs[id.0 as usize] {
            CExpr::Const { value, ticks } => Some((value, *ticks)),
            _ => None,
        }
    }

    fn lower_args(&mut self, args: &[Expr]) -> ArgRange {
        // Lower into a scratch first: nested calls would otherwise
        // interleave their ids into this range.
        let ids: Vec<ExprId> = args.iter().map(|a| self.lower_expr(a)).collect();
        let start = self.arg_ids.len() as u32;
        let len = ids.len() as u32;
        self.arg_ids.extend(ids);
        ArgRange { start, len }
    }

    fn lower_expr(&mut self, expr: &Expr) -> ExprId {
        let node = match expr {
            Expr::Const(v) => CExpr::Const {
                value: v.clone(),
                ticks: 1,
            },
            Expr::Var(name) => {
                let name = intern_name(name);
                CExpr::Var {
                    slot: self.slot(name),
                    name,
                }
            }
            Expr::Unary(op, a) => {
                let a = self.lower_expr(a);
                let folded = self
                    .const_of(a)
                    .and_then(|(v, t)| apply_unary(*op, v).ok().map(|r| (r, t)));
                match folded {
                    Some((value, t)) => CExpr::Const {
                        value,
                        ticks: t.saturating_add(1),
                    },
                    None => CExpr::Unary(*op, a),
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.lower_expr(lhs);
                let b = self.lower_expr(rhs);
                let folded = match (self.const_of(a), self.const_of(b)) {
                    (Some((va, ta)), Some((vb, tb))) => {
                        apply_binary(*op, va, vb).ok().map(|r| (r, ta + tb))
                    }
                    _ => None,
                };
                match folded {
                    Some((value, t)) => CExpr::Const {
                        value,
                        ticks: t.saturating_add(1),
                    },
                    None => CExpr::Binary(*op, a, b),
                }
            }
            Expr::Index(arr, idx) => {
                let a = self.lower_expr(arr);
                let i = self.lower_expr(idx);
                let folded = match (self.const_of(a), self.const_of(i)) {
                    (Some((va, ta)), Some((vi, ti))) => fold_index(va, vi).map(|r| (r, ta + ti)),
                    _ => None,
                };
                match folded {
                    Some((value, t)) => CExpr::Const {
                        value,
                        ticks: t.saturating_add(1),
                    },
                    None => CExpr::Index(a, i),
                }
            }
            Expr::ArrayInit(n, init) => {
                let n = self.lower_expr(n);
                let init = self.lower_expr(init);
                let folded = match (self.const_of(n), self.const_of(init)) {
                    (Some((vn, tn)), Some((vi, ti))) => {
                        fold_array_init(vn, vi).map(|r| (r, tn + ti))
                    }
                    _ => None,
                };
                match folded {
                    Some((value, t)) => CExpr::Const {
                        value,
                        ticks: t.saturating_add(1),
                    },
                    None => CExpr::ArrayInit(n, init),
                }
            }
            Expr::Call(builtin, args) => {
                if args.len() != builtin.arity() {
                    // The interpreter raises this error lazily, every time
                    // the node is reached; lowering must not turn it into
                    // a compile failure (the node may be unreachable).
                    CExpr::CallBadArity {
                        builtin: *builtin,
                        got: args.len(),
                    }
                } else {
                    let range = self.lower_args(args);
                    let consts: Option<(Vec<Value>, u32)> = self.args_const(range);
                    let folded = consts
                        .and_then(|(vals, t)| apply_builtin(*builtin, &vals).ok().map(|r| (r, t)));
                    match folded {
                        Some((value, t)) => CExpr::Const {
                            value,
                            ticks: t.saturating_add(1),
                        },
                        None => CExpr::Call {
                            builtin: *builtin,
                            args: range,
                        },
                    }
                }
            }
            Expr::Ternary(c, t, e) => {
                let c_id = self.lower_expr(c);
                let t_id = self.lower_expr(t);
                let e_id = self.lower_expr(e);
                let folded = self.const_of(c_id).and_then(|(vc, tc)| {
                    let cond = vc.truthy().ok()?;
                    let taken = if cond { t_id } else { e_id };
                    self.const_of(taken).map(|(vt, tt)| (vt.clone(), tc + tt))
                });
                match folded {
                    Some((value, t)) => CExpr::Const {
                        value,
                        ticks: t.saturating_add(1),
                    },
                    None => CExpr::Ternary(c_id, t_id, e_id),
                }
            }
            Expr::Random(rand) => CExpr::Random(CRand {
                site: Arc::clone(&rand.site.0),
                kind: self.lower_rand_kind(&rand.kind),
            }),
        };
        self.push_expr(node)
    }

    /// All argument values with their total tick count, when every
    /// argument in the range is constant.
    fn args_const(&self, range: ArgRange) -> Option<(Vec<Value>, u32)> {
        let mut vals = Vec::with_capacity(range.len as usize);
        let mut ticks = 0_u32;
        for id in &self.arg_ids[range.start as usize..(range.start + range.len) as usize] {
            let (v, t) = self.const_of(*id)?;
            vals.push(v.clone());
            ticks += t;
        }
        Some((vals, ticks))
    }

    fn lower_rand_kind(&mut self, kind: &RandKind) -> CRandKind {
        match kind {
            RandKind::Flip(p) => CRandKind::Flip(self.lower_expr(p)),
            RandKind::UniformInt(lo, hi) => {
                CRandKind::UniformInt(self.lower_expr(lo), self.lower_expr(hi))
            }
            RandKind::UniformReal(lo, hi) => {
                CRandKind::UniformReal(self.lower_expr(lo), self.lower_expr(hi))
            }
            RandKind::Gauss(mean, std) => {
                CRandKind::Gauss(self.lower_expr(mean), self.lower_expr(std))
            }
            RandKind::Categorical(ws) => CRandKind::Categorical(self.lower_args(ws)),
            RandKind::Poisson(l) => CRandKind::Poisson(self.lower_expr(l)),
            RandKind::GeometricDist(p) => CRandKind::GeometricDist(self.lower_expr(p)),
            RandKind::Beta(a, b) => CRandKind::Beta(self.lower_expr(a), self.lower_expr(b)),
            RandKind::Exponential(r) => CRandKind::Exponential(self.lower_expr(r)),
        }
    }

    fn lower_block(&mut self, block: &Block) -> CBlockId {
        let stmts: Vec<CStmtId> = block.stmts().iter().map(|s| self.lower_stmt(s)).collect();
        let id = CBlockId(self.blocks.len() as u32);
        self.blocks.push(CBlock { stmts });
        id
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> CStmtId {
        let node = match stmt {
            Stmt::Skip => CStmt::Skip,
            Stmt::Assign(name, e) => {
                let name = intern_name(name);
                CStmt::Assign {
                    slot: self.slot(name),
                    name,
                    expr: self.lower_expr(e),
                }
            }
            Stmt::AssignIndex(name, idx, e) => {
                let name = intern_name(name);
                CStmt::AssignIndex {
                    slot: self.slot(name),
                    name,
                    index: self.lower_expr(idx),
                    expr: self.lower_expr(e),
                }
            }
            Stmt::If(cond, then_b, else_b) => CStmt::If {
                cond: self.lower_expr(cond),
                then_b: self.lower_block(then_b),
                else_b: self.lower_block(else_b),
            },
            Stmt::While(cond, body) => CStmt::While {
                cond: self.lower_expr(cond),
                body: self.lower_block(body),
            },
            Stmt::For(var, lo, hi, body) => {
                let name = intern_name(var);
                CStmt::For {
                    slot: self.slot(name),
                    name,
                    lo: self.lower_expr(lo),
                    hi: self.lower_expr(hi),
                    body: self.lower_block(body),
                }
            }
            Stmt::Observe(rand, value_expr) => CStmt::Observe {
                rand: CRand {
                    site: Arc::clone(&rand.site.0),
                    kind: self.lower_rand_kind(&rand.kind),
                },
                value: self.lower_expr(value_expr),
            },
        };
        let id = CStmtId(self.stmts.len() as u32);
        self.stmts.push(node);
        id
    }
}

/// Folds `a[i]` when it matches the interpreter's success path.
fn fold_index(a: &Value, i: &Value) -> Option<Value> {
    let i = i.as_int().ok()?;
    let items = a.as_array().ok()?;
    if i < 0 || i as usize >= items.len() {
        return None;
    }
    Some(items[i as usize].clone())
}

/// Cap on compile-time materialization of `[init; n]` literals.
const FOLD_ARRAY_MAX: i64 = 1024;

/// Folds `[init; n]` for small constant `n`. The folded value is shared by
/// `Arc` across evaluations; mutation goes through copy-on-write
/// (`Value::as_array_mut`), so sharing is invisible to the semantics.
fn fold_array_init(n: &Value, init: &Value) -> Option<Value> {
    let n = n.as_int().ok()?;
    if !(0..=FOLD_ARRAY_MAX).contains(&n) {
        return None;
    }
    Some(Value::array(vec![init.clone(); n as usize]))
}

// ---------------------------------------------------------------------------
// Expression evaluation: the one evaluator over compiled expressions.
// ---------------------------------------------------------------------------

/// The caller's side of [`CompiledProgram::eval`]: fuel, read tracking,
/// and the source of random choices (see the module docs).
pub trait EvalHooks {
    /// Charges `n` fuel ticks on entering a node (`n > 1` only for folded
    /// constants, whose original subtrees tick consecutively with no
    /// observable effect in between).
    ///
    /// # Errors
    ///
    /// Returns [`PplError::FuelExhausted`] when the budget runs out.
    fn charge(&mut self, n: u64) -> Result<(), PplError>;

    /// Notes a read of the variable `name`.
    fn read(&mut self, name: &'static str);

    /// Draws the value of the random choice at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the caller's sampling errors.
    fn draw(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError>;
}

impl CompiledProgram {
    /// Evaluates expression `id` against `frame`. Node visit order, fuel
    /// charging, draws and errors are bit-identical to the tree-walk
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors and the errors `hooks` returns.
    pub fn eval<H: EvalHooks>(
        &self,
        frame: &EvalFrame,
        id: ExprId,
        hooks: &mut H,
    ) -> Result<Value, PplError> {
        match self.expr(id) {
            CExpr::Const { value, ticks } => {
                hooks.charge(u64::from(*ticks))?;
                Ok(value.clone())
            }
            CExpr::Var { slot, name } => {
                hooks.charge(1)?;
                hooks.read(name);
                frame
                    .get(*slot)
                    .map(|s| s.value.clone())
                    .ok_or_else(|| PplError::UnboundVariable((*name).to_string()))
            }
            CExpr::Unary(op, e) => {
                hooks.charge(1)?;
                let v = self.eval(frame, *e, hooks)?;
                apply_unary(*op, &v)
            }
            CExpr::Binary(op, lhs, rhs) => {
                hooks.charge(1)?;
                let a = self.eval(frame, *lhs, hooks)?;
                let b = self.eval(frame, *rhs, hooks)?;
                apply_binary(*op, &a, &b)
            }
            CExpr::Index(arr, idx) => {
                hooks.charge(1)?;
                let a = self.eval(frame, *arr, hooks)?;
                let i = self.eval(frame, *idx, hooks)?.as_int()?;
                let items = a.as_array()?;
                if i < 0 || i as usize >= items.len() {
                    return Err(PplError::IndexOutOfBounds {
                        index: i,
                        len: items.len(),
                    });
                }
                Ok(items[i as usize].clone())
            }
            CExpr::ArrayInit(n, init) => {
                hooks.charge(1)?;
                let n = array_len(self.eval(frame, *n, hooks)?.as_int()?)?;
                let init = self.eval(frame, *init, hooks)?;
                Ok(Value::array(vec![init; n]))
            }
            CExpr::Call { builtin, args } => {
                hooks.charge(1)?;
                // Arity was verified at compile time and is at most 2:
                // evaluate into fixed scratch, no per-eval allocation.
                let args = self.args(*args);
                let mut vals: [Value; 2] = [Value::Int(0), Value::Int(0)];
                for (val, arg) in vals.iter_mut().zip(args) {
                    *val = self.eval(frame, *arg, hooks)?;
                }
                apply_builtin(*builtin, &vals[..args.len()])
            }
            CExpr::CallBadArity { builtin, got } => {
                hooks.charge(1)?;
                Err(bad_arity(*builtin, *got))
            }
            CExpr::Ternary(cond, then_e, else_e) => {
                hooks.charge(1)?;
                if self.eval(frame, *cond, hooks)?.truthy()? {
                    self.eval(frame, *then_e, hooks)
                } else {
                    self.eval(frame, *else_e, hooks)
                }
            }
            CExpr::Random(rand) => {
                hooks.charge(1)?;
                let dist = self.eval_dist(frame, &rand.kind, hooks)?;
                hooks.draw(frame.address_for(&rand.site), dist)
            }
        }
    }

    /// Evaluates a random expression's parameters into its distribution.
    ///
    /// # Errors
    ///
    /// As for [`CompiledProgram::eval`], plus invalid parameters.
    pub fn eval_dist<H: EvalHooks>(
        &self,
        frame: &EvalFrame,
        kind: &CRandKind,
        hooks: &mut H,
    ) -> Result<Dist, PplError> {
        let real = |e: ExprId, hooks: &mut H| self.eval(frame, e, hooks)?.as_real();
        match kind {
            CRandKind::Flip(p) => Dist::try_flip(real(*p, hooks)?),
            CRandKind::UniformInt(lo, hi) => {
                let lo = self.eval(frame, *lo, hooks)?.as_int()?;
                let hi = self.eval(frame, *hi, hooks)?.as_int()?;
                Dist::try_uniform_int(lo, hi)
            }
            CRandKind::UniformReal(lo, hi) => {
                let lo = real(*lo, hooks)?;
                Dist::try_uniform_real(lo, real(*hi, hooks)?)
            }
            CRandKind::Gauss(mean, std) => {
                let mean = real(*mean, hooks)?;
                Dist::try_normal(mean, real(*std, hooks)?)
            }
            CRandKind::Categorical(ws) => {
                let mut probs = Vec::with_capacity(ws.len());
                for w in self.args(*ws) {
                    probs.push(real(*w, hooks)?);
                }
                Dist::try_categorical(&probs)
            }
            CRandKind::Poisson(l) => Dist::try_poisson(real(*l, hooks)?),
            CRandKind::GeometricDist(p) => Dist::try_geometric(real(*p, hooks)?),
            CRandKind::Beta(a, b) => {
                let a = real(*a, hooks)?;
                Dist::try_beta(a, real(*b, hooks)?)
            }
            CRandKind::Exponential(r) => Dist::try_exponential(real(*r, hooks)?),
        }
    }
}

// ---------------------------------------------------------------------------
// Forward execution against a Handler (the compiled twin of crate::interp).
// ---------------------------------------------------------------------------

/// Runs a compiled program against `handler` with the given fuel budget,
/// using `frame` as scratch. Semantics (RNG draws, fuel charging, error
/// surface, return value) are bit-identical to
/// [`Interp::run_tree_walk`](crate::interp::Interp::run_tree_walk).
///
/// # Errors
///
/// Propagates evaluation and handler errors exactly as the tree-walk does.
pub fn run_compiled(
    prog: &CompiledProgram,
    frame: &mut EvalFrame,
    fuel: u64,
    handler: &mut dyn Handler,
) -> Result<Value, PplError> {
    telemetry().compiled_execs.fetch_add(1, Ordering::Relaxed);
    frame.prepare(prog.slot_count());
    let mut run = Run {
        prog,
        frame,
        hooks: Fueled {
            fuel,
            budget: fuel,
            handler,
        },
    };
    run.exec_block(prog.body())?;
    match prog.ret() {
        Some(e) => run.eval(e),
        None => Ok(Value::Int(0)),
    }
}

/// Forward execution's [`EvalHooks`]: a fuel budget and the handler that
/// samples choices.
struct Fueled<'h> {
    fuel: u64,
    budget: u64,
    handler: &'h mut dyn Handler,
}

impl EvalHooks for Fueled<'_> {
    fn charge(&mut self, n: u64) -> Result<(), PplError> {
        if self.fuel < n {
            return Err(PplError::FuelExhausted {
                budget: self.budget,
            });
        }
        self.fuel -= n;
        Ok(())
    }

    fn read(&mut self, _name: &'static str) {}

    fn draw(&mut self, addr: Address, dist: Dist) -> Result<Value, PplError> {
        self.handler.sample(addr, dist)
    }
}

struct Run<'a> {
    prog: &'a CompiledProgram,
    frame: &'a mut EvalFrame,
    hooks: Fueled<'a>,
}

impl Run<'_> {
    fn eval(&mut self, id: ExprId) -> Result<Value, PplError> {
        self.prog.eval(self.frame, id, &mut self.hooks)
    }

    fn exec_block(&mut self, id: CBlockId) -> Result<(), PplError> {
        let prog = self.prog;
        for &sid in &prog.block(id).stmts {
            self.exec_stmt(sid)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, id: CStmtId) -> Result<(), PplError> {
        self.hooks.charge(1)?;
        let prog = self.prog;
        match prog.stmt(id) {
            CStmt::Skip => Ok(()),
            CStmt::Assign { slot, expr, .. } => {
                let v = self.eval(*expr)?;
                self.frame.bind(*slot, v, false);
                Ok(())
            }
            CStmt::AssignIndex {
                slot,
                name,
                index,
                expr,
            } => {
                let i = self.eval(*index)?.as_int()?;
                let v = self.eval(*expr)?;
                let s = self
                    .frame
                    .get_mut(*slot)
                    .ok_or_else(|| PplError::UnboundVariable(name.to_string()))?;
                let items = s.value.as_array_mut()?;
                if i < 0 || i as usize >= items.len() {
                    return Err(PplError::IndexOutOfBounds {
                        index: i,
                        len: items.len(),
                    });
                }
                items[i as usize] = v;
                Ok(())
            }
            CStmt::If {
                cond,
                then_b,
                else_b,
            } => {
                if self.eval(*cond)?.truthy()? {
                    self.exec_block(*then_b)
                } else {
                    self.exec_block(*else_b)
                }
            }
            CStmt::While { cond, body } => {
                let mut iter = 0_i64;
                loop {
                    self.frame.push_loop(iter);
                    let keep_going = self.eval(*cond).and_then(|v| v.truthy());
                    match keep_going {
                        Ok(true) => {}
                        other => {
                            self.frame.pop_loop();
                            return other.map(|_| ());
                        }
                    }
                    let r = self.exec_block(*body);
                    self.frame.pop_loop();
                    r?;
                    iter += 1;
                }
            }
            CStmt::For {
                slot, lo, hi, body, ..
            } => {
                let lo = self.eval(*lo)?.as_int()?;
                let hi = self.eval(*hi)?.as_int()?;
                for i in lo..hi {
                    // One tick per iteration, as the tree-walk charges.
                    self.hooks.charge(1)?;
                    self.frame.bind(*slot, Value::Int(i), false);
                    self.frame.push_loop(i);
                    let r = self.exec_block(*body);
                    self.frame.pop_loop();
                    r?;
                }
                Ok(())
            }
            CStmt::Observe { rand, value } => {
                let dist = prog.eval_dist(self.frame, &rand.kind, &mut self.hooks)?;
                let v = self.eval(*value)?;
                let addr = self.frame.address_for(&rand.site);
                self.hooks.handler.observe(addr, dist, v)
            }
        }
    }
}

/// The interpreter's arity-mismatch error, reproduced verbatim.
pub fn bad_arity(builtin: Builtin, got: usize) -> PplError {
    PplError::Other(format!(
        "{} expects {} argument(s), got {}",
        builtin.name(),
        builtin.arity(),
        got
    ))
}

// ---------------------------------------------------------------------------
// Compile cache.
// ---------------------------------------------------------------------------

/// Bound on cached compiled programs; the cache is cleared wholesale when
/// it fills (edit sequences reuse a handful of programs, so eviction
/// sophistication buys nothing).
const CACHE_MAX: usize = 256;

fn cache() -> &'static RwLock<FxHashMap<u64, Arc<CompiledProgram>>> {
    static CACHE: OnceLock<RwLock<FxHashMap<u64, Arc<CompiledProgram>>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(FxHashMap::default()))
}

fn cache_key(tag: u8, program: &Program, extra: Option<&Program>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(tag);
    h.write(format!("{program:?}").as_bytes());
    if let Some(p) = extra {
        h.write(format!("{p:?}").as_bytes());
    }
    h.finish()
}

fn cached(key: u64, make: impl FnOnce() -> CompiledProgram) -> Arc<CompiledProgram> {
    let t = telemetry();
    if let Some(hit) = cache().read().expect("compile cache poisoned").get(&key) {
        t.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(hit);
    }
    t.cache_misses.fetch_add(1, Ordering::Relaxed);
    let compiled = Arc::new(make());
    let mut w = cache().write().expect("compile cache poisoned");
    if let Some(hit) = w.get(&key) {
        return Arc::clone(hit);
    }
    if w.len() >= CACHE_MAX {
        w.clear();
    }
    w.insert(key, Arc::clone(&compiled));
    compiled
}

/// The compiled form of `program`, from the global fingerprint-keyed
/// cache (compiling on first use). One compile is shared by every caller
/// — per-particle graph builds hit the cache.
pub fn compiled_for(program: &Program) -> Arc<CompiledProgram> {
    cached(cache_key(0, program, None), || compile(program))
}

/// Per-thread bound on pointer-keyed memo entries (edit sequences cycle
/// through a handful of live programs).
const SHARED_MEMO_MAX: usize = 8;

thread_local! {
    static SHARED_MEMO: RefCell<Vec<(Arc<Program>, Arc<CompiledProgram>)>> =
        const { RefCell::new(Vec::new()) };
}

/// [`compiled_for`] for a shared program handle: a per-thread memo keyed
/// by `Arc` pointer identity skips the fingerprint hash (a full AST
/// format) when the same handle recurs — the per-particle graph builds
/// along an edit sequence. The memo holds its key `Arc`s, so a memoized
/// pointer can never be freed and recycled while the entry lives.
pub fn compiled_for_shared(program: &Arc<Program>) -> Arc<CompiledProgram> {
    let memo_hit = SHARED_MEMO.with(|m| {
        m.borrow()
            .iter()
            .find(|(p, _)| Arc::ptr_eq(p, program))
            .map(|(_, c)| Arc::clone(c))
    });
    if let Some(compiled) = memo_hit {
        telemetry().cache_hits.fetch_add(1, Ordering::Relaxed);
        return compiled;
    }
    let compiled = compiled_for(program);
    SHARED_MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len() >= SHARED_MEMO_MAX {
            m.clear();
        }
        m.push((Arc::clone(program), Arc::clone(&compiled)));
    });
    compiled
}

/// The compiled form of `q` whose slot universe also covers every
/// variable of `p` — what change propagation from a `P`-graph needs (old
/// records replay `P`-named effects into the frame). Cached under the
/// pair of fingerprints.
pub fn compiled_for_pair(q: &Program, p: &Program) -> Arc<CompiledProgram> {
    cached(cache_key(1, q, Some(p)), || {
        let mut extra: Vec<&str> = Vec::new();
        collect_var_names(p, &mut extra);
        compile_with_extra_names(q, &extra)
    })
}

// ---------------------------------------------------------------------------
// Frame pool.
// ---------------------------------------------------------------------------

/// Per-thread bound on pooled frames (particle tasks are sequential per
/// worker; a small headroom covers re-entrant evaluation).
const FRAME_POOL_MAX: usize = 8;

thread_local! {
    static FRAME_POOL: RefCell<Vec<EvalFrame>> = const { RefCell::new(Vec::new()) };
}

/// A pooled [`EvalFrame`]: dereferences to the frame, returns the storage
/// to the owning worker's pool on drop.
#[derive(Debug)]
pub struct PooledFrame {
    frame: Option<EvalFrame>,
}

impl std::ops::Deref for PooledFrame {
    type Target = EvalFrame;
    fn deref(&self) -> &EvalFrame {
        self.frame.as_ref().expect("frame present until drop")
    }
}

impl std::ops::DerefMut for PooledFrame {
    fn deref_mut(&mut self) -> &mut EvalFrame {
        self.frame.as_mut().expect("frame present until drop")
    }
}

impl Drop for PooledFrame {
    fn drop(&mut self) {
        if let Some(frame) = self.frame.take() {
            FRAME_POOL.with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < FRAME_POOL_MAX {
                    pool.push(frame);
                }
            });
        }
    }
}

/// Takes a frame from the current worker thread's pool (allocating one
/// the first time). The frame keeps its slot/loop capacity across uses,
/// so a warmed worker evaluates with zero per-eval allocation.
pub fn acquire_frame() -> PooledFrame {
    let t = telemetry();
    let frame = FRAME_POOL.with(|pool| pool.borrow_mut().pop());
    let frame = match frame {
        Some(f) => {
            t.frames_reused.fetch_add(1, Ordering::Relaxed);
            f
        }
        None => {
            t.frames_created.fetch_add(1, Ordering::Relaxed);
            EvalFrame::new()
        }
    };
    PooledFrame { frame: Some(frame) }
}

// ---------------------------------------------------------------------------
// Telemetry.
// ---------------------------------------------------------------------------

struct Telemetry {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    compiled_execs: AtomicU64,
    tree_walk_execs: AtomicU64,
    frames_created: AtomicU64,
    frames_reused: AtomicU64,
}

fn telemetry() -> &'static Telemetry {
    static T: OnceLock<Telemetry> = OnceLock::new();
    T.get_or_init(|| Telemetry {
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        compiled_execs: AtomicU64::new(0),
        tree_walk_execs: AtomicU64::new(0),
        frames_created: AtomicU64::new(0),
        frames_reused: AtomicU64::new(0),
    })
}

/// A snapshot of the compiled-evaluation counters (process-global,
/// monotonically increasing between [`reset_eval_counters`] calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Compile-cache lookups served from the cache.
    pub compile_cache_hits: u64,
    /// Compile-cache lookups that compiled.
    pub compile_cache_misses: u64,
    /// Program executions through the compiled path.
    pub compiled_execs: u64,
    /// Program executions through the tree-walk reference path.
    pub tree_walk_execs: u64,
    /// Eval frames allocated fresh.
    pub frames_created: u64,
    /// Eval frames reused from a worker pool.
    pub frames_reused: u64,
}

/// Reads the current counter values.
pub fn eval_counters() -> EvalCounters {
    let t = telemetry();
    EvalCounters {
        compile_cache_hits: t.cache_hits.load(Ordering::Relaxed),
        compile_cache_misses: t.cache_misses.load(Ordering::Relaxed),
        compiled_execs: t.compiled_execs.load(Ordering::Relaxed),
        tree_walk_execs: t.tree_walk_execs.load(Ordering::Relaxed),
        frames_created: t.frames_created.load(Ordering::Relaxed),
        frames_reused: t.frames_reused.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters (the metrics layer does this on install so a
/// report covers exactly one observed run).
pub fn reset_eval_counters() {
    let t = telemetry();
    t.cache_hits.store(0, Ordering::Relaxed);
    t.cache_misses.store(0, Ordering::Relaxed);
    t.compiled_execs.store(0, Ordering::Relaxed);
    t.tree_walk_execs.store(0, Ordering::Relaxed);
    t.frames_created.store(0, Ordering::Relaxed);
    t.frames_reused.store(0, Ordering::Relaxed);
}

/// Counts one execution through the tree-walk reference interpreter.
pub fn note_tree_walk_exec() {
    telemetry().tree_walk_execs.fetch_add(1, Ordering::Relaxed);
}

/// Counts one execution through a compiled program outside
/// [`run_compiled`] (the dependency-graph walker calls this).
pub fn note_compiled_exec() {
    telemetry().compiled_execs.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Block, Expr};
    use crate::parse;

    fn count_folded(prog: &CompiledProgram) -> usize {
        prog.exprs
            .iter()
            .filter(|e| matches!(e, CExpr::Const { ticks, .. } if *ticks > 1))
            .count()
    }

    /// The outermost folded constant (folding is bottom-up, so the last
    /// folded node in arena order covers the whole subtree).
    fn last_folded(prog: &CompiledProgram) -> (Value, u32) {
        prog.exprs
            .iter()
            .filter_map(|e| match e {
                CExpr::Const { value, ticks } if *ticks > 1 => Some((value.clone(), *ticks)),
                _ => None,
            })
            .next_back()
            .unwrap()
    }

    #[test]
    fn constants_fold_with_tick_parity() {
        // `1 + 2 * 3` folds bottom-up: `2 * 3` to Const(6) with 3 ticks,
        // then the whole sum to Const(7) carrying all 5 ticks (add, mul,
        // three literals).
        let p = parse("x = 1 + 2 * 3; return x;").unwrap();
        let c = compile(&p);
        assert_eq!(count_folded(&c), 2);
        assert_eq!(last_folded(&c), (Value::Int(7), 5));
    }

    #[test]
    fn failing_operations_do_not_fold() {
        // Division by a constant zero must stay a runtime error, not a
        // compile failure or a folded poison value.
        let p = parse("x = 1 / 0; return x;").unwrap();
        let c = compile(&p);
        assert_eq!(count_folded(&c), 0);
        assert!(c
            .exprs
            .iter()
            .any(|e| matches!(e, CExpr::Binary(BinOp::Div, _, _))));
    }

    #[test]
    fn bad_arity_is_preserved_not_rejected() {
        let p = Program::new(
            Block::new(vec![Stmt::Assign(
                "x".into(),
                Expr::Call(Builtin::Sqrt, vec![Expr::int(1), Expr::int(2)]),
            )]),
            None,
        );
        let c = compile(&p);
        assert!(c
            .exprs
            .iter()
            .any(|e| matches!(e, CExpr::CallBadArity { got: 2, .. })));
    }

    #[test]
    fn slots_cover_reads_writes_and_loop_vars() {
        let p = parse("s = 0; for i in [0..3) { s = s + i; } return s + ghost;").unwrap();
        let c = compile(&p);
        assert!(c.slot_of("s").is_some());
        assert!(c.slot_of("i").is_some());
        // A never-written name still has a slot (it errors at runtime).
        assert!(c.slot_of("ghost").is_some());
        assert_eq!(c.slot_count(), 3);
    }

    #[test]
    fn extra_names_extend_the_slot_table() {
        let q = parse("x = 1; return x;").unwrap();
        let p = parse("y = 2; x = y; return x;").unwrap();
        let c = compile(&q);
        assert!(c.slot_of("y").is_none());
        let mut extra: Vec<&str> = Vec::new();
        collect_var_names(&p, &mut extra);
        let c2 = compile_with_extra_names(&q, &extra);
        assert!(c2.slot_of("y").is_some());
        assert!(c2.slot_of("x").is_some());
    }

    #[test]
    fn blocks_are_index_aligned_with_the_ast() {
        let p = parse("a = 1; skip; if a < 2 { b = 2; c = 3; } else { } return a;").unwrap();
        let c = compile(&p);
        let body = c.block(c.body());
        assert_eq!(body.stmts.len(), p.body.stmts().len());
        let CStmt::If { then_b, .. } = c.stmt(body.stmts[2]) else {
            panic!("third statement is the if");
        };
        let then_stmts = &c.block(*then_b).stmts;
        assert_eq!(then_stmts.len(), 2);
        assert!(matches!(c.stmt(then_stmts[0]), CStmt::Assign { name, .. } if *name == "b"));
    }

    #[test]
    fn compile_cache_hits_on_equal_programs() {
        let p = parse("unique_cache_probe_var = 41; return unique_cache_probe_var;").unwrap();
        let before = eval_counters();
        let a = compiled_for(&p);
        let b = compiled_for(&p);
        assert!(Arc::ptr_eq(&a, &b));
        let after = eval_counters();
        assert!(after.compile_cache_hits > before.compile_cache_hits);
    }

    #[test]
    fn pooled_frames_are_reused_on_the_same_thread() {
        // Isolate from other tests by measuring deltas.
        let before = eval_counters();
        {
            let mut f = acquire_frame();
            f.prepare(4);
            f.bind(SlotId(0), Value::Int(1), false);
        }
        let f2 = acquire_frame();
        drop(f2);
        let after = eval_counters();
        assert!(
            after.frames_reused > before.frames_reused
                || after.frames_created > before.frames_created
        );
    }

    #[test]
    fn huge_arrays_are_the_same_typed_error_as_in_the_tree_walk() {
        use crate::handlers::PriorSampler;
        use crate::interp::{Interp, MAX_ARRAY_LEN};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for n in ["100000000000", "9223372036854775807"] {
            let p = parse(&format!("x = array({n}, 0); return 0;")).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            let mut h = PriorSampler::new(&mut rng);
            let err = run_compiled(&compile(&p), &mut EvalFrame::new(), 1_000, &mut h).unwrap_err();
            assert_eq!(
                err,
                PplError::ArrayTooLong {
                    len: n.parse().unwrap(),
                    limit: MAX_ARRAY_LEN,
                }
            );
            let tree = Interp::new().run_tree_walk(&p, &mut h).unwrap_err();
            assert_eq!(err, tree);
        }
    }

    #[test]
    fn folded_ternary_takes_the_constant_branch() {
        let p = parse("x = 1 < 2 ? 10 : 20; return x;").unwrap();
        let c = compile(&p);
        // cond (3 ticks: lt + two literals) + taken branch literal (1) +
        // ternary node (1) = 5 ticks.
        assert_eq!(last_folded(&c), (Value::Int(10), 5));
    }
}
