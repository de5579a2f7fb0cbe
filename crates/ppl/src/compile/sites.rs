//! Site paths: where in a compiled program each random site is evaluated.
//!
//! An address `site/i₁/…/iₖ` names the site's statement plus one index
//! per enclosing loop. A [`SiteTable`] maps each site label to the static
//! paths of the statements that evaluate it, so a structure that mirrors
//! the compiled blocks statement by statement — an execution graph's
//! records — can resolve an address in O(nesting depth) steps.

use std::sync::Arc;

use super::{CBlockId, CExpr, CRandKind, CStmt, CStmtId, CompiledProgram, ExprId};
use crate::fxhash::FxHashMap;

/// One step of a [`SitePath`], from the root block towards the statement
/// that evaluates a site. Loop steps consume the address's indices in
/// order, outermost loop first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteStep {
    /// Statement `i` of the current block. In the root block, `i` equal to
    /// the body's length names the return expression.
    Stmt(u32),
    /// The current `if`'s then (`true`) or else (`false`) branch.
    Branch(bool),
    /// The current `for`'s iteration `i`, for the next address index `i`.
    ForIter,
    /// The body of the current `while`'s iteration named by the next
    /// address index.
    WhileBody,
    /// The condition of the current `while`'s iteration named by the next
    /// address index (always a path's last step).
    WhileCond,
}

/// The static path of one statement (or `while` condition) that evaluates
/// a random site. A path ending in [`SiteStep::Stmt`] names the
/// statement's own evaluation: an `if` condition, `for` bounds, or a leaf.
#[derive(Debug, Clone, Copy)]
pub struct SitePath<'t> {
    steps: &'t [SiteStep],
    loops: usize,
}

impl SitePath<'_> {
    /// The steps from the root block, in order.
    pub fn steps(&self) -> &[SiteStep] {
        self.steps
    }

    /// Number of loop steps: how many index components an address
    /// evaluated at this path carries.
    pub fn loops(&self) -> usize {
        self.loops
    }
}

/// Where one path's steps sit in [`SiteTable`]'s step arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathSpan {
    start: u32,
    len: u32,
    loops: u32,
}

/// Site label → the paths that evaluate it, in pre-order (the order a run
/// reaches them in, for any one address), with random choices and
/// observations kept apart. Compiled blocks are index-aligned with the
/// AST, so a path is valid in any structure that mirrors the program's
/// blocks statement by statement.
///
/// The table lives as long as its compiled program, which the compile
/// cache keeps, so it is laid out flat: a site maps to a run of path
/// spans, and the spans index one step arena.
#[derive(Debug, Default)]
pub struct SiteTable {
    /// Random choice site → its run of `paths` (start, length).
    choices: FxHashMap<Arc<str>, (u32, u32)>,
    /// Observation site → its run of `paths` (start, length).
    observations: FxHashMap<Arc<str>, (u32, u32)>,
    /// Every site's paths, one run per site.
    paths: Vec<PathSpan>,
    /// The steps of every path, back to back.
    steps: Vec<SiteStep>,
}

impl SiteTable {
    /// The paths evaluating the random choice site `site`.
    pub fn choice_paths(&self, site: &str) -> impl Iterator<Item = SitePath<'_>> {
        self.paths_of(self.choices.get(site))
    }

    /// The paths evaluating the observation site `site`.
    pub fn observation_paths(&self, site: &str) -> impl Iterator<Item = SitePath<'_>> {
        self.paths_of(self.observations.get(site))
    }

    fn paths_of(&self, run: Option<&(u32, u32)>) -> impl Iterator<Item = SitePath<'_>> {
        let (start, len) = run.map_or((0, 0), |&(s, l)| (s as usize, l as usize));
        self.paths[start..start + len].iter().map(|p| SitePath {
            steps: &self.steps[p.start as usize..(p.start + p.len) as usize],
            loops: p.loops as usize,
        })
    }

    pub(super) fn build(prog: &CompiledProgram) -> SiteTable {
        let mut collector = SiteCollector {
            prog,
            path: Vec::new(),
            steps: Vec::new(),
            found: Vec::new(),
        };
        collector.block(prog.body());
        if let Some(ret) = prog.ret() {
            let body_len = prog.block(prog.body()).stmts.len() as u32;
            collector.path.push(SiteStep::Stmt(body_len));
            collector.expr(ret);
        }
        let SiteCollector {
            steps, mut found, ..
        } = collector;
        // Gather each site's paths into one run; the sort is stable, so a
        // run stays in pre-order. A site a statement evaluates twice has
        // the same span twice in a row.
        found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        found.dedup();
        let mut table = SiteTable {
            steps,
            ..SiteTable::default()
        };
        table.steps.shrink_to_fit();
        table.paths.reserve_exact(found.len());
        for run in found.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1) {
            let (choice, site, _) = &run[0];
            let map = if *choice {
                &mut table.choices
            } else {
                &mut table.observations
            };
            map.insert(
                Arc::clone(site),
                (table.paths.len() as u32, run.len() as u32),
            );
            table.paths.extend(run.iter().map(|f| f.2));
        }
        table
    }
}

/// Walks a compiled program once in pre-order, recording every random
/// site with the path of the statement evaluating it.
struct SiteCollector<'a> {
    prog: &'a CompiledProgram,
    /// The path to the statement being walked.
    path: Vec<SiteStep>,
    /// The steps of the paths recorded so far, back to back.
    steps: Vec<SiteStep>,
    /// Every site met, in pre-order: (is a choice, label, path).
    found: Vec<(bool, Arc<str>, PathSpan)>,
}

impl SiteCollector<'_> {
    fn nested(&mut self, step: SiteStep, walk: impl FnOnce(&mut Self)) {
        self.path.push(step);
        walk(self);
        self.path.pop();
    }

    fn block(&mut self, id: CBlockId) {
        let prog = self.prog;
        for (i, &stmt) in prog.block(id).stmts.iter().enumerate() {
            self.nested(SiteStep::Stmt(i as u32), |c| c.stmt(stmt));
        }
    }

    fn stmt(&mut self, id: CStmtId) {
        let prog = self.prog;
        match prog.stmt(id) {
            CStmt::Skip => {}
            CStmt::Assign { expr, .. } => self.expr(*expr),
            CStmt::AssignIndex { index, expr, .. } => {
                self.expr(*index);
                self.expr(*expr);
            }
            CStmt::Observe { rand, value } => {
                self.rand_kind(&rand.kind);
                self.expr(*value);
                self.file(false, &rand.site);
            }
            CStmt::If {
                cond,
                then_b,
                else_b,
            } => {
                self.expr(*cond);
                self.nested(SiteStep::Branch(true), |c| c.block(*then_b));
                self.nested(SiteStep::Branch(false), |c| c.block(*else_b));
            }
            CStmt::For { lo, hi, body, .. } => {
                self.expr(*lo);
                self.expr(*hi);
                self.nested(SiteStep::ForIter, |c| c.block(*body));
            }
            CStmt::While { cond, body } => {
                self.nested(SiteStep::WhileCond, |c| c.expr(*cond));
                self.nested(SiteStep::WhileBody, |c| c.block(*body));
            }
        }
    }

    fn expr(&mut self, id: ExprId) {
        let prog = self.prog;
        match prog.expr(id) {
            CExpr::Const { .. } | CExpr::Var { .. } | CExpr::CallBadArity { .. } => {}
            CExpr::Unary(_, a) => self.expr(*a),
            CExpr::Binary(_, a, b) | CExpr::Index(a, b) | CExpr::ArrayInit(a, b) => {
                self.expr(*a);
                self.expr(*b);
            }
            CExpr::Call { args, .. } => {
                for &arg in prog.args(*args) {
                    self.expr(arg);
                }
            }
            CExpr::Ternary(c, t, e) => {
                self.expr(*c);
                self.expr(*t);
                self.expr(*e);
            }
            CExpr::Random(rand) => {
                self.rand_kind(&rand.kind);
                self.file(true, &rand.site);
            }
        }
    }

    fn rand_kind(&mut self, kind: &CRandKind) {
        match kind {
            CRandKind::Flip(a)
            | CRandKind::Poisson(a)
            | CRandKind::GeometricDist(a)
            | CRandKind::Exponential(a) => self.expr(*a),
            CRandKind::UniformInt(a, b)
            | CRandKind::UniformReal(a, b)
            | CRandKind::Gauss(a, b)
            | CRandKind::Beta(a, b) => {
                self.expr(*a);
                self.expr(*b);
            }
            CRandKind::Categorical(ws) => {
                let prog = self.prog;
                for &w in prog.args(*ws) {
                    self.expr(w);
                }
            }
        }
    }

    /// Records `site` at the current path. The sites of one statement
    /// share one copy of its path's steps.
    fn file(&mut self, choice: bool, site: &Arc<str>) {
        let span = match self.found.last() {
            Some(&(_, _, last)) if self.steps[last.start as usize..] == self.path[..] => last,
            _ => {
                let loops = self
                    .path
                    .iter()
                    .filter(|s| {
                        matches!(
                            s,
                            SiteStep::ForIter | SiteStep::WhileBody | SiteStep::WhileCond
                        )
                    })
                    .count();
                let span = PathSpan {
                    start: self.steps.len() as u32,
                    len: self.path.len() as u32,
                    loops: loops as u32,
                };
                self.steps.extend_from_slice(&self.path);
                span
            }
        };
        self.found.push((choice, Arc::clone(site), span));
    }
}
