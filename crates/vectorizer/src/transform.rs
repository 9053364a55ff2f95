//! The offline auto-vectorizer: IR loop nests → vectorized bytecode.
//!
//! Implements the first compilation stage of §III-B: dependence checking,
//! reduction/idiom recognition (dot product, widening multiply, the SAD
//! abs-diff pattern), strided accesses via `extract`/`interleave`,
//! inner- and outer-loop vectorization, alignment analysis producing
//! `mis`/`mod` hints, and version-guard emission (`no_alias`,
//! `base_aligned`, `stride_aligned`, type/op support) with scalar
//! fall-back arms and scalar tail loops driven by `loop_bound`.

use std::collections::HashMap;

use vapor_bytecode::{
    Addr, ArraySym, BcFunction, BcStmt, BcTy, GuardCond, LoopKind, Op, OpClass, Operand, Reg,
    ShiftAmt, Step,
};
use vapor_ir::{infer_expr, ArrayId, ArrayKind, BinOp, Expr, Kernel, ScalarTy, Stmt, UnOp, VarId};
use vapor_targets::{MisalignedAccess, Support, TargetDesc};

use crate::affine::{analyze, Affine, Coeff};
use crate::depgraph::{classify_dep, DepClass, DepGraph, RejectCategory, Rejection, Scc};
use crate::scalar_emit::{new_function, split_const_offset, ScalarEmitter};

/// The modulo base for misalignment hints: "a large modulo (currently set
/// to 32 bytes, the largest SIMD width available today)" (§III-B(c)).
pub const HINT_MOD: u32 = 32;

/// Constant element offsets below this bound are assumed smaller than any
/// runtime array dimension when deciding symbolic-stride independence
/// (stencil ±k offsets across rows). The experiment dimensions are ≥ 32.
/// Lives in `depgraph` with the dependence classifier; re-exported here
/// for compatibility.
pub use crate::depgraph::SMALL_DIFF;

/// Vectorization features exercised by a loop (Table 2's annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Scalar reduction accumulated in a vector.
    Reduction,
    /// `dot_product` idiom.
    DotProduct,
    /// Widening multiplication.
    WidenMult,
    /// SAD abs-difference pattern.
    AbsDiff,
    /// Strided loads (`extract`) or stores (`interleave`).
    Strided,
    /// Realignment of misaligned loads.
    Realign,
    /// Straight-line (SLP) group merged before vectorization.
    Slp,
    /// Lane-wise int↔float conversions.
    Cvt,
    /// Outer-loop vectorization.
    OuterLoop,
    /// Version guards emitted.
    Versioned,
}

/// Per-loop vectorization outcome.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Human-readable loop identification.
    pub description: String,
    /// Whether the loop (or at least one distributed sub-loop) was
    /// vectorized.
    pub vectorized: bool,
    /// Features used.
    pub features: Vec<Feature>,
    /// Rejection reason when not vectorized.
    pub reason: Option<Rejection>,
    /// Per-SCC verdicts when Allen–Kennedy distribution analyzed the
    /// loop body (empty for undistributed loops).
    pub parts: Vec<PartReport>,
}

/// Outcome of one SCC of a distributed loop.
#[derive(Debug, Clone)]
pub struct PartReport {
    /// Top-level statement indices (into the original loop body) of the
    /// statements in this component, ascending.
    pub stmts: Vec<usize>,
    /// Whether this sub-loop was vectorized.
    pub vectorized: bool,
    /// Why it stayed scalar.
    pub reason: Option<Rejection>,
}

/// Options of the offline stage.
#[derive(Debug, Clone, Default)]
pub struct VectorizeOptions {
    /// `Some(target)`: monolithic *native* mode — the vectorizer knows
    /// the machine, forces global-array alignment, assumes `restrict`
    /// parameters, and resolves support guards statically.
    /// `None`: portable *split* mode (the paper's contribution).
    pub native: Option<TargetDesc>,
    /// Disable the alignment work of §III-B(c) — no hints, no alignment
    /// versioning (the §V-A(b) ablation). Defaults to enabled.
    pub no_alignment_opts: bool,
    /// Disable the *optimized realignment* of §III-A (cross-iteration
    /// reuse of the previous aligned load, Figure 2d/3a): every realigned
    /// load then performs both aligned loads itself. Ablates the design
    /// choice that "having the offline compiler generate already
    /// optimized bytecode is better".
    pub no_realign_reuse: bool,
}

/// Result of vectorizing a kernel.
#[derive(Debug, Clone)]
pub struct VectorizeResult {
    /// The (possibly) vectorized bytecode.
    pub func: BcFunction,
    /// Per-loop reports.
    pub reports: Vec<LoopReport>,
}

/// A vectorized value: one full vector of the loop's smallest element
/// type, or two half-width vectors of a 2×-wider type.
#[derive(Debug, Clone, Copy)]
enum VecVal {
    Full(Reg),
    Halves(Reg, Reg),
}

impl VecVal {
    fn full(self) -> Result<Reg, String> {
        match self {
            VecVal::Full(r) => Ok(r),
            VecVal::Halves(..) => Err("expected full-width vector value".into()),
        }
    }
}

/// Information about one memory access in the candidate loop region.
#[derive(Debug, Clone)]
struct AccessInfo {
    array: ArrayId,
    affine: Affine,
    is_store: bool,
}

/// The plan for one vectorizable loop.
#[derive(Debug)]
struct LoopPlan {
    vf_ty: ScalarTy,
    features: Vec<Feature>,
    /// Element types used in vector code (for `TypeSupported` guards).
    elem_tys: Vec<ScalarTy>,
    /// Special op classes used (for `OpsSupported` guards).
    op_classes: Vec<OpClass>,
    /// Arrays accessed by vector code.
    arrays: Vec<ArrayId>,
    /// Arrays written by vector code.
    stored_arrays: Vec<ArrayId>,
    /// Symbolic strides needing `stride_aligned` guards: (array, param).
    sym_strides: Vec<(ArrayId, VarId)>,
}

/// Result of an Allen–Kennedy distribution attempt on a rejected loop.
enum DistOutcome {
    /// Distributed sub-loops were emitted into `out`; the flag says
    /// whether at least one of them vectorized.
    Emitted(bool),
    /// Nothing vectorizable: no emission change (the caller keeps the
    /// speculative scalar body), but the report carries the SCC verdicts.
    ReportedOnly,
    /// Distribution does not apply; report the whole-loop reason.
    NotApplicable,
}

struct Vx<'k> {
    kernel: &'k Kernel,
    opts: &'k VectorizeOptions,
    em: ScalarEmitter<'k>,
    next_group: u32,
    reports: Vec<LoopReport>,
    /// Whether the SLP pre-pass rewrote this kernel: SLP-origin loops
    /// cannot be peeled for alignment, so a native compiler emits the
    /// misaligned version only (the paper's mix-streams situation).
    slp_done: bool,
}

/// Vectorize a kernel per the options.
pub fn vectorize(kernel: &Kernel, opts: &VectorizeOptions) -> VectorizeResult {
    let slp = crate::slp::apply(kernel);
    let (kernel, slp_applied) = match &slp {
        Some(k2) => (k2, true),
        None => (kernel, false),
    };
    let mut f = new_function(kernel);
    let mut vx = Vx {
        kernel,
        opts,
        em: ScalarEmitter::new(kernel),
        next_group: 1,
        reports: Vec::new(),
        slp_done: slp_applied,
    };
    let mut body = Vec::new();
    for s in &kernel.body {
        vx.vx_stmt(&mut f, &mut body, s);
    }
    f.body = body;
    if slp_applied {
        for r in vx.reports.iter_mut().filter(|r| r.vectorized) {
            r.features.push(Feature::Slp);
        }
    }
    VectorizeResult {
        func: f,
        reports: vx.reports,
    }
}

impl<'k> Vx<'k> {
    fn native(&self) -> Option<&TargetDesc> {
        self.opts.native.as_ref()
    }

    fn vx_stmt(&mut self, f: &mut BcFunction, out: &mut Vec<BcStmt>, s: &Stmt) -> bool {
        match s {
            Stmt::For { .. } => self.vx_for(f, out, s),
            other => {
                self.em.emit_stmt(f, out, other);
                false
            }
        }
    }

    /// Emit a `for` statement; returns whether anything beneath (or the
    /// loop itself) was vectorized.
    fn vx_for(&mut self, f: &mut BcFunction, out: &mut Vec<BcStmt>, s: &Stmt) -> bool {
        let Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } = s
        else {
            unreachable!()
        };
        // Innermost-first: give nested loops their chance.
        let mut inner_out = Vec::new();
        let before_regs = f.regs.len();
        let report_mark = self.reports.len();
        let mut any_inner = false;
        for st in body {
            any_inner |= self.vx_stmt(f, &mut inner_out, st);
        }
        if !any_inner {
            match self.analyze_loop(*var, *step, lo, hi, body) {
                Ok(plan) => {
                    // Discard the speculative scalar emission of the body.
                    f.regs.truncate(before_regs.max(f.params.len()));
                    self.reports.truncate(report_mark);
                    // Re-create registers dropped by truncation.
                    self.em.vmap.retain(|_, r| (r.0 as usize) < f.regs.len());
                    let desc = format!("loop over {}", self.kernel.var(*var).name);
                    let mut features = plan.features.clone();
                    let mut vec_out = Vec::new();
                    match self.emit_vectorized(
                        f,
                        &mut vec_out,
                        *var,
                        lo,
                        hi,
                        body,
                        plan,
                        &mut features,
                    ) {
                        Ok(()) => {
                            out.extend(vec_out);
                            self.reports.push(LoopReport {
                                description: desc,
                                vectorized: true,
                                features,
                                reason: None,
                                parts: Vec::new(),
                            });
                            return true;
                        }
                        Err(reason) => {
                            // Roll back to plain scalar emission.
                            self.reports.push(LoopReport {
                                description: desc,
                                vectorized: false,
                                features: Vec::new(),
                                reason: Some(Rejection::new(
                                    RejectCategory::EmitFailure,
                                    reason,
                                )),
                                parts: Vec::new(),
                            });
                            self.emit_plain_loop(f, out, *var, lo, hi, *step, body);
                            return false;
                        }
                    }
                }
                Err(reason) => {
                    // Allen–Kennedy: before giving up on the whole loop,
                    // try to distribute it per dependence SCC.
                    match self.try_distribute(f, out, *var, lo, hi, *step, body, before_regs, report_mark)
                    {
                        DistOutcome::Emitted(vectorized) => return vectorized,
                        DistOutcome::ReportedOnly => {
                            // SCC structure recorded; the speculative
                            // scalar emission below stays byte-identical.
                        }
                        DistOutcome::NotApplicable => {
                            self.reports.push(LoopReport {
                                description: format!(
                                    "loop over {}",
                                    self.kernel.var(*var).name
                                ),
                                vectorized: false,
                                features: Vec::new(),
                                reason: Some(reason),
                                parts: Vec::new(),
                            });
                        }
                    }
                }
            }
        }
        // Plain loop shell around the (possibly inner-vectorized) body.
        let lo_v = self.em.emit_expr(f, out, lo, ScalarTy::I64);
        let hi_v = self.em.emit_expr(f, out, hi, ScalarTy::I64);
        let ivar = self.em.var_reg(f, *var);
        out.push(BcStmt::Loop {
            var: ivar,
            lo: lo_v,
            limit: hi_v,
            step: Step::Const(*step),
            kind: LoopKind::Plain,
            group: 0,
            body: inner_out,
        });
        any_inner
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_plain_loop(
        &mut self,
        f: &mut BcFunction,
        out: &mut Vec<BcStmt>,
        var: VarId,
        lo: &Expr,
        hi: &Expr,
        step: i64,
        body: &[Stmt],
    ) {
        let lo_v = self.em.emit_expr(f, out, lo, ScalarTy::I64);
        let hi_v = self.em.emit_expr(f, out, hi, ScalarTy::I64);
        let ivar = self.em.var_reg(f, var);
        let mut inner = Vec::new();
        for st in body {
            self.em.emit_stmt(f, &mut inner, st);
        }
        out.push(BcStmt::Loop {
            var: ivar,
            lo: lo_v,
            limit: hi_v,
            step: Step::Const(step),
            kind: LoopKind::Plain,
            group: 0,
            body: inner,
        });
    }

    // ------------------------------------------------------------------
    // Allen–Kennedy loop distribution
    // ------------------------------------------------------------------

    /// Build the statement dependence graph for a *flat* loop body:
    /// memory edges from [`classify_dep`] over same-array store/access
    /// pairs, plus scalar def-use edges (statements sharing a local must
    /// stay fused — we do not perform scalar expansion). Returns `None`
    /// when the body is not distributable (nested loops, non-affine
    /// subscripts).
    fn statement_graph(
        &self,
        iv: VarId,
        body: &[Stmt],
        lo_aff: Option<&Affine>,
        hi_aff: Option<&Affine>,
    ) -> Option<DepGraph> {
        if body.iter().any(|s| matches!(s, Stmt::For { .. })) {
            return None;
        }
        struct Acc {
            stmt: usize,
            array: ArrayId,
            affine: Affine,
            is_store: bool,
        }
        let mut accs: Vec<Acc> = Vec::new();
        for (si, s) in body.iter().enumerate() {
            let mut note = |array: ArrayId, idx: &Expr, is_store: bool| -> Option<()> {
                accs.push(Acc {
                    stmt: si,
                    array,
                    affine: analyze(self.kernel, idx)?,
                    is_store,
                });
                Some(())
            };
            match s {
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    note(*array, index, true)?;
                    for (a, idx) in value.loads() {
                        note(a, idx, false)?;
                    }
                }
                Stmt::Assign { value, .. } => {
                    for (a, idx) in value.loads() {
                        note(a, idx, false)?;
                    }
                }
                Stmt::For { .. } => unreachable!("checked above"),
            }
        }
        let mut g = DepGraph::new(body.len());
        for (i, s) in accs.iter().enumerate() {
            if !s.is_store {
                continue;
            }
            for (j, x) in accs.iter().enumerate() {
                if i == j || x.array != s.array {
                    continue;
                }
                match classify_dep(iv, &s.affine, &x.affine, lo_aff, hi_aff) {
                    DepClass::Independent => {}
                    DepClass::SameIteration => {
                        // Loop-independent dependence: preserved as long
                        // as the textual statement order is kept.
                        if s.stmt != x.stmt {
                            g.add_edge(s.stmt.min(x.stmt), s.stmt.max(x.stmt));
                        }
                    }
                    DepClass::Carried(d) => {
                        // d > 0: the store's iteration precedes the
                        // conflicting access — the store's loop must run
                        // first (a self-edge marks a recurrence).
                        if d > 0 {
                            g.add_edge(s.stmt, x.stmt);
                        } else {
                            g.add_edge(x.stmt, s.stmt);
                        }
                    }
                    DepClass::Unknown(_) => g.fuse(s.stmt, x.stmt),
                }
            }
        }
        // Scalar def-use: any two statements touching the same local stay
        // fused; a non-reduction self-accumulation is a recurrence.
        for (si, s) in body.iter().enumerate() {
            let Stmt::Assign { var, value } = s else {
                continue;
            };
            if value.uses_var(*var) && reduction_of(self.kernel, *var, value).is_none() {
                g.add_edge(si, si);
            }
            for (sj, t) in body.iter().enumerate() {
                if si == sj {
                    continue;
                }
                let uses = match t {
                    Stmt::Assign {
                        var: v2,
                        value: val2,
                    } => v2 == var || val2.uses_var(*var),
                    Stmt::Store { index, value, .. } => {
                        index.uses_var(*var) || value.uses_var(*var)
                    }
                    Stmt::For { .. } => unreachable!("checked above"),
                };
                if uses {
                    g.fuse(si, sj);
                }
            }
        }
        Some(g)
    }

    /// Distribute a rejected loop per dependence SCC (Allen–Kennedy):
    /// acyclic components are re-planned and emitted as separate vector
    /// loops, cyclic components (true recurrences) become scalar residual
    /// loops, all in topological dependence order.
    #[allow(clippy::too_many_arguments)]
    fn try_distribute(
        &mut self,
        f: &mut BcFunction,
        out: &mut Vec<BcStmt>,
        iv: VarId,
        lo: &Expr,
        hi: &Expr,
        step: i64,
        body: &[Stmt],
        before_regs: usize,
        report_mark: usize,
    ) -> DistOutcome {
        if step != 1 || body.is_empty() {
            return DistOutcome::NotApplicable;
        }
        let lo_aff = analyze(self.kernel, lo);
        let hi_aff = analyze(self.kernel, hi);
        let Some(graph) = self.statement_graph(iv, body, lo_aff.as_ref(), hi_aff.as_ref()) else {
            return DistOutcome::NotApplicable;
        };
        let sccs = graph.sccs();
        if sccs.len() == 1 && !sccs[0].cyclic {
            // One acyclic component is the undistributed loop itself; the
            // whole-loop analysis already explained the rejection.
            return DistOutcome::NotApplicable;
        }
        // Plan every component before emitting anything.
        let mut plans: Vec<(Scc, Vec<Stmt>, Result<LoopPlan, Rejection>)> = Vec::new();
        let mut any_vec = false;
        for scc in sccs {
            let stmts: Vec<Stmt> = scc.stmts.iter().map(|&i| body[i].clone()).collect();
            let planned = if scc.cyclic {
                Err(Rejection::new(
                    RejectCategory::Recurrence,
                    "dependence cycle (true recurrence)",
                ))
            } else {
                self.analyze_loop(iv, step, lo, hi, &stmts)
            };
            any_vec |= planned.is_ok();
            plans.push((scc, stmts, planned));
        }
        let desc = if plans.len() > 1 {
            format!(
                "loop over {} (distributed into {} sub-loops)",
                self.kernel.var(iv).name,
                plans.len()
            )
        } else {
            format!("loop over {}", self.kernel.var(iv).name)
        };
        if !any_vec {
            // Nothing to gain from splitting: keep the speculative scalar
            // emission (byte-identical bytecode) and only enrich the
            // report with the SCC structure.
            let n = plans.len();
            let parts: Vec<PartReport> = plans
                .into_iter()
                .map(|(scc, _, planned)| PartReport {
                    stmts: scc.stmts,
                    vectorized: false,
                    reason: planned.err(),
                })
                .collect();
            let detail = if n == 1 {
                "loop body forms a single dependence cycle (true recurrence)".to_owned()
            } else {
                format!("none of the {n} distributed components is vectorizable")
            };
            self.reports.push(LoopReport {
                description: desc,
                vectorized: false,
                features: Vec::new(),
                reason: Some(Rejection::new(RejectCategory::Recurrence, detail)),
                parts,
            });
            return DistOutcome::ReportedOnly;
        }
        // Discard the speculative scalar emission; emit the distributed
        // sub-loops in dependence order.
        f.regs.truncate(before_regs.max(f.params.len()));
        self.reports.truncate(report_mark);
        self.em.vmap.retain(|_, r| (r.0 as usize) < f.regs.len());
        let mut features: Vec<Feature> = Vec::new();
        let mut parts: Vec<PartReport> = Vec::new();
        let mut vectorized_any = false;
        for (scc, stmts, planned) in plans {
            match planned {
                Ok(plan) => {
                    let regs_mark = f.regs.len();
                    let mut part_features = plan.features.clone();
                    let mut vec_out = Vec::new();
                    match self.emit_vectorized(
                        f,
                        &mut vec_out,
                        iv,
                        lo,
                        hi,
                        &stmts,
                        plan,
                        &mut part_features,
                    ) {
                        Ok(()) => {
                            out.extend(vec_out);
                            for ft in part_features {
                                if !features.contains(&ft) {
                                    features.push(ft);
                                }
                            }
                            vectorized_any = true;
                            parts.push(PartReport {
                                stmts: scc.stmts,
                                vectorized: true,
                                reason: None,
                            });
                        }
                        Err(e) => {
                            f.regs.truncate(regs_mark.max(f.params.len()));
                            self.em.vmap.retain(|_, r| (r.0 as usize) < f.regs.len());
                            self.emit_plain_loop(f, out, iv, lo, hi, step, &stmts);
                            parts.push(PartReport {
                                stmts: scc.stmts,
                                vectorized: false,
                                reason: Some(Rejection::new(RejectCategory::EmitFailure, e)),
                            });
                        }
                    }
                }
                Err(rej) => {
                    self.emit_plain_loop(f, out, iv, lo, hi, step, &stmts);
                    parts.push(PartReport {
                        stmts: scc.stmts,
                        vectorized: false,
                        reason: Some(rej),
                    });
                }
            }
        }
        self.reports.push(LoopReport {
            description: desc,
            vectorized: vectorized_any,
            features,
            reason: if vectorized_any {
                None
            } else {
                Some(Rejection::new(
                    RejectCategory::EmitFailure,
                    "all distributed sub-loops failed emission",
                ))
            },
            parts,
        });
        DistOutcome::Emitted(vectorized_any)
    }

    // ------------------------------------------------------------------
    // Analysis
    // ------------------------------------------------------------------

    fn collect_accesses(
        &self,
        iv: VarId,
        body: &[Stmt],
        out: &mut Vec<AccessInfo>,
    ) -> Result<(), Rejection> {
        let mut err: Option<Rejection> = None;
        for s in body {
            s.walk(&mut |st| {
                let mut note =
                    |array: ArrayId, idx: &Expr, is_store: bool| match analyze(self.kernel, idx) {
                        Some(affine) => out.push(AccessInfo {
                            array,
                            affine,
                            is_store,
                        }),
                        None => {
                            err.get_or_insert_with(|| {
                                Rejection::new(
                                    RejectCategory::NonAffine,
                                    format!(
                                        "non-affine subscript into {}[]",
                                        self.kernel.array(array).name
                                    ),
                                )
                            });
                        }
                    };
                match st {
                    Stmt::Store {
                        array,
                        index,
                        value,
                    } => {
                        note(*array, index, true);
                        for (a, idx) in value.loads() {
                            note(a, idx, false);
                        }
                    }
                    Stmt::Assign { value, .. } => {
                        for (a, idx) in value.loads() {
                            note(a, idx, false);
                        }
                    }
                    Stmt::For { lo, hi, .. } => {
                        // Bounds must be invariant of iv.
                        for e in [lo, hi] {
                            if e.uses_var(iv) {
                                err.get_or_insert_with(|| {
                                    Rejection::new(
                                        RejectCategory::Bounds,
                                        "inner loop bound depends on the vectorized variable",
                                    )
                                });
                            }
                        }
                    }
                }
            });
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn analyze_loop(
        &self,
        iv: VarId,
        step: i64,
        lo: &Expr,
        hi: &Expr,
        body: &[Stmt],
    ) -> Result<LoopPlan, Rejection> {
        if step != 1 {
            return Err(Rejection::new(
                RejectCategory::Bounds,
                format!("loop step {step} != 1"),
            ));
        }
        let mut accesses = Vec::new();
        self.collect_accesses(iv, body, &mut accesses)?;
        if accesses.is_empty() {
            return Err(Rejection::new(
                RejectCategory::NoVectorWork,
                "no memory accesses to vectorize",
            ));
        }

        // --- stride legality w.r.t. the candidate variable ---
        let mut arrays = Vec::new();
        let mut stored = Vec::new();
        let mut sym_strides: Vec<(ArrayId, VarId)> = Vec::new();
        for a in &accesses {
            match a.affine.coeff_of(iv) {
                Coeff::Const(0) => {}
                Coeff::Const(1) => {}
                Coeff::Const(s) if (2..=4).contains(&s) && !a.is_store => {}
                Coeff::Const(2) if a.is_store => {}
                Coeff::Const(s) => {
                    return Err(Rejection::new(
                        RejectCategory::UnsupportedStride,
                        format!(
                            "unsupported stride {s} into {}[]",
                            self.kernel.array(a.array).name
                        ),
                    ))
                }
                Coeff::Sym(..) => {
                    return Err(Rejection::new(
                        RejectCategory::UnsupportedStride,
                        format!(
                            "non-unit symbolic stride into {}[]",
                            self.kernel.array(a.array).name
                        ),
                    ))
                }
            }
            if !arrays.contains(&a.array) && a.affine.uses_loop(iv) {
                arrays.push(a.array);
            }
            if a.is_store {
                if !a.affine.uses_loop(iv) {
                    return Err(Rejection::new(
                        RejectCategory::UnsupportedStride,
                        format!(
                            "store into {}[] invariant of the loop variable",
                            self.kernel.array(a.array).name
                        ),
                    ));
                }
                if !stored.contains(&a.array) {
                    stored.push(a.array);
                }
            }
            // Symbolic-stride terms of *other* loop variables need
            // stride-alignment guards; constant ones are checked mod 32.
            for (v, c) in &a.affine.loops {
                if *v == iv {
                    continue;
                }
                if let Coeff::Sym(p, 1) = c {
                    if !sym_strides.contains(&(a.array, *p)) {
                        sym_strides.push((a.array, *p));
                    }
                } else if let Coeff::Sym(..) = c {
                    return Err(Rejection::new(
                        RejectCategory::UnsupportedStride,
                        "scaled symbolic stride term",
                    ));
                }
            }
        }

        // --- dependence check (§II(a)): same-array store/other pairs ---
        //
        // Policy per §III-B(b): the offline compiler cannot know VF, so a
        // loop with *any* finite carried dependence distance is rejected
        // ("the former conservative approach"); such loops get a second
        // chance via Allen–Kennedy distribution in `try_distribute`.
        // [`classify_dep`] proves independence for offsets the iv stride
        // cannot produce, solvable out-of-bounds conflicts, and whole-row
        // combinations (see `depgraph`).
        let lo_aff = analyze(self.kernel, lo);
        let hi_aff = analyze(self.kernel, hi);
        for (i, s) in accesses.iter().enumerate() {
            if !s.is_store {
                continue;
            }
            for (j, x) in accesses.iter().enumerate() {
                if i == j || x.array != s.array {
                    continue;
                }
                let name = &self.kernel.array(s.array).name;
                match classify_dep(iv, &s.affine, &x.affine, lo_aff.as_ref(), hi_aff.as_ref()) {
                    DepClass::Independent | DepClass::SameIteration => {}
                    DepClass::Carried(d) => {
                        return Err(Rejection::new(
                            RejectCategory::Dependence,
                            format!("loop-carried dependence of distance {d} on {name}[]"),
                        ));
                    }
                    DepClass::Unknown(detail) => {
                        return Err(Rejection::new(
                            RejectCategory::Dependence,
                            format!("{detail} on {name}[]"),
                        ));
                    }
                }
            }
        }

        // --- locals: reductions at this level, vector locals below ---
        let mut features = Vec::new();
        for s in body {
            if let Stmt::Assign { var, value } = s {
                // Direct-body assignment accumulating across iv must be a
                // reduction.
                if value.uses_var(*var) {
                    reduction_of(self.kernel, *var, value).ok_or_else(|| {
                        Rejection::new(
                            RejectCategory::Recurrence,
                            format!(
                                "scalar {} carries a non-reduction dependence",
                                self.kernel.var(*var).name
                            ),
                        )
                    })?;
                    if !features.contains(&Feature::Reduction) {
                        features.push(Feature::Reduction);
                    }
                }
            }
        }
        if body.iter().any(|s| matches!(s, Stmt::For { .. })) {
            features.push(Feature::OuterLoop);
        }

        // --- element types / vf_ty ---
        let mut elem_tys: Vec<ScalarTy> = Vec::new();
        let mut note_ty = |t: ScalarTy| {
            if !elem_tys.contains(&t) {
                elem_tys.push(t);
            }
        };
        for s in body {
            s.walk(&mut |st| match st {
                Stmt::Store { array, .. } => note_ty(self.kernel.array(*array).elem),
                Stmt::Assign { var, .. } => note_ty(self.kernel.var(*var).ty),
                Stmt::For { .. } => {}
            });
            s.walk_exprs(&mut |e| {
                if let Expr::Load { array, .. } = e {
                    note_ty(self.kernel.array(*array).elem);
                }
            });
        }
        let vf_ty = *elem_tys
            .iter()
            .min_by_key(|t| t.size())
            .ok_or_else(|| Rejection::new(RejectCategory::NoVectorWork, "no element types"))?;
        for t in &elem_tys {
            if t.size() != vf_ty.size() && t.size() != 2 * vf_ty.size() {
                // The SAD pattern (u8 data, i32 accumulator) is the one
                // supported exception, recognized per-reduction later.
                let is_sad_acc = t.size() == 4 * vf_ty.size();
                if !is_sad_acc {
                    return Err(Rejection::new(
                        RejectCategory::UnsupportedTypes,
                        format!("mixed element widths {vf_ty} vs {t}"),
                    ));
                }
            }
        }

        // --- op classes used (for support guards) ---
        let mut op_classes = Vec::new();
        scan_op_classes(self.kernel, body, &mut op_classes);

        // Native mode: refuse what the known target cannot vectorize.
        if let Some(t) = self.native() {
            for ty in &elem_tys {
                // The SAD accumulator type is not used lane-wise at VF.
                if ty.size() == 4 * vf_ty.size() {
                    continue;
                }
                if !t.supports_elem(*ty) {
                    return Err(Rejection::new(
                        RejectCategory::TargetUnsupported,
                        format!("target {} lacks vector {ty}", t.name),
                    ));
                }
            }
            for c in &op_classes {
                let detail = match t.support(*c) {
                    Support::Native => continue,
                    Support::Unsupported => format!("target {} lacks {c:?}", t.name),
                    // A native compiler's cost model sees that the backend
                    // expands the idiom into library calls and keeps the
                    // loop scalar; only the split flow, committed to the
                    // portable bytecode, ends up calling the helpers (the
                    // paper's NEON dissolve/dct slowdowns in Figure 6c).
                    Support::Helper => format!(
                        "target {} expands {c:?} via library calls (not profitable)",
                        t.name
                    ),
                };
                return Err(Rejection::new(RejectCategory::TargetUnsupported, detail));
            }
        }

        Ok(LoopPlan {
            vf_ty,
            features,
            elem_tys,
            op_classes,
            arrays,
            stored_arrays: stored,
            sym_strides,
        })
    }

    // ------------------------------------------------------------------
    // Emission
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn emit_vectorized(
        &mut self,
        f: &mut BcFunction,
        out: &mut Vec<BcStmt>,
        iv: VarId,
        lo: &Expr,
        hi: &Expr,
        body: &[Stmt],
        plan: LoopPlan,
        collected: &mut Vec<Feature>,
    ) -> Result<(), String> {
        // Constant lower bounds enable alignment hints; dynamic ones
        // (triangular nests) fall back to unknown misalignment.
        let lo_const = match lo {
            Expr::Int(v) => Some(*v),
            _ => None,
        };

        // ----- support guards (split mode only; native pre-checked) -----
        let mut support = Vec::new();
        if self.native().is_none() {
            for t in &plan.elem_tys {
                if matches!(t, ScalarTy::F64 | ScalarTy::I64) {
                    support.push(GuardCond::TypeSupported(*t));
                }
            }
            if !plan.op_classes.is_empty() {
                support.push(GuardCond::OpsSupported(plan.op_classes.clone()));
            }
            // Runtime alias checks for store/other pointer pairs.
            for s in &plan.stored_arrays {
                for a in &plan.arrays {
                    if a == s {
                        continue;
                    }
                    let both_global = self.kernel.array(*s).kind == ArrayKind::Global
                        && self.kernel.array(*a).kind == ArrayKind::Global;
                    if !both_global {
                        support.push(GuardCond::NoAlias(ArraySym(s.0), ArraySym(a.0)));
                    }
                }
            }
        }

        // ----- alignment guards -----
        let align_conds: Vec<GuardCond> = if self.opts.no_alignment_opts {
            Vec::new()
        } else {
            let mut conds = Vec::new();
            for a in &plan.arrays {
                // Native compilers force alignment of globals (§III-B(c)).
                let known_aligned =
                    self.native().is_some() && self.kernel.array(*a).kind == ArrayKind::Global;
                if !known_aligned {
                    conds.push(GuardCond::BaseAligned(ArraySym(a.0)));
                }
            }
            for (a, p) in &plan.sym_strides {
                let preg = self.em.var_reg(f, *p);
                conds.push(GuardCond::StrideAligned {
                    array: ArraySym(a.0),
                    stride: Operand::Reg(preg),
                    ty: self.kernel.array(*a).elem,
                });
            }
            conds
        };

        // Native mode, SLP-origin loop, pointer parameters, on a target
        // with misaligned accesses: SLP code cannot be peeled to reach
        // alignment, so GCC generated the misaligned version only (the
        // mix-streams situation of §V-B).
        let native_misaligned_only = self.slp_done
            && self.native().is_some_and(|t| match t.misaligned {
                MisalignedAccess::Unaligned => plan
                    .arrays
                    .iter()
                    .any(|a| self.kernel.array(*a).kind == ArrayKind::PointerParam),
                MisalignedAccess::Realign | MisalignedAccess::AlignedOnly => false,
            });

        // ----- build the arms -----
        let versioned = !support.is_empty() || !align_conds.is_empty();
        if versioned && !collected.contains(&Feature::Versioned) {
            collected.push(Feature::Versioned);
        }

        let hints_arm =
            if self.opts.no_alignment_opts || native_misaligned_only || lo_const.is_none() {
                None
            } else {
                let mut arm = Vec::new();
                self.emit_arm(
                    f, &mut arm, iv, lo, lo_const, hi, body, &plan, true, collected,
                )?;
                Some(arm)
            };
        let nohints_arm = {
            let mut arm = Vec::new();
            self.emit_arm(
                f, &mut arm, iv, lo, lo_const, hi, body, &plan, false, collected,
            )?;
            arm
        };

        let aligned_versioned = match hints_arm {
            Some(hints) if !align_conds.is_empty() => vec![BcStmt::Version {
                cond: GuardCond::All(align_conds),
                then_body: hints,
                else_body: nohints_arm,
            }],
            Some(hints) => hints,
            None => nohints_arm,
        };

        if support.is_empty() {
            out.extend(aligned_versioned);
        } else {
            // Scalar fall-back arm.
            let mut scalar_arm = Vec::new();
            self.emit_plain_loop(f, &mut scalar_arm, iv, lo, hi, 1, body);
            out.push(BcStmt::Version {
                cond: GuardCond::All(support),
                then_body: aligned_versioned,
                else_body: scalar_arm,
            });
        }
        Ok(())
    }

    /// Emit one vectorized arm: bounds, main vector loop, reduction
    /// epilogue, scalar tail.
    #[allow(clippy::too_many_arguments)]
    fn emit_arm(
        &mut self,
        f: &mut BcFunction,
        out: &mut Vec<BcStmt>,
        iv: VarId,
        lo: &Expr,
        lo_const: Option<i64>,
        hi: &Expr,
        body: &[Stmt],
        plan: &LoopPlan,
        hints: bool,
        collected: &mut Vec<Feature>,
    ) -> Result<(), String> {
        let group = self.next_group;
        self.next_group += 1;
        let vf_ty = plan.vf_ty;

        // Bounds: vec_end = lo + ((hi - lo) / vf) * vf
        let lo_v = self.em.emit_expr(f, out, lo, ScalarTy::I64);
        let hi_v = self.em.emit_expr(f, out, hi, ScalarTy::I64);
        let vf = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: vf,
            op: Op::GetVf { ty: vf_ty, group },
        });
        let t0 = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: t0,
            op: Op::SBin(BinOp::Sub, ScalarTy::I64, hi_v, lo_v),
        });
        let t1 = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: t1,
            op: Op::SBin(
                BinOp::Div,
                ScalarTy::I64,
                Operand::Reg(t0),
                Operand::Reg(vf),
            ),
        });
        let t2 = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: t2,
            op: Op::SBin(
                BinOp::Mul,
                ScalarTy::I64,
                Operand::Reg(t1),
                Operand::Reg(vf),
            ),
        });
        let vec_end = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: vec_end,
            op: Op::SBin(BinOp::Add, ScalarTy::I64, lo_v, Operand::Reg(t2)),
        });
        let main_hi = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: main_hi,
            op: Op::LoopBound {
                vect: Operand::Reg(vec_end),
                scalar: lo_v,
                group,
            },
        });
        let tail_lo = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        out.push(BcStmt::Def {
            dst: tail_lo,
            op: Op::LoopBound {
                vect: Operand::Reg(vec_end),
                scalar: lo_v,
                group,
            },
        });

        let iv_reg = self.em.var_reg(f, iv);
        let mut arm = ArmEmitter {
            vx: self,
            f,
            iv,
            iv_reg,
            lo_v,
            lo_const,
            vf_ty,
            vf,
            group,
            hints,
            pre: out,
            reductions: Vec::new(),
            vec_locals: HashMap::new(),
            splat_cache: HashMap::new(),
            inner_vars: Vec::new(),
            features: Vec::new(),
        };

        // Reduction prologues.
        for s in body {
            if let Stmt::Assign { var, value } = s {
                if value.uses_var(*var) {
                    arm.setup_reduction(*var, value)?;
                }
            }
        }

        let mut main_body = Vec::new();
        arm.emit_body(body, &mut main_body)?;
        let reductions = std::mem::take(&mut arm.reductions);
        let new_features = std::mem::take(&mut arm.features);
        for ft in new_features {
            if !collected.contains(&ft) {
                collected.push(ft);
            }
        }

        out.push(BcStmt::Loop {
            var: iv_reg,
            lo: lo_v,
            limit: Operand::Reg(main_hi),
            step: Step::Vf(vf_ty, 1),
            kind: LoopKind::VectorMain,
            group,
            body: main_body,
        });

        // Reduction epilogues: fold the vector accumulator back into the
        // scalar local so the tail continues from the right value.
        for red in &reductions {
            let partial = f.fresh_reg(BcTy::Scalar(red.acc_ty));
            out.push(BcStmt::Def {
                dst: partial,
                op: match red.op {
                    // Sub accumulates s₀ − partial sums across the lanes,
                    // so the lane sum is the reduced value.
                    BinOp::Add | BinOp::Sub => Op::ReducPlus(red.acc_ty, red.vacc),
                    BinOp::Max => Op::ReducMax(red.acc_ty, red.vacc),
                    BinOp::Min => Op::ReducMin(red.acc_ty, red.vacc),
                    _ => unreachable!(),
                },
            });
            let s_reg = self.em.var_reg(f, red.local);
            let s_ty = self.kernel.var(red.local).ty;
            if red.acc_ty != s_ty {
                let cast = f.fresh_reg(BcTy::Scalar(s_ty));
                out.push(BcStmt::Def {
                    dst: cast,
                    op: Op::SCast {
                        from: red.acc_ty,
                        to: s_ty,
                        arg: Operand::Reg(partial),
                    },
                });
                out.push(BcStmt::Def {
                    dst: s_reg,
                    op: Op::Copy(Operand::Reg(cast)),
                });
            } else {
                out.push(BcStmt::Def {
                    dst: s_reg,
                    op: Op::Copy(Operand::Reg(partial)),
                });
            }
        }

        // Scalar tail loop (also the full loop when scalarized online).
        let mut tail_body = Vec::new();
        for st in body {
            self.em.emit_stmt(f, &mut tail_body, st);
        }
        out.push(BcStmt::Loop {
            var: iv_reg,
            lo: Operand::Reg(tail_lo),
            limit: hi_v,
            step: Step::Const(1),
            kind: LoopKind::ScalarTail,
            group,
            body: tail_body,
        });

        let _ = plan;
        Ok(())
    }
}

/// Whether `e` is a widening multiply `(W)a * (W)b` of half-width
/// integer operands.
fn is_widening_mul(k: &Kernel, e: &Expr) -> bool {
    if let Expr::Bin {
        op: BinOp::Mul,
        lhs,
        rhs,
    } = e
    {
        if let (Expr::Cast { ty: tl, arg: al }, Expr::Cast { ty: tr, arg: ar }) = (&**lhs, &**rhs) {
            let nl = infer_expr(k, al).map(|t| t.size());
            let nr = infer_expr(k, ar).map(|t| t.size());
            return tl == tr
                && nl == Some(tl.size() / 2)
                && nr == Some(tr.size() / 2)
                && tl.is_int();
        }
    }
    false
}

/// Collect the operation classes of a loop body for `ops_supported`
/// guards. A widening multiply that is itself a `+=` reduction step is
/// classified as `dot_product` (the idiom actually emitted), not as
/// `widen_mult` — the distinction drives the NEON library-fallback story.
fn scan_op_classes(k: &Kernel, body: &[Stmt], out: &mut Vec<OpClass>) {
    fn note(out: &mut Vec<OpClass>, c: OpClass) {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    fn scan_expr(k: &Kernel, e: &Expr, out: &mut Vec<OpClass>) {
        match e {
            Expr::Bin { op: BinOp::Div, .. } => note(out, OpClass::FDiv),
            Expr::Un { op: UnOp::Sqrt, .. } => note(out, OpClass::FSqrt),
            _ if is_widening_mul(k, e) => note(out, OpClass::WidenMult),
            Expr::Cast { ty, arg } => {
                let from = infer_expr(k, arg).unwrap_or(*ty);
                if from.size() == ty.size() && from.is_int() != ty.is_int() {
                    note(out, OpClass::Cvt);
                }
            }
            _ => {}
        }
    }
    for s in body {
        match s {
            Stmt::Assign { var, value } => {
                if let Some((BinOp::Add, e)) = reduction_of(k, *var, value) {
                    if is_widening_mul(k, e) {
                        note(out, OpClass::DotProduct);
                        // Scan only inside the multiply's operands.
                        if let Expr::Bin { lhs, rhs, .. } = e {
                            lhs.walk(&mut |x| scan_expr(k, x, out));
                            rhs.walk(&mut |x| scan_expr(k, x, out));
                        }
                        continue;
                    }
                }
                value.walk(&mut |x| scan_expr(k, x, out));
            }
            Stmt::Store { index, value, .. } => {
                index.walk(&mut |x| scan_expr(k, x, out));
                value.walk(&mut |x| scan_expr(k, x, out));
            }
            Stmt::For { lo, hi, body, .. } => {
                lo.walk(&mut |x| scan_expr(k, x, out));
                hi.walk(&mut |x| scan_expr(k, x, out));
                scan_op_classes(k, body, out);
            }
        }
    }
}

/// Recognized reduction: `local = local op e` with `op ∈ {+, -, min, max}`.
/// `-` is recognized on the left side only (`s = s - e`); it accumulates
/// per-lane differences and folds with a plus-reduction, since
/// Σ lanes = s₀ − Σ e.
fn reduction_of<'e>(k: &Kernel, local: VarId, value: &'e Expr) -> Option<(BinOp, &'e Expr)> {
    if let Expr::Bin { op, lhs, rhs } = value {
        if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max) {
            return None;
        }
        if matches!(&**lhs, Expr::Var(v) if *v == local) && !rhs.uses_var(local) {
            return Some((*op, rhs));
        }
        if op.commutative() && matches!(&**rhs, Expr::Var(v) if *v == local) && !lhs.uses_var(local)
        {
            return Some((*op, lhs));
        }
    }
    let _ = k;
    None
}

#[derive(Debug)]
struct ReductionState {
    local: VarId,
    op: BinOp,
    vacc: Reg,
    acc_ty: ScalarTy,
    kind: ReductionKind,
}

#[derive(Debug, Clone, PartialEq)]
enum ReductionKind {
    Plain,
    Dot { a: Expr, b: Expr, in_ty: ScalarTy },
    Sad { a: Expr, b: Expr },
}

struct ArmEmitter<'a, 'k> {
    vx: &'a mut Vx<'k>,
    f: &'a mut BcFunction,
    iv: VarId,
    #[allow(dead_code)]
    iv_reg: Reg,
    #[allow(dead_code)]
    lo_v: Operand,
    lo_const: Option<i64>,
    vf_ty: ScalarTy,
    vf: Reg,
    #[allow(dead_code)]
    group: u32,
    hints: bool,
    /// Pre-loop statement buffer (hoisted splats, realign tokens).
    pre: &'a mut Vec<BcStmt>,
    reductions: Vec<ReductionState>,
    vec_locals: HashMap<VarId, (Reg, ScalarTy)>,
    splat_cache: HashMap<String, VecVal>,
    /// Serial loop variables currently in scope inside the vector loop.
    inner_vars: Vec<VarId>,
    features: Vec<Feature>,
}

impl<'a, 'k> ArmEmitter<'a, 'k> {
    fn kernel(&self) -> &'k Kernel {
        self.vx.kernel
    }

    fn feature(&mut self, ft: Feature) {
        if !self.features.contains(&ft) {
            self.features.push(ft);
        }
    }

    fn fresh_vec(&mut self, ty: ScalarTy) -> Reg {
        self.f.fresh_reg(BcTy::Vec(ty))
    }

    fn fresh_scalar(&mut self, ty: ScalarTy) -> Reg {
        self.f.fresh_reg(BcTy::Scalar(ty))
    }

    /// Whether an expression is invariant of the vectorized loop and all
    /// in-scope serial loops (then it can be hoisted and splat once).
    fn region_invariant(&self, e: &Expr) -> bool {
        let mut inv = true;
        e.walk(&mut |x| match x {
            Expr::Var(v)
                if (*v == self.iv
                    || self.inner_vars.contains(v)
                    || self.vec_locals.contains_key(v)
                    || self.reductions.iter().any(|r| r.local == *v)) =>
            {
                inv = false;
            }
            Expr::Load { .. } => inv = false, // conservative: loads stay in place
            _ => {}
        });
        inv
    }

    // -------------- alignment hints --------------

    /// Hint (mis, mod) for an access with the given affine subscript.
    /// `mod = 0` means unknown at offline time.
    fn hint_of(&self, affine: &Affine, esize: usize) -> (u32, u32) {
        let Some(lo_const) = self.lo_const else {
            return (0, 0);
        };
        if !self.hints {
            return (0, 0);
        }
        // iv contributes lo*esize at the first iteration and multiples of
        // VS afterwards; other terms must vanish mod 32 under the guards.
        for (v, c) in &affine.loops {
            if *v == self.iv {
                // handled via lo_const above (coefficient 1 contract)
                continue;
            }
            match c {
                Coeff::Const(c2) => {
                    if (c2 * esize as i64) % HINT_MOD as i64 != 0 {
                        return (0, 0);
                    }
                }
                Coeff::Sym(_, 1) => {
                    // Guarded by stride_aligned: contributes 0 mod VS.
                }
                Coeff::Sym(..) => return (0, 0),
            }
        }
        if !affine.params.is_empty() {
            return (0, 0);
        }
        // Strided accesses scale the iv contribution; still a multiple of
        // VS per step, so only the constant matters.
        let konst = match affine.coeff_of(self.iv) {
            Coeff::Const(s) => affine.konst + lo_const * s,
            Coeff::Sym(..) => return (0, 0),
        };
        let mis = ((konst * esize as i64) % HINT_MOD as i64 + HINT_MOD as i64) % HINT_MOD as i64;
        (mis as u32, HINT_MOD)
    }

    // -------------- memory --------------

    /// Scalar-emit the index expression with `iv` replaced by `to`.
    fn subst_iv(&self, e: &Expr, to: &Expr) -> Expr {
        match e {
            Expr::Var(v) if *v == self.iv => to.clone(),
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => e.clone(),
            Expr::Load { array, index } => Expr::Load {
                array: *array,
                index: Box::new(self.subst_iv(index, to)),
            },
            Expr::Bin { op, lhs, rhs } => Expr::Bin {
                op: *op,
                lhs: Box::new(self.subst_iv(lhs, to)),
                rhs: Box::new(self.subst_iv(rhs, to)),
            },
            Expr::Un { op, arg } => Expr::Un {
                op: *op,
                arg: Box::new(self.subst_iv(arg, to)),
            },
            Expr::Cast { ty, arg } => Expr::Cast {
                ty: *ty,
                arg: Box::new(self.subst_iv(arg, to)),
            },
        }
    }

    /// Emit a contiguous vector load of `array[idx]` (coeff(iv) == 1).
    fn emit_vec_load(
        &mut self,
        cur: &mut Vec<BcStmt>,
        array: ArrayId,
        idx: &Expr,
        affine: &Affine,
    ) -> Result<Reg, String> {
        let elem = self.kernel().array(array).elem;
        let (mis, modulo) = self.hint_of(affine, elem.size());
        let (core, offset) = split_const_offset(idx);
        let idx_op = self.vx.em.emit_expr(self.f, cur, core, ScalarTy::I64);
        let addr = Addr {
            base: ArraySym(array.0),
            index: idx_op,
            offset,
        };
        let dst = self.fresh_vec(elem);
        if modulo != 0 && mis == 0 {
            cur.push(BcStmt::Def {
                dst,
                op: Op::ALoad(elem, addr),
            });
            return Ok(dst);
        }
        self.feature(Feature::Realign);
        // Optimized explicit realignment with cross-iteration reuse
        // (Figure 3a) when the access sits directly in the main loop body
        // (no serial loop in scope): get_rt and the first aligned load are
        // computed before the loop; each iteration loads one new aligned
        // vector and recycles the previous one.
        let direct =
            self.inner_vars.is_empty() && self.lo_const.is_some() && !self.vx.opts.no_realign_reuse;
        if direct {
            let at_lo = self.subst_iv(core, &Expr::Int(self.lo_const.unwrap()));
            let mut pre = std::mem::take(self.pre);
            let idx0 = self
                .vx
                .em
                .emit_expr(self.f, &mut pre, &at_lo, ScalarTy::I64);
            let addr0 = Addr {
                base: ArraySym(array.0),
                index: idx0,
                offset,
            };
            let rt = self.f.fresh_reg(BcTy::RealignToken);
            pre.push(BcStmt::Def {
                dst: rt,
                op: Op::GetRt {
                    ty: elem,
                    addr: addr0,
                    mis,
                    modulo,
                },
            });
            let va = self.fresh_vec(elem);
            pre.push(BcStmt::Def {
                dst: va,
                op: Op::AlignLoad(elem, addr0),
            });
            *self.pre = pre;
            // In-loop: vb = align_load(addr + VF); vx = realign; va = vb.
            let idx_vf = self.fresh_scalar(ScalarTy::I64);
            cur.push(BcStmt::Def {
                dst: idx_vf,
                op: Op::SBin(BinOp::Add, ScalarTy::I64, idx_op, Operand::Reg(self.vf)),
            });
            let addr_vf = Addr {
                base: ArraySym(array.0),
                index: Operand::Reg(idx_vf),
                offset,
            };
            let vb = self.fresh_vec(elem);
            cur.push(BcStmt::Def {
                dst: vb,
                op: Op::AlignLoad(elem, addr_vf),
            });
            cur.push(BcStmt::Def {
                dst,
                op: Op::RealignLoad {
                    ty: elem,
                    lo: Some(va),
                    hi: Some(vb),
                    rt: Some(rt),
                    addr,
                    mis,
                    modulo,
                },
            });
            cur.push(BcStmt::Def {
                dst: va,
                op: Op::Copy(Operand::Reg(vb)),
            });
        } else {
            // Inside serial loops: per-access realignment.
            let rt = self.f.fresh_reg(BcTy::RealignToken);
            cur.push(BcStmt::Def {
                dst: rt,
                op: Op::GetRt {
                    ty: elem,
                    addr,
                    mis,
                    modulo,
                },
            });
            let va = self.fresh_vec(elem);
            cur.push(BcStmt::Def {
                dst: va,
                op: Op::AlignLoad(elem, addr),
            });
            let idx_vf = self.fresh_scalar(ScalarTy::I64);
            cur.push(BcStmt::Def {
                dst: idx_vf,
                op: Op::SBin(BinOp::Add, ScalarTy::I64, idx_op, Operand::Reg(self.vf)),
            });
            let addr_vf = Addr {
                base: ArraySym(array.0),
                index: Operand::Reg(idx_vf),
                offset,
            };
            let vb = self.fresh_vec(elem);
            cur.push(BcStmt::Def {
                dst: vb,
                op: Op::AlignLoad(elem, addr_vf),
            });
            cur.push(BcStmt::Def {
                dst,
                op: Op::RealignLoad {
                    ty: elem,
                    lo: Some(va),
                    hi: Some(vb),
                    rt: Some(rt),
                    addr,
                    mis,
                    modulo,
                },
            });
        }
        Ok(dst)
    }

    /// Emit a strided vector load (`extract` idiom).
    fn emit_strided_load(
        &mut self,
        cur: &mut Vec<BcStmt>,
        array: ArrayId,
        idx: &Expr,
        stride: i64,
    ) -> Result<Reg, String> {
        self.feature(Feature::Strided);
        self.feature(Feature::Realign);
        let elem = self.kernel().array(array).elem;
        let (core, offset) = split_const_offset(idx);
        let idx_op = self.vx.em.emit_expr(self.f, cur, core, ScalarTy::I64);
        let mut srcs = Vec::new();
        for k in 0..stride {
            let idx_k = if k == 0 {
                idx_op
            } else {
                let kvf = self.fresh_scalar(ScalarTy::I64);
                cur.push(BcStmt::Def {
                    dst: kvf,
                    op: Op::SBin(
                        BinOp::Mul,
                        ScalarTy::I64,
                        Operand::Reg(self.vf),
                        Operand::ConstI(k),
                    ),
                });
                let sum = self.fresh_scalar(ScalarTy::I64);
                cur.push(BcStmt::Def {
                    dst: sum,
                    op: Op::SBin(BinOp::Add, ScalarTy::I64, idx_op, Operand::Reg(kvf)),
                });
                Operand::Reg(sum)
            };
            let addr = Addr {
                base: ArraySym(array.0),
                index: idx_k,
                offset,
            };
            let v = self.fresh_vec(elem);
            cur.push(BcStmt::Def {
                dst: v,
                op: Op::RealignLoad {
                    ty: elem,
                    lo: None,
                    hi: None,
                    rt: None,
                    addr,
                    mis: 0,
                    modulo: 0,
                },
            });
            srcs.push(v);
        }
        let dst = self.fresh_vec(elem);
        cur.push(BcStmt::Def {
            dst,
            op: Op::Extract {
                ty: elem,
                stride: stride as u8,
                offset: 0,
                srcs,
            },
        });
        Ok(dst)
    }

    // -------------- expressions --------------

    fn vec_expr(
        &mut self,
        cur: &mut Vec<BcStmt>,
        e: &Expr,
        ty: ScalarTy,
    ) -> Result<VecVal, String> {
        let factor = ty.size() / self.vf_ty.size();
        if !(factor == 1 || factor == 2) {
            return Err(format!(
                "element width {ty} not supported at VF type {}",
                self.vf_ty
            ));
        }
        // Hoisted splats for region-invariant values.
        if self.region_invariant(e) {
            let key = format!("{}:{:?}", vapor_ir::print_expr(self.kernel(), e), ty);
            if let Some(v) = self.splat_cache.get(&key) {
                return Ok(*v);
            }
            let mut pre = std::mem::take(self.pre);
            let opnd = self.vx.em.emit_expr(self.f, &mut pre, e, ty);
            let r = self.fresh_vec(ty);
            pre.push(BcStmt::Def {
                dst: r,
                op: Op::InitUniform(ty, opnd),
            });
            *self.pre = pre;
            let v = if factor == 1 {
                VecVal::Full(r)
            } else {
                VecVal::Halves(r, r)
            };
            self.splat_cache.insert(key, v);
            return Ok(v);
        }
        match e {
            Expr::Int(_) | Expr::Float(_) => unreachable!("literals are invariant"),
            Expr::Var(v) => {
                if let Some((r, t)) = self.vec_locals.get(v) {
                    if *t != ty {
                        return Err(format!("vector local {} used at wrong type", v.0));
                    }
                    Ok(if factor == 1 {
                        VecVal::Full(*r)
                    } else {
                        VecVal::Halves(*r, *r)
                    })
                } else if self.reductions.iter().any(|r| r.local == *v) {
                    Err("reduction accumulator used outside its reduction".into())
                } else {
                    Err(format!(
                        "unsupported variable use of {}",
                        self.kernel().var(*v).name
                    ))
                }
            }
            Expr::Load { array, index } => {
                let affine = analyze(self.kernel(), index)
                    .ok_or_else(|| "non-affine load subscript".to_owned())?;
                let elem = self.kernel().array(*array).elem;
                if elem != ty {
                    return Err(format!("load of {elem} used at {ty}"));
                }
                match affine.coeff_of(self.iv) {
                    Coeff::Const(0) => {
                        // iv-invariant but serial-loop-varying: scalar load
                        // + splat in place.
                        let opnd = self.vx.em.emit_expr(self.f, cur, e, ty);
                        let r = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: r,
                            op: Op::InitUniform(ty, opnd),
                        });
                        Ok(if factor == 1 {
                            VecVal::Full(r)
                        } else {
                            VecVal::Halves(r, r)
                        })
                    }
                    Coeff::Const(1) if factor == 1 => Ok(VecVal::Full(
                        self.emit_vec_load(cur, *array, index, &affine)?,
                    )),
                    Coeff::Const(s) if (2..=4).contains(&s) && factor == 1 => {
                        Ok(VecVal::Full(self.emit_strided_load(cur, *array, index, s)?))
                    }
                    c => Err(format!(
                        "unsupported load stride {c:?} at width factor {factor}"
                    )),
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                // Widening multiply: (wide)a * (wide)b with narrow a, b.
                if *op == BinOp::Mul && factor == 2 {
                    if let (Expr::Cast { ty: ta, arg: aa }, Expr::Cast { ty: tb, arg: ab }) =
                        (&**lhs, &**rhs)
                    {
                        let na = infer_expr(self.kernel(), aa).unwrap_or(*ta);
                        let nb = infer_expr(self.kernel(), ab).unwrap_or(*tb);
                        if *ta == ty
                            && *tb == ty
                            && na.size() == self.vf_ty.size()
                            && nb.size() == self.vf_ty.size()
                        {
                            self.feature(Feature::WidenMult);
                            let va = self.vec_expr(cur, aa, na)?.full()?;
                            let vb = self.vec_expr(cur, ab, nb)?.full()?;
                            let lo = self.fresh_vec(ty);
                            cur.push(BcStmt::Def {
                                dst: lo,
                                op: Op::WidenMultLo(na, va, vb),
                            });
                            let hi = self.fresh_vec(ty);
                            cur.push(BcStmt::Def {
                                dst: hi,
                                op: Op::WidenMultHi(na, va, vb),
                            });
                            return Ok(VecVal::Halves(lo, hi));
                        }
                    }
                }
                if matches!(op, BinOp::Shl | BinOp::Shr) {
                    let val = self.vec_expr(cur, lhs, ty)?;
                    let amt = if self.region_invariant(rhs) {
                        let mut pre = std::mem::take(self.pre);
                        let o = self.vx.em.emit_expr(self.f, &mut pre, rhs, ty);
                        *self.pre = pre;
                        ShiftAmt::Scalar(o)
                    } else {
                        ShiftAmt::PerLane(self.vec_expr(cur, rhs, ty)?.full()?)
                    };
                    let mk = |dst, v| BcStmt::Def {
                        dst,
                        op: if *op == BinOp::Shl {
                            Op::VShl(ty, v, amt)
                        } else {
                            Op::VShr(ty, v, amt)
                        },
                    };
                    return Ok(match val {
                        VecVal::Full(v) => {
                            let d = self.fresh_vec(ty);
                            cur.push(mk(d, v));
                            VecVal::Full(d)
                        }
                        VecVal::Halves(l, h) => {
                            let dl = self.fresh_vec(ty);
                            cur.push(mk(dl, l));
                            let dh = self.fresh_vec(ty);
                            cur.push(mk(dh, h));
                            VecVal::Halves(dl, dh)
                        }
                    });
                }
                if op.is_comparison() {
                    return Err("vector comparisons are not supported".into());
                }
                let a = self.vec_expr(cur, lhs, ty)?;
                let b = self.vec_expr(cur, rhs, ty)?;
                match (a, b) {
                    (VecVal::Full(x), VecVal::Full(y)) => {
                        let d = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: d,
                            op: Op::VBin(*op, ty, x, y),
                        });
                        Ok(VecVal::Full(d))
                    }
                    (VecVal::Halves(xl, xh), VecVal::Halves(yl, yh)) => {
                        let dl = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: dl,
                            op: Op::VBin(*op, ty, xl, yl),
                        });
                        let dh = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: dh,
                            op: Op::VBin(*op, ty, xh, yh),
                        });
                        Ok(VecVal::Halves(dl, dh))
                    }
                    _ => Err("mixed vector shapes in binary op".into()),
                }
            }
            Expr::Un { op, arg } => {
                let a = self.vec_expr(cur, arg, ty)?;
                Ok(match a {
                    VecVal::Full(x) => {
                        let d = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: d,
                            op: Op::VUn(*op, ty, x),
                        });
                        VecVal::Full(d)
                    }
                    VecVal::Halves(l, h) => {
                        let dl = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: dl,
                            op: Op::VUn(*op, ty, l),
                        });
                        let dh = self.fresh_vec(ty);
                        cur.push(BcStmt::Def {
                            dst: dh,
                            op: Op::VUn(*op, ty, h),
                        });
                        VecVal::Halves(dl, dh)
                    }
                })
            }
            Expr::Cast { ty: to, arg } => {
                assert_eq!(*to, ty, "checked by the validator");
                let from = infer_expr(self.kernel(), arg).unwrap_or(ty);
                if from == ty {
                    return self.vec_expr(cur, arg, ty);
                }
                if from.size() == ty.size() && from.is_int() != ty.is_int() {
                    // Lane-wise conversion.
                    self.feature(Feature::Cvt);
                    let a = self.vec_expr(cur, arg, from)?;
                    let mk = |dst, v| BcStmt::Def {
                        dst,
                        op: if from.is_int() {
                            Op::CvtInt2Fp(from, v)
                        } else {
                            Op::CvtFp2Int(from, v)
                        },
                    };
                    return Ok(match a {
                        VecVal::Full(v) => {
                            let d = self.fresh_vec(ty);
                            cur.push(mk(d, v));
                            VecVal::Full(d)
                        }
                        VecVal::Halves(l, h) => {
                            let dl = self.fresh_vec(ty);
                            cur.push(mk(dl, l));
                            let dh = self.fresh_vec(ty);
                            cur.push(mk(dh, h));
                            VecVal::Halves(dl, dh)
                        }
                    });
                }
                if ty.size() == 2 * from.size() && from.size() == self.vf_ty.size() {
                    // Widening promotion: unpack halves.
                    let v = self.vec_expr(cur, arg, from)?.full()?;
                    let lo = self.fresh_vec(ty);
                    cur.push(BcStmt::Def {
                        dst: lo,
                        op: Op::UnpackLo(from, v),
                    });
                    let hi = self.fresh_vec(ty);
                    cur.push(BcStmt::Def {
                        dst: hi,
                        op: Op::UnpackHi(from, v),
                    });
                    return Ok(VecVal::Halves(lo, hi));
                }
                if from.size() == 2 * ty.size() && ty.size() == self.vf_ty.size() {
                    // Narrowing demotion: pack halves.
                    let v = self.vec_expr(cur, arg, from)?;
                    let VecVal::Halves(l, h) = v else {
                        return Err("narrowing cast of full-width value".into());
                    };
                    let d = self.fresh_vec(ty);
                    cur.push(BcStmt::Def {
                        dst: d,
                        op: Op::Pack(from, l, h),
                    });
                    return Ok(VecVal::Full(d));
                }
                Err(format!("unsupported vector conversion {from} -> {ty}"))
            }
        }
    }

    // -------------- reductions --------------

    fn setup_reduction(&mut self, local: VarId, value: &Expr) -> Result<(), String> {
        let (op, e) = reduction_of(self.kernel(), local, value)
            .ok_or_else(|| "unrecognized reduction".to_owned())?;
        let s_ty = self.kernel().var(local).ty;
        let kind;
        let acc_ty;
        // The dot/SAD idioms accumulate with `+=` only; a min/max/sub of
        // the same multiply shape is a plain reduction.
        let dot = if op == BinOp::Add {
            dot_pattern(self.kernel(), e, s_ty, self.vf_ty)
        } else {
            None
        };
        let sad = if op == BinOp::Add {
            sad_pattern(self.kernel(), e, s_ty, self.vf_ty)
        } else {
            None
        };
        if let Some((a, b, in_ty)) = dot {
            kind = ReductionKind::Dot { a, b, in_ty };
            acc_ty = in_ty.widened().unwrap();
            self.feature(Feature::DotProduct);
            self.feature(Feature::Reduction);
        } else if let Some((a, b)) = sad {
            kind = ReductionKind::Sad { a, b };
            acc_ty = ScalarTy::U32;
            self.feature(Feature::AbsDiff);
            self.feature(Feature::Reduction);
        } else {
            if s_ty.size() != self.vf_ty.size() {
                return Err(format!(
                    "reduction type {s_ty} wider than the loop's VF type {}",
                    self.vf_ty
                ));
            }
            kind = ReductionKind::Plain;
            acc_ty = s_ty;
            self.feature(Feature::Reduction);
        }

        // Prologue: vacc = init_reduc(s, neutral)
        let s_reg = self.vx.em.var_reg(self.f, local);
        let init_val: Operand = if acc_ty == s_ty {
            Operand::Reg(s_reg)
        } else {
            let c = self.fresh_scalar(acc_ty);
            self.pre.push(BcStmt::Def {
                dst: c,
                op: Op::SCast {
                    from: s_ty,
                    to: acc_ty,
                    arg: Operand::Reg(s_reg),
                },
            });
            Operand::Reg(c)
        };
        let neutral = match op {
            // Sub lanes start at 0 too: lane k accumulates −Σ eₖ and the
            // plus-fold recovers s₀ − Σ e.
            BinOp::Add | BinOp::Sub => {
                if acc_ty.is_float() {
                    Operand::ConstF(0.0)
                } else {
                    Operand::ConstI(0)
                }
            }
            // min/max: pad with the initial value itself.
            _ => init_val,
        };
        let vacc = self.fresh_vec(acc_ty);
        self.pre.push(BcStmt::Def {
            dst: vacc,
            op: Op::InitReduc(acc_ty, init_val, neutral),
        });
        self.reductions.push(ReductionState {
            local,
            op,
            vacc,
            acc_ty,
            kind,
        });
        Ok(())
    }

    fn emit_reduction_step(&mut self, cur: &mut Vec<BcStmt>, idx: usize) -> Result<(), String> {
        let (kind, op, vacc, acc_ty) = {
            let r = &self.reductions[idx];
            (r.kind.clone(), r.op, r.vacc, r.acc_ty)
        };
        match kind {
            ReductionKind::Plain => {
                // Re-fetch the expression each time from the reduction
                // statement; stored at setup time via closure capture is
                // avoided by re-deriving in emit_body.
                unreachable!("plain reductions are emitted inline in emit_body")
            }
            ReductionKind::Dot { a, b, in_ty } => {
                let va = self.vec_expr(cur, &a, in_ty)?.full()?;
                let vb = self.vec_expr(cur, &b, in_ty)?.full()?;
                cur.push(BcStmt::Def {
                    dst: vacc,
                    op: Op::DotProduct(in_ty, va, vb, vacc),
                });
                Ok(())
            }
            ReductionKind::Sad { a, b } => {
                let va = self.vec_expr(cur, &a, ScalarTy::U8)?.full()?;
                let vb = self.vec_expr(cur, &b, ScalarTy::U8)?.full()?;
                let ones = {
                    let key = "sad_ones".to_owned();
                    if let Some(VecVal::Full(r)) = self.splat_cache.get(&key) {
                        *r
                    } else {
                        let r = self.fresh_vec(ScalarTy::U16);
                        self.pre.push(BcStmt::Def {
                            dst: r,
                            op: Op::InitUniform(ScalarTy::U16, Operand::ConstI(1)),
                        });
                        self.splat_cache.insert(key, VecVal::Full(r));
                        r
                    }
                };
                for hi in [false, true] {
                    let pa = self.fresh_vec(ScalarTy::U16);
                    cur.push(BcStmt::Def {
                        dst: pa,
                        op: if hi {
                            Op::UnpackHi(ScalarTy::U8, va)
                        } else {
                            Op::UnpackLo(ScalarTy::U8, va)
                        },
                    });
                    let pb = self.fresh_vec(ScalarTy::U16);
                    cur.push(BcStmt::Def {
                        dst: pb,
                        op: if hi {
                            Op::UnpackHi(ScalarTy::U8, vb)
                        } else {
                            Op::UnpackLo(ScalarTy::U8, vb)
                        },
                    });
                    let mx = self.fresh_vec(ScalarTy::U16);
                    cur.push(BcStmt::Def {
                        dst: mx,
                        op: Op::VBin(BinOp::Max, ScalarTy::U16, pa, pb),
                    });
                    let mn = self.fresh_vec(ScalarTy::U16);
                    cur.push(BcStmt::Def {
                        dst: mn,
                        op: Op::VBin(BinOp::Min, ScalarTy::U16, pa, pb),
                    });
                    let d = self.fresh_vec(ScalarTy::U16);
                    cur.push(BcStmt::Def {
                        dst: d,
                        op: Op::VBin(BinOp::Sub, ScalarTy::U16, mx, mn),
                    });
                    cur.push(BcStmt::Def {
                        dst: vacc,
                        op: Op::DotProduct(ScalarTy::U16, d, ones, vacc),
                    });
                }
                let _ = (op, acc_ty);
                Ok(())
            }
        }
    }

    // -------------- statements --------------

    fn emit_body(&mut self, body: &[Stmt], cur: &mut Vec<BcStmt>) -> Result<(), String> {
        // Strided store groups are handled pairwise; collect indices of
        // statements consumed by a group so they are skipped.
        let mut consumed = vec![false; body.len()];
        for i in 0..body.len() {
            if consumed[i] {
                continue;
            }
            if let Stmt::Store { array, index, .. } = &body[i] {
                let aff = analyze(self.kernel(), index);
                if let Some(aff) = aff {
                    if aff.coeff_of(self.iv) == Coeff::Const(2) {
                        // find the partner store with offset +1
                        let partner = (i + 1..body.len()).find(|&j| {
                            if consumed[j] {
                                return false;
                            }
                            if let Stmt::Store {
                                array: a2,
                                index: idx2,
                                ..
                            } = &body[j]
                            {
                                if a2 != array {
                                    return false;
                                }
                                analyze(self.kernel(), idx2)
                                    .and_then(|a2f| a2f.minus(&aff))
                                    .and_then(|d| d.as_const())
                                    == Some(1)
                            } else {
                                false
                            }
                        });
                        let j = partner.ok_or_else(|| {
                            "stride-2 store without an interleaving partner".to_owned()
                        })?;
                        consumed[i] = true;
                        consumed[j] = true;
                        self.emit_interleaved_stores(cur, &body[i], &body[j])?;
                        continue;
                    }
                }
            }
            consumed[i] = true;
            self.emit_one(&body[i], cur)?;
        }
        Ok(())
    }

    fn emit_one(&mut self, s: &Stmt, cur: &mut Vec<BcStmt>) -> Result<(), String> {
        match s {
            Stmt::Assign { var, value } => {
                if self.inner_vars.is_empty() && value.uses_var(*var) {
                    // Reduction step (prologue prepared in setup).
                    let idx = self
                        .reductions
                        .iter()
                        .position(|r| r.local == *var)
                        .ok_or_else(|| "unprepared reduction".to_owned())?;
                    if self.reductions[idx].kind == ReductionKind::Plain {
                        let (op, vacc, acc_ty) = {
                            let r = &self.reductions[idx];
                            (r.op, r.vacc, r.acc_ty)
                        };
                        let (_, e) = reduction_of(self.kernel(), *var, value).unwrap();
                        let ev = self.vec_expr(cur, e, acc_ty)?.full()?;
                        cur.push(BcStmt::Def {
                            dst: vacc,
                            op: Op::VBin(op, acc_ty, vacc, ev),
                        });
                    } else {
                        self.emit_reduction_step(cur, idx)?;
                    }
                    Ok(())
                } else {
                    // Vector local (per-lane value). It gets a dedicated
                    // register: aliasing the RHS would break when the RHS
                    // is a cached loop-invariant splat and the local is
                    // re-assigned inside a serial loop.
                    let ty = self.kernel().var(*var).ty;
                    let v = self.vec_expr(cur, value, ty)?.full()?;
                    let r = match self.vec_locals.get(var) {
                        Some((r, _)) => *r,
                        None => {
                            let r = self.fresh_vec(ty);
                            self.vec_locals.insert(*var, (r, ty));
                            r
                        }
                    };
                    cur.push(BcStmt::Def {
                        dst: r,
                        op: Op::Copy(Operand::Reg(v)),
                    });
                    Ok(())
                }
            }
            Stmt::Store {
                array,
                index,
                value,
            } => {
                let elem = self.kernel().array(*array).elem;
                let affine = analyze(self.kernel(), index)
                    .ok_or_else(|| "non-affine store subscript".to_owned())?;
                if affine.coeff_of(self.iv) != Coeff::Const(1) {
                    return Err("store stride must be 1 (or a 2-group)".into());
                }
                let v = self.vec_expr(cur, value, elem)?.full()?;
                let (mis, modulo) = self.hint_of(&affine, elem.size());
                let (core, offset) = split_const_offset(index);
                let idx_op = self.vx.em.emit_expr(self.f, cur, core, ScalarTy::I64);
                cur.push(BcStmt::VStore {
                    ty: elem,
                    addr: Addr {
                        base: ArraySym(array.0),
                        index: idx_op,
                        offset,
                    },
                    src: v,
                    mis,
                    modulo,
                });
                Ok(())
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                // Serial loop inside the vectorized one (outer-loop mode).
                let lo_v = self.vx.em.emit_expr(self.f, cur, lo, ScalarTy::I64);
                let hi_v = self.vx.em.emit_expr(self.f, cur, hi, ScalarTy::I64);
                let ivar = self.vx.em.var_reg(self.f, *var);
                self.inner_vars.push(*var);
                let mut inner = Vec::new();
                // Reductions over serial loops are vector locals updated
                // serially; prepare them as vector locals.
                for st in body {
                    self.emit_one(st, &mut inner)?;
                }
                self.inner_vars.pop();
                cur.push(BcStmt::Loop {
                    var: ivar,
                    lo: lo_v,
                    limit: hi_v,
                    step: Step::Const(*step),
                    kind: LoopKind::Plain,
                    group: 0,
                    body: inner,
                });
                Ok(())
            }
        }
    }

    fn emit_interleaved_stores(
        &mut self,
        cur: &mut Vec<BcStmt>,
        s0: &Stmt,
        s1: &Stmt,
    ) -> Result<(), String> {
        self.feature(Feature::Strided);
        let (
            Stmt::Store {
                array,
                index,
                value: v0,
            },
            Stmt::Store { value: v1, .. },
        ) = (s0, s1)
        else {
            unreachable!()
        };
        let elem = self.kernel().array(*array).elem;
        let a = self.vec_expr(cur, v0, elem)?.full()?;
        let b = self.vec_expr(cur, v1, elem)?.full()?;
        let il = self.fresh_vec(elem);
        cur.push(BcStmt::Def {
            dst: il,
            op: Op::InterleaveLo(elem, a, b),
        });
        let ih = self.fresh_vec(elem);
        cur.push(BcStmt::Def {
            dst: ih,
            op: Op::InterleaveHi(elem, a, b),
        });
        let affine = analyze(self.kernel(), index).unwrap();
        let (mis, modulo) = self.hint_of(&affine, elem.size());
        let (core, offset) = split_const_offset(index);
        let idx_op = self.vx.em.emit_expr(self.f, cur, core, ScalarTy::I64);
        cur.push(BcStmt::VStore {
            ty: elem,
            addr: Addr {
                base: ArraySym(array.0),
                index: idx_op,
                offset,
            },
            src: il,
            mis,
            modulo,
        });
        // Second store at +VF elements.
        let idx2 = self.fresh_scalar(ScalarTy::I64);
        cur.push(BcStmt::Def {
            dst: idx2,
            op: Op::SBin(BinOp::Add, ScalarTy::I64, idx_op, Operand::Reg(self.vf)),
        });
        let mis2 = if modulo == 0 { 0 } else { mis }; // +VS keeps the class
        cur.push(BcStmt::VStore {
            ty: elem,
            addr: Addr {
                base: ArraySym(array.0),
                index: Operand::Reg(idx2),
                offset,
            },
            src: ih,
            mis: mis2,
            modulo,
        });
        Ok(())
    }
}

/// Dot-product pattern: `(W)a * (W)b` with `W = widened(vf_ty)` and
/// narrow operands of the loop's VF type.
fn dot_pattern(
    k: &Kernel,
    e: &Expr,
    s_ty: ScalarTy,
    vf_ty: ScalarTy,
) -> Option<(Expr, Expr, ScalarTy)> {
    let w = vf_ty.widened()?;
    if s_ty != w || !vf_ty.is_int() {
        return None;
    }
    if let Expr::Bin {
        op: BinOp::Mul,
        lhs,
        rhs,
    } = e
    {
        if let (Expr::Cast { ty: ta, arg: a }, Expr::Cast { ty: tb, arg: b }) = (&**lhs, &**rhs) {
            let na = infer_expr(k, a)?;
            let nb = infer_expr(k, b)?;
            if *ta == w && *tb == w && na == vf_ty && nb == vf_ty {
                return Some(((**a).clone(), (**b).clone(), vf_ty));
            }
        }
    }
    None
}

/// SAD pattern: `(int) abs((short)a - (short)b)` over u8 data.
fn sad_pattern(k: &Kernel, e: &Expr, s_ty: ScalarTy, vf_ty: ScalarTy) -> Option<(Expr, Expr)> {
    if s_ty != ScalarTy::I32 || vf_ty != ScalarTy::U8 {
        return None;
    }
    let Expr::Cast {
        ty: ScalarTy::I32,
        arg,
    } = e
    else {
        return None;
    };
    let Expr::Un {
        op: UnOp::Abs,
        arg: diff,
    } = &**arg
    else {
        return None;
    };
    let Expr::Bin {
        op: BinOp::Sub,
        lhs,
        rhs,
    } = &**diff
    else {
        return None;
    };
    let (Expr::Cast { ty: ta, arg: a }, Expr::Cast { ty: tb, arg: b }) = (&**lhs, &**rhs) else {
        return None;
    };
    if !matches!(ta, ScalarTy::I16) || !matches!(tb, ScalarTy::I16) {
        return None;
    }
    if infer_expr(k, a)? != ScalarTy::U8 || infer_expr(k, b)? != ScalarTy::U8 {
        return None;
    }
    Some(((**a).clone(), (**b).clone()))
}
