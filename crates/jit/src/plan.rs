//! Online planning: version-guard folding and per-group vectorization
//! strategy (§III-C of the paper). Both read the target's support table
//! ([`TargetDesc::support`]) and its [`MisalignedAccess`] mode.

use vapor_bytecode::{BcFunction, BcStmt, GuardCond, LoopKind, Op, OpClass, Operand, ShiftAmt};
use vapor_ir::{BinOp, ScalarTy, UnOp};
use vapor_targets::{MisalignedAccess, Support, TargetDesc};

use crate::lower::JitError;
use crate::options::JitOptions;

/// How the online stage treats one vectorized loop group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMode {
    /// Lower to real vector instructions with the target's VF.
    Vector,
    /// Direct scalarization (Figure 3b): VF = 1, every idiom mapped to
    /// its scalar counterpart; the main loop covers the whole range.
    DirectScalar,
    /// Zero-trip the vector main loop and let the always-present scalar
    /// tail loop execute everything (used when the body contains
    /// sub-vector idioms that have no VF=1 meaning).
    TailScalar,
}

impl GroupMode {
    /// Whether the group executes scalar code.
    pub fn is_scalar(self) -> bool {
        self != GroupMode::Vector
    }
}

/// Result of folding one guard.
#[derive(Debug, Clone, PartialEq)]
pub enum Fold {
    /// Condition statically true: lower the then-version only.
    True,
    /// Condition statically false: lower the else-version only.
    False,
    /// Runtime test needed for the given residual conjuncts.
    Runtime(Vec<GuardCond>),
}

/// Fold a guard condition as far as the pipeline's knowledge allows.
pub fn fold_guard(cond: &GuardCond, target: &TargetDesc, opts: &JitOptions) -> Fold {
    match cond {
        GuardCond::TypeSupported(t) => {
            if target.supports_elem(*t) {
                Fold::True
            } else {
                Fold::False
            }
        }
        GuardCond::VsAtLeast(b) => {
            if target.vs as u32 >= *b {
                Fold::True
            } else {
                Fold::False
            }
        }
        GuardCond::OpsSupported(cs) => {
            // The 2011 NEON backend *claims* widening multiply and
            // conversions but implements them via library helpers; the
            // claim selects the vector version (paper §V-B).
            let claimed = cs.iter().all(|c| match target.support(*c) {
                Support::Native | Support::Helper => true,
                Support::Unsupported => false,
            });
            if claimed {
                Fold::True
            } else {
                Fold::False
            }
        }
        GuardCond::BaseAligned(_) => {
            if opts.owns_memory() {
                // The JIT allocates arrays on MAX_VS boundaries.
                Fold::True
            } else {
                // gcc4cli-class online compilers and native peel-or-version
                // compilation both resolve base alignment at run time
                // (hoisted to one check per call).
                Fold::Runtime(vec![cond.clone()])
            }
        }
        GuardCond::NoAlias(..) => {
            if opts.owns_memory() || opts.assumes_no_alias() {
                Fold::True
            } else {
                Fold::Runtime(vec![cond.clone()])
            }
        }
        GuardCond::StrideAligned { stride, ty, .. } => {
            // Foldable only when the stride is a literal (and alignment of
            // the base is knowable); our kernels pass runtime dimensions,
            // so this is normally a runtime test for every pipeline —
            // hoisted by optimizing compilers, re-evaluated in place by
            // the naive JIT (the MMM case of §V-A). A literal whose byte
            // stride overflows (verified bytecode allows any constant)
            // stays a runtime test.
            if opts.folds_constants() {
                if let Operand::ConstI(s) = stride {
                    if let Some(bytes) = s.checked_mul(ty.size() as i64) {
                        let base_ok =
                            opts.owns_memory() || opts.pipeline == crate::options::Pipeline::Native;
                        if bytes % target.vs.max(1) as i64 != 0 {
                            return Fold::False;
                        } else if base_ok {
                            return Fold::True;
                        }
                    }
                }
            }
            Fold::Runtime(vec![cond.clone()])
        }
        GuardCond::All(gs) => {
            let mut residual = Vec::new();
            for g in gs {
                match fold_guard(g, target, opts) {
                    Fold::True => {}
                    Fold::False => return Fold::False,
                    Fold::Runtime(mut r) => residual.append(&mut r),
                }
            }
            if residual.is_empty() {
                Fold::True
            } else {
                Fold::Runtime(residual)
            }
        }
    }
}

/// The effective misalignment of a hinted access on this target:
/// `Some(k)` when the hint is usable (`mod != 0` and `VS` divides `mod`),
/// `None` when alignment is unknown until run time.
pub fn known_misalignment(mis: u32, modulo: u32, vs: usize) -> Option<u32> {
    if modulo == 0 || vs == 0 || !(modulo as usize).is_multiple_of(vs) {
        None
    } else {
        Some(mis % vs as u32)
    }
}

/// Reasons a group cannot be lowered to vector code on a target.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarReason {
    /// An element type has no vector support (or fewer than 2 lanes).
    Elem(ScalarTy),
    /// A store with unknown alignment on a target whose stores must be
    /// aligned ([`MisalignedAccess::Realign`] or `AlignedOnly`).
    UnalignedStore,
    /// A load with unknown/nonzero misalignment on a
    /// [`MisalignedAccess::AlignedOnly`] target.
    UnalignedLoad,
    /// Per-lane shift amounts on a target without them.
    PerLaneShift,
    /// Float division/sqrt without vector support (should normally have
    /// been guarded offline).
    FloatOp,
    /// The target has no SIMD at all.
    NoSimd,
    /// A half-based sub-vector idiom (widening multiply, pack/unpack,
    /// interleave, strided extract, dot product) on a vector-length-
    /// agnostic target: "lo/hi half" has no fixed meaning when the lane
    /// count is a runtime quantity.
    VlaSubVector,
    /// Mixed element widths inside one group on a VLA target: a single
    /// `setvl` element width cannot govern both.
    VlaMixedWidth,
}

/// The online verdict on one vectorized loop group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
    /// How the group is lowered.
    pub mode: GroupMode,
    /// Why the group cannot stay vector, each reason once, in the order
    /// first seen: empty exactly when `mode` is [`GroupMode::Vector`].
    pub reasons: Vec<ScalarReason>,
}

/// What the planning walk has seen of one group's `VectorMain` bodies.
#[derive(Default)]
struct Scan {
    reasons: Vec<ScalarReason>,
    subvector: bool,
    /// Element sizes seen, one bit each (sizes are powers of two).
    widths: usize,
}

impl Scan {
    /// Record a reason once, however many statements give it.
    fn bad(&mut self, r: ScalarReason) {
        if !self.reasons.contains(&r) {
            self.reasons.push(r);
        }
    }

    fn elem(&mut self, t: ScalarTy, target: &TargetDesc) {
        if !target.supports_elem(t) {
            self.bad(ScalarReason::Elem(t));
        }
        self.widths |= t.size();
    }

    /// Division and square root lower to a library helper unless native;
    /// only an unsupported class scalarizes the group.
    fn float_op(&mut self, c: OpClass, target: &TargetDesc) {
        match target.support(c) {
            Support::Native | Support::Helper => {}
            Support::Unsupported => self.bad(ScalarReason::FloatOp),
        }
    }

    /// Scan one statement of a `VectorMain` body; nested statements are
    /// the walk's business.
    fn stmt(&mut self, s: &BcStmt, target: &TargetDesc) {
        let vs = target.vs;
        match s {
            BcStmt::Loop { .. } | BcStmt::Version { .. } | BcStmt::SStore { .. } => {}
            BcStmt::VStore {
                ty, mis, modulo, ..
            } => {
                self.elem(*ty, target);
                match (known_misalignment(*mis, *modulo, vs), target.misaligned) {
                    (Some(0), _) | (_, MisalignedAccess::Unaligned) => {}
                    (_, MisalignedAccess::Realign | MisalignedAccess::AlignedOnly) => {
                        self.bad(ScalarReason::UnalignedStore)
                    }
                }
            }
            BcStmt::Def { op, .. } => match op {
                Op::DotProduct(t, ..)
                | Op::WidenMultHi(t, ..)
                | Op::WidenMultLo(t, ..)
                | Op::Pack(t, ..)
                | Op::UnpackHi(t, ..)
                | Op::UnpackLo(t, ..)
                | Op::Extract { ty: t, .. }
                | Op::InterleaveHi(t, ..)
                | Op::InterleaveLo(t, ..) => {
                    self.subvector = true;
                    if target.vla {
                        self.bad(ScalarReason::VlaSubVector);
                    }
                    self.elem(*t, target);
                }
                Op::VBin(b, t, ..) => {
                    self.elem(*t, target);
                    if *b == BinOp::Div {
                        self.float_op(OpClass::FDiv, target);
                    }
                }
                Op::VUn(u, t, ..) => {
                    self.elem(*t, target);
                    if *u == UnOp::Sqrt {
                        self.float_op(OpClass::FSqrt, target);
                    }
                }
                Op::VShl(t, _, amt) | Op::VShr(t, _, amt) => {
                    self.elem(*t, target);
                    if matches!(amt, ShiftAmt::PerLane(_)) {
                        match target.support(OpClass::PerLaneShift) {
                            Support::Native => {}
                            // No library routine shifts lane by lane.
                            Support::Helper | Support::Unsupported => {
                                self.bad(ScalarReason::PerLaneShift)
                            }
                        }
                    }
                }
                Op::CvtInt2Fp(t, _)
                | Op::CvtFp2Int(t, _)
                | Op::InitUniform(t, _)
                | Op::InitAffine(t, ..)
                | Op::InitReduc(t, ..)
                | Op::ReducPlus(t, _)
                | Op::ReducMax(t, _)
                | Op::ReducMin(t, _)
                | Op::ALoad(t, _) => self.elem(*t, target),
                Op::RealignLoad {
                    ty, mis, modulo, ..
                } => {
                    self.elem(*ty, target);
                    match (known_misalignment(*mis, *modulo, vs), target.misaligned) {
                        (Some(0), _) => {}
                        (_, MisalignedAccess::Unaligned | MisalignedAccess::Realign) => {}
                        (_, MisalignedAccess::AlignedOnly) => self.bad(ScalarReason::UnalignedLoad),
                    }
                }
                _ => {}
            },
        }
    }

    fn finish(mut self, target: &TargetDesc) -> GroupPlan {
        // One stripmined loop has one `setvl` element width: a VLA group
        // mixing element sizes cannot be predicated consistently.
        if target.vla && self.widths.count_ones() > 1 {
            self.reasons.push(ScalarReason::VlaMixedWidth);
        }
        let mode = if self.reasons.is_empty() {
            GroupMode::Vector
        } else if self.subvector {
            GroupMode::TailScalar
        } else {
            GroupMode::DirectScalar
        };
        GroupPlan {
            mode,
            reasons: self.reasons,
        }
    }
}

/// One walk over `stmts`: every statement inside a `VectorMain` loop is
/// scanned into the group of each enclosing `VectorMain` loop (`active`).
fn walk(
    f: &BcFunction,
    stmts: &[BcStmt],
    target: &TargetDesc,
    scans: &mut Vec<Option<Scan>>,
    active: &mut Vec<u32>,
) -> Result<(), JitError> {
    for s in stmts {
        for &g in active.iter() {
            if let Some(scan) = &mut scans[g as usize] {
                scan.stmt(s, target);
            }
        }
        match s {
            BcStmt::Loop {
                kind, group, body, ..
            } => {
                let main = *kind == LoopKind::VectorMain && !active.contains(group);
                if main {
                    let g = *group as usize;
                    // The vectorizer gives every group registers of its
                    // own, so an id past the register count is malformed
                    // input; it must not size the table.
                    if g >= f.regs.len() {
                        return Err(JitError(format!("{}: loop group {g} out of range", f.name)));
                    }
                    if scans.len() <= g {
                        scans.resize_with(g + 1, || None);
                    }
                    let scan = scans[g].get_or_insert_with(Scan::default);
                    if !target.has_simd() {
                        scan.bad(ScalarReason::NoSimd);
                    }
                    active.push(*group);
                }
                walk(f, body, target, scans, active)?;
                if main {
                    active.pop();
                }
            }
            BcStmt::Version {
                then_body,
                else_body,
                ..
            } => {
                walk(f, then_body, target, scans, active)?;
                walk(f, else_body, target, scans, active)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Plan every loop group of `f` in one walk: entry `g` is the plan of
/// group `g`, `None` for ids with no `VectorMain` loop. A group's mode
/// comes from scanning all its `VectorMain` bodies.
///
/// # Errors
/// A [`JitError`] for a group id no register-sized table can hold.
pub fn plan_groups(
    f: &BcFunction,
    target: &TargetDesc,
) -> Result<Vec<Option<GroupPlan>>, JitError> {
    let mut scans = Vec::new();
    walk(f, &f.body, target, &mut scans, &mut Vec::new())?;
    Ok(scans
        .into_iter()
        .map(|s| s.map(|s| s.finish(target)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Pipeline;
    use vapor_bytecode::{Addr, ArraySym, BcArray, BcParam, BcTy, Reg, Step};
    use vapor_ir::ArrayKind;
    use vapor_targets::{altivec, neon64, scalar_only, sse};

    #[test]
    fn overflowing_literal_strides_fold_to_runtime_tests() {
        // Verified bytecode may carry any constant stride; a byte stride
        // that overflows i64 is left to the runtime test.
        for pipeline in [Pipeline::OptJit, Pipeline::Native] {
            for s in [i64::MAX, i64::MIN] {
                let g = GuardCond::StrideAligned {
                    array: ArraySym(0),
                    stride: Operand::ConstI(s),
                    ty: ScalarTy::F32,
                };
                let fold = fold_guard(&g, &sse(), &JitOptions::new(pipeline));
                assert_eq!(fold, Fold::Runtime(vec![g]), "{pipeline:?} stride {s}");
            }
        }
    }

    #[test]
    fn type_guard_folds_per_target() {
        let naive = JitOptions::new(Pipeline::NaiveJit);
        let g = GuardCond::TypeSupported(ScalarTy::F64);
        assert_eq!(fold_guard(&g, &sse(), &naive), Fold::True);
        assert_eq!(fold_guard(&g, &altivec(), &naive), Fold::False);
    }

    #[test]
    fn base_aligned_folds_only_when_memory_owned() {
        let g = GuardCond::BaseAligned(ArraySym(0));
        assert_eq!(
            fold_guard(&g, &sse(), &JitOptions::new(Pipeline::NaiveJit)),
            Fold::True
        );
        assert!(matches!(
            fold_guard(&g, &sse(), &JitOptions::new(Pipeline::OptJit)),
            Fold::Runtime(_)
        ));
        assert!(matches!(
            fold_guard(&g, &sse(), &JitOptions::new(Pipeline::Native)),
            Fold::Runtime(_)
        ));
    }

    #[test]
    fn all_collects_residuals() {
        let g = GuardCond::All(vec![
            GuardCond::TypeSupported(ScalarTy::F32),
            GuardCond::BaseAligned(ArraySym(0)),
            GuardCond::NoAlias(ArraySym(0), ArraySym(1)),
        ]);
        match fold_guard(&g, &sse(), &JitOptions::new(Pipeline::OptJit)) {
            Fold::Runtime(r) => assert_eq!(r.len(), 2),
            other => panic!("expected runtime fold, got {other:?}"),
        }
    }

    #[test]
    fn known_misalignment_requires_divisible_mod() {
        assert_eq!(known_misalignment(8, 32, 16), Some(8));
        assert_eq!(known_misalignment(16, 32, 16), Some(0));
        assert_eq!(known_misalignment(8, 0, 16), None);
        assert_eq!(known_misalignment(8, 32, 12), None);
    }

    fn func_with_group(body: Vec<BcStmt>) -> BcFunction {
        let mut f = BcFunction::new(
            "t",
            vec![BcParam {
                name: "n".into(),
                ty: ScalarTy::I64,
            }],
            vec![BcArray {
                name: "x".into(),
                elem: ScalarTy::F32,
                kind: ArrayKind::Global,
            }],
        );
        let i = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        f.body = vec![BcStmt::Loop {
            var: i,
            lo: Operand::ConstI(0),
            limit: Operand::Reg(Reg(0)),
            step: Step::Vf(ScalarTy::F32, 1),
            kind: LoopKind::VectorMain,
            group: 1,
            body,
        }];
        f
    }

    /// The plan of the test function's one group.
    fn plan(f: &BcFunction, target: &TargetDesc) -> GroupPlan {
        let mut plans = plan_groups(f, target).unwrap();
        plans[1].take().expect("group 1 is planned")
    }

    #[test]
    fn unaligned_store_scalarizes_on_altivec_only() {
        let mut proto = func_with_group(vec![]);
        let v = proto.fresh_reg(BcTy::Vec(ScalarTy::F32));
        let body = vec![
            BcStmt::Def {
                dst: v,
                op: Op::RealignLoad {
                    ty: ScalarTy::F32,
                    lo: None,
                    hi: None,
                    rt: None,
                    addr: Addr::new(ArraySym(0), Operand::ConstI(0)),
                    mis: 0,
                    modulo: 0,
                },
            },
            BcStmt::VStore {
                ty: ScalarTy::F32,
                addr: Addr::new(ArraySym(0), Operand::ConstI(0)),
                src: v,
                mis: 0,
                modulo: 0,
            },
        ];
        let mut f = func_with_group(body);
        f.regs = proto.regs.clone();
        assert_eq!(plan(&f, &sse()).mode, GroupMode::Vector);
        assert_eq!(plan(&f, &neon64()).reasons, vec![]);
        let on_altivec = plan(&f, &altivec());
        assert_eq!(on_altivec.mode, GroupMode::DirectScalar);
        assert_eq!(on_altivec.reasons, vec![ScalarReason::UnalignedStore]);
        let scalar = plan(&f, &scalar_only());
        assert_eq!(scalar.mode, GroupMode::DirectScalar);
        assert_eq!(scalar.reasons[0], ScalarReason::NoSimd);
    }

    /// A one-group function whose body defines a fresh vector `v` of
    /// `ty` as `op(v)`.
    fn group_def(ty: ScalarTy, op: impl FnOnce(Reg) -> Op) -> BcFunction {
        let mut f = func_with_group(vec![]);
        let v = f.fresh_reg(BcTy::Vec(ty));
        if let BcStmt::Loop { body, .. } = &mut f.body[0] {
            body.push(BcStmt::Def { dst: v, op: op(v) });
        }
        f
    }

    #[test]
    fn float_ops_scalarize_on_altivec() {
        let ops: [fn(Reg) -> Op; 2] = [
            |v| Op::VBin(BinOp::Div, ScalarTy::F32, v, v),
            |v| Op::VUn(UnOp::Sqrt, ScalarTy::F32, v),
        ];
        for op in ops {
            let f = group_def(ScalarTy::F32, op);
            assert_eq!(plan(&f, &sse()).mode, GroupMode::Vector);
            let on_altivec = plan(&f, &altivec());
            assert_eq!(on_altivec.mode, GroupMode::DirectScalar);
            assert_eq!(on_altivec.reasons, vec![ScalarReason::FloatOp]);
        }
    }

    #[test]
    fn per_lane_shift_scalarizes_on_sse() {
        let f = group_def(ScalarTy::I32, |v| {
            Op::VShl(ScalarTy::I32, v, ShiftAmt::PerLane(v))
        });
        assert_eq!(plan(&f, &altivec()).mode, GroupMode::Vector);
        let on_sse = plan(&f, &sse());
        assert_eq!(on_sse.mode, GroupMode::DirectScalar);
        assert_eq!(on_sse.reasons, vec![ScalarReason::PerLaneShift]);
    }

    #[test]
    fn unaligned_load_scalarizes_on_aligned_only_targets() {
        let f = group_def(ScalarTy::F32, |_| Op::RealignLoad {
            ty: ScalarTy::F32,
            lo: None,
            hi: None,
            rt: None,
            addr: Addr::new(ArraySym(0), Operand::ConstI(0)),
            mis: 0,
            modulo: 0,
        });
        assert_eq!(plan(&f, &sse()).mode, GroupMode::Vector);
        assert_eq!(plan(&f, &altivec()).mode, GroupMode::Vector);
        let aligned_only = TargetDesc {
            misaligned: MisalignedAccess::AlignedOnly,
            ..sse()
        };
        let p = plan(&f, &aligned_only);
        assert_eq!(p.mode, GroupMode::DirectScalar);
        assert_eq!(p.reasons, vec![ScalarReason::UnalignedLoad]);
    }

    #[test]
    fn subvector_idioms_force_tail_scalarization() {
        let mut proto = func_with_group(vec![]);
        let a = proto.fresh_reg(BcTy::Vec(ScalarTy::I16));
        let acc = proto.fresh_reg(BcTy::Vec(ScalarTy::I32));
        let body = vec![BcStmt::Def {
            dst: acc,
            op: Op::DotProduct(ScalarTy::I16, a, a, acc),
        }];
        let mut f = func_with_group(body);
        f.regs = proto.regs.clone();
        assert_eq!(plan(&f, &sse()).mode, GroupMode::Vector);
        assert_eq!(plan(&f, &scalar_only()).mode, GroupMode::TailScalar);
    }

    #[test]
    fn groups_enumerated() {
        let mut f = func_with_group(vec![]);
        let plans = plan_groups(&f, &sse()).unwrap();
        assert_eq!(
            plans.iter().map(Option::is_some).collect::<Vec<_>>(),
            [false, true]
        );
        // A group id no register-sized table holds is rejected, not sized.
        if let BcStmt::Loop { group, .. } = &mut f.body[0] {
            *group = u32::MAX;
        }
        assert!(plan_groups(&f, &sse()).is_err());
    }
}
