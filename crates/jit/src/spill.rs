//! The naive-JIT register rewrite: spill-everything allocation plus the
//! x87 scalar-float substitution.
//!
//! Mono's JIT (§IV of the paper) lacked global register allocation —
//! values live in stack slots and are reloaded around every operation —
//! and routed x86 scalar float arithmetic through the x87 FPU. This pass
//! reproduces both artifacts mechanically: every virtual scalar register
//! becomes a spill slot, each instruction reloads its operands into a
//! handful of scratch registers and spills its result, and scalar float
//! ALU ops become [`MInst::FpuBin`].
//!
//! Operands come from [`MInst::visit_regs`] and are renamed through
//! [`MInst::visit_regs_mut`], the ISA's one operand enumeration, so an
//! instruction with a scalar operand cannot escape the reloads. Scratch
//! register `k` is the `k`-th distinct scalar of an instruction: reads in
//! operand order, then its write when that is not also a read.

use vapor_targets::{MCode, MInst, SReg};

/// Distinct scalar registers one instruction can name: at most 3 reads
/// (a store's value, base and index) plus 1 write.
const MAX_SCALARS: usize = 4;

/// Rewrite `code` into spill-everything form.
///
/// `n_fixed` is the number of registers pre-set by the caller (params and
/// array bases/lengths): an entry shim spills them to their slots first.
/// When `x87` is set, scalar float binary ops become [`MInst::FpuBin`].
pub fn rewrite(code: MCode, n_fixed: u32, x87: bool) -> MCode {
    let mut out: Vec<MInst> = Vec::with_capacity(code.insts.len() * 3 + n_fixed as usize);
    for r in 0..n_fixed {
        out.push(MInst::SpillSt {
            src: SReg(r),
            slot: r,
        });
    }
    for mut inst in code.insts {
        // x87 substitution happens before the spill expansion so the
        // FpuBin cost/port weights apply.
        if let MInst::SBin { op, ty, dst, a, b } = inst {
            if x87 && ty.is_float() {
                inst = MInst::FpuBin { op, ty, dst, a, b };
            }
        }
        if matches!(inst, MInst::Label(_) | MInst::Jump(_)) {
            out.push(inst);
            continue;
        }
        let mut slots = [SReg(0); MAX_SCALARS];
        let mut n = 0;
        let mut def = None;
        inst.visit_regs(
            |r, a| {
                if a.reads() && !slots[..n].contains(&r) {
                    out.push(MInst::SpillLd {
                        dst: SReg(n as u32),
                        slot: r.0,
                    });
                    slots[n] = r;
                    n += 1;
                }
                if a.writes() {
                    def = Some(r);
                }
            },
            |_, _| {},
        );
        // The def may coincide with a use (accumulators).
        if let Some(d) = def.filter(|d| !slots[..n].contains(d)) {
            slots[n] = d;
            n += 1;
        }
        let scratch = |r: SReg| SReg(slots[..n].iter().position(|&s| s == r).unwrap_or(0) as u32);
        inst.visit_regs_mut(|r, _| *r = scratch(*r), |_, _| {});
        out.push(inst);
        if let Some(d) = def {
            out.push(MInst::SpillSt {
                src: scratch(d),
                slot: d.0,
            });
        }
    }
    MCode {
        insts: out,
        n_sregs: n_fixed.max(8),
        n_vregs: code.n_vregs,
        note: format!("{} +spilled", code.note),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_ir::{BinOp, ScalarTy};
    use vapor_targets::{Cond, Label};

    #[test]
    fn every_op_reloads_and_spills() {
        let code = MCode {
            insts: vec![MInst::SBin {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(5),
                a: SReg(3),
                b: SReg(4),
            }],
            n_sregs: 6,
            n_vregs: 0,
            note: "t".into(),
        };
        let spilled = rewrite(code, 2, false);
        // 2 shim spills + 2 reloads + op + 1 spill.
        assert_eq!(spilled.insts.len(), 6);
        assert!(matches!(spilled.insts[2], MInst::SpillLd { slot: 3, .. }));
        assert!(matches!(spilled.insts[5], MInst::SpillSt { slot: 5, .. }));
    }

    #[test]
    fn x87_substitutes_float_ops_only() {
        let code = MCode {
            insts: vec![
                MInst::SBin {
                    op: BinOp::Mul,
                    ty: ScalarTy::F32,
                    dst: SReg(0),
                    a: SReg(0),
                    b: SReg(0),
                },
                MInst::SBin {
                    op: BinOp::Add,
                    ty: ScalarTy::I64,
                    dst: SReg(1),
                    a: SReg(1),
                    b: SReg(1),
                },
            ],
            n_sregs: 2,
            n_vregs: 0,
            note: "t".into(),
        };
        let spilled = rewrite(code, 0, true);
        assert!(spilled
            .insts
            .iter()
            .any(|i| matches!(i, MInst::FpuBin { .. })));
        assert!(spilled.insts.iter().any(|i| matches!(
            i,
            MInst::SBin {
                ty: ScalarTy::I64,
                ..
            }
        )));
    }

    #[test]
    fn control_flow_untouched_but_operands_reloaded() {
        let code = MCode {
            insts: vec![
                MInst::Label(Label(0)),
                MInst::Branch {
                    cond: Cond::Lt,
                    a: SReg(0),
                    b: SReg(1),
                    target: Label(0),
                },
            ],
            n_sregs: 2,
            n_vregs: 0,
            note: "t".into(),
        };
        let spilled = rewrite(code, 2, false);
        // shim(2) + label + 2 reloads + branch
        assert_eq!(spilled.insts.len(), 6);
        assert!(matches!(spilled.insts[2], MInst::Label(_)));
    }

    #[test]
    fn accumulator_def_reuses_scratch() {
        // dst == a: must not reload stale value after op.
        let code = MCode {
            insts: vec![MInst::SBinImm {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(0),
                a: SReg(0),
                imm: 1,
            }],
            n_sregs: 1,
            n_vregs: 0,
            note: "t".into(),
        };
        let spilled = rewrite(code, 1, false);
        // shim + reload + op + spill
        assert_eq!(spilled.insts.len(), 4);
        match (&spilled.insts[1], &spilled.insts[2], &spilled.insts[3]) {
            (
                MInst::SpillLd { dst: ld, slot: 0 },
                MInst::SBinImm { dst, a, .. },
                MInst::SpillSt { src, slot: 0 },
            ) => {
                assert_eq!(ld, a);
                assert_eq!(dst, src);
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }
}
