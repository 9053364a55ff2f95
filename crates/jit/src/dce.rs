//! Iterative global dead-code elimination.
//!
//! Removes pure definitions whose results are never read anywhere in the
//! function — in particular the address arithmetic feeding `get_rt` /
//! `align_load` when the target resolves realignment implicitly (the
//! paper's "no code is generated for idioms get_rt and align_load").
//!
//! Liveness is *global* (a register used anywhere keeps every definition
//! of it), which is trivially sound in the presence of loops; the
//! precision is enough to clean up the straight-line idiom chains the
//! lowering produces.
//!
//! Operands come from [`MInst::visit_regs`], the ISA's one operand
//! enumeration. Reads are counted per register in two dense tables sized
//! by `MCode::{n_sregs, n_vregs}`; deleting a definition uncounts its
//! reads, and sweeps repeat until none is deleted — the fixed point of
//! "delete every pure definition nothing reads".

use vapor_targets::{MCode, MInst};

/// Pure definitions: removable when nothing reads what they write. The
/// purity list, not operand enumeration — that is `visit_regs`.
fn removable(inst: &MInst) -> bool {
    matches!(
        inst,
        MInst::MovImmI { .. }
            | MInst::MovImmF { .. }
            | MInst::MovS { .. }
            | MInst::SBin { .. }
            | MInst::SBinImm { .. }
            | MInst::SUn { .. }
            | MInst::SCvt { .. }
            | MInst::LoadS { .. }
            | MInst::LoadV { .. }
            | MInst::LoadVl { .. }
            | MInst::LoadVFloor { .. }
            | MInst::Splat { .. }
            | MInst::Iota { .. }
            | MInst::VPermCtrl { .. }
            | MInst::MovV { .. }
    )
}

/// Add `by` to the read count of every register `inst` reads.
fn count_reads(inst: &MInst, s: &mut [u32], v: &mut [u32], by: i32) {
    inst.visit_regs(
        |r, a| {
            if a.reads() {
                s[r.0 as usize] = s[r.0 as usize].wrapping_add_signed(by);
            }
        },
        |r, a| {
            if a.reads() {
                v[r.0 as usize] = v[r.0 as usize].wrapping_add_signed(by);
            }
        },
    );
}

/// Remove dead pure definitions until a fixed point.
///
/// # Panics
/// Panics if a register is not below `code.n_sregs` / `code.n_vregs`,
/// which the lowering's own output never does.
pub fn run(code: &mut MCode) {
    let mut s = vec![0u32; code.n_sregs as usize];
    let mut v = vec![0u32; code.n_vregs as usize];
    for inst in &code.insts {
        count_reads(inst, &mut s, &mut v, 1);
    }
    let mut live = vec![true; code.insts.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (inst, live) in code.insts.iter().zip(&mut live) {
            if !*live || !removable(inst) {
                continue;
            }
            let (mut s_read, mut v_read) = (false, false);
            inst.visit_regs(
                |r, a| s_read |= a.writes() && s[r.0 as usize] > 0,
                |r, a| v_read |= a.writes() && v[r.0 as usize] > 0,
            );
            if !(s_read || v_read) {
                *live = false;
                changed = true;
                count_reads(inst, &mut s, &mut v, -1);
            }
        }
    }
    let mut live = live.into_iter();
    code.insts.retain(|_| live.next() == Some(true));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_ir::{BinOp, ScalarTy};
    use vapor_targets::{AddrMode, MemAlign, SReg, VReg};

    #[test]
    fn removes_dead_chains() {
        let mut code = MCode {
            insts: vec![
                // dead chain: r1 = r0*4; v0 = floor-load [r1]  (nothing uses v0)
                MInst::SBinImm {
                    op: BinOp::Mul,
                    ty: ScalarTy::I64,
                    dst: SReg(1),
                    a: SReg(0),
                    imm: 4,
                },
                MInst::LoadVFloor {
                    dst: VReg(0),
                    addr: AddrMode::base_disp(SReg(1), 0),
                },
                // live: store of v1 loaded from [r0]
                MInst::LoadV {
                    dst: VReg(1),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
                MInst::StoreV {
                    src: VReg(1),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
            ],
            n_sregs: 2,
            n_vregs: 2,
            note: "t".into(),
        };
        run(&mut code);
        assert_eq!(code.insts.len(), 2);
    }

    #[test]
    fn keeps_loop_carried_copies() {
        // v0 used by store; MovV writing v0 must stay.
        let mut code = MCode {
            insts: vec![
                MInst::MovV {
                    dst: VReg(0),
                    src: VReg(1),
                },
                MInst::StoreV {
                    src: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
            ],
            n_sregs: 1,
            n_vregs: 2,
            note: "t".into(),
        };
        run(&mut code);
        assert_eq!(code.insts.len(), 2);
    }
}
