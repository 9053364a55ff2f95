//! Compact textual disassembly of machine code (for examples, debugging
//! and golden tests).

use std::fmt::Write as _;

use crate::isa::{AddrMode, CvtDir, Half, MCode, MInst, MemAlign, ReduceOp, ShiftSrc};
use crate::target::TargetDesc;

fn addr(a: &AddrMode) -> String {
    let mut s = format!("[{}", a.base);
    if let Some(i) = a.idx {
        let _ = write!(s, " + {i}*{}", a.scale);
    }
    if a.disp != 0 {
        let _ = write!(
            s,
            " {} {}",
            if a.disp < 0 { "-" } else { "+" },
            a.disp.abs()
        );
    }
    s.push(']');
    s
}

fn half(h: Half) -> &'static str {
    match h {
        Half::Lo => "lo",
        Half::Hi => "hi",
    }
}

fn mem(a: MemAlign) -> &'static str {
    match a {
        MemAlign::Aligned => "a",
        MemAlign::Unaligned => "u",
    }
}

/// One instruction as text.
pub fn disasm_inst(inst: &MInst) -> String {
    use MInst::*;
    match inst {
        Label(l) => format!("{l}:"),
        Jump(l) => format!("  jmp {l}"),
        Branch { cond, a, b, target } => format!("  b.{cond:?} {a}, {b} -> {target}"),
        BranchImm {
            cond,
            a,
            imm,
            target,
        } => format!("  b.{cond:?} {a}, #{imm} -> {target}"),
        MovImmI { dst, imm } => format!("  {dst} = #{imm}"),
        MovImmF { dst, imm } => format!("  {dst} = #{imm:?}"),
        MovS { dst, src } => format!("  {dst} = {src}"),
        SBin { op, ty, dst, a, b } => format!("  {dst} = {op:?}.{ty} {a}, {b}"),
        SBinImm {
            op,
            ty,
            dst,
            a,
            imm,
        } => format!("  {dst} = {op:?}.{ty} {a}, #{imm}"),
        SUn { op, ty, dst, a } => format!("  {dst} = {op:?}.{ty} {a}"),
        SCvt { from, to, dst, a } => format!("  {dst} = cvt.{from}->{to} {a}"),
        FpuBin { op, ty, dst, a, b } => format!("  {dst} = x87.{op:?}.{ty} {a}, {b}"),
        LoadS { ty, dst, addr: am } => format!("  {dst} = ld.{ty} {}", addr(am)),
        StoreS { ty, src, addr: am } => format!("  st.{ty} {}, {src}", addr(am)),
        LoadV {
            dst,
            addr: am,
            align,
        } => format!("  {dst} = vld.{} {}", mem(*align), addr(am)),
        LoadVFloor { dst, addr: am } => format!("  {dst} = vld.floor {}", addr(am)),
        StoreV {
            src,
            addr: am,
            align,
        } => format!("  vst.{} {}, {src}", mem(*align), addr(am)),
        Splat { ty, dst, src } => format!("  {dst} = splat.{ty} {src}"),
        Iota {
            ty,
            dst,
            start,
            inc,
        } => format!("  {dst} = iota.{ty} {start}, {inc}"),
        SetLane { ty, dst, lane, src } => format!("  {dst}[{lane}].{ty} = {src}"),
        GetLane { ty, dst, src, lane } => format!("  {dst} = {src}[{lane}].{ty}"),
        VBin { op, ty, dst, a, b } => format!("  {dst} = v{op:?}.{ty} {a}, {b}"),
        VUn { op, ty, dst, a } => format!("  {dst} = v{op:?}.{ty} {a}"),
        VShift {
            left,
            ty,
            dst,
            a,
            amt,
        } => {
            let dir = if *left { "shl" } else { "shr" };
            let amt = match amt {
                ShiftSrc::Imm(v) => format!("#{v}"),
                ShiftSrc::Reg(r) => r.to_string(),
                ShiftSrc::PerLane(v) => format!("{v} (per-lane)"),
            };
            format!("  {dst} = v{dir}.{ty} {a}, {amt}")
        }
        VWidenMul {
            half: h,
            ty,
            dst,
            a,
            b,
        } => {
            format!("  {dst} = vwidenmul.{}.{ty} {a}, {b}", half(*h))
        }
        VDotAcc { ty, dst, a, b, acc } => format!("  {dst} = vdot.{ty} {a}, {b} + {acc}"),
        VPack { ty, dst, a, b } => format!("  {dst} = vpack.{ty} {a}, {b}"),
        VUnpack {
            half: h,
            ty,
            dst,
            a,
        } => format!("  {dst} = vunpack.{}.{ty} {a}", half(*h)),
        VCvt { dir, ty, dst, a } => {
            let d = match dir {
                CvtDir::IntToFloat => "i2f",
                CvtDir::FloatToInt => "f2i",
            };
            format!("  {dst} = vcvt.{d}.{ty} {a}")
        }
        VInterleave {
            half: h,
            ty,
            dst,
            a,
            b,
        } => {
            format!("  {dst} = vinterleave.{}.{ty} {a}, {b}", half(*h))
        }
        VExtractStride {
            ty,
            stride,
            offset,
            dst,
            srcs,
        } => {
            let srcs: Vec<String> = srcs.iter().map(|r| r.to_string()).collect();
            format!(
                "  {dst} = vextract.{ty} s={stride} off={offset} {}",
                srcs.join(", ")
            )
        }
        VPermCtrl { dst, addr: am } => format!("  {dst} = lvsr {}", addr(am)),
        VPerm { dst, a, b, ctrl } => format!("  {dst} = vperm {a}, {b}, {ctrl}"),
        VReduce { op, ty, dst, src } => {
            let o = match op {
                ReduceOp::Plus => "add",
                ReduceOp::Max => "max",
                ReduceOp::Min => "min",
            };
            format!("  {dst} = vreduce.{o}.{ty} {src}")
        }
        MovV { dst, src } => format!("  {dst} = {src}"),
        SpillLd { dst, slot } => format!("  {dst} = reload slot{slot}"),
        SpillSt { src, slot } => format!("  spill slot{slot} = {src}"),
        VHelper { op, ty, dst, a, b } => {
            let b = b.map(|r| format!(", {r}")).unwrap_or_default();
            format!(
                "  {dst} = call {}.{ty}({a}{b})",
                crate::cost::helper_name(*op)
            )
        }
        SetVl { ty, dst, avl } => format!("  {dst} = setvl.{ty} {avl}"),
        LoadVl { ty, dst, addr: am } => format!("  {dst} = vld.vl.{ty} {}", addr(am)),
        StoreVl { ty, src, addr: am } => format!("  vst.vl.{ty} {}, {src}", addr(am)),
        VBinVl { op, ty, dst, a, b } => format!("  {dst} = v{op:?}.vl.{ty} {a}, {b}"),
        VUnVl { op, ty, dst, a } => format!("  {dst} = v{op:?}.vl.{ty} {a}"),
    }
}

/// Flattened address fields of a fast memory step as text.
fn fast_addr(base: crate::isa::SReg, idx: u32, scale: u8, disp: i32) -> String {
    let m = crate::isa::AddrMode {
        base,
        idx: (idx != crate::decode::NO_INDEX).then_some(crate::isa::SReg(idx)),
        scale,
        disp: disp as i64,
    };
    addr(&m)
}

/// One decoded step as text: fast-kernel forms are annotated so tests
/// and debugging sessions can see which instructions escaped the
/// generic interpreter (`.fast` all-lanes kernels, `.vl.fast` the
/// merging-predicated runtime-VL kernels). Lane counts are those of
/// `vs`-byte registers.
pub fn disasm_step(step: &crate::decode::DStep, vs: usize) -> String {
    use crate::decode::DStep;
    let lanes = |ty: &vapor_ir::ScalarTy| (vs / ty.size()).max(1);
    match step {
        DStep::Jump { target } => format!("  jmp @{target}"),
        DStep::Branch { cond, a, b, target } => format!("  b.{cond:?} {a}, {b} -> @{target}"),
        DStep::BranchImm {
            cond,
            a,
            imm,
            target,
        } => format!("  b.{cond:?} {a}, #{imm} -> @{target}"),
        DStep::SBinFast {
            dst,
            a,
            b,
            op,
            ty,
            rty,
            ..
        } => format!("  {dst} = sbin.fast.{op:?}.{ty} {a}, {b} -> {rty}"),
        DStep::SBinImmFast {
            dst,
            a,
            imm,
            op,
            ty,
            rty,
            ..
        } => format!("  {dst} = sbin.fast.{op:?}.{ty} {a}, #{imm} -> {rty}"),
        DStep::MovSFast { dst, src } => format!("  {dst} = {src} ; fast"),
        DStep::LoadVFast {
            dst,
            base,
            idx,
            scale,
            aligned,
            disp,
        } => format!(
            "  {dst} = vld.fast.{} {}",
            if *aligned { "a" } else { "u" },
            fast_addr(*base, *idx, *scale, *disp)
        ),
        DStep::StoreVFast {
            src,
            base,
            idx,
            scale,
            aligned,
            disp,
        } => format!(
            "  vst.fast.{} {}, {src}",
            if *aligned { "a" } else { "u" },
            fast_addr(*base, *idx, *scale, *disp)
        ),
        DStep::LoadSFast {
            ty,
            dst,
            base,
            idx,
            scale,
            disp,
        } => format!(
            "  {dst} = ld.fast.{ty} {}",
            fast_addr(*base, *idx, *scale, *disp)
        ),
        DStep::StoreSFast {
            ty,
            src,
            base,
            idx,
            scale,
            disp,
        } => format!(
            "  st.fast.{ty} {}, {src}",
            fast_addr(*base, *idx, *scale, *disp)
        ),
        DStep::VBinFast {
            dst, a, b, op, ty, ..
        } => format!("  {dst} = v{op:?}.fast.{ty} {a}, {b} ; {} lanes", lanes(ty)),
        DStep::VUnFast { dst, a, op, ty, .. } => {
            format!("  {dst} = v{op:?}.fast.{ty} {a} ; {} lanes", lanes(ty))
        }
        DStep::VBinVlFast {
            dst, a, b, op, ty, ..
        } => format!(
            "  {dst} = v{op:?}.vl.fast.{ty} {a}, {b} ; vl<={}",
            lanes(ty)
        ),
        DStep::VUnVlFast { dst, a, op, ty, .. } => {
            format!("  {dst} = v{op:?}.vl.fast.{ty} {a} ; vl<={}", lanes(ty))
        }
        DStep::SplatFast { dst, src, ty, .. } => {
            format!("  {dst} = splat.fast.{ty} {src} ; {} lanes", lanes(ty))
        }
        DStep::VShiftImmFast {
            dst,
            a,
            imm,
            left,
            ty,
            ..
        } => {
            let dir = if *left { "shl" } else { "shr" };
            format!(
                "  {dst} = v{dir}.fast.{ty} {a}, #{imm} ; {} lanes",
                lanes(ty)
            )
        }
        DStep::VShiftRegFast {
            dst,
            a,
            amt,
            left,
            ty,
            ..
        } => {
            let dir = if *left { "shl" } else { "shr" };
            format!(
                "  {dst} = v{dir}.fast.{ty} {a}, {amt} ; {} lanes",
                lanes(ty)
            )
        }
        DStep::SpillLdFast { dst, slot } => format!("  {dst} = reload.fast slot{slot}"),
        DStep::SpillStFast { src, slot } => format!("  spill.fast slot{slot} = {src}"),
        DStep::VReduceFast {
            dst, src, op, ty, ..
        } => {
            let o = match op {
                crate::isa::ReduceOp::Plus => "add",
                crate::isa::ReduceOp::Max => "max",
                crate::isa::ReduceOp::Min => "min",
            };
            format!(
                "  {dst} = vreduce.fast.{o}.{ty} {src} ; {} lanes",
                lanes(ty)
            )
        }
        DStep::FusedLoadBinStore(p) => format!(
            "  fuse3 {} = vld.{} {} | {} = v{:?}.{} {}, {} | vst.{} {}, {} ; {} lanes",
            p.load_dst,
            if p.load.aligned { "a" } else { "u" },
            fused_addr(&p.load),
            p.dst,
            p.op,
            p.ty,
            p.a,
            p.b,
            if p.store.aligned { "a" } else { "u" },
            fused_addr(&p.store),
            p.dst,
            lanes(&p.ty)
        ),
        DStep::FusedLoadBinBin(p) => format!(
            "  fuse3 {} = vld.{} {} | {} = v{:?}.{} {}, {} | {} = v{:?}.{} {}, {} ; {} lanes",
            p.load_dst,
            if p.load.aligned { "a" } else { "u" },
            fused_addr(&p.load),
            p.dst1,
            p.op1,
            p.ty1,
            p.a1,
            p.b1,
            p.dst2,
            p.op2,
            p.ty2,
            p.a2,
            p.b2,
            lanes(&p.ty2)
        ),
        DStep::FusedLoadBin(p) => format!(
            "  fuse2 {} = vld.{} {} | {} = v{:?}.{} {}, {} ; {} lanes",
            p.load_dst,
            if p.load.aligned { "a" } else { "u" },
            fused_addr(&p.load),
            p.dst,
            p.op,
            p.ty,
            p.a,
            p.b,
            lanes(&p.ty)
        ),
        DStep::FusedBinStore(p) => format!(
            "  fuse2 {} = v{:?}.{} {}, {} | vst.{} {}, {} ; {} lanes",
            p.dst,
            p.op,
            p.ty,
            p.a,
            p.b,
            if p.store.aligned { "a" } else { "u" },
            fused_addr(&p.store),
            p.dst,
            lanes(&p.ty)
        ),
        DStep::FusedLoadBinStoreVl(p) => format!(
            "  fuse3 {} = vld.vl.{} {} | {} = v{:?}.vl.{} {}, {} | vst.vl.{} {}, {} ; vl<={}",
            p.load_dst,
            p.load_ty,
            fused_addr(&p.load),
            p.dst,
            p.op,
            p.ty,
            p.a,
            p.b,
            p.store_ty,
            fused_addr(&p.store),
            p.dst,
            lanes(&p.ty)
        ),
        DStep::FusedLatch(p) => {
            let rhs = if p.br_reg == crate::decode::NO_INDEX {
                format!("#{}", p.br_imm)
            } else {
                crate::isa::SReg(p.br_reg).to_string()
            };
            format!(
                "  fuse2 {} = sbin.fast.{:?}.{} {}, #{} -> {} | b.{:?} {}, {} -> @{}",
                p.dst, p.op, p.ty, p.a, p.imm, p.rty, p.cond, p.br_a, rhs, p.target
            )
        }
        DStep::Op(inst) => disasm_inst(inst),
    }
}

/// Flattened address of a fused superinstruction leg as text.
fn fused_addr(m: &crate::decode::FusedAddr) -> String {
    fast_addr(m.base, m.idx, m.scale, m.disp)
}

/// Whole decoded program as text on a machine of `target`'s width (one
/// line per step; superinstructions render their constituents
/// `|`-joined on one line).
pub fn disasm_decoded(prog: &crate::decode::DecodedProgram, target: &TargetDesc) -> String {
    let vs = target.vs.max(1);
    let mut out = format!(
        "; decoded for VS={vs} ({} steps / {} insts, {} superinstructions)\n",
        prog.n_steps(),
        prog.len,
        prog.fusion_stats().total()
    );
    for d in prog.steps() {
        out.push_str(&disasm_step(&d.step, vs));
        out.push('\n');
    }
    out
}

/// Whole function as text.
pub fn disasm(code: &MCode) -> String {
    let mut out = format!("; {} ({} insts)\n", code.note, code.len());
    for inst in &code.insts {
        out.push_str(&disasm_inst(inst));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Label, SReg, VReg};
    use vapor_ir::{BinOp, ScalarTy};

    #[test]
    fn renders_core_instructions() {
        let code = MCode {
            insts: vec![
                MInst::Label(Label(0)),
                MInst::LoadV {
                    dst: VReg(1),
                    addr: AddrMode::fused(SReg(0), SReg(2), 4, 8),
                    align: MemAlign::Unaligned,
                },
                MInst::VBin {
                    op: BinOp::Add,
                    ty: ScalarTy::F32,
                    dst: VReg(1),
                    a: VReg(1),
                    b: VReg(0),
                },
            ],
            n_sregs: 3,
            n_vregs: 2,
            note: "demo".into(),
        };
        let text = disasm(&code);
        assert!(text.contains("L0:"), "{text}");
        assert!(text.contains("vld.u [r0 + r2*4 + 8]"), "{text}");
        assert!(text.contains("v1 = vAdd.float v1, v0"), "{text}");
    }
}
