//! Crafted-`MCode` differential of the decoded executor against the seed
//! `Machine::run`, which evaluates every instruction through the generic
//! `exec_op` path.
//!
//! The suite kernels rarely apply a non-commutative op where swapped
//! operands would change a result the IR oracle sees, so an executor arm
//! that reads its operands in the wrong order can pass every suite walk.
//! These programs are built to tell the orders apart:
//!
//! * every `BinOp` × scalar type as `SBin`, as `SBinImm` and (integer
//!   types) as the fused `SBinImm → branch` latch, once with both
//!   operands in the type's domain and once with one in the other domain
//!   (the in-place arms and the coerce-and-kernel fallback);
//! * a `Sub` in both operand orders through each fused vector arm.
//!
//! Operands are distinct, non-symmetric and never a zero divisor.

use vapor_ir::{BinOp, ScalarTy, Value};
use vapor_targets::{
    sse, sve, AddrMode, Cond, DStep, DecodedProgram, ExecStats, Label, MCode, MInst, Machine,
    MemAlign, SReg, TargetDesc, Trap, VReg,
};

const OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Min,
    BinOp::Max,
    BinOp::CmpEq,
    BinOp::CmpLt,
];

/// Left operand, right operand and immediate of a scalar case. The
/// orders differ for every non-commutative op at every type: `100 - 3`,
/// `100 / 3` against `3 / 100`, `100 >> 3` against `3 >> (100 & mask)`,
/// `100 < 3` against `3 < 100`.
const A: i64 = 100;
const B: i64 = 3;
const IMM: i32 = 3;
const FA: f64 = 2.75;
const FB: f64 = -1.5;

const DST: SReg = SReg(2);
const FLAG: SReg = SReg(3);

fn code(insts: Vec<MInst>) -> MCode {
    MCode {
        insts,
        n_sregs: 8,
        n_vregs: 8,
        note: String::new(),
    }
}

/// The operand pair of a scalar case: both in `ty`'s domain (`other` is
/// `None`), or the left (`Some(true)`) or right (`Some(false)`) one in
/// the other domain.
fn operands(ty: ScalarTy, other: Option<bool>) -> (Value, Value) {
    let (a, b) = if ty.is_float() {
        (Value::Float(FA), Value::Float(FB))
    } else {
        (Value::Int(A), Value::Int(B))
    };
    let flip = |v: Value| match v {
        Value::Int(i) => Value::Float(i as f64 + 0.5),
        Value::Float(f) => Value::Int(f as i64 * 7 + 1),
    };
    match other {
        None => (a, b),
        Some(true) => (flip(a), b),
        Some(false) => (a, flip(b)),
    }
}

/// A machine after a run, and the run's outcome.
type Ran<'t> = (Machine<'t>, Result<ExecStats, Trap>);

/// Run `c` through the seed loop and the decoded executor from the same
/// initial state; the caller compares what `c` writes.
fn both<'t>(
    t: &'t TargetDesc,
    c: &MCode,
    setup: impl Fn(&mut Machine<'t>),
) -> (Ran<'t>, Ran<'t>, DecodedProgram) {
    let prog = DecodedProgram::decode(c, t).unwrap();
    let mut seed = Machine::new(t, 4096);
    setup(&mut seed);
    let rs = seed.run(c);
    let mut dec = Machine::new(t, 4096);
    setup(&mut dec);
    let rd = dec.run_decoded(&prog);
    ((seed, rs), (dec, rd), prog)
}

fn same_scalar(case: &str, c: &MCode, regs: (Value, Value), expect: fn(&DStep) -> bool) {
    let t = sse();
    let ((seed, rs), (dec, rd), prog) = both(&t, c, |m| {
        m.set_sreg(SReg(0), regs.0);
        m.set_sreg(SReg(1), regs.1);
        m.set_sreg(DST, Value::Int(-1));
        m.set_sreg(FLAG, Value::Int(0));
    });
    assert!(
        expect(&prog.steps()[0].step),
        "{case}: decoded to {:?}",
        prog.steps()[0].step
    );
    let (rs, rd) = (rs.unwrap(), rd.unwrap());
    assert_eq!(rs.cycles, rd.cycles, "{case}: cycles");
    for r in [DST, FLAG] {
        assert_eq!(seed.sreg(r), dec.sreg(r), "{case}: {r}");
    }
}

#[test]
fn scalar_alu_steps_match_the_seed_loop_in_both_domains() {
    for ty in ScalarTy::ALL {
        for op in OPS {
            if ty.is_float() && op.int_only() {
                continue;
            }
            for other in [None, Some(true), Some(false)] {
                let case = format!("{op:?} {ty} other={other:?}");
                let regs = operands(ty, other);
                let sbin = code(vec![MInst::SBin {
                    op,
                    ty,
                    dst: DST,
                    a: SReg(0),
                    b: SReg(1),
                }]);
                same_scalar(&format!("SBin {case}"), &sbin, regs, |s| {
                    matches!(s, DStep::SBinFast { .. })
                });
                if other == Some(false) {
                    continue; // the immediate is the right operand
                }
                let imm = MInst::SBinImm {
                    op,
                    ty,
                    dst: DST,
                    a: SReg(0),
                    imm: i64::from(IMM),
                };
                same_scalar(
                    &format!("SBinImm {case}"),
                    &code(vec![imm.clone()]),
                    regs,
                    |s| matches!(s, DStep::SBinImmFast { .. }),
                );
                if ty.is_float() {
                    continue; // a branch reads an integer register
                }
                // The latch: the branch outcome and the flag it skips
                // depend on the result too.
                let latch = code(vec![
                    imm,
                    MInst::BranchImm {
                        cond: Cond::Lt,
                        a: DST,
                        imm: 50,
                        target: Label(0),
                    },
                    MInst::MovImmI { dst: FLAG, imm: 1 },
                    MInst::Label(Label(0)),
                ]);
                same_scalar(&format!("latch {case}"), &latch, regs, |s| {
                    matches!(s, DStep::FusedLatch(_))
                });
            }
        }
    }
}

/// Lanes of the two vector inputs (i32): distinct, and every difference
/// is non-zero in both orders.
fn seed_inputs(m: &mut Machine<'_>, bytes: usize) {
    let x = m.mem.alloc(bytes, 32);
    let y = m.mem.alloc(bytes, 32);
    let out = m.mem.alloc(2 * bytes, 32);
    for k in 0..(bytes / 4) as u64 {
        m.mem
            .write(ScalarTy::I32, x + 4 * k, Value::Int(1000 + 37 * k as i64));
        m.mem
            .write(ScalarTy::I32, y + 4 * k, Value::Int(5 + 11 * k as i64));
    }
    m.set_sreg(SReg(0), Value::Int(x as i64));
    m.set_sreg(SReg(1), Value::Int(y as i64));
    m.set_sreg(SReg(2), Value::Int(out as i64));
}

fn load(dst: u32, base: u32) -> MInst {
    MInst::LoadV {
        dst: VReg(dst),
        addr: AddrMode::base_disp(SReg(base), 0),
        align: MemAlign::Aligned,
    }
}

fn store(src: u32, disp: i64) -> MInst {
    MInst::StoreV {
        src: VReg(src),
        addr: AddrMode::base_disp(SReg(2), disp),
        align: MemAlign::Aligned,
    }
}

/// `dst = a - b` (or `b - a` when `swap`).
fn sub(dst: u32, a: u32, b: u32, swap: bool) -> MInst {
    let (a, b) = if swap { (b, a) } else { (a, b) };
    MInst::VBin {
        op: BinOp::Sub,
        ty: ScalarTy::I32,
        dst: VReg(dst),
        a: VReg(a),
        b: VReg(b),
    }
}

/// A non-fusable step between two otherwise fusable ones.
fn barrier() -> MInst {
    MInst::MovImmI {
        dst: SReg(7),
        imm: 0,
    }
}

fn same_vector(case: &str, t: &TargetDesc, c: &MCode, fused: fn(&DecodedProgram) -> u32) {
    let bytes = t.vs.max(4);
    let ((seed, rs), (dec, rd), prog) = both(t, c, |m| seed_inputs(m, bytes));
    assert_eq!(fused(&prog), 1, "{case}: superinstruction not formed");
    assert_eq!(rs.unwrap().cycles, rd.unwrap().cycles, "{case}: cycles");
    let out = seed.sreg(SReg(2));
    let Value::Int(out) = out else {
        panic!("{case}: output base {out:?}")
    };
    assert_eq!(
        seed.mem.slice(out as u64, 2 * bytes),
        dec.mem.slice(out as u64, 2 * bytes),
        "{case}: stored lanes"
    );
}

#[test]
fn fused_vector_arms_keep_operand_order() {
    let t = sse();
    let vs = t.vs as i64;
    for swap in [false, true] {
        // v1 loads first and on its own, so the fused group starts at
        // the second load.
        let c = code(vec![
            load(1, 1),
            load(0, 0),
            sub(2, 0, 1, swap),
            store(2, 0),
        ]);
        same_vector(&format!("load-bin-store swap={swap}"), &t, &c, |p| {
            p.fusion_stats().load_bin_store
        });
        let c = code(vec![
            load(1, 1),
            load(0, 0),
            sub(2, 0, 1, swap),
            barrier(),
            store(2, 0),
        ]);
        same_vector(&format!("load-bin swap={swap}"), &t, &c, |p| {
            p.fusion_stats().load_bin
        });
        let c = code(vec![
            load(0, 0),
            load(1, 1),
            barrier(),
            sub(2, 0, 1, swap),
            store(2, 0),
        ]);
        same_vector(&format!("bin-store swap={swap}"), &t, &c, |p| {
            p.fusion_stats().bin_store
        });
        for (swap1, swap2) in [(swap, false), (false, swap)] {
            let c = code(vec![
                load(1, 1),
                load(0, 0),
                sub(2, 0, 1, swap1),
                sub(3, 2, 1, swap2),
                barrier(),
                store(2, 0),
                store(3, vs),
            ]);
            same_vector(
                &format!("load-bin-bin swap=({swap1}, {swap2})"),
                &t,
                &c,
                |p| p.fusion_stats().load_bin_bin,
            );
        }
    }
}

#[test]
fn fused_predicated_arm_keeps_operand_order() {
    let t = sve().at_vl(256);
    let vl = |dst: u32, base: u32| MInst::LoadVl {
        ty: ScalarTy::I32,
        dst: VReg(dst),
        addr: AddrMode::base_disp(SReg(base), 0),
    };
    for swap in [false, true] {
        let (a, b) = if swap { (1, 0) } else { (0, 1) };
        let c = code(vec![
            // Six of the eight lanes active: the predicated tail too.
            MInst::MovImmI {
                dst: SReg(3),
                imm: 6,
            },
            MInst::SetVl {
                ty: ScalarTy::I32,
                dst: SReg(4),
                avl: SReg(3),
            },
            vl(1, 1),
            vl(0, 0),
            MInst::VBinVl {
                op: BinOp::Sub,
                ty: ScalarTy::I32,
                dst: VReg(2),
                a: VReg(a),
                b: VReg(b),
            },
            MInst::StoreVl {
                ty: ScalarTy::I32,
                src: VReg(2),
                addr: AddrMode::base_disp(SReg(2), 0),
            },
        ]);
        same_vector(&format!("load-bin-store-vl swap={swap}"), &t, &c, |p| {
            p.fusion_stats().load_bin_store_vl
        });
    }
}
