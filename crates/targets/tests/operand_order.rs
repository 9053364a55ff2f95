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
//! * a `Sub` in both operand orders through each fused vector arm;
//! * every in-place vector step and fused arm with its destination
//!   aliasing an operand (`dst == a`, `dst == b`, `a == b`,
//!   `dst == a == b`), at 16-, 32-, 64- and 256-byte registers (both slot
//!   strides), through all three dispatch loops and an independent lane
//!   model.
//!
//! Operands are distinct, non-symmetric and never a zero divisor.

use vapor_ir::{BinOp, ScalarTy, UnOp, Value};
use vapor_targets::{
    avx, disasm_decoded, sse, sve, AddrMode, Cond, DStep, DecodedProgram, ExecStats, Label, MCode,
    MInst, Machine, MemAlign, SReg, ShiftSrc, TargetDesc, ThreadedProgram, Trap, VReg,
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

/// Vector registers an aliasing program loads before the step under
/// test; input `NV` is a fifth, fresh vector for the loads under test.
const NV: u32 = 4;

/// Output slots: four for the steps under test, then one per register.
const OUT: u32 = 2 * NV;

/// Lane `k` of input vector `j` (i32): distinct across inputs, so every
/// operand order and every alias reads a different value.
fn input(j: u32, k: usize) -> i32 {
    1000 * (j as i32 + 1) + 37 * k as i32 - 2500
}

/// One step of an aliasing program. [`lower`] turns it into `MInst`s for
/// the VM and [`model`] evaluates it on plain lane arrays, independently
/// of every VM loop.
#[derive(Clone, Copy, Debug)]
enum V {
    /// `d = input j`: the whole register, or (`vl`) the active lanes
    /// with the rest zeroed.
    Load { d: u32, j: u32, vl: bool },
    /// `out[slot] = s`: the whole register, or the active lanes.
    Store { slot: u32, s: u32, vl: bool },
    /// `d = a - b`: all lanes, or the active lanes merged into `d`.
    Sub { d: u32, a: u32, b: u32, vl: bool },
    /// `d = -a`, likewise.
    Neg { d: u32, a: u32, vl: bool },
    /// `d = a << 3`, by an immediate or by a register amount.
    Shl { d: u32, a: u32, reg: bool },
    /// `d = s`.
    Mov { d: u32, s: u32 },
    /// A scalar step no fusion pattern takes.
    Barrier,
}

fn lower(v: V, vs: i64) -> MInst {
    let (ty, r0, r1) = (ScalarTy::I32, SReg(0), SReg(1));
    match v {
        V::Load { d, j, vl: false } => MInst::LoadV {
            dst: VReg(d),
            addr: AddrMode::base_disp(r0, j as i64 * vs),
            align: MemAlign::Aligned,
        },
        V::Load { d, j, vl: true } => MInst::LoadVl {
            ty,
            dst: VReg(d),
            addr: AddrMode::base_disp(r0, j as i64 * vs),
        },
        V::Store { slot, s, vl: false } => MInst::StoreV {
            src: VReg(s),
            addr: AddrMode::base_disp(r1, slot as i64 * vs),
            align: MemAlign::Aligned,
        },
        V::Store { slot, s, vl: true } => MInst::StoreVl {
            ty,
            src: VReg(s),
            addr: AddrMode::base_disp(r1, slot as i64 * vs),
        },
        V::Sub { d, a, b, vl } => {
            let (op, dst, a, b) = (BinOp::Sub, VReg(d), VReg(a), VReg(b));
            if vl {
                MInst::VBinVl { op, ty, dst, a, b }
            } else {
                MInst::VBin { op, ty, dst, a, b }
            }
        }
        V::Neg { d, a, vl } => {
            let (op, dst, a) = (UnOp::Neg, VReg(d), VReg(a));
            if vl {
                MInst::VUnVl { op, ty, dst, a }
            } else {
                MInst::VUn { op, ty, dst, a }
            }
        }
        V::Shl { d, a, reg } => MInst::VShift {
            left: true,
            ty,
            dst: VReg(d),
            a: VReg(a),
            amt: if reg {
                ShiftSrc::Reg(SReg(2))
            } else {
                ShiftSrc::Imm(3)
            },
        },
        V::Mov { d, s } => MInst::MovV {
            dst: VReg(d),
            src: VReg(s),
        },
        V::Barrier => barrier(),
    }
}

/// The output region `prog` leaves: `OUT` slots of `lanes` i32 lanes,
/// with `lanes - 1` lanes active for the predicated steps.
fn model(prog: &[V], lanes: usize) -> Vec<u8> {
    let active = |vl: bool, k: usize| !vl || k + 1 < lanes;
    let mut r = vec![vec![0i32; lanes]; NV as usize + 1];
    let mut out = vec![0i32; OUT as usize * lanes];
    for &v in prog {
        match v {
            V::Load { d, j, vl } => {
                r[d as usize] = (0..lanes)
                    .map(|k| if active(vl, k) { input(j, k) } else { 0 })
                    .collect();
            }
            V::Store { slot, s, vl } => {
                for k in (0..lanes).filter(|&k| active(vl, k)) {
                    out[slot as usize * lanes + k] = r[s as usize][k];
                }
            }
            V::Sub { d, a, b, vl } => {
                let (x, y) = (r[a as usize].clone(), r[b as usize].clone());
                for k in (0..lanes).filter(|&k| active(vl, k)) {
                    r[d as usize][k] = x[k].wrapping_sub(y[k]);
                }
            }
            V::Neg { d, a, vl } => {
                let x = r[a as usize].clone();
                for k in (0..lanes).filter(|&k| active(vl, k)) {
                    r[d as usize][k] = x[k].wrapping_neg();
                }
            }
            V::Shl { d, a, .. } => r[d as usize] = r[a as usize].iter().map(|x| x << 3).collect(),
            V::Mov { d, s } => r[d as usize] = r[s as usize].clone(),
            V::Barrier => {}
        }
    }
    out.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// `body` between a prelude that loads v0..v3 and sets the vector
/// length to all lanes but one, and an epilogue that stores every
/// register.
fn aliasing_program(body: &[V]) -> Vec<V> {
    let mut prog: Vec<V> = (0..NV)
        .map(|k| V::Load {
            d: k,
            j: k,
            vl: false,
        })
        .collect();
    prog.push(V::Barrier);
    prog.extend_from_slice(body);
    prog.push(V::Barrier);
    prog.extend((0..NV).map(|k| V::Store {
        slot: NV + k,
        s: k,
        vl: false,
    }));
    prog
}

/// A machine holding the inputs, with r0 = inputs, r1 = outputs, r2 =
/// the shift amount and r3 = the requested vector length.
fn aliasing_machine(t: &TargetDesc) -> (Machine<'_>, u64) {
    let (vs, lanes) = (t.vs, t.vs / 4);
    let mut m = Machine::new(t, 8192);
    let x = m.mem.alloc((NV as usize + 1) * vs, 256);
    let out = m.mem.alloc(OUT as usize * vs, 256);
    for j in 0..=NV {
        for k in 0..lanes {
            let a = x + (j as usize * vs + 4 * k) as u64;
            m.mem
                .write(ScalarTy::I32, a, Value::Int(input(j, k).into()));
        }
    }
    m.set_sreg(SReg(0), Value::Int(x as i64));
    m.set_sreg(SReg(1), Value::Int(out as i64));
    m.set_sreg(SReg(2), Value::Int(3));
    m.set_sreg(SReg(3), Value::Int(lanes as i64 - 1));
    (m, out)
}

/// Run `body` through the seed loop, the decoded executor and the
/// threaded executor: the output region must equal the lane model's in
/// all three, and the decoded and threaded `ExecStats` the seed loop's.
fn same_aliased(case: &str, t: &TargetDesc, body: &[V], formed: impl Fn(&DecodedProgram) -> bool) {
    let case = format!("{case} @ VS={}", t.vs);
    let prog = aliasing_program(body);
    let mut insts = vec![MInst::SetVl {
        ty: ScalarTy::I32,
        dst: SReg(4),
        avl: SReg(3),
    }];
    insts.extend(prog.iter().map(|&v| lower(v, t.vs as i64)));
    let c = code(insts);
    let decoded = DecodedProgram::decode(&c, t).unwrap();
    assert!(
        formed(&decoded),
        "{case}: step not formed\n{}",
        disasm_decoded(&decoded, t)
    );
    let threaded = ThreadedProgram::thread(&decoded, &c);
    let want = model(&prog, t.vs / 4);
    let len = want.len();
    let outcome = |run: &dyn Fn(&mut Machine<'_>) -> Result<ExecStats, Trap>| {
        let (mut m, out) = aliasing_machine(t);
        let stats = run(&mut m).unwrap_or_else(|e| panic!("{case}: {e}"));
        (stats, m.mem.slice(out, len).to_vec())
    };
    let seed = outcome(&|m| m.run(&c));
    assert!(seed.1 == want, "{case}: seed loop against the lane model");
    let dec = outcome(&|m| m.run_decoded(&decoded));
    assert_eq!(dec.0, seed.0, "{case}: decoded stats");
    assert!(dec.1 == want, "{case}: decoded against the lane model");
    let thr = outcome(&|m| m.run_threaded(&threaded));
    assert_eq!(thr.0, seed.0, "{case}: threaded stats");
    assert!(thr.1 == want, "{case}: threaded against the lane model");
}

/// Register triples `(dst, a, b)` over distinct `p`, `q`, `r`, with `p`
/// always an operand (a load's or the previous op's destination).
fn shapes(p: u32, q: u32, r: u32) -> [(&'static str, u32, u32, u32); 5] {
    [
        ("dst==a", p, p, q),
        ("dst==b", q, p, q),
        ("a==b", r, p, p),
        ("dst==a==b", p, p, p),
        ("distinct", r, p, q),
    ]
}

fn has(step: fn(&DStep) -> bool) -> impl Fn(&DecodedProgram) -> bool {
    move |p| p.steps().iter().any(|d| step(&d.step))
}

/// 16-, 32-, 64- and 256-byte registers: both slot strides.
fn alias_targets() -> [TargetDesc; 4] {
    [sse(), avx(), sve().at_vl(512), sve().at_vl(2048)]
}

#[test]
fn aliased_registers_match_the_lane_model_in_every_step() {
    for t in &alias_targets() {
        for (shape, d, a, b) in shapes(0, 1, 2) {
            let sub = |vl| V::Sub { d, a, b, vl };
            same_aliased(
                &format!("VBinFast {shape}"),
                t,
                &[sub(false)],
                has(|s| matches!(s, DStep::VBinFast { .. })),
            );
            same_aliased(
                &format!("VBinVlFast {shape}"),
                t,
                &[sub(true)],
                has(|s| matches!(s, DStep::VBinVlFast { .. })),
            );
        }
        for (shape, d, a) in [("dst==a", 0, 0), ("distinct", 2, 0)] {
            same_aliased(
                &format!("VUnFast {shape}"),
                t,
                &[V::Neg { d, a, vl: false }],
                has(|s| matches!(s, DStep::VUnFast { .. })),
            );
            same_aliased(
                &format!("VUnVlFast {shape}"),
                t,
                &[V::Neg { d, a, vl: true }],
                has(|s| matches!(s, DStep::VUnVlFast { .. })),
            );
            same_aliased(
                &format!("VShiftImmFast {shape}"),
                t,
                &[V::Shl { d, a, reg: false }],
                has(|s| matches!(s, DStep::VShiftImmFast { .. })),
            );
            same_aliased(
                &format!("VShiftRegFast {shape}"),
                t,
                &[V::Shl { d, a, reg: true }],
                has(|s| matches!(s, DStep::VShiftRegFast { .. })),
            );
            same_aliased(
                &format!("MovV {shape}"),
                t,
                &[V::Mov { d, s: a }],
                has(|s| matches!(s, DStep::Op(MInst::MovV { .. }))),
            );
        }
    }
}

#[test]
fn aliased_registers_match_the_lane_model_in_every_fused_arm() {
    let fresh = |d: u32, vl: bool| V::Load { d, j: NV, vl };
    let sub = |d: u32, a: u32, b: u32, vl: bool| V::Sub { d, a, b, vl };
    let store = |s: u32, vl: bool| V::Store { slot: 0, s, vl };
    for t in &alias_targets() {
        for (shape, d, a, b) in shapes(0, 1, 2) {
            same_aliased(
                &format!("load-bin-store {shape}"),
                t,
                &[fresh(a, false), sub(d, a, b, false), store(d, false)],
                |p| p.fusion_stats().load_bin_store == 1,
            );
            same_aliased(
                &format!("load-bin-bin first bin {shape}"),
                t,
                &[fresh(a, false), sub(d, a, b, false), sub(3, d, 1, false)],
                |p| p.fusion_stats().load_bin_bin == 1,
            );
            same_aliased(
                &format!("load-bin {shape}"),
                t,
                &[fresh(a, false), sub(d, a, b, false)],
                |p| p.fusion_stats().load_bin == 1,
            );
            same_aliased(
                &format!("bin-store {shape}"),
                t,
                &[sub(d, a, b, false), store(d, false)],
                |p| p.fusion_stats().bin_store == 1,
            );
            same_aliased(
                &format!("load-bin-store-vl {shape}"),
                t,
                &[fresh(a, true), sub(d, a, b, true), store(d, true)],
                |p| p.fusion_stats().load_bin_store_vl == 1,
            );
        }
        // The second bin of `acc = acc ⊕ f(load)`: its `a` is the first
        // bin's destination, v2.
        for (shape, d, a, b) in shapes(2, 1, 3) {
            same_aliased(
                &format!("load-bin-bin second bin {shape}"),
                t,
                &[fresh(0, false), sub(2, 0, 1, false), sub(d, a, b, false)],
                |p| p.fusion_stats().load_bin_bin == 1,
            );
        }
    }
}
