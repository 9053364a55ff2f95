//! Register-file and fast-dispatch tests: the specialized steps must
//! match the seed interpreter at the register widths either side of the
//! slot-stride boundary (`vapor_targets::reg_stride`: 32-byte slots up
//! to 32-byte registers, 256-byte slots above). That the suite's VLA
//! compilations hit the predicated fast kernels is checked on every
//! program the cycle ledger walk (`tests/matrix.rs`) runs.

/// Per-op coverage of the PR 5 fast-dispatch steps (`SplatFast`,
/// `VShiftImmFast`/`VShiftRegFast`, `SpillLdFast`/`SpillStFast`,
/// `VReduceFast`) at the stride-boundary register widths: 16 and 32
/// bytes (32-byte slots), 33 (the first 256-byte-slot width) and 256
/// (the VLA maximum). Decoded dispatch must match the seed interpreter
/// bit for bit at every width.
#[test]
fn new_fast_steps_match_the_baseline_at_boundary_widths() {
    use vapor_ir::ScalarTy;
    use vapor_ir::Value;
    use vapor_targets::{
        AddrMode, DStep as D, DecodedProgram, MCode, MInst, Machine, MemAlign, ReduceOp, SReg,
        ShiftSrc, VReg,
    };

    let code = MCode {
        insts: vec![
            MInst::Splat {
                ty: ScalarTy::I32,
                dst: VReg(0),
                src: SReg(1),
            },
            MInst::LoadV {
                dst: VReg(1),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Unaligned,
            },
            MInst::VShift {
                left: true,
                ty: ScalarTy::I32,
                dst: VReg(2),
                a: VReg(1),
                amt: ShiftSrc::Imm(3),
            },
            MInst::VShift {
                left: false,
                ty: ScalarTy::I32,
                dst: VReg(3),
                a: VReg(1),
                amt: ShiftSrc::Reg(SReg(2)),
            },
            MInst::VShift {
                left: false,
                ty: ScalarTy::I32,
                dst: VReg(4),
                a: VReg(1),
                amt: ShiftSrc::PerLane(VReg(0)),
            },
            MInst::SpillSt {
                src: SReg(1),
                slot: 0,
            },
            MInst::MovS {
                dst: SReg(1),
                src: SReg(2),
            },
            MInst::SpillLd {
                dst: SReg(3),
                slot: 0,
            },
            MInst::VReduce {
                op: ReduceOp::Plus,
                ty: ScalarTy::I32,
                dst: SReg(4),
                src: VReg(2),
            },
            MInst::VReduce {
                op: ReduceOp::Max,
                ty: ScalarTy::I32,
                dst: SReg(5),
                src: VReg(3),
            },
            MInst::VReduce {
                op: ReduceOp::Min,
                ty: ScalarTy::I32,
                dst: SReg(6),
                src: VReg(4),
            },
        ],
        n_sregs: 7,
        n_vregs: 5,
        note: String::new(),
    };

    // Boundary widths: fixed 16/32-byte targets, a synthetic 33-byte
    // machine (first 256-byte-slot width) and the 2048-bit VLA maximum.
    let mut odd = vapor_targets::sve().at_vl(512);
    odd.vs = 33;
    let targets = [
        ("sse/16", vapor_targets::sse()),
        ("avx/32", vapor_targets::avx()),
        ("vs=33", odd),
        ("sve/256", vapor_targets::sve().at_vl(2048)),
    ];
    for (tag, t) in &targets {
        let prog = DecodedProgram::decode(&code, t).unwrap();
        // Every instruction must take its specialized step — none may
        // fall back to the generic Op path.
        for d in prog.steps() {
            assert!(
                !matches!(d.step, D::Op(_)),
                "{tag}: generic fallback for {}",
                vapor_targets::disasm_step(&d.step, t.vs)
            );
        }
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::SplatFast { .. })));
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::VShiftImmFast { .. })));
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::VShiftRegFast { .. })));
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::SpillLdFast { .. })));
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::SpillStFast { .. })));
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::VReduceFast { .. })));
        // The per-lane shift reuses the VBin lane kernels.
        assert!(prog
            .steps()
            .iter()
            .any(|d| matches!(d.step, D::VBinFast { .. })));

        let run_one = |decoded: bool| {
            let mut m = Machine::new(t, 8192);
            let base = m.mem.alloc(256, 256);
            for k in 0..64u64 {
                m.mem
                    .write(ScalarTy::I32, base + 4 * k, Value::Int(k as i64 - 7));
            }
            m.set_sreg(SReg(0), Value::Int(base as i64));
            m.set_sreg(SReg(1), Value::Int(2));
            m.set_sreg(SReg(2), Value::Int(1));
            let stats = if decoded {
                m.run_decoded(&prog).unwrap()
            } else {
                m.run(&code).unwrap()
            };
            let regs: Vec<Value> = (0..7).map(|r| m.sreg(SReg(r))).collect();
            (stats, regs)
        };
        let (fast_stats, fast_regs) = run_one(true);
        let (base_stats, base_regs) = run_one(false);
        assert_eq!(fast_regs, base_regs, "{tag}: registers diverged");
        assert_eq!(fast_stats, base_stats, "{tag}: stats diverged");
    }
}
