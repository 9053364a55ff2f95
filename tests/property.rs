//! Property-based tests: randomly generated affine kernels must compile
//! through the split pipeline and match the reference interpreter on
//! every SIMD target, for arbitrary loop counts (tail loops included)
//! and arbitrary constant offsets (realignment included).
//!
//! Generation is hand-rolled on the deterministic workspace PRNG (the
//! offline build has no proptest): fixed seeds per property, so failures
//! reproduce exactly; the failing kernel is printed on panic.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{cells, check};
use vapor_core::{reference, AllocPolicy, Engine, Flow};
use vapor_ir::{ArrayData, BinOp, Bindings, Expr, Kernel, KernelBuilder, ScalarTy};
use vapor_targets::{altivec, neon64, sse};

#[derive(Debug, Clone)]
enum Node {
    Load(i64),
    ConstI(i64),
    Bin(BinOp, Box<Node>, Box<Node>),
    Shr(Box<Node>, u8),
}

fn seeded(tag: &str) -> StdRng {
    let mut seed = [0u8; 32];
    for (i, b) in tag.bytes().enumerate() {
        seed[i % 32] ^= b.wrapping_mul(i as u8 + 17);
    }
    StdRng::from_seed(seed)
}

/// A random expression tree of at most `depth` levels over `x[i+k]`
/// loads and small integer constants (the old proptest strategy, by
/// hand).
fn random_node(rng: &mut StdRng, depth: u32) -> Node {
    let leaf = depth == 0 || rng.gen_range(0..4_i64) == 0;
    if leaf {
        if rng.gen_range(0..2_i64) == 0 {
            Node::Load(rng.gen_range(0..4_i64))
        } else {
            Node::ConstI(rng.gen_range(-20..20_i64))
        }
    } else if rng.gen_range(0..5_i64) == 0 {
        Node::Shr(
            Box::new(random_node(rng, depth - 1)),
            rng.gen_range(0..8_i64) as u8,
        )
    } else {
        let op = match rng.gen_range(0..5_i64) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Min,
            _ => BinOp::Max,
        };
        Node::Bin(
            op,
            Box::new(random_node(rng, depth - 1)),
            Box::new(random_node(rng, depth - 1)),
        )
    }
}

fn to_expr(n: &Node, x: vapor_ir::ArrayId, i: vapor_ir::VarId) -> Expr {
    match n {
        Node::Load(off) => Expr::load(x, Expr::bin(BinOp::Add, Expr::Var(i), Expr::Int(*off))),
        Node::ConstI(v) => Expr::Int(*v),
        Node::Bin(op, a, b) => Expr::bin(*op, to_expr(a, x, i), to_expr(b, x, i)),
        Node::Shr(a, k) => Expr::bin(BinOp::Shr, to_expr(a, x, i), Expr::Int(*k as i64)),
    }
}

fn map_kernel(value: &Node) -> Kernel {
    let mut b = KernelBuilder::new("prop_map");
    let n = b.scalar_param("n", ScalarTy::I64);
    let x = b.array_param("x", ScalarTy::I32);
    let y = b.array_param("y", ScalarTy::I32);
    let i = b.fresh_loop_var("i");
    b.for_loop(i, Expr::Int(0), Expr::Var(n), 1, |b| {
        b.store(y, Expr::Var(i), to_expr(value, x, i));
    });
    b.finish()
}

fn reduction_kernel(value: &Node) -> Kernel {
    let mut b = KernelBuilder::new("prop_reduce");
    let n = b.scalar_param("n", ScalarTy::I64);
    let x = b.array_param("x", ScalarTy::I32);
    let y = b.array_param("y", ScalarTy::I32);
    let s = b.local("s", ScalarTy::I32);
    let i = b.fresh_loop_var("i");
    b.assign(s, Expr::Int(0));
    b.for_loop(i, Expr::Int(0), Expr::Var(n), 1, |b| {
        b.assign(s, Expr::bin(BinOp::Add, Expr::Var(s), to_expr(value, x, i)));
    });
    b.store(y, Expr::Int(0), Expr::Var(s));
    b.finish()
}

fn random_data(rng: &mut StdRng, len: usize) -> Vec<i64> {
    (0..len).map(|_| rng.gen_range(-1000..1000_i64)).collect()
}

fn check_kernel(engine: &Engine, kernel: &Kernel, n: usize, data: &[i64], mis: usize) {
    vapor_ir::validate(kernel).expect("generated kernel must validate");
    let mut env = Bindings::new();
    env.set_int("n", n as i64)
        .set_array("x", ArrayData::from_ints(ScalarTy::I32, data))
        .set_array("y", ArrayData::zeroed(ScalarTy::I32, n.max(1)));
    let oracle = reference(kernel, &env).expect("oracle");
    let targets = [sse(), altivec(), neon64()];
    let flows = [Flow::SplitVectorOpt, Flow::SplitVectorNaive];
    let placed = match mis {
        0 => AllocPolicy::Aligned,
        mis => AllocPolicy::Misaligned(mis),
    };
    for mut cell in cells(kernel, &env, &targets, &flows, &[placed]) {
        // A JIT that owns allocation never sees misaligned bases: the
        // base_aligned guards it folds are promises about its own
        // allocator. Misaligned placement only makes sense for the
        // optimizing online flow, which emits runtime checks.
        if cell.flow == Flow::SplitVectorNaive {
            cell.policy = AllocPolicy::Aligned;
        }
        check(engine, &cell, &oracle, &[])
            .unwrap_or_else(|e| panic!("{e} (n={n})\nkernel:\n{}", vapor_ir::print_kernel(kernel)));
    }
}

#[test]
fn random_map_kernels_match_oracle() {
    let mut rng = seeded("random_map_kernels_match_oracle");
    let engine = Engine::new();
    for case in 0..32 {
        let value = random_node(&mut rng, 3);
        let n = rng.gen_range(0..40_i64) as usize;
        let data = random_data(&mut rng, 44);
        let mis = [0usize, 4, 12][rng.gen_range(0..3_i64) as usize];
        let _ = case;
        check_kernel(&engine, &map_kernel(&value), n, &data, mis);
    }
}

#[test]
fn random_reduction_kernels_match_oracle() {
    let mut rng = seeded("random_reduction_kernels_match_oracle");
    let engine = Engine::new();
    for _ in 0..32 {
        let value = random_node(&mut rng, 2);
        let n = rng.gen_range(0..40_i64) as usize;
        let data = random_data(&mut rng, 44);
        check_kernel(&engine, &reduction_kernel(&value), n, &data, 0);
    }
}

/// Random straight-line machine-code sequences pushed through the
/// superinstruction fuser: fused and unfused dispatch must produce
/// bit-identical scalar registers, memory and execution statistics, and
/// the pass must be idempotent (fusing twice = fusing once). This
/// exercises the pattern-matcher on shapes the online compilers never
/// emit — partial matches, dataflow near-misses, back-to-back fusible
/// groups.
#[test]
fn random_straight_line_sequences_survive_fusion() {
    use vapor_ir::Value;
    use vapor_targets::{
        disasm_decoded, sse, AddrMode, DecodedProgram, MInst, Machine, MemAlign, SReg, ShiftSrc,
        VReg,
    };

    let mut rng = seeded("random_straight_line_sequences_survive_fusion");
    let t = sse();
    for case in 0..64 {
        // Program state the generator tracks so no op reads an
        // undefined register or strays out of the 256-byte array.
        let n_vregs = 4u32;
        let n_sregs = 6u32; // r0 = array base, r1..r3 ints, r4..r5 scratch
        let mut spilled: Vec<u32> = Vec::new();
        let mut insts: Vec<MInst> = Vec::new();
        let disp = |rng: &mut StdRng| rng.gen_range(0..15_i64) * 16;
        // Prologue: define every vreg from memory.
        for v in 0..n_vregs {
            insts.push(MInst::LoadV {
                dst: VReg(v),
                addr: AddrMode::base_disp(SReg(0), disp(&mut rng)),
                align: MemAlign::Unaligned,
            });
        }
        for _ in 0..rng.gen_range(8..40_i64) {
            let vr = |rng: &mut StdRng| VReg(rng.gen_range(0..n_vregs as i64) as u32);
            let sr = |rng: &mut StdRng| SReg(rng.gen_range(1..n_sregs as i64) as u32);
            match rng.gen_range(0..10_i64) {
                0 => insts.push(MInst::LoadV {
                    dst: vr(&mut rng),
                    addr: AddrMode::base_disp(SReg(0), disp(&mut rng)),
                    align: MemAlign::Unaligned,
                }),
                1 => insts.push(MInst::StoreV {
                    src: vr(&mut rng),
                    addr: AddrMode::base_disp(SReg(0), disp(&mut rng)),
                    align: MemAlign::Unaligned,
                }),
                2 | 3 => insts.push(MInst::VBin {
                    op: [BinOp::Add, BinOp::Mul, BinOp::Min][rng.gen_range(0..3_i64) as usize],
                    ty: ScalarTy::I32,
                    dst: vr(&mut rng),
                    a: vr(&mut rng),
                    b: vr(&mut rng),
                }),
                4 => insts.push(MInst::SBinImm {
                    op: BinOp::Add,
                    ty: ScalarTy::I64,
                    dst: sr(&mut rng),
                    a: sr(&mut rng),
                    imm: rng.gen_range(-8..8_i64),
                }),
                5 => insts.push(MInst::SBin {
                    op: BinOp::Mul,
                    ty: ScalarTy::I64,
                    dst: sr(&mut rng),
                    a: sr(&mut rng),
                    b: sr(&mut rng),
                }),
                6 => insts.push(MInst::Splat {
                    ty: ScalarTy::I32,
                    dst: vr(&mut rng),
                    src: sr(&mut rng),
                }),
                7 => insts.push(MInst::VShift {
                    left: rng.gen_range(0..2_i64) == 0,
                    ty: ScalarTy::I32,
                    dst: vr(&mut rng),
                    a: vr(&mut rng),
                    amt: ShiftSrc::Imm(rng.gen_range(0..8_i64) as u8),
                }),
                8 => insts.push(MInst::VReduce {
                    op: vapor_targets::ReduceOp::Plus,
                    ty: ScalarTy::I32,
                    dst: sr(&mut rng),
                    src: vr(&mut rng),
                }),
                _ => {
                    let slot = rng.gen_range(0..3_i64) as u32;
                    if spilled.contains(&slot) && rng.gen_range(0..2_i64) == 0 {
                        insts.push(MInst::SpillLd {
                            dst: sr(&mut rng),
                            slot,
                        });
                    } else {
                        insts.push(MInst::SpillSt {
                            src: sr(&mut rng),
                            slot,
                        });
                        spilled.push(slot);
                    }
                }
            }
        }
        // Epilogue: store every vreg so the memory comparison below
        // covers the whole vector register file.
        for v in 0..n_vregs {
            insts.push(MInst::StoreV {
                src: VReg(v),
                addr: AddrMode::base_disp(SReg(0), 256 + 16 * v as i64),
                align: MemAlign::Unaligned,
            });
        }
        let code = vapor_targets::MCode {
            insts,
            n_sregs,
            n_vregs,
            note: String::new(),
        };

        let fused = DecodedProgram::decode(&code, &t).unwrap();
        let unfused = DecodedProgram::decode_unfused(&code, &t).unwrap();
        let run_one = |prog: &DecodedProgram| {
            let mut m = Machine::new(&t, 4096);
            let base = m.mem.alloc(256 + 16 * n_vregs as usize, 16);
            for k in 0..64u64 {
                m.mem
                    .write(ScalarTy::I32, base + 4 * k, Value::Int(k as i64 - 31));
            }
            m.set_sreg(SReg(0), Value::Int(base as i64));
            for r in 1..n_sregs {
                m.set_sreg(SReg(r), Value::Int(r as i64 + 1));
            }
            let stats = m.run_decoded(prog).unwrap();
            let sregs: Vec<Value> = (0..n_sregs).map(|r| m.sreg(SReg(r))).collect();
            let mem = m.mem.slice(base, 256 + 16 * n_vregs as usize).to_vec();
            (stats, sregs, mem)
        };
        let a = run_one(&fused);
        let b = run_one(&unfused);
        assert_eq!(
            a,
            b,
            "case {case}: fused and unfused dispatch diverged\n{}",
            disasm_decoded(&fused, &t)
        );

        // Idempotence: a second fusion pass is a no-op.
        let twice = fused.clone().fuse();
        assert_eq!(twice.n_steps(), fused.n_steps(), "case {case}");
        assert_eq!(twice.fusion_stats(), fused.fusion_stats(), "case {case}");
        assert_eq!(
            disasm_decoded(&twice, &t),
            disasm_decoded(&fused, &t),
            "case {case}"
        );
    }
}

/// Strided (rate-2) store pairs — the interleave path — for random
/// coefficient expressions and loop counts.
#[test]
fn random_interleaved_stores_match_oracle() {
    let mut rng = seeded("random_interleaved_stores_match_oracle");
    let engine = Engine::new();
    for _ in 0..16 {
        let c0 = rng.gen_range(-50..50_i64);
        let c1 = rng.gen_range(-50..50_i64);
        let n = rng.gen_range(0..33_i64) as usize;
        let data = random_data(&mut rng, 34);

        let mut b = KernelBuilder::new("prop_interleave");
        let nn = b.scalar_param("n", ScalarTy::I64);
        let x = b.array_param("x", ScalarTy::I32);
        let y = b.array_param("y", ScalarTy::I32);
        let i = b.fresh_loop_var("i");
        b.for_loop(i, Expr::Int(0), Expr::Var(nn), 1, |b| {
            let two_i = Expr::bin(BinOp::Mul, Expr::Int(2), Expr::Var(i));
            let xi = Expr::load(x, Expr::Var(i));
            let xi1 = Expr::load(x, Expr::bin(BinOp::Add, Expr::Var(i), Expr::Int(1)));
            b.store(y, two_i.clone(), Expr::bin(BinOp::Mul, Expr::Int(c0), xi));
            b.store(
                y,
                Expr::bin(BinOp::Add, two_i, Expr::Int(1)),
                Expr::bin(BinOp::Mul, Expr::Int(c1), xi1),
            );
        });
        let kernel = b.finish();
        vapor_ir::validate(&kernel).unwrap();

        let mut env = Bindings::new();
        env.set_int("n", n as i64)
            .set_array("x", ArrayData::from_ints(ScalarTy::I32, &data))
            .set_array("y", ArrayData::zeroed(ScalarTy::I32, 2 * n.max(1)));
        let oracle = reference(&kernel, &env).unwrap();
        let targets = [sse(), altivec(), neon64()];
        for cell in cells(
            &kernel,
            &env,
            &targets,
            &[Flow::SplitVectorOpt],
            &[AllocPolicy::Aligned],
        ) {
            check(&engine, &cell, &oracle, &[]).unwrap_or_else(|e| panic!("{e} (n={n})"));
        }
    }
}
