//! The optimizing pipelines' MCode pass: dead-code elimination, then
//! loop-invariant code motion and local value numbering in the
//! innermost loops.
//!
//! - **DCE.** Removes pure definitions whose results are never read
//!   anywhere in the function — in particular the address arithmetic
//!   feeding `get_rt` / `align_load` when the target resolves
//!   realignment implicitly (the paper's "no code is generated for
//!   idioms get_rt and align_load"). Liveness is *global* (a register
//!   read anywhere keeps every definition of it), which is trivially
//!   sound in the presence of loops; deletions repeat until none is
//!   left — the fixed point of "delete every pure definition nothing
//!   reads".
//! - **LICM.** The lowering computes every address from the induction
//!   variables in place, so a nest re-runs the same row offset
//!   (`Mul r0, r44`) on every iteration of the inner loop. The
//!   gcc4cli-class online compiler and the GCC-class baseline both hoist
//!   such invariants. Loops are found by their back edges. A pure op of
//!   an innermost loop moves to the loop's preheader when its
//!   destination has one definition, no operand is written inside the
//!   loop, and it runs on every iteration: no branch inside the loop
//!   jumps over it, so nothing under an in-loop `if` or a runtime-guard
//!   arm moves.
//!   The preheader is the fall-through edge into the loop's header,
//!   after the bottom-tested loop's zero-trip guard: a loop that runs no
//!   iteration runs no hoisted op, so no run executes more instructions
//!   than before.
//! - **LVN.** Then, in each basic block of those loops and in their
//!   preheaders, a pure op that repeats an earlier one on the same
//!   operands is removed and its destination renamed to the earlier
//!   result, never across a redefinition of an operand or of that
//!   result. Both results must have one definition, and every read of
//!   the removed one must lie in the loop after it.
//!
//! The motion stops at the innermost loops on purpose: on the suite the
//! outer loops' bodies hold few ops that run on every iteration (most
//! sit under a runtime-guard arm or after an inner loop's zero-trip
//! guard). Moving code out of every loop and numbering every block saved
//! 0.3 more points of `hot_loops` cycles and cost online-compile time on
//! every request.
//!
//! A VLA strip loop (one with a `SetVl`) that carries a vector
//! accumulator is left alone. A reduction after it pays `log2(lanes)`
//! steps, so at the widest VL such a loop is often one strip long, and
//! hoisting out of it would speed up only the narrow VLs: on SVE,
//! `ludcmp_fp` at `Scale::Test` would run slower at VL 2048 than at
//! VL 128. A run-time break-even guard is the real fix for short strips.
//!
//! The pure ops LICM and LVN handle are [`MInst::SBin`] /
//! [`MInst::SBinImm`] add, sub and mul (logic and shifts on integers)
//! and the immediate moves. Division, loads, splats and vector ops stay
//! where they are.
//!
//! LICM and LVN work on the layout the lowering emits: a loop is a
//! backward branch to a label only that branch targets, entered by
//! falling into its label, with no branch from outside landing inside
//! it. One walk over the program counts what DCE needs and checks one
//! whole-program fact: every scalar register read is an input or is
//! written on every path to the read. The VM traps on a read past the
//! highest register written so far, so code that may read an undefined
//! register only gets DCE: moving or removing a write could move that
//! trap. Under the fact, a single-definition register's definition
//! comes before each of its uses on every path and in the layout, which
//! is what makes the motion and the renaming exact.
//!
//! Operands come from [`MInst::visit_regs`], the ISA's one operand
//! enumeration.

use std::cell::RefCell;

use vapor_ir::{BinOp, ScalarTy};
use vapor_targets::{Access, MCode, MInst, SReg};

/// Absent register, label or position.
const NONE: u32 = u32::MAX;

/// The value a pure op computes, with its operands by register number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expr {
    Bin(BinOp, ScalarTy, u32, u32),
    BinImm(BinOp, ScalarTy, u32, i64),
    ImmI(i64),
    /// The float's bits, so that equal keys mean equal values.
    ImmF(u64),
}

impl Expr {
    /// The registers the value is computed from.
    fn operands(self) -> [u32; 2] {
        match self {
            Expr::Bin(_, _, a, b) => [a, b],
            Expr::BinImm(_, _, a, _) => [a, NONE],
            Expr::ImmI(_) | Expr::ImmF(_) => [NONE; 2],
        }
    }

    fn reads(self, r: u32) -> bool {
        self.operands().contains(&r)
    }
}

/// Whether `op` at `ty` is pure and cannot trap or panic: add, sub and
/// mul at any type, logic and shifts on integers.
fn pure_bin(op: BinOp, ty: ScalarTy) -> bool {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => true,
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => !ty.is_float(),
        _ => false,
    }
}

/// The destination and value of a pure op; `None` for every other
/// instruction.
fn pure_op(inst: &MInst) -> Option<(u32, Expr)> {
    match *inst {
        MInst::SBin { op, ty, dst, a, b } if pure_bin(op, ty) => {
            Some((dst.0, Expr::Bin(op, ty, a.0, b.0)))
        }
        MInst::SBinImm {
            op,
            ty,
            dst,
            a,
            imm,
        } if pure_bin(op, ty) => Some((dst.0, Expr::BinImm(op, ty, a.0, imm))),
        MInst::MovImmI { dst, imm } => Some((dst.0, Expr::ImmI(imm))),
        MInst::MovImmF { dst, imm } => Some((dst.0, Expr::ImmF(imm.to_bits()))),
        _ => None,
    }
}

/// Kinds of op in [`Op::kind`], as flags.
const LABEL: u8 = 1;
/// A jump or a conditional branch.
const BRANCH: u8 = 2;
/// An unconditional jump (also a [`BRANCH`]).
const JUMP: u8 = 4;

/// An op's kind and the label it defines or branches to; `(0, NONE)` for
/// every op that does not transfer control. Labels and branches lead the
/// ISA's list, so this costs one range test per op.
fn control(inst: &MInst) -> (u8, u32) {
    match *inst {
        MInst::Label(l) => (LABEL, l.0),
        MInst::Jump(l) => (BRANCH | JUMP, l.0),
        MInst::Branch { target, .. } | MInst::BranchImm { target, .. } => (BRANCH, target.0),
        _ => (0, NONE),
    }
}

/// Whether DCE may delete `inst` when nothing reads what it writes: the
/// purity list; the operands come from `visit_regs`.
fn deletable(inst: &MInst) -> bool {
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

/// What the walk records of one op.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// [`LABEL`], [`BRANCH`] and [`JUMP`] flags.
    kind: u8,
    /// The label a label or branch names; for any other op, the scalar
    /// register it writes, or `NONE`.
    arg: u32,
    /// The vector register the op writes, or `NONE`.
    vdst: u32,
}

/// What the walk counts of one scalar register.
#[derive(Debug, Clone, Copy, Default)]
struct Reg {
    /// Reads: DCE's liveness.
    reads: u32,
    /// Definitions; an input counts one.
    defs: u32,
    /// The positions of the last read and of the last definition.
    last_read: u32,
    last_def: u32,
}

/// What one walk over the program counts and finds.
#[derive(Default)]
struct Walk {
    /// Every op, in layout order.
    ops: Vec<Op>,
    /// Every scalar register, and the reads of each vector register.
    sregs: Vec<Reg>,
    vreads: Vec<u32>,
    /// Per label: its position, and the branches to it.
    label_at: Vec<u32>,
    refs: Vec<u32>,
    /// The loops as (header, latch) positions, in the order their latches
    /// close them.
    loops: Vec<(u32, u32)>,
    /// The positions of the ops that may read an undefined register:
    /// LICM and LVN need each of them dead.
    undefined: Vec<u32>,
    /// Whether the layout allows LICM and LVN: no label undefined or
    /// defined twice, and no backward branch that adds to its target's
    /// entry set.
    ok: bool,
    /// The must-be-written sets (see [`Walk::fill`]).
    cur: Vec<u64>,
    at_label: Vec<u64>,
}

impl Walk {
    /// Walk `insts` once, in layout order.
    ///
    /// The must-be-written sets are bitsets: `cur` at the current
    /// position, and one per label that meets every forward branch to it
    /// and then holds the set on entry. A backward branch must carry a
    /// superset of its target's entry set, so that the back edges add
    /// nothing the forward order missed.
    fn fill(&mut self, insts: &[MInst], n_sregs: usize, n_vregs: usize, n_inputs: usize) {
        let words = n_sregs.div_ceil(64).max(1);
        let w = self;
        let reset = |v: &mut Vec<u32>, n: usize, x: u32| {
            v.clear();
            v.resize(n, x);
        };
        w.ops.clear();
        w.sregs.clear();
        w.sregs.resize(n_sregs, Reg::default());
        w.sregs[..n_inputs].iter_mut().for_each(|r| r.defs = 1);
        reset(&mut w.vreads, n_vregs, 0);
        w.label_at.clear();
        w.refs.clear();
        w.loops.clear();
        w.undefined.clear();
        w.ok = true;
        let mut cur = std::mem::take(&mut w.cur);
        cur.clear();
        cur.resize(words, 0);
        for r in 0..n_inputs {
            cur[r / 64] |= 1 << (r % 64);
        }
        let mut at_label = std::mem::take(&mut w.at_label);
        at_label.clear();
        // Whether control can fall into the current position.
        let mut live = true;
        for (p, inst) in insts.iter().enumerate() {
            let p = p as u32;
            let (kind, l) = control(inst);
            if l as usize >= w.label_at.len() && l != NONE {
                w.label_at.resize(l as usize + 1, NONE);
                w.refs.resize(l as usize + 1, 0);
                at_label.resize((l as usize + 1) * words, u64::MAX);
            }
            if kind & LABEL != 0 {
                let vdst = NONE;
                w.ops.push(Op { kind, arg: l, vdst });
                let l = l as usize;
                w.ok &= w.label_at[l] == NONE;
                w.label_at[l] = p;
                let entry = &mut at_label[l * words..][..words];
                for (e, c) in entry.iter_mut().zip(&mut cur) {
                    *e &= if live { *c } else { u64::MAX };
                    *c = *e;
                }
                live = true;
                continue;
            }
            let (mut defined, mut d, mut vd) = (true, NONE, NONE);
            let (sregs, vreads) = (&mut w.sregs, &mut w.vreads);
            inst.visit_regs(
                |r, a| {
                    let r = r.0;
                    if a.writes() {
                        d = r;
                    } else {
                        defined &= (cur[r as usize / 64] >> (r % 64)) & 1 == 1;
                        let reg = &mut sregs[r as usize];
                        reg.reads += 1;
                        reg.last_read = p;
                    }
                },
                |r, a| {
                    if a.reads() {
                        vreads[r.0 as usize] += 1;
                    }
                    if a.writes() {
                        vd = r.0;
                    }
                },
            );
            if live && !defined {
                w.undefined.push(p);
            }
            if d != NONE {
                let r = d as usize;
                w.sregs[r].defs += 1;
                w.sregs[r].last_def = p;
                cur[r / 64] |= 1 << (r % 64);
            }
            let arg = if kind & BRANCH == 0 { d } else { l };
            w.ops.push(Op {
                kind,
                arg,
                vdst: vd,
            });
            if kind & BRANCH == 0 {
                continue;
            }
            w.refs[l as usize] += 1;
            let t = w.label_at[l as usize];
            let entry = &mut at_label[l as usize * words..][..words];
            if t == NONE {
                entry.iter_mut().zip(&cur).for_each(|(e, c)| *e &= c);
            } else if live {
                w.ok &= entry.iter().zip(&cur).all(|(e, c)| e & !c == 0);
                // A loop, entered by falling into its header.
                if t > 0 && w.ops[t as usize - 1].kind & JUMP == 0 {
                    w.loops.push((t, p));
                }
            }
            live &= kind & JUMP == 0;
        }
        w.ok &= w
            .label_at
            .iter()
            .zip(&w.refs)
            .all(|(&t, &n)| t != NONE || n == 0);
        (w.cur, w.at_label) = (cur, at_label);
    }

    /// Delete the [`deletable`] ops nothing reads, sweep after sweep until
    /// none is left; `live` gets which ops stay. A deleted op's operands
    /// lose a read. The sweeps run backwards, so that a chain of dead
    /// definitions goes in one: another sweep runs only when a deletion
    /// leaves unread a scalar register defined after it (a loop-carried
    /// chain) or any vector register.
    fn sweep(&mut self, insts: &[MInst], live: &mut Vec<bool>) {
        live.clear();
        live.resize(insts.len(), true);
        let mut again = true;
        while again {
            again = false;
            for (p, op) in self.ops.iter().enumerate().rev() {
                let (d, vd) = (op.arg, op.vdst);
                let writes = op.kind == 0 && (d != NONE || vd != NONE);
                let sread = d != NONE && self.sregs[d as usize].reads > 0;
                let vread = vd != NONE && self.vreads[vd as usize] > 0;
                if !live[p] || !writes || sread || vread || !deletable(&insts[p]) {
                    continue;
                }
                live[p] = false;
                let (sregs, vreads) = (&mut self.sregs, &mut self.vreads);
                let (mut sagain, mut vagain) = (false, false);
                insts[p].visit_regs(
                    |r, a| {
                        if a.reads() {
                            let reg = &mut sregs[r.0 as usize];
                            reg.reads -= 1;
                            sagain |= reg.reads == 0 && reg.last_def > p as u32;
                        }
                    },
                    |r, a| {
                        if a.reads() {
                            vreads[r.0 as usize] -= 1;
                            vagain |= vreads[r.0 as usize] == 0;
                        }
                    },
                );
                again |= sagain || vagain;
            }
        }
    }
}

/// The values one basic block computed so far, by operands after
/// renaming.
#[derive(Default)]
struct Values(Vec<(Expr, u32)>);

impl Values {
    /// Forget the values that read `d`, which is written again.
    fn clobber(&mut self, d: u32) {
        self.0.retain(|&(e, _)| !e.reads(d));
    }

    /// Number `expr`, written to `d` (one definition) by the op at `q`
    /// of `insts`: whether it repeats a value of the block and is
    /// dropped. The table holds only single-definition results, and
    /// every read of `d` must lie before `last`, the latch; those reads
    /// are renamed to the earlier result on the spot, ahead of the walk
    /// that numbers them.
    fn repeats(
        &mut self,
        insts: &mut [MInst],
        q: usize,
        (d, expr): (u32, Expr),
        walk: &Walk,
        last: u32,
    ) -> bool {
        if let Some(&(_, first)) = self.0.iter().find(|(e, _)| *e == expr) {
            let reads_end = walk.sregs[d as usize].last_read;
            if reads_end <= last {
                for inst in &mut insts[q + 1..=reads_end as usize] {
                    inst.visit_regs_mut(
                        |r, a| {
                            if a.reads() && r.0 == d {
                                *r = SReg(first);
                            }
                        },
                        |_, _| {},
                    );
                }
                return true;
            }
        }
        if !expr.reads(d) {
            self.0.push((expr, d));
        }
        false
    }
}

/// Whether an op of `body` combines a vector register with itself into
/// itself: the loop carries a vector accumulator, which a reduction after
/// the loop folds.
fn accumulates(body: &[MInst]) -> bool {
    body.iter().any(|inst| {
        let (mut dst, mut sources) = (NONE, [NONE; 4]);
        let mut n = 0;
        inst.visit_regs(
            |_, _| {},
            |r, a| match a {
                Access::Read if n < sources.len() => {
                    sources[n] = r.0;
                    n += 1;
                }
                Access::Read => {}
                Access::Write | Access::ReadWrite => dst = r.0,
            },
        );
        dst != NONE && sources[..n].contains(&dst)
    })
}

/// Hoist and number the innermost loop from header `i` to latch `j`, in
/// one pass over it after one that checks its layout. `written[r]` is
/// `i` while the loop writes `r`. A hoisted op moves in place: the ops
/// from the header to it shift one down, so the loop's preheader grows in
/// front of its header label and keeps the hoisted ops in their order.
/// The ops LVN drops are cleared in `live`, which shifts with the ops.
fn optimize_loop(
    insts: &mut [MInst],
    walk: &Walk,
    (i, j): (u32, u32),
    live: &mut [bool],
    written: &mut [u32],
    (preheader, block): (&mut Values, &mut Values),
) {
    // The layout must be one the motion can trust: every branch to a
    // label inside comes from inside, and no backward branch but the
    // latch. (Another loop inside has its own latch.)
    let body = i as usize..=j as usize;
    let (mut refs, mut inside, mut strip) = (0, 0, false);
    for p in body.clone() {
        let Op { kind, arg: a, .. } = walk.ops[p];
        if kind & LABEL != 0 {
            refs += walk.refs[a as usize];
        } else if kind & BRANCH != 0 {
            let t = walk.label_at[a as usize];
            if t <= p as u32 && (p as u32, t) != (j, i) {
                return;
            }
            inside += u32::from(i <= t && t <= j);
        } else if a != NONE {
            strip |= matches!(insts[p], MInst::SetVl { .. });
            written[a as usize] = i;
        }
    }
    if refs != inside || strip && accumulates(&insts[body.clone()]) {
        return;
    }
    // `reach`: the furthest position a branch seen so far jumps forward
    // to; positions before it may be skipped on some iteration.
    let (mut reach, mut header) = (i, i as usize);
    preheader.0.clear();
    block.0.clear();
    for p in body {
        let Op { kind, arg: d, .. } = walk.ops[p];
        if kind & (LABEL | BRANCH) != 0 {
            block.0.clear();
            if kind & BRANCH != 0 {
                reach = reach.max(walk.label_at[d as usize]);
            }
            continue;
        }
        if !live[p] || d == NONE {
        } else if walk.sregs[d as usize].defs > 1 {
            block.clobber(d);
        } else if let Some(op) = pure_op(&insts[p]) {
            let outside = |o: &u32| *o == NONE || written[*o as usize] != i;
            if reach as usize <= p && op.1.operands().iter().all(outside) {
                // LICM, then LVN in the preheader.
                written[d as usize] = NONE;
                if preheader.repeats(insts, p, op, walk, j) {
                    live[p] = false;
                } else {
                    insts[header..=p].rotate_right(1);
                    live[header..=p].rotate_right(1);
                    header += 1;
                }
            } else if block.repeats(insts, p, op, walk, j) {
                live[p] = false;
            }
        }
    }
}

/// Everything the pass allocates, kept between compilations on a thread:
/// once a thread has compiled a program, compiling one no larger
/// allocates nothing.
#[derive(Default)]
struct Scratch {
    walk: Walk,
    live: Vec<bool>,
    written: Vec<u32>,
    values: (Values, Values),
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Run the pass on `code`. `n_inputs` registers (the parameters and the
/// array bases and lengths) are set by the caller before the code runs.
///
/// # Panics
/// Panics if a register is not below `code.n_sregs` / `code.n_vregs`,
/// which the lowering's own output never does.
pub fn run(code: &mut MCode, n_inputs: u32) {
    let (n_sregs, n_vregs) = (code.n_sregs as usize, code.n_vregs as usize);
    let n_inputs = (n_inputs as usize).min(n_sregs);
    SCRATCH.with_borrow_mut(|s| {
        let Scratch {
            walk,
            live,
            written,
            values,
        } = s;
        walk.fill(&code.insts, n_sregs, n_vregs, n_inputs);
        walk.sweep(&code.insts, live);
        if walk.ok && walk.undefined.iter().all(|&p| !live[p as usize]) {
            written.clear();
            written.resize(n_sregs, NONE);
            // In latch order, a loop holds another one exactly when the
            // loop closed just before it ends inside it.
            let mut closed = 0;
            for &(i, j) in &walk.loops {
                if closed < i {
                    let tables = (&mut values.0, &mut values.1);
                    optimize_loop(&mut code.insts, walk, (i, j), live, written, tables);
                }
                closed = j;
            }
        }
        if live.contains(&false) {
            let mut stays = live.iter();
            code.insts.retain(|_| stays.next() == Some(&true));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapor_ir::Value;
    use vapor_targets::{
        sse, AddrMode, Cond, DecodedProgram, ExecStats, Label, Machine, MemAlign, SReg, Trap, VReg,
    };

    fn r(n: u32) -> SReg {
        SReg(n)
    }

    fn bin(op: BinOp, dst: u32, a: u32, b: u32) -> MInst {
        let (dst, a, b) = (r(dst), r(a), r(b));
        MInst::SBin {
            op,
            ty: ScalarTy::I64,
            dst,
            a,
            b,
        }
    }

    fn imm(op: BinOp, dst: u32, a: u32, imm: i64) -> MInst {
        let (dst, a) = (r(dst), r(a));
        MInst::SBinImm {
            op,
            ty: ScalarTy::I64,
            dst,
            a,
            imm,
        }
    }

    fn mov(dst: u32, imm: i64) -> MInst {
        MInst::MovImmI { dst: r(dst), imm }
    }

    /// Store `src` at byte `disp` of the array in r2.
    fn store(src: u32, disp: i64) -> MInst {
        let addr = AddrMode::base_disp(r(2), disp);
        MInst::StoreS {
            ty: ScalarTy::I64,
            src: r(src),
            addr,
        }
    }

    fn branch(cond: Cond, a: u32, b: u32, target: u32) -> MInst {
        let (a, b, target) = (r(a), r(b), Label(target));
        MInst::Branch { cond, a, b, target }
    }

    fn code(insts: Vec<MInst>) -> MCode {
        let mut n_sregs = 0;
        for inst in &insts {
            inst.visit_regs(|s, _| n_sregs = n_sregs.max(s.0 + 1), |_, _| {});
        }
        MCode {
            insts,
            n_sregs,
            n_vregs: 0,
            note: "t".into(),
        }
    }

    /// `i` (r3) from 0 to `n` (r0) around `body`, bottom-tested behind
    /// its zero-trip guard, after `pre`; r1 and r2 are further inputs.
    fn looped(pre: Vec<MInst>, body: Vec<MInst>) -> MCode {
        let mut insts = pre;
        insts.extend([mov(3, 0), branch(Cond::Ge, 3, 0, 1), MInst::Label(Label(0))]);
        insts.extend(body);
        insts.extend([
            imm(BinOp::Add, 3, 3, 1),
            branch(Cond::Lt, 3, 0, 0),
            MInst::Label(Label(1)),
        ]);
        code(insts)
    }

    /// Run `code` on the seed loop and on its decode with `inputs` in
    /// r0, r1, r2: the result and the scalar registers of each.
    fn execute(code: &MCode, inputs: [i64; 3]) -> [(Result<ExecStats, Trap>, Vec<Value>); 2] {
        let t = sse();
        let prog = DecodedProgram::decode(code, &t).unwrap();
        let machine = || {
            let mut m = Machine::new(&t, 4096);
            for (i, v) in inputs.into_iter().enumerate() {
                m.set_sreg(SReg(i as u32), Value::Int(v));
            }
            m
        };
        let regs = |m: &Machine| (0..code.n_sregs).map(|i| m.sreg(SReg(i))).collect();
        let (mut seed, mut decoded) = (machine(), machine());
        let a = seed.run(code);
        let b = decoded.run_decoded(&prog);
        [(a, regs(&seed)), (b, regs(&decoded))]
    }

    /// The pass's output on `code` with three inputs.
    fn optimized(code: &MCode) -> MCode {
        let mut out = code.clone();
        run(&mut out, 3);
        out
    }

    /// Whether an instruction equal to `inst` lies between label `L0`
    /// and the loop's latch.
    fn in_loop(code: &MCode, inst: &MInst) -> bool {
        let at = |i: &MInst| code.insts.iter().position(|x| x == i);
        let head = at(&MInst::Label(Label(0))).unwrap();
        let latch = at(&branch(Cond::Lt, 3, 0, 0)).unwrap();
        at(inst).is_some_and(|i| head < i && i < latch)
    }

    /// The optimized program computes the same registers on both
    /// executors, in no more cycles; equal stats when `same` is set.
    fn agree(before: &MCode, after: &MCode, inputs: [i64; 3], same: bool) {
        let (was, now) = (execute(before, inputs), execute(after, inputs));
        for ((w, wr), (n, nr)) in was.into_iter().zip(now) {
            let (w, n) = (w.unwrap(), n.unwrap());
            assert_eq!(wr, nr, "registers with inputs {inputs:?}");
            assert!(n.cycles <= w.cycles && n.insts <= w.insts, "{w:?} -> {n:?}");
            if same {
                assert_eq!(w, n, "stats with inputs {inputs:?}");
            }
        }
    }

    #[test]
    fn an_invariant_op_moves_to_the_preheader() {
        let invariant = imm(BinOp::Mul, 5, 1, 8);
        let before = looped(
            vec![mov(4, 0)],
            vec![invariant.clone(), bin(BinOp::Add, 4, 4, 5)],
        );
        let after = optimized(&before);
        assert!(in_loop(&before, &invariant) && !in_loop(&after, &invariant));
        let guard = after
            .insts
            .iter()
            .position(|i| *i == branch(Cond::Ge, 3, 0, 1));
        let moved = after.insts.iter().position(|i| *i == invariant);
        assert_eq!(
            moved,
            guard.map(|g| g + 1),
            "{}",
            vapor_targets::disasm(&after)
        );
        agree(&before, &after, [5, 3, 0], false);
        let (was, now) = (execute(&before, [5, 3, 0]), execute(&after, [5, 3, 0]));
        assert!(now[1].0.as_ref().unwrap().cycles < was[1].0.as_ref().unwrap().cycles);
    }

    #[test]
    fn repeats_hoisted_from_different_blocks_merge_in_the_preheader() {
        // Two copies of `r1 * 8`, one on each side of an in-loop branch's
        // target; the second one's use repeats the first's in its own
        // block once both copies share the preheader.
        let before = looped(
            vec![mov(4, 0)],
            vec![
                imm(BinOp::Mul, 5, 1, 8),
                bin(BinOp::Add, 6, 5, 3),
                bin(BinOp::Add, 4, 4, 6),
                MInst::BranchImm {
                    cond: Cond::Eq,
                    a: r(3),
                    imm: -1,
                    target: Label(2),
                },
                MInst::Label(Label(2)),
                imm(BinOp::Mul, 7, 1, 8),
                bin(BinOp::Add, 8, 7, 3),
                bin(BinOp::Add, 4, 4, 8),
            ],
        );
        let after = optimized(&before);
        let text = vapor_targets::disasm(&after);
        let muls = after
            .insts
            .iter()
            .filter(|i| matches!(i, MInst::SBinImm { op: BinOp::Mul, .. }));
        assert_eq!(muls.count(), 1, "{text}");
        assert!(!in_loop(&after, &imm(BinOp::Mul, 5, 1, 8)), "{text}");
        // The second block reads the first copy now.
        assert!(in_loop(&after, &bin(BinOp::Add, 8, 5, 3)), "{text}");
        for inputs in [[4, 3, 0], [0, 3, 0]] {
            let (was, now) = (execute(&before, inputs), execute(&after, inputs));
            for ((w, wr), (n, nr)) in was.into_iter().zip(now) {
                let (w, n) = (w.unwrap(), n.unwrap());
                assert_eq!(wr[4], nr[4], "the sum with inputs {inputs:?}");
                assert!(n.cycles <= w.cycles, "{w:?} -> {n:?}");
            }
        }
    }

    #[test]
    fn variant_multiply_defined_dividing_loading_and_guarded_ops_stay() {
        let stay = [
            bin(BinOp::Add, 6, 1, 3),
            imm(BinOp::Mul, 7, 1, 3),
            imm(BinOp::Div, 8, 1, 2),
            MInst::LoadS {
                ty: ScalarTy::I64,
                dst: r(9),
                addr: AddrMode::base_disp(r(2), 0),
            },
            imm(BinOp::Sub, 10, 1, 1),
        ];
        let before = looped(
            vec![mov(4, 0), mov(7, 0)],
            vec![
                stay[0].clone(),
                stay[1].clone(),
                stay[2].clone(),
                stay[3].clone(),
                bin(BinOp::Add, 4, 4, 6),
                bin(BinOp::Add, 4, 4, 7),
                bin(BinOp::Add, 4, 4, 8),
                bin(BinOp::Add, 4, 4, 9),
                // Under an in-loop branch: runs on odd iterations only.
                imm(BinOp::And, 11, 3, 1),
                MInst::BranchImm {
                    cond: Cond::Eq,
                    a: r(11),
                    imm: 0,
                    target: Label(2),
                },
                stay[4].clone(),
                bin(BinOp::Add, 4, 4, 10),
                MInst::Label(Label(2)),
            ],
        );
        let after = optimized(&before);
        for inst in &stay {
            assert!(in_loop(&after, inst), "{inst:?} left the loop");
        }
        assert_eq!(after, before);
        agree(&before, &after, [4, 9, 64], true);
    }

    #[test]
    fn a_zero_trip_loop_runs_exactly_the_unoptimized_program() {
        let before = looped(
            vec![mov(4, 0)],
            vec![
                imm(BinOp::Mul, 5, 1, 8),
                bin(BinOp::Add, 6, 5, 1),
                bin(BinOp::Add, 4, 4, 6),
            ],
        );
        let after = optimized(&before);
        assert_ne!(after, before);
        agree(&before, &after, [0, 3, 0], true);
        agree(&before, &after, [-2, 3, 0], true);
        agree(&before, &after, [1, 3, 0], true);
        agree(&before, &after, [6, 3, 0], false);
    }

    #[test]
    fn value_numbering_drops_repeats_but_not_across_redefinitions() {
        // In the loop on `i` (r3): none of these ops is invariant.
        let body = |repeats: bool| {
            let mut ops = vec![bin(BinOp::Mul, 13, 3, 1)];
            if repeats {
                ops.push(bin(BinOp::Mul, 14, 3, 1));
            }
            ops.extend([
                bin(BinOp::Add, 15, 13, if repeats { 14 } else { 13 }),
                // r1 is redefined: the same text computes a new value.
                imm(BinOp::Add, 16, 1, 1),
                mov(1, 7),
                imm(BinOp::Add, 17, 1, 1),
                // The earlier result r18 is redefined before the repeat.
                imm(BinOp::Sub, 18, 3, 2),
                mov(18, 0),
                imm(BinOp::Sub, 20, 3, 2),
                bin(BinOp::Add, 21, 18, 20),
                store(15, 0),
                store(16, 8),
                store(17, 16),
                store(21, 24),
            ]);
            ops
        };
        let before = looped(vec![], body(true));
        let after = optimized(&before);
        assert_eq!(after.insts, looped(vec![], body(false)).insts);
        let (was, now) = (execute(&before, [3, 5, 256]), execute(&after, [3, 5, 256]));
        for ((w, wr), (n, nr)) in was.into_iter().zip(now) {
            let keep = |regs: Vec<Value>| [1, 13, 15, 16, 17, 18, 20, 21].map(|i| regs[i]);
            assert_eq!(keep(wr), keep(nr));
            assert!(n.unwrap().cycles < w.unwrap().cycles);
        }
    }

    #[test]
    fn a_read_undefined_on_one_path_keeps_its_trap() {
        // r9 is written only when r1 != 0, and the loop reads it in an
        // op that would otherwise be hoisted. No register above r9 is
        // written first, so the read traps on the r1 == 0 path.
        let mut insts = vec![
            MInst::BranchImm {
                cond: Cond::Eq,
                a: r(1),
                imm: 0,
                target: Label(3),
            },
            mov(9, 5),
            MInst::Label(Label(3)),
            mov(4, 0),
        ];
        let body = looped(
            vec![],
            vec![imm(BinOp::Add, 5, 9, 1), bin(BinOp::Add, 4, 4, 5)],
        );
        insts.extend(body.insts);
        let before = code(insts);
        let after = optimized(&before);
        assert_eq!(after, before);
        for inputs in [[3, 0, 0], [3, 1, 0], [0, 0, 0]] {
            let (was, now) = (execute(&before, inputs), execute(&after, inputs));
            for ((w, _), (n, _)) in was.into_iter().zip(now) {
                assert_eq!(w, n, "inputs {inputs:?}");
            }
        }
        let [(seed, _), (decoded, _)] = execute(&before, [3, 0, 0]);
        let trap = Trap("read of undefined scalar register r9".into());
        assert_eq!((seed, decoded), (Err(trap.clone()), Err(trap)));
    }

    #[test]
    fn a_vla_strip_with_a_vector_accumulator_keeps_its_invariants() {
        // A strip-mined loop: `vl = setvl(n - i)`, then a vector op that
        // adds v1 into v0 (an accumulator a reduction would fold) or into
        // v2 (none). `r1 * 8` is invariant either way.
        let invariant = imm(BinOp::Mul, 5, 1, 8);
        let strip = |dst: u32, a: u32| {
            let mut c = looped(
                vec![],
                vec![
                    invariant.clone(),
                    bin(BinOp::Sub, 6, 0, 3),
                    MInst::SetVl {
                        ty: ScalarTy::F32,
                        dst: r(7),
                        avl: r(6),
                    },
                    MInst::VBinVl {
                        op: BinOp::Add,
                        ty: ScalarTy::F32,
                        dst: VReg(dst),
                        a: VReg(a),
                        b: VReg(1),
                    },
                    store(5, 0),
                ],
            );
            c.n_vregs = 3;
            c
        };
        let accumulates = strip(0, 0);
        assert_eq!(optimized(&accumulates), accumulates);
        let after = optimized(&strip(2, 1));
        assert!(
            !in_loop(&after, &invariant),
            "{}",
            vapor_targets::disasm(&after)
        );
    }

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
        run(&mut code, 1);
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
        run(&mut code, 1);
        assert_eq!(code.insts.len(), 2);
    }

    #[test]
    fn removes_a_dead_chain_through_a_register_defined_twice() {
        // r2 is never read; once it goes, neither write of r1 is read.
        let mut code = MCode {
            insts: vec![
                MInst::MovImmI {
                    dst: SReg(1),
                    imm: 1,
                },
                MInst::MovImmI {
                    dst: SReg(1),
                    imm: 2,
                },
                MInst::SBinImm {
                    op: BinOp::Add,
                    ty: ScalarTy::I64,
                    dst: SReg(2),
                    a: SReg(1),
                    imm: 0,
                },
                MInst::StoreV {
                    src: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Unaligned,
                },
            ],
            n_sregs: 3,
            n_vregs: 1,
            note: "t".into(),
        };
        run(&mut code, 1);
        assert_eq!(code.insts.len(), 1);
    }
}
