//! The virtual SIMD machine: executes [`MCode`] over a byte-addressed
//! memory with real lane semantics and per-target cycle accounting.
//!
//! This is the substitute for the paper's physical Core2 / G5 / Cortex A8
//! machines and for the Intel SDE AVX emulator: functionally faithful
//! execution plus a deterministic cycle model (see `cost.rs`).

use std::fmt;

use vapor_ir::sem::{eval_bin, eval_cast, eval_un, read_elem, write_elem, Value};
use vapor_ir::{BinOp, ScalarTy};

use crate::decode::{
    DStep, DecodedProgram, FusedAddr, SBinFn, SplatFn, VBinFn, VShiftFn, VUnFn, Width,
};
use crate::isa::{
    AddrMode, Cond, CvtDir, Half, HelperOp, MCode, MInst, MemAlign, ReduceOp, SReg, ShiftSrc, VReg,
};
use crate::target::TargetDesc;
use crate::thread::{StreamDef, TAddr, TStep, ThreadedProgram};

/// Maximum vector register width in bytes. The seed capped this at the
/// paper's 2011-era 32 bytes; the vector-length-agnostic target family
/// raises it to the SVE architectural maximum of 2048 bits so one
/// register file serves every target. (The *hint* modulo of the offline
/// stage stays at 32 bytes — `vapor_vectorizer::HINT_MOD` — which any
/// larger runtime alignment subsumes.)
pub const MAX_VS: usize = 256;

/// Slot stride of the register file on machines up to 32 bytes wide:
/// every fixed-width family (NEON64 8, SSE/AltiVec 16, AVX 32) and the
/// two narrowest VLA specializations (128/256 bits).
const NARROW_STRIDE: usize = 32;

/// Bytes per vector-register slot on a `vs`-byte machine — the one place
/// the register file's stride is decided. Narrow machines take
/// 32-byte slots; wider runtime-VL machines take [`MAX_VS`]-byte slots,
/// so a register move on a fixed-width target never copies 2048 bits.
pub fn reg_stride(vs: usize) -> usize {
    if vs > NARROW_STRIDE {
        MAX_VS
    } else {
        NARROW_STRIDE
    }
}

/// Guard zone at the bottom of memory; address 0 is never valid.
pub const GUARD: usize = 64;

/// Execution error (a *trap*): misalignment contract violations,
/// out-of-bounds accesses, type-domain confusion, or fuel exhaustion.
/// Any trap in the test suite indicates a compiler bug.
#[derive(Debug, Clone, PartialEq)]
pub struct Trap(pub String);

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine trap: {}", self.0)
    }
}

impl std::error::Error for Trap {}

impl Trap {
    /// The one constructor of the traps raised while a program runs.
    /// Cold and out of line, so each check on the dispatch path compiles
    /// to a compare and a call the optimizer keeps off the hot path.
    #[cold]
    #[inline(never)]
    pub(crate) fn new(msg: fmt::Arguments<'_>) -> Trap {
        Trap(fmt::format(msg))
    }
}

/// Simulated memory: a bump arena with aligned allocation and padding so
/// floor-aligned vector loads near array ends stay in bounds (the same
/// guarantee a real runtime provides for `lvx`-style realignment).
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    next: usize,
    /// Allocation padding either side of every array (see [`Memory::pad_for`]).
    pad: usize,
}

impl Memory {
    /// Memory with the given capacity in bytes, padded for the widest
    /// (2048-bit) registers — the conservative default for callers that
    /// build a `Memory` without naming a target.
    pub fn new(capacity: usize) -> Memory {
        Memory::for_width(capacity, MAX_VS)
    }

    /// Memory whose allocation padding is sized for a machine with
    /// `vs`-byte vector registers, so a fixed-width target's image does
    /// not carry 2048-bit guard zones.
    pub fn for_width(capacity: usize, vs: usize) -> Memory {
        let pad = Memory::pad_for(vs);
        Memory {
            bytes: vec![0; capacity.max(GUARD + pad)],
            next: GUARD,
            pad,
        }
    }

    /// [`Memory::for_width`], but reusing `buf`'s backing allocation
    /// instead of allocating a fresh image. The buffer is zeroed over
    /// the required capacity (a memset over a warm allocation, not a
    /// fresh `malloc`) — the pooled-execution path of a service that
    /// must not allocate per request.
    pub fn recycled(mut buf: Vec<u8>, capacity: usize, vs: usize) -> Memory {
        let pad = Memory::pad_for(vs);
        buf.clear();
        buf.resize(capacity.max(GUARD + pad), 0);
        Memory {
            bytes: buf,
            next: GUARD,
            pad,
        }
    }

    /// Surrender the backing allocation for reuse (see
    /// [`Memory::recycled`]). The returned buffer's contents are
    /// unspecified; only its capacity is meant to be reused.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Padding required either side of an array on a machine with
    /// `vs`-byte registers: floor-aligned realignment loads read up to
    /// one register *past* the floored window (`lvx a, lvx a+VS`), so
    /// two registers of slack keep them in bounds; the 16-byte floor
    /// covers sub-vector machines.
    pub fn pad_for(vs: usize) -> usize {
        (2 * vs).max(16)
    }

    /// The allocation padding either side of every array.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Allocate `size` bytes aligned to `align` (power of two), plus
    /// [`Memory::pad`] bytes of padding on both sides. Returns the base
    /// address.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two or memory is exhausted.
    pub fn alloc(&mut self, size: usize, align: usize) -> u64 {
        self.alloc_with_misalignment(size, align, 0)
    }

    /// Allocate with a deliberate misalignment of `mis` bytes past an
    /// `align` boundary — used by experiments that deny the runtime the
    /// ability to align arrays.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two or memory is exhausted.
    pub fn alloc_with_misalignment(&mut self, size: usize, align: usize, mis: usize) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = (self.next + self.pad + align - 1) & !(align - 1);
        let base = start + mis;
        let end = base + size + self.pad;
        assert!(end <= self.bytes.len(), "simulated memory exhausted");
        self.next = end;
        base as u64
    }

    /// Raw view of a byte range.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn slice(&self, addr: u64, len: usize) -> &[u8] {
        &self.bytes[addr as usize..addr as usize + len]
    }

    /// Mutable raw view of a byte range.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn slice_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        &mut self.bytes[addr as usize..addr as usize + len]
    }

    /// Read a typed element.
    pub fn read(&self, ty: ScalarTy, addr: u64) -> Value {
        read_elem(ty, &self.bytes, addr as usize)
    }

    /// Write a typed element.
    pub fn write(&mut self, ty: ScalarTy, addr: u64, v: Value) {
        write_elem(ty, &mut self.bytes, addr as usize, v);
    }

    #[inline]
    fn check(&self, addr: u64, size: usize) -> Result<(), Trap> {
        let a = addr as usize;
        if a < GUARD || a + size > self.bytes.len() {
            return Err(Trap::new(format_args!(
                "access of {size} bytes at {addr} out of bounds"
            )));
        }
        Ok(())
    }
}

/// Statistics of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecStats {
    /// Modeled cycles (the quantity the figures report).
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub insts: u64,
}

/// The vector register file: one contiguous byte buffer of fixed-stride
/// slots ([`reg_stride`]), read and written in place by every dispatch
/// loop. Register `vN` is slot `N`. A write past the end grows the file
/// (new slots are zero); a read past it traps.
///
/// Every write defines the whole slot: bytes past the lanes an op writes
/// are zero, except that a merging-predicated op keeps the destination's
/// inactive lanes.
#[derive(Debug)]
struct VRegs {
    bytes: Vec<u8>,
    stride: usize,
    /// Scratch slot for a destination that aliases an operand.
    scratch: [u8; MAX_VS],
}

impl VRegs {
    fn new(vs: usize) -> VRegs {
        VRegs {
            bytes: Vec::new(),
            stride: reg_stride(vs),
            scratch: [0; MAX_VS],
        }
    }

    /// Register `r`'s slot, or the undefined-register trap.
    #[inline]
    fn get(&self, r: VReg) -> Result<&[u8], Trap> {
        let o = r.0 as usize * self.stride;
        match self.bytes.get(o..o + self.stride) {
            Some(slot) => Ok(slot),
            None => Err(Trap::new(format_args!(
                "read of undefined vector register v{}",
                r.0
            ))),
        }
    }

    /// Grow the file to at least `n` registers.
    fn grow_to(&mut self, n: usize) {
        if self.bytes.len() < n * self.stride {
            self.bytes.resize(n * self.stride, 0);
        }
    }

    /// Register `r`'s slot for writing, growing the file to hold it.
    #[inline]
    fn slot_mut(&mut self, r: VReg) -> &mut [u8] {
        self.grow_to(r.0 as usize + 1);
        let o = r.0 as usize * self.stride;
        &mut self.bytes[o..o + self.stride]
    }

    /// Overwrite register `r` with the first stride bytes of `lanes`.
    fn set(&mut self, r: VReg, lanes: &Lanes) {
        let s = self.stride;
        self.slot_mut(r).copy_from_slice(&lanes[..s]);
    }

    /// `dst = src`, the whole slot.
    fn mov(&mut self, dst: VReg, src: VReg) -> Result<(), Trap> {
        self.get(src)?;
        self.grow_to(dst.0 as usize + 1);
        let (s, o) = (self.stride, src.0 as usize * self.stride);
        self.bytes.copy_within(o..o + s, dst.0 as usize * s);
        Ok(())
    }

    /// Write `dst` in place with `f` over the operand slots `srcs`. The
    /// output starts as the destination's contents when `merge`, else
    /// zeroed. An operand past the file traps before anything is
    /// written. A destination that aliases an operand is computed in the
    /// scratch slot and copied back, so every operand reads its value
    /// from before the write.
    #[inline]
    fn write<const N: usize>(
        &mut self,
        dst: VReg,
        srcs: [VReg; N],
        merge: bool,
        f: impl FnOnce([&[u8]; N], &mut [u8]),
    ) -> Result<(), Trap> {
        for r in srcs {
            self.get(r)?;
        }
        self.grow_to(dst.0 as usize + 1);
        let s = self.stride;
        let d = dst.0 as usize * s;
        if srcs.contains(&dst) {
            let (bytes, tmp) = (&mut self.bytes, &mut self.scratch[..s]);
            if merge {
                tmp.copy_from_slice(&bytes[d..d + s]);
            } else {
                tmp.fill(0);
            }
            f(srcs.map(|r| &bytes[r.0 as usize * s..][..s]), tmp);
            bytes[d..d + s].copy_from_slice(tmp);
        } else {
            // One exclusive slot and shared views of every other slot
            // (operands may alias each other).
            let (lo, rest) = self.bytes.split_at_mut(d);
            let (out, hi) = rest.split_at_mut(s);
            if !merge {
                out.fill(0);
            }
            f(
                srcs.map(|r| {
                    let o = r.0 as usize * s;
                    if o < d {
                        &lo[o..o + s]
                    } else {
                        &hi[o - d - s..o - d]
                    }
                }),
                out,
            );
        }
        Ok(())
    }
}

/// Lanes built by a generic `exec_op` arm before they are written back
/// into the destination's slot.
type Lanes = [u8; MAX_VS];

/// The virtual machine.
#[derive(Debug)]
pub struct Machine<'t> {
    target: &'t TargetDesc,
    /// Memory image (arrays live here).
    pub mem: Memory,
    sregs: Vec<Value>,
    vregs: VRegs,
    slots: Vec<Value>,
    /// Active vector length in *bytes* for the predicated `...Vl`
    /// instructions, latched by [`MInst::SetVl`]. Starts at the full
    /// register width (all lanes active).
    vl_bytes: usize,
    /// Lanes of a full register per element size in bytes (indices 1,
    /// 2, 4 and 8), filled once per machine: every step reads its lane
    /// count here, so no decoded step carries one. `u16` holds the
    /// largest count (256 lanes): a `usize` table ran the decoded loop
    /// 2–3 % slower (2-CPU x86-64 host, interleaved runs).
    lanes: [u16; 9],
    /// Instruction budget; a trap fires when exhausted (runaway guard).
    pub fuel: u64,
}

impl<'t> Machine<'t> {
    /// A machine for `target` with `mem_capacity` bytes of memory.
    pub fn new(target: &'t TargetDesc, mem_capacity: usize) -> Machine<'t> {
        Machine::with_memory(target, Memory::for_width(mem_capacity, target.vs.max(1)))
    }

    /// A machine for `target` over an already-built memory image —
    /// typically one recycled from a previous execution through
    /// [`Memory::recycled`], so a service's steady-state executions
    /// reuse one arena instead of allocating megabytes per request.
    pub fn with_memory(target: &'t TargetDesc, mem: Memory) -> Machine<'t> {
        let vl_bytes = target.vs.max(1);
        let mut lanes = [0; 9];
        for size in [1, 2, 4, 8] {
            lanes[size] = (vl_bytes / size).max(1) as u16;
        }
        Machine {
            target,
            mem,
            sregs: Vec::new(),
            vregs: VRegs::new(vl_bytes),
            slots: Vec::new(),
            vl_bytes,
            lanes,
            fuel: 2_000_000_000,
        }
    }

    /// Tear the machine down, surrendering the memory arena's backing
    /// allocation for reuse by a later [`Machine::with_memory`] +
    /// [`Memory::recycled`] pair.
    pub fn into_arena(self) -> Vec<u8> {
        self.mem.into_bytes()
    }

    /// Set a scalar register (to pass arguments / array base addresses).
    pub fn set_sreg(&mut self, r: SReg, v: Value) {
        if self.sregs.len() <= r.0 as usize {
            self.sregs.resize(r.0 as usize + 1, Value::Int(0));
        }
        self.sregs[r.0 as usize] = v;
    }

    /// Read a scalar register after execution.
    pub fn sreg(&self, r: SReg) -> Value {
        self.sregs
            .get(r.0 as usize)
            .copied()
            .unwrap_or(Value::Int(0))
    }

    fn vs(&self) -> usize {
        self.target.vs.max(1)
    }

    /// Lanes of `ty` in a full register.
    #[inline]
    fn lanes(&self, ty: ScalarTy) -> usize {
        usize::from(self.lanes[ty.size()])
    }

    /// Active lane count of `ty` under the current vector length (set by
    /// [`MInst::SetVl`]; defaults to all lanes). Element sizes are
    /// powers of two, so the division is a shift.
    #[inline]
    fn vl_lanes(&self, ty: ScalarTy) -> usize {
        (self.vl_bytes >> ty.size().trailing_zeros()).min(self.lanes(ty))
    }

    /// The width check every pre-decoded dispatch loop runs first: a
    /// program runs only on the machines of its [`Width`].
    fn check_width(&self, what: &str, width: Width) -> Result<(), Trap> {
        if width == Width::of(self.target) {
            return Ok(());
        }
        Err(Trap(format!(
            "program {what} for {width} executed on a VS={} machine",
            self.vs()
        )))
    }

    /// The width-dependent cycles of a generic step at this machine's
    /// lane counts, which its pre-decoded cost leaves out.
    #[inline]
    fn op_vl_cost(&self, inst: &MInst) -> u64 {
        self.target.cost.vl_cost(inst, |ty| self.lanes(ty))
    }

    /// Byte bound for explicit lane accesses ([`MInst::SetLane`] /
    /// [`MInst::GetLane`]): the target's register width, floored at one
    /// element so sub-vector machines keep single-lane access. Never the
    /// slot stride: a 32-byte slot is wider than a 16-byte target's
    /// lanes.
    fn lane_limit(&self, ty: ScalarTy) -> usize {
        self.vs().max(ty.size())
    }

    #[inline]
    fn sval(&self, r: SReg) -> Result<Value, Trap> {
        match self.sregs.get(r.0 as usize) {
            Some(v) => Ok(*v),
            None => Err(undefined_sreg(r)),
        }
    }

    /// Scalar register `r` as an integer. Matches the register in place,
    /// so the hot path builds no intermediate `Result<Value, Trap>`.
    #[inline]
    fn sint(&self, r: SReg) -> Result<i64, Trap> {
        match self.sregs.get(r.0 as usize) {
            Some(Value::Int(v)) => Ok(*v),
            Some(Value::Float(v)) => Err(Trap::new(format_args!(
                "r{} holds float {v}, expected int",
                r.0
            ))),
            None => Err(undefined_sreg(r)),
        }
    }

    /// [`Machine::addr`] over the flattened address fields of the fast
    /// memory steps (same semantics, no `AddrMode` indirection).
    fn fast_addr(&self, base: SReg, idx: u32, scale: u8, disp: i32) -> Result<u64, Trap> {
        let mut a = self.sint(base)?;
        if idx != crate::decode::NO_INDEX {
            a = a.wrapping_add(self.sint(SReg(idx))?.wrapping_mul(scale as i64));
        }
        a = a.wrapping_add(disp as i64);
        if a < 0 {
            return Err(Trap::new(format_args!("negative address {a}")));
        }
        Ok(a as u64)
    }

    fn addr(&self, m: &AddrMode) -> Result<u64, Trap> {
        let mut a = self.sint(m.base)?;
        if let Some(idx) = m.idx {
            a = a.wrapping_add(self.sint(idx)?.wrapping_mul(m.scale as i64));
        }
        a = a.wrapping_add(m.disp);
        if a < 0 {
            return Err(Trap::new(format_args!("negative address {a}")));
        }
        Ok(a as u64)
    }

    /// Borrowed register contents (the undefined-register trap past the
    /// file).
    fn vbytes(&self, r: VReg) -> Result<&[u8], Trap> {
        self.vregs.get(r)
    }

    fn set_sreg_checked(&mut self, r: SReg, ty: ScalarTy, v: Value) {
        // Canonicalize domain per type to keep register file consistent.
        self.set_sreg(r, v.coerce(ty));
    }

    fn with_lanes(
        &self,
        ty: ScalarTy,
        n: usize,
        mut f: impl FnMut(usize) -> Result<Value, Trap>,
    ) -> Result<Lanes, Trap> {
        let mut out = [0; MAX_VS];
        for k in 0..n {
            let v = f(k)?;
            write_elem(ty, &mut out, k * ty.size(), v);
        }
        Ok(out)
    }

    /// The one fuel check shared by every dispatch tier: pre-charge
    /// validation that executing `arity` more instructions stays within
    /// the budget. The seed loop charges per instruction (`arity` 1),
    /// the decoded loop per basic block and the threaded loop per
    /// straight-line region (each the sum of its instructions) — all
    /// with identical trap message and boundary semantics
    /// (`insts + arity > fuel` traps *before* executing any of the
    /// charged instructions).
    #[inline]
    fn charge_fuel(&self, insts: u64, arity: u64) -> Result<(), Trap> {
        if insts + arity > self.fuel {
            return Err(Trap::new(format_args!(
                "fuel exhausted after {insts} instructions"
            )));
        }
        Ok(())
    }

    /// Execute `code` from its first instruction until it falls off the
    /// end, re-deriving branch targets and instruction costs every step.
    /// Returns modeled cycles and instruction counts.
    ///
    /// This is the seed dispatch loop, kept as the baseline the decoded
    /// path ([`Machine::run_decoded`]) is benchmarked against; production
    /// callers go through the decoded form. Note one accounting nuance:
    /// this loop counts [`MInst::Label`] markers in `insts` (at zero
    /// cycles), while the decoded program strips them.
    ///
    /// # Errors
    /// Returns a [`Trap`] on contract violations (see type docs).
    pub fn run(&mut self, code: &MCode) -> Result<ExecStats, Trap> {
        let labels = code.label_map();
        let mut pc = 0usize;
        let mut stats = ExecStats::default();
        let cost = &self.target.cost;

        while pc < code.insts.len() {
            self.charge_fuel(stats.insts, 1)?;
            let inst = &code.insts[pc];
            let mut next = pc + 1;

            match inst {
                MInst::Label(_) => {}
                MInst::Jump(l) => {
                    next = *labels
                        .get(l)
                        .ok_or_else(|| Trap(format!("undefined label {l}")))?;
                }
                MInst::Branch { cond, a, b, target } => {
                    let (x, y) = (self.sint(*a)?, self.sint(*b)?);
                    if take(*cond, x, y) {
                        next = *labels
                            .get(target)
                            .ok_or_else(|| Trap(format!("undefined label {target}")))?;
                    }
                }
                MInst::BranchImm {
                    cond,
                    a,
                    imm,
                    target,
                } => {
                    let x = self.sint(*a)?;
                    if take(*cond, x, *imm) {
                        next = *labels
                            .get(target)
                            .ok_or_else(|| Trap(format!("undefined label {target}")))?;
                    }
                }
                other => self.exec_op(other)?,
            }

            stats.insts += 1;
            stats.cycles += cost.cost(inst, self.vs());
            pc = next;
        }
        Ok(stats)
    }

    /// Execute a pre-decoded program (see [`DecodedProgram`]): branch
    /// targets are instruction indices, per-instruction costs are table
    /// lookups and lane counts come from the machine's lane table, so
    /// the hot loop does no metadata derivation. Reductions and helper
    /// calls add the width-dependent part of their cost as they run, so
    /// one decode of a VLA program runs at every VL of its family.
    ///
    /// Fuel, `insts` and the width-independent `cycles` are charged once
    /// per basic block of the program, at its entry, and control
    /// transfers only from a block's last step. A block whose charge
    /// would cross the budget traps at its entry without executing any
    /// of its steps, so no instruction runs that the budget does not
    /// cover (the region contract of [`Machine::run_threaded`];
    /// [`Machine::run`] charges per instruction and may run the leading
    /// part of that block before its own trap). Non-trapping executions
    /// are bit-identical to the per-instruction loop, fused or not.
    ///
    /// # Errors
    /// Returns a [`Trap`] on contract violations, or if the machine is
    /// not one of the program's [`Width`].
    pub fn run_decoded(&mut self, prog: &DecodedProgram) -> Result<ExecStats, Trap> {
        self.check_width("decoded", prog.width)?;
        let (steps, blocks) = (prog.steps(), prog.blocks());
        // The block a branch to step `t` enters (`t` one past the last
        // step ends the run).
        let block_at = |t: u32| {
            steps
                .get(t as usize)
                .map_or(blocks.len(), |d| d.block as usize)
        };
        let mut stats = ExecStats::default();

        let mut bi = 0usize;
        while let Some(block) = blocks.get(bi) {
            self.charge_fuel(stats.insts, u64::from(block.arity))?;
            stats.insts += u64::from(block.arity);
            stats.cycles += block.cost;
            let end = blocks.get(bi + 1).map_or(steps.len(), |n| n.first as usize);
            // Control transfers only from the block's last step, so the
            // whole charged block runs unless a step traps.
            let mut next = bi + 1;
            for d in &steps[block.first as usize..end] {
                match &d.step {
                    DStep::Jump { target } => next = block_at(*target),
                    DStep::Branch { cond, a, b, target } => {
                        let (x, y) = (self.sint(*a)?, self.sint(*b)?);
                        if take(*cond, x, y) {
                            next = block_at(*target);
                        }
                    }
                    DStep::BranchImm {
                        cond,
                        a,
                        imm,
                        target,
                    } => {
                        let x = self.sint(*a)?;
                        if take(*cond, x, *imm) {
                            next = block_at(*target);
                        }
                    }
                    DStep::SBinFast {
                        dst,
                        a,
                        b,
                        f,
                        op,
                        ty,
                        rty,
                    } => {
                        if !self.sbin_native(*op, *ty, *dst, *a, *b) {
                            let x = self.sval(*a)?.coerce(*ty);
                            let y = self.sval(*b)?.coerce(*ty);
                            let r = f(x, y);
                            self.set_sreg_checked(*dst, *rty, r);
                        }
                    }
                    DStep::SBinImmFast {
                        dst,
                        a,
                        imm,
                        f,
                        op,
                        ty,
                        rty,
                    } => {
                        if !self.sbin_imm_native(*op, *ty, *dst, *a, *imm) {
                            self.exec_sbin_imm(*dst, *a, *imm, *f, *ty, *rty)?;
                        }
                    }
                    DStep::MovSFast { dst, src } => {
                        let v = self.sval(*src)?;
                        self.set_sreg(*dst, v);
                    }
                    DStep::LoadVFast {
                        dst,
                        base,
                        idx,
                        scale,
                        aligned,
                        disp,
                    } => {
                        let a = self.fast_addr(*base, *idx, *scale, *disp)?;
                        self.load_v_at(*dst, a, *aligned)?;
                    }
                    DStep::StoreVFast {
                        src,
                        base,
                        idx,
                        scale,
                        aligned,
                        disp,
                    } => {
                        let a = self.fast_addr(*base, *idx, *scale, *disp)?;
                        self.store_v_at(*src, a, *aligned)?;
                    }
                    DStep::LoadSFast {
                        ty,
                        dst,
                        base,
                        idx,
                        scale,
                        disp,
                    } => {
                        let a = self.fast_addr(*base, *idx, *scale, *disp)?;
                        self.mem.check(a, ty.size())?;
                        let v = self.mem.read(*ty, a);
                        self.set_sreg(*dst, v);
                    }
                    DStep::StoreSFast {
                        ty,
                        src,
                        base,
                        idx,
                        scale,
                        disp,
                    } => {
                        let a = self.fast_addr(*base, *idx, *scale, *disp)?;
                        self.mem.check(a, ty.size())?;
                        let v = self.sval(*src)?.coerce(*ty);
                        self.mem.write(*ty, a, v);
                    }
                    DStep::VBinFast {
                        dst, a, b, f, ty, ..
                    } => self.vbin(*dst, *a, *b, *f, *ty)?,
                    DStep::VUnFast { dst, a, f, ty, .. } => self.vun(*dst, *a, *f, *ty)?,
                    DStep::VBinVlFast {
                        dst, a, b, f, ty, ..
                    } => self.vbin_vl(*dst, *a, *b, *f, *ty)?,
                    DStep::VUnVlFast { dst, a, f, ty, .. } => self.vun_vl(*dst, *a, *f, *ty)?,
                    DStep::SplatFast { dst, src, f, ty } => self.splat(*dst, *src, *f, *ty)?,
                    DStep::VShiftImmFast {
                        dst, a, f, imm, ty, ..
                    } => self.vshift(*dst, *a, *f, i64::from(*imm), *ty)?,
                    DStep::VShiftRegFast {
                        dst, a, f, amt, ty, ..
                    } => {
                        let amt = self.sint(*amt)?;
                        self.vshift(*dst, *a, *f, amt, *ty)?;
                    }
                    DStep::SpillLdFast { dst, slot } => {
                        let v = match self.slots.get(*slot as usize) {
                            Some(v) => *v,
                            None => {
                                return Err(Trap::new(format_args!(
                                    "reload of unwritten slot {slot}"
                                )))
                            }
                        };
                        self.set_sreg(*dst, v);
                    }
                    DStep::SpillStFast { src, slot } => {
                        let v = self.sval(*src)?;
                        if self.slots.len() <= *slot as usize {
                            self.slots.resize(*slot as usize + 1, Value::Int(0));
                        }
                        self.slots[*slot as usize] = v;
                    }
                    DStep::VReduceFast {
                        dst, src, f, ty, ..
                    } => {
                        let n = self.lanes(*ty);
                        let v = f(self.vbytes(*src)?, n);
                        self.set_sreg_checked(*dst, *ty, v);
                        stats.cycles += self.target.cost.reduce_vl_cost(n);
                    }
                    // Superinstructions: the constituents execute in order,
                    // every register write included, so machine state is
                    // bit-identical to the unfused sequence — only the
                    // per-step dispatch overhead is paid once.
                    DStep::FusedLoadBinStore(p) => {
                        self.load_v_at(p.load_dst, self.fused_addr(&p.load)?, p.load.aligned)?;
                        self.vbin(p.dst, p.a, p.b, p.f, p.ty)?;
                        self.store_v_at(p.dst, self.fused_addr(&p.store)?, p.store.aligned)?;
                    }
                    DStep::FusedLoadBinBin(p) => {
                        self.load_v_at(p.load_dst, self.fused_addr(&p.load)?, p.load.aligned)?;
                        self.vbin(p.dst1, p.a1, p.b1, p.f1, p.ty1)?;
                        self.vbin(p.dst2, p.a2, p.b2, p.f2, p.ty2)?;
                    }
                    DStep::FusedLoadBin(p) => {
                        self.load_v_at(p.load_dst, self.fused_addr(&p.load)?, p.load.aligned)?;
                        self.vbin(p.dst, p.a, p.b, p.f, p.ty)?;
                    }
                    DStep::FusedBinStore(p) => {
                        self.vbin(p.dst, p.a, p.b, p.f, p.ty)?;
                        self.store_v_at(p.dst, self.fused_addr(&p.store)?, p.store.aligned)?;
                    }
                    DStep::FusedLoadBinStoreVl(p) => {
                        self.load_vl_at(p.load_ty, p.load_dst, self.fused_addr(&p.load)?)?;
                        self.vbin_vl(p.dst, p.a, p.b, p.f, p.ty)?;
                        self.store_vl_at(p.store_ty, p.dst, self.fused_addr(&p.store)?)?;
                    }
                    DStep::FusedLatch(p) => {
                        if !self.sbin_imm_native(p.op, p.ty, p.dst, p.a, p.imm) {
                            self.exec_sbin_imm(p.dst, p.a, p.imm, p.f, p.ty, p.rty)?;
                        }
                        let x = self.sint(p.br_a)?;
                        let y = if p.br_reg == crate::decode::NO_INDEX {
                            p.br_imm
                        } else {
                            self.sint(SReg(p.br_reg))?
                        };
                        if take(p.cond, x, y) {
                            next = block_at(p.target);
                        }
                    }
                    // Generic ops hot enough to skip `exec_op`'s dispatch.
                    // Each runs the helper `exec_op`'s arm runs, and none has
                    // a width-dependent cost.
                    DStep::Op(MInst::MovImmI { dst, imm }) => self.set_sreg(*dst, Value::Int(*imm)),
                    DStep::Op(MInst::MovImmF { dst, imm }) => {
                        self.set_sreg(*dst, Value::Float(*imm))
                    }
                    DStep::Op(MInst::MovV { dst, src }) => self.vregs.mov(*dst, *src)?,
                    DStep::Op(MInst::SetVl { ty, dst, avl }) => self.set_vl(*ty, *dst, *avl)?,
                    DStep::Op(MInst::LoadVl { ty, dst, addr }) => {
                        self.load_vl_at(*ty, *dst, self.addr(addr)?)?
                    }
                    DStep::Op(MInst::StoreVl { ty, src, addr }) => {
                        self.store_vl_at(*ty, *src, self.addr(addr)?)?
                    }
                    DStep::Op(inst) => {
                        self.exec_op(inst)?;
                        stats.cycles += self.op_vl_cost(inst);
                    }
                }
            }
            bi = next;
        }
        Ok(stats)
    }

    /// Execute a closure-threaded program (see [`ThreadedProgram`]):
    /// fuel and statistics are charged once per straight-line region
    /// with the region's pre-summed width-independent cost (reductions
    /// and helper calls add the rest as they run), and affine loop addresses
    /// stride precomputed cursors instead of being recomputed per access.
    /// Vector steps run the register-file helpers of
    /// [`Machine::run_decoded`]. For every non-trapping execution the
    /// observable results — memory, scalar and vector registers, spill
    /// slots, `cycles` and `insts` — are bit-identical to
    /// [`Machine::run_decoded`] on the source decoded program.
    ///
    /// Two documented boundary differences, both confined to *trapping*
    /// executions: fuel traps fire at region granularity (the
    /// regionized analogue of the fused-step contract — a region whose
    /// constituents would cross the budget traps at the region boundary
    /// without executing any of them), and a read of a never-written
    /// vector register reads zeros instead of trapping (the register
    /// file is grown at entry to every register the program names;
    /// compiled programs never read uninitialized registers — the
    /// decoded oracle would trap and the differential suite would catch
    /// it). Bounds and alignment checks remain per access and trap with
    /// the decoded messages.
    ///
    /// # Errors
    /// Returns a [`Trap`] on contract violations, or if the machine is
    /// not one of the program's [`Width`].
    pub fn run_threaded(&mut self, prog: &ThreadedProgram) -> Result<ExecStats, Trap> {
        self.check_width("threaded", prog.width)?;
        self.vregs.grow_to(prog.n_vregs());
        let steps = prog.steps();
        let regions = prog.regions();
        let mut stats = ExecStats::default();
        let mut st = TCtx {
            defs: prog.streams(),
            cursors: vec![0; prog.streams().len()],
            valid: vec![false; prog.streams().len()],
        };

        let mut r = 0usize;
        while let Some(reg) = regions.get(r) {
            self.charge_fuel(stats.insts, reg.arity)?;
            stats.insts += reg.arity;
            stats.cycles += reg.cost;
            // Control transfers only from a region's last step, so the
            // whole charged region executes unless a step traps.
            let mut next = r + 1;
            for step in &steps[reg.first as usize..(reg.first + reg.n) as usize] {
                match step {
                    TStep::Jump { target } => next = *target as usize,
                    TStep::Branch { cond, a, b, target } => {
                        let (x, y) = (self.sint(*a)?, self.sint(*b)?);
                        if take(*cond, x, y) {
                            next = *target as usize;
                        }
                    }
                    TStep::BranchImm {
                        cond,
                        a,
                        imm,
                        target,
                    } => {
                        let x = self.sint(*a)?;
                        if take(*cond, x, *imm) {
                            next = *target as usize;
                        }
                    }
                    TStep::InitStreams { first, n } => {
                        for s in *first as usize..(*first + *n) as usize {
                            st.valid[s] = match self.stream_base(&st.defs[s]) {
                                Some(c) => {
                                    st.cursors[s] = c;
                                    true
                                }
                                // Base registers not readable as ints:
                                // the use sites fall back to the
                                // per-access computation, which traps
                                // exactly like the decoded tier.
                                None => false,
                            };
                        }
                    }
                    TStep::VBin {
                        dst, a, b, f, ty, ..
                    } => self.vbin(*dst, *a, *b, *f, *ty)?,
                    TStep::VUn { dst, a, f, ty, .. } => self.vun(*dst, *a, *f, *ty)?,
                    TStep::MovV { dst, src } => self.vregs.mov(*dst, *src)?,
                    TStep::VBinVl {
                        dst, a, b, f, ty, ..
                    } => self.vbin_vl(*dst, *a, *b, *f, *ty)?,
                    TStep::VUnVl { dst, a, f, ty, .. } => self.vun_vl(*dst, *a, *f, *ty)?,
                    TStep::LoadV { dst, aligned, addr } => {
                        self.load_v_at(*dst, self.t_addr(addr, &st)?, *aligned)?
                    }
                    TStep::StoreV { src, aligned, addr } => {
                        self.store_v_at(*src, self.t_addr(addr, &st)?, *aligned)?
                    }
                    TStep::LoadS { ty, dst, addr } => {
                        let a = self.t_addr(addr, &st)?;
                        self.mem.check(a, ty.size())?;
                        let v = self.mem.read(*ty, a);
                        self.set_sreg(*dst, v);
                    }
                    TStep::StoreS { ty, src, addr } => {
                        let a = self.t_addr(addr, &st)?;
                        self.mem.check(a, ty.size())?;
                        let v = self.sval(*src)?.coerce(*ty);
                        self.mem.write(*ty, a, v);
                    }
                    TStep::LoadVl { ty, dst, addr } => {
                        self.load_vl_at(*ty, *dst, self.t_addr(addr, &st)?)?
                    }
                    TStep::StoreVl { ty, src, addr } => {
                        self.store_vl_at(*ty, *src, self.t_addr(addr, &st)?)?
                    }
                    TStep::SBin {
                        dst,
                        a,
                        b,
                        f,
                        ty,
                        rty,
                    } => {
                        let x = self.sval(*a)?.coerce(*ty);
                        let y = self.sval(*b)?.coerce(*ty);
                        self.set_sreg_checked(*dst, *rty, f(x, y));
                    }
                    TStep::SBinImm {
                        dst,
                        a,
                        imm,
                        f,
                        ty,
                        rty,
                    } => self.exec_sbin_imm(*dst, *a, *imm, *f, *ty, *rty)?,
                    TStep::SBin2(p) => {
                        let x = self.sval(p.a1)?.coerce(p.ty1);
                        let y = self.sval(p.b1)?.coerce(p.ty1);
                        self.set_sreg_checked(p.dst1, p.rty1, (p.f1)(x, y));
                        let x = self.sval(p.a2)?.coerce(p.ty2);
                        let y = self.sval(p.b2)?.coerce(p.ty2);
                        self.set_sreg_checked(p.dst2, p.rty2, (p.f2)(x, y));
                    }
                    TStep::MovS { dst, src } => {
                        let v = self.sval(*src)?;
                        self.set_sreg(*dst, v);
                    }
                    TStep::MovImm { dst, v } => self.set_sreg(*dst, *v),
                    TStep::Splat { dst, src, f, ty } => self.splat(*dst, *src, *f, *ty)?,
                    TStep::VShiftImm {
                        dst, a, f, imm, ty, ..
                    } => self.vshift(*dst, *a, *f, i64::from(*imm), *ty)?,
                    TStep::VShiftReg {
                        dst, a, f, amt, ty, ..
                    } => {
                        let amt = self.sint(*amt)?;
                        self.vshift(*dst, *a, *f, amt, *ty)?;
                    }
                    TStep::SpillLd { dst, slot } => {
                        let v = self
                            .slots
                            .get(*slot as usize)
                            .copied()
                            .ok_or_else(|| Trap(format!("reload of unwritten slot {slot}")))?;
                        self.set_sreg(*dst, v);
                    }
                    TStep::SpillSt { src, slot } => {
                        let v = self.sval(*src)?;
                        if self.slots.len() <= *slot as usize {
                            self.slots.resize(*slot as usize + 1, Value::Int(0));
                        }
                        self.slots[*slot as usize] = v;
                    }
                    TStep::VReduce {
                        dst, src, f, ty, ..
                    } => {
                        let n = self.lanes(*ty);
                        let v = f(self.vbytes(*src)?, n);
                        self.set_sreg_checked(*dst, *ty, v);
                        stats.cycles += self.target.cost.reduce_vl_cost(n);
                    }
                    // Superinstructions: constituents in order, every
                    // register write included — same contract as the
                    // decoded fused steps.
                    TStep::LoadBinStore(p) => {
                        self.load_v_at(p.load_dst, self.t_addr(&p.load, &st)?, p.load_aligned)?;
                        self.vbin(p.dst, p.a, p.b, p.f, p.ty)?;
                        self.store_v_at(p.dst, self.t_addr(&p.store, &st)?, p.store_aligned)?;
                    }
                    TStep::LoadBinBin(p) => {
                        self.load_v_at(p.load_dst, self.t_addr(&p.load, &st)?, p.load_aligned)?;
                        self.vbin(p.dst1, p.a1, p.b1, p.f1, p.ty1)?;
                        self.vbin(p.dst2, p.a2, p.b2, p.f2, p.ty2)?;
                    }
                    TStep::LoadBin(p) => {
                        self.load_v_at(p.load_dst, self.t_addr(&p.load, &st)?, p.load_aligned)?;
                        self.vbin(p.dst, p.a, p.b, p.f, p.ty)?;
                    }
                    TStep::BinStore(p) => {
                        self.vbin(p.dst, p.a, p.b, p.f, p.ty)?;
                        self.store_v_at(p.dst, self.t_addr(&p.store, &st)?, p.store_aligned)?;
                    }
                    TStep::LoadBinStoreVl(p) => {
                        self.load_vl_at(p.load_ty, p.load_dst, self.t_addr(&p.load, &st)?)?;
                        self.vbin_vl(p.dst, p.a, p.b, p.f, p.ty)?;
                        self.store_vl_at(p.store_ty, p.dst, self.t_addr(&p.store, &st)?)?;
                    }
                    TStep::Latch(p) => {
                        self.exec_sbin_imm(p.dst, p.a, p.imm, p.f, p.ty, p.rty)?;
                        let x = self.sint(p.br_a)?;
                        let y = if p.br_reg == crate::decode::NO_INDEX {
                            p.br_imm
                        } else {
                            self.sint(SReg(p.br_reg))?
                        };
                        if take(p.cond, x, y) {
                            next = p.target as usize;
                            // Backedge taken: stride every live cursor of
                            // this loop by its precomputed delta. Exact
                            // by wrapping i64 arithmetic (see module
                            // docs of `thread`).
                            for s in
                                p.first_stream as usize..(p.first_stream + p.n_streams) as usize
                            {
                                if st.valid[s] {
                                    st.cursors[s] = st.cursors[s].wrapping_add(st.defs[s].delta);
                                }
                            }
                        }
                    }
                    TStep::ScalarOp(inst) | TStep::VectorOp(inst) => {
                        self.exec_op(inst)?;
                        stats.cycles += self.op_vl_cost(inst);
                    }
                }
            }
            r = next;
        }
        Ok(stats)
    }

    /// Affine base of a stream at loop entry, or `None` when a base
    /// register is not readable as an int (undefined or float) — the
    /// non-trapping probe; use sites then fall back to the per-access
    /// address computation and its exact decoded trap.
    fn stream_base(&self, d: &StreamDef) -> Option<i64> {
        let Some(Value::Int(mut a)) = self.sregs.get(d.base.0 as usize).copied() else {
            return None;
        };
        if d.idx != crate::decode::NO_INDEX {
            let Some(Value::Int(i)) = self.sregs.get(d.idx as usize).copied() else {
                return None;
            };
            a = a.wrapping_add(i.wrapping_mul(d.scale as i64));
        }
        Some(a.wrapping_add(d.disp as i64))
    }

    /// Resolve a threaded memory operand: stream cursor when live,
    /// otherwise the flattened per-access computation.
    #[inline]
    fn t_addr(&self, addr: &TAddr, st: &TCtx) -> Result<u64, Trap> {
        match *addr {
            TAddr::Direct {
                base,
                idx,
                scale,
                disp,
            } => self.fast_addr(base, idx, scale, disp),
            TAddr::Stream(s) => {
                let s = s as usize;
                if !st.valid[s] {
                    let d = &st.defs[s];
                    return self.fast_addr(d.base, d.idx, d.scale, d.disp);
                }
                let a = st.cursors[s];
                if a < 0 {
                    return Err(Trap(format!("negative address {a}")));
                }
                Ok(a as u64)
            }
        }
    }

    /// Resolve a fused step's flattened memory operand.
    #[inline]
    fn fused_addr(&self, m: &FusedAddr) -> Result<u64, Trap> {
        self.fast_addr(m.base, m.idx, m.scale, m.disp)
    }

    // The register side of the vector steps, shared by every dispatch
    // loop (each resolves addresses its own way), so the loops agree by
    // construction.

    /// The whole-register vector load at `a`.
    fn load_v_at(&mut self, dst: VReg, a: u64, aligned: bool) -> Result<(), Trap> {
        let vs = self.vs();
        self.mem.check(a, vs)?;
        if aligned && !(a as usize).is_multiple_of(vs) {
            return Err(Trap::new(format_args!(
                "aligned vector load from misaligned address {a} (VS={vs})"
            )));
        }
        let out = self.vregs.slot_mut(dst);
        out[..vs].copy_from_slice(self.mem.slice(a, vs));
        out[vs..].fill(0);
        Ok(())
    }

    /// The whole-register vector store at `a`.
    fn store_v_at(&mut self, src: VReg, a: u64, aligned: bool) -> Result<(), Trap> {
        let vs = self.vs();
        self.mem.check(a, vs)?;
        if aligned && !(a as usize).is_multiple_of(vs) {
            return Err(Trap::new(format_args!(
                "aligned vector store to misaligned address {a} (VS={vs})"
            )));
        }
        let v = self.vregs.get(src)?;
        self.mem.slice_mut(a, vs).copy_from_slice(&v[..vs]);
        Ok(())
    }

    /// The predicated load at `a`: active lanes from memory, inactive
    /// lanes zeroed.
    fn load_vl_at(&mut self, ty: ScalarTy, dst: VReg, a: u64) -> Result<(), Trap> {
        let bytes = self.vl_lanes(ty) * ty.size();
        let src = if bytes > 0 {
            self.mem.check(a, bytes)?;
            self.mem.slice(a, bytes)
        } else {
            &[]
        };
        let out = self.vregs.slot_mut(dst);
        out[..bytes].copy_from_slice(src);
        out[bytes..].fill(0);
        Ok(())
    }

    /// The predicated store at `a`: active lanes only.
    fn store_vl_at(&mut self, ty: ScalarTy, src: VReg, a: u64) -> Result<(), Trap> {
        let bytes = self.vl_lanes(ty) * ty.size();
        if bytes > 0 {
            self.mem.check(a, bytes)?;
            let v = self.vregs.get(src)?;
            self.mem.slice_mut(a, bytes).copy_from_slice(&v[..bytes]);
        }
        Ok(())
    }

    /// `dst = vl = min(avl, lanes of ty)`, latching the active vector
    /// length of the predicated `...Vl` steps.
    fn set_vl(&mut self, ty: ScalarTy, dst: SReg, avl: SReg) -> Result<(), Trap> {
        let vlmax = self.lanes(ty) as i64;
        let vl = self.sint(avl)?.clamp(0, vlmax);
        self.vl_bytes = vl as usize * ty.size();
        self.set_sreg(dst, Value::Int(vl));
        Ok(())
    }

    /// All-lanes specialized vector binary op.
    fn vbin(&mut self, dst: VReg, a: VReg, b: VReg, f: VBinFn, ty: ScalarTy) -> Result<(), Trap> {
        let n = self.lanes(ty);
        self.vregs
            .write(dst, [a, b], false, |[x, y], out| f(x, y, out, n))
    }

    /// Merging-predicated specialized vector binary op: lanes past the
    /// active VL keep the destination's old contents.
    fn vbin_vl(
        &mut self,
        dst: VReg,
        a: VReg,
        b: VReg,
        f: VBinFn,
        ty: ScalarTy,
    ) -> Result<(), Trap> {
        let n = self.vl_lanes(ty);
        self.vregs
            .write(dst, [a, b], true, |[x, y], out| f(x, y, out, n))
    }

    /// All-lanes specialized vector unary op.
    fn vun(&mut self, dst: VReg, a: VReg, f: VUnFn, ty: ScalarTy) -> Result<(), Trap> {
        let n = self.lanes(ty);
        self.vregs.write(dst, [a], false, |[x], out| f(x, out, n))
    }

    /// Merging-predicated specialized vector unary op.
    fn vun_vl(&mut self, dst: VReg, a: VReg, f: VUnFn, ty: ScalarTy) -> Result<(), Trap> {
        let n = self.vl_lanes(ty);
        self.vregs.write(dst, [a], true, |[x], out| f(x, out, n))
    }

    /// Specialized broadcast of scalar register `src`.
    fn splat(&mut self, dst: VReg, src: SReg, f: SplatFn, ty: ScalarTy) -> Result<(), Trap> {
        let v = self.sval(src)?.coerce(ty);
        let n = self.lanes(ty);
        self.vregs.write(dst, [], false, |[], out| f(v, out, n))
    }

    /// Specialized vector shift by `amt`.
    fn vshift(
        &mut self,
        dst: VReg,
        a: VReg,
        f: VShiftFn,
        amt: i64,
        ty: ScalarTy,
    ) -> Result<(), Trap> {
        let n = self.lanes(ty);
        self.vregs
            .write(dst, [a], false, |[x], out| f(x, amt, out, n))
    }

    /// `dst = a op b` evaluated in place by [`native_bin`]. Returns false,
    /// having written nothing, for a pair or operand it does not cover,
    /// an undefined operand, or a destination past the register file;
    /// the caller then takes the generic coerce-and-kernel path (which
    /// traps or resizes the file as before).
    #[inline(always)]
    fn sbin_native(&mut self, op: BinOp, ty: ScalarTy, dst: SReg, a: SReg, b: SReg) -> bool {
        let v = match (self.sregs.get(a.0 as usize), self.sregs.get(b.0 as usize)) {
            (Some(x), Some(y)) => native_bin(op, ty, x, y),
            _ => None,
        };
        self.put_native(dst, v)
    }

    /// `dst = a op #imm` evaluated in place ([`Machine::sbin_native`]'s
    /// contract).
    #[inline(always)]
    fn sbin_imm_native(&mut self, op: BinOp, ty: ScalarTy, dst: SReg, a: SReg, imm: i32) -> bool {
        let y = Value::Int(imm as i64).coerce(ty);
        let v = self
            .sregs
            .get(a.0 as usize)
            .and_then(|x| native_bin(op, ty, x, &y));
        self.put_native(dst, v)
    }

    /// Store a [`native_bin`] result into an existing destination slot.
    #[inline(always)]
    fn put_native(&mut self, dst: SReg, v: Option<Value>) -> bool {
        match (v, self.sregs.get_mut(dst.0 as usize)) {
            (Some(v), Some(slot)) => {
                *slot = v;
                true
            }
            _ => false,
        }
    }

    /// One specialized scalar-immediate ALU op.
    fn exec_sbin_imm(
        &mut self,
        dst: SReg,
        a: SReg,
        imm: i32,
        f: SBinFn,
        ty: ScalarTy,
        rty: ScalarTy,
    ) -> Result<(), Trap> {
        let x = self.sval(a)?.coerce(ty);
        let y = Value::Int(imm as i64).coerce(ty);
        self.set_sreg_checked(dst, rty, f(x, y));
        Ok(())
    }

    /// Execute one non-control instruction (shared by both dispatch
    /// loops, so the two paths agree by construction).
    ///
    /// # Errors
    /// Returns a [`Trap`] on contract violations.
    fn exec_op(&mut self, inst: &MInst) -> Result<(), Trap> {
        let vs = self.vs();
        match inst {
            MInst::Label(_) | MInst::Jump(_) | MInst::Branch { .. } | MInst::BranchImm { .. } => {
                return Err(Trap(format!("control instruction in exec_op: {inst:?}")))
            }
            MInst::MovImmI { dst, imm } => self.set_sreg(*dst, Value::Int(*imm)),
            MInst::MovImmF { dst, imm } => self.set_sreg(*dst, Value::Float(*imm)),
            MInst::MovS { dst, src } => {
                let v = self.sval(*src)?;
                self.set_sreg(*dst, v);
            }
            MInst::SBin { op, ty, dst, a, b } | MInst::FpuBin { op, ty, dst, a, b } => {
                let (x, y) = (self.sval(*a)?.coerce(*ty), self.sval(*b)?.coerce(*ty));
                let r = eval_bin(*op, *ty, x, y);
                let rty = if op.is_comparison() {
                    ScalarTy::I32
                } else {
                    *ty
                };
                self.set_sreg_checked(*dst, rty, r);
            }
            MInst::SBinImm {
                op,
                ty,
                dst,
                a,
                imm,
            } => {
                let x = self.sval(*a)?.coerce(*ty);
                let y = Value::Int(*imm).coerce(*ty);
                let r = eval_bin(*op, *ty, x, y);
                let rty = if op.is_comparison() {
                    ScalarTy::I32
                } else {
                    *ty
                };
                self.set_sreg_checked(*dst, rty, r);
            }
            MInst::SUn { op, ty, dst, a } => {
                let x = self.sval(*a)?.coerce(*ty);
                let r = eval_un(*op, *ty, x);
                self.set_sreg_checked(*dst, *ty, r);
            }
            MInst::SCvt { from, to, dst, a } => {
                let x = self.sval(*a)?.coerce(*from);
                let r = eval_cast(*from, *to, x);
                self.set_sreg_checked(*dst, *to, r);
            }
            MInst::LoadS { ty, dst, addr } => {
                let a = self.addr(addr)?;
                self.mem.check(a, ty.size())?;
                let v = self.mem.read(*ty, a);
                self.set_sreg(*dst, v);
            }
            MInst::StoreS { ty, src, addr } => {
                let a = self.addr(addr)?;
                self.mem.check(a, ty.size())?;
                let v = self.sval(*src)?.coerce(*ty);
                self.mem.write(*ty, a, v);
            }
            MInst::LoadV { dst, addr, align } => {
                let a = self.addr(addr)?;
                self.load_v_at(*dst, a, *align == MemAlign::Aligned)?;
            }
            MInst::LoadVFloor { dst, addr } => {
                let a = self.addr(addr)? & !(vs as u64 - 1);
                self.load_v_at(*dst, a, false)?;
            }
            MInst::StoreV { src, addr, align } => {
                let a = self.addr(addr)?;
                self.store_v_at(*src, a, *align == MemAlign::Aligned)?;
            }
            MInst::Splat { ty, dst, src } => {
                let v = self.sval(*src)?.coerce(*ty);
                let n = self.lanes(*ty);
                let out = self.with_lanes(*ty, n, |_| Ok(v))?;
                self.vregs.set(*dst, &out);
            }
            MInst::Iota {
                ty,
                dst,
                start,
                inc,
            } => {
                let s = self.sval(*start)?.coerce(*ty);
                let i = self.sval(*inc)?.coerce(*ty);
                let n = self.lanes(*ty);
                let out = self.with_lanes(*ty, n, |k| {
                    let mut v = s;
                    for _ in 0..k {
                        v = eval_bin(BinOp::Add, *ty, v, i);
                    }
                    Ok(v)
                })?;
                self.vregs.set(*dst, &out);
            }
            MInst::SetLane { ty, dst, lane, src } => {
                let v = self.sval(*src)?.coerce(*ty);
                let off = *lane as usize * ty.size();
                if off + ty.size() > self.lane_limit(*ty) {
                    return Err(Trap(format!("lane {lane} out of range for {ty}")));
                }
                self.vbytes(*dst)?; // undefined-register trap before the write
                write_elem(*ty, self.vregs.slot_mut(*dst), off, v);
            }
            MInst::GetLane { ty, dst, src, lane } => {
                let v = self.vbytes(*src)?;
                let off = *lane as usize * ty.size();
                if off + ty.size() > self.lane_limit(*ty) {
                    return Err(Trap(format!("lane {lane} out of range for {ty}")));
                }
                let x = read_elem(*ty, v, off);
                self.set_sreg_checked(*dst, *ty, x);
            }
            MInst::VBin { op, ty, dst, a, b } => {
                let (x, y) = (self.vbytes(*a)?, self.vbytes(*b)?);
                let n = self.lanes(*ty);
                let out = self.with_lanes(*ty, n, |k| {
                    Ok(eval_bin(*op, *ty, lane(x, *ty, k), lane(y, *ty, k)))
                })?;
                self.vregs.set(*dst, &out);
            }
            MInst::VUn { op, ty, dst, a } => {
                let x = self.vbytes(*a)?;
                let n = self.lanes(*ty);
                let out = self.with_lanes(*ty, n, |k| Ok(eval_un(*op, *ty, lane(x, *ty, k))))?;
                self.vregs.set(*dst, &out);
            }
            MInst::VShift {
                left,
                ty,
                dst,
                a,
                amt,
            } => {
                let x = self.vbytes(*a)?;
                let n = self.lanes(*ty);
                let op = if *left { BinOp::Shl } else { BinOp::Shr };
                let out = match amt {
                    ShiftSrc::Imm(v) => {
                        let amt = Value::Int(*v as i64);
                        self.with_lanes(*ty, n, |k| Ok(eval_bin(op, *ty, lane(x, *ty, k), amt)))?
                    }
                    ShiftSrc::Reg(r) => {
                        let amt = Value::Int(self.sint(*r)?);
                        self.with_lanes(*ty, n, |k| Ok(eval_bin(op, *ty, lane(x, *ty, k), amt)))?
                    }
                    ShiftSrc::PerLane(r) => {
                        let amts = self.vbytes(*r)?;
                        self.with_lanes(*ty, n, |k| {
                            Ok(eval_bin(op, *ty, lane(x, *ty, k), lane(amts, *ty, k)))
                        })?
                    }
                };
                self.vregs.set(*dst, &out);
            }
            MInst::VWidenMul {
                half,
                ty,
                dst,
                a,
                b,
            } => {
                let out = self.widen_mul(*half, *ty, *a, *b)?;
                self.vregs.set(*dst, &out);
            }
            MInst::VDotAcc { ty, dst, a, b, acc } => {
                let wide = ty
                    .widened()
                    .ok_or_else(|| Trap(format!("dot: {ty} has no widened type")))?;
                let (x, y, z) = (self.vbytes(*a)?, self.vbytes(*b)?, self.vbytes(*acc)?);
                let n = self.lanes(*ty);
                let out = self.with_lanes(wide, n / 2, |j| {
                    let mut sum = lane(z, wide, j);
                    for k in [2 * j, 2 * j + 1] {
                        let p = eval_bin(
                            BinOp::Mul,
                            wide,
                            eval_cast(*ty, wide, lane(x, *ty, k)),
                            eval_cast(*ty, wide, lane(y, *ty, k)),
                        );
                        sum = eval_bin(BinOp::Add, wide, sum, p);
                    }
                    Ok(sum)
                })?;
                self.vregs.set(*dst, &out);
            }
            MInst::VPack { ty, dst, a, b } => {
                let out = self.pack(*ty, *a, *b)?;
                self.vregs.set(*dst, &out);
            }
            MInst::VUnpack { half, ty, dst, a } => {
                let out = self.unpack(*half, *ty, *a)?;
                self.vregs.set(*dst, &out);
            }
            MInst::VCvt { dir, ty, dst, a } => {
                let out = self.cvt(*dir, *ty, *a)?;
                self.vregs.set(*dst, &out);
            }
            MInst::VInterleave {
                half,
                ty,
                dst,
                a,
                b,
            } => {
                let (x, y) = (self.vbytes(*a)?, self.vbytes(*b)?);
                let n = self.lanes(*ty);
                let base = if *half == Half::Lo { 0 } else { n / 2 };
                let out = self.with_lanes(*ty, n, |k| {
                    let src = if k % 2 == 0 { x } else { y };
                    Ok(lane(src, *ty, base + k / 2))
                })?;
                self.vregs.set(*dst, &out);
            }
            MInst::VExtractStride {
                ty,
                stride,
                offset,
                dst,
                srcs,
            } => {
                let n = self.lanes(*ty);
                let mut all = Vec::with_capacity(srcs.len());
                for r in srcs {
                    all.push(self.vbytes(*r)?);
                }
                let out = self.with_lanes(*ty, n, |k| {
                    let pos = *offset as usize + k * *stride as usize;
                    let (vi, li) = (pos / n, pos % n);
                    let v = *all
                        .get(vi)
                        .ok_or_else(|| Trap("extract reads past sources".into()))?;
                    Ok(lane(v, *ty, li))
                })?;
                self.vregs.set(*dst, &out);
            }
            MInst::VPermCtrl { dst, addr } => {
                let a = self.addr(addr)?;
                let mut out = [0; MAX_VS];
                out[0] = (a as usize % vs) as u8;
                self.vregs.set(*dst, &out);
            }
            MInst::VPerm { dst, a, b, ctrl } => {
                // Select the `vs`-byte window at offset `mis` of x ++ y,
                // without materializing the 2·VS concatenation.
                let (x, y, c) = (self.vbytes(*a)?, self.vbytes(*b)?, self.vbytes(*ctrl)?);
                let mis = c[0] as usize % vs;
                let mut out = [0; MAX_VS];
                out[..vs - mis].copy_from_slice(&x[mis..vs]);
                out[vs - mis..vs].copy_from_slice(&y[..mis]);
                self.vregs.set(*dst, &out);
            }
            MInst::VReduce { op, ty, dst, src } => {
                let x = self.vbytes(*src)?;
                let n = self.lanes(*ty);
                let bop = match op {
                    ReduceOp::Plus => BinOp::Add,
                    ReduceOp::Max => BinOp::Max,
                    ReduceOp::Min => BinOp::Min,
                };
                let mut acc = lane(x, *ty, 0);
                for k in 1..n {
                    acc = eval_bin(bop, *ty, acc, lane(x, *ty, k));
                }
                self.set_sreg_checked(*dst, *ty, acc);
            }
            MInst::MovV { dst, src } => self.vregs.mov(*dst, *src)?,
            MInst::SpillLd { dst, slot } => {
                let v = self
                    .slots
                    .get(*slot as usize)
                    .copied()
                    .ok_or_else(|| Trap(format!("reload of unwritten slot {slot}")))?;
                self.set_sreg(*dst, v);
            }
            MInst::SpillSt { src, slot } => {
                let v = self.sval(*src)?;
                if self.slots.len() <= *slot as usize {
                    self.slots.resize(*slot as usize + 1, Value::Int(0));
                }
                self.slots[*slot as usize] = v;
            }
            MInst::VHelper { op, ty, dst, a, b } => {
                let out = match op {
                    HelperOp::WidenMult(h) => {
                        let b = b.ok_or_else(|| Trap("widen_mult helper needs b".into()))?;
                        self.widen_mul(*h, *ty, *a, b)?
                    }
                    HelperOp::Cvt(d) => self.cvt(*d, *ty, *a)?,
                    HelperOp::FDiv => {
                        let b = b.ok_or_else(|| Trap("fdiv helper needs b".into()))?;
                        let (x, y) = (self.vbytes(*a)?, self.vbytes(b)?);
                        let n = self.lanes(*ty);
                        self.with_lanes(*ty, n, |k| {
                            Ok(eval_bin(BinOp::Div, *ty, lane(x, *ty, k), lane(y, *ty, k)))
                        })?
                    }
                    HelperOp::FSqrt => {
                        let x = self.vbytes(*a)?;
                        let n = self.lanes(*ty);
                        self.with_lanes(*ty, n, |k| {
                            Ok(eval_un(vapor_ir::UnOp::Sqrt, *ty, lane(x, *ty, k)))
                        })?
                    }
                    HelperOp::Pack => {
                        let b = b.ok_or_else(|| Trap("pack helper needs b".into()))?;
                        self.pack(*ty, *a, b)?
                    }
                    HelperOp::Unpack(h) => self.unpack(*h, *ty, *a)?,
                };
                self.vregs.set(*dst, &out);
            }
            MInst::SetVl { ty, dst, avl } => self.set_vl(*ty, *dst, *avl)?,
            MInst::LoadVl { ty, dst, addr } => {
                let a = self.addr(addr)?;
                self.load_vl_at(*ty, *dst, a)?;
            }
            MInst::StoreVl { ty, src, addr } => {
                let a = self.addr(addr)?;
                self.store_vl_at(*ty, *src, a)?;
            }
            MInst::VBinVl { op, ty, dst, a, b } => {
                let (n, op, ty) = (self.vl_lanes(*ty), *op, *ty);
                self.vregs.write(*dst, [*a, *b], true, |[x, y], out| {
                    for k in 0..n {
                        let v = eval_bin(op, ty, lane(x, ty, k), lane(y, ty, k));
                        write_elem(ty, out, k * ty.size(), v);
                    }
                })?;
            }
            MInst::VUnVl { op, ty, dst, a } => {
                let (n, op, ty) = (self.vl_lanes(*ty), *op, *ty);
                self.vregs.write(*dst, [*a], true, |[x], out| {
                    for k in 0..n {
                        write_elem(ty, out, k * ty.size(), eval_un(op, ty, lane(x, ty, k)));
                    }
                })?;
            }
        }
        Ok(())
    }

    fn widen_mul(&self, half: Half, ty: ScalarTy, a: VReg, b: VReg) -> Result<Lanes, Trap> {
        let wide = ty
            .widened()
            .ok_or_else(|| Trap(format!("widen_mult: {ty} has no widened type")))?;
        let (x, y) = (self.vbytes(a)?, self.vbytes(b)?);
        let n = self.lanes(ty);
        let base = if half == Half::Lo { 0 } else { n / 2 };
        self.with_lanes(wide, n / 2, |j| {
            Ok(eval_bin(
                BinOp::Mul,
                wide,
                eval_cast(ty, wide, lane(x, ty, base + j)),
                eval_cast(ty, wide, lane(y, ty, base + j)),
            ))
        })
    }

    fn pack(&self, ty: ScalarTy, a: VReg, b: VReg) -> Result<Lanes, Trap> {
        let narrow = ty
            .narrowed()
            .ok_or_else(|| Trap(format!("pack: {ty} has no narrowed type")))?;
        let (x, y) = (self.vbytes(a)?, self.vbytes(b)?);
        let n = self.lanes(ty);
        self.with_lanes(narrow, 2 * n, |k| {
            let src = if k < n { x } else { y };
            Ok(eval_cast(ty, narrow, lane(src, ty, k % n)))
        })
    }

    fn cvt(&self, dir: CvtDir, ty: ScalarTy, a: VReg) -> Result<Lanes, Trap> {
        let to = match dir {
            CvtDir::IntToFloat => ty
                .float_counterpart()
                .ok_or_else(|| Trap(format!("cvt_int2fp: no float of width of {ty}")))?,
            CvtDir::FloatToInt => ty
                .int_counterpart()
                .ok_or_else(|| Trap(format!("cvt_fp2int: no int of width of {ty}")))?,
        };
        let x = self.vbytes(a)?;
        let n = self.lanes(ty);
        self.with_lanes(to, n, |k| Ok(eval_cast(ty, to, lane(x, ty, k))))
    }

    fn unpack(&self, half: Half, ty: ScalarTy, a: VReg) -> Result<Lanes, Trap> {
        let wide = ty
            .widened()
            .ok_or_else(|| Trap(format!("unpack: {ty} has no widened type")))?;
        let x = self.vbytes(a)?;
        let n = self.lanes(ty);
        let base = if half == Half::Lo { 0 } else { n / 2 };
        self.with_lanes(wide, n / 2, |j| {
            Ok(eval_cast(ty, wide, lane(x, ty, base + j)))
        })
    }
}

/// The scalar ALU pairs that make up nearly all executed scalar steps —
/// i64 and f32/f64 add, sub and mul — evaluated on operands borrowed from
/// the register file. Yields `eval_bin`'s result when both operands are
/// already in `ty`'s domain, and `None` for every other pair and for an
/// operand in the other domain. Matching by reference reads each
/// operand's tag and payload the way the previous step stored them, so
/// no step reloads a whole `Value` across a store it cannot forward.
#[inline(always)]
fn native_bin(op: BinOp, ty: ScalarTy, x: &Value, y: &Value) -> Option<Value> {
    match (ty, x, y) {
        (ScalarTy::I64, Value::Int(x), Value::Int(y)) => Some(Value::Int(match op {
            BinOp::Add => x.wrapping_add(*y),
            BinOp::Sub => x.wrapping_sub(*y),
            BinOp::Mul => x.wrapping_mul(*y),
            _ => return None,
        })),
        (ScalarTy::F32 | ScalarTy::F64, Value::Float(x), Value::Float(y)) => {
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                _ => return None,
            };
            Some(Value::Float(if ty == ScalarTy::F32 {
                r as f32 as f64
            } else {
                r
            }))
        }
        _ => None,
    }
}

/// The undefined-scalar-register trap.
fn undefined_sreg(r: SReg) -> Trap {
    Trap::new(format_args!("read of undefined scalar register r{}", r.0))
}

/// Lane `k` of a `ty` vector.
fn lane(bytes: &[u8], ty: ScalarTy, k: usize) -> Value {
    read_elem(ty, bytes, k * ty.size())
}

fn take(cond: Cond, a: i64, b: i64) -> bool {
    match cond {
        Cond::Lt => a < b,
        Cond::Ge => a >= b,
        Cond::Eq => a == b,
        Cond::Ne => a != b,
    }
}

/// Runtime stream state of one threaded execution: per-stream cursors
/// plus the liveness bit set at loop entry ([`TStep::InitStreams`]).
struct TCtx<'a> {
    defs: &'a [StreamDef],
    cursors: Vec<i64>,
    valid: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Label, SReg, VReg};
    use crate::target::{altivec, sse};

    fn code(insts: Vec<MInst>) -> MCode {
        MCode {
            insts,
            n_sregs: 16,
            n_vregs: 16,
            note: String::new(),
        }
    }

    #[test]
    fn scalar_loop_sums() {
        // r2 = 0; for (r0 = 0; r0 < 10; r0++) r2 += r0;
        let t = sse();
        let mut m = Machine::new(&t, 4096);
        let c = code(vec![
            MInst::MovImmI {
                dst: SReg(0),
                imm: 0,
            },
            MInst::MovImmI {
                dst: SReg(2),
                imm: 0,
            },
            MInst::Label(Label(0)),
            MInst::SBin {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(2),
                a: SReg(2),
                b: SReg(0),
            },
            MInst::SBinImm {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(0),
                a: SReg(0),
                imm: 1,
            },
            MInst::BranchImm {
                cond: Cond::Lt,
                a: SReg(0),
                imm: 10,
                target: Label(0),
            },
        ]);
        let stats = m.run(&c).unwrap();
        assert_eq!(m.sreg(SReg(2)), Value::Int(45));
        assert!(stats.cycles > 0 && stats.insts > 20);
    }

    #[test]
    fn vector_add_roundtrip_through_memory() {
        let t = sse();
        let mut m = Machine::new(&t, 4096);
        let a = m.mem.alloc(16, 16);
        let b = m.mem.alloc(16, 16);
        for k in 0..4 {
            m.mem
                .write(ScalarTy::F32, a + 4 * k, Value::Float(k as f64));
            m.mem.write(ScalarTy::F32, b + 4 * k, Value::Float(10.0));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        m.set_sreg(SReg(1), Value::Int(b as i64));
        let c = code(vec![
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Aligned,
            },
            MInst::LoadV {
                dst: VReg(1),
                addr: AddrMode::base_disp(SReg(1), 0),
                align: MemAlign::Aligned,
            },
            MInst::VBin {
                op: BinOp::Add,
                ty: ScalarTy::F32,
                dst: VReg(2),
                a: VReg(0),
                b: VReg(1),
            },
            MInst::StoreV {
                src: VReg(2),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Aligned,
            },
        ]);
        m.run(&c).unwrap();
        for k in 0..4 {
            assert_eq!(
                m.mem.read(ScalarTy::F32, a + 4 * k),
                Value::Float(10.0 + k as f64)
            );
        }
    }

    #[test]
    fn aligned_access_traps_on_misaligned_address() {
        let t = sse();
        let mut m = Machine::new(&t, 4096);
        let a = m.mem.alloc(64, 16);
        m.set_sreg(SReg(0), Value::Int(a as i64 + 4));
        let c = code(vec![MInst::LoadV {
            dst: VReg(0),
            addr: AddrMode::base_disp(SReg(0), 0),
            align: MemAlign::Aligned,
        }]);
        let err = m.run(&c).unwrap_err();
        assert!(err.0.contains("misaligned"), "{err}");
    }

    #[test]
    fn realignment_via_perm_matches_unaligned_load() {
        // AltiVec-style: floor loads + permctrl + perm == the unaligned window.
        let t = altivec();
        let mut m = Machine::new(&t, 4096);
        let a = m.mem.alloc(64, 16);
        for k in 0..16 {
            m.mem.write(ScalarTy::I32, a + 4 * k, Value::Int(k as i64));
        }
        let addr = a + 8; // misaligned by 8
        m.set_sreg(SReg(0), Value::Int(addr as i64));
        let c = code(vec![
            MInst::LoadVFloor {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
            },
            MInst::LoadVFloor {
                dst: VReg(1),
                addr: AddrMode::base_disp(SReg(0), 16),
            },
            MInst::VPermCtrl {
                dst: VReg(2),
                addr: AddrMode::base_disp(SReg(0), 0),
            },
            MInst::VPerm {
                dst: VReg(3),
                a: VReg(0),
                b: VReg(1),
                ctrl: VReg(2),
            },
            MInst::StoreV {
                src: VReg(3),
                addr: AddrMode::base_disp(SReg(1), 0),
                align: MemAlign::Aligned,
            },
        ]);
        let out = m.mem.alloc(16, 16);
        m.set_sreg(SReg(1), Value::Int(out as i64));
        m.run(&c).unwrap();
        for k in 0..4u64 {
            assert_eq!(
                m.mem.read(ScalarTy::I32, out + 4 * k),
                Value::Int(2 + k as i64)
            );
        }
    }

    #[test]
    fn widen_mul_and_pack_roundtrip() {
        let t = sse();
        let mut m = Machine::new(&t, 4096);
        // v0 = [1..8] i16, v1 = all 3.
        let a = m.mem.alloc(16, 16);
        for k in 0..8 {
            m.mem
                .write(ScalarTy::I16, a + 2 * k, Value::Int(k as i64 + 1));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        m.set_sreg(SReg(1), Value::Int(3));
        let out = m.mem.alloc(32, 16);
        m.set_sreg(SReg(2), Value::Int(out as i64));
        let c = code(vec![
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Aligned,
            },
            MInst::Splat {
                ty: ScalarTy::I16,
                dst: VReg(1),
                src: SReg(1),
            },
            MInst::VWidenMul {
                half: Half::Lo,
                ty: ScalarTy::I16,
                dst: VReg(2),
                a: VReg(0),
                b: VReg(1),
            },
            MInst::VWidenMul {
                half: Half::Hi,
                ty: ScalarTy::I16,
                dst: VReg(3),
                a: VReg(0),
                b: VReg(1),
            },
            MInst::VPack {
                ty: ScalarTy::I32,
                dst: VReg(4),
                a: VReg(2),
                b: VReg(3),
            },
            MInst::StoreV {
                src: VReg(4),
                addr: AddrMode::base_disp(SReg(2), 0),
                align: MemAlign::Aligned,
            },
        ]);
        m.run(&c).unwrap();
        for k in 0..8 {
            assert_eq!(
                m.mem.read(ScalarTy::I16, out + 2 * k),
                Value::Int(3 * (k as i64 + 1))
            );
        }
    }

    #[test]
    fn dot_product_accumulates_pairs() {
        let t = sse();
        let mut m = Machine::new(&t, 4096);
        let a = m.mem.alloc(16, 16);
        for k in 0..8 {
            m.mem.write(ScalarTy::I16, a + 2 * k, Value::Int(2));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        let c = code(vec![
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Aligned,
            },
            MInst::MovImmI {
                dst: SReg(1),
                imm: 0,
            },
            MInst::Splat {
                ty: ScalarTy::I32,
                dst: VReg(1),
                src: SReg(1),
            },
            MInst::VDotAcc {
                ty: ScalarTy::I16,
                dst: VReg(2),
                a: VReg(0),
                b: VReg(0),
                acc: VReg(1),
            },
            MInst::VReduce {
                op: ReduceOp::Plus,
                ty: ScalarTy::I32,
                dst: SReg(2),
                src: VReg(2),
            },
        ]);
        m.run(&c).unwrap();
        // 8 lanes of 2*2 = 32.
        assert_eq!(m.sreg(SReg(2)), Value::Int(32));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let t = sse();
        let mut m = Machine::new(&t, 1024);
        m.fuel = 100;
        let c = code(vec![MInst::Label(Label(0)), MInst::Jump(Label(0))]);
        let err = m.run(&c).unwrap_err();
        assert!(err.0.contains("fuel"));
    }

    #[test]
    fn oob_access_traps() {
        let t = sse();
        let mut m = Machine::new(&t, 1024);
        m.set_sreg(SReg(0), Value::Int(0));
        let c = code(vec![MInst::LoadS {
            ty: ScalarTy::I32,
            dst: SReg(1),
            addr: AddrMode::base_disp(SReg(0), 0),
        }]);
        assert!(m.run(&c).is_err());
    }

    #[test]
    fn extract_stride_deinterleaves() {
        let t = sse();
        let mut m = Machine::new(&t, 4096);
        let a = m.mem.alloc(32, 16);
        for k in 0..8 {
            m.mem.write(ScalarTy::I32, a + 4 * k, Value::Int(k as i64));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        let c = code(vec![
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Aligned,
            },
            MInst::LoadV {
                dst: VReg(1),
                addr: AddrMode::base_disp(SReg(0), 16),
                align: MemAlign::Aligned,
            },
            MInst::VExtractStride {
                ty: ScalarTy::I32,
                stride: 2,
                offset: 1,
                dst: VReg(2),
                srcs: vec![VReg(0), VReg(1)],
            },
            MInst::VReduce {
                op: ReduceOp::Plus,
                ty: ScalarTy::I32,
                dst: SReg(1),
                src: VReg(2),
            },
        ]);
        m.run(&c).unwrap();
        // odd elements: 1+3+5+7 = 16
        assert_eq!(m.sreg(SReg(1)), Value::Int(16));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::isa::{AddrMode, MInst, SReg, ShiftSrc, VReg};
    use crate::target::{neon64, sse};
    use vapor_ir::ScalarTy;

    fn mcode(insts: Vec<MInst>) -> crate::isa::MCode {
        crate::isa::MCode {
            insts,
            n_sregs: 8,
            n_vregs: 8,
            note: String::new(),
        }
    }

    #[test]
    fn iota_and_lane_ops() {
        let t = sse();
        let mut m = Machine::new(&t, 2048);
        m.set_sreg(SReg(0), Value::Int(5));
        m.set_sreg(SReg(1), Value::Int(3));
        m.set_sreg(SReg(2), Value::Int(-9));
        let c = mcode(vec![
            MInst::Iota {
                ty: ScalarTy::I32,
                dst: VReg(0),
                start: SReg(0),
                inc: SReg(1),
            },
            MInst::SetLane {
                ty: ScalarTy::I32,
                dst: VReg(0),
                lane: 2,
                src: SReg(2),
            },
            MInst::GetLane {
                ty: ScalarTy::I32,
                dst: SReg(3),
                src: VReg(0),
                lane: 2,
            },
            MInst::GetLane {
                ty: ScalarTy::I32,
                dst: SReg(4),
                src: VReg(0),
                lane: 3,
            },
        ]);
        m.run(&c).unwrap();
        assert_eq!(m.sreg(SReg(3)), Value::Int(-9));
        assert_eq!(m.sreg(SReg(4)), Value::Int(5 + 3 * 3));
    }

    #[test]
    fn per_lane_shift_matches_scalar_semantics() {
        let t = neon64();
        let mut m = Machine::new(&t, 2048);
        m.set_sreg(SReg(0), Value::Int(-64));
        m.set_sreg(SReg(1), Value::Int(1));
        m.set_sreg(SReg(2), Value::Int(3));
        let c = mcode(vec![
            MInst::Splat {
                ty: ScalarTy::I16,
                dst: VReg(0),
                src: SReg(0),
            },
            MInst::Iota {
                ty: ScalarTy::I16,
                dst: VReg(1),
                start: SReg(1),
                inc: SReg(1),
            },
            MInst::VShift {
                left: false,
                ty: ScalarTy::I16,
                dst: VReg(2),
                a: VReg(0),
                amt: ShiftSrc::PerLane(VReg(1)),
            },
            MInst::GetLane {
                ty: ScalarTy::I16,
                dst: SReg(3),
                src: VReg(2),
                lane: 0,
            },
            MInst::GetLane {
                ty: ScalarTy::I16,
                dst: SReg(4),
                src: VReg(2),
                lane: 2,
            },
        ]);
        m.run(&c).unwrap();
        assert_eq!(m.sreg(SReg(3)), Value::Int(-64 >> 1));
        assert_eq!(m.sreg(SReg(4)), Value::Int(-64 >> 3));
    }

    #[test]
    fn helper_semantics_match_native_instructions() {
        // VHelper(widen_mult) must compute exactly what VWidenMul does.
        let t = neon64();
        let mut m = Machine::new(&t, 2048);
        let a = m.mem.alloc(8, 8);
        for k in 0..8 {
            m.mem.write(ScalarTy::U8, a + k, Value::Int(k as i64 + 250)); // wraps u8
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        let c = mcode(vec![
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Aligned,
            },
            MInst::VWidenMul {
                half: Half::Lo,
                ty: ScalarTy::U8,
                dst: VReg(1),
                a: VReg(0),
                b: VReg(0),
            },
            MInst::VHelper {
                op: HelperOp::WidenMult(Half::Lo),
                ty: ScalarTy::U8,
                dst: VReg(2),
                a: VReg(0),
                b: Some(VReg(0)),
            },
            MInst::GetLane {
                ty: ScalarTy::U16,
                dst: SReg(1),
                src: VReg(1),
                lane: 1,
            },
            MInst::GetLane {
                ty: ScalarTy::U16,
                dst: SReg(2),
                src: VReg(2),
                lane: 1,
            },
        ]);
        m.run(&c).unwrap();
        assert_eq!(m.sreg(SReg(1)), m.sreg(SReg(2)));
        // 251*251 mod 2^16
        assert_eq!(m.sreg(SReg(1)), Value::Int((251 * 251) & 0xffff));
    }

    #[test]
    fn decoded_dispatch_matches_baseline() {
        // Same code, both dispatch loops: identical register/memory
        // state and identical cycle count (insts differ by the stripped
        // labels only).
        let t = sse();
        let c = mcode(vec![
            MInst::MovImmI {
                dst: SReg(0),
                imm: 0,
            },
            MInst::MovImmI {
                dst: SReg(2),
                imm: 0,
            },
            MInst::Label(crate::isa::Label(0)),
            MInst::SBin {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(2),
                a: SReg(2),
                b: SReg(0),
            },
            MInst::SBinImm {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(0),
                a: SReg(0),
                imm: 1,
            },
            MInst::BranchImm {
                cond: crate::isa::Cond::Lt,
                a: SReg(0),
                imm: 100,
                target: crate::isa::Label(0),
            },
        ]);
        let mut base = Machine::new(&t, 1024);
        let s1 = base.run(&c).unwrap();
        let prog = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        let mut dec = Machine::new(&t, 1024);
        let s2 = dec.run_decoded(&prog).unwrap();
        assert_eq!(base.sreg(SReg(2)), dec.sreg(SReg(2)));
        assert_eq!(base.sreg(SReg(2)), Value::Int(4950));
        assert_eq!(s1.cycles, s2.cycles);
        // The baseline counts the label marker once per iteration.
        assert_eq!(s1.insts, s2.insts + 100);
    }

    #[test]
    fn decoded_dispatch_rejects_wrong_vector_width() {
        let t = sse();
        let c = mcode(vec![MInst::MovImmI {
            dst: SReg(0),
            imm: 1,
        }]);
        let prog = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        let wide = crate::target::avx();
        let mut m = Machine::new(&wide, 1024);
        let err = m.run_decoded(&prog).unwrap_err();
        assert!(err.0.contains("decoded for VS="), "{err}");
    }

    #[test]
    fn decoded_dispatch_honors_fuel() {
        let t = sse();
        let c = mcode(vec![
            MInst::Label(crate::isa::Label(0)),
            MInst::Jump(crate::isa::Label(0)),
        ]);
        let prog = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        let mut m = Machine::new(&t, 1024);
        m.fuel = 50;
        let err = m.run_decoded(&prog).unwrap_err();
        assert!(err.0.contains("fuel"), "{err}");
    }

    #[test]
    fn fused_steps_never_execute_past_the_fuel_budget() {
        // A superinstruction whose constituents would cross the fuel
        // budget traps at the group boundary: none of its side effects
        // (here the store) may land.
        let t = sse();
        let c = mcode(vec![
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Unaligned,
            },
            MInst::VBin {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I32,
                dst: VReg(1),
                a: VReg(0),
                b: VReg(0),
            },
            MInst::StoreV {
                src: VReg(1),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Unaligned,
            },
        ]);
        let prog = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        assert_eq!(prog.n_steps(), 1, "the triple must fuse");
        let mut m = Machine::new(&t, 1024);
        let a = m.mem.alloc(16, 16);
        for k in 0..4 {
            m.mem.write(ScalarTy::I32, a + 4 * k, Value::Int(5));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        m.fuel = 2; // group needs 3
        let err = m.run_decoded(&prog).unwrap_err();
        assert!(err.0.contains("fuel exhausted after 0"), "{err}");
        for k in 0..4 {
            assert_eq!(
                m.mem.read(ScalarTy::I32, a + 4 * k),
                Value::Int(5),
                "store must not have landed"
            );
        }
    }

    #[test]
    fn vla_stripmine_masks_the_tail() {
        // Sum 10 i32s on a 256-bit (8-lane) VLA machine with a
        // setvl-stripmined loop: one full iteration plus a 2-lane
        // predicated tail, no scalar epilogue.
        let t = crate::target::sve().at_vl(256);
        let mut m = Machine::new(&t, 4096);
        let n = 10u64;
        let a = m.mem.alloc(4 * n as usize, 32);
        for k in 0..n {
            m.mem.write(ScalarTy::I32, a + 4 * k, Value::Int(k as i64));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64));
        m.set_sreg(SReg(1), Value::Int(n as i64)); // n
        m.set_sreg(SReg(2), Value::Int(0)); // i
        m.set_sreg(SReg(3), Value::Int(0)); // zero for the accumulator splat
        let c = mcode(vec![
            MInst::Splat {
                ty: ScalarTy::I32,
                dst: VReg(1),
                src: SReg(3),
            },
            MInst::Label(crate::isa::Label(0)),
            // rem = n - i; vl = setvl(rem)
            MInst::SBin {
                op: vapor_ir::BinOp::Sub,
                ty: ScalarTy::I64,
                dst: SReg(4),
                a: SReg(1),
                b: SReg(2),
            },
            MInst::SetVl {
                ty: ScalarTy::I32,
                dst: SReg(5),
                avl: SReg(4),
            },
            MInst::LoadVl {
                ty: ScalarTy::I32,
                dst: VReg(0),
                addr: AddrMode::fused(SReg(0), SReg(2), 4, 0),
            },
            MInst::VBinVl {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I32,
                dst: VReg(1),
                a: VReg(1),
                b: VReg(0),
            },
            MInst::SBin {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(2),
                a: SReg(2),
                b: SReg(5),
            },
            MInst::Branch {
                cond: crate::isa::Cond::Lt,
                a: SReg(2),
                b: SReg(1),
                target: crate::isa::Label(0),
            },
            MInst::VReduce {
                op: ReduceOp::Plus,
                ty: ScalarTy::I32,
                dst: SReg(6),
                src: VReg(1),
            },
        ]);
        m.run(&c).unwrap();
        assert_eq!(m.sreg(SReg(6)), Value::Int(45));
        // Two stripmine iterations: the second saw vl = 2.
        assert_eq!(m.sreg(SReg(5)), Value::Int(2));
    }

    #[test]
    fn predicated_fast_dispatch_matches_generic_baseline() {
        // The VLA stripmine loop through both dispatch loops: the
        // decoded path takes DStep::VBinVlFast, the baseline the generic
        // merge-predicated interpreter — results and cycles must agree.
        let t = crate::target::sve().at_vl(256);
        let build = || {
            let mut m = Machine::new(&t, 4096);
            let n = 10u64;
            let a = m.mem.alloc(4 * n as usize, 32);
            for k in 0..n {
                m.mem.write(ScalarTy::I32, a + 4 * k, Value::Int(k as i64));
            }
            m.set_sreg(SReg(0), Value::Int(a as i64));
            m.set_sreg(SReg(1), Value::Int(n as i64));
            m.set_sreg(SReg(2), Value::Int(0));
            m.set_sreg(SReg(3), Value::Int(0));
            m
        };
        let c = mcode(vec![
            MInst::Splat {
                ty: ScalarTy::I32,
                dst: VReg(1),
                src: SReg(3),
            },
            MInst::Label(crate::isa::Label(0)),
            MInst::SBin {
                op: vapor_ir::BinOp::Sub,
                ty: ScalarTy::I64,
                dst: SReg(4),
                a: SReg(1),
                b: SReg(2),
            },
            MInst::SetVl {
                ty: ScalarTy::I32,
                dst: SReg(5),
                avl: SReg(4),
            },
            MInst::LoadVl {
                ty: ScalarTy::I32,
                dst: VReg(0),
                addr: AddrMode::fused(SReg(0), SReg(2), 4, 0),
            },
            MInst::VBinVl {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I32,
                dst: VReg(1),
                a: VReg(1),
                b: VReg(0),
            },
            MInst::VUnVl {
                op: vapor_ir::UnOp::Abs,
                ty: ScalarTy::I32,
                dst: VReg(1),
                a: VReg(1),
            },
            MInst::SBin {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(2),
                a: SReg(2),
                b: SReg(5),
            },
            MInst::Branch {
                cond: crate::isa::Cond::Lt,
                a: SReg(2),
                b: SReg(1),
                target: crate::isa::Label(0),
            },
            MInst::VReduce {
                op: ReduceOp::Plus,
                ty: ScalarTy::I32,
                dst: SReg(6),
                src: VReg(1),
            },
        ]);
        let prog = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        assert!(
            prog.steps()
                .iter()
                .any(|d| matches!(d.step, crate::decode::DStep::VBinVlFast { .. })),
            "VBinVl must take the fast path"
        );
        assert!(
            prog.steps()
                .iter()
                .any(|d| matches!(d.step, crate::decode::DStep::VUnVlFast { .. })),
            "VUnVl must take the fast path"
        );
        let mut base = build();
        let s1 = base.run(&c).unwrap();
        let mut dec = build();
        let s2 = dec.run_decoded(&prog).unwrap();
        assert_eq!(base.sreg(SReg(6)), dec.sreg(SReg(6)));
        assert_eq!(base.sreg(SReg(6)), Value::Int(45));
        assert_eq!(s1.cycles, s2.cycles);
        // Merging predication preserved: the tail lanes of the
        // accumulator match between the two dispatch loops.
        assert_eq!(base.vbytes(VReg(1)).unwrap(), dec.vbytes(VReg(1)).unwrap());
    }

    #[test]
    fn masked_store_never_writes_past_vl() {
        let t = crate::target::sve().at_vl(512); // 64-byte registers
        let mut m = Machine::new(&t, 4096);
        let out = m.mem.alloc(64, 64);
        for k in 0..16 {
            m.mem.write(ScalarTy::I32, out + 4 * k, Value::Int(-1));
        }
        m.set_sreg(SReg(0), Value::Int(out as i64));
        m.set_sreg(SReg(1), Value::Int(3)); // avl = 3 of 16 lanes
        m.set_sreg(SReg(2), Value::Int(7));
        let c = mcode(vec![
            MInst::SetVl {
                ty: ScalarTy::I32,
                dst: SReg(3),
                avl: SReg(1),
            },
            MInst::Splat {
                ty: ScalarTy::I32,
                dst: VReg(0),
                src: SReg(2),
            },
            MInst::StoreVl {
                ty: ScalarTy::I32,
                src: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
            },
        ]);
        m.run(&c).unwrap();
        for k in 0..16u64 {
            let want = if k < 3 { 7 } else { -1 };
            assert_eq!(m.mem.read(ScalarTy::I32, out + 4 * k), Value::Int(want));
        }
    }

    #[test]
    fn masked_load_zeroes_inactive_lanes_and_stays_in_bounds() {
        let t = crate::target::sve().at_vl(2048); // 256-byte registers
        let mut m = Machine::new(&t, 4096);
        // Place 4 floats at the very end of memory minus the padding the
        // allocator guarantees: a full-width load would still be fine
        // here, but the masked load must only touch 16 bytes.
        let a = m.mem.alloc(16, 32);
        for k in 0..4 {
            m.mem
                .write(ScalarTy::F32, a + 4 * k, Value::Float(1.5 * k as f64));
        }
        m.set_sreg(SReg(0), Value::Int(a as i64 + 4)); // element-aligned only
        m.set_sreg(SReg(1), Value::Int(3));
        let c = mcode(vec![
            MInst::SetVl {
                ty: ScalarTy::F32,
                dst: SReg(2),
                avl: SReg(1),
            },
            MInst::LoadVl {
                ty: ScalarTy::F32,
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
            },
            MInst::GetLane {
                ty: ScalarTy::F32,
                dst: SReg(3),
                src: VReg(0),
                lane: 2,
            },
            MInst::GetLane {
                ty: ScalarTy::F32,
                dst: SReg(4),
                src: VReg(0),
                lane: 3,
            },
        ]);
        m.run(&c).unwrap();
        assert_eq!(m.sreg(SReg(3)), Value::Float(4.5));
        // Lane 3 is inactive (vl = 3): zero-filled, not read from memory.
        assert_eq!(m.sreg(SReg(4)), Value::Float(0.0));
    }

    #[test]
    fn one_decode_charges_every_vl_like_the_seed_loop() {
        // Every reduction (each op at i32, f32 and f64) and a helper
        // call, decoded and threaded once per VLA family at its minimum,
        // then run at 128, 512 and 2048 bits: the width-dependent part of
        // their cost is charged at the machine's lane counts, so both
        // loops match the seed loop's statistics at every VL.
        let mut insts = vec![
            MInst::Splat {
                ty: ScalarTy::I32,
                dst: VReg(0),
                src: SReg(0),
            },
            MInst::Splat {
                ty: ScalarTy::F32,
                dst: VReg(1),
                src: SReg(1),
            },
            MInst::Splat {
                ty: ScalarTy::F64,
                dst: VReg(2),
                src: SReg(1),
            },
        ];
        let tys = [ScalarTy::I32, ScalarTy::F32, ScalarTy::F64];
        for (k, op) in [ReduceOp::Plus, ReduceOp::Max, ReduceOp::Min]
            .into_iter()
            .enumerate()
        {
            for (r, ty) in tys.into_iter().enumerate() {
                insts.push(MInst::VReduce {
                    op,
                    ty,
                    dst: SReg(2 + (3 * k + r) as u32),
                    src: VReg(r as u32),
                });
            }
        }
        insts.push(MInst::VHelper {
            op: HelperOp::Cvt(CvtDir::IntToFloat),
            ty: ScalarTy::I32,
            dst: VReg(3),
            a: VReg(0),
            b: None,
        });
        let c = MCode {
            insts,
            n_sregs: 11,
            n_vregs: 4,
            note: String::new(),
        };
        for fam in [crate::target::sve(), crate::target::rvv()] {
            let d = crate::decode::DecodedProgram::decode(&c, &fam).unwrap();
            let th = crate::thread::ThreadedProgram::thread(&d, &c);
            let mut cycles = Vec::new();
            for vl in [128, 512, 2048] {
                let t = fam.at_vl(vl);
                let build = || {
                    let mut m = Machine::new(&t, 1024);
                    m.set_sreg(SReg(0), Value::Int(3));
                    m.set_sreg(SReg(1), Value::Float(1.5));
                    m
                };
                let (mut seed, mut dec, mut thr) = (build(), build(), build());
                let want = seed.run(&c).unwrap();
                assert_eq!(dec.run_decoded(&d).unwrap(), want, "{} @{vl}", t.name);
                assert_eq!(thr.run_threaded(&th).unwrap(), want, "{} @{vl}", t.name);
                for r in 2..11 {
                    assert_eq!(
                        dec.sreg(SReg(r)),
                        seed.sreg(SReg(r)),
                        "{} @{vl} r{r}",
                        t.name
                    );
                    assert_eq!(
                        thr.sreg(SReg(r)),
                        seed.sreg(SReg(r)),
                        "{} @{vl} r{r}",
                        t.name
                    );
                }
                cycles.push(want.cycles);
            }
            assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
        }
    }

    /// `code` with a counter bump on `counter` after every label, so the
    /// seed loop's label visits can be read back from the register.
    fn count_labels(code: &MCode, counter: SReg) -> MCode {
        let mut insts = Vec::new();
        for inst in &code.insts {
            insts.push(inst.clone());
            if matches!(inst, MInst::Label(_)) {
                insts.push(MInst::SBinImm {
                    op: vapor_ir::BinOp::Add,
                    ty: ScalarTy::I64,
                    dst: counter,
                    a: counter,
                    imm: 1,
                });
            }
        }
        MCode {
            insts,
            ..code.clone()
        }
    }

    /// Run `c` through the seed loop and through `run_decoded` on both
    /// its unfused and fused decodes from the state `setup` builds, and
    /// require identical statistics (the seed's minus its label visits),
    /// registers, spill slots, VL and memory. Returns the fused decode.
    fn blocks_match_the_seed_loop(
        t: &TargetDesc,
        c: &MCode,
        setup: &dyn Fn(&mut Machine<'_>),
    ) -> crate::decode::DecodedProgram {
        let build = || {
            let mut m = Machine::new(t, 4096);
            setup(&mut m);
            m
        };
        let mut seed = build();
        let want = seed.run(c).unwrap();
        let counter = SReg(63);
        let mut counted = build();
        counted.set_sreg(counter, Value::Int(0));
        counted.run(&count_labels(c, counter)).unwrap();
        let Value::Int(labels) = counted.sreg(counter) else {
            panic!("label counter")
        };
        let want = ExecStats {
            insts: want.insts - labels as u64,
            ..want
        };
        let unfused = crate::decode::DecodedProgram::decode_unfused(c, t).unwrap();
        let fused = crate::decode::DecodedProgram::decode(c, t).unwrap();
        for (form, prog) in [("unfused", &unfused), ("fused", &fused)] {
            let mut dec = build();
            assert_eq!(dec.run_decoded(prog).unwrap(), want, "{form} stats");
            assert_eq!(dec.sregs, seed.sregs, "{form} scalar registers");
            assert_eq!(dec.vregs.bytes, seed.vregs.bytes, "{form} vector registers");
            assert_eq!(dec.slots, seed.slots, "{form} spill slots");
            assert_eq!(dec.vl_bytes, seed.vl_bytes, "{form} VL");
            assert!(dec.mem.bytes == seed.mem.bytes, "{form} memory");
        }
        fused
    }

    #[test]
    fn block_charged_dispatch_matches_the_seed_loop() {
        // Three passes of an outer loop around a four-trip inner loop:
        // step 0 is a jump target, the inner loop's head is entered by
        // falling through, its latch fuses into a back-edge, a `Branch`
        // and a `BranchImm` are each taken and not taken, a fall-through
        // lands on a branch target, and the last step is a store.
        use crate::isa::{Cond, Label};
        let t = sse();
        let c = mcode(vec![
            MInst::Label(Label(0)),
            MInst::SBinImm {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(1),
                a: SReg(1),
                imm: 1,
            },
            MInst::MovImmI {
                dst: SReg(2),
                imm: 0,
            },
            MInst::Label(Label(1)),
            MInst::SBin {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(3),
                a: SReg(3),
                b: SReg(2),
            },
            MInst::StoreS {
                ty: ScalarTy::I64,
                src: SReg(3),
                addr: AddrMode::fused(SReg(0), SReg(2), 8, 0),
            },
            MInst::Splat {
                ty: ScalarTy::I64,
                dst: VReg(0),
                src: SReg(3),
            },
            MInst::MovV {
                dst: VReg(1),
                src: VReg(0),
            },
            MInst::SBinImm {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I64,
                dst: SReg(2),
                a: SReg(2),
                imm: 1,
            },
            MInst::BranchImm {
                cond: Cond::Lt,
                a: SReg(2),
                imm: 4,
                target: Label(1),
            },
            MInst::MovImmF {
                dst: SReg(6),
                imm: 1.5,
            },
            MInst::MovImmI {
                dst: SReg(4),
                imm: 2,
            },
            MInst::Branch {
                cond: Cond::Lt,
                a: SReg(1),
                b: SReg(4),
                target: Label(2),
            },
            MInst::MovImmI {
                dst: SReg(5),
                imm: 7,
            },
            MInst::Label(Label(2)),
            MInst::SBin {
                op: vapor_ir::BinOp::Mul,
                ty: ScalarTy::I64,
                dst: SReg(7),
                a: SReg(3),
                b: SReg(1),
            },
            MInst::BranchImm {
                cond: Cond::Ge,
                a: SReg(1),
                imm: 3,
                target: Label(3),
            },
            MInst::Jump(Label(0)),
            MInst::Label(Label(3)),
            MInst::StoreS {
                ty: ScalarTy::I64,
                src: SReg(7),
                addr: AddrMode::base_disp(SReg(0), 56),
            },
        ]);
        let setup = |m: &mut Machine<'_>| {
            let a = m.mem.alloc(64, 16);
            m.mem.slice_mut(a, 64).fill(0x5a);
            m.set_sreg(SReg(0), Value::Int(a as i64));
            m.set_sreg(SReg(1), Value::Int(0));
            m.set_sreg(SReg(3), Value::Int(0));
        };
        let fused = blocks_match_the_seed_loop(&t, &c, &setup);
        assert_eq!(fused.fusion_stats().latch, 1, "the inner latch fuses");
        // Leaders: step 0, the inner head, after the latch, after the
        // `Branch`, its target, after the `BranchImm`, and the last step.
        let unfused = crate::decode::DecodedProgram::decode_unfused(&c, &t).unwrap();
        let firsts = |p: &crate::decode::DecodedProgram| {
            p.blocks().iter().map(|b| b.first).collect::<Vec<_>>()
        };
        assert_eq!(firsts(&unfused), [0, 2, 8, 11, 12, 14, 15]);
        assert_eq!(firsts(&fused), [0, 2, 7, 10, 11, 13, 14]);
        for p in [&unfused, &fused] {
            let (arity, cost) = p
                .blocks()
                .iter()
                .fold((0, 0), |(a, c), b| (a + u64::from(b.arity), c + b.cost));
            assert_eq!(arity, p.len as u64);
            assert_eq!(cost, p.steps().iter().map(|d| d.cost).sum::<u64>());
            for (i, d) in p.steps().iter().enumerate() {
                let b = &p.blocks()[d.block as usize];
                assert!(b.first as usize <= i, "step {i} before its block");
            }
        }
        // The empty program has no block and runs nothing.
        let empty = blocks_match_the_seed_loop(&t, &mcode(vec![]), &|_| {});
        assert!(empty.blocks().is_empty());
    }

    #[test]
    fn runtime_vl_ops_match_the_seed_loop() {
        // The generic ops `run_decoded` runs in place (immediates, a
        // register move and the runtime-VL trio) on a 256-bit VLA machine:
        // a predicated store of 3 lanes must leave the rest of a filled
        // array alone, and a predicated load zeroes the inactive lanes.
        let t = crate::target::sve().at_vl(256);
        let c = mcode(vec![
            MInst::MovImmI {
                dst: SReg(1),
                imm: 3,
            },
            MInst::MovImmF {
                dst: SReg(2),
                imm: 2.5,
            },
            MInst::SetVl {
                ty: ScalarTy::I32,
                dst: SReg(3),
                avl: SReg(1),
            },
            MInst::LoadVl {
                ty: ScalarTy::I32,
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
            },
            MInst::MovV {
                dst: VReg(1),
                src: VReg(0),
            },
            MInst::StoreVl {
                ty: ScalarTy::I32,
                src: VReg(1),
                addr: AddrMode::base_disp(SReg(0), 36),
            },
        ]);
        let setup = |m: &mut Machine<'_>| {
            let a = m.mem.alloc(96, 32);
            for k in 0..24 {
                m.mem
                    .write(ScalarTy::I32, a + 4 * k, Value::Int(k as i64 + 1));
            }
            m.set_sreg(SReg(0), Value::Int(a as i64));
        };
        let p = blocks_match_the_seed_loop(&t, &c, &setup);
        assert!(p
            .steps()
            .iter()
            .all(|d| matches!(d.step, crate::decode::DStep::Op(_))));
    }

    #[test]
    fn block_fuel_traps_before_any_step_of_the_block_runs() {
        // Two blocks of 2 and 4 instructions (the second holds a scalar
        // store and a fused load-op-store). A budget of 5 covers the
        // first block only: the trap fires at the second block's entry,
        // after 2 instructions, and neither of its stores lands.
        use crate::isa::Label;
        let t = sse();
        let c = mcode(vec![
            MInst::MovImmI {
                dst: SReg(1),
                imm: 9,
            },
            MInst::Jump(Label(0)),
            MInst::Label(Label(0)),
            MInst::StoreS {
                ty: ScalarTy::I32,
                src: SReg(1),
                addr: AddrMode::base_disp(SReg(0), 16),
            },
            MInst::LoadV {
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Unaligned,
            },
            MInst::VBin {
                op: vapor_ir::BinOp::Add,
                ty: ScalarTy::I32,
                dst: VReg(1),
                a: VReg(0),
                b: VReg(0),
            },
            MInst::StoreV {
                src: VReg(1),
                addr: AddrMode::base_disp(SReg(0), 0),
                align: MemAlign::Unaligned,
            },
        ]);
        let unfused = crate::decode::DecodedProgram::decode_unfused(&c, &t).unwrap();
        let fused = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        assert_eq!(fused.fusion_stats().load_bin_store, 1);
        for (form, prog) in [("unfused", &unfused), ("fused", &fused)] {
            assert_eq!(prog.blocks().len(), 2, "{form}");
            assert_eq!(prog.blocks()[1].arity, 4, "{form}");
            let mut m = Machine::new(&t, 1024);
            let a = m.mem.alloc(32, 16);
            for k in 0..8 {
                m.mem.write(ScalarTy::I32, a + 4 * k, Value::Int(5));
            }
            m.set_sreg(SReg(0), Value::Int(a as i64));
            m.fuel = 5;
            let err = m.run_decoded(prog).unwrap_err();
            assert_eq!(err.0, "fuel exhausted after 2 instructions", "{form}");
            assert_eq!(
                m.sreg(SReg(1)),
                Value::Int(9),
                "{form}: the first block ran"
            );
            for k in 0..8 {
                assert_eq!(
                    m.mem.read(ScalarTy::I32, a + 4 * k),
                    Value::Int(5),
                    "{form}: no store of the trapping block may land"
                );
            }
            // One more instruction of budget runs the whole program.
            m.fuel = 6;
            assert_eq!(m.run_decoded(prog).unwrap().insts, 6, "{form}");
        }
    }

    #[test]
    fn dispatch_traps_carry_the_seed_loops_messages() {
        // Every trap kind the dispatch path raises, through the seed loop
        // and both decodes: one message each, pinned word for word.
        use crate::isa::Label;
        let t = sse();
        let base = |m: &mut Machine<'_>| m.mem.alloc(64, 16);
        let setup = |m: &mut Machine<'_>| {
            let a = base(m);
            m.set_sreg(SReg(0), Value::Int(a as i64 + 4));
            m.set_sreg(SReg(1), Value::Float(1.5));
            m.set_sreg(SReg(2), Value::Int(-64));
            m.set_sreg(SReg(3), Value::Int(0));
        };
        let misaligned = base(&mut Machine::new(&t, 1024)) + 4;
        let v0 = MInst::Splat {
            ty: ScalarTy::I32,
            dst: VReg(0),
            src: SReg(3),
        };
        let cases: Vec<(Vec<MInst>, String)> = vec![
            (
                vec![MInst::MovS {
                    dst: SReg(4),
                    src: SReg(7),
                }],
                "read of undefined scalar register r7".into(),
            ),
            (
                vec![
                    MInst::BranchImm {
                        cond: crate::isa::Cond::Lt,
                        a: SReg(1),
                        imm: 0,
                        target: Label(0),
                    },
                    MInst::Label(Label(0)),
                ],
                "r1 holds float 1.5, expected int".into(),
            ),
            (
                vec![MInst::LoadS {
                    ty: ScalarTy::I32,
                    dst: SReg(4),
                    addr: AddrMode::base_disp(SReg(2), 0),
                }],
                "negative address -64".into(),
            ),
            (
                vec![MInst::StoreS {
                    ty: ScalarTy::I32,
                    src: SReg(3),
                    addr: AddrMode::base_disp(SReg(3), 8),
                }],
                "access of 4 bytes at 8 out of bounds".into(),
            ),
            (
                vec![MInst::LoadV {
                    dst: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                    align: MemAlign::Aligned,
                }],
                format!("aligned vector load from misaligned address {misaligned} (VS=16)"),
            ),
            (
                vec![
                    v0.clone(),
                    MInst::StoreV {
                        src: VReg(0),
                        addr: AddrMode::base_disp(SReg(0), 0),
                        align: MemAlign::Aligned,
                    },
                ],
                format!("aligned vector store to misaligned address {misaligned} (VS=16)"),
            ),
            (
                vec![
                    v0,
                    MInst::StoreV {
                        src: VReg(3),
                        addr: AddrMode::base_disp(SReg(0), 0),
                        align: MemAlign::Unaligned,
                    },
                ],
                "read of undefined vector register v3".into(),
            ),
            (
                // Blocks of one instruction: the seed loop (which also
                // counts the label) and both decodes trap at the same
                // count.
                vec![MInst::Label(Label(0)), MInst::Jump(Label(0))],
                "fuel exhausted after 50 instructions".into(),
            ),
        ];
        for (insts, want) in cases {
            let c = mcode(insts);
            let mut seed = Machine::new(&t, 1024);
            setup(&mut seed);
            seed.fuel = 50;
            assert_eq!(seed.run(&c).unwrap_err().0, want, "seed loop");
            for prog in [
                crate::decode::DecodedProgram::decode_unfused(&c, &t).unwrap(),
                crate::decode::DecodedProgram::decode(&c, &t).unwrap(),
            ] {
                let mut dec = Machine::new(&t, 1024);
                setup(&mut dec);
                dec.fuel = 50;
                assert_eq!(dec.run_decoded(&prog).unwrap_err().0, want, "decoded");
            }
        }
        // Decoded only: a program runs on the machines of its width.
        let c = mcode(vec![MInst::MovImmI {
            dst: SReg(0),
            imm: 1,
        }]);
        let prog = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        let wide = crate::target::avx();
        let err = Machine::new(&wide, 1024).run_decoded(&prog).unwrap_err();
        assert_eq!(
            err.0,
            "program decoded for VS=16 executed on a VS=32 machine"
        );
    }

    #[test]
    fn in_place_generic_ops_have_no_width_dependent_cost() {
        // `run_decoded` runs these six generic ops without adding
        // `op_vl_cost`: that is only sound while their width-dependent
        // cost is 0 at every lane count.
        let addr = AddrMode::base_disp(SReg(0), 0);
        let ops = [
            MInst::MovImmI {
                dst: SReg(0),
                imm: 1,
            },
            MInst::MovImmF {
                dst: SReg(0),
                imm: 1.0,
            },
            MInst::MovV {
                dst: VReg(0),
                src: VReg(1),
            },
            MInst::SetVl {
                ty: ScalarTy::F64,
                dst: SReg(0),
                avl: SReg(1),
            },
            MInst::LoadVl {
                ty: ScalarTy::I8,
                dst: VReg(0),
                addr,
            },
            MInst::StoreVl {
                ty: ScalarTy::I8,
                src: VReg(0),
                addr,
            },
        ];
        for t in [sse(), crate::target::sve(), crate::target::rvv()] {
            for inst in &ops {
                for lanes in [1, 16, 256] {
                    assert_eq!(t.cost.vl_cost(inst, |_| lanes), 0, "{} {inst:?}", t.name);
                }
            }
        }
    }

    #[test]
    fn misaligned_allocation_is_really_misaligned() {
        let t = sse();
        let mut m = Machine::new(&t, 2048);
        let base = m.mem.alloc_with_misalignment(64, 32, 4);
        assert_eq!(base % 32, 4);
        let aligned = m.mem.alloc(64, 32);
        assert_eq!(aligned % 32, 0);
    }
}

#[cfg(test)]
mod register_file_tests {
    //! The target-sized register file: the slot stride at its boundary,
    //! whole-slot writes, and guard-zone arithmetic at those widths.

    use super::*;
    use crate::isa::{AddrMode, MInst, SReg, VReg};
    use crate::target::{avx, neon64, sse};

    fn splat(dst: u32) -> MInst {
        MInst::Splat {
            ty: ScalarTy::I32,
            dst: VReg(dst),
            src: SReg(0),
        }
    }

    fn prog(insts: Vec<MInst>) -> MCode {
        MCode {
            insts,
            n_sregs: 4,
            n_vregs: 4,
            note: String::new(),
        }
    }

    #[test]
    fn slot_stride_switches_at_32_bytes() {
        // 16 and 32 bytes (SSE/AltiVec and AVX, and VLA at 128/256
        // bits) take 32-byte slots; 33 is the first wide width; 256 is
        // the VLA maximum.
        for vs in [1, 8, 16, 32] {
            assert_eq!(reg_stride(vs), 32, "vs={vs}");
        }
        for vs in [33, 64, MAX_VS] {
            assert_eq!(reg_stride(vs), MAX_VS, "vs={vs}");
        }
        // A machine's file grows in slots of that stride: no fixed-width
        // family carries 2048-bit registers.
        let fam = crate::target::sve();
        for (t, stride) in [
            (sse(), 32),
            (neon64(), 32),
            (avx(), 32),
            (fam.at_vl(128), 32),
            (fam.at_vl(256), 32),
            (fam.at_vl(512), MAX_VS),
            (fam.at_vl(2048), MAX_VS),
        ] {
            let mut m = Machine::new(&t, 4096);
            m.set_sreg(SReg(0), Value::Int(3));
            m.run(&prog(vec![splat(2)])).unwrap();
            assert_eq!(m.vregs.bytes.len(), 3 * stride, "{} VS={}", t.name, t.vs);
        }
    }

    #[test]
    fn every_write_defines_the_whole_slot() {
        // A 64-byte machine in 256-byte slots. A full-width splat of -1,
        // then a predicated load of 3 lanes over it: the inactive lanes
        // and the slot tail read zero. A merging add over 3 lanes keeps
        // the destination's other lanes. All three loops leave the same
        // registers.
        let t = crate::target::sve().at_vl(512);
        let c = prog(vec![
            splat(0),
            splat(1),
            MInst::MovImmI {
                dst: SReg(2),
                imm: 3,
            },
            MInst::SetVl {
                ty: ScalarTy::I32,
                dst: SReg(3),
                avl: SReg(2),
            },
            MInst::LoadVl {
                ty: ScalarTy::I32,
                dst: VReg(0),
                addr: AddrMode::base_disp(SReg(1), 0),
            },
            MInst::VBinVl {
                op: BinOp::Add,
                ty: ScalarTy::I32,
                dst: VReg(1),
                a: VReg(1),
                b: VReg(0),
            },
        ]);
        let build = || {
            let mut m = Machine::new(&t, 4096);
            let a = m.mem.alloc(64, 64);
            m.mem.slice_mut(a, 64).fill(0x11);
            m.set_sreg(SReg(0), Value::Int(-1));
            m.set_sreg(SReg(1), Value::Int(a as i64));
            m
        };
        let mut seed = build();
        seed.run(&c).unwrap();
        let v0 = seed.vbytes(VReg(0)).unwrap();
        assert_eq!(v0.len(), MAX_VS);
        assert!(v0[..12].iter().all(|&b| b == 0x11));
        assert!(v0[12..].iter().all(|&b| b == 0), "inactive lanes and tail");
        let v1 = seed.vbytes(VReg(1)).unwrap();
        for k in 0..16 {
            let want = if k < 3 { 0x1111_1111 - 1 } else { -1 };
            assert_eq!(lane(v1, ScalarTy::I32, k), Value::Int(want), "lane {k}");
        }
        assert!(v1[64..].iter().all(|&b| b == 0), "slot tail");

        let d = crate::decode::DecodedProgram::decode(&c, &t).unwrap();
        let mut dec = build();
        dec.run_decoded(&d).unwrap();
        let th = crate::thread::ThreadedProgram::thread(&d, &c);
        let mut thr = build();
        thr.run_threaded(&th).unwrap();
        for r in [VReg(0), VReg(1)] {
            let want = seed.vbytes(r).unwrap();
            assert_eq!(want, dec.vbytes(r).unwrap(), "decoded {r}");
            assert_eq!(want, thr.vbytes(r).unwrap(), "threaded {r}");
        }
    }

    #[test]
    fn memory_padding_is_target_sized() {
        // Guard padding at the representation boundary widths.
        assert_eq!(Memory::pad_for(16), 32);
        assert_eq!(Memory::pad_for(32), 64);
        assert_eq!(Memory::pad_for(33), 66);
        assert_eq!(Memory::pad_for(256), 512);
        // Sub-vector machines keep a 16-byte floor.
        assert_eq!(Memory::pad_for(1), 16);
        assert_eq!(Memory::pad_for(8), 16);
        // A fixed-width machine's image no longer pays 2048-bit pads.
        let t = sse();
        let m = Machine::new(&t, 0);
        assert_eq!(m.mem.pad(), 32);
    }

    #[test]
    fn guard_padding_keeps_floor_realignment_loads_in_bounds() {
        // AltiVec-style realignment issues a floor load at `a + VS` for
        // an element near the end of an array: with target-sized (not
        // MAX_VS) padding this must still be in bounds.
        let t = crate::target::altivec();
        let vs = t.vs;
        let mut m = Machine::new(&t, 4096);
        let a = m.mem.alloc(64, 16);
        // Address of the *last* element, misaligned window.
        m.set_sreg(SReg(0), Value::Int(a as i64 + 60));
        let c = MCode {
            insts: vec![
                MInst::LoadVFloor {
                    dst: VReg(0),
                    addr: AddrMode::base_disp(SReg(0), 0),
                },
                MInst::LoadVFloor {
                    dst: VReg(1),
                    addr: AddrMode::base_disp(SReg(0), vs as i64),
                },
            ],
            n_sregs: 1,
            n_vregs: 2,
            note: String::new(),
        };
        m.run(&c)
            .expect("floor loads near the array end must stay in bounds");
    }

    #[test]
    fn misaligned_boundary_allocations_respect_guards() {
        // Misaligned allocation at each boundary width: the deliberate
        // misalignment must never eat into the guard zone.
        for (vs, mis) in [(16usize, 15usize), (32, 31), (33, 1), (256, 129)] {
            let mut mem = Memory::for_width(8192, vs);
            let base = mem.alloc_with_misalignment(64, 32, mis) as usize;
            assert_eq!(base % 32, mis % 32, "vs={vs}");
            assert!(base >= GUARD + mem.pad(), "vs={vs}: base {base} in guard");
        }
    }

    #[test]
    fn lane_bounds_are_representation_independent() {
        // An out-of-range SetLane/GetLane must trap at the target's
        // width, never the register container's capacity: an SSE
        // register is a 32-byte inline payload, but lane 4 of i32
        // (bytes 16..20) is already out of range.
        let t = sse();
        let mut m = Machine::new(&t, 1024);
        m.set_sreg(SReg(0), Value::Int(7));
        let ok = MCode {
            insts: vec![
                MInst::Splat {
                    ty: ScalarTy::I32,
                    dst: VReg(0),
                    src: SReg(0),
                },
                MInst::SetLane {
                    ty: ScalarTy::I32,
                    dst: VReg(0),
                    lane: 3,
                    src: SReg(0),
                },
            ],
            n_sregs: 1,
            n_vregs: 1,
            note: String::new(),
        };
        m.run(&ok).unwrap();
        for lane in [4u8, 9] {
            let bad = MCode {
                insts: vec![MInst::GetLane {
                    ty: ScalarTy::I32,
                    dst: SReg(1),
                    src: VReg(0),
                    lane,
                }],
                n_sregs: 2,
                n_vregs: 1,
                note: String::new(),
            };
            let err = m.run(&bad).unwrap_err();
            assert!(err.0.contains("out of range"), "lane {lane}: {err}");
        }
    }
}
