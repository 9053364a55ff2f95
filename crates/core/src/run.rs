//! Execution harness: load a compiled kernel into the virtual SIMD
//! machine, bind arguments and arrays, and read results back — the
//! machine lifecycle behind `Engine::execute` — plus the reference
//! oracle and the array comparer.

use vapor_ir::{interpret, ArrayData, Bindings, Kernel, Value};
use vapor_targets::{Machine, Memory, TargetDesc, Trap, MAX_VS};

use crate::pipeline::Compiled;

/// Array placement policy of the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Every array on a `MAX_VS` boundary (256 bytes — the widest VLA
    /// register) — what a JIT/runtime that owns allocation guarantees.
    Aligned,
    /// Deliberately misalign every base by the given byte offset, which
    /// must be below `MAX_VS` (stress/ablation runs). Only meaningful for
    /// pipelines that do not own allocation (the optimizing online and
    /// native flows): the naive JIT folds `base_aligned` guards to true
    /// *because* its own allocator aligns, so feeding its code
    /// misaligned bases violates the contract and traps.
    Misaligned(usize),
}

/// Array placements of one execution: (name, base, length, element type).
pub(crate) type Placements = Vec<(String, u64, usize, vapor_ir::ScalarTy)>;

/// Build a machine, bind scalars, and place arrays per `policy`,
/// optionally recycling a memory arena from a previous execution (the
/// engine's pooled-execution path): the buffer is re-zeroed over the
/// required capacity instead of freshly allocated. Pass `None` for a
/// cold allocation. The policy and every binding are checked before the
/// arena is taken out of `arena`, so on an error the caller still holds
/// it.
pub(crate) fn setup_machine<'t>(
    target: &'t TargetDesc,
    compiled: &Compiled,
    env: &Bindings,
    policy: AllocPolicy,
    arena: &mut Option<Vec<u8>>,
) -> Result<(Machine<'t>, Placements), Trap> {
    if let AllocPolicy::Misaligned(k @ MAX_VS..) = policy {
        return Err(Trap(format!(
            "misalignment of {k} bytes: must be below {MAX_VS}"
        )));
    }
    let f = &compiled.func;
    // Memory: all arrays + the machine's guard padding either side +
    // alignment slack. The padding is target-sized (`Memory::pad_for`),
    // so a 16-byte-register machine no longer carries 2048-bit guard
    // zones per array. Checking bindings here (not with `unwrap_or(0)`)
    // so a missing array is reported by name up front instead of
    // trapping later with a confusing out-of-bounds message from
    // undersized memory.
    let pad = Memory::pad_for(target.vs.max(1));
    let mut total = 4096usize;
    for a in &f.arrays {
        let data = env.array(&a.name).ok_or_else(|| {
            Trap(format!(
                "unbound array {} (kernel {})",
                a.name, compiled.name
            ))
        })?;
        if data.elem != a.elem {
            return Err(Trap(format!(
                "array {} bound with element type {}, declared {}",
                a.name, data.elem, a.elem
            )));
        }
        total += data.bytes.len() + 2 * pad + 2 * MAX_VS;
    }
    if let Some(p) = f.params.iter().find(|p| env.scalar(&p.name).is_none()) {
        return Err(Trap(format!("unbound scalar parameter {}", p.name)));
    }
    let vs = target.vs.max(1);
    let mem = match arena.take() {
        Some(buf) => Memory::recycled(buf, total, vs),
        None => Memory::for_width(total, vs),
    };
    let mut m = Machine::with_memory(target, mem);

    for (i, p) in f.params.iter().enumerate() {
        let v = env.scalar(&p.name).expect("checked before the arena");
        m.set_sreg(compiled.jit.param_regs[i], v.coerce(p.ty));
    }
    let mut bases = Vec::new();
    for (i, a) in f.arrays.iter().enumerate() {
        let data = env.array(&a.name).expect("checked during memory sizing");
        let base = match policy {
            AllocPolicy::Aligned => m.mem.alloc(data.bytes.len(), MAX_VS),
            AllocPolicy::Misaligned(k) => {
                m.mem.alloc_with_misalignment(data.bytes.len(), MAX_VS, k)
            }
        };
        m.mem
            .slice_mut(base, data.bytes.len())
            .copy_from_slice(&data.bytes);
        m.set_sreg(compiled.jit.array_base_regs[i], Value::Int(base as i64));
        m.set_sreg(
            compiled.jit.array_len_regs[i],
            Value::Int(data.bytes.len() as i64),
        );
        bases.push((a.name.clone(), base, data.bytes.len(), a.elem));
    }
    Ok((m, bases))
}

/// Copy final array contents out of machine memory.
pub(crate) fn read_back(m: &Machine<'_>, bases: Placements) -> Bindings {
    let mut out = Bindings::new();
    for (name, base, len, elem) in bases {
        let bytes = m.mem.slice(base, len).to_vec();
        out.set_array(&name, ArrayData { elem, bytes });
    }
    out
}

/// Run the reference interpreter (the oracle) over the same bindings.
///
/// # Errors
/// Propagates interpreter errors (unbound names, out-of-bounds).
pub fn reference(kernel: &Kernel, env: &Bindings) -> Result<Bindings, vapor_ir::IrError> {
    let mut b = env.clone();
    interpret(kernel, &mut b)?;
    Ok(b)
}

/// Compare two array states bit-exactly for integers and with a small
/// relative tolerance for floats (vector reduction reassociates float
/// sums, which is the paper's semantics too).
pub fn arrays_match(expected: &ArrayData, actual: &ArrayData, tol: f64) -> Result<(), String> {
    if expected.elem != actual.elem || expected.len() != actual.len() {
        return Err(format!(
            "shape mismatch: {}×{} vs {}×{}",
            expected.elem,
            expected.len(),
            actual.elem,
            actual.len()
        ));
    }
    for i in 0..expected.len() {
        match (expected.get(i), actual.get(i)) {
            (Value::Int(a), Value::Int(b)) => {
                if a != b {
                    return Err(format!("element {i}: expected {a}, got {b}"));
                }
            }
            (Value::Float(a), Value::Float(b)) => {
                let scale = a.abs().max(b.abs()).max(1.0);
                if (a - b).abs() > tol * scale {
                    return Err(format!("element {i}: expected {a}, got {b}"));
                }
            }
            _ => return Err(format!("element {i}: domain mismatch")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecError, ExecRequest, Flow};
    use vapor_frontend::parse_kernel;
    use vapor_ir::ScalarTy;
    use vapor_targets::{altivec, neon64, scalar_only, sse};

    fn saxpy() -> Kernel {
        parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) {
               for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
             }",
        )
        .unwrap()
    }

    fn saxpy_env(n: usize) -> Bindings {
        let mut env = Bindings::new();
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| 100.0 - i as f64).collect();
        env.set_int("n", n as i64)
            .set_float("a", 3.0)
            .set_array("x", ArrayData::from_floats(ScalarTy::F32, &x))
            .set_array("y", ArrayData::from_floats(ScalarTy::F32, &y));
        env
    }

    #[test]
    fn saxpy_matches_oracle_on_every_flow_and_target() {
        let e = Engine::new();
        let k = saxpy();
        for n in [0usize, 1, 7, 64, 65] {
            let env = saxpy_env(n);
            let oracle = reference(&k, &env).unwrap();
            for t in [sse(), altivec(), neon64(), scalar_only()] {
                for flow in Flow::ALL {
                    let r = e
                        .execute(&ExecRequest::new(&k, &t, &env).flow(flow))
                        .unwrap_or_else(|e| panic!("{flow} on {}: {e}", t.name));
                    arrays_match(oracle.array("y").unwrap(), r.out.array("y").unwrap(), 1e-6)
                        .unwrap_or_else(|e| panic!("{flow} on {} (n={n}): {e}", t.name));
                    assert!(r.stats.cycles > 0 || n == 0);
                }
            }
        }
    }

    #[test]
    fn baseline_and_decoded_dispatch_agree() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(129);
        let fast = e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let c = &fast.compiled;
        let slow = e
            .run_compiled(&t, c, &env, AllocPolicy::Aligned, |m| m.run(&c.jit.code))
            .unwrap();
        arrays_match(
            slow.out.array("y").unwrap(),
            fast.out.array("y").unwrap(),
            0.0,
        )
        .unwrap();
        assert_eq!(fast.stats.cycles, slow.stats.cycles);
    }

    #[test]
    fn missing_array_is_reported_by_name_up_front() {
        let k = saxpy();
        let t = sse();
        let mut env = Bindings::new();
        env.set_int("n", 8)
            .set_float("a", 3.0)
            .set_array("x", ArrayData::from_floats(ScalarTy::F32, &[1.0; 8]));
        // "y" is unbound: the error must name it, not trap later with an
        // out-of-bounds access into undersized memory.
        let err = Engine::new()
            .execute(&ExecRequest::new(&k, &t, &env))
            .unwrap_err();
        assert!(matches!(err, ExecError::Trap(_)), "{err}");
        assert!(err.to_string().contains("unbound array y"), "{err}");
    }

    #[test]
    fn misalignment_of_max_vs_or_more_is_rejected_up_front() {
        // Below `MAX_VS` every offset is a real misalignment; at 256 the
        // base would silently land aligned again, and beyond the arena's
        // slack the allocator would run out of memory.
        let (e, k, t, env) = (Engine::new(), saxpy(), sse(), saxpy_env(8));
        let aligned = e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        for mis in [256, 5_000, usize::MAX / 2] {
            let policy = AllocPolicy::Misaligned(mis);
            let req = ExecRequest::new(&k, &t, &env).policy(policy);
            let c = &aligned.compiled;
            for err in [
                e.execute(&req).unwrap_err(),
                e.run_compiled(&t, c, &env, policy, |m| m.run(&c.jit.code))
                    .unwrap_err(),
            ] {
                assert!(matches!(err, ExecError::Trap(_)), "{err}");
                assert!(err.to_string().contains(&format!("{mis} bytes")), "{err}");
            }
        }
    }

    #[test]
    fn misaligned_bases_work_on_optimizing_and_native_flows() {
        // The opt-online and native pipelines do not own allocation:
        // their code carries runtime alignment guards (or unaligned
        // accesses) and must stay correct when the caller hands over
        // deliberately misaligned arrays.
        let e = Engine::new();
        let k = saxpy();
        for n in [7usize, 64, 65] {
            let env = saxpy_env(n);
            let oracle = reference(&k, &env).unwrap();
            for t in [sse(), altivec(), neon64(), scalar_only()] {
                for flow in [
                    Flow::SplitVectorOpt,
                    Flow::SplitScalarOpt,
                    Flow::NativeVector,
                    Flow::NativeScalar,
                ] {
                    for mis in [4usize, 8, 12] {
                        let req = ExecRequest::new(&k, &t, &env)
                            .flow(flow)
                            .policy(AllocPolicy::Misaligned(mis));
                        let r = e.execute(&req).unwrap_or_else(|e| {
                            panic!("{flow} on {} (n={n}, mis={mis}): {e}", t.name)
                        });
                        arrays_match(oracle.array("y").unwrap(), r.out.array("y").unwrap(), 1e-6)
                            .unwrap_or_else(|e| {
                                panic!("{flow} on {} (n={n}, mis={mis}): {e}", t.name)
                            });
                    }
                }
            }
        }
    }

    #[test]
    fn misaligned_bases_cost_more_than_aligned_on_sse() {
        // The §V-B story: denied alignment, the optimizing flow's guards
        // fail and it falls back to slower unaligned/scalar paths.
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(1024);
        let req = ExecRequest::new(&k, &t, &env);
        let aligned = e.execute(&req).unwrap().stats.cycles;
        let misaligned = e
            .execute(&req.clone().policy(AllocPolicy::Misaligned(4)))
            .unwrap()
            .stats
            .cycles;
        assert!(
            misaligned > aligned,
            "misaligned bases should cost extra cycles: {misaligned} vs {aligned}"
        );
    }

    #[test]
    fn vectorization_speeds_up_saxpy_on_sse() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(1024);
        let req = ExecRequest::new(&k, &t, &env);
        let cv = e.execute(&req).unwrap().stats.cycles;
        let cs = e
            .execute(&req.clone().flow(Flow::SplitScalarOpt))
            .unwrap()
            .stats
            .cycles;
        let speedup = cs as f64 / cv as f64;
        assert!(
            speedup > 2.0,
            "expected >2x vector speedup on SSE (VF=4), got {speedup:.2} ({cs} vs {cv})"
        );
    }
}
