//! The execution API of the compile service: one typed request, one
//! entry point.
//!
//! [`ExecRequest`] is a builder over the *source-level* inputs (kernel,
//! flow, target, bindings) plus typed execution options, and
//! [`Engine::execute`] resolves it end to end in one straight line: one
//! cache-key derivation, the compile cache (backed by the
//! offline tier and the persistent artifact store), and the pooled
//! execution arenas. A request storm therefore compiles each distinct
//! tuple once, runs its one decode at every VL, and allocates machine
//! memory only until the arena pool warms up.
//!
//! There is one execution path: the pre-decoded, fused program
//! ([`vapor_targets::DecodedProgram`]). The VM's other forms of a
//! compilation — the baseline interpreter (`Machine::run`), the unfused
//! decode and the closure-threaded lowering
//! ([`vapor_targets::ThreadedProgram`]) — are `vapor_targets` APIs that
//! callers run over the same machine lifecycle with
//! [`Engine::run_compiled`]; the test suites use them as references.

use std::fmt;
use std::sync::Arc;

use vapor_ir::{Bindings, Kernel};
use vapor_targets::{ExecStats, Machine, TargetDesc, Trap};

use crate::engine::{exec_target, Engine};
use crate::pipeline::{CompileConfig, Compiled, Flow, PipelineError};
use crate::run::{read_back, setup_machine, AllocPolicy};

/// One execution request against an [`Engine`]: what to run (kernel,
/// flow, target, bindings) and how (config, VL, array placement).
/// Build with [`ExecRequest::new`] and the chainable setters; the
/// defaults are aligned arrays and the target's natural vector length.
#[derive(Debug, Clone)]
pub struct ExecRequest<'a> {
    pub(crate) kernel: &'a Kernel,
    pub(crate) target: &'a TargetDesc,
    pub(crate) env: &'a Bindings,
    pub(crate) flow: Flow,
    pub(crate) cfg: CompileConfig,
    pub(crate) vl_bits: Option<usize>,
    pub(crate) policy: AllocPolicy,
}

impl<'a> ExecRequest<'a> {
    /// A request to run `kernel` on `target` against `env` with the
    /// default options: [`Flow::SplitVectorOpt`], aligned arrays, the
    /// target's natural VL.
    pub fn new(kernel: &'a Kernel, target: &'a TargetDesc, env: &'a Bindings) -> ExecRequest<'a> {
        ExecRequest {
            kernel,
            target,
            env,
            flow: Flow::SplitVectorOpt,
            cfg: CompileConfig::default(),
            vl_bits: None,
            policy: AllocPolicy::Aligned,
        }
    }

    /// Compilation flow (default [`Flow::SplitVectorOpt`]).
    pub fn flow(mut self, flow: Flow) -> ExecRequest<'a> {
        self.flow = flow;
        self
    }

    /// Compilation knobs beyond the flow (default all off).
    pub fn config(mut self, cfg: CompileConfig) -> ExecRequest<'a> {
        self.cfg = cfg;
        self
    }

    /// Concrete runtime vector length in bits. Defaults to the target's
    /// natural width (`vs * 8`); required to differ only on VLA targets,
    /// where it selects the machine the one decode runs on. Fixed-width targets
    /// accept only their own width — the same contract as
    /// `Engine::specialize`.
    pub fn vl_bits(mut self, vl_bits: usize) -> ExecRequest<'a> {
        self.vl_bits = Some(vl_bits);
        self
    }

    /// Array placement policy (default [`AllocPolicy::Aligned`]).
    pub fn policy(mut self, policy: AllocPolicy) -> ExecRequest<'a> {
        self.policy = policy;
        self
    }
}

/// Result of [`Engine::execute`].
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Final array contents, keyed by array name.
    pub out: Bindings,
    /// Cycle/instruction counts from the VM.
    pub stats: ExecStats,
    /// The (shared, cached) compilation that was executed.
    pub compiled: Arc<Compiled>,
}

/// Error of [`Engine::execute`]: the request failed to compile, or the
/// compiled code trapped.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A pipeline stage rejected the request.
    Compile(PipelineError),
    /// The VM trapped (contract violation or missing binding).
    Trap(Trap),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Compile(e) => e.fmt(f),
            ExecError::Trap(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PipelineError> for ExecError {
    fn from(e: PipelineError) -> ExecError {
        ExecError::Compile(e)
    }
}

impl From<Trap> for ExecError {
    fn from(e: Trap) -> ExecError {
        ExecError::Trap(e)
    }
}

impl Engine {
    /// Serve one execution request end to end: derive the cache key
    /// (once), look the compilation up by it (through the compile cache
    /// and, when attached, the persistent artifact tier), resolve its
    /// decoded program at the request's VL, bind the
    /// request's arrays into a machine whose memory arena is recycled
    /// from the engine's pool when one is warm, run, and read the
    /// results back. The arena returns to the pool afterwards —
    /// including when execution traps.
    ///
    /// # Errors
    /// [`ExecError::Compile`] when any pipeline stage rejects the
    /// request (including illegal VLs and fixed-width/VL mismatches);
    /// [`ExecError::Trap`] on VM contract violations and missing
    /// bindings.
    pub fn execute(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
        // Default VL: the target's own width — fixed targets (including
        // the 0-bit scalar-only one) take their baked width; the VLA
        // families take their 128-bit minimum.
        let vl = req.vl_bits.unwrap_or(req.target.vs * 8);
        let (compiled, prog) = self.specialize(req.kernel, req.flow, req.target, &req.cfg, vl)?;
        let exec_t = exec_target(req.target, vl);
        self.run_compiled(&exec_t, &compiled, req.env, req.policy, |m| {
            m.run_decoded(&prog)
        })
    }

    /// The machine lifecycle of [`Engine::execute`], for callers that
    /// bring their own execution form of `compiled` (the test suites'
    /// reference programs: `Machine::run`, an unfused decode, a
    /// `ThreadedProgram`): pooled arena in, bind `env` into a machine
    /// for the concrete-width `exec_target`, `run` one dispatch over
    /// it, read back, arena out.
    ///
    /// # Errors
    /// [`ExecError::Trap`] on missing bindings and whatever `run` traps
    /// with.
    pub fn run_compiled(
        &self,
        exec_target: &TargetDesc,
        compiled: &Arc<Compiled>,
        env: &Bindings,
        policy: AllocPolicy,
        run: impl FnOnce(&mut Machine<'_>) -> Result<ExecStats, Trap>,
    ) -> Result<ExecOutcome, ExecError> {
        let mut arena = self.take_arena();
        let setup = setup_machine(exec_target, compiled, env, policy, &mut arena);
        // A binding error leaves the arena untaken: back to the pool.
        if let Some(buf) = arena {
            self.put_arena(buf);
        }
        let (mut m, bases) = setup?;
        let outcome = run(&mut m);
        // The arena goes back to the pool even when execution traps —
        // a trapping tenant must not bleed the pool dry.
        let result = outcome.map(|stats| (read_back(&m, bases), stats));
        self.put_arena(m.into_arena());
        let (out, stats) = result?;
        Ok(ExecOutcome {
            out,
            stats,
            compiled: Arc::clone(compiled),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{arrays_match, reference};
    use vapor_frontend::parse_kernel;
    use vapor_ir::{ArrayData, ScalarTy};
    use vapor_targets::{sse, ThreadedProgram};

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

    /// The VM's reference forms of a request's compilation — the
    /// baseline interpreter and the threaded lowering of the program the
    /// request ran — over the engine's machine lifecycle.
    #[test]
    fn all_tiers_agree_and_match_the_oracle() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(100);
        let oracle = reference(&k, &env).unwrap();
        let decoded = e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let c = &decoded.compiled;
        let cfg = CompileConfig::default();
        let (_, prog) = e
            .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, 128)
            .unwrap();
        let prog = ThreadedProgram::thread(&prog, &c.jit.code);
        let aligned = AllocPolicy::Aligned;
        let baseline = e
            .run_compiled(&t, c, &env, aligned, |m| m.run(&c.jit.code))
            .unwrap();
        let threaded = e
            .run_compiled(&t, c, &env, aligned, |m| m.run_threaded(&prog))
            .unwrap();
        for (name, r) in [
            ("decoded", &decoded),
            ("baseline", &baseline),
            ("threaded", &threaded),
        ] {
            arrays_match(oracle.array("y").unwrap(), r.out.array("y").unwrap(), 1e-6)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            assert_eq!(r.stats.cycles, decoded.stats.cycles, "{name} cycles");
        }
        // One compile served every form.
        assert_eq!(e.stats().misses, 1);
        assert!(Arc::ptr_eq(&decoded.compiled, &threaded.compiled));
    }

    #[test]
    fn vla_requests_specialize_per_vl() {
        let e = Engine::new();
        let k = saxpy();
        let t = vapor_targets::sve();
        let env = saxpy_env(100);
        let r128 = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(128))
            .unwrap();
        let r1024 = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(1024))
            .unwrap();
        assert!(
            r1024.stats.cycles < r128.stats.cycles,
            "wider VL must retire the loop in fewer cycles: {} vs {}",
            r1024.stats.cycles,
            r128.stats.cycles
        );
        assert_eq!(e.stats().misses, 1, "one artifact serves every VL");
        let oracle = reference(&k, &env).unwrap();
        for r in [&r128, &r1024] {
            arrays_match(oracle.array("y").unwrap(), r.out.array("y").unwrap(), 1e-6).unwrap();
        }
    }

    #[test]
    fn arena_pool_recycles_across_requests() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(64);
        let req = ExecRequest::new(&k, &t, &env);
        e.execute(&req.clone()).unwrap();
        e.execute(&req.clone()).unwrap();
        e.execute(&req.clone()).unwrap();
        let s = e.stats();
        assert_eq!(s.pool_allocs, 1, "only the cold request allocates");
        assert_eq!(s.pool_reuses, 2, "warm requests recycle the arena");
    }

    #[test]
    fn pool_survives_traps() {
        let e = Engine::new();
        let k = saxpy();
        let t = sse();
        let env = saxpy_env(64);
        // Warm the pool, then trap (misaligned bases violate the naive
        // JIT's allocation contract), then fail to bind twice (an array
        // of the wrong element type, a missing array), then run clean.
        e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let trap = e.execute(
            &ExecRequest::new(&k, &t, &env)
                .flow(Flow::SplitVectorNaive)
                .policy(AllocPolicy::Misaligned(4)),
        );
        assert!(matches!(trap, Err(ExecError::Trap(_))));
        let mut wrong_elem = env.clone();
        wrong_elem.set_array("y", ArrayData::from_ints(ScalarTy::I32, &[0; 64]));
        let err = e
            .execute(&ExecRequest::new(&k, &t, &wrong_elem))
            .unwrap_err();
        assert!(err.to_string().contains("element type"), "{err}");
        let mut missing = Bindings::new();
        missing.set_int("n", 64).set_float("a", 3.0);
        let err = e.execute(&ExecRequest::new(&k, &t, &missing)).unwrap_err();
        assert!(err.to_string().contains("unbound array"), "{err}");
        e.execute(&ExecRequest::new(&k, &t, &env)).unwrap();
        let s = e.stats();
        assert_eq!(
            (s.pool_allocs, s.pool_reuses),
            (1, 4),
            "trapped and unbindable requests must return their arena"
        );
    }

    #[test]
    fn tiers_share_one_exec_form_entry_per_key_and_vl() {
        // Every tier and every VL runs the compilation's one decode: a
        // request at 512 bits, the threaded lowering of that decode, and
        // the program served at 1024 bits.
        let e = Engine::new();
        let k = saxpy();
        let t = vapor_targets::sve();
        let cfg = CompileConfig::default();
        let env = saxpy_env(100);
        let (exec, aligned) = (t.at_vl(512), AllocPolicy::Aligned);
        let c = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let decoded = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(512))
            .unwrap();
        assert!(Arc::ptr_eq(&decoded.compiled, &c));
        let prog = ThreadedProgram::thread(&c.jit.decoded, &c.jit.code);
        let threaded = e
            .run_compiled(&exec, &c, &env, aligned, |m| m.run_threaded(&prog))
            .unwrap();
        assert_eq!(threaded.stats, decoded.stats);
        for vl in [512, 1024] {
            let (_, p) = e
                .specialize(&k, Flow::SplitVectorOpt, &t, &cfg, vl)
                .unwrap();
            assert!(Arc::ptr_eq(&p, &c.jit.decoded), "VL={vl}");
        }
        // One compile lookup per compile, request and specialization.
        let s = e.stats();
        assert_eq!((s.hits, s.misses), (3, 1), "hits + misses == lookups");
    }

    #[test]
    fn invalid_requests_fail_as_compile_errors() {
        let e = Engine::new();
        let k = saxpy();
        let env = saxpy_env(8);
        let t = sse();
        let err = e
            .execute(&ExecRequest::new(&k, &t, &env).vl_bits(256))
            .unwrap_err();
        assert!(matches!(err, ExecError::Compile(_)), "{err}");
        assert!(err.to_string().contains("fixed at 128 bits"), "{err}");
        let s = e.stats();
        assert_eq!((s.misses, s.entries), (0, 0), "rejected before compiling");
    }
}
