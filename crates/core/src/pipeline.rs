//! The compilation flows of the paper's Figure 4, end to end.
//!
//! * **Split flows** (the contribution): offline split-vectorization →
//!   *encoded* portable bytecode → decode (the interoperability boundary)
//!   → online compilation by the naive (Mono-class) or optimizing
//!   (gcc4cli-class) pipeline.
//! * **Native flows** (the baseline): target-aware vectorization →
//!   native code generator, and the plain scalar variant.
//!
//! The code has the paper's two halves: `Offline` is the offline stage's
//! output (encoded bytes, in-memory function, decoded function,
//! reports), built once per kernel, `OfflineShape` and config;
//! `Offline::online` consumes it for one (flow, target). Only
//! native-vector feeds the target to the offline stage, so one artifact
//! serves every target of the split-vector flows, and one more every
//! target of the scalar flows.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use vapor_bytecode::{decode_module, encode_module, BcFunction, BcModule};
use vapor_ir::Kernel;
use vapor_jit::{CompiledKernel, JitOptions, Pipeline};
use vapor_targets::TargetDesc;
use vapor_vectorizer::{emit_scalar_function, vectorize, LoopReport, VectorizeOptions};

/// A compilation flow selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Split vectorized bytecode → naive JIT (paper label A).
    SplitVectorNaive,
    /// Split scalar bytecode → naive JIT (paper label C).
    SplitScalarNaive,
    /// Split vectorized bytecode → optimizing online compiler (label D).
    SplitVectorOpt,
    /// Split scalar bytecode → optimizing online compiler.
    SplitScalarOpt,
    /// Target-aware vectorization → native code generator (label E).
    NativeVector,
    /// Plain scalar compilation by the native code generator (label F).
    NativeScalar,
}

impl Flow {
    /// All flows.
    pub const ALL: [Flow; 6] = [
        Flow::SplitVectorNaive,
        Flow::SplitScalarNaive,
        Flow::SplitVectorOpt,
        Flow::SplitScalarOpt,
        Flow::NativeVector,
        Flow::NativeScalar,
    ];

    /// Whether this flow runs the offline vectorizer.
    pub fn vectorized(self) -> bool {
        matches!(
            self,
            Flow::SplitVectorNaive | Flow::SplitVectorOpt | Flow::NativeVector
        )
    }

    /// The online pipeline used.
    pub fn pipeline(self) -> Pipeline {
        match self {
            Flow::SplitVectorNaive | Flow::SplitScalarNaive => Pipeline::NaiveJit,
            Flow::SplitVectorOpt | Flow::SplitScalarOpt => Pipeline::OptJit,
            Flow::NativeVector | Flow::NativeScalar => Pipeline::Native,
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flow::SplitVectorNaive => "split-vector/naive-jit",
            Flow::SplitScalarNaive => "split-scalar/naive-jit",
            Flow::SplitVectorOpt => "split-vector/opt-online",
            Flow::SplitScalarOpt => "split-scalar/opt-online",
            Flow::NativeVector => "native-vector",
            Flow::NativeScalar => "native-scalar",
        };
        f.write_str(s)
    }
}

/// Error of any pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError(pub String);

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline error: {}", self.0)
    }
}

impl std::error::Error for PipelineError {}

/// Compilation knobs beyond the flow itself.
///
/// `Eq + Hash` because the engine's compilation cache keys on it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CompileConfig {
    /// Disable the offline alignment optimizations/hints (§V-A(b)
    /// ablation).
    pub no_alignment_opts: bool,
    /// Disable the offline optimized-realignment scheme (§III-A design
    /// choice ablation).
    pub no_realign_reuse: bool,
}

/// A fully compiled kernel plus the artifacts the experiments measure.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Kernel name.
    pub name: String,
    /// The bytecode consumed by the online stage (post interop boundary
    /// for split flows). Shared with the engine's offline artifact, so
    /// every target and online pipeline that consumes one artifact holds
    /// the same function.
    pub func: Arc<BcFunction>,
    /// Machine code + binding contract.
    pub jit: CompiledKernel,
    /// Encoded bytecode size in bytes (split flows measure this).
    pub bytecode_bytes: usize,
    /// Wall-clock time of the online stage only (the "JIT compile time"
    /// of §V-A(c)).
    pub online_time: Duration,
    /// Offline vectorization reports (empty for scalar flows and for
    /// artifacts loaded from the persistent store).
    pub reports: Vec<LoopReport>,
}

/// What a flow's offline stage produces, and so which flows can share
/// one offline artifact: the target is an input only of
/// [`Flow::NativeVector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OfflineShape {
    /// Target-independent vectorized bytecode (both split-vector flows).
    Vector,
    /// Scalar bytecode (both split-scalar flows and native-scalar).
    Scalar,
    /// Target-aware vectorized code (native-vector), one per target.
    Native,
}

impl Flow {
    pub(crate) fn offline_shape(self) -> OfflineShape {
        match self {
            Flow::SplitVectorNaive | Flow::SplitVectorOpt => OfflineShape::Vector,
            Flow::NativeVector => OfflineShape::Native,
            Flow::SplitScalarNaive | Flow::SplitScalarOpt | Flow::NativeScalar => {
                OfflineShape::Scalar
            }
        }
    }
}

/// One offline artifact and what the online stage consumes of it. The
/// engine builds it once per (kernel, `OfflineShape`, config) and
/// every target and online pipeline of that shape consumes it.
#[derive(Debug)]
pub(crate) struct Offline {
    /// The encoded bytecode: the interoperability boundary, and what the
    /// persistent artifact store writes.
    pub(crate) bytes: Vec<u8>,
    /// The in-memory function, which native pipelines consume.
    func: Arc<BcFunction>,
    /// `bytes` decoded, which split pipelines consume: decoded on first
    /// use, once per artifact instead of once per target.
    decoded: OnceLock<Arc<BcFunction>>,
    reports: Vec<LoopReport>,
}

impl Offline {
    /// Run the offline stage of `flow` (only native-vector reads
    /// `target`), verify its function and encode it.
    ///
    /// # Errors
    /// Propagates verifier failures (offline-stage bugs).
    pub(crate) fn build(
        kernel: &Kernel,
        flow: Flow,
        target: &TargetDesc,
        cfg: &CompileConfig,
    ) -> Result<Offline, PipelineError> {
        let (func, reports) = match flow.offline_shape() {
            OfflineShape::Scalar => (emit_scalar_function(kernel), Vec::new()),
            shape => {
                let opts = VectorizeOptions {
                    native: (shape == OfflineShape::Native).then(|| target.clone()),
                    no_alignment_opts: cfg.no_alignment_opts,
                    no_realign_reuse: cfg.no_realign_reuse,
                };
                let r = vectorize(kernel, &opts);
                (r.func, r.reports)
            }
        };
        vapor_bytecode::verify_function(&func)
            .map_err(|e| PipelineError(format!("{}: {e}", kernel.name)))?;
        let module = BcModule::single(func);
        let bytes = encode_module(&module);
        Ok(Offline {
            func: Arc::new(single_function(&kernel.name, module)?),
            bytes,
            decoded: OnceLock::new(),
            reports,
        })
    }

    /// An artifact from encoded bytes (the persistent store's): decoded
    /// once, and that decode serves native and split pipelines alike.
    /// The bytes are untrusted, so the function is verified as the
    /// offline stage verifies its own output: a checksum proves the
    /// bytes intact, not valid.
    pub(crate) fn from_bytes(name: &str, bytes: Vec<u8>) -> Result<Offline, PipelineError> {
        let func = decode_function(name, &bytes)?;
        vapor_bytecode::verify_function(&func)
            .map_err(|e| PipelineError(format!("{name}: {e}")))?;
        let func = Arc::new(func);
        Ok(Offline {
            bytes,
            func: Arc::clone(&func),
            decoded: OnceLock::from(func),
            reports: Vec::new(),
        })
    }

    /// The online stage: JIT-compile this artifact for `target` under
    /// `flow`'s pipeline.
    pub(crate) fn online(
        &self,
        name: &str,
        flow: Flow,
        target: &TargetDesc,
    ) -> Result<Compiled, PipelineError> {
        let func = if flow.pipeline() == Pipeline::Native {
            &self.func
        } else if let Some(decoded) = self.decoded.get() {
            decoded
        } else {
            // Racing first consumers may both decode; one result stays.
            let decoded = Arc::new(decode_function(name, &self.bytes)?);
            self.decoded.get_or_init(|| decoded)
        };
        let opts = JitOptions::new(flow.pipeline());
        let start = Instant::now();
        let jit = vapor_jit::compile(func, target, &opts)
            .map_err(|e| PipelineError(format!("{flow}: {e}")))?;
        let online_time = start.elapsed();
        Ok(Compiled {
            name: name.to_owned(),
            func: Arc::clone(func),
            jit,
            bytecode_bytes: self.bytes.len(),
            online_time,
            reports: self.reports.clone(),
        })
    }
}

/// The one function of a kernel's module. A module holding any other
/// number is rejected, never truncated: the bytes may come from disk.
fn single_function(name: &str, module: BcModule) -> Result<BcFunction, PipelineError> {
    let n = module.funcs.len();
    match <[BcFunction; 1]>::try_from(module.funcs) {
        Ok([func]) => Ok(func),
        Err(_) => Err(PipelineError(format!(
            "{name}: bytecode module holds {n} functions, not 1"
        ))),
    }
}

fn decode_function(name: &str, bytes: &[u8]) -> Result<BcFunction, PipelineError> {
    let module = decode_module(bytes).map_err(|e| PipelineError(e.to_string()))?;
    single_function(name, module)
}

/// Run *only* the online stage over an already-encoded offline artifact
/// — the warm-process path of the persistent artifact tier: the
/// expensive offline vectorization was paid by an earlier process, this
/// one just decodes the portable bytecode and JIT-compiles it. The
/// result is execution-equivalent to a fresh
/// [`Engine::compile`](crate::Engine::compile) of the same tuple (bit-identical machine state and `vm_cycles`); only the
/// offline [`Compiled::reports`] are absent.
///
/// # Errors
/// Returns a [`PipelineError`] when the bytes do not decode (a corrupt
/// or truncated artifact), the function does not verify, or the online
/// stage rejects it.
pub fn online_compile(
    name: &str,
    bytes: &[u8],
    flow: Flow,
    target: &TargetDesc,
) -> Result<Compiled, PipelineError> {
    Offline::from_bytes(name, bytes.to_vec())?.online(name, flow, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use vapor_frontend::parse_kernel;
    use vapor_targets::sse;

    fn saxpy() -> Kernel {
        parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) {
               for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
             }",
        )
        .unwrap()
    }

    #[test]
    fn all_flows_compile_saxpy_on_sse() {
        let k = saxpy();
        let t = sse();
        let e = Engine::new();
        for flow in Flow::ALL {
            let c = e
                .compile(&k, flow, &t, &CompileConfig::default())
                .unwrap_or_else(|e| panic!("{flow}: {e}"));
            assert!(!c.jit.code.is_empty(), "{flow} produced empty code");
            if flow.vectorized() {
                assert!(
                    c.reports.iter().any(|r| r.vectorized),
                    "{flow}: saxpy should vectorize; reports: {:?}",
                    c.reports
                );
            }
        }
    }

    #[test]
    fn modules_without_exactly_one_function_are_rejected() {
        let k = saxpy();
        let c = Engine::new()
            .compile(&k, Flow::SplitVectorOpt, &sse(), &CompileConfig::default())
            .unwrap();
        let f = BcFunction::clone(&c.func);
        let two = encode_module(&BcModule {
            funcs: vec![f.clone(), f],
        });
        let none = encode_module(&BcModule::new());
        for bytes in [two, none] {
            let err = online_compile("saxpy", &bytes, Flow::SplitVectorOpt, &sse()).unwrap_err();
            assert!(err.0.contains("not 1"), "{err}");
        }
    }

    #[test]
    fn split_bytecode_is_larger_than_scalar() {
        let k = saxpy();
        let t = sse();
        let (e, cfg) = (Engine::new(), CompileConfig::default());
        let vec = e.compile(&k, Flow::SplitVectorOpt, &t, &cfg).unwrap();
        let sca = e.compile(&k, Flow::SplitScalarOpt, &t, &cfg).unwrap();
        assert!(
            vec.bytecode_bytes > 2 * sca.bytecode_bytes,
            "vectorized bytecode should be much larger: {} vs {}",
            vec.bytecode_bytes,
            sca.bytecode_bytes
        );
    }
}
