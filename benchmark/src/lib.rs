//! # vapor-benchmark — the repo benchmark
//!
//! Four closed-loop workloads over the whole system, seven end-to-end
//! metrics in host-calibrated time, and a traced run that replays every
//! request's chain through each layer's public functions. `README.md`
//! explains how to run it and how to read it; [`spec`] is the list of
//! everything it emits.
//!
//! ## Library surface used
//!
//! The benchmark touches the library only through the public items
//! below, so that the roadmap's deletions and redesigns can land without
//! editing it. `tests/describe.rs` fails when a source file here names
//! one of the items scheduled for deletion.
//!
//! * `vapor_frontend`: `parse_kernel`
//! * `vapor_ir`: `interpret`, `print_kernel`, `Kernel`, `Bindings`
//!   (`array`, `arrays`, `scalar`), `ArrayData` (`elem`, `bytes`, `len`,
//!   `get`), `ScalarTy::is_float`, `Value`
//! * `vapor_vectorizer`: `vectorize`, `emit_scalar_function`,
//!   `VectorizeOptions { native }`, `VectorizeResult { func, reports }`,
//!   `LoopReport::vectorized`
//! * `vapor_bytecode`: `verify_function`, `encode_module`,
//!   `decode_module`, `BcModule::single`, `BcModule::funcs`,
//!   `BcFunction { params, arrays }`
//! * `vapor_jit`: `compile`, `JitOptions::new`, `Pipeline`,
//!   `CompiledKernel { code, decoded, param_regs, array_base_regs,
//!   array_len_regs, stats }`, `CompileStats`
//! * `vapor_targets`: `sse`, `altivec`, `neon64`, `avx`, `sve`, `rvv`,
//!   `VLA_TEST_BITS`, `MAX_VS`, `TargetDesc` (`name`, `vs`, `vla`,
//!   `at_vl`), `DecodedProgram` (`decode`, `respecialize`, `n_steps`,
//!   `fusion_stats`), `ThreadedProgram` (`thread`, `regions`, `streams`),
//!   `Machine` (`with_memory`, `into_arena`, `mem`, `set_sreg`, `run`,
//!   `run_decoded`, `run_threaded`), `Memory` (`recycled`, `pad_for`,
//!   `alloc_with_misalignment`, `slice_mut`), `ExecStats { cycles, insts }`
//! * `vapor_core`: `Engine` (`new`, `builder`, `compile`, `specialize`,
//!   `execute`, `stats`, `artifact_store`), `EngineBuilder`
//!   (`compile_cache_capacity`, `artifact_dir`, `build` — no other
//!   knob), `EngineStats` (`hits`, `misses`, `evictions`,
//!   `exec_evictions`, `contended_locks`, `artifact_hits`, `vl_entries`,
//!   `pool_reuses`, `pool_allocs`), `ExecRequest` (`new`, `flow`,
//!   `vl_bits`, `policy`), `ExecOutcome { out, stats, compiled }`,
//!   `AllocPolicy::Misaligned`, `ArtifactStore::load`, `online_compile`,
//!   `CompileConfig::default`, `Compiled { func, jit, bytecode_bytes }`,
//!   `Flow` (`ALL`, `vectorized`, `pipeline`). Errors are only ever
//!   formatted with `Display`, never taken apart.
//! * `vapor_kernels`: `suite`, `KernelSpec` (`name`, `source`, `env`),
//!   `Scale`

pub mod calib;
pub mod rng;
pub mod run;
pub mod spec;
pub mod trace;
pub mod workload;
