//! The matrix harness of the integration tests: the cells of the
//! paper's evaluation table (kernel × target × flow × VL × placement)
//! and one comparer for them.
//!
//! [`check`] runs a cell through `Engine::execute` and compares the
//! arrays with the IR interpreter. It can also run the same compilation
//! through the VM's reference [`Form`]s, each over
//! `Engine::run_compiled`: the unfused decode and the closure-threaded
//! lowering must match the engine bit for bit, arrays and `ExecStats`;
//! the baseline interpreter must match arrays and cycles (it counts
//! label markers as instructions, so its instruction count differs).
//!
//! [`check_suite`] applies it to every suite kernel over a slice of the
//! table. The cycle ledger (`tests/matrix.rs`) walks the whole table
//! through [`check`] on one engine; the reference forms of the vector
//! flows and the misaligned placements are `check_suite` slices of
//! their own (`fusion_differential`, `threaded_differential`,
//! `correctness_matrix`).

#![allow(dead_code)] // each test binary uses its own part of the harness

use std::fmt;

use vapor_bench::ledger::{alias, vls};
use vapor_core::{
    arrays_match, reference, AllocPolicy, CompileConfig, Engine, ExecOutcome, ExecRequest, Flow,
};
use vapor_ir::{Bindings, Kernel};
use vapor_kernels::{KernelSpec, Scale};
use vapor_targets::{
    DecodedProgram, ExecStats, Machine, TargetDesc, TargetKind, ThreadedProgram, Trap,
};

/// Relative tolerance of float arrays against the oracle: vector
/// reductions reassociate float sums. Integer arrays compare exactly.
const TOL: f64 = 2e-4;

/// Every built-in target: the six the repo benchmark runs, and
/// scalar-only.
pub fn targets() -> Vec<TargetDesc> {
    TargetKind::ALL
        .into_iter()
        .map(vapor_targets::target)
        .collect()
}

/// The six targets of the repo benchmark.
pub fn bench_targets() -> Vec<TargetDesc> {
    let mut all = targets();
    all.retain(|t| t.kind != TargetKind::ScalarOnly);
    all
}

/// One cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell<'a> {
    pub kernel: &'a Kernel,
    pub env: &'a Bindings,
    pub target: &'a TargetDesc,
    pub flow: Flow,
    pub vl: usize,
    pub policy: AllocPolicy,
    pub cfg: CompileConfig,
}

/// Every cell of `kernel` over `targets` × `flows` × each target's VLs ×
/// `policies`, in that order, with the default config.
pub fn cells<'a>(
    kernel: &'a Kernel,
    env: &'a Bindings,
    targets: &'a [TargetDesc],
    flows: &'a [Flow],
    policies: &'a [AllocPolicy],
) -> impl Iterator<Item = Cell<'a>> + 'a {
    targets.iter().flat_map(move |target| {
        flows.iter().flat_map(move |&flow| {
            vls(target).into_iter().flat_map(move |vl| {
                policies.iter().map(move |&policy| Cell {
                    kernel,
                    env,
                    target,
                    flow,
                    vl,
                    policy,
                    cfg: CompileConfig::default(),
                })
            })
        })
    })
}

impl Cell<'_> {
    /// The cell as an engine request.
    pub fn request(&self) -> ExecRequest<'_> {
        ExecRequest::new(self.kernel, self.target, self.env)
            .flow(self.flow)
            .config(self.cfg.clone())
            .vl_bits(self.vl)
            .policy(self.policy)
    }

    /// The concrete-width machine the cell runs on.
    pub fn exec_target(&self) -> TargetDesc {
        if self.target.vla {
            self.target.at_vl(self.vl)
        } else {
            self.target.clone()
        }
    }
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} on {} @VL={}, {:?}",
            self.kernel.name,
            self.flow,
            alias(self.target.kind),
            self.vl,
            self.policy
        )?;
        if self.cfg != CompileConfig::default() {
            write!(f, ", {:?}", self.cfg)?;
        }
        f.write_str("]")
    }
}

/// A reference form of a compilation the VM can run besides the
/// engine's fused decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `DecodedProgram::decode_unfused`: one step per instruction.
    Unfused,
    /// `ThreadedProgram::thread` of the engine's decode.
    Threaded,
    /// `Machine::run`: the baseline interpreter over the machine code.
    Baseline,
}

impl Form {
    pub const ALL: [Form; 3] = [Form::Unfused, Form::Threaded, Form::Baseline];
}

/// Check one cell: the engine's arrays against `oracle`, and the
/// engine's result against each of `forms` run on the same compilation
/// (see the module docs). Returns the engine's outcome.
///
/// # Errors
/// A message naming the cell and what diverged.
pub fn check(
    engine: &Engine,
    cell: &Cell<'_>,
    oracle: &Bindings,
    forms: &[Form],
) -> Result<ExecOutcome, String> {
    let got = engine
        .execute(&cell.request())
        .map_err(|e| format!("{cell}: {e}"))?;
    same_arrays(cell, "oracle", oracle, &got.out, TOL)?;
    let exec = cell.exec_target();
    let code = &got.compiled.jit.code;
    let fail = |e: &dyn fmt::Display| format!("{cell}: {e}");
    for &form in forms {
        let run = |f: &dyn Fn(&mut Machine<'_>) -> Result<ExecStats, Trap>| {
            engine
                .run_compiled(&exec, &got.compiled, cell.env, cell.policy, f)
                .map_err(|e| format!("{cell}: {form:?}: {e}"))
        };
        let reference = match form {
            Form::Unfused => {
                let unfused = DecodedProgram::decode_unfused(code, &exec).map_err(|e| fail(&e))?;
                if unfused.fusion_stats().total() != 0 {
                    return Err(fail(&"the unfused reference fused"));
                }
                run(&|m| m.run_decoded(&unfused))?
            }
            Form::Threaded => {
                let (_, decoded) = engine
                    .specialize(cell.kernel, cell.flow, cell.target, &cell.cfg, cell.vl)
                    .map_err(|e| fail(&e))?;
                let threaded = ThreadedProgram::thread(&decoded, code);
                run(&|m| m.run_threaded(&threaded))?
            }
            Form::Baseline => run(&|m| m.run(code))?,
        };
        same_arrays(cell, &format!("{form:?}"), &got.out, &reference.out, 0.0)?;
        let stats = if form == Form::Baseline {
            ExecStats {
                insts: got.stats.insts,
                ..reference.stats
            }
        } else {
            reference.stats
        };
        if stats != got.stats {
            return Err(format!(
                "{cell}: {form:?} ran {:?}, the engine {:?}",
                reference.stats, got.stats
            ));
        }
    }
    Ok(got)
}

/// [`check`] every cell of every kernel of `specs` at `Scale::Test`
/// over `targets` × `flows` × each target's VLs × `policies`, panicking
/// on the first divergence; `each` sees every cell and its outcome.
pub fn check_suite(
    engine: &Engine,
    specs: &[KernelSpec],
    targets: &[TargetDesc],
    flows: &[Flow],
    policies: &[AllocPolicy],
    forms: &[Form],
    mut each: impl FnMut(&Cell<'_>, &ExecOutcome),
) {
    for spec in specs {
        let kernel = spec.kernel();
        let env = spec.env(Scale::Test);
        let oracle = reference(&kernel, &env)
            .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", spec.name));
        for cell in cells(&kernel, &env, targets, flows, policies) {
            let out = check(engine, &cell, &oracle, forms).unwrap_or_else(|e| panic!("{e}"));
            each(&cell, &out);
        }
    }
}

/// Every array of `want` against the same array of `got`.
fn same_arrays(
    cell: &Cell<'_>,
    what: &str,
    want: &Bindings,
    got: &Bindings,
    tol: f64,
) -> Result<(), String> {
    for (name, expected) in want.arrays() {
        let actual = got
            .array(name)
            .ok_or_else(|| format!("{cell}: {what}: no array {name}"))?;
        arrays_match(expected, actual, tol)
            .map_err(|e| format!("{cell}: {what}: array {name}: {e}"))?;
    }
    Ok(())
}
