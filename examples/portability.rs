//! The paper's running example (Figures 2 and 3): `sum += a[i+2]`.
//!
//! Shows the split layer at work: one VF-parametric vectorized bytecode,
//! and the four different machine-code shapes the online stage derives
//! from it — explicit realignment on AltiVec (`lvsr`+`vperm`), implicit
//! realignment on SSE (`movdqu`), aligned code when the hints prove
//! alignment, and scalarized code on a target without SIMD.
//!
//! ```text
//! cargo run --release --example portability
//! ```

use vapor_core::{reference, Engine, ExecRequest};
use vapor_ir::{ArrayData, Bindings, ScalarTy, Value};
use vapor_targets::{altivec, neon64, scalar_only, sse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 2a of the paper, with the reduction result stored to out[0].
    let kernel = vapor_frontend::parse_kernel(
        "kernel sum(long n, float a[], float out[]) {
           float s;
           s = 0.0;
           for (long i = 0; i < n; i++) {
             s += a[i + 2];
           }
           out[0] = s;
         }",
    )?;

    // ---- the split layer: one portable vectorized bytecode ----
    let split = vapor_vectorizer::vectorize(&kernel, &Default::default());
    println!("=== vectorized bytecode (the split layer, Figure 3a) ===\n");
    println!("{}", vapor_bytecode::print_function(&split.func));

    // ---- one bytecode, four machine-code shapes ----
    let n = 1024usize;
    let mut env = Bindings::new();
    let a: Vec<f64> = (0..n + 2).map(|i| (i % 7) as f64 * 0.25).collect();
    env.set_int("n", n as i64)
        .set_array("a", ArrayData::from_floats(ScalarTy::F32, &a))
        .set_array("out", ArrayData::zeroed(ScalarTy::F32, 1));
    let oracle = reference(&kernel, &env)?;
    let expected = match oracle.array("out").unwrap().get(0) {
        Value::Float(v) => v,
        v => panic!("unexpected {v:?}"),
    };

    let engine = Engine::new();
    for target in [sse(), altivec(), neon64(), scalar_only()] {
        let r = engine.execute(&ExecRequest::new(&kernel, &target, &env))?;
        let c = &r.compiled;
        let got = match r.out.array("out").unwrap().get(0) {
            Value::Float(v) => v,
            v => panic!("unexpected {v:?}"),
        };

        // Characterize the lowering strategy from the emitted code.
        let code = &c.jit.code;
        let uses = |pred: &dyn Fn(&vapor_targets::MInst) -> bool| code.insts.iter().any(pred);
        let strategy = if uses(&|i| matches!(i, vapor_targets::MInst::VPerm { .. })) {
            "explicit realignment (lvsr + vperm)"
        } else if uses(&|i| {
            matches!(
                i,
                vapor_targets::MInst::LoadV {
                    align: vapor_targets::MemAlign::Unaligned,
                    ..
                }
            )
        }) {
            "implicit realignment (movdqu-class misaligned loads)"
        } else if uses(&|i| matches!(i, vapor_targets::MInst::LoadV { .. })) {
            "aligned vector loads"
        } else {
            "scalarized (VF = 1)"
        };
        println!(
            "=== {} ===\n  strategy: {strategy}\n  cycles: {}  insts: {}  result ok: {}\n",
            target.name,
            r.stats.cycles,
            r.stats.insts,
            (got - expected).abs() <= 1e-3 * expected.abs().max(1.0),
        );
        // Print the vectorized inner loop for the curious.
        let text = vapor_targets::disasm(code);
        let interesting: Vec<&str> = text
            .lines()
            .filter(|l| l.contains('v') && !l.starts_with(';'))
            .take(8)
            .collect();
        for l in interesting {
            println!("   {l}");
        }
        println!();
    }

    // ---- the same bytecode on a vector-length-agnostic target ----
    //
    // One more machine-code shape: setvl-stripmined, predicated code
    // whose lane count is unknown until run time. The artifact is
    // compiled and decoded once; that one program runs at every VL,
    // reading its lane counts from the machine.
    let family = vapor_targets::sve();
    println!("=== {} — one artifact, any runtime VL ===", family.name);
    let mut first = true;
    for vl_bits in vapor_targets::VLA_TEST_BITS {
        let r = engine.execute(&ExecRequest::new(&kernel, &family, &env).vl_bits(vl_bits))?;
        if first {
            first = false;
            let text = vapor_targets::disasm(&r.compiled.jit.code);
            for l in text
                .lines()
                .filter(|l| l.contains("setvl") || l.contains(".vl"))
                .take(6)
            {
                println!("   {l}");
            }
        }
        let got = match r.out.array("out").unwrap().get(0) {
            Value::Float(v) => v,
            v => panic!("unexpected {v:?}"),
        };
        println!(
            "  VL={vl_bits:>4}: cycles {:>6}  result ok: {}",
            r.stats.cycles,
            (got - expected).abs() <= 1e-3 * expected.abs().max(1.0),
        );
    }
    Ok(())
}
