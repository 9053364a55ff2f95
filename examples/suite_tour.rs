//! Tour of the paper's benchmark suite: what the offline vectorizer does
//! with each of the 32 kernels and what that buys at run time on SSE.
//!
//! ```text
//! cargo run --release --example suite_tour
//! ```

use vapor_core::{Engine, ExecRequest, Flow};
use vapor_kernels::{suite, Scale};
use vapor_targets::sse;
use vapor_vectorizer::{vectorize, VectorizeOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = sse();
    let engine = Engine::new();

    println!(
        "{:<18} {:<11} {:>8} {:<34}",
        "kernel", "vectorized", "speedup", "features"
    );
    println!("{}", "-".repeat(76));
    for spec in suite() {
        let kernel = spec.kernel();
        let v = vectorize(&kernel, &VectorizeOptions::default());
        let vectorized = v.reports.iter().any(|r| r.vectorized);
        let mut features: Vec<String> = Vec::new();
        for r in &v.reports {
            for f in &r.features {
                let s = format!("{f:?}");
                if !features.contains(&s) {
                    features.push(s);
                }
            }
        }

        let env = spec.env(Scale::Test);
        let req = ExecRequest::new(&kernel, &target, &env);
        let cv = engine
            .execute(&req.clone().flow(Flow::SplitVectorOpt))?
            .stats
            .cycles;
        let cs = engine
            .execute(&req.flow(Flow::SplitScalarOpt))?
            .stats
            .cycles;

        println!(
            "{:<18} {:<11} {:>7.2}x {:<34}",
            spec.name,
            if vectorized { "yes" } else { "no" },
            cs as f64 / cv.max(1) as f64,
            features.join(",")
        );
    }
    let s = engine.stats();
    println!(
        "\nengine: {} unique compilations, {} cache hits",
        s.misses, s.hits
    );
    Ok(())
}
