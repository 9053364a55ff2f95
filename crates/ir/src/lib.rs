//! # vapor-ir — scalar kernel IR
//!
//! The scalar intermediate representation consumed by the Vapor SIMD
//! offline vectorizer: structured, counted loop nests over typed arrays,
//! exactly the shape the paper's kernels take after loop-nest
//! normalization (§II of the paper).
//!
//! The crate also hosts the **reference interpreter** ([`interpret`]) used
//! as the correctness oracle by every other crate, and the shared
//! element-operation semantics ([`sem`]) reused by the virtual SIMD
//! machine so that oracle and simulated hardware agree by construction.
//!
//! # Examples
//!
//! ```
//! use vapor_ir::{KernelBuilder, ScalarTy, Expr, BinOp, Bindings, ArrayData, interpret};
//!
//! # fn main() -> Result<(), vapor_ir::IrError> {
//! let mut b = KernelBuilder::new("dscal");
//! let n = b.scalar_param("n", ScalarTy::I64);
//! let alpha = b.scalar_param("alpha", ScalarTy::F32);
//! let x = b.array_param("x", ScalarTy::F32);
//! let i = b.fresh_loop_var("i");
//! b.for_loop(i, Expr::Int(0), Expr::Var(n), 1, |b| {
//!     b.store(x, Expr::Var(i),
//!             Expr::bin(BinOp::Mul, Expr::Var(alpha), Expr::load(x, Expr::Var(i))));
//! });
//! let kernel = b.finish();
//!
//! let mut env = Bindings::new();
//! env.set_int("n", 3)
//!    .set_float("alpha", 2.0)
//!    .set_array("x", ArrayData::from_floats(ScalarTy::F32, &[1.0, 2.0, 3.0]));
//! interpret(&kernel, &mut env)?;
//! assert_eq!(env.array("x").unwrap().get(2).as_float(), 6.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod expr;
pub mod interp;
pub mod kernel;
pub mod pretty;
pub mod sem;
pub mod stmt;
pub mod ty;
pub mod validate;

pub use builder::KernelBuilder;
pub use expr::{ArrayId, Expr, VarId};
pub use interp::{interpret, interpret_arrays, ArrayData, Bindings};
pub use kernel::{ArrayDecl, ArrayKind, Kernel, VarDecl, VarKind};
pub use pretty::{print_expr, print_kernel};
pub use sem::{eval_bin, eval_cast, eval_un, read_elem, write_elem, BinOp, UnOp, Value};
pub use stmt::Stmt;
pub use ty::{OpClass, ScalarTy};
pub use validate::{check_expr, infer_expr, validate, IrError};
