//! # vapor-frontend — mini-C kernel language
//!
//! Parses the restricted C dialect used to write the paper's benchmark
//! kernels (Table 2 + Polybench) into `vapor-ir` loop nests. The dialect
//! covers what the GCC auto-vectorizer sees after normalization: counted
//! loops, affine subscripts, scalar reductions, and the `min`/`max`/
//! `abs`/`sqrt` builtins that replace if-converted control flow.
//!
//! The front end is one pass over the source bytes: the parser pulls
//! `Copy` tokens from the lexer as it goes, identifiers borrow the source
//! ([`Tok`] and [`Spanned`] carry its lifetime), and besides two scratch
//! vectors the only allocations are the ones the returned
//! [`vapor_ir::Kernel`] owns. Error positions are 1-based lines and
//! character columns: a column comes from byte offsets, or from a count of
//! UTF-8 characters on a line that holds a non-ASCII one. Nesting deeper
//! than [`MAX_NESTING`] levels is a [`ParseError`], so no input can
//! overflow the stack.
//!
//! # Examples
//!
//! ```
//! let kernel = vapor_frontend::parse_kernel(r#"
//!     kernel sfir(long n, long nt, float x[], float c[], float y[]) {
//!       float sum;
//!       for (long i = 0; i < n; i++) {
//!         sum = 0.0;
//!         for (long j = 0; j < nt; j++) {
//!           sum += x[i + j] * c[j];
//!         }
//!         y[i] = sum;
//!       }
//!     }
//! "#).unwrap();
//! assert_eq!(kernel.name, "sfir");
//! assert_eq!(kernel.body[0].loop_depth(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;

pub use lexer::{lex, ParseError, Spanned, Tok};
pub use parser::{parse_kernel, MAX_NESTING};
