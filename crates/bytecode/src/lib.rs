//! # vapor-bytecode — the split abstraction layer
//!
//! The portable *vectorized bytecode* that sits between the offline and
//! online compilation stages (Figure 1(B) and Table 1 of the paper).
//! Everything machine-specific — vector size, alignment limits, loop
//! bounds that depend on either — is abstracted behind idioms
//! (`get_VF`, `get_align_limit`, `loop_bound`, `version_guard`, the
//! `mis`/`mod` realignment hints) and materialized only by the online
//! stage.
//!
//! The paper embeds these idioms in CLI; this crate uses a typed,
//! register-based structured form with the same information content (see
//! DESIGN.md §1 for the substitution argument) plus a compact binary
//! encoding ([`encode_module`]/[`decode_module`]) used for the bytecode
//! size experiments and a verifier enforcing Table 1's typing rules.

#![forbid(unsafe_code)]

pub mod codec;
pub mod func;
pub mod op;
pub mod printer;
pub mod stmt;
pub mod ty;
pub mod verify;

pub use codec::{decode_module, encode_module, DecodeError, MAGIC, VERSION};
pub use func::{BcArray, BcFunction, BcModule, BcParam};
pub use op::{Op, ShiftAmt};
pub use printer::{fmt_guard, print_function, print_module};
pub use stmt::{BcStmt, GuardCond, LoopKind, OpClass, Step};
pub use ty::{Addr, ArraySym, BcTy, Operand, Reg};
pub use verify::{verify_function, VerifyError};
