//! Scalar element types of the kernel language.
//!
//! The paper's kernels operate on signed chars (`s8`), shorts (`s16`),
//! ints (`s32`), and single/double floats (`fp`/`dp`). Unsigned variants
//! are included because widening idioms (e.g. `unpack_hi/lo`) distinguish
//! sign/zero extension.

use std::fmt;

/// A scalar element type, as stored in arrays and scalar variables.
///
/// # Examples
///
/// ```
/// use vapor_ir::ScalarTy;
/// assert_eq!(ScalarTy::F32.size(), 4);
/// assert_eq!(ScalarTy::I16.widened(), Some(ScalarTy::I32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarTy {
    /// Signed 8-bit integer (`s8` in the paper's kernel names).
    I8,
    /// Signed 16-bit integer (`s16`).
    I16,
    /// Signed 32-bit integer (`s32`).
    I32,
    /// Signed 64-bit integer (used for loop counters and addresses).
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Single-precision float (`fp`).
    F32,
    /// Double-precision float (`dp`).
    F64,
}

impl ScalarTy {
    /// All element types, in a fixed order used by the binary encoding.
    pub const ALL: [ScalarTy; 9] = [
        ScalarTy::I8,
        ScalarTy::I16,
        ScalarTy::I32,
        ScalarTy::I64,
        ScalarTy::U8,
        ScalarTy::U16,
        ScalarTy::U32,
        ScalarTy::F32,
        ScalarTy::F64,
    ];

    /// Size of one element in bytes (`sizeof(T)` in the paper's Table 1).
    pub const fn size(self) -> usize {
        match self {
            ScalarTy::I8 | ScalarTy::U8 => 1,
            ScalarTy::I16 | ScalarTy::U16 => 2,
            ScalarTy::I32 | ScalarTy::U32 | ScalarTy::F32 => 4,
            ScalarTy::I64 | ScalarTy::F64 => 8,
        }
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::F32 | ScalarTy::F64)
    }

    /// Whether this is an integer type (signed or unsigned).
    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// Whether this is a signed integer type.
    pub fn is_signed_int(self) -> bool {
        matches!(
            self,
            ScalarTy::I8 | ScalarTy::I16 | ScalarTy::I32 | ScalarTy::I64
        )
    }

    /// Whether this is an unsigned integer type.
    pub fn is_unsigned_int(self) -> bool {
        matches!(self, ScalarTy::U8 | ScalarTy::U16 | ScalarTy::U32)
    }

    /// The type with elements twice as wide and the same signedness, if it
    /// exists. Used by the widening idioms (`widen_mult`, `unpack`).
    pub fn widened(self) -> Option<ScalarTy> {
        match self {
            ScalarTy::I8 => Some(ScalarTy::I16),
            ScalarTy::I16 => Some(ScalarTy::I32),
            ScalarTy::I32 => Some(ScalarTy::I64),
            ScalarTy::U8 => Some(ScalarTy::U16),
            ScalarTy::U16 => Some(ScalarTy::U32),
            ScalarTy::U32 => Some(ScalarTy::I64),
            ScalarTy::F32 => Some(ScalarTy::F64),
            ScalarTy::I64 | ScalarTy::F64 => None,
        }
    }

    /// The type with elements half as wide and the same signedness, if it
    /// exists. Used by the `pack` demotion idiom.
    pub fn narrowed(self) -> Option<ScalarTy> {
        match self {
            ScalarTy::I16 => Some(ScalarTy::I8),
            ScalarTy::I32 => Some(ScalarTy::I16),
            ScalarTy::I64 => Some(ScalarTy::I32),
            ScalarTy::U16 => Some(ScalarTy::U8),
            ScalarTy::U32 => Some(ScalarTy::U16),
            ScalarTy::F64 => Some(ScalarTy::F32),
            ScalarTy::I8 | ScalarTy::U8 | ScalarTy::F32 => None,
        }
    }

    /// The float type with the same lane width, if it exists: the
    /// result type of an int→float vector conversion.
    pub fn float_counterpart(self) -> Option<ScalarTy> {
        match self {
            ScalarTy::I32 | ScalarTy::U32 => Some(ScalarTy::F32),
            ScalarTy::I64 => Some(ScalarTy::F64),
            _ => None,
        }
    }

    /// The signed integer type with the same lane width, if it exists:
    /// the result type of a float→int vector conversion.
    pub fn int_counterpart(self) -> Option<ScalarTy> {
        match self {
            ScalarTy::F32 => Some(ScalarTy::I32),
            ScalarTy::F64 => Some(ScalarTy::I64),
            _ => None,
        }
    }

    /// Mini-C keyword for this type (used by the pretty printer and parser).
    pub fn keyword(self) -> &'static str {
        match self {
            ScalarTy::I8 => "char",
            ScalarTy::I16 => "short",
            ScalarTy::I32 => "int",
            ScalarTy::I64 => "long",
            ScalarTy::U8 => "uchar",
            ScalarTy::U16 => "ushort",
            ScalarTy::U32 => "uint",
            ScalarTy::F32 => "float",
            ScalarTy::F64 => "double",
        }
    }

    /// Parse a mini-C type keyword.
    pub fn from_keyword(kw: &str) -> Option<ScalarTy> {
        ScalarTy::ALL.iter().copied().find(|t| t.keyword() == kw)
    }

    /// Stable opcode byte for the binary bytecode encoding.
    pub fn encoding(self) -> u8 {
        ScalarTy::ALL.iter().position(|&t| t == self).unwrap() as u8
    }

    /// Inverse of [`ScalarTy::encoding`].
    pub fn from_encoding(b: u8) -> Option<ScalarTy> {
        ScalarTy::ALL.get(b as usize).copied()
    }
}

impl fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Operation classes a SIMD target may lack: the vocabulary of the
/// offline stage's `ops_supported` version guards (§III-B(d)) and of each
/// target's support table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Elementwise float division.
    FDiv,
    /// Elementwise square root.
    FSqrt,
    /// Widening multiplication.
    WidenMult,
    /// Lane-wise int↔float conversion.
    Cvt,
    /// Dot-product accumulation.
    DotProduct,
    /// Per-lane variable shift amounts.
    PerLaneShift,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_c_layout() {
        assert_eq!(ScalarTy::I8.size(), 1);
        assert_eq!(ScalarTy::U16.size(), 2);
        assert_eq!(ScalarTy::F32.size(), 4);
        assert_eq!(ScalarTy::F64.size(), 8);
        assert_eq!(ScalarTy::I64.size(), 8);
    }

    #[test]
    fn widen_narrow_roundtrip() {
        for t in ScalarTy::ALL {
            if let Some(w) = t.widened() {
                assert_eq!(w.size(), t.size() * 2, "{t:?}");
                if t != ScalarTy::U32 {
                    assert_eq!(w.narrowed(), Some(t), "{t:?}");
                }
            }
        }
    }

    #[test]
    fn widened_preserves_class() {
        assert!(ScalarTy::F32.widened().unwrap().is_float());
        assert!(ScalarTy::I8.widened().unwrap().is_signed_int());
        assert!(ScalarTy::U8.widened().unwrap().is_unsigned_int());
    }

    #[test]
    fn keyword_roundtrip() {
        for t in ScalarTy::ALL {
            assert_eq!(ScalarTy::from_keyword(t.keyword()), Some(t));
        }
        assert_eq!(ScalarTy::from_keyword("bogus"), None);
    }

    #[test]
    fn encoding_roundtrip() {
        for t in ScalarTy::ALL {
            assert_eq!(ScalarTy::from_encoding(t.encoding()), Some(t));
        }
        assert_eq!(ScalarTy::from_encoding(200), None);
    }
}
