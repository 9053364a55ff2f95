//! Shared evaluation semantics for scalar operations.
//!
//! Both the reference IR interpreter and the virtual SIMD machine in
//! `vapor-targets` evaluate element operations through these functions, so
//! the correctness oracle and the simulated hardware agree *by
//! construction* on wrapping, conversion and edge-case behaviour.
//!
//! Defined behaviour choices (where C leaves them undefined or
//! implementation-defined):
//!
//! * integer arithmetic wraps modulo 2^width;
//! * shift amounts are masked by `width - 1`;
//! * integer division by zero yields `0` (and `x / -1` wraps);
//! * float→int conversion saturates (Rust `as` semantics);
//! * `min`/`max` on floats follow `f64::min`/`f64::max`.

use crate::ty::ScalarTy;

/// A dynamically-typed scalar value.
///
/// The static type is tracked alongside (in the IR or the VM register
/// class); `Value` only distinguishes the integer and float domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer domain, stored sign-extended in an `i64`.
    Int(i64),
    /// Float domain.
    Float(f64),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    /// Panics if the value is in the float domain.
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => panic!("expected int value, found float {v}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    /// Panics if the value is in the integer domain.
    #[inline]
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(v) => v,
            Value::Int(v) => panic!("expected float value, found int {v}"),
        }
    }

    /// Zero of the given type.
    pub fn zero(ty: ScalarTy) -> Value {
        if ty.is_float() {
            Value::Float(0.0)
        } else {
            Value::Int(0)
        }
    }

    /// The value in `ty`'s domain: an integer converts to a float when
    /// `ty` is a float type, a float truncates (saturating) to an integer
    /// when it is not, and a value already in the domain is unchanged.
    #[inline]
    pub fn coerce(self, ty: ScalarTy) -> Value {
        match (ty.is_float(), self) {
            (true, Value::Int(i)) => Value::Float(i as f64),
            (false, Value::Float(f)) => Value::Int(f as i64),
            _ => self,
        }
    }
}

/// Binary operators of the kernel language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Division (see module docs for integer edge cases).
    Div,
    /// Shift left (integers only).
    Shl,
    /// Shift right: arithmetic for signed, logical for unsigned.
    Shr,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Comparison: equal (yields 0/1 int).
    CmpEq,
    /// Comparison: less-than (yields 0/1 int).
    CmpLt,
}

impl BinOp {
    /// Mini-C spelling where one exists (`Min`/`Max`/cmp are builtins).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::CmpEq => "==",
            BinOp::CmpLt => "<",
        }
    }

    /// Whether the operator only applies to integer operands.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::Shl | BinOp::Shr | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Whether the result is a 0/1 integer regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::CmpEq | BinOp::CmpLt)
    }

    /// Whether the op is commutative (used by pattern matching in the
    /// vectorizer, e.g. reduction and dot-product recognition).
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Min
                | BinOp::Max
                | BinOp::CmpEq
        )
    }
}

/// Unary operators of the kernel language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value (wrapping at the signed minimum).
    Abs,
    /// Square root (floats only).
    Sqrt,
}

impl UnOp {
    /// Mini-C spelling.
    pub fn name(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
        }
    }
}

/// Truncate/sign-extend an `i64` payload to the integer type `ty`,
/// returning the canonical sign-extended representation.
#[inline]
pub fn wrap_int(ty: ScalarTy, v: i64) -> i64 {
    match ty {
        ScalarTy::I8 => v as i8 as i64,
        ScalarTy::I16 => v as i16 as i64,
        ScalarTy::I32 => v as i32 as i64,
        ScalarTy::I64 => v,
        ScalarTy::U8 => v as u8 as i64,
        ScalarTy::U16 => v as u16 as i64,
        ScalarTy::U32 => v as u32 as i64,
        ScalarTy::F32 | ScalarTy::F64 => panic!("wrap_int on float type {ty}"),
    }
}

#[inline]
fn shift_mask(ty: ScalarTy) -> u32 {
    (ty.size() as u32 * 8) - 1
}

/// Evaluate a binary operation at type `ty` with the semantics in the
/// module docs. Comparison operators return `Value::Int(0|1)`.
#[inline]
pub fn eval_bin(op: BinOp, ty: ScalarTy, a: Value, b: Value) -> Value {
    if ty.is_float() {
        let (x, y) = (a.as_float(), b.as_float());
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::CmpEq => return Value::Int((x == y) as i64),
            BinOp::CmpLt => return Value::Int((x < y) as i64),
            _ => panic!("integer-only op {op:?} at float type {ty}"),
        };
        let r = if ty == ScalarTy::F32 {
            r as f32 as f64
        } else {
            r
        };
        Value::Float(r)
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            BinOp::Shl => x.wrapping_shl(y as u32 & shift_mask(ty)),
            BinOp::Shr => {
                let amt = y as u32 & shift_mask(ty);
                if ty.is_unsigned_int() {
                    // Logical shift on the unsigned payload.
                    let mask = if ty.size() == 8 {
                        u64::MAX
                    } else {
                        (1u64 << (ty.size() * 8)) - 1
                    };
                    (((x as u64) & mask) >> amt) as i64
                } else {
                    x.wrapping_shr(amt)
                }
            }
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::CmpEq => return Value::Int((x == y) as i64),
            BinOp::CmpLt => return Value::Int((x < y) as i64),
        };
        Value::Int(wrap_int(ty, r))
    }
}

/// Evaluate a unary operation at type `ty`.
#[inline]
pub fn eval_un(op: UnOp, ty: ScalarTy, a: Value) -> Value {
    if ty.is_float() {
        let x = a.as_float();
        let r = match op {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Sqrt => x.sqrt(),
        };
        let r = if ty == ScalarTy::F32 {
            r as f32 as f64
        } else {
            r
        };
        Value::Float(r)
    } else {
        let x = a.as_int();
        let r = match op {
            UnOp::Neg => x.wrapping_neg(),
            UnOp::Abs => x.wrapping_abs(),
            UnOp::Sqrt => panic!("sqrt on integer type {ty}"),
        };
        Value::Int(wrap_int(ty, r))
    }
}

/// Convert a value from type `from` to type `to`.
///
/// Integer→integer wraps; integer→float is exact where representable;
/// float→integer saturates (Rust `as`); `f64`→`f32` rounds.
#[inline]
pub fn eval_cast(from: ScalarTy, to: ScalarTy, v: Value) -> Value {
    match (from.is_float(), to.is_float()) {
        (false, false) => Value::Int(wrap_int(to, v.as_int())),
        (false, true) => {
            let f = v.as_int() as f64;
            let f = if to == ScalarTy::F32 {
                f as f32 as f64
            } else {
                f
            };
            Value::Float(f)
        }
        (true, false) => {
            let f = v.as_float();
            let i = match to {
                ScalarTy::I8 => f as i8 as i64,
                ScalarTy::I16 => f as i16 as i64,
                ScalarTy::I32 => f as i32 as i64,
                ScalarTy::I64 => f as i64,
                ScalarTy::U8 => f as u8 as i64,
                ScalarTy::U16 => f as u16 as i64,
                ScalarTy::U32 => f as u32 as i64,
                _ => unreachable!(),
            };
            Value::Int(i)
        }
        (true, true) => {
            let f = v.as_float();
            let f = if to == ScalarTy::F32 {
                f as f32 as f64
            } else {
                f
            };
            Value::Float(f)
        }
    }
}

/// Read one element of type `ty` from `bytes` at byte offset `off`
/// (little-endian), as the canonical [`Value`].
///
/// # Panics
/// Panics if the access is out of bounds.
#[inline]
pub fn read_elem(ty: ScalarTy, bytes: &[u8], off: usize) -> Value {
    let s = ty.size();
    let raw = &bytes[off..off + s];
    match ty {
        ScalarTy::I8 => Value::Int(raw[0] as i8 as i64),
        ScalarTy::U8 => Value::Int(raw[0] as i64),
        ScalarTy::I16 => Value::Int(i16::from_le_bytes([raw[0], raw[1]]) as i64),
        ScalarTy::U16 => Value::Int(u16::from_le_bytes([raw[0], raw[1]]) as i64),
        ScalarTy::I32 => Value::Int(i32::from_le_bytes(raw.try_into().unwrap()) as i64),
        ScalarTy::U32 => Value::Int(u32::from_le_bytes(raw.try_into().unwrap()) as i64),
        ScalarTy::I64 => Value::Int(i64::from_le_bytes(raw.try_into().unwrap())),
        ScalarTy::F32 => Value::Float(f32::from_le_bytes(raw.try_into().unwrap()) as f64),
        ScalarTy::F64 => Value::Float(f64::from_le_bytes(raw.try_into().unwrap())),
    }
}

/// Write one element of type `ty` into `bytes` at byte offset `off`
/// (little-endian), wrapping/rounding `v` to fit.
///
/// # Panics
/// Panics if the access is out of bounds.
#[inline]
pub fn write_elem(ty: ScalarTy, bytes: &mut [u8], off: usize, v: Value) {
    match ty {
        ScalarTy::I8 | ScalarTy::U8 => bytes[off] = v.as_int() as u8,
        ScalarTy::I16 | ScalarTy::U16 => {
            bytes[off..off + 2].copy_from_slice(&(v.as_int() as i16).to_le_bytes())
        }
        ScalarTy::I32 | ScalarTy::U32 => {
            bytes[off..off + 4].copy_from_slice(&(v.as_int() as i32).to_le_bytes())
        }
        ScalarTy::I64 => bytes[off..off + 8].copy_from_slice(&v.as_int().to_le_bytes()),
        ScalarTy::F32 => bytes[off..off + 4].copy_from_slice(&(v.as_float() as f32).to_le_bytes()),
        ScalarTy::F64 => bytes[off..off + 8].copy_from_slice(&v.as_float().to_le_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith_wraps() {
        let v = eval_bin(BinOp::Add, ScalarTy::I8, Value::Int(127), Value::Int(1));
        assert_eq!(v, Value::Int(-128));
        let v = eval_bin(BinOp::Mul, ScalarTy::U8, Value::Int(16), Value::Int(16));
        assert_eq!(v, Value::Int(0));
    }

    #[test]
    fn div_by_zero_is_zero() {
        let v = eval_bin(BinOp::Div, ScalarTy::I32, Value::Int(42), Value::Int(0));
        assert_eq!(v, Value::Int(0));
    }

    #[test]
    fn unsigned_shr_is_logical() {
        let v = eval_bin(BinOp::Shr, ScalarTy::U8, Value::Int(0x80), Value::Int(1));
        assert_eq!(v, Value::Int(0x40));
        let v = eval_bin(BinOp::Shr, ScalarTy::I8, Value::Int(-128), Value::Int(1));
        assert_eq!(v, Value::Int(-64));
    }

    #[test]
    fn shift_amount_masked() {
        let v = eval_bin(BinOp::Shl, ScalarTy::I16, Value::Int(1), Value::Int(17));
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn f32_rounds_through() {
        let v = eval_bin(
            BinOp::Add,
            ScalarTy::F32,
            Value::Float(0.1),
            Value::Float(0.2),
        );
        assert_eq!(v.as_float(), (0.1f32 + 0.2f32) as f64);
    }

    #[test]
    fn cast_saturates_float_to_int() {
        let v = eval_cast(ScalarTy::F32, ScalarTy::I8, Value::Float(1000.0));
        assert_eq!(v, Value::Int(127));
        let v = eval_cast(ScalarTy::F64, ScalarTy::U8, Value::Float(-5.0));
        assert_eq!(v, Value::Int(0));
    }

    #[test]
    fn abs_wraps_at_min() {
        let v = eval_un(UnOp::Abs, ScalarTy::I8, Value::Int(-128));
        assert_eq!(v, Value::Int(-128));
    }

    #[test]
    fn elem_roundtrip_all_types() {
        let mut buf = vec![0u8; 16];
        for ty in ScalarTy::ALL {
            let v = if ty.is_float() {
                Value::Float(-2.5)
            } else {
                Value::Int(-7)
            };
            write_elem(ty, &mut buf, 8 - ty.size(), v);
            let back = read_elem(ty, &buf, 8 - ty.size());
            if ty.is_unsigned_int() {
                assert_eq!(back, Value::Int(wrap_int(ty, -7)), "{ty:?}");
            } else {
                assert_eq!(back, v, "{ty:?}");
            }
        }
    }
}
