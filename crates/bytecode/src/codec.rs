//! Binary encoding and decoding of bytecode modules.
//!
//! The encoding is a compact tagged byte stream. It serves two purposes:
//! it is the artifact whose size the §V-A(c) experiment measures
//! (vectorized vs. scalar bytecode, ~5× in the paper), and it is the
//! interoperability boundary between the offline and online toolchains.
//!
//! # The table is the format
//!
//! Every type on the wire implements one private `Wire` trait (`put` to
//! encode, `get` to decode), and the tables below are its only
//! definition: each tagged type lists `tag => Variant(fields in wire
//! order)` once, and one macro derives both directions from that line.
//! Leaf encodings are fixed per type: `u8` raw; `u32`, [`Reg`],
//! [`ArraySym`] and lengths as LEB128 varints; `i64` as a zigzag varint;
//! `f64` as 8 little-endian bytes; `String` and `Vec<T>` as a length
//! followed by the bytes or elements; `ScalarTy` by
//! [`ScalarTy::encoding`]; `Option<T>` as a `0`/`1` tag. A module is
//! [`MAGIC`], [`VERSION`] and its functions.
//!
//! # The bounds the reader enforces
//!
//! Decoded bytes are untrusted (they may come from disk), so the one
//! reader turns every malformed input into a [`DecodeError`] and never
//! panics, aborts or allocates what the input cannot back:
//! - every tag outside its table is an error, and so is a `u32` whose
//!   varint exceeds `u32::MAX` or a varint longer than 64 bits;
//! - a `Vec` pre-allocates at most one element per byte left in the
//!   input, and a `String` length is checked against those bytes;
//! - lists nest at most 64 deep: every recursion of the format (a loop
//!   body, a version arm, an `all` guard) passes through a list, so one
//!   budget bounds statements and guards alike;
//! - bytes after the last function are an error.
//!
//! Decoding builds no `String` beyond the names it returns.

use std::fmt;

use vapor_ir::{ArrayKind, BinOp, ScalarTy, UnOp};

use crate::func::{BcArray, BcFunction, BcModule, BcParam};
use crate::op::{Op, ShiftAmt};
use crate::stmt::{BcStmt, GuardCond, LoopKind, OpClass, Step};
use crate::ty::{Addr, ArraySym, BcTy, Operand, Reg};

/// Magic bytes at the start of every encoded module (`"VSBC"`).
pub const MAGIC: [u8; 4] = *b"VSBC";
/// Format version.
pub const VERSION: u8 = 1;

/// How deep lists may nest in a decoded module.
const MAX_NESTING: usize = 64;

/// Decoding error with stream offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset where decoding failed.
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over untrusted bytes.
struct Reader<'a> {
    buf: &'a [u8],
    /// Never past the end of `buf`.
    pos: usize,
    /// Lists open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, what: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError {
            offset: self.pos,
            what,
        })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        match self.buf[self.pos..].first_chunk::<N>() {
            Some(&a) => {
                self.pos += N;
                Ok(a)
            }
            None => self.fail("unexpected end"),
        }
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        self.array().map(|[b]| b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        match self.buf[self.pos..].get(..n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => self.fail("unexpected end"),
        }
    }

    /// A tag byte that is in no table: reported at the tag itself.
    fn bad_tag<T>(&self, what: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError {
            offset: self.pos - 1,
            what,
        })
    }
}

/// One type's wire encoding, both ways.
trait Wire: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

// ---------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------

impl Wire for u8 {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, DecodeError> {
        r.byte()
    }
}

/// LEB128.
impl Wire for u64 {
    fn put(&self, w: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            w.push(v as u8 | 0x80);
            v >>= 7;
        }
        w.push(v as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = r.byte()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        r.fail("varint overflow")
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut Vec<u8>) {
        u64::from(*self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
        let v = u64::get(r)?;
        u32::try_from(v).or_else(|_| r.fail("u32 out of range"))
    }
}

/// A length or count.
impl Wire for usize {
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
        let v = u64::get(r)?;
        usize::try_from(v).or_else(|_| r.fail("length out of range"))
    }
}

/// Zigzag, then LEB128.
impl Wire for i64 {
    fn put(&self, w: &mut Vec<u8>) {
        (((self << 1) ^ (self >> 63)) as u64).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<i64, DecodeError> {
        let v = u64::get(r)?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Vec<u8>) {
        w.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
        r.array().map(f64::from_le_bytes)
    }
}

impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        self.len().put(w);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        let n = usize::get(r)?;
        let b = r.bytes(n)?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .or_else(|_| r.fail("invalid utf-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        self.len().put(w);
        for x in self {
            x.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        let n = usize::get(r)?;
        if r.depth == MAX_NESTING {
            return r.fail("lists nested too deep");
        }
        r.depth += 1;
        // Every element takes at least one byte.
        let mut v = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        r.depth -= 1;
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            None => w.push(0),
            Some(x) => {
                w.push(1);
                x.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        match r.byte()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => r.bad_tag("bad Option tag"),
        }
    }
}

impl Wire for ScalarTy {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(self.encoding());
    }
    fn get(r: &mut Reader<'_>) -> Result<ScalarTy, DecodeError> {
        match ScalarTy::from_encoding(r.byte()?) {
            Some(t) => Ok(t),
            None => r.bad_tag("bad ScalarTy tag"),
        }
    }
}

// ---------------------------------------------------------------------
// The tables
// ---------------------------------------------------------------------

/// Structs: fields in wire order.
macro_rules! wire_struct {
    ($($ty:ident { $($f:tt),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$f.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, DecodeError> {
                Ok($ty { $($f: Wire::get(r)?),* })
            }
        }
    )*};
}

/// Tagged enums: one `tag => Variant`, `Variant(fields)` or
/// `Variant { fields }` line per variant, fields in wire order.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $var:ident $(($($t:ident),*))? $({$($s:ident),*})?,)*
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                match self {$(
                    $ty::$var $(($($t),*))? $({$($s),*})? => {
                        w.push($tag);
                        $($($t.put(w);)*)?
                        $($($s.put(w);)*)?
                    }
                )*}
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, DecodeError> {
                Ok(match r.byte()? {
                    $($tag => $ty::$var
                        $(($({ let $t = Wire::get(r)?; $t }),*))?
                        $({$($s: Wire::get(r)?),*})?,)*
                    _ => return r.bad_tag(concat!("bad ", stringify!($ty), " tag")),
                })
            }
        }
    )*};
}

wire_struct! {
    Reg { 0 }
    ArraySym { 0 }
    Addr { base, index, offset }
    BcParam { name, ty }
    BcArray { name, elem, kind }
    BcFunction { name, params, arrays, regs, body }
}

wire_enum! {
    BinOp {
        0 => Add, 1 => Sub, 2 => Mul, 3 => Div, 4 => Shl, 5 => Shr, 6 => And,
        7 => Or, 8 => Xor, 9 => Min, 10 => Max, 11 => CmpEq, 12 => CmpLt,
    }
    UnOp { 0 => Neg, 1 => Abs, 2 => Sqrt, }
    ArrayKind { 0 => PointerParam, 1 => Global, }
    BcTy { 0 => Scalar(t), 1 => Vec(t), 2 => RealignToken, }
    Operand { 0 => Reg(reg), 1 => ConstI(v), 2 => ConstF(v), }
    ShiftAmt { 0 => Scalar(o), 1 => PerLane(reg), }
    Step { 0 => Const(k), 1 => Vf(t, k), }
    LoopKind { 0 => Plain, 1 => VectorMain, 2 => ScalarPeel, 3 => ScalarTail, }
    OpClass {
        0 => FDiv, 1 => FSqrt, 2 => WidenMult, 3 => Cvt, 4 => DotProduct,
        5 => PerLaneShift,
    }
    Op {
        0 => GetVf { ty, group },
        1 => GetAlignLimit(t),
        2 => LoopBound { vect, scalar, group },
        3 => InitUniform(t, v),
        4 => InitAffine(t, v, inc),
        5 => InitReduc(t, v, default),
        6 => ReducPlus(t, a),
        7 => ReducMax(t, a),
        8 => ReducMin(t, a),
        9 => DotProduct(t, a, b, acc),
        10 => WidenMultHi(t, a, b),
        11 => WidenMultLo(t, a, b),
        12 => Pack(t, a, b),
        13 => UnpackHi(t, a),
        14 => UnpackLo(t, a),
        15 => CvtInt2Fp(t, a),
        16 => CvtFp2Int(t, a),
        17 => VBin(op, t, a, b),
        18 => VUn(op, t, a),
        19 => VShl(t, a, amt),
        20 => VShr(t, a, amt),
        21 => Extract { ty, stride, offset, srcs },
        22 => InterleaveHi(t, a, b),
        23 => InterleaveLo(t, a, b),
        24 => ALoad(t, addr),
        25 => AlignLoad(t, addr),
        26 => GetRt { ty, addr, mis, modulo },
        27 => RealignLoad { ty, lo, hi, rt, addr, mis, modulo },
        28 => SBin(op, t, a, b),
        29 => SUn(op, t, a),
        30 => SCast { from, to, arg },
        31 => SLoad(t, addr),
        32 => Copy(a),
    }
    GuardCond {
        0 => TypeSupported(t),
        1 => BaseAligned(a),
        2 => NoAlias(a, b),
        3 => VsAtLeast(bytes),
        4 => All(gs),
        5 => StrideAligned { array, stride, ty },
        6 => OpsSupported(cs),
    }
    BcStmt {
        0 => Def { dst, op },
        1 => VStore { ty, addr, src, mis, modulo },
        2 => SStore { ty, addr, src },
        3 => Loop { var, lo, limit, step, kind, group, body },
        4 => Version { cond, then_body, else_body },
    }
}

/// Encode a module to bytes.
pub fn encode_module(m: &BcModule) -> Vec<u8> {
    let mut w = MAGIC.to_vec();
    w.push(VERSION);
    m.funcs.put(&mut w);
    w
}

/// Decode a module from bytes.
///
/// # Errors
/// Returns a [`DecodeError`] for truncated or malformed input, within the
/// bounds the module doc lists. The result is structurally valid but
/// should still be run through [`crate::verify_function`] before
/// compilation.
pub fn decode_module(bytes: &[u8]) -> Result<BcModule, DecodeError> {
    let mut r = Reader {
        buf: bytes,
        pos: 0,
        depth: 0,
    };
    if r.array() != Ok(MAGIC) {
        return Err(DecodeError {
            offset: 0,
            what: "bad magic",
        });
    }
    if r.byte()? != VERSION {
        return r.bad_tag("unsupported version");
    }
    let funcs = Vec::get(&mut r)?;
    if r.remaining() != 0 {
        return r.fail("trailing bytes after module");
    }
    Ok(BcModule { funcs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_function() -> BcFunction {
        let mut f = BcFunction::new(
            "sum",
            vec![BcParam {
                name: "n".into(),
                ty: ScalarTy::I64,
            }],
            vec![BcArray {
                name: "a".into(),
                elem: ScalarTy::F32,
                kind: ArrayKind::Global,
            }],
        );
        let vf = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        let vsum = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        let i = f.fresh_reg(BcTy::Scalar(ScalarTy::I64));
        let vx = f.fresh_reg(BcTy::Vec(ScalarTy::F32));
        let s = f.fresh_reg(BcTy::Scalar(ScalarTy::F32));
        f.body = vec![
            BcStmt::Def {
                dst: vf,
                op: Op::GetVf {
                    ty: ScalarTy::F32,
                    group: 1,
                },
            },
            BcStmt::Def {
                dst: vsum,
                op: Op::InitUniform(ScalarTy::F32, Operand::ConstF(0.0)),
            },
            BcStmt::Loop {
                var: i,
                lo: Operand::ConstI(0),
                limit: Operand::Reg(Reg(0)),
                step: Step::Vf(ScalarTy::F32, 1),
                kind: LoopKind::VectorMain,
                group: 1,
                body: vec![
                    BcStmt::Def {
                        dst: vx,
                        op: Op::RealignLoad {
                            ty: ScalarTy::F32,
                            lo: None,
                            hi: None,
                            rt: None,
                            addr: Addr::with_offset(ArraySym(0), Operand::Reg(i), 2),
                            mis: 8,
                            modulo: 32,
                        },
                    },
                    BcStmt::Def {
                        dst: vsum,
                        op: Op::VBin(BinOp::Add, ScalarTy::F32, vx, vsum),
                    },
                ],
            },
            BcStmt::Def {
                dst: s,
                op: Op::ReducPlus(ScalarTy::F32, vsum),
            },
            BcStmt::Version {
                cond: GuardCond::All(vec![
                    GuardCond::TypeSupported(ScalarTy::F64),
                    GuardCond::BaseAligned(ArraySym(0)),
                    GuardCond::StrideAligned {
                        array: ArraySym(0),
                        stride: Operand::Reg(Reg(0)),
                        ty: ScalarTy::F32,
                    },
                    GuardCond::OpsSupported(vec![OpClass::FDiv, OpClass::Cvt]),
                ]),
                then_body: vec![BcStmt::SStore {
                    ty: ScalarTy::F32,
                    addr: Addr::new(ArraySym(0), Operand::ConstI(0)),
                    src: Operand::Reg(s),
                }],
                else_body: vec![],
            },
        ];
        f
    }

    #[test]
    fn roundtrip_preserves_module() {
        let m = BcModule::single(sample_function());
        let bytes = encode_module(&m);
        let back = decode_module(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let m = BcModule::single(sample_function());
        let bytes = encode_module(&m);
        for cut in 0..bytes.len() {
            assert!(
                decode_module(&bytes[..cut]).is_err(),
                "truncation at {cut} silently accepted"
            );
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let m = BcModule::new();
        let mut bytes = encode_module(&m);
        bytes[0] = b'X';
        assert!(decode_module(&bytes).is_err());
        let mut bytes = encode_module(&m);
        bytes[4] = 99;
        assert!(decode_module(&bytes).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let m = BcModule::new();
        let mut bytes = encode_module(&m);
        bytes.push(0);
        assert!(decode_module(&bytes).is_err());
    }
}
