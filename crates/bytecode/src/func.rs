//! Bytecode functions and modules.

use vapor_ir::{ArrayKind, ScalarTy};

use crate::stmt::BcStmt;
use crate::ty::{ArraySym, BcTy, Reg};

/// An array symbol of a bytecode function.
#[derive(Debug, Clone, PartialEq)]
pub struct BcArray {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub elem: ScalarTy,
    /// Declaration kind carried through from the IR; a *native* offline
    /// compiler may force alignment of `Global` arrays, while the split
    /// flow must treat every base as unknown and guard instead.
    pub kind: ArrayKind,
}

/// A scalar parameter of a bytecode function. Parameter `k` is bound to
/// register `Reg(k)` on entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BcParam {
    /// Source-level name.
    pub name: String,
    /// Scalar type.
    pub ty: ScalarTy,
}

/// A bytecode function (one per kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct BcFunction {
    /// Function name.
    pub name: String,
    /// Scalar parameters (pre-bound to the first registers).
    pub params: Vec<BcParam>,
    /// Array symbols.
    pub arrays: Vec<BcArray>,
    /// Register types, indexed by [`Reg`]. The first `params.len()`
    /// entries are the parameter registers.
    pub regs: Vec<BcTy>,
    /// Body.
    pub body: Vec<BcStmt>,
}

impl BcFunction {
    /// Create an empty function whose first registers hold the scalar
    /// parameters.
    pub fn new(name: impl Into<String>, params: Vec<BcParam>, arrays: Vec<BcArray>) -> BcFunction {
        let regs = params.iter().map(|p| BcTy::Scalar(p.ty)).collect();
        BcFunction {
            name: name.into(),
            params,
            arrays,
            regs,
            body: Vec::new(),
        }
    }

    /// Allocate a fresh register of the given type.
    pub fn fresh_reg(&mut self, ty: BcTy) -> Reg {
        self.regs.push(ty);
        Reg(self.regs.len() as u32 - 1)
    }

    /// Type of a register.
    ///
    /// # Panics
    /// Panics if the register is out of range.
    pub fn reg_ty(&self, r: Reg) -> BcTy {
        self.regs[r.0 as usize]
    }

    /// The register bound to scalar parameter `name`, if any.
    pub fn param_reg(&self, name: &str) -> Option<Reg> {
        self.params
            .iter()
            .position(|p| p.name == name)
            .map(|i| Reg(i as u32))
    }

    /// The array symbol with the given name, if any.
    pub fn array_named(&self, name: &str) -> Option<ArraySym> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArraySym(i as u32))
    }

    /// Declaration of an array symbol.
    ///
    /// # Panics
    /// Panics if the symbol is out of range.
    pub fn array(&self, sym: ArraySym) -> &BcArray {
        &self.arrays[sym.0 as usize]
    }

    /// Visit every statement, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&BcStmt)) {
        for s in &self.body {
            s.walk(f);
        }
    }

    /// Total statement count (bytecode "size" in instructions; the byte
    /// size metric of §V-A(c) uses the binary encoding instead).
    pub fn stmt_count(&self) -> usize {
        self.body.iter().map(BcStmt::count).sum()
    }

    /// Whether the function contains any vector code.
    pub fn has_vector_code(&self) -> bool {
        self.body.iter().any(BcStmt::has_vector_code)
    }
}

/// A bytecode module: a set of functions (the unit of encoding).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BcModule {
    /// Functions.
    pub funcs: Vec<BcFunction>,
}

impl BcModule {
    /// Empty module.
    pub fn new() -> BcModule {
        BcModule::default()
    }

    /// Module with a single function.
    pub fn single(f: BcFunction) -> BcModule {
        BcModule { funcs: vec![f] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_registers_are_prebound() {
        let f = BcFunction::new(
            "t",
            vec![
                BcParam {
                    name: "n".into(),
                    ty: ScalarTy::I64,
                },
                BcParam {
                    name: "alpha".into(),
                    ty: ScalarTy::F32,
                },
            ],
            vec![BcArray {
                name: "x".into(),
                elem: ScalarTy::F32,
                kind: ArrayKind::PointerParam,
            }],
        );
        assert_eq!(f.param_reg("alpha"), Some(Reg(1)));
        assert_eq!(f.reg_ty(Reg(0)), BcTy::Scalar(ScalarTy::I64));
        assert_eq!(f.array_named("x"), Some(ArraySym(0)));
        assert_eq!(f.array_named("nope"), None);
    }

    #[test]
    fn fresh_regs_extend_table() {
        let mut f = BcFunction::new("t", vec![], vec![]);
        let r = f.fresh_reg(BcTy::Vec(ScalarTy::I16));
        assert_eq!(r, Reg(0));
        assert_eq!(f.reg_ty(r), BcTy::Vec(ScalarTy::I16));
    }
}
