//! Recursive-descent parser from mini-C text to `vapor-ir` kernels.
//!
//! Grammar (tokens from [`crate::lexer`]):
//!
//! ```text
//! kernel  := "kernel" IDENT "(" param,* ")" "{" local* stmt* "}"
//! param   := TYPE IDENT                 // scalar parameter
//!          | ["global"] TYPE IDENT "[]" // array (pointer unless global)
//! local   := TYPE IDENT ";"
//! stmt    := for | assign | store
//! for     := "for" "(" "long" IDENT "=" expr ";" IDENT "<" expr ";"
//!            (IDENT "++" | IDENT "+=" INT) ")" "{" stmt* "}"
//! assign  := IDENT ("=" | "+=") expr ";"
//! store   := IDENT "[" expr "]" ("=" | "+=") expr ";"
//! ```
//!
//! Expression precedence, loosest to tightest: `== <`, `|`, `^`, `&`,
//! `<< >>`, `+ -`, `* /`, unary (`-`, casts), primary. `min`, `max`,
//! `abs`, `sqrt` are call-syntax builtins. Binary operators are parsed by
//! precedence climbing: one loop per operand, not one call per level.
//!
//! The parser pulls tokens from the lexer as it goes, so the source is
//! read once and no token list is built. Besides two scratch vectors, it
//! allocates only what the returned tree owns: a `String` per declared
//! name, a `Box` per expression node, one exact-size `Vec` per statement
//! list. A syntax error is reported only after the rest of the source has
//! been lexed, so a lexical error anywhere wins, as if lexing ran first.
//!
//! Nesting is capped at [`MAX_NESTING`] levels, so deep input is a
//! [`ParseError`], not a stack overflow. A level is a parenthesis, a cast
//! or negation operand, a builtin call, a subscript, a loop body, or a
//! binary operator folded into a chain (each adds a level to the tree
//! that later passes walk recursively).

use std::fmt::Display;

use vapor_ir::{
    ArrayDecl, ArrayId, ArrayKind, BinOp, Expr, Kernel, ScalarTy, Stmt, UnOp, VarDecl, VarId,
    VarKind,
};

use crate::lexer::{LexResult as PResult, Lexer, ParseError, Spanned, Tok};

/// The deepest nesting [`parse_kernel`] accepts (see the module docs).
pub const MAX_NESTING: usize = 256;

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The current token; [`Tok::Eof`] at the end of input and after a
    /// lexical error.
    tok: Spanned<'src>,
    /// The first lexical error; it outranks any syntax error.
    lex_err: Option<Box<ParseError>>,
    /// Current nesting level.
    depth: usize,
    vars: Vec<VarDecl>,
    arrays: Vec<ArrayDecl>,
    open_loops: Vec<VarId>,
    /// Statements of every body still open, innermost last.
    stmts: Vec<Stmt>,
}

/// The next token of a lookahead copy of the lexer; a lexical error
/// reads as the end of input (the parser's own lexer reports it).
#[inline(never)]
fn lex_ahead<'src>(lexer: &mut Lexer<'src>) -> Tok<'src> {
    lexer.next_token().map_or(Tok::Eof, |t| t.tok)
}

/// `a == b`, compared in line: names are short.
fn same_name(a: &str, b: &str) -> bool {
    a.len() == b.len() && a.bytes().zip(b.bytes()).all(|(x, y)| x == y)
}

impl<'src> Parser<'src> {
    fn new(src: &'src str) -> Self {
        let mut p = Parser {
            lexer: Lexer::new(src),
            tok: Spanned {
                tok: Tok::Eof,
                line: 0,
                col: 0,
            },
            lex_err: None,
            depth: 0,
            vars: Vec::new(),
            arrays: Vec::new(),
            open_loops: Vec::new(),
            stmts: Vec::new(),
        };
        p.advance();
        p
    }

    /// Move to the next token. A lexical error ends the input here and is
    /// kept for the report. Not inlined: this is the one copy of the
    /// (inlined) lexer on the hot path.
    #[inline(never)]
    fn advance(&mut self) {
        match self.lexer.next_token() {
            Ok(t) => self.tok = t,
            Err(e) => {
                self.tok.tok = Tok::Eof;
                self.lex_err = Some(e);
            }
        }
    }

    fn peek(&self) -> Tok<'src> {
        self.tok.tok
    }

    /// The token after the current one, lexed on a copy of the lexer.
    fn peek2(&self) -> Tok<'src> {
        let mut ahead = self.lexer;
        lex_ahead(&mut ahead)
    }

    /// `Some(ty)` when the current `(` opens a cast `( TYPE )`.
    fn cast_ahead(&self) -> Option<ScalarTy> {
        let mut ahead = self.lexer;
        let Tok::Ident(word) = lex_ahead(&mut ahead) else {
            return None;
        };
        let ty = ScalarTy::from_keyword(word)?;
        (lex_ahead(&mut ahead) == Tok::RParen).then_some(ty)
    }

    /// An error at the current token.
    #[cold]
    #[inline(never)]
    fn err(&self, msg: String) -> Box<ParseError> {
        Box::new(ParseError {
            msg,
            line: self.tok.line,
            col: self.tok.col,
        })
    }

    /// "expected {what}, found {current token}", or the end of input.
    #[cold]
    #[inline(never)]
    fn unexpected(&self, what: &dyn Display) -> Box<ParseError> {
        self.err(match self.peek() {
            Tok::Eof => "unexpected end of input".to_owned(),
            got => format!("expected {what}, found {got}"),
        })
    }

    /// "unknown {kind} `{name}`".
    #[cold]
    #[inline(never)]
    fn unknown(&self, kind: &str, name: &str) -> Box<ParseError> {
        self.err(format!("unknown {kind} `{name}`"))
    }

    fn expect(&mut self, want: Tok<'src>) -> PResult<()> {
        if self.peek() != want {
            return Err(self.unexpected(&want));
        }
        self.advance();
        Ok(())
    }

    fn expect_ident(&mut self) -> PResult<&'src str> {
        let Tok::Ident(name) = self.peek() else {
            return Err(self.unexpected(&"identifier"));
        };
        self.advance();
        Ok(name)
    }

    fn peek_type(&self) -> Option<ScalarTy> {
        match self.peek() {
            Tok::Ident(s) => ScalarTy::from_keyword(s),
            _ => None,
        }
    }

    fn expect_type(&mut self) -> PResult<ScalarTy> {
        let Tok::Ident(name) = self.peek() else {
            return Err(self.unexpected(&"identifier"));
        };
        let Some(ty) = ScalarTy::from_keyword(name) else {
            return Err(self.err(format!("expected a type keyword, found `{name}`")));
        };
        self.advance();
        Ok(ty)
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.enter()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// One level deeper; the caller restores `depth`.
    fn enter(&mut self) -> PResult<()> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn var_named(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| same_name(&v.name, name))
            .map(|i| VarId(i as u32))
    }

    fn array_named(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| same_name(&a.name, name))
            .map(|i| ArrayId(i as u32))
    }

    fn check_fresh(&self, name: &str) -> PResult<()> {
        if self.var_named(name).is_some() || self.array_named(name).is_some() {
            return Err(self.err(format!("duplicate declaration of `{name}`")));
        }
        Ok(())
    }

    fn declare_var(&mut self, name: &str, ty: ScalarTy, kind: VarKind) -> PResult<VarId> {
        self.check_fresh(name)?;
        self.vars.push(VarDecl {
            name: name.to_owned(),
            ty,
            kind,
        });
        Ok(VarId(self.vars.len() as u32 - 1))
    }

    // ----- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_bin(1)
    }

    /// The binary operator at the current token and its precedence, 1
    /// (loosest) to 7 (tightest), as `vapor_ir::precedence` prints them.
    fn bin_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            Tok::EqEq => (BinOp::CmpEq, 1),
            Tok::Lt => (BinOp::CmpLt, 1),
            Tok::Pipe => (BinOp::Or, 2),
            Tok::Caret => (BinOp::Xor, 3),
            Tok::Amp => (BinOp::And, 4),
            Tok::Shl => (BinOp::Shl, 5),
            Tok::Shr => (BinOp::Shr, 5),
            Tok::Plus => (BinOp::Add, 6),
            Tok::Minus => (BinOp::Sub, 6),
            Tok::Star => (BinOp::Mul, 7),
            Tok::Slash => (BinOp::Div, 7),
            _ => return None,
        })
    }

    /// Precedence climbing: an operand, then every operator binding at
    /// least as tightly as `min_prec`, left-associative.
    fn parse_bin(&mut self, min_prec: u8) -> PResult<Expr> {
        let depth = self.depth;
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.bin_op().filter(|&(_, p)| p >= min_prec) {
            self.advance();
            // Each operator folded into the chain nests the tree deeper.
            self.enter()?;
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        match self.peek() {
            Tok::Minus => {
                self.advance();
                if let Tok::IntMinMagnitude(_) = self.peek() {
                    self.advance();
                    return Ok(Expr::Int(i64::MIN));
                }
                let arg = self.nested(Self::parse_unary)?;
                // Fold negation of literals so `-1` is a literal; the
                // negation of `i64::MIN` stays an operation.
                Ok(match arg {
                    Expr::Int(v) => v
                        .checked_neg()
                        .map_or_else(|| Expr::un(UnOp::Neg, Expr::Int(v)), Expr::Int),
                    Expr::Float(v) => Expr::Float(-v),
                    other => Expr::un(UnOp::Neg, other),
                })
            }
            Tok::LParen => {
                if let Some(ty) = self.cast_ahead() {
                    for _ in 0..3 {
                        self.advance();
                    }
                    let arg = self.nested(Self::parse_unary)?;
                    return Ok(Expr::cast(ty, arg));
                }
                self.advance();
                let e = self.nested(Self::parse_expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        let name = match self.peek() {
            Tok::Int(v) => {
                self.advance();
                return Ok(Expr::Int(v));
            }
            Tok::Float(v) => {
                self.advance();
                return Ok(Expr::Float(v));
            }
            Tok::IntMinMagnitude(text) => return Err(self.int_min_magnitude(text)),
            Tok::Ident(name) => name,
            _ => return Err(self.unexpected(&"expression")),
        };
        self.advance();
        match name {
            "min" | "max" => {
                let op = if name == "min" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                self.expect(Tok::LParen)?;
                let (a, b) = self.nested(|p| {
                    let a = p.parse_expr()?;
                    p.expect(Tok::Comma)?;
                    Ok((a, p.parse_expr()?))
                })?;
                self.expect(Tok::RParen)?;
                return Ok(Expr::bin(op, a, b));
            }
            "abs" | "sqrt" => {
                let op = if name == "abs" { UnOp::Abs } else { UnOp::Sqrt };
                self.expect(Tok::LParen)?;
                let a = self.nested(Self::parse_expr)?;
                self.expect(Tok::RParen)?;
                return Ok(Expr::un(op, a));
            }
            _ => {}
        }
        if self.peek() == Tok::LBracket {
            let (array, idx) = self.parse_subscript(name)?;
            Ok(Expr::load(array, idx))
        } else {
            match self.var_named(name) {
                Some(var) => Ok(Expr::Var(var)),
                None => Err(self.unknown("variable", name)),
            }
        }
    }

    /// The lexer's own error for 2^63 outside a negation, at the end of
    /// the literal. It is lexical, so it also outranks a later lexical
    /// error.
    #[cold]
    #[inline(never)]
    fn int_min_magnitude(&mut self, text: &str) -> Box<ParseError> {
        let e = Box::new(ParseError {
            msg: format!("malformed integer literal `{text}`"),
            line: self.tok.line,
            col: self.tok.col + text.len() as u32,
        });
        self.lex_err = Some(e.clone());
        e
    }

    /// `[ expr ]` after the array `name`.
    fn parse_subscript(&mut self, name: &str) -> PResult<(ArrayId, Expr)> {
        let Some(array) = self.array_named(name) else {
            return Err(self.unknown("array", name));
        };
        self.advance();
        let index = self.nested(Self::parse_expr)?;
        self.expect(Tok::RBracket)?;
        Ok((array, index))
    }

    // ----- statements ----------------------------------------------------

    /// `=` (false) or `+=` (true).
    fn assign_op(&mut self) -> PResult<bool> {
        let compound = match self.peek() {
            Tok::Assign => false,
            Tok::PlusAssign => true,
            _ => return Err(self.unexpected(&"`=` or `+=`")),
        };
        self.advance();
        Ok(compound)
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        if self.peek() == Tok::For {
            return self.parse_for();
        }
        let name = self.expect_ident()?;
        if self.peek() == Tok::LBracket {
            let (array, index) = self.parse_subscript(name)?;
            let compound = self.assign_op()?;
            let rhs = self.parse_expr()?;
            self.expect(Tok::Semi)?;
            let value = if compound {
                Expr::bin(BinOp::Add, Expr::load(array, index.clone()), rhs)
            } else {
                rhs
            };
            Ok(Stmt::Store {
                array,
                index,
                value,
            })
        } else {
            let Some(var) = self.var_named(name) else {
                return Err(self.unknown("variable", name));
            };
            let compound = self.assign_op()?;
            let rhs = self.parse_expr()?;
            self.expect(Tok::Semi)?;
            let value = if compound {
                Expr::bin(BinOp::Add, Expr::Var(var), rhs)
            } else {
                rhs
            };
            Ok(Stmt::Assign { var, value })
        }
    }

    /// Statements up to and including the closing `}`, as one exact-size
    /// `Vec`.
    #[inline(never)]
    fn parse_body(&mut self) -> PResult<Vec<Stmt>> {
        let start = self.stmts.len();
        while self.peek() != Tok::RBrace {
            let s = self.parse_stmt()?;
            self.stmts.push(s);
        }
        self.advance();
        Ok(self.stmts.split_off(start))
    }

    fn parse_for(&mut self) -> PResult<Stmt> {
        self.expect(Tok::For)?;
        self.expect(Tok::LParen)?;
        let ty = self.expect_type()?;
        if ty != ScalarTy::I64 {
            return Err(self.err("loop variables must be declared `long`".to_owned()));
        }
        let name = self.expect_ident()?;
        // Sequential loops may reuse a finished loop variable's name.
        let var = match self.var_named(name) {
            Some(v) if self.vars[v.0 as usize].kind == VarKind::Loop => {
                if self.open_loops.contains(&v) {
                    return Err(self.err(format!("loop variable `{name}` already in use")));
                }
                v
            }
            Some(_) => {
                return Err(self.err(format!("`{name}` is not a loop variable")));
            }
            None => self.declare_var(name, ScalarTy::I64, VarKind::Loop)?,
        };
        self.expect(Tok::Assign)?;
        let lo = self.parse_expr()?;
        self.expect(Tok::Semi)?;
        let n2 = self.expect_ident()?;
        if n2 != name {
            return Err(self.err(format!("loop condition must test `{name}`, found `{n2}`")));
        }
        self.expect(Tok::Lt)?;
        let hi = self.parse_expr()?;
        self.expect(Tok::Semi)?;
        let n3 = self.expect_ident()?;
        if n3 != name {
            return Err(self.err(format!("loop increment must update `{name}`, found `{n3}`")));
        }
        let step = match self.peek() {
            Tok::PlusPlus => 1,
            Tok::PlusAssign => {
                self.advance();
                match self.peek() {
                    Tok::Int(v) if v > 0 => v,
                    Tok::Eof => return Err(self.unexpected(&"a loop step")),
                    got => {
                        return Err(self.err(format!(
                            "loop step must be a positive integer literal, found {got}"
                        )));
                    }
                }
            }
            _ => return Err(self.unexpected(&"`++` or `+=`")),
        };
        self.advance();
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        self.open_loops.push(var);
        let body = self.nested(Self::parse_body)?;
        self.open_loops.pop();
        Ok(Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        })
    }

    fn parse_kernel(&mut self) -> PResult<Kernel> {
        self.expect(Tok::Kernel)?;
        let name = self.expect_ident()?.to_owned();
        self.expect(Tok::LParen)?;
        if self.peek() != Tok::RParen {
            loop {
                let global = self.peek() == Tok::Global;
                if global {
                    self.advance();
                }
                let ty = self.expect_type()?;
                let pname = self.expect_ident()?;
                if self.peek() == Tok::LBracket {
                    self.advance();
                    self.expect(Tok::RBracket)?;
                    self.check_fresh(pname)?;
                    self.arrays.push(ArrayDecl {
                        name: pname.to_owned(),
                        elem: ty,
                        kind: if global {
                            ArrayKind::Global
                        } else {
                            ArrayKind::PointerParam
                        },
                    });
                } else {
                    if global {
                        return Err(self.err("`global` only applies to arrays".to_owned()));
                    }
                    self.declare_var(pname, ty, VarKind::Param)?;
                }
                if self.peek() == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        // Local declarations: TYPE IDENT ";" (a statement never starts
        // with two identifiers).
        while let Some(ty) = self.peek_type() {
            if !matches!(self.peek2(), Tok::Ident(_)) {
                break;
            }
            self.advance();
            let lname = self.expect_ident()?;
            self.expect(Tok::Semi)?;
            self.declare_var(lname, ty, VarKind::Local)?;
        }
        let body = self.parse_body()?;
        if self.peek() != Tok::Eof {
            return Err(self.err("trailing input after kernel".to_owned()));
        }
        Ok(Kernel {
            name,
            vars: std::mem::take(&mut self.vars),
            arrays: std::mem::take(&mut self.arrays),
            body,
        })
    }
}

/// Parse and validate one kernel definition.
///
/// # Errors
/// Returns a [`ParseError`] on lexical/syntax errors; IR-level type errors
/// surface as a [`ParseError`] wrapping the validator message.
///
/// # Examples
///
/// ```
/// let k = vapor_frontend::parse_kernel(r#"
///     kernel dscal(long n, float alpha, float x[]) {
///       for (long i = 0; i < n; i++) {
///         x[i] = alpha * x[i];
///       }
///     }
/// "#).unwrap();
/// assert_eq!(k.name, "dscal");
/// ```
pub fn parse_kernel(src: &str) -> Result<Kernel, ParseError> {
    let mut p = Parser::new(src);
    let parsed = p.parse_kernel();
    let k = match (parsed, p.lex_err) {
        (_, Some(e)) => return Err(*e),
        // A lexical error later in the source outranks this syntax error.
        (Err(e), None) => return Err(*p.lexer.finish().err().unwrap_or(e)),
        (Ok(k), None) => k,
    };
    vapor_ir::validate(&k).map_err(|e| ParseError {
        msg: format!("in kernel `{}`: {e}", k.name),
        line: 0,
        col: 0,
    })?;
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_saxpy() {
        let k = parse_kernel(
            "kernel saxpy(long n, float a, float x[], float y[]) {
               for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
             }",
        )
        .unwrap();
        assert_eq!(k.arrays.len(), 2);
        assert_eq!(k.body.len(), 1);
    }

    #[test]
    fn parses_reduction_with_local_and_compound_assign() {
        let k = parse_kernel(
            "kernel sum(long n, int a[], int out[]) {
               int s;
               s = 0;
               for (long i = 0; i < n; i++) { s += a[i]; }
               out[0] = s;
             }",
        )
        .unwrap();
        assert_eq!(k.vars.iter().filter(|v| v.name == "s").count(), 1);
    }

    #[test]
    fn global_marker_sets_array_kind() {
        let k = parse_kernel(
            "kernel t(long n, global float c[], float x[]) {
               for (long i = 0; i < n; i++) { x[i] = c[i]; }
             }",
        )
        .unwrap();
        assert_eq!(k.array(ArrayId(0)).kind, ArrayKind::Global);
        assert_eq!(k.array(ArrayId(1)).kind, ArrayKind::PointerParam);
    }

    #[test]
    fn cast_and_builtins() {
        let k = parse_kernel(
            "kernel t(long n, int a[], float x[]) {
               for (long i = 0; i < n; i++) {
                 x[i] = sqrt((float)max(a[i], 0));
               }
             }",
        )
        .unwrap();
        assert_eq!(k.name, "t");
    }

    #[test]
    fn strided_for_and_reused_loop_var() {
        let k = parse_kernel(
            "kernel t(long n, float x[]) {
               for (long i = 0; i < n; i += 2) { x[i] = 0.0; }
               for (long i = 0; i < n; i++) { x[i] = 1.0; }
             }",
        )
        .unwrap();
        // The two sequential loops share one loop-variable slot.
        assert_eq!(k.vars.iter().filter(|v| v.name == "i").count(), 1);
    }

    #[test]
    fn rejects_unknown_names_and_bad_types() {
        assert!(
            parse_kernel("kernel t(long n) { for (long i = 0; i < n; i++) { y[i] = 0.0; } }")
                .is_err()
        );
        assert!(parse_kernel("kernel t(long n, float x[]) { x[0] = n; }").is_err());
        assert!(parse_kernel(
            "kernel t(int n, float x[]) { for (int i = 0; i < n; i++) { x[i] = 0.0; } }"
        )
        .is_err());
    }

    #[test]
    fn precedence_matches_pretty_printer() {
        let k = parse_kernel(
            "kernel t(long n, int a[]) {
               for (long i = 0; i < n; i++) {
                 a[i] = (a[i] + 1) * 2 - a[i] / 4 & 255;
               }
             }",
        )
        .unwrap();
        let printed = vapor_ir::print_kernel(&k);
        let k2 = parse_kernel(&printed).unwrap();
        assert_eq!(k.body, k2.body);
    }
}

#[cfg(test)]
mod diag_tests {
    use super::*;

    fn err_of(src: &str) -> ParseError {
        parse_kernel(src).unwrap_err()
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let e = err_of("kernel t(long n) {\n  for (long i = 0; i < n; i++) { q[i] = 0.0; }\n}");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown array `q`"), "{e}");
    }

    #[test]
    fn loop_header_must_be_consistent() {
        let e =
            err_of("kernel t(long n, float x[]) { for (long i = 0; j < n; i++) { x[i] = 0.0; } }");
        assert!(e.msg.contains("must test `i`"), "{e}");
        let e = err_of(
            "kernel t(long n, float x[]) { for (long i = 0; i < n; i += 0) { x[i] = 0.0; } }",
        );
        assert!(e.msg.contains("positive"), "{e}");
    }

    #[test]
    fn nested_loop_variable_reuse_rejected() {
        let e = err_of(
            "kernel t(long n, float x[]) {
               for (long i = 0; i < n; i++) {
                 for (long i = 0; i < n; i++) { x[i] = 0.0; }
               }
             }",
        );
        assert!(e.msg.contains("already in use"), "{e}");
    }

    #[test]
    fn global_on_scalar_rejected() {
        let e = err_of("kernel t(global long n, float x[]) { x[0] = 0.0; }");
        assert!(e.msg.contains("only applies to arrays"), "{e}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = err_of("kernel t(long n, float x[]) { x[0] = 0.0; } extra");
        assert!(e.msg.contains("trailing"), "{e}");
    }

    #[test]
    fn min_needs_two_arguments() {
        assert!(parse_kernel("kernel t(long n, int x[]) { x[0] = min(1); }").is_err());
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;

    fn store(rhs: &str) -> String {
        format!("kernel t(long n, long x[]) {{ x[0] = {rhs}; }}")
    }

    fn loops(depth: usize) -> String {
        let mut src = String::from("kernel t(long n, long x[]) { long s; ");
        for d in 0..depth {
            src.push_str(&format!("for (long i{d} = 0; i{d} < n; i{d}++) {{ "));
        }
        src.push_str("s = n; ");
        src.push_str(&"} ".repeat(depth));
        src.push('}');
        src
    }

    /// Every construct that nests, `depth` levels deep.
    fn shapes(depth: usize) -> Vec<(&'static str, String)> {
        let rep = |s: &str| s.repeat(depth);
        vec![
            ("parentheses", store(&format!("{}n{}", rep("("), rep(")")))),
            ("negations", store(&format!("{}n", rep("-")))),
            ("casts", store(&format!("{}n", rep("(long)")))),
            ("calls", store(&format!("{}n{}", rep("min("), rep(", n)")))),
            ("subscripts", store(&format!("{}0{}", rep("x["), rep("]")))),
            ("operator chain", store(&format!("n{}", rep(" + n")))),
            ("loops", loops(depth)),
        ]
    }

    fn is_nesting_error(e: &ParseError) -> bool {
        e.msg == format!("nesting deeper than {MAX_NESTING} levels")
    }

    /// Runs on the default test thread (2 MiB of stack in a debug build):
    /// the deepest accepted input must fit, and one level more is an
    /// error rather than an overflow.
    #[test]
    fn nesting_is_capped_at_max_nesting() {
        for (name, src) in shapes(MAX_NESTING) {
            let k = parse_kernel(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parse_kernel(&vapor_ir::print_kernel(&k)), Ok(k), "{name}");
        }
        for (name, src) in shapes(MAX_NESTING + 1) {
            let e = parse_kernel(&src).unwrap_err();
            assert!(is_nesting_error(&e), "{name}: {e}");
        }
    }

    #[test]
    fn hundred_thousand_levels_are_an_error() {
        for (name, src) in shapes(100_000) {
            let e = parse_kernel(&src).unwrap_err();
            assert!(is_nesting_error(&e), "{name}: {e}");
        }
    }

    #[test]
    fn a_lexical_error_past_the_cap_still_wins() {
        let src = store(&format!("{}n{} $", "(".repeat(1000), ")".repeat(1000)));
        let e = parse_kernel(&src).unwrap_err();
        assert_eq!(e.msg, "unexpected character `$`");
    }

    fn stored_value(src: &str) -> Expr {
        let k = parse_kernel(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(parse_kernel(&vapor_ir::print_kernel(&k)).as_ref(), Ok(&k));
        match k.body.into_iter().next() {
            Some(Stmt::Store { value, .. }) => value,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn i64_min_is_a_literal() {
        let min = Expr::Int(i64::MIN);
        assert_eq!(stored_value(&store("-9223372036854775808")), min);
        assert_eq!(stored_value(&store("- 00009223372036854775808")), min);
        assert_eq!(
            stored_value(&store("(long)-9223372036854775808")),
            Expr::cast(ScalarTy::I64, min.clone())
        );
        // Its negation does not fit: it stays an operation.
        assert_eq!(
            stored_value(&store("- -9223372036854775808")),
            Expr::un(UnOp::Neg, min)
        );
    }

    #[test]
    fn two_pow_63_is_malformed_without_a_negation() {
        let err = |rhs: &str| parse_kernel(&store(rhs)).unwrap_err().to_string();
        assert_eq!(
            err("9223372036854775808"),
            "1:56: malformed integer literal `9223372036854775808`"
        );
        assert_eq!(
            err("n - 9223372036854775808"),
            "1:60: malformed integer literal `9223372036854775808`"
        );
        assert_eq!(
            err("-9223372036854775809"),
            "1:57: malformed integer literal `9223372036854775809`"
        );
        // Reported as the lexical error it is: ahead of a later one.
        assert_eq!(
            err("n - 9223372036854775808 $"),
            "1:60: malformed integer literal `9223372036854775808`"
        );
    }
}
