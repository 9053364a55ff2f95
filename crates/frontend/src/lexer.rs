//! Lexer for the mini-C kernel language.
//!
//! The lexer is one forward pass over the source *bytes*. It never
//! collects characters, and an identifier token borrows its text from
//! the source ([`Tok::Ident`] is a `&'src str`), so tokens are `Copy` and
//! lexing allocates nothing. The parser pulls tokens one at a time as it
//! parses; [`lex`] collects them into a list.
//!
//! Positions are 1-based lines and *character* columns. The lexer keeps
//! the byte offset where the current line starts, so a column is a
//! subtraction of byte offsets. A line that has held a non-ASCII
//! character (possible only inside a comment or as Unicode whitespace)
//! falls back to counting the UTF-8 characters before the column.

use std::fmt;

/// A lexical token. Identifiers borrow the source text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'src> {
    /// Identifier or type keyword.
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// The integer literal 2^63 (its source text), lexed only right after
    /// a `-`. It is in range only as the operand of a negation, which the
    /// parser folds into `i64::MIN`; anywhere else the parser reports it
    /// as the malformed literal the lexer reports without the `-`.
    IntMinMagnitude(&'src str),
    /// Floating literal.
    Float(f64),
    /// `kernel` keyword.
    Kernel,
    /// `for` keyword.
    For,
    /// `global` keyword.
    Global,
    /// Punctuation / operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Assign,
    PlusAssign,
    PlusPlus,
    Plus,
    Minus,
    Star,
    Slash,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
    EqEq,
    Lt,
    /// End of input, at the position of the last token (`0:0` when there
    /// is none). [`lex`] does not return it.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::IntMinMagnitude(_) => f.write_str("integer `9223372036854775808`"),
            Tok::Float(v) => write!(f, "float `{v}`"),
            Tok::Kernel => f.write_str("`kernel`"),
            Tok::For => f.write_str("`for`"),
            Tok::Global => f.write_str("`global`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Assign => f.write_str("`=`"),
            Tok::PlusAssign => f.write_str("`+=`"),
            Tok::PlusPlus => f.write_str("`++`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Amp => f.write_str("`&`"),
            Tok::Pipe => f.write_str("`|`"),
            Tok::Caret => f.write_str("`^`"),
            Tok::Shl => f.write_str("`<<`"),
            Tok::Shr => f.write_str("`>>`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Lexical or syntax error with source location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The internal result: errors are boxed so that the `Ok` paths, which
/// are all the hot ones, move small values.
pub(crate) type LexResult<T> = Result<T, Box<ParseError>>;

/// A cursor over the source that yields one token at a time. It is
/// `Copy`, so the parser looks ahead by lexing on a copy.
#[derive(Clone, Copy)]
pub(crate) struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next unread byte (always a char boundary).
    at: usize,
    /// 1-based line of `at`.
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
    /// Whether `src[line_start..at]` is all ASCII, so a column there is a
    /// byte count.
    line_ascii: bool,
    /// Position of the last token, which [`Tok::Eof`] repeats.
    last: (u32, u32),
    /// Whether the last token was `-` (see [`Tok::IntMinMagnitude`]).
    after_minus: bool,
}

impl<'src> Lexer<'src> {
    pub(crate) fn new(src: &'src str) -> Self {
        Lexer {
            src,
            at: 0,
            line: 1,
            line_start: 0,
            line_ascii: true,
            last: (0, 0),
            after_minus: false,
        }
    }

    /// The next token; [`Tok::Eof`] at the end of the source, and from
    /// then on, also after an error. Inlined so that the parser's one
    /// hot call site writes the token in place.
    #[inline(always)]
    pub(crate) fn next_token(&mut self) -> LexResult<Spanned<'src>> {
        let next = self.scan();
        match &next {
            Ok(t) => (self.last, self.after_minus) = ((t.line, t.col), t.tok == Tok::Minus),
            Err(_) => self.at = self.src.len(),
        }
        next
    }

    /// Lex the rest of the source, for its first error.
    pub(crate) fn finish(&mut self) -> LexResult<()> {
        while self.next_token()?.tok != Tok::Eof {}
        Ok(())
    }

    #[inline(always)]
    fn scan(&mut self) -> LexResult<Spanned<'src>> {
        let bytes = self.src.as_bytes();
        // Skip whitespace (`char::is_whitespace`) and comments.
        let start = loop {
            let Some(&c) = bytes.get(self.at) else {
                let (line, col) = self.last;
                return Ok(Spanned {
                    tok: Tok::Eof,
                    line,
                    col,
                });
            };
            match c {
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => self.at += 1,
                b'\n' => {
                    self.at += 1;
                    self.line += 1;
                    self.line_start = self.at;
                    self.line_ascii = true;
                }
                b'/' if matches!(bytes.get(self.at + 1), Some(b'/' | b'*')) => self.comment()?,
                0x80.. if self.unicode_space() => {}
                _ => break self.at,
            }
        };
        let (line, col) = (self.line, self.col(start));
        let next = bytes.get(start + 1).copied().unwrap_or(0);
        let (tok, len) = match bytes[start] {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let len = bytes[start + 1..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .map_or(bytes.len() - start, |len| len + 1);
                let word = &self.src[start..start + len];
                let tok = match word {
                    "kernel" => Tok::Kernel,
                    "for" => Tok::For,
                    "global" => Tok::Global,
                    _ => Tok::Ident(word),
                };
                (tok, len)
            }
            b'0'..=b'9' => self.number(start)?,
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b'{' => (Tok::LBrace, 1),
            b'}' => (Tok::RBrace, 1),
            b'[' => (Tok::LBracket, 1),
            b']' => (Tok::RBracket, 1),
            b',' => (Tok::Comma, 1),
            b';' => (Tok::Semi, 1),
            b'*' => (Tok::Star, 1),
            b'/' => (Tok::Slash, 1),
            b'&' => (Tok::Amp, 1),
            b'|' => (Tok::Pipe, 1),
            b'^' => (Tok::Caret, 1),
            b'-' => (Tok::Minus, 1),
            b'+' if next == b'=' => (Tok::PlusAssign, 2),
            b'+' if next == b'+' => (Tok::PlusPlus, 2),
            b'+' => (Tok::Plus, 1),
            b'=' if next == b'=' => (Tok::EqEq, 2),
            b'=' => (Tok::Assign, 1),
            b'<' if next == b'<' => (Tok::Shl, 2),
            b'<' => (Tok::Lt, 1),
            b'>' if next == b'>' => (Tok::Shr, 2),
            _ => return Err(self.unexpected_char(start)),
        };
        self.at = start + len;
        Ok(Spanned { tok, line, col })
    }

    /// A number starting at `start`, and its length: digits, `.`, `e`/`E`,
    /// and a sign right after an exponent marker. Any of `.eE` makes it a
    /// float.
    fn number(&self, start: usize) -> LexResult<(Tok<'src>, usize)> {
        let bytes = self.src.as_bytes();
        let mut end = start;
        let mut is_float = false;
        while let Some(&b) = bytes.get(end) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' => is_float = true,
                b'+' | b'-' if matches!(bytes[end - 1], b'e' | b'E') => {}
                _ => break,
            }
            end += 1;
        }
        let text = &self.src[start..end];
        let tok = if is_float {
            match text.parse() {
                Ok(v) => Tok::Float(v),
                Err(_) => return Err(self.malformed("float", text, end)),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) if v <= i64::MAX as u64 => Tok::Int(v as i64),
                Ok(v) if v == 1 << 63 && self.after_minus => Tok::IntMinMagnitude(text),
                _ => return Err(self.malformed("integer", text, end)),
            }
        };
        Ok((tok, end - start))
    }

    /// Skip the `//` or `/*` comment at `at`.
    #[cold]
    #[inline(never)]
    fn comment(&mut self) -> LexResult<()> {
        let bytes = self.src.as_bytes();
        let body = self.at + 2;
        if bytes[self.at + 1] == b'/' {
            let end = bytes[body..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |len| body + len);
            self.skip_to(end);
            return Ok(());
        }
        if let Some(len) = bytes[body..].windows(2).position(|w| w == b"*/") {
            self.skip_to(body + len + 2);
            return Ok(());
        }
        // The error sits on the last character of the source, or just past
        // a `/*` that ends it.
        let mut last = bytes.len().max(body + 1) - 1;
        while !self.src.is_char_boundary(last) {
            last -= 1;
        }
        self.skip_to(last);
        Err(self.error(last, "unterminated block comment".into()))
    }

    /// Skip the non-ASCII character at `at` if it is whitespace.
    #[cold]
    #[inline(never)]
    fn unicode_space(&mut self) -> bool {
        match self.src[self.at..].chars().next() {
            Some(ch) if ch.is_whitespace() => {
                self.line_ascii = false;
                self.at += ch.len_utf8();
                true
            }
            _ => false,
        }
    }

    /// Move to byte offset `to`, accounting for the newlines and non-ASCII
    /// bytes passed on the way.
    fn skip_to(&mut self, to: usize) {
        let from = self.at;
        for (k, &b) in self.src.as_bytes()[from..to].iter().enumerate() {
            if b == b'\n' {
                self.line += 1;
                self.line_start = from + k + 1;
                self.line_ascii = true;
            } else if !b.is_ascii() {
                self.line_ascii = false;
            }
        }
        self.at = to;
    }

    /// 1-based character column of byte offset `at` on the current line.
    #[inline(always)]
    fn col(&self, at: usize) -> u32 {
        if self.line_ascii {
            (at - self.line_start) as u32 + 1
        } else {
            self.char_col(at)
        }
    }

    /// The column on a line that is not all ASCII: the bytes that start a
    /// UTF-8 character, plus one.
    #[cold]
    #[inline(never)]
    fn char_col(&self, at: usize) -> u32 {
        let before = &self.src.as_bytes()[self.line_start..at];
        before.iter().filter(|&&b| (b as i8) >= -0x40).count() as u32 + 1
    }

    #[cold]
    #[inline(never)]
    fn error(&self, at: usize, msg: String) -> Box<ParseError> {
        Box::new(ParseError {
            msg,
            line: self.line,
            col: self.col(at),
        })
    }

    #[cold]
    #[inline(never)]
    fn unexpected_char(&self, at: usize) -> Box<ParseError> {
        let ch = self.src[at..].chars().next().unwrap_or_default();
        self.error(at, format!("unexpected character `{ch}`"))
    }

    #[cold]
    #[inline(never)]
    fn malformed(&self, kind: &str, text: &str, end: usize) -> Box<ParseError> {
        self.error(end, format!("malformed {kind} literal `{text}`"))
    }
}

/// Tokenize mini-C source. `//` line comments and `/* */` block comments
/// are skipped.
///
/// # Errors
/// Returns a [`ParseError`] for unterminated comments, malformed numbers,
/// or unexpected characters.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next_token().map_err(|e| *e)?;
        if t.tok == Tok::Eof {
            return Ok(toks);
        }
        toks.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_operators_and_idents() {
        let toks = lex("x += a[i] << 2; // comment\ny = 1.5e3;").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(matches!(kinds[0], Tok::Ident("x")));
        assert_eq!(kinds[1], &Tok::PlusAssign);
        assert_eq!(kinds[5], &Tok::RBracket);
        assert_eq!(kinds[6], &Tok::Shl);
        assert!(matches!(kinds[7], Tok::Int(2)));
        assert!(toks
            .iter()
            .any(|t| matches!(t.tok, Tok::Float(v) if v == 1500.0)));
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn block_comments_skip() {
        let toks = lex("a /* x\ny */ b").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn reports_bad_char() {
        let err = lex("a $ b").unwrap_err();
        assert!(err.msg.contains('$'));
        assert_eq!(err.col, 3);
    }

    #[test]
    fn unterminated_comment() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn columns_count_characters_after_non_ascii() {
        let toks = lex("/* é */ a\n\u{3000}b // ü\nc").unwrap();
        let pos: Vec<(u32, u32)> = toks.iter().map(|t| (t.line, t.col)).collect();
        assert_eq!(pos, [(1, 9), (2, 2), (3, 1)]);
    }

    #[test]
    fn two_pow_63_lexes_only_after_minus() {
        assert_eq!(
            lex("-9223372036854775808").unwrap()[1].tok,
            Tok::IntMinMagnitude("9223372036854775808")
        );
        assert!(lex("9223372036854775808").is_err());
        assert!(lex("-9223372036854775809").is_err());
    }
}
