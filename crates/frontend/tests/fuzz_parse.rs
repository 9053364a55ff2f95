//! Front-end robustness (generation hand-rolled on the deterministic
//! workspace PRNG; the offline build has no proptest). Random bytes,
//! random token soup, and byte and token mutations of every suite kernel
//! must each either fail with a `ParseError` or parse to a kernel that
//! validates and whose printed form re-parses to an equal kernel —
//! never panic, whatever multi-byte characters they hold. Whitespace
//! and comments injected between the tokens of a suite kernel change
//! nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vapor_frontend::{lex, parse_kernel};
use vapor_ir::{print_kernel, validate};

/// The property: `Err`, or a valid kernel that survives a print and a
/// re-parse. Returns whether `src` parsed.
fn check(src: &str) -> bool {
    let _ = lex(src);
    let Ok(k) = parse_kernel(src) else {
        return false;
    };
    assert_eq!(validate(&k), Ok(()), "{src:?}");
    let printed = print_kernel(&k);
    match parse_kernel(&printed) {
        Ok(again) => assert_eq!(again, k, "{src:?} printed as {printed:?}"),
        Err(e) => panic!("{src:?} printed as {printed:?}, which fails: {e}"),
    }
    true
}

/// Tokens, keywords and junk the soups and mutations draw from.
fn vocab() -> Vec<&'static str> {
    let mut words: Vec<&str> = "kernel for global long int short char uchar ushort uint float \
        double n i j x y s min max abs sqrt 0 1 2 255 9223372036854775807 9223372036854775808 \
        99999999999999999999 0.0 1.5 2.5e3 1e20 1e999 1e-400 1. 1e ( ) { } [ ] , ; = += ++ + - \
        * / & | ^ << >> == < > $ é 中 /*"
        .split_whitespace()
        .collect();
    words.extend(["/* c */", "// c\n", "\n", "\t"]);
    words
}

/// Expression pieces, for soups inside a kernel frame.
fn expr_vocab() -> Vec<&'static str> {
    "n s x[0] y[n] ( ) + - * / & | ^ << >> == < 0 1 255 9223372036854775807 \
     9223372036854775808 1.5 1e20 1e999 1e-400 (long) (int) (double) min( max( abs( sqrt( ,"
        .split_whitespace()
        .collect()
}

/// Characters of more than one UTF-8 byte, whitespace or not.
const MULTIBYTE: &[char] = &[
    'é', 'ü', '中', '😀', '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}', '\u{feff}',
];

/// Separators that must not change a kernel when put between tokens.
const SEPARATORS: &[&str] = &[
    " ",
    "\t",
    "\r\n",
    "\n\n",
    "\u{b}\u{c}",
    "\u{a0}",
    "\u{3000}",
    "\u{2028}",
    "/* x */",
    "// c\n",
    "/* é\n ü */",
    "/**/",
    "// 中\r\n",
];

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// The source text of each token of the ASCII, comment-free `src`.
fn token_texts(src: &str) -> Vec<&str> {
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(src.match_indices('\n').map(|(i, _)| i + 1))
        .collect();
    let starts: Vec<usize> = lex(src)
        .unwrap()
        .iter()
        .map(|t| line_starts[t.line as usize - 1] + t.col as usize - 1)
        .collect();
    let ends = starts.iter().skip(1).copied().chain([src.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&a, b)| src[a..b].trim_end())
        .collect()
}

fn suite_sources() -> Vec<&'static str> {
    vapor_kernels::suite().iter().map(|s| s.source).collect()
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::from_seed([21; 32]);
    for _ in 0..512 {
        let len = rng.gen_range(0..512usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256_i64) as u8).collect();
        check(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn random_token_soup_never_panics() {
    let mut rng = StdRng::from_seed([22; 32]);
    let (vocab, expr) = (vocab(), expr_vocab());
    let mut parsed = 0;
    for round in 0..3072 {
        // Two thirds are short expressions inside a kernel frame, so that
        // some soups parse.
        let (vocab, len) = match round % 3 {
            0 => (&vocab, rng.gen_range(0..48usize)),
            _ => (&expr, rng.gen_range(1..10usize)),
        };
        let soup: Vec<&str> = (0..len).map(|_| pick(&mut rng, vocab)).collect();
        let soup = soup.join(" ");
        let src = match round % 3 {
            0 => soup,
            1 => format!("kernel t(long n, long x[], double y[]) {{ long s; x[0] = {soup}; }}"),
            _ => format!("kernel t(long n, long x[], double y[]) {{ double s; y[n] = {soup}; }}"),
        };
        parsed += usize::from(check(&src));
    }
    assert!(parsed > 0, "no soup parsed: the frame is broken");
}

/// One random edit of `src`'s bytes; the result is made valid UTF-8
/// again (lossily) when an edit splits a character.
fn mutate_bytes(rng: &mut StdRng, vocab: &[&str], src: &str) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len() + 1);
    match rng.gen_range(0..5) {
        0 if at < bytes.len() => {
            bytes.remove(at);
        }
        1 => bytes.insert(at, rng.gen_range(0x20..0x7f_i64) as u8),
        2 if at < bytes.len() => bytes[at] = rng.gen_range(0..256_i64) as u8,
        3 => {
            let mut buf = [0; 4];
            let ch = pick(rng, MULTIBYTE).encode_utf8(&mut buf);
            bytes.splice(at..at, ch.bytes());
        }
        _ => bytes
            .splice(at..at, pick(rng, vocab).bytes())
            .for_each(drop),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn byte_mutations_of_the_suite_never_panic() {
    let mut rng = StdRng::from_seed([23; 32]);
    let vocab = vocab();
    for src in suite_sources() {
        for _ in 0..48 {
            let mut text = src.to_owned();
            for _ in 0..rng.gen_range(1..4usize) {
                text = mutate_bytes(&mut rng, &vocab, &text);
            }
            check(&text);
        }
    }
}

#[test]
fn token_mutations_of_the_suite_never_panic() {
    let mut rng = StdRng::from_seed([24; 32]);
    let vocab = vocab();
    let mut parsed = 0;
    for src in suite_sources() {
        let toks = token_texts(src);
        for _ in 0..48 {
            let mut toks = toks.clone();
            let at = rng.gen_range(0..toks.len());
            match rng.gen_range(0..5) {
                0 => {
                    toks.remove(at);
                }
                1 => toks.insert(at, toks[at]),
                2 if at + 1 < toks.len() => toks.swap(at, at + 1),
                3 => toks[at] = pick(&mut rng, &vocab),
                _ => toks.insert(at, pick(&mut rng, &vocab)),
            }
            parsed += usize::from(check(&toks.join(" ")));
        }
    }
    assert!(parsed > 0, "no token mutation parsed");
}

#[test]
fn whitespace_and_comments_between_tokens_change_nothing() {
    let mut rng = StdRng::from_seed([25; 32]);
    for src in suite_sources() {
        let want = parse_kernel(src).unwrap();
        let toks = token_texts(src);
        for _ in 0..8 {
            let mut text = pick(&mut rng, SEPARATORS).to_string();
            for t in &toks {
                text.push_str(t);
                if t.ends_with('/') {
                    // `/` then `/*` would start a line comment.
                    text.push(' ');
                }
                text.push_str(pick(&mut rng, SEPARATORS));
            }
            assert_eq!(parse_kernel(&text).as_ref(), Ok(&want), "{text:?}");
            assert!(check(&text));
        }
    }
}
