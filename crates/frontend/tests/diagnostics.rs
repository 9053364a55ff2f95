//! Golden diagnostics of the front end: the exact `line:col: msg` of
//! every lexer and parser error branch, and a fingerprint of every suite
//! kernel's parsed tree (`fnv64` of its `print_kernel` text).
//!
//! The snapshot lives in `tests/golden/diagnostics.txt`; regenerate after
//! an *intentional* change of a message, a position or a parsed tree with
//! `UPDATE_GOLDEN=1 cargo test -p vapor-frontend --test diagnostics`.

use vapor_frontend::parse_kernel;

/// `(label, source)`: one or more sources per error branch, plus the
/// position-tracking corner cases (tabs, CRLF, non-ASCII text before the
/// error column, comments spanning lines).
const CASES: &[(&str, &str)] = &[
    // ----- lexer --------------------------------------------------------
    ("lex.unterminated_comment.empty", "kernel t() {} /*"),
    ("lex.unterminated_comment.body", "kernel t() {}\n/* never\nclosed"),
    ("lex.unterminated_comment.star", "/* *"),
    ("lex.unterminated_comment.newline", "/*\n"),
    ("lex.unterminated_comment.non_ascii", "/* ü\n  é ñ"),
    ("lex.unterminated_comment.ends_non_ascii", "x /* é"),
    ("lex.malformed_float.two_dots", "kernel t(float x[]) { x[0] = 1.2.3; }"),
    ("lex.malformed_float.bare_exponent", "kernel t(float x[]) { x[0] = 1e; }"),
    ("lex.malformed_float.signed_exponent", "kernel t(float x[]) { x[0] = 2E+; }"),
    ("lex.malformed_int.huge", "kernel t(long x[]) { x[0] = 99999999999999999999; }"),
    ("lex.malformed_int.two_pow_63", "kernel t(long x[]) { x[0] = 9223372036854775808; }"),
    (
        "lex.malformed_int.two_pow_63_leading_zeros",
        "kernel t(long x[]) { x[0] = 0009223372036854775808; }",
    ),
    (
        "lex.malformed_int.two_pow_63_after_binary_minus",
        "kernel t(long n, long x[]) { x[0] = n - 9223372036854775808; }",
    ),
    ("lex.unexpected_char.dollar", "kernel t() { $ }"),
    ("lex.unexpected_char.greater", "kernel t(long n, long x[]) { x[0] = n > 1; }"),
    ("lex.unexpected_char.bang", "kernel t() {\n  !\n}"),
    ("lex.unexpected_char.non_ascii", "kernel t() { é }"),
    ("lex.unexpected_char.cjk", "kernel t() {\n\t中 }"),
    ("lex.beats_earlier_parse_error", "kernel t(long n) { q[0] = 1; } @"),
    ("lex.beats_earlier_eof", "kernel t(long n) { #"),
    // ----- parser: token-level -----------------------------------------
    ("parse.eof.empty", ""),
    ("parse.eof.only_whitespace", "  \n\t "),
    ("parse.eof.only_comment", "// nothing\n/* here */"),
    ("parse.eof.after_kernel", "kernel"),
    ("parse.eof.in_body", "kernel t(long n, long x[]) {\n  x[0] = n"),
    ("parse.eof.after_brace", "kernel t(long n) {"),
    ("parse.expected.lparen", "kernel t[long n] {}"),
    ("parse.expected.kernel", "for t() {}"),
    ("parse.expected.rbracket", "kernel t(long n, long x[n]) {}"),
    ("parse.expected.semi", "kernel t(long n, long x[]) { x[0] = n }"),
    ("parse.expected.rparen", "kernel t(long n, long x[]) { x[0] = (n + 1; }"),
    ("parse.expected.comma", "kernel t(long n, long x[]) { x[0] = min(n 1); }"),
    ("parse.expected.lbrace_for_body", "kernel t(long n, long x[]) { for (long i = 0; i < n; i++) x[i] = 0; }"),
    ("parse.expected.lt", "kernel t(long n, long x[]) { for (long i = 0; i == n; i++) { } }"),
    ("parse.expected.assign_in_for", "kernel t(long n, long x[]) { for (long i < n; i++) { } }"),
    ("parse.expected_ident.kernel_name", "kernel 7() {}"),
    ("parse.expected_ident.param", "kernel t(long 3) {}"),
    ("parse.expected_ident.statement", "kernel t(long n) { 3 = n; }"),
    ("parse.expected_ident.keyword", "kernel t(long n) { global = n; }"),
    ("parse.expected_type.param", "kernel t(lung n) {}"),
    ("parse.expected_type.for", "kernel t(long n, long x[]) { for (i = 0; i < n; i++) { } }"),
    ("parse.expected_type.global", "kernel t(global x[]) {}"),
    // ----- parser: declarations ----------------------------------------
    ("parse.duplicate.param", "kernel t(long n, int n) {}"),
    ("parse.duplicate.array", "kernel t(long n, float n[]) {}"),
    ("parse.duplicate.array_twice", "kernel t(float x[], float x[]) {}"),
    ("parse.duplicate.local", "kernel t(long n) { int n; }"),
    ("parse.duplicate.local_at_eof", "kernel t(long n) { int n;"),
    ("parse.duplicate.loop_var_vs_array", "kernel t(long n, long x[]) { for (long x = 0; x < n; x++) { } }"),
    ("parse.global_scalar", "kernel t(global long n, float x[]) { x[0] = 0.0; }"),
    ("parse.trailing", "kernel t(long n, float x[]) { x[0] = 0.0; } extra"),
    ("parse.trailing.second_kernel", "kernel t() {}\nkernel u() {}"),
    // ----- parser: statements and expressions --------------------------
    ("parse.unknown_array.store", "kernel t(long n) {\n  for (long i = 0; i < n; i++) { q[i] = 0.0; }\n}"),
    ("parse.unknown_array.load", "kernel t(long n, long x[]) { x[0] = y[0]; }"),
    ("parse.unknown_variable.assign", "kernel t(long n) { s = n; }"),
    ("parse.unknown_variable.load", "kernel t(long n, long x[]) { x[0] = m; }"),
    ("parse.unknown_variable.at_eof", "kernel t(long n, long x[]) { x[0] = m"),
    ("parse.expected_assign.store", "kernel t(long n, long x[]) { x[0] - n; }"),
    ("parse.expected_assign.assign", "kernel t(long n) { int s; s ++ ; }"),
    ("parse.expected_expr.rbrace", "kernel t(long n, long x[]) { x[0] = }"),
    ("parse.expected_expr.semi", "kernel t(long n, long x[]) { x[0] = n + ; }"),
    ("parse.expected_expr.lbrace", "kernel t(long n, long x[]) { x[0] = {; }"),
    ("parse.expected_expr.rbracket", "kernel t(long n, long x[]) { x[0] = ]; }"),
    ("parse.expected_expr.comma", "kernel t(long n, long x[]) { x[0] = ,; }"),
    ("parse.expected_expr.assign", "kernel t(long n, long x[]) { x[0] = =; }"),
    ("parse.expected_expr.plus_assign", "kernel t(long n, long x[]) { x[0] = +=; }"),
    ("parse.expected_expr.plus_plus", "kernel t(long n, long x[]) { x[0] = ++; }"),
    ("parse.expected_expr.plus", "kernel t(long n, long x[]) { x[0] = +n; }"),
    ("parse.expected_expr.star", "kernel t(long n, long x[]) { x[0] = *n; }"),
    ("parse.expected_expr.slash", "kernel t(long n, long x[]) { x[0] = /n; }"),
    ("parse.expected_expr.amp", "kernel t(long n, long x[]) { x[0] = &n; }"),
    ("parse.expected_expr.pipe", "kernel t(long n, long x[]) { x[0] = |n; }"),
    ("parse.expected_expr.caret", "kernel t(long n, long x[]) { x[0] = ^n; }"),
    ("parse.expected_expr.shl", "kernel t(long n, long x[]) { x[0] = << n; }"),
    ("parse.expected_expr.shr", "kernel t(long n, long x[]) { x[0] = >> n; }"),
    ("parse.expected_expr.eqeq", "kernel t(long n, long x[]) { x[0] = == n; }"),
    ("parse.expected_expr.lt", "kernel t(long n, long x[]) { x[0] = < n; }"),
    ("parse.expected_expr.kernel", "kernel t(long n, long x[]) { x[0] = kernel; }"),
    ("parse.expected_expr.for", "kernel t(long n, long x[]) { x[0] = for; }"),
    ("parse.expected_expr.global", "kernel t(long n, long x[]) { x[0] = global; }"),
    ("parse.expected_expr.in_cast", "kernel t(long n, float x[]) { x[0] = (float); }"),
    ("parse.builtin.min_one_arg", "kernel t(long n, int x[]) { x[0] = min(1); }"),
    ("parse.builtin.abs_no_paren", "kernel t(long n, int x[]) { x[0] = abs n; }"),
    ("parse.builtin.sqrt_two_args", "kernel t(long n, float x[]) { x[0] = sqrt(1.0, 2.0); }"),
    ("parse.found.integer", "kernel t(long n, long x[]) { x[0] = n 42; }"),
    ("parse.found.float", "kernel t(long n, float x[]) { x[0] = 0.0 2.5e3; }"),
    ("parse.found.ident", "kernel t(long n, long x[]) { x[0] = n m; }"),
    // ----- parser: loop headers ----------------------------------------
    ("parse.loop.not_long", "kernel t(int n, float x[]) { for (int i = 0; i < n; i++) { x[i] = 0.0; } }"),
    ("parse.loop.in_use", "kernel t(long n, float x[]) {\n  for (long i = 0; i < n; i++) {\n    for (long i = 0; i < n; i++) { x[i] = 0.0; }\n  }\n}"),
    ("parse.loop.not_loop_var", "kernel t(long n, float x[]) { for (long n = 0; n < 4; n++) { } }"),
    ("parse.loop.condition", "kernel t(long n, float x[]) { for (long i = 0; j < n; i++) { x[i] = 0.0; } }"),
    ("parse.loop.increment", "kernel t(long n, float x[]) { for (long i = 0; i < n; j++) { x[i] = 0.0; } }"),
    ("parse.loop.step_zero", "kernel t(long n, float x[]) { for (long i = 0; i < n; i += 0) { x[i] = 0.0; } }"),
    ("parse.loop.step_float", "kernel t(long n, float x[]) { for (long i = 0; i < n; i += 1.0) { } }"),
    ("parse.loop.step_negative", "kernel t(long n, float x[]) { for (long i = 0; i < n; i += -1) { } }"),
    ("parse.loop.step_ident", "kernel t(long n, float x[]) { for (long i = 0; i < n; i += n) { } }"),
    ("parse.loop.step_eof", "kernel t(long n, float x[]) { for (long i = 0; i < n; i +="),
    ("parse.loop.update_op", "kernel t(long n, float x[]) { for (long i = 0; i < n; i = i + 1) { } }"),
    // ----- validation (reported at 0:0) --------------------------------
    ("validate.type", "kernel t(long n, float x[]) { x[0] = n; }"),
    ("validate.float_at_int", "kernel t(long n, long x[]) { x[0] = 1.5; }"),
    ("validate.assign_param", "kernel t(long n) { n = 1; }"),
    // ----- positions ----------------------------------------------------
    ("pos.tab", "kernel t(long n,\tlong x[]) {\t\tx[0] = q; }"),
    ("pos.crlf", "kernel t(long n)\r\n{\r\n  q[0] = 1;\r\n}\r\n"),
    ("pos.crlf_lex", "kernel t(long n)\r\n{\r\n\r\n  ~\r\n}"),
    ("pos.non_ascii_line_comment", "kernel t(long n) { // größe\n  q[0] = 1; }"),
    ("pos.non_ascii_block_comment", "kernel t(long n) { /* größe */ q[0] = 1; }"),
    ("pos.non_ascii_block_comment_lex", "kernel t(long n) { /* 東京 */ $ }"),
    ("pos.non_ascii_multiline_comment", "kernel t(long n) {\n/* α\n β γ */ q[0] = 1; }"),
    ("pos.non_ascii_whitespace", "kernel t(long n) {\u{a0}\u{3000} q[0] = 1; }"),
    ("pos.non_ascii_whitespace_lex", "kernel t(long n) {\u{2028}\u{85} ` }"),
    ("pos.non_ascii_previous_line_only", "// ü\nkernel t(long n) { q[0] = 1; }"),
    ("pos.vertical_tab_form_feed", "kernel t(long n) {\u{b}\u{c} q[0] = 1; }"),
];

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render() -> String {
    let mut out = String::from(
        "# Front-end diagnostics: `label: line:col: msg` per error case,\n\
         # then `name fnv64(print_kernel)` per suite kernel.\n\
         # Regenerate: UPDATE_GOLDEN=1 cargo test -p vapor-frontend --test diagnostics\n",
    );
    for (label, src) in CASES {
        match parse_kernel(src) {
            Ok(k) => panic!("{label}: parsed, expected an error:\n{k:?}"),
            Err(e) => out.push_str(&format!("{label}: {e}\n")),
        }
    }
    for spec in vapor_kernels::suite() {
        let k = parse_kernel(spec.source).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let text = vapor_ir::print_kernel(&k);
        out.push_str(&format!("{} {:016x}\n", spec.name, fnv64(&text)));
    }
    out
}

#[test]
fn diagnostics_match_the_golden_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diagnostics.txt");
    let text = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    let moved: Vec<String> = text
        .lines()
        .zip(want.lines())
        .filter(|(a, b)| a != b)
        .take(8)
        .map(|(a, b)| format!("  got  {a}\n  want {b}"))
        .collect();
    assert!(
        text == want,
        "front-end diagnostics drifted from the golden file; first moved rows:\n{}",
        moved.join("\n")
    );
}
