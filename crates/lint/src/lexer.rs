//! A Rust lexer — tokens faithful enough to drive the recursive-descent
//! parser ([`crate::parser`]) every rule runs on.
//!
//! The stream keeps identifiers, punctuation (multi-character operators
//! joined by maximal munch), lifetimes, and literal *placeholders*
//! (numeric text is kept for the parser's const-generic and tuple-index
//! handling; string/char contents are dropped so pattern text inside docs
//! or fixtures can never trip a rule). Comments are collected separately
//! — allow/bounded pragmas live there, read from the same [`Lexed`] the
//! parser consumes, so each file is lexed once per lint run. Full macro
//! expansion and type resolution remain deliberately out of scope; see
//! the per-rule notes in `dataflow.rs` for the accepted approximations.

/// One significant token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    pub kind: TokenKind,
}

/// Token classes. String/char literal *values* are dropped (no rule needs
/// them, and dropping them is what makes planted-violation fixtures inside
/// test strings invisible); numeric text is kept so the parser can tell a
/// tuple index from an expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`for`, `as`, `unwrap`, `HashMap`, …).
    Ident(String),
    /// A lifetime (`'a`, `'static`), name without the quote.
    Lifetime(String),
    /// A single punctuation byte that is not part of a longer operator
    /// (`.`, `!`, `{`, `<`, …).
    Punct(char),
    /// A multi-character operator (`::`, `->`, `<<`, `..=`, …), joined by
    /// maximal munch.
    Op(&'static str),
    /// A numeric literal with its source text (`0x1F`, `1_000u64`, `0.5`).
    Num(String),
    /// A string, raw-string, byte-string, char, or byte-char literal;
    /// contents dropped.
    Str,
}

/// A comment (line or block) with its starting line, text included —
/// allow-pragmas live here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body without the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the significant tokens and the comments, both in source
/// order.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first (maximal munch).
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "..",
];

/// Tokenizes `src`. Unterminated constructs (string, block comment) are
/// tolerated — the lexer consumes to end of input rather than erroring,
/// which is the right behavior for a best-effort style checker.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances `i` past one byte, maintaining the line counter. All
    // multi-byte UTF-8 continuation bytes are simply consumed.
    macro_rules! bump {
        () => {{
            if b[i] == b'\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' | b' ' | b'\t' | b'\r' => bump!(),
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment (incl. doc comments).
                let start_line = line;
                let mut text = String::new();
                i += 2;
                while i < b.len() && b[i] != b'\n' {
                    text.push(b[i] as char);
                    i += 1;
                }
                out.comments.push(Comment {
                    line: start_line,
                    text,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment, possibly nested.
                let start_line = line;
                let mut text = String::new();
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        text.push(b[i] as char);
                        bump!();
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text,
                });
            }
            b'"' => {
                let start_line = line;
                bump!();
                skip_string_body(b, &mut i, &mut line);
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Str,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                // r"…", r#"…"#, b"…", br#"…"# and friends.
                let start_line = line;
                let mut raw = false;
                while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
                    raw |= b[i] == b'r';
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                if i < b.len() && b[i] == b'"' {
                    bump!();
                    if raw {
                        skip_raw_string_body(b, &mut i, &mut line, hashes);
                    } else {
                        // b"…" — a plain byte string with escape rules.
                        skip_string_body(b, &mut i, &mut line);
                    }
                }
                out.tokens.push(Token {
                    line: start_line,
                    kind: TokenKind::Str,
                });
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'\'' => {
                // Byte-char literal b'x' / b'\n'. Without this case the
                // `b` lexes as an identifier and the `'x'` as a separate
                // char literal, which corrupts the parser's token stream.
                i += 1; // consume the b; the quote branch below never sees it
                skip_char_literal(b, &mut i, &mut line);
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Str,
                });
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is `'ident` not
                // followed by a closing quote.
                let mut j = i + 1;
                if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') && b[j] != b'\\' {
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' {
                        // 'x' — a char literal; consume through the quote.
                        i = j + 1;
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Str,
                        });
                    } else {
                        // Lifetime: consume the quote + identifier.
                        let name = String::from_utf8_lossy(&b[i + 1..j]).into_owned();
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Lifetime(name),
                        });
                        i = j;
                    }
                } else {
                    skip_char_literal(b, &mut i, &mut line);
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Str,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                lex_number(b, &mut i);
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Num(text),
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Ident(text),
                });
            }
            _ => {
                if let Some(op) = OPS
                    .iter()
                    .find(|op| b[i..].starts_with(op.as_bytes()))
                    .copied()
                {
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Op(op),
                    });
                    i += op.len();
                } else {
                    if c.is_ascii() {
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Punct(c as char),
                        });
                    }
                    bump!();
                }
            }
        }
    }
    out
}

/// Consumes a numeric literal starting at a digit: integer/float body,
/// optional exponent, optional alphanumeric suffix. A `.` is part of the
/// number only when a digit follows — `0..10` keeps its range operator and
/// `tuple.0.method()` keeps its method call (the old token-dropping lexer
/// swallowed `0.method` whole).
fn lex_number(b: &[u8], i: &mut usize) {
    let radix_prefix = *i + 1 < b.len()
        && b[*i] == b'0'
        && matches!(b[*i + 1], b'x' | b'X' | b'o' | b'O' | b'b' | b'B');
    if radix_prefix {
        *i += 2;
        while *i < b.len() && (b[*i].is_ascii_alphanumeric() || b[*i] == b'_') {
            *i += 1;
        }
        return;
    }
    while *i < b.len() && (b[*i].is_ascii_digit() || b[*i] == b'_') {
        *i += 1;
    }
    // Fractional part: only when a digit follows the dot.
    if *i + 1 < b.len() && b[*i] == b'.' && b[*i + 1].is_ascii_digit() {
        *i += 1;
        while *i < b.len() && (b[*i].is_ascii_digit() || b[*i] == b'_') {
            *i += 1;
        }
    }
    // Exponent.
    if *i < b.len() && (b[*i] == b'e' || b[*i] == b'E') {
        let mut j = *i + 1;
        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            *i = j;
            while *i < b.len() && (b[*i].is_ascii_digit() || b[*i] == b'_') {
                *i += 1;
            }
        }
    }
    // Type suffix (u64, f32, usize…).
    while *i < b.len() && (b[*i].is_ascii_alphanumeric() || b[*i] == b'_') {
        *i += 1;
    }
}

/// At an opening `'` of a char literal (escaped or not): consume through
/// the closing quote.
fn skip_char_literal(b: &[u8], i: &mut usize, line: &mut u32) {
    *i += 1; // opening quote
    while *i < b.len() && b[*i] != b'\'' {
        if b[*i] == b'\\' {
            *i += 1;
        }
        if *i < b.len() {
            if b[*i] == b'\n' {
                *line += 1;
            }
            *i += 1;
        }
    }
    if *i < b.len() {
        *i += 1; // closing quote
    }
}

/// After an opening `"`, consume through the closing `"` honoring `\`
/// escapes.
fn skip_string_body(b: &[u8], i: &mut usize, line: &mut u32) {
    while *i < b.len() {
        match b[*i] {
            b'\\' => {
                *i += 1;
                if *i < b.len() {
                    if b[*i] == b'\n' {
                        *line += 1;
                    }
                    *i += 1;
                }
            }
            b'"' => {
                *i += 1;
                return;
            }
            b'\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// After the opening `"` of a raw string with `hashes` `#`s, consume
/// through the matching `"##…#`. With zero hashes this is escape-free
/// (raw) termination on the first `"`.
fn skip_raw_string_body(b: &[u8], i: &mut usize, line: &mut u32, hashes: usize) {
    while *i < b.len() {
        if b[*i] == b'"' {
            let mut j = *i + 1;
            let mut seen = 0usize;
            while seen < hashes && j < b.len() && b[j] == b'#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                *i = j;
                return;
            }
        }
        if b[*i] == b'\n' {
            *line += 1;
        }
        *i += 1;
    }
}

/// Is `b[i..]` the start of a raw/byte string (`r"`, `r#`, `b"`, `br"`,
/// `rb`… prefixes)? Identifiers like `result` must not match.
fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') && j - i < 2 {
        j += 1;
    }
    if j == i {
        return false;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r###"
            // a comment mentioning unwrap()
            /* block with panic! inside */
            let x = "string with thread_rng";
            let y = r#"raw with SystemTime"#;
            let z = 'q';
            real_ident(x);
        "###;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        for banned in ["unwrap", "panic", "thread_rng", "SystemTime"] {
            assert!(!ids.contains(&banned.to_string()), "{banned} leaked");
        }
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "let a = 1;\n// lint: allow(D4, \"why\")\nlet b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("lint: allow"));
    }

    #[test]
    fn lifetimes_are_tokens_not_char_literals() {
        // If the lexer mis-lexed `'a` as an open char literal it would
        // swallow the rest of the line including `drain`.
        let lexed = lex("fn f<'a>(x: &'a mut M) { x.drain(); }");
        let ids: Vec<String> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"drain".to_string()));
        let lifetimes: Vec<&TokenKind> = lexed
            .tokens
            .iter()
            .map(|t| &t.kind)
            .filter(|k| matches!(k, TokenKind::Lifetime(_)))
            .collect();
        assert_eq!(
            lifetimes,
            vec![
                &TokenKind::Lifetime("a".into()),
                &TokenKind::Lifetime("a".into())
            ]
        );
    }

    #[test]
    fn static_lifetime_and_underscore_lifetime() {
        let ks = kinds("&'static str; &'_ T");
        assert!(ks.contains(&TokenKind::Lifetime("static".into())));
        assert!(ks.contains(&TokenKind::Lifetime("_".into())));
    }

    #[test]
    fn escaped_char_literals_terminate() {
        let ids = idents(r"let c = '\n'; after('\'');");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn byte_char_literals_do_not_leak_an_ident() {
        // `b'{'` must lex as one literal, not Ident("b") + char '{'.
        let ks = kinds("m(b'{', b'\\n', b'0')");
        assert!(!ks.contains(&TokenKind::Ident("b".into())), "{ks:?}");
        assert_eq!(
            ks.iter().filter(|k| **k == TokenKind::Str).count(),
            3,
            "{ks:?}"
        );
    }

    #[test]
    fn byte_char_range_patterns_lex_cleanly() {
        // The json parser's `Some(b @ b'0'..=b'9')` shape.
        let ks = kinds("b @ b'0'..=b'9'");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("b".into()),
                TokenKind::Punct('@'),
                TokenKind::Str,
                TokenKind::Op("..="),
                TokenKind::Str,
            ]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numeric_literals_keep_text_and_split_ranges() {
        let ks = kinds("1u32 0.5f64 0x1F_u64 1_000 1e9 0..10");
        assert_eq!(
            ks,
            vec![
                TokenKind::Num("1u32".into()),
                TokenKind::Num("0.5f64".into()),
                TokenKind::Num("0x1F_u64".into()),
                TokenKind::Num("1_000".into()),
                TokenKind::Num("1e9".into()),
                TokenKind::Num("0".into()),
                TokenKind::Op(".."),
                TokenKind::Num("10".into()),
            ]
        );
    }

    #[test]
    fn tuple_index_method_calls_are_not_swallowed() {
        // Regression: the old lexer consumed `0.checked_add` as one
        // numeric literal, hiding the method call from every rule.
        let ids = idents("line.0.checked_add(d)");
        assert_eq!(
            ids,
            vec!["line".to_string(), "checked_add".into(), "d".into()]
        );
        let ks = kinds("line.0.checked_add(d)");
        assert!(ks.contains(&TokenKind::Num("0".into())), "{ks:?}");
    }

    #[test]
    fn operators_join_by_maximal_munch() {
        let ks = kinds("a::b -> c => d == e != f <= g >= h && i || j << k >> l <<= m ..= n .. o");
        let ops: Vec<&str> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Op(o) => Some(*o),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "<<=", "..=",
                ".."
            ]
        );
    }

    #[test]
    fn single_colon_and_angle_stay_punct() {
        let ks = kinds("x: Vec<u8>");
        assert!(ks.contains(&TokenKind::Punct(':')));
        assert!(ks.contains(&TokenKind::Punct('<')));
    }

    #[test]
    fn nested_block_comments() {
        let ids = idents("/* outer /* inner */ still comment */ visible");
        assert_eq!(ids, vec!["visible".to_string()]);
    }

    #[test]
    fn raw_strings_with_hashes_and_inner_quotes() {
        // `"#` inside an `r##"…"##` string must not terminate it early.
        let src = r####"let x = r##"quote " and hash # and "# inside"##; tail(x);"####;
        let ids = idents(src);
        assert_eq!(
            ids,
            vec!["let".to_string(), "x".into(), "tail".into(), "x".into()]
        );
    }

    #[test]
    fn raw_string_spanning_lines_keeps_line_numbers() {
        let src = "let a = r#\"one\ntwo\nthree\"#;\nafter();";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("after".into()))
            .expect("after token");
        assert_eq!(after.line, 4);
    }
}
