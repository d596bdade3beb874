//! A minimal, dependency-free Rust tokenizer for the lint pass.
//!
//! This is not a full lexer: it produces just enough structure for reliable
//! static analysis — identifiers, numbers, string/char literals, lifetimes
//! and (joined) punctuation, each with a 1-based line/column — while
//! *correctly skipping* everything that defeated the old substring matcher:
//!
//! * line comments, doc comments, and **nested** block comments;
//! * string literals with escapes, byte strings, and raw strings with an
//!   arbitrary number of `#` guards (`r"…"`, `r##"…"##`, `br#"…"#`);
//! * char literals vs. lifetimes (`'a'` is a literal, `'a` is not), and
//!   byte-char literals (`b'x'`), which are always literals;
//! * raw identifiers (`r#type`);
//! * a shebang line (`#!/usr/bin/env …`), which is not Rust tokens at all.
//!
//! Byte strings and byte chars are lexed in one pass with the token anchored
//! at the `b` prefix, so diagnostics point at the start of the literal.
//!
//! Comments are returned separately (with their line spans) so the lint can
//! honour `lint:allow(...)` directives without them ever shadowing code.

/// Token classification. The lint rules mostly care about `Ident`/`Punct`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`as`, `fn`, `HashMap`, ...).
    Ident,
    /// Numeric literal (`0xFF`, `1_000`, `1.5e3` — lexed loosely).
    Num,
    /// String literal contents (quotes/guards stripped).
    Str,
    /// Char literal contents.
    Char,
    /// Lifetime name (without the `'`).
    Lifetime,
    /// Punctuation, joined for a small set of two/three-char operators
    /// (`::`, `->`, `+=`, `..=`, ...).
    Punct,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token text (for `Str`/`Char`, the unescaped-as-written contents).
    pub text: String,
    /// Classification.
    pub kind: Kind,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column (in chars) of the token's first character.
    pub col: usize,
}

/// One comment (line or block) with its line span.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Raw comment text including the `//` / `/*` markers.
    pub text: String,
    /// 1-based first line.
    pub start_line: usize,
    /// 1-based last line (differs from `start_line` for block comments).
    pub end_line: usize,
    /// 1-based column (chars) the comment starts at.
    pub col: usize,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct Scan {
    /// All code tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Three- and two-character punctuation sequences emitted as one token,
/// longest first.
const JOINED3: &[&str] = &["..=", "<<=", ">>=", "..."];
const JOINED2: &[&str] = &[
    "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=",
];

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Consumes a `"…"` string body (opening quote at `peek(0)`), honouring
/// escapes, and returns the contents without the quotes.
fn lex_str_body(cur: &mut Cursor) -> String {
    cur.bump(); // opening `"`
    let mut text = String::new();
    while let Some(ch) = cur.peek(0) {
        if ch == '\\' {
            text.push(ch);
            cur.bump();
            if let Some(esc) = cur.peek(0) {
                text.push(esc);
                cur.bump();
            }
            continue;
        }
        cur.bump();
        if ch == '"' {
            break;
        }
        text.push(ch);
    }
    text
}

/// Consumes a `'…'` char body (opening quote at `peek(0)`) and returns the
/// contents without the quotes. The caller has already decided this is a
/// char literal, not a lifetime.
fn lex_char_body(cur: &mut Cursor) -> String {
    cur.bump(); // opening `'`
    let mut text = String::new();
    if cur.peek(0) == Some('\\') {
        text.push(cur.bump().unwrap_or('\\'));
        if let Some(esc) = cur.peek(0) {
            text.push(esc);
            cur.bump();
        }
        while let Some(ch) = cur.peek(0) {
            cur.bump();
            if ch == '\'' {
                break;
            }
            text.push(ch);
        }
    } else if let Some(ch) = cur.peek(0) {
        text.push(ch);
        cur.bump();
        if cur.peek(0) == Some('\'') {
            cur.bump();
        }
    }
    text
}

/// Scans `src` into tokens and comments.
pub fn scan(src: &str) -> Scan {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Scan::default();

    // Shebang line: `#!…` at the very start of the file, unless it is the
    // inner attribute `#![…]`. Without this it would lex as garbage
    // punctuation and stray identifiers.
    if cur.peek(0) == Some('#') && cur.peek(1) == Some('!') && cur.peek(2) != Some('[') {
        let mut text = String::new();
        while let Some(ch) = cur.peek(0) {
            if ch == '\n' {
                break;
            }
            text.push(ch);
            cur.bump();
        }
        out.comments.push(Comment {
            text,
            start_line: 1,
            end_line: 1,
            col: 1,
        });
    }

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // Line comment (also `///` and `//!` doc comments).
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(Comment {
                text,
                start_line: line,
                end_line: line,
                col,
            });
            continue;
        }

        // Block comment; Rust block comments nest.
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            loop {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        text.push_str("/*");
                        cur.bump_n(2);
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        text.push_str("*/");
                        cur.bump_n(2);
                        if depth == 0 {
                            break;
                        }
                    }
                    (Some(_), _) => {
                        text.push(cur.bump().unwrap());
                    }
                    (None, _) => break,
                }
            }
            out.comments.push(Comment {
                text,
                start_line: line,
                end_line: cur.line,
                col,
            });
            continue;
        }

        // Raw strings (`r"…"`, `r#"…"#`, `br##"…"##`) and raw idents (`r#x`).
        if c == 'r' || c == 'b' {
            let prefix = if c == 'b' && cur.peek(1) == Some('r') {
                2
            } else {
                1
            };
            if c == 'r' || prefix == 2 {
                let mut hashes = 0;
                while cur.peek(prefix + hashes) == Some('#') {
                    hashes += 1;
                }
                if cur.peek(prefix + hashes) == Some('"') {
                    cur.bump_n(prefix + hashes + 1);
                    let mut text = String::new();
                    while let Some(ch) = cur.peek(0) {
                        if ch == '"' && (0..hashes).all(|k| cur.peek(1 + k) == Some('#')) {
                            cur.bump_n(hashes + 1);
                            break;
                        }
                        text.push(ch);
                        cur.bump();
                    }
                    out.tokens.push(Tok {
                        text,
                        kind: Kind::Str,
                        line,
                        col,
                    });
                    continue;
                }
                if c == 'r' && hashes == 1 && cur.peek(2).is_some_and(is_ident_start) {
                    cur.bump_n(2); // `r#`
                    let mut text = String::new();
                    while let Some(ch) = cur.peek(0) {
                        if !is_ident_continue(ch) {
                            break;
                        }
                        text.push(ch);
                        cur.bump();
                    }
                    out.tokens.push(Tok {
                        text,
                        kind: Kind::Ident,
                        line,
                        col,
                    });
                    continue;
                }
            }
            // Byte string / byte char: lex in one pass, anchored at the `b`.
            // (These used to fall through to the plain-string branch after
            // bumping the `b`, which anchored the token at the quote — one
            // column off — and an unterminated check could re-enter here.)
            if c == 'b' && cur.peek(1) == Some('"') {
                cur.bump(); // the `b`
                let text = lex_str_body(&mut cur);
                out.tokens.push(Tok {
                    text,
                    kind: Kind::Str,
                    line,
                    col,
                });
                continue;
            }
            if c == 'b' && cur.peek(1) == Some('\'') {
                cur.bump(); // the `b`
                            // A byte literal is always a char literal, never a lifetime
                            // (`b'r'` must not lex as ident `br` + lifetime).
                let text = lex_char_body(&mut cur);
                out.tokens.push(Tok {
                    text,
                    kind: Kind::Char,
                    line,
                    col,
                });
                continue;
            }
        }

        // String literal with escapes.
        if c == '"' {
            let text = lex_str_body(&mut cur);
            out.tokens.push(Tok {
                text,
                kind: Kind::Str,
                line,
                col,
            });
            continue;
        }

        // Char literal vs. lifetime: `'a'` (or an escape `'\n'`) is a char,
        // `'a` with no closing quote is a lifetime or loop label.
        if c == '\'' {
            let is_char = cur.peek(1) == Some('\\')
                || (cur.peek(2) == Some('\'') && cur.peek(1) != Some('\''));
            if is_char {
                let text = lex_char_body(&mut cur);
                out.tokens.push(Tok {
                    text,
                    kind: Kind::Char,
                    line,
                    col,
                });
            } else {
                cur.bump(); // the `'`
                let mut text = String::new();
                while let Some(ch) = cur.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.tokens.push(Tok {
                    text,
                    kind: Kind::Lifetime,
                    line,
                    col,
                });
            }
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.tokens.push(Tok {
                text,
                kind: Kind::Ident,
                line,
                col,
            });
            continue;
        }

        // Numeric literal (loose: suffixes and hex digits ride along; a
        // single `.` joins only when followed by a digit, so `0..n` stays
        // a range).
        if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                text.push('.');
                cur.bump();
                while let Some(ch) = cur.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
            }
            out.tokens.push(Tok {
                text,
                kind: Kind::Num,
                line,
                col,
            });
            continue;
        }

        // Punctuation, joining multi-char operators.
        let take3: String = (0..3).filter_map(|k| cur.peek(k)).collect();
        let joined = JOINED3
            .iter()
            .find(|p| take3.starts_with(**p))
            .or_else(|| JOINED2.iter().find(|p| take3.starts_with(**p)));
        let text = match joined {
            Some(p) => {
                cur.bump_n(p.chars().count());
                (*p).to_string()
            }
            None => {
                cur.bump();
                c.to_string()
            }
        };
        out.tokens.push(Tok {
            text,
            kind: Kind::Punct,
            line,
            col,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts_join() {
        assert_eq!(
            texts("a::b -> c += 1..=2"),
            ["a", "::", "b", "->", "c", "+=", "1", "..=", "2"]
        );
    }

    #[test]
    fn comments_are_not_tokens() {
        let s = scan("x // HashMap\n/* Instant /* nested */ still comment */ y");
        assert_eq!(s.tokens.len(), 2);
        assert_eq!(s.tokens[1].text, "y");
        assert_eq!(s.comments.len(), 2);
        assert!(s.comments[1].text.contains("nested"));
    }

    #[test]
    fn strings_hide_their_contents_kind() {
        let s = scan(r#"let x = "HashMap \" quoted";"#);
        let strs: Vec<_> = s.tokens.iter().filter(|t| t.kind == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("HashMap"));
    }

    #[test]
    fn raw_strings_ignore_escapes_and_guards() {
        let s = scan(r###"let x = r#"a "quote" \ b"#; let y = 1;"###);
        let strs: Vec<_> = s.tokens.iter().filter(|t| t.kind == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, r#"a "quote" \ b"#);
        // Scanning continued correctly after the raw string.
        assert!(s.tokens.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let s = scan(r"let c: char = 'x'; fn f<'a>(s: &'a str) {} let nl = '\n';");
        let chars: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, ["x", "\\n"]);
        let lts: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lts, ["a", "a"]);
    }

    #[test]
    fn raw_ident_scans_as_ident() {
        let s = scan("let r#type = 1;");
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == Kind::Ident && t.text == "type"));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let s = scan("ab\n  cd");
        assert_eq!((s.tokens[0].line, s.tokens[0].col), (1, 1));
        assert_eq!((s.tokens[1].line, s.tokens[1].col), (2, 3));
    }

    #[test]
    fn numbers_lex_loosely_but_ranges_split() {
        assert_eq!(texts("0..n"), ["0", "..", "n"]);
        assert_eq!(texts("1.5e3 0xFF 1_000u64"), ["1.5e3", "0xFF", "1_000u64"]);
    }

    // --- byte strings / byte chars (regression: these used to be re-lexed
    // after dropping the `b`, anchoring the token one column late) ---

    #[test]
    fn byte_string_is_one_token_anchored_at_the_b() {
        let s = scan(r#"let x = b"HashMap";"#);
        let strs: Vec<_> = s.tokens.iter().filter(|t| t.kind == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "HashMap");
        // Column of the `b`, not of the quote.
        assert_eq!((strs[0].line, strs[0].col), (1, 9));
        // No stray `b` identifier token survives.
        assert!(!s
            .tokens
            .iter()
            .any(|t| t.kind == Kind::Ident && t.text == "b"));
    }

    #[test]
    fn byte_string_escapes_and_termination() {
        let s = scan(r#"b"a\"b" y"#);
        let strs: Vec<_> = s.tokens.iter().filter(|t| t.kind == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "a\\\"b");
        assert!(s.tokens.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn byte_char_is_a_char_literal_not_a_lifetime() {
        // `b'r'` is the worst case: without byte-char handling it lexes as
        // ident `b` + lifetime-ish `'r'`.
        let s = scan("let x = b'r'; let y = b'\\n';");
        let chars: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Char)
            .map(|t| (t.text.clone(), t.col))
            .collect();
        assert_eq!(chars, [("r".to_string(), 9), ("\\n".to_string(), 23)]);
        assert!(!s.tokens.iter().any(|t| t.kind == Kind::Lifetime));
    }

    #[test]
    fn raw_byte_string_anchored_at_the_b() {
        let s = scan(r##"let x = br#"Instant"#;"##);
        let strs: Vec<_> = s.tokens.iter().filter(|t| t.kind == Kind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "Instant");
        assert_eq!((strs[0].line, strs[0].col), (1, 9));
    }

    // --- shebang (regression: lexed as `#`, `!`, and path garbage) ---

    #[test]
    fn shebang_line_is_skipped() {
        let s = scan("#!/usr/bin/env run-cargo-script\nfn main() {}");
        assert_eq!(s.tokens[0].text, "fn");
        assert_eq!(s.tokens[0].line, 2);
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].text.starts_with("#!/usr"));
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let s = scan("#![allow(dead_code)]\nfn main() {}");
        assert_eq!(s.tokens[0].text, "#");
        assert_eq!(s.tokens[1].text, "!");
        assert_eq!(s.tokens[2].text, "[");
    }
}
