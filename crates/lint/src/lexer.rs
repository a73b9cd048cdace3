//! A small hand-rolled Rust lexer.
//!
//! `cardest-lint` must build with nothing but `std` (the workspace is
//! offline, so `syn` is unavailable), and its rules are lexical: they need
//! to see identifiers, punctuation, and literals *with comments and string
//! contents reliably separated out*, so that a banned name inside a string
//! literal or a doc-comment code block never fires a rule, while pragma
//! comments remain inspectable.
//!
//! The lexer therefore handles the full set of Rust constructs that can
//! hide `//`-lookalike text: ordinary strings with escapes, raw strings
//! with arbitrary `#` fences, byte strings, char literals (disambiguated
//! from lifetimes), and nested block comments. Everything else is reduced
//! to identifier / number / punctuation tokens tagged with 1-based line
//! numbers.

/// Lexical class of a [`Tok`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `unsafe`, `as`, ...).
    Ident,
    /// Punctuation. Multi-char operators the rules care about (`==`, `!=`,
    /// `::`, `..`) are fused into a single token; everything else is one
    /// character per token.
    Punct,
    /// String literal of any flavor (`"..."`, `r#"..."#`, `b"..."`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Numeric literal with its suffix (`0x1f`, `1_000`, `1.5e-3`, `2f32`).
    Number,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
}

/// One code token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block, doc or plain), with its span and whether it
/// starts on a line of its own (no code token precedes it on that line).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    pub end_line: u32,
    pub own_line: bool,
}

/// The output of [`lex`]: code tokens and comments, in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Line number of the most recent code token, used to decide whether a
    /// comment shares its starting line with code.
    last_code_line: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(ch) = c {
            self.pos += 1;
            if ch == '\n' {
                self.line += 1;
            }
        }
        c
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Never fails: unrecognized bytes
/// become single-character punctuation tokens, and unterminated literals
/// or comments simply run to end-of-file.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        last_code_line: 0,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => lex_line_comment(&mut cur, &mut out),
            '/' if cur.peek(1) == Some('*') => lex_block_comment(&mut cur, &mut out),
            '"' => {
                let text = lex_string(&mut cur);
                push_tok(&mut cur, &mut out, TokKind::Str, text, line);
            }
            '\'' => lex_char_or_lifetime(&mut cur, &mut out),
            c if c.is_ascii_digit() => {
                let text = lex_number(&mut cur);
                push_tok(&mut cur, &mut out, TokKind::Number, text, line);
            }
            c if is_ident_start(c) => {
                let ident = lex_ident(&mut cur);
                // `r"..."` / `r#"..."#` / `b"..."` / `br#"..."#` / `b'x'` /
                // `c"..."` / `cr#"..."#` are string-ish literals whose
                // prefix lexes as an ident.
                let next = cur.peek(0);
                if (ident == "r" || ident == "br" || ident == "cr")
                    && next == Some('#')
                    && cur.peek(1).is_some_and(is_ident_start)
                {
                    // Raw identifier (`r#type`), not a raw string: the
                    // token is the identifier itself, keyword-ness erased.
                    cur.bump();
                    let name = lex_ident(&mut cur);
                    push_tok(&mut cur, &mut out, TokKind::Ident, name, line);
                } else if (ident == "r"
                    || ident == "b"
                    || ident == "br"
                    || ident == "c"
                    || ident == "cr")
                    && (next == Some('"') || next == Some('#'))
                {
                    let text = lex_raw_or_byte_string(&mut cur, &ident);
                    push_tok(
                        &mut cur,
                        &mut out,
                        TokKind::Str,
                        format!("{ident}{text}"),
                        line,
                    );
                } else if ident == "b" && next == Some('\'') {
                    cur.bump();
                    let body = lex_char_body(&mut cur);
                    push_tok(
                        &mut cur,
                        &mut out,
                        TokKind::Char,
                        format!("b'{body}'"),
                        line,
                    );
                } else {
                    push_tok(&mut cur, &mut out, TokKind::Ident, ident, line);
                }
            }
            _ => {
                cur.bump();
                let mut text = String::new();
                text.push(c);
                // Fuse the two-character operators the rules match on.
                if let Some(n) = cur.peek(0) {
                    let fused = matches!(
                        (c, n),
                        ('=', '=') | ('!', '=') | (':', ':') | ('.', '.') | ('-', '>') | ('=', '>')
                    );
                    if fused {
                        cur.bump();
                        text.push(n);
                    }
                }
                push_tok(&mut cur, &mut out, TokKind::Punct, text, line);
            }
        }
    }
    out
}

fn push_tok(cur: &mut Cursor, out: &mut Lexed, kind: TokKind, text: String, line: u32) {
    cur.last_code_line = cur.line;
    out.toks.push(Tok { kind, text, line });
}

fn lex_ident(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            s.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    s
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let own_line = cur.last_code_line != line;
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.comments.push(Comment {
        text,
        line,
        end_line: line,
        own_line,
    });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let own_line = cur.last_code_line != line;
    let mut text = String::new();
    let mut depth = 0usize;
    while let Some(c) = cur.peek(0) {
        if c == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek(1) == Some('/') {
            depth = depth.saturating_sub(1);
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment {
        text,
        line,
        end_line: cur.line,
        own_line,
    });
}

fn lex_string(cur: &mut Cursor) -> String {
    let mut s = String::new();
    s.push('"');
    cur.bump();
    while let Some(c) = cur.bump() {
        s.push(c);
        if c == '\\' {
            if let Some(e) = cur.bump() {
                s.push(e);
            }
        } else if c == '"' {
            break;
        }
    }
    s
}

/// Lexes the remainder of a raw / byte / C string after its `r` / `b` /
/// `br` / `c` / `cr` prefix ident has been consumed. `b"..."` and
/// `c"..."` behave like ordinary strings (escapes active); the raw forms
/// end only at a quote followed by the right number of `#` fences.
fn lex_raw_or_byte_string(cur: &mut Cursor, prefix: &str) -> String {
    if prefix == "b" || prefix == "c" {
        return lex_string(cur);
    }
    let mut s = String::new();
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        s.push('#');
        cur.bump();
    }
    if cur.peek(0) != Some('"') {
        // `r#foo` raw identifier, not a string: hand the `#`s back as text.
        return s;
    }
    s.push('"');
    cur.bump();
    while let Some(c) = cur.bump() {
        s.push(c);
        if c == '"' {
            let mut matched = 0usize;
            while matched < hashes && cur.peek(0) == Some('#') {
                matched += 1;
                s.push('#');
                cur.bump();
            }
            if matched == hashes {
                break;
            }
        }
    }
    s
}

/// Consumes the body of a char literal up to and including the closing
/// quote, returning the body text (quote excluded).
fn lex_char_body(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.bump() {
        if c == '\\' {
            s.push(c);
            if let Some(e) = cur.bump() {
                s.push(e);
            }
        } else if c == '\'' {
            break;
        } else {
            s.push(c);
        }
    }
    s
}

fn lex_char_or_lifetime(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    cur.bump(); // the opening quote
    let first = cur.peek(0);
    let second = cur.peek(1);
    let is_lifetime = match (first, second) {
        (Some('\\'), _) => false,
        (Some(c), Some('\'')) if c != '\'' => false, // 'a'
        (Some(c), _) if is_ident_start(c) => true,   // 'a, 'static
        _ => false,
    };
    if is_lifetime {
        let name = lex_ident(cur);
        push_tok(cur, out, TokKind::Lifetime, format!("'{name}"), line);
    } else {
        let body = lex_char_body(cur);
        push_tok(cur, out, TokKind::Char, format!("'{body}'"), line);
    }
}

fn lex_number(cur: &mut Cursor) -> String {
    fn take_while(cur: &mut Cursor, s: &mut String, ok: impl Fn(char) -> bool) {
        while let Some(c) = cur.peek(0).filter(|&c| ok(c)) {
            s.push(c);
            cur.bump();
        }
    }
    let mut s = String::new();
    take_while(cur, &mut s, |c| c.is_ascii_digit() || c == '_');
    // A decimal point only belongs to the number when a digit follows
    // (`1.5`), so ranges (`0..n`) and method calls (`1.max(2)`) stay
    // separate tokens.
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        s.push('.');
        cur.bump();
        take_while(cur, &mut s, |c| c.is_ascii_digit() || c == '_');
    }
    // Signed exponent: 1e-3, 1.5E+9 (unsigned ones fall to the suffix).
    if matches!(cur.peek(0), Some('e') | Some('E'))
        && matches!(cur.peek(1), Some('+') | Some('-'))
        && cur.peek(2).is_some_and(|c| c.is_ascii_digit())
    {
        for _ in 0..2 {
            if let Some(c) = cur.bump() {
                s.push(c);
            }
        }
    }
    // Hex/octal/binary digits, exponent digits and type suffixes (`0x1f`,
    // `1e9`, `2f32`, `3usize`): in valid Rust, identifier characters
    // directly after a number always belong to it.
    take_while(cur, &mut s, is_ident_continue);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_code_tokens() {
        let src = r##"let x = "unsafe // not a comment"; let y = r#"panic!("x")"#;"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
        let l = lex(src);
        assert!(l.comments.is_empty());
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "a /* outer /* inner */ still outer */ b";
        let ids = idents(src);
        assert_eq!(ids, vec!["a", "b"]);
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("inner"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; let n = '\\n'; }";
        let l = lex(src);
        let lifetimes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 3);
    }

    #[test]
    fn raw_strings_with_fences_and_byte_strings() {
        let src = r###"let a = r#"quote " inside"#; let b = b"bytes"; let c = br#"x"#;"###;
        let l = lex(src);
        let strs: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 3);
        assert!(strs[0].text.contains("quote"));
    }

    #[test]
    fn numbers_keep_suffixes_and_exponents_but_not_ranges() {
        let src =
            "let a = 1; let b = 1.5; let c = 1e-3; let d = 2f32; let e = 0x1f; let r = 0..n; \
                   let u = 3usize; let m = 1.max(2); let g = 1e9;";
        let numbers: Vec<_> = lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text)
            .collect();
        let want = [
            "1", "1.5", "1e-3", "2f32", "0x1f", "0", "3usize", "1", "2", "1e9",
        ];
        assert_eq!(numbers, want);
    }

    #[test]
    fn line_numbers_and_own_line_comments() {
        let src = "let a = 1;\n// own line\nlet b = 2; // trailing\n";
        let l = lex(src);
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].own_line);
        assert_eq!(l.comments[0].line, 2);
        assert!(!l.comments[1].own_line);
        assert_eq!(l.comments[1].line, 3);
        let b = l.toks.iter().find(|t| t.text == "b");
        assert_eq!(b.map(|t| t.line), Some(3));
    }

    #[test]
    fn fused_operators() {
        let src = "a == b; c != d; e::f; 0..9; fn g() -> u8 { match x { _ => 0 } }";
        let l = lex(src);
        let puncts: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text.len() == 2)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::", "..", "->", "=>"]);
    }

    #[test]
    fn raw_identifiers_lex_as_idents_not_strings() {
        let src = "let r#type = r#fn; struct r#struct;";
        let l = lex(src);
        assert!(l.toks.iter().all(|t| t.kind != TokKind::Str));
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "type", "fn", "struct", "struct"]);
    }

    #[test]
    fn c_string_literals() {
        let src = r##"let a = c"hello"; let b = cr#"raw " c"#;"##;
        let l = lex(src);
        let strs: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[1].text.contains("raw"));
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn deeply_nested_block_comments() {
        let src = "x /* a /* b /* c */ b */ a */ y /* tail";
        let ids = idents(src);
        assert_eq!(ids, vec!["x", "y"]);
        let l = lex(src);
        assert_eq!(l.comments.len(), 2);
    }
}
