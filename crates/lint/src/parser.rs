//! Item-level parser over the lexer's token stream.
//!
//! The semantic rules need to know *which function* a token belongs to,
//! what each function's receiver type and return type are, and how names
//! are imported — not full expression trees. This parser therefore
//! recovers exactly the item skeleton: modules, `impl`/`trait` blocks,
//! function signatures with body spans, and `use` trees (including `as`
//! renames and `{...}` groups). Everything else (struct bodies, consts,
//! macro definitions) is skipped by delimiter matching.
//!
//! Like the lexer it never fails: malformed input degrades to fewer
//! recognized items, never to a panic or an error.

use crate::lexer::{Tok, TokKind};

/// One `fn` item: free function, inherent/trait-impl method, or trait
/// method declaration.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Display-qualified name (`mod::SelfTy::name`) for diagnostics.
    pub qual: String,
    /// Surrounding `impl`/`trait` type, when any.
    pub self_ty: Option<String>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Token texts of the declared return type (empty means `()`).
    pub ret: Vec<String>,
    /// Token index of the function's name.
    pub name_tok: usize,
    /// `(open, close)` brace token indices of the body; `None` for trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` / `#[test]` item.
    pub is_test: bool,
}

/// One name introduced by a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    /// The name visible in this file (the `as` rename or last segment).
    pub alias: String,
    /// The `::`-joined imported path.
    pub path: String,
}

/// The item skeleton of one file.
#[derive(Debug, Default)]
pub struct Items {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseAlias>,
}

/// Parses the item skeleton out of a lexed token stream. `in_test` is the
/// parallel flag vector from [`crate::engine::test_flags`].
pub fn parse_items(toks: &[Tok], in_test: &[bool]) -> Items {
    let mut out = Items::default();
    let mut mod_path: Vec<String> = Vec::new();
    scan(toks, in_test, 0, toks.len(), &mut mod_path, None, &mut out);
    out
}

fn scan(
    toks: &[Tok],
    in_test: &[bool],
    start: usize,
    end: usize,
    mod_path: &mut Vec<String>,
    self_ty: Option<&str>,
    out: &mut Items,
) {
    let mut i = start;
    while i < end {
        if is_punct(toks, i, "#") {
            // Attributes (inner or outer): skip without interpreting.
            if is_punct(toks, i + 1, "!") && is_punct(toks, i + 2, "[") {
                i = attr_end(toks, i + 3) + 1;
            } else if is_punct(toks, i + 1, "[") {
                i = attr_end(toks, i + 2) + 1;
            } else {
                i += 1;
            }
            continue;
        }
        let Some(t) = toks.get(i) else { break };
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                i += 1;
                if is_punct(toks, i, "(") {
                    i = paren_match(toks, i) + 1; // pub(crate) / pub(in ...)
                }
            }
            "unsafe" | "async" | "default" => i += 1,
            "extern" => {
                i += 1;
                if toks.get(i).is_some_and(|t| t.kind == TokKind::Str) {
                    i += 1; // `extern "C"` modifier / foreign block header
                } else if ident_at(toks, i, "crate") {
                    i = skip_to_semi(toks, i, end); // `extern crate x;`
                }
            }
            "mod" => {
                let name = ident_text(toks, i + 1).unwrap_or_default();
                let mut j = i + 2;
                while j < end && !is_punct(toks, j, "{") && !is_punct(toks, j, ";") {
                    j += 1;
                }
                if is_punct(toks, j, "{") {
                    let close = brace_match(toks, j);
                    mod_path.push(name);
                    scan(toks, in_test, j + 1, close, mod_path, None, out);
                    mod_path.pop();
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "impl" => {
                let (sty, body_open) = impl_header(toks, i, end);
                match body_open {
                    Some(open) => {
                        let close = brace_match(toks, open);
                        scan(
                            toks,
                            in_test,
                            open + 1,
                            close,
                            mod_path,
                            sty.as_deref(),
                            out,
                        );
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            "trait" => {
                let name = ident_text(toks, i + 1).unwrap_or_default();
                let mut j = i + 2;
                while j < end && !is_punct(toks, j, "{") && !is_punct(toks, j, ";") {
                    j += 1;
                }
                if is_punct(toks, j, "{") {
                    let close = brace_match(toks, j);
                    scan(toks, in_test, j + 1, close, mod_path, Some(&name), out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => i = parse_fn(toks, in_test, i, end, mod_path, self_ty, out),
            "use" => {
                let semi = skip_to_semi(toks, i + 1, end);
                let mut prefix: Vec<String> = Vec::new();
                collect_use(
                    toks,
                    i + 1,
                    semi.saturating_sub(1),
                    &mut prefix,
                    &mut out.uses,
                );
                i = semi;
            }
            "struct" | "enum" | "union" => {
                let mut j = i + 1;
                while j < end {
                    if is_punct(toks, j, "{") {
                        j = brace_match(toks, j) + 1;
                        break;
                    }
                    if is_punct(toks, j, "(") {
                        j = paren_match(toks, j) + 1; // tuple struct, `;` follows
                        continue;
                    }
                    if is_punct(toks, j, ";") {
                        j += 1;
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
            "const" if ident_at(toks, i + 1, "fn") => i += 1, // `const fn`
            "const" | "static" | "type" => i = skip_to_semi(toks, i + 1, end),
            "macro_rules" => {
                // `macro_rules! name { ... }`
                let mut j = i + 1;
                while j < end && !is_punct(toks, j, "{") && !is_punct(toks, j, ";") {
                    j += 1;
                }
                i = if is_punct(toks, j, "{") {
                    brace_match(toks, j) + 1
                } else {
                    j + 1
                };
            }
            _ if is_punct(toks, i + 1, "!") => {
                // Item-level macro invocation (`thread_local! { ... }`).
                let mut j = i + 2;
                i = if is_punct(toks, j, "{") {
                    brace_match(toks, j) + 1
                } else {
                    while j < end
                        && !is_punct(toks, j, ";")
                        && !is_punct(toks, j, "(")
                        && !is_punct(toks, j, "[")
                    {
                        j += 1;
                    }
                    if is_punct(toks, j, "(") || is_punct(toks, j, "[") {
                        delim_match(toks, j) + 1
                    } else {
                        j + 1
                    }
                };
            }
            _ => i += 1,
        }
    }
}

/// Parses `impl ... {`, returning the implemented-on type (the last
/// top-level type name before the brace, after `for` when present) and the
/// body's opening-brace index.
fn impl_header(toks: &[Tok], at: usize, end: usize) -> (Option<String>, Option<usize>) {
    let mut j = at + 1;
    if is_punct(toks, j, "<") {
        j = angle_match(toks, j) + 1;
    }
    let mut last: Option<String> = None;
    while j < end {
        let Some(t) = toks.get(j) else { break };
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => return (last, Some(j)),
                ";" => return (last, None), // `impl Foo for Bar;` (never valid, be safe)
                "<" => {
                    j = angle_match(toks, j) + 1;
                    continue;
                }
                "(" => {
                    j = paren_match(toks, j) + 1;
                    continue;
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "for" => last = None,
                "where" => {
                    // Type position is over; scan on for the brace.
                    while j < end && !is_punct(toks, j, "{") {
                        j += 1;
                    }
                    continue;
                }
                "dyn" | "mut" | "as" | "impl" => {}
                name => last = Some(name.to_string()),
            }
        }
        j += 1;
    }
    (last, None)
}

/// Parses one `fn` item starting at the `fn` keyword; returns the token
/// index to resume scanning from.
fn parse_fn(
    toks: &[Tok],
    in_test: &[bool],
    at: usize,
    end: usize,
    mod_path: &[String],
    self_ty: Option<&str>,
    out: &mut Items,
) -> usize {
    let name_tok = at + 1;
    let Some(name) = ident_text(toks, name_tok) else {
        return at + 1;
    };
    let mut j = name_tok + 1;
    if is_punct(toks, j, "<") {
        j = angle_match(toks, j) + 1;
    }
    if !is_punct(toks, j, "(") {
        return j;
    }
    let params_close = paren_match(toks, j);
    let has_self = {
        let mut k = j + 1;
        while k < params_close {
            match toks.get(k) {
                Some(t) if t.kind == TokKind::Punct && t.text == "&" => k += 1,
                Some(t) if t.kind == TokKind::Lifetime => k += 1,
                Some(t) if t.kind == TokKind::Ident && t.text == "mut" => k += 1,
                _ => break,
            }
        }
        ident_at(toks, k, "self")
    };
    let mut k = params_close + 1;
    let mut ret: Vec<String> = Vec::new();
    if is_punct(toks, k, "->") {
        k += 1;
        let mut depth = 0i32;
        while k < end {
            let Some(t) = toks.get(k) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "{" | ";" if depth <= 0 => break,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && t.text == "where" && depth <= 0 {
                break;
            }
            ret.push(t.text.clone());
            k += 1;
        }
    }
    while k < end && !is_punct(toks, k, "{") && !is_punct(toks, k, ";") {
        k += 1;
    }
    let (body, next) = if is_punct(toks, k, "{") {
        let close = brace_match(toks, k);
        (Some((k, close)), close + 1)
    } else {
        (None, k + 1)
    };
    let mut qual = String::new();
    for m in mod_path {
        qual.push_str(m);
        qual.push_str("::");
    }
    if let Some(sty) = self_ty {
        qual.push_str(sty);
        qual.push_str("::");
    }
    qual.push_str(&name);
    out.fns.push(FnItem {
        name,
        qual,
        self_ty: self_ty.map(str::to_string),
        has_self,
        ret,
        name_tok,
        body,
        line: toks[at].line,
        is_test: in_test.get(name_tok).copied().unwrap_or(false),
    });
    next
}

/// Flattens one `use` tree spanning `toks[i..=end]` (the tokens between
/// `use` and `;`) into aliases, recursing through `{...}` groups.
fn collect_use(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseAlias>,
) {
    let base = prefix.len();
    while i <= end {
        let Some(t) = toks.get(i) else { break };
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                if let Some(alias) = ident_text(toks, i + 1) {
                    out.push(UseAlias {
                        alias,
                        path: prefix.join("::"),
                    });
                }
                prefix.truncate(base);
                return;
            }
            TokKind::Ident if t.text == "self" => {} // `{self, ...}` keeps the prefix name
            TokKind::Ident => prefix.push(t.text.clone()),
            TokKind::Punct if t.text == "{" => {
                let close = brace_match(toks, i).min(end + 1);
                let mut seg = i + 1;
                let mut depth = 0usize;
                for k in i + 1..close {
                    if is_punct(toks, k, "{") {
                        depth += 1;
                    } else if is_punct(toks, k, "}") {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && is_punct(toks, k, ",") {
                        collect_use(toks, seg, k.saturating_sub(1), prefix, out);
                        seg = k + 1;
                    }
                }
                if seg < close {
                    collect_use(toks, seg, close.saturating_sub(1), prefix, out);
                }
                prefix.truncate(base);
                return;
            }
            TokKind::Punct if t.text == "*" => {
                prefix.truncate(base); // glob: introduces no single alias
                return;
            }
            _ => {}
        }
        i += 1;
    }
    if prefix.len() > base {
        if let Some(last) = prefix.last().cloned() {
            out.push(UseAlias {
                alias: last,
                path: prefix.join("::"),
            });
        }
    }
    prefix.truncate(base);
}

// --- token-walking helpers --------------------------------------------------

pub(crate) fn is_punct(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

pub(crate) fn ident_at(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

pub(crate) fn ident_text(toks: &[Tok], i: usize) -> Option<String> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

fn skip_to_semi(toks: &[Tok], mut i: usize, end: usize) -> usize {
    while i < end {
        if is_punct(toks, i, ";") {
            return i + 1;
        }
        // Delimited groups may contain `;` (array types, initializer
        // blocks); skip them whole.
        if is_punct(toks, i, "{") || is_punct(toks, i, "(") || is_punct(toks, i, "[") {
            i = delim_match(toks, i) + 1;
            continue;
        }
        i += 1;
    }
    end
}

/// Index of the `}` matching the `{` at `open` (last index if unbalanced).
pub(crate) fn brace_match(toks: &[Tok], open: usize) -> usize {
    delim_scan(toks, open, "{", "}")
}

/// Index of the `)` matching the `(` at `open`.
pub(crate) fn paren_match(toks: &[Tok], open: usize) -> usize {
    delim_scan(toks, open, "(", ")")
}

/// Matches whatever delimiter opens at `open` (`(`, `[`, or `{`).
fn delim_match(toks: &[Tok], open: usize) -> usize {
    match toks.get(open).map(|t| t.text.as_str()) {
        Some("(") => delim_scan(toks, open, "(", ")"),
        Some("[") => delim_scan(toks, open, "[", "]"),
        _ => delim_scan(toks, open, "{", "}"),
    }
}

/// Index of the `>` matching the `<` at `open`. `->`/`=>` are fused by the
/// lexer and `>>` lexes as two `>` tokens, so plain depth counting works
/// for the type positions this parser inspects.
pub(crate) fn angle_match(toks: &[Tok], open: usize) -> usize {
    delim_scan(toks, open, "<", ">")
}

fn delim_scan(toks: &[Tok], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks, i, op) {
            depth += 1;
        } else if is_punct(toks, i, cl) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the `]` closing an attribute whose contents start at `start`.
pub(crate) fn attr_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 1usize;
    let mut i = start;
    while i < toks.len() {
        if is_punct(toks, i, "[") {
            depth += 1;
        } else if is_punct(toks, i, "]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_flags;
    use crate::lexer::lex;

    fn parse(src: &str) -> Items {
        let lexed = lex(src);
        let flags = test_flags(&lexed.toks);
        parse_items(&lexed.toks, &flags)
    }

    #[test]
    fn free_fns_methods_and_trait_impls() {
        let src = "
            pub fn top(x: u32) -> Result<u32, String> { helper(x) }
            fn helper(x: u32) -> Result<u32, String> { Ok(x) }
            pub struct W { inner: u32 }
            impl W {
                pub fn get(&self) -> u32 { self.inner }
                pub fn make(v: u32) -> Self { W { inner: v } }
            }
            impl std::fmt::Display for W {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
            }
            trait Estimator {
                fn estimate(&self, q: &str) -> f64;
                fn name(&self) -> &str { \"anon\" }
            }
        ";
        let items = parse(src);
        let names: Vec<(&str, Option<&str>, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("top", None, false),
                ("helper", None, false),
                ("get", Some("W"), true),
                ("make", Some("W"), false),
                ("fmt", Some("W"), true),
                ("estimate", Some("Estimator"), true),
                ("name", Some("Estimator"), true),
            ]
        );
        let top = &items.fns[0];
        assert_eq!(top.ret.join(" "), "Result < u32 , String >");
        assert!(top.body.is_some());
        let est = &items.fns[5];
        assert!(est.body.is_none(), "trait decl has no body");
    }

    #[test]
    fn modules_nest_and_qualify_names() {
        let src = "
            mod outer {
                pub mod inner { pub fn deep() {} }
                pub fn mid() {}
            }
            fn shallow() {}
        ";
        let items = parse(src);
        let quals: Vec<&str> = items.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["outer::inner::deep", "outer::mid", "shallow"]);
    }

    #[test]
    fn use_trees_flatten_with_renames_and_groups() {
        let src = "
            use std::sync::{Mutex, atomic::{AtomicU64, Ordering}};
            use crate::wal::Wal as Journal;
            use std::io::Write;
            use std::collections::*;
        ";
        let items = parse(src);
        let pairs: Vec<(String, String)> = items
            .uses
            .iter()
            .map(|u| (u.alias.clone(), u.path.clone()))
            .collect();
        assert!(pairs.contains(&("Mutex".into(), "std::sync::Mutex".into())));
        assert!(pairs.contains(&("AtomicU64".into(), "std::sync::atomic::AtomicU64".into())));
        assert!(pairs.contains(&("Ordering".into(), "std::sync::atomic::Ordering".into())));
        assert!(pairs.contains(&("Journal".into(), "crate::wal::Wal".into())));
        assert!(pairs.contains(&("Write".into(), "std::io::Write".into())));
    }

    #[test]
    fn test_items_are_marked_and_generics_skipped() {
        let src = "
            pub fn generic<T: Clone, F: Fn(&T) -> T>(x: T, f: F) -> Vec<T> { vec![f(&x)] }
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() { assert!(true); }
            }
        ";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert!(!items.fns[0].is_test);
        assert_eq!(items.fns[0].name, "generic");
        assert!(items.fns[1].is_test);
        assert_eq!(items.fns[1].qual, "tests::check");
    }

    #[test]
    fn impl_header_variants_resolve_self_ty() {
        let src = "
            struct A; struct B;
            impl<T> Wrapper<T> { fn w(&self) {} }
            impl Iterator for B { fn next(&mut self) -> Option<u8> { None } }
            impl<'a> From<&'a A> for B { fn from(_: &'a A) -> B { B } }
        ";
        let items = parse(src);
        let tys: Vec<Option<&str>> = items.fns.iter().map(|f| f.self_ty.as_deref()).collect();
        assert_eq!(tys, vec![Some("Wrapper"), Some("B"), Some("B")]);
    }

    #[test]
    fn items_after_skipped_constructs_are_still_found() {
        let src = "
            const LIMIT: usize = 1 << 8;
            static TABLE: [u8; 4] = [0; 4];
            type Pair = (u32, u32);
            macro_rules! noisy { ($x:expr) => { $x }; }
            enum E { A(u32), B { v: u32 } }
            pub fn survivor() -> bool { true }
        ";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "survivor");
        assert_eq!(items.fns[0].ret, vec!["bool"]);
    }
}
