//! Minimal `Serialize`/`Deserialize` derive macros for the vendored
//! `serde` shim (see `shims/serde`). Implemented with `proc_macro` only —
//! no `syn`/`quote` — because this workspace builds fully offline.
//!
//! Supported input shapes (everything this workspace derives on):
//! * structs with named fields, honoring `#[serde(skip)]` (skipped on
//!   serialize, `Default::default()` on deserialize), `#[serde(rename =
//!   "key")]` and, on serialize only, `#[serde(flatten)]` (the field's
//!   map entries are spliced in place; a `None` adds no keys);
//! * enums with unit, tuple, and struct variants, externally tagged like
//!   upstream serde_json: `"Variant"`, `{"Variant": value}`,
//!   `{"Variant": [v0, v1]}`, `{"Variant": {..fields..}}`.
//!
//! Generics, any other `#[serde(..)]` attribute, and `flatten` on a
//! `Deserialize` are rejected with an error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Field {
    name: String,
    skip: bool,
    /// The JSON key as a Rust string literal, quotes included.
    key: String,
    flatten: bool,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Consumes leading `#[...]` attributes, returning the `#[serde(..)]`
/// settings they carry (`name` and `key` are left empty).
fn eat_attrs(tokens: &[TokenTree], mut i: usize) -> (usize, Field) {
    let mut attrs = Field::default();
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let [TokenTree::Ident(id), TokenTree::Group(args)] = &inner[..] {
                    if id.to_string() == "serde" {
                        let txt = args.stream().to_string();
                        for arg in txt.split(',').map(str::trim).filter(|a| !a.is_empty()) {
                            match arg.split_once('=').map(|(k, v)| (k.trim(), v.trim())) {
                                None if arg == "skip" => attrs.skip = true,
                                None if arg == "flatten" => attrs.flatten = true,
                                Some(("rename", lit))
                                    if lit.len() > 1
                                        && lit.starts_with('"')
                                        && lit.ends_with('"') =>
                                {
                                    attrs.key = lit.to_string()
                                }
                                _ => panic!("serde shim: unsupported serde attribute `{arg}`"),
                            }
                        }
                    }
                }
                i += 2;
            }
            _ => break,
        }
    }
    (i, attrs)
}

/// [`eat_attrs`] for types and variants, which take no serde attributes.
fn eat_plain_attrs(tokens: &[TokenTree], i: usize) -> usize {
    let (i, attrs) = eat_attrs(tokens, i);
    if attrs.skip || attrs.flatten || !attrs.key.is_empty() {
        panic!("serde shim: serde attributes are only supported on fields");
    }
    i
}

/// Parses the named fields inside a brace group (struct body or struct
/// variant body).
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (j, attrs) = eat_attrs(&tokens, i);
        i = j;
        if i >= tokens.len() {
            break;
        }
        // Optional visibility: `pub` or `pub(...)`.
        if let TokenTree::Ident(id) = &tokens[i] {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim: expected field name, found `{other}`"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim: expected `:` after field `{name}`, found `{other}`"),
        }
        // Skip the type: everything up to a comma at angle-bracket depth 0.
        let mut angle = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let key = if attrs.key.is_empty() {
            format!("\"{name}\"")
        } else {
            attrs.key.clone()
        };
        fields.push(Field { name, key, ..attrs });
    }
    fields
}

/// Counts the fields of a tuple variant: top-level commas at angle depth 0.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut angle = 0i32;
    let mut commas = 0usize;
    let mut trailing_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                commas += 1;
                trailing_comma = true;
            }
            _ => trailing_comma = false,
        }
    }
    commas + usize::from(!trailing_comma)
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = eat_plain_attrs(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim: expected variant name, found `{other}`"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_named_fields(g))
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the trailing comma.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    loop {
        i = eat_plain_attrs(&tokens, i);
        match &tokens[i] {
            TokenTree::Ident(id) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" {
                    break;
                }
                // Visibility / `unsafe` / etc. — skip one token.
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate)
                    }
                }
            }
            _ => i += 1,
        }
    }
    let is_enum = matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "enum");
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim: expected type name, found `{other}`"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim: generic types are not supported by the vendored derive");
        }
    }
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(_) => i += 1,
            None => panic!("serde shim: missing body for `{name}`"),
        }
    };
    if is_enum {
        Item::Enum {
            name,
            variants: parse_variants(body),
        }
    } else {
        Item::Struct {
            name,
            fields: parse_named_fields(body),
        }
    }
}

/// A block evaluating to the `Value::Map` of `fields`; `get` renders the
/// expression reaching a field (`&self.x`, or a bound `x`).
fn map_expr(fields: &[Field], get: impl Fn(&str) -> String) -> String {
    let mut block = String::from(
        "{ let mut m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
    );
    for f in fields.iter().filter(|f| !f.skip) {
        let (v, key) = (get(&f.name), &f.key);
        block.push_str(&if f.flatten {
            format!(
                "match ::serde::Serialize::serialize({v}) {{\n\
                 ::serde::Value::Map(inner) => m.extend(inner),\n\
                 ::serde::Value::Null => {{}}\n\
                 other => m.push(({key}.to_string(), other)),\n}}\n"
            )
        } else {
            format!("m.push(({key}.to_string(), ::serde::Serialize::serialize({v})));\n")
        });
    }
    block + "::serde::Value::Map(m) }"
}

/// `field: value,` initializers reading `fields` of type `ty` out of the
/// map `m`.
fn field_inits(fields: &[Field], ty: &str) -> String {
    let init = |f: &Field| {
        let n = &f.name;
        if f.flatten {
            panic!("serde shim: `flatten` is serialize-only; `{ty}.{n}` cannot be deserialized");
        } else if f.skip {
            format!("{n}: ::std::default::Default::default(),\n")
        } else {
            format!("{n}: ::serde::get_field(m, {}, \"{ty}\")?,\n", f.key)
        }
    };
    fields.iter().map(init).collect()
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let map = map_expr(fields, |n| format!("&self.{n}"));
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self) -> ::serde::Value {{\n{map}\n}}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),\n"
                    )),
                    VariantShape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(f0) => ::serde::Value::Map(vec![(\"{vn}\".to_string(), ::serde::Serialize::serialize(f0))]),\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        let sers: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::serialize({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Map(vec![(\"{vn}\".to_string(), ::serde::Value::Seq(vec![{}]))]),\n",
                            binds.join(", "),
                            sers.join(", ")
                        ));
                    }
                    VariantShape::Struct(fields) => {
                        let binds: String = fields
                            .iter()
                            .filter(|f| !f.skip)
                            .map(|f| format!("{}, ", f.name))
                            .collect();
                        let map = map_expr(fields, str::to_string);
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds}.. }} => ::serde::Value::Map(vec![(\"{vn}\".to_string(), {map})]),\n"
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self) -> ::serde::Value {{\n\
                 match self {{\n{arms}}}\n}}\n}}\n"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let inits = field_inits(fields, name);
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 let m = v.expect_map(\"{name}\")?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})\n}}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n",
                        vn = v.name
                    )
                })
                .collect();
            let mut keyed_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {}
                    VariantShape::Tuple(1) => keyed_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::deserialize(inner)?)),\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let gets: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::deserialize(&seq[{k}])?"))
                            .collect();
                        keyed_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let seq = inner.expect_seq(\"{name}::{vn}\")?;\n\
                             if seq.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::msg(\"wrong arity for {name}::{vn}\")); }}\n\
                             ::std::result::Result::Ok({name}::{vn}({}))\n}}\n",
                            gets.join(", ")
                        ));
                    }
                    VariantShape::Struct(fields) => {
                        let inits = field_inits(fields, &format!("{name}::{vn}"));
                        keyed_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let m = inner.expect_map(\"{name}::{vn}\")?;\n\
                             ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\n}}\n"
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 if let ::serde::Value::Str(s) = v {{\n\
                 return match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::std::result::Result::Err(::serde::Error::msg(format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                 }};\n}}\n\
                 let m = v.expect_map(\"{name}\")?;\n\
                 if m.len() != 1 {{ return ::std::result::Result::Err(::serde::Error::msg(\"expected single-key map for enum {name}\")); }}\n\
                 let (k, inner) = &m[0];\n\
                 let _ = inner;\n\
                 match k.as_str() {{\n\
                 {keyed_arms}\
                 other => ::std::result::Result::Err(::serde::Error::msg(format!(\"unknown variant `{{other}}` for {name}\"))),\n\
                 }}\n}}\n}}\n"
            )
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim: generated Deserialize impl must parse")
}
