//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! offline `serde` shim. `syn`/`quote` are not available in this environment,
//! so the item is parsed directly from the [`proc_macro::TokenStream`] and the
//! impls are emitted as source text.
//!
//! Supported shapes (everything this workspace derives):
//! - structs with named fields (including empty `{}` and unit structs);
//! - enums whose variants are unit or struct-like.
//!
//! Unsupported shapes (tuple structs, tuple enum variants, generics) fail the
//! build with an explicit message rather than silently mis-serializing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (shim): one `serde::Serializer` call per
/// field key and value, inside the item's map.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => write_fields(fields, "&self."),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| match &v.fields {
                    None => format!(
                        "{name}::{v} => ::serde::Serializer::str(__s, {v:?}),",
                        v = v.name
                    ),
                    Some(fields) => format!(
                        "{name}::{v} {{ {binds} }} => {{ \
                         ::serde::Serializer::map(__s, 1); \
                         ::serde::Serializer::key(__s, {v:?}); \
                         {body} ::serde::Serializer::end(__s); }}",
                        v = v.name,
                        binds = fields.join(", "),
                        body = write_fields(fields, ""),
                    ),
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) {{ {body} }} }}"
    )
    .parse()
    .expect("serde_derive: generated Serialize impl must parse")
}

/// Writes `fields` as a map: each key, then the value at `{path}{field}`
/// (`&self.` for a struct, nothing for a variant's bound fields).
fn write_fields(fields: &[String], path: &str) -> String {
    let entries: String = fields
        .iter()
        .map(|f| {
            format!(
                "::serde::Serializer::key(__s, {f:?}); \
                 ::serde::Serialize::serialize({path}{f}, __s);"
            )
        })
        .collect();
    format!(
        "::serde::Serializer::map(__s, {}); {entries} ::serde::Serializer::end(__s);",
        fields.len()
    )
}

/// Derives `serde::Deserialize` (shim): pulls the item from a
/// `serde::Deserializer`. A struct is a key-matching loop — unknown keys are
/// skipped, the first of duplicate keys is kept — and an enum a tag match.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => read_fields(name, fields, None),
        Shape::Enum(variants) => {
            let expected = format!("enum {name}");
            let names = |unit: bool| -> String {
                variants
                    .iter()
                    .filter(|v| v.fields.is_none() == unit)
                    .map(|v| format!("{:?},", v.name))
                    .collect()
            };
            let unit_arms: String = variants
                .iter()
                .filter(|v| v.fields.is_none())
                .enumerate()
                .map(|(i, v)| {
                    format!(
                        "::serde::__private::Tagged::Unit({i}) => \
                         ::std::result::Result::Ok({name}::{v}),",
                        v = v.name
                    )
                })
                .collect();
            let struct_arms: String = variants
                .iter()
                .filter_map(|v| v.fields.as_ref().map(|fields| (v, fields)))
                .enumerate()
                .map(|(i, (v, fields))| {
                    format!(
                        "::serde::__private::Tagged::Struct({i}) => {{ {} }}",
                        read_fields(&format!("{name}::{}", v.name), fields, Some(&expected))
                    )
                })
                .collect();
            format!(
                "match ::serde::__private::variant(__d, {expected:?}, &[{units}], &[{structs}])? {{ \
                     {unit_arms} {struct_arms} \
                     _ => ::std::unreachable!(), \
                 }}",
                units = names(true),
                structs = names(false),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
         fn deserialize<'de, __D: ::serde::Deserializer<'de>>(__d: &mut __D) \
         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
    .parse()
    .expect("serde_derive: generated Deserialize impl must parse")
}

/// The key-matching loop that reads `fields` into `path { .. }`: a struct's
/// object, or — when `variant` names the enum — a struct variant's body,
/// after which the `{"Tag": body}` object is closed.
fn read_fields(path: &str, fields: &[String], variant: Option<&str>) -> String {
    let slots: String = (0..fields.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;"))
        .collect();
    let names: String = fields.iter().map(|f| format!("{f:?},")).collect();
    let arms: String = (0..fields.len())
        .map(|i| {
            format!(
                "{i} if __f{i}.is_none() => __f{i} = ::std::option::Option::Some(\
                 ::serde::Deserialize::deserialize(__d)?),"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{f}: ::serde::__private::field(__f{i}, {f:?})?,"))
        .collect();
    let read = format!(
        "while let ::std::option::Option::Some(__field) = \
             ::serde::__private::next_field(__d, &[{names}])? {{ \
             match __field {{ {arms} _ => ::serde::Deserializer::skip(__d)?, }} \
         }}"
    );
    let read = match variant {
        None => format!("::serde::Deserializer::map(__d, \"object\")?; {read}"),
        Some(variant) => format!(
            "if ::serde::__private::variant_body(__d)? {{ {read} }} \
             ::serde::__private::end_variant(__d, {variant:?})?;"
        ),
    };
    format!("{slots} {read} ::std::result::Result::Ok({path} {{ {inits} }})")
}

// ---- item parsing ----------------------------------------------------------

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    /// `struct Name { a: T, b: U }` — field names in declaration order (none
    /// for `struct Name;`).
    NamedStruct(Vec<String>),
    /// `enum Name { ... }`
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    /// `None` for unit variants, field names for struct-like variants.
    fields: Option<Vec<String>>,
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::NamedStruct(Vec::new()),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive shim: tuple struct `{name}` is not supported")
            }
            other => panic!("serde_derive shim: unexpected struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream(), &name))
            }
            other => panic!("serde_derive shim: unexpected enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde_derive shim: `{other} {name}` is not supported"),
    };
    Item { name, shape }
}

/// Advances past any `#[...]` (incl. doc comments, which arrive as `#[doc]`).
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1; // '#'
        if matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
            *i += 1; // inner attribute '!'
        }
        *i += 1; // the [...] group
    }
}

/// Advances past `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(
            tokens.get(*i),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            *i += 1;
        }
    }
}

/// Parses `a: T, b: U, ...` field names, skipping types (angle-bracket aware:
/// commas inside `<...>` do not terminate a field; parenthesised/bracketed
/// types arrive as atomic groups).
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive shim: expected field name, found {other}"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` after `{name}`, found {other}"),
        }
        let mut angle_depth = 0usize;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1)
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    fields
}

/// Parses enum variants: `Unit, StructLike { a: T }, ...`.
fn parse_variants(stream: TokenStream, enum_name: &str) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => {
                panic!("serde_derive shim: expected variant name in `{enum_name}`, found {other}")
            }
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive shim: tuple variant `{enum_name}::{name}` is not supported")
            }
            _ => None,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}
