//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! The generated impls stream: `Serialize` calls the shim's `Writer` field
//! by field, with every field name and unit-variant name baked in as a
//! pre-quoted string literal, and `Deserialize` calls its `Reader` without
//! building any intermediate value tree. A derived struct reads its object
//! into one `Option` local per field:
//!
//! * it first tries its fields in declaration order, the order they are
//!   written in, matching each key as a literal;
//! * any other key is matched as a borrowed `&str`, and unknown keys are
//!   skipped (their syntax still checked);
//! * a field given twice is an error, and so is a missing one.
//!
//! Nesting is bounded by the reader's depth limit, so a recursive derived
//! type cannot be driven off the end of the stack.
//!
//! Implemented directly on `proc_macro::TokenStream` (the build environment
//! has no `syn`/`quote`). The parser handles exactly the shapes this
//! workspace derives on: plain structs (named, tuple, unit) and enums whose
//! variants are unit, tuple, or struct-like, with optional simple type
//! parameters (`struct Graph<N, E> { ... }`). Bounds, lifetimes, and
//! where-clauses are out of scope and will fail loudly rather than silently
//! misbehave.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed field: named (`Some(name)`) or positional (`None`).
struct Field {
    name: Option<String>,
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        generics: Vec<String>,
        shape: Shape,
    },
    Enum {
        name: String,
        generics: Vec<String>,
        variants: Vec<Variant>,
    },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item {
        Item::Struct { shape, .. } => serialize_shape(shape, &struct_accessors(shape)),
        Item::Enum { name, variants, .. } => {
            let arms: String = variants
                .iter()
                .map(|v| serialize_variant_arm(name, v))
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    let (name, generics) = (item_name(&item), item_generics(&item));
    let (impl_generics, ty_generics) = split_generics(generics, "serde::Serialize");
    format!(
        "impl{impl_generics} serde::Serialize for {name}{ty_generics} {{\n\
             fn serialize(&self, w: &mut serde::Writer) {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item {
        Item::Struct { name, shape, .. } => format!("Ok({})", deserialize_shape(name, shape)),
        Item::Enum { name, variants, .. } => deserialize_enum(name, variants),
    };
    let (name, generics) = (item_name(&item), item_generics(&item));
    let (impl_generics, ty_generics) = split_generics(generics, "serde::Deserialize");
    format!(
        "impl{impl_generics} serde::Deserialize for {name}{ty_generics} {{\n\
             fn deserialize(r: &mut serde::Reader<'_>) -> std::result::Result<Self, serde::Error> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl must parse")
}

fn item_name(item: &Item) -> String {
    match item {
        Item::Struct { name, .. } | Item::Enum { name, .. } => name.clone(),
    }
}

fn item_generics(item: &Item) -> &[String] {
    match item {
        Item::Struct { generics, .. } | Item::Enum { generics, .. } => generics,
    }
}

/// `(impl generics with bounds, bare type generics)`.
fn split_generics(generics: &[String], bound: &str) -> (String, String) {
    if generics.is_empty() {
        (String::new(), String::new())
    } else {
        let with_bounds: Vec<String> = generics.iter().map(|g| format!("{g}: {bound}")).collect();
        (
            format!("<{}>", with_bounds.join(", ")),
            format!("<{}>", generics.join(", ")),
        )
    }
}

/// A Rust string literal holding `name` as a quoted JSON string. Names are
/// identifiers, so they need no escapes, and the writer emits the literal
/// verbatim.
fn quoted(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}

/// A Rust string literal holding object key `name` as it is written and
/// matched on the wire: quoted, then `:`.
fn key_literal(name: &str) -> String {
    format!("{:?}", format!("\"{name}\":"))
}

fn field_name(f: &Field) -> &str {
    f.name.as_deref().expect("named field")
}

// ------------------------------------------------------------ serialization

/// Expressions reaching each field of `self`: `&self.name` or `&self.0`.
fn struct_accessors(shape: &Shape) -> Vec<String> {
    match shape {
        Shape::Unit => Vec::new(),
        Shape::Tuple(fields) => (0..fields.len()).map(|i| format!("&self.{i}")).collect(),
        Shape::Named(fields) => fields
            .iter()
            .map(|f| format!("&self.{}", field_name(f)))
            .collect(),
    }
}

/// Writes a shape whose fields are reached through `access` (struct field
/// paths, or the bindings of an enum variant's match arm).
fn serialize_shape(shape: &Shape, access: &[String]) -> String {
    let write = |a: &String| format!("serde::Serialize::serialize({a}, w);");
    match shape {
        Shape::Unit => "w.null();".to_string(),
        // newtype: serialize transparently as the inner value
        Shape::Tuple(fields) if fields.len() == 1 => write(&access[0]),
        Shape::Tuple(_) => {
            let elems: String = access
                .iter()
                .map(|a| format!("w.element(); {}", write(a)))
                .collect();
            format!("w.begin_array(); {elems} w.end_array();")
        }
        Shape::Named(fields) => {
            let entries: String = fields
                .iter()
                .zip(access)
                .map(|(f, a)| format!("w.key({}); {}", key_literal(field_name(f)), write(a)))
                .collect();
            format!("w.begin_object(); {entries} w.end_object();")
        }
    }
}

fn serialize_variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    let (pattern, binds) = match &v.shape {
        Shape::Unit => {
            return format!("{enum_name}::{vname} => w.raw({}),\n", quoted(vname));
        }
        Shape::Tuple(fields) => {
            let binds: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
            (format!("({})", binds.join(", ")), binds)
        }
        Shape::Named(fields) => {
            // bound to fresh names: a field called `w` must not shadow the writer
            let binds: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
            let pattern: Vec<String> = fields
                .iter()
                .zip(&binds)
                .map(|(f, b)| format!("{}: {b}", field_name(f)))
                .collect();
            (format!("{{ {} }}", pattern.join(", ")), binds)
        }
    };
    let payload = serialize_shape(&v.shape, &binds);
    format!(
        "{enum_name}::{vname} {pattern} => {{ w.begin_object(); w.key({}); {payload} w.end_object(); }}\n",
        key_literal(vname)
    )
}

// ---------------------------------------------------------- deserialization

/// An expression of type `path`'s type reading `shape` from `r`; `?`
/// propagates errors out of the generated `deserialize`.
fn deserialize_shape(path: &str, shape: &Shape) -> String {
    match shape {
        // a unit struct has nothing to read: it accepts and ignores any value
        Shape::Unit => format!("{{ r.skip_value()?; {path} }}"),
        Shape::Tuple(fields) if fields.len() == 1 => {
            format!("{path}(serde::Deserialize::deserialize(r)?)")
        }
        Shape::Tuple(fields) => {
            let n = fields.len();
            let elems = vec![format!("r.element(&mut __first, {n})?"); n].join(", ");
            format!(
                "{{ r.begin_array()?;\n\
                   let mut __first = true;\n\
                   let __value = {path}({elems});\n\
                   r.end_tuple(&mut __first, {n})?;\n\
                   __value }}"
            )
        }
        Shape::Named(fields) => {
            let mut slots = String::new();
            let mut in_order = String::new();
            let mut arms = String::new();
            let mut inits = Vec::new();
            for (i, f) in fields.iter().enumerate() {
                let name = field_name(f);
                let key = key_literal(name);
                slots.push_str(&format!("let mut __f{i} = None;\n"));
                in_order.push_str(&format!(
                    "if r.expect_key(&mut __first, {key}) {{ r.field(&mut __f{i}, {name:?})?; }}\n"
                ));
                arms.push_str(&format!("{name:?} => r.field(&mut __f{i}, {name:?})?,\n"));
                inits.push(format!("{name}: serde::required(__f{i}, {name:?})?"));
            }
            // the fields in the order they are written, then any key at all
            format!(
                "{{ {slots}\
                   r.begin_object()?;\n\
                   let mut __first = true;\n\
                   {in_order}\
                   while let Some(__key) = r.next_key(&mut __first)? {{\n\
                       match &*__key {{ {arms} _ => r.skip_value()?, }}\n\
                   }}\n\
                   {path} {{ {} }} }}",
                inits.join(", ")
            )
        }
    }
}

fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        let vname = &v.name;
        match &v.shape {
            Shape::Unit => {
                unit_arms.push_str(&format!("{vname:?} => Ok({name}::{vname}),\n"));
                // also accept the externally tagged object form
                tagged_arms.push_str(&format!(
                    "{vname:?} => {{ r.skip_value()?; {name}::{vname} }}\n"
                ));
            }
            shape => {
                let value = deserialize_shape(&format!("{name}::{vname}"), shape);
                tagged_arms.push_str(&format!("{vname:?} => {value},\n"));
            }
        }
    }
    format!(
        "let __no_match = || serde::Error(format!(\"no variant of {name} matched\"));\n\
         match r.peek() {{\n\
             Some(b'\"') => match &*r.str()? {{ {unit_arms} _ => Err(__no_match()) }},\n\
             Some(b'{{') => {{\n\
                 r.begin_object()?;\n\
                 let mut __first = true;\n\
                 let __tag = r.next_key(&mut __first)?.ok_or_else(__no_match)?;\n\
                 let __value = match &*__tag {{ {tagged_arms} _ => return Err(__no_match()) }};\n\
                 if r.next_key(&mut __first)?.is_some() {{\n\
                     return Err(__no_match());\n\
                 }}\n\
                 Ok(__value)\n\
             }}\n\
             _ => Err(__no_match()),\n\
         }}"
    )
}

// ----------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0usize;

    skip_attrs_and_vis(&tokens, &mut pos);
    let kind = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    let generics = parse_generics(&tokens, &mut pos);

    match kind.as_str() {
        "struct" => {
            let shape = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(parse_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
                other => panic!("serde_derive: unsupported struct body: {other:?}"),
            };
            Item::Struct {
                name,
                generics,
                shape,
            }
        }
        "enum" => {
            let body = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde_derive: expected enum body, found {other:?}"),
            };
            Item::Enum {
                name,
                generics,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde_derive: expected struct or enum, found `{other}`"),
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1; // '#'
                if matches!(tokens.get(*pos), Some(TokenTree::Group(_))) {
                    *pos += 1; // [...]
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *pos += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(id)) => {
            *pos += 1;
            id.to_string()
        }
        other => panic!("serde_derive: expected identifier, found {other:?}"),
    }
}

/// Parses `<A, B, ...>` collecting bare type-parameter names. Bounds and
/// defaults inside the angle brackets are skipped; lifetimes are rejected
/// (no derived type in this workspace carries one).
fn parse_generics(tokens: &[TokenTree], pos: &mut usize) -> Vec<String> {
    let mut params = Vec::new();
    let Some(TokenTree::Punct(p)) = tokens.get(*pos) else {
        return params;
    };
    if p.as_char() != '<' {
        return params;
    }
    *pos += 1;
    let mut depth = 1i32;
    let mut expect_param = true;
    while let Some(tt) = tokens.get(*pos) {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    *pos += 1;
                    return params;
                }
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => expect_param = true,
            TokenTree::Punct(p) if p.as_char() == '\'' => {
                panic!("serde_derive: lifetimes on derived types are unsupported")
            }
            TokenTree::Ident(id) if expect_param && depth == 1 => {
                params.push(id.to_string());
                expect_param = false;
            }
            _ => {}
        }
        *pos += 1;
    }
    panic!("serde_derive: unbalanced generics");
}

/// Splits a field-list token stream on top-level commas (angle-bracket aware).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(tt);
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    split_top_level(stream)
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let mut pos = 0usize;
            skip_attrs_and_vis(&chunk, &mut pos);
            let name = expect_ident(&chunk, &mut pos);
            Field { name: Some(name) }
        })
        .collect()
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    split_top_level(stream)
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|_| Field { name: None })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let mut pos = 0usize;
            skip_attrs_and_vis(&chunk, &mut pos);
            let name = expect_ident(&chunk, &mut pos);
            let shape = match chunk.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(parse_tuple_fields(g.stream()))
                }
                None => Shape::Unit,
                other => panic!("serde_derive: unsupported variant body: {other:?}"),
            };
            Variant { name, shape }
        })
        .collect()
}
