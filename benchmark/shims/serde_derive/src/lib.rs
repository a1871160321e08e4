//! Stand-in derive macros for the `serde` stand-in. No `syn`, no `quote`:
//! the item is read straight off the token stream and the impl is written
//! as source text.
//!
//! Covered, because the metamess crates use it: structs with named fields,
//! newtype structs, unit/newtype/tuple/struct enum variants, lifetime
//! generics, and the attributes `transparent`, `rename_all` (`lowercase`,
//! `snake_case`; enums), `tag`, `untagged` (on one variant), `rename`,
//! `default`, `default = "path"`, `skip`, `skip_serializing_if`, `flatten`,
//! `deserialize_with`. Anything else stops the build with a message.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

/// The `name` / `name = "value"` entries of every `#[serde(...)]` on an item.
#[derive(Default)]
struct Attrs(Vec<(String, Option<String>)>);

impl Attrs {
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }
}

struct Field {
    /// Field name, or the position in a tuple.
    name: String,
    ty: String,
    attrs: Attrs,
}

impl Field {
    fn key(&self) -> &str {
        self.attrs.value("rename").unwrap_or(&self.name)
    }
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
    attrs: Attrs,
}

enum Kind {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// `<'a>` or empty; used both after `impl` and after the type name.
    generics: String,
    attrs: Attrs,
    kind: Kind,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: Option<&TokenTree>, c: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

/// Consumes leading `#[...]` attributes, keeping the serde ones.
fn take_attrs(tokens: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(outer)) = tokens.next() else { panic!("malformed attribute") };
        let mut inner = outer.stream().into_iter();
        match (inner.next(), inner.next()) {
            (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
                if id.to_string() == "serde" =>
            {
                let mut args = args.stream().into_iter().peekable();
                while let Some(tt) = args.next() {
                    let TokenTree::Ident(name) = tt else { continue };
                    let mut value = None;
                    if is_punct(args.peek(), '=') {
                        args.next();
                        let lit = args.next().expect("attribute value").to_string();
                        value = Some(lit.trim_matches('"').to_string());
                    }
                    attrs.0.push((name.to_string(), value));
                }
            }
            _ => {}
        }
    }
    attrs
}

fn take_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Reads type tokens up to a comma outside angle brackets.
fn take_type(tokens: &mut Tokens) -> String {
    let mut depth = 0;
    let mut ty = Vec::new();
    while let Some(tt) = tokens.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                ',' if depth == 0 => break,
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
        }
        ty.push(tokens.next().expect("peeked"));
    }
    tokens.next(); // the comma, if any
    ty.into_iter().collect::<TokenStream>().to_string()
}

fn parse_fields(stream: TokenStream, named: bool) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut tokens);
        take_visibility(&mut tokens);
        if tokens.peek().is_none() {
            return fields;
        }
        let name = if named {
            let name = tokens.next().expect("field name").to_string();
            assert!(is_punct(tokens.next().as_ref(), ':'), "expected `:` after field `{name}`");
            name
        } else {
            fields.len().to_string()
        };
        fields.push(Field { name, ty: take_type(&mut tokens), attrs });
    }
}

fn parse_shape(tokens: &mut Tokens) -> Shape {
    match tokens.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let stream = g.stream();
            tokens.next();
            Shape::Named(parse_fields(stream, true))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let stream = g.stream();
            tokens.next();
            Shape::Tuple(parse_fields(stream, false))
        }
        _ => Shape::Unit,
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let attrs = take_attrs(&mut tokens);
    take_visibility(&mut tokens);
    let keyword = tokens.next().expect("struct or enum").to_string();
    let name = tokens.next().expect("type name").to_string();
    let mut generics = String::new();
    if is_punct(tokens.peek(), '<') {
        let mut depth = 0;
        for tt in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
            }
            let lifetime_tick = is_punct(Some(&tt), '\'');
            generics.push_str(&tt.to_string());
            if !lifetime_tick {
                generics.push(' ');
            }
            if depth == 0 {
                break;
            }
        }
        assert!(
            !generics.contains(':') && generics.contains('\''),
            "serde stand-in: only lifetime parameters are supported on `{name}`"
        );
    }
    let kind = match keyword.as_str() {
        "struct" => Kind::Struct(parse_shape(&mut tokens)),
        "enum" => {
            let Some(TokenTree::Group(body)) = tokens.next() else { panic!("enum body") };
            let mut tokens = body.stream().into_iter().peekable();
            let mut variants = Vec::new();
            loop {
                let attrs = take_attrs(&mut tokens);
                let Some(name) = tokens.next() else { break };
                let shape = parse_shape(&mut tokens);
                // Skip an explicit discriminant and the separating comma.
                for tt in tokens.by_ref() {
                    if is_punct(Some(&tt), ',') {
                        break;
                    }
                }
                variants.push(Variant { name: name.to_string(), shape, attrs });
            }
            Kind::Enum(variants)
        }
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    };
    for (attr, _) in &attrs.0 {
        let known = match kind {
            Kind::Struct(_) => matches!(attr.as_str(), "transparent" | "default"),
            Kind::Enum(_) => matches!(attr.as_str(), "rename_all" | "tag"),
        };
        assert!(known, "serde stand-in: container attribute `{attr}` is not supported on `{name}`");
    }
    Item { name, generics, attrs, kind }
}

fn variant_key(item: &Item, v: &Variant) -> String {
    if let Some(name) = v.attrs.value("rename") {
        return name.to_string();
    }
    match item.attrs.value("rename_all") {
        None => v.name.clone(),
        Some("lowercase") => v.name.to_lowercase(),
        Some("snake_case") => {
            let mut out = String::new();
            for (i, c) in v.name.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            }
            out
        }
        Some(other) => panic!("serde stand-in: rename_all = \"{other}\" is not supported"),
    }
}

// ── Serialize ────────────────────────────────────────────────────────────

/// Statements that write the entries of `fields`; `access` turns a field
/// name into an expression of reference type.
fn ser_entries(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::new();
    for f in fields {
        let value = access(&f.name);
        if f.attrs.has("skip") {
            continue;
        }
        if f.attrs.has("flatten") {
            write!(code, "::serde::ser::SerializeFields::json_fields({value}, out);").unwrap();
            continue;
        }
        let entry = format!("out.key({:?}); ::serde::Serialize::json({value}, out);", f.key());
        match f.attrs.value("skip_serializing_if") {
            Some(skip) => write!(code, "if !{skip}({value}) {{ {entry} }}").unwrap(),
            None => code.push_str(&entry),
        }
    }
    code
}

fn ser_body(item: &Item) -> String {
    let name = &item.name;
    let variants = match &item.kind {
        Kind::Struct(Shape::Named(fields)) => {
            return format!(
                "out.begin_object(); {} out.end_object();",
                ser_entries(fields, |f| format!("&self.{f}"))
            );
        }
        Kind::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            return "::serde::Serialize::json(&self.0, out);".to_string();
        }
        Kind::Struct(_) => panic!("serde stand-in: struct shape of `{name}` is not supported"),
        Kind::Enum(variants) => variants,
    };
    let tag = item.attrs.value("tag");
    let mut arms = String::new();
    for v in variants {
        let key = variant_key(item, v);
        let vname = &v.name;
        if v.attrs.has("untagged") {
            write!(arms, "{name}::{vname}(inner) => ::serde::Serialize::json(inner, out),")
                .unwrap();
            continue;
        }
        match (&v.shape, tag) {
            (Shape::Unit, None) => {
                write!(arms, "{name}::{vname} => out.string({key:?}),").unwrap();
            }
            (Shape::Unit, Some(tag)) => write!(
                arms,
                "{name}::{vname} => {{ out.begin_object(); out.key({tag:?}); \
                 out.string({key:?}); out.end_object(); }}"
            )
            .unwrap(),
            (Shape::Named(fields), _) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let entries = ser_entries(fields, |f| f.to_string());
                let (open, close) = match tag {
                    Some(tag) => (format!("out.key({tag:?}); out.string({key:?});"), ""),
                    None => (format!("out.key({key:?}); out.begin_object();"), "out.end_object();"),
                };
                write!(
                    arms,
                    "{name}::{vname} {{ {} }} => {{ out.begin_object(); {open} {entries} \
                     {close} out.end_object(); }}",
                    binds.join(", ")
                )
                .unwrap();
            }
            (Shape::Tuple(fields), None) => {
                let binds: Vec<String> = (0..fields.len()).map(|i| format!("f{i}")).collect();
                let value = if fields.len() == 1 {
                    "::serde::Serialize::json(f0, out);".to_string()
                } else {
                    let items: String = binds
                        .iter()
                        .map(|b| format!("out.element(); ::serde::Serialize::json({b}, out);"))
                        .collect();
                    format!("out.begin_array(); {items} out.end_array();")
                };
                write!(
                    arms,
                    "{name}::{vname}({}) => {{ out.begin_object(); out.key({key:?}); {value} \
                     out.end_object(); }}",
                    binds.join(", ")
                )
                .unwrap();
            }
            (Shape::Tuple(_), Some(_)) => {
                panic!("serde stand-in: tuple variant `{vname}` in a tagged enum is not supported")
            }
        }
    }
    format!("match self {{ {arms} }}")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, generics) = (&item.name, &item.generics);
    format!(
        "impl {generics} ::serde::Serialize for {name} {generics} {{ \
           fn json(&self, out: &mut ::serde::ser::JsonOut) {{ {} }} \
         }}",
        ser_body(&item)
    )
    .parse()
    .expect("generated Serialize impl parses")
}

// ── Deserialize ──────────────────────────────────────────────────────────

const MAP: &str = "::serde::de::MapAccess";

/// An expression of type `Result<Self, err>` that builds `ctor {{ fields }}`
/// from the map that the deserializer `__d` yields.
fn de_named(ctor: &str, fields: &[Field], container_default: bool, err: &str) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    let mut fallback = format!("{MAP}::skip_value(&mut __map)?;");
    for (i, f) in fields.iter().enumerate() {
        let (fname, ty) = (&f.name, &f.ty);
        if f.attrs.has("skip") {
            write!(build, "{fname}: ::std::default::Default::default(),").unwrap();
            continue;
        }
        if f.attrs.has("flatten") {
            write!(slots, "let mut __flat: {ty} = ::std::default::Default::default();").unwrap();
            fallback = format!(
                "::serde::de::FlattenSink::put(&mut __flat, __key.into_owned(), \
                 {MAP}::value(&mut __map))?;"
            );
            write!(build, "{fname}: __flat,").unwrap();
            continue;
        }
        write!(slots, "let mut __f{i}: ::std::option::Option<{ty}> = None;").unwrap();
        let read = match f.attrs.value("deserialize_with") {
            Some(with) => format!("{with}({MAP}::value(&mut __map))?"),
            None => format!("{MAP}::next_value(&mut __map)?"),
        };
        write!(arms, "{:?} => __f{i} = Some({read}),", f.key()).unwrap();
        let absent = if let Some(path) = f.attrs.value("default") {
            format!("{path}()")
        } else if f.attrs.has("default") {
            "::std::default::Default::default()".to_string()
        } else if container_default {
            format!("__default.{fname}")
        } else {
            format!("::serde::Deserialize::missing::<{err}>({:?})?", f.key())
        };
        write!(build, "{fname}: match __f{i} {{ Some(v) => v, None => {absent} }},").unwrap();
    }
    let default = if container_default {
        "let __default: Self = ::std::default::Default::default();"
    } else {
        ""
    };
    format!(
        "{{ let mut __map = ::serde::Deserializer::map(__d, \"{ctor}\")?; {slots} \
            while let Some(__key) = {MAP}::next_key(&mut __map)? {{ \
              match &*__key {{ {arms} _ => {{ {fallback} }} }} \
            }} \
            {default} \
            Ok({ctor} {{ {build} }}) }}"
    )
}

/// Deserializes the payload of a tuple variant from `__d`.
fn de_tuple_variant(ctor: &str, fields: &[Field]) -> String {
    if fields.len() == 1 {
        return format!("::serde::Deserialize::deserialize(__d).map({ctor})");
    }
    let tys: Vec<&str> = fields.iter().map(|f| f.ty.as_str()).collect();
    let binds: Vec<String> = (0..fields.len()).map(|i| format!("f{i}")).collect();
    format!(
        "<({},) as ::serde::Deserialize>::deserialize(__d).map(|({},)| {ctor}({}))",
        tys.join(", "),
        binds.join(", "),
        binds.join(", ")
    )
}

fn de_external_enum(item: &Item, variants: &[Variant]) -> String {
    let name = &item.name;
    let mut unit_arms = String::new();
    let mut map_arms = String::new();
    for v in variants {
        let key = variant_key(item, v);
        let ctor = format!("{name}::{}", v.name);
        match &v.shape {
            Shape::Unit => {
                write!(unit_arms, "{key:?} => Ok({ctor}),").unwrap();
                write!(map_arms, "{key:?} => {MAP}::next_value::<()>(&mut __map).map(|_| {ctor}),")
                    .unwrap();
            }
            Shape::Named(fields) => write!(
                map_arms,
                "{key:?} => {{ let __d = {MAP}::value(&mut __map); {} }}",
                de_named(&ctor, fields, false, "__D::Error")
            )
            .unwrap(),
            Shape::Tuple(fields) => write!(
                map_arms,
                "{key:?} => {{ let __d = {MAP}::value(&mut __map); {} }}",
                de_tuple_variant(&ctor, fields)
            )
            .unwrap(),
        }
    }
    let unknown = format!(
        "other => Err(::serde::de::Error::custom(\
         format_args!(\"unknown variant `{{other}}` of {name}\"))),"
    );
    format!(
        "match ::serde::Deserializer::next(__d)? {{ \
           ::serde::de::Token::Str(__s) | ::serde::de::Token::Key(__s) => \
             match &*__s {{ {unit_arms} {unknown} }}, \
           ::serde::de::Token::Map(mut __map) => {{ \
             let Some(__key) = {MAP}::next_key(&mut __map)? else {{ \
               return Err(::serde::de::Error::custom(\"expected a variant of {name}\")); \
             }}; \
             let __value: ::std::result::Result<Self, __D::Error> = \
               match &*__key {{ {map_arms} {unknown} }}; \
             let __value = __value?; \
             {MAP}::finish(&mut __map)?; \
             Ok(__value) \
           }} \
           other => Err(other.unexpected(\"enum {name}\")), \
         }}"
    )
}

/// An internally tagged enum is read into a `Value` first: the tag picks the
/// variant, whose fields are then read from that value. A failure falls back
/// to the `untagged` variant when there is one.
fn de_tagged_enum(item: &Item, variants: &[Variant], tag: &str) -> String {
    let name = &item.name;
    let mut arms = String::new();
    let mut fallback = None;
    for v in variants {
        let key = variant_key(item, v);
        let ctor = format!("{name}::{}", v.name);
        if v.attrs.has("untagged") {
            fallback = Some(ctor);
            continue;
        }
        match &v.shape {
            Shape::Unit => write!(arms, "Some({key:?}) => Ok({ctor}),").unwrap(),
            Shape::Named(fields) => write!(
                arms,
                "Some({key:?}) => {{ let __d = __value; {} }}",
                de_named(&ctor, fields, false, "::serde::Error")
            )
            .unwrap(),
            Shape::Tuple(_) => panic!("serde stand-in: tuple variant in tagged enum `{name}`"),
        }
    }
    let (spare, recover) = match fallback {
        Some(ctor) => (
            "let __spare = __value.clone();",
            format!(
                "let __tagged = match __tagged {{ Ok(v) => Ok(v), \
                 Err(_) => ::serde::Deserialize::deserialize(__spare).map({ctor}) }};"
            ),
        ),
        None => ("", String::new()),
    };
    format!(
        "let __value = ::serde::Deserializer::buffer(__d)?; \
         let __tag = __value.get({tag:?}).and_then(::serde::json::Value::as_str)\
           .map(::std::string::ToString::to_string); \
         {spare} \
         let __tagged = (|| -> ::std::result::Result<Self, ::serde::Error> {{ \
           match __tag.as_deref() {{ \
             {arms} \
             Some(other) => Err(::serde::de::Error::custom(\
               format_args!(\"unknown variant `{{other}}` of {name}\"))), \
             None => Err(::serde::de::Error::custom(\"missing tag `{tag}` of {name}\")), \
           }} \
         }})(); \
         {recover} \
         __tagged.map_err(::serde::de::Error::custom)"
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    assert!(item.generics.is_empty(), "serde stand-in: `{name}` cannot borrow when deserialized");
    let body = match &item.kind {
        Kind::Struct(Shape::Named(fields)) => {
            de_named(name, fields, item.attrs.has("default"), "__D::Error")
        }
        Kind::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            format!("::serde::Deserialize::deserialize(__d).map({name})")
        }
        Kind::Struct(_) => panic!("serde stand-in: struct shape of `{name}` is not supported"),
        Kind::Enum(variants) => match item.attrs.value("tag") {
            Some(tag) => de_tagged_enum(&item, variants, tag),
            None => de_external_enum(&item, variants),
        },
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{ \
           #[allow(unused_mut, unused_variables)] \
           fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
             -> ::std::result::Result<Self, __D::Error> {{ {body} }} \
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
