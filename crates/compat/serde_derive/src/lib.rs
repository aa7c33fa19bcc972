//! `#[derive(Serialize, Deserialize)]` for the workspace's offline serde
//! subset.
//!
//! The real `serde_derive` leans on `syn`/`quote`; neither is available
//! offline, so this macro parses the item with a small hand-rolled cursor
//! over `proc_macro::TokenTree` and emits the impl as a source string. It
//! supports exactly the shapes this workspace derives on:
//!
//! * structs with named fields → JSON object, field order preserved;
//! * newtype structs → the inner value (serde's newtype convention);
//! * tuple structs → JSON array;
//! * enums with unit variants → the variant name as a string;
//! * enums with struct/tuple variants → externally tagged,
//!   `{"Variant": …}`, matching real serde's default representation.
//!
//! Generic types and `#[serde(...)]` attributes are not supported and
//! produce a compile error pointing here.
//!
//! Named structs, newtypes and unit-only enums also get a direct
//! `write_json` that prints compact JSON without building the `Value`
//! tree; its bytes equal printing `to_value()`. The same shapes get a
//! typed `read` from a pull reader, with no tree: it accepts what
//! `from_value` accepts and decodes it the same way, except that it
//! refuses an unknown or repeated key, which the tree path ignores or
//! resolves to its first occurrence.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
    Enum(Vec<(String, VariantShape)>),
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Cursor {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn skip_attrs(&mut self) {
        while matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            self.pos += 1; // '#'
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
            {
                self.pos += 1;
            }
        }
    }

    fn skip_vis(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
            self.pos += 1;
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.pos += 1;
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    /// Skips the rest of the current field/variant up to a top-level `,`
    /// (angle-bracket depth aware), consuming the comma.
    fn skip_to_comma(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                let c = p.as_char();
                if c == '<' {
                    depth += 1;
                } else if c == '>' {
                    depth -= 1;
                } else if c == ',' && depth <= 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }
}

fn parse_named_fields(group: TokenStream) -> Result<Vec<String>, String> {
    let mut c = Cursor::new(group);
    let mut fields = Vec::new();
    loop {
        c.skip_attrs();
        c.skip_vis();
        if c.peek().is_none() {
            break;
        }
        fields.push(c.expect_ident()?);
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        c.skip_to_comma();
    }
    Ok(fields)
}

fn count_tuple_fields(group: TokenStream) -> usize {
    let mut c = Cursor::new(group);
    let mut n = 0;
    loop {
        c.skip_attrs();
        c.skip_vis();
        if c.peek().is_none() {
            break;
        }
        n += 1;
        c.skip_to_comma();
    }
    n
}

fn parse_item(input: TokenStream) -> Result<(String, Shape), String> {
    let mut c = Cursor::new(input);
    c.skip_attrs();
    c.skip_vis();
    let kw = c.expect_ident()?;
    let name = c.expect_ident()?;
    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde_derive (offline subset): generic type `{name}` is not supported"
        ));
    }
    match kw.as_str() {
        "struct" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok((name, Shape::Named(parse_named_fields(g.stream())?)))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok((name, Shape::Tuple(count_tuple_fields(g.stream()))))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok((name, Shape::Unit)),
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => {
            let body = match c.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, found {other:?}")),
            };
            let mut vc = Cursor::new(body);
            let mut variants = Vec::new();
            loop {
                vc.skip_attrs();
                if vc.peek().is_none() {
                    break;
                }
                let vname = vc.expect_ident()?;
                let shape = match vc.peek() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let fields = parse_named_fields(g.stream())?;
                        vc.pos += 1;
                        VariantShape::Named(fields)
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        let n = count_tuple_fields(g.stream());
                        vc.pos += 1;
                        VariantShape::Tuple(n)
                    }
                    _ => VariantShape::Unit,
                };
                vc.skip_to_comma(); // also skips `= discr` if present
                variants.push((vname, shape));
            }
            Ok((name, Shape::Enum(variants)))
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Derives the workspace `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = match parse_item(input) {
        Ok(x) => x,
        Err(e) => return compile_error(&e),
    };
    let body = match &shape {
        Shape::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!(
                "::serde::Value::Object(::std::vec![{}])",
                entries.join(", ")
            )
        }
        Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Shape::Unit => format!("::serde::Value::String(::std::string::String::from({name:?}))"),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, vs)| match vs {
                    VariantShape::Unit => format!(
                        "{name}::{v} => ::serde::Value::String(\
                         ::std::string::String::from({v:?})),"
                    ),
                    VariantShape::Named(fields) => {
                        let binds = fields.join(", ");
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({f:?}), \
                                     ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from({v:?}), \
                             ::serde::Value::Object(::std::vec![{}]))]),",
                            entries.join(", ")
                        )
                    }
                    VariantShape::Tuple(1) => format!(
                        "{name}::{v}(x0) => ::serde::Value::Object(::std::vec![\
                         (::std::string::String::from({v:?}), \
                         ::serde::Serialize::to_value(x0))]),"
                    ),
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::to_value(x{i})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(::std::vec![\
                             (::std::string::String::from({v:?}), \
                             ::serde::Value::Array(::std::vec![{}]))]),",
                            binds.join(", "),
                            items.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    let write_json = direct_writer(&shape)
        .map(|w| format!("fn write_json(&self, out: &mut ::std::string::String) {{ {w} }}\n"))
        .unwrap_or_default();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         {write_json}\
         }}"
    )
    .parse()
    .unwrap()
}

/// The body of a `write_json` that prints compact JSON straight from the
/// fields, for the shapes on the hot wire paths: named structs, newtypes
/// and unit-only enums. Other shapes keep the trait's default (print the
/// `to_value` tree). Keys and variant names are Rust identifiers, so
/// they never need escaping and are emitted as literal text.
fn direct_writer(shape: &Shape) -> Option<String> {
    match shape {
        Shape::Named(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let head = format!("{}\"{f}\":", if i == 0 { "" } else { "," });
                    format!(
                        "out.push_str({head:?}); \
                         ::serde::Serialize::write_json(&self.{f}, out);"
                    )
                })
                .collect();
            Some(format!(
                "out.push('{{'); {} out.push('}}');",
                parts.join(" ")
            ))
        }
        Shape::Tuple(1) => Some("::serde::Serialize::write_json(&self.0, out)".to_owned()),
        Shape::Enum(variants)
            if variants
                .iter()
                .all(|(_, vs)| matches!(vs, VariantShape::Unit)) =>
        {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, _)| {
                    let quoted = format!("\"{v}\"");
                    format!("Self::{v} => {quoted:?},")
                })
                .collect();
            Some(format!(
                "out.push_str(match self {{ {} }});",
                arms.join(" ")
            ))
        }
        _ => None,
    }
}

/// Derives the workspace `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = match parse_item(input) {
        Ok(x) => x,
        Err(e) => return compile_error(&e),
    };
    let body = match &shape {
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         ::serde::field(v, {name:?}, {f:?})?)?"
                    )
                })
                .collect();
            format!(
                "if v.as_object().is_none() {{\n\
                 return ::std::result::Result::Err(\
                 ::serde::DeError::expected({name:?}, v));\n\
                 }}\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Shape::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Shape::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
                .collect();
            format!(
                "match v.as_array() {{\n\
                 ::std::option::Option::Some(a) if a.len() == {n} => \
                 ::std::result::Result::Ok({name}({})),\n\
                 _ => ::std::result::Result::Err(\
                 ::serde::DeError::expected({name:?}, v)),\n\
                 }}",
                elems.join(", ")
            )
        }
        Shape::Unit => format!(
            "match v.as_str() {{\n\
             ::std::option::Option::Some({name:?}) => \
             ::std::result::Result::Ok({name}),\n\
             _ => ::std::result::Result::Err(\
             ::serde::DeError::expected({name:?}, v)),\n\
             }}"
        ),
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, vs)| matches!(vs, VariantShape::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, vs)| match vs {
                    VariantShape::Unit => None,
                    VariantShape::Named(fields) => {
                        let ctx = format!("{name}::{v}");
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(\
                                     ::serde::field(inner, {ctx:?}, {f:?})?)?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "{v:?} => ::std::result::Result::Ok({name}::{v} {{ {} }}),",
                            inits.join(", ")
                        ))
                    }
                    VariantShape::Tuple(1) => Some(format!(
                        "{v:?} => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(inner)?)),"
                    )),
                    VariantShape::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
                            .collect();
                        Some(format!(
                            "{v:?} => match inner.as_array() {{\n\
                             ::std::option::Option::Some(a) if a.len() == {n} => \
                             ::std::result::Result::Ok({name}::{v}({})),\n\
                             _ => ::std::result::Result::Err(\
                             ::serde::DeError::expected({name:?}, inner)),\n\
                             }},",
                            elems.join(", ")
                        ))
                    }
                })
                .collect();
            let object_arm = if tagged_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                     let (tag, inner) = &entries[0];\n\
                     match tag.as_str() {{\n\
                     {}\n\
                     _ => ::std::result::Result::Err(::serde::DeError(\
                     ::std::format!(\"unknown variant `{{tag}}` of {name}\"))),\n\
                     }}\n\
                     }},\n",
                    tagged_arms.join("\n")
                )
            };
            format!(
                "match v {{\n\
                 ::serde::Value::String(s) => match s.as_str() {{\n\
                 {}\n\
                 _ => ::std::result::Result::Err(::serde::DeError(\
                 ::std::format!(\"unknown variant `{{s}}` of {name}\"))),\n\
                 }},\n\
                 {object_arm}\
                 other => ::std::result::Result::Err(\
                 ::serde::DeError::expected({name:?}, other)),\n\
                 }}",
                unit_arms.join("\n")
            )
        }
    };
    let read = typed_reader(&name, &shape)
        .map(|body| {
            format!(
                "fn read<'de, R: ::serde::Reader<'de>>(r: &mut R) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n"
            )
        })
        .unwrap_or_default();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n\
         {body}\n\
         }}\n\
         {read}\
         }}"
    )
    .parse()
    .unwrap()
}

/// The body of a typed `read` for the shapes on the request path: named
/// structs, newtypes and unit-only enums. Other shapes keep the trait's
/// default (read the tree, then convert it).
fn typed_reader(name: &str, shape: &Shape) -> Option<String> {
    match shape {
        Shape::Named(fields) => {
            let slots: Vec<String> = fields
                .iter()
                .map(|f| format!("let mut f_{f} = ::std::option::Option::None;"))
                .collect();
            let arms: Vec<String> = fields
                .iter()
                .map(|f| format!("{f:?} => ::serde::read_field(r, &mut f_{f}, {name:?}, {f:?})?,"))
                .collect();
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::required(f_{f}, {name:?}, {f:?})?"))
                .collect();
            Some(format!(
                "let mut seq = ::serde::Reader::object(r)?;\n\
                 {}\n\
                 while let ::std::option::Option::Some(key) = ::serde::Reader::key(r, &mut seq)? {{\n\
                 match &*key {{\n\
                 {}\n\
                 other => return ::std::result::Result::Err(\
                 ::serde::DeError::unknown({name:?}, other)),\n\
                 }}\n\
                 }}\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                slots.join(" "),
                arms.join("\n"),
                inits.join(", ")
            ))
        }
        Shape::Tuple(1) => Some(format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::read(r)?))"
        )),
        Shape::Enum(variants)
            if variants
                .iter()
                .all(|(_, vs)| matches!(vs, VariantShape::Unit)) =>
        {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            Some(format!(
                "let s = ::serde::Reader::str(r)?;\n\
                 match &*s {{\n\
                 {}\n\
                 other => ::std::result::Result::Err(::serde::DeError(\
                 ::std::format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                 }}",
                arms.join("\n")
            ))
        }
        _ => None,
    }
}
