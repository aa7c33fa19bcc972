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
//! * enums with unit variants → the variant name as a string;
//! * with `tag` (below), enums with unit and named-field variants.
//!
//! Four `#[serde(...)]` attributes are understood, with real serde's
//! meaning except where noted:
//!
//! * field `default`: an absent field decodes as `Default::default()`.
//!   Unlike real serde, so does a field that is `null`: the wire treats
//!   `null` and absence alike, and older peers send either;
//! * field `skip_serializing_if = "Option::is_none"`: a `None` field is
//!   left out of the object instead of written as `null`;
//! * container `rename_all = "lowercase"` or `"kebab-case"` on an enum:
//!   the variants' wire names (`GaveUp` → `gaveup` or `gave-up`);
//! * container `tag = "..."` on an enum, `Serialize` only: internally
//!   tagged, `{"<tag>":"<variant>", fields…}`, fields in declaration
//!   order.
//!
//! Any other `#[serde(...)]` attribute, `tag` on a `Deserialize`, and
//! any other shape (generic, unit or tuple structs, tuple variants) are
//! compile errors, so nothing compiles and then behaves unlike serde.
//!
//! Named structs without a skipped field, newtypes and unit-only enums
//! also get a direct `write_json` that prints compact JSON without
//! building the `Value` tree; its bytes equal printing `to_value()`. The
//! same shapes get a typed `read` from a pull reader, with no tree: it
//! accepts what `from_value` accepts and decodes it the same way, except
//! that it refuses an unknown or repeated key, which the tree path
//! ignores or resolves to its first occurrence.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A named field and what its attributes ask of it.
struct Field {
    name: String,
    /// `default`: absent or `null` decodes as `Default::default()`.
    default: bool,
    /// `skip_serializing_if = "Option::is_none"`.
    skip_none: bool,
}

enum Shape {
    Named(Vec<Field>),
    Newtype,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    /// The variant's name on the wire, after `rename_all`.
    wire: String,
    /// The named fields; `None` for a unit variant.
    fields: Option<Vec<Field>>,
}

/// A parsed item: its name, shape and internal `tag` key, if any.
struct Item {
    name: String,
    shape: Shape,
    tag: Option<String>,
}

/// One `key` or `key = "value"` entry of a `#[serde(...)]` attribute.
struct Attr {
    key: String,
    value: Option<String>,
}

impl Attr {
    fn unsupported(&self, place: &str) -> String {
        let value = self
            .value
            .as_ref()
            .map(|v| format!(" = {v:?}"))
            .unwrap_or_default();
        format!(
            "serde_derive (offline subset): unsupported attribute `#[serde({}{value})]` on {place}; \
             supported: field `default` and `skip_serializing_if = \"Option::is_none\"`, \
             enum `rename_all = \"lowercase\"|\"kebab-case\"` and `tag = \"...\"` (Serialize only)",
            self.key
        )
    }
}

fn unsupported_shape(what: &str) -> String {
    format!("serde_derive (offline subset): {what} is not supported")
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

    /// Whether the next token is the punctuation `c`; consumes it if so.
    fn eat(&mut self, c: char) -> bool {
        let hit = matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes the outer attributes here, returning the entries of the
    /// `#[serde(...)]` ones; docs and other attributes are skipped.
    fn attrs(&mut self) -> Result<Vec<Attr>, String> {
        let mut out = Vec::new();
        while self.eat('#') {
            let Some(TokenTree::Group(g)) = self.next() else {
                return Err("expected `[` after `#`".to_owned());
            };
            let mut inner = Cursor::new(g.stream());
            if !matches!(inner.next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
                continue;
            }
            let Some(TokenTree::Group(args)) = inner.next() else {
                return Err("expected `#[serde(...)]`".to_owned());
            };
            let mut c = Cursor::new(args.stream());
            while c.peek().is_some() {
                let key = c.expect_ident()?;
                let value = if c.eat('=') {
                    let text = c.next().map(|t| t.to_string()).unwrap_or_default();
                    match text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
                        Some(v) => Some(v.to_owned()),
                        None => return Err(format!("`{key}` takes a string, found `{text}`")),
                    }
                } else {
                    None
                };
                out.push(Attr { key, value });
                if c.peek().is_some() && !c.eat(',') {
                    return Err("expected `,` between serde attributes".to_owned());
                }
            }
        }
        Ok(out)
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
    /// (angle-bracket depth aware), consuming the comma; returns whether
    /// it skipped any token.
    fn skip_to_comma(&mut self) -> bool {
        let start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.next() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth <= 0 => return true,
                    _ => {}
                }
            }
        }
        self.pos > start
    }
}

fn parse_named_fields(group: TokenStream, owner: &str) -> Result<Vec<Field>, String> {
    let mut c = Cursor::new(group);
    let mut fields = Vec::new();
    loop {
        let attrs = c.attrs()?;
        c.skip_vis();
        if c.peek().is_none() {
            break;
        }
        let mut field = Field {
            name: c.expect_ident()?,
            default: false,
            skip_none: false,
        };
        for a in attrs {
            match (a.key.as_str(), a.value.as_deref()) {
                ("default", None) => field.default = true,
                ("skip_serializing_if", Some("Option::is_none")) => field.skip_none = true,
                _ => return Err(a.unsupported(&format!("field `{owner}.{}`", field.name))),
            }
        }
        if !c.eat(':') {
            return Err(format!("expected `:` after field `{owner}.{}`", field.name));
        }
        c.skip_to_comma();
        fields.push(field);
    }
    Ok(fields)
}

/// A variant name in the `rename_all` case (`None`: as written).
fn rename(name: &str, case: Option<&str>) -> String {
    match case {
        Some("lowercase") => name.to_ascii_lowercase(),
        Some(_) => {
            let mut out = String::new();
            for (i, c) in name.char_indices() {
                if c.is_ascii_uppercase() && i > 0 {
                    out.push('-');
                }
                out.push(c.to_ascii_lowercase());
            }
            out
        }
        None => name.to_owned(),
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    let (mut rename_all, mut tag) = (None, None);
    for a in c.attrs()? {
        match (a.key.as_str(), &a.value) {
            ("rename_all", Some(case)) if case == "lowercase" || case == "kebab-case" => {
                rename_all = a.value
            }
            ("tag", Some(_)) => tag = a.value,
            _ => return Err(a.unsupported("a container")),
        }
    }
    c.skip_vis();
    let kw = c.expect_ident()?;
    let name = c.expect_ident()?;
    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(unsupported_shape(&format!("generic type `{name}`")));
    }
    let body = match c.next() {
        Some(TokenTree::Group(g)) => g,
        _ => return Err(unsupported_shape(&format!("unit struct `{name}`"))),
    };
    let shape = match (kw.as_str(), body.delimiter()) {
        _ if kw != "enum" && (rename_all.is_some() || tag.is_some()) => {
            return Err(unsupported_shape(&format!(
                "`rename_all` or `tag` on struct `{name}`"
            )))
        }
        ("struct", Delimiter::Brace) => Shape::Named(parse_named_fields(body.stream(), &name)?),
        ("struct", Delimiter::Parenthesis) => {
            let mut fields = Cursor::new(body.stream());
            if let Some(a) = fields.attrs()?.first() {
                return Err(a.unsupported(&format!("the field of `{name}`")));
            }
            if !fields.skip_to_comma() || fields.skip_to_comma() {
                return Err(unsupported_shape(&format!("tuple struct `{name}`")));
            }
            Shape::Newtype
        }
        ("enum", _) => {
            let mut vc = Cursor::new(body.stream());
            let mut variants = Vec::new();
            loop {
                let attrs = vc.attrs()?;
                if vc.peek().is_none() {
                    break;
                }
                let vname = vc.expect_ident()?;
                let owner = format!("{name}::{vname}");
                if let Some(a) = attrs.first() {
                    return Err(a.unsupported(&format!("variant `{owner}`")));
                }
                let fields = match vc.peek() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        if tag.is_none() {
                            let what = format!("data variant `{owner}` without `tag`");
                            return Err(unsupported_shape(&what));
                        }
                        Some(parse_named_fields(g.stream(), &owner)?)
                    }
                    Some(TokenTree::Group(_)) => {
                        return Err(unsupported_shape(&format!("tuple variant `{owner}`")))
                    }
                    _ => None,
                };
                vc.skip_to_comma(); // the fields, or `= discr`
                variants.push(Variant {
                    wire: rename(&vname, rename_all.as_deref()),
                    name: vname,
                    fields,
                });
            }
            Shape::Enum(variants)
        }
        _ => return Err(unsupported_shape(&format!("`{kw} {name}`"))),
    };
    Ok(Item { name, shape, tag })
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// A `(String, Value)` object entry expression.
fn entry(key: &str, value: &str) -> String {
    format!("(::std::string::String::from({key:?}), {value})")
}

/// An expression building the `Value::Object` of `head` (rendered
/// entries) then `fields`, each field's value read through `access` (an
/// expression of type `&T`). A `skip_serializing_if` field is pushed
/// only when it is not `None`.
fn object_expr(head: Vec<String>, fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let value = |f: &Field| {
        entry(
            &f.name,
            &format!("::serde::Serialize::to_value({})", access(&f.name)),
        )
    };
    let split = fields
        .iter()
        .position(|f| f.skip_none)
        .unwrap_or(fields.len());
    let mut leading = head;
    leading.extend(fields[..split].iter().map(value));
    let vec = format!("::std::vec![{}]", leading.join(", "));
    if split == fields.len() {
        return format!("::serde::Value::Object({vec})");
    }
    let pushes: Vec<String> = fields[split..]
        .iter()
        .map(|f| {
            let push = format!("__fields.push({});", value(f));
            if f.skip_none {
                let field = access(&f.name);
                format!("if !::std::option::Option::is_none({field}) {{ {push} }}")
            } else {
                push
            }
        })
        .collect();
    format!(
        "{{ let mut __fields = {vec}; {} ::serde::Value::Object(__fields) }}",
        pushes.join(" ")
    )
}

/// A `match self` over unit variants, each arm's value rendered by `arm`
/// from the variant's wire name.
fn unit_match(variants: &[Variant], arm: impl Fn(&str) -> String) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| format!("Self::{} => {},", v.name, arm(&v.wire)))
        .collect();
    format!("match self {{ {} }}", arms.join(" "))
}

/// Derives the workspace `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Item { name, shape, tag } = match parse_item(input) {
        Ok(x) => x,
        Err(e) => return compile_error(&e),
    };
    let string =
        |wire: &str| format!("::serde::Value::String(::std::string::String::from({wire:?}))");
    let (body, write_json) = match &shape {
        Shape::Named(fields) => {
            // Keys are identifiers: literal text, never escaped.
            let parts: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let head = format!("{}\"{}\":", if i == 0 { "" } else { "," }, f.name);
                    format!(
                        "out.push_str({head:?}); ::serde::Serialize::write_json(&self.{}, out);",
                        f.name
                    )
                })
                .collect();
            let direct = !fields.iter().any(|f| f.skip_none);
            (
                object_expr(Vec::new(), fields, |f| format!("&self.{f}")),
                direct.then(|| format!("out.push('{{'); {} out.push('}}');", parts.join(" "))),
            )
        }
        Shape::Newtype => (
            "::serde::Serialize::to_value(&self.0)".to_owned(),
            Some("::serde::Serialize::write_json(&self.0, out)".to_owned()),
        ),
        Shape::Enum(variants) => match &tag {
            None => (
                unit_match(variants, string),
                Some(format!(
                    "out.push_str({});",
                    unit_match(variants, |wire| format!("{:?}", format!("\"{wire}\"")))
                )),
            ),
            Some(tag) => {
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        let head = vec![entry(tag, &string(&v.wire))];
                        match &v.fields {
                            None => format!(
                                "Self::{} => ::serde::Value::Object(::std::vec![{}]),",
                                v.name, head[0]
                            ),
                            Some(fields) => {
                                let binds: Vec<&str> =
                                    fields.iter().map(|f| f.name.as_str()).collect();
                                format!(
                                    "Self::{} {{ {} }} => {},",
                                    v.name,
                                    binds.join(", "),
                                    object_expr(head, fields, str::to_owned)
                                )
                            }
                        }
                    })
                    .collect();
                (format!("match self {{ {} }}", arms.join(" ")), None)
            }
        },
    };
    let write_json = write_json
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

/// Derives the workspace `serde::Deserialize` trait, with a typed `read`.
/// A `default` field's typed slot holds what was read as an `Option`, so
/// `null` and absence both fall to the default, as on the tree path.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Item { name, shape, tag } = match parse_item(input) {
        Ok(x) => x,
        Err(e) => return compile_error(&e),
    };
    if tag.is_some() {
        return compile_error(&format!(
            "serde_derive (offline subset): `tag` is supported on Serialize only; \
             decode `{name}` by hand"
        ));
    }
    let ok = "::std::result::Result::Ok";
    let err = "::std::result::Result::Err";
    let (body, read) = match &shape {
        Shape::Named(fields) => {
            let mut tree = Vec::new();
            let mut slots = Vec::new();
            let mut arms = Vec::new();
            let mut typed = Vec::new();
            for Field {
                name: f, default, ..
            } in fields
            {
                slots.push(format!("let mut f_{f} = ::std::option::Option::None;"));
                arms.push(format!(
                    "{f:?} => ::serde::read_field(r, &mut f_{f}, {name:?}, {f:?})?,"
                ));
                if *default {
                    tree.push(format!("{f}: ::serde::field_or_default(v, {f:?})?"));
                    typed.push(format!("{f}: ::serde::or_default(f_{f})"));
                } else {
                    tree.push(format!(
                        "{f}: ::serde::Deserialize::from_value(::serde::field(v, {name:?}, {f:?})?)?"
                    ));
                    typed.push(format!("{f}: ::serde::required(f_{f}, {name:?}, {f:?})?"));
                }
            }
            (
                format!(
                    "if v.as_object().is_none() {{\n\
                     return {err}(::serde::DeError::expected({name:?}, v));\n\
                     }}\n\
                     {ok}({name} {{ {} }})",
                    tree.join(", ")
                ),
                format!(
                    "let mut seq = ::serde::Reader::object(r)?;\n\
                     {}\n\
                     while let ::std::option::Option::Some(key) = ::serde::Reader::key(r, &mut seq)? {{\n\
                     match &*key {{\n\
                     {}\n\
                     other => return {err}(::serde::DeError::unknown({name:?}, other)),\n\
                     }}\n\
                     }}\n\
                     {ok}({name} {{ {} }})",
                    slots.join(" "),
                    arms.join("\n"),
                    typed.join(", ")
                ),
            )
        }
        Shape::Newtype => (
            format!("{ok}({name}(::serde::Deserialize::from_value(v)?))"),
            format!("{ok}({name}(::serde::Deserialize::read(r)?))"),
        ),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{:?} => {ok}({name}::{}),", v.wire, v.name))
                .collect();
            let arms = arms.join("\n");
            let unknown = format!(
                "other => {err}(::serde::DeError(\
                 ::std::format!(\"unknown variant `{{other}}` of {name}\"))),"
            );
            (
                format!(
                    "match v {{\n\
                     ::serde::Value::String(s) => match s.as_str() {{\n{arms}\n{unknown}\n}},\n\
                     other => {err}(::serde::DeError::expected({name:?}, other)),\n\
                     }}"
                ),
                format!("match &*::serde::Reader::str(r)? {{\n{arms}\n{unknown}\n}}"),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         fn read<'de, R: ::serde::Reader<'de>>(r: &mut R) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n{read}\n}}\n\
         }}"
    )
    .parse()
    .unwrap()
}
