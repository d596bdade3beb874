//! A lightweight recursive-descent parser over the token stream.
//!
//! This is the structural layer between `tokenize` and the lint rules: it
//! groups the flat token stream into *items* (functions, structs, enums,
//! impls, modules, uses, consts, …) with their attributes, bodies, fields
//! and variants, and provides expression-level extraction helpers (path
//! references, method calls, `let` type ascriptions) that
//! rules run over item ranges.
//!
//! It is intentionally not a full Rust parser. Error handling is
//! *recovery, not rejection*: anything the parser cannot classify becomes
//! an [`ItemKind::Other`] item whose span still covers its tokens, so
//! rules scanning item ranges never silently lose coverage. Spans are
//! half-open token-index ranges into the `Scan` the AST was built from,
//! which keeps every diagnostic anchored to an exact line and column.

use crate::tokenize::{Kind, Tok};

/// Classification of a parsed item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, impl method, or trait method; `body` is `None` for
    /// bodyless trait declarations).
    Fn,
    /// `struct` / `union` (fields captured for named structs).
    Struct,
    /// `enum` (variants captured).
    Enum,
    /// `trait` (children are its method declarations).
    Trait,
    /// `impl` block (`name` is the last segment of the `Self` type path;
    /// children are the contained items).
    Impl,
    /// `mod` (inline modules carry children).
    Mod,
    /// `use` declaration.
    Use,
    /// `const` item (`body` is the initializer expression).
    Const,
    /// `static` item (`body` is the initializer expression).
    Static,
    /// `type` alias.
    TypeAlias,
    /// `macro_rules!` definition.
    MacroDef,
    /// Anything else (item-level macro invocations, foreign blocks,
    /// `extern crate`, or unparsable constructs).
    Other,
}

/// One attribute (`#[…]` or `#![…]`) with its identifier soup.
#[derive(Debug)]
pub struct Attr {
    /// Token range `[start, end)` including `#`, brackets, and contents.
    pub start: usize,
    /// Exclusive end.
    pub end: usize,
    /// All identifier tokens inside, in order (`cfg`, `test`, `derive`, …).
    pub idents: Vec<String>,
}

/// A named struct field with the root of its type path.
#[derive(Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Last path segment of the field's type, stripped of references and
    /// generics (`std::collections::BTreeMap<K, V>` → `BTreeMap`); `array`
    /// for `[…]`, `tuple` for `(…)`.
    pub ty_root: String,
}

/// One parsed item.
#[derive(Debug)]
pub struct Item {
    /// Classification.
    pub kind: ItemKind,
    /// Item name; for impls the `Self` type's last path segment; empty
    /// when anonymous or unnamed.
    pub name: String,
    /// Token index of the name, when present. Rules use this to avoid
    /// flagging an item's own definition as a use of the flagged name.
    pub name_tok: Option<usize>,
    /// Directly carries a `#[cfg(test)]`-equivalent attribute. (Negations
    /// like `cfg(not(test))` do not count.)
    pub cfg_test: bool,
    /// Carries `#[derive(.., Copy, ..)]`.
    pub derives_copy: bool,
    /// Attributes, outer and inner.
    pub attrs: Vec<Attr>,
    /// Token range `[start, end)` including attributes.
    pub start: usize,
    /// Exclusive token end.
    pub end: usize,
    /// First token after the attributes.
    pub sig_start: usize,
    /// For `Fn`: the brace-enclosed body, `[open+1, close)`. For
    /// `Const`/`Static`: the initializer, `[after =, ;)`. For
    /// `Struct`/`Enum`: the field/variant braces.
    pub body: Option<(usize, usize)>,
    /// Nested items of `Mod` / `Impl` / `Trait` bodies.
    pub children: Vec<Item>,
    /// For `Enum`: `(name token index, name)` per variant.
    pub variants: Vec<(usize, String)>,
    /// For `Struct`: named fields.
    pub fields: Vec<Field>,
}

impl Item {
    /// End of the item's signature: the token before the body braces, or
    /// the item end when there is no body.
    pub fn sig_end(&self) -> usize {
        match self.body {
            Some((open, _)) => open.saturating_sub(1),
            None => self.end,
        }
    }
}

/// A parsed file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Ast {
    /// Depth-first walk over all items. `in_test` is true when the item or
    /// any ancestor carries `#[cfg(test)]`.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item, bool)) {
        fn go<'a>(items: &'a [Item], in_test: bool, f: &mut impl FnMut(&'a Item, bool)) {
            for it in items {
                let t = in_test || it.cfg_test;
                f(it, t);
                go(&it.children, t, f);
            }
        }
        go(&self.items, false, f);
    }

    /// Finds the first item of `kind` named `name`, anywhere in the tree.
    pub fn find_named(&self, kind: ItemKind, name: &str) -> Option<&Item> {
        fn go<'a>(items: &'a [Item], kind: ItemKind, name: &str) -> Option<&'a Item> {
            for it in items {
                if it.kind == kind && it.name == name {
                    return Some(it);
                }
                if let Some(found) = go(&it.children, kind, name) {
                    return Some(found);
                }
            }
            None
        }
        go(&self.items, kind, name)
    }
}

/// Parses a token stream into an [`Ast`].
pub fn parse(toks: &[Tok]) -> Ast {
    let mut p = Parser { toks, i: 0 };
    Ast {
        items: p.items_until(toks.len()),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn kind_at(&self, i: usize) -> Option<Kind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == Kind::Punct && t.text == s)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == Kind::Ident && t.text == s)
    }

    fn items_until(&mut self, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        while self.i < end {
            let before = self.i;
            out.push(self.item(end));
            if self.i <= before {
                // Defensive: the parser must always make progress.
                self.i = before + 1;
            }
        }
        out
    }

    /// Parses attributes, returning them and whether they contain
    /// `#[cfg(test)]` / `#[derive(Copy)]`.
    fn attributes(&mut self, end: usize) -> (Vec<Attr>, bool, bool) {
        let mut attrs = Vec::new();
        let (mut cfg_test, mut derives_copy) = (false, false);
        while self.i < end && self.is_punct(self.i, "#") {
            let astart = self.i;
            let mut j = self.i + 1;
            if self.is_punct(j, "!") {
                j += 1;
            }
            if !self.is_punct(j, "[") {
                break;
            }
            let mut depth = 0usize;
            let mut idents = Vec::new();
            while j < end {
                match self.text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {
                        if self.kind_at(j) == Some(Kind::Ident) {
                            idents.push(self.toks[j].text.clone());
                        }
                    }
                }
                j += 1;
            }
            let first = idents.first().map(String::as_str);
            if first == Some("cfg")
                && idents.iter().any(|s| s == "test")
                && !idents.iter().any(|s| s == "not")
            {
                cfg_test = true;
            }
            if first == Some("derive") && idents.iter().any(|s| s == "Copy") {
                derives_copy = true;
            }
            attrs.push(Attr {
                start: astart,
                end: j,
                idents,
            });
            self.i = j;
        }
        (attrs, cfg_test, derives_copy)
    }

    fn item(&mut self, end: usize) -> Item {
        let start = self.i;
        let (attrs, cfg_test, derives_copy) = self.attributes(end);
        let sig_start = self.i;
        let mut item = Item {
            kind: ItemKind::Other,
            name: String::new(),
            name_tok: None,
            cfg_test,
            derives_copy,
            attrs,
            start,
            end: sig_start, // fixed up below
            sig_start,
            body: None,
            children: Vec::new(),
            variants: Vec::new(),
            fields: Vec::new(),
        };
        if self.i >= end {
            item.end = self.i;
            return item;
        }

        // Visibility and qualifiers before the defining keyword.
        loop {
            match self.text(self.i) {
                "pub" => {
                    self.i += 1;
                    if self.is_punct(self.i, "(") {
                        self.skip_group("(", ")", end);
                    }
                }
                "default" | "unsafe" | "async" => self.i += 1,
                // `const fn` / `const unsafe fn` — qualifier, not item.
                "const"
                    if self.is_ident(self.i + 1, "fn")
                        || self.is_ident(self.i + 1, "unsafe")
                        || self.is_ident(self.i + 1, "extern")
                        || self.is_ident(self.i + 1, "async") =>
                {
                    self.i += 1
                }
                "extern"
                    if !self.is_ident(self.i + 1, "crate")
                        && self.kind_at(self.i + 1) == Some(Kind::Str) =>
                {
                    // `extern "C" fn` qualifier (foreign *blocks* fall to
                    // Other below because no `fn` follows the ABI string).
                    if self.is_ident(self.i + 2, "fn") {
                        self.i += 2;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }

        match self.text(self.i) {
            "fn" => self.fn_item(&mut item, end),
            "struct" | "union" => self.struct_item(&mut item, end),
            "enum" => self.enum_item(&mut item, end),
            "trait" => self.block_item(&mut item, ItemKind::Trait, end),
            "impl" => self.impl_item(&mut item, end),
            "mod" => self.block_item(&mut item, ItemKind::Mod, end),
            "use" => self.use_item(&mut item, end),
            "const" | "static" => self.const_item(&mut item, end),
            "type" => {
                item.kind = ItemKind::TypeAlias;
                self.i += 1;
                self.take_name(&mut item);
                self.skip_to_semi(end);
            }
            "macro_rules" => {
                item.kind = ItemKind::MacroDef;
                self.i += 1; // macro_rules
                if self.is_punct(self.i, "!") {
                    self.i += 1;
                }
                self.take_name(&mut item);
                self.other_tail(end);
            }
            _ => self.other_tail(end),
        }
        item.end = self.i;
        item
    }

    fn take_name(&mut self, item: &mut Item) {
        if self.kind_at(self.i) == Some(Kind::Ident) {
            item.name = self.toks[self.i].text.clone();
            item.name_tok = Some(self.i);
            self.i += 1;
        }
    }

    /// Consumes a balanced `open … close` group; assumes `open` at `i` (or
    /// scans forward to the first one).
    fn skip_group(&mut self, open: &str, close: &str, end: usize) {
        let mut depth = 0usize;
        while self.i < end {
            let t = self.text(self.i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Consumes a generic parameter list; assumes `<` at `i`. Handles the
    /// shift-token spellings (`>>` closes two levels) and nested groups.
    fn skip_angles(&mut self, end: usize) {
        let mut depth = 0i32;
        while self.i < end {
            match self.text(self.i) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ">=" => depth -= 1,
                ">>=" => depth -= 2,
                "(" => {
                    self.skip_group("(", ")", end);
                    continue;
                }
                "[" => {
                    self.skip_group("[", "]", end);
                    continue;
                }
                "{" => {
                    self.skip_group("{", "}", end);
                    continue;
                }
                ";" => return, // runaway safety: generics never contain `;`
                _ => {}
            }
            self.i += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    /// Consumes a `{ … }` body; assumes `{` at `i`. Returns the inner
    /// half-open range.
    fn brace_body(&mut self, end: usize) -> (usize, usize) {
        let open = self.i;
        let mut depth = 0usize;
        while self.i < end {
            match self.text(self.i) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.i += 1;
                        return (open + 1, self.i - 1);
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
        (open + 1, end)
    }

    /// Consumes to the first `;` at delimiter depth 0.
    fn skip_to_semi(&mut self, end: usize) {
        let mut depth = 0i64;
        while self.i < end {
            match self.text(self.i) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                ";" if depth <= 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Fallback item tail: consume to a top-level `;` or through one
    /// balanced brace group (mirrors how `#[cfg(test)]` item extents were
    /// computed in the token-based linter).
    fn other_tail(&mut self, end: usize) {
        let mut depth = 0i64;
        let mut saw_brace = false;
        while self.i < end {
            match self.text(self.i) {
                "{" | "(" | "[" => {
                    if self.text(self.i) == "{" {
                        saw_brace = true;
                    }
                    depth += 1;
                }
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 && saw_brace && self.text(self.i) == "}" {
                        self.i += 1;
                        return;
                    }
                }
                ";" if depth <= 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    fn fn_item(&mut self, item: &mut Item, end: usize) {
        item.kind = ItemKind::Fn;
        self.i += 1; // fn
        self.take_name(item);
        if self.is_punct(self.i, "<") {
            self.skip_angles(end);
        }
        if self.is_punct(self.i, "(") {
            self.skip_group("(", ")", end);
        }
        // Return type and where clause: scan for `{` or `;` outside
        // generics and nested groups.
        let mut angle = 0i32;
        while self.i < end {
            match self.text(self.i) {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle = (angle - 1).max(0),
                ">>" => angle = (angle - 2).max(0),
                "(" => {
                    self.skip_group("(", ")", end);
                    continue;
                }
                "[" => {
                    self.skip_group("[", "]", end);
                    continue;
                }
                ";" if angle == 0 => {
                    self.i += 1;
                    return; // bodyless trait method
                }
                "{" if angle == 0 => {
                    item.body = Some(self.brace_body(end));
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    fn struct_item(&mut self, item: &mut Item, end: usize) {
        item.kind = ItemKind::Struct;
        self.i += 1; // struct / union
        self.take_name(item);
        if self.is_punct(self.i, "<") {
            self.skip_angles(end);
        }
        while self.i < end {
            match self.text(self.i) {
                ";" => {
                    self.i += 1; // unit struct or tuple-struct terminator
                    return;
                }
                "(" => {
                    self.skip_group("(", ")", end);
                    continue;
                }
                "<" => {
                    self.skip_angles(end);
                    continue;
                }
                "{" => {
                    let body = self.brace_body(end);
                    item.body = Some(body);
                    item.fields = self.parse_fields(body.0, body.1);
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Parses named fields inside a struct body range.
    fn parse_fields(&self, bs: usize, be: usize) -> Vec<Field> {
        let mut out = Vec::new();
        let mut j = bs;
        while j < be {
            // Skip attributes on the field.
            while j < be && self.is_punct(j, "#") && self.is_punct(j + 1, "[") {
                let mut d = 0usize;
                j += 1;
                while j < be {
                    if self.is_punct(j, "[") {
                        d += 1;
                    } else if self.is_punct(j, "]") {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j < be && self.is_ident(j, "pub") {
                j += 1;
                if self.is_punct(j, "(") {
                    let mut d = 0usize;
                    while j < be {
                        if self.is_punct(j, "(") {
                            d += 1;
                        } else if self.is_punct(j, ")") {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
            if j < be && self.kind_at(j) == Some(Kind::Ident) && self.is_punct(j + 1, ":") {
                let name = self.toks[j].text.clone();
                j += 2;
                let tstart = j;
                let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
                while j < be {
                    match self.text(j) {
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "," if angle <= 0 && paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.push(Field {
                    name,
                    ty_root: type_root(&self.toks[tstart..j]),
                });
                if j < be {
                    j += 1; // the comma
                }
            } else {
                j += 1;
            }
        }
        out
    }

    fn enum_item(&mut self, item: &mut Item, end: usize) {
        item.kind = ItemKind::Enum;
        self.i += 1; // enum
        self.take_name(item);
        if self.is_punct(self.i, "<") {
            self.skip_angles(end);
        }
        while self.i < end {
            match self.text(self.i) {
                ";" => {
                    self.i += 1;
                    return;
                }
                "<" => {
                    self.skip_angles(end);
                    continue;
                }
                "{" => {
                    let (bs, be) = self.brace_body(end);
                    item.body = Some((bs, be));
                    item.variants = self.parse_variants(bs, be);
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Parses variant names inside an enum body range.
    fn parse_variants(&self, bs: usize, be: usize) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let mut j = bs;
        loop {
            // Skip attributes before the variant.
            while j < be && self.is_punct(j, "#") && self.is_punct(j + 1, "[") {
                let mut d = 0usize;
                j += 1;
                while j < be {
                    if self.is_punct(j, "[") {
                        d += 1;
                    } else if self.is_punct(j, "]") {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j >= be {
                return out;
            }
            if self.kind_at(j) == Some(Kind::Ident) {
                out.push((j, self.toks[j].text.clone()));
            }
            // Skip to the variant-separating comma at depth 0.
            let mut depth = 0i64;
            while j < be {
                match self.text(j) {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    "," if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= be {
                return out;
            }
        }
    }

    /// `trait Name … { children }` and `mod name { children }` / `mod name;`.
    fn block_item(&mut self, item: &mut Item, kind: ItemKind, end: usize) {
        item.kind = kind;
        self.i += 1; // trait / mod
        self.take_name(item);
        while self.i < end {
            match self.text(self.i) {
                ";" => {
                    self.i += 1; // `mod name;`
                    return;
                }
                "<" => {
                    self.skip_angles(end);
                    continue;
                }
                "(" => {
                    self.skip_group("(", ")", end);
                    continue;
                }
                "[" => {
                    self.skip_group("[", "]", end);
                    continue;
                }
                "{" => {
                    let (bs, be) = self.brace_body(end);
                    item.body = Some((bs, be));
                    let save = self.i;
                    self.i = bs;
                    item.children = self.items_until(be);
                    self.i = save;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    fn impl_item(&mut self, item: &mut Item, end: usize) {
        item.kind = ItemKind::Impl;
        self.i += 1; // impl
        if self.is_punct(self.i, "<") {
            self.skip_angles(end);
        }
        // `impl Trait for Type` / `impl Type`: the last identifier seen
        // before the body at depth 0 is the Self type's path root.
        let mut last_ident: Option<usize> = None;
        while self.i < end {
            match self.text(self.i) {
                "{" => break,
                ";" => {
                    self.i += 1;
                    return;
                }
                "<" => {
                    self.skip_angles(end);
                    continue;
                }
                "(" => {
                    self.skip_group("(", ")", end);
                    continue;
                }
                "where" => {
                    // Bounds may mention more types; the Self type is fixed.
                    while self.i < end && !self.is_punct(self.i, "{") {
                        if self.is_punct(self.i, "<") {
                            self.skip_angles(end);
                        } else {
                            self.i += 1;
                        }
                    }
                    break;
                }
                _ => {
                    if self.kind_at(self.i) == Some(Kind::Ident) {
                        last_ident = Some(self.i);
                    }
                    self.i += 1;
                }
            }
        }
        if let Some(n) = last_ident {
            item.name = self.toks[n].text.clone();
            item.name_tok = Some(n);
        }
        if self.is_punct(self.i, "{") {
            let (bs, be) = self.brace_body(end);
            item.body = Some((bs, be));
            let save = self.i;
            self.i = bs;
            item.children = self.items_until(be);
            self.i = save;
        }
    }

    fn use_item(&mut self, item: &mut Item, end: usize) {
        item.kind = ItemKind::Use;
        self.skip_to_semi(end);
    }

    fn const_item(&mut self, item: &mut Item, end: usize) {
        item.kind = if self.text(self.i) == "static" {
            ItemKind::Static
        } else {
            ItemKind::Const
        };
        self.i += 1; // const / static
        if self.is_ident(self.i, "mut") {
            self.i += 1;
        }
        self.take_name(item);
        // Type, then `= init ;`.
        let mut depth = 0i64;
        while self.i < end {
            match self.text(self.i) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "<" if depth == 0 => {
                    self.skip_angles(end);
                    continue;
                }
                ";" if depth <= 0 => {
                    self.i += 1;
                    return; // bodyless (trait const decl)
                }
                "=" if depth == 0 => {
                    self.i += 1;
                    let init_start = self.i;
                    self.skip_to_semi(end);
                    let semi = self.i.saturating_sub(1);
                    item.body = Some((init_start, semi.max(init_start)));
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }
}

/// Root of a type: last path segment of the first path, stripped of
/// references, lifetimes and qualifiers; `array` / `tuple` for the
/// structural types.
pub fn type_root(toks: &[Tok]) -> String {
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            Kind::Lifetime => k += 1,
            Kind::Punct if matches!(t.text.as_str(), "&" | "&&" | "*") => k += 1,
            Kind::Punct if t.text == "[" => return "array".to_string(),
            Kind::Punct if t.text == "(" => return "tuple".to_string(),
            Kind::Ident if matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const") => k += 1,
            Kind::Ident => {
                let mut last = t.text.clone();
                let mut j = k + 1;
                while j + 1 < toks.len()
                    && toks[j].kind == Kind::Punct
                    && toks[j].text == "::"
                    && toks[j + 1].kind == Kind::Ident
                {
                    last = toks[j + 1].text.clone();
                    j += 2;
                }
                return last;
            }
            _ => return String::new(),
        }
    }
    String::new()
}

// ---------------------------------------------------------------------------
// Expression-level extraction helpers.
// ---------------------------------------------------------------------------

/// Calls `f(i)` for every token index in `[range.0, range.1)` that is not
/// inside an attribute (`#[…]` / `#![…]`). Rules use this so numbers and
/// names inside attribute token-trees can never yield findings.
pub fn each_code_tok(toks: &[Tok], range: (usize, usize), mut f: impl FnMut(usize)) {
    let mut i = range.0;
    while i < range.1.min(toks.len()) {
        if toks[i].kind == Kind::Punct && toks[i].text == "#" {
            let mut j = i + 1;
            if j < range.1 && toks[j].text == "!" {
                j += 1;
            }
            if j < range.1 && toks[j].text == "[" {
                let mut d = 0usize;
                while j < range.1 {
                    if toks[j].text == "[" {
                        d += 1;
                    } else if toks[j].text == "]" {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        f(i);
        i += 1;
    }
}

/// Collects the non-attribute token indices of a range.
pub fn code_indices(toks: &[Tok], range: (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    each_code_tok(toks, range, |i| out.push(i));
    out
}

/// One path expression reference: `std::time::Instant::now`, `HashMap`,
/// `vec` (of `vec![…]`), …
#[derive(Debug)]
pub struct PathRef {
    /// `(token index, text)` per segment.
    pub segs: Vec<(usize, String)>,
    /// Followed by `(` — a call.
    pub is_call: bool,
    /// Followed by `!` — a macro invocation.
    pub is_macro: bool,
}

impl PathRef {
    /// Last segment's text.
    pub fn last(&self) -> &str {
        self.segs.last().map(|(_, s)| s.as_str()).unwrap_or("")
    }

    /// Last segment's token index.
    pub fn last_tok(&self) -> usize {
        self.segs.last().map(|(i, _)| *i).unwrap_or(0)
    }

    /// Index of the first segment equal to `name`, if any.
    pub fn seg_named(&self, name: &str) -> Option<usize> {
        self.segs.iter().position(|(_, s)| s == name)
    }

    /// True when segments `a::b` appear consecutively in the path.
    pub fn has_pair(&self, a: &str, b: &str) -> Option<usize> {
        self.segs
            .windows(2)
            .find(|w| w[0].1 == a && w[1].1 == b)
            .map(|w| w[1].0)
    }
}

/// Extracts path references from a token range, skipping attribute
/// contents. Identifiers preceded by `.` (method/field names) are not path
/// starts; turbofish segments are traversed.
pub fn paths_in(toks: &[Tok], range: (usize, usize)) -> Vec<PathRef> {
    let idx = code_indices(toks, range);
    let mut out = Vec::new();
    let mut p = 0usize;
    while p < idx.len() {
        let k = idx[p];
        let prev_dot =
            p > 0 && toks[idx[p - 1]].kind == Kind::Punct && toks[idx[p - 1]].text == ".";
        if toks[k].kind == Kind::Ident && !prev_dot {
            let mut segs = vec![(k, toks[k].text.clone())];
            let mut q = p + 1;
            loop {
                if q + 1 < idx.len()
                    && toks[idx[q]].text == "::"
                    && toks[idx[q + 1]].kind == Kind::Ident
                {
                    segs.push((idx[q + 1], toks[idx[q + 1]].text.clone()));
                    q += 2;
                } else if q + 1 < idx.len()
                    && toks[idx[q]].text == "::"
                    && matches!(toks[idx[q + 1]].text.as_str(), "<" | "<<")
                {
                    // Turbofish: skip the angle group, keep following the path.
                    let mut d = 0i32;
                    let mut r = q + 1;
                    while r < idx.len() {
                        match toks[idx[r]].text.as_str() {
                            "<" => d += 1,
                            "<<" => d += 2,
                            ">" => d -= 1,
                            ">>" => d -= 2,
                            ">=" => d -= 1,
                            _ => {}
                        }
                        r += 1;
                        if d <= 0 {
                            break;
                        }
                    }
                    q = r;
                } else {
                    break;
                }
            }
            let is_call = q < idx.len() && toks[idx[q]].text == "(";
            let is_macro = q < idx.len() && toks[idx[q]].text == "!";
            out.push(PathRef {
                segs,
                is_call,
                is_macro,
            });
            p = q;
        } else {
            p += 1;
        }
    }
    out
}

/// One `.name(…)` method call with a best-effort receiver analysis.
#[derive(Debug)]
pub struct MethodCall {
    /// Token index of the method name.
    pub tok: usize,
    /// Method name.
    pub name: String,
    /// Leftmost identifier of a simple receiver chain (`self.spec.clone()`
    /// → `self`); `None` when the receiver is a call result or complex
    /// expression.
    pub recv_root: Option<String>,
    /// Field nearest the method on a `root.field.method()` chain.
    pub recv_field: Option<String>,
}

/// Extracts method calls from a token range.
pub fn method_calls_in(toks: &[Tok], range: (usize, usize)) -> Vec<MethodCall> {
    let idx = code_indices(toks, range);
    let mut out = Vec::new();
    for p in 0..idx.len() {
        if toks[idx[p]].text != "." || toks[idx[p]].kind != Kind::Punct {
            continue;
        }
        let Some(&name_k) = idx.get(p + 1) else {
            continue;
        };
        if toks[name_k].kind != Kind::Ident {
            continue;
        }
        // `(` directly or after a turbofish.
        let mut after = p + 2;
        if idx.get(after).is_some_and(|&k| toks[k].text == "::")
            && idx
                .get(after + 1)
                .is_some_and(|&k| matches!(toks[k].text.as_str(), "<" | "<<"))
        {
            let mut d = 0i32;
            let mut r = after + 1;
            while r < idx.len() {
                match toks[idx[r]].text.as_str() {
                    "<" => d += 1,
                    "<<" => d += 2,
                    ">" => d -= 1,
                    ">>" => d -= 2,
                    _ => {}
                }
                r += 1;
                if d <= 0 {
                    break;
                }
            }
            after = r;
        }
        if idx.get(after).is_none_or(|&k| toks[k].text != "(") {
            continue;
        }
        let (recv_root, recv_field) = receiver_chain(toks, &idx, p);
        out.push(MethodCall {
            tok: name_k,
            name: toks[name_k].text.clone(),
            recv_root,
            recv_field,
        });
    }
    out
}

/// Walks left from the `.` at `idx[p]` over a simple `root(.field)*` chain.
/// Returns `(root, nearest field)`; `(None, None)` for complex receivers.
fn receiver_chain(toks: &[Tok], idx: &[usize], p: usize) -> (Option<String>, Option<String>) {
    let mut names: Vec<String> = Vec::new();
    let mut q = p;
    loop {
        if q == 0 {
            break;
        }
        let t = &toks[idx[q - 1]];
        if t.kind == Kind::Ident {
            names.push(t.text.clone());
            if q >= 2 && toks[idx[q - 2]].kind == Kind::Punct && toks[idx[q - 2]].text == "." {
                q -= 2;
                continue;
            }
            // A `)`/`]`/`::` before the chain start means the root is a call
            // result, index, or path expression — not a simple chain.
            if q >= 2 && matches!(toks[idx[q - 2]].text.as_str(), ")" | "]" | "::") {
                return (None, None);
            }
            break;
        }
        return (None, None);
    }
    if names.is_empty() {
        return (None, None);
    }
    let root = names.last().cloned();
    let field = if names.len() >= 2 {
        Some(names[0].clone())
    } else {
        None
    };
    (root, field)
}

/// `let` type ascriptions in a range: `(name, type root)` pairs from
/// `let name: Type = …` / `let mut name: Type;`.
pub fn let_types_in(toks: &[Tok], range: (usize, usize)) -> Vec<(String, String)> {
    let idx = code_indices(toks, range);
    let mut out = Vec::new();
    let mut p = 0usize;
    while p < idx.len() {
        if toks[idx[p]].kind == Kind::Ident && toks[idx[p]].text == "let" {
            let mut q = p + 1;
            if idx.get(q).is_some_and(|&k| toks[k].text == "mut") {
                q += 1;
            }
            if idx.get(q).is_some_and(|&k| toks[k].kind == Kind::Ident)
                && idx.get(q + 1).is_some_and(|&k| toks[k].text == ":")
            {
                let name = toks[idx[q]].text.clone();
                let tstart = q + 2;
                let (mut angle, mut depth) = (0i32, 0i64);
                let mut r = tstart;
                while r < idx.len() {
                    match toks[idx[r]].text.as_str() {
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "=" | ";" if angle <= 0 && depth == 0 => break,
                        _ => {}
                    }
                    if depth < 0 {
                        break;
                    }
                    r += 1;
                }
                let ty_toks: Vec<Tok> = idx[tstart..r.min(idx.len())]
                    .iter()
                    .map(|&k| toks[k].clone())
                    .collect();
                out.push((name, type_root(&ty_toks)));
                p = r;
                continue;
            }
        }
        p += 1;
    }
    out
}

/// Typed parameters of a fn signature range: `(name, type root)` pairs.
pub fn param_types_in(toks: &[Tok], sig: (usize, usize)) -> Vec<(String, String)> {
    // Find the parameter parens: first `(` in the signature range.
    let idx = code_indices(toks, sig);
    let Some(open) = idx.iter().position(|&k| toks[k].text == "(") else {
        return Vec::new();
    };
    let mut depth = 0i64;
    let mut close = idx.len();
    for (pos, &k) in idx.iter().enumerate().skip(open) {
        match toks[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    close = pos;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    let mut p = open + 1;
    while p < close {
        // `name: Type` at paren depth 1 — scan each comma-separated param.
        if toks[idx[p]].kind == Kind::Ident && idx.get(p + 1).is_some_and(|&k| toks[k].text == ":")
        {
            let name = toks[idx[p]].text.clone();
            let tstart = p + 2;
            let (mut angle, mut depth) = (0i32, 0i64);
            let mut r = tstart;
            while r < close {
                match toks[idx[r]].text.as_str() {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "," if angle <= 0 && depth == 0 => break,
                    _ => {}
                }
                r += 1;
            }
            let ty_toks: Vec<Tok> = idx[tstart..r].iter().map(|&k| toks[k].clone()).collect();
            out.push((name, type_root(&ty_toks)));
            p = r + 1;
        } else {
            // Skip over pattern params (`&self`, `(a, b): …`, `mut x: …`).
            if toks[idx[p]].text == "mut" {
                p += 1;
                continue;
            }
            let mut depth = 0i64;
            while p < close {
                match toks[idx[p]].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "," if depth == 0 => {
                        p += 1;
                        break;
                    }
                    ":" if depth == 0 => break, // pattern done, type follows
                    _ => {}
                }
                p += 1;
            }
            if p < close && toks[idx[p]].text == ":" {
                // Untracked pattern binding; skip its type to the comma.
                let mut depth = 0i64;
                let mut angle = 0i32;
                p += 1;
                while p < close {
                    match toks[idx[p]].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "," if angle <= 0 && depth == 0 => {
                            p += 1;
                            break;
                        }
                        _ => {}
                    }
                    p += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::scan;

    fn ast_of(src: &str) -> (Vec<Tok>, Ast) {
        let s = scan(src);
        let ast = parse(&s.tokens);
        (s.tokens, ast)
    }

    #[test]
    fn items_are_classified_and_named() {
        let (_, ast) = ast_of(
            "use std::collections::BTreeMap;\n\
             const N: usize = 4;\n\
             struct Foo { a: u32 }\n\
             enum E { A, B(u8), C { x: u8 } }\n\
             trait T { fn m(&self); }\n\
             impl T for Foo { fn m(&self) {} }\n\
             mod inner { pub fn f() {} }\n\
             fn main() { let x = 1; }\n",
        );
        let kinds: Vec<(ItemKind, &str)> = ast
            .items
            .iter()
            .map(|i| (i.kind, i.name.as_str()))
            .collect();
        assert_eq!(
            kinds,
            [
                (ItemKind::Use, ""),
                (ItemKind::Const, "N"),
                (ItemKind::Struct, "Foo"),
                (ItemKind::Enum, "E"),
                (ItemKind::Trait, "T"),
                (ItemKind::Impl, "Foo"),
                (ItemKind::Mod, "inner"),
                (ItemKind::Fn, "main"),
            ]
        );
        assert_eq!(ast.items[3].variants.len(), 3);
        assert_eq!(ast.items[3].variants[1].1, "B");
        assert_eq!(ast.items[5].children.len(), 1);
        assert_eq!(ast.items[5].children[0].kind, ItemKind::Fn);
        assert_eq!(ast.items[6].children[0].name, "f");
    }

    #[test]
    fn cfg_test_and_derive_copy_attrs() {
        let (_, ast) = ast_of(
            "#[cfg(test)]\nmod tests { fn t() {} }\n\
             #[derive(Clone, Copy, Debug)]\nstruct P { a: u64 }\n\
             #[cfg(not(test))]\nfn prod() {}",
        );
        assert!(ast.items[0].cfg_test);
        assert!(ast.items[1].derives_copy);
        assert!(!ast.items[2].cfg_test);
    }

    #[test]
    fn struct_fields_with_type_roots() {
        let (_, ast) = ast_of(
            "pub struct S<'a, T> {\n\
                 pub a: std::collections::BTreeMap<u32, Vec<T>>,\n\
                 b: &'a mut Vec<u8>,\n\
                 #[allow(dead_code)]\n\
                 c: [u8; 4],\n\
                 d: (u8, u8),\n\
             }",
        );
        let f: Vec<(&str, &str)> = ast.items[0]
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty_root.as_str()))
            .collect();
        assert_eq!(
            f,
            [
                ("a", "BTreeMap"),
                ("b", "Vec"),
                ("c", "array"),
                ("d", "tuple")
            ]
        );
    }

    #[test]
    fn fn_bodies_and_trait_decls() {
        let (toks, ast) = ast_of(
            "fn f(x: u32) -> Vec<u8> { let y = x; Vec::new() }\n\
             trait T { fn decl(&self) -> u32; fn with_body(&self) -> u32 { 1 } }",
        );
        let body = ast.items[0].body.expect("fn body");
        assert_eq!(toks[body.0].text, "let");
        assert!(ast.items[1].children[0].body.is_none());
        assert!(ast.items[1].children[1].body.is_some());
    }

    #[test]
    fn impl_self_type_name_with_generics() {
        let (_, ast) = ast_of(
            "impl<O: NetObserver> Sim<O> { fn f(&self) {} }\n\
             impl fmt::Display for Finding { fn fmt(&self) {} }\n\
             impl Default for Port { fn default() -> Self { todo_stub() } }",
        );
        assert_eq!(ast.items[0].name, "Sim");
        assert_eq!(ast.items[1].name, "Finding");
        assert_eq!(ast.items[2].name, "Port");
    }

    #[test]
    fn const_initializer_range() {
        let (toks, ast) = ast_of("const X: [u8; 2] = [1, 2];\nstatic S: &str = \"x\";");
        let init = ast.items[0].body.expect("const init");
        assert_eq!(toks[init.0].text, "[");
        assert_eq!(ast.items[1].kind, ItemKind::Static);
    }

    #[test]
    fn paths_and_calls_extracted() {
        let (toks, ast) = ast_of("fn f() { let t = std::time::Instant::now(); vec![1]; }");
        let body = ast.items[0].body.expect("body");
        let paths = paths_in(&toks, body);
        let inst = paths
            .iter()
            .find(|p| p.seg_named("Instant").is_some())
            .expect("Instant path");
        assert_eq!(
            inst.segs
                .iter()
                .map(|(_, s)| s.as_str())
                .collect::<Vec<_>>(),
            ["std", "time", "Instant", "now"]
        );
        assert!(inst.is_call);
        let v = paths.iter().find(|p| p.last() == "vec").expect("vec!");
        assert!(v.is_macro);
    }

    #[test]
    fn turbofish_paths_are_followed() {
        let (toks, ast) = ast_of("fn f() { let v = Vec::<u8>::with_capacity(4); }");
        let body = ast.items[0].body.expect("body");
        let paths = paths_in(&toks, body);
        let v = paths
            .iter()
            .find(|p| p.seg_named("Vec").is_some())
            .expect("Vec path");
        assert_eq!(v.last(), "with_capacity");
        assert!(v.is_call);
    }

    #[test]
    fn method_calls_with_receiver_chains() {
        let (toks, ast) =
            ast_of("fn f(&self) { self.spec.clone(); x.clone(); foo().clone(); arr[0].clone(); }");
        let body = ast.items[0].body.expect("body");
        let calls = method_calls_in(&toks, body);
        assert_eq!(calls.len(), 4);
        assert_eq!(calls[0].recv_root.as_deref(), Some("self"));
        assert_eq!(calls[0].recv_field.as_deref(), Some("spec"));
        assert_eq!(calls[1].recv_root.as_deref(), Some("x"));
        assert_eq!(calls[1].recv_field, None);
        assert_eq!(calls[2].recv_root, None);
        assert_eq!(calls[3].recv_root, None);
    }

    #[test]
    fn let_and_param_types() {
        let (toks, ast) = ast_of(
            "fn f(m: &HashMap<u32, u32>, n: usize) { let x: BTreeMap<u8, u8> = BTreeMap::new(); }",
        );
        let item = &ast.items[0];
        let params = param_types_in(&toks, (item.sig_start, item.sig_end()));
        assert_eq!(
            params,
            [
                ("m".to_string(), "HashMap".to_string()),
                ("n".to_string(), "usize".to_string())
            ]
        );
        let lets = let_types_in(&toks, item.body.expect("body"));
        assert_eq!(lets, [("x".to_string(), "BTreeMap".to_string())]);
    }

    #[test]
    fn attrs_inside_bodies_are_skipped_by_each_code_tok() {
        let (toks, ast) = ast_of("fn f() { #[allow(clippy::all)] let x = 84; }");
        let body = ast.items[0].body.expect("body");
        let mut texts = Vec::new();
        each_code_tok(&toks, body, |i| texts.push(toks[i].text.clone()));
        assert!(!texts.iter().any(|t| t == "clippy"));
        assert!(texts.iter().any(|t| t == "84"));
    }

    #[test]
    fn shebang_file_parses() {
        let (_, ast) = ast_of("#!/usr/bin/env x\nfn main() {}");
        assert_eq!(ast.items[0].kind, ItemKind::Fn);
        assert_eq!(ast.items[0].name, "main");
    }

    #[test]
    fn nested_mod_walk_inherits_test_flag() {
        let (_, ast) =
            ast_of("#[cfg(test)]\nmod tests { mod inner { fn helper() {} } }\nfn prod() {}");
        let mut seen = Vec::new();
        ast.walk(&mut |it, in_test| {
            if it.kind == ItemKind::Fn {
                seen.push((it.name.clone(), in_test));
            }
        });
        assert_eq!(
            seen,
            [("helper".to_string(), true), ("prod".to_string(), false)]
        );
    }

    #[test]
    fn where_clause_and_return_generics_do_not_confuse_fn_body() {
        let (toks, ast) = ast_of(
            "fn f<T>(x: T) -> BTreeMap<T, Vec<u8>> where T: Ord + Into<Vec<u8>> { BTreeMap::new() }",
        );
        let body = ast.items[0].body.expect("body");
        assert_eq!(toks[body.0].text, "BTreeMap");
    }

    #[test]
    fn unparsable_items_still_cover_their_tokens() {
        let (_, ast) = ast_of("extern \"C\" { fn ffi(); }\nmy_macro!{ stuff }\nfn f() {}");
        // Every token is covered by some item span.
        let last = ast.items.last().expect("items");
        assert_eq!(last.kind, ItemKind::Fn);
        let mut covered_to = 0usize;
        for it in &ast.items {
            assert!(it.start <= covered_to, "gap before item {it:?}");
            covered_to = covered_to.max(it.end);
        }
    }
}
