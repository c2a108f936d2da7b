//! A recursive-descent parser for the Rust subset this workspace uses,
//! over [`crate::lexer`] tokens, producing [`crate::ast`] trees.
//!
//! Scope: everything the workspace's `src/` trees contain — items (fns,
//! structs, enums, traits, impls, consts, statics, modules, extern
//! blocks, item macros) with their generic parameters, bounds and where
//! clauses, full expression grammar with precedence climbing, patterns
//! (or/at/range/slice/struct), declared types with generic args,
//! `let`-`else`, closures, and macro calls (args parsed as expressions
//! when the token tree is expression-shaped, otherwise every expression
//! recovered from it). Every type the source names is kept in the tree.
//! Deliberately out of scope, because no file here needs them: labeled
//! loops/breaks, `async`, qualified trait bounds in expression position
//! beyond `<T as Trait>::x`.
//!
//! Error handling: hard `Err` with line and message. The workspace
//! self-parse test (`tests/self_parse.rs`) holds the parser to zero
//! errors over every `.rs` file, so a construct drifting out of the
//! subset fails CI loudly instead of silently blinding every rule.

use crate::ast::{
    Arm, Attr, BinOp, Block, Expr, ExprKind, Field, FnDef, Item, ItemKind, Meta, Param, Pat,
    SourceFile, Stmt, Ty, Variant,
};
use crate::lexer::{lex, Lexed, Token, TokenKind};

/// A parse failure, fatal for the file.
#[derive(Clone, Debug)]
pub struct ParseError {
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Parses a whole source file.
pub fn parse_file(src: &str) -> Result<SourceFile, ParseError> {
    parse_lexed(&lex(src))
}

/// Parses an already-lexed file (the lint pass lexes each file once and
/// reads pragmas from the same [`Lexed`]).
pub fn parse_lexed(lexed: &Lexed) -> Result<SourceFile, ParseError> {
    let mut p = Parser {
        t: &lexed.tokens,
        pos: 0,
        half_gt: false,
        generics: Vec::new(),
    };
    let items = p.parse_items(false)?;
    if p.pos < p.t.len() {
        return Err(p.err("unexpected token after last item"));
    }
    Ok(SourceFile { items })
}

type PResult<T> = Result<T, ParseError>;

/// Expression parsing restrictions, threaded down the precedence ladder.
#[derive(Clone, Copy)]
struct Restr {
    /// In `if`/`while`/`for`/`match` head position a `{` after a path is
    /// the body, not a struct literal.
    no_struct: bool,
}

const FREE: Restr = Restr { no_struct: false };

struct Parser<'a> {
    t: &'a [Token],
    pos: usize,
    /// A `>>` token half-consumed as the inner `>` of nested generics.
    half_gt: bool,
    /// The types named by the generic parameters, bounds and where
    /// clause of the item being parsed (see [`Item::generics`]).
    generics: Vec<Ty>,
}

impl<'a> Parser<'a> {
    // ---- token cursor ---------------------------------------------------

    fn kind(&self) -> Option<&'a TokenKind> {
        self.t.get(self.pos).map(|t| &t.kind)
    }

    fn kind_at(&self, off: usize) -> Option<&'a TokenKind> {
        self.t.get(self.pos + off).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.t
            .get(self.pos)
            .or_else(|| self.t.last())
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
        self.half_gt = false;
    }

    fn save(&self) -> (usize, bool) {
        (self.pos, self.half_gt)
    }

    fn restore(&mut self, s: (usize, bool)) {
        self.pos = s.0;
        self.half_gt = s.1;
    }

    fn err(&self, msg: &str) -> ParseError {
        let found = match self.kind() {
            Some(k) => format!("{k:?}"),
            None => "end of file".to_string(),
        };
        ParseError {
            line: self.line(),
            msg: format!("{msg} (found {found})"),
        }
    }

    fn check_punct(&self, c: char) -> bool {
        !self.half_gt && matches!(self.kind(), Some(TokenKind::Punct(p)) if *p == c)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.check_punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> PResult<()> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{c}`")))
        }
    }

    fn check_op(&self, op: &str) -> bool {
        !self.half_gt && matches!(self.kind(), Some(TokenKind::Op(o)) if *o == op)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if self.check_op(op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn check_kw(&self, kw: &str) -> bool {
        !self.half_gt && matches!(self.kind(), Some(TokenKind::Ident(s)) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.check_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.kind() {
            Some(TokenKind::Ident(s)) if !self.half_gt => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// One `>` in type/generics position. `>>` is split: the first call
    /// half-consumes it, the second finishes it.
    fn check_gt(&self) -> bool {
        matches!(
            self.kind(),
            Some(TokenKind::Punct('>') | TokenKind::Op(">>"))
        )
    }

    fn bump_gt(&mut self) -> PResult<()> {
        match self.kind() {
            Some(TokenKind::Punct('>')) => {
                self.bump();
                Ok(())
            }
            Some(TokenKind::Op(">>")) if !self.half_gt => {
                self.half_gt = true;
                Ok(())
            }
            Some(TokenKind::Op(">>")) => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err("expected `>`")),
        }
    }

    // ---- shared skippers ------------------------------------------------

    /// Skips a balanced delimiter run starting at the current open
    /// delimiter.
    fn skip_balanced(&mut self) -> PResult<()> {
        let (open, close) = match self.kind() {
            Some(TokenKind::Punct('(')) => ('(', ')'),
            Some(TokenKind::Punct('[')) => ('[', ']'),
            Some(TokenKind::Punct('{')) => ('{', '}'),
            _ => return Err(self.err("expected `(`, `[`, or `{`")),
        };
        let mut depth = 0usize;
        loop {
            match self.kind() {
                None => return Err(self.err("unterminated delimiter")),
                Some(TokenKind::Punct(p)) if *p == open => depth += 1,
                Some(TokenKind::Punct(p)) if *p == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return Ok(());
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// The index of the delimiter closing the one at the cursor.
    fn closing(&mut self) -> PResult<usize> {
        let start = self.save();
        self.skip_balanced()?;
        let end = self.pos - 1;
        self.restore(start);
        Ok(end)
    }

    /// `<'a, T: Bound = Default, const N: usize>` if present: the types
    /// each parameter names go to [`Parser::generics`].
    fn parse_generic_params(&mut self) -> PResult<()> {
        if !self.eat_punct('<') {
            return Ok(());
        }
        loop {
            if self.check_gt() {
                return self.bump_gt();
            }
            self.parse_attrs()?;
            if matches!(self.kind(), Some(TokenKind::Lifetime(_))) {
                self.bump();
                if self.eat_punct(':') {
                    self.parse_bounds()?; // lifetimes only
                }
            } else if self.eat_kw("const") {
                self.expect_ident()?;
                self.expect_punct(':')?;
                let ty = self.parse_ty()?;
                self.generics.push(ty);
                if self.eat_punct('=') {
                    let default = self.parse_const_arg()?;
                    self.generics.push(default);
                }
            } else {
                self.expect_ident()?;
                if self.eat_punct(':') {
                    let bounds = self.parse_bounds()?;
                    self.generics.extend(bounds);
                }
                if self.eat_punct('=') {
                    let default = self.parse_ty()?;
                    self.generics.push(default);
                }
            }
            if !self.eat_punct(',') && !self.check_gt() {
                return Err(self.err("expected `,` or `>` in generic parameters"));
            }
        }
    }

    /// A `where` clause if present, up to the `{`, `;` or `=` after it:
    /// bounded types and their bounds go to [`Parser::generics`].
    fn parse_where(&mut self) -> PResult<()> {
        if !self.eat_kw("where") {
            return Ok(());
        }
        while !(self.check_punct('{') || self.check_punct(';') || self.check_punct('=')) {
            if matches!(self.kind(), Some(TokenKind::Lifetime(_))) {
                self.bump();
                self.expect_punct(':')?;
                self.parse_bounds()?;
            } else {
                if self.eat_kw("for") {
                    self.parse_generic_params()?; // `for<'a>`: lifetimes only
                }
                let ty = self.parse_ty()?;
                self.generics.push(ty);
                self.expect_punct(':')?;
                let bounds = self.parse_bounds()?;
                self.generics.extend(bounds);
            }
            if !self.eat_punct(',') {
                break;
            }
        }
        Ok(())
    }

    /// Parses `#[…]` / `#![…]` attribute runs. Inner attributes are
    /// consumed but not returned (they gate the *enclosing* scope, which
    /// for this subset never matters to a rule).
    fn parse_attrs(&mut self) -> PResult<Vec<Attr>> {
        let mut out = Vec::new();
        while self.check_punct('#') {
            let line = self.line();
            self.bump();
            let inner = self.eat_punct('!');
            let end = self.closing()?;
            self.bump();
            let meta = self.parse_metas(end)?.into_iter().next();
            self.pos = end + 1;
            if let (false, Some(meta)) = (inner, meta) {
                out.push(Attr { meta, line });
            }
        }
        Ok(out)
    }

    /// The metas before token index `end`: `name`, `a::name`,
    /// `name(metas…)`, `name = literal`. Tokens that start none (`=`,
    /// literals, other delimiters) are skipped.
    fn parse_metas(&mut self, end: usize) -> PResult<Vec<Meta>> {
        let mut out = Vec::new();
        while self.pos < end {
            match self.kind() {
                Some(TokenKind::Ident(name)) => {
                    let mut meta = Meta {
                        name: name.clone(),
                        args: Vec::new(),
                    };
                    self.bump();
                    while self.check_op("::")
                        && matches!(self.kind_at(1), Some(TokenKind::Ident(_)))
                    {
                        self.bump();
                        meta.name = self.expect_ident()?;
                    }
                    if self.check_punct('(') {
                        let close = self.closing()?;
                        self.bump();
                        meta.args = self.parse_metas(close)?;
                        self.pos = close + 1;
                    }
                    out.push(meta);
                }
                Some(TokenKind::Punct('(' | '[' | '{')) => self.skip_balanced()?,
                _ => self.bump(),
            }
        }
        Ok(out)
    }

    /// Parses and drops a visibility qualifier (`pub`, `pub(crate)`, …).
    fn parse_vis(&mut self) -> PResult<()> {
        if self.eat_kw("pub") && self.check_punct('(') {
            self.skip_balanced()?;
        }
        Ok(())
    }

    // ---- items ----------------------------------------------------------

    /// Parses items until end of input (`in_block` false) or a closing
    /// `}` (left unconsumed).
    fn parse_items(&mut self, in_block: bool) -> PResult<Vec<Item>> {
        let mut items = Vec::new();
        loop {
            if self.pos >= self.t.len() || (in_block && self.check_punct('}')) {
                return Ok(items);
            }
            items.push(self.parse_item()?);
        }
    }

    fn parse_item(&mut self) -> PResult<Item> {
        let attrs = self.parse_attrs()?;
        let line = self.line();
        self.parse_vis()?;
        let outer = std::mem::take(&mut self.generics);
        let kind = self.parse_item_kind();
        let generics = std::mem::replace(&mut self.generics, outer);
        Ok(Item {
            attrs,
            kind: kind?,
            generics,
            line,
        })
    }

    fn parse_item_kind(&mut self) -> PResult<ItemKind> {
        match self.kind() {
            Some(TokenKind::Ident(s)) => match s.as_str() {
                "use" => {
                    // `use a::b::{c, d};` — collect to the `;` at brace
                    // depth 0.
                    self.bump();
                    let mut depth = 0i32;
                    let mut idents = Vec::new();
                    loop {
                        match self.kind() {
                            None => return Err(self.err("unterminated use")),
                            Some(TokenKind::Punct('{')) => depth += 1,
                            Some(TokenKind::Punct('}')) => depth -= 1,
                            Some(TokenKind::Punct(';')) if depth == 0 => {
                                self.bump();
                                return Ok(ItemKind::Use { idents });
                            }
                            Some(TokenKind::Ident(s)) => idents.push((s.clone(), self.line())),
                            _ => {}
                        }
                        self.bump();
                    }
                }
                "mod" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    if self.eat_punct(';') {
                        Ok(ItemKind::Mod { name, items: None })
                    } else {
                        self.expect_punct('{')?;
                        let items = self.parse_items(true)?;
                        self.expect_punct('}')?;
                        Ok(ItemKind::Mod {
                            name,
                            items: Some(items),
                        })
                    }
                }
                "struct" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.parse_generic_params()?;
                    self.parse_where()?;
                    let fields = if self.eat_punct(';') {
                        Vec::new() // unit struct
                    } else if self.check_punct('(') {
                        let f = self.parse_tuple_fields()?;
                        self.parse_where()?;
                        self.expect_punct(';')?;
                        f
                    } else {
                        self.parse_named_fields()?
                    };
                    Ok(ItemKind::Struct { name, fields })
                }
                "enum" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.parse_generic_params()?;
                    self.parse_where()?;
                    self.expect_punct('{')?;
                    let mut variants = Vec::new();
                    while !self.check_punct('}') {
                        self.parse_attrs()?;
                        let vline = self.line();
                        let vname = self.expect_ident()?;
                        let fields = if self.check_punct('(') {
                            self.parse_tuple_fields()?
                        } else if self.check_punct('{') {
                            self.parse_named_fields()?
                        } else {
                            Vec::new()
                        };
                        let discriminant = if self.eat_punct('=') {
                            Some(self.parse_expr(FREE)?)
                        } else {
                            None
                        };
                        variants.push(Variant {
                            name: vname,
                            fields,
                            discriminant,
                            line: vline,
                        });
                        if !self.eat_punct(',') {
                            break;
                        }
                    }
                    self.expect_punct('}')?;
                    Ok(ItemKind::Enum { name, variants })
                }
                "trait" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.parse_generic_params()?;
                    if self.eat_punct(':') {
                        let supertraits = self.parse_bounds()?;
                        self.generics.extend(supertraits);
                    }
                    self.parse_where()?;
                    self.expect_punct('{')?;
                    let items = self.parse_items(true)?;
                    self.expect_punct('}')?;
                    Ok(ItemKind::Trait { name, items })
                }
                "impl" => {
                    self.bump();
                    self.parse_generic_params()?;
                    let first = self.parse_ty()?;
                    let (self_ty, trait_ty) = if self.eat_kw("for") {
                        (self.parse_ty()?, Some(first))
                    } else {
                        (first, None)
                    };
                    self.parse_where()?;
                    self.expect_punct('{')?;
                    let items = self.parse_items(true)?;
                    self.expect_punct('}')?;
                    Ok(ItemKind::Impl {
                        self_ty,
                        trait_ty,
                        items,
                    })
                }
                "fn" | "unsafe" | "extern" | "const" | "static" => self.parse_fn_like(),
                "type" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    // `type X<P> = T;` or (in traits) `type X: Bound;` /
                    // `type X;`.
                    self.parse_generic_params()?;
                    if self.eat_punct(':') {
                        let bounds = self.parse_bounds()?;
                        self.generics.extend(bounds);
                    }
                    self.parse_where()?;
                    let ty = if self.eat_punct('=') {
                        Some(self.parse_ty()?)
                    } else {
                        None
                    };
                    self.parse_where()?;
                    self.expect_punct(';')?;
                    Ok(ItemKind::TypeAlias { name, ty })
                }
                "macro_rules" => {
                    self.bump();
                    self.expect_punct('!')?;
                    let name = self.expect_ident()?;
                    let args = self.recover_exprs()?;
                    Ok(ItemKind::MacroCall { name, args })
                }
                _ => {
                    // Item-position macro call: `thread_local! { … }`.
                    if matches!(self.kind_at(1), Some(TokenKind::Punct('!'))) {
                        let name = self.expect_ident()?;
                        self.bump(); // !
                        let paren = self.check_punct('(') || self.check_punct('[');
                        let args = self.recover_exprs()?;
                        if paren {
                            self.expect_punct(';')?;
                        }
                        Ok(ItemKind::MacroCall { name, args })
                    } else {
                        Err(self.err("expected item"))
                    }
                }
            },
            _ => Err(self.err("expected item")),
        }
    }

    /// `fn` items and the qualifier soup in front of them (`const fn`,
    /// `unsafe fn`, `extern "C" fn`, `unsafe impl`, `extern "C" { … }`,
    /// plain `const`/`static` items).
    fn parse_fn_like(&mut self) -> PResult<ItemKind> {
        if self.check_kw("unsafe")
            && matches!(self.kind_at(1), Some(TokenKind::Ident(s)) if s == "impl" || s == "trait")
        {
            self.bump(); // the impl/trait path re-enters the dispatcher
            return self.parse_item_kind();
        }
        if self.check_kw("const")
            && !matches!(self.kind_at(1), Some(TokenKind::Ident(s)) if s == "fn" || s == "unsafe" || s == "extern")
        {
            self.bump();
            let name = self.expect_ident()?;
            self.expect_punct(':')?;
            let ty = self.parse_ty()?;
            let init = if self.eat_punct('=') {
                Some(self.parse_expr(FREE)?)
            } else {
                None
            };
            self.expect_punct(';')?;
            return Ok(ItemKind::Const { name, ty, init });
        }
        if self.check_kw("static") {
            self.bump();
            self.eat_kw("mut");
            let name = self.expect_ident()?;
            self.expect_punct(':')?;
            let ty = self.parse_ty()?;
            let init = if self.eat_punct('=') {
                Some(self.parse_expr(FREE)?)
            } else {
                None
            };
            self.expect_punct(';')?;
            return Ok(ItemKind::Static { name, ty, init });
        }
        // Remaining: [const] [unsafe] [extern "C"] fn …, or extern "C" {}
        self.eat_kw("const");
        self.eat_kw("unsafe");
        if self.eat_kw("extern") {
            if matches!(self.kind(), Some(TokenKind::Str)) {
                self.bump(); // ABI string
            }
            if self.check_punct('{') {
                self.bump();
                let items = self.parse_items(true)?;
                self.expect_punct('}')?;
                return Ok(ItemKind::ExternBlock { items });
            }
            if self.eat_kw("crate") {
                let mut idents = Vec::new();
                while !self.eat_punct(';') {
                    match self.kind() {
                        None => return Err(self.err("unterminated extern crate")),
                        Some(TokenKind::Ident(s)) => idents.push((s.clone(), self.line())),
                        _ => {}
                    }
                    self.bump();
                }
                return Ok(ItemKind::Use { idents });
            }
        }
        let line = self.line();
        self.expect_kw("fn")?;
        let name = self.expect_ident()?;
        self.parse_generic_params()?;
        let params = self.parse_params()?;
        let ret = if self.eat_op("->") {
            Some(self.parse_ty()?)
        } else {
            None
        };
        self.parse_where()?;
        let body = if self.eat_punct(';') {
            None
        } else {
            Some(self.parse_block()?)
        };
        Ok(ItemKind::Fn(FnDef {
            name,
            params,
            ret,
            body,
            line,
        }))
    }

    fn parse_params(&mut self) -> PResult<Vec<Param>> {
        self.expect_punct('(')?;
        let mut params = Vec::new();
        while !self.check_punct(')') {
            self.parse_attrs()?;
            // Receiver forms: `self`, `mut self`, `&self`, `&mut self`,
            // `&'a self`.
            let s = self.save();
            let line = self.line();
            let is_recv;
            if self.check_punct('&') {
                self.bump();
                if matches!(self.kind(), Some(TokenKind::Lifetime(_))) {
                    self.bump();
                }
                self.eat_kw("mut");
                is_recv = self.eat_kw("self");
            } else {
                let saw_mut = self.eat_kw("mut");
                is_recv = self.eat_kw("self");
                if !is_recv && saw_mut {
                    self.restore(s);
                }
            }
            if is_recv {
                params.push(Param {
                    pat: Pat::Bind {
                        name: "self".to_string(),
                        sub: None,
                        line,
                    },
                    ty: Ty::SelfTy,
                });
            } else {
                if self.check_punct('&') {
                    self.restore(s);
                }
                let pat = self.parse_pat(true)?;
                let ty = if self.eat_punct(':') {
                    self.parse_ty()?
                } else {
                    Ty::Infer
                };
                params.push(Param { pat, ty });
            }
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        Ok(params)
    }

    fn parse_named_fields(&mut self) -> PResult<Vec<Field>> {
        self.expect_punct('{')?;
        let mut fields = Vec::new();
        while !self.check_punct('}') {
            self.parse_attrs()?;
            self.parse_vis()?;
            let line = self.line();
            let name = self.expect_ident()?;
            self.expect_punct(':')?;
            let ty = self.parse_ty()?;
            fields.push(Field { name, ty, line });
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct('}')?;
        Ok(fields)
    }

    fn parse_tuple_fields(&mut self) -> PResult<Vec<Field>> {
        self.expect_punct('(')?;
        let mut fields = Vec::new();
        let mut idx = 0u32;
        while !self.check_punct(')') {
            self.parse_attrs()?;
            self.parse_vis()?;
            let line = self.line();
            let ty = self.parse_ty()?;
            fields.push(Field {
                name: idx.to_string(),
                ty,
                line,
            });
            idx += 1;
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        Ok(fields)
    }

    // ---- types ----------------------------------------------------------

    fn parse_ty(&mut self) -> PResult<Ty> {
        match self.kind() {
            Some(TokenKind::Punct('&')) => {
                self.bump();
                if matches!(self.kind(), Some(TokenKind::Lifetime(_))) {
                    self.bump();
                }
                self.eat_kw("mut");
                Ok(Ty::Ref(Box::new(self.parse_ty()?)))
            }
            Some(TokenKind::Op("&&")) => {
                self.bump();
                if matches!(self.kind(), Some(TokenKind::Lifetime(_))) {
                    self.bump();
                }
                self.eat_kw("mut");
                Ok(Ty::Ref(Box::new(Ty::Ref(Box::new(self.parse_ty()?)))))
            }
            Some(TokenKind::Punct('*')) => {
                // Raw pointer `*const T` / `*mut T`.
                self.bump();
                if !self.eat_kw("const") {
                    self.eat_kw("mut");
                }
                Ok(Ty::Ref(Box::new(self.parse_ty()?)))
            }
            Some(TokenKind::Punct('(')) => {
                self.bump();
                let mut tys = Vec::new();
                let mut trailing = false;
                while !self.check_punct(')') {
                    tys.push(self.parse_ty()?);
                    trailing = self.eat_punct(',');
                    if !trailing {
                        break;
                    }
                }
                self.expect_punct(')')?;
                if tys.len() == 1 && !trailing {
                    Ok(tys.pop().expect("len checked"))
                } else {
                    Ok(Ty::Tuple(tys))
                }
            }
            Some(TokenKind::Punct('[')) => {
                self.bump();
                let inner = self.parse_ty()?;
                let len = if self.eat_punct(';') {
                    Some(self.parse_expr(FREE)?)
                } else {
                    None
                };
                self.expect_punct(']')?;
                Ok(match len {
                    Some(len) => Ty::Array(Box::new(inner), Box::new(len)),
                    None => Ty::Slice(Box::new(inner)),
                })
            }
            Some(TokenKind::Punct('!')) => {
                self.bump();
                Ok(Ty::Never)
            }
            Some(TokenKind::Punct('<')) => {
                // Qualified path type `<T as Trait>::Assoc`.
                let line = self.line();
                self.bump();
                let mut args = vec![self.parse_ty()?];
                if self.eat_kw("as") {
                    args.push(self.parse_ty()?);
                }
                self.bump_gt()?;
                let mut segments = Vec::new();
                while self.eat_op("::") {
                    segments.push(self.expect_ident()?);
                }
                Ok(Ty::Path {
                    segments,
                    args,
                    line,
                })
            }
            Some(TokenKind::Ident(s)) => match s.as_str() {
                "dyn" | "impl" => {
                    self.bump();
                    Ok(Ty::Opaque(self.parse_bounds()?))
                }
                "fn" => {
                    self.bump();
                    Ok(Ty::FnPtr(self.parse_fn_sig_tys()?))
                }
                "extern" => {
                    // `extern "C" fn(…)` pointer type.
                    self.bump();
                    if matches!(self.kind(), Some(TokenKind::Str)) {
                        self.bump();
                    }
                    self.expect_kw("fn")?;
                    Ok(Ty::FnPtr(self.parse_fn_sig_tys()?))
                }
                "Self" => {
                    let line = self.line();
                    self.bump();
                    // `Self::Assoc` associated types.
                    let mut segments = vec!["Self".to_string()];
                    while self.eat_op("::") {
                        segments.push(self.expect_ident()?);
                    }
                    if segments.len() == 1 {
                        Ok(Ty::SelfTy)
                    } else {
                        Ok(Ty::Path {
                            segments,
                            args: Vec::new(),
                            line,
                        })
                    }
                }
                "_" => {
                    self.bump();
                    Ok(Ty::Infer)
                }
                _ => self.parse_type_path(),
            },
            Some(TokenKind::Op("::")) => self.parse_type_path(),
            _ => Err(self.err("expected type")),
        }
    }

    /// `a::b::C<args>` — also accepts `Fn(A) -> B` sugar on a segment.
    fn parse_type_path(&mut self) -> PResult<Ty> {
        let line = self.line();
        self.eat_op("::");
        let mut segments = vec![self.expect_ident()?];
        let mut args = Vec::new();
        loop {
            if self.check_punct('<') {
                args.extend(self.parse_generic_args()?);
                if self.eat_op("::") {
                    segments.push(self.expect_ident()?);
                    continue;
                }
                break;
            }
            if self.check_punct('(') {
                // `Fn(A, B) -> C` parenthesized sugar.
                args.extend(self.parse_fn_sig_tys()?);
                break;
            }
            if self.eat_op("::") {
                if self.check_punct('<') {
                    continue; // turbofish in type position
                }
                segments.push(self.expect_ident()?);
            } else {
                break;
            }
        }
        Ok(Ty::Path {
            segments,
            args,
            line,
        })
    }

    /// `(A, name: B) -> C` after `fn` or a `Fn` trait name: the
    /// parameter types, then the output type if written.
    fn parse_fn_sig_tys(&mut self) -> PResult<Vec<Ty>> {
        self.expect_punct('(')?;
        let mut tys = Vec::new();
        while !self.check_punct(')') {
            if matches!(
                self.kind(),
                Some(TokenKind::Ident(_) | TokenKind::Punct('_'))
            ) && matches!(self.kind_at(1), Some(TokenKind::Punct(':')))
            {
                self.bump(); // parameter name
                self.bump();
            }
            tys.push(self.parse_ty()?);
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        if self.eat_op("->") {
            tys.push(self.parse_ty()?);
        }
        Ok(tys)
    }

    /// A const generic argument: a literal, a negated literal, or a
    /// `{ … }` block.
    fn parse_const_arg(&mut self) -> PResult<Ty> {
        Ok(Ty::Const(Box::new(self.parse_unary(FREE)?)))
    }

    /// After a `<`: comma-separated lifetimes / types / const args /
    /// `Assoc = Ty` bindings, through the closing `>`.
    fn parse_generic_args(&mut self) -> PResult<Vec<Ty>> {
        self.expect_punct('<')?;
        let mut args = Vec::new();
        loop {
            if self.check_gt() {
                self.bump_gt()?;
                return Ok(args);
            }
            match self.kind() {
                None => return Err(self.err("unterminated generic args")),
                Some(TokenKind::Lifetime(_)) => self.bump(),
                Some(TokenKind::Num(_) | TokenKind::Punct('{' | '-')) => {
                    args.push(self.parse_const_arg()?);
                }
                Some(TokenKind::Ident(s))
                    if (s == "true" || s == "false")
                        && !matches!(self.kind_at(1), Some(TokenKind::Op("::"))) =>
                {
                    args.push(self.parse_const_arg()?);
                }
                Some(TokenKind::Ident(_))
                    if matches!(self.kind_at(1), Some(TokenKind::Punct('='))) =>
                {
                    // `Item = Ty` associated-type binding.
                    self.bump();
                    self.bump();
                    args.push(self.parse_ty()?);
                }
                _ => args.push(self.parse_ty()?),
            }
            if !self.eat_punct(',') {
                if self.check_gt() {
                    continue;
                }
                // `dyn Fn() + Send` inside args: bounds on the arg type.
                if self.check_punct('+') {
                    self.bump();
                    args.extend(self.parse_bounds()?);
                    continue;
                }
                return Err(self.err("expected `,` or `>` in generic args"));
            }
        }
    }

    /// `Bound + 'a + ?Sized + for<'b> Fn(&'b u8)` — the bounds' types.
    fn parse_bounds(&mut self) -> PResult<Vec<Ty>> {
        let mut out = Vec::new();
        loop {
            match self.kind() {
                Some(TokenKind::Lifetime(_)) => self.bump(),
                Some(TokenKind::Punct('?')) => {
                    self.bump(); // `?Sized`
                    out.push(self.parse_type_path()?);
                }
                Some(TokenKind::Ident(s)) if s == "for" => {
                    self.bump();
                    self.parse_generic_params()?; // lifetimes only
                    continue;
                }
                _ => out.push(self.parse_ty()?),
            }
            if !self.eat_punct('+') {
                return Ok(out);
            }
        }
    }

    // ---- patterns -------------------------------------------------------

    /// Parses a pattern; `or_allowed` permits `|` alternatives (off in
    /// closure-parameter position where `|` closes the list).
    fn parse_pat(&mut self, or_allowed: bool) -> PResult<Pat> {
        if or_allowed {
            self.eat_punct('|'); // optional leading `|`
        }
        let first = self.parse_pat_single()?;
        if !or_allowed || !self.check_punct('|') {
            return Ok(first);
        }
        let mut alts = vec![first];
        while self.eat_punct('|') {
            alts.push(self.parse_pat_single()?);
        }
        Ok(Pat::Or(alts))
    }

    fn parse_pat_single(&mut self) -> PResult<Pat> {
        match self.kind() {
            Some(TokenKind::Punct('_')) => {
                self.bump();
                Ok(Pat::Wild)
            }
            Some(TokenKind::Op("..")) => {
                self.bump();
                Ok(Pat::Rest)
            }
            Some(TokenKind::Punct('&')) => {
                self.bump();
                self.eat_kw("mut");
                Ok(Pat::Ref(Box::new(self.parse_pat_single()?)))
            }
            Some(TokenKind::Op("&&")) => {
                self.bump();
                self.eat_kw("mut");
                Ok(Pat::Ref(Box::new(Pat::Ref(Box::new(
                    self.parse_pat_single()?,
                )))))
            }
            Some(TokenKind::Punct('(')) => {
                self.bump();
                let mut elems = Vec::new();
                while !self.check_punct(')') {
                    elems.push(self.parse_pat(true)?);
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct(')')?;
                Ok(Pat::Tuple(elems))
            }
            Some(TokenKind::Punct('[')) => {
                self.bump();
                let mut elems = Vec::new();
                while !self.check_punct(']') {
                    elems.push(self.parse_pat(true)?);
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.expect_punct(']')?;
                Ok(Pat::Slice(elems))
            }
            Some(TokenKind::Num(_) | TokenKind::Str | TokenKind::Punct('-')) => {
                let lo = self.parse_lit_pat()?;
                Ok(self.finish_range_pat(lo)?)
            }
            Some(TokenKind::Ident(s)) => {
                let line = self.line();
                let kw_mut = s == "mut";
                let kw_ref = s == "ref";
                if kw_mut || kw_ref {
                    self.bump();
                    if kw_ref {
                        self.eat_kw("mut");
                    }
                    let name = self.expect_ident()?;
                    let sub = if self.eat_punct('@') {
                        Some(Box::new(self.parse_pat_single()?))
                    } else {
                        None
                    };
                    return Ok(Pat::Bind { name, sub, line });
                }
                if s == "_" {
                    self.bump();
                    return Ok(Pat::Wild);
                }
                if s == "true" || s == "false" {
                    self.bump();
                    return Ok(Pat::Lit);
                }
                let path = self.parse_pat_path()?;
                if self.check_punct('(') {
                    self.bump();
                    let mut elems = Vec::new();
                    while !self.check_punct(')') {
                        elems.push(self.parse_pat(true)?);
                        if !self.eat_punct(',') {
                            break;
                        }
                    }
                    self.expect_punct(')')?;
                    Ok(Pat::TupleStruct { path, elems, line })
                } else if self.check_punct('{') {
                    self.bump();
                    let mut fields = Vec::new();
                    while !self.check_punct('}') {
                        if self.eat_op("..") {
                            break;
                        }
                        let saw_ref = self.eat_kw("ref");
                        let saw_mut = self.eat_kw("mut");
                        let field_line = self.line();
                        let name = self.expect_ident()?;
                        let pat = if !saw_ref && !saw_mut && self.eat_punct(':') {
                            self.parse_pat(true)?
                        } else {
                            Pat::Bind {
                                name: name.clone(),
                                sub: None,
                                line: field_line,
                            }
                        };
                        fields.push((name, pat));
                        if !self.eat_punct(',') {
                            break;
                        }
                    }
                    self.expect_punct('}')?;
                    Ok(Pat::Struct { path, fields, line })
                } else if self.check_op("..=") || self.check_op("..") || self.check_op("...") {
                    self.finish_range_pat(Pat::Path { path, line })
                } else if path.len() == 1 {
                    let name = path.into_iter().next().expect("len checked");
                    if self.eat_punct('@') {
                        let sub = Some(Box::new(self.parse_pat_single()?));
                        Ok(Pat::Bind { name, sub, line })
                    } else if name.chars().next().is_some_and(char::is_uppercase) {
                        // Unit variants / consts (`None`, `Greater`) —
                        // uppercase initial is the workspace convention.
                        Ok(Pat::Path {
                            path: vec![name],
                            line,
                        })
                    } else {
                        Ok(Pat::Bind {
                            name,
                            sub: None,
                            line,
                        })
                    }
                } else {
                    Ok(Pat::Path { path, line })
                }
            }
            _ => Err(self.err("expected pattern")),
        }
    }

    /// A literal pattern: number, string/char, or negated number.
    fn parse_lit_pat(&mut self) -> PResult<Pat> {
        self.eat_punct('-');
        match self.kind() {
            Some(TokenKind::Num(_) | TokenKind::Str) => {
                self.bump();
                Ok(Pat::Lit)
            }
            _ => Err(self.err("expected literal in pattern")),
        }
    }

    /// After a pattern's first literal or path: `..=`/`..` and an end
    /// make it a range pattern.
    fn finish_range_pat(&mut self, lo: Pat) -> PResult<Pat> {
        if !(self.eat_op("..=") || self.eat_op("..") || self.eat_op("...")) {
            return Ok(lo);
        }
        let hi = match self.kind() {
            Some(TokenKind::Num(_) | TokenKind::Str | TokenKind::Punct('-')) => {
                self.parse_lit_pat()?
            }
            Some(TokenKind::Ident(_)) => {
                let line = self.line();
                let path = self.parse_pat_path()?;
                Pat::Path { path, line }
            }
            _ => return Err(self.err("expected range pattern end")),
        };
        Ok(Pat::Range(vec![lo, hi]))
    }

    fn parse_pat_path(&mut self) -> PResult<Vec<String>> {
        let mut path = vec![self.expect_ident()?];
        while self.check_op("::") {
            // Turbofish in patterns is not in the subset; `::ident` only.
            if !matches!(self.kind_at(1), Some(TokenKind::Ident(_))) {
                break;
            }
            self.bump();
            path.push(self.expect_ident()?);
        }
        Ok(path)
    }

    // ---- blocks & statements --------------------------------------------

    fn parse_block(&mut self) -> PResult<Block> {
        let line = self.line();
        self.expect_punct('{')?;
        let mut stmts = Vec::new();
        while !self.check_punct('}') {
            if self.pos >= self.t.len() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect_punct('}')?;
        Ok(Block { stmts, line })
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        if self.eat_punct(';') {
            return Ok(Stmt::Empty);
        }
        // Attributes can precede both items and (rarely) statements.
        let attrs_ahead = self.check_punct('#');
        if attrs_ahead || self.stmt_starts_item() {
            let s = self.save();
            match self.parse_item() {
                Ok(item) => return Ok(Stmt::Item(item)),
                Err(e) => {
                    if attrs_ahead {
                        // `#[cfg(…)]` on a statement: re-parse as expr
                        // after dropping the attributes.
                        self.restore(s);
                        self.parse_attrs()?;
                        if self.eat_punct(';') {
                            return Ok(Stmt::Empty);
                        }
                        if self.check_kw("let") {
                            return self.parse_let();
                        }
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        if self.check_kw("let") {
            return self.parse_let();
        }
        // A block-like expression in statement position is complete on
        // its own: `match x { … } (a, b)` is the end of the match plus a
        // new tuple statement, not a call. Parse just the block-like
        // primary, without binary/postfix continuation.
        if self.at_block_like() {
            let expr = self.parse_primary(FREE)?;
            let semi = self.eat_punct(';');
            return Ok(Stmt::Expr { expr, semi });
        }
        let expr = self.parse_expr(FREE)?;
        let semi = self.eat_punct(';');
        Ok(Stmt::Expr { expr, semi })
    }

    /// Is the cursor at a block-like expression start (one that, in
    /// statement or match-arm position, terminates without an operator
    /// continuation)?
    fn at_block_like(&self) -> bool {
        match self.kind() {
            Some(TokenKind::Punct('{')) if !self.half_gt => true,
            Some(TokenKind::Ident(s)) if !self.half_gt => match s.as_str() {
                "if" | "match" | "while" | "loop" | "for" => true,
                "unsafe" | "const" => {
                    matches!(self.kind_at(1), Some(TokenKind::Punct('{')))
                }
                _ => false,
            },
            _ => false,
        }
    }

    fn stmt_starts_item(&self) -> bool {
        let kw = match self.kind() {
            Some(TokenKind::Ident(s)) => s.as_str(),
            _ => return false,
        };
        match kw {
            "fn" | "struct" | "enum" | "trait" | "impl" | "mod" | "use" | "static" | "type"
            | "macro_rules" | "pub" => true,
            // `const` is an item unless it is a `const { … }` inline
            // const block expression.
            "const" => !matches!(self.kind_at(1), Some(TokenKind::Punct('{'))),
            "extern" => matches!(self.kind_at(1), Some(TokenKind::Str)),
            "unsafe" => {
                matches!(self.kind_at(1), Some(TokenKind::Ident(s)) if s == "fn" || s == "impl" || s == "trait" || s == "extern")
            }
            _ => false,
        }
    }

    fn parse_let(&mut self) -> PResult<Stmt> {
        let line = self.line();
        self.expect_kw("let")?;
        let pat = self.parse_pat(true)?;
        let ty = if self.eat_punct(':') {
            Some(self.parse_ty()?)
        } else {
            None
        };
        let init = if self.eat_punct('=') {
            Some(self.parse_expr(FREE)?)
        } else {
            None
        };
        let els = if self.eat_kw("else") {
            Some(self.parse_block()?)
        } else {
            None
        };
        self.expect_punct(';')?;
        Ok(Stmt::Let {
            pat,
            ty,
            init,
            els,
            line,
        })
    }

    // ---- expressions ----------------------------------------------------

    fn parse_expr(&mut self, r: Restr) -> PResult<Expr> {
        self.parse_assign(r)
    }

    fn parse_assign(&mut self, r: Restr) -> PResult<Expr> {
        let lhs = self.parse_range(r)?;
        let op = match self.kind() {
            _ if self.half_gt => None,
            Some(TokenKind::Punct('=')) => Some(None),
            Some(TokenKind::Op(o)) => match *o {
                "+=" => Some(Some(BinOp::Add)),
                "-=" => Some(Some(BinOp::Sub)),
                "*=" => Some(Some(BinOp::Mul)),
                "/=" => Some(Some(BinOp::Div)),
                "%=" => Some(Some(BinOp::Rem)),
                "<<=" => Some(Some(BinOp::Shl)),
                ">>=" => Some(Some(BinOp::Shr)),
                "&=" => Some(Some(BinOp::BitAnd)),
                "|=" => Some(Some(BinOp::BitOr)),
                "^=" => Some(Some(BinOp::BitXor)),
                _ => None,
            },
            _ => None,
        };
        match op {
            Some(op) => {
                let line = self.line();
                self.bump();
                let rhs = self.parse_assign(r)?; // right-assoc
                Ok(Expr {
                    line,
                    kind: ExprKind::Assign {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                })
            }
            None => Ok(lhs),
        }
    }

    fn parse_range(&mut self, r: Restr) -> PResult<Expr> {
        if self.check_op("..") || self.check_op("..=") {
            let line = self.line();
            self.bump();
            let hi = if self.expr_can_start(r) {
                Some(Box::new(self.parse_or(r)?))
            } else {
                None
            };
            return Ok(Expr {
                line,
                kind: ExprKind::Range { lo: None, hi },
            });
        }
        let lo = self.parse_or(r)?;
        if self.check_op("..") || self.check_op("..=") {
            let line = self.line();
            self.bump();
            let hi = if self.expr_can_start(r) {
                Some(Box::new(self.parse_or(r)?))
            } else {
                None
            };
            return Ok(Expr {
                line,
                kind: ExprKind::Range {
                    lo: Some(Box::new(lo)),
                    hi,
                },
            });
        }
        Ok(lo)
    }

    /// Can the current token begin an expression? Used only to decide
    /// whether a range has an upper bound.
    fn expr_can_start(&self, r: Restr) -> bool {
        match self.kind() {
            None => false,
            Some(TokenKind::Punct(c)) => {
                matches!(c, '(' | '[' | '!' | '-' | '*' | '&' | '|') || (*c == '{' && !r.no_struct)
            }
            Some(TokenKind::Op(o)) => matches!(*o, "::" | "&&" | "||"),
            Some(TokenKind::Ident(s)) => s != "else",
            Some(TokenKind::Num(_) | TokenKind::Str) => true,
            Some(TokenKind::Lifetime(_)) => false,
        }
    }

    fn parse_or(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_and(r)?;
        while self.check_op("||") {
            let line = self.line();
            self.bump();
            let rhs = self.parse_and(r)?;
            lhs = bin(BinOp::Or, lhs, rhs, line);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_cmp(r)?;
        while self.check_op("&&") {
            let line = self.line();
            self.bump();
            let rhs = self.parse_cmp(r)?;
            lhs = bin(BinOp::And, lhs, rhs, line);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_bitor(r)?;
        loop {
            let op = if self.check_op("==") {
                BinOp::Eq
            } else if self.check_op("!=") {
                BinOp::Ne
            } else if self.check_op("<=") {
                BinOp::Le
            } else if self.check_op(">=") {
                BinOp::Ge
            } else if self.check_punct('<') {
                BinOp::Lt
            } else if self.check_punct('>') {
                BinOp::Gt
            } else {
                return Ok(lhs);
            };
            let line = self.line();
            self.bump();
            let rhs = self.parse_bitor(r)?;
            lhs = bin(op, lhs, rhs, line);
        }
    }

    fn parse_bitor(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_bitxor(r)?;
        while self.check_punct('|') {
            let line = self.line();
            self.bump();
            let rhs = self.parse_bitxor(r)?;
            lhs = bin(BinOp::BitOr, lhs, rhs, line);
        }
        Ok(lhs)
    }

    fn parse_bitxor(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_bitand(r)?;
        while self.check_punct('^') {
            let line = self.line();
            self.bump();
            let rhs = self.parse_bitand(r)?;
            lhs = bin(BinOp::BitXor, lhs, rhs, line);
        }
        Ok(lhs)
    }

    fn parse_bitand(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_shift(r)?;
        while self.check_punct('&') {
            let line = self.line();
            self.bump();
            let rhs = self.parse_shift(r)?;
            lhs = bin(BinOp::BitAnd, lhs, rhs, line);
        }
        Ok(lhs)
    }

    fn parse_shift(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_add(r)?;
        loop {
            let op = if self.check_op("<<") {
                BinOp::Shl
            } else if self.check_op(">>") {
                BinOp::Shr
            } else {
                return Ok(lhs);
            };
            let line = self.line();
            self.bump();
            let rhs = self.parse_add(r)?;
            lhs = bin(op, lhs, rhs, line);
        }
    }

    fn parse_add(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_mul(r)?;
        loop {
            let op = if self.check_punct('+') {
                BinOp::Add
            } else if self.check_punct('-') {
                BinOp::Sub
            } else {
                return Ok(lhs);
            };
            let line = self.line();
            self.bump();
            let rhs = self.parse_mul(r)?;
            lhs = bin(op, lhs, rhs, line);
        }
    }

    fn parse_mul(&mut self, r: Restr) -> PResult<Expr> {
        let mut lhs = self.parse_cast(r)?;
        loop {
            let op = if self.check_punct('*') {
                BinOp::Mul
            } else if self.check_punct('/') {
                BinOp::Div
            } else if self.check_punct('%') {
                BinOp::Rem
            } else {
                return Ok(lhs);
            };
            let line = self.line();
            self.bump();
            let rhs = self.parse_cast(r)?;
            lhs = bin(op, lhs, rhs, line);
        }
    }

    fn parse_cast(&mut self, r: Restr) -> PResult<Expr> {
        let mut e = self.parse_unary(r)?;
        while self.check_kw("as") {
            let line = self.line();
            self.bump();
            let ty = self.parse_ty()?;
            e = Expr {
                line,
                kind: ExprKind::Cast {
                    expr: Box::new(e),
                    ty,
                },
            };
        }
        Ok(e)
    }

    fn parse_unary(&mut self, r: Restr) -> PResult<Expr> {
        let line = self.line();
        if self.check_punct('-') || self.check_punct('!') || self.check_punct('*') {
            let op = match self.kind() {
                Some(TokenKind::Punct(c)) => *c,
                _ => unreachable!("checked above"),
            };
            self.bump();
            let inner = self.parse_unary(r)?;
            return Ok(Expr {
                line,
                kind: ExprKind::Unary {
                    op,
                    expr: Box::new(inner),
                },
            });
        }
        if self.check_punct('&') {
            self.bump();
            self.eat_kw("mut");
            let inner = self.parse_unary(r)?;
            return Ok(Expr {
                line,
                kind: ExprKind::Ref(Box::new(inner)),
            });
        }
        if self.check_op("&&") {
            // `&&x` — two reference levels lexed as one token.
            self.bump();
            self.eat_kw("mut");
            let inner = self.parse_unary(r)?;
            return Ok(Expr {
                line,
                kind: ExprKind::Ref(Box::new(Expr {
                    line,
                    kind: ExprKind::Ref(Box::new(inner)),
                })),
            });
        }
        self.parse_postfix(r)
    }

    fn parse_postfix(&mut self, r: Restr) -> PResult<Expr> {
        let mut e = self.parse_primary(r)?;
        loop {
            if self.check_punct('.') {
                self.bump();
                let line = self.line();
                match self.kind() {
                    Some(TokenKind::Ident(name)) => {
                        let name = name.clone();
                        self.bump();
                        let generics = if self.eat_op("::") {
                            // `.collect::<Vec<_>>()` turbofish.
                            self.parse_generic_args()?
                        } else {
                            Vec::new()
                        };
                        if self.check_punct('(') {
                            let args = self.parse_call_args()?;
                            e = Expr {
                                line,
                                kind: ExprKind::MethodCall {
                                    recv: Box::new(e),
                                    name,
                                    generics,
                                    args,
                                },
                            };
                        } else {
                            e = Expr {
                                line,
                                kind: ExprKind::Field {
                                    base: Box::new(e),
                                    name,
                                },
                            };
                        }
                    }
                    Some(TokenKind::Num(n)) => {
                        // Tuple index. `x.0.1` lexes the `0.1` as one
                        // numeric token — split it back into two fields.
                        let n = n.clone();
                        self.bump();
                        for part in n.split('.') {
                            e = Expr {
                                line,
                                kind: ExprKind::Field {
                                    base: Box::new(e),
                                    name: part.to_string(),
                                },
                            };
                        }
                    }
                    _ => return Err(self.err("expected field or method name after `.`")),
                }
            } else if self.check_punct('?') {
                let line = self.line();
                self.bump();
                e = Expr {
                    line,
                    kind: ExprKind::Try(Box::new(e)),
                };
            } else if self.check_punct('(') {
                let line = e.line;
                let args = self.parse_call_args()?;
                e = Expr {
                    line,
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                };
            } else if self.check_punct('[') {
                let line = self.line();
                self.bump();
                let index = self.parse_expr(FREE)?;
                self.expect_punct(']')?;
                e = Expr {
                    line,
                    kind: ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect_punct('(')?;
        let mut args = Vec::new();
        while !self.check_punct(')') {
            args.push(self.parse_expr(FREE)?);
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        Ok(args)
    }

    fn parse_primary(&mut self, r: Restr) -> PResult<Expr> {
        let line = self.line();
        match self.kind() {
            Some(TokenKind::Num(n)) => {
                let n = n.clone();
                self.bump();
                Ok(Expr {
                    line,
                    kind: ExprKind::Num(n),
                })
            }
            Some(TokenKind::Str) => {
                self.bump();
                Ok(Expr {
                    line,
                    kind: ExprKind::Str,
                })
            }
            Some(TokenKind::Punct('(')) => {
                self.bump();
                let mut elems = Vec::new();
                let mut trailing = false;
                while !self.check_punct(')') {
                    elems.push(self.parse_expr(FREE)?);
                    trailing = self.eat_punct(',');
                    if !trailing {
                        break;
                    }
                }
                self.expect_punct(')')?;
                if elems.len() == 1 && !trailing {
                    let inner = elems.pop().expect("len checked");
                    Ok(Expr {
                        line,
                        kind: ExprKind::Paren(Box::new(inner)),
                    })
                } else {
                    Ok(Expr {
                        line,
                        kind: ExprKind::Tuple(elems),
                    })
                }
            }
            Some(TokenKind::Punct('[')) => {
                self.bump();
                let mut elems = Vec::new();
                if !self.check_punct(']') {
                    elems.push(self.parse_expr(FREE)?);
                    if self.eat_punct(';') {
                        // `[elem; count]` repeat form.
                        elems.push(self.parse_expr(FREE)?);
                    } else {
                        while self.eat_punct(',') {
                            if self.check_punct(']') {
                                break;
                            }
                            elems.push(self.parse_expr(FREE)?);
                        }
                    }
                }
                self.expect_punct(']')?;
                Ok(Expr {
                    line,
                    kind: ExprKind::Array(elems),
                })
            }
            Some(TokenKind::Punct('{')) => {
                let b = self.parse_block()?;
                Ok(Expr {
                    line,
                    kind: ExprKind::BlockExpr(b),
                })
            }
            Some(TokenKind::Punct('|') | TokenKind::Op("||")) => self.parse_closure(line),
            Some(TokenKind::Punct('<')) => {
                // `<T as Trait>::method(…)` qualified call path.
                self.bump();
                let mut tys = vec![self.parse_ty()?];
                if self.eat_kw("as") {
                    tys.push(self.parse_ty()?);
                }
                let head = tys.last().and_then(Ty::head).unwrap_or("?");
                let mut segments = vec![head.to_string()];
                self.bump_gt()?;
                while self.eat_op("::") {
                    segments.push(self.expect_ident()?);
                }
                Ok(Expr {
                    line,
                    kind: ExprKind::Path(segments, tys),
                })
            }
            Some(TokenKind::Op("::")) => self.parse_path_or_macro_or_struct(r, line),
            Some(TokenKind::Ident(s)) => match s.as_str() {
                "true" | "false" => {
                    let v = s == "true";
                    self.bump();
                    Ok(Expr {
                        line,
                        kind: ExprKind::Bool(v),
                    })
                }
                "if" => self.parse_if(line),
                "match" => {
                    self.bump();
                    let scrut = self.parse_expr(Restr { no_struct: true })?;
                    self.expect_punct('{')?;
                    let mut arms = Vec::new();
                    while !self.check_punct('}') {
                        self.parse_attrs()?;
                        let pat = self.parse_pat(true)?;
                        let guard = if self.eat_kw("if") {
                            Some(self.parse_expr(FREE)?)
                        } else {
                            None
                        };
                        if !self.eat_op("=>") {
                            return Err(self.err("expected `=>` in match arm"));
                        }
                        // A block-like arm body ends the arm even
                        // without a comma: `(a, b) => {}` followed by
                        // the next arm's `(c, d)` must not become a
                        // call on the block.
                        let body = if self.at_block_like() {
                            self.parse_primary(FREE)?
                        } else {
                            self.parse_expr(FREE)?
                        };
                        arms.push(Arm { pat, guard, body });
                        self.eat_punct(',');
                    }
                    self.expect_punct('}')?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::Match {
                            scrut: Box::new(scrut),
                            arms,
                        },
                    })
                }
                "while" => {
                    self.bump();
                    if self.eat_kw("let") {
                        let pat = self.parse_pat(true)?;
                        self.expect_punct('=')?;
                        let expr = self.parse_expr(Restr { no_struct: true })?;
                        let body = self.parse_block()?;
                        Ok(Expr {
                            line,
                            kind: ExprKind::WhileLet {
                                pat,
                                expr: Box::new(expr),
                                body,
                            },
                        })
                    } else {
                        let cond = self.parse_expr(Restr { no_struct: true })?;
                        let body = self.parse_block()?;
                        Ok(Expr {
                            line,
                            kind: ExprKind::While {
                                cond: Box::new(cond),
                                body,
                            },
                        })
                    }
                }
                "loop" => {
                    self.bump();
                    let body = self.parse_block()?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::Loop { body },
                    })
                }
                "for" => {
                    self.bump();
                    let pat = self.parse_pat(true)?;
                    self.expect_kw("in")?;
                    let iter = self.parse_expr(Restr { no_struct: true })?;
                    let body = self.parse_block()?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::For {
                            pat,
                            iter: Box::new(iter),
                            body,
                        },
                    })
                }
                "unsafe" => {
                    self.bump();
                    let b = self.parse_block()?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::UnsafeBlock(b),
                    })
                }
                "const" => {
                    // Inline const block `const { … }`.
                    self.bump();
                    let b = self.parse_block()?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::BlockExpr(b),
                    })
                }
                "return" => {
                    self.bump();
                    let val = if self.expr_can_start(FREE) {
                        Some(Box::new(self.parse_expr(r)?))
                    } else {
                        None
                    };
                    Ok(Expr {
                        line,
                        kind: ExprKind::Return(val),
                    })
                }
                "break" => {
                    self.bump();
                    let val = if self.expr_can_start(r) {
                        Some(Box::new(self.parse_expr(r)?))
                    } else {
                        None
                    };
                    Ok(Expr {
                        line,
                        kind: ExprKind::Break(val),
                    })
                }
                "continue" => {
                    self.bump();
                    Ok(Expr {
                        line,
                        kind: ExprKind::Continue,
                    })
                }
                "move" => {
                    self.bump();
                    if self.check_punct('|') || self.check_op("||") {
                        self.parse_closure(line)
                    } else {
                        Err(self.err("expected closure after `move`"))
                    }
                }
                _ => self.parse_path_or_macro_or_struct(r, line),
            },
            _ => Err(self.err("expected expression")),
        }
    }

    fn parse_if(&mut self, line: u32) -> PResult<Expr> {
        self.expect_kw("if")?;
        let is_let = self.eat_kw("let");
        let (pat, cond) = if is_let {
            let pat = self.parse_pat(true)?;
            self.expect_punct('=')?;
            (Some(pat), self.parse_expr(Restr { no_struct: true })?)
        } else {
            (None, self.parse_expr(Restr { no_struct: true })?)
        };
        let then = self.parse_block()?;
        let els = if self.eat_kw("else") {
            if self.check_kw("if") {
                let l2 = self.line();
                Some(Box::new(self.parse_if(l2)?))
            } else {
                let l2 = self.line();
                let b = self.parse_block()?;
                Some(Box::new(Expr {
                    line: l2,
                    kind: ExprKind::BlockExpr(b),
                }))
            }
        } else {
            None
        };
        Ok(match pat {
            Some(pat) => Expr {
                line,
                kind: ExprKind::IfLet {
                    pat,
                    expr: Box::new(cond),
                    then,
                    els,
                },
            },
            None => Expr {
                line,
                kind: ExprKind::If {
                    cond: Box::new(cond),
                    then,
                    els,
                },
            },
        })
    }

    fn parse_closure(&mut self, line: u32) -> PResult<Expr> {
        let mut params = Vec::new();
        if self.eat_op("||") {
            // zero-parameter closure
        } else {
            self.expect_punct('|')?;
            while !self.check_punct('|') {
                let pat = self.parse_pat(false)?;
                let ty = if self.eat_punct(':') {
                    self.parse_ty()?
                } else {
                    Ty::Infer
                };
                params.push(Param { pat, ty });
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct('|')?;
        }
        let (ret, body) = if self.eat_op("->") {
            let ret = self.parse_ty()?;
            let b = self.parse_block()?;
            let body = Expr {
                line,
                kind: ExprKind::BlockExpr(b),
            };
            (Some(ret), body)
        } else {
            (None, self.parse_expr(FREE)?)
        };
        Ok(Expr {
            line,
            kind: ExprKind::Closure {
                params,
                ret,
                body: Box::new(body),
            },
        })
    }

    /// A path expression, possibly continuing into a macro call (`path!`)
    /// or struct literal (`path { … }` when permitted).
    fn parse_path_or_macro_or_struct(&mut self, r: Restr, line: u32) -> PResult<Expr> {
        self.eat_op("::");
        let mut segments = vec![self.expect_path_seg()?];
        let mut generics = Vec::new();
        loop {
            if self.check_op("::") {
                if matches!(self.kind_at(1), Some(TokenKind::Punct('<'))) {
                    // Turbofish `::<args>`.
                    self.bump();
                    generics.extend(self.parse_generic_args()?);
                    continue;
                }
                if matches!(self.kind_at(1), Some(TokenKind::Ident(_))) {
                    self.bump();
                    segments.push(self.expect_path_seg()?);
                    continue;
                }
            }
            break;
        }
        if self.check_punct('!') && !matches!(self.kind_at(1), Some(TokenKind::Punct('='))) {
            self.bump();
            return self.parse_macro_call(segments, line);
        }
        if !r.no_struct && self.check_punct('{') && self.struct_lit_ahead() {
            self.bump();
            let mut fields = Vec::new();
            let mut base = None;
            while !self.check_punct('}') {
                if self.eat_op("..") {
                    base = Some(Box::new(self.parse_expr(FREE)?));
                    break;
                }
                let name = match self.kind() {
                    Some(TokenKind::Ident(n)) => n.clone(),
                    Some(TokenKind::Num(n)) => n.clone(),
                    _ => return Err(self.err("expected field name in struct literal")),
                };
                self.bump();
                let value = if self.eat_punct(':') {
                    self.parse_expr(FREE)?
                } else {
                    Expr {
                        line: self.line(),
                        kind: ExprKind::Path(vec![name.clone()], Vec::new()),
                    }
                };
                fields.push((name, value));
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.expect_punct('}')?;
            return Ok(Expr {
                line,
                kind: ExprKind::StructLit {
                    path: segments,
                    generics,
                    fields,
                    base,
                },
            });
        }
        Ok(Expr {
            line,
            kind: ExprKind::Path(segments, generics),
        })
    }

    /// Expression path segments include the path keywords.
    fn expect_path_seg(&mut self) -> PResult<String> {
        match self.kind() {
            Some(TokenKind::Ident(s)) if !self.half_gt => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            _ => Err(self.err("expected path segment")),
        }
    }

    /// Looks past the `{` to rule out block-starts that merely follow a
    /// path (`match x { pat => … }` arms would otherwise misparse if the
    /// caller forgot a restriction). A struct literal body starts with
    /// `}`, `ident:`, `ident,`, `ident}`, or `..`.
    fn struct_lit_ahead(&self) -> bool {
        match self.kind_at(1) {
            Some(TokenKind::Punct('}')) | Some(TokenKind::Op("..")) => true,
            Some(TokenKind::Ident(_)) | Some(TokenKind::Num(_)) => matches!(
                self.kind_at(2),
                Some(TokenKind::Punct(':') | TokenKind::Punct(',') | TokenKind::Punct('}'))
            ),
            _ => false,
        }
    }

    /// After `path!`: parse the delimited arguments. `(`/`[` trees are
    /// tried as comma-separated expressions first; on failure (or for
    /// `{` trees) every expression recovered from the tree.
    fn parse_macro_call(&mut self, path: Vec<String>, line: u32) -> PResult<Expr> {
        let (open, close) = match self.kind() {
            Some(TokenKind::Punct('(')) => ('(', ')'),
            Some(TokenKind::Punct('[')) => ('[', ']'),
            Some(TokenKind::Punct('{')) => ('{', '}'),
            _ => return Err(self.err("expected macro delimiter")),
        };
        if open != '{' {
            let s = self.save();
            if let Ok(args) = self.try_macro_exprs(close) {
                return Ok(Expr {
                    line,
                    kind: ExprKind::MacroCall { path, args },
                });
            }
            self.restore(s);
        }
        let args = self.recover_exprs()?;
        Ok(Expr {
            line,
            kind: ExprKind::MacroCall { path, args },
        })
    }

    /// Consumes the delimited token tree at the cursor, keeping every
    /// expression that parses inside it: where one parses it is kept and
    /// skipped whole, otherwise one token is skipped. Macro matchers and
    /// transcribers (`$x:expr`, `#[test] fn f(x in 0..9)`) are not Rust,
    /// but the calls, casts and paths inside them are, and the rules must
    /// see those.
    fn recover_exprs(&mut self) -> PResult<Vec<Expr>> {
        let end = self.closing()?;
        self.bump();
        let mut out = Vec::new();
        while self.pos < end {
            let s = self.save();
            match self.parse_expr(FREE) {
                Ok(e) if self.pos <= end && self.pos > s.0 => out.push(e),
                _ => {
                    self.restore(s);
                    self.bump();
                }
            }
        }
        self.pos = end;
        self.bump();
        Ok(out)
    }

    fn try_macro_exprs(&mut self, close: char) -> PResult<Vec<Expr>> {
        self.bump(); // open delimiter
        let mut args = Vec::new();
        while !self.check_punct(close) {
            args.push(self.parse_expr(FREE)?);
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(close)?;
        Ok(args)
    }
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr, line: u32) -> Expr {
    Expr {
        line,
        kind: ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::walk_block;

    fn parse_ok(src: &str) -> SourceFile {
        match parse_file(src) {
            Ok(f) => f,
            Err(e) => panic!("parse failed: {e}\n---\n{src}"),
        }
    }

    fn first_fn(f: &SourceFile) -> &FnDef {
        for item in &f.items {
            if let ItemKind::Fn(d) = &item.kind {
                return d;
            }
        }
        panic!("no fn item");
    }

    #[test]
    fn fn_with_params_and_body() {
        let f = parse_ok("fn add(a: u64, b: u64) -> u64 { a + b }");
        let d = first_fn(&f);
        assert_eq!(d.name, "add");
        assert_eq!(d.params.len(), 2);
        assert!(matches!(d.ret, Some(Ty::Path { .. })));
        let body = d.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn method_receiver_forms() {
        let f = parse_ok(
            "impl S { fn a(&self) {} fn b(&mut self, x: u8) {} fn c(self) {} fn d(mut self) {} }",
        );
        let ItemKind::Impl { items, self_ty, .. } = &f.items[0].kind else {
            panic!("not impl");
        };
        assert_eq!(self_ty.head(), Some("S"));
        assert_eq!(items.len(), 4);
        for it in items {
            let ItemKind::Fn(d) = &it.kind else {
                panic!("not fn")
            };
            assert!(matches!(d.params[0].ty, Ty::SelfTy), "{}", d.name);
        }
    }

    #[test]
    fn nested_generics_gt_split() {
        let f = parse_ok("fn f() -> Vec<Box<Option<u8>>> { Vec::new() }");
        let d = first_fn(&f);
        assert_eq!(d.ret.as_ref().and_then(Ty::head), Some("Vec"));
    }

    #[test]
    fn struct_literal_restriction_in_conditions() {
        // `S {` after `if` must be condition + block, not a struct lit.
        let f = parse_ok("fn f(s: S) -> bool { if s { true } else { false } }");
        let d = first_fn(&f);
        let Stmt::Expr { expr, .. } = &d.body.as_ref().expect("has body").stmts[0] else {
            panic!("not expr stmt");
        };
        assert!(matches!(expr.kind, ExprKind::If { .. }));
        // …while a parenthesized struct literal in a condition is fine.
        parse_ok("fn g() -> bool { if (S { a: 1 }).ok { true } else { false } }");
    }

    #[test]
    fn struct_literals_and_update_syntax() {
        let f = parse_ok("fn f() -> C { C { a: 1, b, ..Default::default() } }");
        let d = first_fn(&f);
        let Stmt::Expr { expr, .. } = &d.body.as_ref().expect("has body").stmts[0] else {
            panic!("not expr");
        };
        let ExprKind::StructLit { fields, base, .. } = &expr.kind else {
            panic!("not struct lit: {expr:?}");
        };
        assert_eq!(fields.len(), 2);
        assert!(base.is_some());
    }

    #[test]
    fn precedence_shift_binds_tighter_than_compare() {
        let f = parse_ok("fn f(a: u64, b: u64) -> bool { a << 2 < b + 1 }");
        let d = first_fn(&f);
        let Stmt::Expr { expr, .. } = &d.body.as_ref().expect("has body").stmts[0] else {
            panic!("not expr");
        };
        let ExprKind::Binary { op, lhs, rhs } = &expr.kind else {
            panic!("not binary: {expr:?}");
        };
        assert_eq!(*op, BinOp::Lt);
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Shl, .. }));
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn let_else_and_if_let() {
        let f = parse_ok(
            "fn f(o: Option<u8>) -> u8 {\n                let Some(x) = o else { return 0; };\n                if let Some(y) = Some(x) { y } else { 0 }\n            }",
        );
        let d = first_fn(&f);
        let Stmt::Let { els, pat, .. } = &d.body.as_ref().expect("has body").stmts[0] else {
            panic!("not let");
        };
        assert!(els.is_some());
        assert!(matches!(pat, Pat::TupleStruct { .. }));
    }

    #[test]
    fn match_arms_guards_ranges_ors() {
        parse_ok(
            "fn f(x: u8) -> u8 { match x { 0 => 1, 1..=9 => 2, b'a' | b'b' => 3, n if n > 100 => 4, _ => 5 } }",
        );
    }

    #[test]
    fn closures_and_method_chains() {
        parse_ok(
            "fn f(v: Vec<u64>) -> Vec<u64> { v.iter().map(|x| x + 1).filter(|x| *x > 2).collect::<Vec<_>>() }",
        );
        parse_ok("fn g() { spawn(move || { work(); }); }");
        parse_ok("fn h() { let f = |a: &str| -> usize { a.len() }; f(\"x\"); }");
    }

    #[test]
    fn macros_parse_args_or_fall_back() {
        let f = parse_ok("fn f() { assert!(a <= b, \"msg {x}\"); matches!(x, Some(_)); }");
        let d = first_fn(&f);
        let mut macro_count = 0;
        walk_block(d.body.as_ref().expect("has body"), &mut |e| {
            if matches!(e.kind, ExprKind::MacroCall { .. }) {
                macro_count += 1;
            }
        });
        assert_eq!(macro_count, 2);
        // Item macros with brace bodies.
        parse_ok("thread_local! { static X: RefCell<u8> = RefCell::new(0); }");
        parse_ok("macro_rules! m { ($x:expr) => { $x + 1 }; }");
    }

    #[test]
    fn ranges_in_index_and_for() {
        parse_ok("fn f(xs: &[u8]) -> &[u8] { &xs[1..] }");
        parse_ok("fn g(n: usize) { for i in 0..n { use_it(i); } }");
        parse_ok("fn h(xs: &[u8]) { let _ = &xs[..xs.len() - 1]; }");
    }

    #[test]
    fn qualified_paths_and_turbofish() {
        parse_ok("fn f() -> u64 { <u32 as Into<u64>>::into(3u32) }");
        parse_ok("fn g() { let v = Vec::<u8>::with_capacity(4); drop(v); }");
        parse_ok("fn h(s: &str) -> u64 { s.parse::<u64>().unwrap_or(0) }");
    }

    #[test]
    fn items_enums_traits_consts_statics() {
        parse_ok(
            "pub struct P { pub a: u64, b: Vec<u8> }\n             struct T(u64, pub u8);\n             struct U;\n             pub enum E { A, B(u8), C { x: u64 }, D = 4 }\n             trait Tr: Base { const K: u8; type Out; fn req(&self) -> u8; fn def(&self) -> u8 { 0 } }\n             const N: usize = 8;\n             static mut G: u64 = 0;\n             type Alias = Vec<u8>;",
        );
    }

    #[test]
    fn extern_blocks_and_extern_fns() {
        parse_ok(
            "extern \"C\" { fn signal(sig: i32, handler: extern \"C\" fn(i32)) -> usize; }\n             extern \"C\" fn on_sig(_sig: i32) {}",
        );
    }

    #[test]
    fn patterns_slice_at_rest() {
        parse_ok("fn f(xs: &[u8]) { if let [first, rest @ ..] = xs { use2(first, rest); } }");
        parse_ok("fn g(p: (u8, u8)) { let (a, mut b) = p; b += a; }");
        parse_ok("fn h(s: S) { let S { a, b: ref c, .. } = s; }");
    }

    #[test]
    fn while_let_and_loops() {
        parse_ok("fn f(mut it: I) { while let Some(x) = it.next() { use_it(x); } }");
        parse_ok("fn g() { loop { if done() { break; } } }");
        parse_ok("fn h() -> u8 { loop { break 3; } }");
    }

    #[test]
    fn expr_line_numbers_survive() {
        let f = parse_ok("fn f(a: u64,\n b: u64) -> u64 {\n a\n +\n b\n}");
        let d = first_fn(&f);
        let Stmt::Expr { expr, .. } = &d.body.as_ref().expect("has body").stmts[0] else {
            panic!("not expr");
        };
        // The `+` sits on line 4.
        assert_eq!(expr.line, 4);
    }

    #[test]
    fn walk_finds_every_call() {
        let f = parse_ok("fn f() { a(); b.c(d()); if x() { y(); } }");
        let d = first_fn(&f);
        let mut calls = Vec::new();
        walk_block(d.body.as_ref().expect("has body"), &mut |e| match &e.kind {
            ExprKind::Call { callee, .. } => {
                if let Some(p) = callee.as_path() {
                    calls.push(p.join("::"));
                }
            }
            ExprKind::MethodCall { name, .. } => calls.push(format!(".{name}")),
            _ => {}
        });
        calls.sort();
        assert_eq!(calls, vec![".c", "a", "d", "x", "y"]);
    }

    #[test]
    fn attr_stmt_and_nested_fn_items() {
        parse_ok("fn f() { #[cfg(test)] let x = 1; fn inner() {} inner(); }");
        parse_ok("#[derive(Clone, Debug)] struct S { #[allow(dead_code)] a: u8 }");
    }

    #[test]
    fn struct_lit_lookahead_rejects_blocks() {
        // `x` then `{ y.z() }` — a path followed by an unrelated block
        // (no colon/comma after the first ident) is not a struct lit.
        let src = "fn f() { let a = x; { a.run() }; }";
        parse_ok(src);
    }

    #[test]
    fn error_reports_line() {
        let e = parse_file("fn f() {\n let = 3;\n}").expect_err("must fail");
        assert_eq!(e.line, 2);
    }
}
