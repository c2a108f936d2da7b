//! The abstract syntax tree produced by [`crate::parser`].
//!
//! This models the Rust subset the workspace uses, at the fidelity every
//! rule needs: full expression structure with source lines, every type
//! the source names (bindings, fields, casts, turbofish and qualified
//! paths, generic parameters, bounds and where clauses, impl headers,
//! alias targets, `dyn`/`impl`/`fn` types, array lengths), patterns with
//! the paths they name, `use` paths, and item structure rich enough to
//! build a workspace symbol table and call graph. Lifetimes, literal
//! values, visibility paths and the attributes of anything but an item
//! are dropped, and `macro_rules!` matchers are not modelled as such:
//! their token trees survive as the expressions recovered from them (see
//! [`ExprKind::MacroCall`]).

/// One parsed source file.
#[derive(Clone, Debug, Default)]
pub struct SourceFile {
    pub items: Vec<Item>,
}

/// An attribute (`#[cfg(test)]`, `#[inline]`…) with its line.
#[derive(Clone, Debug)]
pub struct Attr {
    pub meta: Meta,
    pub line: u32,
}

/// An attribute's content as a tree: `cfg(all(test, unix))` is `cfg`
/// with the one argument `all`, whose arguments are `test` and `unix`.
/// A path keeps its last segment (`clippy::x` → `x`); `key = value`
/// keeps its key; literals are dropped.
#[derive(Clone, Debug, Default)]
pub struct Meta {
    pub name: String,
    pub args: Vec<Meta>,
}

impl Meta {
    /// Whether this is the bare word `name`, without arguments.
    fn is_word(&self, name: &str) -> bool {
        self.name == name && self.args.is_empty()
    }

    /// Every name in the tree, parents before children.
    pub fn names<'a>(&'a self, out: &mut Vec<&'a str>) {
        out.push(&self.name);
        for a in &self.args {
            a.names(out);
        }
    }
}

impl Attr {
    /// Whether this attribute makes its item test code, out of scope for
    /// every rule: `#[test]`, `#[cfg(test)]`, or `#[cfg(all(…))]` with
    /// `test` as one of `all`'s own arguments. Any other predicate can
    /// hold in a non-test build (`not(test)`, `any(test, …)`,
    /// `all(any(test, …), …)`), so it gates production code.
    pub fn is_test_gate(&self) -> bool {
        let m = &self.meta;
        m.is_word("test")
            || (m.name == "cfg"
                && matches!(m.args.as_slice(), [p] if p.is_word("test")
                    || (p.name == "all" && p.args.iter().any(|a| a.is_word("test")))))
    }
}

/// One item (top-level or nested in a module/impl/trait).
#[derive(Clone, Debug)]
pub struct Item {
    pub attrs: Vec<Attr>,
    pub kind: ItemKind,
    /// Every type the item's generic parameters, bounds (supertraits and
    /// associated-type bounds included) and where clause name.
    pub generics: Vec<Ty>,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub enum ItemKind {
    /// `use …;` / `extern crate …;` — every path identifier with its line.
    Use {
        idents: Vec<(String, u32)>,
    },
    /// `mod name;` or `mod name { … }`.
    Mod {
        name: String,
        items: Option<Vec<Item>>,
    },
    Struct {
        name: String,
        /// Tuple-struct fields are named `"0"`, `"1"`, ….
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
    Trait {
        name: String,
        /// Default methods appear as `Fn` items (possibly bodyless).
        items: Vec<Item>,
    },
    Impl {
        self_ty: Ty,
        /// The implemented trait, if a trait impl.
        trait_ty: Option<Ty>,
        items: Vec<Item>,
    },
    Fn(FnDef),
    Const {
        name: String,
        ty: Ty,
        init: Option<Expr>,
    },
    Static {
        name: String,
        ty: Ty,
        init: Option<Expr>,
    },
    /// `type X = T;` (`ty` is `T`), or an associated type declared in a
    /// trait (`type X: Bound;`, no `ty`; the bound is in
    /// [`Item::generics`]).
    TypeAlias {
        name: String,
        ty: Option<Ty>,
    },
    /// An item-position macro invocation (`thread_local! { … }`,
    /// `macro_rules! m { … }`); `args` as for [`ExprKind::MacroCall`].
    MacroCall {
        name: String,
        args: Vec<Expr>,
    },
    /// `extern "C" { … }` — foreign fns/statics, bodyless.
    ExternBlock {
        items: Vec<Item>,
    },
}

#[derive(Clone, Debug)]
pub struct Field {
    pub name: String,
    pub ty: Ty,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub struct Variant {
    pub name: String,
    pub fields: Vec<Field>,
    /// `= expr` explicit discriminant.
    pub discriminant: Option<Expr>,
    pub line: u32,
}

/// A function definition or declaration.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// `self` receivers appear as a param named `self` with `Ty::SelfTy`.
    pub params: Vec<Param>,
    pub ret: Option<Ty>,
    /// `None` for trait-required and extern declarations.
    pub body: Option<Block>,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub struct Param {
    pub pat: Pat,
    pub ty: Ty,
}

/// A declared type, reduced to what the rules consult.
#[derive(Clone, Debug)]
pub enum Ty {
    /// `a::b::C<args…>` — segments, the line of the first segment, and
    /// the type args of every segment in order. `args` also holds the
    /// other types a path names: `Item = T` bindings' `T`, the inputs and
    /// output of `Fn(A) -> B` sugar, and `T` and `Tr` of a qualified
    /// `<T as Tr>::X`.
    Path {
        segments: Vec<String>,
        args: Vec<Ty>,
        line: u32,
    },
    Ref(Box<Ty>),
    Tuple(Vec<Ty>),
    Slice(Box<Ty>),
    /// `[T; len]`.
    Array(Box<Ty>, Box<Expr>),
    /// `fn(A, B) -> C` pointers: the parameter types, then the output.
    FnPtr(Vec<Ty>),
    /// `dyn Trait + …` / `impl Trait + …` — the bounds.
    Opaque(Vec<Ty>),
    /// A const generic argument (`3`, `{ N * 2 }`, `true`).
    Const(Box<Expr>),
    /// `_`.
    Infer,
    /// `Self` and method receivers.
    SelfTy,
    /// `!`.
    Never,
}

impl Ty {
    /// The head identifier after stripping references: `&'a mut Vec<u8>`
    /// → `Vec`. `None` for non-path types.
    pub fn head(&self) -> Option<&str> {
        match self {
            Ty::Path { segments, .. } => segments.last().map(String::as_str),
            Ty::Ref(inner) => inner.head(),
            _ => None,
        }
    }

    /// Strips references and the smart-pointer/wrapper layers method
    /// resolution sees through (`Arc<T>`, `Box<T>`, `Rc<T>`,
    /// `MutexGuard<T>`), yielding the innermost path head.
    pub fn deref_head(&self) -> Option<&str> {
        match self {
            Ty::Ref(inner) => inner.deref_head(),
            Ty::Path { segments, args, .. } => {
                let head = segments.last().map(String::as_str)?;
                if matches!(
                    head,
                    "Arc" | "Box" | "Rc" | "MutexGuard" | "RwLockReadGuard"
                ) && args.len() == 1
                {
                    args[0].deref_head().or(Some(head))
                } else {
                    Some(head)
                }
            }
            _ => None,
        }
    }
}

/// A pattern: binding structure plus the paths it names, each with the
/// line it starts on.
#[derive(Clone, Debug)]
pub enum Pat {
    Wild,
    /// `name`, `mut name`, `ref name`, `name @ sub`.
    Bind {
        name: String,
        sub: Option<Box<Pat>>,
        line: u32,
    },
    Tuple(Vec<Pat>),
    Slice(Vec<Pat>),
    /// `Path { field: pat, … }`.
    Struct {
        path: Vec<String>,
        fields: Vec<(String, Pat)>,
        line: u32,
    },
    /// `Path(pat, …)`.
    TupleStruct {
        path: Vec<String>,
        elems: Vec<Pat>,
        line: u32,
    },
    /// A plain path pattern (`None`, `Ordering::SeqCst`).
    Path {
        path: Vec<String>,
        line: u32,
    },
    Lit,
    /// `lo..=hi`, `lo..`: the ends, each a `Lit` or a `Path`.
    Range(Vec<Pat>),
    Ref(Box<Pat>),
    Or(Vec<Pat>),
    /// `..`.
    Rest,
}

impl Pat {
    /// Every identifier this pattern binds.
    pub fn bound_names(&self, out: &mut Vec<String>) {
        match self {
            Pat::Bind { name, sub, .. } => {
                out.push(name.clone());
                if let Some(s) = sub {
                    s.bound_names(out);
                }
            }
            Pat::Tuple(ps) | Pat::Slice(ps) | Pat::Or(ps) => {
                for p in ps {
                    p.bound_names(out);
                }
            }
            Pat::Struct { fields, .. } => {
                for (_, p) in fields {
                    p.bound_names(out);
                }
            }
            Pat::TupleStruct { elems, .. } => {
                for p in elems {
                    p.bound_names(out);
                }
            }
            Pat::Ref(p) => p.bound_names(out),
            _ => {}
        }
    }
}

/// A block `{ … }`.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
}

#[derive(Clone, Debug)]
pub enum Stmt {
    Let {
        pat: Pat,
        ty: Option<Ty>,
        init: Option<Expr>,
        /// `let … else { … }` diverging block.
        els: Option<Block>,
        line: u32,
    },
    Expr {
        expr: Expr,
        /// Whether a trailing `;` followed (tail expressions lack one).
        semi: bool,
    },
    Item(Item),
    Empty,
}

/// Binary operators the rules care about (comparisons and logic included
/// so expression structure is faithful).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl BinOp {
    /// The operators rule D7 audits for overflow hazards.
    pub fn is_overflow_hazard(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl)
    }
}

/// An expression with its source line: where it starts, except that a
/// method call or field access sits on its name's line and a cast on its
/// `as` keyword's line, so each finding points at the construct itself.
#[derive(Clone, Debug)]
pub struct Expr {
    pub line: u32,
    pub kind: ExprKind,
}

#[derive(Clone, Debug)]
pub enum ExprKind {
    /// `a`, `a::b::c`, `Vec::<u8>::new`: the segments, then the turbofish
    /// types (for `<T as Tr>::f`, the segments are `[Tr, f]` and the
    /// types `T` and `Tr`).
    Path(Vec<String>, Vec<Ty>),
    /// Numeric literal (source text kept).
    Num(String),
    /// String/char literal.
    Str,
    /// `true` / `false`.
    Bool(bool),
    /// `-x`, `!x`, `*x`.
    Unary {
        op: char,
        expr: Box<Expr>,
    },
    /// `&x`, `&mut x`.
    Ref(Box<Expr>),
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `a = b` (`op` None) or `a += b` (`op` Some).
    Assign {
        op: Option<BinOp>,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Cast {
        expr: Box<Expr>,
        ty: Ty,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    MethodCall {
        recv: Box<Expr>,
        name: String,
        /// `.collect::<Vec<_>>()` turbofish types.
        generics: Vec<Ty>,
        args: Vec<Expr>,
    },
    Field {
        base: Box<Expr>,
        name: String,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// `name!(…)` — `args` are the token tree's expressions: its
    /// comma-separated list when it is one, otherwise (`vec![x; n]`,
    /// `{ … }` bodies, `macro_rules!` transcribers) every expression that
    /// parses inside it, token by token.
    MacroCall {
        path: Vec<String>,
        args: Vec<Expr>,
    },
    StructLit {
        path: Vec<String>,
        /// `S::<T> { … }` turbofish types.
        generics: Vec<Ty>,
        fields: Vec<(String, Expr)>,
        /// `..base` functional-update expression.
        base: Option<Box<Expr>>,
    },
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    If {
        /// `let` in the condition becomes `IfLet`.
        cond: Box<Expr>,
        then: Block,
        /// `else` branch: a `BlockExpr` or another `If`/`IfLet`.
        els: Option<Box<Expr>>,
    },
    IfLet {
        pat: Pat,
        expr: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    Match {
        scrut: Box<Expr>,
        arms: Vec<Arm>,
    },
    While {
        cond: Box<Expr>,
        body: Block,
    },
    WhileLet {
        pat: Pat,
        expr: Box<Expr>,
        body: Block,
    },
    Loop {
        body: Block,
    },
    For {
        pat: Pat,
        iter: Box<Expr>,
        body: Block,
    },
    BlockExpr(Block),
    /// `unsafe { … }`.
    UnsafeBlock(Block),
    Closure {
        /// Untyped parameters have [`Ty::Infer`].
        params: Vec<Param>,
        /// `|..| -> T { … }`.
        ret: Option<Ty>,
        body: Box<Expr>,
    },
    Return(Option<Box<Expr>>),
    Break(Option<Box<Expr>>),
    Continue,
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
    },
    /// `expr?`.
    Try(Box<Expr>),
    Paren(Box<Expr>),
}

#[derive(Clone, Debug)]
pub struct Arm {
    pub pat: Pat,
    pub guard: Option<Expr>,
    pub body: Expr,
}

/// One direct child of an expression: a sub-expression or a block.
pub enum Child<'a> {
    Expr(&'a Expr),
    Block(&'a Block),
}

impl Expr {
    /// Whether this expression is a literal (numeric/string/bool), looking
    /// through parens, references, casts, and unary minus. D7 exempts
    /// operations with a literal operand: the bound is compile-time
    /// visible, unlike the runtime-value arithmetic the rule audits.
    pub fn is_literal(&self) -> bool {
        match &self.kind {
            ExprKind::Num(_) | ExprKind::Str | ExprKind::Bool(_) => true,
            ExprKind::Paren(e) | ExprKind::Ref(e) | ExprKind::Cast { expr: e, .. } => {
                e.is_literal()
            }
            ExprKind::Unary { op: '-', expr } => expr.is_literal(),
            // `u64::from(8)`-style literal lifts.
            ExprKind::Call { callee, args } => {
                args.len() == 1
                    && args[0].is_literal()
                    && matches!(&callee.kind, ExprKind::Path(p, _) if p.last().is_some_and(|s| s == "from"))
            }
            _ => false,
        }
    }

    /// The path segments if this is a plain path expression (through
    /// parens).
    pub fn as_path(&self) -> Option<&[String]> {
        match &self.kind {
            ExprKind::Path(p, _) => Some(p),
            ExprKind::Paren(e) => e.as_path(),
            _ => None,
        }
    }

    /// Renders a receiver expression as a dotted key for lock identity:
    /// `self.inner` → `"self.inner"`, `state.journal` → `"state.journal"`.
    /// Non-path shapes yield `None`.
    pub fn receiver_key(&self) -> Option<String> {
        match &self.kind {
            ExprKind::Path(p, _) => Some(p.join(".")),
            ExprKind::Field { base, name } => Some(format!("{}.{name}", base.receiver_key()?)),
            ExprKind::Paren(e) | ExprKind::Ref(e) => e.receiver_key(),
            ExprKind::Unary { op: '*', expr } => expr.receiver_key(),
            _ => None,
        }
    }

    /// The direct child expressions and blocks in evaluation order (the
    /// types and patterns an expression names are not children). Rules
    /// that need nothing but the shape of the tree recurse through this
    /// instead of matching every variant.
    pub fn children(&self) -> Vec<Child<'_>> {
        use Child::{Block as B, Expr as E};
        fn opt(e: &Option<Box<Expr>>) -> Option<Child<'_>> {
            e.as_deref().map(Child::Expr)
        }
        match &self.kind {
            ExprKind::Unary { expr: e, .. }
            | ExprKind::Ref(e)
            | ExprKind::Cast { expr: e, .. }
            | ExprKind::Try(e)
            | ExprKind::Paren(e)
            | ExprKind::Field { base: e, .. }
            | ExprKind::Closure { body: e, .. } => vec![E(e)],
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                vec![E(lhs), E(rhs)]
            }
            ExprKind::Index { base, index } => vec![E(base), E(index)],
            ExprKind::Call { callee: head, args }
            | ExprKind::MethodCall {
                recv: head, args, ..
            } => std::iter::once(E(head)).chain(args.iter().map(E)).collect(),
            ExprKind::MacroCall { args: es, .. } | ExprKind::Tuple(es) | ExprKind::Array(es) => {
                es.iter().map(E).collect()
            }
            ExprKind::StructLit { fields, base, .. } => {
                let mut out: Vec<Child<'_>> = fields.iter().map(|(_, e)| E(e)).collect();
                out.extend(opt(base));
                out
            }
            ExprKind::If { cond: e, then, els }
            | ExprKind::IfLet {
                expr: e, then, els, ..
            } => [Some(E(e)), Some(B(then)), opt(els)]
                .into_iter()
                .flatten()
                .collect(),
            ExprKind::Match { scrut, arms } => {
                let mut out = vec![E(scrut)];
                for arm in arms {
                    out.extend(arm.guard.as_ref().map(E));
                    out.push(E(&arm.body));
                }
                out
            }
            ExprKind::While { cond: e, body }
            | ExprKind::WhileLet { expr: e, body, .. }
            | ExprKind::For { iter: e, body, .. } => vec![E(e), B(body)],
            ExprKind::Loop { body: b } | ExprKind::BlockExpr(b) | ExprKind::UnsafeBlock(b) => {
                vec![B(b)]
            }
            ExprKind::Return(e) | ExprKind::Break(e) => opt(e).into_iter().collect(),
            ExprKind::Range { lo, hi } => opt(lo).into_iter().chain(opt(hi)).collect(),
            ExprKind::Path(..)
            | ExprKind::Num(_)
            | ExprKind::Str
            | ExprKind::Bool(_)
            | ExprKind::Continue => Vec::new(),
        }
    }
}

/// Walks every expression in a block, depth-first, calling `f` on each.
pub fn walk_block(block: &Block, f: &mut dyn FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = els {
                    walk_block(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, f),
            Stmt::Item(item) => {
                if let ItemKind::Fn(d) = &item.kind {
                    if let Some(b) = &d.body {
                        walk_block(b, f);
                    }
                }
            }
            Stmt::Empty => {}
        }
    }
}

/// Walks `expr` and all sub-expressions, depth-first (parents before
/// children), calling `f` on each.
pub fn walk_expr(expr: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(expr);
    for c in expr.children() {
        match c {
            Child::Expr(e) => walk_expr(e, f),
            Child::Block(b) => walk_block(b, f),
        }
    }
}
