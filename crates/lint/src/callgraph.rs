//! Workspace call graph over [`crate::symbols::Workspace`].
//!
//! Edges come from three resolution forms, in decreasing confidence:
//!
//! 1. **Path calls** — `free_fn(…)`, `Type::method(…)`, `Self::method(…)`:
//!    resolved against the symbol table directly (same-crate candidates
//!    preferred on name collisions).
//! 2. **Method calls with an inferred receiver type** — `self.x.run(…)`
//!    where `x`'s declared field type is known, `let s: Spec = …; s.run()`,
//!    constructor results (`Type::new()`, `Type { … }`). Smart-pointer
//!    wrappers (`Arc`, `Box`, `MutexGuard`, …) are stripped.
//! 3. **Unique-name fallback** — an unresolved `.name(…)` whose name
//!    matches exactly one workspace *method* resolves to it (covers
//!    trait-object dispatch); ambiguous names resolve to nothing.
//!
//! Per-function **panic sinks** are collected alongside: `panic!`-family
//! macros, `.unwrap()`/`.expect()` *not* resolved to a workspace method
//! (the json module defines its own `expect`, which is a call edge, not a
//! panic), and slice/array indexing. Rule D8 walks reachability from the
//! serve request handlers over these.
//!
//! **Panic isolation** — a closure handed to `thread::spawn` runs on its
//! own thread: a panic inside it unwinds that thread and surfaces as
//! `Err` from `join()` in the caller, so it cannot kill the calling
//! thread. Edges and sinks collected inside such a closure are marked
//! [`Edge::isolated`]/[`Sink::isolated`]; [`CallGraph::reach`] does not
//! traverse isolated edges and D8 skips isolated sinks. The boundary is
//! deliberately narrow (literal `thread::spawn(|…| …)` /
//! `std::thread::spawn(move || …)` call syntax): a closure built
//! elsewhere and passed by name gets no isolation credit, and anything
//! the caller does with the `join()` result — say `.unwrap()` — is
//! ordinary non-isolated code that D8 still sees.

use crate::ast::{Block, Child, Expr, ExprKind, Pat, Stmt, Ty};
use crate::symbols::{FnId, Workspace};
use std::collections::BTreeMap;

/// One call edge.
#[derive(Clone, Debug)]
pub struct Edge {
    pub callee: FnId,
    /// Call-site line in the *caller*'s file.
    pub line: u32,
    /// True when the call site sits inside a closure handed to
    /// `thread::spawn`: a panic past this edge unwinds the spawned
    /// thread, not the caller, so panic reachability stops here.
    pub isolated: bool,
}

/// A potential panic site inside one function.
#[derive(Clone, Debug)]
pub struct Sink {
    pub line: u32,
    /// What panics: `panic!`, `unwrap()`, `expect()`, `slice index`.
    pub what: &'static str,
    /// True when the sink sits inside a closure handed to
    /// `thread::spawn` (see [`Edge::isolated`]).
    pub isolated: bool,
}

/// The graph: `edges[f]` and `sinks[f]` are indexed by [`FnId`].
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    pub edges: Vec<Vec<Edge>>,
    pub sinks: Vec<Vec<Sink>>,
}

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Methods that panic on the error/none case.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Method names owned by std types, excluded from the unique-name
/// fallback: `.get(…)` on a `HashMap` must not resolve to some workspace
/// fn that happens to be named `get` (a false edge drags unrelated code
/// into D8 reachability), and `.expect(…)` on an `Option` must stay a
/// panic sink even when a workspace type defines its own `expect`.
const STD_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "lock",
    "send",
    "recv",
    "join",
    "read",
    "write",
    "flush",
    "drain",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "min",
    "max",
    "take",
    "replace",
    "to_string",
    "parse",
    "as_str",
    "as_bytes",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "store",
    "load",
    "fetch_add",
    "swap",
    "spawn",
    "accept",
    "shutdown",
    "write_all",
    "read_exact",
    "clear",
    "last",
    "first",
    "position",
    "find",
    "filter",
    "collect",
    "count",
    "rev",
    "clamp",
    "abs",
    "from",
    "into",
    "try_into",
    "try_from",
    "default",
    "new",
];

impl CallGraph {
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut g = CallGraph {
            edges: vec![Vec::new(); ws.fns.len()],
            sinks: vec![Vec::new(); ws.fns.len()],
        };
        for f in &ws.fns {
            if let Some(body) = &f.def.body {
                let mut env: Env = BTreeMap::new();
                for p in &f.def.params {
                    bind_pat_ty(&p.pat, Some(&p.ty), f.self_ty.as_deref(), &mut env);
                }
                let mut cx = Cx {
                    ws,
                    caller: f.id,
                    self_ty: f.self_ty.as_deref(),
                    crate_key: &f.crate_key,
                    isolated: false,
                    edges: &mut g.edges[f.id],
                    sinks: &mut g.sinks[f.id],
                };
                walk_body(body, &mut env, &mut cx);
            }
        }
        for (edges, sinks) in g.edges.iter_mut().zip(&mut g.sinks) {
            // `false < true`, so when the same call site is seen both
            // isolated and not, the non-isolated (conservative) record
            // survives the dedup.
            edges.sort_by_key(|e| (e.line, e.callee, e.isolated));
            edges.dedup_by_key(|e| (e.line, e.callee));
            sinks.sort_by_key(|s| (s.line, s.what, s.isolated));
            sinks.dedup_by_key(|s| (s.line, s.what));
        }
        g
    }

    /// BFS from `roots`; returns, for each reached fn, the predecessor
    /// `(caller, line)` that first discovered it (roots map to `None`).
    /// Isolated edges — calls inside a closure handed to `thread::spawn`
    /// — are not traversed: a panic past them unwinds the spawned thread
    /// and comes back as `Err` at `join()`, never up the caller's stack.
    pub fn reach(&self, roots: &[FnId]) -> BTreeMap<FnId, Option<(FnId, u32)>> {
        let mut seen: BTreeMap<FnId, Option<(FnId, u32)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = roots.iter().copied().collect();
        for r in roots {
            seen.insert(*r, None);
        }
        while let Some(f) = queue.pop_front() {
            for e in &self.edges[f] {
                if e.isolated {
                    continue;
                }
                seen.entry(e.callee).or_insert_with(|| {
                    queue.push_back(e.callee);
                    Some((f, e.line))
                });
            }
        }
        seen
    }

    /// Renders the discovery path `root → … → target` for diagnostics.
    pub fn path_to(
        &self,
        ws: &Workspace,
        reach: &BTreeMap<FnId, Option<(FnId, u32)>>,
        target: FnId,
    ) -> String {
        let mut names = vec![ws.fns[target].qual_name()];
        let mut cur = target;
        while let Some(Some((pred, _))) = reach.get(&cur) {
            names.push(ws.fns[*pred].qual_name());
            cur = *pred;
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// Local variable → type-head environment.
type Env = BTreeMap<String, String>;

struct Cx<'a> {
    ws: &'a Workspace,
    #[allow(dead_code)]
    caller: FnId,
    self_ty: Option<&'a str>,
    crate_key: &'a str,
    /// True while walking a closure handed to `thread::spawn`.
    isolated: bool,
    edges: &'a mut Vec<Edge>,
    sinks: &'a mut Vec<Sink>,
}

/// Binds a parameter/let pattern into the env. Only simple bindings get
/// a type (destructured elements would need per-element projection, which
/// no rule needs); everything else binds as unknown.
fn bind_pat_ty(pat: &Pat, ty: Option<&Ty>, self_ty: Option<&str>, env: &mut Env) {
    match pat {
        Pat::Bind {
            name, sub: None, ..
        } => {
            let head = match ty {
                Some(Ty::SelfTy) => self_ty.map(str::to_string),
                Some(t) => t.deref_head().map(str::to_string),
                None => None,
            };
            match head {
                Some(h) => {
                    env.insert(name.clone(), h);
                }
                None => {
                    env.remove(name); // shadow any outer typed binding
                }
            }
        }
        _ => {
            // Destructured names shadow as unknown.
            let mut names = Vec::new();
            pat.bound_names(&mut names);
            for n in names {
                env.remove(&n);
            }
        }
    }
}

fn walk_body(block: &Block, env: &mut Env, cx: &mut Cx<'_>) {
    let mut scope = env.clone();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                pat, ty, init, els, ..
            } => {
                if let Some(e) = init {
                    walk(e, &mut scope, cx);
                }
                if let Some(b) = els {
                    walk_body(b, &mut scope, cx);
                }
                let inferred_owned;
                let declared_or_inferred: Option<&Ty> = match ty {
                    Some(t) => Some(t),
                    None => match init.as_ref().and_then(|e| infer_ty(e, &scope, cx)) {
                        Some(head) => {
                            inferred_owned = Ty::Path {
                                segments: vec![head],
                                args: Vec::new(),
                                line: 0,
                            };
                            Some(&inferred_owned)
                        }
                        None => None,
                    },
                };
                bind_pat_ty(pat, declared_or_inferred, cx.self_ty, &mut scope);
            }
            Stmt::Expr { expr, .. } => walk(expr, &mut scope, cx),
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
}

/// Walks one expression: records call edges and panic sinks, recursing
/// with scope-local environments for blocks.
fn walk(expr: &Expr, env: &mut Env, cx: &mut Cx<'_>) {
    match &expr.kind {
        ExprKind::Call { callee, args } => {
            let mut spawn_boundary = false;
            if let Some(path) = callee.as_path() {
                resolve_path_call(path, expr.line, cx);
                spawn_boundary = is_thread_spawn(path);
            } else {
                walk(callee, env, cx);
            }
            for a in args {
                // Only the closure literal itself is isolated: its body
                // runs on the spawned thread. Any other argument — and
                // the expressions a closure is *built from* elsewhere —
                // still evaluates on the caller's thread.
                if spawn_boundary && matches!(a.kind, ExprKind::Closure { .. }) {
                    let was = std::mem::replace(&mut cx.isolated, true);
                    walk(a, env, cx);
                    cx.isolated = was;
                } else {
                    walk(a, env, cx);
                }
            }
        }
        ExprKind::MethodCall {
            recv, name, args, ..
        } => {
            walk(recv, env, cx);
            for a in args {
                walk(a, env, cx);
            }
            let recv_ty = infer_ty(recv, env, cx);
            let resolved = resolve_method(recv_ty.as_deref(), name, cx);
            match resolved {
                Some(callee) => cx.edges.push(Edge {
                    callee,
                    line: expr.line,
                    isolated: cx.isolated,
                }),
                None => {
                    if PANIC_METHODS.contains(&name.as_str()) {
                        let what = if name == "unwrap" {
                            "unwrap()"
                        } else {
                            "expect()"
                        };
                        cx.sinks.push(Sink {
                            line: expr.line,
                            what,
                            isolated: cx.isolated,
                        });
                    }
                }
            }
        }
        ExprKind::MacroCall { path, args, .. } => {
            if let Some(last) = path.last() {
                if PANIC_MACROS.contains(&last.as_str()) {
                    cx.sinks.push(Sink {
                        line: expr.line,
                        what: "panic!",
                        isolated: cx.isolated,
                    });
                }
            }
            for a in args {
                walk(a, env, cx);
            }
        }
        ExprKind::Index { base, index } => {
            walk(base, env, cx);
            walk(index, env, cx);
            // Indexing a map via `&map[key]` vs slice indexing is not
            // distinguishable without full types; both panic on missing
            // key / out of range, so both are sinks.
            cx.sinks.push(Sink {
                line: expr.line,
                what: "slice index",
                isolated: cx.isolated,
            });
        }
        ExprKind::IfLet {
            pat,
            expr: scrut,
            then,
            els,
        } => {
            walk(scrut, env, cx);
            let mut inner = env.clone();
            bind_pat_ty(pat, None, cx.self_ty, &mut inner);
            walk_body(then, &mut inner, cx);
            if let Some(e) = els {
                walk(e, env, cx);
            }
        }
        ExprKind::Match { scrut, arms } => {
            walk(scrut, env, cx);
            for arm in arms {
                let mut inner = env.clone();
                bind_pat_ty(&arm.pat, None, cx.self_ty, &mut inner);
                if let Some(g) = &arm.guard {
                    walk(g, &mut inner, cx);
                }
                walk(&arm.body, &mut inner, cx);
            }
        }
        ExprKind::WhileLet {
            pat,
            expr: scrut,
            body,
        } => {
            walk(scrut, env, cx);
            let mut inner = env.clone();
            bind_pat_ty(pat, None, cx.self_ty, &mut inner);
            walk_body(body, &mut inner, cx);
        }
        ExprKind::For { pat, iter, body } => {
            walk(iter, env, cx);
            let mut inner = env.clone();
            bind_pat_ty(pat, None, cx.self_ty, &mut inner);
            walk_body(body, &mut inner, cx);
        }
        ExprKind::Closure { params, body, .. } => {
            let mut inner = env.clone();
            for p in params {
                bind_pat_ty(&p.pat, None, cx.self_ty, &mut inner);
            }
            walk(body, &mut inner, cx);
        }
        // Everything else only recurses, in evaluation order.
        _ => {
            for c in expr.children() {
                match c {
                    Child::Expr(e) => walk(e, env, cx),
                    Child::Block(b) => walk_body(b, env, cx),
                }
            }
        }
    }
}

/// Resolves `a::b::f(…)` call paths to workspace fns.
fn resolve_path_call(path: &[String], line: u32, cx: &mut Cx<'_>) {
    let Some(name) = path.last() else { return };
    let candidates: Vec<FnId> = if path.len() >= 2 {
        let qual = &path[path.len() - 2];
        if qual == "Self" {
            match cx.self_ty {
                Some(t) => cx.ws.methods_of(t, name),
                None => Vec::new(),
            }
        } else if qual.chars().next().is_some_and(char::is_uppercase) {
            // `Type::assoc(…)` — enum variant constructors resolve to
            // nothing (enums define no fns under their own name here).
            cx.ws.methods_of(qual, name)
        } else {
            // `module::f(…)` — free fns by name.
            cx.ws
                .fns_named(name)
                .into_iter()
                .filter(|id| cx.ws.fns[*id].self_ty.is_none())
                .collect()
        }
    } else {
        cx.ws
            .fns_named(name)
            .into_iter()
            .filter(|id| cx.ws.fns[*id].self_ty.is_none())
            .collect()
    };
    if let Some(callee) = pick(candidates, cx) {
        cx.edges.push(Edge {
            callee,
            line,
            isolated: cx.isolated,
        });
    }
}

/// Is this call path literally `thread::spawn` / `std::thread::spawn`?
/// The workspace defines no free fn named `spawn`, so the syntactic test
/// cannot shadow a real edge.
fn is_thread_spawn(path: &[String]) -> bool {
    matches!(path, [.., qual, name] if qual == "thread" && name == "spawn")
}

/// Resolves `.name(…)` with an optional inferred receiver type.
fn resolve_method(recv_ty: Option<&str>, name: &str, cx: &Cx<'_>) -> Option<FnId> {
    if let Some(t) = recv_ty {
        let direct = pick(cx.ws.methods_of(t, name), cx);
        if direct.is_some() {
            return direct;
        }
    }
    // Unique-name fallback across workspace methods (trait-object calls).
    // Names std types own are excluded — see [`STD_METHODS`].
    if STD_METHODS.contains(&name) {
        return None;
    }
    let methods: Vec<FnId> = cx
        .ws
        .fns_named(name)
        .into_iter()
        .filter(|id| {
            let f = &cx.ws.fns[*id];
            f.self_ty.is_some()
                && f.def
                    .params
                    .first()
                    .is_some_and(|p| matches!(p.ty, Ty::SelfTy))
        })
        .collect();
    if methods.len() == 1 {
        return Some(methods[0]);
    }
    None
}

/// Picks among resolution candidates: unique wins; on collision prefer
/// the caller's crate; otherwise give up (no edge beats a wrong edge).
fn pick(mut candidates: Vec<FnId>, cx: &Cx<'_>) -> Option<FnId> {
    if candidates.len() > 1 {
        candidates.retain(|id| cx.ws.fns[*id].crate_key == cx.crate_key);
    }
    match candidates.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

/// Infers the type head of an expression from the local env + symbol
/// table. `None` = unknown.
fn infer_ty(expr: &Expr, env: &Env, cx: &Cx<'_>) -> Option<String> {
    match &expr.kind {
        ExprKind::Path(p, _) => match p.as_slice() {
            [one] if one == "self" => cx.self_ty.map(str::to_string),
            [one] => env.get(one).cloned(),
            _ => None,
        },
        ExprKind::Field { base, name } => {
            let base_ty = infer_ty(base, env, cx)?;
            cx.ws
                .field_ty(&base_ty, name)
                .and_then(Ty::deref_head)
                .map(str::to_string)
        }
        ExprKind::StructLit { path, .. } => path.last().cloned(),
        ExprKind::Call { callee, .. } => {
            let path = callee.as_path()?;
            let name = path.last()?;
            let candidates: Vec<FnId> = if path.len() >= 2
                && path[path.len() - 2]
                    .chars()
                    .next()
                    .is_some_and(char::is_uppercase)
            {
                cx.ws.methods_of(&path[path.len() - 2], name)
            } else {
                cx.ws
                    .fns_named(name)
                    .into_iter()
                    .filter(|id| cx.ws.fns[*id].self_ty.is_none())
                    .collect()
            };
            let id = pick(candidates, cx)?;
            let f = &cx.ws.fns[id];
            match f.def.ret.as_ref()? {
                Ty::SelfTy => f.self_ty.clone(),
                t => t.deref_head().map(str::to_string),
            }
        }
        ExprKind::MethodCall { recv, name, .. } => {
            let recv_ty = infer_ty(recv, env, cx);
            let id = resolve_method(recv_ty.as_deref(), name, cx)?;
            let f = &cx.ws.fns[id];
            match f.def.ret.as_ref()? {
                Ty::SelfTy => f.self_ty.clone(),
                t => t.deref_head().map(str::to_string),
            }
        }
        ExprKind::Cast { ty, .. } => ty.deref_head().map(str::to_string),
        ExprKind::Paren(e) | ExprKind::Ref(e) | ExprKind::Try(e) => infer_ty(e, env, cx),
        ExprKind::Unary { op: '*', expr: e } => infer_ty(e, env, cx),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputFile;

    fn ws(srcs: &[(&str, &str)]) -> Workspace {
        let files: Vec<InputFile> = srcs
            .iter()
            .map(|(key, src)| InputFile {
                rel_path: format!("crates/{key}/src/lib.rs"),
                crate_key: (*key).to_string(),
                src: (*src).to_string(),
            })
            .collect();
        let (ws, errs) = Workspace::build(&files);
        assert!(errs.is_empty(), "{errs:?}");
        ws
    }

    fn fid(ws: &Workspace, name: &str) -> FnId {
        ws.fns_named(name)[0]
    }

    #[test]
    fn direct_and_method_edges() {
        let w = ws(&[(
            "serve",
            "struct S { spec: Spec }\n\
             struct Spec;\n\
             impl Spec { fn run(&self) {} }\n\
             impl S { fn go(&self) { helper(); self.spec.run(); } }\n\
             fn helper() {}",
        )]);
        let g = CallGraph::build(&w);
        let go = fid(&w, "go");
        let mut callees: Vec<String> = g.edges[go]
            .iter()
            .map(|e| w.fns[e.callee].qual_name())
            .collect();
        callees.sort();
        assert_eq!(callees, vec!["Spec::run".to_string(), "helper".into()]);
    }

    #[test]
    fn let_annotation_and_ctor_inference() {
        let w = ws(&[(
            "serve",
            "struct T;\n\
             impl T { fn new() -> T { T } fn hit(&self) {} }\n\
             fn a() { let t = T::new(); t.hit(); }\n\
             fn b(x: &T) { x.hit(); }",
        )]);
        let g = CallGraph::build(&w);
        for f in ["a", "b"] {
            let id = fid(&w, f);
            assert!(
                g.edges[id].iter().any(|e| w.fns[e.callee].name == "hit"),
                "{f} missing edge: {:?}",
                g.edges[id]
            );
        }
    }

    #[test]
    fn workspace_expect_is_edge_not_sink() {
        let w = ws(&[(
            "telemetry",
            "struct Json;\n\
             impl Json { fn expect(&mut self, b: u8) -> Result<(), ()> { Ok(()) } }\n\
             fn parse(j: &mut Json) { let _ = j.expect(1); }\n\
             fn boom(o: Option<u8>) -> u8 { o.expect(\"x\") }",
        )]);
        let g = CallGraph::build(&w);
        let parse = fid(&w, "parse");
        assert!(g.sinks[parse].is_empty(), "{:?}", g.sinks[parse]);
        assert!(g.edges[parse]
            .iter()
            .any(|e| w.fns[e.callee].name == "expect"));
        let boom = fid(&w, "boom");
        assert_eq!(g.sinks[boom].len(), 1);
        assert_eq!(g.sinks[boom][0].what, "expect()");
    }

    #[test]
    fn reachability_with_paths() {
        let w = ws(&[(
            "serve",
            "fn root() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf() { let v: Vec<u8> = Vec::new(); let _ = v[0]; }\n\
             fn unrelated() { panic!(\"x\"); }",
        )]);
        let g = CallGraph::build(&w);
        let reach = g.reach(&[fid(&w, "root")]);
        assert!(reach.contains_key(&fid(&w, "leaf")));
        assert!(!reach.contains_key(&fid(&w, "unrelated")));
        let path = g.path_to(&w, &reach, fid(&w, "leaf"));
        assert_eq!(path, "root -> mid -> leaf");
        assert_eq!(g.sinks[fid(&w, "leaf")][0].what, "slice index");
    }

    #[test]
    fn panic_macros_are_sinks() {
        let w = ws(&[("serve", "fn f(x: u8) { if x > 3 { panic!(\"no\"); } }")]);
        let g = CallGraph::build(&w);
        assert_eq!(g.sinks[fid(&w, "f")][0].what, "panic!");
    }
}
