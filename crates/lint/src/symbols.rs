//! Workspace symbol table: every parsed file's items flattened into
//! indexed functions, struct layouts, and impl groupings, with the
//! test-gating and crate provenance the rules key on.

use crate::ast::{Attr, FnDef, Item, ItemKind, SourceFile, Ty};
use crate::lexer::lex;
use crate::parser::parse_lexed;
use crate::rules::{parse_pragmas, Diagnostic, RuleId};
use crate::InputFile;

/// Index of a function in [`Workspace::fns`].
pub type FnId = usize;

/// One function definition with its provenance.
#[derive(Clone, Debug)]
pub struct FnInfo {
    pub id: FnId,
    pub crate_key: String,
    pub rel_path: String,
    pub name: String,
    /// `Some(type)` for inherent/trait-impl methods, `None` for free fns.
    pub self_ty: Option<String>,
    /// Whether the fn (or an enclosing module/impl) is test-gated (see
    /// [`Attr::is_test_gate`]). Test code is out of scope for every rule.
    pub in_test: bool,
    pub def: FnDef,
}

impl FnInfo {
    /// `Type::name` or plain `name` — diagnostics and call paths.
    pub fn qual_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A struct's declared fields (name → type head), for receiver-type
/// inference and taint-sink detection.
#[derive(Clone, Debug, Default)]
pub struct StructInfo {
    pub crate_key: String,
    /// `(field name, type)` in declaration order.
    pub fields: Vec<(String, Ty)>,
}

/// One file that parsed, with its AST and pragmas retained.
#[derive(Clone, Debug)]
pub struct ParsedFile {
    pub rel_path: String,
    pub crate_key: String,
    pub ast: SourceFile,
    /// `lint: allow`/`lint: bounded` pragmas: `(line, rule)`.
    pub allows: Vec<(u32, RuleId)>,
    /// Malformed pragmas, reported as [`RuleId::Pragma`] findings.
    pub bad_pragmas: Vec<Diagnostic>,
}

/// The workspace-wide symbol table.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    pub fns: Vec<FnInfo>,
    /// Struct name → layout. Name collisions across crates keep the first
    /// definition (none exist in this workspace today; the rules only
    /// consult field *types*, where a collision would merely widen a
    /// heuristic).
    pub structs: std::collections::BTreeMap<String, StructInfo>,
    /// Enum names (so call resolution can tell `Variant::X` paths apart).
    pub enums: std::collections::BTreeSet<String>,
}

impl Workspace {
    /// Lexes (once) and parses every input file and indexes its items.
    /// Parse failures are returned as `(rel_path, message)` and the file
    /// is skipped.
    pub fn build(files: &[InputFile]) -> (Workspace, Vec<(String, String)>) {
        let mut ws = Workspace::default();
        let mut errors = Vec::new();
        for f in files {
            let lexed = lex(&f.src);
            match parse_lexed(&lexed) {
                Ok(ast) => {
                    ws.index_items(&ast.items, &f.crate_key, &f.rel_path, None, false);
                    let (allows, bad_pragmas) = parse_pragmas(&lexed.comments);
                    ws.files.push(ParsedFile {
                        rel_path: f.rel_path.clone(),
                        crate_key: f.crate_key.clone(),
                        ast,
                        allows,
                        bad_pragmas,
                    });
                }
                Err(e) => errors.push((f.rel_path.clone(), e.to_string())),
            }
        }
        (ws, errors)
    }

    /// All fns named `name` on type `self_ty` (`None` = free fns).
    pub fn methods_of(&self, self_ty: &str, name: &str) -> Vec<FnId> {
        self.fns
            .iter()
            .filter(|f| f.self_ty.as_deref() == Some(self_ty) && f.name == name)
            .map(|f| f.id)
            .collect()
    }

    /// All fns named `name` anywhere (method or free).
    pub fn fns_named(&self, name: &str) -> Vec<FnId> {
        self.fns
            .iter()
            .filter(|f| f.name == name)
            .map(|f| f.id)
            .collect()
    }

    /// Declared type of `ty_name.field`, if known.
    pub fn field_ty(&self, ty_name: &str, field: &str) -> Option<&Ty> {
        self.structs
            .get(ty_name)?
            .fields
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, t)| t)
    }

    fn index_items(
        &mut self,
        items: &[Item],
        crate_key: &str,
        rel_path: &str,
        self_ty: Option<&str>,
        in_test: bool,
    ) {
        for item in items {
            let gated = in_test || item.attrs.iter().any(Attr::is_test_gate);
            match &item.kind {
                ItemKind::Fn(def) => {
                    let id = self.fns.len();
                    self.fns.push(FnInfo {
                        id,
                        crate_key: crate_key.to_string(),
                        rel_path: rel_path.to_string(),
                        name: def.name.clone(),
                        self_ty: self_ty.map(str::to_string),
                        in_test: gated,
                        def: def.clone(),
                    });
                }
                ItemKind::Struct { name, fields } => {
                    self.structs
                        .entry(name.clone())
                        .or_insert_with(|| StructInfo {
                            crate_key: crate_key.to_string(),
                            fields: fields
                                .iter()
                                .map(|f| (f.name.clone(), f.ty.clone()))
                                .collect(),
                        });
                }
                ItemKind::Enum { name, .. } => {
                    self.enums.insert(name.clone());
                }
                ItemKind::Impl {
                    self_ty: ty, items, ..
                } => {
                    let head = ty.head().unwrap_or("?");
                    self.index_items(items, crate_key, rel_path, Some(head), gated);
                }
                ItemKind::Trait { items, .. } => {
                    // Default trait methods: indexed without a self type —
                    // resolution falls back to name matching.
                    self.index_items(items, crate_key, rel_path, None, gated);
                }
                ItemKind::Mod {
                    items: Some(items), ..
                } => {
                    self.index_items(items, crate_key, rel_path, self_ty, gated);
                }
                ItemKind::ExternBlock { items } => {
                    self.index_items(items, crate_key, rel_path, None, gated);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(key: &str, src: &str) -> InputFile {
        InputFile {
            rel_path: format!("crates/{key}/src/lib.rs"),
            crate_key: key.to_string(),
            src: src.to_string(),
        }
    }

    #[test]
    fn indexes_fns_structs_and_test_gating() {
        let files = [input(
            "cache",
            "pub struct S { pub cycles: u64 }\n\
             impl S { pub fn get(&self) -> u64 { self.cycles } }\n\
             fn free() {}\n\
             #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }",
        )];
        let (ws, errs) = Workspace::build(&files);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(ws.fns.len(), 4);
        let get = &ws.fns[ws.methods_of("S", "get")[0]];
        assert!(!get.in_test);
        assert_eq!(get.qual_name(), "S::get");
        let helper = &ws.fns[ws.fns_named("helper")[0]];
        assert!(helper.in_test);
        let t = &ws.fns[ws.fns_named("t")[0]];
        assert!(t.in_test);
        assert_eq!(ws.field_ty("S", "cycles").and_then(Ty::head), Some("u64"));
    }

    #[test]
    fn only_test_only_cfgs_gate_test_scope() {
        // `not(test)` and `any(test, …)` items are compiled into
        // production builds, also when nested in `all(..)`: every rule
        // must still see them. `test` as an argument of `all` gates.
        let files = [input(
            "core",
            "#[cfg(not(test))] fn prod() {}\n\
             #[cfg(any(test, feature = \"x\"))] fn both() {}\n\
             #[cfg(all(not(test), unix))] fn unix_prod() {}\n\
             #[cfg(all(test, unix))] fn unix_test() {}\n\
             #[cfg(all(any(test, fuzzing), unix))] fn fuzz_unix() {}\n\
             #[cfg(all(test, not(feature = \"invariants\")))] fn plain_test() {}\n\
             #[test] fn t() {}",
        )];
        let (ws, errs) = Workspace::build(&files);
        assert!(errs.is_empty(), "{errs:?}");
        let gated = |name: &str| ws.fns[ws.fns_named(name)[0]].in_test;
        assert!(!gated("prod"));
        assert!(!gated("both"));
        assert!(!gated("unix_prod"));
        assert!(gated("unix_test"));
        assert!(!gated("fuzz_unix"));
        assert!(gated("plain_test"));
        assert!(gated("t"));
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let files = [input("core", "fn ok() {}"), input("mem", "fn broken( {")];
        let (ws, errs) = Workspace::build(&files);
        assert_eq!(ws.fns.len(), 1);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].0.contains("mem"));
    }
}
