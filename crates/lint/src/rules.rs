//! The workspace rules: D1–D5 plus pragma validation.
//!
//! Each rule is a pattern over the lexed token stream of one file. The
//! rules are deliberately conservative approximations — no type inference,
//! no macro expansion — tuned so that on *this* workspace they have no
//! false positives, and written so that a false negative requires actively
//! hiding the construct (which code review would catch). Escapes go
//! through an inline pragma that must carry a justification:
//!
//! ```text
//! // lint: allow(D3, "f64 mantissa covers every reachable cycle count")
//! ```
//!
//! The pragma suppresses the named rule on its own line and the line
//! directly below it.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// Identifier of one lint rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleId {
    /// No iteration over `HashMap`/`HashSet` in simulation crates:
    /// iteration order is randomized per process, so any order-dependent
    /// use (victim selection, output, accumulation over floats) makes
    /// sweep output nondeterministic.
    D1,
    /// No `SystemTime` / `Instant` / `thread_rng` in simulation logic:
    /// wall-clock and ambient randomness break replayability.
    D2,
    /// No bare `as` numeric casts in `mlpsim-core` cost/quantization code:
    /// silent truncation/rounding in the cost model must be spelled as a
    /// checked or documented conversion.
    D3,
    /// No `unwrap()` / `panic!` outside test code: library and CLI code
    /// must surface errors (`expect` with a proof-of-impossibility string
    /// is the sanctioned form for genuine invariants).
    D4,
    /// Every `probe.emit(..)` call must sit under an `if` whose condition
    /// names `ENABLED` (the `P::ENABLED` const-bool gate): an unguarded
    /// emission builds its event payload even in `NoProbe` builds, which
    /// breaks the zero-cost-when-off telemetry contract.
    D5,
    /// A file that accepts sockets (`.accept(`/`.incoming(`) outside tests
    /// must also arm a read timeout (`set_read_timeout`, or the workspace
    /// helper `arm_read_timeout`) outside tests: a blocking read on an
    /// accepted connection with no timeout lets one stalled client hang a
    /// server thread forever.
    D6,
    /// Overflow hazard: bare `+`/`-`/`*`/`<<` on cycle/address/timestamp
    /// values in the timing crates must be `wrapping_`/`saturating_`/
    /// `checked_` (or carry a `lint: bounded` pragma with a justification).
    /// AST rule — see [`crate::dataflow`].
    D7,
    /// Panic reachability: no function transitively reachable from a
    /// `serve` request handler may panic (`panic!`/`unwrap`/`expect`/
    /// slice-index). Call-graph rule — see [`crate::dataflow`].
    D8,
    /// Clock taint: values derived from `prof::now_ns()` must not flow
    /// into `SimResult` or any event payload (anything the determinism
    /// CI diffs). Taint rule — see [`crate::dataflow`].
    D9,
    /// Concurrency-order audit: atomics on one telemetry cell must pair
    /// store/load `Ordering`s consistently, and `serve` must not acquire
    /// the same two locks in opposite nesting orders. See
    /// [`crate::dataflow`].
    D10,
    /// Structured logging: inside `crates/serve` request-path code, no
    /// bare `eprintln!` — every stderr line must go through the
    /// `serve::log` helpers so it is one parseable JSON document carrying
    /// the request's trace id. `log.rs` itself (the single sanctioned
    /// write site), the CLI binaries under `bin/`, the client library,
    /// and test code are exempt.
    D11,
    /// A `lint: allow` / `lint: bounded` pragma that is malformed
    /// (unknown rule or missing justification string).
    Pragma,
}

impl RuleId {
    /// Stable name used in diagnostics and pragmas.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
            RuleId::D8 => "D8",
            RuleId::D9 => "D9",
            RuleId::D10 => "D10",
            RuleId::D11 => "D11",
            RuleId::Pragma => "pragma",
        }
    }

    fn from_name(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "D6" => Some(RuleId::D6),
            "D7" => Some(RuleId::D7),
            "D8" => Some(RuleId::D8),
            "D9" => Some(RuleId::D9),
            "D10" => Some(RuleId::D10),
            "D11" => Some(RuleId::D11),
            _ => None,
        }
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// 1-based line.
    pub line: u32,
    pub rule: RuleId,
    pub msg: String,
}

/// Which crate (by directory key: `cache`, `core`, …) a file belongs to,
/// gating rule applicability.
#[derive(Clone, Copy, Debug)]
pub struct FileScope<'a> {
    /// Directory name under `crates/` (the root package is `mlpsim`).
    pub crate_key: &'a str,
    /// Workspace-relative path — D11 uses it to exempt the serve crate's
    /// log helper, client library, and `bin/` CLIs from the
    /// structured-logging requirement.
    pub rel_path: &'a str,
}

/// Crates whose state feeds victim selection or sweep output (D1).
const D1_CRATES: &[&str] = &["cache", "core", "mem", "exec"];
/// Crates that constitute simulation logic (D2). `telemetry` is included
/// so wall-clock reads in core crates go only through the audited
/// `telemetry::prof` clock shim, whose own `Instant` uses carry allow
/// pragmas. `model` is included because the analytical estimators must be
/// as deterministic as the simulator they stand in for — a planner that
/// prunes different cells on different hosts is a reproducibility bug.
const D2_CRATES: &[&str] = &[
    "cache",
    "core",
    "mem",
    "cpu",
    "exec",
    "trace",
    "telemetry",
    "model",
];
/// Crates holding the paper's cost/quantization model (D3).
const D3_CRATES: &[&str] = &["core"];

/// Map/set iteration methods whose order is nondeterministic.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Primitive numeric targets of `as` casts, plus the workspace's own
/// numeric alias for the 3-bit quantized cost.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "CostQ",
];

/// Wall-clock / ambient-randomness identifiers banned by D2.
const D2_IDENTS: &[&str] = &["SystemTime", "Instant", "thread_rng"];

/// Runs every applicable rule on one file and returns its diagnostics,
/// pragma-suppressed and sorted by line.
pub fn check_file(scope: FileScope<'_>, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let in_test = test_mask(&lexed.tokens);
    let (allows, mut diags) = parse_pragmas(&lexed.comments);

    if D1_CRATES.contains(&scope.crate_key) {
        rule_d1(&lexed.tokens, &in_test, &mut diags);
    }
    if D2_CRATES.contains(&scope.crate_key) {
        rule_d2(&lexed.tokens, &in_test, &mut diags);
    }
    if D3_CRATES.contains(&scope.crate_key) {
        rule_d3(&lexed.tokens, &in_test, &mut diags);
    }
    rule_d4(&lexed.tokens, &in_test, &mut diags);
    let under_enabled = enabled_mask(&lexed.tokens);
    rule_d5(&lexed.tokens, &in_test, &under_enabled, &mut diags);
    rule_d6(&lexed.tokens, &in_test, &mut diags);
    if scope.crate_key == "serve" && !d11_exempt(scope.rel_path) {
        rule_d11(&lexed.tokens, &in_test, &mut diags);
    }

    // Apply pragma suppression: an allow on line L covers L and L+1.
    diags.retain(|d| {
        !allows
            .iter()
            .any(|(line, rule)| *rule == d.rule && (d.line == *line || d.line == *line + 1))
    });
    diags.sort_by_key(|d| d.line);
    diags.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    diags
}

/// For each token, whether it sits inside a `#[cfg(test)]`-gated block.
/// Detection: the exact attribute token sequence, then the next `{` opens
/// the region (a `;` first — e.g. a gated `use` — cancels it, gating only
/// that statement, which the mask approximates as not-test; no such forms
/// exist in this workspace).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    let mut pending = false;
    // Depth at which each active test region opened.
    let mut regions: Vec<i32> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if is_cfg_test_at(tokens, i) {
            pending = true;
        }
        match t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                if pending {
                    regions.push(depth);
                    pending = false;
                }
            }
            TokenKind::Punct('}') => {
                if regions.last().is_some_and(|d| *d == depth) {
                    regions.pop();
                }
                depth -= 1;
            }
            TokenKind::Punct(';') if pending && !attr_open(tokens, i) => {
                pending = false;
            }
            _ => {}
        }
        mask[i] = !regions.is_empty();
    }
    mask
}

/// Does the token at `i` start the sequence `# [ cfg ( test ) ]`?
fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    let expect: [&dyn Fn(&TokenKind) -> bool; 7] = [
        &|k| *k == TokenKind::Punct('#'),
        &|k| *k == TokenKind::Punct('['),
        &|k| matches!(k, TokenKind::Ident(s) if s == "cfg"),
        &|k| *k == TokenKind::Punct('('),
        &|k| matches!(k, TokenKind::Ident(s) if s == "test"),
        &|k| *k == TokenKind::Punct(')'),
        &|k| *k == TokenKind::Punct(']'),
    ];
    tokens.len() >= i + expect.len()
        && expect
            .iter()
            .zip(&tokens[i..])
            .all(|(want, tok)| want(&tok.kind))
}

/// For each token, whether it sits inside a block opened by an `if`
/// whose condition names `ENABLED` (the `P::ENABLED` telemetry gate).
/// Same brace-region machinery as [`test_mask`]: the `if` header is
/// scanned up to its `{` (a `;` cancels — no such header exists here);
/// compound conditions (`P::ENABLED && new_samples > 0`) count, because
/// the gate still short-circuits the emission.
fn enabled_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    let mut pending = false;
    let mut regions: Vec<i32> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if ident(t) == Some("if") {
            for tok in &tokens[i + 1..tokens.len().min(i + 30)] {
                match &tok.kind {
                    TokenKind::Punct('{' | ';') => break,
                    TokenKind::Ident(s) if s == "ENABLED" => {
                        pending = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        match t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                if pending {
                    regions.push(depth);
                    pending = false;
                }
            }
            TokenKind::Punct('}') => {
                if regions.last().is_some_and(|d| *d == depth) {
                    regions.pop();
                }
                depth -= 1;
            }
            TokenKind::Punct(';') => pending = false,
            _ => {}
        }
        mask[i] = !regions.is_empty();
    }
    mask
}

/// Whether token `i` is still inside an attribute's `[...]` (so a `;`
/// there must not cancel a pending test region). Cheap scan backwards for
/// an unclosed `[`.
fn attr_open(tokens: &[Token], i: usize) -> bool {
    let mut depth = 0i32;
    for t in tokens[..i].iter().rev().take(64) {
        match t.kind {
            TokenKind::Punct(']') => depth += 1,
            TokenKind::Punct('[') => {
                if depth == 0 {
                    return true;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    false
}

/// Parses allow-pragmas (format in the module docs) out of comments.
/// Returns the allow list and diagnostics for malformed pragmas.
///
/// Two forms, both after the `lint:` comment marker (spelled out here
/// without the marker so the linter does not read its own docs as
/// pragmas):
/// - `allow(D<n>, "justification")` — suppresses rule D\<n\> on this
///   line and the next.
/// - `bounded("justification")` — D7's dedicated escape for arithmetic
///   whose bound is proven in the justification; recorded as an allow
///   for [`RuleId::D7`].
pub(crate) fn parse_pragmas(comments: &[Comment]) -> (Vec<(u32, RuleId)>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        if let Some(at) = c.text.find("lint: bounded(") {
            let rest = &c.text[at + "lint: bounded(".len()..];
            let ok = rest
                .split_once('"')
                .and_then(|(_, s)| s.split_once('"'))
                .map(|(just, _)| !just.trim().is_empty())
                .unwrap_or(false);
            if ok {
                allows.push((c.line, RuleId::D7));
            } else {
                diags.push(Diagnostic {
                    line: c.line,
                    rule: RuleId::Pragma,
                    msg: "malformed lint pragma: empty or missing justification string (want \
                          `lint: bounded(\"reason\")`)"
                        .to_string(),
                });
            }
            continue;
        }
        let Some(at) = c.text.find("lint: allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint: allow(".len()..];
        let bad = |msg: &str| Diagnostic {
            line: c.line,
            rule: RuleId::Pragma,
            msg: format!("malformed lint pragma: {msg} (want `lint: allow(D<n>, \"reason\")`)"),
        };
        let Some((rule_name, after)) = rest.split_once(',') else {
            diags.push(bad("missing `, \"justification\"`"));
            continue;
        };
        let Some(rule) = RuleId::from_name(rule_name.trim()) else {
            diags.push(bad(&format!("unknown rule {:?}", rule_name.trim())));
            continue;
        };
        // Justification: a non-empty double-quoted string before `)`.
        let ok = after
            .split_once('"')
            .and_then(|(_, s)| s.split_once('"'))
            .map(|(just, _)| !just.trim().is_empty())
            .unwrap_or(false);
        if !ok {
            diags.push(bad("empty or missing justification string"));
            continue;
        }
        allows.push((c.line, rule));
    }
    (allows, diags)
}

fn ident(t: &Token) -> Option<&str> {
    match &t.kind {
        TokenKind::Ident(s) => Some(s),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct(c)
}

/// D1 — collect names bound to `HashMap`/`HashSet` (field and `let`
/// declarations), then flag order-sensitive iteration over them: the
/// unordered-iteration methods and `for … in` headers naming them.
fn rule_d1(tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let mut names: Vec<String> = Vec::new();

    // `name: … HashMap<…>` (struct fields, typed lets, fn params).
    for i in 0..tokens.len() {
        let Some(name) = ident(&tokens[i]) else {
            continue;
        };
        if name == "let" {
            // `let [mut] name … = HashMap::new()` — scan the statement.
            let mut j = i + 1;
            if j < tokens.len() && ident(&tokens[j]) == Some("mut") {
                j += 1;
            }
            let Some(bound) = ident(&tokens[j.min(tokens.len() - 1)]) else {
                continue;
            };
            let mut k = j + 1;
            let mut hit = false;
            while k < tokens.len() && k < j + 60 && !is_punct(&tokens[k], ';') {
                if matches!(ident(&tokens[k]), Some("HashMap" | "HashSet")) {
                    hit = true;
                    break;
                }
                k += 1;
            }
            if hit {
                names.push(bound.to_string());
            }
            continue;
        }
        // `name :` but not `name ::` and not `:: name :`.
        if i + 2 < tokens.len()
            && is_punct(&tokens[i + 1], ':')
            && !is_punct(&tokens[i + 2], ':')
            && (i == 0 || !is_punct(&tokens[i - 1], ':'))
        {
            let mut angle = 0i32;
            for tok in &tokens[i + 2..tokens.len().min(i + 40)] {
                match &tok.kind {
                    TokenKind::Ident(s) if s == "HashMap" || s == "HashSet" => {
                        names.push(name.to_string());
                        break;
                    }
                    TokenKind::Punct('<') => angle += 1,
                    TokenKind::Punct('>') => angle -= 1,
                    TokenKind::Punct(',') if angle <= 0 => break,
                    TokenKind::Punct(';' | '=' | ')' | '{' | '}') => break,
                    _ => {}
                }
            }
        }
    }
    if names.is_empty() {
        return;
    }

    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        let Some(name) = ident(&tokens[i]) else {
            continue;
        };
        // `name.iter()` and friends.
        if names.iter().any(|n| n == name) && i + 2 < tokens.len() && is_punct(&tokens[i + 1], '.')
        {
            if let Some(m) = ident(&tokens[i + 2]) {
                if ITER_METHODS.contains(&m) {
                    diags.push(Diagnostic {
                        line: tokens[i + 2].line,
                        rule: RuleId::D1,
                        msg: format!(
                            "iteration over unordered map/set `{name}.{m}()` — order is \
                             nondeterministic; use a Vec/BTreeMap or sort before iterating"
                        ),
                    });
                }
            }
        }
        // `for … in <header naming a map> {`. The `in` must actually be
        // found before a `{`/`;`: `impl Trait for Type` also contains a
        // `for` token, and without this check the scan window can drift
        // into unrelated statements and flag a declaration.
        if name == "for" {
            let mut j = i + 1;
            let mut found_in = false;
            while j < tokens.len().min(i + 30) {
                if ident(&tokens[j]) == Some("in") {
                    found_in = true;
                    break;
                }
                if is_punct(&tokens[j], '{') || is_punct(&tokens[j], ';') {
                    break;
                }
                j += 1;
            }
            if !found_in {
                continue;
            }
            for tok in &tokens[j..tokens.len().min(j + 30)] {
                if is_punct(tok, '{') {
                    break;
                }
                if let Some(h) = ident(tok) {
                    if names.iter().any(|n| n == h) {
                        diags.push(Diagnostic {
                            line: tok.line,
                            rule: RuleId::D1,
                            msg: format!(
                                "`for` loop over unordered map/set `{h}` — order is \
                                 nondeterministic; collect and sort first"
                            ),
                        });
                        break;
                    }
                }
            }
        }
    }
}

/// D2 — any appearance of a wall-clock or ambient-randomness identifier
/// (importing one into simulation logic is already a bug).
fn rule_d2(tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if let Some(s) = ident(t) {
            if D2_IDENTS.contains(&s) {
                diags.push(Diagnostic {
                    line: t.line,
                    rule: RuleId::D2,
                    msg: format!(
                        "`{s}` in simulation logic — wall-clock time and ambient randomness \
                         break replay determinism; thread cycle counts / seeded RNGs instead"
                    ),
                });
            }
        }
    }
}

/// D3 — `as <numeric-type>` outside tests.
fn rule_d3(tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len().saturating_sub(1) {
        if in_test[i] {
            continue;
        }
        if ident(&tokens[i]) == Some("as") {
            if let Some(ty) = ident(&tokens[i + 1]) {
                if NUMERIC_TYPES.contains(&ty) {
                    diags.push(Diagnostic {
                        line: tokens[i].line,
                        rule: RuleId::D3,
                        msg: format!(
                            "bare `as {ty}` cast in cost/quantization code — use `From`/\
                             `TryFrom` or a documented helper from `mlpsim_core::convert`"
                        ),
                    });
                }
            }
        }
    }
}

/// D4 — `.unwrap()` calls and `panic!` invocations outside tests.
fn rule_d4(tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        match ident(&tokens[i]) {
            Some("unwrap")
                if i > 0
                    && is_punct(&tokens[i - 1], '.')
                    && i + 2 < tokens.len()
                    && is_punct(&tokens[i + 1], '(')
                    && is_punct(&tokens[i + 2], ')') =>
            {
                diags.push(Diagnostic {
                    line: tokens[i].line,
                    rule: RuleId::D4,
                    msg: "`.unwrap()` outside tests — return an error, or use `expect(..)` \
                          with a proof the failure is impossible"
                        .to_string(),
                });
            }
            Some("panic") if i + 1 < tokens.len() && is_punct(&tokens[i + 1], '!') => {
                diags.push(Diagnostic {
                    line: tokens[i].line,
                    rule: RuleId::D4,
                    msg: "`panic!` outside tests — return an error instead (asserts with \
                          documented invariants use `assert!`/`debug_assert!`)"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// D5 — `probe.emit(..)` outside an `if …ENABLED…` region and outside
/// tests. The pattern is the token sequence `probe . emit (`, which also
/// matches `self.probe.emit(..)`; runtime-gated `sink.emit` handles are a
/// different mechanism and exempt.
fn rule_d5(
    tokens: &[Token],
    in_test: &[bool],
    under_enabled: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for i in 2..tokens.len().saturating_sub(1) {
        if in_test[i] || under_enabled[i] {
            continue;
        }
        if ident(&tokens[i]) == Some("emit")
            && is_punct(&tokens[i - 1], '.')
            && ident(&tokens[i - 2]) == Some("probe")
            && is_punct(&tokens[i + 1], '(')
        {
            diags.push(Diagnostic {
                line: tokens[i].line,
                rule: RuleId::D5,
                msg: "`probe.emit(..)` outside an `if P::ENABLED` guard — the event payload \
                      is built even in NoProbe builds; wrap the emission in the const gate"
                    .to_string(),
            });
        }
    }
}

/// D6 — socket accepts without a read timeout anywhere in the file. The
/// pattern `.accept(` / `.incoming(` marks the accept path; the file must
/// then also name `set_read_timeout` (or the workspace wrapper
/// `arm_read_timeout`) outside tests. File granularity is the right
/// approximation here: the timeout call sits on the accepted stream a few
/// lines from the accept, or in a helper the same file defines/calls.
fn rule_d6(tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    let has_timeout = tokens.iter().enumerate().any(|(i, t)| {
        !in_test[i] && matches!(ident(t), Some("set_read_timeout" | "arm_read_timeout"))
    });
    if has_timeout {
        return;
    }
    for i in 1..tokens.len().saturating_sub(1) {
        if in_test[i] {
            continue;
        }
        let Some(m) = ident(&tokens[i]) else {
            continue;
        };
        if (m == "accept" || m == "incoming")
            && is_punct(&tokens[i - 1], '.')
            && is_punct(&tokens[i + 1], '(')
        {
            diags.push(Diagnostic {
                line: tokens[i].line,
                rule: RuleId::D6,
                msg: format!(
                    "`.{m}(..)` with no read timeout in this file — a blocking read on an \
                     accepted socket can hang on a stalled client; call `set_read_timeout` \
                     (or `http::arm_read_timeout`) on every accepted stream"
                ),
            });
        }
    }
}

/// Files inside `crates/serve` that D11 does not cover: the log helper
/// is the sanctioned `eprintln!` site, the `bin/` CLIs and the client
/// library write user-facing output, not server request-path logs.
fn d11_exempt(rel_path: &str) -> bool {
    rel_path.contains("/bin/") || rel_path.ends_with("/client.rs") || rel_path.ends_with("/log.rs")
}

/// D11 — bare `eprintln!` in serve request-path code outside tests:
/// stderr lines from the server must be the structured JSON documents
/// `serve::log` emits, so they parse and carry the request's trace id.
fn rule_d11(tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len().saturating_sub(1) {
        if in_test[i] {
            continue;
        }
        if ident(&tokens[i]) == Some("eprintln") && is_punct(&tokens[i + 1], '!') {
            diags.push(Diagnostic {
                line: tokens[i].line,
                rule: RuleId::D11,
                msg: "bare `eprintln!` in the serve request path — emit through \
                      `log::access` / `log::server_event` so the line is structured \
                      JSON carrying the trace id"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(crate_key: &str, src: &str) -> Vec<Diagnostic> {
        check_path(crate_key, &format!("crates/{crate_key}/src/lib.rs"), src)
    }

    fn check_path(crate_key: &str, rel_path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(
            FileScope {
                crate_key,
                rel_path,
            },
            src,
        )
    }

    fn rules(diags: &[Diagnostic]) -> Vec<RuleId> {
        diags.iter().map(|d| d.rule).collect()
    }

    // ---- planted violations: each rule must catch its construct ----

    #[test]
    fn d1_catches_field_map_iteration() {
        let src = "
            struct S { pending: HashMap<u64, u32> }
            impl S {
                fn f(&self) { for (k, v) in self.pending.iter() { use_it(k, v); } }
            }
        ";
        let d = check("core", src);
        assert!(rules(&d).contains(&RuleId::D1), "{d:?}");
    }

    #[test]
    fn d1_catches_for_over_let_binding() {
        let src = "
            fn f() {
                let mut seen = HashSet::new();
                for x in &seen { use_it(x); }
            }
        ";
        assert!(rules(&check("cache", src)).contains(&RuleId::D1));
    }

    #[test]
    fn d1_catches_drain_and_retain() {
        let src = "
            struct S { credits: std::collections::HashMap<u64, u8> }
            impl S {
                fn a(&mut self) { self.credits.retain(|_, c| *c > 0); }
                fn b(&mut self) { let _ = self.credits.drain(); }
            }
        ";
        let d = check("mem", src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn d1_ignores_point_lookups_and_other_crates() {
        let src = "
            struct S { pending: HashMap<u64, u32> }
            impl S {
                fn f(&mut self, k: u64) {
                    self.pending.entry(k).or_default();
                    self.pending.remove(&k);
                    let _ = self.pending.get(&k);
                }
            }
        ";
        assert!(check("core", src).is_empty());
        // Same iteration, but in a crate outside D1's scope.
        let iter = "
            struct S { pending: HashMap<u64, u32> }
            impl S { fn f(&self) { for x in self.pending.keys() { use_it(x); } } }
        ";
        assert!(check("analysis", iter).is_empty());
    }

    #[test]
    fn d1_ignores_impl_trait_for() {
        // `impl Default for …` contains a `for` token; the for-loop scan
        // must not drift past it into a field declaration naming a map.
        let src = "
            struct E { credits: HashMap<u64, u8> }
            impl Default for E {
                fn default() -> E {
                    E { credits: HashMap::new() }
                }
            }
        ";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn d1_ignores_vec_iteration() {
        let src = "
            struct S { ways: Vec<u8>, pending: HashMap<u64, u32> }
            impl S { fn f(&self) { for w in self.ways.iter() { use_it(w); } } }
        ";
        assert!(check("cache", src).is_empty());
    }

    #[test]
    fn d2_catches_wall_clock_and_rng() {
        for planted in [
            "use std::time::Instant; fn f() { let t = Instant::now(); }",
            "fn f() { let t = std::time::SystemTime::now(); }",
            "fn f() { let r = rand::thread_rng(); }",
        ] {
            let d = check("cpu", planted);
            assert!(rules(&d).contains(&RuleId::D2), "{planted}");
        }
        // Experiments may time things.
        assert!(check("experiments", "fn f() { let t = Instant::now(); }").is_empty());
    }

    #[test]
    fn d2_covers_the_model_crate() {
        // The analytical estimators stand in for the simulator; a wall
        // clock or ambient RNG there makes planner decisions irreproducible.
        for planted in [
            "use std::time::Instant; fn f() { let t = Instant::now(); }",
            "fn f() { let r = rand::thread_rng(); }",
        ] {
            assert!(
                rules(&check("model", planted)).contains(&RuleId::D2),
                "{planted}"
            );
        }
    }

    #[test]
    fn d2_covers_telemetry_except_through_the_pragma() {
        // The telemetry crate is inside D2's scope: a bare wall-clock
        // read there is flagged like in any simulation crate...
        let planted = "use std::time::Instant; fn f() { let t = Instant::now(); }";
        assert!(rules(&check("telemetry", planted)).contains(&RuleId::D2));
        // ...and the prof clock shim's audited sites pass only because
        // they carry the allow pragma.
        let shimmed = "
            // lint: allow(D2, \"prof clock shim: the audited wall-clock import\")
            use std::time::Instant;
            fn now_ns() -> u64 {
                // lint: allow(D2, \"prof clock shim: the one sanctioned Instant::now\")
                let t = Instant::now();
                0
            }
        ";
        assert!(check("telemetry", shimmed).is_empty());
    }

    #[test]
    fn d3_catches_bare_numeric_casts_in_core_only() {
        let src = "fn f(x: u64) -> f64 { x as f64 }";
        assert!(rules(&check("core", src)).contains(&RuleId::D3));
        assert!(check("cache", src).is_empty());
        // Non-numeric casts are fine.
        assert!(check("core", "fn f(x: &T) { let _ = x as &dyn Trait; }").is_empty());
    }

    #[test]
    fn d4_catches_unwrap_and_panic() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules(&check("trace", src)).contains(&RuleId::D4));
        let src = "fn f() { panic!(\"boom\"); }";
        assert!(rules(&check("telemetry", src)).contains(&RuleId::D4));
        // expect/unwrap_or are sanctioned.
        let ok = "fn f(x: Option<u8>) -> u8 { x.expect(\"proof\").min(x.unwrap_or(1)) }";
        assert!(check("trace", ok).is_empty());
    }

    #[test]
    fn d5_catches_unguarded_probe_emit() {
        let src = "
            impl<P: Probe> System<P> {
                fn f(&mut self) { self.probe.emit(Event::Stall { cycle: 1, len: 2 }); }
            }
        ";
        let d = check("cpu", src);
        assert_eq!(rules(&d), vec![RuleId::D5], "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn d5_accepts_guarded_emissions() {
        let src = "
            impl<P: Probe> System<P> {
                fn plain(&mut self) {
                    if P::ENABLED {
                        self.probe.emit(Event::Stall { cycle: 1, len: 2 });
                    }
                }
                fn compound(&mut self, fresh: usize) {
                    if P::ENABLED && fresh > 0 {
                        for _ in 0..fresh { self.probe.emit(Event::Stall { cycle: 1, len: 2 }); }
                    }
                }
            }
        ";
        assert!(check("cpu", src).is_empty());
    }

    #[test]
    fn d5_flags_emission_after_the_guard_closes() {
        let src = "
            fn f(&mut self) {
                if P::ENABLED { self.probe.emit(a()); }
                self.probe.emit(b());
            }
        ";
        let d = check("cpu", src);
        assert_eq!(rules(&d), vec![RuleId::D5], "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn d5_ignores_sink_handles_and_tests() {
        // SinkHandle::emit is runtime-gated — not this rule's target.
        let src = "fn f(&mut self) { self.sink.emit(ev()); }";
        assert!(check("core", src).is_empty());
        let test_src = "
            #[cfg(test)]
            mod tests {
                fn t() { probe.emit(ev()); }
            }
        ";
        assert!(check("cpu", test_src).is_empty());
    }

    #[test]
    fn d5_pragma_escape_works() {
        let src = "
            fn f(&mut self) {
                // lint: allow(D5, \"bench harness measures the unguarded path\")
                self.probe.emit(ev());
            }
        ";
        assert!(check("cpu", src).is_empty());
    }

    #[test]
    fn d6_catches_accept_without_read_timeout() {
        let src = "
            fn serve(listener: &TcpListener) {
                loop {
                    let (stream, _) = match listener.accept() {
                        Ok(pair) => pair,
                        Err(_) => continue,
                    };
                    handle(stream);
                }
            }
        ";
        let d = check("serve", src);
        assert_eq!(rules(&d), vec![RuleId::D6], "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn d6_catches_incoming_iterator_too() {
        let src = "
            fn serve(listener: TcpListener) {
                for stream in listener.incoming() { handle(stream); }
            }
        ";
        assert!(rules(&check("serve", src)).contains(&RuleId::D6));
    }

    #[test]
    fn d6_accepts_files_that_arm_a_timeout() {
        let direct = "
            fn serve(listener: &TcpListener) {
                let (stream, _) = listener.accept().expect(\"accept\");
                stream.set_read_timeout(Some(TIMEOUT)).expect(\"sockopt\");
                handle(stream);
            }
        ";
        assert!(check("serve", direct).is_empty());
        let via_helper = "
            fn serve(listener: &TcpListener) {
                let (stream, _) = listener.accept().expect(\"accept\");
                if http::arm_read_timeout(&stream, 5_000).is_err() { return; }
                handle(stream);
            }
        ";
        assert!(check("serve", via_helper).is_empty());
    }

    #[test]
    fn d6_ignores_test_code_and_non_socket_accepts() {
        let test_src = "
            #[cfg(test)]
            mod tests {
                fn t() { let (s, _) = listener.accept().unwrap(); use_it(s); }
            }
        ";
        assert!(check("serve", test_src).is_empty());
        // A method *named* accept that is not called on a receiver is not
        // the accept loop (e.g. visitor pattern `accept(&mut v)`).
        assert!(check("core", "fn f(v: &mut V) { accept(v); }").is_empty());
    }

    #[test]
    fn d6_pragma_escape_works() {
        let src = "
            fn serve(listener: &TcpListener) {
                // lint: allow(D6, \"stdin-driven oneshot; peer is the test harness\")
                let (stream, _) = listener.accept().expect(\"accept\");
                handle(stream);
            }
        ";
        assert!(check("serve", src).is_empty());
    }

    #[test]
    fn d11_catches_bare_eprintln_in_serve() {
        let src = "
            fn handle(id: u64) {
                eprintln!(\"job {id} failed\");
            }
        ";
        let d = check_path("serve", "crates/serve/src/server.rs", src);
        assert_eq!(rules(&d), vec![RuleId::D11], "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn d11_accepts_structured_logging() {
        let src = "
            fn handle(id: u64) {
                log::server_event(None, \"job_failed\", &format!(\"job {id}\"));
            }
        ";
        assert!(check_path("serve", "crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn d11_exempts_log_helper_bins_client_and_tests() {
        let src = "fn f() { eprintln!(\"usage: ...\"); }";
        assert!(check_path("serve", "crates/serve/src/log.rs", src).is_empty());
        assert!(check_path("serve", "crates/serve/src/bin/client.rs", src).is_empty());
        assert!(check_path("serve", "crates/serve/src/client.rs", src).is_empty());
        // Other crates' stderr writes are not this rule's business.
        assert!(check_path("experiments", "crates/experiments/src/cli.rs", src).is_empty());
        // Test code inside serve may print freely.
        let test_src = "
            #[cfg(test)]
            mod tests {
                fn t() { eprintln!(\"debugging a test\"); }
            }
        ";
        assert!(check_path("serve", "crates/serve/src/state.rs", test_src).is_empty());
    }

    #[test]
    fn d11_pragma_escape_works() {
        let src = "
            fn f() {
                // lint: allow(D11, \"panic hook runs after the logger is torn down\")
                eprintln!(\"last gasp\");
            }
        ";
        assert!(check_path("serve", "crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "
            fn lib() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let x: Option<u8> = None;
                    x.unwrap();
                    panic!(\"fine in tests\");
                    let t = Instant::now();
                    let m: HashMap<u8, u8> = HashMap::new();
                    for y in m.keys() { let _ = y as u64; }
                }
            }
        ";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_checked_again() {
        let src = "
            #[cfg(test)]
            mod tests { fn t() { x.unwrap(); } }
            fn lib(x: Option<u8>) -> u8 { x.unwrap() }
        ";
        let d = check("mem", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::D4);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn doc_comments_and_strings_never_trip_rules() {
        let src = "
            /// Example: `x.unwrap()` then `panic!`, `Instant::now()`.
            fn f() { let s = \"x.unwrap() panic! Instant thread_rng\"; use_it(s); }
        ";
        assert!(check("core", src).is_empty());
    }

    // ---- pragmas ----

    #[test]
    fn pragma_suppresses_next_line_only() {
        let src = "
            fn f(x: Option<u8>) -> u8 {
                // lint: allow(D4, \"demo justification\")
                x.unwrap()
            }
            fn g(x: Option<u8>) -> u8 { x.unwrap() }
        ";
        let d = check("cpu", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn pragma_on_same_line_works() {
        let src = "fn f(x: u64) -> f64 { x as f64 } // lint: allow(D3, \"mantissa proof\")";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn pragma_requires_justification() {
        for bad in [
            "fn f() {} // lint: allow(D4)",
            "fn f() {} // lint: allow(D4, \"\")",
            "fn f() {} // lint: allow(D99, \"no such rule\")",
        ] {
            let d = check("core", bad);
            assert_eq!(rules(&d), vec![RuleId::Pragma], "{bad}");
        }
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src = "
            // lint: allow(D1, \"wrong rule\")
            fn f(x: Option<u8>) -> u8 { x.unwrap() }
        ";
        assert!(rules(&check("exec", src)).contains(&RuleId::D4));
    }
}
