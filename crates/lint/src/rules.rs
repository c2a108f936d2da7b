//! Rule identities, diagnostics, and the pragma machinery shared by
//! every rule (the rules themselves live in [`crate::dataflow`]).
//!
//! Escapes go through an inline pragma that must carry a justification:
//!
//! ```text
//! // lint: allow(D3, "f64 mantissa covers every reachable cycle count")
//! ```
//!
//! The pragma suppresses the named rule on its own line and the line
//! directly below it.

use crate::lexer::Comment;

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

#[cfg(test)]
mod tests {
    use super::*;

    fn check(crate_key: &str, src: &str) -> Vec<Diagnostic> {
        check_path(crate_key, &format!("crates/{crate_key}/src/lib.rs"), src)
    }

    /// Lints one planted file and returns its per-file-rule and pragma
    /// diagnostics (the workspace rules D7–D10 have their own corpus in
    /// `dataflow.rs`).
    #[track_caller]
    fn check_path(crate_key: &str, rel_path: &str, src: &str) -> Vec<Diagnostic> {
        let r = crate::lint_files(&[crate::InputFile {
            rel_path: rel_path.to_string(),
            crate_key: crate_key.to_string(),
            src: src.to_string(),
        }]);
        assert!(r.parse_errors.is_empty(), "{:?}", r.parse_errors);
        r.findings
            .into_iter()
            .map(|f| f.diag)
            .filter(|d| !matches!(d.rule, RuleId::D7 | RuleId::D8 | RuleId::D9 | RuleId::D10))
            .collect()
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
    fn d2_reads_use_paths_and_generic_args() {
        // The clock shim's shapes, pragmas removed: the import, a type
        // argument, and a path passed as a value.
        let src = "
            use std::sync::OnceLock;
            use std::time::Instant;
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            fn now_ns() -> u64 {
                EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
        ";
        let d = check("telemetry", src);
        assert_eq!(rules(&d), vec![RuleId::D2; 3], "{d:?}");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4, 6]);
    }

    #[test]
    fn findings_sit_on_the_method_name_and_the_as_keyword() {
        let src = "
            struct S { pending: HashMap<u64, u32> }
            fn f(s: &S, x: u64) -> f64 {
                let n = s.pending
                    .keys()
                    .count();
                x
                    as f64
            }
        ";
        let d = check("core", src);
        assert_eq!(rules(&d), vec![RuleId::D1, RuleId::D3], "{d:?}");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![5, 8]);
    }

    #[test]
    fn macro_bodies_are_checked() {
        // Token trees that are not an expression list still have their
        // calls and macros seen: a `vec![x; n]` repeat, an item macro.
        let src = "
            fn f(x: Option<u8>) -> Vec<u8> { vec![x.unwrap(); 4] }
            proptest! {
                #[test]
                fn p(n in 0..9u8) { if n > 9 { panic!(\"no\"); } }
            }
        ";
        let d = check("cpu", src);
        assert_eq!(rules(&d), vec![RuleId::D4; 2], "{d:?}");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn d2_reads_every_type_the_source_names() {
        // One wall-clock type per line, each where the tree holds it only
        // as a type or a pattern: alias target, impl headers, bound,
        // where clause, generic default, supertrait, associated-type
        // bound, `dyn`/`impl`/`fn` types, `Fn` sugar output, binding,
        // qualified paths, turbofish, closure parameter and return type,
        // pattern path, higher-ranked bound.
        let src = "
            type Clock = std::time::Instant;
            impl From<Instant> for S {}
            impl Tr for Wrapper<SystemTime> {}
            fn g<T: Into<Instant>>(t: T) {}
            fn h<T>(t: T) where T: Into<SystemTime> {}
            struct B<T = Instant>(T);
            trait Tr2: Into<Instant> {}
            trait Tr3 { type Out: Into<Instant>; }
            fn d(x: &dyn Fn(Instant)) {}
            fn i() -> impl Into<Instant> { 0 }
            fn fp(f: fn(Instant) -> u8) {}
            fn fs(f: Box<dyn Fn() -> Instant>) {}
            fn a(i: impl Iterator<Item = Instant>) {}
            fn q(x: <Instant as Tr>::Out) {}
            fn qe() { let _ = <Instant as Default>::default(); }
            fn tf() { let v = Vec::<Instant>::new(); }
            fn tm(v: Vec<u8>) { let _ = v.into_iter().collect::<Vec<Instant>>(); }
            fn sl() { let s = S::<Instant> { a: 1 }; }
            fn cl() { let f = |t: Instant| t; }
            fn cr() { let f = || -> Instant { x() }; }
            fn m(t: u8) { match t { SystemTime::UNIX_EPOCH => {} _ => {} } }
            fn hr<F>(f: F) where F: for<'a> Fn(&'a Instant) {}
        ";
        let d = check("core", src);
        assert!(d.iter().all(|d| d.rule == RuleId::D2), "{d:?}");
        let lines: Vec<u32> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, (2..=23).collect::<Vec<u32>>(), "{d:?}");
    }

    #[test]
    fn d3_reads_casts_in_array_lengths_const_args_and_discriminants() {
        let src = "
            struct A { a: [u64; N as usize] }
            fn l() { let x: [u8; K as usize] = [0; 4]; }
            fn c() -> Foo<{ N as usize }> {}
            struct C<const N: usize = { M as usize }>;
            enum E { A = X as isize }
        ";
        let d = check("core", src);
        assert_eq!(rules(&d), vec![RuleId::D3; 5], "{d:?}");
        assert_eq!(
            d.iter().map(|d| d.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6]
        );
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
    fn d5_rejects_negated_and_disjunctive_guards() {
        // Neither condition implies the gate is on inside the block.
        let src = "
            fn f(&mut self, forced: bool) {
                if !P::ENABLED { self.probe.emit(a()); }
                if P::ENABLED || forced { self.probe.emit(b()); }
                if (P::ENABLED && forced) || forced { self.probe.emit(c()); }
            }
        ";
        let d = check("cpu", src);
        assert_eq!(rules(&d), vec![RuleId::D5; 3], "{d:?}");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4, 5]);
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
