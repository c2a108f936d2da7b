//! `mlpsim-lint` — workspace static analysis for simulator determinism
//! and cost-model soundness. Thin driver over [`mlpsim_lint`].
//!
//! ```text
//! cargo run -p mlpsim-lint                   # lint the workspace, exit 1 on findings
//! cargo run -p mlpsim-lint -- --rules        # describe the rules
//! cargo run -p mlpsim-lint -- --sarif out.sarif  # also write a SARIF 2.1.0 report
//! cargo run -p mlpsim-lint -- <root>         # lint an explicit workspace root
//! ```
//!
//! One engine: every file is lexed and parsed once and every rule,
//! D1–D11, runs over the ASTs, with test code (`#[test]`, `#[cfg(test)]`,
//! `#[cfg(all(…, test, …))]`) out of scope (see `--rules` and the `dataflow`
//! module docs). Scanned: `src/` of the root package and every `crates/*/src`, skipping
//! `tests/`, `benches/`, `vendor/`, and `target/`. Files are visited in
//! sorted order so output is deterministic (the linter holds itself to
//! its own standard).

use mlpsim_lint::{lint_workspace, sarif};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--rules" || a == "--help") {
        print!("{RULES_HELP}");
        return ExitCode::SUCCESS;
    }
    let mut sarif_out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--sarif" {
            match it.next() {
                Some(p) => sarif_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mlpsim-lint: --sarif requires a path");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            root = Some(PathBuf::from(a));
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "mlpsim-lint: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::FAILURE;
    }

    let report = lint_workspace(&root);
    for (path, err) in &report.parse_errors {
        println!("{path}: parse error: {err}");
    }
    for f in &report.findings {
        println!(
            "{}:{}: {}: {}",
            f.rel_path,
            f.diag.line,
            f.diag.rule.name(),
            f.diag.msg
        );
    }
    if let Some(out) = sarif_out {
        if let Err(e) = std::fs::write(&out, sarif::to_sarif(&report)) {
            eprintln!("mlpsim-lint: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "mlpsim-lint: {} files checked, {} violation{}{}",
        report.files_checked,
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        if report.parse_errors.is_empty() {
            String::new()
        } else {
            format!(", {} parse error(s)", report.parse_errors.len())
        }
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest (set by
/// cargo at compile time; correct for `cargo run -p mlpsim-lint` from
/// anywhere inside the repo), falling back to the current directory.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

const RULES_HELP: &str = "\
mlpsim-lint rules (escape: `// lint: allow(D<n>, \"justification\")` on or
above the offending line; D7 additionally accepts
`// lint: bounded(\"why the arithmetic cannot overflow\")`).

Every rule runs on the parsed AST: every workspace file must parse, and
a parse error fails the run. Test code — an item under #[test],
#[cfg(test)] or #[cfg(all(..test..))] — is out of scope for every rule;
#[cfg(not(test))] and #[cfg(any(test, ..))] code is checked.

Per-file rules:

  D1  no HashMap/HashSet iteration in crates cache, core, mem, exec.
      Unordered iteration feeds victim selection and sweep output, making
      results depend on the process's hash seed. Point lookups (get/entry/
      remove/contains_key) are fine; iterate a Vec/BTreeMap or sort first.

  D2  no SystemTime / Instant / thread_rng in crates cache, core, mem,
      cpu, exec, trace, telemetry, model — wherever the source names
      them: expressions, `use` paths, patterns, and every type (generic
      args, bounds, where clauses, impl headers, aliases, turbofish).
      Simulated time is cycle counts; randomness must be a seeded
      generator owned by the workload spec. Host wall-clock reads go
      through the audited telemetry::prof clock shim, whose own Instant
      uses carry the allow pragma.
      (Experiment binaries may time wall-clock — they are outside this
      rule.)

  D3  no bare `as` numeric casts in crate core (the paper's cost model:
      Algorithm 1 accumulation, cost_q quantization, PSEL arithmetic).
      Use From/TryFrom or the documented helpers in mlpsim_core::convert.

  D4  no unwrap()/panic! outside test code, in any crate. CLI input and
      IO failures must print an error and exit nonzero; genuine
      invariants use expect(\"proof\") or assert!.

  D5  every probe.emit(..) call, in any crate, must sit in the
      then-block of an `if` whose condition implies the P::ENABLED gate:
      the gate itself or a conjunct of `&&` (`P::ENABLED && n > 0`); a
      negated gate or one side of `||` does not. The Probe trait's const
      gate is what makes NoProbe telemetry compile to nothing; an unguarded
      emission still builds its event payload. Runtime-gated
      SinkHandle::emit is a different mechanism and exempt.

  D6  any file calling `.accept(..)` or `.incoming(..)` outside tests
      must also call `set_read_timeout` (or the serve crate's
      `arm_read_timeout` helper) outside tests. Accepted sockets are
      read by blocking server threads; without a timeout one stalled
      client parks a thread forever (slow-loris).

  D11 no bare eprintln! in crates/serve request-path code (the log
      helper, the bin/ CLIs and the client library are exempt). Every
      server stderr line goes through serve::log as one parseable JSON
      document carrying the request's trace id.

Workspace rules (symbol table and call graph):

  D7  bare `+` `-` `*` `<<` on cycle/address/timestamp-typed values in
      crates cache, core, mem, cpu. Simulated clocks and line addresses
      are u64s that real traces push near the edges; the PR 7 prefetch
      overflow was exactly this class. Spell the bound: wrapping_*/
      saturating_*/checked_*, or justify with `lint: bounded(\"…\")`.
      Operations with a literal operand are exempt (compile-time bound).

  D8  no function transitively reachable from a serve request handler
      (a serve fn taking a TcpStream) may panic: panic!-family macros,
      unwrap()/expect() (except workspace-defined methods of the same
      name), and slice indexing all count. One malformed request must
      produce an error response, not a dead handler thread. The full
      call path is printed with each finding.

  D9  no value derived from the audited telemetry::prof::now_ns() clock
      may flow into SimResult construction or any event payload; no
      event carries host time. Taint propagates through lets,
      arithmetic, field reads, and workspace call returns. Host time in
      simulation output is what the determinism CI exists to catch.

  D10 concurrency-order audit, two parts. (a) Atomics: per telemetry/
      serve atomic cell, release-class stores (Release/AcqRel/SeqCst)
      must not pair with all-Relaxed loads, and vice versa — a
      mismatched pair is either a missing fence or a pointless one.
      (b) Locks: no two serve-crate Mutexes acquired in opposite
      nesting orders (lock-order cycle = deadlock waiting to happen).

Exit status: 0 clean, 1 findings or parse errors. Output lines are
`path:line: rule: message`, deterministic across runs. `--sarif <path>`
additionally writes a SARIF 2.1.0 report for code-scanning upload.
";
