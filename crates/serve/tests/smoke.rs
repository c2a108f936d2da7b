//! In-process end-to-end tests: a real listener on an ephemeral port, the
//! real client, the real journal on a temp directory. The CI smoke script
//! (`scripts/serve_smoke.sh`) covers the cross-process pieces (`kill -9`,
//! separate binaries); everything else lives here.

#![allow(clippy::unwrap_used)]

use mlpsim_serve::client;
use mlpsim_serve::{Server, ServerConfig, Shutdown};
use mlpsim_telemetry::{Event, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

static NEXT: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mlpsim-smoke-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TestServer {
    url: String,
    shutdown: Shutdown,
    thread: JoinHandle<()>,
}

impl TestServer {
    fn start(dir: &Path, queue_capacity: usize) -> TestServer {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.to_path_buf(),
            queue_capacity,
            retry_after_secs: 7,
            read_timeout_ms: 2_000,
        };
        let server = Server::start(cfg).expect("server starts");
        let addr = server.local_addr().expect("bound address");
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        TestServer {
            url: format!("http://{addr}"),
            shutdown,
            thread,
        }
    }

    /// Stop accepting and wait for the drain to complete.
    fn stop(self) {
        self.shutdown.trigger();
        self.thread.join().expect("serve thread exits");
    }
}

/// An idle server on `addr` whose `serve()` reports on the channel when
/// it returns.
fn start_idle(dir: &Path, addr: &str) -> (String, Shutdown, mpsc::Receiver<()>) {
    let cfg = ServerConfig {
        addr: addr.into(),
        data_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let url = format!("http://{}", server.local_addr().expect("bound address"));
    let shutdown = server.shutdown_handle();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.serve();
        let _ = tx.send(());
    });
    (url, shutdown, rx)
}

/// The accept loop blocks with no traffic; a drain must still wake it.
fn assert_serve_returns_within_a_second(returned: &mpsc::Receiver<()>) {
    returned
        .recv_timeout(Duration::from_secs(1))
        .expect("serve() returns within 1 s of the drain");
}

#[test]
fn idle_server_drains_on_trigger() {
    let dir = tmp_dir("idle-trigger");
    let (_url, shutdown, returned) = start_idle(&dir, "127.0.0.1:0");
    shutdown.trigger();
    assert_serve_returns_within_a_second(&returned);
    shutdown.trigger(); // idempotent once drained
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_server_drains_on_post_drain() {
    let dir = tmp_dir("idle-post");
    let (url, shutdown, returned) = start_idle(&dir, "127.0.0.1:0");
    client::drain(&url).expect("drain accepted");
    assert_serve_returns_within_a_second(&returned);
    assert!(shutdown.is_triggered(), "POST /drain triggers the handle");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_bound_to_the_unspecified_address_drains() {
    let dir = tmp_dir("idle-any");
    let (url, shutdown, returned) = start_idle(&dir, "0.0.0.0:0");
    assert!(url.starts_with("http://0.0.0.0:"), "{url}");
    shutdown.trigger();
    assert_serve_returns_within_a_second(&returned);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submitted_fig5_is_byte_identical_to_the_cli_run_path() {
    use mlpsim_experiments::figures::fig5_report;
    use mlpsim_experiments::runner::RunOptions;

    let dir = tmp_dir("fig5");
    let srv = TestServer::start(&dir, 8);

    let id =
        client::submit(&srv.url, r#"{"kind":"fig5","accesses":1200,"jobs":2}"#).expect("submitted");
    // Stream events live while the job runs.
    let mut streamed = Vec::new();
    let raw = client::watch(&srv.url, id, &mut |chunk| streamed.extend_from_slice(chunk))
        .expect("watched");
    assert_eq!(raw, streamed, "callback sees exactly the stream bytes");
    let lines: Vec<&str> = std::str::from_utf8(&raw)
        .expect("utf8 stream")
        .lines()
        .collect();
    assert!(!lines.is_empty(), "a running sweep emits telemetry");
    for line in &lines {
        Event::parse_line(line).unwrap_or_else(|e| panic!("bad event line {line:?}: {e}"));
    }
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"run_start\"")),
        "stream carries run brackets"
    );

    assert_eq!(client::wait(&srv.url, id).expect("terminal"), "done");
    let via_server = client::result(&srv.url, id).expect("result");
    let direct = fig5_report(&RunOptions {
        accesses: 1200,
        jobs: 2,
        ..RunOptions::default()
    });
    assert_eq!(via_server, direct, "server and CLI share one run path");

    // Health and metrics reflect the finished job.
    let health = client::request(&srv.url, "GET", "/healthz", None, None).expect("healthz");
    assert_eq!(health.status, 200);
    let metrics = client::request(&srv.url, "GET", "/metrics", None, None).expect("metrics");
    let text = metrics.text();
    assert!(text.contains("jobs_submitted_total 1"), "{text}");
    assert!(text.contains("jobs_completed_total 1"), "{text}");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn estimate_endpoint_scores_without_simulating() {
    let dir = tmp_dir("estimate");
    let srv = TestServer::start(&dir, 8);

    let doc = client::estimate(
        &srv.url,
        r#"{"kind":"sweep","benches":["mcf","art"],"policies":["lru","lin(4)"],
            "accesses":2000,"jobs":2,"prune_margin":0.01}"#,
    )
    .expect("estimated");
    assert_eq!(
        doc.get("model").and_then(Json::as_bool),
        Some(true),
        "an estimate must label itself as a model, not a measurement"
    );
    let cells = match doc.get("cells") {
        Some(Json::Arr(cells)) => cells,
        other => panic!("expected cells array, got {other:?}"),
    };
    assert_eq!(cells.len(), 4);
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(4));

    // No job was admitted; the planner counters and latency histogram moved.
    let text = client::metrics(&srv.url).expect("metrics");
    assert!(!text.contains("mlpsim_jobs_submitted_total"), "{text}");
    assert!(text.contains("mlpsim_estimates_total 1"), "{text}");
    assert!(
        text.contains("mlpsim_planner_cells_scored_total 4"),
        "{text}"
    );
    assert!(text.contains("mlpsim_planner_cells_pruned_total"), "{text}");
    assert!(
        text.contains("mlpsim_estimate_duration_us_count 1"),
        "{text}"
    );

    // Garbage margins and bad specs report 400 with the field named.
    let bad = client::request(
        &srv.url,
        "POST",
        "/estimate",
        Some(br#"{"kind":"fig5","prune_margin":-1}"#),
        None,
    )
    .expect("responded");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("prune_margin"), "{}", bad.text());
    let err = client::estimate(&srv.url, r#"{"kind":"fig6"}"#).expect_err("bad kind");
    assert!(err.contains("unknown job kind"), "{err}");

    // Wrong method on the route is 405, not 404.
    let wrong = client::request(&srv.url, "GET", "/estimate", None, None).expect("responded");
    assert_eq!(wrong.status, 405);

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_cancels_a_long_job() {
    let dir = tmp_dir("deadline");
    let srv = TestServer::start(&dir, 8);

    let id = client::submit(
        &srv.url,
        r#"{"kind":"sweep","accesses":6000,"deadline_ms":1}"#,
    )
    .expect("submitted");
    assert_eq!(client::wait(&srv.url, id).expect("terminal"), "cancelled");
    assert!(
        client::result(&srv.url, id).is_err(),
        "no result for a cancelled job"
    );

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_hits_queued_and_running_jobs() {
    let dir = tmp_dir("cancel");
    let srv = TestServer::start(&dir, 8);

    // A slow job occupies the single scheduler; B sits queued behind it.
    let a = client::submit(&srv.url, r#"{"kind":"sweep","accesses":60000}"#).expect("a");
    let b = client::submit(&srv.url, r#"{"kind":"fig5","accesses":400}"#).expect("b");

    // Queued cancel is immediate.
    assert_eq!(client::cancel(&srv.url, b).expect("cancel b"), "cancelled");
    assert_eq!(client::wait(&srv.url, b).expect("terminal"), "cancelled");

    // Running cancel fires the token; the scheduler records the state.
    client::cancel(&srv.url, a).expect("cancel a");
    assert_eq!(client::wait(&srv.url, a).expect("terminal"), "cancelled");
    // Cancel is idempotent on terminal jobs.
    assert_eq!(client::cancel(&srv.url, a).expect("again"), "cancelled");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_backpressures_with_retry_after() {
    let dir = tmp_dir("backpressure");
    let srv = TestServer::start(&dir, 0); // capacity 0: every submit bounces

    let resp = client::request(
        &srv.url,
        "POST",
        "/jobs",
        Some(br#"{"kind":"fig5","accesses":100}"#),
        None,
    )
    .expect("response");
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("7"));
    assert!(resp.text().contains("queue full"), "{}", resp.text());

    // Bad specs are 400 with the field named, not 429.
    let resp = client::request(&srv.url, "POST", "/jobs", Some(b"{}"), None).expect("response");
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("kind"), "{}", resp.text());

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_preserves_queued_jobs_and_restart_resumes_them() {
    let dir = tmp_dir("resume");

    // --- First server lifetime -------------------------------------------
    let srv = TestServer::start(&dir, 16);
    let fast = client::submit(&srv.url, r#"{"kind":"fig5","accesses":400}"#).expect("fast");
    assert_eq!(client::wait(&srv.url, fast).expect("terminal"), "done");
    let fast_result = client::result(&srv.url, fast).expect("fast result");

    // One job that will be running at drain time, one still queued.
    let running = client::submit(&srv.url, r#"{"kind":"sweep","accesses":4000}"#).expect("b");
    let queued = client::submit(
        &srv.url,
        r#"{"kind":"sweep","benches":["mcf"],"policies":["lru"],"accesses":500}"#,
    )
    .expect("c");

    client::drain(&srv.url).expect("drain accepted");
    srv.stop(); // returns once the in-flight job is finished and journaled

    // --- Second server lifetime, same data dir ---------------------------
    let srv = TestServer::start(&dir, 16);

    // No job lost: all three still known.
    let list = client::request(&srv.url, "GET", "/jobs", None, None)
        .expect("list")
        .json()
        .expect("json");
    let Json::Arr(jobs) = list else {
        panic!("list is an array")
    };
    assert_eq!(jobs.len(), 3, "restart preserves every journaled job");

    // The completed job's result is re-served from disk, byte-identical.
    assert_eq!(
        client::result(&srv.url, fast).expect("re-served"),
        fast_result
    );
    // Its event stream is finished (live telemetry died with process one).
    let raw = client::watch(&srv.url, fast, &mut |_| {}).expect("finished stream");
    assert!(raw.is_empty(), "terminal recovered job has no live events");

    // The queued job (and the drained-or-finished one) complete.
    assert_eq!(client::wait(&srv.url, running).expect("terminal"), "done");
    assert_eq!(client::wait(&srv.url, queued).expect("terminal"), "done");
    assert!(client::result(&srv.url, queued)
        .expect("result")
        .contains("Sweep"));

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_traceparent_propagates_to_the_flight_recorder() {
    let dir = tmp_dir("traces");
    let srv = TestServer::start(&dir, 8);

    let tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
    let (id, trace_id) = client::submit_traced(
        &srv.url,
        r#"{"kind":"fig5","accesses":800,"jobs":1}"#,
        Some(tp),
    )
    .expect("submitted");
    assert_eq!(
        trace_id, "0af7651916cd43dd8448eb211c80319c",
        "the 201 echoes the inherited trace id"
    );
    assert_eq!(client::wait(&srv.url, id).expect("terminal"), "done");

    // The trace completes just after the job status flips; poll briefly.
    let doc = (0..50)
        .find_map(|_| {
            client::trace(&srv.url, &trace_id, false).ok().or_else(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                None
            })
        })
        .expect("trace retained in the flight recorder");

    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );
    // An adopted trace closes at the job's terminal state (Done -> 200),
    // not at the 201 the submission handler wrote.
    assert_eq!(doc.get("status").and_then(Json::as_u64), Some(200));
    let Some(Json::Arr(spans)) = doc.get("spans") else {
        panic!("trace carries a spans array: {doc:?}");
    };
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for want in [
        "request",
        "parse",
        "admission",
        "journal_append",
        "queue_wait",
        "run",
    ] {
        assert!(
            names.contains(&want),
            "span {want:?} missing from {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("run(cell=")),
        "per-cell run spans present: {names:?}"
    );
    // Reconciliation: the span tree explains the root's wall time; the
    // residue the server computed is present and sane.
    let residue = doc
        .get("residue_pct")
        .and_then(|r| r.as_f64())
        .expect("residue_pct present");
    assert!(
        (0.0..=100.0).contains(&residue),
        "residue {residue}% out of range"
    );
    let root_dur = doc.get("dur_us").and_then(Json::as_u64).expect("dur_us");
    for s in spans {
        let d = s.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
        assert!(
            d <= root_dur + 1,
            "span {:?} ({d} us) outlives the request ({root_dur} us)",
            s.get("name")
        );
    }

    // The Chrome export is a valid trace-event document for the same id.
    let chrome = client::trace(&srv.url, &trace_id, true).expect("chrome export");
    let Some(Json::Arr(events)) = chrome.get("traceEvents") else {
        panic!("chrome export has traceEvents: {chrome:?}");
    };
    assert!(
        events.len() > spans.len(),
        "one X event per span plus metadata"
    );

    // The listing includes the trace; unknown ids 404.
    let all = client::traces(&srv.url).expect("listing");
    let Json::Arr(all) = all else {
        panic!("listing is an array")
    };
    assert!(all
        .iter()
        .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(trace_id.as_str())));
    let missing = client::trace(&srv.url, "00000000000000000000000000000001", false);
    assert!(missing.is_err(), "unknown trace id must 404");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
