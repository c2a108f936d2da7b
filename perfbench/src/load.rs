//! The closed-loop load generator for the `serve` workload: `clients`
//! threads, each with at most one connection open at a time, each
//! repeating submit → follow events → fetch result → estimate.

use crate::clock::{now, secs};
use crate::stats::{FailTally, Outcome};
use mlpsim_serve::client::{request_with_headers, Response};
use mlpsim_telemetry::Json;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts connections open at once across all clients.
#[derive(Debug, Default)]
pub struct ConnGauge {
    open: AtomicUsize,
    max: AtomicUsize,
}

impl ConnGauge {
    /// Most connections ever open at once.
    pub fn max_open(&self) -> usize {
        self.max.load(Ordering::SeqCst)
    }

    /// One request on its own connection (the server closes each after
    /// one exchange), counted while it is open.
    pub fn request(
        &self,
        server: &str,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(&str, &str)],
    ) -> Result<Response, String> {
        let open = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(open, Ordering::SeqCst);
        let r = request_with_headers(server, method, path, body, headers, None);
        self.open.fetch_sub(1, Ordering::SeqCst);
        r
    }
}

/// What one client iteration produced.
#[derive(Clone, Debug, Default)]
pub struct IterRecord {
    /// Index of the spec in the workload's pool.
    pub spec: usize,
    /// POST /jobs round trip.
    pub submit_ms: Option<f64>,
    /// POST /jobs sent → result body received.
    pub job_ms: Option<f64>,
    /// POST /estimate round trip.
    pub estimate_ms: Option<f64>,
    /// The result body.
    pub result: Option<String>,
    /// The estimate body.
    pub estimate: Option<String>,
    /// NDJSON lines and bytes streamed by GET /jobs/:id/events.
    pub events: u64,
    /// Bytes of that stream.
    pub stream_bytes: u64,
    /// Trace id the server filed the job under.
    pub job_trace: Option<String>,
    /// Trace id sent with the events request.
    pub events_trace: Option<String>,
    /// Operations attempted and failed in this iteration.
    pub tally: FailTally,
    /// Each request: its span name, start and end.
    pub steps: Vec<(&'static str, u64, u64)>,
}

fn classify(r: &Result<Response, String>) -> Outcome {
    match r {
        Ok(resp) if (200..300).contains(&resp.status) => Outcome::Ok,
        Ok(resp) => Outcome::Status(resp.status),
        Err(_) => Outcome::Transport,
    }
}

/// One iteration against `server` with `spec_json`. A failed step ends
/// the iteration; every step attempted counts in the tally.
/// `events_trace` is a 32-hex-digit trace id to send with the events
/// request, so its server-side spans can be looked up afterwards.
pub fn iteration(
    gauge: &ConnGauge,
    server: &str,
    spec: usize,
    spec_json: &str,
    events_trace: Option<String>,
) -> IterRecord {
    let mut rec = IterRecord {
        spec,
        ..IterRecord::default()
    };
    let t0 = now();
    let r = gauge.request(server, "POST", "/jobs", Some(spec_json.as_bytes()), &[]);
    rec.steps.push(("serve.submit", t0, now()));
    let outcome = classify(&r);
    rec.tally.record(outcome);
    let Ok(resp) = r else { return rec };
    if outcome != Outcome::Ok {
        return rec;
    }
    rec.submit_ms = Some(secs(t0, now()) * 1e3);
    let doc = resp.json().ok();
    let id = doc
        .as_ref()
        .and_then(|d| d.get("id"))
        .and_then(Json::as_u64);
    rec.job_trace = doc
        .as_ref()
        .and_then(|d| d.get("trace_id"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let Some(id) = id else {
        rec.tally.demote_to_mismatch();
        return rec;
    };

    let traceparent = events_trace
        .as_ref()
        .map(|t| format!("00-{t}-00000000000000a1-01"));
    let headers: Vec<(&str, &str)> = traceparent
        .as_deref()
        .map(|tp| vec![("traceparent", tp)])
        .unwrap_or_default();
    rec.events_trace = events_trace;
    let t1 = now();
    let r = gauge.request(server, "GET", &format!("/jobs/{id}/events"), None, &headers);
    rec.steps.push(("serve.events", t1, now()));
    let outcome = classify(&r);
    rec.tally.record(outcome);
    match r {
        Ok(resp) if outcome == Outcome::Ok => {
            rec.events = resp.body.iter().filter(|&&b| b == b'\n').count() as u64;
            rec.stream_bytes = resp.body.len() as u64;
        }
        _ => return rec,
    }

    let t2 = now();
    let r = gauge.request(server, "GET", &format!("/jobs/{id}/result"), None, &[]);
    rec.steps.push(("serve.result", t2, now()));
    let outcome = classify(&r);
    rec.tally.record(outcome);
    match r {
        Ok(resp) if outcome == Outcome::Ok => {
            rec.job_ms = Some(secs(t0, now()) * 1e3);
            rec.result = Some(resp.text());
        }
        _ => return rec,
    }

    let t3 = now();
    let r = gauge.request(server, "POST", "/estimate", Some(spec_json.as_bytes()), &[]);
    rec.steps.push(("serve.estimate", t3, now()));
    let outcome = classify(&r);
    rec.tally.record(outcome);
    if let Ok(resp) = r {
        if outcome == Outcome::Ok {
            rec.estimate_ms = Some(secs(t3, now()) * 1e3);
            rec.estimate = Some(resp.text());
        }
    }
    rec
}

/// Runs `clients` threads, each calling `step(client, i)` for `iters`
/// iterations in turn; returns the records, client-major.
pub fn run_clients<F>(clients: usize, iters: usize, step: F) -> Vec<IterRecord>
where
    F: Fn(usize, usize) -> IterRecord + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let step = &step;
                s.spawn(move || (0..iters).map(|i| step(c, i)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load client panicked"))
            .collect()
    })
}

/// Compare every completed result and estimate with the expected bytes
/// for its spec; each difference becomes a mismatch failure. Returns the
/// merged tally of all records.
pub fn check_outputs(
    records: &[IterRecord],
    expected: &dyn Fn(usize) -> (String, String),
) -> FailTally {
    let mut total = FailTally::default();
    for r in records {
        total.merge(&r.tally);
        let (result, estimate) = expected(r.spec);
        if r.result.as_ref().is_some_and(|got| *got != result) {
            total.demote_to_mismatch();
        }
        if r.estimate.as_ref().is_some_and(|got| *got != estimate) {
            total.demote_to_mismatch();
        }
    }
    total
}
