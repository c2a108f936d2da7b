//! The load generator against a scripted local server: it never has
//! more than `nproc` connections open, and `fail_frac` counts non-2xx,
//! transport and mismatch failures.

use perfbench::load::{check_outputs, iteration, run_clients, ConnGauge};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts requests the server holds unanswered at once.
#[derive(Default)]
struct Busy {
    now: AtomicUsize,
    max: AtomicUsize,
}

fn read_request(s: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        if s.read(&mut byte).ok()? == 0 {
            return None;
        }
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).to_string();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).ok()?;
    let line = head.lines().next()?.to_string();
    Some((line, String::from_utf8_lossy(&body).to_string()))
}

fn respond(s: &mut TcpStream, status: u16, body: &str) {
    let _ = write!(
        s,
        "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// A server scripted by the submitted spec body: `ok` completes,
/// `refuse` gets a 429, `drop` loses the connection, `wrong` completes
/// with a result that differs from the reference.
fn start_server(busy: Arc<Busy>, stop: Arc<AtomicBool>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut s) = conn else { continue };
            let busy = Arc::clone(&busy);
            std::thread::spawn(move || {
                let n = busy.now.fetch_add(1, Ordering::SeqCst) + 1;
                busy.max.fetch_max(n, Ordering::SeqCst);
                let req = read_request(&mut s);
                // Give other clients time to pile up if they could.
                std::thread::sleep(std::time::Duration::from_millis(2));
                busy.now.fetch_sub(1, Ordering::SeqCst);
                let Some((line, body)) = req else { return };
                match (line.split_whitespace().nth(1).unwrap_or(""), body.as_str()) {
                    ("/jobs", "ok") => respond(&mut s, 201, "{\"id\":1,\"trace_id\":\"t\"}"),
                    ("/jobs", "wrong") => respond(&mut s, 201, "{\"id\":2,\"trace_id\":\"t\"}"),
                    ("/jobs", "refuse") => respond(&mut s, 429, "{\"error\":\"queue full\"}"),
                    ("/jobs", _) => drop(s),
                    (p, _) if p.ends_with("/events") => respond(&mut s, 200, "{}\n{}\n"),
                    (p, _) if p.ends_with("/result") => {
                        respond(&mut s, 200, &format!("result-{}", &p[6..7]))
                    }
                    ("/estimate", _) => respond(&mut s, 200, "est"),
                    _ => respond(&mut s, 404, ""),
                }
            });
        }
    });
    format!("http://{addr}")
}

#[test]
fn counts_each_kind_of_failure_and_stays_within_nproc_connections() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.max(2);
    let busy = Arc::new(Busy::default());
    let stop = Arc::new(AtomicBool::new(false));
    let url = start_server(Arc::clone(&busy), Arc::clone(&stop));
    let script = ["ok", "refuse", "drop", "wrong"];
    let gauge = ConnGauge::default();
    let iters = 8;
    let records = run_clients(clients, iters, |_, i| {
        iteration(&gauge, &url, i % 4, script[i % 4], None)
    });
    stop.store(true, Ordering::SeqCst);

    let tally = check_outputs(&records, &|_| ("result-1".to_string(), "est".to_string()));
    let rounds = (clients * iters / 4) as u64;
    // ok: 4 requests; refuse and drop: 1 each; wrong: 4 requests.
    assert_eq!(tally.attempted, rounds * 10);
    assert_eq!(tally.status, rounds, "one 429 per refused submit");
    assert_eq!(
        tally.transport, rounds,
        "one transport error per dropped connection"
    );
    assert_eq!(tally.mismatch, rounds, "one mismatch per wrong result");
    assert_eq!(tally.failed(), rounds * 3);
    assert!((tally.fail_frac() - 0.3).abs() < 1e-12);

    assert!(
        gauge.max_open() <= clients,
        "{} open > {clients}",
        gauge.max_open()
    );
    assert!(
        busy.max.load(Ordering::SeqCst) <= clients,
        "server saw {} requests at once from {clients} clients",
        busy.max.load(Ordering::SeqCst)
    );
}
