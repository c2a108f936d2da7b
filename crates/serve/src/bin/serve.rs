//! `mlpsim-serve` — run the simulation service.
//!
//! ```text
//! mlpsim-serve [--addr HOST:PORT] [--data-dir DIR] [--queue N]
//!              [--retry-after SECS] [--read-timeout-ms MS]
//! ```
//!
//! Prints `listening on http://ADDR` once bound (with the resolved port —
//! `--addr 127.0.0.1:0` picks an ephemeral one, which scripts grep for).
//! SIGTERM/SIGINT trigger a graceful drain: stop admitting, finish the
//! in-flight job, leave queued jobs journaled for the next boot.

use mlpsim_experiments::cli::{io_error, usage_error, EXIT_USAGE};
use mlpsim_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler, polled by a watcher thread (a handler may
/// only touch async-signal-safe state, so it just flips this flag).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    // libc is not a dependency; declare the two symbols we need. SIG_ERR
    // returns are ignored — the server still drains via POST /drain.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants {what}"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("HOST:PORT")?,
            "--data-dir" => cfg.data_dir = PathBuf::from(value("a directory")?),
            "--queue" => {
                cfg.queue_capacity = value("a queue length")?
                    .parse()
                    .map_err(|_| "--queue wants a non-negative integer".to_string())?;
            }
            "--retry-after" => {
                cfg.retry_after_secs = value("seconds")?
                    .parse()
                    .map_err(|_| "--retry-after wants a non-negative integer".to_string())?;
            }
            "--read-timeout-ms" => {
                cfg.read_timeout_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms wants a positive integer".to_string())?;
            }
            "--help" | "-h" => {
                return Err(String::new()); // caller prints usage
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cfg)
}

fn usage() {
    eprintln!(
        "usage: mlpsim-serve [--addr HOST:PORT] [--data-dir DIR] [--queue N] \
         [--retry-after SECS] [--read-timeout-ms MS]"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_config(&args) {
        Ok(cfg) => cfg,
        Err(msg) if msg.is_empty() => {
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
        Err(msg) => {
            usage();
            return usage_error(&msg);
        }
    };
    install_signal_handlers();
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => return io_error(&e),
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on http://{addr}"),
        Err(e) => return io_error(&format!("cannot resolve bound address: {e}")),
    }
    // Bridge the signal flag to the server's shutdown trigger.
    let shutdown = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            shutdown.trigger();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    server.serve();
    eprintln!("drained; queued jobs remain journaled");
    ExitCode::SUCCESS
}
