//! The benchmark's clock, its calibrated per-read cost, batch timing,
//! and process memory readings.
//!
//! Every time the benchmark takes comes from
//! [`mlpsim_telemetry::prof::now_ns`], the same monotonic clock the
//! simulator's `RunOptions::cell_spans` hook reports in, so cell spans
//! and the benchmark's own spans share one timebase.

use mlpsim_telemetry::prof::now_ns;
use std::hint::black_box;

/// Nanoseconds since the clock's epoch.
pub fn now() -> u64 {
    now_ns()
}

/// Seconds between two [`now`] readings.
pub fn secs(t0: u64, t1: u64) -> f64 {
    t1.saturating_sub(t0) as f64 / 1e9
}

/// The cost of one clock read, in nanoseconds: the median of five runs
/// of 200k back-to-back reads.
pub fn calibrate_read_ns() -> f64 {
    const READS: u64 = 200_000;
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = now();
            for _ in 0..READS {
                black_box(now());
            }
            (now() - t0) as f64 / READS as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// Times `ops` operations performed by one call of `f`, bracketed by two
/// clock reads, and returns nanoseconds per operation with the cost of
/// the bracketing reads (`read_ns` each) subtracted. Timing a batch
/// rather than single calls keeps the clock's cost small beside the work.
pub fn ns_per_op(ops: u64, read_ns: f64, f: impl FnOnce()) -> f64 {
    let t0 = now();
    f();
    let t1 = now();
    ((t1 - t0) as f64 - read_ns).max(0.0) / ops.max(1) as f64
}

/// Peak (`VmHWM`) or current (`VmRSS`) resident set of a process, in
/// MiB, read from `/proc/<pid>/status`; `pid` `None` means this process.
pub fn rss_mib(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
