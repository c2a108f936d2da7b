//! The mlpsim benchmark: end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run, output checks on every run, and a
//! host label on every result. See `README.md` in this directory.

pub mod clock;
pub mod digest;
pub mod host;
pub mod layers;
pub mod load;
pub mod output;
pub mod spans;
pub mod stats;
pub mod workloads;

use workloads::Ctx;

/// The seed later performance claims must also hold on: it was never
/// used while the benchmark or a change was being tuned.
pub const HELD_OUT_SEED: u64 = 9001;

/// Write a traced run's spans to `<out_dir>/spans-<workload>-<seed>.json`;
/// returns a note saying where.
pub fn write_spans(ctx: &Ctx, workload: &str, rec: &spans::Recorder) -> String {
    let all = rec.snapshot();
    let path = ctx
        .out_dir
        .join(format!("spans-{workload}-{}.json", ctx.seed));
    match std::fs::write(&path, spans::to_json(&all).to_string_compact()) {
        Ok(()) => format!("spans: {} written to {}", all.len(), path.display()),
        Err(e) => format!("spans: cannot write {}: {e}", path.display()),
    }
}
