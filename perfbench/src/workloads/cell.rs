//! `cell`: the engine's hot path alone — mcf under LIN(4) on one long
//! trace, one thread, no pool, no duplicate cells, no telemetry.

use super::{serve, Ctx, RunReport};
use crate::clock::{now, rss_mib, secs};
use crate::digest;
use crate::layers::{self, LayerInput};
use crate::spans::Recorder;
use crate::stats::{envelope, list, median, min};
use mlpsim_cpu::{PolicyKind, SimResult, System, SystemConfig};
use mlpsim_trace::record::{Access, Trace};
use mlpsim_trace::spec::SpecBench;

/// Accesses in the cell's trace.
pub const CELL_ACCESSES: usize = 2_000_000;

/// Accesses between two clock reads of a timed run: 1000 pieces of
/// about 0.7–1.6 ms each, short enough that most pieces meet a quiet
/// moment of a busy shared host at least once in a run, long enough
/// that a clock read costs under 0.1% of a piece.
pub const PIECE_ACCESSES: usize = 2_000;

fn config() -> SystemConfig {
    SystemConfig::baseline(PolicyKind::lin4())
}

/// Set-up: generate the trace and build the system.
fn setup(seed: u64) -> (Trace, System, f64) {
    let t0 = now();
    let trace = SpecBench::Mcf.generate(CELL_ACCESSES, seed);
    let sys = System::new(config());
    (trace, sys, secs(t0, now()))
}

/// The trace's accesses, reading the clock into `marks` before every
/// [`PIECE_ACCESSES`]-th access after the first and once more when the
/// trace runs out.
struct Marked<'a, 'm> {
    accesses: std::slice::Iter<'a, Access>,
    left: usize,
    marks: &'m mut Vec<u64>,
}

impl<'a> Iterator for Marked<'a, '_> {
    type Item = &'a Access;

    fn next(&mut self) -> Option<&'a Access> {
        if self.left == 0 {
            self.marks.push(now());
            self.left = PIECE_ACCESSES;
        }
        self.left -= 1;
        self.accesses.next()
    }
}

/// One timed `System::run` over the whole trace: the result, the total
/// seconds and the seconds of each piece. The pieces are the same
/// accesses in every run; the last one is the drain after the trace.
fn timed_run(sys: System, trace: &Trace) -> (SimResult, f64, Vec<f64>) {
    let mut marks = Vec::with_capacity(trace.len() / PIECE_ACCESSES + 3);
    marks.push(now());
    let r = sys.run(Marked {
        accesses: trace.iter(),
        left: PIECE_ACCESSES,
        marks: &mut marks,
    });
    marks.push(now());
    let pieces = marks.windows(2).map(|w| secs(w[0], w[1])).collect();
    (r, secs(marks[0], marks[marks.len() - 1]), pieces)
}

/// The untraced (`traced == false`) or traced run.
pub fn run(ctx: &Ctx, traced: bool) -> RunReport {
    let mut rep = RunReport::default();
    let mut setups = Vec::new();
    let (mut trace, mut sys) = (Trace::new(), None);
    for _ in 0..9 {
        let (t, s, dt) = setup(ctx.seed);
        setups.push(dt);
        trace = t;
        sys = Some(s);
    }
    rep.metrics.set("setup_s", median(&setups).unwrap_or(0.0));
    let mut sys = sys.expect("set up nine times");

    if traced {
        return traced_run(ctx, &trace, sys, rep);
    }

    let t_start = now();
    let mut runs: Vec<(SimResult, f64, Vec<f64>)> = Vec::new();
    while runs.len() < 3 || secs(t_start, now()) < ctx.seconds {
        runs.push(timed_run(sys, &trace));
        sys = System::new(config());
    }
    let rss = rss_mib(None, "VmHWM").unwrap_or(0.0);

    let first = digest::result(&runs[0].0);
    rep.tally.attempted = runs.len() as u64;
    rep.tally.mismatch = runs
        .iter()
        .filter(|(r, _, _)| digest::result(r) != first)
        .count() as u64;
    rep.digests.insert("cell.mcf.lin(4)".into(), first);

    let walls: Vec<f64> = runs.iter().map(|(_, w, _)| *w).collect();
    let pieces: Vec<Vec<f64>> = runs.iter().map(|(_, _, p)| p.clone()).collect();
    let wall = envelope(&pieces).unwrap_or(0.0);
    rep.metrics.set("wall_s", wall);
    rep.metrics
        .set("sim_mips", runs[0].0.instructions as f64 / wall / 1e6);
    rep.metrics.set("peak_rss_mb", rss);
    rep.notes.push(format!(
        "cell: {} runs of mcf/lin(4) over {CELL_ACCESSES} accesses, {} instructions, ipc {:.4}",
        runs.len(),
        runs[0].0.instructions,
        runs[0].0.ipc()
    ));
    rep.notes.push(format!(
        "  run walls (s), median {:.4}, fastest {:.4}, envelope of {} pieces {wall:.4}: {}",
        median(&walls).unwrap_or(0.0),
        min(&walls).unwrap_or(0.0),
        pieces[0].len(),
        list(&walls)
    ));
    rep
}

fn traced_run(ctx: &Ctx, trace: &Trace, sys: System, mut rep: RunReport) -> RunReport {
    let (untraced, untraced_s, _) = timed_run(sys, trace);
    let rec = Recorder::new();
    let group = rec.next_id();
    let root = rec.next_id();
    let t0 = now();
    let sys = rec.span("cpu.construct", root, group, || System::new(config()));
    let (r, traced_s, _) = rec.span("cpu.run", root, group, || timed_run(sys, trace));
    let m = &mut rep.metrics;
    m.set("bench.untraced_wall_s", untraced_s);
    m.set(
        "bench.trace_overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
    );
    // One thread runs the one cell: busy for the whole run.
    m.set("exec.busy_frac", traced_s / secs(t0, now()));
    m.set("exec.tail_idle_s", 0.0);
    m.set("experiments.cells_requested", 1.0);
    m.set("experiments.cells_distinct", 1.0);
    m.set("experiments.dup_time_share", 0.0);
    m.set("trace.generate_calls", 1.0);
    m.set("trace.distinct_traces", 1.0);

    let layer_span = rec.next_id();
    let tl = now();
    let input = LayerInput {
        gens: vec![(SpecBench::Mcf, CELL_ACCESSES, ctx.seed)],
        results: None,
        run_ns: None,
    };
    let rows = layers::measure(&input, ctx.read_ns, m, &rec, layer_span);
    rec.record_with_id(layer_span, "layers", root, group, tl, now());
    let [lru, lin, _] = &rows[0];
    let gain = mlpsim_analysis::util::percent_improvement(lin.ipc(), lru.ipc());
    let paper = mlpsim_experiments::paper::paper_row(SpecBench::Mcf).lin_ipc_pct;
    m.set("experiments.paper_ipc_err_pp", (gain - paper).abs());
    serve::probe(ctx, &mut rep, &rec, root, group);
    rec.record_with_id(root, "cell.traced", 0, group, t0, now());
    rep.notes.push(crate::write_spans(ctx, "cell", &rec));
    let (a, b) = (digest::result(&untraced), digest::result(&r));
    rep.tally.attempted += 2;
    rep.tally.mismatch += u64::from(a != b);
    rep.digests.insert("cell.mcf.lin(4)".into(), a);
    rep
}
