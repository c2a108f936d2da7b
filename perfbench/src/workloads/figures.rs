//! `figures`: what a researcher waits for when regenerating the paper's
//! Fig. 5 and Fig. 9 — both matrices through the calls the `fig5` and
//! `fig9` binaries make, on `nproc` workers, at the default access count.

use super::{serve, Ctx, RunReport};
use crate::clock::{now, rss_mib, secs};
use crate::digest;
use crate::layers::{self, LayerInput};
use crate::spans::Recorder;
use crate::stats::{list, median, min, spread_envelope};
use mlpsim_analysis::table::Table;
use mlpsim_analysis::util::percent_improvement;
use mlpsim_cpu::{PolicyKind, SimResult};
use mlpsim_experiments::figures::fig5_report;
use mlpsim_experiments::paper::paper_row;
use mlpsim_experiments::runner::{run_matrix, CellSpanSink, RunOptions, DEFAULT_ACCESSES};
use mlpsim_trace::spec::SpecBench;
use std::sync::{Arc, Mutex};

/// Accesses per cell in the untimed warm-up that set-up performs.
const WARMUP_ACCESSES: usize = 4_000;

fn fig5_policies() -> [PolicyKind; 2] {
    [PolicyKind::Lru, PolicyKind::lin4()]
}

fn fig9_policies() -> [PolicyKind; 3] {
    [
        PolicyKind::Lru,
        PolicyKind::lin4(),
        PolicyKind::sbar_default(),
    ]
}

/// The `fig9` binary's stdout for a Fig. 9 matrix.
pub fn fig9_text(matrix: &[Vec<SimResult>]) -> String {
    let mut t = Table::with_headers(&["bench", "LIN", "(paper)", "SBAR", "(paper)"]);
    for (bench, results) in SpecBench::ALL.into_iter().zip(matrix) {
        let (lru, lin, sbar) = (&results[0], &results[1], &results[2]);
        let p = paper_row(bench);
        t.row(vec![
            bench.name().into(),
            format!("{:+.1}", percent_improvement(lin.ipc(), lru.ipc())),
            format!("{:+.1}", p.lin_ipc_pct),
            format!("{:+.1}", percent_improvement(sbar.ipc(), lru.ipc())),
            format!("{:+.1}", p.sbar_ipc_pct),
        ]);
    }
    format!(
        "Figure 9 — IPC improvement (%) over LRU: LIN vs SBAR\n\n{}\n",
        t.render()
    )
}

/// Mean absolute difference, in percentage points, between the simulated
/// LIN and SBAR IPC gains over LRU and the paper's Fig. 9 rows.
pub fn paper_ipc_err_pp(matrix: &[Vec<SimResult>]) -> f64 {
    let mut errs = Vec::new();
    for (bench, r) in SpecBench::ALL.into_iter().zip(matrix) {
        let p = paper_row(bench);
        errs.push((percent_improvement(r[1].ipc(), r[0].ipc()) - p.lin_ipc_pct).abs());
        errs.push((percent_improvement(r[2].ipc(), r[0].ipc()) - p.sbar_ipc_pct).abs());
    }
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Where a traced pass records its spans: the store, the root span and
/// the group id shared by the run's spans.
struct Traced<'a> {
    rec: &'a Recorder,
    root: u64,
    group: u64,
}

/// One cell span from the `cell_spans` hook: matrix (0 = Fig. 5,
/// 1 = Fig. 9), row, column, start and end.
type CellSpan = (usize, usize, usize, u64, u64);

struct Pass {
    wall_s: f64,
    fig5: String,
    fig9: String,
    m9: Vec<Vec<SimResult>>,
    /// Per matrix, its start and end.
    windows: [(u64, u64); 2],
    /// Every cell's span, ordered by matrix, row and column.
    cells: Vec<CellSpan>,
}

fn pass(opts: &RunOptions, traced: Option<&Traced>) -> Pass {
    let cells: Arc<Mutex<Vec<CellSpan>>> = Arc::default();
    let hook = |matrix: usize| {
        let cells = Arc::clone(&cells);
        CellSpanSink(Arc::new(move |row, col, t0, t1| {
            cells
                .lock()
                .expect("cell span lock")
                .push((matrix, row, col, t0, t1));
        }))
    };
    // Cell spans come from the runner's public hook, on untraced passes
    // too: `wall_s` is built from them.
    let mut o5 = opts.clone();
    let mut o9 = opts.clone();
    o5.cell_spans = Some(hook(0));
    o9.cell_spans = Some(hook(1));
    let t0 = now();
    let fig5 = fig5_report(&o5);
    let t1 = now();
    let m9 = run_matrix(&SpecBench::ALL, &fig9_policies(), &o9);
    let t2 = now();
    let fig9 = fig9_text(&m9);
    let t3 = now();
    if let Some(tr) = traced {
        let pass_id = tr.rec.record("figures.pass", tr.root, tr.group, t0, t3);
        let m5_id = tr
            .rec
            .record("experiments.fig5_report", pass_id, tr.group, t0, t1);
        let m9_id = tr
            .rec
            .record("experiments.run_matrix(fig9)", pass_id, tr.group, t1, t2);
        tr.rec
            .record("analysis.fig9_table", pass_id, tr.group, t2, t3);
        for &(m, row, col, a, b) in cells.lock().expect("cell span lock").iter() {
            let name = format!("cpu.run(cell={row},{col})");
            tr.rec
                .record(&name, if m == 0 { m5_id } else { m9_id }, tr.group, a, b);
        }
    }
    let mut cells = std::mem::take(&mut *cells.lock().expect("cell span lock"));
    cells.sort_unstable_by_key(|&(m, row, col, _, _)| (m, row, col));
    Pass {
        wall_s: secs(t0, t3),
        fig5,
        fig9,
        m9,
        windows: [(t0, t1), (t1, t2)],
        cells,
    }
}

fn digests(p: &Pass) -> std::collections::BTreeMap<String, String> {
    let mut d = std::collections::BTreeMap::new();
    d.insert("fig5.report".into(), digest::text(&p.fig5));
    d.insert("fig9.report".into(), digest::text(&p.fig9));
    for (bench, row) in SpecBench::ALL.into_iter().zip(&p.m9) {
        for (policy, r) in fig9_policies().iter().zip(row) {
            d.insert(
                format!("fig9.{}.{}", bench.name(), policy.label()),
                digest::result(r),
            );
        }
    }
    d
}

/// Cells requested per pass: 14 × 2 for Fig. 5 plus 14 × 3 for Fig. 9.
const CELLS_PER_PASS: u64 = 14 * 5;

/// The untraced (`traced == false`) or traced run.
pub fn run(ctx: &Ctx, traced: bool) -> RunReport {
    let mut rep = RunReport::default();
    let opts = RunOptions {
        seed: ctx.seed,
        jobs: ctx.nproc,
        ..RunOptions::default()
    };

    // Set-up: everything before the first timed matrix call — the
    // options and an untimed warm-up of both matrices at a small size
    // (worker threads, allocator and page faults), seven times.
    let warm = RunOptions {
        accesses: WARMUP_ACCESSES,
        ..opts.clone()
    };
    let setups: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = now();
            std::hint::black_box(fig5_report(&warm));
            std::hint::black_box(run_matrix(&SpecBench::ALL, &fig9_policies(), &warm));
            secs(t0, now())
        })
        .collect();
    rep.metrics.set("setup_s", median(&setups).unwrap_or(0.0));

    if traced {
        return traced_run(ctx, &opts, rep);
    }

    let t_start = now();
    let mut passes = Vec::new();
    while passes.len() < 3 || secs(t_start, now()) < ctx.seconds {
        passes.push(pass(&opts, None));
    }
    let rss = rss_mib(None, "VmHWM").unwrap_or(0.0);

    // Output checks: every pass equals the first, and each Fig. 9 cell
    // that repeats a Fig. 5 cell equals that first occurrence.
    let first = digests(&passes[0]);
    let mut failed = 0u64;
    for p in &passes[1..] {
        let d = digests(p);
        failed += first.iter().filter(|(k, v)| d.get(*k) != Some(v)).count() as u64;
    }
    let m5 = run_matrix(&SpecBench::ALL, &fig5_policies(), &opts);
    for (row5, row9) in m5.iter().zip(&passes[0].m9) {
        failed += row5.iter().zip(row9).filter(|(a, b)| a != b).count() as u64;
    }
    rep.tally.attempted = (CELLS_PER_PASS + 2) * passes.len() as u64;
    rep.tally.mismatch = failed;
    rep.digests = first;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let reps: Vec<(f64, Vec<f64>)> = passes
        .iter()
        .map(|p| (p.wall_s, p.cells.iter().map(|c| secs(c.3, c.4)).collect()))
        .collect();
    let wall = spread_envelope(&reps, ctx.nproc).unwrap_or(0.0);
    let instr: u64 = passes[0]
        .m9
        .iter()
        .map(|row| row[0].instructions)
        .sum::<u64>()
        * (fig5_policies().len() + fig9_policies().len()) as u64;
    rep.metrics.set("wall_s", wall);
    rep.metrics.set("sim_mips", instr as f64 / wall / 1e6);
    rep.metrics.set("peak_rss_mb", rss);
    rep.notes.push(format!(
        "  pass walls (s), median {:.4}, fastest {:.4}, envelope of {} cells {wall:.4}: {}",
        median(&walls).unwrap_or(0.0),
        min(&walls).unwrap_or(0.0),
        CELLS_PER_PASS,
        list(&walls)
    ));
    rep.notes.push(format!(
        "figures: {} passes of fig5+fig9 at {} accesses, -j{}; paper_ipc_err_pp {:.4} pp",
        passes.len(),
        DEFAULT_ACCESSES,
        ctx.nproc,
        paper_ipc_err_pp(&passes[0].m9)
    ));
    rep
}

fn traced_run(ctx: &Ctx, opts: &RunOptions, mut rep: RunReport) -> RunReport {
    let untraced = pass(opts, None);
    let rec = Recorder::new();
    let group = rec.next_id();
    let root = rec.next_id();
    let t0 = now();
    let tr = Traced {
        rec: &rec,
        root,
        group,
    };
    let p = pass(opts, Some(&tr));
    let m = &mut rep.metrics;
    m.set("bench.untraced_wall_s", untraced.wall_s);
    m.set(
        "bench.trace_overhead_pct",
        (p.wall_s - untraced.wall_s) / untraced.wall_s * 100.0,
    );

    // cpu, exec, experiments: from the cell spans of the traced pass.
    let mut ns = [0.0f64; 3];
    let mut counts = [0u64; 3];
    let mut busy = 0u64;
    let mut dup = 0u64;
    let mut tail_idle = 0.0;
    for &(matrix, _, col, a, b) in &p.cells {
        ns[col] += (b - a) as f64;
        counts[col] += DEFAULT_ACCESSES as u64;
        busy += b - a;
        // Fig. 9's LRU and LIN(4) columns repeat Fig. 5's cells.
        if matrix == 1 && col < 2 {
            dup += b - a;
        }
    }
    for (i, &(_, w1)) in p.windows.iter().enumerate() {
        let mut ends: Vec<u64> = p.cells.iter().filter(|c| c.0 == i).map(|c| c.4).collect();
        ends.sort_unstable();
        // Workers other than the last to finish sit idle from their last
        // cell's end to the matrix's end.
        for &e in ends.iter().rev().skip(1).take(ctx.nproc.saturating_sub(1)) {
            tail_idle += secs(e, w1.max(e));
        }
    }
    let matrix_ns: u64 = p.windows.iter().map(|(a, b)| b - a).sum();
    let run_ns = [
        ns[0] / counts[0].max(1) as f64,
        ns[1] / counts[1].max(1) as f64,
        ns[2] / counts[2].max(1) as f64,
    ];
    m.set(
        "exec.busy_frac",
        busy as f64 / (matrix_ns as f64 * ctx.nproc as f64),
    );
    m.set("exec.tail_idle_s", tail_idle);
    m.set("experiments.cells_requested", CELLS_PER_PASS as f64);
    m.set("experiments.cells_distinct", (14 * 3) as f64);
    m.set(
        "experiments.dup_time_share",
        dup as f64 / busy.max(1) as f64,
    );
    m.set("experiments.paper_ipc_err_pp", paper_ipc_err_pp(&p.m9));
    // fig5_report and run_matrix each generate all 14 traces.
    m.set("trace.generate_calls", 28.0);
    m.set("trace.distinct_traces", 14.0);

    let layer_span = rec.next_id();
    let tl = now();
    let rows =
        p.m9.iter()
            .map(|row| {
                row.clone()
                    .try_into()
                    .expect("three policies per Fig. 9 row")
            })
            .collect();
    let input = LayerInput {
        gens: SpecBench::ALL
            .into_iter()
            .map(|b| (b, DEFAULT_ACCESSES, ctx.seed))
            .collect(),
        results: Some(rows),
        run_ns: Some(run_ns),
    };
    layers::measure(&input, ctx.read_ns, m, &rec, layer_span);
    rec.record_with_id(layer_span, "layers", root, group, tl, now());
    serve::probe(ctx, &mut rep, &rec, root, group);
    rec.record_with_id(root, "figures.traced", 0, group, t0, now());
    rep.notes.push(crate::write_spans(ctx, "figures", &rec));
    // Tracing must not change a single output.
    let (a, b) = (digests(&untraced), digests(&p));
    rep.tally.attempted += CELLS_PER_PASS + 2;
    rep.tally.mismatch += a.iter().filter(|(k, v)| b.get(*k) != Some(v)).count() as u64;
    rep.digests = a;
    rep
}
