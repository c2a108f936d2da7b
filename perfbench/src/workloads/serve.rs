//! `serve`: `mlpsim-serve` as a child process on localhost, driven by a
//! closed loop of `nproc` clients. Here the service path (event logging
//! and streaming, journaling) costs more than the simulation.
//!
//! Work is done in batches of fixed size, each against a freshly started
//! server with a fresh data directory: every client runs
//! [`ITERS_PER_CLIENT`] iterations, then the server is stopped. A batch is
//! the unit of `wall_s`, and restarting bounds the memory a run can hold,
//! since the server keeps every finished job's event log.

use super::{Ctx, RunReport};
use crate::clock::{now, rss_mib, secs};
use crate::layers::{self, LayerInput};
use crate::load::{check_outputs, iteration, run_clients, ConnGauge, IterRecord};
use crate::spans::Recorder;
use crate::stats::{list, median, min, spread_envelope, tail, FailTally};
use mlpsim_analysis::util::percent_improvement;
use mlpsim_cpu::PolicyKind;
use mlpsim_experiments::figures::sweep_report;
use mlpsim_experiments::jobspec::JobSpec;
use mlpsim_experiments::paper::paper_row;
use mlpsim_experiments::runner::RunOptions;
use mlpsim_model::plan::DEFAULT_PRUNE_MARGIN;
use mlpsim_serve::client::request;
use mlpsim_telemetry::Json;
use mlpsim_trace::spec::SpecBench;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Iterations each client runs per batch.
pub const ITERS_PER_CLIENT: usize = SpecBench::ALL.len();
/// Iterations per client in the serve-layer probe of the in-process
/// workloads' traced runs.
const PROBE_ITERS: usize = 4;
/// Accesses per cell of every spec: small, so that the service path,
/// not the simulation, dominates a job. At 1,500 a batch's envelope
/// followed the host's load (0.90–1.00 s over four alternating runs on a
/// 2-vCPU host); at 500 it stayed within 1.2% in the same runs.
const SPEC_ACCESSES: usize = 500;

/// One job spec of the pool.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Benchmark.
    pub bench: SpecBench,
    /// `[lru, lin(4)]` or `[lru, sbar]`.
    pub policies: [PolicyKind; 2],
    /// Accesses per cell.
    pub accesses: usize,
    /// Trace seed.
    pub seed: u64,
    /// Worker threads the server may give the job.
    pub jobs: usize,
}

impl Spec {
    /// The POST body.
    pub fn json(&self) -> String {
        let policy = |p: &PolicyKind| match p {
            PolicyKind::Sbar(_) => "sbar".to_string(),
            other => other.label(),
        };
        format!(
            "{{\"kind\":\"sweep\",\"benches\":[\"{}\"],\"policies\":[\"{}\",\"{}\"],\"accesses\":{},\"seed\":{},\"jobs\":{}}}",
            self.bench.name(),
            policy(&self.policies[0]),
            policy(&self.policies[1]),
            self.accesses,
            self.seed,
            self.jobs
        )
    }

    /// The result and estimate bodies the server must return, computed
    /// in process: `figures::sweep_report` and the spec's estimate
    /// document.
    pub fn expected(&self) -> (String, String) {
        let opts = RunOptions {
            accesses: self.accesses,
            seed: self.seed,
            jobs: self.jobs,
            ..RunOptions::default()
        };
        let result = sweep_report(&[self.bench], &self.policies, &opts);
        let spec = JobSpec::parse(&self.json()).expect("the pool's specs parse");
        let mut estimate = spec.estimate_doc(DEFAULT_PRUNE_MARGIN).to_string_compact();
        estimate.push('\n');
        (result, estimate)
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The run's distinct specs: one per benchmark, half of them under
/// `[lru, lin(4)]` and half under `[lru, sbar]`, the split drawn from
/// `seed`. Every seed's pool has the same shape, so the work a batch does
/// varies little from seed to seed.
pub fn spec_pool(seed: u64, nproc: usize) -> Vec<Spec> {
    let order = shuffled(SpecBench::ALL.len(), mix(seed));
    SpecBench::ALL
        .iter()
        .enumerate()
        .map(|(k, &bench)| Spec {
            bench,
            policies: [
                PolicyKind::Lru,
                if order[k] < SpecBench::ALL.len() / 2 {
                    PolicyKind::lin4()
                } else {
                    PolicyKind::sbar_default()
                },
            ],
            accesses: SPEC_ACCESSES,
            seed: seed % 1000,
            jobs: nproc.clamp(1, 2),
        })
        .collect()
}

/// `0..n` in an order drawn from `key` (Fisher-Yates over splitmix64).
fn shuffled(n: usize, key: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(key ^ i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The pool spec each of a batch's `total` iterations submits: the pool
/// repeated to length `total`, in an order drawn from `seed`. Iteration
/// `i` of client `c` takes entry `c + i * clients`, so canonical specs
/// repeat within a batch, and every batch of a run does the same work in
/// the same order: each iteration slot is a piece of `wall_s`'s envelope.
pub fn batch_order(seed: u64, pool: usize, total: usize) -> Vec<usize> {
    let slots = shuffled(total, mix(seed ^ mix(1)));
    slots.into_iter().map(|x| x % pool).collect()
}

/// A running server; killed and waited for when dropped.
pub struct Server {
    child: Child,
    /// Held open: the server may write to its stdout.
    _stdout: BufReader<ChildStdout>,
    /// `http://127.0.0.1:PORT`.
    pub url: String,
    data_dir: PathBuf,
}

impl Server {
    /// Start `bin` on an ephemeral localhost port with a fresh data
    /// directory under `out_dir`, and wait until `GET /healthz` answers
    /// 200. Returns the server and the seconds that took.
    pub fn start(bin: &Path, out_dir: &Path, tag: &str) -> Result<(Server, f64), String> {
        let data_dir = out_dir.join(format!("serve-data-{tag}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        let t0 = now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(&data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let mut server = Server {
            child,
            _stdout: stdout,
            url: String::new(),
            data_dir,
        };
        match (read, addr) {
            (Ok(_), Some(url)) => server.url = url,
            _ => return Err(format!("server did not report its address: {line:?}")),
        }
        for _ in 0..20_000 {
            if let Ok(r) = request(&server.url, "GET", "/healthz", None, None) {
                if r.status == 200 {
                    return Ok((server, secs(t0, now())));
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Err("server never answered /healthz".into())
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// One batch's measurements.
struct Batch {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    retained_mb: f64,
    records: Vec<IterRecord>,
    max_conns: usize,
    healthz_ms: Vec<f64>,
    /// Traced batches: per completed job, its spec and server-side spans.
    server_spans: Vec<(usize, ServerSpans)>,
}

fn run_batch(
    ctx: &Ctx,
    pool: &[Spec],
    b: usize,
    iters: usize,
    traced: bool,
) -> Result<Batch, String> {
    let (server, setup_s) =
        Server::start(&ctx.server_bin, &ctx.out_dir, &format!("{}-{b}", ctx.seed))?;
    let mut healthz_ms = Vec::new();
    if traced {
        for _ in 0..20 {
            let t0 = now();
            let r = request(&server.url, "GET", "/healthz", None, None);
            if r.is_ok_and(|r| r.status == 200) {
                healthz_ms.push(secs(t0, now()) * 1e3);
            }
        }
    }
    let rss0 = rss_mib(Some(server.pid()), "VmRSS").unwrap_or(0.0);
    let gauge = ConnGauge::default();
    let order = batch_order(ctx.seed, pool.len(), ctx.nproc * iters);
    let t0 = now();
    let records = run_clients(ctx.nproc, iters, |c, i| {
        let spec = order[c + i * ctx.nproc];
        let events_trace = traced.then(|| {
            format!(
                "{:016x}{:016x}",
                mix(b as u64 + 1),
                mix(((c as u64) << 32) | i as u64)
            )
        });
        iteration(&gauge, &server.url, spec, &pool[spec].json(), events_trace)
    });
    let wall_s = secs(t0, now());
    let peak = rss_mib(Some(server.pid()), "VmHWM").unwrap_or(0.0);
    let rss1 = rss_mib(Some(server.pid()), "VmRSS").unwrap_or(0.0);
    let jobs = records.iter().filter(|r| r.result.is_some()).count().max(1);
    let mut batch = Batch {
        setup_s,
        wall_s,
        peak_rss_mb: peak,
        retained_mb: (rss1 - rss0) / jobs as f64,
        records,
        max_conns: gauge.max_open(),
        healthz_ms,
        server_spans: Vec::new(),
    };
    if traced {
        batch.server_spans = fetch_server_spans(&server.url, &batch.records);
    }
    drop(server);
    Ok(batch)
}

/// Server-side span durations (ms) of one job, read from the flight
/// recorder after the batch.
#[derive(Clone, Debug, Default)]
struct ServerSpans {
    queue_wait: f64,
    run: f64,
    /// One per `run(cell=i,j)` span.
    cells: Vec<f64>,
    stream_write: f64,
}

fn trace_spans(url: &str, id: &str) -> Option<Vec<(String, f64)>> {
    let r = request(url, "GET", &format!("/debug/traces/{id}"), None, None).ok()?;
    if r.status != 200 {
        return None;
    }
    let doc = r.json().ok()?;
    let Some(Json::Arr(spans)) = doc.get("spans") else {
        return None;
    };
    Some(
        spans
            .iter()
            .filter_map(|s| {
                let name = s.get("name")?.as_str()?.to_string();
                let us = s.get("dur_us")?.as_f64()?;
                Some((name, us / 1e3))
            })
            .collect(),
    )
}

fn fetch_server_spans(url: &str, records: &[IterRecord]) -> Vec<(usize, ServerSpans)> {
    let mut out = Vec::new();
    for r in records {
        let mut s = ServerSpans::default();
        let mut found = false;
        if let Some(spans) = r.job_trace.as_deref().and_then(|id| trace_spans(url, id)) {
            found = true;
            for (name, ms) in spans {
                match name.as_str() {
                    "queue_wait" => s.queue_wait += ms,
                    "run" => s.run += ms,
                    n if n.starts_with("run(cell=") => s.cells.push(ms),
                    _ => {}
                }
            }
        }
        if let Some(spans) = r
            .events_trace
            .as_deref()
            .and_then(|id| trace_spans(url, id))
        {
            s.stream_write = spans
                .iter()
                .filter(|(n, _)| n == "stream_write")
                .map(|(_, ms)| ms)
                .sum();
        }
        if found {
            out.push((r.spec, s));
        }
    }
    out
}

fn percentiles(xs: &[f64]) -> (f64, f64, f64, usize) {
    let p50 = median(xs).unwrap_or(f64::NAN);
    match tail(xs) {
        Some(t) => (p50, t.value, t.pct, t.samples),
        None => (p50, f64::NAN, f64::NAN, xs.len()),
    }
}

fn check(pool: &[Spec], records: &[IterRecord]) -> FailTally {
    let expected: Vec<(String, String)> = pool.iter().map(Spec::expected).collect();
    check_outputs(records, &|i| expected[i].clone())
}

/// The untraced (`traced == false`) or traced run.
pub fn run(ctx: &Ctx, traced: bool) -> Result<RunReport, String> {
    let mut rep = RunReport::default();
    let pool = spec_pool(ctx.seed, ctx.nproc);
    if traced {
        let base = run_batch(ctx, &pool, 0, ITERS_PER_CLIENT, false)?;
        let rec = Recorder::new();
        let group = rec.next_id();
        let root = rec.next_id();
        let t0 = now();
        let (records, traced_wall) =
            serve_layer(ctx, &mut rep, &rec, root, group, ITERS_PER_CLIENT, true)?;
        let m = &mut rep.metrics;
        m.set("bench.untraced_wall_s", base.wall_s);
        m.set(
            "bench.trace_overhead_pct",
            (traced_wall - base.wall_s) / base.wall_s * 100.0,
        );
        let mut distinct: Vec<(SpecBench, usize, u64)> = Vec::new();
        for r in &records {
            let s = &pool[r.spec];
            if !distinct.contains(&(s.bench, s.accesses, s.seed)) {
                distinct.push((s.bench, s.accesses, s.seed));
            }
        }
        let layer_span = rec.next_id();
        let tl = now();
        let input = LayerInput {
            gens: distinct,
            results: None,
            run_ns: None,
        };
        let rows = layers::measure(&input, ctx.read_ns, m, &rec, layer_span);
        // The replay simulated every submitted trace under all three
        // policies; compare each spec's policy with the paper.
        let errs: Vec<f64> = input
            .gens
            .iter()
            .zip(&rows)
            .map(|(&(bench, _, _), [lru, lin, sbar])| {
                let spec = pool
                    .iter()
                    .find(|s| s.bench == bench)
                    .expect("one spec per bench");
                let p = paper_row(bench);
                let (alt, paper) = match spec.policies[1] {
                    PolicyKind::Sbar(_) => (sbar, p.sbar_ipc_pct),
                    _ => (lin, p.lin_ipc_pct),
                };
                (percent_improvement(alt.ipc(), lru.ipc()) - paper).abs()
            })
            .collect();
        m.set(
            "experiments.paper_ipc_err_pp",
            errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        );
        rec.record_with_id(layer_span, "layers", root, group, tl, now());
        rec.record_with_id(root, "serve.traced", 0, group, t0, now());
        rep.notes.push(crate::write_spans(ctx, "serve", &rec));
        rep.tally = check(&pool, &records);
        rep.tally.merge(&check(&pool, &base.records));
        return Ok(rep);
    }

    let t_start = now();
    let mut batches = Vec::new();
    while batches.len() < 3 || secs(t_start, now()) < ctx.seconds {
        batches.push(run_batch(
            ctx,
            &pool,
            batches.len(),
            ITERS_PER_CLIENT,
            false,
        )?);
    }
    let records: Vec<IterRecord> = batches.iter().flat_map(|b| b.records.clone()).collect();
    rep.tally = check(&pool, &records);

    let instr: Vec<u64> = pool
        .iter()
        .map(|s| s.bench.generate(s.accesses, s.seed).instructions() * s.policies.len() as u64)
        .collect();
    // Every batch submits each pool spec `nproc` times.
    let batch_instr = instr.iter().sum::<u64>() * ctx.nproc as u64;
    let col = |f: fn(&Batch) -> f64| batches.iter().map(f).collect::<Vec<f64>>();
    // Records come client by client, each client's in iteration order, so
    // position k is the same iteration slot in every batch.
    let reps: Vec<(f64, Vec<f64>)> = batches
        .iter()
        .map(|b| {
            let slots = b
                .records
                .iter()
                .map(|r| match (r.steps.first(), r.steps.last()) {
                    (Some(first), Some(last)) => secs(first.1, last.2),
                    _ => 0.0,
                });
            (b.wall_s, slots.collect())
        })
        .collect();
    let wall = spread_envelope(&reps, ctx.nproc).unwrap_or(0.0);
    rep.metrics
        .set("setup_s", median(&col(|b| b.setup_s)).unwrap_or(0.0));
    rep.metrics.set("wall_s", wall);
    rep.metrics.set("sim_mips", batch_instr as f64 / wall / 1e6);
    rep.metrics.set(
        "peak_rss_mb",
        median(&col(|b| b.peak_rss_mb)).unwrap_or(0.0),
    );

    let jobs: Vec<f64> = records.iter().filter_map(|r| r.job_ms).collect();
    let ests: Vec<f64> = records.iter().filter_map(|r| r.estimate_ms).collect();
    let (j50, jt, jp, jn) = percentiles(&jobs);
    let (e50, et, ep, en) = percentiles(&ests);
    let max_conns = batches.iter().map(|b| b.max_conns).max().unwrap_or(0);
    rep.notes.push(format!(
        "serve: {} batches x {} clients x {ITERS_PER_CLIENT} iterations, at most {max_conns} connections open",
        batches.len(),
        ctx.nproc
    ));
    rep.notes.push(format!(
        "  batch walls (s), median {:.4}, fastest {:.4}, envelope of {} iterations {wall:.4}: {}",
        median(&col(|b| b.wall_s)).unwrap_or(0.0),
        min(&col(|b| b.wall_s)).unwrap_or(0.0),
        ctx.nproc * ITERS_PER_CLIENT,
        list(&col(|b| b.wall_s))
    ));
    rep.notes.push(format!(
        "  job_p50_ms      {j50:>12.3} ms   job_tail_ms      {jt:>12.3} ms (p{jp} of {jn})"
    ));
    rep.notes.push(format!(
        "  estimate_p50_ms {e50:>12.3} ms   estimate_tail_ms {et:>12.3} ms (p{ep} of {en})"
    ));
    Ok(rep)
}

/// The serve-layer metrics from one traced batch of `iters` iterations
/// per client: client-side spans around each request, server-side spans
/// from `GET /debug/traces/:id`, and the telemetry stream sizes. Returns
/// the batch's records and its wall time. With `own`, the batch is the
/// `serve` workload's own traffic, and it also sets the trace, exec and
/// experiments counts for it.
pub fn serve_layer(
    ctx: &Ctx,
    rep: &mut RunReport,
    rec: &Recorder,
    root: u64,
    group: u64,
    iters: usize,
    own: bool,
) -> Result<(Vec<IterRecord>, f64), String> {
    let pool = spec_pool(ctx.seed, ctx.nproc);
    let t0 = now();
    let batch = run_batch(ctx, &pool, 1, iters, true)?;
    let batch_span = rec.record("serve.batch", root, group, t0, now());
    rec.record(
        "serve.start",
        batch_span,
        group,
        t0,
        t0 + (batch.setup_s * 1e9) as u64,
    );
    for r in &batch.records {
        let (Some(first), Some(last)) = (r.steps.first(), r.steps.last()) else {
            continue;
        };
        let it = rec.record("serve.iteration", batch_span, group, first.1, last.2);
        for &(name, a, b) in &r.steps {
            rec.record(name, it, group, a, b);
        }
    }
    let spans = &batch.server_spans;
    let m = &mut rep.metrics;

    let recs = &batch.records;
    let ok: Vec<&IterRecord> = recs.iter().filter(|r| r.result.is_some()).collect();
    let avg = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let jobs: Vec<f64> = recs.iter().filter_map(|r| r.job_ms).collect();
    let ests: Vec<f64> = recs.iter().filter_map(|r| r.estimate_ms).collect();
    let (j50, jt, jp, _) = percentiles(&jobs);
    let (e50, et, ep, _) = percentiles(&ests);
    m.set("serve.job_p50_ms", j50);
    m.set("serve.estimate_p50_ms", e50);
    // Too few samples for a tail: report the maximum at the 100th.
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    m.set(
        "serve.job_tail_ms",
        if jt.is_finite() { jt } else { max(&jobs) },
    );
    m.set(
        "serve.job_tail_pct",
        if jp.is_finite() { jp } else { 100.0 },
    );
    m.set(
        "serve.estimate_tail_ms",
        if et.is_finite() { et } else { max(&ests) },
    );
    m.set(
        "serve.estimate_tail_pct",
        if ep.is_finite() { ep } else { 100.0 },
    );
    m.set(
        "serve.submit_ms",
        median(&recs.iter().filter_map(|r| r.submit_ms).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    m.set("serve.healthz_ms", median(&batch.healthz_ms).unwrap_or(0.0));
    m.set(
        "serve.queue_wait_ms",
        avg(spans.iter().map(|s| s.1.queue_wait).collect()),
    );
    m.set("serve.run_ms", avg(spans.iter().map(|s| s.1.run).collect()));
    m.set(
        "serve.cells_ms",
        avg(spans.iter().map(|s| s.1.cells.iter().sum()).collect()),
    );
    m.set(
        "serve.stream_write_ms",
        avg(spans.iter().map(|s| s.1.stream_write).collect()),
    );
    m.set("serve.retained_mb_per_job", batch.retained_mb);
    let mut seen = BTreeSet::new();
    let repeats = ok.iter().filter(|r| !seen.insert(r.spec)).count();
    m.set(
        "serve.repeat_spec_share",
        repeats as f64 / ok.len().max(1) as f64,
    );
    m.set(
        "telemetry.events_per_job",
        avg(ok.iter().map(|r| r.events as f64).collect()),
    );
    m.set(
        "telemetry.stream_bytes_per_job",
        avg(ok.iter().map(|r| r.stream_bytes as f64).collect()),
    );

    if own {
        let cells: f64 = spans.iter().map(|s| s.1.cells.iter().sum::<f64>()).sum();
        let mut first = BTreeSet::new();
        let dup: f64 = spans
            .iter()
            .filter(|s| !first.insert(s.0))
            .map(|s| s.1.cells.iter().sum::<f64>())
            .sum();
        let run: f64 = spans.iter().map(|s| s.1.run).sum();
        let width = pool[0].jobs as f64;
        m.set(
            "exec.busy_frac",
            cells / (run * width).max(f64::MIN_POSITIVE),
        );
        m.set(
            "exec.tail_idle_s",
            spans
                .iter()
                .map(|s| {
                    // The worker that finished first waits for the other.
                    let longest = s.1.cells.iter().copied().fold(0.0, f64::max);
                    let shortest = s.1.cells.iter().copied().fold(f64::INFINITY, f64::min);
                    if s.1.cells.len() > 1 {
                        (longest - shortest) / 1e3
                    } else {
                        0.0
                    }
                })
                .sum(),
        );
        m.set("experiments.cells_requested", (ok.len() * 2) as f64);
        let distinct: BTreeSet<usize> = ok.iter().map(|r| r.spec).collect();
        m.set("experiments.cells_distinct", (distinct.len() * 2) as f64);
        m.set(
            "experiments.dup_time_share",
            dup / cells.max(f64::MIN_POSITIVE),
        );
        // Each job generates its bench's trace, and so does each estimate.
        m.set("trace.generate_calls", (ok.len() * 2) as f64);
        let traces: BTreeSet<(usize, usize)> = ok
            .iter()
            .map(|r| (pool[r.spec].bench as usize, pool[r.spec].accesses))
            .collect();
        m.set("trace.distinct_traces", traces.len() as f64);
    }
    Ok((batch.records, batch.wall_s))
}

/// The serve-layer probe of an in-process workload's traced run: a short
/// traced batch against a fresh server, so every traced run reports the
/// serve and telemetry layers.
pub fn probe(ctx: &Ctx, rep: &mut RunReport, rec: &Recorder, root: u64, group: u64) {
    match serve_layer(ctx, rep, rec, root, group, PROBE_ITERS, false) {
        Ok((records, _)) => {
            let pool = spec_pool(ctx.seed, ctx.nproc);
            rep.tally.merge(&check(&pool, &records));
        }
        Err(e) => {
            rep.notes.push(format!("serve probe failed: {e}"));
            rep.tally.attempted += 1;
            rep.tally.transport += 1;
        }
    }
}
