//! Per-layer timings, taken from outside: each metric times batches of
//! calls into one crate's public functions, replaying the workload's own
//! traces, and subtracts the calibrated cost of the clock reads that
//! bracket each batch.

use crate::clock::{now, ns_per_op};
use crate::output::Metrics;
use crate::spans::Recorder;
use crate::stats::median;
use mlpsim_cache::addr::{Geometry, LineAddr};
use mlpsim_cache::atd::Atd;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::meta::WayMeta;
use mlpsim_cache::model::CacheModel;
use mlpsim_cache::policy::VictimCtx;
use mlpsim_cache::set::OwnedSet;
use mlpsim_core::ccl::{AdderMode, Ccl};
use mlpsim_core::psel::Psel;
use mlpsim_core::quant::quantize;
use mlpsim_cpu::{PolicyKind, SimResult, System, SystemConfig};
use mlpsim_mem::{MemorySystem, Mshr};
use mlpsim_model::characterize::{profile_trace, CharacterizeConfig};
use mlpsim_model::plan::{score_cell, DEFAULT_PRUNE_MARGIN};
use mlpsim_telemetry::{EventSink, SinkHandle, SinkProbe, VecSink};
use mlpsim_trace::record::{AccessKind, Trace};
use mlpsim_trace::spec::SpecBench;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// The three policies the workloads run, in metric-suffix order.
pub fn policies() -> [(PolicyKind, &'static str); 3] {
    [
        (PolicyKind::Lru, "lru"),
        (PolicyKind::lin4(), "lin4"),
        (PolicyKind::sbar_default(), "sbar"),
    ]
}

/// Full sets captured for the victim-selection replay.
const MAX_CAPTURED_SETS: usize = 4096;
/// Accesses of the probe cell used for the telemetry timings.
const PROBE_ACCESSES: usize = 60_000;
/// The stage replays (cache, mem, model) run on each trace's first
/// accesses up to this many; per-op costs need no more.
const REPLAY_CAP: usize = 250_000;

/// What the layer replays run on.
pub struct LayerInput {
    /// The distinct traces the workload simulates, as generator calls.
    pub gens: Vec<(SpecBench, usize, u64)>,
    /// Per trace, the results under [`policies`], when the workload has
    /// them already; otherwise the replay simulates them.
    pub results: Option<Vec<[SimResult; 3]>>,
    /// `System::run` nanoseconds per access per policy, when the workload
    /// measured them itself.
    pub run_ns: Option<[f64; 3]>,
}

/// One L2 request left after the baseline L1D: the line, whether it is
/// a store, and the instruction count before it (for a replay clock).
struct L2Req {
    line: LineAddr,
    store: bool,
    at: u64,
}

fn l2_stream(trace: &Trace, read_ns: f64) -> (Vec<L2Req>, f64) {
    let geom = SystemConfig::baseline(PolicyKind::Lru)
        .l1
        .expect("the baseline machine has an L1D");
    let mut l1 = CacheModel::new(geom, Box::new(LruEngine::new()));
    let mut out = Vec::with_capacity(trace.len() / 2);
    let mut hits = Vec::with_capacity(trace.len());
    let ns = ns_per_op(trace.len() as u64, read_ns, || {
        for (seq, a) in trace.iter().enumerate() {
            let r = l1.access(LineAddr(a.line), a.kind == AccessKind::Store, seq as u64);
            hits.push(r.hit);
        }
    });
    let mut at = 0u64;
    for (a, hit) in trace.iter().zip(hits) {
        at += u64::from(a.gap) + 1;
        if !hit {
            out.push(L2Req {
                line: LineAddr(a.line),
                store: a.kind == AccessKind::Store,
                at,
            });
        }
    }
    (out, ns)
}

fn way_metas(model: &CacheModel, set: u32) -> Vec<WayMeta> {
    let view = model.tags().view(set);
    (0..view.assoc())
        .map(|w| WayMeta {
            valid: view.valid(w),
            tag: view.tag(w),
            lru_stamp: view.lru_stamp(w),
            fill_stamp: view.fill_stamp(w),
            cost_q: view.cost_q(w),
            dirty: false,
        })
        .collect()
}

/// Replays `reqs` through an L2 of `policy`; returns ns per access, and
/// the misses in order (for the memory-side replays). With `capture`,
/// also snapshots full sets at the moment a victim is needed; serviced
/// costs follow `cost_q` so LIN sees a realistic mix.
fn l2_replay(
    reqs: &[L2Req],
    policy: PolicyKind,
    read_ns: f64,
    capture: Option<&mut Vec<(OwnedSet, LineAddr, u64)>>,
    cost_q: u8,
) -> (f64, Vec<(LineAddr, u64)>) {
    let geom = Geometry::baseline_l2();
    let mut l2 = CacheModel::new(geom, policy.build(geom));
    let mut misses = Vec::new();
    match capture {
        None => {
            let mut hits = Vec::with_capacity(reqs.len());
            let ns = ns_per_op(reqs.len() as u64, read_ns, || {
                for (seq, r) in reqs.iter().enumerate() {
                    let out = l2.access(r.line, r.store, seq as u64);
                    if !out.hit {
                        l2.record_serviced_cost(r.line, cost_q);
                    }
                    hits.push(out.hit);
                }
            });
            for (r, hit) in reqs.iter().zip(hits) {
                if !hit {
                    misses.push((r.line, r.at));
                }
            }
            (ns, misses)
        }
        Some(sets) => {
            let stride = (reqs.len() / MAX_CAPTURED_SETS).max(1);
            for (seq, r) in reqs.iter().enumerate() {
                if seq % stride == 0 && sets.len() < MAX_CAPTURED_SETS && !l2.contains(r.line) {
                    let set = geom.set_index(r.line);
                    if l2.tags().view(set).first_invalid().is_none() {
                        sets.push((
                            OwnedSet::from_ways(&way_metas(&l2, set), set, geom),
                            r.line,
                            seq as u64,
                        ));
                    }
                }
                if !l2.access(r.line, r.store, seq as u64).hit {
                    l2.record_serviced_cost(r.line, cost_q);
                }
            }
            (0.0, misses)
        }
    }
}

/// Nanoseconds per `victim` call of a fresh `policy` engine over the
/// captured sets, best of three passes; 0 when no set ever filled.
fn victim_ns(sets: &[(OwnedSet, LineAddr, u64)], policy: PolicyKind, read_ns: f64) -> f64 {
    if sets.is_empty() {
        return 0.0;
    }
    let geom = Geometry::baseline_l2();
    let mut engine = policy.build(geom);
    let reps = (200_000 / sets.len().max(1)).max(1);
    (0..3)
        .map(|_| {
            ns_per_op((sets.len() * reps) as u64, read_ns, || {
                for _ in 0..reps {
                    for (set, incoming, seq) in sets {
                        let ctx = VictimCtx {
                            set: set.view(),
                            incoming: *incoming,
                            seq: *seq,
                        };
                        black_box(engine.victim(&ctx));
                    }
                }
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// MSHR allocate, CCL advance and free over a miss stream; returns ns
/// per miss. Fill times come from `dones`, one per miss.
fn mshr_replay(misses: &[(LineAddr, u64)], dones: &[u64], capacity: usize, read_ns: f64) -> f64 {
    let mut mshr = Mshr::new(capacity);
    let mut ccl = Ccl::new(AdderMode::PerEntry);
    ns_per_op(misses.len() as u64, read_ns, || {
        let mut now = 0u64;
        for (&(line, at), &done) in misses.iter().zip(dones) {
            now = now.max(at);
            while let Some((id, fill)) = mshr.next_completion() {
                if fill > now && !mshr.is_full() {
                    break;
                }
                now = now.max(fill);
                ccl.advance(&mut mshr, now);
                black_box(mshr.free(id));
            }
            if let Some(id) = mshr.lookup(line) {
                mshr.merge(id);
                continue;
            }
            ccl.advance(&mut mshr, now);
            black_box(mshr.allocate(line, now, done.max(now + 1), true).is_ok());
        }
    })
}

/// Simulates `trace` under `policy`; returns the result and ns per access.
fn run_cell(trace: &Trace, policy: PolicyKind, read_ns: f64) -> (SimResult, f64) {
    let sys = System::new(SystemConfig::baseline(policy));
    let mut out = None;
    let ns = ns_per_op(trace.len() as u64, read_ns, || {
        out = Some(sys.run(trace.iter()));
    });
    (out.expect("the run closure ran"), ns)
}

/// Run every layer replay over `input`; fills the `trace`, `cpu`,
/// `cache`, `core`, `mem`, `model` and `telemetry` metrics that time a
/// call (the workload sets the counts it observed itself). Each replay
/// is recorded as a span under `parent`. Returns each trace's results
/// under [`policies`].
pub fn measure(
    input: &LayerInput,
    read_ns: f64,
    m: &mut Metrics,
    rec: &Recorder,
    parent: u64,
) -> Vec<[SimResult; 3]> {
    let group = rec.next_id();
    let span = |name: &str, t0: u64| {
        rec.record(name, parent, group, t0, now());
    };

    // trace: regenerate each distinct trace.
    let t0 = now();
    let mut traces = Vec::new();
    let mut gen_ns = 0.0;
    let mut accesses = 0u64;
    for &(bench, n, seed) in &input.gens {
        let mut t = None;
        gen_ns += ns_per_op(1, read_ns, || t = Some(bench.generate(n, seed)));
        accesses += n as u64;
        traces.push(t.expect("generated"));
    }
    m.set(
        "trace.generate_ns_per_access",
        gen_ns / accesses.max(1) as f64,
    );
    span("trace.generate", t0);

    // cpu: whole-system runs per policy (unless the workload timed them).
    let t0 = now();
    let results: Vec<[SimResult; 3]> = match &input.results {
        Some(r) => r.clone(),
        None => {
            let mut ns = [0.0; 3];
            let rows = traces
                .iter()
                .map(|t| {
                    let row: Vec<SimResult> = policies()
                        .iter()
                        .enumerate()
                        .map(|(i, (p, _))| {
                            let (r, n) = run_cell(t, *p, read_ns);
                            ns[i] += n * t.len() as f64;
                            r
                        })
                        .collect();
                    row.try_into().expect("three policies")
                })
                .collect();
            if input.run_ns.is_none() {
                for (i, (_, label)) in policies().iter().enumerate() {
                    m.set(
                        &format!("cpu.run_ns_per_access.{label}"),
                        ns[i] / accesses.max(1) as f64,
                    );
                }
            }
            rows
        }
    };
    if let Some(ns) = input.run_ns {
        for (i, (_, label)) in policies().iter().enumerate() {
            m.set(&format!("cpu.run_ns_per_access.{label}"), ns[i]);
        }
    }
    let construct: Vec<f64> = (0..15)
        .map(|_| {
            let cfg = SystemConfig::baseline(PolicyKind::lin4());
            ns_per_op(1, read_ns, || drop(black_box(System::new(cfg)))) / 1e6
        })
        .collect();
    m.set("cpu.construct_ms", median(&construct).unwrap_or(0.0));
    span("cpu.run", t0);

    let replays: Vec<Trace> = traces
        .iter()
        .map(|t| Trace::from_accesses(t.accesses()[..t.len().min(REPLAY_CAP)].to_vec()))
        .collect();
    let replayed: u64 = replays.iter().map(|t| t.len() as u64).sum();

    // cache: L1D filter, then the L2 per policy, victims, ranks, ATD.
    let t0 = now();
    let mut l1_ns = 0.0;
    let mut l2_ns = [0.0; 3];
    let mut atd_ns = 0.0;
    let mut l2_reqs = 0u64;
    let mut sets = Vec::new();
    let mut miss_streams = Vec::new();
    for (trace, row) in replays.iter().zip(&results) {
        let (reqs, ns) = l2_stream(trace, read_ns);
        l1_ns += ns * trace.len() as f64;
        l2_reqs += reqs.len() as u64;
        let cost_q = quantize(row[1].mean_cost());
        for (i, (p, _)) in policies().iter().enumerate() {
            let (ns, misses) = l2_replay(&reqs, *p, read_ns, None, cost_q);
            l2_ns[i] += ns * reqs.len() as f64;
            if i == 1 {
                miss_streams.push(misses);
            }
        }
        if sets.len() < MAX_CAPTURED_SETS {
            l2_replay(&reqs, PolicyKind::lin4(), read_ns, Some(&mut sets), cost_q);
        }
        let geom = Geometry::baseline_l2();
        let mut atd = Atd::new(geom, Box::new(LruEngine::new()));
        atd_ns += ns_per_op(reqs.len() as u64, read_ns, || {
            for (seq, r) in reqs.iter().enumerate() {
                black_box(atd.access(r.line, seq as u64, cost_q));
            }
        }) * reqs.len() as f64;
    }
    m.set("cache.l1_access_ns", l1_ns / replayed.max(1) as f64);
    for (i, (_, label)) in policies().iter().enumerate() {
        m.set(
            &format!("cache.l2_access_ns.{label}"),
            l2_ns[i] / l2_reqs.max(1) as f64,
        );
    }
    m.set("cache.atd_access_ns", atd_ns / l2_reqs.max(1) as f64);
    m.set(
        "cache.victim_ns.lru",
        victim_ns(&sets, PolicyKind::Lru, read_ns),
    );
    m.set(
        "cache.victim_ns.lin4",
        victim_ns(&sets, PolicyKind::lin4(), read_ns),
    );
    let reps = (200_000 / sets.len().max(1)).max(1);
    let ranks_ns = if sets.is_empty() {
        0.0
    } else {
        ns_per_op((sets.len() * reps) as u64, read_ns, || {
            for _ in 0..reps {
                for (set, _, _) in &sets {
                    black_box(set.view().recency_ranks());
                }
            }
        })
    };
    m.set("cache.recency_ranks_ns", ranks_ns);
    span("cache.replay", t0);

    // core: quantizer, CCL advance, PSEL.
    let t0 = now();
    let costs: Vec<f64> = (0..4096).map(|i| f64::from(i % 1000) * 0.73).collect();
    m.set(
        "core.quantize_ns",
        ns_per_op(costs.len() as u64 * 64, read_ns, || {
            for _ in 0..64 {
                for &c in &costs {
                    black_box(quantize(black_box(c)));
                }
            }
        }),
    );
    let cfg = SystemConfig::baseline(PolicyKind::lin4());
    let mut mshr = Mshr::new(cfg.mem.mshr_entries);
    for i in 0..8 {
        mshr.allocate(LineAddr(i), 0, u64::MAX, true)
            .expect("a fresh MSHR has room for eight entries");
    }
    let mut ccl = Ccl::new(AdderMode::PerEntry);
    const ADVANCES: u64 = 400_000;
    m.set(
        "core.ccl_advance_ns",
        ns_per_op(ADVANCES, read_ns, || {
            for t in 1..=ADVANCES {
                ccl.advance(&mut mshr, t);
            }
        }),
    );
    let mut psel = Psel::paper_default();
    const UPDATES: u64 = 2_000_000;
    m.set(
        "core.psel_update_ns",
        ns_per_op(UPDATES, read_ns, || {
            for i in 0..UPDATES {
                if i % 3 == 0 {
                    psel.dec_by(1);
                } else {
                    psel.inc_by(1);
                }
                black_box(psel.msb_set());
            }
        }),
    );
    span("core.replay", t0);

    // mem: DRAM/bus scheduling and MSHR+CCL over the LIN(4) miss stream.
    let t0 = now();
    let mut fill_ns = 0.0;
    let mut mshr_ns = 0.0;
    let mut misses = 0u64;
    for stream in &miss_streams {
        let mut memsys = MemorySystem::new(cfg.mem);
        let mut dones = Vec::with_capacity(stream.len());
        fill_ns += ns_per_op(stream.len() as u64, read_ns, || {
            for &(line, at) in stream {
                dones.push(memsys.request_fill(line, at));
            }
        }) * stream.len() as f64;
        mshr_ns += mshr_replay(stream, &dones, cfg.mem.mshr_entries, read_ns) * stream.len() as f64;
        misses += stream.len() as u64;
    }
    m.set("mem.request_fill_ns", fill_ns / misses.max(1) as f64);
    m.set("mem.mshr_ns_per_miss", mshr_ns / misses.max(1) as f64);
    span("mem.replay", t0);

    // model: one-pass characterization and cell scoring.
    let t0 = now();
    let mut prof_ns = 0.0;
    let mut score = Vec::new();
    for trace in &replays {
        let mut profile = None;
        prof_ns += ns_per_op(1, read_ns, || {
            profile = Some(profile_trace(trace, &CharacterizeConfig::baseline()));
        });
        let profile = profile.expect("profiled");
        const SCORES: u64 = 300;
        score.push(ns_per_op(SCORES * 3, read_ns, || {
            for _ in 0..SCORES {
                for (p, _) in policies() {
                    black_box(score_cell(
                        &profile,
                        Geometry::baseline_l2(),
                        &p.label(),
                        DEFAULT_PRUNE_MARGIN,
                    ));
                }
            }
        }));
    }
    m.set(
        "model.profile_ns_per_access",
        prof_ns / replayed.max(1) as f64,
    );
    m.set("model.score_ns_per_cell", median(&score).unwrap_or(0.0));
    span("model.replay", t0);

    // telemetry: a probed run against a plain one on the same slice.
    let t0 = now();
    let probe_trace =
        Trace::from_accesses(traces[0].accesses()[..traces[0].len().min(PROBE_ACCESSES)].to_vec());
    let mut plain = Vec::new();
    let mut probed = Vec::new();
    let mut events = Vec::new();
    for _ in 0..3 {
        plain.push(run_cell(&probe_trace, PolicyKind::lin4(), read_ns).1);
        let buf = Arc::new(Mutex::new(VecSink::new()));
        let handle = SinkHandle::shared(Arc::clone(&buf) as Arc<Mutex<dyn EventSink + Send>>);
        let sys = System::with_probe(
            SystemConfig::baseline(PolicyKind::lin4()),
            SinkProbe::new(handle),
        );
        probed.push(ns_per_op(probe_trace.len() as u64, read_ns, || {
            black_box(sys.run(probe_trace.iter()));
        }));
        events = std::mem::take(&mut buf.lock().expect("event buffer lock").events);
    }
    m.set(
        "telemetry.probe_ns_per_access",
        median(&probed).unwrap_or(0.0) - median(&plain).unwrap_or(0.0),
    );
    m.set(
        "telemetry.encode_ns_per_event",
        ns_per_op(events.len() as u64, read_ns, || {
            for ev in &events {
                black_box(ev.to_ndjson_line());
            }
        }),
    );
    span("telemetry.replay", t0);

    // Share of System::run time the replayed stages do not explain:
    // each stage's ns/op times its exact op count from the LIN(4) runs.
    let lin_ns = m.get("cpu.run_ns_per_access.lin4").unwrap_or(0.0) * accesses as f64;
    let (mut l2_acc, mut l2_miss, mut serviced) = (0u64, 0u64, 0u64);
    for row in &results {
        l2_acc += row[1].l2.accesses();
        l2_miss += row[1].l2.misses;
        serviced += row[1].cost_hist.count();
    }
    let explained = m.get("cache.l1_access_ns").unwrap_or(0.0) * accesses as f64
        + m.get("cache.l2_access_ns.lin4").unwrap_or(0.0) * l2_acc as f64
        + (m.get("mem.mshr_ns_per_miss").unwrap_or(0.0)
            + m.get("mem.request_fill_ns").unwrap_or(0.0))
            * l2_miss as f64
        + m.get("core.quantize_ns").unwrap_or(0.0) * serviced as f64;
    m.set(
        "cpu.unexplained_frac",
        if lin_ns > 0.0 {
            1.0 - explained / lin_ns
        } else {
            0.0
        },
    );
    m.set("cache.l2_accesses", l2_acc as f64);
    m.set("cache.l2_misses", l2_miss as f64);
    m.set(
        "mem.peak_mlp",
        results.iter().map(|r| r[1].peak_mlp).max().unwrap_or(0) as f64,
    );
    results
}
