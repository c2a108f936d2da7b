//! The telemetry layer's core promise: `System<NoProbe>` (the default)
//! costs no more than a runtime-disabled `SinkProbe` — all emission code
//! compiled in, every emit taking the null-check branch, and the stall
//! attribution tracker running. `NoProbe` within 2% of it shows the
//! probe generic compiles away.
//!
//! Two traces are timed: `mcf` (the emission-heavy case) and `twolf`, where
//! nearly every miss opens a full-window stall episode, maximizing the
//! attribution tracker's span traffic.
//!
//! Under `invariants`, `NoProbe` builds the attribution tracker too, so
//! the comparison says nothing there and the test is compiled out.

#![cfg(not(feature = "invariants"))]

use mlpsim_cpu::{PolicyKind, System, SystemConfig};
use mlpsim_telemetry::{SinkHandle, SinkProbe};
use mlpsim_trace::gen::spec::SpecBench;
use std::hint::black_box;
use std::time::Instant;

const ACCESSES: usize = 40_000;
const ROUNDS: usize = 11;
/// `NoProbe` may be at most this much slower than the runtime-disabled
/// probe.
const MAX_RATIO: f64 = 1.02;

/// Best-case wall time of one full simulation per closure, with the
/// variants sampled round-robin so frequency/thermal drift hits all of
/// them alike. The minimum is the noise-robust estimator here: scheduler
/// preemption only ever adds time, so the fastest sample is the closest
/// view of the code's true cost.
fn interleaved_minimums<const N: usize>(mut runs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    // One untimed warm-up pass per variant.
    for r in runs.iter_mut() {
        r();
    }
    for _ in 0..ROUNDS {
        for (i, r) in runs.iter_mut().enumerate() {
            let t0 = Instant::now();
            r();
            best[i] = best[i].min(t0.elapsed().as_nanos() as f64);
        }
    }
    best
}

#[test]
fn no_probe_costs_no_more_than_a_runtime_disabled_probe() {
    for (bench, seed) in [(SpecBench::Mcf, 7), (SpecBench::Twolf, 11)] {
        let trace = bench.generate(ACCESSES, seed);
        let cfg = || SystemConfig::baseline(PolicyKind::lin4());
        let mut no_probe = || {
            black_box(System::new(cfg()).run(trace.iter()));
        };
        let mut runtime_off = || {
            let probe = SinkProbe::new(SinkHandle::disabled());
            black_box(System::with_probe(cfg(), probe).run(trace.iter()));
        };
        let [t_none, t_off] = interleaved_minimums([&mut no_probe, &mut runtime_off]);
        let ratio = t_none / t_off;
        println!(
            "{}: NoProbe {t_none:.0} ns, runtime-disabled SinkProbe {t_off:.0} ns, \
             NoProbe/SinkProbe = {ratio:.3}",
            bench.name()
        );
        assert!(
            ratio <= MAX_RATIO,
            "{}: System<NoProbe> ({t_none:.0} ns) runs more than 2% slower than a \
             runtime-disabled SinkProbe ({t_off:.0} ns): the probe generic is not \
             compiling away",
            bench.name()
        );
    }
}
