//! Digests repeat exactly across two runs of a short input and tell
//! different inputs apart.

use mlpsim_cpu::{PolicyKind, System, SystemConfig};
use mlpsim_experiments::figures::sweep_report;
use mlpsim_experiments::runner::RunOptions;
use mlpsim_trace::spec::SpecBench;
use perfbench::digest;

fn run(seed: u64) -> String {
    let trace = SpecBench::Mcf.generate(5_000, seed);
    digest::result(&System::new(SystemConfig::baseline(PolicyKind::lin4())).run(trace.iter()))
}

#[test]
fn result_digest_is_stable_across_runs() {
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different traces must not share a digest");
}

#[test]
fn report_digest_is_stable_across_runs_and_job_counts() {
    let report = |jobs| {
        let opts = RunOptions {
            accesses: 2_000,
            seed: 3,
            jobs,
            ..RunOptions::default()
        };
        digest::text(&sweep_report(
            &[SpecBench::Art],
            &[PolicyKind::Lru, PolicyKind::lin4()],
            &opts,
        ))
    };
    assert_eq!(report(1), report(1));
    assert_eq!(report(1), report(2));
}
