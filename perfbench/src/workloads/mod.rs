//! The three workloads and what they share.

pub mod cell;
pub mod figures;
pub mod serve;

use crate::output::Metrics;
use crate::stats::FailTally;
use mlpsim_telemetry::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Everything a workload run is given.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Hardware threads; the worker and client count.
    pub nproc: usize,
    /// Where the run may write (spans, server data directories).
    pub out_dir: PathBuf,
    /// The `mlpsim-serve` executable.
    pub server_bin: PathBuf,
    /// Calibrated cost of one clock read, ns.
    pub read_ns: f64,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: FailTally,
    /// Named output digests (report texts and results), for the
    /// reference check and for recording a new reference.
    pub digests: BTreeMap<String, String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Recorded reference digests: workload → seed → item → digest.
pub type References = BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>>;

/// Parse `reference.json`; an absent file is an empty store.
pub fn load_references(path: &std::path::Path) -> Result<References, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(References::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut refs = References::new();
    let Json::Obj(workloads) = doc else {
        return Err(format!("{}: expected an object", path.display()));
    };
    for (w, seeds) in workloads {
        let Json::Obj(seeds) = seeds else { continue };
        for (seed, items) in seeds {
            let Json::Obj(items) = items else { continue };
            for (item, digest) in items {
                if let Some(d) = digest.as_str() {
                    refs.entry(w.clone())
                        .or_default()
                        .entry(seed.clone())
                        .or_default()
                        .insert(item, d.to_string());
                }
            }
        }
    }
    Ok(refs)
}

/// Serialize the store, one seed per line so diffs stay readable.
pub fn references_to_string(refs: &References) -> String {
    let mut out = String::from("{\n");
    for (wi, (w, seeds)) in refs.iter().enumerate() {
        out.push_str(&format!(
            "  {}: {{\n",
            Json::Str(w.clone()).to_string_compact()
        ));
        for (si, (seed, items)) in seeds.iter().enumerate() {
            let obj = Json::Obj(
                items
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            );
            out.push_str(&format!(
                "    {}: {}{}\n",
                Json::Str(seed.clone()).to_string_compact(),
                obj.to_string_compact(),
                if si + 1 < seeds.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  }}{}\n",
            if wi + 1 < refs.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

/// Compare a run's digests with the recorded reference for its workload
/// and seed. Returns the number of differing items and a note; a seed
/// with no recorded reference compares nothing.
pub fn check_references(
    refs: &References,
    workload: &str,
    seed: u64,
    digests: &BTreeMap<String, String>,
) -> (u64, String) {
    let Some(want) = refs.get(workload).and_then(|s| s.get(&seed.to_string())) else {
        return (
            0,
            format!("reference: none recorded for {workload} seed {seed}; run-to-run checks only"),
        );
    };
    let mut bad = 0u64;
    let mut first = None;
    for (item, digest) in want {
        if digests.get(item) != Some(digest) {
            bad += 1;
            first.get_or_insert_with(|| item.clone());
        }
    }
    for item in digests.keys() {
        if !want.contains_key(item) {
            bad += 1;
            first.get_or_insert_with(|| item.clone());
        }
    }
    let note = match first {
        None => format!("reference: {} digests match the recorded {workload} seed {seed}", want.len()),
        Some(item) => format!("reference: {bad} digests differ from the recorded {workload} seed {seed} (first: {item})"),
    };
    (bad, note)
}
