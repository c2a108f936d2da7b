//! Spans the benchmark records around its own calls into each layer in a
//! traced run. They are kept in memory and written out when the run ends.

use crate::clock::now;
use mlpsim_telemetry::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One timed call: a name, its interval, the span that caused it, and the
/// id shared by every span of one run (or one request).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique within the recorder; never 0.
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Shared by all spans of one run or request.
    pub group: u64,
    /// What was called, e.g. `cpu.run`.
    pub name: String,
    /// Start, [`now`] timebase.
    pub start_ns: u64,
    /// End, [`now`] timebase.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store, shared by the threads of one traced run.
#[derive(Debug, Default)]
pub struct Recorder {
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A fresh span (or group) id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record a finished span with a preallocated `id`.
    pub fn record_with_id(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        group: u64,
        start: u64,
        end: u64,
    ) {
        self.spans.lock().expect("span store lock").push(SpanRec {
            id,
            parent,
            group,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
    }

    /// Record a finished span; returns its id.
    pub fn record(&self, name: &str, parent: u64, group: u64, start: u64, end: u64) -> u64 {
        let id = self.next_id();
        self.record_with_id(id, name, parent, group, start, end);
        id
    }

    /// Run `f` inside a span; returns its result.
    pub fn span<T>(&self, name: &str, parent: u64, group: u64, f: impl FnOnce() -> T) -> T {
        let t0 = now();
        let out = f();
        self.record(name, parent, group, t0, now());
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store lock").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children of a pool may overlap each other,
/// so covered time is the union of their intervals, not their sum).
pub fn self_times(spans: &[SpanRec]) -> Vec<(u64, u64)> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id && c.id != s.id)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// The span store as JSON, times relative to the earliest span, with
/// each span's self time.
pub fn to_json(spans: &[SpanRec]) -> Json {
    let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, (_, self_ns))| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    ("parent".into(), Json::Num(s.parent as f64)),
                    ("group".into(), Json::Num(s.group as f64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Num((s.start_ns - base) as f64)),
                    ("dur_ns".into(), Json::Num(s.dur_ns() as f64)),
                    ("self_ns".into(), Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let r = Recorder::new();
        let root = r.record("root", 0, 1, 0, 100);
        r.record("a", root, 1, 10, 40);
        r.record("b", root, 1, 30, 60); // overlaps a by 10
        let selfs = self_times(&r.snapshot());
        assert_eq!(selfs[0], (root, 50));
    }
}
