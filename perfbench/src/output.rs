//! Metric names and units, and the result line the benchmark ends with.

use mlpsim_telemetry::Json;

/// End-to-end metrics: measured with tracing off, on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: measured in a traced run, on every workload. Names
/// start with the crate (layer) they time.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("trace.generate_ns_per_access", "ns"),
    ("trace.generate_calls", "count"),
    ("trace.distinct_traces", "count"),
    ("cpu.run_ns_per_access.lru", "ns"),
    ("cpu.run_ns_per_access.lin4", "ns"),
    ("cpu.run_ns_per_access.sbar", "ns"),
    ("cpu.construct_ms", "ms"),
    ("cpu.unexplained_frac", "ratio"),
    ("cache.l1_access_ns", "ns"),
    ("cache.l2_access_ns.lru", "ns"),
    ("cache.l2_access_ns.lin4", "ns"),
    ("cache.l2_access_ns.sbar", "ns"),
    ("cache.victim_ns.lru", "ns"),
    ("cache.victim_ns.lin4", "ns"),
    ("cache.recency_ranks_ns", "ns"),
    ("cache.atd_access_ns", "ns"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_misses", "count"),
    ("core.quantize_ns", "ns"),
    ("core.ccl_advance_ns", "ns"),
    ("core.psel_update_ns", "ns"),
    ("mem.mshr_ns_per_miss", "ns"),
    ("mem.request_fill_ns", "ns"),
    ("mem.peak_mlp", "count"),
    ("exec.busy_frac", "ratio"),
    ("exec.tail_idle_s", "s"),
    ("experiments.cells_requested", "count"),
    ("experiments.cells_distinct", "count"),
    ("experiments.dup_time_share", "ratio"),
    ("experiments.paper_ipc_err_pp", "pp"),
    ("model.profile_ns_per_access", "ns"),
    ("model.score_ns_per_cell", "ns"),
    ("telemetry.events_per_job", "count"),
    ("telemetry.stream_bytes_per_job", "bytes"),
    ("telemetry.encode_ns_per_event", "ns"),
    ("telemetry.probe_ns_per_access", "ns"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("serve.job_tail_pct", "pct"),
    ("serve.estimate_p50_ms", "ms"),
    ("serve.estimate_tail_ms", "ms"),
    ("serve.estimate_tail_pct", "pct"),
    ("serve.submit_ms", "ms"),
    ("serve.healthz_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.cells_ms", "ms"),
    ("serve.stream_write_ms", "ms"),
    ("serve.retained_mb_per_job", "MiB"),
    ("serve.repeat_spec_share", "ratio"),
    ("bench.trace_overhead_pct", "pct"),
    ("bench.clock_read_ns", "ns"),
    ("bench.untraced_wall_s", "s"),
];

/// Metric values in the order they were set, with their units.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, String)>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Metrics {
    /// Set (or overwrite) a registered metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`END_TO_END`] and [`PER_LAYER`]: every
    /// metric the benchmark reports must be declared there.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.retain(|(n, _, _)| n != name);
        self.values
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Names from `wanted` that are unset or not finite.
    pub fn missing(&self, wanted: &[(&str, &str)]) -> Vec<String> {
        wanted
            .iter()
            .filter(|(n, _)| !self.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| (*n).to_string())
            .collect()
    }

    /// One human-readable line per metric in `wanted`.
    pub fn table(&self, wanted: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in wanted {
            if let Some(v) = self.get(name) {
                out.push_str(&format!("  {name:<34} {v:>16.6} {unit}\n"));
            }
        }
        out
    }

    /// The closing result line: exactly `correct`, `attempted`, `failed`
    /// and the `wanted` metrics, each with its value and unit.
    pub fn result_line(
        &self,
        wanted: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics = wanted
            .iter()
            .filter_map(|(name, unit)| {
                self.get(name).map(|v| {
                    (
                        (*name).to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(v)),
                            ("unit".into(), Json::Str((*unit).to_string())),
                        ]),
                    )
                })
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}
