//! Metric names, units, and the result line.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// The named workloads.
pub const WORKLOADS: [&str; 2] = ["paper-sweep", "fleet-stream"];

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("server_steps_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("net_harvest_w", "W"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload
/// never calls reports 0: no time spent, nothing counted.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workload.generate_s", "s"),
    ("sched.schedule_ns", "ns"),
    ("cooling.optimize_us", "us"),
    ("cooling.optimize_share", "ratio"),
    ("cooling.decisions", "count"),
    ("cooling.score_evals", "count"),
    ("cooling.fallback_scans", "count"),
    ("server.lookup_ns", "ns"),
    ("server.lookups", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.kernel_eval_ratio", "ratio"),
    ("core.kernel_err_rel", "ratio"),
    ("core.residual_s", "s"),
    ("core.scalar_over_columns", "ratio"),
    ("exec.tasks", "count"),
    ("exec.lanes_spawned", "count"),
    ("exec.inline_runs", "count"),
    ("exec.busy_share", "ratio"),
    ("jobs.place_s.round_robin", "s"),
    ("jobs.place_s.coolest_first", "s"),
    ("jobs.place_s.harvest_aware", "s"),
    ("jobs.placed", "count"),
    ("jobs.rejected", "count"),
    ("jobs.queue_wait_steps", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.runs_executed", "count"),
    ("serve.submit_us", "us"),
    ("serve.drain_ms", "ms"),
    ("gateway.parse_ns", "ns"),
    ("gateway.route_ns", "ns"),
    ("gateway.handle_hit_us", "us"),
    ("gateway.handle_miss_ms", "ms"),
    ("gateway.serialize_us", "us"),
    ("gateway.shard_skew", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
];

/// Most failure messages kept for the result record.
const MAX_NOTES: usize = 20;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cell runs, fleet runs, HTTP requests, and
    /// the output checks made after the window).
    pub attempted: u64,
    /// Operations that failed: errors, non-200 responses, transport
    /// errors, and output mismatches.
    pub failed: u64,
    /// The first failure messages.
    pub notes: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Workload-specific detail for the result record.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note());
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a detail entry to the result record.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_owned(), value));
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// metrics of the run's kind. Per-layer metrics a workload never
    /// touched report 0. Non-finite values (a bug) are reported as a
    /// failure rather than printed as invalid JSON.
    #[must_use]
    pub fn result_line(&mut self, trace: bool) -> Value {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name).copied() {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.op(false, || format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.op(false, || format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push((name.to_owned(), json!({"value": value, "unit": unit})));
        }
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}
