//! The benchmark's metric tables and its result line.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use crate::trace::Tracer;

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 2] = ["oneshot", "service_mix"];

/// `(name, unit, better)` of every end-to-end metric. Every workload
/// reports all of them; `BENCHMARK.json` adds each one's bound.
pub const END_TO_END: [(&str, &str, &str); 12] = [
    ("setup_s", "s", "lower"),
    ("solutions_per_s", "1/s", "higher"),
    ("delay_p50_us", "us", "lower"),
    ("delay_p99_us", "us", "lower"),
    ("ttfs_p50_ms", "ms", "lower"),
    ("ttfs_p95_ms", "ms", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("mutation_p50_ms", "ms", "lower"),
    ("mutation_p90_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric; the traced run of
/// each workload reports all of them, 0 for layers it does not run.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_string(), unit, better));
    };
    add("core.prepare.ms_p50", "ms", "lower");
    for layer in ["prepare", "classify", "branch", "emit"] {
        add(&format!("core.{layer}.self_s"), "s", "lower");
        for part in [
            "tree", "forest", "terminal", "directed", "random", "grid", "bridged", "theta",
        ] {
            add(&format!("core.{layer}.self_s.{part}"), "s", "lower");
        }
    }
    add("core.classify.calls", "count", "lower");
    add("core.branch.calls", "count", "lower");
    add("core.nodes_per_solution", "ratio", "lower");
    add("core.deficient_internal_nodes", "count", "lower");
    add("core.classify.incremental_frac", "frac", "higher");
    add("core.scratch_allocs", "count", "lower");
    add("core.peak_scratch_kb", "KiB", "lower");
    add("paths.path_gen_work_per_solution", "units", "lower");
    add("paths.fstp_cache_hit_frac", "frac", "higher");
    for (_, bucket) in crate::oneshot::SIZE_BUCKETS {
        add(
            &format!("core.solver.delay_p99_ns_per_nm.{bucket}"),
            "ns",
            "lower",
        );
    }
    add("steal.subtrees_stolen", "count", "higher");
    add("steal.failure_frac", "frac", "lower");
    add("steal.cpu_util", "cpu/wall", "higher");
    add("merge.burst_frac", "frac", "lower");
    add("cache.hit_frac", "frac", "higher");
    add("cache.hit_latency_p50_ms", "ms", "lower");
    add("cache.miss_latency_p50_ms", "ms", "lower");
    add("cache.bytes", "bytes", "lower");
    add("cache.evicted_entries", "count", "lower");
    add("cache.compactions", "count", "lower");
    add("epoch.entries_invalidated_per_batch", "count", "lower");
    add("epoch.entries_retained_per_batch", "count", "higher");
    add("epoch.fenced_latency_p50_ms", "ms", "lower");
    add("service.submit_us_p50", "us", "lower");
    add("service.in_flight_mean", "count", "lower");
    add("service.rejected", "count", "lower");
    add("service.deadline_exceeded", "count", "lower");
    add("graph.build_ms", "ms", "lower");
    add("loadgen.late_p99_ms", "ms", "lower");
    add("trace.overhead_frac", "frac", "lower");
    out
}

/// Wall-clock stopwatch.
pub struct Timer(Instant);

impl Timer {
    /// Starts now.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Seconds since start.
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Side figures printed before the result line (sample counts,
    /// input-property shares).
    notes: BTreeMap<String, f64>,
    /// Operations attempted (queries, mutation batches).
    pub attempted: u64,
    /// Operations that failed: errors, rejections, expired deadlines and
    /// wrong outputs.
    pub failed: u64,
    /// Wrong outputs among the failures.
    pub wrong_outputs: u64,
    /// One line per failure, for the log.
    pub problems: Vec<String>,
    /// The traced run's span recorders.
    pub spans: Vec<Tracer>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a side figure.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a wrong output (also a failure).
    pub fn wrong(&mut self, why: String) {
        self.wrong_outputs += 1;
        self.fail(why);
    }

    /// The side figures as one JSON object.
    pub fn notes_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{k}\": {}", num(*v));
        }
        s.push('}');
        s
    }

    /// The result line: the metrics of `table` (name, unit), 0 for any
    /// the workload did not set.
    pub fn result_json(&mut self, table: &[(String, &str)]) -> String {
        self.set(
            "ok_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong_outputs == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.metrics.get(name.as_str()).copied().unwrap_or(0.0);
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut r = Report::default();
        r.set("latency_p50_ms", 1.5);
        r.attempted = 4;
        r.fail("rejected".into());
        let table: Vec<(String, &str)> =
            END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect();
        let line = r.result_json(&table);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"ok_frac\": {\"value\": 0.75, \"unit\": \"frac\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        r.wrong("bad stream".into());
        assert!(r.result_json(&table).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        let n = names.len();
        assert!(n <= 12 + 128);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }

    /// `BENCHMARK.json` must declare exactly the metrics this binary
    /// prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // checkout without the repository around the benchmark
        };
        for (name, unit, better) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": "
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in per_layer() {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + per_layer().len() + WORKLOADS.len(),
            "extra entries"
        );
    }
}
