//! Metric names and units, and the run's output: a readable table, then one
//! JSON object as the last line of standard output.

use service::json::Json;
use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run reports, with units. They must
/// match `end_to_end` in `BENCHMARK.json` (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("cpu_ms_per_job", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("quality.speedup_geomean", "x"),
    ("quality.accuracy_gain_bits", "bits"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not load reads 0. They must match `per_layer` in
/// `BENCHMARK.json` (checked by a test).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.prepare_ms", "ms"),
    ("session.prepare_p50_ms", "ms"),
    ("session.prepare_max_ms", "ms"),
    ("session.prepare_failed", "count"),
    ("rival.truth_ms", "ms"),
    ("rival.truth_hits", "count"),
    ("rival.truth_misses", "count"),
    ("rival.node_evals", "count"),
    ("rival.evals_saved", "count"),
    ("session.lowering_ms", "ms"),
    ("session.improve_ms", "ms"),
    ("session.regimes_ms", "ms"),
    ("session.final_ms", "ms"),
    ("improve.iterations", "count"),
    ("improve.candidates_scored", "count"),
    ("improve.admitted", "count"),
    ("improve.admit_ratio", "frac"),
    ("regimes.inferred", "count"),
    ("egraph.saturation_ms", "ms"),
    ("targets.eval_mpts_per_s", "Mpt/s"),
    ("verify.programs", "count"),
    ("verify.regs_saved", "count"),
    ("par.busy_frac", "frac"),
    ("net.healthz_rtt_ms", "ms"),
    ("http.read_request_us", "us"),
    ("json.parse_us", "us"),
    ("json.emit_us", "us"),
    ("fpcore.parse_us", "us"),
    ("service.content_key_us", "us"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.hits_memory", "count"),
    ("store.misses", "count"),
    ("pool.wait_ms", "ms"),
    ("daemon.compiles", "count"),
    ("daemon.coalesced", "count"),
    ("daemon.queue_rejected", "count"),
    ("jobs.unsupported", "count"),
    ("jobs.sampling", "count"),
    ("jobs.ground_truth", "count"),
    ("jobs.internal", "count"),
    ("gen.late_p90_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("trace.overhead_frac", "frac"),
];

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Jobs or requests attempted.
    pub attempted: u64,
    /// Of those, the ones that failed: a panic, an `Internal` error, a
    /// failed check, a 5xx other than a typed 501, or a transport error.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result: provenance, sample
    /// counts, bases of ratios.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result object for the end-to-end (`trace == false`) or the
    /// per-layer (`trace == true`) metric set. A per-layer metric the
    /// workload did not set reads 0: its layer is not loaded.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload failed to set.
    pub fn result(&self, trace: bool) -> Result<Json, String> {
        let set = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => return Err(format!("metric {name} was not measured")),
            };
            metrics.push((
                name.to_owned(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::from_f64(value)),
                    ("unit".to_owned(), Json::Str(unit.to_owned())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::from_u64(self.attempted)),
            ("failed".to_owned(), Json::from_u64(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]))
    }

    /// Prints the notes, a table of the selected metrics, and the result
    /// object as the last line.
    ///
    /// # Errors
    ///
    /// See [`Report::result`].
    pub fn print(&self, trace: bool) -> Result<(), String> {
        let result = self.result(trace)?;
        for line in &self.notes {
            println!("# {line}");
        }
        let set = if trace { PER_LAYER } else { END_TO_END };
        for &(name, unit) in set {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            println!("{name:<28} {value:>16.6} {unit}");
        }
        println!("{result}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> (String, Json) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        (text, doc)
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn listed(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_round_trips_through_the_service_json_module() {
        let (_, doc) = benchmark_json();
        let emitted = doc.to_string();
        assert_eq!(Json::parse(&emitted).expect("re-parses"), doc);
        assert_eq!(
            Json::parse(&emitted).expect("re-parses").to_string(),
            emitted
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runs_print() {
        let (_, doc) = benchmark_json();
        assert_eq!(names(&doc, "end_to_end"), listed(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), listed(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        for w in &workloads {
            assert!(crate::WORKLOADS.contains(&w.as_str()), "{w} is runnable");
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error_and_a_missing_layer_reads_zero() {
        let mut r = Report::default();
        assert!(r.result(false).is_err());
        let layers = r.result(true).expect("layers default to zero");
        let v = layers
            .get("metrics")
            .and_then(|m| m.get("pool.wait_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(0.0));
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let text = r.result(false).expect("complete").to_string();
        assert!(text.starts_with("{\"correct\":false,\"attempted\":0,\"failed\":0,\"metrics\":{"));
    }
}
