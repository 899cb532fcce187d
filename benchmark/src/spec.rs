//! The metric lists of `BENCHMARK.json`, in one place: every run reports
//! exactly these names, and a test keeps the JSON file in step.

/// (name, unit, better, bound): what a user of the system sees. Reported by
/// every workload with tracing off.
///
/// * `op_p50_ms` — median latency of the workload's operation: one
///   `Reasoner::reason_text` call on `reason.*`, one `Request::Query` from
///   submit to `Ticket::recv` on `serve.*`.
/// * `ops_per_s` — operations completed per second of the timed section.
/// * `peak_rss_mb` — `VmHWM` of the measuring process at exit.
/// * `setup_s` — input generation plus the cold path paid once per process.
///
/// Each is the median over the [`PROCESSES`] processes of a run.
///
/// The bounds are set by what this 2-CPU shared box can resolve, not by what
/// one would like to catch: between sets of ten runs the quartile spread of
/// the timings is 3–7% (the host drifts by that much over minutes, and
/// `serve.mixed` reached 11% in one episode), and the acceptance check wants
/// a spread under a third of the bound. Finer claims need paired runs.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("op_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// (name, unit, better): single layers, measured from outside by a separate
/// traced pass. Only numbers that every workload really measures are listed;
/// the ones particular to `reason.*` or `serve.*` are printed as detail and
/// written to `benchmark/out/`.
pub const PER_LAYER: [(&str, &str, &str); 20] = [
    ("parser.parse_s", "s", "lower"),
    ("storage.load_s", "s", "lower"),
    ("engine.exec_ms", "ms", "lower"),
    ("outside_engine_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("engine.join_probes", "count", "lower"),
    ("engine.index_probes", "count", "lower"),
    ("engine.scan_fallbacks", "count", "lower"),
    ("engine.scan_fallback_share", "%", "lower"),
    ("engine.wcoj_seeks", "count", "lower"),
    ("engine.hybrid_activations", "count", "lower"),
    ("engine.facts_derived", "count", "lower"),
    ("engine.nulls_invented", "count", "lower"),
    ("chase.facts_suppressed", "count", "lower"),
    ("chase.suppressed_share", "%", "lower"),
    ("session.cone_hits", "count", "higher"),
    ("session.cone_misses", "count", "lower"),
    ("session.cone_invalidations", "count", "lower"),
    ("session.compactions", "count", "lower"),
    ("server.max_queue_depth", "count", "lower"),
];

/// Fresh processes one end-to-end run is split over; every metric is the
/// median over them.
pub const PROCESSES: usize = 3;

/// Seconds one run measures unless `--seconds` says otherwise (divided
/// among the processes).
pub const RUN_SECONDS: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }

        let end_to_end = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (name, unit, better)
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower", 0.25)));

        let per_layer = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (
                    field(entry, "name"),
                    field(entry, "unit"),
                    field(entry, "better")
                ),
                (name, unit, better)
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)));
        assert!(END_TO_END.iter().all(|m| unit_ok(m.1)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
