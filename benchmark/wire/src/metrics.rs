//! Every metric the benchmark can report, by name and unit, and the
//! report a run fills in. `BENCHMARK.json` lists the same names; a
//! self-test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: measured by the untraced wire run, reported by
/// every workload, each with a regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("probe_p50_ms", "ms"),
    ("probes_per_s", "1/s"),
    ("write_ack_p50_ms", "ms"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("answer_recall", "ratio"),
];

/// Per-layer metrics: reported by the traced run, no bound. A layer that
/// does no work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lsh.sketch.sketch_all_us_per_record", "us"),
    ("lsh.sketch.extend_batch_us_per_record", "us"),
    ("lsh.candidates.cold_join_ns_per_candidate", "ns"),
    ("lsh.candidates.delta_join_us_per_record", "us"),
    ("lsh.candidates.warm_fetch_us", "us"),
    ("lsh.candidates.candidates_per_pair", "count"),
    ("lsh.bayes.eval_ns_per_hash", "ns"),
    ("lsh.bayes.hashes_per_candidate", "count"),
    ("lsh.bayes.pruned_share", "ratio"),
    ("core.cache.warm_probe_ns_per_candidate", "ns"),
    ("core.cache.publish_ns_per_memo", "ns"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.grow_us", "us"),
    ("core.cache.memo_bytes_per_candidate", "bytes"),
    ("core.streaming.probe_self_us", "us"),
    ("core.streaming.ingest_self_us", "us"),
    ("core.streaming.probe_overlap_penalty_ms", "ms"),
    ("core.watch.notify_us_per_ingest", "us"),
    ("core.watch.notify_ns_per_delta_pair", "ns"),
    ("core.watch.delta_pairs_per_ingest", "count"),
    ("core.durable.log_ingest_us", "us"),
    ("core.durable.wait_durable_us", "us"),
    ("core.durable.syncs_per_ack", "ratio"),
    ("core.durable.snapshot_write_ms", "ms"),
    ("core.durable.disk_bytes_per_ingested_byte", "ratio"),
    ("core.durable.recover_ms", "ms"),
    ("server.protocol.decode_ns_per_byte", "ns"),
    ("server.protocol.encode_ns_per_byte", "ns"),
    ("server.protocol.reply_bytes_p50", "bytes"),
    ("server.handler.probe_self_us", "us"),
    ("server.handler.publish_ms_p50", "ms"),
    ("server.handler.ingest_self_us", "us"),
    ("server.transport.health_rtt_us_p50", "us"),
    ("server.transport.probe_residual_ms_p50", "ms"),
    ("server.transport.push_lag_ms_p50", "ms"),
    ("process.cpu_user_s", "s"),
    ("process.cpu_sys_s", "s"),
    ("process.minor_faults", "count"),
    ("process.ctx_switches", "count"),
    ("harness.send_late_p99_ms", "ms"),
    ("harness.loadavg_before", "count"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.inproc_probe_p50_ms", "ms"),
    ("harness.child_within_parent_share", "ratio"),
    ("harness.dominant_share", "ratio"),
    ("quality.precision", "ratio"),
    // Wire measurements that cannot be bounded end-to-end metrics: only
    // some workloads have them (every workload must report every one of
    // those), or, the probe tails, an open loop's hiccups on a shared
    // host move them by more than any bound. Recorded here.
    ("wire.session_p50_ms", "ms"),
    ("wire.probe_p95_ms", "ms"),
    ("wire.probe_p99_ms", "ms"),
    ("wire.ingest_ack_p99_ms", "ms"),
    ("wire.watch_lag_p50_ms", "ms"),
    ("wire.watch_lag_p99_ms", "ms"),
    ("wire.restart_ready_ms", "ms"),
    ("wire.acked_lost", "count"),
    ("wire.failed_ratio", "ratio"),
    ("wire.snapshots_seen", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// What one run measured.
#[derive(Debug, Default, Clone)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Sample counts and which percentile a tail resolved to, printed
    /// beside the value.
    notes: BTreeMap<&'static str, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations, in the order found (the first few are
    /// printed; all are counted in `failed`).
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric '{name}' is not in the table"
        );
        self.values.insert(name, value);
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records one failed operation.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Takes over another report's values, notes and failures.
    pub fn absorb(&mut self, other: Report) {
        self.values.extend(other.values);
        self.notes.extend(other.notes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    /// `name value unit [note]` for every value held, in table order.
    pub fn lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|&(name, unit)| {
                let value = self.values.get(name)?;
                let note = self
                    .notes
                    .get(name)
                    .map(|n| format!("  ({n})"))
                    .unwrap_or_default();
                Some(format!("{name} {value} {unit}{note}"))
            })
            .collect()
    }

    /// The one-line result object for `table` (`END_TO_END` untraced,
    /// `PER_LAYER` traced). An end-to-end metric that was not measured is
    /// an error; a per-layer metric that was not is a layer that did no
    /// work, and reads 0.
    pub fn result_json(
        &self,
        table: &[(&'static str, &'static str)],
        strict: bool,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric '{name}' is not a finite number: {v}")),
                None if strict => return Err(format!("metric '{name}' was not measured")),
                None => 0.0,
            };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END[0], ("setup_s", "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the harness does not report"
        );
    }

    #[test]
    fn result_json_has_the_contract_shape() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = r.result_json(END_TO_END, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
        r.violation("epoch went backwards".into());
        assert!(r
            .result_json(END_TO_END, true)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1"));
        // A missing end-to-end metric is refused; a missing layer reads 0.
        assert!(Report::default().result_json(END_TO_END, true).is_err());
        assert!(Report::default()
            .result_json(PER_LAYER, false)
            .unwrap()
            .contains("\"core.cache.grow_us\": {\"value\": 0, "));
    }
}
