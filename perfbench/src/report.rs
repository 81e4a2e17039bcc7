//! What one run reports: operations attempted and failed by class, the
//! outcome of every check, the metrics, and readable notes. The last
//! line of standard output is the JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Default, Clone)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: BTreeMap<String, u64>,
}

/// Messages kept per run for failed checks (the count is kept in full).
const KEEP_FAILURES: usize = 20;

/// The end-to-end metrics, printed by every untraced run, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("lookup_p50_us", "us"),
    ("lookup_p90_us", "us"),
    ("insert_p50_us", "us"),
    ("insert_p90_us", "us"),
    ("delete_p50_us", "us"),
    ("delete_p90_us", "us"),
];

/// The per-layer metrics, printed by every traced run, with units. A
/// layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("expander.neighbors_ns", "ns"),
    ("pdm.read_round_us", "us"),
    ("pdm.blocks_read_per_op", "blocks/op"),
    ("pdm.blocks_written_per_op", "blocks/op"),
    ("pdm.executor_hit_ratio", "ratio"),
    ("pdm.backend_us_per_call", "us"),
    ("pdm.backend_calls_per_op", "calls/op"),
    ("dict.call_us", "us"),
    ("dict.self_us", "us"),
    ("dict.ops_per_call", "ops/call"),
    ("dict.lookup_ios", "ios/op"),
    ("dict.update_ios", "ios/op"),
    ("dict.space_words_per_key", "words/key"),
    ("dict.rebuilds", "count"),
    ("dict.migrated_keys_per_update", "keys/op"),
    ("cache.answered_ratio", "ratio"),
    ("cache.negative_ratio", "ratio"),
    ("cache.admitted", "count"),
    ("cache.evicted", "count"),
    ("cache.invalidated", "count"),
    ("engine.submit_us", "us"),
    ("engine.queue_us", "us"),
    ("engine.reply_us", "us"),
    ("engine.ios_per_acked_op", "ios/op"),
    ("wire.codec_ns", "ns"),
    ("wire.bytes_per_op", "bytes/op"),
    ("cluster.hop_us", "us"),
    ("cluster.router_lookup_overhead_us", "us"),
    ("cluster.router_write_overhead_us", "us"),
    ("cluster.connections_opened", "count"),
    ("cluster.transport_failures", "count"),
    ("cluster.reads_failover", "count"),
    ("harness.late_p90_us", "us"),
    ("harness.late_max_us", "us"),
    ("harness.steal_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
];

#[derive(Debug)]
pub struct Report {
    classes: BTreeMap<&'static str, Tally>,
    checks: u64,
    failures: Vec<String>,
    failed_checks: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    #[must_use]
    pub fn new() -> Self {
        Report {
            classes: BTreeMap::new(),
            checks: 0,
            failures: Vec::new(),
            failed_checks: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Count one attempted operation of `class`.
    pub fn attempt(&mut self, class: &'static str) {
        self.classes.entry(class).or_default().attempted += 1;
    }

    /// Count the last attempted operation of `class` as failed with
    /// error `kind`.
    pub fn fail(&mut self, class: &'static str, kind: &str) {
        let t = self.classes.entry(class).or_default();
        t.failed += 1;
        *t.errors.entry(kind.to_string()).or_default() += 1;
    }

    /// Operations of `class` failed so far.
    #[must_use]
    pub fn failed_of(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, |t| t.failed)
    }

    /// Record one check; `msg` describes the failure.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed_checks += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(msg());
            }
        }
    }

    /// Check that no measured operation failed: the workloads allow no
    /// failure outside the overwrite-fault reproduction, which checks its
    /// own refusals.
    pub fn check_no_failures(&mut self) {
        for class in ["lookup", "insert", "delete"] {
            let failed = self.failed_of(class);
            self.check(failed == 0, || {
                format!("{failed} {class} operations failed")
            });
        }
    }

    /// Record `harness.trace_overhead_pct`: how much slower the traced
    /// run's `lookup_p50_us` was than the untraced run's.
    pub fn trace_overhead(&mut self, plain_p50: f64, traced_p50: f64) {
        self.metric(
            "harness.trace_overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50,
        );
    }

    /// Record metric `name`, one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(name, value);
    }

    /// Print the tallies, the check outcome and the JSON result line
    /// with the end-to-end metrics, or with the per-layer ones when
    /// `traced`. Returns whether every check passed.
    pub fn finish(mut self, traced: bool) -> bool {
        for (class, t) in &self.classes {
            let errors: Vec<String> = t.errors.iter().map(|(k, n)| format!("{k}={n}")).collect();
            println!(
                "ops {class}: attempted={} failed={} errors=[{}]",
                t.attempted,
                t.failed,
                errors.join(",")
            );
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        println!(
            "checks: {} made, {} failed",
            self.checks, self.failed_checks
        );
        let attempted: u64 = self.classes.values().map(|t| t.attempted).sum();
        let failed: u64 = self.classes.values().map(|t| t.failed).sum();
        let mut problems = Vec::new();
        if attempted == 0 {
            problems.push("no operation was attempted".to_string());
        }
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, &(name, unit)) in declared.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                // A layer the workload does not cross.
                None if traced => 0.0,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for p in problems {
            println!("CHECK FAILED: {p}");
            self.failed_checks += 1;
        }
        let correct = self.failed_checks == 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}",
            attempted.max(1)
        );
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

impl Default for Report {
    fn default() -> Self {
        Self::new()
    }
}
