//! The metric tables and the result printer.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the package's smoke test checks the two agree.

use crate::Args;
use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("norm_events_per_s", "events/s"),
    ("norm_paired_events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer that is not on a workload's path reads 0 there; the detail line
/// lists those names under `off_path`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("osn_sim.events", "count"),
    ("osn_sim.epochs", "count"),
    ("osn_sim.pull_s", "s"),
    ("core.feature_compute_s", "s"),
    ("core.feature_compute_calls", "count"),
    ("core.checks_run", "count"),
    ("core.features_computed", "count"),
    ("core.detections", "count"),
    ("core.feedback_applied", "count"),
    ("core.audits_sampled", "count"),
    ("core.feature_gate_ratio", "ratio"),
    ("serve.wall_s", "s"),
    ("serve.critical_path_s", "s"),
    ("serve.shard_busy_max_s", "s"),
    ("serve.shard_busy_sum_s", "s"),
    ("serve.shard_skew", "ratio"),
    ("serve.coordinator_s", "s"),
    ("serve.epoch_window_s", "s"),
    ("serve.between_epochs_s", "s"),
    ("serve.epoch_ms.p50", "ms"),
    ("serve.epoch_ms.tail", "ms"),
    ("serve.epoch_ms.tail_pct", "pct"),
    ("serve.epoch_samples", "count"),
    ("serve.det_queue_hwm", "count"),
    ("serve.fb_queue_hwm", "count"),
    ("store.journal_append_s", "s"),
    ("store.commit_s", "s"),
    ("store.checkpoint_s", "s"),
    ("store.run_end_s", "s"),
    ("store.other_hooks_s", "s"),
    ("store.open_s", "s"),
    ("store.load_resume_s", "s"),
    ("store.tail_epochs", "count"),
    ("store.journal_bytes", "bytes"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.checkpoints_written", "count"),
    ("graph.freeze_s", "s"),
    ("graph.clustering_sweep_s", "s"),
    ("features.extract_s", "s"),
    ("defense.sybilguard_s", "s"),
    ("defense.sybillimit_s", "s"),
    ("defense.sybilinfer_s", "s"),
    ("defense.sumup_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Units whose values are logical quantities: they must repeat exactly
/// from one operation to the next, or the run is not correct.
fn is_exact(unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the table"))
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten
/// samples above it, for `n` samples; 50 when none has.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        // n × (100 − p) / 100 ≥ 10, kept clear of rounding at the boundary.
        .find(|p| (n as f64) * (100.0 - p) >= 1000.0 - 1e-6)
        .unwrap_or(50.0)
}

/// Collects one run's metrics, checks and figures, and prints them.
pub struct Metrics {
    trace: bool,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, Vec<f64>>,
    named: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(String, Value)>,
    attempted: u64,
    failed: u64,
    accounts: Option<u64>,
    recording: bool,
}

impl Metrics {
    /// An empty sink for the run `args` describes.
    pub fn new(args: &Args) -> Self {
        let detail = vec![
            (
                "workload".to_string(),
                Value::Str(args.workload.name().into()),
            ),
            ("seed".to_string(), Value::UInt(args.seed)),
            ("seconds".to_string(), Value::Float(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("smoke".to_string(), Value::Bool(args.smoke)),
            (
                "threads".to_string(),
                Value::UInt(osn_graph::par::num_threads() as u64),
            ),
            (
                "available_parallelism".to_string(),
                Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
            ),
        ];
        Metrics {
            trace: args.trace,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            named: Vec::new(),
            detail,
            attempted: 0,
            failed: 0,
            accounts: None,
            recording: true,
        }
    }

    /// Set an end-to-end metric (must be in [`END_TO_END`]).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        unit_of(END_TO_END, name);
        self.e2e.insert(name, value);
    }

    /// Add one operation's sample of a per-layer metric (must be in
    /// [`PER_LAYER`]); the printed value is the median of the samples.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        unit_of(PER_LAYER, name);
        if self.recording {
            self.layer.entry(name).or_default().push(value);
        }
    }

    /// Whether [`layer`](Self::layer) keeps samples; off for warm-up
    /// operations, whose outputs are still checked.
    pub fn record_layers(&mut self, on: bool) {
        self.recording = on;
    }

    /// A workload's own named figure, printed on the detail line with
    /// its unit (e.g. `restart_s` on `persist-restart`).
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// An extra fact for the detail line (sizes, counts, readings).
    pub fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Record the input size; `accounts` also sizes bytes per account.
    pub fn input(&mut self, accounts: usize, events: usize) {
        self.accounts = Some(accounts as u64);
        self.detail("accounts", Value::UInt(accounts as u64));
        self.detail("events", Value::UInt(events as u64));
    }

    /// The input's account count, once [`input`](Self::input) ran.
    pub fn accounts(&self) -> Option<u64> {
        self.accounts
    }

    /// Count one checked operation; `problem` is `Some` when it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("perfbench: operation {} failed: {p}", self.attempted);
        }
    }

    /// Print the detail line and the result line.
    pub fn finish(mut self) {
        let mut metrics = Vec::new();
        let mut off_path = Vec::new();
        if self.trace {
            for &(name, unit) in PER_LAYER {
                let value = match self.layer.get(name) {
                    Some(samples) => {
                        if is_exact(unit) && samples.iter().any(|&s| s != samples[0]) {
                            self.attempted += 1;
                            self.failed += 1;
                            eprintln!("perfbench: {name} did not repeat exactly: {samples:?}");
                        }
                        median(samples)
                    }
                    None => {
                        off_path.push(Value::Str(name.into()));
                        0.0
                    }
                };
                metrics.push(metric(name, value, unit));
            }
        } else {
            for &(name, unit) in END_TO_END {
                let value = *self
                    .e2e
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name:?} was not measured"));
                metrics.push(metric(name, value, unit));
            }
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.named.push(("failed_frac", failed_frac, "ratio"));
        let named = self
            .named
            .iter()
            .map(|&(n, v, u)| metric(n, v, u))
            .collect::<Vec<_>>();
        self.detail.push(("named".into(), Value::Map(named)));
        if self.trace {
            self.detail.push(("off_path".into(), Value::Seq(off_path)));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let detail = Value::Map(vec![("perfbench".into(), Value::Map(self.detail))]);
        let result = Value::Map(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&detail).expect("detail serializes")
        );
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        );
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    let v = if is_exact(unit) && value >= 0.0 && value.fract() == 0.0 {
        Value::UInt(value as u64)
    } else {
        Value::Float(value)
    };
    (
        name.to_string(),
        Value::Map(vec![
            ("value".into(), v),
            ("unit".into(), Value::Str(unit.into())),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(52), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
    }
}
