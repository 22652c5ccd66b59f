//! Overhead guard for the sybil-obs instrumentation on the serving
//! engine's critical path.
//!
//! Replays the same adaptive stream through a clocked `ServeSession`
//! without metrics and with them (full metric registry + per-shard
//! counters + epoch spans), interleaved in rotated order over `REPS`
//! reps, and compares the best parallel critical path of each. The
//! acceptance gate: observability must cost under 5% — counters are
//! plain integer adds on already-owned state, so anything above that
//! signals an accidental allocation or lock on the hot path. Writes `BENCH_obs.json` at the workspace root.
//!
//! Run with `cargo run --release -p sybil-bench --bin obs_overhead`.

use sybil_bench::{
    adaptive_detect, announce, bench_clock, overhead_pct, rotated_reps, same_report, serve_config,
    small_fixture, write_report,
};
use sybil_serve::ServeSession;

const REPS: usize = 5;
/// Leg indices for [`rotated_reps`].
const OFF: usize = 0;
const ON: usize = 1;

fn main() {
    let out = small_fixture();
    let events = announce("obs_overhead", out);
    // Adaptive config: every instrumented path (checks, detections,
    // feature computation, feedback, audits) is live.
    let cfg = serve_config(4, adaptive_detect());

    // Order-rotated reps so drift (thermal, cache, scheduler) hits both
    // variants equally; the gate compares the best critical path per
    // variant. The last rep's reports are byte-compared.
    let (mut r_off, mut r_on, mut snapshot) = (None, None, None);
    let mut off = |_| {
        let o = ServeSession::new(cfg)
            .clock(&bench_clock)
            .run(out)
            .expect("serve failed");
        r_off = Some(o.report);
        o.stats.critical_path_s
    };
    let mut on = |_| {
        let mut reg = sybil_obs::Registry::new();
        let o = ServeSession::new(cfg)
            .clock(&bench_clock)
            .metrics(&mut reg)
            .run(out)
            .expect("serve failed");
        r_on = Some(o.report);
        snapshot = Some(reg.snapshot());
        o.stats.critical_path_s
    };
    let reps = rotated_reps(REPS, &mut [&mut off, &mut on]);
    let identical = same_report(&r_off.expect("off leg ran"), &r_on.expect("on leg ran"));
    let snapshot = snapshot.expect("on leg ran");
    let (off_best, on_best) = (reps.best(OFF), reps.best(ON));
    let overhead_pct = overhead_pct(on_best, off_best, off_best);
    eprintln!(
        "  off {:.1} ms | on {:.1} ms | overhead {overhead_pct:.2}% | identical={identical}",
        off_best * 1e3,
        on_best * 1e3
    );

    let report = serde_json::json!({
        "bench": "obs_overhead",
        "events": events,
        "accounts": out.accounts.len(),
        "reps": REPS,
        "shards": 4,
        "timing": "critical_path (coordinator + slowest shard per epoch), best of reps, \
                   off/on interleaved in rotated order",
        "off_critical_path_ms": off_best * 1e3,
        "on_critical_path_ms": on_best * 1e3,
        "overhead_pct": overhead_pct,
        "report_identical": identical,
        "logical_metrics": snapshot.logical.len(),
        "sharded_metrics": snapshot.sharded.len(),
    });
    write_report("BENCH_obs.json", &report).expect("write BENCH_obs.json");
    assert!(
        identical,
        "acceptance: observed and unobserved runs must produce the same report"
    );
    assert!(
        overhead_pct < 5.0,
        "acceptance: observability overhead must stay under 5% ({overhead_pct:.2}%)"
    );
}
