//! Million-account scale sweep for the serving substrate.
//!
//! Generates synthetic workloads (`osn_sim::scale`) at 20k, 200k, 1M and
//! 5M accounts, replays each sequentially as the oracle, serves it at 1
//! and 8 shards (plus 2 at the small sizes), and records per size:
//! events/sec on the engine's parallel critical path, peak RSS (`VmHWM`
//! from `/proc/self/status`), and byte-identity of every serve report to
//! the sequential replay. Writes `BENCH_scale.json`.
//!
//! Peak RSS is checked against the documented memory budget (see
//! DESIGN.md "Memory layout at scale"):
//! `256 MiB + 260 B × accounts + 120 B × events`. VmHWM is a process
//! high-water mark, so the sweep runs sizes ascending and each row's
//! check uses the budget of the largest size reached so far.
//!
//! `--smoke` runs the 20k and 200k rows only (the CI-sized gate wired
//! into `scripts/verify.sh`); the full sweep is the committed
//! `BENCH_scale.json`.
//!
//! Run with `cargo run --release -p sybil-bench --bin scale_sweep`.

use osn_sim::scale::{generate, ScaleConfig};
use osn_sim::stream::PullStream;
use std::time::Instant;
use sybil_bench::{best_serve, same_report, serve_config, write_report};
use sybil_core::realtime::{replay, RealtimeConfig};
use sybil_core::ThresholdClassifier;

/// Peak resident set size of this process so far, in bytes (Linux VmHWM).
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The documented peak-RSS budget for a workload of this shape.
fn rss_budget_bytes(accounts: u64, events: u64) -> u64 {
    256 * 1024 * 1024 + 260 * accounts + 120 * events
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[20_000, 200_000]
    } else {
        &[20_000, 200_000, 1_000_000, 5_000_000]
    };

    // Adaptive config exercises every engine path (checks, audits,
    // feedback barriers, snapshot rotations); thresholds sized so the
    // synthetic Sybils are actually detectable.
    let detect = RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.4,
            min_freq: 5.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    };

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut max_budget = 0u64;
    for &accounts in sizes {
        // Min-of-2 per leg: the first run of a fresh process pays
        // first-touch page faults on every large allocation, which at the
        // million-account sizes doubles the measured path. The second run
        // reuses the allocator's pages and measures the engine.
        let reps = 2;
        let t0 = Instant::now();
        let out = generate(&ScaleConfig::at(accounts, 42));
        let gen_s = t0.elapsed().as_secs_f64();
        let events = PullStream::new(&out.log).total_events();
        eprintln!(
            "scale_sweep: {accounts} accounts, {events} events (generated in {gen_s:.1}s)"
        );

        let t0 = Instant::now();
        let seq_report = replay(&out, &detect);
        let replay_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "  replay: {replay_s:.1}s, {} detections",
            seq_report.detections.len()
        );

        let shard_counts: &[usize] = if accounts > 200_000 { &[1, 8] } else { &[1, 2, 8] };
        let mut legs = Vec::new();
        let mut row_identical = true;
        for &shards in shard_counts {
            let served =
                best_serve(&out, serve_config(shards, detect), reps).expect("serve failed");
            let identical = same_report(&served.report, &seq_report);
            let best = served.stats;
            row_identical &= identical;
            let eps = events as f64 / best.critical_path_s;
            // Aggregate scan rate: every shard scans every event (that is
            // what keeps them bit-identical to the sequential replay), so
            // the fleet sustains `shards × events` event-scans over the
            // critical path.
            let scan_eps = eps * shards as f64;
            eprintln!(
                "  {shards} shard(s): path {:>8.2} s (wall {:>8.2} s)  {eps:>12.0} events/s  \
                 ({scan_eps:>12.0} scans/s)  identical={identical}",
                best.critical_path_s, best.wall_s
            );
            legs.push((shards, best.critical_path_s, best.wall_s, eps, scan_eps, identical));
        }
        all_identical &= row_identical;

        let peak = peak_rss_bytes();
        max_budget = max_budget.max(rss_budget_bytes(accounts as u64, events as u64));
        let under = peak <= max_budget;
        eprintln!(
            "  peak RSS {:.2} GiB (budget {:.2} GiB) under_budget={under}",
            peak as f64 / (1 << 30) as f64,
            max_budget as f64 / (1 << 30) as f64
        );
        let &(_, _, _, eps8, scan8, _) = legs.last().expect("has legs");
        rows.push(serde_json::json!({
            "accounts": accounts,
            "events": events,
            "generate_s": gen_s,
            "sequential_replay_s": replay_s,
            "detections": seq_report.detections.len(),
            "shards": legs.iter().map(
                |&(s, path_s, wall_s, eps, scan_eps, identical)| serde_json::json!({
                    "shards": s,
                    "critical_path_s": path_s,
                    "wall_s": wall_s,
                    "events_per_sec": eps,
                    "scan_events_per_sec": scan_eps,
                    "identical_to_replay": identical,
                })).collect::<Vec<_>>(),
            "events_per_sec_8shards": eps8,
            "scan_events_per_sec_8shards": scan8,
            "peak_rss_bytes": peak,
            "rss_budget_bytes": max_budget,
            "under_budget": under,
            "bit_identical": row_identical,
        }));
        assert!(row_identical, "acceptance: serve must match replay at {accounts} accounts");
        assert!(
            under,
            "acceptance: peak RSS {peak} over budget {max_budget} at {accounts} accounts"
        );
        if accounts >= 5_000_000 {
            assert!(
                scan8 >= 10_000_000.0,
                "acceptance: 8-shard aggregate scan rate {scan8:.0}/s below 10M events/sec"
            );
        }
    }

    let report = serde_json::json!({
        "bench": "scale_sweep",
        "smoke": smoke,
        "timing": "critical_path (coordinator + slowest shard per epoch; equals \
                   wall-clock at >=1 core per shard, exact on the 1-core CI box)",
        "scan_rate": "scan_events_per_sec = shards * events / critical_path_s — every \
                      shard scans every event (the full-scan/shared-read design that \
                      keeps reports bit-identical to replay)",
        "rss_budget": "256 MiB + 260 B/account + 120 B/event (see DESIGN.md)",
        "rows": rows,
        "bit_identical": all_identical,
    });
    write_report("BENCH_scale.json", &report).expect("write BENCH_scale.json");
    assert!(all_identical, "acceptance: all serve reports must match replay");
}
