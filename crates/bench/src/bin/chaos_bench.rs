//! Chaos-engine acceptance bench: write-ahead journal overhead on the
//! serving critical path, plus the crash-recovery smoke.
//!
//! Replays the same adaptive stream through a clocked `ServeSession`
//! (production path, `NoFaults` plane) and the same session with a
//! journal-only [`ChaosPlane`] at the default digest cadence (every
//! epoch write-ahead journaled, per-shard digests every
//! [`DEFAULT_DIGEST_CADENCE`](sybil_chaos::DEFAULT_DIGEST_CADENCE)th
//! epoch — the `repro chaos` drill configuration), paired per rep and
//! order-rotated across `REPS` reps by the shared [`rotated_reps`]
//! harness (minimum paired overhead is what the gate sees). A third strict-cadence run (digests *every* epoch)
//! is measured and reported but not gated. The acceptance gates:
//!
//! * the journaled run's report is byte-identical to the plain run's;
//! * journaling costs under 5% of the fault-free critical path — the
//!   journal appends to an in-memory store at barrier time, off the
//!   per-event path, so anything above that signals journal work
//!   leaking into the event loop;
//! * a seeded mid-stream shard crash recovers from the journal to a
//!   report byte-identical to the fault-free run's.
//!
//! Writes `BENCH_chaos.json` at the working directory root. Run with
//! `cargo run --release -p sybil-bench --bin chaos_bench`.

use std::io::Cursor;
use sybil_bench::{
    adaptive_detect, announce, bench_clock, rotated_reps, same_report, serve_config, small_fixture,
    write_report,
};
use sybil_chaos::{
    run_chaos_in_memory, ChaosOutcome, ChaosPlane, FaultSchedule, FaultSpec, FaultSpecKind, Journal,
};
use sybil_serve::ServeSession;

const REPS: usize = 9;
/// Epoch the smoke's shard crash lands in (mid-stream for the small
/// sim's ~15 epochs at 48h).
const CRASH_EPOCH: u64 = 2;
const CRASH_SHARD: usize = 1;
/// Leg indices for [`rotated_reps`].
const OFF: usize = 0;
const ON: usize = 1;
const STRICT: usize = 2;

fn main() {
    let out = small_fixture();
    let events = announce("chaos_bench", out);
    let cfg = serve_config(4, adaptive_detect());

    // Each rep times all three variants back to back, order-rotated, and
    // the gate takes the minimum per-rep paired overhead (see
    // `rotated_reps`): a spurious failure would need every one of the
    // `REPS` reps to be asymmetrically slow on the journaled leg only.
    // The last rep's reports are byte-compared.
    let (mut r_off, mut r_on, mut journal_bytes) = (None, None, 0);
    let mut off = |_| {
        let o = ServeSession::new(cfg)
            .clock(&bench_clock)
            .run(out)
            .expect("serve failed");
        r_off = Some(o.report);
        o.stats.critical_path_s
    };
    let mut on = |_| {
        let journal = Journal::create(Cursor::new(Vec::new())).expect("in-memory journal");
        let mut plane = ChaosPlane::new(FaultSchedule::journal_only(42), journal);
        let o = ServeSession::new(cfg)
            .clock(&bench_clock)
            .plane(&mut plane)
            .run(out)
            .expect("serve failed");
        r_on = Some(o.report);
        journal_bytes = plane.into_journal().len_bytes();
        o.stats.critical_path_s
    };
    // Strict cadence: per-shard digests at every barrier — the upper
    // bound on digest cost, reported but not gated.
    let mut strict = |_| {
        let journal = Journal::create(Cursor::new(Vec::new())).expect("in-memory journal");
        let mut plane =
            ChaosPlane::with_digest_cadence(FaultSchedule::journal_only(42), journal, 1);
        ServeSession::new(cfg)
            .clock(&bench_clock)
            .plane(&mut plane)
            .run(out)
            .expect("serve failed")
            .stats
            .critical_path_s
    };
    let reps = rotated_reps(REPS, &mut [&mut off, &mut on, &mut strict]);
    let identical = same_report(&r_off.expect("off leg ran"), &r_on.expect("on leg ran"));
    let overhead_pct = reps.min_paired_overhead_pct(ON, OFF, OFF);
    let strict_overhead_pct = reps.min_paired_overhead_pct(STRICT, OFF, OFF);
    let (off_best, on_best, strict_best) = (reps.best(OFF), reps.best(ON), reps.best(STRICT));
    eprintln!(
        "  plain {:.1} ms | journaled {:.1} ms | overhead {overhead_pct:.2}% \
         (strict-digest {strict_overhead_pct:.2}%) | journal {journal_bytes} bytes | \
         identical={identical}",
        off_best * 1e3,
        on_best * 1e3
    );

    // Crash-recovery smoke: kill one shard mid-stream, recover from the
    // write-ahead journal, byte-compare against the fault-free run.
    let schedule = FaultSchedule {
        seed: 42,
        faults: vec![FaultSpec {
            epoch: CRASH_EPOCH,
            shard: CRASH_SHARD,
            kind: FaultSpecKind::Crash,
        }],
    };
    let crash = run_chaos_in_memory(out, &cfg, schedule, None).expect("chaos run failed");
    let recovered_identical = crash.report.outcome == ChaosOutcome::Identical;
    eprintln!(
        "  crash smoke: epoch {CRASH_EPOCH} shard {CRASH_SHARD} | replayed {} epochs | \
         recovered_identical={recovered_identical}",
        crash.report.epochs_replayed
    );

    let report = serde_json::json!({
        "bench": "chaos",
        "events": events,
        "accounts": out.accounts.len(),
        "reps": REPS,
        "shards": 4,
        "timing": "critical_path (coordinator + slowest shard per epoch); overheads are \
                   the minimum per-rep paired ratio over order-rotated reps; *_ms are \
                   per-variant bests",
        "plain_critical_path_ms": off_best * 1e3,
        "journaled_critical_path_ms": on_best * 1e3,
        "journal_overhead_pct": overhead_pct,
        "strict_digest_critical_path_ms": strict_best * 1e3,
        "strict_digest_overhead_pct": strict_overhead_pct,
        "journal_bytes": journal_bytes,
        "report_identical": identical,
        "crash_epoch": CRASH_EPOCH,
        "crash_shard": CRASH_SHARD,
        "crash_epochs_replayed": crash.report.epochs_replayed,
        "crash_recovered_identical": recovered_identical,
    });
    write_report("BENCH_chaos.json", &report).expect("write BENCH_chaos.json");
    assert!(
        identical,
        "acceptance: journaled and plain runs must produce the same report"
    );
    assert!(
        recovered_identical,
        "acceptance: a crashed shard must recover byte-identical from the journal"
    );
    assert!(
        overhead_pct < 5.0,
        "acceptance: journal overhead must stay under 5% ({overhead_pct:.2}%)"
    );
}
