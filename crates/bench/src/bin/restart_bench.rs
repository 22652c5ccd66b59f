//! Persistence acceptance bench: checkpoint-write overhead on the
//! serving critical path, plus restart-to-first-verdict latency.
//!
//! Three legs per rep, order-rotated across `REPS` reps by the shared
//! [`rotated_reps`] harness: the plain
//! clocked `ServeSession` (production path, no plane), a journal-only
//! [`StorePlane`] (`checkpoint_every = 0`: every epoch write-ahead
//! journaled to a real file, no checkpoints), and the full default
//! plane (`StorePlane::open`: same journaling plus `SYBS` checkpoints
//! at the default cadence — the `repro serve --store` configuration).
//! The journal-only and default legs do identical journal work, so
//! their paired delta isolates exactly the checkpoint writes; file
//! journaling itself is reported (the in-memory journal is gated
//! separately by `chaos_bench`). Every persisted rep starts from a
//! cleared directory so full cost is measured, never a warm resume,
//! and the minimum paired overhead across reps is what the gate sees.
//! The acceptance gates:
//!
//! * the persisted runs' reports are byte-identical to the plain run's;
//! * checkpoint writes cost under 5% of the fault-free critical path —
//!   they land on the barrier (off the per-event path) at a sparse
//!   default cadence, so anything above that signals snapshot work
//!   leaking into the event loop or a cadence regression;
//! * a kill two epochs before the end warm-restarts from disk to a
//!   report byte-identical to the uninterrupted run's, and the restart
//!   (checkpoint load + journal tail + the short live tail) beats the
//!   cold full replay it replaces.
//!
//! Writes `BENCH_restart.json` at the working directory root. Run with
//! `cargo run --release -p sybil-bench --bin restart_bench`.

use std::path::Path;
use std::time::Instant;
use sybil_bench::{
    adaptive_detect, announce, bench_clock, rotated_reps, same_report, serve_config, small_fixture,
    write_report,
};
use sybil_serve::fault::FaultKind;
use sybil_serve::{ServeError, ServeSession};
use sybil_store::{StorePlane, DEFAULT_CHECKPOINT_EVERY};

const REPS: usize = 9;
/// Reps of the restart-vs-cold latency legs.
const LATENCY_REPS: usize = 3;
/// Leg indices for [`rotated_reps`].
const OFF: usize = 0;
const JRN: usize = 1;
const ON: usize = 2;
const RESTART: usize = 0;
const COLD: usize = 1;

fn main() {
    let out = small_fixture();
    let events = announce("restart_bench", out);
    let cfg = serve_config(4, adaptive_detect());

    let base = std::env::temp_dir().join(format!("sybil-restart-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Persisted leg at an explicit checkpoint cadence (0 = journal
    // only). A cleared directory per run: the leg must pay for every
    // journal append and checkpoint, never warm-restart past the work.
    let run_plane = |dir: &Path, every: u64| {
        let _ = std::fs::remove_dir_all(dir);
        let mut plane = StorePlane::with_cadence(dir, every).expect("store opens");
        let o = ServeSession::new(cfg)
            .clock(&bench_clock)
            .store(&mut plane)
            .run(out)
            .expect("serve failed");
        (o, plane.journal().len_bytes())
    };

    // Order-rotated paired reps (see `rotated_reps`); the gate takes the
    // minimum paired overhead across reps. The checkpoint gate pairs the
    // default plane against the journal-only plane — both do identical
    // journal work, so the delta is the checkpoint writes. The last
    // rep's reports are byte-compared.
    let (mut r_off, mut r_jrn, mut r_on, mut journal_bytes) = (None, None, None, 0);
    let mut off = |_| {
        let o = ServeSession::new(cfg)
            .clock(&bench_clock)
            .run(out)
            .expect("serve failed");
        r_off = Some(o.report);
        o.stats.critical_path_s
    };
    let mut jrn = |rep: usize| {
        let (o, _) = run_plane(&base.join(format!("rep{rep}-jrn")), 0);
        r_jrn = Some(o.report);
        o.stats.critical_path_s
    };
    let mut on = |rep: usize| {
        let (o, bytes) = run_plane(
            &base.join(format!("rep{rep}-ckpt")),
            DEFAULT_CHECKPOINT_EVERY,
        );
        r_on = Some(o.report);
        journal_bytes = bytes;
        o.stats.critical_path_s
    };
    let reps = rotated_reps(REPS, &mut [&mut off, &mut jrn, &mut on]);
    let r_off = r_off.expect("off leg ran");
    let identical = same_report(&r_off, &r_jrn.expect("jrn leg ran"))
        && same_report(&r_off, &r_on.expect("on leg ran"));
    // The gated number: checkpoint writes alone, as a fraction of the
    // fault-free critical path.
    let overhead_pct = reps.min_paired_overhead_pct(ON, JRN, OFF);
    // Reported, not gated here: what file journaling itself costs.
    // chaos_bench gates the journaling protocol (<5%) against its
    // in-memory journal; this is the same protocol on a real file.
    let journal_overhead_pct = reps.min_paired_overhead_pct(JRN, OFF, OFF);
    let (off_best, jrn_best, on_best) = (reps.best(OFF), reps.best(JRN), reps.best(ON));

    // Checkpoint inventory from the last rep's default-cadence directory.
    let plane =
        StorePlane::open(base.join(format!("rep{}-ckpt", REPS - 1))).expect("store reopens");
    let checkpoints = plane.store().checkpoints().expect("checkpoint list");
    let (total_epochs, _) = plane
        .journal()
        .finished()
        .expect("finished run has an end record");
    let checkpoint_bytes = checkpoints
        .last()
        .and_then(|e| plane.store().load(*e).ok())
        .map(|cp| sybil_store::format::encode_checkpoint(&cp).len())
        .unwrap_or(0);
    drop(plane);
    eprintln!(
        "  plain {:.1} ms | journal-only {:.1} ms | +checkpoints {:.1} ms | \
         ckpt overhead {overhead_pct:.2}% | journal overhead {journal_overhead_pct:.2}% | \
         {} checkpoints x {checkpoint_bytes} bytes | journal {journal_bytes} bytes | \
         identical={identical}",
        off_best * 1e3,
        jrn_best * 1e3,
        on_best * 1e3,
        checkpoints.len()
    );

    // Restart-to-first-verdict: kill two epochs before the end, then
    // time the whole road back — opening the store, loading the newest
    // checkpoint, replaying the committed journal tail, serving the
    // short live remainder to the final report. Compare against the
    // cold full replay a storeless deployment would need. Order-rotated
    // reps, best-of per leg: a single fixed-order timing flips under
    // transient box load. The restart leg re-creates the killed state
    // (untimed) every rep, because a *finished* journal replays a
    // different (cheaper) path than a mid-run one.
    let kill_epoch = total_epochs.saturating_sub(2);
    let dir = base.join("kill");
    let (mut restarted, mut colds) = (Vec::new(), Vec::new());
    let (mut resumed_from, mut tail_replayed) = (None, 0);
    let mut restart = |_| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut doomed = StorePlane::open(&dir)
            .expect("store opens")
            .kill_at_epoch(kill_epoch);
        match ServeSession::new(cfg).store(&mut doomed).run(out) {
            Err(ServeError::Chaos(c)) => assert_eq!(c.fault_kind, FaultKind::Crash),
            other => panic!("expected the armed kill to fire, got {other:?}"),
        }
        drop(doomed);
        let t = Instant::now();
        let mut revived = StorePlane::open(&dir).expect("store reopens");
        let outcome = ServeSession::new(cfg)
            .store(&mut revived)
            .run(out)
            .expect("warm restart completes");
        let s = t.elapsed().as_secs_f64();
        resumed_from = revived.resumed_from();
        tail_replayed = revived.tail_replayed();
        restarted.push(outcome.report);
        s
    };
    let mut cold = |_| {
        let t = Instant::now();
        let cold = ServeSession::new(cfg).run(out).expect("cold replay");
        let s = t.elapsed().as_secs_f64();
        colds.push(cold.report);
        s
    };
    let latency = rotated_reps(LATENCY_REPS, &mut [&mut restart, &mut cold]);
    let (restart_s, cold_s) = (latency.best(RESTART), latency.best(COLD));
    let restart_identical = restarted.iter().zip(&colds).all(|(r, c)| same_report(r, c));
    eprintln!(
        "  restart smoke: killed at epoch {kill_epoch}/{total_epochs} | resumed from \
         {resumed_from:?} (+{tail_replayed} journal epochs) | restart {:.1} ms vs cold \
         {:.1} ms | identical={restart_identical}",
        restart_s * 1e3,
        cold_s * 1e3
    );

    let report = serde_json::json!({
        "bench": "restart",
        "events": events,
        "accounts": out.accounts.len(),
        "reps": REPS,
        "shards": 4,
        "timing": "critical_path (coordinator + slowest shard per epoch); overheads are \
                   minimum per-rep paired ratios over order-rotated reps, each persisted \
                   rep from a cleared directory; checkpoint overhead pairs the default \
                   plane against a journal-only plane (identical journaling, so the \
                   delta is the checkpoint writes) over the plain critical path; \
                   *_ms are per-variant bests",
        "plain_critical_path_ms": off_best * 1e3,
        "journal_only_critical_path_ms": jrn_best * 1e3,
        "persisted_critical_path_ms": on_best * 1e3,
        "checkpoint_overhead_pct": overhead_pct,
        "journal_overhead_pct": journal_overhead_pct,
        "epochs": total_epochs,
        "checkpoints_written": checkpoints.len(),
        "checkpoint_bytes": checkpoint_bytes,
        "journal_bytes": journal_bytes,
        "report_identical": identical,
        "kill_epoch": kill_epoch,
        "restart_resumed_from": resumed_from,
        "restart_tail_replayed": tail_replayed,
        "restart_to_first_verdict_ms": restart_s * 1e3,
        "cold_replay_ms": cold_s * 1e3,
        "restart_identical": restart_identical,
    });
    write_report("BENCH_restart.json", &report).expect("write BENCH_restart.json");
    let _ = std::fs::remove_dir_all(&base);
    assert!(
        identical,
        "acceptance: persisted and plain runs must produce the same report"
    );
    assert!(
        restart_identical,
        "acceptance: a killed run must warm-restart byte-identical from disk"
    );
    assert!(
        overhead_pct < 5.0,
        "acceptance: checkpoint overhead must stay under 5% ({overhead_pct:.2}%)"
    );
    assert!(
        restart_s < cold_s,
        "acceptance: a near-end restart ({:.1} ms) must beat the cold replay ({:.1} ms)",
        restart_s * 1e3,
        cold_s * 1e3
    );
}
