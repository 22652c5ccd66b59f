//! # sybil-bench — shared benchmark fixtures and the acceptance-bench harness
//!
//! The Criterion benches (one per paper table/figure, plus substrate and
//! ablation benches) share simulation fixtures through this small library
//! so the expensive simulated datasets are built once per bench binary.
//!
//! The acceptance-bench bins (`src/bin/`) share one harness: the adaptive
//! serving config, the injected bench clock, best-of-reps timing, the
//! order-rotated paired-leg runner with its overhead folds, report
//! byte-identity, and the `BENCH_*.json` writer. Each bin keeps only its
//! own legs, its report keys, and its gates — every gate is asserted in
//! its bin, once, and a failed gate exits nonzero.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use osn_sim::stream::EventStream;
use osn_sim::{simulate, SimConfig, SimOutput};
use std::sync::OnceLock;
use std::time::Instant;
use sybil_core::realtime::{DeploymentReport, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_repro::{Ctx, Scale};
use sybil_serve::{ServeConfig, ServeError, ServeOutcome, ServeSession};

/// The standard small-scale simulation used by the figure/table benches.
/// Built on first use and cached for the process lifetime.
pub fn small_fixture() -> &'static SimOutput {
    static FIXTURE: OnceLock<SimOutput> = OnceLock::new();
    FIXTURE.get_or_init(|| simulate(SimConfig::small(42)))
}

/// A tiny simulation for expensive per-iteration benches.
pub fn tiny_fixture() -> &'static SimOutput {
    static FIXTURE: OnceLock<SimOutput> = OnceLock::new();
    FIXTURE.get_or_init(|| simulate(SimConfig::tiny(42)))
}

/// Experiment context over the small fixture (components precomputed).
pub fn small_ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| Ctx::from_output(small_fixture().clone(), Scale::Small, 42))
}

/// Experiment context over the tiny fixture.
pub fn tiny_ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| Ctx::from_output(tiny_fixture().clone(), Scale::Tiny, 42))
}

/// Pin the `par::` worker count for the parallel maps that follow.
pub fn set_threads(n: usize) {
    std::env::set_var(osn_graph::par::THREADS_ENV, n.to_string());
}

/// Print the bin's fixture banner to stderr and return the fixture's
/// merged event count.
pub fn announce(bin: &str, out: &SimOutput) -> usize {
    let events = EventStream::new(&out.log).total_events();
    eprintln!(
        "{bin}: {} accounts, {events} merged events",
        out.accounts.len()
    );
    events
}

/// The adaptive detector the serving benches run: detections, feedback
/// and audits all live, so every engine path (and every journal record
/// kind, checkpoint section and metric) is exercised.
pub fn adaptive_detect() -> RealtimeConfig {
    RealtimeConfig {
        rule: ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 15.0,
            max_cc: f64::INFINITY,
        },
        adaptive: true,
        ..RealtimeConfig::default()
    }
}

/// A serving config at `shards` shards with the benches' 48 h epochs.
pub fn serve_config(shards: usize, detect: RealtimeConfig) -> ServeConfig {
    ServeConfig {
        shards,
        epoch_hours: 48,
        detect,
        rotate_floor: 0,
    }
}

/// Seconds since the first call: the monotonic clock the benches inject
/// with `ServeSession::clock` (the engine itself holds no clock).
pub fn bench_clock() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Best-of-`reps` wall-clock milliseconds for `f` (at least one run),
/// with the last run's result for identity checks.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut timed = || {
        let t0 = Instant::now();
        let v = f();
        (t0.elapsed().as_secs_f64() * 1e3, v)
    };
    let (mut best, mut last) = timed();
    for _ in 1..reps {
        let (ms, v) = timed();
        best = best.min(ms);
        last = v;
    }
    (best, last)
}

/// Serve `out` at `cfg` on the bench clock `reps` times (at least once):
/// the fastest run's stats by critical path, with the last run's report.
pub fn best_serve(
    out: &SimOutput,
    cfg: ServeConfig,
    reps: usize,
) -> Result<ServeOutcome, ServeError> {
    let serve = || ServeSession::new(cfg).clock(&bench_clock).run(out);
    let mut best = serve()?;
    for _ in 1..reps {
        let o = serve()?;
        if o.stats.critical_path_s < best.stats.critical_path_s {
            best.stats = o.stats;
        }
        best.report = o.report;
    }
    Ok(best)
}

/// Whether two reports serialize to the same bytes. A report that fails
/// to serialize is never identical.
pub fn same_report(a: &DeploymentReport, b: &DeploymentReport) -> bool {
    matches!(
        (serde_json::to_string(a), serde_json::to_string(b)),
        (Ok(x), Ok(y)) if x == y
    )
}

/// Pretty-print `report`, write it to `file` in the working directory,
/// and echo it to stdout.
pub fn write_report(file: &str, report: &serde_json::Value) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(file, &json)?;
    println!("{json}");
    Ok(())
}

/// Per-leg timings from [`rotated_reps`], in seconds: one column per leg,
/// one entry per rep.
pub struct Reps {
    legs: Vec<Vec<f64>>,
}

/// Run every leg once per rep for `reps` reps, rotating the leg order
/// cyclically (rep `r` starts at leg `r % legs.len()`), so no leg always
/// gets the post-idle slot. Each leg receives the rep index and returns
/// the seconds it measured. Adjacent legs see the same box conditions,
/// so common-mode noise (CPU-quota throttling, a noisy neighbor) cancels
/// in the per-rep paired ratios of [`Reps::min_paired_overhead_pct`].
pub fn rotated_reps(reps: usize, legs: &mut [&mut dyn FnMut(usize) -> f64]) -> Reps {
    let n = legs.len();
    let mut cols = vec![Vec::with_capacity(reps); n];
    for rep in 0..reps {
        for leg in (rep..rep + n).map(|k| k % n) {
            cols[leg].push(legs[leg](rep));
        }
    }
    Reps { legs: cols }
}

/// `(t - base) / scale` as a percentage, floored at zero.
pub fn overhead_pct(t: f64, base: f64, scale: f64) -> f64 {
    ((t - base) / scale * 100.0).max(0.0)
}

impl Reps {
    fn leg(&self, leg: usize) -> &[f64] {
        self.legs.get(leg).map_or(&[], Vec::as_slice)
    }

    /// Leg `leg`'s fastest rep, in seconds.
    pub fn best(&self, leg: usize) -> f64 {
        self.leg(leg).iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The minimum across reps of [`overhead_pct`]`(leg, base, scale)`,
    /// each term taken from the *same* rep. A spurious gate failure
    /// would need every rep to be slow on `leg` alone.
    pub fn min_paired_overhead_pct(&self, leg: usize, base: usize, scale: usize) -> f64 {
        let (t, b, s) = (self.leg(leg), self.leg(base), self.leg(scale));
        t.iter()
            .zip(b)
            .zip(s)
            .map(|((&t, &b), &s)| overhead_pct(t, b, s))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// `rotated_reps` over `n` legs that each return their global call
    /// position, so `legs[leg][rep]` records when that leg ran.
    fn call_positions(reps: usize, n: usize) -> Vec<Vec<f64>> {
        let tick = Cell::new(0.0);
        let mut legs = vec![
            |_: usize| {
                tick.set(tick.get() + 1.0);
                tick.get() - 1.0
            };
            n
        ];
        let mut refs: Vec<&mut dyn FnMut(usize) -> f64> = legs
            .iter_mut()
            .map(|l| l as &mut dyn FnMut(usize) -> f64)
            .collect();
        rotated_reps(reps, &mut refs).legs
    }

    #[test]
    fn rotation_puts_every_leg_in_every_slot() {
        for n in 1..=4 {
            let pos = call_positions(n, n);
            let mut seen = vec![vec![false; n]; n]; // [slot][leg]
            for (leg, col) in pos.iter().enumerate() {
                for (rep, &p) in col.iter().enumerate() {
                    let slot = p as usize - rep * n;
                    assert!(slot < n, "rep {rep} runs all its legs before the next rep");
                    seen[slot][leg] = true;
                }
            }
            assert!(seen.iter().flatten().all(|&s| s), "n={n}: {seen:?}");
        }
        // Rep r starts at leg r % n: orders 0,1,2 / 1,2,0 / 2,0,1.
        let pos = call_positions(3, 3);
        assert_eq!(pos, [[0.0, 5.0, 7.0], [1.0, 3.0, 8.0], [2.0, 4.0, 6.0]]);
    }

    #[test]
    fn min_paired_overhead_pairs_within_a_rep() {
        // Rep 0: base 1.0 / leg 1.5 (+50%); rep 1: base 2.0 / leg 2.0 (0%).
        // Best-vs-best reads 1.5 against 1.0 (+50%); pairing within each
        // rep finds the clean rep and reads 0%.
        let mut base = |rep: usize| [1.0, 2.0][rep];
        let mut leg = |rep: usize| [1.5, 2.0][rep];
        let reps = rotated_reps(2, &mut [&mut base, &mut leg]);
        assert_eq!((reps.best(0), reps.best(1)), (1.0, 1.5));
        assert_eq!(overhead_pct(reps.best(1), reps.best(0), reps.best(0)), 50.0);
        assert_eq!(reps.min_paired_overhead_pct(1, 0, 0), 0.0);
        // A separate scale leg divides each rep's paired delta.
        let mut plain = |_: usize| 2.0;
        let mut jrn = |rep: usize| [1.0, 1.25][rep];
        let mut ckpt = |rep: usize| [1.5, 1.375][rep];
        let reps = rotated_reps(2, &mut [&mut plain, &mut jrn, &mut ckpt]);
        assert_eq!(reps.min_paired_overhead_pct(2, 1, 0), 6.25);
    }

    #[test]
    fn overhead_is_floored_at_zero() {
        assert_eq!(overhead_pct(0.5, 1.0, 1.0), 0.0);
        assert_eq!(overhead_pct(1.5, 1.0, 2.0), 25.0);
    }

    #[test]
    fn same_report_detects_a_differing_report() {
        let a = DeploymentReport::default();
        assert!(same_report(&a, &a.clone()));
        let b = DeploymentReport {
            missed: 1,
            ..a.clone()
        };
        assert!(!same_report(&a, &b));
    }

    #[test]
    fn time_ms_runs_at_least_once_and_returns_the_last_result() {
        let mut n = 0;
        let (ms, last) = time_ms(0, || {
            n += 1;
            n
        });
        assert!(ms >= 0.0);
        assert_eq!((n, last), (1, 1));
        let (_, last) = time_ms(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 4);
    }
}
