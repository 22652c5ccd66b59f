//! The workloads: `sim-dense` and `persist-restart`.
//!
//! Each operation is one `ServeSession::run`, checked byte for byte
//! against the sequential `replay` of the same stream. The untraced run
//! times whole calls, each between two host-speed references; the
//! traced run adds an injected clock, a metrics registry and a
//! [`TimedPlane`], and times `replay_observed` and a standalone stream
//! pull beside them.

use crate::hostspeed::HostClock;
use crate::metrics::{median, percentile, tail_percentile, Metrics};
use crate::offline::Offline;
use crate::plane::{Hook, TimedPlane};
use crate::trace::Tracer;
use crate::{closed_loop, setup, Args, Workload};
use osn_sim::stream::{EpochBatches, EventStream};
use osn_sim::{simulate, SimConfig, SimOutput};
use serde_json::json;
use std::path::{Path, PathBuf};
use sybil_core::realtime::{replay, replay_observed, DeploymentReport, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_obs::{MetricValue, Registry, Snapshot};
use sybil_serve::fault::{FaultKind, FaultPlane, NoFaults};
use sybil_serve::{ServeConfig, ServeError, ServeOutcome, ServeSession, ServeStats};
use sybil_store::StorePlane;

/// `sim-dense` population: the `serve_throughput` fixture's shape.
const DENSE_NORMAL: usize = 13_000;
const DENSE_SYBIL: usize = 390;
/// Fewest operations an untraced run times, however long they take.
const MIN_OPS: usize = 3;

/// The logical counters `replay_observed` and `ServeSession` both export.
const COUNTERS: [&str; 6] = [
    "events_processed",
    "checks_run",
    "detections",
    "features_computed",
    "feedback_applied",
    "audits_sampled",
];

fn fixture(args: &Args) -> SimOutput {
    simulate(match (args.workload, args.smoke) {
        (_, true) => SimConfig::tiny(args.seed),
        (Workload::SimDense, false) => SimConfig {
            n_normal: DENSE_NORMAL,
            n_sybil: DENSE_SYBIL,
            ..SimConfig::small(args.seed)
        },
        (Workload::PersistRestart, false) => SimConfig::small(args.seed),
    })
}

fn serve_config(w: Workload) -> ServeConfig {
    // Adaptive detectors exercise every engine path: checks, feedback
    // redistribution at barriers, audits and snapshot rotation.
    let (shards, check_every) = match w {
        Workload::SimDense => (1, 40),
        Workload::PersistRestart => (2, 5),
    };
    ServeConfig {
        shards,
        epoch_hours: 48,
        detect: RealtimeConfig {
            rule: ThresholdClassifier {
                max_out_ratio: 0.5,
                min_freq: 15.0,
                max_cc: f64::INFINITY,
            },
            adaptive: true,
            check_every,
            ..RealtimeConfig::default()
        },
        rotate_floor: 0,
    }
}

/// The engine's epoch length for `cfg`, in seconds.
fn epoch_s(cfg: &ServeConfig) -> u64 {
    let h = if cfg.detect.adaptive {
        cfg.epoch_hours.clamp(1, cfg.detect.feedback_delay_h.max(1))
    } else {
        cfg.epoch_hours.max(1)
    };
    h * 3600
}

fn report_json(r: &DeploymentReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// `Some(problem)` unless `got` is an `Ok` report equal to `want`.
fn check_report(what: &str, got: &Result<ServeOutcome, ServeError>, want: &str) -> Option<String> {
    match got {
        Err(e) => Some(format!("{what}: serve failed: {e}")),
        Ok(o) if report_json(&o.report) != want => {
            Some(format!("{what}: report differs from its reference"))
        }
        Ok(_) => None,
    }
}

/// Set `reference` on first use, else compare; `Some(problem)` on a mismatch.
fn check_or_set(reference: &mut Option<String>, what: &str, got: String) -> Option<String> {
    match reference {
        None => {
            *reference = Some(got);
            None
        }
        Some(want) => (*want != got).then(|| format!("{what}: report differs from the first")),
    }
}

fn build_input(
    args: &Args,
    m: &mut Metrics,
    hc: &mut HostClock,
) -> (SimOutput, ServeConfig, usize) {
    let out = setup(m, hc, args.smoke, || fixture(args));
    let cfg = serve_config(args.workload);
    let events = EventStream::new(&out.log).total_events();
    m.input(out.accounts.len(), events);
    m.detail("shards", json!(cfg.shards));
    (out, cfg, events)
}

/// `sim-dense`: serve against sequential `replay`.
pub fn run_plain(args: &Args, m: &mut Metrics, hc: &mut HostClock) {
    let (out, cfg, events) = build_input(args, m, hc);
    if args.trace {
        return traced_plain(args, m, &out, &cfg);
    }
    let mut reference: Option<String> = None;
    let (mut serve, mut replayed) = (Timings::default(), Timings::default());
    let ops = closed_loop(args.seconds, MIN_OPS, |i, timed| {
        // Alternate which leg runs first; the warm-up replays first, so
        // the reference exists before the first serve is checked.
        let legs = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for serve_leg in legs {
            if serve_leg {
                let (got, raw, adj) = hc.time(|| ServeSession::new(cfg).run(&out));
                let want = reference.as_deref().expect("the warm-up replays first");
                m.op(check_report("serve", &got, want));
                serve.push(timed, raw, adj);
            } else {
                let (r, raw, adj) = hc.time(|| replay(&out, &cfg.detect));
                m.op(check_or_set(&mut reference, "replay", report_json(&r)));
                replayed.push(timed, raw, adj);
            }
        }
    });
    m.e2e("norm_events_per_s", events as f64 / median(&serve.adj));
    m.e2e(
        "norm_paired_events_per_s",
        events as f64 / median(&replayed.adj),
    );
    let (serve_med, replay_med) = (median(&serve.raw), median(&replayed.raw));
    m.named("events_per_s", events as f64 / serve_med, "events/s");
    m.named(
        "replay_events_per_s",
        events as f64 / replay_med,
        "events/s",
    );
    m.named("serve_over_replay", serve_med / replay_med, "ratio");
    m.detail("ops", json!(ops));
    m.detail("serve_s", json!(serve.raw));
    m.detail("replay_s", json!(replayed.raw));
    m.detail("host_ref_s", json!(hc.refs()));
}

/// Raw and reference-speed times of one leg's timed calls, in seconds.
#[derive(Default)]
struct Timings {
    raw: Vec<f64>,
    adj: Vec<f64>,
}

impl Timings {
    /// Keep one call's times when it was `timed` (not the warm-up).
    fn push(&mut self, timed: bool, raw: f64, adj: f64) {
        if timed {
            self.raw.push(raw);
            self.adj.push(adj);
        }
    }
}

fn count(s: &Snapshot, key: &str) -> u64 {
    match s.logical.get(key) {
        Some(MetricValue::Count(v) | MetricValue::Max(v)) => *v,
        _ => 0,
    }
}

/// Largest per-shard value of the sharded gauge `shard{N}.{name}`.
fn max_sharded(s: &Snapshot, name: &str) -> u64 {
    s.sharded
        .iter()
        .filter(|(k, _)| k.split_once('.').is_some_and(|(_, n)| n == name))
        .filter_map(|(_, v)| match v {
            MetricValue::Count(x) | MetricValue::Max(x) => Some(*x),
            MetricValue::Hist(..) => None,
        })
        .max()
        .unwrap_or(0)
}

fn sum_sharded(s: &Snapshot, name: &str) -> u64 {
    s.sharded
        .iter()
        .filter(|(k, _)| k.split_once('.').is_some_and(|(_, n)| n == name))
        .map(|(_, v)| match v {
            MetricValue::Count(x) | MetricValue::Max(x) => *x,
            MetricValue::Hist(..) => 0,
        })
        .sum()
}

/// The `sybil-core` layer, from one `replay_observed` with a clock.
fn core_layers(m: &mut Metrics, replay: &Snapshot) {
    let span = replay.wall.get("feature_compute");
    m.layer("core.feature_compute_s", span.map_or(0.0, |s| s.total_s));
    m.layer(
        "core.feature_compute_calls",
        span.map_or(0, |s| s.count) as f64,
    );
    for (layer, key) in [
        ("core.checks_run", "checks_run"),
        ("core.features_computed", "features_computed"),
        ("core.detections", "detections"),
        ("core.feedback_applied", "feedback_applied"),
        ("core.audits_sampled", "audits_sampled"),
    ] {
        m.layer(layer, count(replay, key) as f64);
    }
    let checks = count(replay, "checks_run").max(1);
    m.layer(
        "core.feature_gate_ratio",
        count(replay, "features_computed") as f64 / checks as f64,
    );
}

/// The `osn-sim` stream layer: drain `EpochBatches` at the serve's epoch
/// length. Returns `(epochs, events)`.
fn pull_layer(m: &mut Metrics, tr: &mut Tracer, out: &SimOutput, cfg: &ServeConfig) -> (u64, u64) {
    let ((epochs, events), _, secs) = tr.time("osn_sim.pull", None, || {
        let mut batches = EpochBatches::new(&out.log, epoch_s(cfg));
        let (mut epochs, mut events) = (0u64, 0u64);
        while let Some((evs, _)) = batches.next_epoch() {
            epochs += 1;
            events += evs.len() as u64;
        }
        (epochs, events)
    });
    m.layer("osn_sim.pull_s", secs);
    m.layer("osn_sim.epochs", epochs as f64);
    m.layer("osn_sim.events", events as f64);
    (epochs, events)
}

/// The `sybil-serve` layer (and the plane's hook times) from one traced
/// serve whose registry exported `serve`.
fn serve_layers<P: FaultPlane>(
    m: &mut Metrics,
    tr: &mut Tracer,
    parent: usize,
    stats: &ServeStats,
    plane: &TimedPlane<P>,
    serve: &Snapshot,
) {
    let busy_sum: f64 = stats.shard_busy_s.iter().sum();
    let busy_max = stats.shard_busy_s.iter().copied().fold(0.0, f64::max);
    let busy_mean = busy_sum / stats.shard_busy_s.len().max(1) as f64;
    m.layer("serve.wall_s", stats.wall_s);
    m.layer("serve.critical_path_s", stats.critical_path_s);
    m.layer("serve.shard_busy_max_s", busy_max);
    m.layer("serve.shard_busy_sum_s", busy_sum);
    m.layer(
        "serve.shard_skew",
        if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            1.0
        },
    );
    m.layer("serve.coordinator_s", (stats.wall_s - busy_sum).max(0.0));

    let windows = plane.windows();
    let epoch_ms: Vec<f64> = windows
        .iter()
        .map(|w| (w.end_s - w.begin_s) * 1e3)
        .collect();
    let window_s = epoch_ms.iter().sum::<f64>() / 1e3;
    let tail = tail_percentile(epoch_ms.len());
    m.layer("serve.epoch_window_s", window_s);
    m.layer("serve.between_epochs_s", (stats.wall_s - window_s).max(0.0));
    m.layer("serve.epoch_ms.p50", percentile(&epoch_ms, 50.0));
    m.layer("serve.epoch_ms.tail", percentile(&epoch_ms, tail));
    m.layer("serve.epoch_ms.tail_pct", tail);
    m.layer("serve.epoch_samples", epoch_ms.len() as f64);
    m.layer(
        "serve.det_queue_hwm",
        max_sharded(serve, "det_queue_hwm") as f64,
    );
    m.layer(
        "serve.fb_queue_hwm",
        max_sharded(serve, "fb_queue_hwm") as f64,
    );
    for w in windows {
        tr.record("serve.epoch", Some(parent), w.begin_s, w.end_s);
    }
    for &(hook, start, end) in plane.calls() {
        tr.record(hook_span(hook), Some(parent), start, end);
    }
    for (layer, hook) in [
        ("store.journal_append_s", Hook::EpochBegin),
        ("store.commit_s", Hook::EpochCommit),
        ("store.checkpoint_s", Hook::Checkpoint),
        ("store.run_end_s", Hook::RunEnd),
        ("store.other_hooks_s", Hook::Other),
    ] {
        m.layer(layer, plane.total_s(hook));
    }
}

/// `Some(problem)` when a traced serve's logical counters disagree with
/// the replay's, the per-shard sums, the events its plane saw
/// (`windowed`) or the standalone pull's `(epochs, events)`.
fn check_counters(
    serve: &Snapshot,
    replay: &Snapshot,
    windowed: usize,
    pulled: (u64, u64),
) -> Option<String> {
    let mut problems = Vec::new();
    for key in COUNTERS {
        let (s, r) = (count(serve, key), count(replay, key));
        if s != r {
            problems.push(format!("{key}: serve {s} vs replay {r}"));
        }
    }
    let shard_checks = sum_sharded(serve, "checks_run");
    if shard_checks != count(serve, "checks_run") {
        problems.push(format!(
            "checks_run: shard sum {shard_checks} vs total {}",
            count(serve, "checks_run")
        ));
    }
    if windowed as u64 != count(serve, "events_processed") {
        problems.push(format!("plane saw {windowed} events"));
    }
    if (count(serve, "epochs"), count(serve, "events_processed")) != pulled {
        problems.push(format!(
            "serve epochs/events differ from the pull's {pulled:?}"
        ));
    }
    (!problems.is_empty()).then(|| problems.join("; "))
}

fn hook_span(h: Hook) -> &'static str {
    match h {
        Hook::EpochBegin => "plane.epoch_begin",
        Hook::EpochCommit => "plane.epoch_commit",
        Hook::Checkpoint => "plane.checkpoint",
        Hook::RunEnd => "plane.run_end",
        Hook::LoadResume => "plane.load_resume",
        Hook::Other => "plane.other",
    }
}

/// Sequential reference with the `feature_compute` span: the replay
/// report's JSON and the registry snapshot.
fn observed_replay(
    m: &mut Metrics,
    tr: &mut Tracer,
    parent: usize,
    out: &SimOutput,
    cfg: &ServeConfig,
) -> (String, Snapshot) {
    let base = tr.base();
    let clock = move || base.elapsed().as_secs_f64();
    let mut reg = Registry::new();
    let (r, _, _) = tr.time("core.replay_observed", Some(parent), || {
        replay_observed(out, &cfg.detect, &mut reg, Some(&clock))
    });
    let snap = reg.snapshot();
    core_layers(m, &snap);
    (report_json(&r), snap)
}

/// Write the run's spans to `.perfbench/spans-<workload>-seed<seed>.json`.
pub fn write_spans(args: &Args, tr: &Tracer) {
    let path = PathBuf::from(".perfbench").join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let header = json!({"workload": args.workload.name(), "seed": args.seed});
    if let Err(e) = tr.write(&path, header) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn traced_plain(args: &Args, m: &mut Metrics, out: &SimOutput, cfg: &ServeConfig) {
    let mut tr = Tracer::new();
    let base = tr.base();
    let clock = move || base.elapsed().as_secs_f64();
    let mut reference: Option<String> = None;
    let ops = closed_loop(args.seconds, 1, |_, timed| {
        m.record_layers(timed);
        let op = tr.open("op", None);
        let (replay_json, replay_snap) = observed_replay(m, &mut tr, op, out, cfg);
        m.op(check_or_set(&mut reference, "replay_observed", replay_json));
        let want = reference.clone().expect("set by the first replay");
        let pulled = pull_layer(m, &mut tr, out, cfg);

        let (plain, _, plain_s) = tr.time("serve.untraced", Some(op), || {
            ServeSession::new(*cfg).run(out)
        });
        m.op(check_report("untraced serve", &plain, &want));

        let mut reg = Registry::new();
        let mut plane = TimedPlane::new(NoFaults, base);
        let (got, sid, traced_s) = tr.time("serve.run", Some(op), || {
            ServeSession::new(*cfg)
                .clock(&clock)
                .metrics(&mut reg)
                .plane(&mut plane)
                .run(out)
        });
        let mut problem = check_report("traced serve", &got, &want);
        if let Ok(o) = &got {
            let snap = reg.snapshot();
            serve_layers(m, &mut tr, sid, &o.stats, &plane, &snap);
            problem = problem.or(check_counters(
                &snap,
                &replay_snap,
                plane.windowed_events(),
                pulled,
            ));
        }
        m.op(problem);
        m.layer("trace_overhead", traced_s / plain_s);
        tr.close(op);
    });
    m.detail("ops", json!(ops));
    write_spans(args, &tr);
}

/// A scratch directory under `.perfbench/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Self {
        WorkDir(PathBuf::from(".perfbench").join(format!(
            "work-{}-{}",
            args.workload.name(),
            std::process::id()
        )))
    }

    /// A fresh, empty store directory named `name`.
    fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a finished persisted run left on disk.
struct OnDisk {
    epochs: u64,
    journal_bytes: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
}

fn on_disk(plane: &StorePlane) -> Result<OnDisk, String> {
    let epochs = plane
        .journal()
        .finished()
        .map(|(e, _)| e)
        .ok_or("journal has no end record")?;
    let checkpoints = plane.store().checkpoints().map_err(|e| e.to_string())?;
    let journal = plane.store().journal_path();
    let mut checkpoint_bytes = 0;
    for entry in std::fs::read_dir(plane.store().dir()).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path() != journal {
            checkpoint_bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(OnDisk {
        epochs,
        journal_bytes: std::fs::metadata(&journal)
            .map_err(|e| e.to_string())?
            .len(),
        checkpoint_bytes,
        checkpoints: checkpoints.len() as u64,
    })
}

/// A store directory in the state a kill two epochs before the end
/// leaves behind, ready for a restart. The kill runs once per process
/// into `killed`; every later call copies that directory's files, which
/// are the bytes a fresh kill would write (the run is deterministic).
fn killed_store(
    work: &WorkDir,
    killed: &mut Option<PathBuf>,
    out: &SimOutput,
    cfg: &ServeConfig,
    epochs: u64,
) -> Result<PathBuf, String> {
    if killed.is_none() {
        let dir = work.fresh("killed");
        kill_run(out, cfg, &dir, epochs.saturating_sub(2))?;
        *killed = Some(dir);
    }
    let from = killed.as_deref().expect("set above");
    let dir = work.fresh("restart");
    let io = |e: std::io::Error| format!("copying the killed store: {e}");
    std::fs::create_dir_all(&dir).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), dir.join(entry.file_name())).map_err(io)?;
    }
    Ok(dir)
}

/// Serve into a fresh store at `dir` that dies at `kill_epoch`; `Ok`
/// when the run ends in exactly that typed crash.
fn kill_run(out: &SimOutput, cfg: &ServeConfig, dir: &Path, kill_epoch: u64) -> Result<(), String> {
    let mut doomed = StorePlane::open(dir)
        .map_err(|e| e.to_string())?
        .kill_at_epoch(kill_epoch);
    match ServeSession::new(*cfg).store(&mut doomed).run(out) {
        Err(ServeError::Chaos(c)) if c.fault_kind == FaultKind::Crash => Ok(()),
        Err(e) => Err(format!("killed run failed otherwise: {e}")),
        Ok(_) => Err("killed run finished".into()),
    }
}

/// `persist-restart`: persisted serve, kill two epochs before the end,
/// warm restart.
pub fn run_persist(args: &Args, m: &mut Metrics, hc: &mut HostClock) {
    let (out, cfg, events) = build_input(args, m, hc);
    let work = WorkDir::new(args);
    if args.trace {
        return traced_persist(args, m, &out, &cfg, &work);
    }
    // The oracle for every persisted run, outside the timed loop.
    let reference = report_json(&replay(&out, &cfg.detect));
    let (mut serve, mut restart) = (Timings::default(), Timings::default());
    let mut disk = Vec::new();
    let mut killed = None;
    let ops = closed_loop(args.seconds, MIN_OPS, |_, timed| {
        // A report that differs from its reference fails the operation
        // but keeps its timing; an error ends the operation.
        let mut problems = Vec::new();
        let mut run = || -> Result<(), String> {
            let dir = work.fresh("run");
            let (opened, raw, adj) = hc.time(|| {
                let mut plane = StorePlane::open(&dir).map_err(|e| e.to_string())?;
                let full = ServeSession::new(cfg).store(&mut plane).run(&out);
                Ok::<_, String>((plane, full))
            });
            let (plane, full) = opened?;
            let full = full.map_err(|e| format!("persisted serve failed: {e}"))?;
            serve.push(timed, raw, adj);
            let full_json = report_json(&full.report);
            if full_json != reference {
                problems.push("persisted serve: report differs from replay's".to_string());
            }
            let written = on_disk(&plane)?;
            drop(plane);

            let dir = killed_store(&work, &mut killed, &out, &cfg, written.epochs)?;
            disk.push(written);
            let (resumed, raw, adj) = hc.time(|| {
                let mut revived = StorePlane::open(&dir).map_err(|e| e.to_string())?;
                Ok::<_, String>(ServeSession::new(cfg).store(&mut revived).run(&out))
            });
            let resumed = resumed?;
            restart.push(timed, raw, adj);
            problems.extend(check_report("restarted serve", &resumed, &full_json));
            Ok(())
        };
        if let Err(e) = run() {
            problems.push(e);
        }
        m.op((!problems.is_empty()).then(|| problems.join("; ")));
    });
    m.e2e("norm_events_per_s", events as f64 / median(&serve.adj));
    m.e2e(
        "norm_paired_events_per_s",
        events as f64 / median(&restart.adj),
    );
    m.named(
        "events_per_s",
        events as f64 / median(&serve.raw),
        "events/s",
    );
    m.named("restart_s", median(&restart.raw), "s");
    if let Some(d) = disk.first() {
        m.detail("epochs", json!(d.epochs));
        m.detail("journal_bytes", json!(d.journal_bytes));
        m.detail("checkpoint_bytes", json!(d.checkpoint_bytes));
        m.detail("checkpoints_written", json!(d.checkpoints));
    }
    m.detail("ops", json!(ops));
    m.detail("serve_s", json!(serve.raw));
    m.detail("restart_s", json!(restart.raw));
    m.detail("host_ref_s", json!(hc.refs()));
}

fn traced_persist(
    args: &Args,
    m: &mut Metrics,
    out: &SimOutput,
    cfg: &ServeConfig,
    work: &WorkDir,
) {
    let mut tr = Tracer::new();
    let base = tr.base();
    let clock = move || base.elapsed().as_secs_f64();
    let mut reference: Option<String> = None;
    let mut killed = None;
    let mut offline = Offline::new(out, args.seed);
    let ops = closed_loop(args.seconds, 1, |_, timed| {
        m.record_layers(timed);
        let op = tr.open("op", None);
        let (replay_json, replay_snap) = observed_replay(m, &mut tr, op, out, cfg);
        m.op(check_or_set(&mut reference, "replay_observed", replay_json));
        let want = reference.clone().expect("set by the first replay");
        let pulled = pull_layer(m, &mut tr, out, cfg);
        let mut run = || -> Result<(), String> {
            let dir = work.fresh("plain");
            let mut plane = StorePlane::open(&dir).map_err(|e| e.to_string())?;
            let (plain, _, plain_s) = tr.time("serve.untraced", Some(op), || {
                ServeSession::new(*cfg).store(&mut plane).run(out)
            });
            drop(plane);
            check_report("untraced persisted serve", &plain, &want).map_or(Ok(()), Err)?;

            let dir = work.fresh("run");
            let mut reg = Registry::new();
            let store = StorePlane::open(&dir).map_err(|e| e.to_string())?;
            let mut plane = TimedPlane::new(store, base);
            let (got, sid, traced_s) = tr.time("serve.run", Some(op), || {
                ServeSession::new(*cfg)
                    .clock(&clock)
                    .metrics(&mut reg)
                    .store(&mut plane)
                    .run(out)
            });
            check_report("traced persisted serve", &got, &want).map_or(Ok(()), Err)?;
            let o = got.expect("checked");
            let snap = reg.snapshot();
            serve_layers(m, &mut tr, sid, &o.stats, &plane, &snap);
            check_counters(&snap, &replay_snap, plane.windowed_events(), pulled)
                .map_or(Ok(()), Err)?;
            m.layer("trace_overhead", traced_s / plain_s);
            let written = on_disk(plane.inner())?;
            m.layer("store.journal_bytes", written.journal_bytes as f64);
            m.layer("store.checkpoint_bytes", written.checkpoint_bytes as f64);
            m.layer("store.checkpoints_written", written.checkpoints as f64);
            drop(plane);

            let dir = killed_store(work, &mut killed, out, cfg, written.epochs)?;
            let restart = tr.open("store.restart", Some(op));
            let (store, _, open_s) =
                tr.time("store.open", Some(restart), || StorePlane::open(&dir));
            let mut plane = TimedPlane::new(store.map_err(|e| e.to_string())?, base);
            let (resumed, _, _) = tr.time("serve.resume", Some(restart), || {
                ServeSession::new(*cfg).store(&mut plane).run(out)
            });
            tr.close(restart);
            for &(hook, start, end) in plane.calls() {
                tr.record(hook_span(hook), Some(restart), start, end);
            }
            check_report("restarted serve", &resumed, &report_json(&o.report))
                .map_or(Ok(()), Err)?;
            m.layer("store.open_s", open_s);
            m.layer("store.load_resume_s", plane.total_s(Hook::LoadResume));
            m.layer("store.tail_epochs", plane.inner().tail_replayed() as f64);
            Ok(())
        };
        let problem = run().err();
        m.op(problem);
        let problem = offline.traced_op(m, &mut tr, op, out, timed);
        m.op(problem);
        tr.close(op);
    });
    let (two, one) = offline.walls();
    m.named("analysis_s", median(two), "s");
    m.named("analysis_1_thread_s", median(one), "s");
    m.detail("offline", offline.summary());
    m.detail("ops", json!(ops));
    write_spans(args, &tr);
}
