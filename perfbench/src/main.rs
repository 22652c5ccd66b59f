//! perfbench — the repository's seeded benchmark.
//!
//! One invocation runs one workload in its own process, so the process's
//! peak RSS (`VmHWM`) is that workload's:
//!
//! ```text
//! perfbench --workload <sim-dense|persist-restart>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! It builds the workload's input from `--seed` (timed as `setup_s`),
//! then repeats the workload's operation, one at a time, until
//! `--seconds` have passed, checking every output against a reference.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics and writes its spans to
//! `.perfbench/`. `--smoke` shrinks every input to a tiny size for the
//! package's own tests. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds the seed, input sizes and the workload's own named figures.
//!
//! Every layer is measured from outside, around calls into the crates'
//! public functions. See `README.md` for the workload and metric map.

#![forbid(unsafe_code)]

mod hostspeed;
mod metrics;
mod offline;
mod plane;
mod serving;
mod trace;

use hostspeed::HostClock;
use metrics::Metrics;
use std::time::Instant;

/// The two workloads; each stresses a different layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1-shard serve of a dense simulated graph: shard work dominates.
    SimDense,
    /// 2-shard serve through the journal/checkpoint store, then a kill
    /// and a warm restart; its traced run also times the paper's offline
    /// measurement pass (graph, features, defenses).
    PersistRestart,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sim-dense" => Workload::SimDense,
            "persist-restart" => Workload::PersistRestart,
            _ => return None,
        })
    }

    /// The workload's name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimDense => "sim-dense",
            Workload::PersistRestart => "persist-restart",
        }
    }

    /// Worker threads (`RENREN_THREADS`) the workload runs with.
    fn threads(self) -> usize {
        match self {
            Workload::SimDense => 1,
            Workload::PersistRestart => 2,
        }
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time after set-up, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for the package's own tests.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be a finite, non-negative number"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Build the workload's input at least `SETUP_MIN_REPS` times and for at
/// least `SETUP_MIN_S` seconds (at most `SETUP_MAX_REPS` times), keeping
/// the last build; `setup_s` is the median build time at the host-speed
/// reference (see [`hostspeed`]). Only one build is alive at a time.
/// `smoke` builds once.
pub fn setup<T>(
    m: &mut Metrics,
    hc: &mut HostClock,
    smoke: bool,
    mut build: impl FnMut() -> T,
) -> T {
    const SETUP_MIN_REPS: usize = 3;
    const SETUP_MAX_REPS: usize = 25;
    const SETUP_MIN_S: f64 = 1.0;
    let (mut raw, mut adj): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut kept = None;
    loop {
        drop(kept.take());
        let (built, secs, at_ref) = hc.time(&mut build);
        kept = Some(built);
        raw.push(secs);
        adj.push(at_ref);
        let enough = raw.len() >= SETUP_MIN_REPS && raw.iter().sum::<f64>() >= SETUP_MIN_S;
        if smoke || enough || raw.len() >= SETUP_MAX_REPS {
            break;
        }
    }
    m.e2e("setup_s", metrics::median(&adj));
    m.named("setup_raw_s", metrics::median(&raw), "s");
    m.detail("setup_reps", serde_json::json!(raw.len()));
    kept.expect("at least one build")
}

/// Run `op` one call at a time: first one untimed warm-up call
/// (`op(0, false)`: caches fill and first-touch page faults are paid),
/// then timed calls (`op(i, true)`) until `seconds` have passed, at least
/// `min_ops` of them. Returns the number of timed calls.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize, bool)) -> usize {
    op(0, false);
    let start = Instant::now();
    let mut n = 0;
    while n < min_ops || start.elapsed().as_secs_f64() < seconds {
        n += 1;
        op(n, true);
    }
    n
}

/// glibc's malloc gives threads their own arenas and keeps freed memory
/// in them, so with its default arena count the same seed's `VmHWM`
/// varies by tens of percent from run to run. The benchmark pins the
/// count to its thread cap by re-running itself with `MALLOC_ARENA_MAX`
/// set; an explicit setting from the environment is kept.
const ARENA_MAX: &str = "2";

fn pin_malloc_arenas() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os("MALLOC_ARENA_MAX").is_some() {
        return;
    }
    let err = match std::env::current_exe() {
        Ok(exe) => std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_ARENA_MAX", ARENA_MAX)
            .exec(),
        Err(e) => e,
    };
    eprintln!("perfbench: cannot re-run with MALLOC_ARENA_MAX={ARENA_MAX}: {err}");
    std::process::exit(2);
}

fn main() {
    pin_malloc_arenas();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Set before any worker thread exists; every parallel map in the
    // crates reads it per call.
    std::env::set_var(
        osn_graph::par::THREADS_ENV,
        args.workload.threads().to_string(),
    );

    let mut m = Metrics::new(&args);
    let mut hc = HostClock::new();
    match args.workload {
        Workload::SimDense => serving::run_plain(&args, &mut m, &mut hc),
        Workload::PersistRestart => serving::run_persist(&args, &mut m, &mut hc),
    }
    let peak = peak_rss_bytes();
    m.e2e("peak_rss_mb", peak as f64 / (1024.0 * 1024.0));
    m.detail("peak_rss_bytes", serde_json::json!(peak));
    if let Some(accounts) = m.accounts() {
        m.detail(
            "peak_rss_bytes_per_account",
            serde_json::json!(peak as f64 / accounts as f64),
        );
    }
    // A finished run exits 0 either way: the result line's `correct`
    // carries the verdict.
    m.finish();
}
