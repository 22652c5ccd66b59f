//! Host-speed reference: a fixed kernel timed beside every measured call.
//!
//! The benchmark shares its host's cores, caches and memory bus with
//! other tenants, and the same call's wall time swings by 30–50 % over
//! seconds to minutes with them (CPU time tracks wall time, so the cores
//! are not taken away; they run slower). A fixed reference kernel, owned
//! by the benchmark and independent of the code under test, slows with
//! them. [`HostClock::time`] runs it right before and right after each
//! measured call and reports the call's time at the reference speed:
//! `secs × REF_NOMINAL_S / ref_s`, `ref_s` being the mean of the two
//! adjacent reference times. A change to the code under test moves the
//! adjusted time exactly as it moves the raw time; a change in the
//! host's speed moves both the call and the reference.

use std::collections::HashMap;
use std::time::Instant;

/// The reference kernel's time on the host the benchmark was written on
/// (2 vCPUs of a shared x86-64 host, median over its runs), so adjusted
/// times read as seconds on that host.
pub const REF_NOMINAL_S: f64 = 0.225;

/// Updates the kernel makes.
const REF_UPDATES: u64 = 2_400_000;
/// Key space: `REF_SENDERS × REF_TARGETS` (account, account) pairs.
const REF_SENDERS: u64 = 2048;
const REF_TARGETS: u64 = 128;

/// The reference kernel: a hash map of (sender, target) pair counts and
/// per-sender counters over a fixed SplitMix64 stream, the kind of work
/// the detector does per request. Its working set (≈ 8.5 MB) sits in the
/// shared last-level cache, where neighbours contend. Of the kernels
/// tried (a pure ALU loop, random and streaming access over 64 MB, a
/// pointer chase and binary searches over 16 MB, a 40 MB growing hash
/// map) this one tracked the serve and `replay` timings most closely.
///
/// The table is allocated per call. It runs between operations, when an
/// operation's transient memory is free for it, so it leaves the peak
/// RSS as it is; a table kept for the whole run added its 8.5 MB to the
/// peak and made the same seed's peak vary by 5 MB between runs.
/// Returns its wall time in seconds.
fn reference_s() -> f64 {
    let t0 = Instant::now();
    let mut pairs: HashMap<u64, u32> = HashMap::with_capacity((REF_SENDERS * REF_TARGETS) as usize);
    let mut sent = vec![0u32; REF_SENDERS as usize];
    let mut x: u64 = 0;
    for _ in 0..REF_UPDATES {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let from = z % REF_SENDERS;
        let to = (z >> 32) % REF_TARGETS;
        sent[from as usize] += 1;
        *pairs.entry(from << 32 | to).or_insert(0) += sent[to as usize];
    }
    std::hint::black_box((pairs.len(), sent));
    t0.elapsed().as_secs_f64()
}

/// Times calls against the host-speed reference. One per process.
#[derive(Default)]
pub struct HostClock {
    /// The reference time measured after the previous call, which is
    /// also the one before the next.
    last: Option<f64>,
    /// Every reference time measured, for the detail line.
    refs: Vec<f64>,
}

impl HostClock {
    /// A clock with no reference measured yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn reference(&mut self) -> f64 {
        let s = reference_s();
        self.refs.push(s);
        s
    }

    /// Run `f` between two reference measurements; returns its value,
    /// its raw wall time and its time at the reference speed, in seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match self.last {
            Some(r) => r,
            None => self.reference(),
        };
        let t0 = Instant::now();
        let value = f();
        let secs = t0.elapsed().as_secs_f64();
        let after = self.reference();
        self.last = Some(after);
        (value, secs, secs * REF_NOMINAL_S * 2.0 / (before + after))
    }

    /// Every reference time measured so far, in seconds.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusts_by_the_adjacent_references() {
        let mut hc = HostClock::new();
        let ((), raw, adj) = hc.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert_eq!(hc.refs().len(), 2);
        let (before, after) = (hc.refs()[0], hc.refs()[1]);
        assert!(raw >= 0.02);
        assert!((adj - raw * REF_NOMINAL_S * 2.0 / (before + after)).abs() < 1e-12);
        // The next call reuses the last reference as its "before".
        hc.time(|| ());
        assert_eq!(hc.refs().len(), 3);
    }
}
