//! A fault plane that forwards every hook to an inner plane and times it.
//!
//! Its `enabled()` always answers true, so the coordinator calls every
//! hook. Over `NoFaults` it only marks each epoch's `epoch_begin` →
//! `epoch_commit` window; over `StorePlane` (enabled anyway) it also
//! measures the journal, checkpoint and resume work behind each hook.

use std::cell::Cell;
use std::time::Instant;
use sybil_serve::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultPlane, ResumeState, SessionCheckpoint, ShardFault,
};

/// The hooks whose time is reported on their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    /// `epoch_begin`: the write-ahead journal append.
    EpochBegin,
    /// `epoch_commit`: the journal commit record.
    EpochCommit,
    /// `checkpoint`: encoding and writing a checkpoint.
    Checkpoint,
    /// `run_end`: the journal's end record.
    RunEnd,
    /// `load_resume`: reading the checkpoint and journal tail back.
    LoadResume,
    /// Every other hook (per-shard queries, replay reads).
    Other,
}

/// One epoch's window, in seconds since the plane's base instant.
#[derive(Clone, Copy, Debug)]
pub struct EpochWindow {
    /// Events in the epoch.
    pub events: usize,
    /// Entry into `epoch_begin`.
    pub begin_s: f64,
    /// Return from `epoch_commit`.
    pub end_s: f64,
}

/// Times every hook of `P`; see the module docs.
pub struct TimedPlane<P> {
    inner: P,
    base: Instant,
    /// `(hook, start_s, end_s)` of every call to a `&mut self` hook.
    calls: Vec<(Hook, f64, f64)>,
    /// Seconds spent in the `&self` query hooks.
    query_s: Cell<f64>,
    windows: Vec<EpochWindow>,
}

impl<P: FaultPlane> TimedPlane<P> {
    /// Wrap `inner`, timing from `base`.
    pub fn new(inner: P, base: Instant) -> Self {
        TimedPlane {
            inner,
            base,
            calls: Vec::new(),
            query_s: Cell::new(0.0),
            windows: Vec::new(),
        }
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Completed epoch windows, in epoch order.
    pub fn windows(&self) -> &[EpochWindow] {
        &self.windows
    }

    /// Events in all epochs that reached `epoch_begin`.
    pub fn windowed_events(&self) -> usize {
        self.windows.iter().map(|w| w.events).sum()
    }

    /// Every timed `&mut self` hook call.
    pub fn calls(&self) -> &[(Hook, f64, f64)] {
        &self.calls
    }

    /// Total seconds spent in `hook`.
    pub fn total_s(&self, hook: Hook) -> f64 {
        let calls: f64 = self
            .calls
            .iter()
            .filter(|c| c.0 == hook)
            .map(|c| c.2 - c.1)
            .sum();
        if hook == Hook::Other {
            calls + self.query_s.get()
        } else {
            calls
        }
    }

    fn now(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    fn timed<T>(&mut self, hook: Hook, f: impl FnOnce(&mut P) -> T) -> T {
        let t0 = self.now();
        let v = f(&mut self.inner);
        let t1 = self.now();
        self.calls.push((hook, t0, t1));
        v
    }

    fn query<T>(&self, f: impl FnOnce(&P) -> T) -> T {
        let t0 = self.now();
        let v = f(&self.inner);
        self.query_s.set(self.query_s.get() + (self.now() - t0));
        v
    }
}

impl<P: FaultPlane> FaultPlane for TimedPlane<P> {
    fn enabled(&self) -> bool {
        true
    }

    fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        let begin_s = self.now();
        self.windows.push(EpochWindow {
            events: rec.events.len(),
            begin_s,
            end_s: f64::NAN,
        });
        self.timed(Hook::EpochBegin, |p| p.epoch_begin(rec))
    }

    fn queue_clamp(&self, epoch: u64, shard: usize) -> Option<usize> {
        self.query(|p| p.queue_clamp(epoch, shard))
    }

    fn shard_fault(&self, epoch: u64, shard: usize) -> ShardFault {
        self.query(|p| p.shard_fault(epoch, shard))
    }

    fn deliver_order(&self, epoch: u64, shards: usize) -> Option<Vec<usize>> {
        self.query(|p| p.deliver_order(epoch, shards))
    }

    fn wants_digests(&self, epoch: u64) -> bool {
        self.query(|p| p.wants_digests(epoch))
    }

    fn epoch_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), ChaosError> {
        let r = self.timed(Hook::EpochCommit, |p| p.epoch_commit(epoch, digests));
        let end_s = self.now();
        if let Some(w) = self.windows.last_mut() {
            w.end_s = end_s;
        }
        r
    }

    fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        self.timed(Hook::Other, |p| p.replay_epoch(epoch))
    }

    fn committed_digest(&mut self, epoch: u64, shard: usize) -> Option<u64> {
        self.timed(Hook::Other, |p| p.committed_digest(epoch, shard))
    }

    fn run_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), ChaosError> {
        self.timed(Hook::RunEnd, |p| p.run_end(epochs, digests))
    }

    fn wants_checkpoint(&self, epoch: u64) -> bool {
        self.query(|p| p.wants_checkpoint(epoch))
    }

    fn checkpoint(&mut self, cp: &SessionCheckpoint) -> Result<(), ChaosError> {
        self.timed(Hook::Checkpoint, |p| p.checkpoint(cp))
    }

    fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
        self.timed(Hook::LoadResume, |p| p.load_resume())
    }
}
