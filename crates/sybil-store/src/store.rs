//! [`SnapshotStore`]: versioned checkpoints on disk, and [`StorePlane`]:
//! the `FaultPlane` implementation that makes a `ServeSession` durable.
//!
//! A store directory holds numbered checkpoint files plus the write-ahead
//! epoch journal:
//!
//! ```text
//! store/
//!   checkpoint-00000004.sybs   # session state after 4 completed epochs
//!   checkpoint-00000008.sybs
//!   journal.sybj               # write-ahead epoch journal (SYBJ frames)
//!   store.lock                 # empty; flock'd by the one live StorePlane
//! ```
//!
//! [`SnapshotStore::latest`] walks checkpoints newest-first and skips any
//! that fail to decode (torn by a crash predating atomic-rename, bit rot,
//! a half-migrated version), so recovery degrades to an older checkpoint
//! plus a longer journal tail rather than refusing to start.
//!
//! [`StorePlane`] rides the serving coordinator's fault-plane hooks:
//! `epoch_begin`/`epoch_commit` append to the journal (write-ahead, then
//! commit after the barrier merge), `wants_checkpoint`/`checkpoint`
//! persist a full [`SessionCheckpoint`] every `checkpoint_every` epochs,
//! and `load_resume` assembles a [`ResumeState`] from the newest readable
//! checkpoint plus every *committed* journal epoch after it. An epoch
//! with a begin record but no commit was in flight when the process died;
//! it is not replayed — the engine re-runs it live from the stream, which
//! produces the identical bytes (the begin record exists precisely so
//! crash replay inside an epoch stays possible for shard faults).
//!
//! One store has one writer: [`StorePlane`] holds an exclusive lock on
//! `store.lock` for its lifetime, and a second plane over the same
//! directory fails with [`StoreError::Locked`] instead of interleaving
//! journal frames. The OS drops the lock when the holder dies, so a
//! killed process never blocks its own restart.
//!
//! The `kill_at_epoch` knob simulates the process dying at an epoch
//! boundary: the write-ahead record lands, then the hook returns a typed
//! crash error, leaving the on-disk state exactly as a real `SIGKILL`
//! between the journal append and the barrier would. The restart
//! proptests drive this at arbitrary epochs and require byte-identity
//! with the uninterrupted run.

use crate::error::StoreError;
use crate::format;
use std::fs::File;
use std::path::{Path, PathBuf};
use sybil_chaos::{Journal, DEFAULT_DIGEST_CADENCE};
use sybil_serve::fault::{
    ChaosError, EpochRecord, EpochRecordRef, FaultKind, FaultPlane, ResumeState,
    SessionCheckpoint,
};

/// Default checkpoint cadence: persist the full session state every
/// 32nd epoch barrier. A checkpoint is O(entire session state) — state
/// snapshot, encode, write — while an epoch of journal tail replay
/// costs roughly one epoch of live serving, so sparse checkpoints buy a
/// large write-amortization win for a small bounded restart-latency
/// cost (at most `checkpoint_every - 1` epochs of tail to replay).
/// `restart_bench` gates the checkpoint overhead at <5% of the
/// fault-free critical path at exactly this default. Lower the cadence
/// (`with_cadence`) when restart latency matters more than throughput —
/// the `repro restart` drill runs at cadence 1.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 32;

/// A directory of versioned `SYBS` checkpoints plus the epoch journal.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        format::ensure_dir(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal file's path inside this store.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.sybj")
    }

    /// Persist `cp` atomically as `checkpoint-{epochs:08}.sybs`,
    /// returning the final path.
    pub fn save(&self, cp: &SessionCheckpoint) -> Result<PathBuf, StoreError> {
        let path = self.dir.join(format::checkpoint_name(cp.epochs));
        format::write_atomic(&path, &format::encode_checkpoint(cp))?;
        Ok(path)
    }

    /// Epoch counts of every checkpoint file present, ascending.
    pub fn checkpoints(&self) -> Result<Vec<u64>, StoreError> {
        Ok(format::list_checkpoints(&self.dir)?
            .into_iter()
            .map(|(e, _)| e)
            .collect())
    }

    /// Load the checkpoint taken after exactly `epochs` epochs.
    pub fn load(&self, epochs: u64) -> Result<SessionCheckpoint, StoreError> {
        let path = self.dir.join(format::checkpoint_name(epochs));
        format::decode_checkpoint(&format::read_file(&path)?)
    }

    /// The newest checkpoint that decodes cleanly, or `None` when the
    /// store holds no readable checkpoint. Corrupt files are skipped
    /// (recovery falls back to an older checkpoint and replays a longer
    /// journal tail), not fatal.
    pub fn latest(&self) -> Result<Option<SessionCheckpoint>, StoreError> {
        let mut files = format::list_checkpoints(&self.dir)?;
        while let Some((_, path)) = files.pop() {
            let Ok(bytes) = format::read_file(&path) else {
                continue;
            };
            if let Ok(cp) = format::decode_checkpoint(&bytes) {
                return Ok(Some(cp));
            }
        }
        Ok(None)
    }
}

/// The durable fault plane: write-ahead journal + periodic checkpoints +
/// warm restart, all through the hooks the coordinator already consults.
pub struct StorePlane {
    store: SnapshotStore,
    /// The held single-writer lock; released on drop.
    _lock: File,
    journal: Journal<File>,
    checkpoint_every: u64,
    kill_at: Option<u64>,
    /// `Some(epochs)` when the journal already carried a run-end record
    /// at open — a restart of a finished run must not append a second.
    finished_at_open: Option<u64>,
    resumed_from: Option<u64>,
    tail_replayed: u64,
}

impl StorePlane {
    /// Open a durable plane over `dir` at the default checkpoint cadence.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::with_cadence(dir, DEFAULT_CHECKPOINT_EVERY)
    }

    /// [`open`](Self::open) with a checkpoint every `checkpoint_every`
    /// epochs (0 = never). Journal commits carry per-shard digests every
    /// [`DEFAULT_DIGEST_CADENCE`] epochs, as the chaos plane's do. Fails
    /// with [`StoreError::Locked`] while another plane holds `dir`.
    pub fn with_cadence(
        dir: impl Into<PathBuf>,
        checkpoint_every: u64,
    ) -> Result<Self, StoreError> {
        let store = SnapshotStore::open(dir)?;
        let lock = format::lock_dir(store.dir())?;
        let journal = format::open_or_create_journal(&store.journal_path())?;
        let finished_at_open = journal.finished().map(|(epochs, _)| epochs);
        Ok(StorePlane {
            store,
            _lock: lock,
            journal,
            checkpoint_every,
            kill_at: None,
            finished_at_open,
            resumed_from: None,
            tail_replayed: 0,
        })
    }

    /// Simulate the process dying at epoch `epoch`: the write-ahead
    /// record is journaled, then the run aborts with a typed crash error
    /// — on-disk state is exactly what a kill between the journal append
    /// and the barrier leaves behind.
    pub fn kill_at_epoch(mut self, epoch: u64) -> Self {
        self.kill_at = Some(epoch);
        self
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The journal (byte counts, committed digests).
    pub fn journal(&self) -> &Journal<File> {
        &self.journal
    }

    /// Epoch count of the checkpoint this run resumed from, when it
    /// warm-restarted.
    pub fn resumed_from(&self) -> Option<u64> {
        self.resumed_from
    }

    /// Committed journal epochs replayed after the checkpoint on resume.
    pub fn tail_replayed(&self) -> u64 {
        self.tail_replayed
    }

    fn store_err(epoch: u64) -> ChaosError {
        ChaosError {
            epoch,
            shard: None,
            fault_kind: FaultKind::Journal,
        }
    }
}

impl FaultPlane for StorePlane {
    fn enabled(&self) -> bool {
        true
    }

    fn epoch_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), ChaosError> {
        self.journal
            .append_begin(rec)
            .map_err(|_| Self::store_err(rec.epoch))?;
        if self.kill_at == Some(rec.epoch) {
            return Err(ChaosError {
                epoch: rec.epoch,
                shard: None,
                fault_kind: FaultKind::Crash,
            });
        }
        Ok(())
    }

    fn wants_digests(&self, epoch: u64) -> bool {
        epoch.is_multiple_of(DEFAULT_DIGEST_CADENCE)
    }

    fn epoch_commit(&mut self, epoch: u64, digests: Option<&[u64]>) -> Result<(), ChaosError> {
        self.journal
            .append_commit(epoch, digests)
            .map_err(|_| Self::store_err(epoch))
    }

    fn replay_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, ChaosError> {
        self.journal
            .read_epoch(epoch)
            .map_err(|_| Self::store_err(epoch))
    }

    fn committed_digest(&mut self, epoch: u64, shard: usize) -> Option<u64> {
        self.journal.committed_digest(epoch, shard)
    }

    fn run_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), ChaosError> {
        // A warm restart of an already-finished run replays to the same
        // end; the journal already carries this exact record.
        if self.finished_at_open == Some(epochs) {
            return Ok(());
        }
        self.journal
            .append_end(epochs, digests)
            .map_err(|_| Self::store_err(epochs))
    }

    fn wants_checkpoint(&self, epoch: u64) -> bool {
        self.checkpoint_every != 0 && (epoch + 1).is_multiple_of(self.checkpoint_every)
    }

    fn checkpoint(&mut self, cp: &SessionCheckpoint) -> Result<(), ChaosError> {
        self.store
            .save(cp)
            .map(|_| ())
            .map_err(|_| Self::store_err(cp.epochs))
    }

    fn load_resume(&mut self) -> Result<Option<ResumeState>, ChaosError> {
        let latest = self.store.latest().map_err(|_| Self::store_err(0))?;
        let Some(checkpoint) = latest else {
            return Ok(None);
        };
        let mut tail = Vec::new();
        let mut epoch = checkpoint.epochs;
        while self.journal.committed(epoch) {
            let rec = self
                .journal
                .read_epoch(epoch)
                .map_err(|_| Self::store_err(epoch))?;
            let Some(rec) = rec else { break };
            tail.push(rec);
            epoch += 1;
        }
        self.resumed_from = Some(checkpoint.epochs);
        self.tail_replayed = tail.len() as u64;
        Ok(Some(ResumeState { checkpoint, tail }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::{NodeId, Timestamp};
    use sybil_core::realtime::{Detection, ReplayCounters};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sybil-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_checkpoint(epochs: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            epochs,
            shards: Vec::new(),
            folded_edges: vec![(NodeId(1), NodeId(2), Timestamp(60))],
            staged_edges: Vec::new(),
            tagged: vec![(
                3,
                Detection {
                    account: NodeId(5),
                    at: Timestamp(120),
                    correct: false,
                },
            )],
            carry_feedback: Vec::new(),
            totals: ReplayCounters {
                events_processed: epochs * 10,
                ..ReplayCounters::default()
            },
        }
    }

    #[test]
    fn save_load_latest_round_trip() {
        let dir = tmpdir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.latest().unwrap(), None);
        store.save(&tiny_checkpoint(2)).unwrap();
        store.save(&tiny_checkpoint(5)).unwrap();
        assert_eq!(store.checkpoints().unwrap(), vec![2, 5]);
        assert_eq!(store.load(2).unwrap(), tiny_checkpoint(2));
        assert_eq!(store.latest().unwrap(), Some(tiny_checkpoint(5)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_skips_corrupt_checkpoints() {
        let dir = tmpdir("corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&tiny_checkpoint(1)).unwrap();
        let newest = store.save(&tiny_checkpoint(9)).unwrap();
        // Flip a byte in the newest file: recovery must fall back to the
        // older checkpoint instead of failing or trusting bad bytes.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(store.latest().unwrap(), Some(tiny_checkpoint(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_cadences_are_sparse_checkpoints_and_periodic_digests() {
        let dir = tmpdir("cadence");
        let plane = StorePlane::open(&dir).unwrap();
        assert!(!plane.wants_checkpoint(0));
        assert!(plane.wants_checkpoint(DEFAULT_CHECKPOINT_EVERY - 1));
        assert!(plane.wants_digests(0));
        assert!(!plane.wants_digests(1));
        assert!(plane.wants_digests(DEFAULT_DIGEST_CADENCE));
        drop(plane);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plane_journals_and_checkpoints_through_the_hooks() {
        let dir = tmpdir("plane");
        {
            let mut plane = StorePlane::with_cadence(&dir, 1).unwrap();
            assert!(plane.enabled());
            assert!(plane.wants_checkpoint(0), "cadence 1 checkpoints every epoch");
            assert!(plane.load_resume().unwrap().is_none(), "fresh store is cold");
            plane
                .epoch_begin(EpochRecordRef {
                    epoch: 0,
                    events: &[],
                    details: &[],
                    feedback: &[],
                })
                .unwrap();
            plane.epoch_commit(0, None).unwrap();
            plane.checkpoint(&tiny_checkpoint(1)).unwrap();
        }
        // A fresh plane over the same directory resumes from disk alone.
        let mut plane = StorePlane::open(&dir).unwrap();
        let resume = plane.load_resume().unwrap().unwrap();
        assert_eq!(resume.checkpoint, tiny_checkpoint(1));
        assert_eq!(resume.tail.len(), 0, "no committed epochs past the checkpoint");
        assert_eq!(plane.resumed_from(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_collects_only_committed_epochs() {
        let dir = tmpdir("tail");
        {
            let mut plane = StorePlane::open(&dir).unwrap();
            let empty = |epoch| EpochRecordRef {
                epoch,
                events: &[],
                details: &[],
                feedback: &[],
            };
            plane.epoch_begin(empty(0)).unwrap();
            plane.epoch_commit(0, None).unwrap();
            plane.checkpoint(&tiny_checkpoint(1)).unwrap();
            plane.epoch_begin(empty(1)).unwrap();
            plane.epoch_commit(1, None).unwrap();
            // Epoch 2 begins but never commits: the in-flight epoch.
            plane.epoch_begin(empty(2)).unwrap();
        }
        let mut plane = StorePlane::open(&dir).unwrap();
        let resume = plane.load_resume().unwrap().unwrap();
        assert_eq!(resume.checkpoint.epochs, 1);
        assert_eq!(resume.tail.len(), 1, "only epoch 1 is committed");
        assert_eq!(resume.tail[0].epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_writer_is_locked_out_until_the_first_drops() {
        let dir = tmpdir("lock");
        let first = StorePlane::open(&dir).unwrap();
        assert_eq!(StorePlane::open(&dir).err(), Some(StoreError::Locked));
        assert_eq!(
            StorePlane::with_cadence(&dir, 1).err(),
            Some(StoreError::Locked)
        );
        drop(first);
        let reopened = StorePlane::open(&dir).unwrap();
        assert_eq!(std::fs::metadata(dir.join("store.lock")).unwrap().len(), 0);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_epoch_is_a_typed_crash_after_the_journal_write() {
        let dir = tmpdir("kill");
        let mut plane = StorePlane::open(&dir).unwrap().kill_at_epoch(0);
        let err = plane
            .epoch_begin(EpochRecordRef {
                epoch: 0,
                events: &[],
                details: &[],
                feedback: &[],
            })
            .unwrap_err();
        assert_eq!(
            err,
            ChaosError {
                epoch: 0,
                shard: None,
                fault_kind: FaultKind::Crash
            }
        );
        assert_eq!(
            plane.journal().epochs_journaled(),
            1,
            "write-ahead record landed before the kill"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
