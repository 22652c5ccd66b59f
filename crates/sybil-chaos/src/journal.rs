//! The write-ahead epoch journal: a length-prefixed, byte-stable on-disk
//! log of everything a crashed shard needs to reconstruct its
//! `realtime::state` byte-for-byte.
//!
//! ## Format
//!
//! The journal is a header followed by frames, encoded through the
//! shared [`wire`] codec: little-endian integers, floats as
//! IEEE-754 bit patterns in a `u64`, no compression, no varints, and no
//! platform-dependent field (`usize` never appears on disk), so the byte
//! stream is identical across machines — "byte-stable" is load-bearing
//! for the round-trip proptest, which compares replayed state digests
//! against digests committed through these exact bytes.
//!
//! ```text
//! header :=  magic b"SYBJ"  version:u32 (= 1)
//! frame  :=  len:u32  tag:u8  payload[len-1]
//!
//! tag 1 (epoch begin, the write-ahead record):
//!   epoch:u64  n_events:u32  n_feedback:u32
//!   event[n_events]    := seq:u64 at_secs:u64 kind:u8 record:u32
//!                         from:u32 to:u32 accepted:u8
//!   feedback[n_feedback] := seq:u64 intra:u8 due_secs:u64
//!                           f64bits[5]:u64 truth:u8
//! tag 2 (epoch commit): epoch:u64 has_digests:u8 [n:u32 digest[n]:u64]
//! tag 3 (run end):      epochs:u64 n:u32 digest[n]:u64
//! ```
//!
//! A begin record is appended *before* the epoch's shards run; the
//! matching commit follows the barrier merge. Recovery therefore always
//! finds the in-flight epoch's inputs, and every fully-committed epoch
//! carries the per-shard state digests replay is verified against.
//!
//! [`Journal`] is generic over any `Read + Write + Seek` store: a real
//! file for `repro chaos --journal`, an in-memory `Cursor<Vec<u8>>` for
//! tests and the default CLI path. Appending maintains an in-memory
//! offset index so mid-run crash replay seeks straight to a begin
//! record; [`Journal::open`] rebuilds the same index by walking an
//! existing byte stream, which is what proves the bytes alone suffice.
//! That walk is the only frame walker: [`valid_prefix`] runs it too, so
//! a store that finds a torn tail truncates exactly where `open` would
//! have stopped.

use crate::wire::{self, Reader, WireError};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use sybil_serve::fault::{EpochRecord, EpochRecordRef};

/// Journal magic: `b"SYBJ"`.
pub const MAGIC: [u8; 4] = *b"SYBJ";
/// Current format version.
pub const VERSION: u32 = 1;

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_END: u8 = 3;

/// Why a journal operation failed. Every variant is typed and carries
/// the byte offset where decoding gave up, so corruption is attributable
/// to a position, never a silent truncation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying store failed; the kind is preserved, the offset is
    /// where the journal was reading or writing.
    Io {
        /// The IO error kind reported by the store.
        kind: std::io::ErrorKind,
        /// Byte offset of the failed operation.
        offset: u64,
    },
    /// The stream does not start with the `SYBJ` magic.
    BadMagic,
    /// The header version is not one this reader understands.
    BadVersion(u32),
    /// A frame or the header ended mid-field.
    Truncated {
        /// Byte offset where the stream ran out.
        offset: u64,
    },
    /// A frame carried an unknown tag byte.
    BadTag {
        /// The offending tag.
        tag: u8,
        /// Byte offset of the frame.
        offset: u64,
    },
    /// A field held a value outside its domain (e.g. an unknown event
    /// kind discriminant).
    BadField {
        /// Byte offset of the offending field.
        offset: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { kind, offset } => {
                write!(f, "journal io error ({kind:?}) at byte {offset}")
            }
            JournalError::BadMagic => write!(f, "journal missing SYBJ magic"),
            JournalError::BadVersion(v) => write!(f, "journal version {v} unsupported"),
            JournalError::Truncated { offset } => {
                write!(f, "journal truncated at byte {offset}")
            }
            JournalError::BadTag { tag, offset } => {
                write!(f, "journal unknown frame tag {tag} at byte {offset}")
            }
            JournalError::BadField { offset } => {
                write!(f, "journal field out of domain at byte {offset}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<WireError> for JournalError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { offset } => JournalError::Truncated { offset },
            WireError::BadField { offset } => JournalError::BadField { offset },
        }
    }
}

fn io_at(offset: u64) -> impl FnOnce(std::io::Error) -> JournalError {
    move |e| JournalError::Io {
        kind: e.kind(),
        offset,
    }
}

fn put_digests(buf: &mut Vec<u8>, digests: &[u64]) {
    wire::put_u32(buf, digests.len() as u32);
    for &d in digests {
        wire::put_u64(buf, d);
    }
}

/// What the frames say, indexed for recovery.
#[derive(Debug, Default)]
struct Index {
    /// Each epoch's begin frame as `(payload offset, payload length)`.
    begins: BTreeMap<u64, (u64, usize)>,
    /// Committed per-shard digests, by epoch (`None` when the commit
    /// carried no digests).
    commits: BTreeMap<u64, Option<Vec<u64>>>,
    /// Run-end record: (epochs, final per-shard digests).
    finished: Option<(u64, Vec<u64>)>,
}

impl Index {
    /// Absorb one frame (tag + payload) that starts at byte `base`.
    fn absorb(&mut self, frame: &[u8], base: u64) -> Result<(), JournalError> {
        let mut r = Reader::new(frame, base);
        match r.u8()? {
            TAG_BEGIN => {
                // The body is decoded lazily by `read_epoch`; only the
                // frame's position is kept here.
                let epoch = r.u64()?;
                self.begins.insert(epoch, (base, frame.len()));
            }
            TAG_COMMIT => {
                let epoch = r.u64()?;
                let digests = if r.bool()? {
                    Some(r.list(8, Reader::u64)?)
                } else {
                    None
                };
                self.commits.insert(epoch, digests);
            }
            TAG_END => {
                let epochs = r.u64()?;
                self.finished = Some((epochs, r.list(8, Reader::u64)?));
            }
            tag => return Err(JournalError::BadTag { tag, offset: base }),
        }
        Ok(())
    }
}

/// Where a walk over a `SYBJ` byte stream stopped.
struct Walk {
    /// End of the last whole frame: the length of the valid prefix.
    valid: u64,
    /// Why the bytes past `valid` are not a whole frame; `None` when the
    /// walk reached the end of the stream.
    torn: Option<JournalError>,
}

/// The one frame walker: check the header, then absorb every whole
/// frame into `index`. A length prefix that is cut short or zero, or a
/// frame that runs past the end of `bytes`, stops the walk as a torn
/// tail; a whole frame that does not decode is an error.
fn walk(bytes: &[u8], index: &mut Index) -> Result<Walk, JournalError> {
    let mut r = Reader::new(bytes, 0);
    if r.array()? != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(JournalError::BadVersion(version));
    }
    while !r.done() {
        let off = r.offset();
        let torn = match r.u32() {
            Err(_) => JournalError::Truncated { offset: off },
            // A zero length can never be written.
            Ok(0) => JournalError::BadField { offset: off },
            Ok(len) => match r.take(len as usize) {
                Ok(frame) => {
                    index.absorb(frame, off + 4)?;
                    continue;
                }
                Err(_) => JournalError::Truncated { offset: off },
            },
        };
        return Ok(Walk {
            valid: off,
            torn: Some(torn),
        });
    }
    Ok(Walk {
        valid: r.offset(),
        torn: None,
    })
}

/// Length of the longest prefix of a `SYBJ` stream that ends on a whole
/// frame; bytes past it are a torn append. A bad header or a whole frame
/// that does not decode is an error. This is the walk
/// [`Journal::open`] makes, minus its strictness about the torn tail, so
/// a store can truncate to the returned length and then open.
pub fn valid_prefix(bytes: &[u8]) -> Result<u64, JournalError> {
    walk(bytes, &mut Index::default()).map(|w| w.valid)
}

/// The write-ahead epoch journal over any seekable byte store.
#[derive(Debug)]
pub struct Journal<S> {
    store: S,
    /// Next append offset (== stream length for a well-formed journal).
    end: u64,
    /// Total frame bytes appended by *this* handle (excludes the header
    /// and anything already present at `open`); the overhead bench reads
    /// this.
    appended: u64,
    index: Index,
}

impl<S: Read + Write + Seek> Journal<S> {
    /// Start a fresh journal on `store`, writing the header.
    pub fn create(mut store: S) -> Result<Self, JournalError> {
        store
            .seek(SeekFrom::Start(0))
            .and_then(|_| store.write_all(&MAGIC))
            .and_then(|_| store.write_all(&VERSION.to_le_bytes()))
            .map_err(io_at(0))?;
        Ok(Journal {
            store,
            end: (MAGIC.len() + 4) as u64,
            appended: 0,
            index: Index::default(),
        })
    }

    /// Open an existing journal, validating the header and walking every
    /// frame to rebuild the offset index. This is the path that proves
    /// the byte stream alone carries recovery: nothing from the writing
    /// process survives except the bytes. A torn tail is an error here;
    /// see [`valid_prefix`] for the repair.
    pub fn open(mut store: S) -> Result<Self, JournalError> {
        let mut bytes = Vec::new();
        store
            .seek(SeekFrom::Start(0))
            .and_then(|_| store.read_to_end(&mut bytes))
            .map_err(io_at(0))?;
        let mut index = Index::default();
        let walked = walk(&bytes, &mut index)?;
        if let Some(torn) = walked.torn {
            return Err(torn);
        }
        Ok(Journal {
            store,
            end: walked.valid,
            appended: 0,
            index,
        })
    }

    /// Append one frame (tag already in `payload[0]`), returning the
    /// payload's offset.
    fn append(&mut self, payload: &[u8]) -> Result<u64, JournalError> {
        let off = self.end;
        let len = payload.len() as u32;
        self.store
            .seek(SeekFrom::Start(off))
            .and_then(|_| self.store.write_all(&len.to_le_bytes()))
            .and_then(|_| self.store.write_all(payload))
            .map_err(io_at(off))?;
        let frame_len = 4 + payload.len() as u64;
        self.end += frame_len;
        self.appended += frame_len;
        Ok(off + 4)
    }

    /// Write the epoch-begin (write-ahead) record.
    pub fn append_begin(&mut self, rec: EpochRecordRef<'_>) -> Result<(), JournalError> {
        let mut buf = Vec::with_capacity(
            17 + rec.events.len() * wire::EVENT_LEN + rec.feedback.len() * wire::FEEDBACK_LEN,
        );
        wire::put_u8(&mut buf, TAG_BEGIN);
        wire::put_u64(&mut buf, rec.epoch);
        wire::put_u32(&mut buf, rec.events.len() as u32);
        wire::put_u32(&mut buf, rec.feedback.len() as u32);
        for (ev, det) in rec.events.iter().zip(rec.details.iter()) {
            wire::put_event(&mut buf, ev, det);
        }
        for fb in rec.feedback {
            wire::put_feedback(&mut buf, fb);
        }
        let base = self.append(&buf)?;
        self.index.begins.insert(rec.epoch, (base, buf.len()));
        Ok(())
    }

    /// Write the epoch-commit record, with per-shard digests when taken.
    pub fn append_commit(
        &mut self,
        epoch: u64,
        digests: Option<&[u64]>,
    ) -> Result<(), JournalError> {
        let mut buf = Vec::with_capacity(14 + digests.map_or(0, |d| 4 + d.len() * 8));
        wire::put_u8(&mut buf, TAG_COMMIT);
        wire::put_u64(&mut buf, epoch);
        wire::put_bool(&mut buf, digests.is_some());
        if let Some(d) = digests {
            put_digests(&mut buf, d);
        }
        self.append(&buf)?;
        self.index.commits.insert(epoch, digests.map(<[u64]>::to_vec));
        Ok(())
    }

    /// Write the run-end record with the final per-shard state digests.
    pub fn append_end(&mut self, epochs: u64, digests: &[u64]) -> Result<(), JournalError> {
        let mut buf = Vec::with_capacity(13 + digests.len() * 8);
        wire::put_u8(&mut buf, TAG_END);
        wire::put_u64(&mut buf, epochs);
        put_digests(&mut buf, digests);
        self.append(&buf)?;
        self.index.finished = Some((epochs, digests.to_vec()));
        Ok(())
    }

    /// Decode epoch `epoch`'s begin record, or `None` if the journal has
    /// no record for it.
    pub fn read_epoch(&mut self, epoch: u64) -> Result<Option<EpochRecord>, JournalError> {
        let Some(&(base, len)) = self.index.begins.get(&epoch) else {
            return Ok(None);
        };
        let mut frame = vec![0u8; len];
        self.store
            .seek(SeekFrom::Start(base))
            .and_then(|_| self.store.read_exact(&mut frame))
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => JournalError::Truncated { offset: base },
                kind => JournalError::Io { kind, offset: base },
            })?;
        let mut r = Reader::new(&frame, base);
        let tag = r.u8()?;
        if tag != TAG_BEGIN {
            return Err(JournalError::BadTag { tag, offset: base });
        }
        if r.u64()? != epoch {
            return Err(JournalError::BadField { offset: base });
        }
        let n_events = r.count(wire::EVENT_LEN)?;
        let n_feedback = r.count(wire::FEEDBACK_LEN)?;
        let mut events = Vec::with_capacity(n_events);
        let mut details = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let (ev, det) = wire::get_event(&mut r)?;
            events.push(ev);
            details.push(det);
        }
        let mut feedback = Vec::with_capacity(n_feedback);
        for _ in 0..n_feedback {
            feedback.push(wire::get_feedback(&mut r)?);
        }
        Ok(Some(EpochRecord {
            epoch,
            events,
            details,
            feedback,
        }))
    }

    /// Whether `epoch` has both its begin and commit records — i.e. the
    /// barrier fully landed before any crash. Warm restart replays
    /// exactly the committed tail epochs after a checkpoint; an epoch
    /// with a begin but no commit was in flight when the process died
    /// and is re-run live from the stream instead.
    pub fn committed(&self, epoch: u64) -> bool {
        self.index.begins.contains_key(&epoch) && self.index.commits.contains_key(&epoch)
    }

    /// The digest committed for `(epoch, shard)`, when one was journaled.
    pub fn committed_digest(&self, epoch: u64, shard: usize) -> Option<u64> {
        self.index
            .commits
            .get(&epoch)
            .and_then(|d| d.as_ref())
            .and_then(|d| d.get(shard).copied())
    }

    /// The run-end record, when the run completed: `(epochs, digests)`.
    pub fn finished(&self) -> Option<(u64, &[u64])> {
        self.index
            .finished
            .as_ref()
            .map(|(e, d)| (*e, d.as_slice()))
    }

    /// Epochs with a begin record.
    pub fn epochs_journaled(&self) -> u64 {
        self.index.begins.len() as u64
    }

    /// Frame bytes appended through this handle (header excluded).
    pub fn bytes_appended(&self) -> u64 {
        self.appended
    }

    /// Total journal length in bytes, header included.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// Consume the journal, returning the underlying store.
    pub fn into_store(self) -> S {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::Timestamp;
    use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
    use std::io::Cursor;
    use sybil_features::FeatureVector;
    use sybil_serve::fault::FeedbackRecord;

    fn sample_epoch(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            events: vec![
                StreamEvent {
                    seq: 7 + epoch,
                    at: Timestamp(3600),
                    kind: StreamEventKind::Sent(4),
                },
                StreamEvent {
                    seq: 8 + epoch,
                    at: Timestamp(4000),
                    kind: StreamEventKind::Decided(4),
                },
            ],
            details: vec![
                EventDetail {
                    from: 1,
                    to: 2,
                    accepted: false,
                },
                EventDetail {
                    from: 1,
                    to: 2,
                    accepted: true,
                },
            ],
            feedback: vec![FeedbackRecord {
                seq: 5,
                intra: 1,
                due: Timestamp(9000),
                features: FeatureVector {
                    inv_freq_1h: 1.5,
                    inv_freq_400h: 0.25,
                    outgoing_accept_ratio: 0.5,
                    incoming_accept_ratio: 1.0,
                    clustering_coefficient: -0.0,
                },
                truth: true,
            }],
        }
    }

    fn write_sample() -> Vec<u8> {
        let mut j = Journal::create(Cursor::new(Vec::new())).unwrap();
        for e in 0..3u64 {
            let rec = sample_epoch(e);
            j.append_begin(EpochRecordRef {
                epoch: e,
                events: &rec.events,
                details: &rec.details,
                feedback: &rec.feedback,
            })
            .unwrap();
            j.append_commit(e, Some(&[10 + e, 20 + e])).unwrap();
        }
        j.append_end(3, &[111, 222]).unwrap();
        j.into_store().into_inner()
    }

    #[test]
    fn round_trips_epoch_records_through_bytes() {
        let bytes = write_sample();
        let mut j = Journal::open(Cursor::new(bytes)).unwrap();
        assert_eq!(j.epochs_journaled(), 3);
        for e in 0..3u64 {
            let rec = j.read_epoch(e).unwrap().unwrap();
            let want = sample_epoch(e);
            assert_eq!(rec.events, want.events);
            assert_eq!(rec.details, want.details);
            assert_eq!(rec.feedback, want.feedback);
            assert_eq!(j.committed_digest(e, 0), Some(10 + e));
            assert_eq!(j.committed_digest(e, 1), Some(20 + e));
            assert_eq!(j.committed_digest(e, 2), None);
        }
        assert!(j.read_epoch(3).unwrap().is_none());
        assert_eq!(j.finished(), Some((3, &[111u64, 222][..])));
    }

    #[test]
    fn byte_stream_is_stable() {
        // Two identical writes produce identical bytes — the format has
        // no timestamps, no platform-dependent widths, no map ordering.
        assert_eq!(write_sample(), write_sample());
    }

    #[test]
    fn truncation_is_typed_not_silent() {
        let bytes = write_sample();
        let cut = bytes.len() - 3;
        let err = Journal::open(Cursor::new(bytes[..cut].to_vec())).unwrap_err();
        assert!(matches!(err, JournalError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn corrupt_event_count_is_typed_not_an_allocation() {
        // Flip the high byte of epoch 0's `n_events`: the begin frame
        // still walks, but it now claims ~4e9 events it cannot hold.
        let mut bytes = write_sample();
        let n_events_at = 8 + 4 + 1 + 8; // header, frame len, tag, epoch
        bytes[n_events_at + 3] ^= 0xff;
        let mut j = Journal::open(Cursor::new(bytes)).unwrap();
        let err = j.read_epoch(0).err();
        assert_eq!(
            err,
            Some(JournalError::BadField {
                offset: n_events_at as u64
            })
        );
    }

    #[test]
    fn valid_prefix_stops_at_the_torn_tail() {
        let whole = write_sample();
        let end = whole.len() as u64;
        assert_eq!(valid_prefix(&whole), Ok(end));
        // A frame cut mid-length and a frame cut mid-payload both end
        // the valid prefix where the torn frame starts; `open` rejects
        // the same bytes.
        for torn in [&[7u8, 0][..], &[100, 0, 0, 0, 1, 2]] {
            let mut bytes = whole.clone();
            bytes.extend_from_slice(torn);
            assert_eq!(valid_prefix(&bytes), Ok(end));
            assert_eq!(
                Journal::open(Cursor::new(bytes)).unwrap_err(),
                JournalError::Truncated { offset: end }
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert_eq!(
            Journal::open(Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec())).unwrap_err(),
            JournalError::BadMagic
        );
        let mut bytes = write_sample();
        bytes[4] = 9;
        assert_eq!(
            Journal::open(Cursor::new(bytes)).unwrap_err(),
            JournalError::BadVersion(9)
        );
    }
}
