//! The one little-endian wire codec behind every byte this workspace
//! puts on disk: the `SYBJ` epoch journal ([`crate::journal`]) and
//! `sybil-store`'s `SYBS` checkpoints both encode and decode through it.
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns
//! written as `u64`; booleans are one byte that must be 0 or 1; `usize`
//! never appears on disk. The writer is a set of `put_*` helpers onto a
//! `Vec<u8>`, the reader is [`Reader`], a bounds-checked cursor that
//! reports absolute byte offsets. Its [`Reader::count`] rejects a
//! declared element count that cannot fit in the bytes left *before*
//! anything is allocated, so a corrupt length field is a typed
//! [`WireError`], never an allocation failure.
//!
//! The record codecs shared by both formats live here too: one encoding
//! each for a [`FeatureVector`], a [`FeedbackRecord`], and a stream
//! event with its [`EventDetail`].

use osn_graph::Timestamp;
use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
use sybil_features::FeatureVector;
use sybil_serve::fault::FeedbackRecord;

/// Why a read failed. The formats above convert this into their own
/// error types with `From`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The bytes ran out mid-field.
    Truncated {
        /// Byte offset where the bytes ran out.
        offset: u64,
    },
    /// A field held a value outside its domain: a boolean byte that is
    /// neither 0 nor 1, an unknown discriminant, or a count larger than
    /// the bytes left could hold.
    BadField {
        /// Byte offset of the offending field.
        offset: u64,
    },
}

/// Append one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a boolean as one byte, 0 or 1.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

/// Bounds-checked little-endian cursor over a byte slice. Positions are
/// tracked relative to `base`, the slice's offset in the whole stream,
/// so every error names an absolute byte offset.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, which starts at byte `base` of its stream.
    pub fn new(buf: &'a [u8], base: u64) -> Self {
        Reader { buf, pos: 0, base }
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(WireError::Truncated {
                offset: self.offset(),
            })?;
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// A boolean byte; anything but 0 or 1 is a [`WireError::BadField`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        let offset = self.offset();
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadField { offset }),
        }
    }

    /// A `u32` element count, checked by [`room_for`](Self::room_for)
    /// against the bytes that follow it.
    pub fn count(&mut self, min_len: usize) -> Result<usize, WireError> {
        let at = self.offset();
        let n = self.u32()?;
        self.room_for(n, min_len, at)
    }

    /// `n` as a `usize` when `n` elements of at least `min_len` bytes
    /// each fit in the unread bytes; otherwise a
    /// [`WireError::BadField`] at `at`, the offset of the field that
    /// declared `n`. Call it before allocating for `n` elements.
    pub fn room_for(&self, n: u32, min_len: usize, at: u64) -> Result<usize, WireError> {
        let n = n as usize;
        if n > self.remaining() / min_len.max(1) {
            return Err(WireError::BadField { offset: at });
        }
        Ok(n)
    }

    /// A `u32`-counted list: the count, checked by
    /// [`count`](Self::count), then that many elements read by `get`
    /// into a vector allocated once at its final length.
    pub fn list<T>(
        &mut self,
        min_len: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_len)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// True when every byte has been read.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encoded size of a [`FeatureVector`]: five `f64`s.
pub const FEATURES_LEN: usize = 5 * 8;

/// Encoded size of a [`FeedbackRecord`].
pub const FEEDBACK_LEN: usize = 8 + 1 + 8 + FEATURES_LEN + 1;

/// Encoded size of a stream event with its detail.
pub const EVENT_LEN: usize = 8 + 8 + 1 + 4 + 4 + 4 + 1;

/// Encode a feature vector: five `f64`s in field order.
pub fn put_features(buf: &mut Vec<u8>, fv: &FeatureVector) {
    for v in fv.as_array() {
        put_f64(buf, v);
    }
}

/// Decode a feature vector written by [`put_features`].
pub fn get_features(r: &mut Reader<'_>) -> Result<FeatureVector, WireError> {
    Ok(FeatureVector {
        inv_freq_1h: r.f64()?,
        inv_freq_400h: r.f64()?,
        outgoing_accept_ratio: r.f64()?,
        incoming_accept_ratio: r.f64()?,
        clustering_coefficient: r.f64()?,
    })
}

/// Encode a feedback record:
/// `seq:u64 intra:u8 due_secs:u64 features truth:u8`.
pub fn put_feedback(buf: &mut Vec<u8>, fb: &FeedbackRecord) {
    put_u64(buf, fb.seq);
    put_u8(buf, fb.intra);
    put_u64(buf, fb.due.as_secs());
    put_features(buf, &fb.features);
    put_bool(buf, fb.truth);
}

/// Decode a feedback record written by [`put_feedback`].
pub fn get_feedback(r: &mut Reader<'_>) -> Result<FeedbackRecord, WireError> {
    Ok(FeedbackRecord {
        seq: r.u64()?,
        intra: r.u8()?,
        due: Timestamp(r.u64()?),
        features: get_features(r)?,
        truth: r.bool()?,
    })
}

/// Encode one event and its parallel detail:
/// `seq:u64 at_secs:u64 kind:u8 record:u32 from:u32 to:u32 accepted:u8`.
pub fn put_event(buf: &mut Vec<u8>, ev: &StreamEvent, det: &EventDetail) {
    put_u64(buf, ev.seq);
    put_u64(buf, ev.at.as_secs());
    let (kind, record) = match ev.kind {
        StreamEventKind::Sent(r) => (0u8, r),
        StreamEventKind::Decided(r) => (1u8, r),
    };
    put_u8(buf, kind);
    put_u32(buf, record);
    put_u32(buf, det.from);
    put_u32(buf, det.to);
    put_bool(buf, det.accepted);
}

/// Decode an event and its detail written by [`put_event`].
pub fn get_event(r: &mut Reader<'_>) -> Result<(StreamEvent, EventDetail), WireError> {
    let seq = r.u64()?;
    let at = Timestamp(r.u64()?);
    let kind_off = r.offset();
    let kind = match (r.u8()?, r.u32()?) {
        (0, record) => StreamEventKind::Sent(record),
        (1, record) => StreamEventKind::Decided(record),
        _ => return Err(WireError::BadField { offset: kind_off }),
    };
    let detail = EventDetail {
        from: r.u32()?,
        to: r.u32()?,
        accepted: r.bool()?,
    };
    Ok((StreamEvent { seq, at, kind }, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sizes_match_their_encoders() {
        let fb = FeedbackRecord {
            seq: 1,
            intra: 2,
            due: Timestamp(3),
            features: FeatureVector {
                inv_freq_1h: 1.0,
                inv_freq_400h: 2.0,
                outgoing_accept_ratio: 0.5,
                incoming_accept_ratio: 0.25,
                clustering_coefficient: -0.0,
            },
            truth: true,
        };
        let ev = StreamEvent {
            seq: 9,
            at: Timestamp(60),
            kind: StreamEventKind::Decided(4),
        };
        let det = EventDetail {
            from: 1,
            to: 2,
            accepted: true,
        };
        let mut buf = Vec::new();
        put_feedback(&mut buf, &fb);
        assert_eq!(buf.len(), FEEDBACK_LEN);
        put_event(&mut buf, &ev, &det);
        assert_eq!(buf.len(), FEEDBACK_LEN + EVENT_LEN);
        let mut r = Reader::new(&buf, 100);
        assert_eq!(get_feedback(&mut r), Ok(fb));
        assert_eq!(get_event(&mut r), Ok((ev, det)));
        assert!(r.done());
        assert_eq!(r.offset(), 100 + buf.len() as u64);
    }

    #[test]
    fn reads_past_the_end_and_bad_bytes_are_typed() {
        let mut r = Reader::new(&[7, 2, 0, 0], 10);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Err(WireError::BadField { offset: 11 }));
        assert_eq!(r.u32(), Err(WireError::Truncated { offset: 12 }));
    }

    #[test]
    fn counts_that_cannot_fit_are_rejected_before_allocation() {
        // A count of 2 with 16 bytes following: fits 8-byte elements,
        // not 9-byte ones.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&buf, 0).count(8), Ok(2));
        assert_eq!(
            Reader::new(&buf, 5).count(9),
            Err(WireError::BadField { offset: 5 })
        );
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert_eq!(
            Reader::new(&huge, 0).count(1),
            Err(WireError::BadField { offset: 0 })
        );
    }
}
