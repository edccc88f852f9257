//! The `WMSP` wire protocol: length-framed, CRC-checksummed batches.
//!
//! Every frame on the socket has the same envelope:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "WMSP"
//! 4       1     protocol version (currently 1)
//! 5       1     frame type
//! 6       4     payload length, u32 LE (<= MAX_PAYLOAD)
//! 10      len   payload (per-type encoding below)
//! 10+len  4     CRC-32 (IEEE) over bytes [0, 10+len), u32 LE
//! ```
//!
//! The CRC covers the header *and* the payload, so a corrupted type or
//! length byte is detected exactly like a corrupted sample. Payloads use
//! the workspace's little-endian [`ByteWriter`]/[`ByteReader`] vocabulary
//! (u64 length-prefixed byte strings, f64 as raw bits — the same codec
//! checkpoints use, so an event round-trips the wire bit-exactly).
//!
//! Decoding is **sans-IO**: [`FrameDecoder`] consumes arbitrary byte
//! chunks via [`push`](FrameDecoder::push) and yields complete frames,
//! so the same state machine serves blocking socket readers, the
//! fault-injection harness, and the property tests (which deliver frames
//! in adversarial chunkings). Every malformation maps to a typed
//! [`ProtoError`]; the decoder never panics and never silently accepts a
//! damaged frame (CRC-32 detects all single-byte corruptions).

use wms_core::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use wms_crypto::crc32::Crc32;
use wms_stream::{Event, Sample, StreamId};

/// Frame envelope magic.
pub const MAGIC: [u8; 4] = *b"WMSP";
/// Wire protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Envelope bytes before the payload: magic + version + type + length.
pub const HEADER_LEN: usize = 10;
/// Trailing checksum bytes.
pub const CRC_LEN: usize = 4;
/// Hard per-frame payload cap. A length field above this is rejected as
/// [`ProtoError::Oversize`] before any allocation happens — a corrupted
/// or hostile length cannot make the server reserve gigabytes.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Frame type tags.
pub mod frame_type {
    /// Client handshake.
    pub const HELLO: u8 = 1;
    /// Server handshake reply (carries the durable acked sequence).
    pub const HELLO_OK: u8 = 2;
    /// One batch of interleaved events.
    pub const BATCH: u8 = 3;
    /// Batch accepted and applied.
    pub const ACK: u8 = 4;
    /// Batch (or connection) refused, with a typed reason.
    pub const NACK: u8 = 5;
    /// Graceful drain request.
    pub const SHUTDOWN: u8 = 6;
    /// Drain complete: tails flushed, final state durable.
    pub const SHUTDOWN_OK: u8 = 7;
    /// Telemetry snapshot request.
    pub const STATS: u8 = 8;
    /// Telemetry snapshot reply (Prometheus-style text exposition).
    pub const STATS_OK: u8 = 9;
}

/// Typed NACK reason codes (`Nack.code`). Stable wire identities —
/// append, never renumber.
pub mod nack {
    /// The frame itself was damaged (bad magic/version/CRC/length);
    /// the detail carries the [`ProtoError`](super::ProtoError) code.
    /// The connection is closed after this NACK: a framing error means
    /// the byte stream cannot be trusted to resynchronize.
    pub const BAD_FRAME: u16 = 1;
    /// Hello asked for a protocol revision this server does not speak.
    pub const UNSUPPORTED: u16 = 2;
    /// Shed overload policy: the ingest queue is full, or an earlier
    /// batch on this connection was shed and has not been accepted
    /// since. Nothing was applied; resend from the lowest shed sequence.
    pub const OVERLOADED: u16 = 3;
    /// The server is draining; no new batches are accepted.
    pub const DRAINING: u16 = 4;
    /// `seq` was already applied (duplicate replay). Safe to treat as
    /// acknowledged.
    pub const STALE: u16 = 5;
    /// `seq` skips ahead of the next expected sequence; the batch was
    /// not applied (applying it would leave a hole in the flow).
    pub const GAP: u16 = 6;
    /// The engine refused the batch; the detail carries the
    /// `EngineError` code and message.
    pub const ENGINE: u16 = 7;
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: requested protocol revision + client name.
    Hello {
        /// Protocol revision the client speaks.
        proto: u16,
        /// Free-form client identity (diagnostics only).
        client: String,
    },
    /// Server handshake reply.
    HelloOk {
        /// Protocol revision the server speaks.
        proto: u16,
        /// Highest batch sequence applied to server state. A client
        /// must (re-)send every batch with a higher sequence.
        acked_seq: u64,
        /// The serving scheme's fingerprint, so a client embedding
        /// under different parameters fails loudly at handshake time.
        fingerprint: u64,
    },
    /// One batch of events, client-ordered by `seq` starting at 1.
    Batch {
        /// Monotonic batch sequence number.
        seq: u64,
        /// The interleaved events.
        events: Vec<Event>,
    },
    /// Batch `seq` applied; `emitted` output rows were produced.
    Ack {
        /// Sequence being acknowledged.
        seq: u64,
        /// Output rows written for this batch.
        emitted: u64,
    },
    /// Typed refusal. `seq` is 0 when the NACK is not about a specific
    /// batch (e.g. a framing error).
    Nack {
        /// Sequence being refused (0 = connection-level).
        seq: u64,
        /// A [`nack`] reason code.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// Graceful drain request.
    Shutdown,
    /// Drain complete.
    ShutdownOk {
        /// Streams finalized.
        streams: u64,
        /// Tail rows flushed by the finalization.
        tail_rows: u64,
    },
    /// Telemetry snapshot request (empty payload; answered with
    /// [`Frame::StatsOk`] and never refused, even while draining —
    /// operators need visibility most during a drain).
    Stats,
    /// Telemetry snapshot reply.
    StatsOk {
        /// Prometheus-style text exposition of every registered metric.
        text: String,
    },
}

/// A typed wire-protocol malformation. Never a panic, never silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first four bytes are not `WMSP`.
    BadMagic {
        /// Bytes actually found.
        found: [u8; 4],
    },
    /// Version byte newer than this build.
    UnsupportedVersion {
        /// Version found on the wire.
        found: u8,
        /// Newest version this build decodes.
        supported: u8,
    },
    /// Unknown frame type tag (CRC-valid, so genuinely foreign).
    UnknownType(u8),
    /// Length field exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// Length claimed by the frame.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// Stored CRC does not match the received bytes.
    CrcMismatch {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC stored in the frame.
        found: u32,
    },
    /// CRC-valid envelope, undecodable payload.
    Malformed(String),
    /// The peer closed mid-frame: bytes were buffered but no complete
    /// frame ever arrived.
    Truncated {
        /// Bytes stranded in the decoder.
        buffered: usize,
    },
}

impl ProtoError {
    /// Stable small-integer identity (NACK details, exit-code mapping).
    /// Append, never renumber.
    pub fn code(&self) -> u16 {
        match self {
            ProtoError::BadMagic { .. } => 1,
            ProtoError::UnsupportedVersion { .. } => 2,
            ProtoError::UnknownType(_) => 3,
            ProtoError::Oversize { .. } => 4,
            ProtoError::CrcMismatch { .. } => 5,
            ProtoError::Malformed(_) => 6,
            ProtoError::Truncated { .. } => 7,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected \"WMSP\")")
            }
            ProtoError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {supported})"
                )
            }
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::CrcMismatch { expected, found } => write!(
                f,
                "frame CRC mismatch: stored {found:#010x}, bytes hash to {expected:#010x}"
            ),
            ProtoError::Malformed(msg) => write!(f, "malformed frame payload: {msg}"),
            ProtoError::Truncated { buffered } => {
                write!(f, "connection closed mid-frame ({buffered} bytes stranded)")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CheckpointError> for ProtoError {
    fn from(e: CheckpointError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

fn envelope(ty: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CRC_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(ty);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let mut crc = Crc32::new();
    crc.update(&out);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out
}

/// Encodes a batch frame straight from a borrowed event slice (the
/// client's journal keeps ownership; nothing is cloned).
pub fn batch_frame(seq: u64, events: &[Event]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(seq);
    w.put_u64(events.len() as u64);
    for e in events {
        w.put_u64(e.stream.0);
        w.put_u64(e.sample.index);
        w.put_f64(e.sample.value);
    }
    envelope(frame_type::BATCH, &w.into_bytes())
}

/// Decodes a batch payload into a caller-supplied (recycled) buffer,
/// returning the sequence number. The server's readers use this so event
/// vectors cycle through the connection pool instead of being
/// re-allocated per batch.
///
/// Provenance spans are not carried on the wire: samples are
/// reconstructed as pristine (`span == unit(index)`), which is exactly
/// what the CSV event reader produces for a fresh flow.
pub fn decode_batch_into(payload: &[u8], events: &mut Vec<Event>) -> Result<u64, ProtoError> {
    events.clear();
    let mut r = ByteReader::new(payload);
    let seq = r.get_u64()?;
    let n = r.get_len(24)?;
    events.reserve(n);
    for _ in 0..n {
        let stream = StreamId(r.get_u64()?);
        let index = r.get_u64()?;
        let value = r.get_f64()?;
        events.push(Event::new(stream, Sample::new(index, value)));
    }
    r.finish()?;
    Ok(seq)
}

impl Frame {
    /// Encodes the frame into its complete wire envelope.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Hello { proto, client } => {
                let mut w = ByteWriter::new();
                w.put_u16(*proto);
                w.put_bytes(client.as_bytes());
                envelope(frame_type::HELLO, &w.into_bytes())
            }
            Frame::HelloOk {
                proto,
                acked_seq,
                fingerprint,
            } => {
                let mut w = ByteWriter::new();
                w.put_u16(*proto);
                w.put_u64(*acked_seq);
                w.put_u64(*fingerprint);
                envelope(frame_type::HELLO_OK, &w.into_bytes())
            }
            Frame::Batch { seq, events } => batch_frame(*seq, events),
            Frame::Ack { seq, emitted } => {
                let mut w = ByteWriter::new();
                w.put_u64(*seq);
                w.put_u64(*emitted);
                envelope(frame_type::ACK, &w.into_bytes())
            }
            Frame::Nack { seq, code, detail } => {
                let mut w = ByteWriter::new();
                w.put_u64(*seq);
                w.put_u16(*code);
                w.put_bytes(detail.as_bytes());
                envelope(frame_type::NACK, &w.into_bytes())
            }
            Frame::Shutdown => envelope(frame_type::SHUTDOWN, &[]),
            Frame::ShutdownOk { streams, tail_rows } => {
                let mut w = ByteWriter::new();
                w.put_u64(*streams);
                w.put_u64(*tail_rows);
                envelope(frame_type::SHUTDOWN_OK, &w.into_bytes())
            }
            Frame::Stats => envelope(frame_type::STATS, &[]),
            Frame::StatsOk { text } => {
                let mut w = ByteWriter::new();
                w.put_bytes(text.as_bytes());
                envelope(frame_type::STATS_OK, &w.into_bytes())
            }
        }
    }

    /// Decodes a CRC-validated payload of the given type.
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
        match ty {
            frame_type::HELLO => {
                let mut r = ByteReader::new(payload);
                let proto = r.get_u16()?;
                let client = String::from_utf8_lossy(r.get_bytes()?).into_owned();
                r.finish()?;
                Ok(Frame::Hello { proto, client })
            }
            frame_type::HELLO_OK => {
                let mut r = ByteReader::new(payload);
                let frame = Frame::HelloOk {
                    proto: r.get_u16()?,
                    acked_seq: r.get_u64()?,
                    fingerprint: r.get_u64()?,
                };
                r.finish()?;
                Ok(frame)
            }
            frame_type::BATCH => {
                let mut events = Vec::new();
                let seq = decode_batch_into(payload, &mut events)?;
                Ok(Frame::Batch { seq, events })
            }
            frame_type::ACK => {
                let mut r = ByteReader::new(payload);
                let frame = Frame::Ack {
                    seq: r.get_u64()?,
                    emitted: r.get_u64()?,
                };
                r.finish()?;
                Ok(frame)
            }
            frame_type::NACK => {
                let mut r = ByteReader::new(payload);
                let seq = r.get_u64()?;
                let code = r.get_u16()?;
                let detail = String::from_utf8_lossy(r.get_bytes()?).into_owned();
                r.finish()?;
                Ok(Frame::Nack { seq, code, detail })
            }
            frame_type::SHUTDOWN => {
                if !payload.is_empty() {
                    return Err(CheckpointError::TrailingBytes.into());
                }
                Ok(Frame::Shutdown)
            }
            frame_type::SHUTDOWN_OK => {
                let mut r = ByteReader::new(payload);
                let frame = Frame::ShutdownOk {
                    streams: r.get_u64()?,
                    tail_rows: r.get_u64()?,
                };
                r.finish()?;
                Ok(frame)
            }
            frame_type::STATS => {
                if !payload.is_empty() {
                    return Err(CheckpointError::TrailingBytes.into());
                }
                Ok(Frame::Stats)
            }
            frame_type::STATS_OK => {
                let mut r = ByteReader::new(payload);
                let text = String::from_utf8_lossy(r.get_bytes()?).into_owned();
                r.finish()?;
                Ok(Frame::StatsOk { text })
            }
            other => Err(ProtoError::UnknownType(other)),
        }
    }
}

/// A validated envelope whose payload has not been interpreted yet.
/// Servers use this to route batch payloads into pooled buffers without
/// the generic [`Frame`] allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Frame type tag.
    pub ty: u8,
    /// CRC-validated payload bytes.
    pub payload: Vec<u8>,
}

/// Incremental sans-IO frame decoder.
///
/// Feed it bytes in whatever chunking the transport produces; it yields
/// complete frames once they (and their checksums) have fully arrived.
/// After a fatal error ([`BadMagic`](ProtoError::BadMagic) etc.) the
/// stream cannot be resynchronized — callers must close the connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Call at end-of-stream: leftover bytes mean the peer died (or was
    /// cut) mid-frame.
    pub fn finish_eof(&self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Truncated {
                buffered: self.buf.len(),
            })
        }
    }

    /// Tries to extract the next validated envelope. `Ok(None)` means
    /// more bytes are needed.
    pub fn try_raw(&mut self) -> Result<Option<RawFrame>, ProtoError> {
        if self.buf.len() < HEADER_LEN {
            // Fail fast on garbage even before a full header arrives.
            let have = self.buf.len().min(4);
            if self.buf[..have] != MAGIC[..have] {
                let mut found = [0u8; 4];
                found[..have].copy_from_slice(&self.buf[..have]);
                return Err(ProtoError::BadMagic { found });
            }
            return Ok(None);
        }
        if self.buf[..4] != MAGIC {
            return Err(ProtoError::BadMagic {
                found: [self.buf[0], self.buf[1], self.buf[2], self.buf[3]],
            });
        }
        if self.buf[4] != VERSION {
            return Err(ProtoError::UnsupportedVersion {
                found: self.buf[4],
                supported: VERSION,
            });
        }
        let len = u32::from_le_bytes(self.buf[6..10].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(ProtoError::Oversize {
                len,
                max: MAX_PAYLOAD,
            });
        }
        let total = HEADER_LEN + len as usize + CRC_LEN;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = &self.buf[..HEADER_LEN + len as usize];
        let mut crc = Crc32::new();
        crc.update(body);
        let expected = crc.finish();
        let found = u32::from_le_bytes(
            self.buf[HEADER_LEN + len as usize..total]
                .try_into()
                .unwrap(),
        );
        if expected != found {
            return Err(ProtoError::CrcMismatch { expected, found });
        }
        let ty = self.buf[5];
        let payload = self.buf[HEADER_LEN..HEADER_LEN + len as usize].to_vec();
        self.buf.drain(..total);
        Ok(Some(RawFrame { ty, payload }))
    }

    /// Tries to extract and fully decode the next frame.
    pub fn try_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        match self.try_raw()? {
            None => Ok(None),
            Some(raw) => Frame::decode(raw.ty, &raw.payload).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        (0..5)
            .map(|i| Event::new(StreamId(3 + i % 2), Sample::new(i, 0.25 * i as f64 - 0.4)))
            .collect()
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto: 1,
                client: "test".into(),
            },
            Frame::HelloOk {
                proto: 1,
                acked_seq: 42,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            },
            Frame::Batch {
                seq: 7,
                events: sample_events(),
            },
            Frame::Ack {
                seq: 7,
                emitted: 12,
            },
            Frame::Nack {
                seq: 8,
                code: nack::OVERLOADED,
                detail: "queue full".into(),
            },
            Frame::Shutdown,
            Frame::ShutdownOk {
                streams: 3,
                tail_rows: 99,
            },
            Frame::Stats,
            Frame::StatsOk {
                text: "# TYPE wms_x counter\nwms_x 1\n".into(),
            },
        ]
    }

    #[test]
    fn frames_roundtrip_whole() {
        for f in all_frames() {
            let mut d = FrameDecoder::new();
            d.push(&f.encode());
            assert_eq!(d.try_frame().unwrap(), Some(f.clone()));
            assert_eq!(d.try_frame().unwrap(), None);
            d.finish_eof().unwrap();
        }
    }

    #[test]
    fn frames_roundtrip_byte_at_a_time() {
        let f = Frame::Batch {
            seq: 3,
            events: sample_events(),
        };
        let bytes = f.encode();
        let mut d = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            d.push(&[*b]);
            let got = d.try_frame().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "frame completed early at byte {i}");
            } else {
                assert_eq!(got, Some(f.clone()));
            }
        }
    }

    #[test]
    fn coalesced_frames_all_decode() {
        let frames = all_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut d = FrameDecoder::new();
        d.push(&wire);
        for f in &frames {
            assert_eq!(d.try_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(d.try_frame().unwrap(), None);
        d.finish_eof().unwrap();
    }

    #[test]
    fn bad_magic_rejected_immediately() {
        let mut d = FrameDecoder::new();
        d.push(b"HTTP");
        match d.try_raw() {
            Err(ProtoError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn oversize_length_rejected_before_allocation() {
        let mut frame = Frame::Shutdown.encode();
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.push(&frame);
        match d.try_raw() {
            Err(ProtoError::Oversize { .. }) => {}
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn crc_corruption_detected() {
        let f = Frame::Ack { seq: 1, emitted: 2 };
        let mut bytes = f.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        match d.try_frame() {
            Err(_) => {}
            Ok(got) => panic!("corrupted frame decoded as {got:?}"),
        }
    }

    #[test]
    fn truncation_reported_at_eof() {
        let bytes = Frame::Shutdown.encode();
        let mut d = FrameDecoder::new();
        d.push(&bytes[..bytes.len() - 1]);
        assert_eq!(d.try_frame().unwrap(), None);
        match d.finish_eof() {
            Err(ProtoError::Truncated { buffered }) => assert!(buffered > 0),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn error_codes_are_distinct() {
        let errs = [
            ProtoError::BadMagic { found: [0; 4] },
            ProtoError::UnsupportedVersion {
                found: 9,
                supported: VERSION,
            },
            ProtoError::UnknownType(200),
            ProtoError::Oversize {
                len: u32::MAX,
                max: MAX_PAYLOAD,
            },
            ProtoError::CrcMismatch {
                expected: 1,
                found: 2,
            },
            ProtoError::Malformed("x".into()),
            ProtoError::Truncated { buffered: 3 },
        ];
        let mut codes: Vec<u16> = errs.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }
}
