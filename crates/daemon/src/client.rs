//! A small synchronous WMSP client: what `wms send` and the test/bench
//! harnesses use to talk to a running `wmsd`.
//!
//! The client is deliberately dumb: one connection, strictly ordered
//! request/reply (unless the caller pipelines by hand with
//! [`Client::write_raw`] / [`Client::read_reply`]). Replay-after-crash
//! policy lives with the caller, which owns the batch journal; the
//! handshake's `acked_seq` says where to restart.

use crate::net::{self, Conn, Endpoint};
use crate::proto::{self, batch_frame, nack, Frame, FrameDecoder, ProtoError};
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use wms_engine::Event;

/// What the server said to our `HELLO`.
#[derive(Debug, Clone, Copy)]
pub struct Greeting {
    /// Protocol revision the server speaks.
    pub proto: u16,
    /// Highest batch sequence already applied server-side. Send
    /// `acked_seq + 1` next; anything lower is refused as stale.
    pub acked_seq: u64,
    /// The server scheme's fingerprint.
    pub fingerprint: u64,
}

/// The server's verdict on one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// Applied; `emitted` output rows were written.
    Acked {
        /// Output rows produced by this batch.
        emitted: u64,
    },
    /// Already applied in a previous life — skip ahead.
    Stale,
    /// Shed by the overload policy — back off and resend from the
    /// lowest shed sequence number. Once a batch is shed, the server
    /// sheds every later batch on the connection until that one is
    /// accepted, so a pipelining client may see a run of these.
    Shed,
    /// Refused because the batch skips ahead of the next expected
    /// sequence. Shedding never causes this (see [`BatchReply::Shed`]):
    /// it means the client skipped a sequence number or another client
    /// interleaved with it — resend in order.
    Gap,
    /// The daemon is draining — stop sending.
    Draining,
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(String),
    /// The server's bytes did not parse as WMSP.
    Proto(ProtoError),
    /// A typed refusal that [`BatchReply`] does not absorb (bad frame,
    /// version mismatch, engine fault, sequence gap).
    Nack {
        /// The [`nack`] reason code.
        code: u16,
        /// Server-provided detail.
        detail: String,
    },
    /// The connection closed where a reply was expected.
    Closed,
    /// The server answered with a frame that makes no sense here.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Nack { code, detail } => {
                write!(f, "server refused (code {code}): {detail}")
            }
            ClientError::Closed => write!(f, "connection closed by the server"),
            ClientError::Unexpected(d) => write!(f, "unexpected server frame: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One WMSP connection, post-handshake.
pub struct Client {
    conn: Conn,
    dec: FrameDecoder,
}

impl Client {
    /// Connects and completes the `HELLO` handshake.
    pub fn connect(ep: &Endpoint, name: &str) -> Result<(Client, Greeting), ClientError> {
        let conn = net::connect(ep)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        conn.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut c = Client {
            conn,
            dec: FrameDecoder::new(),
        };
        let hello = Frame::Hello {
            proto: proto::VERSION as u16,
            client: name.to_string(),
        };
        c.conn.write_all(&hello.encode())?;
        match c.read_frame()? {
            Frame::HelloOk {
                proto,
                acked_seq,
                fingerprint,
            } => Ok((
                c,
                Greeting {
                    proto,
                    acked_seq,
                    fingerprint,
                },
            )),
            Frame::Nack { code, detail, .. } => Err(ClientError::Nack { code, detail }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// [`Client::connect`], retried until `deadline` elapses — for
    /// harnesses that race a daemon's startup.
    pub fn connect_retry(
        ep: &Endpoint,
        name: &str,
        deadline: Duration,
    ) -> Result<(Client, Greeting), ClientError> {
        let start = Instant::now();
        loop {
            match Client::connect(ep, name) {
                Ok(ok) => return Ok(ok),
                Err(e) => {
                    if start.elapsed() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Sends one batch and waits for the server's verdict.
    pub fn send_batch(&mut self, seq: u64, events: &[Event]) -> Result<BatchReply, ClientError> {
        self.conn.write_all(&batch_frame(seq, events))?;
        self.read_reply().map(|(_, reply)| reply)
    }

    /// Writes pre-encoded bytes without waiting — the pipelining /
    /// fault-injection building block.
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.conn.write_all(bytes)?;
        Ok(())
    }

    /// Raw mutable access to the underlying connection, for harnesses
    /// that deliver hostile byte schedules (splits, stalls, truncations)
    /// below the frame layer.
    pub fn conn_mut(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// Reads one batch verdict (the counterpart of [`Client::write_raw`]
    /// when pipelining). Returns the sequence number the verdict is
    /// about — with pipelining, shed NACKs (sent by the reader thread)
    /// can overtake ACKs (sent by the engine thread), so replies are
    /// not necessarily in send order.
    pub fn read_reply(&mut self) -> Result<(u64, BatchReply), ClientError> {
        match self.read_frame()? {
            Frame::Ack { seq, emitted } => Ok((seq, BatchReply::Acked { emitted })),
            Frame::Nack { seq, code, detail } => match code {
                nack::STALE => Ok((seq, BatchReply::Stale)),
                nack::OVERLOADED => Ok((seq, BatchReply::Shed)),
                nack::GAP => Ok((seq, BatchReply::Gap)),
                nack::DRAINING => Ok((seq, BatchReply::Draining)),
                _ => Err(ClientError::Nack { code, detail }),
            },
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Requests the server's metrics snapshot (`STATS`) and returns the
    /// Prometheus-style text exposition. Answered even while the daemon
    /// drains; in-flight batch verdicts that overtake the reply are
    /// skipped, same as [`Client::drain`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.conn.write_all(&Frame::Stats.encode())?;
        loop {
            match self.read_frame()? {
                Frame::StatsOk { text } => return Ok(text),
                Frame::Ack { .. } => continue,
                Frame::Nack { code, detail, .. } => match code {
                    nack::STALE | nack::OVERLOADED | nack::GAP | nack::DRAINING => continue,
                    _ => return Err(ClientError::Nack { code, detail }),
                },
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }

    /// Requests a graceful drain and waits for `SHUTDOWN_OK`, skipping
    /// any still-in-flight batch verdicts. Returns `(streams,
    /// tail_rows)` from the finalization.
    pub fn drain(&mut self) -> Result<(u64, u64), ClientError> {
        self.conn.write_all(&Frame::Shutdown.encode())?;
        loop {
            match self.read_frame()? {
                Frame::ShutdownOk { streams, tail_rows } => return Ok((streams, tail_rows)),
                Frame::Ack { .. } => continue,
                Frame::Nack { code, detail, .. } => match code {
                    // Pipelined batches refused mid-drain are fine.
                    nack::STALE | nack::OVERLOADED | nack::GAP | nack::DRAINING => continue,
                    _ => return Err(ClientError::Nack { code, detail }),
                },
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            }
        }
    }

    /// Reads until one full frame decodes.
    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = self.dec.try_frame()? {
                return Ok(f);
            }
            match self.conn.read(&mut buf) {
                Ok(0) => {
                    self.dec.finish_eof()?;
                    return Err(ClientError::Closed);
                }
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) => return Err(ClientError::Io(e.to_string())),
            }
        }
    }
}
