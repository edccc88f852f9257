//! The `wmsd` server: a long-lived watermarking daemon wrapping one
//! [`Engine`] behind the WMSP protocol.
//!
//! # Thread anatomy
//!
//! ```text
//! accept loop ──spawns──▶ per-conn reader ──Job::Batch──▶ engine thread
//!                         per-conn writer ◀──reply mpsc───┘
//! ```
//!
//! One engine thread owns the [`Engine`] and the output file; it is the
//! sequencing authority (batches apply in WMSP sequence order), so
//! detection output is byte-for-byte what a single-process `wms engine
//! --normalize none` run produces for the same batch schedule. It is no
//! longer where watermarking *runs*, though: each batch is routed
//! straight into the engine's per-shard ingest rings via
//! [`Engine::submit`] and its ACK is deferred until the epoch's outputs
//! are collected, so while the shard workers chew on batch N the engine
//! thread is already routing batch N+1 — back-to-back batches pipeline
//! instead of paying a barrier each. Per-connection reader threads
//! decode frames into recycled event buffers and feed a **bounded** job
//! queue; the queue is the backpressure boundary — and so is the ring:
//! at most [`RING_CAPACITY`] epochs ride in flight before the engine
//! thread collects the oldest. [`OverloadPolicy::Block`] makes a full
//! queue push back through TCP flow control, [`OverloadPolicy::Shed`]
//! answers with a typed `OVERLOADED` NACK instead. Either way no batch
//! is ever silently dropped, and no ACK leaves before its outputs are
//! written.
//!
//! # Crash safety
//!
//! The engine thread periodically persists a durable checkpoint (same
//! temp-file + fsync + rename discipline as `wms engine`) carrying the
//! global acked sequence number and the durable output byte offset.
//! After `kill -9`, rebinding with `resume = true` truncates the output
//! back to the checkpointed offset, restores every session mid-stream
//! and re-advertises the acked sequence in `HELLO_OK`; clients replay
//! everything newer and the final output is byte-identical to a run
//! that never died.

use crate::metrics::DaemonMetrics;
use crate::net::{self, Conn, Endpoint, Listener};
use crate::proto::{self, decode_batch_into, frame_type, nack, Frame, FrameDecoder, ProtoError};
use crate::DaemonError;
use std::collections::{HashSet, VecDeque};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use wms_core::checkpoint::{ByteReader, ByteWriter};
use wms_core::EmbedConfig;
use wms_engine::{Checkpoint, Engine, EngineConfig, EngineError, Event, StreamSpec, RING_CAPACITY};
use wms_telemetry::Registry;

/// Engine-thread wakeup tick: the granularity at which SIGTERM drain
/// requests and interval checkpoints are noticed.
const TICK: Duration = Duration::from_millis(50);
/// How long the drain loop waits for stragglers (readers blocked in a
/// queue `send` when the drain began) before declaring the queue dry.
const DRAIN_GRACE: Duration = Duration::from_millis(100);
/// Accept-loop poll interval while no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// What a full ingest queue does to the next incoming batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// The reader blocks until the queue has room; backpressure
    /// propagates to the client through transport flow control.
    Block,
    /// The batch is refused with an `OVERLOADED` NACK and counted in
    /// [`RunReport::shed`]; the client decides whether to retry. Sheds
    /// are sticky per connection: every later batch is shed too until
    /// the lowest shed one is resent and accepted.
    Shed,
}

impl OverloadPolicy {
    /// Parses `block` / `shed`.
    pub fn parse(s: &str) -> Result<OverloadPolicy, String> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "shed" => Ok(OverloadPolicy::Shed),
            other => Err(format!(
                "unknown overload policy {other:?}; expected block|shed"
            )),
        }
    }
}

/// The scheme-level identity of a daemon run: everything the output
/// depends on that the engine's own session fingerprint does not cover.
/// Stored in the checkpoint metadata and compared on resume — resuming
/// under a different encoder, watermark or parameter set would embed a
/// mixed, corrupt mark and is refused loudly.
#[derive(Debug, Clone)]
pub struct SchemeIdentity {
    /// Encoder name (`multihash` / `initial` / `quadres`).
    pub encoder: String,
    /// The watermark bits being embedded.
    pub wm_bits: Vec<bool>,
    /// Full `WmParams` identity (Debug form).
    pub params: String,
    /// `Scheme::memo_fingerprint()` — advertised to clients in
    /// `HELLO_OK` so a misconfigured sender fails the handshake, not
    /// the detection.
    pub fingerprint: u64,
}

/// Configuration for one daemon run.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Watermarked output CSV (`stream,value` rows, raw values).
    pub output: PathBuf,
    /// Checkpoint file; `None` disables persistence entirely.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint after every N acked batches (0 = no count trigger).
    pub checkpoint_every: u64,
    /// Checkpoint when dirty and this much time has passed since the
    /// last one (`None` = no timer trigger).
    pub checkpoint_interval: Option<Duration>,
    /// Resume from `checkpoint` instead of starting fresh.
    pub resume: bool,
    /// Bound of the ingest job queue (batches in flight).
    pub queue_depth: usize,
    /// Full-queue behavior.
    pub overload: OverloadPolicy,
    /// Socket read timeout (also the idle-reap poll granularity).
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stalls longer while we flush
    /// replies is disconnected.
    pub write_timeout: Duration,
    /// A connection silent for this long is reaped.
    pub idle_timeout: Duration,
    /// Engine topology and memory budget.
    pub engine: EngineConfig,
    /// Shared embedding configuration (scheme + encoder + watermark).
    pub embed: Arc<EmbedConfig>,
    /// Run identity persisted with every checkpoint.
    pub identity: SchemeIdentity,
    /// Test/bench hook: stop ingesting after N acked batches, skipping
    /// the final checkpoint and tail flush (an in-process stand-in for
    /// `kill -9` at a deterministic point). 0 = run until drained.
    pub hard_stop_after: u64,
    /// Test/bench hook: sleep this long before each ingest, to make
    /// queue overflow (and thus shedding) deterministic.
    pub ingest_delay: Duration,
    /// Optional plaintext metrics endpoint (`--metrics`): serves the
    /// Prometheus-style text exposition to any connection, wrapped in a
    /// minimal HTTP response so `curl` and scrape-style pollers work.
    pub metrics_endpoint: Option<Endpoint>,
}

impl DaemonConfig {
    /// A config with conservative defaults for everything but the
    /// required pieces.
    pub fn new(
        endpoint: Endpoint,
        output: PathBuf,
        engine: EngineConfig,
        embed: Arc<EmbedConfig>,
        identity: SchemeIdentity,
    ) -> DaemonConfig {
        DaemonConfig {
            endpoint,
            output,
            checkpoint: None,
            checkpoint_every: 0,
            checkpoint_interval: None,
            resume: false,
            queue_depth: 64,
            overload: OverloadPolicy::Block,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            engine,
            embed,
            identity,
            hard_stop_after: 0,
            ingest_delay: Duration::ZERO,
            metrics_endpoint: None,
        }
    }
}

/// How a daemon run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Graceful drain: queue quiesced, final checkpoint written, tails
    /// flushed, `SHUTDOWN_OK` sent.
    Drained,
    /// The `hard_stop_after` hook fired (crash simulation): no final
    /// checkpoint, no tails.
    HardStopped,
}

/// Counters and outcomes from one daemon run.
#[derive(Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Batches acked.
    pub batches: u64,
    /// Events ingested.
    pub events: u64,
    /// Batches refused with `OVERLOADED` (shed policy only).
    pub shed: u64,
    /// Batches refused as stale (already-acked sequence numbers —
    /// normal during client replay after a crash).
    pub stale: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Highest acked batch sequence number.
    pub acked_seq: u64,
    /// Per-stream outcomes from `Engine::finish` (empty unless
    /// [`Outcome::Drained`]).
    pub outcomes: Vec<wms_engine::StreamOutcome>,
}

/// Checkpoint metadata for a daemon run: the replay cursor plus the
/// daemon-level analogue of the CLI's `ResumeMeta` identity fields.
struct DaemonMeta {
    acked_seq: u64,
    out_bytes: u64,
    encoder: String,
    wm_bits: Vec<bool>,
    params: String,
}

impl DaemonMeta {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.acked_seq);
        w.put_u64(self.out_bytes);
        w.put_bytes(self.encoder.as_bytes());
        w.put_bytes(&self.wm_bits.iter().map(|&b| b as u8).collect::<Vec<u8>>());
        w.put_bytes(self.params.as_bytes());
        w.into_bytes()
    }

    fn from_checkpoint(ck: &Checkpoint) -> Result<DaemonMeta, DaemonError> {
        let bad =
            |e: wms_core::CheckpointError| DaemonError::Corrupt(format!("daemon metadata: {e}"));
        let mut r = ByteReader::new(&ck.meta);
        let acked_seq = r.get_u64().map_err(bad)?;
        let out_bytes = r.get_u64().map_err(bad)?;
        let encoder = String::from_utf8_lossy(r.get_bytes().map_err(bad)?).into_owned();
        let wm_bits = r
            .get_bytes()
            .map_err(bad)?
            .iter()
            .map(|&b| b != 0)
            .collect();
        let params = String::from_utf8_lossy(r.get_bytes().map_err(bad)?).into_owned();
        r.finish().map_err(bad)?;
        Ok(DaemonMeta {
            acked_seq,
            out_bytes,
            encoder,
            wm_bits,
            params,
        })
    }
}

/// A pool of recycled event buffers: readers `take`, the engine thread
/// `put`s after ingesting, so steady-state batch traffic allocates
/// nothing per frame.
struct Pool {
    free: Mutex<Vec<Vec<Event>>>,
    cap: usize,
}

impl Pool {
    fn new(cap: usize) -> Pool {
        Pool {
            free: Mutex::new(Vec::new()),
            cap,
        }
    }

    fn take(&self) -> Vec<Event> {
        self.free
            .lock()
            .expect("pool lock")
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, mut v: Vec<Event>) {
        v.clear();
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.cap {
            free.push(v);
        }
    }
}

/// A unit of work for the engine thread.
enum Job {
    /// One decoded batch; `reply` routes the ACK/NACK back through the
    /// originating connection's writer thread.
    Batch {
        seq: u64,
        events: Vec<Event>,
        reply: mpsc::Sender<Vec<u8>>,
    },
    /// A drain request (SHUTDOWN frame). `None` for signal-initiated
    /// drains with nobody to answer.
    Drain {
        reply: Option<mpsc::Sender<Vec<u8>>>,
    },
}

/// Everything the per-connection threads share.
#[derive(Clone)]
struct Shared {
    jobs: mpsc::SyncSender<Job>,
    draining: Arc<AtomicBool>,
    acked_pub: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    pool: Arc<Pool>,
    overload: OverloadPolicy,
    fingerprint: u64,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeout: Duration,
    metrics: Arc<DaemonMetrics>,
    /// Daemon + engine metrics; rendered for `STATS` frames and the
    /// `--metrics` scrape listener.
    registry: Arc<Registry>,
}

/// SIGTERM plumbing. The handler only flips an atomic; the engine
/// thread notices on its next tick and starts a graceful drain. On
/// non-unix targets `install` is a no-op and `requested` is always
/// false (use the SHUTDOWN frame instead).
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERM: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    mod unix_impl {
        #![allow(unsafe_code)] // raw signal(2): the one async-signal API std doesn't wrap

        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }

        extern "C" fn on_term(_sig: i32) {
            super::TERM.store(true, std::sync::atomic::Ordering::SeqCst);
        }

        pub(super) fn install() {
            const SIGTERM: i32 = 15;
            const SIGINT: i32 = 2;
            unsafe {
                signal(SIGTERM, on_term);
                signal(SIGINT, on_term);
            }
        }
    }

    pub(super) fn install() {
        TERM.store(false, Ordering::SeqCst);
        #[cfg(unix)]
        unix_impl::install();
    }

    pub(super) fn requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// One submitted-but-not-yet-acked batch riding the engine's ingest
/// rings: everything needed to ACK it once its epoch is collected.
struct Inflight {
    seq: u64,
    n_events: u64,
    reply: mpsc::Sender<Vec<u8>>,
}

/// The engine thread's state: the only owner of the [`Engine`] and the
/// output file.
struct EngineLoop {
    engine: Option<Engine>,
    writer: BufWriter<std::fs::File>,
    registered: HashSet<u64>,
    embed: Arc<EmbedConfig>,
    identity: SchemeIdentity,
    ck_path: Option<PathBuf>,
    ck_every: u64,
    ck_interval: Option<Duration>,
    last_ck: Instant,
    batches_since_ck: u64,
    dirty: bool,
    acked: u64,
    /// Highest sequence routed into the rings (≥ `acked`; the gap is
    /// the in-flight window).
    submitted: u64,
    inflight: VecDeque<Inflight>,
    hard_stop_after: u64,
    ingest_delay: Duration,
    draining: Arc<AtomicBool>,
    acked_pub: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    pool: Arc<Pool>,
    batches: u64,
    events: u64,
    stale: u64,
    metrics: Arc<DaemonMetrics>,
}

impl EngineLoop {
    fn run(mut self, rx: mpsc::Receiver<Job>) -> Result<RunReport, DaemonError> {
        let mut drain_replies: Vec<mpsc::Sender<Vec<u8>>> = Vec::new();
        let outcome = loop {
            if self.hard_stop_after > 0 && self.batches >= self.hard_stop_after {
                break Outcome::HardStopped;
            }
            // While epochs are in flight, prefer routing more work over
            // waiting — but the moment the queue runs dry, collect and
            // ACK the backlog instead of letting replies sit.
            if !self.inflight.is_empty() {
                match rx.try_recv() {
                    Ok(Job::Batch { seq, events, reply }) => {
                        self.handle_batch(seq, events, &reply)?;
                    }
                    Ok(Job::Drain { reply }) => {
                        self.draining.store(true, Ordering::SeqCst);
                        if let Some(r) = reply {
                            drain_replies.push(r);
                        }
                        self.drain_rest(&rx, &mut drain_replies)?;
                        break Outcome::Drained;
                    }
                    Err(mpsc::TryRecvError::Empty) => self.collect_one()?,
                    Err(mpsc::TryRecvError::Disconnected) => break Outcome::Drained,
                }
                continue;
            }
            match rx.recv_timeout(TICK) {
                Ok(Job::Batch { seq, events, reply }) => {
                    self.handle_batch(seq, events, &reply)?;
                }
                Ok(Job::Drain { reply }) => {
                    self.draining.store(true, Ordering::SeqCst);
                    if let Some(r) = reply {
                        drain_replies.push(r);
                    }
                    self.drain_rest(&rx, &mut drain_replies)?;
                    break Outcome::Drained;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.draining.load(Ordering::SeqCst) {
                        self.drain_rest(&rx, &mut drain_replies)?;
                        break Outcome::Drained;
                    }
                    self.maybe_interval_checkpoint()?;
                }
                // Every sender gone (server tearing down): drain.
                Err(mpsc::RecvTimeoutError::Disconnected) => break Outcome::Drained,
            }
        };
        match outcome {
            Outcome::Drained => {
                self.collect_all()?;
                self.finalize(drain_replies)
            }
            Outcome::HardStopped => {
                // Deliberately no final checkpoint, no finish(), no
                // collection of in-flight epochs: the output file holds
                // whatever a crash would have left.
                self.writer.flush().map_err(DaemonError::from_io)?;
                Ok(self.into_report(Outcome::HardStopped, Vec::new()))
            }
        }
    }

    /// After a drain begins: absorb in-flight batches (readers already
    /// blocked in a queue send) until the queue stays quiet for
    /// [`DRAIN_GRACE`]. New batches are refused upstream once the
    /// draining flag is up, so this terminates.
    fn drain_rest(
        &mut self,
        rx: &mpsc::Receiver<Job>,
        drain_replies: &mut Vec<mpsc::Sender<Vec<u8>>>,
    ) -> Result<(), DaemonError> {
        loop {
            match rx.recv_timeout(DRAIN_GRACE) {
                Ok(Job::Batch { seq, events, reply }) => self.handle_batch(seq, events, &reply)?,
                Ok(Job::Drain { reply }) => {
                    if let Some(r) = reply {
                        drain_replies.push(r);
                    }
                }
                Err(_) => return Ok(()),
            }
        }
    }

    /// Registers any unseen streams, then routes the batch into the
    /// per-shard ingest rings without waiting for it. Engine-level
    /// errors come back as `Err` for the caller to turn into a NACK.
    fn submit(&mut self, events: &[Event]) -> Result<u64, EngineError> {
        let engine = self.engine.as_mut().expect("engine live");
        for e in events {
            if self.registered.insert(e.stream.0) {
                engine.register(e.stream, StreamSpec::Embed(Arc::clone(&self.embed)))?;
            }
        }
        engine.submit(events)
    }

    fn handle_batch(
        &mut self,
        seq: u64,
        events: Vec<Event>,
        reply: &mpsc::Sender<Vec<u8>>,
    ) -> Result<(), DaemonError> {
        self.metrics.queue_depth.sub(1);
        if seq <= self.submitted {
            // Replay of an already-applied (or already-riding) batch —
            // a client journal after a crash: acknowledge-by-NACK so
            // the sender moves on.
            self.stale += 1;
            self.metrics.nack(nack::STALE);
            let nack = Frame::Nack {
                seq,
                code: nack::STALE,
                detail: format!("batch {seq} already applied (acked {})", self.acked),
            };
            let _ = reply.send(nack.encode());
            self.pool.put(events);
            return Ok(());
        }
        if seq != self.submitted + 1 {
            self.metrics.nack(nack::GAP);
            let nack = Frame::Nack {
                seq,
                code: nack::GAP,
                detail: format!("expected batch {}, got {seq}", self.submitted + 1),
            };
            let _ = reply.send(nack.encode());
            self.pool.put(events);
            return Ok(());
        }
        if !self.ingest_delay.is_zero() {
            std::thread::sleep(self.ingest_delay);
        }
        let n_events = events.len() as u64;
        if let Err(e) = self.submit(&events) {
            self.metrics.nack(nack::ENGINE);
            let nack = Frame::Nack {
                seq,
                code: nack::ENGINE,
                detail: format!("engine error {}: {e}", e.code()),
            };
            let _ = reply.send(nack.encode());
            self.pool.put(events);
            // A poisoned engine cannot make progress; exit loudly
            // rather than NACK every batch forever.
            if self
                .engine
                .as_ref()
                .is_some_and(|en| en.poisoned().is_some())
            {
                return Err(DaemonError::Engine(e));
            }
            return Ok(());
        }
        // The engine copied the events into its staging buffers, so the
        // frame buffer recycles immediately; the ACK waits for the
        // epoch's outputs.
        self.submitted = seq;
        self.inflight.push_back(Inflight {
            seq,
            n_events,
            reply: reply.clone(),
        });
        self.metrics.inflight_acks.set(self.inflight.len() as u64);
        self.pool.put(events);
        // Bound the in-flight window to the ring depth: beyond it the
        // shards are saturated and submitting more only buffers.
        while self.inflight.len() >= RING_CAPACITY {
            self.collect_one()?;
        }
        Ok(())
    }

    /// Collects the oldest in-flight epoch, writes its rows and sends
    /// its deferred ACK. Worker loss NACKs every riding batch and takes
    /// the daemon down typed, not hung.
    fn collect_one(&mut self) -> Result<(), DaemonError> {
        let Some(front) = self.inflight.pop_front() else {
            return Ok(());
        };
        self.metrics.inflight_acks.set(self.inflight.len() as u64);
        let engine = self.engine.as_mut().expect("engine live");
        let outs = match engine.collect_next() {
            Ok(Some((_, outs))) => outs,
            Ok(None) => unreachable!("one inflight entry per outstanding epoch"),
            Err(e) => {
                self.metrics.nack(nack::ENGINE);
                let nack = Frame::Nack {
                    seq: front.seq,
                    code: nack::ENGINE,
                    detail: format!("engine error {}: {e}", e.code()),
                };
                let _ = front.reply.send(nack.encode());
                for rider in self.inflight.drain(..) {
                    self.metrics.nack(nack::ENGINE);
                    let nack = Frame::Nack {
                        seq: rider.seq,
                        code: nack::ENGINE,
                        detail: format!("engine error {}: {e}", e.code()),
                    };
                    let _ = rider.reply.send(nack.encode());
                }
                self.metrics.inflight_acks.set(0);
                return Err(DaemonError::Engine(e));
            }
        };
        let mut emitted = 0u64;
        for o in outs {
            for s in o.samples {
                writeln!(self.writer, "{},{}", o.stream, s.value).map_err(DaemonError::from_io)?;
                emitted += 1;
            }
        }
        self.acked = front.seq;
        self.acked_pub.store(front.seq, Ordering::SeqCst);
        self.dirty = true;
        self.batches += 1;
        self.batches_since_ck += 1;
        self.events += front.n_events;
        let _ = front.reply.send(
            Frame::Ack {
                seq: front.seq,
                emitted,
            }
            .encode(),
        );
        if self.ck_every > 0 && self.batches_since_ck >= self.ck_every {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Collects (and ACKs) every in-flight epoch — the write barrier in
    /// front of anything that snapshots or finishes the engine.
    fn collect_all(&mut self) -> Result<(), DaemonError> {
        while !self.inflight.is_empty() {
            self.collect_one()?;
        }
        Ok(())
    }

    fn maybe_interval_checkpoint(&mut self) -> Result<(), DaemonError> {
        if let Some(interval) = self.ck_interval {
            if self.dirty && self.last_ck.elapsed() >= interval {
                self.write_checkpoint()?;
            }
        }
        Ok(())
    }

    /// Durable checkpoint: fsync the output so the recorded byte offset
    /// never points past data a crash could lose, then temp-file +
    /// fsync + rename the snapshot — a crash at any moment leaves the
    /// previous checkpoint or the new one, never a torn file.
    fn write_checkpoint(&mut self) -> Result<(), DaemonError> {
        let Some(path) = self.ck_path.clone() else {
            return Ok(());
        };
        let started = Instant::now();
        // Collect (and ACK) everything riding the rings first: the
        // snapshot will contain those epochs' effects, so the recorded
        // `acked_seq` must cover them or a resume would replay them
        // into sessions that already absorbed them.
        self.collect_all()?;
        self.writer.flush().map_err(DaemonError::from_io)?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(DaemonError::from_io)?;
        let mut file: &std::fs::File = self.writer.get_ref();
        let out_bytes = file.stream_position().map_err(DaemonError::from_io)?;
        let engine = self.engine.as_mut().expect("engine live");
        let mut ck = engine.checkpoint().map_err(DaemonError::Engine)?;
        ck.meta = DaemonMeta {
            acked_seq: self.acked,
            out_bytes,
            encoder: self.identity.encoder.clone(),
            wm_bits: self.identity.wm_bits.clone(),
            params: self.identity.params.clone(),
        }
        .to_bytes();
        let tmp = path.with_extension("ck-tmp");
        (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&ck.to_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        })()
        .map_err(DaemonError::from_io)?;
        self.dirty = false;
        self.batches_since_ck = 0;
        self.last_ck = Instant::now();
        self.metrics
            .checkpoint_write_seconds
            .observe_duration(started.elapsed());
        Ok(())
    }

    /// Graceful drain tail: final checkpoint, `Engine::finish`, tail
    /// rows, fsync, `SHUTDOWN_OK` to every drain requester.
    fn finalize(
        mut self,
        drain_replies: Vec<mpsc::Sender<Vec<u8>>>,
    ) -> Result<RunReport, DaemonError> {
        let started = Instant::now();
        if self.dirty {
            self.write_checkpoint()?;
        }
        let engine = self.engine.take().expect("engine live");
        let outcomes = engine.finish().map_err(DaemonError::Engine)?;
        let mut tail_rows = 0u64;
        for oc in &outcomes {
            for s in &oc.tail {
                writeln!(self.writer, "{},{}", oc.stream, s.value).map_err(DaemonError::from_io)?;
                tail_rows += 1;
            }
        }
        self.writer.flush().map_err(DaemonError::from_io)?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(DaemonError::from_io)?;
        let ok = Frame::ShutdownOk {
            streams: outcomes.len() as u64,
            tail_rows,
        }
        .encode();
        for r in &drain_replies {
            let _ = r.send(ok.clone());
        }
        self.metrics
            .drain_seconds
            .observe_duration(started.elapsed());
        Ok(self.into_report(Outcome::Drained, outcomes))
    }

    fn into_report(self, outcome: Outcome, outcomes: Vec<wms_engine::StreamOutcome>) -> RunReport {
        RunReport {
            outcome,
            batches: self.batches,
            events: self.events,
            shed: self.shed.load(Ordering::SeqCst),
            stale: self.stale,
            connections: 0, // filled in by the accept loop
            acked_seq: self.acked,
            outcomes,
        }
    }
}

/// A bound, ready-to-run daemon.
pub struct Server {
    cfg: DaemonConfig,
    listener: Listener,
    state: Option<EngineLoopSeed>,
    desc: String,
    metrics_listener: Option<Listener>,
    metrics_desc: Option<String>,
}

/// The pieces `bind` prepares for the engine thread.
struct EngineLoopSeed {
    engine: Engine,
    writer: BufWriter<std::fs::File>,
    registered: HashSet<u64>,
    acked: u64,
}

impl Server {
    /// Binds the endpoint and opens (or, with `resume`, re-adopts) the
    /// output file and checkpoint. All validation that can fail before
    /// serving happens here.
    pub fn bind(cfg: DaemonConfig) -> Result<Server, DaemonError> {
        if cfg.queue_depth == 0 {
            return Err(DaemonError::Config("queue depth must be >= 1".into()));
        }
        if (cfg.checkpoint_every > 0 || cfg.checkpoint_interval.is_some())
            && cfg.checkpoint.is_none()
        {
            return Err(DaemonError::Config(
                "checkpoint cadence configured without a checkpoint file".into(),
            ));
        }
        let seed = if cfg.resume {
            let ck_path = cfg.checkpoint.as_ref().ok_or_else(|| {
                DaemonError::Config("resume requested without a checkpoint file".into())
            })?;
            let bytes = std::fs::read(ck_path)
                .map_err(|e| DaemonError::Io(format!("{}: {e}", ck_path.display())))?;
            let ck = Checkpoint::from_bytes(&bytes)
                .map_err(|e| DaemonError::Corrupt(format!("{}: {e}", ck_path.display())))?;
            let meta = DaemonMeta::from_checkpoint(&ck)?;
            if meta.encoder != cfg.identity.encoder {
                return Err(DaemonError::Corrupt(format!(
                    "{}: checkpoint was taken with encoder {}, this run uses {} \
                     (resuming would embed a mixed, corrupt mark)",
                    ck_path.display(),
                    meta.encoder,
                    cfg.identity.encoder
                )));
            }
            if meta.wm_bits != cfg.identity.wm_bits {
                return Err(DaemonError::Corrupt(format!(
                    "{}: checkpoint embeds a different watermark than this run",
                    ck_path.display()
                )));
            }
            if meta.params != cfg.identity.params {
                return Err(DaemonError::Corrupt(format!(
                    "{}: checkpoint was taken under different scheme parameters \
                     ({}), this run uses {}",
                    ck_path.display(),
                    meta.params,
                    cfg.identity.params
                )));
            }
            let embed = Arc::clone(&cfg.embed);
            let engine = Engine::restore(cfg.engine.clone(), &ck, move |_| {
                Some(StreamSpec::Embed(Arc::clone(&embed)))
            })
            .map_err(|e| match &e {
                EngineError::Checkpoint(_) => {
                    DaemonError::Corrupt(format!("{}: {e}", ck_path.display()))
                }
                _ => DaemonError::Engine(e),
            })?;
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&cfg.output)
                .map_err(|e| DaemonError::Io(format!("{}: {e}", cfg.output.display())))?;
            let have = file.metadata().map_err(DaemonError::from_io)?.len();
            if have < meta.out_bytes {
                return Err(DaemonError::Corrupt(format!(
                    "{}: output file is shorter than the checkpoint expects \
                     ({have} < {} bytes) — not the file this checkpoint was taken against",
                    cfg.output.display(),
                    meta.out_bytes
                )));
            }
            // Drop rows written after the checkpoint; clients replay them.
            file.set_len(meta.out_bytes).map_err(DaemonError::from_io)?;
            let mut file = file;
            file.seek(SeekFrom::End(0)).map_err(DaemonError::from_io)?;
            EngineLoopSeed {
                engine,
                writer: BufWriter::new(file),
                registered: ck.streams().map(|s| s.0).collect(),
                acked: meta.acked_seq,
            }
        } else {
            let engine = Engine::new(cfg.engine.clone()).map_err(DaemonError::Engine)?;
            let mut writer = BufWriter::new(
                std::fs::File::create(&cfg.output)
                    .map_err(|e| DaemonError::Io(format!("{}: {e}", cfg.output.display())))?,
            );
            writeln!(writer, "# stream,value").map_err(DaemonError::from_io)?;
            EngineLoopSeed {
                engine,
                writer,
                registered: HashSet::new(),
                acked: 0,
            }
        };
        let listener = Listener::bind(&cfg.endpoint)
            .map_err(|e| DaemonError::Io(format!("bind {}: {e}", cfg.endpoint)))?;
        let desc = listener.local_desc();
        let metrics_listener = match &cfg.metrics_endpoint {
            Some(ep) => {
                Some(Listener::bind(ep).map_err(|e| DaemonError::Io(format!("bind {ep}: {e}")))?)
            }
            None => None,
        };
        let metrics_desc = metrics_listener.as_ref().map(|l| l.local_desc());
        Ok(Server {
            cfg,
            listener,
            state: Some(seed),
            desc,
            metrics_listener,
            metrics_desc,
        })
    }

    /// The concrete bound endpoint (useful when TCP port 0 was asked
    /// for, and for log lines).
    pub fn local_desc(&self) -> &str {
        &self.desc
    }

    /// The concrete bound metrics endpoint, when `--metrics` is on.
    pub fn metrics_local_desc(&self) -> Option<&str> {
        self.metrics_desc.as_deref()
    }

    /// The sequence number of the last batch the engine has applied
    /// (from the checkpoint when resuming, 0 when fresh).
    pub fn acked_seq(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.acked)
    }

    /// Serves until drained (SHUTDOWN frame or SIGTERM/SIGINT) or
    /// hard-stopped. Consumes the server; the report says how it ended.
    pub fn run(mut self) -> Result<RunReport, DaemonError> {
        sig::install();
        let seed = self.state.take().expect("bind populated state");
        let draining = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let acked_pub = Arc::new(AtomicU64::new(seed.acked));
        let shed = Arc::new(AtomicU64::new(0));
        let pool = Arc::new(Pool::new(self.cfg.queue_depth * 2));
        let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(self.cfg.queue_depth);

        let metrics = Arc::new(DaemonMetrics::new());
        let registry = Arc::new(Registry::new());
        metrics.register_into(&registry);
        seed.engine.metrics().register_into(&registry);

        let eng = EngineLoop {
            engine: Some(seed.engine),
            writer: seed.writer,
            registered: seed.registered,
            embed: Arc::clone(&self.cfg.embed),
            identity: self.cfg.identity.clone(),
            ck_path: self.cfg.checkpoint.clone(),
            ck_every: self.cfg.checkpoint_every,
            ck_interval: self.cfg.checkpoint_interval,
            last_ck: Instant::now(),
            batches_since_ck: 0,
            dirty: false,
            acked: seed.acked,
            submitted: seed.acked,
            inflight: VecDeque::new(),
            hard_stop_after: self.cfg.hard_stop_after,
            ingest_delay: self.cfg.ingest_delay,
            draining: Arc::clone(&draining),
            acked_pub: Arc::clone(&acked_pub),
            shed: Arc::clone(&shed),
            pool: Arc::clone(&pool),
            batches: 0,
            events: 0,
            stale: 0,
            metrics: Arc::clone(&metrics),
        };
        let fin = Arc::clone(&finished);
        let engine_thread = std::thread::Builder::new()
            .name("wmsd-engine".into())
            .spawn(move || {
                let r = eng.run(jobs_rx);
                fin.store(true, Ordering::SeqCst);
                r
            })
            .map_err(DaemonError::from_io)?;

        let shared = Shared {
            jobs: jobs_tx.clone(),
            draining: Arc::clone(&draining),
            acked_pub: Arc::clone(&acked_pub),
            shed: Arc::clone(&shed),
            pool: Arc::clone(&pool),
            overload: self.cfg.overload,
            fingerprint: self.cfg.identity.fingerprint,
            read_timeout: self.cfg.read_timeout,
            write_timeout: self.cfg.write_timeout,
            idle_timeout: self.cfg.idle_timeout,
            metrics: Arc::clone(&metrics),
            registry: Arc::clone(&registry),
        };

        let metrics_thread = self.metrics_listener.take().map(|l| {
            let reg = Arc::clone(&registry);
            let fin = Arc::clone(&finished);
            std::thread::Builder::new()
                .name("wmsd-metrics".into())
                .spawn(move || metrics_loop(l, reg, fin))
                .expect("spawn metrics listener")
        });

        self.listener
            .set_nonblocking(true)
            .map_err(DaemonError::from_io)?;
        let mut conns: Vec<Conn> = Vec::new();
        let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut connections = 0u64;
        while !finished.load(Ordering::SeqCst) {
            if sig::requested() {
                draining.store(true, Ordering::SeqCst);
            }
            match self.listener.accept() {
                Ok(conn) => {
                    connections += 1;
                    metrics.connections.inc();
                    match spawn_conn(conn, shared.clone()) {
                        Ok((reader, writer, handle)) => {
                            threads.push(reader);
                            threads.push(writer);
                            conns.push(handle);
                        }
                        Err(_) => continue, // peer vanished during setup
                    }
                }
                Err(e) if net::is_timeout(&e) => std::thread::sleep(ACCEPT_TICK),
                Err(_) => std::thread::sleep(ACCEPT_TICK), // transient accept failure
            }
        }

        // Engine is done (drained, hard-stopped, or failed): wake every
        // reader with EOF and collect the threads. Only the read half is
        // shut: each writer still flushes what its channel holds (the
        // SHUTDOWN_OK, the last ACKs) and closes once every sender of
        // that channel is gone.
        for c in &conns {
            let _ = c.shutdown_read();
        }
        drop(jobs_tx);
        let report = engine_thread
            .join()
            .unwrap_or_else(|_| Err(DaemonError::Config("engine thread panicked".into())));
        for t in threads {
            let _ = t.join();
        }
        if let Some(t) = metrics_thread {
            let _ = t.join();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.cfg.endpoint {
            let _ = std::fs::remove_file(path);
        }
        #[cfg(unix)]
        if let Some(Endpoint::Unix(path)) = &self.cfg.metrics_endpoint {
            let _ = std::fs::remove_file(path);
        }
        report.map(|mut r| {
            r.connections = connections;
            r
        })
    }
}

/// Spawns the reader and writer threads for one connection. Returns a
/// third handle to the socket, whose read half is shut at teardown.
fn spawn_conn(
    conn: Conn,
    shared: Shared,
) -> std::io::Result<(
    std::thread::JoinHandle<()>,
    std::thread::JoinHandle<()>,
    Conn,
)> {
    let write_half = conn.try_clone()?;
    let control = conn.try_clone()?;
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let wt = shared.write_timeout;
    let writer = std::thread::Builder::new()
        .name("wmsd-writer".into())
        .spawn(move || writer_loop(write_half, reply_rx, wt))?;
    let reader = std::thread::Builder::new()
        .name("wmsd-reader".into())
        .spawn(move || reader_loop(conn, shared, reply_tx))?;
    Ok((reader, writer, control))
}

/// Flushes reply frames to the peer. A write error (including a write
/// timeout — the stalled half-open case) abandons the connection; the
/// socket shutdown wakes the reader too.
fn writer_loop(mut conn: Conn, rx: mpsc::Receiver<Vec<u8>>, write_timeout: Duration) {
    let _ = conn.set_write_timeout(Some(write_timeout));
    while let Ok(bytes) = rx.recv() {
        if conn.write_all(&bytes).and_then(|_| conn.flush()).is_err() {
            break;
        }
    }
    // All reply senders gone (reader exited, engine flushed every
    // pending ACK) or the peer is dead: close both directions.
    let _ = conn.shutdown();
}

/// Decodes frames off one connection and routes them. Exits on EOF,
/// socket error, idle timeout, or the first protocol error (after
/// sending a typed `BAD_FRAME` NACK).
fn reader_loop(mut conn: Conn, sh: Shared, reply_tx: mpsc::Sender<Vec<u8>>) {
    use std::io::Read;
    let _ = conn.set_read_timeout(Some(sh.read_timeout));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    // Lowest batch sequence this connection has shed and not yet seen
    // accepted (the sticky-shed rule; see `handle_raw`).
    let mut shed_from: Option<u64> = None;
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return, // clean EOF
            Ok(n) => {
                last_activity = Instant::now();
                dec.push(&buf[..n]);
                loop {
                    match dec.try_raw() {
                        Ok(None) => break,
                        Ok(Some(raw)) => {
                            if !handle_raw(raw, &sh, &reply_tx, &mut shed_from) {
                                return;
                            }
                        }
                        Err(e) => {
                            send_proto_nack(&reply_tx, &sh.metrics, &e);
                            return;
                        }
                    }
                }
            }
            Err(e) if net::is_timeout(&e) => {
                if last_activity.elapsed() >= sh.idle_timeout {
                    return; // reap the idle / half-open connection
                }
            }
            Err(_) => return,
        }
    }
}

fn send_proto_nack(reply_tx: &mpsc::Sender<Vec<u8>>, metrics: &DaemonMetrics, e: &ProtoError) {
    metrics.nack(nack::BAD_FRAME);
    let nack = Frame::Nack {
        seq: 0,
        code: nack::BAD_FRAME,
        detail: format!("protocol error {}: {e}", e.code()),
    };
    let _ = reply_tx.send(nack.encode());
}

/// Refuses a batch with a typed `OVERLOADED` NACK, counts the shed and
/// recycles the buffer.
fn shed_batch(
    sh: &Shared,
    reply_tx: &mpsc::Sender<Vec<u8>>,
    seq: u64,
    events: Vec<Event>,
    detail: String,
) {
    sh.pool.put(events);
    sh.shed.fetch_add(1, Ordering::SeqCst);
    sh.metrics.sheds.inc();
    sh.metrics.nack(nack::OVERLOADED);
    let nack = Frame::Nack {
        seq,
        code: nack::OVERLOADED,
        detail,
    };
    let _ = reply_tx.send(nack.encode());
}

/// Handles one well-framed message. Returns `false` to close the
/// connection.
///
/// `shed_from` is the connection's sticky-shed mark: once batch k is
/// shed, every later batch (seq > k) on the connection is shed too,
/// without touching the queue, until k itself is accepted. A batch thus
/// never reaches the engine behind a hole this connection opened, and a
/// `GAP` refusal means a client bug.
fn handle_raw(
    raw: proto::RawFrame,
    sh: &Shared,
    reply_tx: &mpsc::Sender<Vec<u8>>,
    shed_from: &mut Option<u64>,
) -> bool {
    sh.metrics.frame(raw.ty);
    match raw.ty {
        frame_type::BATCH => {
            let mut events = sh.pool.take();
            let seq = match decode_batch_into(&raw.payload, &mut events) {
                Ok(seq) => seq,
                Err(e) => {
                    sh.pool.put(events);
                    send_proto_nack(reply_tx, &sh.metrics, &e);
                    return false;
                }
            };
            if sh.draining.load(Ordering::SeqCst) {
                sh.pool.put(events);
                sh.metrics.nack(nack::DRAINING);
                let nack = Frame::Nack {
                    seq,
                    code: nack::DRAINING,
                    detail: "daemon is draining; batch not accepted".into(),
                };
                let _ = reply_tx.send(nack.encode());
                return true;
            }
            if let Some(k) = shed_from.filter(|&k| seq > k) {
                shed_batch(
                    sh,
                    reply_tx,
                    seq,
                    events,
                    format!("batch {k} was shed; resend from it"),
                );
                return true;
            }
            let job = Job::Batch {
                seq,
                events,
                reply: reply_tx.clone(),
            };
            // The gauge goes up before the send and the engine thread
            // takes it down when the job is dequeued, so it can read
            // one high, never negative.
            sh.metrics.queue_depth.add(1);
            match sh.overload {
                OverloadPolicy::Block => match sh.jobs.try_send(job) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(job)) => {
                        sh.metrics.blocks.inc();
                        if let Err(mpsc::SendError(job)) = sh.jobs.send(job) {
                            sh.metrics.queue_depth.sub(1);
                            refuse_dead_engine(job, sh, reply_tx);
                        }
                    }
                    Err(mpsc::TrySendError::Disconnected(job)) => {
                        sh.metrics.queue_depth.sub(1);
                        refuse_dead_engine(job, sh, reply_tx);
                    }
                },
                OverloadPolicy::Shed => match sh.jobs.try_send(job) {
                    Ok(()) => {
                        if *shed_from == Some(seq) {
                            *shed_from = None;
                        }
                    }
                    Err(mpsc::TrySendError::Full(job)) => {
                        sh.metrics.queue_depth.sub(1);
                        if let Job::Batch { events, .. } = job {
                            *shed_from = Some(shed_from.map_or(seq, |k| k.min(seq)));
                            shed_batch(
                                sh,
                                reply_tx,
                                seq,
                                events,
                                "ingest queue full; batch shed".into(),
                            );
                        }
                    }
                    Err(mpsc::TrySendError::Disconnected(job)) => {
                        sh.metrics.queue_depth.sub(1);
                        refuse_dead_engine(job, sh, reply_tx);
                    }
                },
            }
            true
        }
        frame_type::HELLO => match Frame::decode(raw.ty, &raw.payload) {
            Ok(Frame::Hello { proto, .. }) => {
                if proto != proto::VERSION as u16 {
                    sh.metrics.nack(nack::UNSUPPORTED);
                    let nack = Frame::Nack {
                        seq: 0,
                        code: nack::UNSUPPORTED,
                        detail: format!(
                            "protocol version {proto} not supported (server speaks {})",
                            proto::VERSION
                        ),
                    };
                    let _ = reply_tx.send(nack.encode());
                    return true;
                }
                let ok = Frame::HelloOk {
                    proto: proto::VERSION as u16,
                    acked_seq: sh.acked_pub.load(Ordering::SeqCst),
                    fingerprint: sh.fingerprint,
                };
                let _ = reply_tx.send(ok.encode());
                true
            }
            // decode() honors the frame type, so this arm is dead; a
            // NACK keeps the no-panic guarantee if that ever changes.
            Ok(_) => {
                send_proto_nack(
                    reply_tx,
                    &sh.metrics,
                    &ProtoError::Malformed("hello decoded oddly".into()),
                );
                false
            }
            Err(e) => {
                send_proto_nack(reply_tx, &sh.metrics, &e);
                false
            }
        },
        frame_type::SHUTDOWN => {
            sh.draining.store(true, Ordering::SeqCst);
            let job = Job::Drain {
                reply: Some(reply_tx.clone()),
            };
            if sh.jobs.send(job).is_err() {
                // Engine already gone (double shutdown): still answer.
                sh.metrics.nack(nack::DRAINING);
                let nack = Frame::Nack {
                    seq: 0,
                    code: nack::DRAINING,
                    detail: "daemon already drained".into(),
                };
                let _ = reply_tx.send(nack.encode());
            }
            true
        }
        // Answered on the reader thread (no engine round-trip), and
        // never refused — operators need visibility most mid-drain.
        frame_type::STATS => {
            let ok = Frame::StatsOk {
                text: sh.registry.render(),
            };
            let _ = reply_tx.send(ok.encode());
            true
        }
        // Server-to-client frame types arriving at the server are a
        // protocol violation by a confused peer.
        other => {
            sh.metrics.nack(nack::BAD_FRAME);
            let nack = Frame::Nack {
                seq: 0,
                code: nack::BAD_FRAME,
                detail: format!("unexpected frame type {other} from a client"),
            };
            let _ = reply_tx.send(nack.encode());
            false
        }
    }
}

/// The engine stopped while a batch was in flight: refuse it with a
/// typed NACK (never a silent drop) and recycle the buffer.
fn refuse_dead_engine(job: Job, sh: &Shared, reply_tx: &mpsc::Sender<Vec<u8>>) {
    if let Job::Batch { seq, events, .. } = job {
        sh.pool.put(events);
        sh.metrics.nack(nack::DRAINING);
        let nack = Frame::Nack {
            seq,
            code: nack::DRAINING,
            detail: "daemon stopped before the batch was applied".into(),
        };
        let _ = reply_tx.send(nack.encode());
    }
}

/// The `--metrics` scrape listener: accepts one connection at a time,
/// reads (and discards) whatever request line arrives, and answers with
/// the registry's text exposition wrapped in a minimal HTTP/1.0
/// response so `curl` and Prometheus-style pollers both work. Exits
/// when the engine thread finishes.
fn metrics_loop(listener: Listener, registry: Arc<Registry>, finished: Arc<AtomicBool>) {
    use std::io::Read;
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !finished.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(mut conn) => {
                let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
                let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
                // Drain the request until the header terminator (or a
                // timeout / EOF): plain `nc` sends nothing, curl sends
                // a GET — either way the reply is the same.
                let mut buf = [0u8; 1024];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                                break;
                            }
                        }
                    }
                }
                let body = registry.render();
                let resp = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = conn.write_all(resp.as_bytes());
                let _ = conn.flush();
                let _ = conn.shutdown();
            }
            Err(e) if net::is_timeout(&e) => std::thread::sleep(ACCEPT_TICK),
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}
