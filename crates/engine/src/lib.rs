//! # wms-engine
//!
//! Sharded multi-stream watermarking engine: the paper's single-stream
//! pipeline ([`wms_core`]) lifted into a multi-tenant service core.
//!
//! * **Session registry** — every live stream is a [`StreamId`]-keyed
//!   session owning its per-stream state
//!   ([`EmbedSession`](wms_core::EmbedSession) /
//!   [`DetectSession`](wms_core::DetectSession)); the immutable
//!   configuration ([`EmbedConfig`] /
//!   [`DetectConfig`]) is shared across streams behind an `Arc`, so a
//!   tenant with one key and thousands of sensors pays for the scheme
//!   once.
//! * **Batched ingestion** — [`Engine::ingest`] takes a slice of
//!   interleaved [`Event`]s, groups them by shard, and returns each
//!   touched stream's emitted samples.
//! * **Parallel shard executor** — per-shard bounded ingest rings with
//!   epoch watermarks (the workspace is offline: threads and
//!   condvars, no async runtime). The caller routes each batch once
//!   into per-shard staging buffers with pre-resolved session-slot run
//!   descriptors, publishes them, and synchronizes only when an output
//!   or snapshot is actually needed — [`Engine::submit`] /
//!   [`Engine::collect_next`] let back-to-back batches pipeline, and
//!   the caller itself help-drains rings whenever it would otherwise
//!   block, so a saturated host degrades to inline processing instead
//!   of context-switch ping-pong. With exactly **one** worker the
//!   engine keeps the shard on the caller thread and skips the rings
//!   entirely, which recovers the sequential pipeline's throughput for
//!   single-shard workloads.
//! * **Checkpoint/restore** — [`Engine::checkpoint`] captures every
//!   session's replay state in a versioned binary [`Checkpoint`];
//!   [`Engine::restore`] rebuilds an engine that continues
//!   **bit-identically** to one that never stopped.
//!
//! ## Ordering and determinism
//!
//! Samples of one stream are processed in the order they appear in the
//! ingest batches, and batches in call order — so each session sees
//! exactly the sample sequence a dedicated single-stream pipeline would,
//! and its outputs are **bit-identical** to that pipeline's (the
//! equivalence tests in `tests/` prove it). Result ordering never
//! depends on thread timing: `ingest` returns streams in first-touch
//! order of the input batch, [`Engine::finish`] returns them in
//! registration order, whatever the worker count.
//!
//! Shard assignment is keyed hashing through [`wms_crypto`]
//! ([`ShardRouter`]), not `DefaultHasher`, so a stream's shard is stable
//! across runs, processes and Rust versions for a given engine key and
//! shard count.
//!
//! ## Checkpoints
//!
//! A [`Checkpoint`] is taken at a batch boundary (between `ingest`
//! calls): the engine barriers over its shards, snapshots every session
//! in registration order without disturbing it, and hands back a
//! structure the caller can serialize ([`Checkpoint::to_bytes`]) and
//! persist. [`Engine::restore`] re-adopts the sessions under
//! caller-resolved [`StreamSpec`]s; each session snapshot is stamped
//! with its scheme's
//! [`memo_fingerprint`](wms_core::Scheme::memo_fingerprint), so a
//! restore against a different key/τ/γ/α fails with a typed
//! [`CheckpointError`] instead of silently losing watermark sync. The
//! worker count is *not* part of the state: a checkpoint taken on 8
//! workers restores onto 1 (or vice versa) and still replays
//! bit-identically.
//!
//! ## Worker loss
//!
//! A panic inside a session (a bug in an encoder, a poisoned stream)
//! does not cascade: the worker catches it, reports the shard as lost,
//! and [`Engine::ingest`]/[`Engine::finish`]/[`Engine::checkpoint`]
//! surface [`EngineError::WorkerLost`] on the caller thread. The engine
//! is poisoned afterwards — the lost shard's sessions are gone — and
//! every later call returns the same error; dropping the engine remains
//! safe and panic-free.
//!
//! ## Backpressure
//!
//! [`Engine::ingest`] is synchronous: it publishes one sub-batch per
//! shard and blocks until its own epoch's watermark is reached (helping
//! to drain while it waits). The pipelined path ([`Engine::submit`])
//! buffers at most [`RING_CAPACITY`] sub-batches per shard; a full ring
//! makes the publisher drain an entry itself before parking, so
//! backpressure converts into useful work instead of a stall.
//!
//! ## Bounded memory (hibernation)
//!
//! With a [`MemoryBudget`] configured, the engine caps how many sessions
//! stay resident. Cold sessions — least recently touched first — are
//! *hibernated*: serialized with the same `WMSS` snapshot encoding
//! checkpoints use and parked in an append-only, periodically compacted
//! [`SpillFile`] (in-memory by default, file-backed via
//! [`SpillTarget::File`]). A touched hibernated stream is transparently
//! re-adopted (spill read → checksum check → `restore()` → fingerprint
//! check) before its batch processes, so callers never see the
//! difference: outputs stay **bit-identical** to an unbudgeted engine,
//! whatever gets evicted when. This is what turns a registry of a
//! million streams from "a million resident windows" into "ten thousand
//! resident windows plus a log" — see `Engine::hibernate`,
//! [`Engine::resident_streams`] and the registry rows in
//! `BENCH_engine.json`.
//!
//! The budget counts *sessions*, the unit the paper's state model is
//! priced in (one sliding window + labeler state ≈ a few kB); eviction
//! is enforced at batch boundaries, so one batch touching more than
//! `max_resident` distinct streams transiently exceeds the cap and is
//! trimmed back when the call returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
mod spill;
mod worker;

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use wms_core::checkpoint::{ByteReader, ByteWriter};
pub use wms_core::CheckpointError;
use wms_core::{DetectConfig, DetectionReport, EmbedConfig, EmbedStats};
use wms_crypto::{Key, KeyedHash};
use wms_stream::Sample;
pub use wms_stream::{Event, StreamId};
use worker::{Entry, Ring, Session, Shard};

pub use metrics::EngineMetrics;
pub use spill::{SpillError, SpillFile, SpillStats};

/// How a registered stream processes its samples.
#[derive(Clone)]
pub enum StreamSpec {
    /// Watermark-embedding session; emits (possibly altered) samples.
    Embed(Arc<EmbedConfig>),
    /// Detection session; emits nothing until `finish`, which yields its
    /// [`DetectionReport`].
    Detect(Arc<DetectConfig>),
    /// Test-only fault injection: the session panics while processing
    /// its `panic_after`-th sample (1-based; `0` behaves as `1`). Exists
    /// so the worker-loss path has a deterministic regression test; a
    /// production registry has no reason to construct it.
    #[doc(hidden)]
    FaultInject {
        /// Sample number whose processing panics.
        panic_after: u64,
    },
    /// Pass-through session: counts samples, emits nothing, costs almost
    /// nothing. Exists so benchmarks can measure the engine's own
    /// overhead (routing, batching, registry, eviction) isolated from
    /// the watermark windowing cost, and so capacity experiments can
    /// register millions of streams without paying for real sessions.
    NoOp,
}

/// Samples one stream emitted while a batch was ingested.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The stream that produced the samples.
    pub stream: StreamId,
    /// Emitted samples, in stream order (empty when the window retained
    /// everything — detection streams always report empty here).
    pub samples: Vec<Sample>,
}

/// Final state of one stream after [`Engine::finish`].
#[derive(Debug)]
pub struct StreamOutcome {
    /// The stream this outcome describes.
    pub stream: StreamId,
    /// Residual samples drained from an embedding session's window
    /// (empty for detection streams).
    pub tail: Vec<Sample>,
    /// Embedding counters (embedding streams only).
    pub embed_stats: Option<EmbedStats>,
    /// Detection report (detection streams only).
    pub report: Option<DetectionReport>,
}

/// Engine construction/ingestion errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `register` was called twice for the same id.
    DuplicateStream(StreamId),
    /// An ingested event names an unregistered stream.
    UnknownStream(StreamId),
    /// A shard worker panicked. Its sessions are lost and the engine is
    /// poisoned: every further `ingest`/`checkpoint`/`finish` returns
    /// this error (dropping the engine stays safe).
    WorkerLost {
        /// The shard whose worker was lost.
        shard: usize,
    },
    /// [`Engine::restore`] could not resolve a [`StreamSpec`] for a
    /// stream recorded in the checkpoint.
    MissingSpec(StreamId),
    /// A checkpoint could not be decoded or applied (truncation, version
    /// skew, or a scheme-fingerprint mismatch) — or a spilled session's
    /// record was corrupt when the engine tried to re-adopt it.
    Checkpoint(CheckpointError),
    /// The spill store failed at the I/O level (disk full, permissions,
    /// the file vanished). Session state may sit only in the spill, so
    /// the engine is poisoned once this happens.
    SpillIo(String),
    /// A draining call (`ingest`, `finish`) was made while pipelined
    /// epochs submitted via [`Engine::submit`] still had uncollected
    /// outputs. Collect them first ([`Engine::collect_next`]); nothing
    /// was lost and the engine is *not* poisoned.
    UncollectedEpochs,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DuplicateStream(id) => write!(f, "stream {id} already registered"),
            EngineError::UnknownStream(id) => write!(f, "stream {id} is not registered"),
            EngineError::WorkerLost { shard } => write!(
                f,
                "shard {shard} worker lost to a panic; the engine is poisoned"
            ),
            EngineError::MissingSpec(id) => {
                write!(f, "no spec resolved for checkpointed stream {id}")
            }
            EngineError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            EngineError::SpillIo(msg) => {
                write!(f, "spill store failed ({msg}); the engine is poisoned")
            }
            EngineError::UncollectedEpochs => {
                write!(
                    f,
                    "submitted epochs have uncollected outputs; collect them first"
                )
            }
        }
    }
}

impl EngineError {
    /// Stable small-integer identity for this error variant, mirroring
    /// [`CheckpointError::code`]: used for CLI exit-code mapping and
    /// `wmsd` NACK details. Append new values, never renumber.
    /// `Checkpoint` nests the inner code in the high byte so e.g. a
    /// fingerprint mismatch inside an engine restore stays
    /// distinguishable.
    pub fn code(&self) -> u16 {
        match self {
            EngineError::DuplicateStream(_) => 1,
            EngineError::UnknownStream(_) => 2,
            EngineError::WorkerLost { .. } => 3,
            EngineError::MissingSpec(_) => 4,
            EngineError::Checkpoint(c) => 0x100 | c.code(),
            EngineError::SpillIo(_) => 5,
            EngineError::UncollectedEpochs => 6,
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

impl From<SpillError> for EngineError {
    fn from(e: SpillError) -> Self {
        match e {
            SpillError::Io(msg) => EngineError::SpillIo(msg),
            // Corruption keeps its typed shape: callers can distinguish
            // a checksum mismatch from a truncation from version skew.
            SpillError::Corrupt(c) => EngineError::Checkpoint(c),
        }
    }
}

/// Deterministic keyed `StreamId -> shard` routing.
///
/// Uses the workspace's keyed one-way hash rather than
/// `std::hash::DefaultHasher`: the standard hasher is seeded per process
/// and its algorithm is not stable across Rust versions, so shard
/// assignment would change from run to run. Keyed MD5 of the id under a
/// fixed engine key is stable everywhere and costs one compression per
/// route (amortized to zero by batching).
#[derive(Clone)]
pub struct ShardRouter {
    hash: KeyedHash,
    shards: usize,
}

/// Domain-separation prefix for shard routing.
const SHARD_DOMAIN: &[u8] = b"wms/engine/shard";

impl ShardRouter {
    /// Router over `shards` shards keyed by `key` (`shards >= 1`).
    pub fn new(key: Key, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        ShardRouter {
            hash: KeyedHash::md5(key),
            shards,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `id`.
    pub fn shard_of(&self, id: StreamId) -> usize {
        (self
            .hash
            .hash_u64_parts(&[SHARD_DOMAIN, &id.0.to_le_bytes()])
            % self.shards as u64) as usize
    }
}

/// Where hibernated sessions are parked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpillTarget {
    /// An anonymous in-memory log: bounds *session* memory (windows,
    /// labelers, counters) while keeping the cold bytes in RAM. The
    /// default.
    Memory,
    /// An append-only log at this path, created if absent. A
    /// pre-existing log is reopened — its index is rebuilt and any torn
    /// tail from a crash is truncated — then cleared: checkpoints are
    /// self-contained, so records from a previous process are stale by
    /// definition.
    File(PathBuf),
}

/// Session-residency budget: how many sessions may stay materialized,
/// and where the cold ones go.
///
/// `max_resident == 0` (the default) disables eviction entirely — the
/// engine behaves exactly as before this knob existed, and the ingest
/// hot path pays nothing for it. With a budget, the engine keeps
/// per-shard residency accounts and evicts least-recently-touched
/// sessions down to the budget at every batch boundary (with a small
/// hysteresis so a registry hovering at the cap doesn't evict one
/// session per call). Eviction is invisible in the outputs: the
/// equivalence tests pin byte-identical results against an unbudgeted
/// engine across worker counts and eviction schedules.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    /// Maximum resident sessions across all shards (`0` = unbounded).
    pub max_resident: usize,
    /// Where evicted sessions are parked.
    pub spill: SpillTarget,
    /// Garbage fraction of the spill log that triggers compaction
    /// (`>= 1.0` disables auto-compaction; explicit compaction is still
    /// available on [`SpillFile`]).
    pub compact_ratio: f64,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget {
            max_resident: 0,
            spill: SpillTarget::Memory,
            compact_ratio: 0.5,
        }
    }
}

impl MemoryBudget {
    /// Budget of `max_resident` sessions spilling to memory.
    pub fn resident(max_resident: usize) -> Self {
        MemoryBudget {
            max_resident,
            ..MemoryBudget::default()
        }
    }

    /// Same budget, spilling to a file at `path`.
    pub fn with_spill_file(mut self, path: PathBuf) -> Self {
        self.spill = SpillTarget::File(path);
        self
    }
}

/// Per-shard ring capacity: how many published sub-batches may sit
/// unapplied before the publisher help-drains or parks. Also the depth
/// of the `wmsd` deferred-ACK window, which keeps at most this many
/// submitted epochs uncollected.
pub const RING_CAPACITY: usize = 8;

/// Engine construction parameters.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads (= shards). `0` means one per available core.
    pub workers: usize,
    /// Key for the shard router. The default is a fixed public constant:
    /// shard placement is a load-balancing concern, not a secret, and a
    /// fixed key keeps placement reproducible across deployments.
    pub shard_key: Key,
    /// Session-residency budget (default: unbounded, no eviction).
    pub budget: MemoryBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            shard_key: Key::from_bytes(&b"wms/engine/default-shard-key"[..]),
            budget: MemoryBudget::default(),
        }
    }
}

impl EngineConfig {
    /// Config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    /// Same config with a session-residency budget.
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Checkpoint format magic.
const CK_MAGIC: [u8; 4] = *b"WMSC";
/// Newest engine checkpoint version this build reads and writes.
const CK_VERSION: u16 = 1;

/// One stream's entry in a checkpoint: its id, session kind tag, and
/// versioned session snapshot bytes.
struct CheckpointStream {
    id: StreamId,
    kind: u8,
    snapshot: Vec<u8>,
}

/// A consistent engine state captured at a batch boundary.
///
/// Contains every registered session's replay state in registration
/// order, plus a caller-defined `meta` blob (resume bookkeeping such as
/// an input cursor — the engine carries it verbatim and never reads it).
/// Serialize with [`to_bytes`](Self::to_bytes), decode with
/// [`from_bytes`](Self::from_bytes), re-animate with
/// [`Engine::restore`].
pub struct Checkpoint {
    /// Caller-defined resume metadata, carried verbatim.
    pub meta: Vec<u8>,
    streams: Vec<CheckpointStream>,
}

impl Checkpoint {
    /// Serializes to the versioned binary format (magic `WMSC`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_magic(CK_MAGIC);
        w.put_u16(CK_VERSION);
        w.put_bytes(&self.meta);
        w.put_u64(self.streams.len() as u64);
        for s in &self.streams {
            w.put_u64(s.id.0);
            w.put_u8(s.kind);
            w.put_bytes(&s.snapshot);
        }
        w.into_bytes()
    }

    /// Decodes a [`to_bytes`](Self::to_bytes) image, rejecting
    /// truncation, trailing garbage and unknown versions.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = ByteReader::with_magic(bytes, CK_MAGIC)?;
        let version = r.get_u16()?;
        if version != CK_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CK_VERSION,
            });
        }
        let meta = r.get_bytes()?.to_vec();
        let n = r.get_len(17)?;
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let id = StreamId(r.get_u64()?);
            let kind = r.get_u8()?;
            let snapshot = r.get_bytes()?.to_vec();
            streams.push(CheckpointStream { id, kind, snapshot });
        }
        r.finish()?;
        Ok(Checkpoint { meta, streams })
    }

    /// The checkpointed streams, in their registration order.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.streams.iter().map(|s| s.id)
    }

    /// Number of checkpointed streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }
}

/// Where the shards live: inline on the caller thread (single worker) or
/// behind per-shard ingest rings with worker threads.
enum Backend {
    /// `workers == 1`: no thread, no ring — every batch runs on the
    /// caller thread against the directly-owned shard. This is what
    /// makes single-shard batches as fast as the sequential pipeline.
    Inline {
        shard: Box<Shard>,
        /// Outputs of submitted epochs (computed at submit time), in
        /// submission order, awaiting collection.
        ready: VecDeque<(u64, Vec<Output>)>,
    },
    /// `workers > 1`: one bounded ring + drainer thread per shard, the
    /// caller helping out whenever it waits.
    Ring(RingBackend),
}

/// The ring executor plus the caller-side routing state that feeds it.
struct RingBackend {
    ring: Ring,
    /// Scratch: per-shard staging buffers the router fills, swapped into
    /// ring entries on publish and refilled from `buf_pool`.
    staging: Vec<Staging>,
    /// Recycled event/run buffers cycling staging → ring → back.
    buf_pool: Vec<worker::BufPair>,
    /// Per-shard ring sequence of the last published entry.
    published: Vec<u64>,
    /// Submitted epochs whose outputs have not been collected yet.
    outstanding: VecDeque<EpochMeta>,
    /// Recycled epoch metadata records.
    meta_pool: Vec<EpochMeta>,
}

/// One registered stream's registry entry. The spec is retained so a
/// hibernated session can be rebuilt on re-adoption; it is `Arc`-backed,
/// so the per-stream cost is a pointer, not a scheme.
struct StreamEntry {
    /// The shard hosting (or, if hibernated, designated to re-host)
    /// this stream: the router's placement.
    shard: usize,
    /// Slot index inside the shard (valid only while `resident`). Routing
    /// emits `(slot, len)` run descriptors so the ingest consumer never
    /// hashes a stream id.
    slot: u32,
    spec: StreamSpec,
    /// Value of the engine clock when this stream was last registered or
    /// touched by an ingest; the LRU sort key.
    last_touch: u64,
    /// Whether the session is materialized in its shard (vs spilled).
    resident: bool,
    /// Epoch of the last batch that touched this stream (first-touch
    /// detection at routing time without a per-batch hash map).
    epoch_stamp: u64,
}

/// Engine-side record of one submitted epoch awaiting collection.
struct EpochMeta {
    epoch: u64,
    /// Streams touched by the batch, in first-touch order — the output
    /// order contract, fixed at routing time regardless of which thread
    /// applies what.
    touch_order: Vec<StreamId>,
    /// `id -> index in touch_order`, for merging per-shard results.
    slot_of: HashMap<u64, u32>,
    /// Participating shards and the ring sequence number of this
    /// epoch's entry there — the watermark targets to wait on.
    shard_seq: Vec<(u32, u64)>,
}

impl EpochMeta {
    fn new() -> EpochMeta {
        EpochMeta {
            epoch: 0,
            touch_order: Vec::new(),
            slot_of: HashMap::new(),
            shard_seq: Vec::new(),
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.touch_order.clear();
        self.slot_of.clear();
        self.shard_seq.clear();
    }
}

/// Per-shard staging buffer the router fills before publishing.
#[derive(Default)]
struct Staging {
    events: Vec<Event>,
    runs: Vec<(u32, u32)>,
}

/// The multi-stream engine: session registry + shard executor.
pub struct Engine {
    router: ShardRouter,
    backend: Backend,
    /// Registry: `id -> entry`, also the duplicate/unknown-id check.
    streams: HashMap<u64, StreamEntry>,
    /// Registration order (drives `finish` output ordering).
    order: Vec<StreamId>,
    /// Monotonic batch counter (one per `ingest`/`submit`).
    epoch: u64,
    /// First fatal error (worker panic, spill I/O failure); replayed by
    /// every subsequent operation.
    poison: Option<EngineError>,
    /// Resident-session cap (`0` = unbounded).
    max_resident: usize,
    /// Hibernated sessions, keyed by stream id.
    spill: SpillFile,
    /// `(last_touch, id)` of every resident stream — the LRU order.
    /// Maintained only when a budget is active, so unbudgeted engines
    /// pay nothing on the hot path.
    lru: BTreeSet<(u64, u64)>,
    /// Monotonic touch clock: one tick per ingest call or registration.
    clock: u64,
    resident_count: usize,
    spilled_count: usize,
    /// Per-shard residency accounts (diagnostics; the budget itself is
    /// global, so a hot shard may hold more than its share).
    resident_per_shard: Vec<usize>,
    /// Always-on telemetry handles (relaxed atomics; see [`metrics`]).
    metrics: Arc<EngineMetrics>,
    /// Spill compaction count last mirrored into the metrics, so the
    /// counter advances by deltas of [`SpillStats::compactions`].
    spill_compactions_seen: u64,
}

impl Engine {
    /// Spawns the shard executor (or adopts the single shard inline) and
    /// opens the spill store.
    ///
    /// Fails with [`EngineError::SpillIo`] when a file spill target
    /// cannot be opened, and with [`EngineError::Checkpoint`] when a
    /// pre-existing spill log is damaged beyond the torn tail a crash
    /// legitimately leaves.
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let spill = match &config.budget.spill {
            SpillTarget::Memory => SpillFile::in_memory(config.budget.compact_ratio),
            SpillTarget::File(path) => {
                let mut s = SpillFile::open(path, config.budget.compact_ratio)?;
                // A reopened log's records belong to a previous process;
                // every live session arrives via register/restore, so
                // they are stale. (The reopen still mattered: it
                // truncated any torn tail and proved the log readable.)
                s.clear()?;
                s
            }
        };
        let router = ShardRouter::new(config.shard_key, workers);
        let metrics = Arc::new(EngineMetrics::new(workers));
        let backend = if workers == 1 {
            Backend::Inline {
                shard: Box::new(Shard::new()),
                ready: VecDeque::new(),
            }
        } else {
            // On a single-core host, waking a worker per publish cannot
            // add throughput (the caller help-drains everything anyway),
            // so publishes stay silent and the workers only wake for
            // shutdown; with spare cores, workers wake eagerly.
            let eager_wake = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                > 1;
            Backend::Ring(RingBackend {
                ring: Ring::new(
                    workers,
                    eager_wake,
                    metrics.ring_depth.clone(),
                    metrics.ring_high_water.clone(),
                ),
                staging: (0..workers).map(|_| Staging::default()).collect(),
                buf_pool: Vec::new(),
                published: vec![0; workers],
                outstanding: VecDeque::new(),
                meta_pool: Vec::new(),
            })
        };
        Ok(Engine {
            router,
            backend,
            streams: HashMap::new(),
            order: Vec::new(),
            epoch: 0,
            poison: None,
            max_resident: config.budget.max_resident,
            spill,
            lru: BTreeSet::new(),
            clock: 0,
            resident_count: 0,
            spilled_count: 0,
            resident_per_shard: vec![0; workers],
            metrics,
            spill_compactions_seen: 0,
        })
    }

    /// Rebuilds an engine from a [`Checkpoint`], resolving each
    /// checkpointed stream's [`StreamSpec`] through `spec_of` (specs
    /// hold key material and trait objects, so they cannot live inside
    /// the checkpoint itself). Streams are re-registered in their
    /// original registration order; the worker count may differ from the
    /// checkpointing engine's — shard placement is recomputed and the
    /// replay stays bit-identical.
    ///
    /// Fails with [`EngineError::MissingSpec`] when `spec_of` cannot name
    /// a stream, and with [`EngineError::Checkpoint`] when a session
    /// snapshot does not decode under its spec — in particular
    /// [`CheckpointError::FingerprintMismatch`] when the spec's scheme
    /// (key/τ/γ/α) differs from the one the snapshot was taken under.
    ///
    /// With a [`MemoryBudget`], the first `max_resident` streams (in
    /// checkpoint order) are materialized and validated eagerly; the
    /// rest are parked in the spill *without* deserializing — resuming a
    /// million-stream registry must not materialize a million sessions.
    /// Their validation (kind, fingerprint, checksum) happens when they
    /// are first touched, so a damaged cold entry surfaces its typed
    /// error at re-adoption instead of restore.
    pub fn restore(
        config: EngineConfig,
        checkpoint: &Checkpoint,
        mut spec_of: impl FnMut(StreamId) -> Option<StreamSpec>,
    ) -> Result<Engine, EngineError> {
        let mut engine = Engine::new(config)?;
        for entry in &checkpoint.streams {
            let spec = spec_of(entry.id).ok_or(EngineError::MissingSpec(entry.id))?;
            let shard = engine.router.shard_of(entry.id);
            if engine.streams.contains_key(&entry.id.0) {
                return Err(EngineError::DuplicateStream(entry.id));
            }
            engine.clock += 1;
            let park_cold = engine.max_resident > 0 && engine.resident_count >= engine.max_resident;
            if park_cold {
                engine
                    .spill
                    .append(entry.id.0, entry.kind, &entry.snapshot)?;
                engine.spilled_count += 1;
            }
            let mut slot = 0u32;
            if !park_cold {
                let session = Session::restore(spec.clone(), entry.kind, &entry.snapshot)?;
                slot = engine.on_shard(shard, |s| s.adopt(entry.id, session))?;
                engine.resident_count += 1;
                engine.resident_per_shard[shard] += 1;
                if engine.max_resident > 0 {
                    engine.lru.insert((engine.clock, entry.id.0));
                }
            }
            engine.streams.insert(
                entry.id.0,
                StreamEntry {
                    shard,
                    slot,
                    spec,
                    last_touch: engine.clock,
                    resident: !park_cold,
                    epoch_stamp: 0,
                },
            );
            engine.order.push(entry.id);
        }
        engine.sync_storage_metrics();
        Ok(engine)
    }

    /// Number of worker threads (= shards).
    pub fn workers(&self) -> usize {
        self.router.shards()
    }

    /// Registered streams, in registration order.
    pub fn streams(&self) -> &[StreamId] {
        &self.order
    }

    /// Sessions currently materialized in their shards.
    pub fn resident_streams(&self) -> usize {
        self.resident_count
    }

    /// Sessions currently hibernated in the spill store.
    pub fn spilled_streams(&self) -> usize {
        self.spilled_count
    }

    /// Per-shard residency accounts (index = shard). The budget is
    /// global; this shows how it is distributed.
    pub fn resident_per_shard(&self) -> &[usize] {
        &self.resident_per_shard
    }

    /// Whether `id`'s session is resident (`None`: not registered).
    pub fn is_resident(&self, id: StreamId) -> Option<bool> {
        self.streams.get(&id.0).map(|e| e.resident)
    }

    /// Spill-store occupancy counters.
    pub fn spill_stats(&self) -> SpillStats {
        self.spill.stats()
    }

    /// This engine's telemetry handles. Always live (recording is a
    /// relaxed atomic bump either way); register them into a
    /// [`wms_telemetry::Registry`] via
    /// [`EngineMetrics::register_into`] to render an exposition.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Mirrors registry/spill occupancy into the gauges and advances
    /// the compaction counter by the spill log's delta. A handful of
    /// relaxed stores; called wherever residency or the spill changes.
    fn sync_storage_metrics(&mut self) {
        self.metrics
            .resident_sessions
            .set(self.resident_count as u64);
        self.metrics.spilled_sessions.set(self.spilled_count as u64);
        let stats = self.spill.stats();
        self.metrics.spill_log_bytes.set(stats.log_bytes);
        self.metrics.spill_live_bytes.set(stats.live_bytes);
        if stats.compactions > self.spill_compactions_seen {
            self.metrics
                .spill_compactions
                .add(stats.compactions - self.spill_compactions_seen);
            self.spill_compactions_seen = stats.compactions;
        }
    }

    /// Replays the first fatal error (worker panic, spill I/O failure).
    fn ensure_live(&self) -> Result<(), EngineError> {
        match &self.poison {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The first fatal error that poisoned this engine, if any. A
    /// poisoned engine rejects every further `ingest` / `checkpoint` /
    /// `finish` with this error; long-lived front-ends (the `wmsd`
    /// daemon) use this to decide between NACKing one batch and shutting
    /// the whole service down.
    pub fn poisoned(&self) -> Option<&EngineError> {
        self.poison.as_ref()
    }

    fn poison_with(&mut self, e: EngineError) -> EngineError {
        self.poison = Some(e.clone());
        e
    }

    /// Registers a stream. Fails on duplicate ids; the spec's parameters
    /// were already validated when its config was built. Under a memory
    /// budget, registering past the cap hibernates the
    /// least-recently-touched sessions to make room.
    pub fn register(&mut self, id: StreamId, spec: StreamSpec) -> Result<(), EngineError> {
        self.ensure_live()?;
        let shard = self.router.shard_of(id);
        if self.streams.contains_key(&id.0) {
            return Err(EngineError::DuplicateStream(id));
        }
        self.clock += 1;
        let slot = self.on_shard(shard, |s| s.register(id, spec.clone()))?;
        self.streams.insert(
            id.0,
            StreamEntry {
                shard,
                slot,
                spec,
                last_touch: self.clock,
                resident: true,
                epoch_stamp: 0,
            },
        );
        self.order.push(id);
        self.resident_count += 1;
        self.resident_per_shard[shard] += 1;
        self.metrics
            .resident_sessions
            .set(self.resident_count as u64);
        if self.max_resident > 0 {
            self.lru.insert((self.clock, id.0));
            self.enforce_budget()?;
        }
        Ok(())
    }

    /// Hibernates one stream's session now: serialize, park in the
    /// spill, free the resident state. Returns `false` when the session
    /// was already hibernated. The stream stays fully usable — its next
    /// touch re-adopts it transparently — and its outputs are unchanged
    /// by when (or whether) this is called; the equivalence tests lean
    /// on exactly that to force eviction at arbitrary points.
    pub fn hibernate(&mut self, id: StreamId) -> Result<bool, EngineError> {
        self.ensure_live()?;
        let Some(entry) = self.streams.get(&id.0) else {
            return Err(EngineError::UnknownStream(id));
        };
        if !entry.resident {
            return Ok(false);
        }
        let mut by_shard = vec![Vec::new(); self.router.shards()];
        by_shard[entry.shard].push(id);
        self.evict_streams(by_shard)?;
        Ok(true)
    }

    /// Blocks until `shard` has applied everything published to it,
    /// help-draining while it waits. Poisons the engine on worker loss.
    fn sync_shard(&mut self, shard: usize) -> Result<(), EngineError> {
        let synced = match &self.backend {
            Backend::Ring(r) => r.ring.wait_applied(shard, r.published[shard]),
            Backend::Inline { .. } => Ok(()),
        };
        synced.map_err(|()| self.poison_with(EngineError::WorkerLost { shard }))
    }

    /// Barriers every shard (a batch boundary across the whole engine).
    fn sync_all(&mut self) -> Result<(), EngineError> {
        for shard in 0..self.workers() {
            self.sync_shard(shard)?;
        }
        Ok(())
    }

    /// Serializes and spills the given sessions (grouped per shard).
    /// Updates residency bookkeeping; poisons the engine on worker loss
    /// or spill I/O failure (the evicted state would otherwise be lost).
    ///
    /// Involved shards are synced first: published-but-unapplied entries
    /// may still reference the sessions being evicted.
    fn evict_streams(&mut self, by_shard: Vec<Vec<StreamId>>) -> Result<(), EngineError> {
        let mut evicted: Vec<(StreamId, u8, Vec<u8>)> = Vec::new();
        for (w, ids) in by_shard.iter().enumerate() {
            if !ids.is_empty() {
                self.sync_shard(w)?;
                evicted.extend(self.on_shard(w, |s| s.evict(ids))?);
            }
        }
        for (id, kind, bytes) in evicted {
            if let Err(e) = self.spill.append(id.0, kind, &bytes) {
                return Err(self.poison_with(e.into()));
            }
            let entry = self
                .streams
                .get_mut(&id.0)
                .expect("evicted id is registered");
            entry.resident = false;
            self.lru.remove(&(entry.last_touch, id.0));
            self.resident_count -= 1;
            self.resident_per_shard[entry.shard] -= 1;
            self.spilled_count += 1;
            self.metrics.evictions.inc();
        }
        self.sync_storage_metrics();
        Ok(())
    }

    /// Evicts least-recently-touched sessions until the resident count
    /// is back under the budget. Hysteresis: once over the cap, evict
    /// down to ~7/8 of it in one sweep, so a registry hovering at the
    /// cap amortizes eviction instead of paying one worker round-trip
    /// per registration.
    fn enforce_budget(&mut self) -> Result<(), EngineError> {
        if self.max_resident == 0 || self.resident_count <= self.max_resident {
            return Ok(());
        }
        let low = (self.max_resident - self.max_resident / 8).max(1);
        let n_evict = self.resident_count - low;
        let mut by_shard = vec![Vec::new(); self.router.shards()];
        for &(_, id) in self.lru.iter().take(n_evict) {
            by_shard[self.streams[&id].shard].push(StreamId(id));
        }
        self.evict_streams(by_shard)
    }

    /// Re-adopts one hibernated session: spill read (checksum-checked)
    /// → `restore` under the registered spec (kind + scheme-fingerprint
    /// checked) → adopt into its shard. Any failure poisons the engine:
    /// a cold session that cannot come back means state is already lost.
    fn readopt(&mut self, id: u64) -> Result<(), EngineError> {
        let record = match self.spill.read(id) {
            Ok(Some(r)) => r,
            Ok(None) => {
                // Registry says spilled but the log has no record: an
                // engine invariant broke, report it as corruption.
                let e = EngineError::Checkpoint(CheckpointError::Invalid(format!(
                    "hibernated stream {id} has no spill record"
                )));
                return Err(self.poison_with(e));
            }
            Err(e) => return Err(self.poison_with(e.into())),
        };
        let entry = self.streams.get(&id).expect("caller checked registry");
        let shard = entry.shard;
        let session = match Session::restore(entry.spec.clone(), record.0, &record.1) {
            Ok(s) => s,
            Err(e) => return Err(self.poison_with(EngineError::Checkpoint(e))),
        };
        let slot = self.on_shard(shard, |s| s.adopt(StreamId(id), session))?;
        if let Err(e) = self.spill.remove(id) {
            return Err(self.poison_with(e.into()));
        }
        let entry = self.streams.get_mut(&id).expect("caller checked registry");
        entry.resident = true;
        entry.slot = slot;
        self.resident_count += 1;
        self.resident_per_shard[shard] += 1;
        self.spilled_count -= 1;
        if self.max_resident > 0 {
            self.lru.insert((entry.last_touch, id));
        }
        self.metrics.readoptions.inc();
        self.sync_storage_metrics();
        Ok(())
    }

    /// Touch accounting + re-adoption sweep run before a batch is
    /// dispatched, when (and only when) hibernation is in play:
    /// validates every id, bumps each touched stream's LRU position, and
    /// re-adopts the hibernated sessions the batch is about to touch.
    fn prepare_batch(&mut self, events: &[Event]) -> Result<(), EngineError> {
        self.clock += 1;
        let clock = self.clock;
        let mut need_adopt: Vec<u64> = Vec::new();
        let mut last: Option<u64> = None;
        for ev in events {
            if last == Some(ev.stream.0) {
                continue;
            }
            last = Some(ev.stream.0);
            let Some(entry) = self.streams.get_mut(&ev.stream.0) else {
                return Err(EngineError::UnknownStream(ev.stream));
            };
            if entry.last_touch == clock {
                continue; // already counted in this batch
            }
            if entry.resident {
                if self.max_resident > 0 {
                    self.lru.remove(&(entry.last_touch, ev.stream.0));
                    self.lru.insert((clock, ev.stream.0));
                }
            } else {
                need_adopt.push(ev.stream.0);
            }
            entry.last_touch = clock;
        }
        for id in need_adopt {
            self.readopt(id)?;
        }
        Ok(())
    }

    /// Ingests one interleaved batch synchronously.
    ///
    /// Events are routed to their stream's shard (preserving per-stream
    /// order), the shards process in parallel, and the call returns
    /// once this batch's epoch watermark is reached — the caller helps
    /// drain the rings while it waits, so a saturated host processes
    /// mostly inline instead of context-switching. The result holds one
    /// [`Output`] per stream touched by the batch, in first-touch order
    /// of `events` — a deterministic function of the input alone.
    ///
    /// Under a [`MemoryBudget`], hibernated streams the batch touches
    /// are transparently re-adopted first, and the resident count is
    /// trimmed back under the cap before the call returns. Neither step
    /// changes any stream's output by a single bit.
    ///
    /// Must not be interleaved with uncollected [`Engine::submit`]
    /// epochs (fails with [`EngineError::UncollectedEpochs`]; collect
    /// them first).
    pub fn ingest(&mut self, events: &[Event]) -> Result<Vec<Output>, EngineError> {
        self.ensure_live()?;
        if self.outstanding_epochs() > 0 {
            return Err(EngineError::UncollectedEpochs);
        }
        self.submit(events)?;
        let (_, outputs) = self
            .collect_next()?
            .expect("submit queued exactly one epoch");
        Ok(outputs)
    }

    /// Publishes one interleaved batch without waiting for it: the
    /// pipelined half of the ingest API. Returns the batch's epoch
    /// number; its outputs arrive via [`Engine::collect_next`], strictly
    /// in submission order. At most [`RING_CAPACITY`] sub-batches per
    /// shard sit unapplied — a publish into a full ring drains an entry
    /// on the caller thread before parking, so backpressure converts
    /// into useful work. (With one worker the batch runs right here and
    /// only its outputs wait.)
    pub fn submit(&mut self, events: &[Event]) -> Result<u64, EngineError> {
        self.ensure_live()?;
        if self.max_resident > 0 || self.spilled_count > 0 {
            self.prepare_batch(events)?;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let submitted = match &mut self.backend {
            Backend::Inline { shard, ready } => ingest_inline(shard, &self.streams, events)
                .map(|outputs| ready.push_back((epoch, outputs))),
            Backend::Ring(r) => r.route_and_publish(&mut self.streams, epoch, events),
        };
        submitted.map_err(|e| self.poison_if_lost(e))?;
        self.metrics.batches.inc();
        self.metrics.items.add(events.len() as u64);
        if self.max_resident > 0 {
            self.enforce_budget()?;
        }
        Ok(epoch)
    }

    /// Collects the oldest outstanding epoch's outputs, blocking (and
    /// help-draining) until its watermark is reached. `Ok(None)` when
    /// nothing is outstanding.
    pub fn collect_next(&mut self) -> Result<Option<(u64, Vec<Output>)>, EngineError> {
        self.ensure_live()?;
        let collected = match &mut self.backend {
            Backend::Inline { ready, .. } => Ok(ready.pop_front()),
            Backend::Ring(r) => r.collect_next(),
        };
        let collected = collected.map_err(|e| self.poison_if_lost(e))?;
        if collected.is_some() {
            self.metrics.epochs_collected.inc();
        }
        Ok(collected)
    }

    /// Epochs submitted but not yet collected.
    pub fn outstanding_epochs(&self) -> usize {
        match &self.backend {
            Backend::Inline { ready, .. } => ready.len(),
            Backend::Ring(r) => r.outstanding.len(),
        }
    }

    /// Passes `e` through, poisoning the engine first when a worker was
    /// lost (its shard's sessions are gone). A rejected batch
    /// (`UnknownStream`) leaves the engine usable.
    fn poison_if_lost(&mut self, e: EngineError) -> EngineError {
        if matches!(e, EngineError::WorkerLost { .. }) {
            self.poison = Some(e.clone());
        }
        e
    }

    /// Captures a [`Checkpoint`] of every registered session at the
    /// current batch boundary.
    ///
    /// This is a read-only barrier: each shard snapshots its sessions in
    /// registration order without mutating them, so a run that
    /// checkpoints produces exactly the same outputs as one that does
    /// not. The returned checkpoint's `meta` is empty; callers stash
    /// their own resume bookkeeping there before serializing.
    ///
    /// Hibernated sessions are not re-adopted: their bytes are copied
    /// straight out of the spill log (checksum-verified), with no
    /// serialization. The checkpoint itself stays fully self-contained:
    /// restoring needs the checkpoint alone, never the spill file.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, EngineError> {
        self.ensure_live()?;
        let started = std::time::Instant::now();
        // Snapshot at the watermark: every published event must be
        // applied before any session serializes. (Uncollected epochs
        // stay collectible afterwards — their results are already in
        // the done queues.)
        self.sync_all()?;
        let mut per_shard: Vec<Vec<StreamId>> = vec![Vec::new(); self.router.shards()];
        let mut hibernated: Vec<StreamId> = Vec::new();
        for &id in &self.order {
            let entry = &self.streams[&id.0];
            if entry.resident {
                per_shard[entry.shard].push(id);
            } else {
                hibernated.push(id);
            }
        }
        let mut by_id: HashMap<u64, (u8, Vec<u8>)> = HashMap::new();
        for id in hibernated {
            match self.spill.read(id.0) {
                Ok(Some((kind, bytes))) => {
                    by_id.insert(id.0, (kind, bytes));
                }
                Ok(None) => {
                    let e = EngineError::Checkpoint(CheckpointError::Invalid(format!(
                        "hibernated stream {id} has no spill record"
                    )));
                    return Err(self.poison_with(e));
                }
                Err(e) => return Err(self.poison_with(e.into())),
            }
        }
        // Shards are quiesced (synced above), so the snapshot pass runs
        // as plain control ops on the caller thread.
        for (w, ids) in per_shard.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            for (id, kind, bytes) in self.on_shard(w, |s| s.snapshot(ids))? {
                by_id.insert(id.0, (kind, bytes));
            }
        }
        let streams = self
            .order
            .iter()
            .map(|id| {
                let (kind, snapshot) = by_id.remove(&id.0).expect("every stream snapshotted");
                CheckpointStream {
                    id: *id,
                    kind,
                    snapshot,
                }
            })
            .collect();
        self.metrics
            .checkpoint_seconds
            .observe_duration(started.elapsed());
        Ok(Checkpoint {
            meta: Vec::new(),
            streams,
        })
    }

    /// Flushes every registered stream and shuts the executor down.
    ///
    /// Embedding streams drain their residual window into
    /// [`StreamOutcome::tail`] and report their [`EmbedStats`];
    /// detection streams produce their [`DetectionReport`]. Outcomes are
    /// in registration order.
    ///
    /// Hibernated sessions are re-adopted for their flush in chunks of
    /// at most `max_resident` per shard, so finishing a million-stream
    /// registry never materializes more sessions than the budget allows.
    pub fn finish(mut self) -> Result<Vec<StreamOutcome>, EngineError> {
        self.ensure_live()?;
        // Finishing consumes the engine; silently discarding pipelined
        // outputs would be data loss, so the caller must collect first.
        if self.outstanding_epochs() > 0 {
            return Err(EngineError::UncollectedEpochs);
        }
        self.sync_all()?;
        let shards = self.router.shards();
        let mut per_shard: Vec<Vec<StreamId>> = vec![Vec::new(); shards];
        let mut hibernated: Vec<Vec<StreamId>> = vec![Vec::new(); shards];
        for &id in &self.order {
            let entry = &self.streams[&id.0];
            if entry.resident {
                per_shard[entry.shard].push(id);
            } else {
                hibernated[entry.shard].push(id);
            }
        }
        let mut by_id: HashMap<u64, StreamOutcome> = HashMap::new();
        // Pass 1: flush every resident session, shard by shard.
        for (w, ids) in per_shard.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            for o in self.on_shard(w, |s| s.finish(ids))? {
                by_id.insert(o.stream.0, o);
            }
        }
        // Pass 2: re-adopt and flush hibernated sessions, shard by
        // shard, in budget-sized chunks.
        let chunk_size = if self.max_resident > 0 {
            self.max_resident
        } else {
            usize::MAX
        };
        for (w, shard_ids) in hibernated.iter_mut().enumerate().take(shards) {
            let ids = std::mem::take(shard_ids);
            if ids.is_empty() {
                continue;
            }
            for chunk in ids.chunks(chunk_size) {
                for id in chunk {
                    self.readopt(id.0)?;
                }
                for o in self.on_shard(w, |s| s.finish(chunk.to_vec()))? {
                    by_id.insert(o.stream.0, o);
                }
            }
        }
        Ok(self
            .order
            .iter()
            .map(|id| by_id.remove(&id.0).expect("every stream flushed"))
            .collect())
    }

    /// Runs a control operation (register, adopt, snapshot, evict,
    /// finish) against shard `w`'s sessions on the caller thread. A
    /// panic is contained and poisons the engine as `WorkerLost`.
    fn on_shard<T>(
        &mut self,
        w: usize,
        op: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, EngineError> {
        let done = match &mut self.backend {
            Backend::Inline { shard, .. } => catch_unwind(AssertUnwindSafe(|| op(shard))).ok(),
            Backend::Ring(r) => r.ring.shard_op(w, op).ok(),
        };
        done.ok_or_else(|| self.poison_with(EngineError::WorkerLost { shard: w }))
    }
}

/// The single-worker ingest body: validate and hand the whole slice to
/// the inline shard — no routing pass, no copy, no ring. Its first-touch
/// order IS the batch's first-touch order.
fn ingest_inline(
    shard: &mut Shard,
    streams: &HashMap<u64, StreamEntry>,
    events: &[Event],
) -> Result<Vec<Output>, EngineError> {
    // Validate the ids up front so an error dispatches nothing
    // (run-cached: consecutive events of one stream cost one lookup).
    let mut last: Option<u64> = None;
    for ev in events {
        if last != Some(ev.stream.0) {
            if !streams.contains_key(&ev.stream.0) {
                return Err(EngineError::UnknownStream(ev.stream));
            }
            last = Some(ev.stream.0);
        }
    }
    // Same containment as a ring consumer: a session panic poisons the
    // shard, not the caller.
    match catch_unwind(AssertUnwindSafe(|| shard.ingest_slice(events))) {
        Ok(outs) => Ok(outs
            .into_iter()
            .map(|(stream, samples)| Output { stream, samples })
            .collect()),
        Err(_panic) => Err(EngineError::WorkerLost { shard: 0 }),
    }
}

impl RingBackend {
    /// The ring ingest front half: one routing pass fills per-shard
    /// staging buffers (events plus `(slot, len)` run descriptors — the
    /// consumer never hashes a stream id) and the epoch's first-touch
    /// metadata, then every non-empty shard slice is published to its
    /// ring and the epoch queues for collection. An unknown id rejects
    /// the batch before anything publishes.
    fn route_and_publish(
        &mut self,
        streams: &mut HashMap<u64, StreamEntry>,
        epoch: u64,
        events: &[Event],
    ) -> Result<(), EngineError> {
        let mut meta = self.meta_pool.pop().unwrap_or_else(EpochMeta::new);
        meta.reset(epoch);
        let mut i = 0usize;
        while i < events.len() {
            let id = events[i].stream;
            let Some(entry) = streams.get_mut(&id.0) else {
                self.clear_staging();
                self.recycle_meta(meta);
                return Err(EngineError::UnknownStream(id));
            };
            if entry.epoch_stamp != epoch {
                entry.epoch_stamp = epoch;
                meta.slot_of.insert(id.0, meta.touch_order.len() as u32);
                meta.touch_order.push(id);
            }
            let start = i;
            i += 1;
            while i < events.len() && events[i].stream == id {
                i += 1;
            }
            let buf = &mut self.staging[entry.shard];
            buf.events.extend_from_slice(&events[start..i]);
            buf.runs.push((entry.slot, (i - start) as u32));
        }
        for shard in 0..self.staging.len() {
            if self.staging[shard].runs.is_empty() {
                continue;
            }
            let (mut ev_buf, mut run_buf) = self.buf_pool.pop().unwrap_or_default();
            ev_buf.clear();
            run_buf.clear();
            let buf = &mut self.staging[shard];
            let events = std::mem::replace(&mut buf.events, ev_buf);
            let runs = std::mem::replace(&mut buf.runs, run_buf);
            self.published[shard] += 1;
            let seq = self.published[shard];
            if self
                .ring
                .publish(shard, Entry { seq, events, runs })
                .is_err()
            {
                self.clear_staging();
                return Err(EngineError::WorkerLost { shard });
            }
            meta.shard_seq.push((shard as u32, seq));
        }
        self.outstanding.push_back(meta);
        Ok(())
    }

    /// Drops whatever a rejected routing pass left staged.
    fn clear_staging(&mut self) {
        for b in &mut self.staging {
            b.events.clear();
            b.runs.clear();
        }
    }

    /// The ring ingest back half: wait out each participating shard's
    /// watermark for the oldest outstanding epoch (helping to drain
    /// meanwhile), pop its completed result, and merge per-stream
    /// samples back into the epoch's first-touch order — fixed at
    /// routing time, so output order never depends on which thread
    /// applied what.
    fn collect_next(&mut self) -> Result<Option<(u64, Vec<Output>)>, EngineError> {
        let Some(meta) = self.outstanding.pop_front() else {
            return Ok(None);
        };
        let mut per_stream: Vec<Option<Vec<Sample>>> = vec![None; meta.touch_order.len()];
        for &(shard, seq) in &meta.shard_seq {
            let shard = shard as usize;
            if self.ring.wait_applied(shard, seq).is_err() {
                return Err(EngineError::WorkerLost { shard });
            }
            let (done_seq, outs) = self.ring.take_done(shard, &mut self.buf_pool);
            debug_assert_eq!(done_seq, seq, "results collect in publish order");
            for (id, samples) in outs {
                per_stream[meta.slot_of[&id.0] as usize] = Some(samples);
            }
        }
        let outputs = meta
            .touch_order
            .iter()
            .zip(per_stream)
            .map(|(&stream, samples)| Output {
                stream,
                samples: samples.unwrap_or_default(),
            })
            .collect();
        let epoch = meta.epoch;
        self.recycle_meta(meta);
        Ok(Some((epoch, outputs)))
    }

    fn recycle_meta(&mut self, mut meta: EpochMeta) {
        if self.meta_pool.len() < 64 {
            meta.reset(0);
            self.meta_pool.push(meta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wms_core::encoding::initial::InitialEncoder;
    use wms_core::{Scheme, Watermark, WmParams};
    use wms_crypto::{Key, KeyedHash};
    use wms_stream::samples_from_values;

    fn embed_spec() -> StreamSpec {
        let p = WmParams {
            window: 64,
            degree: 2,
            radius: 0.01,
            max_subset: 4,
            label_len: 3,
            label_stride: 1,
            ..WmParams::default()
        };
        let scheme = Scheme::new(p, KeyedHash::md5(Key::from_u64(5))).unwrap();
        StreamSpec::Embed(Arc::new(
            EmbedConfig::new(scheme, Arc::new(InitialEncoder), Watermark::single(true)).unwrap(),
        ))
    }

    fn wave(n: usize, phase: f64) -> Vec<Sample> {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 + phase;
                0.3 * (t * core::f64::consts::TAU / 23.0).sin()
                    + 0.05 * (t * core::f64::consts::TAU / 7.0).sin()
            })
            .collect();
        samples_from_values(&values)
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        let r1 = ShardRouter::new(Key::from_u64(9), 8);
        let r2 = ShardRouter::new(Key::from_u64(9), 8);
        for id in 0..500u64 {
            let s = r1.shard_of(StreamId(id));
            assert!(s < 8);
            assert_eq!(s, r2.shard_of(StreamId(id)), "stable for id {id}");
        }
        // A different key produces a different placement somewhere.
        let other = ShardRouter::new(Key::from_u64(10), 8);
        assert!((0..500u64).any(|id| r1.shard_of(StreamId(id)) != other.shard_of(StreamId(id))));
    }

    #[test]
    fn router_spreads_streams() {
        let r = ShardRouter::new(Key::from_u64(1), 4);
        let mut counts = [0usize; 4];
        for id in 0..4000u64 {
            counts[r.shard_of(StreamId(id))] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed shard load: {counts:?}");
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        for workers in [1usize, 2] {
            let mut e = Engine::new(EngineConfig::with_workers(workers)).unwrap();
            e.register(StreamId(1), embed_spec()).unwrap();
            assert_eq!(
                e.register(StreamId(1), embed_spec()),
                Err(EngineError::DuplicateStream(StreamId(1)))
            );
        }
    }

    #[test]
    fn unknown_stream_rejected_without_side_effects() {
        for workers in [1usize, 2] {
            let mut e = Engine::new(EngineConfig::with_workers(workers)).unwrap();
            e.register(StreamId(1), embed_spec()).unwrap();
            let known = Event::new(StreamId(1), Sample::new(0, 0.1));
            let unknown = Event::new(StreamId(2), Sample::new(0, 0.1));
            assert_eq!(
                e.ingest(&[known, unknown]),
                Err(EngineError::UnknownStream(StreamId(2)))
            );
            // The batch was rejected atomically: stream 1 saw nothing, so
            // its full run through finish drains an empty window.
            let outcomes = e.finish().unwrap();
            assert_eq!(outcomes[0].embed_stats.unwrap().items_in, 0);
        }
    }

    #[test]
    fn outputs_follow_first_touch_order_and_conserve_samples() {
        for workers in [1, 2, 3] {
            let mut e = Engine::new(EngineConfig::with_workers(workers)).unwrap();
            for id in [4u64, 9, 2] {
                e.register(StreamId(id), embed_spec()).unwrap();
            }
            let streams: Vec<(StreamId, Vec<Sample>)> = [4u64, 9, 2]
                .iter()
                .map(|&id| (StreamId(id), wave(300, id as f64)))
                .collect();
            // Interleave round-robin; batch in chunks of 7.
            let mut events = Vec::new();
            for i in 0..300 {
                for (id, s) in &streams {
                    events.push(Event::new(*id, s[i]));
                }
            }
            let mut emitted: HashMap<u64, Vec<Sample>> = HashMap::new();
            for chunk in events.chunks(7) {
                let outs = e.ingest(chunk).unwrap();
                // First-touch order of the chunk.
                let mut seen = Vec::new();
                for ev in chunk {
                    if !seen.contains(&ev.stream) {
                        seen.push(ev.stream);
                    }
                }
                assert_eq!(outs.iter().map(|o| o.stream).collect::<Vec<_>>(), seen);
                for o in outs {
                    emitted.entry(o.stream.0).or_default().extend(o.samples);
                }
            }
            for o in e.finish().unwrap() {
                emitted.entry(o.stream.0).or_default().extend(o.tail);
            }
            for (id, s) in &streams {
                let got = &emitted[&id.0];
                assert_eq!(got.len(), s.len(), "stream {id} lost samples");
                for (a, b) in got.iter().zip(s) {
                    assert_eq!(a.index, b.index, "stream {id} reordered");
                }
            }
        }
    }

    #[test]
    fn finish_outcomes_in_registration_order() {
        for workers in [1usize, 2] {
            let mut e = Engine::new(EngineConfig::with_workers(workers)).unwrap();
            for id in [11u64, 3, 7] {
                e.register(StreamId(id), embed_spec()).unwrap();
            }
            let ids: Vec<u64> = e.finish().unwrap().iter().map(|o| o.stream.0).collect();
            assert_eq!(ids, vec![11, 3, 7]);
        }
    }

    #[test]
    fn budget_caps_resident_sessions_with_per_shard_accounting() {
        for workers in [1usize, 3] {
            let cfg = EngineConfig::with_workers(workers).with_budget(MemoryBudget::resident(5));
            let mut e = Engine::new(cfg).unwrap();
            for id in 0..20u64 {
                e.register(StreamId(id), embed_spec()).unwrap();
            }
            assert!(
                e.resident_streams() <= 5,
                "{} resident",
                e.resident_streams()
            );
            assert_eq!(e.resident_streams() + e.spilled_streams(), 20);
            assert_eq!(
                e.resident_per_shard().iter().sum::<usize>(),
                e.resident_streams(),
                "per-shard accounts must sum to the resident total"
            );
            assert_eq!(e.is_resident(StreamId(99)), None, "unregistered id");
            // Every stream still finishes, spilled or not.
            assert_eq!(e.finish().unwrap().len(), 20);
        }
    }

    #[test]
    fn hibernate_explicitly_and_readopt_on_touch() {
        let cfg = EngineConfig::with_workers(2).with_budget(MemoryBudget::resident(8));
        let mut e = Engine::new(cfg).unwrap();
        for id in 0..4u64 {
            e.register(StreamId(id), embed_spec()).unwrap();
        }
        assert_eq!(
            e.hibernate(StreamId(50)),
            Err(EngineError::UnknownStream(StreamId(50)))
        );
        assert!(e.hibernate(StreamId(2)).unwrap(), "first eviction evicts");
        assert!(!e.hibernate(StreamId(2)).unwrap(), "already hibernated");
        assert_eq!(e.is_resident(StreamId(2)), Some(false));
        assert_eq!(e.spilled_streams(), 1);
        assert!(e.spill_stats().records >= 1);
        // Touching the stream transparently re-adopts it.
        let s = wave(3, 2.0);
        let events: Vec<Event> = s.iter().map(|&s| Event::new(StreamId(2), s)).collect();
        e.ingest(&events).unwrap();
        assert_eq!(e.is_resident(StreamId(2)), Some(true));
        assert_eq!(e.spilled_streams(), 0);
        e.finish().unwrap();
    }

    #[test]
    fn noop_streams_process_under_budget() {
        let cfg = EngineConfig::with_workers(2).with_budget(MemoryBudget::resident(3));
        let mut e = Engine::new(cfg).unwrap();
        for id in 0..10u64 {
            e.register(StreamId(id), StreamSpec::NoOp).unwrap();
        }
        let events: Vec<Event> = (0..10u64)
            .map(|id| Event::new(StreamId(id), Sample::new(0, 0.5)))
            .collect();
        let outs = e.ingest(&events).unwrap();
        assert!(outs.iter().all(|o| o.samples.is_empty()));
        assert!(e.resident_streams() <= 3);
        for o in e.finish().unwrap() {
            assert!(o.tail.is_empty());
            assert!(o.embed_stats.is_none());
            assert!(o.report.is_none());
        }
    }

    #[test]
    fn checkpoint_bytes_roundtrip() {
        let mut e = Engine::new(EngineConfig::with_workers(2)).unwrap();
        for id in [11u64, 3, 7] {
            e.register(StreamId(id), embed_spec()).unwrap();
        }
        let mut ck = e.checkpoint().unwrap();
        ck.meta = b"cursor=42".to_vec();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.meta, b"cursor=42");
        assert_eq!(
            back.streams().collect::<Vec<_>>(),
            vec![StreamId(11), StreamId(3), StreamId(7)],
            "registration order preserved"
        );
        assert_eq!(back.num_streams(), 3);
        // Truncations fail loudly.
        for cut in [0usize, 3, 6, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
