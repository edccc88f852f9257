//! The shard executor: per-shard bounded ingest rings.
//!
//! One [`Shard`] exclusively owns one partition's sessions. With more
//! than one worker each shard gets a [`ShardCell`]: a bounded ring of
//! published sub-batches (`pending`), a FIFO of completed results
//! (`done`), and an **applied watermark** — the sequence number of the
//! last sub-batch fully applied to the shard's sessions. The engine
//! routes a batch once into per-shard staging buffers, publishes each
//! shard's slice (events plus pre-resolved `(slot, len)` run
//! descriptors, so the consumer never hashes a stream id), and only
//! waits on the watermark when an output is actually needed —
//! back-to-back batches pipeline instead of lock-stepping on a
//! per-batch barrier.
//!
//! Consumption is symmetric: each shard has a dedicated worker thread,
//! and the *caller* drains rings too whenever it would otherwise block
//! (ring full, or waiting out a watermark). On a saturated or
//! single-core host the caller ends up doing most of the work inline —
//! no cross-thread hand-off, no context switches — while on a multicore
//! host the workers drain eagerly and the caller becomes one more
//! consumer. Entry order is preserved even with two consumers because a
//! consumer acquires the shard's session lock (`proc`) *before* popping
//! the ring, so pops and processing are atomic per shard.
//!
//! With exactly one worker the engine holds the shard inline on the
//! caller thread and skips the ring entirely (see `Backend::Inline` in
//! `lib.rs`).
//!
//! ## Panic containment
//!
//! A session panic (a bug, or the test-only
//! [`StreamSpec::FaultInject`](crate::StreamSpec::FaultInject) hook)
//! must not cascade: every consumer wraps processing in `catch_unwind`
//! *inside* the lock scope (so the `Mutex` itself is never poisoned),
//! marks the cell poisoned, and wakes every waiter. The engine surfaces
//! [`EngineError::WorkerLost`](crate::EngineError::WorkerLost) on the
//! caller thread instead of panicking or hanging; the shard's sessions
//! are considered lost (the panic may have fired midway through a state
//! mutation).

use crate::{StreamId, StreamOutcome, StreamSpec, RING_CAPACITY};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use wms_core::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use wms_core::{DetectSession, EmbedSession};
use wms_stream::{Event, Sample};
use wms_telemetry::Gauge;

/// Checkpoint kind tag of an embedding session.
pub(crate) const KIND_EMBED: u8 = 0;
/// Checkpoint kind tag of a detection session.
pub(crate) const KIND_DETECT: u8 = 1;
/// Checkpoint kind tag of the test-only fault-injection session.
pub(crate) const KIND_FAULT: u8 = 2;
/// Checkpoint kind tag of the pass-through no-op session.
pub(crate) const KIND_NOOP: u8 = 3;

/// One live session: its spec (shared config) plus per-stream state.
pub(crate) enum Session {
    Embed(StreamSpec, EmbedSession),
    Detect(StreamSpec, DetectSession),
    /// Test-only: panics while processing sample number `after`.
    Fault {
        after: u64,
        seen: u64,
    },
    /// Pass-through: counts samples, emits nothing.
    NoOp {
        seen: u64,
    },
}

impl Session {
    pub(crate) fn open(spec: StreamSpec) -> Session {
        match &spec {
            StreamSpec::Embed(cfg) => {
                let sess = cfg.new_session();
                Session::Embed(spec, sess)
            }
            StreamSpec::Detect(cfg) => {
                let sess = cfg.new_session();
                Session::Detect(spec, sess)
            }
            StreamSpec::FaultInject { panic_after } => Session::Fault {
                after: (*panic_after).max(1),
                seen: 0,
            },
            StreamSpec::NoOp => Session::NoOp { seen: 0 },
        }
    }

    fn push(&mut self, s: Sample, out: &mut Vec<Sample>) {
        match self {
            Session::Embed(StreamSpec::Embed(cfg), sess) => cfg.push_into(sess, s, out),
            Session::Detect(StreamSpec::Detect(cfg), sess) => cfg.push(sess, s),
            Session::Fault { after, seen } => {
                *seen += 1;
                if *seen >= *after {
                    panic!("injected session fault after {after} samples");
                }
            }
            Session::NoOp { seen } => *seen += 1,
            _ => unreachable!("spec/session kind mismatch"),
        }
    }

    /// Serializes this session (kind tag + versioned snapshot bytes)
    /// without mutating it.
    fn snapshot(&self) -> (u8, Vec<u8>) {
        match self {
            Session::Embed(StreamSpec::Embed(cfg), sess) => (KIND_EMBED, sess.snapshot(cfg)),
            Session::Detect(StreamSpec::Detect(cfg), sess) => (KIND_DETECT, sess.snapshot(cfg)),
            Session::Fault { after, seen } => {
                let mut w = ByteWriter::new();
                w.put_u64(*after);
                w.put_u64(*seen);
                (KIND_FAULT, w.into_bytes())
            }
            Session::NoOp { seen } => {
                let mut w = ByteWriter::new();
                w.put_u64(*seen);
                (KIND_NOOP, w.into_bytes())
            }
            _ => unreachable!("spec/session kind mismatch"),
        }
    }

    /// Rebuilds a session from a checkpoint entry under the spec the
    /// caller resolved for this stream. The spec's kind must match the
    /// entry's kind tag, and the snapshot's scheme fingerprint must match
    /// the spec's scheme (checked inside the core restore).
    pub(crate) fn restore(
        spec: StreamSpec,
        kind: u8,
        bytes: &[u8],
    ) -> Result<Session, CheckpointError> {
        let expected = match &spec {
            StreamSpec::Embed(_) => KIND_EMBED,
            StreamSpec::Detect(_) => KIND_DETECT,
            StreamSpec::FaultInject { .. } => KIND_FAULT,
            StreamSpec::NoOp => KIND_NOOP,
        };
        if kind != expected {
            return Err(CheckpointError::WrongKind {
                expected,
                found: kind,
            });
        }
        match &spec {
            StreamSpec::Embed(cfg) => {
                let sess = EmbedSession::restore(cfg, bytes)?;
                Ok(Session::Embed(spec.clone(), sess))
            }
            StreamSpec::Detect(cfg) => {
                let sess = DetectSession::restore(cfg, bytes)?;
                Ok(Session::Detect(spec.clone(), sess))
            }
            StreamSpec::FaultInject { .. } => {
                let mut r = ByteReader::new(bytes);
                let after = r.get_u64()?;
                let seen = r.get_u64()?;
                r.finish()?;
                Ok(Session::Fault { after, seen })
            }
            StreamSpec::NoOp => {
                let mut r = ByteReader::new(bytes);
                let seen = r.get_u64()?;
                r.finish()?;
                Ok(Session::NoOp { seen })
            }
        }
    }

    fn close(self, stream: StreamId) -> StreamOutcome {
        match self {
            Session::Embed(StreamSpec::Embed(cfg), mut sess) => {
                let mut tail = Vec::new();
                cfg.finish_into(&mut sess, &mut tail);
                StreamOutcome {
                    stream,
                    tail,
                    embed_stats: Some(*sess.stats()),
                    report: None,
                }
            }
            Session::Detect(StreamSpec::Detect(cfg), mut sess) => StreamOutcome {
                stream,
                tail: Vec::new(),
                embed_stats: None,
                report: Some(cfg.finish(&mut sess)),
            },
            Session::Fault { .. } | Session::NoOp { .. } => StreamOutcome {
                stream,
                tail: Vec::new(),
                embed_stats: None,
                report: None,
            },
            _ => unreachable!("spec/session kind mismatch"),
        }
    }
}

/// One session materialized in a shard slot.
struct SessionSlot {
    id: StreamId,
    session: Session,
    /// Stamp of the last ingest pass that touched this slot; paired with
    /// `out_idx` it replaces a per-pass `id -> output slot` hash map.
    touch: u64,
    out_idx: u32,
}

/// One shard's sessions plus the bookkeeping reused across ingests.
///
/// Sessions live in stable **slots** (`Vec` + free list): the engine's
/// registry records each resident stream's slot, routes every run to
/// `(slot, len)` descriptors, and the ingest consumer indexes straight
/// into the slot vector — no per-run hashing on the parallel hot path.
/// The id-keyed `index` serves the inline single-worker path (which
/// skips routing entirely) and the by-id control operations
/// (snapshot/evict/finish).
pub(crate) struct Shard {
    slots: Vec<Option<SessionSlot>>,
    free: Vec<u32>,
    /// `id -> slot`, for the inline ingest path and by-id control ops.
    index: HashMap<u64, u32>,
    /// Monotonic per-ingest-pass stamp driving first-touch detection.
    stamp: u64,
}

impl Shard {
    pub(crate) fn new() -> Shard {
        Shard {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            stamp: 0,
        }
    }

    fn insert(&mut self, id: StreamId, session: Session) -> u32 {
        let slot = SessionSlot {
            id,
            session,
            touch: 0,
            out_idx: 0,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id.0, idx);
        idx
    }

    /// Opens a fresh session; returns its slot.
    pub(crate) fn register(&mut self, id: StreamId, spec: StreamSpec) -> u32 {
        self.insert(id, Session::open(spec))
    }

    /// Adopts an already-restored session; returns its slot.
    pub(crate) fn adopt(&mut self, id: StreamId, session: Session) -> u32 {
        self.insert(id, session)
    }

    fn remove(&mut self, id: StreamId) -> Option<Session> {
        let idx = self.index.remove(&id.0)?;
        let slot = self.slots[idx as usize].take().expect("index names a slot");
        self.free.push(idx);
        Some(slot.session)
    }

    /// Processes one sub-batch through pre-resolved run descriptors:
    /// `runs[k] = (slot, len)` consumes the next `len` events against
    /// the session in `slot`. Returns each touched stream's emissions in
    /// first-touch order of the slice (the engine re-merges by id, so
    /// only per-stream sample order matters here — but first-touch order
    /// falls out of the stamp scheme for free).
    pub(crate) fn ingest_runs(
        &mut self,
        events: &[Event],
        runs: &[(u32, u32)],
    ) -> Vec<(StreamId, Vec<Sample>)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut outs: Vec<(StreamId, Vec<Sample>)> = Vec::new();
        let mut i = 0usize;
        for &(slot, len) in runs {
            let s = self.slots[slot as usize]
                .as_mut()
                .expect("engine routed to a live slot");
            if s.touch != stamp {
                s.touch = stamp;
                s.out_idx = outs.len() as u32;
                outs.push((s.id, Vec::new()));
            }
            let out_idx = s.out_idx as usize;
            let end = i + len as usize;
            for ev in &events[i..end] {
                s.session.push(ev.sample, &mut outs[out_idx].1);
            }
            i = end;
        }
        outs
    }

    /// Processes one sub-batch resolving runs by id (the inline
    /// single-worker path, which has no routing pass). Consecutive
    /// events of the same stream resolve their slot once per run, not
    /// once per event.
    pub(crate) fn ingest_slice(&mut self, events: &[Event]) -> Vec<(StreamId, Vec<Sample>)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut outs: Vec<(StreamId, Vec<Sample>)> = Vec::new();
        let mut i = 0;
        while i < events.len() {
            let id = events[i].stream;
            let idx = *self.index.get(&id.0).expect("engine validated the id");
            let s = self.slots[idx as usize].as_mut().expect("slot is live");
            if s.touch != stamp {
                s.touch = stamp;
                s.out_idx = outs.len() as u32;
                outs.push((id, Vec::new()));
            }
            let out_idx = s.out_idx as usize;
            while i < events.len() && events[i].stream == id {
                s.session.push(events[i].sample, &mut outs[out_idx].1);
                i += 1;
            }
        }
        outs
    }

    /// Snapshots the listed sessions without disturbing them: the run
    /// continues bit-identically whether or not a checkpoint was taken.
    pub(crate) fn snapshot(&self, ids: &[StreamId]) -> Vec<(StreamId, u8, Vec<u8>)> {
        ids.iter()
            .map(|id| {
                let idx = self.index[&id.0];
                let slot = self.slots[idx as usize]
                    .as_ref()
                    .expect("index names a slot");
                let (kind, bytes) = slot.session.snapshot();
                (*id, kind, bytes)
            })
            .collect()
    }

    /// Serializes and removes the listed sessions (hibernation).
    pub(crate) fn evict(&mut self, ids: &[StreamId]) -> Vec<(StreamId, u8, Vec<u8>)> {
        ids.iter()
            .map(|id| {
                let session = self.remove(*id).expect("engine tracks residency");
                let (kind, bytes) = session.snapshot();
                (*id, kind, bytes)
            })
            .collect()
    }

    pub(crate) fn finish(&mut self, ids: Vec<StreamId>) -> Vec<StreamOutcome> {
        ids.into_iter()
            .map(|id| {
                self.remove(id)
                    .expect("engine tracks registrations")
                    .close(id)
            })
            .collect()
    }
}

/// Locks a mutex, ignoring poisoning. Safe here: every consumer wraps
/// session code in `catch_unwind` *inside* its guard scope, so a guard
/// never drops during an unwind and the flag can only be set by a panic
/// in engine bookkeeping itself — in which case the shard is about to be
/// marked poisoned anyway.
fn lock_mutex<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A recycled `(events, runs)` staging-buffer pair: routing fills one
/// per shard per epoch, consumers drain it back into the pool.
pub(crate) type BufPair = (Vec<Event>, Vec<(u32, u32)>);

/// One shard's applied result: `(seq, per-stream outputs in sub-batch
/// order)`.
type DoneEntry = (u64, Vec<(StreamId, Vec<Sample>)>);

/// One sub-batch published to a shard's ring.
pub(crate) struct Entry {
    /// Per-shard monotonic sequence number (1-based).
    pub(crate) seq: u64,
    /// This shard's slice of the batch, in wire order.
    pub(crate) events: Vec<Event>,
    /// Pre-resolved run descriptors: `(slot, len)` per run of
    /// consecutive same-stream events.
    pub(crate) runs: Vec<(u32, u32)>,
}

/// The mutable half of a shard's ring, behind its queue mutex.
struct RingQueue {
    /// Published, not-yet-applied sub-batches (bounded by the ring
    /// capacity; producers help-drain or park when full).
    pending: VecDeque<Entry>,
    /// Applied results awaiting collection, in sequence order.
    done: VecDeque<DoneEntry>,
    /// Drained event/run buffers, recycled into the staging pool.
    recycled: Vec<BufPair>,
    shutdown: bool,
}

/// What one consumption attempt on a cell achieved.
enum Consumed {
    /// Applied one entry.
    One,
    /// Nothing pending.
    Empty,
    /// Another consumer holds the shard (only reported by `try` mode).
    Busy,
    /// The shard is poisoned (now, or by this very attempt).
    Poisoned,
}

/// One shard's executor cell: ring + sessions + watermark.
pub(crate) struct ShardCell {
    q: Mutex<RingQueue>,
    /// Wakes this shard's worker when work is published.
    work_cv: Condvar,
    /// The shard's sessions. Control operations (register, adopt,
    /// snapshot, evict, finish) run on the *caller* thread under this
    /// lock — there is no command protocol. Lock order: `proc` before
    /// `q`, never the reverse.
    proc: Mutex<Shard>,
    /// Sequence number of the last fully-applied entry (the epoch
    /// watermark). Written by consumers after the result is queued.
    applied: AtomicU64,
    poisoned: AtomicBool,
    /// Telemetry: current `pending` length, mirrored at every
    /// push/pop while the queue lock is already held.
    depth: Gauge,
    /// Telemetry: highest `pending` length ever seen.
    high_water: Gauge,
}

impl ShardCell {
    fn new(depth: Gauge, high_water: Gauge) -> ShardCell {
        ShardCell {
            q: Mutex::new(RingQueue {
                pending: VecDeque::new(),
                done: VecDeque::new(),
                recycled: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            proc: Mutex::new(Shard::new()),
            applied: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            depth,
            high_water,
        }
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Pops and applies the oldest pending entry. Holding `proc` across
    /// the pop is what keeps per-shard entry order intact with multiple
    /// consumers. `try_proc` consumers (the caller helping out) bail
    /// with [`Consumed::Busy`] instead of blocking behind the worker.
    fn consume(&self, progress: &Progress, try_proc: bool) -> Consumed {
        if self.poisoned() {
            return Consumed::Poisoned;
        }
        let mut shard = if try_proc {
            match self.proc.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => return Consumed::Busy,
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
            }
        } else {
            lock_mutex(&self.proc)
        };
        let entry = {
            let mut q = lock_mutex(&self.q);
            if q.shutdown {
                return Consumed::Empty;
            }
            let e = q.pending.pop_front();
            if e.is_some() {
                self.depth.set(q.pending.len() as u64);
            }
            e
        };
        let Some(mut entry) = entry else {
            return Consumed::Empty;
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            shard.ingest_runs(&entry.events, &entry.runs)
        }));
        match result {
            Ok(outs) => {
                // The done-push and watermark store stay inside the
                // `proc` critical section: were the guard released
                // first, a second consumer could finish a *later* entry
                // and publish its result (and watermark) ahead of this
                // one, breaking done-queue FIFO order.
                let seq = entry.seq;
                entry.events.clear();
                entry.runs.clear();
                {
                    let mut q = lock_mutex(&self.q);
                    q.done.push_back((seq, outs));
                    if q.recycled.len() < RING_CAPACITY {
                        q.recycled.push((entry.events, entry.runs));
                    }
                }
                self.applied.store(seq, Ordering::Release);
                drop(shard);
                progress.bump();
                Consumed::One
            }
            Err(_panic) => {
                // The shard state may be mid-mutation: poison the cell
                // and wake everyone (the engine maps this to
                // `WorkerLost`; the worker thread exits). The panic
                // payload is discarded (its message already went through
                // the panic hook).
                self.poisoned.store(true, Ordering::Release);
                self.work_cv.notify_all();
                progress.bump();
                Consumed::Poisoned
            }
        }
    }
}

/// The engine's wait channel: consumers bump the generation after every
/// completion (or poisoning), waiters re-check their condition whenever
/// it moves. The generation is read under the mutex *before* the
/// condition, so a completion between the check and the wait cannot be
/// missed.
struct Progress {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl Progress {
    fn bump(&self) {
        let mut g = lock_mutex(&self.gen);
        *g = g.wrapping_add(1);
        self.cv.notify_all();
    }

    fn snapshot(&self) -> u64 {
        *lock_mutex(&self.gen)
    }

    /// Blocks until the generation moves past `seen` (with a safety-net
    /// timeout so a logic bug degrades to polling, never a hang).
    fn wait_past(&self, seen: u64) {
        let mut g = lock_mutex(&self.gen);
        while *g == seen {
            let (guard, timeout) = self
                .cv
                .wait_timeout(g, std::time::Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
            if timeout.timed_out() {
                return;
            }
        }
    }
}

/// The multi-worker executor: one [`ShardCell`] and one drainer thread
/// per shard, plus the caller as an opportunistic extra consumer.
pub(crate) struct Ring {
    cells: Vec<Arc<ShardCell>>,
    progress: Arc<Progress>,
    threads: Vec<JoinHandle<()>>,
    /// Whether publishes wake the shard's worker immediately. On a
    /// single-core host a wakeup cannot add throughput — the caller
    /// help-drains everything anyway — so publishes stay silent and the
    /// workers only wake for shutdown. On a multicore host workers wake
    /// per publish and drain in parallel with the caller's routing.
    eager_wake: bool,
}

impl Ring {
    pub(crate) fn new(
        shards: usize,
        eager_wake: bool,
        depth: Vec<Gauge>,
        high_water: Vec<Gauge>,
    ) -> Ring {
        debug_assert_eq!(depth.len(), shards);
        debug_assert_eq!(high_water.len(), shards);
        let progress = Arc::new(Progress {
            gen: Mutex::new(0),
            cv: Condvar::new(),
        });
        let cells: Vec<Arc<ShardCell>> = depth
            .into_iter()
            .zip(high_water)
            .map(|(d, hw)| Arc::new(ShardCell::new(d, hw)))
            .collect();
        let threads = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let cell = Arc::clone(cell);
                let progress = Arc::clone(&progress);
                std::thread::Builder::new()
                    .name(format!("wms-engine-shard-{i}"))
                    .spawn(move || worker_loop(cell, progress))
                    .expect("spawn shard worker")
            })
            .collect();
        Ring {
            cells,
            progress,
            threads,
            eager_wake,
        }
    }

    /// Runs a control operation against a shard's sessions on the
    /// caller thread, with the same panic containment as ingest.
    /// `Err(())` means the shard is (now) poisoned.
    pub(crate) fn shard_op<T>(
        &self,
        shard: usize,
        op: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, ()> {
        let cell = &self.cells[shard];
        if cell.poisoned() {
            return Err(());
        }
        let mut guard = lock_mutex(&cell.proc);
        match catch_unwind(AssertUnwindSafe(|| op(&mut guard))) {
            Ok(v) => Ok(v),
            Err(_panic) => {
                cell.poisoned.store(true, Ordering::Release);
                cell.work_cv.notify_all();
                self.progress.bump();
                Err(())
            }
        }
    }

    /// Publishes one entry to `shard`'s ring. Blocks only when the ring
    /// is full — and even then drains an entry itself before parking, so
    /// a full ring converts backpressure into useful work. `Err(())`
    /// maps to `WorkerLost`.
    pub(crate) fn publish(&self, shard: usize, entry: Entry) -> Result<(), ()> {
        let cell = &self.cells[shard];
        let mut entry = Some(entry);
        loop {
            if cell.poisoned() {
                return Err(());
            }
            let seen = self.progress.snapshot();
            {
                let mut q = lock_mutex(&cell.q);
                if q.pending.len() < RING_CAPACITY {
                    q.pending
                        .push_back(entry.take().expect("publish retries keep the entry"));
                    let depth = q.pending.len() as u64;
                    cell.depth.set(depth);
                    cell.high_water.record_max(depth);
                    drop(q);
                    if self.eager_wake {
                        cell.work_cv.notify_one();
                    }
                    return Ok(());
                }
            }
            match cell.consume(&self.progress, true) {
                Consumed::One | Consumed::Empty => {}
                Consumed::Poisoned => return Err(()),
                Consumed::Busy => self.progress.wait_past(seen),
            }
        }
    }

    /// Blocks until `shard`'s applied watermark reaches `seq`, help-
    /// draining the ring while it waits. `Err(())` maps to `WorkerLost`.
    pub(crate) fn wait_applied(&self, shard: usize, seq: u64) -> Result<(), ()> {
        let cell = &self.cells[shard];
        loop {
            if cell.applied.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            if cell.poisoned() {
                return Err(());
            }
            let seen = self.progress.snapshot();
            match cell.consume(&self.progress, true) {
                Consumed::One => {}
                Consumed::Poisoned => return Err(()),
                Consumed::Empty | Consumed::Busy => {
                    // The watermark may have moved between the check and
                    // the consume; re-check before parking.
                    if cell.applied.load(Ordering::Acquire) >= seq || cell.poisoned() {
                        continue;
                    }
                    self.progress.wait_past(seen);
                }
            }
        }
    }

    /// Pops the oldest completed result of `shard` (the caller has
    /// already waited out the watermark, so it must exist), returning
    /// recycled buffers into `pool`.
    pub(crate) fn take_done(&self, shard: usize, pool: &mut Vec<BufPair>) -> DoneEntry {
        let mut q = lock_mutex(&self.cells[shard].q);
        pool.append(&mut q.recycled);
        q.done.pop_front().expect("watermark covered this entry")
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        for cell in &self.cells {
            let mut q = lock_mutex(&cell.q);
            q.shutdown = true;
            drop(q);
            cell.work_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Worker loop: drains its shard's ring until shutdown or poisoning.
fn worker_loop(cell: Arc<ShardCell>, progress: Arc<Progress>) {
    loop {
        {
            let mut q = lock_mutex(&cell.q);
            loop {
                if q.shutdown || cell.poisoned() {
                    return;
                }
                if !q.pending.is_empty() {
                    break;
                }
                q = cell.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }
        loop {
            match cell.consume(&progress, false) {
                Consumed::One => {}
                Consumed::Empty | Consumed::Busy => break,
                Consumed::Poisoned => return,
            }
        }
    }
}
