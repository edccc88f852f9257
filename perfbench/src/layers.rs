//! Per-layer measurements the traced run takes beside the step-wise
//! replay, each by calling that layer's public functions directly on
//! the workload's own data.

use crate::replay::HashSample;
use crate::stats::median;
use crate::workloads::Workload;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wms_core::{DetectConfig, EmbedConfig, Scheme};
use wms_daemon::proto::{batch_frame, decode_batch_into, FrameDecoder};
use wms_engine::{Engine, EngineConfig, Event, MemoryBudget, ShardRouter, StreamId, StreamSpec};

/// Repeats `f` until at least `min` has elapsed; returns ns per call.
fn ns_per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < min {
        f();
        calls += 1;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// `engine.route`: `Engine::ingest` on `StreamSpec::NoOp` sessions over
/// the workload's batch schedule, one worker. Returns seconds per pass.
pub fn route_s(events: &[Event], batch: usize) -> f64 {
    let mut engine = Engine::new(EngineConfig::with_workers(1)).expect("engine");
    let mut seen = std::collections::HashSet::new();
    for e in events {
        if seen.insert(e.stream.0) {
            engine
                .register(e.stream, StreamSpec::NoOp)
                .expect("register");
        }
    }
    let started = Instant::now();
    for chunk in events.chunks(batch) {
        black_box(engine.ingest(chunk).expect("ingest"));
    }
    let s = started.elapsed().as_secs_f64();
    engine.finish().expect("finish");
    s
}

/// `engine.shard_skew`: max ÷ mean items per shard under the engine's
/// default router at `workers` shards.
pub fn shard_skew(events: &[Event], workers: usize) -> f64 {
    let router = ShardRouter::new(EngineConfig::default().shard_key, workers.max(1));
    let mut per_shard = vec![0u64; router.shards()];
    let mut shard_of = std::collections::HashMap::new();
    for e in events {
        let s = *shard_of
            .entry(e.stream.0)
            .or_insert_with(|| router.shard_of(e.stream));
        per_shard[s] += 1;
    }
    let max = *per_shard.iter().max().unwrap_or(&0) as f64;
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// What the measurement engine saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineLayer {
    /// Re-adoptions under the workload's own budget and schedule.
    pub readopt_count: u64,
    /// Cost of one re-adoption cycle (re-adopt plus the eviction that
    /// makes room for it).
    pub readopt_ns_each: f64,
    /// Largest spill-log length seen.
    pub spill_bytes: u64,
    /// Median checkpoint: `Engine::checkpoint`, serialize, write, fsync.
    pub checkpoint_ns: f64,
    pub checkpoint_bytes: u64,
    /// All checkpoints taken at the workload's cadence, summed.
    pub checkpoint_total_s: f64,
}

/// Samples of the direct re-adoption experiment.
const READOPT_SAMPLES: usize = 64;
/// Budgeted/unbudgeted pairs timed for the residency cost.
const RESIDENCY_PAIRS: usize = 2;

/// One pass of an engine (one worker, sessions of `spec`) over the
/// schedule, taking a checkpoint every `every` batches (and at the end
/// when none was taken). Returns the engine, its ingest seconds
/// (checkpoints excluded) and the checkpoint times in ns.
fn engine_pass(
    budget: MemoryBudget,
    spec: &StreamSpec,
    events: &[Event],
    batch: usize,
    every: Option<usize>,
    ck_path: &Path,
    out: &mut EngineLayer,
) -> (Engine, Vec<StreamId>, f64, Vec<f64>) {
    let mut engine =
        Engine::new(EngineConfig::with_workers(1).with_budget(budget)).expect("engine");
    let mut order = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for e in events {
        if seen.insert(e.stream.0) {
            order.push(e.stream);
            engine.register(e.stream, spec.clone()).expect("register");
        }
    }
    let mut ck_ns = Vec::new();
    let mut ingest_s = 0.0;
    for (k, chunk) in events.chunks(batch).enumerate() {
        let started = Instant::now();
        black_box(engine.ingest(chunk).expect("ingest"));
        ingest_s += started.elapsed().as_secs_f64();
        out.spill_bytes = out.spill_bytes.max(engine.spill_stats().log_bytes);
        if every.is_some_and(|n| (k + 1) % n == 0) {
            ck_ns.push(checkpoint(&mut engine, ck_path, out));
        }
    }
    if every.is_some() && ck_ns.is_empty() {
        ck_ns.push(checkpoint(&mut engine, ck_path, out));
    }
    (engine, order, ingest_s, ck_ns)
}

/// One durable checkpoint as the CLI takes it: `Engine::checkpoint`,
/// serialize, write, fsync. Returns its ns.
fn checkpoint(engine: &mut Engine, path: &Path, out: &mut EngineLayer) -> f64 {
    let started = Instant::now();
    let bytes = engine.checkpoint().expect("checkpoint").to_bytes();
    let mut f = std::fs::File::create(path).expect("checkpoint file");
    f.write_all(&bytes).expect("checkpoint write");
    f.sync_all().expect("checkpoint fsync");
    out.checkpoint_bytes = bytes.len() as u64;
    started.elapsed().as_nanos() as f64
}

/// The engine layer's hibernation and checkpoint costs, measured on
/// engines driven directly (one worker, spill file under `work`).
///
/// Budgeted workloads replay both passes of the CLI under their own
/// budget — the embedding pass with its checkpoint cadence over
/// `events`, the verification pass with detection sessions over
/// `marked` — alternating with unbudgeted passes: the difference in
/// ingest time is the residency cost (evictions plus re-adoptions),
/// charged per re-adoption. Other workloads run their first 64 batches,
/// checkpoint once, and time re-adoption directly — single-event
/// batches to explicitly hibernated sessions against single-event
/// batches to resident ones.
pub fn engine_layer(
    wl: &Workload,
    embed: &Arc<EmbedConfig>,
    detect: &Arc<DetectConfig>,
    events: &[Event],
    marked: &[Event],
    work: &Path,
) -> EngineLayer {
    let spill = work.join("measure.spill");
    let ck_path = work.join("measure.ck");
    let mut out = EngineLayer::default();
    if let Some(b) = wl.budget {
        let (mut ck, mut ck_total) = (Vec::new(), Vec::new());
        let mut residency_s = 0.0;
        let passes = [
            (
                StreamSpec::Embed(Arc::clone(embed)),
                events,
                Some(b.checkpoint_every),
            ),
            (StreamSpec::Detect(Arc::clone(detect)), marked, None),
        ];
        for (spec, evs, every) in &passes {
            let (mut budgeted, mut free, mut readopts) = (Vec::new(), Vec::new(), 0);
            for _ in 0..RESIDENCY_PAIRS {
                let budget = MemoryBudget::resident(b.max_resident).with_spill_file(spill.clone());
                let (engine, _, s, ck_ns) =
                    engine_pass(budget, spec, evs, wl.batch, *every, &ck_path, &mut out);
                readopts = engine.metrics().readoptions.get();
                budgeted.push(s);
                if every.is_some() {
                    ck_total.push(ck_ns.iter().sum::<f64>() / 1e9);
                    ck.extend(ck_ns);
                }
                drop(engine);
                let mut scratch = EngineLayer::default();
                let (_, _, s, _) = engine_pass(
                    MemoryBudget::default(),
                    spec,
                    evs,
                    wl.batch,
                    None,
                    &ck_path,
                    &mut scratch,
                );
                free.push(s);
            }
            out.readopt_count += readopts;
            residency_s +=
                (median(&budgeted).unwrap_or(0.0) - median(&free).unwrap_or(0.0)).max(0.0);
        }
        out.readopt_ns_each = if out.readopt_count == 0 {
            0.0
        } else {
            residency_s * 1e9 / out.readopt_count as f64
        };
        out.checkpoint_ns = median(&ck).unwrap_or(0.0);
        out.checkpoint_total_s = median(&ck_total).unwrap_or(0.0);
    } else {
        let budget = MemoryBudget::default().with_spill_file(spill.clone());
        let head = &events[..events.len().min(64 * wl.batch)];
        let (mut engine, order, _, ck_ns) = engine_pass(
            budget,
            &StreamSpec::Embed(Arc::clone(embed)),
            head,
            wl.batch,
            Some(usize::MAX),
            &ck_path,
            &mut out,
        );
        out.checkpoint_ns = median(&ck_ns).unwrap_or(0.0);
        out.checkpoint_total_s = ck_ns.iter().sum::<f64>() / 1e9;
        out.readopt_ns_each = direct_readopt_ns(&mut engine, &order, head);
    }
    let _ = std::fs::remove_file(&spill);
    let _ = std::fs::remove_file(&ck_path);
    out
}

/// Touches each sampled resident stream with one event twice — once
/// after an explicit `Engine::hibernate`, once resident — and returns
/// the median difference in ns.
fn direct_readopt_ns(engine: &mut Engine, order: &[StreamId], fed: &[Event]) -> f64 {
    let sample: Vec<StreamId> = order
        .iter()
        .copied()
        .filter(|id| engine.is_resident(*id) == Some(true))
        .take(READOPT_SAMPLES)
        .collect();
    let mut next_index = std::collections::HashMap::new();
    for e in fed {
        next_index.insert(e.stream.0, e.sample.index + 1);
    }
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for &id in &sample {
        for hibernated in [true, false] {
            let idx = next_index.entry(id.0).or_insert(0);
            let ev = Event::new(id, wms_stream::Sample::new(*idx, 0.5));
            *idx += 1;
            if hibernated {
                engine.hibernate(id).expect("hibernate");
            }
            let started = Instant::now();
            black_box(engine.ingest(&[ev]).expect("ingest"));
            let ns = started.elapsed().as_nanos() as f64;
            if hibernated {
                cold.push(ns);
            } else {
                warm.push(ns);
            }
        }
    }
    match (median(&cold), median(&warm)) {
        (Some(c), Some(w)) => (c - w).max(0.0),
        _ => 0.0,
    }
}

/// `crypto.hash.ns_per_code`: the compiled convention hasher (one per
/// label, as the multi-hash search builds them) over the workload's own
/// labels and quantized subset values.
pub fn hash_ns_per_code(scheme: &Scheme, samples: &[HashSample]) -> f64 {
    let bits = scheme.params.convention_bits;
    let lsb_bits = scheme.params.lsb_bits;
    let codes: usize = samples.iter().map(|s| s.raws.len()).sum();
    if codes == 0 {
        return 0.0;
    }
    let per_round = ns_per_call(Duration::from_millis(20), || {
        for s in samples {
            let mut h = scheme.compile_convention_hasher(&s.label);
            for &r in &s.raws {
                black_box(h.hash_lsb(scheme.codec.lsb(r, lsb_bits), bits));
            }
        }
    });
    per_round / codes as f64
}

/// Up to `n` of the workload's 256-event WMSP batches, encoded.
pub fn sample_frames(events: &[Event], n: usize) -> Vec<Vec<u8>> {
    events
        .chunks(256)
        .take(n)
        .enumerate()
        .map(|(i, c)| batch_frame(i as u64 + 1, c))
        .collect()
}

/// `crypto.crc32.ns_per_kib` over the workload's encoded batch frames.
pub fn crc32_ns_per_kib(frames: &[Vec<u8>]) -> f64 {
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let per_round = ns_per_call(Duration::from_millis(20), || {
        for f in frames {
            black_box(wms_crypto::crc32(f));
        }
    });
    per_round / (bytes as f64 / 1024.0)
}

/// `daemon.proto.encode_ns_per_batch` / `decode_ns_per_batch` measured
/// directly (`batch_frame`; `FrameDecoder` + `decode_batch_into`).
pub fn proto_ns_per_batch(events: &[Event], n: usize) -> (f64, f64) {
    let chunks: Vec<&[Event]> = events.chunks(256).take(n).collect();
    let encode = ns_per_call(Duration::from_millis(20), || {
        for (i, c) in chunks.iter().enumerate() {
            black_box(batch_frame(i as u64 + 1, c));
        }
    }) / chunks.len() as f64;
    let frames = sample_frames(events, n);
    let mut dec = FrameDecoder::new();
    let mut buf = Vec::new();
    let decode = ns_per_call(Duration::from_millis(20), || {
        for f in &frames {
            dec.push(f);
            let raw = dec.try_raw().expect("decodes").expect("whole frame");
            black_box(decode_batch_into(&raw.payload, &mut buf).expect("batch"));
        }
    }) / frames.len() as f64;
    (encode, decode)
}
