//! Multi-stream engine scaling baseline: measures aggregate embed
//! throughput through `wms-engine` as the stream count and worker count
//! vary, against a sequential single-thread baseline over the same
//! shared-config sessions, and writes the machine-readable
//! `BENCH_engine.json`.
//!
//! ```text
//! WMS_BENCH_MS=500 cargo run -p wms-bench --release --bin bench_engine
//! ```
//!
//! Environment:
//! * `WMS_BENCH_MS`  — wall-clock budget per measurement (default 200 ms);
//! * `WMS_BENCH_OUT` — output path (default `BENCH_engine.json`).
//!
//! The JSON carries `host_cpus`: worker scaling beyond the physical core
//! count cannot speed anything up, so read `workers=N` rows against it.
//! The `engine-noop` sweep is the sweep's honest denominator: the same
//! executor driven with no-op sessions, so a flat embed sweep on a small
//! host decomposes into executor overhead vs watermark compute instead
//! of being guessed around.
//!
//! The `engine-registry` rows are the bounded-memory capacity proof:
//! one million registered streams processed under a fixed
//! 10,240-session residency budget (cold sessions hibernated to a spill
//! file), with a built-in drift check — the watermarked subset's output
//! must be byte-identical to an unbudgeted engine's, or the bench
//! aborts.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wms_bench::perf::{self, PerfRecord};
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{EmbedConfig, EmbedSession, Scheme, Watermark, WmParams};
use wms_crypto::{Key, KeyedHash};
use wms_engine::{
    Checkpoint, Engine, EngineConfig, Event, MemoryBudget, StreamId, StreamSpec, RING_CAPACITY,
};
use wms_stream::Sample;
use wms_telemetry::Registry;

const SCHEMA: &str = "wms-bench-engine/v1";
/// Total items per iteration, split across the streams.
const TOTAL_ITEMS: usize = 65_536;
/// Ingest batch size (events per `Engine::ingest` call).
const BATCH: usize = 4096;

fn params() -> WmParams {
    WmParams {
        window: 256,
        degree: 3,
        radius: 0.01,
        max_subset: 4,
        label_len: 4,
        label_stride: 1,
        min_active: Some(12),
        ..WmParams::default()
    }
}

fn scheme() -> Scheme {
    Scheme::new(params(), KeyedHash::md5(Key::from_u64(0xC0FFEE))).unwrap()
}

fn config() -> Arc<EmbedConfig> {
    Arc::new(
        EmbedConfig::new(
            scheme(),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
        )
        .unwrap(),
    )
}

/// Round-robin interleaving of `streams` sine streams covering
/// `TOTAL_ITEMS` events in total.
fn workload(streams: usize) -> Vec<Event> {
    let per_stream = (TOTAL_ITEMS / streams).max(1);
    let mut events = Vec::with_capacity(per_stream * streams);
    for i in 0..per_stream {
        for id in 0..streams as u64 {
            let t = i as f64 + id as f64;
            let period = 19.0 + (id % 7) as f64 * 4.0;
            let v = 0.3 * (t * core::f64::consts::TAU / period).sin()
                + 0.05 * (t * core::f64::consts::TAU / 7.0).sin();
            events.push(Event::new(StreamId(id), Sample::new(i as u64, v)));
        }
    }
    events
}

/// One full engine run: spawn, register, ingest in batches, finish.
/// Returns total samples out (sanity check + black-box anchor).
fn run_engine(cfg: &Arc<EmbedConfig>, events: &[Event], streams: usize, workers: usize) -> usize {
    let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
    for id in 0..streams as u64 {
        engine
            .register(StreamId(id), StreamSpec::Embed(Arc::clone(cfg)))
            .unwrap();
    }
    let mut n = 0usize;
    for chunk in events.chunks(BATCH) {
        for out in engine.ingest(chunk).unwrap() {
            n += out.samples.len();
        }
    }
    for outcome in engine.finish().unwrap() {
        n += outcome.tail.len();
    }
    n
}

/// [`run_engine`] over no-op sessions: identical routing, batching,
/// registry and reply traffic, zero per-sample compute. The difference
/// between this and [`run_engine`] is the watermark; the difference
/// between this and doing nothing is the executor.
fn run_engine_noop(events: &[Event], streams: usize, workers: usize) -> usize {
    let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
    for id in 0..streams as u64 {
        engine.register(StreamId(id), StreamSpec::NoOp).unwrap();
    }
    let mut n = 0usize;
    for chunk in events.chunks(BATCH) {
        n += engine.ingest(chunk).unwrap().len();
    }
    n + engine.finish().unwrap().len()
}

/// [`run_engine_noop`] with a telemetry sink attached: the engine's
/// metric handles registered into a [`Registry`] and the exposition
/// rendered once at the end, as a scraping daemon would. Recording is
/// always on (relaxed atomics), so the delta between this row and the
/// plain no-op row is the entire cost a metrics consumer adds — the
/// number behind the "<2% overhead" claim in DESIGN.md §3.18.
fn run_engine_noop_telemetry(events: &[Event], streams: usize, workers: usize) -> usize {
    let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
    let registry = Registry::new();
    engine.metrics().register_into(&registry);
    for id in 0..streams as u64 {
        engine.register(StreamId(id), StreamSpec::NoOp).unwrap();
    }
    let mut n = 0usize;
    for chunk in events.chunks(BATCH) {
        n += engine.ingest(chunk).unwrap().len();
    }
    n += engine.finish().unwrap().len();
    n + black_box(registry.render()).len().min(1)
}

/// Interleaved best-of-rounds measurement for variants whose *delta* is
/// the result: each variant runs [`DRIFT_ROUNDS`] short windows,
/// alternating back-to-back with the others, and keeps its fastest
/// window. Two single long windows minutes apart pick up whatever load
/// drift the host has in between — on a shared core that drift is
/// several percent, dwarfing a sub-percent delta. Alternation gives
/// every variant the same traffic, and min-of-windows discards the
/// noisy ones. Windows are kept short (many rounds) so a multi-second
/// neighbor burst can't contaminate every window of one variant.
const DRIFT_ROUNDS: u32 = 15;

fn measure_interleaved(
    bench: &str,
    items: u64,
    budget: Duration,
    variants: &mut [(String, &mut dyn FnMut())],
) -> Vec<PerfRecord> {
    let slice = (budget / DRIFT_ROUNDS).max(Duration::from_millis(1));
    let mut best: Vec<Option<PerfRecord>> = variants.iter().map(|_| None).collect();
    for _ in 0..DRIFT_ROUNDS {
        for (i, (variant, f)) in variants.iter_mut().enumerate() {
            let r = perf::measure(bench, variant.clone(), items, slice, &mut **f);
            if best[i]
                .as_ref()
                .is_none_or(|b| r.ns_per_iter < b.ns_per_iter)
            {
                best[i] = Some(r);
            }
        }
    }
    best.into_iter().map(Option::unwrap).collect()
}

/// [`run_engine_noop`] through the pipelined `submit`/`collect_next`
/// API instead of the per-batch `ingest` barrier: up to `RING_CAPACITY`
/// epochs ride in flight, so routing of batch N+1 overlaps the shard
/// work of batch N. The gap between this and [`run_engine_noop`] is
/// what the barrier costs.
fn run_engine_noop_pipelined(events: &[Event], streams: usize, workers: usize) -> usize {
    let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
    for id in 0..streams as u64 {
        engine.register(StreamId(id), StreamSpec::NoOp).unwrap();
    }
    let mut n = 0usize;
    let mut outstanding = 0usize;
    for chunk in events.chunks(BATCH) {
        while outstanding >= RING_CAPACITY {
            let (_, outs) = engine.collect_next().unwrap().expect("epoch outstanding");
            n += outs.len();
            outstanding -= 1;
        }
        engine.submit(chunk).unwrap();
        outstanding += 1;
    }
    while outstanding > 0 {
        let (_, outs) = engine.collect_next().unwrap().expect("epoch outstanding");
        n += outs.len();
        outstanding -= 1;
    }
    n + engine.finish().unwrap().len()
}

/// Skewed interleaving over `streams` streams: stream 0 carries half
/// the events while the rest round-robin the other half — the shape
/// hash-routing loses on, since one shard carries the hot stream.
/// Per-stream sample indices stay sequential so outputs are
/// well-defined.
fn workload_skewed(streams: usize) -> Vec<Event> {
    assert!(streams >= 2);
    let mut events = Vec::with_capacity(TOTAL_ITEMS);
    let mut next = vec![0u64; streams];
    for i in 0..TOTAL_ITEMS {
        let id = if i % 2 == 0 {
            0
        } else {
            1 + (i / 2) % (streams - 1)
        };
        let k = next[id];
        next[id] += 1;
        events.push(Event::new(
            StreamId(id as u64),
            Sample::new(k, wave_value(k as usize, id as u64)),
        ));
    }
    events
}

/// The per-sample sine used by [`workload`], exposed for the registry
/// bench which builds traffic over a sparse id subset.
fn wave_value(i: usize, id: u64) -> f64 {
    let t = i as f64 + id as f64;
    let period = 19.0 + (id % 7) as f64 * 4.0;
    0.3 * (t * core::f64::consts::TAU / period).sin()
        + 0.05 * (t * core::f64::consts::TAU / 7.0).sin()
}

/// Splitmix64 — deterministic cold-stream picks for the registry bench.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One manually-timed run (`iters = 1`) — for workloads like the
/// million-stream registration that are far too large to loop under the
/// wall-clock budget but still belong in the trajectory file.
fn timed_once(bench: &str, variant: &str, items: u64, f: impl FnOnce()) -> PerfRecord {
    let t0 = Instant::now();
    f();
    let ns = t0.elapsed().as_nanos() as f64;
    PerfRecord {
        bench: bench.into(),
        variant: variant.into(),
        items,
        iters: 1,
        ns_per_iter: ns,
        items_per_sec: items as f64 * 1e9 / ns,
    }
}

/// [`run_engine`] with a serialized checkpoint taken every `every`
/// batches — the throughput cost of durability.
fn run_engine_checkpointed(
    cfg: &Arc<EmbedConfig>,
    events: &[Event],
    streams: usize,
    workers: usize,
    every: usize,
) -> usize {
    let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
    for id in 0..streams as u64 {
        engine
            .register(StreamId(id), StreamSpec::Embed(Arc::clone(cfg)))
            .unwrap();
    }
    let mut n = 0usize;
    for (b, chunk) in events.chunks(BATCH).enumerate() {
        for out in engine.ingest(chunk).unwrap() {
            n += out.samples.len();
        }
        if (b + 1) % every == 0 {
            n += black_box(engine.checkpoint().unwrap().to_bytes()).len() % 2;
        }
    }
    for outcome in engine.finish().unwrap() {
        n += outcome.tail.len();
    }
    n
}

/// An engine mid-run (half the workload ingested), for measuring the
/// checkpoint and restore operations in isolation.
fn warmed_engine(cfg: &Arc<EmbedConfig>, events: &[Event], streams: usize) -> Engine {
    let mut engine = Engine::new(EngineConfig::with_workers(1)).unwrap();
    for id in 0..streams as u64 {
        engine
            .register(StreamId(id), StreamSpec::Embed(Arc::clone(cfg)))
            .unwrap();
    }
    for chunk in events[..events.len() / 2].chunks(BATCH) {
        engine.ingest(chunk).unwrap();
    }
    engine
}

/// The no-executor baseline: the same shared config and per-stream
/// sessions driven inline on the caller thread, in wire order.
fn run_sequential(cfg: &Arc<EmbedConfig>, events: &[Event], streams: usize) -> usize {
    let mut sessions: HashMap<u64, EmbedSession> = (0..streams as u64)
        .map(|id| (id, cfg.new_session()))
        .collect();
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        cfg.push_into(sessions.get_mut(&ev.stream.0).unwrap(), ev.sample, &mut out);
    }
    for (_, mut sess) in sessions {
        cfg.finish_into(&mut sess, &mut out);
    }
    out.len()
}

fn main() {
    let budget_ms: u64 = std::env::var("WMS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let budget = Duration::from_millis(budget_ms.max(1));
    let out_path = std::env::var("WMS_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".into());
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let cfg = config();
    let mut records: Vec<PerfRecord> = Vec::new();
    eprintln!(
        "bench_engine: {budget_ms} ms per measurement, {TOTAL_ITEMS} items, {host_cpus} cpus"
    );

    // Throughput vs stream count: sequential baseline vs the executor.
    for streams in [1usize, 8, 64, 1024] {
        let events = workload(streams);
        let items = events.len() as u64;
        let id = format!("engine-embed/streams={streams}");
        records.push(perf::measure(&id, "sequential", items, budget, || {
            black_box(run_sequential(&cfg, black_box(&events), streams));
        }));
        for workers in [1usize, host_cpus] {
            let variant = format!("workers={workers}");
            if records
                .iter()
                .any(|r| r.bench == id && r.variant == variant)
            {
                continue; // host_cpus == 1 duplicates workers=1
            }
            records.push(perf::measure(&id, &variant, items, budget, || {
                black_box(run_engine(&cfg, black_box(&events), streams, workers));
            }));
        }
    }

    // Worker sweep at 64 streams (the ≥64-stream scaling row; beyond
    // host_cpus the extra workers only measure executor overhead). The
    // host's own core count is always part of the sweep so the scaling
    // headline below exists on any machine.
    {
        let streams = 64usize;
        let events = workload(streams);
        let items = events.len() as u64;
        let id = format!("engine-embed/worker-sweep streams={streams}");
        let mut sweep = vec![1usize, 2, 4, 8, host_cpus];
        sweep.sort_unstable();
        sweep.dedup();
        for workers in sweep {
            let variant = format!("workers={workers}");
            records.push(perf::measure(&id, &variant, items, budget, || {
                black_box(run_engine(&cfg, black_box(&events), streams, workers));
            }));
        }
    }

    // The same sweep over no-op sessions: pure executor overhead
    // (routing, batching, channel traffic, registry bookkeeping). The
    // embed sweep above conflates executor and watermark cost — this is
    // its denominator.
    {
        let streams = 64usize;
        let events = workload(streams);
        let items = events.len() as u64;
        let id = format!("engine-noop/worker-sweep streams={streams}");
        let mut sweep = vec![1usize, 2, 4, 8, host_cpus];
        sweep.sort_unstable();
        sweep.dedup();
        for workers in sweep {
            // The plain row and its telemetry twin (same run with a
            // sink registered and the exposition rendered once — the
            // overhead-claim pair behind "<2%" in DESIGN.md §3.18) are
            // measured interleaved: their true delta is microseconds,
            // so host load drift between two separate windows would
            // otherwise be the entire signal.
            let mut plain = || {
                black_box(run_engine_noop(black_box(&events), streams, workers));
            };
            let mut telemetry = || {
                black_box(run_engine_noop_telemetry(
                    black_box(&events),
                    streams,
                    workers,
                ));
            };
            records.extend(measure_interleaved(
                &id,
                items,
                budget,
                &mut [
                    (format!("workers={workers}"), &mut plain),
                    (format!("workers={workers} telemetry"), &mut telemetry),
                ],
            ));
            // The same run through submit/collect with the ring's full
            // in-flight window — barrier vs pipelined on one chart.
            let variant = format!("workers={workers} pipelined");
            records.push(perf::measure(&id, &variant, items, budget, || {
                black_box(run_engine_noop_pipelined(
                    black_box(&events),
                    streams,
                    workers,
                ));
            }));
        }
    }

    // Skewed traffic: stream 0 carries half the events while 63 streams
    // share the rest. Hash routing pins the hot stream to one shard;
    // the sequential baseline is the denominator.
    {
        let streams = 64usize;
        let events = workload_skewed(streams);
        let items = events.len() as u64;
        let id = "engine-embed/skewed streams=64 hot=1/2";
        records.push(perf::measure(id, "sequential", items, budget, || {
            black_box(run_sequential(&cfg, black_box(&events), streams));
        }));
        let mut sweep = vec![1usize, 2, host_cpus];
        sweep.sort_unstable();
        sweep.dedup();
        for workers in sweep {
            let variant = format!("workers={workers}");
            records.push(perf::measure(id, &variant, items, budget, || {
                black_box(run_engine(&cfg, black_box(&events), streams, workers));
            }));
        }
    }

    // Hibernation latency: one full evict → spill → read → checksum →
    // restore → re-adopt cycle, for a real embed session (window 256)
    // and for a no-op session (pure spill framing). items/sec = cycles
    // per second; 1e9/items_per_sec = ns per cycle.
    {
        let streams = 64usize;
        let events = workload(streams);
        let mut engine = warmed_engine(&cfg, &events, streams);
        let mut idx = (events.len() / streams) as u64;
        records.push(perf::measure(
            "engine-hibernate/streams=64 window=256",
            "evict+readopt cycle",
            1,
            budget,
            || {
                engine.hibernate(StreamId(0)).unwrap();
                let ev = Event::new(StreamId(0), Sample::new(idx, wave_value(idx as usize, 0)));
                idx += 1;
                black_box(engine.ingest(std::slice::from_ref(&ev)).unwrap());
            },
        ));
        let mut engine = Engine::new(EngineConfig::with_workers(1)).unwrap();
        engine.register(StreamId(0), StreamSpec::NoOp).unwrap();
        let mut idx = 0u64;
        records.push(perf::measure(
            "engine-hibernate/noop",
            "evict+readopt cycle",
            1,
            budget,
            || {
                engine.hibernate(StreamId(0)).unwrap();
                let ev = Event::new(StreamId(0), Sample::new(idx, 0.0));
                idx += 1;
                black_box(engine.ingest(std::slice::from_ref(&ev)).unwrap());
            },
        ));
    }

    // Checkpoint/restore overhead at 64 streams on the inline backend.
    {
        let streams = 64usize;
        let events = workload(streams);
        let items = events.len() as u64;
        let id = format!("engine-embed/checkpointed streams={streams}");
        for every in [4usize, 1] {
            let variant = format!("ckpt-every={every}");
            records.push(perf::measure(&id, &variant, items, budget, || {
                black_box(run_engine_checkpointed(&cfg, &events, streams, 1, every));
            }));
        }
        // The two operations in isolation, on an engine holding half the
        // workload: items/sec here means stream snapshots per second.
        let mut engine = warmed_engine(&cfg, &events, streams);
        let cid = format!("engine-checkpoint/streams={streams}");
        records.push(perf::measure(
            &cid,
            "snapshot+serialize",
            streams as u64,
            budget,
            || {
                black_box(engine.checkpoint().unwrap().to_bytes().len());
            },
        ));
        let bytes = engine.checkpoint().unwrap().to_bytes();
        println!(
            "checkpoint size at {streams} streams (window half-full): {} bytes",
            bytes.len()
        );
        records.push(perf::measure(
            &cid,
            "parse+restore",
            streams as u64,
            budget,
            || {
                let ck = Checkpoint::from_bytes(black_box(&bytes)).unwrap();
                let restored = Engine::restore(EngineConfig::with_workers(1), &ck, |_| {
                    Some(StreamSpec::Embed(Arc::clone(&cfg)))
                })
                .unwrap();
                black_box(restored.workers());
            },
        ));
    }

    // Bounded-memory capacity proof: one MILLION registered streams
    // under a fixed 10,240-session residency budget, cold sessions
    // hibernated to a spill file. A sparse subset of 512 streams carries
    // real embed sessions; its output is compared byte-for-byte against
    // an unbudgeted reference engine, and any drift aborts the bench —
    // the committed row certifies capacity *and* exactness at once.
    let registry_drift_checked: u64;
    {
        const REGISTRY_STREAMS: usize = 1_000_000;
        const REGISTRY_BUDGET: usize = 10_240;
        const EMBED_SUBSET: usize = 512;
        const PER_STREAM: usize = 300;
        let spill_path = std::env::temp_dir().join(format!(
            "wms-bench-registry-spill-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&spill_path);
        eprintln!(
            "bench_engine: registry run ({REGISTRY_STREAMS} streams, budget {REGISTRY_BUDGET})"
        );
        let engine_cfg = EngineConfig::with_workers(1).with_budget(
            MemoryBudget::resident(REGISTRY_BUDGET).with_spill_file(spill_path.clone()),
        );
        let mut engine = Engine::new(engine_cfg).unwrap();
        // The watermarked subset, spread across the whole id space.
        let embed_ids: Vec<u64> = (0..EMBED_SUBSET as u64).map(|i| i * 1953 + 7).collect();
        let embed_set: HashSet<u64> = embed_ids.iter().copied().collect();
        let bench_id =
            format!("engine-registry/streams={REGISTRY_STREAMS} budget={REGISTRY_BUDGET}");
        records.push(timed_once(
            &bench_id,
            "register+evict",
            REGISTRY_STREAMS as u64,
            || {
                for id in 0..REGISTRY_STREAMS as u64 {
                    let spec = if embed_set.contains(&id) {
                        StreamSpec::Embed(Arc::clone(&cfg))
                    } else {
                        StreamSpec::NoOp
                    };
                    engine.register(StreamId(id), spec).unwrap();
                }
            },
        ));
        assert!(
            engine.resident_streams() <= REGISTRY_BUDGET,
            "budget violated: {} resident",
            engine.resident_streams()
        );
        assert_eq!(
            engine.resident_streams() + engine.spilled_streams(),
            REGISTRY_STREAMS
        );

        // Traffic: the embed subset round-robin, plus deterministic cold
        // no-op touches sprinkled in so the LRU keeps churning embed
        // sessions through the spill during the measurement.
        let mut rng = 0xB16_5EEDu64;
        let mut events = Vec::with_capacity(EMBED_SUBSET * PER_STREAM + 4 * PER_STREAM);
        let mut embed_only = Vec::with_capacity(EMBED_SUBSET * PER_STREAM);
        for i in 0..PER_STREAM {
            for &id in &embed_ids {
                let ev = Event::new(StreamId(id), Sample::new(i as u64, wave_value(i, id)));
                events.push(ev);
                embed_only.push(ev);
            }
            for _ in 0..4 {
                let cold = splitmix(&mut rng) % REGISTRY_STREAMS as u64;
                if !embed_set.contains(&cold) {
                    events.push(Event::new(StreamId(cold), Sample::new(i as u64, 0.0)));
                }
            }
        }
        let mut outputs: HashMap<u64, Vec<Sample>> = HashMap::new();
        records.push(timed_once(
            &bench_id,
            "ingest+readopt",
            events.len() as u64,
            || {
                for chunk in events.chunks(BATCH) {
                    for out in engine.ingest(chunk).unwrap() {
                        if embed_set.contains(&out.stream.0) {
                            outputs.entry(out.stream.0).or_default().extend(out.samples);
                        }
                    }
                }
            },
        ));
        let mut outcomes = Vec::new();
        records.push(timed_once(
            &bench_id,
            "finish-drain",
            REGISTRY_STREAMS as u64,
            || {
                outcomes = engine.finish().unwrap();
            },
        ));
        let mut stats = HashMap::new();
        for o in outcomes {
            if embed_set.contains(&o.stream.0) {
                outputs.entry(o.stream.0).or_default().extend(o.tail);
                stats.insert(o.stream.0, o.embed_stats.expect("embed subset"));
            }
        }
        let _ = std::fs::remove_file(&spill_path);

        // The drift check: an unbudgeted engine over just the embed
        // subset must produce the same bytes.
        let mut reference = Engine::new(EngineConfig::with_workers(1)).unwrap();
        for &id in &embed_ids {
            reference
                .register(StreamId(id), StreamSpec::Embed(Arc::clone(&cfg)))
                .unwrap();
        }
        let mut want: HashMap<u64, Vec<Sample>> = HashMap::new();
        for chunk in embed_only.chunks(BATCH) {
            for out in reference.ingest(chunk).unwrap() {
                want.entry(out.stream.0).or_default().extend(out.samples);
            }
        }
        for o in reference.finish().unwrap() {
            want.entry(o.stream.0).or_default().extend(o.tail);
            assert_eq!(
                stats.get(&o.stream.0),
                Some(&o.embed_stats.expect("embed subset")),
                "registry drift: stream {} stats diverged under the budget",
                o.stream
            );
        }
        for (&id, w) in &want {
            let g = &outputs[&id];
            assert_eq!(g.len(), w.len(), "registry drift: stream {id} length");
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "registry drift: stream {id} sample {i}"
                );
            }
        }
        registry_drift_checked = want.len() as u64;
        println!(
            "registry: {REGISTRY_STREAMS} streams under a {REGISTRY_BUDGET}-resident budget; \
             zero output drift across {registry_drift_checked} watermarked streams"
        );
    }

    print!("{}", perf::render_perf_table(&records));
    let rate = |bench: &str, variant: &str| {
        records
            .iter()
            .find(|r| r.bench == bench && r.variant == variant)
            .map(|r| r.items_per_sec)
    };
    // Inline-dispatch headline: with one worker the engine runs the
    // shard on the caller thread, so streams=1 should track the
    // sequential baseline instead of paying a channel round-trip.
    if let (Some(seq), Some(one)) = (
        rate("engine-embed/streams=1", "sequential"),
        rate("engine-embed/streams=1", "workers=1"),
    ) {
        println!(
            "single-stream executor vs sequential: {:.2}x (inline single-worker dispatch)",
            one / seq
        );
    }
    // Scaling headline: 1 worker -> all cores at 64 streams.
    let sweep = "engine-embed/worker-sweep streams=64";
    if let (Some(one), Some(all)) = (
        rate(sweep, "workers=1"),
        rate(sweep, &format!("workers={host_cpus}")),
    ) {
        println!(
            "scaling 1 -> {host_cpus} workers at 64 streams: {:.2}x (host has {host_cpus} cpus)",
            all / one
        );
    }
    // Pipelining headline: what does skipping the per-batch barrier buy
    // on the pure-executor sweep?
    if let (Some(barrier), Some(pipelined)) = (
        rate("engine-noop/worker-sweep streams=64", "workers=2"),
        rate("engine-noop/worker-sweep streams=64", "workers=2 pipelined"),
    ) {
        println!(
            "pipelined submit/collect vs per-batch barrier (no-op, workers=2): {:.2}x",
            pipelined / barrier
        );
    }
    // Overhead headline: what share of an embed run is the executor
    // itself? (no-op sessions process the same events through the same
    // machinery with zero watermark compute).
    if let (Some(noop), Some(embed)) = (
        rate("engine-noop/worker-sweep streams=64", "workers=1"),
        rate(sweep, "workers=1"),
    ) {
        println!(
            "executor overhead at 64 streams: no-op runs {:.1}x the embed rate \
             (executor is ~{:.1}% of the embed run)",
            noop / embed,
            100.0 * embed / noop
        );
    }
    let json = perf::render_json_meta(
        SCHEMA,
        budget_ms,
        &[
            ("host_cpus", host_cpus as u64),
            ("total_items", TOTAL_ITEMS as u64),
            ("batch", BATCH as u64),
            ("ring_capacity", RING_CAPACITY as u64),
            ("registry_streams", 1_000_000),
            ("registry_budget", 10_240),
            ("registry_drift_streams_checked", registry_drift_checked),
            ("registry_drift_samples", 0),
        ],
        &records,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
