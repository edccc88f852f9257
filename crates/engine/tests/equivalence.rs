//! Multi-stream ↔ single-stream equivalence.
//!
//! The engine's contract is that multiplexing changes *nothing* about
//! any individual stream: whatever interleaving, batch size and worker
//! count feed the engine, each stream's output is bit-identical to
//! running that stream alone through the PR 2 single-stream pipeline
//! (`Embedder::embed_stream` / `Detector::detect_stream`). These tests
//! prove it for fixed fixtures and — via the proptest shim — for random
//! interleavings of K streams, for both embed and detect.
//!
//! The hibernation half of the wall extends the same contract to the
//! session registry: an engine that evicts sessions to a spill store —
//! under a [`MemoryBudget`], by explicit [`Engine::hibernate`] calls at
//! arbitrary points, to memory or to a real file on disk — must stay
//! byte-identical to the never-evicting engine and therefore to the
//! single-stream pipeline. Serialize → spill → checksum → restore is
//! exercised mid-run, across batch boundaries, worker counts 1/2/4 and
//! both production encoders.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wms_core::encoding::initial::InitialEncoder;
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{
    DetectConfig, Detector, EmbedConfig, Embedder, Scheme, SubsetEncoder, TransformHint, Watermark,
    WmParams,
};
use wms_crypto::{Key, KeyedHash};
use wms_engine::{Engine, EngineConfig, EngineError, Event, MemoryBudget, StreamId, StreamSpec};
use wms_stream::{samples_from_values, Sample};

fn params() -> WmParams {
    WmParams {
        window: 64,
        degree: 2,
        radius: 0.01,
        max_subset: 4,
        label_len: 3,
        label_stride: 1,
        min_active: Some(4),
        ..WmParams::default()
    }
}

fn scheme(key: u64) -> Scheme {
    Scheme::new(params(), KeyedHash::md5(Key::from_u64(key))).unwrap()
}

/// A per-stream waveform: phase and period vary with the id so streams
/// are genuinely different.
fn wave(n: usize, id: u64) -> Vec<Sample> {
    let period = 19.0 + (id % 7) as f64 * 4.0;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 + id as f64;
            0.3 * (t * core::f64::consts::TAU / period).sin()
                + 0.05 * (t * core::f64::consts::TAU / 7.0).sin()
        })
        .collect();
    samples_from_values(&values)
}

/// Splitmix64 — deterministic interleaving choices inside property tests.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomly interleaves the streams (per-stream order preserved).
fn interleave(streams: &[(StreamId, Vec<Sample>)], seed: u64) -> Vec<Event> {
    let mut rng = seed;
    let mut cursors = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(|(_, s)| s.len()).sum();
    let mut events = Vec::with_capacity(total);
    while events.len() < total {
        let live: Vec<usize> = (0..streams.len())
            .filter(|&i| cursors[i] < streams[i].1.len())
            .collect();
        let pick = live[(splitmix(&mut rng) % live.len() as u64) as usize];
        let (id, samples) = &streams[pick];
        events.push(Event::new(*id, samples[cursors[pick]]));
        cursors[pick] += 1;
    }
    events
}

/// Runs the engine in embed mode over the given interleaving and returns
/// each stream's full output (ingest emissions + finish tail) and stats.
fn engine_embed(
    streams: &[(StreamId, Vec<Sample>)],
    events: &[Event],
    workers: usize,
    batch: usize,
    key: u64,
) -> HashMap<u64, (Vec<Sample>, wms_core::EmbedStats)> {
    let cfg = Arc::new(
        EmbedConfig::new(
            scheme(key),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
        )
        .unwrap(),
    );
    let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
    for (id, _) in streams {
        engine
            .register(*id, StreamSpec::Embed(Arc::clone(&cfg)))
            .unwrap();
    }
    let mut collected: HashMap<u64, Vec<Sample>> = HashMap::new();
    for chunk in events.chunks(batch.max(1)) {
        for out in engine.ingest(chunk).unwrap() {
            collected
                .entry(out.stream.0)
                .or_default()
                .extend(out.samples);
        }
    }
    let mut result = HashMap::new();
    for outcome in engine.finish().unwrap() {
        let mut samples = collected.remove(&outcome.stream.0).unwrap_or_default();
        samples.extend(outcome.tail);
        result.insert(outcome.stream.0, (samples, outcome.embed_stats.unwrap()));
    }
    result
}

fn assert_bit_identical(id: u64, got: &[Sample], want: &[Sample]) {
    assert_eq!(got.len(), want.len(), "stream {id}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "stream {id} sample {i}: engine {} vs single-stream {}",
            a.value,
            b.value
        );
        assert_eq!(a.index, b.index, "stream {id} sample {i}: index");
        assert_eq!(a.span, b.span, "stream {id} sample {i}: span");
    }
}

#[test]
fn embed_equivalence_across_worker_counts_and_batch_sizes() {
    let streams: Vec<(StreamId, Vec<Sample>)> = [3u64, 17, 4, 99]
        .iter()
        .map(|&id| (StreamId(id), wave(700, id)))
        .collect();
    let events = interleave(&streams, 0xA5A5);
    // Reference: each stream alone through the single-stream pipeline.
    let mut reference = HashMap::new();
    for (id, samples) in &streams {
        let (out, stats) = Embedder::embed_stream(
            scheme(42),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
            samples,
        )
        .unwrap();
        reference.insert(id.0, (out, stats));
    }
    for workers in [1usize, 2, 4] {
        for batch in [1usize, 13, 4096] {
            let got = engine_embed(&streams, &events, workers, batch, 42);
            for (id, (want, want_stats)) in &reference {
                let (samples, stats) = &got[id];
                assert_bit_identical(*id, samples, want);
                assert_eq!(
                    stats, want_stats,
                    "stream {id} stats (workers={workers}, batch={batch})"
                );
            }
        }
    }
}

#[test]
fn detect_equivalence_and_marks_found() {
    // Embed per stream single-stream, then detect through the engine and
    // compare against the single-stream detector report.
    let ids = [8u64, 1, 30];
    let mut marked: Vec<(StreamId, Vec<Sample>)> = Vec::new();
    for &id in &ids {
        let (out, stats) = Embedder::embed_stream(
            scheme(7),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
            &wave(1200, id),
        )
        .unwrap();
        assert!(stats.embedded > 0, "fixture must embed for stream {id}");
        marked.push((StreamId(id), out));
    }
    let events = interleave(&marked, 0xBEEF);
    let dcfg = Arc::new(DetectConfig::new(scheme(7), Arc::new(MultiHashEncoder), 1, 1.0).unwrap());
    let mut engine = Engine::new(EngineConfig::with_workers(2)).unwrap();
    for (id, _) in &marked {
        engine
            .register(*id, StreamSpec::Detect(Arc::clone(&dcfg)))
            .unwrap();
    }
    for chunk in events.chunks(31) {
        for out in engine.ingest(chunk).unwrap() {
            assert!(out.samples.is_empty(), "detect streams emit nothing");
        }
    }
    for outcome in engine.finish().unwrap() {
        let (_, samples) = marked.iter().find(|(id, _)| *id == outcome.stream).unwrap();
        let want = Detector::detect_stream(
            scheme(7),
            Arc::new(MultiHashEncoder),
            1,
            samples,
            TransformHint::None,
        )
        .unwrap();
        let report = outcome.report.unwrap();
        assert_eq!(report, want, "stream {}", outcome.stream);
        assert!(report.bias() > 0, "stream {} lost its mark", outcome.stream);
    }
}

/// Like [`engine_embed`], but with an arbitrary [`EngineConfig`], a
/// chosen encoder, and an optional forced-hibernation schedule: when
/// `evict_seed` is set, one pseudo-randomly chosen stream is hibernated
/// after every batch, exercising serialize → spill → restore mid-run at
/// points the budget alone would not pick.
fn engine_embed_cfg(
    streams: &[(StreamId, Vec<Sample>)],
    events: &[Event],
    engine_cfg: EngineConfig,
    batch: usize,
    key: u64,
    encoder: Arc<dyn SubsetEncoder>,
    evict_seed: Option<u64>,
) -> HashMap<u64, (Vec<Sample>, wms_core::EmbedStats)> {
    let cfg = Arc::new(EmbedConfig::new(scheme(key), encoder, Watermark::single(true)).unwrap());
    let mut engine = Engine::new(engine_cfg).unwrap();
    for (id, _) in streams {
        engine
            .register(*id, StreamSpec::Embed(Arc::clone(&cfg)))
            .unwrap();
    }
    let mut rng = evict_seed.unwrap_or(0);
    let mut collected: HashMap<u64, Vec<Sample>> = HashMap::new();
    for chunk in events.chunks(batch.max(1)) {
        for out in engine.ingest(chunk).unwrap() {
            collected
                .entry(out.stream.0)
                .or_default()
                .extend(out.samples);
        }
        if evict_seed.is_some() {
            let pick = streams[(splitmix(&mut rng) % streams.len() as u64) as usize].0;
            engine.hibernate(pick).unwrap();
        }
    }
    let mut result = HashMap::new();
    for outcome in engine.finish().unwrap() {
        let mut samples = collected.remove(&outcome.stream.0).unwrap_or_default();
        samples.extend(outcome.tail);
        result.insert(outcome.stream.0, (samples, outcome.embed_stats.unwrap()));
    }
    result
}

/// The single-stream reference for one encoder.
fn reference_embed(
    streams: &[(StreamId, Vec<Sample>)],
    key: u64,
    encoder: Arc<dyn SubsetEncoder>,
) -> HashMap<u64, (Vec<Sample>, wms_core::EmbedStats)> {
    streams
        .iter()
        .map(|(id, samples)| {
            let (out, stats) = Embedder::embed_stream(
                scheme(key),
                Arc::clone(&encoder),
                Watermark::single(true),
                samples,
            )
            .unwrap();
            (id.0, (out, stats))
        })
        .collect()
}

fn assert_matches_reference(
    got: &HashMap<u64, (Vec<Sample>, wms_core::EmbedStats)>,
    reference: &HashMap<u64, (Vec<Sample>, wms_core::EmbedStats)>,
    context: &str,
) {
    for (id, (want, want_stats)) in reference {
        let (samples, stats) = &got[id];
        assert_bit_identical(*id, samples, want);
        assert_eq!(stats, want_stats, "stream {id} stats ({context})");
    }
}

#[test]
fn hibernating_engine_embeds_byte_identically() {
    // Eight streams under a budget of three: most of the registry is
    // hibernated at any moment, so every batch re-adopts sessions that
    // went through serialize → spill → checksum → restore.
    let streams: Vec<(StreamId, Vec<Sample>)> = [3u64, 17, 4, 99, 250, 8, 61, 12]
        .iter()
        .map(|&id| (StreamId(id), wave(400, id)))
        .collect();
    let events = interleave(&streams, 0xC0FFEE);
    let encoders: [(&str, Arc<dyn SubsetEncoder>); 2] = [
        ("multihash", Arc::new(MultiHashEncoder)),
        ("initial", Arc::new(InitialEncoder)),
    ];
    for (name, encoder) in &encoders {
        let reference = reference_embed(&streams, 42, Arc::clone(encoder));
        for workers in [1usize, 2, 4] {
            for batch in [1usize, 13, 4096] {
                let cfg =
                    EngineConfig::with_workers(workers).with_budget(MemoryBudget::resident(3));
                let got =
                    engine_embed_cfg(&streams, &events, cfg, batch, 42, Arc::clone(encoder), None);
                assert_matches_reference(
                    &got,
                    &reference,
                    &format!("encoder={name}, workers={workers}, batch={batch}, budget=3"),
                );
            }
        }
    }
}

#[test]
fn forced_eviction_at_arbitrary_points_is_invisible() {
    // No budget at all: hibernation happens only where the forced
    // schedule says, so eviction points are decoupled from any LRU
    // policy — including immediately before a stream's next sample.
    let streams: Vec<(StreamId, Vec<Sample>)> = [7u64, 2, 19]
        .iter()
        .map(|&id| (StreamId(id), wave(500, id)))
        .collect();
    let events = interleave(&streams, 0xD00D);
    let reference = reference_embed(&streams, 11, Arc::new(MultiHashEncoder));
    for workers in [1usize, 2, 4] {
        let got = engine_embed_cfg(
            &streams,
            &events,
            EngineConfig::with_workers(workers),
            17,
            11,
            Arc::new(MultiHashEncoder),
            Some(0x5EED ^ workers as u64),
        );
        assert_matches_reference(
            &got,
            &reference,
            &format!("forced eviction, workers={workers}"),
        );
    }
}

#[test]
fn file_backed_spill_is_byte_identical_too() {
    // Same wall, but the cold sessions actually hit disk: append, frame,
    // checksum, read back. One fixture run suffices — the policy logic
    // is backing-agnostic, only the byte path differs.
    let path =
        std::env::temp_dir().join(format!("wms-equivalence-spill-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let streams: Vec<(StreamId, Vec<Sample>)> = [5u64, 40, 23, 16, 91]
        .iter()
        .map(|&id| (StreamId(id), wave(350, id)))
        .collect();
    let events = interleave(&streams, 0xFACE);
    let reference = reference_embed(&streams, 77, Arc::new(MultiHashEncoder));
    let cfg = EngineConfig::with_workers(2)
        .with_budget(MemoryBudget::resident(2).with_spill_file(path.clone()));
    let got = engine_embed_cfg(
        &streams,
        &events,
        cfg,
        29,
        77,
        Arc::new(MultiHashEncoder),
        None,
    );
    assert_matches_reference(&got, &reference, "file-backed spill, workers=2, budget=2");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hibernating_detect_sessions_report_identically() {
    // Detection state (bit votes, labeler position, pending windows)
    // must survive hibernation exactly like embedding state does.
    let ids = [8u64, 1, 30, 77, 14];
    let mut marked: Vec<(StreamId, Vec<Sample>)> = Vec::new();
    for &id in &ids {
        let (out, _) = Embedder::embed_stream(
            scheme(7),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
            &wave(900, id),
        )
        .unwrap();
        marked.push((StreamId(id), out));
    }
    let events = interleave(&marked, 0xABBA);
    let dcfg = Arc::new(DetectConfig::new(scheme(7), Arc::new(MultiHashEncoder), 1, 1.0).unwrap());
    for workers in [1usize, 2, 4] {
        let cfg = EngineConfig::with_workers(workers).with_budget(MemoryBudget::resident(2));
        let mut engine = Engine::new(cfg).unwrap();
        for (id, _) in &marked {
            engine
                .register(*id, StreamSpec::Detect(Arc::clone(&dcfg)))
                .unwrap();
        }
        let mut rng = 0x1CEBE4u64 ^ workers as u64;
        for chunk in events.chunks(23) {
            engine.ingest(chunk).unwrap();
            let pick = marked[(splitmix(&mut rng) % marked.len() as u64) as usize].0;
            engine.hibernate(pick).unwrap();
        }
        for outcome in engine.finish().unwrap() {
            let (_, samples) = marked.iter().find(|(id, _)| *id == outcome.stream).unwrap();
            let want = Detector::detect_stream(
                scheme(7),
                Arc::new(MultiHashEncoder),
                1,
                samples,
                TransformHint::None,
            )
            .unwrap();
            assert_eq!(
                outcome.report.unwrap(),
                want,
                "stream {} (workers={workers})",
                outcome.stream
            );
        }
    }
}

proptest! {
    #[test]
    fn random_interleavings_embed_like_independent_pipelines(
        k in 2usize..5,
        n in 150usize..400,
        seed in any::<u64>(),
    ) {
        let streams: Vec<(StreamId, Vec<Sample>)> = (0..k as u64)
            .map(|i| (StreamId(i * 31 + 5), wave(n + i as usize * 17, i * 31 + 5)))
            .collect();
        let events = interleave(&streams, seed);
        let batch = 1 + (seed % 97) as usize;
        let workers = 1 + (seed % 3) as usize;
        let got = engine_embed(&streams, &events, workers, batch, 1234);
        for (id, samples) in &streams {
            let (want, want_stats) = Embedder::embed_stream(
                scheme(1234),
                Arc::new(MultiHashEncoder),
                Watermark::single(true),
                samples,
            )
            .unwrap();
            let (got_samples, got_stats) = &got[&id.0];
            assert_bit_identical(id.0, got_samples, &want);
            prop_assert_eq!(got_stats, &want_stats);
        }
    }

    #[test]
    fn random_interleavings_detect_like_independent_pipelines(
        k in 2usize..4,
        seed in any::<u64>(),
    ) {
        let streams: Vec<(StreamId, Vec<Sample>)> = (0..k as u64)
            .map(|i| {
                let id = i * 7 + 2;
                let (out, _) = Embedder::embed_stream(
                    scheme(9),
                    Arc::new(MultiHashEncoder),
                    Watermark::single(true),
                    &wave(350 + i as usize * 40, id),
                )
                .unwrap();
                (StreamId(id), out)
            })
            .collect();
        let events = interleave(&streams, seed);
        let dcfg = Arc::new(
            DetectConfig::new(scheme(9), Arc::new(MultiHashEncoder), 1, 1.0).unwrap(),
        );
        let workers = 1 + (seed % 3) as usize;
        let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
        for (id, _) in &streams {
            engine
                .register(*id, StreamSpec::Detect(Arc::clone(&dcfg)))
                .unwrap();
        }
        let batch = 1 + (seed % 53) as usize;
        for chunk in events.chunks(batch) {
            engine.ingest(chunk).unwrap();
        }
        for outcome in engine.finish().unwrap() {
            let (_, samples) = streams
                .iter()
                .find(|(id, _)| *id == outcome.stream)
                .unwrap();
            let want = Detector::detect_stream(
                scheme(9),
                Arc::new(MultiHashEncoder),
                1,
                samples,
                TransformHint::None,
            )
            .unwrap();
            prop_assert_eq!(outcome.report.unwrap(), want);
        }
    }

    #[test]
    fn random_eviction_schedules_embed_like_independent_pipelines(
        k in 2usize..5,
        n in 150usize..400,
        seed in any::<u64>(),
    ) {
        // Everything varies with the seed: interleaving, batch size,
        // worker count, residency budget, forced-eviction schedule and
        // encoder. The one constant is the output bytes.
        let streams: Vec<(StreamId, Vec<Sample>)> = (0..k as u64)
            .map(|i| (StreamId(i * 13 + 3), wave(n + i as usize * 11, i * 13 + 3)))
            .collect();
        let events = interleave(&streams, seed ^ 0x714);
        let batch = 1 + (seed % 89) as usize;
        let workers = 1 + (seed % 3) as usize;
        let budget = 1 + (seed % k as u64) as usize; // always < k: eviction is live
        let encoder: Arc<dyn SubsetEncoder> = if seed & 8 == 0 {
            Arc::new(MultiHashEncoder)
        } else {
            Arc::new(InitialEncoder)
        };
        let cfg = EngineConfig::with_workers(workers)
            .with_budget(MemoryBudget::resident(budget));
        let got = engine_embed_cfg(
            &streams,
            &events,
            cfg,
            batch,
            321,
            Arc::clone(&encoder),
            Some(seed ^ 0xE71C7),
        );
        for (id, samples) in &streams {
            let (want, want_stats) = Embedder::embed_stream(
                scheme(321),
                Arc::clone(&encoder),
                Watermark::single(true),
                samples,
            )
            .unwrap();
            let (got_samples, got_stats) = &got[&id.0];
            assert_bit_identical(id.0, got_samples, &want);
            prop_assert_eq!(got_stats, &want_stats);
        }
    }
}

#[test]
fn skewed_load_is_bit_identical() {
    // One stream carries ~10× the traffic of the rest, so its shard
    // lags the others and the rings fill unevenly; nothing about the
    // output may change.
    let mut streams: Vec<(StreamId, Vec<Sample>)> = vec![(StreamId(5), wave(2000, 5))];
    for id in [12u64, 31, 44, 58, 73] {
        streams.push((StreamId(id), wave(200, id)));
    }
    let events = interleave(&streams, 0x5CE3);
    let reference = reference_embed(&streams, 99, Arc::new(MultiHashEncoder));
    for workers in [2usize, 4] {
        for batch in [13usize, 256] {
            let got = engine_embed_cfg(
                &streams,
                &events,
                EngineConfig::with_workers(workers),
                batch,
                99,
                Arc::new(MultiHashEncoder),
                None,
            );
            assert_matches_reference(
                &got,
                &reference,
                &format!("skewed load, workers={workers}, batch={batch}"),
            );
        }
    }
}

#[test]
fn pipelined_submit_collect_preserves_order_and_guards_ingest() {
    // Back-to-back batches pipeline: submit N epochs without collecting,
    // then collect them strictly in order; the synchronous `ingest` is
    // rejected while outputs are pending instead of silently reordering.
    let streams: Vec<(StreamId, Vec<Sample>)> = [2u64, 11, 27]
        .iter()
        .map(|&id| (StreamId(id), wave(600, id)))
        .collect();
    let events = interleave(&streams, 0x9A9A);
    let reference = reference_embed(&streams, 13, Arc::new(MultiHashEncoder));
    let cfg = Arc::new(
        EmbedConfig::new(
            scheme(13),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
        )
        .unwrap(),
    );
    for workers in [1usize, 2, 4] {
        let mut engine = Engine::new(EngineConfig::with_workers(workers)).unwrap();
        for (id, _) in &streams {
            engine
                .register(*id, StreamSpec::Embed(Arc::clone(&cfg)))
                .unwrap();
        }
        let mut submitted = Vec::new();
        let mut collected: HashMap<u64, Vec<Sample>> = HashMap::new();
        for chunk in events.chunks(64) {
            submitted.push(engine.submit(chunk).unwrap());
            if submitted.len() == 3 {
                assert!(matches!(
                    engine.ingest(&[]),
                    Err(EngineError::UncollectedEpochs)
                ));
            }
            // Keep at most 4 epochs in flight, collecting the oldest.
            while engine.outstanding_epochs() > 4 {
                let (epoch, outs) = engine.collect_next().unwrap().unwrap();
                assert_eq!(epoch, submitted.remove(0), "epochs collect in order");
                for out in outs {
                    collected
                        .entry(out.stream.0)
                        .or_default()
                        .extend(out.samples);
                }
            }
        }
        while let Some((epoch, outs)) = engine.collect_next().unwrap() {
            assert_eq!(epoch, submitted.remove(0), "epochs collect in order");
            for out in outs {
                collected
                    .entry(out.stream.0)
                    .or_default()
                    .extend(out.samples);
            }
        }
        assert!(submitted.is_empty());
        let mut result = HashMap::new();
        for outcome in engine.finish().unwrap() {
            let mut samples = collected.remove(&outcome.stream.0).unwrap_or_default();
            samples.extend(outcome.tail);
            result.insert(outcome.stream.0, (samples, outcome.embed_stats.unwrap()));
        }
        assert_matches_reference(
            &result,
            &reference,
            &format!("pipelined, workers={workers}"),
        );
    }
}

#[test]
fn poisoned_uncollected_epoch_is_typed_worker_lost_not_a_hang() {
    // A batch whose session panics is *submitted* but never collected:
    // the panic fires on a shard worker (or on the caller, helping to
    // drain), and the next barrier must surface `WorkerLost` instead of
    // hanging on the poisoned shard's watermark or unwinding into the
    // caller.
    let mut engine = Engine::new(EngineConfig::with_workers(2)).unwrap();
    engine
        .register(StreamId(1), StreamSpec::FaultInject { panic_after: 5 })
        .unwrap();
    engine.register(StreamId(2), StreamSpec::NoOp).unwrap();
    let poison: Vec<Event> = wave(20, 1)
        .iter()
        .map(|&s| Event::new(StreamId(1), s))
        .collect();
    engine.submit(&poison).unwrap();
    assert_eq!(engine.outstanding_epochs(), 1);
    let err = engine
        .checkpoint()
        .err()
        .expect("the barrier crosses the poisoned shard");
    assert!(
        matches!(err, EngineError::WorkerLost { .. }),
        "expected WorkerLost, got {err}"
    );
    // Every later operation reports the same typed error…
    assert_eq!(engine.poisoned(), Some(&err));
    assert_eq!(engine.collect_next().err(), Some(err.clone()));
    assert_eq!(engine.ingest(&poison).err(), Some(err));
    // …and teardown neither hangs nor panics.
    drop(engine);
}
