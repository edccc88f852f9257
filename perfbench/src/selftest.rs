//! The benchmark's own tests (`cargo test --release --manifest-path
//! perfbench/Cargo.toml`).

use crate::path::{self, EmbedDriver};
use crate::replay::StepDriver;
use crate::trace::Tracer;
use crate::workloads::{self, PathKind, StreamResult, Workload};
use std::path::PathBuf;
use std::sync::Arc;
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{DetectConfig, EmbedConfig, Scheme, Watermark, WmParams};
use wms_crypto::{Key, KeyedHash};
use wms_engine::{Event, StreamId};
use wms_stream::Sample;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The first `rows` rows of a workload, as a smaller workload of the
/// same shape.
fn truncated(name: &str, seed: u64, events: usize) -> Workload {
    let mut wl = workloads::build(name, seed).expect("known workload");
    wl.events.truncate(events);
    wl
}

#[test]
fn same_seed_same_input_bytes_and_counts() {
    for name in workloads::NAMES {
        let a = workloads::build(name, 7).unwrap();
        let b = workloads::build(name, 7).unwrap();
        assert_eq!(a.csv_text(), b.csv_text(), "{name}: input bytes differ");
        let c = workloads::build(name, 8).unwrap();
        assert_ne!(
            a.csv_text(),
            c.csv_text(),
            "{name}: the seed changes nothing"
        );
        assert_eq!(
            a.events.len(),
            c.events.len(),
            "{name}: size depends on the seed"
        );
    }
    // Same seed, same reference counts (on a prefix, to stay quick).
    let dir = scratch("counts");
    let counts = |wl: &Workload| {
        std::fs::write(dir.join("in.csv"), wl.csv_text()).unwrap();
        let cfg = path::embed_config(wl);
        let run = path::run(
            wl,
            cfg.as_ref(),
            &dir.join("in.csv"),
            &dir.join("out.csv"),
            &mut Tracer::new(false),
        )
        .unwrap();
        let bits: Vec<u64> = run.results.iter().map(|r| r.stats.embedded).collect();
        let bias: Vec<i64> = run.results.iter().map(|r| r.bias).collect();
        (run.output, bits, bias)
    };
    let wl = truncated("csv-embed-64", 3, 64 * 1500);
    assert_eq!(
        counts(&wl),
        counts(&truncated("csv-embed-64", 3, 64 * 1500))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench_engine`'s old `workload(8)`: eight raw round-robin sines of
/// 8192 items under its window-256 scheme.
fn old_engine_workload() -> (Arc<EmbedConfig>, DetectConfig, Vec<Event>) {
    let params = WmParams {
        window: 256,
        degree: 3,
        radius: 0.01,
        max_subset: 4,
        label_len: 4,
        label_stride: 1,
        min_active: Some(12),
        ..WmParams::default()
    };
    let scheme = Scheme::new(params, KeyedHash::md5(Key::from_u64(0xC0FFEE))).unwrap();
    let embed = Arc::new(
        EmbedConfig::new(
            scheme.clone(),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
        )
        .unwrap(),
    );
    let detect = DetectConfig::new(scheme, Arc::new(MultiHashEncoder), 1, 1.0).unwrap();
    let streams = 8u64;
    let per_stream = 65_536 / streams as usize;
    let mut events = Vec::new();
    for i in 0..per_stream {
        for id in 0..streams {
            let t = i as f64 + id as f64;
            let period = 19.0 + (id % 7) as f64 * 4.0;
            let v = 0.3 * (t * std::f64::consts::TAU / period).sin()
                + 0.05 * (t * std::f64::consts::TAU / 7.0).sin();
            events.push(Event::new(StreamId(id), Sample::new(i as u64, v)));
        }
    }
    (embed, detect, events)
}

#[test]
fn gate_rejects_the_old_engine_embed_shape() {
    let (embed, detect, events) = old_engine_workload();
    let mut results = Vec::new();
    for id in 0..8u64 {
        let mut es = embed.new_session();
        let mut out = Vec::new();
        for e in events.iter().filter(|e| e.stream.0 == id) {
            embed.push_into(&mut es, e.sample, &mut out);
        }
        embed.finish_into(&mut es, &mut out);
        let mut ds = detect.new_session();
        for s in &out {
            detect.push(&mut ds, *s);
        }
        results.push(StreamResult {
            stream: StreamId(id),
            stats: *es.stats(),
            bias: detect.finish(&mut ds).bias(),
        });
    }
    let silent = results.iter().filter(|r| r.stats.embedded == 0).count();
    assert!(silent >= 2, "the old shape left {silent} streams unmarked");
    let err = workloads::gate(&results).expect_err("gate must refuse the old shape");
    assert!(err.contains("embed no bits"), "{err}");
}

#[test]
fn gate_accepts_marked_streams_and_reports_the_search_share() {
    let mk = |id, embedded, iterations, bias| StreamResult {
        stream: StreamId(id),
        stats: wms_core::EmbedStats {
            embedded,
            total_iterations: iterations,
            ..Default::default()
        },
        bias,
    };
    let g = workloads::gate(&[mk(1, 5, 30, 5), mk(2, 9, 90, 9)]).unwrap();
    assert_eq!(g.streams, 2);
    assert_eq!(g.bits_embedded, 14);
    assert_eq!(g.max_stream_share, 0.75);
    assert!(
        workloads::gate(&[mk(1, 5, 30, 3)]).is_err(),
        "bias 3 is not PRESENT"
    );
    assert!(workloads::gate(&[]).is_err());
}

/// Runs `wl`'s path under the reference driver and the step-wise
/// replay (traced) and checks they agree bit for bit.
fn assert_replay_matches(wl: &Workload, tag: &str) {
    let dir = scratch(tag);
    let input = dir.join("in.csv");
    std::fs::write(&input, wl.csv_text()).unwrap();
    let cfg = path::embed_config(wl);
    let reference = path::run(
        wl,
        cfg.as_ref(),
        &input,
        &dir.join("ref.csv"),
        &mut Tracer::new(false),
    )
    .unwrap();
    let driver = StepDriver::new(path::scheme(wl));
    let mut tracer = Tracer::new(true);
    let replayed = path::run(wl, &driver, &input, &dir.join("replay.csv"), &mut tracer).unwrap();
    assert_eq!(
        replayed.output, reference.output,
        "{tag}: replay output differs"
    );
    for (a, b) in replayed.results.iter().zip(&reference.results) {
        assert_eq!(
            a.stats, b.stats,
            "{tag}: stream {} counters differ",
            a.stream
        );
        assert_eq!(a.bias, b.bias);
    }
    assert!(
        reference.results.iter().any(|r| r.stats.embedded > 0),
        "{tag}: nothing embedded"
    );
    let times = tracer.self_times();
    for layer in [
        "core.extremes",
        "core.labeling",
        "core.select",
        "core.search",
        "stream.window",
    ] {
        assert!(times.contains_key(layer), "{tag}: no {layer} spans");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stepwise_replay_equals_push_into() {
    assert_replay_matches(&truncated("csv-embed-64", 1, 64 * 2500), "embed");
    let fleet = truncated("csv-fleet-2k", 1, 40_000);
    assert_replay_matches(&fleet, "fleet");
    let wmsd = truncated("wmsd-stream-16", 1, 16 * 1024);
    assert_eq!(wmsd.kind, PathKind::Wmsd);
    assert_replay_matches(&wmsd, "wmsd");
}

#[test]
fn wmsd_reference_matches_the_testkit_reference() {
    let wl = truncated("wmsd-stream-16", 2, 16 * 512);
    let dir = scratch("testkit");
    let cfg = path::embed_config(&wl);
    let run = path::run(
        &wl,
        cfg.as_ref(),
        &dir.join("unused.csv"),
        &dir.join("out.csv"),
        &mut Tracer::new(false),
    )
    .unwrap();
    let batches: Vec<&[Event]> = wl.events.chunks(wl.batch).collect();
    assert_eq!(
        run.output,
        wms_bench::testkit::engine_reference_output(&cfg, &batches)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reference_driver_is_the_library_entry_point() {
    // The reference driver is `push_into` itself: one session, one
    // stream, same bytes as `Embedder::embed_stream`.
    let wl = truncated("wmsd-stream-16", 1, 16 * 300);
    let cfg = path::embed_config(&wl);
    let samples: Vec<Sample> = wl
        .events
        .iter()
        .filter(|e| e.stream == wl.events[0].stream)
        .map(|e| e.sample)
        .collect();
    let mut s = cfg.new_session();
    let mut out = Vec::new();
    for &x in &samples {
        EmbedDriver::push(cfg.as_ref(), &mut s, x, &mut out, &mut Tracer::new(false));
    }
    EmbedDriver::finish(cfg.as_ref(), &mut s, &mut out, &mut Tracer::new(false));
    let (expected, _) = wms_core::Embedder::embed_stream(
        path::scheme(&wl),
        Arc::new(MultiHashEncoder),
        Watermark::single(true),
        &samples,
    )
    .unwrap();
    assert_eq!(out, expected);
}

#[test]
fn stats_exposition_sums_every_labelled_sample() {
    let text = "# HELP wms_daemon_nacks_total x\n\
                wms_daemon_nacks_total{code=\"bad_frame\"} 2\n\
                wms_daemon_nacks_total{code=\"stale\"} 3\n\
                wms_daemon_nacks_total_other 9\n\
                wms_daemon_queue_depth 4\n";
    assert_eq!(
        crate::wmsd::metric_sum(text, "wms_daemon_nacks_total"),
        Some(5)
    );
    assert_eq!(
        crate::wmsd::metric_sum(text, "wms_daemon_queue_depth"),
        Some(4)
    );
    assert_eq!(crate::wmsd::metric_sum(text, "wms_missing"), None);
}
