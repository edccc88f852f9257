//! Perf baseline: measures the embed/detect pipeline in *naive*
//! (pre-overhaul hot path: message-buffer hashing, no midstate, no code
//! memo, per-sample output vectors) and *optimized* variants, prints a
//! table, and writes the machine-readable `BENCH_pipeline.json`.
//!
//! ```text
//! WMS_BENCH_MS=500 cargo run -p wms-bench --release --bin bench_baseline
//! ```
//!
//! Environment:
//! * `WMS_BENCH_MS`  — wall-clock budget per measurement (default 200 ms);
//! * `WMS_BENCH_OUT` — output path (default `BENCH_pipeline.json`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use wms_bench::perf::{self, PerfRecord};
use wms_bench::reference::NaiveMultiHashEncoder;
use wms_bench::{datasets, exp};
use wms_core::encoding::initial::InitialEncoder;
use wms_core::{Detector, Embedder, Scheme, SubsetEncoder, TransformHint, Watermark, WmParams};
use wms_stream::Sample;

const SCHEMA: &str = "wms-bench-pipeline/v1";
const ITEMS: usize = 5000;

/// The pre-overhaul convenience driver: one throwaway `Vec` per pushed
/// sample, as `embed_stream` did before the push-path fix — that
/// allocation is part of the naive variant being measured.
fn embed_stream_legacy(
    scheme: Scheme,
    encoder: Arc<dyn SubsetEncoder>,
    input: &[Sample],
) -> Vec<Sample> {
    let mut e = Embedder::new(scheme, encoder, Watermark::single(true)).unwrap();
    let mut out = Vec::with_capacity(input.len());
    for &s in input {
        let mut step = Vec::new();
        e.push_into(s, &mut step);
        out.extend(step);
    }
    e.finish_into(&mut out);
    out
}

fn main() {
    let budget_ms: u64 = std::env::var("WMS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let budget = Duration::from_millis(budget_ms.max(1));
    let out_path = std::env::var("WMS_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into());

    let (data, _) = datasets::irtf_normalized_prefix(ITEMS);
    let reduced = WmParams {
        min_active: Some(12),
        ..exp::irtf_params()
    };
    let scheme_fast = exp::scheme(reduced);
    let scheme_naive = scheme_fast.with_hash(scheme_fast.hash.without_midstate());
    let items = data.len() as u64;
    let mut records: Vec<PerfRecord> = Vec::new();

    eprintln!("bench_baseline: {budget_ms} ms per measurement over {items} items");

    let embed_id = "pipeline-embed/multihash min_active=12 5k items";
    records.push(perf::measure(embed_id, "naive", items, budget, || {
        black_box(embed_stream_legacy(
            scheme_naive.clone(),
            Arc::new(NaiveMultiHashEncoder),
            black_box(&data),
        ));
    }));
    records.push(perf::measure(embed_id, "optimized", items, budget, || {
        black_box(
            Embedder::embed_stream(
                scheme_fast.clone(),
                Arc::new(wms_core::encoding::multihash::MultiHashEncoder),
                Watermark::single(true),
                black_box(&data),
            )
            .unwrap(),
        );
    }));

    let init_id = "pipeline-embed/initial encoder 5k items";
    records.push(perf::measure(init_id, "optimized", items, budget, || {
        black_box(
            Embedder::embed_stream(
                exp::scheme(exp::irtf_params()),
                Arc::new(InitialEncoder),
                Watermark::single(true),
                black_box(&data),
            )
            .unwrap(),
        );
    }));

    // Detection runs over the optimized marked stream (bit-identical to
    // the naive one — golden tests prove it).
    let (marked, _) = Embedder::embed_stream(
        scheme_fast.clone(),
        Arc::new(wms_core::encoding::multihash::MultiHashEncoder),
        Watermark::single(true),
        &data,
    )
    .unwrap();
    let detect_id = "pipeline-detect/multihash 5k items";
    records.push(perf::measure(detect_id, "naive", items, budget, || {
        black_box(
            Detector::detect_stream(
                scheme_naive.clone(),
                Arc::new(NaiveMultiHashEncoder),
                1,
                black_box(&marked),
                TransformHint::None,
            )
            .unwrap(),
        );
    }));
    records.push(perf::measure(detect_id, "optimized", items, budget, || {
        black_box(
            Detector::detect_stream(
                scheme_fast.clone(),
                Arc::new(wms_core::encoding::multihash::MultiHashEncoder),
                1,
                black_box(&marked),
                TransformHint::None,
            )
            .unwrap(),
        );
    }));

    print!("{}", perf::render_perf_table(&records));
    for id in [embed_id, detect_id] {
        if let Some(s) = perf::speedup(&records, id) {
            println!("speedup {id}: {s:.2}x");
        }
    }
    let json = perf::render_json(SCHEMA, budget_ms, &records);
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out_path}");
}
