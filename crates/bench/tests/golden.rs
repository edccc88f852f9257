//! Golden-equality tests for the hot-path overhaul: the optimized
//! pipeline (memoized convention codes, midstate keyed hashing,
//! allocation-free scratch buffers, push-path reuse) must be
//! **bit-identical** to the naive reference implementation — embedding is
//! deterministic per key + label, so any divergence is a bug, not noise.

use std::sync::Arc;
use wms_bench::reference::NaiveMultiHashEncoder;
use wms_bench::{datasets, exp};
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{
    DetectionReport, Detector, Embedder, Scheme, SubsetEncoder, TransformHint, Watermark, WmParams,
};
use wms_crypto::{Key, KeyedHash};
use wms_stream::Sample;

/// A fast-but-representative configuration on the IRTF prefix (11 of 15
/// active averages keeps debug-build search cost reasonable).
fn reduced_params() -> WmParams {
    WmParams {
        min_active: Some(11),
        ..exp::irtf_params()
    }
}

/// The full convention (every m_ij must carry the bit), as `wms embed`
/// and the `csv-embed-64` benchmark run it, at a = 4 so the 2^10
/// candidates per bit stay cheap in debug builds.
fn full_convention_params() -> WmParams {
    WmParams {
        min_active: None,
        max_subset: 4,
        ..exp::irtf_params()
    }
}

fn value_bits(stream: &[Sample]) -> Vec<u64> {
    stream.iter().map(|s| s.value.to_bits()).collect()
}

fn embed(scheme: &Scheme, enc: Arc<dyn SubsetEncoder>, data: &[Sample]) -> Vec<Sample> {
    let (out, stats) =
        Embedder::embed_stream(scheme.clone(), enc, Watermark::single(true), data).unwrap();
    assert!(stats.embedded > 5, "fixture must actually embed: {stats:?}");
    out
}

fn detect(scheme: &Scheme, enc: Arc<dyn SubsetEncoder>, data: &[Sample]) -> DetectionReport {
    Detector::detect_stream(scheme.clone(), enc, 1, data, TransformHint::None).unwrap()
}

/// End-to-end golden run for one keyed hash: optimized embed vs naive
/// embed (also with the midstate fast path disabled) must agree bit for
/// bit, and detection buckets must match across all four combinations.
fn golden_roundtrip(params: WmParams, make_hash: fn(Key) -> KeyedHash) {
    let (data, _) = datasets::irtf_normalized_prefix(3000);
    let scheme = Scheme::new(params, make_hash(Key::from_u64(exp::EXPERIMENT_KEY))).unwrap();
    let scheme_no_mid = scheme.with_hash(scheme.hash.without_midstate());

    let fast = embed(&scheme, Arc::new(MultiHashEncoder), &data);
    let naive = embed(&scheme_no_mid, Arc::new(NaiveMultiHashEncoder), &data);
    assert_eq!(
        value_bits(&fast),
        value_bits(&naive),
        "optimized and naive embeddings must be bit-identical"
    );
    // Cross: optimized encoder without midstate, naive with midstate.
    let fast_no_mid = embed(&scheme_no_mid, Arc::new(MultiHashEncoder), &data);
    assert_eq!(value_bits(&fast), value_bits(&fast_no_mid));
    let naive_mid = embed(&scheme, Arc::new(NaiveMultiHashEncoder), &data);
    assert_eq!(value_bits(&fast), value_bits(&naive_mid));

    let r_fast = detect(&scheme, Arc::new(MultiHashEncoder), &fast);
    let r_naive = detect(&scheme_no_mid, Arc::new(NaiveMultiHashEncoder), &fast);
    assert_eq!(
        r_fast.buckets, r_naive.buckets,
        "detection buckets must match the reference"
    );
    assert_eq!(r_fast.selected, r_naive.selected);
    assert_eq!(r_fast.verdicts, r_naive.verdicts);
    assert_eq!(r_fast.abstained, r_naive.abstained);
    assert!(r_fast.bias() > 0, "the mark must be detectable");
}

#[test]
fn golden_equality_md5() {
    golden_roundtrip(reduced_params(), KeyedHash::md5);
}

#[test]
fn golden_equality_sha256() {
    golden_roundtrip(reduced_params(), KeyedHash::sha256);
}

#[test]
fn golden_equality_full_convention_md5() {
    golden_roundtrip(full_convention_params(), KeyedHash::md5);
}
