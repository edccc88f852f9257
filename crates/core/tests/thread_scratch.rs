//! Sessions hold no scratch: the per-batch working state (code memo,
//! compiled hasher, search and scan buffers) lives once per thread and
//! every session that thread drives shares it. These tests pin that the
//! sharing never shows in the output — a session handed between threads
//! mid-stream, and sessions of different schemes interleaved item by item
//! on one thread, each produce exactly what a dedicated run produces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::quality::{ProposedAlteration, QualityConstraint};
use wms_core::{
    DetectConfig, DetectSession, DetectionReport, EmbedConfig, EmbedSession, EmbedStats, Scheme,
    Watermark, WmParams,
};
use wms_crypto::{Key, KeyedHash};
use wms_stream::{samples_from_values, Sample};

/// Small-window multi-hash parameters under which every stream carries
/// bits within a couple of thousand items. At γ = 16 the code memo's
/// 2^16-entry table serves the first labels and is bypassed after that
/// (a reduced search looks up too few codes per label); at γ ≤ 12 the
/// table is cache-resident and serves every label. Two-extreme labels
/// repeat often, so one session's batch regularly starts on the label
/// the previous session's batch ended on — the case where only the
/// scheme fingerprint keeps a shared memo from serving stale codes.
fn scheme(key: u64, gamma: u32) -> Scheme {
    let params = WmParams {
        window: 64,
        degree: 2,
        radius: 0.01,
        max_subset: 4,
        label_len: 2,
        label_stride: 1,
        min_active: Some(4),
        lsb_bits: gamma,
        embed_bits: gamma,
        ..WmParams::default()
    };
    Scheme::new(params, KeyedHash::md5(Key::from_u64(key))).unwrap()
}

fn embed_cfg(key: u64, gamma: u32) -> EmbedConfig {
    EmbedConfig::new(
        scheme(key, gamma),
        Arc::new(MultiHashEncoder),
        Watermark::single(true),
    )
    .unwrap()
}

fn detect_cfg(key: u64, gamma: u32) -> DetectConfig {
    DetectConfig::new(scheme(key, gamma), Arc::new(MultiHashEncoder), 1, 1.0).unwrap()
}

fn wave(n: usize, period: f64) -> Vec<Sample> {
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64;
            0.3 * (t * core::f64::consts::TAU / period).sin()
                + 0.05 * (t * core::f64::consts::TAU / 7.0).sin()
        })
        .collect();
    samples_from_values(&values)
}

fn bits(samples: &[Sample]) -> Vec<(u64, u64)> {
    samples
        .iter()
        .map(|s| (s.index, s.value.to_bits()))
        .collect()
}

/// Embeds `input` with a fresh session on the calling thread.
fn embed_here(cfg: &EmbedConfig, input: &[Sample]) -> (Vec<Sample>, EmbedStats) {
    let mut sess = cfg.new_session();
    let mut out = Vec::new();
    for &s in input {
        cfg.push_into(&mut sess, s, &mut out);
    }
    cfg.finish_into(&mut sess, &mut out);
    (out, *sess.stats())
}

/// Embeds `input` with a fresh session on a fresh thread, so nothing is
/// shared with the run under test.
fn embed_alone(cfg: &EmbedConfig, input: &[Sample]) -> (Vec<Sample>, EmbedStats) {
    std::thread::scope(|scope| scope.spawn(|| embed_here(cfg, input)).join().unwrap())
}

/// Detects over `input` with a fresh session on a fresh thread.
fn detect_alone(cfg: &DetectConfig, input: &[Sample]) -> DetectionReport {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut sess = cfg.new_session();
                for &s in input {
                    cfg.push(&mut sess, s);
                }
                cfg.finish(&mut sess)
            })
            .join()
            .unwrap()
    })
}

/// Runs `step(&mut state, i)` for `i in 0..steps`, handing `state` to
/// the other of two threads after every step, and returns it.
fn ping_pong<S: Send>(state: S, steps: usize, step: impl Fn(&mut S, usize) + Sync) -> S {
    let (tx_a, rx_a) = mpsc::channel::<(S, usize)>();
    let (tx_b, rx_b) = mpsc::channel::<(S, usize)>();
    let (tx_done, rx_done) = mpsc::channel::<S>();
    std::thread::scope(|scope| {
        for (rx, next) in [(rx_a, tx_b), (rx_b, tx_a.clone())] {
            let (step, done) = (&step, tx_done.clone());
            scope.spawn(move || {
                // Ends when the other thread finishes and drops `next`'s
                // counterpart, or after delivering the final state.
                while let Ok((mut s, i)) = rx.recv() {
                    if i == steps {
                        let _ = done.send(s);
                        return;
                    }
                    step(&mut s, i);
                    if next.send((s, i + 1)).is_err() {
                        return;
                    }
                }
            });
        }
        tx_a.send((state, 0)).unwrap();
        drop(tx_a);
        rx_done.recv().unwrap()
    })
}

#[test]
fn embed_session_handed_between_threads_matches_single_thread() {
    let cfg = embed_cfg(4242, 16);
    let input = wave(2400, 23.0);
    let (want, want_stats) = embed_alone(&cfg, &input);
    assert!(want_stats.embedded > 0, "fixture must embed bits");
    for every in [1usize, 5, 64] {
        let chunks: Vec<&[Sample]> = input.chunks(every).collect();
        let (mut sess, mut out) = ping_pong(
            (cfg.new_session(), Vec::new()),
            chunks.len(),
            |(sess, out): &mut (EmbedSession, Vec<Sample>), i| {
                for &s in chunks[i] {
                    cfg.push_into(sess, s, out);
                }
            },
        );
        cfg.finish_into(&mut sess, &mut out);
        assert_eq!(bits(&out), bits(&want), "hop every {every}: output bytes");
        assert_eq!(*sess.stats(), want_stats, "hop every {every}: stats");
    }
}

#[test]
fn detect_session_handed_between_threads_matches_single_thread() {
    let (marked, _) = embed_alone(&embed_cfg(4242, 16), &wave(2400, 23.0));
    let cfg = detect_cfg(4242, 16);
    let want = detect_alone(&cfg, &marked);
    assert!(want.bias() > 0, "fixture must detect the mark");
    for every in [1usize, 5, 64] {
        let chunks: Vec<&[Sample]> = marked.chunks(every).collect();
        let mut sess = ping_pong(
            cfg.new_session(),
            chunks.len(),
            |sess: &mut DetectSession, i| {
                for &s in chunks[i] {
                    cfg.push(sess, s);
                }
            },
        );
        assert_eq!(cfg.finish(&mut sess), want, "hop every {every}: report");
    }
}

/// Embed configs with different keys — two on the same input and γ, so
/// their labels coincide item by item and only the scheme fingerprint
/// tells their memo entries apart, and one at another γ, so the shared
/// code table also changes size and policy — plus a detector on the
/// first config's scheme share one thread's scratch, item by item. Every
/// memo switch between them must invalidate cleanly.
#[test]
fn interleaved_schemes_on_one_thread_match_dedicated_runs() {
    let cfgs = [embed_cfg(4242, 16), embed_cfg(977, 16), embed_cfg(31, 10)];
    let inputs = [wave(2400, 23.0), wave(2400, 23.0), wave(2400, 31.0)];
    let wants: Vec<(Vec<Sample>, EmbedStats)> = cfgs
        .iter()
        .zip(&inputs)
        .map(|(cfg, input)| embed_alone(cfg, input))
        .collect();
    // The detector reads the first stream's marked output, so the
    // embed/detect pair on one scheme runs side by side on the same
    // labels.
    let dcfg = detect_cfg(4242, 16);
    let marked = &wants[0].0;
    let want_report = detect_alone(&dcfg, marked);
    assert!(wants.iter().all(|(_, st)| st.embedded > 0));
    assert!(want_report.bias() > 0);

    let mut sessions: Vec<EmbedSession> = cfgs.iter().map(EmbedConfig::new_session).collect();
    let mut outs = vec![Vec::new(); cfgs.len()];
    let mut detector = dcfg.new_session();
    for i in 0..inputs[0].len() {
        for k in 0..cfgs.len() {
            cfgs[k].push_into(&mut sessions[k], inputs[k][i], &mut outs[k]);
        }
        dcfg.push(&mut detector, marked[i]);
    }
    for k in 0..cfgs.len() {
        cfgs[k].finish_into(&mut sessions[k], &mut outs[k]);
        assert_eq!(
            bits(&outs[k]),
            bits(&wants[k].0),
            "config {k}: output bytes"
        );
        assert_eq!(*sessions[k].stats(), wants[k].1, "config {k}: stats");
    }
    assert_eq!(dcfg.finish(&mut detector), want_report, "detector");
}

/// Accepts every alteration, but first embeds a whole short stream under
/// another config on the same thread — a batch nested inside a batch —
/// and checks it against that stream's dedicated reference.
struct NestedEmbed {
    cfg: EmbedConfig,
    input: Vec<Sample>,
    want: Vec<(u64, u64)>,
}

impl QualityConstraint for NestedEmbed {
    fn allows(&self, _: &ProposedAlteration<'_>) -> bool {
        assert_eq!(bits(&embed_here(&self.cfg, &self.input).0), self.want);
        true
    }

    fn name(&self) -> String {
        "nested-embed".into()
    }
}

#[test]
fn a_batch_nested_inside_a_batch_matches_dedicated_runs() {
    let inner = embed_cfg(977, 16);
    let inner_input = wave(400, 31.0);
    let (inner_want, inner_stats) = embed_alone(&inner, &inner_input);
    assert!(inner_stats.embedded > 0, "nested fixture must embed bits");
    let input = wave(2400, 23.0);
    let (want, want_stats) = embed_alone(&embed_cfg(4242, 16), &input);

    let outer = embed_cfg(4242, 16).with_constraint(NestedEmbed {
        cfg: inner,
        input: inner_input,
        want: bits(&inner_want),
    });
    let (got, stats) = embed_here(&outer, &input);
    assert_eq!(bits(&got), bits(&want), "outer output bytes");
    assert_eq!(stats, want_stats, "outer stats");
}

/// Panics on its first call, accepts everything afterwards.
struct PanicOnce(AtomicBool);

impl QualityConstraint for PanicOnce {
    fn allows(&self, _: &ProposedAlteration<'_>) -> bool {
        assert!(
            self.0.swap(true, Ordering::SeqCst),
            "injected constraint fault"
        );
        true
    }

    fn name(&self) -> String {
        "panic-once".into()
    }
}

/// The engine contains session panics with `catch_unwind` and keeps
/// using the thread: a batch that unwinds must leave the thread's
/// scratch borrowable for the next session, with the same bytes.
#[test]
fn a_contained_panic_mid_batch_leaves_the_thread_scratch_usable() {
    let input = wave(2400, 23.0);
    let faulty = embed_cfg(4242, 16).with_constraint(PanicOnce(AtomicBool::new(false)));
    let crashed = catch_unwind(AssertUnwindSafe(|| embed_here(&faulty, &input)));
    assert!(crashed.is_err(), "the constraint fault must fire");

    let cfg = embed_cfg(4242, 16);
    let (want, want_stats) = embed_alone(&cfg, &input);
    let (got, stats) = embed_here(&cfg, &input);
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(stats, want_stats);
}
