//! Step-wise replay of `EmbedConfig::push_into` through public API, so
//! the traced run can time the core layers one call at a time.
//!
//! `push_into` keeps every core layer inside one call, so the traced run
//! re-implements its `process_batch` loop from the same public building
//! blocks — `Scanner::scan_into`, `Scheme::label_msb`, `Labeler::push` /
//! `label`, `Scheme::select`, `trim_around`, `SubsetEncoder::embed_with`,
//! the undo-log apply and `SlidingWindow::advance_into` — with a span
//! around each. The replay's output must be bit-identical to
//! `push_into` on the same input, or the trace is rejected.

use crate::path::EmbedDriver;
use crate::trace::Tracer;
use std::cell::RefCell;
use std::sync::Arc;
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::encoding::trim_around;
use wms_core::extremes::{Extreme, Scanner};
use wms_core::quality::UndoLog;
use wms_core::{EmbedStats, EncoderScratch, Label, Labeler, Scheme, SubsetEncoder, Watermark};
use wms_math::SlidingMoments;
use wms_stream::{Sample, SlidingWindow};

/// Per-stream state of the replay (the fields of an `EmbedSession`).
pub struct StepSession {
    window: SlidingWindow,
    labeler: Labeler,
    moments: SlidingMoments,
    stats: EmbedStats,
    pending_advance: usize,
    scratch: EncoderScratch,
    values: Vec<f64>,
    scanner: Scanner,
    extremes: Vec<Extreme>,
    before: Vec<f64>,
}

/// Labels and quantized subset values seen by the search, kept so the
/// crypto layer can be timed on the workload's own inputs.
pub struct HashSample {
    pub label: Label,
    pub raws: Vec<i64>,
}

/// Cap on the retained [`HashSample`]s.
const HASH_SAMPLES: usize = 512;

/// The replaying driver: the scheme, encoder and watermark of one
/// `EmbedConfig` (no quality constraints, as in the CLI).
pub struct StepDriver {
    scheme: Scheme,
    encoder: Arc<dyn SubsetEncoder>,
    wm: Watermark,
    /// Search iterations of every embedded bit, in replay order.
    iterations: RefCell<Vec<u64>>,
    hash_samples: RefCell<Vec<HashSample>>,
}

impl StepDriver {
    pub fn new(scheme: Scheme) -> StepDriver {
        StepDriver {
            scheme,
            encoder: Arc::new(MultiHashEncoder),
            wm: Watermark::single(true),
            iterations: RefCell::new(Vec::new()),
            hash_samples: RefCell::new(Vec::new()),
        }
    }

    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    pub fn take_iterations(&self) -> Vec<u64> {
        std::mem::take(&mut self.iterations.borrow_mut())
    }

    pub fn take_hash_samples(&self) -> Vec<HashSample> {
        std::mem::take(&mut self.hash_samples.borrow_mut())
    }

    fn process_batch(&self, sess: &mut StepSession, t: &mut Tracer) {
        let len = sess.window.len();
        if len < 3 {
            return;
        }
        let params = &self.scheme.params;
        t.enter("core.extremes");
        sess.window.values_into(&mut sess.values);
        sess.scanner
            .scan_into(&sess.values, params.radius, &mut sess.extremes);
        t.exit();
        sess.stats.extremes_seen += sess.extremes.len() as u64;
        let mut last_major: Option<usize> = None;
        for ei in 0..sess.extremes.len() {
            let e = &sess.extremes[ei];
            if !e.is_major(params.degree) {
                continue;
            }
            sess.stats.majors_seen += 1;
            sess.stats.subset_size_sum += e.subset_len() as u64;
            last_major = Some(e.pos);
            let e_pos = e.pos;
            let subset = e.subset.clone();
            t.enter("core.labeling");
            let raw = self.scheme.codec.quantize(e.value);
            sess.labeler.push(self.scheme.label_msb(raw));
            let label = sess.labeler.label();
            t.exit();
            let Some(label) = label else {
                sess.stats.warmup_skipped += 1;
                continue;
            };
            t.enter("core.select");
            let selected = self.scheme.select(raw, self.wm.len());
            t.exit();
            let Some(bit_idx) = selected else {
                continue;
            };
            sess.stats.selected += 1;
            t.enter("core.search");
            let trim = trim_around(subset, e_pos, params.max_subset);
            sess.before.clear();
            let window = &sess.window;
            sess.before.extend(
                trim.clone()
                    .map(|i| window.get(i).expect("in-window").value),
            );
            let res = self.encoder.embed_with(
                &self.scheme,
                &mut sess.scratch,
                &sess.before,
                e_pos - trim.start,
                &label,
                self.wm.bit(bit_idx),
            );
            t.exit();
            {
                let mut samples = self.hash_samples.borrow_mut();
                if samples.len() < HASH_SAMPLES {
                    samples.push(HashSample {
                        label,
                        raws: sess
                            .before
                            .iter()
                            .map(|&v| self.scheme.codec.quantize(v))
                            .collect(),
                    });
                }
            }
            let Some(res) = res else {
                sess.stats.skipped_encoding += 1;
                continue;
            };
            sess.stats.total_iterations += res.iterations;
            self.iterations.borrow_mut().push(res.iterations);
            t.enter("core.quality");
            let mut undo = UndoLog::new();
            for (k, off) in trim.clone().enumerate() {
                let slot = sess.window.get_mut(off).expect("in-window");
                undo.record(off, slot.value);
                sess.moments.replace(slot.value, res.values[k]);
                slot.value = res.values[k];
            }
            undo.commit();
            t.exit();
            sess.stats.embedded += 1;
        }
        sess.pending_advance = match last_major {
            Some(p) => p + 1,
            None => (len / 2).max(1),
        };
    }
}

impl EmbedDriver for StepDriver {
    type Session = StepSession;

    fn new_session(&self) -> StepSession {
        let p = &self.scheme.params;
        StepSession {
            window: SlidingWindow::new(p.window),
            labeler: Labeler::new(p.label_len, p.label_stride),
            moments: SlidingMoments::new(),
            stats: EmbedStats::default(),
            pending_advance: 0,
            scratch: EncoderScratch::new(),
            values: Vec::new(),
            scanner: Scanner::new(),
            extremes: Vec::new(),
            before: Vec::new(),
        }
    }

    fn push(&self, sess: &mut StepSession, s: Sample, out: &mut Vec<Sample>, t: &mut Tracer) {
        if sess.window.is_full() {
            self.process_batch(sess, t);
            t.enter("stream.window");
            let n = sess.pending_advance.max(1);
            let start = out.len();
            let emitted = sess.window.advance_into(n, out);
            for s in &out[start..] {
                sess.moments.remove(s.value);
            }
            sess.stats.items_out += emitted as u64;
            sess.pending_advance = 0;
            t.exit();
        }
        sess.window.push(s);
        sess.moments.insert(s.value);
        sess.stats.items_in += 1;
    }

    fn finish(&self, sess: &mut StepSession, out: &mut Vec<Sample>, t: &mut Tracer) {
        self.process_batch(sess, t);
        t.enter("stream.window");
        let start = out.len();
        let n = sess.window.drain_all_into(out);
        for s in &out[start..] {
            sess.moments.remove(s.value);
        }
        sess.stats.items_out += n as u64;
        t.exit();
    }

    fn stats(&self, sess: &StepSession) -> EmbedStats {
        sess.stats
    }
}
