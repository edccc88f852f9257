//! Shared-config / per-stream-state split of the embedding and detection
//! pipelines.
//!
//! [`Embedder`](crate::Embedder) and [`Detector`](crate::Detector) bundle
//! two very different kinds of state: *configuration* (scheme, encoder,
//! watermark, quality constraints — immutable once built, identical for
//! every stream of a tenant) and *per-stream session state* (the sliding
//! window, labeler, moments or voting buckets, counters — one copy per
//! live stream). A multi-stream engine serving thousands of sessions
//! wants to share one [`EmbedConfig`]/[`DetectConfig`] behind an `Arc` and
//! keep only a cheap [`EmbedSession`]/[`DetectSession`] per stream, so
//! this module factors the single-stream pipelines along exactly that
//! line. The wrapper types delegate here; running a session through a
//! config is bit-identical to running the equivalent
//! `Embedder`/`Detector`.
//!
//! Sessions hold no scratch. The per-batch working state — the
//! [`EncoderScratch`] (code memo, compiled hasher, search buffers) and
//! the extreme-scan buffers — lives once per *thread* and is borrowed
//! for the length of one window batch, so every session a thread drives
//! (an engine worker's shard, a caller draining a ring, a single-stream
//! wrapper) shares one warm 2^γ code memo instead of each session
//! allocating its own. Sharing changes no output byte: the scratch is a
//! pure cache, and every memo layer inside it is stamped with the label
//! and [`Scheme::memo_fingerprint`] it was derived under, so a session
//! (or a config with another key) that takes over a warm scratch only
//! invalidates and re-warms it.

use crate::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use crate::detector::{BitBuckets, DetectionReport};
use crate::encoding::{trim_around, EncoderScratch, SubsetEncoder};
use crate::extremes;
use crate::labeling::Labeler;
use crate::params::WmParams;
use crate::quality::{ProposedAlteration, QualityConstraint, UndoLog};
use crate::scheme::Scheme;
use crate::transform_estimate::adjusted_degree;
use crate::watermark::Watermark;
use crate::EmbedStats;
use std::cell::RefCell;
use std::sync::Arc;
use wms_math::SlidingMoments;
use wms_stream::{Sample, SlidingWindow, Span};

/// The per-batch working state of [`EmbedConfig::process_batch`] and
/// [`DetectConfig::process_batch`]: pure caches and buffers, never part
/// of a stream's replay state, so one copy serves every session a thread
/// drives (see the module docs).
#[derive(Default)]
struct BatchScratch {
    /// Encoder scratch (code memo, compiled hasher, search buffers).
    encoder: EncoderScratch,
    /// Window-values snapshot buffer for extreme scanning.
    values: Vec<f64>,
    /// Extreme scanner (plateau-run buffer) and its output buffer.
    scanner: extremes::Scanner,
    extremes: Vec<extremes::Extreme>,
    /// Subset values: the pre-embedding snapshot when embedding, the
    /// trimmed subset when detecting.
    subset: Vec<f64>,
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// Runs `f` with this thread's [`BatchScratch`]. A batch that re-enters
/// another session's batch on the same thread (an encoder or quality
/// constraint driving a session of its own) gets a throwaway scratch
/// instead: same bytes, only colder.
fn with_batch_scratch<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
    BATCH_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BatchScratch::default()),
    })
}

// Sessions are driven from more than one thread (a shard's worker and a
// caller help-draining its ring take turns under one lock): nothing in
// them may pin a thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EmbedSession>();
    assert_send::<DetectSession>();
};

/// Session snapshot magic (shared by embed and detect snapshots; the
/// kind byte after the version distinguishes them).
const SESSION_MAGIC: [u8; 4] = *b"WMSS";
/// Newest session snapshot format version this build reads and writes.
const SESSION_VERSION: u16 = 1;
/// Kind tag of an [`EmbedSession`] snapshot.
const KIND_EMBED: u8 = 0;
/// Kind tag of a [`DetectSession`] snapshot.
const KIND_DETECT: u8 = 1;

/// Serializes the replay-relevant window state (resident samples plus
/// lifetime flow counters). Sessions hold no scratch — it lives per
/// thread and is pure memo/working state — so a snapshot is exactly the
/// replay state.
fn write_window(w: &mut ByteWriter, win: &SlidingWindow) {
    w.put_u64(win.capacity() as u64);
    w.put_u64(win.total_pushed());
    w.put_u64(win.total_evicted());
    w.put_u64(win.len() as u64);
    for s in win.iter() {
        w.put_u64(s.index);
        w.put_u64(s.span.start);
        w.put_u64(s.span.end);
        w.put_f64(s.value);
    }
}

/// Decodes a window snapshot, validating it against the configured
/// capacity (a snapshot taken under different `WmParams::window` cannot
/// replay identically, so it is refused).
fn read_window(
    r: &mut ByteReader<'_>,
    expect_capacity: usize,
) -> Result<SlidingWindow, CheckpointError> {
    let capacity = r.get_u64()? as usize;
    if capacity != expect_capacity {
        return Err(CheckpointError::Invalid(format!(
            "window capacity {capacity} does not match configured window {expect_capacity}"
        )));
    }
    let pushed = r.get_u64()?;
    let evicted = r.get_u64()?;
    let len = r.get_len(32)?;
    let mut samples = Vec::with_capacity(len);
    for _ in 0..len {
        let index = r.get_u64()?;
        let start = r.get_u64()?;
        let end = r.get_u64()?;
        let value = r.get_f64()?;
        if end <= start {
            return Err(CheckpointError::Invalid(format!(
                "sample span [{start},{end}) is empty or inverted"
            )));
        }
        samples.push(Sample::derived(index, value, Span::new(start, end)));
    }
    SlidingWindow::from_state(capacity, samples, pushed, evicted).map_err(CheckpointError::Invalid)
}

/// Serializes the labeler's retained msb history.
fn write_labeler(w: &mut ByteWriter, labeler: &Labeler) {
    w.put_u64(labeler.seen() as u64);
    for msb in labeler.history() {
        w.put_u64(msb);
    }
}

/// Decodes a labeler snapshot under the configured shape.
fn read_labeler(
    r: &mut ByteReader<'_>,
    lambda: usize,
    stride: usize,
) -> Result<Labeler, CheckpointError> {
    let n = r.get_len(8)?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(r.get_u64()?);
    }
    Labeler::from_state(lambda, stride, &history).map_err(CheckpointError::Invalid)
}

/// Decodes the shared snapshot header and returns the stamped scheme
/// fingerprint after verifying magic, version, kind and fingerprint.
fn read_header(
    r: &mut ByteReader<'_>,
    expect_kind: u8,
    expect_fingerprint: u64,
) -> Result<(), CheckpointError> {
    let version = r.get_u16()?;
    if version != SESSION_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: SESSION_VERSION,
        });
    }
    let kind = r.get_u8()?;
    if kind != expect_kind {
        return Err(CheckpointError::WrongKind {
            expected: expect_kind,
            found: kind,
        });
    }
    let fingerprint = r.get_u64()?;
    if fingerprint != expect_fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: expect_fingerprint,
            found: fingerprint,
        });
    }
    Ok(())
}

/// Immutable embedding configuration, shareable across streams.
///
/// Holds everything the embedding algorithm reads but never writes: the
/// [`Scheme`], the subset encoder, the watermark and the quality
/// constraints. Wrap it in an `Arc` and hand each stream its own
/// [`EmbedSession`].
pub struct EmbedConfig {
    scheme: Scheme,
    encoder: Arc<dyn SubsetEncoder>,
    wm: Watermark,
    constraints: Vec<Box<dyn QualityConstraint>>,
}

impl EmbedConfig {
    /// Builds a validated embedding configuration; fails if the
    /// parameters cannot address the watermark (θ ≤ b(wm)).
    pub fn new(
        scheme: Scheme,
        encoder: Arc<dyn SubsetEncoder>,
        wm: Watermark,
    ) -> Result<Self, String> {
        scheme.params.validate_for_watermark(wm.len())?;
        Ok(EmbedConfig {
            scheme,
            encoder,
            wm,
            constraints: Vec::new(),
        })
    }

    /// Adds a quality constraint (builder style; call before sharing).
    pub fn with_constraint(mut self, c: impl QualityConstraint + 'static) -> Self {
        self.constraints.push(Box::new(c));
        self
    }

    /// The configured scheme.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The watermark being embedded.
    pub fn watermark(&self) -> &Watermark {
        &self.wm
    }

    /// A fresh per-stream session sized for this configuration.
    pub fn new_session(&self) -> EmbedSession {
        EmbedSession::new(&self.scheme.params)
    }

    /// Feeds one sample of a session's stream, appending any samples
    /// leaving the window to `out` (which is *not* cleared). The
    /// steady-state per-item path: no allocation beyond `out`'s growth.
    pub fn push_into(&self, sess: &mut EmbedSession, s: Sample, out: &mut Vec<Sample>) {
        assert!(!sess.finished, "push after finish");
        if sess.window.is_full() {
            self.process_batch(sess);
            sess.advance_after_batch(out);
        }
        sess.window.push(s);
        sess.moments.insert(s.value);
        sess.stats.items_in += 1;
    }

    /// Flushes a session's stream end: processes the residual window and
    /// drains it into `out`.
    pub fn finish_into(&self, sess: &mut EmbedSession, out: &mut Vec<Sample>) {
        assert!(!sess.finished, "finish twice");
        sess.finished = true;
        self.process_batch(sess);
        let start = out.len();
        let n = sess.window.drain_all_into(out);
        for s in &out[start..] {
            sess.moments.remove(s.value);
        }
        sess.stats.items_out += n as u64;
    }

    /// Scans the resident window and embeds into every selected major
    /// extreme. Called when the window is full and at end of stream; in
    /// both cases every subset in the window is as complete as the space
    /// bound `$` permits (§2.2), so all majors are processed.
    fn process_batch(&self, sess: &mut EmbedSession) {
        if sess.window.len() < 3 {
            return;
        }
        with_batch_scratch(|scratch| self.embed_batch(sess, scratch));
    }

    fn embed_batch(&self, sess: &mut EmbedSession, scratch: &mut BatchScratch) {
        let len = sess.window.len();
        let BatchScratch {
            encoder,
            values,
            scanner,
            extremes,
            subset: before,
        } = scratch;
        // Snapshot the window values once into the reusable buffer; the
        // scan sees this snapshot even though embeddings mutate the
        // window mid-batch (subsets are re-read below).
        sess.window.values_into(values);
        scanner.scan_into(values, self.scheme.params.radius, extremes);
        sess.stats.extremes_seen += extremes.len() as u64;
        let degree = self.scheme.params.degree;
        let mut last_major: Option<usize> = None;
        for e in extremes.iter() {
            if !e.is_major(degree) {
                continue;
            }
            sess.stats.majors_seen += 1;
            sess.stats.subset_size_sum += e.subset_len() as u64;
            last_major = Some(e.pos);
            let e_pos = e.pos;
            let subset = e.subset.clone();
            let raw = self.scheme.codec.quantize(e.value);
            sess.labeler.push(self.scheme.label_msb(raw));
            let Some(label) = sess.labeler.label() else {
                sess.stats.warmup_skipped += 1;
                continue;
            };
            let Some(bit_idx) = self.scheme.select(raw, self.wm.len()) else {
                continue;
            };
            sess.stats.selected += 1;
            let trim = trim_around(subset, e_pos, self.scheme.params.max_subset);
            // Re-read from the window: a previous embedding in this batch
            // may have altered overlapping items.
            before.clear();
            let window = &sess.window;
            before.extend(
                trim.clone()
                    .map(|i| window.get(i).expect("in-window").value),
            );
            let bit = self.wm.bit(bit_idx);
            let Some(res) = self.encoder.embed_with(
                &self.scheme,
                encoder,
                before,
                e_pos - trim.start,
                &label,
                bit,
            ) else {
                sess.stats.skipped_encoding += 1;
                continue;
            };
            sess.stats.total_iterations += res.iterations;
            // Apply through the §4.4 undo log, then check constraints.
            let window_before = sess.moments.clone();
            let mut undo = UndoLog::new();
            for (k, off) in trim.clone().enumerate() {
                let slot = sess.window.get_mut(off).expect("in-window");
                undo.record(off, slot.value);
                sess.moments.replace(slot.value, res.values[k]);
                slot.value = res.values[k];
            }
            let alt = ProposedAlteration {
                before,
                after: &res.values,
                window_before: &window_before,
            };
            if self.constraints.iter().all(|c| c.allows(&alt)) {
                undo.commit();
                sess.stats.embedded += 1;
            } else {
                let window = &mut sess.window;
                undo.rollback(|off, old| {
                    window.get_mut(off).expect("in-window").value = old;
                });
                sess.moments = window_before;
                sess.stats.skipped_quality += 1;
            }
        }
        sess.pending_advance = match last_major {
            Some(p) => p + 1,
            None => (len / 2).max(1),
        };
    }
}

/// Per-stream mutable state of one embedding pipeline: the sliding
/// window, labeler, running moments and statistics — no scratch (that
/// lives once per thread; see the module docs). Cheap enough to keep
/// one per live stream; all algorithm logic lives on [`EmbedConfig`].
pub struct EmbedSession {
    window: SlidingWindow,
    labeler: Labeler,
    moments: SlidingMoments,
    stats: EmbedStats,
    finished: bool,
    /// Items to emit after the current batch (set by `process_batch`).
    pending_advance: usize,
}

impl EmbedSession {
    /// Fresh state for a stream processed under the given parameters.
    /// Window capacity and labeler shape must match the driving config's
    /// params; [`EmbedConfig::new_session`] guarantees that.
    pub fn new(params: &WmParams) -> Self {
        EmbedSession {
            window: SlidingWindow::new(params.window),
            labeler: Labeler::new(params.label_len, params.label_stride),
            moments: SlidingMoments::new(),
            stats: EmbedStats::default(),
            finished: false,
            pending_advance: 0,
        }
    }

    /// Run counters so far.
    pub fn stats(&self) -> &EmbedStats {
        &self.stats
    }

    /// Whether `finish_into` has run.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Captures everything needed to resume this session bit-identically
    /// in the versioned binary snapshot format, stamped with the driving
    /// scheme's [`Scheme::memo_fingerprint`]. Sessions hold no scratch,
    /// so none is captured.
    pub fn snapshot(&self, cfg: &EmbedConfig) -> Vec<u8> {
        let mut w = ByteWriter::with_magic(SESSION_MAGIC);
        w.put_u16(SESSION_VERSION);
        w.put_u8(KIND_EMBED);
        w.put_u64(cfg.scheme.memo_fingerprint());
        write_window(&mut w, &self.window);
        write_labeler(&mut w, &self.labeler);
        let (n, sum, sum_sq) = self.moments.raw_state();
        w.put_u64(n);
        w.put_f64(sum);
        w.put_f64(sum_sq);
        let st = &self.stats;
        for v in [
            st.items_in,
            st.items_out,
            st.extremes_seen,
            st.majors_seen,
            st.warmup_skipped,
            st.selected,
            st.embedded,
            st.skipped_encoding,
            st.skipped_quality,
            st.total_iterations,
            st.subset_size_sum,
        ] {
            w.put_u64(v);
        }
        w.put_u8(self.finished as u8);
        w.put_u64(self.pending_advance as u64);
        w.into_bytes()
    }

    /// Rebuilds a session from a [`snapshot`](Self::snapshot) taken under
    /// the *same* configuration. A snapshot stamped with a different
    /// scheme fingerprint (different key or τ/γ/α) is rejected with
    /// [`CheckpointError::FingerprintMismatch`] — restoring it would not
    /// fail loudly later, it would silently desynchronize the watermark.
    /// Feeding the restored session the remaining stream produces output
    /// bit-identical to a session that never stopped.
    pub fn restore(cfg: &EmbedConfig, bytes: &[u8]) -> Result<EmbedSession, CheckpointError> {
        let params = &cfg.scheme.params;
        let mut r = ByteReader::with_magic(bytes, SESSION_MAGIC)?;
        read_header(&mut r, KIND_EMBED, cfg.scheme.memo_fingerprint())?;
        let window = read_window(&mut r, params.window)?;
        let labeler = read_labeler(&mut r, params.label_len, params.label_stride)?;
        let n = r.get_u64()?;
        let sum = r.get_f64()?;
        let sum_sq = r.get_f64()?;
        if n != window.len() as u64 {
            return Err(CheckpointError::Invalid(format!(
                "moments cover {n} values but the window holds {}",
                window.len()
            )));
        }
        let moments = SlidingMoments::from_raw_state(n, sum, sum_sq);
        let mut stat = [0u64; 11];
        for v in stat.iter_mut() {
            *v = r.get_u64()?;
        }
        let stats = EmbedStats {
            items_in: stat[0],
            items_out: stat[1],
            extremes_seen: stat[2],
            majors_seen: stat[3],
            warmup_skipped: stat[4],
            selected: stat[5],
            embedded: stat[6],
            skipped_encoding: stat[7],
            skipped_quality: stat[8],
            total_iterations: stat[9],
            subset_size_sum: stat[10],
        };
        let finished = r.get_u8()? != 0;
        let pending_advance = r.get_u64()? as usize;
        r.finish()?;
        let mut sess = EmbedSession::new(params);
        sess.window = window;
        sess.labeler = labeler;
        sess.moments = moments;
        sess.stats = stats;
        sess.finished = finished;
        sess.pending_advance = pending_advance;
        Ok(sess)
    }

    fn advance_after_batch(&mut self, out: &mut Vec<Sample>) {
        let n = self.pending_advance.max(1);
        let start = out.len();
        let emitted = self.window.advance_into(n, out);
        for s in &out[start..] {
            self.moments.remove(s.value);
        }
        self.stats.items_out += emitted as u64;
        self.pending_advance = 0;
    }
}

/// Immutable detection configuration, shareable across streams.
pub struct DetectConfig {
    scheme: Scheme,
    encoder: Arc<dyn SubsetEncoder>,
    wm_len: usize,
    chi: f64,
    effective_degree: usize,
}

impl DetectConfig {
    /// Builds a validated detection configuration for a watermark of
    /// `wm_len` bits under a fixed transform degree `chi` (χ ≥ 1).
    pub fn new(
        scheme: Scheme,
        encoder: Arc<dyn SubsetEncoder>,
        wm_len: usize,
        chi: f64,
    ) -> Result<Self, String> {
        scheme.params.validate_for_watermark(wm_len)?;
        if chi.is_nan() || chi < 1.0 {
            return Err(format!("transform degree must be >= 1, got {chi}"));
        }
        let effective_degree = adjusted_degree(scheme.params.degree, chi);
        Ok(DetectConfig {
            scheme,
            encoder,
            wm_len,
            chi,
            effective_degree,
        })
    }

    /// The configured scheme.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Watermark length being looked for.
    pub fn wm_len(&self) -> usize {
        self.wm_len
    }

    /// ν′ actually used by the scan.
    pub fn effective_degree(&self) -> usize {
        self.effective_degree
    }

    /// A fresh per-stream session sized for this configuration.
    pub fn new_session(&self) -> DetectSession {
        DetectSession::new(&self.scheme.params, self.wm_len)
    }

    /// Feeds one sample of a session's stream. Steady state allocates
    /// nothing: processed data is discarded from the window rather than
    /// collected.
    pub fn push(&self, sess: &mut DetectSession, s: Sample) {
        assert!(!sess.finished, "push after finish");
        if sess.window.is_full() {
            self.process_batch(sess);
            let n = sess.pending_advance.max(1);
            sess.window.discard(n);
            sess.pending_advance = 0;
        }
        sess.window.push(s);
    }

    /// Flushes a session and produces its report. The session is spent
    /// afterwards (further pushes panic).
    pub fn finish(&self, sess: &mut DetectSession) -> DetectionReport {
        assert!(!sess.finished, "finish twice");
        sess.finished = true;
        self.process_batch(sess);
        DetectionReport {
            buckets: std::mem::take(&mut sess.buckets),
            majors_seen: sess.majors_seen,
            warmup_skipped: sess.warmup_skipped,
            selected: sess.selected,
            verdicts: sess.verdicts,
            abstained: sess.abstained,
            effective_degree: self.effective_degree,
            assumed_transform_degree: self.chi,
        }
    }

    fn process_batch(&self, sess: &mut DetectSession) {
        if sess.window.len() < 3 {
            return;
        }
        with_batch_scratch(|scratch| self.detect_batch(sess, scratch));
    }

    fn detect_batch(&self, sess: &mut DetectSession, scratch: &mut BatchScratch) {
        let len = sess.window.len();
        let BatchScratch {
            encoder,
            values,
            scanner,
            extremes,
            subset,
        } = scratch;
        sess.window.values_into(values);
        scanner.scan_into(values, self.scheme.params.radius, extremes);
        let mut last_major: Option<usize> = None;
        for e in extremes.iter() {
            if !e.is_major(self.effective_degree) {
                continue;
            }
            sess.majors_seen += 1;
            last_major = Some(e.pos);
            let e_pos = e.pos;
            let subset_range = e.subset.clone();
            let raw = self.scheme.codec.quantize(e.value);
            sess.labeler.push(self.scheme.label_msb(raw));
            let Some(label) = sess.labeler.label() else {
                sess.warmup_skipped += 1;
                continue;
            };
            let Some(bit_idx) = self.scheme.select(raw, sess.buckets.len()) else {
                continue;
            };
            sess.selected += 1;
            let trim = trim_around(subset_range, e_pos, self.scheme.params.max_subset);
            subset.clear();
            subset.extend_from_slice(&values[trim]);
            let vote = self
                .encoder
                .detect_with(&self.scheme, encoder, subset, &label);
            match vote.verdict() {
                Some(true) => {
                    sess.buckets[bit_idx].true_count += 1;
                    sess.verdicts += 1;
                }
                Some(false) => {
                    sess.buckets[bit_idx].false_count += 1;
                    sess.verdicts += 1;
                }
                None => sess.abstained += 1,
            }
        }
        sess.pending_advance = match last_major {
            Some(p) => p + 1,
            None => (len / 2).max(1),
        };
    }
}

/// Per-stream mutable state of one detection pipeline; the mirror of
/// [`EmbedSession`]. All algorithm logic lives on [`DetectConfig`].
pub struct DetectSession {
    window: SlidingWindow,
    labeler: Labeler,
    buckets: Vec<BitBuckets>,
    majors_seen: u64,
    warmup_skipped: u64,
    selected: u64,
    verdicts: u64,
    abstained: u64,
    finished: bool,
    pending_advance: usize,
}

impl DetectSession {
    /// Fresh state for a stream processed under the given parameters and
    /// a `wm_len`-bit mark. Both must match the driving config;
    /// [`DetectConfig::new_session`] guarantees that.
    pub fn new(params: &WmParams, wm_len: usize) -> Self {
        DetectSession {
            window: SlidingWindow::new(params.window),
            labeler: Labeler::new(params.label_len, params.label_stride),
            buckets: vec![BitBuckets::default(); wm_len],
            majors_seen: 0,
            warmup_skipped: 0,
            selected: 0,
            verdicts: 0,
            abstained: 0,
            finished: false,
            pending_advance: 0,
        }
    }

    /// Major extremes examined so far (progress reporting).
    pub fn majors_seen(&self) -> u64 {
        self.majors_seen
    }

    /// Whether `finish` has run.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Captures everything needed to resume this session bit-identically;
    /// the detection mirror of [`EmbedSession::snapshot`].
    pub fn snapshot(&self, cfg: &DetectConfig) -> Vec<u8> {
        let mut w = ByteWriter::with_magic(SESSION_MAGIC);
        w.put_u16(SESSION_VERSION);
        w.put_u8(KIND_DETECT);
        w.put_u64(cfg.scheme.memo_fingerprint());
        write_window(&mut w, &self.window);
        write_labeler(&mut w, &self.labeler);
        w.put_u64(self.buckets.len() as u64);
        for b in &self.buckets {
            w.put_u64(b.true_count);
            w.put_u64(b.false_count);
        }
        for v in [
            self.majors_seen,
            self.warmup_skipped,
            self.selected,
            self.verdicts,
            self.abstained,
        ] {
            w.put_u64(v);
        }
        w.put_u8(self.finished as u8);
        w.put_u64(self.pending_advance as u64);
        w.into_bytes()
    }

    /// Rebuilds a session from a [`snapshot`](Self::snapshot) taken under
    /// the same configuration; the detection mirror of
    /// [`EmbedSession::restore`] with the same fingerprint/kind/version
    /// rejection semantics.
    pub fn restore(cfg: &DetectConfig, bytes: &[u8]) -> Result<DetectSession, CheckpointError> {
        let params = &cfg.scheme.params;
        let mut r = ByteReader::with_magic(bytes, SESSION_MAGIC)?;
        read_header(&mut r, KIND_DETECT, cfg.scheme.memo_fingerprint())?;
        let window = read_window(&mut r, params.window)?;
        let labeler = read_labeler(&mut r, params.label_len, params.label_stride)?;
        let wm_len = r.get_len(16)?;
        if wm_len != cfg.wm_len {
            return Err(CheckpointError::Invalid(format!(
                "snapshot votes over {wm_len} watermark bits, config expects {}",
                cfg.wm_len
            )));
        }
        let mut buckets = Vec::with_capacity(wm_len);
        for _ in 0..wm_len {
            buckets.push(BitBuckets {
                true_count: r.get_u64()?,
                false_count: r.get_u64()?,
            });
        }
        let majors_seen = r.get_u64()?;
        let warmup_skipped = r.get_u64()?;
        let selected = r.get_u64()?;
        let verdicts = r.get_u64()?;
        let abstained = r.get_u64()?;
        let finished = r.get_u8()? != 0;
        let pending_advance = r.get_u64()? as usize;
        r.finish()?;
        let mut sess = DetectSession::new(params, cfg.wm_len);
        sess.window = window;
        sess.labeler = labeler;
        sess.buckets = buckets;
        sess.majors_seen = majors_seen;
        sess.warmup_skipped = warmup_skipped;
        sess.selected = selected;
        sess.verdicts = verdicts;
        sess.abstained = abstained;
        sess.finished = finished;
        sess.pending_advance = pending_advance;
        Ok(sess)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::initial::InitialEncoder;
    use crate::params::WmParams;
    use wms_crypto::{Key, KeyedHash};
    use wms_stream::samples_from_values;

    fn config() -> EmbedConfig {
        let p = WmParams {
            window: 256,
            degree: 3,
            radius: 0.01,
            max_subset: 4,
            label_len: 4,
            label_stride: 1,
            ..WmParams::default()
        };
        let scheme = Scheme::new(p, KeyedHash::md5(Key::from_u64(77))).unwrap();
        EmbedConfig::new(scheme, Arc::new(InitialEncoder), Watermark::single(true)).unwrap()
    }

    fn stream(n: usize) -> Vec<Sample> {
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                0.35 * (t * core::f64::consts::TAU / 60.0).sin()
                    + 0.05 * (t * core::f64::consts::TAU / 17.0).sin()
            })
            .collect();
        samples_from_values(&values)
    }

    #[test]
    fn shared_config_drives_independent_sessions() {
        let cfg = Arc::new(config());
        let input = stream(2000);
        // Two sessions over the same config must not interfere: each
        // produces exactly what a dedicated Embedder would.
        let mut a = cfg.new_session();
        let mut b = cfg.new_session();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for &s in &input {
            cfg.push_into(&mut a, s, &mut out_a);
            cfg.push_into(&mut b, s, &mut out_b);
        }
        cfg.finish_into(&mut a, &mut out_a);
        cfg.finish_into(&mut b, &mut out_b);
        assert_eq!(out_a, out_b);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().embedded > 0);
        assert!(a.is_finished());
    }

    #[test]
    #[should_panic(expected = "finish twice")]
    fn double_finish_panics() {
        let cfg = config();
        let mut s = cfg.new_session();
        let mut out = Vec::new();
        cfg.finish_into(&mut s, &mut out);
        cfg.finish_into(&mut s, &mut out);
    }

    /// Snapshot/restore at every ~prime offset must be invisible in the
    /// output: the restored session replays bit-identically.
    #[test]
    fn embed_snapshot_restore_is_bit_identical() {
        let cfg = config();
        let input = stream(2400);
        // Uninterrupted reference.
        let mut reference = cfg.new_session();
        let mut want = Vec::new();
        for &s in &input {
            cfg.push_into(&mut reference, s, &mut want);
        }
        cfg.finish_into(&mut reference, &mut want);

        for cut in [1usize, 97, 255, 256, 257, 1031, 2399] {
            let mut first = cfg.new_session();
            let mut got = Vec::new();
            for &s in &input[..cut] {
                cfg.push_into(&mut first, s, &mut got);
            }
            let bytes = first.snapshot(&cfg);
            drop(first); // the "crash"
            let mut resumed = EmbedSession::restore(&cfg, &bytes).unwrap();
            for &s in &input[cut..] {
                cfg.push_into(&mut resumed, s, &mut got);
            }
            cfg.finish_into(&mut resumed, &mut got);
            assert_eq!(got.len(), want.len(), "cut {cut}: length");
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "cut {cut} sample {i}: {} vs {}",
                    a.value,
                    b.value
                );
                assert_eq!(a.index, b.index, "cut {cut} sample {i}");
                assert_eq!(a.span, b.span, "cut {cut} sample {i}");
            }
            assert_eq!(resumed.stats(), reference.stats(), "cut {cut}: stats");
        }
    }

    #[test]
    fn detect_snapshot_restore_is_bit_identical() {
        let cfg = config();
        let input = stream(3000);
        let mut sess = cfg.new_session();
        let mut marked = Vec::new();
        for &s in &input {
            cfg.push_into(&mut sess, s, &mut marked);
        }
        cfg.finish_into(&mut sess, &mut marked);

        let dcfg =
            DetectConfig::new(cfg.scheme().clone(), Arc::new(InitialEncoder), 1, 1.0).unwrap();
        let mut reference = dcfg.new_session();
        for &s in &marked {
            dcfg.push(&mut reference, s);
        }
        let want = dcfg.finish(&mut reference);

        for cut in [1usize, 300, 1500, 2999] {
            let mut first = dcfg.new_session();
            for &s in &marked[..cut] {
                dcfg.push(&mut first, s);
            }
            let bytes = first.snapshot(&dcfg);
            let mut resumed = DetectSession::restore(&dcfg, &bytes).unwrap();
            for &s in &marked[cut..] {
                dcfg.push(&mut resumed, s);
            }
            assert_eq!(dcfg.finish(&mut resumed), want, "cut {cut}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_scheme_fingerprint() {
        let cfg = config();
        let mut sess = cfg.new_session();
        let mut out = Vec::new();
        for &s in &stream(500) {
            cfg.push_into(&mut sess, s, &mut out);
        }
        let bytes = sess.snapshot(&cfg);

        // Same parameters, different key: fingerprints differ.
        let p = cfg.scheme().params;
        let other_scheme = Scheme::new(p, KeyedHash::md5(Key::from_u64(78))).unwrap();
        let other = EmbedConfig::new(
            other_scheme,
            Arc::new(InitialEncoder),
            Watermark::single(true),
        )
        .unwrap();
        let err = EmbedSession::restore(&other, &bytes).err().unwrap();
        assert!(
            matches!(err, crate::CheckpointError::FingerprintMismatch { expected, found }
                if expected != found),
            "{err:?}"
        );
    }

    #[test]
    fn restore_rejects_wrong_kind_and_corruption() {
        let cfg = config();
        let sess = cfg.new_session();
        let bytes = sess.snapshot(&cfg);

        // An embed snapshot is not a detect snapshot.
        let dcfg =
            DetectConfig::new(cfg.scheme().clone(), Arc::new(InitialEncoder), 1, 1.0).unwrap();
        assert!(matches!(
            DetectSession::restore(&dcfg, &bytes).err().unwrap(),
            crate::CheckpointError::WrongKind { .. }
        ));

        // Any truncation fails loudly, never panics.
        for cut in [0usize, 3, 7, bytes.len() - 1] {
            assert!(
                EmbedSession::restore(&cfg, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }

        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            EmbedSession::restore(&cfg, &padded).err().unwrap(),
            crate::CheckpointError::TrailingBytes
        );

        // A future format version is refused, not misparsed.
        let mut vnext = bytes;
        vnext[4] = 0xFF; // version little-endian low byte
        assert!(matches!(
            EmbedSession::restore(&cfg, &vnext).err().unwrap(),
            crate::CheckpointError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn detect_session_roundtrip() {
        let cfg = config();
        let input = stream(3000);
        let mut sess = cfg.new_session();
        let mut marked = Vec::new();
        for &s in &input {
            cfg.push_into(&mut sess, s, &mut marked);
        }
        cfg.finish_into(&mut sess, &mut marked);

        let dcfg =
            DetectConfig::new(cfg.scheme().clone(), Arc::new(InitialEncoder), 1, 1.0).unwrap();
        let mut d = dcfg.new_session();
        for &s in &marked {
            dcfg.push(&mut d, s);
        }
        let report = dcfg.finish(&mut d);
        assert!(d.is_finished());
        assert!(report.bias() > 0, "bias {}", report.bias());
    }
}
