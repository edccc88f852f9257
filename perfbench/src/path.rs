//! The two end-to-end paths, run in-process: what `wms engine` and
//! `wms daemon` compute, rebuilt from the library's public functions.
//!
//! Driven by the reference `EmbedConfig::push_into` this is the per-seed
//! reference output (engine ≡ sequential: one session per stream, fed in
//! the engine's first-touch order). Driven by the step-wise
//! [`StepDriver`](crate::replay::StepDriver) under an active tracer it is
//! the traced run.

use crate::trace::Tracer;
use crate::workloads::{PathKind, StreamResult, Workload};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{DetectConfig, EmbedConfig, EmbedSession, EmbedStats, Scheme, Watermark};
use wms_crypto::{Key, KeyedHash};
use wms_daemon::proto::{batch_frame, decode_batch_into, frame_type, FrameDecoder};
use wms_engine::{Event, StreamId};
use wms_stream::{csv, Normalizer, Sample};

/// Something that embeds one stream sample by sample.
pub trait EmbedDriver {
    type Session;
    fn new_session(&self) -> Self::Session;
    fn push(&self, s: &mut Self::Session, x: Sample, out: &mut Vec<Sample>, t: &mut Tracer);
    fn finish(&self, s: &mut Self::Session, out: &mut Vec<Sample>, t: &mut Tracer);
    fn stats(&self, s: &Self::Session) -> EmbedStats;
}

/// The reference driver: the library's own per-item entry point.
impl EmbedDriver for EmbedConfig {
    type Session = EmbedSession;

    fn new_session(&self) -> EmbedSession {
        EmbedConfig::new_session(self)
    }

    fn push(&self, s: &mut EmbedSession, x: Sample, out: &mut Vec<Sample>, _: &mut Tracer) {
        self.push_into(s, x, out);
    }

    fn finish(&self, s: &mut EmbedSession, out: &mut Vec<Sample>, _: &mut Tracer) {
        self.finish_into(s, out);
    }

    fn stats(&self, s: &EmbedSession) -> EmbedStats {
        *s.stats()
    }
}

/// The workload's scheme (the CLI's MD5 keyed hash over `--key`).
pub fn scheme(wl: &Workload) -> Scheme {
    Scheme::new(wl.scheme.params(), KeyedHash::md5(Key::from_u64(wl.key))).expect("valid scheme")
}

/// The workload's single-bit multi-hash embedding config.
pub fn embed_config(wl: &Workload) -> Arc<EmbedConfig> {
    Arc::new(
        EmbedConfig::new(
            scheme(wl),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
        )
        .expect("valid embed config"),
    )
}

/// The workload's single-bit detection config (χ = 1, as the CLI's
/// verification pass).
pub fn detect_config(wl: &Workload) -> DetectConfig {
    DetectConfig::new(scheme(wl), Arc::new(MultiHashEncoder), 1, 1.0).expect("valid detect config")
}

/// One in-process run of a path.
pub struct PathRun {
    /// The output file's bytes.
    pub output: Vec<u8>,
    /// Per-stream embedding counters and detection bias, registration
    /// order.
    pub results: Vec<StreamResult>,
    /// wmsd-*: in-process nanoseconds per WMSP batch (decode, embed,
    /// output rows), in schedule order.
    pub batch_ns: Vec<u64>,
}

/// The embedding pass shared by both paths: sessions registered on first
/// touch, each batch's events handed to their stream's session in the
/// engine's first-touch order, output rows formatted as the CLI does.
struct EmbedPass<'a, D: EmbedDriver> {
    driver: &'a D,
    pos: HashMap<u64, usize>,
    ids: Vec<StreamId>,
    sessions: Vec<D::Session>,
    normalizers: Option<&'a HashMap<u64, Normalizer>>,
    pending: Vec<Vec<Sample>>,
    touched: Vec<usize>,
    emitted: Vec<Sample>,
    text: Vec<u8>,
}

impl<'a, D: EmbedDriver> EmbedPass<'a, D> {
    fn new(driver: &'a D, normalizers: Option<&'a HashMap<u64, Normalizer>>) -> Self {
        EmbedPass {
            driver,
            pos: HashMap::new(),
            ids: Vec::new(),
            sessions: Vec::new(),
            normalizers,
            pending: Vec::new(),
            touched: Vec::new(),
            emitted: Vec::new(),
            text: b"# stream,value\n".to_vec(),
        }
    }

    fn write_rows(&mut self, p: usize, t: &mut Tracer) {
        t.enter("stream.csv.write");
        let id = self.ids[p];
        match self.normalizers {
            Some(ns) => {
                let n = &ns[&id.0];
                for s in &self.emitted {
                    writeln!(self.text, "{id},{}", n.denormalize(s.value)).expect("vec write");
                }
            }
            None => {
                for s in &self.emitted {
                    writeln!(self.text, "{id},{}", s.value).expect("vec write");
                }
            }
        }
        self.emitted.clear();
        t.exit();
    }

    fn batch(&mut self, events: &[Event], t: &mut Tracer) {
        for e in events {
            let p = match self.pos.get(&e.stream.0) {
                Some(&p) => p,
                None => {
                    let p = self.ids.len();
                    self.pos.insert(e.stream.0, p);
                    self.ids.push(e.stream);
                    self.sessions.push(self.driver.new_session());
                    self.pending.push(Vec::new());
                    p
                }
            };
            if self.pending[p].is_empty() {
                self.touched.push(p);
            }
            self.pending[p].push(e.sample);
        }
        let touched = std::mem::take(&mut self.touched);
        for &p in &touched {
            t.enter("stream.window");
            for &s in &self.pending[p] {
                self.driver
                    .push(&mut self.sessions[p], s, &mut self.emitted, t);
            }
            t.exit();
            self.pending[p].clear();
            self.write_rows(p, t);
        }
        self.touched = touched;
        self.touched.clear();
    }

    /// Flushes every stream in registration order; returns the output
    /// bytes, the stream order and each stream's counters.
    fn finish(mut self, t: &mut Tracer) -> (Vec<u8>, Vec<StreamId>, Vec<EmbedStats>) {
        let mut stats = Vec::with_capacity(self.ids.len());
        for p in 0..self.ids.len() {
            t.enter("stream.window");
            self.driver
                .finish(&mut self.sessions[p], &mut self.emitted, t);
            t.exit();
            self.write_rows(p, t);
            stats.push(self.driver.stats(&self.sessions[p]));
        }
        (self.text, self.ids, stats)
    }
}

/// Fits one min-max normalizer per stream, as `wms engine --normalize
/// fit` does.
pub fn fit_normalizers(events: &[Event]) -> HashMap<u64, Normalizer> {
    let mut values: HashMap<u64, Vec<f64>> = HashMap::new();
    for e in events {
        values.entry(e.stream.0).or_default().push(e.sample.value);
    }
    values
        .into_iter()
        .map(|(id, v)| {
            let n = Normalizer::fit(&v)
                .filter(|n| n.scale() != 0.0)
                .expect("generated streams are not constant");
            (id, n)
        })
        .collect()
}

pub fn normalized(events: &[Event], ns: Option<&HashMap<u64, Normalizer>>) -> Vec<Event> {
    match ns {
        Some(ns) => events
            .iter()
            .map(|e| {
                let n = &ns[&e.stream.0];
                Event::new(e.stream, e.sample.with_value(n.normalize(e.sample.value)))
            })
            .collect(),
        None => events.to_vec(),
    }
}

/// The verification pass both commands end with: re-read the output
/// file, re-normalize with the embed-time maps, detect per stream.
fn verify(
    wl: &Workload,
    out_path: &Path,
    order: &[StreamId],
    stats: Vec<EmbedStats>,
    ns: Option<&HashMap<u64, Normalizer>>,
    t: &mut Tracer,
) -> std::io::Result<Vec<StreamResult>> {
    let reread = t.span("stream.csv.read", |_| csv::read_events(out_path))?;
    let marked = t.span("stream.normalize", |_| normalized(&reread, ns));
    let detect = detect_config(wl);
    t.enter("core.detect");
    let pos: HashMap<u64, usize> = order.iter().enumerate().map(|(p, id)| (id.0, p)).collect();
    let mut sessions: Vec<_> = order.iter().map(|_| detect.new_session()).collect();
    for e in &marked {
        detect.push(&mut sessions[pos[&e.stream.0]], e.sample);
    }
    let reports: Vec<_> = sessions.iter_mut().map(|s| detect.finish(s)).collect();
    t.exit();
    Ok(order
        .iter()
        .zip(stats)
        .zip(reports)
        .map(|((&stream, stats), r)| StreamResult {
            stream,
            stats,
            bias: r.bias(),
        })
        .collect())
}

/// Runs the workload's path in-process, writing the output to
/// `out_path`. csv-* read their input from `input`.
pub fn run<D: EmbedDriver>(
    wl: &Workload,
    driver: &D,
    input: &Path,
    out_path: &Path,
    t: &mut Tracer,
) -> std::io::Result<PathRun> {
    match wl.kind {
        PathKind::Csv => csv_path(wl, driver, input, out_path, t),
        PathKind::Wmsd => wmsd_path(wl, driver, out_path, t),
    }
}

fn csv_path<D: EmbedDriver>(
    wl: &Workload,
    driver: &D,
    input: &Path,
    out_path: &Path,
    t: &mut Tracer,
) -> std::io::Result<PathRun> {
    let raw = t.span("stream.csv.read", |_| csv::read_events(input))?;
    let (ns, events) = t.span("stream.normalize", |_| {
        let ns = wl.normalize.then(|| fit_normalizers(&raw));
        let events = normalized(&raw, ns.as_ref());
        (ns, events)
    });
    let mut pass = EmbedPass::new(driver, ns.as_ref());
    for chunk in events.chunks(wl.batch) {
        pass.batch(chunk, t);
    }
    let (text, order, stats) = pass.finish(t);
    t.span("stream.csv.write", |_| std::fs::write(out_path, &text))?;
    let results = verify(wl, out_path, &order, stats, ns.as_ref(), t)?;
    Ok(PathRun {
        output: text,
        results,
        batch_ns: Vec::new(),
    })
}

fn wmsd_path<D: EmbedDriver>(
    wl: &Workload,
    driver: &D,
    out_path: &Path,
    t: &mut Tracer,
) -> std::io::Result<PathRun> {
    let mut pass = EmbedPass::new(driver, None);
    let mut decoder = FrameDecoder::new();
    let mut decoded: Vec<Event> = Vec::with_capacity(wl.batch);
    let mut batch_ns = Vec::new();
    for (i, chunk) in wl.events.chunks(wl.batch).enumerate() {
        let frame = t.span("daemon.proto.encode", |_| batch_frame(i as u64 + 1, chunk));
        // The load generator pre-encodes its frames, so the daemon's
        // per-batch work starts at decode.
        let started = Instant::now();
        t.enter("daemon.proto.decode");
        decoder.push(&frame);
        let raw = decoder
            .try_raw()
            .expect("own frame decodes")
            .expect("whole frame buffered");
        assert_eq!(raw.ty, frame_type::BATCH);
        let seq = decode_batch_into(&raw.payload, &mut decoded).expect("own batch decodes");
        t.exit();
        assert_eq!(seq, i as u64 + 1);
        pass.batch(&decoded, t);
        batch_ns.push(started.elapsed().as_nanos() as u64);
    }
    let (text, order, stats) = pass.finish(t);
    t.span("stream.csv.write", |_| std::fs::write(out_path, &text))?;
    let results = verify(wl, out_path, &order, stats, None, t)?;
    Ok(PathRun {
        output: text,
        results,
        batch_ns,
    })
}
