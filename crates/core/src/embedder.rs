//! Single-pass watermark embedding (§3.2 with the §4.1–§4.4 improvements).
//!
//! The embedder owns a bounded [`SlidingWindow`](wms_stream::SlidingWindow)
//! and processes the stream strictly once: samples go in, (occasionally
//! altered) samples come out, never reordered, never buffered beyond `$`
//! items. Whenever the window fills (and once more at end of stream) the
//! resident data is scanned for major extremes; each one advances the
//! labeler, passes through the selection criterion, and — if selected —
//! has one watermark bit embedded into its characteristic subset by the
//! configured [`SubsetEncoder`], subject to the quality constraints
//! (violations roll back through the undo log).
//!
//! [`Embedder`] is the single-stream convenience wrapper; the algorithm
//! itself lives in [`crate::session`] as an [`EmbedConfig`] (immutable,
//! shareable) driving an [`EmbedSession`] (per-stream state), which is
//! what the multi-stream engine uses directly.

use crate::encoding::SubsetEncoder;
use crate::quality::QualityConstraint;
use crate::scheme::Scheme;
use crate::session::{EmbedConfig, EmbedSession};
use crate::watermark::Watermark;
use std::sync::Arc;
use wms_stream::Sample;

/// Counters describing one embedding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmbedStats {
    /// Samples consumed.
    pub items_in: u64,
    /// Samples emitted (equals `items_in` after `finish`).
    pub items_out: u64,
    /// Extremes encountered during window scans.
    pub extremes_seen: u64,
    /// Major extremes (degree ν) encountered.
    pub majors_seen: u64,
    /// Major extremes skipped during labeler warm-up.
    pub warmup_skipped: u64,
    /// Major extremes passing the selection criterion.
    pub selected: u64,
    /// Bits successfully embedded.
    pub embedded: u64,
    /// Selected extremes the encoder could not encode within budget.
    pub skipped_encoding: u64,
    /// Embeddings rolled back by quality constraints.
    pub skipped_quality: u64,
    /// Total encoder search iterations.
    pub total_iterations: u64,
    /// Sum of characteristic-subset sizes over majors (pre-trim).
    pub subset_size_sum: u64,
}

impl EmbedStats {
    /// Measured ξ(ν, δ): items per major extreme.
    pub fn xi(&self) -> Option<f64> {
        if self.majors_seen == 0 {
            None
        } else {
            Some(self.items_in as f64 / self.majors_seen as f64)
        }
    }

    /// Average characteristic-subset size of the majors.
    pub fn avg_subset_size(&self) -> Option<f64> {
        if self.majors_seen == 0 {
            None
        } else {
            Some(self.subset_size_sum as f64 / self.majors_seen as f64)
        }
    }

    /// Mean encoder iterations per embedded bit.
    pub fn iterations_per_embedding(&self) -> Option<f64> {
        if self.embedded == 0 {
            None
        } else {
            Some(self.total_iterations as f64 / self.embedded as f64)
        }
    }
}

/// Streaming watermark embedder: one [`EmbedConfig`] driving one
/// [`EmbedSession`].
pub struct Embedder {
    config: EmbedConfig,
    session: EmbedSession,
}

impl Embedder {
    /// Creates an embedder; fails if the parameters cannot address the
    /// watermark (θ ≤ b(wm)) or are otherwise invalid.
    pub fn new(
        scheme: Scheme,
        encoder: Arc<dyn SubsetEncoder>,
        wm: Watermark,
    ) -> Result<Self, String> {
        let config = EmbedConfig::new(scheme, encoder, wm)?;
        let session = config.new_session();
        Ok(Embedder { config, session })
    }

    /// Adds a quality constraint (builder style).
    pub fn with_constraint(mut self, c: impl QualityConstraint + 'static) -> Self {
        self.config = self.config.with_constraint(c);
        self
    }

    /// Run counters so far.
    pub fn stats(&self) -> &EmbedStats {
        self.session.stats()
    }

    /// The configured scheme.
    pub fn scheme(&self) -> &Scheme {
        self.config.scheme()
    }

    /// The shared configuration / per-stream state, consumed. A
    /// multi-stream caller can keep the config behind an `Arc` and attach
    /// fresh sessions to it (see [`crate::session`]).
    pub fn into_parts(self) -> (EmbedConfig, EmbedSession) {
        (self.config, self.session)
    }

    /// Feeds one sample, appending any samples leaving the window to
    /// `out` (which is *not* cleared). The steady-state per-item path:
    /// no allocation happens here beyond `out`'s own growth.
    pub fn push_into(&mut self, s: Sample, out: &mut Vec<Sample>) {
        self.config.push_into(&mut self.session, s, out);
    }

    /// Flushes the stream end, appending the residual samples to `out`.
    pub fn finish_into(&mut self, out: &mut Vec<Sample>) {
        self.config.finish_into(&mut self.session, out);
    }

    /// Convenience: embeds into an in-memory stream in one call. Reserves
    /// the output once and drives the buffer-reusing push path.
    pub fn embed_stream(
        scheme: Scheme,
        encoder: Arc<dyn SubsetEncoder>,
        wm: Watermark,
        input: &[Sample],
    ) -> Result<(Vec<Sample>, EmbedStats), String> {
        let mut e = Embedder::new(scheme, encoder, wm)?;
        let mut out = Vec::with_capacity(input.len());
        for &s in input {
            e.push_into(s, &mut out);
        }
        e.finish_into(&mut out);
        Ok((out, *e.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::initial::InitialEncoder;
    use crate::encoding::multihash::MultiHashEncoder;
    use crate::params::WmParams;
    use crate::quality::MaxItemChange;
    use wms_crypto::{Key, KeyedHash};
    use wms_stream::samples_from_values;

    fn test_params() -> WmParams {
        WmParams {
            window: 256,
            degree: 3,
            radius: 0.01,
            max_subset: 4,
            label_len: 4,
            label_stride: 1,
            ..WmParams::default()
        }
    }

    fn scheme(p: WmParams) -> Scheme {
        Scheme::new(p, KeyedHash::md5(Key::from_u64(1234))).unwrap()
    }

    /// A smooth oscillating normalized stream with fat extremes.
    fn test_stream(n: usize) -> Vec<Sample> {
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
    fn preserves_stream_shape() {
        let (out, stats) = Embedder::embed_stream(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
            &test_stream(2000),
        )
        .unwrap();
        assert_eq!(out.len(), 2000);
        assert_eq!(stats.items_in, 2000);
        assert_eq!(stats.items_out, 2000);
        // Order and provenance intact.
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.span.start, i as u64);
        }
    }

    #[test]
    fn embeds_into_selected_majors() {
        let (_, stats) = Embedder::embed_stream(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
            &test_stream(3000),
        )
        .unwrap();
        assert!(stats.majors_seen > 10, "{stats:?}");
        assert!(stats.selected > 0, "{stats:?}");
        assert!(stats.embedded > 0, "{stats:?}");
        assert!(stats.embedded <= stats.selected);
        let xi = stats.xi().unwrap();
        assert!((10.0..200.0).contains(&xi), "xi {xi}");
    }

    #[test]
    fn alterations_are_small() {
        let input = test_stream(2000);
        let (out, stats) = Embedder::embed_stream(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
            &input,
        )
        .unwrap();
        assert!(stats.embedded > 0);
        let mut max_change = 0.0f64;
        for (a, b) in out.iter().zip(&input) {
            max_change = max_change.max((a.value - b.value).abs());
        }
        // Initial encoding harmonizes within δ of the extreme.
        assert!(max_change <= 0.011, "max change {max_change}");
        assert!(max_change > 0.0, "something must have changed");
    }

    #[test]
    fn multihash_embedding_runs() {
        let p = WmParams {
            min_active: Some(4),
            ..test_params()
        };
        let (_, stats) = Embedder::embed_stream(
            scheme(p),
            Arc::new(MultiHashEncoder),
            Watermark::single(true),
            &test_stream(2000),
        )
        .unwrap();
        assert!(stats.embedded > 0, "{stats:?}");
        assert!(stats.total_iterations >= stats.embedded);
    }

    #[test]
    fn quality_constraint_rolls_back() {
        let input = test_stream(2000);
        let s = scheme(test_params());
        let strict = Embedder::new(s.clone(), Arc::new(InitialEncoder), Watermark::single(true))
            .unwrap()
            .with_constraint(MaxItemChange { max: 0.0 }); // nothing allowed
        let mut e = strict;
        let mut out = Vec::new();
        for &smp in &input {
            e.push_into(smp, &mut out);
        }
        e.finish_into(&mut out);
        assert_eq!(e.stats().embedded, 0);
        assert!(e.stats().skipped_quality > 0);
        // Stream is bit-identical to the input — rollback worked.
        for (a, b) in out.iter().zip(&input) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn permissive_constraint_does_not_block() {
        let (_, stats_free) = Embedder::embed_stream(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
            &test_stream(2000),
        )
        .unwrap();
        let s = scheme(test_params());
        let mut e = Embedder::new(s, Arc::new(InitialEncoder), Watermark::single(true))
            .unwrap()
            .with_constraint(MaxItemChange { max: 1.0 });
        let input = test_stream(2000);
        let mut out = Vec::new();
        for &smp in &input {
            e.push_into(smp, &mut out);
        }
        e.finish_into(&mut out);
        assert_eq!(e.stats().embedded, stats_free.embedded);
        assert_eq!(e.stats().skipped_quality, 0);
    }

    #[test]
    fn theta_must_exceed_watermark_length() {
        let p = WmParams {
            selection_modulus: 4,
            ..test_params()
        };
        let err = Embedder::new(
            scheme_unchecked(p),
            Arc::new(InitialEncoder),
            Watermark::from_bits(vec![true; 8]),
        );
        assert!(err.is_err());
    }

    fn scheme_unchecked(p: WmParams) -> Scheme {
        Scheme::new(p, KeyedHash::md5(Key::from_u64(0))).unwrap()
    }

    #[test]
    fn larger_theta_selects_fewer() {
        let mk = |theta: u64| {
            let p = WmParams {
                selection_modulus: theta,
                ..test_params()
            };
            Embedder::embed_stream(
                scheme(p),
                Arc::new(InitialEncoder),
                Watermark::single(true),
                &test_stream(4000),
            )
            .unwrap()
            .1
        };
        let dense = mk(2);
        let sparse = mk(16);
        assert!(
            sparse.selected < dense.selected,
            "θ=16 should select fewer: {} vs {}",
            sparse.selected,
            dense.selected
        );
    }

    #[test]
    #[should_panic(expected = "push after finish")]
    fn push_after_finish_panics() {
        let mut e = Embedder::new(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
        )
        .unwrap();
        let mut out = Vec::new();
        e.finish_into(&mut out);
        e.push_into(Sample::new(0, 0.0), &mut out);
    }

    #[test]
    fn stats_conservation() {
        let mut e = Embedder::new(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
        )
        .unwrap();
        let input = test_stream(1000);
        let mut out = Vec::new();
        for &s in &input {
            e.push_into(s, &mut out);
        }
        e.finish_into(&mut out);
        assert_eq!(out.len(), 1000);
        assert_eq!(e.stats().items_in, 1000);
        assert_eq!(e.stats().items_out, 1000);
    }

    #[test]
    fn into_parts_resumes_nothing_but_exposes_state() {
        let e = Embedder::new(
            scheme(test_params()),
            Arc::new(InitialEncoder),
            Watermark::single(true),
        )
        .unwrap();
        let (config, session) = e.into_parts();
        assert_eq!(session.stats().items_in, 0);
        assert!(!session.is_finished());
        assert_eq!(config.watermark().len(), 1);
    }
}
