//! The multi-hash encoding (§4.3) — the paper's main convention.
//!
//! For a characteristic subset {x₁ … x_a}, consider every contiguous
//! average `m_ij = mean(x_i..x_j)` (including the items themselves,
//! `m_ii`). A bit `true` is embedded iff **every** m_ij satisfies
//! `lsb(H(lsb(m_ij, γ) ; label(ε), k1), τ) = 2^τ − 1`, and `false` iff
//! every code is `0`.
//!
//! * Summarization survival: a summarization chunk lying inside the
//!   subset *is* one of the m_ij (averaging commutes — see
//!   `FixedPointCodec::quantize_mean`), so its code still classifies.
//! * Bias-detection resistance: the alterations produced by the search
//!   look random; there is no fixed biased bit position for Mallory's
//!   §4.3 attack to find.
//!
//! The embedding is a search: re-randomize the γ least-significant bits of
//! the subset until the convention holds. Expected cost is `2^(τ·a(a+1)/2)`
//! candidates (§5; Figure 11a) — hence the `max_subset` cap and the
//! `min_active` computation-reducing variant, which stops once a required
//! number of m_ij ("active" averages) satisfy the convention.
//!
//! **Choosing `min_active`**: on *unwatermarked* data about half of the
//! `N = a(a+1)/2` averages satisfy either convention by chance, so a
//! requirement at or below `N/2` is met by the very first candidate and
//! embeds nothing. A useful reduced setting must sit well above the
//! binomial noise floor — `min_active ≥ ⌈3N/4⌉` is a sensible minimum
//! (the paper frames this as trading computation for resilience).
//!
//! **Search schedule.** Candidate 0 is the input; candidate k > 0 draws
//! one RNG word per item, in order, and replaces each item's γ LSBs. A
//! candidate's codes are checked in (i, j) order, and it is decided by
//! the early-exit rule: accepted once `required` codes carry the bit,
//! rejected once too few unchecked codes remain to get there. Codes are
//! hashed eight at a time ([`CodeTable::classify_batch`]), and one
//! batch carries codes of several candidates in flight:
//!
//! * a candidate that one more failing code would reject takes one lane
//!   per batch. Under the full convention that is every live candidate,
//!   and it is rejected after about `2^τ / (2^τ − 1)` codes, so eight
//!   codes of one candidate would mostly be hashed past its decision;
//! * any other candidate takes all of its remaining pairs;
//! * spare lanes open the next candidate.
//!
//! Nothing is opened at or past the lowest candidate known to succeed,
//! and the search returns that candidate once every lower one is
//! decided. A candidate's outcome depends only on its own values, and
//! candidates draw the RNG in index order, so the values and
//! `iterations` equal those of a one-candidate-at-a-time search.
//!
//! [`CodeTable::classify_batch`]: crate::codetable::CodeTable::classify_batch

use super::{EmbedResult, EncoderScratch, SubsetEncoder, Vote};
use crate::labeling::Label;
use crate::scheme::Scheme;
use wms_math::DetRng;

/// §4.3's encoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiHashEncoder;

/// MD5 lanes per search batch (`CodeTable::classify_batch::<LANES>`).
const LANES: usize = 8;

/// Fills `prefix` (`values.len() + 1` long) with running sums of `values`
/// (`prefix[0] = 0`), the basis for O(1) contiguous-range means.
fn fill_prefix_sums(prefix: &mut [f64], values: &[f64]) {
    let mut acc = 0.0f64;
    prefix[0] = acc;
    for (p, &v) in prefix[1..].iter_mut().zip(values) {
        acc += v;
        *p = acc;
    }
}

/// A search candidate in flight. Its values and prefix sums occupy slot
/// `slot` of [`EncoderScratch::inflight`] and [`EncoderScratch::prefix`].
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    /// Candidate index (the input is 0); `iterations` is `index + 1`.
    index: u64,
    slot: usize,
    /// Next pair (i, j) to hash.
    i: usize,
    j: usize,
    /// Codes classified so far, and how many of them carry the bit.
    checked: usize,
    satisfied: usize,
    decided: bool,
}

impl MultiHashEncoder {
    /// Number of m_ij averages for a subset of `a` items.
    pub fn pair_count(a: usize) -> usize {
        a * (a + 1) / 2
    }
}

impl SubsetEncoder for MultiHashEncoder {
    fn embed(
        &self,
        scheme: &Scheme,
        values: &[f64],
        extreme_offset: usize,
        label: &Label,
        bit: bool,
    ) -> Option<EmbedResult> {
        let mut scratch = EncoderScratch::ephemeral();
        self.embed_with(scheme, &mut scratch, values, extreme_offset, label, bit)
    }

    fn detect(&self, scheme: &Scheme, values: &[f64], label: &Label) -> Vote {
        let mut scratch = EncoderScratch::ephemeral();
        self.detect_with(scheme, &mut scratch, values, label)
    }

    fn embed_with(
        &self,
        scheme: &Scheme,
        scratch: &mut EncoderScratch,
        values: &[f64],
        _extreme_offset: usize,
        label: &Label,
        bit: bool,
    ) -> Option<EmbedResult> {
        if values.is_empty() {
            return None;
        }
        let p = &scheme.params;
        let c = &scheme.codec;
        let a = values.len();
        let total = Self::pair_count(a);
        // `Scheme::new` rejects `min_active = 0`, so `required ≥ 1` and the
        // early-exit rule decides every candidate by its last pair.
        let required = p.min_active.map(|m| m.min(total)).unwrap_or(total);

        scratch.raws.clear();
        scratch.raws.extend(values.iter().map(|&v| c.quantize(v)));
        // Deterministic search randomness: derived from key + label, so
        // embedding is reproducible run-to-run.
        let seed = scheme.hash.hash_u64(&label.to_bytes());
        let mut rng = DetRng::seed_from_u64(seed);
        scratch.inflight.resize(LANES * a, 0.0);
        scratch.prefix.resize(LANES * (a + 1), 0.0);

        // Undecided candidates in index order. Each takes at least one
        // lane per batch, so at most `LANES` are ever live.
        let mut live = [Candidate::default(); LANES];
        let mut n_live = 0usize;
        let mut free_slots = (1u32 << LANES) - 1;
        let mut next = 0u64;
        // No candidate at or past `limit` is opened or kept: the budget,
        // then the index of the lowest success so far (in slot `best`).
        let mut limit = p.max_iterations;
        let mut best: Option<usize> = None;
        loop {
            if n_live == 0 && next >= limit {
                return best.map(|slot| EmbedResult {
                    values: scratch.inflight[slot * a..][..a].to_vec(),
                    iterations: limit + 1,
                });
            }
            let mut raws = [0i64; LANES];
            let mut owner = [0usize; LANES];
            let mut n = 0usize;
            let mut k = 0usize;
            while n < LANES && (k < n_live || next < limit) {
                if k == n_live {
                    let slot = free_slots.trailing_zeros() as usize;
                    free_slots &= !(1 << slot);
                    let vals = &mut scratch.inflight[slot * a..][..a];
                    if next == 0 {
                        vals.copy_from_slice(values);
                    } else {
                        for (v, &raw) in vals.iter_mut().zip(&scratch.raws) {
                            let pattern = rng.next_u64();
                            *v = c.dequantize(c.replace_lsb(raw, p.lsb_bits, pattern));
                        }
                    }
                    fill_prefix_sums(&mut scratch.prefix[slot * (a + 1)..][..a + 1], vals);
                    live[n_live] = Candidate {
                        index: next,
                        slot,
                        ..Candidate::default()
                    };
                    n_live += 1;
                    next += 1;
                }
                let cand = &mut live[k];
                let remaining = total - cand.checked;
                let take = if cand.satisfied + remaining == required {
                    1
                } else {
                    remaining.min(LANES - n)
                };
                let prefix = &scratch.prefix[cand.slot * (a + 1)..][..a + 1];
                for _ in 0..take {
                    let (i, j) = (cand.i, cand.j);
                    raws[n] = c.quantize((prefix[j + 1] - prefix[i]) / (j - i + 1) as f64);
                    owner[n] = k;
                    n += 1;
                    (cand.i, cand.j) = if j + 1 < a {
                        (i, j + 1)
                    } else {
                        (i + 1, i + 1)
                    };
                }
                k += 1;
            }
            let classes = scratch
                .codes
                .classify_batch::<LANES>(scheme, label, &raws[..n]);
            // Lanes past a candidate's decision are discarded.
            for (&class, &k) in classes.iter().zip(&owner).take(n) {
                let cand = &mut live[k];
                if cand.decided {
                    continue;
                }
                cand.checked += 1;
                if class == Some(bit) {
                    cand.satisfied += 1;
                    if cand.satisfied >= required {
                        cand.decided = true;
                        if cand.index < limit {
                            limit = cand.index;
                            best = Some(cand.slot);
                        }
                    }
                } else if cand.satisfied + (total - cand.checked) < required {
                    cand.decided = true;
                }
            }
            // Retire decided candidates and any above the best success.
            // Nothing opens once a success is known, so the best's freed
            // slot is never overwritten.
            let mut kept = 0;
            for k in 0..n_live {
                let cand = live[k];
                if cand.decided || cand.index >= limit {
                    free_slots |= 1 << cand.slot;
                } else {
                    live[kept] = cand;
                    kept += 1;
                }
            }
            n_live = kept;
        }
    }

    fn detect_with(
        &self,
        scheme: &Scheme,
        scratch: &mut EncoderScratch,
        values: &[f64],
        label: &Label,
    ) -> Vote {
        let c = &scheme.codec;
        let a = values.len();
        // Singles first: the m_ii "averages" are the only candidates
        // guaranteed to survive *both* sampling (they are stream items)
        // and summarization (they are chunk averages), so when they reach
        // a majority on their own they decide the verdict. Multi-item
        // averages refine the decision only when the singles tie.
        let mut singles = Vote::empty();
        for &v in values {
            if let Some(b) = scratch.codes.classify(scheme, label, c.quantize(v)) {
                singles.add(b);
            }
        }
        if singles.verdict().is_some() {
            return singles;
        }
        let mut vote = singles;
        scratch.prefix.resize(a + 1, 0.0);
        fill_prefix_sums(&mut scratch.prefix, values);
        for i in 0..a {
            for j in (i + 1)..a {
                let mean = (scratch.prefix[j + 1] - scratch.prefix[i]) / (j - i + 1) as f64;
                if let Some(b) = scratch.codes.classify(scheme, label, c.quantize(mean)) {
                    vote.add(b);
                }
            }
        }
        vote
    }

    fn name(&self) -> &'static str {
        "multi-hash"
    }
}

/// Ablation variant of [`MultiHashEncoder`]: identical embedding, but
/// detection aggregates a flat majority over **all** m_ij averages instead
/// of weighing the m_ii singles first. Kept to measure the design choice
/// (see DESIGN.md §3.9 and the `ablation_verdict` experiment): under
/// sampling/summarization the multi-item averages are mostly noise, so the
/// flat majority dilutes the surviving singles.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiHashFlatMajority;

impl SubsetEncoder for MultiHashFlatMajority {
    fn embed(
        &self,
        scheme: &Scheme,
        values: &[f64],
        extreme_offset: usize,
        label: &Label,
        bit: bool,
    ) -> Option<EmbedResult> {
        MultiHashEncoder.embed(scheme, values, extreme_offset, label, bit)
    }

    fn detect(&self, scheme: &Scheme, values: &[f64], label: &Label) -> Vote {
        let mut scratch = EncoderScratch::ephemeral();
        self.detect_with(scheme, &mut scratch, values, label)
    }

    fn embed_with(
        &self,
        scheme: &Scheme,
        scratch: &mut EncoderScratch,
        values: &[f64],
        extreme_offset: usize,
        label: &Label,
        bit: bool,
    ) -> Option<EmbedResult> {
        MultiHashEncoder.embed_with(scheme, scratch, values, extreme_offset, label, bit)
    }

    fn detect_with(
        &self,
        scheme: &Scheme,
        scratch: &mut EncoderScratch,
        values: &[f64],
        label: &Label,
    ) -> Vote {
        let c = &scheme.codec;
        let a = values.len();
        let mut vote = Vote::empty();
        scratch.prefix.resize(a + 1, 0.0);
        fill_prefix_sums(&mut scratch.prefix, values);
        for i in 0..a {
            for j in i..a {
                let mean = (scratch.prefix[j + 1] - scratch.prefix[i]) / (j - i + 1) as f64;
                if let Some(b) = scratch.codes.classify(scheme, label, c.quantize(mean)) {
                    vote.add(b);
                }
            }
        }
        vote
    }

    fn name(&self) -> &'static str {
        "multi-hash-flat-majority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WmParams;
    use wms_crypto::{Key, KeyedHash};

    fn scheme_with(params: WmParams) -> Scheme {
        Scheme::new(params, KeyedHash::md5(Key::from_u64(77))).unwrap()
    }

    fn scheme() -> Scheme {
        scheme_with(WmParams::default())
    }

    fn label() -> Label {
        Label::from_parts(0b1_1010_0110, 9)
    }

    fn subset() -> Vec<f64> {
        vec![0.2811, 0.2856, 0.2901, 0.2877, 0.2832]
    }

    #[test]
    fn pair_count_formula() {
        assert_eq!(MultiHashEncoder::pair_count(1), 1);
        assert_eq!(MultiHashEncoder::pair_count(5), 15);
        assert_eq!(MultiHashEncoder::pair_count(6), 21);
    }

    #[test]
    fn embed_then_detect_unanimous() {
        let s = scheme();
        let e = MultiHashEncoder;
        for bit in [true, false] {
            let r = e
                .embed(&s, &subset(), 2, &label(), bit)
                .expect("search succeeds");
            // Singles decide unanimously (they are m_ii averages and the
            // full convention covers them).
            let v = e.detect(&s, &r.values, &label());
            assert_eq!(v.total(), 5, "singles decide");
            let consistent = if bit { v.true_votes } else { v.false_votes };
            assert_eq!(consistent, 5, "all items must encode the bit");
            // And every multi-item average individually classifies to the
            // embedded bit as well — the full §4.3 convention.
            let c = &s.codec;
            for i in 0..r.values.len() {
                for j in i..r.values.len() {
                    let mean = r.values[i..=j].iter().sum::<f64>() / (j - i + 1) as f64;
                    let code = s.convention_code(c.quantize(mean), &label());
                    assert_eq!(s.classify_code(code), Some(bit), "m_{i}{j}");
                }
            }
        }
    }

    #[test]
    fn iterations_scale_matches_analysis() {
        // Expected candidates ≈ 2^(τ·a(a+1)/2) = 2^15 ≈ 32768 for a=5
        // (the paper's §4.3 worked example). Average over a few labels and
        // allow generous slack — it is a geometric distribution.
        let s = scheme();
        let e = MultiHashEncoder;
        let mut total = 0u64;
        let mut runs = 0u64;
        for l in 0..6u64 {
            let lab = Label::from_parts((1 << 8) | l, 9);
            if let Some(r) = e.embed(&s, &subset(), 2, &lab, true) {
                total += r.iterations;
                runs += 1;
            }
        }
        assert!(runs >= 4, "most searches should finish in budget");
        let mean = total as f64 / runs as f64;
        assert!(
            (1000.0..300_000.0).contains(&mean),
            "mean iterations {mean} should be near 2^15"
        );
    }

    #[test]
    fn min_active_reduces_cost() {
        let full = scheme();
        // 12 of 15 — above the binomial noise floor (see module docs).
        let reduced = scheme_with(WmParams {
            min_active: Some(12),
            ..WmParams::default()
        });
        let e = MultiHashEncoder;
        let rf = e.embed(&full, &subset(), 2, &label(), true).unwrap();
        let rr = e.embed(&reduced, &subset(), 2, &label(), true).unwrap();
        assert!(
            rr.iterations * 8 < rf.iterations,
            "min_active should slash the search: {} vs {}",
            rr.iterations,
            rf.iterations
        );
        // Reduced encoding still yields a clear verdict.
        let v = e.detect(&reduced, &rr.values, &label());
        assert_eq!(v.verdict(), Some(true));
    }

    #[test]
    fn alterations_confined_to_lsb_band() {
        let s = scheme();
        let vals = subset();
        let r = MultiHashEncoder
            .embed(&s, &vals, 2, &label(), true)
            .unwrap();
        let bound = 2f64.powi(-(32 - 16)); // γ=16 of B=32
        for (a, b) in r.values.iter().zip(&vals) {
            assert!(
                (a - b).abs() < bound,
                "alteration {} > {bound}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn survives_summarization_within_subset() {
        // Replace the subset by averages of aligned chunks: the chunk
        // means are m_ij values and must still vote for the bit.
        let p = WmParams {
            max_subset: 6,
            ..WmParams::default()
        };
        let s = scheme_with(p);
        let e = MultiHashEncoder;
        let vals = vec![0.301, 0.3055, 0.309, 0.3102, 0.3066, 0.3023];
        let r = e.embed(&s, &vals, 3, &label(), true).expect("a=6 search");
        for chunk in [2usize, 3] {
            let means: Vec<f64> = r
                .values
                .chunks(chunk)
                .map(|ch| ch.iter().sum::<f64>() / ch.len() as f64)
                .collect();
            let v = e.detect(&s, &means, &label());
            assert_eq!(v.verdict(), Some(true), "chunk={chunk}: {v:?}");
            assert_eq!(v.false_votes, 0, "aligned averages cannot disagree");
        }
    }

    #[test]
    fn survives_sampling_single_items() {
        let s = scheme();
        let r = MultiHashEncoder
            .embed(&s, &subset(), 2, &label(), true)
            .unwrap();
        for &v in &r.values {
            let vote = MultiHashEncoder.detect(&s, &[v], &label());
            assert_eq!(vote.verdict(), Some(true), "item {v} lost the bit");
        }
    }

    #[test]
    fn unwatermarked_votes_split_roughly_evenly() {
        let s = scheme();
        let mut rng = wms_math::DetRng::seed_from_u64(9);
        let mut t = 0u32;
        let mut n = 0u32;
        for _ in 0..300 {
            let vals: Vec<f64> = (0..4).map(|_| rng.uniform(-0.45, 0.45)).collect();
            let v = MultiHashEncoder.detect(&s, &vals, &label());
            t += v.true_votes;
            n += v.total();
        }
        let frac = t as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "true fraction {frac}");
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let p = WmParams {
            max_iterations: 4,
            ..WmParams::default()
        };
        let s = scheme_with(p);
        // 15 codes must all match with 4 candidates: astronomically
        // unlikely; expect None.
        assert!(MultiHashEncoder
            .embed(&s, &subset(), 2, &label(), true)
            .is_none());
    }

    #[test]
    fn deterministic_embedding() {
        let s = scheme();
        let a = MultiHashEncoder
            .embed(&s, &subset(), 2, &label(), true)
            .unwrap();
        let b = MultiHashEncoder
            .embed(&s, &subset(), 2, &label(), true)
            .unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn empty_subset_rejected() {
        assert!(MultiHashEncoder
            .embed(&scheme(), &[], 0, &label(), true)
            .is_none());
    }

    #[test]
    fn flat_majority_variant_agrees_on_clean_data() {
        let s = scheme();
        let r = MultiHashEncoder
            .embed(&s, &subset(), 2, &label(), true)
            .unwrap();
        let flat = MultiHashFlatMajority.detect(&s, &r.values, &label());
        assert_eq!(flat.verdict(), Some(true));
        assert_eq!(flat.total(), 15, "flat majority counts every m_ij");
        assert_eq!(flat.true_votes, 15);
        // Embedding is shared.
        let r2 = MultiHashFlatMajority
            .embed(&s, &subset(), 2, &label(), true)
            .unwrap();
        assert_eq!(r.values, r2.values);
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_oneshot() {
        // One scratch driven across many labels and both bit values must
        // reproduce the one-shot (non-memoized) API exactly — embeddings,
        // iteration counts, and votes.
        let s = scheme_with(WmParams {
            min_active: Some(12),
            ..WmParams::default()
        });
        let e = MultiHashEncoder;
        let mut scratch = EncoderScratch::new();
        for l in 0..8u64 {
            let lab = Label::from_parts((1 << 8) | l, 9);
            for bit in [true, false] {
                let one = e.embed(&s, &subset(), 2, &lab, bit);
                let reused = e.embed_with(&s, &mut scratch, &subset(), 2, &lab, bit);
                assert_eq!(one, reused, "label {l} bit {bit}");
                if let Some(r) = &one {
                    assert_eq!(
                        e.detect(&s, &r.values, &lab),
                        e.detect_with(&s, &mut scratch, &r.values, &lab)
                    );
                }
            }
        }
    }

    #[test]
    fn tau_two_codes_can_abstain() {
        // τ=2: of the four codes, 00 and 11 classify, 01 and 10 abstain —
        // about half of random inputs produce no vote.
        let s = scheme_with(WmParams {
            convention_bits: 2,
            ..WmParams::default()
        });
        let mut rng = wms_math::DetRng::seed_from_u64(11);
        let mut classified = 0u32;
        let n = 2000;
        for _ in 0..n {
            let raw = s.codec.quantize(rng.uniform(-0.45, 0.45));
            if s.classify_code(s.convention_code(raw, &label())).is_some() {
                classified += 1;
            }
        }
        let frac = classified as f64 / n as f64;
        assert!((0.4..0.6).contains(&frac), "classification fraction {frac}");
    }
}
