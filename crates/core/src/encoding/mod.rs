//! One-bit subset encodings.
//!
//! A [`SubsetEncoder`] embeds a single watermark bit into the values of a
//! characteristic subset and recovers votes for that bit from a (possibly
//! transformed) subset at detection time. Three conventions are provided:
//!
//! * [`initial::InitialEncoder`] — §3.2's bit-pattern scheme
//!   (`v[bit−1]=0, v[bit]=wm[i], v[bit+1]=0`): fastest, but its
//!   location/value correlation is what §4.1 set out to fix;
//! * [`multihash::MultiHashEncoder`] — §4.3's multi-hash convention over
//!   all m_ij subset averages: survives summarization by construction and
//!   looks random to Mallory;
//! * [`quadres::QuadResEncoder`] — the quadratic-residue alternative of
//!   §4.3/\[1\]: per-item encoding via residuosity mod a secret prime.

use crate::codetable::CodeTable;
use crate::labeling::Label;
use crate::scheme::Scheme;

pub mod initial;
pub mod multihash;
pub mod quadres;

/// Reusable hot-path state threaded through [`SubsetEncoder::embed_with`]
/// and [`SubsetEncoder::detect_with`]. Sessions do not own one: the
/// session layer keeps one per thread and lends it to whichever session
/// that thread is running (see [`crate::session`]), so the steady-state
/// encode path reuses a warm per-label code memo and performs no
/// per-call heap allocation for its working buffers. Reuse across
/// labels, sessions *and* schemes is safe: every memo layer is stamped
/// with the label and [`Scheme::memo_fingerprint`] it was derived under
/// and invalidates when a different one drives it.
#[derive(Debug, Default)]
pub struct EncoderScratch {
    /// Memoized convention-code classifications (multi-hash encodings).
    pub codes: CodeTable,
    /// Prefix sums for O(1) contiguous-range means: `a + 1` per
    /// multi-hash search candidate in flight, one run when detecting.
    pub prefix: Vec<f64>,
    /// Values of the multi-hash search's candidates in flight, `a` per
    /// slot (up to eight slots).
    pub inflight: Vec<f64>,
    /// Quantized-raws buffer.
    pub raws: Vec<i64>,
    /// Cached `bit_position(label)` for the initial encoding, stamped
    /// with the [`Scheme::memo_fingerprint`] it was derived under.
    bitpos: Option<(u64, Label, u32)>,
}

impl EncoderScratch {
    /// Scratch for a long-lived pipeline (code memoization enabled).
    pub fn new() -> Self {
        EncoderScratch::default()
    }

    /// One-shot scratch for the legacy [`SubsetEncoder::embed`] /
    /// [`SubsetEncoder::detect`] entry points: identical results, but no
    /// code-table memoization (a throwaway table would not amortize its
    /// allocation).
    pub fn ephemeral() -> Self {
        EncoderScratch {
            codes: CodeTable::disabled(),
            ..EncoderScratch::default()
        }
    }

    /// `scheme.bit_position(label)` memoized for the current label (and
    /// scheme — reusing one scratch across schemes invalidates cleanly).
    pub fn bit_position(&mut self, scheme: &Scheme, label: &Label) -> u32 {
        match self.bitpos {
            Some((fp, l, pos)) if fp == scheme.memo_fingerprint() && l == *label => pos,
            _ => {
                let pos = scheme.bit_position(label);
                self.bitpos = Some((scheme.memo_fingerprint(), *label, pos));
                pos
            }
        }
    }
}

/// Votes recovered from one characteristic subset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Vote {
    /// Votes for an embedded `true`.
    pub true_votes: u32,
    /// Votes for an embedded `false`.
    pub false_votes: u32,
}

impl Vote {
    /// No votes at all.
    pub fn empty() -> Self {
        Vote::default()
    }

    /// Adds one vote.
    pub fn add(&mut self, bit: bool) {
        if bit {
            self.true_votes += 1;
        } else {
            self.false_votes += 1;
        }
    }

    /// Majority verdict; `None` on ties (including no votes).
    pub fn verdict(&self) -> Option<bool> {
        use std::cmp::Ordering::*;
        match self.true_votes.cmp(&self.false_votes) {
            Greater => Some(true),
            Less => Some(false),
            Equal => None,
        }
    }

    /// Total vote count.
    pub fn total(&self) -> u32 {
        self.true_votes + self.false_votes
    }

    /// Merges another vote tally.
    pub fn merge(&mut self, other: Vote) {
        self.true_votes += other.true_votes;
        self.false_votes += other.false_votes;
    }
}

/// A successful embedding of one bit into one subset.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedResult {
    /// The altered subset values (same length/order as the input).
    pub values: Vec<f64>,
    /// Search iterations spent (the §6.4 cost metric; 1 for the
    /// constant-time initial encoding).
    pub iterations: u64,
}

/// A one-bit subset encoding convention.
pub trait SubsetEncoder: Send + Sync {
    /// Embeds `bit` into the subset `values` (the extreme is at
    /// `extreme_offset`). Returns `None` when this subset cannot encode
    /// the bit within budget (the embedder then skips the extreme).
    fn embed(
        &self,
        scheme: &Scheme,
        values: &[f64],
        extreme_offset: usize,
        label: &Label,
        bit: bool,
    ) -> Option<EmbedResult>;

    /// Extracts votes from a detected subset.
    fn detect(&self, scheme: &Scheme, values: &[f64], label: &Label) -> Vote;

    /// [`embed`](Self::embed) with caller-provided scratch state. The
    /// default delegates to `embed`; the built-in encoders override it
    /// with an allocation-free, memoizing implementation that produces
    /// bit-identical results.
    fn embed_with(
        &self,
        scheme: &Scheme,
        scratch: &mut EncoderScratch,
        values: &[f64],
        extreme_offset: usize,
        label: &Label,
        bit: bool,
    ) -> Option<EmbedResult> {
        let _ = scratch;
        self.embed(scheme, values, extreme_offset, label, bit)
    }

    /// [`detect`](Self::detect) with caller-provided scratch state; same
    /// contract as [`embed_with`](Self::embed_with).
    fn detect_with(
        &self,
        scheme: &Scheme,
        scratch: &mut EncoderScratch,
        values: &[f64],
        label: &Label,
    ) -> Vote {
        let _ = scratch;
        self.detect(scheme, values, label)
    }

    /// Convention name for reports.
    fn name(&self) -> &'static str;
}

/// Trims an index range to at most `cap` items, keeping those nearest
/// `pos` (which must lie inside the range). Grows symmetrically, absorbing
/// slack on one side into the other.
pub fn trim_around(
    range: std::ops::Range<usize>,
    pos: usize,
    cap: usize,
) -> std::ops::Range<usize> {
    assert!(range.contains(&pos), "pos must lie inside range");
    assert!(cap >= 1);
    if range.len() <= cap {
        return range;
    }
    let mut lo = pos;
    let mut hi = pos + 1; // [lo, hi) currently just {pos}
    while hi - lo < cap {
        let can_left = lo > range.start;
        let can_right = hi < range.end;
        // Alternate, preferring the side with more room.
        if can_left && (!can_right || (pos - lo) <= (hi - 1 - pos)) {
            lo -= 1;
        } else if can_right {
            hi += 1;
        } else {
            break;
        }
    }
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_verdicts() {
        let mut v = Vote::empty();
        assert_eq!(v.verdict(), None);
        v.add(true);
        assert_eq!(v.verdict(), Some(true));
        v.add(false);
        assert_eq!(v.verdict(), None);
        v.add(false);
        assert_eq!(v.verdict(), Some(false));
        assert_eq!(v.total(), 3);
    }

    #[test]
    fn vote_merge() {
        let mut a = Vote {
            true_votes: 2,
            false_votes: 1,
        };
        a.merge(Vote {
            true_votes: 0,
            false_votes: 4,
        });
        assert_eq!(
            a,
            Vote {
                true_votes: 2,
                false_votes: 5
            }
        );
    }

    #[test]
    fn trim_noop_when_small() {
        assert_eq!(trim_around(3..8, 5, 10), 3..8);
        assert_eq!(trim_around(3..8, 5, 5), 3..8);
    }

    #[test]
    fn trim_centers_on_pos() {
        let r = trim_around(0..100, 50, 5);
        assert_eq!(r.len(), 5);
        assert!(r.contains(&50));
        // Symmetric: 48..53.
        assert_eq!(r, 48..53);
    }

    #[test]
    fn trim_respects_boundaries() {
        // pos near the left edge: slack goes right.
        let r = trim_around(10..100, 11, 7);
        assert_eq!(r.len(), 7);
        assert_eq!(r.start, 10);
        // pos near the right edge: slack goes left.
        let r = trim_around(0..20, 19, 6);
        assert_eq!(r.len(), 6);
        assert_eq!(r.end, 20);
    }

    #[test]
    fn trim_cap_one() {
        assert_eq!(trim_around(0..10, 4, 1), 4..5);
    }

    #[test]
    #[should_panic(expected = "pos must lie inside")]
    fn trim_pos_outside_panics() {
        trim_around(0..5, 7, 3);
    }
}
