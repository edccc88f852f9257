//! Per-label memoization of the §4.3 convention codes.
//!
//! [`Scheme::convention_code`] depends on the stream value only through
//! `lsb(m_raw, γ)` — at most `2^γ` distinct inputs per label. The
//! multi-hash search evaluates one code per candidate m_ij average, so a
//! table keyed by the current label turns the inner-loop keyed hash into
//! an array index. The table is filled lazily (most searches touch a
//! sparse subset of the 2^γ entries) and invalidated by generation stamp
//! when the labeler advances, so a label switch costs nothing beyond
//! bumping a counter — no memset of the table.
//!
//! Entries pack the 30-bit generation stamp and the 2-bit classification
//! of the code (`false` / `true` / neither) into one `u32`, so a lookup
//! touches a single cache line. The classification is all the hot paths
//! consume: `code == convention_target(bit)` is exactly
//! `classify_code(code) == Some(bit)` because the targets are the
//! all-ones and all-zero codes.

use crate::labeling::Label;
use crate::scheme::Scheme;
use wms_crypto::CompiledU64Hash;

/// Largest γ that is memoized: 2^20 entries × 4 bytes = 4 MiB. Wider
/// configurations fall back to direct hashing (the table would thrash).
pub const MAX_MEMO_BITS: u32 = 20;

const CLASS_FALSE: u32 = 0;
const CLASS_TRUE: u32 = 1;
const CLASS_NEITHER: u32 = 2;
const GEN_BITS: u32 = 30;

/// Lazily filled, generation-stamped memo of convention-code
/// classifications for one label at a time.
///
/// A table caches derivations of one [`Scheme`]'s key at a time; when a
/// different scheme drives it (the per-thread session scratch serves
/// every config that thread runs) the fingerprint stamp invalidates it.
#[derive(Debug, Clone)]
pub struct CodeTable {
    /// `(generation << 2) | classification` per `lsb(m, γ)` value;
    /// an entry is valid only when its generation matches `gen`.
    entries: Vec<u32>,
    /// Label the current generation corresponds to.
    label: Option<Label>,
    /// Per-label compiled convention-code hasher (single compression per
    /// miss with a short key); rebuilt when the labeler advances.
    compiled: Option<CompiledU64Hash>,
    /// Current generation (starts at 1; entry generation 0 is never valid).
    gen: u32,
    /// When false, every lookup hashes directly (one-shot API paths that
    /// would not amortize the table allocation).
    enabled: bool,
    /// Whether the *current* label uses the memo array (adaptive; see
    /// [`ensure`](Self::ensure)). The compiled hasher is used either way.
    use_table: bool,
    /// γ the current label/compiled state was built for.
    gamma: u32,
    /// [`Scheme::memo_fingerprint`] the current state was built for, so
    /// one scratch reused across schemes (different key, τ, or hash
    /// algorithm) invalidates instead of returning stale codes.
    fingerprint: u64,
    /// Total lookups and label switches observed, for the adaptive
    /// table/bypass decision.
    lookups: u64,
    label_switches: u64,
}

impl Default for CodeTable {
    fn default() -> Self {
        CodeTable::new()
    }
}

impl CodeTable {
    /// An enabled table; storage is allocated on first use.
    pub fn new() -> Self {
        CodeTable {
            entries: Vec::new(),
            label: None,
            compiled: None,
            gen: 0,
            enabled: true,
            use_table: true,
            gamma: 0,
            fingerprint: 0,
            lookups: 0,
            label_switches: 0,
        }
    }

    /// A pass-through table that always hashes directly.
    pub fn disabled() -> Self {
        CodeTable {
            enabled: false,
            ..CodeTable::new()
        }
    }

    /// Points the table at `label`: recompiles the per-label hasher and,
    /// when the memo array is worth using, (re)allocates it and bumps
    /// the generation stamp. Returns false when the compiled path is
    /// unavailable altogether (disabled, or γ too wide).
    ///
    /// The memo array pays off only when a label sees more lookups than
    /// a fraction of its 2^γ entries — a full-convention search (2^15+
    /// candidates per label) revisits values constantly, while the
    /// `min_active` reduced search touches a few hundred mostly distinct
    /// entries per label and would just thrash cache. The decision is
    /// adaptive: small tables always memoize; otherwise memoize while
    /// the observed mean lookups per label stays above `2^γ / 8`.
    fn ensure(&mut self, scheme: &Scheme, label: &Label) -> bool {
        let gamma = scheme.params.lsb_bits;
        if !self.enabled || gamma > MAX_MEMO_BITS {
            return false;
        }
        if self.label.as_ref() == Some(label)
            && self.gamma == gamma
            && self.fingerprint == scheme.memo_fingerprint()
        {
            return true;
        }
        let size = 1usize << gamma;
        self.label = Some(*label);
        self.gamma = gamma;
        self.fingerprint = scheme.memo_fingerprint();
        self.label_switches += 1;
        self.compiled = Some(scheme.compile_convention_hasher(label));
        let cache_resident = size <= (1 << 12);
        let warmup = self.label_switches <= 2;
        let avg_lookups = self.lookups / self.label_switches;
        self.use_table = cache_resident || warmup || avg_lookups as usize >= size / 8;
        if self.use_table {
            if self.entries.len() != size {
                self.entries.clear();
                self.entries.resize(size, 0);
                self.gen = 0;
            }
            self.gen += 1;
            if self.gen >= (1 << GEN_BITS) {
                // Generation field exhausted: restart stamping.
                self.entries.iter_mut().for_each(|e| *e = 0);
                self.gen = 1;
            }
        }
        true
    }

    fn class_of_code(scheme: &Scheme, code: u64) -> u32 {
        match scheme.classify_code(code) {
            Some(true) => CLASS_TRUE,
            Some(false) => CLASS_FALSE,
            None => CLASS_NEITHER,
        }
    }

    fn decode(class: u32) -> Option<bool> {
        match class {
            CLASS_TRUE => Some(true),
            CLASS_FALSE => Some(false),
            _ => None,
        }
    }

    /// Classification of `convention_code(m_raw, label)` — memoized
    /// equivalent of `scheme.classify_code(scheme.convention_code(..))`.
    #[inline]
    pub fn classify(&mut self, scheme: &Scheme, label: &Label, m_raw: i64) -> Option<bool> {
        if !self.ensure(scheme, label) {
            return scheme.classify_code(scheme.convention_code(m_raw, label));
        }
        self.lookups += 1;
        let idx = scheme.codec.lsb(m_raw, scheme.params.lsb_bits) as usize;
        if !self.use_table {
            let code = self
                .compiled
                .as_mut()
                .expect("compiled hasher set with label")
                .hash_lsb(idx as u64, scheme.params.convention_bits);
            return scheme.classify_code(code);
        }
        let entry = self.entries[idx];
        let class = if entry >> 2 == self.gen {
            entry & 0b11
        } else {
            let code = self
                .compiled
                .as_mut()
                .expect("compiled hasher set with label")
                .hash_lsb(idx as u64, scheme.params.convention_bits);
            debug_assert_eq!(code, scheme.convention_code_of_lsb(idx as u64, label));
            let class = Self::class_of_code(scheme, code);
            self.entries[idx] = (self.gen << 2) | class;
            class
        };
        Self::decode(class)
    }

    /// Classifies up to `N` raws at once (`raws.len() ∈ [1, N]`); slot
    /// `l` of the result equals `classify(scheme, label, raws[l])`, so
    /// the lanes need not share anything but the label. Memo misses
    /// within the batch are hashed together through
    /// [`wms_crypto::CompiledU64Hash::hash_u64_lanes`], interleaving the
    /// otherwise latency-bound hash chains. The multi-hash search uses
    /// `N = 8` (two interleaved SSE2 chains / one AVX2 chain) and fills
    /// the lanes with codes of several candidates in flight.
    pub fn classify_batch<const N: usize>(
        &mut self,
        scheme: &Scheme,
        label: &Label,
        raws: &[i64],
    ) -> [Option<bool>; N] {
        debug_assert!(!raws.is_empty() && raws.len() <= N);
        let mut out = [None; N];
        if !self.ensure(scheme, label) {
            for (l, &raw) in raws.iter().enumerate() {
                out[l] = scheme.classify_code(scheme.convention_code(raw, label));
            }
            return out;
        }
        self.lookups += raws.len() as u64;
        let gamma = scheme.params.lsb_bits;
        let tau = scheme.params.convention_bits;
        let mask = if tau == 64 { u64::MAX } else { (1 << tau) - 1 };
        if !self.use_table {
            // Bypass the memo: hash every lane (batched when possible).
            let compiled = self.compiled.as_mut().expect("compiled hasher set");
            let mut xs = [0u64; N];
            for (l, &raw) in raws.iter().enumerate() {
                xs[l] = scheme.codec.lsb(raw, gamma);
            }
            let codes = compiled.hash_u64_lanes(xs);
            for l in 0..raws.len() {
                out[l] = scheme.classify_code(codes[l] & mask);
            }
            return out;
        }
        let mut miss_lanes = [0usize; N];
        let mut miss_idxs = [0u64; N];
        let mut misses = 0usize;
        for (l, &raw) in raws.iter().enumerate() {
            let idx = scheme.codec.lsb(raw, gamma) as usize;
            let entry = self.entries[idx];
            if entry >> 2 == self.gen {
                out[l] = Self::decode(entry & 0b11);
            } else {
                miss_lanes[misses] = l;
                miss_idxs[misses] = idx as u64;
                misses += 1;
            }
        }
        if misses == 0 {
            return out;
        }
        let compiled = self.compiled.as_mut().expect("compiled hasher set");
        // Pad unused lanes with the first miss; duplicate stores are
        // idempotent (pure function of the index).
        let mut xs = [miss_idxs[0]; N];
        xs[..misses].copy_from_slice(&miss_idxs[..misses]);
        let codes = compiled.hash_u64_lanes(xs);
        for m in 0..misses {
            let class = Self::class_of_code(scheme, codes[m] & mask);
            self.entries[miss_idxs[m] as usize] = (self.gen << 2) | class;
            out[miss_lanes[m]] = Self::decode(class);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WmParams;
    use wms_crypto::{Key, KeyedHash};

    fn scheme(params: WmParams) -> Scheme {
        Scheme::new(params, KeyedHash::md5(Key::from_u64(31))).unwrap()
    }

    fn label(bits: u64) -> Label {
        Label::from_parts((1 << 6) | (bits & 63), 7)
    }

    #[test]
    fn memoized_equals_direct() {
        for tau in [1u32, 2, 3] {
            let s = scheme(WmParams {
                convention_bits: tau,
                ..WmParams::default()
            });
            let mut table = CodeTable::new();
            for l in 0..4u64 {
                let lab = label(l);
                for m in -300i64..300 {
                    let direct = s.classify_code(s.convention_code(m, &lab));
                    assert_eq!(table.classify(&s, &lab, m), direct, "τ={tau} l={l} m={m}");
                }
            }
        }
    }

    #[test]
    fn scheme_switch_invalidates() {
        // One table reused across schemes that differ only in key, τ, or
        // algorithm — but share label and γ — must never serve the other
        // scheme's cached codes.
        let a = scheme(WmParams::default());
        let b = Scheme::new(
            WmParams::default(),
            KeyedHash::md5(Key::from_u64(32)), // different key
        )
        .unwrap();
        let c = Scheme::new(
            WmParams::default(),
            KeyedHash::sha256(Key::from_u64(31)), // different algorithm
        )
        .unwrap();
        let d = scheme(WmParams {
            convention_bits: 2, // different τ
            ..WmParams::default()
        });
        let mut table = CodeTable::new();
        let lab = label(3);
        for round in 0..2 {
            for s in [&a, &b, &c, &d] {
                for m in 0..64i64 {
                    let direct = s.classify_code(s.convention_code(m, &lab));
                    assert_eq!(
                        table.classify(s, &lab, m),
                        direct,
                        "round {round} fp {:#x}",
                        s.memo_fingerprint()
                    );
                }
            }
        }
    }

    #[test]
    fn label_switch_invalidates() {
        let s = scheme(WmParams::default());
        let mut table = CodeTable::new();
        // Interleave labels: stamps must keep entries separate.
        for round in 0..3 {
            for l in [0u64, 1, 0, 2, 1] {
                let lab = label(l);
                for m in 0..64i64 {
                    let direct = s.classify_code(s.convention_code(m, &lab));
                    assert_eq!(table.classify(&s, &lab, m), direct, "round {round}");
                }
            }
        }
    }

    #[test]
    fn disabled_table_passes_through() {
        let s = scheme(WmParams::default());
        let mut table = CodeTable::disabled();
        let lab = label(5);
        for m in 0..50i64 {
            assert_eq!(
                table.classify(&s, &lab, m),
                s.classify_code(s.convention_code(m, &lab))
            );
        }
        assert!(table.entries.is_empty(), "disabled table allocates nothing");
    }

    #[test]
    fn wide_gamma_falls_back_to_hashing() {
        let s = scheme(WmParams {
            value_bits: 40,
            lsb_bits: MAX_MEMO_BITS + 4,
            embed_bits: 16,
            ..WmParams::default()
        });
        let mut table = CodeTable::new();
        let lab = label(9);
        for m in [0i64, 1, -1, 123_456_789, -987_654_321] {
            assert_eq!(
                table.classify(&s, &lab, m),
                s.classify_code(s.convention_code(m, &lab))
            );
        }
        assert!(table.entries.is_empty(), "over-wide γ must not allocate");
    }

    #[test]
    fn gamma_change_resizes() {
        let mut table = CodeTable::new();
        let s8 = scheme(WmParams {
            lsb_bits: 8,
            embed_bits: 8,
            ..WmParams::default()
        });
        let s10 = scheme(WmParams {
            lsb_bits: 10,
            embed_bits: 10,
            ..WmParams::default()
        });
        let lab = label(3);
        for m in 0..600i64 {
            assert_eq!(
                table.classify(&s8, &lab, m),
                s8.classify_code(s8.convention_code(m, &lab))
            );
        }
        assert_eq!(table.entries.len(), 256);
        for m in 0..600i64 {
            assert_eq!(
                table.classify(&s10, &lab, m),
                s10.classify_code(s10.convention_code(m, &lab))
            );
        }
        assert_eq!(table.entries.len(), 1024);
    }
}
