//! Differential test of the multi-hash search against the naive
//! reference (`wms_bench::reference::NaiveMultiHashEncoder`), across the
//! parameter space rather than one golden configuration.
//!
//! Each case draws a key, subset size a, τ, γ (both sides of the code
//! table's memo/bypass split), `min_active`, the iteration budget, the
//! subset's base value, the bit and the hash, then runs 32 labels through
//! one warm `EncoderScratch`, as a session thread does. Both
//! `embed_with` and the one-shot `embed` must return the reference's
//! values bit for bit and its `iterations`. The shim neither shrinks nor
//! prints seeds, so every message carries the drawn parameters.
//! `PROPTEST_CASES` raises the case count (CI runs 2,000 in release).

use proptest::prelude::*;
use wms_bench::reference::NaiveMultiHashEncoder;
use wms_core::encoding::multihash::MultiHashEncoder;
use wms_core::{EmbedResult, EncoderScratch, Label, Scheme, SubsetEncoder, WmParams};
use wms_crypto::{Key, KeyedHash};

const LABELS: u64 = 32;

fn bits(r: &Option<EmbedResult>) -> Option<(Vec<u64>, u64)> {
    r.as_ref()
        .map(|r| (r.values.iter().map(|v| v.to_bits()).collect(), r.iterations))
}

proptest! {
    #[test]
    fn search_matches_naive_reference(
        key in any::<u64>(),
        a in 1usize..=5,
        tau in 1u32..=3,
        gamma in 4u32..=16,
        min_active in 0usize..=15,
        budget_exp in 0.0f64..1.0,
        base in -0.45f64..0.45,
        bit in any::<bool>(),
        sha256 in any::<bool>(),
        first_label in 0u64..1024,
    ) {
        // Log-uniform over 1..600: most searches that cannot succeed in
        // any budget here (full convention at large a and τ) stay cheap.
        let max_iterations = 600f64.powf(budget_exp) as u64;
        let params = WmParams {
            lsb_bits: gamma,
            convention_bits: tau,
            min_active: (min_active > 0).then_some(min_active),
            max_iterations,
            max_subset: a,
            ..WmParams::default()
        };
        let hash = if sha256 { KeyedHash::sha256 } else { KeyedHash::md5 };
        let scheme = Scheme::new(params, hash(Key::from_u64(key))).unwrap();
        let values: Vec<f64> = (0..a).map(|k| base + 0.00137 * k as f64).collect();
        let case = format!(
            "key={key} a={a} τ={tau} γ={gamma} min_active={min_active} \
             max_iterations={max_iterations} base={base} bit={bit} sha256={sha256} \
             first_label={first_label}"
        );
        let mut scratch = EncoderScratch::new();
        for l in first_label..first_label + LABELS {
            let label = Label::from_parts((1 << 11) | l, 12);
            let naive = bits(&NaiveMultiHashEncoder.embed(&scheme, &values, 0, &label, bit));
            let warm = MultiHashEncoder.embed_with(&scheme, &mut scratch, &values, 0, &label, bit);
            prop_assert_eq!(&bits(&warm), &naive, "embed_with, label {}: {}", l, case);
            let oneshot = MultiHashEncoder.embed(&scheme, &values, 0, &label, bit);
            prop_assert_eq!(&bits(&oneshot), &naive, "embed, label {}: {}", l, case);
        }
    }
}
