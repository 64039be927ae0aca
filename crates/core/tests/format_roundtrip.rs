//! Property suite for the `LHDC` container format: random shapes and
//! metadata lengths must round-trip bit-identically, distilled or not,
//! whichever section encoding the writer picks. Shrinking is handled by
//! the testkit harness, so a failure minimizes to the smallest offending
//! shape automatically.

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RecordEncoder};
use hdc_datasets::MinMaxNormalizer;
use lehdc::format::{pack, unpack};
use lehdc::io::{
    read_bundle, read_encoded, read_model, write_bundle, write_encoded, write_model, ModelBundle,
};
use lehdc::{EncodedDataset, HdcModel};
use testkit::prelude::*;
use testkit::Xoshiro256pp;

/// A random bundle: dimension, feature count, level count, normalizer
/// presence, and class count all vary, which in turn varies the metadata
/// blob length and the aux-section layout.
fn arb_bundle() -> impl Strategy<Value = (ModelBundle, u64)> {
    (
        2usize..5,    // classes
        65usize..320, // encoder dim (spans word boundaries)
        1usize..9,    // features
        2usize..17,   // levels
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(k, d, n_features, levels, with_norm, seed)| {
            let dim = Dim::new(d);
            let encoder = RecordEncoder::builder(dim, n_features)
                .levels(levels)
                .seed(seed)
                .build()
                .unwrap();
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xD15);
            let model = HdcModel::new(
                (0..k).map(|_| BinaryHv::random(dim, &mut rng)).collect(),
            )
            .unwrap();
            let normalizer = with_norm.then(|| {
                let mins: Vec<f32> = (0..n_features).map(|i| i as f32 * 0.37 - 1.0).collect();
                let ranges: Vec<f32> = (0..n_features).map(|i| 0.5 + i as f32).collect();
                MinMaxNormalizer::from_parts(mins, ranges).unwrap()
            });
            (
                ModelBundle {
                    model,
                    encoder,
                    normalizer,
                    selection: None,
                },
                seed,
            )
        })
}

fn random_rows(bundle: &ModelBundle, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rng_for(seed, 3);
    use testkit::Rng;
    (0..n)
        .map(|_| {
            (0..bundle.n_features())
                .map(|_| (rng.random::<u64>() % 1000) as f32 / 500.0 - 1.0)
                .collect()
        })
        .collect()
}

proptest! {
    /// save → load → save is bit-identical at the byte level AND at the
    /// prediction level.
    #[test]
    fn bundle_roundtrips_bit_identically(pair in arb_bundle()) {
        let (bundle, seed) = pair;
        let rows = random_rows(&bundle, 8, seed);
        let want: Vec<usize> = rows.iter().map(|r| bundle.classify(r).unwrap()).collect();
        let mut first = Vec::new();
        write_bundle(&bundle, &mut first).unwrap();
        let loaded = read_bundle(first.as_slice()).unwrap();
        let got: Vec<usize> = rows.iter().map(|r| loaded.classify(r).unwrap()).collect();
        prop_assert_eq!(&got, &want, "predictions drifted");
        // A second save of the loaded bundle reproduces the same bytes:
        // nothing (seed, normalizer f32s, word planes) is lossy.
        let mut second = Vec::new();
        write_bundle(&loaded, &mut second).unwrap();
        prop_assert_eq!(&first, &second, "bytes drifted");
    }

    /// Distillation survives persistence: a distilled bundle's predictions
    /// are identical before and after a save/load cycle.
    #[test]
    fn distilled_bundle_roundtrips(pair in arb_bundle(), frac in 2usize..5) {
        let (bundle, seed) = pair;
        let d_out = (bundle.model.dim().get() / frac).max(1);
        let distilled = bundle.distill(d_out).unwrap();
        let rows = random_rows(&bundle, 8, seed);
        let want: Vec<usize> =
            rows.iter().map(|r| distilled.classify(r).unwrap()).collect();
        let mut buf = Vec::new();
        write_bundle(&distilled, &mut buf).unwrap();
        let loaded = read_bundle(buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.selection.as_ref(), distilled.selection.as_ref());
        let got: Vec<usize> = rows.iter().map(|r| loaded.classify(r).unwrap()).collect();
        prop_assert_eq!(&got, &want);
    }

    /// Truncating a model or bundle anywhere is a typed error or
    /// (cut == 0) a faithful reload — never a panic.
    #[test]
    fn truncation_never_panics(pair in arb_bundle(), cut in 0usize..256) {
        let (bundle, _) = pair;
        let mut buf = Vec::new();
        write_bundle(&bundle, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        if let Ok(b) = read_bundle(&buf[..buf.len() - cut]) {
            prop_assert_eq!(cut, 0);
            prop_assert_eq!(b.model, bundle.model);
        }
        let mut buf = Vec::new();
        write_model(&bundle.model, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        if let Ok(m) = read_model(&buf[..buf.len() - cut]) {
            prop_assert_eq!(cut, 0);
            prop_assert_eq!(m, bundle.model);
        }
    }

    /// Encoded corpora round-trip, hypervectors and labels bit-for-bit.
    #[test]
    fn encoded_corpus_roundtrips(n in 1usize..10, d in 65usize..200, seed in any::<u64>()) {
        let dim = Dim::new(d);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let corpus = EncodedDataset::from_parts(hvs, labels, 3).unwrap();
        let mut buf = Vec::new();
        write_encoded(&corpus, &mut buf).unwrap();
        let back = read_encoded(buf.as_slice()).unwrap();
        prop_assert_eq!(back.hvs(), corpus.hvs());
        prop_assert_eq!(back.labels(), corpus.labels());
        prop_assert_eq!(back.n_classes(), corpus.n_classes());
    }

    /// The section codec is total: arbitrary byte strings survive
    /// pack/unpack at arbitrary strides, and unpacking never panics on
    /// corrupted input.
    #[test]
    fn codec_roundtrips_arbitrary_bytes(
        data in collection::vec(any::<u8>(), 0..512),
        stride in 1usize..9,
        flip_at in 0usize..4096,
        flip_bits in 1usize..256,
    ) {
        let packed = pack(&data, stride);
        prop_assert_eq!(unpack(&packed, data.len() as u64).unwrap(), data);
        // Corrupting any single byte must never panic (it may still
        // decode, e.g. a flipped bit inside a literal run).
        if !packed.is_empty() {
            let mut bad = packed.clone();
            let i = flip_at % bad.len();
            bad[i] ^= flip_bits as u8;
            let _ = unpack(&bad, 512);
        }
    }
}
