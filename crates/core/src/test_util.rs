//! Shared test fixtures for the strategy unit tests.

use hdc::rng::rng_for;
use testkit::Rng;
use hdc::{BinaryHv, Dim};
use hdc_datasets::BenchmarkProfile;

use crate::encoded::EncodedDataset;

/// A genuinely hard encoded train/test pair: the Fashion-MNIST-like profile
/// (overlapping sub-clusters, moderate class separation) pushed through the
/// normalizing pipeline and the real record encoder. Baseline bundling
/// lands well below 100% here but well above chance, so "strategy X
/// improves on the baseline" assertions are meaningful.
pub(crate) fn hard_encoded_pair(seed: u64) -> (EncodedDataset, EncodedDataset) {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    // Encoding this corpus takes ~1 s in debug builds and several tests use
    // the same seed; memoize per seed.
    static CACHE: OnceLock<Mutex<HashMap<u64, (EncodedDataset, EncodedDataset)>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(pair) = cache.lock().unwrap().get(&seed) {
        return pair.clone();
    }
    let data = BenchmarkProfile::fashion_mnist()
        .with_features(64)
        .with_samples(500, 200)
        .generate(seed)
        .unwrap();
    let pipeline = crate::pipeline::Pipeline::builder(&data)
        .dim(Dim::new(1024))
        .seed(seed)
        .threads(2)
        .build()
        .unwrap();
    let pair = (
        pipeline.encoded_train().clone(),
        pipeline.encoded_test().clone(),
    );
    cache.lock().unwrap().insert(seed, pair.clone());
    pair
}

/// Multi-modal corpus: each class is TWO far-apart prototype clusters with
/// `flip` noisy bit flips per sample — the structure that defeats plain
/// centroid bundling but not discriminative training.
pub(crate) fn multimodal_corpus(
    k: usize,
    per_cluster: usize,
    d: usize,
    flip: usize,
    seed: u64,
) -> EncodedDataset {
    let mut rng = rng_for(seed, 77);
    let dim = Dim::new(d);
    let protos: Vec<BinaryHv> = (0..2 * k).map(|_| BinaryHv::random(dim, &mut rng)).collect();
    let mut hvs = Vec::new();
    let mut labels = Vec::new();
    for c in 0..k {
        for sub in 0..2 {
            for _ in 0..per_cluster {
                let mut hv = protos[2 * c + sub].clone();
                for _ in 0..flip {
                    hv.flip(rng.random_range(0..d));
                }
                hvs.push(hv);
                labels.push(c);
            }
        }
    }
    EncodedDataset::from_parts(hvs, labels, k).unwrap()
}

/// A disabled recorder, for training calls that do not measure anything.
pub(crate) fn off() -> obs::Recorder {
    obs::Recorder::disabled()
}
