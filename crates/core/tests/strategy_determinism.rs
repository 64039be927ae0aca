//! Determinism suite for the comparison strategies on the batched epoch
//! engine.
//!
//! The batched rewrite changed the *reference semantics* of retraining: a
//! misclassification pass now applies one exact integer vote total per
//! (class, dimension) instead of one f32 `add_scaled` per misclassified
//! sample. This suite pins what that buys and what it costs:
//!
//! - every strategy is **bit-identical** across thread counts (the integer
//!   votes make sample order irrelevant; the engine's query-block sizes are
//!   pinned by the unit tests of the retraining loop in `engine.rs`);
//! - the integer-vote application matches a naive sequential integer-vote
//!   reference exactly, bit for bit;
//! - the accuracy *trajectory* of the new semantics tracks the historical
//!   per-sample f32 loop within a small tolerance (the two round
//!   differently, so bits may differ — accuracy must not);
//! - the enhanced/adaptive tie-break now prefers the **lowest** class index,
//!   matching `model.classify` (regression test with an engineered tie);
//! - attaching an observability recorder never perturbs results;
//! - pinned goldens on a fixed corpus catch any silent semantic drift.
//!
//! `scripts/check.sh` runs this suite under both `LEHDC_KERNEL=scalar` and
//! `LEHDC_KERNEL=avx2`, so tier invariance is enforced as well.

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RealHv};
use testkit::Rng;
use lehdc::adaptive::train_adaptive_recorded;
use lehdc::baseline::{accumulate_class_sums_pooled, train_baseline_threaded};
use lehdc::enhanced::train_enhanced_recorded;
use lehdc::multimodel::train_multimodel_recorded;
use lehdc::nonbinary::train_nonbinary_recorded;
use lehdc::retrain::train_retraining_recorded;
use lehdc::{
    AdaptiveConfig, EncodedDataset, EpochEngine, HdcModel, MultiModelConfig, RetrainConfig,
    TrainingHistory,
};

/// A multi-modal corpus the baseline cannot separate: each class owns
/// several random prototypes and every sample is a noisy copy of one.
fn corpus(classes: usize, protos: usize, dim: usize, samples: usize, seed: u64) -> EncodedDataset {
    let dim = Dim::new(dim);
    let mut rng = rng_for(seed, 0xC0_DE);
    let prototypes: Vec<Vec<BinaryHv>> = (0..classes)
        .map(|_| (0..protos).map(|_| BinaryHv::random(dim, &mut rng)).collect())
        .collect();
    let mut hvs = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let class = i % classes;
        let proto = &prototypes[class][(i / classes) % protos];
        let mut hv = proto.clone();
        // ~30% noisy flips (with replacement): hard enough that the baseline
        // misclassifies and every iteration performs real updates — the
        // determinism assertions are vacuous on separable data.
        for _ in 0..(3 * dim.get()) / 10 {
            let j = (rng.random::<u64>() % dim.get() as u64) as usize;
            hv.flip(j);
        }
        hvs.push(hv);
        labels.push(class);
    }
    EncodedDataset::from_parts(hvs, labels, classes).unwrap()
}

fn strip_timing(history: &TrainingHistory) -> Vec<lehdc::EpochRecord> {
    history.records().iter().map(|r| r.without_timing()).collect()
}

/// An enabled recorder that writes to nowhere — instrumentation on, output
/// discarded.
fn live_recorder() -> obs::Recorder {
    obs::Recorder::builder()
        .jsonl_writer(Box::new(std::io::sink()))
        .build()
}

// ---------------------------------------------------------------------------
// Bit-identity across threads and recorder state
// ---------------------------------------------------------------------------

#[test]
fn enhanced_and_adaptive_are_bit_identical_across_threads() {
    let train = corpus(3, 3, 512, 90, 3);
    let test = corpus(3, 3, 512, 30, 4);
    let rcfg = RetrainConfig {
        iterations: 6,
        ..RetrainConfig::default()
    };
    let acfg = AdaptiveConfig {
        iterations: 6,
        ..AdaptiveConfig::default()
    };
    let disabled = obs::Recorder::disabled();
    let (e1, eh1) = train_enhanced_recorded(&train, Some(&test), &rcfg, 1, &disabled).unwrap();
    let (a1, ah1) = train_adaptive_recorded(&train, Some(&test), &acfg, 1, &disabled).unwrap();
    for threads in [2usize, 4] {
        let (e, eh) =
            train_enhanced_recorded(&train, Some(&test), &rcfg, threads, &disabled).unwrap();
        let (a, ah) =
            train_adaptive_recorded(&train, Some(&test), &acfg, threads, &disabled).unwrap();
        assert_eq!(e, e1, "enhanced diverged at {threads} threads");
        assert_eq!(a, a1, "adaptive diverged at {threads} threads");
        assert_eq!(strip_timing(&eh), strip_timing(&eh1));
        assert_eq!(strip_timing(&ah), strip_timing(&ah1));
    }
}

#[test]
fn multimodel_and_nonbinary_are_bit_identical_across_threads() {
    let train = corpus(3, 2, 512, 90, 5);
    let test = corpus(3, 2, 512, 30, 6);
    let cfg = MultiModelConfig {
        models_per_class: 4,
        iterations: 3,
        ..MultiModelConfig::quick()
    };
    let disabled = obs::Recorder::disabled();
    let (mm1, mh1) = train_multimodel_recorded(&train, Some(&test), &cfg, 1, &disabled).unwrap();
    let (nb1, nh1) = train_nonbinary_recorded(&train, Some(&test), 1.0, 4, 1, &disabled).unwrap();
    for threads in [2usize, 4] {
        let (mm, mh) =
            train_multimodel_recorded(&train, Some(&test), &cfg, threads, &disabled).unwrap();
        let (nb, nh) =
            train_nonbinary_recorded(&train, Some(&test), 1.0, 4, threads, &disabled).unwrap();
        assert_eq!(strip_timing(&mh), strip_timing(&mh1), "multimodel history diverged");
        assert_eq!(strip_timing(&nh), strip_timing(&nh1), "nonbinary history diverged");
        assert_eq!(
            mm.accuracy(test.hvs(), test.labels()),
            mm1.accuracy(test.hvs(), test.labels()),
            "multimodel accuracy diverged at {threads} threads"
        );
        assert_eq!(
            nb.to_binary().unwrap(),
            nb1.to_binary().unwrap(),
            "nonbinary model diverged at {threads} threads"
        );
    }
}

#[test]
fn recorder_never_perturbs_results() {
    let train = corpus(3, 2, 256, 60, 7);
    let cfg = RetrainConfig {
        iterations: 4,
        ..RetrainConfig::default()
    };
    let rec = live_recorder();
    assert!(rec.enabled());
    let (plain, plain_hist) =
        train_retraining_recorded(&train, None, &cfg, 2, &obs::Recorder::disabled()).unwrap();
    let (recorded, rec_hist) = train_retraining_recorded(&train, None, &cfg, 2, &rec).unwrap();
    assert_eq!(plain, recorded);
    assert_eq!(strip_timing(&plain_hist), strip_timing(&rec_hist));
    // timing is attached iff the recorder is enabled
    assert!(plain_hist.records().iter().all(|r| r.timing.is_none()));
    assert!(rec_hist.records().iter().all(|r| r.timing.is_some()));
}

// ---------------------------------------------------------------------------
// Integer-vote semantics: exact parity with a sequential integer reference,
// trajectory tolerance against the historical per-sample f32 loop
// ---------------------------------------------------------------------------

/// The historical QuantHD loop, parameterized over the update arithmetic:
/// `votes = false` applies one f32 `add_scaled` per misclassified sample (the
/// pre-batching semantics); `votes = true` accumulates integer votes per
/// (class, dim) and applies each total once — a naive sequential version of
/// what [`lehdc::VoteLedger`] computes with bit-sliced planes.
fn sequential_retrain(
    train: &EncodedDataset,
    cfg: &RetrainConfig,
    votes: bool,
) -> (HdcModel, Vec<f64>) {
    let k = train.n_classes();
    let d = train.dim().get();
    let mut nonbinary: Vec<RealHv> = accumulate_class_sums_pooled(train, 1).unwrap();
    let mut model =
        HdcModel::new(nonbinary.iter().map(RealHv::sign).collect::<Vec<_>>()).unwrap();
    let mut accuracies = Vec::new();
    for iter in 0..cfg.iterations {
        let alpha = if iter == 0 { cfg.first_alpha } else { cfg.alpha };
        let mut vote_grid = vec![0i32; k * d];
        let mut correct = 0usize;
        for i in 0..train.len() {
            let (hv, label) = train.sample(i);
            let predicted = model.classify(hv);
            if predicted == label {
                correct += 1;
                continue;
            }
            if votes {
                for j in 0..d {
                    let bipolar = hv.bipolar(j);
                    vote_grid[label * d + j] += bipolar;
                    vote_grid[predicted * d + j] -= bipolar;
                }
            } else {
                nonbinary[label].add_scaled(hv, alpha);
                nonbinary[predicted].add_scaled(hv, -alpha);
            }
        }
        if votes {
            for (class, hv) in nonbinary.iter_mut().enumerate() {
                for (c, &v) in hv.values_mut().iter_mut().zip(&vote_grid[class * d..]) {
                    if v != 0 {
                        *c += alpha * v as f32;
                    }
                }
            }
        }
        model = HdcModel::new(nonbinary.iter().map(RealHv::sign).collect::<Vec<_>>()).unwrap();
        accuracies.push(correct as f64 / train.len() as f64);
    }
    (model, accuracies)
}

#[test]
fn batched_retraining_matches_sequential_integer_vote_reference_exactly() {
    let train = corpus(4, 3, 384, 100, 8);
    let cfg = RetrainConfig {
        iterations: 6,
        ..RetrainConfig::default()
    };
    let (reference, ref_accs) = sequential_retrain(&train, &cfg, true);
    let (batched, hist) =
        train_retraining_recorded(&train, None, &cfg, 1, &obs::Recorder::disabled()).unwrap();
    assert_eq!(batched, reference, "integer-vote application must be exact");
    assert_eq!(hist.train_series(), ref_accs);
}

#[test]
fn batched_trajectory_tracks_historical_f32_semantics() {
    let train = corpus(4, 3, 512, 160, 9);
    let cfg = RetrainConfig {
        iterations: 12,
        ..RetrainConfig::default()
    };
    let (_, legacy_accs) = sequential_retrain(&train, &cfg, false);
    let (_, hist) =
        train_retraining_recorded(&train, None, &cfg, 1, &obs::Recorder::disabled()).unwrap();
    let new_accs = hist.train_series();
    assert_eq!(new_accs.len(), legacy_accs.len());
    // Identical first iteration (the initial model is shared), and the
    // trajectories must stay within a few percent of each other after —
    // the semantics differ only in per-sample vs per-pass rounding.
    assert_eq!(new_accs[0], legacy_accs[0]);
    for (i, (n, l)) in new_accs.iter().zip(&legacy_accs).enumerate() {
        assert!(
            (n - l).abs() <= 0.05,
            "iteration {i}: batched {n} vs per-sample {l} drifted past 5%"
        );
    }
}

#[test]
fn pooled_class_sums_match_serial_exactly() {
    let train = corpus(5, 2, 512, 150, 10);
    let serial = accumulate_class_sums_pooled(&train, 1).unwrap();
    for threads in [1usize, 2, 4] {
        let pooled = accumulate_class_sums_pooled(&train, threads).unwrap();
        assert_eq!(pooled, serial, "pooled sums diverged at {threads} threads");
    }
}

// ---------------------------------------------------------------------------
// Tie-break regression: lowest class index wins, as in model.classify
// ---------------------------------------------------------------------------

/// Classes 0 and 1 binarize to the *same* hypervector `P`, class 2 to `Q`:
/// every `P` sample ties classes 0 and 1 exactly. The fix makes enhanced and
/// adaptive predict class 0 (lowest index) like `model.classify`; the
/// historical scans kept the last extremum and predicted class 1.
fn tied_corpus(dim: Dim) -> EncodedDataset {
    let mut rng = rng_for(77, 0x7E);
    let p = BinaryHv::random(dim, &mut rng);
    let q = BinaryHv::random(dim, &mut rng);
    let mut hvs = vec![p.clone(), p.clone(), p.clone(), p.clone()]; // class 0
    hvs.extend([p.clone(), p.clone()]); // class 1: same prototype
    hvs.extend([q.clone(), q.clone(), q.clone(), q.clone()]); // class 2
    EncodedDataset::from_parts(hvs, vec![0, 0, 0, 0, 1, 1, 2, 2, 2, 2], 3).unwrap()
}

#[test]
fn enhanced_tie_break_prefers_lowest_class_index() {
    let train = tied_corpus(Dim::new(256));
    let cfg = RetrainConfig {
        iterations: 1,
        ..RetrainConfig::default()
    };
    let (_, hist) =
        train_enhanced_recorded(&train, None, &cfg, 1, &obs::Recorder::disabled()).unwrap();
    // Ties resolve to class 0: the four class-0 and four class-2 samples are
    // correct, the two class-1 samples lose their tie → exactly 8/10. The
    // historical last-minimum scan predicted class 1 on ties → 6/10.
    assert_eq!(hist.train_series(), vec![0.8]);
}

#[test]
fn adaptive_tie_break_prefers_lowest_class_index() {
    let train = tied_corpus(Dim::new(256));
    let cfg = AdaptiveConfig {
        iterations: 1,
        ..AdaptiveConfig::default()
    };
    let (_, hist) =
        train_adaptive_recorded(&train, None, &cfg, 1, &obs::Recorder::disabled()).unwrap();
    assert_eq!(hist.train_series(), vec![0.8]);
}

#[test]
fn tie_break_matches_model_classify() {
    // The engine path and model.classify must agree on the tied query.
    let train = tied_corpus(Dim::new(256));
    let model = train_baseline_threaded(&train, 0, 1).unwrap();
    let p = train.sample(0).0;
    assert_eq!(model.classify(p), 0, "argmax kernels break ties low");
    let engine = EpochEngine::new(2);
    assert_eq!(engine.classify_epoch(&model, &[p.clone()]), vec![0]);
}

// ---------------------------------------------------------------------------
// Pinned goldens: any semantic drift on a fixed corpus fails loudly
// ---------------------------------------------------------------------------

/// A cheap stable fingerprint of a binary model: per-class popcounts plus a
/// word-wise FNV over all planes.
fn fingerprint(model: &HdcModel) -> (Vec<usize>, u64) {
    let pops = model.class_hvs().iter().map(BinaryHv::count_ones).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hv in model.class_hvs() {
        for &w in hv.as_words() {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    (pops, h)
}

#[test]
fn golden_strategy_outputs_on_fixed_corpus() {
    // One generation, held-out tail: test samples share the train prototypes.
    // Many prototypes at a low dimension → the baseline misclassifies, so
    // every strategy leaves its own distinct signature.
    let full = corpus(4, 6, 256, 280, 42);
    let split = |range: std::ops::Range<usize>| {
        EncodedDataset::from_parts(
            full.hvs()[range.clone()].to_vec(),
            full.labels()[range].to_vec(),
            full.n_classes(),
        )
        .unwrap()
    };
    let (train, test) = (split(0..200), split(200..280));
    let disabled = obs::Recorder::disabled();
    let rcfg = RetrainConfig {
        iterations: 8,
        ..RetrainConfig::default()
    };
    let acfg = AdaptiveConfig {
        iterations: 8,
        ..AdaptiveConfig::default()
    };

    let (re, re_hist) =
        train_retraining_recorded(&train, Some(&test), &rcfg, 4, &disabled).unwrap();
    let (en, en_hist) = train_enhanced_recorded(&train, Some(&test), &rcfg, 4, &disabled).unwrap();
    let (ad, ad_hist) = train_adaptive_recorded(&train, Some(&test), &acfg, 4, &disabled).unwrap();

    let observed = [
        ("retraining", fingerprint(&re), summary(&re_hist)),
        ("enhanced", fingerprint(&en), summary(&en_hist)),
        ("adaptive", fingerprint(&ad), summary(&ad_hist)),
    ];
    let rendered: Vec<String> = observed
        .iter()
        .map(|(name, (pops, fnv), accs)| {
            format!("{name} pops={pops:?} fnv={fnv:#018x} accs={accs:?}")
        })
        .collect();
    assert_eq!(rendered, GOLDENS, "strategy output drifted from the pinned goldens");
}

fn summary(hist: &TrainingHistory) -> (f64, f64) {
    (
        hist.final_train_accuracy().unwrap(),
        hist.final_test_accuracy().unwrap(),
    )
}

// Pinned on the batched integer-vote semantics (this PR). Re-pin only on a
// deliberate semantic change, and call it out in DESIGN.md §8.
const GOLDENS: [&str; 3] = [
    "retraining pops=[132, 105, 118, 130] fnv=0x8fc83dd0a694d559 accs=(0.995, 0.9125)",
    "enhanced pops=[134, 104, 121, 128] fnv=0xd20aead723b160bd accs=(0.985, 0.925)",
    "adaptive pops=[134, 102, 118, 127] fnv=0x67e765af786b298d accs=(0.99, 0.9375)",
];
