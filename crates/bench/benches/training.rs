//! Training cost per strategy: one full pass (iteration/epoch) over the
//! bench corpus — the cost that differs between strategies while inference
//! stays identical.

use testkit::bench::{Bench};
use lehdc::adaptive::{train_adaptive_recorded, AdaptiveConfig};
use lehdc::baseline::train_baseline_threaded;
use lehdc::enhanced::train_enhanced_recorded;
use lehdc::lehdc_trainer::train_lehdc;
use lehdc::retrain::{train_retraining_recorded, RetrainConfig};
use lehdc::LehdcConfig;
use lehdc_bench::bench_encoded;
use std::hint::black_box;

fn bench_training_passes(c: &mut Bench) {
    let encoded = bench_encoded(2048);
    let off = obs::Recorder::disabled();
    let mut group = c.benchmark_group("one_training_pass");
    group.sample_size(20);

    group.bench_function("baseline_full", |b| {
        b.iter(|| black_box(train_baseline_threaded(black_box(&encoded), 0, 1).unwrap()))
    });

    let retrain_cfg = RetrainConfig {
        iterations: 1,
        ..RetrainConfig::default()
    };
    group.bench_function("retraining_iter", |b| {
        b.iter(|| {
            let enc = black_box(&encoded);
            black_box(train_retraining_recorded(enc, None, &retrain_cfg, 1, &off).unwrap())
        })
    });
    group.bench_function("enhanced_iter", |b| {
        b.iter(|| {
            let enc = black_box(&encoded);
            black_box(train_enhanced_recorded(enc, None, &retrain_cfg, 1, &off).unwrap())
        })
    });

    let adaptive_cfg = AdaptiveConfig {
        iterations: 1,
        ..AdaptiveConfig::default()
    };
    group.bench_function("adaptive_iter", |b| {
        b.iter(|| {
            let enc = black_box(&encoded);
            black_box(train_adaptive_recorded(enc, None, &adaptive_cfg, 1, &off).unwrap())
        })
    });

    let lehdc_cfg = LehdcConfig {
        epochs: 1,
        batch_size: 32,
        ..LehdcConfig::default()
    };
    group.bench_function("lehdc_epoch", |b| {
        b.iter(|| black_box(train_lehdc(black_box(&encoded), None, &lehdc_cfg).unwrap()))
    });

    group.finish();
}

testkit::bench_main!(bench_training_passes);
