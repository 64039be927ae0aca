//! Figure 3 pipeline bench: basic vs enhanced retraining over a fixed
//! iteration budget — the enhanced strategy's per-iteration overhead is the
//! full similarity vector it computes per sample.

use testkit::bench::{Bench};
use lehdc::enhanced::train_enhanced_recorded;
use lehdc::retrain::{train_retraining_recorded, RetrainConfig};
use lehdc_bench::bench_encoded;
use std::hint::black_box;

fn bench_fig3_arms(c: &mut Bench) {
    let encoded = bench_encoded(2048);
    let off = obs::Recorder::disabled();
    let cfg = RetrainConfig {
        iterations: 5,
        ..RetrainConfig::default()
    };
    let mut group = c.benchmark_group("fig3_retraining_5_iters");
    group.sample_size(10);
    group.bench_function("basic", |b| {
        b.iter(|| {
            black_box(train_retraining_recorded(black_box(&encoded), None, &cfg, 1, &off).unwrap())
        })
    });
    group.bench_function("enhanced", |b| {
        b.iter(|| {
            black_box(train_enhanced_recorded(black_box(&encoded), None, &cfg, 1, &off).unwrap())
        })
    });
    group.finish();
}

testkit::bench_main!(bench_fig3_arms);
