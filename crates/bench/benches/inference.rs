//! Inference latency — the paper's "zero resource and time overhead during
//! inference" claim made measurable.
//!
//! A LeHDC-trained model and a baseline-trained model are the *same
//! artifact* (K packed hypervectors), so their classification latency is
//! identical; the multi-model strategy pays `n×` that cost.

use testkit::bench::{Bench, BenchmarkId};
use lehdc::baseline::train_baseline_threaded;
use lehdc::lehdc_trainer::train_lehdc;
use lehdc::multimodel::{train_multimodel_recorded, MultiModelConfig};
use lehdc::LehdcConfig;
use lehdc_bench::bench_encoded;
use std::hint::black_box;

fn bench_classify_baseline_vs_lehdc(c: &mut Bench) {
    let mut group = c.benchmark_group("classify_one");
    for &d in &[1024usize, 4096, 10_000] {
        let encoded = bench_encoded(d);
        let query = encoded.hvs()[0].clone();
        let baseline = train_baseline_threaded(&encoded, 0, 1).unwrap();
        let cfg = LehdcConfig::quick().with_epochs(3);
        let (learned, _) = train_lehdc(&encoded, None, &cfg).unwrap();
        group.bench_with_input(
            BenchmarkId::new("baseline_model", d),
            &d,
            |bencher, _| bencher.iter(|| black_box(baseline.classify(black_box(&query)))),
        );
        group.bench_with_input(BenchmarkId::new("lehdc_model", d), &d, |bencher, _| {
            bencher.iter(|| black_box(learned.classify(black_box(&query))))
        });
    }
    group.finish();
}

fn bench_classify_multimodel(c: &mut Bench) {
    let mut group = c.benchmark_group("classify_one_multimodel");
    let encoded = bench_encoded(2048);
    let query = encoded.hvs()[0].clone();
    for &n in &[4usize, 16, 64] {
        let cfg = MultiModelConfig {
            models_per_class: n,
            iterations: 1,
            flip_rate: 0.2,
            seed: 1,
        };
        let off = obs::Recorder::disabled();
        let (mm, _) = train_multimodel_recorded(&encoded, None, &cfg, 1, &off).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| black_box(mm.classify(black_box(&query))))
        });
    }
    group.finish();
}

testkit::bench_main!(bench_classify_baseline_vs_lehdc, bench_classify_multimodel);
