//! `train-mnist`: the training path at the paper's MNIST shape — corpus
//! encoding, LeHDC fits with the Table 2 MNIST hyper-parameters, and
//! Retraining fits through the `EpochEngine` — and the trained bundle's
//! single-query latency. No serving layer runs in the untraced run.

use std::time::{Duration, Instant};

use hdc_datasets::{BenchmarkProfile, Dataset};
use lehdc::io::{load_bundle, save_bundle, ModelBundle};
use lehdc::{EncodedDataset, HdcModel, LehdcConfig, RetrainConfig};

use crate::load::{Daemon, Traffic};
use crate::probes::{self, ProbeCtx};
use crate::serve::{session, session_layers, LoadPlan};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, quantile, Report, SeqRng};
use crate::{
    overhead, prepare, push, round_count, rows_of, Ctx, EncodeSeries, Prepared, Samples, THREADS,
};

/// Wall time of one round on the reference box (one thread): the round
/// count is `--seconds` divided by this, so every run does a fixed amount
/// of work.
const ROUND_S: f64 = 4.5;

struct Shape {
    n_train: usize,
    n_test: usize,
    dim: usize,
    epochs: usize,
    retrain_iterations: usize,
    latency_queries: usize,
    distill_dim: usize,
}

impl Shape {
    fn new(tiny: bool) -> Shape {
        if tiny {
            Shape {
                n_train: 200,
                n_test: 100,
                dim: 1024,
                epochs: 2,
                retrain_iterations: 5,
                latency_queries: 20,
                distill_dim: 256,
            }
        } else {
            Shape {
                n_train: 2000,
                n_test: 1000,
                dim: 10_000,
                epochs: 10,
                retrain_iterations: 600,
                latency_queries: 1000,
                distill_dim: 2000,
            }
        }
    }
}

/// Set-ups per round; `setup_s` is the median over all rounds' set-ups,
/// so it samples the whole run like every other timing.
const SETUPS_PER_ROUND: usize = 3;

/// One timed set-up: data generation, normalizer and encoder memories.
fn setup(
    ctx: &Ctx,
    shape: &Shape,
    traced: bool,
    tracer: &Tracer,
    seconds: &mut Samples,
) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let root = tracer.span_if(traced, "setup", 0);
    let st = prepare(
        BenchmarkProfile::mnist(),
        shape.n_train,
        shape.n_test,
        shape.dim,
        ctx.seed,
        traced,
        tracer,
        root.id(),
    )?;
    drop(root);
    push(seconds, traced, t0.elapsed().as_secs_f64());
    Ok(st)
}

/// Times one fixed-work fit and checks it yields the same class
/// hypervectors, bit for bit, as the first fit of its kind.
fn fit_unit(
    span: &'static str,
    traced: bool,
    tracer: &Tracer,
    seconds: &mut Samples,
    first: &mut Option<HdcModel>,
    report: &mut Report,
    fit: impl FnOnce() -> Result<HdcModel, String>,
) -> Result<(), String> {
    let s = tracer.span_if(traced, span, 0);
    let t0 = Instant::now();
    let model = fit()?;
    push(seconds, traced, t0.elapsed().as_secs_f64());
    drop(s);
    match first {
        None => *first = Some(model),
        Some(m) => report.check(*m == model, || {
            format!("a repeated {span} trained different class hypervectors")
        }),
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let shape = Shape::new(ctx.tiny);
    let mut setup_s = Samples::default();
    let st = setup(ctx, &shape, false, tracer, &mut setup_s)?;

    // The corpus each encode unit encodes: train and test split together.
    let both = Dataset::new(
        "mnist-train+test",
        st.train
            .features()
            .iter()
            .chain(st.test.features())
            .copied()
            .collect(),
        st.train
            .labels()
            .iter()
            .chain(st.test.labels())
            .copied()
            .collect(),
        st.train.n_features(),
        st.train.n_classes(),
    )
    .map_err(|e| e.to_string())?;
    let n_train = st.train.len();
    let lehdc_cfg = LehdcConfig::for_benchmark("MNIST")
        .with_epochs(shape.epochs)
        .with_seed(ctx.seed)
        .with_threads(THREADS);
    let retrain_cfg = RetrainConfig {
        iterations: shape.retrain_iterations,
        ..RetrainConfig::default()
    };
    let disabled = obs::Recorder::disabled();
    let path = ctx.out_dir.join("lehdc_mnist.lehdc");
    let raw_rows = rows_of(&st.test_raw);

    // Rounds of one unit of every kind, so each timing samples the whole
    // run rather than one stretch of it.
    let mut encode = EncodeSeries::default();
    let (mut lehdc_s, mut retrain_s) = (Samples::default(), Samples::default());
    // Per-round quantiles of the round's single-query latencies.
    let (mut lat_p50_ms, mut lat_p99_ms) = (Samples::default(), Samples::default());
    // Every single-query latency of the run.
    let mut query_ms = Samples::default();
    let (mut lehdc_model, mut retrain_model) = (None, None);
    let mut split: Option<(EncodedDataset, EncodedDataset)> = None;
    let mut deployed: Option<(ModelBundle, u64, Vec<usize>)> = None;
    let rounds = round_count(ctx.seconds, ROUND_S);
    for round in 0..rounds {
        let traced = tracer.is_on() && round % 2 == 1;
        for _ in 0..SETUPS_PER_ROUND {
            let again = setup(ctx, &shape, traced, tracer, &mut setup_s)?;
            report.check(again.train == st.train && again.test == st.test, || {
                "a repeated set-up generated different data".into()
            });
        }
        encode.unit(&both, &st.encoder, traced, tracer, report)?;
        let (train, test) = split.get_or_insert_with(|| {
            let corpus = encode.corpus();
            let part = |range: std::ops::Range<usize>| {
                EncodedDataset::from_parts(
                    corpus.hvs()[range.clone()].to_vec(),
                    corpus.labels()[range].to_vec(),
                    corpus.n_classes(),
                )
                .expect("a slice of a valid corpus is valid")
            };
            (part(0..n_train), part(n_train..corpus.len()))
        });
        fit_unit(
            "lehdc.fit",
            traced,
            tracer,
            &mut lehdc_s,
            &mut lehdc_model,
            report,
            || {
                lehdc::train_lehdc(train, Some(test), &lehdc_cfg)
                    .map(|(m, _)| m)
                    .map_err(|e| e.to_string())
            },
        )?;
        fit_unit(
            "retrain.fit",
            traced,
            tracer,
            &mut retrain_s,
            &mut retrain_model,
            report,
            || {
                lehdc::retrain::train_retraining_recorded(
                    train,
                    None,
                    &retrain_cfg,
                    THREADS,
                    &disabled,
                )
                .map(|(m, _)| m)
                .map_err(|e| e.to_string())
            },
        )?;

        // Deploy the first LeHDC model: save the bundle, load it back, and
        // take the batch path's predictions as the single-query oracle.
        if deployed.is_none() {
            let bundle = ModelBundle {
                model: lehdc_model.clone().expect("a LeHDC fit ran"),
                encoder: st.encoder.clone(),
                normalizer: Some(st.normalizer.clone()),
                selection: None,
            };
            save_bundle(&bundle, &path).map_err(|e| e.to_string())?;
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            let loaded = load_bundle(&path).map_err(|e| e.to_string())?;
            report.check(loaded.model == bundle.model, || {
                "the loaded bundle differs from the saved model".into()
            });
            let oracle = loaded
                .classify_all(&raw_rows, THREADS)
                .map_err(|e| e.to_string())?;
            deployed = Some((loaded, bytes, oracle));
        }
        let (loaded, _, oracle) = deployed.as_ref().expect("deployed above");
        // Single queries, one at a time, as an embedded caller sends them.
        let mut lat_ms = Vec::with_capacity(shape.latency_queries);
        for q in 0..shape.latency_queries {
            let row = (round * shape.latency_queries + q) % raw_rows.len();
            let s = tracer.span_if(traced, "core.io.classify", 0);
            let t0 = Instant::now();
            let got = loaded.classify(&raw_rows[row]);
            lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(s);
            report.check(matches!(got, Ok(c) if c == oracle[row]), || {
                format!("row {row}: the single-query class differs from the batch path")
            });
        }
        push(&mut lat_p50_ms, traced, quantile(&lat_ms, 0.5));
        push(&mut lat_p99_ms, traced, quantile(&lat_ms, 0.99));
        for ms in lat_ms {
            push(&mut query_ms, traced, ms);
        }
    }
    let (train, test) = split.expect("at least one round ran");
    let (bundle, bundle_bytes, oracle) = deployed.expect("at least one round ran");

    let samples_per_fit = (n_train * shape.epochs) as f64;
    report.e2e("setup_s", median(&setup_s.0), "s");
    report.e2e("encode_s", median(&encode.seconds.0), "s");
    report.e2e("throughput", samples_per_fit / median(&lehdc_s.0), "1/s");
    report.e2e("query_ms", median(&query_ms.0), "ms");
    report.e2e("update_ms", median(&retrain_s.0) * 1e3, "ms");
    report.layer("tail.lat_p50_ms", median(&lat_p50_ms.0), "ms");
    report.layer("tail.lat_p99_ms", median(&lat_p99_ms.0), "ms");
    report.e2e(
        "accuracy",
        bundle
            .model
            .accuracy_threaded(test.hvs(), test.labels(), THREADS),
        "ratio",
    );
    report.e2e("bundle_bytes", bundle_bytes as f64, "B");
    report.e2e(
        "peak_rss_mb",
        peak_rss_mb("self").ok_or("cannot read VmHWM")?,
        "MB",
    );
    eprintln!(
        "train: {rounds} rounds; lehdc_fit_s {:.4} ({} epochs), retrain_fit_s {:.4} ({} iterations), {} single queries (p99 {:.4} ms)",
        median(&lehdc_s.0),
        shape.epochs,
        median(&retrain_s.0),
        shape.retrain_iterations,
        query_ms.0.len(),
        quantile(&query_ms.0, 0.99)
    );

    if tracer.is_on() {
        encode.report_layers(report);
        overhead(report, "setup_s", "s", &setup_s);
        overhead(report, "encode_s", "s", &encode.seconds);
        let tp = |t: &[f64]| samples_per_fit / median(t);
        report.layer(
            "overhead.throughput",
            tp(&lehdc_s.1) - tp(&lehdc_s.0),
            "1/s",
        );
        let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
        overhead(
            report,
            "update_ms",
            "ms",
            &(ms(&retrain_s.0), ms(&retrain_s.1)),
        );
        overhead(report, "query_ms", "ms", &query_ms);
        overhead(report, "lat_p50_ms", "ms", &lat_p50_ms);
        overhead(report, "lat_p99_ms", "ms", &lat_p99_ms);

        let probe = ProbeCtx {
            encoder: &st.encoder,
            rows: &st.train,
            train: &train,
            queries: &test,
            parent: &bundle,
            bundle: &bundle,
            bundle_path: &path,
            raw_rows: &raw_rows,
            distill_dim: shape.distill_dim,
            seed: ctx.seed,
            scratch_dir: &ctx.out_dir,
        };
        probes::run(&probe, tracer, report)?;

        // The serving layers at MNIST shape: a short session against the
        // daemon serving the trained bundle (traced run only).
        let daemon = Daemon::spawn(&ctx.serve_bin, &path)?;
        let expected = vec![oracle.iter().map(|&p| p as u32).collect::<Vec<u32>>()];
        let order = SeqRng::new(hdc::rng::derive_seed(ctx.seed, 0x0D3)).permutation(raw_rows.len());
        let traffic = Traffic {
            rows: &raw_rows,
            order: &order,
            expected: &expected,
        };
        let plan = LoadPlan {
            rate: if ctx.tiny { 200.0 } else { 400.0 },
            open: Duration::from_millis(750),
            windows: 4,
            window: if ctx.tiny { 64 } else { 256 },
            sequential: if ctx.tiny { 20 } else { 200 },
            reconnect_every: None,
            swap_cadence: None,
            quiet_swaps: 0,
        };
        let path_s = path.display().to_string();
        let sess = session(
            &daemon,
            &traffic,
            &plan,
            &[path_s.clone(), path_s],
            2,
            ctx.seed,
            tracer,
            report,
            |_, _| Ok(()),
        )?;
        daemon.stop()?;
        let encode_us = report.layer_value("hdc.encode_us");
        let project_us = report.layer_value("core.io.project_us");
        session_layers(
            report,
            &sess,
            lehdc_serve::ServeConfig::default().threads,
            encode_us,
            project_us,
        );
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}
