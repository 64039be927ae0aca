//! `serve-ucihar` and `serve-distilled-churn`: a UCIHAR-shaped model served
//! by the `lehdc_serve` daemon over loopback TCP, plus the serving session
//! the traced `train-mnist` run reuses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hdc::RecordEncoder;
use hdc_datasets::{BenchmarkProfile, Dataset};
use lehdc::io::{load_bundle, save_bundle, ModelBundle};
use lehdc::EncodedDataset;

use crate::load::{
    closed_loop, one_at_a_time, open_loop, stats_delta, swap_loop, ClosedLoopResult, Daemon,
    OpenLoopResult, SequentialResult, StatsDelta, Traffic,
};
use crate::probes::{self, ProbeCtx};
use crate::trace::Tracer;
use crate::util::{median, quantile, Report, SeqRng};
use crate::{
    overhead, prepare, push, round_count, rows_of, Ctx, EncodeSeries, Prepared, Samples, THREADS,
};

/// Wall time of one round on the reference box (2 vCPUs): the round count
/// is `--seconds` divided by this, so every run does a fixed amount of work.
const ROUND_S: f64 = 4.2;

/// Load connections of the closed-loop phase (≤ the reference box's 2 cores).
const CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
const DEPTH: usize = 32;

/// How a serving session loads the daemon in each round.
pub struct LoadPlan {
    /// Open-loop Poisson arrival rate, requests per second.
    pub rate: f64,
    /// Open-loop time per round.
    pub open: Duration,
    /// Closed-loop throughput windows per round.
    pub windows: usize,
    /// Requests per closed-loop throughput window.
    pub window: usize,
    /// Requests per round sent one at a time on one connection.
    pub sequential: usize,
    /// Close and reopen the open-loop connection after this many requests.
    pub reconnect_every: Option<usize>,
    /// SWAP cadence of an admin thread running beside the load.
    pub swap_cadence: Option<Duration>,
    /// SWAPs per round after the load, with the daemon otherwise idle.
    pub quiet_swaps: usize,
}

pub struct Session {
    /// Per-round open-loop latency quantiles (each round's segment has
    /// more than 1,000 requests, so ≥ 10 beyond its p99).
    pub lat_p50_ms: Samples,
    pub lat_p99_ms: Samples,
    /// Per-round closed-loop requests per second (median window).
    pub rps: Samples,
    /// Per-round closed-loop requests per daemon CPU-second.
    pub rps_cpu: Samples,
    /// Round trips of the one-at-a-time requests.
    pub rtt_ms: Samples,
    pub open: OpenLoopResult,
    pub closed: ClosedLoopResult,
    pub swaps: Samples,
    pub delta: StatsDelta,
    pub daemon_threads: usize,
    /// Per-round peak resident set of the daemon.
    pub rss_mb: Samples,
}

/// Runs `rounds` rounds of `extra` (a unit of offline work), an open-loop
/// segment, closed-loop windows and the plan's quiet swaps against
/// `daemon`, so every timing samples the whole run. With a swap
/// cadence an admin thread swaps between `swap_paths` throughout. Daemon
/// counters are `STATS` deltas over all rounds.
#[allow(clippy::too_many_arguments)]
pub fn session(
    daemon: &Daemon,
    traffic: &Traffic<'_>,
    plan: &LoadPlan,
    swap_paths: &[String; 2],
    rounds: usize,
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
    mut extra: impl FnMut(bool, &mut Report) -> Result<(), String>,
) -> Result<Session, String> {
    let before = daemon.stats()?;
    let stop = AtomicBool::new(false);
    let never = AtomicBool::new(false);
    let mut open = OpenLoopResult::default();
    let mut closed = ClosedLoopResult::default();
    let mut swaps = Samples::default();
    let (mut lat_p50_ms, mut lat_p99_ms) = (Samples::default(), Samples::default());
    let mut rps = Samples::default();
    let mut rps_cpu = Samples::default();
    let mut rtt_ms = Samples::default();
    let mut rss_mb = Samples::default();
    let mut sequential = SequentialResult::default();
    let mut swap_failures = Vec::new();
    let mut err = None;
    std::thread::scope(|s| {
        let swapper = plan.swap_cadence.map(|cadence| {
            let (stop, addr) = (&stop, &daemon.addr);
            s.spawn(move || {
                let (mut epoch, mut rtts, mut failures) = (0, Samples::default(), Vec::new());
                swap_loop(
                    addr,
                    swap_paths,
                    cadence,
                    stop,
                    usize::MAX,
                    &mut epoch,
                    &mut rtts,
                    &mut failures,
                    tracer,
                );
                (rtts, failures)
            })
        });
        let mut epoch = 0;
        for round in 0..rounds {
            let traced = tracer.is_on() && round % 2 == 1;
            if let Err(e) = extra(traced, report) {
                err = Some(e);
                break;
            }
            if let Err(e) = daemon.reset_peak_rss() {
                err = Some(e);
                break;
            }
            let round_seed = hdc::rng::derive_seed(seed, round as u64);
            let segment = open_loop(
                &daemon.addr,
                traffic,
                plan.rate,
                plan.open,
                plan.reconnect_every,
                round_seed,
                traced,
                tracer,
            );
            push(&mut lat_p50_ms, traced, quantile(&segment.latency_ms, 0.5));
            push(&mut lat_p99_ms, traced, quantile(&segment.latency_ms, 0.99));
            open.merge(segment);
            let cpu0 = daemon.cpu_s();
            let segment = closed_loop(
                &daemon.addr,
                traffic,
                CONNS,
                DEPTH,
                plan.window,
                plan.windows,
                traced,
                tracer,
            );
            push(
                &mut rps,
                traced,
                plan.window as f64 / median(&segment.window_s),
            );
            match (cpu0, daemon.cpu_s()) {
                (Some(c0), Some(c1)) => push(
                    &mut rps_cpu,
                    traced,
                    (plan.window * plan.windows) as f64 / (c1 - c0),
                ),
                _ => {
                    err = Some("cannot read the daemon's CPU time".to_string());
                    break;
                }
            }
            closed.merge(segment);
            let seq = one_at_a_time(
                &daemon.addr,
                traffic,
                round * plan.sequential,
                plan.sequential,
                traced,
                tracer,
            );
            for &ms in &seq.rtt_ms {
                push(&mut rtt_ms, traced, ms);
            }
            sequential.attempted += seq.attempted;
            sequential.failures.extend(seq.failures);
            if plan.quiet_swaps > 0 {
                let cadence = Duration::from_millis(20);
                swap_loop(
                    &daemon.addr,
                    swap_paths,
                    cadence,
                    &never,
                    plan.quiet_swaps,
                    &mut epoch,
                    &mut swaps,
                    &mut swap_failures,
                    tracer,
                );
            }
            match daemon.peak_rss_mb() {
                Some(mb) => push(&mut rss_mb, traced, mb),
                None => {
                    err = Some("cannot read the daemon's VmHWM".to_string());
                    break;
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(h) = swapper {
            let (rtts, failures) = h.join().expect("swap thread panicked");
            swaps = rtts;
            swap_failures.extend(failures);
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    let after = daemon.stats()?;
    report.add_checked(
        (swaps.0.len() + swaps.1.len() + swap_failures.len()) as u64,
        swap_failures,
    );
    report.add_checked(open.attempted, std::mem::take(&mut open.failures));
    report.add_checked(closed.attempted, std::mem::take(&mut closed.failures));
    report.add_checked(sequential.attempted, sequential.failures);
    Ok(Session {
        lat_p50_ms,
        lat_p99_ms,
        rps,
        rps_cpu,
        rtt_ms,
        open,
        closed,
        swaps,
        delta: stats_delta(&before, &after),
        daemon_threads: daemon.threads().ok_or("cannot count daemon threads")?,
        rss_mb,
    })
}

/// The daemon-side and load-generator per-layer metrics of a session.
/// `encode_us` is the isolated one-thread `hdc` encode of the same rows and
/// `project_us` the served bundle's per-query projection, both from the
/// probes.
pub fn session_layers(
    report: &mut Report,
    s: &Session,
    serve_threads: usize,
    encode_us: f64,
    project_us: f64,
) {
    report.layer("serve.rps", median(&s.rps.0), "1/s");
    report.layer("serve.rps_per_cpu_s", median(&s.rps_cpu.0), "1/s");
    let d = &s.delta;
    let batch_mean = d.requests / d.batches;
    let encode_ns_per_req = d.encode_ns / d.requests;
    report.layer("serve.batch_size_mean", batch_mean, "count");
    report.layer("serve.encode_ns_per_req", encode_ns_per_req, "ns");
    report.layer(
        "serve.classify_ns_per_req",
        d.classify_ns / d.requests,
        "ns",
    );
    report.layer(
        "serve.queue_wait_ns_mean",
        d.queue_wait_ns / d.queue_waits,
        "ns",
    );
    report.layer("serve.metric_names", d.metric_names as f64, "count");
    report.layer("serve.threads", s.daemon_threads as f64, "count");
    report.layer(
        "serve.encode_inflation",
        encode_ns_per_req * serve_threads as f64 / (encode_us * 1e3),
        "ratio",
    );
    report.layer(
        "serve.project_share",
        project_us * 1e3 * batch_mean / (d.batch_ns / d.batches),
        "ratio",
    );
    let lag: Vec<f64> = s.open.lag_ms.clone();
    report.layer("loadgen.lag_p99_ms", quantile(&lag, 0.99), "ms");
    let connects: Vec<f64> = s
        .open
        .connect_ms
        .iter()
        .chain(&s.closed.connect_ms)
        .copied()
        .collect();
    report.layer("loadgen.connect_ms", median(&connects), "ms");
}

struct Shape {
    n_train: usize,
    n_query: usize,
    dim: usize,
    distill_dim: usize,
}

impl Shape {
    fn new(tiny: bool) -> Shape {
        if tiny {
            Shape {
                n_train: 120,
                n_query: 60,
                dim: 1024,
                distill_dim: 256,
            }
        } else {
            Shape {
                n_train: 2000,
                n_query: 1000,
                dim: 10_000,
                distill_dim: 2000,
            }
        }
    }
}

fn plan(ctx: &Ctx, churn: bool) -> LoadPlan {
    LoadPlan {
        rate: if ctx.tiny { 200.0 } else { 800.0 },
        open: Duration::from_millis(if ctx.tiny { 200 } else { 1500 }),
        windows: if ctx.tiny { 2 } else { 10 },
        window: if ctx.tiny { 64 } else { 512 },
        sequential: if ctx.tiny { 20 } else { 500 },
        reconnect_every: churn.then_some(if ctx.tiny { 20 } else { 100 }),
        swap_cadence: churn.then_some(Duration::from_millis(if ctx.tiny { 20 } else { 500 })),
        quiet_swaps: if churn { 0 } else { 8 },
    }
}

/// Everything set-up produces: the generated data, the fitted normalizer
/// and encoder, the saved bundles and the running daemon.
struct Setup {
    query_raw: Dataset,
    query_norm: Dataset,
    train_norm: Dataset,
    encoder: RecordEncoder,
    encoded_train: EncodedDataset,
    parent: ModelBundle,
    served: ModelBundle,
    paths: [String; 2],
    daemon: Daemon,
}

/// One timed set-up, saving the two swap bundles as `<name>_a.lehdc` and
/// `<name>_b.lehdc` and serving the first.
fn setup(
    ctx: &Ctx,
    shape: &Shape,
    churn: bool,
    name: &str,
    traced: bool,
    tracer: &Tracer,
    seconds: &mut Samples,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let root = tracer.span_if(traced, "setup", 0);
    let root_id = root.id();
    let Prepared {
        train: train_norm,
        test: query_norm,
        test_raw: query_raw,
        normalizer,
        encoder,
    } = prepare(
        BenchmarkProfile::ucihar(),
        shape.n_train,
        shape.n_query,
        shape.dim,
        ctx.seed,
        traced,
        tracer,
        root_id,
    )?;
    let encoded_train = {
        let _s = tracer.span_if(traced, "core.encode_all", root_id);
        EncodedDataset::encode(&train_norm, &encoder, THREADS).map_err(|e| e.to_string())?
    };
    // Serving cost does not depend on how the class hypervectors were
    // learned, so the served model is the Baseline bundle.
    let baseline = |train: &EncodedDataset| -> Result<ModelBundle, String> {
        let _s = tracer.span_if(traced, "core.baseline_fit", root_id);
        let model = lehdc::baseline::train_baseline_threaded(train, ctx.seed, THREADS)
            .map_err(|e| e.to_string())?;
        Ok(ModelBundle {
            model,
            encoder: encoder.clone(),
            normalizer: Some(normalizer.clone()),
            selection: None,
        })
    };
    let parent = baseline(&encoded_train)?;
    let (served, other) = if churn {
        // Bundle B distills a parent fitted with every label moved to the
        // next class, so A and B answer nearly every query differently
        // and a reply classified by the wrong epoch's model shows.
        let k = encoded_train.n_classes();
        let shifted = EncodedDataset::from_parts(
            encoded_train.hvs().to_vec(),
            encoded_train
                .labels()
                .iter()
                .map(|&y| (y + 1) % k)
                .collect(),
            k,
        )
        .map_err(|e| e.to_string())?;
        let parent_b = baseline(&shifted)?;
        let _s = tracer.span_if(traced, "core.model.distill", root_id);
        let a = parent
            .distill(shape.distill_dim)
            .map_err(|e| e.to_string())?;
        let b = parent_b
            .distill(shape.distill_dim)
            .map_err(|e| e.to_string())?;
        (a, b)
    } else {
        (parent.clone(), parent.clone())
    };
    let paths = [
        ctx.out_dir
            .join(format!("{name}_a.lehdc"))
            .display()
            .to_string(),
        ctx.out_dir
            .join(format!("{name}_b.lehdc"))
            .display()
            .to_string(),
    ];
    {
        let _s = tracer.span_if(traced, "core.io.save_bundle", root_id);
        save_bundle(&served, Path::new(&paths[0])).map_err(|e| e.to_string())?;
        save_bundle(&other, Path::new(&paths[1])).map_err(|e| e.to_string())?;
    }
    let daemon = {
        let _s = tracer.span_if(traced, "serve.spawn", root_id);
        Daemon::spawn(&ctx.serve_bin, Path::new(&paths[0]))?
    };
    drop(root);
    push(seconds, traced, t0.elapsed().as_secs_f64());
    Ok(Setup {
        query_raw,
        query_norm,
        train_norm,
        encoder,
        encoded_train,
        parent,
        served,
        paths,
        daemon,
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, churn: bool, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let shape = Shape::new(ctx.tiny);
    let mut setup_s = Samples::default();
    let st = setup(ctx, &shape, churn, "served", false, tracer, &mut setup_s)?;

    // The oracle: offline predictions of each saved bundle through the
    // batch path (`ModelBundle::classify_all`), not the daemon's batcher.
    let raw_rows = rows_of(&st.query_raw);
    let mut expected = Vec::new();
    let mut loaded = Vec::new();
    for path in &st.paths {
        let bundle = load_bundle(Path::new(path)).map_err(|e| e.to_string())?;
        let preds = bundle
            .classify_all(&raw_rows, THREADS)
            .map_err(|e| e.to_string())?;
        expected.push(preds.into_iter().map(|p| p as u32).collect::<Vec<u32>>());
        loaded.push(bundle);
    }
    let differing = expected[0]
        .iter()
        .zip(&expected[1])
        .filter(|(a, b)| a != b)
        .count();
    eprintln!(
        "oracle: bundles A and B disagree on {differing} of {} queries",
        raw_rows.len()
    );
    if churn {
        report.check(2 * differing > raw_rows.len(), || {
            format!(
                "bundles A and B disagree on only {differing} of {} queries, too few to check reply epochs",
                raw_rows.len()
            )
        });
    }
    let order = SeqRng::new(hdc::rng::derive_seed(ctx.seed, 0x0D3)).permutation(raw_rows.len());
    let traffic = Traffic {
        rows: &raw_rows,
        order: &order,
        expected: &expected,
    };

    // Each round also encodes the query corpus offline: the isolated
    // counterpart of the daemon's per-request encode.
    let load_plan = plan(ctx, churn);
    let mut encode = EncodeSeries::default();
    let mut batch_s = Samples::default();
    let rounds = round_count(ctx.seconds, ROUND_S);
    let sess = session(
        &st.daemon,
        &traffic,
        &load_plan,
        &st.paths,
        rounds,
        ctx.seed,
        tracer,
        report,
        |traced, report| {
            // A whole set-up beside the running daemon, so `setup_s`
            // samples the whole run; its bundles must match the first's.
            let again = setup(ctx, &shape, churn, "again", traced, tracer, &mut setup_s)?;
            let same = st
                .paths
                .iter()
                .zip(&again.paths)
                .all(|(a, b)| std::fs::read(a).ok() == std::fs::read(b).ok());
            report.check(same, || "a repeated set-up saved different bundles".into());
            again.daemon.stop()?;
            for p in &again.paths {
                let _ = std::fs::remove_file(p);
            }
            encode.unit(&st.query_norm, &st.encoder, traced, tracer, report)?;
            // The served bundle's batch path without the server: encode,
            // projection and classify of every query.
            let span = tracer.span_if(traced, "core.io.classify_all", 0);
            let t0 = Instant::now();
            let preds = loaded[0]
                .classify_all(&raw_rows, THREADS)
                .map_err(|e| e.to_string())?;
            push(&mut batch_s, traced, t0.elapsed().as_secs_f64());
            drop(span);
            let same = preds.iter().zip(&expected[0]).all(|(&p, &e)| p as u32 == e);
            report.check(same, || {
                "a repeated classify_all disagrees with the first".into()
            });
            Ok(())
        },
    )?;

    report.e2e("setup_s", median(&setup_s.0), "s");
    report.e2e("encode_s", median(&encode.seconds.0), "s");
    let per_s = |t: &[f64]| raw_rows.len() as f64 / median(t);
    report.e2e("throughput", per_s(&batch_s.0), "1/s");
    report.e2e("query_ms", median(&sess.rtt_ms.0), "ms");
    report.e2e("update_ms", median(&sess.swaps.0), "ms");
    report.layer("tail.lat_p50_ms", median(&sess.lat_p50_ms.0), "ms");
    report.layer("tail.lat_p99_ms", median(&sess.lat_p99_ms.0), "ms");
    let correct = expected[0]
        .iter()
        .zip(st.query_raw.labels())
        .filter(|(&p, &y)| p as usize == y)
        .count();
    report.e2e("accuracy", correct as f64 / raw_rows.len() as f64, "ratio");
    let bytes = std::fs::metadata(&st.paths[0])
        .map_err(|e| e.to_string())?
        .len();
    report.e2e("bundle_bytes", bytes as f64, "B");
    report.e2e("peak_rss_mb", median(&sess.rss_mb.0), "MB");
    eprintln!(
        "serve: {rounds} rounds; {} set-ups; serve_rps {:.1}; {} one-at-a-time round trips (p99 {:.3} ms); {} open-loop latencies at {} req/s (≥ {} beyond each round's p99), {} windows of {} requests, {} swaps",
        setup_s.0.len(),
        median(&sess.rps.0),
        sess.rtt_ms.0.len(),
        quantile(&sess.rtt_ms.0, 0.99),
        sess.open.latency_ms.len(),
        load_plan.rate,
        sess.open.latency_ms.len() / 100 / rounds,
        sess.closed.window_s.len(),
        load_plan.window,
        sess.swaps.0.len()
    );

    if tracer.is_on() {
        encode.report_layers(report);
        overhead(report, "setup_s", "s", &setup_s);
        overhead(report, "encode_s", "s", &encode.seconds);
        report.layer(
            "overhead.throughput",
            per_s(&batch_s.1) - per_s(&batch_s.0),
            "1/s",
        );
        overhead(report, "query_ms", "ms", &sess.rtt_ms);
        overhead(report, "update_ms", "ms", &sess.swaps);
        overhead(report, "lat_p50_ms", "ms", &sess.lat_p50_ms);
        overhead(report, "lat_p99_ms", "ms", &sess.lat_p99_ms);
        let probe = ProbeCtx {
            encoder: &st.encoder,
            rows: &st.train_norm,
            train: &st.encoded_train,
            queries: encode.corpus(),
            parent: &st.parent,
            bundle: &st.served,
            bundle_path: Path::new(&st.paths[0]),
            raw_rows: &raw_rows,
            distill_dim: shape.distill_dim,
            seed: ctx.seed,
            scratch_dir: &ctx.out_dir,
        };
        probes::run(&probe, tracer, report)?;
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
    st.daemon.stop()?;
    for p in &st.paths {
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
    Ok(())
}
