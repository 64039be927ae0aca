//! Per-layer probes for the traced run: fixed, small amounts of work that
//! call each layer's public functions directly, at the workload's shape,
//! with one span per call. Every workload runs every probe, so every
//! per-layer metric exists on every workload.

use std::path::Path;
use std::time::Duration;

use binnet::{softmax_cross_entropy_into, Adam, BinaryLinear, Dropout, Matrix, PackedMatrix};
use hdc::{BinaryHv, Encode, EncodeScratch, RecordEncoder};
use hdc_datasets::Dataset;
use lehdc::io::{load_bundle, save_bundle, ModelBundle};
use lehdc::{EncodedDataset, EpochEngine, HdcModel, VoteLedger};
use lehdc_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use lehdc_serve::queue::RingBuffer;
use lehdc_serve::ModelState;

use crate::trace::Tracer;
use crate::util::{median, Report, SeqRng};
use crate::THREADS;

/// Everything the probes run on, at the workload's own shape.
pub struct ProbeCtx<'a> {
    pub encoder: &'a RecordEncoder,
    /// Normalized rows, encoded one at a time by the `hdc` probe.
    pub rows: &'a Dataset,
    /// Training corpus for the `binnet` step and the retraining iteration.
    pub train: &'a EncodedDataset,
    /// Queries for the eval/classify/project probes, at encoder dimension.
    pub queries: &'a EncodedDataset,
    /// The full-dimension model the distillation probe starts from.
    pub parent: &'a ModelBundle,
    /// The bundle the workload serves or saves.
    pub bundle: &'a ModelBundle,
    pub bundle_path: &'a Path,
    /// Raw feature rows, the payloads of the protocol and queue probes.
    pub raw_rows: &'a [Vec<f32>],
    pub distill_dim: usize,
    pub seed: u64,
    pub scratch_dir: &'a Path,
}

fn median_of(tracer: &Tracer, name: &str, scale: f64) -> f64 {
    let d = tracer.durations_ns(name);
    if d.is_empty() {
        return f64::NAN;
    }
    median(&d) / scale
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Runs every probe and reports its per-layer metrics.
pub fn run(ctx: &ProbeCtx<'_>, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let root = tracer.span("probes", 0);
    let root = root.id();

    // hdc: one record at a time, one thread.
    let n = ctx.rows.len().min(200);
    let mut scratch = EncodeScratch::new(ctx.encoder.dim());
    let mut hv = BinaryHv::zeros(ctx.encoder.dim());
    for i in 0..n {
        let _s = tracer.span("hdc.encode_into", root);
        ctx.encoder
            .encode_into(ctx.rows.row(i), &mut scratch, &mut hv)
            .map_err(|e| e.to_string())?;
    }
    let encode_us = median_of(tracer, "hdc.encode_into", US);
    report.layer("hdc.encode_us", encode_us, "us");

    // threadpool: the corpus encode fanned out over the daemon's pool width.
    let width = lehdc_serve::ServeConfig::default().threads;
    let jobs0 = threadpool::dispatched_jobs();
    for _ in 0..3 {
        let _s = tracer.span("threadpool.encode_pooled", root);
        EncodedDataset::encode(ctx.rows, ctx.encoder, width).map_err(|e| e.to_string())?;
    }
    let jobs = (threadpool::dispatched_jobs() - jobs0) as f64 / 3.0;
    report.layer("threadpool.jobs", jobs, "count");
    let wall_us = median_of(tracer, "threadpool.encode_pooled", US);
    report.layer(
        "threadpool.encode_efficiency",
        ctx.rows.len() as f64 * encode_us / (width as f64 * wall_us),
        "ratio",
    );

    binnet_steps(ctx, tracer, root)?;
    for (metric, span) in [
        ("binnet.assembly_us", "binnet.assembly"),
        ("binnet.forward_us", "binnet.forward"),
        ("binnet.backward_us", "binnet.backward"),
        ("binnet.optimizer_us", "binnet.optimizer"),
    ] {
        report.layer(metric, median_of(tracer, span, US), "us");
    }

    retrain_iterations(ctx, tracer, root)?;
    report.layer(
        "core.engine.classify_ms",
        median_of(tracer, "core.engine.classify_epoch", MS),
        "ms",
    );
    report.layer(
        "core.engine.update_ms",
        median_of(tracer, "core.engine.update", MS),
        "ms",
    );
    report.layer(
        "core.model.resign_ms",
        median_of(tracer, "core.model.resign", MS),
        "ms",
    );

    // core::model on the bundle's own (possibly projected) queries.
    let model = &ctx.bundle.model;
    let queries: Vec<BinaryHv> = ctx
        .queries
        .hvs()
        .iter()
        .map(|q| ctx.bundle.project_query(q.clone()))
        .collect();
    for _ in 0..5 {
        let _s = tracer.span("core.model.accuracy_threaded", root);
        std::hint::black_box(model.accuracy_threaded(&queries, ctx.queries.labels(), THREADS));
    }
    report.layer(
        "core.model.eval_ms",
        median_of(tracer, "core.model.accuracy_threaded", MS),
        "ms",
    );
    let block = hdc::kernels::query_block_for(model.dim().words());
    for batch in queries.chunks(64) {
        let _s = tracer.span("core.model.classify_all_blocked", root);
        std::hint::black_box(model.classify_all_blocked(batch, block, THREADS));
    }
    report.layer(
        "core.model.classify_us",
        median_of(tracer, "core.model.classify_all_blocked", US),
        "us",
    );

    // core::io / format.
    let path = ctx.scratch_dir.join("probe.lehdc");
    for _ in 0..10 {
        let _s = tracer.span("core.io.save_bundle", root);
        save_bundle(ctx.bundle, &path).map_err(|e| e.to_string())?;
    }
    for _ in 0..10 {
        let _s = tracer.span("core.io.load_bundle", root);
        std::hint::black_box(load_bundle(&path).map_err(|e| e.to_string())?);
    }
    let _ = std::fs::remove_file(&path);
    report.layer(
        "core.io.save_ms",
        median_of(tracer, "core.io.save_bundle", MS),
        "ms",
    );
    report.layer(
        "core.io.load_ms",
        median_of(tracer, "core.io.load_bundle", MS),
        "ms",
    );
    for q in ctx.queries.hvs().iter().take(200) {
        let q = q.clone();
        let _s = tracer.span("core.io.project_query", root);
        std::hint::black_box(ctx.bundle.project_query(q));
    }
    report.layer(
        "core.io.project_us",
        median_of(tracer, "core.io.project_query", US),
        "us",
    );
    for _ in 0..5 {
        let _s = tracer.span("core.model.distill", root);
        std::hint::black_box(
            ctx.parent
                .distill(ctx.distill_dim)
                .map_err(|e| e.to_string())?,
        );
    }
    report.layer(
        "core.model.distill_ms",
        median_of(tracer, "core.model.distill", MS),
        "ms",
    );

    // serve::protocol: request and response encode/decode round trip.
    let mut frame = Vec::new();
    for row in ctx.raw_rows.iter().take(200) {
        let req = Request::Classify(row.clone());
        let _s = tracer.span("serve.protocol", root);
        encode_request(&req, &mut frame);
        let decoded = decode_request(&frame[4..])?;
        encode_response(&Response::Classified { class: 1, epoch: 2 }, &mut frame);
        let reply = decode_response(&frame[4..])?;
        std::hint::black_box((decoded, reply));
    }
    report.layer(
        "serve.protocol_us",
        median_of(tracer, "serve.protocol", US),
        "us",
    );

    // serve::queue: push one full batch, then drain it.
    let ring = RingBuffer::new(1024);
    let mut out = Vec::with_capacity(64);
    for _ in 0..50 {
        let items: Vec<Vec<f32>> = ctx.raw_rows.iter().cycle().take(64).cloned().collect();
        let _s = tracer.span("serve.queue", root);
        for item in items {
            ring.push(item).map_err(|_| "ring closed".to_string())?;
        }
        ring.recv_batch(&mut out, 64, Duration::from_micros(200))
            .map_err(|_| "ring closed".to_string())?;
    }
    report.layer("serve.queue_us", median_of(tracer, "serve.queue", US), "us");

    // serve::state: a hot swap from disk.
    let state = ModelState::new(ctx.bundle.clone());
    for _ in 0..10 {
        let _s = tracer.span("serve.swap_from", root);
        state
            .swap_from(ctx.bundle_path)
            .map_err(|e| e.to_string())?;
    }
    report.layer(
        "serve.swap_from_ms",
        median_of(tracer, "serve.swap_from", MS),
        "ms",
    );
    Ok(())
}

/// LeHDC mini-batch steps replayed through `binnet`'s public calls, as the
/// trainer runs them (paper Table 2 MNIST row: B = 64, dropout 0.5, Adam).
fn binnet_steps(ctx: &ProbeCtx<'_>, tracer: &Tracer, root: u64) -> Result<(), String> {
    let train = ctx.train;
    let (d, k) = (train.dim().get(), train.n_classes());
    let cfg = lehdc::LehdcConfig::for_benchmark("MNIST");
    let b = cfg.batch_size.min(train.len());
    let pool = threadpool::ThreadPool::new(THREADS);
    let mut layer = BinaryLinear::new(d, k, ctx.seed).with_threads(THREADS);
    let mut opt = Adam::new(cfg.learning_rate).weight_decay(cfg.weight_decay);
    let mut dropout = Dropout::new(cfg.dropout, ctx.seed).map_err(|e| e.to_string())?;
    let mut rng = SeqRng::new(hdc::rng::derive_seed(ctx.seed, 0xB17));
    let mut x = PackedMatrix::empty();
    let mut labels = Vec::with_capacity(b);
    let mut logits = Matrix::zeros(b, k);
    let mut dlogits = Matrix::zeros(b, k);
    let mut grad = Matrix::zeros(d, k);
    for _ in 0..30 {
        let order = rng.permutation(train.len());
        let step = tracer.span("binnet.step", root);
        {
            let _s = tracer.span("binnet.assembly", step.id());
            train.packed_batch_pooled_into(&order[..b], &pool, &mut x, &mut labels);
        }
        let mask = {
            let _s = tracer.span("binnet.forward", step.id());
            let mask = dropout.sample_mask(d).expect("dropout rate is nonzero");
            layer.forward_packed_masked_into(&x, &mask, &mut logits);
            logits.scale(mask.scale());
            mask
        };
        {
            let _s = tracer.span("binnet.backward", step.id());
            softmax_cross_entropy_into(&logits, &labels, &mut dlogits)
                .map_err(|e| e.to_string())?;
            dlogits.scale(mask.scale());
            layer.backward_packed_into(&x, Some(&mask), &dlogits, &mut grad);
        }
        let _s = tracer.span("binnet.optimizer", step.id());
        layer.apply_gradient_fused(&grad, &mut opt, cfg.grad_clip, None);
    }
    Ok(())
}

/// Retraining iterations replayed through the `EpochEngine`, `VoteLedger`
/// and `HdcModel::resign_class` public calls.
fn retrain_iterations(ctx: &ProbeCtx<'_>, tracer: &Tracer, root: u64) -> Result<(), String> {
    let train = ctx.train;
    let engine = EpochEngine::new(THREADS);
    let mut nonbinary =
        lehdc::baseline::accumulate_class_sums_pooled(train, THREADS).map_err(|e| e.to_string())?;
    let mut model =
        HdcModel::new(nonbinary.iter().map(|c| c.sign()).collect()).map_err(|e| e.to_string())?;
    let mut ledger = VoteLedger::new(train.n_classes(), train.dim());
    let alpha = lehdc::RetrainConfig::default().alpha;
    for _ in 0..10 {
        let iter = tracer.span("core.engine.iteration", root);
        let predictions = {
            let _s = tracer.span("core.engine.classify_epoch", iter.id());
            engine.classify_epoch(&model, train.hvs())
        };
        {
            let _s = tracer.span("core.engine.update", iter.id());
            ledger.clear();
            for (i, &p) in predictions.iter().enumerate() {
                let (hv, label) = train.sample(i);
                if p != label {
                    ledger.record(hv, label, p);
                }
            }
            ledger.apply(&mut nonbinary, alpha, engine.pool());
        }
        let _s = tracer.span("core.model.resign", iter.id());
        for k in ledger.touched_classes() {
            model.resign_class(k, &nonbinary[k]);
        }
    }
    Ok(())
}
