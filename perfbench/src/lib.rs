//! End-to-end and per-layer benchmark of the LeHDC workspace.
//!
//! ```text
//! perfbench --workload <train-mnist|serve-ucihar|serve-distilled-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --serve-bin <path to lehdc_serve> [--size tiny]
//! ```
//!
//! `perfbench/run.sh` builds the daemon and this program and passes
//! `--serve-bin`. The workload seed generates every input; the program under
//! test receives only generated data. A run is a fixed number of rounds of
//! one fixed-work unit of every kind; every end-to-end timing is the median
//! over its units. With `--trace 1` every other unit is traced (spans
//! around the benchmark's calls into each layer), layer
//! probes run at the workload's shape, the spans are written to
//! `.bench_out/`, and the per-layer metrics are reported, including the
//! tracing overhead (traced minus untraced) of each end-to-end timing.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A wrong output makes the exit code nonzero.

pub mod load;
pub mod probes;
pub mod serve;
pub mod trace;
pub mod train;
pub mod util;

use std::path::PathBuf;
use std::time::Instant;

use hdc::{Dim, RecordEncoder};
use hdc_datasets::{BenchmarkProfile, Dataset, MinMaxNormalizer};
use lehdc::EncodedDataset;

use crate::trace::Tracer;
use crate::util::{median, Report};

/// End-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("encode_s", "s"),
    ("throughput", "1/s"),
    ("query_ms", "ms"),
    ("update_ms", "ms"),
    ("accuracy", "ratio"),
    ("bundle_bytes", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("datasets.normalize_s", "s"),
    ("hdc.encode_us", "us"),
    ("core.encode_all_s", "s"),
    ("threadpool.encode_efficiency", "ratio"),
    ("threadpool.jobs", "count"),
    ("binnet.assembly_us", "us"),
    ("binnet.forward_us", "us"),
    ("binnet.backward_us", "us"),
    ("binnet.optimizer_us", "us"),
    ("core.engine.classify_ms", "ms"),
    ("core.engine.update_ms", "ms"),
    ("core.model.resign_ms", "ms"),
    ("core.model.eval_ms", "ms"),
    ("core.model.classify_us", "us"),
    ("core.io.save_ms", "ms"),
    ("core.io.load_ms", "ms"),
    ("core.io.project_us", "us"),
    ("core.model.distill_ms", "ms"),
    ("serve.protocol_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.swap_from_ms", "ms"),
    ("serve.rps", "1/s"),
    ("serve.rps_per_cpu_s", "1/s"),
    ("serve.batch_size_mean", "count"),
    ("serve.encode_ns_per_req", "ns"),
    ("serve.classify_ns_per_req", "ns"),
    ("serve.queue_wait_ns_mean", "ns"),
    ("serve.metric_names", "count"),
    ("serve.threads", "count"),
    ("serve.encode_inflation", "ratio"),
    ("serve.project_share", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.connect_ms", "ms"),
    ("tail.lat_p50_ms", "ms"),
    ("tail.lat_p99_ms", "ms"),
    ("overhead.setup_s", "s"),
    ("overhead.encode_s", "s"),
    ("overhead.throughput", "1/s"),
    ("overhead.query_ms", "ms"),
    ("overhead.update_ms", "ms"),
    ("overhead.lat_p50_ms", "ms"),
    ("overhead.lat_p99_ms", "ms"),
];

/// Worker threads for the benchmark's own encodes, fits and oracle: one,
/// because a fork-join over both vCPUs of the reference VM is not steady
/// from run to run.
pub const THREADS: usize = 1;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
    /// Tiny shapes for the benchmark's own smoke test.
    pub tiny: bool,
}

/// Raw feature rows of a dataset, one `Vec` per sample.
pub fn rows_of(data: &Dataset) -> Vec<Vec<f32>> {
    (0..data.len()).map(|i| data.row(i).to_vec()).collect()
}

/// Generated data, normalized with a normalizer fitted on its training
/// split, and the encoder for its feature count: the set-up every workload
/// starts with.
pub struct Prepared {
    pub train: Dataset,
    pub test: Dataset,
    /// The test split before normalization, as a client sends it.
    pub test_raw: Dataset,
    pub normalizer: MinMaxNormalizer,
    pub encoder: RecordEncoder,
}

/// Generates `profile` at `n_train` + `n_test` samples from `seed`,
/// normalizes it and builds a `dim`-bit encoder, with spans under `root`
/// when `traced`.
#[allow(clippy::too_many_arguments)]
pub fn prepare(
    profile: BenchmarkProfile,
    n_train: usize,
    n_test: usize,
    dim: usize,
    seed: u64,
    traced: bool,
    tracer: &Tracer,
    root: u64,
) -> Result<Prepared, String> {
    let data = {
        let _s = tracer.span_if(traced, "datasets.generate", root);
        profile
            .with_samples(n_train, n_test)
            .generate(seed)
            .map_err(|e| e.to_string())?
    };
    let (normalizer, train, test) = {
        let _s = tracer.span_if(traced, "datasets.normalize", root);
        let normalizer = MinMaxNormalizer::fit(&data.train).map_err(|e| e.to_string())?;
        let (mut train, mut test) = (data.train.clone(), data.test.clone());
        normalizer.apply(&mut train);
        normalizer.apply(&mut test);
        (normalizer, train, test)
    };
    let encoder = {
        let _s = tracer.span_if(traced, "hdc.encoder_build", root);
        RecordEncoder::builder(Dim::new(dim), train.n_features())
            .levels(32)
            .value_range(0.0, 1.0)
            .seed(seed)
            .build()
            .map_err(|e| e.to_string())?
    };
    Ok(Prepared {
        train,
        test,
        test_raw: data.test,
        normalizer,
        encoder,
    })
}

/// Reports `overhead.<name>`: the traced median minus the untraced median.
pub fn overhead(report: &mut Report, name: &str, unit: &'static str, times: &Samples) {
    report.layer(
        &format!("overhead.{name}"),
        median(&times.1) - median(&times.0),
        unit,
    );
}

/// Rounds for a run of `seconds` whose rounds take `round_s` each on the
/// reference box (at least two, so a traced run has both kinds).
pub fn round_count(seconds: f64, round_s: f64) -> usize {
    ((seconds / round_s).round() as usize).max(2)
}

/// Untraced and traced samples of one timing.
pub type Samples = (Vec<f64>, Vec<f64>);

pub fn push(samples: &mut Samples, traced: bool, value: f64) {
    if traced {
        samples.1.push(value);
    } else {
        samples.0.push(value);
    }
}

/// Repeated corpus encodes (`EncodedDataset::encode`), each checked
/// bit-identical to the first.
#[derive(Default)]
pub struct EncodeSeries {
    pub seconds: Samples,
    first: Option<EncodedDataset>,
}

impl EncodeSeries {
    /// Encodes `data` once, timing it.
    pub fn unit(
        &mut self,
        data: &Dataset,
        encoder: &RecordEncoder,
        traced: bool,
        tracer: &Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        let span = tracer.span_if(traced, "core.encode_all", 0);
        let t0 = Instant::now();
        let encoded = EncodedDataset::encode(data, encoder, THREADS).map_err(|e| e.to_string())?;
        let dt = t0.elapsed().as_secs_f64();
        drop(span);
        push(&mut self.seconds, traced, dt);
        match &self.first {
            None => self.first = Some(encoded),
            Some(f) => report.check(f.hvs() == encoded.hvs(), || {
                "a repeated corpus encode differs from the first".into()
            }),
        }
        Ok(())
    }

    /// The first encoded corpus.
    pub fn corpus(&self) -> &EncodedDataset {
        self.first.as_ref().expect("at least one encode ran")
    }

    /// In trace mode, reports `core.encode_all_s`.
    pub fn report_layers(&self, report: &mut Report) {
        report.layer("core.encode_all_s", median(&self.seconds.1), "s");
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["train-mnist", "serve-ucihar", "serve-distilled-churn"];

/// Runs one workload and returns what it measured and checked.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    match ctx.workload.as_str() {
        "train-mnist" => train::run(ctx, tracer, &mut report)?,
        "serve-ucihar" => serve::run(ctx, false, tracer, &mut report)?,
        "serve-distilled-churn" => serve::run(ctx, true, tracer, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    if tracer.is_on() {
        for (metric, span) in [
            ("datasets.generate_s", "datasets.generate"),
            ("datasets.normalize_s", "datasets.normalize"),
        ] {
            let d = tracer.durations_ns(span);
            report.layer(
                metric,
                if d.is_empty() {
                    f64::NAN
                } else {
                    median(&d) * 1e-9
                },
                "s",
            );
        }
    }
    Ok(report)
}

/// The declared metrics (`END_TO_END`, or `PER_LAYER` when traced) that
/// the report lacks, repeats, gives a non-finite value or a wrong unit, and
/// any metric it reports that is not declared.
pub fn metric_problems(report: &Report, trace: bool) -> Vec<String> {
    let (reported, declared) = if trace {
        (&report.per_layer, PER_LAYER)
    } else {
        (&report.end_to_end, END_TO_END)
    };
    let mut problems = Vec::new();
    for (name, unit) in declared {
        let found: Vec<_> = reported.iter().filter(|m| m.name == *name).collect();
        if found.len() != 1 || found[0].unit != *unit || !found[0].value.is_finite() {
            problems.push(format!(
                "metric {name} missing, repeated, non-finite or not in {unit}"
            ));
        }
    }
    for m in reported {
        if !declared.iter().any(|(name, _)| *name == m.name) {
            problems.push(format!("metric {} is not declared", m.name));
        }
    }
    problems
}
