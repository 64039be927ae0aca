//! `perfbench` binary: parses its arguments, runs one workload
//! and prints the metrics, ending with the JSON result line.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::trace::Tracer;
use perfbench::util;
use perfbench::Ctx;

fn parse_args(args: &[String]) -> Result<(Ctx, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--size" => match value()?.as_str() {
                "tiny" => tiny = true,
                "full" => tiny = false,
                other => return Err(format!("--size must be tiny or full, got {other}")),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !perfbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let serve_bin = serve_bin.ok_or("--serve-bin is required")?;
    if !serve_bin.is_file() {
        return Err(format!("no lehdc_serve binary at {}", serve_bin.display()));
    }
    let ctx = Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        serve_bin,
        out_dir: PathBuf::from(".bench_out"),
        tiny,
    };
    Ok((ctx, trace.ok_or("--trace is required")?))
}

/// The checked-out commit, when the benchmark runs in a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn json_metrics(metrics: &[util::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, trace) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let tier = hdc::kernels::active_tier().name();
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={} kernel={} (LEHDC_KERNEL={}) threads={} commit={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tier,
        std::env::var(hdc::kernels::KERNEL_ENV).unwrap_or_else(|_| "unset".into()),
        perfbench::THREADS,
        commit(),
    );

    let tracer = Tracer::default();
    tracer.set_on(trace);
    let report = match perfbench::run(&ctx, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };

    for m in &report.end_to_end {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &report.per_layer {
        println!("layer {} = {} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "metric fail_ratio = {fail_ratio} ratio ({} of {} operations)",
        report.failed, report.attempted
    );
    for f in &report.failures {
        eprintln!("failure: {f}");
    }

    let mut problems = perfbench::metric_problems(&report, trace);
    if trace {
        let path = ctx
            .out_dir
            .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
        match tracer.write_json(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = report.failed == 0 && problems.is_empty();
    let reported = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
