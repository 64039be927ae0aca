//! The benchmark's own smoke test: `BENCHMARK.json` declares exactly the
//! workloads and metrics the program reports, and every workload, untraced
//! and traced, runs at a tiny size in seconds with every declared metric
//! present in its unit and no failed operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::util::Json;
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let Json::Arr(items) = list else {
        panic!("expected a list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_program_reports() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
    assert_eq!(
        names_and_units(json.get("end_to_end").unwrap()),
        declared(END_TO_END)
    );
    assert_eq!(
        names_and_units(json.get("per_layer").unwrap()),
        declared(PER_LAYER)
    );
    let workloads: Vec<String> = names_and_units(json.get("workloads").unwrap())
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Builds the daemon the serve workloads spawn.
fn serve_bin() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "lehdc_serve",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building lehdc_serve failed");
    target.join("release").join("lehdc_serve")
}

#[test]
fn every_workload_reports_every_metric_at_tiny_size() {
    let bin = serve_bin();
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let dir =
                Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
            std::fs::create_dir_all(&dir).unwrap();
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--size",
                    "tiny",
                ])
                .arg("--serve-bin")
                .arg(&bin)
                .current_dir(&dir)
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = format!(
                "{workload} trace {trace}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");
            let last =
                Json::parse(stdout.lines().last().unwrap_or_default()).expect("last line is JSON");
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(
                last.get("failed").and_then(Json::num),
                Some(0.0),
                "{context}"
            );
            assert!(
                last.get("attempted").and_then(Json::num).unwrap_or(0.0) >= 1.0,
                "{context}"
            );
            let Some(Json::Obj(reported)) = last.get("metrics") else {
                panic!("no metrics object: {context}")
            };
            assert_eq!(reported.len(), metrics.len(), "{context}");
            for (name, unit) in metrics {
                let m = last
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .unwrap_or_else(|| panic!("{name} missing: {context}"));
                assert_eq!(
                    m.get("unit"),
                    Some(&Json::Str(unit.to_string())),
                    "{name}: {context}"
                );
                assert!(
                    m.get("value")
                        .and_then(Json::num)
                        .is_some_and(f64::is_finite),
                    "{name}: {context}"
                );
            }
            assert!(stdout.contains("metric fail_ratio = 0 ratio"), "{context}");
        }
    }
}
