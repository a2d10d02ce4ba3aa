//! Fast self-test: every workload at `--quick` size produces verified
//! output, emits exactly the names `BENCHMARK.json` declares, and counts a
//! deliberately spoiled expectation as a failed operation; and the program
//! itself, run the way the driver runs it, prints the contract's result
//! object and reports its children's failures.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use fsc_benchmark::metrics::{table, Report, END_TO_END, PER_LAYER, WORKLOADS};
use fsc_benchmark::workloads::{run_workload, Config};
use fsc_ir::json::Json;

fn config(workload: &str, trace: bool, corrupt_expected: bool) -> Config {
    // One directory per workload and mode: tests run on parallel threads
    // of one process, and the serve workloads name their socket by pid.
    let out_dir = PathBuf::from(format!(
        "out/selftest-{workload}-{}{}",
        u8::from(trace),
        u8::from(corrupt_expected)
    ));
    std::fs::create_dir_all(&out_dir).unwrap();
    Config {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.02,
        trace,
        quick: true,
        corrupt_expected,
        out_dir,
        origin: Instant::now(),
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(manifest: &Json, section: &str) -> Vec<String> {
    manifest
        .get(section)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn check_workload(workload: &str) {
    let manifest = manifest();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let outcome = run_workload(&config(workload, trace, false)).unwrap();
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
        let line = outcome.report(trace).line(table(trace));
        assert!(!line.contains('\n'));
        let result = Json::parse(&line).unwrap();
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        let emitted: Vec<String> = result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap()
            .keys()
            .cloned()
            .collect();
        // A parsed object lists its keys in order.
        let mut declared = names(&manifest, section);
        declared.sort();
        assert_eq!(emitted, declared, "{workload} trace={trace}");
        if trace {
            let trace_file = config(workload, true, false)
                .out_dir
                .join(format!("trace_{workload}.json"));
            let spans = Json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
            assert!(!spans
                .get("spans")
                .and_then(Json::as_array)
                .unwrap()
                .is_empty());
        }
    }
    let spoiled = run_workload(&config(workload, false, true)).unwrap();
    assert!(spoiled.failed >= 1, "{workload}: spoiled value not counted");
    let line = spoiled.report(false).line(END_TO_END);
    assert!(line.contains("\"correct\":false"));
}

/// `bench_all --workload compile_mix ...` as the driver runs it, at the
/// self-test's sizes: exit code and the result object of its last line.
fn run_program(extra: &[&str]) -> (Option<i32>, Json) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["--workload", "compile_mix", "--seed", "7", "--quick"])
        .args(["--seconds", "0.1", "--trace", "0"])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    (output.status.code(), Json::parse(last).unwrap())
}

#[test]
fn the_program_prints_the_result_object_and_reports_failed_children() {
    let (code, result) = run_program(&[]);
    assert_eq!(code, Some(0));
    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let run = Report::parse(&result, END_TO_END).unwrap();
    assert!(run.attempted >= 1 && run.failed == 0);
    assert!(run.values.values().all(|v| *v > 0.0));

    // Every child meets the spoiled expectation; the run sums them.
    let (code, result) = run_program(&["--corrupt-expected"]);
    assert_eq!(code, Some(1));
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(Report::parse(&result, END_TO_END).unwrap().failed >= 5);
}

#[test]
fn compile_mix() {
    check_workload("compile_mix");
}

#[test]
fn gs_run() {
    check_workload("gs_run");
}

#[test]
fn pw_run() {
    check_workload("pw_run");
}

#[test]
fn dist_gs() {
    check_workload("dist_gs");
}

#[test]
fn serve_hot() {
    check_workload("serve_hot");
}

#[test]
fn serve_unique() {
    check_workload("serve_unique");
}

#[test]
fn manifest_matches_the_tables() {
    let manifest = manifest();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names(&manifest, "workloads"), workloads);
    assert_eq!(names(&manifest, "end_to_end"), end_to_end);
    assert_eq!(names(&manifest, "per_layer"), per_layer);

    let all: Vec<&str> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .copied()
        .collect();
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for name in &all {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
    }
    assert!(per_layer.len() <= 128 && end_to_end.contains(&"setup_s"));
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    // Units, directions and bounds agree too.
    let declared = |section: &str| {
        manifest
            .get(section)
            .and_then(Json::as_array)
            .unwrap()
            .clone()
    };
    for (table, section) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
        for (m, j) in table.iter().zip(declared(section)) {
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better),
                "{}",
                m.name
            );
            if section == "end_to_end" {
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    Some(m.bound),
                    "{}",
                    m.name
                );
                assert!(m.bound <= 0.25);
            }
        }
    }
}
