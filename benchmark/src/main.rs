//! `bench_all` command line. Three forms:
//!
//! ```text
//! bench_all --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is the
//!     result object (end-to-end metrics untraced, per-layer traced)
//! bench_all [--seed N] [--seconds S] [--out FILE]
//!     all six workloads; medians over RUNS untraced runs and one traced
//!     run each, written to FILE
//! bench_all --compare A.json B.json
//!     B against A; exit 1 when B is outside a bound
//! ```
//!
//! A run does its work in fresh child processes of this same program: an
//! untraced run in [`PROCESSES`] of them, each setting up once and
//! measuring its share of the seconds, and reports the best of them.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use fsc_benchmark::compare::compare;
use fsc_benchmark::metrics::{table, Pick, Report, END_TO_END, PER_LAYER, WORKLOADS};
use fsc_benchmark::workloads::{run_workload, Config};
use fsc_ir::json::{Json, ObjBuilder};

/// Child processes an untraced run is spread over, each a short pass of
/// its own; the run reports the best of them ([`Pick::Best`]).
const PROCESSES: usize = 5;

/// Untraced runs per workload of the all-workloads form.
const RUNS: usize = 3;

/// The environment every measuring process runs in. glibc moves its mmap
/// threshold as a process frees large blocks, and where it settles puts a
/// whole process in one of two modes (dist_gs: p50 263-396 ms without
/// these, 179-221 ms with). A fixed threshold takes that coin toss out.
const CHILD_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "268435456"),
];

struct Args {
    workload: Option<String>,
    /// This process is one of a run's children: do the work here.
    child: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// The self-test's sizes and its spoiled expectation, for the test
    /// that runs this program (`tests/selftest.rs`).
    quick: bool,
    corrupt_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        child: false,
        seed: 11,
        seconds: 15.0,
        trace: false,
        out: None,
        compare: None,
        quick: false,
        corrupt_expected: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two paths")?),
                    PathBuf::from(value("two paths")?),
                ))
            }
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--child" => a.child = true,
            "--quick" => a.quick = true,
            "--corrupt-expected" => a.corrupt_expected = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// Where sockets, plan caches, traces and results go: `out/` beside the
/// benchmark's manifest, ignored by git.
fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The work of one child process: one set-up, then the measured pass or
/// the per-layer pass.
fn work(args: &Args, workload: &str) -> Result<Report, String> {
    // Work from inside the output directory and name files relative to
    // it: a Unix socket path must fit in 108 bytes, and the checkout may
    // sit under a long path.
    std::env::set_current_dir(out_dir()?).map_err(|e| format!("cannot enter out/: {e}"))?;
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        corrupt_expected: args.corrupt_expected,
        out_dir: PathBuf::from("."),
        origin: Instant::now(),
    };
    Ok(run_workload(&cfg)?.report(cfg.trace))
}

/// One child process of a run of `workload`: this program again, measuring
/// for `seconds`. Its result object is parsed back; its other lines are
/// echoed.
fn spawn(args: &Args, workload: &str, seconds: f64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .envs(CHILD_ENV)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if args.corrupt_expected {
        cmd.arg("--corrupt-expected");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("cannot run a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("  {line}");
    }
    // A child that found a wrong result exits 1 but still reports.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!("a child process ended with {}", output.status));
    }
    Json::parse(last)
        .map_err(|e| e.to_string())
        .and_then(|result| Report::parse(&result, table(trace)))
        .map_err(|e| format!("a child process printed no result: {e}"))
}

/// One run of one workload: spread over child processes, the best taken.
fn one(args: &Args, workload: &str, trace: bool) -> Result<Report, String> {
    let processes = if trace { 1 } else { PROCESSES };
    println!(
        "workload {workload}, seed {}, {} s over {processes} process(es), {}",
        args.seed,
        args.seconds,
        if trace {
            "per-layer (traced) run"
        } else {
            "end-to-end (untraced) run"
        }
    );
    let children: Vec<Report> = (0..processes)
        .map(|_| spawn(args, workload, args.seconds / processes as f64, trace))
        .collect::<Result<_, _>>()?;
    let run = Report::combine(&children, table(trace), Pick::Best);
    for m in table(trace) {
        println!("  {:<44} {:>16.6} {}", m.name, run.values[m.name], m.unit);
    }
    println!(
        "  operations attempted {}, failed {}",
        run.attempted, run.failed
    );
    Ok(run)
}

/// All six workloads: [`RUNS`] untraced runs and one traced run of each,
/// written to one file. Returns whether no operation failed.
fn all(args: &Args) -> Result<bool, String> {
    let out = match &args.out {
        Some(p) => std::path::absolute(p).map_err(|e| format!("--out: {e}"))?,
        None => out_dir()?.join("BENCH.json"),
    };
    let mut workloads = ObjBuilder::new();
    let mut clean = true;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let runs: Vec<Report> = (0..RUNS)
            .map(|_| one(args, workload, false))
            .collect::<Result<_, _>>()?;
        let traced = one(args, workload, true)?;
        let total = Report::combine(&runs, END_TO_END, Pick::Median);

        let mut e2e = ObjBuilder::new();
        for m in END_TO_END {
            let values = Report::each(&runs, m.name);
            e2e = e2e.set(
                m.name,
                ObjBuilder::new()
                    .num("median", total.values[m.name])
                    .set(
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    )
                    .str("unit", m.unit)
                    .build(),
            );
        }
        let mut per_layer = ObjBuilder::new();
        for m in PER_LAYER {
            per_layer = per_layer.set(
                m.name,
                ObjBuilder::new()
                    .num("value", traced.values[m.name])
                    .str("unit", m.unit)
                    .build(),
            );
        }
        let failed = total.failed + traced.failed;
        clean &= failed == 0;
        workloads = workloads.set(
            workload,
            ObjBuilder::new()
                .num("attempted", (total.attempted + traced.attempted) as f64)
                .num("failed", failed as f64)
                .set("end_to_end", e2e.build())
                .set("per_layer", per_layer.build())
                .build(),
        );
    }
    let file = ObjBuilder::new()
        .str("benchmark", "bench_all")
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("runs", RUNS as f64)
        .set("workloads", workloads.build())
        .build();
    std::fs::write(&out, file.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(clean)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        if let Some((a, b)) = &args.compare {
            let complaints = compare(&load(a)?, &load(b)?);
            for c in &complaints {
                println!("OUTSIDE: {c}");
            }
            return Ok(complaints.is_empty());
        }
        let Some(workload) = &args.workload else {
            return all(&args);
        };
        let run = if args.child {
            work(&args, workload)?
        } else {
            one(&args, workload, args.trace)?
        };
        println!("{}", run.line(table(args.trace)));
        Ok(run.failed == 0)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong result is in the result object (`correct: false`); the
        // exit code says so too, for a person at a terminal.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_all: {e}");
            ExitCode::from(2)
        }
    }
}
