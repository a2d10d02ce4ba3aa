//! Regression test: a slow calibration sweep in one session must not
//! serialize a concurrent plan-cache hit in another.
//!
//! The bug: the autotuner's in-process cache used to be one global
//! `Mutex<HashMap<PathBuf, PlanCache>>` acquired at the top of
//! `tune_kernels` and held across the *entire* tuning loop — including
//! every timed calibration sweep. Two sessions sharing a cache path were
//! therefore fully serialized: a session whose kernel was already cached
//! (a lookup that should take microseconds) waited behind another
//! session's multi-hundred-millisecond sweep.
//!
//! The fix routes lookups through `SharedPlanCache` (sharded, RCU-style
//! snapshot reads) and holds no lock at all while sweeping. This test
//! pins the behaviour: it starts a deliberately slow tune (large grid,
//! many reps) on one thread, then measures a cache hit for a *different*
//! kernel on the main thread. Before the fix the hit's latency equalled
//! the remaining sweep time (hundreds of ms); after, it is microseconds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsc_exec::autotune::{self, TuneConfig};
use fsc_exec::kernel::{compile_kernel, CompiledKernel};
use fsc_exec::plan::PlanProvenance;
use fsc_ir::Pass as _;
use fsc_passes::discover::discover_stencils;
use fsc_passes::extract::extract_stencils;
use fsc_passes::merge::merge_adjacent_applies;
use fsc_passes::stencil_to_scf::{lower_stencils, LoweringTarget};

fn average_source(n: usize) -> String {
    format!(
        "
program average
  integer, parameter :: n = {n}
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
"
    )
}

fn compile(src: &str) -> CompiledKernel {
    let mut m = fsc_fortran::compile_to_fir(src).unwrap();
    discover_stencils(&mut m).unwrap();
    merge_adjacent_applies(&mut m).unwrap();
    let mut st = extract_stencils(&mut m).unwrap();
    lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
    fsc_passes::canonicalize::Canonicalize.run(&mut st).unwrap();
    compile_kernel(&st, "stencil_region_0").unwrap()
}

#[test]
fn slow_tune_does_not_serialize_a_concurrent_cache_hit() {
    let dir = std::env::temp_dir().join(format!("fsc-autotune-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("plans.json");
    autotune::reset_in_process_cache();

    // Warm the shared cache with the small kernel's winner.
    let mut warm = compile(&average_source(16));
    let warm_cfg = TuneConfig {
        cache_path: Some(cache_path.clone()),
        no_persist: false,
        reps: 1,
    };
    let report = autotune::tune_one(&mut warm, 1, &warm_cfg);
    assert_eq!(report.fresh_tunes(), 1, "warm-up should calibrate once");

    // A deliberately slow tune: a much larger grid with many repetitions,
    // so its calibration sweep spans hundreds of milliseconds.
    let slow_started = Arc::new(AtomicBool::new(false));
    let slow_done = Arc::new(AtomicBool::new(false));
    let slow_cfg = TuneConfig {
        cache_path: Some(cache_path.clone()),
        no_persist: true,
        reps: 400,
    };
    let (started, done) = (slow_started.clone(), slow_done.clone());
    let slow = std::thread::spawn(move || {
        let mut big = compile(&average_source(128));
        started.store(true, Ordering::SeqCst);
        let report = autotune::tune_one(&mut big, 1, &slow_cfg);
        done.store(true, Ordering::SeqCst);
        report
    });

    // Wait until the slow tune is underway, then give it time to be deep
    // inside its calibration sweep.
    while !slow_started.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    std::thread::sleep(Duration::from_millis(25));

    // The cached small kernel must resolve without waiting for the sweep.
    let mut hit = compile(&average_source(16));
    let t0 = Instant::now();
    let report = autotune::tune_one(&mut hit, 1, &warm_cfg);
    let latency = t0.elapsed();

    assert_eq!(report.cache_hits(), 1, "expected an in-process cache hit");
    assert_eq!(report.entries[0].plan.provenance, PlanProvenance::Cached);
    assert!(
        latency < Duration::from_millis(150),
        "cache hit took {latency:?} — it serialized behind the concurrent \
         calibration sweep (slow tune done: {})",
        slow_done.load(Ordering::SeqCst)
    );

    let slow_report = slow.join().unwrap();
    assert_eq!(slow_report.fresh_tunes(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
