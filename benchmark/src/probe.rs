//! Machine probes, taken single-threaded in the benchmark's own process:
//! the denominators for `exec.triad_frac` and `exec.fma_frac`. Nothing
//! modeled is reported here; GPU figures are deliberately absent.

use std::hint::black_box;
use std::time::Instant;

/// STREAM triad `a = b + s*c` over three arrays of `elems` f64 each.
/// Returns GB/s counting 24 bytes per element (two loads, one store), the
/// best of `reps` sweeps after one untimed sweep that faults the pages in.
pub fn triad_gbs(elems: usize, reps: usize) -> f64 {
    let elems = elems.max(1024);
    let b = vec![1.0f64; elems];
    let c = vec![2.0f64; elems];
    let mut a = vec![0.0f64; elems];
    let mut best = f64::INFINITY;
    for rep in 0..=reps {
        let s = black_box(3.0);
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        if rep > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    (elems * 24) as f64 / best / 1e9
}

/// Eight independent multiply-add chains (2 flops per step per chain),
/// built with the same flags as the program, so this is the rate this
/// build can reach on one core, not the chip's data-sheet peak.
pub fn fma_gflops() -> f64 {
    const STEPS: u64 = 20_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let m = black_box(0.999_999_9f64);
        let c = black_box(1e-9f64);
        let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        let t = Instant::now();
        for _ in 0..STEPS {
            for x in &mut acc {
                *x = *x * m + c;
            }
        }
        black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (STEPS * 8 * 2) as f64 / best / 1e9
}

/// Mean cost in ns of reading the clock, the floor under every span.
pub fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / READS as f64
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cache sizes the kernel reports for cpu0, e.g. `L1d 48K, L2 2048K`.
pub fn reported_caches() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}"));
        let (Ok(level), Ok(size)) = (read("level"), read("size")) else {
            continue;
        };
        let kind = match read("type").as_deref().map(str::trim) {
            Ok("Data") => "d",
            Ok("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{}{kind} {}", level.trim(), size.trim()));
    }
    if out.is_empty() {
        "not reported".into()
    } else {
        out.join(", ")
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat`; 0 where that is not available. The kernel reports
/// ticks of 1/100 s to user space on every Linux architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}
