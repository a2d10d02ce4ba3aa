//! `fsc` — a miniature `flang`-style command-line driver over the whole
//! stack: compile a Fortran file through the stencil flow and run it.
//!
//! ```sh
//! cargo run --release --example fsc -- path/to/code.f90 [options]
//!
//!   --target=flang|unopt|cpu|openmp|gpu|dmp|multigpu   (default cpu)
//!   --threads=N        (openmp)
//!   --grid=PxQ         (dmp / multigpu)
//!   --tile=X,Y,Z       (gpu / multigpu)
//!   --naive-gpu-data   (gpu: use the host_register strategy)
//!   --emit-fir         print the FIR module and exit
//!   --emit-stencil     print the extracted, lowered stencil module and exit
//!   --print=a,b        dump the named arrays after the run
//! ```
//!
//! `FSC_FORCE_EXEC_PATH=specialized|jit|fused-vm|generic-vm` forces every
//! nest onto one execution tier (parsed here, at the binary boundary —
//! the library only sees `CompileOptions::force_exec_path`).

use flang_stencil::core::{CompileOptions, Compiler, Target};

fn parse_grid(s: &str) -> Vec<i64> {
    s.split(['x', 'X', ','])
        .filter_map(|p| p.parse().ok())
        .collect()
}

fn parse_tile(s: &str) -> [i64; 3] {
    let v: Vec<i64> = s.split(',').filter_map(|p| p.parse().ok()).collect();
    [
        v.first().copied().unwrap_or(32),
        v.get(1).copied().unwrap_or(32),
        v.get(2).copied().unwrap_or(1),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut target_name = "cpu".to_string();
    let mut threads = 0u32;
    let mut grid = vec![2i64, 2];
    let mut tile = [32i64, 32, 1];
    let mut explicit_data = true;
    let mut emit_fir = false;
    let mut emit_stencil = false;
    let mut dump: Vec<String> = Vec::new();

    for a in &args {
        if let Some(v) = a.strip_prefix("--target=") {
            target_name = v.to_string();
        } else if let Some(v) = a.strip_prefix("--threads=") {
            threads = v.parse().expect("--threads=N");
        } else if let Some(v) = a.strip_prefix("--grid=") {
            grid = parse_grid(v);
        } else if let Some(v) = a.strip_prefix("--tile=") {
            tile = parse_tile(v);
        } else if a == "--naive-gpu-data" {
            explicit_data = false;
        } else if a == "--emit-fir" {
            emit_fir = true;
        } else if a == "--emit-stencil" {
            emit_stencil = true;
        } else if let Some(v) = a.strip_prefix("--print=") {
            dump = v.split(',').map(str::to_string).collect();
        } else if !a.starts_with("--") {
            path = Some(a.clone());
        } else {
            eprintln!("unknown option {a}");
            std::process::exit(2);
        }
    }

    let Some(path) = path else {
        eprintln!("usage: fsc <file.f90> [--target=...] (see source header)");
        std::process::exit(2);
    };
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });

    if emit_fir {
        match flang_stencil::fortran::compile_to_fir(&source) {
            Ok(m) => print!("{}", flang_stencil::ir::print::print_module(&m)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let target = match target_name.as_str() {
        "flang" => Target::FlangOnly,
        "unopt" => Target::UnoptimizedCpu,
        "cpu" => Target::StencilCpu,
        "openmp" => Target::StencilOpenMp { threads },
        "gpu" => Target::StencilGpu {
            explicit_data,
            tile,
        },
        "dmp" => Target::StencilDistributed { grid: grid.clone() },
        "multigpu" => Target::StencilMultiGpu {
            grid: grid.clone(),
            tile,
        },
        other => {
            eprintln!("unknown target '{other}'");
            std::process::exit(2);
        }
    };

    // The env → options boundary: `FSC_FORCE_EXEC_PATH` is read here,
    // once, and threaded through as an explicit option. Library code never
    // consults the environment.
    let force_exec_path = std::env::var("FSC_FORCE_EXEC_PATH").ok().map(|raw| {
        flang_stencil::exec::ExecPath::parse(&raw).unwrap_or_else(|| {
            eprintln!(
                "bad FSC_FORCE_EXEC_PATH '{raw}': expected \
                 specialized|jit|fused-vm|generic-vm"
            );
            std::process::exit(2);
        })
    });
    let compiled = match Compiler::compile(
        &source,
        &CompileOptions {
            target,
            force_exec_path,
            ..Default::default()
        },
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if emit_stencil {
        match &compiled.stencil_module {
            Some(st) => print!("{}", flang_stencil::ir::print::print_module(st)),
            None => eprintln!("(no stencil module for this target)"),
        }
        return;
    }

    let exec = match compiled.run() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("runtime error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "ok: wall {:?}, kernels {:?} over {} cells ({} region(s))",
        exec.report.wall,
        exec.report.kernel_wall,
        exec.report.kernel_cells,
        compiled.kernels.len()
    );
    if !exec.report.exec_paths.is_empty() {
        let paths: Vec<String> = exec
            .report
            .exec_paths
            .iter()
            .map(|p| p.to_string())
            .collect();
        eprintln!("exec paths: {}", paths.join(", "));
    }
    for d in &exec.report.jit_warnings {
        eprintln!("{d}");
    }
    // The workers an `openmp` run shares each nest over (every core for
    // `--threads=0`); every other target runs its kernels on one.
    let workers = match compiled.target {
        Target::StencilOpenMp { threads: 0 } => flang_stencil::ir::par::available_threads(),
        Target::StencilOpenMp { threads } => threads as usize,
        _ => 1,
    };
    let mut regions: Vec<_> = compiled.kernels.iter().collect();
    regions.sort_by_key(|(name, _)| name.as_str());
    for (name, kernel) in regions {
        eprintln!("schedule: {name}: {}", kernel.schedule(workers));
    }
    if let Some(gpu) = exec.report.gpu_seconds {
        eprintln!("gpu model: {gpu:.6}s ({:?})", exec.report.gpu.unwrap());
    }
    if let Some(d) = exec.report.distributed_seconds {
        match &exec.report.distributed {
            Some(att) if att.dispatches > 0 => eprintln!(
                "distributed measured: {d:.6}s over {} ranks ({} halos, \
                 overlap fraction {:.3}, {} halo bytes, model/measured {:.3})",
                att.ranks,
                match att.schedule {
                    Some(flang_stencil::exec::HaloSchedule::Overlap) => "overlapped",
                    Some(flang_stencil::exec::HaloSchedule::Blocking) => "blocking",
                    None => "no",
                },
                att.overlap_fraction(),
                att.bytes_exchanged,
                att.model_ratio()
            ),
            _ => eprintln!(
                "distributed model: {d:.6}s over {} ranks",
                exec.report.ranks.unwrap()
            ),
        }
    }
    for name in dump {
        match exec.array(&name) {
            Some(data) => {
                let preview: Vec<f64> = data.iter().copied().take(8).collect();
                println!(
                    "{name}: len={} checksum={:.6} head={preview:?}",
                    data.len(),
                    flang_stencil::workloads::verify::checksum(data)
                );
            }
            None => eprintln!("no array named '{name}'"),
        }
    }
}
