//! Resident ranks: a distributed run scatters once, moves only halo faces
//! per dispatch and gathers once — and everything that can look at the
//! arrays from outside the resident session (host loads and stores, other
//! kernels, the local fallback, a crash restore) still sees current data.
//! Structure and bits only: nothing here asserts on wall-clock time.

use flang_stencil::core::{
    CompileOptions, Compiler, DistMode, DistProvenance, DistributedReport, Execution, Target,
};
use flang_stencil::mpisim::fault::FaultPlan;
use flang_stencil::workloads::gauss_seidel;

fn dist(grid: &[i64]) -> CompileOptions {
    CompileOptions::for_target(Target::StencilDistributed {
        grid: grid.to_vec(),
    })
}

fn run(source: &str, opts: &CompileOptions) -> Execution {
    Compiler::run(source, opts).expect("run failed")
}

fn report(exec: &Execution) -> &DistributedReport {
    exec.report
        .distributed
        .as_ref()
        .expect("distributed report")
}

fn assert_bits(tag: &str, got: &Execution, want: &Execution, arrays: &[&str]) {
    for a in arrays {
        let (g, w) = (got.array(a).unwrap(), want.array(a).unwrap());
        assert_eq!(g.len(), w.len(), "{tag}: {a} length");
        let same = g.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{tag}: {a} not bit-identical to the reference");
    }
}

/// The benchmark's Gauss–Seidel source with every loop body, bound and
/// declaration kept, plus `extra` spliced in at the end of each time step.
fn gs_with_step_tail(n: usize, iters: usize, decls: &str, extra: &str) -> String {
    gauss_seidel::fortran_source(n, iters)
        .replace(
            "  integer :: i, j, k, t\n",
            &format!("  integer :: i, j, k, t\n{decls}"),
        )
        .replace(
            "    end do\n  end do\nend program",
            &format!("    end do\n{extra}  end do\nend program"),
        )
}

#[test]
fn one_scatter_one_gather_and_only_faces_in_between() {
    // Messages, halo bytes and exchange rounds of a 10-sweep n=8 run as the
    // per-dispatch scatter/gather executor (the parent commit) reported
    // them; deep halos only amortise exchanges on a 1-D decomposition.
    let traffic = |grid: &[i64], depth: u32| match (grid.len(), depth) {
        (1, 1) => (20, 16_000, 10),
        (1, _) => (10, 16_000, 5),
        (2, _) => (80, 25_600, 10),
        _ => (240, 30_720, 10),
    };
    let source = gauss_seidel::fortran_source(8, 10);
    let oracle = run(&source, &CompileOptions::for_target(Target::FlangOnly));
    for grid in [&[2i64][..], &[2, 2], &[2, 2, 2]] {
        let ranks = grid.iter().product::<i64>() as u64;
        for overlap in [true, false] {
            for depth in [1u32, 2] {
                for mode in [DistMode::Coop, DistMode::Threads] {
                    let tag = format!("grid={grid:?} overlap={overlap} depth={depth} {mode:?}");
                    let opts = CompileOptions {
                        overlap_halos: overlap,
                        halo_depth: depth,
                        ..dist(grid)
                    };
                    let mut compiled = Compiler::compile(&source, &opts).unwrap();
                    compiled.dist_options.mode = mode;
                    let exec = compiled.run().expect("distributed run");
                    assert_bits(&tag, &exec, &oracle, &["u"]);
                    let d = report(&exec);
                    assert_eq!(d.dispatches, 10, "{tag}");
                    assert_eq!((d.scatters, d.gathers), (ranks, ranks), "{tag}");
                    assert_eq!(d.resident_hits, 9 * ranks, "{tag}");
                    assert_eq!(
                        (d.messages, d.bytes_exchanged, d.exchange_rounds),
                        traffic(grid, depth),
                        "{tag}"
                    );
                }
            }
        }
    }
}

#[test]
fn host_store_between_dispatches_invalidates_the_resident_windows() {
    // The host overwrites one interior cell after every sweep: it must see
    // the sweep's result (a gather), and the next sweep must see the store
    // (a fresh scatter) — every iteration.
    let source = gs_with_step_tail(8, 4, "", "    u(3, 4, 5) = u(3, 4, 5) + 0.25\n");
    let oracle = run(&source, &CompileOptions::for_target(Target::FlangOnly));
    for grid in [&[2i64][..], &[2, 2]] {
        let ranks = grid.iter().product::<i64>() as u64;
        let exec = run(&source, &dist(grid));
        assert_bits(&format!("{grid:?}"), &exec, &oracle, &["u"]);
        let d = report(&exec);
        assert_eq!(d.dispatches, 4);
        assert_eq!((d.scatters, d.gathers), (4 * ranks, 4 * ranks), "{d:?}");
        assert_eq!(d.resident_hits, 0, "{d:?}");
    }
}

#[test]
fn host_load_between_dispatches_gathers_but_keeps_the_windows() {
    // A cell read into a scalar the next sweep uses: the read needs the
    // sweep's result (a gather per iteration), but nothing was written, so
    // every later dispatch still finds its windows resident.
    let source = gs_with_step_tail(
        8,
        4,
        "  real(kind=8) :: c\n",
        "    c = u(3, 4, 5) * 0.001\n",
    )
    .replace("/ 6.0\n", "/ 6.0 + c\n")
    .replace("  do t = 1, niters\n", "  c = 0.5\n  do t = 1, niters\n");
    assert!(source.contains("/ 6.0 + c") && source.contains("  c = 0.5\n"));
    let oracle = run(&source, &CompileOptions::for_target(Target::FlangOnly));
    for grid in [&[2i64][..], &[2, 2]] {
        let ranks = grid.iter().product::<i64>() as u64;
        let exec = run(&source, &dist(grid));
        assert_bits(&format!("{grid:?}"), &exec, &oracle, &["u", "un"]);
        let d = report(&exec);
        assert_eq!(d.dispatches, 4);
        assert_eq!((d.scatters, d.gathers), (ranks, 4 * ranks), "{d:?}");
        assert_eq!(d.resident_hits, 3 * ranks, "{d:?}");
    }
}

/// Two stencil regions per time step sharing `u` and `un`; the `if` keeps
/// them from being extracted as one kernel. `second` is the body of the
/// second region's assignment to `u(i, j, k)`.
fn two_region_source(second: &str) -> String {
    format!(
        "program two_regions
  implicit none
  integer, parameter :: n = 8
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i + 0.02 * j + 0.03 * k
      end do
    end do
  end do
  do t = 1, 3
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                       + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
        end do
      end do
    end do
    if (t > 0) then
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = {second}
        end do
      end do
    end do
    end if
  end do
end program two_regions
"
    )
}

#[test]
fn two_kernels_sharing_arrays_alternate_on_current_data() {
    // Each kernel reads what the other wrote: every dispatch must first
    // pull the other session's owned slabs back, then re-scatter its own.
    let source = two_region_source("0.5 * (un(i, j, k-1) + un(i, j, k+1))");
    let oracle = run(&source, &CompileOptions::for_target(Target::FlangOnly));
    for grid in [&[2i64][..], &[2, 2]] {
        let ranks = grid.iter().product::<i64>() as u64;
        let exec = run(&source, &dist(grid));
        assert_bits(&format!("{grid:?}"), &exec, &oracle, &["u", "un"]);
        let d = report(&exec);
        assert_eq!(d.provenance, Some(DistProvenance::Measured), "{d:?}");
        assert_eq!(d.dispatches, 6, "two measured kernels x three steps");
        assert_eq!((d.scatters, d.gathers), (6 * ranks, 6 * ranks), "{d:?}");
    }
}

#[test]
fn local_fallback_kernel_sees_and_publishes_current_data() {
    // The second region reads diagonal neighbours: no face exchange covers
    // them, so it has no halo schedule and runs through the local fallback
    // in the middle of every step, between two dispatches of the resident
    // sweep. It must read the sweep's `un` and the sweep must read its `u`.
    let source = two_region_source(
        "0.25 * (un(i, j-1, k-1) + un(i, j+1, k+1) + un(i, j-1, k+1) + un(i, j+1, k-1))",
    );
    let oracle = run(&source, &CompileOptions::for_target(Target::FlangOnly));
    let compiled = Compiler::compile(&source, &dist(&[2, 2])).unwrap();
    let exec = compiled.run().expect("run failed");
    assert_bits("fallback", &exec, &oracle, &["u", "un"]);
    let d = report(&exec);
    assert_eq!(d.provenance, Some(DistProvenance::Mixed), "{d:?}");
    assert_eq!(d.dispatches, 3, "the sweep runs measured every step");
    assert!(d.modeled_dispatches >= 3, "{d:?}");
    assert_eq!((d.scatters, d.gathers), (3 * 4, 3 * 4), "{d:?}");
    // The fallback is charged its wall times the most slabs a nest ran on
    // (over the ranks): at the dispatcher's threads, one rank per core up
    // to the grid's four, this 8³ kernel runs on one.
    let threads = 4.min(flang_stencil::ir::par::available_threads());
    let fallback: Vec<_> = compiled
        .kernels
        .values()
        .filter(|k| k.nests.iter().any(|n| n.halo_schedule.is_none()))
        .collect();
    assert!(!fallback.is_empty());
    for k in fallback {
        assert_eq!(k.slabs(threads).into_iter().max(), Some(1), "{}", k.name);
    }
}

#[test]
fn crash_on_a_later_dispatch_restores_from_resident_windows() {
    // A rank crash planned for dispatch 3 hits windows that have been
    // resident since dispatch 0: the checkpoint it restores is a copy of
    // those windows, and the run stays bit-identical to the fault-free one.
    // The protocol counters are the parent commit's: one checkpoint per
    // rank and phase whether or not a window copy was stored with it.
    let source = gauss_seidel::fortran_source(8, 6);
    let mut compiled = Compiler::compile(&source, &dist(&[2, 2])).unwrap();
    for mode in [DistMode::Coop, DistMode::Threads] {
        compiled.dist_options.mode = mode;
        let clean = compiled.run_with_faults(FaultPlan::none(7)).unwrap();
        let crashed = compiled
            .run_with_faults(FaultPlan::none(7).with_crash(1, 3))
            .unwrap();
        assert_bits(&format!("{mode:?}"), &crashed, &clean, &["u"]);
        let (c, f) = (
            clean.report.resilience.unwrap(),
            crashed.report.resilience.unwrap(),
        );
        assert_eq!((c.checkpoints, c.restores, c.injected_crashes), (72, 0, 0));
        assert_eq!((f.checkpoints, f.restores, f.injected_crashes), (73, 1, 1));
        assert_eq!((c.data_msgs, f.data_msgs), (156, 156), "{mode:?}");
        assert_eq!(f.replayed_iterations, 0);
        for exec in [&clean, &crashed] {
            let d = report(exec);
            assert_eq!((d.scatters, d.gathers, d.resident_hits), (4, 4, 20));
        }
    }
}

#[test]
fn non_zero_lower_bounds_run_measured_and_bit_identical() {
    // The benchmark's source with `u` and `un` re-declared over
    // `lb:lb+n+1` (every loop shifted with them) and with Fortran's default
    // bounds `u(n+2, n+2, n+2)`: slab indices are coordinates minus the
    // lower bound, which only coincide for `0:n+1`.
    let (n, iters) = (12i64, 3);
    let shifted = |lb: i64, decl: String| {
        gauss_seidel::fortran_source(n as usize, iters)
            .replace("(0:n+1, 0:n+1, 0:n+1)", &decl)
            .replace("= 0, n+1", &format!("= {lb}, {}", lb + n + 1))
            .replace("= 1, n\n", &format!("= {}, {}\n", lb + 1, lb + n))
    };
    let mut sources: Vec<(String, String)> = [1i64, 3, -2]
        .iter()
        .map(|&lb| {
            let r = format!("{lb}:{}", lb + n + 1);
            (format!("lb={lb}"), shifted(lb, format!("({r}, {r}, {r})")))
        })
        .collect();
    sources.push(("default".into(), shifted(1, "(n+2, n+2, n+2)".into())));
    for (label, source) in &sources {
        let serial = run(source, &CompileOptions::for_target(Target::StencilCpu));
        for grid in [&[2i64][..], &[2, 2]] {
            let tag = format!("{label} grid={grid:?}");
            let exec = run(source, &dist(grid));
            assert_bits(&tag, &exec, &serial, &["u"]);
            let d = report(&exec);
            assert_eq!(d.provenance, Some(DistProvenance::Measured), "{tag}: {d:?}");
            assert_eq!(d.dispatches, iters as u64, "{tag}");
        }
    }
}

#[test]
fn an_exchange_one_cell_short_poisons_every_dispatch() {
    // A radius-2 sweep over two fields along the decomposed dimension; the
    // compiled exchanges of one field are then narrowed from 2 cells to 1
    // (the other field's keep the windows two ghost slabs wide). The cells
    // next to a rank boundary read one ghost slab nobody sent: it must hold
    // the NaN sentinel on the first dispatch (fresh scatter) and on the
    // second (resident windows) alike — the oracle property the
    // per-dispatch re-scatter used to provide.
    let source = |iters: usize| {
        format!(
            "program wide
  implicit none
  integer, parameter :: n = 12
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), v(0:n+1, 0:n+1, 0:n+1)
  real(kind=8) :: un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i + 0.02 * j + 0.03 * k
        v(i, j, k) = 0.03 * i + 0.01 * j + 0.02 * k
      end do
    end do
  end do
  do t = 1, {iters}
    do k = 2, n-1
      do j = 1, n
        do i = 1, n
          un(i, j, k) = 0.25 * (u(i, j, k-2) + u(i, j, k+2) + v(i, j, k-2) + v(i, j, k+2))
        end do
      end do
    end do
  end do
end program wide
"
        )
    };
    for iters in [1usize, 2] {
        let serial = run(
            &source(iters),
            &CompileOptions::for_target(Target::StencilCpu),
        );
        let mut compiled = Compiler::compile(&source(iters), &dist(&[2])).unwrap();
        let honest = compiled.run().unwrap();
        assert_bits("honest", &honest, &serial, &["un"]);
        assert_eq!(report(&honest).resident_hits, 2 * (iters as u64 - 1));
        let mut narrowed = 0;
        for kernel in compiled.kernels.values_mut() {
            for nest in &mut kernel.nests {
                let victim = nest.exchanges.last().map(|e| e.view);
                for e in &mut nest.exchanges {
                    assert_eq!(e.width, 2);
                    if Some(e.view) == victim {
                        e.width = 1;
                        narrowed += 1;
                    }
                }
            }
        }
        assert_eq!(narrowed, 2, "one field's exchange in each direction");
        let short = compiled.run().unwrap();
        let d = report(&short);
        assert_eq!(d.dispatches, iters as u64);
        assert_eq!(d.resident_hits, 2 * (iters as u64 - 1), "{d:?}");
        let nans = short.array("un").unwrap().iter().filter(|x| x.is_nan());
        // One slab of n x n cells on each side of the single rank boundary.
        assert_eq!(nans.count(), 2 * 12 * 12, "iters={iters}");
    }
}

/// `got`'s `arrays` bit for bit against the FIR interpreter's and `cpu`'s
/// runs of `source`.
fn assert_bits_flang_and_cpu(tag: &str, source: &str, got: &Execution, arrays: &[&str]) {
    for target in [Target::FlangOnly, Target::StencilCpu] {
        let want = run(source, &CompileOptions::for_target(target.clone()));
        assert_bits(&format!("{tag} vs {target:?}"), got, &want, arrays);
    }
}

#[test]
fn queued_dispatches_run_as_one_rank_run() {
    // k time steps of GS queue on the resident ranks and run as one rank
    // run, on every grid shape, halo depth and schedule: the init region's
    // host sweep and that run are the run's two sweeps.
    for k in [1usize, 2, 10] {
        let source = gauss_seidel::fortran_source(8, k);
        let reference: Vec<Execution> = [Target::FlangOnly, Target::StencilCpu]
            .map(|t| run(&source, &CompileOptions::for_target(t)))
            .into();
        for grid in [&[2i64][..], &[2, 2], &[2, 2, 2]] {
            let ranks = grid.iter().product::<i64>() as u64;
            for (depth, overlap) in [(1u32, true), (1, false), (2, true), (2, false)] {
                let tag = format!("k={k} grid={grid:?} depth={depth} overlap={overlap}");
                let opts = CompileOptions {
                    overlap_halos: overlap,
                    halo_depth: depth,
                    ..dist(grid)
                };
                let exec = run(&source, &opts);
                for want in &reference {
                    assert_bits(&tag, &exec, want, &["u", "un"]);
                }
                assert_eq!(exec.report.sweeps, (k as u64 + 1, 2), "{tag}");
                let d = report(&exec);
                assert_eq!(d.dispatches, k as u64, "{tag}");
                assert_eq!((d.scatters, d.gathers), (ranks, ranks), "{tag}");
                assert_eq!(d.resident_hits, (k as u64 - 1) * ranks, "{tag}");
            }
        }
    }
}

#[test]
fn host_access_between_dispatches_ends_the_queued_run() {
    // A host read or write of a held array after every step runs the
    // queued dispatch first: one rank run per step, each on current data.
    let read = gs_with_step_tail(8, 4, "  real(kind=8) :: c\n", "    c = u(3, 4, 5)\n");
    let write = gs_with_step_tail(8, 4, "", "    u(3, 4, 5) = u(3, 4, 5) + 0.25\n");
    for (what, source) in [("read", read), ("write", write)] {
        for grid in [&[2i64][..], &[2, 2]] {
            let tag = format!("host {what} grid={grid:?}");
            let exec = run(&source, &dist(grid));
            assert_bits_flang_and_cpu(&tag, &source, &exec, &["u", "un"]);
            assert_eq!(exec.report.sweeps, (5, 5), "{tag}");
            assert_eq!(report(&exec).dispatches, 4, "{tag}");
        }
    }
}

#[test]
fn a_crash_planned_at_any_queued_dispatch_replays_bit_identically() {
    // The crash planned for dispatch c fires in that dispatch's phases of
    // the one rank run, restores from the phase checkpoint before it and
    // replays to the fault-free result.
    let source = gauss_seidel::fortran_source(8, 10);
    let mut compiled = Compiler::compile(&source, &dist(&[2, 2])).unwrap();
    for mode in [DistMode::Coop, DistMode::Threads] {
        compiled.dist_options.mode = mode;
        for at in [0usize, 3, 9] {
            let tag = format!("{mode:?} crash at dispatch {at}");
            let crashed = compiled
                .run_with_faults(FaultPlan::none(7).with_crash(1, at))
                .unwrap();
            assert_bits_flang_and_cpu(&tag, &source, &crashed, &["u", "un"]);
            let f = crashed.report.resilience.unwrap();
            assert_eq!((f.injected_crashes, f.restores), (1, 1), "{tag}");
            assert_eq!(
                f.checkpoints,
                10 * 3 * 4 + 1,
                "{tag}: one per rank and phase"
            );
            assert_eq!(crashed.report.sweeps, (11, 2), "{tag}");
        }
    }
}

#[test]
fn a_view_read_at_an_offset_before_the_kernel_writes_it_is_seeded() {
    // `w` is read one plane either side by the first nest and rewritten by
    // the second, so every dispatch reads the values a seeded window brings
    // (or the last dispatch left); `v` is written before anything reads it
    // and starts as the NaN sentinel, which no read ever sees.
    let source = "program seeded
  implicit none
  integer, parameter :: n = 10
  integer :: i, j, k, t
  real(kind=8) :: v(0:n+1, 0:n+1, 0:n+1), w(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        w(i, j, k) = 0.01 * i + 0.02 * j * j + 0.03 * k
        v(i, j, k) = -1.0
      end do
    end do
  end do
  do t = 1, 3
    do k = 1, n
      do j = 1, n
        do i = 1, n
          v(i, j, k) = 0.5 * (w(i, j, k-1) + w(i, j, k+1)) + 0.125
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          w(i, j, k) = v(i, j, k)
        end do
      end do
    end do
  end do
end program seeded
";
    for grid in [&[2i64][..], &[2, 2]] {
        let tag = format!("grid={grid:?}");
        let exec = run(source, &dist(grid));
        assert_bits_flang_and_cpu(&tag, source, &exec, &["v", "w"]);
        let d = report(&exec);
        assert_eq!(d.provenance, Some(DistProvenance::Measured), "{tag}: {d:?}");
        assert_eq!(d.dispatches, 3, "{tag}");
        assert_eq!(exec.report.sweeps, (4, 2), "{tag}");
    }
}

#[test]
fn the_never_written_boundary_of_a_write_first_view_stays_the_callers() {
    // GS's `un` is written before it is read, so its windows start as NaN;
    // the gather copies only what the nests wrote, and the boundary the
    // init region set on the host comes back untouched, bit for bit.
    let source = gauss_seidel::fortran_source(10, 3);
    let want = run(&source, &CompileOptions::for_target(Target::StencilCpu));
    for grid in [&[2i64][..], &[2, 2], &[2, 2, 2]] {
        let exec = run(&source, &dist(grid));
        assert_bits(&format!("{grid:?}"), &exec, &want, &["un", "u"]);
        assert!(exec.array("un").unwrap().iter().all(|x| x.is_finite()));
    }
}

#[test]
fn a_dispatch_on_other_buffers_starts_its_own_rank_run() {
    // One region called on (u, un) and then on (un, u): the second call is
    // the same kernel on other buffers, so it cannot join the first's run.
    let source = "
subroutine relax(src, dst)
  implicit none
  integer, parameter :: n = 8
  integer :: i, j, k
  real(kind=8) :: src(0:n+1, 0:n+1, 0:n+1), dst(0:n+1, 0:n+1, 0:n+1)
  do k = 1, n
    do j = 1, n
      do i = 1, n
        dst(i, j, k) = (src(i-1, j, k) + src(i+1, j, k) + src(i, j-1, k) &
                     + src(i, j+1, k) + src(i, j, k-1) + src(i, j, k+1)) / 6.0
      end do
    end do
  end do
end subroutine relax

program pingpong
  implicit none
  integer, parameter :: n = 8
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i * j + 0.02 * k * k + 0.03 * i
      end do
    end do
  end do
  do t = 1, 3
    call relax(u, un)
    call relax(un, u)
  end do
end program pingpong
";
    for grid in [&[2i64][..], &[2, 2]] {
        let tag = format!("grid={grid:?}");
        let exec = run(source, &dist(grid));
        assert_bits_flang_and_cpu(&tag, source, &exec, &["u", "un"]);
        let d = report(&exec);
        assert_eq!(d.provenance, Some(DistProvenance::Measured), "{tag}: {d:?}");
        assert_eq!(d.dispatches, 6, "{tag}");
        assert_eq!(exec.report.sweeps, (7, 7), "{tag}: one run per dispatch");
    }
}

#[test]
fn pointwise_nests_after_an_exchange_interleave_bit_identically() {
    // The stencil exchanges `u`; the three pointwise nests after it run in
    // its phase, plane by plane behind its interior: the copy overwrites
    // what the stencil read, the next reads what the copy wrote, the last
    // what the stencil and the one before it wrote.
    let source = "program trail
  implicit none
  integer, parameter :: n = 12
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  real(kind=8) :: w(0:n+1, 0:n+1, 0:n+1), z(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i + 0.02 * j * k + 0.03 * k
      end do
    end do
  end do
  do t = 1, 4
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                       + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = un(i, j, k)
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          w(i, j, k) = 0.5 * u(i, j, k)
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          z(i, j, k) = w(i, j, k) + un(i, j, k)
        end do
      end do
    end do
  end do
end program trail
";
    let compiled = Compiler::compile(source, &dist(&[2])).unwrap();
    let nests: Vec<usize> = compiled.kernels.values().map(|k| k.nests.len()).collect();
    assert!(nests.contains(&4), "one region of four nests: {nests:?}");
    for grid in [&[2i64][..], &[2, 2], &[2, 2, 2]] {
        for (depth, overlap) in [(1u32, true), (1, false), (2, true)] {
            let tag = format!("grid={grid:?} depth={depth} overlap={overlap}");
            let opts = CompileOptions {
                overlap_halos: overlap,
                halo_depth: depth,
                ..dist(grid)
            };
            let exec = run(source, &opts);
            assert_bits_flang_and_cpu(&tag, source, &exec, &["u", "un", "w", "z"]);
            let d = report(&exec);
            assert_eq!(d.provenance, Some(DistProvenance::Measured), "{tag}: {d:?}");
            assert_eq!(exec.report.sweeps, (5, 2), "{tag}");
        }
    }
}

#[test]
fn a_trail_one_plane_a_step_keeps_the_copy_a_plane_behind() {
    // Planes of 256² doubles on two views fill a step with one plane, so
    // each rank's four planes take several steps and the copy's lag of one
    // plane is what keeps it from overwriting `u` the stencil still reads.
    let source = gauss_seidel::fortran_source(254, 2)
        .replace("(0:n+1, 0:n+1, 0:n+1)", "(0:n+1, 0:n+1, 0:m+1)")
        .replace("do k = 0, n+1", "do k = 0, m+1")
        .replace("    do k = 1, n\n", "    do k = 1, m\n")
        .replace(
            "  integer :: i, j, k, t\n",
            "  integer, parameter :: m = 8\n  integer :: i, j, k, t\n",
        );
    assert!(source.contains("do k = 1, m\n") && source.contains("0:m+1"));
    let want = run(&source, &CompileOptions::for_target(Target::StencilCpu));
    for grid in [&[2i64][..], &[2, 2]] {
        let exec = run(&source, &dist(grid));
        assert_bits(&format!("{grid:?}"), &exec, &want, &["u", "un"]);
        assert_eq!(report(&exec).provenance, Some(DistProvenance::Measured));
    }
}
