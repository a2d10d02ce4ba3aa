//! GPU lowering: `convert-parallel-loops-to-gpu` + `gpu-kernel-outlining`,
//! and the paper's two data-management strategies (Figure 5).
//!
//! Outlining moves each stencil function's body into a `gpu.func` inside a
//! module-level `gpu.module`, leaving behind data-management ops and a
//! `gpu.launch_func`. Launch dimensions come from the (possibly tiled)
//! `scf.parallel`: the tile sizes become the thread-block shape and the
//! grid covers the domain — mirroring how
//! `scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1}` feeds
//! `convert-parallel-loops-to-gpu` in Listing 4.
//!
//! Data strategies:
//! * [`GpuDataNaive`] — `gpu.host_register` every buffer argument: the
//!   device demand-pages over PCIe on *every* launch (the paper's slow
//!   "initial data approach");
//! * [`GpuDataExplicit`] — the paper's bespoke pass: explicit `gpu.memcpy`
//!   *ensure-valid* ops before the launch. The runtime ledger
//!   (`fsc-gpusim`) only charges a transfer when the host copy is newer, so
//!   data stays resident across the time loop; device→host copies happen
//!   lazily when the FIR side touches the result.

use fsc_dialects::{arith, func, gpu, scf};
use fsc_ir::rewrite::move_op_to_end;
use fsc_ir::walk::{collect_nested_ops, collect_ops_named};
use fsc_ir::{
    Attribute, IrError, Module, OpBuilder, OpId, Pass, PassResult, Result, Type, ValueId,
};

/// Attribute on `gpu.launch_func` naming the data strategy.
pub const DATA_STRATEGY_ATTR: &str = "data_strategy";
/// Attribute listing which kernel arguments are written.
pub const WRITTEN_ARGS_ATTR: &str = "written_args";
/// Attribute listing which kernel arguments are read.
pub const READ_ARGS_ATTR: &str = "read_args";

/// `convert-parallel-loops-to-gpu` + `gpu-kernel-outlining`, fused.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConvertParallelLoopsToGpu;

impl Pass for ConvertParallelLoopsToGpu {
    fn name(&self) -> &str {
        "convert-parallel-loops-to-gpu"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let funcs: Vec<OpId> = module.top_level_ops_named(func::FUNC);
        let mut changed = false;
        for f in funcs {
            if outline_func(module, f)? {
                changed = true;
            }
        }
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

fn outline_func(module: &mut Module, f_op: OpId) -> Result<bool> {
    let f = func::FuncOp(f_op);
    let Some(entry) = f.entry_block(module) else {
        return Ok(false);
    };
    // Find the top-level scf.parallel (the stencil loop nest).
    let Some(par_op) = module
        .block_ops(entry)
        .into_iter()
        .find(|&o| module.op(o).name.full() == scf::PARALLEL)
    else {
        return Ok(false);
    };
    let name = f.name(module);
    let kernel_name = format!("{name}_kernel");

    // Launch geometry from the parallel loop.
    let par = scf::ParallelOp(par_op);
    let extents: Vec<i64> = par
        .lbs(module)
        .iter()
        .zip(par.ubs(module))
        .map(|(&lb, ub)| {
            let l = arith::const_int_value(module, lb).unwrap_or(0);
            let u = arith::const_int_value(module, ub).unwrap_or(0);
            (u - l).max(0)
        })
        .collect();
    let tiles: Vec<i64> = module
        .op(par_op)
        .attr("tiled")
        .and_then(Attribute::as_index_list)
        .map(<[i64]>::to_vec)
        .unwrap_or_else(|| {
            module
                .op(par_op)
                .operands
                .iter()
                .skip(2 * par.num_dims(module))
                .map(|&s| arith::const_int_value(module, s).unwrap_or(1))
                .collect()
        });
    let mut block = [1i64; 3];
    let mut grid = [1i64; 3];
    for d in 0..extents.len().min(3) {
        block[d] = tiles.get(d).copied().unwrap_or(1).max(1);
        grid[d] = (extents[d] + block[d] - 1) / block[d].max(1);
    }

    // Which func arguments does the loop nest read/write?
    let args = f.arguments(module);
    let (read_args, written_args) = classify_arg_uses(module, f_op, &args);

    // Build the kernel: a gpu.func with the same signature, which takes
    // over the *entire* entry block (from_ptr views included) minus the
    // func.return.
    let (_, gpu_body) = {
        // One gpu.module per module, created on demand.
        let existing = module.top_level_ops_named(gpu::MODULE);
        if let Some(&gm) = existing.first() {
            let region = module.op(gm).regions[0];
            let body = module.region_blocks(region)[0];
            (gm, body)
        } else {
            gpu::build_gpu_module(module, "stencil_kernels")
        }
    };
    let (ins, _) = f.signature(module);
    let kernel = module.create_op(
        gpu::FUNC,
        vec![],
        vec![],
        vec![
            ("sym_name", Attribute::string(kernel_name.clone())),
            (
                "function_type",
                Attribute::Type(Type::Function {
                    inputs: ins.clone(),
                    results: vec![],
                }),
            ),
            ("kernel", Attribute::Unit),
        ],
    );
    module.append_op(gpu_body, kernel);
    let kregion = module.add_region(kernel);
    let kentry = module.add_block(kregion, &ins);

    // Move the body across, reading the kernel's arguments.
    let kargs = module.block_args(kentry).to_vec();
    for (a, ka) in args.iter().zip(&kargs) {
        module.replace_all_uses(*a, *ka);
    }
    let ret = module
        .block_terminator(entry)
        .ok_or_else(|| IrError::new("function without terminator"))?;
    for op in module.block_ops(entry) {
        if op != ret {
            move_op_to_end(module, op, kentry);
        }
    }
    {
        let mut b = OpBuilder::at_end(module, kentry);
        b.op(gpu::RETURN, vec![], vec![], vec![]);
    }

    // What is left of the original body is a launch.
    {
        let mut b = OpBuilder::before(module, ret);
        let launch = gpu::build_launch_func(&mut b, &kernel_name, grid, block, args);
        let m = b.module();
        m.op_mut(launch).attrs.insert(
            READ_ARGS_ATTR.into(),
            Attribute::IndexList(read_args.iter().map(|&i| i as i64).collect()),
        );
        m.op_mut(launch).attrs.insert(
            WRITTEN_ARGS_ATTR.into(),
            Attribute::IndexList(written_args.iter().map(|&i| i as i64).collect()),
        );
    }
    Ok(true)
}

/// Which argument indices are read / written by the function body. A buffer
/// is *written* when its `memref.from_ptr` view is stored to (or copied
/// into), *read* otherwise.
fn classify_arg_uses(module: &Module, f_op: OpId, args: &[ValueId]) -> (Vec<usize>, Vec<usize>) {
    let mut read = Vec::new();
    let mut written = Vec::new();
    for (i, &arg) in args.iter().enumerate() {
        if !matches!(
            module.value_type(arg),
            Type::LlvmPtr(_) | Type::FirLlvmPtr(_)
        ) {
            continue;
        }
        // Find the from_ptr view(s) of this arg.
        let mut views = Vec::new();
        for op in collect_nested_ops(module, f_op) {
            if module.op(op).name.full() == fsc_dialects::memref::FROM_PTR
                && module.op(op).operands[0] == arg
            {
                views.push(module.result(op));
            }
        }
        let mut is_written = false;
        let mut is_read = false;
        for op in collect_nested_ops(module, f_op) {
            let data = module.op(op);
            match data.name.full() {
                fsc_dialects::memref::STORE if views.contains(&data.operands[1]) => {
                    is_written = true;
                }
                fsc_dialects::memref::LOAD if views.contains(&data.operands[0]) => {
                    is_read = true;
                }
                fsc_dialects::memref::COPY => {
                    if views.contains(&data.operands[0]) {
                        is_read = true;
                    }
                    if views.contains(&data.operands[1]) {
                        is_written = true;
                    }
                }
                _ => {}
            }
        }
        if is_read {
            read.push(i);
        }
        if is_written {
            written.push(i);
        }
    }
    (read, written)
}

/// The "initial data approach": `gpu.host_register` every pointer argument
/// before each launch.
#[derive(Debug, Default, Clone, Copy)]
pub struct GpuDataNaive;

impl Pass for GpuDataNaive {
    fn name(&self) -> &str {
        "gpu-data-host-register"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let mut changed = false;
        for launch in collect_ops_named(module, gpu::LAUNCH_FUNC) {
            if module.op(launch).attr(DATA_STRATEGY_ATTR).is_some() {
                continue;
            }
            let args = module.op(launch).operands.clone();
            let mut b = OpBuilder::before(module, launch);
            for arg in args {
                if matches!(
                    b.module_ref().value_type(arg),
                    Type::LlvmPtr(_) | Type::FirLlvmPtr(_)
                ) {
                    gpu::host_register(&mut b, arg);
                }
            }
            module.op_mut(launch).attrs.insert(
                DATA_STRATEGY_ATTR.into(),
                Attribute::string("host_register"),
            );
            changed = true;
        }
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

/// The paper's bespoke optimised data-management pass: explicit ensure-valid
/// host→device copies before the launch; writes marked for lazy
/// device→host migration.
#[derive(Debug, Default, Clone, Copy)]
pub struct GpuDataExplicit;

impl Pass for GpuDataExplicit {
    fn name(&self) -> &str {
        "gpu-data-explicit"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let mut changed = false;
        for launch in collect_ops_named(module, gpu::LAUNCH_FUNC) {
            if module.op(launch).attr(DATA_STRATEGY_ATTR).is_some() {
                continue;
            }
            let args = module.op(launch).operands.clone();
            let read = module
                .op(launch)
                .attr(READ_ARGS_ATTR)
                .and_then(Attribute::as_index_list)
                .map(<[i64]>::to_vec)
                .unwrap_or_default();
            let mut b = OpBuilder::before(module, launch);
            for &i in &read {
                let arg = args[i as usize];
                // Ensure-valid copy: destination and source are the same
                // logical buffer; the runtime ledger tracks host/device
                // residency and only charges PCIe when the host is newer.
                let cp = gpu::memcpy(&mut b, arg, arg, gpu::CopyDirection::HostToDevice);
                b.module()
                    .op_mut(cp)
                    .attrs
                    .insert("ensure_valid".into(), Attribute::Unit);
            }
            module
                .op_mut(launch)
                .attrs
                .insert(DATA_STRATEGY_ATTR.into(), Attribute::string("explicit"));
            changed = true;
        }
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover_stencils;
    use crate::extract::extract_stencils;
    use crate::merge::merge_adjacent_applies;
    use crate::stencil_to_scf::{lower_stencils, LoweringTarget};
    use crate::tiling::ParallelLoopTiling;
    use fsc_fortran::compile_to_fir;

    const LISTING1: &str = "
program average
  integer, parameter :: n = 64
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
";

    fn gpu_module(src: &str, tile: Vec<i64>) -> Module {
        let mut m = compile_to_fir(src).unwrap();
        discover_stencils(&mut m).unwrap();
        merge_adjacent_applies(&mut m).unwrap();
        let mut st = extract_stencils(&mut m).unwrap();
        lower_stencils(&mut st, LoweringTarget::Gpu).unwrap();
        ParallelLoopTiling {
            tile_sizes: tile,
            ..Default::default()
        }
        .run(&mut st)
        .unwrap();
        ConvertParallelLoopsToGpu.run(&mut st).unwrap();
        st
    }

    #[test]
    fn outlines_kernel_with_launch_geometry() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
        let st = gpu_module(LISTING1, vec![32, 32, 1]);
        let launches = collect_ops_named(&st, gpu::LAUNCH_FUNC);
        assert_eq!(launches.len(), 1);
        let (grid, block) = gpu::launch_dims(&st, launches[0]).ok_or("missing value")?;
        assert_eq!(block, [32, 32, 1]);
        assert_eq!(grid, [2, 2, 1]); // 64/32 per dim
                                     // The kernel lives in a gpu.module.
        let gms = st.top_level_ops_named(gpu::MODULE);
        assert_eq!(gms.len(), 1);
        let kernels = collect_ops_named(&st, gpu::FUNC);
        assert_eq!(kernels.len(), 1);
        // The host function now only launches.
        let f = func::find_func(&st, "stencil_region_0").ok_or("missing value")?;
        let ops = st.block_ops(f.entry_block(&st).ok_or("missing value")?);
        assert_eq!(ops.len(), 2); // launch + return
        Ok(())
    }

    #[test]
    fn read_write_args_classified() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let st = gpu_module(LISTING1, vec![32, 32, 1]);
        let launch = collect_ops_named(&st, gpu::LAUNCH_FUNC)[0];
        let read = st
            .op(launch)
            .attr(READ_ARGS_ATTR)
            .ok_or("missing value")?
            .as_index_list()
            .ok_or("missing value")?;
        let written = st
            .op(launch)
            .attr(WRITTEN_ARGS_ATTR)
            .ok_or("missing value")?
            .as_index_list()
            .ok_or("missing value")?;
        assert_eq!(read, &[0]); // data
        assert_eq!(written, &[1]); // res
        Ok(())
    }

    #[test]
    fn naive_strategy_registers_all_buffers() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
        let mut st = gpu_module(LISTING1, vec![32, 32, 1]);
        GpuDataNaive.run(&mut st)?;
        assert_eq!(collect_ops_named(&st, gpu::HOST_REGISTER).len(), 2);
        let launch = collect_ops_named(&st, gpu::LAUNCH_FUNC)[0];
        assert_eq!(
            st.op(launch)
                .attr(DATA_STRATEGY_ATTR)
                .ok_or("missing value")?
                .as_str(),
            Some("host_register")
        );
        Ok(())
    }

    #[test]
    fn explicit_strategy_copies_reads_only() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
        let mut st = gpu_module(LISTING1, vec![32, 32, 1]);
        GpuDataExplicit.run(&mut st)?;
        let copies = collect_ops_named(&st, gpu::MEMCPY);
        assert_eq!(copies.len(), 1, "only the read buffer needs ensure-valid");
        assert!(st.op(copies[0]).attr("ensure_valid").is_some());
        let launch = collect_ops_named(&st, gpu::LAUNCH_FUNC)[0];
        assert_eq!(
            st.op(launch)
                .attr(DATA_STRATEGY_ATTR)
                .ok_or("missing value")?
                .as_str(),
            Some("explicit")
        );
        Ok(())
    }

    #[test]
    fn strategies_do_not_stack() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut st = gpu_module(LISTING1, vec![32, 32, 1]);
        GpuDataNaive.run(&mut st)?;
        assert_eq!(GpuDataExplicit.run(&mut st)?, PassResult::Unchanged);
        Ok(())
    }

    #[test]
    fn untiled_parallel_uses_steps_as_block() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
        let mut m = compile_to_fir(LISTING1)?;
        discover_stencils(&mut m)?;
        let mut st = extract_stencils(&mut m)?;
        lower_stencils(&mut st, LoweringTarget::Gpu)?;
        ConvertParallelLoopsToGpu.run(&mut st)?;
        let launch = collect_ops_named(&st, gpu::LAUNCH_FUNC)[0];
        let (grid, block) = gpu::launch_dims(&st, launch).ok_or("missing value")?;
        assert_eq!(block, [1, 1, 1]);
        assert_eq!(grid, [64, 64, 1]);
        Ok(())
    }
}
