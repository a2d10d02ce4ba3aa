//! `scf-parallel-loop-tiling{parallel-loop-tile-sizes=...}`: tile a parallel
//! loop nest into parallel-over-tiles with serial intra-tile loops.
//!
//! Listing 4 of the paper passes `32,32,1` for the GPU flow and notes both
//! that performance is sensitive to these values and that bad values can
//! fail at runtime — our Figure-5 ablation bench sweeps them.

use fsc_dialects::{arith, scf};
use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::pass::PassOptions;
use fsc_ir::rewrite::move_op_before;
use fsc_ir::walk::collect_ops_named;
use fsc_ir::{IrError, Module, OpBuilder, OpId, Pass, PassResult, Result, ValueId};

/// The tiling pass.
#[derive(Debug, Clone)]
pub struct ParallelLoopTiling {
    /// Tile size per parallel dimension (in the loop's dimension order);
    /// missing entries default to 1.
    pub tile_sizes: Vec<i64>,
    /// Innermost-dimension unroll hint, stamped as the `"unroll"` attr on
    /// the tiled loop. The kernel compiler seeds each nest's default
    /// execution plan from it (the jit/specialized row skeletons unroll by
    /// 4 when the plan asks for ≥ 4); the autotuner may later replace it.
    pub unroll: i64,
}

impl Default for ParallelLoopTiling {
    fn default() -> Self {
        Self {
            tile_sizes: vec![32, 32, 1],
            unroll: 4,
        }
    }
}

impl ParallelLoopTiling {
    /// Construct from pipeline options
    /// (`parallel-loop-tile-sizes=32,32,1 unroll=4`).
    pub fn from_options(opts: &PassOptions) -> Self {
        let tile_sizes = opts
            .get_int_list("parallel-loop-tile-sizes")
            .unwrap_or_else(|| vec![32, 32, 1]);
        let unroll = opts
            .get_int_list("unroll")
            .and_then(|l| l.first().copied())
            .unwrap_or(4);
        Self { tile_sizes, unroll }
    }

    fn tile_for_dim(&self, d: usize) -> i64 {
        self.tile_sizes.get(d).copied().unwrap_or(1)
    }

    /// Reject out-of-range option values. Explicit zero/negative tile
    /// sizes used to be silently clamped to 1, which hid typos in
    /// `parallel-loop-tile-sizes=` and made ablation sweeps lie about the
    /// configuration they measured; now they are a coded error. Missing
    /// trailing dimensions still default to 1 (untiled) — only values the
    /// user actually wrote are validated.
    fn validate(&self) -> Result<()> {
        if !(1..=8).contains(&self.unroll) {
            return Err(IrError::from_diagnostic(
                Diagnostic::error(
                    codes::PASS_BAD_OPTION,
                    format!(
                        "scf-parallel-loop-tiling: unroll {} is out of range (1..=8)",
                        self.unroll
                    ),
                )
                .note("use 1 to disable unrolling of the innermost row loop"),
            ));
        }
        if let Some(&bad) = self.tile_sizes.iter().find(|&&t| t < 1) {
            return Err(IrError::from_diagnostic(
                Diagnostic::error(
                    codes::PASS_BAD_OPTION,
                    format!(
                        "scf-parallel-loop-tiling: tile size {bad} is out of range \
                         (parallel-loop-tile-sizes entries must be >= 1)"
                    ),
                )
                .note(format!(
                    "requested parallel-loop-tile-sizes={}",
                    self.tile_sizes
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ))
                .note("use 1 to leave a dimension untiled"),
            ));
        }
        Ok(())
    }
}

impl Pass for ParallelLoopTiling {
    fn name(&self) -> &str {
        "scf-parallel-loop-tiling"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        self.validate()?;
        let mut changed = false;
        for par in collect_ops_named(module, scf::PARALLEL) {
            if !module.is_alive(par) {
                continue;
            }
            // Skip already-tiled loops (their bodies start with scf.for
            // nests we created) by only tiling loops not marked.
            if module.op(par).attr("tiled").is_some() {
                continue;
            }
            tile_one(module, par, self)?;
            changed = true;
        }
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

fn tile_one(module: &mut Module, par_op: OpId, cfg: &ParallelLoopTiling) -> Result<()> {
    let par = scf::ParallelOp(par_op);
    let n = par.num_dims(module);
    let lbs = par.lbs(module);
    let ubs = par.ubs(module);
    let steps = par.steps(module);
    let src_body = par.body(module);
    let src_ivs = par.ivs(module);

    // Outer: parallel over tile origins.
    let outer = {
        let mut b = OpBuilder::before(module, par_op);
        let tile_steps: Vec<ValueId> = (0..n)
            .map(|d| arith::const_index(&mut b, cfg.tile_for_dim(d)))
            .collect();
        let outer = scf::build_parallel(&mut b, lbs, ubs.clone(), tile_steps);
        b.module().op_mut(outer.0).attrs.insert(
            "tiled".into(),
            fsc_ir::Attribute::IndexList((0..n).map(|d| cfg.tile_for_dim(d)).collect()),
        );
        b.module().op_mut(outer.0).attrs.insert(
            "unroll".into(),
            fsc_ir::Attribute::Int(cfg.unroll, fsc_ir::Type::Index),
        );
        outer
    };
    let outer_ivs = outer.ivs(module);

    // Inner serial loops: for each dim, origin .. min(origin+tile, ub).
    let mut current = outer.body(module);
    let mut inner_ivs: Vec<ValueId> = Vec::with_capacity(n);
    for d in 0..n {
        let term = module
            .block_terminator(current)
            .ok_or_else(|| IrError::new("tiled loop body lost its terminator"))?;
        let mut b = OpBuilder::before(module, term);
        let tile = arith::const_index(&mut b, cfg.tile_for_dim(d));
        let end = arith::addi(&mut b, outer_ivs[d], tile);
        let clamped = arith::binary(&mut b, "arith.minsi", end, ubs[d]);
        let f = scf::build_for(&mut b, outer_ivs[d], clamped, steps[d]);
        let m2 = b.module();
        inner_ivs.push(f.iv(m2));
        current = f.body(m2);
    }

    // Move the body under the new induction variables.
    for (old, new) in src_ivs.iter().zip(&inner_ivs) {
        module.replace_all_uses(*old, *new);
    }
    let term = module
        .block_terminator(current)
        .ok_or_else(|| IrError::new("tiled loop body lost its terminator"))?;
    for op in module.block_ops(src_body) {
        if module.op(op).name.full() != scf::YIELD {
            move_op_before(module, op, term);
        }
    }
    module.erase_op(par_op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_dialects::verify::verify;

    fn parallel_module(dims: usize, extent: i64) -> Module {
        let mut m = Module::new();
        let (_, entry) = fsc_dialects::func::build_func(&mut m, "k", vec![], vec![]);
        let mut b = OpBuilder::at_end(&mut m, entry);
        let zero = arith::const_index(&mut b, 0);
        let n = arith::const_index(&mut b, extent);
        let one = arith::const_index(&mut b, 1);
        let par = scf::build_parallel(&mut b, vec![zero; dims], vec![n; dims], vec![one; dims]);
        let m2 = b.module();
        let body = par.body(m2);
        let iv = par.ivs(m2)[0];
        let term = m2.block_terminator(body).unwrap();
        let mut ib = OpBuilder::before(m2, term);
        ib.op("test.use", vec![iv], vec![], vec![]);
        m
    }

    #[test]
    fn tiles_two_dims() {
        let mut m = parallel_module(2, 64);
        let pass = ParallelLoopTiling {
            tile_sizes: vec![32, 16],
            ..Default::default()
        };
        assert_eq!(pass.run(&mut m).unwrap(), PassResult::Changed);
        let pars = collect_ops_named(&m, scf::PARALLEL);
        assert_eq!(pars.len(), 1);
        let par = scf::ParallelOp(pars[0]);
        // Steps became the tile sizes.
        let steps: Vec<i64> = par
            .steps(&m)
            .iter()
            .map(|&s| arith::const_int_value(&m, s).unwrap())
            .collect();
        assert_eq!(steps, vec![32, 16]);
        // Two nested intra-tile fors with min-clamped bounds.
        let fors = collect_ops_named(&m, scf::FOR);
        assert_eq!(fors.len(), 2);
        assert_eq!(collect_ops_named(&m, "arith.minsi").len(), 2);
        // Body now uses the inner for's iv.
        let uses = collect_ops_named(&m, "test.use");
        let innermost_for = scf::ForOp(fors[fors.len() - 1]);
        let _ = innermost_for;
        assert_eq!(uses.len(), 1);
        verify(&m).unwrap();
    }

    #[test]
    fn idempotent_on_tiled_loops() {
        let mut m = parallel_module(1, 64);
        let pass = ParallelLoopTiling {
            tile_sizes: vec![8],
            ..Default::default()
        };
        pass.run(&mut m).unwrap();
        assert_eq!(pass.run(&mut m).unwrap(), PassResult::Unchanged);
        assert_eq!(collect_ops_named(&m, scf::PARALLEL).len(), 1);
    }

    #[test]
    fn listing4_sizes_parse() {
        let mut opts = PassOptions::default();
        opts.set("parallel-loop-tile-sizes", "32,32,1");
        let pass = ParallelLoopTiling::from_options(&opts);
        assert_eq!(pass.tile_sizes, vec![32, 32, 1]);
        assert_eq!(pass.tile_for_dim(0), 32);
        assert_eq!(pass.tile_for_dim(2), 1);
        assert_eq!(pass.tile_for_dim(9), 1, "missing dims default to 1");
    }

    #[test]
    fn zero_and_negative_tile_sizes_are_rejected_with_coded_diagnostic() {
        for bad in [vec![0, 32], vec![32, -4, 1]] {
            let mut m = parallel_module(2, 64);
            let err = ParallelLoopTiling {
                tile_sizes: bad.clone(),
                ..Default::default()
            }
            .run(&mut m)
            .expect_err("tile sizes {bad:?} must be rejected");
            let diag = err.diagnostics.first().expect("coded diagnostic");
            assert_eq!(diag.code, codes::PASS_BAD_OPTION);
            assert!(err.message.contains("E0504"), "{}", err.message);
            // The module was not touched: the untiled parallel survives.
            assert_eq!(collect_ops_named(&m, scf::FOR).len(), 0);
        }
    }

    #[test]
    fn records_tile_attr_for_gpu_mapping() {
        let mut m = parallel_module(2, 64);
        ParallelLoopTiling {
            tile_sizes: vec![32, 4],
            ..Default::default()
        }
        .run(&mut m)
        .unwrap();
        let pars = collect_ops_named(&m, scf::PARALLEL);
        assert_eq!(
            m.op(pars[0]).attr("tiled").unwrap().as_index_list(),
            Some(&[32, 4][..])
        );
    }

    #[test]
    fn records_unroll_attr_for_tier_selection() {
        let mut m = parallel_module(2, 64);
        ParallelLoopTiling {
            tile_sizes: vec![16, 16],
            unroll: 2,
        }
        .run(&mut m)
        .unwrap();
        let pars = collect_ops_named(&m, scf::PARALLEL);
        assert_eq!(m.op(pars[0]).attr("unroll").unwrap().as_int(), Some(2));
        // Pipeline option spelling parses into the same place.
        let mut opts = PassOptions::default();
        opts.set("unroll", "8");
        assert_eq!(ParallelLoopTiling::from_options(&opts).unroll, 8);
        assert_eq!(
            ParallelLoopTiling::from_options(&PassOptions::default()).unroll,
            4
        );
    }

    #[test]
    fn out_of_range_unroll_is_rejected_with_coded_diagnostic() {
        for bad in [0i64, 9, -3] {
            let mut m = parallel_module(1, 32);
            let err = ParallelLoopTiling {
                tile_sizes: vec![8],
                unroll: bad,
            }
            .run(&mut m)
            .expect_err("unroll {bad} must be rejected");
            assert_eq!(
                err.diagnostics.first().unwrap().code,
                codes::PASS_BAD_OPTION
            );
        }
    }
}
