//! `convert-scf-to-openmp`: rewrite top-level `scf.parallel` loops into the
//! `omp.parallel { omp.wsloop }` nest, as MLIR's pass of the same name does.
//!
//! This is the step that gives the paper its automatic multi-threading: the
//! Fortran source was serial, the parallel loop came from the stencil
//! lowering, and the OpenMP mapping here is what Figures 3 and 4 measure.

use fsc_dialects::{omp, scf};
use fsc_ir::pass::PassOptions;
use fsc_ir::rewrite::move_op_before;
use fsc_ir::walk::collect_ops_named;
use fsc_ir::{IrError, Module, OpBuilder, Pass, PassResult, Result};

/// The `convert-scf-to-openmp` pass. Option `num-threads=N` fixes the team
/// size (0 = runtime default).
#[derive(Debug, Default, Clone, Copy)]
pub struct ConvertScfToOpenMp {
    /// Requested team size; 0 lets the runtime decide.
    pub num_threads: u32,
}

impl ConvertScfToOpenMp {
    /// Construct from pipeline options.
    pub fn from_options(opts: &PassOptions) -> Self {
        let num_threads = opts
            .get("num-threads")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        Self { num_threads }
    }
}

impl Pass for ConvertScfToOpenMp {
    fn name(&self) -> &str {
        "convert-scf-to-openmp"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let mut changed = false;
        for par_op in collect_ops_named(module, scf::PARALLEL) {
            if !module.is_alive(par_op) {
                continue;
            }
            // Only *outermost* parallel loops fork a team.
            let nested_in_parallel = module
                .ancestors(par_op)
                .iter()
                .any(|&a| matches!(module.op(a).name.full(), scf::PARALLEL | omp::WSLOOP));
            if nested_in_parallel {
                continue;
            }
            convert_one(module, par_op, self.num_threads)?;
            changed = true;
        }
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

fn convert_one(module: &mut Module, par_op: fsc_ir::OpId, num_threads: u32) -> Result<()> {
    let par = scf::ParallelOp(par_op);
    let lbs = par.lbs(module);
    let ubs = par.ubs(module);
    let steps = par.steps(module);
    let src_body = par.body(module);
    let src_ivs = par.ivs(module);

    // omp.parallel { omp.wsloop(...) { body } } in place of the scf loop.
    let (omp_par, par_body) = {
        let mut b = OpBuilder::before(module, par_op);
        omp::build_parallel(&mut b, num_threads)
    };
    // A tiled scf.parallel carries its tile sizes in the "tiled"
    // attribute; the kernel compiler reads that attribute off the loop
    // *root* (here the omp.parallel) to seed the default execution plan,
    // so carry it across the dialect conversion.
    if let Some(tiles) = module.op(par_op).attr("tiled").cloned() {
        module.op_mut(omp_par).attrs.insert("tiled".into(), tiles);
    }
    let ws = {
        let term = module
            .block_terminator(par_body)
            .ok_or_else(|| IrError::new("omp.parallel body lost its terminator"))?;
        let mut b = OpBuilder::before(module, term);
        omp::build_wsloop(&mut b, lbs, ubs, steps)
    };
    let ws_body = ws.body(module);
    let ws_ivs = ws.ivs(module);

    // Move the loop body across under the new induction variables.
    for (old, new) in src_ivs.iter().zip(&ws_ivs) {
        module.replace_all_uses(*old, *new);
    }
    let term = module
        .block_terminator(ws_body)
        .ok_or_else(|| IrError::new("omp.wsloop body lost its terminator"))?;
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
    use fsc_dialects::arith;
    use fsc_dialects::verify::verify;
    use fsc_ir::Type;

    fn module_with_parallel(dims: usize) -> Module {
        let mut m = Module::new();
        let (_, entry) = fsc_dialects::func::build_func(&mut m, "k", vec![], vec![]);
        {
            let mut b = OpBuilder::at_end(&mut m, entry);
            let zero = arith::const_index(&mut b, 0);
            let n = arith::const_index(&mut b, 16);
            let one = arith::const_index(&mut b, 1);
            let par = scf::build_parallel(&mut b, vec![zero; dims], vec![n; dims], vec![one; dims]);
            let m2 = b.module();
            let body = par.body(m2);
            let iv = par.ivs(m2)[0];
            let term = m2.block_terminator(body).unwrap();
            let mut ib = OpBuilder::before(m2, term);
            ib.op("test.use", vec![iv], vec![], vec![]);
        }
        {
            let f = fsc_dialects::func::find_func(&m, "k").unwrap();
            let entry = f.entry_block(&m).unwrap();
            let mut b = OpBuilder::at_end(&mut m, entry);
            fsc_dialects::func::build_return(&mut b, vec![]);
        }
        m
    }

    #[test]
    fn wraps_parallel_in_omp_nest() {
        let mut m = module_with_parallel(2);
        let pass = ConvertScfToOpenMp { num_threads: 8 };
        assert_eq!(pass.run(&mut m).unwrap(), PassResult::Changed);
        assert!(collect_ops_named(&m, scf::PARALLEL).is_empty());
        let pars = collect_ops_named(&m, omp::PARALLEL);
        assert_eq!(pars.len(), 1);
        assert_eq!(omp::parallel_num_threads(&m, pars[0]), 8);
        let loops = collect_ops_named(&m, omp::WSLOOP);
        assert_eq!(loops.len(), 1);
        let ws = omp::WsLoopOp(loops[0]);
        assert_eq!(ws.num_dims(&m), 2);
        // Body moved across with remapped ivs.
        let uses = collect_ops_named(&m, "test.use");
        assert_eq!(uses.len(), 1);
        assert_eq!(m.op(uses[0]).operands[0], ws.ivs(&m)[0]);
        verify(&m).unwrap();
    }

    #[test]
    fn unchanged_when_no_parallel_loops() {
        let mut m = Module::new();
        assert_eq!(
            ConvertScfToOpenMp::default().run(&mut m).unwrap(),
            PassResult::Unchanged
        );
    }

    #[test]
    fn options_parse_num_threads() {
        let mut opts = PassOptions::default();
        opts.set("num-threads", "64");
        assert_eq!(ConvertScfToOpenMp::from_options(&opts).num_threads, 64);
    }

    #[test]
    fn inner_scf_for_survives() {
        // parallel { for { use } } — the for must move intact.
        let mut m = Module::new();
        let (_, entry) = fsc_dialects::func::build_func(&mut m, "k", vec![], vec![]);
        {
            let mut b = OpBuilder::at_end(&mut m, entry);
            let zero = arith::const_index(&mut b, 0);
            let n = arith::const_index(&mut b, 8);
            let one = arith::const_index(&mut b, 1);
            let par = scf::build_parallel(&mut b, vec![zero], vec![n], vec![one]);
            let m2 = b.module();
            let pbody = par.body(m2);
            let term = m2.block_terminator(pbody).unwrap();
            let mut ib = OpBuilder::before(m2, term);
            let f = scf::build_for(&mut ib, zero, n, one);
            let m3 = ib.module();
            let fbody = f.body(m3);
            let fiv = f.iv(m3);
            let fterm = m3.block_terminator(fbody).unwrap();
            let mut fb = OpBuilder::before(m3, fterm);
            fb.op("test.use", vec![fiv], vec![], vec![]);
        }
        ConvertScfToOpenMp::default().run(&mut m).unwrap();
        let fors = collect_ops_named(&m, scf::FOR);
        assert_eq!(fors.len(), 1);
        let ws = collect_ops_named(&m, omp::WSLOOP);
        assert!(m.ancestors(fors[0]).contains(&ws[0]));
        assert_eq!(collect_ops_named(&m, "test.use").len(), 1);
    }

    #[test]
    fn tiled_attr_survives_conversion() {
        let mut m = module_with_parallel(2);
        let par = collect_ops_named(&m, scf::PARALLEL)[0];
        m.op_mut(par)
            .attrs
            .insert("tiled".into(), fsc_ir::Attribute::IndexList(vec![16, 4]));
        ConvertScfToOpenMp { num_threads: 4 }.run(&mut m).unwrap();
        let omp_par = collect_ops_named(&m, omp::PARALLEL)[0];
        assert_eq!(
            m.op(omp_par).attr("tiled").unwrap().as_index_list(),
            Some(&[16, 4][..]),
            "omp.parallel must carry the scf.parallel's tile sizes"
        );
    }

    #[test]
    fn type_of_ivs_is_index() {
        let mut m = module_with_parallel(1);
        ConvertScfToOpenMp::default().run(&mut m).unwrap();
        let ws = omp::WsLoopOp(collect_ops_named(&m, omp::WSLOOP)[0]);
        for iv in ws.ivs(&m) {
            assert_eq!(m.value_type(iv), &Type::Index);
        }
    }
}
