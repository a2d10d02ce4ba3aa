//! Hardened pass-pipeline driver: run → verify → contain.
//!
//! The plain [`PassManager`] aborts compilation on the first pass error and
//! offers no protection against a pass that *panics* or silently corrupts
//! the module. This driver wraps a pass list with a containment protocol:
//!
//! 1. take the working module *by value* ([`HardenedPipeline::run_owned`]):
//!    the driver owns what the passes rewrite, and whoever wants the input
//!    back after a failure keeps it (or a copy of it) themselves;
//! 2. run each pass under [`std::panic::catch_unwind`], so a buggy pass
//!    cannot take the whole compiler down;
//! 3. re-verify the module (structural + dialect checks) after each pass,
//!    so a pass that "succeeded" but broke an invariant is caught at the
//!    pass that broke it;
//! 4. on the first failure, drop the working module and stop, attesting
//!    *which* pass failed, *how* (error / panic / broke-IR) and *why* in a
//!    [`PassFailure`]. Rollback is a matter of ownership, not snapshots:
//!    nothing a rejected pass touched outlives it, so no copy is taken
//!    between passes and a pipeline of any length costs its caller at most
//!    the one copy it chose to keep.
//!
//! The driver never turns a pass failure into a process abort: the caller
//! (the degradation ladder in `fsc-core`) receives the failure and decides
//! whether to reroute down a simpler pipeline from its pristine module.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::pass::PassStat;
use fsc_ir::{IrError, Module, Pass, PassManager, PassResult, Result};

/// How a pass was rejected by the hardened driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The pass returned an error (`E0501`).
    Failed,
    /// The pass panicked; the payload message was captured (`E0502`).
    Panicked,
    /// The pass completed but left the module failing verification
    /// (`E0503`).
    BrokeIr,
}

impl FailureKind {
    /// The diagnostic code attested for this failure class.
    pub fn code(self) -> &'static str {
        match self {
            FailureKind::Failed => codes::PASS_FAILED,
            FailureKind::Panicked => codes::PASS_PANICKED,
            FailureKind::BrokeIr => codes::PASS_BROKE_IR,
        }
    }
}

/// Attestation of a rejected pass.
#[derive(Debug, Clone)]
pub struct PassFailure {
    /// Name of the pass that failed.
    pub pass: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Coded diagnostics describing the failure.
    pub diagnostics: Vec<Diagnostic>,
}

impl PassFailure {
    fn new(pass: &dyn Pass, kind: FailureKind, detail: String) -> Self {
        let verb = match kind {
            FailureKind::Failed => "failed",
            FailureKind::Panicked => "panicked",
            FailureKind::BrokeIr => "broke the IR",
        };
        let diag = Diagnostic::error(
            kind.code(),
            format!("pass '{}' {verb}: {detail}", pass.name()),
        )
        .note("the module was rolled back to its state on entry to the pipeline");
        Self {
            pass: pass.name().to_string(),
            kind,
            diagnostics: vec![diag],
        }
    }

    /// Convert into the crate error type (for callers without a fallback).
    pub fn into_error(self) -> IrError {
        IrError::from_diagnostics(self.diagnostics)
    }
}

/// Report of one hardened pipeline run.
#[derive(Debug, Default)]
pub struct PipelineReport {
    /// Stats of the passes that ran and were accepted, in order.
    pub stats: Vec<PassStat>,
    /// The first failure, if any; the pipeline stops at it.
    pub failure: Option<PassFailure>,
    /// Whether the module was left at its state on entry to the pipeline
    /// because a pass was rejected.
    pub rolled_back: bool,
}

impl PipelineReport {
    /// True when every scheduled pass ran and verified.
    pub fn completed(&self) -> bool {
        self.failure.is_none()
    }
}

/// A pass pipeline driven with panic containment, post-pass verification
/// and rollback by ownership.
pub struct HardenedPipeline {
    passes: Vec<Box<dyn Pass>>,
    /// Name of a pass whose output is deliberately corrupted after it runs
    /// — a fault-injection hook attesting the rollback path end to end.
    sabotage: Option<String>,
}

impl HardenedPipeline {
    /// Wrap the passes of a built pass manager.
    pub fn new(pm: PassManager) -> Self {
        Self {
            passes: pm.into_passes(),
            sabotage: None,
        }
    }

    /// Corrupt the module right after the named pass runs, so its post-pass
    /// verification fails and the rollback path is exercised for real.
    pub fn sabotage_pass(mut self, name: impl Into<String>) -> Self {
        self.sabotage = Some(name.into());
        self
    }

    /// Names of the scheduled passes, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run the passes in order under the containment protocol, owning the
    /// working module. Returns the rewritten module when every pass ran and
    /// verified; on the first failure the working module is dropped — no
    /// later pass runs — and the attested failure is returned instead. The
    /// stats cover the accepted passes only, in order.
    pub fn run_owned(
        &self,
        mut module: Module,
    ) -> (std::result::Result<Module, PassFailure>, Vec<PassStat>) {
        let mut stats = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let start = Instant::now();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| pass.run(&mut module)));
            if self.sabotage.as_deref() == Some(pass.name()) {
                corrupt_module(&mut module);
            }
            let rejected = match outcome {
                Err(payload) => Some((FailureKind::Panicked, payload_message(payload.as_ref()))),
                Ok(Err(e)) => Some((FailureKind::Failed, e.message)),
                Ok(Ok(result)) => match fsc_dialects::verify::verify(&module) {
                    Err(e) => Some((FailureKind::BrokeIr, e.message)),
                    Ok(()) => {
                        stats.push(PassStat {
                            name: pass.name().to_string(),
                            duration: start.elapsed(),
                            changed: result == PassResult::Changed,
                        });
                        None
                    }
                },
            };
            if let Some((kind, detail)) = rejected {
                return (Err(PassFailure::new(pass.as_ref(), kind, detail)), stats);
            }
        }
        (Ok(module), stats)
    }

    /// [`run_owned`](Self::run_owned) for a caller that keeps the module in
    /// place: the pipeline works on a copy, which replaces `*module` when
    /// every pass was accepted. A failure does not return `Err`: `*module`
    /// is left exactly as it was on entry and the failure is attested in
    /// the report, so the caller can reroute to a fallback pipeline.
    pub fn run(&self, module: &mut Module) -> PipelineReport {
        let (result, stats) = self.run_owned(module.clone());
        let failure = match result {
            Ok(done) => {
                *module = done;
                None
            }
            Err(failure) => Some(failure),
        };
        PipelineReport {
            stats,
            rolled_back: failure.is_some(),
            failure,
        }
    }

    /// Strict mode: like [`run`](Self::run), but a failure is returned as
    /// an error (the module is still left as it was on entry).
    pub fn run_strict(&self, module: &mut Module) -> Result<Vec<PassStat>> {
        let report = self.run(module);
        match report.failure {
            Some(f) => Err(f.into_error()),
            None => Ok(report.stats),
        }
    }
}

/// Render a caught panic payload as a message (shared with the degradation
/// ladder in `fsc-core`, which guards the non-pass compile stages).
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<IrError>() {
        e.message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deliberately break a structural invariant: add an op that uses the
/// result of a *detached* op, which the verifier rejects.
fn corrupt_module(module: &mut Module) {
    let top = module.top_block();
    let detached = module.create_op("sabotage.value", vec![], vec![fsc_ir::Type::i64()], vec![]);
    let v = module.result(detached);
    let user = module.create_op("sabotage.use", vec![v], vec![], vec![]);
    module.append_op(top, user);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_ir::Attribute;

    struct AddMarker;
    impl Pass for AddMarker {
        fn name(&self) -> &str {
            "add-marker"
        }
        fn run(&self, module: &mut Module) -> Result<PassResult> {
            let top = module.top_block();
            let op = module.create_op("test.marker", vec![], vec![], vec![]);
            module.append_op(top, op);
            Ok(PassResult::Changed)
        }
    }

    struct Panicker;
    impl Pass for Panicker {
        fn name(&self) -> &str {
            "panicker"
        }
        fn run(&self, module: &mut Module) -> Result<PassResult> {
            // Mutate first, then die: rollback must undo the mutation.
            let top = module.top_block();
            let op = module.create_op("test.halfdone", vec![], vec![], vec![]);
            module.append_op(top, op);
            panic!("simulated pass bug");
        }
    }

    struct Erroring;
    impl Pass for Erroring {
        fn name(&self) -> &str {
            "erroring"
        }
        fn run(&self, _m: &mut Module) -> Result<PassResult> {
            Err(IrError::new("deliberate failure"))
        }
    }

    struct Breaker;
    impl Pass for Breaker {
        fn name(&self) -> &str {
            "breaker"
        }
        fn run(&self, module: &mut Module) -> Result<PassResult> {
            let top = module.top_block();
            let c = module.create_op(
                "t.c",
                vec![],
                vec![fsc_ir::Type::i64()],
                vec![("value", Attribute::int(0))],
            );
            let v = module.result(c);
            let u = module.create_op("t.use", vec![v], vec![], vec![]);
            module.append_op(top, u);
            Ok(PassResult::Changed)
        }
    }

    fn pipeline_of(passes: Vec<Box<dyn Pass>>) -> HardenedPipeline {
        let mut pm = PassManager::new();
        for p in passes {
            pm.add_boxed(p);
        }
        HardenedPipeline::new(pm)
    }

    #[test]
    fn clean_pipeline_completes_with_stats() {
        let hp = pipeline_of(vec![Box::new(AddMarker), Box::new(AddMarker)]);
        let mut m = Module::new();
        let report = hp.run(&mut m);
        assert!(report.completed());
        assert!(!report.rolled_back);
        assert_eq!(report.stats.len(), 2);
        assert_eq!(m.live_op_count(), 2);
    }

    #[test]
    fn panicking_pass_is_contained_and_rolled_back() {
        let hp = pipeline_of(vec![Box::new(AddMarker), Box::new(Panicker)]);
        let mut m = Module::new();
        let report = hp.run(&mut m);
        let failure = report.failure.as_ref().expect("failure attested");
        assert_eq!(failure.kind, FailureKind::Panicked);
        assert_eq!(failure.pass, "panicker");
        assert!(report.rolled_back);
        // The module is as it was on entry to the pipeline: neither the
        // panicker's half-done mutation nor the accepted pass before it
        // survives, though that pass is still reported.
        assert_eq!(m.live_op_count(), 0);
        assert_eq!(report.stats.len(), 1);
        let rendered = failure.diagnostics[0].render();
        assert!(rendered.contains("E0502"), "{rendered}");
        assert!(rendered.contains("simulated pass bug"), "{rendered}");
    }

    #[test]
    fn erroring_pass_stops_the_pipeline() {
        let hp = pipeline_of(vec![Box::new(Erroring), Box::new(AddMarker)]);
        let mut m = Module::new();
        let report = hp.run(&mut m);
        let failure = report.failure.as_ref().expect("failure attested");
        assert_eq!(failure.kind, FailureKind::Failed);
        // The pass after the failure never ran.
        assert_eq!(report.stats.len(), 0);
        assert_eq!(m.live_op_count(), 0);
        assert_eq!(failure.diagnostics[0].code, codes::PASS_FAILED);
    }

    #[test]
    fn ir_breaking_pass_is_caught_by_post_verification() {
        let hp = pipeline_of(vec![Box::new(Breaker)]);
        let mut m = Module::new();
        let report = hp.run(&mut m);
        let failure = report.failure.as_ref().expect("failure attested");
        assert_eq!(failure.kind, FailureKind::BrokeIr);
        assert!(report.rolled_back);
        assert_eq!(m.live_op_count(), 0, "corruption rolled back");
    }

    #[test]
    fn sabotage_hook_corrupts_and_rolls_back_the_named_pass() {
        let hp =
            pipeline_of(vec![Box::new(AddMarker), Box::new(AddMarker)]).sabotage_pass("add-marker");
        let mut m = Module::new();
        let report = hp.run(&mut m);
        let failure = report.failure.as_ref().expect("sabotage must be caught");
        assert_eq!(failure.kind, FailureKind::BrokeIr);
        assert_eq!(failure.pass, "add-marker");
        // The very first pass was sabotaged, so nothing survives.
        assert_eq!(m.live_op_count(), 0);
    }

    #[test]
    fn run_strict_surfaces_the_failure_as_an_error() {
        let hp = pipeline_of(vec![Box::new(Erroring)]);
        let mut m = Module::new();
        let err = hp.run_strict(&mut m).expect_err("strict mode errors");
        assert!(err.message.contains("deliberate failure"), "{err}");
        assert_eq!(err.primary().map(|d| d.code), Some(codes::PASS_FAILED));
    }

    type MakePass = fn() -> Box<dyn Pass>;

    /// One pass per way of being rejected.
    const FAILING: [(MakePass, FailureKind); 3] = [
        (|| Box::new(Erroring), FailureKind::Failed),
        (|| Box::new(Panicker), FailureKind::Panicked),
        (|| Box::new(Breaker), FailureKind::BrokeIr),
    ];

    /// A pass that counts its runs: shows what the driver ran, not just
    /// what it reported.
    struct Counting(std::sync::Arc<std::sync::atomic::AtomicUsize>);
    impl Pass for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn run(&self, _m: &mut Module) -> Result<PassResult> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(PassResult::Unchanged)
        }
    }

    #[test]
    fn owning_form_stops_at_the_first_failure_and_reports_accepted_passes_only() {
        for (make, _) in FAILING {
            let runs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let hp = pipeline_of(vec![
                Box::new(AddMarker),
                Box::new(Counting(runs.clone())),
                make(),
                Box::new(Counting(runs.clone())),
                Box::new(AddMarker),
            ]);
            let failed = hp.pass_names()[2].to_string();
            let (result, stats) = hp.run_owned(Module::new());
            let failure = result.expect_err("the third pass is rejected");
            assert_eq!(failure.pass, failed);
            let accepted: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(accepted, ["add-marker", "counting"]);
            let runs = runs.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(runs, 1, "no pass runs after '{failed}' fails");
        }
        // Nothing fails: the rewritten module comes back with every stat.
        let hp = pipeline_of(vec![Box::new(AddMarker), Box::new(AddMarker)]);
        let (result, stats) = hp.run_owned(Module::new());
        assert_eq!(result.expect("completes").live_op_count(), 2);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn run_leaves_the_callers_module_byte_identical_after_any_failure() {
        let src = "program t
integer, parameter :: n = 8
integer :: i
real(kind=8) :: a(0:n+1), r(0:n+1)
do i = 1, n
  r(i) = 0.5 * (a(i-1) + a(i+1))
end do
end program t";
        for (make, kind) in FAILING {
            let mut m = fsc_fortran::compile_to_fir(src).expect("compiles");
            let before = fsc_ir::print::print_module(&m);
            // Real rewriting first, so there is something to lose.
            let mut pm = crate::pipelines::discovery_pipeline();
            pm.add_boxed(make());
            let report = HardenedPipeline::new(pm).run(&mut m);
            assert_eq!(report.failure.as_ref().map(|f| f.kind), Some(kind));
            assert!(report.rolled_back);
            assert_eq!(report.stats.len(), 2, "discovery itself was accepted");
            assert_eq!(fsc_ir::print::print_module(&m), before, "{kind:?}");
            fsc_dialects::verify::verify(&m).expect("still verifies");
        }
    }

    #[test]
    fn real_pipeline_runs_hardened() {
        // The actual CPU pipeline over a real lowered module.
        let src = "program t
integer, parameter :: n = 8
integer :: i
real(kind=8) :: a(0:n+1), r(0:n+1)
do i = 1, n
  r(i) = 0.5 * (a(i-1) + a(i+1))
end do
end program t";
        let mut m = fsc_fortran::compile_to_fir(src).expect("compiles");
        let discovery = HardenedPipeline::new(crate::pipelines::discovery_pipeline());
        let report = discovery.run(&mut m);
        assert!(report.completed(), "{:?}", report.failure);
        let mut stencil = crate::extract::extract_stencils(&mut m).expect("extracts");
        let cpu = HardenedPipeline::new(crate::pipelines::cpu_pipeline().expect("builds"));
        let report = cpu.run(&mut stencil);
        assert!(report.completed(), "{:?}", report.failure);
        assert!(report.stats.len() >= 4);
    }
}
