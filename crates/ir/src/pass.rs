//! Pass infrastructure: the [`Pass`] trait, a [`PassManager`], and a
//! [`PassRegistry`] that resolves textual
//! pipelines such as the paper's Listing 4
//! (`"scf-parallel-loop-tiling{...},canonicalize,..."`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::module::Module;
use crate::{IrError, Result};

/// Errors produced while running passes (alias of the crate error type).
pub type PassError = IrError;

/// Whether a pass changed the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassResult {
    /// The IR was modified.
    Changed,
    /// No modification was made.
    Unchanged,
}

/// A module-level transformation.
pub trait Pass {
    /// Stable pass name (used in pipelines and reports).
    fn name(&self) -> &str;

    /// Run over the module.
    fn run(&self, module: &mut Module) -> Result<PassResult>;
}

/// Options parsed from a pipeline entry like
/// `scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassOptions {
    entries: BTreeMap<String, String>,
}

impl PassOptions {
    /// Look up a raw option string.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|s| s.as_str())
    }

    /// Parse an option as a comma/colon separated list of integers.
    pub fn get_int_list(&self, key: &str) -> Option<Vec<i64>> {
        self.get(key).map(|s| {
            s.split([',', ':'])
                .filter(|p| !p.is_empty())
                .filter_map(|p| p.trim().parse().ok())
                .collect()
        })
    }

    /// Parse a boolean option (`true`/`false`/`1`/`0`).
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }

    /// Insert an option (used by tests and builders).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.entries.insert(key.into(), value.into());
    }
}

/// Factory producing a pass from parsed options.
pub type PassFactory = fn(&PassOptions) -> Box<dyn Pass>;

/// Registry resolving pass names to factories.
#[derive(Default)]
pub struct PassRegistry {
    factories: BTreeMap<String, PassFactory>,
}

impl PassRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a pass factory under `name`.
    pub fn register(&mut self, name: &str, factory: PassFactory) {
        self.factories.insert(name.to_string(), factory);
    }

    /// Registered pass names.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(|s| s.as_str()).collect()
    }

    /// Build a pass manager from a textual pipeline:
    /// `name1,name2{opt=a,b opt2=c},name3`.
    ///
    /// Commas *inside* braces belong to option values, and mlir-opt's
    /// anchored nesting — `func.func(p1,p2)`, `gpu.module(...)`,
    /// `builtin.module(...)` — is flattened (our passes walk the whole
    /// module themselves), matching the paper's Listing 4 syntax.
    pub fn parse_pipeline(&self, pipeline: &str) -> Result<PassManager> {
        let mut pm = PassManager::new();
        self.parse_into(pipeline, &mut pm)?;
        Ok(pm)
    }

    fn parse_into(&self, pipeline: &str, pm: &mut PassManager) -> Result<()> {
        for entry in split_top_level(pipeline) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            // Anchored nesting: `anchor(inner-pipeline)`.
            if let Some(paren) = entry.find('(') {
                let anchor = &entry[..paren];
                if matches!(anchor, "func.func" | "gpu.module" | "builtin.module")
                    && entry.ends_with(')')
                {
                    self.parse_into(&entry[paren + 1..entry.len() - 1], pm)?;
                    continue;
                }
            }
            let (name, opts) = parse_entry(entry)?;
            let factory = self
                .factories
                .get(&name)
                .ok_or_else(|| IrError::new(format!("unknown pass '{name}' in pipeline")))?;
            pm.add_boxed(factory(&opts));
        }
        Ok(())
    }
}

/// Split a pipeline string on commas that are not inside `{...}` or `(...)`.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '{' | '(' => {
                depth += 1;
                cur.push(c);
            }
            '}' | ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Parse `name{key=value key2=v1,v2}` into name + options. Options are
/// space-separated; values may contain commas.
fn parse_entry(entry: &str) -> Result<(String, PassOptions)> {
    let mut opts = PassOptions::default();
    if let Some(brace) = entry.find('{') {
        if !entry.ends_with('}') {
            return Err(IrError::new(format!("malformed pipeline entry '{entry}'")));
        }
        let name = entry[..brace].trim().to_string();
        let body = &entry[brace + 1..entry.len() - 1];
        for kv in body.split_whitespace() {
            match kv.split_once('=') {
                Some((k, v)) => opts.set(k.trim(), v.trim()),
                None => opts.set(kv.trim(), "true"),
            }
        }
        Ok((name, opts))
    } else {
        Ok((entry.trim().to_string(), opts))
    }
}

/// Timing and change information for one executed pass.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name.
    pub name: String,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Whether the pass reported a change.
    pub changed: bool,
}

/// An ordered pipeline of passes.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Empty pass manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Append an already-boxed pass.
    pub fn add_boxed(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Names of the scheduled passes, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Decompose into the owned pass list, so a wrapper (e.g. the hardened
    /// pipeline in `fsc-passes`) can drive registry-built passes with its
    /// own snapshot/verify/rollback protocol.
    pub fn into_passes(self) -> Vec<Box<dyn Pass>> {
        self.passes
    }

    /// Run all passes in order; returns per-pass statistics.
    pub fn run(&self, module: &mut Module) -> Result<Vec<PassStat>> {
        let mut stats = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let start = Instant::now();
            let result = pass.run(module).map_err(|e| {
                IrError::new(format!("pass '{}' failed: {}", pass.name(), e.message))
            })?;
            stats.push(PassStat {
                name: pass.name().to_string(),
                duration: start.elapsed(),
                changed: result == PassResult::Changed,
            });
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    struct Nop;
    impl Pass for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn run(&self, _m: &mut Module) -> Result<PassResult> {
            Ok(PassResult::Unchanged)
        }
    }

    #[test]
    fn manager_runs_in_order_and_reports() {
        let mut pm = PassManager::new();
        pm.add(AddMarker).add(Nop);
        let mut m = Module::new();
        let stats = pm.run(&mut m).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].changed);
        assert!(!stats[1].changed);
        assert_eq!(m.live_op_count(), 1);
    }

    #[test]
    fn registry_resolves_pipeline_with_options() {
        fn make_nop(_o: &PassOptions) -> Box<dyn Pass> {
            Box::new(Nop)
        }
        fn make_marker(_o: &PassOptions) -> Box<dyn Pass> {
            Box::new(AddMarker)
        }
        let mut reg = PassRegistry::new();
        reg.register("nop", make_nop);
        reg.register("add-marker", make_marker);
        let pm = reg.parse_pipeline("nop,add-marker{x=1},nop").unwrap();
        assert_eq!(pm.pass_names(), vec!["nop", "add-marker", "nop"]);
        assert!(reg.parse_pipeline("does-not-exist").is_err());
    }

    #[test]
    fn pipeline_options_with_commas_parse_like_listing4() {
        // From the paper: scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1}
        let (name, opts) =
            parse_entry("scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1}").unwrap();
        assert_eq!(name, "scf-parallel-loop-tiling");
        assert_eq!(
            opts.get_int_list("parallel-loop-tile-sizes"),
            Some(vec![32, 32, 1])
        );
        // And the split function must not break inside braces.
        let parts = split_top_level("a,b{x=1,2},c");
        assert_eq!(parts, vec!["a", "b{x=1,2}", "c"]);
    }

    #[test]
    fn bool_and_flag_options() {
        let (_, opts) =
            parse_entry("finalize-memref-to-llvm{index-bitwidth=64 use-opaque-pointers=false}")
                .unwrap();
        assert_eq!(opts.get("index-bitwidth"), Some("64"));
        assert_eq!(opts.get_bool("use-opaque-pointers"), Some(false));
        let (_, opts) = parse_entry("p{flag}").unwrap();
        assert_eq!(opts.get_bool("flag"), Some(true));
    }
}
