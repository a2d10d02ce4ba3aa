//! The op-by-op IR interpreter — the *Flang-only* execution tier.
//!
//! Every operation dispatches on its name, every array access recomputes
//! its full column-major address, and loop bodies re-evaluate loop-invariant
//! subexpressions each iteration. That is deliberate: this tier is the
//! oracle every compiled tier is checked against bit for bit, and the
//! extreme "Flang only" point of Figure 2 (the figures' Flang line proper
//! runs the same loops on the kernel engine's generic VM).
//!
//! The interpreter also executes `scf`, `memref` and `omp` ops (serially),
//! which the test-suite uses to differentially validate the optimised
//! bytecode kernels against a second, independent implementation.

use std::sync::Arc;

use fsc_dialects::arith::CmpPredicate;
use fsc_dialects::{fir, func, math};
use fsc_ir::{Attribute, BlockId, IrError, Module, OpId, Result, Type, ValueId};

use crate::value::{column_major_strides, Memory, Ref, Scalar, Value};

/// Execution counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunStats {
    /// Total operations executed.
    pub ops: u64,
    /// Floating point operations executed.
    pub flops: u64,
    /// Array element loads.
    pub loads: u64,
    /// Array element stores.
    pub stores: u64,
}

/// Handles `fir.call`s whose callee is not a function in the module —
/// i.e. the extracted stencil regions, dispatched to compiled kernels.
pub trait RegionDispatcher {
    /// Execute `callee` with the given argument values.
    fn call(&mut self, callee: &str, args: &[Value], memory: &mut Memory) -> Result<()>;

    /// Write back every result the dispatcher still holds outside `memory`
    /// (buffers it marked stale). The interpreter calls this before host
    /// code touches a stale buffer and when the run ends.
    fn sync(&mut self, _memory: &mut Memory) {}
}

/// A dispatcher that rejects all external calls.
pub struct NoDispatch;

impl RegionDispatcher for NoDispatch {
    fn call(&mut self, callee: &str, _args: &[Value], _memory: &mut Memory) -> Result<()> {
        Err(IrError::new(format!(
            "no dispatcher for external call '{callee}'"
        )))
    }
}

fn err(msg: impl std::fmt::Display) -> IrError {
    IrError::new(format!("interpreter: {msg}"))
}

/// The interpreter. Owns the runtime memory; borrowed IR.
pub struct Interpreter<'m, D: RegionDispatcher> {
    module: &'m Module,
    /// Runtime storage (exposed so drivers can inspect results).
    pub memory: Memory,
    env: Vec<Option<Value>>,
    /// Execution counters.
    pub stats: RunStats,
    dispatcher: D,
}

impl<'m, D: RegionDispatcher> Interpreter<'m, D> {
    /// New interpreter over a module.
    pub fn new(module: &'m Module, dispatcher: D) -> Self {
        let env = vec![None; module_value_capacity(module)];
        Self {
            module,
            memory: Memory::new(),
            env,
            stats: RunStats::default(),
            dispatcher,
        }
    }

    /// Dismantle the interpreter, returning memory, counters and the
    /// dispatcher (whose own accounting the driver reads back).
    pub fn into_parts(self) -> (Memory, RunStats, D) {
        (self.memory, self.stats, self.dispatcher)
    }

    /// Land every result the dispatcher deferred; call once the program has
    /// run and before reading [`Interpreter::memory`].
    pub fn sync(&mut self) {
        self.dispatcher.sync(&mut self.memory);
    }

    /// Host code is about to read, write or release `buf`.
    #[inline]
    fn host_access(&mut self, buf: crate::BufId) {
        if self.memory.is_stale(buf) {
            self.dispatcher.sync(&mut self.memory);
        }
    }

    /// Run the function with the given symbol name.
    pub fn run_func(&mut self, name: &str, args: Vec<Value>) -> Result<()> {
        let f = func::find_func(self.module, name)
            .ok_or_else(|| err(format!("no function '{name}'")))?;
        let entry = f
            .entry_block(self.module)
            .ok_or_else(|| err(format!("function '{name}' has no body")))?;
        let params = self.module.block_args(entry).to_vec();
        if params.len() != args.len() {
            return Err(err(format!(
                "'{name}' expects {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        for (p, a) in params.into_iter().zip(args) {
            self.set(p, a);
        }
        self.exec_block(entry)
    }

    /// Read the binding of a named Fortran array after execution: the buffer
    /// behind the alloca/allocmem with `bindc_name == name` in any function.
    pub fn array_binding(&self, name: &str) -> Option<Ref> {
        let mut found = None;
        fsc_ir::walk::walk_module(self.module, &mut |op| {
            if found.is_some() {
                return;
            }
            let data = self.module.op(op);
            if matches!(
                data.name.full(),
                fir::ALLOCA | fir::ALLOCMEM | "memref.alloc"
            ) && data.attr("bindc_name").and_then(Attribute::as_str) == Some(name)
            {
                if let Some(Some(Value::Ref(r))) = self.env.get(self.module.result(op).0 as usize) {
                    found = Some(r.clone());
                }
            }
        });
        found
    }

    fn set(&mut self, v: ValueId, value: Value) {
        let idx = v.0 as usize;
        if idx >= self.env.len() {
            self.env.resize(idx + 1, None);
        }
        self.env[idx] = Some(value);
    }

    fn get(&self, v: ValueId) -> Result<&Value> {
        self.env
            .get(v.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| err("use of unevaluated value"))
    }

    fn get_int(&self, v: ValueId) -> Result<i64> {
        self.get(v)?
            .as_int()
            .ok_or_else(|| err("expected integer value"))
    }

    fn get_f64(&self, v: ValueId) -> Result<f64> {
        self.get(v)?
            .as_number()
            .ok_or_else(|| err("expected numeric value"))
    }

    fn get_ref(&self, v: ValueId) -> Result<Ref> {
        self.get(v)?
            .as_ref_val()
            .cloned()
            .ok_or_else(|| err("expected reference value"))
    }

    fn exec_block(&mut self, block: BlockId) -> Result<()> {
        for op in self.module.block_ops(block) {
            self.exec_op(op)?;
        }
        Ok(())
    }

    fn exec_op(&mut self, op: OpId) -> Result<()> {
        self.stats.ops += 1;
        let m = self.module;
        let data = m.op(op);
        let name = data.name.full();
        match name {
            // ------------------------------------------------------ constants
            "arith.constant" => {
                let attr = data
                    .attr("value")
                    .ok_or_else(|| err("constant without value"))?;
                let ty = m.value_type(m.result(op));
                let v = match (attr, ty) {
                    (Attribute::Float(f, _), _) => Value::F64(*f),
                    (Attribute::Int(i, _), Type::Index) => Value::Index(*i),
                    (Attribute::Int(i, _), Type::Int(1)) => Value::Bool(*i != 0),
                    (Attribute::Int(i, _), Type::Int(32)) => Value::I32(*i as i32),
                    (Attribute::Int(i, _), _) => Value::I64(*i),
                    _ => return Err(err("unsupported constant attribute")),
                };
                self.set(m.result(op), v);
            }
            // ---------------------------------------------------------- arith
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
            | "arith.minf" => {
                self.stats.flops += 1;
                let a = self.get_f64(data.operands[0])?;
                let b = self.get_f64(data.operands[1])?;
                let r = match name {
                    "arith.addf" => a + b,
                    "arith.subf" => a - b,
                    "arith.mulf" => a * b,
                    "arith.divf" => a / b,
                    "arith.maxf" => a.max(b),
                    _ => a.min(b),
                };
                self.set(m.result(op), Value::F64(r));
            }
            "arith.negf" => {
                self.stats.flops += 1;
                let a = self.get_f64(data.operands[0])?;
                self.set(m.result(op), Value::F64(-a));
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
            | "arith.minsi" | "arith.maxsi" => {
                let a = self.get_int(data.operands[0])?;
                let b = self.get_int(data.operands[1])?;
                let r = match name {
                    "arith.addi" => a.wrapping_add(b),
                    "arith.subi" => a.wrapping_sub(b),
                    "arith.muli" => a.wrapping_mul(b),
                    "arith.divsi" => {
                        if b == 0 {
                            return Err(err("integer division by zero"));
                        }
                        a / b
                    }
                    "arith.remsi" => {
                        if b == 0 {
                            return Err(err("integer modulo by zero"));
                        }
                        a % b
                    }
                    "arith.minsi" => a.min(b),
                    _ => a.max(b),
                };
                self.set_int_result(op, r);
            }
            "arith.andi" | "arith.ori" | "arith.xori" => {
                let a = self.get_int(data.operands[0])?;
                let b = self.get_int(data.operands[1])?;
                let r = match name {
                    "arith.andi" => a & b,
                    "arith.ori" => a | b,
                    _ => a ^ b,
                };
                self.set_int_result(op, r);
            }
            "arith.cmpi" | "arith.cmpf" => {
                let pred = data
                    .attr("predicate")
                    .and_then(Attribute::as_str)
                    .and_then(CmpPredicate::parse)
                    .ok_or_else(|| err("cmp without predicate"))?;
                let r = if name == "arith.cmpi" {
                    let a = self.get_int(data.operands[0])?;
                    let b = self.get_int(data.operands[1])?;
                    cmp_int(pred, a, b)
                } else {
                    self.stats.flops += 1;
                    let a = self.get_f64(data.operands[0])?;
                    let b = self.get_f64(data.operands[1])?;
                    cmp_f64(pred, a, b)
                };
                self.set(m.result(op), Value::Bool(r));
            }
            "arith.select" => {
                let c = self
                    .get(data.operands[0])?
                    .as_bool()
                    .ok_or_else(|| err("select condition not boolean"))?;
                let v = if c {
                    self.get(data.operands[1])?.clone()
                } else {
                    self.get(data.operands[2])?.clone()
                };
                self.set(m.result(op), v);
            }
            "arith.index_cast" | "arith.extsi" | "arith.trunci" => {
                let a = self.get_int(data.operands[0])?;
                self.set_int_result(op, a);
            }
            "arith.sitofp" => {
                let a = self.get_int(data.operands[0])?;
                self.set(m.result(op), Value::F64(a as f64));
            }
            "arith.fptosi" => {
                let a = self.get_f64(data.operands[0])?;
                self.set_int_result(op, a as i64);
            }
            // ----------------------------------------------------------- math
            _ if name.starts_with("math.") => {
                self.stats.flops += 1;
                let r = if data.operands.len() == 1 {
                    let x = self.get_f64(data.operands[0])?;
                    math::eval_unary(name, x)
                } else {
                    let x = self.get_f64(data.operands[0])?;
                    let y = self.get_f64(data.operands[1])?;
                    math::eval_binary(name, x, y)
                }
                .ok_or_else(|| err(format!("unknown math op '{name}'")))?;
                self.set(m.result(op), Value::F64(r));
            }
            // ------------------------------------------------------------ fir
            fir::ALLOCA | fir::ALLOCMEM => {
                let in_type = data
                    .attr("in_type")
                    .and_then(Attribute::as_type)
                    .ok_or_else(|| err("allocation without in_type"))?;
                let v = match in_type {
                    Type::FirArray { shape, .. } => {
                        let len = crate::budget::checked_elems(shape)?;
                        let buf = self.memory.try_alloc_buffer(len)?;
                        Value::Ref(Ref::Array {
                            buf,
                            extents: Arc::new(shape.clone()),
                        })
                    }
                    Type::Float(_) => {
                        Value::Ref(Ref::Scalar(self.memory.alloc_scalar(Scalar::F64(0.0))))
                    }
                    Type::Int(1) => {
                        Value::Ref(Ref::Scalar(self.memory.alloc_scalar(Scalar::Bool(false))))
                    }
                    Type::Int(_) => {
                        Value::Ref(Ref::Scalar(self.memory.alloc_scalar(Scalar::I32(0))))
                    }
                    other => return Err(err(format!("cannot allocate {other}"))),
                };
                self.set(m.result(op), v);
            }
            fir::FREEMEM => {
                // Release the buffer's byte charge back to the ledger. The
                // storage itself is retained (ids stay valid for post-run
                // array bindings), but the bytes stop counting as live.
                if let Ref::Array { buf, .. } = self.get_ref(data.operands[0])? {
                    self.host_access(buf);
                    self.memory.release_buffer(buf);
                }
            }
            fir::LOAD => {
                self.stats.loads += 1;
                let r = self.get_ref(data.operands[0])?;
                let v = match r {
                    Ref::Scalar(slot) => match self.memory.read_scalar(slot) {
                        Scalar::F64(f) => Value::F64(f),
                        Scalar::I32(i) => Value::I32(i),
                        Scalar::Bool(b) => Value::Bool(b),
                    },
                    Ref::Elem { buf, linear } => {
                        self.host_access(buf);
                        Value::F64(self.memory.buffer(buf)[linear as usize])
                    }
                    Ref::Array { .. } => return Err(err("fir.load of whole array")),
                };
                self.set(m.result(op), v);
            }
            fir::STORE => {
                self.stats.stores += 1;
                let value = self.get(data.operands[0])?.clone();
                let r = self.get_ref(data.operands[1])?;
                match r {
                    Ref::Scalar(slot) => {
                        let s = match value {
                            Value::F64(f) => Scalar::F64(f),
                            Value::I32(i) => Scalar::I32(i),
                            Value::I64(i) | Value::Index(i) => Scalar::I32(i as i32),
                            Value::Bool(b) => Scalar::Bool(b),
                            Value::Ref(_) => return Err(err("cannot store a reference")),
                        };
                        self.memory.write_scalar(slot, s);
                    }
                    Ref::Elem { buf, linear } => {
                        let f = value.as_number().ok_or_else(|| err("non-numeric store"))?;
                        self.host_access(buf);
                        self.memory.buffer_mut(buf)[linear as usize] = f;
                    }
                    Ref::Array { .. } => return Err(err("fir.store to whole array")),
                }
            }
            fir::COORDINATE_OF => {
                let r = self.get_ref(data.operands[0])?;
                let Ref::Array { buf, extents } = r else {
                    return Err(err("coordinate_of on non-array"));
                };
                // Full column-major address computation per access — the
                // Flang-tier cost the stencil kernels avoid.
                let strides = column_major_strides(&extents);
                let mut linear = 0i64;
                for (k, &idx_v) in data.operands[1..].iter().enumerate() {
                    let i = self.get_int(idx_v)?;
                    if i < 0 || i >= extents[k] {
                        return Err(err(format!(
                            "index {i} out of bounds 0..{} in dim {k}",
                            extents[k]
                        )));
                    }
                    linear += i * strides[k];
                }
                self.set(m.result(op), Value::Ref(Ref::Elem { buf, linear }));
            }
            fir::CONVERT => {
                let from = self.get(data.operands[0])?.clone();
                let to_ty = m.value_type(m.result(op)).clone();
                let v = convert_value(from, &to_ty)?;
                self.set(m.result(op), v);
            }
            fir::NO_REASSOC => {
                let v = self.get(data.operands[0])?.clone();
                self.set(m.result(op), v);
            }
            fir::DO_LOOP => {
                let lp = fir::DoLoopOp(op);
                let lb = self.get_int(lp.lb(m))?;
                let ub = self.get_int(lp.ub(m))?;
                let step = self.get_int(lp.step(m))?;
                if step <= 0 {
                    return Err(err("non-positive do-loop step"));
                }
                let body = lp.body(m);
                let iv = lp.iv(m);
                let mut i = lb;
                while i <= ub {
                    self.set(iv, Value::Index(i));
                    self.exec_block(body)?;
                    i += step;
                }
            }
            fir::IF => {
                let cond = self
                    .get(data.operands[0])?
                    .as_bool()
                    .ok_or_else(|| err("if condition not boolean"))?;
                let view = fir::IfOp(op);
                let block = if cond {
                    view.then_block(m)
                } else {
                    view.else_block(m)
                };
                self.exec_block(block)?;
            }
            fir::RESULT => {}
            fir::CALL | func::CALL => {
                let callee = data
                    .attr("callee")
                    .and_then(Attribute::as_symbol)
                    .ok_or_else(|| err("call without callee"))?
                    .to_string();
                let args: Vec<Value> = data
                    .operands
                    .iter()
                    .map(|&o| self.get(o).cloned())
                    .collect::<Result<_>>()?;
                if func::find_func(m, &callee).is_some() {
                    self.run_func(&callee, args)?;
                } else {
                    self.dispatcher.call(&callee, &args, &mut self.memory)?;
                }
            }
            func::RETURN => {}
            // ------------------------------------------------------------ scf
            "scf.for" => {
                let lp = fsc_dialects::scf::ForOp(op);
                let lb = self.get_int(lp.lb(m))?;
                let ub = self.get_int(lp.ub(m))?;
                let step = self.get_int(lp.step(m))?;
                if step <= 0 {
                    return Err(err("non-positive scf.for step"));
                }
                let body = lp.body(m);
                let iv = lp.iv(m);
                let mut i = lb;
                while i < ub {
                    self.set(iv, Value::Index(i));
                    self.exec_block(body)?;
                    i += step;
                }
            }
            "scf.parallel" => {
                let par = fsc_dialects::scf::ParallelOp(op);
                let n = par.num_dims(m);
                let lbs: Vec<i64> = par
                    .lbs(m)
                    .iter()
                    .map(|&v| self.get_int(v))
                    .collect::<Result<_>>()?;
                let ubs: Vec<i64> = par
                    .ubs(m)
                    .iter()
                    .map(|&v| self.get_int(v))
                    .collect::<Result<_>>()?;
                let steps: Vec<i64> = par
                    .steps(m)
                    .iter()
                    .map(|&v| self.get_int(v))
                    .collect::<Result<_>>()?;
                let body = par.body(m);
                let ivs = par.ivs(m);
                // Serial odometer iteration (the interpreter never threads).
                let mut coords = lbs.clone();
                'outer: loop {
                    for d in 0..n {
                        self.set(ivs[d], Value::Index(coords[d]));
                    }
                    self.exec_block(body)?;
                    let mut d = 0;
                    loop {
                        coords[d] += steps[d];
                        if coords[d] < ubs[d] {
                            break;
                        }
                        coords[d] = lbs[d];
                        d += 1;
                        if d == n {
                            break 'outer;
                        }
                    }
                }
            }
            "scf.yield" => {}
            "scf.if" => {
                let cond = self
                    .get(data.operands[0])?
                    .as_bool()
                    .ok_or_else(|| err("scf.if condition not boolean"))?;
                let region = if cond {
                    data.regions[0]
                } else {
                    data.regions[1]
                };
                let block = m.region_blocks(region)[0];
                self.exec_block(block)?;
            }
            // --------------------------------------------------------- memref
            "memref.alloc" => {
                let ty = m.value_type(m.result(op)).clone();
                let Type::MemRef { shape, .. } = ty else {
                    return Err(err("memref.alloc of non-memref"));
                };
                let len = crate::budget::checked_elems(&shape)?;
                let buf = self.memory.try_alloc_buffer(len)?;
                self.set(
                    m.result(op),
                    Value::Ref(Ref::Array {
                        buf,
                        extents: Arc::new(shape),
                    }),
                );
            }
            "memref.dealloc" => {
                // Release accounting (the storage stays resident for id
                // stability; its byte charge returns to the ledger).
                if let Ref::Array { buf, .. } = self.get_ref(data.operands[0])? {
                    self.host_access(buf);
                    self.memory.release_buffer(buf);
                }
            }
            "memref.from_ptr" => {
                let src = self.get_ref(data.operands[0])?;
                let Type::MemRef { shape, .. } = m.value_type(m.result(op)).clone() else {
                    return Err(err("from_ptr of non-memref"));
                };
                let buf = match src {
                    Ref::Array { buf, .. } | Ref::Elem { buf, .. } => buf,
                    Ref::Scalar(_) => return Err(err("from_ptr of scalar")),
                };
                self.set(
                    m.result(op),
                    Value::Ref(Ref::Array {
                        buf,
                        extents: Arc::new(shape),
                    }),
                );
            }
            "memref.load" => {
                self.stats.loads += 1;
                let (buf, linear) = self.memref_address(op, 0)?;
                self.host_access(buf);
                let v = self.memory.buffer(buf)[linear as usize];
                // Integer-element memrefs (scalars lowered by
                // convert-fir-to-standard) read back as integers.
                let value = match m.value_type(m.result(op)) {
                    Type::Int(1) => Value::Bool(v != 0.0),
                    Type::Int(32) => Value::I32(v as i32),
                    Type::Int(_) => Value::I64(v as i64),
                    Type::Index => Value::Index(v as i64),
                    _ => Value::F64(v),
                };
                self.set(m.result(op), value);
            }
            "memref.store" => {
                self.stats.stores += 1;
                let value = self
                    .get(data.operands[0])?
                    .as_number()
                    .ok_or_else(|| err("non-numeric memref.store"))?;
                let (buf, linear) = self.memref_address(op, 1)?;
                self.host_access(buf);
                self.memory.buffer_mut(buf)[linear as usize] = value;
            }
            "memref.copy" => {
                let src = self.get_ref(data.operands[0])?;
                let dst = self.get_ref(data.operands[1])?;
                let (Ref::Array { buf: sb, .. }, Ref::Array { buf: db, .. }) = (src, dst) else {
                    return Err(err("memref.copy of non-arrays"));
                };
                if sb != db {
                    self.host_access(sb);
                    self.host_access(db);
                    self.memory.copy_buffer(sb, db)?;
                }
            }
            // ------------------------------------------------------------ omp
            "omp.parallel" => {
                // Interpreter tier runs OpenMP regions serially.
                let region = data.regions[0];
                let body = m.region_blocks(region)[0];
                self.exec_block(body)?;
            }
            "omp.wsloop" => {
                let ws = fsc_dialects::omp::WsLoopOp(op);
                let n = ws.num_dims(m);
                let lbs: Vec<i64> = ws
                    .lbs(m)
                    .iter()
                    .map(|&v| self.get_int(v))
                    .collect::<Result<_>>()?;
                let ubs: Vec<i64> = ws
                    .ubs(m)
                    .iter()
                    .map(|&v| self.get_int(v))
                    .collect::<Result<_>>()?;
                let steps: Vec<i64> = ws
                    .steps(m)
                    .iter()
                    .map(|&v| self.get_int(v))
                    .collect::<Result<_>>()?;
                let body = ws.body(m);
                let ivs = ws.ivs(m);
                let mut coords = lbs.clone();
                if coords.iter().zip(&ubs).all(|(c, u)| c < u) {
                    'outer_ws: loop {
                        for d in 0..n {
                            self.set(ivs[d], Value::Index(coords[d]));
                        }
                        self.exec_block(body)?;
                        let mut d = 0;
                        loop {
                            coords[d] += steps[d];
                            if coords[d] < ubs[d] {
                                break;
                            }
                            coords[d] = lbs[d];
                            d += 1;
                            if d == n {
                                break 'outer_ws;
                            }
                        }
                    }
                }
            }
            "omp.yield" | "omp.terminator" => {}
            other => {
                return Err(err(format!("unsupported op '{other}'")));
            }
        }
        Ok(())
    }

    /// Decode `memref.load`/`memref.store` addressing: the memref operand
    /// sits at `memref_pos`, index operands follow it.
    fn memref_address(&self, op: OpId, memref_pos: usize) -> Result<(crate::BufId, i64)> {
        let m = self.module;
        let data = m.op(op);
        let r = self.get_ref(data.operands[memref_pos])?;
        let Ref::Array { buf, extents } = r else {
            return Err(err("memref access on non-array"));
        };
        let strides = column_major_strides(&extents);
        let mut linear = 0i64;
        for (k, &iv) in data.operands[memref_pos + 1..].iter().enumerate() {
            let i = self.get_int(iv)?;
            if i < 0 || i >= extents[k] {
                return Err(err(format!(
                    "memref index {i} out of bounds 0..{} in dim {k}",
                    extents[k]
                )));
            }
            linear += i * strides[k];
        }
        Ok((buf, linear))
    }

    fn set_int_result(&mut self, op: OpId, v: i64) {
        let ty = self.module.value_type(self.module.result(op)).clone();
        let value = match ty {
            Type::Index => Value::Index(v),
            Type::Int(1) => Value::Bool(v != 0),
            Type::Int(32) => Value::I32(v as i32),
            _ => Value::I64(v),
        };
        self.set(self.module.result(op), value);
    }
}

fn cmp_int(pred: CmpPredicate, a: i64, b: i64) -> bool {
    match pred {
        CmpPredicate::Eq => a == b,
        CmpPredicate::Ne => a != b,
        CmpPredicate::Lt => a < b,
        CmpPredicate::Le => a <= b,
        CmpPredicate::Gt => a > b,
        CmpPredicate::Ge => a >= b,
    }
}

fn cmp_f64(pred: CmpPredicate, a: f64, b: f64) -> bool {
    match pred {
        CmpPredicate::Eq => a == b,
        CmpPredicate::Ne => a != b,
        CmpPredicate::Lt => a < b,
        CmpPredicate::Le => a <= b,
        CmpPredicate::Gt => a > b,
        CmpPredicate::Ge => a >= b,
    }
}

fn convert_value(from: Value, to: &Type) -> Result<Value> {
    Ok(match (from, to) {
        (Value::Ref(r), _) => Value::Ref(r),
        (v, Type::Float(_)) => Value::F64(v.as_number().ok_or_else(|| err("bad convert"))?),
        (v, Type::Index) => Value::Index(match v {
            Value::F64(f) => f as i64,
            other => other.as_int().ok_or_else(|| err("bad convert"))?,
        }),
        (v, Type::Int(1)) => Value::Bool(v.as_bool().ok_or_else(|| err("bad convert"))?),
        (v, Type::Int(32)) => Value::I32(match v {
            Value::F64(f) => f as i32,
            other => other.as_int().ok_or_else(|| err("bad convert"))? as i32,
        }),
        (v, Type::Int(_)) => Value::I64(match v {
            Value::F64(f) => f as i64,
            other => other.as_int().ok_or_else(|| err("bad convert"))?,
        }),
        (_, other) => return Err(err(format!("unsupported conversion to {other}"))),
    })
}

fn module_value_capacity(module: &Module) -> usize {
    // Upper bound: every op result and block arg has a distinct ValueId; the
    // arena allocates them densely, so the id space size equals the count.
    let mut max = 0u32;
    fsc_ir::walk::walk_module(module, &mut |op| {
        for &r in &module.op(op).results {
            max = max.max(r.0 + 1);
        }
    });
    max as usize + 1024
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_fortran::compile_to_fir;

    fn run(src: &str) -> Interpreter<'_, NoDispatch> {
        // Leak the module so the interpreter can borrow it in a returned
        // value (test convenience only).
        let m = Box::leak(Box::new(compile_to_fir(src).unwrap()));
        let name = program_name(m);
        let mut interp = Interpreter::new(m, NoDispatch);
        interp.run_func(&name, vec![]).unwrap();
        interp
    }

    fn program_name(m: &Module) -> String {
        m.top_level_ops_named(func::FUNC)
            .into_iter()
            .map(func::FuncOp)
            .find(|f| m.op(f.0).attr(fsc_fortran::lower::PROGRAM_ATTR).is_some())
            .map(|f| f.name(m))
            .unwrap()
    }

    fn array_values(interp: &Interpreter<'_, NoDispatch>, name: &str) -> Vec<f64> {
        match interp.array_binding(name).unwrap() {
            Ref::Array { buf, .. } => interp.memory.buffer(buf).to_vec(),
            _ => panic!("not an array"),
        }
    }

    #[test]
    fn scalar_arithmetic_and_assignment() {
        let interp = run("
program t
  real(kind=8) :: x(1)
  x(1) = 2.0 * 3.0 + 4.0 / 2.0 - 1.0
end program t
");
        assert_eq!(array_values(&interp, "x"), vec![7.0]);
    }

    #[test]
    fn do_loop_fills_array() {
        let interp = run("
program t
  integer :: i
  real(kind=8) :: a(5)
  do i = 1, 5
    a(i) = i * 10.0
  end do
end program t
");
        assert_eq!(
            array_values(&interp, "a"),
            vec![10.0, 20.0, 30.0, 40.0, 50.0]
        );
    }

    #[test]
    fn column_major_layout_matches_fortran() {
        // a(i, j): i fastest. a(2,1) must land at linear index 1.
        let interp = run("
program t
  real(kind=8) :: a(2, 2)
  a(1, 1) = 1.0
  a(2, 1) = 2.0
  a(1, 2) = 3.0
  a(2, 2) = 4.0
end program t
");
        assert_eq!(array_values(&interp, "a"), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn custom_lower_bounds_rebase() {
        let interp = run("
program t
  real(kind=8) :: a(0:2)
  a(0) = 1.0
  a(2) = 3.0
end program t
");
        assert_eq!(array_values(&interp, "a"), vec![1.0, 0.0, 3.0]);
    }

    #[test]
    fn stencil_loop_semantics() {
        // Listing-1 style average over a tiny grid with known values.
        let interp = run("
program t
  integer :: i
  real(kind=8) :: a(0:4), r(0:4)
  do i = 0, 4
    a(i) = i * 1.0
  end do
  do i = 1, 3
    r(i) = 0.5 * (a(i-1) + a(i+1))
  end do
end program t
");
        assert_eq!(array_values(&interp, "r"), vec![0.0, 1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn if_then_else_branches() {
        let interp = run("
program t
  integer :: i
  real(kind=8) :: a(4)
  do i = 1, 4
    if (i <= 2) then
      a(i) = 1.0
    else
      a(i) = 2.0
    end if
  end do
end program t
");
        assert_eq!(array_values(&interp, "a"), vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn allocatable_roundtrip() {
        let interp = run("
program t
  integer :: i
  real(kind=8), dimension(:), allocatable :: a
  allocate(a(3))
  do i = 1, 3
    a(i) = i + 0.5
  end do
end program t
");
        assert_eq!(array_values(&interp, "a"), vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn dealloc_releases_live_byte_accounting() {
        let interp = run("
program t
  real(kind=8), dimension(:), allocatable :: a
  real(kind=8) :: keep(2)
  allocate(a(100))
  a(1) = 4.0
  keep(1) = a(1)
  deallocate(a)
end program t
");
        // The 100-cell allocatable (800 bytes) was charged at allocate and
        // released at deallocate; `keep` stays live.
        let peak = interp.memory.peak_bytes();
        let live = interp.memory.live_bytes();
        assert!(peak >= 800, "peak {peak} must cover the allocatable");
        assert!(
            live <= peak - 800,
            "dealloc must drop live bytes (live {live}, peak {peak})"
        );
        assert_eq!(array_values(&interp, "keep")[0], 4.0);
    }

    #[test]
    fn subroutine_call_by_reference() {
        let interp = run("
subroutine fill(v)
  real(kind=8), intent(inout) :: v(3)
  integer :: i
  do i = 1, 3
    v(i) = 7.0
  end do
end subroutine fill
program t
  real(kind=8) :: a(3)
  call fill(a)
end program t
");
        assert_eq!(array_values(&interp, "a"), vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn intrinsics_evaluate() {
        let interp = run("
program t
  real(kind=8) :: a(3)
  a(1) = sqrt(16.0)
  a(2) = max(1.0, 2.5)
  a(3) = abs(-3.0)
end program t
");
        assert_eq!(array_values(&interp, "a"), vec![4.0, 2.5, 3.0]);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let m = compile_to_fir(
            "
program t
  real(kind=8) :: a(2)
  a(5) = 1.0
end program t
",
        )
        .unwrap();
        let mut interp = Interpreter::new(&m, NoDispatch);
        let e = interp.run_func("t", vec![]).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn stats_count_work() {
        let interp = run("
program t
  integer :: i
  real(kind=8) :: a(8), b(8)
  do i = 1, 8
    a(i) = 1.0
  end do
  do i = 2, 7
    b(i) = a(i-1) + a(i+1)
  end do
end program t
");
        assert!(interp.stats.ops > 50);
        assert_eq!(interp.stats.flops, 6); // six addf
        assert!(interp.stats.loads >= 12);
    }

    #[test]
    fn scf_if_and_parallel_interpret() {
        // Hand-built standard-dialect module: scf.parallel over 4 cells,
        // scf.if writing 1.0 for even indices, 2.0 otherwise.
        use fsc_dialects::{arith, memref, scf};
        use fsc_ir::OpBuilder;
        let mut m = Module::new();
        let (_, entry) = fsc_dialects::func::build_func(&mut m, "k", vec![], vec![]);
        let (mr, par) = {
            let mut b = OpBuilder::at_end(&mut m, entry);
            let mr = memref::alloc(&mut b, fsc_ir::Type::memref(vec![4], fsc_ir::Type::f64()));
            let zero = arith::const_index(&mut b, 0);
            let four = arith::const_index(&mut b, 4);
            let one = arith::const_index(&mut b, 1);
            let par = scf::build_parallel(&mut b, vec![zero], vec![four], vec![one]);
            (mr, par)
        };
        {
            let body = par.body(&m);
            let iv = par.ivs(&m)[0];
            let term = m.block_terminator(body).unwrap();
            let mut b = OpBuilder::before(&mut m, term);
            let two = arith::const_index(&mut b, 2);
            let rem = arith::binary(&mut b, "arith.remsi", iv, two);
            let zero = arith::const_index(&mut b, 0);
            let is_even = arith::cmpi(&mut b, fsc_dialects::arith::CmpPredicate::Eq, rem, zero);
            let if_op = b.op("scf.if", vec![is_even], vec![], vec![]);
            let m2 = b.module();
            for val in [1.0f64, 2.0] {
                let region = m2.add_region(if_op);
                let blk = m2.add_block(region, &[]);
                let mut ib = OpBuilder::at_end(m2, blk);
                let c = arith::const_f64(&mut ib, val);
                memref::store(&mut ib, c, mr, vec![iv]);
                ib.op(scf::YIELD, vec![], vec![], vec![]);
            }
        }
        {
            let f = fsc_dialects::func::find_func(&m, "k").unwrap();
            let entry = f.entry_block(&m).unwrap();
            let mut b = OpBuilder::at_end(&mut m, entry);
            fsc_dialects::func::build_return(&mut b, vec![]);
        }
        let mut interp = Interpreter::new(&m, NoDispatch);
        interp.run_func("k", vec![]).unwrap();
        // Find the buffer (first allocated).
        assert_eq!(interp.memory.buffer(crate::BufId(0)), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn typed_memref_loads_return_integers() {
        use fsc_dialects::{arith, memref};
        use fsc_ir::OpBuilder;
        let mut m = Module::new();
        let (_, entry) = fsc_dialects::func::build_func(&mut m, "k", vec![], vec![]);
        {
            let mut b = OpBuilder::at_end(&mut m, entry);
            let mr = memref::alloc(&mut b, fsc_ir::Type::memref(vec![1], fsc_ir::Type::i32()));
            let c = arith::const_int(&mut b, 7, fsc_ir::Type::i32());
            let zero = arith::const_index(&mut b, 0);
            memref::store(&mut b, c, mr, vec![zero]);
            let loaded = memref::load(&mut b, mr, vec![zero]);
            // Use it as an integer: i32 + i32.
            let one = arith::const_int(&mut b, 1, fsc_ir::Type::i32());
            let sum = arith::addi(&mut b, loaded, one);
            let out = memref::alloc(&mut b, fsc_ir::Type::memref(vec![1], fsc_ir::Type::f64()));
            let as_f = arith::sitofp(&mut b, sum, fsc_ir::Type::f64());
            memref::store(&mut b, as_f, out, vec![zero]);
            fsc_dialects::func::build_return(&mut b, vec![]);
        }
        let mut interp = Interpreter::new(&m, NoDispatch);
        interp.run_func("k", vec![]).unwrap();
        assert_eq!(interp.memory.buffer(crate::BufId(1)), &[8.0]);
    }

    #[test]
    fn missing_function_errors() {
        let m = compile_to_fir("program t\nend program t").unwrap();
        let mut interp = Interpreter::new(&m, NoDispatch);
        assert!(interp.run_func("nope", vec![]).is_err());
    }
}
