//! Parser for the generic textual form produced by [`crate::print`].
//!
//! The grammar is MLIR's generic op syntax:
//!
//! ```text
//! module   := "module" "{" op* "}"
//! op       := (%res ("," %res)* "=")? "\"name\"" "(" %operand,* ")"
//!             ("(" region ("," region)* ")")? ("{" attr,* "}")?
//!             ":" "(" type,* ")" "->" "(" type,* ")"
//! region   := "{" block* "}"
//! block    := "^bb" N "(" (%arg ":" type),* ")" ":" op*
//! ```
//!
//! A single char-cursor recursive descent handles ops, attributes and the
//! full type grammar (including nested FIR and stencil types), so IR written
//! in tests round-trips: `parse(print(m))` is structurally equal to `m`.

use std::collections::HashMap;

use crate::attributes::Attribute;
use crate::diag::{codes, Diagnostic};
use crate::module::{BlockId, Module, RegionId, ValueId};
use crate::types::{DimBound, Type};
use crate::{IrError, Result};

/// Hard bound on type/attribute/region nesting. Textual IR this deep is
/// never legitimate; without the bound a fuzzer feeding `!fir.ref<` a few
/// thousand times overflows the stack, which aborts instead of erroring.
const MAX_NESTING_DEPTH: usize = 200;

/// Parse a module from its textual form.
pub fn parse_module(text: &str) -> Result<Module> {
    let mut p = Parser::new(text);
    p.skip_ws();
    p.expect_keyword("module")?;
    p.expect_char(b'{')?;
    let mut module = Module::new();
    let top = module.top_block();
    p.parse_ops_into(&mut module, top)?;
    p.expect_char(b'}')?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing input after module"));
    }
    Ok(module)
}

/// Parse a type from text (exposed for tests and attribute parsing).
pub fn parse_type(text: &str) -> Result<Type> {
    let mut p = Parser::new(text);
    let t = p.parse_type()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing input after type"));
    }
    Ok(t)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    values: HashMap<String, ValueId>,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            src: text.as_bytes(),
            pos: 0,
            values: HashMap::new(),
            depth: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
            // Line comments.
            if self.src[self.pos..].starts_with(b"//") {
                while !matches!(self.peek(), None | Some(b'\n')) {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    /// 1-based line/column of the cursor, for locating errors.
    fn line_col(&self) -> (u32, u32) {
        let upto = &self.src[..self.pos.min(self.src.len())];
        let line = upto.iter().filter(|&&c| c == b'\n').count() + 1;
        let col = upto
            .iter()
            .rposition(|&c| c == b'\n')
            .map(|nl| self.pos - nl)
            .unwrap_or(self.pos + 1);
        (line as u32, col as u32)
    }

    fn error(&self, msg: &str) -> IrError {
        self.error_code(codes::IRPARSE_SYNTAX, msg)
    }

    fn error_code(&self, code: &'static str, msg: &str) -> IrError {
        let (line, col) = self.line_col();
        IrError::from_diagnostic(
            Diagnostic::error(code, format!("parse error: {msg}")).at_line_col(line, col),
        )
    }

    /// Guard recursive entry points against pathological nesting; call
    /// [`Self::leave`] on every success path that called this.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.error_code(
                codes::IRPARSE_TOO_DEEP,
                &format!("nesting exceeds {MAX_NESTING_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    fn eat_char(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: u8) -> Result<()> {
        if self.eat_char(c) {
            Ok(())
        } else {
            Err(self.error(&format!(
                "expected '{}', found '{}'",
                c as char,
                self.peek().map(|b| b as char).unwrap_or('∅')
            )))
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<()> {
        if self.eat_str(s) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{s}'")))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        self.skip_ws();
        let ident = self.parse_bare_ident();
        if ident == kw {
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword '{kw}', found '{ident}'")))
        }
    }

    /// Identifier characters also cover dotted names and `_`.
    fn parse_bare_ident(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn parse_value_name(&mut self) -> Result<String> {
        self.skip_ws();
        self.expect_char(b'%')?;
        let id = self.parse_bare_ident();
        if id.is_empty() {
            return Err(self.error("empty value name"));
        }
        Ok(format!("%{id}"))
    }

    fn lookup_value(&self, name: &str) -> Result<ValueId> {
        self.values.get(name).copied().ok_or_else(|| {
            self.error_code(
                codes::IRPARSE_UNDEFINED_VALUE,
                &format!("use of undefined value {name}"),
            )
        })
    }

    fn parse_integer(&mut self) -> Result<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let s = String::from_utf8_lossy(&self.src[start..self.pos]);
        s.parse().map_err(|_| self.error("expected integer"))
    }

    fn parse_string_literal(&mut self) -> Result<String> {
        self.skip_ws();
        self.expect_char(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(c) => out.push(c as char),
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => out.push(c as char),
            }
        }
    }

    // ------------------------------------------------------------------ types

    fn parse_type(&mut self) -> Result<Type> {
        self.enter()?;
        let result = self.parse_type_inner();
        self.leave();
        result
    }

    fn parse_type_inner(&mut self) -> Result<Type> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => self.parse_function_type(),
            Some(b'!') => self.parse_dialect_type(),
            _ => {
                let save = self.pos;
                let ident = self.parse_bare_ident();
                match ident.as_str() {
                    "index" => Ok(Type::Index),
                    "none" => Ok(Type::None),
                    "memref" => {
                        self.expect_char(b'<')?;
                        let (shape, elem) = self.parse_shape_and_elem()?;
                        self.expect_char(b'>')?;
                        Ok(Type::MemRef {
                            shape,
                            elem: Box::new(elem),
                        })
                    }
                    s if s.starts_with('i')
                        && s[1..].chars().all(|c| c.is_ascii_digit())
                        && s.len() > 1 =>
                    {
                        self.parse_scalar_width(s).map(Type::Int)
                    }
                    s if s.starts_with('f')
                        && s[1..].chars().all(|c| c.is_ascii_digit())
                        && s.len() > 1 =>
                    {
                        self.parse_scalar_width(s).map(Type::Float)
                    }
                    _ => {
                        self.pos = save;
                        Err(self
                            .error_code(codes::IRPARSE_TYPE, &format!("unknown type '{ident}'")))
                    }
                }
            }
        }
    }

    /// Parse the width digits of `iN`/`fN`. These used to `unwrap()`, which
    /// made `i99999999999999999999` a process abort instead of a located
    /// error — the first minimized crasher the differential fuzzer found.
    fn parse_scalar_width(&self, ident: &str) -> Result<u32> {
        let width: u32 = ident[1..].parse().map_err(|_| {
            self.error_code(
                codes::IRPARSE_TYPE,
                &format!("scalar width in '{ident}' does not fit in 32 bits"),
            )
        })?;
        if width == 0 || width > 4096 {
            return Err(self.error_code(
                codes::IRPARSE_TYPE,
                &format!("scalar width {width} out of range (1..=4096)"),
            ));
        }
        Ok(width)
    }

    fn parse_function_type(&mut self) -> Result<Type> {
        self.expect_char(b'(')?;
        let mut inputs = Vec::new();
        if !self.eat_char(b')') {
            loop {
                inputs.push(self.parse_type()?);
                if !self.eat_char(b',') {
                    break;
                }
            }
            self.expect_char(b')')?;
        }
        self.expect_str("->")?;
        let mut results = Vec::new();
        if self.eat_char(b'(') {
            if !self.eat_char(b')') {
                loop {
                    results.push(self.parse_type()?);
                    if !self.eat_char(b',') {
                        break;
                    }
                }
                self.expect_char(b')')?;
            }
        } else {
            results.push(self.parse_type()?);
        }
        Ok(Type::Function { inputs, results })
    }

    fn parse_dialect_type(&mut self) -> Result<Type> {
        self.expect_char(b'!')?;
        let name = self.parse_bare_ident();
        match name.as_str() {
            "fir.ref" => {
                self.expect_char(b'<')?;
                let t = self.parse_type()?;
                self.expect_char(b'>')?;
                Ok(Type::fir_ref(t))
            }
            "fir.heap" => {
                self.expect_char(b'<')?;
                let t = self.parse_type()?;
                self.expect_char(b'>')?;
                Ok(Type::fir_heap(t))
            }
            "fir.box" => {
                self.expect_char(b'<')?;
                let t = self.parse_type()?;
                self.expect_char(b'>')?;
                Ok(Type::FirBox(Box::new(t)))
            }
            "fir.llvm_ptr" => {
                self.expect_char(b'<')?;
                let t = self.parse_type()?;
                self.expect_char(b'>')?;
                Ok(Type::FirLlvmPtr(Box::new(t)))
            }
            "fir.array" => {
                self.expect_char(b'<')?;
                let (shape, elem) = self.parse_shape_and_elem()?;
                self.expect_char(b'>')?;
                Ok(Type::FirArray {
                    shape,
                    elem: Box::new(elem),
                })
            }
            "llvm.ptr" => {
                if self.eat_char(b'<') {
                    let t = self.parse_type()?;
                    self.expect_char(b'>')?;
                    Ok(Type::LlvmPtr(Some(Box::new(t))))
                } else {
                    Ok(Type::LlvmPtr(None))
                }
            }
            "stencil.field" => {
                self.expect_char(b'<')?;
                let (bounds, elem) = self.parse_bounds_and_elem()?;
                self.expect_char(b'>')?;
                Ok(Type::StencilField {
                    bounds,
                    elem: Box::new(elem),
                })
            }
            "stencil.temp" => {
                self.expect_char(b'<')?;
                let (bounds, elem) = self.parse_bounds_and_elem()?;
                self.expect_char(b'>')?;
                Ok(Type::StencilTemp {
                    bounds,
                    elem: Box::new(elem),
                })
            }
            "gpu.async.token" => Ok(Type::GpuAsyncToken),
            _ => Err(self.error_code(
                codes::IRPARSE_TYPE,
                &format!("unknown dialect type '!{name}'"),
            )),
        }
    }

    /// Parse `d1 x d2 x ... x elem` where each `d` is an integer or `?`.
    fn parse_shape_and_elem(&mut self) -> Result<(Vec<i64>, Type)> {
        let mut shape = Vec::new();
        loop {
            self.skip_ws();
            let save = self.pos;
            if self.peek() == Some(b'?') {
                self.pos += 1;
                if self.eat_char(b'x') {
                    shape.push(Type::DYNAMIC);
                    continue;
                }
                self.pos = save;
                break;
            }
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                let n = self.parse_integer()?;
                if self.peek() == Some(b'x') {
                    self.pos += 1;
                    shape.push(n);
                    continue;
                }
                self.pos = save;
                break;
            }
            break;
        }
        let elem = self.parse_type()?;
        Ok((shape, elem))
    }

    /// Parse `[l,u]x[l,u]x...xelem` for stencil types.
    fn parse_bounds_and_elem(&mut self) -> Result<(Vec<DimBound>, Type)> {
        let mut bounds = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() != Some(b'[') {
                break;
            }
            self.pos += 1;
            let lower = self.parse_integer()?;
            self.expect_char(b',')?;
            let upper = self.parse_integer()?;
            self.expect_char(b']')?;
            self.expect_char(b'x')?;
            bounds.push(DimBound::new(lower, upper));
        }
        let elem = self.parse_type()?;
        Ok((bounds, elem))
    }

    // ------------------------------------------------------------- attributes

    fn parse_attribute(&mut self) -> Result<Attribute> {
        self.enter()?;
        let result = self.parse_attribute_inner();
        self.leave();
        result
    }

    fn parse_attribute_inner(&mut self) -> Result<Attribute> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Attribute::String(self.parse_string_literal()?)),
            Some(b'@') => {
                self.pos += 1;
                Ok(Attribute::Symbol(self.parse_bare_ident()))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat_char(b']') {
                    loop {
                        items.push(self.parse_attribute()?);
                        if !self.eat_char(b',') {
                            break;
                        }
                    }
                    self.expect_char(b']')?;
                }
                Ok(Attribute::Array(items))
            }
            Some(b'#') => {
                self.expect_str("#index<")
                    .map_err(|_| self.error("expected #index<...> attribute"))?;
                let mut items = Vec::new();
                if !self.eat_char(b'>') {
                    loop {
                        items.push(self.parse_integer()?);
                        if !self.eat_char(b',') {
                            break;
                        }
                    }
                    self.expect_char(b'>')?;
                }
                Ok(Attribute::IndexList(items))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number_attr(),
            _ => {
                let save = self.pos;
                let ident_save = {
                    let id = self.parse_bare_ident();
                    self.pos = save;
                    id
                };
                match ident_save.as_str() {
                    "true" => {
                        self.parse_bare_ident();
                        Ok(Attribute::Bool(true))
                    }
                    "false" => {
                        self.parse_bare_ident();
                        Ok(Attribute::Bool(false))
                    }
                    "unit" => {
                        self.parse_bare_ident();
                        Ok(Attribute::Unit)
                    }
                    _ => Ok(Attribute::Type(self.parse_type()?)),
                }
            }
        }
    }

    fn parse_number_attr(&mut self) -> Result<Attribute> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        let ty = if self.eat_char(b':') {
            self.parse_type()?
        } else if is_float {
            Type::f64()
        } else {
            Type::i64()
        };
        if is_float || ty.is_float() {
            let v: f64 = text.parse().map_err(|_| self.error("bad float literal"))?;
            Ok(Attribute::Float(v, ty))
        } else {
            let v: i64 = text.parse().map_err(|_| self.error("bad int literal"))?;
            Ok(Attribute::Int(v, ty))
        }
    }

    // -------------------------------------------------------------------- ops

    /// Parse a sequence of ops into `block`, stopping at `}` or `^`.
    fn parse_ops_into(&mut self, module: &mut Module, block: BlockId) -> Result<()> {
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some(b'}') | Some(b'^') => return Ok(()),
                _ => self.parse_op_into(module, block)?,
            }
        }
    }

    fn parse_op_into(&mut self, module: &mut Module, block: BlockId) -> Result<()> {
        // Optional result list.
        let mut result_names = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'%') {
            loop {
                result_names.push(self.parse_value_name()?);
                if !self.eat_char(b',') {
                    break;
                }
            }
            self.expect_char(b'=')?;
        }
        let name = self.parse_string_literal()?;
        self.expect_char(b'(')?;
        let mut operands = Vec::new();
        if !self.eat_char(b')') {
            loop {
                let vn = self.parse_value_name()?;
                operands.push(self.lookup_value(&vn)?);
                if !self.eat_char(b',') {
                    break;
                }
            }
            self.expect_char(b')')?;
        }

        // Optional regions: '(' '{' ... '}' (',' '{' ... '}')* ')'.
        let mut pending_regions = 0usize;
        let regions_start;
        self.skip_ws();
        if self.peek() == Some(b'(') {
            // Could be regions or nothing else: generic form only allows
            // regions here.
            regions_start = Some(self.pos);
            let _ = regions_start;
            self.pos += 1;
            // We parse the regions after creating the op; remember position.
            // Simpler: parse regions into a detached op later. To avoid
            // two-pass parsing we create the op first with a placeholder and
            // fill regions in now. Count handled below.
            pending_regions = 1; // at least one
                                 // rewind: we handle regions inline below via recursion, so
                                 // step back to re-enter uniformly.
            self.pos -= 1;
        }

        // Create op lazily: we need result types from the trailing signature,
        // but regions appear *before* the signature in the generic syntax.
        // Strategy: skip ahead is complex; instead parse regions into a
        // temporary op, then parse the signature, then fix result types.
        let op = module.create_op(name.clone(), operands.clone(), vec![], vec![]);

        if pending_regions > 0 {
            self.expect_char(b'(')?;
            loop {
                let region = module.add_region(op);
                self.parse_region_into(module, region)?;
                if !self.eat_char(b',') {
                    break;
                }
            }
            self.expect_char(b')')?;
        }

        // Optional attribute dict.
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.pos += 1;
            if !self.eat_char(b'}') {
                loop {
                    self.skip_ws();
                    let key = self.parse_bare_ident();
                    if key.is_empty() {
                        return Err(self.error("expected attribute name"));
                    }
                    self.expect_char(b'=')?;
                    let value = self.parse_attribute()?;
                    module.op_mut(op).attrs.insert(key, value);
                    if !self.eat_char(b',') {
                        break;
                    }
                }
                self.expect_char(b'}')?;
            }
        }

        // Trailing signature.
        self.expect_char(b':')?;
        let sig = self.parse_function_type()?;
        let (inputs, results) = match sig {
            Type::Function { inputs, results } => (inputs, results),
            _ => unreachable!("parse_function_type returns Function"),
        };
        if inputs.len() != operands.len() {
            return Err(self.error_code(
                codes::IRPARSE_SIGNATURE,
                &format!(
                    "op '{name}' has {} operands but signature lists {}",
                    operands.len(),
                    inputs.len()
                ),
            ));
        }
        if results.len() != result_names.len() {
            return Err(self.error_code(
                codes::IRPARSE_SIGNATURE,
                &format!(
                    "op '{name}' binds {} results but signature lists {}",
                    result_names.len(),
                    results.len()
                ),
            ));
        }
        // Create result values now that we know the types. `create_op` made
        // none, so we emulate by re-creating: simplest is to push results via
        // a tiny helper on Module. We reuse create_op's mechanism by making a
        // fresh op and swapping? Cheaper: Module::add_op_result.
        for (i, ty) in results.into_iter().enumerate() {
            let v = module_add_result(module, op, ty);
            self.values.insert(result_names[i].clone(), v);
        }
        module.append_op(block, op);
        Ok(())
    }

    fn parse_region_into(&mut self, module: &mut Module, region: RegionId) -> Result<()> {
        self.enter()?;
        let result = self.parse_region_into_inner(module, region);
        self.leave();
        result
    }

    fn parse_region_into_inner(&mut self, module: &mut Module, region: RegionId) -> Result<()> {
        self.expect_char(b'{')?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'^') => {
                    self.pos += 1;
                    let _label = self.parse_bare_ident();
                    self.expect_char(b'(')?;
                    let mut arg_names = Vec::new();
                    let mut arg_types = Vec::new();
                    if !self.eat_char(b')') {
                        loop {
                            let vn = self.parse_value_name()?;
                            self.expect_char(b':')?;
                            let ty = self.parse_type()?;
                            arg_names.push(vn);
                            arg_types.push(ty);
                            if !self.eat_char(b',') {
                                break;
                            }
                        }
                        self.expect_char(b')')?;
                    }
                    self.expect_char(b':')?;
                    let blk = module.add_block(region, &arg_types);
                    for (name, &v) in arg_names.iter().zip(module.block_args(blk)) {
                        self.values.insert(name.clone(), v);
                    }
                    self.parse_ops_into(module, blk)?;
                }
                _ => {
                    // Region with an implicit entry block (no header).
                    let blk = module.add_block(region, &[]);
                    self.parse_ops_into(module, blk)?;
                    self.expect_char(b'}')?;
                    return Ok(());
                }
            }
        }
    }
}

/// Append a result value of the given type to an existing op.
///
/// Lives here (not on `Module`) because only the parser needs to create an
/// op before its result types are known.
fn module_add_result(module: &mut Module, op: crate::module::OpId, ty: Type) -> ValueId {
    module.add_op_result(op, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::print_module;

    #[test]
    fn parse_simple_constant() {
        let text = r#"module {
  %0 = "arith.constant"() {value = 4 : i64} : () -> (i64)
}"#;
        let m = parse_module(text).unwrap();
        assert_eq!(m.live_op_count(), 1);
        let op = m.block_ops(m.top_block())[0];
        assert_eq!(m.op(op).name.full(), "arith.constant");
        assert_eq!(m.op(op).attr("value").unwrap().as_int(), Some(4));
        assert_eq!(m.value_type(m.result(op)), &Type::i64());
    }

    #[test]
    fn parse_nested_region_with_block_args() {
        let text = r#"module {
  "scf.for"() ({
  ^bb0(%iv: index):
    "t.use"(%iv) : (index) -> ()
  }) : () -> ()
}"#;
        let m = parse_module(text).unwrap();
        let lp = m.block_ops(m.top_block())[0];
        assert_eq!(m.op(lp).regions.len(), 1);
        let region = m.op(lp).regions[0];
        let blk = m.region_blocks(region)[0];
        assert_eq!(m.block_args(blk).len(), 1);
        let inner = m.block_ops(blk)[0];
        assert_eq!(m.op(inner).operands, vec![m.block_args(blk)[0]]);
    }

    #[test]
    fn roundtrip_print_parse_print() {
        let text = r#"module {
  %0 = "arith.constant"() {value = 2.5e-1 : f64} : () -> (f64)
  %1, %2 = "t.pair"(%0) ({
  ^bb0(%a: index, %b: f64):
    "t.inner"(%a, %b) {offset = #index<0, -1>, name = "data"} : (index, f64) -> ()
  }) : (f64) -> (i64, f64)
}"#;
        let m1 = parse_module(text).unwrap();
        let p1 = print_module(&m1);
        let m2 = parse_module(&p1).unwrap();
        let p2 = print_module(&m2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn parse_stencil_types() {
        let t = parse_type("!stencil.temp<[-1,255]x[-1,255]xf64>").unwrap();
        assert_eq!(t.to_string(), "!stencil.temp<[-1,255]x[-1,255]xf64>");
        let t = parse_type("!fir.ref<!fir.array<10x?xf64>>").unwrap();
        assert_eq!(t.to_string(), "!fir.ref<!fir.array<10x?xf64>>");
        let t = parse_type("memref<256x256xf64>").unwrap();
        assert_eq!(t.to_string(), "memref<256x256xf64>");
        let t = parse_type("!llvm.ptr<f64>").unwrap();
        assert_eq!(t.to_string(), "!llvm.ptr<f64>");
        let t = parse_type("!llvm.ptr").unwrap();
        assert_eq!(t.to_string(), "!llvm.ptr");
    }

    #[test]
    fn parse_function_type_forms() {
        let t = parse_type("(i64, f64) -> (f64)").unwrap();
        assert_eq!(t.to_string(), "(i64, f64) -> (f64)");
        let t = parse_type("() -> ()").unwrap();
        assert_eq!(t.to_string(), "() -> ()");
    }

    #[test]
    fn undefined_value_is_an_error() {
        let text = r#"module {
  "t.use"(%nope) : (i64) -> ()
}"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("undefined value"), "{err}");
    }

    #[test]
    fn signature_mismatch_is_an_error() {
        let text = r#"module {
  %0 = "t.c"() : () -> ()
}"#;
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("results"), "{err}");
    }

    #[test]
    fn parse_attr_kinds() {
        let text = r#"module {
  "t.x"() {s = "str", b = true, u = unit, sym = @foo, arr = [1 : i64, 2 : i64], ty = f64, idx = #index<1, 2, 3>} : () -> ()
}"#;
        let m = parse_module(text).unwrap();
        let op = m.block_ops(m.top_block())[0];
        assert_eq!(m.op(op).attr("s").unwrap().as_str(), Some("str"));
        assert_eq!(m.op(op).attr("b").unwrap().as_bool(), Some(true));
        assert_eq!(m.op(op).attr("u"), Some(&Attribute::Unit));
        assert_eq!(m.op(op).attr("sym").unwrap().as_symbol(), Some("foo"));
        assert_eq!(m.op(op).attr("arr").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(m.op(op).attr("ty").unwrap().as_type(), Some(&Type::f64()));
        assert_eq!(
            m.op(op).attr("idx").unwrap().as_index_list(),
            Some(&[1, 2, 3][..])
        );
    }

    // ----- regression tests from minimized fuzzer crashers -----

    /// Crasher: `i<huge>` overflowed the width `unwrap()` and aborted.
    #[test]
    fn huge_scalar_width_is_a_located_error_not_a_panic() {
        let err = parse_type("i99999999999999999999").unwrap_err();
        let d = err.primary().expect("structured diagnostic");
        assert_eq!(d.code, crate::diag::codes::IRPARSE_TYPE);
        assert!(err.message.contains("32 bits"), "{err}");

        let err = parse_type("f4294967295").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert!(parse_type("f0").is_err());
        assert!(parse_type("i64").is_ok());
    }

    /// Crasher: unbounded recursion on `!fir.ref<!fir.ref<...` overflowed
    /// the stack. Must be a clean E0305 instead.
    #[test]
    fn pathological_nesting_is_bounded() {
        let deep = "!fir.ref<".repeat(5000) + "f64" + &">".repeat(5000);
        let err = parse_type(&deep).unwrap_err();
        assert_eq!(
            err.primary().map(|d| d.code),
            Some(crate::diag::codes::IRPARSE_TOO_DEEP),
            "{err}"
        );
        // Attribute arrays recurse through parse_attribute.
        let attr_bomb = format!(
            "module {{\n  \"t.x\"() {{a = {}1{}}} : () -> ()\n}}",
            "[".repeat(5000),
            "]".repeat(5000)
        );
        assert!(parse_module(&attr_bomb).is_err());
    }

    /// Truncated and garbage inputs must all produce located errors.
    #[test]
    fn truncated_and_garbage_ir_errors_cleanly() {
        for src in [
            "",
            "module",
            "module {",
            "module {\n  \"t.c\"(",
            "module {\n  \"t.c\"() : () -> (",
            "module {\n  %0 = \"t.c\"() : () -> (i64",
            "module {\n  \"t.c\"() {k = } : () -> ()\n}",
            "module {\n  \"t.c\"() : (zzz) -> ()\n}",
            "module { @@@@ }",
            "module {\n  \"unterminated",
        ] {
            let err = parse_module(src).unwrap_err();
            assert!(
                err.message.contains("parse error") || err.message.contains("expected"),
                "input {src:?} gave unexpected error {err}"
            );
        }
    }

    /// Errors carry a 1-based line *and column* now.
    #[test]
    fn errors_carry_line_and_column() {
        let text = "module {\n  \"t.use\"(%nope) : (i64) -> ()\n}";
        let err = parse_module(text).unwrap_err();
        let d = err.primary().expect("diagnostic");
        assert_eq!(d.code, crate::diag::codes::IRPARSE_UNDEFINED_VALUE);
        let span = d.span.expect("span");
        assert_eq!(span.line, 2);
        assert!(span.col > 1, "column should be past line start: {span}");
        assert!(err.message.contains("line 2:"), "{err}");
    }

    #[test]
    fn comments_are_skipped() {
        let text = r#"module {
  // a comment
  %0 = "t.c"() : () -> (i64) // trailing
}"#;
        let m = parse_module(text).unwrap();
        assert_eq!(m.live_op_count(), 1);
    }
}
