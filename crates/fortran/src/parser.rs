//! Recursive-descent parser for the supported Fortran subset.
//!
//! The parser *recovers* from errors instead of bailing at the first one:
//! a failed statement records a located [`Diagnostic`] and synchronizes at
//! the next statement boundary (end-of-statement token), a failed unit
//! synchronizes at the next `program`/`subroutine`, so one file reports
//! every problem it contains (bounded by [`MAX_ERRORS`]). When anything
//! was recorded the overall result is an [`IrError`] carrying the full
//! batch; the partially-parsed AST is never handed downstream.

use fsc_ir::diag::{codes, Diagnostic, Span};
use fsc_ir::{IrError, Result};

use crate::ast::*;
use crate::lexer::{Token, TokenKind};

/// Stop recording after this many diagnostics; a file this broken is
/// usually one mistake cascading, and recovery time stays bounded.
const MAX_ERRORS: usize = 25;

/// Bound on how deep an expression may nest: parentheses (and prefix
/// operators) inside one another, and the height of the tree an operator
/// chain builds (`a + a + ...` is left-deep, one level per term). The
/// parser, sema, lowering, the passes that walk a def chain and `Drop` all
/// recurse once per level, and a stack overflow is a process abort that no
/// `catch_unwind` contains, so the bound is enforced here, where the tree
/// is built: no later stage ever sees a deeper one. Sized for a debug build
/// on a 2 MiB thread (the stack of an `fsc-serve` worker), where a level
/// costs up to 10.4 KiB (one parenthesis through the ten precedence
/// frames): 128 levels use 1.3 MiB, and the first overflow measured was at
/// 195 parentheses and at 225 chained terms. A release build uses a
/// fraction of that.
pub const MAX_EXPR_DEPTH: usize = 128;

/// An expression and the height of its tree (a leaf is 1).
type Measured = (Expr, usize);

/// Parse a token stream into a [`SourceFile`].
pub fn parse_source(tokens: &[Token]) -> Result<SourceFile> {
    let mut p = Parser {
        tokens,
        pos: 0,
        diags: Vec::new(),
        nesting: 0,
    };
    let mut units = Vec::new();
    p.skip_eos();
    while !p.at(TokenKind::Eof) && p.diags.len() < MAX_ERRORS {
        match p.parse_unit() {
            Ok(u) => units.push(u),
            Err(e) => {
                p.record(e);
                p.sync_to_unit_start();
            }
        }
        p.skip_eos();
    }
    if !p.diags.is_empty() {
        return Err(IrError::from_diagnostics(p.diags));
    }
    if units.is_empty() {
        return Err(IrError::from_diagnostic(Diagnostic::error(
            codes::PARSE_EMPTY_SOURCE,
            "empty source: no program units",
        )));
    }
    Ok(SourceFile { units })
}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    diags: Vec<Diagnostic>,
    /// Expression sub-parsers currently open inside one another.
    nesting: usize,
}

/// Human-readable description of a token for error messages.
fn tok_desc(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => format!("'{s}'"),
        TokenKind::Int(v) => format!("integer literal {v}"),
        TokenKind::Real(v) => format!("real literal {v}"),
        TokenKind::Logical(v) => format!(".{v}."),
        TokenKind::Eos => "end of statement".to_string(),
        TokenKind::Eof => "end of file".to_string(),
        TokenKind::Plus => "'+'".to_string(),
        TokenKind::Minus => "'-'".to_string(),
        TokenKind::Star => "'*'".to_string(),
        TokenKind::Pow => "'**'".to_string(),
        TokenKind::Slash => "'/'".to_string(),
        TokenKind::LParen => "'('".to_string(),
        TokenKind::RParen => "')'".to_string(),
        TokenKind::Comma => "','".to_string(),
        TokenKind::Assign => "'='".to_string(),
        TokenKind::Eq => "'=='".to_string(),
        TokenKind::Ne => "'/='".to_string(),
        TokenKind::Lt => "'<'".to_string(),
        TokenKind::Le => "'<='".to_string(),
        TokenKind::Gt => "'>'".to_string(),
        TokenKind::Ge => "'>='".to_string(),
        TokenKind::And => "'.and.'".to_string(),
        TokenKind::Or => "'.or.'".to_string(),
        TokenKind::Not => "'.not.'".to_string(),
        TokenKind::DoubleColon => "'::'".to_string(),
        TokenKind::Colon => "':'".to_string(),
        TokenKind::Percent => "'%'".to_string(),
    }
}

impl<'t> Parser<'t> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        Span::new(t.line, t.col)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn at(&self, kind: TokenKind) -> bool {
        *self.peek() == kind
    }

    fn err(&self, msg: impl std::fmt::Display) -> IrError {
        self.err_code(codes::PARSE_UNEXPECTED_TOKEN, msg)
    }

    fn err_code(&self, code: &'static str, msg: impl std::fmt::Display) -> IrError {
        IrError::from_diagnostic(
            Diagnostic::error(code, format!("parse error: {msg}")).at(self.span()),
        )
    }

    /// Fold an error's diagnostics into the recovery batch (no-op once the
    /// cap is hit — recovery keeps running but stops accumulating).
    fn record(&mut self, e: IrError) {
        if self.diags.len() >= MAX_ERRORS {
            return;
        }
        if e.diagnostics.is_empty() {
            self.diags
                .push(Diagnostic::error(codes::PARSE_UNEXPECTED_TOKEN, e.message));
        } else {
            self.diags.extend(e.diagnostics);
        }
    }

    /// Skip to just past the next end-of-statement (or stop at EOF), so the
    /// next parse attempt starts on a fresh statement.
    fn sync_to_stmt_boundary(&mut self) {
        while !self.at(TokenKind::Eof) && !self.at(TokenKind::Eos) {
            self.bump();
        }
        self.eat(&TokenKind::Eos);
    }

    /// Skip to the next plausible program-unit start (or EOF).
    fn sync_to_unit_start(&mut self) {
        loop {
            if self.at(TokenKind::Eof) || self.at_kw("program") || self.at_kw("subroutine") {
                return;
            }
            self.bump();
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, kind: TokenKind) -> Result<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.err_code(
                codes::PARSE_EXPECTED,
                format!(
                    "expected {}, found {}",
                    tok_desc(&kind),
                    tok_desc(self.peek())
                ),
            ))
        }
    }

    /// Is the current token the given (lowercased) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_code(
                codes::PARSE_EXPECTED,
                format!("expected '{kw}', found {}", tok_desc(self.peek())),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        if let TokenKind::Ident(s) = self.peek() {
            let s = s.clone();
            self.bump();
            Ok(s)
        } else {
            Err(self.err_code(
                codes::PARSE_EXPECTED,
                format!("expected identifier, found {}", tok_desc(self.peek())),
            ))
        }
    }

    fn expect_eos(&mut self) -> Result<()> {
        if self.eat(&TokenKind::Eos) || self.at(TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err_code(
                codes::PARSE_EXPECTED,
                format!("expected end of statement, found {}", tok_desc(self.peek())),
            ))
        }
    }

    fn skip_eos(&mut self) {
        while self.eat(&TokenKind::Eos) {}
    }

    // ------------------------------------------------------------- units

    fn parse_unit(&mut self) -> Result<ProgramUnit> {
        if self.eat_kw("program") {
            let name = self.expect_ident()?;
            self.expect_eos()?;
            let (decls, body) = self.parse_unit_body()?;
            self.parse_end("program", &name)?;
            Ok(ProgramUnit {
                kind: UnitKind::Program,
                name,
                args: vec![],
                decls,
                body,
            })
        } else if self.eat_kw("subroutine") {
            let name = self.expect_ident()?;
            let mut args = Vec::new();
            if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.expect_ident()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_tok(TokenKind::RParen)?;
            }
            self.expect_eos()?;
            let (decls, body) = self.parse_unit_body()?;
            self.parse_end("subroutine", &name)?;
            Ok(ProgramUnit {
                kind: UnitKind::Subroutine,
                name,
                args,
                decls,
                body,
            })
        } else {
            Err(self.err(format!(
                "expected 'program' or 'subroutine', found {}",
                tok_desc(self.peek())
            )))
        }
    }

    /// `end [program|subroutine] [name]`.
    fn parse_end(&mut self, unit_kw: &str, name: &str) -> Result<()> {
        if self.at(TokenKind::Eof) {
            return Err(self.err_code(
                codes::PARSE_UNTERMINATED,
                format!("{unit_kw} '{name}' is not closed: missing 'end {unit_kw}'"),
            ));
        }
        self.expect_kw("end")?;
        if self.eat_kw(unit_kw) {
            // Optional repeat of the unit name.
            if matches!(self.peek(), TokenKind::Ident(_)) {
                self.bump();
            }
        }
        self.expect_eos()?;
        Ok(())
    }

    fn parse_unit_body(&mut self) -> Result<(Vec<Decl>, Vec<Stmt>)> {
        let mut decls = Vec::new();
        // Specification part. A bad declaration records its diagnostic and
        // resumes at the next statement so the rest of the unit still gets
        // checked.
        loop {
            self.skip_eos();
            if self.at_kw("implicit") {
                self.bump();
                self.expect_kw("none")?;
                self.expect_eos()?;
            } else if self.at_type_spec() {
                match self.parse_decl_stmt() {
                    Ok(ds) => decls.extend(ds),
                    Err(e) => {
                        self.record(e);
                        if self.diags.len() >= MAX_ERRORS {
                            break;
                        }
                        self.sync_to_stmt_boundary();
                    }
                }
            } else {
                break;
            }
        }
        // Execution part.
        let body = self.parse_stmts(&["end"])?;
        Ok((decls, body))
    }

    fn at_type_spec(&self) -> bool {
        self.at_kw("integer") || self.at_kw("real") || self.at_kw("logical") || self.at_kw("double")
    }

    // ------------------------------------------------------- declarations

    fn parse_type_spec(&mut self) -> Result<TypeSpec> {
        if self.eat_kw("integer") {
            // Optional kind selector, ignored (default integer).
            if self.eat(&TokenKind::LParen) {
                self.skip_kind_selector()?;
            }
            Ok(TypeSpec::Integer)
        } else if self.eat_kw("logical") {
            Ok(TypeSpec::Logical)
        } else if self.eat_kw("double") {
            self.expect_kw("precision")?;
            Ok(TypeSpec::Real { kind: 8 })
        } else if self.eat_kw("real") {
            let mut kind = 4u8;
            if self.eat(&TokenKind::LParen) {
                kind = self.parse_kind_value()?;
            }
            Ok(TypeSpec::Real { kind })
        } else {
            Err(self.err_code(codes::PARSE_BAD_DECL, "expected type specifier"))
        }
    }

    /// After `(`: `kind=8)` or `8)`.
    fn parse_kind_value(&mut self) -> Result<u8> {
        if self.eat_kw("kind") {
            self.expect_tok(TokenKind::Assign)?;
        }
        let v = match self.bump() {
            TokenKind::Int(v) => v as u8,
            other => {
                return Err(self.err_code(
                    codes::PARSE_BAD_DECL,
                    format!("expected kind value, found {}", tok_desc(&other)),
                ))
            }
        };
        self.expect_tok(TokenKind::RParen)?;
        Ok(v)
    }

    fn skip_kind_selector(&mut self) -> Result<()> {
        let mut depth = 1;
        while depth > 0 {
            match self.bump() {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => depth -= 1,
                TokenKind::Eof => return Err(self.err("unterminated kind selector")),
                _ => {}
            }
        }
        Ok(())
    }

    fn parse_decl_stmt(&mut self) -> Result<Vec<Decl>> {
        let decl_line = self.span().line;
        let ty = self.parse_type_spec()?;
        let mut dims_attr: Vec<Dim> = Vec::new();
        let mut allocatable = false;
        let mut parameter = false;
        let mut intent = Intent::InOut;
        while self.eat(&TokenKind::Comma) {
            if self.eat_kw("dimension") {
                self.expect_tok(TokenKind::LParen)?;
                dims_attr = self.parse_dim_list()?;
                self.expect_tok(TokenKind::RParen)?;
            } else if self.eat_kw("allocatable") {
                allocatable = true;
            } else if self.eat_kw("parameter") {
                parameter = true;
            } else if self.eat_kw("intent") {
                self.expect_tok(TokenKind::LParen)?;
                intent = if self.eat_kw("in") {
                    Intent::In
                } else if self.eat_kw("out") {
                    Intent::Out
                } else if self.eat_kw("inout") {
                    Intent::InOut
                } else {
                    return Err(self.err_code(codes::PARSE_BAD_DECL, "expected in/out/inout"));
                };
                self.expect_tok(TokenKind::RParen)?;
            } else {
                return Err(self.err_code(
                    codes::PARSE_BAD_DECL,
                    format!("unknown declaration attribute {}", tok_desc(self.peek())),
                ));
            }
        }
        self.expect_tok(TokenKind::DoubleColon)?;
        let mut out = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mut dims = dims_attr.clone();
            if self.eat(&TokenKind::LParen) {
                dims = self.parse_dim_list()?;
                self.expect_tok(TokenKind::RParen)?;
            }
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            if parameter && init.is_none() {
                return Err(self.err_code(
                    codes::PARSE_BAD_DECL,
                    format!("parameter '{name}' missing initialiser"),
                ));
            }
            out.push(Decl {
                name,
                ty,
                dims,
                allocatable,
                parameter: if parameter { init } else { None },
                intent,
                line: decl_line,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_eos()?;
        Ok(out)
    }

    /// Dim list items: `expr`, `lower:upper`, or `:` (deferred shape).
    fn parse_dim_list(&mut self) -> Result<Vec<Dim>> {
        let mut dims = Vec::new();
        loop {
            if self.at(TokenKind::Colon) {
                // Deferred shape for allocatables: rank marker only.
                self.bump();
                dims.push(Dim {
                    lower: Expr::Int(1),
                    upper: Expr::Int(0),
                });
            } else {
                let first = self.parse_expr()?;
                if self.eat(&TokenKind::Colon) {
                    let upper = self.parse_expr()?;
                    dims.push(Dim {
                        lower: first,
                        upper,
                    });
                } else {
                    dims.push(Dim {
                        lower: Expr::Int(1),
                        upper: first,
                    });
                }
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(dims)
    }

    // -------------------------------------------------------- statements

    /// Parse statements until one of `stop_kws` begins a line.
    ///
    /// A statement that fails to parse records its diagnostic and recovery
    /// skips to the next statement boundary, so every broken statement in
    /// a block is reported, not just the first.
    fn parse_stmts(&mut self, stop_kws: &[&str]) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        loop {
            self.skip_eos();
            if self.at(TokenKind::Eof) {
                return Ok(out);
            }
            if let TokenKind::Ident(word) = self.peek() {
                if stop_kws.contains(&word.as_str()) {
                    return Ok(out);
                }
            }
            match self.parse_stmt() {
                Ok(s) => out.push(s),
                Err(e) => {
                    self.record(e);
                    if self.diags.len() >= MAX_ERRORS {
                        return Ok(out);
                    }
                    self.sync_to_stmt_boundary();
                }
            }
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        if self.eat_kw("do") {
            return self.parse_do();
        }
        if self.eat_kw("if") {
            return self.parse_if();
        }
        if self.eat_kw("call") {
            let name = self.expect_ident()?;
            let mut args = Vec::new();
            if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_tok(TokenKind::RParen)?;
            }
            self.expect_eos()?;
            return Ok(Stmt::Call { name, args });
        }
        if self.eat_kw("allocate") {
            self.expect_tok(TokenKind::LParen)?;
            let mut items = Vec::new();
            loop {
                let name = self.expect_ident()?;
                self.expect_tok(TokenKind::LParen)?;
                let dims = self.parse_dim_list()?;
                self.expect_tok(TokenKind::RParen)?;
                items.push((name, dims));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_tok(TokenKind::RParen)?;
            self.expect_eos()?;
            return Ok(Stmt::Allocate { items });
        }
        if self.eat_kw("deallocate") {
            self.expect_tok(TokenKind::LParen)?;
            let mut names = Vec::new();
            loop {
                names.push(self.expect_ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_tok(TokenKind::RParen)?;
            self.expect_eos()?;
            return Ok(Stmt::Deallocate { names });
        }
        // Assignment.
        let name = self.expect_ident()?;
        let target = if self.eat(&TokenKind::LParen) {
            let mut indices = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    indices.push(self.parse_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_tok(TokenKind::RParen)?;
            }
            LValue::Element { name, indices }
        } else {
            LValue::Var(name)
        };
        self.expect_tok(TokenKind::Assign)?;
        let value = self.parse_expr()?;
        self.expect_eos()?;
        Ok(Stmt::Assign { target, value })
    }

    fn parse_do(&mut self) -> Result<Stmt> {
        let var = self.expect_ident()?;
        self.expect_tok(TokenKind::Assign)?;
        let lb = self.parse_expr()?;
        self.expect_tok(TokenKind::Comma)?;
        let ub = self.parse_expr()?;
        let step = if self.eat(&TokenKind::Comma) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect_eos()?;
        let body = self.parse_stmts(&["end", "enddo"])?;
        if self.eat_kw("enddo") {
        } else {
            self.expect_kw("end")?;
            self.expect_kw("do")?;
        }
        self.expect_eos()?;
        Ok(Stmt::Do {
            var,
            lb,
            ub,
            step,
            body,
        })
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        self.expect_tok(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_tok(TokenKind::RParen)?;
        if self.eat_kw("then") {
            self.expect_eos()?;
            let then_body = self.parse_stmts(&["end", "endif", "else"])?;
            let mut else_body = Vec::new();
            if self.eat_kw("else") {
                self.expect_eos()?;
                else_body = self.parse_stmts(&["end", "endif"])?;
            }
            if self.eat_kw("endif") {
            } else {
                self.expect_kw("end")?;
                self.expect_kw("if")?;
            }
            self.expect_eos()?;
            Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            })
        } else {
            // One-line logical IF.
            let stmt = self.parse_stmt()?;
            Ok(Stmt::If {
                cond,
                then_body: vec![stmt],
                else_body: vec![],
            })
        }
    }

    // ------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr> {
        Ok(self.parse_or()?.0)
    }

    fn too_deep(&self) -> IrError {
        self.err_code(
            codes::PARSE_EXPR_TOO_DEEP,
            format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
        )
    }

    /// Run an expression sub-parser from inside another one (an operand in
    /// parentheses, an index, the operand of a prefix operator), refusing to
    /// recurse past [`MAX_EXPR_DEPTH`].
    fn nested(&mut self, sub: fn(&mut Self) -> Result<Measured>) -> Result<Measured> {
        if self.nesting == MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = sub(self);
        self.nesting -= 1;
        parsed
    }

    /// A node over children of height `below`, unless that makes the tree
    /// higher than [`MAX_EXPR_DEPTH`].
    fn node(&self, expr: Expr, below: usize) -> Result<Measured> {
        if below >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok((expr, below + 1))
    }

    fn bin(&self, op: BinOp, lhs: Measured, rhs: Measured) -> Result<Measured> {
        self.node(Expr::bin(op, lhs.0, rhs.0), lhs.1.max(rhs.1))
    }

    fn parse_or(&mut self) -> Result<Measured> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let rhs = self.parse_and()?;
            lhs = self.bin(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Measured> {
        let mut lhs = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let rhs = self.parse_not()?;
            lhs = self.bin(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Measured> {
        if self.eat(&TokenKind::Not) {
            let (e, height) = self.nested(Self::parse_not)?;
            self.node(Expr::un(UnOp::Not, e), height)
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Measured> {
        let lhs = self.parse_addsub()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_addsub()?;
        self.bin(op, lhs, rhs)
    }

    fn parse_addsub(&mut self) -> Result<Measured> {
        let mut lhs = self.parse_muldiv()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_muldiv()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
    }

    fn parse_muldiv(&mut self) -> Result<Measured> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
    }

    fn parse_unary(&mut self) -> Result<Measured> {
        if self.eat(&TokenKind::Minus) {
            // Fortran: -a**b parses as -(a**b).
            let (e, height) = self.nested(Self::parse_unary)?;
            self.node(Expr::un(UnOp::Neg, e), height)
        } else if self.eat(&TokenKind::Plus) {
            self.nested(Self::parse_unary)
        } else {
            self.parse_power()
        }
    }

    fn parse_power(&mut self) -> Result<Measured> {
        let base = self.parse_primary()?;
        if self.eat(&TokenKind::Pow) {
            // Right-associative; exponent may itself be unary.
            let exp = self.nested(Self::parse_unary)?;
            self.bin(BinOp::Pow, base, exp)
        } else {
            Ok(base)
        }
    }

    fn parse_primary(&mut self) -> Result<Measured> {
        // Peek before committing: erroring *without* consuming keeps the
        // diagnostic span on the offending token, not the one after it.
        if !matches!(
            self.peek(),
            TokenKind::Int(_)
                | TokenKind::Real(_)
                | TokenKind::Logical(_)
                | TokenKind::LParen
                | TokenKind::Ident(_)
        ) {
            return Err(self.err(format!(
                "unexpected {} in expression",
                tok_desc(self.peek())
            )));
        }
        match self.bump() {
            TokenKind::Int(v) => Ok((Expr::Int(v), 1)),
            TokenKind::Real(v) => Ok((Expr::Real(v), 1)),
            TokenKind::Logical(v) => Ok((Expr::Logical(v), 1)),
            TokenKind::LParen => {
                let e = self.nested(Self::parse_or)?;
                self.expect_tok(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let mut indices = Vec::new();
                    let mut below = 0;
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            let (index, height) = self.nested(Self::parse_or)?;
                            indices.push(index);
                            below = below.max(height);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect_tok(TokenKind::RParen)?;
                    }
                    self.node(Expr::Index { name, indices }, below)
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => Err(self.err(format!("unexpected {} in expression", tok_desc(&other)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> SourceFile {
        parse_source(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn minimal_program() {
        let f = parse("program t\nimplicit none\nend program t\n");
        assert_eq!(f.units.len(), 1);
        assert_eq!(f.units[0].name, "t");
        assert_eq!(f.units[0].kind, UnitKind::Program);
        assert!(f.units[0].body.is_empty());
    }

    #[test]
    fn declarations_with_attrs() {
        let f = parse(
            "program t
integer, parameter :: n = 64
real(kind=8), dimension(0:n+1, 0:n+1) :: u, u_new
real(kind=8), dimension(:,:), allocatable :: h
integer :: i, j
end program t",
        );
        let d = &f.units[0].decls;
        assert_eq!(d.len(), 6);
        assert_eq!(d[0].name, "n");
        assert!(d[0].parameter.is_some());
        assert_eq!(d[1].name, "u");
        assert_eq!(d[1].dims.len(), 2);
        assert_eq!(d[1].ty, TypeSpec::Real { kind: 8 });
        assert!(d[3].allocatable);
        assert_eq!(d[4].ty, TypeSpec::Integer);
    }

    #[test]
    fn nested_do_with_array_assign() {
        let f = parse(
            "program t
integer :: i, j
real(kind=8) :: data(10, 10), res(10, 10)
do i = 2, 9
  do j = 2, 9
    res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
  end do
end do
end program t",
        );
        let body = &f.units[0].body;
        assert_eq!(body.len(), 1);
        let Stmt::Do {
            var, body: inner, ..
        } = &body[0]
        else {
            panic!("expected do");
        };
        assert_eq!(var, "i");
        let Stmt::Do {
            var: jv,
            body: innermost,
            ..
        } = &inner[0]
        else {
            panic!("expected nested do");
        };
        assert_eq!(jv, "j");
        let Stmt::Assign {
            target: LValue::Element { name, indices },
            ..
        } = &innermost[0]
        else {
            panic!("expected array assign");
        };
        assert_eq!(name, "res");
        assert_eq!(indices.len(), 2);
    }

    #[test]
    fn do_with_step_and_enddo() {
        let f = parse("program t\ninteger :: i\ndo i = 1, 10, 2\nenddo\nend program t");
        let Stmt::Do { step, .. } = &f.units[0].body[0] else {
            panic!()
        };
        assert_eq!(step.as_ref(), Some(&Expr::Int(2)));
    }

    #[test]
    fn if_then_else() {
        let f = parse(
            "program t
real(kind=8) :: x
if (x > 0.0) then
  x = 1.0
else
  x = -1.0
end if
end program t",
        );
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &f.units[0].body[0]
        else {
            panic!()
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn one_line_if() {
        let f = parse("program t\nreal(kind=8) :: x\nif (x > 0.0) x = 0.0\nend program t");
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &f.units[0].body[0]
        else {
            panic!()
        };
        assert_eq!(then_body.len(), 1);
        assert!(else_body.is_empty());
    }

    #[test]
    fn subroutine_with_args_and_call() {
        let f = parse(
            "subroutine sub(a, b)
real(kind=8), intent(in) :: a(8)
real(kind=8), intent(out) :: b(8)
integer :: i
do i = 1, 8
  b(i) = a(i)
end do
end subroutine sub

program main
real(kind=8) :: x(8), y(8)
call sub(x, y)
end program main",
        );
        assert_eq!(f.units.len(), 2);
        assert_eq!(f.units[0].kind, UnitKind::Subroutine);
        assert_eq!(f.units[0].args, vec!["a", "b"]);
        let Stmt::Call { name, args } = &f.units[1].body[0] else {
            panic!()
        };
        assert_eq!(name, "sub");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn allocate_deallocate() {
        let f = parse(
            "program t
real(kind=8), dimension(:,:), allocatable :: u
allocate(u(0:65, 0:65))
deallocate(u)
end program t",
        );
        let Stmt::Allocate { items } = &f.units[0].body[0] else {
            panic!()
        };
        assert_eq!(items[0].0, "u");
        assert_eq!(items[0].1.len(), 2);
        let Stmt::Deallocate { names } = &f.units[0].body[1] else {
            panic!()
        };
        assert_eq!(names, &vec!["u".to_string()]);
    }

    #[test]
    fn operator_precedence() {
        let f = parse("program t\nreal(kind=8) :: x\nx = 1.0 + 2.0 * 3.0 ** 2\nend program t");
        let Stmt::Assign { value, .. } = &f.units[0].body[0] else {
            panic!()
        };
        // 1 + (2 * (3 ** 2))
        let Expr::Bin {
            op: BinOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("expected + at top, got {value:?}")
        };
        let Expr::Bin {
            op: BinOp::Mul,
            rhs: pow,
            ..
        } = rhs.as_ref()
        else {
            panic!("expected * under +")
        };
        assert!(matches!(pow.as_ref(), Expr::Bin { op: BinOp::Pow, .. }));
    }

    #[test]
    fn unary_minus_binds_looser_than_pow() {
        let f = parse("program t\nreal(kind=8) :: x\nx = -x ** 2\nend program t");
        let Stmt::Assign { value, .. } = &f.units[0].body[0] else {
            panic!()
        };
        // -(x**2)
        assert!(matches!(value, Expr::Un { op: UnOp::Neg, .. }));
    }

    #[test]
    fn expression_depth_is_bounded_where_the_tree_is_built() {
        let outcome = |rhs: String| {
            let src = format!("program t\nreal(kind=8) :: x\nx = {rhs}\nend program t");
            parse_source(&lex(&src).unwrap())
                .map(|_| ())
                .map_err(|e| e.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>())
        };
        let too_deep = Err(vec![fsc_ir::diag::codes::PARSE_EXPR_TOO_DEEP]);
        let wrapped =
            |open: &str, n: usize, close: &str| format!("{}x{}", open.repeat(n), close.repeat(n));
        // A left-deep chain of n scalar terms is a tree n levels high.
        let chain = |n: usize| vec!["x"; n].join(" * ");
        assert_eq!(outcome(chain(MAX_EXPR_DEPTH)), Ok(()));
        assert_eq!(outcome(chain(MAX_EXPR_DEPTH + 1)), too_deep);
        // Parentheses build no node, only recursion: n of them nest n deep.
        assert_eq!(outcome(wrapped("(", MAX_EXPR_DEPTH, ")")), Ok(()));
        assert_eq!(outcome(wrapped("(", MAX_EXPR_DEPTH + 1, ")")), too_deep);
        // A prefix operator is both; the leaf under n of them is level n + 1.
        assert_eq!(outcome(wrapped("-", MAX_EXPR_DEPTH - 1, "")), Ok(()));
        assert_eq!(outcome(wrapped("-", MAX_EXPR_DEPTH, "")), too_deep);
        // The height is the tree's, however the levels are spelt.
        let half = MAX_EXPR_DEPTH / 2;
        let mixed = |n: usize| format!("{} + {}", wrapped("-(", half, ")"), chain(n));
        assert_eq!(outcome(mixed(MAX_EXPR_DEPTH - 1)), Ok(()));
        assert_eq!(outcome(mixed(MAX_EXPR_DEPTH)), too_deep);
    }

    #[test]
    fn missing_end_is_error() {
        let toks = lex("program t\ninteger :: i\n").unwrap();
        let err = parse_source(&toks).unwrap_err();
        assert!(
            err.diagnostics
                .iter()
                .any(|d| d.code == fsc_ir::diag::codes::PARSE_UNTERMINATED),
            "{err}"
        );
    }

    #[test]
    fn recovery_reports_multiple_errors_per_file() {
        // Three independent broken statements: all three must be reported.
        let toks = lex("program t
integer :: i
i = + * 2
i = )
i = 3 +
i = 1
end program t")
        .unwrap();
        let err = parse_source(&toks).unwrap_err();
        assert!(
            err.diagnostics.len() >= 3,
            "expected >=3 diagnostics, got {}: {err}",
            err.diagnostics.len()
        );
        // Each carries a distinct source line.
        let lines: Vec<u32> = err
            .diagnostics
            .iter()
            .filter_map(|d| d.span.map(|s| s.line))
            .collect();
        assert!(lines.contains(&3), "{lines:?}");
        assert!(lines.contains(&4), "{lines:?}");
        assert!(lines.contains(&5), "{lines:?}");
    }

    #[test]
    fn recovery_continues_past_bad_declaration() {
        let toks = lex("program t
integer, bogus :: i
real(kind=8) :: x
x = * 1.0
end program t")
        .unwrap();
        let err = parse_source(&toks).unwrap_err();
        // Both the bad decl attribute and the bad statement are reported.
        assert!(
            err.diagnostics
                .iter()
                .any(|d| d.code == fsc_ir::diag::codes::PARSE_BAD_DECL),
            "{err}"
        );
        assert!(err.diagnostics.len() >= 2, "{err}");
    }

    #[test]
    fn error_count_is_bounded() {
        let mut src = String::from("program t\ninteger :: i\n");
        for _ in 0..200 {
            src.push_str("i = )\n");
        }
        src.push_str("end program t\n");
        let toks = lex(&src).unwrap();
        let err = parse_source(&toks).unwrap_err();
        assert!(err.diagnostics.len() <= 25, "{}", err.diagnostics.len());
    }

    #[test]
    fn errors_have_spans_and_stable_codes() {
        let toks = lex("program t\ninteger :: i\ni = (1 + 2\nend program t").unwrap();
        let err = parse_source(&toks).unwrap_err();
        let d = err.primary().expect("diagnostic");
        assert_eq!(d.code, fsc_ir::diag::codes::PARSE_EXPECTED);
        assert_eq!(d.span.map(|s| s.line), Some(3));
    }
}
