//! User functions: scalar functions written in C, embedded verbatim in
//! every generated OpenCL kernel and simulated from that same text.
//!
//! A user function's C body is its only definition. [`UserFun::new`]
//! parses it once into a [`Body`] and types that into a [`Program`]: a
//! flat list of typed [`Node`]s, each computing one value from the
//! arguments, literals and earlier nodes. [`UserFun::call`] runs the
//! program on one set of arguments (lift-core's evaluator, the reference
//! interpreter and the benchmarks' golden references call it), and the
//! virtual device's plan engine runs the same program across a work-group's
//! lanes, one pass per node.
//!
//! # The accepted C subset
//!
//! A body is a sequence of statements ending with its one `return`:
//!
//! * `float x = e;` and `int x = e;`;
//! * `const float b[N] = {v0, …};` with `N` float literals;
//! * `return e;`.
//!
//! Expressions are float literals with an `f` suffix (`0.2f`), int
//! literals, parameters, locals, unary `-`, `+ - * / %`,
//! `< <= > >= == !=`, `c ? a : b`, `(float)` and `(int)` casts, `b[i]`,
//! and calls to `sqrt`, `fmax` and `exp` (on floats) and `abs` (on ints).
//!
//! Typing has no implicit conversion between `int` and `float`: an
//! operation that mixes them is an error, so the body writes the cast. A
//! comparison is a `bool`, which C promotes to the `int` 0 or 1 where
//! arithmetic, a comparison, an index, an `int` local or an `int` return
//! uses it (`(i > 0) + (j > 0)`); the program makes that promotion an
//! explicit [`Node::BoolToInt`]. A `?:` condition must be a `bool`.
//!
//! `int` values are `i32`: arguments enter as `i32`, and `+ - *`,
//! negation and `abs` wrap. Integer `/` and `%` truncate toward zero, and
//! their divisor must be a non-zero literal, so every body is total but
//! for one fault: a constant-array index out of range, which
//! [`UserFun::call`] returns as an [`IndexFault`]. An index inside a `?:`
//! arm faults only when the arm is taken.

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroI32;
use std::sync::{Arc, OnceLock};

use crate::scalar::{Scalar, ScalarKind};
use crate::types::Type;

/// An arbitrary scalar function, written in C and embedded into generated
/// OpenCL code; its C body is also what the simulator runs.
///
/// This mirrors the paper's `userFun` primitive: *"userFuns define arbitrary
/// functions which operate on scalar values. These functions are written in C
/// and are embedded in the generated OpenCL code."*
///
/// # Example
///
/// ```
/// use lift_core::userfun::UserFun;
/// use lift_core::types::Type;
/// use lift_core::scalar::Scalar;
///
/// let square = UserFun::new("square", [("x", Type::f32())], Type::f32(), "return x * x;")
///     .expect("a valid body");
/// assert_eq!(square.arity(), 1);
/// assert_eq!(square.call(&[Scalar::F32(3.0)]), Ok(Scalar::F32(9.0)));
/// ```
pub struct UserFun {
    name: String,
    params: Vec<(String, Type)>,
    ret: Type,
    c_body: String,
    program: Program,
}

impl UserFun {
    /// Creates a user function from its C body.
    ///
    /// `c_body` is the body of the C function (including `return`); the
    /// signature is generated from `params`/`ret` when the kernel is
    /// printed. The body is parsed and typed here, once (see the module
    /// docs for the accepted subset).
    ///
    /// # Errors
    ///
    /// A [`UserFunError`] naming the function when the body does not
    /// parse, names something that is no parameter, local, constant array
    /// or builtin, does not type (including a parameter or return type
    /// that is not a scalar), returns another type than `ret`, or divides
    /// an `int` by anything but a non-zero literal.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        params: impl IntoIterator<Item = (S, Type)>,
        ret: Type,
        c_body: impl Into<String>,
    ) -> Result<Arc<UserFun>, UserFunError> {
        let name = name.into();
        let params: Vec<(String, Type)> = params.into_iter().map(|(n, t)| (n.into(), t)).collect();
        let c_body = c_body.into();
        let program = Body::parse(&c_body)
            .and_then(|body| Program::new(&params, &ret, &body))
            .map_err(|kind| UserFunError {
                fun: name.clone(),
                kind,
            })?;
        Ok(Arc::new(UserFun {
            name,
            params,
            ret,
            c_body,
            program,
        }))
    }

    /// The function name (also the C identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter names and types.
    pub fn params(&self) -> &[(String, Type)] {
        &self.params
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// The return type.
    pub fn ret(&self) -> &Type {
        &self.ret
    }

    /// The C body embedded into generated kernels.
    pub fn c_body(&self) -> &str {
        &self.c_body
    }

    /// The typed program the body compiles to, which every evaluator runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Renders the complete C function definition.
    pub fn c_definition(&self) -> String {
        let params: Vec<String> = (self.params.iter().zip(&self.program.params))
            .map(|((n, _), k)| format!("{} {n}", k.c_name()))
            .collect();
        format!(
            "{ret} {name}({params}) {{ {body} }}",
            ret = self.program.ret.c_name(),
            name = self.name,
            params = params.join(", "),
            body = self.c_body,
        )
    }

    /// Evaluates the body on one set of arguments.
    ///
    /// # Errors
    ///
    /// An [`IndexFault`] when the body indexes a constant array out of
    /// its range on a path these arguments take.
    ///
    /// # Panics
    ///
    /// Panics if the argument count or kinds differ from the declaration —
    /// applications are typechecked, so this indicates a compiler bug.
    #[inline]
    pub fn call(&self, args: &[Scalar]) -> Result<Scalar, IndexFault> {
        assert_eq!(
            args.len(),
            self.arity(),
            "user function `{}` called with wrong arity",
            self.name
        );
        // The registers sit on the stack unless the body is large.
        let p = &self.program;
        let out = match p.frame.len() {
            16 => p.run::<16>(args, &mut p.frame[..].try_into().expect("16 registers")),
            64 => p.run::<64>(args, &mut p.frame[..].try_into().expect("64 registers")),
            1024 => p.run(args, &mut boxed::<1024>(&p.frame)),
            _ => p.run(args, &mut boxed::<{ 1 << 16 }>(&p.frame)),
        };
        let bits = out.map_err(|(table, index)| {
            let (array, values) = &p.tables[usize::from(table)];
            IndexFault {
                fun: self.name.clone(),
                array: array.clone(),
                index,
                len: values.len(),
            }
        })?;
        Ok(match p.ret {
            ScalarKind::F32 => Scalar::F32(f32::from_bits(bits)),
            ScalarKind::I32 => Scalar::I32(bits as i32),
            ScalarKind::Bool => Scalar::Bool(bits != 0),
        })
    }
}

impl fmt::Debug for UserFun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserFun")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("ret", &self.ret)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for UserFun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl PartialEq for UserFun {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params && self.ret == other.ret
    }
}

/// Why [`UserFun::new`] refused a body.
#[derive(Debug, Clone, PartialEq)]
pub struct UserFunError {
    /// The user function's name.
    pub fun: String,
    /// What is wrong with its body.
    pub kind: BodyError,
}

/// What is wrong with a user function's body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyError {
    /// The text is not in the accepted C subset.
    Parse {
        /// Byte offset into the body where parsing stopped.
        offset: usize,
        /// What the parser expected there.
        message: String,
    },
    /// A name that is no parameter, local, constant array or builtin.
    UnknownName(String),
    /// The body returns another type than the function declares.
    ReturnType {
        /// The declared return type.
        declared: ScalarKind,
        /// The type of the returned expression.
        found: ScalarKind,
    },
    /// An integer `/` or `%` whose divisor is not a non-zero literal.
    Divisor,
    /// Any other type error, such as an operation mixing `int` and
    /// `float`.
    Type(String),
}

impl fmt::Display for UserFunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user function `{}`: ", self.fun)?;
        match &self.kind {
            BodyError::Parse { offset, message } => {
                write!(f, "body does not parse at byte {offset}: {message}")
            }
            BodyError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            BodyError::ReturnType { declared, found } => write!(
                f,
                "body returns {}, declared {}",
                found.c_name(),
                declared.c_name()
            ),
            BodyError::Divisor => {
                write!(f, "an integer `/` or `%` must divide by a non-zero literal")
            }
            BodyError::Type(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for UserFunError {}

/// A constant-array index out of range: the one fault a body can raise.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexFault {
    /// The user function's name.
    pub fun: String,
    /// The constant array's name.
    pub array: String,
    /// The offending index.
    pub index: i32,
    /// The array's length.
    pub len: usize,
}

impl fmt::Display for IndexFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "user function `{}` indexed `{}` at {}, length {}",
            self.fun, self.array, self.index, self.len
        )
    }
}

impl std::error::Error for IndexFault {}

// ---------------------------------------------------------------------------
// The parsed body
// ---------------------------------------------------------------------------

/// A user function's body as parsed from its C text, before typing.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    /// The statements in order; a body ends with its one `return`.
    pub stmts: Vec<Stmt>,
}

/// One statement of a [`Body`].
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `float name = value;` or `int name = value;`
    Let {
        /// The local's name.
        name: String,
        /// Its declared type: [`ScalarKind::F32`] or [`ScalarKind::I32`].
        ty: ScalarKind,
        /// Its initialiser.
        value: BodyExpr,
    },
    /// `const float name[N] = {values…};`
    Table {
        /// The array's name.
        name: String,
        /// Its elements.
        values: Vec<f32>,
    },
    /// `return e;`
    Return(BodyExpr),
}

/// A binary operator of a [`BodyExpr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// A comparison.
    Cmp(Cmp),
}

/// An expression of a [`Body`].
#[derive(Debug, Clone, PartialEq)]
pub enum BodyExpr {
    /// A float literal (`0.2f`).
    Float(f32),
    /// An int literal.
    Int(i32),
    /// A parameter or local.
    Var(String),
    /// `-e`
    Neg(Box<BodyExpr>),
    /// `a op b`
    Bin(BodyOp, Box<BodyExpr>, Box<BodyExpr>),
    /// `cond ? then : else`
    Select(Box<BodyExpr>, Box<BodyExpr>, Box<BodyExpr>),
    /// `(float)e` or `(int)e`
    Cast(ScalarKind, Box<BodyExpr>),
    /// `array[index]`
    Index(String, Box<BodyExpr>),
    /// `builtin(args…)`
    Call(String, Vec<BodyExpr>),
}

impl Body {
    /// Parses a body's C text.
    ///
    /// # Errors
    ///
    /// [`BodyError::Parse`] at the first byte outside the accepted subset
    /// (see the module docs).
    pub fn parse(text: &str) -> Result<Body, BodyError> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        let mut stmts = Vec::new();
        while !p.at_end() {
            stmts.push(p.stmt()?);
        }
        Ok(Body { stmts })
    }
}

/// A recursive-descent parser over a body's bytes.
struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.s.len()
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, BodyError> {
        Err(BodyError::Parse {
            offset: self.pos,
            message: message.into(),
        })
    }

    /// Consumes punctuation `tok` if it comes next.
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        let hit = self.s[self.pos..].starts_with(tok.as_bytes());
        if hit {
            self.pos += tok.len();
        }
        hit
    }

    fn expect(&mut self, tok: &str) -> Result<(), BodyError> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.error(format!("expected `{tok}`"))
        }
    }

    /// The identifier or keyword that comes next, without consuming it.
    fn peek_word(&mut self) -> &str {
        self.skip_ws();
        let len = (self.s[self.pos..].iter())
            .take_while(|c| c.is_ascii_alphanumeric() || **c == b'_')
            .count();
        match self.s.get(self.pos) {
            Some(c) if c.is_ascii_alphabetic() || *c == b'_' => {
                std::str::from_utf8(&self.s[self.pos..self.pos + len]).unwrap_or("")
            }
            _ => "",
        }
    }

    /// Consumes keyword `kw` if it comes next as a whole word.
    fn keyword(&mut self, kw: &str) -> bool {
        let hit = self.peek_word() == kw;
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    fn ident(&mut self) -> Result<String, BodyError> {
        let w = self.peek_word().to_string();
        if w.is_empty() {
            return self.error("expected a name");
        }
        self.pos += w.len();
        Ok(w)
    }

    /// `float` or `int`, if it comes next.
    fn scalar_type(&mut self) -> Option<ScalarKind> {
        if self.keyword("float") {
            Some(ScalarKind::F32)
        } else if self.keyword("int") {
            Some(ScalarKind::I32)
        } else {
            None
        }
    }

    fn stmt(&mut self) -> Result<Stmt, BodyError> {
        let stmt = if self.keyword("return") {
            Stmt::Return(self.expr()?)
        } else if self.keyword("const") {
            if !self.keyword("float") {
                return self.error("expected `float`: constant arrays hold floats");
            }
            let name = self.ident()?;
            self.expect("[")?;
            let len = match self.number(false)? {
                BodyExpr::Int(n) if n > 0 => n as usize,
                _ => return self.error("expected the array's length"),
            };
            self.expect("]")?;
            self.expect("=")?;
            self.expect("{")?;
            let mut values = Vec::with_capacity(len);
            loop {
                let neg = self.eat("-");
                match self.number(neg)? {
                    BodyExpr::Float(v) => values.push(v),
                    _ => return self.error("expected a float literal"),
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}")?;
            if values.len() != len {
                return self.error(format!(
                    "`{name}` declares {len} elements but lists {}",
                    values.len()
                ));
            }
            Stmt::Table { name, values }
        } else if let Some(ty) = self.scalar_type() {
            let name = self.ident()?;
            self.expect("=")?;
            Stmt::Let {
                name,
                ty,
                value: self.expr()?,
            }
        } else {
            return self.error("expected `float`, `int`, `const` or `return`");
        };
        self.expect(";")?;
        Ok(stmt)
    }

    fn expr(&mut self) -> Result<BodyExpr, BodyError> {
        let cond = self.binary(0)?;
        if !self.eat("?") {
            return Ok(cond);
        }
        let then = self.expr()?;
        self.expect(":")?;
        let els = self.expr()?;
        Ok(BodyExpr::Select(
            Box::new(cond),
            Box::new(then),
            Box::new(els),
        ))
    }

    /// The binary operator that comes next at precedence `level` (0:
    /// equality, 1: relational, 2: additive, 3: multiplicative), consumed.
    fn operator(&mut self, level: usize) -> Option<BodyOp> {
        const LEVELS: [&[(&str, BodyOp)]; 4] = [
            &[("==", BodyOp::Cmp(Cmp::Eq)), ("!=", BodyOp::Cmp(Cmp::Ne))],
            &[
                ("<=", BodyOp::Cmp(Cmp::Le)),
                (">=", BodyOp::Cmp(Cmp::Ge)),
                ("<", BodyOp::Cmp(Cmp::Lt)),
                (">", BodyOp::Cmp(Cmp::Gt)),
            ],
            &[("+", BodyOp::Add), ("-", BodyOp::Sub)],
            &[("*", BodyOp::Mul), ("/", BodyOp::Div), ("%", BodyOp::Rem)],
        ];
        LEVELS[level]
            .iter()
            .find(|(tok, _)| self.eat(tok))
            .map(|&(_, op)| op)
    }

    /// A left-associative chain of operators at precedence `level` and
    /// above.
    fn binary(&mut self, level: usize) -> Result<BodyExpr, BodyError> {
        if level == 4 {
            return self.unary();
        }
        let mut lhs = self.binary(level + 1)?;
        while let Some(op) = self.operator(level) {
            let rhs = self.binary(level + 1)?;
            lhs = BodyExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<BodyExpr, BodyError> {
        if self.eat("-") {
            self.skip_ws();
            // A negated literal is a literal, so `-2147483648` fits.
            if self.s.get(self.pos).is_some_and(u8::is_ascii_digit) {
                return self.number(true);
            }
            return Ok(BodyExpr::Neg(Box::new(self.unary()?)));
        }
        if self.eat("(") {
            let start = self.pos;
            if let Some(ty) = self.scalar_type() {
                self.expect(")")?;
                return Ok(BodyExpr::Cast(ty, Box::new(self.unary()?)));
            }
            self.pos = start;
            let e = self.expr()?;
            self.expect(")")?;
            return Ok(e);
        }
        self.skip_ws();
        if self.s.get(self.pos).is_some_and(u8::is_ascii_digit) {
            return self.number(false);
        }
        let name = self.ident()?;
        if self.eat("(") {
            let mut args = Vec::new();
            if !self.eat(")") {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect(")")?;
            }
            return Ok(BodyExpr::Call(name, args));
        }
        if self.eat("[") {
            let idx = self.expr()?;
            self.expect("]")?;
            return Ok(BodyExpr::Index(name, Box::new(idx)));
        }
        Ok(BodyExpr::Var(name))
    }

    /// An int literal, or a float literal with an `f` suffix; negated when
    /// `neg`.
    fn number(&mut self, neg: bool) -> Result<BodyExpr, BodyError> {
        self.skip_ws();
        let start = self.pos;
        let digits = |p: &mut Self| {
            while p.s.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
        };
        digits(self);
        let mut float = false;
        if self.s.get(self.pos) == Some(&b'.') {
            float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.s.get(self.pos), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.s.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).unwrap_or("");
        let suffixed = matches!(self.s.get(self.pos), Some(b'f' | b'F'));
        if float != suffixed || text.is_empty() {
            return self.error("expected an int literal or a float literal with an `f` suffix");
        }
        if float {
            self.pos += 1;
            let v: f32 = text.parse().or_else(|_| self.error("bad float literal"))?;
            return Ok(BodyExpr::Float(if neg { -v } else { v }));
        }
        let v: i64 = text.parse().or_else(|_| self.error("bad int literal"))?;
        let v = if neg { -v } else { v };
        match i32::try_from(v) {
            Ok(v) => Ok(BodyExpr::Int(v)),
            Err(_) => self.error("int literal out of range"),
        }
    }
}

// ---------------------------------------------------------------------------
// The typed program
// ---------------------------------------------------------------------------

/// What a register of a [`Program`] holds. Registers are numbered
/// arguments first, then the body's literals, then one per node in
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reg {
    /// Argument `k`.
    Arg(u8),
    /// A literal, as the bits of its `f32` or `i32`.
    Lit(u32),
    /// The value of node `j`.
    Node(u16),
}

/// A float operation of two floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `fmax(a, b)`
    Max,
}

impl FloatOp {
    /// The operation on one pair of values.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            FloatOp::Add => a + b,
            FloatOp::Sub => a - b,
            FloatOp::Mul => a * b,
            FloatOp::Div => a / b,
            // C's `fmax`: the other operand when one is NaN. Spelled out so
            // that every evaluator returns the first of two equal zeros.
            FloatOp::Max => {
                if a < b || a.is_nan() {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// A float function of one float.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatFn {
    /// `-a`
    Neg,
    /// `sqrt(a)`
    Sqrt,
    /// `exp(a)`
    Exp,
}

impl FloatFn {
    /// The function of one value.
    #[inline]
    pub fn apply(self, a: f32) -> f32 {
        match self {
            FloatFn::Neg => -a,
            FloatFn::Sqrt => a.sqrt(),
            FloatFn::Exp => a.exp(),
        }
    }
}

/// An `int` operation of two ints, wrapping in `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

impl IntOp {
    /// The operation on one pair of values.
    #[inline]
    pub fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            IntOp::Add => a.wrapping_add(b),
            IntOp::Sub => a.wrapping_sub(b),
            IntOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// An `int` function of one int, wrapping in `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntFn {
    /// `-a`
    Neg,
    /// `abs(a)`
    Abs,
    /// `a / d` for a non-zero literal `d`, truncating toward zero.
    Div(NonZeroI32),
    /// `a % d` for a non-zero literal `d`, with the sign of `a`.
    Rem(NonZeroI32),
}

impl IntFn {
    /// The function of one value.
    #[inline]
    pub fn apply(self, a: i32) -> i32 {
        match self {
            IntFn::Neg => a.wrapping_neg(),
            IntFn::Abs => a.wrapping_abs(),
            IntFn::Div(d) => a.wrapping_div(d.get()),
            IntFn::Rem(d) => a.wrapping_rem(d.get()),
        }
    }
}

/// A comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    /// The comparison of one pair of values.
    #[inline]
    pub fn apply<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
        }
    }
}

/// One step of a [`Program`]: a typed value computed from its operand
/// registers.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A float of two floats.
    Float(FloatOp, u16, u16),
    /// A float of one float.
    FloatFn(FloatFn, u16),
    /// An int of two ints.
    Int(IntOp, u16, u16),
    /// An int of one int.
    IntFn(IntFn, u16),
    /// A `bool` comparing two floats.
    FloatCmp(Cmp, u16, u16),
    /// A `bool` comparing two ints.
    IntCmp(Cmp, u16, u16),
    /// `(float)` of an int.
    IntToFloat(u16),
    /// `(int)` of a float: truncation toward zero, saturating, and 0 for
    /// NaN.
    FloatToInt(u16),
    /// C's promotion of a comparison to the `int` 0 or 1.
    BoolToInt(u16),
    /// `cond ? then : els`, of the type both arms have.
    Select {
        /// The type of both arms and the result.
        kind: ScalarKind,
        /// A `bool`.
        cond: u16,
        /// The value where `cond` holds.
        then: u16,
        /// The value where it does not.
        els: u16,
    },
    /// `table[idx]` of a constant array: out of range, a fault where every
    /// `guard` condition has its polarity (the call takes the `?:` arms
    /// the index sits in) and 0 elsewhere.
    Index {
        /// Which constant array ([`Program::table`]).
        table: u16,
        /// An int.
        idx: u16,
        /// The registers of the enclosing `?:` conditions and the arm the
        /// index sits in, outermost first.
        guard: Vec<(u16, bool)>,
    },
}

/// A body typed and flattened into a register program: what every
/// evaluator runs. Node `j` writes register `args + literals + j` and
/// reads only registers before it, each of the type the node expects.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    params: Vec<ScalarKind>,
    ret: ScalarKind,
    /// The bits of each literal register.
    literals: Vec<u32>,
    nodes: Vec<Node>,
    result: u16,
    tables: Vec<(String, Vec<f32>)>,
    /// A call's registers before it runs: the literals in place, and as
    /// many as the smallest size [`UserFun::call`] has that holds them
    /// all.
    frame: Vec<u32>,
}

impl Program {
    /// Types `body` against its declared parameters and return type.
    ///
    /// # Errors
    ///
    /// The first [`BodyError`] other than `Parse` that the body has.
    pub fn new(params: &[(String, Type)], ret: &Type, body: &Body) -> Result<Program, BodyError> {
        let scalar = |t: &Type, what: &str| {
            t.as_scalar()
                .ok_or_else(|| BodyError::Type(format!("{what} is {t}, not a scalar")))
        };
        let ret = scalar(ret, "the return type")?;
        if params.len() > usize::from(u8::MAX) {
            return Err(BodyError::Type("more than 255 parameters".into()));
        }
        let mut t = Typer::default();
        for s in &body.stmts {
            match s {
                Stmt::Let { value: e, .. } | Stmt::Return(e) => literals(e, &mut t.literals),
                Stmt::Table { .. } => {}
            }
        }
        t.first_node = params.len() + t.literals.len();
        let mut kinds = Vec::with_capacity(params.len());
        for (k, (name, ty)) in params.iter().enumerate() {
            let kind = scalar(ty, &format!("parameter `{name}`"))?;
            t.bind(name, Bound::Val(k as u16, kind))?;
            kinds.push(kind);
        }
        let (last, lets) = body
            .stmts
            .split_last()
            .ok_or_else(|| BodyError::Type("the body has no `return`".into()))?;
        for s in lets {
            match s {
                Stmt::Let { name, ty, value } => {
                    let v = t.expr(value)?;
                    let v = t.coerce(v, *ty).ok_or_else(|| {
                        BodyError::Type(format!(
                            "`{name}` is declared {} but initialised with {}",
                            ty.c_name(),
                            v.1.c_name()
                        ))
                    })?;
                    t.bind(name, Bound::Val(v.0, *ty))?;
                }
                Stmt::Table { name, values } => {
                    let i = t.tables.len() as u16;
                    t.tables.push((name.clone(), values.clone()));
                    t.bind(name, Bound::Table(i))?;
                }
                Stmt::Return(_) => return Err(BodyError::Type("statements after `return`".into())),
            }
        }
        let Stmt::Return(e) = last else {
            return Err(BodyError::Type("the body has no `return`".into()));
        };
        let v = t.expr(e)?;
        let (result, _) = t.coerce(v, ret).ok_or(BodyError::ReturnType {
            declared: ret,
            found: v.1,
        })?;
        let regs = t.first_node + t.nodes.len();
        let size = [16, 64, 1024, 1 << 16].into_iter().find(|&n| regs <= n);
        let mut frame = vec![0; size.expect("registers are numbered in u16")];
        frame[params.len()..t.first_node].copy_from_slice(&t.literals);
        Ok(Program {
            params: kinds,
            ret,
            literals: t.literals,
            nodes: t.nodes,
            result,
            tables: t.tables,
            frame,
        })
    }

    /// The parameter types.
    pub fn params(&self) -> &[ScalarKind] {
        &self.params
    }

    /// The return type.
    pub fn ret(&self) -> ScalarKind {
        self.ret
    }

    /// The nodes, in evaluation order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The register holding the returned value.
    pub fn result(&self) -> u16 {
        self.result
    }

    /// What register `r` holds.
    pub fn reg(&self, r: u16) -> Reg {
        let (r, args) = (usize::from(r), self.params.len());
        match r.checked_sub(args + self.literals.len()) {
            Some(j) => Reg::Node(j as u16),
            None if r < args => Reg::Arg(r as u8),
            None => Reg::Lit(self.literals[r - args]),
        }
    }

    /// The elements of constant array `t`.
    pub fn table(&self, t: u16) -> &[f32] {
        &self.tables[usize::from(t)].1
    }

    /// Runs every node on `args` in `regs`, a copy of [`Self::frame`]:
    /// returns the result's bits, or the table and index of the first
    /// fault. Panics on an argument of another kind than declared.
    /// Register numbers are taken modulo `N`, a power of two, which spares
    /// every access its bounds check.
    fn run<const N: usize>(&self, args: &[Scalar], regs: &mut [u32; N]) -> Result<u32, (u16, i32)> {
        for ((r, a), k) in regs.iter_mut().zip(args).zip(&self.params) {
            *r = match (*a, *k) {
                (Scalar::F32(x), ScalarKind::F32) => x.to_bits(),
                (Scalar::I32(x), ScalarKind::I32) => x as u32,
                (Scalar::Bool(b), ScalarKind::Bool) => u32::from(b),
                _ => panic!("a {} argument for a {k} parameter", a.kind()),
            };
        }
        let first = self.params.len() + self.literals.len();
        for (j, node) in self.nodes.iter().enumerate() {
            let v = {
                let get = |r: u16| regs[usize::from(r) % N];
                let f = |r: u16| f32::from_bits(get(r));
                let i = |r: u16| get(r) as i32;
                match *node {
                    Node::Float(op, a, b) => op.apply(f(a), f(b)).to_bits(),
                    Node::FloatFn(op, a) => op.apply(f(a)).to_bits(),
                    Node::Int(op, a, b) => op.apply(i(a), i(b)) as u32,
                    Node::IntFn(op, a) => op.apply(i(a)) as u32,
                    Node::FloatCmp(op, a, b) => u32::from(op.apply(f(a), f(b))),
                    Node::IntCmp(op, a, b) => u32::from(op.apply(i(a), i(b))),
                    Node::IntToFloat(a) => (i(a) as f32).to_bits(),
                    Node::FloatToInt(a) => f(a) as i32 as u32,
                    Node::BoolToInt(a) => get(a),
                    Node::Select {
                        cond, then, els, ..
                    } => get(if get(cond) != 0 { then } else { els }),
                    Node::Index {
                        table,
                        idx,
                        ref guard,
                    } => {
                        let t = self.table(table);
                        match usize::try_from(i(idx)).ok().and_then(|x| t.get(x)) {
                            Some(v) => v.to_bits(),
                            None if guard.iter().all(|&(c, on)| (get(c) != 0) == on) => {
                                return Err((table, i(idx)))
                            }
                            None => 0,
                        }
                    }
                }
            };
            regs[(first + j) % N] = v;
        }
        Ok(regs[usize::from(self.result) % N])
    }
}

/// A copy of `frame`, `N` registers, on the heap, for a large body.
fn boxed<const N: usize>(frame: &[u32]) -> Box<[u32; N]> {
    let regs: Box<[u32]> = frame.into();
    regs.try_into().expect("a frame of N registers")
}

/// Collects the distinct literals of `e` (as bits), in order.
fn literals(e: &BodyExpr, out: &mut Vec<u32>) {
    let mut add = |bits: u32| {
        if !out.contains(&bits) {
            out.push(bits);
        }
    };
    match e {
        BodyExpr::Float(c) => add(c.to_bits()),
        BodyExpr::Int(c) => add(*c as u32),
        BodyExpr::Var(_) => {}
        BodyExpr::Neg(a) | BodyExpr::Cast(_, a) | BodyExpr::Index(_, a) => literals(a, out),
        BodyExpr::Bin(_, a, b) => {
            literals(a, out);
            literals(b, out);
        }
        BodyExpr::Select(c, t, e) => {
            for x in [c, t, e] {
                literals(x, out);
            }
        }
        BodyExpr::Call(_, args) => args.iter().for_each(|a| literals(a, out)),
    }
}

/// What a name in scope stands for while typing.
#[derive(Clone, Copy)]
enum Bound {
    Val(u16, ScalarKind),
    Table(u16),
}

/// Types a body into nodes.
#[derive(Default)]
struct Typer {
    /// The body's literals, as bits, in register order.
    literals: Vec<u32>,
    /// The register of the first node.
    first_node: usize,
    nodes: Vec<Node>,
    tables: Vec<(String, Vec<f32>)>,
    scope: HashMap<String, Bound>,
    /// The `?:` arms the expression being typed sits in.
    guard: Vec<(u16, bool)>,
}

/// A typed operand register.
type Typed = (u16, ScalarKind);

impl Typer {
    fn bind(&mut self, name: &str, b: Bound) -> Result<(), BodyError> {
        if self.scope.insert(name.to_string(), b).is_some() {
            return Err(BodyError::Type(format!("`{name}` is declared twice")));
        }
        Ok(())
    }

    /// Appends `node`; returns its register.
    fn push(&mut self, node: Node) -> Result<u16, BodyError> {
        let r = u16::try_from(self.first_node + self.nodes.len())
            .map_err(|_| BodyError::Type("the body has too many operations".into()))?;
        self.nodes.push(node);
        Ok(r)
    }

    /// The register of the literal with these bits.
    fn literal(&self, bits: u32) -> u16 {
        let at = self.literals.iter().position(|&l| l == bits);
        (self.first_node - self.literals.len() + at.expect("collected up front")) as u16
    }

    /// `v` as an int: a `bool` promotes to 0 or 1.
    fn promote(&mut self, v: Typed) -> Result<Typed, BodyError> {
        match v.1 {
            ScalarKind::Bool => Ok((self.push(Node::BoolToInt(v.0))?, ScalarKind::I32)),
            _ => Ok(v),
        }
    }

    /// `v` as a value of type `want`, if it is one or a `bool` promoting
    /// to an `int`.
    fn coerce(&mut self, v: Typed, want: ScalarKind) -> Option<Typed> {
        match (v.1, want) {
            (have, want) if have == want => Some(v),
            (ScalarKind::Bool, ScalarKind::I32) => self.promote(v).ok(),
            _ => None,
        }
    }

    fn expect(&mut self, e: &BodyExpr, want: ScalarKind, what: &str) -> Result<u16, BodyError> {
        let v = self.expr(e)?;
        match self.coerce(v, want) {
            Some((s, _)) => Ok(s),
            None => Err(BodyError::Type(format!(
                "{what} takes {}, found {}",
                want.c_name(),
                v.1.c_name()
            ))),
        }
    }

    fn expr(&mut self, e: &BodyExpr) -> Result<Typed, BodyError> {
        use ScalarKind::{Bool, F32, I32};
        Ok(match e {
            BodyExpr::Float(c) => (self.literal(c.to_bits()), F32),
            BodyExpr::Int(c) => (self.literal(*c as u32), I32),
            BodyExpr::Var(n) => match self.scope.get(n) {
                Some(Bound::Val(s, k)) => (*s, *k),
                Some(Bound::Table(_)) => {
                    return Err(BodyError::Type(format!("array `{n}` used as a value")))
                }
                None => return Err(BodyError::UnknownName(n.clone())),
            },
            BodyExpr::Neg(a) => {
                let a = self.expr(a)?;
                let node = match self.promote(a)? {
                    (s, F32) => Node::FloatFn(FloatFn::Neg, s),
                    (s, _) => Node::IntFn(IntFn::Neg, s),
                };
                (self.push(node)?, if a.1 == F32 { F32 } else { I32 })
            }
            BodyExpr::Bin(op, a, divisor) => {
                let a = self.expr(a)?;
                let b = self.expr(divisor)?;
                let (a, b) = (self.promote(a)?, self.promote(b)?);
                let node = match (*op, a.1, b.1) {
                    (BodyOp::Cmp(c), F32, F32) => Node::FloatCmp(c, a.0, b.0),
                    (BodyOp::Cmp(c), I32, I32) => Node::IntCmp(c, a.0, b.0),
                    (BodyOp::Rem, F32, F32) => return Err(BodyError::Type("`%` of floats".into())),
                    (op, F32, F32) => Node::Float(float_op(op), a.0, b.0),
                    (BodyOp::Div | BodyOp::Rem, I32, I32) => {
                        let d = match **divisor {
                            BodyExpr::Int(d) => NonZeroI32::new(d).ok_or(BodyError::Divisor)?,
                            _ => return Err(BodyError::Divisor),
                        };
                        let f = if *op == BodyOp::Div {
                            IntFn::Div(d)
                        } else {
                            IntFn::Rem(d)
                        };
                        Node::IntFn(f, a.0)
                    }
                    (op, I32, I32) => Node::Int(int_op(op), a.0, b.0),
                    (_, x, y) => {
                        return Err(BodyError::Type(format!(
                            "an operation on {} and {}: cast explicitly",
                            x.c_name(),
                            y.c_name()
                        )))
                    }
                };
                let kind = if matches!(op, BodyOp::Cmp(_)) {
                    Bool
                } else {
                    a.1
                };
                (self.push(node)?, kind)
            }
            BodyExpr::Select(c, t, e) => {
                let cond = self.expect(c, Bool, "a `?:` condition")?;
                self.guard.push((cond, true));
                let then = self.expr(t);
                self.guard.last_mut().expect("pushed above").1 = false;
                let els = self.expr(e);
                self.guard.pop();
                let (mut then, mut els) = (then?, els?);
                if then.1 != els.1 {
                    (then, els) = (self.promote(then)?, self.promote(els)?);
                }
                if then.1 != els.1 {
                    return Err(BodyError::Type(format!(
                        "`?:` arms of types {} and {}",
                        then.1.c_name(),
                        els.1.c_name()
                    )));
                }
                let kind = then.1;
                let node = Node::Select {
                    kind,
                    cond,
                    then: then.0,
                    els: els.0,
                };
                (self.push(node)?, kind)
            }
            BodyExpr::Cast(to, a) => {
                let a = self.expr(a)?;
                let a = if a.1 == Bool { self.promote(a)? } else { a };
                match (a.1, *to) {
                    (I32, F32) => (self.push(Node::IntToFloat(a.0))?, F32),
                    (F32, I32) => (self.push(Node::FloatToInt(a.0))?, I32),
                    _ => a,
                }
            }
            BodyExpr::Index(n, idx) => {
                let table = match self.scope.get(n) {
                    Some(Bound::Table(t)) => *t,
                    Some(_) => return Err(BodyError::Type(format!("`{n}` is not an array"))),
                    None => return Err(BodyError::UnknownName(n.clone())),
                };
                let idx = self.expect(idx, I32, "an array index")?;
                let guard = self.guard.clone();
                (self.push(Node::Index { table, idx, guard })?, F32)
            }
            BodyExpr::Call(name, args) => {
                let arity = |want: usize| {
                    if args.len() == want {
                        Ok(())
                    } else {
                        Err(BodyError::Type(format!(
                            "`{name}` takes {want} arguments, called with {}",
                            args.len()
                        )))
                    }
                };
                let what = format!("`{name}`");
                let node = match name.as_str() {
                    "sqrt" | "exp" => {
                        arity(1)?;
                        let a = self.expect(&args[0], F32, &what)?;
                        let f = if name == "sqrt" {
                            FloatFn::Sqrt
                        } else {
                            FloatFn::Exp
                        };
                        Node::FloatFn(f, a)
                    }
                    "fmax" => {
                        arity(2)?;
                        let a = self.expect(&args[0], F32, &what)?;
                        let b = self.expect(&args[1], F32, &what)?;
                        Node::Float(FloatOp::Max, a, b)
                    }
                    "abs" => {
                        arity(1)?;
                        Node::IntFn(IntFn::Abs, self.expect(&args[0], I32, &what)?)
                    }
                    _ => return Err(BodyError::UnknownName(name.clone())),
                };
                let kind = if name == "abs" { I32 } else { F32 };
                (self.push(node)?, kind)
            }
        })
    }
}

/// The float operation of arithmetic operator `op`.
fn float_op(op: BodyOp) -> FloatOp {
    match op {
        BodyOp::Add => FloatOp::Add,
        BodyOp::Sub => FloatOp::Sub,
        BodyOp::Mul => FloatOp::Mul,
        _ => FloatOp::Div,
    }
}

/// The int operation of `+`, `-` or `*`.
fn int_op(op: BodyOp) -> IntOp {
    match op {
        BodyOp::Add => IntOp::Add,
        BodyOp::Sub => IntOp::Sub,
        _ => IntOp::Mul,
    }
}

/// A library user function, parsed on its first use and shared by the
/// whole process from then on, so that building a benchmark program never
/// parses a body again.
///
/// # Panics
///
/// Panics if the body does not compile: library bodies are fixed text,
/// and their tests compile every one.
pub fn library(
    cell: &'static OnceLock<Arc<UserFun>>,
    name: &str,
    params: &[(&str, Type)],
    ret: Type,
    c_body: &str,
) -> Arc<UserFun> {
    let make = || {
        let params = params.iter().map(|(n, t)| (*n, t.clone()));
        UserFun::new(name, params, ret, c_body).unwrap_or_else(|e| panic!("{e}"))
    };
    cell.get_or_init(make).clone()
}

/// `float add(float a, float b) { return a + b; }`
pub fn add_f32() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    let p = [("a", Type::f32()), ("b", Type::f32())];
    library(&F, "add", &p, Type::f32(), "return a + b;")
}

/// `float mult(float a, float b) { return a * b; }`
pub fn mul_f32() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    let p = [("a", Type::f32()), ("b", Type::f32())];
    library(&F, "mult", &p, Type::f32(), "return a * b;")
}

/// `float maxf(float a, float b) { return fmax(a, b); }`
pub fn max_f32() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    let p = [("a", Type::f32()), ("b", Type::f32())];
    library(&F, "maxf", &p, Type::f32(), "return fmax(a, b);")
}

/// `float id(float x) { return x; }` — the identity used by copy patterns
/// such as `toLocal(map(id))` (§4.2 of the paper).
pub fn id_f32() -> Arc<UserFun> {
    static F: OnceLock<Arc<UserFun>> = OnceLock::new();
    library(&F, "id", &[("x", Type::f32())], Type::f32(), "return x;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s(v: &[f32]) -> Vec<Scalar> {
        v.iter().map(|x| Scalar::F32(*x)).collect()
    }

    fn new(params: &[(&str, Type)], ret: Type, body: &str) -> Result<Arc<UserFun>, BodyError> {
        let params = params.iter().map(|(n, t)| (*n, t.clone()));
        UserFun::new("f", params, ret, body).map_err(|e| e.kind)
    }

    #[test]
    fn builtin_semantics() {
        let call = |f: Arc<UserFun>, a: &[f32]| f.call(&f32s(a)).expect("no fault");
        assert_eq!(call(add_f32(), &[1.0, 2.5]), Scalar::F32(3.5));
        assert_eq!(call(mul_f32(), &[2.0, 4.0]), Scalar::F32(8.0));
        assert_eq!(call(max_f32(), &[2.0, 4.0]), Scalar::F32(4.0));
        assert_eq!(call(max_f32(), &[f32::NAN, 4.0]), Scalar::F32(4.0));
        assert_eq!(call(id_f32(), &[9.0]), Scalar::F32(9.0));
    }

    #[test]
    fn c_definition_renders() {
        let def = add_f32().c_definition();
        assert_eq!(def, "float add(float a, float b) { return a + b; }");
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn wrong_arity_panics() {
        let _ = add_f32().call(&[Scalar::F32(1.0)]);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(*add_f32(), *add_f32());
        assert_ne!(*add_f32(), *mul_f32());
    }

    #[test]
    fn library_functions_are_built_once() {
        assert!(Arc::ptr_eq(&add_f32(), &add_f32()));
    }

    /// Precedence, associativity, `?:` nesting, promotion, casts and
    /// `i32` wrapping, each against the value C gives.
    #[test]
    fn bodies_follow_c() {
        let ints = [("i", Type::i32()), ("j", Type::i32())];
        let int = |body: &str, i: i32, j: i32| {
            let f = new(&ints, Type::i32(), body).expect(body);
            f.call(&[Scalar::I32(i), Scalar::I32(j)]).expect(body)
        };
        assert_eq!(int("return i - j - 1;", 10, 3), Scalar::I32(6));
        assert_eq!(int("return i + j * 2 % 3;", 1, 4), Scalar::I32(3));
        assert_eq!(
            int("return (i > 0) + (j > 0) + (i == j);", 1, -1),
            Scalar::I32(1)
        );
        assert_eq!(int("return -7 / 2 + -7 % 2 * 10;", 0, 0), Scalar::I32(-13));
        assert_eq!(int("return i + j;", i32::MAX, 1), Scalar::I32(i32::MIN));
        assert_eq!(
            int("return abs(i) / -1;", i32::MIN, 0),
            Scalar::I32(i32::MIN)
        );
        assert_eq!(
            int("return i < 0 ? -1 : i > 0 ? 1 : 0;", -5, 0),
            Scalar::I32(-1)
        );
        assert_eq!(int("int k = i * 3; return k - j;", 2, 1), Scalar::I32(5));
        let x = [("x", Type::f32()), ("n", Type::i32())];
        let f = new(&x, Type::f32(), "return (float)n * x - (float)(int)x;").expect("casts");
        let v = f
            .call(&[Scalar::F32(2.75), Scalar::I32(3)])
            .expect("no fault");
        assert_eq!(v, Scalar::F32(6.25));
        let f = new(&x, Type::f32(), "return sqrt(x) + exp(0.0f) + fmax(x, -x);").expect("calls");
        let v = f
            .call(&[Scalar::F32(4.0), Scalar::I32(0)])
            .expect("no fault");
        assert_eq!(v, Scalar::F32(7.0));
    }

    /// A constant-array index out of range faults only on the `?:` arm a
    /// call takes.
    #[test]
    fn table_indices_fault_only_where_taken() {
        let f = new(
            &[("i", Type::i32())],
            Type::f32(),
            "const float b[2] = {0.5f, -1.0f}; return i < 2 ? b[i] : 2.0f * b[1];",
        )
        .expect("parses");
        assert_eq!(f.call(&[Scalar::I32(1)]), Ok(Scalar::F32(-1.0)));
        assert_eq!(f.call(&[Scalar::I32(7)]), Ok(Scalar::F32(-2.0)));
        let fault = f
            .call(&[Scalar::I32(-1)])
            .expect_err("taken and out of range");
        assert_eq!((fault.array.as_str(), fault.index, fault.len), ("b", -1, 2));
        assert_eq!(
            fault.to_string(),
            "user function `f` indexed `b` at -1, length 2"
        );
    }

    #[test]
    fn bad_bodies_are_typed_errors() {
        let x = [("x", Type::f32()), ("n", Type::i32())];
        let err = |ret: Type, body: &str| new(&x, ret, body).expect_err(body);
        assert!(matches!(
            err(Type::f32(), "return x +;"),
            BodyError::Parse { .. }
        ));
        assert!(matches!(
            err(Type::f32(), "return 0.5 * x;"),
            BodyError::Parse { .. }
        ));
        assert!(matches!(
            err(Type::f32(), "return x"),
            BodyError::Parse { .. }
        ));
        assert_eq!(
            err(Type::f32(), "return y;"),
            BodyError::UnknownName("y".into())
        );
        assert_eq!(
            err(Type::f32(), "return log(x);"),
            BodyError::UnknownName("log".into())
        );
        assert_eq!(
            err(Type::f32(), "return n;"),
            BodyError::ReturnType {
                declared: ScalarKind::F32,
                found: ScalarKind::I32
            }
        );
        assert_eq!(err(Type::i32(), "return n / (n + 1);"), BodyError::Divisor);
        assert_eq!(err(Type::i32(), "return n % 0;"), BodyError::Divisor);
        for body in [
            "return x * n;",
            "return x % 2.0f;",
            "float y = n; return y;",
            "return n < 1 ? x : n;",
            "return x; return x;",
            "float x = 1.0f; return x;",
            "const float b[1] = {1.0f}; return b;",
        ] {
            assert!(
                matches!(err(Type::f32(), body), BodyError::Type(_)),
                "{body}"
            );
        }
        assert!(matches!(
            new(
                &[("a", Type::array(Type::f32(), 2))],
                Type::f32(),
                "return 1.0f;"
            ),
            Err(BodyError::Type(_))
        ));
        let e = UserFun::new("g", x.iter().cloned(), Type::f32(), "return n;").expect_err("int");
        assert_eq!(
            e.to_string(),
            "user function `g`: body returns int, declared float"
        );
    }
}
