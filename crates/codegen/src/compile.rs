//! Compilation of low-level Lift expressions into OpenCL kernels.
//!
//! The compiler walks a lowered expression twice-over in one pass:
//!
//! * *producer* positions (`compile_out`) — `map*`/`join`/`transpose`/… —
//!   emit loops and stores through an output [`View`];
//! * *source* positions (`compile_val`) — `pad`/`slide`/`zip`/… and
//!   layout-only `map`s — build input [`View`]s without emitting code,
//!   exactly as §5 describes.
//!
//! Memory is explicit: a `map` that is not at the output position must be
//! wrapped in `toLocal`/`toPrivate` (or be the kernel result) so that every
//! intermediate buffer in the generated code is visible in the source
//! expression, mirroring Lift's design.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lift_arith::{ArithExpr, Bindings};
use lift_core::expr::{Expr, FunDecl, Param};
use lift_core::pattern::{MapKind, Pattern, ReduceKind};
use lift_core::typecheck::{apply_fun, typecheck, TypeError};
use lift_core::types::Type;
use lift_core::visit::is_layout_fun;

use crate::clike::{
    AddressSpace, CExpr, CStmt, CType, Kernel, KernelParam, LocalBuffer, VarRef, WorkItemFn,
};
use crate::view::{View, ViewError};

pub use lift_core::visit::substitute_sizes;

/// A code generation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenError {
    msg: String,
}

impl CodegenError {
    fn new(msg: impl Into<String>) -> Self {
        CodegenError { msg: msg.into() }
    }

    /// The diagnostic message.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.msg)
    }
}

impl Error for CodegenError {}

impl From<TypeError> for CodegenError {
    fn from(e: TypeError) -> Self {
        CodegenError::new(e.to_string())
    }
}

impl From<ViewError> for CodegenError {
    fn from(e: ViewError) -> Self {
        CodegenError::new(e.to_string())
    }
}

macro_rules! bail {
    ($($arg:tt)*) => {
        return Err(CodegenError::new(format!($($arg)*)))
    };
}

/// A compiled value: either a scalar C expression or a lazily-indexed view.
#[derive(Debug, Clone)]
enum Val {
    Scalar(CExpr),
    View { view: View, ty: Type },
}

struct Cg {
    bindings: HashMap<u32, Val>,
    locals: Vec<LocalBuffer>,
    /// Nesting depth of `mapLcl` loops currently being compiled. Barriers
    /// may only be emitted after the *outermost* local-parallel loop — a
    /// barrier inside an inner (divergent) loop would be illegal OpenCL.
    lcl_depth: usize,
}

fn size_usize(n: &ArithExpr) -> Result<usize, CodegenError> {
    n.eval(&Bindings::new())
        .map_err(|_| {
            CodegenError::new(format!(
                "size `{n}` is not concrete; substitute sizes first"
            ))
        })
        .and_then(|v| {
            if v < 0 {
                bail!("size `{n}` evaluated to negative {v}")
            }
            Ok(v as usize)
        })
}

fn concrete_shape(ty: &Type) -> Result<Vec<usize>, CodegenError> {
    ty.shape().iter().map(size_usize).collect()
}

fn ctype_of(ty: &Type) -> Result<CType, CodegenError> {
    match ty.leaf_scalar() {
        Some(k) => Ok(CType::from_kind(k)),
        None => bail!("cannot lay out non-scalar leaf type {ty}"),
    }
}

/// Compiles a lowered, fully-concrete program into an OpenCL kernel.
///
/// `prog` must be a top-level lambda whose parameters are the input arrays;
/// its result becomes the kernel's output buffer.
///
/// # Errors
///
/// Fails if the program is ill-typed, contains non-lowered (`Par`)
/// primitives, non-concrete sizes, or an unsupported shape (e.g. a
/// materialising `map` without `toLocal`/`toPrivate`).
pub fn compile_kernel(name: &str, prog: &FunDecl) -> Result<Kernel, CodegenError> {
    let lam = match prog {
        FunDecl::Lambda(l) => l,
        _ => bail!("kernel must be a top-level lambda"),
    };
    let mut cg = Cg {
        bindings: HashMap::new(),
        locals: Vec::new(),
        lcl_depth: 0,
    };
    let mut params = Vec::new();
    for p in &lam.params {
        let shape = concrete_shape(p.ty())?;
        if shape.is_empty() {
            bail!("kernel parameter `{}` must be an array", p.name());
        }
        let elem = ctype_of(p.ty())?;
        let var = VarRef::fresh(p.name());
        params.push(KernelParam {
            var: var.clone(),
            elem,
            len: shape.iter().product(),
            is_output: false,
        });
        cg.bindings.insert(
            p.id(),
            Val::View {
                view: View::Mem {
                    buf: var,
                    space: AddressSpace::Global,
                    shape,
                },
                ty: p.ty().clone(),
            },
        );
    }
    let out_ty = typecheck(&lam.body)?;
    let out_shape = concrete_shape(&out_ty)?;
    if out_shape.is_empty() {
        bail!("kernel result must be an array, got {out_ty}");
    }
    let out_var = VarRef::fresh("out");
    params.push(KernelParam {
        var: out_var.clone(),
        elem: ctype_of(&out_ty)?,
        len: out_shape.iter().product(),
        is_output: true,
    });
    let out_view = View::Mem {
        buf: out_var,
        space: AddressSpace::Global,
        shape: out_shape,
    };

    let mut body = Vec::new();
    compile_out(&mut cg, &lam.body, &out_view, &mut body)?;

    let mut user_funs = Vec::new();
    collect_user_funs(&body, &mut user_funs);

    Ok(Kernel {
        name: name.to_string(),
        params,
        locals: cg.locals,
        body,
        user_funs,
    })
}

/// Compiles `e` (array-typed) so that its elements are written through `out`.
fn compile_out(
    cg: &mut Cg,
    e: &Expr,
    out: &View,
    stmts: &mut Vec<CStmt>,
) -> Result<(), CodegenError> {
    let ty = typecheck(e)?;
    if ty.as_array().is_none() {
        // Scalar result written at a fully-fixed output position.
        let v = compile_scalar(cg, e, stmts)?;
        stmts.push(out.write(&[], v)?);
        return Ok(());
    }

    if let Expr::Apply(app) = e {
        match &app.fun {
            FunDecl::Lambda(l) => {
                bind_lambda_args(cg, l, &app.args, stmts)?;
                return compile_out(cg, &l.body, out, stmts);
            }
            FunDecl::Pattern(p) => match p.as_ref() {
                // Layout on the output path reshapes the destination instead
                // of emitting loops: the argument is written through the dual
                // of the pattern's view. Only un-lowered maps take this
                // route: a lowered map (`mapGlb` etc.) expresses an explicit
                // parallelisation decision and keeps its loop.
                Pattern::Join
                | Pattern::Split { .. }
                | Pattern::Transpose
                | Pattern::Map {
                    kind: MapKind::Par, ..
                } if is_layout_fun(&app.fun) => {
                    let in_ty = typecheck(&app.args[0])?;
                    let node = layout_node(p, &in_ty, View::Hole)?;
                    if let View::Map { elem, .. } = &node {
                        // Verify writability up-front for a clear error.
                        elem.dual(View::Hole)?;
                    }
                    let out2 = node.dual(out.clone())?;
                    return compile_out(cg, &app.args[0], &out2, stmts);
                }
                Pattern::Map { kind, f } => {
                    return compile_map(cg, *kind, f, &app.args[0], &ty, out, stmts);
                }
                Pattern::ToGlobal { f } | Pattern::ToLocal { f } | Pattern::ToPrivate { f } => {
                    // At the output position the destination is already
                    // fixed; the wrapper only matters mid-expression.
                    let rebuilt = Expr::apply(f.clone(), app.args.clone());
                    return compile_out(cg, &rebuilt, out, stmts);
                }
                Pattern::Id => {
                    return compile_out(cg, &app.args[0], out, stmts);
                }
                _ => {}
            },
            FunDecl::UserFun(_) => {}
        }
    }

    // Fallback: a pure layout transform (e.g. the kernel is just
    // `slide(...)`): materialise it with sequential copy loops.
    let val = compile_val(cg, e, stmts)?;
    match val {
        Val::View { view, ty } => {
            let shape = concrete_shape(&ty)?;
            materialise_copy(&view, out, &shape, stmts)
        }
        Val::Scalar(_) => bail!("array-typed expression compiled to a scalar"),
    }
}

/// Emits nested sequential loops copying `src` into `out` element-wise.
fn materialise_copy(
    src: &View,
    out: &View,
    shape: &[usize],
    stmts: &mut Vec<CStmt>,
) -> Result<(), CodegenError> {
    fn rec(
        src: &View,
        out: &View,
        shape: &[usize],
        idxs: &mut Vec<CExpr>,
        stmts: &mut Vec<CStmt>,
    ) -> Result<(), CodegenError> {
        if idxs.len() == shape.len() {
            let v = src.read(idxs)?;
            stmts.push(out.write(idxs, v)?);
            return Ok(());
        }
        let var = VarRef::fresh("c");
        let mut body = Vec::new();
        idxs.push(CExpr::Var(var.clone()));
        rec(src, out, shape, idxs, &mut body)?;
        idxs.pop();
        stmts.push(CStmt::For {
            var,
            init: CExpr::Int(0),
            bound: CExpr::Int(shape[idxs.len()] as i64),
            step: CExpr::Int(1),
            body,
        });
        Ok(())
    }
    let mut idxs = Vec::new();
    rec(src, out, shape, &mut idxs, stmts)
}

fn loop_range(kind: MapKind, n: usize) -> (CExpr, CExpr, CExpr) {
    let bound = CExpr::Int(n as i64);
    match kind {
        MapKind::Seq | MapKind::SeqUnroll | MapKind::Par => (CExpr::Int(0), bound, CExpr::Int(1)),
        MapKind::Glb(d) => (
            CExpr::WorkItem(WorkItemFn::GlobalId, d),
            bound,
            CExpr::WorkItem(WorkItemFn::GlobalSize, d),
        ),
        MapKind::Wrg(d) => (
            CExpr::WorkItem(WorkItemFn::GroupId, d),
            bound,
            CExpr::WorkItem(WorkItemFn::NumGroups, d),
        ),
        MapKind::Lcl(d) => (
            CExpr::WorkItem(WorkItemFn::LocalId, d),
            bound,
            CExpr::WorkItem(WorkItemFn::LocalSize, d),
        ),
    }
}

fn compile_map(
    cg: &mut Cg,
    kind: MapKind,
    f: &FunDecl,
    arr: &Expr,
    result_ty: &Type,
    out: &View,
    stmts: &mut Vec<CStmt>,
) -> Result<(), CodegenError> {
    if kind == MapKind::Par {
        bail!("high-level `map` reached codegen; lower it to mapGlb/mapWrg/mapLcl/mapSeq first");
    }
    let (out_elem_ty, n) = result_ty
        .as_array()
        .map(|(el, n)| (el.clone(), n.clone()))
        .ok_or_else(|| CodegenError::new("map result must be an array"))?;
    let n = size_usize(&n)?;
    let arr_val = compile_val(cg, arr, stmts)?;
    let (arr_view, arr_ty) = match arr_val {
        Val::View { view, ty } => (view, ty),
        Val::Scalar(_) => bail!("map input compiled to a scalar"),
    };
    let in_elem_ty = arr_ty
        .as_array()
        .map(|(el, _)| el.clone())
        .ok_or_else(|| CodegenError::new("map input must be an array"))?;

    let emit_body = |cg: &mut Cg, idx: CExpr, stmts: &mut Vec<CStmt>| -> Result<(), CodegenError> {
        let elem_view = View::Fixed {
            index: idx.clone(),
            base: Box::new(arr_view.clone()),
        };
        let out_elem = View::Fixed {
            index: idx,
            base: Box::new(out.clone()),
        };
        let p = Param::fresh("e", in_elem_ty.clone());
        cg.bindings.insert(
            p.id(),
            Val::View {
                view: elem_view,
                ty: in_elem_ty.clone(),
            },
        );
        let body_expr = Expr::apply(f.clone(), [Expr::Param(p)]);
        if out_elem_ty.as_array().is_none() {
            let v = compile_scalar(cg, &body_expr, stmts)?;
            stmts.push(out_elem.write(&[], v)?);
        } else {
            compile_out(cg, &body_expr, &out_elem, stmts)?;
        }
        Ok(())
    };

    if kind == MapKind::SeqUnroll {
        for j in 0..n {
            emit_body(cg, CExpr::Int(j as i64), stmts)?;
        }
        return Ok(());
    }

    let var = VarRef::fresh(match kind {
        MapKind::Glb(_) => "gid",
        MapKind::Wrg(_) => "wg",
        MapKind::Lcl(_) => "lid",
        _ => "i",
    });
    let (init, bound, step) = loop_range(kind, n);
    let is_lcl = matches!(kind, MapKind::Lcl(_));
    if is_lcl {
        cg.lcl_depth += 1;
    }
    let mut body = Vec::new();
    let body_result = emit_body(cg, CExpr::Var(var.clone()), &mut body);
    if is_lcl {
        cg.lcl_depth -= 1;
    }
    body_result?;
    stmts.push(CStmt::For {
        var,
        init,
        bound,
        step,
        body,
    });
    if is_lcl && cg.lcl_depth == 0 {
        // Work-group synchronisation after the outermost local-parallel
        // phase (a barrier inside an inner, divergent loop would be
        // illegal OpenCL).
        stmts.push(CStmt::Barrier {
            local: true,
            global: false,
        });
    }
    Ok(())
}

fn bind_lambda_args(
    cg: &mut Cg,
    l: &lift_core::expr::Lambda,
    args: &[Expr],
    stmts: &mut Vec<CStmt>,
) -> Result<(), CodegenError> {
    if l.params.len() != args.len() {
        bail!(
            "lambda of {} params applied to {} args",
            l.params.len(),
            args.len()
        );
    }
    for (p, a) in l.params.iter().zip(args) {
        let v = compile_val(cg, a, stmts)?;
        cg.bindings.insert(p.id(), v);
    }
    Ok(())
}

/// Compiles `e` into a value (view or scalar) without fixing an output.
fn compile_val(cg: &mut Cg, e: &Expr, stmts: &mut Vec<CStmt>) -> Result<Val, CodegenError> {
    match e {
        Expr::Param(p) => cg
            .bindings
            .get(&p.id())
            .cloned()
            .ok_or_else(|| CodegenError::new(format!("unbound parameter `{}`", p.name()))),
        Expr::Literal(s) => Ok(Val::Scalar(CExpr::scalar(*s))),
        Expr::Apply(app) => match &app.fun {
            FunDecl::Lambda(l) => {
                bind_lambda_args(cg, l, &app.args, stmts)?;
                compile_val(cg, &l.body, stmts)
            }
            FunDecl::UserFun(u) => {
                let mut args = Vec::with_capacity(app.args.len());
                for a in &app.args {
                    args.push(compile_scalar(cg, a, stmts)?);
                }
                Ok(Val::Scalar(CExpr::Call(u.clone(), args)))
            }
            FunDecl::Pattern(p) => compile_pattern_val(cg, p, app, stmts),
        },
    }
}

fn view_of(cg: &mut Cg, e: &Expr, stmts: &mut Vec<CStmt>) -> Result<(View, Type), CodegenError> {
    match compile_val(cg, e, stmts)? {
        Val::View { view, ty } => Ok((view, ty)),
        Val::Scalar(_) => bail!("expected an array value"),
    }
}

fn compile_pattern_val(
    cg: &mut Cg,
    p: &Pattern,
    app: &lift_core::expr::Apply,
    stmts: &mut Vec<CStmt>,
) -> Result<Val, CodegenError> {
    let result_ty = typecheck(&Expr::Apply(Box::new(app.clone())))?;
    match p {
        Pattern::Slide { .. }
        | Pattern::Pad { .. }
        | Pattern::PadValue { .. }
        | Pattern::Split { .. }
        | Pattern::Join
        | Pattern::Transpose
        | Pattern::Map { .. } => {
            let (base, in_ty) = view_of(cg, &app.args[0], stmts)?;
            if !is_layout_fun(&app.fun) {
                bail!(
                    "a materialising `map` mid-expression must be wrapped in \
                     toLocal/toPrivate so its memory is explicit"
                );
            }
            Ok(Val::View {
                view: layout_node(p, &in_ty, base)?,
                ty: result_ty,
            })
        }
        Pattern::Zip { .. } => {
            let mut comps = Vec::with_capacity(app.args.len());
            for a in &app.args {
                comps.push(view_of(cg, a, stmts)?.0);
            }
            Ok(Val::View {
                view: View::Zip { components: comps },
                ty: result_ty,
            })
        }
        Pattern::At { index } => {
            let (base, _) = view_of(cg, &app.args[0], stmts)?;
            let view = View::Fixed {
                index: CExpr::Int(size_usize(index)? as i64),
                base: Box::new(base),
            };
            if result_ty.as_array().is_none() && result_ty.as_tuple().is_none() {
                Ok(Val::Scalar(view.read(&[])?))
            } else {
                Ok(Val::View {
                    view,
                    ty: result_ty,
                })
            }
        }
        Pattern::Get { .. } => {
            let val = compile_val(cg, &app.args[0], stmts)?;
            match val {
                Val::View { view, ty } => {
                    let g = layout_node(p, &ty, view)?;
                    if result_ty.as_array().is_none() {
                        Ok(Val::Scalar(g.read(&[])?))
                    } else {
                        Ok(Val::View {
                            view: g,
                            ty: result_ty,
                        })
                    }
                }
                Val::Scalar(_) => bail!("`get` applied to a scalar"),
            }
        }
        Pattern::ArrayGen { fun, sizes } => {
            let sizes: Result<Vec<usize>, _> = sizes.iter().map(size_usize).collect();
            Ok(Val::View {
                view: View::Gen {
                    fun: fun.clone(),
                    sizes: sizes?,
                },
                ty: result_ty,
            })
        }
        Pattern::Reduce { kind, f } => {
            compile_reduce(cg, *kind, f, &app.args[0], &app.args[1], stmts)
        }
        Pattern::Id => compile_val(cg, &app.args[0], stmts),
        Pattern::ToLocal { f } => {
            materialise_to(cg, AddressSpace::Local, f, app, &result_ty, stmts)
        }
        Pattern::ToPrivate { f } => {
            materialise_to(cg, AddressSpace::Private, f, app, &result_ty, stmts)
        }
        Pattern::ToGlobal { f } => bail!(
            "`toGlobal({f})` mid-expression is unsupported: global temporaries would need a \
             second kernel; restructure the program"
        ),
        Pattern::Iterate { .. } => {
            bail!("`iterate` is executed on the host (repeated kernel launches), not in a kernel")
        }
    }
}

/// Allocates a buffer in `space`, compiles `f(args…)` into it, and returns
/// the buffer view.
fn materialise_to(
    cg: &mut Cg,
    space: AddressSpace,
    f: &FunDecl,
    app: &lift_core::expr::Apply,
    result_ty: &Type,
    stmts: &mut Vec<CStmt>,
) -> Result<Val, CodegenError> {
    let shape = concrete_shape(result_ty)?;
    let elem = ctype_of(result_ty)?;
    let len: usize = shape.iter().product();
    let var = VarRef::fresh(match space {
        AddressSpace::Local => "tile_l",
        AddressSpace::Private => "priv",
        AddressSpace::Global => "tmp_g",
    });
    match space {
        AddressSpace::Local => cg.locals.push(LocalBuffer {
            var: var.clone(),
            elem,
            len,
        }),
        AddressSpace::Private => stmts.push(CStmt::DeclPrivateArray {
            var: var.clone(),
            ty: elem,
            len,
        }),
        AddressSpace::Global => bail!("global temporaries are not supported"),
    }
    let buf_view = View::Mem {
        buf: var,
        space,
        shape,
    };
    let rebuilt = Expr::apply(f.clone(), app.args.clone());
    compile_out(cg, &rebuilt, &buf_view, stmts)?;
    Ok(Val::View {
        view: buf_view,
        ty: result_ty.clone(),
    })
}

/// The view of layout pattern `p` applied to `base`, a value of type
/// `in_ty`. A layout `map` becomes a [`View::Map`] over its function's view
/// of a fresh [`View::Hole`].
fn layout_node(p: &Pattern, in_ty: &Type, base: View) -> Result<View, CodegenError> {
    let base = Box::new(base);
    Ok(match p {
        Pattern::Slide { step, .. } => View::Slide {
            step: size_usize(step)?,
            base,
        },
        Pattern::Pad { left, boundary, .. } => View::Pad {
            left: size_usize(left)?,
            n: outer_len(in_ty)?,
            boundary: *boundary,
            base,
        },
        Pattern::PadValue { left, value, .. } => View::PadValue {
            left: size_usize(left)?,
            n: outer_len(in_ty)?,
            value: *value,
            base,
        },
        Pattern::Split { chunk } => View::Split {
            chunk: size_usize(chunk)?,
            base,
        },
        Pattern::Join => View::Join {
            inner: outer_len(elem_of(in_ty)?)?,
            base,
        },
        Pattern::Transpose => View::Transpose { base },
        Pattern::Get { index } => View::Get {
            index: *index,
            base,
        },
        Pattern::Map { f, .. } => View::Map {
            elem: Arc::new(layout_fun(f, elem_of(in_ty)?, View::Hole)?.0),
            base,
        },
        Pattern::Id => *base,
        other => bail!("`{}` is not a layout pattern", other.name()),
    })
}

/// The view of layout function `f` (see [`is_layout_fun`]) applied to `x`,
/// a value of type `x_ty`, and the type of the result. Types are threaded
/// through the walk, one `apply_fun` per pattern, not re-checked per node.
fn layout_fun(f: &FunDecl, x_ty: &Type, x: View) -> Result<(View, Type), CodegenError> {
    match f {
        FunDecl::Pattern(p) => {
            let ty = apply_fun(f, std::slice::from_ref(x_ty))?;
            Ok((layout_node(p, x_ty, x)?, ty))
        }
        FunDecl::Lambda(l) => layout_body(&l.body, x_ty, x),
        FunDecl::UserFun(u) => bail!("user function `{}` is not a layout function", u.name()),
    }
}

/// [`layout_fun`] for the body `e` of a layout lambda whose parameter is `x`.
fn layout_body(e: &Expr, x_ty: &Type, x: View) -> Result<(View, Type), CodegenError> {
    match e {
        Expr::Param(_) => Ok((x, x_ty.clone())),
        Expr::Apply(app) if matches!(app.fun.as_pattern(), Some(Pattern::Zip { .. })) => {
            let mut components = Vec::with_capacity(app.args.len());
            let mut tys = Vec::with_capacity(app.args.len());
            for a in &app.args {
                let (view, ty) = layout_body(a, x_ty, x.clone())?;
                components.push(view);
                tys.push(ty);
            }
            Ok((View::Zip { components }, apply_fun(&app.fun, &tys)?))
        }
        Expr::Apply(app) => {
            let (view, ty) = layout_body(&app.args[0], x_ty, x)?;
            layout_fun(&app.fun, &ty, view)
        }
        Expr::Literal(_) => bail!("a literal is not a layout function body"),
    }
}

fn elem_of(ty: &Type) -> Result<&Type, CodegenError> {
    match ty.as_array() {
        Some((elem, _)) => Ok(elem),
        None => bail!("layout of non-array {ty}"),
    }
}

fn outer_len(ty: &Type) -> Result<usize, CodegenError> {
    match ty.as_array() {
        Some((_, n)) => size_usize(n),
        None => bail!("layout of non-array {ty}"),
    }
}

fn compile_reduce(
    cg: &mut Cg,
    kind: ReduceKind,
    f: &FunDecl,
    init: &Expr,
    arr: &Expr,
    stmts: &mut Vec<CStmt>,
) -> Result<Val, CodegenError> {
    if kind == ReduceKind::Par {
        bail!("high-level `reduce` reached codegen; lower it to reduceSeq/reduceUnroll first");
    }
    let init_ty = typecheck(init)?;
    let acc_ct = match init_ty.as_scalar() {
        Some(k) => CType::from_kind(k),
        None => bail!("reduce accumulator must be scalar, got {init_ty}"),
    };
    let init_val = compile_scalar(cg, init, stmts)?;
    let acc = VarRef::fresh("acc");
    stmts.push(CStmt::DeclScalar {
        var: acc.clone(),
        ty: acc_ct,
        init: Some(init_val),
    });

    let (arr_view, arr_ty) = view_of(cg, arr, stmts)?;
    let (elem_ty, n) = arr_ty
        .as_array()
        .map(|(el, n)| (el.clone(), n.clone()))
        .ok_or_else(|| CodegenError::new("reduce input must be an array"))?;
    let n = size_usize(&n)?;

    let emit_step = |cg: &mut Cg, idx: CExpr, stmts: &mut Vec<CStmt>| -> Result<(), CodegenError> {
        let elem_view = View::Fixed {
            index: idx,
            base: Box::new(arr_view.clone()),
        };
        let pa = Param::fresh("acc", init_ty.clone());
        let pe = Param::fresh("e", elem_ty.clone());
        cg.bindings
            .insert(pa.id(), Val::Scalar(CExpr::Var(acc.clone())));
        cg.bindings.insert(
            pe.id(),
            Val::View {
                view: elem_view,
                ty: elem_ty.clone(),
            },
        );
        let step_expr = Expr::apply(f.clone(), [Expr::Param(pa), Expr::Param(pe)]);
        let v = compile_scalar(cg, &step_expr, stmts)?;
        stmts.push(CStmt::Assign {
            var: acc.clone(),
            value: v,
        });
        Ok(())
    };

    match kind {
        ReduceKind::SeqUnroll => {
            for j in 0..n {
                emit_step(cg, CExpr::Int(j as i64), stmts)?;
            }
        }
        ReduceKind::Seq => {
            let var = VarRef::fresh("r");
            let mut body = Vec::new();
            emit_step(cg, CExpr::Var(var.clone()), &mut body)?;
            stmts.push(CStmt::For {
                var,
                init: CExpr::Int(0),
                bound: CExpr::Int(n as i64),
                step: CExpr::Int(1),
                body,
            });
        }
        ReduceKind::Par => unreachable!("checked above"),
    }
    Ok(Val::Scalar(CExpr::Var(acc)))
}

fn compile_scalar(cg: &mut Cg, e: &Expr, stmts: &mut Vec<CStmt>) -> Result<CExpr, CodegenError> {
    match compile_val(cg, e, stmts)? {
        Val::Scalar(c) => Ok(c),
        Val::View { view, ty } => {
            if ty.as_array().is_some() {
                bail!("expected a scalar, found array of type {ty}")
            }
            Ok(view.read(&[])?)
        }
    }
}

fn collect_user_funs(stmts: &[CStmt], out: &mut Vec<std::sync::Arc<lift_core::userfun::UserFun>>) {
    fn from_expr(e: &CExpr, out: &mut Vec<std::sync::Arc<lift_core::userfun::UserFun>>) {
        match e {
            CExpr::Call(f, args) => {
                if !out.iter().any(|g| g.name() == f.name()) {
                    out.push(f.clone());
                }
                for a in args {
                    from_expr(a, out);
                }
            }
            CExpr::Bin(_, a, b) => {
                from_expr(a, out);
                from_expr(b, out);
            }
            CExpr::Un(_, a) => from_expr(a, out),
            CExpr::Load { idx, .. } => from_expr(idx, out),
            CExpr::Select { cond, then_, else_ } => {
                from_expr(cond, out);
                from_expr(then_, out);
                from_expr(else_, out);
            }
            CExpr::Cast(_, a) => from_expr(a, out),
            _ => {}
        }
    }
    for s in stmts {
        match s {
            CStmt::DeclScalar { init: Some(e), .. } => from_expr(e, out),
            CStmt::Assign { value, .. } => from_expr(value, out),
            CStmt::Store { idx, value, .. } => {
                from_expr(idx, out);
                from_expr(value, out);
            }
            CStmt::For {
                init,
                bound,
                step,
                body,
                ..
            } => {
                from_expr(init, out);
                from_expr(bound, out);
                from_expr(step, out);
                collect_user_funs(body, out);
            }
            CStmt::If { cond, then_, else_ } => {
                from_expr(cond, out);
                collect_user_funs(then_, out);
                collect_user_funs(else_, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::prelude::*;

    fn listing2_lowered(n: i64) -> FunDecl {
        // mapGlb0(reduceSeq(add, 0.0), slide(3, 1, pad(1, 1, clamp, A)))
        lam_named("A", Type::array(Type::f32(), n), |a| {
            let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                reduce_seq(add_f32(), Expr::f32(0.0), nbh)
            });
            map_glb(0, sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
        })
    }

    #[test]
    fn compiles_listing2() {
        let k = compile_kernel("jacobi3pt", &listing2_lowered(16)).expect("compiles");
        assert_eq!(k.params.len(), 2);
        assert_eq!(k.params[0].len, 16);
        assert!(k.params[1].is_output);
        assert_eq!(k.params[1].len, 16);
        assert_eq!(k.user_funs.len(), 1);
        assert_eq!(k.user_funs[0].name(), "add");
        // One global loop with a reduction loop inside.
        assert!(matches!(&k.body[0], CStmt::For { .. }));
    }

    #[test]
    fn par_compute_map_is_rejected() {
        // A computing `map` (not a pure layout transform) must be lowered
        // before codegen.
        let double = lam(Type::f32(), |x| call(&add_f32(), [x.clone(), x]));
        let f = lam_named("A", Type::array(Type::f32(), 8), |a| map(double, a));
        let err = compile_kernel("k", &f).unwrap_err();
        assert!(err.message().contains("lower"));
    }

    #[test]
    fn par_layout_map_compiles_as_view() {
        // map(transpose) stays lazy: no loops beyond the copy of the result.
        let f = lam_named("A", Type::array_2d(Type::f32(), 4, 8), |a| {
            map_glb(
                0,
                lam(Type::array(Type::f32(), 4), |row| {
                    map_seq(
                        lam(Type::f32(), |x| call(&add_f32(), [x, Expr::f32(0.0)])),
                        row,
                    )
                }),
                transpose(a),
            )
        });
        let k = compile_kernel("k", &f).expect("compiles");
        assert!(k.locals.is_empty());
    }

    #[test]
    fn symbolic_sizes_are_rejected() {
        let f = lam_named("A", Type::array(Type::f32(), ArithExpr::var("N")), |a| {
            map_glb(0, id(), a)
        });
        let err = compile_kernel("k", &f).unwrap_err();
        assert!(err.message().contains("concrete") || err.message().contains("size"));
    }

    #[test]
    fn substitute_sizes_makes_concrete() {
        let f = lam_named("A", Type::array(Type::f32(), ArithExpr::var("N")), |a| {
            map_glb(0, id(), a)
        });
        let env = lift_arith::Bindings::from_iter([("N", 32)]);
        let g = substitute_sizes(&f, &env);
        let k = compile_kernel("k", &g).expect("compiles after substitution");
        assert_eq!(k.params[0].len, 32);
    }

    #[test]
    fn tiled_local_memory_kernel_compiles() {
        // join(mapWrg0(tile => mapLcl0(reduceSeq) ∘ slide ∘ toLocal(mapLcl0(id)), slide(6,4, pad(...))))
        let n = 18i64;
        let f = lam_named("A", Type::array(Type::f32(), n), |a| {
            let tile_ty = Type::array(Type::f32(), 6);
            let per_tile = lam(tile_ty, |tile| {
                let copied = Expr::apply(to_local(fun_map_lcl_id()), [tile]);
                let sum = lam(Type::array(Type::f32(), 3), |nbh| {
                    reduce_seq(add_f32(), Expr::f32(0.0), nbh)
                });
                map_lcl(0, sum, slide(3, 1, copied))
            });
            join(map_wrg(
                0,
                per_tile,
                slide(6, 4, pad(1, 1, Boundary::Clamp, a)),
            ))
        });
        fn fun_map_lcl_id() -> FunDecl {
            FunDecl::pattern(lift_core::pattern::Pattern::Map {
                kind: lift_core::pattern::MapKind::Lcl(0),
                f: lift_core::build::id(),
            })
        }
        let k = compile_kernel("tiled", &f).expect("compiles");
        assert_eq!(k.locals.len(), 1);
        assert_eq!(k.locals[0].len, 6);
        // Barriers must separate the copy and compute phases.
        fn count_barriers(stmts: &[CStmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    CStmt::Barrier { .. } => 1,
                    CStmt::For { body, .. } => count_barriers(body),
                    CStmt::If { then_, else_, .. } => count_barriers(then_) + count_barriers(else_),
                    _ => 0,
                })
                .sum()
        }
        assert!(count_barriers(&k.body) >= 2);
    }

    #[test]
    fn zip_get_kernel_compiles() {
        let n = 8i64;
        let f = lam2_named(
            "A",
            Type::array(Type::f32(), n),
            "B",
            Type::array(Type::f32(), n),
            |a, b| {
                let tup = Type::Tuple(vec![Type::f32(), Type::f32()]);
                let f = lam(tup, |t| call(&add_f32(), [get(0, t.clone()), get(1, t)]));
                map_glb(0, f, zip2(a, b))
            },
        );
        let k = compile_kernel("zipped", &f).expect("compiles");
        assert_eq!(k.params.len(), 3);
    }

    #[test]
    fn mid_expression_compute_map_without_memory_is_rejected() {
        let f = lam_named("A", Type::array(Type::f32(), 8), |a| {
            // join(slide over a *computed* array) forces the inner map into
            // a source position with no memory annotation.
            let double = lam(Type::f32(), |x| call(&add_f32(), [x.clone(), x]));
            let mapped = map_seq(double, a);
            join(slide(2, 2, mapped))
        });
        let err = compile_kernel("k", &f).unwrap_err();
        assert!(err.message().contains("toLocal"), "got: {err}");
    }
}
