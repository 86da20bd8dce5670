//! The Lift data-parallel intermediate language, extended for stencils.
//!
//! This crate implements the IR of *High Performance Stencil Code Generation
//! with Lift* (CGO 2018): a small functional language whose programs are
//! compositions of data-parallel primitives. The paper's contribution — and
//! the heart of this crate — is that **stencil computations decompose into
//! three reusable 1D primitives**:
//!
//! 1. [`pad`](build::pad) — boundary handling (clamp / mirror / wrap
//!    re-indexing, or constant values via [`pad_value`](build::pad_value)),
//! 2. [`slide`](build::slide) — neighbourhood creation with a sliding window,
//! 3. [`map`](build::map) — the (only) data-parallel application of the
//!    stencil function to every neighbourhood.
//!
//! Multi-dimensional stencils are *compositions* of these 1D building blocks
//! (see [`ndim`]), exactly as in §3.4 of the paper.
//!
//! The crate provides:
//!
//! * [`types`] — array/tuple/scalar types carrying symbolic sizes,
//! * [`expr`] — expressions: λ-calculus over [`pattern::Pattern`] primitives,
//! * [`pattern`] — all primitives incl. the OpenCL-specific low-level forms
//!   (`mapGlb`, `mapWrg`, `mapLcl`, `mapSeq`, `reduceSeq`, `toLocal`, …),
//! * [`typecheck`] — the structural type checker with symbolic size algebra,
//! * [`build`] — an ergonomic builder DSL,
//! * [`ndim`] — the derived n-dimensional combinators `pad2/3`, `slide2/3`,
//!   `map2/3`, `zip_nd`,
//! * [`visit`] — generic traversal/rewriting infrastructure used by the
//!   rewrite-rule engine, and [`visit::is_layout_fun`], the one test of
//!   which functions only rearrange data.
//!
//! # Example: the paper's 3-point Jacobi (Listing 2)
//!
//! ```
//! use lift_core::prelude::*;
//!
//! let n = ArithExpr::var("N");
//! let input = Type::array(Type::f32(), n);
//! // fun(A => map(sumNbh, slide(3, 1, pad(1, 1, clamp, A))))
//! let stencil = lam(input, |a| {
//!     let sum = lam(Type::array(Type::f32(), 3), |nbh| {
//!         reduce(add_f32(), Expr::f32(0.0), nbh)
//!     });
//!     map(sum, slide(3, 1, pad(1, 1, Boundary::Clamp, a)))
//! });
//! let ty = typecheck_fun(&stencil).unwrap();
//! assert_eq!(ty.to_string(), "[f32]_N");
//! ```
//!
//! One deliberate simplification relative to the paper's Fig. 3 types:
//! `reduce` here returns the accumulator `U` directly rather than a
//! one-element array `[U]_1` — this is how the paper's own listings use it
//! (Listing 2 maps `sumNbh` straight over the neighbourhoods).

#![forbid(unsafe_code)]

pub mod build;
pub mod eval;
pub mod expr;
pub mod ndim;
pub mod pattern;
pub mod pretty;
pub mod scalar;
pub mod typecheck;
pub mod types;
pub mod userfun;
pub mod visit;

/// Convenient glob-import of the whole builder surface.
pub mod prelude {
    pub use crate::build::*;
    pub use crate::expr::{Expr, FunDecl, Lambda, Param, ParamRef};
    pub use crate::ndim::*;
    pub use crate::pattern::{Boundary, MapKind, Pattern, ReduceKind};
    pub use crate::scalar::{Scalar, ScalarKind};
    pub use crate::typecheck::{typecheck, typecheck_fun, TypeError};
    pub use crate::types::Type;
    pub use crate::userfun::{add_f32, id_f32, max_f32, mul_f32, UserFun};
    pub use lift_arith::ArithExpr;
}
