//! View-based OpenCL-C code generation for low-level Lift expressions (§5 of
//! the paper).
//!
//! A Lift program whose `map`s and `reduce`s have been lowered to
//! OpenCL-specific forms (`mapGlb`, `mapWrg`, `mapLcl`, `mapSeq`,
//! `reduceSeq`, …) is compiled here into a [`Kernel`]: a small OpenCL-C AST
//! that can be
//!
//! * pretty-printed to compilable OpenCL C source ([`Kernel::to_source`]),
//!   and
//! * executed directly by the virtual device in `lift-oclsim`.
//!
//! The data-layout primitives `pad`, `slide`, `split`, `join`, `transpose`,
//! `zip`, `get`, `at` and `array` **generate no code and move no data**: they
//! are compiled into [`view::View`]s — compile-time index transformations
//! applied when an element is finally read (or written). So are `map`s of
//! layout functions (as `lift_core::visit::is_layout_fun` classifies them):
//! a layout `map(f)` is a [`view::View::Map`] over `f`'s view of a hole, and
//! on the output path a producer writes through the layout's
//! [`dual`](view::View::dual). This is the paper's
//! key compilation device: *"the slide primitive does not physically copy
//! created neighborhoods into memory"*; accesses to the same element of
//! different neighbourhoods hit the same physical location.
//!
//! Compilation requires every array size to be **concrete**: substitute input
//! sizes and tuner parameters into the program first (see
//! [`compile::substitute_sizes`]).

#![forbid(unsafe_code)]

pub mod clike;
pub mod compile;
pub mod print;
pub mod view;

pub use clike::{
    AddressSpace, BinOp, CExpr, CStmt, CType, Kernel, KernelParam, LocalBuffer, SlotMap, UnOp,
    VarRef, WorkItemFn,
};
pub use compile::{compile_kernel, substitute_sizes, CodegenError};
