//! The Lift primitives ("patterns"), including the paper's two stencil
//! additions `slide` and `pad`, and the OpenCL-specific low-level forms.

use std::fmt;
use std::sync::Arc;

use lift_arith::ArithExpr;

use crate::expr::FunDecl;
use crate::scalar::Scalar;
use crate::userfun::UserFun;

/// How a `map` is executed on the device.
///
/// The high-level [`MapKind::Par`] form expresses *potential* data
/// parallelism only; lowering rewrite rules replace it by one of the
/// OpenCL-specific forms (§5 of the paper, following Steuwer et al.,
/// CGO 2017).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// High-level, not yet mapped to the OpenCL thread hierarchy.
    Par,
    /// A sequential loop inside one work-item.
    Seq,
    /// A sequential loop, fully unrolled (requires a constant trip count).
    SeqUnroll,
    /// Parallel across global work-items in NDRange dimension `d`.
    Glb(u8),
    /// Parallel across work-groups in NDRange dimension `d`.
    Wrg(u8),
    /// Parallel across the work-items of one work-group in dimension `d`.
    Lcl(u8),
}

/// How a `reduce` is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// High-level, not yet lowered.
    Par,
    /// Sequential accumulation loop.
    Seq,
    /// Sequential accumulation, fully unrolled (§4.3 `reduceUnroll`).
    SeqUnroll,
}

/// Out-of-bounds re-indexing strategies for [`Pattern::Pad`].
///
/// These are the index functions `h` of the paper (§3.2): they *"must not
/// reorder the elements of the input array, but only map indices from outside
/// the array boundaries into a valid array index."*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// `clamp(i, n) = min(max(i, 0), n-1)` — repeat the edge value.
    Clamp,
    /// Reflect at the border: `-1 ↦ 0`, `-2 ↦ 1`, `n ↦ n-1`, ….
    Mirror,
    /// Wrap around (toroidal): `i ↦ i mod n`.
    Wrap,
}

impl Boundary {
    /// Applies the re-indexing to a concrete index (reference semantics).
    ///
    /// `i` may lie outside `[0, n)`; the result is always inside.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn reindex(self, i: i64, n: i64) -> i64 {
        assert!(n > 0, "boundary re-indexing into an empty array");
        match self {
            Boundary::Clamp => i.clamp(0, n - 1),
            Boundary::Mirror => {
                // Reflection with period 2n: …, 1, 0 | 0, 1, …, n-1 | n-1, …
                let m = i.rem_euclid(2 * n);
                if m < n {
                    m
                } else {
                    2 * n - 1 - m
                }
            }
            Boundary::Wrap => i.rem_euclid(n),
        }
    }

    /// The OpenCL C spelling used by the code generator's index math.
    pub fn c_name(self) -> &'static str {
        match self {
            Boundary::Clamp => "clamp",
            Boundary::Mirror => "mirror",
            Boundary::Wrap => "wrap",
        }
    }
}

/// A Lift primitive.
///
/// Applying a pattern to arguments forms an expression; the typing rules live
/// in [`crate::typecheck`], the data-layout semantics in the code generator's
/// view system, and the reference semantics in the evaluator used for
/// testing.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// `map f : [T]_n → [U]_n` — the only source of data parallelism.
    Map {
        /// Execution flavour (high-level or OpenCL-mapped).
        kind: MapKind,
        /// The function applied to every element.
        f: FunDecl,
    },
    /// `reduce f : (U, [T]_n) → U` applied as `reduce(f, init, in)`.
    Reduce {
        /// Execution flavour.
        kind: ReduceKind,
        /// The binary reduction operator `(U, T) → U`.
        f: FunDecl,
    },
    /// `zip : ([T1]_n, …, [Tk]_n) → [{T1…Tk}]_n`.
    Zip {
        /// Number of zipped arrays (≥ 2).
        arity: usize,
    },
    /// `split m : [T]_n → [[T]_m]_{n/m}`.
    Split {
        /// Chunk length `m` (must evenly divide `n`).
        chunk: ArithExpr,
    },
    /// `join : [[T]_m]_n → [T]_{m·n}`.
    Join,
    /// `transpose : [[T]_m]_n → [[T]_n]_m`.
    Transpose,
    /// **New in the paper**: `slide size step : [T]_n →
    /// [[T]_size]_{(n−size+step)/step}` — overlapping neighbourhoods.
    Slide {
        /// Window length.
        size: ArithExpr,
        /// Window advance per step.
        step: ArithExpr,
    },
    /// **New in the paper**: `pad l r h : [T]_n → [T]_{l+n+r}` — boundary
    /// handling by re-indexing into the input.
    Pad {
        /// Elements virtually prepended.
        left: ArithExpr,
        /// Elements virtually appended.
        right: ArithExpr,
        /// The re-indexing function `h`.
        boundary: Boundary,
    },
    /// The value variant of `pad`: out-of-bounds positions produce a
    /// constant instead of re-reading the input (used for constant and
    /// dampening boundary conditions).
    PadValue {
        /// Elements virtually prepended.
        left: ArithExpr,
        /// Elements virtually appended.
        right: ArithExpr,
        /// The constant produced outside the original array.
        value: Scalar,
    },
    /// `at i : [T]_n → T` — constant-index access (written `in[i]`).
    At {
        /// The (compile-time) index.
        index: ArithExpr,
    },
    /// `get i : {T1…Tk} → Ti` — tuple component access (written `in.i`).
    Get {
        /// The component index (0-based).
        index: usize,
    },
    /// `array(n1, …, nd, f)` — a lazily generated array; `f` receives the
    /// `d` indices followed by the `d` sizes (used e.g. for the acoustic
    /// benchmark's on-the-fly neighbour-count mask, §3.5).
    ArrayGen {
        /// Generator: arity `2·d`, all-`i32` parameters.
        fun: Arc<UserFun>,
        /// The generated array shape, outermost first.
        sizes: Vec<ArithExpr>,
    },
    /// `iterate m f : [T]_n → [T]_n` — repeated application (type-preserving
    /// in this implementation; the paper evaluates single-iteration stencils
    /// and performs time-stepping on the host).
    Iterate {
        /// Number of iterations.
        times: ArithExpr,
        /// The iterated function.
        f: FunDecl,
    },
    /// Low-level: make `f` write its result to OpenCL local memory (§4.2).
    ToLocal {
        /// The wrapped function.
        f: FunDecl,
    },
    /// Low-level: make `f` write its result to global memory.
    ToGlobal {
        /// The wrapped function.
        f: FunDecl,
    },
    /// Low-level: make `f` write its result to private memory.
    ToPrivate {
        /// The wrapped function.
        f: FunDecl,
    },
    /// The polymorphic identity function.
    Id,
}

impl Pattern {
    /// The number of expression arguments the pattern is applied to.
    pub fn arity(&self) -> usize {
        match self {
            Pattern::Reduce { .. } => 2,
            Pattern::Zip { arity } => *arity,
            Pattern::ArrayGen { .. } => 0,
            Pattern::ToLocal { .. } | Pattern::ToGlobal { .. } | Pattern::ToPrivate { .. } => 1,
            _ => 1,
        }
    }

    /// A short name for diagnostics and pretty printing.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Map { kind, .. } => match kind {
                MapKind::Par => "map",
                MapKind::Seq => "mapSeq",
                MapKind::SeqUnroll => "mapSeqUnroll",
                MapKind::Glb(_) => "mapGlb",
                MapKind::Wrg(_) => "mapWrg",
                MapKind::Lcl(_) => "mapLcl",
            },
            Pattern::Reduce { kind, .. } => match kind {
                ReduceKind::Par => "reduce",
                ReduceKind::Seq => "reduceSeq",
                ReduceKind::SeqUnroll => "reduceUnroll",
            },
            Pattern::Zip { .. } => "zip",
            Pattern::Split { .. } => "split",
            Pattern::Join => "join",
            Pattern::Transpose => "transpose",
            Pattern::Slide { .. } => "slide",
            Pattern::Pad { .. } => "pad",
            Pattern::PadValue { .. } => "padValue",
            Pattern::At { .. } => "at",
            Pattern::Get { .. } => "get",
            Pattern::ArrayGen { .. } => "array",
            Pattern::Iterate { .. } => "iterate",
            Pattern::ToLocal { .. } => "toLocal",
            Pattern::ToGlobal { .. } => "toGlobal",
            Pattern::ToPrivate { .. } => "toPrivate",
            Pattern::Id => "id",
        }
    }

    /// The nested function declaration, for patterns that carry one.
    pub fn nested_fun(&self) -> Option<&FunDecl> {
        match self {
            Pattern::Map { f, .. }
            | Pattern::Reduce { f, .. }
            | Pattern::Iterate { f, .. }
            | Pattern::ToLocal { f }
            | Pattern::ToGlobal { f }
            | Pattern::ToPrivate { f } => Some(f),
            _ => None,
        }
    }

    /// Mutable access to the nested function declaration.
    pub fn nested_fun_mut(&mut self) -> Option<&mut FunDecl> {
        match self {
            Pattern::Map { f, .. }
            | Pattern::Reduce { f, .. }
            | Pattern::Iterate { f, .. }
            | Pattern::ToLocal { f }
            | Pattern::ToGlobal { f }
            | Pattern::ToPrivate { f } => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Map {
                kind: MapKind::Glb(d) | MapKind::Wrg(d) | MapKind::Lcl(d),
                ..
            } => write!(f, "{}{}", self.name(), d),
            Pattern::Split { chunk } => write!(f, "split({chunk})"),
            Pattern::Slide { size, step } => write!(f, "slide({size}, {step})"),
            Pattern::Pad {
                left,
                right,
                boundary,
            } => write!(f, "pad({left}, {right}, {})", boundary.c_name()),
            Pattern::PadValue { left, right, value } => {
                write!(f, "padValue({left}, {right}, {value})")
            }
            Pattern::At { index } => write!(f, "at({index})"),
            Pattern::Get { index } => write!(f, "get({index})"),
            Pattern::Iterate { times, .. } => write!(f, "iterate({times})"),
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_clamp() {
        assert_eq!(Boundary::Clamp.reindex(-2, 10), 0);
        assert_eq!(Boundary::Clamp.reindex(-1, 10), 0);
        assert_eq!(Boundary::Clamp.reindex(0, 10), 0);
        assert_eq!(Boundary::Clamp.reindex(9, 10), 9);
        assert_eq!(Boundary::Clamp.reindex(10, 10), 9);
        assert_eq!(Boundary::Clamp.reindex(15, 10), 9);
    }

    #[test]
    fn boundary_mirror() {
        assert_eq!(Boundary::Mirror.reindex(-1, 10), 0);
        assert_eq!(Boundary::Mirror.reindex(-2, 10), 1);
        assert_eq!(Boundary::Mirror.reindex(10, 10), 9);
        assert_eq!(Boundary::Mirror.reindex(11, 10), 8);
        assert_eq!(Boundary::Mirror.reindex(3, 10), 3);
    }

    #[test]
    fn boundary_wrap() {
        assert_eq!(Boundary::Wrap.reindex(-1, 10), 9);
        assert_eq!(Boundary::Wrap.reindex(10, 10), 0);
        assert_eq!(Boundary::Wrap.reindex(12, 10), 2);
        assert_eq!(Boundary::Wrap.reindex(5, 10), 5);
    }

    #[test]
    fn boundary_results_always_in_bounds() {
        for b in [Boundary::Clamp, Boundary::Mirror, Boundary::Wrap] {
            for n in 1..6 {
                for i in -3 * n..3 * n {
                    let r = b.reindex(i, n);
                    assert!((0..n).contains(&r), "{b:?}({i}, {n}) = {r} out of bounds");
                }
            }
        }
    }

    #[test]
    fn arity() {
        assert_eq!(Pattern::Join.arity(), 1);
        assert_eq!(Pattern::Zip { arity: 3 }.arity(), 3);
        assert_eq!(
            Pattern::Reduce {
                kind: ReduceKind::Par,
                f: FunDecl::pattern(Pattern::Id)
            }
            .arity(),
            2
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(
            Pattern::Slide {
                size: 3.into(),
                step: 1.into()
            }
            .to_string(),
            "slide(3, 1)"
        );
        assert_eq!(
            Pattern::Map {
                kind: MapKind::Glb(0),
                f: FunDecl::pattern(Pattern::Id)
            }
            .to_string(),
            "mapGlb0"
        );
    }

    #[test]
    #[should_panic(expected = "empty array")]
    fn reindex_empty_panics() {
        Boundary::Clamp.reindex(0, 0);
    }
}
