//! Scalar kinds and scalar constant values.

use std::fmt;

/// The scalar element kinds supported by generated OpenCL kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// 32-bit IEEE-754 float (`float` in OpenCL C).
    F32,
    /// 32-bit signed integer (`int` in OpenCL C).
    I32,
    /// Boolean (`bool`/`int` in OpenCL C).
    Bool,
}

impl ScalarKind {
    /// The OpenCL C spelling of the type.
    pub fn c_name(self) -> &'static str {
        match self {
            ScalarKind::F32 => "float",
            ScalarKind::I32 => "int",
            ScalarKind::Bool => "bool",
        }
    }
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarKind::F32 => write!(f, "f32"),
            ScalarKind::I32 => write!(f, "i32"),
            ScalarKind::Bool => write!(f, "bool"),
        }
    }
}

/// A scalar constant, used for IR literals, `padConstant` values and as the
/// runtime value representation of the kernel interpreter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A float value.
    F32(f32),
    /// An integer value.
    I32(i32),
    /// A boolean value.
    Bool(bool),
}

impl Scalar {
    /// The kind of this value.
    pub fn kind(self) -> ScalarKind {
        match self {
            Scalar::F32(_) => ScalarKind::F32,
            Scalar::I32(_) => ScalarKind::I32,
            Scalar::Bool(_) => ScalarKind::Bool,
        }
    }

    /// Interprets the value as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `F32` — kernels are typechecked, so a
    /// kind mismatch at runtime is a compiler bug, not a user error.
    pub fn as_f32(self) -> f32 {
        match self {
            Scalar::F32(v) => v,
            other => panic!("expected f32 scalar, found {other:?}"),
        }
    }

    /// Interprets the value as `i32`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `I32`.
    pub fn as_i32(self) -> i32 {
        match self {
            Scalar::I32(v) => v,
            other => panic!("expected i32 scalar, found {other:?}"),
        }
    }

    /// Interprets the value as `bool`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Bool`.
    pub fn as_bool(self) -> bool {
        match self {
            Scalar::Bool(v) => v,
            other => panic!("expected bool scalar, found {other:?}"),
        }
    }
}

impl From<f32> for Scalar {
    fn from(v: f32) -> Self {
        Scalar::F32(v)
    }
}

impl From<i32> for Scalar {
    fn from(v: i32) -> Self {
        Scalar::I32(v)
    }
}

impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F32(v) => write!(f, "{v:?}f"),
            Scalar::I32(v) => write!(f, "{v}"),
            Scalar::Bool(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip() {
        assert_eq!(Scalar::F32(1.5).kind(), ScalarKind::F32);
        assert_eq!(Scalar::I32(-3).kind(), ScalarKind::I32);
        assert_eq!(Scalar::Bool(true).kind(), ScalarKind::Bool);
    }

    #[test]
    fn accessors() {
        assert_eq!(Scalar::from(2.5f32).as_f32(), 2.5);
        assert_eq!(Scalar::from(7i32).as_i32(), 7);
        assert!(Scalar::from(true).as_bool());
    }

    #[test]
    #[should_panic(expected = "expected f32")]
    fn wrong_kind_panics() {
        let _ = Scalar::I32(1).as_f32();
    }

    #[test]
    fn display() {
        assert_eq!(Scalar::F32(0.0).to_string(), "0.0f");
        assert_eq!(Scalar::I32(42).to_string(), "42");
        assert_eq!(ScalarKind::F32.c_name(), "float");
    }
}
