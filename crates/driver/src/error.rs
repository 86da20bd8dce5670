//! The unified error type for the whole pipeline.
//!
//! Every crate below the driver reports failures with its own error type
//! (`TypeError`, `EvalError`, `ViewError`, `CodegenError`, `SimError`,
//! `EvalArithError`, `PpcgError`). The driver folds them into one
//! [`LiftError`] enum with `From` conversions and [`std::error::Error`]
//! source chaining, so `?` works across every stage of a
//! [`Pipeline`](crate::Pipeline) session and callers match on one type.

use std::error::Error;
use std::fmt;

use lift_arith::EvalArithError;
use lift_codegen::view::ViewError;
use lift_codegen::CodegenError;
use lift_core::eval::EvalError;
use lift_core::typecheck::TypeError;
use lift_oclsim::SimError;
use lift_ppcg::PpcgError;

/// Any failure a pipeline session can produce, from type checking through
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub enum LiftError {
    /// The program is ill-typed.
    Type(TypeError),
    /// The reference evaluator rejected the program or its inputs.
    Eval(EvalError),
    /// A view access could not be resolved during code generation.
    View(ViewError),
    /// OpenCL code generation failed.
    Codegen(CodegenError),
    /// The virtual device rejected or faulted on a kernel.
    Sim(SimError),
    /// Static verification found the kernel unsafe for a launch
    /// configuration (out-of-bounds access, barrier divergence, local-memory
    /// race, uninitialized read, or local-memory overflow) before any
    /// simulation ran.
    Verify {
        /// The kernel (C function) name.
        kernel: String,
        /// Every finding the verifier produced for this launch.
        findings: Vec<lift_oclsim::VerifyFinding>,
    },
    /// Symbolic size arithmetic could not be evaluated.
    Arith(EvalArithError),
    /// The PPCG baseline compiler failed.
    Ppcg(PpcgError),
    /// No benchmark with the given name exists in the Table-1 suite.
    UnknownBenchmark(String),
    /// The requested variant was not produced by exploration.
    UnknownVariant {
        /// The name the caller asked for.
        requested: String,
        /// The names exploration actually produced.
        available: Vec<String>,
    },
    /// A configuration was rejected before compilation (bad parameter name,
    /// invalid tunable value, unusable launch geometry, …).
    InvalidConfig(String),
    /// Exploration + tuning found no configuration that compiles, runs and
    /// validates.
    NoValidConfiguration {
        /// The program or benchmark being tuned.
        program: String,
        /// The device profile name.
        device: String,
        /// The first failure each variant hit (variant name → error), in
        /// exploration order — the diagnosis that used to be swallowed
        /// when every evaluation collapsed to "no score". Empty only when
        /// a variant proposed no evaluable configuration at all.
        failures: Vec<(String, Box<LiftError>)>,
    },
    /// A kernel executed but produced results diverging from the reference.
    Validation {
        /// The variant that diverged.
        variant: String,
        /// What diverged.
        detail: String,
    },
    /// A tuning checkpoint could not be read, written, parsed or matched
    /// to the current run (I/O failure, corrupt JSON, a `schema_version`
    /// this build does not read, or a record made with another seed or
    /// budget, or that the search's proposals leave). A record that does
    /// not match fails the whole tuning run and names its variant.
    Checkpoint(String),
    /// The pipeline stage cannot handle this program shape.
    Unsupported(String),
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::Type(e) => write!(f, "{e}"),
            LiftError::Eval(e) => write!(f, "{e}"),
            LiftError::View(e) => write!(f, "{e}"),
            LiftError::Codegen(e) => write!(f, "{e}"),
            LiftError::Sim(e) => write!(f, "simulation error: {e}"),
            LiftError::Verify { kernel, findings } => {
                write!(
                    f,
                    "static verification failed for kernel `{kernel}` ({} finding{})",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" }
                )?;
                for x in findings {
                    write!(f, ": {x}")?;
                }
                Ok(())
            }
            LiftError::Arith(e) => write!(f, "arithmetic error: {e}"),
            LiftError::Ppcg(e) => write!(f, "{e}"),
            LiftError::UnknownBenchmark(n) => write!(f, "unknown benchmark `{n}`"),
            LiftError::UnknownVariant {
                requested,
                available,
            } => write!(
                f,
                "unknown variant `{requested}`; exploration produced {available:?}"
            ),
            LiftError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            LiftError::NoValidConfiguration {
                program,
                device,
                failures,
            } => {
                write!(f, "no valid configuration found for {program} on {device}")?;
                if !failures.is_empty() {
                    write!(f, "; first failure per variant:")?;
                    for (variant, err) in failures {
                        write!(f, " [`{variant}`: {err}]")?;
                    }
                }
                Ok(())
            }
            LiftError::Validation { variant, detail } => {
                write!(f, "variant `{variant}` failed validation: {detail}")
            }
            LiftError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            LiftError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl Error for LiftError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LiftError::Type(e) => Some(e),
            LiftError::Eval(e) => Some(e),
            LiftError::View(e) => Some(e),
            LiftError::Codegen(e) => Some(e),
            LiftError::Sim(e) => Some(e),
            LiftError::Arith(e) => Some(e),
            LiftError::Ppcg(e) => Some(e),
            LiftError::NoValidConfiguration { failures, .. } => failures
                .first()
                .map(|(_, e)| &**e as &(dyn Error + 'static)),
            _ => None,
        }
    }
}

impl From<TypeError> for LiftError {
    fn from(e: TypeError) -> Self {
        LiftError::Type(e)
    }
}

impl From<EvalError> for LiftError {
    fn from(e: EvalError) -> Self {
        LiftError::Eval(e)
    }
}

impl From<ViewError> for LiftError {
    fn from(e: ViewError) -> Self {
        LiftError::View(e)
    }
}

impl From<CodegenError> for LiftError {
    fn from(e: CodegenError) -> Self {
        LiftError::Codegen(e)
    }
}

impl From<SimError> for LiftError {
    fn from(e: SimError) -> Self {
        LiftError::Sim(e)
    }
}

impl From<EvalArithError> for LiftError {
    fn from(e: EvalArithError) -> Self {
        LiftError::Arith(e)
    }
}

impl From<PpcgError> for LiftError {
    fn from(e: PpcgError) -> Self {
        LiftError::Ppcg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift_core::prelude::*;

    #[test]
    fn source_chains_to_the_originating_crate_error() {
        // An ill-typed application: map over a scalar.
        let bad = lam(Type::f32(), |x| map(add_f32(), x));
        let err: LiftError = typecheck_fun(&bad).unwrap_err().into();
        let src = err.source().expect("wraps a TypeError");
        assert!(src.is::<TypeError>(), "source is the original TypeError");
        assert!(err.to_string().contains("type error"));
    }

    #[test]
    fn question_mark_converts_across_stages() {
        fn stage() -> Result<(), LiftError> {
            let n = lift_arith::ArithExpr::var("N");
            let val = n.eval(&lift_arith::Bindings::new());
            val?;
            Ok(())
        }
        let err = stage().unwrap_err();
        assert!(matches!(err, LiftError::Arith(_)));
        assert!(err.source().unwrap().is::<EvalArithError>());
    }
}
