//! Deterministic fault injection for supervision tests.
//!
//! Long-running campaigns must survive workers that crash, hang or corrupt
//! their checkpoints — and the supervisor that provides that survival has
//! to be testable without flaky sleeps or real hardware faults. This seam
//! injects the three failure classes *deterministically*, at well-defined
//! points of the tuning loop, controlled by one [`FaultPlan`] that the
//! process [`arm`]s once (the `lift-harness` binary parses it from
//! `LIFT_FAULT`):
//!
//! | plan                         | effect                                       |
//! |------------------------------|----------------------------------------------|
//! | `exit-after:<k>`             | the process exits with [`FAULT_EXIT_CODE`] once `k` tuner tells have been applied (a crash mid-tune) |
//! | `stall` / `stall-after:<k>`  | the tuning thread sleeps forever after `k` tells (a hung worker; only a kill ends it) |
//! | `truncate-checkpoint:<k>`    | the `k`-th checkpoint write (1-based) writes a truncated file *directly over the target* — deliberately bypassing the atomic temp+rename path — and exits (a torn write by a dying machine) |
//!
//! The hooks are threaded through the two layers a real fault would hit:
//! `after_tell` fires from the tuning loop (`tune_variant`) after each
//! fresh tell is applied and checkpointed, and
//! `sabotage_checkpoint_write` fires from the checkpoint writer. Tells
//! and writes are counted process-wide, so `exit-after:3` means "the third
//! applied tell anywhere in this process" regardless of which variant or
//! sweep cell produced it — exactly reproducible for a fixed seed and
//! budget.
//!
//! An unarmed process runs every hook as a no-op (the counters are never
//! even consulted). Plans are parsed with [`parse_plan`] by the caller, so
//! junk is a usage error at the edge rather than a half-understood fault.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The exit code of a process killed by an injected `exit-after` or
/// `truncate-checkpoint` fault — distinct from every real exit code the
/// harness uses, so a supervisor (or a test) can tell an injected crash
/// from a genuine failure.
pub const FAULT_EXIT_CODE: i32 = 86;

/// One parsed fault plan (see the module docs for the syntax).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Exit with [`FAULT_EXIT_CODE`] once this many tells were applied.
    ExitAfterTells(u64),
    /// Sleep forever once this many tells were applied.
    StallAfterTells(u64),
    /// Truncate the n-th checkpoint write (1-based) and exit.
    TruncateCheckpointWrite(u64),
}

/// Parses a fault plan string (see the module docs for the syntax).
///
/// # Errors
///
/// A description of what is wrong with `s`, for a usage message.
pub fn parse_plan(s: &str) -> Result<FaultPlan, String> {
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    let count = |arg: Option<&str>, default: u64| -> Result<u64, String> {
        match arg {
            None => Ok(default),
            Some(a) => a
                .parse::<u64>()
                .map_err(|_| format!("`{a}` is not a non-negative integer")),
        }
    };
    match kind {
        "exit-after" => Ok(FaultPlan::ExitAfterTells(count(arg, 0)?)),
        "stall" | "stall-after" => Ok(FaultPlan::StallAfterTells(count(arg, 0)?)),
        "truncate-checkpoint" => {
            let k = count(arg, 1)?;
            if k == 0 {
                return Err("truncate-checkpoint counts writes from 1".into());
            }
            Ok(FaultPlan::TruncateCheckpointWrite(k))
        }
        other => Err(format!(
            "unknown fault `{other}`; use exit-after:<k>, stall[-after:<k>] or \
             truncate-checkpoint:<k>"
        )),
    }
}

/// The plan armed for this process, if any.
static PLAN: OnceLock<FaultPlan> = OnceLock::new();

/// Arms `plan` for the rest of this process. The first plan armed wins;
/// later calls are ignored, so the counters always refer to one plan.
pub fn arm(plan: FaultPlan) {
    let _ = PLAN.set(plan);
}

fn active() -> Option<FaultPlan> {
    PLAN.get().copied()
}

/// Process-wide applied-tell counter (only advanced while a plan is armed).
static TELLS: AtomicU64 = AtomicU64::new(0);
/// Process-wide checkpoint-write counter (ditto).
static CHECKPOINT_WRITES: AtomicU64 = AtomicU64::new(0);
/// A stall fires once; racing tuner threads must not all announce it.
static STALLED: AtomicBool = AtomicBool::new(false);

/// Tuning-loop hook: one more tell was just applied (and, when
/// checkpointing is on, recorded). Fires `exit-after` / `stall` plans.
pub(crate) fn after_tell() {
    let Some(plan) = active() else { return };
    let total = TELLS.fetch_add(1, Ordering::SeqCst) + 1;
    match plan {
        FaultPlan::ExitAfterTells(k) if total >= k => {
            eprintln!("lift-driver: injected fault: exiting after {total} applied tells");
            std::process::exit(FAULT_EXIT_CODE);
        }
        FaultPlan::StallAfterTells(k) if total >= k => {
            if !STALLED.swap(true, Ordering::SeqCst) {
                eprintln!("lift-driver: injected fault: stalling after {total} applied tells");
            }
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        _ => {}
    }
}

/// Checkpoint-writer hook, called with the fully-rendered document just
/// before the atomic temp+rename write. When a `truncate-checkpoint` plan
/// targets this write, the first half of the document is written *directly
/// over* `path` — a torn write no atomic rename can produce on its own —
/// and the process exits; otherwise this is a no-op and the caller
/// proceeds with the normal atomic write.
pub(crate) fn sabotage_checkpoint_write(path: &Path, rendered: &str) {
    let Some(FaultPlan::TruncateCheckpointWrite(k)) = active() else {
        return;
    };
    let n = CHECKPOINT_WRITES.fetch_add(1, Ordering::SeqCst) + 1;
    if n == k {
        let cut = rendered.len() / 2;
        let _ = std::fs::write(path, &rendered.as_bytes()[..cut]);
        eprintln!(
            "lift-driver: injected fault: truncated checkpoint write {n} over {}",
            path.display()
        );
        std::process::exit(FAULT_EXIT_CODE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_and_reject_junk() {
        assert_eq!(parse_plan("exit-after:3"), Ok(FaultPlan::ExitAfterTells(3)));
        assert_eq!(parse_plan("exit-after"), Ok(FaultPlan::ExitAfterTells(0)));
        assert_eq!(parse_plan("stall"), Ok(FaultPlan::StallAfterTells(0)));
        assert_eq!(
            parse_plan("stall-after:7"),
            Ok(FaultPlan::StallAfterTells(7))
        );
        assert_eq!(
            parse_plan("truncate-checkpoint"),
            Ok(FaultPlan::TruncateCheckpointWrite(1))
        );
        assert_eq!(
            parse_plan("truncate-checkpoint:2"),
            Ok(FaultPlan::TruncateCheckpointWrite(2))
        );
        assert!(parse_plan("truncate-checkpoint:0").is_err());
        assert!(parse_plan("exit-after:x").is_err());
        assert!(parse_plan("segfault").is_err());
        assert!(parse_plan("stall-after:-1").is_err());
    }
}
