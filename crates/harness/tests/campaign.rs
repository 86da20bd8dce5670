//! The campaign supervision contract, exercised through the real binary
//! with deterministic fault injection: workers crash, stall and corrupt
//! their checkpoints on command, and the supervisor must retry, adopt,
//! quarantine — and still produce a merged report byte-identical to the
//! fault-free single-process run. Exhausted retries must degrade
//! gracefully: partial document, missing-cell manifest, infra exit code.

use std::process::Command;

use lift_tuner::json::Value;

const BENCH: &str = "Jacobi2D5pt";
/// Injected-fault processes die with this code (see the driver's seam).
const FAULT_EXIT: i32 = 86;
/// Infrastructure-failure exit code of `lift-harness`.
const EXIT_INFRA: i32 = 3;

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_lift-harness"));
    // Small budget: the contract under test is supervision, not tuning.
    c.env("LIFT_TUNE_BUDGET", "2");
    // A campaign inheriting a checkpoint path would anchor its shards
    // there; tests must stay hermetic.
    c.env_remove("LIFT_CHECKPOINT");
    c.env_remove("LIFT_FAULT");
    c
}

fn stdout_of(c: &mut Command) -> String {
    let out = c.output().expect("binary runs");
    assert!(
        out.status.success(),
        "exit {:?}, stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn tmp_summary(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lift-campsum-{tag}-{}.json", std::process::id()))
}

fn summary_u64(summary: &Value, field: &str) -> u64 {
    summary
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("summary field `{field}` missing or not an integer"))
}

#[test]
fn fault_free_campaign_matches_the_single_process_run() {
    let reference = stdout_of(bin().args(["--json", "bench", BENCH]));
    let campaign = stdout_of(bin().args(["campaign", "bench", BENCH, "--workers", "3"]));
    assert_eq!(campaign, reference, "campaign != single run");
}

#[test]
fn crashed_worker_is_retried_via_checkpoint_adoption_byte_identically() {
    let reference = stdout_of(bin().args(["--json", "bench", BENCH]));
    let summary_path = tmp_summary("crash");
    let summary_str = summary_path.display().to_string();
    // Shard 0's first attempt is killed by an injected fault after two
    // applied tells; its replacement must adopt the checkpoint and the
    // merged document must not change by a byte.
    let campaign = stdout_of(bin().args([
        "campaign",
        "bench",
        BENCH,
        "--workers",
        "2",
        "--fault",
        "0:exit-after:2",
        "--summary",
        &summary_str,
    ]));
    assert_eq!(campaign, reference, "faulted campaign != single run");
    let summary = Value::parse(&std::fs::read_to_string(&summary_path).expect("summary written"))
        .expect("summary parses");
    assert!(
        summary_u64(&summary, "total_retries") >= 1,
        "a retry happened"
    );
    assert!(
        summary_u64(&summary, "total_adoptions") >= 1,
        "the replacement adopted the dead worker's checkpoint"
    );
    assert_eq!(summary.get("complete").and_then(Value::as_bool), Some(true));
    // The faulted shard's tally carries its own history.
    let shards = summary
        .get("shards")
        .and_then(Value::as_arr)
        .expect("shards");
    assert!(summary_u64(&shards[0], "attempts") >= 2);
    assert_eq!(shards[0].get("ok").and_then(Value::as_bool), Some(true));
    std::fs::remove_file(&summary_path).ok();
}

#[test]
fn stalled_worker_is_killed_by_the_timeout_and_requeued() {
    let reference = stdout_of(bin().args(["--json", "bench", BENCH]));
    let summary_path = tmp_summary("stall");
    let summary_str = summary_path.display().to_string();
    // Shard 1 stalls immediately (before any checkpoint progress); the
    // liveness timeout must kill it and the requeued attempt completes.
    let campaign = stdout_of(bin().args([
        "campaign",
        "bench",
        BENCH,
        "--workers",
        "2",
        "--timeout",
        "2",
        "--fault",
        "1:stall-after:0",
        "--summary",
        &summary_str,
    ]));
    assert_eq!(campaign, reference, "stalled campaign != single run");
    let summary = Value::parse(&std::fs::read_to_string(&summary_path).expect("summary written"))
        .expect("summary parses");
    assert!(
        summary_u64(&summary, "total_timeouts") >= 1,
        "timeout fired"
    );
    assert!(
        summary_u64(&summary, "total_retries") >= 1,
        "shard requeued"
    );
    std::fs::remove_file(&summary_path).ok();
}

#[test]
fn corrupted_checkpoint_write_is_quarantined_and_converges() {
    let reference = stdout_of(bin().args(["--json", "bench", BENCH]));
    let summary_path = tmp_summary("quar");
    let summary_str = summary_path.display().to_string();
    // Shard 0's first attempt tears its second checkpoint write (a raw
    // truncation over the file, past the atomic rename) and dies; the
    // replacement must quarantine the damage, restart fresh, and still
    // converge byte-identically.
    let campaign = stdout_of(bin().args([
        "campaign",
        "bench",
        BENCH,
        "--workers",
        "2",
        "--fault",
        "0:truncate-checkpoint:2",
        "--summary",
        &summary_str,
    ]));
    assert_eq!(campaign, reference, "quarantined campaign != single run");
    let summary = Value::parse(&std::fs::read_to_string(&summary_path).expect("summary written"))
        .expect("summary parses");
    assert!(
        summary_u64(&summary, "total_quarantines") >= 1,
        "the torn checkpoint was quarantined"
    );
    std::fs::remove_file(&summary_path).ok();
}

#[test]
fn exhausted_retries_degrade_to_a_partial_report_with_manifest() {
    let summary_path = tmp_summary("exhaust");
    let summary_str = summary_path.display().to_string();
    // The failed campaign keeps its private checkpoint dir for a rerun to
    // adopt; a test-owned temp dir keeps it from outliving the test.
    let tmp = std::env::temp_dir().join(format!("lift-campexh-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    // Shard 1 dies instantly on every allowed attempt (retries 0 means
    // one attempt total); shard 0 completes. The campaign must emit the
    // surviving cells, name the missing ones, and exit with the
    // infra-failure code.
    let out = bin()
        .env("TMPDIR", &tmp)
        .args([
            "campaign",
            "bench",
            BENCH,
            "--workers",
            "2",
            "--retries",
            "0",
            "--fault",
            "1:exit-after:0",
            "--summary",
            &summary_str,
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(EXIT_INFRA),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = Value::parse(&std::fs::read_to_string(&summary_path).expect("summary written"))
        .expect("summary parses");
    assert_eq!(
        summary.get("complete").and_then(Value::as_bool),
        Some(false)
    );
    let missing = summary
        .get("missing_cells")
        .and_then(Value::as_arr)
        .expect("manifest present");
    assert!(!missing.is_empty(), "the lost cells are named");
    // The partial document still carries the surviving shard's rows (the
    // bench sweep has 3 cells; shard 1 of 2 owns cell 1).
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(
        doc.contains("\"bench\""),
        "partial document emitted:\n{doc}"
    );
    // stderr names the failure attributably.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shard 1/2"), "attributable diagnosis:\n{err}");
    assert!(err.contains("missing"), "manifest announced:\n{err}");
    assert!(err.contains("keeping campaign checkpoints"), "{err}");
    std::fs::remove_file(&summary_path).ok();
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn injected_fault_kills_a_bare_worker_with_the_fault_code() {
    // The seam itself, without a supervisor: a worker under
    // LIFT_FAULT=exit-after dies with the distinct fault exit code, so
    // supervisors and CI can tell injected crashes from real ones.
    let ck = std::env::temp_dir().join(format!("lift-bare-fault-{}.json", std::process::id()));
    let out = bin()
        .args(["--json", "bench", BENCH])
        .env("LIFT_FAULT", "exit-after:1")
        .env("LIFT_CHECKPOINT", &ck)
        .env("LIFT_CHECKPOINT_EVERY", "1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(FAULT_EXIT));
    assert!(
        ck.exists(),
        "the fault fires after the tell is checkpointed"
    );
    std::fs::remove_file(&ck).ok();
    // Junk plans are a usage error: a run that silently ignored its
    // fault would pass for a survived one.
    let out = bin()
        .args(["--json", "bench", BENCH])
        .env("LIFT_FAULT", "segfault-please")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "junk LIFT_FAULT is misuse");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("LIFT_FAULT"),
        "the message names the variable"
    );
}

#[test]
fn campaign_cli_misuse_fails_loudly() {
    // (args, expected exit code)
    let cases: &[(&[&str], i32)] = &[
        (&["campaign"], 2),                                      // no experiment
        (&["campaign", "table1"], 2),                            // not shardable
        (&["campaign", "bench"], 2),                             // no bench name
        (&["campaign", "bench", "NoSuch", "--workers", "1"], 2), // unknown bench
        (&["campaign", "fig7", "--workers", "0"], 2),            // zero workers
        (&["campaign", "fig7", "--workers", "x"], 2),            // junk workers
        (&["campaign", "fig7", "--timeout", "0"], 2),            // zero timeout
        (&["campaign", "fig7", "--retries", "-1"], 2),           // junk retries
        (&["campaign", "fig7", "--fault", "9:stall"], 2),        // shard out of range
        (&["campaign", "fig7", "--fault", "stall"], 2),          // no shard prefix
        (&["campaign", "fig7", "--fault", "0:segfault"], 2),     // junk plan
        (&["campaign", "fig7", "--shard", "0/2"], 2),            // conflicting mode
        (&["campaign", "fig7", "--large"], 2),                   // --large without bench
        (&["--workers", "2", "fig7"], 2),                        // campaign flag without campaign
        (&["--summary", "/tmp/x", "fig7"], 2),
    ];
    for (args, want) in cases {
        let out = bin().args(*args).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(*want),
            "args {args:?}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !String::from_utf8_lossy(&out.stderr).is_empty(),
            "args {args:?} must explain the failure"
        );
    }
    // --help documents the campaign surface and the exit-code contract.
    let help = stdout_of(bin().arg("--help"));
    for needle in [
        "campaign",
        "--workers",
        "--timeout",
        "--retries",
        "--summary",
        "--fault",
        "EXIT CODES",
        "exit-after",
        "truncate-checkpoint",
    ] {
        assert!(help.contains(needle), "--help misses {needle}");
    }
}
