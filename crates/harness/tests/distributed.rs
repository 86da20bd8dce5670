//! The distributed-tuning contract, exercised through the real binary:
//! shard + merge and kill + resume both reproduce the single-process JSON
//! document byte-for-byte, and the new CLI surfaces fail loudly on
//! misuse.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_lift-harness"));
    // Keep the virtual-device work small: the contract under test is
    // byte-identity, not tuning quality.
    c.env("LIFT_TUNE_BUDGET", "2");
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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lift-dist-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const BENCH: &str = "Jacobi2D5pt";

#[test]
fn shards_merge_byte_identically_to_the_single_process_run() {
    let reference = stdout_of(bin().args(["--json", "bench", BENCH]));
    let dir = tmp_dir("merge");
    let mut files = Vec::new();
    for i in 0..2 {
        let part = stdout_of(bin().args(["--json", "--shard", &format!("{i}/2"), "bench", BENCH]));
        let path = dir.join(format!("part{i}.json"));
        std::fs::write(&path, part).expect("write part");
        files.push(path.display().to_string());
    }
    let mut merge = bin();
    merge.arg("merge").args(&files);
    assert_eq!(
        stdout_of(&mut merge),
        reference,
        "merge(shards) != single run"
    );
    // Shard 1 under another seed is a part of another run: merging it with
    // shard 0 fails (exit 1) and names the setting.
    let reseeded = stdout_of(
        bin()
            .args(["--json", "--shard", "1/2", "bench", BENCH])
            .env("LIFT_SEED", "7"),
    );
    let path = dir.join("part1-seed7.json");
    std::fs::write(&path, reseeded).expect("write part");
    let out = bin()
        .arg("merge")
        .arg(&files[0])
        .arg(&path)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("`seed`"), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_checkpointed_run_resumes_byte_identically() {
    let dir = tmp_dir("resume");
    let ck = dir.join("ck.json");
    let ck = ck.display().to_string();
    // A slightly larger budget so the kill lands mid-tuning (if the run
    // beats the kill, resume simply replays a complete checkpoint — the
    // assertion holds either way).
    let budget = "6";
    let reference = stdout_of(
        bin()
            .args(["--json", "bench", BENCH])
            .env("LIFT_TUNE_BUDGET", budget),
    );
    let mut victim = bin()
        .args(["--json", "--checkpoint", &ck, "bench", BENCH])
        .env("LIFT_TUNE_BUDGET", budget)
        .env("LIFT_CHECKPOINT_EVERY", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    std::thread::sleep(std::time::Duration::from_millis(700));
    victim.kill().ok();
    victim.wait().ok();
    let resumed = stdout_of(
        bin()
            .args(["--json", "--checkpoint", &ck, "bench", BENCH])
            .env("LIFT_TUNE_BUDGET", budget)
            .env("LIFT_CHECKPOINT_EVERY", "1"),
    );
    assert_eq!(resumed, reference, "resume-after-kill != uninterrupted run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_mode_derives_its_own_checkpoint_path() {
    // Checkpoint managers rewrite their whole file from process-local
    // state, so concurrent shard workers must never share one path: shard
    // mode derives `<path>.shard<i>of<n>` whether the base path came from
    // the flag, the environment, or a campaign supervisor.
    let dir = tmp_dir("shard-ck");
    let base = dir.join("ck.json");
    let base_str = base.display().to_string();
    stdout_of(
        bin()
            .args([
                "--json",
                "--shard",
                "0/2",
                "--checkpoint",
                &base_str,
                "bench",
                BENCH,
            ])
            .env("LIFT_CHECKPOINT_EVERY", "1"),
    );
    assert!(
        dir.join("ck.json.shard0of2").exists(),
        "the worker writes its derived file"
    );
    assert!(
        !base.exists(),
        "the shared base path is never written by a shard worker"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_benchmarks_names_the_whole_suite() {
    let text = stdout_of(bin().arg("--list-benchmarks"));
    let json = stdout_of(bin().args(["--list-benchmarks", "--json"]));
    for b in lift_stencils::suite() {
        assert!(text.contains(b.name), "text listing misses {}", b.name);
        assert!(
            json.contains(&format!("\"name\": \"{}\"", b.name)),
            "json listing misses {}",
            b.name
        );
    }
    assert!(text.contains("3D"), "ranks are listed");
}

#[test]
fn cli_misuse_fails_loudly() {
    // (args, environment, expected exit code)
    type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)], i32);
    let cases: &[Case] = &[
        (&["--shard", "0/2", "bench", BENCH], &[], 2), // no --json
        (&["--shard", "3/2", "--json", "fig7"], &[], 2), // i >= n
        (&["--shard", "zero/2", "--json", "fig7"], &[], 2),
        (&["--shard", "0/2", "--json", "table1"], &[], 2), // not shardable
        (&["merge"], &[], 2),                              // no files
        (&["merge", "/no/such/file.json"], &[], 1),
        // Selection flags are never silently ignored.
        (&["--shard", "0/2", "verify"], &[], 2),
        (&["--large", "verify"], &[], 2),
        (&["--shard", "0/2", "merge", "/no/such/file.json"], &[], 2),
        (&["--large", "merge", "/no/such/file.json"], &[], 2),
        (&["--shard", "0/2", "--list-benchmarks"], &[], 2),
        (&["--large", "--list-benchmarks"], &[], 2),
        (&["--large", "--json", "fig7"], &[], 2),
        // Retired commands.
        (&["model"], &[], 2),
        (&["compare", "a.json", "b.json"], &[], 2),
        (&["--checkpoint"], &[], 2), // missing value
        (&["--threads", "0", "table1"], &[], 2),
        (&["bench", "NoSuch"], &[], 2), // unknown benchmark
        // Malformed variables are usage errors, never silent defaults.
        (&["table1"], &[("LIFT_TUNE_BUDGET", "abc")], 2),
        (&["table1"], &[("LIFT_TUNE_BUDGET", "0")], 2),
        (&["table1"], &[("LIFT_SEED", "x")], 2),
        (&["table1"], &[("LIFT_TUNE_THREADS", "0")], 2),
        (&["table1"], &[("LIFT_CHECKPOINT_EVERY", "abc")], 2),
        (&["table1"], &[("LIFT_FULL_SIZES", "true")], 2),
    ];
    for (args, env, want) in cases {
        let out = bin()
            .args(*args)
            .envs(env.iter().copied())
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(*want),
            "args {args:?} env {env:?}: stderr {stderr}"
        );
        assert!(!stderr.is_empty(), "args {args:?} must explain the failure");
        for (name, _) in *env {
            assert!(stderr.contains(name), "the message names {name}: {stderr}");
        }
        for flag in ["--shard", "--large"] {
            if args.contains(&flag) {
                assert!(stderr.contains(flag), "the message names {flag}: {stderr}");
            }
        }
    }
    // --help succeeds and documents the surfaces.
    let help = stdout_of(bin().arg("--help"));
    for needle in [
        "--shard",
        "--checkpoint",
        "merge",
        "--list-benchmarks",
        "ENVIRONMENT",
    ] {
        assert!(help.contains(needle), "--help misses {needle}");
    }
    for removed in [
        "--spawn-workers",
        "lift-harness model",
        "lift-harness compare",
    ] {
        assert!(
            !help.contains(removed),
            "--help documents removed `{removed}`"
        );
    }
}
