//! Exit-code table certification against the real `rfsp` binary.
//!
//! The in-process table (`run_cli` unit tests) covers codes 0/1/2; this
//! suite checks them against the binary and adds the one that needs
//! genuine signal delivery: a SIGINT'd
//! long run must exit 3 **after** writing a resumable checkpoint, and the
//! resume must then run to completion with exit 0.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rfsp");

fn code(args: &[&str]) -> i32 {
    let out = Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("spawn rfsp");
    out.status.code().expect("no exit code")
}

#[test]
fn codes_zero_one_and_two_against_the_binary() {
    assert_eq!(code(&["help"]), 0);
    assert_eq!(code(&["writeall", "--n", "32", "--p", "8"]), 0);
    // Usage errors: unknown command, stray positional, unknown option.
    assert_eq!(code(&["bogus"]), 2);
    assert_eq!(code(&["writeall", "stray"]), 2);
    assert_eq!(code(&["writeall", "--n", "64", "--p", "8", "--thraeds", "2"]), 2);
    assert_eq!(code(&["writeall", "--batch-width", "1"]), 2);
    // Runtime errors: known command that fails while running.
    assert_eq!(code(&["writeall", "--algo", "zzz"]), 1);
    assert_eq!(code(&["experiment", "--resume", "/no/such/ck.json"]), 1);
}

/// `--help` prints the command's usage and exits 0 without running it:
/// `experiment` would otherwise start the whole e1–e13 suite and `serve`
/// would start a daemon.
#[test]
fn help_on_a_command_prints_its_usage_without_running() {
    for command in ["experiment", "serve"] {
        let start = Instant::now();
        let out = Command::new(BIN).args([command, "--help"]).output().expect("spawn rfsp");
        assert_eq!(out.status.code(), Some(0), "{command} --help");
        assert!(start.elapsed() < Duration::from_secs(5), "{command} --help ran the command");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.starts_with(&format!("USAGE: rfsp {command} ")), "{text}");
    }
}

#[cfg(unix)]
#[test]
fn sigint_exits_three_with_a_resumable_checkpoint() {
    let dir = std::env::temp_dir().join(format!("rfsp-exit3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.json");
    let ck_s = ck.to_str().unwrap();

    // Sized so the run is still thousands of ticks from completion when
    // the first checkpoint lands (the kill window), without drowning the
    // test in checkpoint serialization time.
    let mut child = Command::new(BIN)
        .args([
            "experiment",
            "--run",
            "writeall",
            "--algo",
            "x",
            "--n",
            "1024",
            "--p",
            "8",
            "--adversary",
            "random",
            "--rate",
            "0.1",
            "--restart-rate",
            "0.5",
            "--seed",
            "9",
            "--every",
            "50",
            "--checkpoint",
            ck_s,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn long run");

    // Wait for the first checkpoint so the interrupt provably lands on a
    // run that has state to save.
    let start = Instant::now();
    while !Path::new(ck_s).exists() {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("run finished before it could be interrupted: {status}");
        }
        assert!(start.elapsed() < Duration::from_secs(60), "no checkpoint appeared");
        // Tight poll: in release builds the whole run is fast, so the
        // interrupt must land promptly after the first checkpoint.
        std::thread::sleep(Duration::from_millis(2));
    }
    let killed =
        Command::new("kill").args(["-INT", &child.id().to_string()]).status().expect("send SIGINT");
    assert!(killed.success(), "kill -INT failed");
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(3), "interrupted-with-checkpoint must exit 3");

    // The checkpoint it left behind resumes to completion (exit 0).
    assert_eq!(code(&["experiment", "--resume", ck_s]), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
