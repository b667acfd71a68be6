//! `replay` at its command line: a bad `generate` argument or a capture flag
//! without its path is a usage error (exit 2, the flag named on stderr),
//! never a panic; good ones round-trip through a profile file into
//! `replay replay`, with the overload queue armed or not, and `--trace` /
//! `--metrics` write their captures.

use std::path::PathBuf;
use std::process::{Command, Output};

fn replay(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .output()
        .expect("run the replay binary")
}

fn scratch(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    path.to_string_lossy().into_owned()
}

/// Runs `replay generate --out <profile> <generate>`, asserting success.
fn generate(profile: &str, generate: &str) {
    let mut args = vec!["generate", "--out", profile];
    args.extend(generate.split(' '));
    let run = replay(&args);
    assert!(run.status.success(), "generate {generate}: {run:?}");
}

/// Asserts that `run` is a usage error naming `flag`, not a panic.
fn assert_usage_error(run: &Output, flag: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(
        run.status.code(),
        Some(2),
        "{what}: want a usage error, got {:?}: {stderr}",
        run.status
    );
    assert!(
        stderr.contains(flag) && !stderr.contains("panicked"),
        "{what}: {stderr}"
    );
}

#[test]
fn bad_generate_arguments_are_usage_errors() {
    let out = scratch("replay_cli_rejected.profile");
    for (flag, value) in [
        ("--sessions", "0"),
        ("--duration", "0"),
        ("--duration", "-1"),
        ("--duration", "nan"),
        ("--duration", "inf"),
        ("--streaming", "1.5"),
        ("--streaming", "-0.2"),
        ("--streaming", "nan"),
    ] {
        let run = replay(&["generate", "--out", &out, flag, value]);
        assert_usage_error(&run, flag, &format!("generate {flag} {value}"));
    }
}

#[test]
fn generated_profile_replays() {
    // (profile file, `generate` flags, `replay` flags, session count): an
    // all-streaming profile on one thread, and a flash crowd on four threads
    // against a two-session server with the overload queue armed.
    for (file, generate_flags, replay_flags, sessions) in [
        (
            "replay_cli.profile",
            "--seed 42 --sessions 4 --duration 0.2 --streaming 1",
            "--threads 1",
            "4 sessions",
        ),
        (
            "replay_cli_flash.profile",
            "--seed 11 --sessions 16 --duration 0.4 --arrivals flash",
            "--threads 4 --max-sessions 2 --queue-cap 6 --slack 2.0",
            "16 sessions",
        ),
    ] {
        let profile = scratch(file);
        generate(&profile, generate_flags);
        let mut args = vec!["replay", "--profile", &profile];
        args.extend(replay_flags.split(' '));
        let replayed = replay(&args);
        let stdout = String::from_utf8_lossy(&replayed.stdout);
        assert!(replayed.status.success(), "{replay_flags}: {replayed:?}");
        assert!(stdout.contains(sessions), "{replay_flags}: {stdout}");
    }
}

#[test]
fn trace_and_metrics_are_written() {
    let profile = scratch("replay_cli_capture.profile");
    let (trace, metrics) = (scratch("replay_cli.trace.json"), scratch("replay_cli.prom"));
    generate(&profile, "--seed 7 --sessions 2 --duration 0.1");
    let run = replay(&[
        "replay",
        "--profile",
        &profile,
        "--trace",
        &trace,
        "--metrics",
        &metrics,
    ]);
    assert!(run.status.success(), "{run:?}");

    let json = std::fs::read_to_string(&trace).expect("the chrome trace was written");
    assert!(
        json.starts_with("{\"displayTimeUnit\"") && json.trim_end().ends_with("]}"),
        "not a chrome-trace document: {json}"
    );
    // Metadata records (`"ph":"M"`) are written even with nothing recorded;
    // a span or an instant is an event the replay produced.
    let events = json
        .lines()
        .filter(|l| l.contains("\"ph\":\"X\"") || l.contains("\"ph\":\"i\""))
        .count();
    assert!(events >= 1, "no span or instant in the trace: {json}");

    let prom = std::fs::read_to_string(&metrics).expect("the Prometheus text was written");
    assert!(
        prom.lines().any(|l| l.starts_with("cicero_")),
        "no cicero_ sample in the Prometheus text: {prom}"
    );
}

#[test]
fn capture_flags_without_a_path_are_usage_errors() {
    let profile = scratch("replay_cli_missing.profile");
    generate(&profile, "--seed 7 --sessions 2 --duration 0.1");
    for flag in ["--trace", "--metrics"] {
        let run = replay(&["replay", "--profile", &profile, flag]);
        assert_usage_error(&run, flag, &format!("replay {flag}"));
    }
}
