//! `replay` at its command line: a bad `generate` argument is a usage error
//! (exit 2, the flag named on stderr), never a panic; good ones round-trip
//! through a profile file into `replay replay`.

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
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(
            run.status.code(),
            Some(2),
            "generate {flag} {value}: want a usage error, got {:?}: {stderr}",
            run.status
        );
        assert!(
            stderr.contains(flag) && !stderr.contains("panicked"),
            "generate {flag} {value}: {stderr}"
        );
    }
}

#[test]
fn generated_profile_replays() {
    let profile = scratch("replay_cli.profile");
    let mut args = vec!["generate", "--out", &profile];
    args.extend("--seed 42 --sessions 4 --duration 0.2 --streaming 1".split(' '));
    let generated = replay(&args);
    assert!(generated.status.success(), "{generated:?}");
    let replayed = replay(&["replay", "--profile", &profile, "--threads", "1"]);
    let stdout = String::from_utf8_lossy(&replayed.stdout);
    assert!(replayed.status.success(), "{replayed:?}");
    assert!(stdout.contains("4 sessions"), "{stdout}");
}
