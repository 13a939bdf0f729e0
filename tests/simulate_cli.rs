//! The `simulate` binary's report of a rejected configuration.
//!
//! `ConfigError`'s message already starts with "invalid configuration:",
//! so the binary must print it as is. Each of its three run paths (one
//! run, replicated runs, and one run streaming a trace) is driven with a
//! lockspace too small to give every site a slice.

use std::process::Command;

#[test]
fn rejected_configuration_is_reported_once() {
    let trace = format!("{}/rejected.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let paths: [&[&str]; 3] = [
        &["--lockspace", "5"],
        &["--lockspace", "5", "--reps", "2"],
        &["--lockspace", "5", "--trace-out", &trace],
    ];
    for args in paths {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(args)
            .output()
            .expect("simulate runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited successfully");
        assert_eq!(
            stderr.matches("invalid configuration:").count(),
            1,
            "{args:?} printed {stderr:?}"
        );
        assert!(
            stderr.contains("lockspace slice per site must be non-empty"),
            "{args:?} printed {stderr:?}"
        );
    }
}
