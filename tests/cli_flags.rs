//! The built `vcsched` binary refuses a flag its verb does not know,
//! exits non-zero, and names the flag, before it does any work or opens
//! any connection.

use std::process::Command;

#[test]
fn unknown_flags_fail_and_name_the_flag() {
    for (args, flag) in [
        (
            &["batch", "--bench", "130.li", "--count", "1", "--bogus-flag"][..],
            "--bogus-flag",
        ),
        // An unknown switch must not take the verb after it as its value.
        (&["request", "--adaptive", "ping"][..], "--adaptive"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vcsched"))
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "vcsched {args:?} exited 0");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "vcsched {args:?}: {stderr}"
        );
    }
}
