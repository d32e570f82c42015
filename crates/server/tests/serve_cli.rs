//! The `mcfs-serve` command line rejects a flag it does not know, such as
//! `--peer`, with the usage line and a failing exit status, before it
//! binds anything.

use std::process::{Command, Stdio};

#[test]
fn peer_flag_is_rejected_with_the_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcfs-serve"))
        .args(["--addr", "127.0.0.1:0", "--peer", "127.0.0.1:1"])
        .stdin(Stdio::null())
        .output()
        .expect("run mcfs-serve");
    assert!(!out.status.success(), "--peer was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--peer\""), "{stderr}");
    assert!(stderr.contains("usage: mcfs-serve"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("listening"),
        "the server started"
    );
}
