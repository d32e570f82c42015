//! The `repro` command line: unknown experiment ids are a usage error that
//! runs nothing, and `repro list` names every experiment.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn unknown_experiment_id_exits_2_and_runs_nothing() {
    for args in [&["fig6z"][..], &["fig6a", "fig6z", "--scale", "0.02"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(
            out.stdout.is_empty(),
            "repro {args:?} printed a report: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("fig6z"), "stderr names the id: {stderr}");
        assert!(!stderr.contains("== running"), "ran something: {stderr}");
    }
}

#[test]
fn list_names_every_experiment() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, mcfs_bench::experiments::ALL_IDS);
}
