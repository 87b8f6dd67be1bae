//! Runs the benchmark binary from outside: the smoke mode runs every
//! workload with every metric checked, and bad arguments fail before
//! any result is printed. Run with `--release`.

use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(args)
        .output()
        .expect("run e2ebench")
}

#[test]
fn smoke_mode_reports_every_metric_with_its_unit() {
    let out = bench(&["--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("smoke OK"), "{stdout}");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "scale_alltoall", "--trace", "2"][..],
        &["--workload", "scale_alltoall", "--seed", "x"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
