//! The benchmark's checks fire: each deliberately wrong input makes the
//! run report `"correct": false` and exit nonzero, while the same run
//! without it passes.

use std::process::Command;

/// Run the benchmark; returns whether it exited 0 and its standard
/// output.
fn perfbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn direct(trace: &str, inject: Option<&str>) -> (bool, String) {
    let mut args = vec![
        "--workload",
        "direct-mixed",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ];
    if let Some(fault) = inject {
        args.extend(["--inject", fault]);
    }
    perfbench(&args)
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

/// Inject `fault` and expect the run to fail with a check whose message
/// contains `check`.
fn assert_caught(fault: &str, check: &str) {
    let (ok, stdout) = direct("0", Some(fault));
    assert!(!ok, "{fault}: the run exited 0:\n{stdout}");
    assert!(
        result_line(&stdout).starts_with("{\"correct\": false,"),
        "{fault}: {stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("CHECK FAILED") && l.contains(check)),
        "{fault}: no failed check mentions {check:?}:\n{stdout}"
    );
}

#[test]
fn flipped_satellite_word_fails_the_run() {
    assert_caught("flip-satellite", "model has");
}

#[test]
fn miss_costing_two_ios_outside_a_rebuild_fails_the_run() {
    assert_caught("miss-two-ios", "cost 2 parallel I/Os (rebuilding: false");
}

#[test]
fn lost_acknowledged_write_fails_the_run() {
    assert_caught("lost-write", "final sweep");
}

#[test]
fn clean_run_passes_and_prints_every_end_to_end_metric() {
    let (ok, stdout) = direct("0", None);
    assert!(ok, "{stdout}");
    let line = result_line(&stdout);
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    for name in [
        "setup_s",
        "ops_per_s",
        "lookup_p90_us",
        "insert_p50_us",
        "delete_p90_us",
    ] {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}: {line}"
        );
    }
}

#[test]
fn traced_run_agrees_with_its_untraced_twin_and_prints_per_layer_metrics() {
    let (ok, stdout) = direct("1", None);
    assert!(ok, "{stdout}");
    let line = result_line(&stdout);
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    assert_eq!(line.matches("\"unit\"").count(), 36, "{line}");
    assert!(
        line.contains("\"dict.lookup_ios\": {\"value\": 1."),
        "{line}"
    );
}

#[test]
fn malformed_arguments_are_refused() {
    for args in [
        "--workload direct-mixed --seed 1 --trace 0",
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload direct-mixed --seed x --seconds 1 --trace 0",
        "--workload direct-mixed --seed 1 --seconds 1 --trace 2",
    ] {
        let (ok, stdout) = perfbench(&args.split(' ').collect::<Vec<_>>());
        assert!(!ok, "{args} was accepted");
        assert!(!stdout.contains("\"correct\""), "{args} printed a result");
    }
}
