//! The `flint` binary's edges: exit codes a calling script relies on.

use std::process::Command;

/// A cluster with no workers cannot run anything; both entry points
/// report that as the typed engine error (exit 4), not as a panic
/// (exit 5).
#[test]
fn zero_workers_is_a_typed_error_on_run_and_workload() {
    for sub in ["run", "workload"] {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args([sub, "pagerank", "--gb", "0.3", "--partitions", "4"])
            .args(["--iterations", "1", "--workers", "0"])
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "flint {sub}: {stderr}");
        assert!(stderr.contains("run failed"), "flint {sub}: {stderr}");
    }
}
