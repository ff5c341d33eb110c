//! The `flint` binary's edges: exit codes a calling script relies on.

use std::process::{Command, Stdio};

/// A cluster with no workers cannot run anything; both entry points and
/// both `run` backends report that as the typed engine error (exit 4),
/// not as a panic (exit 5) or a run on a worker nobody asked for.
#[test]
fn zero_workers_is_a_typed_error_on_run_and_workload() {
    let cases: [(&str, &[&str]); 3] = [
        ("run", &[]),
        ("workload", &[]),
        ("run", &["--backend", "serverless"]),
    ];
    for (sub, backend) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args([sub, "pagerank", "--gb", "0.3", "--partitions", "4"])
            .args(["--iterations", "1", "--workers", "0"])
            .args(backend)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(4),
            "flint {sub} {backend:?}: {stderr}"
        );
        assert!(
            stderr.contains("run failed"),
            "flint {sub} {backend:?}: {stderr}"
        );
    }
}

/// A numeric flag whose value does not parse is a usage error (exit 1)
/// naming the flag and the value — not a silent run with the default —
/// in every subcommand that reads one, and nothing runs. So is a
/// `--days` outside 1 to 3 650: `0` printed an MTTF of `inf`, and
/// `1000000` ran out of time and memory building the catalog.
#[test]
fn unparsable_numeric_flag_is_a_usage_error_everywhere() {
    let cases: [(&[&str], &str); 12] = [
        (&["run", "pagerank", "--workers", "abc"], "--workers: abc"),
        (&["run", "pagerank", "--gb", "lots"], "--gb: lots"),
        (
            &["workload", "pagerank", "--failures", "-1"],
            "--failures: -1",
        ),
        (&["markets", "--days", "3.5"], "--days: 3.5"),
        (&["markets", "--days", "0"], "--days: 0"),
        (&["markets", "--days", "3651"], "--days: 3651"),
        (&["markets", "--days", "1000000"], "--days: 1000000"),
        (&["trace", "prices", "--days", "0"], "--days: 0"),
        (&["trace", "prices", "--days", "3651"], "--days: 3651"),
        (&["mc", "--hours", "day"], "--hours: day"),
        (&["chaos", "--revocations", "many"], "--revocations: many"),
        (&["trace", "prices", "--market", "x"], "--market: x"),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(args)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "flint {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid value for {named}")),
            "flint {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "flint {args:?} ran something");
    }
}

/// `--days` takes one day to ten years on both commands that read it.
#[test]
fn days_edges_run() {
    for days in ["1", "3650"] {
        for sub in [&["markets"][..], &["trace", "prices"][..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_flint"))
                .args(sub)
                .args(["--days", days])
                .output()
                .expect("spawn flint");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(0),
                "flint {sub:?} --days {days}: {stderr}"
            );
            assert!(
                !out.stdout.is_empty(),
                "flint {sub:?} --days {days} printed nothing"
            );
        }
    }
}

/// A numeric flag that parses but cannot mean what it says is a usage
/// error (exit 1) naming the flag and the value, and nothing runs. A
/// count above `u32::MAX` used to wrap (`--partitions 4294967298` ran as
/// 2, `--workers 4294967297` as one worker); `--gb nan`, `-5` and `0`,
/// `--partitions 0` and `--mttf 0` or `-1` ran and exited 0; `--runs 0`
/// and `--jobs 0` were clamped to 1, and so were `chaos --workers 0` and
/// `--crash-wave-max 0`. `workload --failures` above `--workers` revoked
/// ids no worker held but still added every replacement.
#[test]
fn out_of_range_numeric_flag_is_a_usage_error() {
    let too_big = "4294967298";
    let cases: Vec<(Vec<&str>, String)> = [
        (
            vec!["run", "als", "--gb", "1", "--partitions", too_big],
            "--partitions",
        ),
        (vec!["run", "als", "--workers", "4294967297"], "--workers"),
        (vec!["run", "als", "--iterations", too_big], "--iterations"),
        (
            vec!["workload", "pagerank", "--failures", too_big],
            "--failures",
        ),
        (vec!["chaos", "--revocations", too_big], "--revocations"),
        (vec!["chaos", "--workers", too_big], "--workers"),
        (vec!["trace", "prices", "--market", too_big], "--market"),
        (vec!["run", "als", "--gb", "nan"], "--gb"),
        (vec!["run", "als", "--gb", "-5"], "--gb"),
        (vec!["run", "als", "--gb", "0"], "--gb"),
        (vec!["run", "als", "--gb", "inf"], "--gb"),
        (vec!["workload", "pagerank", "--gb", "0"], "--gb"),
        (
            vec!["workload", "pagerank", "--workers", "2", "--failures", "5"],
            "--failures",
        ),
        (vec!["chaos", "--gb", "nan"], "--gb"),
        (vec!["run", "als", "--partitions", "0"], "--partitions"),
        (
            vec!["workload", "pagerank", "--partitions", "0"],
            "--partitions",
        ),
        (vec!["chaos", "--partitions", "0"], "--partitions"),
        (vec!["workload", "pagerank", "--mttf", "0"], "--mttf"),
        (vec!["workload", "pagerank", "--mttf", "-1"], "--mttf"),
        (vec!["chaos", "--mttf", "0"], "--mttf"),
        (vec!["mc", "--runs", "0"], "--runs"),
        (vec!["mc", "--jobs", "0"], "--jobs"),
        (vec!["chaos", "--runs", "0"], "--runs"),
        (vec!["chaos", "--jobs", "0"], "--jobs"),
        (vec!["chaos", "--workers", "0"], "--workers"),
        (vec!["chaos", "--crash-wave-max", "0"], "--crash-wave-max"),
    ]
    .into_iter()
    .map(|(args, flag)| {
        let value = args[args.iter().position(|a| *a == flag).expect("flag") + 1];
        (args, format!("invalid value for {flag}: {value}"))
    })
    .collect();
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&args)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "flint {args:?}: {stderr}");
        assert!(stderr.contains(&named), "flint {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "flint {args:?} ran something");
    }
}

/// A flag the subcommand does not declare is a usage error (exit 1)
/// naming it — not a run with the default in place of what the typo
/// meant — and nothing runs or is written. That includes a flag only
/// another subcommand reads (`workload --trace` used to write no file
/// and exit 0) and the removed `--bid` and `--mode`. So are a value
/// after a switch (`--checkpoint false` used to turn checkpointing on), a
/// stray operand (it was dropped) and a flag given twice (the last one
/// used to win).
#[test]
fn unknown_flag_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("flint-cli-unknown-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run: &[&str] = &["run", "pagerank", "--gb", "0.05"];
    let unknown = |flag: &str| format!("unknown flag: {flag}");
    let cases: Vec<(Vec<&str>, String)> = vec![
        (
            vec!["run", "pagerank", "--wokers", "50"],
            unknown("--wokers"),
        ),
        (
            vec!["workload", "pagerank", "--gb", "0.3", "--chekpoint"],
            unknown("--chekpoint"),
        ),
        (vec!["mc", "--hour", "24"], unknown("--hour")),
        (
            "workload pagerank --gb 0.05 --workers 2 --trace x.jsonl"
                .split(' ')
                .collect(),
            unknown("--trace"),
        ),
        ([run, &["--bid", "0.5"]].concat(), unknown("--bid")),
        (vec!["mc", "--hours", "1", "--gb", "nan"], unknown("--gb")),
        (vec!["markets", "--workers", "5"], unknown("--workers")),
        (
            vec!["trace", "prices", "--failures", "3"],
            unknown("--failures"),
        ),
        (
            vec!["experiment", "fig02a", "--workers", "3"],
            unknown("--workers"),
        ),
        (
            [run, &["--mode", "interactive", "--policy", "batch"]].concat(),
            unknown("--mode"),
        ),
        (
            vec!["workload", "pagerank", "--checkpoint", "false"],
            "unexpected argument: false".into(),
        ),
        (
            vec!["mc", "--hours", "1", "--no-checkpoint", "0"],
            "unexpected argument: 0".into(),
        ),
        (
            vec!["run", "pagerank", "extra", "--gb", "0.05"],
            "unexpected argument: extra".into(),
        ),
        (
            vec!["mc", "--hours", "1", "--hours", "2"],
            "--hours given twice".into(),
        ),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "flint {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{named}\n")),
            "flint {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "flint {args:?} ran something");
    }
    let created: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(created.is_empty(), "nothing may be created: {created:?}");
    std::fs::remove_dir(&dir).expect("remove temp dir");
}

/// A flag that takes a value, given none, is a usage error (exit 1)
/// naming the flag, and nothing is created. A file flag used to run
/// and write a file called `true`; `--workers` used to read `true` as its
/// value and `chaos --faults` as a fault kind.
#[test]
fn path_flag_without_value_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("flint-cli-path-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run: &[&str] = &["run", "pagerank", "--gb", "0.1", "--partitions", "2"];
    let cases: [(Vec<&str>, &str); 7] = [
        (vec!["workload", "pagerank", "--workers"], "--workers"),
        ([run, &["--policy"]].concat(), "--policy"),
        (vec!["chaos", "--faults"], "--faults"),
        (
            [run, &["--iterations", "1", "--workers", "2", "--trace"]].concat(),
            "--trace",
        ),
        (
            [run, &["--manifest", "--suspend-after", "1"]].concat(),
            "--manifest",
        ),
        ([run, &["--resume"]].concat(), "--resume"),
        (
            vec!["workload", "pagerank", "--gb", "0.1", "--dot"],
            "--dot",
        ),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "flint {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("missing value for {named}\n")),
            "flint {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "flint {args:?} ran something");
        assert!(!dir.join("true").exists(), "flint {args:?} wrote ./true");
    }
    let created: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(created.is_empty(), "nothing may be created: {created:?}");
    std::fs::remove_dir(&dir).expect("remove temp dir");
}

/// `--risk` is a finite number ≥ 0 in both subcommands that read it, and
/// `flint mc` needs at least one worker: anything else is a usage error
/// (exit 1) naming the flag, and nothing runs. `--risk nan` and `-1`
/// used to be clamped to λ = 0 and print the batch policy's answer under
/// the portfolio's name; `mc --workers 0` ran and billed one worker.
/// `flint mc` holds λ in thousandths, rounded to the nearest: a non-zero
/// λ that rounds to 0 (`0.0004` ran as `--risk 0`) or one above
/// 4 294 967.295 (`1e9`, `5000000` and `4294968` all ran as that λ) is a
/// usage error too, and both ends of the range run.
#[test]
fn unusable_risk_and_mc_workers_are_usage_errors() {
    let run: &[&str] = &["run", "pagerank", "--gb", "0.1", "--partitions", "2"];
    let run_portfolio: &[&str] = &[run, &["--policy", "portfolio"]].concat();
    let mc_portfolio: &[&str] = &["mc", "--hours", "1", "--policy", "portfolio"];
    let mut cases: Vec<(Vec<&str>, String)> = Vec::new();
    for risk in ["nan", "-1", "-5", "inf", "-inf"] {
        let named = format!("invalid value for --risk: {risk}");
        cases.push(([run_portfolio, &["--risk", risk]].concat(), named.clone()));
        cases.push(([mc_portfolio, &["--risk", risk]].concat(), named));
    }
    for risk in ["0.0004", "1e9", "5000000", "4294968", "4294967.2956"] {
        let named = format!("invalid value for --risk: {risk}");
        cases.push(([mc_portfolio, &["--risk", risk]].concat(), named));
    }
    cases.push((
        vec!["mc", "--hours", "1", "--workers", "0"],
        "invalid value for --workers: 0".into(),
    ));
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&args)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "flint {args:?}: {stderr}");
        assert!(stderr.contains(&named), "flint {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "flint {args:?} ran something");
    }
    // λ = 0 itself stays valid, and so do the smallest and largest
    // non-zero λ the thousandths hold.
    for risk in ["0", "0.0005", "4294967.295"] {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args([mc_portfolio, &["--risk", risk]].concat())
            .output()
            .expect("spawn flint");
        assert_eq!(
            out.status.code(),
            Some(0),
            "--risk {risk}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `flint chaos` checks its fault names and probabilities before it runs
/// anything, the fault-free twin included: a typo in `--faults` used to
/// be dropped silently, and a probability outside `[0, 1]` used to panic
/// (exit 5) after the twin had run.
#[test]
fn chaos_rejects_unusable_fault_names_and_probabilities() {
    let chaos: &[&str] = &["chaos", "--seed", "1", "--runs", "2"];
    let cases: [(&[&str], &str); 6] = [
        (
            &["--faults", "driver-crash", "--crash-prob", "2"],
            "invalid value for --crash-prob: 2",
        ),
        (
            &["--faults", "driver-crash", "--crash-prob", "-0.1"],
            "invalid value for --crash-prob: -0.1",
        ),
        (
            &["--faults", "driver-crash", "--crash-prob", "NaN"],
            "invalid value for --crash-prob: NaN",
        ),
        (
            &["--faults", "market-collapse", "--collapse-prob", "inf"],
            "invalid value for --collapse-prob: inf",
        ),
        (&["--faults", "revoke,strore"], "unknown fault kind: strore"),
        (&["--faults", "all,"], "unknown fault kind: "),
    ];
    for (extra, named) in cases {
        let args = [chaos, extra].concat();
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&args)
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "flint {args:?}: {stderr}");
        assert!(stderr.contains(named), "flint {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "flint {args:?} ran something");
    }
}

/// A closed stdout (`flint markets | head -1`) ends every subcommand
/// quietly: exit 0, nothing on stderr. It used to panic with "failed
/// printing to stdout: Broken pipe" and exit 5, the invariant-violation
/// code. Files the command writes are still complete.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    let dir = std::env::temp_dir().join(format!("flint-cli-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 path").to_string();
    let (trace, closed_trace, dot) = (path("open.jsonl"), path("closed.jsonl"), path("g.dot"));
    let small: &[&str] = &["--gb", "0.05", "--partitions", "2", "--iterations", "1"];
    let small = [small, &["--workers", "2"]].concat();
    let run = [&["run", "pagerank"], &small[..]].concat();
    let out = Command::new(env!("CARGO_BIN_EXE_flint"))
        .args([&run[..], &["--trace", &trace]].concat())
        .output()
        .expect("spawn flint");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let cases: Vec<Vec<&str>> = vec![
        [&run[..], &["--trace", &closed_trace]].concat(),
        [&["workload", "pagerank"], &small[..], &["--dot", &dot]].concat(),
        [&["chaos", "--runs", "1"], &small[..]].concat(),
        vec!["markets", "--days", "2"],
        vec!["mc", "--hours", "1", "--workers", "2"],
        vec!["experiment", "tab_storage_cost"],
        vec!["trace", "summary", &trace],
        vec!["trace", "validate", &trace],
        vec!["trace", "prices", "--days", "2"],
    ];
    for args in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn flint");
        // Close the read end before the child has written anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "flint {args:?}: {stderr}");
        assert!(stderr.is_empty(), "flint {args:?}: {stderr}");
    }
    let read = |p: &str| std::fs::read(p).expect("written");
    assert_eq!(
        read(&closed_trace),
        read(&trace),
        "trace under a closed stdout"
    );
    assert!(
        read(&dot).starts_with(b"digraph"),
        "DOT under a closed stdout"
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// `flint experiment` takes each experiment by its `results/` file stem
/// and by nothing else: the short names (`storage`, `ablation_tau`, …)
/// are gone, and `ablation_fixed_tau` used to be `unknown experiment`.
#[test]
fn experiments_are_named_by_their_results_file() {
    for (name, code) in [("tab_storage_cost", 0), ("storage", 1)] {
        let out = Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(["experiment", name])
            .output()
            .expect("spawn flint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "flint experiment {name}: {stderr}"
        );
    }
}

/// A resume is verified when the replay crosses its manifest's
/// frontier. A replay that finishes before reaching it (a manifest from
/// a longer job) verified nothing and is the typed `ResumeDiverged`
/// error on `frontier` (exit 4), not a degraded success (exit 3). A
/// genuine manifest still resumes to exit 3.
#[test]
fn resume_short_of_the_manifest_frontier_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("flint-cli-resume-short-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 path").to_string();
    let base: &[&str] = &["run", "pagerank", "--gb", "0.3", "--partitions", "4"];
    let base = [base, &["--workers", "4"]].concat();
    let flint = |iterations: &str, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_flint"))
            .args(&base)
            .args(["--iterations", iterations])
            .args(extra)
            .output()
            .expect("spawn flint")
    };
    let cases = [
        ("5", "30", path("long.manifest"), Some(4)),
        ("2", "2", path("genuine.manifest"), Some(3)),
    ];
    for (suspend_iterations, wave, manifest, code) in cases {
        let out = flint(
            suspend_iterations,
            &["--suspend-after", wave, "--manifest", &manifest],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "suspend at wave {wave}: {stderr}"
        );

        let out = flint("2", &["--resume", &manifest]);
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), code, "resume from wave {wave}: {stderr}");
        if code == Some(4) {
            assert!(
                stderr.contains("resume rejected") && stderr.contains("frontier"),
                "{stderr}"
            );
            assert!(!stdout.contains("resumed"), "{stdout}");
        } else {
            assert!(
                stdout.contains("resumed      : replayed from wave 2"),
                "{stdout}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
