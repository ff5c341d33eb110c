//! The suite: every workload in a re-exec'd child process, so peak
//! memory is per workload and a hang cannot stall the rest. The parent
//! only spawns, waits (killing a child that passes its deadline),
//! checks the result schema, prints the table and writes the report.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host::host_cores;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{bench_dir, Args};

/// A child that has not exited by now is killed and every op it still
/// owed is reported failed. (The driver allows a run 180 s as well.)
const CHILD_DEADLINE: Duration = Duration::from_secs(180);

/// What a child left behind: its parsed result line, or why there is none.
type ChildResult = Result<Json, String>;

fn spawn(workload: &str, args: &Args, trace: bool) -> ChildResult {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if args.bless && !trace {
        cmd.arg("--bless");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    // The child prints one line; the pipe cannot fill while we poll.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "killed at the {} s deadline: its remaining ops count as failed",
                    CHILD_DEADLINE.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let mut out = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut out)
            .map_err(|e| format!("read: {e}"))?;
    }
    let Some(last) = out.lines().rev().find(|l| !l.trim().is_empty()) else {
        return Err(format!("exited with {status} and printed no result"));
    };
    let result = Json::parse(last).map_err(|e| format!("result line does not parse: {e}"))?;
    check_schema(&result, trace)?;
    Ok(result)
}

/// The result line must carry exactly the keys and metrics the manifest
/// promises, each with its unit and a finite value.
fn check_schema(result: &Json, trace: bool) -> Result<(), String> {
    let Json::Obj(top) = result else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = result.get("metrics").map(Json::as_map).unwrap_or_default();
    if metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics reported, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    for (name, unit) in declared {
        let m = metrics.get(name).ok_or(format!("metric {name} missing"))?;
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("metric {name}: unit is not {unit}"));
        }
        if m.get("value").and_then(Json::as_f64).is_none() {
            return Err(format!("metric {name}: value is not a finite number"));
        }
    }
    Ok(())
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn correct(result: &Json) -> bool {
    result.get("correct").and_then(Json::as_bool) == Some(true)
}

fn print_metrics(result: &ChildResult, declared: &[(&str, &str)]) {
    match result {
        Err(why) => println!("  no result: {why}"),
        Ok(r) => {
            let count = |k| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  ops: {} attempted, {} failed",
                count("attempted"),
                count("failed")
            );
            for (name, unit) in declared {
                println!("  {name:<44} {:>16.6} {unit}", value(r, name));
            }
        }
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

pub fn run(args: &Args) -> Result<bool, String> {
    if args.selfcheck {
        return selfcheck(args);
    }
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let mut all_ok = true;
    let mut report = Vec::new();
    for workload in selected(args) {
        println!(
            "== {workload} (seed {}, host clock unless the unit says virtual)",
            args.seed
        );
        let untraced = spawn(workload, args, false);
        print_metrics(&untraced, &e2e);
        all_ok &= untraced.as_ref().is_ok_and(correct);
        let mut entry = vec![("end_to_end", as_json(&untraced))];
        // --quick smokes the harness and the output checks in seconds;
        // the traced pass is the long one.
        if !args.quick {
            let traced = spawn(workload, args, true);
            print_metrics(&traced, &layers);
            all_ok &= traced.as_ref().is_ok_and(correct);
            entry.push(("per_layer", as_json(&traced)));
        }
        report.push((workload, Json::obj(entry)));
    }
    let report = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", Json::obj(report)),
    ]);
    let out = bench_dir("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join("report.json");
    std::fs::write(&path, report.pretty()).map_err(|e| e.to_string())?;
    println!("report: {}", path.display());
    Ok(all_ok)
}

fn as_json(result: &ChildResult) -> Json {
    match result {
        Ok(r) => r.clone(),
        Err(why) => Json::obj([("error", Json::str(why.as_str()))]),
    }
}

/// Runs every workload twice back to back, untraced and traced, and
/// fails unless exact metrics are identical and every host-time
/// end-to-end metric agrees within its bound. Prints the observed
/// spread beside the bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for workload in selected(args) {
        println!("== {workload}");
        for trace in [false, true] {
            let (a, b) = (spawn(workload, args, trace), spawn(workload, args, trace));
            let (a, b) = match (a, b) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    for why in [a.err(), b.err()].into_iter().flatten() {
                        println!("  no result: {why}");
                    }
                    all_ok = false;
                    continue;
                }
            };
            if !correct(&a) || !correct(&b) {
                println!("  FAIL a run reported failed ops");
                all_ok = false;
            }
            if trace {
                let moved: Vec<&str> = PER_LAYER
                    .iter()
                    .filter(|m| m.exact && value(&a, m.name) != value(&b, m.name))
                    .map(|m| m.name)
                    .collect();
                let exact = PER_LAYER.iter().filter(|m| m.exact).count();
                if moved.is_empty() {
                    println!("  ok   {exact} exact per-layer metrics identical");
                } else {
                    println!("  FAIL exact per-layer metrics differ: {moved:?}");
                    all_ok = false;
                }
                continue;
            }
            for m in &END_TO_END {
                let (x, y) = (value(&a, m.name), value(&b, m.name));
                let spread = (x - y).abs() / x.min(y).abs().max(f64::MIN_POSITIVE);
                // The virtual clock must repeat exactly; the host clock
                // within the metric's bound.
                let limit = if m.unit.starts_with("virtual") {
                    0.0
                } else {
                    m.bound
                };
                let ok = spread <= limit;
                println!(
                    "  {} {:<18} {x:>14.6} vs {y:>14.6} {:<10} spread {:>6.2}%  bound {:>5.1}%",
                    if ok { "ok  " } else { "FAIL" },
                    m.name,
                    m.unit,
                    spread * 100.0,
                    limit * 100.0,
                );
                all_ok &= ok;
            }
        }
    }
    println!("selfcheck: {}", if all_ok { "passed" } else { "FAILED" });
    Ok(all_ok)
}
