//! The repo's measuring stick: one command, four workloads, both
//! clocks, every layer. See `benchmark/README.md`.
//!
//! With `--workload` this process *is* the measurement (one workload,
//! one fresh process, the result as the last stdout line). Without it,
//! it is the suite: every workload runs in a re-exec'd child, untraced
//! then traced, and the report lands in `benchmark/out/`.

mod host;
mod json;
mod metrics;
mod probes;
mod spec;
mod suite;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use host::{cpu_seconds, host_cores, median, peak_rss_mb, quantile, Spans};
use json::Json;
use metrics::Metrics;
use spec::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_REPS, WORKLOADS};
use workloads::{Bench, OpOutcome, RunCfg, TraceMode};

const USAGE: &str = "\
flint-benchmark — four workloads, both clocks, every layer

  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- [FLAGS]

  --workload NAME   run one workload in this process and print its result as
                    the last stdout line (tpch_session, pagerank_revoked,
                    mc_week, als_serverless); without it, run the whole suite,
                    each workload in a fresh child process, untraced then traced
  --seed N          inputs are generated from N (default 12; 13 is the
                    hold-out seed for later claims)
  --seconds S       how long the ops phase measures (default 20)
  --trace 0|1       0: end-to-end metrics, tracing off (default)
                    1: per-layer metrics from the traced pass, spans written
                       to benchmark/out/<workload>.trace.json
  --quick           op lists cut to 3 ops, one set-up, no bounds: a smoke test
  --selfcheck       run everything twice back to back; fail unless exact
                    metrics repeat and host metrics agree within their bounds
  --bless           rewrite benchmark/expected/<workload>.seed12.json (refused
                    unless every self-consistency check passes)
  --manifest        print BENCHMARK.json, generated from src/spec.rs
  --describe        print the workload and metric tables (Markdown), with the
                    end-to-end metric and workload each layer metric should move
";

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub selfcheck: bool,
    pub bless: bool,
}

enum Cli {
    Run(Args),
    Manifest,
    Describe,
    Help,
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        selfcheck: false,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a duration"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                };
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--bless" => args.bless = true,
            "--manifest" => return Ok(Cli::Manifest),
            "--describe" => return Ok(Cli::Describe),
            "--help" | "-h" => return Ok(Cli::Help),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.bless && (args.quick || args.trace || args.seed != DEFAULT_SEED) {
        return Err(format!(
            "--bless pins the full untraced run of seed {DEFAULT_SEED}; drop --quick/--trace/--seed"
        ));
    }
    Ok(Cli::Run(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::Manifest) => {
            print!("{}", spec::manifest());
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Describe) => {
            print!("{}", spec::describe());
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(workload) if !args.selfcheck => run_one(workload, &args),
        _ => suite::run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A run whose ops failed still printed its result; the exit code
        // is for people and CI, the driver reads `correct`/`failed`.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// `benchmark/<sub>`, wherever the process was started from.
pub fn bench_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

/// One timed, checked op.
struct Sample {
    wall_ms: f64,
    digest: u64,
    virtual_s: f64,
    failed: bool,
}

/// Runs ops `range` of `bench`, appending to `samples`. An op fails when
/// it returns an error, misses its output check, overruns its deadline
/// (20x the warm-up op) or, on a later pass over the list, differs from
/// the first pass. A panic ends the run.
fn run_ops(
    bench: &mut dyn Bench,
    range: std::ops::Range<usize>,
    first_pass: &[Sample],
    spans: &mut Spans,
    samples: &mut Vec<Sample>,
) -> Result<(), String> {
    let deadline_ms = match bench.expected_op_s() {
        s if s > 0.0 => s * 20.0 * 1e3,
        _ => f64::INFINITY,
    };
    let list_len = bench.list_len();
    for i in range {
        spans.set_op(i as u64);
        let op = spans.enter("op");
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| bench.run_op(i, spans)));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.exit(op);
        let Ok(OpOutcome {
            mut failure,
            digest,
            virtual_s,
        }) = outcome
        else {
            // The workload's state is unknown after a panic; the run
            // cannot go on, and says so instead of printing a result.
            return Err(format!("op {i} panicked"));
        };
        if failure.is_none() && wall_ms > deadline_ms {
            failure = Some(format!(
                "took {wall_ms:.0} ms, deadline {deadline_ms:.0} ms"
            ));
        }
        if let (None, Some(first)) = (&failure, first_pass.get(i % list_len)) {
            if first.digest != digest {
                failure = Some("output differs from the first pass over the list".into());
            }
        }
        if let Some(why) = &failure {
            eprintln!("op {i} failed: {why}");
        }
        samples.push(Sample {
            wall_ms,
            digest,
            virtual_s,
            failed: failure.is_some(),
        });
    }
    Ok(())
}

fn count_failed(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.failed).count() as u64
}

fn wall_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.wall_ms).collect()
}

/// The result line the driver reads, plus what `--selfcheck` compares.
fn result_json(
    failed: u64,
    attempted: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = RunCfg {
        seed: args.seed,
        quick: args.quick,
    };
    let result = if args.trace {
        run_traced(workload, &cfg)?
    } else {
        run_untraced(workload, &cfg, args)?
    };
    let ok = result.get("correct").and_then(Json::as_bool) == Some(true);
    println!("{result}");
    Ok(ok)
}

/// The end-to-end pass: tracing off, set-up repeated, ops cycled through
/// the list for `--seconds` (and always at least one whole pass).
fn run_untraced(workload: &str, cfg: &RunCfg, args: &Args) -> Result<Json, String> {
    let mut spans = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..if cfg.quick { 1 } else { SETUP_REPS } {
        // One set-up alive at a time, so peak memory is a single run's.
        drop(bench.take());
        let t = Instant::now();
        bench = Some(workloads::setup(workload, cfg, &mut spans)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPS is at least 1");
    let default_trace = bench.default_trace();
    bench.set_trace(default_trace);

    let list_len = bench.list_len();
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let mut first_pass = Vec::new();
    run_ops(
        bench.as_mut(),
        0..list_len,
        &[],
        &mut spans,
        &mut first_pass,
    )?;
    // Memory and money are taken after the same fixed work on every run,
    // however many more passes the host has time for.
    let rss_mb = peak_rss_mb();
    let cost_usd = bench.cost_usd(&mut spans);
    let mut later = Vec::new();
    let mut next = list_len;
    while !cfg.quick && started.elapsed().as_secs_f64() < args.seconds {
        run_ops(
            bench.as_mut(),
            next..next + 1,
            &first_pass,
            &mut spans,
            &mut later,
        )?;
        next += 1;
    }
    let ops_wall_s = started.elapsed().as_secs_f64();
    let ops_cpu_s = cpu_seconds() - cpu_before;

    let mut layer = Metrics::default();
    let gaps = bench.teardown(&mut spans, &mut layer);
    for gap in &gaps {
        eprintln!("{workload}: coverage gap: {gap}");
    }

    let virtual_s: Vec<f64> = first_pass.iter().map(|s| s.virtual_s).collect();
    let virtual_s_per_op = virtual_s.iter().sum::<f64>() / list_len as f64;
    let pinned = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        (
            "digests",
            Json::Arr(first_pass.iter().map(|s| Json::hex(s.digest)).collect()),
        ),
        (
            "virtual",
            Json::obj([
                ("virtual_s_per_op", Json::Num(virtual_s_per_op)),
                ("cost_usd", Json::Num(cost_usd)),
                (
                    "op_virtual_s",
                    Json::Arr(virtual_s.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]),
        ),
    ]);
    let expected_path = bench_dir("expected").join(format!("{workload}.seed{DEFAULT_SEED}.json"));
    if args.bless {
        let failed = count_failed(&first_pass) + count_failed(&later);
        if failed > 0 || !gaps.is_empty() {
            return Err(format!(
                "--bless refused: {failed} failed op(s), {} coverage gap(s)",
                gaps.len()
            ));
        }
        std::fs::create_dir_all(bench_dir("expected")).map_err(|e| e.to_string())?;
        std::fs::write(&expected_path, pinned.pretty()).map_err(|e| e.to_string())?;
        eprintln!("blessed {}", expected_path.display());
    } else if cfg.seed == DEFAULT_SEED {
        check_pinned(&expected_path, &pinned, &mut first_pass);
    }

    let mut all = wall_ms(&first_pass);
    all.extend(wall_ms(&later));
    let ops = all.len() as f64;
    let values = [
        median(&setup_s),
        median(&all),
        quantile(&all, 0.1),
        ops / ops_wall_s,
        ops_cpu_s * 1e3 / ops,
        rss_mb,
        virtual_s_per_op,
    ];
    Ok(result_json(
        count_failed(&first_pass) + count_failed(&later),
        all.len() as u64,
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
    ))
}

/// Compares a default-seed run with `benchmark/expected/`. An output
/// digest that moved is a failed op. Virtual-clock numbers that moved
/// are reported, not failed: a later change may legitimately claim them.
fn check_pinned(path: &std::path::Path, run: &Json, first_pass: &mut [Sample]) {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("no pinned results at {} (run --bless)", path.display());
        return;
    };
    let expected = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "{}: unreadable ({e}); every op counts as failed",
                path.display()
            );
            first_pass.iter_mut().for_each(|s| s.failed = true);
            return;
        }
    };
    let digests = |j: &Json| -> Vec<String> {
        j.get("digests")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default()
    };
    // A --quick run holds a prefix of the pinned op list.
    let (want, got) = (digests(&expected), digests(run));
    for (i, (g, sample)) in got.iter().zip(first_pass).enumerate() {
        if want.get(i) != Some(g) && !sample.failed {
            eprintln!("op {i} failed: output digest {g} differs from the pinned result");
            sample.failed = true;
        }
    }
    if got.len() == want.len() && expected.get("virtual") != run.get("virtual") {
        eprintln!(
            "virtual-clock drift against {}:\n  pinned {}\n  now    {}",
            path.display(),
            expected.get("virtual").unwrap_or(&Json::Null),
            run.get("virtual").unwrap_or(&Json::Null)
        );
    }
}

/// The traced pass: one set-up with spans on, a short untraced and a
/// short JSONL-traced stretch for the overhead shares, then one whole
/// pass over the op list with spans and the product's event stream
/// collected in memory, the direct layer probes, and teardown.
fn run_traced(workload: &str, cfg: &RunCfg) -> Result<Json, String> {
    let mut spans = Spans::new(true);
    let s = spans.enter("setup");
    let mut bench = workloads::setup(workload, cfg, &mut spans)?;
    spans.exit(s);
    let list_len = bench.list_len();
    let stretch = (list_len / 3).max(2).min(list_len);
    let default_is_off = matches!(bench.default_trace(), TraceMode::Off);

    spans.set_on(false);
    let mut off = Vec::new();
    bench.set_trace(TraceMode::Off);
    run_ops(bench.as_mut(), 0..stretch, &[], &mut spans, &mut off)?;
    let mut jsonl = Vec::new();
    bench.set_trace(TraceMode::Jsonl);
    run_ops(bench.as_mut(), 0..stretch, &[], &mut spans, &mut jsonl)?;

    spans.set_on(true);
    let log = Arc::new(Mutex::new(workloads::EventFold::default()));
    bench.set_trace(TraceMode::Collect(log.clone()));
    let mut traced = Vec::new();
    run_ops(bench.as_mut(), 0..list_len, &[], &mut spans, &mut traced)?;

    let mut m = Metrics::default();
    let share = |num: &[Sample], den: &[Sample]| {
        median(&wall_ms(num)) / median(&wall_ms(den)).max(1e-9) - 1.0
    };
    let untraced = if default_is_off { &off } else { &jsonl };
    m.set(
        "bench.span_overhead_share",
        share(&traced[..stretch], untraced),
    );
    m.set("trace.overhead_share", share(&jsonl, &off));
    m.set("bench.op_wall_ms_p90", quantile(&wall_ms(&traced), 0.9));
    m.set("bench.host_cores", host_cores() as f64);
    m.set("bench.ops", list_len as f64);
    m.set("bench.samples", traced.len() as f64);

    let s = spans.enter("layer_probes");
    bench.layer_probes(&mut spans, &mut m);
    spans.exit(s);
    let s = spans.enter("teardown");
    let gaps = bench.teardown(&mut spans, &mut m);
    spans.exit(s);
    m.set("bench.teardown_ms", median(&spans.durations_ms("teardown")));
    for gap in &gaps {
        eprintln!("{workload}: coverage gap: {gap}");
    }
    probes::event_stream(&log.lock().expect("collector never panics"), &mut m);

    let per_layer: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|p| (p.name, m.get(p.name), p.unit))
        .collect();
    let attempted = (off.len() + jsonl.len() + traced.len()) as u64;
    let failed = count_failed(&off) + count_failed(&jsonl) + count_failed(&traced);
    let result = result_json(failed, attempted, per_layer);

    let out = bench_dir("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let trace_file = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("quick", Json::Bool(cfg.quick)),
        (
            "per_layer",
            result.get("metrics").cloned().unwrap_or(Json::Null),
        ),
        ("trace", spans.to_json()),
    ]);
    std::fs::write(
        out.join(format!("{workload}.trace.json")),
        trace_file.pretty(),
    )
    .map_err(|e| e.to_string())?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let Ok(Cli::Run(a)) = parse(&[
            "--workload",
            "mc_week",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]) else {
            panic!("the driver's own command line must parse");
        };
        assert_eq!(a.workload.as_deref(), Some("mc_week"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn bad_input_is_rejected_not_ignored() {
        for bad in [
            &["--workload", "kmeans"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--traced"],
            &["--bless", "--quick"],
            &["--bless", "--seed", "13"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
