//! The `flint` command-line interface: run workloads on simulated
//! transient clusters, explore markets, and regenerate the paper's
//! experiments.
//!
//! ```sh
//! flint workload pagerank --gb 2 --workers 10 --failures 5 --checkpoint
//! flint markets --seed 42 --days 60
//! flint mc --policy fleet --hours 24
//! flint experiment fig08
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use flint::core::{BackendSpec, FlintCheckpointPolicy, FlintCluster, FlintConfig, Mode};
use flint::engine::{
    ChaosConfig, ChaosInjector, ChaosSchedule, Driver, DriverConfig, EngineError, NoCheckpoint,
    RunManifest, ScriptedInjector, ServerlessConfig, WorkerEvent, WorkerSpec,
};
use flint::market::{correlated_groups, correlation_matrix, MarketCatalog};
use flint::model::{
    fan_out, run_mc, run_mc_campaign, CampaignConfig, CkptMode, McConfig, PolicyKind,
};
use flint::runner::run_on_flint;
use flint::simtime::{SimDuration, SimTime};
use flint::trace::{Event, EventKind, JsonlSink, MetricsAggregator, TraceHandle};
use flint::workloads::{Als, KMeans, PageRank, Tpch, Workload, WorkloadConfig};

/// Exit codes beyond plain success/failure, so callers can tell the
/// degradation outcomes apart: `3` = the run completed correctly but
/// through a degradation path (crash-resume replay, on-demand backstop),
/// `4` = a typed engine error (fail-stop, never wrong data), `5` = a
/// panic or invariant violation. `1` stays for usage and I/O errors.
const EXIT_DEGRADED: u8 = 3;
const EXIT_TYPED: u8 = 4;
const EXIT_PANIC: u8 = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("{msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = flags
        .keys()
        .filter(|f| !KNOWN_FLAGS.contains(&f.as_str()))
        .min()
    {
        eprintln!("unknown flag: --{name}");
        usage();
        return ExitCode::FAILURE;
    }
    // A panic anywhere below is an invariant violation, reported with its
    // own exit code so scripts can tell it from a typed fail-stop error.
    let code = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cmd.as_str() {
        "run" => cmd_run(&args, &flags),
        "workload" => cmd_workload(&args, &flags),
        "chaos" => cmd_chaos(&flags),
        "markets" => cmd_markets(&flags),
        "mc" => cmd_mc(&flags),
        "experiment" => cmd_experiment(&args),
        "trace" => cmd_trace(&args, &flags),
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::FAILURE
        }
    }));
    code.unwrap_or(ExitCode::from(EXIT_PANIC))
}

fn usage() {
    eprintln!(
        "flint — batch-interactive data-intensive processing on transient servers

USAGE:
  flint run <pagerank|kmeans|als|tpch> [--gb N] [--partitions N]
        [--iterations N] [--seed N] [--workers N]
        [--backend vm|serverless]
        [--policy batch|interactive|portfolio] [--risk R]
        [--trace FILE]   (run on a Flint-managed cluster; --trace writes
                          the structured event stream as JSONL. --mode is
                          accepted as an alias for --policy; --risk sets
                          the portfolio's risk-aversion lambda, a finite
                          number >= 0, default 1.0.
                          --backend serverless runs every task as a billed
                          function invocation — market flags like --policy
                          and --bid are rejected there)
        [--suspend-after W] [--manifest FILE] [--resume FILE]
                         (crash-resume: --suspend-after kills the run at
                          wave-commit boundary W and writes its run
                          manifest to --manifest (default flint.manifest);
                          --resume replays a fresh session from a manifest
                          file — same flags required — and exits 3 on a
                          degraded-but-complete finish)
  flint workload <pagerank|kmeans|als|tpch> [--gb N] [--iterations N]
        [--workers N] [--failures K] [--mttf H] [--checkpoint] [--seed N]
        [--dot FILE]   (write the executed lineage graph as Graphviz DOT)
  flint chaos [--seed N] [--runs R] [--jobs N]
        [--faults revoke,mass,flap,delay,store,driver-crash,market-collapse]
        [--crash-prob P] [--crash-wave-max N] [--collapse-prob P]
        [--workload W] [--gb N] [--workers N] [--mttf H] [--trace FILE]
                          (seeded fault-injection campaign: each run is
                           diffed against its fault-free twin and must
                           finish byte-identical or with a typed error;
                           --jobs fans runs across host threads with
                           byte-identical output. driver-crash and
                           market-collapse arm only when named explicitly
                           — a crashed run is resumed from its persisted
                           manifest and must still match the twin)
  flint markets [--seed N] [--days N]
  flint mc [--policy batch|interactive|portfolio|fleet|od] [--risk R]
        [--hours N] [--seed N] [--workers N] [--runs R] [--jobs N]
                          (--runs > 1 replays the config under consecutive
                           seeds and merges a campaign report; --jobs fans
                           seeds across host threads, byte-identical to
                           --jobs 1. --risk is rounded to the nearest
                           0.001: 0 or 0.0005 to 4294967.295, default 1.0)
  flint experiment <name>   (fig02a fig02b fig03 fig04 fig06a fig06b fig06c
                             fig07 fig08 fig09 fig10a fig10b fig11a fig11b
                             multiaz storage ablation_* ext_*)
  flint trace summary <FILE>    (fold a JSONL event trace into run metrics)
  flint trace validate <FILE>   (parse-check a JSONL event trace and verify
                                 fault/recovery pairing: every corrupt
                                 checkpoint detection must be answered by a
                                 lineage fallback or a typed failure)
  flint trace prices [--seed N] [--days N] [--market I]
                                (CSV price trace to stdout; also the
                                 default when no subcommand is given)

EXIT CODES:
  0 success   1 usage/I-O error   3 degraded-but-complete (resumed or
  backstopped)   4 typed engine error (fail-stop)   5 panic / invariant
  violation"
    );
}

/// Every flag some subcommand reads. Anything else is a typo
/// (`--wokers 50` used to run with the default ten workers).
const KNOWN_FLAGS: &[&str] = &[
    "backend",
    "bid",
    "checkpoint",
    "ckpt",
    "collapse-prob",
    "crash-prob",
    "crash-wave-max",
    "days",
    "dot",
    "failures",
    "faults",
    "gb",
    "hours",
    "iterations",
    "jobs",
    "manifest",
    "market",
    "mode",
    "mttf",
    "no-checkpoint",
    "partitions",
    "policy",
    "resume",
    "revocations",
    "risk",
    "runs",
    "seed",
    "suspend-after",
    "trace",
    "wl-seed",
    "workers",
    "workload",
];

/// Flags whose value names a file. Given no value they are a usage
/// error, not a switch: the switch value would become the file name.
const PATH_FLAGS: &[&str] = &["dot", "manifest", "resume", "trace"];

fn parse_flags(rest: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(name) = rest[i].strip_prefix("--") {
            let value = match rest.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    i += 1;
                    v.clone()
                }
                None if PATH_FLAGS.contains(&name) => {
                    return Err(format!("missing value for --{name}"));
                }
                None => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    Ok(flags)
}

/// Numeric flag `--name`, `None` when absent. A value that is present
/// but does not parse is a usage error, never silently the default.
fn flag_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value for --{name}: {v}"))
        })
        .transpose()
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    Ok(flag_num(flags, name)?.unwrap_or(default))
}

fn flag_u(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    Ok(flag_num(flags, name)?.unwrap_or(default))
}

/// Integer flag `--name` in `min..=u32::MAX`, or a usage error. A larger
/// value used to wrap (`--partitions 4294967298` ran as 2) and a count
/// of 0 used to be clamped or run.
fn flag_u32(
    flags: &HashMap<String, String>,
    name: &str,
    default: u32,
    min: u32,
) -> Result<u32, String> {
    let v = flag_u(flags, name, u64::from(default))?;
    match u32::try_from(v) {
        Ok(v) if v >= min => Ok(v),
        Ok(_) => Err(format!(
            "invalid value for --{name}: {v} (expected at least {min})"
        )),
        Err(_) => Err(format!(
            "invalid value for --{name}: {v} (expected at most {})",
            u32::MAX
        )),
    }
}

/// Size or duration flag `--name`: a finite number > 0, or a usage
/// error. `--gb nan` used to run 640 tasks and `--mttf 0` no revocations.
fn flag_positive(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    let v = flag_f64(flags, name, default)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!(
            "invalid value for --{name}: {} (expected a finite number > 0)",
            flags[name]
        ))
    }
}

/// Probability flag `--name`: a number in `[0, 1]`, or a usage error.
fn flag_prob(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    let p = flag_f64(flags, name, default)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!(
            "invalid value for --{name}: {} (expected a probability in [0, 1])",
            flags[name]
        ))
    }
}

/// `--risk`, the portfolio's risk-aversion λ (default 1.0): a finite
/// number ≥ 0, or a usage error. Clamping instead would run `nan` or
/// `-1` as λ = 0, the batch policy's answer under the portfolio's name.
fn flag_risk(flags: &HashMap<String, String>) -> Result<f64, String> {
    let risk = flag_f64(flags, "risk", 1.0)?;
    if risk.is_finite() && risk >= 0.0 {
        Ok(risk)
    } else {
        Err(format!(
            "invalid value for --risk: {} (expected a finite number >= 0)",
            flags["risk"]
        ))
    }
}

/// The fault kinds `flint chaos --faults` can name, besides `all`.
const FAULT_KINDS: &[&str] = &[
    "revoke",
    "mass",
    "flap",
    "delay",
    "store",
    "driver-crash",
    "market-collapse",
];

/// Unwraps a flag-parsing `Result` inside a subcommand; a usage error is
/// printed and ends the command with `ExitCode::FAILURE`. Commands call
/// it before they start anything, so a bad flag runs nothing.
macro_rules! or_usage {
    ($parsed:expr) => {
        match $parsed {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    };
}

/// Why the `--backend` selection could not be honored.
#[derive(Debug, PartialEq, Eq)]
enum BackendFlagError {
    /// `--backend` named something other than `vm` or `serverless`.
    UnknownBackend(String),
    /// A VM-market flag was passed under a backend that has no market
    /// (rejected instead of silently ignored).
    MeaninglessFlag {
        backend: &'static str,
        flag: &'static str,
    },
}

impl std::fmt::Display for BackendFlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendFlagError::UnknownBackend(name) => {
                write!(f, "unknown backend: {name} (expected vm|serverless)")
            }
            BackendFlagError::MeaninglessFlag { backend, flag } => write!(
                f,
                "--{flag} is meaningless under the {backend} backend: functions are \
                 not bid for on spot markets (drop --{flag} or use --backend vm)"
            ),
        }
    }
}

/// Resolves `--backend` (default `vm`). Under `serverless`, the flags
/// that parameterize the VM market path are typed errors.
fn resolve_backend(flags: &HashMap<String, String>) -> Result<BackendSpec, BackendFlagError> {
    match flags.get("backend").map(String::as_str).unwrap_or("vm") {
        "vm" => Ok(BackendSpec::TransientVm),
        "serverless" => {
            for flag in ["policy", "mode", "bid", "risk"] {
                if flags.contains_key(flag) {
                    return Err(BackendFlagError::MeaninglessFlag {
                        backend: "serverless",
                        flag,
                    });
                }
            }
            Ok(BackendSpec::Serverless(ServerlessConfig::default()))
        }
        other => Err(BackendFlagError::UnknownBackend(other.to_string())),
    }
}

/// `--gb`, `--partitions`, `--iterations` and the seed flag `seed_flag`
/// over `defaults`.
fn workload_config(
    flags: &HashMap<String, String>,
    defaults: WorkloadConfig,
    seed_flag: &str,
) -> Result<WorkloadConfig, String> {
    Ok(WorkloadConfig {
        dataset_gb: flag_positive(flags, "gb", defaults.dataset_gb)?,
        partitions: flag_u32(flags, "partitions", defaults.partitions, 1)?,
        iterations: flag_u32(flags, "iterations", defaults.iterations, 0)?,
        seed: flag_u(flags, seed_flag, defaults.seed)?,
    })
}

fn parse_workload(
    name: &str,
    flags: &HashMap<String, String>,
) -> Result<Box<dyn Workload>, String> {
    let defaults = WorkloadConfig {
        dataset_gb: 2.0,
        partitions: 20,
        iterations: 5,
        seed: 42,
    };
    let cfg = workload_config(flags, defaults, "seed")?;
    match name {
        "pagerank" => Ok(Box::new(PageRank::new(cfg))),
        "kmeans" => Ok(Box::new(KMeans::new(cfg))),
        "als" => Ok(Box::new(Als::new(cfg))),
        "tpch" => Ok(Box::new(Tpch::new(cfg))),
        _ => Err(format!("unknown workload: {name}")),
    }
}

fn cmd_run(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(name) = args.get(1) else {
        eprintln!("run: missing workload name");
        return ExitCode::FAILURE;
    };
    let wl = or_usage!(parse_workload(name, flags));
    let seed = or_usage!(flag_u(flags, "seed", 42));
    let workers = or_usage!(flag_u32(flags, "workers", 10, 0));
    let risk = or_usage!(flag_risk(flags));
    let suspend_after = or_usage!(flag_num::<u64>(flags, "suspend-after"));
    let backend = match resolve_backend(flags) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("run: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--policy` is the canonical spelling; `--mode` stays as an alias
    // for older scripts. (Under serverless both were already rejected
    // above, so the default here is never a silent override.)
    let policy = flags
        .get("policy")
        .or_else(|| flags.get("mode"))
        .map(String::as_str)
        .unwrap_or("batch");
    let mode = match policy {
        "batch" => Mode::Batch,
        "interactive" => Mode::Interactive,
        "portfolio" => Mode::Portfolio,
        other => {
            eprintln!("unknown policy: {other} (expected batch|interactive|portfolio)");
            return ExitCode::FAILURE;
        }
    };
    let trace = TraceHandle::disabled();
    if let Some(path) = flags.get("trace") {
        match std::fs::File::create(path) {
            Ok(f) => trace.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("could not create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let resume_path = flags.get("resume");
    let catalog = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30));
    let mut config = FlintConfig::builder()
        .n_workers(workers)
        .mode(mode)
        .risk_aversion(risk)
        .seed(seed)
        .trace(trace)
        .backend(backend)
        .build();
    config.driver.suspend_after_waves = suspend_after;

    if suspend_after.is_some() || resume_path.is_some() {
        return cmd_run_degraded(catalog, config, wl.as_ref(), flags, resume_path);
    }
    let run = match run_on_flint(catalog, config, wl.as_ref()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(EXIT_TYPED);
        }
    };
    print_run_report(&run, flags.get("trace"));
    ExitCode::SUCCESS
}

/// The shared tail of every `flint run` variant: the human-readable
/// summary of a completed run.
fn print_run_report(run: &flint::runner::RunReport, trace_path: Option<&String>) {
    println!("workload     : {}", run.summary.name);
    println!("records      : {}", run.summary.records);
    println!("checksum     : {:#018x}", run.summary.checksum);
    println!("runtime      : {:.1}s", run.runtime_secs);
    println!("tasks        : {}", run.stats.tasks_run);
    println!(
        "checkpoints  : {} ({} GB)",
        run.stats.checkpoints_written,
        run.stats.checkpoint_bytes / 1_000_000_000
    );
    println!("restores     : {}", run.stats.restores);
    println!("revocations  : {}", run.stats.revocations);
    println!("backend      : {}", run.backend());
    println!("policy       : {}", run.cost.policy);
    if run.cost.invocations > 0 {
        println!("invocations  : {}", run.cost.invocations);
        println!("gb-seconds   : {:.2}", run.cost.invocation_gb_seconds);
        // Per-invocation pricing bills in micro-dollars; two decimals
        // would round a typical run to $0.00.
        println!("compute cost : ${:.6}", run.cost.compute_cost);
    } else {
        println!("compute cost : ${:.2}", run.cost.compute_cost);
    }
    println!("storage cost : ${:.2}", run.cost.storage_cost);
    if let Some(path) = trace_path {
        println!("trace        : written to {path}");
    }
}

/// The crash-resume arm of `flint run`: drives the cluster directly so
/// the driver can be suspended at a wave boundary (writing its manifest
/// to a file) or resumed from one. A resumed run that completes exits
/// with [`EXIT_DEGRADED`] — correct but through the degradation path.
fn cmd_run_degraded(
    catalog: MarketCatalog,
    config: FlintConfig,
    wl: &dyn Workload,
    flags: &HashMap<String, String>,
    resume_path: Option<&String>,
) -> ExitCode {
    let trace = config.trace.clone();
    let mut cluster = FlintCluster::launch(catalog, config);
    let mut cost_model = *cluster.driver().cost_model();
    cost_model.size_scale = wl.recommended_size_scale();
    cluster.driver_mut().set_cost_model(cost_model);

    let mut resumed_from = None;
    if let Some(path) = resume_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("run: could not read manifest {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let manifest = match RunManifest::decode(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("run: {path} is not a run manifest: {e}");
                return ExitCode::FAILURE;
            }
        };
        match cluster.driver_mut().resume(&manifest) {
            Ok(()) => resumed_from = Some((path.clone(), manifest.frontier)),
            Err(e) => {
                eprintln!("run: resume rejected: {e}");
                return ExitCode::from(EXIT_TYPED);
            }
        }
    }

    let started = cluster.driver().now();
    match wl.run(cluster.driver_mut()) {
        Ok(summary) => {
            let runtime_secs = (cluster.driver().now() - started).as_secs_f64();
            let stats = cluster.driver().stats().clone();
            let cost = cluster.shutdown();
            trace.flush();
            let run = flint::runner::RunReport {
                summary,
                runtime_secs,
                stats,
                cost,
                trace: None,
            };
            print_run_report(&run, flags.get("trace"));
            match resumed_from {
                Some((path, frontier)) => {
                    println!("resumed      : replayed from wave {frontier} ({path})");
                    ExitCode::from(EXIT_DEGRADED)
                }
                None => ExitCode::SUCCESS,
            }
        }
        Err(EngineError::Suspended { manifest, frontier }) => {
            let Some(text) = cluster
                .driver()
                .checkpoints()
                .get_manifest(&manifest)
                .map(str::to_string)
            else {
                eprintln!("run: suspended but no manifest was persisted");
                return ExitCode::from(EXIT_TYPED);
            };
            let out = flags
                .get("manifest")
                .cloned()
                .unwrap_or_else(|| "flint.manifest".to_string());
            if let Err(e) = std::fs::write(&out, &text) {
                eprintln!("run: could not write {out}: {e}");
                return ExitCode::FAILURE;
            }
            trace.flush();
            println!("suspended    : at wave {frontier}; manifest written to {out}");
            println!("resume with  : flint run … --resume {out} (same flags)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(EXIT_TYPED)
        }
    }
}

fn cmd_workload(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(name) = args.get(1) else {
        eprintln!("workload: missing name");
        return ExitCode::FAILURE;
    };
    let wl = or_usage!(parse_workload(name, flags));
    let workers = or_usage!(flag_u(flags, "workers", 10));
    let failures = or_usage!(flag_u32(flags, "failures", 0, 0));
    let checkpoint = flags.contains_key("checkpoint");
    let mttf = SimDuration::from_hours_f64(or_usage!(flag_positive(flags, "mttf", 20.0)));

    // Time the failure-free run first so failures can strike mid-job.
    let mut driver_cfg = DriverConfig::default();
    driver_cfg.cost.size_scale = wl.recommended_size_scale();
    let baseline = {
        let mut d = Driver::new(
            driver_cfg.clone(),
            Box::new(NoCheckpoint),
            Box::new(flint::engine::NoFailures),
        );
        for _ in 0..workers {
            d.add_worker(WorkerSpec::r3_large());
        }
        if let Err(e) = wl.run(&mut d) {
            eprintln!("run failed: {e}");
            return ExitCode::from(EXIT_TYPED);
        }
        d.now().since_epoch()
    };

    let mut events = Vec::new();
    let strike = SimTime::ZERO + baseline / 2;
    for ext in 1..=u64::from(failures) {
        events.push((strike, WorkerEvent::Remove { ext_id: ext }));
        events.push((
            strike + SimDuration::from_secs(120),
            WorkerEvent::Add {
                ext_id: 1000 + ext,
                spec: WorkerSpec::r3_large(),
            },
        ));
    }
    let hooks: Box<dyn flint::engine::CheckpointHooks> = if checkpoint {
        Box::new(FlintCheckpointPolicy::with_mttf(mttf))
    } else {
        Box::new(NoCheckpoint)
    };
    let mut d = Driver::new(driver_cfg, hooks, Box::new(ScriptedInjector::new(events)));
    for ext in 1..=workers {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let summary = match wl.run(&mut d) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(EXIT_TYPED);
        }
    };
    let runtime = d.now().since_epoch();
    println!("workload     : {}", summary.name);
    println!("records      : {}", summary.records);
    println!("checksum     : {:#018x}", summary.checksum);
    println!("baseline     : {baseline}");
    println!("runtime      : {runtime}");
    println!(
        "increase     : {:+.1}%",
        (runtime.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0
    );
    let s = d.stats();
    println!("tasks        : {}", s.tasks_run);
    println!("recompute    : {}", s.recompute_time);
    println!(
        "checkpoints  : {} ({} GB)",
        s.checkpoints_written,
        s.checkpoint_bytes / 1_000_000_000
    );
    println!("restores     : {}", s.restores);
    println!("revocations  : {}", s.revocations);
    if let Some(path) = flags.get("dot") {
        match std::fs::write(path, d.lineage().to_dot()) {
            Ok(()) => println!("lineage DOT  : written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_markets(flags: &HashMap<String, String>) -> ExitCode {
    let seed = or_usage!(flag_u(flags, "seed", 42));
    let days = or_usage!(flag_u(flags, "days", 60));
    let cat = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(days));
    let now = SimTime::ZERO + SimDuration::from_days(days.saturating_sub(1));
    let window = SimDuration::from_days(7);
    println!(
        "{:<28} {:>10} {:>10} {:>12}",
        "market", "current$", "mean$", "MTTF"
    );
    for m in cat.spot_markets() {
        let s = m.stats(now, window, m.on_demand_price);
        println!(
            "{:<28} {:>10.4} {:>10.4} {:>12}",
            m.name,
            s.current_price,
            s.mean_price,
            s.mttf.to_string()
        );
    }
    ExitCode::SUCCESS
}

/// `flint mc --risk` in the thousandths `PolicyKind::Portfolio` holds,
/// rounded to the nearest. A value the thousandths cannot hold is a
/// usage error: the cast used to saturate everything above
/// 4 294 967.295 to that λ and truncate `0.0004` to λ = 0.
fn flag_risk_milli(flags: &HashMap<String, String>) -> Result<u32, String> {
    let risk = flag_risk(flags)?;
    let milli = (risk * 1000.0).round();
    if milli > f64::from(u32::MAX) || (risk > 0.0 && milli == 0.0) {
        Err(format!(
            "invalid value for --risk: {} (flint mc rounds it to the nearest \
             0.001; expected 0 or 0.0005 to 4294967.295)",
            flags["risk"]
        ))
    } else {
        Ok(milli as u32)
    }
}

fn cmd_mc(flags: &HashMap<String, String>) -> ExitCode {
    let risk_milli = or_usage!(flag_risk_milli(flags));
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("batch") {
        "batch" => PolicyKind::FlintBatch,
        "interactive" => PolicyKind::FlintInteractive,
        "portfolio" => PolicyKind::Portfolio(risk_milli),
        "fleet" => PolicyKind::SpotFleetCheapest,
        "od" | "on-demand" => PolicyKind::OnDemand,
        other => {
            eprintln!("unknown policy: {other}");
            return ExitCode::FAILURE;
        }
    };
    let hours = or_usage!(flag_u(flags, "hours", 24));
    let seed = or_usage!(flag_u(flags, "seed", 0));
    let workers = or_usage!(flag_u32(flags, "workers", 10, 1));
    let runs = u64::from(or_usage!(flag_u32(flags, "runs", 1, 1)));
    let jobs = or_usage!(flag_u32(flags, "jobs", 1, 1)) as usize;
    let cat = MarketCatalog::synthetic_ec2(40, SimDuration::from_days(90));
    let ckpt = if flags.contains_key("no-checkpoint") {
        CkptMode::None
    } else {
        CkptMode::Adaptive
    };
    let base = McConfig {
        job_length: SimDuration::from_hours(hours),
        n_workers: workers,
        policy,
        ckpt,
        seed,
        ..McConfig::default()
    };
    if runs > 1 {
        // Seed campaign: compute in parallel (--jobs), merge in seed
        // order — the printed report is byte-identical for any --jobs.
        let campaign = CampaignConfig::consecutive(base, runs, jobs);
        let report = run_mc_campaign(&cat, &campaign);
        println!("policy        : {}", policy.name());
        print!("{report}");
        return ExitCode::SUCCESS;
    }
    let r = run_mc(&cat, &base);
    println!("policy        : {}", policy.name());
    println!("runtime       : {}", r.runtime);
    println!("compute cost  : ${:.2}", r.compute_cost);
    println!("storage cost  : ${:.2}", r.storage_cost);
    println!("unit cost     : {:.3} (on-demand = 1.0)", r.unit_cost());
    println!(
        "revocations   : {} events / {} servers",
        r.revocation_events, r.servers_revoked
    );
    println!("stall fraction: {:.1}%", r.stall_fraction * 100.0);
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    // `flint trace --seed N …` (no subcommand) keeps its original meaning:
    // dump a market price trace as CSV.
    let sub = args
        .get(1)
        .map(String::as_str)
        .filter(|s| !s.starts_with("--"))
        .unwrap_or("prices");
    match sub {
        "prices" => cmd_trace_prices(flags),
        "summary" | "validate" => {
            let Some(path) = args.get(2).filter(|p| !p.starts_with("--")) else {
                eprintln!("trace {sub}: missing FILE");
                return ExitCode::FAILURE;
            };
            let reader = match std::fs::File::open(path) {
                Ok(f) => std::io::BufReader::new(f),
                Err(e) => {
                    eprintln!("could not read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // One pass, one event in memory at a time: multi-gigabyte
            // traces stream through instead of materializing.
            if sub == "validate" {
                let mut pairing = FaultPairing::default();
                let events = match scan_trace(reader, |ev| pairing.observe(ev)) {
                    Ok(n) => n,
                    Err(msg) => {
                        eprintln!("{path}: {msg}");
                        return ExitCode::FAILURE;
                    }
                };
                let pairs = match pairing.finish() {
                    Ok(pairs) => pairs,
                    Err(msg) => {
                        eprintln!("{path}: {msg}");
                        return ExitCode::FAILURE;
                    }
                };
                if pairs > 0 {
                    println!("{path}: OK ({events} events, {pairs} fault/recovery pairs)");
                } else {
                    println!("{path}: OK ({events} events)");
                }
            } else {
                let mut agg = MetricsAggregator::new();
                if let Err(msg) = scan_trace(reader, |ev| agg.observe(ev)) {
                    eprintln!("{path}: {msg}");
                    return ExitCode::FAILURE;
                }
                print!("{agg}");
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown trace subcommand: {other} (expected summary|validate|prices)");
            ExitCode::FAILURE
        }
    }
}

/// Streams a JSONL event trace, enforcing the invariants a real run
/// guarantees: every line decodes, there is at least one event, and
/// timestamps never go backwards. Each decoded event is handed to
/// `on_event` and dropped, so arbitrarily large traces scan in constant
/// memory. Returns the event count.
fn scan_trace(
    reader: impl std::io::BufRead,
    mut on_event: impl FnMut(&Event),
) -> Result<u64, String> {
    let mut events = 0u64;
    let mut last_t = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::from_json(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if let Some(prev) = last_t {
            if ev.t < prev {
                return Err(format!(
                    "line {}: timestamp {} goes backwards (previous {})",
                    i + 1,
                    ev.t,
                    prev
                ));
            }
        }
        last_t = Some(ev.t);
        on_event(&ev);
        events += 1;
    }
    if events == 0 {
        return Err("no events".to_string());
    }
    Ok(events)
}

/// Streaming fold of the fault/recovery pairing invariant: every
/// `CheckpointCorruptDetected` for a block must be answered later in the
/// stream by a `RestoreFallback` for the same block — unless the run
/// ended in a typed failure, visible as an action that started but never
/// finished.
#[derive(Default)]
struct FaultPairing {
    pending: Vec<String>,
    pairs: usize,
    open_actions: i64,
}

impl FaultPairing {
    fn observe(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::CheckpointCorruptDetected { block } => self.pending.push(block.clone()),
            EventKind::RestoreFallback { block, .. } => {
                if let Some(pos) = self.pending.iter().position(|b| b == block) {
                    self.pending.remove(pos);
                    self.pairs += 1;
                }
            }
            EventKind::ActionStarted { .. } => self.open_actions += 1,
            EventKind::ActionFinished { .. } => self.open_actions -= 1,
            _ => {}
        }
    }

    /// Returns the number of matched pairs, or the pairing violation.
    fn finish(self) -> Result<usize, String> {
        if self.pending.is_empty() || self.open_actions > 0 {
            Ok(self.pairs)
        } else {
            Err(format!(
                "{} corrupt-checkpoint detection(s) never answered by a \
                 restore fallback or typed failure: {:?}",
                self.pending.len(),
                self.pending
            ))
        }
    }
}

/// Builds correlated ext-id groups for mass revocations by grouping the
/// catalog's spot markets on their spike correlation and assigning base
/// workers to markets round-robin — the chaos analogue of the paper's
/// observation that servers in correlated markets fail together.
fn correlated_ext_groups(seed: u64, workers: u32) -> Vec<Vec<u64>> {
    let catalog = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30));
    let spot = catalog.spot_markets();
    if spot.is_empty() {
        return Vec::new();
    }
    let traces: Vec<_> = spot.iter().map(|m| &m.trace).collect();
    let corr = correlation_matrix(
        &traces,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_days(30),
        SimDuration::from_mins(10),
        2.0,
    );
    correlated_groups(&corr, 0.25)
        .into_iter()
        .map(|group| {
            (1..=u64::from(workers))
                .filter(|ext| group.contains(&(((ext - 1) as usize) % spot.len())))
                .collect::<Vec<u64>>()
        })
        .filter(|g| !g.is_empty())
        .collect()
}

/// Chaos-mode checkpoint policy: checkpoint every RDD the moment it
/// materializes. Real deployments use the adaptive τ policy; chaos
/// campaigns want maximum traffic through the degraded store so torn
/// writes, lost writes, and outage-window reads all get exercised.
struct CkptEveryRdd;

impl flint::engine::CheckpointHooks for CkptEveryRdd {
    fn on_rdd_materialized(
        &mut self,
        _view: &flint::engine::LineageView<'_>,
        _events: &mut dyn flint::engine::EventSink,
        rdd: flint::engine::RddId,
        _now: SimTime,
    ) -> Vec<flint::engine::CheckpointDirective> {
        vec![flint::engine::CheckpointDirective::Checkpoint(rdd)]
    }
}

fn cmd_chaos(flags: &HashMap<String, String>) -> ExitCode {
    let seed = or_usage!(flag_u(flags, "seed", 42));
    let runs = u64::from(or_usage!(flag_u32(flags, "runs", 3, 1)));
    let jobs = or_usage!(flag_u32(flags, "jobs", 1, 1)) as usize;
    let workers = or_usage!(flag_u32(flags, "workers", 4, 1));
    let revocations = or_usage!(flag_num::<u32>(flags, "revocations"));
    let crash_prob = or_usage!(flag_prob(flags, "crash-prob", 0.5));
    let crash_wave_max = u64::from(or_usage!(flag_u32(flags, "crash-wave-max", 8, 1)));
    let collapse_prob = or_usage!(flag_prob(flags, "collapse-prob", 0.5));
    let faults = flags.get("faults").map(String::as_str).unwrap_or("all");
    let enabled: Vec<&str> = faults.split(',').map(str::trim).collect();
    if let Some(bad) = enabled
        .iter()
        .find(|k| **k != "all" && !FAULT_KINDS.contains(k))
    {
        eprintln!(
            "unknown fault kind: {bad} (expected all or some of {})",
            FAULT_KINDS.join(",")
        );
        return ExitCode::FAILURE;
    }
    let has = |k: &str| enabled.contains(&"all") || enabled.contains(&k);
    let mttf = SimDuration::from_hours_f64(or_usage!(flag_positive(flags, "mttf", 1.0)));

    let name = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("pagerank");
    let defaults = WorkloadConfig {
        dataset_gb: 0.3,
        partitions: 6,
        iterations: 3,
        seed: 1,
    };
    let wl_cfg = or_usage!(workload_config(flags, defaults, "wl-seed"));
    // Workloads are not shareable across threads; each parallel run
    // rebuilds its own instance from the (copyable) name + config.
    let make_wl = |name: &str| -> Option<Box<dyn Workload>> {
        match name {
            "pagerank" => Some(Box::new(PageRank::new(wl_cfg))),
            "kmeans" => Some(Box::new(KMeans::new(wl_cfg))),
            "als" => Some(Box::new(Als::new(wl_cfg))),
            "tpch" => Some(Box::new(Tpch::new(wl_cfg))),
            _ => None,
        }
    };
    let Some(wl) = make_wl(name) else {
        eprintln!("unknown workload: {name}");
        return ExitCode::FAILURE;
    };
    let ckpt_kind = flags.get("ckpt").map(String::as_str).unwrap_or("eager");
    if !matches!(ckpt_kind, "eager" | "adaptive" | "none") {
        eprintln!("unknown ckpt policy: {ckpt_kind} (expected eager|adaptive|none)");
        return ExitCode::FAILURE;
    }

    // The fault-free twin: its digest is the ground truth every chaos
    // run must reproduce, and its runtime sizes the fault horizon so
    // faults strike mid-job rather than after completion.
    let mut driver_cfg = DriverConfig::default();
    driver_cfg.cost.size_scale = wl.recommended_size_scale();
    let (expect, baseline) = {
        let mut d = Driver::new(
            driver_cfg.clone(),
            Box::new(NoCheckpoint),
            Box::new(flint::engine::NoFailures),
        );
        for ext in 1..=u64::from(workers) {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        let s = wl.run(&mut d).expect("fault-free twin run");
        (s, d.now().since_epoch())
    };

    let groups = if has("mass") {
        correlated_ext_groups(seed, workers)
    } else {
        Vec::new()
    };

    println!(
        "chaos campaign: seed {seed}, {runs} run(s), faults [{faults}], \
         workload {name}"
    );
    println!(
        "fault-free    : checksum {:#018x}, {} records, runtime {baseline}",
        expect.checksum, expect.records
    );

    /// How one chaos run ended, for the survival tally. `Degraded` is
    /// byte-identical survival that went through the crash-resume path.
    enum RunClass {
        Survived,
        Degraded,
        Typed,
        Violation,
    }

    // Each run is self-contained (own seed, own workload instance, own
    // trace file), so runs fan out across `--jobs` scoped threads and
    // their verdicts are committed back in run order — output and
    // per-run trace files are byte-identical to a sequential campaign.
    let run_ids: Vec<u64> = (0..runs).collect();
    let outcomes = fan_out(jobs, &run_ids, |&r| {
        let run_seed = seed.wrapping_add(r);
        let mut ccfg = ChaosConfig::new(run_seed);
        ccfg.n_workers = workers;
        ccfg.horizon = baseline.max(SimDuration::from_mins(1));
        ccfg.groups.clone_from(&groups);
        if !has("revoke") && !has("mass") && !has("flap") {
            ccfg.revocations = 0;
        }
        if !has("mass") {
            ccfg.mass_revoke_prob = 0.0;
        }
        if !has("flap") {
            ccfg.flap_prob = 0.0;
        }
        if !has("delay") {
            ccfg.delayed_frac = 0.0;
        }
        if !has("store") {
            ccfg.torn_write_prob = 0.0;
            ccfg.failed_write_prob = 0.0;
            ccfg.outages = 0;
        }
        if let Some(n) = revocations {
            ccfg.revocations = n;
        }
        // The crash/collapse kinds arm only when named explicitly: they
        // change the campaign's shape (runs suspend and replay through
        // `Driver::resume` mid-flight), so `all` keeps its historical
        // meaning of every in-run fault kind.
        if enabled.contains(&"driver-crash") {
            ccfg.driver_crash_prob = crash_prob;
            ccfg.driver_crash_wave_max = crash_wave_max;
        }
        if enabled.contains(&"market-collapse") {
            ccfg.market_collapse_prob = collapse_prob;
        }

        let schedule = ChaosSchedule::generate(&ccfg);
        let crash_wave = schedule.driver_crash_wave;
        let collapsed = schedule
            .notes
            .iter()
            .any(|(_, k, _)| k == "market_collapse");

        let trace_path = flags.get("trace").map(|p| {
            if runs > 1 {
                format!("{p}.run{r}")
            } else {
                p.clone()
            }
        });
        // Sinks attach per session: a crashed session's partial trace is
        // discarded and the file re-created for the resumed session, so
        // the file always holds one complete, monotonic event stream.
        let open_sink = |tr: &TraceHandle| -> Result<(), String> {
            if let Some(path) = &trace_path {
                match std::fs::File::create(path) {
                    Ok(f) => {
                        tr.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f))));
                        Ok(())
                    }
                    Err(e) => Err(format!("could not create {path}: {e}")),
                }
            } else {
                Ok(())
            }
        };
        let wl = make_wl(name).expect("workload validated before fan-out");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let build = |suspend: Option<u64>, tr: &TraceHandle| {
                let mut cfg = driver_cfg.clone();
                cfg.suspend_after_waves = suspend;
                let hooks: Box<dyn flint::engine::CheckpointHooks> = match ckpt_kind {
                    "eager" => Box::new(CkptEveryRdd),
                    "adaptive" => Box::new(FlintCheckpointPolicy::with_mttf(mttf)),
                    _ => Box::new(NoCheckpoint),
                };
                let mut d = Driver::new(
                    cfg,
                    hooks,
                    Box::new(ChaosInjector::from_schedule(schedule.clone())),
                );
                d.set_trace(tr.clone());
                d.checkpoints_mut()
                    .set_fault_policy(Box::new(schedule.store_faults(&ccfg)));
                for ext in 1..=u64::from(workers) {
                    d.add_worker_with_ext(ext, WorkerSpec::r3_large());
                }
                d
            };
            // Returns (result, resumed-from wave): result carries the
            // summary plus stats/runtime of whichever session completed.
            let tr = TraceHandle::disabled();
            if let Err(e) = open_sink(&tr) {
                return (Err(e), None);
            }
            match crash_wave {
                None => {
                    let mut d = build(None, &tr);
                    let res = wl
                        .run(&mut d)
                        .map(|s| (s, d.stats().clone(), d.now().since_epoch()))
                        .map_err(|e| format!("{e}"));
                    tr.flush();
                    (res, None)
                }
                Some(w) => {
                    // Session A runs doomed: killed at wave boundary w
                    // (unless the job finishes first).
                    let mut a = build(Some(w), &tr);
                    match wl.run(&mut a) {
                        Ok(s) => {
                            let res = Ok((s, a.stats().clone(), a.now().since_epoch()));
                            tr.flush();
                            (res, None)
                        }
                        Err(EngineError::Suspended { manifest, .. }) => {
                            let text = a.checkpoints().get_manifest(&manifest).map(str::to_string);
                            // Release A's file handle before truncating
                            // the path for the resumed session.
                            drop(a);
                            drop(tr);
                            let Some(text) = text else {
                                return (Err("suspended but no manifest persisted".into()), None);
                            };
                            let m = match RunManifest::decode(&text) {
                                Ok(m) => m,
                                Err(e) => return (Err(format!("manifest decode: {e}")), None),
                            };
                            let tb = TraceHandle::disabled();
                            if let Err(e) = open_sink(&tb) {
                                return (Err(e), None);
                            }
                            let mut b = build(None, &tb);
                            if let Err(e) = b.resume(&m) {
                                return (Err(format!("{e}")), None);
                            }
                            let res = wl
                                .run(&mut b)
                                .map(|s| (s, b.stats().clone(), b.now().since_epoch()))
                                .map_err(|e| format!("{e}"));
                            tb.flush();
                            (res, Some(w))
                        }
                        Err(e) => {
                            tr.flush();
                            (Err(format!("{e}")), None)
                        }
                    }
                }
            }
        }));

        let (class, verdict) = match outcome {
            Err(_) => (
                RunClass::Violation,
                format!("PANIC (seed {run_seed}) — invariant violated"),
            ),
            Ok((Ok((s, stats, runtime)), resumed)) => {
                if s.checksum == expect.checksum && s.records == expect.records {
                    let mut tags = String::new();
                    if let Some(w) = resumed {
                        tags.push_str(&format!(", resumed from wave {w}"));
                    }
                    if collapsed {
                        tags.push_str(", market collapse");
                    }
                    let verdict = format!(
                        "survived byte-identical ({:+.1}% runtime, {} restores, \
                         {} revocations{tags})",
                        (runtime.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0,
                        stats.restores,
                        stats.revocations
                    );
                    if resumed.is_some() {
                        (RunClass::Degraded, verdict)
                    } else {
                        (RunClass::Survived, verdict)
                    }
                } else {
                    (
                        RunClass::Violation,
                        format!(
                            "WRONG DATA (checksum {:#018x} != {:#018x}) — invariant violated",
                            s.checksum, expect.checksum
                        ),
                    )
                }
            }
            Ok((Err(e), _)) => (RunClass::Typed, format!("typed error: {e}")),
        };
        (class, verdict, trace_path)
    });

    let mut survived = 0u64;
    let mut degraded = 0u64;
    let mut typed = 0u64;
    let mut violations = 0u64;
    for (r, (class, verdict, trace_path)) in outcomes.into_iter().enumerate() {
        match class {
            RunClass::Survived => survived += 1,
            RunClass::Degraded => degraded += 1,
            RunClass::Typed => typed += 1,
            RunClass::Violation => violations += 1,
        }
        let run_seed = seed.wrapping_add(r as u64);
        println!("run {r:>3} seed {run_seed:<8}: {verdict}");
        if let Some(path) = &trace_path {
            println!("              trace written to {path}");
        }
    }
    println!(
        "survival      : {}/{runs} byte-identical ({degraded} via resume), \
         {typed} typed error(s), {violations} violation(s)",
        survived + degraded
    );
    if violations > 0 {
        ExitCode::from(EXIT_PANIC)
    } else if typed > 0 {
        ExitCode::from(EXIT_TYPED)
    } else if degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_trace_prices(flags: &HashMap<String, String>) -> ExitCode {
    let seed = or_usage!(flag_u(flags, "seed", 42));
    let days = or_usage!(flag_u(flags, "days", 60));
    let market = or_usage!(flag_u32(flags, "market", 0, 0));
    let cat = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(days));
    if market as usize >= cat.len() {
        eprintln!("market index out of range (catalog has {})", cat.len());
        return ExitCode::FAILURE;
    }
    print!(
        "{}",
        cat.market(flint::market::MarketId(market)).trace.to_csv()
    );
    ExitCode::SUCCESS
}

fn cmd_experiment(args: &[String]) -> ExitCode {
    use flint_bench::{ablations, exp_engine, exp_market, exp_model};
    let Some(name) = args.get(1) else {
        eprintln!("experiment: missing name");
        return ExitCode::FAILURE;
    };
    let table = match name.as_str() {
        "fig02a" => exp_market::fig02a_ec2_availability(),
        "fig02b" => exp_market::fig02b_gce_availability(),
        "fig03" => exp_engine::fig03_memory_pressure(),
        "fig04" => exp_market::fig04_correlation(),
        "fig06a" => exp_engine::fig06a_ckpt_tax(),
        "fig06b" => exp_engine::fig06b_system_ckpt(),
        "fig06c" => exp_engine::fig06c_volatility(),
        "fig07" => exp_engine::fig07_single_revocation(),
        "fig08" => exp_engine::fig08_concurrent_failures(),
        "fig09" => exp_engine::fig09_interactive(),
        "fig10a" => exp_model::fig10a_mttf_sweep(),
        "fig10b" => exp_model::fig10b_flint_vs_spark(),
        "fig11a" => exp_model::fig11a_unit_cost(),
        "fig11b" => exp_model::fig11b_bid_sweep(),
        "multiaz" => exp_engine::tab_multi_az(),
        "storage" => exp_model::tab_storage_cost(),
        "ablation_tau" => ablations::ablation_fixed_tau(),
        "ablation_periodic" => ablations::ablation_adaptive_vs_periodic(),
        "ablation_fastpath" => ablations::ablation_shuffle_fastpath(),
        "ablation_markets" => ablations::ablation_market_count(),
        "ablation_bids" => ablations::ablation_bid_stratification(),
        "ext_streaming" => ablations::ext_streaming_latency(),
        "ablation_delta" => ablations::ablation_adaptive_delta(),
        "ablation_portfolio" => ablations::ablation_portfolio(),
        "ablation_backend" => ablations::ablation_backend(),
        "ablation_backstop" => ablations::ablation_backstop(),
        other => {
            eprintln!("unknown experiment: {other}");
            return ExitCode::FAILURE;
        }
    };
    println!("{table}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn backend_defaults_to_vm() {
        assert!(matches!(
            resolve_backend(&flags(&[])),
            Ok(BackendSpec::TransientVm)
        ));
        assert!(matches!(
            resolve_backend(&flags(&[("backend", "vm"), ("policy", "portfolio")])),
            Ok(BackendSpec::TransientVm)
        ));
    }

    #[test]
    fn serverless_backend_parses() {
        assert!(matches!(
            resolve_backend(&flags(&[("backend", "serverless")])),
            Ok(BackendSpec::Serverless(_))
        ));
    }

    #[test]
    fn unknown_backend_is_a_typed_error() {
        let err = resolve_backend(&flags(&[("backend", "mainframe")])).unwrap_err();
        assert_eq!(err, BackendFlagError::UnknownBackend("mainframe".into()));
        assert!(err.to_string().contains("vm|serverless"));
    }

    #[test]
    fn market_flags_are_rejected_under_serverless() {
        for flag in ["policy", "mode", "bid", "risk"] {
            let err =
                resolve_backend(&flags(&[("backend", "serverless"), (flag, "x")])).unwrap_err();
            assert_eq!(
                err,
                BackendFlagError::MeaninglessFlag {
                    backend: "serverless",
                    flag: match flag {
                        "policy" => "policy",
                        "mode" => "mode",
                        "bid" => "bid",
                        _ => "risk",
                    },
                },
            );
            assert!(err.to_string().contains(flag));
        }
    }
}
