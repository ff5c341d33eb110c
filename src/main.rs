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

use std::process::ExitCode;
use std::str::FromStr;

use flint::core::{
    BackendSpec, FlintCheckpointPolicy, FlintCluster, FlintConfig, Mode, STATS_WINDOW,
};
use flint::engine::{
    run_against_twin, ChaosConfig, ChaosInjector, ChaosSchedule, ChaosVerdict, CheckpointEveryRdd,
    Driver, DriverConfig, EngineError, NoCheckpoint, RunManifest, ScriptedInjector,
    ServerlessConfig, WorkerEvent, WorkerSpec,
};
use flint::market::{correlated_groups, correlation_matrix, MarketCatalog};
use flint::model::{run_mc, run_mc_campaign, CampaignConfig, CkptMode, McConfig, PolicyKind};
use flint::runner::run_on_flint;
use flint::simtime::{fan_out, SimDuration, SimTime};
use flint::trace::{Event, EventKind, JsonlSink, MetricsAggregator, TraceHandle};
use flint::workloads::{Als, KMeans, PageRank, Tpch, Workload, WorkloadConfig};
use Kind::{Choice, Count, List, Path, Positive, Prob, Risk, Switch, Within, U64};

/// Exit codes beyond plain success/failure, so callers can tell the
/// degradation outcomes apart: `3` = the run completed correctly but
/// through a crash-resume replay,
/// `4` = a typed engine error (fail-stop, never wrong data), `5` = a
/// panic or invariant violation. `1` stays for usage and I/O errors.
const EXIT_DEGRADED: u8 = 3;
const EXIT_TYPED: u8 = 4;
const EXIT_PANIC: u8 = 5;

/// Writes command output to stdout, like `print!`, through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `out!` with a trailing newline, like `println!`.
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The unwind payload of a write to a closed stdout (`flint markets |
/// head -1`): `main` turns it into a quiet exit 0.
struct ClosedStdout;

/// The one writer of command output. A closed stdout unwinds with
/// [`ClosedStdout`] through `resume_unwind`, which runs no panic hook;
/// the unwind still drops, and so flushes, open trace, manifest and DOT
/// files. Any other write error panics, as `println!` does.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            std::panic::resume_unwind(Box::new(ClosedStdout))
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

fn main() -> ExitCode {
    // A panic anywhere below is an invariant violation, reported with its
    // own exit code so scripts can tell it from a typed fail-stop error.
    match std::panic::catch_unwind(dispatch) {
        Ok(code) => code,
        Err(payload) if payload.is::<ClosedStdout>() => ExitCode::SUCCESS,
        Err(_) => ExitCode::from(EXIT_PANIC),
    }
}

/// Parses the command line and runs the command it names.
fn dispatch() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.first().map(String::as_str) {
        None => {
            eprint!("{}", help());
            return ExitCode::FAILURE;
        }
        Some("--help" | "-h" | "help") => {
            out!("{}", help());
            return ExitCode::SUCCESS;
        }
        // `flint trace --seed N …` (no subcommand) means `trace prices`.
        Some("trace") => match args.get(1).filter(|s| !s.starts_with("--")) {
            Some(sub) => (format!("trace {sub}"), &args[2..]),
            None => ("trace prices".to_string(), &args[1..]),
        },
        Some(cmd) => (cmd.to_string(), &args[1..]),
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command: {name}");
        eprint!("{}", help());
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(cmd, rest) {
        Ok(flags) => flags,
        Err(msg) => {
            eprint!("{msg}\n\nUSAGE:\n{}", cmd.usage());
            return ExitCode::FAILURE;
        }
    };
    (cmd.run)(&flags)
}

/// `flint --help`, generated from [`COMMANDS`].
fn help() -> String {
    let commands: String = COMMANDS.iter().map(Command::usage).collect();
    format!(
        "flint — batch-interactive data-intensive processing on transient servers

USAGE:
{commands}
EXIT CODES:
  0 success   1 usage/I-O error   3 degraded-but-complete (resumed)
  4 typed engine error (fail-stop)   5 panic / invariant violation
"
    )
}

/// One `flint` subcommand: its operand, its flag table and its body.
struct Command {
    name: &'static str,
    /// The positional operand the command requires, as `--help` names it.
    operand: Option<&'static str>,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Flags) -> ExitCode,
}

impl Command {
    /// This command's section of `--help`.
    fn usage(&self) -> String {
        let operand = self.operand.map(|o| format!(" {o}")).unwrap_or_default();
        let mut s = format!("  flint {}{operand}\n", self.name);
        for line in self.about.lines() {
            s += &format!("      {line}\n");
        }
        if self.name == "experiment" {
            // Listed from the experiment table, so `--help` cannot drift.
            let mut line = String::from("     ");
            for (name, _) in flint_bench::EXPERIMENTS {
                if line.len() + name.len() >= 78 {
                    s += &format!("{line}\n");
                    line = String::from("     ");
                }
                line += &format!(" {name}");
            }
            s += &format!("{line}\n");
        }
        for f in self.flags {
            let mut head = format!("--{}{}", f.name, f.kind.meta());
            if head.len() > 22 {
                head += &format!("\n{:28}", "");
            }
            let default = f.default.map(|d| format!(" (default {d})"));
            let default = default.unwrap_or_default();
            s += &format!("      {head:<22} {}{default}\n", f.help);
        }
        s
    }
}

/// One declared flag. This is the only place its name, value kind,
/// default and help text exist.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value when the flag is not given, as a user would type it;
    /// `None` leaves the flag unset.
    default: Option<&'static str>,
    help: &'static str,
}

const fn flag(
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

/// What a flag's value must be. Values are checked before the command
/// runs, so its body reads them without a `Result`.
#[derive(Clone, Copy)]
enum Kind {
    /// Takes no value: on when given.
    Switch,
    /// A file name.
    Path,
    /// One of fixed words; the noun names the value in the error.
    Choice(&'static str, &'static [&'static str]),
    /// A comma list of fixed words.
    List(&'static str, &'static [&'static str]),
    /// An integer from `min` to `u32::MAX`; a larger one is rejected, not
    /// wrapped.
    Count(u32),
    /// An integer from `min` to `max`, for a value whose cost grows with
    /// it (`--days` sizes every trace of the catalog).
    Within(u32, u32),
    U64,
    /// A finite number > 0.
    Positive,
    /// A probability in `[0, 1]`.
    Prob,
    /// The portfolio's risk aversion λ: a finite number ≥ 0. Clamping
    /// instead would run `nan` or `-1` as λ = 0, the batch policy's answer.
    Risk,
}

impl Kind {
    /// The value's placeholder in `--help`.
    fn meta(self) -> String {
        match self {
            Switch => String::new(),
            Path => " FILE".into(),
            Choice(_, words) => format!(" {}", words.join("|")),
            List(_, words) => format!(" {}", words.join(",")),
            Count(_) | Within(..) | U64 => " N".into(),
            Positive | Prob | Risk => " X".into(),
        }
    }

    /// Checks `v`, the value given to `--name`.
    fn check(self, name: &str, v: &str) -> Result<(), String> {
        let float = v.parse::<f64>().ok();
        let (ok, expected) = match self {
            Switch | Path => return Ok(()),
            Choice(what, words) if !words.contains(&v) => {
                return Err(format!(
                    "unknown {what}: {v} (expected {})",
                    words.join("|")
                ));
            }
            Choice(..) => return Ok(()),
            List(what, words) => {
                return match v.split(',').map(str::trim).find(|w| !words.contains(w)) {
                    Some(bad) => Err(format!(
                        "unknown {what}: {bad} (expected some of {})",
                        words.join(",")
                    )),
                    None => Ok(()),
                };
            }
            Count(min) => return Within(min, u32::MAX).check(name, v),
            Within(min, max) => (
                v.parse::<u32>().is_ok_and(|n| (min..=max).contains(&n)),
                format!("an integer from {min} to {max}"),
            ),
            U64 => (v.parse::<u64>().is_ok(), "an integer >= 0".into()),
            Positive => (
                float.is_some_and(|x| x.is_finite() && x > 0.0),
                "a finite number > 0".into(),
            ),
            Prob => (
                float.is_some_and(|x| (0.0..=1.0).contains(&x)),
                "a probability in [0, 1]".into(),
            ),
            Risk => (
                float.is_some_and(|x| x.is_finite() && x >= 0.0),
                "a finite number >= 0".into(),
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "invalid value for --{name}: {v} (expected {expected})"
            ))
        }
    }
}

/// A command's arguments, checked against its table by [`Flags::parse`].
struct Flags {
    table: &'static [Flag],
    /// The text given for each flag of `table`, in table order.
    given: Vec<Option<String>>,
    operand: Option<String>,
}

impl Flags {
    /// Checks `args` against `cmd` before anything runs: every flag is
    /// declared, given at most once and carries a value of its kind (a
    /// switch carries none), and the operand is there when the command
    /// takes one and absent otherwise.
    fn parse(cmd: &'static Command, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            table: cmd.flags,
            given: vec![None; cmd.flags.len()],
            operand: None,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if cmd.operand.is_none() || flags.operand.is_some() {
                    return Err(format!("unexpected argument: {arg}"));
                }
                flags.operand = Some(arg.clone());
                continue;
            };
            let slot = cmd
                .flags
                .iter()
                .position(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag: --{name}"))?;
            let value = match cmd.flags[slot].kind {
                Switch => String::new(),
                kind => {
                    let v = it
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("missing value for --{name}"))?;
                    kind.check(name, v)?;
                    v.clone()
                }
            };
            if flags.given[slot].replace(value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        match (cmd.operand, &flags.operand) {
            (Some(operand), None) => Err(format!("{}: missing {operand}", cmd.name)),
            _ => Ok(flags),
        }
    }

    fn slot(&self, name: &str) -> usize {
        self.table
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("--{name} is read but not declared"))
    }

    /// Whether `--name` was given; for a switch, whether it is on.
    fn given(&self, name: &str) -> bool {
        self.given[self.slot(name)].is_some()
    }

    /// `--name` as given, else its default; `None` when it has neither.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let slot = self.slot(name);
        let text = self.given[slot].as_deref().or(self.table[slot].default)?;
        Some(
            text.parse()
                .unwrap_or_else(|_| panic!("--{name} {text} was checked")),
        )
    }

    /// `--name` as given, else its default.
    fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("--{name} has no default"))
    }

    fn operand(&self) -> &str {
        self.operand.as_deref().unwrap_or_default()
    }
}

const WORKLOADS: &[&str] = &["pagerank", "kmeans", "als", "tpch"];

/// `--days` of generated price history: one day to ten years. The
/// catalog's memory grows with it, and `0` left no window to measure an
/// MTTF over.
const DAYS: Kind = Within(1, 3650);

/// Every `flint` subcommand, in `--help` order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "run", operand: Some("WORKLOAD"), run: cmd_run,
        about: "run pagerank, kmeans, als or tpch on a Flint-managed cluster",
        flags: &[
            flag("gb", Positive, Some("2"), "dataset size in GB"),
            flag("partitions", Count(1), Some("20"), "partitions per dataset"),
            flag("iterations", Count(0), Some("5"), "workload iterations"),
            flag("seed", U64, Some("42"), "workload and market seed"),
            flag("workers", Count(0), Some("10"), "cluster size"),
            flag("backend", Choice("backend", &["vm", "serverless"]), Some("vm"),
                "serverless runs every task as a billed function invocation"),
            flag("policy", Choice("policy", &["batch", "interactive", "portfolio"]), Some("batch"),
                "server selection policy; not under serverless"),
            flag("risk", Risk, Some("1"), "portfolio risk aversion λ; not under serverless"),
            flag("trace", Path, None, "write the structured event stream as JSONL"),
            flag("suspend-after", U64, None, "stop at wave-commit boundary N, writing a manifest"),
            flag("manifest", Path, Some("flint.manifest"), "where --suspend-after writes it"),
            flag("resume", Path, None, "replay from a manifest (same flags); exits 3 when done"),
        ],
    },
    Command {
        name: "workload", operand: Some("WORKLOAD"), run: cmd_workload,
        about: "run a workload on a plain engine cluster, revoking --failures workers\n\
                halfway through its fault-free runtime",
        flags: &[
            flag("gb", Positive, Some("2"), "dataset size in GB"),
            flag("partitions", Count(1), Some("20"), "partitions per dataset"),
            flag("iterations", Count(0), Some("5"), "workload iterations"),
            flag("seed", U64, Some("42"), "workload seed"),
            flag("workers", Count(0), Some("10"), "cluster size"),
            flag("failures", Count(0), Some("0"), "workers revoked mid-job"),
            flag("checkpoint", Switch, None, "checkpoint with Flint's adaptive policy"),
            flag("mttf", Positive, Some("20"), "MTTF in hours that policy assumes"),
            flag("dot", Path, None, "write the executed lineage graph as Graphviz DOT"),
        ],
    },
    Command {
        name: "chaos", operand: None, run: cmd_chaos,
        about: "seeded fault-injection campaign: each run is diffed against its\n\
                fault-free twin and must finish byte-identical or with a typed error;\n\
                a run whose driver crashes resumes from its persisted manifest",
        flags: &[
            flag("seed", U64, Some("42"), "campaign seed; run r uses seed + r"),
            flag("runs", Count(1), Some("3"), "runs in the campaign"),
            flag("jobs", Count(1), Some("1"), "host threads; output is the same for any"),
            flag("workers", Count(1), Some("4"), "cluster size"),
            flag("revocations", Count(0), None, "revocations per run (default: the schedule's)"),
            flag("faults", List("fault kind", &["all", "revoke", "mass", "flap", "delay", "store",
                "driver-crash", "market-collapse"]), Some("all"),
                "fault kinds; the last two arm only when named, not by all"),
            flag("crash-prob", Prob, Some("0.5"), "chance of a driver crash per run"),
            flag("crash-wave-max", Count(1), Some("8"), "last wave a driver crash can hit"),
            flag("collapse-prob", Prob, Some("0.5"), "chance of a market collapse per run"),
            flag("mttf", Positive, Some("1"), "MTTF in hours for --ckpt adaptive"),
            flag("workload", Choice("workload", WORKLOADS), Some("pagerank"), "workload"),
            flag("gb", Positive, Some("0.3"), "dataset size in GB"),
            flag("partitions", Count(1), Some("6"), "partitions per dataset"),
            flag("iterations", Count(0), Some("3"), "workload iterations"),
            flag("wl-seed", U64, Some("1"), "workload seed"),
            flag("ckpt", Choice("ckpt policy", &["eager", "adaptive", "none"]), Some("eager"),
                "checkpoint every RDD, adaptively, or never"),
            flag("trace", Path, None, "write each run's events as JSONL (FILE.runR if --runs > 1)"),
        ],
    },
    Command {
        name: "markets", operand: None, run: cmd_markets,
        about: "the synthetic EC2 spot markets: current and mean price, MTTF",
        flags: &[
            flag("seed", U64, Some("42"), "catalog seed"),
            flag("days", DAYS, Some("60"), "days of price history"),
        ],
    },
    Command {
        name: "mc", operand: None, run: cmd_mc,
        about: "Monte-Carlo model of a job's cost and runtime under a selection policy",
        flags: &[
            flag("policy", Choice("policy",
                &["batch", "interactive", "portfolio", "fleet", "od", "on-demand"]), Some("batch"),
                "server selection policy"),
            flag("risk", Risk, Some("1"), "portfolio risk aversion λ, rounded to 0.001"),
            flag("hours", U64, Some("24"), "job length in hours"),
            flag("seed", U64, Some("0"), "simulation seed"),
            flag("workers", Count(1), Some("10"), "cluster size"),
            flag("runs", Count(1), Some("1"), "seeds to replay and merge into a campaign report"),
            flag("jobs", Count(1), Some("1"), "host threads; output is the same for any"),
            flag("no-checkpoint", Switch, None, "turn adaptive checkpointing off"),
        ],
    },
    Command {
        name: "experiment", operand: Some("NAME"), run: cmd_experiment, flags: &[],
        about: "print a paper figure, table or ablation; NAME is its results/ file stem:",
    },
    Command {
        name: "trace summary", operand: Some("FILE"), flags: &[],
        run: |f| cmd_trace_file(f.operand(), false),
        about: "fold a JSONL event trace into run metrics",
    },
    Command {
        name: "trace validate", operand: Some("FILE"), flags: &[],
        run: |f| cmd_trace_file(f.operand(), true),
        about: "parse-check a JSONL event trace and verify fault/recovery pairing:\n\
                every corrupt checkpoint detection must be answered by a lineage\n\
                fallback or a typed failure",
    },
    Command {
        name: "trace prices", operand: None, run: cmd_trace_prices,
        about: "a market's price trace as CSV; also what `flint trace` alone means",
        flags: &[
            flag("seed", U64, Some("42"), "catalog seed"),
            flag("days", DAYS, Some("60"), "days of price history"),
            flag("market", Count(0), Some("0"), "market index in the catalog"),
        ],
    },
];

/// Resolves `--backend`. Under `serverless`, the flags that parameterize
/// the VM market path are rejected instead of silently ignored.
fn resolve_backend(f: &Flags) -> Result<BackendSpec, String> {
    if f.get::<String>("backend") == "vm" {
        return Ok(BackendSpec::TransientVm);
    }
    match ["policy", "risk"].into_iter().find(|name| f.given(name)) {
        Some(name) => Err(format!(
            "--{name} is meaningless under the serverless backend: functions are \
             not bid for on spot markets (drop --{name} or use --backend vm)"
        )),
        None => Ok(BackendSpec::Serverless(ServerlessConfig::default())),
    }
}

/// `--gb`, `--partitions`, `--iterations` and the seed flag `seed_flag`.
fn workload_config(f: &Flags, seed_flag: &str) -> WorkloadConfig {
    WorkloadConfig {
        dataset_gb: f.get("gb"),
        partitions: f.get("partitions"),
        iterations: f.get("iterations"),
        seed: f.get(seed_flag),
    }
}

/// The workload `name` names, `None` for a name outside [`WORKLOADS`].
fn make_workload(name: &str, cfg: WorkloadConfig) -> Option<Box<dyn Workload>> {
    let wl: Box<dyn Workload> = match name {
        "pagerank" => Box::new(PageRank::new(cfg)),
        "kmeans" => Box::new(KMeans::new(cfg)),
        "als" => Box::new(Als::new(cfg)),
        "tpch" => Box::new(Tpch::new(cfg)),
        _ => return None,
    };
    Some(wl)
}

/// The operand's workload, or `None` after reporting an unknown name.
fn operand_workload(f: &Flags) -> Option<Box<dyn Workload>> {
    let wl = make_workload(f.operand(), workload_config(f, "seed"));
    if wl.is_none() {
        eprintln!("unknown workload: {}", f.operand());
    }
    wl
}

fn cmd_run(f: &Flags) -> ExitCode {
    let backend = match resolve_backend(f) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(wl) = operand_workload(f) else {
        return ExitCode::FAILURE;
    };
    let seed = f.get("seed");
    let suspend_after = f.opt("suspend-after");
    let mode = match f.get::<String>("policy").as_str() {
        "batch" => Mode::Batch,
        "interactive" => Mode::Interactive,
        _ => Mode::Portfolio,
    };
    let trace = TraceHandle::disabled();
    if let Some(path) = f.opt::<String>("trace") {
        match std::fs::File::create(&path) {
            Ok(file) => trace.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(file)))),
            Err(e) => {
                eprintln!("could not create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let catalog = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30));
    let mut config = FlintConfig::builder()
        .n_workers(f.get("workers"))
        .mode(mode)
        .risk_aversion(f.get("risk"))
        .seed(seed)
        .trace(trace)
        .backend(backend)
        .build();
    config.driver.suspend_after_waves = suspend_after;

    if suspend_after.is_some() || f.given("resume") {
        return cmd_run_degraded(catalog, config, wl.as_ref(), f);
    }
    let run = match run_on_flint(catalog, config, wl.as_ref()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(EXIT_TYPED);
        }
    };
    print_run_report(&run, f);
    ExitCode::SUCCESS
}

/// The shared tail of every `flint run` variant: the human-readable
/// summary of a completed run.
fn print_run_report(run: &flint::runner::RunReport, f: &Flags) {
    outln!("workload     : {}", run.summary.name);
    outln!("records      : {}", run.summary.records);
    outln!("checksum     : {:#018x}", run.summary.checksum);
    outln!("runtime      : {:.1}s", run.runtime_secs);
    outln!("tasks        : {}", run.stats.tasks_run);
    outln!(
        "checkpoints  : {} ({} GB)",
        run.stats.checkpoints_written,
        run.stats.checkpoint_bytes / 1_000_000_000
    );
    outln!("restores     : {}", run.stats.restores);
    outln!("revocations  : {}", run.stats.revocations);
    outln!("backend      : {}", run.backend());
    outln!("policy       : {}", run.cost.policy);
    if run.cost.invocations > 0 {
        outln!("invocations  : {}", run.cost.invocations);
        outln!("gb-seconds   : {:.2}", run.cost.invocation_gb_seconds);
        // Per-invocation pricing bills in micro-dollars; two decimals
        // would round a typical run to $0.00.
        outln!("compute cost : ${:.6}", run.cost.compute_cost);
    } else {
        outln!("compute cost : ${:.2}", run.cost.compute_cost);
    }
    outln!("storage cost : ${:.2}", run.cost.storage_cost);
    if let Some(path) = f.opt::<String>("trace") {
        outln!("trace        : written to {path}");
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
    f: &Flags,
) -> ExitCode {
    let trace = config.trace.clone();
    let mut cluster = FlintCluster::launch(catalog, config);
    let mut cost_model = *cluster.driver().cost_model();
    cost_model.size_scale = wl.recommended_size_scale();
    cluster.driver_mut().set_cost_model(cost_model);

    let mut resumed_from = None;
    if let Some(path) = f.opt::<String>("resume") {
        let text = match std::fs::read_to_string(&path) {
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
            Ok(()) => resumed_from = Some((path, manifest.frontier)),
            Err(e) => {
                eprintln!("run: resume rejected: {e}");
                return ExitCode::from(EXIT_TYPED);
            }
        }
    }

    let started = cluster.driver().now();
    match wl.run(cluster.driver_mut()) {
        Ok(summary) => {
            if let Err(e) = cluster.driver().resume_verified() {
                eprintln!("run: resume rejected: {e}");
                return ExitCode::from(EXIT_TYPED);
            }
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
            print_run_report(&run, f);
            match resumed_from {
                Some((path, frontier)) => {
                    outln!("resumed      : replayed from wave {frontier} ({path})");
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
            let out: String = f.get("manifest");
            if let Err(e) = std::fs::write(&out, &text) {
                eprintln!("run: could not write {out}: {e}");
                return ExitCode::FAILURE;
            }
            trace.flush();
            outln!("suspended    : at wave {frontier}; manifest written to {out}");
            outln!("resume with  : flint run … --resume {out} (same flags)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(EXIT_TYPED)
        }
    }
}

fn cmd_workload(f: &Flags) -> ExitCode {
    let Some(wl) = operand_workload(f) else {
        return ExitCode::FAILURE;
    };
    let workers: u64 = f.get("workers");
    let failures: u64 = f.get("failures");
    // Revocations target ext ids `1..=failures`: an id past `--workers`
    // names no worker, yet its replacement would still join.
    if failures > workers {
        eprintln!(
            "workload: invalid value for --failures: {failures} (at most --workers, {workers})"
        );
        return ExitCode::FAILURE;
    }
    let mttf = SimDuration::from_hours_f64(f.get("mttf"));

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
    for ext in 1..=failures {
        events.push((strike, WorkerEvent::Remove { ext_id: ext }));
        events.push((
            strike + SimDuration::from_secs(120),
            WorkerEvent::Add {
                ext_id: 1000 + ext,
                spec: WorkerSpec::r3_large(),
            },
        ));
    }
    let hooks: Box<dyn flint::engine::CheckpointHooks> = if f.given("checkpoint") {
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
    // Written before the report, so a closed stdout does not lose it.
    let dot = f
        .opt::<String>("dot")
        .map(|path| (std::fs::write(&path, d.lineage().to_dot()), path));
    outln!("workload     : {}", summary.name);
    outln!("records      : {}", summary.records);
    outln!("checksum     : {:#018x}", summary.checksum);
    outln!("baseline     : {baseline}");
    outln!("runtime      : {runtime}");
    outln!(
        "increase     : {:+.1}%",
        (runtime.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0
    );
    let s = d.stats();
    outln!("tasks        : {}", s.tasks_run);
    outln!("recompute    : {}", s.recompute_time);
    outln!(
        "checkpoints  : {} ({} GB)",
        s.checkpoints_written,
        s.checkpoint_bytes / 1_000_000_000
    );
    outln!("restores     : {}", s.restores);
    outln!("revocations  : {}", s.revocations);
    match dot {
        Some((Ok(()), path)) => outln!("lineage DOT  : written to {path}"),
        Some((Err(e), path)) => eprintln!("could not write {path}: {e}"),
        None => {}
    }
    ExitCode::SUCCESS
}

fn cmd_markets(f: &Flags) -> ExitCode {
    let days: u64 = f.get("days");
    let cat = MarketCatalog::synthetic_ec2(f.get("seed"), SimDuration::from_days(days));
    let now = SimTime::ZERO + SimDuration::from_days(days.saturating_sub(1));
    outln!(
        "{:<28} {:>10} {:>10} {:>12}",
        "market",
        "current$",
        "mean$",
        "MTTF"
    );
    for m in cat.spot_markets() {
        let s = m.stats(now, STATS_WINDOW, m.on_demand_price);
        outln!(
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
fn risk_milli(f: &Flags) -> Result<u32, String> {
    let risk: f64 = f.get("risk");
    let milli = (risk * 1000.0).round();
    if milli > f64::from(u32::MAX) || (risk > 0.0 && milli == 0.0) {
        Err(format!(
            "invalid value for --risk: {} (flint mc rounds it to the nearest \
             0.001; expected 0 or 0.0005 to 4294967.295)",
            f.get::<String>("risk")
        ))
    } else {
        Ok(milli as u32)
    }
}

fn cmd_mc(f: &Flags) -> ExitCode {
    let risk_milli = match risk_milli(f) {
        Ok(milli) => milli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let policy = match f.get::<String>("policy").as_str() {
        "batch" => PolicyKind::FlintBatch,
        "interactive" => PolicyKind::FlintInteractive,
        "portfolio" => PolicyKind::Portfolio(risk_milli),
        "fleet" => PolicyKind::SpotFleetCheapest,
        _ => PolicyKind::OnDemand,
    };
    let runs: u64 = f.get("runs");
    let cat = MarketCatalog::synthetic_ec2(40, SimDuration::from_days(90));
    let ckpt = if f.given("no-checkpoint") {
        CkptMode::None
    } else {
        CkptMode::Adaptive
    };
    let base = McConfig {
        job_length: SimDuration::from_hours(f.get("hours")),
        n_workers: f.get("workers"),
        policy,
        ckpt,
        seed: f.get("seed"),
        ..McConfig::default()
    };
    if runs > 1 {
        // Seed campaign: compute in parallel (--jobs), merge in seed
        // order — the printed report is byte-identical for any --jobs.
        let campaign = CampaignConfig::consecutive(base, runs, f.get("jobs"));
        let report = run_mc_campaign(&cat, &campaign);
        outln!("policy        : {}", policy.name());
        out!("{report}");
        return ExitCode::SUCCESS;
    }
    let r = run_mc(&cat, &base);
    outln!("policy        : {}", policy.name());
    outln!("runtime       : {}", r.runtime);
    outln!("compute cost  : ${:.2}", r.compute_cost);
    outln!("storage cost  : ${:.2}", r.storage_cost);
    outln!("unit cost     : {:.3} (on-demand = 1.0)", r.unit_cost());
    outln!(
        "revocations   : {} events / {} servers",
        r.revocation_events,
        r.servers_revoked
    );
    outln!("stall fraction: {:.1}%", r.stall_fraction * 100.0);
    ExitCode::SUCCESS
}

/// `flint trace validate FILE` (`validate`) or `flint trace summary FILE`.
fn cmd_trace_file(path: &str, validate: bool) -> ExitCode {
    let reader = match std::fs::File::open(path) {
        Ok(f) => std::io::BufReader::new(f),
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One pass, one event in memory at a time: multi-gigabyte
    // traces stream through instead of materializing.
    if validate {
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
            outln!("{path}: OK ({events} events, {pairs} fault/recovery pairs)");
        } else {
            outln!("{path}: OK ({events} events)");
        }
    } else {
        let mut agg = MetricsAggregator::new();
        if let Err(msg) = scan_trace(reader, |ev| agg.observe(ev)) {
            eprintln!("{path}: {msg}");
            return ExitCode::FAILURE;
        }
        out!("{agg}");
    }
    ExitCode::SUCCESS
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

fn cmd_chaos(f: &Flags) -> ExitCode {
    let seed: u64 = f.get("seed");
    let runs: u64 = f.get("runs");
    let workers: u32 = f.get("workers");
    let revocations: Option<u32> = f.opt("revocations");
    let crash_prob = f.get("crash-prob");
    let crash_wave_max = f.get("crash-wave-max");
    let collapse_prob = f.get("collapse-prob");
    let faults: String = f.get("faults");
    let enabled: Vec<&str> = faults.split(',').map(str::trim).collect();
    let has = |k: &str| enabled.contains(&"all") || enabled.contains(&k);
    let mttf = SimDuration::from_hours_f64(f.get("mttf"));
    let name: String = f.get("workload");
    let wl_cfg = workload_config(f, "wl-seed");
    // Workloads are not shareable across threads; each parallel run
    // rebuilds its own instance from the (copyable) name + config.
    let make_wl = || make_workload(&name, wl_cfg).expect("--workload was checked");
    let wl = make_wl();
    let ckpt_kind: String = f.get("ckpt");

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

    outln!(
        "chaos campaign: seed {seed}, {runs} run(s), faults [{faults}], \
         workload {name}"
    );
    outln!(
        "fault-free    : checksum {:#018x}, {} records, runtime {baseline}",
        expect.checksum,
        expect.records
    );

    // Each run is self-contained (own seed, own workload instance, own
    // trace file), so runs fan out across `--jobs` scoped threads and
    // their verdicts are committed back in run order — output and
    // per-run trace files are byte-identical to a sequential campaign.
    // Each verdict comes with the exit code it ranks as (0 byte-identical,
    // `EXIT_DEGRADED` byte-identical through a resume, `EXIT_TYPED`,
    // `EXIT_PANIC`); the campaign exits with the worst.
    let run_ids: Vec<u64> = (0..runs).collect();
    let outcomes = fan_out(f.get("jobs"), &run_ids, |&r| {
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
        let collapsed = schedule
            .notes
            .iter()
            .any(|(_, k, _)| k == "market_collapse");

        let trace_path =
            f.opt::<String>("trace")
                .map(|p| if runs > 1 { format!("{p}.run{r}") } else { p });
        // Sinks attach per session: a crashed session's partial trace is
        // discarded and the file re-created for the resumed session, so
        // the file always holds one complete, monotonic event stream.
        let build = |suspend: Option<u64>| -> Result<Driver, String> {
            let tr = TraceHandle::disabled();
            if let Some(path) = &trace_path {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("could not create {path}: {e}"))?;
                tr.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
            }
            let mut cfg = driver_cfg.clone();
            cfg.suspend_after_waves = suspend;
            let hooks: Box<dyn flint::engine::CheckpointHooks> = match ckpt_kind.as_str() {
                "eager" => Box::new(CheckpointEveryRdd),
                "adaptive" => Box::new(FlintCheckpointPolicy::with_mttf(mttf)),
                _ => Box::new(NoCheckpoint),
            };
            let mut d = Driver::new(
                cfg,
                hooks,
                Box::new(ChaosInjector::from_schedule(schedule.clone())),
            );
            d.set_trace(tr);
            d.checkpoints_mut()
                .set_fault_policy(Box::new(schedule.store_faults(&ccfg)));
            for ext in 1..=u64::from(workers) {
                d.add_worker_with_ext(ext, WorkerSpec::r3_large());
            }
            Ok(d)
        };
        let wl = make_wl();
        let (code, verdict) = match run_against_twin(&schedule, build, |d| wl.run(d), &expect) {
            ChaosVerdict::Identical {
                resumed_from,
                driver,
            } => {
                let mut tags = String::new();
                if let Some(w) = resumed_from {
                    tags.push_str(&format!(", resumed from wave {w}"));
                }
                if collapsed {
                    tags.push_str(", market collapse");
                }
                let runtime = driver.now().since_epoch();
                let verdict = format!(
                    "survived byte-identical ({:+.1}% runtime, {} restores, \
                     {} revocations{tags})",
                    (runtime.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0,
                    driver.stats().restores,
                    driver.stats().revocations
                );
                let code = if resumed_from.is_some() {
                    EXIT_DEGRADED
                } else {
                    0
                };
                (code, verdict)
            }
            ChaosVerdict::Typed(e) => (EXIT_TYPED, format!("typed error: {e}")),
            ChaosVerdict::WrongData(s) => (
                EXIT_PANIC,
                format!(
                    "WRONG DATA (checksum {:#018x} != {:#018x}) — invariant violated",
                    s.checksum, expect.checksum
                ),
            ),
            ChaosVerdict::Panicked(payload) if payload.is::<ClosedStdout>() => {
                std::panic::resume_unwind(payload)
            }
            ChaosVerdict::Panicked(_) => (
                EXIT_PANIC,
                format!("PANIC (seed {run_seed}) — invariant violated"),
            ),
        };
        (code, verdict, trace_path)
    });

    for (r, (_, verdict, trace_path)) in outcomes.iter().enumerate() {
        let run_seed = seed.wrapping_add(r as u64);
        outln!("run {r:>3} seed {run_seed:<8}: {verdict}");
        if let Some(path) = trace_path {
            outln!("              trace written to {path}");
        }
    }
    let count = |code: u8| outcomes.iter().filter(|o| o.0 == code).count();
    let degraded = count(EXIT_DEGRADED);
    outln!(
        "survival      : {}/{runs} byte-identical ({degraded} via resume), \
         {} typed error(s), {} violation(s)",
        count(0) + degraded,
        count(EXIT_TYPED),
        count(EXIT_PANIC)
    );
    ExitCode::from(outcomes.iter().map(|o| o.0).max().unwrap_or(0))
}

fn cmd_trace_prices(f: &Flags) -> ExitCode {
    let market: u32 = f.get("market");
    let cat = MarketCatalog::synthetic_ec2(f.get("seed"), SimDuration::from_days(f.get("days")));
    if market as usize >= cat.markets().len() {
        eprintln!(
            "market index out of range (catalog has {})",
            cat.markets().len()
        );
        return ExitCode::FAILURE;
    }
    out!(
        "{}",
        cat.market(flint::market::MarketId(market)).trace.to_csv()
    );
    ExitCode::SUCCESS
}

fn cmd_experiment(f: &Flags) -> ExitCode {
    match flint_bench::experiment(f.operand()) {
        Ok(run) => {
            outln!("{}", run());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, args: &[&str]) -> Result<Flags, String> {
        let cmd = COMMANDS.iter().find(|c| c.name == cmd).expect("command");
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(cmd, &args)
    }

    fn backend(args: &[&str]) -> Result<BackendSpec, String> {
        let f = parse("run", &[&["pagerank"], args].concat()).expect("flags parse");
        resolve_backend(&f)
    }

    #[test]
    fn backend_defaults_to_vm() {
        assert!(matches!(backend(&[]), Ok(BackendSpec::TransientVm)));
        assert!(matches!(
            backend(&["--backend", "vm", "--policy", "portfolio"]),
            Ok(BackendSpec::TransientVm)
        ));
    }

    #[test]
    fn serverless_backend_parses() {
        assert!(matches!(
            backend(&["--backend", "serverless"]),
            Ok(BackendSpec::Serverless(_))
        ));
    }

    #[test]
    fn unknown_backend_is_a_usage_error() {
        let err = parse("run", &["pagerank", "--backend", "mainframe"]).err();
        assert_eq!(
            err.as_deref(),
            Some("unknown backend: mainframe (expected vm|serverless)")
        );
    }

    #[test]
    fn market_flags_are_rejected_under_serverless() {
        for (flag, value) in [("--policy", "batch"), ("--risk", "1")] {
            let err = backend(&["--backend", "serverless", flag, value]).err();
            let err = err.expect("rejected");
            assert!(err.starts_with(&format!("{flag} is meaningless")), "{err}");
        }
    }

    /// Each table declares a name once, every default passes its own
    /// kind, a switch has no default (it is on exactly when given), and
    /// each help text fits its one `--help` line.
    #[test]
    fn every_flag_table_is_consistent() {
        for cmd in COMMANDS {
            for (i, f) in cmd.flags.iter().enumerate() {
                let at = format!("flint {} --{}", cmd.name, f.name);
                assert!(
                    cmd.flags[..i].iter().all(|g| g.name != f.name),
                    "{at} twice"
                );
                assert!(!f.help.contains('\n'), "{at}: multi-line help");
                match (f.kind, f.default) {
                    (Switch, Some(_)) => panic!("{at}: a switch has no default"),
                    (kind, Some(d)) => kind.check(f.name, d).expect(&at),
                    _ => {}
                }
            }
        }
    }
}
