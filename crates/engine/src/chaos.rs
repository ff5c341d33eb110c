//! Seeded chaos schedules: hostile worker churn and checkpoint-store
//! degradation, generated deterministically from a single `u64` seed.
//!
//! The chaos subsystem composes with the two fault surfaces the engine
//! already exposes, rather than adding new hooks inside the hot path:
//!
//! * worker faults ride the [`FailureInjector`] trait — a
//!   [`ChaosInjector`] is a pre-generated [`ScriptedInjector`] plus
//!   fault notes the driver turns into `FaultInjected` trace events;
//! * store faults ride the [`StoreFaultPolicy`] trait on
//!   [`crate::CheckpointStore`] — [`ChaosStoreFaults`] tears or drops
//!   writes and opens transient read-outage windows.
//!
//! Every decision is drawn from `flint_simtime::rng` sub-streams of the
//! campaign seed — never the wall clock — so the same seed replays the
//! same faults at the same virtual instants on every host.
//!
//! [`run_against_twin`] runs a job under a schedule's driver crash and
//! judges the result against its fault-free twin: the one crash →
//! resume → check lifecycle behind `flint chaos` and the recovery
//! campaigns.

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use flint_simtime::rng::stream;
use flint_simtime::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::checkpoint::{StoreFaultPolicy, WriteFault};
use crate::cluster::WorkerSpec;
use crate::injector::{FailureInjector, ScriptedInjector, WorkerEvent};
use crate::{Driver, EngineError, Result, RunManifest};

/// Lead time of a revocation warning when one is issued (EC2: 120 s).
const WARNING_LEAD: SimDuration = SimDuration::from_secs(120);
/// Add/Remove cycles per flapping worker.
const FLAP_CYCLES: u32 = 3;
/// Gap between flap transitions.
const FLAP_GAP: SimDuration = SimDuration::from_secs(15);
/// Normal replacement acquisition delay.
const REPLACEMENT_DELAY: SimDuration = SimDuration::from_secs(120);
/// Lateness multiplier for delayed replacements.
const DELAY_FACTOR: f64 = 8.0;
/// How long a market collapse leaves the cluster empty before the
/// recovery cohort arrives.
const COLLAPSE_LEN: SimDuration = SimDuration::from_mins(10);

/// Parameters of one seeded chaos campaign. Probabilities are per
/// scheduled revocation event (or per write, for the store knobs);
/// setting every rate to zero yields an empty schedule, which the
/// golden-trace suite uses to prove chaos-off is a no-op.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Campaign seed; every sub-stream derives from it.
    pub(crate) seed: u64,
    /// Schedule horizon — faults land in `(0, horizon]`.
    pub horizon: SimDuration,
    /// Base worker pool the driver starts with (ext ids `1..=n`).
    pub n_workers: u32,
    /// Revocation events scheduled across the horizon.
    pub revocations: u32,
    /// Fraction of revocations that skip the `Warn` (warning-less).
    pub unwarned_frac: f64,
    /// Probability a revocation widens to its whole correlated group.
    pub mass_revoke_prob: f64,
    /// Correlated ext-id groups (from the market correlation model);
    /// a mass revocation takes out the victim's entire group.
    pub groups: Vec<Vec<u64>>,
    /// Probability a revoked worker flaps (rapid re-add/re-remove).
    pub flap_prob: f64,
    /// Whether revocations are followed by replacement `Add`s.
    pub(crate) replacements: bool,
    /// Fraction of replacements that arrive late.
    pub delayed_frac: f64,
    /// Probability a checkpoint write lands torn (corrupt-on-read).
    pub torn_write_prob: f64,
    /// Probability a checkpoint write is lost outright.
    pub failed_write_prob: f64,
    /// Transient store read-outage windows across the horizon.
    pub outages: u32,
    /// Length of each outage window.
    pub outage_len: SimDuration,
    /// Probability the campaign kills the driver mid-run: the schedule
    /// draws a wave number and the harness suspends the driver at that
    /// wave-commit boundary (via `DriverConfig::suspend_after_waves`),
    /// then resumes from the persisted manifest. `0.0` (the default)
    /// draws nothing, keeping legacy schedules byte-identical.
    pub driver_crash_prob: f64,
    /// Upper bound (inclusive) on the drawn crash wave.
    pub driver_crash_wave_max: u64,
    /// Probability the campaign includes a market-wide collapse: every
    /// live pool worker is removed at one drawn instant, with a fresh
    /// cohort arriving only after `COLLAPSE_LEN`. `0.0` (the
    /// default) draws nothing.
    pub market_collapse_prob: f64,
}

impl ChaosConfig {
    /// A moderately hostile default campaign for `seed`: mixed warned
    /// and warning-less revocations with replacements, occasional
    /// flaps and mass revocations, and a degraded checkpoint store.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            horizon: SimDuration::from_hours(2),
            n_workers: 4,
            revocations: 6,
            unwarned_frac: 0.5,
            mass_revoke_prob: 0.2,
            groups: Vec::new(),
            flap_prob: 0.25,
            replacements: true,
            delayed_frac: 0.3,
            torn_write_prob: 0.15,
            failed_write_prob: 0.1,
            outages: 2,
            outage_len: SimDuration::from_mins(5),
            driver_crash_prob: 0.0,
            driver_crash_wave_max: 8,
            market_collapse_prob: 0.0,
        }
    }
}

/// A fully materialized chaos schedule: the worker-event script, the
/// fault notes it corresponds to, and the store outage windows. One
/// generation pass feeds both the [`ChaosInjector`] and the
/// [`ChaosStoreFaults`] policy, so the two surfaces stay consistent.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Timed cluster-membership changes.
    pub worker_events: Vec<(SimTime, WorkerEvent)>,
    /// `(t, kind, target)` fault descriptors for `FaultInjected`
    /// trace events, time-sorted.
    pub notes: Vec<(SimTime, String, String)>,
    /// Half-open `[start, end)` store read-outage windows.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Wave-commit boundary at which the campaign kills the driver
    /// (`None` unless the driver-crash fault kind was drawn). The
    /// harness wires this into `DriverConfig::suspend_after_waves` and
    /// resumes from the persisted manifest.
    pub driver_crash_wave: Option<u64>,
}

impl ChaosSchedule {
    /// Generates the schedule for `cfg`, entirely up front, from
    /// seeded sub-streams (no wall clock anywhere).
    pub fn generate(cfg: &ChaosConfig) -> ChaosSchedule {
        let mut rng = stream(cfg.seed, "chaos-schedule");
        let horizon_ms = cfg.horizon.as_millis().max(2);
        let mut events: Vec<(SimTime, WorkerEvent)> = Vec::new();
        let mut notes: Vec<(SimTime, String, String)> = Vec::new();
        // Victims come from the live pool: the base workers plus any
        // replacements injected so far. Revoking an ext id the driver
        // no longer hosts is deliberate chaos (the driver must shrug).
        let mut pool: Vec<u64> = (1..=u64::from(cfg.n_workers.max(1))).collect();
        let mut next_replacement_ext: u64 = 9_000_000;

        for _ in 0..cfg.revocations {
            let t = SimTime::from_millis(rng.gen_range(1..horizon_ms));
            let victim = pool[rng.gen_range(0..pool.len())];
            let mass = cfg.mass_revoke_prob > 0.0 && rng.gen_bool(cfg.mass_revoke_prob);
            let victims: Vec<u64> = if mass {
                cfg.groups
                    .iter()
                    .find(|g| g.contains(&victim))
                    .cloned()
                    .unwrap_or_else(|| vec![victim])
            } else {
                vec![victim]
            };
            for &v in &victims {
                let warned = cfg.unwarned_frac < 1.0 && !rng.gen_bool(cfg.unwarned_frac);
                if warned {
                    let warn_t = t.saturating_sub(WARNING_LEAD).max(SimTime::from_millis(1));
                    events.push((warn_t, WorkerEvent::Warn { ext_id: v }));
                }
                events.push((t, WorkerEvent::Remove { ext_id: v }));
                let kind = if mass {
                    "mass_revoke"
                } else if warned {
                    "revoke_warned"
                } else {
                    "revoke_unwarned"
                };
                notes.push((t, kind.to_string(), format!("ext-{v}")));
                if cfg.replacements {
                    let late = cfg.delayed_frac > 0.0 && rng.gen_bool(cfg.delayed_frac);
                    let delay = if late {
                        SimDuration::from_secs_f64(REPLACEMENT_DELAY.as_secs_f64() * DELAY_FACTOR)
                    } else {
                        REPLACEMENT_DELAY
                    };
                    let ext = next_replacement_ext;
                    next_replacement_ext += 1;
                    let rt = t + delay;
                    events.push((
                        rt,
                        WorkerEvent::Add {
                            ext_id: ext,
                            spec: WorkerSpec::r3_large(),
                        },
                    ));
                    if late {
                        notes.push((rt, "delayed_add".to_string(), format!("ext-{ext}")));
                    }
                    pool.push(ext);
                }
            }
            if cfg.flap_prob > 0.0 && rng.gen_bool(cfg.flap_prob) {
                let mut ft = t;
                for _ in 0..FLAP_CYCLES {
                    ft += FLAP_GAP;
                    events.push((
                        ft,
                        WorkerEvent::Add {
                            ext_id: victim,
                            spec: WorkerSpec::r3_large(),
                        },
                    ));
                    ft += FLAP_GAP;
                    events.push((ft, WorkerEvent::Remove { ext_id: victim }));
                }
                notes.push((t, "flap".to_string(), format!("ext-{victim}")));
            }
        }

        let mut outages: Vec<(SimTime, SimTime)> = Vec::new();
        for _ in 0..cfg.outages {
            let s = SimTime::from_millis(rng.gen_range(1..horizon_ms));
            outages.push((s, s + cfg.outage_len));
            notes.push((
                s,
                "store_outage".to_string(),
                "checkpoint-store".to_string(),
            ));
        }
        // New fault kinds draw strictly after every legacy draw, each
        // behind a `prob > 0.0` short-circuit, so campaigns that leave
        // them off consume exactly the legacy stream positions.
        let mut driver_crash_wave = None;
        if cfg.driver_crash_prob > 0.0 && rng.gen_bool(cfg.driver_crash_prob) {
            let wave = rng.gen_range(1..=cfg.driver_crash_wave_max.max(1));
            driver_crash_wave = Some(wave);
            notes.push((
                SimTime::from_millis(1),
                "driver_crash".to_string(),
                format!("wave-{wave}"),
            ));
        }
        if cfg.market_collapse_prob > 0.0 && rng.gen_bool(cfg.market_collapse_prob) {
            let t = SimTime::from_millis(rng.gen_range(1..horizon_ms));
            for &v in &pool {
                events.push((t, WorkerEvent::Remove { ext_id: v }));
            }
            notes.push((
                t,
                "market_collapse".to_string(),
                format!("workers-{}", pool.len()),
            ));
            let rt = t + COLLAPSE_LEN;
            for _ in 0..cfg.n_workers.max(1) {
                let ext = next_replacement_ext;
                next_replacement_ext += 1;
                events.push((
                    rt,
                    WorkerEvent::Add {
                        ext_id: ext,
                        spec: WorkerSpec::r3_large(),
                    },
                ));
            }
        }

        outages.sort();
        notes.sort_by_key(|a| a.0);
        // ScriptedInjector re-sorts worker events by (t, kind rank).
        ChaosSchedule {
            worker_events: events,
            notes,
            outages,
            driver_crash_wave,
        }
    }

    /// Builds the store-fault policy half of this schedule.
    pub fn store_faults(&self, cfg: &ChaosConfig) -> ChaosStoreFaults {
        ChaosStoreFaults {
            torn_prob: cfg.torn_write_prob,
            fail_prob: cfg.failed_write_prob,
            outages: self.outages.clone(),
            rng: stream(cfg.seed, "chaos-store-writes"),
        }
    }
}

/// A [`FailureInjector`] replaying a pre-generated chaos schedule and
/// reporting its fault notes so the driver can trace `FaultInjected`
/// events alongside the membership changes.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    inner: ScriptedInjector,
    notes: Vec<(SimTime, String, String)>,
    note_cursor: usize,
}

impl ChaosInjector {
    /// Wraps an existing schedule (shared with a store-fault policy).
    pub fn from_schedule(schedule: ChaosSchedule) -> Self {
        ChaosInjector {
            inner: ScriptedInjector::new(schedule.worker_events),
            notes: schedule.notes,
            note_cursor: 0,
        }
    }
}

impl FailureInjector for ChaosInjector {
    fn events(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        self.inner.events(from, to)
    }

    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.inner.next_event_after(t)
    }

    fn fault_notes(&mut self, _from: SimTime, to: SimTime) -> Vec<(SimTime, String, String)> {
        // Mirror ScriptedInjector window semantics: anything at or
        // before `to` not yet delivered goes out now (late notes are
        // delivered rather than dropped).
        let mut out = Vec::new();
        while self.note_cursor < self.notes.len() && self.notes[self.note_cursor].0 <= to {
            out.push(self.notes[self.note_cursor].clone());
            self.note_cursor += 1;
        }
        out
    }
}

/// Checkpoint-store degradation drawn from the campaign seed: each
/// write independently lands torn or is lost; reads fail inside the
/// schedule's outage windows. Write decisions consume a dedicated RNG
/// sub-stream on the driver thread; the outage predicate is a pure
/// function of `now`, as [`StoreFaultPolicy`] requires.
#[derive(Debug)]
pub struct ChaosStoreFaults {
    torn_prob: f64,
    fail_prob: f64,
    outages: Vec<(SimTime, SimTime)>,
    rng: StdRng,
}

impl StoreFaultPolicy for ChaosStoreFaults {
    fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
        // Draw both coins unconditionally so the stream position never
        // depends on the outcome of the first draw.
        let torn = self.torn_prob > 0.0 && self.rng.gen_bool(self.torn_prob);
        let fail = self.fail_prob > 0.0 && self.rng.gen_bool(self.fail_prob);
        if fail {
            WriteFault::Fail
        } else if torn {
            WriteFault::Torn
        } else {
            WriteFault::None
        }
    }

    fn read_unavailable(&self, now: SimTime) -> bool {
        self.outages.iter().any(|(s, e)| now >= *s && now < *e)
    }
}

/// A chaos run's typed failure: fail-stop, never wrong data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// A session returned a typed engine error. That includes a manifest
    /// the resumed session rejects and a replay that ends short of the
    /// manifest's frontier.
    Engine(EngineError),
    /// The run could not reach a second session: a session could not be
    /// built, or the crashed one left no decodable manifest.
    Harness(String),
}

impl From<EngineError> for ChaosError {
    fn from(e: EngineError) -> Self {
        ChaosError::Engine(e)
    }
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Engine(e) => e.fmt(f),
            ChaosError::Harness(msg) => f.write_str(msg),
        }
    }
}

/// How a chaos run ended against its fault-free twin.
pub enum ChaosVerdict<T> {
    /// The job's answer equals the twin's.
    Identical {
        /// The crash wave, when the answer came from the resumed session.
        resumed_from: Option<u64>,
        /// The session that finished the job, for its stats and runtime.
        driver: Box<Driver>,
    },
    /// The run failed with a typed error.
    Typed(ChaosError),
    /// The job finished with an answer that differs from the twin's.
    WrongData(T),
    /// The run panicked; this is the panic's payload.
    Panicked(Box<dyn Any + Send>),
}

/// Runs `job` under `schedule`'s driver crash and judges its answer
/// against `twin`, the fault-free run's.
///
/// Session A is `build(schedule.driver_crash_wave)`. If it suspends,
/// its manifest is read from A's durable store and A is dropped, which
/// releases anything it holds (a per-session trace file), before
/// session B is `build(None)`. B arms [`Driver::resume`], replays `job`
/// and then checks [`Driver::resume_verified`], so a replay that ends
/// short of the frontier is a typed failure, not an answer. A panic in
/// either session is caught.
pub fn run_against_twin<T: PartialEq>(
    schedule: &ChaosSchedule,
    mut build: impl FnMut(Option<u64>) -> std::result::Result<Driver, String>,
    mut job: impl FnMut(&mut Driver) -> Result<T>,
    twin: &T,
) -> ChaosVerdict<T> {
    let crash_wave = schedule.driver_crash_wave;
    let run = panic::catch_unwind(AssertUnwindSafe(
        || -> std::result::Result<(T, Driver, Option<u64>), ChaosError> {
            let mut a = build(crash_wave).map_err(ChaosError::Harness)?;
            let key = match job(&mut a) {
                Ok(out) => return Ok((out, a, None)),
                Err(EngineError::Suspended { manifest, .. }) => manifest,
                Err(e) => return Err(e.into()),
            };
            let text = a.checkpoints().get_manifest(&key).map(str::to_string);
            drop(a);
            let text = text
                .ok_or_else(|| ChaosError::Harness("suspended but no manifest persisted".into()))?;
            let manifest = RunManifest::decode(&text)
                .map_err(|e| ChaosError::Harness(format!("manifest decode: {e}")))?;
            let mut b = build(None).map_err(ChaosError::Harness)?;
            b.resume(&manifest)?;
            let out = job(&mut b)?;
            b.resume_verified()?;
            Ok((out, b, crash_wave))
        },
    ));
    match run {
        Err(payload) => ChaosVerdict::Panicked(payload),
        Ok(Err(e)) => ChaosVerdict::Typed(e),
        Ok(Ok((out, driver, resumed_from))) if out == *twin => ChaosVerdict::Identical {
            resumed_from,
            driver: Box::new(driver),
        },
        Ok(Ok((out, ..))) => ChaosVerdict::WrongData(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig::new(42);
        let a = ChaosSchedule::generate(&cfg);
        let b = ChaosSchedule::generate(&cfg);
        assert_eq!(a.worker_events, b.worker_events);
        assert_eq!(a.notes, b.notes);
        assert_eq!(a.outages, b.outages);
        let c = ChaosSchedule::generate(&ChaosConfig::new(43));
        assert!(
            a.worker_events != c.worker_events || a.outages != c.outages,
            "different seeds should diverge"
        );
    }

    #[test]
    fn schedule_fits_knobs() {
        let mut cfg = ChaosConfig::new(7);
        cfg.revocations = 10;
        cfg.flap_prob = 0.0;
        cfg.mass_revoke_prob = 0.0;
        cfg.replacements = false;
        cfg.unwarned_frac = 1.0;
        cfg.outages = 0;
        let s = ChaosSchedule::generate(&cfg);
        // Pure warning-less revocations: exactly one Remove per event.
        assert_eq!(s.worker_events.len(), 10);
        assert!(s
            .worker_events
            .iter()
            .all(|(_, ev)| matches!(ev, WorkerEvent::Remove { .. })));
        assert!(s.outages.is_empty());
        assert_eq!(s.notes.len(), 10);
        assert!(s.notes.iter().all(|(_, k, _)| k == "revoke_unwarned"));
    }

    #[test]
    fn mass_revocation_takes_whole_group() {
        let mut cfg = ChaosConfig::new(1);
        cfg.revocations = 1;
        cfg.mass_revoke_prob = 1.0;
        cfg.flap_prob = 0.0;
        cfg.replacements = false;
        cfg.unwarned_frac = 1.0;
        cfg.outages = 0;
        cfg.n_workers = 4;
        cfg.groups = vec![vec![1, 2], vec![3, 4]];
        let s = ChaosSchedule::generate(&cfg);
        let removed: Vec<u64> = s
            .worker_events
            .iter()
            .filter_map(|(_, ev)| match ev {
                WorkerEvent::Remove { ext_id } => Some(*ext_id),
                _ => None,
            })
            .collect();
        assert_eq!(
            removed.len(),
            2,
            "whole correlated group revoked: {removed:?}"
        );
        assert!(removed == vec![1, 2] || removed == vec![3, 4]);
        assert!(s.notes.iter().all(|(_, k, _)| k == "mass_revoke"));
    }

    #[test]
    fn injector_delivers_notes_alongside_events() {
        let mut cfg = ChaosConfig::new(5);
        cfg.revocations = 3;
        let schedule = ChaosSchedule::generate(&cfg);
        let n_notes = schedule.notes.len();
        let mut inj = ChaosInjector::from_schedule(schedule);
        let horizon = SimTime::ZERO + cfg.horizon + SimDuration::from_hours(1);
        let evs = inj.events(SimTime::ZERO, horizon);
        let notes = inj.fault_notes(SimTime::ZERO, horizon);
        assert!(!evs.is_empty());
        assert_eq!(notes.len(), n_notes);
        // Consumed exactly once.
        assert!(inj.fault_notes(SimTime::ZERO, horizon).is_empty());
    }

    /// `next_event_after(t) > t` at every scheduled instant (where an
    /// event sits exactly at `t`) and just before it, across delivery.
    #[test]
    fn injector_next_event_is_strictly_after() {
        let mut cfg = ChaosConfig::new(5);
        cfg.revocations = 6;
        let schedule = ChaosSchedule::generate(&cfg);
        let mut instants: Vec<SimTime> = schedule.worker_events.iter().map(|e| e.0).collect();
        instants.sort();
        instants.dedup();
        let mut inj = ChaosInjector::from_schedule(schedule);
        for (i, &at) in instants.iter().enumerate() {
            let before = at - SimDuration::from_millis(1);
            assert_eq!(inj.next_event_after(before), Some(at));
            assert_eq!(inj.next_event_after(at), instants.get(i + 1).copied());
            inj.events(before, at);
            assert_eq!(inj.next_event_after(at), instants.get(i + 1).copied());
        }
    }

    #[test]
    fn driver_crash_and_market_collapse_draw_after_legacy_stream() {
        let legacy = ChaosSchedule::generate(&ChaosConfig::new(42));
        assert!(legacy.driver_crash_wave.is_none(), "off by default");

        let mut cfg = ChaosConfig::new(42);
        cfg.driver_crash_prob = 1.0;
        cfg.driver_crash_wave_max = 5;
        cfg.market_collapse_prob = 1.0;
        let s = ChaosSchedule::generate(&cfg);
        // Appended draws: every legacy event survives as an exact
        // prefix, so enabling the new kinds never perturbs old faults.
        assert_eq!(
            &s.worker_events[..legacy.worker_events.len()],
            &legacy.worker_events[..]
        );
        let wave = s.driver_crash_wave.expect("crash drawn at prob 1.0");
        assert!((1..=5).contains(&wave));
        assert!(s.notes.iter().any(|(_, k, _)| k == "driver_crash"));
        // The collapse removes the whole live pool at one instant and
        // brings a fresh cohort exactly COLLAPSE_LEN later.
        let (ct, _, target) = s
            .notes
            .iter()
            .find(|(_, k, _)| k == "market_collapse")
            .expect("collapse drawn at prob 1.0")
            .clone();
        let pool_size: usize = target
            .strip_prefix("workers-")
            .and_then(|v| v.parse().ok())
            .unwrap();
        let removed_at_ct = s
            .worker_events
            .iter()
            .skip(legacy.worker_events.len())
            .filter(|(t, e)| *t == ct && matches!(e, WorkerEvent::Remove { .. }))
            .count();
        assert_eq!(removed_at_ct, pool_size);
        let cohort = s
            .worker_events
            .iter()
            .filter(|(t, e)| *t == ct + COLLAPSE_LEN && matches!(e, WorkerEvent::Add { .. }))
            .count();
        assert_eq!(cohort, cfg.n_workers as usize);
    }

    /// A resumed replay that ends one action short of its manifest's
    /// frontier verified nothing: the verdict is a typed
    /// `ResumeDiverged` on `frontier`, although the short job returns
    /// the twin's answer. The full replay of the same crash is identical.
    #[test]
    fn twin_verdict_rejects_a_replay_short_of_the_frontier() {
        use crate::{DriverConfig, NoCheckpoint, NoFailures, Value};

        // A count, then a shuffle whose waves hold the crash. The answer
        // is the first count, so a replay that skips the shuffle returns
        // the twin's answer.
        fn job(d: &mut Driver, actions: usize) -> Result<u64> {
            let src = d.ctx().parallelize((0..64).map(Value::from_i64), 4);
            let first = d.count(src)?;
            if actions > 1 {
                let pairs = d.ctx().map(src, |v| {
                    Value::pair(Value::Int(v.as_i64().unwrap() % 3), v.clone())
                });
                let sums = d.ctx().reduce_by_key(pairs, 2, |a, b| {
                    Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
                });
                d.count(sums)?;
            }
            Ok(first)
        }
        let build = |suspend: Option<u64>| {
            let cfg = DriverConfig {
                suspend_after_waves: suspend,
                ..DriverConfig::default()
            };
            let mut d = Driver::new(cfg, Box::new(NoCheckpoint), Box::new(NoFailures));
            for ext in 1..=2 {
                d.add_worker_with_ext(ext, WorkerSpec::r3_large());
            }
            Ok::<_, String>(d)
        };
        let mut probe = build(None).unwrap();
        let twin = job(&mut probe, 1).unwrap();
        let first_waves = probe.waves_committed();
        let mut probe = build(None).unwrap();
        job(&mut probe, 2).unwrap();
        assert!(
            probe.waves_committed() > first_waves + 1,
            "the second action must span at least two waves"
        );
        let schedule = ChaosSchedule {
            worker_events: Vec::new(),
            notes: Vec::new(),
            outages: Vec::new(),
            driver_crash_wave: Some(first_waves + 1),
        };

        let full = run_against_twin(&schedule, build, |d| job(d, 2), &twin);
        assert!(matches!(
            full,
            ChaosVerdict::Identical {
                resumed_from: Some(w),
                ..
            } if w == first_waves + 1
        ));

        let mut calls = 0;
        let short = run_against_twin(
            &schedule,
            build,
            |d| {
                calls += 1;
                job(d, if calls == 1 { 2 } else { 1 })
            },
            &twin,
        );
        assert_eq!(calls, 2, "session B must replay the job");
        match short {
            ChaosVerdict::Typed(ChaosError::Engine(EngineError::ResumeDiverged {
                field, ..
            })) => assert_eq!(field, "frontier"),
            ChaosVerdict::Identical { .. } => panic!("a short replay passed as identical"),
            _ => panic!("expected ResumeDiverged on frontier"),
        }
    }

    #[test]
    fn store_faults_are_deterministic_and_windowed() {
        let cfg = ChaosConfig::new(9);
        let s = ChaosSchedule::generate(&cfg);
        let mut a = s.store_faults(&cfg);
        let mut b = s.store_faults(&cfg);
        let seq_a: Vec<WriteFault> = (0..32)
            .map(|i| a.on_write(&format!("k{i}"), SimTime::ZERO))
            .collect();
        let seq_b: Vec<WriteFault> = (0..32)
            .map(|i| b.on_write(&format!("k{i}"), SimTime::ZERO))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(
            seq_a.iter().any(|f| *f != WriteFault::None),
            "defaults should fault sometimes"
        );
        if let Some((start, end)) = s.outages.first().copied() {
            assert!(a.read_unavailable(start));
            assert!(!a.read_unavailable(end));
        }
    }
}
