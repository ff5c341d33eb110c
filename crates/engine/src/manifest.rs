//! Crash-resume run manifests.
//!
//! The engine is deterministic: the same config, workload, and failure
//! schedule replay the same run byte for byte. Crash recovery therefore
//! does not serialize live scheduler state — it re-launches the
//! identical session and replays it, and the [`RunManifest`] persisted
//! at the suspension point is the *verification artifact*: when the
//! replay's committed-wave frontier crosses the manifest's, the driver
//! proves virtual time and stats match before continuing (see
//! [`crate::Driver::resume`]). The manifest also catalogs the durable
//! checkpoint keys present at suspension, so an operator can audit what
//! the store held when the driver died.
//!
//! Serialization is a hand-rolled line format: a tagged header line
//! followed by `key=value` lines,
//! stable across versions behind the leading version tag.
//!
//! [`ResumeState`] is the driver's crash-resume state: the frontier, an
//! armed suspension, and a pending verification. Only its methods
//! write it.

use std::fmt;

use flint_simtime::SimTime;
use flint_trace::{EventKind, TraceHandle};

use crate::checkpoint::CheckpointStore;
use crate::config::DriverConfig;
use crate::error::EngineError;
use crate::stats::RunStats;

/// A persisted snapshot of run progress at a wave-commit boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Session tag; the manifest lives at `manifest/<session>` in the
    /// durable store.
    pub(crate) session: String,
    /// Fingerprint of the determinism-relevant driver config
    /// (`crate::DriverConfig::fingerprint`).
    pub(crate) config_fp: u64,
    /// Committed-wave frontier at suspension.
    pub frontier: u64,
    /// Virtual time at suspension, in milliseconds.
    pub now_ms: u64,
    /// Tasks committed so far.
    pub tasks_run: u64,
    /// Revocations observed so far.
    pub revocations: u64,
    /// Checkpoint partitions durably written so far.
    pub checkpoints_written: u64,
    /// Sorted durable-store keys present at suspension (checkpoint and
    /// shuffle objects; manifests themselves are excluded).
    pub(crate) blocks: Vec<String>,
}

/// Why a serialized manifest failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The header line is missing or names an unsupported version.
    BadHeader,
    /// A required field is missing or malformed.
    BadField(&'static str),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::BadHeader => write!(f, "missing or unsupported manifest header"),
            ManifestError::BadField(k) => write!(f, "missing or malformed manifest field {k:?}"),
        }
    }
}

impl std::error::Error for ManifestError {}

const HEADER: &str = "flint-run-manifest v1";

impl RunManifest {
    /// The durable-store key this manifest is persisted under.
    pub(crate) fn store_key(&self) -> String {
        format!("manifest/{}", self.session)
    }

    /// The first verified field on which `replay` (a snapshot of the
    /// resumed run at its frontier) differs from this manifest, as
    /// `(field, expected, actual)`. Fields are checked in order:
    /// frontier, now_ms, tasks_run, revocations, checkpoints_written.
    /// The block catalog is an audit record and is not compared; the
    /// config fingerprint is checked up front by [`crate::Driver::resume`].
    pub(crate) fn diverges_from(&self, replay: &RunManifest) -> Option<(&'static str, u64, u64)> {
        [
            ("frontier", self.frontier, replay.frontier),
            ("now_ms", self.now_ms, replay.now_ms),
            ("tasks_run", self.tasks_run, replay.tasks_run),
            ("revocations", self.revocations, replay.revocations),
            (
                "checkpoints_written",
                self.checkpoints_written,
                replay.checkpoints_written,
            ),
        ]
        .into_iter()
        .find(|(_, expected, actual)| expected != actual)
    }

    /// Serializes to the line format.
    pub(crate) fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push('=');
            out.push_str(&v);
            out.push('\n');
        };
        kv("session", self.session.clone());
        kv("config_fp", self.config_fp.to_string());
        kv("frontier", self.frontier.to_string());
        kv("now_ms", self.now_ms.to_string());
        kv("tasks_run", self.tasks_run.to_string());
        kv("revocations", self.revocations.to_string());
        kv("checkpoints_written", self.checkpoints_written.to_string());
        kv("blocks", self.blocks.join(","));
        out
    }

    /// Parses the line format back into a manifest.
    pub fn decode(text: &str) -> Result<RunManifest, ManifestError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(ManifestError::BadHeader);
        }
        let mut session = None;
        let mut config_fp = None;
        let mut frontier = None;
        let mut now_ms = None;
        let mut tasks_run = None;
        let mut revocations = None;
        let mut checkpoints_written = None;
        let mut blocks = None;
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                continue;
            };
            match k {
                "session" => session = Some(v.to_string()),
                "config_fp" => config_fp = v.parse::<u64>().ok(),
                "frontier" => frontier = v.parse::<u64>().ok(),
                "now_ms" => now_ms = v.parse::<u64>().ok(),
                "tasks_run" => tasks_run = v.parse::<u64>().ok(),
                "revocations" => revocations = v.parse::<u64>().ok(),
                "checkpoints_written" => checkpoints_written = v.parse::<u64>().ok(),
                "blocks" => {
                    blocks = Some(if v.is_empty() {
                        Vec::new()
                    } else {
                        v.split(',').map(str::to_string).collect()
                    })
                }
                _ => {} // forward-compatible: unknown keys are skipped
            }
        }
        Ok(RunManifest {
            session: session.ok_or(ManifestError::BadField("session"))?,
            config_fp: config_fp.ok_or(ManifestError::BadField("config_fp"))?,
            frontier: frontier.ok_or(ManifestError::BadField("frontier"))?,
            now_ms: now_ms.ok_or(ManifestError::BadField("now_ms"))?,
            tasks_run: tasks_run.ok_or(ManifestError::BadField("tasks_run"))?,
            revocations: revocations.ok_or(ManifestError::BadField("revocations"))?,
            checkpoints_written: checkpoints_written
                .ok_or(ManifestError::BadField("checkpoints_written"))?,
            blocks: blocks.ok_or(ManifestError::BadField("blocks"))?,
        })
    }
}

/// The crash-resume state of one driver.
#[derive(Debug, Default)]
pub(crate) struct ResumeState {
    /// Committed-wave frontier: advances that committed a task.
    waves_committed: u64,
    /// Session tag of the manifest resumed from; `None` is `run`.
    session: Option<String>,
    /// A suspension is armed and fires at the next loop boundary.
    pending_suspend: bool,
    /// Manifest a resume replay must cross and verify against.
    check: Option<RunManifest>,
    /// A diverged replay's error, surfaced at the next loop boundary.
    failed: Option<EngineError>,
}

impl ResumeState {
    pub(crate) fn waves_committed(&self) -> u64 {
        self.waves_committed
    }

    /// Arms a resume replay against `manifest` ([`crate::Driver::resume`]).
    pub(crate) fn resume(
        &mut self,
        manifest: &RunManifest,
        config: &DriverConfig,
        now: SimTime,
        trace: &TraceHandle,
    ) -> crate::Result<()> {
        let fp = config.fingerprint();
        if manifest.config_fp != fp {
            return Err(EngineError::ResumeDiverged {
                field: "config_fp",
                expected: manifest.config_fp,
                actual: fp,
            });
        }
        self.session = Some(manifest.session.clone());
        if manifest.frontier > 0 {
            self.check = Some(manifest.clone());
        } else {
            // Crashed before any wave committed: nothing to verify.
            trace.emit_with(now, || EventKind::RunResumed {
                manifest: manifest.store_key(),
                frontier: 0,
            });
        }
        Ok(())
    }

    /// Snapshots the run state: what a suspension persists, and what a
    /// resume replay is checked against at its frontier.
    fn build_manifest(
        &self,
        config: &DriverConfig,
        now: SimTime,
        stats: &RunStats,
        ckpt: &CheckpointStore,
    ) -> RunManifest {
        let keys = ckpt.store().keys_with_prefix("").into_iter();
        let blocks = keys.filter(|k| !k.starts_with("manifest/"));
        RunManifest {
            session: self.session.clone().unwrap_or_else(|| "run".to_string()),
            config_fp: config.fingerprint(),
            frontier: self.waves_committed,
            now_ms: now.as_millis(),
            tasks_run: stats.tasks_run,
            revocations: stats.revocations,
            checkpoints_written: stats.checkpoints_written,
            blocks: blocks.map(str::to_string).collect(),
        }
    }

    /// Counts one committed wave: arms the suspension at
    /// `config.suspend_after_waves`, and verifies a resume replay the
    /// moment its frontier reaches the manifest's (exact match or diverged).
    pub(crate) fn wave_committed(
        &mut self,
        config: &DriverConfig,
        now: SimTime,
        stats: &RunStats,
        ckpt: &CheckpointStore,
        trace: &TraceHandle,
    ) {
        self.waves_committed += 1;
        if config.suspend_after_waves == Some(self.waves_committed) {
            self.pending_suspend = true;
        }
        match &self.check {
            Some(m) if self.waves_committed >= m.frontier => {}
            _ => return,
        }
        let m = self.check.take().expect("matched above");
        let replay = self.build_manifest(config, now, stats, ckpt);
        if let Some((field, expected, actual)) = m.diverges_from(&replay) {
            self.failed = Some(EngineError::ResumeDiverged {
                field,
                expected,
                actual,
            });
            return;
        }
        trace.emit_with(now, || EventKind::RunResumed {
            manifest: m.store_key(),
            frontier: m.frontier,
        });
    }

    /// The interruption pending at a loop boundary, as an error: a failed
    /// verification, or an armed suspension, which persists the manifest.
    pub(crate) fn take_interrupt(
        &mut self,
        config: &DriverConfig,
        now: SimTime,
        stats: &RunStats,
        ckpt: &mut CheckpointStore,
        trace: &TraceHandle,
    ) -> crate::Result<()> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        if !std::mem::take(&mut self.pending_suspend) {
            return Ok(());
        }
        let m = self.build_manifest(config, now, stats, ckpt);
        let key = m.store_key();
        let frontier = m.frontier;
        ckpt.put_manifest(&key, &m.encode(), now);
        trace.emit_with(now, || EventKind::RunSuspended {
            manifest: key.clone(),
            frontier,
        });
        Err(EngineError::Suspended {
            manifest: key,
            frontier,
        })
    }

    /// `Ok` unless a resume replay is still short of its manifest's
    /// frontier ([`crate::Driver::resume_verified`]).
    pub(crate) fn verified(&self) -> crate::Result<()> {
        match &self.check {
            Some(m) => Err(EngineError::ResumeDiverged {
                field: "frontier",
                expected: m.frontier,
                actual: self.waves_committed,
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> RunManifest {
        RunManifest {
            session: "seed-42".into(),
            config_fp: 0xdead_beef_cafe_f00d,
            frontier: 12,
            now_ms: 1_209_600_000,
            tasks_run: 96,
            revocations: 3,
            checkpoints_written: 8,
            blocks: vec![
                "rdd-000003/part-00000".into(),
                "rdd-000003/part-00001".into(),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = sample();
        assert_eq!(RunManifest::decode(&m.encode()), Ok(m.clone()));
        // Empty block catalog survives too.
        let empty = RunManifest {
            blocks: Vec::new(),
            ..m
        };
        assert_eq!(RunManifest::decode(&empty.encode()), Ok(empty));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            RunManifest::decode("not a manifest"),
            Err(ManifestError::BadHeader)
        );
        let truncated = format!("{HEADER}\nsession=x\n");
        assert_eq!(
            RunManifest::decode(&truncated),
            Err(ManifestError::BadField("config_fp"))
        );
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let mut text = sample().encode();
        text.push_str("future_field=whatever\n");
        assert_eq!(RunManifest::decode(&text), Ok(sample()));
    }

    #[test]
    fn diverges_from_names_the_first_differing_field() {
        let m = sample();
        assert_eq!(m.diverges_from(&m), None);
        // The block catalog is not a verified field.
        let other_blocks = RunManifest {
            blocks: vec!["rdd-000009/part-00000".into()],
            ..sample()
        };
        assert_eq!(m.diverges_from(&other_blocks), None);
        // Several fields differ: the earliest in check order is named.
        let replay = RunManifest {
            tasks_run: 97,
            revocations: 4,
            checkpoints_written: 9,
            ..sample()
        };
        assert_eq!(m.diverges_from(&replay), Some(("tasks_run", 96, 97)));
        let replay = RunManifest {
            frontier: 13,
            now_ms: 0,
            ..replay
        };
        assert_eq!(m.diverges_from(&replay), Some(("frontier", 12, 13)));
        let late = RunManifest {
            checkpoints_written: 7,
            ..sample()
        };
        assert_eq!(m.diverges_from(&late), Some(("checkpoints_written", 8, 7)));
    }

    #[test]
    fn store_key_is_session_scoped() {
        assert_eq!(sample().store_key(), "manifest/seed-42");
    }

    fn arb_manifest() -> impl Strategy<Value = RunManifest> {
        (
            "[a-z0-9/_-]{0,12}",
            vec(any::<u64>(), 6..7),
            vec("[a-z0-9/_-]{1,24}", 0..4),
        )
            .prop_map(|(session, n, blocks)| RunManifest {
                session,
                config_fp: n[0],
                frontier: n[1],
                now_ms: n[2],
                tasks_run: n[3],
                revocations: n[4],
                checkpoints_written: n[5],
                blocks,
            })
    }

    proptest! {
        /// `decode` is total on hostile input: every prefix of a valid
        /// encoding, its body lines in any order, a key given twice, a
        /// numeric key holding a non-number, and arbitrary bytes each
        /// return `Ok` or a typed error. Reordered lines and a repeated
        /// identical line decode to the original; a non-number is
        /// `BadField` naming its key.
        #[test]
        fn decode_is_total_on_hostile_input(
            m in arb_manifest(),
            order in vec(any::<u64>(), 8..9),
            pick in any::<usize>(),
            bytes in vec(any::<u8>(), 0..96),
        ) {
            let text = m.encode();
            prop_assert_eq!(RunManifest::decode(&text), Ok(m.clone()));
            for end in 0..text.len() {
                let _ = RunManifest::decode(&text[..end]);
            }
            let body: Vec<&str> = text.lines().skip(1).collect();
            prop_assert_eq!(body.len(), order.len());
            let mut shuffled: Vec<(u64, &str)> = order.iter().copied().zip(body.iter().copied()).collect();
            shuffled.sort();
            let reordered: String = std::iter::once(HEADER)
                .chain(shuffled.iter().map(|(_, l)| *l))
                .map(|l| format!("{l}\n"))
                .collect();
            prop_assert_eq!(RunManifest::decode(&reordered), Ok(m.clone()));
            let line = body[pick % body.len()];
            let twice = format!("{text}{line}\n");
            prop_assert_eq!(RunManifest::decode(&twice), Ok(m.clone()));
            let (key, _) = line.split_once('=').expect("a body line is key=value");
            let _ = RunManifest::decode(&format!("{text}{key}=x\n"));
            if !matches!(key, "session" | "blocks") {
                let wrong = text.replacen(line, &format!("{key}=x"), 1);
                let field = match RunManifest::decode(&wrong) {
                    Err(ManifestError::BadField(f)) => f,
                    other => panic!("{key}=x decoded as {other:?}"),
                };
                prop_assert_eq!(field, key);
            }
            let _ = RunManifest::decode(&String::from_utf8_lossy(&bytes));
            let _ = RunManifest::decode(&format!("{HEADER}\n{}", String::from_utf8_lossy(&bytes)));
        }
    }
}
