//! Campaign determinism: fanning Monte-Carlo seeds across host threads
//! must be invisible in the output. The merged report and every
//! per-seed event trace are byte-identical between `--jobs 1` and
//! `--jobs 8`.

use flint::engine::TraceHandle;
use flint::model::{catalog_with_mttf, run_mc_traced, CampaignConfig, McConfig, PolicyKind};
use flint::simtime::{fan_out, SimDuration};

/// FNV-1a over a byte string — the same pinning scheme the golden
/// workload suite uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn base_cfg() -> McConfig {
    McConfig {
        job_length: SimDuration::from_hours(8),
        n_workers: 6,
        policy: PolicyKind::FlintBatch,
        ..McConfig::default()
    }
}

/// Runs the campaign at the given parallelism, capturing each run's
/// full event trace; returns `(report text, per-seed trace hashes)`.
fn run_campaign(jobs: usize) -> (String, Vec<(u64, u64)>) {
    let cat = catalog_with_mttf(17, SimDuration::from_days(90), 3.0);
    let campaign = CampaignConfig::consecutive(base_cfg(), 6, jobs);
    let indices: Vec<usize> = (0..campaign.seeds.len()).collect();
    let outcomes = fan_out(jobs, &indices, |&i| {
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let res = run_mc_traced(&cat, &campaign.cfg_for(i), trace);
        (res, fnv1a(reader.to_jsonl().as_bytes()))
    });
    let mut report = String::new();
    let mut hashes = Vec::new();
    for (i, (res, hash)) in outcomes.into_iter().enumerate() {
        let seed = campaign.seeds[i];
        report.push_str(&format!(
            "seed {seed}: runtime {} unit {:.6} revs {}/{}\n",
            res.runtime,
            res.unit_cost(),
            res.revocation_events,
            res.servers_revoked
        ));
        hashes.push((seed, hash));
    }
    (report, hashes)
}

#[test]
fn parallel_campaign_is_byte_identical_to_sequential() {
    let (seq_report, seq_hashes) = run_campaign(1);
    let (par_report, par_hashes) = run_campaign(8);
    assert_eq!(
        seq_report, par_report,
        "merged report must not depend on --jobs"
    );
    assert_eq!(
        seq_hashes, par_hashes,
        "per-seed event traces must not depend on --jobs"
    );
    // Sanity: distinct seeds actually produce distinct traces (the
    // equality above isn't vacuous).
    assert!(
        seq_hashes.windows(2).any(|w| w[0].1 != w[1].1),
        "expected seed-dependent traces, got identical hashes: {seq_hashes:?}"
    );
}
