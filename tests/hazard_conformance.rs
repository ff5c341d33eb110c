//! Statistical conformance of the hazard models: sampled lifetimes must
//! match their closed-form survival functions, and both samplers must
//! stay draw-for-draw identical to the inline code they replaced.

use flint::market::{CappedLifetimeHazard, ExponentialHazard, HazardModel, HazardSpec};
use flint::simtime::rng::stream;
use flint::simtime::SimDuration;
use rand::Rng;

const DRAWS: usize = 10_000;
/// Empirical-CDF tolerance for 10k draws (≈ 4.5 standard errors at the
/// worst-case p = 0.5, so seeded runs never flake).
const TOL: f64 = 0.02;

/// Draws `DRAWS` lifetimes from `hazard` on a fixed stream.
fn sample_lifetimes(hazard: &dyn HazardModel, label: &str) -> Vec<SimDuration> {
    let mut rng = stream(0xC0FFEE, label);
    (0..DRAWS)
        .map(|_| hazard.sample_lifetime(&mut rng))
        .collect()
}

/// Empirical survival fraction `P(lifetime > t)`.
fn empirical_survival(samples: &[SimDuration], t: SimDuration) -> f64 {
    samples.iter().filter(|l| **l > t).count() as f64 / samples.len() as f64
}

#[test]
fn exponential_samples_match_closed_form_survival() {
    let hazard = ExponentialHazard::from_hours(4.0);
    let samples = sample_lifetimes(&hazard, "conformance:exp");
    for hours in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let t = SimDuration::from_hours_f64(hours);
        let expect = hazard.survival(t);
        let got = empirical_survival(&samples, t);
        assert!(
            (got - expect).abs() < TOL,
            "S({hours}h): empirical {got:.4} vs closed-form {expect:.4}"
        );
    }
    // The empirical mean sits on the MTTF.
    let mean: f64 = samples.iter().map(|l| l.as_hours_f64()).sum::<f64>() / DRAWS as f64;
    assert!(
        (mean - 4.0).abs() < 0.15,
        "mean lifetime {mean:.3}h vs MTTF 4h"
    );
}

#[test]
fn capped_samples_match_closed_form_survival() {
    let hazard = CappedLifetimeHazard::new(0.3, 24.0);
    let samples = sample_lifetimes(&hazard, "conformance:capped");
    for hours in [1.0, 6.0, 12.0, 18.0, 23.9] {
        let t = SimDuration::from_hours_f64(hours);
        let expect = hazard.survival(t);
        let got = empirical_survival(&samples, t);
        assert!(
            (got - expect).abs() < TOL,
            "S({hours}h): empirical {got:.4} vs closed-form {expect:.4}"
        );
    }
    // The atom at the 24h cap holds the complement of the early mass.
    let cap = SimDuration::from_hours(24);
    let at_cap = samples.iter().filter(|l| **l == cap).count() as f64 / DRAWS as f64;
    assert!((at_cap - 0.7).abs() < TOL, "cap atom {at_cap:.4} vs 0.7");
    // Nothing survives past the cap, and the mean matches cap·(1 − p/2).
    assert_eq!(empirical_survival(&samples, cap), 0.0);
    let mean: f64 = samples.iter().map(|l| l.as_hours_f64()).sum::<f64>() / DRAWS as f64;
    let expect_mean = hazard.mean_lifetime().as_hours_f64();
    assert!(
        (mean - expect_mean).abs() < 0.25,
        "mean {mean:.3}h vs closed-form {expect_mean:.3}h"
    );
}

/// The capped model's mean residual lifetime declines with age — the
/// age-awareness the node manager's τ re-estimation keys on — while the
/// exponential stays flat (memoryless).
#[test]
fn mean_residual_age_profiles() {
    let capped = CappedLifetimeHazard::new(0.5, 24.0);
    let mut last = SimDuration::MAX;
    for age_h in [0u64, 4, 8, 16, 23] {
        let r = capped.mean_residual(SimDuration::from_hours(age_h));
        assert!(
            r < last,
            "residual must decline: {r} at age {age_h}h >= {last}"
        );
        last = r;
    }
    assert_eq!(
        capped.mean_residual(SimDuration::from_hours(24)),
        SimDuration::from_secs(1),
        "at the cap the residual collapses to the floor"
    );
    let exp = ExponentialHazard::from_hours(6.0);
    let fresh = exp.mean_residual(SimDuration::ZERO);
    let aged = exp.mean_residual(SimDuration::from_hours(100));
    assert_eq!(fresh, aged, "exponential residual must not age");
    assert_eq!(fresh, SimDuration::from_hours(6));
}

/// Pins the exponential sampler to the inline inverse-CDF code it
/// replaced in `poisson_kills`: same stream, same draws, bit-for-bit.
#[test]
fn exponential_sampler_matches_legacy_inline_code() {
    let mttf_hours = 5.0;
    let hazard = ExponentialHazard::from_hours(mttf_hours);
    let mut new_rng = stream(99, "legacy:poisson");
    let mut old_rng = stream(99, "legacy:poisson");
    for _ in 0..1000 {
        let via_model = hazard.sample_lifetime(&mut new_rng);
        let u: f64 = old_rng.gen_range(f64::EPSILON..1.0);
        let inline = SimDuration::from_hours_f64(-mttf_hours * u.ln());
        assert_eq!(via_model, inline);
    }
}

/// Pins the capped sampler to the cloud simulator's original inline
/// preemptible-lifetime draw: coin first, then the uniform, preserving
/// draw order on the per-instance stream.
#[test]
fn capped_sampler_matches_legacy_inline_code() {
    let early_prob = 0.25;
    let hazard = CappedLifetimeHazard::new(early_prob, 24.0);
    let mut new_rng = stream(7, "preempt:42");
    let mut old_rng = stream(7, "preempt:42");
    for _ in 0..1000 {
        let via_model = hazard.sample_lifetime(&mut new_rng);
        let inline = if old_rng.gen_bool(early_prob) {
            SimDuration::from_hours_f64(old_rng.gen_range(0.0..24.0))
        } else {
            SimDuration::from_hours(24)
        };
        assert_eq!(via_model, inline);
    }
}

/// `HazardSpec` round-trips into the models it names, and only the
/// exponential is memoryless.
#[test]
fn spec_builds_the_right_models() {
    let mttf = SimDuration::from_hours(8);
    let exp = HazardSpec::Exponential.build(mttf);
    assert_eq!(exp.name(), "exponential");
    assert!(HazardSpec::Exponential.is_memoryless());
    assert_eq!(exp.mean_lifetime(), mttf);

    let spec = HazardSpec::CappedLifetime {
        early_prob: 0.4,
        cap_hours: 12.0,
    };
    let capped = spec.build(mttf);
    assert_eq!(capped.name(), "capped-lifetime");
    assert!(!spec.is_memoryless());
}
