//! Preemption hazard models: how long a transient instance lives.
//!
//! Flint's original analysis (and our τ formula) assumes revocations
//! arrive as a memoryless Poisson process — the exponential lifetime
//! model. Real providers violate that assumption: GCE preemptible VMs
//! are *capped* at 24 hours, so the hazard rate depends on instance
//! age (a bathtub shape: a uniform early-death phase followed by a
//! certain death at the cap). The [`HazardModel`] trait abstracts over
//! both so that selection, bidding, checkpoint-interval re-estimation,
//! and fault injection all draw lifetimes from a single distribution
//! and can never disagree about it.
//!
//! Two implementations ship:
//!
//! * [`ExponentialHazard`] — the legacy memoryless model. Its
//!   [`HazardModel::mean_residual`] is constant in age, so the τ it
//!   induces is bit-for-bit the classic `√(2·δ·MTTF)`, and its sampler
//!   is draw-for-draw identical to the inverse-CDF sampler the bench
//!   kill schedules always used.
//! * [`CappedLifetimeHazard`] — the GCE-style model: with probability
//!   `early_prob` the instance dies uniformly before the cap, otherwise
//!   it dies exactly at the cap. Its mean residual lifetime *declines*
//!   with age, which is what makes age-aware checkpointing and bidding
//!   possible.

use flint_simtime::SimDuration;
use rand::{Rng, StdRng};

/// A lifetime distribution for transient instances.
///
/// Implementations must be deterministic: every random draw goes
/// through the caller-supplied [`StdRng`], so identical seeds produce
/// identical lifetimes regardless of host threading.
pub trait HazardModel: Send + Sync + std::fmt::Debug {
    /// Short stable name, used in trace events and reports.
    fn name(&self) -> &'static str;

    /// Survival function `S(t) = P(lifetime > t)`.
    fn survival(&self, age: SimDuration) -> f64;

    /// Unconditional expected lifetime `E[L]`.
    fn mean_lifetime(&self) -> SimDuration;

    /// Mean residual lifetime `E[L − a | L > a]` — the age-conditioned
    /// MTTF that feeds checkpoint-interval re-estimation.
    fn mean_residual(&self, age: SimDuration) -> SimDuration;

    /// Draws one lifetime from the distribution.
    fn sample_lifetime(&self, rng: &mut StdRng) -> SimDuration;
}

/// Memoryless exponential lifetimes — the paper's revocation model.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialHazard {
    /// The exact MTTF, preserved so `mean_residual` returns it
    /// unchanged (no float round-trip through hours).
    mttf: SimDuration,
    /// The MTTF in hours as originally supplied, preserved so the
    /// sampler reproduces legacy `-mttf_hours * ln(u)` draws exactly.
    mttf_hours: f64,
}

impl ExponentialHazard {
    /// An exponential hazard with the given MTTF.
    pub fn new(mttf: SimDuration) -> Self {
        ExponentialHazard {
            mttf,
            mttf_hours: mttf.as_hours_f64(),
        }
    }

    /// An exponential hazard with an MTTF of `hours` hours.
    pub fn from_hours(hours: f64) -> Self {
        ExponentialHazard {
            mttf: SimDuration::from_hours_f64(hours),
            mttf_hours: hours,
        }
    }
}

impl HazardModel for ExponentialHazard {
    fn name(&self) -> &'static str {
        "exponential"
    }

    fn survival(&self, age: SimDuration) -> f64 {
        if self.mttf == SimDuration::MAX {
            return 1.0;
        }
        (-age.as_hours_f64() / self.mttf_hours.max(f64::MIN_POSITIVE)).exp()
    }

    fn mean_lifetime(&self) -> SimDuration {
        self.mttf
    }

    fn mean_residual(&self, _age: SimDuration) -> SimDuration {
        // Memoryless: the residual lifetime never depends on age.
        self.mttf
    }

    fn sample_lifetime(&self, rng: &mut StdRng) -> SimDuration {
        // Draw-for-draw the sampler the bench kill schedule used.
        SimDuration::from_hours_f64(sample_exp(rng, self.mttf_hours))
    }
}

/// GCE-style capped lifetimes: uniform early death or death at the cap.
///
/// With probability `early_prob` the lifetime is uniform on
/// `[0, cap)`; otherwise it is exactly `cap`. This puts a probability
/// atom at the cap, so the survival function is
/// `S(t) = early_prob·(1 − t/cap) + (1 − early_prob)` for `t < cap`
/// and `0` at or beyond it, and the mean is `cap·(1 − early_prob/2)`.
#[derive(Debug, Clone, Copy)]
pub struct CappedLifetimeHazard {
    early_prob: f64,
    cap: SimDuration,
    cap_hours: f64,
}

impl CappedLifetimeHazard {
    /// A capped hazard dying early with probability `early_prob`
    /// (clamped to `[0, 1]`) and capped at `cap_hours` hours.
    pub fn new(early_prob: f64, cap_hours: f64) -> Self {
        CappedLifetimeHazard {
            early_prob: early_prob.clamp(0.0, 1.0),
            cap: SimDuration::from_hours_f64(cap_hours),
            cap_hours,
        }
    }
}

impl HazardModel for CappedLifetimeHazard {
    fn name(&self) -> &'static str {
        "capped-lifetime"
    }

    fn survival(&self, age: SimDuration) -> f64 {
        if age >= self.cap {
            return 0.0;
        }
        let frac = age.as_hours_f64() / self.cap_hours;
        self.early_prob * (1.0 - frac) + (1.0 - self.early_prob)
    }

    fn mean_lifetime(&self) -> SimDuration {
        self.cap.mul_f64(1.0 - self.early_prob / 2.0)
    }

    fn mean_residual(&self, age: SimDuration) -> SimDuration {
        if age >= self.cap {
            // Past the cap only the atom's boundary remains; report the
            // smallest MTTF the τ formula distinguishes.
            return SimDuration::from_secs(1);
        }
        // Conditional on surviving to `a`: the remaining early-death
        // mass is uniform on (0, cap − a] with weight p·(1 − a/cap),
        // the atom at the cap has weight (1 − p).
        let left = self.cap.saturating_sub(age).as_hours_f64();
        let p_early = self.early_prob * (1.0 - age.as_hours_f64() / self.cap_hours);
        let p_atom = 1.0 - self.early_prob;
        let total = p_early + p_atom;
        if total <= 0.0 {
            return SimDuration::from_secs(1);
        }
        let mean_hours = (p_early * left / 2.0 + p_atom * left) / total;
        SimDuration::from_hours_f64(mean_hours).max(SimDuration::from_secs(1))
    }

    fn sample_lifetime(&self, rng: &mut StdRng) -> SimDuration {
        // Draw order matches the cloud simulator's historical inline
        // sampler (coin, then uniform) so traces stay byte-identical.
        if rng.gen_bool(self.early_prob) {
            SimDuration::from_hours_f64(rng.gen_range(0.0..self.cap_hours))
        } else {
            self.cap
        }
    }
}

/// Serializable choice of hazard model, threaded through
/// `SelectionConfig` and chaos configs.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum HazardSpec {
    /// Memoryless exponential lifetimes (the default). The MTTF comes
    /// from market price statistics, ages are ignored, and the whole
    /// hazard layer is an exact no-op relative to the legacy pipeline.
    #[default]
    Exponential,
    /// Age-dependent capped lifetimes (GCE bathtub): uniform early
    /// death with probability `early_prob`, otherwise death at
    /// `cap_hours`.
    CappedLifetime {
        /// Probability of dying uniformly before the cap.
        early_prob: f64,
        /// Hard lifetime cap in hours.
        cap_hours: f64,
    },
}

impl HazardSpec {
    /// Builds the model. `mttf` parameterizes the exponential variant
    /// (capped variants carry their own parameters).
    pub fn build(self, mttf: SimDuration) -> Box<dyn HazardModel> {
        match self {
            HazardSpec::Exponential => Box::new(ExponentialHazard::new(mttf)),
            HazardSpec::CappedLifetime {
                early_prob,
                cap_hours,
            } => Box::new(CappedLifetimeHazard::new(early_prob, cap_hours)),
        }
    }

    /// `true` for the memoryless default, where ages carry no
    /// information and the legacy MTTF pipeline applies unchanged.
    pub fn is_memoryless(self) -> bool {
        matches!(self, HazardSpec::Exponential)
    }
}

/// Samples Exp(mean) by inverse transform: one `gen_range` draw per
/// sample, with `u` excluding 0 so `ln` stays finite. The one exponential
/// draw of the crate: spike and jitter gaps in the price generator and
/// [`ExponentialHazard`] lifetimes.
pub(crate) fn sample_exp<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_simtime::rng::stream;

    #[test]
    fn exponential_mean_residual_is_exact_mttf() {
        for ms in [1u64, 999, 3_600_000, 86_399_999, u64::MAX] {
            let mttf = if ms == u64::MAX {
                SimDuration::MAX
            } else {
                SimDuration::from_millis(ms)
            };
            let h = ExponentialHazard::new(mttf);
            assert_eq!(h.mean_residual(SimDuration::ZERO), mttf);
            assert_eq!(h.mean_residual(SimDuration::from_hours(7)), mttf);
            assert_eq!(h.mean_lifetime(), mttf);
        }
    }

    #[test]
    fn exponential_sampler_matches_legacy_inverse_cdf() {
        let hours = 6.5;
        let h = ExponentialHazard::from_hours(hours);
        let mut a = stream(9, "hazard-legacy");
        let mut b = stream(9, "hazard-legacy");
        for _ in 0..200 {
            let want = {
                let u: f64 = a.gen_range(f64::EPSILON..1.0);
                SimDuration::from_hours_f64(-hours * u.ln())
            };
            assert_eq!(h.sample_lifetime(&mut b), want);
        }
    }

    #[test]
    fn capped_sampler_matches_legacy_preemptible_draw() {
        let p = 0.37;
        let h = CappedLifetimeHazard::new(p, 24.0);
        let mut a = stream(4, "preempt:17");
        let mut b = stream(4, "preempt:17");
        for _ in 0..200 {
            let want = if a.gen_bool(p) {
                SimDuration::from_hours_f64(a.gen_range(0.0..24.0))
            } else {
                SimDuration::from_hours(24)
            };
            assert_eq!(h.sample_lifetime(&mut b), want);
        }
    }

    #[test]
    fn capped_survival_shape() {
        let h = CappedLifetimeHazard::new(0.4, 24.0);
        assert!((h.survival(SimDuration::ZERO) - 1.0).abs() < 1e-12);
        assert!((h.survival(SimDuration::from_hours(12)) - 0.8).abs() < 1e-12);
        assert_eq!(h.survival(SimDuration::from_hours(24)), 0.0);
        assert_eq!(h.survival(SimDuration::from_hours(30)), 0.0);
        // Mean matches the market catalog's analytic p·12h + (1−p)·24h.
        let want_hours = 0.4 * 12.0 + 0.6 * 24.0;
        assert!((h.mean_lifetime().as_hours_f64() - want_hours).abs() < 1e-9);
    }

    #[test]
    fn capped_mean_residual_declines_with_age() {
        let h = CappedLifetimeHazard::new(0.4, 24.0);
        let mut prev = h.mean_residual(SimDuration::ZERO);
        for hours in [4u64, 8, 12, 16, 20, 23] {
            let cur = h.mean_residual(SimDuration::from_hours(hours));
            assert!(cur < prev, "residual must shrink with age");
            prev = cur;
        }
        assert_eq!(
            h.mean_residual(SimDuration::from_hours(24)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn spec_round_trip_and_defaults() {
        assert_eq!(HazardSpec::default(), HazardSpec::Exponential);
        assert!(HazardSpec::Exponential.is_memoryless());
        let spec = HazardSpec::CappedLifetime {
            early_prob: 0.4,
            cap_hours: 24.0,
        };
        assert!(!spec.is_memoryless());
        let model = spec.build(SimDuration::from_hours(8));
        assert_eq!(model.name(), "capped-lifetime");
        let exp = HazardSpec::Exponential.build(SimDuration::from_hours(8));
        assert_eq!(exp.name(), "exponential");
    }
}
