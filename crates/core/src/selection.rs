//! Transient-server selection policies and the cost/variance models
//! behind them (paper §3.1.2 and §3.2.2, Equations 1–4).

use flint_market::{
    correlation_matrix, greedy_uncorrelated_subset, HazardSpec, MarketCatalog, MarketId,
    MarketStats,
};
use flint_simtime::{SimDuration, SimTime};
use flint_store::StorageConfig;

use crate::BidPolicy;

/// The optimal checkpoint interval `τ ≈ √(2·δ·MTTF)` (Daly's first-order
/// approximation, §3.1.1).
///
/// Returns [`SimDuration::MAX`] when the MTTF is infinite (on-demand
/// servers never need checkpoints) and clamps below at one second so a
/// pathological MTTF cannot demand continuous checkpointing.
///
/// # Examples
///
/// ```
/// use flint_core::optimal_tau;
/// use flint_simtime::SimDuration;
///
/// // δ = 2 min, MTTF = 50 h → τ ≈ √(2·120·180000) ≈ 1.83 h.
/// let tau = optimal_tau(SimDuration::from_mins(2), SimDuration::from_hours(50));
/// assert!((tau.as_hours_f64() - 1.83).abs() < 0.02);
/// ```
pub fn optimal_tau(delta: SimDuration, mttf: SimDuration) -> SimDuration {
    if mttf == SimDuration::MAX {
        return SimDuration::MAX;
    }
    let secs = (2.0 * delta.as_secs_f64() * mttf.as_secs_f64()).sqrt();
    SimDuration::from_secs_f64(secs).max(SimDuration::from_secs(1))
}

/// The expected running-time inflation factor for a cluster drawing a
/// `frac` fraction of its servers from a market with the given MTTF
/// (Eq. 1 / Eq. 4 with `frac = 1/m`):
///
/// `E[T]/T = 1 + δ/τ + frac · (τ/2 + rd) / MTTF`.
pub fn expected_runtime_factor(
    delta: SimDuration,
    tau: SimDuration,
    mttf: SimDuration,
    rd: SimDuration,
    frac: f64,
) -> f64 {
    if mttf == SimDuration::MAX {
        return 1.0;
    }
    let tau_s = tau.as_secs_f64().max(1.0);
    let ckpt_overhead = delta.as_secs_f64() / tau_s;
    let recompute = frac * (tau_s / 2.0 + rd.as_secs_f64()) / mttf.as_secs_f64().max(1.0);
    1.0 + ckpt_overhead + recompute
}

/// The expected cost rate ($/server-hour) of running on a market: the
/// inflation factor times the market's mean price (Eq. 2, divided by
/// `T · N` to give a rate).
pub fn expected_cost(factor: f64, mean_price: f64) -> f64 {
    factor * mean_price
}

/// Aggregate MTTF of a heterogeneous cluster: the harmonic combination
/// `1 / (1/MTTF_1 + … + 1/MTTF_m)` (Eq. 3).
///
/// # Examples
///
/// ```
/// use flint_core::harmonic_mttf;
/// use flint_simtime::SimDuration;
///
/// let h = harmonic_mttf(&[SimDuration::from_hours(20), SimDuration::from_hours(20)]);
/// assert!((h.as_hours_f64() - 10.0).abs() < 1e-6);
/// ```
pub fn harmonic_mttf(mttfs: &[SimDuration]) -> SimDuration {
    let mut rate = 0.0;
    for term in mttfs.iter().filter_map(|m| mttf_rate(*m)) {
        rate += term;
    }
    mttf_of_rate(rate)
}

/// One summand of Eq. 3's rate sum, `1/MTTF` in hours⁻¹; `None` for an
/// infinite MTTF (on-demand), which adds nothing.
pub(crate) fn mttf_rate(mttf: SimDuration) -> Option<f64> {
    (mttf != SimDuration::MAX).then(|| 1.0 / mttf.as_hours_f64().max(1e-9))
}

/// The aggregate MTTF of a summed revocation rate (Eq. 3's outer
/// inverse); a zero rate never fails.
pub(crate) fn mttf_of_rate(rate: f64) -> SimDuration {
    if rate <= 0.0 {
        SimDuration::MAX
    } else {
        SimDuration::from_hours_f64(1.0 / rate)
    }
}

/// Variance of the running time (seconds²) for a job of length `t` on a
/// cluster split equally across `m` markets with aggregate MTTF
/// `mttf_agg` (§3.2.2).
///
/// Revocation events arrive as a Poisson process with rate `1/MTTF(S)`;
/// each event loses `1/m` of the servers and costs
/// `(U + rd)/m` with `U ~ Uniform(0, τ)` of lost work, so the compound
/// Poisson variance is `(T/MTTF) · E[((U + rd)/m)²]`.
pub fn runtime_variance(
    t: SimDuration,
    delta: SimDuration,
    mttf_agg: SimDuration,
    rd: SimDuration,
    m: u32,
) -> f64 {
    if mttf_agg == SimDuration::MAX {
        return 0.0;
    }
    let tau = optimal_tau(delta, mttf_agg).as_secs_f64();
    let rd_s = rd.as_secs_f64();
    let m_f = f64::from(m.max(1));
    let e_u2 = tau * tau / 3.0 + tau * rd_s + rd_s * rd_s;
    let rate = t.as_secs_f64() / mttf_agg.as_secs_f64().max(1.0);
    rate * e_u2 / (m_f * m_f)
}

/// Backward-looking window for price statistics (the paper uses "a
/// recent time window, e.g., the past week").
pub const STATS_WINDOW: SimDuration = SimDuration::from_days(7);
/// Reject markets whose instantaneous price exceeds the window mean by
/// more than this fraction (§3.1.2 restoration policy, 10 %).
const STABILITY_THRESHOLD: f64 = 0.10;
/// Maximum pairwise spike correlation admitted into the candidate set
/// `L` (§3.2.2).
const MAX_CORRELATION: f64 = 0.25;
/// Sampling step for correlation estimation.
const CORRELATION_STEP: SimDuration = SimDuration::from_mins(10);
/// Spike threshold (multiple of mean price) for correlation.
const SPIKE_THRESHOLD: f64 = 2.0;
/// Replacement/acquisition delay `rd` (EC2: two minutes).
const RD: SimDuration = SimDuration::from_secs(120);

/// Static configuration of the selection machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionConfig {
    /// Cap on `|L|` (pruning the >1000-market search space).
    pub max_markets: usize,
    /// The instance-lifetime hazard model the node manager assumes.
    /// The default ([`HazardSpec::Exponential`]) keeps the legacy
    /// memoryless pipeline — market-stats MTTF, age-blind τ —
    /// byte-for-byte; an age-dependent spec switches cluster MTTF
    /// estimation to per-instance mean residual lifetimes.
    pub hazard: HazardSpec,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            max_markets: 6,
            hazard: HazardSpec::Exponential,
        }
    }
}

/// What the job ahead looks like, for plugging into Eq. 1–4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProfile {
    /// Estimated failure-free running time `T`.
    pub runtime_estimate: SimDuration,
    /// Expected bytes at the lineage frontier per checkpoint (virtual).
    /// The paper conservatively sizes this as the cluster's active RDD
    /// memory (§3.1.2).
    pub checkpoint_bytes: u64,
}

impl Default for JobProfile {
    fn default() -> Self {
        JobProfile {
            runtime_estimate: SimDuration::from_hours(1),
            checkpoint_bytes: 4_000_000_000, // the paper's canonical 4 GB
        }
    }
}

/// Everything a selection policy may observe: backward-looking market
/// statistics plus the job profile. Constructed fresh at each decision
/// point by the node manager.
pub struct MarketView<'a> {
    /// The full market catalog (policies must only use backward stats).
    pub catalog: &'a MarketCatalog,
    /// The decision instant.
    pub now: SimTime,
    /// The bidding policy in force.
    pub bid: BidPolicy,
    /// Selection configuration.
    pub cfg: &'a SelectionConfig,
    /// The job profile.
    pub job: &'a JobProfile,
    /// Durable-storage bandwidth model (for δ).
    pub storage: StorageConfig,
    /// Cluster size being provisioned.
    pub n: u32,
    /// Markets excluded from [`MarketView::candidates`]. The node
    /// manager always passes `&[]`; the field is kept because the
    /// benchmark builds views with it.
    pub cooled: &'a [MarketId],
}

impl MarketView<'_> {
    /// Backward-looking statistics of `market` at the policy's bid.
    pub fn stats(&self, market: MarketId) -> MarketStats {
        let m = self.catalog.market(market);
        m.stats(self.now, STATS_WINDOW, self.bid.bid_for(m))
    }

    /// Estimated checkpoint write time δ with `n` parallel writers.
    pub(crate) fn delta(&self) -> SimDuration {
        self.storage
            .write_time(self.job.checkpoint_bytes, self.n.max(1))
    }

    /// Expected running-time inflation factor on a single market.
    pub fn factor(&self, market: MarketId) -> f64 {
        self.factor_of(&self.stats(market))
    }

    /// [`MarketView::factor`] from already-computed statistics.
    pub(crate) fn factor_of(&self, s: &MarketStats) -> f64 {
        let delta = self.delta();
        let tau = optimal_tau(delta, s.mttf);
        expected_runtime_factor(delta, tau, s.mttf, RD, 1.0)
    }

    /// Expected cost rate ($/server-hour) on a single market.
    pub fn cost_rate(&self, market: MarketId) -> f64 {
        self.cost_rate_of(&self.stats(market))
    }

    /// [`MarketView::cost_rate`] from already-computed statistics.
    pub(crate) fn cost_rate_of(&self, s: &MarketStats) -> f64 {
        expected_cost(self.factor_of(s), s.mean_price)
    }

    /// The on-demand cost rate (the fallback ceiling).
    pub fn on_demand_rate(&self) -> f64 {
        self.catalog
            .market(self.catalog.on_demand_id())
            .on_demand_price
    }

    /// Revocable markets whose prices currently pass the stability
    /// filter, sorted by expected cost rate (cheapest first).
    pub fn candidates(&self) -> Vec<MarketId> {
        self.ranked_candidates()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// [`MarketView::candidates`] paired with their cost rates. Each
    /// market's statistics are computed once per call.
    pub(crate) fn ranked_candidates(&self) -> Vec<(MarketId, f64)> {
        // Only markets selling the on-demand reference pool's shape, so
        // expected costs compare per worker (diversification then spans
        // zones and pools, not sizes).
        let reference = self.catalog.market(self.catalog.on_demand_id()).spec;
        let mut c: Vec<(MarketId, f64)> = self
            .catalog
            .spot_markets()
            .iter()
            .filter(|m| m.spec == reference)
            .filter(|m| !self.cooled.contains(&m.id))
            .filter_map(|m| {
                let s = self.stats(m.id);
                s.price_is_stable(STABILITY_THRESHOLD)
                    .then(|| (m.id, self.cost_rate_of(&s)))
            })
            .collect();
        c.sort_by(|(a, ra), (b, rb)| {
            ra.partial_cmp(rb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        c
    }

    /// Pairwise spike-correlation matrix over the given markets,
    /// estimated from the backward window.
    pub fn correlations(&self, markets: &[MarketId]) -> Vec<Vec<f64>> {
        let traces: Vec<&flint_market::PriceTrace> = markets
            .iter()
            .map(|id| &self.catalog.market(*id).trace)
            .collect();
        correlation_matrix(
            &traces,
            self.now.saturating_sub(STATS_WINDOW),
            self.now,
            CORRELATION_STEP,
            SPIKE_THRESHOLD,
        )
    }
}

/// A transient-server selection policy.
pub trait SelectionPolicy: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the initial allocation `(market, count)` summing to
    /// `view.n`.
    fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)>;

    /// Chooses replacements for `count` servers lost from `failed`.
    fn replacement(
        &mut self,
        view: &MarketView<'_>,
        failed: MarketId,
        count: u32,
    ) -> Vec<(MarketId, u32)>;

    /// The risk-aversion λ behind the most recent decision, when the
    /// policy is a mean-variance optimizer. The node manager emits a
    /// `PortfolioWeight` trace event per allocated market when this
    /// returns `Some`; the `None` default keeps every legacy policy's
    /// trace byte-identical.
    fn decision_risk(&self) -> Option<f64> {
        None
    }
}

/// Splits `n` servers as evenly as possible over `markets` (first markets
/// get the remainder).
pub(crate) fn split_evenly(markets: &[MarketId], n: u32) -> Vec<(MarketId, u32)> {
    if markets.is_empty() || n == 0 {
        return Vec::new();
    }
    let m = markets.len() as u32;
    let base = n / m;
    let rem = n % m;
    markets
        .iter()
        .enumerate()
        .map(|(i, id)| (*id, base + u32::from((i as u32) < rem)))
        .filter(|(_, c)| *c > 0)
        .collect()
}

/// The batch policy (§3.1.2): one market, minimum expected cost, falling
/// back to on-demand when spot is not cheaper.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchSelection;

impl BatchSelection {
    fn best_market(&self, view: &MarketView<'_>, exclude: Option<MarketId>) -> MarketId {
        let od = view.catalog.on_demand_id();
        let od_rate = view.on_demand_rate();
        let mut best = od;
        let mut best_rate = od_rate;
        for (id, rate) in view.ranked_candidates() {
            if Some(id) == exclude {
                continue;
            }
            if rate < best_rate {
                best = id;
                best_rate = rate;
            }
        }
        best
    }
}

impl SelectionPolicy for BatchSelection {
    fn name(&self) -> &'static str {
        "flint-batch"
    }

    fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)> {
        vec![(self.best_market(view, None), view.n)]
    }

    fn replacement(
        &mut self,
        view: &MarketView<'_>,
        failed: MarketId,
        count: u32,
    ) -> Vec<(MarketId, u32)> {
        vec![(self.best_market(view, Some(failed)), count)]
    }
}

/// The interactive policy (§3.2.2): diversify across the uncorrelated
/// candidate set `L`, adding markets while the running-time variance
/// keeps decreasing and the expected cost stays below on-demand.
#[derive(Debug, Default, Clone)]
pub struct InteractiveSelection {
    /// The uncorrelated candidate list from the last decision, in
    /// expected-cost order (used for replacements).
    last_l: Vec<MarketId>,
    /// Markets currently in use.
    current: Vec<MarketId>,
}

/// The uncorrelated candidate list `L` (§3.2.2): stable candidates in
/// expected-cost order, pruned so every admitted pair's spike
/// correlation stays below the cap.
fn uncorrelated_candidates(view: &MarketView<'_>) -> Vec<MarketId> {
    let cands = view.candidates();
    if cands.is_empty() {
        return Vec::new();
    }
    let corr = view.correlations(&cands);
    greedy_uncorrelated_subset(&corr, MAX_CORRELATION, view.cfg.max_markets)
        .into_iter()
        .map(|i| cands[i])
        .collect()
}

/// Running-time variance of an even split across `set` (§3.2.2).
fn variance_of(view: &MarketView<'_>, set: &[MarketId]) -> f64 {
    let mttfs: Vec<SimDuration> = set.iter().map(|id| view.stats(*id).mttf).collect();
    let agg = harmonic_mttf(&mttfs);
    runtime_variance(
        view.job.runtime_estimate,
        view.delta(),
        agg,
        RD,
        set.len() as u32,
    )
}

fn mean_price_of(view: &MarketView<'_>, set: &[MarketId]) -> f64 {
    if set.is_empty() {
        return f64::INFINITY;
    }
    set.iter().map(|id| view.stats(*id).mean_price).sum::<f64>() / set.len() as f64
}

/// The Policy-2 diversified set: grow along `l` while the running-time
/// variance keeps decreasing and the mean price stays below on-demand,
/// never splitting below one server per market. This is the exact
/// λ → ∞ limit of the mean-variance portfolio objective under the
/// paper's exchangeable-market variance model, so [`PortfolioPolicy`]
/// shares it with [`InteractiveSelection`].
fn policy2_chosen(view: &MarketView<'_>, l: &[MarketId]) -> Vec<MarketId> {
    if l.is_empty() {
        return Vec::new();
    }
    let od_rate = view.on_demand_rate();
    let mut chosen = vec![l[0]];
    let mut best_var = variance_of(view, &chosen);
    for next in l.iter().skip(1) {
        // Never split below one server per market.
        if chosen.len() as u32 >= view.n {
            break;
        }
        let mut trial = chosen.clone();
        trial.push(*next);
        let var = variance_of(view, &trial);
        let price = mean_price_of(view, &trial);
        if var < best_var && price <= od_rate {
            chosen = trial;
            best_var = var;
        } else {
            break;
        }
    }
    chosen
}

impl SelectionPolicy for InteractiveSelection {
    fn name(&self) -> &'static str {
        "flint-interactive"
    }

    fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)> {
        let l = uncorrelated_candidates(view);
        self.last_l.clone_from(&l);
        if l.is_empty() {
            self.current = vec![view.catalog.on_demand_id()];
            return vec![(view.catalog.on_demand_id(), view.n)];
        }
        let chosen = policy2_chosen(view, &l);
        self.current.clone_from(&chosen);
        split_evenly(&chosen, view.n)
    }

    fn replacement(
        &mut self,
        view: &MarketView<'_>,
        failed: MarketId,
        count: u32,
    ) -> Vec<(MarketId, u32)> {
        self.current.retain(|m| *m != failed);
        // Lowest-cost unused market from L (§3.2.2 restoration policy);
        // re-derive L if stale or exhausted.
        let mut l = self.last_l.clone();
        if l.iter().all(|m| self.current.contains(m) || *m == failed) {
            l = uncorrelated_candidates(view);
            self.last_l.clone_from(&l);
        }
        let stable = |m: &MarketId| view.stats(*m).price_is_stable(STABILITY_THRESHOLD);
        // Prefer an unused stable market; failing that, re-enter the
        // lowest-cost stable market already in use (better than paying
        // on-demand); only with L exhausted fall back to on-demand.
        let pick = l
            .iter()
            .find(|m| **m != failed && !self.current.contains(m) && stable(m))
            .or_else(|| l.iter().find(|m| **m != failed && stable(m)))
            .copied()
            .unwrap_or_else(|| view.catalog.on_demand_id());
        self.current.push(pick);
        vec![(pick, count)]
    }
}

/// λ at or above which [`PortfolioPolicy`] returns the closed-form
/// pure-risk optimum (the Policy-2 diversified even split) instead of
/// running the numeric optimizer: at that point the cost term is
/// below float resolution relative to the risk term.
pub const RISK_POLICY2: f64 = 1e9;

/// Mean-variance portfolio selection over transient markets.
///
/// Generalizes the paper's two policies into one objective over an
/// allocation `c` (with weights `w_i = c_i / n`):
///
/// `J(c) = Σ_i w_i · ĉ_i  +  λ · Σ_ij w_i w_j ρ_ij σ_i σ_j`
///
/// where `ĉ_i` is market `i`'s expected cost rate normalized by the
/// on-demand rate, `ρ` is the backward-window spike-correlation matrix
/// (the same estimate `correlated_groups` uses), and `σ_i²` is the
/// normalized single-market running-time variance (§3.2.2). `J` is
/// minimized by deterministic greedy unit allocation: each of the `n`
/// servers goes to the market with the smallest marginal `ΔJ`, ties to
/// the cheapest (lowest-index) market.
///
/// Limit cases recover the existing policies exactly:
///
/// * `risk_aversion = 0` — the marginal cost `ĉ_i / n` is constant per
///   market, so every server goes to the cheapest stable candidate (or
///   on-demand when no candidate beats the on-demand rate): the greedy
///   batch policy's allocation, server for server.
/// * `risk_aversion ≥ RISK_POLICY2` — cost vanishes from the
///   objective; under the paper's exchangeable-market variance model
///   the pure-risk optimum is the diversified even split over the
///   uncorrelated set `L`, and the policy returns it through the same
///   `policy2_chosen` + `split_evenly` code path the interactive
///   (MTTF/variance) policy runs.
#[derive(Debug, Clone)]
pub struct PortfolioPolicy {
    /// Risk-aversion λ ≥ 0.
    risk_aversion: f64,
}

impl PortfolioPolicy {
    /// A portfolio policy with the given risk aversion (clamped below
    /// at zero).
    pub fn new(risk_aversion: f64) -> Self {
        PortfolioPolicy {
            risk_aversion: risk_aversion.max(0.0),
        }
    }

    /// Candidate universe with cost rates: stable spot markets strictly
    /// cheaper than on-demand (matching the batch policy's fallback
    /// ceiling), minus `exclude`.
    fn universe(&self, view: &MarketView<'_>, exclude: Option<MarketId>) -> Vec<(MarketId, f64)> {
        let od_rate = view.on_demand_rate();
        view.ranked_candidates()
            .into_iter()
            .filter(|(id, rate)| Some(*id) != exclude && *rate < od_rate)
            .collect()
    }

    /// Optimizes an allocation of `n` servers, excluding `exclude`.
    fn allocate(
        &self,
        view: &MarketView<'_>,
        exclude: Option<MarketId>,
        n: u32,
    ) -> Vec<(MarketId, u32)> {
        if n == 0 {
            return Vec::new();
        }
        if self.risk_aversion >= RISK_POLICY2 {
            // Closed-form λ → ∞ limit: Policy 2's diversified split.
            let l: Vec<MarketId> = uncorrelated_candidates(view)
                .into_iter()
                .filter(|id| Some(*id) != exclude)
                .collect();
            let chosen = policy2_chosen(view, &l);
            if chosen.is_empty() {
                return vec![(view.catalog.on_demand_id(), n)];
            }
            return split_evenly(&chosen, n);
        }
        let (universe, rates): (Vec<MarketId>, Vec<f64>) =
            self.universe(view, exclude).into_iter().unzip();
        if universe.is_empty() {
            return vec![(view.catalog.on_demand_id(), n)];
        }
        let k = universe.len();
        let nf = f64::from(n);
        let od_rate = view.on_demand_rate().max(f64::MIN_POSITIVE);
        let cost: Vec<f64> = rates.iter().map(|rate| rate / od_rate).collect();
        // Single-market running-time variances, normalized so λ is
        // dimensionless (independent of job length and δ).
        let var: Vec<f64> = universe
            .iter()
            .map(|id| {
                runtime_variance(
                    view.job.runtime_estimate,
                    view.delta(),
                    view.stats(*id).mttf,
                    RD,
                    1,
                )
            })
            .collect();
        let vmax = var.iter().copied().fold(0.0_f64, f64::max).max(1e-300);
        let sigma: Vec<f64> = var.iter().map(|v| (v / vmax).sqrt()).collect();
        let rho = view.correlations(&universe);
        let mut cov = vec![vec![0.0_f64; k]; k];
        #[allow(clippy::needless_range_loop)]
        for i in 0..k {
            for j in 0..k {
                cov[i][j] = if i == j {
                    sigma[i] * sigma[i]
                } else {
                    rho[i][j] * sigma[i] * sigma[j]
                };
            }
        }
        // Greedy unit allocation: J is convex in the weights, so
        // assigning one server at a time to the smallest marginal ΔJ
        // is optimal over integer allocations; strict `<` makes ties
        // go to the lowest index, i.e. the cheapest market.
        let mut count = vec![0u32; k];
        for _ in 0..n {
            let mut best = 0usize;
            let mut best_delta = f64::INFINITY;
            for i in 0..k {
                let w_dot: f64 = (0..k).map(|j| cov[i][j] * f64::from(count[j]) / nf).sum();
                let delta_j =
                    cost[i] / nf + self.risk_aversion * (2.0 * w_dot + cov[i][i] / nf) / nf;
                if delta_j < best_delta {
                    best_delta = delta_j;
                    best = i;
                }
            }
            count[best] += 1;
        }
        universe
            .into_iter()
            .zip(count)
            .filter(|(_, c)| *c > 0)
            .collect()
    }
}

impl SelectionPolicy for PortfolioPolicy {
    fn name(&self) -> &'static str {
        "flint-portfolio"
    }

    fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)> {
        self.allocate(view, None, view.n)
    }

    fn replacement(
        &mut self,
        view: &MarketView<'_>,
        failed: MarketId,
        count: u32,
    ) -> Vec<(MarketId, u32)> {
        // Re-optimize the replacement tranche over the surviving
        // universe (the failed market sits in its cooldown window and
        // is excluded explicitly as well).
        self.allocate(view, Some(failed), count)
    }

    fn decision_risk(&self) -> Option<f64> {
        Some(self.risk_aversion)
    }
}

/// Always provision on-demand servers (the cost baseline of Fig. 11a).
#[derive(Debug, Default, Clone, Copy)]
pub struct OnDemandSelection;

impl SelectionPolicy for OnDemandSelection {
    fn name(&self) -> &'static str {
        "on-demand"
    }

    fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)> {
        vec![(view.catalog.on_demand_id(), view.n)]
    }

    fn replacement(
        &mut self,
        view: &MarketView<'_>,
        _failed: MarketId,
        count: u32,
    ) -> Vec<(MarketId, u32)> {
        vec![(view.catalog.on_demand_id(), count)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_market::MarketCatalog;

    fn make_view<'a>(
        cat: &'a MarketCatalog,
        cfg: &'a SelectionConfig,
        job: &'a JobProfile,
        now_hours: f64,
        n: u32,
    ) -> MarketView<'a> {
        MarketView {
            catalog: cat,
            now: SimTime::from_hours_f64(now_hours),
            bid: BidPolicy::OnDemandPrice,
            cfg,
            job,
            storage: StorageConfig::default(),
            n,
            cooled: &[],
        }
    }

    #[test]
    fn tau_matches_daly_formula() {
        let tau = optimal_tau(SimDuration::from_mins(2), SimDuration::from_hours(50));
        let expect = (2.0 * 120.0 * 50.0 * 3600.0_f64).sqrt();
        assert!((tau.as_secs_f64() - expect).abs() < 1.0);
        assert_eq!(
            optimal_tau(SimDuration::from_mins(2), SimDuration::MAX),
            SimDuration::MAX
        );
    }

    #[test]
    fn tau_grows_with_mttf_and_delta() {
        let d = SimDuration::from_mins(2);
        let t1 = optimal_tau(d, SimDuration::from_hours(10));
        let t2 = optimal_tau(d, SimDuration::from_hours(100));
        assert!(t2 > t1);
        let t3 = optimal_tau(SimDuration::from_mins(8), SimDuration::from_hours(10));
        assert!((t3.as_secs_f64() / t1.as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn factor_is_one_on_demand_and_grows_with_volatility() {
        let d = SimDuration::from_mins(2);
        let rd = SimDuration::from_secs(120);
        assert_eq!(
            expected_runtime_factor(d, SimDuration::MAX, SimDuration::MAX, rd, 1.0),
            1.0
        );
        let f = |mttf_h: u64| {
            let mttf = SimDuration::from_hours(mttf_h);
            let tau = optimal_tau(d, mttf);
            expected_runtime_factor(d, tau, mttf, rd, 1.0)
        };
        assert!(f(1) > f(5));
        assert!(f(5) > f(50));
        assert!(f(50) > 1.0 && f(50) < 1.10, "50h MTTF factor = {}", f(50));
    }

    #[test]
    fn harmonic_mttf_properties() {
        let h20 = SimDuration::from_hours(20);
        assert_eq!(harmonic_mttf(&[h20]), h20);
        let two = harmonic_mttf(&[h20, h20]);
        assert!((two.as_hours_f64() - 10.0).abs() < 1e-6);
        // On-demand members do not reduce the aggregate.
        let with_od = harmonic_mttf(&[h20, SimDuration::MAX]);
        assert_eq!(with_od, h20);
        assert_eq!(harmonic_mttf(&[]), SimDuration::MAX);
    }

    #[test]
    fn variance_decreases_with_more_markets() {
        let t = SimDuration::from_hours(2);
        let d = SimDuration::from_mins(2);
        let rd = SimDuration::from_secs(120);
        let single = runtime_variance(t, d, SimDuration::from_hours(20), rd, 1);
        // Two 20 h markets → aggregate 10 h, m = 2.
        let double = runtime_variance(t, d, SimDuration::from_hours(10), rd, 2);
        assert!(
            double < single,
            "diversification must cut variance: {double} vs {single}"
        );
        assert_eq!(runtime_variance(t, d, SimDuration::MAX, rd, 1), 0.0);
    }

    #[test]
    fn batch_selection_prefers_cheap_stable_market() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 10);
        let mut p = BatchSelection;
        let alloc = p.initial(&view);
        assert_eq!(alloc.len(), 1);
        let (m, n) = alloc[0];
        assert_eq!(n, 10);
        // Must be a spot market (spot is ~10x cheaper in the catalog).
        assert!(
            cat.market(m).is_revocable(),
            "picked {}",
            cat.market(m).name
        );
        // And its cost rate must be minimal among candidates.
        let best_rate = view.cost_rate(m);
        for c in view.candidates() {
            assert!(view.cost_rate(c) >= best_rate - 1e-12);
        }
    }

    #[test]
    fn batch_replacement_excludes_failed_market() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 10);
        let mut p = BatchSelection;
        let first = p.initial(&view)[0].0;
        let repl = p.replacement(&view, first, 10);
        assert_eq!(repl.len(), 1);
        assert_ne!(repl[0].0, first);
        assert_eq!(repl[0].1, 10);
    }

    #[test]
    fn cooled_markets_drop_out_of_candidates() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let open = make_view(&cat, &cfg, &job, 14.0 * 24.0, 10);
        let before = open.candidates();
        assert!(!before.is_empty());
        // Cool the cheapest candidate: it must vanish from the set and
        // from batch selection, while everything else survives.
        let mut p = BatchSelection;
        let cheapest = p.initial(&open)[0].0;
        let cooled = [cheapest];
        let view = MarketView {
            cooled: &cooled,
            ..open
        };
        let after = view.candidates();
        assert!(!after.contains(&cheapest));
        assert_eq!(after.len(), before.len() - 1);
        assert_ne!(p.initial(&view)[0].0, cheapest);
    }

    #[test]
    fn interactive_selection_diversifies() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 12);
        let mut p = InteractiveSelection::default();
        let alloc = p.initial(&view);
        let total: u32 = alloc.iter().map(|(_, c)| *c).sum();
        assert_eq!(total, 12);
        assert!(
            alloc.len() >= 2,
            "interactive policy should spread across markets: {alloc:?}"
        );
        // All chosen markets pairwise uncorrelated under the cap.
        let ids: Vec<MarketId> = alloc.iter().map(|(m, _)| *m).collect();
        let corr = view.correlations(&ids);
        #[allow(clippy::needless_range_loop)]
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert!(
                    corr[i][j].abs() <= MAX_CORRELATION + 1e-9,
                    "markets {i},{j} correlate at {}",
                    corr[i][j]
                );
            }
        }
    }

    #[test]
    fn interactive_replacement_uses_unused_market() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 12);
        let mut p = InteractiveSelection::default();
        let alloc = p.initial(&view);
        let used: Vec<MarketId> = alloc.iter().map(|(m, _)| *m).collect();
        let failed = used[0];
        let repl = p.replacement(&view, failed, 4);
        assert_eq!(repl[0].1, 4);
        // Never back into the spiking market, and never straight to
        // on-demand while stable spot markets remain.
        assert_ne!(repl[0].0, failed);
        assert_ne!(repl[0].0, cat.on_demand_id());
    }

    #[test]
    fn on_demand_selection_is_constant() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 24.0, 5);
        let mut p = OnDemandSelection;
        assert_eq!(p.initial(&view), vec![(cat.on_demand_id(), 5)]);
        assert_eq!(
            p.replacement(&view, MarketId(0), 2),
            vec![(cat.on_demand_id(), 2)]
        );
    }

    #[test]
    fn all_markets_spiking_falls_back_to_on_demand() {
        // Build a catalog whose every spot market is in a spike at the
        // decision instant: the stability filter rejects them all and
        // both policies must resume on on-demand servers (§3.1.2).
        use flint_market::{InstanceSpec, Market, MarketKind, PriceTrace};
        let spike_start = SimTime::from_hours_f64(100.0);
        let mk = |i: u32| Market {
            id: MarketId(i),
            name: format!("spiky-{i}"),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.175,
            kind: MarketKind::Spot,
            trace: PriceTrace::from_points(vec![(SimTime::ZERO, 0.02), (spike_start, 1.5)]),
        };
        let od = Market {
            id: MarketId(2),
            name: "od".into(),
            zone: "z".into(),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: 0.175,
            kind: MarketKind::OnDemand,
            trace: PriceTrace::flat(0.175),
        };
        let cat = MarketCatalog::new(vec![mk(0), mk(1), od], MarketId(2));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = MarketView {
            catalog: &cat,
            now: spike_start + SimDuration::from_mins(10),
            bid: BidPolicy::OnDemandPrice,
            cfg: &cfg,
            job: &job,
            storage: StorageConfig::default(),
            n: 4,
            cooled: &[],
        };
        let mut batch = BatchSelection;
        assert_eq!(batch.initial(&view), vec![(cat.on_demand_id(), 4)]);
        let mut inter = InteractiveSelection::default();
        assert_eq!(inter.initial(&view), vec![(cat.on_demand_id(), 4)]);
    }

    #[test]
    fn portfolio_zero_risk_matches_batch_exactly() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 10);
        let mut batch = BatchSelection;
        let mut portfolio = PortfolioPolicy::new(0.0);
        assert_eq!(portfolio.initial(&view), batch.initial(&view));
        let failed = batch.initial(&view)[0].0;
        assert_eq!(
            portfolio.replacement(&view, failed, 4),
            batch.replacement(&view, failed, 4)
        );
    }

    #[test]
    fn portfolio_saturated_risk_matches_interactive_exactly() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 12);
        let mut inter = InteractiveSelection::default();
        let mut portfolio = PortfolioPolicy::new(RISK_POLICY2);
        assert_eq!(portfolio.initial(&view), inter.initial(&view));
    }

    #[test]
    fn portfolio_allocation_is_complete_and_deterministic() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 10);
        for risk in [0.0, 0.5, 2.0, 100.0, RISK_POLICY2] {
            let mut p = PortfolioPolicy::new(risk);
            let a = p.initial(&view);
            let b = p.initial(&view);
            assert_eq!(a, b, "allocation must be deterministic at λ={risk}");
            let total: u32 = a.iter().map(|(_, c)| *c).sum();
            assert_eq!(total, 10, "λ={risk}");
            assert!(a.iter().all(|(_, c)| *c > 0));
        }
        assert_eq!(PortfolioPolicy::new(1.0).decision_risk(), Some(1.0));
        assert_eq!(BatchSelection.decision_risk(), None);
    }

    #[test]
    fn portfolio_diversifies_more_as_risk_grows() {
        let cat = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let view = make_view(&cat, &cfg, &job, 14.0 * 24.0, 12);
        let spread = |risk: f64| PortfolioPolicy::new(risk).allocate(&view, None, 12).len();
        assert_eq!(spread(0.0), 1, "risk-neutral is all-in on the cheapest");
        assert!(
            spread(100.0) > 1,
            "risk-averse allocation must diversify across markets"
        );
    }

    /// The pre-change `candidates`: stability filter on a fresh
    /// `stats` per market, then a sort whose comparator recomputes both
    /// cost rates.
    fn candidates_per_comparison(view: &MarketView<'_>) -> Vec<MarketId> {
        let reference = view.catalog.market(view.catalog.on_demand_id()).spec;
        let mut c: Vec<MarketId> = view
            .catalog
            .spot_markets()
            .iter()
            .filter(|m| m.spec == reference)
            .map(|m| m.id)
            .filter(|id| !view.cooled.contains(id))
            .filter(|id| view.stats(*id).price_is_stable(STABILITY_THRESHOLD))
            .collect();
        c.sort_by(|a, b| {
            view.cost_rate(*a)
                .partial_cmp(&view.cost_rate(*b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        c
    }

    /// The pre-change `BatchSelection::best_market` loop.
    fn best_market_per_comparison(view: &MarketView<'_>, exclude: Option<MarketId>) -> MarketId {
        let mut best = view.catalog.on_demand_id();
        let mut best_rate = view.on_demand_rate();
        for id in candidates_per_comparison(view) {
            if Some(id) == exclude {
                continue;
            }
            let rate = view.cost_rate(id);
            if rate < best_rate {
                best = id;
                best_rate = rate;
            }
        }
        best
    }

    /// Five spot markets and the on-demand pool. Markets 0 and 1 share
    /// one trace (equal cost rates, so the id tie-break decides), market
    /// 2 is the cheapest but spikes at 100 h (unstable after it), market
    /// 3 is calm and dearer, market 4 crosses the on-demand bid for an
    /// hour in every ten.
    fn tie_catalog() -> MarketCatalog {
        use flint_market::{InstanceSpec, Market, MarketKind, PriceTrace};
        let h = SimTime::from_hours_f64;
        let calm = || PriceTrace::from_points(vec![(h(0.0), 0.03), (h(50.0), 0.032)]);
        let traces = [
            calm(),
            calm(),
            PriceTrace::from_points(vec![(h(0.0), 0.01), (h(100.0), 0.9)]),
            PriceTrace::flat(0.05),
            PriceTrace::from_points(
                (0..20)
                    .map(|i| 10.0 * f64::from(i))
                    .flat_map(|t| [(h(t), 0.02), (h(t + 5.0), 0.5), (h(t + 6.0), 0.02)])
                    .collect(),
            ),
            PriceTrace::flat(0.175),
        ];
        let markets = traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| Market {
                id: MarketId(i as u32),
                name: format!("m{i}"),
                zone: "z".into(),
                spec: InstanceSpec::R3_LARGE,
                on_demand_price: 0.175,
                kind: if i == 5 {
                    MarketKind::OnDemand
                } else {
                    MarketKind::Spot
                },
                trace,
            })
            .collect();
        MarketCatalog::new(markets, MarketId(5))
    }

    #[test]
    fn one_stats_per_market_ranks_like_the_per_comparison_sort() {
        let cfg = SelectionConfig::default();
        let job = JobProfile::default();
        let tie = tie_catalog();
        let ec2 = MarketCatalog::synthetic_ec2(11, SimDuration::from_days(30));
        let m = MarketId;
        let cases: [(&MarketCatalog, f64, Vec<MarketId>); 9] = [
            (&tie, 99.0, vec![]),
            (&tie, 100.5, vec![]),
            (&tie, 100.5, vec![m(0)]),
            (&tie, 100.5, vec![m(1), m(3)]),
            (&tie, 130.0, vec![m(0), m(1), m(3), m(4)]),
            (&ec2, 14.0 * 24.0, vec![]),
            (&ec2, 14.0 * 24.0, vec![m(0), m(4)]),
            (&ec2, 20.0 * 24.0, vec![]),
            (&ec2, 27.5 * 24.0, vec![m(2)]),
        ];
        let mut saw_tie = false;
        for (cat, hours, cooled) in &cases {
            let view = MarketView {
                cooled,
                ..make_view(cat, &cfg, &job, *hours, 10)
            };
            let expect = candidates_per_comparison(&view);
            let ranked = view.ranked_candidates();
            assert_eq!(view.candidates(), expect, "{hours} h cooled {cooled:?}");
            assert_eq!(ranked.iter().map(|(id, _)| *id).collect::<Vec<_>>(), expect);
            for (id, rate) in &ranked {
                assert_eq!(rate.to_bits(), view.cost_rate(*id).to_bits());
            }
            saw_tie |= ranked.windows(2).any(|w| w[0].1 == w[1].1);
            let mut exclusions = vec![None];
            exclusions.extend(expect.iter().copied().map(Some));
            for exclude in exclusions {
                assert_eq!(
                    BatchSelection.best_market(&view, exclude),
                    best_market_per_comparison(&view, exclude),
                    "{hours} h cooled {cooled:?} exclude {exclude:?}"
                );
                let od_rate = view.on_demand_rate();
                let universe: Vec<MarketId> = expect
                    .iter()
                    .copied()
                    .filter(|id| Some(*id) != exclude && view.cost_rate(*id) < od_rate)
                    .collect();
                assert_eq!(
                    PortfolioPolicy::new(1.0)
                        .universe(&view, exclude)
                        .into_iter()
                        .map(|(id, _)| id)
                        .collect::<Vec<_>>(),
                    universe
                );
            }
        }
        assert!(saw_tie, "the equal-rate markets must meet in one ranking");
        // The spike at 100 h makes market 2 unstable: ranked first before
        // it, absent after it.
        let before = make_view(&tie, &cfg, &job, 99.0, 10).candidates();
        let after = make_view(&tie, &cfg, &job, 100.5, 10).candidates();
        assert_eq!(before[0], m(2));
        assert!(!after.contains(&m(2)));
    }

    #[test]
    fn split_evenly_distributes_remainder() {
        let ms = vec![MarketId(0), MarketId(1), MarketId(2)];
        let split = split_evenly(&ms, 10);
        let counts: Vec<u32> = split.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![4, 3, 3]);
        assert!(split_evenly(&[], 10).is_empty());
        assert!(split_evenly(&ms, 0).is_empty());
        // More markets than servers: trailing markets get nothing.
        let split2 = split_evenly(&ms, 2);
        assert_eq!(split2.len(), 2);
    }
}
