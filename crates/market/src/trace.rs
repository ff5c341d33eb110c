//! Piecewise-constant price traces.

use flint_simtime::{SimDuration, SimTime};

/// A piecewise-constant price series over virtual time.
///
/// The trace is a sorted list of `(instant, price)` change-points; the
/// price at any instant is the price of the latest change-point at or
/// before it. Traces are immutable once built, mirroring how Flint's node
/// manager consumes recorded price history.
///
/// # Examples
///
/// ```
/// use flint_market::PriceTrace;
/// use flint_simtime::SimTime;
///
/// let trace = PriceTrace::from_points(vec![
///     (SimTime::from_millis(0), 0.10),
///     (SimTime::from_millis(1000), 0.50),
/// ]);
/// assert_eq!(trace.price_at(SimTime::from_millis(500)), 0.10);
/// assert_eq!(trace.price_at(SimTime::from_millis(1500)), 0.50);
/// ```
#[derive(Debug, Clone)]
pub struct PriceTrace {
    /// Sorted, deduplicated change points.
    points: Vec<(SimTime, f64)>,
    /// `cum[i]` = ∫ price · dt over `[points[0].0, points[i].0)`, in
    /// price·milliseconds. Windowed means become two O(log n) lookups.
    cum: Vec<f64>,
    /// Flat max segment tree over point prices (leaves start at
    /// `seg_max.len() / 2`); drives the "first point above threshold"
    /// descents of the unbounded [`PriceTrace::next_up_crossing`] search.
    /// Windowed crossing counts scan the window instead.
    seg_max: Vec<f64>,
    /// Min counterpart of [`PriceTrace::seg_max`], for "first point at
    /// or below threshold" (the must-drop-first half of a crossing).
    seg_min: Vec<f64>,
}

/// Trace identity is its change points; the prefix-sum and segment
/// trees are deterministic functions of them.
impl PartialEq for PriceTrace {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl PriceTrace {
    /// Creates a flat trace at `price` starting at the epoch.
    pub fn flat(price: f64) -> Self {
        PriceTrace::from_sorted(vec![(SimTime::ZERO, price)])
    }

    /// Builds the trace plus its query indexes from points that are
    /// already sorted, deduplicated, and epoch-anchored.
    fn from_sorted(points: Vec<(SimTime, f64)>) -> Self {
        let n = points.len();
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            cum.push(acc);
            if i + 1 < n {
                acc += points[i].1 * (points[i + 1].0 - points[i].0).as_millis() as f64;
            }
        }
        let size = n.next_power_of_two();
        let mut seg_max = vec![f64::NEG_INFINITY; 2 * size];
        let mut seg_min = vec![f64::INFINITY; 2 * size];
        for (i, &(_, p)) in points.iter().enumerate() {
            seg_max[size + i] = p;
            seg_min[size + i] = p;
        }
        for i in (1..size).rev() {
            seg_max[i] = seg_max[2 * i].max(seg_max[2 * i + 1]);
            seg_min[i] = seg_min[2 * i].min(seg_min[2 * i + 1]);
        }
        PriceTrace {
            points,
            cum,
            seg_max,
            seg_min,
        }
    }

    /// Builds a trace from `(instant, price)` points.
    ///
    /// Points are sorted by time; for duplicate timestamps the last price
    /// wins. An initial point at the epoch is synthesized from the first
    /// price if missing so `price_at` is total.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or any price is negative or non-finite.
    pub fn from_points(mut points: Vec<(SimTime, f64)>) -> Self {
        assert!(!points.is_empty(), "a price trace needs at least one point");
        assert!(
            points.iter().all(|(_, p)| p.is_finite() && *p >= 0.0),
            "prices must be finite and non-negative"
        );
        points.sort_by_key(|(t, _)| *t);
        // Last write wins for duplicate timestamps.
        let mut dedup: Vec<(SimTime, f64)> = Vec::with_capacity(points.len());
        for (t, p) in points {
            match dedup.last_mut() {
                Some((lt, lp)) if *lt == t => *lp = p,
                _ => dedup.push((t, p)),
            }
        }
        if dedup[0].0 != SimTime::ZERO {
            let first_price = dedup[0].1;
            dedup.insert(0, (SimTime::ZERO, first_price));
        }
        PriceTrace::from_sorted(dedup)
    }

    /// Returns the price in effect at instant `t`.
    pub fn price_at(&self, t: SimTime) -> f64 {
        self.points[self.segment_index(t)].1
    }

    /// Index of the change point governing instant `t` (latest point at
    /// or before it).
    fn segment_index(&self, t: SimTime) -> usize {
        match self.points.binary_search_by_key(&t, |(pt, _)| *pt) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Returns the change points within `[from, to)`, plus the price in
    /// effect at `from`.
    pub fn segment(&self, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        let mut out = vec![(from, self.price_at(from))];
        let lo = self.points.partition_point(|&(t, _)| t <= from);
        for &(t, p) in &self.points[lo..] {
            if t >= to {
                break;
            }
            out.push((t, p));
        }
        out
    }

    /// `∫ price · dt` over `[epoch, t)` in price·milliseconds, resolved
    /// from the prefix sum plus a partial-segment remainder.
    fn integral_to(&self, t: SimTime) -> f64 {
        let i = self.segment_index(t);
        self.cum[i] + self.points[i].1 * (t - self.points[i].0).as_millis() as f64
    }

    /// Returns the time-weighted mean price over `[from, to)`.
    ///
    /// Returns the price at `from` when the window is empty. Resolved as
    /// a difference of two prefix-sum integrals, so the query is O(log n)
    /// in the trace length rather than a walk over every change point.
    pub fn mean_price(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return self.price_at(from);
        }
        (self.integral_to(to) - self.integral_to(from)) / (to - from).as_millis() as f64
    }

    /// First point index `>= lo` whose price is above (`above == true`)
    /// or at-or-below (`above == false`) `threshold`, found by descending
    /// the max/min segment tree. Comparison-only, so results match the
    /// linear scan bit for bit. Allocates nothing.
    fn first_from(&self, lo: usize, threshold: f64, above: bool) -> Option<usize> {
        let n = self.points.len();
        if lo >= n {
            return None;
        }
        let size = self.seg_max.len() / 2;
        // (node, node_lo, node_hi) descent over the leaf range [lo, n);
        // out-of-range leaves hold ∓∞ sentinels and never match.
        let hit = |node: usize| {
            if above {
                self.seg_max[node] > threshold
            } else {
                self.seg_min[node] <= threshold
            }
        };
        // The stack holds at most one pending right sibling per tree
        // level plus the node being expanded, and the tree has at most
        // `usize::BITS - 1` levels below the root.
        let mut stack = [(0usize, 0usize, 0usize); usize::BITS as usize];
        stack[0] = (1, 0, size);
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let (node, l, r) = stack[top];
            if r <= lo || l >= n || !hit(node) {
                continue;
            }
            if r - l == 1 {
                return Some(l);
            }
            let m = (l + r) / 2;
            // Push right first so the left half is examined first.
            stack[top] = (2 * node + 1, m, r);
            stack[top + 1] = (2 * node, l, m);
            top += 2;
        }
        None
    }

    /// Returns the first instant strictly after `t` at which the price
    /// rises above `threshold`, or `None` if it never does within the
    /// trace horizon.
    ///
    /// If the price already exceeds `threshold` at `t`, the *next*
    /// up-crossing is still reported only after the price first drops to
    /// or below the threshold (this models "you cannot be revoked twice").
    pub fn next_up_crossing(&self, t: SimTime, threshold: f64) -> Option<SimTime> {
        // First change point strictly after `t`.
        let mut lo = self.points.partition_point(|&(pt, _)| pt <= t);
        if self.price_at(t) > threshold {
            // Already above: the price must first drop to or below the
            // threshold before a crossing can count.
            lo = self.first_from(lo, threshold, false)? + 1;
        }
        let k = self.first_from(lo, threshold, true)?;
        Some(self.points[k].0)
    }

    /// Returns every up-crossing of `threshold` in `[from, to)`.
    pub fn up_crossings(&self, from: SimTime, to: SimTime, threshold: f64) -> Vec<SimTime> {
        self.crossings(from, to, threshold).collect()
    }

    /// The up-crossings of `threshold` after `from` and before `to`, in
    /// order.
    ///
    /// An up-crossing is a change point `k` with `p[k-1] <= threshold <
    /// p[k]`: chained [`PriceTrace::next_up_crossing`] calls visit exactly
    /// these. So two binary searches bound the window and one pass over its
    /// points finds them. `points[0]` is the epoch, so `lo >= 1`.
    fn crossings(
        &self,
        from: SimTime,
        to: SimTime,
        threshold: f64,
    ) -> impl Iterator<Item = SimTime> + '_ {
        let lo = self.points.partition_point(|&(t, _)| t <= from);
        let hi = self.points.partition_point(|&(t, _)| t < to).max(lo);
        self.points[lo - 1..hi]
            .windows(2)
            .filter(move |w| w[0].1 <= threshold && w[1].1 > threshold)
            .map(|w| w[1].0)
    }

    /// Estimates the mean time between up-crossings of `threshold` over
    /// the window `[from, to)` — the MTTF a server bid at `threshold`
    /// would observe.
    ///
    /// With zero crossings in the window the estimate is censored: the
    /// window length itself is a lower bound, and we return `window * 10`
    /// as an optimistic-but-finite stand-in (matching how Flint treats
    /// very quiet markets as near-on-demand rather than infinitely safe).
    pub fn mttf_at(&self, from: SimTime, to: SimTime, threshold: f64) -> SimDuration {
        let window = to - from;
        if window.is_zero() {
            return SimDuration::MAX;
        }
        let n = self.crossings(from, to, threshold).count() as u64;
        if n == 0 {
            window * 10
        } else {
            window / n
        }
    }

    /// Samples the trace at a fixed `step`, returning prices for
    /// `[from, to)`. Used for correlation estimation.
    pub fn sample(&self, from: SimTime, to: SimTime, step: SimDuration) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            out.push(self.price_at(t));
            t += step;
        }
        out
    }

    /// Returns the raw change points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Returns the maximum price attained anywhere on the trace.
    pub fn max_price(&self) -> f64 {
        self.points.iter().map(|(_, p)| *p).fold(0.0, f64::max)
    }

    /// Serializes the trace as CSV (`hours,price` rows) — the format of
    /// public spot-price archives, so generated traces can be compared
    /// against real ones.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("hours,price\n");
        for (t, p) in &self.points {
            out.push_str(&format!("{:.6},{:.6}\n", t.as_hours_f64(), p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn step_trace() -> PriceTrace {
        PriceTrace::from_points(vec![
            (t(0), 0.1),
            (t(100), 0.5),
            (t(200), 0.1),
            (t(300), 0.8),
        ])
    }

    #[test]
    fn flat_trace_is_constant() {
        let tr = PriceTrace::flat(0.25);
        assert_eq!(tr.price_at(t(0)), 0.25);
        assert_eq!(tr.price_at(t(1_000_000)), 0.25);
    }

    #[test]
    fn price_lookup_uses_latest_point() {
        let tr = step_trace();
        assert_eq!(tr.price_at(t(0)), 0.1);
        assert_eq!(tr.price_at(t(99)), 0.1);
        assert_eq!(tr.price_at(t(100)), 0.5);
        assert_eq!(tr.price_at(t(250)), 0.1);
        assert_eq!(tr.price_at(t(301)), 0.8);
    }

    #[test]
    fn from_points_sorts_and_dedups() {
        let tr = PriceTrace::from_points(vec![(t(50), 0.3), (t(10), 0.1), (t(50), 0.4)]);
        assert_eq!(tr.price_at(t(60)), 0.4);
        assert_eq!(tr.price_at(t(0)), 0.1); // synthesized epoch point
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_trace_panics() {
        let _ = PriceTrace::from_points(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_price_panics() {
        let _ = PriceTrace::from_points(vec![(t(0), -1.0)]);
    }

    #[test]
    fn mean_price_weights_by_time() {
        let tr = PriceTrace::from_points(vec![(t(0), 1.0), (t(100), 3.0)]);
        // [0,200): 100ms at 1.0 + 100ms at 3.0 = mean 2.0.
        assert!((tr.mean_price(t(0), t(200)) - 2.0).abs() < 1e-12);
        // Window entirely within first segment.
        assert!((tr.mean_price(t(10), t(50)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_price_empty_window_falls_back() {
        let tr = step_trace();
        assert_eq!(tr.mean_price(t(150), t(150)), 0.5);
    }

    #[test]
    fn up_crossing_detection() {
        let tr = step_trace();
        // Bid 0.3: price exceeds at t=100 and t=300.
        assert_eq!(tr.next_up_crossing(t(0), 0.3), Some(t(100)));
        assert_eq!(tr.next_up_crossing(t(100), 0.3), Some(t(300)));
        assert_eq!(tr.up_crossings(t(0), t(1000), 0.3), vec![t(100), t(300)]);
        // Bid above max price: never revoked.
        assert_eq!(tr.next_up_crossing(t(0), 1.0), None);
    }

    #[test]
    fn already_above_requires_drop_first() {
        let tr = step_trace();
        // At t=100 price is 0.5 > 0.2; next crossing should be t=300, after
        // dropping back below at t=200.
        assert_eq!(tr.next_up_crossing(t(100), 0.2), Some(t(300)));
    }

    #[test]
    fn mttf_estimates() {
        let tr = step_trace();
        let window = SimDuration::from_millis(1000);
        // Two crossings of 0.3 in [0, 1000) => MTTF 500ms.
        assert_eq!(tr.mttf_at(t(0), t(1000), 0.3), window / 2);
        // No crossings of 1.0 => censored at 10x the window.
        assert_eq!(tr.mttf_at(t(0), t(1000), 1.0), window * 10);
    }

    #[test]
    fn sampling_matches_lookup() {
        let tr = step_trace();
        let s = tr.sample(t(0), t(400), SimDuration::from_millis(100));
        assert_eq!(s, vec![0.1, 0.5, 0.1, 0.8]);
    }

    #[test]
    fn max_price_over_trace() {
        assert_eq!(step_trace().max_price(), 0.8);
    }
}
