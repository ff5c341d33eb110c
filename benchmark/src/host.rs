//! Host-clock instruments: wall spans, process CPU and memory, and the
//! order statistics the reports are built from. Everything here reads
//! the *host* clock; nothing in this file touches virtual time.

use std::time::Instant;

use crate::json::Json;

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU seconds consumed by this process (all threads),
/// from `/proc/self/stat` — `getrusage` without an FFI call. Fields 14
/// and 15 count USER_HZ ticks, which Linux fixes at 100 per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; count from its `)`.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / 100.0
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Times `f` and returns `(result, milliseconds)`.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Nanoseconds per item of the fastest of `reps` timed batches: the
/// layer probes report the cost of the code, not of a descheduling.
pub fn ns_per_item(reps: usize, items: usize, mut batch: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best / items.max(1) as f64
}

/// One recorded interval around a call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op_id: u64,
}

/// Token returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. Switched off it records nothing and costs
/// one branch per call, so the untraced pass shares the code path.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Switches recording on or off (open spans stay open).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags subsequent spans with the op they belong to.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans close innermost-first; tolerate an early return that
        // skipped an inner exit by closing everything above `idx`.
        while self.open.pop().is_some_and(|top| top != idx) {}
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per-name totals with self time (span minus its direct children),
    /// plus the raw spans, for the trace file.
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let summary = names.iter().map(|&name| {
            let (mut count, mut total, mut own) = (0u64, 0u64, 0u64);
            for (i, s) in self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
            {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                count += 1;
                total += dur;
                own += dur.saturating_sub(child_ns[i]);
            }
            Json::obj([
                ("name", Json::str(name)),
                ("count", Json::Num(count as f64)),
                ("total_ms", Json::Num(total as f64 / 1e6)),
                ("self_ms", Json::Num(own as f64 / 1e6)),
            ])
        });
        let raw = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op_id", Json::Num(s.op_id as f64)),
            ])
        });
        Json::obj([
            ("by_name", Json::Arr(summary.collect())),
            ("spans", Json::Arr(raw.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(true);
        let outer = sp.enter("outer");
        let inner = sp.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sp.exit(inner);
        sp.exit(outer);
        let j = sp.to_json();
        let by_name = j.get("by_name").unwrap().as_arr().unwrap();
        let get = |i: usize, k: &str| by_name[i].get(k).unwrap().as_f64().unwrap();
        assert!(get(0, "total_ms") >= get(1, "total_ms"));
        assert!(get(0, "self_ms") <= get(0, "total_ms") - get(1, "total_ms") + 1e-9);
        assert_eq!(
            j.get("spans").unwrap().as_arr().unwrap()[1].get("parent"),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.enter("x");
        sp.exit(id);
        assert!(sp.durations_ms("x").is_empty());
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(host_cores() >= 1);
    }
}
