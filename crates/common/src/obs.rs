//! Zero-dependency observability primitives: atomic counters, gauges,
//! log₂-bucketed latency histograms with percentile snapshots, a shared
//! clock that can be switched from wall time to a deterministic tick
//! counter.
//!
//! Design constraints (see `DESIGN.md` §9):
//!
//! * **Cheap on the hot path.** Recording is one or two relaxed atomic
//!   adds; reading the wall clock is the dominant cost of a timer, so
//!   timed sections are placed only around work that is already at least
//!   microseconds long (lock waits, log syncs, commits), never inside
//!   per-key loops.
//! * **Deterministic snapshots.** A [`Snapshot`] lists metrics in sorted
//!   name order, and when the clock is switched to a tick source
//!   ([`ObsClock::use_ticks`]) every recorded "duration" is an event-count
//!   delta — a pure function of the workload, so two identically-seeded
//!   runs must produce byte-identical snapshots (the torture harness
//!   asserts exactly this).
//! * **No dependencies.** `txview-common` stays dependency-free; only
//!   `std::sync::atomic` and `std::time` are used.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `k`
/// (1 ≤ k < 64) holds values in `[2^(k-1), 2^k - 1]`.
pub const HIST_BUCKETS: usize = 64;

/// Inclusive `(lo, hi)` value range of bucket `i`.
///
/// Bounds are strictly increasing and every bucket is non-empty
/// (`lo <= hi`); [`Snapshot::validate`] re-checks this at runtime so a
/// future edit cannot silently produce a negative or zero-width bucket.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1..=62 => (1u64 << (i - 1), (1u64 << i) - 1),
        _ => (1u64 << 62, u64::MAX),
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous level (queue depths, backlogs).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        self.0.store(v as u64, Ordering::Relaxed);
    }

    /// Adjust the level by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d as u64, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed) as i64
    }
}

/// Fixed-size log₂-bucketed histogram. Recording is two relaxed atomic
/// adds; no allocation, no locking, no resizing.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`], with percentile accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_bounds`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot { buckets: [0; HIST_BUCKETS], sum: 0 }
    }
}

impl HistSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket where the cumulative count crosses `q·total`. Returns
    /// 0 for an empty histogram. Deterministic: depends only on counts.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(HIST_BUCKETS - 1).1
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest recorded bucket's upper bound (0 when empty).
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| bucket_bounds(i).1)
            .unwrap_or(0)
    }
}

/// The shared observability clock. Starts on wall time (microseconds since
/// construction); [`ObsClock::use_ticks`] switches it — once, irreversibly —
/// to an external event counter so timed sections become deterministic
/// event-count deltas under the torture harness's fault clock.
#[derive(Debug)]
pub struct ObsClock {
    base: Instant,
    ticks: OnceLock<Arc<AtomicU64>>,
}

impl Default for ObsClock {
    fn default() -> Self {
        ObsClock::new()
    }
}

impl ObsClock {
    /// New wall-time clock.
    pub fn new() -> ObsClock {
        ObsClock { base: Instant::now(), ticks: OnceLock::new() }
    }

    /// Switch to a deterministic tick source. Later calls are ignored
    /// (first source wins), so a clock can be wired once per component.
    pub fn use_ticks(&self, ticks: Arc<AtomicU64>) {
        let _ = self.ticks.set(ticks);
    }

    /// True once a tick source is installed.
    pub fn is_deterministic(&self) -> bool {
        self.ticks.get().is_some()
    }

    /// Current time: microseconds since construction, or the tick count.
    pub fn now(&self) -> u64 {
        match self.ticks.get() {
            Some(t) => t.load(Ordering::Relaxed),
            None => self.base.elapsed().as_micros() as u64,
        }
    }
}

/// A named, sorted, point-in-time copy of every metric in one subsystem or
/// in the whole engine. Sections merge with [`Snapshot::merge`]; names are
/// kept sorted so rendering and equality are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` latency/size distributions, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
    /// `(name, text)` labels — low-cardinality strings like a health-state
    /// name or a fence reason, sorted by name. Labels carry diagnostic
    /// text, not measurements; determinism checks compare them exactly
    /// like the numeric sections.
    pub labels: Vec<(String, String)>,
}

impl Snapshot {
    /// Record a counter value under `name`.
    pub fn counter(&mut self, name: impl Into<String>, v: u64) -> &mut Self {
        self.counters.push((name.into(), v));
        self
    }

    /// Record a gauge level under `name`.
    pub fn gauge(&mut self, name: impl Into<String>, v: i64) -> &mut Self {
        self.gauges.push((name.into(), v));
        self
    }

    /// Record a histogram under `name`.
    pub fn hist(&mut self, name: impl Into<String>, h: HistSnapshot) -> &mut Self {
        self.hists.push((name.into(), h));
        self
    }

    /// Record a text label under `name`.
    pub fn label(&mut self, name: impl Into<String>, v: impl Into<String>) -> &mut Self {
        self.labels.push((name.into(), v.into()));
        self
    }

    /// Absorb another snapshot's metrics and re-sort.
    pub fn merge(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.hists.extend(other.hists);
        self.labels.extend(other.labels);
        self.sort();
    }

    /// Sort all sections by metric name (deterministic order).
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
        self.labels.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Look up a counter by exact name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a gauge by exact name.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by exact name.
    pub fn hist_value(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Look up a label by exact name.
    pub fn label_value(&self, name: &str) -> Option<&str> {
        self.labels.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Structural sanity check: bucket bounds must be positive-width and
    /// strictly increasing for every populated bucket, and per-histogram
    /// sums must be consistent with the populated value ranges. Returns a
    /// description of the first violation, if any.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let mut prev_hi: Option<u64> = None;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            if lo > hi {
                return Err(format!("bucket {i} has negative width ({lo}..{hi})"));
            }
            if let Some(p) = prev_hi {
                if lo != p + 1 {
                    return Err(format!("bucket {i} not contiguous: lo {lo} after hi {p}"));
                }
            }
            prev_hi = Some(hi);
        }
        for (name, h) in &self.hists {
            let mut min_sum = 0u128;
            let mut max_sum = 0u128;
            for (i, &c) in h.buckets.iter().enumerate() {
                let (lo, hi) = bucket_bounds(i);
                min_sum += c as u128 * lo as u128;
                max_sum = max_sum.saturating_add(c as u128 * hi as u128);
            }
            let s = h.sum as u128;
            if s < min_sum || s > max_sum {
                return Err(format!(
                    "histogram {name}: sum {s} outside bucket-implied range {min_sum}..{max_sum}"
                ));
            }
        }
        Ok(())
    }

    /// Human-readable report: one line per metric, histograms with count /
    /// mean / p50 / p95 / p99.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.hists.iter().map(|(n, _)| n.len()))
            .chain(self.labels.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() || !self.gauges.is_empty() || !self.labels.is_empty() {
            let _ = writeln!(out, "-- counters / gauges --");
            for (n, v) in &self.counters {
                let _ = writeln!(out, "{n:<width$}  {v}");
            }
            for (n, v) in &self.gauges {
                let _ = writeln!(out, "{n:<width$}  {v} (gauge)");
            }
            for (n, v) in &self.labels {
                let _ = writeln!(out, "{n:<width$}  {v:?} (label)");
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "-- histograms --\n{:<width$}  {:>9} {:>10} {:>8} {:>8} {:>8}",
                "name", "count", "mean", "p50", "p95", "p99"
            );
            for (n, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "{n:<width$}  {:>9} {:>10.1} {:>8} {:>8} {:>8}",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                );
            }
        }
        out
    }
}

/// Time a closure against `clock` and record the elapsed value into `hist`.
pub fn timed<T>(clock: &ObsClock, hist: &Histogram, body: impl FnOnce() -> T) -> T {
    let t0 = clock.now();
    let out = body();
    hist.record(clock.now().saturating_sub(t0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_contiguous_and_positive_width() {
        let mut prev_hi = None;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i} has negative width");
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "bucket {i} not contiguous");
            }
            prev_hi = Some(hi);
        }
        assert_eq!(bucket_bounds(HIST_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bucket_of_maps_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 7, 100, 4096, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(v >= lo && v <= hi, "{v} outside bucket {:?}", (lo, hi));
        }
    }

    #[test]
    fn histogram_percentiles() {
        let h = Histogram::new();
        // 90 fast observations (~8), 9 at ~100, 1 at ~10_000.
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(10_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 90 * 8 + 9 * 100 + 10_000);
        assert_eq!(s.p50(), bucket_bounds(bucket_of(8)).1);
        assert_eq!(s.p95(), bucket_bounds(bucket_of(100)).1);
        // p99 crosses into the 100s bucket at rank 99; p100 = max.
        assert_eq!(s.p99(), bucket_bounds(bucket_of(100)).1);
        assert_eq!(s.quantile(1.0), bucket_bounds(bucket_of(10_000)).1);
        assert_eq!(s.max_bound(), bucket_bounds(bucket_of(10_000)).1);
        assert!((s.mean() - (s.sum as f64 / 100.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max_bound(), 0);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn clock_switches_to_ticks_once() {
        let clock = ObsClock::new();
        assert!(!clock.is_deterministic());
        let ticks = Arc::new(AtomicU64::new(7));
        clock.use_ticks(Arc::clone(&ticks));
        assert!(clock.is_deterministic());
        assert_eq!(clock.now(), 7);
        ticks.store(42, Ordering::Relaxed);
        assert_eq!(clock.now(), 42);
        // Second source is ignored.
        clock.use_ticks(Arc::new(AtomicU64::new(999)));
        assert_eq!(clock.now(), 42);
    }

    #[test]
    fn timed_records_tick_delta() {
        let clock = ObsClock::new();
        let ticks = Arc::new(AtomicU64::new(10));
        clock.use_ticks(Arc::clone(&ticks));
        let h = Histogram::new();
        timed(&clock, &h, || ticks.store(25, Ordering::Relaxed));
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum, 15);
    }

    #[test]
    fn snapshot_sorted_lookup_and_validate() {
        let mut s = Snapshot::default();
        s.counter("z.last", 1).counter("a.first", 2).gauge("m.depth", -3);
        let h = Histogram::new();
        h.record(5);
        s.hist("lat", h.snapshot());
        s.sort();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counter_value("z.last"), Some(1));
        assert_eq!(s.gauge_value("m.depth"), Some(-3));
        assert_eq!(s.hist_value("lat").unwrap().count(), 1);
        assert!(s.validate().is_ok());
        // A corrupted sum is caught.
        let mut bad = s.clone();
        bad.hists[0].1.sum = u64::MAX;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn snapshot_report_renders_all_sections() {
        let mut s = Snapshot::default();
        s.counter("lock.grants", 12).gauge("pool.dirty", 3);
        let h = Histogram::new();
        h.record(100);
        s.hist("wal.sync_us", h.snapshot());
        let r = s.report();
        assert!(r.contains("lock.grants"));
        assert!(r.contains("(gauge)"));
        assert!(r.contains("wal.sync_us"));
        assert!(r.contains("p99"));
    }

    #[test]
    fn snapshot_equality_is_structural() {
        let mk = || {
            let mut s = Snapshot::default();
            s.counter("c", 1);
            let h = Histogram::new();
            h.record(9);
            s.hist("h", h.snapshot());
            s.sort();
            s
        };
        assert_eq!(mk(), mk());
    }
}
