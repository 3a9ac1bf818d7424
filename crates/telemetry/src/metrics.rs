//! Named metrics: atomic counters, gauges, and fixed-bucket log2
//! histograms, collected in a [`Registry`] with a deterministic
//! [`Registry::snapshot`].
//!
//! Handles (`Arc<Counter>` etc.) are cheap to cache at an instrumentation
//! site; [`Registry::reset`] zeroes values *in place* so cached handles
//! stay wired to the registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 histogram buckets: bucket 0 holds the value `0`, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; bucket 64 tops out at
/// `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add to the gauge (compare-exchange loop on the bit pattern).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn zero(&self) {
        self.set(0.0);
    }
}

/// A fixed-bucket log2 histogram of `u64` samples (typically nanoseconds).
///
/// Recording is two relaxed atomic adds plus a `leading_zeros` — cheap
/// enough for per-job (not per-sample) hot paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index for `value`: 0 for 0, else `floor(log2 v) + 1`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive-exclusive bounds `[lo, hi)` of bucket `i` (bucket 64's
    /// upper bound saturates at `u64::MAX`).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i >= 64 { u64::MAX } else { 1u64 << i };
            (lo, hi)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freeze this histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64, u64)> = (0..HIST_BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                if c == 0 {
                    None
                } else {
                    let (lo, hi) = Self::bucket_bounds(i);
                    Some((lo, hi, c))
                }
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A frozen view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets as `(lo, hi, count)` with `lo ≤ v < hi`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q ∈ [0, 1]` (a
    /// conservative percentile estimate: the true quantile is below it).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(_, hi, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return hi;
            }
        }
        self.buckets.last().map(|b| b.1).unwrap_or(0)
    }

    /// Quantile estimate with within-bucket linear interpolation: the
    /// sample at fractional rank `q·count` is assumed uniformly placed
    /// inside its bucket `[lo, hi)`. Tighter than
    /// [`quantile_upper_bound`](Self::quantile_upper_bound) — log2
    /// buckets overstate the upper bound by up to 2× — while still
    /// bracketed by the true bucket: `lo ≤ estimate ≤ hi`.
    pub fn quantile_estimate(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for &(lo, hi, c) in &self.buckets {
            let before = seen;
            seen += c;
            if seen as f64 >= target {
                let frac = (target - before as f64) / c as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
        }
        self.buckets.last().map(|b| b.1 as f64).unwrap_or(0.0)
    }
}

/// A named collection of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. Cache the handle at hot sites.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Deterministic (name-sorted) snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zero every metric **in place** — existing handles keep working.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.zero();
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            g.zero();
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.zero();
        }
    }
}

/// A frozen, serializable view of a [`Registry`], name-sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Summary of a named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Human-readable aligned table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let wid = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for (n, v) in &self.counters {
                s.push_str(&format!("  {n:wid$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges:\n");
            for (n, v) in &self.gauges {
                s.push_str(&format!("  {n:wid$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms:\n");
            for (n, h) in &self.histograms {
                s.push_str(&format!(
                    "  {n:wid$}  count {}  mean {:.1}  p50 {:.1}  p99 {:.1}\n",
                    h.count,
                    h.mean(),
                    h.quantile_estimate(0.5),
                    h.quantile_estimate(0.99),
                ));
            }
        }
        if s.is_empty() {
            s.push_str("(no metrics recorded)\n");
        }
        s
    }

    /// Single-object JSON document.
    pub fn to_json(&self) -> String {
        use crate::export::escape_json;
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {v}", escape_json(n)));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", escape_json(n), fmt_f64(*v)));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                escape_json(n),
                h.count,
                h.sum
            ));
            for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("[{lo}, {hi}, {c}]"));
            }
            s.push_str("]}");
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Bounds are consistent with the index mapping at every edge.
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lo edge of bucket {i}");
            if i < 64 {
                assert_eq!(Histogram::bucket_index(hi - 1), i, "hi edge of bucket {i}");
                assert_eq!(
                    Histogram::bucket_index(hi),
                    i + 1,
                    "first of bucket {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1029);
        assert_eq!(
            s.buckets,
            vec![(0, 1, 1), (1, 2, 2), (2, 4, 1), (1024, 2048, 1)]
        );
        assert!((s.mean() - 1029.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.quantile_upper_bound(0.5), 2); // 3rd of 5 samples lands in [1,2)
        assert_eq!(s.quantile_upper_bound(1.0), 2048);
        assert_eq!(s.quantile_upper_bound(0.0), 1);
    }

    #[test]
    fn quantiles_pinned_on_hand_built_snapshot() {
        // 10 samples: 4 in [4,8), 4 in [8,16), 2 in [16,32).
        let s = HistogramSnapshot {
            count: 10,
            sum: 4 * 5 + 4 * 10 + 2 * 20,
            buckets: vec![(4, 8, 4), (8, 16, 4), (16, 32, 2)],
        };
        // Conservative bound: the bucket's upper edge.
        assert_eq!(s.quantile_upper_bound(0.0), 8);
        assert_eq!(s.quantile_upper_bound(0.4), 8);
        assert_eq!(s.quantile_upper_bound(0.5), 16);
        assert_eq!(s.quantile_upper_bound(0.99), 32);
        assert_eq!(s.quantile_upper_bound(1.0), 32);
        // Linear interpolation: rank q·count placed uniformly in-bucket.
        assert!((s.quantile_estimate(0.0) - 5.0).abs() < 1e-12); // rank 1 of 4 in [4,8)
        assert!((s.quantile_estimate(0.4) - 8.0).abs() < 1e-12); // rank 4 closes [4,8)
        assert!((s.quantile_estimate(0.5) - 10.0).abs() < 1e-12); // rank 5: 1/4 into [8,16)
        assert!((s.quantile_estimate(0.9) - 24.0).abs() < 1e-12); // rank 9: 1/2 into [16,32)
        assert!((s.quantile_estimate(1.0) - 32.0).abs() < 1e-12);
        // The estimate never exceeds the conservative bound.
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert!(s.quantile_estimate(q) <= s.quantile_upper_bound(q) as f64);
        }
        // Empty snapshot degenerates to zero for both.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile_upper_bound(0.5), 0);
        assert_eq!(empty.quantile_estimate(0.5), 0.0);
    }

    #[test]
    fn registry_handles_are_shared_and_reset_in_place() {
        let r = Registry::new();
        let c = r.counter("x.count");
        c.add(3);
        r.counter("x.count").add(4);
        assert_eq!(c.get(), 7);
        let g = r.gauge("x.gauge");
        g.set(1.5);
        g.add(1.0);
        assert_eq!(g.get(), 2.5);
        let h = r.histogram("x.hist");
        h.record(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        // Cached handle still wired after reset.
        c.inc();
        assert_eq!(r.snapshot().counter("x.count"), Some(1));
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.gauge("g").set(0.5);
        r.histogram("h").record(7);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".to_string(), 1), ("b".to_string(), 2)]);
        assert_eq!(s.gauge("g"), Some(0.5));
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
        let table = s.to_table();
        assert!(table.contains("counters:") && table.contains('a'));
        let json = s.to_json();
        assert!(json.contains("\"a\": 1") && json.contains("\"g\": 0.5"));
    }

    #[test]
    fn table_rows_print_interpolated_quantiles() {
        // 10 samples: 4 in [4,8), 4 in [8,16), 2 in [16,32) — the log2
        // bucket bounds would read p50≤16 p99≤32.
        let s = Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![(
                "phase.ns".to_string(),
                HistogramSnapshot {
                    count: 10,
                    sum: 4 * 5 + 4 * 10 + 2 * 20,
                    buckets: vec![(4, 8, 4), (8, 16, 4), (16, 32, 2)],
                },
            )],
        };
        assert_eq!(
            s.to_table(),
            "histograms:\n  phase.ns  count 10  mean 10.0  p50 10.0  p99 31.2\n"
        );
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = Registry::new().snapshot();
        assert!(s.to_table().contains("no metrics"));
        assert!(s.to_json().contains("\"counters\""));
    }
}
