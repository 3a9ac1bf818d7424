//! The benchmark's statistics and bookkeeping: medians, the tail
//! percentile, interpolated quantiles scraped from daemon histograms,
//! failure accounting, and the one-line JSON result.

use jigsaw_core::serve::StatsSnapshot;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// A tail latency: the highest percentile of the sample that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Which percentile it is (100 when the sample is too small to have
    /// [`TAIL_BEYOND`] samples beyond any point, and the maximum is
    /// reported instead).
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: in ascending order, the value at index `n − 11`, which exactly
/// ten samples exceed. Samples of ten or fewer report their maximum.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    let idx = n - TAIL_BEYOND - 1;
    Tail {
        value: v[idx],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// Interpolated quantile `q`, in milliseconds, of the nanosecond
/// registry histogram `name` in a daemon stats snapshot (within-bucket
/// linear interpolation, not the log2 bucket bound); `None` if the
/// daemon has not recorded that histogram (telemetry off) or it is
/// empty.
pub fn scraped_quantile_ms(stats: &StatsSnapshot, name: &str, q: f64) -> Option<f64> {
    stats
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .filter(|(_, h)| h.count > 0)
        .map(|(_, h)| h.quantile_estimate(q) / 1e6)
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and passed the oracle check.
    Ok,
    /// An error came back: an error frame, or a library error.
    Error,
    /// The daemon refused the job (`Overloaded`).
    Overloaded,
    /// No answer in time, or the connection broke.
    Timeout,
    /// An answer arrived but failed the oracle check.
    WrongOutput,
    /// A solve ended without converging.
    NotConverged,
}

/// Attempted and failed operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end in [`Outcome::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Count one attempt.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit `f64` holds (Rust's
/// shortest round-trip formatting).
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::serve::{CacheStats, STATS_VERSION};
    use jigsaw_telemetry::{Histogram, HistogramSnapshot};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 90th value has exactly ten samples above it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 420 samples (a serve run): p97.6..., still ten beyond.
        let xs: Vec<f64> = (0..420).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 100.0 * 410.0 / 420.0).abs() < 1e-12);

        // Eleven samples: the minimum is the only point with ten beyond.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 0.0);
    }

    #[test]
    fn tail_of_small_sample_is_its_maximum() {
        let t = tail(&[4.0, 9.0, 1.0, 7.0, 3.0]);
        assert_eq!(t.value, 9.0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.samples, 5);
        let t = tail(&(0..10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.percentile), (9.0, 100.0));
    }

    fn snapshot_with(name: &str, h: HistogramSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            stats_version: STATS_VERSION,
            uptime_ns: 1,
            queue_depth: 0,
            queue_high: 0,
            cache: CacheStats {
                hits: 0,
                misses: 0,
                evictions: 0,
                len: 0,
                capacity: 8,
            },
            workers: Vec::new(),
            windows: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![(name.to_string(), h)],
            flight: Vec::new(),
        }
    }

    #[test]
    fn scraped_quantiles_interpolate_inside_the_bucket() {
        // 100 jobs of 40 ms: all in the [2^25, 2^26) ns bucket, whose
        // upper bound (67.1 ms) overstates the median by 1.7x.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(40_000_000);
        }
        let stats = snapshot_with("serve.job_latency_ns", h.snapshot());
        let p50 = scraped_quantile_ms(&stats, "serve.job_latency_ns", 0.5).expect("present");
        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(40_000_000));
        // Rank 50 of 100 sits halfway through the bucket.
        let expect = (lo as f64 + 0.5 * (hi - lo) as f64) / 1e6;
        assert!((p50 - expect).abs() < 1e-9, "{p50} vs {expect}");
        assert!(p50 < hi as f64 / 1e6, "interpolated, not the bucket bound");
        assert!(p50 >= lo as f64 / 1e6);
        // Quantiles are monotone in q.
        let p90 = scraped_quantile_ms(&stats, "serve.job_latency_ns", 0.9).expect("present");
        assert!(p90 > p50);
    }

    #[test]
    fn scraped_quantile_spans_buckets_by_rank() {
        // 30 fast (1 ms) + 70 slow (100 ms) jobs: the median falls in the
        // slow bucket, the 20th percentile in the fast one.
        let h = Histogram::default();
        for _ in 0..30 {
            h.record(1_000_000);
        }
        for _ in 0..70 {
            h.record(100_000_000);
        }
        let stats = snapshot_with("serve.queue_wait_ns", h.snapshot());
        let p20 = scraped_quantile_ms(&stats, "serve.queue_wait_ns", 0.2).expect("present");
        let p50 = scraped_quantile_ms(&stats, "serve.queue_wait_ns", 0.5).expect("present");
        assert!((0.5..=1.05).contains(&p20), "p20 {p20}");
        assert!((67.0..=134.3).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn missing_or_empty_histograms_scrape_as_none() {
        let stats = snapshot_with("serve.job_latency_ns", Histogram::default().snapshot());
        assert_eq!(
            scraped_quantile_ms(&stats, "serve.job_latency_ns", 0.5),
            None
        );
        assert_eq!(scraped_quantile_ms(&stats, "nonesuch", 0.5), None);
    }

    #[test]
    fn every_non_ok_outcome_counts_as_one_failure() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        for o in [
            Outcome::Ok,
            Outcome::Error,
            Outcome::Ok,
            Outcome::Overloaded,
            Outcome::Timeout,
            Outcome::WrongOutput,
            Outcome::NotConverged,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 5);
        assert_eq!(t.fail_ratio(), 5.0 / 8.0);
        let mut u = Tally::default();
        u.record(Outcome::Ok);
        u.merge(t);
        assert_eq!((u.attempted, u.failed), (9, 5));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.record(Outcome::Ok);
        let line = result_json(
            true,
            t,
            &[
                Metric::new("latency_p50_ms", 91.25, "ms"),
                Metric::new("recon.cg_iterations", 16.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 91.25, \"unit\": \"ms\"}, \
             \"recon.cg_iterations\": {\"value\": 16, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
