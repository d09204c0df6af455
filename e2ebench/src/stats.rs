//! Small statistics and reporting helpers: nearest-rank percentiles with the
//! tail rule, failure accounting, and the metric record the run prints.

use std::fmt::Write as _;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// One-based nearest rank of the `p`-th percentile (0 < p ≤ 100) in a
/// sample of `n`: the smallest rank with at least `p`% of the sample at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// A latency sample summarized for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub samples: usize,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank), whether or not it has
    /// [`TAIL_BEYOND`] samples beyond it.
    pub p99: u64,
    /// The highest candidate percentile with at least [`TAIL_BEYOND`]
    /// samples beyond it (0 when the sample is too small for any).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: u64,
}

impl Summary {
    /// Summarize `sample` (sorted in place).
    pub fn of(sample: &mut [u64]) -> Summary {
        sample.sort_unstable();
        let n = sample.len();
        let tail_p = TAIL_CANDIDATES
            .iter()
            .copied()
            .find(|&p| beyond(n, p) >= TAIL_BEYOND)
            .unwrap_or(0.0);
        Summary {
            samples: n,
            p50: percentile(sample, 50.0),
            p90: percentile(sample, 90.0),
            p99: percentile(sample, 99.0),
            tail_p,
            tail: if tail_p > 0.0 {
                percentile(sample, tail_p)
            } else {
                0
            },
        }
    }

    /// Whether p99 itself has [`TAIL_BEYOND`] samples beyond it.
    pub fn p99_resolved(&self) -> bool {
        beyond(self.samples, 99.0) >= TAIL_BEYOND
    }

    /// One human-readable line: `name p50 … p90 … p99 … (n=…, tail …)`.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: p50 {} {unit}, p90 {} {unit}, p99 {} {unit}{} (n={}, highest percentile with >={} beyond: p{} = {} {unit})",
            self.p50,
            self.p90,
            self.p99,
            if self.p99_resolved() { "" } else { " [unresolved]" },
            self.samples,
            TAIL_BEYOND,
            self.tail_p,
            self.tail,
        )
    }
}

/// Operations attempted and failed; an operation counts as failed at most
/// once, however many of its steps went wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcome {
    /// Record one operation that failed when any of `failures` is true.
    pub fn record(&mut self, failures: &[bool]) {
        self.attempted += 1;
        if failures.iter().any(|&f| f) {
            self.failed += 1;
        }
    }

    /// Record `n` operations of which `failed` failed.
    pub fn record_many(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Layer counters one replica accumulated (times in µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Rules the delta path installed.
    pub rules_installed: u64,
    /// Rules the delta path removed.
    pub rules_removed: u64,
    /// Incremental delta-check time.
    pub check_us: u64,
    /// Deltas checked.
    pub checked: u64,
    /// … certified by the structural gate alone.
    pub structural: u64,
    /// … denied.
    pub denied: u64,
    /// Reoptimizes.
    pub reoptimizes: u64,
    /// Summed `CompileStats::duration_us` of the reoptimizes.
    pub compile_us: u64,
    /// … FEC stage.
    pub fec_us: u64,
    /// … stage 1.
    pub stage1_us: u64,
    /// … stage 2.
    pub stage2_us: u64,
    /// … composition.
    pub compose_us: u64,
    /// Reoptimize wall time outside `duration_us`.
    pub install_us: u64,
    /// Routes installed by traffic-source resyncs.
    pub sync_routes: u64,
    /// Packets sent into the fabric.
    pub packets: u64,
    /// Batches that found the switch generation moved.
    pub republish: u64,
}

impl std::ops::AddAssign for LayerCounts {
    fn add_assign(&mut self, o: LayerCounts) {
        self.rules_installed += o.rules_installed;
        self.rules_removed += o.rules_removed;
        self.check_us += o.check_us;
        self.checked += o.checked;
        self.structural += o.structural;
        self.denied += o.denied;
        self.reoptimizes += o.reoptimizes;
        self.compile_us += o.compile_us;
        self.fec_us += o.fec_us;
        self.stage1_us += o.stage1_us;
        self.stage2_us += o.stage2_us;
        self.compose_us += o.compose_us;
        self.install_us += o.install_us;
        self.sync_routes += o.sync_routes;
        self.packets += o.packets;
        self.republish += o.republish;
    }
}

/// A metric name: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add a metric; panics on an invalid or repeated name or a non-finite
    /// value, which would be a bug in this benchmark.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `name = value unit` lines.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(n, v, u)| format!("{n} = {v} {u}"))
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self, correct: bool, outcome: Outcome) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            outcome.attempted.max(1),
            outcome.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Rust's `{}` for f64 prints the shortest text that reads back
            // exactly; whole numbers print without a fraction, which is
            // still valid JSON.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (VmHWM) of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Microseconds in a duration, as a float with sub-µs digits.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Whole microseconds in a duration (saturating).
pub fn whole_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Median of a float sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 91.0), 10);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&v, 0.1), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        let h: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&h, 99.0), 99);
        assert_eq!(percentile(&h, 50.0), 50);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        // 1000 samples: p99 has rank 990, so exactly 10 lie beyond it.
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.samples, 1000);
        assert_eq!((s.p50, s.p90, s.p99), (500, 900, 990));
        assert!(s.p99_resolved());
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 990);

        // 999 samples: p99 has rank 990 with 9 beyond; p95 is the highest
        // resolved percentile.
        let mut v: Vec<u64> = (1..=999).collect();
        let s = Summary::of(&mut v);
        assert!(!s.p99_resolved());
        assert_eq!(s.tail_p, 95.0);
        assert_eq!(s.tail, 950);

        // Ten samples resolve nothing.
        let mut v: Vec<u64> = (1..=10).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.tail_p, s.tail), (0.0, 0));
        assert!(s.describe("x", "us").contains("n=10"));
    }

    #[test]
    fn failed_ratio_counts_each_operation_once() {
        let mut o = Outcome::default();
        assert_eq!(o.ratio(), 0.0);
        o.record(&[false, false]);
        o.record(&[true, true]); // undelivered probe and denied delta: one failure
        o.record(&[false, true]);
        o.record(&[]);
        assert_eq!(
            o,
            Outcome {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(o.ratio(), 0.5);
        o.record_many(4, 9); // failures never exceed attempts
        assert_eq!(
            o,
            Outcome {
                attempted: 8,
                failed: 6
            }
        );
        assert_eq!(o.ratio(), 0.75);
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "core.update_p99_us", "bgp.wire-calls", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn result_json_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.8127, "s");
        m.put("table_rules", 1234.0, "count");
        let line = m.result_json(
            true,
            Outcome {
                attempted: 10,
                failed: 1,
            },
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"table_rules\": {\"value\": 1234, \"unit\": \"count\"}}}"
        );
        assert_eq!(m.get("setup_s"), Some(0.8127));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_panics() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
