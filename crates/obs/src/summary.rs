//! [`RunSummary`]: a serializable digest of one recorded run — per-phase
//! wall-clock totals plus final counter/gauge/histogram values — printed by
//! the CLI binaries, and kept as the `summary` section of the
//! `results/BENCH_pipeline.json` that `bench_report` regenerates on each run.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Aggregated wall-clock time of one span name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Span name, e.g. `"pipeline.discover"`.
    pub name: String,
    /// Number of finished spans with this name.
    pub count: u64,
    /// Total wall-clock microseconds across those spans.
    pub total_us: u64,
}

/// Digest of one histogram, percentiles included (see [`crate::hist`] for
/// the one-bucket error bound on `p50`/`p99`/`p999`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    /// Histogram name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Mean observed value.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Serializable digest of everything a recorder captured, built from its
/// [`ObsSnapshot`](crate::ObsSnapshot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Per-phase wall-clock totals, longest first.
    pub phases: Vec<PhaseTiming>,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<HistogramStat>,
}

impl RunSummary {
    /// Digests a merged snapshot.
    pub fn from_snapshot(snap: &crate::ObsSnapshot) -> Self {
        let mut totals: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &snap.spans {
            let entry = totals.entry(s.name.clone()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += s.duration_us();
        }
        let mut phases: Vec<PhaseTiming> = totals
            .into_iter()
            .map(|(name, (count, total_us))| PhaseTiming {
                name,
                count,
                total_us,
            })
            .collect();
        phases.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        let histograms = snap
            .histograms
            .iter()
            .map(|(name, h)| HistogramStat {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                mean: h.mean(),
                p50: h.p50(),
                p99: h.p99(),
                p999: h.p999(),
            })
            .collect();
        RunSummary {
            phases,
            counters: snap.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: snap.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms,
        }
    }

    /// The summary as a human-readable block for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- run summary --");
        if !self.phases.is_empty() {
            let width = self
                .phases
                .iter()
                .map(|p| p.name.len())
                .max()
                .unwrap_or(5)
                .max(5);
            let _ = writeln!(out, "{:<width$}  {:>6}  {:>12}", "phase", "count", "total");
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>6}  {:>9}.{:03} ms",
                    p.name,
                    p.count,
                    p.total_us / 1000,
                    p.total_us % 1000,
                );
            }
        }
        if !self.counters.is_empty() {
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(7)
                .max(7);
            let _ = writeln!(out, "{:<width$}  {:>12}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<width$}  {value:>12}");
            }
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} = {value}");
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "hist  {} : n={} mean={:.1} p50={} p99={} p999={} max={}",
                h.name, h.count, h.mean, h.p50, h.p99, h.p999, h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, ShardedRecorder};

    fn recorded() -> RunSummary {
        let rec = ShardedRecorder::new();
        {
            let _run = crate::span!(rec, "run");
            let _inner = crate::span!(rec, "run.step", 8);
        }
        rec.incr("ops", 12);
        rec.gauge("level", 3);
        rec.observe("lat", 100);
        rec.observe("lat", 300);
        RunSummary::from_snapshot(&rec.snapshot())
    }

    #[test]
    fn summary_digests_recorder_state() {
        let s = recorded();
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.counters, vec![("ops".to_string(), 12)]);
        assert_eq!(s.gauges, vec![("level".to_string(), 3)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].count, 2);
        assert_eq!(s.histograms[0].sum, 400);
        assert_eq!(s.histograms[0].max, 300);
        // The outer span encloses the inner one.
        let run = s.phases.iter().find(|p| p.name == "run").unwrap();
        let step = s.phases.iter().find(|p| p.name == "run.step").unwrap();
        assert!(run.total_us >= step.total_us);
    }

    #[test]
    fn phases_aggregate_spans_by_name() {
        let rec = ShardedRecorder::new();
        for _ in 0..3 {
            let _s = crate::span!(rec, "phase.a");
        }
        {
            let _s = crate::span!(rec, "phase.b");
        }
        let s = RunSummary::from_snapshot(&rec.snapshot());
        let mut counts: Vec<(&str, u64)> = s
            .phases
            .iter()
            .map(|p| (p.name.as_str(), p.count))
            .collect();
        counts.sort();
        assert_eq!(counts, vec![("phase.a", 3), ("phase.b", 1)]);
        let text = s.render();
        let a_row = text.lines().find(|l| l.contains("phase.a")).unwrap();
        assert!(a_row.contains('3'), "count column: {a_row}");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = recorded();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: RunSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn render_mentions_every_metric() {
        let text = recorded().render();
        assert!(text.contains("run summary"));
        assert!(text.contains("run.step"));
        assert!(text.contains("ops"));
        assert!(text.contains("gauge level = 3"));
        assert!(text.contains("hist  lat"));
    }
}
