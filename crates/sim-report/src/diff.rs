//! Cross-run diff engine: per-metric deltas between two groups of runs,
//! gated by the same tolerance + CI95-overlap math as the bench
//! `--check-baseline` comparator ([`sim_stats::gate`]), plus
//! per-interval series alignment.
//!
//! The group is the unit of comparison: each side is any selector hit
//! set (one run, a seed sweep, a whole batch), its scalars aggregated
//! into [`SeedSummary`]s so recorded seed noise widens the gates
//! instead of tripping them. A delta is *significant* exactly when the
//! baseline gate would fail on it — `diff` and `--check-baseline`
//! cannot disagree.

use crate::store::RunRecord;
use serde::{Deserialize, Serialize};
use sim_metrics::export::SeriesRow;
use sim_stats::gate::{self, Drift, METRIC_TOLERANCE, THROUGHPUT_TOLERANCE, WALL_TIME_TOLERANCE};
use sim_stats::{SeedSummary, Table};
use std::collections::BTreeMap;

/// Which regression gate a metric is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Two-sided: |rel| > 2 % and |delta| beyond combined CI95s.
    Metric,
    /// One-sided slowdown on means only (host wall time).
    WallTime,
    /// One-sided drop beyond tolerance and combined CI95s.
    Throughput,
}

impl GateKind {
    fn label(self) -> &'static str {
        match self {
            GateKind::Metric => "metric ±2%",
            GateKind::WallTime => "wall +15%",
            GateKind::Throughput => "thpt -15%",
        }
    }

    fn regresses(self, base: &SeedSummary, cur: &SeedSummary) -> bool {
        match self {
            GateKind::Metric => gate::metric_regresses(base, cur, METRIC_TOLERANCE).is_some(),
            GateKind::WallTime => {
                gate::wall_time_regresses(base, cur, WALL_TIME_TOLERANCE).is_some()
            }
            GateKind::Throughput => {
                gate::throughput_regresses(base, cur, THROUGHPUT_TOLERANCE).is_some()
            }
        }
    }
}

/// One compared metric: both group summaries, the signed drift, and the
/// gate verdict.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    pub metric: String,
    pub gate: GateKind,
    pub base: SeedSummary,
    pub cur: SeedSummary,
    pub drift: Drift,
    /// True when the gate for this metric flags the drift — the same
    /// condition under which `--check-baseline` would fail.
    pub significant: bool,
}

/// Alignment of one named series across two runs' per-interval exports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesAlignment {
    pub name: String,
    /// Number of interval indices present on both sides.
    pub aligned_intervals: u64,
    /// Intervals present on only one side (budget/length mismatch).
    pub unaligned_intervals: u64,
    pub max_abs_delta: f64,
    pub mean_abs_delta: f64,
}

/// The full cross-group comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub base_label: String,
    pub cur_label: String,
    pub base_runs: usize,
    pub cur_runs: usize,
    pub deltas: Vec<MetricDelta>,
    /// Per-interval alignments, when series artifacts were supplied.
    pub series: Vec<SeriesAlignment>,
}

impl DiffReport {
    /// The deltas the gates flag.
    pub fn significant(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.significant).collect()
    }

    /// Human-readable rendering (aligned table plus a verdict line).
    pub fn render(&self) -> String {
        let mut out = format!(
            "diff: base [{}] ({} runs) vs current [{}] ({} runs)\n",
            self.base_label, self.base_runs, self.cur_label, self.cur_runs
        );
        let mut table = Table::new(vec![
            "metric", "gate", "base", "current", "delta", "rel", "ci95", "verdict",
        ]);
        for d in &self.deltas {
            table.row(vec![
                d.metric.clone(),
                d.gate.label().to_string(),
                d.base.display(4),
                d.cur.display(4),
                format!("{:+.4}", d.drift.delta),
                format!("{:+.2}%", d.drift.rel * 100.0),
                format!("{:.4}", d.drift.combined_ci95),
                if d.significant {
                    "SIGNIFICANT".to_string()
                } else {
                    "ok".to_string()
                },
            ]);
        }
        out.push_str(&table.render());
        for s in &self.series {
            out.push_str(&format!(
                "series {}: {} aligned intervals ({} unaligned), max |d| {:.4}, mean |d| {:.4}\n",
                s.name,
                s.aligned_intervals,
                s.unaligned_intervals,
                s.max_abs_delta,
                s.mean_abs_delta
            ));
        }
        let flagged = self.significant();
        if flagged.is_empty() {
            out.push_str("verdict: no significant drift (all deltas within gate tolerances)\n");
        } else {
            out.push_str(&format!(
                "verdict: {} significant drift(s): {}\n",
                flagged.len(),
                flagged
                    .iter()
                    .map(|d| d.metric.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }
}

/// The scalar metrics every record carries, with the gate each one is
/// judged by. Wall time and throughput reuse the bench gate's one-sided
/// semantics; simulation metrics get the two-sided ±2 % gate.
const SCALAR_METRICS: [(&str, GateKind); 5] = [
    ("wall_time_s", GateKind::WallTime),
    ("cycles_per_sec", GateKind::Throughput),
    ("iq_avf", GateKind::Metric),
    ("throughput_ipc", GateKind::Metric),
    ("harmonic_ipc", GateKind::Metric),
];

fn scalar(record: &RunRecord, metric: &str) -> f64 {
    match metric {
        "wall_time_s" => record.wall_time_s,
        "cycles_per_sec" => record.cycles_per_sec,
        "iq_avf" => record.iq_avf,
        "throughput_ipc" => record.throughput_ipc,
        "harmonic_ipc" => record.harmonic_ipc,
        _ => f64::NAN,
    }
}

/// Collect a group's samples for one scalar metric. Zero wall-time and
/// throughput values mean "unknown" (e.g. fault-inject registrations)
/// and are dropped rather than dragging the mean to nonsense.
fn scalar_samples(group: &[&RunRecord], metric: &str, host_gate: bool) -> Vec<f64> {
    group
        .iter()
        .map(|r| scalar(r, metric))
        .filter(|v| v.is_finite() && (!host_gate || *v > 0.0))
        .collect()
}

/// Per-series means recorded in the group's metrics digests.
fn series_means(group: &[&RunRecord]) -> BTreeMap<String, Vec<f64>> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for record in group {
        if let Some(summary) = &record.sim_metrics {
            for s in &summary.series {
                if s.mean.is_finite() {
                    by_name.entry(s.name.clone()).or_default().push(s.mean);
                }
            }
        }
    }
    by_name
}

/// Compare two groups of runs metric by metric. Metrics with no samples
/// on either side are skipped; series means are compared for every
/// series name recorded on both sides.
pub fn diff_groups(
    base: &[&RunRecord],
    cur: &[&RunRecord],
    base_label: &str,
    cur_label: &str,
) -> DiffReport {
    let mut deltas = Vec::new();
    for (metric, kind) in SCALAR_METRICS {
        let host_gate = !matches!(kind, GateKind::Metric);
        let b = scalar_samples(base, metric, host_gate);
        let c = scalar_samples(cur, metric, host_gate);
        if b.is_empty() || c.is_empty() {
            continue;
        }
        deltas.push(delta_of(metric, kind, &b, &c));
    }
    let base_series = series_means(base);
    let cur_series = series_means(cur);
    for (name, b) in &base_series {
        if let Some(c) = cur_series.get(name) {
            // Series derived from host wall time (simulator throughput)
            // vary with machine load; hold them to the one-sided
            // throughput gate, not the tight simulation-metric gate.
            let kind = if name.contains("cycles_per_sec") || name.contains("wall") {
                GateKind::Throughput
            } else {
                GateKind::Metric
            };
            deltas.push(delta_of(&format!("series:{name}"), kind, b, c));
        }
    }
    DiffReport {
        base_label: base_label.to_string(),
        cur_label: cur_label.to_string(),
        base_runs: base.len(),
        cur_runs: cur.len(),
        deltas,
        series: Vec::new(),
    }
}

fn delta_of(metric: &str, kind: GateKind, base: &[f64], cur: &[f64]) -> MetricDelta {
    let b = SeedSummary::from_samples(base);
    let c = SeedSummary::from_samples(cur);
    let drift = gate::drift(&b, &c);
    let significant = kind.regresses(&b, &c);
    MetricDelta {
        metric: metric.to_string(),
        gate: kind,
        base: b,
        cur: c,
        drift,
        significant,
    }
}

/// Align two per-interval series exports by interval index, one
/// [`SeriesAlignment`] per series name present on both sides.
pub fn align_series(base: &[SeriesRow], cur: &[SeriesRow]) -> Vec<SeriesAlignment> {
    fn index(rows: &[SeriesRow]) -> BTreeMap<String, BTreeMap<u64, f64>> {
        let mut map: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
        for row in rows {
            for (name, value) in &row.values {
                map.entry(name.clone())
                    .or_default()
                    .insert(row.interval, *value);
            }
        }
        map
    }
    let b = index(base);
    let c = index(cur);
    let mut out = Vec::new();
    for (name, b_points) in &b {
        let Some(c_points) = c.get(name) else {
            continue;
        };
        let mut aligned = 0u64;
        let mut unaligned = 0u64;
        let mut max_abs: f64 = 0.0;
        let mut sum_abs = 0.0;
        for (interval, bv) in b_points {
            match c_points.get(interval) {
                Some(cv) => {
                    let d = (cv - bv).abs();
                    aligned += 1;
                    sum_abs += d;
                    max_abs = max_abs.max(d);
                }
                None => unaligned += 1,
            }
        }
        unaligned += c_points
            .keys()
            .filter(|i| !b_points.contains_key(i))
            .count() as u64;
        out.push(SeriesAlignment {
            name: name.clone(),
            aligned_intervals: aligned,
            unaligned_intervals: unaligned,
            max_abs_delta: max_abs,
            mean_abs_delta: if aligned > 0 {
                sum_abs / aligned as f64
            } else {
                0.0
            },
        });
    }
    out
}

/// Parse a `.series.jsonl` artifact. The file is written whole by
/// `atomic_write`, not appended to, so an unparseable line before the
/// last one means the file is corrupt and is an error; an unparseable
/// final line (a truncated copy) is dropped.
pub fn parse_series_jsonl(text: &str) -> Result<Vec<SeriesRow>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut rows = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde::json::from_str::<SeriesRow>(line) {
            Ok(row) => rows.push(row),
            Err(e) => {
                if i + 1 == lines.len() {
                    break; // torn tail from an aborted run
                }
                return Err(format!("series line {}: {e:?}", i + 1));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::sample_record;
    use proptest::prelude::*;
    use sim_metrics::summary::{MetricsSummary, SeriesSummary};

    /// A group of `n` same-config runs whose scalars wiggle by a small
    /// deterministic jitter and scale by `factor`.
    fn group(n: u64, factor: f64) -> Vec<RunRecord> {
        (0..n)
            .map(|salt| {
                let jitter = 1.0 + 0.002 * salt as f64;
                let mut r = sample_record(salt, "baseline", salt);
                r.wall_time_s = 4.0 * jitter * factor;
                r.cycles_per_sec = 120_000.0 * jitter / factor;
                r.iq_avf = 0.30 * jitter * factor;
                r.throughput_ipc = 3.1 * jitter;
                r.harmonic_ipc = 0.7 * jitter;
                r.sim_metrics = Some(MetricsSummary {
                    counters: vec![("sim.cycles".to_string(), 1000)],
                    gauges: Vec::new(),
                    series: vec![SeriesSummary {
                        name: "iq.interval_avf".to_string(),
                        points: 10,
                        mean: 0.28 * jitter * factor,
                        min: 0.1,
                        max: 0.5,
                        last: 0.3,
                    }],
                });
                r
            })
            .collect()
    }

    fn refs(v: &[RunRecord]) -> Vec<&RunRecord> {
        v.iter().collect()
    }

    #[test]
    fn equal_groups_diff_to_zero_with_no_significance() {
        let a = group(3, 1.0);
        let report = diff_groups(&refs(&a), &refs(&a), "A", "A");
        assert!(report.deltas.len() >= 6); // 5 scalars + 1 series mean
        for d in &report.deltas {
            assert_eq!(d.drift.delta, 0.0, "{} should be identical", d.metric);
            assert!(!d.significant, "{} flagged on identical groups", d.metric);
        }
        assert!(report.significant().is_empty());
        assert!(report.render().contains("no significant drift"));
    }

    #[test]
    fn injected_metric_drift_beyond_tolerance_and_ci_is_flagged() {
        let a = group(3, 1.0);
        let b = group(3, 1.10); // +10% AVF and series mean, well past ±2%
        let report = diff_groups(&refs(&a), &refs(&b), "A", "B");
        let flagged: Vec<&str> = report
            .significant()
            .iter()
            .map(|d| d.metric.as_str())
            .collect();
        assert!(flagged.contains(&"iq_avf"), "flagged: {flagged:?}");
        assert!(
            flagged.contains(&"series:iq.interval_avf"),
            "flagged: {flagged:?}"
        );
        // throughput_ipc/harmonic_ipc were not scaled: not flagged.
        assert!(!flagged.contains(&"throughput_ipc"));
        assert!(report.render().contains("SIGNIFICANT"));
    }

    #[test]
    fn host_gates_keep_their_one_sided_bench_semantics() {
        let a = group(3, 1.0);
        let slow = group(3, 1.20); // +20% wall, -17% cycles/s
        let report = diff_groups(&refs(&a), &refs(&slow), "A", "B");
        let flagged: Vec<&str> = report
            .significant()
            .iter()
            .map(|d| d.metric.as_str())
            .collect();
        assert!(flagged.contains(&"wall_time_s"), "flagged: {flagged:?}");
        assert!(flagged.contains(&"cycles_per_sec"), "flagged: {flagged:?}");
        // The reverse direction (getting faster) never regresses.
        let report = diff_groups(&refs(&slow), &refs(&a), "B", "A");
        let flagged: Vec<&str> = report
            .significant()
            .iter()
            .map(|d| d.metric.as_str())
            .collect();
        assert!(!flagged.contains(&"wall_time_s"), "flagged: {flagged:?}");
        assert!(!flagged.contains(&"cycles_per_sec"), "flagged: {flagged:?}");
    }

    #[test]
    fn unknown_host_scalars_are_skipped_not_compared_as_zero() {
        let a = group(2, 1.0);
        let mut b = group(2, 1.0);
        for r in &mut b {
            r.wall_time_s = 0.0; // fault-inject registrations don't know host cost
            r.cycles_per_sec = 0.0;
        }
        let report = diff_groups(&refs(&a), &refs(&b), "A", "B");
        assert!(!report.deltas.iter().any(|d| d.metric == "wall_time_s"));
        assert!(!report.deltas.iter().any(|d| d.metric == "cycles_per_sec"));
        assert!(report.deltas.iter().any(|d| d.metric == "iq_avf"));
    }

    #[test]
    fn align_series_matches_intervals_and_counts_strays() {
        fn row(interval: u64, v: f64) -> SeriesRow {
            SeriesRow {
                interval,
                start_cycle: interval * 1000,
                cycles: 1000,
                values: vec![
                    ("ipc".to_string(), v),
                    ("iq.occupancy".to_string(), v * 10.0),
                ],
            }
        }
        let a = vec![row(0, 1.0), row(1, 2.0), row(2, 3.0)];
        let b = vec![row(0, 1.0), row(1, 2.5)]; // shorter run, one drifted point
        let out = align_series(&a, &b);
        assert_eq!(out.len(), 2);
        let ipc = out.iter().find(|s| s.name == "ipc").unwrap();
        assert_eq!(ipc.aligned_intervals, 2);
        assert_eq!(ipc.unaligned_intervals, 1);
        assert!((ipc.max_abs_delta - 0.5).abs() < 1e-12);
        assert!((ipc.mean_abs_delta - 0.25).abs() < 1e-12);
    }

    #[test]
    fn series_jsonl_parse_tolerates_a_torn_tail_only() {
        let good = "{\"interval\":0,\"start_cycle\":0,\"cycles\":10,\"values\":[[\"ipc\",1.5]]}";
        let torn = format!("{good}\n{{\"interval\":1,\"start");
        let rows = parse_series_jsonl(&torn).unwrap();
        assert_eq!(rows.len(), 1);
        let corrupt = format!("{{\"interval\":1,\"start\n{good}");
        assert!(parse_series_jsonl(&corrupt).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// diff(A,B) and diff(B,A) are mirror images: deltas negate
        /// exactly, and the two-sided metric gate flags both directions
        /// or neither.
        #[test]
        fn diff_is_antisymmetric(factor in 0.5f64..2.0, n in 2u64..5) {
            let a = group(n, 1.0);
            let b = group(n, factor);
            let ab = diff_groups(&refs(&a), &refs(&b), "A", "B");
            let ba = diff_groups(&refs(&b), &refs(&a), "B", "A");
            prop_assert_eq!(ab.deltas.len(), ba.deltas.len());
            for (fwd, rev) in ab.deltas.iter().zip(&ba.deltas) {
                prop_assert_eq!(&fwd.metric, &rev.metric);
                prop_assert!((fwd.drift.delta + rev.drift.delta).abs() < 1e-9,
                    "{}: {} vs {}", fwd.metric, fwd.drift.delta, rev.drift.delta);
                prop_assert!((fwd.drift.combined_ci95 - rev.drift.combined_ci95).abs() < 1e-9);
                if matches!(fwd.gate, GateKind::Metric) {
                    // Tolerance is relative to the base mean, so exact
                    // flag symmetry only holds outside the knife edge;
                    // a flagged direction implies drift on the other.
                    if fwd.significant {
                        prop_assert!(rev.drift.delta.abs() > rev.drift.combined_ci95);
                    }
                }
            }
        }
    }
}
