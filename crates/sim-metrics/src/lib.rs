//! Quantitative observability for the SMT simulator.
//!
//! PR 1's `sim-trace` answers *what happened* (typed events, audit
//! logs); this crate answers *how much, over time*. The paper's central
//! exhibits are statements about distributions and time series — Fig. 2
//! is a ready-queue occupancy histogram, Fig. 7's DVM triggers on the
//! per-interval AVF estimate, Figs. 8–10 trade throughput IPC against
//! vulnerability — so the simulator needs a numeric substrate that can
//! be sampled every interval without perturbing the run.
//!
//! The design mirrors `sim_trace::Tracer`: instrumented code holds a
//! cheap cloneable [`Metrics`] handle. When no registry is attached
//! (the default, [`Metrics::off`]) every call is one `Option` test and
//! the value expression is never evaluated — metrics cost nothing
//! unless switched on. When attached, all clones share one locked
//! [`Registry`] holding four instrument kinds:
//!
//! * **counters** — monotonically increasing `u64` totals
//!   (`dvm.triggers`, `opt1.cap_changes`);
//! * **gauges** — last-written `f64` values (`dvm.wq_ratio`,
//!   `opt1.iql_cap`, `opt2.flush_mode`);
//! * **histograms** — bucketed `f64` distributions (`interval.ipc`);
//! * **series** — per-interval time series, one point per sampling
//!   interval, indexed by the pipeline's interval counter
//!   (`iq.ready_len`, `iq.ace_fraction`, `iq.interval_avf`).
//!
//! The pipeline drives the interval clock: at each rollover it calls
//! [`Metrics::interval_rollover`], which records the interval's
//! metadata and snapshots every live gauge into a same-named series —
//! so governor state (wq_ratio, IQL cap, flush mode) becomes a time
//! series for free, aligned with the IQ/AVF series on the same clock
//! that `sim-trace` stamps its `IntervalRollover` events with.
//!
//! Export paths (module [`export`]): JSONL time series (one line per
//! interval), Prometheus-style text, and a compact [`MetricsSummary`]
//! merged into run manifests.

pub mod export;
pub mod summary;

pub use summary::{MetricsSummary, SeriesSummary};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default histogram bucket upper bounds. Geometric, covering the
/// magnitudes the simulator produces (IPC 0–8, queue lengths 0–96,
/// latencies up to a few hundred cycles).
pub const DEFAULT_BUCKETS: [f64; 10] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// A bucketed distribution. Buckets are cumulative-style on export
/// (Prometheus `le` semantics) but stored per-bucket internally.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus a final overflow slot.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

/// Frozen histogram state, serializable for export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; `counts` has one extra overflow slot.
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One point of a per-interval time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Interval index (the pipeline's rollover counter).
    pub interval: u64,
    pub value: f64,
}

/// Metadata for one closed sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalMeta {
    pub index: u64,
    pub start_cycle: u64,
    pub cycles: u64,
}

/// The shared instrument store behind a [`Metrics`] handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    series: BTreeMap<&'static str, Vec<SeriesPoint>>,
    intervals: Vec<IntervalMeta>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
            series: self
                .series
                .iter()
                .map(|(k, pts)| (k.to_string(), pts.clone()))
                .collect(),
            intervals: self.intervals.clone(),
        }
    }
}

/// Frozen registry state. Keys are sorted name/value pairs rather than
/// maps so the vendored serde derive can round-trip it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    pub series: Vec<(String, Vec<SeriesPoint>)>,
    pub intervals: Vec<IntervalMeta>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn series(&self, name: &str) -> Option<&[SeriesPoint]> {
        self.series
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, pts)| pts.as_slice())
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// Cloneable handle the instrumented code records through. The default
/// ([`Metrics::off`]) carries no registry: every call reduces to one
/// `Option` test and value expressions are never evaluated.
#[derive(Clone, Default)]
pub struct Metrics(Option<Arc<Mutex<Registry>>>);

impl Metrics {
    /// A handle with no registry; every call is a no-op.
    pub fn off() -> Metrics {
        Metrics(None)
    }

    /// A handle backed by a fresh registry.
    pub fn new() -> Metrics {
        Metrics(Some(Arc::new(Mutex::new(Registry::new()))))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Add `delta` to a monotonic counter (created on first use).
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(reg) = &self.0 {
            *reg.lock().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Set a gauge to the value produced by `value()`. The closure runs
    /// only when a registry is attached.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: impl FnOnce() -> f64) {
        if let Some(reg) = &self.0 {
            reg.lock().gauges.insert(name, value());
        }
    }

    /// Record one observation into a histogram (created on first use
    /// with [`DEFAULT_BUCKETS`]).
    #[inline]
    pub fn observe(&self, name: &'static str, value: impl FnOnce() -> f64) {
        if let Some(reg) = &self.0 {
            reg.lock()
                .histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(&DEFAULT_BUCKETS))
                .observe(value());
        }
    }

    /// Record one observation into a histogram with explicit bucket
    /// bounds (bounds apply on first use only).
    #[inline]
    pub fn observe_with_buckets(
        &self,
        name: &'static str,
        bounds: &[f64],
        value: impl FnOnce() -> f64,
    ) {
        if let Some(reg) = &self.0 {
            reg.lock()
                .histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(bounds))
                .observe(value());
        }
    }

    /// Append a point to a per-interval time series. `interval` is the
    /// index of the (usually just-closed) sampling interval.
    #[inline]
    pub fn sample(&self, name: &'static str, interval: u64, value: impl FnOnce() -> f64) {
        if let Some(reg) = &self.0 {
            reg.lock()
                .series
                .entry(name)
                .or_default()
                .push(SeriesPoint {
                    interval,
                    value: value(),
                });
        }
    }

    /// Close a sampling interval: record its metadata and snapshot every
    /// live gauge into a same-named series, so slowly-changing governor
    /// state becomes a time series on the shared interval clock.
    pub fn interval_rollover(&self, index: u64, start_cycle: u64, cycles: u64) {
        if let Some(reg) = &self.0 {
            let mut reg = reg.lock();
            reg.intervals.push(IntervalMeta {
                index,
                start_cycle,
                cycles,
            });
            let gauges: Vec<(&'static str, f64)> =
                reg.gauges.iter().map(|(k, v)| (*k, *v)).collect();
            for (name, value) in gauges {
                reg.series.entry(name).or_default().push(SeriesPoint {
                    interval: index,
                    value,
                });
            }
        }
    }

    /// Discard everything accumulated so far — counters, histograms,
    /// series points, interval metadata — keeping gauges, which are
    /// live state rather than accumulation. The pipeline calls this
    /// when warmup ends, so exported series and totals cover only the
    /// measured window (interval indices restart at 0 there; without
    /// the reset, warmup and measured points would share indices).
    pub fn reset_accumulated(&self) {
        if let Some(reg) = &self.0 {
            let mut reg = reg.lock();
            reg.counters.clear();
            reg.histograms.clear();
            reg.series.clear();
            reg.intervals.clear();
        }
    }

    /// Freeze the current registry state. Returns an empty snapshot for
    /// an off handle.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(reg) => reg.lock().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Serialize the full registry (counters, gauges, histograms, series,
    /// interval metadata) for a mid-run checkpoint. An off handle writes
    /// just an off marker.
    pub fn save_state(&self, w: &mut sim_snapshot::SnapWriter) {
        use sim_snapshot::Snap;
        let reg = match &self.0 {
            None => {
                w.put(&false);
                return;
            }
            Some(reg) => reg.lock(),
        };
        w.put(&true);
        w.put_u64(reg.counters.len() as u64);
        for (k, v) in &reg.counters {
            k.to_string().save(w);
            v.save(w);
        }
        w.put_u64(reg.gauges.len() as u64);
        for (k, v) in &reg.gauges {
            k.to_string().save(w);
            v.save(w);
        }
        w.put_u64(reg.histograms.len() as u64);
        for (k, h) in &reg.histograms {
            k.to_string().save(w);
            h.bounds.save(w);
            h.counts.save(w);
            h.count.save(w);
            h.sum.save(w);
            h.min.save(w);
            h.max.save(w);
        }
        w.put_u64(reg.series.len() as u64);
        for (k, pts) in &reg.series {
            k.to_string().save(w);
            w.put_u64(pts.len() as u64);
            for p in pts {
                p.interval.save(w);
                p.value.save(w);
            }
        }
        w.put_u64(reg.intervals.len() as u64);
        for iv in &reg.intervals {
            iv.index.save(w);
            iv.start_cycle.save(w);
            iv.cycles.save(w);
        }
    }

    /// Restore registry contents saved by [`Self::save_state`],
    /// replacing everything accumulated so far. The snapshot's on/off
    /// state must match this handle's — a run resumed without the same
    /// `--metrics` setting would silently diverge otherwise.
    ///
    /// Instrument names are interned (leaked) to satisfy the registry's
    /// `&'static str` keys; the set of names is small and fixed per
    /// binary, so this is bounded.
    pub fn restore_state(
        &self,
        r: &mut sim_snapshot::SnapReader<'_>,
    ) -> Result<(), sim_snapshot::SnapError> {
        use sim_snapshot::{SnapError, SnapReader};
        let was_on: bool = r.get()?;
        let reg = match (&self.0, was_on) {
            (None, false) => return Ok(()),
            (Some(reg), true) => reg,
            _ => {
                return Err(SnapError::Corrupt(
                    "metrics on/off state differs from snapshot (re-run with the same --metrics setting)"
                        .into(),
                ))
            }
        };
        fn intern(r: &mut SnapReader<'_>) -> Result<&'static str, SnapError> {
            let s: String = r.get()?;
            Ok(Box::leak(s.into_boxed_str()))
        }
        let mut fresh = Registry::new();
        for _ in 0..r.get_u64()? {
            let k = intern(r)?;
            fresh.counters.insert(k, r.get()?);
        }
        for _ in 0..r.get_u64()? {
            let k = intern(r)?;
            fresh.gauges.insert(k, r.get()?);
        }
        for _ in 0..r.get_u64()? {
            let k = intern(r)?;
            let bounds: Vec<f64> = r.get()?;
            let counts: Vec<u64> = r.get()?;
            if counts.len() != bounds.len() + 1 {
                return Err(SnapError::Corrupt("histogram bucket count mismatch".into()));
            }
            let h = Histogram {
                bounds,
                counts,
                count: r.get()?,
                sum: r.get()?,
                min: r.get()?,
                max: r.get()?,
            };
            fresh.histograms.insert(k, h);
        }
        for _ in 0..r.get_u64()? {
            let k = intern(r)?;
            let n = r.get_u64()? as usize;
            let mut pts = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                pts.push(SeriesPoint {
                    interval: r.get()?,
                    value: r.get()?,
                });
            }
            fresh.series.insert(k, pts);
        }
        for _ in 0..r.get_u64()? {
            fresh.intervals.push(IntervalMeta {
                index: r.get()?,
                start_cycle: r.get()?,
                cycles: r.get()?,
            });
        }
        *reg.lock() = fresh;
        Ok(())
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_on() {
            "Metrics(on)"
        } else {
            "Metrics(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_evaluates_values() {
        let m = Metrics::off();
        let mut ran = false;
        m.gauge_set("g", || {
            ran = true;
            1.0
        });
        m.observe("h", || {
            ran = true;
            1.0
        });
        m.sample("s", 0, || {
            ran = true;
            1.0
        });
        m.counter_add("c", 1);
        m.interval_rollover(0, 0, 10_000);
        assert!(!ran);
        assert!(!m.is_on());
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let m = Metrics::new();
        m.counter_add("dvm.triggers", 2);
        m.counter_add("dvm.triggers", 3);
        m.gauge_set("dvm.wq_ratio", || 4.0);
        m.gauge_set("dvm.wq_ratio", || 2.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("dvm.triggers"), Some(5));
        assert_eq!(snap.gauge("dvm.wq_ratio"), Some(2.0));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn clones_share_one_registry() {
        let a = Metrics::new();
        let b = a.clone();
        a.counter_add("c", 1);
        b.counter_add("c", 1);
        assert_eq!(a.snapshot().counter("c"), Some(2));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        for v in [0.3, 1.5, 1.9, 300.0] {
            m.observe("interval.ipc", || v);
        }
        let snap = m.snapshot();
        let h = snap.histogram("interval.ipc").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.counts[0], 1); // ≤ 0.5
        assert_eq!(h.counts[2], 2); // (1, 2]
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert_eq!(h.min, 0.3);
        assert_eq!(h.max, 300.0);
        assert!((h.mean() - (0.3 + 1.5 + 1.9 + 300.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn rollover_samples_gauges_into_series() {
        let m = Metrics::new();
        m.gauge_set("opt1.iql_cap", || 96.0);
        m.sample("iq.ready_len", 0, || 12.5);
        m.interval_rollover(0, 0, 10_000);
        m.gauge_set("opt1.iql_cap", || 32.0);
        m.sample("iq.ready_len", 1, || 7.5);
        m.interval_rollover(1, 10_000, 10_000);
        let snap = m.snapshot();
        let cap = snap.series("opt1.iql_cap").unwrap();
        assert_eq!(cap.len(), 2);
        assert_eq!(cap[0].value, 96.0);
        assert_eq!(cap[1].value, 32.0);
        assert_eq!(cap[1].interval, 1);
        let ready = snap.series("iq.ready_len").unwrap();
        assert_eq!(ready.len(), 2);
        assert_eq!(snap.intervals.len(), 2);
        assert_eq!(snap.intervals[1].start_cycle, 10_000);
    }

    #[test]
    fn state_roundtrips_through_snapshot_codec() {
        let m = Metrics::new();
        m.counter_add("snap.c", 7);
        m.gauge_set("snap.g", || 1.25);
        m.observe("snap.h", || 3.0);
        m.sample("snap.s", 0, || 0.5);
        m.interval_rollover(0, 0, 10_000);
        let mut w = sim_snapshot::SnapWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let fresh = Metrics::new();
        fresh
            .restore_state(&mut sim_snapshot::SnapReader::new(&bytes))
            .unwrap();
        assert_eq!(fresh.snapshot(), m.snapshot());
    }

    #[test]
    fn restore_rejects_on_off_mismatch() {
        let on = Metrics::new();
        let mut w = sim_snapshot::SnapWriter::new();
        on.save_state(&mut w);
        let bytes = w.into_bytes();
        let off = Metrics::off();
        assert!(off
            .restore_state(&mut sim_snapshot::SnapReader::new(&bytes))
            .is_err());
        // And the symmetric case.
        let mut w = sim_snapshot::SnapWriter::new();
        Metrics::off().save_state(&mut w);
        let bytes = w.into_bytes();
        assert!(Metrics::new()
            .restore_state(&mut sim_snapshot::SnapReader::new(&bytes))
            .is_err());
        assert!(Metrics::off()
            .restore_state(&mut sim_snapshot::SnapReader::new(&bytes))
            .is_ok());
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let m = Metrics::new();
        m.counter_add("c", 7);
        m.gauge_set("g", || 1.25);
        m.observe("h", || 3.0);
        m.sample("s", 0, || 0.5);
        m.interval_rollover(0, 0, 10_000);
        let snap = m.snapshot();
        let text = serde::json::to_string(&snap);
        let back: MetricsSnapshot = serde::json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
