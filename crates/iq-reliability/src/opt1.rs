//! Opt1 — dynamic IQ resource allocation (paper Figure 3).
//!
//! Each sampling interval, the allocator sets `IQL` (the number of IQ
//! entries the dispatch stage may keep allocated) from the previous
//! interval's throughput IPC band and mean ready-queue length `RQL`:
//!
//! ```text
//! 0 < IPC ≤ 2:  IQL = min(RQL + IQ/6,  IQ/3)
//! 2 < IPC ≤ 4:  IQL = min(RQL + IQ/3,  IQ/2)
//! 4 < IPC ≤ 6:  IQL = min(RQL + IQ/2, 2IQ/3)
//! 6 < IPC ≤ 8:  IQL = min(RQL + 2IQ/3,  IQ)
//! ```
//!
//! The static caps "give vulnerability reduction a priority"; the RQL
//! term protects performance (the ready queue is what the issue stage
//! feeds on). The paper reports that four IPC regions outperform other
//! region counts — the table is parameterised so the ablation bench can
//! reproduce that comparison.

use micro_isa::ThreadId;
use sim_metrics::Metrics;
use sim_snapshot::{SnapError, SnapReader, SnapWriter};
use sim_trace::{GovernorEvent, TraceEvent, Tracer};
use smt_sim::{DispatchGovernor, GovernorView, IntervalSnapshot};

/// One IPC region row: `(ipc_upper_bound, (margin_num, margin_den),
/// (cap_num, cap_den))` expressing `IQL = min(RQL + IQ*margin, IQ*cap)`.
type Region = (f64, (u64, u64), (u64, u64));

/// One row per IPC region (see [`Region`]).
#[derive(Debug, Clone)]
pub struct IplRegionTable {
    rows: Vec<Region>,
}

impl IplRegionTable {
    /// The paper's four-region table (Figure 3), for a machine of commit
    /// width 8.
    pub fn figure3() -> IplRegionTable {
        IplRegionTable {
            rows: vec![
                (2.0, (1, 6), (1, 3)),
                (4.0, (1, 3), (1, 2)),
                (6.0, (1, 2), (2, 3)),
                (f64::INFINITY, (2, 3), (1, 1)),
            ],
        }
    }

    /// An even split of `[0, width]` into `n` regions with margins/caps
    /// interpolating the Figure 3 progression — used by the region-count
    /// ablation ("our experimental results show that 4 regions outperform
    /// other number of regions").
    pub fn even_regions(n: usize, width: f64) -> IplRegionTable {
        assert!(n >= 1);
        let rows = (1..=n)
            .map(|i| {
                let bound = if i == n {
                    f64::INFINITY
                } else {
                    width * i as f64 / n as f64
                };
                // Interpolate margin 1/6 → 2/3 and cap 1/3 → 1 in
                // 24ths/12ths to stay in integer arithmetic.
                let t = (i - 1) as f64 / (n.max(2) - 1) as f64;
                let margin_24 = (4.0 + t * 12.0).round() as u64; // 4/24..16/24
                let cap_12 = (4.0 + t * 8.0).round() as u64; // 4/12..12/12
                (bound, (margin_24, 24), (cap_12, 12))
            })
            .collect();
        IplRegionTable { rows }
    }

    pub fn num_regions(&self) -> usize {
        self.rows.len()
    }

    /// Zero-based index of the IPC region `ipc` falls in.
    pub fn region_index(&self, ipc: f64) -> usize {
        self.rows
            .iter()
            .position(|(bound, _, _)| ipc <= *bound)
            .unwrap_or(self.rows.len() - 1)
    }

    /// The IQ-entry cap for an interval with the given IPC and mean RQL.
    pub fn iql(&self, ipc: f64, rql: f64, iq_size: usize) -> usize {
        let iq = iq_size as f64;
        let row = self
            .rows
            .iter()
            .find(|(bound, _, _)| ipc <= *bound)
            .unwrap_or_else(|| self.rows.last().expect("empty region table"));
        let (mn, md) = row.1;
        let (cn, cd) = row.2;
        let margin = iq * mn as f64 / md as f64;
        let cap = iq * cn as f64 / cd as f64;
        ((rql + margin).min(cap).round() as usize).clamp(1, iq_size)
    }
}

/// The opt1 dispatch governor.
pub struct DynamicIqAllocator {
    table: IplRegionTable,
    /// Current interval's allocation cap.
    iql: usize,
    tracer: Tracer,
    metrics: Metrics,
}

impl DynamicIqAllocator {
    pub fn new(table: IplRegionTable, iq_size: usize) -> DynamicIqAllocator {
        DynamicIqAllocator {
            table,
            iql: iq_size, // uncapped until the first interval closes
            tracer: Tracer::off(),
            metrics: Metrics::off(),
        }
    }

    /// Paper configuration: Figure 3 table.
    pub fn figure3(iq_size: usize) -> DynamicIqAllocator {
        DynamicIqAllocator::new(IplRegionTable::figure3(), iq_size)
    }

    pub fn current_iql(&self) -> usize {
        self.iql
    }

    /// Recompute the cap from a closed interval (shared with opt2).
    pub(crate) fn update_from_interval(&mut self, snap: &IntervalSnapshot, iq_size: usize) {
        let old_cap = self.iql;
        self.iql = self.table.iql(snap.ipc(), snap.avg_ready_len, iq_size);
        if self.iql != old_cap {
            let new_cap = self.iql;
            self.tracer.emit(|| {
                TraceEvent::Governor(GovernorEvent::Opt1CapChange {
                    cycle: snap.start_cycle + snap.cycles,
                    old_cap,
                    new_cap,
                    avg_ready_len: snap.avg_ready_len,
                    region: self.table.region_index(snap.ipc()),
                })
            });
            self.metrics.counter_add("opt1.cap_changes", 1);
        }
        // Gauge reflects the cap governing the *next* interval; the
        // pipeline's rollover snapshots it into the `opt1.iql_cap`
        // series right after this hook returns.
        let cap = self.iql;
        self.metrics.gauge_set("opt1.iql_cap", || cap as f64);
    }

    pub(crate) fn set_tracer_inner(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    pub(crate) fn set_metrics_inner(&mut self, metrics: Metrics) {
        metrics.gauge_set("opt1.iql_cap", || self.iql as f64);
        self.metrics = metrics;
    }
}

impl DispatchGovernor for DynamicIqAllocator {
    fn name(&self) -> &'static str {
        "opt1-dynamic-iq-allocation"
    }

    fn on_interval(&mut self, snapshot: &IntervalSnapshot, view: &GovernorView) {
        self.update_from_interval(snapshot, view.iq_size);
    }

    fn allow_dispatch(&mut self, view: &GovernorView, _tid: ThreadId) -> bool {
        view.iq_len < self.iql
    }

    /// The cap moves only at interval rollovers, which are simulated.
    fn idle_horizon(&self, _view: &GovernorView) -> u64 {
        u64::MAX
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.set_tracer_inner(tracer);
    }

    fn set_metrics(&mut self, metrics: Metrics) {
        self.set_metrics_inner(metrics);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put(&(self.iql as u64));
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.iql = r.get_u64()? as usize;
        if self.iql == 0 {
            return Err(SnapError::Corrupt("opt1 IQL cap of 0 is invalid".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_caps_match_paper() {
        let t = IplRegionTable::figure3();
        let iq = 96;
        // Low IPC, tiny RQL: RQL + 16 vs cap 32.
        assert_eq!(t.iql(1.0, 4.0, iq), 20);
        // Low IPC, huge RQL: capped at IQ/3 = 32.
        assert_eq!(t.iql(1.5, 60.0, iq), 32);
        // Mid IPC band: RQL + 32 vs cap 48.
        assert_eq!(t.iql(3.0, 10.0, iq), 42);
        assert_eq!(t.iql(3.0, 40.0, iq), 48);
        // High band: RQL + 48 vs cap 64.
        assert_eq!(t.iql(5.0, 10.0, iq), 58);
        // Top band: RQL + 64 vs full IQ.
        assert_eq!(t.iql(7.5, 50.0, iq), 96);
    }

    #[test]
    fn region_boundaries_are_inclusive_upper() {
        let t = IplRegionTable::figure3();
        // IPC exactly 2 falls in the first region.
        assert_eq!(t.iql(2.0, 0.0, 96), 16);
        // Just above 2 falls in the second.
        assert_eq!(t.iql(2.01, 0.0, 96), 32);
    }

    #[test]
    fn iql_always_in_bounds() {
        let t = IplRegionTable::figure3();
        for ipc10 in 0..=90 {
            for rql in 0..=96 {
                let iql = t.iql(ipc10 as f64 / 10.0, rql as f64, 96);
                assert!((1..=96).contains(&iql));
            }
        }
    }

    #[test]
    fn even_region_table_scales_with_count() {
        for n in [2usize, 4, 8] {
            let t = IplRegionTable::even_regions(n, 8.0);
            assert_eq!(t.num_regions(), n);
            // Monotone caps: higher IPC never tightens the cap.
            let mut prev = 0;
            for i in 0..n {
                let ipc = 8.0 * (i as f64 + 0.5) / n as f64;
                let iql = t.iql(ipc, 0.0, 96);
                assert!(iql >= prev, "n={n} i={i}");
                prev = iql;
            }
        }
    }

    #[test]
    fn governor_blocks_at_cap() {
        let mut g = DynamicIqAllocator::figure3(96);
        // Force a low-IPC interval: cap becomes min(5 + 16, 32) = 21.
        let snap = IntervalSnapshot {
            cycles: 10_000,
            committed: 10_000, // IPC 1
            avg_ready_len: 5.0,
            ..Default::default()
        };
        g.update_from_interval(&snap, 96);
        assert_eq!(g.current_iql(), 21);
        let last = IntervalSnapshot::default();
        let mk = |iq_len| GovernorView {
            now: 0,
            iq_size: 96,
            iq_len,
            ready_len: 0,
            waiting_len: 0,
            last_interval: &last,
            interval_hint_bits: 0,
            interval_cycles: 0,
            threads: &[],
        };
        assert!(g.allow_dispatch(&mk(20), 0));
        assert!(!g.allow_dispatch(&mk(21), 0));
        assert!(!g.allow_dispatch(&mk(90), 0));
    }

    #[test]
    fn uncapped_before_first_interval() {
        let mut g = DynamicIqAllocator::figure3(96);
        let last = IntervalSnapshot::default();
        let view = GovernorView {
            now: 0,
            iq_size: 96,
            iq_len: 95,
            ready_len: 0,
            waiting_len: 0,
            last_interval: &last,
            interval_hint_bits: 0,
            interval_cycles: 0,
            threads: &[],
        };
        assert!(g.allow_dispatch(&view, 0));
    }
}
