//! The AVF collector: a pipeline observer that folds retirement events
//! through the ground-truth ACE analysis into bit-level per-structure
//! AVFs and the per-interval IQ AVF series.
//!
//! AVF of a structure = Σ over cycles of resident ACE bits divided by
//! (cycles × total structure bits). Because residency intervals are known
//! per instruction, the sum is computed per instruction at finalization
//! (residency × ACE-bit weight) rather than by per-cycle scanning; the
//! per-interval series is obtained by smearing each residency interval
//! across the sampling-interval boundaries it overlaps.

use crate::ace::{AceAnalyzer, AceInstRecord, Finalized};
use crate::layout;
use sim_profile::{ProfileReport, SpanDef, SpanId, SpanSet};
use sim_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use sim_stats::IntervalSeries;
use smt_sim::{MachineConfig, RetireEvent, SimObserver};

/// The collector's own span table: per-commit ACE analysis and the
/// end-of-run drain, both roots (the pipeline grafts them outside its
/// tick subtree — observer callbacks run from commit, which the tick
/// spans already cover).
const SPANS: &[SpanDef] = &[
    SpanDef {
        name: "observe",
        parent: None,
    },
    SpanDef {
        name: "finalize",
        parent: None,
    },
];
const SPAN_OBSERVE: SpanId = 0;
const SPAN_FINALIZE: SpanId = 1;

/// Residency timing carried through the analyzer as payload, plus
/// whether the instruction is a memory op. A cycle field holds
/// `NO_CYCLE` where the retire event has `None`.
#[derive(Debug, Clone, Copy)]
struct Timing {
    dispatch: u64,
    issue: u64,
    complete: u64,
    retire: u64,
    is_mem: bool,
}

/// A `Timing` cycle field's `None`; no run reaches this cycle.
const NO_CYCLE: u64 = u64::MAX;

#[inline]
fn cycle(v: u64) -> Option<u64> {
    (v != NO_CYCLE).then_some(v)
}

// The window entries are the collector's working set: 40 000 per thread.
const _: () = assert!(
    crate::ace::entry_size::<Timing>() <= 64,
    "collector ACE-window entry outgrew 64 bytes"
);

impl Snap for Timing {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.dispatch);
        w.put(&self.issue);
        w.put(&self.complete);
        w.put(&self.retire);
        w.put(&self.is_mem);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Timing {
            dispatch: r.get()?,
            issue: r.get()?,
            complete: r.get()?,
            retire: r.get()?,
            is_mem: r.get()?,
        })
    }
}

/// Per-structure ACE-bit-cycle accumulators and interval series.
#[derive(Debug, Default)]
struct Accum {
    iq_ace_bit_cycles: f64,
    rob_ace_bit_cycles: f64,
    rf_ace_bit_cycles: f64,
    fu_ace_bit_cycles: f64,
    lsq_ace_bit_cycles: f64,
    /// Per-sampling-interval IQ ACE-bit-cycles.
    iq_interval_bits: Vec<f64>,
    committed: u64,
    ace_committed: u64,
}

impl Snap for Accum {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.iq_ace_bit_cycles);
        w.put(&self.rob_ace_bit_cycles);
        w.put(&self.rf_ace_bit_cycles);
        w.put(&self.fu_ace_bit_cycles);
        w.put(&self.lsq_ace_bit_cycles);
        w.put(&self.iq_interval_bits);
        w.put(&self.committed);
        w.put(&self.ace_committed);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Accum {
            iq_ace_bit_cycles: r.get()?,
            rob_ace_bit_cycles: r.get()?,
            rf_ace_bit_cycles: r.get()?,
            fu_ace_bit_cycles: r.get()?,
            lsq_ace_bit_cycles: r.get()?,
            iq_interval_bits: r.get()?,
            committed: r.get()?,
            ace_committed: r.get()?,
        })
    }
}

/// The finished report.
#[derive(Debug, Clone, Default)]
pub struct AvfReport {
    pub cycles: u64,
    /// Whole-run AVF per structure, each in [0,1].
    pub iq_avf: f64,
    pub rob_avf: f64,
    pub rf_avf: f64,
    pub fu_avf: f64,
    pub lsq_avf: f64,
    /// Ground-truth IQ AVF per sampling interval (PVE input).
    pub iq_interval_avf: IntervalSeries,
    /// Fraction of committed instructions classified ACE.
    pub ace_fraction: f64,
    pub committed: u64,
}

impl AvfReport {
    /// The maximum interval IQ AVF — the paper's MaxIQ_AVF, measured on a
    /// baseline run to anchor DVM reliability targets.
    pub fn max_interval_iq_avf(&self) -> f64 {
        if self.iq_interval_avf.is_empty() {
            0.0
        } else {
            self.iq_interval_avf.max()
        }
    }
}

/// Observer computing ground-truth bit-level AVF.
pub struct AvfCollector {
    analyzer: AceAnalyzer<Timing>,
    accum: Accum,
    interval_cycles: u64,
    config: MachineConfig,
    final_cycle: u64,
    /// Cycle offset where measurement starts (post-warmup); all
    /// timestamps are rebased against it.
    start_cycle: u64,
    /// Wall-time attribution for the ACE analysis. Host-side only:
    /// never serialized, never consulted by the analysis.
    prof: SpanSet,
}

impl AvfCollector {
    /// `interval_cycles` must match the pipeline's sampling interval for
    /// the PVE series to align (default 10 000).
    pub fn new(config: &MachineConfig, window: usize, interval_cycles: u64) -> AvfCollector {
        assert!(interval_cycles > 0);
        AvfCollector {
            analyzer: AceAnalyzer::new(config.num_threads, window),
            accum: Accum::default(),
            interval_cycles,
            config: config.clone(),
            final_cycle: 0,
            start_cycle: 0,
            prof: SpanSet::new(SPANS),
        }
    }

    /// Enable or disable wall-time attribution of the ACE analysis.
    pub fn set_profiling(&mut self, on: bool) {
        self.prof.set_enabled(on);
    }

    /// Freeze the accumulated analysis profile.
    pub fn profile_report(&self) -> ProfileReport {
        self.prof.report()
    }

    /// Rebase all timestamps to `start_cycle` (the value returned by
    /// `Pipeline::warm_up`), so interval indexing aligns with the
    /// pipeline's post-warmup intervals.
    pub fn with_start_cycle(mut self, start_cycle: u64) -> AvfCollector {
        self.start_cycle = start_cycle;
        self
    }

    /// Default configuration: 40 K-instruction window, 10 K-cycle
    /// intervals.
    pub fn standard(config: &MachineConfig) -> AvfCollector {
        AvfCollector::new(config, crate::ace::DEFAULT_ACE_WINDOW, 10_000)
    }

    fn finalize_into(accum: &mut Accum, interval_cycles: u64, f: Finalized<Timing>) {
        let t = f.payload;
        let (dispatch, issue, complete) = (cycle(t.dispatch), cycle(t.issue), cycle(t.complete));
        accum.committed += 1;
        if f.ace {
            accum.ace_committed += 1;
        }

        // --- IQ: [dispatch, complete) with the inst's IQ ACE weight ---
        let iq_bits = smt_sim::layout::iq_ace_bits(f.ace) as f64;
        if let Some(d) = dispatch {
            let leave = complete.unwrap_or(t.retire);
            let res = leave.saturating_sub(d);
            accum.iq_ace_bit_cycles += res as f64 * iq_bits;
            // Smear across sampling intervals.
            let mut c = d;
            while c < leave {
                let k = (c / interval_cycles) as usize;
                let bound = (c / interval_cycles + 1) * interval_cycles;
                let end = bound.min(leave);
                if accum.iq_interval_bits.len() <= k {
                    accum.iq_interval_bits.resize(k + 1, 0.0);
                }
                accum.iq_interval_bits[k] += (end - c) as f64 * iq_bits;
                c = end;
            }
        }

        // --- ROB: payload phase [dispatch, complete), tail phase
        //     [complete, retire) ---
        if let Some(d) = dispatch {
            let wb = complete.unwrap_or(t.retire);
            let pre = wb.saturating_sub(d) as f64;
            let post = t.retire.saturating_sub(wb) as f64;
            if f.ace {
                accum.rob_ace_bit_cycles +=
                    pre * layout::ROB_ACE_PRE_WB as f64 + post * layout::ROB_ACE_POST_WB as f64;
            } else {
                accum.rob_ace_bit_cycles += (pre + post) * layout::ROB_ACE_UNACE as f64;
            }
        }

        // --- FU: [issue, complete), except memory ops, which hold the
        //     load/store port only for address generation + cache access
        //     (the miss itself lives in MSHRs, not the unit) ---
        if let (Some(i), Some(c)) = (issue, complete) {
            let mut res = c.saturating_sub(i);
            if t.is_mem {
                res = res.min(2);
            }
            let bits = if f.ace {
                layout::FU_ACE_BITS
            } else {
                layout::FU_UNACE_BITS
            } as f64;
            accum.fu_ace_bit_cycles += res as f64 * bits;
        }

        // --- LSQ: memory ops, [dispatch, retire) ---
        if t.is_mem {
            if let Some(d) = dispatch {
                let res = t.retire.saturating_sub(d) as f64;
                let bits = if f.ace {
                    layout::LSQ_ACE_BITS
                } else {
                    layout::LSQ_UNACE_BITS
                } as f64;
                accum.lsq_ace_bit_cycles += res * bits;
            }
        }

        // --- RF: the produced value is ACE in its register from its
        //     producer's commit until its last read's commit. Commit
        //     timestamps are monotonic per thread, so successive values
        //     of one register never overlap (writeback-based endpoints
        //     would, double-counting the register's bits) ---
        if f.ace && f.dest.is_some() {
            if let Some(last_read) = f.last_read_cycle {
                let res = last_read.saturating_sub(t.retire) as f64;
                accum.rf_ace_bit_cycles += res * layout::RF_REG_BITS as f64;
            }
        }
    }

    /// Serialize the collector mid-run: the in-flight ACE analysis
    /// window plus every accumulator. `config` is *not* stored — restore
    /// targets a collector freshly constructed with the same
    /// configuration (the pipeline snapshot's config hash guards the
    /// pairing).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.interval_cycles);
        self.analyzer.save_state(w);
        w.put(&self.accum);
        w.put(&self.final_cycle);
        w.put(&self.start_cycle);
    }

    /// Restore onto a freshly constructed collector; the sampling
    /// interval and the analyzer's thread count / window are validated.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let interval = r.get_u64()?;
        if interval != self.interval_cycles {
            return Err(SnapError::Corrupt(format!(
                "collector interval {} cycles, snapshot uses {interval}",
                self.interval_cycles
            )));
        }
        self.analyzer.restore_state(r)?;
        self.accum = r.get()?;
        self.final_cycle = r.get()?;
        self.start_cycle = r.get()?;
        Ok(())
    }

    /// Produce the report (valid after `on_finish`).
    pub fn report(&self) -> AvfReport {
        let cycles = self.final_cycle.max(1);
        let nt = self.config.num_threads as f64;
        let iq_total = self.config.iq_size as f64 * smt_sim::layout::IQ_ENTRY_BITS as f64;
        let rob_total = nt * self.config.rob_size as f64 * layout::ROB_ENTRY_BITS as f64;
        let lsq_total = nt * self.config.lsq_size as f64 * layout::LSQ_ENTRY_BITS as f64;
        let rf_total = nt * micro_isa::reg::NUM_REGS as f64 * layout::RF_REG_BITS as f64;
        let fu_units: usize = self.config.fu_pool_sizes.iter().sum();
        let fu_total = fu_units as f64 * layout::FU_LATCH_BITS as f64;

        let mut series = IntervalSeries::new();
        let full_intervals = (self.final_cycle / self.interval_cycles) as usize;
        for k in 0..full_intervals {
            let bits = self.accum.iq_interval_bits.get(k).copied().unwrap_or(0.0);
            series.push(bits / (self.interval_cycles as f64 * iq_total));
        }

        AvfReport {
            cycles: self.final_cycle,
            iq_avf: self.accum.iq_ace_bit_cycles / (cycles as f64 * iq_total),
            rob_avf: self.accum.rob_ace_bit_cycles / (cycles as f64 * rob_total),
            rf_avf: self.accum.rf_ace_bit_cycles / (cycles as f64 * rf_total),
            fu_avf: self.accum.fu_ace_bit_cycles / (cycles as f64 * fu_total),
            lsq_avf: self.accum.lsq_ace_bit_cycles / (cycles as f64 * lsq_total),
            iq_interval_avf: series,
            ace_fraction: if self.accum.committed == 0 {
                0.0
            } else {
                self.accum.ace_committed as f64 / self.accum.committed as f64
            },
            committed: self.accum.committed,
        }
    }
}

impl SimObserver for AvfCollector {
    fn on_commit(&mut self, ev: &RetireEvent) {
        let tok = self.prof.enter(SPAN_OBSERVE);
        let rb = |c: u64| c.saturating_sub(self.start_cycle);
        let inst = &ev.inst;
        let retire = rb(ev.retire_cycle);
        let rec = AceInstRecord {
            tid: inst.tid,
            op: inst.op,
            dest: inst.dest,
            srcs: inst.srcs,
            commit_cycle: retire,
        };
        let timing = Timing {
            dispatch: ev.dispatch_cycle.map_or(NO_CYCLE, rb),
            issue: ev.issue_cycle.map_or(NO_CYCLE, rb),
            complete: ev.complete_cycle.map_or(NO_CYCLE, rb),
            retire,
            is_mem: inst.op.is_mem(),
        };
        let accum = &mut self.accum;
        let interval = self.interval_cycles;
        self.analyzer.push(rec, timing, &mut |f| {
            Self::finalize_into(accum, interval, f)
        });
        self.prof.exit(tok);
    }

    fn on_squash(&mut self, _ev: &RetireEvent) {
        // Squashed instructions expose no ACE bits: nothing to add to any
        // numerator; denominators are fixed structure sizes.
    }

    fn on_finish(&mut self, final_cycle: u64) {
        let tok = self.prof.enter(SPAN_FINALIZE);
        self.final_cycle = final_cycle.saturating_sub(self.start_cycle);
        let accum = &mut self.accum;
        let interval = self.interval_cycles;
        self.analyzer
            .drain(&mut |f| Self::finalize_into(accum, interval, f));
        self.prof.exit(tok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micro_isa::{DynInst, OpClass, Reg};
    use smt_sim::RetireKind;

    fn commit_ev(
        tid: u8,
        op: OpClass,
        dest: Option<Reg>,
        srcs: [Option<Reg>; 2],
        dispatch: u64,
        complete: u64,
        retire: u64,
    ) -> RetireEvent {
        RetireEvent {
            inst: DynInst {
                seq: 0,
                tid,
                dyn_idx: 0,
                pc: 0,
                op,
                dest,
                srcs,
                mem_addr: if op.is_mem() { Some(0) } else { None },
                ctrl: None,
                ace_hint: false,
                wrong_path: false,
            },
            kind: RetireKind::Commit,
            fetch_cycle: dispatch.saturating_sub(1),
            dispatch_cycle: Some(dispatch),
            issue_cycle: Some(complete.saturating_sub(1)),
            complete_cycle: Some(complete),
            retire_cycle: retire,
            l2_miss: false,
        }
    }

    fn small_config() -> MachineConfig {
        MachineConfig::table2()
    }

    #[test]
    fn single_ace_chain_produces_nonzero_iq_avf() {
        let cfg = small_config();
        let mut c = AvfCollector::new(&cfg, 100, 1_000);
        let r1 = Reg::int(1);
        c.on_commit(&commit_ev(
            0,
            OpClass::IAlu,
            Some(r1),
            [None, None],
            0,
            10,
            12,
        ));
        c.on_commit(&commit_ev(
            0,
            OpClass::Store,
            None,
            [Some(r1), None],
            2,
            11,
            13,
        ));
        c.on_finish(1_000);
        let rep = c.report();
        assert!(rep.iq_avf > 0.0);
        assert!(rep.iq_avf <= 1.0);
        assert_eq!(rep.committed, 2);
        assert!((rep.ace_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_code_contributes_less_than_ace_code() {
        let cfg = small_config();
        let mk = |ace_chain: bool| {
            let mut c = AvfCollector::new(&cfg, 100, 1_000);
            let r1 = Reg::int(1);
            c.on_commit(&commit_ev(
                0,
                OpClass::IAlu,
                Some(r1),
                [None, None],
                0,
                50,
                52,
            ));
            if ace_chain {
                c.on_commit(&commit_ev(
                    0,
                    OpClass::Store,
                    None,
                    [Some(r1), None],
                    1,
                    51,
                    53,
                ));
            }
            c.on_finish(1_000);
            c.report().iq_avf
        };
        assert!(mk(true) > mk(false));
    }

    #[test]
    fn interval_series_aligns_residency() {
        let cfg = small_config();
        let mut c = AvfCollector::new(&cfg, 10, 100);
        // One ACE instruction resident in the IQ across cycles 50..250:
        // overlaps intervals 0 (50 cycles), 1 (100), 2 (50).
        let r1 = Reg::int(1);
        c.on_commit(&commit_ev(
            0,
            OpClass::IAlu,
            Some(r1),
            [None, None],
            50,
            250,
            260,
        ));
        c.on_commit(&commit_ev(
            0,
            OpClass::Store,
            None,
            [Some(r1), None],
            51,
            255,
            261,
        ));
        c.on_finish(400);
        let rep = c.report();
        let s = rep.iq_interval_avf.samples();
        assert_eq!(s.len(), 4);
        assert!(s[1] > s[0] && s[1] > s[2], "{s:?}");
        assert!((s[0] - s[2]).abs() / s[1] < 0.6, "{s:?}");
        assert!(s[3] < s[2]);
    }

    #[test]
    fn squashes_add_nothing() {
        let cfg = small_config();
        let mut c = AvfCollector::new(&cfg, 100, 1_000);
        let mut ev = commit_ev(0, OpClass::IAlu, Some(Reg::int(1)), [None, None], 0, 10, 12);
        ev.kind = RetireKind::Squash;
        c.on_squash(&ev);
        c.on_finish(1_000);
        let rep = c.report();
        assert_eq!(rep.iq_avf, 0.0);
        assert_eq!(rep.committed, 0);
    }

    #[test]
    fn rf_counts_live_value_lifetime() {
        let cfg = small_config();
        let mut c = AvfCollector::new(&cfg, 100, 1_000);
        let r1 = Reg::int(1);
        // Producer completes at 10; the last read commits at 200.
        c.on_commit(&commit_ev(
            0,
            OpClass::IAlu,
            Some(r1),
            [None, None],
            0,
            10,
            12,
        ));
        c.on_commit(&commit_ev(
            0,
            OpClass::Store,
            None,
            [Some(r1), None],
            2,
            195,
            200,
        ));
        c.on_finish(1_000);
        let rep = c.report();
        assert!(rep.rf_avf > 0.0);
        // Producer commits at 12; last read commits at 200: 188 cycles ×
        // 64 bits over 1000 cycles × (4×64×64) bits.
        let expect = (188.0 * 64.0) / (1_000.0 * 4.0 * 64.0 * 64.0);
        assert!((rep.rf_avf - expect).abs() < 1e-9, "{}", rep.rf_avf);
    }

    #[test]
    fn absent_stamps_keep_their_meaning() {
        let cfg = small_config();
        let mut c = AvfCollector::new(&cfg, 100, 1_000);
        // A store that never completed holds its IQ entry until it
        // retires and never occupies a unit.
        let mut ev = commit_ev(0, OpClass::Store, None, [None, None], 10, 0, 40);
        ev.issue_cycle = None;
        ev.complete_cycle = None;
        c.on_commit(&ev);
        // A store that was never dispatched adds nothing but its count.
        ev.dispatch_cycle = None;
        ev.retire_cycle = 50;
        c.on_commit(&ev);
        c.on_finish(1_000);
        let rep = c.report();
        assert_eq!(rep.committed, 2);
        assert_eq!(rep.fu_avf, 0.0);
        let iq_total = cfg.iq_size as f64 * smt_sim::layout::IQ_ENTRY_BITS as f64;
        let iq_bits = smt_sim::layout::iq_ace_bits(true) as f64;
        assert_eq!(rep.iq_avf, 30.0 * iq_bits / (1_000.0 * iq_total));
        let lsq_total =
            cfg.num_threads as f64 * cfg.lsq_size as f64 * layout::LSQ_ENTRY_BITS as f64;
        let lsq_bits = layout::LSQ_ACE_BITS as f64;
        assert_eq!(rep.lsq_avf, 30.0 * lsq_bits / (1_000.0 * lsq_total));
    }

    #[test]
    fn profiling_counts_observer_callbacks() {
        let cfg = small_config();
        let mut c = AvfCollector::new(&cfg, 100, 1_000);
        c.set_profiling(true);
        for k in 0..8u64 {
            c.on_commit(&commit_ev(
                0,
                OpClass::IAlu,
                Some(Reg::int(1)),
                [None, None],
                k,
                k + 10,
                k + 12,
            ));
        }
        c.on_finish(1_000);
        let rep = c.profile_report();
        assert_eq!(rep.nodes[0].name, "observe");
        assert_eq!(rep.nodes[0].calls, 8);
        assert_eq!(rep.nodes[1].calls, 1);
    }

    #[test]
    fn report_before_any_event_is_zeroes() {
        let cfg = small_config();
        let mut c = AvfCollector::standard(&cfg);
        c.on_finish(0);
        let rep = c.report();
        assert_eq!(rep.iq_avf, 0.0);
        assert_eq!(rep.max_interval_iq_avf(), 0.0);
    }
}
