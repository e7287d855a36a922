//! The cycle loop: an 8-wide out-of-order SMT pipeline.
//!
//! Stages run back-to-front each cycle (commit → writeback → issue →
//! dispatch → fetch), so a resource freed in cycle *n* is reusable in
//! cycle *n+1*, never earlier — the conservative choice for structural
//! hazards.
//!
//! ## Speculation model
//!
//! The functional front end ([`ThreadEngine`]) always knows the correct
//! path, so a misprediction is *detected at fetch* (predicted next PC ≠
//! recorded outcome) and modelled by switching the thread to wrong-path
//! fetch: real instructions from the predicted target, marked
//! `wrong_path`, which consume fetch/IQ/ROB/FU resources until the
//! mispredicted branch resolves at execute and recovery squashes them.
//! This reproduces the timing and occupancy effects of speculation — the
//! things AVF cares about — without a rename-checkpoint machine.
//!
//! ## FLUSH rollback
//!
//! When the active policy requests it, an L2-missing load rolls its
//! thread back: every instruction younger than the load is squashed,
//! correct-path victims are re-queued in the engine's replay buffer, and
//! the thread stays fetch-blocked until the miss returns (Tullsen &
//! Brown's FLUSH).
//!
//! ## Known simplifications (documented, deliberate)
//!
//! * No load/store disambiguation or store-to-load forwarding: memory ops
//!   issue when their register sources are ready. The paper's mechanisms
//!   respond to IQ residency and L2-miss clog, both of which survive this
//!   simplification.
//! * Stores access the data cache at execute rather than commit.
//! * No physical register file: wakeup uses a per-thread architectural
//!   scoreboard (see `scoreboard.rs`).

use crate::cancel::CancelToken;
use crate::config::{MachineConfig, SimLimits};
use crate::dispatch::{DispatchGovernor, GovernorView, ThreadView, UnlimitedDispatch};
use crate::events::{RetireEvent, RetireKind, SimObserver};
use crate::fetch::{FetchPolicy, FetchView, Icount};
use crate::fu::FuPools;
use crate::iq::IssueQueue;
use crate::issue::{IssuePolicy, OldestFirst, ReadyInst};
use crate::scoreboard::Scoreboard;
use crate::stats::{IntervalSnapshot, SimStats};
use crate::types::{InstId, InstInfo, InstSlab, InstStage};
use branch_pred::BranchPredictor;
use mem_hier::MemoryHierarchy;
use micro_isa::{BranchKind, DynInst, OpClass, Pc, ThreadId};
use sim_metrics::Metrics;
use sim_profile::{ProfileReport, SpanSet};
use sim_trace::{FlushReason, TraceEvent, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workload_gen::{Program, ThreadEngine};

mod idle;
pub mod inject;
pub mod snapshot;
mod wakeup;

use idle::CycleTally;
pub use snapshot::HookAction;
use wakeup::WakeupState;

/// The paper's sampling interval (Sections 2.2 and 5.1).
pub const DEFAULT_INTERVAL_CYCLES: u64 = 10_000;

/// Static wall-time span table for the hot loop ([`sim_profile`]
/// indexing: parents strictly precede children). The ids are public so
/// external drivers — the checkpoint harness times its
/// interval-boundary snapshot/selfcheck work against the same set via
/// [`Pipeline::prof_mut`] — stay in one coherent tree.
pub mod spans {
    use sim_profile::{SpanDef, SpanId};

    pub const TICK: SpanId = 0;
    pub const COMMIT: SpanId = 1;
    pub const WRITEBACK: SpanId = 2;
    pub const ISSUE: SpanId = 3;
    /// Gathering the ready list: copying the selectable set and
    /// recording the ready-queue statistics. Clearing operand waits runs
    /// in writeback, over the completing producer's dependent list.
    pub const WAKEUP: SpanId = 4;
    pub const SELECT: SpanId = 5;
    pub const DISPATCH: SpanId = 6;
    pub const GOVERNOR: SpanId = 7;
    pub const FETCH: SpanId = 8;
    pub const END_OF_CYCLE: SpanId = 9;
    /// Interval-boundary checkpoint encode+store (outside `tick`: it
    /// runs between cycles, from the harness hook).
    pub const SNAPSHOT: SpanId = 10;
    /// Interval-boundary `--selfcheck` invariant sweep (outside `tick`).
    pub const SELFCHECK: SpanId = 11;
    /// Fast-forwarding idle cycles (outside `tick`): its calls are the
    /// cycles skipped, its time the horizon searches and the closed-form
    /// accounting. `tick` calls plus `fast_forward` calls are the cycles
    /// simulated.
    pub const FAST_FORWARD: SpanId = 12;

    pub const TABLE: &[SpanDef] = &[
        SpanDef {
            name: "tick",
            parent: None,
        },
        SpanDef {
            name: "commit",
            parent: Some(TICK),
        },
        SpanDef {
            name: "writeback",
            parent: Some(TICK),
        },
        SpanDef {
            name: "issue",
            parent: Some(TICK),
        },
        SpanDef {
            name: "wakeup",
            parent: Some(ISSUE),
        },
        SpanDef {
            name: "select",
            parent: Some(ISSUE),
        },
        SpanDef {
            name: "dispatch",
            parent: Some(TICK),
        },
        SpanDef {
            name: "governor",
            parent: Some(DISPATCH),
        },
        SpanDef {
            name: "fetch",
            parent: Some(TICK),
        },
        SpanDef {
            name: "end_of_cycle",
            parent: Some(TICK),
        },
        SpanDef {
            name: "snapshot",
            parent: None,
        },
        SpanDef {
            name: "selfcheck",
            parent: None,
        },
        SpanDef {
            name: "fast_forward",
            parent: None,
        },
    ];
}

/// The three policy seams, bundled.
pub struct PipelinePolicies {
    pub fetch: Box<dyn FetchPolicy>,
    pub issue: Box<dyn IssuePolicy>,
    pub governor: Box<dyn DispatchGovernor>,
}

impl Default for PipelinePolicies {
    fn default() -> Self {
        PipelinePolicies {
            fetch: Box::new(Icount),
            issue: Box::new(OldestFirst),
            governor: Box::new(UnlimitedDispatch),
        }
    }
}

struct ThreadState {
    engine: ThreadEngine,
    fetch_queue: VecDeque<InstId>,
    /// Hint-tagged instructions in the fetch queue (DVM restore rule).
    fq_ace_count: usize,
    /// Active wrong-path fetch: the next wrong PC to fetch from.
    wrong_path_pc: Option<Pc>,
    /// The unresolved mispredicted branch that put us on the wrong path.
    pending_mispredict: Option<InstId>,
    rob: VecDeque<InstId>,
    /// ACE-hinted instructions currently in this thread's ROB.
    rob_ace_count: usize,
    lsq_used: usize,
    scoreboard: Scoreboard,
    in_flight: usize,
    l2_pending: u32,
    l1d_pending: u32,
    flush_blocked: bool,
    flush_wait_on: Option<InstId>,
    /// Earliest cycle this thread may be flushed again (cooldown after a
    /// rollback, so repeated misses degrade to STALL-style gating instead
    /// of rollback thrash).
    flush_ok_after: u64,
    ifetch_stall_until: u64,
}

/// Result of a completed simulation.
pub struct SimResult {
    pub stats: SimStats,
    /// The run hit the cycle ceiling or a commit-starvation watchdog.
    pub deadlocked: bool,
    /// The run stopped early because its [`CancelToken`] was set (a
    /// wall-clock deadline or shutdown request, not a machine symptom).
    pub cancelled: bool,
}

/// The simulated SMT processor.
pub struct Pipeline {
    config: MachineConfig,
    policies: PipelinePolicies,
    slab: InstSlab,
    threads: Vec<ThreadState>,
    iq: IssueQueue,
    fu: FuPools,
    bpred: BranchPredictor,
    mem: MemoryHierarchy,
    /// Completion events: (cycle, id, seq) — seq guards against slab
    /// slot recycling.
    events: BinaryHeap<Reverse<(u64, InstId, u64)>>,
    next_seq: u64,
    now: u64,
    commit_rr: usize,
    dispatch_rr: usize,
    stats: SimStats,
    interval_cycles: u64,
    // Running accumulators for the open interval.
    iv_start: u64,
    iv_committed: u64,
    iv_l2_misses: u64,
    iv_ready_sum: u64,
    iv_ready_ace_sum: u64,
    iv_iq_sum: u64,
    iv_hint_bits: u64,
    /// Memory-hierarchy counter reading at the open interval's start,
    /// so rollover can sample windowed miss rates from the monotonic
    /// totals.
    iv_mem_base: mem_hier::HierarchyStats,
    last_interval: IntervalSnapshot,
    last_commit_cycle: u64,
    /// Per-context commit watermarks: an SMT machine keeps retiring
    /// around a single starved thread, so the forward-progress watchdog
    /// must watch each context, not the machine-wide commit stream.
    thread_last_commit: Vec<u64>,
    /// Cycle at which measurement started (post-warmup).
    measure_start: u64,
    /// Ready/waiting split of the IQ as sampled by the most recent issue
    /// stage (consumed by dispatch governors the same cycle).
    cur_ready_len: usize,
    cur_waiting_len: usize,
    /// Structured event tracer; `Tracer::off()` (the default) makes
    /// every emission site a single branch on a `None`.
    tracer: Tracer,
    /// Quantitative metrics registry handle; `Metrics::off()` (the
    /// default) reduces every recording site to one branch.
    metrics: Metrics,
    /// Opt-in wall-time self-profiling over the static [`spans`] table.
    /// Host-side only: never serialized, never consulted by the
    /// simulation.
    prof: SpanSet,
    /// Wall-clock epoch of the open sampling interval, for the
    /// `throughput.cycles_per_sec` gauge. Host-side only.
    iv_wall: Instant,
    /// Shared cycle counter bumped once per closed interval — the
    /// harness heartbeat aggregates live throughput from these without
    /// touching the per-cycle path. Host-side only.
    progress: Option<Arc<AtomicU64>>,
    /// Cooperative cancellation flag, polled on the sampling-interval
    /// clock by `run` and `warm_up`. Defaults to a never-set token.
    cancel: CancelToken,
    /// Zero-based index of the next sampling interval to close (reset by
    /// `warm_up` so it matches `stats.intervals` indexing).
    interval_index: u64,
    /// Dependent lists, selectable set and executing counters, kept at
    /// every transition so wakeup and select never scan the IQ. Derived
    /// state: rebuilt on restore, never serialized.
    wakeup: WakeupState,
    /// What the current cycle adds to the per-cycle counters (see
    /// `idle`). Rewritten by every simulated cycle, never serialized.
    tally: CycleTally,
    /// Bumped wherever a cycle does more than count: an unchanged value
    /// across a `step` marks the cycle idle. Never serialized.
    activity: u64,
    /// Cycles this pipeline object has fast-forwarded since it was
    /// built. Host-side only: never serialized, never reset.
    fast_forwarded: u64,
    // Buffers reused every cycle so the tick does not allocate. Their
    // contents never outlive the stage that fills them.
    ready_buf: Vec<ReadyInst>,
    views_buf: Vec<ThreadView>,
    squash_buf: Vec<InstId>,
}

impl Pipeline {
    /// Build a pipeline running `programs` (one per hardware context).
    pub fn new(
        config: MachineConfig,
        programs: Vec<Arc<Program>>,
        policies: PipelinePolicies,
    ) -> Pipeline {
        config.validate().expect("invalid machine config");
        assert_eq!(
            programs.len(),
            config.num_threads,
            "one program per hardware context"
        );
        let threads = programs
            .into_iter()
            .enumerate()
            .map(|(tid, p)| ThreadState {
                engine: ThreadEngine::new(p, tid as ThreadId),
                fetch_queue: VecDeque::with_capacity(config.fetch_queue_size),
                fq_ace_count: 0,
                wrong_path_pc: None,
                pending_mispredict: None,
                rob: VecDeque::with_capacity(config.rob_size),
                rob_ace_count: 0,
                lsq_used: 0,
                scoreboard: Scoreboard::new(),
                in_flight: 0,
                l2_pending: 0,
                l1d_pending: 0,
                flush_blocked: false,
                flush_wait_on: None,
                flush_ok_after: 0,
                ifetch_stall_until: 0,
            })
            .collect();
        Pipeline {
            iq: IssueQueue::new(config.iq_size),
            fu: FuPools::new(config.fu_pool_sizes),
            bpred: BranchPredictor::table2(config.num_threads),
            mem: MemoryHierarchy::new(config.memory),
            slab: InstSlab::new(),
            threads,
            events: BinaryHeap::new(),
            next_seq: 1,
            now: 0,
            commit_rr: 0,
            dispatch_rr: 0,
            stats: SimStats::new(config.num_threads),
            interval_cycles: DEFAULT_INTERVAL_CYCLES,
            iv_start: 0,
            iv_committed: 0,
            iv_l2_misses: 0,
            iv_ready_sum: 0,
            iv_ready_ace_sum: 0,
            iv_iq_sum: 0,
            iv_hint_bits: 0,
            iv_mem_base: mem_hier::HierarchyStats::default(),
            last_interval: IntervalSnapshot::default(),
            last_commit_cycle: 0,
            thread_last_commit: vec![0; config.num_threads],
            measure_start: 0,
            cur_ready_len: 0,
            cur_waiting_len: 0,
            tracer: Tracer::off(),
            metrics: Metrics::off(),
            prof: SpanSet::new(spans::TABLE),
            iv_wall: Instant::now(),
            progress: None,
            cancel: CancelToken::default(),
            interval_index: 0,
            wakeup: WakeupState::default(),
            tally: CycleTally::default(),
            activity: 0,
            fast_forwarded: 0,
            ready_buf: Vec::with_capacity(config.iq_size),
            views_buf: Vec::with_capacity(config.num_threads),
            squash_buf: Vec::new(),
            config,
            policies,
        }
    }

    /// Override the sampling-interval length (default 10K cycles) —
    /// exposed for the paper's interval-size ablation.
    pub fn set_interval_cycles(&mut self, cycles: u64) {
        assert!(cycles > 0);
        self.interval_cycles = cycles;
    }

    /// Attach a structured-event tracer. The same tracer handle is
    /// forwarded to the dispatch governor so its control decisions land
    /// in the audit log alongside the pipeline events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.policies.governor.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attach a metrics registry handle. The same handle is forwarded to
    /// the dispatch governor so its control state (caps, modes, ratios)
    /// is recorded alongside the pipeline's IQ/AVF/memory series — all
    /// on the sampling-interval clock the governor decisions key on.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.policies.governor.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Enable/disable wall-time self-profiling of the hot loop (off by
    /// default: one branch per span site). When on, `Instant`-batching
    /// keeps the cost well under the 5% budget. Forwarded to the memory
    /// hierarchy, branch predictor and dispatch governor so their
    /// component profiles record over the same window.
    pub fn set_stage_profiling(&mut self, enabled: bool) {
        self.prof.set_enabled(enabled);
        self.mem.set_profiling(enabled);
        self.bpred.set_profiling(enabled);
        self.policies.governor.set_profiling(enabled);
    }

    /// Freeze the merged wall-time profile: the pipeline's own span
    /// tree plus the component profiles (memory hierarchy, branch
    /// predictor, governor) grafted under per-component anchor roots.
    /// The anchors deliberately sit *outside* the `tick` subtree — the
    /// stages that call into the components are already timed by the
    /// tick spans, so nesting the component trees there would
    /// double-count their time.
    pub fn profile_report(&self) -> ProfileReport {
        let mut report = self.prof.report();
        report.merge(&self.mem.profile_report(), "mem_hier");
        report.merge(&self.bpred.profile_report(), "branch_pred");
        if let Some(g) = self.policies.governor.profile_report() {
            report.merge(&g, self.policies.governor.name());
        }
        report
    }

    /// Mutable handle to the pipeline's own span set, for external
    /// drivers that time work against the [`spans`] table (the
    /// checkpoint harness charges its interval-boundary snapshot and
    /// selfcheck hooks here).
    pub fn prof_mut(&mut self) -> &mut SpanSet {
        &mut self.prof
    }

    /// Attach a shared counter bumped by the cycles of each closed
    /// sampling interval. The harness heartbeat sums these counters
    /// across live jobs for its aggregate-throughput line; granularity
    /// is the interval clock, so the per-cycle path never sees it.
    pub fn set_progress_counter(&mut self, counter: Arc<AtomicU64>) {
        self.progress = Some(counter);
    }

    /// Attach a cooperative cancellation token. `run` and `warm_up`
    /// poll it once per sampling interval (10K cycles by default) and
    /// return early when it is set — the deadline mechanism of the
    /// campaign harness stops a runaway simulation without killing the
    /// worker thread that owns it.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Cycles that `run` and `warm_up` have fast-forwarded instead of
    /// stepping, over this pipeline object's life (host-side; see
    /// DESIGN §4).
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// Run until `limits` are reached, reporting retirements to
    /// `observer`. Cooperative cancellation is polled on the interval
    /// clock so the atomic load costs nothing on the per-cycle path
    /// (see [`Pipeline::run_hooked`] for the checkpointing variant —
    /// this is the same loop with a no-op hook, so checkpointed and
    /// plain runs are cycle-identical by construction).
    pub fn run(&mut self, limits: SimLimits, observer: &mut dyn SimObserver) -> SimResult {
        self.run_hooked(limits, observer, &mut |_| HookAction::Continue)
    }

    /// Warm caches, predictors and queues by running `insts` committed
    /// instructions unobserved, then reset all measurement state. Plays
    /// the role of the paper's SimPoint fast-forward: detailed statistics
    /// start from a warmed machine. Returns the cycle measurement starts
    /// at — pass it to `AvfCollector`-style observers so their interval
    /// indexing aligns. Idle cycles are fast-forwarded, bit-identically
    /// to stepping them (DESIGN §4).
    pub fn warm_up(&mut self, insts: u64) -> u64 {
        let mut sink = crate::events::NullObserver;
        let target = self.stats.total_committed() + insts;
        let watchdog = crate::config::DEFAULT_WATCHDOG_CYCLES;
        while self.stats.total_committed() < target
            && self.now.saturating_sub(self.last_commit_cycle) <= watchdog
        {
            // Warmup is often the longest phase of a run, so deadlines
            // must be able to stop it too (same interval-clock poll as
            // `run`).
            if self.now.is_multiple_of(self.interval_cycles) && self.cancel.is_cancelled() {
                break;
            }
            let activity = self.activity;
            self.step(&mut sink);
            if self.activity == activity {
                // Stop at the next cancel poll or watchdog check.
                let poll = idle::next_multiple(self.now, self.interval_cycles);
                let starved = self.last_commit_cycle.saturating_add(watchdog + 1);
                self.fast_forward(poll.min(starved));
            }
        }
        let n = self.threads.len();
        self.stats = SimStats::new(n);
        self.measure_start = self.now;
        self.iv_start = self.now;
        self.iv_committed = 0;
        self.iv_l2_misses = 0;
        self.iv_ready_sum = 0;
        self.iv_ready_ace_sum = 0;
        self.iv_iq_sum = 0;
        self.iv_hint_bits = 0;
        self.iv_mem_base = self.mem.stats();
        self.interval_index = 0;
        // Interval indices restart here; drop warmup-phase metric
        // accumulation so exported series cover the measured window only
        // (gauges persist — they are the governors' live state).
        self.metrics.reset_accumulated();
        // Profiles likewise cover the measured window only. The
        // governor seam has no reset: re-sending the profiling switch
        // starts the governor's profile afresh.
        self.prof.reset();
        self.mem.reset_profile();
        self.bpred.reset_profile();
        self.policies.governor.set_profiling(self.prof.is_enabled());
        self.iv_wall = Instant::now();
        self.last_commit_cycle = self.now;
        self.thread_last_commit.fill(self.now);
        self.now
    }

    /// Advance exactly one cycle. Unlike `run` and `warm_up`, `step`
    /// never fast-forwards: it is the per-cycle reference the fast path
    /// is tested against, and what loops that inspect or inject into
    /// every cycle call.
    pub fn step(&mut self, observer: &mut dyn SimObserver) {
        if self.prof.is_enabled() {
            self.step_profiled(observer);
        } else {
            self.commit_stage(observer);
            self.writeback_stage(observer);
            self.issue_stage(observer);
            self.dispatch_stage();
            self.fetch_stage();
            self.end_of_cycle();
        }
        self.now += 1;
    }

    /// `step` with wall-time spans around every stage, all nested in
    /// one `tick` root. Split out so the common path pays one branch,
    /// not seven token pairs.
    fn step_profiled(&mut self, observer: &mut dyn SimObserver) {
        let tick = self.prof.enter(spans::TICK);
        let t = self.prof.enter(spans::COMMIT);
        self.commit_stage(observer);
        self.prof.exit(t);
        let t = self.prof.enter(spans::WRITEBACK);
        self.writeback_stage(observer);
        self.prof.exit(t);
        let t = self.prof.enter(spans::ISSUE);
        self.issue_stage(observer);
        self.prof.exit(t);
        let t = self.prof.enter(spans::DISPATCH);
        self.dispatch_stage();
        self.prof.exit(t);
        let t = self.prof.enter(spans::FETCH);
        self.fetch_stage();
        self.prof.exit(t);
        let t = self.prof.enter(spans::END_OF_CYCLE);
        self.end_of_cycle();
        self.prof.exit(t);
        self.prof.exit(tick);
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self, observer: &mut dyn SimObserver) {
        let mut budget = self.config.width;
        let n = self.threads.len();
        for i in 0..n {
            let tid = (self.commit_rr + i) % n;
            let mut retired = 0usize;
            while budget > 0 {
                let Some(&head) = self.threads[tid].rob.front() else {
                    break;
                };
                if self.slab.get(head).stage != InstStage::Completed {
                    break;
                }
                self.threads[tid].rob.pop_front();
                let info = self.slab.remove(head);
                debug_assert!(!info.inst.wrong_path, "wrong-path inst at commit");
                let t = &mut self.threads[tid];
                t.in_flight -= 1;
                if info.inst.ace_hint {
                    t.rob_ace_count -= 1;
                }
                if info.inst.op.is_mem() {
                    t.lsq_used -= 1;
                }
                self.stats.committed_per_thread[tid] += 1;
                self.iv_committed += 1;
                self.last_commit_cycle = self.now;
                self.thread_last_commit[tid] = self.now;
                observer.on_commit(&Self::retire_event(&info, RetireKind::Commit, self.now));
                budget -= 1;
                retired += 1;
            }
            if retired > 0 {
                self.activity += retired as u64;
                self.tracer.emit(|| TraceEvent::Commit {
                    cycle: self.now,
                    tid,
                    count: retired,
                });
            }
        }
        self.commit_rr = (self.commit_rr + 1) % n;
    }

    // ------------------------------------------------------------------
    // writeback / branch resolution
    // ------------------------------------------------------------------

    fn writeback_stage(&mut self, observer: &mut dyn SimObserver) {
        let mut completed = 0usize;
        loop {
            match self.events.peek() {
                Some(&Reverse((t, _, _))) if t <= self.now => {}
                _ => break,
            }
            let Reverse((_, id, seq)) = self.events.pop().unwrap();
            self.activity += 1;
            // Stale event (instruction squashed; slot possibly recycled).
            if !self.slab.contains(id) || self.slab.get(id).inst.seq != seq {
                continue;
            }
            self.complete_inst(id, observer);
            completed += 1;
        }
        if completed > 0 {
            self.tracer.emit(|| TraceEvent::Writeback {
                cycle: self.now,
                count: completed,
            });
        }
    }

    fn complete_inst(&mut self, id: InstId, observer: &mut dyn SimObserver) {
        let (tid, op, dest, l1_miss, l2_miss, wrong_path, mispredicted, inst_seq);
        {
            let info = self.slab.get_mut(id);
            debug_assert_eq!(info.stage, InstStage::Issued);
            info.stage = InstStage::Completed;
            info.complete_cycle = Some(self.now);
            tid = info.inst.tid as usize;
            op = info.inst.op;
            dest = info.inst.dest;
            l1_miss = info.l1_miss;
            l2_miss = info.l2_miss;
            wrong_path = info.inst.wrong_path;
            mispredicted = info.mispredicted;
            inst_seq = info.inst.seq;
        }
        // Free the IQ entry (writeback-freed, M-Sim/RUU style).
        if self.iq.contains(id) {
            let info = self.slab.get(id);
            self.iq.remove(id, info.inst.ace_hint, info.inst.tid);
            self.wakeup
                .on_leave(id, InstStage::Issued, info.inst.ace_hint);
            self.tracer.emit(|| TraceEvent::IqFree {
                cycle: self.now,
                tid,
                seq: inst_seq,
                occupancy: self.iq.len(),
            });
        }
        // Scoreboard release + wakeup of this producer's dependents.
        if let Some(d) = dest {
            self.threads[tid].scoreboard.clear_if_producer(d, id);
        }
        self.wakeup.wake_dependents(id, &mut self.slab);
        // Load bookkeeping.
        if op == OpClass::Load {
            let t = &mut self.threads[tid];
            if l2_miss {
                t.l2_pending -= 1;
                if t.flush_wait_on == Some(id) {
                    t.flush_blocked = false;
                    t.flush_wait_on = None;
                }
            }
            if l1_miss {
                t.l1d_pending -= 1;
            }
            self.policies.fetch.on_load_gone(tid as ThreadId, inst_seq);
        }
        // Branch resolution (correct-path only; wrong-path control never
        // trains or recovers).
        if op.is_control() && !wrong_path {
            let info = self.slab.get(id);
            let ctrl = info.inst.ctrl.expect("control inst without outcome");
            let pc = info.inst.pc;
            let kind = branch_kind(op);
            let fetch_history = info.bp_history;
            let taken = ctrl.taken;
            let target = ctrl.next_pc;
            self.bpred.resolve(
                tid as ThreadId,
                pc,
                kind,
                taken,
                target,
                Some(fetch_history),
            );
            if mispredicted {
                self.recover_mispredict(tid, id, observer);
            }
        }
    }

    /// Squash the wrong-path instructions fetched after a mispredicted
    /// branch, restore predictor state, and resume correct-path fetch.
    fn recover_mispredict(
        &mut self,
        tid: usize,
        branch_id: InstId,
        observer: &mut dyn SimObserver,
    ) {
        debug_assert_eq!(self.threads[tid].pending_mispredict, Some(branch_id));
        // Everything wrong-path in this thread is younger than the branch.
        let squashed = self.collect_squash(tid, |info| info.inst.wrong_path);
        self.tracer.emit(|| TraceEvent::Flush {
            cycle: self.now,
            tid,
            squashed: squashed.len(),
            reason: FlushReason::Misprediction,
        });
        self.apply_squash(tid, &squashed, observer);
        self.squash_buf = squashed;

        // Restore predictor state to the branch's checkpoint, then apply
        // its resolved effect.
        let info = self.slab.get(branch_id);
        let history = info.bp_history;
        let kind = branch_kind(info.inst.op);
        let taken = info.inst.ctrl.unwrap().taken;
        let fallthrough = info.inst.pc + 1;
        self.bpred.recover(
            tid as ThreadId,
            history,
            info.bp_ras.as_deref().unwrap_or(&[]),
        );
        self.bpred
            .apply_resolved(tid as ThreadId, kind, taken, fallthrough);

        let t = &mut self.threads[tid];
        t.wrong_path_pc = None;
        t.pending_mispredict = None;
    }

    // ------------------------------------------------------------------
    // squash machinery (shared by recovery and FLUSH)
    // ------------------------------------------------------------------

    /// Remove from the fetch queue and ROB every instruction of `tid`
    /// matching `victim`; returns the removed ids, fetch-queue victims
    /// first, each queue in its own order (that order fixes the IQ slot
    /// compaction and the squash-event order). The returned vector is
    /// the reused squash buffer: hand it back to `squash_buf` when done.
    fn collect_squash(&mut self, tid: usize, victim: impl Fn(&InstInfo) -> bool) -> Vec<InstId> {
        let mut out = std::mem::take(&mut self.squash_buf);
        out.clear();
        let slab = &self.slab;
        let t = &mut self.threads[tid];
        let mut keep = |id: &InstId| {
            let squash = victim(slab.get(*id));
            if squash {
                out.push(*id);
            }
            !squash
        };
        t.fetch_queue.retain(&mut keep);
        t.rob.retain(&mut keep);
        out
    }

    /// Release all resources of squashed instructions, emit squash
    /// events, and rebuild the thread scoreboard.
    fn apply_squash(&mut self, tid: usize, squashed: &[InstId], observer: &mut dyn SimObserver) {
        for &id in squashed {
            // IQ entry.
            if self.iq.contains(id) {
                let info = self.slab.get(id);
                self.iq.remove(id, info.inst.ace_hint, info.inst.tid);
                self.wakeup.on_leave(id, info.stage, info.inst.ace_hint);
                self.tracer.emit(|| TraceEvent::IqFree {
                    cycle: self.now,
                    tid,
                    seq: self.slab.get(id).inst.seq,
                    occupancy: self.iq.len(),
                });
            }
            self.wakeup.forget_producer(id);
            let info = self.slab.remove(id);
            let t = &mut self.threads[tid];
            t.in_flight -= 1;
            match info.stage {
                InstStage::Fetched => {
                    if info.inst.ace_hint {
                        t.fq_ace_count -= 1;
                    }
                }
                InstStage::Dispatched | InstStage::Issued | InstStage::Completed => {
                    if info.inst.op.is_mem() {
                        t.lsq_used -= 1;
                    }
                    if info.inst.ace_hint {
                        t.rob_ace_count -= 1;
                    }
                }
            }
            // In-flight load counters (only loads still executing hold
            // them; completed loads already released).
            if info.inst.op == OpClass::Load && info.stage == InstStage::Issued {
                if info.l2_miss {
                    t.l2_pending -= 1;
                }
                if info.l1_miss {
                    t.l1d_pending -= 1;
                }
            }
            if info.inst.op == OpClass::Load {
                // Release fetch-policy tracking (PDG) for every squashed
                // load, including ones still in the fetch queue — they
                // were registered at fetch.
                self.policies
                    .fetch
                    .on_load_gone(tid as ThreadId, info.inst.seq);
            }
            self.stats.squashed += 1;
            observer.on_squash(&Self::retire_event(&info, RetireKind::Squash, self.now));
        }
        // Rebuild the scoreboard from the surviving ROB contents
        // (oldest → youngest keeps the youngest producer per register).
        let t = &mut self.threads[tid];
        let mut sb = Scoreboard::new();
        for &id in &t.rob {
            let info = self.slab.get(id);
            if info.stage != InstStage::Completed {
                if let Some(d) = info.inst.dest {
                    sb.set_producer(d, id);
                }
            }
        }
        t.scoreboard = sb;
    }

    /// FLUSH rollback: squash everything in `tid` younger than `load_id`,
    /// replay the correct-path victims, and fetch-block the thread until
    /// the miss returns.
    fn flush_thread(&mut self, tid: usize, load_id: InstId, observer: &mut dyn SimObserver) {
        let load_seq = self.slab.get(load_id).inst.seq;
        let squashed = self.collect_squash(tid, |info| info.inst.seq > load_seq);

        // Restore predictor state to the oldest squashed correct-path
        // branch's checkpoint (squashing un-does its speculative push).
        let mut oldest_branch: Option<(u64, u32, Vec<Pc>)> = None;
        for &id in &squashed {
            let info = self.slab.get(id);
            if info.inst.op.is_control() && !info.inst.wrong_path {
                let key = info.inst.seq;
                if oldest_branch
                    .as_ref()
                    .map(|(s, _, _)| key < *s)
                    .unwrap_or(true)
                {
                    oldest_branch = Some((
                        key,
                        info.bp_history,
                        info.bp_ras.clone().unwrap_or_default(),
                    ));
                }
            }
        }
        // Collect correct-path victims for replay (ascending dyn_idx).
        let mut replay: Vec<DynInst> = squashed
            .iter()
            .map(|&id| self.slab.get(id).inst.clone())
            .filter(|i| !i.wrong_path)
            .collect();
        replay.sort_unstable_by_key(|i| i.dyn_idx);

        // If the pending mispredicted branch is among the victims, the
        // wrong path dies with it.
        if let Some(b) = self.threads[tid].pending_mispredict {
            if squashed.contains(&b) {
                self.threads[tid].pending_mispredict = None;
                self.threads[tid].wrong_path_pc = None;
            }
        }

        self.apply_squash(tid, &squashed, observer);
        if let Some((_, history, ras)) = oldest_branch {
            self.bpred.recover(tid as ThreadId, history, &ras);
        }
        // Attribute the rollback: a governor override (opt2 escalation)
        // is the paper's reliability response; otherwise it is the
        // configured FLUSH fetch policy doing its normal de-clogging.
        self.tracer.emit(|| TraceEvent::Flush {
            cycle: self.now,
            tid,
            squashed: squashed.len(),
            reason: if self.policies.governor.flush_override() {
                FlushReason::L2Miss
            } else {
                FlushReason::FetchPolicy
            },
        });
        self.squash_buf = squashed;
        self.threads[tid].engine.push_replay(replay);
        let t = &mut self.threads[tid];
        t.flush_blocked = true;
        t.flush_wait_on = Some(load_id);
        t.flush_ok_after = self.now + self.config.flush_cooldown;
        self.stats.flushes += 1;
    }

    // ------------------------------------------------------------------
    // issue
    // ------------------------------------------------------------------

    fn issue_stage(&mut self, observer: &mut dyn SimObserver) {
        // Gather the ready queue. Following the M-Sim/RUU model, an IQ
        // entry stays allocated until *writeback*, so the ready queue the
        // paper measures contains both selectable entries (operands ready,
        // not yet issued) and entries already executing. Only the former
        // are candidates for selection. Both are kept incrementally (see
        // `wakeup`), so this copies the selectable entries and nothing
        // else; their order is arbitrary, and every issue policy sorts by
        // a total-order key.
        let wakeup = self.prof.enter(spans::WAKEUP);
        let mut ready = std::mem::take(&mut self.ready_buf);
        ready.clear();
        ready.extend_from_slice(self.wakeup.selectable());
        let (executing, executing_ace) = self.wakeup.executing();
        let selectable_ace = ready.iter().filter(|r| r.ace_hint).count();
        let rql = ready.len() + executing;
        let ace_ready = selectable_ace + executing_ace;
        self.tally.selectable = ready.len() as u64;
        self.tally.selectable_ace = selectable_ace as u64;
        self.tally.executing = executing as u64;
        self.tally.executing_ace = executing_ace as u64;
        self.tally.ready_wrong_path = ready.iter().filter(|r| r.wrong_path).count() as u64;
        // Publish the ready/waiting split for this cycle's dispatch
        // governors. "Ready" uses the paper's ready-queue definition
        // (operands available — waiting-to-issue or executing, the same
        // population the Figure 2 histogram counts); "waiting" is the
        // rest of the IQ, still blocked on operands. DVM's wq_ratio is a
        // ratio of these two.
        self.cur_ready_len = rql;
        self.cur_waiting_len = self.iq.len() - rql;
        self.tally.ready_len = rql;
        self.tally.ready_ace = ace_ready;
        self.prof.exit(wakeup);

        let select = self.prof.enter(spans::SELECT);
        self.policies.issue.prioritize(&mut ready);
        self.prof.exit(select);

        let mut issued = 0usize;
        let flush_active =
            self.policies.fetch.flush_on_l2_miss() || self.policies.governor.flush_override();
        for &r in &ready {
            if issued >= self.config.width {
                break;
            }
            // The entry may have been squashed by a flush earlier in this
            // same loop.
            if !self.slab.contains(r.id) || self.slab.get(r.id).inst.seq != r.seq {
                continue;
            }
            if self.slab.get(r.id).stage != InstStage::Dispatched {
                continue;
            }
            if !self.fu.can_issue(r.op, self.now) {
                continue;
            }
            // MSHR limit: a load cannot issue while its thread already
            // has `mshr_per_thread` loads outstanding past the L1D.
            if r.op == OpClass::Load
                && self.threads[r.tid as usize].l1d_pending >= self.config.mshr_per_thread
            {
                continue;
            }
            // Optional memory disambiguation: hold the load while an
            // older same-thread store's address is unknown; forward from
            // a matching in-flight store.
            let mut forwarded = false;
            if self.config.lsq_disambiguation && r.op == OpClass::Load {
                match self.older_store_state(r.id) {
                    OlderStore::Unresolved => continue,
                    OlderStore::Forward => forwarded = true,
                    OlderStore::None => {}
                }
            }
            let base = self.fu.issue(r.op, self.now);
            let tid = r.tid as usize;

            let mut latency = base;
            let mut l1_miss = false;
            let mut l2_miss = false;
            if r.op.is_mem() && !forwarded {
                let addr = self.slab.get(r.id).inst.mem_addr.expect("mem op w/o addr");
                let access = self.mem.access_data(r.tid, addr);
                l1_miss = access.l1_miss;
                l2_miss = access.l2_miss;
                if r.op == OpClass::Load {
                    latency += access.latency;
                } // stores: address generation only; data drains post-commit.
            }

            {
                let info = self.slab.get_mut(r.id);
                info.stage = InstStage::Issued;
                info.issue_cycle = Some(self.now);
                info.l1_miss = l1_miss && r.op == OpClass::Load;
                info.l2_miss = l2_miss && r.op == OpClass::Load;
            }
            self.wakeup.on_issue(&r);
            // RUU-style: the IQ entry is freed at writeback, not issue.
            self.events
                .push(Reverse((self.now + latency as u64, r.id, r.seq)));
            issued += 1;

            if r.op == OpClass::Load {
                let pc = self.slab.get(r.id).inst.pc;
                self.policies.fetch.on_load_issued(r.tid, pc, l1_miss);
                if l1_miss {
                    self.threads[tid].l1d_pending += 1;
                }
                if l2_miss {
                    self.threads[tid].l2_pending += 1;
                    self.stats.l2_misses += 1;
                    if r.wrong_path {
                        self.stats.l2_misses_wrong_path += 1;
                    }
                    self.iv_l2_misses += 1;
                    self.tracer.emit(|| TraceEvent::L2Miss {
                        cycle: self.now,
                        tid,
                        addr: self.slab.get(r.id).inst.mem_addr.unwrap_or(0),
                    });
                    self.policies.governor.on_l2_miss(r.tid);
                    // FLUSH rollback, subject to:
                    //  * correct-path loads only (a squashed-path miss
                    //    resolves itself);
                    //  * the thread is not already rolled back and is
                    //    past its cooldown (back-to-back misses degrade
                    //    to STALL-style fetch gating, not repeated
                    //    rollback thrash);
                    //  * the IQ is actually congested — FLUSH exists to
                    //    de-clog the shared queue; rolling back a thread
                    //    while entries are plentiful is pure waste;
                    //  * at least one other thread can still fetch (the
                    //    paper: FLUSH keeps at least one thread going).
                    if flush_active
                        && !r.wrong_path
                        && !self.threads[tid].flush_blocked
                        && self.now >= self.threads[tid].flush_ok_after
                        && self.iq.len() as f64
                            >= self.config.iq_size as f64 * self.config.flush_clog_threshold
                        && self.iq.thread_occupancy(r.tid) * self.config.num_threads
                            >= self.config.iq_size
                        && self
                            .threads
                            .iter()
                            .enumerate()
                            .any(|(i, t)| i != tid && !t.flush_blocked)
                    {
                        self.flush_thread(tid, r.id, observer);
                    }
                }
            } else if r.op.is_mem() && l2_miss {
                // Store misses count toward the interval L2-miss rate
                // (opt2's trigger) but do not stall the thread.
                self.stats.l2_misses += 1;
                self.stats.l2_misses_stores += 1;
                if r.wrong_path {
                    self.stats.l2_misses_wrong_path += 1;
                }
                self.iv_l2_misses += 1;
                self.tracer.emit(|| TraceEvent::L2Miss {
                    cycle: self.now,
                    tid,
                    addr: self.slab.get(r.id).inst.mem_addr.unwrap_or(0),
                });
            }
        }
        self.ready_buf = ready;
        if issued > 0 {
            self.activity += issued as u64;
            self.tracer.emit(|| TraceEvent::Issue {
                cycle: self.now,
                count: issued,
                ready_len: rql,
            });
        }
    }

    // ------------------------------------------------------------------
    // dispatch
    // ------------------------------------------------------------------

    /// The per-thread policy views as of now, in the reused view
    /// buffer. The caller owns it while a stage hands it to policies
    /// and mutates the pipeline; it goes back to `views_buf` after.
    fn take_thread_views(&mut self) -> Vec<ThreadView> {
        let mut views = std::mem::take(&mut self.views_buf);
        views.clear();
        views.extend(self.threads.iter().enumerate().map(|(tid, t)| ThreadView {
            tid: tid as ThreadId,
            fetch_queue_len: t.fetch_queue.len(),
            fetch_queue_ace: t.fq_ace_count,
            l2_pending: t.l2_pending,
            l1d_pending: t.l1d_pending,
            flush_blocked: t.flush_blocked,
            in_flight: t.in_flight,
            iq_occupancy: self.iq.thread_occupancy(tid as ThreadId),
            rob_ace: t.rob_ace_count,
        }));
        views
    }

    fn dispatch_stage(&mut self) {
        let views = self.take_thread_views();
        let n = self.threads.len();
        let mut iq_len = self.iq.len();
        {
            let view = GovernorView {
                now: self.now,
                iq_size: self.config.iq_size,
                iq_len,
                ready_len: self.cur_ready_len,
                waiting_len: self.cur_waiting_len,
                last_interval: &self.last_interval,
                interval_hint_bits: self.iv_hint_bits,
                interval_cycles: self.now - self.iv_start,
                threads: &views,
            };
            let g = self.prof.enter(spans::GOVERNOR);
            self.policies.governor.begin_cycle(&view);
            self.prof.exit(g);
        }

        let mut budget = self.config.width;
        let mut governor_blocked = false;
        for i in 0..n {
            let tid = (self.dispatch_rr + i) % n;
            let mut dispatched = 0usize;
            loop {
                if budget == 0 || iq_len >= self.config.iq_size {
                    break;
                }
                let t = &self.threads[tid];
                if t.flush_blocked {
                    break;
                }
                let Some(&head) = t.fetch_queue.front() else {
                    break;
                };
                if t.rob.len() >= self.config.rob_size {
                    break;
                }
                let is_mem = self.slab.get(head).inst.op.is_mem();
                if is_mem && t.lsq_used >= self.config.lsq_size {
                    break;
                }
                // Governor decision.
                let view = GovernorView {
                    now: self.now,
                    iq_size: self.config.iq_size,
                    iq_len,
                    ready_len: self.cur_ready_len,
                    waiting_len: self.cur_waiting_len,
                    last_interval: &self.last_interval,
                    interval_hint_bits: self.iv_hint_bits,
                    interval_cycles: self.now - self.iv_start,
                    threads: &views,
                };
                let g = self.prof.enter(spans::GOVERNOR);
                let allowed = self
                    .policies
                    .governor
                    .allow_dispatch(&view, tid as ThreadId);
                self.prof.exit(g);
                if !allowed {
                    governor_blocked = true;
                    break;
                }
                // Commit to dispatching `head`.
                let t = &mut self.threads[tid];
                t.fetch_queue.pop_front();
                let (dest, srcs, ace_hint);
                {
                    let info = self.slab.get(head);
                    dest = info.inst.dest;
                    srcs = info.inst.srcs;
                    ace_hint = info.inst.ace_hint;
                }
                if ace_hint {
                    t.fq_ace_count -= 1;
                }
                let mut waiting = [None, None];
                for (slot, src) in waiting.iter_mut().zip(srcs.iter()) {
                    if let Some(reg) = src {
                        *slot = t.scoreboard.producer_of(*reg);
                    }
                }
                if let Some(d) = dest {
                    t.scoreboard.set_producer(d, head);
                }
                if is_mem {
                    t.lsq_used += 1;
                }
                if ace_hint {
                    t.rob_ace_count += 1;
                }
                t.rob.push_back(head);
                {
                    let info = self.slab.get_mut(head);
                    info.stage = InstStage::Dispatched;
                    info.dispatch_cycle = Some(self.now);
                    info.waiting_on = waiting;
                }
                self.iq.insert(head, ace_hint, tid as ThreadId);
                self.wakeup.on_dispatch(head, self.slab.get(head));
                iq_len += 1;
                budget -= 1;
                dispatched += 1;
                self.tracer.emit(|| TraceEvent::IqAllocate {
                    cycle: self.now,
                    tid,
                    seq: self.slab.get(head).inst.seq,
                    occupancy: iq_len,
                });
            }
            if dispatched > 0 {
                self.activity += dispatched as u64;
                self.tracer.emit(|| TraceEvent::Dispatch {
                    cycle: self.now,
                    tid,
                    count: dispatched,
                });
            }
        }
        self.tally.governor_stall = u64::from(governor_blocked && iq_len < self.config.iq_size);
        self.dispatch_rr = (self.dispatch_rr + 1) % n;
        self.views_buf = views;
    }

    // ------------------------------------------------------------------
    // fetch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self) {
        let views = self.take_thread_views();
        let order = {
            let view = FetchView {
                now: self.now,
                threads: &views,
            };
            self.policies.fetch.thread_order(&view)
        };
        let mut budget = self.config.width;
        let mut threads_used = 0usize;
        self.tally.fetch_blocked_stall = 0;
        self.tally.fetch_blocked_gate = 0;
        self.tally.fetch_blocked_fq_full = 0;
        for tid in order {
            if budget == 0 || threads_used >= self.config.fetch_threads_per_cycle {
                break;
            }
            let tidx = tid as usize;
            {
                let t = &self.threads[tidx];
                if t.flush_blocked || self.now < t.ifetch_stall_until {
                    self.tally.fetch_blocked_stall += 1;
                    continue;
                }
                let view = FetchView {
                    now: self.now,
                    threads: &views,
                };
                if self.policies.fetch.gate(&view, tid) {
                    self.tally.fetch_blocked_gate += 1;
                    continue;
                }
                if t.fetch_queue.len() >= self.config.fetch_queue_size {
                    self.tally.fetch_blocked_fq_full += 1;
                    continue;
                }
            }
            // I-cache access for the fetch block's first PC.
            let first_pc = match self.threads[tidx].wrong_path_pc {
                Some(pc) => pc,
                None => self.threads[tidx].engine.peek_pc(),
            };
            let access = self.mem.access_inst(tid, first_pc);
            self.activity += 1;
            if access.l1_miss {
                self.threads[tidx].ifetch_stall_until = self.now + access.latency as u64;
                self.stats.fetch_blocked_icache += 1;
                continue;
            }
            threads_used += 1;
            self.stats.fetch_blocks += 1;

            let mut block = 0usize;
            while budget > 0
                && block < self.config.width
                && self.threads[tidx].fetch_queue.len() < self.config.fetch_queue_size
            {
                let stop_after = self.fetch_one(tidx);
                budget -= 1;
                block += 1;
                if stop_after {
                    break;
                }
            }
            if block > 0 {
                self.tracer.emit(|| TraceEvent::Fetch {
                    cycle: self.now,
                    tid: tidx,
                    count: block,
                });
            }
        }
        self.views_buf = views;
    }

    /// Fetch a single instruction for thread `tidx`. Returns `true` if
    /// the fetch block must end (predicted-taken control flow).
    fn fetch_one(&mut self, tidx: usize) -> bool {
        let tid = tidx as ThreadId;
        let on_wrong_path = self.threads[tidx].wrong_path_pc.is_some();
        let mut inst = if let Some(wp_pc) = self.threads[tidx].wrong_path_pc {
            let i = self.threads[tidx].engine.wrong_path_at(wp_pc);
            // Advance the wrong path: follow the junk instruction's own
            // control flow; no predictor involvement (its state was
            // checkpointed at the mispredicted branch).
            let next = match i.ctrl {
                Some(c) if c.taken => c.next_pc,
                _ => wp_pc + 1,
            };
            self.threads[tidx].wrong_path_pc = Some(next);
            i
        } else {
            self.threads[tidx].engine.next_correct()
        };
        inst.seq = self.next_seq;
        self.next_seq += 1;
        self.stats.fetched += 1;
        if inst.wrong_path {
            self.stats.wrong_path_fetched += 1;
        }

        let mut info = InstInfo::new(inst, self.now);
        let mut stop = false;

        if info.inst.op.is_control() && !on_wrong_path {
            // Predict; detect misprediction by comparing with the
            // engine-recorded actual outcome.
            let pc = info.inst.pc;
            let kind = branch_kind(info.inst.op);
            info.bp_history = self.bpred.history_checkpoint(tid);
            info.bp_ras = Some(self.bpred.ras_checkpoint(tid));
            let pred = self.bpred.predict(tid, pc, kind, pc + 1);
            let actual = info.inst.ctrl.expect("control inst without outcome");
            let program_len = self.threads[tidx].engine.program().len() as u64;
            let pred_next = pred.next_pc % program_len;
            self.stats.branches += 1;
            if pred_next != actual.next_pc {
                info.mispredicted = true;
                self.stats.mispredicts += 1;
                self.threads[tidx].wrong_path_pc = Some(pred_next);
            }
            if pred.taken {
                stop = true; // a predicted-taken transfer ends the block
            }
        } else if info.inst.op.is_control() {
            // Wrong-path control: block ends if it "takes".
            stop = info.inst.ctrl.map(|c| c.taken).unwrap_or(false);
        }

        let is_load = info.inst.op == OpClass::Load;
        let ace = info.inst.ace_hint;
        let seq = info.inst.seq;
        let pc = info.inst.pc;
        let id = self.slab.insert(info);
        let t = &mut self.threads[tidx];
        t.fetch_queue.push_back(id);
        t.in_flight += 1;
        if ace {
            t.fq_ace_count += 1;
        }
        if is_load {
            self.policies.fetch.on_load_fetched(tid, seq, pc);
        }
        // A pending mispredict set *by this very instruction* means the
        // rest of the block is wrong-path — handled next iteration via
        // wrong_path_pc. Track the branch for recovery.
        if self.slab.get(id).mispredicted {
            self.threads[tidx].pending_mispredict = Some(id);
        }
        stop
    }

    // ------------------------------------------------------------------
    // end of cycle: occupancy sampling + interval bookkeeping
    // ------------------------------------------------------------------

    fn end_of_cycle(&mut self) {
        self.tally.iq_len = self.iq.len() as u64;
        self.tally.hint_bits = self.iq.hint_bits_resident();
        self.apply_tally(1);

        if self.now + 1 - self.iv_start >= self.interval_cycles {
            self.activity += 1;
            let cycles = self.now + 1 - self.iv_start;
            let total_bits = self.config.iq_size as u64 * crate::layout::IQ_ENTRY_BITS as u64;
            let snapshot = IntervalSnapshot {
                start_cycle: self.iv_start,
                cycles,
                committed: self.iv_committed,
                l2_misses: self.iv_l2_misses,
                avg_ready_len: self.iv_ready_sum as f64 / cycles as f64,
                avg_ready_ace_len: self.iv_ready_ace_sum as f64 / cycles as f64,
                avg_iq_len: self.iv_iq_sum as f64 / cycles as f64,
                hint_avf: self.iv_hint_bits as f64 / (cycles * total_bits) as f64,
            };
            self.stats.interval_hint_avf.push(snapshot.hint_avf);
            self.stats.intervals.push(snapshot);
            let index = self.interval_index;
            self.interval_index += 1;
            self.tracer.emit(|| TraceEvent::IntervalRollover {
                cycle: self.now,
                index,
                ipc: snapshot.ipc(),
                hint_avf: snapshot.hint_avf,
                avg_ready_len: snapshot.avg_ready_len,
                avg_iq_len: snapshot.avg_iq_len,
                l2_misses: snapshot.l2_misses,
            });
            if self.metrics.is_on() {
                // Core IQ/AVF/throughput series on the interval clock.
                self.metrics.sample("ipc", index, || snapshot.ipc());
                self.metrics
                    .sample("iq.ready_len", index, || snapshot.avg_ready_len);
                self.metrics
                    .sample("iq.ace_fraction", index, || snapshot.ready_ace_fraction());
                self.metrics
                    .sample("iq.interval_avf", index, || snapshot.hint_avf);
                self.metrics
                    .sample("iq.occupancy", index, || snapshot.avg_iq_len);
                self.metrics
                    .sample("mem.l2_misses", index, || snapshot.l2_misses as f64);
                // Windowed hierarchy miss rates (monotonic counters
                // diffed against the interval-start reading).
                let mem_now = self.mem.stats();
                let window = mem_now.since(&self.iv_mem_base);
                self.metrics
                    .sample("mem.l1d_miss_rate", index, || window.l1d.miss_rate());
                self.metrics
                    .sample("mem.l2_miss_rate", index, || window.l2.miss_rate());
                self.iv_mem_base = mem_now;
                self.metrics.observe("interval.ipc", || snapshot.ipc());
                // Wall-clock throughput of the interval just closed,
                // published as a gauge so `interval_rollover` snapshots
                // it into a per-interval series on the same clock as
                // the simulated metrics.
                let iv_wall = self.iv_wall;
                self.metrics.gauge_set("throughput.cycles_per_sec", || {
                    let secs = iv_wall.elapsed().as_secs_f64();
                    if secs > 0.0 {
                        cycles as f64 / secs
                    } else {
                        0.0
                    }
                });
                // Close the interval: gauge-backed governor series
                // (wq_ratio, IQL cap, flush mode) extend here too.
                self.metrics
                    .interval_rollover(index, snapshot.start_cycle, cycles);
            }
            {
                let views = self.take_thread_views();
                let view = GovernorView {
                    now: self.now,
                    iq_size: self.config.iq_size,
                    iq_len: self.iq.len(),
                    ready_len: self.cur_ready_len,
                    waiting_len: self.cur_waiting_len,
                    last_interval: &snapshot,
                    interval_hint_bits: 0,
                    interval_cycles: 0,
                    threads: &views,
                };
                self.policies.governor.on_interval(&snapshot, &view);
                self.views_buf = views;
            }
            if let Some(p) = &self.progress {
                p.fetch_add(cycles, Ordering::Relaxed);
            }
            self.last_interval = snapshot;
            self.iv_start = self.now + 1;
            self.iv_committed = 0;
            self.iv_l2_misses = 0;
            self.iv_ready_sum = 0;
            self.iv_ready_ace_sum = 0;
            self.iv_iq_sum = 0;
            self.iv_hint_bits = 0;
            self.iv_wall = Instant::now();
        }
    }

    /// Memory-ordering state of the stores older than `load_id` in its
    /// thread's ROB (used when `lsq_disambiguation` is on).
    fn older_store_state(&self, load_id: InstId) -> OlderStore {
        let load = self.slab.get(load_id);
        let tid = load.inst.tid as usize;
        let load_seq = load.inst.seq;
        let load_word = load.inst.mem_addr.map(|a| a / 8);
        let mut verdict = OlderStore::None;
        for &id in &self.threads[tid].rob {
            let info = self.slab.get(id);
            if info.inst.seq >= load_seq {
                break; // ROB is age-ordered; nothing older remains
            }
            if info.inst.op != OpClass::Store {
                continue;
            }
            match info.stage {
                // Address generation has not happened: conservative hold.
                InstStage::Fetched | InstStage::Dispatched => return OlderStore::Unresolved,
                InstStage::Issued | InstStage::Completed => {
                    if info.inst.mem_addr.map(|a| a / 8) == load_word {
                        // Youngest matching store wins; keep scanning for
                        // unresolved ones (which would override).
                        verdict = OlderStore::Forward;
                    }
                }
            }
        }
        verdict
    }

    fn retire_event(info: &InstInfo, kind: RetireKind, now: u64) -> RetireEvent {
        RetireEvent {
            inst: info.inst.clone(),
            kind,
            fetch_cycle: info.fetch_cycle,
            dispatch_cycle: info.dispatch_cycle,
            issue_cycle: info.issue_cycle,
            complete_cycle: info.complete_cycle,
            retire_cycle: now,
            l2_miss: info.l2_miss,
        }
    }
}

/// Disambiguation verdict for a load against its older stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OlderStore {
    /// No older store interferes; access memory normally.
    None,
    /// An older store's address is still unknown: the load must wait.
    Unresolved,
    /// An older store to the same word is in flight: forward (1 cycle).
    Forward,
}

fn branch_kind(op: OpClass) -> BranchKind {
    match op {
        OpClass::CondBranch => BranchKind::Cond,
        OpClass::Jump => BranchKind::Jump,
        OpClass::Call => BranchKind::Call,
        OpClass::Ret => BranchKind::Ret,
        _ => unreachable!("not a control op: {op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullObserver;
    use workload_gen::{generate_program, generate_program_salted, model_by_name};

    fn mini_pipeline(names: [&str; 4]) -> Pipeline {
        mini_pipeline_salted(names, 0)
    }

    fn mini_pipeline_salted(names: [&str; 4], salt: u64) -> Pipeline {
        let programs = names
            .iter()
            .map(|n| Arc::new(generate_program_salted(&model_by_name(n).unwrap(), salt)))
            .collect();
        Pipeline::new(
            MachineConfig::table2(),
            programs,
            PipelinePolicies::default(),
        )
    }

    fn run_insts(p: &mut Pipeline, n: u64) -> SimResult {
        p.run(SimLimits::instructions(n), &mut NullObserver)
    }

    #[test]
    fn cancel_token_stops_run_within_one_interval() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let token = CancelToken::new();
        p.set_cancel_token(token.clone());
        // Uncancelled: the token costs nothing and the run completes.
        let r = p.run(SimLimits::cycles(5_000), &mut NullObserver);
        assert!(!r.cancelled && !r.deadlocked);
        assert_eq!(r.stats.cycles, 5_000);
        // Pre-cancelled: a would-be long run stops at the next interval
        // boundary instead of burning the full cycle budget.
        token.cancel();
        let before = p.cycle();
        let r = p.run(SimLimits::cycles(10_000_000), &mut NullObserver);
        assert!(r.cancelled, "cancelled run must report it");
        assert!(!r.deadlocked, "cancellation is not a deadlock symptom");
        assert!(
            p.cycle() - before <= DEFAULT_INTERVAL_CYCLES,
            "stopped within one interval, not after {} cycles",
            p.cycle() - before
        );
    }

    #[test]
    fn cancel_token_stops_warm_up() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let token = CancelToken::new();
        p.set_cancel_token(token.clone());
        token.cancel();
        let start = p.warm_up(100_000_000);
        // Warmup bailed out on the interval clock; measurement state is
        // still reset so a (short) measured run would be well-formed.
        assert!(start <= DEFAULT_INTERVAL_CYCLES);
        assert_eq!(p.stats().total_committed(), 0);
    }

    #[test]
    fn cpu_mix_commits_with_healthy_ipc() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let r = run_insts(&mut p, 40_000);
        assert!(!r.deadlocked, "deadlock");
        assert!(r.stats.total_committed() >= 40_000);
        let ipc = r.stats.throughput_ipc();
        assert!(ipc > 1.0, "CPU mix IPC too low: {ipc}");
        assert!(ipc <= 8.0, "IPC beyond machine width: {ipc}");
        // All four threads make progress.
        for (tid, &c) in r.stats.committed_per_thread.iter().enumerate() {
            assert!(c > 1000, "thread {tid} starved: {c}");
        }
    }

    #[test]
    fn mem_mix_runs_slower_than_cpu_mix() {
        // A single seeded draw from the workload generator is one sample;
        // asserting a 1.4x margin on it is hostage to that draw (the
        // vendored stand-in RNG narrows the MEM/CPU L2-miss gap to ~1.6x
        // vs the original generator's ~2.5x — see EXPERIMENTS.md). So
        // assert on the *median* over 5 independent seeds: the class
        // separation must hold for the typical draw, and IPC ordering
        // for the majority.
        let mut miss_ratios = Vec::new();
        let mut ipc_ordered = 0usize;
        for salt in 0..5u64 {
            // Warm both machines first: cold compulsory misses dominate
            // short unwarmed runs and mask the class difference.
            let mut cpu = mini_pipeline_salted(["bzip2", "eon", "gcc", "perlbmk"], salt);
            let mut mem = mini_pipeline_salted(["mcf", "equake", "vpr", "swim"], salt);
            cpu.warm_up(250_000);
            mem.warm_up(250_000);
            let rc = run_insts(&mut cpu, 30_000);
            let rm = run_insts(&mut mem, 30_000);
            assert!(!rc.deadlocked && !rm.deadlocked, "salt {salt} deadlocked");
            let rate = |r: &SimResult| r.stats.l2_misses as f64 / r.stats.cycles.max(1) as f64;
            miss_ratios.push(rate(&rm) / rate(&rc).max(1e-12));
            if rm.stats.throughput_ipc() < rc.stats.throughput_ipc() {
                ipc_ordered += 1;
            }
        }
        let median_ratio = sim_stats::median(&miss_ratios);
        assert!(
            median_ratio > 1.4,
            "median MEM/CPU L2-miss-rate ratio {median_ratio:.3} !> 1.4 (per-seed: {miss_ratios:?})"
        );
        assert!(
            ipc_ordered >= 3,
            "MEM IPC < CPU IPC held on only {ipc_ordered}/5 seeds"
        );
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = mini_pipeline(["gcc", "mcf", "vpr", "perlbmk"]);
        let mut b = mini_pipeline(["gcc", "mcf", "vpr", "perlbmk"]);
        let ra = run_insts(&mut a, 20_000);
        let rb = run_insts(&mut b, 20_000);
        assert_eq!(ra.stats.cycles, rb.stats.cycles);
        assert_eq!(ra.stats.committed_per_thread, rb.stats.committed_per_thread);
        assert_eq!(ra.stats.l2_misses, rb.stats.l2_misses);
        assert_eq!(ra.stats.mispredicts, rb.stats.mispredicts);
    }

    #[test]
    fn branches_and_mispredicts_happen() {
        let mut p = mini_pipeline(["gcc", "perlbmk", "facerec", "crafty"]);
        let r = run_insts(&mut p, 30_000);
        assert!(r.stats.branches > 1000);
        assert!(r.stats.mispredicts > 0, "no mispredicts at all?");
        let rate = r.stats.mispredict_rate();
        assert!(rate < 0.4, "implausible mispredict rate {rate}");
        assert!(r.stats.wrong_path_fetched > 0);
        assert!(r.stats.squashed > 0);
    }

    #[test]
    fn flush_policy_triggers_rollbacks_on_mem_mix() {
        let programs: Vec<_> = ["mcf", "equake", "vpr", "swim"]
            .iter()
            .map(|n| Arc::new(generate_program(&model_by_name(n).unwrap())))
            .collect();
        let mut p = Pipeline::new(
            MachineConfig::table2(),
            programs,
            PipelinePolicies {
                fetch: crate::fetch::FetchPolicyKind::Flush.build(),
                ..Default::default()
            },
        );
        let r = run_insts(&mut p, 30_000);
        assert!(!r.deadlocked);
        assert!(r.stats.flushes > 0, "FLUSH never fired on a MEM mix");
    }

    #[test]
    fn all_fetch_policies_complete() {
        for kind in crate::fetch::FetchPolicyKind::ALL {
            let programs: Vec<_> = ["gcc", "mcf", "vpr", "perlbmk"]
                .iter()
                .map(|n| Arc::new(generate_program(&model_by_name(n).unwrap())))
                .collect();
            let mut p = Pipeline::new(
                MachineConfig::table2(),
                programs,
                PipelinePolicies {
                    fetch: kind.build(),
                    ..Default::default()
                },
            );
            let r = run_insts(&mut p, 15_000);
            assert!(!r.deadlocked, "{:?} deadlocked", kind);
            assert!(r.stats.total_committed() >= 15_000, "{kind:?}");
        }
    }

    #[test]
    fn ready_queue_statistics_are_recorded() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let r = run_insts(&mut p, 30_000);
        let hist = &r.stats.ready_queue_hist;
        assert!(hist.histogram().total() > 0);
        // On a CPU-heavy 4-thread mix the ready queue should often exceed
        // the 8-wide issue width (the paper's key observation).
        let beyond_width = 1.0 - hist.histogram().fraction_below(9);
        assert!(
            beyond_width > 0.3,
            "ready queue rarely exceeds width: {beyond_width}"
        );
        // And a healthy share of ready instructions carry the ACE hint
        // (all control/store ops do even before profiling).
        // Before offline profiling, only stores/branches/outputs carry
        // the implicit hint, and they are short-residency ops, so their
        // share of the queue-resident population is small.
        let overall = hist.companion_overall().unwrap_or(0.0);
        assert!(overall > 0.01, "ACE share implausibly low: {overall}");
        assert!(overall < 0.5, "pre-profiling ACE share too high: {overall}");
    }

    #[test]
    fn intervals_close_every_10k_cycles() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let r = run_insts(&mut p, 60_000);
        assert!(!r.stats.intervals.is_empty());
        for (i, iv) in r.stats.intervals.iter().enumerate() {
            assert_eq!(iv.cycles, DEFAULT_INTERVAL_CYCLES, "interval {i}");
            assert!(iv.hint_avf >= 0.0 && iv.hint_avf <= 1.0);
            assert!(iv.avg_ready_ace_len <= iv.avg_ready_len);
        }
    }

    #[test]
    fn metrics_registry_samples_every_interval() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let metrics = Metrics::new();
        p.set_metrics(metrics.clone());
        let r = run_insts(&mut p, 60_000);
        let n = r.stats.intervals.len();
        assert!(n > 0);
        let snap = metrics.snapshot();
        assert_eq!(snap.intervals.len(), n);
        for name in [
            "ipc",
            "iq.ready_len",
            "iq.ace_fraction",
            "iq.interval_avf",
            "iq.occupancy",
            "mem.l2_misses",
            "mem.l1d_miss_rate",
            "mem.l2_miss_rate",
        ] {
            let series = snap
                .series(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(series.len(), n, "{name}");
            for (i, pt) in series.iter().enumerate() {
                assert_eq!(pt.interval, i as u64, "{name}");
                assert!(pt.value.is_finite(), "{name}");
            }
        }
        // The series agree with the pipeline's own interval snapshots.
        for (i, iv) in r.stats.intervals.iter().enumerate() {
            assert_eq!(
                snap.series("iq.interval_avf").unwrap()[i].value,
                iv.hint_avf
            );
            assert_eq!(snap.series("ipc").unwrap()[i].value, iv.ipc());
        }
        let ipc_hist = snap.histogram("interval.ipc").unwrap();
        assert_eq!(ipc_hist.count, n as u64);
        // Metrics collection must not perturb the simulation.
        let mut bare = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let rb = run_insts(&mut bare, 60_000);
        assert_eq!(rb.stats.cycles, r.stats.cycles);
        assert_eq!(rb.stats.committed_per_thread, r.stats.committed_per_thread);
    }

    #[test]
    fn warm_up_resets_metric_accumulation() {
        // warm_up restarts interval indexing at 0; the metrics registry
        // must drop warmup-phase accumulation with it, or measured
        // points share indices with warmup points and every exported
        // interval row carries two values per series.
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let metrics = Metrics::new();
        p.set_metrics(metrics.clone());
        p.warm_up(50_000);
        let r = run_insts(&mut p, 60_000);
        let n = r.stats.intervals.len();
        assert!(n > 0);
        let snap = metrics.snapshot();
        assert_eq!(snap.intervals.len(), n, "measured intervals only");
        let ipc = snap.series("ipc").unwrap();
        assert_eq!(ipc.len(), n);
        for (i, pt) in ipc.iter().enumerate() {
            assert_eq!(pt.interval, i as u64, "indices unique and 0-based");
        }
        assert_eq!(snap.histogram("interval.ipc").unwrap().count, n as u64);
    }

    #[test]
    fn profiling_attributes_the_tick_without_perturbing_the_simulation() {
        let mut p = mini_pipeline(["gcc", "mcf", "vpr", "perlbmk"]);
        p.set_stage_profiling(true);
        let rp = run_insts(&mut p, 20_000);
        // The simulated outcome is bit-identical to an unprofiled run.
        let mut bare = mini_pipeline(["gcc", "mcf", "vpr", "perlbmk"]);
        let rb = run_insts(&mut bare, 20_000);
        assert_eq!(rp.stats.cycles, rb.stats.cycles);
        assert_eq!(rp.stats.committed_per_thread, rb.stats.committed_per_thread);
        assert_eq!(rp.stats.l2_misses, rb.stats.l2_misses);

        let report = p.profile_report();
        let node = |name: &str| {
            report
                .nodes
                .iter()
                .find(|n| n.name == name)
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        // Every cycle is either stepped (one `tick`) or fast-forwarded
        // (one `fast_forward` call)...
        let ticks = node("tick").calls;
        assert_eq!(ticks + node("fast_forward").calls, p.cycle());
        assert_eq!(p.fast_forwarded_cycles(), node("fast_forward").calls);
        assert!(node("fast_forward").parent.is_none(), "outside tick");
        // ...every stage span fires exactly once per tick...
        for name in [
            "commit",
            "writeback",
            "issue",
            "wakeup",
            "select",
            "dispatch",
            "fetch",
            "end_of_cycle",
        ] {
            assert_eq!(node(name).calls, ticks, "{name}");
        }
        // ...and the baseline governor is consulted at least once per
        // tick (begin_cycle), more when dispatch slots are contested.
        assert!(node("governor").calls >= ticks);
        // Component profiles are grafted under anchors outside `tick`:
        // the memory hierarchy and branch predictor did real work.
        let anchor = |name: &str| {
            let i = report.nodes.iter().position(|n| n.name == name).unwrap();
            assert!(report.nodes[i].parent.is_none(), "{name} nested in tick");
            i
        };
        let mem = anchor("mem_hier");
        let bp = anchor("branch_pred");
        let under = |a: usize, name: &str| {
            report
                .nodes
                .iter()
                .find(|n| n.parent == Some(a) && n.name == name)
                .unwrap_or_else(|| panic!("{name} not under anchor"))
        };
        assert!(under(mem, "access_data").calls > 0);
        assert!(under(mem, "access_inst").calls > 0);
        assert!(under(bp, "predict").calls > 0);
        assert!(under(bp, "resolve").calls > 0);
        // Timing sanity: the tick subtree attributes real time and the
        // stage self times roughly reassemble the tick total. Each span
        // extrapolates its total from 1-in-N sampled entries
        // independently, so on a run this short (a few hundred samples
        // of ns-scale release-mode spans) the child sum can overshoot
        // the parent's own estimate by several percent — the bound here
        // is deliberately loose; exactness is asserted in sim-profile.
        assert!(report.span_total_s("tick") > 0.0);
        assert!(report.subtree_self_s("tick") <= report.span_total_s("tick") * 1.5);
        // The collapsed export carries nested stage paths.
        let collapsed = report.to_collapsed();
        assert!(collapsed.contains("tick;issue;wakeup "), "{collapsed}");
        ProfileReport::parse_collapsed(&collapsed).unwrap();
        // Disabled again: spans stop counting.
        p.set_stage_profiling(false);
        let before = p.prof.calls(spans::TICK);
        p.step(&mut NullObserver);
        assert_eq!(p.prof.calls(spans::TICK), before);
    }

    #[test]
    fn throughput_series_lands_on_the_interval_clock() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let metrics = Metrics::new();
        p.set_metrics(metrics.clone());
        let r = run_insts(&mut p, 60_000);
        let n = r.stats.intervals.len();
        assert!(n > 0);
        let snap = metrics.snapshot();
        let series = snap
            .series("throughput.cycles_per_sec")
            .expect("throughput series missing");
        assert_eq!(series.len(), n);
        for (i, pt) in series.iter().enumerate() {
            assert_eq!(pt.interval, i as u64);
            assert!(
                pt.value.is_finite() && pt.value > 0.0,
                "interval {i}: {}",
                pt.value
            );
        }
    }

    #[test]
    fn progress_counter_advances_by_whole_intervals() {
        let mut p = mini_pipeline(["bzip2", "eon", "gcc", "perlbmk"]);
        let counter = Arc::new(AtomicU64::new(0));
        p.set_progress_counter(counter.clone());
        let r = run_insts(&mut p, 60_000);
        let n = r.stats.intervals.len() as u64;
        assert!(n > 0);
        assert_eq!(
            counter.load(Ordering::Relaxed),
            n * DEFAULT_INTERVAL_CYCLES,
            "counter advances exactly by the closed intervals' cycles"
        );
    }

    #[test]
    fn observer_sees_every_commit_in_program_order() {
        struct Orders {
            last_idx: Vec<Option<u64>>,
            commits: u64,
        }
        impl SimObserver for Orders {
            fn on_commit(&mut self, ev: &RetireEvent) {
                assert!(!ev.inst.wrong_path);
                let slot = &mut self.last_idx[ev.inst.tid as usize];
                if let Some(prev) = *slot {
                    assert_eq!(ev.inst.dyn_idx, prev + 1, "commit order broken");
                }
                *slot = Some(ev.inst.dyn_idx);
                self.commits += 1;
            }
        }
        let mut obs = Orders {
            last_idx: vec![None; 4],
            commits: 0,
        };
        let mut p = mini_pipeline(["gap", "facerec", "crafty", "mesa"]);
        p.run(SimLimits::instructions(20_000), &mut obs);
        assert!(obs.commits >= 20_000);
    }

    #[test]
    fn squash_events_only_for_squash_kinds() {
        struct Check;
        impl SimObserver for Check {
            fn on_squash(&mut self, ev: &RetireEvent) {
                assert_eq!(ev.kind, RetireKind::Squash);
            }
            fn on_commit(&mut self, ev: &RetireEvent) {
                assert_eq!(ev.kind, RetireKind::Commit);
                // Committed instructions must have full timing.
                assert!(ev.dispatch_cycle.is_some());
                assert!(ev.issue_cycle.is_some());
                assert!(ev.complete_cycle.is_some());
                let d = ev.dispatch_cycle.unwrap();
                let i = ev.issue_cycle.unwrap();
                let c = ev.complete_cycle.unwrap();
                assert!(ev.fetch_cycle <= d && d <= i && i < c && c <= ev.retire_cycle);
            }
        }
        let mut p = mini_pipeline(["gcc", "mcf", "vpr", "perlbmk"]);
        p.run(SimLimits::instructions(15_000), &mut Check);
    }

    #[test]
    fn mshr_limit_bounds_outstanding_misses() {
        let programs: Vec<_> = ["mcf", "equake", "vpr", "swim"]
            .iter()
            .map(|n| Arc::new(generate_program(&model_by_name(n).unwrap())))
            .collect();
        let run_with_mshr = |mshr: u32| {
            let mut cfg = MachineConfig::table2();
            cfg.mshr_per_thread = mshr;
            let mut p = Pipeline::new(cfg, programs.clone(), PipelinePolicies::default());
            p.run(SimLimits::instructions(20_000), &mut NullObserver)
        };
        let tight = run_with_mshr(1);
        let loose = run_with_mshr(8);
        assert!(!tight.deadlocked && !loose.deadlocked);
        // Serializing misses must cost throughput on a MEM mix.
        assert!(
            tight.stats.throughput_ipc() < loose.stats.throughput_ipc(),
            "mshr=1 {:.2} !< mshr=8 {:.2}",
            tight.stats.throughput_ipc(),
            loose.stats.throughput_ipc()
        );
    }

    #[test]
    fn lsq_disambiguation_mode_runs_and_orders_memory() {
        let programs: Vec<_> = ["gcc", "mcf", "vpr", "perlbmk"]
            .iter()
            .map(|n| Arc::new(generate_program(&model_by_name(n).unwrap())))
            .collect();
        let run_mode = |dis: bool| {
            let mut cfg = MachineConfig::table2();
            cfg.lsq_disambiguation = dis;
            let mut p = Pipeline::new(cfg, programs.clone(), PipelinePolicies::default());
            p.run(SimLimits::instructions(25_000), &mut NullObserver)
        };
        let plain = run_mode(false);
        let ordered = run_mode(true);
        assert!(!plain.deadlocked && !ordered.deadlocked);
        // Conservative ordering can only slow things down (or tie).
        assert!(
            ordered.stats.throughput_ipc() <= plain.stats.throughput_ipc() * 1.02,
            "ordered {:.2} vs plain {:.2}",
            ordered.stats.throughput_ipc(),
            plain.stats.throughput_ipc()
        );
        assert!(ordered.stats.total_committed() >= 25_000);
    }

    #[test]
    fn iq_never_exceeds_capacity() {
        let mut p = mini_pipeline(["mcf", "equake", "vpr", "swim"]);
        let mut obs = NullObserver;
        for _ in 0..30_000 {
            p.step(&mut obs);
            assert!(p.iq.len() <= p.config.iq_size);
        }
    }
}
