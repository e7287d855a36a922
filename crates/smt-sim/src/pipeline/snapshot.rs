//! Checkpoint/restore and online self-checks for the live pipeline.
//!
//! A snapshot serializes the *complete* mutable simulator state — slab,
//! per-thread front-end/ROB/scoreboard state, IQ contents in storage
//! order, function units, branch predictor, cache hierarchy, completion
//! events, statistics, open-interval accumulators, fetch-policy and
//! governor state, and the attached metrics registry — such that a
//! freshly constructed pipeline restored from it continues
//! *bit-identically* to the uninterrupted run. Anything reconstructible
//! from the configuration (programs, policies, structure geometry) is
//! not stored, nor is the wakeup/select bookkeeping derived from the IQ
//! and the slab (rebuilt on restore); a configuration fingerprint binds
//! each snapshot to the exact machine + workload + policy tuple that
//! produced it.
//!
//! Snapshots are taken cooperatively on the sampling-interval boundary
//! via [`Pipeline::run_hooked`], the same poll point the cancellation
//! token uses, so no mid-cycle state (stage latches) ever needs to be
//! serialized.

use super::{spans, Pipeline, SimResult, ThreadState};
use crate::config::SimLimits;
use crate::events::SimObserver;
use crate::layout;
use crate::types::{InstId, InstStage};
use sim_snapshot::{read_container, SnapError, SnapReader, SnapWriter, SnapshotHeader};
use std::cmp::Reverse;

/// Decision returned by a [`Pipeline::run_hooked`] interval hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Keep simulating.
    Continue,
    /// Stop the run now (reported as a cancelled result, exactly like
    /// the cancel token) — used by the harness to checkpoint-and-exit
    /// on a deadline or termination signal.
    Stop,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

impl Pipeline {
    /// Fingerprint of everything a snapshot does *not* store but resume
    /// correctness depends on: machine configuration, sampling interval,
    /// policy identities and per-thread workload fingerprints. A
    /// snapshot container is bound to this value; restoring under a
    /// different configuration is rejected before any state is touched.
    pub fn config_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, format!("{:?}", self.config).as_bytes());
        fnv1a(&mut h, &self.interval_cycles.to_le_bytes());
        fnv1a(&mut h, self.policies.fetch.name().as_bytes());
        fnv1a(&mut h, self.policies.issue.name().as_bytes());
        fnv1a(&mut h, self.policies.governor.name().as_bytes());
        for t in &self.threads {
            fnv1a(&mut h, &(t.engine.program().len() as u64).to_le_bytes());
            fnv1a(&mut h, &t.engine.program().entry.to_le_bytes());
        }
        h
    }

    /// Serialize the full live state into `w`. The inverse is
    /// [`Pipeline::restore_state`] on a freshly constructed pipeline
    /// with the same configuration, programs and policies.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put(&(self.threads.len() as u64));
        w.put(&self.interval_cycles);
        w.put(&self.now);
        w.put(&self.next_seq);
        w.put(&self.commit_rr);
        w.put(&self.dispatch_rr);
        self.slab.save_state(w);
        for t in &self.threads {
            save_thread(t, w);
        }
        self.iq.save_state(w);
        self.fu.save_state(w);
        self.bpred.save_state(w);
        self.mem.save_state(w);
        // Completion events, canonically ordered. The binary heap's
        // internal layout is insertion-history-dependent, but its pop
        // order is not: (cycle, id, seq) triples are distinct, so a
        // rebuilt heap replays writebacks identically.
        let mut events: Vec<(u64, u64, u64)> = self
            .events
            .iter()
            .map(|Reverse((c, id, seq))| (*c, *id as u64, *seq))
            .collect();
        events.sort_unstable();
        w.put(&events);
        self.stats.save_state(w);
        w.put(&self.iv_start);
        w.put(&self.iv_committed);
        w.put(&self.iv_l2_misses);
        w.put(&self.iv_ready_sum);
        w.put(&self.iv_ready_ace_sum);
        w.put(&self.iv_iq_sum);
        w.put(&self.iv_hint_bits);
        w.put(&self.iv_mem_base);
        w.put(&self.last_interval);
        w.put(&self.last_commit_cycle);
        w.put(&self.thread_last_commit);
        w.put(&self.measure_start);
        w.put(&self.cur_ready_len);
        w.put(&self.cur_waiting_len);
        w.put(&self.interval_index);
        self.policies.fetch.save_state(w);
        self.policies.governor.save_state(w);
        self.metrics.save_state(w);
    }

    /// Restore state serialized by [`Pipeline::save_state`]. The
    /// pipeline must have been constructed with the same configuration,
    /// programs and policies (callers normally guarantee this via the
    /// [`Pipeline::config_hash`] container binding; the structural
    /// checks here are a second line of defence). On error the pipeline
    /// is left partially restored and must be discarded.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let threads = r.get_u64()? as usize;
        if threads != self.threads.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {threads} threads, pipeline has {}",
                self.threads.len()
            )));
        }
        let interval = r.get_u64()?;
        if interval != self.interval_cycles {
            return Err(SnapError::Corrupt(format!(
                "snapshot interval {interval} != configured {}",
                self.interval_cycles
            )));
        }
        self.now = r.get()?;
        self.next_seq = r.get()?;
        self.commit_rr = r.get()?;
        self.dispatch_rr = r.get()?;
        self.slab.restore_state(r)?;
        for i in 0..threads {
            restore_thread(&mut self.threads[i], r)?;
        }
        self.iq.restore_state(r, &self.slab)?;
        self.fu.restore_state(r)?;
        self.bpred.restore_state(r)?;
        self.mem.restore_state(r)?;
        let events: Vec<(u64, u64, u64)> = r.get()?;
        self.events = events
            .into_iter()
            .map(|(c, id, seq)| Reverse((c, id as InstId, seq)))
            .collect();
        self.stats.restore_state(r)?;
        self.iv_start = r.get()?;
        self.iv_committed = r.get()?;
        self.iv_l2_misses = r.get()?;
        self.iv_ready_sum = r.get()?;
        self.iv_ready_ace_sum = r.get()?;
        self.iv_iq_sum = r.get()?;
        self.iv_hint_bits = r.get()?;
        self.iv_mem_base = r.get()?;
        self.last_interval = r.get()?;
        self.last_commit_cycle = r.get()?;
        let tlc: Vec<u64> = r.get()?;
        if tlc.len() != self.thread_last_commit.len() {
            return Err(SnapError::Corrupt(
                "thread commit-watermark count mismatch".into(),
            ));
        }
        self.thread_last_commit = tlc;
        self.measure_start = r.get()?;
        self.cur_ready_len = r.get()?;
        self.cur_waiting_len = r.get()?;
        self.interval_index = r.get()?;
        self.policies.fetch.restore_state(r)?;
        self.policies.governor.restore_state(r)?;
        self.metrics.restore_state(r)?;
        // Wakeup/select bookkeeping is derived from the IQ and the
        // slab's operand waits, so it is rebuilt rather than stored.
        self.wakeup
            .rebuild(&self.iq, &self.slab)
            .map_err(SnapError::Corrupt)?;
        // Host-side observability state is not serialized: the profile
        // restarts empty and the interval wall-clock epoch restarts now,
        // so resumed runs attribute only their own wall time.
        self.prof.reset();
        self.iv_wall = std::time::Instant::now();
        Ok(())
    }

    /// Serialize into a self-validating container (magic, schema
    /// version, configuration binding, CRC).
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save_snapshot_into(&mut w);
        w.into_bytes()
    }

    /// Append the [`Pipeline::save_snapshot`] container to `w`,
    /// serializing the machine straight into it.
    pub fn save_snapshot_into(&self, w: &mut SnapWriter) {
        let c = w.open_container(self.config_hash(), self.now);
        self.save_state(w);
        w.close_container(c);
    }

    /// Restore from a container produced by [`Pipeline::save_snapshot`].
    /// Returns the header on success. Any flipped bit in `data` fails
    /// the CRC; a configuration mismatch fails the binding check; both
    /// leave the pipeline untouched. Payload decode errors leave it
    /// partially restored — discard it.
    pub fn restore_snapshot(&mut self, data: &[u8]) -> Result<SnapshotHeader, SnapError> {
        let (header, payload) = read_container(data, self.config_hash())?;
        let mut r = SnapReader::new(payload);
        self.restore_state(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after pipeline state",
                r.remaining()
            )));
        }
        Ok(header)
    }

    /// Testing hook for the `--selfcheck` regression path: skew the
    /// live IQ ACE-bit counter without touching the entries it mirrors,
    /// modelling a soft error in the counter hardware itself.
    #[doc(hidden)]
    pub fn corrupt_iq_ace_counter(&mut self, delta: u64) {
        self.iq.skew_hint_bits(delta);
    }

    /// Structural invariant sweep for paranoid (`--selfcheck`) mode.
    ///
    /// Verifies queue-occupancy bounds, ACE-bit conservation between
    /// the per-instruction hints in the slab and the live counters the
    /// governors act on, the derived wakeup/select state (IQ slot index,
    /// selectable set, executing counters, dependent lists),
    /// rename/scoreboard consistency and per-thread resource
    /// accounting. Returns a diagnostic description of the first
    /// violation found. This is the only full IQ sweep: the tick keeps
    /// the derived state at its transitions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fail =
            |msg: String| -> Result<(), String> { Err(format!("cycle {}: {msg}", self.now)) };

        // --- IQ occupancy bounds and per-thread attribution ---
        if self.iq.len() > self.config.iq_size {
            return fail(format!(
                "IQ occupancy {} exceeds capacity {}",
                self.iq.len(),
                self.config.iq_size
            ));
        }
        let per_thread_sum: usize = (0..micro_isa::MAX_THREADS)
            .map(|t| self.iq.thread_occupancy(t as micro_isa::ThreadId))
            .sum();
        if per_thread_sum != self.iq.len() {
            return fail(format!(
                "IQ per-thread occupancy sums to {per_thread_sum}, entry count is {}",
                self.iq.len()
            ));
        }

        // --- ACE-bit conservation: recompute the hardware counter from
        //     the resident instructions' hints ---
        let mut hint_bits = 0u64;
        let mut per_thread = [0usize; micro_isa::MAX_THREADS];
        for id in self.iq.iter() {
            if !self.slab.contains(id) {
                return fail(format!("IQ entry {id} references a dead slab slot"));
            }
            let info = self.slab.get(id);
            if !matches!(info.stage, InstStage::Dispatched | InstStage::Issued) {
                return fail(format!(
                    "IQ entry {id} (seq {}) in stage {:?}",
                    info.inst.seq, info.stage
                ));
            }
            hint_bits += layout::iq_ace_bits(info.inst.ace_hint) as u64;
            per_thread[info.inst.tid as usize] += 1;
        }
        if hint_bits != self.iq.hint_bits_resident() {
            return fail(format!(
                "IQ ACE-bit counter {} != {} recomputed from resident hints \
                 (counter and contents have diverged)",
                self.iq.hint_bits_resident(),
                hint_bits
            ));
        }
        for (tid, &n) in per_thread.iter().enumerate() {
            let tracked = self.iq.thread_occupancy(tid as micro_isa::ThreadId);
            if n != tracked {
                return fail(format!(
                    "IQ thread {tid} occupancy counter {tracked} != {n} resident entries"
                ));
            }
        }

        // --- derived wakeup/select state, recomputed from the IQ ---
        if let Err(e) = self.iq.check_slot_index() {
            return fail(format!("IQ slot index: {e}"));
        }
        if let Err(e) = self.wakeup.check(&self.iq, &self.slab) {
            return fail(e);
        }

        // --- per-thread resource accounting ---
        let mut live_total = 0usize;
        for (tid, t) in self.threads.iter().enumerate() {
            if t.fetch_queue.len() > self.config.fetch_queue_size {
                return fail(format!("thread {tid} fetch queue over capacity"));
            }
            if t.rob.len() > self.config.rob_size {
                return fail(format!("thread {tid} ROB over capacity"));
            }
            if t.lsq_used > self.config.lsq_size {
                return fail(format!("thread {tid} LSQ over capacity"));
            }
            live_total += t.fetch_queue.len() + t.rob.len();
            if t.in_flight != t.fetch_queue.len() + t.rob.len() {
                return fail(format!(
                    "thread {tid} in_flight {} != fetch_queue {} + rob {}",
                    t.in_flight,
                    t.fetch_queue.len(),
                    t.rob.len()
                ));
            }
            let mut fq_ace = 0usize;
            for &id in &t.fetch_queue {
                if !self.slab.contains(id) {
                    return fail(format!("thread {tid} fetch queue holds dead id {id}"));
                }
                let info = self.slab.get(id);
                if info.stage != InstStage::Fetched {
                    return fail(format!(
                        "thread {tid} fetch-queue entry {id} in stage {:?}",
                        info.stage
                    ));
                }
                if info.inst.ace_hint {
                    fq_ace += 1;
                }
            }
            if fq_ace != t.fq_ace_count {
                return fail(format!(
                    "thread {tid} fetch-queue ACE counter {} != {fq_ace} recounted",
                    t.fq_ace_count
                ));
            }
            let (mut rob_ace, mut lsq, mut l2p, mut l1p) = (0usize, 0usize, 0u32, 0u32);
            let mut prev_seq = 0u64;
            for &id in &t.rob {
                if !self.slab.contains(id) {
                    return fail(format!("thread {tid} ROB holds dead id {id}"));
                }
                let info = self.slab.get(id);
                if info.stage == InstStage::Fetched {
                    return fail(format!(
                        "thread {tid} ROB entry {id} still in Fetched stage"
                    ));
                }
                if info.inst.seq <= prev_seq {
                    return fail(format!(
                        "thread {tid} ROB not age-ordered at seq {}",
                        info.inst.seq
                    ));
                }
                prev_seq = info.inst.seq;
                if info.inst.ace_hint {
                    rob_ace += 1;
                }
                if info.inst.op.is_mem() {
                    lsq += 1;
                }
                if info.inst.op == micro_isa::OpClass::Load && info.stage == InstStage::Issued {
                    if info.l2_miss {
                        l2p += 1;
                    }
                    if info.l1_miss {
                        l1p += 1;
                    }
                }
            }
            if rob_ace != t.rob_ace_count {
                return fail(format!(
                    "thread {tid} ROB ACE counter {} != {rob_ace} recounted",
                    t.rob_ace_count
                ));
            }
            if lsq != t.lsq_used {
                return fail(format!(
                    "thread {tid} LSQ counter {} != {lsq} memory ops resident",
                    t.lsq_used
                ));
            }
            if l2p != t.l2_pending {
                return fail(format!(
                    "thread {tid} l2_pending {} != {l2p} in-flight L2-missing loads",
                    t.l2_pending
                ));
            }
            if l1p != t.l1d_pending {
                return fail(format!(
                    "thread {tid} l1d_pending {} != {l1p} in-flight L1D-missing loads",
                    t.l1d_pending
                ));
            }
            // --- rename/scoreboard consistency: every producer entry
            //     must name a live, not-yet-completed instruction of
            //     this thread whose destination is that register ---
            for (flat, id) in t.scoreboard.producers() {
                if !self.slab.contains(id) {
                    return fail(format!(
                        "thread {tid} scoreboard reg {flat} names dead producer {id}"
                    ));
                }
                let info = self.slab.get(id);
                if info.inst.tid as usize != tid {
                    return fail(format!(
                        "thread {tid} scoreboard reg {flat} names foreign producer {id}"
                    ));
                }
                if info.stage == InstStage::Completed {
                    return fail(format!(
                        "thread {tid} scoreboard reg {flat} names completed producer {id}"
                    ));
                }
                if info.inst.dest.map(|d| d.flat_index()) != Some(flat) {
                    return fail(format!(
                        "thread {tid} scoreboard reg {flat} producer {id} writes {:?}",
                        self.slab.get(id).inst.dest
                    ));
                }
            }
        }
        if live_total != self.slab.live_count() {
            return fail(format!(
                "slab holds {} live records, queues reference {live_total}",
                self.slab.live_count()
            ));
        }
        Ok(())
    }

    /// [`Pipeline::run`] with a cooperative hook invoked at every
    /// sampling-interval boundary (before the cancellation poll). The
    /// harness uses it to take checkpoints and run `--selfcheck`
    /// invariant sweeps on the interval clock; a hook returning
    /// [`HookAction::Stop`] ends the run like a cancellation. Idle
    /// cycles are fast-forwarded, never past a cycle at which one of
    /// the loop's checks could fire, so the result is bit-identical to
    /// stepping every cycle (DESIGN §4).
    pub fn run_hooked(
        &mut self,
        limits: SimLimits,
        observer: &mut dyn SimObserver,
        hook: &mut dyn FnMut(&mut Pipeline) -> HookAction,
    ) -> SimResult {
        let mut deadlocked = false;
        let mut cancelled = false;
        while self.stats.total_committed() < limits.max_instructions {
            if self.now - self.measure_start >= limits.max_cycles {
                deadlocked = !limits.cycle_limited();
                break;
            }
            // Interval boundary: hook first (checkpoints see the state
            // the continuation will resume from), then the cancel poll.
            if (self.now - self.measure_start).is_multiple_of(self.interval_cycles) {
                if hook(self) == HookAction::Stop {
                    cancelled = true;
                    break;
                }
                if self.cancel.is_cancelled() {
                    cancelled = true;
                    break;
                }
            }
            let now = self.now;
            if self
                .thread_last_commit
                .iter()
                .any(|&c| now.saturating_sub(c) > limits.watchdog_cycles)
            {
                deadlocked = true;
                break;
            }
            let activity = self.activity;
            self.step(observer);
            if self.activity == activity {
                // Stop at the next cycle limit, hook/cancel poll or
                // watchdog check.
                let start = self.measure_start;
                let limit = start.saturating_add(limits.max_cycles);
                let poll = start.saturating_add(super::idle::next_multiple(
                    self.now - start,
                    self.interval_cycles,
                ));
                let oldest = self.thread_last_commit.iter().copied().min().unwrap_or(0);
                let starved = oldest
                    .saturating_add(limits.watchdog_cycles)
                    .saturating_add(1);
                self.fast_forward(limit.min(poll).min(starved));
            }
        }
        self.stats.cycles = self.now - self.measure_start;
        let t = self.prof.enter(spans::FINISH);
        observer.on_finish(self.now);
        self.prof.exit(t);
        SimResult {
            stats: self.stats.clone(),
            deadlocked,
            cancelled,
        }
    }
}

fn save_thread(t: &ThreadState, w: &mut SnapWriter) {
    t.engine.save_state(w);
    w.put(&t.fetch_queue);
    w.put(&t.fq_ace_count);
    w.put(&t.wrong_path_pc);
    w.put(&t.pending_mispredict);
    w.put(&t.rob);
    w.put(&t.rob_ace_count);
    w.put(&t.lsq_used);
    t.scoreboard.save_state(w);
    w.put(&t.in_flight);
    w.put(&t.l2_pending);
    w.put(&t.l1d_pending);
    w.put(&t.flush_blocked);
    w.put(&t.flush_wait_on);
    w.put(&t.flush_ok_after);
    w.put(&t.ifetch_stall_until);
}

fn restore_thread(t: &mut ThreadState, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    t.engine.restore_state(r)?;
    t.fetch_queue = r.get()?;
    t.fq_ace_count = r.get()?;
    t.wrong_path_pc = r.get()?;
    t.pending_mispredict = r.get()?;
    t.rob = r.get()?;
    t.rob_ace_count = r.get()?;
    t.lsq_used = r.get()?;
    t.scoreboard.restore_state(r)?;
    t.in_flight = r.get()?;
    t.l2_pending = r.get()?;
    t.l1d_pending = r.get()?;
    t.flush_blocked = r.get()?;
    t.flush_wait_on = r.get()?;
    t.flush_ok_after = r.get()?;
    t.ifetch_stall_until = r.get()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::events::NullObserver;
    use crate::fetch::FetchPolicyKind;
    use crate::pipeline::{PipelinePolicies, DEFAULT_INTERVAL_CYCLES};
    use std::sync::Arc;
    use workload_gen::{generate_program_salted, model_by_name};

    fn mini(names: [&str; 4], salt: u64, fetch: FetchPolicyKind) -> Pipeline {
        let programs = names
            .iter()
            .map(|n| Arc::new(generate_program_salted(&model_by_name(n).unwrap(), salt)))
            .collect();
        Pipeline::new(
            MachineConfig::table2(),
            programs,
            PipelinePolicies {
                fetch: fetch.build(),
                ..Default::default()
            },
        )
    }

    /// Interrupt a run at an interval boundary, restore onto a fresh
    /// pipeline, continue — the final *complete machine state* must be
    /// byte-identical to an uninterrupted run's.
    fn assert_resume_identity(names: [&str; 4], salt: u64, fetch: FetchPolicyKind) {
        let limits = SimLimits::instructions(100_000);

        let mut reference = mini(names, salt, fetch);
        let r_ref = reference.run(limits, &mut NullObserver);
        assert!(!r_ref.deadlocked && !r_ref.cancelled);
        let ref_bytes = reference.save_snapshot();

        let mut first = mini(names, salt, fetch);
        let mut snap: Option<Vec<u8>> = None;
        let r_first = first.run_hooked(limits, &mut NullObserver, &mut |p| {
            if p.cycle() >= DEFAULT_INTERVAL_CYCLES {
                snap = Some(p.save_snapshot());
                return HookAction::Stop;
            }
            HookAction::Continue
        });
        assert!(r_first.cancelled, "hook stop reports as cancellation");
        let snap = snap.expect("run crossed an interval boundary");

        let mut resumed = mini(names, salt, fetch);
        let header = resumed.restore_snapshot(&snap).unwrap();
        assert!(header.cycle >= DEFAULT_INTERVAL_CYCLES);
        resumed.check_invariants().unwrap();
        let r_res = resumed.run(limits, &mut NullObserver);
        assert!(!r_res.deadlocked && !r_res.cancelled);

        assert_eq!(r_res.stats.cycles, r_ref.stats.cycles);
        assert_eq!(
            r_res.stats.committed_per_thread,
            r_ref.stats.committed_per_thread
        );
        assert_eq!(
            resumed.save_snapshot(),
            ref_bytes,
            "resumed end state differs from uninterrupted run"
        );
    }

    #[test]
    fn resume_is_bit_identical_icount() {
        assert_resume_identity(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
    }

    #[test]
    fn resume_is_bit_identical_flush_mem_mix() {
        assert_resume_identity(["mcf", "equake", "vpr", "swim"], 1, FetchPolicyKind::Flush);
    }

    #[test]
    fn resume_is_bit_identical_pdg() {
        assert_resume_identity(["gcc", "mcf", "vpr", "perlbmk"], 2, FetchPolicyKind::Pdg);
    }

    #[test]
    fn invariants_hold_at_every_interval_boundary() {
        let mut p = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Flush);
        let mut boundaries = 0usize;
        let r = p.run_hooked(
            SimLimits::instructions(80_000),
            &mut NullObserver,
            &mut |p| {
                p.check_invariants().unwrap();
                boundaries += 1;
                HookAction::Continue
            },
        );
        assert!(!r.deadlocked);
        assert!(boundaries >= 2, "run crossed {boundaries} boundaries");
    }

    #[test]
    fn selfcheck_catches_corrupted_ace_counter() {
        let mut p = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
        p.run(SimLimits::cycles(3_000), &mut NullObserver);
        p.check_invariants().unwrap();
        p.corrupt_iq_ace_counter(crate::layout::ACE_INST_BITS as u64);
        let err = p.check_invariants().unwrap_err();
        assert!(
            err.contains("ACE-bit counter"),
            "diagnostic names the counter: {err}"
        );
    }

    #[test]
    fn selfcheck_catches_skewed_wakeup_state() {
        // Run to a cycle with both a selectable entry and an entry still
        // waiting on a producer, so every structure has something to skew.
        let mut p = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
        let waiting = |p: &Pipeline| {
            p.iq.iter().find_map(|id| {
                let producer = p.slab.get(id).waiting_on.iter().flatten().next();
                producer.map(|&producer| (id, producer))
            })
        };
        p.run(SimLimits::cycles(2_000), &mut NullObserver);
        while p.wakeup.selectable().is_empty() || waiting(&p).is_none() {
            p.step(&mut NullObserver);
        }
        let snap = p.save_snapshot();
        let restored = || {
            let mut q = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
            q.restore_snapshot(&snap).unwrap();
            q.check_invariants().unwrap();
            q
        };

        let mut q = restored();
        q.wakeup.executing += 1;
        let err = q.check_invariants().unwrap_err();
        assert!(err.contains("executing counters"), "{err}");

        let mut q = restored();
        let id = q.wakeup.selectable()[0].id;
        q.wakeup.selectable.remove(id);
        let err = q.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("IQ entry {id} "))
                && err.contains("missing from the selectable set"),
            "{err}"
        );

        let mut q = restored();
        let (id, producer) = waiting(&q).unwrap();
        q.wakeup.dependents[producer].retain(|&c| c != id);
        let err = q.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("IQ entry {id} ")) && err.contains("dependent list"),
            "{err}"
        );
    }

    #[test]
    fn any_flipped_bit_in_snapshot_is_rejected() {
        let mut p = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
        p.run(SimLimits::cycles(1_000), &mut NullObserver);
        let snap = p.save_snapshot();
        // Flip one bit in a handful of positions spread over the file
        // (the exhaustive sweep lives in sim-snapshot's own tests).
        for pos in [0, snap.len() / 3, snap.len() / 2, snap.len() - 1] {
            let mut bad = snap.clone();
            bad[pos] ^= 0x10;
            let mut q = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
            assert!(
                q.restore_snapshot(&bad).is_err(),
                "flipped bit at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn snapshot_bound_to_configuration() {
        let mut p = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Icount);
        p.run(SimLimits::cycles(1_000), &mut NullObserver);
        let snap = p.save_snapshot();
        // Different workload salt → different programs → rejected.
        let mut q = mini(["gcc", "mcf", "vpr", "perlbmk"], 7, FetchPolicyKind::Icount);
        assert!(matches!(
            q.restore_snapshot(&snap),
            Err(SnapError::ConfigMismatch { .. })
        ));
        // Different fetch policy → rejected.
        let mut q = mini(["gcc", "mcf", "vpr", "perlbmk"], 0, FetchPolicyKind::Stall);
        assert!(matches!(
            q.restore_snapshot(&snap),
            Err(SnapError::ConfigMismatch { .. })
        ));
    }
}
