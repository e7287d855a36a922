//! Event-driven wakeup and select bookkeeping.
//!
//! The issue stage needs, every cycle, the IQ entries it may select and
//! how many entries are already executing; writeback needs the entries
//! waiting on the completing instruction. Scanning the whole IQ for
//! either would make each cycle cost the queue size. Instead this state
//! is kept up to date at the transitions that change it, so the tick
//! costs what happens — dispatches, completions, issues, squashes:
//!
//! * `dependents[p]` lists the consumers that named producer `p` in
//!   `waiting_on` at dispatch. Writeback walks only that list. Entries
//!   of squashed consumers are left behind and skipped on the walk: a
//!   recycled id is woken only if its `waiting_on` still names `p`.
//! * `selectable` holds, as ready-list records, every IQ entry issue
//!   select may pick: dispatched, operands ready, not `inhibit_issue`.
//! * `executing`/`executing_ace` count IQ entries already issued (the
//!   RUU model keeps an entry allocated until writeback).
//!
//! All of it is derived from the IQ and the slab. It is never
//! serialized: [`WakeupState::rebuild`] reconstructs it after a restore,
//! and [`WakeupState::check`] recomputes it for `--selfcheck`.

use crate::dense::{DenseSet, Keyed};
use crate::iq::IssueQueue;
use crate::issue::ReadyInst;
use crate::types::{InstId, InstInfo, InstSlab, InstStage};

impl Keyed for ReadyInst {
    fn key(&self) -> InstId {
        self.id
    }
}

fn ready_inst(id: InstId, info: &InstInfo) -> ReadyInst {
    ReadyInst {
        id,
        seq: info.inst.seq,
        tid: info.inst.tid,
        op: info.inst.op,
        ace_hint: info.inst.ace_hint,
        wrong_path: info.inst.wrong_path,
    }
}

fn is_selectable(info: &InstInfo) -> bool {
    info.stage == InstStage::Dispatched && info.sources_ready() && !info.inhibit_issue
}

#[derive(Default)]
pub(super) struct WakeupState {
    pub(super) dependents: Vec<Vec<InstId>>,
    pub(super) selectable: DenseSet<ReadyInst>,
    pub(super) executing: usize,
    pub(super) executing_ace: usize,
}

impl WakeupState {
    /// The entries issue select may pick this cycle (unordered).
    pub fn selectable(&self) -> &[ReadyInst] {
        self.selectable.as_slice()
    }

    /// IQ entries already issued, and how many of them are ACE-hinted.
    pub fn executing(&self) -> (usize, usize) {
        (self.executing, self.executing_ace)
    }

    /// `id` entered the IQ with its `waiting_on` filled in.
    pub fn on_dispatch(&mut self, id: InstId, info: &InstInfo) {
        let [a, b] = info.waiting_on;
        if let Some(p) = a {
            self.dependents_of(p).push(id);
        }
        // Both sources may name the same producer; list the consumer once.
        if let Some(p) = b.filter(|&p| a != Some(p)) {
            self.dependents_of(p).push(id);
        }
        if is_selectable(info) {
            self.selectable.push(ready_inst(id, info));
        }
    }

    /// Producer `id` completed: clear it from its consumers' operand
    /// waits and make every consumer that has no wait left selectable.
    pub fn wake_dependents(&mut self, id: InstId, slab: &mut InstSlab) {
        let Some(list) = self.dependents.get_mut(id) else {
            return;
        };
        for &c in list.iter() {
            if !slab.contains(c) {
                continue;
            }
            let info = slab.get_mut(c);
            let mut woke = false;
            for w in &mut info.waiting_on {
                if *w == Some(id) {
                    *w = None;
                    woke = true;
                }
            }
            if woke && is_selectable(info) {
                self.selectable.push(ready_inst(c, info));
            }
        }
        list.clear();
    }

    /// `r` was issued: it leaves the selectable set and starts executing.
    pub fn on_issue(&mut self, r: &ReadyInst) {
        self.selectable.remove(r.id);
        self.executing += 1;
        if r.ace_hint {
            self.executing_ace += 1;
        }
    }

    /// IQ entry `id`, in `stage` before the transition, was freed (at
    /// writeback or squash) or lost its right to issue (`inhibit_issue`).
    pub fn on_leave(&mut self, id: InstId, stage: InstStage, ace_hint: bool) {
        match stage {
            InstStage::Issued => {
                self.executing -= 1;
                if ace_hint {
                    self.executing_ace -= 1;
                }
            }
            InstStage::Dispatched => {
                self.selectable.remove(id);
            }
            InstStage::Fetched | InstStage::Completed => {}
        }
    }

    /// The record of `id` is being freed by a squash: drop the consumers
    /// it would have woken (they are younger, so squashed with it). The
    /// list keeps its capacity for the next instruction in that slot.
    pub fn forget_producer(&mut self, id: InstId) {
        if let Some(list) = self.dependents.get_mut(id) {
            list.clear();
        }
    }

    fn dependents_of(&mut self, producer: InstId) -> &mut Vec<InstId> {
        if producer >= self.dependents.len() {
            self.dependents.resize_with(producer + 1, Vec::new);
        }
        &mut self.dependents[producer]
    }

    /// Reconstruct everything from the IQ, whose entries are live, and
    /// the slab (after a restore). Fails on an operand wait that names a
    /// dead slab slot.
    pub fn rebuild(&mut self, iq: &IssueQueue, slab: &InstSlab) -> Result<(), String> {
        for list in &mut self.dependents {
            list.clear();
        }
        self.selectable.clear();
        self.executing = 0;
        self.executing_ace = 0;
        for id in iq.iter() {
            let info = slab.get(id);
            if let Some(p) = info
                .waiting_on
                .iter()
                .flatten()
                .find(|&&p| !slab.contains(p))
            {
                return Err(format!("IQ entry {id} waits on dead producer {p}"));
            }
            match info.stage {
                InstStage::Dispatched => self.on_dispatch(id, info),
                InstStage::Issued => {
                    self.executing += 1;
                    if info.inst.ace_hint {
                        self.executing_ace += 1;
                    }
                }
                InstStage::Fetched | InstStage::Completed => {}
            }
        }
        Ok(())
    }

    /// Recompute the selectable set, the executing counters and the
    /// dependent lists from the IQ, and name the first difference. The
    /// caller has checked that every IQ entry is live.
    pub fn check(&self, iq: &IssueQueue, slab: &InstSlab) -> Result<(), String> {
        self.selectable
            .check_index()
            .map_err(|e| format!("selectable-set index: {e}"))?;
        let (mut selectable, mut executing, mut executing_ace) = (0usize, 0usize, 0usize);
        for id in iq.iter() {
            let info = slab.get(id);
            let seq = info.inst.seq;
            match (is_selectable(info), self.selectable.get(id)) {
                (true, None) => {
                    return Err(format!(
                        "IQ entry {id} (seq {seq}) is selectable but missing from the \
                         selectable set"
                    ))
                }
                (false, Some(_)) => {
                    return Err(format!(
                        "IQ entry {id} (seq {seq}) is in the selectable set but is not selectable \
                         (stage {:?}, waiting on {:?}, inhibited {})",
                        info.stage, info.waiting_on, info.inhibit_issue
                    ))
                }
                (true, Some(r)) if *r != ready_inst(id, info) => {
                    return Err(format!(
                        "selectable record of IQ entry {id} (seq {seq}) is stale: {r:?}"
                    ))
                }
                (true, Some(_)) => selectable += 1,
                (false, None) => {}
            }
            if info.stage == InstStage::Issued {
                executing += 1;
                if info.inst.ace_hint {
                    executing_ace += 1;
                }
            }
            for &p in info.waiting_on.iter().flatten() {
                if !slab.contains(p) || slab.get(p).stage == InstStage::Completed {
                    return Err(format!(
                        "IQ entry {id} (seq {seq}) waits on producer {p}, which is dead or \
                         completed"
                    ));
                }
                if !self.dependents.get(p).is_some_and(|l| l.contains(&id)) {
                    return Err(format!(
                        "IQ entry {id} (seq {seq}) waits on producer {p} but is missing from \
                         its dependent list"
                    ));
                }
            }
        }
        if selectable != self.selectable.len() {
            return Err(format!(
                "selectable set holds {} entries, {selectable} IQ entries are selectable",
                self.selectable.len()
            ));
        }
        if (executing, executing_ace) != (self.executing, self.executing_ace) {
            return Err(format!(
                "executing counters {}/{} (ACE) != {executing}/{executing_ace} issued IQ entries",
                self.executing, self.executing_ace
            ));
        }
        Ok(())
    }
}
