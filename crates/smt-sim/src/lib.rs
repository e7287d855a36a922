//! # `smt-sim` — the out-of-order SMT pipeline
//!
//! A cycle-level simultaneous-multithreading processor model in the
//! M-Sim/SimpleScalar tradition, built from scratch for the issue-queue
//! reliability study. One [`Pipeline`] simulates the paper's Table 2
//! machine: 8-wide fetch/issue/commit, a 96-entry shared issue queue with
//! wakeup/select, per-thread 96-entry ROBs and 48-entry LSQs, the five
//! function-unit pools, gshare+BTB+RAS branch prediction and the shared
//! two-level cache hierarchy.
//!
//! Pipeline stages run back-to-front each cycle (commit → writeback →
//! issue → dispatch → fetch) so same-cycle structural hazards resolve
//! conservatively:
//!
//! ```text
//!  fetch ──► fetch queues ──► dispatch ──► IQ ──► issue ──► FUs ──► done
//!  (policy)  (per thread)     (governor)  (policy)                  │
//!     ▲                                                     commit ◄┘
//!     └───────── squash / redirect on mispredict & FLUSH ────────────
//! ```
//!
//! The three *policy seams* the paper's mechanisms plug into:
//!
//! * [`FetchPolicy`](fetch::FetchPolicy) — ICOUNT (default), STALL,
//!   FLUSH, DG and PDG are built in;
//! * [`IssuePolicy`](issue::IssuePolicy) — baseline oldest-first; the
//!   `iq-reliability` crate provides VISA;
//! * [`DispatchGovernor`](dispatch::DispatchGovernor) — baseline
//!   unlimited; `iq-reliability` provides opt1, opt2 and DVM.
//!
//! Vulnerability accounting attaches through [`events::SimObserver`]:
//! the pipeline reports each retired (committed or squashed) instruction
//! with its full per-structure residency timing, plus cheap per-cycle
//! aggregates (ready-queue composition, online hint-bit counts) that the
//! paper's DVM hardware would compute with counters.

pub mod cancel;
pub mod config;
mod dense;
pub mod dispatch;
pub mod events;
pub mod fetch;
pub mod fu;
pub mod iq;
pub mod issue;
pub mod layout;
pub mod pipeline;
pub mod scoreboard;
pub mod stats;
pub mod types;

pub use cancel::CancelToken;
pub use config::{MachineConfig, SimLimits, DEFAULT_WATCHDOG_CYCLES};
pub use dispatch::{DispatchGovernor, GovernorView, UnlimitedDispatch};
pub use events::{NullObserver, RetireEvent, RetireKind, SimObserver};
pub use fetch::{
    DataGating, FetchPolicy, FetchPolicyKind, Flush, Icount, PredictiveDataGating, Stall,
};
pub use issue::{IssuePolicy, OldestFirst, ReadyInst};
pub use layout::{iq_bit_class, IqBitClass};
pub use pipeline::inject::{
    AppliedFault, InjectableState, Occupant, RobBitKind, Structure, REGS_PER_THREAD,
};
pub use pipeline::{HookAction, Pipeline, SimResult, DEFAULT_INTERVAL_CYCLES};
pub use stats::{IntervalSnapshot, SimStats};
