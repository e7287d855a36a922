//! # `sim-harness` — resilient execution for long simulation campaigns
//!
//! The paper's evidence rests on multi-seed, multi-scheme campaigns
//! that run for hours; the execution layer therefore has to tolerate
//! failures instead of aborting on the first one. This crate supervises
//! campaign-shaped work — many independent, deterministic jobs fanned
//! out over a worker pool — with the reliability mechanisms the raw
//! `std::thread::scope` fan-out lacked:
//!
//! * **Panic isolation** — every job runs under `catch_unwind`; a
//!   panicking simulation becomes a typed [`JobError::Panic`] for *that
//!   job* instead of poisoning the whole campaign.
//! * **Wall-clock deadlines** — a monitor thread cancels overrunning
//!   jobs through the simulator's cooperative
//!   [`CancelToken`](smt_sim::CancelToken) (polled on the 10K-cycle
//!   interval clock), layering host-time bounds over the simulated
//!   commit watchdog.
//! * **Bounded retry with exponential backoff** — transient failures
//!   get [`HarnessConfig::max_attempts`] tries, spaced by [`Backoff`].
//! * **Quarantine** — jobs that keep failing are sidelined in a
//!   [`Quarantine`] registry; the campaign completes with an explicit
//!   quarantined section instead of dying.
//! * **Checkpoint–resume** — each completed job appends one record to a
//!   schema-versioned JSONL [`Journal`] keyed by
//!   [`JobKey`] `(exhibit, scheme, seed, config-hash)`; re-running the
//!   campaign against the same journal replays completed jobs from disk
//!   and only simulates the remainder. The journal is an [`AppendLog`],
//!   the one append-only format the run store's index shares: loading
//!   skips and counts a damaged line, and the next append seals a torn
//!   tail, so a crash at any byte boundary loses at most the job that
//!   was being written.
//! * **Mid-run snapshots** — jobs that honor
//!   [`HarnessConfig::snapshot_every`] persist versioned, checksummed
//!   pipeline snapshots through a rotating [`SnapshotStore`] and mark
//!   the journal `checkpointed`; a resumed campaign restores the latest
//!   valid snapshot (falling back past corrupt files, failing typed
//!   with [`JobError::Corrupt`] when none survive) and continues
//!   bit-identically instead of re-simulating from cycle zero.
//! * **Graceful interrupt** — a SIGINT or SIGTERM (see [`signal`])
//!   stops job claiming, drains or checkpoints in-flight work, and
//!   leaves the journal complete; a second signal exits immediately.
//!
//! Everything the supervisor does is observable: `harness.*` counters
//! land in a [`sim_metrics::Metrics`] registry and job lifecycle events
//! are emitted as [`sim_trace::TraceEvent::Harness`] records, so
//! retries and quarantines show up in run manifests and Chrome traces
//! next to the simulations they supervised.

pub mod append_log;
pub mod backoff;
pub mod error;
pub mod fsutil;
pub mod journal;
pub mod quarantine;
pub mod signal;
pub mod snapshot;
pub mod supervisor;

pub use append_log::{AppendLog, LogDamage, LogLines};
pub use backoff::Backoff;
pub use error::JobError;
pub use fsutil::{atomic_write, atomic_write_bytes, atomic_write_bytes_in, tmp_sibling};
pub use journal::{fnv1a, slugify, JobKey, Journal, JournalLoadStats, JOURNAL_SCHEMA_VERSION};
pub use quarantine::{Quarantine, QuarantineEntry};
pub use sim_chaos::{sweep_tmp_files, RealFs, Vfs};
pub use snapshot::{LoadedSnapshot, SnapshotStore};
pub use supervisor::{
    default_jobs, format_heartbeat, run_journaled, run_journaled_in, run_supervised,
    set_default_jobs, CampaignOutcome, HarnessConfig, HarnessObservers, HarnessStats, JobCtx,
    JobOutcome,
};
