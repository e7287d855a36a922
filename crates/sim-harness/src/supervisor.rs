//! The supervised worker pool: claim → attempt → classify → retry →
//! quarantine, with deadlines enforced by a monitor thread and results
//! streamed back to the caller in input-slot order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim_metrics::Metrics;
use sim_trace::{TraceEvent, Tracer};
use smt_sim::CancelToken;

use crate::error::JobError;
use crate::journal::{JobKey, Journal};
use crate::signal;

/// Supervision policy for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Attempts per job (>= 1). A failed attempt is retried at once; a
    /// job whose every attempt failed is quarantined.
    pub max_attempts: u32,
    /// Wall-clock budget per attempt; `None` disables the monitor.
    pub deadline: Option<Duration>,
    /// Worker-pool width; `None` falls back to [`default_jobs`].
    pub jobs: Option<usize>,
    /// Cadence of the live progress line on stderr (jobs done/total,
    /// aggregate simulated throughput, ETA); `None` keeps the campaign
    /// silent. When stderr is a terminal the line overwrites itself in
    /// place; otherwise each beat appends a plain line (log-friendly).
    pub heartbeat: Option<Duration>,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            max_attempts: 3,
            deadline: None,
            jobs: None,
            heartbeat: None,
        }
    }
}

/// Per-attempt context handed to the job closure. Long-running jobs
/// should thread `cancel` into their [`smt_sim::Pipeline`] (via
/// `set_cancel_token`) so deadline enforcement can actually stop them.
pub struct JobCtx {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Cooperative cancellation token for this attempt.
    pub cancel: CancelToken,
    /// Campaign-wide simulated-cycle counter, shared by every job of
    /// the campaign. Jobs that simulate should add the cycles they
    /// retire (`smt_sim::Pipeline::set_progress_counter` does this at
    /// interval granularity) so the heartbeat can report aggregate
    /// throughput; jobs that don't can ignore it.
    pub progress: Arc<AtomicU64>,
    deadline_hit: Arc<AtomicBool>,
}

impl JobCtx {
    /// True once the monitor thread has expired this attempt's
    /// wall-clock deadline (the cancel token fires at the same moment).
    pub fn deadline_expired(&self) -> bool {
        self.deadline_hit.load(Ordering::Acquire)
    }
}

/// Final disposition of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<R> {
    Completed {
        value: R,
        /// Attempts actually executed (0 when replayed from journal).
        attempts: u32,
        /// True when the value came from the checkpoint journal.
        from_journal: bool,
    },
    /// Every one of the job's `max_attempts` attempts failed.
    Quarantined { error: JobError, attempts: u32 },
    /// Unfinished: a shutdown was requested before the job was claimed,
    /// while an attempt ran, or before a retry. A resume re-runs it.
    Skipped,
}

impl<R> JobOutcome<R> {
    pub fn value(&self) -> Option<&R> {
        match self {
            JobOutcome::Completed { value, .. } => Some(value),
            _ => None,
        }
    }
}

/// The supervisor's one ledger of a campaign. Manifests embed it, and
/// [`run_supervised`] and [`run_journaled_in`] publish each nonzero
/// count as its `harness.*` counter when they return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarnessStats {
    pub completed: u64,
    pub resumed: u64,
    pub retries: u64,
    pub panics: u64,
    pub deadlines: u64,
    pub watchdogs: u64,
    pub diverged: u64,
    pub io_errors: u64,
    pub corrupt: u64,
    pub quarantined: u64,
    pub skipped: u64,
}

impl HarnessStats {
    fn count_failure(&mut self, err: &JobError) {
        match err {
            JobError::Panic { .. } => self.panics += 1,
            JobError::Deadline { .. } => self.deadlines += 1,
            JobError::Watchdog { .. } => self.watchdogs += 1,
            JobError::Diverged { .. } => self.diverged += 1,
            JobError::Io { .. } => self.io_errors += 1,
            JobError::Corrupt { .. } => self.corrupt += 1,
        }
    }

    /// Each count under its `harness.*` counter name.
    fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("harness.jobs_completed", self.completed),
            ("harness.jobs_resumed", self.resumed),
            ("harness.retries", self.retries),
            ("harness.failures.panic", self.panics),
            ("harness.failures.deadline", self.deadlines),
            ("harness.failures.watchdog", self.watchdogs),
            ("harness.failures.diverged", self.diverged),
            ("harness.failures.io", self.io_errors),
            ("harness.failures.corrupt", self.corrupt),
            ("harness.jobs_quarantined", self.quarantined),
            ("harness.jobs_skipped", self.skipped),
        ]
    }

    /// Add every nonzero count to `metrics`; a zero creates no counter.
    fn publish(&self, metrics: &Metrics) {
        for (name, n) in self.counters() {
            if n > 0 {
                metrics.counter_add(name, n);
            }
        }
    }
}

/// One quarantined job, as reported in the campaign manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    pub key: JobKey,
    /// Failed attempts: the campaign's `max_attempts`.
    pub failures: u32,
    /// The last error observed — usually the most informative one.
    pub error: JobError,
}

/// Everything a campaign produced, including what it could *not*
/// produce: quarantined jobs are listed explicitly instead of silently
/// missing from the results.
#[derive(Debug)]
pub struct CampaignOutcome<R> {
    /// One entry per input item, in input order.
    pub jobs: Vec<(JobKey, JobOutcome<R>)>,
    /// True when a shutdown request (SIGINT or injected flag) stopped
    /// the campaign before every job was attempted.
    pub interrupted: bool,
    pub stats: HarnessStats,
    /// The [`JobOutcome::Quarantined`] jobs, in input order.
    pub quarantine: Vec<QuarantineEntry>,
    /// Aggregate simulated cycles reported by jobs through
    /// [`JobCtx::progress`] (0 when no job wires the counter).
    pub simulated_cycles: u64,
}

impl<R> CampaignOutcome<R> {
    /// The outcome of `jobs`, given in input order.
    fn new(
        jobs: Vec<(JobKey, JobOutcome<R>)>,
        interrupted: bool,
        stats: HarnessStats,
        simulated_cycles: u64,
    ) -> CampaignOutcome<R> {
        let quarantine = jobs
            .iter()
            .filter_map(|(key, outcome)| match outcome {
                JobOutcome::Quarantined { error, attempts } => Some(QuarantineEntry {
                    key: key.clone(),
                    failures: *attempts,
                    error: error.clone(),
                }),
                _ => None,
            })
            .collect();
        CampaignOutcome {
            jobs,
            interrupted,
            stats,
            quarantine,
            simulated_cycles,
        }
    }

    /// Completed values in input order (journal replays included).
    pub fn values(&self) -> Vec<&R> {
        self.jobs.iter().filter_map(|(_, o)| o.value()).collect()
    }

    pub fn fully_completed(&self) -> bool {
        !self.interrupted && self.quarantine.is_empty() && self.stats.skipped == 0
    }

    /// Process exit status under the campaign exit-code contract
    /// ([`signal::campaign_exit_code`]).
    pub fn exit_code(&self) -> i32 {
        signal::campaign_exit_code(self.interrupted, self.quarantine.len())
    }
}

/// Observability wiring plus the shutdown source. With `shutdown:
/// None` the supervisor watches the process-global SIGINT flag (see
/// [`signal`]); tests inject their own flag so parallel test runs
/// cannot interfere with each other.
#[derive(Clone, Default)]
pub struct HarnessObservers {
    pub metrics: Metrics,
    pub tracer: Tracer,
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Campaign-wide simulated-cycle counter. When set, the supervisor
    /// hands this exact counter to every [`JobCtx`] (so a caller that
    /// also wires it into its pipelines sees one aggregate figure);
    /// when unset the supervisor allocates a private one per campaign.
    pub progress: Option<Arc<AtomicU64>>,
}

impl HarnessObservers {
    pub fn off() -> HarnessObservers {
        HarnessObservers {
            metrics: Metrics::off(),
            tracer: Tracer::off(),
            shutdown: None,
            progress: None,
        }
    }

    fn shutdown_requested(&self) -> bool {
        match &self.shutdown {
            Some(flag) => flag.load(Ordering::SeqCst),
            None => signal::interrupted(),
        }
    }
}

static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default worker count (the CLI's `--jobs`).
/// Zero restores auto-detection.
pub fn set_default_jobs(n: usize) {
    DEFAULT_JOBS.store(n, Ordering::SeqCst);
}

/// The worker count used when [`HarnessConfig::jobs`] is `None`: the
/// value from [`set_default_jobs`], else `available_parallelism`.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

const C_JOURNAL_TORN: &str = "harness.journal.torn_records";
const C_JOURNAL_WRONG_VERSION: &str = "harness.journal.wrong_version_records";
const C_JOURNAL_WRITE_ERRORS: &str = "harness.journal.write_errors";

#[cfg(unix)]
extern "C" {
    // Raw POSIX declaration — the build environment has no `libc`
    // crate (same approach as [`signal`]).
    fn isatty(fd: i32) -> i32;
}

/// True when stderr is a terminal, in which case heartbeat lines
/// overwrite themselves with `\r`. Non-Unix targets conservatively
/// report false and get plain appended lines.
fn stderr_is_tty() -> bool {
    #[cfg(unix)]
    unsafe {
        isatty(2) == 1
    }
    #[cfg(not(unix))]
    false
}

/// Render one heartbeat line: jobs done/total, aggregate simulated
/// throughput, elapsed wall clock, and a completion-rate ETA once at
/// least one job has finished. Pure so tests can pin the format
/// without a terminal.
pub fn format_heartbeat(done: u64, total: u64, elapsed: Duration, cycles: u64) -> String {
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mcps = cycles as f64 / secs / 1.0e6;
    let eta = if done > 0 && done < total {
        let remaining = secs / done as f64 * (total - done) as f64;
        format!(", eta {}", fmt_secs(remaining))
    } else {
        String::new()
    };
    format!(
        "[harness] {done}/{total} jobs, {mcps:.2} Mcyc/s, elapsed {}{eta}",
        fmt_secs(secs)
    )
}

fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!(
            "{}h{:02}m",
            (s / 3600.0) as u64,
            ((s % 3600.0) / 60.0) as u64
        )
    } else if s >= 60.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    } else {
        format!("{s:.0}s")
    }
}

/// A monitor-board slot for one in-flight attempt: its wall-clock
/// expiry (when a deadline is configured), its token to cancel, and
/// the flag that re-classifies its failure as `Deadline`. The monitor
/// also fires the token on a shutdown request, so an interrupted
/// checkpointing job stops at its next snapshot boundary instead of
/// running its full budget out.
type DeadlineSlot = Option<(Option<Instant>, CancelToken, Arc<AtomicBool>)>;

/// Run `items` through the supervised pool. `f` is invoked as
/// `f(&item, &ctx)` and may fail typed (`Err(JobError)`), panic, or
/// overrun its deadline — all three become per-job outcomes rather
/// than campaign aborts. `on_complete` fires on the *caller's* thread,
/// in completion order, once per freshly completed job (journaling
/// hook). Results come back in input-slot order, which callers that
/// fold floating-point summaries rely on for determinism. With
/// `jobs = 1` the campaign is strictly serial end to end: each job's
/// `on_complete` finishes before the next job starts, so the combined
/// filesystem-operation order is a pure function of the inputs.
pub fn run_supervised<T, R, F, C>(
    items: Vec<(JobKey, T)>,
    f: F,
    cfg: &HarnessConfig,
    obs: &HarnessObservers,
    on_complete: C,
) -> CampaignOutcome<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T, &JobCtx) -> Result<R, JobError> + Sync,
    C: FnMut(&JobKey, &R),
{
    let outcome = supervise(items, f, cfg, obs, on_complete);
    outcome.stats.publish(&obs.metrics);
    outcome
}

/// [`run_supervised`] without publishing its stats.
fn supervise<T, R, F, C>(
    items: Vec<(JobKey, T)>,
    f: F,
    cfg: &HarnessConfig,
    obs: &HarnessObservers,
    mut on_complete: C,
) -> CampaignOutcome<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T, &JobCtx) -> Result<R, JobError> + Sync,
    C: FnMut(&JobKey, &R),
{
    let n = items.len();
    let workers = cfg.jobs.unwrap_or_else(default_jobs).max(1).min(n.max(1));
    let max_attempts = cfg.max_attempts.max(1);
    let started_at = Instant::now();

    let stats = Mutex::new(HarnessStats::default());
    let progress = obs
        .progress
        .clone()
        .unwrap_or_else(|| Arc::new(AtomicU64::new(0)));
    let next = AtomicUsize::new(0);
    let board: Vec<Mutex<DeadlineSlot>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let monitor_stop = AtomicBool::new(false);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, JobOutcome<R>)>();
    // A single-worker campaign is strictly serial: job N's completion
    // hook (the journal append) must land before job N+1 performs its
    // first filesystem operation, or the combined op order becomes
    // scheduling-dependent — which breaks consumers that derive
    // deterministic schedules from the op stream (the chaos torture
    // loop keys its fault schedule on op index). The ack channel
    // makes the worker wait for the drain loop to process each
    // completion before claiming the next item; multi-worker pools
    // interleave anyway, so they skip the rendezvous.
    let serial = workers == 1;
    let (ack_tx, ack_rx) = crossbeam::channel::unbounded::<()>();
    // mpsc receivers are !Sync; the lock is uncontended (one worker).
    let ack_rx = Mutex::new(ack_rx);

    let mut slots: Vec<Option<JobOutcome<R>>> = (0..n).map(|_| None).collect();

    let at_ms = |t: Instant| t.duration_since(started_at).as_millis() as u64;
    let trace = |key: &JobKey, attempt: u32, phase: &str, detail: &str| {
        obs.tracer.emit(|| TraceEvent::Harness {
            at_ms: at_ms(Instant::now()),
            job: key.slug(),
            attempt,
            phase: phase.to_string(),
            detail: detail.to_string(),
        });
    };

    std::thread::scope(|scope| {
        // Monitor: cancels any attempt whose wall-clock budget expired,
        // and — on a shutdown request — cancels every in-flight attempt
        // so cooperative jobs stop (having checkpointed) at their next
        // interval boundary instead of draining their full budget.
        // Spawned unconditionally: with `obs.shutdown` unset the
        // shutdown source is the process-global SIGINT/SIGTERM flag,
        // which can flip at any moment.
        {
            let board = &board;
            let monitor_stop = &monitor_stop;
            scope.spawn(move || {
                while !monitor_stop.load(Ordering::SeqCst) {
                    let shutdown = obs.shutdown_requested();
                    for slot in board {
                        let mut slot = slot.lock();
                        if let Some((expires, token, hit)) = slot.as_ref() {
                            if expires.is_some_and(|at| Instant::now() >= at) {
                                hit.store(true, Ordering::Release);
                                token.cancel();
                                *slot = None;
                            } else if shutdown {
                                // Not a deadline: leave `hit` unset so
                                // the worker classifies the fallout as
                                // an interrupt, not a timeout.
                                token.cancel();
                                *slot = None;
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }

        // Heartbeat: a live progress line on stderr. Spawned only when
        // configured; polls the stop flag in small slices so it never
        // delays scope teardown by more than ~25ms.
        if let Some(every) = cfg.heartbeat {
            let stats = &stats;
            let monitor_stop = &monitor_stop;
            let progress = &progress;
            scope.spawn(move || {
                let tty = stderr_is_tty();
                let mut printed = false;
                let mut next_beat = Instant::now() + every;
                while !monitor_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(25));
                    if Instant::now() < next_beat {
                        continue;
                    }
                    next_beat += every;
                    let done = {
                        let s = stats.lock();
                        s.completed + s.quarantined
                    };
                    let line = format_heartbeat(
                        done,
                        n as u64,
                        started_at.elapsed(),
                        progress.load(Ordering::Relaxed),
                    );
                    if tty {
                        // Overwrite in place; clear the tail in case the
                        // previous line was longer.
                        eprint!("\r{line}\x1b[K");
                        printed = true;
                    } else {
                        eprintln!("{line}");
                    }
                }
                if printed {
                    // Leave the cursor on a fresh line for whatever the
                    // caller prints next.
                    eprintln!();
                }
            });
        }

        for worker_id in 0..workers {
            let tx = tx.clone();
            let ack_rx = &ack_rx;
            let items = &items;
            let f = &f;
            let next = &next;
            let stats = &stats;
            let board = &board;
            let trace = &trace;
            let progress = &progress;
            scope.spawn(move || {
                loop {
                    if obs.shutdown_requested() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    let (key, item) = &items[i];
                    let mut attempt = 0u32;
                    let outcome = loop {
                        attempt += 1;
                        if attempt > 1 {
                            // The jobs are deterministic, so waiting before
                            // a retry changes nothing: retry at once. A
                            // shutdown leaves the job unfinished instead.
                            if obs.shutdown_requested() {
                                trace(key, attempt - 1, "interrupted", "before a retry");
                                break JobOutcome::Skipped;
                            }
                            stats.lock().retries += 1;
                            trace(key, attempt, "retried", "");
                        }

                        let cancel = CancelToken::new();
                        let deadline_hit = Arc::new(AtomicBool::new(false));
                        let ctx = JobCtx {
                            attempt,
                            cancel: cancel.clone(),
                            progress: Arc::clone(progress),
                            deadline_hit: Arc::clone(&deadline_hit),
                        };
                        *board[worker_id].lock() = Some((
                            cfg.deadline.map(|budget| Instant::now() + budget),
                            cancel,
                            Arc::clone(&deadline_hit),
                        ));
                        trace(key, attempt, "started", "");
                        let result = catch_unwind(AssertUnwindSafe(|| f(item, &ctx)));
                        *board[worker_id].lock() = None;

                        let result = match result {
                            Ok(Ok(value)) => Ok(value),
                            Ok(Err(_)) | Err(_) if ctx.deadline_expired() => {
                                // The deadline fired during this attempt;
                                // whatever error surfaced is downstream
                                // fallout of the cancellation.
                                Err(JobError::Deadline {
                                    limit_ms: cfg
                                        .deadline
                                        .map(|d| d.as_millis() as u64)
                                        .unwrap_or(0),
                                })
                            }
                            Ok(Err(err)) => Err(err),
                            Err(payload) => Err(JobError::from_panic(payload)),
                        };

                        match result {
                            Ok(value) => {
                                stats.lock().completed += 1;
                                trace(key, attempt, "completed", "");
                                break JobOutcome::Completed {
                                    value,
                                    attempts: attempt,
                                    from_journal: false,
                                };
                            }
                            Err(err) if !ctx.deadline_expired() && obs.shutdown_requested() => {
                                // The monitor cancelled this attempt for
                                // the interrupt; the job is unfinished,
                                // not failed. Leave it skipped so a
                                // resume re-runs it — from its latest
                                // snapshot, if it wrote any.
                                trace(key, attempt, "interrupted", &err.to_string());
                                break JobOutcome::Skipped;
                            }
                            Err(err) => {
                                stats.lock().count_failure(&err);
                                trace(key, attempt, "failed", &err.to_string());
                                if attempt >= max_attempts {
                                    stats.lock().quarantined += 1;
                                    trace(key, attempt, "quarantined", &err.to_string());
                                    break JobOutcome::Quarantined {
                                        error: err,
                                        attempts: attempt,
                                    };
                                }
                            }
                        }
                    };
                    if tx.send((i, outcome)).is_err() {
                        break;
                    }
                    // Serial campaigns rendezvous with the drain loop:
                    // don't start the next job until this one's
                    // completion hook has run.
                    if serial && ack_rx.lock().recv().is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Drain on the caller's thread so `on_complete` (the journal
        // hook) needs no synchronization of its own.
        while let Ok((idx, outcome)) = rx.recv() {
            if let JobOutcome::Completed {
                value,
                from_journal: false,
                ..
            } = &outcome
            {
                on_complete(&items[idx].0, value);
            }
            slots[idx] = Some(outcome);
            if serial {
                let _ = ack_tx.send(());
            }
        }
        monitor_stop.store(true, Ordering::SeqCst);
    });

    let interrupted = obs.shutdown_requested();
    let mut stats = stats.into_inner();
    let jobs: Vec<(JobKey, JobOutcome<R>)> = items
        .into_iter()
        .zip(slots)
        .map(|((key, _), slot)| (key, slot.unwrap_or(JobOutcome::Skipped)))
        .collect();
    stats.skipped = jobs
        .iter()
        .filter(|(_, o)| matches!(o, JobOutcome::Skipped))
        .count() as u64;

    // Flush the trace sink on the way out — an interrupted campaign
    // exits shortly after this drain, and a buffered JSONL sink would
    // otherwise lose (or tear) the final harness records.
    obs.tracer.flush();

    CampaignOutcome::new(jobs, interrupted, stats, progress.load(Ordering::Relaxed))
}

/// [`run_supervised`] plus checkpoint–resume: completed jobs found in
/// `dir/journal.jsonl` are replayed from disk without re-simulating,
/// and every fresh completion is appended to the journal before the
/// campaign moves on — so an interrupted campaign re-run with the same
/// directory picks up exactly where it stopped.
pub fn run_journaled<T, R, F>(
    dir: &Path,
    items: Vec<(JobKey, T)>,
    f: F,
    cfg: &HarnessConfig,
    obs: &HarnessObservers,
) -> Result<CampaignOutcome<R>, JobError>
where
    T: Send + Sync,
    R: Send + Serialize + Deserialize,
    F: Fn(&T, &JobCtx) -> Result<R, JobError> + Sync,
{
    let journal = Mutex::new(Journal::open(dir)?);
    run_journaled_in(&journal, items, f, cfg, obs)
}

/// [`run_journaled`] against a journal the caller opened (and keeps a
/// handle to). Campaigns whose job closures write their own journal
/// records mid-run — `checkpointed` markers at snapshot boundaries —
/// share one `Mutex<Journal>` between this supervisor (which appends
/// `done` records as jobs complete) and the closures, so every append
/// lands in the same serialized stream.
pub fn run_journaled_in<T, R, F>(
    journal: &Mutex<Journal>,
    items: Vec<(JobKey, T)>,
    f: F,
    cfg: &HarnessConfig,
    obs: &HarnessObservers,
) -> Result<CampaignOutcome<R>, JobError>
where
    T: Send + Sync,
    R: Send + Serialize + Deserialize,
    F: Fn(&T, &JobCtx) -> Result<R, JobError> + Sync,
{
    let load = journal.lock().load_stats();
    if load.torn > 0 {
        obs.metrics.counter_add(C_JOURNAL_TORN, load.torn as u64);
    }
    if load.wrong_version > 0 {
        obs.metrics
            .counter_add(C_JOURNAL_WRONG_VERSION, load.wrong_version as u64);
    }

    let started_at = Instant::now();
    // Each input's key with its journaled value, if it has one; the
    // rest run fresh, in input order.
    let mut replayed: Vec<(JobKey, Option<R>)> = Vec::new();
    let mut fresh: Vec<(JobKey, T)> = Vec::new();
    for (key, item) in items {
        match journal.lock().decode::<R>(&key) {
            Some(Ok(value)) => {
                obs.tracer.emit(|| TraceEvent::Harness {
                    at_ms: started_at.elapsed().as_millis() as u64,
                    job: key.slug(),
                    attempt: 0,
                    phase: "resumed".to_string(),
                    detail: "replayed from journal".to_string(),
                });
                replayed.push((key, Some(value)));
            }
            // An undecodable payload is treated as absent: re-run it.
            Some(Err(_)) | None => {
                fresh.push((key.clone(), item));
                replayed.push((key, None));
            }
        }
    }

    let sub = supervise(fresh, f, cfg, obs, |key, value: &R| {
        if journal.lock().record(key, value).is_err() {
            obs.metrics.counter_add(C_JOURNAL_WRITE_ERRORS, 1);
        }
    });

    // Reassemble into input order: journal replays and fresh outcomes
    // interleave exactly as the caller enumerated the items.
    let mut stats = sub.stats;
    let mut fresh_outcomes = sub.jobs.into_iter().map(|(_, outcome)| outcome);
    let jobs: Vec<(JobKey, JobOutcome<R>)> = replayed
        .into_iter()
        .map(|(key, value)| {
            let outcome = match value {
                Some(value) => {
                    stats.resumed += 1;
                    JobOutcome::Completed {
                        value,
                        attempts: 0,
                        from_journal: true,
                    }
                }
                None => fresh_outcomes.next().expect("one outcome per fresh job"),
            };
            (key, outcome)
        })
        .collect();
    stats.publish(&obs.metrics);
    Ok(CampaignOutcome::new(
        jobs,
        sub.interrupted,
        stats,
        sub.simulated_cycles,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::fnv1a;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::fs;
    use std::path::PathBuf;

    fn key(seed: u64) -> JobKey {
        JobKey::new("test", "unit", seed, fnv1a("supervisor-tests"))
    }

    fn items(n: u64) -> Vec<(JobKey, u64)> {
        (0..n).map(|s| (key(s), s)).collect()
    }

    fn obs_with_flag() -> (HarnessObservers, Arc<AtomicBool>) {
        let flag = Arc::new(AtomicBool::new(false));
        let obs = HarnessObservers {
            metrics: Metrics::new(),
            tracer: Tracer::off(),
            shutdown: Some(Arc::clone(&flag)),
            progress: None,
        };
        (obs, flag)
    }

    fn fast_cfg() -> HarnessConfig {
        HarnessConfig {
            jobs: Some(2),
            ..HarnessConfig::default()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sim-harness-supervisor")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn results_come_back_in_slot_order() {
        let (obs, _) = obs_with_flag();
        let out = run_supervised(
            items(8),
            |seed, _ctx| Ok::<u64, JobError>(seed * 2),
            &fast_cfg(),
            &obs,
            |_, _: &u64| {},
        );
        assert!(out.fully_completed());
        assert_eq!(out.exit_code(), 0);
        let values: Vec<u64> = out.values().into_iter().copied().collect();
        assert_eq!(values, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(out.stats.completed, 8);
    }

    #[test]
    fn panicking_job_is_quarantined_not_fatal() {
        let (obs, _) = obs_with_flag();
        let out = run_supervised(
            items(3),
            |seed: &u64, _ctx| {
                if *seed == 1 {
                    panic!("seed 1 explodes");
                }
                Ok::<u64, JobError>(*seed)
            },
            &fast_cfg(),
            &obs,
            |_, _: &u64| {},
        );
        assert!(!out.interrupted);
        assert_eq!(out.exit_code(), signal::EXIT_PARTIAL, "partial completion");
        assert_eq!(out.quarantine.len(), 1);
        assert_eq!(out.quarantine[0].key, key(1));
        assert!(matches!(
            out.quarantine[0].error,
            JobError::Panic { ref message } if message.contains("seed 1 explodes")
        ));
        assert_eq!(out.stats.completed, 2);
        assert_eq!(out.stats.quarantined, 1);
        assert_eq!(out.stats.panics, 3, "one per attempt");
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("harness.jobs_completed"), Some(2));
        assert_eq!(snap.counter("harness.failures.panic"), Some(3));
        assert_eq!(snap.counter("harness.jobs_quarantined"), Some(1));
    }

    #[test]
    fn flaky_job_succeeds_on_retry() {
        let (obs, _) = obs_with_flag();
        let attempts_seen = Mutex::new(HashMap::<u64, u32>::new());
        let out = run_supervised(
            items(4),
            |seed: &u64, ctx| {
                *attempts_seen.lock().entry(*seed).or_insert(0) += 1;
                if *seed == 2 && ctx.attempt < 3 {
                    return Err(JobError::Io {
                        detail: "transient".into(),
                    });
                }
                Ok::<u64, JobError>(*seed + 100)
            },
            &fast_cfg(),
            &obs,
            |_, _: &u64| {},
        );
        assert!(out.fully_completed());
        assert_eq!(out.values().len(), 4);
        assert_eq!(out.stats.retries, 2);
        assert_eq!(out.stats.io_errors, 2);
        assert_eq!(attempts_seen.lock()[&2], 3);
        match &out.jobs[2].1 {
            JobOutcome::Completed {
                attempts,
                from_journal,
                ..
            } => {
                assert_eq!(*attempts, 3);
                assert!(!from_journal);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("harness.retries"), Some(2));
    }

    #[test]
    fn deadline_cancels_overrunning_job() {
        let (obs, _) = obs_with_flag();
        let cfg = HarnessConfig {
            max_attempts: 1,
            deadline: Some(Duration::from_millis(60)),
            jobs: Some(1),
            ..HarnessConfig::default()
        };
        let out = run_supervised(
            vec![(key(0), 0u64)],
            |_seed, ctx: &JobCtx| {
                // A well-behaved job: polls its token like the pipeline
                // interval clock does, erroring out when cancelled.
                let start = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    if start.elapsed() > Duration::from_secs(10) {
                        return Err(JobError::Diverged {
                            detail: "cancel never arrived".into(),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(JobError::Watchdog {
                    detail: "stopped early".into(),
                })
            },
            &cfg,
            &obs,
            |_, _: &u64| {},
        );
        assert_eq!(out.quarantine.len(), 1);
        assert!(
            matches!(out.quarantine[0].error, JobError::Deadline { limit_ms: 60 }),
            "deadline overrides the job's own error: {:?}",
            out.quarantine[0].error
        );
        assert_eq!(out.stats.deadlines, 1);
    }

    #[test]
    fn shutdown_drains_in_flight_and_skips_the_rest() {
        let (obs, flag) = obs_with_flag();
        let cfg = HarnessConfig {
            jobs: Some(1),
            ..fast_cfg()
        };
        let out = run_supervised(
            items(5),
            |seed: &u64, _ctx| {
                if *seed == 1 {
                    // Simulate Ctrl-C arriving while job 1 runs.
                    flag.store(true, Ordering::SeqCst);
                }
                Ok::<u64, JobError>(*seed)
            },
            &cfg,
            &obs,
            |_, _: &u64| {},
        );
        assert!(out.interrupted);
        assert_eq!(out.exit_code(), signal::EXIT_INTERRUPTED);
        // Jobs 0 and 1 finished (the in-flight job drains), 2..5 were
        // never claimed.
        assert_eq!(out.stats.completed, 2);
        assert_eq!(out.stats.skipped, 3);
        assert!(matches!(out.jobs[4].1, JobOutcome::Skipped));
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("harness.jobs_skipped"), Some(3));
    }

    #[test]
    fn shutdown_while_an_attempt_fails_skips_the_job_without_a_retry() {
        let (obs, flag) = obs_with_flag();
        let attempts = AtomicUsize::new(0);
        let out = run_supervised(
            items(1),
            |_seed, _ctx| {
                attempts.fetch_add(1, Ordering::SeqCst);
                flag.store(true, Ordering::SeqCst);
                Err::<u64, JobError>(JobError::Io {
                    detail: "failed during shutdown".into(),
                })
            },
            &fast_cfg(),
            &obs,
            |_, _: &u64| {},
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "no further attempt");
        assert!(matches!(out.jobs[0].1, JobOutcome::Skipped));
        assert!(out.quarantine.is_empty());
        assert_eq!(out.exit_code(), signal::EXIT_INTERRUPTED);
        assert_eq!((out.stats.retries, out.stats.skipped), (0, 1));
    }

    #[test]
    fn quarantine_lists_failed_jobs_in_input_order() {
        let (obs, _) = obs_with_flag();
        let out = run_supervised(
            items(6),
            |seed: &u64, _ctx| match seed {
                // Job 1 fails slowly, so job 4 runs out of attempts first.
                1 => {
                    std::thread::sleep(Duration::from_millis(30));
                    Err(JobError::Panic {
                        message: "slow".into(),
                    })
                }
                4 => Err(JobError::Io {
                    detail: "fast".into(),
                }),
                _ => Ok::<u64, JobError>(*seed),
            },
            &fast_cfg(),
            &obs,
            |_, _: &u64| {},
        );
        let listed: Vec<(JobKey, u32)> = out
            .quarantine
            .iter()
            .map(|q| (q.key.clone(), q.failures))
            .collect();
        assert_eq!(listed, vec![(key(1), 3), (key(4), 3)]);
        assert_eq!(out.stats.quarantined, 2);
        assert_eq!(out.exit_code(), signal::EXIT_PARTIAL);
    }

    #[test]
    fn published_counters_are_the_nonzero_stats() {
        let dir = scratch("published_counters");
        let (obs, flag) = obs_with_flag();
        let cfg = HarnessConfig {
            max_attempts: 2,
            jobs: Some(1),
            ..HarnessConfig::default()
        };
        // Job 0 succeeds on its retry, job 1 is quarantined, job 2
        // requests a shutdown, so job 3 is skipped.
        let out = run_journaled(
            &dir,
            items(4),
            |seed: &u64, ctx: &JobCtx| match seed {
                0 if ctx.attempt == 1 => Err(JobError::Io {
                    detail: "once".into(),
                }),
                1 => Err(JobError::Watchdog {
                    detail: "always".into(),
                }),
                2 => {
                    flag.store(true, Ordering::SeqCst);
                    Ok(2)
                }
                _ => Ok::<u64, JobError>(*seed),
            },
            &cfg,
            &obs,
        )
        .unwrap();
        let s = out.stats;
        assert_eq!((s.completed, s.retries, s.io_errors), (2, 2, 1));
        assert_eq!((s.watchdogs, s.quarantined, s.skipped), (2, 1, 1));
        let snap = obs.metrics.snapshot();
        for (name, n) in s.counters() {
            assert_eq!(snap.counter(name), (n > 0).then_some(n), "{name}");
        }
        assert!(snap.counters.iter().all(|(_, n)| *n > 0), "{snap:?}");
    }

    #[test]
    fn single_worker_runs_each_completion_hook_before_the_next_job() {
        let (obs, _) = obs_with_flag();
        let cfg = HarnessConfig {
            jobs: Some(1),
            ..fast_cfg()
        };
        let log = Mutex::new(Vec::new());
        let out = run_supervised(
            items(6),
            |seed: &u64, _ctx| {
                log.lock().push(format!("start {seed}"));
                Ok::<u64, JobError>(*seed)
            },
            &cfg,
            &obs,
            |_, seed: &u64| {
                // A slow hook (a journal append and its fsync) must still
                // land before the worker starts the next job.
                std::thread::sleep(Duration::from_millis(20));
                log.lock().push(format!("done {seed}"));
            },
        );
        assert!(out.fully_completed());
        let expected: Vec<String> = (0..6)
            .flat_map(|i| [format!("start {i}"), format!("done {i}")])
            .collect();
        assert_eq!(log.into_inner(), expected);
    }

    #[test]
    fn heartbeat_line_reports_progress_and_eta() {
        let line = format_heartbeat(2, 8, Duration::from_secs(10), 50_000_000);
        assert!(line.contains("2/8 jobs"), "{line}");
        assert!(line.contains("5.00 Mcyc/s"), "{line}");
        assert!(line.contains("eta 30s"), "{line}");
        // No ETA before the first completion or after the last.
        assert!(!format_heartbeat(0, 8, Duration::from_secs(1), 0).contains("eta"));
        assert!(!format_heartbeat(8, 8, Duration::from_secs(1), 0).contains("eta"));
        // Long horizons switch to coarse units.
        let slow = format_heartbeat(1, 100, Duration::from_secs(120), 0);
        assert!(slow.contains("elapsed 2m00s"), "{slow}");
        assert!(slow.contains("eta 3h18m"), "{slow}");
    }

    #[test]
    fn jobs_share_one_campaign_progress_counter() {
        let (mut obs, _) = obs_with_flag();
        let external = Arc::new(AtomicU64::new(0));
        obs.progress = Some(Arc::clone(&external));
        let cfg = HarnessConfig {
            // Exercise the heartbeat thread too: fast beats, plain
            // (non-tty under the test runner) lines on stderr.
            heartbeat: Some(Duration::from_millis(5)),
            ..fast_cfg()
        };
        let out = run_supervised(
            items(4),
            |_seed, ctx: &JobCtx| {
                ctx.progress.fetch_add(10_000, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
                Ok::<u64, JobError>(0)
            },
            &cfg,
            &obs,
            |_, _: &u64| {},
        );
        assert!(out.fully_completed());
        assert_eq!(out.simulated_cycles, 40_000, "all jobs fed one counter");
        assert_eq!(
            external.load(Ordering::Relaxed),
            40_000,
            "the caller-supplied counter is the campaign counter"
        );
    }

    #[test]
    fn journaled_campaign_resumes_without_rerunning() {
        let dir = scratch("resumes_without_rerunning");
        let cfg = fast_cfg();
        let runs = AtomicUsize::new(0);
        let job = |seed: &u64, _ctx: &JobCtx| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok::<u64, JobError>(seed * 7)
        };

        let (obs, _) = obs_with_flag();
        let first = run_journaled(&dir, items(4), job, &cfg, &obs).unwrap();
        assert!(first.fully_completed());
        assert_eq!(runs.load(Ordering::SeqCst), 4);

        let (obs2, _) = obs_with_flag();
        let second = run_journaled(&dir, items(4), job, &cfg, &obs2).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 4, "no job re-ran");
        assert_eq!(second.stats.resumed, 4);
        assert_eq!(second.stats.completed, 0);
        let firsts: Vec<u64> = first.values().into_iter().copied().collect();
        let seconds: Vec<u64> = second.values().into_iter().copied().collect();
        assert_eq!(firsts, seconds);
        assert!(second.jobs.iter().all(|(_, o)| matches!(
            o,
            JobOutcome::Completed {
                from_journal: true,
                ..
            }
        )));
        let snap = obs2.metrics.snapshot();
        assert_eq!(snap.counter("harness.jobs_resumed"), Some(4));
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_results() {
        let clean_dir = scratch("interrupt_clean");
        let int_dir = scratch("interrupt_resumed");
        let cfg = HarnessConfig {
            jobs: Some(1),
            ..fast_cfg()
        };
        let job = |seed: &u64, _ctx: &JobCtx| Ok::<u64, JobError>(seed.wrapping_mul(31) ^ 5);

        let (obs, _) = obs_with_flag();
        let clean = run_journaled(&clean_dir, items(6), job, &cfg, &obs).unwrap();

        // Interrupt after two completions.
        let (obs_int, flag) = obs_with_flag();
        let interrupted = run_journaled(
            &int_dir,
            items(6),
            |seed: &u64, ctx: &JobCtx| {
                if *seed == 1 {
                    flag.store(true, Ordering::SeqCst);
                }
                job(seed, ctx)
            },
            &cfg,
            &obs_int,
        )
        .unwrap();
        assert!(interrupted.interrupted);
        assert!(interrupted.stats.skipped > 0);

        // Resume against the same directory: journal replays the done
        // jobs, the rest run fresh, and the final values match the
        // uninterrupted campaign exactly.
        let (obs_res, _) = obs_with_flag();
        let resumed = run_journaled(&int_dir, items(6), job, &cfg, &obs_res).unwrap();
        assert!(resumed.fully_completed());
        assert_eq!(resumed.stats.resumed, 2);
        let clean_vals: Vec<u64> = clean.values().into_iter().copied().collect();
        let resumed_vals: Vec<u64> = resumed.values().into_iter().copied().collect();
        assert_eq!(clean_vals, resumed_vals);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        // Crash-tolerance: truncate the journal at ANY byte boundary
        // (simulating a crash mid-append) and the resumed campaign
        // still reconstructs a byte-identical final report.
        #[test]
        fn journal_truncated_anywhere_resumes_identically(cut in 0usize..600) {
            let dir = scratch(&format!("proptest_cut_{cut}"));
            let cfg = fast_cfg();
            let job = |seed: &u64, _ctx: &JobCtx| Ok::<u64, JobError>(seed * seed + 13);

            let (obs, _) = obs_with_flag();
            let clean = run_journaled(&dir, items(5), job, &cfg, &obs).unwrap();
            let clean_report = serde::json::to_string(
                &clean.values().into_iter().copied().collect::<Vec<u64>>(),
            );

            // Crash: the journal survives only up to `cut` bytes.
            let path = dir.join(Journal::FILE_NAME);
            let bytes = fs::read(&path).unwrap();
            let cut = cut.min(bytes.len());
            fs::write(&path, &bytes[..cut]).unwrap();

            let (obs2, _) = obs_with_flag();
            let resumed = run_journaled(&dir, items(5), job, &cfg, &obs2).unwrap();
            prop_assert!(resumed.fully_completed());
            let resumed_report = serde::json::to_string(
                &resumed.values().into_iter().copied().collect::<Vec<u64>>(),
            );
            prop_assert_eq!(clean_report, resumed_report);
        }
    }
}
