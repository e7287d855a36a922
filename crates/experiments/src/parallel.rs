//! Embarrassingly parallel fan-out of independent simulations.
//!
//! Simulations share nothing mutable (each owns its pipeline, caches and
//! collector; the context's program cache is behind a lock and read-heavy),
//! so experiments fan out over the supervised worker pool in
//! [`sim_harness`]: a shared atomic work index hands out jobs, every job
//! runs under `catch_unwind`, and results land back in their input slots.
//! Worker count defaults to `--jobs` / `available_parallelism` (see
//! [`sim_harness::default_jobs`]), so on a single-core host this degrades
//! gracefully to sequential execution.
//!
//! Two entry points:
//!
//! * [`try_parallel_map`] — per-slot `Result`: a job that panics (or is
//!   skipped because shutdown was requested) yields `Err` for *its slot*
//!   while every other job still completes.
//! * [`parallel_map`] — the historical infallible signature. A panicking
//!   job no longer poisons the scope mid-campaign; the remaining jobs
//!   finish first and the panic is re-raised afterwards with the slot
//!   index attached.

use sim_harness::{run_supervised, HarnessConfig, HarnessObservers, JobError, JobKey, JobOutcome};

/// Supervision policy for in-process exhibit fan-out: no retries (the
/// simulations are deterministic, so a failure is not transient), no
/// deadline, worker count from the process default (`--jobs`).
fn exhibit_cfg() -> HarnessConfig {
    HarnessConfig {
        max_attempts: 1,
        ..HarnessConfig::default()
    }
}

/// Apply `f` to every item in parallel, preserving input order, with
/// per-slot failure isolation: slot `i` is `Err` if job `i` panicked or
/// was skipped by a shutdown request, independent of every other slot.
pub fn try_parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<Result<R, JobError>>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let keyed: Vec<(JobKey, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| (JobKey::new("exhibit", "map", i as u64, 0), item))
        .collect();
    let outcome = run_supervised(
        keyed,
        |item, _ctx| Ok(f(item)),
        &exhibit_cfg(),
        &HarnessObservers::off(),
        |_, _: &R| {},
    );
    outcome
        .jobs
        .into_iter()
        .map(|(_, o)| match o {
            JobOutcome::Completed { value, .. } => Ok(value),
            JobOutcome::Quarantined { error, .. } => Err(error),
            JobOutcome::Skipped => Err(JobError::Io {
                detail: "skipped: shutdown requested before the job started".to_string(),
            }),
        })
        .collect()
}

/// Apply `f` to every item, in parallel, preserving input order in the
/// output. If any job panics, every other job still runs to completion
/// and the panic is then re-raised on the calling thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_parallel_map(items, f)
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(v) => v,
            Err(e) => panic!("parallel job {i} failed: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100u64).collect(), |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn heavy_closure_state_is_shared_immutably() {
        let table: Vec<u64> = (0..1000).collect();
        let out = parallel_map((0..50usize).collect(), |&i| table[i * 2]);
        assert_eq!(out[10], 20);
    }

    #[test]
    fn panicking_job_fails_only_its_slot() {
        let out = try_parallel_map((0..8u64).collect(), |&x| {
            if x == 3 {
                panic!("job three detonated");
            }
            x * 10
        });
        assert_eq!(out.len(), 8);
        for (i, slot) in out.iter().enumerate() {
            if i == 3 {
                assert!(
                    matches!(slot, Err(JobError::Panic { message }) if message.contains("detonated")),
                    "slot 3 should carry the panic: {slot:?}"
                );
            } else {
                assert_eq!(*slot.as_ref().unwrap(), (i as u64) * 10);
            }
        }
    }

    #[test]
    fn parallel_map_finishes_other_jobs_before_repanicking() {
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map((0..6u64).collect(), |&x| {
                ran.fetch_add(1, Ordering::SeqCst);
                if x == 0 {
                    panic!("first job dies");
                }
                x
            })
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // Every job ran despite job 0 panicking immediately — the old
        // fan-out poisoned the whole scope instead.
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }
}
