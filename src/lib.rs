//! # smtsim — issue-queue reliability on SMT architectures
//!
//! Umbrella crate for the reproduction of *"Optimizing Issue Queue
//! Reliability to Soft Errors on Simultaneous Multithreaded
//! Architectures"* (Fu, Zhang, Li, Fortes — ICPP 2008).
//!
//! This crate re-exports every workspace member under one roof so that
//! examples, integration tests, and downstream users can depend on a
//! single crate:
//!
//! * [`isa`] — the synthetic trace micro-ISA (opcodes, registers, the
//!   1-bit ACE-ness hint extension).
//! * [`workloads`] — synthetic SPEC CPU2000-like benchmark models and the
//!   paper's Table 3 workload mixes.
//! * [`bpred`] — gshare branch predictor, BTB, return-address stack.
//! * [`mem`] — L1I/L1D/L2 caches, TLBs, memory latency model.
//! * [`sim`] — the out-of-order SMT pipeline with pluggable fetch, issue
//!   and dispatch policies.
//! * [`avf`] — ground-truth ACE analysis, bit-level AVF accounting, and
//!   the offline per-PC vulnerability profiler.
//! * [`reliability`] — the paper's contribution: VISA issue, dynamic IQ
//!   resource allocation (opt1), L2-miss-sensitive allocation (opt2) and
//!   dynamic vulnerability management (DVM).
//! * [`faultinject`] — Monte-Carlo single-bit-upset campaigns with
//!   differential classification (masked / SDC / detected / hang)
//!   against a golden run; the empirical cross-check of the AVF model.
//! * [`stats`] — interval statistics, histograms, IPC/harmonic-IPC/PVE.
//! * [`trace`] — structured pipeline/governor tracing: pluggable sinks,
//!   Chrome trace-event export, phase wall-clock timers.
//! * [`experiments`] — one runner per paper table/figure.
//! * [`report`] — indexed run store, cross-run diff engine with
//!   CI-aware significance gates, and self-contained HTML reliability
//!   dashboards (inline SVG, no external references).
//!
//! ## Quickstart
//!
//! ```
//! use smtsim::experiments::quick::visa_demo_config;
//!
//! // Build the paper's Table 2 machine and run a tiny 4-thread mix.
//! let summary = visa_demo_config().run_smoke();
//! assert!(summary.cycles > 0);
//! ```

pub use avf;
pub use branch_pred as bpred;
pub use experiments;
pub use iq_reliability as reliability;
pub use mem_hier as mem;
pub use micro_isa as isa;
pub use sim_faultinject as faultinject;
pub use sim_metrics as metrics;
pub use sim_profile as profile;
pub use sim_report as report;
pub use sim_stats as stats;
pub use sim_trace as trace;
pub use smt_sim as sim;
pub use workload_gen as workloads;
