//! # `iq-reliability` — the paper's soft-error mitigation mechanisms
//!
//! This crate is the reproduction target proper: the microarchitecture
//! techniques of *"Optimizing Issue Queue Reliability to Soft Errors on
//! Simultaneous Multithreaded Architectures"* (ICPP 2008), implemented as
//! plug-in policies for the `smt-sim` pipeline seams:
//!
//! * [`VisaIssue`] — **V**ulnerable-**I**n**S**truction-
//!   **A**ware issue (Section 2.1): ready instructions whose decoded
//!   ACE-ness hint is set bypass all ready un-ACE instructions; within
//!   each class, program order. Cuts the residency of ACE bits in the IQ.
//! * [`DynamicIqAllocator`] — **opt1**
//!   (Figure 3): each 10 K-cycle interval sets an IQ allocation cap from
//!   the previous interval's IPC band and ready-queue length, preventing
//!   excess vulnerable bits from entering the IQ.
//! * [`L2MissSensitiveAllocator`] —
//!   **opt2** (Figure 4): opt1 while L2 misses stay below `Tcache_miss`;
//!   above it, escalate to the FLUSH fetch policy so clogged threads are
//!   rolled back instead of capped.
//! * [`DvmController`] — **DVM** (Section 5): an
//!   online ACE-bit counter estimates the interval IQ AVF; crossing 90 %
//!   of the reliability target (or any L2 miss) turns on a dispatch
//!   throttle keyed to an adaptive waiting/ready ratio (`wq_ratio`,
//!   slow-increase / rapid-decrease); when the estimate falls back below
//!   the trigger, dispatch is restored starting with the thread holding
//!   the fewest ACE instructions in its fetch queue. A static-ratio
//!   variant reproduces the paper's "DVM (static)" comparison point.
//!
//! [`schemes::Scheme`] assembles any of the paper's evaluated
//! configurations into a `PipelinePolicies` bundle.
//!
//! Beyond the paper: [`rob_ext::RobVulnGovernor`] carries the concluding
//! "extend to other structures" suggestion to the reorder buffer, and
//! [`rob_ext::ComposedGovernor`] lets it run alongside any IQ-side
//! governor.

pub mod dvm;
pub mod opt1;
pub mod opt2;
pub mod rob_ext;
pub mod schemes;
pub mod visa;

pub use dvm::{DvmController, DvmHandle, DvmMode};
pub use opt1::{DynamicIqAllocator, IplRegionTable};
pub use opt2::L2MissSensitiveAllocator;
pub use rob_ext::{ComposedGovernor, RobVulnGovernor};
pub use schemes::Scheme;
pub use visa::VisaIssue;
