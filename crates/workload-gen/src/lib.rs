//! # `workload-gen` — synthetic SPEC CPU2000-like workloads
//!
//! The paper evaluates on SPEC CPU2000 binaries (Alpha ISA) fast-forwarded
//! to SimPoint regions. Those binaries and traces are not reproducible
//! here, so this crate builds the closest synthetic equivalent: for each of
//! the eighteen benchmarks named in the paper (Tables 1 and 3), a
//! [`BenchmarkModel`] captures the statistics the paper's mechanisms
//! actually respond to —
//!
//! * instruction mix (integer/FP/memory/branch/NOP fractions),
//! * data-dependence structure (chain depth → exploitable ILP),
//! * memory behaviour (footprint and scatter → L1/L2 miss rates),
//! * control behaviour (loop trip counts, hard-to-predict branch
//!   fraction → misprediction rate), and
//! * **reliability structure**: the fraction of dynamically-dead
//!   computation (→ un-ACE instructions) and the fraction of static
//!   locations whose dynamic instances *disagree* about ACE-ness (→ the
//!   false positives of PC-granularity profiling measured in Table 1).
//!
//! From a model, [`generate_program`] emits a
//! deterministic synthetic [`Program`] (basic blocks, loop nests, call/
//! return pairs, dead-code chains, loop-carried accumulators and
//! overwrite-style "mixed ACE-ness" registers). A [`ThreadEngine`] then
//! walks the program as a functional front end, producing the
//! `DynInst` stream the `smt-sim` pipeline consumes — including wrong-path
//! instructions after branch mispredictions and replay after FLUSH
//! rollbacks.
//!
//! The nine 4-context SMT mixes of Table 3 are in [`mix`].

pub mod engine;
pub mod mix;
pub mod model;
pub mod program;
pub mod spec;

pub use engine::ThreadEngine;
pub use mix::{mix_by_name, standard_mixes, MixGroup, WorkloadMix};
pub use model::{BenchClass, BenchmarkModel};
pub use program::{generate_program, generate_program_salted, Program};
pub use spec::{all_models, model_by_name};
