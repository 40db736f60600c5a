//! Linearizability conformance for the sharded concurrent provisioning
//! engine.
//!
//! The concurrent engine ([`wdm_rwa::ConcurrentEngine`]) claims that
//! every history of concurrent `provision` / `release` / `fail_link` /
//! `restore_link` calls is **linearizable**: equivalent to *some*
//! serial execution of
//! the same operations on the reference specification, one
//! that respects real time (an operation that finished before another
//! started must come first). This crate is the gate for that claim,
//! in two halves:
//!
//! 1. [`scheduler`] — a deterministic, seeded interleaver. Engine
//!    operations are stepped state machines ([`wdm_rwa::concurrent`]),
//!    so one real thread can simulate N logical threads by choosing,
//!    with a seeded RNG, which in-flight transaction advances by one
//!    step. Identical seed → identical interleaving → identical
//!    [`History`], including genuinely racy windows (a transaction
//!    mid-commit while another routes). The same machinery drives the
//!    deliberately broken engine ([`wdm_rwa::RaceInjection`]) to prove
//!    the checker catches real races.
//! 2. [`checker`] — a Wing–Gong style search. Given the recorded
//!    history, it enumerates candidate serial orders consistent with
//!    the real-time partial order, replaying each through a fresh
//!    [`wdm_rwa::SpecEngine`] (plain data, rebuilding the routing
//!    structure per query, sharing no state-machine code with the
//!    engine under test) and pruning with a memo of visited (linearized-set, engine-state)
//!    configurations. The history passes iff some order reproduces
//!    every observed response exactly — accept/block verdicts, hop-for-
//!    hop paths, blocked-cause splits, and restoration outcomes.
//!
//! Both engines resolve equal-cost ties identically (same deterministic
//! router on the same mask state), and the concurrent engine allocates
//! connection ids at commit time under global validation, so the commit
//! order itself is always a witness: the checker needs to *find* it,
//! never to approximate path equality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
/// Operation/response records and history collection.
pub mod history;
/// The deterministic concurrent-schedule driver.
pub mod scheduler;

pub use checker::{check_history, CheckConfig, Verdict};
pub use history::{History, OpKind, OpRecord, OpResponse};
pub use scheduler::{run_workload, WorkloadConfig};
