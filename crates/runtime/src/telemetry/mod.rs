//! Observability: compact binary trace capture/replay and runtime
//! metrics.
//!
//! Per-step observability, from unit tests up to the 10⁴-process
//! acceptance cell, goes through one path: a recording
//! [`Simulation`](crate::Simulation) encodes each step into the [`Trace`]
//! it owns as the step runs, and nothing else.
//!
//! * [`wire`] — the delta-encoded, varint-packed binary format of one
//!   step (a few bytes per activation instead of tens of JSON bytes),
//!   [`Trace`], the step stream a recording simulation encodes into it,
//!   and the one parser, which checks a record without allocating and
//!   accepts only the bytes the encoder writes, so each record has one
//!   encoding.
//! * [`sstb`] — the SSTB trace file around a trace:
//!   [`Trace::write_file`] writes one in a call, and [`read_trace_file`]
//!   reads one back whole, checking every length, tag and record before it
//!   uses it, and keeps the checked step stream as a [`Trace`].
//! * [`replay()`] — drives a fresh [`Simulation`](crate::Simulation) by a
//!   recorded trace, re-fires the recorded run's fault plan, and compares
//!   the bytes of every step's record with the recording's, decoding a
//!   step only to describe a mismatch (its executed flags, comm flags or
//!   read ports); divergence is a reportable artifact, byte-identical
//!   [`RunStats`](crate::stats::RunStats) and configuration are the
//!   acceptance check.
//! * [`metrics`] — process-global lock-free counters and log-bucketed
//!   duration histograms for the four executor phases and fault
//!   injections.
//! * [`digest`] — the FNV-1a digests stored in trace footers so a
//!   replay in another process can verify without the original run's
//!   memory.
//!
//! Capture is strictly pay-for-what-you-use: with no trace recording and
//! metrics disabled, the executor's hot path is unchanged — zero
//! steady-state allocations, one test per step and per activation for the
//! trace, one relaxed atomic load per step for the metrics (enforced by
//! the `zero_alloc` integration test, which also checks that a recording
//! step allocates only when its trace grows, and that a replay allocates
//! nothing per step).

pub mod digest;
pub mod metrics;
pub mod replay;
pub mod sstb;
pub mod wire;

pub use digest::Fnv64;
pub use metrics::{MetricsRegistry, StepPhase};
pub use replay::{replay, DivergenceKind, ReplayDivergence, ReplayOutcome};
pub use sstb::{read_trace_file, TraceFooter, TraceHeader, TraceReadError};
pub use wire::{Trace, WireError};
