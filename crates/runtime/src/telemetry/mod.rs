//! Observability: compact binary trace capture/replay and runtime
//! metrics.
//!
//! Per-step observability, from unit tests up to million-node,
//! million-step runs, goes through one path: the executor hands each
//! step's [`StepRecord`](crate::trace::StepRecord) to the attached
//! [`TraceSink`], and nothing else.
//!
//! * [`wire`] — the delta-encoded, varint-packed binary format for
//!   [`StepRecord`](crate::trace::StepRecord)s (a few bytes per
//!   activation instead of tens of JSON bytes).
//! * [`sink`] — the [`TraceSink`] trait the executor streams records
//!   into, with [`MemorySink`], [`FileSink`], the matching
//!   [`TraceFileReader`], and shared `Arc<Mutex<_>>` sinks for reading
//!   records while a simulation owns the sink.
//! * [`replay()`] — drives a fresh [`Simulation`](crate::Simulation) by a
//!   recorded step stream, re-fires the recorded run's fault plan, and
//!   compares every activation's executed flag, comm flag and read ports
//!   with the recording; divergence is a reportable artifact,
//!   byte-identical [`RunStats`](crate::stats::RunStats) and
//!   configuration are the acceptance check.
//! * [`metrics`] — process-global lock-free counters and log-bucketed
//!   duration histograms for the four executor phases and fault
//!   injections.
//! * [`digest`] — the FNV-1a digests stored in trace footers so a
//!   replay in another process can verify without the original run's
//!   memory.
//!
//! Capture is strictly pay-for-what-you-use: with no sink attached and
//! metrics disabled, the executor's hot path is unchanged — zero
//! steady-state allocations, no record construction, one relaxed atomic
//! load per step (enforced by the `zero_alloc` integration test).

pub mod digest;
pub mod metrics;
pub mod replay;
pub mod sink;
pub mod wire;

pub use digest::Fnv64;
pub use metrics::{MetricsRegistry, StepPhase};
pub use replay::{replay, DivergenceKind, ReplayDivergence, ReplayOutcome};
pub use sink::{
    FileSink, MemorySink, TraceFileReader, TraceFooter, TraceHeader, TraceReadError, TraceSink,
};
pub use wire::WireError;
