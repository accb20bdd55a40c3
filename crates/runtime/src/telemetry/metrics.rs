//! Lock-free runtime metrics: monotonic counters and log-bucketed
//! duration histograms.
//!
//! The registry is a process-global singleton behind an enable flag.
//! When disabled (the default) the executor's only cost is one relaxed
//! atomic load per step, so the zero-allocation hot path is untouched;
//! when enabled, the executor times each of its four phases and records
//! the phase's work-item count (dirty guards, selected processes,
//! activations, executed processes) as the phase ends. Metrics observe
//! the step; they never feed back into it. All cells are atomics with
//! relaxed ordering: metrics are monotonic observational counters, not
//! synchronization (campaign threads share the registry).
//!
//! Histograms bucket durations by `floor(log2(ns)) + 1` (bucket 0 holds
//! exact zeros), which keeps recording branch-free and wait-free;
//! quantiles are therefore *upper bounds* at power-of-two resolution —
//! plenty for p50/p95/p99 phase summaries. Campaign-cell durations are
//! not recorded here: the analysis side keeps their exact samples.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The four phases of one executor step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// Phase A: settling the guards on the dirty queue, before selection
    /// for a daemon that reads the enabled set and after the activations
    /// otherwise. Its items count every guard the step settled, those its
    /// activations settled included; its time covers the `is_enabled`
    /// calls only.
    GuardRefresh = 0,
    /// Phase B: the scheduler's (sequential) selection.
    Selection = 1,
    /// Phase C: activating the selected processes.
    Activation = 2,
    /// Phase D: applying the staged writes simultaneously.
    Merge = 3,
}

impl StepPhase {
    /// All phases, in the order reports list them.
    pub const ALL: [StepPhase; 4] = [
        StepPhase::GuardRefresh,
        StepPhase::Selection,
        StepPhase::Activation,
        StepPhase::Merge,
    ];

    /// Stable snake_case name, used as the JSON key in reports.
    pub fn name(self) -> &'static str {
        match self {
            StepPhase::GuardRefresh => "guard_refresh",
            StepPhase::Selection => "selection",
            StepPhase::Activation => "activation",
            StepPhase::Merge => "merge",
        }
    }
}

/// Number of histogram buckets: bucket `i >= 1` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds exact zeros.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Wait-free log-bucketed duration histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one duration.
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic cell
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic cell
        self.total_ns.fetch_add(ns, Ordering::Relaxed); // ordering: independent monotonic cell
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: observational snapshot; may lag writers
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed) // ordering: observational snapshot; may lag writers
    }

    /// Upper bound (power-of-two resolution) of the `q`-quantile of the
    /// recorded durations, in nanoseconds; 0 when nothing was recorded.
    ///
    /// `q` is clamped to `[0, 1]`.
    pub fn quantile_upper_bound_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed); // ordering: snapshot scan; buckets are independent
            if cumulative >= rank {
                return if i == 0 {
                    0
                } else {
                    (1u64 << i).wrapping_sub(1)
                };
            }
        }
        u64::MAX
    }
}

/// Counters and timing for one executor phase.
#[derive(Debug, Default)]
pub struct PhaseMetrics {
    invocations: AtomicU64,
    items: AtomicU64,
    histogram: Histogram,
}

impl PhaseMetrics {
    /// Records one invocation that processed `items` work items in
    /// `elapsed` wall time.
    pub fn record(&self, items: u64, elapsed: Duration) {
        self.invocations.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic cell
        self.items.fetch_add(items, Ordering::Relaxed); // ordering: independent monotonic cell
        self.histogram.record(elapsed);
    }

    /// Number of recorded invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed) // ordering: observational snapshot; may lag writers
    }

    /// Total work items processed (phase-specific unit: dirty processes
    /// drained, processes selected, activations run, updates merged).
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed) // ordering: observational snapshot; may lag writers
    }

    /// The duration histogram of this phase.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }
}

/// Process-global metrics: executor phases and fault injections.
///
/// All methods are `&self` and wait-free; one registry instance is
/// shared by every simulation in the process (see [`global`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    phases: [PhaseMetrics; 4],
    fault_injections: AtomicU64,
    fault_victims: AtomicU64,
    fault_histogram: Histogram,
}

impl MetricsRegistry {
    /// The metrics of one executor phase.
    pub fn phase(&self, phase: StepPhase) -> &PhaseMetrics {
        &self.phases[phase as usize]
    }

    /// Records one fault-injection event that corrupted `victims`
    /// processes in `elapsed` wall time.
    pub fn record_fault_injection(&self, victims: u64, elapsed: Duration) {
        self.fault_injections.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic cell
        self.fault_victims.fetch_add(victims, Ordering::Relaxed); // ordering: independent monotonic cell
        self.fault_histogram.record(elapsed);
    }

    /// Number of recorded fault-injection events.
    pub fn fault_injections(&self) -> u64 {
        self.fault_injections.load(Ordering::Relaxed) // ordering: observational snapshot; may lag writers
    }

    /// Total processes corrupted across all recorded injections.
    pub fn fault_victims(&self) -> u64 {
        self.fault_victims.load(Ordering::Relaxed) // ordering: observational snapshot; may lag writers
    }

    /// Duration histogram of fault injections.
    pub fn fault_histogram(&self) -> &Histogram {
        &self.fault_histogram
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global registry. Always readable (reports read it after
/// a run); writers should go through [`active`] so disabled runs pay
/// nothing.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// Turns metrics collection on or off process-wide.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed); // ordering: enable flag guards no data
}

/// Whether metrics collection is enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) // ordering: enable flag guards no data
}

/// The registry when collection is enabled, `None` otherwise — the one
/// relaxed load instrumented code performs per step.
#[inline]
pub fn active() -> Option<&'static MetricsRegistry> {
    if enabled() {
        Some(global())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.quantile_upper_bound_ns(0.5), 0, "empty histogram");
        for ns in [1u64, 2, 3, 100, 1000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.total_ns(), 1106);
        // p50: rank 3 of [1 | 2,3 | 100 | 1000] -> bucket [2,4) -> 3.
        assert_eq!(h.quantile_upper_bound_ns(0.5), 3);
        // p99: rank 5 -> bucket [512, 1024) -> 1023.
        assert_eq!(h.quantile_upper_bound_ns(0.99), 1023);
        // Every recorded value is <= its quantile upper bound.
        assert!(h.quantile_upper_bound_ns(1.0) >= 1000);
    }

    #[test]
    fn phase_metrics_accumulate() {
        let m = PhaseMetrics::default();
        m.record(10, Duration::from_nanos(500));
        m.record(7, Duration::from_nanos(300));
        assert_eq!(m.invocations(), 2);
        assert_eq!(m.items(), 17);
        assert_eq!(m.histogram().count(), 2);
    }

    #[test]
    fn registry_phase_indexing_matches_enum() {
        let r = MetricsRegistry::default();
        for phase in StepPhase::ALL {
            assert_eq!(r.phase(phase).invocations(), 0);
        }
        r.phase(StepPhase::Merge).record(1, Duration::ZERO);
        assert_eq!(r.phase(StepPhase::Merge).invocations(), 1);
        assert_eq!(r.phase(StepPhase::Activation).invocations(), 0);
    }

    #[test]
    fn fault_counters_accumulate() {
        let r = MetricsRegistry::default();
        r.record_fault_injection(3, Duration::from_nanos(100));
        r.record_fault_injection(5, Duration::from_nanos(200));
        assert_eq!(r.fault_injections(), 2);
        assert_eq!(r.fault_victims(), 8);
        assert_eq!(r.fault_histogram().count(), 2);
    }

    // The global enable flag is shared process-wide, so this test only
    // asserts the accessor relationship, not a particular state (other
    // tests in the binary may toggle it concurrently).
    #[test]
    fn active_follows_the_enable_flag() {
        if enabled() {
            assert!(active().is_some());
        } else {
            assert!(active().is_none());
        }
        // global() is always available for report readers.
        let _ = global().phase(StepPhase::Selection).invocations();
    }
}
