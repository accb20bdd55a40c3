//! Online per-process statistics collected during a simulation.
//!
//! These counters are what turn the paper's definitions into measurable
//! quantities:
//!
//! * **k-efficiency** (Definition 4): `max_reads_per_activation` over every
//!   process must stay ≤ k in *every* step,
//! * **communication complexity** (Definition 5): the maximum amount of
//!   memory read from neighbors in a step — derived by multiplying the read
//!   counts with the protocol's `comm_bits`,
//! * **♦-(x, k)-stability** (Definition 9): the number of processes whose
//!   *suffix* read set ([`RunStats::distinct_neighbors_since_marker`]) has
//!   size ≤ k after the suffix marker has been placed (typically at
//!   stabilization).
//!
//! These counters only record what the *protocol* observably does —
//! selections, tracked reads, communication changes. They are
//! deliberately independent of how the executor computes enabledness
//! (the executor's own guard-evaluation cost is reported separately by
//! [`Simulation::guard_evaluations`](crate::executor::Simulation::guard_evaluations)).
//! The executor records every activation straight into the store, in
//! selection order, during the activation phase of its step.
//!
//! # Layout
//!
//! The statistics are stored struct-of-arrays: per-process *scalar*
//! counters live in one dense `Vec<ProcessStats>` of 24-byte rows, while
//! the per-port read flags of all processes share one flat `Vec<u8>` in
//! CSR layout (`port_offsets[p] .. port_offsets[p + 1]` is process `p`'s
//! slice; bit 0 of a flag byte means "read at least once", bit 1 "read
//! since the suffix marker"). Every activation writes exactly one scalar
//! row and the flag bytes of the ports it read. The footprint is
//! `24·n + 4·(n + 1) + 2m` bytes (rows, `u32` offsets, one flag byte per
//! port) with no per-process heap indirection.
//!
//! Store-wide quantities are running aggregates instead of per-process
//! counters: the suffix totals ([`RunStats::suffix_selections`],
//! [`RunStats::suffix_read_operations`]) are the running totals minus a
//! snapshot taken by [`RunStats::mark_suffix`].

use selfstab_graph::{NodeId, Port};

/// Port-flag bit: the port was read at least once since the beginning.
const READ_EVER: u8 = 1;
/// Port-flag bit: the port was read at least once since the last suffix
/// marker.
const READ_SINCE_MARKER: u8 = 2;

/// Scalar statistics of a single process across a (partial) execution.
///
/// The per-port read flags are *not* stored here — they live in a flat
/// CSR-layout array owned by [`RunStats`] (see the
/// [module documentation](self)); query them through
/// [`RunStats::distinct_neighbors_ever`] and
/// [`RunStats::distinct_neighbors_since_marker`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Number of times the scheduler selected this process. Every
    /// selection is an activation: a disabled process still evaluates its
    /// guards, reading through its view.
    pub selections: u64,
    /// Total number of read operations (repeats included).
    pub total_read_operations: u64,
    /// Largest number of *distinct* neighbors read during a single
    /// activation.
    pub max_reads_per_activation: u32,
    /// Largest number of distinct neighbors read during a single activation
    /// since the last suffix marker — the per-process ♦-k-efficiency
    /// (eventually reading at most `k` neighbors *per step*).
    pub max_reads_per_activation_since_marker: u32,
}

/// Statistics of a whole execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    per_process: Vec<ProcessStats>,
    /// CSR offsets into the flat port-flag array: process `p` owns
    /// `port_offsets[p] .. port_offsets[p + 1]`. `u32` suffices — the graph
    /// builder caps the edge count so that `2m` fits.
    port_offsets: Vec<u32>,
    /// Flat per-port flags: [`READ_EVER`] | [`READ_SINCE_MARKER`] bits.
    port_flags: Vec<u8>,
    /// Total number of steps executed.
    pub steps: u64,
    /// Number of completed rounds (paper definition: a round ends when every
    /// process has been selected at least once since the previous round
    /// boundary).
    pub rounds: u64,
    /// Step at which the last suffix marker was placed, if any.
    pub suffix_marker_step: Option<u64>,
    /// Running aggregate of [`ProcessStats::selections`].
    total_selections: u64,
    /// Running aggregate of [`ProcessStats::total_read_operations`], kept so
    /// [`RunStats::total_read_operations`] is `O(1)` — per-round recovery
    /// telemetry reads it at every round boundary.
    total_reads: u64,
    /// `total_selections` when the last suffix marker was placed.
    selections_at_marker: u64,
    /// `total_reads` when the last suffix marker was placed.
    reads_at_marker: u64,
    /// Running number of communication-state changes.
    total_comm_change_count: u64,
    /// Latest step at which any communication variable changed.
    latest_comm_change_step: Option<u64>,
}

impl RunStats {
    /// Creates empty statistics for processes with the given degrees.
    pub fn new(degrees: &[usize]) -> Self {
        let mut port_offsets = Vec::with_capacity(degrees.len() + 1);
        let mut total: u32 = 0;
        port_offsets.push(0);
        for &d in degrees {
            total += u32::try_from(d).expect("degree exceeds the u32 port space");
            port_offsets.push(total);
        }
        RunStats {
            per_process: vec![ProcessStats::default(); degrees.len()],
            port_offsets,
            port_flags: vec![0; total as usize],
            steps: 0,
            rounds: 0,
            suffix_marker_step: None,
            total_selections: 0,
            total_reads: 0,
            selections_at_marker: 0,
            reads_at_marker: 0,
            total_comm_change_count: 0,
            latest_comm_change_step: None,
        }
    }

    /// Statistics of one process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn process(&self, p: NodeId) -> &ProcessStats {
        &self.per_process[p.index()]
    }

    /// Statistics of every process, indexed by [`NodeId`].
    pub fn processes(&self) -> &[ProcessStats] {
        &self.per_process
    }

    /// Number of ports of `p` whose flag byte has `bit` set.
    fn ports_with(&self, p: NodeId, bit: u8) -> usize {
        let range =
            self.port_offsets[p.index()] as usize..self.port_offsets[p.index() + 1] as usize;
        self.port_flags[range]
            .iter()
            .filter(|&&flags| flags & bit != 0)
            .count()
    }

    /// Number of distinct neighbors `p` read since the start of the
    /// execution (`R_p(C)` of Definition 7 for the whole computation
    /// observed so far).
    pub fn distinct_neighbors_ever(&self, p: NodeId) -> usize {
        self.ports_with(p, READ_EVER)
    }

    /// Number of distinct neighbors `p` read since the last suffix marker
    /// (`R_p(C')` of Definitions 8–9 for the suffix starting at the marker).
    pub fn distinct_neighbors_since_marker(&self, p: NodeId) -> usize {
        self.ports_with(p, READ_SINCE_MARKER)
    }

    /// Records one activation of `p`: a selection that read the given
    /// distinct ports with `read_operations` reads in total (repeats
    /// included). Every selection is an activation — a disabled process
    /// still evaluates its guards — so this is the one per-activation
    /// write: one scalar row, plus the flag bytes of the ports read.
    pub(crate) fn record_activation(&mut self, p: NodeId, reads: &[Port], read_operations: usize) {
        self.total_selections += 1;
        self.total_reads += read_operations as u64;
        // A distinct read set never exceeds the degree, which `RunStats::new`
        // checked fits in `u32`.
        let distinct = u32::try_from(reads.len()).unwrap_or(u32::MAX);
        let stats = &mut self.per_process[p.index()];
        stats.selections += 1;
        stats.total_read_operations += read_operations as u64;
        stats.max_reads_per_activation = stats.max_reads_per_activation.max(distinct);
        stats.max_reads_per_activation_since_marker =
            stats.max_reads_per_activation_since_marker.max(distinct);
        let ports =
            self.port_offsets[p.index()] as usize..self.port_offsets[p.index() + 1] as usize;
        let flags = &mut self.port_flags[ports];
        for &port in reads {
            if let Some(port_flags) = flags.get_mut(port.index()) {
                *port_flags |= READ_EVER | READ_SINCE_MARKER;
            }
        }
    }

    /// Records that a process changed its communication state at `step`.
    pub(crate) fn record_comm_change(&mut self, step: u64) {
        self.total_comm_change_count += 1;
        self.latest_comm_change_step = Some(step);
    }

    /// Places the suffix marker at `step`: the per-process suffix read sets
    /// are cleared and the suffix totals restart from zero, so subsequent
    /// reads measure `R_p` over the suffix only. Typically called right
    /// after stabilization is detected so the ♦-(x, k)-stability of
    /// Definition 9 can be evaluated.
    pub fn mark_suffix(&mut self, step: u64) {
        self.suffix_marker_step = Some(step);
        self.selections_at_marker = self.total_selections;
        self.reads_at_marker = self.total_reads;
        for flags in &mut self.port_flags {
            *flags &= !READ_SINCE_MARKER;
        }
        for stats in &mut self.per_process {
            stats.max_reads_per_activation_since_marker = 0;
        }
    }

    /// The measured ♦-efficiency of the suffix: the smallest `k` such that
    /// every process read at most `k` distinct neighbors in every activation
    /// since the last suffix marker (Definition 4 restricted to the suffix —
    /// "eventually `k`-efficient").
    pub fn suffix_measured_efficiency(&self) -> usize {
        self.per_process
            .iter()
            .map(|s| s.max_reads_per_activation_since_marker)
            .max()
            .unwrap_or(0) as usize
    }

    /// Total read operations across all processes since the last suffix
    /// marker (the whole execution if no marker was placed). `O(1)`.
    pub fn suffix_read_operations(&self) -> u64 {
        self.total_read_operations() - self.reads_at_marker
    }

    /// Total selections across all processes since the last suffix marker
    /// (the whole execution if no marker was placed). `O(1)`.
    pub fn suffix_selections(&self) -> u64 {
        debug_assert_eq!(
            self.total_selections,
            self.per_process.iter().map(|s| s.selections).sum::<u64>(),
            "aggregate selection counter diverged from the per-process counters"
        );
        self.total_selections - self.selections_at_marker
    }

    /// The measured efficiency of the execution: the smallest `k` such that
    /// every process read at most `k` distinct neighbors in every activation
    /// (Definition 4 evaluated on this execution).
    pub fn measured_efficiency(&self) -> usize {
        self.per_process
            .iter()
            .map(|s| s.max_reads_per_activation)
            .max()
            .unwrap_or(0) as usize
    }

    /// Number of processes whose suffix read set has size at most `k` —
    /// the `x` of ♦-(x, k)-stability measured from the suffix marker.
    pub fn stable_process_count(&self, k: usize) -> usize {
        (0..self.per_process.len())
            .filter(|&i| self.distinct_neighbors_since_marker(NodeId::new(i)) <= k)
            .count()
    }

    /// Number of processes whose *whole-execution* read set has size at most
    /// `k` (the unconditioned k-stability of Definition 7).
    pub fn k_stable_process_count(&self, k: usize) -> usize {
        (0..self.per_process.len())
            .filter(|&i| self.distinct_neighbors_ever(NodeId::new(i)) <= k)
            .count()
    }

    /// Total number of read operations across all processes.
    ///
    /// `O(1)`: served from a running aggregate (the seed summed the
    /// per-process counters on every call — per-round recovery telemetry
    /// queries this at every round boundary, so the scan added up).
    pub fn total_read_operations(&self) -> u64 {
        debug_assert_eq!(
            self.total_reads,
            self.per_process
                .iter()
                .map(|s| s.total_read_operations)
                .sum::<u64>(),
            "aggregate read counter diverged from the per-process counters"
        );
        self.total_reads
    }

    /// Total number of communication-state changes across all processes
    /// (`O(1)`, running aggregate).
    pub fn total_comm_changes(&self) -> u64 {
        self.total_comm_change_count
    }

    /// The latest step at which any communication variable changed, if any
    /// (`O(1)`, running aggregate).
    pub fn last_comm_change_step(&self) -> Option<u64> {
        self.latest_comm_change_step
    }

    /// A platform-independent 64-bit digest of every field, stored in
    /// trace footers so a replay in another process can check
    /// byte-identity without the recording run's memory (in-process
    /// comparisons just use `==`).
    ///
    /// Two stats stores compare equal iff they digest equal (modulo FNV
    /// collisions): the digest folds every scalar, every CSR offset and
    /// every port-flag byte in a canonical order, with `Option`s encoded
    /// as a presence bit before the value.
    pub fn digest(&self) -> u64 {
        let mut fnv = crate::telemetry::Fnv64::new();
        let write_opt = |fnv: &mut crate::telemetry::Fnv64, value: Option<u64>| {
            fnv.write_bool(value.is_some());
            fnv.write_u64(value.unwrap_or(0));
        };
        fnv.write_u64(self.steps);
        fnv.write_u64(self.rounds);
        write_opt(&mut fnv, self.suffix_marker_step);
        fnv.write_u64(self.total_selections);
        fnv.write_u64(self.total_reads);
        fnv.write_u64(self.selections_at_marker);
        fnv.write_u64(self.reads_at_marker);
        fnv.write_u64(self.total_comm_change_count);
        write_opt(&mut fnv, self.latest_comm_change_step);
        fnv.write_usize(self.per_process.len());
        for stats in &self.per_process {
            fnv.write_u64(stats.selections);
            fnv.write_u64(stats.total_read_operations);
            fnv.write_u64(u64::from(stats.max_reads_per_activation));
            fnv.write_u64(u64::from(stats.max_reads_per_activation_since_marker));
        }
        for &offset in &self.port_offsets {
            fnv.write_u64(u64::from(offset));
        }
        for &flags in &self.port_flags {
            fnv.write_u64(u64::from(flags));
        }
        fnv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(reads: &[usize]) -> Vec<Port> {
        reads.iter().map(|&r| Port::new(r)).collect()
    }

    #[test]
    fn process_rows_are_24_bytes() {
        // Every activation writes one of these rows; a wider row costs
        // memory bandwidth on every step.
        assert_eq!(std::mem::size_of::<ProcessStats>(), 24);
    }

    #[test]
    fn activation_accounting() {
        let mut stats = RunStats::new(&[3, 2]);
        let p0 = NodeId::new(0);
        let p1 = NodeId::new(1);
        stats.record_activation(p0, &ports(&[0, 2]), 5);
        stats.record_activation(p1, &ports(&[1]), 1);
        stats.record_comm_change(0);

        assert_eq!(stats.process(p0).selections, 1);
        assert_eq!(stats.process(p0).max_reads_per_activation, 2);
        assert_eq!(stats.process(p0).total_read_operations, 5);
        assert_eq!(stats.distinct_neighbors_ever(p0), 2);
        assert_eq!(stats.process(p1).selections, 1);
        assert_eq!(stats.process(p1).total_read_operations, 1);
        assert_eq!(stats.measured_efficiency(), 2);
        assert_eq!(stats.total_read_operations(), 6);
        // No marker yet: the suffix is the whole execution.
        assert_eq!(stats.suffix_selections(), 2);
        assert_eq!(stats.suffix_read_operations(), 6);
        assert_eq!(stats.total_comm_changes(), 1);
        assert_eq!(stats.last_comm_change_step(), Some(0));
        stats.record_comm_change(7);
        assert_eq!(stats.total_comm_changes(), 2);
        assert_eq!(stats.last_comm_change_step(), Some(7));
    }

    #[test]
    fn suffix_marker_resets_suffix_read_sets_only() {
        let mut stats = RunStats::new(&[2]);
        let p = NodeId::new(0);
        stats.record_activation(p, &ports(&[0, 1]), 2);
        assert_eq!(stats.distinct_neighbors_since_marker(p), 2);
        stats.mark_suffix(10);
        assert_eq!(stats.suffix_marker_step, Some(10));
        assert_eq!(stats.distinct_neighbors_since_marker(p), 0);
        assert_eq!(stats.distinct_neighbors_ever(p), 2);
        stats.record_activation(p, &ports(&[1]), 1);
        assert_eq!(stats.distinct_neighbors_since_marker(p), 1);
        assert_eq!(stats.distinct_neighbors_ever(p), 2);
        assert_eq!(stats.stable_process_count(1), 1);
        assert_eq!(stats.stable_process_count(0), 0);
    }

    #[test]
    fn suffix_marker_resets_read_and_selection_counters() {
        let mut stats = RunStats::new(&[2, 2]);
        let p0 = NodeId::new(0);
        stats.record_activation(p0, &ports(&[0]), 3);
        assert_eq!(stats.suffix_read_operations(), 3);
        assert_eq!(stats.suffix_selections(), 1);
        stats.mark_suffix(5);
        assert_eq!(stats.suffix_read_operations(), 0);
        assert_eq!(stats.suffix_selections(), 0);
        assert_eq!(stats.process(p0).total_read_operations, 3);
        stats.record_activation(p0, &ports(&[1]), 2);
        assert_eq!(stats.suffix_read_operations(), 2);
        assert_eq!(stats.suffix_selections(), 1);
        // The per-process rows keep whole-execution totals.
        assert_eq!(stats.process(p0).total_read_operations, 5);
        assert_eq!(stats.process(p0).selections, 2);
        assert_eq!(stats.total_read_operations(), 5);
    }

    #[test]
    fn suffix_totals_follow_the_latest_marker() {
        // Three processes of degree 3, 1 and 2.
        let degrees = [3usize, 1, 2];
        let mut stats = RunStats::new(&degrees);
        let step = |stats: &mut RunStats, acts: &[(usize, &[usize], usize)]| {
            for &(i, reads, ops) in acts {
                stats.record_activation(NodeId::new(i), &ports(reads), ops);
            }
        };

        // Before any marker: 3 selections, 3 + 1 + 4 = 8 reads, k = 3.
        step(
            &mut stats,
            &[(0, &[0, 1, 2], 3), (1, &[0], 1), (2, &[0, 1], 4)],
        );
        assert_eq!(stats.suffix_selections(), 3);
        assert_eq!(stats.suffix_read_operations(), 8);
        assert_eq!(stats.suffix_measured_efficiency(), 3);

        // First marker, then 2 selections with 2 + 1 = 3 reads, k = 2.
        stats.mark_suffix(1);
        step(&mut stats, &[(0, &[1, 2], 2), (2, &[1], 1)]);
        assert_eq!(stats.suffix_selections(), 2);
        assert_eq!(stats.suffix_read_operations(), 3);
        assert_eq!(stats.suffix_measured_efficiency(), 2);

        // Second marker, then two steps: 3 selections, 1 + 1 + 2 = 4
        // reads, and no activation read more than one neighbor.
        stats.mark_suffix(2);
        assert_eq!(stats.suffix_selections(), 0);
        assert_eq!(stats.suffix_read_operations(), 0);
        assert_eq!(stats.suffix_measured_efficiency(), 0);
        step(&mut stats, &[(1, &[0], 1), (2, &[0], 1)]);
        step(&mut stats, &[(0, &[2], 2)]);
        assert_eq!(stats.suffix_marker_step, Some(2));
        assert_eq!(stats.suffix_selections(), 3);
        assert_eq!(stats.suffix_read_operations(), 4);
        assert_eq!(stats.suffix_measured_efficiency(), 1);

        // Whole-run figures are untouched by either marker.
        assert_eq!(stats.total_read_operations(), 8 + 3 + 4);
        assert_eq!(stats.measured_efficiency(), 3);
        let selections: Vec<u64> = stats.processes().iter().map(|s| s.selections).collect();
        assert_eq!(selections, vec![3, 2, 3]);
    }

    #[test]
    fn suffix_efficiency_only_sees_post_marker_activations() {
        let mut stats = RunStats::new(&[3]);
        let p = NodeId::new(0);
        stats.record_activation(p, &ports(&[0, 1, 2]), 3);
        assert_eq!(stats.measured_efficiency(), 3);
        assert_eq!(stats.suffix_measured_efficiency(), 3);
        stats.mark_suffix(1);
        assert_eq!(stats.suffix_measured_efficiency(), 0);
        stats.record_activation(p, &ports(&[1]), 1);
        // Whole-run efficiency remembers the repair; the suffix shows the
        // protocol is eventually 1-efficient.
        assert_eq!(stats.measured_efficiency(), 3);
        assert_eq!(stats.suffix_measured_efficiency(), 1);
        // A later activation with fewer reads keeps the suffix maximum.
        stats.record_activation(p, &[], 0);
        assert_eq!(stats.suffix_measured_efficiency(), 1);
    }

    #[test]
    fn stability_counts() {
        let mut stats = RunStats::new(&[2, 2, 2]);
        stats.record_activation(NodeId::new(0), &ports(&[0]), 1);
        stats.record_activation(NodeId::new(1), &ports(&[0, 1]), 2);
        // Process 2 never reads anyone.
        assert_eq!(stats.k_stable_process_count(0), 1);
        assert_eq!(stats.k_stable_process_count(1), 2);
        assert_eq!(stats.k_stable_process_count(2), 3);
    }
}
