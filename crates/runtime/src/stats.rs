//! Online statistics collected during a simulation.
//!
//! These counters are what turn the paper's definitions into measurable
//! quantities:
//!
//! * **k-efficiency** (Definition 4): the largest distinct read set of
//!   any activation ([`RunStats::measured_efficiency`]) must stay ≤ k in
//!   *every* step,
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
//! The statistics are stored struct-of-arrays: each process has one
//! 8-byte [`ProcessStats`] row (its selection count) in one dense `Vec`,
//! while the per-port read flags of all processes share one flat
//! `Vec<u8>` in the graph's CSR layout (process `p`'s flags are the range
//! [`Graph::port_range`] gives for `p`; bit 0 of a flag byte means "read
//! at least once", bit 1 "read since the suffix marker"). Every
//! activation writes exactly one 8-byte row and the flag bytes of the
//! ports it read, on the graph row the executor loaded for the
//! activation's view, and sets the whole row in one pass when it read
//! every port. The store keeps no offsets of its own: the queries that
//! read the flags ([`RunStats::distinct_neighbors_ever`] and the rest)
//! and [`RunStats::digest`] take the graph, and the caller must pass the
//! one the statistics were built for (the graph the simulation ran on).
//! They assert only its process and port counts (`n` rows, `2m` flag
//! bytes), not its rows: another graph with the same counts reads the
//! flags of the wrong rows without a panic. The footprint
//! is `8·n + 2m` bytes (rows, one flag byte per port) with no
//! per-process heap indirection.
//!
//! Everything else is a running aggregate, folded once per step rather
//! than once per activation: the selection and read-operation totals and
//! the widest read set of any activation, over the whole run and since
//! the suffix marker. The suffix totals ([`RunStats::suffix_selections`],
//! [`RunStats::suffix_read_operations`]) are the running totals minus a
//! snapshot taken by [`RunStats::mark_suffix`], so every store-wide query
//! is `O(1)` and `mark_suffix` is `O(m)`.
//!
//! [`Graph::port_range`]: selfstab_graph::Graph::port_range

use std::ops::Range;

use selfstab_graph::{Graph, NodeId, Port};

/// Port-flag bit: the port was read at least once since the beginning.
const READ_EVER: u8 = 1;
/// Port-flag bit: the port was read at least once since the last suffix
/// marker.
const READ_SINCE_MARKER: u8 = 2;

/// The statistics row of a single process across a (partial) execution.
///
/// The per-port read flags are *not* stored here — they live in a flat
/// CSR-layout array owned by [`RunStats`] (see the
/// [module documentation](self)); query them through
/// [`RunStats::distinct_neighbors_ever`] and
/// [`RunStats::distinct_neighbors_since_marker`]. Read totals and the
/// widest read set are store-wide ([`RunStats::total_read_operations`],
/// [`RunStats::measured_efficiency`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Number of times the scheduler selected this process. Every
    /// selection is an activation: a disabled process still evaluates its
    /// guards, reading through its view.
    pub selections: u64,
}

/// Statistics of a whole execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    per_process: Vec<ProcessStats>,
    /// Flat per-port flags: [`READ_EVER`] | [`READ_SINCE_MARKER`] bits,
    /// laid out like the graph's CSR arrays (process `p` owns
    /// [`Graph::port_range`]`(p)`).
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
    /// Total number of read operations (repeats included), kept so
    /// [`RunStats::total_read_operations`] is `O(1)` — per-round recovery
    /// telemetry reads it at every round boundary.
    total_reads: u64,
    /// `total_selections` when the last suffix marker was placed.
    selections_at_marker: u64,
    /// `total_reads` when the last suffix marker was placed.
    reads_at_marker: u64,
    /// Largest number of distinct neighbors any activation read.
    widest_read: usize,
    /// Largest number of distinct neighbors any activation read since the
    /// last suffix marker.
    widest_read_since_marker: usize,
    /// Running number of communication-state changes.
    total_comm_change_count: u64,
    /// Latest step at which any communication variable changed.
    latest_comm_change_step: Option<u64>,
}

impl RunStats {
    /// Creates empty statistics for the processes of `graph`: one row per
    /// process and one flag byte per port, laid out like the graph's CSR
    /// arrays.
    pub fn new(graph: &Graph) -> Self {
        RunStats {
            per_process: vec![ProcessStats::default(); graph.node_count()],
            port_flags: vec![0; 2 * graph.edge_count()],
            steps: 0,
            rounds: 0,
            suffix_marker_step: None,
            total_selections: 0,
            total_reads: 0,
            selections_at_marker: 0,
            reads_at_marker: 0,
            widest_read: 0,
            widest_read_since_marker: 0,
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

    /// Checks that `graph` has as many processes and ports as the graph
    /// these statistics were built for. Every query that takes the
    /// graph's layout calls this first. It cannot tell apart two graphs
    /// with equal counts (`star(4)` and `path(4)`), so it catches a wrong
    /// graph only when its size differs.
    fn assert_layout(&self, graph: &Graph) {
        assert_eq!(
            (self.per_process.len(), self.port_flags.len()),
            (graph.node_count(), 2 * graph.edge_count()),
            "statistics of another graph: (processes, ports) differ"
        );
    }

    /// Number of ports of `p` whose flag byte has `bit` set; `p`'s flag
    /// bytes are its row of `graph`'s CSR arrays.
    fn ports_with(&self, graph: &Graph, p: NodeId, bit: u8) -> usize {
        self.port_flags[graph.port_range(p)]
            .iter()
            .filter(|&&flags| flags & bit != 0)
            .count()
    }

    /// Number of distinct neighbors `p` read since the start of the
    /// execution (`R_p(C)` of Definition 7 for the whole computation
    /// observed so far).
    ///
    /// # Panics
    ///
    /// Panics if `graph` has another process or port count than the graph
    /// these statistics were built for (its rows are not compared), or if
    /// `p` is out of range.
    pub fn distinct_neighbors_ever(&self, graph: &Graph, p: NodeId) -> usize {
        self.assert_layout(graph);
        self.ports_with(graph, p, READ_EVER)
    }

    /// Number of distinct neighbors `p` read since the last suffix marker
    /// (`R_p(C')` of Definitions 8–9 for the suffix starting at the marker).
    ///
    /// # Panics
    ///
    /// Panics if `graph` has another process or port count than the graph
    /// these statistics were built for (its rows are not compared), or if
    /// `p` is out of range.
    pub fn distinct_neighbors_since_marker(&self, graph: &Graph, p: NodeId) -> usize {
        self.assert_layout(graph);
        self.ports_with(graph, p, READ_SINCE_MARKER)
    }

    /// Records one activation of `p`: a selection that read the given
    /// distinct ports. Every selection is an activation — a disabled
    /// process still evaluates its guards — so this is the one
    /// per-activation write: one 8-byte row, plus the flag bytes of the
    /// ports read.
    ///
    /// `row` is `p`'s [`Graph::port_range`] in the graph these statistics
    /// were built for: the executor has just loaded it to build the
    /// activation's view, and the flag array is laid out like the graph's
    /// CSR arrays, so the record reads no offset. An activation that read
    /// every port sets the whole row in one pass.
    /// The store-wide aggregates are not touched here: the executor folds
    /// a whole step's activations with [`RunStats::record_step_totals`].
    ///
    /// [`Graph::port_range`]: selfstab_graph::Graph::port_range
    #[inline(always)]
    pub(crate) fn record_activation(&mut self, p: NodeId, row: Range<usize>, reads: &[Port]) {
        self.per_process[p.index()].selections += 1;
        let flags = &mut self.port_flags[row];
        // A flag byte holds no bit besides these two, so a read port's
        // byte is stored, not or-ed into.
        if reads.len() == flags.len() {
            // The reads are distinct ports of `p`, so they are all of them.
            flags.fill(READ_EVER | READ_SINCE_MARKER);
        } else {
            for &port in reads {
                if let Some(port_flags) = flags.get_mut(port.index()) {
                    *port_flags = READ_EVER | READ_SINCE_MARKER;
                }
            }
        }
    }

    /// Folds one step's activations into the store-wide aggregates:
    /// `selections` activations with `read_operations` reads among them
    /// (repeats included), the widest of which read `widest` distinct
    /// neighbors. These are the sums and the maximum over what the step's
    /// [`RunStats::record_activation`] calls recorded.
    #[inline]
    pub(crate) fn record_step_totals(
        &mut self,
        selections: usize,
        read_operations: u64,
        widest: usize,
    ) {
        self.total_selections += selections as u64;
        self.total_reads += read_operations;
        self.widest_read = self.widest_read.max(widest);
        self.widest_read_since_marker = self.widest_read_since_marker.max(widest);
    }

    /// Records that a process changed its communication state at `step`.
    #[inline]
    pub(crate) fn record_comm_change(&mut self, step: u64) {
        self.total_comm_change_count += 1;
        self.latest_comm_change_step = Some(step);
    }

    /// Places the suffix marker at `step`: the per-process suffix read sets
    /// are cleared and the suffix totals and maximum restart from zero, so
    /// subsequent reads measure `R_p` over the suffix only. Typically called
    /// right after stabilization is detected so the ♦-(x, k)-stability of
    /// Definition 9 can be evaluated. `O(m)`: one pass over the flag bytes.
    pub fn mark_suffix(&mut self, step: u64) {
        self.suffix_marker_step = Some(step);
        self.selections_at_marker = self.total_selections;
        self.reads_at_marker = self.total_reads;
        self.widest_read_since_marker = 0;
        for flags in &mut self.port_flags {
            *flags &= !READ_SINCE_MARKER;
        }
    }

    /// The measured ♦-efficiency of the suffix: the smallest `k` such that
    /// every process read at most `k` distinct neighbors in every activation
    /// since the last suffix marker (Definition 4 restricted to the suffix —
    /// "eventually `k`-efficient"). `O(1)`.
    pub fn suffix_measured_efficiency(&self) -> usize {
        self.widest_read_since_marker
    }

    /// Total read operations across all processes since the last suffix
    /// marker (the whole execution if no marker was placed). `O(1)`.
    pub fn suffix_read_operations(&self) -> u64 {
        self.total_reads - self.reads_at_marker
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
    /// (Definition 4 evaluated on this execution). `O(1)`.
    pub fn measured_efficiency(&self) -> usize {
        self.widest_read
    }

    /// Number of processes whose suffix read set has size at most `k` —
    /// the `x` of ♦-(x, k)-stability measured from the suffix marker.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has another process or port count than the graph
    /// these statistics were built for (its rows are not compared).
    pub fn stable_process_count(&self, graph: &Graph, k: usize) -> usize {
        self.assert_layout(graph);
        graph
            .nodes()
            .filter(|&p| self.ports_with(graph, p, READ_SINCE_MARKER) <= k)
            .count()
    }

    /// Number of processes whose *whole-execution* read set has size at most
    /// `k` (the unconditioned k-stability of Definition 7).
    ///
    /// # Panics
    ///
    /// Panics if `graph` has another process or port count than the graph
    /// these statistics were built for (its rows are not compared).
    pub fn k_stable_process_count(&self, graph: &Graph, k: usize) -> usize {
        self.assert_layout(graph);
        graph
            .nodes()
            .filter(|&p| self.ports_with(graph, p, READ_EVER) <= k)
            .count()
    }

    /// Total number of read operations across all processes (repeats
    /// included). `O(1)`, running aggregate: per-round recovery telemetry
    /// queries this at every round boundary.
    pub fn total_read_operations(&self) -> u64 {
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
    /// Two stats stores of one graph compare equal iff they digest equal
    /// (modulo FNV collisions): the digest folds every scalar, every
    /// process's selection count, every CSR offset of `graph` (the layout
    /// of the flag bytes) and every port-flag byte in a canonical order,
    /// with `Option`s encoded as a presence bit before the value.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has another process or port count than the graph
    /// these statistics were built for (its rows are not compared).
    pub fn digest(&self, graph: &Graph) -> u64 {
        self.assert_layout(graph);
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
        fnv.write_usize(self.widest_read);
        fnv.write_usize(self.widest_read_since_marker);
        fnv.write_u64(self.total_comm_change_count);
        write_opt(&mut fnv, self.latest_comm_change_step);
        fnv.write_usize(self.per_process.len());
        for stats in &self.per_process {
            fnv.write_u64(stats.selections);
        }
        // The `n + 1` row offsets, in order: 0, then where each row ends.
        fnv.write_u64(0);
        for p in graph.nodes() {
            fnv.write_u64(graph.port_range(p).end as u64);
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfstab_graph::generators;

    /// Records one activation of `p` as the executor does: on `p`'s row of
    /// `graph`, with the store-wide aggregates folded after it.
    fn record(
        stats: &mut RunStats,
        graph: &Graph,
        p: NodeId,
        reads: &[usize],
        read_operations: usize,
    ) {
        let reads: Vec<Port> = reads.iter().map(|&r| Port::new(r)).collect();
        stats.record_activation(p, graph.port_range(p), &reads);
        stats.record_step_totals(1, read_operations as u64, reads.len());
    }

    #[test]
    fn flags_follow_the_graphs_csr_rows_on_every_generator_family() {
        // The executor records each activation on the graph's CSR row, and
        // the queries read the flags back through the same rows: one flag
        // byte per port, in the graph's order.
        let mut rng = StdRng::seed_from_u64(1);
        let graphs = [
            generators::path(7),
            generators::ring(9),
            generators::complete(6),
            generators::star(8),
            generators::wheel(7),
            generators::complete_bipartite(3, 4),
            generators::grid(3, 4),
            generators::torus(3, 4),
            generators::balanced_tree(2, 3),
            generators::balanced_tree(7, 0),
            generators::caterpillar(4, 2),
            generators::lollipop(4, 3),
            generators::hypercube(3),
            generators::barbell(4, 2),
            generators::petersen(),
            generators::random_tree(20, &mut rng),
            generators::barabasi_albert(30, 2, &mut rng).unwrap(),
            generators::gnp_connected(20, 0.2, &mut rng).unwrap(),
            generators::gnm_connected(20, 40, &mut rng).unwrap(),
            generators::random_regular(12, 3, &mut rng).unwrap(),
            generators::theorem1_chain(),
            generators::theorem1_spliced_chain(),
            generators::theorem1_general(4).unwrap(),
            generators::theorem2_network().graph,
            generators::theorem2_general(4).unwrap().graph,
            generators::figure9_path(9),
            generators::figure11_example(),
            Graph::from_edges(5, &[(0, 1), (1, 2)]).unwrap(),
        ];
        for graph in &graphs {
            let mut stats = RunStats::new(graph);
            assert_eq!(stats.processes().len(), graph.node_count(), "{graph}");
            assert_eq!(stats.port_flags.len(), 2 * graph.edge_count(), "{graph}");
            // Every process reads its last port.
            for p in graph.nodes().filter(|&p| graph.degree(p) > 0) {
                record(&mut stats, graph, p, &[graph.degree(p) - 1], 1);
            }
            for p in graph.nodes() {
                let row = &stats.port_flags[graph.port_range(p)];
                if let Some((last, rest)) = row.split_last() {
                    assert_eq!(*last, READ_EVER | READ_SINCE_MARKER, "{graph}: {p}");
                    assert!(rest.iter().all(|&flags| flags == 0), "{graph}: {p}");
                }
                let read = usize::from(!row.is_empty());
                assert_eq!(
                    stats.distinct_neighbors_ever(graph, p),
                    read,
                    "{graph}: {p}"
                );
                assert_eq!(
                    stats.distinct_neighbors_since_marker(graph, p),
                    read,
                    "{graph}: {p}"
                );
            }
            assert_eq!(
                stats.k_stable_process_count(graph, 0),
                graph.nodes().filter(|&p| graph.degree(p) == 0).count()
            );
            assert_eq!(stats.stable_process_count(graph, 1), graph.node_count());
        }
    }

    #[test]
    #[should_panic(expected = "statistics of another graph")]
    fn queries_reject_a_graph_of_another_shape() {
        // ring(4) and path(4) have the same processes but not the same
        // number of ports. A graph with the same counts as the one the
        // statistics were built for (star(4) for path(4)) is not caught:
        // the check compares counts, not rows.
        let stats = RunStats::new(&generators::ring(4));
        let _ = stats.digest(&generators::path(4));
    }

    #[test]
    fn process_rows_are_8_bytes() {
        // Every activation writes one of these rows; a wider row costs
        // memory bandwidth on every step.
        assert_eq!(std::mem::size_of::<ProcessStats>(), 8);
    }

    #[test]
    fn activation_accounting() {
        // Both processes have three ports.
        let graph = generators::complete(4);
        let mut stats = RunStats::new(&graph);
        let p0 = NodeId::new(0);
        let p1 = NodeId::new(1);
        record(&mut stats, &graph, p0, &[0, 2], 5);
        assert_eq!(stats.process(p0).selections, 1);
        assert_eq!(stats.distinct_neighbors_ever(&graph, p0), 2);
        assert_eq!(stats.measured_efficiency(), 2);
        assert_eq!(stats.total_read_operations(), 5);
        record(&mut stats, &graph, p1, &[1], 1);
        stats.record_comm_change(0);

        assert_eq!(stats.process(p1).selections, 1);
        assert_eq!(stats.distinct_neighbors_ever(&graph, p1), 1);
        // p1's narrower activation leaves the maximum at p0's two reads.
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
        // Process 0 has two ports; the other two processes read nothing.
        let graph = generators::ring(3);
        let mut stats = RunStats::new(&graph);
        let p = NodeId::new(0);
        record(&mut stats, &graph, p, &[0, 1], 2);
        assert_eq!(stats.distinct_neighbors_since_marker(&graph, p), 2);
        stats.mark_suffix(10);
        assert_eq!(stats.suffix_marker_step, Some(10));
        assert_eq!(stats.distinct_neighbors_since_marker(&graph, p), 0);
        assert_eq!(stats.distinct_neighbors_ever(&graph, p), 2);
        record(&mut stats, &graph, p, &[1], 1);
        assert_eq!(stats.distinct_neighbors_since_marker(&graph, p), 1);
        assert_eq!(stats.distinct_neighbors_ever(&graph, p), 2);
        assert_eq!(stats.stable_process_count(&graph, 1), 3);
        assert_eq!(stats.stable_process_count(&graph, 0), 2);
    }

    #[test]
    fn suffix_marker_resets_read_and_selection_counters() {
        let graph = generators::ring(3);
        let mut stats = RunStats::new(&graph);
        let p0 = NodeId::new(0);
        record(&mut stats, &graph, p0, &[0], 3);
        assert_eq!(stats.suffix_read_operations(), 3);
        assert_eq!(stats.suffix_selections(), 1);
        stats.mark_suffix(5);
        assert_eq!(stats.suffix_read_operations(), 0);
        assert_eq!(stats.suffix_selections(), 0);
        assert_eq!(stats.total_read_operations(), 3);
        record(&mut stats, &graph, p0, &[1], 2);
        assert_eq!(stats.suffix_read_operations(), 2);
        assert_eq!(stats.suffix_selections(), 1);
        // The whole-execution totals and the rows ignore the marker.
        assert_eq!(stats.total_read_operations(), 5);
        assert_eq!(stats.process(p0).selections, 2);
    }

    #[test]
    fn suffix_totals_follow_the_latest_marker() {
        // Processes 0, 1 and 2 have 3, 1 and 2 ports; process 3 never
        // moves.
        let graph = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]).unwrap();
        let mut stats = RunStats::new(&graph);
        let step = |stats: &mut RunStats, acts: &[(usize, &[usize], usize)]| {
            for &(i, reads, ops) in acts {
                record(stats, &graph, NodeId::new(i), reads, ops);
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
        assert_eq!(selections, vec![3, 2, 3, 0]);
    }

    #[test]
    fn suffix_efficiency_only_sees_post_marker_activations() {
        // The hub of star(4) has three ports.
        let graph = generators::star(4);
        let mut stats = RunStats::new(&graph);
        let p = NodeId::new(0);
        record(&mut stats, &graph, p, &[0, 1, 2], 3);
        assert_eq!(stats.measured_efficiency(), 3);
        assert_eq!(stats.suffix_measured_efficiency(), 3);
        stats.mark_suffix(1);
        assert_eq!(stats.suffix_measured_efficiency(), 0);
        record(&mut stats, &graph, p, &[1], 1);
        // Whole-run efficiency remembers the repair; the suffix shows the
        // protocol is eventually 1-efficient.
        assert_eq!(stats.measured_efficiency(), 3);
        assert_eq!(stats.suffix_measured_efficiency(), 1);
        // A later activation with fewer reads keeps the suffix maximum.
        record(&mut stats, &graph, p, &[], 0);
        assert_eq!(stats.suffix_measured_efficiency(), 1);
    }

    #[test]
    fn stability_counts() {
        let graph = generators::ring(3);
        let mut stats = RunStats::new(&graph);
        record(&mut stats, &graph, NodeId::new(0), &[0], 1);
        record(&mut stats, &graph, NodeId::new(1), &[0, 1], 2);
        // Process 2 never reads anyone.
        assert_eq!(stats.k_stable_process_count(&graph, 0), 1);
        assert_eq!(stats.k_stable_process_count(&graph, 1), 2);
        assert_eq!(stats.k_stable_process_count(&graph, 2), 3);
    }
}
