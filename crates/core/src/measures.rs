//! Communication and space complexity accounting (Definitions 4–9).
//!
//! The runtime already *measures* reads per activation and per-suffix read
//! sets ([`selfstab_runtime::stats::RunStats`]); this module turns those raw
//! counts — together with a protocol's `comm_bits` — into the quantities the
//! paper reports:
//!
//! * the **measured efficiency** `k` of Definition 4,
//! * the **communication complexity** of Definition 5 (bits read from
//!   neighbors in the worst step),
//! * the **space complexity** of Definition 6 (local state bits plus
//!   communication complexity),
//! * the **♦-(x, k)-stability** of Definition 9 (how many processes settle
//!   on reading at most `k` neighbors once stabilized).

use selfstab_graph::{Graph, NodeId};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::stats::RunStats;

/// The complexity figures of one protocol on one graph, measured on one
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexityReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Number of processes.
    pub nodes: usize,
    /// Maximum degree ∆.
    pub max_degree: usize,
    /// Measured efficiency `k` (Definition 4): the largest number of
    /// distinct neighbors any process read in a single activation.
    pub measured_efficiency: usize,
    /// Worst-case communication complexity in bits (Definition 5),
    /// *theoretical*: `k · max comm_bits` with `k` the measured efficiency.
    pub communication_bits: u64,
    /// Worst-case communication complexity of the Δ-efficient strategy on
    /// the same graph: `∆ · max comm_bits` (the baseline the paper compares
    /// against).
    pub delta_communication_bits: u64,
    /// Worst-case space complexity in bits (Definition 6): local state bits
    /// plus communication complexity, maximized over processes.
    pub space_bits: u64,
    /// Total read operations performed during the measured execution.
    pub total_reads: u64,
    /// Steps of the measured execution.
    pub steps: u64,
    /// Rounds of the measured execution.
    pub rounds: u64,
}

/// Largest `comm_bits` over all processes (the size of the biggest register
/// a neighbor may read).
pub fn max_comm_bits<P: Protocol>(protocol: &P, graph: &Graph) -> u64 {
    graph
        .nodes()
        .map(|p| protocol.comm_bits(graph, p))
        .max()
        .unwrap_or(0)
}

/// Worst-case communication complexity (Definition 5) for a protocol that
/// reads at most `k` neighbors per step.
pub fn communication_complexity_bits<P: Protocol>(protocol: &P, graph: &Graph, k: usize) -> u64 {
    k as u64 * max_comm_bits(protocol, graph)
}

/// Worst-case space complexity (Definition 6) over all processes, for a
/// protocol that reads at most `k` neighbors per step.
pub fn space_complexity_bits<P: Protocol>(protocol: &P, graph: &Graph, k: usize) -> u64 {
    graph
        .nodes()
        .map(|p| protocol.state_bits(graph, p) + k as u64 * protocol.comm_bits(graph, p))
        .max()
        .unwrap_or(0)
}

/// Per-process space complexity (Definition 6) for a protocol that reads at
/// most `k` neighbors per step.
pub fn space_complexity_bits_of<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    p: NodeId,
    k: usize,
) -> u64 {
    protocol.state_bits(graph, p) + k as u64 * protocol.comm_bits(graph, p)
}

/// Builds a [`ComplexityReport`] from the statistics of a finished
/// execution.
pub fn complexity_report<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    stats: &RunStats,
) -> ComplexityReport {
    let k = stats.measured_efficiency();
    ComplexityReport {
        protocol: protocol.name(),
        nodes: graph.node_count(),
        max_degree: graph.max_degree(),
        measured_efficiency: k,
        communication_bits: communication_complexity_bits(protocol, graph, k),
        delta_communication_bits: communication_complexity_bits(
            protocol,
            graph,
            graph.max_degree(),
        ),
        space_bits: space_complexity_bits(protocol, graph, k),
        total_reads: stats.total_read_operations(),
        steps: stats.steps,
        rounds: stats.rounds,
    }
}

/// Post-stabilization communication efficiency of an execution suffix:
/// what the protocol keeps paying *after* silence, measured from the
/// suffix marker (typically placed at stabilization).
///
/// This is the paper's efficiency metric restricted to the suffix: a
/// ♦-1-efficient protocol (one neighbor probed per activation, like the
/// spanning subsystem's leader election) shows `suffix_efficiency = 1` and
/// roughly one read per selection, while a Δ-efficient structure (like the
/// classical BFS spanning tree) keeps reading whole neighborhoods forever.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixCommReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Number of processes.
    pub nodes: usize,
    /// Maximum degree ∆.
    pub max_degree: usize,
    /// Steps covered by the suffix.
    pub suffix_steps: u64,
    /// Measured suffix efficiency: the largest number of distinct
    /// neighbors any process read in a single activation since the marker
    /// (the `k` of "eventually k-efficient").
    pub suffix_efficiency: usize,
    /// Total read operations performed since the marker.
    pub suffix_reads: u64,
    /// Scheduler selections since the marker.
    pub suffix_selections: u64,
    /// Average read operations per selection since the marker — the
    /// steady-state cost of one "am I still fine?" check.
    pub reads_per_selection: f64,
    /// Worst-case bits read from neighbors per selection since the marker:
    /// `suffix_efficiency · max comm_bits` (Definition 5 on the suffix).
    pub suffix_bits_per_selection: u64,
    /// Processes whose whole suffix read set has at most 1 element
    /// (the `x` of ♦-(x, 1)-stability).
    pub one_stable_processes: usize,
}

/// Builds a [`SuffixCommReport`] from the statistics of an execution whose
/// suffix marker has been placed (uses the whole execution otherwise).
pub fn suffix_comm_report<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    stats: &RunStats,
) -> SuffixCommReport {
    let suffix_steps = stats.steps - stats.suffix_marker_step.unwrap_or(0);
    let suffix_reads = stats.suffix_read_operations();
    let suffix_selections = stats.suffix_selections();
    let suffix_efficiency = stats.suffix_measured_efficiency();
    SuffixCommReport {
        protocol: protocol.name(),
        nodes: graph.node_count(),
        max_degree: graph.max_degree(),
        suffix_steps,
        suffix_efficiency,
        suffix_reads,
        suffix_selections,
        reads_per_selection: if suffix_selections == 0 {
            0.0
        } else {
            suffix_reads as f64 / suffix_selections as f64
        },
        suffix_bits_per_selection: communication_complexity_bits(
            protocol,
            graph,
            suffix_efficiency,
        ),
        one_stable_processes: stats.stable_process_count(1),
    }
}

/// Aggregated recovery economics of one fault-scenario run: what a
/// [`FaultPlan`](selfstab_runtime::FaultPlan) execution cost, distilled
/// from the per-round [`RecoveryTelemetry`](selfstab_runtime::RecoveryTelemetry)
/// curve recorded by
/// [`run_fault_plan`](selfstab_runtime::run_fault_plan).
///
/// The paper's headline concern is the *post-fault* bill of a
/// communication-efficient silent protocol: a ♦-k-efficient protocol may
/// pay full-Δ reads during repair. This report prices that bill three
/// ways: how long the repair took (rounds), how much service was lost
/// while it ran (availability = fraction of post-fault rounds whose
/// configuration was legitimate), and how hard the read rate spiked over
/// the pre-fault steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Number of injections the plan fired.
    pub injections: usize,
    /// Total processes corrupted across all injections.
    pub victims: usize,
    /// Whether the system quiesced after the last injection within budget.
    pub recovered: bool,
    /// Rounds from the last injection to quiescence (`None` on timeout).
    pub recovery_rounds: Option<u64>,
    /// Fraction of post-first-injection rounds whose configuration
    /// satisfied the legitimacy predicate (1.0 when no round completed
    /// after the first injection — an instantly absorbed fault).
    pub availability: f64,
    /// Largest fraction of processes simultaneously enabled in any
    /// post-injection round (the repair wave's peak footprint).
    pub peak_enabled_fraction: f64,
    /// Largest number of read operations in a single post-injection round.
    pub peak_round_reads: u64,
    /// Mean read operations per post-injection round.
    pub mean_round_reads: f64,
    /// `peak_round_reads` relative to the pre-fault steady-state read cost
    /// per round supplied by the caller (0 when no baseline was supplied).
    pub read_spike_ratio: f64,
}

/// Distills a [`RecoveryReport`] out of a scenario run's telemetry.
///
/// `steady_reads_per_round` is the pre-fault baseline (total reads per
/// round over the whole system, as measured over a stabilized window);
/// pass 0.0 to skip the spike ratio. Rounds completed *before* the first
/// injection (a delayed plan stepping a silent system) are excluded from
/// the availability and read-spike figures.
pub fn recovery_report(
    telemetry: &selfstab_runtime::RecoveryTelemetry,
    steady_reads_per_round: f64,
) -> RecoveryReport {
    let first_injection_round = telemetry.injections.first().map(|i| i.round).unwrap_or(0);
    let post: Vec<&selfstab_runtime::faults::RoundSample> = telemetry
        .rounds
        .iter()
        .filter(|r| r.round > first_injection_round)
        .collect();
    let legit = post.iter().filter(|r| r.legitimate).count();
    let peak_round_reads = post.iter().map(|r| r.read_operations).max().unwrap_or(0);
    RecoveryReport {
        injections: telemetry.injections.len(),
        victims: telemetry.injections.iter().map(|i| i.victims).sum(),
        recovered: telemetry.recovered,
        recovery_rounds: telemetry.recovery_rounds,
        availability: if post.is_empty() {
            1.0
        } else {
            legit as f64 / post.len() as f64
        },
        peak_enabled_fraction: post.iter().map(|r| r.enabled_fraction).fold(0.0, f64::max),
        peak_round_reads,
        mean_round_reads: if post.is_empty() {
            0.0
        } else {
            post.iter().map(|r| r.read_operations).sum::<u64>() as f64 / post.len() as f64
        },
        read_spike_ratio: if steady_reads_per_round > 0.0 {
            peak_round_reads as f64 / steady_reads_per_round
        } else {
            0.0
        },
    }
}

/// The ♦-(x, k)-stability measurement of an execution suffix: how many
/// processes read at most `k` distinct neighbors since the suffix marker was
/// placed (Definition 9), together with the theoretical lower bound the
/// caller wants to compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityMeasurement {
    /// The `k` of ♦-(x, k)-stability.
    pub k: usize,
    /// Measured `x`: processes whose suffix read set has at most `k`
    /// elements.
    pub stable_processes: usize,
    /// Total number of processes.
    pub nodes: usize,
    /// The theoretical lower bound on `x` claimed by the paper
    /// (⌊(Lmax+1)/2⌋ for MIS, 2⌈m/(2∆−1)⌉ for MATCHING).
    pub theoretical_bound: usize,
}

impl StabilityMeasurement {
    /// Builds the measurement from execution statistics.
    pub fn from_stats(stats: &RunStats, k: usize, theoretical_bound: usize) -> Self {
        StabilityMeasurement {
            k,
            stable_processes: stats.stable_process_count(k),
            nodes: stats.processes().len(),
            theoretical_bound,
        }
    }

    /// Whether the measured execution satisfies the theoretical bound.
    pub fn satisfies_bound(&self) -> bool {
        self.stable_processes >= self.theoretical_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::BaselineColoring;
    use crate::coloring::Coloring;
    use selfstab_graph::generators;
    use selfstab_runtime::scheduler::DistributedRandom;
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn coloring_vs_baseline_communication_bits() {
        // The Section 3.2 example: COLORING reads log(∆+1) bits per step
        // while the baseline reads ∆·log(∆+1).
        let graph = generators::star(9); // ∆ = 8, palette 9 -> 4 bits
        let efficient = Coloring::new(&graph);
        let baseline = BaselineColoring::new(&graph);
        assert_eq!(communication_complexity_bits(&efficient, &graph, 1), 4);
        assert_eq!(
            communication_complexity_bits(&baseline, &graph, graph.max_degree()),
            8 * 4
        );
        // Space complexity of the efficient protocol on the center:
        // state (4 + 3) + 1 * 4 = 11 bits, matching the paper's
        // 2·log(∆+1) + log(δ.p).
        assert_eq!(
            space_complexity_bits_of(&efficient, &graph, NodeId::new(0), 1),
            crate::coloring::space_complexity_bits(&graph, NodeId::new(0))
        );
    }

    #[test]
    fn report_reflects_measured_execution() {
        let graph = generators::ring(10);
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        sim.run_until_silent(100_000);
        let report = complexity_report(sim.protocol(), &graph, sim.stats());
        assert_eq!(report.protocol, "coloring-1-efficient");
        assert_eq!(report.measured_efficiency, 1);
        assert_eq!(report.nodes, 10);
        assert_eq!(report.max_degree, 2);
        assert_eq!(report.communication_bits, 2); // log(3) = 2 bits
        assert_eq!(report.delta_communication_bits, 4);
        assert!(report.total_reads > 0);
        assert!(report.steps > 0);
    }

    #[test]
    fn stability_measurement_compares_against_bound() {
        let graph = generators::path(9);
        let protocol = crate::mis::Mis::with_greedy_coloring(&graph);
        let bound = crate::mis::Mis::stability_bound(8);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            5,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
        sim.mark_suffix();
        sim.run_steps(1_000);
        let measurement = StabilityMeasurement::from_stats(sim.stats(), 1, bound);
        assert!(measurement.satisfies_bound());
        assert_eq!(measurement.nodes, 9);
        assert_eq!(measurement.k, 1);
    }

    #[test]
    fn suffix_report_contrasts_efficient_and_inefficient_protocols() {
        use crate::spanning::{BfsTree, LeaderElection};
        use selfstab_graph::{Identifiers, NodeId, RootedGraph};

        let graph = generators::grid(3, 4);
        // Δ-efficient structure: the BFS tree keeps scanning neighborhoods.
        let network = RootedGraph::new(graph.clone(), NodeId::new(0)).unwrap();
        let mut bfs = Simulation::new(
            network.graph(),
            BfsTree::new(&network),
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        assert!(bfs.run_until_silent(200_000).silent);
        bfs.mark_suffix();
        bfs.run_steps(1_000);
        let bfs_report = suffix_comm_report(bfs.protocol(), &graph, bfs.stats());

        // ♦-1-efficient protocol: leader election probes one neighbor.
        let mut le = Simulation::new(
            &graph,
            LeaderElection::new(&graph, Identifiers::sequential(12)),
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        assert!(le.run_until_silent(500_000).silent);
        le.mark_suffix();
        le.run_steps(1_000);
        let le_report = suffix_comm_report(le.protocol(), &graph, le.stats());

        assert_eq!(le_report.suffix_efficiency, 1);
        assert!(bfs_report.suffix_efficiency > 1);
        assert!(le_report.reads_per_selection <= 1.0 + 1e-9);
        assert!(bfs_report.reads_per_selection > 1.0);
        // grid(3,4): LE reads 1 register of 12 bits, BFS reads Δ = 4
        // registers of 4 bits.
        assert!(le_report.suffix_bits_per_selection < bfs_report.suffix_bits_per_selection);
        assert_eq!(le_report.nodes, 12);
        assert!(le_report.suffix_steps >= 1_000);
        assert!(le_report.suffix_selections > 0);
    }

    #[test]
    fn recovery_report_prices_a_fault_scenario() {
        use rand::SeedableRng;
        use selfstab_runtime::faults::{run_fault_plan, FaultInjector, FaultPlan};
        use selfstab_runtime::scheduler::Synchronous;
        use selfstab_runtime::{FaultLoad, FaultModel};

        let graph = generators::grid(4, 4);
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 9, SimOptions::default());
        assert!(sim.run_until_silent(200_000).silent);

        // Pre-fault steady baseline over a short window of rounds.
        let reads_before = sim.stats().total_read_operations();
        let rounds_before = sim.stats().rounds;
        while sim.stats().rounds < rounds_before + 5 {
            sim.step();
        }
        let steady = (sim.stats().total_read_operations() - reads_before) as f64 / 5.0;

        let mut injector = FaultInjector::new(&graph);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let plan = FaultPlan::single(FaultModel::Uniform(FaultLoad::Fraction(0.25)));
        let telemetry = run_fault_plan(&mut sim, &plan, &mut injector, &mut rng, 200_000);
        let report = recovery_report(&telemetry, steady);

        assert_eq!(report.injections, 1);
        assert_eq!(report.victims, 4);
        assert!(report.recovered, "COLORING recovers from transient faults");
        assert!(report.recovery_rounds.is_some());
        assert!((0.0..=1.0).contains(&report.availability));
        assert!((0.0..=1.0).contains(&report.peak_enabled_fraction));
        if !telemetry.rounds.is_empty() {
            assert!(report.peak_round_reads as f64 >= report.mean_round_reads);
        }
        // With a positive steady baseline the spike ratio is defined.
        assert!(steady > 0.0 || report.read_spike_ratio == 0.0);
    }

    #[test]
    fn recovery_report_of_an_empty_telemetry_is_degenerate() {
        let telemetry = selfstab_runtime::RecoveryTelemetry::default();
        let report = recovery_report(&telemetry, 0.0);
        assert_eq!(report.injections, 0);
        assert_eq!(report.victims, 0);
        assert!(!report.recovered);
        assert_eq!(report.recovery_rounds, None);
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.peak_round_reads, 0);
        assert_eq!(report.mean_round_reads, 0.0);
        assert_eq!(report.read_spike_ratio, 0.0);
    }

    #[test]
    fn empty_graph_degenerate_figures() {
        let graph = selfstab_graph::Graph::from_edges(1, &[]).unwrap();
        let protocol = Coloring::new(&graph);
        assert_eq!(max_comm_bits(&protocol, &graph), 1);
        assert_eq!(communication_complexity_bits(&protocol, &graph, 0), 0);
    }
}
