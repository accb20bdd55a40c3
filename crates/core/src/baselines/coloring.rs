//! Δ-efficient baseline vertex coloring (local checking).
//!
//! Every activation reads the colors of **all** neighbors; if the process is
//! in conflict with at least one of them it redraws its color uniformly
//! among the palette colors not used by any neighbor (such a color always
//! exists with the (∆+1)-palette). This is the classical randomized
//! local-checking scheme the paper's Section 3.2 example contrasts with:
//! its communication complexity is `∆ · log(∆+1)` bits per step instead of
//! `log(∆+1)`.

use rand::{Rng, RngCore};
use selfstab_graph::{verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

/// The Δ-efficient baseline coloring protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineColoring {
    palette: usize,
}

impl BaselineColoring {
    /// Creates the protocol for `graph` with the minimal palette `∆ + 1`.
    pub fn new(graph: &Graph) -> Self {
        BaselineColoring {
            palette: graph.max_degree() + 1,
        }
    }

    /// Creates the protocol with an explicit palette size (at least 1).
    pub fn with_palette(palette: usize) -> Self {
        BaselineColoring {
            palette: palette.max(1),
        }
    }

    /// Number of colors available to each process.
    pub fn palette(&self) -> usize {
        self.palette
    }

    /// Extracts the color vector from a configuration.
    pub fn output(config: &[usize]) -> Vec<usize> {
        config.to_vec()
    }
}

impl Protocol for BaselineColoring {
    /// The whole state is the color: the baseline needs no check pointer.
    type State = usize;
    type Comm = usize;

    fn name(&self) -> &'static str {
        "coloring-baseline-delta-efficient"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> usize {
        rng.gen_range(0..self.palette)
    }

    #[inline]
    fn comm(&self, _p: NodeId, state: &usize) -> usize {
        *state
    }

    #[inline]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &usize,
        view: &NeighborView<'_, usize>,
    ) -> bool {
        (0..graph.degree(p)).any(|i| view.read(Port::new(i)) == state)
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &usize,
        view: &NeighborView<'_, usize>,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let neighbor_colors: Vec<usize> = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .collect();
        if !neighbor_colors.contains(state) {
            return None;
        }
        let mut free = (0..self.palette).filter(|c| !neighbor_colors.contains(c));
        let free_count = free.clone().count();
        // With palette ∆+1 and at most ∆ neighbors a free color always
        // exists; keep the current color as a last resort (and draw
        // nothing) if the palette was chosen too small. Otherwise draw one
        // index among the free colors, as `SliceRandom::choose` would.
        if free_count == 0 {
            return Some(*state);
        }
        free.nth(rng.gen_range(0..free_count))
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.palette as u64)
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.palette as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[usize]) -> bool {
        verify::is_proper_coloring(graph, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn stabilizes_quickly_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let graph = generators::gnp_connected(24, 0.2, &mut rng).unwrap();
        let protocol = BaselineColoring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            2,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100_000);
        assert!(report.silent);
        assert!(verify::is_proper_coloring(&graph, sim.config()));
    }

    #[test]
    fn reads_every_neighbor_each_step() {
        let graph = generators::star(6);
        let protocol = BaselineColoring::new(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 3, SimOptions::default());
        sim.run_steps(5);
        // The center reads all 5 leaves whenever it is in conflict: the
        // measured efficiency equals Δ unless it happened to start properly
        // colored, in which case it is still at least 1... force a conflict
        // instead by construction.
        let conflict_config = vec![0usize; 6];
        let protocol = BaselineColoring::new(&graph);
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            conflict_config,
            4,
            SimOptions::default(),
        );
        sim.run_until_silent(10_000);
        assert_eq!(sim.stats().measured_efficiency(), graph.max_degree());
    }

    #[test]
    fn proper_configurations_are_silent() {
        let graph = generators::path(4);
        let protocol = BaselineColoring::new(&graph);
        let config = vec![0usize, 1, 0, 1];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config.clone(),
            5,
            SimOptions::default(),
        );
        assert!(sim.is_silent());
        sim.run_steps(50);
        assert_eq!(sim.config(), config.as_slice());
    }

    #[test]
    fn redraw_picks_what_choose_picks_from_the_collected_free_colors() {
        // The activation draws an index among the free colors without
        // collecting them. From the same RNG state it must return what
        // `choose` over the collected list returned, and leave the RNG in
        // the same state: one draw, or none when no color is free (palette
        // 4 against a hub with 5 neighbors).
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let graph = generators::star(6);
        let hub = NodeId::new(0);
        let mut configs = StdRng::seed_from_u64(3);
        for palette in [4, 7] {
            let protocol = BaselineColoring::with_palette(palette);
            for seed in 0..300 {
                let comm: Vec<usize> = (0..6).map(|_| configs.gen_range(0..palette)).collect();
                let taken = &comm[1..];
                let (mut ours, mut reference) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let view = NeighborView::from_snapshot(&graph, hub, &comm);
                let got = protocol.activate(&graph, hub, &comm[0], &view, &mut ours);
                let expected = taken.contains(&comm[0]).then(|| {
                    let free: Vec<usize> = (0..palette).filter(|c| !taken.contains(c)).collect();
                    free.choose(&mut reference).copied().unwrap_or(comm[0])
                });
                assert_eq!(got, expected, "palette {palette}, config {comm:?}");
                assert_eq!(ours.next_u64(), reference.next_u64(), "{comm:?}");
            }
        }
    }

    #[test]
    fn stabilizes_on_a_clique() {
        let graph = generators::complete(6);
        let protocol = BaselineColoring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.4),
            7,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
    }
}
