//! Communication-efficient self-stabilizing leader election for identified
//! networks, in the style of Défago, Emek, Kutten, Masuzawa & Tamura
//! (*Communication Efficient Self-Stabilizing Leader Election*).
//!
//! Every process `p` carries a unique constant identifier `id.p` and
//! maintains:
//!
//! * communication variables `leader.p` (the identifier it believes is the
//!   smallest in the network) and `dist.p ∈ {0..n}` (its claimed distance
//!   to that leader),
//! * internal variables `parent.p` (port of its tree parent) and `cur.p`
//!   (the neighbor probed next, round-robin).
//!
//! The protocol stabilizes to: every process knows the **global minimum
//! identifier**, the `dist`/`parent` pairs form a **BFS spanning tree
//! rooted at the elected leader**, and exactly one process (the leader)
//! has `leader.p = id.p`.
//!
//! # Communication efficiency
//!
//! Each activation first runs **free self-checks** (no neighbor read), then
//! probes the **single** neighbor behind `cur.p` for an inconsistency:
//!
//! * the probed neighbor advertises a smaller leader (adoptable: its
//!   distance is below the cap),
//! * the probed neighbor offers a strictly shorter path to the same leader,
//! * the probed neighbor *is* the parent but no longer supports this
//!   process's `(leader, dist)` claim.
//!
//! Only when a probe (or self-check) fires does the process fall back to a
//! full neighborhood scan to recompute its best claim. After stabilization
//! no probe ever fires, so every activation reads exactly **one** neighbor:
//! the protocol is ♦-1-efficient, versus the Δ reads per step of the
//! classical structure ([`BfsTree`](crate::spanning::BfsTree)). The
//! `RunStats::suffix_measured_efficiency` measure makes the contrast
//! visible in the experiments.
//!
//! # Fake-leader elimination
//!
//! A transient fault can install a `leader` value smaller than every real
//! identifier. Such a claim has no process whose *own* identifier backs it,
//! so its support is a chain of `(leader, dist)` pairs with strictly
//! increasing `dist`; because adopting a claim requires `dist + 1 ≤ n` (the
//! cap), the minimum distance supporting the fake value rises every time
//! its holders re-derive it, and the claim starves out after at most `n`
//! waves — the standard bounded-distance argument.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::{Graph, Identifiers, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

/// Full state of a process running [`LeaderElection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderElectionState {
    /// Communication variable `leader.p`: the smallest identifier known.
    pub leader: u64,
    /// Communication variable `dist.p`: claimed distance to the leader.
    pub dist: usize,
    /// Internal variable `parent.p`: port of the tree parent (meaningless
    /// on the leader).
    pub parent: Port,
    /// Internal variable `cur.p`: the neighbor probed by the next
    /// activation (round-robin).
    pub cur: Port,
}

/// Communication state readable by neighbors: the constant identifier plus
/// the current claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderComm {
    /// The process's constant unique identifier.
    pub id: u64,
    /// The advertised leader identifier.
    pub leader: u64,
    /// The advertised distance to that leader.
    pub dist: usize,
}

/// The communication-efficient leader-election protocol for identified
/// networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderElection {
    ids: Identifiers,
    /// Distance domain bound: `dist ∈ {0..cap}`, with `cap = n`.
    cap: usize,
}

impl LeaderElection {
    /// Creates the protocol for a graph whose processes carry `ids`.
    ///
    /// # Panics
    ///
    /// Panics when `ids` does not cover every process of `graph`.
    pub fn new(graph: &Graph, ids: Identifiers) -> Self {
        assert_eq!(
            ids.len(),
            graph.node_count(),
            "one identifier per process required"
        );
        LeaderElection {
            cap: graph.node_count(),
            ids,
        }
    }

    /// The identifier assignment.
    pub fn ids(&self) -> &Identifiers {
        &self.ids
    }

    /// The distance-domain bound (`n`).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The process every stabilized run elects: the minimum-identifier one.
    pub fn expected_leader(&self) -> Option<NodeId> {
        self.ids.min_id_node()
    }

    /// The processes that currently consider themselves the leader.
    pub fn self_declared_leaders(&self, config: &[LeaderElectionState]) -> Vec<NodeId> {
        config
            .iter()
            .enumerate()
            .filter(|(i, s)| s.leader == self.ids.id(NodeId::new(*i)))
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Extracts the distance vector from a configuration.
    pub fn distances(config: &[LeaderElectionState]) -> Vec<usize> {
        config.iter().map(|s| s.dist).collect()
    }

    /// Extracts the parent ports (`None` on self-declared leaders).
    pub fn parent_ports(&self, config: &[LeaderElectionState]) -> Vec<Option<Port>> {
        config
            .iter()
            .enumerate()
            .map(|(i, s)| (s.leader != self.ids.id(NodeId::new(i))).then_some(s.parent))
            .collect()
    }

    /// Free local checks: inconsistencies visible without reading any
    /// neighbor.
    #[inline]
    fn self_violation(&self, graph: &Graph, p: NodeId, state: &LeaderElectionState) -> bool {
        let id = self.ids.id(p);
        if state.leader > id {
            return true; // p itself is a better candidate
        }
        if state.leader == id {
            return state.dist != 0; // a self-declared leader is at distance 0
        }
        // A foreign leader needs a positive, capped distance and a parent
        // port that exists.
        state.dist == 0 || state.dist > self.cap || state.parent.index() >= graph.degree(p)
    }

    /// Whether the single probed neighbor `q` reveals an inconsistency.
    #[inline]
    fn probe_fires(
        &self,
        p: NodeId,
        state: &LeaderElectionState,
        probed_port: Port,
        q: &LeaderComm,
    ) -> bool {
        // A smaller adoptable leader claim.
        if q.leader < state.leader && q.dist < self.cap {
            return true;
        }
        // A strictly shorter path to the same leader. Neighbor-supplied
        // distances are untrusted (arbitrary corruption), so additions
        // saturate instead of overflowing.
        if q.leader == state.leader && q.dist.saturating_add(1) < state.dist {
            return true;
        }
        // The probed neighbor is the parent but no longer supports p.
        if state.leader != self.ids.id(p)
            && probed_port == state.parent
            && (q.leader != state.leader || q.dist.saturating_add(1) != state.dist)
        {
            return true;
        }
        false
    }

    /// Full neighborhood scan: the best claim available to `p`, preferring
    /// the smallest leader, then the shortest distance. Falls back to
    /// self-candidacy when no neighbor offers an adoptable smaller claim.
    #[inline]
    fn recompute(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &LeaderElectionState,
        view: &NeighborView<'_, LeaderComm>,
        next_cur: Port,
    ) -> LeaderElectionState {
        let id = self.ids.id(p);
        let mut best = LeaderElectionState {
            leader: id,
            dist: 0,
            parent: state.parent.clamp_to_degree(graph.degree(p)),
            cur: next_cur,
        };
        for (i, q) in view.read_all().iter().enumerate() {
            let port = Port::new(i);
            // A dying (capped-out or corrupted-out-of-domain) claim is not
            // adoptable; this also keeps the `+ 1` below overflow-free.
            if q.dist >= self.cap {
                continue;
            }
            if q.leader < best.leader || (q.leader == best.leader && q.dist + 1 < best.dist) {
                best.leader = q.leader;
                best.dist = q.dist + 1;
                best.parent = port;
            }
        }
        best
    }
}

impl Protocol for LeaderElection {
    type State = LeaderElectionState;
    type Comm = LeaderComm;

    fn name(&self) -> &'static str {
        "leader-election-comm-efficient"
    }

    fn arbitrary_state(
        &self,
        graph: &Graph,
        p: NodeId,
        rng: &mut dyn RngCore,
    ) -> LeaderElectionState {
        let degree = graph.degree(p).max(1);
        // Sampling leaders over the whole identifier range deliberately
        // includes *fake* identifiers no process owns — the hardest
        // corruption for leader election.
        let max_id = self.ids.max_id().unwrap_or(0);
        LeaderElectionState {
            leader: rng.gen_range(0..max_id.saturating_add(1)),
            dist: rng.gen_range(0..self.cap + 1),
            parent: Port::new(rng.gen_range(0..degree)),
            cur: Port::new(rng.gen_range(0..degree)),
        }
    }

    #[inline]
    fn comm(&self, p: NodeId, state: &LeaderElectionState) -> LeaderComm {
        LeaderComm {
            id: self.ids.id(p),
            leader: state.leader,
            dist: state.dist,
        }
    }

    /// Hand-written because it is O(1) at a process with neighbors: the
    /// derived guard would probe a neighbor and, when the probe fires,
    /// rescan the whole neighborhood, only to learn what the degree
    /// already says.
    #[inline]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &LeaderElectionState,
        _view: &NeighborView<'_, LeaderComm>,
    ) -> bool {
        // Like COLORING, a process with neighbors is always enabled: every
        // activation at least advances the probe pointer `cur` (an internal
        // variable), so silence is reached in the communication sense.
        if graph.degree(p) == 0 {
            return self.self_violation(graph, p, state);
        }
        true
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &LeaderElectionState,
        view: &NeighborView<'_, LeaderComm>,
        _rng: &mut dyn RngCore,
    ) -> Option<LeaderElectionState> {
        let degree = graph.degree(p);
        if degree == 0 {
            // An isolated process can only elect itself.
            return self
                .self_violation(graph, p, state)
                .then_some(LeaderElectionState {
                    leader: self.ids.id(p),
                    dist: 0,
                    ..*state
                });
        }
        let cur = state.cur.clamp_to_degree(degree);
        let next_cur = cur.next_round_robin(degree);
        if self.self_violation(graph, p, state) {
            return Some(self.recompute(graph, p, state, view, next_cur));
        }
        // The communication-efficient step: probe exactly one neighbor.
        let q = *view.read(cur);
        if self.probe_fires(p, state, cur, &q) {
            Some(self.recompute(graph, p, state, view, next_cur))
        } else {
            Some(LeaderElectionState {
                cur: next_cur,
                ..*state
            })
        }
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        // id + leader + dist.
        2 * self.ids.bits() + bits_for_domain(self.cap as u64 + 1)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        // leader + dist + parent + cur (the constant id is not state).
        self.ids.bits()
            + bits_for_domain(self.cap as u64 + 1)
            + 2 * bits_for_domain(graph.degree(p).max(1) as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[LeaderElectionState]) -> bool {
        let Some(expected) = self.expected_leader() else {
            return config.is_empty();
        };
        let min_id = self.ids.id(expected);
        if config.iter().any(|s| s.leader != min_id) {
            return false;
        }
        let dist = LeaderElection::distances(config);
        let parents = self.parent_ports(config);
        crate::spanning::is_bfs_spanning_tree(graph, expected, &dist, &parents)
    }

    /// Silent where `p` sees no inconsistency: no self-check fails and no
    /// probe would fire at any of its ports, against its neighbours'
    /// current communication variables. A process with a neighbour is
    /// always enabled, probing one neighbour per activation, so the
    /// default (`!is_enabled`) never holds; but where this holds at every
    /// process, every activation only advances the internal `cur` pointer,
    /// so the communication variables stay fixed, as in COLORING. Such a
    /// configuration is silent; every legitimate configuration is one, and
    /// with the cap at `n` they are exactly the legitimate ones on a
    /// connected graph: consistent parent links strictly decrease `dist`,
    /// so no claim is fake or capped out, and neighbours agree on the
    /// leader and on BFS distances.
    #[inline]
    fn is_silent_at(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &LeaderElectionState,
        view: &NeighborView<'_, LeaderComm>,
    ) -> bool {
        !self.self_violation(graph, p, state)
            && view
                .read_all()
                .iter()
                .enumerate()
                .all(|(i, q)| !self.probe_fires(p, state, Port::new(i), q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfstab_graph::generators;
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    fn shuffled_protocol(graph: &Graph, seed: u64) -> LeaderElection {
        let mut rng = StdRng::seed_from_u64(seed);
        LeaderElection::new(graph, Identifiers::shuffled(graph.node_count(), &mut rng))
    }

    #[test]
    fn elects_the_minimum_identifier_on_a_ring() {
        let graph = generators::ring(10);
        let protocol = shuffled_protocol(&graph, 3);
        let expected = protocol.expected_leader().unwrap();
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            7,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(500_000);
        assert!(report.silent);
        assert!(report.legitimate);
        let leaders = sim.protocol().self_declared_leaders(sim.config());
        assert_eq!(leaders, vec![expected], "exactly one leader");
        // Distances match the oracle BFS layering from the elected process.
        let oracle: Vec<usize> = selfstab_graph::properties::bfs_distances(&graph, expected)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(LeaderElection::distances(sim.config()), oracle);
    }

    #[test]
    fn fake_smaller_leader_is_eliminated() {
        let graph = generators::ring(8);
        // Identifiers 10..18; fake leader claim 0 is smaller than all.
        let protocol =
            LeaderElection::new(&graph, Identifiers::from_vec((10..18).collect()).unwrap());
        let expected = protocol.expected_leader().unwrap();
        let config: Vec<LeaderElectionState> = (0..8)
            .map(|i| LeaderElectionState {
                leader: 0,
                dist: (i % 4) + 1,
                parent: Port::new(0),
                cur: Port::new(i % 2),
            })
            .collect();
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            5,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100_000);
        assert!(report.silent, "the fake leader must starve out");
        assert!(sim.config().iter().all(|s| s.leader == 10));
        assert_eq!(
            sim.protocol().self_declared_leaders(sim.config()),
            vec![expected]
        );
    }

    #[test]
    fn is_eventually_one_efficient() {
        let graph = generators::grid(4, 4);
        let protocol = shuffled_protocol(&graph, 9);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            13,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(500_000);
        assert!(report.silent);
        // Repairs scan whole neighborhoods (up to Δ = 4 reads)…
        assert!(sim.stats().measured_efficiency() >= 1);
        sim.mark_suffix();
        sim.run_steps(2_000);
        assert!(sim.is_silent(), "silence is closed under execution");
        // …but the stabilized protocol probes exactly one neighbor per
        // activation: ♦-1-efficiency.
        assert_eq!(sim.stats().suffix_measured_efficiency(), 1);
    }

    #[test]
    fn comm_and_state_bits_account_for_ids_and_domains() {
        let graph = generators::star(9);
        let protocol = LeaderElection::new(&graph, Identifiers::sequential(9));
        // ids over 0..9 -> 4 bits; dist over 0..=9 -> 4 bits.
        assert_eq!(protocol.comm_bits(&graph, NodeId::new(0)), 2 * 4 + 4);
        // center: 4 + 4 + 2*log(8) = 14.
        assert_eq!(protocol.state_bits(&graph, NodeId::new(0)), 4 + 4 + 6);
        // leaf: 4 + 4 + 2*1 = 10.
        assert_eq!(protocol.state_bits(&graph, NodeId::new(3)), 4 + 4 + 2);
    }

    #[test]
    fn legitimacy_requires_a_unique_self_declared_leader() {
        let graph = generators::path(3);
        let protocol = LeaderElection::new(&graph, Identifiers::sequential(3));
        // Everyone correctly advertises leader 0 with BFS distances.
        let good = vec![
            LeaderElectionState {
                leader: 0,
                dist: 0,
                parent: Port::new(0),
                cur: Port::new(0),
            },
            LeaderElectionState {
                leader: 0,
                dist: 1,
                parent: Port::new(0),
                cur: Port::new(0),
            },
            LeaderElectionState {
                leader: 0,
                dist: 2,
                parent: Port::new(0),
                cur: Port::new(0),
            },
        ];
        assert!(protocol.is_legitimate(&graph, &good));
        assert_eq!(protocol.self_declared_leaders(&good), vec![NodeId::new(0)]);
        // A second self-declared leader breaks legitimacy.
        let mut two_leaders = good.clone();
        two_leaders[2].leader = 2;
        two_leaders[2].dist = 0;
        assert!(!protocol.is_legitimate(&graph, &two_leaders));
        // Wrong distances break legitimacy even with the right leader.
        let mut bad_dist = good;
        bad_dist[2].dist = 1;
        assert!(!protocol.is_legitimate(&graph, &bad_dist));
    }

    #[test]
    fn out_of_domain_distances_are_repaired_without_overflow() {
        // Arbitrary corruption may leave dist far outside 0..=n (including
        // usize::MAX); probing such a neighbor must neither overflow nor
        // treat the wrapped value as adoptable.
        let graph = generators::path(4);
        let protocol = LeaderElection::new(&graph, Identifiers::sequential(4));
        let mut config: Vec<LeaderElectionState> = (0..4)
            .map(|i| LeaderElectionState {
                leader: 0,
                dist: i,
                parent: Port::new(0),
                cur: Port::new(0),
            })
            .collect();
        config[2] = LeaderElectionState {
            leader: 0,
            dist: usize::MAX,
            parent: Port::new(0),
            cur: Port::new(0),
        };
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        assert_eq!(LeaderElection::distances(sim.config()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn isolated_process_elects_itself_and_quiesces() {
        let graph = Graph::from_edges(1, &[]).unwrap();
        let protocol = LeaderElection::new(&graph, Identifiers::sequential(1));
        let config = vec![LeaderElectionState {
            leader: 7,
            dist: 3,
            parent: Port::new(0),
            cur: Port::new(0),
        }];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            1,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(10);
        assert!(report.silent);
        assert_eq!(sim.config()[0].leader, 0);
        assert_eq!(sim.config()[0].dist, 0);
    }
}
