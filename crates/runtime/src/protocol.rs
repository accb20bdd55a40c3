//! The [`Protocol`] trait: one local algorithm, executed by every process.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_graph::{Graph, NodeId};

use crate::view::NeighborView;

/// A distributed protocol in the paper's locally shared memory model.
///
/// A protocol is a collection of identical local algorithms, one per process
/// (the *uniform* / anonymous setting; per-process constants such as the
/// local colors of the MIS and MATCHING protocols are stored inside the
/// protocol value itself and indexed by [`NodeId`]).
///
/// The state of a process splits into:
///
/// * its **communication state** ([`Protocol::Comm`]), the part neighbors may
///   read — extracted by [`Protocol::comm`],
/// * its **internal variables**, the remainder of [`Protocol::State`].
///
/// An activation ([`Protocol::activate`]) atomically evaluates the process's
/// guarded actions in priority order against a read-tracked view of its
/// neighbors' communication states and returns the new state of the enabled
/// action with the highest priority, or `None` when the process is disabled.
/// That one definition is the protocol: a process is enabled exactly when
/// its activation returns `Some`, which is what [`Protocol::is_enabled`]
/// computes unless a protocol overrides it, and a process is silent when
/// it is disabled, which is what [`Protocol::is_silent_at`] computes unless
/// a protocol whose guards never fall quiet overrides it. A configuration
/// is silent when every process is ([`is_silent_config`]).
///
/// # Contract
///
/// * Whether `activate` returns `Some` depends only on `state` and `view`,
///   never on `rng`: guards are deterministic, and only action *bodies*
///   may draw. A hand-written `is_enabled` is an optimisation and must
///   agree with it. The executor relies on this: when the daemon does not
///   read the enabled set, a selected process's enabled flag is settled
///   from whether its activation returned `Some`, without calling
///   `is_enabled`. Debug builds check an override wherever the flag is
///   already known, and the sampled check against the from-scratch
///   reference catches the rest.
/// * `activate`, `is_enabled` and `is_silent_at` may only learn about other
///   processes through `view` — this is what makes the measured read sets
///   meaningful, and what lets the executor check silence on its own
///   communication cache.
/// * `comm` must be a pure projection of the state.
///
/// # Threading
///
/// Simulations run on the campaign engine's worker threads, and the trait
/// keeps protocols and configurations shareable between threads by
/// reference: a protocol must be [`Sync`] and its state/communication
/// types must be [`Send`]` + `[`Sync`]. Protocols are plain data plus pure
/// functions in this model (all mutation goes through the returned
/// states), so these bounds are vacuous in practice — they exclude
/// interior mutability, which the contract above already forbids.
pub trait Protocol: Sync {
    /// Full per-process state: communication plus internal variables.
    type State: Clone + fmt::Debug + PartialEq + Send + Sync;
    /// Communication state: the projection of the state neighbors can read.
    type Comm: Clone + fmt::Debug + PartialEq + Send + Sync;

    /// Short human-readable protocol name (used in reports and traces).
    fn name(&self) -> &'static str;

    /// Samples an arbitrary state for process `p`.
    ///
    /// Self-stabilization quantifies over *every* initial configuration; the
    /// simulation approximates this by sampling states uniformly over the
    /// variable domains (and the test suites additionally exercise
    /// hand-crafted worst cases).
    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> Self::State;

    /// Projects the communication state of process `p` out of its full
    /// state. Per-process communication **constants** (such as the local
    /// color `C.p` of the MIS and MATCHING protocols) are part of the
    /// communication state and are attached here.
    fn comm(&self, p: NodeId, state: &Self::State) -> Self::Comm;

    /// Returns `true` when at least one guarded action of `p` is enabled.
    ///
    /// Reads performed here are **not** charged to the communication
    /// measures: enabledness is the scheduler's (daemon's) omniscient view,
    /// not a message exchanged by the protocol.
    ///
    /// The default runs [`Protocol::activate`] and reports whether it
    /// moved. Its generator has a fixed key and is seeded lazily, so a
    /// deterministic activation never seeds it. Override only where the
    /// guard is measurably cheaper than the activation; the override must
    /// agree with `activate` (see the contract).
    #[inline]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Self::State,
        view: &NeighborView<'_, Self::Comm>,
    ) -> bool {
        // Whether the activation moves does not depend on its draws, so
        // any fixed key gives the same answer.
        self.activate(graph, p, state, view, &mut ActivationRng::new(0))
            .is_some()
    }

    /// Executes one atomic activation of `p` from `state`, reading neighbors
    /// through `view`, and returns the new state, or `None` when every
    /// guarded action is disabled.
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Self::State,
        view: &NeighborView<'_, Self::Comm>,
        rng: &mut dyn RngCore,
    ) -> Option<Self::State>;

    /// Number of bits needed to encode the communication state of `p`
    /// (used for the communication complexity of Definition 5).
    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64;

    /// Number of bits needed to encode the full local state of `p`
    /// (communication + internal variables; Definition 6 adds the
    /// communication complexity on top of this).
    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64;

    /// The problem's legitimacy predicate over a full configuration.
    fn is_legitimate(&self, graph: &Graph, config: &[Self::State]) -> bool;

    /// Returns `true` when process `p` is *silent*: its local share of the
    /// paper's silence (§2) holds, where a configuration is silent, every
    /// continuation keeping all communication variables fixed, when every
    /// process is ([`is_silent_config`]). It reads what a guard reads:
    /// `p`'s own state and, through `view`, its neighbours' communication
    /// states. Reads here are not charged to the communication measures.
    ///
    /// The default is `!is_enabled`. A terminal configuration, where no
    /// guard holds, is silent by definition, so the default is exact for
    /// every protocol whose guards fall quiet. Override it only for a
    /// protocol that keeps a guard enabled forever, probing a neighbour
    /// while its communication variables stay fixed (COLORING, MIS,
    /// MATCHING, the leader election and the transformer do); the override
    /// must hold at every disabled process, and where it holds at every
    /// process, no continuation may change a communication variable.
    #[inline]
    fn is_silent_at(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Self::State,
        view: &NeighborView<'_, Self::Comm>,
    ) -> bool {
        !self.is_enabled(graph, p, state, view)
    }
}

/// The from-scratch silence reference: whether [`Protocol::is_silent_at`]
/// holds at every process of `config`, on untracked views of a
/// communication snapshot built from `config` itself.
///
/// [`Simulation::is_silent`](crate::Simulation::is_silent) evaluates the
/// same conjunction on the simulation's communication cache and allocates
/// nothing; this function collects an `n`-entry snapshot, so it serves
/// configurations no simulation holds (the impossibility
/// counterexamples) and the tests that compare the two.
pub fn is_silent_config<P: Protocol>(protocol: &P, graph: &Graph, config: &[P::State]) -> bool {
    let snapshot: Vec<P::Comm> = graph
        .nodes()
        .map(|p| protocol.comm(p, &config[p.index()]))
        .collect();
    all_silent(protocol, graph, config, &snapshot)
}

/// Whether [`Protocol::is_silent_at`] holds at every process of `config`,
/// each reading its neighbours in `comm`, which covers the graph. The
/// reference and [`Simulation::is_silent`](crate::Simulation::is_silent)
/// differ only in `comm`. A function of its own, not a loop inside
/// `is_silent`: written there, release codegen called `BfsTree`'s derived
/// guard out of line per process, and its check read about 40% slower.
pub(crate) fn all_silent<P: Protocol>(
    protocol: &P,
    graph: &Graph,
    config: &[P::State],
    comm: &[P::Comm],
) -> bool {
    graph.nodes().all(|p| {
        let view = NeighborView::untracked_row(graph.neighbor_slice(p), comm);
        protocol.is_silent_at(graph, p, &config[p.index()], &view)
    })
}

/// The private RNG of one activation, seeded from a 64-bit key. The
/// executor derives the key from `(seed, step, process)`, so the random
/// stream a protocol sees depends on which process is activated at which
/// step of which run, and on nothing else — not on the order of
/// activations within a step, nor on how many processes the step
/// selected. A replay of the same selections therefore hands every
/// activation the same randomness. [`Protocol::is_enabled`]'s default
/// uses a fixed key.
///
/// Everything past storing the key is **lazy**: the first draw mixes it
/// (a SplitMix64 finalizer) and expands it into generator state, so
/// protocols that never draw during `activate` (MIS, matching, the
/// min-value test protocols — the synchronous hot path at 10⁶ activations
/// per step) pay one branch per activation instead of a mix and a full
/// `seed_from_u64`.
pub(crate) struct ActivationRng {
    key: u64,
    inner: Option<StdRng>,
}

impl ActivationRng {
    /// A generator for `key`, not yet mixed or seeded.
    #[inline]
    pub(crate) fn new(key: u64) -> Self {
        ActivationRng { key, inner: None }
    }

    #[inline]
    fn rng(&mut self) -> &mut StdRng {
        self.inner.get_or_insert_with(|| {
            let mut z = self.key;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            StdRng::seed_from_u64(z ^ (z >> 31))
        })
    }
}

impl RngCore for ActivationRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.rng().next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.rng().next_u64()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng().fill_bytes(dest)
    }
}

/// Number of bits required to store a variable ranging over `domain_size`
/// distinct values (at least 1).
pub fn bits_for_domain(domain_size: u64) -> u64 {
    if domain_size <= 2 {
        1
    } else {
        64 - (domain_size - 1).leading_zeros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_domain_matches_log2_ceiling() {
        assert_eq!(bits_for_domain(0), 1);
        assert_eq!(bits_for_domain(1), 1);
        assert_eq!(bits_for_domain(2), 1);
        assert_eq!(bits_for_domain(3), 2);
        assert_eq!(bits_for_domain(4), 2);
        assert_eq!(bits_for_domain(5), 3);
        assert_eq!(bits_for_domain(8), 3);
        assert_eq!(bits_for_domain(9), 4);
        assert_eq!(bits_for_domain(1 << 20), 20);
        assert_eq!(bits_for_domain((1 << 20) + 1), 21);
    }
}
