//! Property tests for fault-model determinism.
//!
//! The campaign engine's thread-count independence rests on every cell
//! being a pure function of its grid point and seed; fault scenarios add
//! victim selection, adversarial state search and plan execution to a
//! cell, so all of it must be a pure function of `(graph, model, seed)`:
//! same seed ⇒ same victims and same post-injection states, regardless of
//! injector reuse history or how many scenarios ran before on *other*
//! injectors (each cell builds its own).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::faults::{
    run_fault_plan, BallCenter, FaultInjector, FaultLoad, FaultModel, FaultPlan,
};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{SimOptions, Simulation};

struct MinValue;

impl Protocol for MinValue {
    type State = u32;
    type Comm = u32;

    fn name(&self) -> &'static str {
        "min-value"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> u32 {
        rand::Rng::gen_range(rng, 0..1000)
    }

    fn comm(&self, _p: NodeId, state: &u32) -> u32 {
        *state
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
        _rng: &mut dyn RngCore,
    ) -> Option<u32> {
        let min = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .min()
            .unwrap_or(*state);
        (min < *state).then_some(min)
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn is_legitimate(&self, _graph: &Graph, config: &[u32]) -> bool {
        let min = config.iter().min().copied().unwrap_or(0);
        config.iter().all(|&v| v == min)
    }
}

/// Strategy over the fault-model space.
fn model() -> impl Strategy<Value = FaultModel> {
    (0usize..4, 1usize..6, 0usize..3, 1u32..60).prop_map(|(kind, count, radius, pct)| match kind {
        0 => FaultModel::Uniform(FaultLoad::Fraction(f64::from(pct) / 100.0)),
        1 => FaultModel::DegreeTargeted(FaultLoad::Count(count)),
        2 => FaultModel::Ball {
            center: if count % 2 == 0 {
                BallCenter::Random
            } else {
                BallCenter::Hub
            },
            radius,
        },
        _ => FaultModel::StuckAt(FaultLoad::Count(count)),
    })
}

/// Strategy over small workload topologies.
fn graph() -> impl Strategy<Value = Graph> {
    (0usize..4, 6usize..20).prop_map(|(family, n)| match family {
        0 => generators::ring(n),
        1 => generators::star(n),
        2 => generators::grid(3, (n / 3).max(2)),
        _ => generators::random_tree(n, &mut StdRng::seed_from_u64(n as u64)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_seed_same_victims_and_states(m in model(), g in graph(), seed in 0u64..10_000) {
        // Two independent injector/sim/rng stacks with the same seed must
        // corrupt the same processes with the same states.
        let run = |_| {
            let mut sim = Simulation::with_config(
                &g,
                MinValue,
                Synchronous,
                vec![500; g.node_count()],
                seed,
                SimOptions::default(),
            );
            let mut injector = FaultInjector::new(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let victims = injector.inject(&mut sim, m, &mut rng).to_vec();
            (victims, sim.config().to_vec())
        };
        let (victims_a, config_a) = run(0);
        let (victims_b, config_b) = run(1);
        prop_assert_eq!(victims_a, victims_b);
        prop_assert_eq!(config_a, config_b);
    }

    #[test]
    fn injector_reuse_does_not_change_selection_distribution_shape(
        m in model(), seed in 0u64..10_000,
    ) {
        // A fresh injector and a heavily reused one agree once their rngs
        // are aligned: selection depends only on (graph, model, rng
        // stream), never on pool history. (The pool is a permutation; any
        // permutation is an equally valid partial-Fisher–Yates start, and
        // the rng draws are what pick the victims.)
        let g = generators::ring(16);
        let mut fresh = FaultInjector::new(&g);
        let mut reused = FaultInjector::new(&g);
        // Scramble the reused injector's pool with a throwaway rng.
        let mut scramble_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        for _ in 0..5 {
            reused.select_victims(&g, FaultModel::Uniform(FaultLoad::Count(7)), &mut scramble_rng);
        }
        match m {
            FaultModel::DegreeTargeted(_) | FaultModel::Ball { center: BallCenter::Hub, .. } => {
                // Deterministic models must agree exactly, history or not.
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let a = fresh.select_victims(&g, m, &mut rng_a).to_vec();
                let b = reused.select_victims(&g, m, &mut rng_b).to_vec();
                prop_assert_eq!(a, b);
            }
            _ => {
                // Randomized models: victim count is history-independent.
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let a = fresh.select_victims(&g, m, &mut rng_a).len();
                let b = reused.select_victims(&g, m, &mut rng_b).len();
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn whole_scenario_runs_are_seed_deterministic(
        m in model(), seed in 0u64..10_000, period in 1u64..10,
    ) {
        // The full plan driver — injections, stepping, telemetry — must be
        // byte-equal across two executions of the same (graph, plan, seed):
        // exactly what makes fault plans a safe campaign axis.
        let g = generators::grid(4, 4);
        let plan = FaultPlan::periodic(m, period, 2);
        let run = |_| {
            let mut sim = Simulation::new(&g, MinValue, Synchronous, seed, SimOptions::default());
            sim.run_until_silent(10_000);
            let mut injector = FaultInjector::new(&g);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA);
            let telemetry = run_fault_plan(&mut sim, &plan, &mut injector, &mut rng, 10_000);
            (telemetry, sim.config().to_vec())
        };
        let (telemetry_a, config_a) = run(0);
        let (telemetry_b, config_b) = run(1);
        prop_assert_eq!(telemetry_a, telemetry_b);
        prop_assert_eq!(config_a, config_b);
    }
}
