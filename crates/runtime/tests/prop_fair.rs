//! Property test for the [`Fair`] scheduler wrapper: no process goes more
//! than `window` consecutive steps without being selected, no matter how
//! adversarial the wrapped scheduler is — so every continuously-enabled
//! process is activated within a bounded number of steps, which is the
//! paper's fairness assumption made quantitative.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfstab_graph::Graph;
use selfstab_runtime::enabled::EnabledSet;
use selfstab_runtime::scheduler::{
    CentralRoundRobin, DistributedRandom, Fair, Scheduler, SchedulerContext, StarvingAdversary,
    Synchronous,
};

/// The inner schedulers the wrapper is exercised against, including the one
/// built to starve processes.
fn make_inner(kind: u8) -> Box<dyn Scheduler> {
    match kind % 4 {
        0 => Box::new(StarvingAdversary::new()),
        1 => Box::new(CentralRoundRobin::new()),
        2 => Box::new(DistributedRandom::new(0.05)),
        _ => Box::new(Synchronous),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fair_wrapper_selects_every_process_within_the_window(
        n in 1usize..24,
        window in 1u64..16,
        inner_kind in 0u8..4,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Graph::from_edges(n, &[]).expect("edgeless graph");
        let mut scheduler = Fair::new(make_inner(inner_kind), window);
        // `continuously[i]`: process i is enabled at every step; the others
        // flicker randomly (the fairness bound only concerns processes whose
        // guard stays enabled, but selection must be forced regardless).
        let continuously: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
        let mut unselected = vec![0u64; n];
        for step in 0..300u64 {
            let flags: Vec<bool> = continuously
                .iter()
                .map(|&always| always || rng.gen_bool(0.5))
                .collect();
            let enabled = EnabledSet::from_flags(flags);
            let ctx = SchedulerContext::new(step, &graph, &enabled);
            let mut chosen = Vec::new();
            scheduler.select(&ctx, &mut rng, &mut chosen);
            prop_assert!(!chosen.is_empty(), "schedulers must select non-empty subsets");
            prop_assert!(
                chosen.windows(2).all(|w| w[0] < w[1]),
                "selections must be sorted and duplicate-free"
            );
            let mut selected_now = vec![false; n];
            for p in &chosen {
                prop_assert!(p.index() < n, "selection outside the system");
                selected_now[p.index()] = true;
            }
            for i in 0..n {
                if selected_now[i] {
                    unselected[i] = 0;
                } else {
                    unselected[i] += 1;
                    prop_assert!(
                        unselected[i] <= window,
                        "process {i} not selected for {} > window = {window} steps \
                         (inner = {}, step = {step})",
                        unselected[i],
                        scheduler.inner().name(),
                    );
                }
            }
        }
        // Sanity: with a small window every process really was selected.
        prop_assert!(unselected.iter().all(|&u| u <= window));
    }
}
