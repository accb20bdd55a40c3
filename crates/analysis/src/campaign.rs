//! The parallel campaign engine: declarative experiment grids executed by a
//! self-scheduling worker pool.
//!
//! Every claim the paper makes is a statement over a *grid* of runs —
//! protocol × topology × daemon × parameters × seed. A [`CampaignSpec`]
//! describes such a grid declaratively: a list of **points** (the non-seed
//! axes, any `Sync` type — typically a tuple of [`Workload`](crate::Workload),
//! [`DaemonSpec`] and protocol parameters) crossed with a list of **seeds**.
//! Each (point, seed) pair is a **cell**, and a campaign executes one pure
//! cell function over every cell:
//!
//! ```text
//! CampaignSpec { points, seeds }
//!        │  cartesian grid: one Cell per (point, seed)
//!        ▼
//! worker pool (std::thread::scope, self-scheduling over an atomic cursor)
//!        │  cell_fn: Fn(Cell<P>) -> R   — pure, no shared mutable state
//!        ▼
//! Vec<PointResult<P, R>>   — grid order, independent of interleaving
//!        │  aggregation (Summary / CellOutcome helpers)
//!        ▼
//! ExperimentTable rows
//! ```
//!
//! # Determinism
//!
//! The engine guarantees that results are **interleaving-independent**: the
//! returned vector is ordered by point (then seed) regardless of which
//! worker computed which cell, and a cell receives nothing but its own grid
//! coordinates — so as long as the cell function is pure (every experiment
//! cell only reads its point's graph, and builds its protocol, scheduler,
//! and per-cell [`StdRng`](rand::rngs::StdRng) locally from the seed), the
//! campaign's output is byte-identical for every thread count. The integration test
//! `tests/determinism.rs` checks this for all thirteen experiment tables.
//!
//! # Scheduling
//!
//! Workers self-schedule: each idle worker claims the next unclaimed cell
//! from a shared atomic cursor, so long cells (big workloads, slow daemons)
//! do not stall the queue behind them the way static chunking would. With
//! `threads == 1` the engine runs inline on the calling thread — no pool,
//! no synchronization — which keeps single-threaded runs easy to profile
//! and debug.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use selfstab_runtime::scheduler::{
    CentralRandom, CentralRoundRobin, DistributedRandom, LocallyCentral, Scheduler, Synchronous,
};
use selfstab_runtime::telemetry::metrics;

use crate::experiments::ExperimentConfig;

/// The default worker count: the machine's available parallelism, falling
/// back to 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Whether campaigns stream one progress line per completed cell to
/// stderr (process-global, off by default; the `experiments` binary's
/// `--progress` flag turns it on).
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Raw per-cell wall-time samples in seconds, kept only while metrics
/// collection is enabled. The exact samples complement the log-bucketed
/// [`metrics`] histogram: the metrics report summarizes them with
/// [`crate::stats`]'s quantiles at full resolution.
static CELL_SAMPLES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Turns per-cell progress streaming on or off process-wide.
pub fn set_progress_streaming(enabled: bool) {
    PROGRESS.store(enabled, Ordering::Relaxed); // ordering: on/off flag guarding no data
}

/// Whether per-cell progress streaming is enabled.
pub fn progress_streaming() -> bool {
    PROGRESS.load(Ordering::Relaxed) // ordering: flag read; staleness only delays a progress line
}

/// A snapshot of the raw per-cell duration samples (seconds) collected
/// while metrics were enabled, in completion order.
pub fn cell_duration_samples() -> Vec<f64> {
    CELL_SAMPLES
        .lock()
        .expect("cell samples lock poisoned")
        .clone()
}

/// Drops all collected per-cell duration samples.
pub fn clear_cell_duration_samples() {
    CELL_SAMPLES
        .lock()
        .expect("cell samples lock poisoned")
        .clear();
}

/// A declarative experiment grid: every point crossed with every seed.
///
/// `P` is the point type — the non-seed axes of the grid. Experiments use
/// plain tuples (e.g. `(Workload, DaemonSpec)`); anything `Sync` works.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec<P> {
    points: Vec<P>,
    seeds: Vec<u64>,
}

/// One cell of a campaign grid: a point plus one seed, with the grid
/// coordinates for experiments that need them (e.g. to vary identifier
/// placement by seed index).
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a, P> {
    /// The grid point this cell belongs to.
    pub point: &'a P,
    /// Index of the point in [`CampaignSpec::points`].
    pub point_index: usize,
    /// The seed of this run.
    pub seed: u64,
    /// Index of the seed in [`CampaignSpec::seeds`].
    pub seed_index: usize,
}

/// The per-point slice of a campaign's results: one entry of the vector
/// returned by [`CampaignSpec::run`], holding the results of every seed of
/// one point, in seed order.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult<'a, P, R> {
    /// The grid point.
    pub point: &'a P,
    /// One result per seed, in the order of [`CampaignSpec::seeds`].
    pub runs: Vec<R>,
}

/// Outcome of one standard convergence cell: either the metrics of a
/// stabilized run or a timeout (the step budget ran out first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome<M> {
    /// The run reached a silent configuration within its budget.
    Stabilized(M),
    /// The run exhausted its step budget without stabilizing.
    Timeout,
}

impl<M> CellOutcome<M> {
    /// The metrics of a stabilized run, `None` on timeout.
    pub fn stabilized(&self) -> Option<&M> {
        match self {
            CellOutcome::Stabilized(m) => Some(m),
            CellOutcome::Timeout => None,
        }
    }

    /// Whether the run timed out.
    pub fn is_timeout(&self) -> bool {
        matches!(self, CellOutcome::Timeout)
    }
}

impl<P, M> PointResult<'_, P, CellOutcome<M>> {
    /// Number of runs of this point that failed to stabilize.
    pub fn timeouts(&self) -> u64 {
        self.runs.iter().filter(|r| r.is_timeout()).count() as u64
    }

    /// The metrics of the stabilized runs, in seed order.
    pub fn stabilized(&self) -> impl Iterator<Item = &M> {
        self.runs.iter().filter_map(CellOutcome::stabilized)
    }

    /// Number of stabilized runs.
    pub fn stabilized_count(&self) -> usize {
        self.stabilized().count()
    }
}

impl<P> CampaignSpec<P> {
    /// A grid of every point crossed with every seed.
    pub fn new(points: Vec<P>, seeds: Vec<u64>) -> Self {
        CampaignSpec { points, seeds }
    }

    /// A grid whose seed axis comes from the shared experiment
    /// configuration (`base_seed + i` for each of the `runs` runs).
    pub fn with_config(points: Vec<P>, config: &ExperimentConfig) -> Self {
        CampaignSpec::new(points, config.seeds().collect())
    }

    /// The non-seed grid points.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The seed axis.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Total number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.points.len() * self.seeds.len()
    }

    fn cell(&self, index: usize) -> Cell<'_, P> {
        let point_index = index / self.seeds.len();
        let seed_index = index % self.seeds.len();
        Cell {
            point: &self.points[point_index],
            point_index,
            seed: self.seeds[seed_index],
            seed_index,
        }
    }

    /// Executes `cell_fn` over every cell of the grid on `threads` workers
    /// and returns the results grouped by point, in grid order.
    ///
    /// The worker count is clamped to `1..=cell_count`. Workers
    /// self-schedule over a shared atomic cursor (see the [module
    /// documentation](self)); the result order never depends on the
    /// interleaving. A panicking cell propagates the panic to the caller
    /// once the pool has drained (so experiment assertions fail tests the
    /// same way they did when the loops were sequential).
    pub fn run<R, F>(&self, threads: usize, cell_fn: F) -> Vec<PointResult<'_, P, R>>
    where
        P: Sync,
        R: Send,
        F: Fn(Cell<'_, P>) -> R + Sync,
    {
        let total = self.cell_count();
        let threads = threads.clamp(1, total.max(1));
        // Observability wrapper around the pure cell function: when metrics
        // or progress streaming are on, each cell is timed and reported;
        // when both are off this adds two relaxed loads per cell and the
        // engine behaves exactly as before (results never depend on it).
        let completed = AtomicUsize::new(0);
        let run_one = |index: usize| -> R {
            let observing = metrics::enabled() || progress_streaming();
            if !observing {
                return cell_fn(self.cell(index));
            }
            // lint: allow(determinism) — wall time feeds metrics/progress only; results never depend on it
            let started = Instant::now();
            let value = cell_fn(self.cell(index));
            let elapsed = started.elapsed();
            if metrics::enabled() {
                CELL_SAMPLES
                    .lock()
                    .expect("cell samples lock poisoned")
                    .push(elapsed.as_secs_f64());
            }
            if progress_streaming() {
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1; // ordering: progress tally only
                let cell = self.cell(index);
                eprintln!(
                    "campaign cell {done}/{total}: point {}/{} seed {} ({:.2} ms)",
                    cell.point_index + 1,
                    self.points.len(),
                    cell.seed,
                    elapsed.as_secs_f64() * 1e3
                );
            }
            value
        };
        let slots: Vec<Option<R>> = if threads == 1 {
            // Inline fast path: no pool, no locks, trivially debuggable.
            (0..total).map(|index| Some(run_one(index))).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let results: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed); // ordering: unique-index handout; results flow through the mutex
                            if index >= total {
                                break;
                            }
                            // The cell runs outside the lock; only the O(1)
                            // slot store is serialized.
                            let value = run_one(index);
                            results.lock().expect("results lock poisoned")[index] = Some(value);
                        })
                    })
                    .collect();
                // Join explicitly so a panicking cell re-raises its own
                // payload (a bare scope exit would replace it with the
                // generic "a scoped thread panicked").
                for worker in workers {
                    if let Err(payload) = worker.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
            results.into_inner().expect("results lock poisoned")
        };
        let mut slots = slots.into_iter();
        self.points
            .iter()
            .map(|point| PointResult {
                point,
                runs: (0..self.seeds.len())
                    .map(|_| {
                        slots
                            .next()
                            .flatten()
                            .expect("every cell produced a result")
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Cartesian product of two grid axes, row-major (`a` is the outer axis).
pub fn grid2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|x| b.iter().map(move |y| (x.clone(), y.clone())))
        .collect()
}

/// Cartesian product of three grid axes, row-major (`a` outermost).
pub fn grid3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    a.iter()
        .flat_map(|x| {
            b.iter()
                .flat_map(move |y| c.iter().map(move |z| (x.clone(), y.clone(), z.clone())))
        })
        .collect()
}

/// Declarative daemon axis of a campaign grid: a `Copy` description of a
/// scheduler that each cell materializes locally with [`DaemonSpec::build`]
/// — the built scheduler never crosses a thread boundary, and the spec
/// itself is trivially `Send`, so daemon sweeps parallelize like any other
/// axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DaemonSpec {
    /// Every process activated at every step.
    Synchronous,
    /// Independent per-process activation with the given probability
    /// (the paper's distributed fair daemon, fair with probability 1).
    DistributedRandom(f64),
    /// One uniformly random *enabled* process per step.
    CentralRandomEnabled,
    /// Exactly one process per step, in cyclic order.
    CentralRoundRobin,
    /// A random independent set per step (no two neighbors together), with
    /// the given per-process activation probability.
    LocallyCentral(f64),
}

impl DaemonSpec {
    /// The scheduler's name as it appears in table rows (matches
    /// [`Scheduler::name`] of the built daemon).
    pub fn name(&self) -> &'static str {
        match self {
            DaemonSpec::Synchronous => "synchronous",
            DaemonSpec::DistributedRandom(_) => "distributed-random",
            DaemonSpec::CentralRandomEnabled => "central-random",
            DaemonSpec::CentralRoundRobin => "central-round-robin",
            DaemonSpec::LocallyCentral(_) => "locally-central",
        }
    }

    /// Builds the described scheduler.
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match *self {
            DaemonSpec::Synchronous => Box::new(Synchronous),
            DaemonSpec::DistributedRandom(p) => Box::new(DistributedRandom::new(p)),
            DaemonSpec::CentralRandomEnabled => Box::new(CentralRandom::enabled_only()),
            DaemonSpec::CentralRoundRobin => Box::new(CentralRoundRobin::new()),
            DaemonSpec::LocallyCentral(p) => Box::new(LocallyCentral::new(p)),
        }
    }

    /// The daemon sweep of the spanning-tree experiments (E12/E13).
    pub fn spanning_set() -> Vec<DaemonSpec> {
        vec![
            DaemonSpec::Synchronous,
            DaemonSpec::DistributedRandom(0.5),
            DaemonSpec::CentralRandomEnabled,
        ]
    }

    /// The daemon sweep of the E11 ablation.
    pub fn ablation_set() -> Vec<DaemonSpec> {
        vec![
            DaemonSpec::Synchronous,
            DaemonSpec::DistributedRandom(0.5),
            DaemonSpec::LocallyCentral(0.5),
            DaemonSpec::CentralRoundRobin,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn grid_order_is_points_then_seeds() {
        let spec = CampaignSpec::new(vec!["a", "b"], vec![10, 20, 30]);
        assert_eq!(spec.cell_count(), 6);
        let results = spec.run(1, |cell| format!("{}{}", cell.point, cell.seed));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].runs, vec!["a10", "a20", "a30"]);
        assert_eq!(results[1].runs, vec!["b10", "b20", "b30"]);
        assert_eq!(*results[1].point, "b");
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let spec = CampaignSpec::new((0u64..7).collect(), (0..5).collect());
        let cell_fn = |cell: Cell<'_, u64>| {
            // A deterministic function with per-cell "work".
            let mut acc = cell.point.wrapping_mul(31).wrapping_add(cell.seed);
            for _ in 0..(cell.seed % 3) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let sequential = spec.run(1, cell_fn);
        for threads in [2, 4, 8, 64] {
            let parallel = spec.run(threads, cell_fn);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let spec = CampaignSpec::new((0usize..5).collect(), (100..104).collect());
        let counter = AtomicU64::new(0);
        let results = spec.run(4, |cell| {
            counter.fetch_add(1, Ordering::Relaxed); // ordering: test tally, asserted after run() returns
            (cell.point_index, cell.seed_index)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 20); // ordering: read after the scoped pool joined
        let coords: BTreeSet<(usize, usize)> = results
            .iter()
            .flat_map(|pr| pr.runs.iter().copied())
            .collect();
        assert_eq!(coords.len(), 20, "no cell coordinate repeated or lost");
    }

    #[test]
    fn oversized_thread_counts_are_clamped() {
        let spec = CampaignSpec::new(vec![1u32], vec![7]);
        let results = spec.run(1024, |cell| *cell.point + cell.seed as u32);
        assert_eq!(results[0].runs, vec![8]);
        // Zero threads behaves like one worker.
        let results = spec.run(0, |cell| *cell.point);
        assert_eq!(results[0].runs, vec![1]);
    }

    #[test]
    fn empty_grids_return_empty_results() {
        let spec: CampaignSpec<u8> = CampaignSpec::new(vec![], vec![1, 2]);
        assert!(spec.run(4, |_| 0u8).is_empty());
        let spec = CampaignSpec::new(vec![1u8], vec![]);
        let results = spec.run(4, |_| 0u8);
        assert_eq!(results.len(), 1);
        assert!(results[0].runs.is_empty());
    }

    #[test]
    #[should_panic(expected = "cell panic propagates")]
    fn a_panicking_cell_fails_the_campaign() {
        let spec = CampaignSpec::new(vec![0u8, 1], vec![0, 1]);
        let _ = spec.run(2, |cell| {
            if cell.point_index == 1 && cell.seed_index == 1 {
                panic!("cell panic propagates");
            }
            0u8
        });
    }

    #[test]
    fn cell_outcome_aggregation_helpers() {
        let spec = CampaignSpec::new(vec!["p"], vec![0, 1, 2, 3]);
        let results = spec.run(2, |cell| {
            if cell.seed % 2 == 0 {
                CellOutcome::Stabilized(cell.seed * 10)
            } else {
                CellOutcome::Timeout
            }
        });
        let pr = &results[0];
        assert_eq!(pr.timeouts(), 2);
        assert_eq!(pr.stabilized_count(), 2);
        assert_eq!(pr.stabilized().copied().collect::<Vec<_>>(), vec![0, 20]);
        assert!(CellOutcome::<u8>::Timeout.is_timeout());
        assert_eq!(CellOutcome::Stabilized(5).stabilized(), Some(&5));
    }

    #[test]
    fn grid_helpers_produce_row_major_products() {
        assert_eq!(
            grid2(&[1, 2], &["x", "y"]),
            vec![(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        );
        assert_eq!(grid3(&[1], &[2, 3], &[4]), vec![(1, 2, 4), (1, 3, 4)]);
        assert_eq!(grid2::<u8, u8>(&[], &[1]), vec![]);
    }

    #[test]
    fn daemon_specs_build_matching_schedulers() {
        for spec in [
            DaemonSpec::Synchronous,
            DaemonSpec::DistributedRandom(0.5),
            DaemonSpec::CentralRandomEnabled,
            DaemonSpec::CentralRoundRobin,
            DaemonSpec::LocallyCentral(0.5),
        ] {
            let daemon = spec.build();
            assert_eq!(daemon.name(), spec.name());
        }
        assert_eq!(DaemonSpec::spanning_set().len(), 3);
        assert_eq!(DaemonSpec::ablation_set().len(), 4);
    }

    // Streaming and metrics are process-global observability switches;
    // this test asserts they never change the engine's results and that
    // timed cells leave raw samples behind (counts are `>=` because other
    // tests in the binary may run campaigns concurrently).
    #[test]
    fn observability_does_not_disturb_results() {
        let spec = CampaignSpec::new(vec![1u64, 2], vec![0, 1, 2]);
        let plain = spec.run(2, |cell| *cell.point * 100 + cell.seed);
        set_progress_streaming(true);
        metrics::set_enabled(true);
        clear_cell_duration_samples();
        let observed = spec.run(2, |cell| *cell.point * 100 + cell.seed);
        metrics::set_enabled(false);
        set_progress_streaming(false);
        assert!(!progress_streaming());
        assert_eq!(plain, observed);
        assert!(cell_duration_samples().len() >= spec.cell_count());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
