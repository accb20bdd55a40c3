//! Shared helpers for the criterion benchmarks.
//!
//! Each bench target regenerates (and times) the workload of one experiment
//! from `selfstab-analysis`; the mapping to the paper's artifacts is listed
//! in `DESIGN.md` and `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use selfstab_analysis::experiments::ExperimentConfig;

/// The configuration used by every benchmark: few runs, generous step
/// budget, fixed seed, single-threaded campaigns (the campaign-throughput
/// bench overrides the thread count explicitly) — criterion supplies the
/// repetition.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        runs: 2,
        max_steps: 2_000_000,
        base_seed: 0xBEEF,
        threads: 1,
    }
}

/// Criterion sample size used across the suite (kept small: each sample is
/// a full protocol execution, not a micro-operation).
pub const SAMPLE_SIZE: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small_but_generous_in_steps() {
        let cfg = bench_config();
        assert!(cfg.runs <= 3);
        assert!(cfg.max_steps >= 1_000_000);
    }
}
