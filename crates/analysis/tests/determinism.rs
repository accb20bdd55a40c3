//! Campaign determinism: the campaign thread count must never change a
//! result.
//!
//! Every experiment cell is a pure function of its grid point and seed, and
//! the engine orders results by grid position rather than completion order —
//! so every experiment table must be **byte-identical** between
//! `--threads 1` and `--threads 8`, and across a matrix of thread counts.
//! This is the property that makes the parallel campaign engine safe to
//! enable by default.

use selfstab_analysis::experiments::{self, ExperimentConfig};

/// A cheap grid (quick step budget, two seeds) that still exercises every
/// experiment, including the multi-axis E9/E12/E13 sweeps.
fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        runs: 2,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn every_table_is_byte_identical_between_one_and_eight_threads() {
    let sequential = experiments::run_all(&quick_config().with_threads(1));
    let parallel = experiments::run_all(&quick_config().with_threads(8));
    assert_eq!(sequential.len(), parallel.len());
    assert_eq!(sequential.len(), experiments::registry().len());
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_eq!(
            seq.to_text(),
            par.to_text(),
            "experiment {} differs between 1 and 8 threads",
            seq.id
        );
        // The machine-readable renderings must agree too.
        assert_eq!(seq.to_csv(), par.to_csv(), "{} CSV differs", seq.id);
        assert_eq!(seq.to_json(), par.to_json(), "{} JSON differs", seq.id);
    }
}

#[test]
fn e14_fault_scenario_tables_are_thread_count_independent() {
    // The fault-scenario engine adds per-cell mutable state (the
    // FaultInjector scratch, the StuckAt candidate search, the telemetry
    // driver); all of it is built locally from the cell's seed, so the E14
    // table — victims, recovery rounds, availability, read spikes — must
    // stay byte-identical for every thread count.
    let only = vec!["E14".to_string()];
    let sequential = experiments::run_selected(&quick_config().with_threads(1), Some(&only));
    let parallel = experiments::run_selected(&quick_config().with_threads(8), Some(&only));
    assert_eq!(sequential.len(), 1);
    assert_eq!(sequential[0].to_text(), parallel[0].to_text());
    assert_eq!(sequential[0].to_json(), parallel[0].to_json());
}

#[test]
fn quick_suite_is_byte_identical_across_the_thread_matrix() {
    // The matrix on a representative selection: E2 (randomized
    // activations), E9 (fault injection + recovery telemetry), E12
    // (multi-axis sweep). Reference point: one
    // thread, against 2, 4 and 8 threads.
    let only = vec!["E2".to_string(), "E9".to_string(), "E12".to_string()];
    let render = |tables: &[selfstab_analysis::ExperimentTable]| -> String {
        tables
            .iter()
            .map(|t| format!("{}\n{}\n{}", t.to_text(), t.to_csv(), t.to_json()))
            .collect()
    };
    let reference = render(&experiments::run_selected(
        &quick_config().with_threads(1),
        Some(&only),
    ));
    for threads in [2, 4, 8] {
        let tables = experiments::run_selected(&quick_config().with_threads(threads), Some(&only));
        assert_eq!(
            render(&tables),
            reference,
            "tables differ at threads={threads}"
        );
    }
}

#[test]
fn selection_is_thread_count_independent_too() {
    let only = vec!["E2".to_string(), "E7".to_string()];
    let sequential = experiments::run_selected(&quick_config().with_threads(1), Some(&only));
    let parallel = experiments::run_selected(&quick_config().with_threads(8), Some(&only));
    let render = |tables: &[selfstab_analysis::ExperimentTable]| -> String {
        tables.iter().map(|t| t.to_text()).collect()
    };
    assert_eq!(render(&sequential), render(&parallel));
    assert_eq!(sequential.len(), 2);
}
