//! Summaries of per-unit samples and the metric catalogue.

use selfstab_analysis::stats::Summary;

use crate::workloads::EXPERIMENT_SPANS;

/// Median of a sample (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    Summary::from_samples(samples.iter().copied()).median
}

/// Tail percentiles that may be reported next to a median, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder with at least ten samples beyond
/// it, and its nearest-rank value; `None` below 20 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let count = samples.len();
    let q = TAIL_LADDER.iter().rev().copied().find(|&q| {
        let rank = (q / 100.0 * count as f64).ceil() as usize;
        rank >= 1 && count - rank >= MIN_BEYOND
    })?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * count as f64).ceil() as usize;
    Some((q, sorted[rank - 1]))
}

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of the untraced run (`--trace 0`), on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    metric("setup_s", "s"),
    metric("run_s", "s"),
    metric("activations_per_s", "1/s"),
    metric("peak_rss_mb", "MB"),
];

/// Metrics of the traced run (`--trace 1`), on every workload; a layer a
/// workload does not call reports 0.
pub const PER_LAYER: [MetricDef; 34] = [
    metric("graph.build_s", "s"),
    metric("core.protocol_new_s", "s"),
    metric("core.is_silent_s", "s"),
    metric("core.is_legitimate_s", "s"),
    metric("core.suffix_report_s", "s"),
    metric("executor.new_s", "s"),
    metric("executor.refresh_s", "s"),
    metric("executor.step_s", "s"),
    metric("executor.selection_s", "s"),
    metric("executor.activation_s", "s"),
    metric("executor.merge_s", "s"),
    metric("executor.steps", "count"),
    metric("executor.rounds", "count"),
    metric("executor.activations", "count"),
    metric("executor.executed", "count"),
    metric("executor.executed_ratio", "fraction"),
    metric("executor.guard_evals", "count"),
    metric("executor.guard_evals_per_activation", "ratio"),
    metric("stats.read_ops", "count"),
    metric("stats.reads_per_activation", "ratio"),
    metric("stats.mark_suffix_s", "s"),
    metric("stats.suffix_efficiency_s", "s"),
    metric("soa.state_bytes_per_node", "B"),
    metric("soa.comm_bytes_per_node", "B"),
    metric("faults.inject_s", "s"),
    metric("faults.victims", "count"),
    metric("faults.recovery_steps", "count"),
    metric("table.render_s", "s"),
    metric("campaign.cells", "count"),
    metric("campaign.cell_p50_s", "s"),
    metric("campaign.cell_p90_s", "s"),
    metric("bench.unit_self_s", "s"),
    metric("bench.trace_overhead", "fraction"),
    metric("bench.error_rate", "fraction"),
];

/// Whether `name` is a valid metric name: a letter or digit first, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every metric name: end-to-end, then per-layer, then per-experiment (the
/// span name with an `_s` suffix, like every span's metric).
pub fn all_names() -> Vec<String> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.name.to_string())
        .chain(EXPERIMENT_SPANS.iter().map(|span| format!("{span}_s")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_is_reported_below_twenty_units() {
        for count in 0..20 {
            let samples: Vec<f64> = (0..count).map(f64::from).collect();
            assert_eq!(tail(&samples), None, "{count} units");
        }
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((50.0, 10.0)));
    }

    #[test]
    fn the_reported_tail_keeps_ten_units_beyond_it() {
        for count in 20..2500usize {
            let samples: Vec<f64> = (1..=count).map(|i| i as f64).collect();
            let (q, value) = tail(&samples).expect("20+ units report a tail");
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert!(beyond >= 10, "{count} units: p{q} leaves {beyond} beyond");
        }
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90.0, 90.0)));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names = all_names();
        for name in &names {
            assert!(valid_name(name), "invalid metric name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric names");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("E7/E8"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let workloads = ["paper-suite", "converge", "stabilized"];
        let metrics: Vec<&str> = declared
            .iter()
            .copied()
            .filter(|name| !workloads.contains(name))
            .collect();
        assert_eq!(metrics, all_names());
        assert!(all_names().contains(&"experiments.E7-E8_s".to_string()));
    }
}
