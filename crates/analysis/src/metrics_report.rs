//! Reports over the global telemetry metrics registry.
//!
//! The runtime's [`metrics`] registry collects wait-free counters and
//! log-bucketed duration histograms (executor phases, fault injections);
//! this module renders them for humans ([`render_table`]) and machines
//! ([`render_json`], one line, stable key set). Campaign cells are
//! summarized from the *raw* duration samples the [`campaign`] engine
//! keeps while metrics are enabled, using [`crate::stats`]'s exact
//! quantiles — the histograms' power-of-two upper bounds are good enough
//! for nanosecond phase timings, but cell latencies deserve full
//! resolution.

use selfstab_runtime::telemetry::metrics::{self, Histogram, StepPhase};

use crate::campaign;
use crate::stats::{percentile, Summary};

fn phase_quantiles(histogram: &Histogram) -> (u64, u64, u64) {
    (
        histogram.quantile_upper_bound_ns(0.50),
        histogram.quantile_upper_bound_ns(0.95),
        histogram.quantile_upper_bound_ns(0.99),
    )
}

/// Renders the registry as one machine-readable JSON line starting with
/// `{"metrics"` — greppable out of a mixed stderr stream. Durations are
/// nanoseconds (histogram upper bounds) except the campaign summary,
/// which is milliseconds computed from the exact samples.
pub fn render_json() -> String {
    let registry = metrics::global();
    let mut out = String::from("{\"metrics\":{");
    out.push_str(&format!("\"enabled\":{},\"phases\":[", metrics::enabled()));
    for (i, phase) in StepPhase::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let m = registry.phase(phase);
        let (p50, p95, p99) = phase_quantiles(m.histogram());
        out.push_str(&format!(
            "{{\"phase\":\"{}\",\"invocations\":{},\"items\":{},\"total_ns\":{},\
             \"p50_ns\":{p50},\"p95_ns\":{p95},\"p99_ns\":{p99}}}",
            phase.name(),
            m.invocations(),
            m.items(),
            m.histogram().total_ns()
        ));
    }
    let (f50, f95, f99) = phase_quantiles(registry.fault_histogram());
    out.push_str(&format!(
        "],\"faults\":{{\"injections\":{},\"victims\":{},\"total_ns\":{},\
         \"p50_ns\":{f50},\"p95_ns\":{f95},\"p99_ns\":{f99}}}",
        registry.fault_injections(),
        registry.fault_victims(),
        registry.fault_histogram().total_ns()
    ));
    let samples_ms: Vec<f64> = campaign::cell_duration_samples()
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    let summary = Summary::from_samples(samples_ms.iter().copied());
    out.push_str(&format!(
        ",\"campaign\":{{\"cells\":{},\"mean_ms\":{:.3},\"p50_ms\":{:.3},\
         \"p95_ms\":{:.3},\"p99_ms\":{:.3}}}}}}}",
        summary.count,
        summary.mean,
        summary.median,
        summary.p95,
        percentile(&samples_ms, 99.0)
    ));
    out
}

/// Renders the registry as an aligned text table for terminals.
pub fn render_table() -> String {
    let registry = metrics::global();
    let mut out = String::from("telemetry metrics\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>14} {:>12} {:>10} {:>10} {:>10}\n",
        "phase", "invocations", "items", "total_ms", "p50_ns", "p95_ns", "p99_ns"
    ));
    for phase in StepPhase::ALL {
        let m = registry.phase(phase);
        let (p50, p95, p99) = phase_quantiles(m.histogram());
        out.push_str(&format!(
            "{:<14} {:>12} {:>14} {:>12.3} {:>10} {:>10} {:>10}\n",
            phase.name(),
            m.invocations(),
            m.items(),
            m.histogram().total_ns() as f64 / 1e6,
            p50,
            p95,
            p99
        ));
    }
    let (_, f95, _) = phase_quantiles(registry.fault_histogram());
    out.push_str(&format!(
        "faults: {} injection(s), {} victim(s), p95 {f95} ns\n",
        registry.fault_injections(),
        registry.fault_victims()
    ));
    let samples_ms: Vec<f64> = campaign::cell_duration_samples()
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    let summary = Summary::from_samples(samples_ms.iter().copied());
    out.push_str(&format!(
        "campaign: {} cell(s), mean {:.3} ms, p50/p95/p99 = {:.3}/{:.3}/{:.3} ms\n",
        summary.count,
        summary.mean,
        summary.median,
        summary.p95,
        percentile(&samples_ms, 99.0)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_one_greppable_line() {
        let json = render_json();
        assert!(json.starts_with("{\"metrics\""), "{json}");
        assert!(!json.contains('\n'));
        // All four phases appear, by their stable names.
        for phase in StepPhase::ALL {
            assert!(
                json.contains(&format!("\"phase\":\"{}\"", phase.name())),
                "{json}"
            );
        }
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"campaign\""));
        // Braces balance (the report is hand-rolled).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }

    #[test]
    fn table_report_names_every_phase() {
        let table = render_table();
        for phase in StepPhase::ALL {
            assert!(table.contains(phase.name()), "{table}");
        }
        assert!(table.contains("faults:"));
        assert!(table.contains("campaign:"));
    }
}
