//! Steady end-to-end benchmark of the selfstab workspace.
//!
//! ```text
//! selfstab-perfbench --workload paper-suite|converge|stabilized
//!                    --seconds S --trace 0|1 [--seed N] [--n PROCESSES]
//! ```
//!
//! Each run executes one workload in this process on one thread. It sets
//! the workload up, runs one untimed warm-up unit, then times units for
//! `--seconds` seconds and checks every unit's output. The last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! lines before it give each median with its unit count and tail
//! percentile, and the wall-clock medians behind the host-corrected ones.
//!
//! `--trace 0` reports the end-to-end metrics. Their times are stated at a
//! fixed host speed (see `reference`), and `setup_s` is the median of five
//! cold set-ups, each in a fresh child process (`--setup-only 1`).
//! `--trace 1` spends half the time on an untraced pass and half on a
//! traced pass over the same unit inputs, checks that both did exactly the
//! same work, and reports the per-layer metrics from the traced pass's
//! spans (written to `.bench_out/`). `--n` overrides the process count of
//! `converge` and `stabilized`.

mod checks;
mod reference;
mod spans;
mod summary;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use selfstab_analysis::stats::percentile;
use selfstab_runtime::telemetry::metrics;

use reference::Reference;
use spans::{NoTrace, Tracer};
use summary::{median, tail, END_TO_END, PER_LAYER};
use workloads::{Counts, Pass, PassConfig, UnitResult, Workload};

const USAGE: &str = "usage: selfstab-perfbench --workload paper-suite|converge|stabilized \
                     --seconds S --trace 0|1 [--seed N] [--n PROCESSES]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    n: Option<usize>,
    /// Set up once, print the set-up time and exit: one of the cold
    /// set-ups an untraced run starts as child processes.
    setup_only: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut n) = (None, None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |value: &str| {
            value
                .parse::<u64>()
                .map_err(|err| format!("{flag} {value}: {err}"))
        };
        let switch = |value: &str| match value {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} {value}: expected 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => trace = Some(switch(&value)?),
            "--setup-only" => setup_only = switch(&value)?,
            "--n" => {
                let processes = usize::try_from(number(&value)?).map_err(|e| e.to_string())?;
                if processes < 16 {
                    return Err(format!("--n {processes}: need at least 16 processes"));
                }
                n = Some(processes);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        n,
        setup_only,
    })
}

impl Args {
    fn pass_config(&self, budget: Duration, run_units: bool) -> PassConfig {
        PassConfig {
            seed: self.seed,
            n: self.n,
            budget,
            run_units,
            max_steps: None,
        }
    }
}

/// A finished run: the result line plus human-readable detail lines.
struct Report {
    attempted: usize,
    failed: usize,
    /// Extra condition on `correct` besides zero failed units.
    consistent: bool,
    metrics: Vec<(String, f64, &'static str)>,
    details: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.consistent && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn secs(units: &[UnitResult]) -> Vec<f64> {
    units.iter().map(|u| u.secs).collect()
}

/// `name = median (over count units; pQ = value)`.
fn describe(name: &str, unit: &str, samples: &[f64], what: &str) -> String {
    let mut line = format!(
        "{name} = {:.6} {unit}: median of {} {what}",
        median(samples),
        samples.len()
    );
    match tail(samples) {
        Some((q, value)) => {
            let _ = write!(line, "; p{q} = {value:.6} {unit}");
        }
        None => line.push_str("; too few for a tail percentile"),
    }
    line
}

/// A cold set-up in this process: (wall, host-corrected) seconds. The host
/// reference is timed by the process that sets up, just before and just
/// after the set-up, as the measured pass times it around its units.
fn set_up_once(args: &Args) -> Result<(f64, f64), String> {
    let mut reference = Reference::new();
    let before = reference.time();
    let pass = args
        .workload
        .run(&args.pass_config(Duration::ZERO, false), &mut NoTrace)?;
    let after = reference.time();
    Ok((
        pass.setup_secs,
        reference::corrected(pass.setup_secs, before, after),
    ))
}

/// A cold set-up in a fresh child process, so that every set-up pays the
/// first-touch costs a user's run pays: (wall, host-corrected) seconds.
fn set_up_in_child(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe()
        .map_err(|err| format!("cannot locate the benchmark executable: {err}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        "0",
        "--setup-only",
        "1",
    ]);
    if let Some(n) = args.n {
        command.args(["--n", &n.to_string()]);
    }
    // `output` waits for the child to exit.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot start a set-up process: {err}"))?;
    if !output.status.success() {
        return Err(format!("set-up process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let times: Vec<f64> = stdout
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("setup_s "))
        .map(|rest| rest.split(' ').filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    match times[..] {
        [wall, host] => Ok((wall, host)),
        _ => Err(format!("set-up process printed no times: {stdout:?}")),
    }
}

fn untraced(args: &Args) -> Result<Report, String> {
    let setups = (0..SETUP_REPS)
        .map(|_| set_up_in_child(args))
        .collect::<Result<Vec<_>, _>>()?;
    let budget = Duration::from_secs(args.seconds);
    let pass = args
        .workload
        .run(&args.pass_config(budget, true), &mut NoTrace)?;
    Ok(end_to_end(args, &pass, &setups, peak_rss_mb()?))
}

/// The end-to-end report of an untraced pass and its cold set-ups.
fn end_to_end(args: &Args, pass: &Pass, setups: &[(f64, f64)], peak_rss: f64) -> Report {
    let wall_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let host_setups: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let times: Vec<f64> = pass.units.iter().map(|u| u.host_secs).collect();
    let rates: Vec<f64> = pass
        .units
        .iter()
        .map(|u| u.counts.activations as f64 / u.host_secs)
        .collect();
    let failed = pass.units.iter().filter(|u| !u.ok).count();
    let values = [
        median(&host_setups),
        median(&times),
        median(&rates),
        peak_rss,
    ];
    let details = vec![
        format!(
            "workload {} seed {} n {}",
            args.workload.name(),
            args.seed,
            args.n.map_or("default".to_string(), |n| n.to_string())
        ),
        describe("setup_s", "s", &host_setups, "cold set-ups"),
        describe("run_s", "s", &times, "units"),
        describe("activations_per_s", "1/s", &rates, "units"),
        describe("wall-clock setup_s", "s", &wall_setups, "cold set-ups"),
        describe("wall-clock run_s", "s", &secs(&pass.units), "units"),
        format!("error_rate = {failed}/{}", pass.units.len()),
    ];
    Report {
        attempted: pass.units.len(),
        failed,
        consistent: true,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), v, m.unit))
            .collect(),
        details,
    }
}

/// Adds each layer's span self time to `layers`: the median over the
/// traced units of the layer's summed self time per unit, or the set-up
/// self time for layers called only during set-up.
fn span_layers(tracer: &Tracer, units: usize, layers: &mut BTreeMap<String, f64>) {
    let spans = tracer.spans();
    let mut per_unit: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut setup: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(spans::self_times(spans)) {
        let seconds = self_ns as f64 * 1e-9;
        match span.unit {
            None => *setup.entry(span.name).or_default() += seconds,
            Some(0) => {}
            Some(unit) => {
                let slots = per_unit
                    .entry(span.name)
                    .or_insert_with(|| vec![0.0; units]);
                slots[(unit - 1) as usize] += seconds;
            }
        }
    }
    for (name, seconds) in setup {
        layers.insert(format!("{name}_s"), seconds);
    }
    for (name, samples) in per_unit {
        let metric = match name {
            "bench.unit" => "bench.unit_self_s".to_string(),
            _ => format!("{name}_s"),
        };
        layers.insert(metric, median(&samples));
    }
}

fn traced(args: &Args) -> Result<Report, String> {
    let cfg = args.pass_config(Duration::from_secs_f64(args.seconds as f64 / 2.0), true);
    let plain = args.workload.run(&cfg, &mut NoTrace)?;
    let mut tracer = Tracer::default();
    metrics::set_enabled(true);
    let traced = args.workload.run(&cfg, &mut tracer);
    metrics::set_enabled(false);
    let traced = traced?;

    let out_dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(out_dir).map_err(|err| format!("cannot create .bench_out: {err}"))?;
    let spans_path = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, spans::to_json_lines(tracer.spans()))
        .map_err(|err| format!("cannot write {}: {err}", spans_path.display()))?;

    // Cross-check: the traced loop must do exactly the work the library
    // loop did, unit for unit.
    let common = plain.units.len().min(traced.units.len());
    let mismatched: Vec<usize> = (0..common)
        .filter(|&i| plain.units[i].counts != traced.units[i].counts)
        .collect();
    for &i in &mismatched {
        eprintln!(
            "unit {} counts differ: untraced {:?}, traced {:?}",
            i + 1,
            plain.units[i].counts,
            traced.units[i].counts
        );
    }

    let units = &traced.units;
    let mut layers = BTreeMap::new();
    span_layers(&tracer, units.len(), &mut layers);
    let mut set = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    let per_unit =
        |f: &dyn Fn(&UnitResult) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&UnitResult) -> f64| -> f64 { units.iter().map(f).sum() };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let phase_s =
        |u: &UnitResult, phase: usize| u.registry.map_or(0.0, |r| r.phase_ns[phase] as f64 * 1e-9);
    set("executor.selection_s", per_unit(&|u| phase_s(u, 1)));
    set("executor.activation_s", per_unit(&|u| phase_s(u, 2)));
    set("executor.merge_s", per_unit(&|u| phase_s(u, 3)));
    if args.workload == Workload::PaperSuite {
        // No executor call is visible from outside the experiment cells:
        // the registry's phase totals are the executor view.
        set("executor.refresh_s", per_unit(&|u| phase_s(u, 0)));
        set(
            "executor.step_s",
            per_unit(&|u| phase_s(u, 1) + phase_s(u, 2) + phase_s(u, 3)),
        );
        set(
            "faults.inject_s",
            per_unit(&|u| u.registry.map_or(0.0, |r| r.fault_ns as f64 * 1e-9)),
        );
    }
    let count = |f: fn(&Counts) -> u64| move |u: &UnitResult| f(&u.counts) as f64;
    set("executor.steps", per_unit(&count(|c| c.steps)));
    set("executor.rounds", per_unit(&count(|c| c.rounds)));
    set("executor.activations", per_unit(&count(|c| c.activations)));
    set("executor.executed", per_unit(&|u| u.executed as f64));
    set("executor.guard_evals", per_unit(&count(|c| c.guard_evals)));
    set("stats.read_ops", per_unit(&count(|c| c.read_ops)));
    set("faults.victims", per_unit(&count(|c| c.victims)));
    set(
        "faults.recovery_steps",
        per_unit(&count(|c| c.recovery_steps)),
    );
    let activations = total(&count(|c| c.activations));
    set(
        "executor.executed_ratio",
        ratio(total(&|u| u.executed as f64), activations),
    );
    set(
        "executor.guard_evals_per_activation",
        ratio(total(&count(|c| c.guard_evals)), activations),
    );
    set(
        "stats.reads_per_activation",
        ratio(total(&count(|c| c.read_ops)), activations),
    );
    if let Some((state, comm)) = traced.store_bytes_per_node {
        set("soa.state_bytes_per_node", state);
        set("soa.comm_bytes_per_node", comm);
    }
    let cells: Vec<f64> = units.iter().flat_map(|u| u.cells.iter().copied()).collect();
    if !cells.is_empty() {
        set("campaign.cells", per_unit(&|u| u.cells.len() as f64));
        set("campaign.cell_p50_s", percentile(&cells, 50.0));
        set("campaign.cell_p90_s", percentile(&cells, 90.0));
    }
    set(
        "bench.trace_overhead",
        ratio(
            median(&secs(&traced.units[..common])),
            median(&secs(&plain.units[..common])),
        ) - 1.0,
    );
    let attempted = plain.units.len() + units.len();
    let failed = plain.units.iter().chain(units).filter(|u| !u.ok).count();
    set("bench.error_rate", ratio(failed as f64, attempted as f64));

    let details = vec![
        format!(
            "workload {} seed {} traced: {} untraced + {} traced units, {common} cross-checked, \
             {} mismatched",
            args.workload.name(),
            args.seed,
            plain.units.len(),
            units.len(),
            mismatched.len()
        ),
        describe("untraced run_s", "s", &secs(&plain.units), "units"),
        describe("traced run_s", "s", &secs(units), "units"),
        format!("spans written to {}", spans_path.display()),
    ];
    let unit_of: BTreeMap<&str, &'static str> =
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    Ok(Report {
        attempted,
        failed,
        consistent: common > 0 && mismatched.is_empty(),
        metrics: summary::all_names()
            .into_iter()
            .skip(END_TO_END.len())
            .map(|name| {
                // A layer the workload never calls reports 0; the
                // per-experiment metrics are times.
                let value = layers.get(&name).copied().unwrap_or(0.0);
                let unit = unit_of.get(name.as_str()).copied().unwrap_or("s");
                (name, value, unit)
            })
            .collect(),
        details,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match set_up_once(&args) {
            Ok((wall, host)) => {
                println!("setup_s {wall} {host}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("set-up failed: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let report = report.and_then(|report| {
        match report
            .metrics
            .iter()
            .find(|(name, ..)| !summary::valid_name(name))
        {
            Some((name, ..)) => Err(format!("invalid metric name {name}")),
            None => Ok(report),
        }
    });
    match report {
        Ok(report) => {
            for line in &report.details {
                println!("# {line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_that_fails_its_check_raises_the_error_rate() {
        // One step cannot reach silence from an arbitrary configuration, so
        // the real converge check fails on every unit.
        let args = parse_args(
            "--workload converge --seed 5 --seconds 1 --trace 0 --n 2000"
                .split_whitespace()
                .map(String::from),
        )
        .expect("valid arguments");
        let mut cfg = args.pass_config(Duration::ZERO, true);
        cfg.max_steps = Some(1);
        let pass = args.workload.run(&cfg, &mut NoTrace).expect("pass runs");
        let report = end_to_end(&args, &pass, &[(0.5, 0.5)], 1.0);
        let units = pass.units.len();
        assert!(units > 0);
        assert_eq!((report.attempted, report.failed), (units, units));
        assert!(report.json().starts_with(&format!(
            "{{\"correct\": false, \"attempted\": {units}, \"failed\": {units},"
        )));
        assert!(report
            .details
            .contains(&format!("error_rate = {units}/{units}")));
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let report = Report {
            attempted: 3,
            failed: 0,
            consistent: true,
            metrics: vec![
                ("run_s".to_string(), 0.25, "s"),
                ("peak_rss_mb".to_string(), f64::NAN, "MB"),
            ],
            details: Vec::new(),
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload converge --seed 3 --seconds 10 --trace 1 --n 5000")
            .expect("valid arguments");
        assert_eq!(args.workload, Workload::Converge);
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.n),
            (3, 10, true, Some(5000))
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload converge --seed 1 --seconds 1 --trace 2").is_err());
        let default = parse("--workload converge --seconds 1 --trace 0").expect("seed is optional");
        assert_eq!(default.seed, DEFAULT_SEED);
        assert!(parse("--workload converge --seed 1 --trace 0").is_err());
        assert!(parse("--workload converge --seed 1 --seconds 1 --trace").is_err());
        assert!(!default.setup_only);
        let child = parse("--workload stabilized --seconds 1 --trace 0 --setup-only 1")
            .expect("a set-up child's arguments");
        assert!(child.setup_only);
        assert!(parse("--workload converge --seconds 1 --trace 0 --setup-only 2").is_err());
    }
}
