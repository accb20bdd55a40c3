//! Regenerates every evaluation table of the paper reproduction.
//!
//! ```text
//! cargo run --release -p selfstab-analysis --bin experiments                 # full run
//! cargo run --release -p selfstab-analysis --bin experiments -- --quick     # smaller run
//! cargo run --release -p selfstab-analysis --bin experiments -- --csv out/
//! cargo run --release -p selfstab-analysis --bin experiments -- --only E3,E12
//! cargo run --release -p selfstab-analysis --bin experiments -- --seed 42
//! cargo run --release -p selfstab-analysis --bin experiments -- --threads 4
//! cargo run --release -p selfstab-analysis --bin experiments -- --format json
//! cargo run --release -p selfstab-analysis --bin experiments -- --list
//! ```
//!
//! `--only` runs (not merely prints) just the selected experiments;
//! `--seed` replaces the default base seed so independent reproductions can
//! check that the tables' shapes are seed-independent; `--threads` sets the
//! campaign engine's worker count (the tables are byte-identical for every
//! value); `--format json` emits one machine-readable JSON
//! document instead of the aligned text tables; `--list` prints the
//! experiment identifiers and exits.
//!
//! `--trace-out` and `--replay` run one trace cell instead of the
//! campaign, so they reject the campaign's options, and
//! `--trace-workload` and `--trace-seed` are accepted only with
//! `--trace-out` (a replay reads its cell from the file). `--list` runs
//! nothing, so it takes no other option. A flag the chosen mode would
//! ignore is an error, not a silent no-op, and the whole command line is
//! read before any mode answers.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use selfstab_analysis::experiments::{self, ExperimentConfig};
use selfstab_analysis::table::{json_string, ExperimentTable};
use selfstab_analysis::tracecell::{self, TraceCellSpec, TraceRunSummary};
use selfstab_analysis::workloads::Workload;
use selfstab_analysis::{campaign, metrics_report};
use selfstab_runtime::telemetry::metrics;

/// Output format of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
}

struct Args {
    quick: bool,
    csv_dir: Option<PathBuf>,
    only: Option<Vec<String>>,
    seed: Option<u64>,
    threads: Option<usize>,
    format: Option<Format>,
    trace_out: Option<PathBuf>,
    replay: Option<PathBuf>,
    trace_workload: Option<Workload>,
    trace_seed: Option<u64>,
    metrics: Option<Format>,
    progress: bool,
    list: bool,
}

const USAGE: &str = "usage: experiments [OPTIONS]

options:
  --quick              smaller configuration (3 runs, 500k-step budget)
  --csv DIR            additionally write each table as CSV into DIR
  --only E1,E2,...     run only the listed experiments (others are skipped)
  --seed N             replace the default base RNG seed
  --threads N          campaign worker threads, N >= 1
                       (default: the machine's available parallelism;
                       tables are byte-identical for every thread count)
  --format table|json  output format (default: table)
  --list               list the experiment identifiers and exit (takes no
                       other option)
  -h, --help           print this help

observability:
  --trace-out PATH     instead of the experiments, record the canonical
                       coloring fault-recovery cell into a binary trace
                       at PATH and print its summary JSON to stdout
  --trace-workload W   workload of the recorded cell (default ring(64));
                       only with --trace-out
  --trace-seed N       seed of the recorded cell (default 118213); only
                       with --trace-out
  --replay PATH        instead of the experiments, replay a recorded
                       trace, checking every activation against it, and
                       print the (byte-identical) summary JSON to stdout
                       (--trace-out and --replay reject --quick, --csv,
                       --only, --seed, --threads, --format and --progress)
  --metrics table|json enable runtime metrics and print the phase/fault/
                       campaign report to stderr at exit (json is one
                       line starting with {\"metrics\")
  --progress           stream one line per completed campaign cell to
                       stderr";

/// Outcome of argument parsing: run the experiments, print the experiment
/// list, or print usage and exit successfully (`--help` is not an error).
enum Parsed {
    Run(Args),
    List,
    Help,
}

fn parse_args() -> Result<Parsed, String> {
    let mut args = Args {
        quick: false,
        csv_dir: None,
        only: None,
        seed: None,
        threads: None,
        format: None,
        trace_out: None,
        replay: None,
        trace_workload: None,
        trace_seed: None,
        metrics: None,
        progress: false,
        list: false,
    };
    let mut iter = env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--csv" => {
                let dir = iter.next().ok_or("--csv requires a directory argument")?;
                args.csv_dir = Some(PathBuf::from(dir));
            }
            "--only" => {
                let list = iter
                    .next()
                    .ok_or("--only requires a comma-separated list (e.g. E3,E12)")?;
                args.only = Some(list.split(',').map(|s| s.trim().to_uppercase()).collect());
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed requires an integer argument")?;
                let seed = value
                    .parse::<u64>()
                    .map_err(|err| format!("--seed {value}: {err}"))?;
                args.seed = Some(seed);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .ok_or("--threads requires an integer argument")?;
                let threads = value
                    .parse::<usize>()
                    .map_err(|err| format!("--threads {value}: {err}"))?;
                if threads == 0 {
                    return Err(
                        "--threads 0 is invalid: the campaign engine needs at least one \
                         worker thread (omit the flag to use every available core)"
                            .to_string(),
                    );
                }
                args.threads = Some(threads);
            }
            "--format" => {
                let value = iter
                    .next()
                    .ok_or("--format requires an argument (table or json)")?;
                args.format = Some(match value.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other}; expected table or json")),
                });
            }
            "--trace-out" => {
                let path = iter.next().ok_or("--trace-out requires a file path")?;
                args.trace_out = Some(PathBuf::from(path));
            }
            "--replay" => {
                let path = iter.next().ok_or("--replay requires a trace file path")?;
                args.replay = Some(PathBuf::from(path));
            }
            "--trace-workload" => {
                let value = iter
                    .next()
                    .ok_or("--trace-workload requires a workload label (e.g. ring(64))")?;
                args.trace_workload = Some(value.parse::<Workload>()?);
            }
            "--trace-seed" => {
                let value = iter.next().ok_or("--trace-seed requires an integer")?;
                let seed = value
                    .parse::<u64>()
                    .map_err(|err| format!("--trace-seed {value}: {err}"))?;
                args.trace_seed = Some(seed);
            }
            "--metrics" => {
                let value = iter
                    .next()
                    .ok_or("--metrics requires an argument (table or json)")?;
                args.metrics = Some(match value.as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    other => {
                        return Err(format!(
                            "unknown metrics format {other}; expected table or json"
                        ))
                    }
                });
            }
            "--progress" => args.progress = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    check_mode(&args)?;
    if args.list {
        return Ok(Parsed::List);
    }
    if let Some(only) = &args.only {
        let known: Vec<String> = experiments::registry()
            .into_iter()
            .flat_map(|e| e.id.split('/').map(String::from).collect::<Vec<_>>())
            .collect();
        for requested in only {
            if !known.iter().any(|id| id.eq_ignore_ascii_case(requested)) {
                return Err(format!(
                    "unknown experiment {requested}; available: {}",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(Parsed::Run(args))
}

/// Rejects a flag that the chosen mode would ignore: the campaign's
/// options in a trace cell, the recorded cell's options anywhere but in a
/// recording, and any option next to `--list`.
fn check_mode(args: &Args) -> Result<(), String> {
    let mode = match (&args.trace_out, &args.replay) {
        (Some(_), Some(_)) => {
            return Err("--trace-out and --replay are mutually exclusive".to_string())
        }
        (Some(_), None) => Some("--trace-out"),
        (None, Some(_)) => Some("--replay"),
        (None, None) => None,
    };
    let first_given = |flags: &[(&'static str, bool)]| {
        flags
            .iter()
            .find(|&&(_, given)| given)
            .map(|&(flag, _)| flag)
    };
    let campaign = first_given(&[
        ("--quick", args.quick),
        ("--csv", args.csv_dir.is_some()),
        ("--only", args.only.is_some()),
        ("--seed", args.seed.is_some()),
        ("--threads", args.threads.is_some()),
        ("--format", args.format.is_some()),
        ("--progress", args.progress),
    ]);
    let cell = first_given(&[
        ("--trace-workload", args.trace_workload.is_some()),
        ("--trace-seed", args.trace_seed.is_some()),
    ]);
    // `--list` prints the identifiers and runs nothing, so it takes no
    // other option.
    let beside_list = first_given(&[
        ("--trace-out", args.trace_out.is_some()),
        ("--replay", args.replay.is_some()),
        ("--metrics", args.metrics.is_some()),
    ])
    .or(campaign)
    .filter(|_| args.list);
    match (mode, campaign, cell) {
        (Some(mode), Some(flag), _) => Err(format!(
            "{flag} is not accepted with {mode}: a trace cell runs no experiment campaign"
        )),
        (Some("--replay"), None, Some(flag)) => Err(format!(
            "{flag} is not accepted with --replay: a replay reads its cell from the trace file"
        )),
        (None, _, Some(flag)) => Err(format!(
            "{flag} is not accepted without --trace-out: it sets the recorded cell, and an \
             experiment campaign records none"
        )),
        _ => match beside_list {
            Some(flag) => Err(format!(
                "{flag} is not accepted with --list: it prints the experiment identifiers and \
                 runs nothing"
            )),
            None => Ok(()),
        },
    }
}

/// Renders the whole run as one JSON document (configuration + tables).
fn render_json(config: &ExperimentConfig, tables: &[ExperimentTable]) -> String {
    let mut out = String::from("{\n  \"config\": {");
    out.push_str(&format!(
        "\"runs\": {}, \"max_steps\": {}, \"base_seed\": {}, \"threads\": {}",
        config.runs, config.max_steps, config.base_seed, config.threads
    ));
    out.push_str("},\n  \"tables\": [\n");
    for (i, table) in tables.iter().enumerate() {
        out.push_str(&table.to_json());
        if i + 1 < tables.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}");
    out
}

/// Renders a record/replay summary; the `stats` object is the part CI
/// diffs between a recording and its replay, so its key set and
/// formatting must not depend on the mode.
fn trace_summary_json(mode: &str, path: &std::path::Path, summary: &TraceRunSummary) -> String {
    format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"{mode}\": {{\"path\": {}, \"bytes\": {}, \
         \"verified\": true}},\n  \"stats\": {{\"steps\": {}, \"rounds\": {}, \
         \"stats_digest\": \"{:016x}\", \"config_digest\": \"{:016x}\"}}\n}}",
        json_string(&path.display().to_string()),
        summary.trace_bytes,
        summary.steps,
        summary.rounds,
        summary.stats_digest,
        summary.config_digest
    )
}

/// Prints the metrics report to stderr when `--metrics` was given.
fn emit_metrics(format: Option<Format>) {
    match format {
        Some(Format::Json) => eprintln!("{}", metrics_report::render_json()),
        Some(Format::Table) => eprint!("{}", metrics_report::render_table()),
        None => {}
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::List) => {
            for experiment in experiments::registry() {
                println!("{:<6} {}", experiment.id, experiment.title);
            }
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.metrics.is_some() {
        metrics::set_enabled(true);
    }
    if args.progress {
        campaign::set_progress_streaming(true);
    }
    if let Some(path) = &args.trace_out {
        let mut spec = TraceCellSpec::default();
        if let Some(workload) = args.trace_workload {
            spec.workload = workload;
        }
        if let Some(seed) = args.trace_seed {
            spec.seed = seed;
        }
        let code = match tracecell::record(&spec, path) {
            Ok(summary) => {
                println!("{}", trace_summary_json("record", path, &summary));
                eprintln!(
                    "recorded {} steps ({} bytes) to {}",
                    summary.steps,
                    summary.trace_bytes,
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("trace recording failed: {err}");
                ExitCode::FAILURE
            }
        };
        emit_metrics(args.metrics);
        return code;
    }
    if let Some(path) = &args.replay {
        let code = match tracecell::replay(path) {
            Ok(summary) => {
                println!("{}", trace_summary_json("replay", path, &summary));
                eprintln!(
                    "replayed {} steps from {} without divergence",
                    summary.steps,
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("replay failed: {err}");
                ExitCode::FAILURE
            }
        };
        emit_metrics(args.metrics);
        return code;
    }
    let mut config = if args.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    if let Some(seed) = args.seed {
        config.base_seed = seed;
    }
    if let Some(threads) = args.threads {
        config.threads = threads;
    }
    let format = args.format.unwrap_or(Format::Table);
    if format == Format::Table {
        println!(
            "reproduction of: Devismes, Masuzawa, Tixeuil — Communication Efficiency in \
             Self-stabilizing Silent Protocols (ICDCS 2009)"
        );
        println!(
            "configuration: {} runs per point, {} max steps, base seed {:#x}, {} campaign \
             threads\n",
            config.runs, config.max_steps, config.base_seed, config.threads
        );
    }

    // lint: allow(determinism) — stderr timing line only; never enters the tables
    let started = Instant::now();
    let tables = experiments::run_selected(&config, args.only.as_deref());
    let elapsed = started.elapsed();

    let mut failures = 0;
    match format {
        Format::Table => {
            for table in &tables {
                println!("{}", table.to_text());
            }
        }
        Format::Json => println!("{}", render_json(&config, &tables)),
    }
    if let Some(dir) = &args.csv_dir {
        for table in &tables {
            if let Err(err) = fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {err}", dir.display());
                failures += 1;
                continue;
            }
            let path = dir.join(format!("{}.csv", table.id.replace('/', "_")));
            if let Err(err) = fs::write(&path, table.to_csv()) {
                eprintln!("cannot write {}: {err}", path.display());
                failures += 1;
            } else if format == Format::Table {
                println!("wrote {}", path.display());
            }
        }
    }
    // The timing line goes to stderr so it never disturbs the table/JSON
    // stream; CI reads it to confirm the multi-threaded speedup.
    eprintln!(
        "completed {} experiment table(s) in {:.2}s with {} thread(s)",
        tables.len(),
        elapsed.as_secs_f64(),
        config.threads
    );
    emit_metrics(args.metrics);
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
