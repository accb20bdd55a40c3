//! The observable trace cell: record one COLORING fault-recovery run into
//! a binary trace file, and replay such a file with full verification.
//!
//! This is the experiment-side face of
//! [`selfstab_runtime::telemetry`]: a canonical cell (COLORING under the
//! distributed random daemon, hit by a fixed mid-run fault plan) whose
//! execution is recorded into the simulation's
//! [`Trace`](selfstab_runtime::Trace), written as a trace file, and can be
//! reproduced — on a later invocation, another machine, or in CI — by
//! [`replay`]. The trace header's metadata string carries everything
//! needed to rebuild the run
//! (`protocol=coloring;workload=ring(64);daemon=distributed-random(0.5);
//! seed=7;max_steps=20000;plan=v1`), and the footer's digests pin the
//! recorded [`RunStats`](selfstab_runtime::RunStats) and final
//! configuration; replay fails loudly on the first divergence.

use std::io;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::coloring::{Coloring, ColoringState};
use selfstab_runtime::executor::{SimOptions, Simulation};
use selfstab_runtime::faults::{
    run_fault_plan, BallCenter, FaultEvent, FaultInjector, FaultLoad, FaultModel, FaultPlan,
};
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::telemetry::{self, read_trace_file, Fnv64, TraceFooter, TraceHeader};

use crate::workloads::Workload;

/// Activation probability of the cell's distributed random daemon.
pub const DAEMON_PROBABILITY: f64 = 0.5;

/// Salt XOR-ed into the cell seed to derive the fault-injection RNG, so
/// the injection stream is independent of the daemon/activation streams.
const FAULT_RNG_SALT: u64 = 0xFA17;

/// Identity of one recordable trace cell. Everything the replayer needs
/// is derivable from this spec, and the spec itself round-trips through
/// the trace header's metadata string ([`TraceCellSpec::meta`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCellSpec {
    /// Topology of the run.
    pub workload: Workload,
    /// Construction seed of the simulation (also salts the fault RNG).
    pub seed: u64,
    /// Step budget of the fault-recovery scenario.
    pub max_steps: u64,
}

impl Default for TraceCellSpec {
    fn default() -> Self {
        TraceCellSpec {
            workload: Workload::Ring(64),
            seed: 0x1CDC5,
            max_steps: 20_000,
        }
    }
}

impl TraceCellSpec {
    /// The cell's fixed fault plan (version `v1` in the metadata): a
    /// uniform 30% corruption at scenario start, an adversarial stuck-at
    /// injection at step 40 while the first repair may still be in
    /// flight, and a radius-1 ball around the hub at step 90.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(vec![
            FaultEvent {
                at_step: 0,
                model: FaultModel::Uniform(FaultLoad::Fraction(0.3)),
            },
            FaultEvent {
                at_step: 40,
                model: FaultModel::StuckAt(FaultLoad::Fraction(0.1)),
            },
            FaultEvent {
                at_step: 90,
                model: FaultModel::Ball {
                    center: BallCenter::Hub,
                    radius: 1,
                },
            },
        ])
    }

    /// Renders the spec as the trace header's metadata string.
    pub fn meta(&self) -> String {
        format!(
            "protocol=coloring;workload={};daemon=distributed-random({DAEMON_PROBABILITY});\
             seed={};max_steps={};plan=v1",
            self.workload, self.seed, self.max_steps
        )
    }

    /// Parses a metadata string produced by [`TraceCellSpec::meta`],
    /// rejecting traces recorded by a different protocol, daemon, or
    /// fault-plan version (replaying those would silently diverge).
    fn from_meta(meta: &str) -> Result<TraceCellSpec, String> {
        let mut workload = None;
        let mut seed = None;
        let mut max_steps = None;
        for field in meta.split(';') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("trace metadata field {field:?} is not key=value"))?;
            match key {
                "protocol" => {
                    if value != "coloring" {
                        return Err(format!(
                            "trace was recorded by protocol {value:?}; this replayer only \
                             understands \"coloring\""
                        ));
                    }
                }
                "daemon" => {
                    let expected = format!("distributed-random({DAEMON_PROBABILITY})");
                    if value != expected {
                        return Err(format!(
                            "trace was recorded under daemon {value:?}; expected {expected:?}"
                        ));
                    }
                }
                "plan" => {
                    if value != "v1" {
                        return Err(format!("unknown fault-plan version {value:?}"));
                    }
                }
                "workload" => workload = Some(value.parse::<Workload>()?),
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|err| format!("trace metadata seed {value:?}: {err}"))?,
                    )
                }
                "max_steps" => {
                    max_steps = Some(
                        value
                            .parse::<u64>()
                            .map_err(|err| format!("trace metadata max_steps {value:?}: {err}"))?,
                    )
                }
                other => return Err(format!("unknown trace metadata key {other:?}")),
            }
        }
        Ok(TraceCellSpec {
            workload: workload.ok_or("trace metadata lacks a workload")?,
            seed: seed.ok_or("trace metadata lacks a seed")?,
            max_steps: max_steps.ok_or("trace metadata lacks max_steps")?,
        })
    }
}

/// Digest of a COLORING configuration: every process's color and probe
/// cursor, in process order. Stored in the trace footer and recomputed by
/// the replayer.
fn coloring_config_digest(config: &[ColoringState]) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write_usize(config.len());
    for state in config {
        hasher.write_usize(state.color);
        hasher.write_usize(state.cur.index());
    }
    hasher.finish()
}

/// What one recorded (or replayed) cell run looked like. The
/// `stats_digest`/`config_digest`/`steps`/`rounds` fields of a record and
/// its replay must be identical — that is the byte-identity check CI
/// performs on the JSON the `experiments` binary prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRunSummary {
    /// Steps the scenario executed.
    pub steps: u64,
    /// Rounds the scenario completed.
    pub rounds: u64,
    /// Whether the system re-stabilized within the budget (recording
    /// only; a replay reproduces whatever happened).
    pub recovered: bool,
    /// [`RunStats`](selfstab_runtime::RunStats) digest of the run.
    pub stats_digest: u64,
    /// Final-configuration digest of the run.
    pub config_digest: u64,
    /// Size of the binary trace container on disk.
    pub trace_bytes: u64,
}

/// Records the cell described by `spec` into the trace container at
/// `path`: runs the fault-recovery scenario while the simulation records
/// its trace, then writes the trace with the run's verification digests.
pub fn record(spec: &TraceCellSpec, path: &Path) -> io::Result<TraceRunSummary> {
    let graph = spec.workload.build(spec.seed);
    let mut sim = Simulation::new(
        &graph,
        Coloring::new(&graph),
        DistributedRandom::new(DAEMON_PROBABILITY),
        spec.seed,
        SimOptions::default(),
    );
    sim.record_trace();

    let mut injector = FaultInjector::new(&graph);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ FAULT_RNG_SALT);
    let telemetry = run_fault_plan(
        &mut sim,
        &spec.plan(),
        &mut injector,
        &mut rng,
        spec.max_steps,
    );

    let steps = sim.steps();
    let rounds = sim.stats().rounds;
    let stats_digest = sim.stats().digest(sim.graph());
    let config_digest = coloring_config_digest(sim.config());
    let trace = sim.take_trace().expect("recording since construction");
    trace.write_file(
        path,
        &TraceHeader {
            node_count: graph.node_count() as u64,
            seed: spec.seed,
            meta: spec.meta(),
        },
        &TraceFooter {
            steps,
            stats_digest,
            config_digest,
        },
    )?;
    Ok(TraceRunSummary {
        steps,
        rounds,
        recovered: telemetry.recovery_rounds.is_some(),
        stats_digest,
        config_digest,
        trace_bytes: std::fs::metadata(path)?.len(),
    })
}

/// Replays the trace container at `path` and verifies it end to end:
/// every activation's executed flag, comm flag and read ports against the
/// recording, with the cell's fault plan re-fired from the same salted
/// RNG (see [`telemetry::replay()`]), then the step count and both footer
/// digests.
/// Returns the replayed run's summary — identical to the recording's —
/// or a description of the first divergence.
pub fn replay(path: &Path) -> Result<TraceRunSummary, String> {
    let (header, trace, footer) = read_trace_file(path).map_err(|err| err.to_string())?;
    let spec = TraceCellSpec::from_meta(&header.meta)?;
    if header.seed != spec.seed {
        return Err(format!(
            "trace header seed {} contradicts its metadata seed {}",
            header.seed, spec.seed
        ));
    }
    let graph = spec.workload.build(spec.seed);
    if graph.node_count() as u64 != header.node_count {
        return Err(format!(
            "trace header says {} processes but workload {} builds {}",
            header.node_count,
            spec.workload,
            graph.node_count()
        ));
    }

    let outcome = telemetry::replay(
        &graph,
        Coloring::new(&graph),
        spec.seed,
        &trace,
        &spec.plan(),
        &mut StdRng::seed_from_u64(spec.seed ^ FAULT_RNG_SALT),
    )
    .map_err(|divergence| divergence.to_string())?;

    if outcome.steps != footer.steps {
        return Err(format!(
            "replay executed {} steps but the recording sealed {}",
            outcome.steps, footer.steps
        ));
    }
    let stats_digest = outcome.stats.digest(&graph);
    if stats_digest != footer.stats_digest {
        return Err(format!(
            "replayed RunStats digest {stats_digest:016x} does not match the recorded \
             {:016x}",
            footer.stats_digest
        ));
    }
    let config_digest = coloring_config_digest(&outcome.config);
    if config_digest != footer.config_digest {
        return Err(format!(
            "replayed final-configuration digest {config_digest:016x} does not match the \
             recorded {:016x}",
            footer.config_digest
        ));
    }
    Ok(TraceRunSummary {
        steps: outcome.steps,
        rounds: outcome.stats.rounds,
        recovered: true,
        stats_digest,
        config_digest,
        trace_bytes: std::fs::metadata(path)
            .map_err(|err| err.to_string())?
            .len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::{NodeId, Port};
    use selfstab_runtime::{StepRecord, Trace};

    fn temp_trace(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sstb_tracecell_{tag}_{}.trace", std::process::id()))
    }

    /// Reads the trace at `path`, applies `edit` to the first step record
    /// it accepts, and rewrites the file with the original header and
    /// footer. `edit` either leaves a record untouched and returns
    /// `None`, or edits it and returns the process whose activation it
    /// edited first.
    fn edit_first_record(
        path: &Path,
        edit: impl FnMut(&mut StepRecord) -> Option<NodeId>,
    ) -> NodeId {
        let (header, trace, footer) = read_trace_file(path).expect("reads");
        let mut records = trace.records();
        let process = records
            .iter_mut()
            .find_map(edit)
            .expect("some record admits the edit");
        let mut trace = Trace::new();
        for record in &records {
            trace.push(record);
        }
        trace.write_file(path, &header, &footer).expect("writes");
        process
    }

    #[test]
    fn meta_round_trips() {
        let spec = TraceCellSpec {
            workload: Workload::Grid(4, 5),
            seed: 99,
            max_steps: 1234,
        };
        assert_eq!(TraceCellSpec::from_meta(&spec.meta()), Ok(spec));
        assert_eq!(
            TraceCellSpec::from_meta(&TraceCellSpec::default().meta()),
            Ok(TraceCellSpec::default())
        );
    }

    #[test]
    fn foreign_metadata_is_rejected_with_context() {
        for (meta, needle) in [
            (
                "protocol=mis;workload=ring(8);seed=1;max_steps=10;plan=v1",
                "protocol",
            ),
            ("workload=ring(8);seed=1;max_steps=10;plan=v2", "fault-plan"),
            ("workload=ring(8);seed=1;plan=v1", "max_steps"),
            (
                "daemon=synchronous;workload=ring(8);seed=1;max_steps=10",
                "daemon",
            ),
            ("nonsense", "key=value"),
            ("color=blue;workload=ring(8);seed=1;max_steps=10", "unknown"),
        ] {
            let err = TraceCellSpec::from_meta(meta).unwrap_err();
            assert!(err.contains(needle), "{meta:?} -> {err}");
        }
    }

    #[test]
    fn record_then_replay_is_byte_identical() {
        let spec = TraceCellSpec {
            workload: Workload::Ring(24),
            seed: 7,
            max_steps: 5_000,
        };
        let path = temp_trace("roundtrip");
        let recorded = record(&spec, &path).expect("records");
        assert!(recorded.steps > 0);
        assert!(recorded.trace_bytes > 0);

        let replayed = replay(&path).expect("replays without divergence");
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(replayed.rounds, recorded.rounds);
        assert_eq!(replayed.stats_digest, recorded.stats_digest);
        assert_eq!(replayed.config_digest, recorded.config_digest);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_traces_fail_replay() {
        let spec = TraceCellSpec {
            workload: Workload::Ring(16),
            seed: 3,
            max_steps: 4_000,
        };
        let path = temp_trace("tamper");
        record(&spec, &path).expect("records");
        let recorded = std::fs::read(&path).expect("reads back");
        // Corrupt the footer's stats digest (last 16 bytes are the two
        // digests); the step stream still decodes, so the divergence must
        // come from the digest check.
        let mut bytes = recorded.clone();
        let len = bytes.len();
        bytes[len - 16] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("writes tampered file");
        let err = replay(&path).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        // Rename the workload to one its generator rejects: `ring(02)` has
        // the length of `ring(16)`, so the header still decodes, but no
        // ring has two processes — an error, not a generator panic.
        let mut bytes = recorded.clone();
        let at = bytes
            .windows(8)
            .position(|w| w == b"ring(16)")
            .expect("the metadata names the workload");
        bytes[at + 5..at + 7].copy_from_slice(b"02");
        std::fs::write(&path, &bytes).expect("writes tampered file");
        let err = replay(&path).unwrap_err();
        assert!(
            err.contains("ring(02)") && err.contains("at least three processes"),
            "{err}"
        );

        // Edits that keep every step's executed set and comm flag, and
        // every digest, intact: only the per-activation comparison sees
        // them.
        let expect_divergence = |field: &str, edit: fn(&mut StepRecord) -> Option<NodeId>| {
            std::fs::write(&path, &recorded).expect("restores the recording");
            let process = edit_first_record(&path, edit);
            let err = replay(&path).unwrap_err();
            assert!(
                err.contains(&format!("({field}): process {process}:")),
                "{field}: {err}"
            );
        };
        // A changed read port: ring ports are 0 and 1, so flipping the
        // low bit names the other neighbour.
        expect_divergence("reads", |record| {
            let activation = record
                .activations
                .iter_mut()
                .find(|a| !a.reads.is_empty())?;
            activation.reads[0] = Port::new(activation.reads[0].index() ^ 1);
            Some(activation.process)
        });
        // A dropped read.
        expect_divergence("reads", |record| {
            let activation = record
                .activations
                .iter_mut()
                .find(|a| !a.reads.is_empty())?;
            activation.reads.pop();
            Some(activation.process)
        });
        // A comm flag moved to another process of the same step.
        expect_divergence("comm_changed", |record| {
            let from = record.activations.iter().position(|a| a.comm_changed)?;
            let to = record.activations.iter().position(|a| !a.comm_changed)?;
            record.activations[from].comm_changed = false;
            record.activations[to].comm_changed = true;
            Some(record.activations[from.min(to)].process)
        });
        std::fs::remove_file(&path).ok();
    }
}
