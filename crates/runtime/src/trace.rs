//! Per-step execution records.
//!
//! A [`StepRecord`] says, for one step, which processes the scheduler
//! selected, which of them executed an action, which neighbors each of
//! them read, and whose communication state changed. It is the decoded
//! form of one step of a [`Trace`], built from the fields the wire
//! format's one parser reports. Nothing on the recording or the replay
//! path builds one: the executor encodes each step straight into the
//! trace it records, [`read_trace_file`](crate::telemetry::read_trace_file)
//! keeps the checked bytes, and [`replay`](crate::telemetry::replay())
//! compares records by their bytes. [`Trace::records`] decodes a whole
//! trace for tests, and a diverging replay decodes the one step it
//! describes. The paper's measures do not need records: the executor
//! always maintains them in the aggregated
//! [`RunStats`](crate::stats::RunStats).

use selfstab_graph::{NodeId, Port};

use crate::telemetry::wire::StepVisitor;
use crate::telemetry::Trace;

/// What one process did during one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationRecord {
    /// The selected process.
    pub process: NodeId,
    /// Whether one of its actions was enabled (and therefore executed).
    pub executed: bool,
    /// Distinct ports read during the activation, in first-read order.
    pub reads: Vec<Port>,
    /// Whether the activation changed the process's communication state.
    pub comm_changed: bool,
}

/// One step of an execution: the scheduler's selection and the resulting
/// activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// 0-based step index.
    pub step: u64,
    /// Activations of the selected processes.
    pub activations: Vec<ActivationRecord>,
}

impl StepRecord {
    /// Decodes the record at `*pos` of `trace`, which follows a record of
    /// step `prev_step` (`None` for the first), advancing the cursor past
    /// it.
    pub(crate) fn parse(trace: &Trace, pos: &mut usize, prev_step: Option<u64>) -> StepRecord {
        let mut record = StepRecord {
            step: 0,
            activations: Vec::new(),
        };
        record.step = trace.parse_record(pos, prev_step, &mut record);
        record
    }
}

impl StepVisitor for StepRecord {
    fn process(&mut self, process: NodeId) {
        self.activations.push(ActivationRecord {
            process,
            executed: false,
            reads: Vec::new(),
            comm_changed: false,
        });
    }

    fn flags(&mut self, activation: usize, executed: bool, comm_changed: bool) {
        let activation = &mut self.activations[activation];
        activation.executed = executed;
        activation.comm_changed = comm_changed;
    }

    fn read(&mut self, activation: usize, port: Port) {
        self.activations[activation].reads.push(port);
    }
}

impl Trace {
    /// Decodes every recorded step.
    pub fn records(&self) -> Vec<StepRecord> {
        let mut records: Vec<StepRecord> = Vec::new();
        let mut pos = 0;
        while pos < self.bytes().len() {
            let prev_step = records.last().map(|record| record.step);
            records.push(StepRecord::parse(self, &mut pos, prev_step));
        }
        records
    }
}
