//! Per-step execution records.
//!
//! A [`StepRecord`] says, for one step, which processes the scheduler
//! selected, which of them executed an action, which neighbors each of
//! them read, and whose communication state changed. It is the decoded
//! form of one step of a [`Trace`](crate::telemetry::Trace): the executor
//! never builds one, but encodes each step straight into the trace it
//! records, and [`Trace::records`](crate::telemetry::Trace::records) and
//! [`read_trace_file`](crate::telemetry::read_trace_file) decode them;
//! replay compares every replayed record with the recorded one. The
//! paper's measures do not need records: the executor always maintains
//! them in the aggregated [`RunStats`](crate::stats::RunStats).

use selfstab_graph::{NodeId, Port};

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
    /// Identifiers of the processes selected at this step.
    pub fn selected(&self) -> Vec<NodeId> {
        self.activations.iter().map(|a| a.process).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_record_helpers() {
        let activation = |p: usize, reads: &[usize], comm_changed| ActivationRecord {
            process: NodeId::new(p),
            executed: true,
            reads: reads.iter().map(|&r| Port::new(r)).collect(),
            comm_changed,
        };
        let r = StepRecord {
            step: 3,
            activations: vec![activation(0, &[0, 1], true), activation(2, &[1], false)],
        };
        assert_eq!(r.selected(), vec![NodeId::new(0), NodeId::new(2)]);
    }
}
