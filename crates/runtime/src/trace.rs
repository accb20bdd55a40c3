//! Full execution traces.
//!
//! A [`Trace`] records, step by step, which processes the scheduler
//! selected, which of them executed an action, which neighbors each of them
//! read, and whose communication state changed. Traces make the paper's
//! per-step definitions (k-efficiency must hold in *every* step) directly
//! checkable in tests and experiments; for long runs prefer the aggregated
//! [`RunStats`](crate::stats::RunStats), which the executor always
//! maintains.

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

    /// Returns `true` when some communication variable changed in this step.
    pub fn any_comm_changed(&self) -> bool {
        self.activations.iter().any(|a| a.comm_changed)
    }

    /// Largest number of distinct neighbors read by a single process in this
    /// step.
    pub fn max_reads(&self) -> usize {
        self.activations
            .iter()
            .map(|a| a.reads.len())
            .max()
            .unwrap_or(0)
    }
}

/// A recorded execution prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    steps: Vec<StepRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { steps: Vec::new() }
    }

    /// Appends a step record.
    pub fn push(&mut self, record: StepRecord) {
        self.steps.push(record);
    }

    /// The recorded steps, oldest first.
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The smallest `k` such that every process read at most `k` distinct
    /// neighbors in every recorded step — Definition 4 evaluated over the
    /// trace.
    pub fn measured_efficiency(&self) -> usize {
        self.steps
            .iter()
            .map(StepRecord::max_reads)
            .max()
            .unwrap_or(0)
    }

    /// `R_p` over the trace suffix starting at `from_step`: the set of
    /// distinct ports process `p` read from that step on, in
    /// **first-read order** (the order the process first touched each
    /// port — the order the paper's suffix arguments walk them in).
    ///
    /// Deduplication is sort-based, `O(R log R)` in the number of reads:
    /// every read is collected with its sequence number, a sort groups
    /// duplicates so each port keeps only its earliest occurrence, and a
    /// final sort by sequence number restores chronological order. (The
    /// historical implementation probed a growing `Vec` with `contains`
    /// per read — quadratic in the distinct-port count, which hurt on
    /// wide-degree workloads like stars and complete graphs.)
    pub fn suffix_read_set(&self, p: NodeId, from_step: u64) -> Vec<Port> {
        let mut reads: Vec<(Port, usize)> = Vec::new();
        for record in self.steps.iter().filter(|s| s.step >= from_step) {
            for activation in &record.activations {
                if activation.process == p {
                    for &port in &activation.reads {
                        reads.push((port, reads.len()));
                    }
                }
            }
        }
        reads.sort_unstable();
        reads.dedup_by_key(|&mut (port, _)| port);
        reads.sort_unstable_by_key(|&(_, seq)| seq);
        reads.into_iter().map(|(port, _)| port).collect()
    }

    /// The last step in which any communication variable changed, if any.
    pub fn last_comm_change_step(&self) -> Option<u64> {
        self.steps
            .iter()
            .filter(|s| s.any_comm_changed())
            .map(|s| s.step)
            .max()
    }

    /// Number of processes whose suffix read set (from `from_step`) has at
    /// most `k` elements — the `x` of ♦-(x, k)-stability over the trace,
    /// given the total process count `n`.
    ///
    /// Single pass over the trace suffix, accumulating each process's
    /// distinct-port set as it goes — `O(total reads · k)` instead of the
    /// historical per-process re-scan (`O(n · steps)` even for processes
    /// that never appear). Each accumulated set is capped at `k + 1`
    /// entries: once a process has read more than `k` distinct ports it
    /// can never count as stable, so its exact set no longer matters and
    /// membership probes stay `O(k)` even on wide-degree workloads.
    /// Activations of processes with index `>= n` are ignored, matching
    /// the old behavior of only probing identifiers `0..n`. A process that
    /// never reads has an empty suffix read set, so with an empty trace
    /// all `n` processes count.
    pub fn stable_process_count(&self, n: usize, k: usize, from_step: u64) -> usize {
        let mut seen: Vec<Vec<Port>> = vec![Vec::new(); n];
        for record in self.steps.iter().filter(|s| s.step >= from_step) {
            for activation in &record.activations {
                let idx = activation.process.index();
                if idx >= n {
                    continue;
                }
                let ports = &mut seen[idx];
                if ports.len() > k {
                    continue;
                }
                for &port in &activation.reads {
                    if !ports.contains(&port) {
                        ports.push(port);
                        if ports.len() > k {
                            break;
                        }
                    }
                }
            }
        }
        seen.iter().filter(|ports| ports.len() <= k).count()
    }

    /// Serializes the trace as JSON (hand-rolled: the workspace has no
    /// serialization dependency). Used to
    /// compare on-disk footprints against the compact binary wire format of
    /// [`telemetry::wire`](crate::telemetry::wire); not intended as an
    /// interchange format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"steps\":[");
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"step\":{},\"activations\":[", step.step));
            for (j, a) in step.activations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"process\":{},\"executed\":{},\"reads\":[",
                    a.process.index(),
                    a.executed
                ));
                for (r, port) in a.reads.iter().enumerate() {
                    if r > 0 {
                        out.push(',');
                    }
                    out.push_str(&port.index().to_string());
                }
                out.push_str(&format!("],\"comm_changed\":{}}}", a.comm_changed));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(step: u64, entries: &[(usize, &[usize], bool)]) -> StepRecord {
        StepRecord {
            step,
            activations: entries
                .iter()
                .map(|&(p, reads, comm_changed)| ActivationRecord {
                    process: NodeId::new(p),
                    executed: true,
                    reads: reads.iter().map(|&r| Port::new(r)).collect(),
                    comm_changed,
                })
                .collect(),
        }
    }

    #[test]
    fn step_record_helpers() {
        let r = record(3, &[(0, &[0, 1], true), (2, &[1], false)]);
        assert_eq!(r.selected(), vec![NodeId::new(0), NodeId::new(2)]);
        assert!(r.any_comm_changed());
        assert_eq!(r.max_reads(), 2);
    }

    #[test]
    fn trace_efficiency_and_suffix_sets() {
        let mut trace = Trace::new();
        trace.push(record(0, &[(0, &[0, 1, 2], true)]));
        trace.push(record(1, &[(0, &[1], false), (1, &[0], true)]));
        trace.push(record(2, &[(0, &[2], false)]));

        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.measured_efficiency(), 3);
        assert_eq!(trace.last_comm_change_step(), Some(1));
        assert_eq!(
            trace.suffix_read_set(NodeId::new(0), 1),
            vec![Port::new(1), Port::new(2)]
        );
        assert_eq!(trace.suffix_read_set(NodeId::new(0), 0).len(), 3);
        assert_eq!(trace.suffix_read_set(NodeId::new(1), 2), vec![]);
        // From step 1 on, process 0 reads 2 distinct ports, process 1 reads
        // 1, process 2 reads none.
        assert_eq!(trace.stable_process_count(3, 1, 1), 2);
        assert_eq!(trace.stable_process_count(3, 2, 1), 3);
    }

    /// Wide-degree regression: a hub process re-reads many distinct ports
    /// over many steps (star-like workload). The sort-based dedup must
    /// return every port exactly once, in first-read order, and the
    /// single-pass stable count must agree with per-process probing.
    #[test]
    fn wide_degree_suffix_read_set() {
        let degree = 512;
        let mut trace = Trace::new();
        // First-read order is descending, then repeats ascending: the
        // result must preserve the descending first-touch order.
        let descending: Vec<usize> = (0..degree).rev().collect();
        trace.push(record(0, &[(0, &descending, true)]));
        let ascending: Vec<usize> = (0..degree).collect();
        for step in 1..8 {
            trace.push(record(step, &[(0, &ascending, false), (1, &[0], false)]));
        }

        let set = trace.suffix_read_set(NodeId::new(0), 0);
        assert_eq!(set.len(), degree);
        assert_eq!(
            set,
            (0..degree).rev().map(Port::new).collect::<Vec<_>>(),
            "first-read order must survive the sort-based dedup"
        );
        // Suffix excluding step 0 sees only the ascending repeats.
        assert_eq!(
            trace.suffix_read_set(NodeId::new(0), 1),
            (0..degree).map(Port::new).collect::<Vec<_>>()
        );

        // Single-pass stable count agrees with the per-process definition.
        for k in [0, 1, degree - 1, degree, degree + 3] {
            let expected = (0..3)
                .filter(|&i| trace.suffix_read_set(NodeId::new(i), 0).len() <= k)
                .count();
            assert_eq!(trace.stable_process_count(3, k, 0), expected, "k={k}");
        }
    }

    #[test]
    fn trace_to_json_shape() {
        let mut trace = Trace::new();
        trace.push(record(0, &[(2, &[0, 3], true)]));
        trace.push(record(1, &[]));
        assert_eq!(
            trace.to_json(),
            "{\"steps\":[{\"step\":0,\"activations\":[{\"process\":2,\"executed\":true,\
             \"reads\":[0,3],\"comm_changed\":true}]},{\"step\":1,\"activations\":[]}]}"
        );
    }

    #[test]
    fn empty_trace_defaults() {
        let trace = Trace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.measured_efficiency(), 0);
        assert_eq!(trace.last_comm_change_step(), None);
        assert_eq!(trace.stable_process_count(4, 0, 0), 4);
    }
}
