//! Read-tracked views of a process's neighborhood.

use std::cell::RefCell;

use selfstab_graph::{Graph, NodeId, Port};

/// The window through which a process observes its neighbors' communication
/// states during one activation.
///
/// Every call to [`NeighborView::read`] in a tracking view is recorded; the
/// executor collects the recorded port set after the activation, which is
/// how the paper's communication measures (k-efficiency, Definition 4;
/// ♦-(x,k)-stability, Definition 9) are evaluated on actual executions.
/// Protocols that stop reading some neighbors (the frozen-read protocols of
/// the Theorem 1 and 2 impossibility experiments) simply never call `read`
/// on those ports.
///
/// Views are built on the executor's hot path — once per guard evaluation
/// and once per activation — so constructing one performs **no
/// allocation**: the view borrows the graph's CSR neighbor slice and the
/// communication snapshot instead of copying per-neighbor references, and
/// the executor threads one persistent read-log buffer through every
/// tracked view ([`NeighborView::with_log_buffer`] /
/// [`NeighborView::into_log_buffer`]) so recording reads never grows a
/// fresh `Vec` in steady state.
#[derive(Debug)]
pub struct NeighborView<'a, C> {
    /// The observed process's neighbors, indexed by port (borrowed from the
    /// graph's flat CSR neighbor array).
    neighbors: &'a [NodeId],
    /// Communication snapshot of every process, indexed by [`NodeId`].
    comm_snapshot: &'a [C],
    /// Log of every read operation performed during the current activation,
    /// in order, repeats included.
    reads: RefCell<Vec<Port>>,
    /// Whether reads are recorded (enabledness checks are not charged).
    tracking: bool,
}

impl<'a, C> NeighborView<'a, C> {
    /// Builds the view of process `p` from a snapshot of every process's
    /// communication state (indexed by [`NodeId`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or `comm_snapshot` does not cover the
    /// graph.
    pub fn from_snapshot(
        graph: &'a Graph,
        p: NodeId,
        comm_snapshot: &'a [C],
        tracking: bool,
    ) -> Self {
        Self::with_log_buffer(graph, p, comm_snapshot, tracking, Vec::new())
    }

    /// Like [`NeighborView::from_snapshot`], but the read log reuses
    /// `log_buffer`'s allocation (the buffer is cleared first). The executor
    /// recovers the buffer with [`NeighborView::into_log_buffer`] after the
    /// activation, so its capacity survives across steps.
    pub fn with_log_buffer(
        graph: &'a Graph,
        p: NodeId,
        comm_snapshot: &'a [C],
        tracking: bool,
        mut log_buffer: Vec<Port>,
    ) -> Self {
        assert!(
            comm_snapshot.len() >= graph.node_count(),
            "communication snapshot must cover the graph"
        );
        log_buffer.clear();
        NeighborView {
            neighbors: graph.neighbor_slice(p),
            comm_snapshot,
            reads: RefCell::new(log_buffer),
            tracking,
        }
    }

    /// Consumes the view and returns the read-log buffer (with the reads of
    /// this activation still in it), so its allocation can be reused.
    pub fn into_log_buffer(self) -> Vec<Port> {
        self.reads.into_inner()
    }

    /// Degree of the observed process (number of ports).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Reads the communication state of the neighbor behind `port`,
    /// recording the read.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range (not below
    /// [`NeighborView::degree`]).
    pub fn read(&self, port: Port) -> &C {
        let q = self.neighbors[port.index()];
        if self.tracking {
            self.reads.borrow_mut().push(port);
        }
        &self.comm_snapshot[q.index()]
    }

    /// Writes the distinct ports read so far, in first-read order, into
    /// `out` (cleared first). Allocation-free once `out` has capacity Δ.
    pub fn collect_distinct_reads(&self, out: &mut Vec<Port>) {
        out.clear();
        for &port in self.reads.borrow().iter() {
            if !out.contains(&port) {
                out.push(port);
            }
        }
    }

    /// Total number of read operations performed (including repeated reads of
    /// the same port).
    pub fn read_operations(&self) -> usize {
        self.reads.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;

    #[test]
    fn reads_are_recorded_in_order_and_deduplicated() {
        let graph = generators::star(4);
        let comms: Vec<u32> = vec![10, 11, 12, 13];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(0), &comms, true);
        assert_eq!(view.degree(), 3);
        assert_eq!(*view.read(Port::new(2)), 13);
        assert_eq!(*view.read(Port::new(0)), 11);
        assert_eq!(*view.read(Port::new(2)), 13);
        let mut distinct = Vec::new();
        view.collect_distinct_reads(&mut distinct);
        assert_eq!(distinct, vec![Port::new(2), Port::new(0)]);
        assert_eq!(view.read_operations(), 3);
    }

    #[test]
    fn untracked_views_record_nothing() {
        let graph = generators::path(3);
        let comms: Vec<u32> = vec![0, 1, 2];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(1), &comms, false);
        let _ = view.read(Port::new(0));
        let _ = view.read(Port::new(1));
        let mut distinct = vec![Port::new(0)];
        view.collect_distinct_reads(&mut distinct);
        assert!(distinct.is_empty());
        assert_eq!(view.read_operations(), 0);
    }

    #[test]
    fn log_buffer_round_trips_and_keeps_capacity() {
        let graph = generators::path(3);
        let comms: Vec<u32> = vec![0, 1, 2];
        let mut buffer = Vec::with_capacity(8);
        let spare = buffer.spare_capacity_mut().len();
        let view = NeighborView::with_log_buffer(&graph, NodeId::new(1), &comms, true, buffer);
        let _ = view.read(Port::new(1));
        let _ = view.read(Port::new(1));
        let mut distinct = Vec::new();
        view.collect_distinct_reads(&mut distinct);
        assert_eq!(distinct, vec![Port::new(1)]);
        buffer = view.into_log_buffer();
        assert_eq!(buffer.len(), 2, "raw log keeps repeats");
        assert!(
            buffer.capacity() >= spare,
            "capacity survives the round trip"
        );
        // Reusing the buffer clears the previous activation's reads.
        let view = NeighborView::with_log_buffer(&graph, NodeId::new(0), &comms, true, buffer);
        assert_eq!(view.read_operations(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_panics_on_an_out_of_range_port() {
        let graph = generators::path(2);
        let comms: Vec<u32> = vec![0, 1];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(0), &comms, true);
        let _ = view.read(Port::new(5));
    }

    #[test]
    fn view_maps_ports_to_the_right_neighbors() {
        let graph = generators::ring(4);
        let comms: Vec<u32> = vec![100, 101, 102, 103];
        let p = NodeId::new(2);
        let view = NeighborView::from_snapshot(&graph, p, &comms, true);
        for (port, q) in graph.ports(p) {
            assert_eq!(*view.read(port), comms[q.index()]);
        }
    }
}
