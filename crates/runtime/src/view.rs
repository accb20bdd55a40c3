//! Read-tracked views of a process's neighborhood.

use std::cell::RefCell;

use selfstab_graph::{Graph, NodeId, Port};

/// The window through which a process observes its neighbors' communication
/// states during one activation.
///
/// Every call to [`NeighborView::read`] (or [`NeighborView::try_read`]) is
/// recorded; the executor collects the recorded port set after the
/// activation, which is how the paper's communication measures
/// (k-efficiency, Definition 4; ♦-(x,k)-stability, Definition 9) are
/// evaluated on actual executions.
///
/// A view can optionally *restrict* the readable ports. Restrictions are used
/// by the impossibility experiments (Theorems 1 and 2) to model protocols
/// that have committed to never read some neighbor again: a restricted port
/// behaves as if the neighbor did not exist ([`NeighborView::try_read`]
/// returns `None`).
///
/// Views are built on the executor's hot path — once per guard evaluation
/// and once per activation — so constructing one performs **no allocation**
/// in the common (unrestricted) case: the view borrows the graph's CSR
/// neighbor slice and the communication snapshot instead of copying
/// per-neighbor references, and the executor threads one persistent read-log
/// buffer through every tracked view ([`NeighborView::with_log_buffer`] /
/// [`NeighborView::into_log_buffer`]) so recording reads never grows a
/// fresh `Vec` in steady state.
#[derive(Debug)]
pub struct NeighborView<'a, C> {
    /// The observed process's neighbors, indexed by port (borrowed from the
    /// graph's flat CSR neighbor array).
    neighbors: &'a [NodeId],
    /// Communication snapshot of every process, indexed by [`NodeId`].
    comm_snapshot: &'a [C],
    /// `Some(allowed)` with `allowed[i] == false` marks a restricted port;
    /// `None` means every port is readable (no allocation).
    allowed: Option<Vec<bool>>,
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
            allowed: None,
            reads: RefCell::new(log_buffer),
            tracking,
        }
    }

    /// Consumes the view and returns the read-log buffer (with the reads of
    /// this activation still in it), so its allocation can be reused.
    pub fn into_log_buffer(self) -> Vec<Port> {
        self.reads.into_inner()
    }

    /// Restricts this view so that only the listed ports are readable.
    ///
    /// Ports not mentioned behave as if the corresponding neighbor did not
    /// exist: [`NeighborView::try_read`] returns `None`. This allocates the
    /// restriction mask; it is only used on the (cold) impossibility
    /// experiment paths, never by the default executor configuration.
    #[must_use]
    pub fn restricted_to(mut self, allowed_ports: &[Port]) -> Self {
        let mut allowed = vec![false; self.neighbors.len()];
        for port in allowed_ports {
            if port.index() < allowed.len() {
                allowed[port.index()] = true;
            }
        }
        self.allowed = Some(allowed);
        self
    }

    /// Degree of the observed process (number of ports).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns `true` when `port` may be read under the current restriction.
    pub fn is_readable(&self, port: Port) -> bool {
        port.index() < self.neighbors.len()
            && self
                .allowed
                .as_ref()
                .is_none_or(|allowed| allowed[port.index()])
    }

    /// Reads the communication state of the neighbor behind `port`,
    /// recording the read.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or restricted; protocols that may
    /// run under read restrictions must use [`NeighborView::try_read`].
    pub fn read(&self, port: Port) -> &C {
        self.try_read(port)
            .unwrap_or_else(|| panic!("read of restricted or out-of-range port {port}"))
    }

    /// Reads the communication state of the neighbor behind `port`, or
    /// returns `None` when the port is restricted or out of range. Successful
    /// reads are recorded.
    pub fn try_read(&self, port: Port) -> Option<&C> {
        if !self.is_readable(port) {
            return None;
        }
        let q = self.neighbors[port.index()];
        if self.tracking {
            self.reads.borrow_mut().push(port);
        }
        Some(&self.comm_snapshot[q.index()])
    }

    /// The distinct ports read so far during this activation, in first-read
    /// order (allocates; the executor uses
    /// [`NeighborView::collect_distinct_reads`] with a reused buffer
    /// instead).
    pub fn reads(&self) -> Vec<Port> {
        let mut distinct = Vec::new();
        self.collect_distinct_reads(&mut distinct);
        distinct
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

    /// Clears the recorded reads (used when a view is reused across the
    /// enabledness check and the activation).
    pub fn reset_reads(&self) {
        self.reads.borrow_mut().clear();
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
        assert_eq!(view.reads(), vec![Port::new(2), Port::new(0)]);
        assert_eq!(view.read_operations(), 3);
        view.reset_reads();
        assert!(view.reads().is_empty());
    }

    #[test]
    fn untracked_views_record_nothing() {
        let graph = generators::path(3);
        let comms: Vec<u32> = vec![0, 1, 2];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(1), &comms, false);
        let _ = view.read(Port::new(0));
        let _ = view.read(Port::new(1));
        assert!(view.reads().is_empty());
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
    fn restriction_hides_ports() {
        let graph = generators::star(5);
        let comms: Vec<u32> = vec![0, 1, 2, 3, 4];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(0), &comms, true)
            .restricted_to(&[Port::new(1), Port::new(3)]);
        assert!(view.is_readable(Port::new(1)));
        assert!(!view.is_readable(Port::new(0)));
        assert_eq!(view.try_read(Port::new(0)), None);
        assert_eq!(view.try_read(Port::new(1)), Some(&2));
        assert_eq!(view.reads(), vec![Port::new(1)]);
    }

    #[test]
    #[should_panic(expected = "restricted or out-of-range")]
    fn read_panics_on_restricted_port() {
        let graph = generators::path(2);
        let comms: Vec<u32> = vec![0, 1];
        let view =
            NeighborView::from_snapshot(&graph, NodeId::new(0), &comms, true).restricted_to(&[]);
        let _ = view.read(Port::new(0));
    }

    #[test]
    fn out_of_range_port_is_not_readable() {
        let graph = generators::path(2);
        let comms: Vec<u32> = vec![0, 1];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(0), &comms, true);
        assert!(!view.is_readable(Port::new(5)));
        assert_eq!(view.try_read(Port::new(5)), None);
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
