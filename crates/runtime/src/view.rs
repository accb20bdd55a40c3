//! Read-tracked views of a process's neighborhood.
//!
//! The executor builds a view on its hot path once per guard evaluation
//! (untracked) and once per activation (tracked). Construction borrows
//! everything it needs and allocates nothing, and a tracked view records
//! its reads in one pass: [`NeighborView::read`] writes each newly read
//! port into a slot of the caller's port buffer and counts every read
//! operation, so the executor gets the distinct read set and the operation
//! count straight from [`NeighborView::finish`], with no log to
//! de-duplicate afterwards.
//!
//! The public constructor, [`NeighborView::from_snapshot`], checks that
//! the snapshot covers the graph. The executor's views are built from
//! what the step already holds: the process's CSR row, the communication
//! cache and, for an activation, the port slots cut to the row's length.
//! The simulation's construction established the rest (a cache entry per
//! process, a slot per port of the largest degree), so they check nothing
//! more per call.
//!
//! A tracked `read` de-duplicates by scanning the ports already read, so
//! it costs O(d) after d distinct reads, and Δ reads in port order cost
//! Δ(Δ−1)/2 comparisons; once every port is recorded, a `read` skips the
//! scan. An untracked `read` is one index into the snapshot. A protocol
//! that reads every port therefore takes them all at once through
//! [`NeighborView::read_all`], which records the same reads in O(Δ)
//! (after a constant number of earlier reads, and in O(1) once every port
//! is recorded) and lends out the whole neighbourhood without copying it.

use std::cell::Cell;
use std::ops::Index;

use selfstab_graph::{Graph, NodeId, Port};

/// The window through which a process observes its neighbors' communication
/// states during one activation.
///
/// Every call to [`NeighborView::read`] in a tracked view is recorded; the
/// executor collects the distinct ports after the activation, which is how
/// the paper's communication measures (k-efficiency, Definition 4;
/// ♦-(x,k)-stability, Definition 9) are evaluated on actual executions.
/// Protocols that stop reading some neighbors (the frozen-read protocols of
/// the Theorem 1 and 2 impossibility experiments) simply never call `read`
/// on those ports.
///
/// Constructing a view performs **no allocation**: it borrows the graph's
/// CSR neighbor slice, the communication snapshot and, when tracking, the
/// executor's port buffer. Only the executor builds tracked views, one per
/// activation; [`NeighborView::from_snapshot`] builds untracked ones.
#[derive(Debug)]
pub struct NeighborView<'a, C> {
    /// The observed process's neighbors, indexed by port (borrowed from the
    /// graph's flat CSR neighbor array).
    neighbors: &'a [NodeId],
    /// Communication snapshot of every process, indexed by [`NodeId`].
    comm_snapshot: &'a [C],
    /// The caller's port buffer when reads are tracked (enabledness checks
    /// are not charged): its first `distinct` slots hold the distinct ports
    /// read so far, in first-read order.
    slots: Option<&'a [Cell<Port>]>,
    /// Number of distinct ports read so far.
    distinct: Cell<usize>,
    /// Number of read operations performed so far, repeats included.
    operations: Cell<usize>,
}

impl<'a, C> NeighborView<'a, C> {
    /// Builds an untracked view of process `p` from a snapshot of every
    /// process's communication state (indexed by [`NodeId`]): its reads are
    /// not recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or `comm_snapshot` does not cover the
    /// graph.
    #[inline]
    pub fn from_snapshot(graph: &'a Graph, p: NodeId, comm_snapshot: &'a [C]) -> Self {
        assert!(
            comm_snapshot.len() >= graph.node_count(),
            "communication snapshot must cover the graph"
        );
        Self::untracked_row(graph.neighbor_slice(p), comm_snapshot)
    }

    /// The executor's untracked view (a guard refresh) of the process whose
    /// CSR row is `neighbors`. `comm_snapshot` is the communication cache,
    /// which covers the graph by construction, so nothing is checked here.
    #[inline]
    pub(crate) fn untracked_row(neighbors: &'a [NodeId], comm_snapshot: &'a [C]) -> Self {
        NeighborView {
            neighbors,
            comm_snapshot,
            slots: None,
            distinct: Cell::new(0),
            operations: Cell::new(0),
        }
    }

    /// The executor's tracked view (an activation) of the process whose
    /// CSR row is `neighbors`: every read is recorded, the distinct ports
    /// go into the first `neighbors.len()` slots of `ports` in first-read
    /// order, and [`NeighborView::finish`] reports how many there are and
    /// how many read operations the activation performed. The executor
    /// holds one slot per port of the largest degree.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is shorter than the row.
    #[inline]
    pub(crate) fn tracked_row(
        neighbors: &'a [NodeId],
        comm_snapshot: &'a [C],
        ports: &'a mut [Port],
    ) -> Self {
        // Cut to one slot per port, so `read` finds the next free slot
        // with one length check, and finds none once every port is
        // recorded.
        let slots = Cell::from_mut(&mut ports[..neighbors.len()]).as_slice_of_cells();
        NeighborView {
            slots: Some(slots),
            ..Self::untracked_row(neighbors, comm_snapshot)
        }
    }

    /// Degree of the observed process (number of ports).
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Reads the communication state of the neighbor behind `port`,
    /// recording the read in a tracked view.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range (not below
    /// [`NeighborView::degree`]).
    #[inline]
    pub fn read(&self, port: Port) -> &C {
        let q = self.neighbors[port.index()];
        if let Some(slots) = self.slots {
            let distinct = self.distinct.get();
            // Once every port is recorded (`distinct` is the degree),
            // nothing is new and the scan is skipped; below that, a new
            // port takes the next free slot.
            if let Some(free) = slots.get(distinct) {
                if !slots[..distinct].iter().any(|slot| slot.get() == port) {
                    free.set(port);
                    self.distinct.set(distinct + 1);
                }
            }
            self.operations.set(self.operations.get() + 1);
        }
        &self.comm_snapshot[q.index()]
    }

    /// Reads every port, in port order, and returns the whole
    /// neighbourhood, indexed by port.
    ///
    /// A tracked view records exactly what [`NeighborView::degree`] calls
    /// to [`NeighborView::read`], one per port in increasing order, would
    /// record. The returned [`Neighborhood`] borrows the snapshot, so
    /// reading it allocates nothing and records nothing more.
    #[inline]
    pub fn read_all(&self) -> Neighborhood<'a, C> {
        let degree = self.degree();
        if let Some(slots) = self.slots {
            // A port is new unless an earlier read recorded it: the ports
            // this loop records are distinct from each other. Once every
            // port is recorded, there is nothing to add.
            let earlier = self.distinct.get();
            if earlier < degree {
                let mut distinct = earlier;
                for i in 0..degree {
                    let port = Port::new(i);
                    if !slots[..earlier].iter().any(|slot| slot.get() == port) {
                        slots[distinct].set(port);
                        distinct += 1;
                    }
                }
                self.distinct.set(distinct);
            }
            self.operations.set(self.operations.get() + degree);
        }
        Neighborhood {
            neighbors: self.neighbors,
            comm_snapshot: self.comm_snapshot,
        }
    }

    /// Ends the view and returns `(distinct, operations)`: the number of
    /// distinct ports read, which sit in the first `distinct` slots of the
    /// port buffer in first-read order, and the number of read operations,
    /// repeats included. Both are 0 for an untracked view.
    #[inline]
    pub fn finish(self) -> (usize, usize) {
        (self.distinct.get(), self.operations.get())
    }
}

/// A process's whole neighbourhood, already read
/// ([`NeighborView::read_all`]): the neighbours' communication states,
/// indexed by port, borrowed from the snapshot.
#[derive(Debug)]
pub struct Neighborhood<'a, C> {
    neighbors: &'a [NodeId],
    comm_snapshot: &'a [C],
}

impl<'a, C> Neighborhood<'a, C> {
    /// The neighbours' communication states in port order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a C> + '_ {
        self.neighbors
            .iter()
            .map(|q| &self.comm_snapshot[q.index()])
    }
}

impl<C> Index<Port> for Neighborhood<'_, C> {
    type Output = C;

    /// The communication state of the neighbour behind `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[inline]
    fn index(&self, port: Port) -> &C {
        &self.comm_snapshot[self.neighbors[port.index()].index()]
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
        let mut ports = [Port::new(9); 3];
        let view =
            NeighborView::tracked_row(graph.neighbor_slice(NodeId::new(0)), &comms, &mut ports);
        assert_eq!(view.degree(), 3);
        assert_eq!(*view.read(Port::new(2)), 13);
        assert_eq!(*view.read(Port::new(0)), 11);
        assert_eq!(*view.read(Port::new(2)), 13);
        assert_eq!(*view.read(Port::new(0)), 11);
        assert_eq!(view.finish(), (2, 4), "repeats count as operations only");
        assert_eq!(ports[..2], [Port::new(2), Port::new(0)]);
    }

    #[test]
    fn read_all_records_what_reading_every_port_in_order_records() {
        let graph = generators::star(5);
        let comms: Vec<u32> = vec![10, 11, 12, 13, 14];
        let hub = NodeId::new(0);
        // Fresh, and after two earlier reads (one of them repeated).
        for earlier in [&[][..], &[Port::new(2), Port::new(2)][..]] {
            let (mut ours, mut theirs) = ([Port::new(9); 4], [Port::new(9); 4]);
            let view = NeighborView::tracked_row(graph.neighbor_slice(hub), &comms, &mut ours);
            let reference =
                NeighborView::tracked_row(graph.neighbor_slice(hub), &comms, &mut theirs);
            for &port in earlier {
                let _ = (view.read(port), reference.read(port));
            }
            let all = view.read_all();
            let by_port: Vec<u32> = (0..4).map(|i| *reference.read(Port::new(i))).collect();
            assert!(all.iter().copied().eq(by_port.iter().copied()));
            assert_eq!(all[Port::new(3)], 14);
            assert_eq!(view.finish(), reference.finish());
            assert_eq!(ours, theirs, "same ports in the same order");
        }
        let untracked = NeighborView::from_snapshot(&graph, hub, &comms);
        assert_eq!(untracked.read_all().iter().len(), 4);
        assert_eq!(untracked.finish(), (0, 0));
    }

    #[test]
    fn untracked_views_record_nothing() {
        let graph = generators::path(3);
        let comms: Vec<u32> = vec![0, 1, 2];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(1), &comms);
        assert_eq!(*view.read(Port::new(0)), 0);
        assert_eq!(*view.read(Port::new(1)), 2);
        assert_eq!(view.finish(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range for slice")]
    fn tracked_rejects_a_port_buffer_shorter_than_the_degree() {
        let graph = generators::star(4);
        let comms: Vec<u32> = vec![0; 4];
        let mut ports = [Port::new(0); 2];
        let _ = NeighborView::tracked_row(graph.neighbor_slice(NodeId::new(0)), &comms, &mut ports);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_panics_on_an_out_of_range_port() {
        let graph = generators::path(2);
        let comms: Vec<u32> = vec![0, 1];
        let mut ports = [Port::new(0); 1];
        let view =
            NeighborView::tracked_row(graph.neighbor_slice(NodeId::new(0)), &comms, &mut ports);
        let _ = view.read(Port::new(5));
    }

    #[test]
    fn view_maps_ports_to_the_right_neighbors() {
        let graph = generators::ring(4);
        let comms: Vec<u32> = vec![100, 101, 102, 103];
        let p = NodeId::new(2);
        let view = NeighborView::from_snapshot(&graph, p, &comms);
        for (port, q) in graph.ports(p) {
            assert_eq!(*view.read(port), comms[q.index()]);
        }
    }
}
