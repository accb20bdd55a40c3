//! Identifier newtypes for processes and local ports.

use std::fmt;

/// Index of a process (vertex) in a [`Graph`](crate::Graph).
///
/// Process indices are dense: a graph with `n` processes uses the identifiers
/// `0..n`. They are **simulation handles only** — the protocols of the paper
/// never read them (anonymous model), except through the explicitly provided
/// local-coloring constants.
///
/// Identifiers are stored as `u32` so that per-node index arrays stay
/// compact on million-node graphs (half the footprint of `usize` on 64-bit
/// hosts); the public API keeps speaking `usize`. Graphs are therefore
/// capped at [`NodeId::MAX_INDEX`] processes — construction beyond that is
/// a typed [`GraphError`](crate::GraphError), never a silent wrap.
///
/// # Example
///
/// ```
/// use selfstab_graph::NodeId;
/// let p = NodeId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Largest representable process index (`u32::MAX`); a graph holds at
    /// most `MAX_INDEX + 1` processes.
    pub const MAX_INDEX: usize = u32::MAX as usize;

    /// Creates a process identifier from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`NodeId::MAX_INDEX`]. Fallible
    /// construction paths ([`GraphBuilder::build`](crate::GraphBuilder))
    /// check node counts first and report the typed
    /// [`GraphError`](crate::GraphError) instead.
    #[inline]
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= NodeId::MAX_INDEX,
            "node index exceeds the u32 identifier range"
        );
        NodeId(index as u32)
    }

    /// Returns the dense index of this process.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

/// A local port (channel) number of a process.
///
/// In the paper every process `p` numbers its `δ.p` incident edges with local
/// indices `1..δ.p`; this crate uses the equivalent 0-based range
/// `0..δ.p`. Two neighboring processes may (and usually do) refer to their
/// shared edge through different port numbers.
///
/// Like [`NodeId`], a port is stored as a `u32`, so protocol rows that
/// hold port pointers (`cur`, `PR`) stay compact: an `Option<Port>` takes
/// 8 bytes. Degrees never exceed that range (the graph's CSR offsets are
/// `u32` too); the public API keeps speaking `usize`, capped at
/// [`Port::MAX_INDEX`].
///
/// # Example
///
/// ```
/// use selfstab_graph::Port;
/// let port = Port::new(0);
/// assert_eq!(port.index(), 0);
/// assert_eq!(port.next_round_robin(3).index(), 1);
/// assert_eq!(Port::new(2).next_round_robin(3).index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(u32);

impl Port {
    /// Largest representable port index (`u32::MAX`).
    pub const MAX_INDEX: usize = u32::MAX as usize;

    /// Creates a port from its 0-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Port::MAX_INDEX`]. Decoders of
    /// untrusted input (the trace wire format) check the range first and
    /// report a typed error instead.
    #[inline]
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= Port::MAX_INDEX,
            "port index exceeds the u32 port range"
        );
        Port(index as u32)
    }

    /// Returns the 0-based index of this port.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the next port in round-robin order among `degree` ports.
    ///
    /// This is the paper's `cur.p ← (cur.p mod δ.p) + 1` statement translated
    /// to 0-based ports.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    #[inline]
    pub fn next_round_robin(self, degree: usize) -> Port {
        assert!(degree > 0, "a process with no neighbor has no port");
        // Protocols call this on every activation, and neither a port in
        // range nor the last one needs a division: only an out-of-range
        // port, which a fault left behind, takes the `%`.
        let next = self.index() + 1;
        if next < degree {
            Port(next as u32)
        } else if next == degree {
            Port(0)
        } else {
            Port::new(next % degree)
        }
    }

    /// Clamps this port into the valid range `0..degree`.
    ///
    /// Useful when a transient fault leaves an internal pointer out of range:
    /// the runtime re-interprets it as a valid port, which matches the
    /// "arbitrary initial value over the variable domain" assumption.
    #[inline]
    pub fn clamp_to_degree(self, degree: usize) -> Port {
        if self.index() < degree {
            // The common case, on every guard evaluation: already in range.
            self
        } else if degree == 0 {
            Port(0)
        } else {
            Port::new(self.index() % degree)
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<usize> for Port {
    fn from(index: usize) -> Self {
        Port::new(index)
    }
}

impl From<Port> for usize {
    fn from(port: Port) -> Self {
        port.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(42usize), id);
        assert_eq!(id.to_string(), "p42");
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(7), NodeId::new(7));
    }

    #[test]
    fn node_id_accepts_the_largest_u32_index() {
        let id = NodeId::new(NodeId::MAX_INDEX);
        assert_eq!(id.index(), u32::MAX as usize);
        assert_eq!(id.to_string(), format!("p{}", u32::MAX));
    }

    #[test]
    #[should_panic(expected = "u32 identifier range")]
    fn node_id_rejects_indices_beyond_u32() {
        let _ = NodeId::new(NodeId::MAX_INDEX + 1);
    }

    #[test]
    fn node_id_is_four_bytes() {
        // The compaction that makes 10^6–10^7-node index arrays affordable.
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
    }

    #[test]
    fn port_is_four_bytes() {
        // Protocol rows hold ports; a wider port pads every state row.
        assert_eq!(std::mem::size_of::<Port>(), 4);
        assert_eq!(std::mem::size_of::<Option<Port>>(), 8);
    }

    #[test]
    fn port_accepts_the_largest_u32_index() {
        assert_eq!(Port::new(Port::MAX_INDEX).index(), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "u32 port range")]
    fn port_rejects_indices_beyond_u32() {
        let _ = Port::new(Port::MAX_INDEX + 1);
    }

    #[test]
    fn port_round_robin_cycles() {
        let degree = 4;
        let mut port = Port::new(0);
        let mut seen = Vec::new();
        for _ in 0..degree * 2 {
            seen.push(port.index());
            port = port.next_round_robin(degree);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "no port")]
    fn port_round_robin_rejects_zero_degree() {
        Port::new(0).next_round_robin(0);
    }

    #[test]
    fn port_clamp_wraps_out_of_range_values() {
        assert_eq!(Port::new(7).clamp_to_degree(3), Port::new(1));
        assert_eq!(Port::new(2).clamp_to_degree(3), Port::new(2));
        assert_eq!(Port::new(5).clamp_to_degree(0), Port::new(0));
    }

    #[test]
    fn port_fast_paths_agree_with_the_modulo_formula() {
        // In range (the last port included), out of range as a fault may
        // leave a port, and the largest representable index.
        for degree in 1..=64usize {
            for index in (0..2 * degree).chain([Port::MAX_INDEX]) {
                let port = Port::new(index);
                assert_eq!(
                    port.clamp_to_degree(degree).index(),
                    index % degree,
                    "clamp_to_degree({index}, {degree})"
                );
                assert_eq!(
                    port.next_round_robin(degree).index(),
                    (index + 1) % degree,
                    "next_round_robin({index}, {degree})"
                );
            }
        }
    }

    #[test]
    fn port_display() {
        assert_eq!(Port::new(2).to_string(), "#2");
    }
}
