//! The identified network model.
//!
//! The paper's base model is **anonymous**: processes distinguish neighbors
//! only through local port numbers. Self-stabilizing leader election needs
//! a slightly stronger model, expressed here on top of the anonymous
//! [`Graph`](crate::Graph): every process carries a unique constant
//! identifier ([`Identifiers`]).
//!
//! Identifiers are *per-process constants*, so protocols consume them the
//! same way the MIS/MATCHING protocols consume their local colors and the
//! BFS spanning tree its root: stored in the protocol value, indexed by
//! [`NodeId`]. [`Identifiers::min_id_node`] is the oracle leader the test
//! suites verify stabilized configurations against.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::GraphError;
use crate::node::NodeId;

/// Unique per-process identifiers: the *identified network* model.
///
/// Identifiers are arbitrary distinct `u64` values; protocols compare them
/// (typically electing the minimum) but must not exploit their numeric
/// structure. [`Identifiers::shuffled`] deliberately decorrelates identifier
/// order from process indices, which the test suites use to check that.
///
/// # Example
///
/// ```
/// use selfstab_graph::identifiers::Identifiers;
///
/// let ids = Identifiers::sequential(4);
/// assert_eq!(ids.id(selfstab_graph::NodeId::new(3)), 3);
/// assert_eq!(ids.min_id_node(), Some(selfstab_graph::NodeId::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identifiers {
    ids: Vec<u64>,
}

impl Identifiers {
    /// Identifier `p.index()` for every process — the simplest distinct
    /// assignment.
    pub fn sequential(n: usize) -> Self {
        Identifiers {
            ids: (0..n as u64).collect(),
        }
    }

    /// A uniformly random permutation of `0..n` as identifiers, so that the
    /// elected (minimum-id) process is unrelated to process indices.
    pub fn shuffled<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(rng);
        Identifiers { ids }
    }

    /// Explicit identifier assignment (`ids[p]` is the identifier of
    /// process `p`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] when two processes share an
    /// identifier.
    pub fn from_vec(ids: Vec<u64>) -> Result<Self, GraphError> {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(GraphError::InvalidParameters {
                reason: "identifiers must be pairwise distinct".into(),
            });
        }
        Ok(Identifiers { ids })
    }

    /// Number of processes covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the assignment covers no process.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The identifier of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn id(&self, p: NodeId) -> u64 {
        self.ids[p.index()]
    }

    /// The process holding the smallest identifier (the canonical leader),
    /// or `None` for an empty assignment.
    pub fn min_id_node(&self) -> Option<NodeId> {
        self.ids
            .iter()
            .enumerate()
            .min_by_key(|&(_, id)| id)
            .map(|(i, _)| NodeId::new(i))
    }

    /// The largest identifier in use, or `None` for an empty assignment.
    pub fn max_id(&self) -> Option<u64> {
        self.ids.iter().copied().max()
    }

    /// Number of bits needed to store any identifier of this assignment
    /// (at least 1).
    pub fn bits(&self) -> u64 {
        match self.max_id() {
            None | Some(0) => 1,
            Some(max) => 64 - max.leading_zeros() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_ids_are_process_indices() {
        let ids = Identifiers::sequential(5);
        assert_eq!(ids.len(), 5);
        assert!(!ids.is_empty());
        for i in 0..5 {
            assert_eq!(ids.id(NodeId::new(i)), i as u64);
        }
        assert_eq!(ids.min_id_node(), Some(NodeId::new(0)));
        assert_eq!(ids.max_id(), Some(4));
        assert_eq!(ids.bits(), 3);
    }

    #[test]
    fn shuffled_ids_are_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let ids = Identifiers::shuffled(20, &mut rng);
        let mut seen: Vec<u64> = (0..20).map(|i| ids.id(NodeId::new(i))).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20u64).collect::<Vec<_>>());
        // The min-id process is whichever process drew identifier 0.
        let min = ids.min_id_node().unwrap();
        assert_eq!(ids.id(min), 0);
    }

    #[test]
    fn from_vec_rejects_duplicates() {
        assert!(Identifiers::from_vec(vec![3, 1, 3]).is_err());
        let ids = Identifiers::from_vec(vec![30, 10, 20]).unwrap();
        assert_eq!(ids.min_id_node(), Some(NodeId::new(1)));
        assert_eq!(ids.max_id(), Some(30));
    }

    #[test]
    fn bits_cover_the_largest_identifier() {
        assert_eq!(Identifiers::from_vec(vec![0]).unwrap().bits(), 1);
        assert_eq!(Identifiers::from_vec(vec![0, 1]).unwrap().bits(), 1);
        assert_eq!(Identifiers::from_vec(vec![0, 255]).unwrap().bits(), 8);
        assert_eq!(Identifiers::from_vec(vec![0, 256]).unwrap().bits(), 9);
        assert_eq!(Identifiers::sequential(0).bits(), 1);
    }
}
