//! CSR (compressed sparse row) construction.
//!
//! [`Graph`](crate::Graph) stores its undirected port-numbered adjacency as
//! one flat node array plus an `n + 1`-entry offset array, and
//! [`GraphBuilder`](crate::GraphBuilder) fills both here: count degrees
//! into the offsets, prefix-sum them, scatter the values, then shift the
//! offsets back. The build reads its `(row, value)` pairs from a
//! re-iterable iterator, so the builder never materialises a pair buffer,
//! and it allocates nothing but the two arrays it returns.

use crate::node::NodeId;

/// Builds a CSR pair from `(row, value)` pairs: the row of index `r` is
/// `flat[offsets[r] as usize .. offsets[r + 1] as usize]`, and each row
/// keeps the order in which its pairs appear in `pairs` (for [`Graph`]
/// this is what makes port numbering follow edge-insertion order).
///
/// `pairs` is iterated twice (once to count, once to scatter), so both
/// passes must yield the same sequence.
///
/// Offsets are `u32`: 2³¹ directed entries is far beyond simulated scale,
/// and the narrower offsets halve the index array on 64-bit targets.
///
/// [`Graph`]: crate::Graph
pub(crate) fn from_pairs<I>(n: usize, pairs: I) -> (Vec<NodeId>, Vec<u32>)
where
    I: Iterator<Item = (usize, NodeId)> + Clone,
{
    // Count the degree of row r into offsets[r + 1], then prefix-sum, so
    // offsets[r] is where row r starts.
    // lint: allow(hot-alloc) — construction-time CSR offsets
    let mut offsets = vec![0u32; n + 1];
    // lint: allow(hot-alloc) — clones an iterator adapter, which owns no heap data
    pairs.clone().for_each(|(row, _)| offsets[row + 1] += 1);
    for r in 1..=n {
        offsets[r] += offsets[r - 1];
    }
    // Scatter with offsets[r] as row r's cursor. Afterwards offsets[r] is
    // where row r ends, i.e. the old offsets[r + 1], so one shift restores
    // the row starts.
    let mut flat = vec![NodeId::new(0); offsets[n] as usize]; // lint: allow(hot-alloc) — construction-time CSR backbone
    pairs.for_each(|(row, value)| {
        flat[offsets[row] as usize] = value;
        offsets[row] += 1;
    });
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    (flat, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_pair_order_and_offsets_are_prefix_sums() {
        let pairs = [
            (1, NodeId::new(5)),
            (0, NodeId::new(2)),
            (1, NodeId::new(3)),
            (2, NodeId::new(0)),
            (1, NodeId::new(4)),
        ];
        let (flat, offsets) = from_pairs(3, pairs.into_iter());
        assert_eq!(offsets, vec![0, 1, 4, 5]);
        assert_eq!(&flat[0..1], &[NodeId::new(2)]);
        assert_eq!(
            &flat[1..4],
            &[NodeId::new(5), NodeId::new(3), NodeId::new(4)]
        );
        assert_eq!(&flat[4..5], &[NodeId::new(0)]);
    }

    #[test]
    fn empty_rows_and_empty_input() {
        let (flat, offsets) = from_pairs(4, std::iter::empty());
        assert!(flat.is_empty());
        assert_eq!(offsets, vec![0, 0, 0, 0, 0]);

        let (flat, offsets) = from_pairs(0, std::iter::empty());
        assert!(flat.is_empty());
        assert_eq!(offsets, vec![0]);
    }
}
