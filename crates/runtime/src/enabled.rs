//! The maintained enabled set of the incremental executor.
//!
//! The paper's daemons select among *enabled* processes, so the executor
//! must know `is_enabled(p)` for every process at every step. Recomputing
//! that from scratch costs `O(n·Δ)` guard evaluations per step; the
//! executor instead maintains an [`EnabledSet`] incrementally (see
//! [`Simulation`](crate::executor::Simulation)) and hands schedulers a
//! reference to it through
//! [`SchedulerContext`](crate::scheduler::SchedulerContext).
//!
//! **Invariant** (maintained by the executor, checked by sampled
//! debug-asserts): once the executor has settled every dirty guard,
//! `set.is_enabled(p)` equals `protocol.is_enabled(graph, p, state_p,
//! view_p)` evaluated against the current configuration, for every `p`.
//! That holds at selection for a daemon that reads the set, before every
//! step's merge, and whenever
//! [`Simulation::enabled_set`](crate::executor::Simulation::enabled_set)
//! returns.
//!
//! # Layout
//!
//! The set stores **one flag byte per process**, shared with the two other
//! per-process flags the executor keeps: whether the process's guard is
//! *dirty* (must be re-evaluated before the set is next read) and whether
//! it was *selected this round*. One activation writes all three for the
//! same process in one store, so packing them into one byte costs one
//! memory access where three `Vec<bool>` arrays cost three. Only the
//! enabled bit is public: [`EnabledSet::is_enabled`], [`EnabledSet::flags`]
//! and equality see nothing else.

use std::fmt;

use selfstab_graph::NodeId;

/// Flag bit: the process has an enabled action.
const ENABLED: u8 = 1;
/// Flag bit: the process's guard must be re-evaluated.
const DIRTY: u8 = 2;
/// Flag bit: the process was selected since the last round boundary.
const SELECTED: u8 = 4;

/// A dense set of enabled processes with a cached cardinality.
///
/// Indexable by [`NodeId`]; kept current by the executor between steps, so
/// reads are `O(1)` and iterating the enabled processes is `O(n)` with no
/// guard re-evaluation. Two sets are equal when they enable the same
/// processes.
#[derive(Clone)]
pub struct EnabledSet {
    /// One byte per process: [`ENABLED`] | [`DIRTY`] | [`SELECTED`].
    flags: Vec<u8>,
    /// Number of processes with the [`ENABLED`] bit set.
    count: usize,
}

impl EnabledSet {
    /// Creates the set for `n` processes, all initially disabled.
    pub fn new(n: usize) -> Self {
        EnabledSet {
            flags: vec![0; n],
            count: 0,
        }
    }

    /// Builds a set from per-process flags (mainly for scheduler tests).
    pub fn from_flags(flags: Vec<bool>) -> Self {
        let count = flags.iter().filter(|&&b| b).count();
        EnabledSet {
            flags: flags
                .into_iter()
                .map(|enabled| if enabled { ENABLED } else { 0 })
                .collect(),
            count,
        }
    }

    /// Number of processes in the system (enabled or not).
    pub fn node_count(&self) -> usize {
        self.flags.len()
    }

    /// Number of currently enabled processes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Returns `true` when at least one process is enabled.
    pub fn any(&self) -> bool {
        self.count > 0
    }

    /// Whether process `p` is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn is_enabled(&self, p: NodeId) -> bool {
        self.flags[p.index()] & ENABLED != 0
    }

    /// The per-process enabled flags, in [`NodeId`] order.
    ///
    /// Allocation-free: compare with a reference through
    /// `set.flags().eq(reference.iter().copied())`, or `collect()` when an
    /// owned vector is needed.
    pub fn flags(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        self.flags.iter().map(|&f| f & ENABLED != 0)
    }

    /// Iterates over the enabled processes in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f & ENABLED != 0)
            .map(|(i, _)| NodeId::new(i))
    }

    /// A set for `n` processes whose guards are all dirty (none evaluated
    /// yet): the executor's starting point.
    pub(crate) fn all_dirty(n: usize) -> Self {
        EnabledSet {
            flags: vec![DIRTY; n],
            count: 0,
        }
    }

    /// Marks `p`'s guard dirty; returns `true` if it was clean, in which
    /// case the caller queues `p` for re-evaluation.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, p: NodeId) -> bool {
        let flag = &mut self.flags[p.index()];
        let was_clean = *flag & DIRTY == 0;
        *flag |= DIRTY;
        was_clean
    }

    /// Whether `p`'s guard is dirty (not settled since it was last marked).
    #[inline]
    pub(crate) fn is_dirty(&self, p: NodeId) -> bool {
        self.flags[p.index()] & DIRTY != 0
    }

    /// Stores the freshly evaluated guard of `p` and clears its dirty bit.
    #[inline]
    pub(crate) fn settle(&mut self, p: NodeId, enabled: bool) {
        let flag = &mut self.flags[p.index()];
        let was_enabled = *flag & ENABLED != 0;
        *flag = (*flag & SELECTED) | if enabled { ENABLED } else { 0 };
        if was_enabled != enabled {
            if enabled {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }

    /// Settles the guard of a selected process from its activation: one
    /// store sets `p`'s selected-this-round bit, stores `enabled` (whether
    /// the activation moved, which the [`Protocol`] contract makes its
    /// guard) and clears its dirty bit. Returns `true` on `p`'s first
    /// selection of the round.
    ///
    /// Branch-free, because every selected process passes through it.
    /// Debug builds check the contract where the set already knows the
    /// answer: a clean guard must get the flag it already had.
    ///
    /// [`Protocol`]: crate::protocol::Protocol
    #[inline]
    pub(crate) fn settle_selected(&mut self, p: NodeId, enabled: bool) -> bool {
        let flag = &mut self.flags[p.index()];
        let old = *flag;
        debug_assert!(
            old & DIRTY != 0 || (old & ENABLED != 0) == enabled,
            "process {p}: activate returned {} but its settled guard says {}; \
             the Protocol contract requires activate to return Some exactly \
             when is_enabled is true",
            if enabled { "Some" } else { "None" },
            if old & ENABLED != 0 {
                "enabled"
            } else {
                "disabled"
            },
        );
        *flag = SELECTED | (u8::from(enabled) * ENABLED);
        // An enabled old flag is counted in `count`, so this never
        // underflows.
        self.count = self.count + usize::from(enabled) - usize::from(old & ENABLED);
        old & SELECTED == 0
    }

    /// Clears every selected-this-round bit (a round just completed).
    pub(crate) fn start_round(&mut self) {
        for flag in &mut self.flags {
            *flag &= !SELECTED;
        }
    }

    /// Whether every process was selected this round (the `O(n)` scan the
    /// executor's round counter replaces; debug checks only).
    #[cfg(debug_assertions)]
    pub(crate) fn all_selected(&self) -> bool {
        self.flags.iter().all(|&f| f & SELECTED != 0)
    }
}

impl PartialEq for EnabledSet {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.flags().eq(other.flags())
    }
}

impl Eq for EnabledSet {}

impl fmt::Debug for EnabledSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EnabledSet({} of {}) ", self.count, self.node_count())?;
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_tracks_set_and_clear() {
        let mut set = EnabledSet::new(4);
        assert_eq!(set.node_count(), 4);
        assert_eq!(set.count(), 0);
        assert!(!set.any());
        set.settle(NodeId::new(1), true);
        set.settle(NodeId::new(3), true);
        set.settle(NodeId::new(1), true); // idempotent
        assert_eq!(set.count(), 2);
        assert!(set.any());
        assert!(set.is_enabled(NodeId::new(1)));
        assert!(!set.is_enabled(NodeId::new(0)));
        assert!(set.iter().eq([NodeId::new(1), NodeId::new(3)]));
        set.settle(NodeId::new(1), false);
        assert_eq!(set.count(), 1);
        assert!(set.flags().eq([false, false, false, true]));
    }

    #[test]
    fn from_flags_counts() {
        let set = EnabledSet::from_flags(vec![true, false, true]);
        assert_eq!(set.count(), 2);
        assert_eq!(set.node_count(), 3);
        assert_eq!(set.flags().collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    fn flag_store_is_one_byte_per_process() {
        // Enabled, dirty and selected-this-round share one byte, so an
        // activation touches one flag array instead of three.
        let set = EnabledSet::all_dirty(1_000);
        assert_eq!(std::mem::size_of_val(set.flags.as_slice()), 1_000);
    }

    #[test]
    fn dirty_and_round_bits_stay_out_of_the_enabled_view() {
        let p = NodeId::new(1);
        let mut set = EnabledSet::all_dirty(3);
        assert_eq!(
            set,
            EnabledSet::new(3),
            "equality sees only the enabled bit"
        );
        assert!(!set.mark_dirty(p), "already dirty");
        assert!(set.is_dirty(p));
        assert!(set.settle_selected(p, false));
        assert!(!set.is_dirty(p), "an activation settles the guard");
        assert!(set.mark_dirty(p));
        assert!(
            !set.settle_selected(p, true),
            "second selection of the round"
        );
        assert!(set.mark_dirty(p), "settling clears the dirty bit");
        set.settle(p, true);
        assert!(!set.is_dirty(p));
        assert!(set.is_enabled(p));
        assert_eq!(set.count(), 1);
        assert_eq!(set, EnabledSet::from_flags(vec![false, true, false]));
        assert!(set.iter().eq([p]));
        // The round bit survives settling until the round boundary.
        assert!(!set.settle_selected(p, true));
        set.start_round();
        assert!(set.settle_selected(p, true));
        assert!(set.is_enabled(p), "a round boundary keeps the enabled bit");
        set.settle(p, false);
        assert_eq!(set.count(), 0);
        assert_eq!(set, EnabledSet::new(3));
    }

    #[test]
    fn settling_a_selected_process_keeps_the_count() {
        let mut set = EnabledSet::all_dirty(4);
        for (i, enabled) in [true, false, true, true].into_iter().enumerate() {
            set.settle_selected(NodeId::new(i), enabled);
        }
        assert_eq!(set.count(), 3);
        assert!(set.flags().eq([true, false, true, true]));
        for (i, enabled) in [false, true, true, false].into_iter().enumerate() {
            set.mark_dirty(NodeId::new(i));
            set.settle_selected(NodeId::new(i), enabled);
        }
        assert_eq!(set.count(), 2);
        assert_eq!(set, EnabledSet::from_flags(vec![false, true, true, false]));
    }
}
