//! Incremental unvisited-set index: a dense, position-ordered set of
//! shared-memory addresses with O(1) rank/select.
//!
//! The snapshot algorithms of §3 and the pigeonhole adversary of
//! Theorem 3.1 both consume the same quantity every tick: the list of
//! still-unvisited Write-All cells, *numbered by position*. Computing it by
//! scanning memory costs O(N) per processor per tick and caps the
//! experiments at small N. [`UnvisitedIndex`] maintains that list
//! incrementally from committed writes instead: the machine folds every
//! commit into the index in O(1) amortized, and consumers get
//!
//! * [`len`](UnvisitedIndex::len) / [`is_empty`](UnvisitedIndex::is_empty)
//!   — the outstanding count, replacing the O(N) completion scan;
//! * [`select`](UnvisitedIndex::select) — the k-th unvisited address in
//!   ascending order, O(1);
//! * [`rank_of`](UnvisitedIndex::rank_of) — position of an address within
//!   the unvisited list, O(1);
//! * [`slice_in`](UnvisitedIndex::slice_in) — the unvisited addresses
//!   inside a [`Region`], as one contiguous [`AddrSlice`] (two binary
//!   searches).
//!
//! The machine primes the index at construction and at every run entry
//! with [`rebuild_batched`](UnvisitedIndex::rebuild_batched), which
//! classifies the memory's flat cell array 64 cells per lane.
//!
//! # Representation
//!
//! A dense `items` vector of live addresses plus a `pos` position map
//! (`pos[addr]` = slot in `items`, or an absent sentinel). Removal is a
//! *tombstone*: the position-map entry is cleared in O(1) and the stale
//! `items` slot is left behind; an element at slot `r` is live iff
//! `pos[items[r]] == r`.
//! [`ensure_clean`](UnvisitedIndex::ensure_clean) compacts the tombstones
//! away in place (and re-sorts after out-of-order inserts), restoring the
//! dense ascending-address form the accessors require. A plain swap-remove
//! set would make removal O(1) without tombstones, but it scrambles the
//! order — and position order is load-bearing: the §3 balanced-allocation
//! rule and the pigeonhole adversary's tie-breaking are both defined on
//! cells *numbered by position*.
//!
//! Both vectors store addresses and slots as `u32`, half the working set
//! of `usize` words for the rebuild and the per-tick accessors to stream
//! over. An index therefore covers at most `u32::MAX` cells (the machines
//! refuse larger memories at construction). Every public
//! accessor still speaks `usize` addresses, and slice views are returned
//! as [`AddrSlice`].
//!
//! Each tick the machine performs O(committed writes) removals/inserts and
//! one `ensure_clean`; compaction is O(pending tombstones + live) and every
//! tombstone is scanned at most once after its removal, so maintenance is
//! O(writes) amortized per tick. Steady-state maintenance performs **no
//! heap allocation**: compaction is in place, and inserts reuse slack left
//! by prior removals (a program that re-dirties more cells than were ever
//! outstanding at once may grow the buffer, which is the usual amortized
//! `Vec` growth).

use crate::region::Region;
use crate::word::Word;

/// Largest address space an index covers: every address is
/// `< size <= u32::MAX`, so `u32::MAX` itself stays free for the absent
/// sentinel, and every slot number fits `u32` too.
pub(crate) const MAX_INDEXED_CELLS: usize = u32::MAX as usize;

/// Position-map sentinel for "address not in the set".
const ABSENT: u32 = u32::MAX;

/// Width of one lane of the batched rebuild
/// ([`UnvisitedIndex::rebuild_batched`]): cells are classified 64 at a
/// time into one `u64` bit mask.
pub const LANE_WIDTH: usize = 64;

/// A dense set of shared-memory addresses in ascending order with O(1)
/// rank/select, O(1) amortized removal and insertion, and contiguous
/// per-[`Region`] slicing. See the [module docs](self) for the
/// representation and cost model.
#[derive(Clone, Debug, Default)]
pub struct UnvisitedIndex {
    /// Live addresses in ascending order, possibly interleaved with stale
    /// (tombstoned) entries until the next `ensure_clean`.
    items: Vec<u32>,
    /// `pos[addr]` = slot of `addr` in `items`, or [`ABSENT`].
    pos: Vec<u32>,
    /// Number of live addresses (maintained eagerly, valid even when dirty).
    live: usize,
    /// Whether `items` contains tombstoned entries.
    holes: bool,
    /// Whether inserts appended out of ascending order.
    unsorted: bool,
}

impl UnvisitedIndex {
    /// An empty index over the address space `0..size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds `u32::MAX`.
    pub fn new(size: usize) -> Self {
        let mut index = UnvisitedIndex::default();
        index.reset(size);
        index
    }

    /// Empty the set and resize the position map to `0..size`, reusing
    /// both buffers.
    fn reset(&mut self, size: usize) {
        assert!(size <= MAX_INDEXED_CELLS, "{size} cells exceed the index's u32 address range");
        self.items.clear();
        self.pos.clear();
        self.pos.resize(size, ABSENT);
        self.seal();
    }

    fn seal(&mut self) {
        self.live = self.items.len();
        self.holes = false;
        self.unsorted = false;
    }

    #[inline]
    fn push_addr(&mut self, addr: usize) {
        self.pos[addr] = self.items.len() as u32;
        self.items.push(addr as u32);
    }

    /// Reclassify the whole address space: afterwards the index contains
    /// exactly the addresses for which `is_outstanding` returns `true`,
    /// clean and in ascending order. O(size).
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds `u32::MAX`.
    pub fn rebuild(&mut self, size: usize, mut is_outstanding: impl FnMut(usize) -> bool) {
        self.reset(size);
        for addr in 0..size {
            if is_outstanding(addr) {
                self.push_addr(addr);
            }
        }
        self.seal();
    }

    /// [`UnvisitedIndex::rebuild`] over the whole memory `cells`, batched:
    /// the cells are processed in lanes of [`LANE_WIDTH`] cells (the last
    /// may be shorter), and the classifier answers per lane with one `u64`
    /// bit mask (bit `j` set iff cell `lane_base + j` is outstanding). The
    /// mask's set bits are drained with `trailing_zeros`, so a
    /// mostly-satisfied memory costs O(size / 64) mask computations plus
    /// O(outstanding) pushes — and the classifier body is a tight,
    /// branch-free loop the compiler can autovectorize. Produces exactly
    /// the same index as [`UnvisitedIndex::rebuild`] for a classifier that
    /// agrees cell-wise.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is longer than `u32::MAX`.
    pub fn rebuild_batched<'a>(
        &mut self,
        cells: &'a [Word],
        mut lane_mask: impl FnMut(usize, &'a [Word]) -> u64,
    ) {
        self.reset(cells.len());
        for (k, lane) in cells.chunks(LANE_WIDTH).enumerate() {
            let base = k * LANE_WIDTH;
            let mut mask = lane_mask(base, lane);
            debug_assert!(
                lane.len() == LANE_WIDTH || mask >> lane.len() == 0,
                "lane mask has bits beyond the lane's {} cells",
                lane.len()
            );
            // Iterate the set bits in ascending order: appends stay
            // sorted, so the rebuilt index is clean by construction.
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.push_addr(base + j);
            }
        }
        self.seal();
    }

    /// Number of addresses in the set. Valid even while dirty.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the set is empty. Valid even while dirty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `addr` is in the set. O(1), valid even while dirty.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        self.pos.get(addr).is_some_and(|&p| p != ABSENT)
    }

    /// Whether the dense accessors ([`select`](UnvisitedIndex::select),
    /// [`rank_of`](UnvisitedIndex::rank_of),
    /// [`as_slice`](UnvisitedIndex::as_slice),
    /// [`slice_in`](UnvisitedIndex::slice_in)) may be used right now.
    pub fn is_clean(&self) -> bool {
        !self.holes && !self.unsorted
    }

    /// Add `addr` to the set. Returns `false` (no-op) if already present.
    /// O(1) amortized.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the address space the index was built
    /// over.
    pub fn insert(&mut self, addr: usize) -> bool {
        assert!(addr < self.pos.len(), "address {addr} outside indexed space");
        if self.pos[addr] != ABSENT {
            return false;
        }
        if self.items.len() == self.items.capacity() && self.holes {
            // Reuse tombstone slack before letting the buffer grow.
            self.compact();
        }
        self.push_addr(addr);
        self.live += 1;
        if !self.unsorted {
            // An append extending the ascending tail keeps the index clean;
            // with holes present the tail entry may be stale, so be
            // conservative.
            let extends_tail = !self.holes
                && (self.items.len() < 2 || self.items[self.items.len() - 2] < addr as u32);
            self.unsorted = !extends_tail;
        }
        true
    }

    /// Remove `addr` from the set (tombstone; O(1)). Returns `false`
    /// (no-op) if not present.
    pub fn remove(&mut self, addr: usize) -> bool {
        if !self.contains(addr) {
            return false;
        }
        self.pos[addr] = ABSENT;
        self.live -= 1;
        self.holes = true;
        true
    }

    /// Restore the dense ascending form: drop tombstones in place and
    /// re-sort if inserts appended out of order. O(pending work); a no-op
    /// when already clean. Performs no allocation.
    pub fn ensure_clean(&mut self) {
        if self.holes {
            self.compact();
        }
        if self.unsorted {
            self.items.sort_unstable();
            for (slot, &addr) in self.items.iter().enumerate() {
                self.pos[addr as usize] = slot as u32;
            }
            self.unsorted = false;
        }
    }

    /// Drop tombstoned entries in place. An entry at slot `r` is live iff
    /// `pos[items[r]] == r`; live entries keep their relative order.
    fn compact(&mut self) {
        let mut w = 0;
        for r in 0..self.items.len() {
            let addr = self.items[r];
            if self.pos[addr as usize] == r as u32 {
                self.items[w] = addr;
                self.pos[addr as usize] = w as u32;
                w += 1;
            }
        }
        self.items.truncate(w);
        self.holes = false;
    }

    /// The `k`-th address in ascending order (0-based). O(1).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`. Debug builds additionally assert the index
    /// is clean.
    #[inline]
    pub fn select(&self, k: usize) -> usize {
        debug_assert!(self.is_clean(), "select on a dirty index — call ensure_clean first");
        self.items[k] as usize
    }

    /// Rank of `addr` within the ascending order, if present. O(1).
    #[inline]
    pub fn rank_of(&self, addr: usize) -> Option<usize> {
        debug_assert!(self.is_clean(), "rank_of on a dirty index — call ensure_clean first");
        match self.pos.get(addr) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// All addresses in ascending order.
    pub fn as_slice(&self) -> AddrSlice<'_> {
        debug_assert!(self.is_clean(), "as_slice on a dirty index — call ensure_clean first");
        AddrSlice(&self.items)
    }

    /// The rank range occupied by addresses inside `region`: two binary
    /// searches, O(log len).
    pub fn range_in(&self, region: Region) -> std::ops::Range<usize> {
        debug_assert!(self.is_clean(), "range_in on a dirty index — call ensure_clean first");
        let lo = self.items.partition_point(|&a| (a as usize) < region.base());
        let hi = self.items.partition_point(|&a| (a as usize) < region.base() + region.len());
        lo..hi
    }

    /// The addresses inside `region`, ascending, as one contiguous view.
    pub fn slice_in(&self, region: Region) -> AddrSlice<'_> {
        AddrSlice(&self.items[self.range_in(region)])
    }

    /// Number of addresses inside `region`. O(log len).
    pub fn count_in(&self, region: Region) -> usize {
        self.range_in(region).len()
    }

    /// Full cross-check against ground truth: the index is clean, covers
    /// the `0..size` address space, and contains exactly the addresses for
    /// which `is_outstanding` holds, in strictly ascending order. Intended
    /// for `debug_assert!` use by the machine.
    pub fn matches(&self, size: usize, mut is_outstanding: impl FnMut(usize) -> bool) -> bool {
        if !self.is_clean() || self.pos.len() != size || self.items.len() != self.live {
            return false;
        }
        let mut expected = 0;
        for addr in 0..size {
            if is_outstanding(addr) != self.contains(addr) {
                return false;
            }
            if self.contains(addr) && self.items[self.pos[addr] as usize] as usize != addr {
                return false;
            }
            if is_outstanding(addr) {
                expected += 1;
            }
        }
        expected == self.live && self.items.windows(2).all(|w| w[0] < w[1])
    }
}

/// A view of a contiguous run of index entries. The index stores `u32`
/// words; every accessor widens them to `usize` addresses.
#[derive(Clone, Copy, Debug)]
pub struct AddrSlice<'a>(&'a [u32]);

impl<'a> AddrSlice<'a> {
    /// Number of addresses in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `k`-th address of the view, if in bounds.
    #[inline]
    pub fn get(&self, k: usize) -> Option<usize> {
        self.0.get(k).map(|&a| a as usize)
    }

    /// The addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.0.iter().map(|&a| a as usize)
    }

    /// The addresses as an owned `Vec<usize>`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl PartialEq<&[usize]> for AddrSlice<'_> {
    fn eq(&self, other: &&[usize]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<&[usize; N]> for AddrSlice<'_> {
    fn eq(&self, other: &&[usize; N]) -> bool {
        *self == &other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::LayoutBuilder;

    fn fresh(live: &[usize], size: usize) -> UnvisitedIndex {
        let mut idx = UnvisitedIndex::new(size);
        idx.rebuild(size, |a| live.contains(&a));
        idx
    }

    #[test]
    fn rebuild_orders_by_position() {
        let idx = fresh(&[5, 1, 3], 8);
        assert_eq!(idx.as_slice(), &[1, 3, 5]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.select(1), 3);
        assert_eq!(idx.rank_of(5), Some(2));
        assert_eq!(idx.rank_of(2), None);
        assert!(idx.matches(8, |a| [1, 3, 5].contains(&a)));
    }

    #[test]
    fn remove_is_tombstoned_then_compacted() {
        let mut idx = fresh(&[0, 1, 2, 3], 4);
        assert!(idx.remove(1));
        assert!(!idx.remove(1), "second removal is a no-op");
        assert_eq!(idx.len(), 3);
        assert!(!idx.contains(1));
        assert!(!idx.is_clean());
        idx.ensure_clean();
        assert_eq!(idx.as_slice(), &[0, 2, 3]);
        assert_eq!(idx.rank_of(3), Some(2));
        assert!(idx.matches(4, |a| a != 1));
    }

    #[test]
    fn insert_restores_position_order() {
        let mut idx = fresh(&[0, 4], 8);
        assert!(idx.insert(2));
        assert!(!idx.insert(2), "second insert is a no-op");
        idx.ensure_clean();
        assert_eq!(idx.as_slice(), &[0, 2, 4]);
        // Tail-extending appends stay clean without a sort.
        assert!(idx.insert(7));
        assert!(idx.is_clean());
        assert_eq!(idx.as_slice(), &[0, 2, 4, 7]);
    }

    #[test]
    fn remove_then_reinsert_same_address() {
        let mut idx = fresh(&[0, 1, 2], 4);
        idx.remove(1);
        assert!(idx.insert(1));
        idx.ensure_clean();
        assert_eq!(idx.as_slice(), &[0, 1, 2]);
        assert!(idx.matches(4, |a| a < 3));
    }

    #[test]
    fn insert_then_remove_before_clean() {
        let mut idx = fresh(&[0], 4);
        idx.insert(2);
        idx.remove(2);
        idx.ensure_clean();
        assert_eq!(idx.as_slice(), &[0]);
        assert!(idx.matches(4, |a| a == 0));
    }

    #[test]
    fn region_slicing_is_contiguous() {
        let mut layout = LayoutBuilder::new();
        let a = layout.alloc(4);
        let b = layout.alloc(4);
        let idx = fresh(&[1, 2, 5, 6], layout.total());
        assert_eq!(idx.slice_in(a), &[1, 2]);
        assert_eq!(idx.slice_in(b), &[5, 6]);
        assert_eq!(idx.range_in(b), 2..4);
        assert_eq!(idx.count_in(a), 2);
        assert_eq!(idx.slice_in(Region::EMPTY), &[] as &[usize]);
    }

    #[test]
    fn interleaved_churn_matches_ground_truth() {
        let size = 64;
        let mut idx = UnvisitedIndex::new(size);
        idx.rebuild(size, |_| true);
        let mut truth: Vec<bool> = vec![true; size];
        // Deterministic churn: walk a fixed stride, toggling membership.
        let mut a = 17usize;
        for step in 0..500 {
            a = (a * 31 + 7) % size;
            if truth[a] {
                idx.remove(a);
                truth[a] = false;
            } else {
                idx.insert(a);
                truth[a] = true;
            }
            if step % 7 == 0 {
                idx.ensure_clean();
            }
            assert_eq!(idx.len(), truth.iter().filter(|&&t| t).count());
        }
        idx.ensure_clean();
        assert!(idx.matches(size, |addr| truth[addr]));
    }

    #[test]
    #[should_panic(expected = "outside indexed space")]
    fn insert_out_of_space_panics() {
        let mut idx = UnvisitedIndex::new(2);
        idx.insert(2);
    }

    /// `select(k)` edge cases: the last element, one past the end (panics),
    /// and an index drained to empty.
    #[test]
    fn select_last_element_is_in_bounds() {
        let idx = fresh(&[2, 4, 6], 8);
        assert_eq!(idx.select(idx.len() - 1), 6);
    }

    #[test]
    #[should_panic]
    fn select_at_len_panics() {
        let idx = fresh(&[2, 4, 6], 8);
        let _ = idx.select(idx.len());
    }

    #[test]
    #[should_panic]
    fn select_on_empty_index_panics() {
        let mut idx = fresh(&[0, 1], 2);
        idx.remove(0);
        idx.remove(1);
        idx.ensure_clean();
        assert!(idx.is_empty());
        let _ = idx.select(0);
    }

    /// `rank_of` edge cases: address beyond the indexed space, address
    /// inside the space but absent, and a fully drained index.
    #[test]
    fn rank_of_out_of_range_and_drained() {
        let mut idx = fresh(&[0, 1], 2);
        assert_eq!(idx.rank_of(99), None, "address outside the space is absent, not a panic");
        idx.remove(0);
        idx.remove(1);
        idx.ensure_clean();
        assert!(idx.is_empty());
        assert_eq!(idx.rank_of(0), None);
        assert_eq!(idx.rank_of(1), None);
        assert_eq!(idx.as_slice(), &[] as &[usize]);
        assert_eq!(idx.count_in(Region::EMPTY), 0);
        // A drained index accepts re-inserts and comes back clean.
        assert!(idx.insert(1));
        idx.ensure_clean();
        assert_eq!(idx.rank_of(1), Some(0));
    }

    /// The batched rebuild splits the memory into [`LANE_WIDTH`]-cell lanes
    /// with correct bases, including a final partial lane, and builds the
    /// same index as the plain rebuild.
    #[test]
    fn batched_rebuild_lane_bases_and_partial_lane() {
        let size = LANE_WIDTH * 2 + 7;
        let values: Vec<Word> = (0..size).map(|a| u64::from(a % 5 == 0)).collect();
        let mut seen_bases = Vec::new();
        let mut idx = UnvisitedIndex::new(size);
        idx.rebuild_batched(&values, |base, lane| {
            seen_bases.push((base, lane.len()));
            let mut mask = 0u64;
            for (j, &v) in lane.iter().enumerate() {
                mask |= u64::from(v == 0) << j;
            }
            mask
        });
        assert_eq!(
            seen_bases,
            vec![(0, LANE_WIDTH), (LANE_WIDTH, LANE_WIDTH), (2 * LANE_WIDTH, 7)]
        );
        assert!(idx.matches(size, |a| a % 5 != 0));
        let mut plain = UnvisitedIndex::new(size);
        plain.rebuild(size, |a| values[a] == 0);
        assert_eq!(idx.as_slice().to_vec(), plain.as_slice().to_vec());
    }
}
