//! Reliable shared memory: one word-addressed array with per-bank
//! charge counters.
//!
//! Per the model (§2.1 item 3 and §2.3), shared memory is not affected by
//! processor failures; word writes are atomic. The memory also keeps
//! lightweight instrumentation counters (charged reads/writes) used by the
//! experiment harness. Writes are counted at the store; reads are charged
//! per address by the word machine when a cycle's read phase actually
//! executes (an interrupted-before-reads cycle charges nothing). The
//! snapshot machine never charges reads: its whole-memory snapshot has unit
//! cost by assumption, so per-cell read counts are meaningless there.
//!
//! # Layouts
//!
//! The cells are always one contiguous array in address order. A
//! [`MemoryLayout`] only decides which bank *counter* an access charges.
//! [`MemoryLayout::Flat`] has one counter pair. [`MemoryLayout::Banked`]
//! deals the addresses to `banks` modules in round-robin blocks of
//! `interleave` consecutive addresses — the module organization the
//! machine's Omega interconnect (`rfsp-net`) routes against — and keeps one
//! read/write counter pair per module; the memory-wide totals
//! ([`read_count`], [`write_count`]) are their sums. Addresses, values,
//! CRCW semantics and the merged totals are identical across layouts by
//! construction (pinned by the flat-vs-banked differential tests).
//!
//! [`read_count`]: SharedMemory::read_count
//! [`write_count`]: SharedMemory::write_count

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::PramError;
use crate::word::Word;

/// Physical partitioning of the shared address space.
///
/// The layout never changes observable program semantics — only which
/// per-bank counter an access charges.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MemoryLayout {
    /// One contiguous array, one counter pair. The default.
    #[default]
    Flat,
    /// `banks` memory modules with block-cyclic interleaving: addresses
    /// are dealt to banks in round-robin blocks of `interleave`
    /// consecutive cells (`bank = (addr / interleave) % banks`).
    /// `interleave = 1` is the classic word-interleaved layout used by
    /// Omega-network machines.
    Banked {
        /// Number of memory modules; must be ≥ 1.
        banks: usize,
        /// Consecutive addresses per block; must be ≥ 1.
        interleave: usize,
    },
}

impl fmt::Display for MemoryLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemoryLayout::Flat => write!(f, "flat"),
            MemoryLayout::Banked { banks, interleave } => {
                write!(f, "banked({banks} banks, interleave {interleave})")
            }
        }
    }
}

impl MemoryLayout {
    /// Word-interleaved layout over `banks` modules (`interleave = 1`).
    pub fn banked(banks: usize) -> Self {
        MemoryLayout::Banked { banks, interleave: 1 }
    }

    /// Number of memory modules (1 for [`MemoryLayout::Flat`]).
    #[inline]
    pub fn bank_count(&self) -> usize {
        match *self {
            MemoryLayout::Flat => 1,
            MemoryLayout::Banked { banks, .. } => banks,
        }
    }

    /// The module address `addr` maps to.
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        match *self {
            MemoryLayout::Flat => 0,
            MemoryLayout::Banked { banks, interleave } => (addr / interleave) % banks,
        }
    }

    /// Check the layout parameters.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if a banked layout has zero banks or a
    /// zero interleave.
    pub fn validate(&self) -> Result<(), PramError> {
        match *self {
            MemoryLayout::Flat => Ok(()),
            MemoryLayout::Banked { banks: 0, .. } => Err(PramError::InvalidConfig {
                detail: "banked memory layout needs at least one bank".into(),
            }),
            MemoryLayout::Banked { interleave: 0, .. } => Err(PramError::InvalidConfig {
                detail: "banked memory layout needs an interleave of at least one cell".into(),
            }),
            MemoryLayout::Banked { .. } => Ok(()),
        }
    }
}

/// The machine's shared memory: an array of [`Word`]s, all zero until
/// written (the paper assumes non-input memory is cleared), with one
/// read/write counter pair per bank of its [`MemoryLayout`].
///
/// `peek`/`poke` are *meta-level* accessors used by harnesses, adversaries
/// and completion predicates — they bypass accounting. Programs only touch
/// memory through their update cycles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharedMemory {
    layout: MemoryLayout,
    cells: Vec<Word>,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

impl SharedMemory {
    /// Allocate `size` zeroed cells in the flat layout.
    pub fn new(size: usize) -> Self {
        Self::with_layout(size, MemoryLayout::Flat).expect("the flat layout is always valid")
    }

    /// Allocate `size` zeroed cells under `layout`.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if the layout parameters are invalid
    /// (see [`MemoryLayout::validate`]).
    pub fn with_layout(size: usize, layout: MemoryLayout) -> Result<Self, PramError> {
        layout.validate()?;
        let banks = layout.bank_count();
        Ok(SharedMemory {
            layout,
            cells: vec![0; size],
            reads: vec![0; banks],
            writes: vec![0; banks],
        })
    }

    /// Number of cells.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// The bank layout.
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Number of memory modules.
    pub fn bank_count(&self) -> usize {
        self.reads.len()
    }

    /// The module address `addr` maps to (used by the network meter to
    /// route packets to the cell's bank).
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        self.layout.bank_of(addr)
    }

    /// Rebuild a memory from checkpointed cells and per-bank
    /// instrumentation counters
    /// ([`Checkpoint`](crate::checkpoint::Checkpoint) restore).
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] if the cell image does not match the
    /// declared memory size, or the counter vectors do not match the
    /// layout's bank count — a truncated or oversized checkpoint must be
    /// rejected, not silently zero-padded.
    pub(crate) fn from_parts(
        layout: MemoryLayout,
        size: usize,
        cells: &[Word],
        bank_reads: &[u64],
        bank_writes: &[u64],
    ) -> Result<Self, PramError> {
        if cells.len() != size {
            return Err(PramError::Checkpoint {
                detail: format!(
                    "checkpointed memory image has {} cells but the machine declares {size}",
                    cells.len()
                ),
            });
        }
        let expected_banks = layout.bank_count();
        if bank_reads.len() != expected_banks || bank_writes.len() != expected_banks {
            return Err(PramError::Checkpoint {
                detail: format!(
                    "checkpoint carries counters for {} read / {} write banks but the {layout} \
                     layout has {expected_banks}",
                    bank_reads.len(),
                    bank_writes.len()
                ),
            });
        }
        let mut mem = Self::with_layout(size, layout)?;
        mem.cells.copy_from_slice(cells);
        mem.reads.copy_from_slice(bank_reads);
        mem.writes.copy_from_slice(bank_writes);
        Ok(mem)
    }

    /// Charged atomic word write performed by the machine.
    ///
    /// # Errors
    ///
    /// [`PramError::AddressOutOfBounds`] if `addr` is outside memory.
    pub(crate) fn store(&mut self, addr: usize, value: Word) -> Result<(), PramError> {
        let size = self.cells.len();
        let cell = self.cells.get_mut(addr).ok_or(PramError::AddressOutOfBounds { addr, size })?;
        *cell = value;
        self.writes[self.layout.bank_of(addr)] += 1;
        Ok(())
    }

    /// Charge one word read per address to the owning bank's counter.
    /// Called by the word machine once per processor whose cycle got past
    /// its read phase (completed or interrupted after the reads ran);
    /// snapshot-model reads are uncharged. Addresses were bounds-checked
    /// when the cycle was planned.
    pub(crate) fn charge_reads_at(&mut self, addrs: &[usize]) {
        match self.layout {
            // Flat fast path: one counter, no per-address mapping.
            MemoryLayout::Flat => self.reads[0] += addrs.len() as u64,
            MemoryLayout::Banked { .. } => {
                for &addr in addrs {
                    self.reads[self.layout.bank_of(addr)] += 1;
                }
            }
        }
    }

    /// Uncharged inspection (harness/adversary/completion-predicate use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds — meta-level callers are expected
    /// to know the memory size.
    #[inline]
    pub fn peek(&self, addr: usize) -> Word {
        assert!(
            addr < self.size(),
            "address {addr} out of bounds for memory of {} cells",
            self.size()
        );
        self.cells[addr]
    }

    /// Uncharged write (input initialization and test setup).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn poke(&mut self, addr: usize, value: Word) {
        assert!(
            addr < self.size(),
            "address {addr} out of bounds for memory of {} cells",
            self.size()
        );
        self.cells[addr] = value;
    }

    /// All cells in address order (uncharged), under every layout.
    pub fn as_slice(&self) -> &[Word] {
        &self.cells
    }

    /// Total charged reads so far, merged across banks.
    pub fn read_count(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total charged (committed) writes so far, merged across banks.
    pub fn write_count(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Per-bank `(reads, writes)` counters, indexed by bank.
    pub fn bank_counters(&self) -> Vec<(u64, u64)> {
        self.reads.iter().copied().zip(self.writes.iter().copied()).collect()
    }

    /// Per-bank charged read counters, in bank order.
    pub(crate) fn bank_reads(&self) -> &[u64] {
        &self.reads
    }

    /// Per-bank charged write counters, in bank order.
    pub(crate) fn bank_writes(&self) -> &[u64] {
        &self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let m = SharedMemory::new(4);
        assert_eq!(m.as_slice(), &[0, 0, 0, 0]);
        assert_eq!(m.layout(), MemoryLayout::Flat);
        assert_eq!(m.bank_count(), 1);
    }

    #[test]
    fn store_roundtrip_and_counter() {
        let mut m = SharedMemory::new(2);
        m.store(1, 42).unwrap();
        assert_eq!(m.peek(1), 42);
        assert_eq!(m.write_count(), 1);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut m = SharedMemory::new(2);
        m.poke(0, 7);
        assert_eq!(m.peek(0), 7);
        assert_eq!(m.read_count(), 0);
        assert_eq!(m.write_count(), 0);
    }

    #[test]
    fn charge_reads_accumulates() {
        let mut m = SharedMemory::new(4);
        m.charge_reads_at(&[0, 1, 2]);
        m.charge_reads_at(&[3, 0]);
        assert_eq!(m.read_count(), 5);
        assert_eq!(m.write_count(), 0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = SharedMemory::new(2);
        assert!(matches!(m.store(9, 0), Err(PramError::AddressOutOfBounds { addr: 9, size: 2 })));
    }

    // ------------------------------------------------------------- banked

    /// Banked and flat memories agree cell-for-cell and on merged totals.
    #[test]
    fn banked_matches_flat_semantics() {
        let layout = MemoryLayout::Banked { banks: 3, interleave: 2 };
        let mut flat = SharedMemory::new(13);
        let mut banked = SharedMemory::with_layout(13, layout).unwrap();
        for addr in 0..13 {
            flat.store(addr, (addr * 7 + 1) as Word).unwrap();
            banked.store(addr, (addr * 7 + 1) as Word).unwrap();
        }
        flat.charge_reads_at(&[0, 5, 12]);
        banked.charge_reads_at(&[0, 5, 12]);
        for addr in 0..13 {
            assert_eq!(flat.peek(addr), banked.peek(addr), "addr {addr}");
        }
        assert_eq!(banked.as_slice(), flat.as_slice());
        assert_eq!(banked.read_count(), flat.read_count());
        assert_eq!(banked.write_count(), flat.write_count());
    }

    /// The block-cyclic mapping sends `addr` to bank `(addr/ilv) % banks`
    /// and per-bank counters charge the owning bank.
    #[test]
    fn per_bank_counters_charge_the_owning_bank() {
        let layout = MemoryLayout::Banked { banks: 2, interleave: 2 };
        let mut m = SharedMemory::with_layout(8, layout).unwrap();
        // addrs 0,1 → bank 0; 2,3 → bank 1; 4,5 → bank 0; 6,7 → bank 1.
        assert_eq!(m.bank_of(1), 0);
        assert_eq!(m.bank_of(2), 1);
        assert_eq!(m.bank_of(4), 0);
        m.store(0, 1).unwrap();
        m.store(2, 1).unwrap();
        m.store(3, 1).unwrap();
        m.charge_reads_at(&[4, 6]);
        assert_eq!(m.bank_counters(), vec![(1, 1), (1, 2)]);
        assert_eq!(m.read_count(), 2);
        assert_eq!(m.write_count(), 3);
    }

    #[test]
    fn zero_banks_or_interleave_rejected() {
        assert!(
            SharedMemory::with_layout(4, MemoryLayout::Banked { banks: 0, interleave: 1 }).is_err()
        );
        assert!(
            SharedMemory::with_layout(4, MemoryLayout::Banked { banks: 2, interleave: 0 }).is_err()
        );
    }

    /// Satellite 1: `from_parts` rejects a cell image whose length does
    /// not match the declared size, naming expected vs. actual.
    #[test]
    fn from_parts_validates_cell_count() {
        let err = SharedMemory::from_parts(MemoryLayout::Flat, 4, &[1, 2], &[0], &[0]).unwrap_err();
        match err {
            PramError::Checkpoint { detail } => {
                assert!(detail.contains("2 cells"), "{detail}");
                assert!(detail.contains('4'), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn from_parts_validates_bank_counter_shape() {
        let layout = MemoryLayout::banked(4);
        let err = SharedMemory::from_parts(layout, 2, &[1, 2], &[0; 2], &[0; 4]).unwrap_err();
        assert!(matches!(err, PramError::Checkpoint { .. }), "{err:?}");
    }

    #[test]
    fn from_parts_restores_banked_image() {
        let layout = MemoryLayout::Banked { banks: 2, interleave: 1 };
        let m = SharedMemory::from_parts(layout, 4, &[9, 8, 7, 6], &[1, 2], &[3, 4]).unwrap();
        assert_eq!(m.as_slice(), &[9, 8, 7, 6]);
        assert_eq!(m.bank_counters(), vec![(1, 3), (2, 4)]);
        assert_eq!(m.read_count(), 3);
        assert_eq!(m.write_count(), 7);
    }

    #[test]
    fn layout_serde_roundtrip() {
        for layout in [MemoryLayout::Flat, MemoryLayout::Banked { banks: 8, interleave: 4 }] {
            let text = serde::json::to_string(&layout);
            let back: MemoryLayout = serde::json::from_str(&text).unwrap();
            assert_eq!(back, layout);
        }
    }
}
