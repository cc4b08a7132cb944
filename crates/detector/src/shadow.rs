//! Shadow memory: per-address access history.
//!
//! Two representation choices keep the per-access hot path allocation-free
//! and cache-friendly:
//!
//! * **Adaptive read state** ([`ReadState`]) — FastTrack's insight that
//!   most locations are only ever read by one thread at a time (or by
//!   threads that are ordered). Such locations keep a single inline
//!   [`AccessRecord`]; only a *genuinely concurrent* second reader promotes
//!   the cell to a heap-allocated read vector.
//! * **Stamped shared records** — a record in a promoted read vector
//!   carries its thread's acquire count (the joins into that thread's
//!   clock, kept by [`crate::engine::HbEngine`]) in what would otherwise
//!   be padding. While a reader's count still equals its own record's
//!   stamp, its clock covers no other record of the vector: the vector
//!   holds at most one record per thread, the others survived the prune
//!   when the stamp was taken, and later ones come from threads whose
//!   current epochs the reader cannot know. Replacing the reader's own
//!   record then equals the full prune (see [`crate::detector`]).
//!   Exclusive records and writes stay [`AccessRecord::UNSTAMPED`].
//! * **Flat paged table** ([`ShadowTable`]) — instead of one SipHash
//!   `HashMap<addr, cell>` lookup per access, addresses map to 64-cell
//!   pages; pages live in one arena indexed by one open-addressed probe
//!   table keyed on the page number, fronted by a one-entry hot-page
//!   cache (spatial locality makes consecutive accesses hit the same page).

use crate::lockset::LocksetId;
use spinrace_tir::Pc;

/// One recorded access: a FastTrack-style epoch plus its static site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Accessing thread.
    pub tid: u32,
    /// That thread's clock component at access time.
    pub clock: u32,
    /// Static location.
    pub pc: Pc,
    /// Call-chain hash (Helgrind-style context).
    pub stack: u64,
    /// Shared read vectors only: the accessing thread's acquire count
    /// when the record went in, or [`AccessRecord::UNSTAMPED`]. It sits
    /// in what would otherwise be padding.
    pub acquires: u32,
}

impl AccessRecord {
    /// The stamp of a record whose acquire count is unknown: the
    /// exclusive read path, writes, and a saturated counter. It never
    /// matches, so such a record never takes the shared fast path.
    pub const UNSTAMPED: u32 = u32::MAX;

    /// An unstamped record of one access.
    #[inline]
    pub fn new(tid: u32, clock: u32, pc: Pc, stack: u64) -> AccessRecord {
        AccessRecord {
            tid,
            clock,
            pc,
            stack,
            acquires: AccessRecord::UNSTAMPED,
        }
    }

    /// The same access: epoch and site equal, whatever the stamps.
    #[inline]
    pub fn same_access(&self, other: &AccessRecord) -> bool {
        (self.tid, self.clock, self.pc, self.stack)
            == (other.tid, other.clock, other.pc, other.stack)
    }
}

/// Reads since the last write that are still concurrent-relevant.
///
/// `Exclusive` is the epoch fast path: one inline record, overwritten in
/// place while successive readers are ordered. The first pair of genuinely
/// concurrent reads promotes to `Shared`, which behaves exactly like the
/// reference detector's read vector (covered entries pruned lazily).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadState {
    /// No reads since the last write.
    #[default]
    None,
    /// All reads so far were ordered: only the latest matters.
    Exclusive(AccessRecord),
    /// Concurrent readers: the full vector (in arrival order).
    Shared(Vec<AccessRecord>),
}

impl ReadState {
    /// The live records, oldest first (the reference detector's `reads`
    /// vector, whatever the representation).
    #[inline]
    pub fn as_slice(&self) -> &[AccessRecord] {
        match self {
            ReadState::None => &[],
            ReadState::Exclusive(r) => std::slice::from_ref(r),
            ReadState::Shared(v) => v,
        }
    }

    /// Drop all records. A promoted cell keeps its vector's capacity (the
    /// location proved it attracts concurrent readers once already).
    #[inline]
    pub fn clear(&mut self) {
        match self {
            ReadState::None => {}
            ReadState::Exclusive(_) => *self = ReadState::None,
            ReadState::Shared(v) => v.clear(),
        }
    }

    /// Is the state promoted to a read vector?
    pub fn is_shared(&self) -> bool {
        matches!(self, ReadState::Shared(_))
    }
}

/// The shadow cell of one memory word.
#[derive(Clone, Debug, Default)]
pub struct ShadowCell {
    /// Most recent write.
    pub last_write: Option<AccessRecord>,
    /// Reads since the last write (adaptive representation).
    pub reads: ReadState,
    /// Eraser stage: intersection of locksets over lock-holding writes,
    /// with the last such writer, site, and stack context.
    pub write_lockset: Option<(LocksetId, u32, Pc, u64)>,
    /// Long-MSM suspicion counter (see `MsmMode::Long`).
    pub suspicions: u8,
}

impl ShadowCell {
    /// Has this cell recorded anything at all? A read vector emptied by
    /// a write holds nothing.
    pub fn is_untouched(&self) -> bool {
        self.last_write.is_none()
            && self.reads.as_slice().is_empty()
            && self.write_lockset.is_none()
            && self.suspicions == 0
    }
}

/// Cells per page (one 64-word span of the VM's word-granular address
/// space — globals and heap allocations are dense, so pages fill up).
pub const PAGE_CELLS: usize = 64;
const PAGE_BITS: u32 = PAGE_CELLS.trailing_zeros();

/// Initial probe-table capacity (slots; power of two).
const INITIAL_SLOTS: usize = 16;

/// One shadow page: the cells of 64 consecutive addresses.
#[derive(Clone, Debug)]
pub struct Page {
    /// The cells, indexed by `addr & (PAGE_CELLS - 1)`.
    pub cells: Box<[ShadowCell]>,
}

impl Page {
    fn new() -> Page {
        Page {
            cells: (0..PAGE_CELLS).map(|_| ShadowCell::default()).collect(),
        }
    }
}

/// Fibonacci-style multiplicative mix spreading sequential page numbers
/// across the probe table.
#[inline]
fn mix(page: u64) -> usize {
    (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

/// The flat shadow table: address → page of cells. One open-addressed
/// probe table maps a page number to its slot in one page arena.
#[derive(Clone, Debug)]
pub struct ShadowTable {
    /// Probe keys: `page_number + 1`, 0 marks an empty slot. Power-of-two
    /// length, linear probing, grown at 75% load.
    keys: Vec<u64>,
    /// Parallel to `keys`: arena index of the page.
    slots: Vec<u32>,
    /// Page arena (never shrinks; insertion order).
    pages: Vec<Page>,
    /// Hot-page cache: page number of the most recently used page
    /// (`u64::MAX` = none) and its arena slot.
    cache_page: u64,
    cache_slot: u32,
}

impl Default for ShadowTable {
    fn default() -> Self {
        ShadowTable::new()
    }
}

impl ShadowTable {
    /// Empty table; nothing is allocated until the first access.
    pub fn new() -> ShadowTable {
        ShadowTable {
            keys: Vec::new(),
            slots: Vec::new(),
            pages: Vec::new(),
            cache_page: u64::MAX,
            cache_slot: 0,
        }
    }

    /// The cell of `addr`, creating its page on demand. The common case —
    /// another access to the most recently used page — is two compares and
    /// an index.
    #[inline]
    pub fn cell(&mut self, addr: u64) -> &mut ShadowCell {
        let page = addr >> PAGE_BITS;
        let off = (addr as usize) & (PAGE_CELLS - 1);
        if page == self.cache_page {
            return &mut self.pages[self.cache_slot as usize].cells[off];
        }
        self.cell_cold(page, off)
    }

    #[cold]
    fn cell_cold(&mut self, page: u64, off: usize) -> &mut ShadowCell {
        let slot = self.find_or_insert(page);
        self.cache_page = page;
        self.cache_slot = slot;
        &mut self.pages[slot as usize].cells[off]
    }

    /// The cell of `addr` if its page exists (no creation).
    #[inline]
    pub fn get(&self, addr: u64) -> Option<&ShadowCell> {
        let page = addr >> PAGE_BITS;
        let off = (addr as usize) & (PAGE_CELLS - 1);
        let slot = if page == self.cache_page {
            self.cache_slot
        } else {
            self.find(page)?
        };
        Some(&self.pages[slot as usize].cells[off])
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Slot of `page` in the probe table: its current position, or the
    /// empty position where it would be inserted.
    #[inline]
    fn probe(&self, page: u64) -> usize {
        let mask = self.keys.len() - 1;
        let key = page + 1;
        let mut i = mix(page) & mask;
        loop {
            let k = self.keys[i];
            if k == 0 || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn find(&self, page: u64) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe(page);
        (self.keys[i] != 0).then(|| self.slots[i])
    }

    fn find_or_insert(&mut self, page: u64) -> u32 {
        if self.keys.is_empty() {
            self.keys = vec![0; INITIAL_SLOTS];
            self.slots = vec![0; INITIAL_SLOTS];
        } else if (self.pages.len() + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let i = self.probe(page);
        if self.keys[i] != 0 {
            return self.slots[i];
        }
        let slot = self.pages.len() as u32;
        self.pages.push(Page::new());
        self.keys[i] = page + 1;
        self.slots[i] = slot;
        slot
    }

    fn grow(&mut self) {
        let new_len = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_len]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_len]);
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if k != 0 {
                let i = self.probe(k - 1);
                self.keys[i] = k;
                self.slots[i] = s;
            }
        }
    }

    /// What the table holds, for the memory metrics: touched cells and
    /// the live read records in them. Walks every page.
    pub fn counts(&self) -> (usize, usize) {
        let cells = self
            .pages
            .iter()
            .flat_map(|p| p.cells.iter())
            .filter(|c| !c.is_untouched());
        cells.fold((0, 0), |(n, records), c| {
            (n + 1, records + c.reads.as_slice().len())
        })
    }

    /// Physical lower bound on retained bytes, for budget polls: the
    /// probe table, the arena and every page's slab of cells, skipping a
    /// walk over promoted read vectors. O(1), suitable for polling on
    /// the replay hot path.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<u64>()
            + self.slots.capacity() * size_of::<u32>()
            + self.pages.capacity() * size_of::<Page>()
            + self.pages.len() * PAGE_CELLS * size_of::<ShadowCell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{BlockId, FuncId};

    fn rec(tid: u32, clock: u32) -> AccessRecord {
        AccessRecord::new(tid, clock, Pc::new(FuncId(0), BlockId(0), 0), 0)
    }

    #[test]
    fn default_cell_is_empty() {
        let c = ShadowCell::default();
        assert!(c.last_write.is_none());
        assert!(c.reads.as_slice().is_empty());
        assert_eq!(c.suspicions, 0);
        assert!(c.is_untouched());
    }

    #[test]
    fn counts_hold_touched_cells_and_live_records() {
        let mut t = ShadowTable::new();
        assert_eq!(t.counts(), (0, 0));
        t.cell(0x1000);
        assert_eq!(t.counts(), (0, 0), "a created cell holds nothing");
        t.cell(0x1000).reads = ReadState::Exclusive(rec(0, 1));
        assert_eq!(t.counts(), (1, 1), "an exclusive read is one record");
        t.cell(0x1000).reads = ReadState::Shared(vec![rec(0, 1), rec(1, 1)]);
        t.cell(0x1001).suspicions = 1;
        assert_eq!(t.counts(), (2, 2));
        t.cell(0x1000).reads.clear();
        assert_eq!(t.counts(), (1, 0), "an emptied read vector holds nothing");
    }

    #[test]
    fn read_state_clear_keeps_shared_capacity() {
        let mut r = ReadState::Shared(vec![rec(0, 1), rec(1, 1)]);
        r.clear();
        assert!(r.as_slice().is_empty());
        assert!(r.is_shared(), "promoted cells stay promoted");
        let mut e = ReadState::Exclusive(rec(0, 1));
        e.clear();
        assert_eq!(e, ReadState::None);
    }

    #[test]
    fn table_round_trips_cells() {
        let mut t = ShadowTable::new();
        assert!(t.get(0x1000).is_none());
        t.cell(0x1000).suspicions = 7;
        assert_eq!(t.get(0x1000).unwrap().suspicions, 7);
        // same page, different cell
        t.cell(0x1001).suspicions = 9;
        assert_eq!(t.get(0x1000).unwrap().suspicions, 7);
        assert_eq!(t.get(0x1001).unwrap().suspicions, 9);
        assert_eq!(t.page_count(), 1);
        // different page
        t.cell(0x2000).suspicions = 3;
        assert_eq!(t.page_count(), 2);
        assert_eq!(t.get(0x2000).unwrap().suspicions, 3);
        assert!(t.get(0x3000).is_none(), "get never creates");
    }

    #[test]
    fn table_survives_many_pages_and_growth() {
        let mut t = ShadowTable::new();
        // 1000 pages force several grow() rounds.
        for i in 0..1000u64 {
            let addr = i * PAGE_CELLS as u64;
            t.cell(addr).suspicions = 1 + (i % 250) as u8;
        }
        assert_eq!(t.page_count(), 1000);
        for i in 0..1000u64 {
            let addr = i * PAGE_CELLS as u64;
            assert_eq!(
                t.get(addr).unwrap().suspicions,
                1 + (i % 250) as u8,
                "page {i} lost"
            );
        }
        assert_eq!(t.counts(), (1000, 0));
        assert!(t.resident_bytes() > 1000 * PAGE_CELLS * std::mem::size_of::<ShadowCell>());
    }

    #[test]
    fn adversarial_page_numbers_collide_safely() {
        // Same low bits, same mixed prefix patterns.
        let mut t = ShadowTable::new();
        let pages = [0u64, 8, 16, 1 << 20, (1 << 20) + 8, 1 << 40, u64::MAX >> 7];
        for (i, p) in pages.iter().enumerate() {
            t.cell(p * PAGE_CELLS as u64).suspicions = i as u8 + 1;
        }
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(
                t.get(p * PAGE_CELLS as u64).unwrap().suspicions,
                i as u8 + 1
            );
        }
    }
}
