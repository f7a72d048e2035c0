//! Backing storage for page-table pages.
//!
//! The simulator does not materialise the contents of data pages (only their
//! placement matters), but page-table pages have semantic content: 512
//! entries each.  [`PtStore`] is the "physical memory" that holds them,
//! indexed by the frame the table lives in.
//!
//! # Layout
//!
//! `PtStore::read` sits on the innermost loop of the simulator — the
//! hardware walker calls it once per level for every TLB miss, millions of
//! times per experiment — so the store avoids hashing entirely:
//!
//! * table contents live in one contiguous **arena** of 512-word blocks
//!   indexed by slot.  A [`Pte`] is one 8-byte word, so each table takes
//!   exactly 4 KiB of host memory, there is no per-table allocation, and
//!   cloning the store copies the arena in one piece.  Slots are stable;
//!   freed slots are recycled through a free list and cleared when reused;
//! * a **two-level radix directory** maps a frame number to its slot in two
//!   array dereferences: `dir[pfn >> 12][pfn & 0xfff]`;
//! * each slot carries a 512-bit **occupancy bitmap** mirroring which
//!   entries are present, so enumerating or counting present entries
//!   (replication, OR-consolidation, page-table dumps) is popcount-driven
//!   and allocation-free instead of a 512-entry scan.  Owners and bitmaps
//!   live beside the arena, so a walk's entry read touches only the arena.
//!
//! Callers that access the same table repeatedly can resolve the frame to a
//! [`PtSlot`] handle once and use the `*_at` accessors, skipping the
//! directory on subsequent accesses.
//!
//! # Sharing
//!
//! Each entry word is an [`AtomicU64`], still 8 bytes.  Every mutator takes
//! `&mut self` and writes through [`AtomicU64::get_mut`], except one: the
//! hardware walker's accessed/dirty update, [`PtStore::mark_accessed_at`],
//! is a `fetch_or` through `&self` — the locked A/D update of an x86 page
//! walker.  Reads are `Relaxed` loads, plain loads on x86.  So concurrent
//! walkers can share one `&PtStore`, which is how a live run sharded across
//! socket-disjoint replicas walks them without copying the tables.

use crate::addr::{Level, VirtAddr, ENTRIES_PER_TABLE};
use crate::entry::Pte;
use mitosis_mem::FrameId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of directory entries per second-level chunk (covers 4096 frames,
/// i.e. 16 MiB of physical memory per chunk).
const DIR_FANOUT: usize = 1 << DIR_SHIFT;
const DIR_SHIFT: u32 = 12;

/// Sentinel directory entry: this frame holds no page-table page.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel owner for recycled slots.
const FREE_PFN: u64 = u64::MAX;

/// Number of 64-bit words in a 512-bit occupancy bitmap.
const OCC_WORDS: usize = ENTRIES_PER_TABLE / 64;

/// A resolved handle to one stored page-table page.
///
/// Obtained from [`PtStore::slot`] / [`PtStore::slot_of`]; valid until the
/// table is removed from the store.  Using a stale handle reads whatever
/// table was recycled into the slot — handles are a hot-path optimisation,
/// not a stability guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtSlot(u32);

/// The entry words of one page-table page.
type Table = [AtomicU64; ENTRIES_PER_TABLE];

/// A table of empty entries.
fn empty_table() -> Table {
    [const { AtomicU64::new(0) }; ENTRIES_PER_TABLE]
}

/// Bookkeeping of one arena slot: its owner and its occupancy bitmap.
#[derive(Debug, Clone)]
struct SlotMeta {
    /// Frame number owning this slot, or [`FREE_PFN`] for recycled slots.
    pfn: u64,
    occupancy: [u64; OCC_WORDS],
}

/// Storage for the contents of every allocated page-table page.
///
/// # Example
///
/// ```
/// use mitosis_mem::FrameId;
/// use mitosis_pt::{Pte, PteFlags, PtStore};
///
/// let mut store = PtStore::new();
/// store.insert_table(FrameId::new(100));
/// store.write(FrameId::new(100), 3, Pte::new(FrameId::new(7), PteFlags::user_data()));
/// assert!(store.read(FrameId::new(100), 3).is_present());
/// ```
#[derive(Debug, Default)]
pub struct PtStore {
    /// Table contents, indexed by slot.
    tables: Vec<Table>,
    /// Owner and occupancy of each slot, indexed like `tables`.
    slots: Vec<SlotMeta>,
    free: Vec<u32>,
    dir: Vec<Option<Box<[u32; DIR_FANOUT]>>>,
    live: usize,
    /// Identity of the current contents (see [`PtStore::content_id`]): 0
    /// until asked for, reset to 0 by every `&mut` mutation, copied by
    /// `Clone`.
    content: AtomicU64,
}

/// Source of fresh [`PtStore::content_id`]s, unique within the process.
static NEXT_CONTENT_ID: AtomicU64 = AtomicU64::new(1);

impl Clone for PtStore {
    fn clone(&self) -> Self {
        PtStore {
            tables: self
                .tables
                .iter()
                .map(|table| {
                    std::array::from_fn(|index| {
                        AtomicU64::new(table[index].load(Ordering::Relaxed))
                    })
                })
                .collect(),
            slots: self.slots.clone(),
            free: self.free.clone(),
            dir: self.dir.clone(),
            live: self.live,
            content: AtomicU64::new(self.content_id()),
        }
    }
}

impl PtStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PtStore::default()
    }

    #[inline]
    fn slot_index(&self, pfn: u64) -> u32 {
        match self.dir.get((pfn >> DIR_SHIFT) as usize) {
            Some(Some(chunk)) => chunk[pfn as usize & (DIR_FANOUT - 1)],
            _ => NO_SLOT,
        }
    }

    #[inline]
    fn resolve(&self, frame: FrameId) -> u32 {
        let slot = self.slot_index(frame.pfn());
        if slot == NO_SLOT {
            panic!("{frame} is not a page-table page");
        }
        slot
    }

    /// Resolves `frame` to a slot handle for repeated access.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    #[inline]
    pub fn slot(&self, frame: FrameId) -> PtSlot {
        PtSlot(self.resolve(frame))
    }

    /// Resolves `frame` to a slot handle, or `None` if it holds no table.
    #[inline]
    pub fn slot_of(&self, frame: FrameId) -> Option<PtSlot> {
        match self.slot_index(frame.pfn()) {
            NO_SLOT => None,
            slot => Some(PtSlot(slot)),
        }
    }

    /// Registers `frame` as a page-table page with all entries empty.
    ///
    /// Re-inserting an existing table clears it (matching the kernel zeroing
    /// freshly allocated page-table pages).
    pub fn insert_table(&mut self, frame: FrameId) {
        self.mutated();
        let pfn = frame.pfn();
        if let Some(existing) = self.slot_of(frame) {
            self.clear(existing.0);
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.clear(slot);
                self.slots[slot as usize].pfn = pfn;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count fits in u32");
                self.tables.push(empty_table());
                self.slots.push(SlotMeta {
                    pfn,
                    occupancy: [0; OCC_WORDS],
                });
                slot
            }
        };
        let top = (pfn >> DIR_SHIFT) as usize;
        if top >= self.dir.len() {
            self.dir.resize_with(top + 1, || None);
        }
        let chunk = self.dir[top].get_or_insert_with(|| Box::new([NO_SLOT; DIR_FANOUT]));
        chunk[pfn as usize & (DIR_FANOUT - 1)] = slot;
        self.live += 1;
    }

    fn clear(&mut self, slot: u32) {
        for word in &mut self.tables[slot as usize] {
            *word.get_mut() = Pte::EMPTY.to_word();
        }
        self.slots[slot as usize].occupancy = [0; OCC_WORDS];
    }

    /// Removes a page-table page from the store.
    pub fn remove_table(&mut self, frame: FrameId) {
        self.mutated();
        let pfn = frame.pfn();
        let top = (pfn >> DIR_SHIFT) as usize;
        let Some(Some(chunk)) = self.dir.get_mut(top) else {
            return;
        };
        let entry = &mut chunk[pfn as usize & (DIR_FANOUT - 1)];
        if *entry == NO_SLOT {
            return;
        }
        let slot = *entry;
        *entry = NO_SLOT;
        self.slots[slot as usize].pfn = FREE_PFN;
        self.free.push(slot);
        self.live -= 1;
    }

    /// An identity of the store's current contents, unique within the
    /// process: two stores with the same id hold the same tables with the
    /// same entries, up to accessed/dirty bits.  A clone shares its
    /// source's id; any `&mut` mutation gives the store a fresh one on the
    /// next call.  The walker's accessed/dirty update keeps the id, so a
    /// fact proven about presence and permissions — like the live-run
    /// sharding proof — may be cached under it.
    pub fn content_id(&self) -> u64 {
        let current = self.content.load(Ordering::Relaxed);
        if current != 0 {
            return current;
        }
        let fresh = NEXT_CONTENT_ID.fetch_add(1, Ordering::Relaxed);
        match self
            .content
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(raced) => raced,
        }
    }

    /// Forgets the content id: the next [`PtStore::content_id`] is fresh.
    #[inline]
    fn mutated(&mut self) {
        *self.content.get_mut() = 0;
    }

    /// Returns `true` if `frame` holds a page-table page.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.slot_index(frame.pfn()) != NO_SLOT
    }

    /// Number of page-table pages currently stored.
    pub fn table_count(&self) -> usize {
        self.live
    }

    /// Reads the entry at `index` of the table in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page or `index >= 512`.
    #[inline]
    pub fn read(&self, frame: FrameId, index: usize) -> Pte {
        self.read_at(PtSlot(self.resolve(frame)), index)
    }

    /// Writes the entry at `index` of the table in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page or `index >= 512`.
    #[inline]
    pub fn write(&mut self, frame: FrameId, index: usize, pte: Pte) {
        self.write_at(PtSlot(self.resolve(frame)), index, pte);
    }

    /// Reads the entry at `index` of the table behind `slot`.
    #[inline]
    pub fn read_at(&self, slot: PtSlot, index: usize) -> Pte {
        Pte::from_word(self.tables[slot.0 as usize][index].load(Ordering::Relaxed))
    }

    /// Writes the entry at `index` of the table behind `slot`.
    #[inline]
    pub fn write_at(&mut self, slot: PtSlot, index: usize, pte: Pte) {
        self.mutated();
        *self.tables[slot.0 as usize][index].get_mut() = pte.to_word();
        let word = &mut self.slots[slot.0 as usize].occupancy[index >> 6];
        let bit = 1u64 << (index & 63);
        if pte.is_present() {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Sets the accessed bit — and the dirty bit too when `dirty` — of the
    /// entry at `index` of the table behind `slot`, through a shared
    /// reference: one atomic `fetch_or`, like the locked A/D update of an
    /// x86 page walker.  Presence is untouched, so the occupancy bitmap
    /// needs no update.  Walkers racing on one entry both land their bits.
    #[inline]
    pub fn mark_accessed_at(&self, slot: PtSlot, index: usize, dirty: bool) {
        let bits = Pte::EMPTY.with_accessed();
        let bits = if dirty { bits.with_dirty() } else { bits };
        self.tables[slot.0 as usize][index].fetch_or(bits.to_word(), Ordering::Relaxed);
    }

    /// Iterates the present entries of the table behind `slot` as
    /// `(index, pte)` pairs in ascending index order, without allocating:
    /// the occupancy bitmap drives the iteration, so empty stretches of the
    /// table cost one popcount instead of 64 reads.
    pub fn present_at(&self, slot: PtSlot) -> impl Iterator<Item = (usize, Pte)> + '_ {
        self.present_indices(slot)
            .map(move |index| (index, self.read_at(slot, index)))
    }

    /// The indices of the present entries of the table behind `slot`, in
    /// ascending order, as they were when the iterator was created: it
    /// walks a copy of the occupancy bitmap and does not borrow the store,
    /// so a caller may rewrite entries while iterating.
    pub(crate) fn present_indices(&self, slot: PtSlot) -> impl Iterator<Item = usize> {
        let occupancy = self.slots[slot.0 as usize].occupancy;
        (0..OCC_WORDS).flat_map(move |word_index| {
            std::iter::successors(Some(occupancy[word_index]).filter(|w| *w != 0), |w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| (word_index << 6) | w.trailing_zeros() as usize)
        })
    }

    /// Iterates over the present entries of the table in `frame` as
    /// `(index, pte)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    pub fn present_entries(&self, frame: FrameId) -> Vec<(usize, Pte)> {
        self.present_at(self.slot(frame)).collect()
    }

    /// Number of present entries in the table in `frame`, by popcount.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    pub fn present_count(&self, frame: FrameId) -> usize {
        self.slots[self.resolve(frame) as usize]
            .occupancy
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Clones only the page-table subtrees reachable from `roots` that can
    /// serve a translation for one of the half-open virtual-address
    /// `ranges`.
    ///
    /// This is the partial-snapshot path: a replay lane group whose accesses
    /// provably stay inside a few VA ranges only ever walks the tables on
    /// those paths, so cloning the rest of the store (other sockets' replica
    /// trees, unrelated regions) is wasted work.  Each visited table is
    /// copied in full — sibling entries are cheap and keeping them makes the
    /// copy independent of entry-granular range math — but child tables
    /// whose span misses every range are not descended into.
    ///
    /// Walking a sliced store outside the declared ranges finds no table and
    /// panics like any unmapped-table access; callers (the grouped replay
    /// driver) rely on worker panic isolation plus the demand-fault re-run
    /// to recover from an undersized slice, so the slice is an optimisation,
    /// never a correctness commitment.
    pub fn clone_reachable(&self, roots: &[FrameId], ranges: &[(VirtAddr, VirtAddr)]) -> PtStore {
        let mut out = PtStore::new();
        for &root in roots {
            self.copy_subtree(root, Level::L4, 0, ranges, &mut out);
        }
        out
    }

    fn copy_subtree(
        &self,
        frame: FrameId,
        level: Level,
        base: u64,
        ranges: &[(VirtAddr, VirtAddr)],
        out: &mut PtStore,
    ) {
        if out.contains(frame) {
            return; // shared between roots (non-replicated trees)
        }
        let Some(slot) = self.slot_of(frame) else {
            return;
        };
        out.insert_table(frame);
        let out_slot = out.slot(frame);
        for (index, pte) in self.present_at(slot) {
            out.write_at(out_slot, index, pte);
        }
        let Some(lower) = level.next_lower() else {
            return;
        };
        for (index, pte) in self.present_at(slot) {
            if pte.is_huge() {
                continue; // leaf at this level, nothing below
            }
            // Plain integers: the span of the last L4 entry ends at 2^48,
            // one past the largest virtual address.
            let span_start = base + index as u64 * level.entry_coverage();
            let span_end = span_start + level.entry_coverage();
            let wanted = ranges
                .iter()
                .any(|(start, end)| start.as_u64() < span_end && span_start < end.as_u64());
            if wanted {
                if let Some(child) = pte.frame() {
                    self.copy_subtree(child, lower, span_start, ranges, out);
                }
            }
        }
    }

    /// Host bytes the store holds for its tables: the entry arena, the
    /// per-slot owners and bitmaps, the free list and the directory.  The
    /// figure counts lengths, not allocator capacity, so it is a
    /// deterministic function of the operations applied.
    pub fn host_bytes(&self) -> usize {
        use std::mem::size_of;
        let chunks = self.dir.iter().flatten().count();
        self.tables.len() * size_of::<Table>()
            + self.slots.len() * size_of::<SlotMeta>()
            + self.free.len() * size_of::<u32>()
            + self.dir.len() * size_of::<Option<Box<[u32; DIR_FANOUT]>>>()
            + chunks * size_of::<[u32; DIR_FANOUT]>()
    }

    /// Checks that the tree rooted at `root` maps every 4 KiB page of the
    /// half-open range `[start, end)` — writable too when `writable` — and
    /// that `table_ok` accepts every table the walk to those pages reads.
    ///
    /// This is the no-fault half of the live-run sharding proof: a walker
    /// over a range the check accepted cannot fault.  It descends only the
    /// entries overlapping the range, so a fully mapped range costs one
    /// read per leaf entry.  An empty range is trivially covered.
    pub fn covers_range(
        &self,
        root: FrameId,
        start: VirtAddr,
        end: VirtAddr,
        writable: bool,
        table_ok: &mut impl FnMut(FrameId) -> bool,
    ) -> bool {
        start.as_u64() >= end.as_u64()
            || self.covers_subtree(
                root,
                Level::L4,
                0,
                (start.as_u64(), end.as_u64()),
                writable,
                table_ok,
            )
    }

    fn covers_subtree(
        &self,
        table: FrameId,
        level: Level,
        base: u64,
        (start, end): (u64, u64),
        writable: bool,
        table_ok: &mut impl FnMut(FrameId) -> bool,
    ) -> bool {
        let Some(slot) = self.slot_of(table) else {
            return false;
        };
        if !table_ok(table) {
            return false;
        }
        let coverage = level.entry_coverage();
        let first = ((start.max(base) - base) / coverage) as usize;
        let last = (((end - 1 - base) / coverage) as usize).min(ENTRIES_PER_TABLE - 1);
        let leaf_ok = |pte: Pte| pte.is_present() && (!writable || pte.is_writable());
        if level == Level::L1 {
            // The bulk of the check: one load and mask per leaf entry.
            return self.tables[slot.0 as usize][first..=last]
                .iter()
                .all(|word| leaf_ok(Pte::from_word(word.load(Ordering::Relaxed))));
        }
        (first..=last).all(|index| {
            let index = index as u64;
            let pte = self.read_at(slot, index as usize);
            if !pte.is_present() {
                return false;
            }
            if pte.is_huge() {
                return level != Level::L4 && leaf_ok(pte);
            }
            match (pte.frame(), level.next_lower()) {
                (Some(child), Some(lower)) => self.covers_subtree(
                    child,
                    lower,
                    base + index * coverage,
                    (start, end),
                    writable,
                    table_ok,
                ),
                _ => false,
            }
        })
    }

    /// Iterates over all page-table frames currently stored.
    pub fn table_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.pfn != FREE_PFN)
            .map(|slot| FrameId::new(slot.pfn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PteFlags;

    #[test]
    fn fresh_tables_are_empty() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        assert_eq!(store.present_count(FrameId::new(1)), 0);
        assert!(!store.read(FrameId::new(1), 0).is_present());
        assert!(store.contains(FrameId::new(1)));
        assert_eq!(store.table_count(), 1);
    }

    #[test]
    fn writes_are_readable_and_enumerable() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        let pte = Pte::new(FrameId::new(99), PteFlags::user_data());
        store.write(FrameId::new(1), 511, pte);
        store.write(FrameId::new(1), 0, pte);
        assert_eq!(store.read(FrameId::new(1), 511), pte);
        let entries = store.present_entries(FrameId::new(1));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[1].0, 511);
    }

    #[test]
    fn reinserting_clears_the_table() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        store.write(
            FrameId::new(1),
            5,
            Pte::new(FrameId::new(3), PteFlags::user_data()),
        );
        store.insert_table(FrameId::new(1));
        assert_eq!(store.present_count(FrameId::new(1)), 0);
    }

    #[test]
    fn remove_table_forgets_contents() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(2));
        store.remove_table(FrameId::new(2));
        assert!(!store.contains(FrameId::new(2)));
        assert_eq!(store.table_count(), 0);
        // Removing twice (or a never-inserted frame) is a no-op.
        store.remove_table(FrameId::new(2));
        store.remove_table(FrameId::new(777));
    }

    #[test]
    #[should_panic(expected = "is not a page-table page")]
    fn reading_unknown_table_panics() {
        let store = PtStore::new();
        let _ = store.read(FrameId::new(9), 0);
    }

    #[test]
    fn recycled_slots_start_clean() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(10));
        store.write(
            FrameId::new(10),
            100,
            Pte::new(FrameId::new(1), PteFlags::user_data()),
        );
        store.remove_table(FrameId::new(10));
        // A different frame recycles the slot; it must not see old contents.
        store.insert_table(FrameId::new(20));
        assert_eq!(store.present_count(FrameId::new(20)), 0);
        assert!(!store.read(FrameId::new(20), 100).is_present());
        assert!(!store.contains(FrameId::new(10)));
    }

    #[test]
    fn occupancy_tracks_overwrites_and_clears() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        let pte = Pte::new(FrameId::new(50), PteFlags::user_data());
        store.write(FrameId::new(1), 63, pte);
        store.write(FrameId::new(1), 64, pte);
        store.write(FrameId::new(1), 63, pte); // overwrite present with present
        assert_eq!(store.present_count(FrameId::new(1)), 2);
        store.write(FrameId::new(1), 63, Pte::EMPTY);
        assert_eq!(store.present_count(FrameId::new(1)), 1);
        assert_eq!(store.present_entries(FrameId::new(1)), vec![(64, pte)]);
    }

    #[test]
    fn slot_handles_read_and_write() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(4097)); // second directory chunk
        let slot = store.slot(FrameId::new(4097));
        let pte = Pte::new(FrameId::new(8), PteFlags::user_data());
        store.write_at(slot, 7, pte);
        assert_eq!(store.read_at(slot, 7), pte);
        assert_eq!(store.read(FrameId::new(4097), 7), pte);
        assert!(store.slot_of(FrameId::new(4096)).is_none());
        assert_eq!(store.slot_of(FrameId::new(4097)), Some(slot));
    }

    #[test]
    fn present_iteration_is_dense_and_ordered() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(3));
        let pte = Pte::new(FrameId::new(77), PteFlags::user_data());
        let indices = [0usize, 1, 63, 64, 127, 255, 256, 510, 511];
        for index in indices.iter().rev() {
            store.write(FrameId::new(3), *index, pte);
        }
        let seen: Vec<usize> = store
            .present_at(store.slot(FrameId::new(3)))
            .map(|(index, entry)| {
                assert_eq!(entry, pte);
                index
            })
            .collect();
        assert_eq!(seen, indices);
    }

    #[test]
    fn clone_reachable_slices_by_va_range() {
        use crate::addr::{Level, VirtAddr};
        // Two translation paths: VA 0 and VA at the second L2 entry span
        // (2 MiB * 512 = 1 GiB apart at L3, so they share L4+L3 but use
        // distinct L2 subtrees).
        let mut store = PtStore::new();
        let root = FrameId::new(1);
        let l3 = FrameId::new(2);
        let (l2_a, l1_a) = (FrameId::new(3), FrameId::new(4));
        let (l2_b, l1_b) = (FrameId::new(5), FrameId::new(6));
        for f in [root, l3, l2_a, l1_a, l2_b, l1_b] {
            store.insert_table(f);
        }
        let table = |f: FrameId| Pte::new(f, PteFlags::table_pointer());
        let va_a = VirtAddr::new(0);
        let va_b = VirtAddr::new(Level::L3.entry_coverage()); // second L3 entry
        store.write(root, va_a.index_at(Level::L4), table(l3));
        store.write(l3, va_a.index_at(Level::L3), table(l2_a));
        store.write(l2_a, va_a.index_at(Level::L2), table(l1_a));
        store.write(
            l1_a,
            va_a.index_at(Level::L1),
            Pte::new(FrameId::new(100), PteFlags::user_data()),
        );
        store.write(l3, va_b.index_at(Level::L3), table(l2_b));
        store.write(l2_b, va_b.index_at(Level::L2), table(l1_b));
        store.write(
            l1_b,
            va_b.index_at(Level::L1),
            Pte::new(FrameId::new(200), PteFlags::user_data()),
        );

        // Slice covering only the first path.
        let slice = store.clone_reachable(&[root], &[(va_a, va_a.add(4096))]);
        assert!(slice.contains(root) && slice.contains(l3));
        assert!(slice.contains(l2_a) && slice.contains(l1_a));
        assert!(!slice.contains(l2_b) && !slice.contains(l1_b));
        assert_eq!(
            slice.read(l1_a, va_a.index_at(Level::L1)).frame(),
            Some(FrameId::new(100))
        );
        // Visited tables are copied in full: the L3 entry pointing into the
        // un-cloned subtree is still present, its target just isn't stored.
        assert!(slice.read(l3, va_b.index_at(Level::L3)).is_present());

        // A slice covering both paths copies everything reachable.
        let both =
            store.clone_reachable(&[root], &[(va_a, va_a.add(4096)), (va_b, va_b.add(4096))]);
        assert_eq!(both.table_count(), 6);
    }

    #[test]
    fn clone_reachable_covers_the_last_l4_entry() {
        use crate::addr::{Level, VirtAddr};
        let mut store = PtStore::new();
        let (root, l3) = (FrameId::new(1), FrameId::new(2));
        store.insert_table(root);
        store.insert_table(l3);
        store.write(root, 511, Pte::new(l3, PteFlags::table_pointer()));
        let top = VirtAddr::new((1 << 48) - Level::L3.entry_coverage());
        let slice = store.clone_reachable(&[root], &[(top, top.add(4096))]);
        assert!(slice.contains(l3));
    }

    #[test]
    fn host_bytes_are_four_kib_per_table_plus_bookkeeping() {
        let mut store = PtStore::new();
        let empty = store.host_bytes();
        for pfn in 0..64u64 {
            store.insert_table(FrameId::new(pfn));
        }
        let chunk = std::mem::size_of::<[u32; DIR_FANOUT]>();
        let per_table = (store.host_bytes() - empty - chunk) / 64;
        assert_eq!(per_table, 4096 + std::mem::size_of::<SlotMeta>());
        // Removing a table keeps its arena block for reuse; the free list
        // grows by one slot index, and recycling it adds nothing.
        let before = store.host_bytes();
        store.remove_table(FrameId::new(3));
        assert_eq!(store.host_bytes(), before + 4);
        store.insert_table(FrameId::new(100));
        assert_eq!(store.host_bytes(), before);
        // A clone holds the same tables in the same bytes.
        assert_eq!(store.clone().host_bytes(), before);
    }

    #[test]
    fn content_id_follows_mutations_not_accessed_bits() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        let pte = Pte::new(FrameId::new(9), PteFlags::user_data());
        store.write(FrameId::new(1), 4, pte);
        let id = store.content_id();
        assert_eq!(store.content_id(), id, "the id is stable while unchanged");
        let clone = store.clone();
        assert_eq!(clone.content_id(), id, "a clone shares the id");
        store.mark_accessed_at(store.slot(FrameId::new(1)), 4, true);
        assert_eq!(store.content_id(), id, "accessed/dirty updates keep it");
        store.write(FrameId::new(1), 5, pte);
        let written = store.content_id();
        assert_ne!(written, id, "a write gives a fresh id");
        assert_eq!(clone.content_id(), id, "the clone keeps its own");
        store.insert_table(FrameId::new(2));
        assert_ne!(store.content_id(), written);
        let inserted = store.content_id();
        store.remove_table(FrameId::new(2));
        assert_ne!(store.content_id(), inserted);
        assert_ne!(PtStore::new().content_id(), PtStore::new().content_id());
    }

    #[test]
    fn covers_range_checks_presence_permission_and_placement() {
        use crate::addr::{Level, VirtAddr};
        let mut store = PtStore::new();
        let (root, l3, l2, l1) = (
            FrameId::new(1),
            FrameId::new(2),
            FrameId::new(3),
            FrameId::new(4),
        );
        for f in [root, l3, l2, l1] {
            store.insert_table(f);
        }
        let table = |f: FrameId| Pte::new(f, PteFlags::table_pointer());
        let base = VirtAddr::new(Level::L2.entry_coverage());
        store.write(root, base.index_at(Level::L4), table(l3));
        store.write(l3, base.index_at(Level::L3), table(l2));
        store.write(l2, base.index_at(Level::L2), table(l1));
        for page in 0..4u64 {
            let addr = base.add(page * 4096);
            store.write(
                l1,
                addr.index_at(Level::L1),
                Pte::new(FrameId::new(100 + page), PteFlags::user_data()),
            );
        }
        // A 2 MiB leaf right after the 4 KiB table's span.
        let huge = base.add(Level::L2.entry_coverage());
        store.write(
            l2,
            huge.index_at(Level::L2),
            Pte::leaf(
                FrameId::new(512),
                crate::addr::PageSize::Huge2M,
                PteFlags::user_readonly(),
            ),
        );
        let any = &mut |_: FrameId| true;
        assert!(store.covers_range(root, base, base.add(4 * 4096), true, any));
        assert!(!store.covers_range(root, base, base.add(5 * 4096), false, any));
        assert!(store.covers_range(root, base.add(4096), base.add(4096), true, any));
        // The huge leaf covers reads, not writes.
        let huge_end = huge.add(Level::L2.entry_coverage());
        assert!(store.covers_range(root, huge, huge_end, false, any));
        assert!(!store.covers_range(root, huge, huge_end, true, any));
        // A rejected table fails the check.
        assert!(!store.covers_range(root, base, base.add(4096), false, &mut |t| t != l1));
        store.write(
            l1,
            base.add(4096).index_at(Level::L1),
            Pte::new(FrameId::new(101), PteFlags::user_readonly()),
        );
        assert!(store.covers_range(root, base, base.add(4 * 4096), false, any));
        assert!(!store.covers_range(root, base, base.add(4 * 4096), true, any));
    }

    #[test]
    fn table_frames_lists_live_tables_only() {
        let mut store = PtStore::new();
        for pfn in [5u64, 6, 7] {
            store.insert_table(FrameId::new(pfn));
        }
        store.remove_table(FrameId::new(6));
        let mut frames: Vec<u64> = store.table_frames().map(|f| f.pfn()).collect();
        frames.sort_unstable();
        assert_eq!(frames, vec![5, 7]);
    }
}
