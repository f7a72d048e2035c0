//! Per-frame metadata — the simulator's `struct page`.
//!
//! Linux keeps a `struct page` for every physical frame; Mitosis augments it
//! with a pointer that threads all replicas of a page-table page into a
//! circular linked list (paper §5.2, Figure 8).  That list is what allows an
//! update intercepted at the PV-Ops layer to reach every replica in 2N memory
//! references instead of walking N page-tables.
//!
//! The table is backed by a slot slab plus a two-level directory indexed by
//! frame number — the same handle trick `PtStore` uses for page-table pages —
//! instead of a hash map.  Lookups hash nothing, replica-ring hops are two
//! array indexations, and because the directory is ordered by frame number
//! the table can be *range-sliced*: partial replay snapshots clone only the
//! frame ranges a lane group can touch via [`FrameTable::clone_ranges`].

use crate::frame::{FrameId, FrameRange, FrameSpace};
use mitosis_numa::SocketId;

/// What a physical frame is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// An application data frame.
    Data,
    /// A page-table page at the given level (1 = leaf/PTE level, 4 = root).
    PageTable {
        /// Radix-tree level of the page-table page (1..=4).
        level: u8,
    },
}

/// Metadata kept for one allocated physical frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMeta {
    kind: FrameKind,
    /// Next frame in the circular list of replicas of the same logical
    /// page-table page.  `None` when the page is not replicated.
    replica_next: Option<FrameId>,
}

impl PageMeta {
    /// Creates metadata for a freshly allocated frame.
    pub fn new(kind: FrameKind) -> Self {
        PageMeta {
            kind,
            replica_next: None,
        }
    }

    /// The frame's current use.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The next replica in the circular list, if the page is replicated.
    pub fn replica_next(&self) -> Option<FrameId> {
        self.replica_next
    }
}

/// Frames per directory chunk (and the shift that selects the chunk).
const DIR_SHIFT: u32 = 12;
const CHUNK_FRAMES: usize = 1 << DIR_SHIFT;
/// Directory sentinel: "this frame has no slot".
const NO_SLOT: u32 = u32::MAX;

/// The machine-wide table of per-frame metadata.
///
/// Only allocated frames have entries; on a half-terabyte machine eagerly
/// materialising 128 M `struct page`s would be wasteful for a simulator.
/// Entries live in a slab (`slots`) reached through a two-level directory
/// (`dir[pfn >> 12][pfn & 0xfff]`), so lookup, insert and remove are O(1)
/// without hashing and iteration runs in frame-number order.
///
/// # Example
///
/// ```
/// use mitosis_mem::{FrameId, FrameKind, FrameSpace, FrameTable};
///
/// let space = FrameSpace::with_frames_per_socket(2, 1024);
/// let mut table = FrameTable::new(space);
/// table.insert(FrameId::new(3), FrameKind::PageTable { level: 1 });
/// assert_eq!(table.kind(FrameId::new(3)), Some(FrameKind::PageTable { level: 1 }));
/// ```
#[derive(Debug, Clone)]
pub struct FrameTable {
    space: FrameSpace,
    /// Metadata slab; freed slots are kept on `free` and identified by
    /// `NO_SLOT` directory entries, so a free slot's contents are stale and
    /// never read.
    slots: Vec<PageMeta>,
    free: Vec<u32>,
    dir: Vec<Option<Box<[u32; CHUNK_FRAMES]>>>,
    len: usize,
}

impl FrameTable {
    /// Creates an empty frame table over the given frame space.
    pub fn new(space: FrameSpace) -> Self {
        FrameTable {
            space,
            slots: Vec::new(),
            free: Vec::new(),
            dir: Vec::new(),
            len: 0,
        }
    }

    /// The frame space this table describes.
    pub fn frame_space(&self) -> &FrameSpace {
        &self.space
    }

    fn slot_of(&self, frame: FrameId) -> Option<u32> {
        let chunk = (frame.pfn() >> DIR_SHIFT) as usize;
        let slot = *self
            .dir
            .get(chunk)?
            .as_ref()?
            .get(frame.pfn() as usize & (CHUNK_FRAMES - 1))?;
        (slot != NO_SLOT).then_some(slot)
    }

    fn dir_entry_mut(&mut self, frame: FrameId) -> &mut u32 {
        let chunk = (frame.pfn() >> DIR_SHIFT) as usize;
        if chunk >= self.dir.len() {
            self.dir.resize(chunk + 1, None);
        }
        let chunk = self.dir[chunk].get_or_insert_with(|| Box::new([NO_SLOT; CHUNK_FRAMES]));
        &mut chunk[frame.pfn() as usize & (CHUNK_FRAMES - 1)]
    }

    /// Places `meta` for `frame`, creating or replacing its slot.
    fn insert_meta(&mut self, frame: FrameId, meta: PageMeta) {
        match self.slot_of(frame) {
            Some(slot) => self.slots[slot as usize] = meta,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize] = meta;
                        slot
                    }
                    None => {
                        self.slots.push(meta);
                        (self.slots.len() - 1) as u32
                    }
                };
                *self.dir_entry_mut(frame) = slot;
                self.len += 1;
            }
        }
    }

    /// Records metadata for a newly allocated frame, replacing any previous
    /// entry.
    pub fn insert(&mut self, frame: FrameId, kind: FrameKind) {
        self.insert_meta(frame, PageMeta::new(kind));
    }

    /// Removes the metadata of a freed frame and returns it.
    pub fn remove(&mut self, frame: FrameId) -> Option<PageMeta> {
        let slot = self.slot_of(frame)?;
        *self.dir_entry_mut(frame) = NO_SLOT;
        self.free.push(slot);
        self.len -= 1;
        Some(self.slots[slot as usize].clone())
    }

    /// Returns the metadata of a frame, if the frame is tracked.
    pub fn get(&self, frame: FrameId) -> Option<&PageMeta> {
        self.slot_of(frame).map(|s| &self.slots[s as usize])
    }

    fn get_mut(&mut self, frame: FrameId) -> Option<&mut PageMeta> {
        self.slot_of(frame).map(|s| &mut self.slots[s as usize])
    }

    /// Returns the use of a frame, if tracked.
    pub fn kind(&self, frame: FrameId) -> Option<FrameKind> {
        self.get(frame).map(|m| m.kind)
    }

    /// Returns the socket that owns a frame (derived from the frame space).
    pub fn socket_of(&self, frame: FrameId) -> SocketId {
        self.space.socket_of(frame)
    }

    /// Number of tracked frames.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no frame is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over tracked frames in `range`, in frame-number order.
    pub fn iter_range(&self, range: FrameRange) -> impl Iterator<Item = (FrameId, &PageMeta)> {
        let start = range.start.pfn();
        let end = range.end.pfn();
        (start >> DIR_SHIFT..=end.saturating_sub(1) >> DIR_SHIFT)
            .filter_map(move |chunk| {
                let entries = self.dir.get(chunk as usize)?.as_ref()?;
                Some((chunk, entries))
            })
            .flat_map(move |(chunk, entries)| {
                entries
                    .iter()
                    .enumerate()
                    .filter(|(_, slot)| **slot != NO_SLOT)
                    .map(move |(i, slot)| {
                        (
                            FrameId::new((chunk << DIR_SHIFT) + i as u64),
                            &self.slots[*slot as usize],
                        )
                    })
                    .filter(move |(frame, _)| frame.pfn() >= start && frame.pfn() < end)
            })
    }

    /// Clones only the entries whose frames fall in one of `ranges` — the
    /// partial-snapshot path: a lane group that provably touches only a few
    /// frame ranges gets a table holding just those, at a cost proportional
    /// to the slice instead of the whole machine.
    ///
    /// Replica links are copied as-is; ring members outside `ranges` are
    /// simply absent from the slice, so ring walks on a sliced table are only
    /// meaningful for rings fully contained in the cloned ranges.  Partial
    /// replay snapshots guarantee this by construction: runs that could
    /// consult a ring (demand faults, replication events) fall back to a full
    /// clone.
    pub fn clone_ranges(&self, ranges: &[FrameRange]) -> FrameTable {
        let mut out = FrameTable::new(self.space.clone());
        for range in ranges {
            for (frame, meta) in self.iter_range(*range) {
                out.insert_meta(frame, meta.clone());
            }
        }
        out
    }

    /// Number of tracked frames of a given kind on a given socket.
    pub fn count_on_socket(&self, socket: SocketId, kind: FrameKind) -> usize {
        self.iter_range(self.space.range_of(socket))
            .filter(|(_, meta)| meta.kind == kind)
            .count()
    }

    // --- Replica ring management (paper §5.2, Figure 8) -------------------

    /// Links `frames` into a circular replica list.  Each frame's
    /// `replica_next` points to the next frame, and the last points back to
    /// the first.  A single frame forms a self-loop, which is treated as
    /// "not replicated" by [`Self::replica_ring`].
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or if any frame is untracked.
    pub fn link_replicas(&mut self, frames: &[FrameId]) {
        assert!(!frames.is_empty(), "cannot link an empty replica set");
        for (i, &frame) in frames.iter().enumerate() {
            let next = frames[(i + 1) % frames.len()];
            let meta = self.get_mut(frame).expect("replica frame must be tracked");
            meta.replica_next = if frames.len() == 1 { None } else { Some(next) };
        }
    }

    /// Removes `frame` from its replica ring, patching the ring around it.
    /// Returns the remaining ring members (excluding `frame`).
    pub fn unlink_replica(&mut self, frame: FrameId) -> Vec<FrameId> {
        let remaining: Vec<FrameId> = self.replica_ring(frame).filter(|f| *f != frame).collect();
        if let Some(meta) = self.get_mut(frame) {
            meta.replica_next = None;
        }
        if !remaining.is_empty() {
            self.link_replicas(&remaining);
        }
        remaining
    }

    /// Walks `frame`'s replica ring without allocating, starting with
    /// `frame` itself and following `replica_next` until the ring closes.
    /// A non-replicated frame yields just `frame`.
    ///
    /// The iterator borrows the table, so a caller that changes the ring
    /// while walking it collects the members first.
    ///
    /// # Panics
    ///
    /// The iterator panics if the ring runs past 64 members without
    /// returning to `frame` (a corrupted ring).
    pub fn replica_ring(&self, frame: FrameId) -> impl Iterator<Item = FrameId> + '_ {
        let mut hops = 0;
        std::iter::successors(Some(frame), move |&member| {
            let next = self
                .get(member)
                .and_then(|m| m.replica_next)
                .filter(|&next| next != frame)?;
            hops += 1;
            assert!(
                hops < 64,
                "replica ring longer than the maximum socket count; corrupted ring?"
            );
            Some(next)
        })
    }

    /// Returns the replica of `frame` that lives on `socket`, if any.
    pub fn replica_on_socket(&self, frame: FrameId, socket: SocketId) -> Option<FrameId> {
        self.replica_ring(frame)
            .find(|f| self.space.socket_of(*f) == socket)
    }

    /// Returns `true` if `frame` participates in a replica ring of more than
    /// one page.
    pub fn is_replicated(&self, frame: FrameId) -> bool {
        self.get(frame).and_then(|m| m.replica_next).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FrameTable {
        FrameTable::new(FrameSpace::with_frames_per_socket(4, 1000))
    }

    #[test]
    fn insert_get_remove() {
        let mut t = table();
        t.insert(FrameId::new(5), FrameKind::Data);
        assert_eq!(t.kind(FrameId::new(5)), Some(FrameKind::Data));
        assert_eq!(t.len(), 1);
        let meta = t.remove(FrameId::new(5)).unwrap();
        assert_eq!(meta.kind(), FrameKind::Data);
        assert!(t.is_empty());
        assert_eq!(t.kind(FrameId::new(5)), None);
    }

    #[test]
    fn reinsert_resets_replica_link() {
        let mut t = table();
        let frames = [FrameId::new(1), FrameId::new(1001)];
        for &f in &frames {
            t.insert(f, FrameKind::PageTable { level: 1 });
        }
        t.link_replicas(&frames);
        assert!(t.is_replicated(frames[0]));
        // Replacing an entry behaves like a fresh map insert: the old
        // metadata — including the ring link — is discarded.
        t.insert(frames[0], FrameKind::PageTable { level: 1 });
        assert!(!t.is_replicated(frames[0]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut t = table();
        for pfn in 0..100 {
            t.insert(FrameId::new(pfn), FrameKind::Data);
        }
        for pfn in 0..50 {
            t.remove(FrameId::new(pfn));
        }
        assert_eq!(t.len(), 50);
        for pfn in 2000..2050 {
            t.insert(FrameId::new(pfn), FrameKind::PageTable { level: 2 });
        }
        assert_eq!(t.len(), 100);
        for pfn in 50..100 {
            assert_eq!(t.kind(FrameId::new(pfn)), Some(FrameKind::Data));
        }
        for pfn in 2000..2050 {
            assert_eq!(
                t.kind(FrameId::new(pfn)),
                Some(FrameKind::PageTable { level: 2 })
            );
        }
    }

    #[test]
    fn clone_ranges_slices_by_frame_number() {
        let mut t = table();
        for pfn in [0u64, 500, 999, 1000, 1500, 2500, 3999] {
            t.insert(FrameId::new(pfn), FrameKind::Data);
        }
        let space = t.frame_space().clone();
        let slice = t.clone_ranges(&[space.range_of(SocketId::new(1))]);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.kind(FrameId::new(1000)), Some(FrameKind::Data));
        assert_eq!(slice.kind(FrameId::new(1500)), Some(FrameKind::Data));
        assert_eq!(slice.kind(FrameId::new(999)), None);
        assert_eq!(slice.kind(FrameId::new(2500)), None);

        let both = t.clone_ranges(&[
            space.range_of(SocketId::new(0)),
            space.range_of(SocketId::new(3)),
        ]);
        assert_eq!(both.len(), 4);
        assert_eq!(both.kind(FrameId::new(3999)), Some(FrameKind::Data));
    }

    #[test]
    fn clone_ranges_preserves_replica_links_inside_the_slice() {
        let mut t = table();
        let frames = [FrameId::new(10), FrameId::new(20)];
        for &f in &frames {
            t.insert(f, FrameKind::PageTable { level: 2 });
        }
        t.link_replicas(&frames);
        let slice = t.clone_ranges(&[FrameRange::new(FrameId::new(0), FrameId::new(100))]);
        assert!(slice.is_replicated(frames[0]));
        assert_eq!(slice.replica_ring(frames[0]).count(), 2);
    }

    #[test]
    fn replica_ring_links_all_members() {
        let mut t = table();
        // One page-table page replica per socket: frames 10, 1010, 2010, 3010.
        let frames: Vec<FrameId> = (0..4).map(|s| FrameId::new(s * 1000 + 10)).collect();
        for &f in &frames {
            t.insert(f, FrameKind::PageTable { level: 2 });
        }
        t.link_replicas(&frames);
        for &f in &frames {
            assert!(t.is_replicated(f));
            let ring: Vec<FrameId> = t.replica_ring(f).collect();
            assert_eq!(ring.len(), 4);
            assert_eq!(ring[0], f);
        }
        assert_eq!(
            t.replica_on_socket(frames[0], SocketId::new(2)),
            Some(frames[2])
        );
    }

    #[test]
    fn single_frame_ring_is_not_replicated() {
        let mut t = table();
        t.insert(FrameId::new(7), FrameKind::PageTable { level: 1 });
        t.link_replicas(&[FrameId::new(7)]);
        assert!(!t.is_replicated(FrameId::new(7)));
        assert!(t.replica_ring(FrameId::new(7)).eq([FrameId::new(7)]));
    }

    #[test]
    fn unlink_patches_the_ring() {
        let mut t = table();
        let frames: Vec<FrameId> = (0..3).map(|s| FrameId::new(s * 1000 + 1)).collect();
        for &f in &frames {
            t.insert(f, FrameKind::PageTable { level: 1 });
        }
        t.link_replicas(&frames);
        let mut remaining = t.unlink_replica(frames[1]);
        remaining.sort();
        assert_eq!(remaining, vec![frames[0], frames[2]]);
        assert!(!t.is_replicated(frames[1]));
        assert_eq!(t.replica_ring(frames[0]).count(), 2);
        assert_eq!(
            t.replica_on_socket(frames[0], SocketId::new(1)),
            None,
            "socket 1 replica was unlinked"
        );
    }

    #[test]
    fn count_on_socket_filters_by_kind_and_socket() {
        let mut t = table();
        t.insert(FrameId::new(0), FrameKind::Data);
        t.insert(FrameId::new(1), FrameKind::PageTable { level: 1 });
        t.insert(FrameId::new(1001), FrameKind::PageTable { level: 1 });
        assert_eq!(
            t.count_on_socket(SocketId::new(0), FrameKind::PageTable { level: 1 }),
            1
        );
        assert_eq!(
            t.count_on_socket(SocketId::new(1), FrameKind::PageTable { level: 1 }),
            1
        );
        assert_eq!(t.count_on_socket(SocketId::new(0), FrameKind::Data), 1);
    }

    /// The pre-iterator ring walk: collect every member into a vector.
    fn reference_ring(t: &FrameTable, frame: FrameId) -> Vec<FrameId> {
        let mut out = vec![frame];
        let mut cursor = frame;
        while let Some(next) = t.get(cursor).and_then(|m| m.replica_next) {
            if next == frame {
                break;
            }
            out.push(next);
            cursor = next;
            assert!(out.len() <= 64, "corrupted ring");
        }
        out
    }

    #[test]
    fn replica_ring_matches_the_collecting_walk() {
        for members in 1..=4u64 {
            let mut t = table();
            let frames: Vec<FrameId> = (0..members).map(|s| FrameId::new(s * 1000 + 3)).collect();
            for &f in &frames {
                t.insert(f, FrameKind::PageTable { level: 1 });
            }
            t.link_replicas(&frames);
            for &f in &frames {
                let ring: Vec<FrameId> = t.replica_ring(f).collect();
                assert_eq!(ring, reference_ring(&t, f), "{members} members, from {f:?}");
                assert_eq!(ring.len(), members as usize);
            }
            // Unlinking one member leaves both the survivors' ring and the
            // unlinked frame's singleton walk in agreement.
            let gone = frames[frames.len() / 2];
            t.unlink_replica(gone);
            for &f in &frames {
                let ring: Vec<FrameId> = t.replica_ring(f).collect();
                assert_eq!(ring, reference_ring(&t, f), "after unlink, from {f:?}");
            }
            assert!(t.replica_ring(gone).eq([gone]));
        }
        // The longest legal ring, one replica per possible socket.
        let mut t = table();
        let frames: Vec<FrameId> = (0..64).map(FrameId::new).collect();
        for &f in &frames {
            t.insert(f, FrameKind::PageTable { level: 1 });
        }
        t.link_replicas(&frames);
        assert!(t.replica_ring(frames[9]).eq(reference_ring(&t, frames[9])));
        // An untracked frame walks as a singleton.
        let t = table();
        assert!(t.replica_ring(FrameId::new(42)).eq([FrameId::new(42)]));
    }

    #[test]
    #[should_panic(expected = "replica ring longer than the maximum socket count")]
    fn corrupted_replica_ring_panics() {
        let mut t = table();
        let [start, a, b] = [1u64, 2, 3].map(FrameId::new);
        for f in [start, a, b] {
            t.insert(f, FrameKind::PageTable { level: 1 });
        }
        // `a` and `b` form a cycle that `start` leads into but never closes.
        t.link_replicas(&[a, b]);
        t.get_mut(start).unwrap().replica_next = Some(a);
        let _ = t.replica_ring(start).count();
    }

    #[test]
    #[should_panic(expected = "cannot link an empty replica set")]
    fn linking_empty_set_panics() {
        let mut t = table();
        t.link_replicas(&[]);
    }
}
