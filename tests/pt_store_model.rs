//! Model-based check of the arena-backed `PtStore`: random sequences of
//! table inserts, removals, re-inserts, entry writes (by frame and by slot
//! handle), whole clones and `clone_reachable` slices must leave the store
//! indistinguishable from a reference that keeps entries in a
//! `BTreeMap<(frame, index), Pte>` and hands out slots from a LIFO free
//! list.  After every step `contains`, `read`/`read_at`, `present_at`
//! order, `present_entries`, `present_count`, `table_count` and
//! `table_frames` (slot order included) are compared.

use mitosis_mem::FrameId;
use mitosis_pt::{Level, PtStore, Pte, PteFlags, VirtAddr};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Frames the tables live in: two directory chunks, and a frame far
/// beyond both.
const FRAMES: [u64; 10] = [1, 2, 3, 4, 5, 6, 4095, 4096, 4097, 70_000];

/// Entry indices the writes use: both ends of the table and the edges of
/// occupancy words, so VA slices and bitmaps see their boundaries.
const INDICES: [usize; 7] = [0, 1, 2, 63, 64, 200, 511];

/// The reference store.
#[derive(Debug, Clone, Default)]
struct Model {
    /// Owner of each slot, `None` once freed.
    slots: Vec<Option<u64>>,
    free: Vec<usize>,
    entries: BTreeMap<(u64, usize), Pte>,
}

impl Model {
    fn contains(&self, pfn: u64) -> bool {
        self.slots.contains(&Some(pfn))
    }

    fn insert_table(&mut self, pfn: u64) {
        self.entries.retain(|(owner, _), _| *owner != pfn);
        if self.contains(pfn) {
            return;
        }
        match self.free.pop() {
            Some(slot) => self.slots[slot] = Some(pfn),
            None => self.slots.push(Some(pfn)),
        }
    }

    fn remove_table(&mut self, pfn: u64) {
        if let Some(slot) = self.slots.iter().position(|s| *s == Some(pfn)) {
            self.slots[slot] = None;
            self.free.push(slot);
            self.entries.retain(|(owner, _), _| *owner != pfn);
        }
    }

    fn write(&mut self, pfn: u64, index: usize, pte: Pte) {
        assert!(self.contains(pfn));
        if pte == Pte::EMPTY {
            self.entries.remove(&(pfn, index));
        } else {
            self.entries.insert((pfn, index), pte);
        }
    }

    fn read(&self, pfn: u64, index: usize) -> Pte {
        self.entries
            .get(&(pfn, index))
            .copied()
            .unwrap_or(Pte::EMPTY)
    }

    fn present(&self, pfn: u64) -> Vec<(usize, Pte)> {
        self.entries
            .range((pfn, 0)..(pfn, usize::MAX))
            .filter(|(_, pte)| pte.is_present())
            .map(|((_, index), pte)| (*index, *pte))
            .collect()
    }

    /// The slice `clone_reachable` must produce: each table reachable from
    /// `roots` through present non-huge entries whose span meets a range,
    /// copied with its present entries, in depth-first first-visit order.
    fn reachable(&self, roots: &[u64], ranges: &[(u64, u64)]) -> Model {
        let mut out = Model::default();
        for &root in roots {
            self.copy_subtree(root, Level::L4, 0, ranges, &mut out);
        }
        out
    }

    fn copy_subtree(
        &self,
        pfn: u64,
        level: Level,
        base: u64,
        ranges: &[(u64, u64)],
        out: &mut Model,
    ) {
        if out.contains(pfn) || !self.contains(pfn) {
            return;
        }
        out.insert_table(pfn);
        let present = self.present(pfn);
        for &(index, pte) in &present {
            out.write(pfn, index, pte);
        }
        let Some(lower) = level.next_lower() else {
            return;
        };
        for (index, pte) in present {
            let start = base + index as u64 * level.entry_coverage();
            let end = start + level.entry_coverage();
            if !pte.is_huge() && ranges.iter().any(|&(s, e)| s < end && start < e) {
                let child = pte.frame().expect("present entries carry a frame");
                self.copy_subtree(child.pfn(), lower, start, ranges, out);
            }
        }
    }
}

fn check(store: &PtStore, model: &Model) -> Result<(), TestCaseError> {
    let live: Vec<u64> = model.slots.iter().flatten().copied().collect();
    prop_assert_eq!(store.table_count(), live.len());
    prop_assert_eq!(
        store.table_frames().map(FrameId::pfn).collect::<Vec<_>>(),
        live
    );
    for pfn in FRAMES {
        let frame = FrameId::new(pfn);
        prop_assert_eq!(
            store.contains(frame),
            model.contains(pfn),
            "contains {}",
            pfn
        );
        let Some(slot) = store.slot_of(frame) else {
            prop_assert!(!model.contains(pfn));
            continue;
        };
        prop_assert_eq!(store.slot(frame), slot);
        for index in INDICES {
            let want = model.read(pfn, index);
            prop_assert_eq!(store.read(frame, index), want, "read {}[{}]", pfn, index);
            prop_assert_eq!(store.read_at(slot, index), want);
        }
        let present = model.present(pfn);
        prop_assert_eq!(store.present_at(slot).collect::<Vec<_>>(), present.clone());
        prop_assert_eq!(store.present_count(frame), present.len());
        prop_assert_eq!(store.present_entries(frame), present);
    }
    Ok(())
}

/// A random entry: a table pointer or leaf into the frame pool, sometimes
/// huge, sometimes not present (but still carrying a frame), sometimes
/// empty.
fn entry(raw: u64) -> Pte {
    let frame = FrameId::new(FRAMES[(raw % FRAMES.len() as u64) as usize]);
    let pte = Pte::new(frame, PteFlags::table_pointer());
    match (raw >> 8) % 6 {
        0 => Pte::EMPTY,
        1 => pte.with_flags(PteFlags::default()),
        2 => pte.with_flags(PteFlags::user_data().huge_page()),
        3 => pte.with_accessed().with_dirty(),
        _ => pte,
    }
}

/// The virtual address of the path through `INDICES` picked by `raw`.
fn path_address(raw: u64) -> u64 {
    Level::WALK_ORDER
        .iter()
        .enumerate()
        .map(|(i, level)| {
            let index = INDICES[((raw >> (i * 3)) % INDICES.len() as u64) as usize] as u64;
            // Stay in the canonical lower half at L4.
            let index = if *level == Level::L4 {
                index % 256
            } else {
                index
            };
            index << level.index_shift()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_store_matches_the_btreemap_model(
        ops in prop::collection::vec((0u8..16, 0usize..FRAMES.len(), 0usize..INDICES.len(), any::<u64>()), 1..160),
    ) {
        let mut store = PtStore::new();
        let mut model = Model::default();
        for (op, frame_pick, index_pick, raw) in ops {
            let pfn = FRAMES[frame_pick];
            let frame = FrameId::new(pfn);
            let index = INDICES[index_pick];
            match op {
                0..=2 => {
                    store.insert_table(frame);
                    model.insert_table(pfn);
                }
                3 => {
                    store.remove_table(frame);
                    model.remove_table(pfn);
                }
                4..=12 if model.contains(pfn) => {
                    let pte = entry(raw);
                    if raw >> 63 == 1 {
                        let slot = store.slot(frame);
                        store.write_at(slot, index, pte);
                    } else {
                        store.write(frame, index, pte);
                    }
                    model.write(pfn, index, pte);
                }
                13 => {
                    let copy = store.clone();
                    check(&store, &model)?;
                    store = copy;
                }
                14 => {
                    // Any frame may be named as a root; one without a
                    // table contributes nothing.
                    let roots: Vec<u64> = FRAMES
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| raw >> (32 + i) & 1 == 1)
                        .map(|(_, pfn)| *pfn)
                        .collect();
                    let root_frames: Vec<FrameId> = roots.iter().copied().map(FrameId::new).collect();
                    let start = path_address(raw);
                    let end = start + (1 + (raw >> 20) % 4) * Level::L2.entry_coverage();
                    let page = path_address(raw >> 12);
                    let ranges = [(start, end), (page, page + 4096)];
                    let va_ranges: Vec<(VirtAddr, VirtAddr)> = ranges
                        .iter()
                        .map(|&(s, e)| (VirtAddr::new(s), VirtAddr::new(e)))
                        .collect();
                    store = store.clone_reachable(&root_frames, &va_ranges);
                    model = model.reachable(&roots, &ranges);
                }
                _ => {}
            }
            check(&store, &model)?;
        }
        // A final sweep over every entry of every table.
        for pfn in model.slots.iter().flatten() {
            let frame = FrameId::new(*pfn);
            for index in 0..512 {
                prop_assert_eq!(store.read(frame, index), model.read(*pfn, index));
            }
        }
    }
}
