//! A bounded, exact-LRU map with O(1) access and O(1) eviction.
//!
//! The MMU models (PTE-line cache, paging-structure caches) are all
//! "bounded map with exact LRU replacement".  The original implementations
//! used a `HashMap` plus a per-entry tick and found the victim with a full
//! `min_by_key` scan on every miss — O(capacity) on exactly the miss path
//! that dominates cache-thrashing workloads.  [`LruMap`] replaces both: an
//! open-addressed index (linear probing, backward-shift deletion, ≤50% load
//! factor, Fibonacci hashing — no `SipHash`, no `std::collections::HashMap`)
//! resolves keys to slots, and an index-linked doubly-linked list over the
//! slots keeps exact recency order, so hit, miss and eviction are all O(1).
//!
//! Replacement decisions are identical to the tick-based implementation:
//! ticks were unique, so "smallest tick" and "list tail" name the same
//! entry.

/// Sentinel for "no slot" in both the index table and the LRU links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<V> {
    key: u64,
    value: V,
    prev: u32,
    next: u32,
}

/// A fixed-capacity map from `u64` keys to values with exact LRU eviction.
#[derive(Debug, Clone)]
pub struct LruMap<V> {
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    /// Open-addressed key index: positions hold slot indices or [`NIL`].
    index: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (the eviction victim).
    tail: u32,
    capacity: usize,
    len: usize,
}

#[inline]
fn hash(key: u64) -> u64 {
    // Fibonacci hashing: one multiply, excellent dispersion of the high
    // bits, fully deterministic.
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl<V> LruMap<V> {
    /// Creates a map holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let index_len = (capacity * 2).next_power_of_two().max(4);
        LruMap {
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            index: vec![NIL; index_len],
            head: NIL,
            tail: NIL,
            capacity,
            len: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entries are resident.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    #[inline]
    fn ideal_pos(&self, key: u64) -> usize {
        (hash(key) >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Finds the index-table position holding `key`, if resident.
    #[inline]
    fn probe(&self, key: u64) -> Option<usize> {
        let mask = self.mask();
        let mut pos = self.ideal_pos(key);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                return None;
            }
            if self.slots[slot as usize].key == key {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Inserts `slot` (whose key is already set) into the index table.
    fn index_insert(&mut self, slot: u32) {
        let mask = self.mask();
        let mut pos = self.ideal_pos(self.slots[slot as usize].key);
        while self.index[pos] != NIL {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot;
    }

    /// Vacates index position `hole`, back-shifting displaced entries so
    /// linear probing stays correct without tombstones.
    fn index_remove(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut probe = hole;
        loop {
            probe = (probe + 1) & mask;
            let slot = self.index[probe];
            if slot == NIL {
                self.index[hole] = NIL;
                return;
            }
            let ideal = self.ideal_pos(self.slots[slot as usize].key);
            // The entry at `probe` may move into the hole only if its probe
            // sequence passes through the hole (cyclic distance check).
            let dist_from_ideal = probe.wrapping_sub(ideal) & mask;
            let dist_from_hole = probe.wrapping_sub(hole) & mask;
            if dist_from_ideal >= dist_from_hole {
                self.index[hole] = slot;
                hole = probe;
            }
        }
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Looks `key` up and, on a hit, marks it most recently used.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let pos = self.probe(key)?;
        let slot = self.index[pos];
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.slots[slot as usize].value)
    }

    /// Returns `true` if `key` is resident, without touching recency.
    #[cfg(test)]
    pub fn contains(&self, key: u64) -> bool {
        self.probe(key).is_some()
    }

    /// Combined lookup-and-fill for "access a cache line" semantics: if
    /// `key` is resident it is touched and `true` returned; otherwise it is
    /// inserted (evicting the LRU entry if full) and `false` returned.
    ///
    /// Equivalent to `get` + `insert` on miss, but with a single index
    /// probe — this is the hot call of the PTE-line cache.
    #[inline]
    pub fn touch_or_insert(&mut self, key: u64, value: V) -> bool {
        let mask = self.mask();
        let mut pos = self.ideal_pos(key);
        loop {
            let slot = self.index[pos];
            if slot == NIL {
                break;
            }
            if self.slots[slot as usize].key == key {
                if self.head != slot {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                self.slots[slot as usize].value = value;
                return true;
            }
            pos = (pos + 1) & mask;
        }
        if self.len == self.capacity {
            self.evict_and_replace(key, value);
        } else {
            // `pos` still names the empty index position the probe found.
            let slot = self.alloc_slot(key, value);
            self.index[pos] = slot;
            self.push_front(slot);
            self.len += 1;
        }
        false
    }

    /// Recycles the LRU victim's slot for `key`.
    fn evict_and_replace(&mut self, key: u64, value: V) {
        let victim = self.tail;
        let victim_pos = self
            .probe(self.slots[victim as usize].key)
            .expect("resident victim is indexed");
        self.index_remove(victim_pos);
        self.unlink(victim);
        let s = &mut self.slots[victim as usize];
        s.key = key;
        s.value = value;
        self.index_insert(victim);
        self.push_front(victim);
    }

    /// Takes a slot from the free list or grows the slab.
    fn alloc_slot(&mut self, key: u64, value: V) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.key = key;
                s.value = value;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count fits in u32");
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                slot
            }
        }
    }

    /// Inserts or refreshes `key`, evicting the least recently used entry
    /// if the map is full.  The inserted entry becomes most recently used.
    pub fn insert(&mut self, key: u64, value: V) {
        if let Some(pos) = self.probe(key) {
            let slot = self.index[pos];
            self.slots[slot as usize].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return;
        }
        if self.len == self.capacity {
            self.evict_and_replace(key, value);
            return;
        }
        let slot = self.alloc_slot(key, value);
        self.index_insert(slot);
        self.push_front(slot);
        self.len += 1;
    }

    /// Removes `key`, returning `true` if it was resident.  O(1); the
    /// recency order of the other entries is unchanged.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(pos) = self.probe(key) else {
            return false;
        };
        let slot = self.index[pos];
        self.index_remove(pos);
        self.unlink(slot);
        self.free.push(slot);
        self.len -= 1;
        true
    }

    /// Removes every entry whose key fails `keep`, preserving the recency
    /// order of the survivors.  O(len) — meant for rare invalidations
    /// (table freed or migrated), not the access path.
    pub fn retain<F: FnMut(u64, &V) -> bool>(&mut self, mut keep: F) {
        let mut cursor = self.head;
        while cursor != NIL {
            let next = self.slots[cursor as usize].next;
            let s = &self.slots[cursor as usize];
            if !keep(s.key, &s.value) {
                let pos = self.probe(s.key).expect("resident entry is indexed");
                self.index_remove(pos);
                self.unlink(cursor);
                self.free.push(cursor);
                self.len -= 1;
            }
            cursor = next;
        }
    }

    /// Resident keys, most recently used first.
    #[cfg(test)]
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.len);
        let mut cursor = self.head;
        while cursor != NIL {
            keys.push(self.slots[cursor as usize].key);
            cursor = self.slots[cursor as usize].next;
        }
        keys
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.index.fill(NIL);
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_touches_and_insert_evicts_exact_lru() {
        let mut map = LruMap::new(2);
        map.insert(1, "a");
        map.insert(2, "b");
        assert_eq!(map.get(1), Some(&"a")); // 2 becomes LRU
        map.insert(3, "c"); // evicts 2
        assert!(map.contains(1));
        assert!(!map.contains(2));
        assert!(map.contains(3));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn reinserting_updates_value_and_recency() {
        let mut map = LruMap::new(2);
        map.insert(1, 10);
        map.insert(2, 20);
        map.insert(1, 11); // refresh: 2 becomes LRU
        map.insert(3, 30); // evicts 2
        assert_eq!(map.get(1), Some(&11));
        assert!(!map.contains(2));
    }

    #[test]
    fn retain_removes_matching_entries_and_keeps_order() {
        let mut map = LruMap::new(8);
        for key in 0..6u64 {
            map.insert(key, key * 10);
        }
        map.retain(|key, _| key % 2 == 0);
        assert_eq!(map.len(), 3);
        assert!(map.contains(0) && map.contains(2) && map.contains(4));
        // LRU order preserved: filling past capacity evicts the oldest
        // survivor (key 0) first.
        for key in 10..16u64 {
            map.insert(key, 0);
        }
        assert!(!map.contains(0));
        assert!(map.contains(2) && map.contains(4));
    }

    #[test]
    fn clear_resets_everything() {
        let mut map = LruMap::new(4);
        map.insert(1, ());
        map.insert(2, ());
        map.clear();
        assert!(map.is_empty());
        assert!(!map.contains(1));
        map.insert(3, ());
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn capacity_one_works() {
        let mut map = LruMap::new(1);
        map.insert(1, ());
        map.insert(2, ());
        assert!(!map.contains(1));
        assert!(map.contains(2));
        assert_eq!(map.capacity(), 1);
    }

    /// Cross-check against a naive tick-based reference model (the old
    /// implementation) over a long pseudo-random workload with heavy
    /// collisions and evictions.
    #[test]
    fn matches_tick_based_reference_model() {
        use std::collections::BTreeMap;

        struct Reference {
            map: BTreeMap<u64, (u64, u64)>, // key -> (value, tick)
            capacity: usize,
            tick: u64,
        }
        impl Reference {
            fn get(&mut self, key: u64) -> Option<u64> {
                self.tick += 1;
                let tick = self.tick;
                self.map.get_mut(&key).map(|(v, t)| {
                    *t = tick;
                    *v
                })
            }
            fn remove(&mut self, key: u64) -> bool {
                self.map.remove(&key).is_some()
            }
            fn insert(&mut self, key: u64, value: u64) {
                self.tick += 1;
                if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
                    let victim = *self
                        .map
                        .iter()
                        .min_by_key(|(_, (_, t))| *t)
                        .map(|(k, _)| k)
                        .unwrap();
                    self.map.remove(&victim);
                }
                self.map.insert(key, (value, self.tick));
            }
        }

        let mut lru = LruMap::new(17);
        let mut reference = Reference {
            map: BTreeMap::new(),
            capacity: 17,
            tick: 0,
        };
        let mut state = 0x12345678u64;
        for step in 0..20_000u64 {
            // xorshift
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 37; // heavy key reuse
            match state % 4 {
                0 => assert_eq!(lru.get(key).copied(), reference.get(key), "step {step}"),
                1 => {
                    lru.insert(key, step);
                    reference.insert(key, step);
                }
                2 => assert_eq!(lru.remove(key), reference.remove(key), "step {step}"),
                _ => {
                    let was_resident = reference.map.contains_key(&key);
                    reference.insert(key, step);
                    assert_eq!(lru.touch_or_insert(key, step), was_resident, "step {step}");
                }
            }
            assert_eq!(lru.len(), reference.map.len());
        }
    }
}
