//! GPU-style open-addressing hash table.
//!
//! §III-C2 adopts "the hash table method instead of the sort method used in
//! other frameworks" and borrows the insertion scheme of **Warpcore**
//! (Jünger et al., HiPC '20): a flat open-addressing table whose slots are
//! claimed with atomic compare-and-swap, probed linearly — the access
//! pattern that coalesces well on GPUs. Our slots are `AtomicU64` keys and
//! `AtomicI64` values, inserted concurrently from rayon worker threads with
//! exactly the CAS discipline of the CUDA kernel.

use rayon::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Sentinel for an unoccupied slot. Keys equal to this value cannot be
/// stored (node GlobalIds never collide with it: rank 65535 + max local).
pub const EMPTY_KEY: u64 = u64::MAX;

/// Value meaning "inserted as a neighbor, sub-graph ID not yet assigned"
/// (§III-C2: "we assign the value of the hash table of the neighbor node
/// for -1 in the beginning").
pub const UNASSIGNED: i64 = -1;

/// A fixed-capacity concurrent hash table with linear probing.
///
/// The slot arrays may be longer than the table: only the first
/// [`num_slots`](Self::num_slots) slots (the *active region*) are hashed
/// into, probed, scanned and wiped. [`reset`](Self::reset) sizes the
/// active region per call and grows the storage only when it is too short.
pub struct GpuHashTable {
    keys: Vec<AtomicU64>,
    values: Vec<AtomicI64>,
    /// Per-slot duplicate counters ("duplicate count for each sub-graph
    /// node indicating how many times the node is sampled as a neighbor" —
    /// §III-C4).
    counts: Vec<AtomicU64>,
    /// Per-slot minimum input index (`fetch_min`-maintained). Which *slot*
    /// a key lands in depends on CAS races under linear probing, but the
    /// smallest input position that inserted the key does not — AppendUnique
    /// orders its unique list by it so sub-graph IDs are schedule-free.
    min_idx: Vec<AtomicU64>,
    /// Active slot count minus one (a power of two minus one).
    mask: usize,
}

impl Default for GpuHashTable {
    /// A minimal (2-slot) table; grow it with [`reset`](Self::reset).
    fn default() -> Self {
        Self::with_capacity(1)
    }
}

/// Outcome of an insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insert {
    /// The key was absent; this call claimed slot `.0`.
    New(usize),
    /// The key already existed in slot `.0`.
    Existing(usize),
}

impl GpuHashTable {
    /// A table able to hold at least `capacity` keys at ≤50% load factor.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(1) * 2).next_power_of_two();
        GpuHashTable {
            keys: (0..slots).map(|_| AtomicU64::new(EMPTY_KEY)).collect(),
            values: (0..slots).map(|_| AtomicI64::new(UNASSIGNED)).collect(),
            counts: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            min_idx: (0..slots).map(|_| AtomicU64::new(u64::MAX)).collect(),
            mask: slots - 1,
        }
    }

    /// Number of active slots (a power of two).
    pub fn num_slots(&self) -> usize {
        self.mask + 1
    }

    /// Clear the table for reuse with at least `capacity` keys at ≤50% load
    /// factor. The active region becomes the smallest power of two that
    /// holds them, so the per-call cost follows this call's keys and not
    /// the largest call the table has seen: storage is grown (reallocated)
    /// only when it is too short, and only the active slots are wiped. A
    /// smaller active region changes which slots keys probe to, but
    /// AppendUnique's outputs are keyed on first-occurrence watermarks
    /// rather than slot order, so results are identical at any table size.
    pub fn reset(&mut self, capacity: usize) {
        let needed = (capacity.max(1) * 2).next_power_of_two();
        if needed > self.keys.len() {
            *self = Self::with_capacity(capacity);
            return;
        }
        self.mask = needed - 1;
        const GRAIN: usize = 4096;
        self.keys[..needed]
            .par_iter_mut()
            .with_min_len(GRAIN)
            .for_each(|k| *k.get_mut() = EMPTY_KEY);
        self.values[..needed]
            .par_iter_mut()
            .with_min_len(GRAIN)
            .for_each(|v| *v.get_mut() = UNASSIGNED);
        self.counts[..needed]
            .par_iter_mut()
            .with_min_len(GRAIN)
            .for_each(|c| *c.get_mut() = 0);
        self.min_idx[..needed]
            .par_iter_mut()
            .with_min_len(GRAIN)
            .for_each(|m| *m.get_mut() = u64::MAX);
    }

    #[inline]
    fn hash(&self, key: u64) -> usize {
        // splitmix64 finalizer — same mixer the partitioner uses.
        let mut x = key.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        (x ^ (x >> 31)) as usize & self.mask
    }

    /// Insert `key`, claiming a slot with CAS if absent. Thread-safe.
    pub fn insert(&self, key: u64) -> Insert {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key is not storable");
        let mut slot = self.hash(key);
        loop {
            let cur = self.keys[slot].load(Ordering::Acquire);
            if cur == key {
                return Insert::Existing(slot);
            }
            if cur == EMPTY_KEY {
                match self.keys[slot].compare_exchange(
                    EMPTY_KEY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Insert::New(slot),
                    Err(winner) if winner == key => return Insert::Existing(slot),
                    Err(_) => { /* someone else claimed it with a different key: probe on */ }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Insert and bump the slot's duplicate counter (neighbor insertion).
    pub fn insert_counted(&self, key: u64) -> Insert {
        let r = self.insert(key);
        let slot = match r {
            Insert::New(s) | Insert::Existing(s) => s,
        };
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Set the value of a slot.
    pub fn set_value(&self, slot: usize, value: i64) {
        self.values[slot].store(value, Ordering::Release);
    }

    /// Look up a key; returns `(slot, value)` if present.
    pub fn get(&self, key: u64) -> Option<(usize, i64)> {
        let mut slot = self.hash(key);
        loop {
            let cur = self.keys[slot].load(Ordering::Acquire);
            if cur == key {
                return Some((slot, self.values[slot].load(Ordering::Acquire)));
            }
            if cur == EMPTY_KEY {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Key stored in a slot (or `EMPTY_KEY`).
    pub fn key_at(&self, slot: usize) -> u64 {
        self.keys[slot].load(Ordering::Acquire)
    }

    /// Value stored in a slot.
    pub fn value_at(&self, slot: usize) -> i64 {
        self.values[slot].load(Ordering::Acquire)
    }

    /// Duplicate counter of a slot.
    pub fn count_at(&self, slot: usize) -> u64 {
        self.counts[slot].load(Ordering::Relaxed)
    }

    /// Lower a slot's minimum-input-index watermark to `idx` (no-op if a
    /// smaller index was already noted). Thread-safe and commutative, so
    /// the final value is independent of insertion interleaving.
    pub fn note_min_index(&self, slot: usize, idx: u64) {
        self.min_idx[slot].fetch_min(idx, Ordering::AcqRel);
    }

    /// Smallest index noted for a slot (`u64::MAX` if none).
    pub fn min_index_at(&self, slot: usize) -> u64 {
        self.min_idx[slot].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let t = GpuHashTable::with_capacity(16);
        let slot = match t.insert(42) {
            Insert::New(s) => s,
            Insert::Existing(_) => panic!("fresh key reported existing"),
        };
        assert_eq!(t.insert(42), Insert::Existing(slot));
        t.set_value(slot, 7);
        assert_eq!(t.get(42), Some((slot, 7)));
        assert_eq!(t.get(43), None);
    }

    #[test]
    fn colliding_keys_probe_to_distinct_slots() {
        let t = GpuHashTable::with_capacity(4); // 8 slots
        let mut slots = std::collections::HashSet::new();
        for key in 0..6u64 {
            let s = match t.insert(key) {
                Insert::New(s) => s,
                Insert::Existing(_) => panic!("duplicate for fresh key"),
            };
            assert!(slots.insert(s), "slot reused");
        }
        for key in 0..6u64 {
            assert!(t.get(key).is_some());
        }
    }

    #[test]
    fn concurrent_inserts_claim_each_key_once() {
        let t = GpuHashTable::with_capacity(10_000);
        // 16 threads insert an overlapping key range; every key must be
        // claimed as New exactly once.
        let news: usize = (0..16u32)
            .into_par_iter()
            .map(|_| {
                (0..5000u64)
                    .filter(|&k| matches!(t.insert(k), Insert::New(_)))
                    .count()
            })
            .sum();
        assert_eq!(news, 5000);
        for k in 0..5000u64 {
            assert!(t.get(k).is_some());
        }
    }

    #[test]
    fn duplicate_counts_accumulate() {
        let t = GpuHashTable::with_capacity(8);
        t.insert_counted(5);
        t.insert_counted(5);
        t.insert_counted(5);
        t.insert_counted(6);
        let (slot5, _) = t.get(5).unwrap();
        let (slot6, _) = t.get(6).unwrap();
        assert_eq!(t.count_at(slot5), 3);
        assert_eq!(t.count_at(slot6), 1);
    }

    #[test]
    fn concurrent_counts_are_exact() {
        let t = GpuHashTable::with_capacity(64);
        (0..8u32).into_par_iter().for_each(|_| {
            for _ in 0..1000 {
                t.insert_counted(1);
            }
        });
        let (slot, _) = t.get(1).unwrap();
        assert_eq!(t.count_at(slot), 8000);
    }

    /// Fill *every* slot (100% occupancy — twice the nominal capacity)
    /// from 8 OS threads with overlapping, differently-ordered key ranges.
    /// Every key must be claimed `New` exactly once and land in its own
    /// slot; uses `std::thread::scope` directly so the contention is real
    /// even when the rayon pool runs single-threaded.
    #[test]
    fn concurrent_inserts_fill_every_slot() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = GpuHashTable::with_capacity(2048); // 4096 slots
        let slots = t.num_slots() as u64;
        let news = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                let news = &news;
                s.spawn(move || {
                    for k in 0..slots {
                        // Stride the range differently per thread so CAS
                        // collisions happen all over the table.
                        let key = (k * (2 * tid + 1)) % slots;
                        if matches!(t.insert(key), Insert::New(_)) {
                            news.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(news.load(Ordering::SeqCst), slots as usize);
        let mut seen = std::collections::HashSet::new();
        for s in 0..t.num_slots() {
            let k = t.key_at(s);
            assert_ne!(k, EMPTY_KEY, "slot {s} left empty at full occupancy");
            assert!(seen.insert(k), "key {k} stored twice");
        }
        for k in 0..slots {
            assert!(t.get(k).is_some(), "key {k} unfindable");
        }
    }

    /// Hammer four keys from 8 OS threads: duplicate counts must be exact
    /// and the min-input-index watermark must settle on the global minimum
    /// regardless of interleaving.
    #[test]
    fn contended_duplicates_count_exactly_and_min_index_is_stable() {
        let t = GpuHashTable::with_capacity(64);
        const PER_THREAD: usize = 10_000;
        std::thread::scope(|s| {
            for tid in 0..8usize {
                let t = &t;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let key = (i % 4) as u64;
                        match t.insert_counted(key) {
                            Insert::New(slot) | Insert::Existing(slot) => {
                                t.note_min_index(slot, (tid * PER_THREAD + i) as u64);
                            }
                        }
                    }
                });
            }
        });
        for key in 0..4u64 {
            let (slot, _) = t.get(key).unwrap();
            assert_eq!(t.count_at(slot), (8 * PER_THREAD / 4) as u64);
            // Smallest index ever noted for `key` is thread 0's `i == key`.
            assert_eq!(t.min_index_at(slot), key);
        }
    }

    /// A smaller `reset` keeps the storage but shrinks the active region
    /// to the requested power of two, and every active slot is clean.
    #[test]
    fn reset_clears_all_slot_state_in_place() {
        let mut t = GpuHashTable::default();
        t.reset(100); // grows from the minimal default table
        assert_eq!(t.num_slots(), 256);
        for k in 0..100u64 {
            t.insert_counted(k);
            let (slot, _) = t.get(k).unwrap();
            t.set_value(slot, k as i64);
            t.note_min_index(slot, k);
        }
        let storage = (t.keys.as_ptr(), t.keys.capacity(), t.keys.len());
        t.reset(40); // smaller request: storage kept, active region shrunk
        assert_eq!((t.keys.as_ptr(), t.keys.capacity(), t.keys.len()), storage);
        assert_eq!(t.num_slots(), 128);
        for s in 0..t.num_slots() {
            assert_eq!(t.key_at(s), EMPTY_KEY);
            assert_eq!(t.value_at(s), UNASSIGNED);
            assert_eq!(t.count_at(s), 0);
            assert_eq!(t.min_index_at(s), u64::MAX);
        }
        for k in 0..20u64 {
            assert!(matches!(t.insert(k), Insert::New(_)));
        }
    }

    /// `default()` is the documented 2-slot table, and it grows on `reset`.
    #[test]
    fn default_is_a_two_slot_table_that_grows_on_reset() {
        let mut t = GpuHashTable::default();
        assert_eq!(t.num_slots(), 2);
        assert_eq!(t.keys.len(), 2);
        assert!(matches!(t.insert(7), Insert::New(_)));
        t.reset(10);
        assert_eq!(t.num_slots(), 32);
        assert_eq!(t.get(7), None);
        for k in 0..10u64 {
            assert!(matches!(t.insert_counted(k), Insert::New(_)));
        }
        for k in 0..10u64 {
            let (slot, _) = t.get(k).unwrap();
            assert_eq!(t.count_at(slot), 1);
        }
    }

    #[test]
    fn values_default_to_unassigned() {
        let t = GpuHashTable::with_capacity(4);
        if let Insert::New(s) = t.insert(9) {
            assert_eq!(t.value_at(s), UNASSIGNED);
        } else {
            panic!();
        }
    }
}
