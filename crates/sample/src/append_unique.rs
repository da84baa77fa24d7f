//! The AppendUnique op (§III-C2, Figure 5).
//!
//! After neighbor sampling, "the same nodes may be sampled from different
//! target nodes", and every duplicate gathered feature row is wasted NVLink
//! bandwidth. AppendUnique fuses three jobs into one pass:
//!
//! 1. put all **target nodes first** in the output node list (so the next
//!    layer can reuse the already-gathered target features — the targets of
//!    layer *l* are a prefix of the node list of layer *l+1*);
//! 2. deduplicate the sampled neighbors with a **hash table** (not the
//!    sort other frameworks use) — targets are inserted with their list
//!    index as value, neighbors with value −1;
//! 3. assign the unique new neighbors **contiguous sub-graph IDs** after
//!    the targets via an exclusive prefix sum, exactly as in Figure 5 —
//!    but keyed on each node's **first occurrence position** in the input
//!    neighbor list rather than on its hash-table slot. Which slot a key
//!    claims depends on CAS races under linear probing, so slot order
//!    would make the unique list depend on thread scheduling; the smallest
//!    input index that inserted a key (a `fetch_min` watermark per slot)
//!    is schedule-free, so IDs are bit-identical at any thread count.
//!
//! The op also emits the per-node **duplicate count** that the g-SpMM
//! backward of §III-C4 uses to replace atomic adds with plain stores for
//! nodes sampled exactly once.

use rayon::prelude::*;

use crate::hashtable::{GpuHashTable, Insert, UNASSIGNED};
use crate::prefix::parallel_exclusive_scan_with;
use crate::sync_slice::SyncSliceMut;

/// Slots per counting bucket (a warp-sized granule in the CUDA kernel).
const BUCKET_SLOTS: usize = 128;

/// Reusable working storage for [`append_unique_into`]: the hash table and
/// the first-occurrence mark buffer survive across invocations, so a warm
/// scratch makes the whole op allocation-free. Each call sizes the table's
/// active region to its own keys, so its cost does not grow with the
/// largest call the scratch has served, and results are independent of
/// scratch history (see [`GpuHashTable::reset`]).
#[derive(Default)]
pub struct AppendUniqueScratch {
    table: GpuHashTable,
    first_marks: Vec<u32>,
    scan_totals: Vec<u32>,
}

/// Output of [`append_unique`].
#[derive(Clone, Debug)]
pub struct AppendUniqueResult {
    /// Unique node keys: the targets (in input order) followed by the
    /// unique new neighbors.
    pub unique: Vec<u64>,
    /// Number of target nodes (prefix length of `unique`).
    pub num_targets: usize,
    /// For every input neighbor, its sub-graph ID (index into `unique`).
    pub neighbor_ids: Vec<u32>,
    /// Per unique node: how many times it appeared in `neighbors`.
    pub dup_count: Vec<u32>,
}

impl AppendUniqueResult {
    /// Number of unique nodes (targets + new neighbors).
    pub fn num_unique(&self) -> usize {
        self.unique.len()
    }
}

/// Run AppendUnique over a target list (assumed duplicate-free) and the
/// concatenated sampled-neighbor list.
///
/// ```
/// let targets = [10u64, 20];
/// let neighbors = [30u64, 20, 30, 40];
/// let r = wg_sample::append_unique(&targets, &neighbors);
/// // Targets stay first, in order; {30, 40} are appended deduplicated.
/// assert_eq!(&r.unique[..2], &targets);
/// assert_eq!(r.num_unique(), 4);
/// // Every sampled neighbor maps back to its own key.
/// for (&n, &id) in neighbors.iter().zip(&r.neighbor_ids) {
///     assert_eq!(r.unique[id as usize], n);
/// }
/// // Duplicate counts drive the SpMM backward fast path.
/// assert_eq!(r.dup_count.iter().sum::<u32>(), 4);
/// ```
pub fn append_unique(targets: &[u64], neighbors: &[u64]) -> AppendUniqueResult {
    let mut scratch = AppendUniqueScratch::default();
    let mut unique = Vec::new();
    let mut neighbor_ids = Vec::new();
    let mut dup_count = Vec::new();
    append_unique_into(
        targets,
        neighbors,
        &mut scratch,
        &mut unique,
        &mut neighbor_ids,
        &mut dup_count,
    );
    AppendUniqueResult {
        unique,
        num_targets: targets.len(),
        neighbor_ids,
        dup_count,
    }
}

/// [`append_unique`] writing into caller-provided output buffers with a
/// reusable [`AppendUniqueScratch`]: with warm buffers the op performs no
/// heap allocation. `unique`, `neighbor_ids` and `dup_count` are cleared
/// and refilled; output is bit-identical to [`append_unique`] regardless of
/// the scratch's previous use.
pub fn append_unique_into(
    targets: &[u64],
    neighbors: &[u64],
    scratch: &mut AppendUniqueScratch,
    unique: &mut Vec<u64>,
    neighbor_ids: &mut Vec<u32>,
    dup_count: &mut Vec<u32>,
) {
    let num_targets = targets.len();
    scratch.table.reset(num_targets + neighbors.len());
    let table = &scratch.table;

    // Phase 1: insert targets with their list index as value.
    targets
        .par_iter()
        .enumerate()
        .for_each(|(idx, &key)| match table.insert(key) {
            Insert::New(slot) => table.set_value(slot, idx as i64),
            Insert::Existing(_) => panic!("duplicate target node {key} passed to AppendUnique"),
        });

    // Phase 2: insert neighbors; new ones keep value −1, duplicates only
    // bump the slot's duplicate counter. Each insertion also lowers the
    // slot's first-occurrence watermark — `fetch_min` is commutative, so
    // the watermark is independent of scheduling even though slot choice
    // under concurrent CAS probing is not.
    neighbors
        .par_iter()
        .enumerate()
        .for_each(|(idx, &key)| match table.insert_counted(key) {
            Insert::New(slot) | Insert::Existing(slot) => {
                table.note_min_index(slot, idx as u64);
            }
        });

    // Phase 3: walk the −1 slots (bucketed, as the CUDA kernel cuts the
    // table into warp-sized granules), mark each one's first-occurrence
    // position in the input, and prefix-sum the marks: the exclusive sum
    // at a node's first occurrence is its dense rank among new neighbors.
    let slots = table.num_slots();
    let is_new = |s: usize| {
        table.key_at(s) != crate::hashtable::EMPTY_KEY && table.value_at(s) == UNASSIGNED
    };
    scratch.first_marks.clear();
    scratch.first_marks.resize(neighbors.len(), 0);
    {
        // Distinct new slots hold distinct keys, and each key's watermark
        // is an input position that inserted that key — so the marked
        // positions are pairwise distinct and the writes are disjoint.
        let marks = SyncSliceMut::new(&mut scratch.first_marks);
        (0..slots)
            .into_par_iter()
            .with_min_len(BUCKET_SLOTS)
            .for_each(|s| {
                if is_new(s) {
                    unsafe { marks.write(table.min_index_at(s) as usize, 1) };
                }
            });
    }
    let new_neighbors =
        parallel_exclusive_scan_with(&mut scratch.first_marks, &mut scratch.scan_totals) as usize;
    let first_marks = &scratch.first_marks;

    // Phase 4: assign sub-graph IDs (target count + first-occurrence rank)
    // and write the unique list + duplicate counts positionally (ranks are
    // distinct by construction of the exclusive scan).
    let total_unique = num_targets + new_neighbors;
    unique.clear();
    unique.resize(total_unique, 0);
    dup_count.clear();
    dup_count.resize(total_unique, 0);
    unique[..num_targets].copy_from_slice(targets);
    // Targets' duplicate counts come from their slots.
    for (idx, &key) in targets.iter().enumerate() {
        let (slot, _) = table.get(key).expect("target vanished from table");
        dup_count[idx] = table.count_at(slot) as u32;
    }
    {
        let unique_new = SyncSliceMut::new(&mut unique[num_targets..]);
        let dup_new = SyncSliceMut::new(&mut dup_count[num_targets..]);
        (0..slots)
            .into_par_iter()
            .with_min_len(BUCKET_SLOTS)
            .for_each(|s| {
                if is_new(s) {
                    let rank = first_marks[table.min_index_at(s) as usize] as usize;
                    table.set_value(s, (num_targets + rank) as i64);
                    unsafe {
                        unique_new.write(rank, table.key_at(s));
                        dup_new.write(rank, table.count_at(s) as u32);
                    }
                }
            });
    }

    // Phase 5: remap every input neighbor through the table.
    neighbor_ids.clear();
    neighbor_ids.resize(neighbors.len(), 0);
    neighbor_ids
        .par_iter_mut()
        .zip(neighbors.par_iter())
        .for_each(|(out, &key)| {
            let (_, v) = table.get(key).expect("sampled neighbor missing from table");
            debug_assert!(v >= 0, "neighbor {key} was never assigned a sub-graph ID");
            *out = v as u32;
        });
}

/// Sort-based reference implementation ("the sort method used in other
/// frameworks"): sort + dedup the neighbor list, subtract the target set,
/// then binary-search remap. Produces the same unique *set* with the same
/// targets-first property, but orders new neighbors by key. Used for
/// cross-checking and the ablation benchmark.
pub fn append_unique_sorted(targets: &[u64], neighbors: &[u64]) -> AppendUniqueResult {
    use std::collections::HashMap;
    let num_targets = targets.len();
    let target_index: HashMap<u64, u32> = targets
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    assert_eq!(target_index.len(), num_targets, "duplicate target nodes");

    let mut sorted: Vec<u64> = neighbors
        .iter()
        .copied()
        .filter(|k| !target_index.contains_key(k))
        .collect();
    sorted.sort_unstable();
    sorted.dedup();

    let mut unique = Vec::with_capacity(num_targets + sorted.len());
    unique.extend_from_slice(targets);
    unique.extend_from_slice(&sorted);

    let id_of = |key: u64| -> u32 {
        if let Some(&i) = target_index.get(&key) {
            i
        } else {
            num_targets as u32 + sorted.binary_search(&key).expect("missing neighbor") as u32
        }
    };
    let neighbor_ids: Vec<u32> = neighbors.iter().map(|&k| id_of(k)).collect();
    let mut dup_count = vec![0u32; unique.len()];
    for &id in &neighbor_ids {
        dup_count[id as usize] += 1;
    }
    AppendUniqueResult {
        unique,
        num_targets,
        neighbor_ids,
        dup_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// Shared invariants both implementations must satisfy.
    fn check_invariants(targets: &[u64], neighbors: &[u64], r: &AppendUniqueResult) {
        // Targets first, in order.
        assert_eq!(&r.unique[..targets.len()], targets);
        assert_eq!(r.num_targets, targets.len());
        // Unique list has no duplicates and covers targets ∪ neighbors.
        let set: HashSet<u64> = r.unique.iter().copied().collect();
        assert_eq!(set.len(), r.unique.len(), "unique list has duplicates");
        let expect: HashSet<u64> = targets.iter().chain(neighbors).copied().collect();
        assert_eq!(set, expect, "unique set mismatch");
        // Every neighbor remaps to its own key.
        assert_eq!(r.neighbor_ids.len(), neighbors.len());
        for (&n, &id) in neighbors.iter().zip(&r.neighbor_ids) {
            assert_eq!(r.unique[id as usize], n, "bad remap for {n}");
        }
        // Duplicate counts total the neighbor list length and match a
        // scalar count.
        let total: u32 = r.dup_count.iter().sum();
        assert_eq!(total as usize, neighbors.len());
        let mut hist: HashMap<u64, u32> = HashMap::new();
        for &n in neighbors {
            *hist.entry(n).or_insert(0) += 1;
        }
        for (i, &key) in r.unique.iter().enumerate() {
            assert_eq!(
                r.dup_count[i],
                hist.get(&key).copied().unwrap_or(0),
                "dup count of {key}"
            );
        }
    }

    #[test]
    fn figure5_example() {
        // Four targets T0..T3, neighbors with duplicates and overlap with
        // the target set.
        let targets = [100u64, 200, 300, 400];
        let neighbors = [500u64, 200, 500, 600, 100, 700, 700, 700];
        let r = append_unique(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &r);
        // 4 targets + {500, 600, 700} new neighbors.
        assert_eq!(r.num_unique(), 7);
        // Targets sampled as neighbors keep their target IDs.
        assert_eq!(r.neighbor_ids[1], 1); // 200 -> T1
        assert_eq!(r.neighbor_ids[4], 0); // 100 -> T0
                                          // 700 was sampled three times.
        let id700 = r.neighbor_ids[5] as usize;
        assert_eq!(r.dup_count[id700], 3);
    }

    #[test]
    fn no_neighbors() {
        let targets = [1u64, 2, 3];
        let r = append_unique(&targets, &[]);
        check_invariants(&targets, &[], &r);
        assert_eq!(r.num_unique(), 3);
        assert_eq!(r.dup_count, vec![0, 0, 0]);
    }

    #[test]
    fn all_neighbors_are_targets() {
        let targets = [10u64, 20];
        let neighbors = [20u64, 10, 20];
        let r = append_unique(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &r);
        assert_eq!(r.num_unique(), 2);
        assert_eq!(r.dup_count, vec![1, 2]);
    }

    #[test]
    fn sorted_baseline_agrees_on_set_and_counts() {
        let targets = [7u64, 3, 11];
        let neighbors = [5u64, 5, 3, 9, 11, 9, 9];
        let a = append_unique(&targets, &neighbors);
        let b = append_unique_sorted(&targets, &neighbors);
        check_invariants(&targets, &neighbors, &a);
        check_invariants(&targets, &neighbors, &b);
        let sa: HashSet<u64> = a.unique.iter().copied().collect();
        let sb: HashSet<u64> = b.unique.iter().copied().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_rejected() {
        append_unique(&[1, 1], &[]);
    }

    /// The unique list, IDs, and counts must not depend on scheduling:
    /// parallel runs must equal the forced-sequential run bit-for-bit, and
    /// new neighbors must come out in first-occurrence order.
    #[test]
    fn parallel_output_is_deterministic_and_first_occurrence_ordered() {
        rayon::init_threads(4);
        let targets: Vec<u64> = (1000..1040).collect();
        // Dense duplicates + overlap with the target range, scrambled.
        let neighbors: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(2654435761) % 97 + 990)
            .collect();
        let seq = rayon::run_sequential(|| append_unique(&targets, &neighbors));
        check_invariants(&targets, &neighbors, &seq);
        for _ in 0..3 {
            let par = append_unique(&targets, &neighbors);
            assert_eq!(par.unique, seq.unique, "unique order depends on schedule");
            assert_eq!(par.neighbor_ids, seq.neighbor_ids);
            assert_eq!(par.dup_count, seq.dup_count);
        }
        // New neighbors appear in input first-occurrence order.
        let target_set: HashSet<u64> = targets.iter().copied().collect();
        let mut expect = Vec::new();
        let mut seen = HashSet::new();
        for &n in &neighbors {
            if !target_set.contains(&n) && seen.insert(n) {
                expect.push(n);
            }
        }
        assert_eq!(&seq.unique[targets.len()..], &expect[..]);
    }

    /// A reused scratch (storage larger than needed, dirty past the active
    /// region) must produce bit-identical output to a fresh one: IDs are
    /// keyed on first-occurrence watermarks, never on slot positions, so
    /// table size cannot leak into results.
    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let mut scratch = AppendUniqueScratch::default();
        let (mut unique, mut ids, mut dups) = (Vec::new(), Vec::new(), Vec::new());
        // Warm the scratch with a *large* input first so later runs reuse
        // storage longer than their active region.
        let big_targets: Vec<u64> = (5000..5400).collect();
        let big_neighbors: Vec<u64> = (0..20_000u64).map(|i| i % 1777).collect();
        append_unique_into(
            &big_targets,
            &big_neighbors,
            &mut scratch,
            &mut unique,
            &mut ids,
            &mut dups,
        );
        for round in 0..3u64 {
            let targets: Vec<u64> = (100 + round..140 + round).collect();
            let neighbors: Vec<u64> = (0..3000u64)
                .map(|i| (i * 2654435761 + round) % 211 + 90)
                .collect();
            let fresh = append_unique(&targets, &neighbors);
            append_unique_into(
                &targets,
                &neighbors,
                &mut scratch,
                &mut unique,
                &mut ids,
                &mut dups,
            );
            assert_eq!(unique, fresh.unique, "round {round}");
            assert_eq!(ids, fresh.neighbor_ids, "round {round}");
            assert_eq!(dups, fresh.dup_count, "round {round}");
        }
    }

    /// Shrinking and regrowing the active region inside retained storage
    /// must not leak state: the medium call re-activates slots that the
    /// first (big) call dirtied and the small call never wiped.
    #[test]
    fn shrink_then_regrow_within_storage_is_bit_identical_to_fresh() {
        let input = |n_targets: u64, n_neighbors: u64, modulus: u64| {
            let targets: Vec<u64> = (1_000_000..1_000_000 + n_targets).collect();
            let neighbors: Vec<u64> = (0..n_neighbors)
                .map(|i| i.wrapping_mul(2654435761) % modulus)
                .collect();
            (targets, neighbors)
        };
        let mut scratch = AppendUniqueScratch::default();
        let (mut unique, mut ids, mut dups) = (Vec::new(), Vec::new(), Vec::new());
        let mut slots = Vec::new();
        for (n_targets, n_neighbors, modulus) in [
            (400, 20_000, 9_001), // big
            (40, 3_000, 701),     // small
            (200, 12_000, 5_003), // medium
            (400, 20_000, 9_001), // big again
        ] {
            let (targets, neighbors) = input(n_targets, n_neighbors, modulus);
            let fresh = append_unique(&targets, &neighbors);
            append_unique_into(
                &targets,
                &neighbors,
                &mut scratch,
                &mut unique,
                &mut ids,
                &mut dups,
            );
            assert_eq!(unique, fresh.unique, "{n_neighbors} neighbors");
            assert_eq!(ids, fresh.neighbor_ids, "{n_neighbors} neighbors");
            assert_eq!(dups, fresh.dup_count, "{n_neighbors} neighbors");
            slots.push(scratch.table.num_slots());
        }
        assert!(
            slots[1] < slots[2] && slots[2] < slots[0] && slots[3] == slots[0],
            "active sizes {slots:?} do not shrink and regrow"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn invariants_hold_for_random_inputs(
            raw_targets in prop::collection::hash_set(0u64..500, 1..40),
            neighbors in prop::collection::vec(0u64..500, 0..400),
        ) {
            let targets: Vec<u64> = raw_targets.into_iter().collect();
            let r = append_unique(&targets, &neighbors);
            check_invariants(&targets, &neighbors, &r);
            let s = append_unique_sorted(&targets, &neighbors);
            check_invariants(&targets, &neighbors, &s);
            prop_assert_eq!(r.num_unique(), s.num_unique());
        }
    }
}
