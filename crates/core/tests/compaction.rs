//! Differential suite for the planner/executor write path: acceleration
//! structures maintained *incrementally* across carry-chain merges must be
//! semantically identical to structures rebuilt from scratch — fence
//! searches return the very same indices a rebuilt (or un-fenced) search
//! would, filters never produce a false negative — and the merge counters
//! must prove the incremental path is actually the one taken.
//!
//! The carry-chain filter threshold is a process-global test knob, so the
//! tests that force it serialise on a mutex and restore the default on
//! drop.  The filter sizing is set per structure (`bloom_bits`), so the
//! `LSM_BLOOM_BITS` environment does not reach the filter tests.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use gpu_lsm::level::set_carry_filter_min_len_override;
use gpu_lsm::{GpuLsm, LsmConfig, Op, UpdateBatch};
use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

/// Serialises the tests that force the carry-chain filter threshold and
/// restores the default on drop.
struct OverrideGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl OverrideGuard {
    fn lock() -> Self {
        static GATE: Mutex<()> = Mutex::new(());
        OverrideGuard(GATE.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_carry_filter_min_len_override(None);
    }
}

/// Filters on at the default sizing, whatever `LSM_BLOOM_BITS` says.
fn filters_on() -> LsmConfig {
    LsmConfig::default().bloom_bits(DEFAULT_BITS_PER_KEY)
}

/// Assert that every occupied level's incrementally maintained structures
/// answer exactly like structures rebuilt from the level's key array:
/// identical lower/upper bounds for a dense probe set (the "identical
/// search windows" property — the narrowed searches land on the very same
/// indices), exact min/max, and no filter false negatives.
fn assert_aux_matches_rebuilt(lsm: &GpuLsm) {
    for (i, level) in lsm.levels().iter_occupied() {
        let originals: Vec<u32> = level.keys().iter().map(|&k| k >> 1).collect();
        let lo = originals[0];
        let hi = originals[originals.len() - 1];
        let probes = (lo.saturating_sub(2)..=hi.saturating_add(2))
            .step_by(1.max((hi as usize - lo as usize) / 512))
            .chain([0, u32::MAX >> 1]);
        for q in probes {
            assert_eq!(
                level.lower_bound(q),
                originals.partition_point(|&k| k < q),
                "level {i} lower_bound({q})"
            );
            assert_eq!(
                level.upper_bound(q),
                originals.partition_point(|&k| k <= q),
                "level {i} upper_bound({q})"
            );
        }
        assert_eq!(level.min_key(), lo, "level {i} min");
        assert_eq!(level.max_key(), hi, "level {i} max");
        if let Some(filter) = level.filter() {
            for &k in &originals {
                assert!(
                    filter.contains(k),
                    "level {i}: filter false negative for resident key {k}"
                );
            }
        }
    }
    lsm.check_invariants().expect("structural invariants");
}

/// A mixed batch with distinct keys (order-independent semantics, so the
/// BTreeMap reference model is exact).
fn arb_batch(batch_size: usize, key_domain: u32) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::btree_map(0..key_domain, (any::<bool>(), any::<u32>()), 1..=batch_size)
        .prop_map(|m| {
            m.into_iter()
                .map(|(k, (is_delete, v))| {
                    if is_delete {
                        Op::Delete(k)
                    } else {
                        Op::Insert(k, v)
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Drive a structure through enough batches for multi-step carries and
    /// check after every batch that the merged fences/filters are
    /// semantically identical to rebuilt ones, and the structure agrees
    /// with a reference model.
    #[test]
    fn prop_incremental_aux_is_semantically_identical(
        batches in proptest::collection::vec(arb_batch(48, 4_000), 5..14)
    ) {
        let mut lsm = GpuLsm::new(device(), 48).unwrap();
        let mut model: BTreeMap<u32, Option<u32>> = BTreeMap::new();
        for ops in &batches {
            let mut batch = UpdateBatch::new();
            for op in ops {
                batch.push(*op);
                match *op {
                    Op::Insert(k, v) => { model.insert(k, Some(v)); }
                    Op::Delete(k) => { model.insert(k, None); }
                }
            }
            lsm.update(&batch).unwrap();
            assert_aux_matches_rebuilt(&lsm);
        }
        let queries: Vec<u32> = (0..4_000).step_by(7).collect();
        let expected: Vec<Option<u32>> = queries
            .iter()
            .map(|k| model.get(k).copied().flatten())
            .collect();
        prop_assert_eq!(lsm.lookup(&queries), expected);
        // The carry chain ran and took the incremental fence path.
        let merges = lsm.stats().merges;
        prop_assert!(merges.carry_merge_steps > 0);
        prop_assert!(merges.fence_merges > 0);
        prop_assert_eq!(
            merges.fence_merges + merges.fence_rebuilds,
            merges.carry_merge_steps
        );
    }
}

#[test]
fn deep_carry_chains_stay_exact_and_respect_the_window_guard() {
    // 64 batches of 64: carries up to depth 6.  Fence merging widens the
    // worst-case window each step; the executor must either keep it under
    // the guard or rebuild — so no resident level may ever carry a window
    // wider than the guard, and the bounds must stay exact throughout.
    let mut lsm = GpuLsm::new(device(), 64).unwrap();
    for b in 0..64u32 {
        let pairs: Vec<(u32, u32)> = (0..64u32).map(|i| ((i * 131 + b * 7) % 4096, b)).collect();
        let mut batch = UpdateBatch::new();
        let mut seen = std::collections::HashSet::new();
        for (k, v) in pairs {
            if seen.insert(k) {
                batch.insert(k, v);
            }
        }
        lsm.update(&batch).unwrap();
        assert_aux_matches_rebuilt(&lsm);
        for (i, level) in lsm.levels().iter_occupied() {
            let fences = level.fences().expect("every level carries fences");
            assert!(
                fences.max_window() <= gpu_lsm::compaction::FENCE_MERGE_MAX_WINDOW,
                "level {i} window {} exceeds the merge guard",
                fences.max_window()
            );
        }
    }
    let merges = lsm.stats().merges;
    assert_eq!(merges.carry_merge_steps, 63); // Σ carry depths for r = 1..=64
    assert!(merges.fence_merges > 0, "shallow carries merge fences");
    assert_eq!(merges.fence_merges + merges.fence_rebuilds, 63);
}

#[test]
fn incremental_filter_maintenance_is_taken_and_exact() {
    let _guard = OverrideGuard::lock();
    // Force carry-chain levels to build filters from 128 elements up, so
    // the final merge step of every deep-enough carry re-uses the consumed
    // level's filter instead of rebuilding.
    set_carry_filter_min_len_override(Some(128));

    let mut lsm = GpuLsm::with_config(device(), 128, &filters_on()).unwrap();
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    for b in 0..16u32 {
        let pairs: Vec<(u32, u32)> = (0..128u32)
            .map(|i| ((b * 997 + i * 13) % 60_000, b * 1000 + i))
            .collect();
        let mut batch = UpdateBatch::new();
        let mut seen = std::collections::HashSet::new();
        for (k, v) in pairs {
            if seen.insert(k) {
                batch.insert(k, v);
                model.insert(k, v);
            }
        }
        lsm.update(&batch).unwrap();
        assert_aux_matches_rebuilt(&lsm);
    }
    let merges = lsm.stats().merges;
    // The planner asked for filters on every carry output (>= 128
    // elements); the incremental path (one-sided re-hash of the buffer's
    // keys into the consumed level's filter) must have produced at least
    // some of them.
    assert!(
        merges.filter_rehashes > 0,
        "incremental filter path never taken: {merges:?}"
    );
    assert!(
        merges.incremental_events() > merges.filter_rebuilds,
        "incremental maintenance should dominate rebuilds: {merges:?}"
    );
    // And the filtered structure still answers exactly.
    let queries: Vec<u32> = (0..60_000).step_by(31).collect();
    let expected: Vec<Option<u32>> = queries.iter().map(|k| model.get(k).copied()).collect();
    assert_eq!(lsm.lookup_individual(&queries), expected);
    assert_eq!(lsm.bulk_get(&queries), expected);
}

#[test]
fn planner_decides_filters_before_data_moves() {
    let _guard = OverrideGuard::lock();
    set_carry_filter_min_len_override(Some(256));

    let mut lsm = GpuLsm::with_config(device(), 128, &filters_on()).unwrap();
    // First batch lands at level 0 (128 < 256): plan says no filter.
    let plan = lsm.plan_next_insert();
    assert!(!plan.build_filter);
    assert_eq!(plan.output_len, 128);
    lsm.insert(&(0..128u32).map(|k| (k, k)).collect::<Vec<_>>())
        .unwrap();
    assert!(lsm.levels().get(0).unwrap().filter().is_none());
    // Second batch merges into level 1 (256 >= 256): plan wants a filter
    // and the executor must deliver one.
    let plan = lsm.plan_next_insert();
    assert!(plan.build_filter);
    assert_eq!(plan.target_level, 1);
    assert_eq!(plan.output_len, 256);
    lsm.insert(&(128..256u32).map(|k| (k, k)).collect::<Vec<_>>())
        .unwrap();
    let level = lsm.levels().get(1).unwrap();
    assert!(level.filter().is_some());
    // No filter inputs existed, so this one was a counted rebuild.
    assert_eq!(lsm.stats().merges.filter_rebuilds, 1);
}
