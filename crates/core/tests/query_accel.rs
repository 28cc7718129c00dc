//! Differential suite for the query-acceleration subsystem: a structure
//! built with Bloom filters disabled (`bloom_bits(0)`) and one built with
//! filters enabled must return **byte-identical** answers to every query on
//! every workload — filters and fences are conservative accelerators, never
//! semantics.
//!
//! Both sides set `bloom_bits` explicitly, so the `LSM_BLOOM_BITS`
//! environment (the CI filters-off job sets 0) changes neither of them.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_lsm::{GpuLsm, LsmConfig, Op, ShardedLsm, UpdateBatch, MAX_KEY};
use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

/// Filters *off*.
fn filters_off() -> LsmConfig {
    LsmConfig::default().bloom_bits(0)
}

/// Filters *on*, at the default sizing.
fn filters_on() -> LsmConfig {
    LsmConfig::default().bloom_bits(DEFAULT_BITS_PER_KEY)
}

/// Compare every query surface of two structures that must hold identical
/// data: adaptive/individual/bulk lookups, counts, ranges (full layout,
/// offsets included) and order queries.
fn assert_identical_answers(off: &GpuLsm, on: &GpuLsm, key_domain: u32) {
    let queries: Vec<u32> = (0..key_domain).step_by(3).chain([0, key_domain]).collect();
    assert_eq!(
        off.lookup_individual(&queries),
        on.lookup_individual(&queries)
    );
    assert_eq!(off.bulk_get(&queries), on.bulk_get(&queries));
    assert_eq!(off.lookup(&queries), on.lookup(&queries));
    let intervals: Vec<(u32, u32)> = vec![
        (0, key_domain / 4),
        (key_domain / 4, key_domain / 2),
        (key_domain / 2, key_domain),
        (0, MAX_KEY),
        (key_domain, 5), // inverted
        (7, 7),
    ];
    assert_eq!(off.count(&intervals), on.count(&intervals));
    assert_eq!(off.range(&intervals), on.range(&intervals));
    let points: Vec<u32> = (0..key_domain).step_by(17).collect();
    assert_eq!(off.successor(&points), on.successor(&points));
    assert_eq!(off.predecessor(&points), on.predecessor(&points));
}

/// A batch of operations with distinct keys, generated by proptest.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mixed insert/delete sequences applied batch-by-batch to a
    /// filters-off and a filters-on structure: every query answer and the
    /// reference model must agree after every batch.
    #[test]
    fn filters_on_and_off_are_byte_identical(
        batches in proptest::collection::vec(arb_batch(48, 600), 1..8)
    ) {
        let batch_size = 48;
        let mut off = GpuLsm::with_config(device(), batch_size, &filters_off()).unwrap();
        let mut on = GpuLsm::with_config(device(), batch_size, &filters_on()).unwrap();
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();

        for ops in &batches {
            let mut batch = UpdateBatch::new();
            for op in ops {
                batch.push(*op);
                match op {
                    Op::Insert(k, v) => { reference.insert(*k, *v); }
                    Op::Delete(k) => { reference.remove(k); }
                }
            }
            off.update(&batch).unwrap();
            on.update(&batch).unwrap();
            assert_identical_answers(&off, &on, 600);
        }

        // Spot-check against the reference model so "identical" can never
        // mean "identically wrong".
        let queries: Vec<u32> = (0..600).collect();
        let results = on.lookup(&queries);
        for (q, got) in queries.iter().zip(results.iter()) {
            prop_assert_eq!(*got, reference.get(q).copied(), "lookup({})", q);
        }
        on.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
        off.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

#[test]
fn bulk_build_and_cleanup_paths_are_differentially_identical() {
    // 3000 pairs at b = 512 → 6 batches → levels 1 (1024) and 2 (2048),
    // both above the long-lived filter threshold, so the filters-on side
    // really carries filters here.
    let pairs: Vec<(u32, u32)> = (0..3000u32).map(|k| (k * 7 % 5000, k)).collect();
    let mut off = GpuLsm::bulk_build_with_config(device(), 512, &pairs, &filters_off()).unwrap();
    let mut on = GpuLsm::bulk_build_with_config(device(), 512, &pairs, &filters_on()).unwrap();
    assert!(
        on.stats().filter_bytes > 0,
        "bulk-built levels must carry filters when enabled"
    );
    assert_eq!(off.stats().filter_bytes, 0);
    assert_identical_answers(&off, &on, 5000);

    // Delete a stripe, then cleanup (the other filter-building rebuild
    // path); answers must stay identical through both.
    let doomed: Vec<u32> = (0..512u32).map(|i| i * 9 % 5000).collect();
    off.delete(&doomed).unwrap();
    on.delete(&doomed).unwrap();
    assert_identical_answers(&off, &on, 5000);
    off.cleanup();
    on.cleanup();
    assert_identical_answers(&off, &on, 5000);
    on.check_invariants().unwrap();

    // The filters-on side actually consulted (and skipped with) its
    // filters during the miss-heavy query batches above.
    let stats = on.stats();
    assert!(stats.filter_probes > 0, "filters were never consulted");
    assert!(stats.filter_skips > 0, "filters never skipped a level");
    assert!(stats.fence_bytes > 0, "fences exist on both sides");
}

#[test]
fn sharded_service_is_differentially_identical() {
    let pairs: Vec<(u32, u32)> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) & 0x7FFF_FFFF, i))
        .collect();
    // Insert, then clean up: the cleanup rebuilds every shard into
    // long-lived levels, which carry filters from 1024 elements up.
    let build = |config: LsmConfig| {
        let lsm = ShardedLsm::with_config(device(), 512, 4, config).unwrap();
        for chunk in pairs.chunks(512) {
            lsm.insert(chunk).unwrap();
        }
        lsm.cleanup();
        lsm
    };
    let (off, on) = (build(filters_off()), build(filters_on()));
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).chain(0..100).collect();
    assert_eq!(off.lookup(&keys), on.lookup(&keys));
    let intervals: Vec<(u32, u32)> = (0..16)
        .map(|i| (i * (MAX_KEY / 16), (i + 1) * (MAX_KEY / 16)))
        .collect();
    assert_eq!(off.count(&intervals), on.count(&intervals));
    assert_eq!(off.range(&intervals), on.range(&intervals));
    let probes: Vec<u32> = (0..8).map(|i| i * (MAX_KEY / 8) + 13).collect();
    assert_eq!(off.successor(&probes), on.successor(&probes));
    assert_eq!(off.predecessor(&probes), on.predecessor(&probes));
    assert!(on.stats().filter_bytes > 0);
    assert_eq!(off.stats().filter_bytes, 0);
    on.check_invariants().unwrap();
}

/// 64 batches of 4096: the carry chain ends in one 2^18-element level,
/// large enough to get a filter when the structure's sizing asks for one.
fn fill_to_one_large_level(lsm: &mut GpuLsm) {
    for b in 0..64u32 {
        let pairs: Vec<(u32, u32)> = (0..4096u32).map(|i| (b * 4096 + i, i)).collect();
        lsm.insert(&pairs).unwrap();
    }
}

/// Building a filters-off structure must not switch filters off for one
/// built earlier on the same device.
#[test]
fn later_structure_does_not_change_earlier_filter_sizing() {
    let device = device();
    let mut a = GpuLsm::with_config(device.clone(), 4096, &filters_on()).unwrap();
    let _b = GpuLsm::with_config(device, 4096, &filters_off()).unwrap();
    fill_to_one_large_level(&mut a);
    assert!(
        a.stats().filter_bytes > 0,
        "A lost its filters to B's config"
    );
}

/// ... and building a filters-on structure must not switch them on for an
/// earlier filters-off one.
#[test]
fn later_structure_does_not_enable_filters_on_earlier_one() {
    let device = device();
    let mut b = GpuLsm::with_config(device.clone(), 4096, &filters_off()).unwrap();
    let _a = GpuLsm::with_config(device, 4096, &filters_on()).unwrap();
    fill_to_one_large_level(&mut b);
    assert_eq!(
        b.stats().filter_bytes,
        0,
        "B gained filters from A's config"
    );
}
