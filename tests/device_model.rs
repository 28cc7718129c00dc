//! Tests of the substrate's accounting: every LSM operation must leave a
//! faithful trace in the device's traffic metrics, memory tracker and cost
//! model — that accounting is what makes the reproduction's "modelled K40c
//! time" meaningful.

use std::sync::Arc;

use gpu_lsm::GpuLsm;
use gpu_sim::{Device, DeviceConfig};
use lsm_workloads::unique_random_pairs;

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

#[test]
fn insertion_records_sort_and_merge_traffic() {
    let dev = device();
    let mut lsm = GpuLsm::new(dev.clone(), 512).unwrap();
    for chunk in unique_random_pairs(4 * 512, 1).chunks(512) {
        lsm.insert(chunk).unwrap();
    }
    let snapshot = dev.metrics().snapshot();
    // The batch sort and the carry-chain merges must both appear.  Batches
    // of 512 are below the radix sort's comparison cutoff, so the sort
    // traffic shows up under the small-sort kernel.
    assert!(
        snapshot.contains_key("radix_small_sort"),
        "missing batch sort traffic"
    );
    assert!(snapshot.contains_key("merge"), "missing merge traffic");
    // Inserting 4 batches triggers 3 carry merges (r: 1, 10, 11, 100).
    assert_eq!(snapshot["merge"].launches, 3);
    // All of this is streaming traffic, so the bandwidth term dominates.
    let est = dev.estimated_time();
    assert!(est.total_seconds > 0.0);
    assert!(est.bandwidth_seconds >= est.latency_seconds);
}

#[test]
fn lookups_are_charged_as_scattered_probes() {
    let dev = device();
    let pairs = unique_random_pairs(8 * 1024, 2);
    let lsm = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    dev.reset_counters();
    let queries: Vec<u32> = pairs.iter().take(2048).map(|&(k, _)| k).collect();
    // Pin the individual path: the adaptive `lookup` may legitimately
    // reroute a batch this large through the bulk sorted kernel, whose
    // traffic is charged under a different name.
    let _ = lsm.lookup_individual(&queries);
    let snapshot = dev.metrics().snapshot();
    let lookup = &snapshot["lsm_lookup"];
    assert!(
        lookup.scattered_transactions > 0,
        "lookups must pay random-access probes"
    );
    assert!(lookup.scattered_read_bytes > 0);
    // Probes per query are bounded by levels × log2(level size); the
    // fence-narrowed searches must come in at or under that.
    let max_probes = lsm.worst_case_lookup_probes() as u64 * queries.len() as u64;
    assert!(lookup.scattered_transactions <= max_probes);
}

#[test]
fn filter_probes_are_charged_as_coalesced_block_reads() {
    let dev = device();
    // Bulk-built levels of this size carry Bloom filters; an all-miss
    // batch must be answered mostly by single-block filter reads, with far
    // fewer scattered probes than the unfiltered worst case.
    let pairs = unique_random_pairs(8 * 1024, 7);
    let lsm = GpuLsm::bulk_build(dev.clone(), 1024, &pairs).unwrap();
    let resident: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let misses = lsm_workloads::missing_lookups(&resident, 2048, 8);
    dev.reset_counters();
    let results = lsm.lookup_individual(&misses);
    assert!(results.iter().all(|r| r.is_none()));
    let snapshot = dev.metrics().snapshot();
    let lookup = &snapshot["lsm_lookup"];
    let stats = lsm.stats();
    if stats.filter_bytes > 0 {
        assert!(
            lookup.coalesced_read_bytes >= misses.len() as u64 * 64,
            "each filter consultation is one coalesced cache-line read"
        );
        assert!(stats.filter_probes >= misses.len() as u64);
        assert!(
            stats.filter_skips > 0,
            "misses should be skipped by filters"
        );
        // Only false positives fall through to binary searches.
        let max_probes = lsm.worst_case_lookup_probes() as u64 * misses.len() as u64;
        assert!(
            lookup.scattered_transactions < max_probes / 2,
            "filters must absorb most miss probes: {} vs worst case {}",
            lookup.scattered_transactions,
            max_probes
        );
    }
}

#[test]
fn estimated_device_time_scales_with_problem_size() {
    let dev = device();
    let small = unique_random_pairs(1 << 12, 3);
    let large = unique_random_pairs(1 << 15, 3);
    let _ = GpuLsm::bulk_build(dev.clone(), 1 << 10, &small).unwrap();
    let t_small = dev.estimated_time().total_seconds;
    dev.reset_counters();
    let _ = GpuLsm::bulk_build(dev.clone(), 1 << 10, &large).unwrap();
    let t_large = dev.estimated_time().total_seconds;
    assert!(
        t_large > t_small * 4.0,
        "8x the data should cost clearly more modelled time ({t_small} vs {t_large})"
    );
}

#[test]
fn memory_footprint_follows_the_structure_lifecycle() {
    let dev = device();
    let pairs = unique_random_pairs(1 << 14, 4);
    let mut lsm = GpuLsm::bulk_build(dev.clone(), 1 << 11, &pairs).unwrap();
    let after_build = lsm.memory_bytes();
    assert!(
        after_build >= pairs.len() * 8,
        "keys + values must be resident"
    );
    // Replacing every key doubles the resident data until cleanup.
    for chunk in pairs.chunks(1 << 11) {
        lsm.insert(chunk).unwrap();
    }
    let with_stale = lsm.memory_bytes();
    assert!(
        with_stale >= 2 * after_build - 64,
        "stale copies occupy memory"
    );
    lsm.cleanup();
    let after_cleanup = lsm.memory_bytes();
    assert!(
        after_cleanup < with_stale,
        "cleanup must shrink the footprint"
    );
    assert!(after_cleanup >= pairs.len() * 8);
}

#[test]
fn per_phase_timers_record_the_pipeline_stages() {
    let dev = device();
    // Three batches leave levels 0 and 1 occupied, so the cleanup pass has
    // levels to merge.
    let pairs = unique_random_pairs(3 << 11, 5);
    let mut lsm = GpuLsm::new(dev.clone(), 1 << 11).unwrap();
    for chunk in pairs.chunks(1 << 11) {
        lsm.insert(chunk).unwrap();
    }
    let _ = lsm.lookup(&[1, 2, 3]);
    let _ = lsm.count(&[(0, 1000)]);
    let _ = lsm.range(&[(0, 1000)]);
    lsm.cleanup();
    let phases = dev.timer().snapshot();
    for phase in [
        "insert::sort_batch",
        "insert::merge",
        "lookup",
        "count::gather",
        "count::validate",
        "range::gather",
        "range::validate",
        "cleanup::merge",
        "cleanup::multisplit",
    ] {
        assert!(phases.contains_key(phase), "missing phase timer: {phase}");
        assert!(phases[phase].count > 0);
    }
    assert!(dev.timer().total() > std::time::Duration::ZERO);
}

#[test]
fn cuckoo_and_sorted_array_share_the_same_accounting() {
    use gpu_baselines::{CuckooHashTable, SortedArray};
    let dev = device();
    let pairs = unique_random_pairs(1 << 13, 6);
    let sa = SortedArray::bulk_build(dev.clone(), &pairs);
    let cuckoo = CuckooHashTable::bulk_build(dev.clone(), &pairs);
    dev.reset_counters();
    let queries: Vec<u32> = pairs.iter().map(|&(k, _)| k).take(1024).collect();
    let _ = sa.lookup(&queries);
    let _ = cuckoo.lookup(&queries);
    let snap = dev.metrics().snapshot();
    assert!(snap.contains_key("sa_lookup"));
    assert!(snap.contains_key("cuckoo_lookup"));
    // The sorted array's binary searches probe more than the cuckoo table's
    // constant number of buckets — the very asymmetry Table III measures.
    assert!(
        snap["sa_lookup"].scattered_transactions > snap["cuckoo_lookup"].scattered_transactions,
        "SA probes {} should exceed cuckoo probes {}",
        snap["sa_lookup"].scattered_transactions,
        snap["cuckoo_lookup"].scattered_transactions
    );
}
