//! Ablation benchmarks for design choices called out in DESIGN.md:
//!
//! * **Status bit in the key LSB** (paper §IV-A) versus keeping a separate
//!   flag array: the encoded form sorts and merges a single 32-bit stream,
//!   the split form must move two streams and consult both.
//! * **Merge-based insertion** versus **re-sorting the whole array** for the
//!   sorted-array baseline (the two update strategies §V-A mentions).
//! * **Key-only versus key–value merges**: the cost of moving values along
//!   with their keys in the LSM's carry chain.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_baselines::SortedArray;
use gpu_primitives::{merge::merge_by, merge::merge_pairs_by, radix_sort};
use lsm_bench::experiments::experiment_device;
use lsm_workloads::unique_random_pairs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1 << 17;

/// Encoded representation: status bit packed into the key LSB.
fn bench_status_bit_encoding(c: &mut Criterion) {
    let device = experiment_device();
    let mut rng = StdRng::seed_from_u64(5);
    let keys: Vec<u32> = (0..N).map(|_| rng.gen::<u32>() >> 1).collect();
    let flags: Vec<bool> = (0..N).map(|i| i % 10 != 0).collect();
    let values: Vec<u32> = (0..N as u32).collect();

    let mut group = c.benchmark_group("ablation_status_bit");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(N as u64));

    // Packed: sort one key stream whose LSB is the status bit.
    group.bench_function("packed_lsb_sort", |b| {
        b.iter_batched(
            || {
                let packed: Vec<u32> = keys
                    .iter()
                    .zip(flags.iter())
                    .map(|(&k, &f)| (k << 1) | f as u32)
                    .collect();
                (packed, values.clone())
            },
            |(mut k, mut v)| radix_sort::sort_pairs(&device, &mut k, &mut v),
            criterion::BatchSize::LargeInput,
        )
    });

    // Split: sort the key stream and carry the flags as a second value
    // stream (so two pair sorts' worth of data movement).
    group.bench_function("separate_flag_array_sort", |b| {
        b.iter_batched(
            || {
                let flag_words: Vec<u32> = flags.iter().map(|&f| f as u32).collect();
                (keys.clone(), values.clone(), flag_words)
            },
            |(mut k, mut v, mut fw)| {
                let mut k2 = k.clone();
                radix_sort::sort_pairs(&device, &mut k, &mut v);
                radix_sort::sort_pairs(&device, &mut k2, &mut fw);
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// SA insertion strategies: merge versus full re-sort.
fn bench_sa_merge_vs_resort(c: &mut Criterion) {
    let pairs = unique_random_pairs(N, 6);
    let batch = unique_random_pairs(N / 16, 7);
    let mut group = c.benchmark_group("ablation_sa_insert");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements((N / 16) as u64));
    group.bench_function("merge_insert", |b| {
        b.iter_batched(
            || SortedArray::bulk_build(experiment_device(), &pairs),
            |mut sa| sa.insert_batch(&batch),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("resort_insert", |b| {
        b.iter_batched(
            || SortedArray::bulk_build(experiment_device(), &pairs),
            |mut sa| sa.insert_batch_resort(&batch),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Key-only versus key–value merge cost.
fn bench_keys_vs_pairs_merge(c: &mut Criterion) {
    let device = experiment_device();
    let mut rng = StdRng::seed_from_u64(8);
    let mut a: Vec<u32> = (0..N).map(|_| rng.gen()).collect();
    let mut b_keys: Vec<u32> = (0..N).map(|_| rng.gen()).collect();
    a.sort_unstable();
    b_keys.sort_unstable();
    let vals: Vec<u32> = (0..N as u32).collect();

    let mut group = c.benchmark_group("ablation_merge_payload");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(2 * N as u64));
    group.bench_function("keys_only", |bench| {
        bench.iter(|| merge_by(&device, &a, &b_keys, |x, y| x < y))
    });
    group.bench_function("key_value_pairs", |bench| {
        bench.iter(|| merge_pairs_by(&device, &a, &vals, &b_keys, &vals, |x, y| x < y))
    });
    group.finish();
}

/// Individual (per-thread binary search) versus bulk (sort queries + sorted
/// search) lookups — the two strategies §IV-B weighs against each other.
fn bench_individual_vs_bulk_lookup(c: &mut Criterion) {
    use gpu_lsm::GpuLsm;
    let pairs = unique_random_pairs(N, 9);
    let lsm = GpuLsm::bulk_build(experiment_device(), 1 << 13, &pairs).unwrap();
    let queries: Vec<u32> = unique_random_pairs(1 << 15, 10)
        .iter()
        .map(|&(k, _)| k)
        .collect();

    let mut group = c.benchmark_group("ablation_lookup_strategy");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("individual_binary_search", |b| {
        b.iter(|| lsm.lookup(&queries))
    });
    group.bench_function("bulk_sorted_search", |b| b.iter(|| lsm.bulk_get(&queries)));
    group.finish();
}

criterion_group!(
    benches,
    bench_status_bit_encoding,
    bench_sa_merge_vs_resort,
    bench_keys_vs_pairs_merge,
    bench_individual_vs_bulk_lookup
);
criterion_main!(benches);
