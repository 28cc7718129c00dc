//! Bulk lookup queries.
//!
//! Each query is independent (the paper's "individual approach", §IV-B): a
//! thread walks the occupied levels from the smallest (most recent) to the
//! largest, probing each level for the key.  The first element found with a
//! matching key decides the outcome — a regular element returns its value,
//! a tombstone means the key was deleted — because the building invariants
//! of §III-D order equal keys newest-first within a level and newer levels
//! are searched first.
//!
//! ## Query acceleration
//!
//! Per-level probes are accelerated by the structures every [`Level`]
//! carries (see [`crate::level`]): a blocked Bloom filter answers
//! "definitely absent" with a single cache-line read — the common case for
//! misses, which otherwise pay the full `O(levels · log n)` — and a fence
//! array narrows the remaining binary searches to one ≤ 256-element window.
//! Both are conservative, so results are bit-identical to plain searches.
//!
//! [`GpuLsm::lookup`] additionally **adapts between the two batch
//! strategies** the paper compares: below a calibrated query-count
//! threshold it runs the individual approach; above it, it switches to
//! [`GpuLsm::bulk_get`], which sorts the queries once and then
//! streams every level with coalesced accesses — profitable exactly when
//! the batch is large relative to the structure
//! (see [`GpuLsm::bulk_lookup_threshold`]).
//!
//! [`Level`]: crate::level::Level

use std::sync::OnceLock;

use gpu_primitives::filter::BLOCK_BYTES;
use gpu_sim::AccessPattern;
use rayon::prelude::*;

use crate::key::{is_regular, original_key, Key, Value};
use crate::lsm::GpuLsm;

/// Never dispatch to the bulk sorted path below this many queries: the
/// query sort has a fixed per-launch cost that tiny batches cannot win
/// back, whatever the structure size.
const MIN_BULK_QUERIES: usize = 256;

/// Default warp-group width for [`GpuLsm::bulk_get`]: sorted queries march
/// through the levels in groups of this many, sharing one fence descent
/// and one coalesced block sweep per group — the CPU analogue of a GPU
/// warp resolving 64 neighbouring needles with shared loads.
pub(crate) const DEFAULT_BULK_GROUP: usize = 64;

/// Per-query cost trace of one individual lookup, accumulated into the
/// device's traffic metrics and the structure's filter counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LookupTrace {
    /// Bloom filter blocks read (one coalesced cache-line read each).
    pub filter_blocks: u64,
    /// Levels skipped outright by a filter negative.
    pub filter_skips: u64,
    /// Scattered binary-search probes performed.
    pub search_probes: u64,
}

/// Calibrated per-scattered-probe and per-streamed-element costs (ns),
/// measured once per process the same way the worker pool's sequential
/// cutoff is (PR 2): tiny representative kernels timed at startup, pinned
/// behind a `OnceLock`.
fn lookup_costs() -> (f64, f64) {
    static COSTS: OnceLock<(f64, f64)> = OnceLock::new();
    *COSTS.get_or_init(|| {
        let n: usize = 1 << 16;
        let data: Vec<u32> = (0..n as u32).map(|i| i * 2).collect();
        // Scattered cost: data-dependent binary searches with pseudo-random
        // probes, charged per probe (log2 n probes per search).
        let searches = 1usize << 12;
        let mut acc = 0usize;
        let mut x = 0x9E37_79B9u32;
        let start = std::time::Instant::now();
        for _ in 0..searches {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            acc += data.partition_point(|&k| k < (x >> 15));
        }
        std::hint::black_box(acc);
        let probes = searches as u32 * (usize::BITS - n.leading_zeros());
        let probe_ns = start.elapsed().as_nanos() as f64 / f64::from(probes);
        // Streaming cost: one linear reduction pass, charged per element.
        let start = std::time::Instant::now();
        let sum: u64 = std::hint::black_box(data.as_slice())
            .iter()
            .map(|&k| u64::from(k))
            .sum();
        std::hint::black_box(sum);
        let stream_ns = start.elapsed().as_nanos() as f64 / n as f64;
        (probe_ns.max(0.1), stream_ns.max(0.01))
    })
}

/// Calibrated per-element cost (ns) of radix-sorting a query batch — the
/// bulk path's dominant per-query toll, paid before it streams any level —
/// measured directly on a throwaway device.
fn sort_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let device = gpu_sim::Device::new(gpu_sim::DeviceConfig::small());
        let n: usize = 1 << 13;
        let mut keys: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut values: Vec<u32> = (0..n as u32).collect();
        let start = std::time::Instant::now();
        gpu_primitives::radix_sort::sort_pairs(&device, &mut keys, &mut values);
        std::hint::black_box(&keys);
        (start.elapsed().as_nanos() as f64 / n as f64).max(0.5)
    })
}

impl GpuLsm {
    /// Look up a batch of keys in parallel.  Returns, for each query key,
    /// `Some(value)` of the most recent insertion if the key is present and
    /// not deleted, `None` otherwise.
    ///
    /// Dispatches adaptively: batches smaller than
    /// [`GpuLsm::bulk_lookup_threshold`] run the individual per-thread
    /// binary-search approach ([`GpuLsm::lookup_individual`]); larger
    /// batches switch to the sorted bulk approach
    /// ([`GpuLsm::bulk_get`]).  Both return identical results.
    pub fn lookup(&self, queries: &[Key]) -> Vec<Option<Value>> {
        if queries.len() >= self.bulk_lookup_threshold() {
            self.bulk_get(queries)
        } else {
            self.lookup_individual(queries)
        }
    }

    /// The query count at which [`GpuLsm::lookup`] switches to the bulk
    /// sorted path for the structure's *current* shape.
    ///
    /// Derived from the same style of per-process calibration as the worker
    /// pool's sequential cutoff: with calibrated scattered-probe, streaming
    /// and query-sort costs, the individual approach costs about
    /// `Σ per-level probe depth · c_probe` per query while the bulk
    /// approach costs `n · c_stream` once plus sort/stream work per query —
    /// the threshold is where the two lines cross, floored at a minimum
    /// batch size.
    pub fn bulk_lookup_threshold(&self) -> usize {
        let n = self.num_resident_elements();
        if n == 0 {
            return usize::MAX;
        }
        let levels = self.num_occupied_levels();
        let (probe_ns, stream_ns) = lookup_costs();
        // Individual per-query cost: filtered levels are usually decided by
        // one cache-line filter read (modelled as ~2 probe-equivalents to
        // cover false positives); unfiltered levels pay a fence-narrowed
        // binary search.
        let per_query_individual: f64 = self
            .levels()
            .iter_occupied()
            .map(|(_, l)| {
                if l.filter().is_some() {
                    2.0 * probe_ns
                } else {
                    f64::from(l.search_probe_depth()) * probe_ns
                }
            })
            .sum();
        // Bulk per-query cost: the query sort plus one streamed needle pass
        // and result reconciliation per level.
        let per_query_bulk = sort_cost_ns() + (levels as f64 + 2.0) * stream_ns;
        let margin = per_query_individual - per_query_bulk;
        if margin <= 0.0 {
            return usize::MAX; // individual is never beaten for this shape
        }
        (((n as f64) * stream_ns / margin) as usize).max(MIN_BULK_QUERIES)
    }

    /// The individual (per-thread binary search) batch lookup.
    pub fn lookup_individual(&self, queries: &[Key]) -> Vec<Option<Value>> {
        let kernel = "lsm_lookup";
        self.op_activity.record_lookups(queries.len() as u64);
        self.device().metrics().record_launch(kernel);
        self.device().metrics().record_read(
            kernel,
            std::mem::size_of_val(queries) as u64,
            AccessPattern::Coalesced,
        );
        let traced: Vec<(Option<Value>, LookupTrace)> =
            self.device().timer().time("lookup", || {
                queries
                    .par_iter()
                    .map(|&q| self.lookup_one_traced(q))
                    .collect()
            });
        // Traffic accounting from what the batch actually did: every filter
        // consultation is a single coalesced cache-line block read; only
        // the searches that survived the filters pay scattered probes.
        let mut total = LookupTrace::default();
        let mut results = Vec::with_capacity(traced.len());
        for (value, trace) in traced {
            results.push(value);
            total.filter_blocks += trace.filter_blocks;
            total.filter_skips += trace.filter_skips;
            total.search_probes += trace.search_probes;
        }
        self.device()
            .metrics()
            .record_block_reads(kernel, total.filter_blocks, BLOCK_BYTES as u64);
        self.device().metrics().record_scattered_probes(
            kernel,
            total.search_probes,
            std::mem::size_of::<Key>() as u64,
        );
        self.record_filter_activity(total.filter_blocks, total.filter_skips);
        results
    }

    /// Look up a single key (the per-thread body of the individual batch
    /// lookup, usable on its own for asynchronous individual queries).
    pub fn lookup_one(&self, query: Key) -> Option<Value> {
        let (value, trace) = self.lookup_one_traced(query);
        self.record_filter_activity(trace.filter_blocks, trace.filter_skips);
        value
    }

    /// The traced lookup body: walk levels newest-first, let the first
    /// probe that returns an element decide.
    pub(crate) fn lookup_one_traced(&self, query: Key) -> (Option<Value>, LookupTrace) {
        let mut trace = LookupTrace::default();
        for (_, level) in self.levels().iter_occupied() {
            let probe = level.find(query);
            trace.filter_blocks += u64::from(probe.filter_probed);
            trace.search_probes += u64::from(probe.probes);
            if probe.filter_skipped {
                trace.filter_skips += 1;
                continue;
            }
            if let Some((encoded, value)) = probe.entry {
                let result = if is_regular(encoded) {
                    Some(value)
                } else {
                    None // most recent instance is a tombstone: deleted
                };
                return (result, trace);
            }
        }
        (None, trace)
    }

    /// Whether `key` is currently present (not deleted).
    pub fn contains(&self, key: Key) -> bool {
        self.lookup_one(key).is_some()
    }

    /// Warp-style bulk lookup — the paper's answer to the "PCIe tax" of
    /// issuing GPU queries one at a time: amortise the launch over a large
    /// batch and resolve it with *shared* work per warp-sized group.
    ///
    /// The batch is sorted once; fixed-size groups of
    /// [`GpuLsm::bulk_group_size`] neighbouring queries then march through
    /// each occupied level **together**:
    ///
    /// 1. **Shared fence descent** — two Eytzinger descents per group (its
    ///    smallest and largest undecided key) bracket every member's lower
    ///    bound in one combined window, instead of one descent per query.
    /// 2. **Coalesced block sweep** — the group resolves its members with a
    ///    monotone cursor over that window, so the level's key blocks are
    ///    touched once each, in order, and are charged as coalesced block
    ///    reads (deduplicated across overlapping groups) rather than
    ///    scattered probes.
    ///
    /// Levels carrying a Bloom filter keep the **filter-aware pre-pass**:
    /// still-undecided needles are tested first (one coalesced block read
    /// each) and only survivors join the sweep, so a mostly-missing batch
    /// skips whole levels.  Results are bit-identical to
    /// [`GpuLsm::lookup`], in the original query order.
    ///
    /// This is the paper's *bulk* lookup alternative (§IV-B): the query
    /// sort is an extra bulk pass, but each level is then swept with
    /// coalesced accesses rather than probed randomly — profitable when
    /// there are many queries relative to the structure size, which is
    /// exactly when [`GpuLsm::lookup`] dispatches here.
    pub fn bulk_get(&self, queries: &[Key]) -> Vec<Option<Value>> {
        let kernel = "lsm_bulk_get";
        self.op_activity.record_lookups(queries.len() as u64);
        self.device().metrics().record_launch(kernel);
        if queries.is_empty() {
            return Vec::new();
        }
        self.device().timer().time("bulk_get", || {
            // Sort the queries, remembering their original positions.
            let mut sorted_queries: Vec<Key> = queries.to_vec();
            let mut positions: Vec<u32> = (0..queries.len() as u32).collect();
            gpu_primitives::radix_sort::sort_pairs(
                self.device(),
                &mut sorted_queries,
                &mut positions,
            );
            let sorted_results = self.resolve_sorted_warp(kernel, &sorted_queries);
            // Scatter back to the callers' query order.
            let mut results: Vec<Option<Value>> = vec![None; queries.len()];
            for (sorted_idx, &original) in positions.iter().enumerate() {
                results[original as usize] = sorted_results[sorted_idx];
            }
            results
        })
    }

    /// The warp-group width [`GpuLsm::bulk_get`] marches with: the
    /// structure's `bulk_group` (default 64).
    pub fn bulk_group_size(&self) -> usize {
        self.bulk_group
    }

    /// Resolve an already-sorted query batch against every occupied level
    /// with warp-style groups, returning results in *sorted* order.
    ///
    /// Results and decisions are tracked in sorted query order so every
    /// per-level pass is a perfectly aligned zip over fixed group chunks —
    /// embarrassingly parallel over the vendored pool.  A query decided by
    /// a newer level is never overwritten (newest-level-wins).
    fn resolve_sorted_warp(
        &self,
        kernel: &'static str,
        sorted_queries: &[Key],
    ) -> Vec<Option<Value>> {
        let n = sorted_queries.len();
        let group = self.bulk_group_size();
        let word = std::mem::size_of::<Key>() as u64;
        let mut sorted_results: Vec<Option<Value>> = vec![None; n];
        let mut decided: Vec<bool> = vec![false; n];
        let (lo_q, hi_q) = (sorted_queries[0], sorted_queries[n - 1]);
        let mut filter_blocks = 0u64;
        let mut filter_skips = 0u64;
        let mut swept_blocks = 0u64;
        let mut fence_descents = 0u64;
        for (_, level) in self.levels().iter_occupied() {
            // Fence min/max pruning: a level whose key range is disjoint
            // from the whole (sorted) query range cannot decide anything.
            if level.max_key() < lo_q || level.min_key() > hi_q {
                continue;
            }
            let keys = level.keys();
            let values = level.values();
            // Filter-aware pre-pass: test every still-undecided needle
            // against the level's Bloom filter (one coalesced block read
            // each); only survivors join the sweep.  The filter is
            // conservative, so dropped needles provably have no match here.
            let has_filter = level.filter().is_some();
            let pass: Vec<bool> = match level.filter() {
                Some(filter) => sorted_queries
                    .par_iter()
                    .zip(decided.par_iter())
                    .map(|(&q, &done)| !done && filter.contains(q))
                    .collect(),
                None => decided.iter().map(|&done| !done).collect(),
            };
            if has_filter {
                for (qi, &p) in pass.iter().enumerate() {
                    if decided[qi] {
                        continue;
                    }
                    filter_blocks += 1;
                    if !p {
                        filter_skips += 1;
                    }
                }
            }
            // Warp-style march: each fixed group of neighbouring sorted
            // queries shares two fence descents (group min/max) and sweeps
            // the combined window with one monotone cursor.  Groups cover
            // disjoint query ranges, so they resolve in parallel; each
            // returns the half-open block range its sweep touched.
            let touched: Vec<Option<(u64, u64)>> = sorted_results
                .par_chunks_mut(group)
                .zip(decided.par_chunks_mut(group))
                .zip(sorted_queries.par_chunks(group))
                .zip(pass.par_chunks(group))
                .map(|(((results, decided), queries), pass)| {
                    let first = pass.iter().position(|&p| p)?;
                    let last = pass.iter().rposition(|&p| p).unwrap_or(first);
                    // Shared descent: the two group extremes bracket every
                    // member's lower bound (bounds are monotone in the key).
                    let (win_lo, win_hi) = match level.fences() {
                        Some(f) => (
                            f.lower_bound_window(queries[first]).0,
                            f.lower_bound_window(queries[last]).1,
                        ),
                        None => (0, keys.len()),
                    };
                    // Coalesced sweep: the cursor only moves forward, so the
                    // group touches each key block of its window once.
                    let mut cursor = win_lo;
                    let mut touched_hi = win_lo;
                    for i in first..=last {
                        if !pass[i] {
                            continue;
                        }
                        let q = queries[i];
                        cursor += keys[cursor..win_hi].partition_point(|&k| (k >> 1) < q);
                        touched_hi = touched_hi.max((cursor + 1).min(keys.len()));
                        if cursor < keys.len() && original_key(keys[cursor]) == q {
                            decided[i] = true;
                            results[i] = if is_regular(keys[cursor]) {
                                Some(values[cursor])
                            } else {
                                None
                            };
                        }
                    }
                    let b_lo = win_lo as u64 * word / BLOCK_BYTES as u64;
                    let b_hi = (touched_hi.max(win_lo + 1) as u64 * word - 1) / BLOCK_BYTES as u64;
                    Some((b_lo, b_hi))
                })
                .collect();
            // Charge the sweeps as deduplicated coalesced block reads:
            // group windows ascend with the sorted queries, so a running
            // high-water mark removes the overlap between neighbours
            // exactly.
            let mut charged_through: Option<u64> = None;
            for (b_lo, b_hi) in touched.into_iter().flatten() {
                fence_descents += 2;
                let from = charged_through.map_or(b_lo, |c| b_lo.max(c + 1));
                if b_hi >= from {
                    swept_blocks += b_hi - from + 1;
                }
                charged_through = Some(charged_through.map_or(b_hi, |c| c.max(b_hi)));
            }
        }
        // Each filter consultation and each swept key block is one
        // coalesced cache-line read; only the per-group fence descents are
        // scattered.
        self.device().metrics().record_block_reads(
            kernel,
            filter_blocks + swept_blocks,
            BLOCK_BYTES as u64,
        );
        self.device()
            .metrics()
            .record_scattered_probes(kernel, fence_descents, word);
        self.record_filter_activity(filter_blocks, filter_skips);
        sorted_results
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use crate::batch::UpdateBatch;
    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn finds_inserted_keys_and_misses_absent_ones() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        let pairs: Vec<(u32, u32)> = (0..8).map(|k| (k * 2, k * 100)).collect();
        lsm.insert(&pairs).unwrap();
        assert_eq!(lsm.lookup(&[0, 2, 14]), vec![Some(0), Some(100), Some(700)]);
        assert_eq!(lsm.lookup(&[1, 3, 99]), vec![None, None, None]);
        assert!(lsm.contains(4));
        assert!(!lsm.contains(5));
    }

    #[test]
    fn most_recent_insertion_wins_across_batches() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        lsm.insert(&[(2, 999), (5, 50), (6, 60), (7, 70)]).unwrap();
        assert_eq!(lsm.lookup(&[2]), vec![Some(999)]);
        assert_eq!(lsm.lookup(&[1]), vec![Some(10)]);
    }

    #[test]
    fn deletion_hides_older_insertions() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(1, 10), (2, 20), (3, 30), (4, 40)]).unwrap();
        lsm.delete(&[2, 3]).unwrap();
        assert_eq!(
            lsm.lookup(&[1, 2, 3, 4]),
            vec![Some(10), None, None, Some(40)]
        );
    }

    #[test]
    fn reinsert_after_delete_is_visible() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        lsm.insert(&[(7, 70), (8, 80)]).unwrap();
        lsm.delete(&[7]).unwrap();
        lsm.insert(&[(7, 71)]).unwrap();
        assert_eq!(lsm.lookup(&[7]), vec![Some(71)]);
    }

    #[test]
    fn insert_and_delete_same_batch_resolves_to_deleted() {
        // Semantics rule 6: a key inserted and deleted within the same batch
        // is considered deleted.
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(5, 50).delete(5).insert(6, 60).insert(7, 70);
        lsm.update(&batch).unwrap();
        assert_eq!(lsm.lookup(&[5, 6, 7]), vec![None, Some(60), Some(70)]);
    }

    #[test]
    fn duplicate_keys_in_one_batch_resolve_deterministically() {
        // Semantics rule 4: one of the duplicates is chosen; with a stable
        // sort and first-match lookups it is the first one pushed.
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        lsm.insert(&[(9, 1), (9, 2), (9, 3), (9, 4)]).unwrap();
        assert_eq!(lsm.lookup(&[9]), vec![Some(1)]);
    }

    #[test]
    fn lookup_on_empty_lsm_returns_none() {
        let lsm = GpuLsm::new(device(), 4).unwrap();
        assert_eq!(lsm.lookup(&[1, 2, 3]), vec![None, None, None]);
    }

    #[test]
    fn lookup_across_many_batches_and_levels() {
        let mut lsm = GpuLsm::new(device(), 16).unwrap();
        // 9 batches → levels 0 and 3 occupied; keys 0..144.
        for b in 0..9u32 {
            let pairs: Vec<(u32, u32)> = (0..16).map(|i| (b * 16 + i, b * 1000 + i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        let queries: Vec<u32> = (0..144).collect();
        let results = lsm.lookup(&queries);
        for (q, r) in queries.iter().zip(results.iter()) {
            let batch = q / 16;
            let i = q % 16;
            assert_eq!(*r, Some(batch * 1000 + i), "query {q}");
        }
        assert_eq!(lsm.lookup(&[144, 1000]), vec![None, None]);
    }

    #[test]
    fn bulk_sorted_lookup_matches_individual_lookup() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut lsm = GpuLsm::new(device(), 64).unwrap();
        for round in 0..7u32 {
            let mut batch = UpdateBatch::new();
            let mut used = std::collections::HashSet::new();
            while used.len() < 64 {
                let key = rng.gen_range(0..2000u32);
                if !used.insert(key) {
                    continue;
                }
                if rng.gen_bool(0.2) {
                    batch.delete(key);
                } else {
                    batch.insert(key, round * 10_000 + key);
                }
            }
            lsm.update(&batch).unwrap();
        }
        let queries: Vec<u32> = (0..2500).map(|i| (i * 17) % 2600).collect();
        assert_eq!(lsm.bulk_get(&queries), lsm.lookup_individual(&queries));
        // The adaptive entry point agrees with both, whichever it picked.
        assert_eq!(lsm.lookup(&queries), lsm.lookup_individual(&queries));
        // Empty query set and empty structure are handled.
        assert!(lsm.bulk_get(&[]).is_empty());
        let empty = GpuLsm::new(device(), 8).unwrap();
        assert_eq!(empty.bulk_get(&[1, 2]), vec![None, None]);
        assert_eq!(empty.bulk_lookup_threshold(), usize::MAX);
    }

    #[test]
    fn bulk_lookup_prefilters_with_level_filters() {
        // A bulk-built structure large enough to carry a filter; all-miss
        // needles must be decided by the pre-pass (filter skips recorded)
        // and results must stay identical to the individual path.
        let pairs: Vec<(u32, u32)> = (0..4096u32).map(|k| (k * 4, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 1 << 12, &pairs).unwrap();
        let queries: Vec<u32> = (0..2048u32).map(|i| i * 8 + 2).collect(); // all absent
        let before = lsm.stats();
        let bulk = lsm.bulk_get(&queries);
        assert_eq!(bulk, lsm.lookup_individual(&queries));
        assert!(bulk.iter().all(Option::is_none));
        let after = lsm.stats();
        if after.filter_bytes > 0 {
            assert!(
                after.filter_probes > before.filter_probes,
                "bulk path must consult the level filters"
            );
            assert!(
                after.filter_skips > before.filter_skips,
                "all-miss needles must be skipped by the pre-pass"
            );
        }
        // Present keys still resolve through the pre-pass.
        let hits: Vec<u32> = (0..512u32).map(|k| k * 8).collect();
        assert_eq!(lsm.bulk_get(&hits), lsm.lookup_individual(&hits));
    }

    #[test]
    fn bulk_get_matches_individual_across_group_sizes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        // Group sizes straddling every boundary case: degenerate singles,
        // non-dividing odd widths, the default, and one group per batch.
        for group in [1usize, 3, 64, 1 << 20] {
            let config = crate::config::LsmConfig::default().bulk_group(group);
            let mut lsm = GpuLsm::with_config(device(), 32, &config).unwrap();
            assert_eq!(lsm.bulk_group_size(), group);
            for round in 0..9u32 {
                let mut batch = UpdateBatch::new();
                let mut used = std::collections::HashSet::new();
                while used.len() < 32 {
                    let key = rng.gen_range(0..1200u32);
                    if !used.insert(key) {
                        continue;
                    }
                    if rng.gen_bool(0.25) {
                        batch.delete(key);
                    } else {
                        batch.insert(key, round * 10_000 + key);
                    }
                }
                lsm.update(&batch).unwrap();
            }
            // Hits, misses, duplicates and out-of-range probes together.
            let mut queries: Vec<u32> = (0..1500).map(|i| (i * 13) % 1400).collect();
            queries.extend([0, 0, 7, 7, 7, 5000]);
            assert_eq!(lsm.bulk_get(&queries), lsm.lookup_individual(&queries));
            assert_eq!(lsm.lookup(&queries), lsm.lookup_individual(&queries));
        }
    }

    #[test]
    fn bulk_get_charges_coalesced_sweeps() {
        // A single large level with fences: the grouped sweep must charge
        // block reads on its kernel and still answer exactly.
        let pairs: Vec<(u32, u32)> = (0..8192u32).map(|k| (k * 3, k)).collect();
        let lsm = GpuLsm::bulk_build(device(), 1 << 13, &pairs).unwrap();
        let queries: Vec<u32> = (0..4096u32).map(|i| i * 6).collect(); // half hit
        let results = lsm.bulk_get(&queries);
        assert_eq!(results, lsm.lookup_individual(&queries));
        let snapshot = lsm.device().metrics().snapshot();
        let traffic = snapshot
            .get("lsm_bulk_get")
            .expect("bulk_get kernel traffic");
        assert!(
            traffic.coalesced_read_bytes > 0,
            "grouped sweep must charge coalesced block reads"
        );
        // Empty batches and empty structures short-circuit.
        assert!(lsm.bulk_get(&[]).is_empty());
        let empty = GpuLsm::new(device(), 8).unwrap();
        assert_eq!(empty.bulk_get(&[1, 2]), vec![None, None]);
    }

    #[test]
    fn lookup_records_traffic() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        lsm.insert(&[(1, 1)]).unwrap();
        let _ = lsm.lookup_individual(&[1, 2, 3]);
        assert!(lsm.device().metrics().snapshot().contains_key("lsm_lookup"));
    }

    #[test]
    fn bulk_threshold_respects_env_floor_and_shape() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        lsm.insert(&[(1, 1)]).unwrap();
        // Whatever the calibration says, tiny batches stay individual.
        assert!(lsm.bulk_lookup_threshold() >= super::MIN_BULK_QUERIES);
    }
}
