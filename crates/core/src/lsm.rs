//! The [`GpuLsm`] structure: construction, bulk build and the batched
//! insertion / deletion path.
//!
//! Insertion (paper §III-B, Fig. 3): the incoming batch is radix-sorted by
//! its full encoded key (status bit included), then merged with full levels
//! from level 0 upward — comparing *original keys only* and letting the more
//! recent buffer win ties — until an empty level receives the result.  With
//! `r` resident batches this is exactly a binary-counter increment: the
//! occupied levels are the set bits of `r`.
//!
//! Deletion is the insertion of tombstones, so a mixed batch of insertions
//! and deletions costs the same as a pure-insert batch.
//!
//! The carry chain itself lives in [`crate::compaction`], split into a
//! planner (which levels participate, where the output lands, which
//! acceleration structures it needs — all computed before any data moves)
//! and an executor that maintains fences and filters *incrementally*
//! across the merges.

use std::sync::Arc;

use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;
use gpu_primitives::radix_sort::sort_pairs;
use gpu_sim::Device;

use crate::arena::Arena;
use crate::batch::UpdateBatch;
use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::key::{encode_regular, placebo, EncodedKey, Key, Value, MAX_KEY};
use crate::level::{Level, LevelSet};
use crate::lookup::DEFAULT_BULK_GROUP;
use crate::wal::LoadedRun;

/// The GPU LSM: a dynamic dictionary with batched updates and parallel
/// queries.
#[derive(Debug, Clone)]
pub struct GpuLsm {
    device: Arc<Device>,
    batch_size: usize,
    pub(crate) num_batches: usize,
    pub(crate) levels: LevelSet,
    /// Lifetime filter hit/skip counters (shared across clones, reported by
    /// [`crate::stats::LsmStats`]).
    pub(crate) filter_activity: Arc<crate::stats::FilterActivity>,
    /// Lifetime carry-merge counters (shared across clones): how often the
    /// write path maintained fences/filters incrementally vs. rebuilt.
    pub(crate) merge_activity: Arc<crate::stats::MergeActivity>,
    /// Lifetime update/lookup operation counters (shared across clones);
    /// feeds the sharded service's hot-shard detection.
    pub(crate) op_activity: Arc<crate::stats::OpActivity>,
    /// Bloom filter bits per key for the levels this structure builds
    /// (0 = no filters).
    pub(crate) bloom_bits: u32,
    /// Warp-style bulk-get group size (≥ 1).
    pub(crate) bulk_group: usize,
    /// The slab arena backing carry-chain level storage (`None` = arena
    /// disabled, levels own plain vectors).  Shared across clones of the
    /// handle; cloned levels deep-copy out of the arena.
    pub(crate) arena: Option<Arc<Arena>>,
    /// Reusable batch-encode buffers: [`GpuLsm::update`] encodes into these
    /// and the carry chain hands the consumed buffer back after its first
    /// merge step, so steady-state submits re-encode into the same
    /// allocation instead of a fresh pair of vectors per batch.
    pub(crate) encode_scratch: (Vec<EncodedKey>, Vec<Value>),
}

impl GpuLsm {
    /// Create an empty GPU LSM with batch size `b` on `device`.
    ///
    /// The batch size is fixed for the lifetime of the structure (paper
    /// §III-A rule 1) and trades update against query performance: larger
    /// batches mean fewer occupied levels for the same number of elements.
    ///
    /// The knobs come from the `LSM_*` environment where set (see
    /// [`LsmConfig`]); a malformed variable is an
    /// [`LsmError::InvalidEnvValue`].
    pub fn new(device: Arc<Device>, batch_size: usize) -> Result<Self> {
        Self::with_config(device, batch_size, &LsmConfig::default())
    }

    /// Create an empty GPU LSM configured by an explicit [`LsmConfig`];
    /// fields it leaves unset come from the `LSM_*` environment and then
    /// the built-in defaults.
    pub fn with_config(device: Arc<Device>, batch_size: usize, config: &LsmConfig) -> Result<Self> {
        Self::from_resolved(device, batch_size, &config.resolve()?)
    }

    /// Create an empty GPU LSM from an already-resolved config (see
    /// [`LsmConfig::resolve`]): what every rebuild of an existing
    /// structure uses, so it keeps its parent's settings and reads no
    /// environment.
    pub(crate) fn from_resolved(
        device: Arc<Device>,
        batch_size: usize,
        config: &LsmConfig,
    ) -> Result<Self> {
        if batch_size == 0 {
            return Err(LsmError::InvalidBatchSize { batch_size });
        }
        let arena_words = config.arena_chunk_words.unwrap_or(0);
        Ok(GpuLsm {
            device,
            batch_size,
            num_batches: 0,
            levels: LevelSet::new(),
            filter_activity: Arc::default(),
            merge_activity: Arc::default(),
            op_activity: Arc::default(),
            bloom_bits: config.bloom_bits.unwrap_or(DEFAULT_BITS_PER_KEY),
            bulk_group: config.bulk_group.unwrap_or(DEFAULT_BULK_GROUP).max(1),
            arena: config
                .arena
                .unwrap_or(true)
                .then(|| Arena::new(arena_words)),
            encode_scratch: (Vec::new(), Vec::new()),
        })
    }

    /// Bulk-build an LSM from an arbitrary set of key–value pairs
    /// (paper §V-B "bulk build"): one device-wide radix sort, padding with
    /// placebo elements up to a multiple of `b`, then slicing the sorted
    /// array into levels according to the binary representation of the
    /// number of batches.
    pub fn bulk_build(
        device: Arc<Device>,
        batch_size: usize,
        pairs: &[(Key, Value)],
    ) -> Result<Self> {
        Self::bulk_build_with_config(device, batch_size, pairs, &LsmConfig::default())
    }

    /// [`GpuLsm::bulk_build`] configured by an explicit [`LsmConfig`].
    pub fn bulk_build_with_config(
        device: Arc<Device>,
        batch_size: usize,
        pairs: &[(Key, Value)],
        config: &LsmConfig,
    ) -> Result<Self> {
        Self::bulk_build_resolved(device, batch_size, pairs, &config.resolve()?)
    }

    /// [`GpuLsm::bulk_build`] from an already-resolved config.
    pub(crate) fn bulk_build_resolved(
        device: Arc<Device>,
        batch_size: usize,
        pairs: &[(Key, Value)],
        config: &LsmConfig,
    ) -> Result<Self> {
        let mut lsm = GpuLsm::from_resolved(device, batch_size, config)?;
        if let Some(&(k, _)) = pairs.iter().find(|(k, _)| *k > MAX_KEY) {
            return Err(LsmError::KeyOutOfRange { key: k });
        }
        if pairs.is_empty() {
            return Ok(lsm);
        }

        let mut keys: Vec<EncodedKey> = pairs.iter().map(|&(k, _)| encode_regular(k)).collect();
        let mut values: Vec<Value> = pairs.iter().map(|&(_, v)| v).collect();
        sort_pairs(&lsm.device, &mut keys, &mut values);

        // Pad to a multiple of b with placebos (max-key tombstones); they
        // sort to the very end by construction, so appending keeps the array
        // sorted by original key.
        let padded_len = pairs.len().div_ceil(batch_size) * batch_size;
        keys.resize(padded_len, placebo());
        values.resize(padded_len, 0);

        lsm.num_batches = padded_len / batch_size;
        lsm.distribute_sorted(keys, values);
        Ok(lsm)
    }

    /// Slice an already-sorted array into levels following the set bits of
    /// `self.num_batches`, smallest level first (smaller keys end up in
    /// smaller levels, as in the paper's cleanup).
    ///
    /// Levels placed here come from a bulk rebuild and are long-lived, so
    /// they get the full query-acceleration treatment (fences + filters,
    /// see [`Level::from_sorted`]).
    fn distribute_sorted(&mut self, keys: Vec<EncodedKey>, values: Vec<Value>) {
        debug_assert_eq!(keys.len(), self.num_batches * self.batch_size);
        self.levels.clear();
        let mut offset = 0usize;
        for bit in 0..usize::BITS {
            if self.num_batches & (1 << bit) != 0 {
                let len = self.batch_size << bit;
                let level_keys = keys[offset..offset + len].to_vec();
                let level_values = values[offset..offset + len].to_vec();
                let level = Level::from_sorted(level_keys, level_values, self.bloom_bits);
                self.record_accel_build(&level);
                self.levels.place(bit as usize, level);
                offset += len;
            }
        }
        debug_assert_eq!(offset, keys.len());
    }

    /// Account the one-time construction traffic of a level's
    /// query-acceleration structures: one coalesced read pass over the
    /// level's keys and coalesced writes of the filter + fence arrays.
    pub(crate) fn record_accel_build(&self, level: &Level) {
        let (filter_bytes, fence_bytes) = level.accel_bytes();
        if filter_bytes + fence_bytes == 0 {
            return;
        }
        let kernel = "lsm_accel_build";
        let metrics = self.device.metrics();
        metrics.record_launch(kernel);
        metrics.record_read(
            kernel,
            (level.len() * std::mem::size_of::<EncodedKey>()) as u64,
            gpu_sim::AccessPattern::Coalesced,
        );
        metrics.record_write(
            kernel,
            (filter_bytes + fence_bytes) as u64,
            gpu_sim::AccessPattern::Coalesced,
        );
    }

    /// Apply a mixed batch of insertions and deletions (at most `b`
    /// operations; shorter batches are padded, see [`UpdateBatch`]).
    pub fn update(&mut self, batch: &UpdateBatch) -> Result<()> {
        // Encode into the reusable scratch pair; the carry chain returns
        // the buffer after its first merge step consumes it, so repeated
        // updates stop allocating here once warm.
        let (mut keys, mut values) = std::mem::take(&mut self.encode_scratch);
        batch.encode_padded_into(self.batch_size, &mut keys, &mut values)?;
        self.op_activity.record_updates(batch.len() as u64);
        self.sort_and_push(keys, values, None);
        Ok(())
    }

    /// Sort an encoded batch and push it down the carry chain.
    ///
    /// The sort is by the full encoded key, status bit included (Fig. 3
    /// line 9): tombstones precede same-key insertions from the same
    /// batch, implementing semantics rule 6.  `known_sorted` carries a
    /// caller's sortedness knowledge (the insert path probes during
    /// encoding); when `None`, a cheap monotonicity probe runs here.
    /// Either way a pre-sorted batch (sorted bulk loads, replayed runs,
    /// the duplicate-padded tail of a short batch) skips the sort outright
    /// — a stable sort of already-sorted data is the identity.
    fn sort_and_push(
        &mut self,
        mut keys: Vec<EncodedKey>,
        mut values: Vec<Value>,
        known_sorted: Option<bool>,
    ) {
        self.device.timer().time("insert::sort_batch", || {
            let sorted = known_sorted.unwrap_or_else(|| keys.windows(2).all(|w| w[0] <= w[1]));
            if !sorted {
                sort_pairs(&self.device, &mut keys, &mut values);
            }
        });
        self.push_sorted_buffer(keys, values);
    }

    /// Insert key–value pairs (at most `b`).
    ///
    /// Encodes directly from the pair slice (no intermediate op vector) —
    /// the hot path for small-batch workloads.
    pub fn insert(&mut self, pairs: &[(Key, Value)]) -> Result<()> {
        let (keys, values, sorted) = UpdateBatch::encode_pairs_padded(pairs, self.batch_size)?;
        self.op_activity.record_updates(pairs.len() as u64);
        // The sortedness probe rode along with the encode loop, so pass it
        // as a known fact instead of re-probing.
        self.sort_and_push(keys, values, Some(sorted));
        Ok(())
    }

    /// Delete keys (at most `b`) by inserting tombstones.
    pub fn delete(&mut self, keys: &[Key]) -> Result<()> {
        self.update(&UpdateBatch::from_deletions(keys))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The fixed batch size `b`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of resident batches `r` (including stale elements).
    pub fn num_batches(&self) -> usize {
        self.num_batches
    }

    /// Total number of resident elements (`r · b`), including stale
    /// elements, tombstones and placebos.
    pub fn num_resident_elements(&self) -> usize {
        self.num_batches * self.batch_size
    }

    /// Whether the structure holds no elements at all.
    pub fn is_empty(&self) -> bool {
        self.num_batches == 0
    }

    /// Number of occupied levels (the popcount of `r`).
    pub fn num_occupied_levels(&self) -> usize {
        self.levels.num_occupied()
    }

    /// The modelled device this LSM runs on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Read-only access to the level set (used by queries, validation and
    /// the differential test suites inspecting per-level acceleration
    /// structures).
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// Replace the entire contents from an already-sorted, already-padded
    /// array (used by cleanup).
    pub(crate) fn replace_contents(&mut self, keys: Vec<EncodedKey>, values: Vec<Value>) {
        debug_assert_eq!(keys.len() % self.batch_size, 0);
        self.num_batches = keys.len() / self.batch_size;
        if self.num_batches == 0 {
            self.levels.clear();
        } else {
            self.distribute_sorted(keys, values);
        }
    }

    /// Reassemble an LSM from persisted runs (crash recovery): each run
    /// becomes its level verbatim, so the recovered structure is
    /// element-identical to the snapshotted one.  Acceleration structures
    /// (filters, fences) are derived data and rebuilt; the run's verified
    /// file digest seeds the level's digest cache, so the first snapshot
    /// after recovery does not rehash it.  `num_batches` follows from the
    /// occupied level indices (level `i` holds `b·2^i` elements, §III-A).
    /// `config` is the recovering service's resolved config.
    pub(crate) fn from_levels(
        device: Arc<Device>,
        batch_size: usize,
        levels: Vec<LoadedRun>,
        config: &LsmConfig,
    ) -> Result<Self> {
        let mut lsm = GpuLsm::from_resolved(device, batch_size, config)?;
        let mut num_batches = 0usize;
        for LoadedRun {
            level: i,
            keys,
            values,
            digest,
        } in levels
        {
            let expected = batch_size
                .checked_shl(i as u32)
                .filter(|&len| len == keys.len() && len == values.len());
            if expected.is_none() {
                return Err(LsmError::Durability {
                    context: format!(
                        "level {i} run holds {} keys / {} values, expected {} for b = {batch_size}",
                        keys.len(),
                        values.len(),
                        batch_size << i
                    ),
                });
            }
            if lsm.levels.get(i).is_some() {
                return Err(LsmError::Durability {
                    context: format!("level {i} appears twice in the snapshot"),
                });
            }
            let level = Level::from_sorted(keys, values, lsm.bloom_bits).with_run_digest(digest);
            lsm.record_accel_build(&level);
            lsm.levels.place(i, level);
            num_batches += 1 << i;
        }
        lsm.num_batches = num_batches;
        Ok(lsm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(gpu_sim::DeviceConfig::small()))
    }

    #[test]
    fn new_rejects_zero_batch_size() {
        assert_eq!(
            GpuLsm::new(device(), 0).unwrap_err(),
            LsmError::InvalidBatchSize { batch_size: 0 }
        );
    }

    #[test]
    fn empty_lsm_has_no_levels() {
        let lsm = GpuLsm::new(device(), 16).unwrap();
        assert!(lsm.is_empty());
        assert_eq!(lsm.num_resident_elements(), 0);
        assert_eq!(lsm.num_occupied_levels(), 0);
    }

    #[test]
    fn occupancy_follows_binary_counter() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        for batch_idx in 0..7u32 {
            let pairs: Vec<(u32, u32)> = (0..4).map(|i| (batch_idx * 4 + i, i)).collect();
            lsm.insert(&pairs).unwrap();
            let r = batch_idx as usize + 1;
            assert_eq!(lsm.num_batches(), r);
            assert_eq!(lsm.num_occupied_levels(), r.count_ones() as usize);
            // Level i occupied iff bit i of r is set, and holds b·2^i elements.
            for bit in 0..4 {
                let expected = r & (1 << bit) != 0;
                assert_eq!(lsm.levels().is_full(bit), expected, "r = {r}, level {bit}");
                if expected {
                    assert_eq!(lsm.levels().get(bit).unwrap().len(), 4 << bit);
                }
            }
        }
    }

    #[test]
    fn short_batch_is_padded_to_full_size() {
        let mut lsm = GpuLsm::new(device(), 8).unwrap();
        lsm.insert(&[(1, 10), (2, 20)]).unwrap();
        assert_eq!(lsm.num_resident_elements(), 8);
        assert_eq!(lsm.levels().get(0).unwrap().len(), 8);
    }

    #[test]
    fn levels_stay_sorted_by_original_key() {
        let mut lsm = GpuLsm::new(device(), 32).unwrap();
        for b in 0..5u32 {
            let pairs: Vec<(u32, u32)> = (0..32).map(|i| ((i * 37 + b * 13) % 1000, i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        for (_, level) in lsm.levels().iter_occupied() {
            let keys = level.keys();
            assert!(keys.windows(2).all(|w| (w[0] >> 1) <= (w[1] >> 1)));
        }
    }

    #[test]
    fn bulk_build_matches_incremental_occupancy() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|k| (k, k + 1)).collect();
        let lsm = GpuLsm::bulk_build(device(), 16, &pairs).unwrap();
        // 100 elements pad to 112 = 7 batches of 16: levels 0, 1, 2 occupied.
        assert_eq!(lsm.num_batches(), 7);
        assert_eq!(lsm.num_occupied_levels(), 3);
        assert_eq!(lsm.num_resident_elements(), 112);
    }

    #[test]
    fn bulk_build_empty_and_invalid() {
        let lsm = GpuLsm::bulk_build(device(), 16, &[]).unwrap();
        assert!(lsm.is_empty());
        assert!(GpuLsm::bulk_build(device(), 0, &[(1, 1)]).is_err());
        assert_eq!(
            GpuLsm::bulk_build(device(), 4, &[(MAX_KEY + 1, 0)]).unwrap_err(),
            LsmError::KeyOutOfRange { key: MAX_KEY + 1 }
        );
    }

    #[test]
    fn oversized_batch_is_rejected_without_mutation() {
        let mut lsm = GpuLsm::new(device(), 2).unwrap();
        let err = lsm.insert(&[(1, 1), (2, 2), (3, 3)]).unwrap_err();
        assert!(matches!(err, LsmError::BatchTooLarge { .. }));
        assert!(lsm.is_empty());
    }

    #[test]
    fn mixed_update_batch_counts_as_one_batch() {
        let mut lsm = GpuLsm::new(device(), 4).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(1, 10).delete(2).insert(3, 30).delete(4);
        lsm.update(&batch).unwrap();
        assert_eq!(lsm.num_batches(), 1);
        assert_eq!(lsm.num_resident_elements(), 4);
    }
}
