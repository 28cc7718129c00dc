//! Structural invariant checking (used by tests and debug assertions).
//!
//! The building invariants of §III-D are what make first-match lookups and
//! newest-first validation correct:
//!
//! 1. within each level, elements are sorted by original key (equal keys
//!    form a contiguous segment);
//! 2. level sizes are exactly `b·2^i` and occupancy matches the set bits of
//!    the batch count `r`;
//! 3. within a same-key segment of a single batch, the tombstone precedes
//!    the regular elements (a consequence of sorting by the full encoded
//!    word).
//!
//! Temporal ordering across batches cannot be re-checked after the fact
//! without timestamps, but it is enforced constructively by the stable,
//! first-input-wins merge; the property tests in `tests/` check it end to
//! end by comparing against a reference `BTreeMap`.

use crate::lsm::GpuLsm;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GPU LSM invariant violated: {}", self.0)
    }
}

impl GpuLsm {
    /// Check the structural invariants, returning the first violation found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let b = self.batch_size();
        let r = self.num_batches();

        // Occupancy must match the binary representation of r.
        let max_bit = usize::BITS - r.leading_zeros();
        for bit in 0..max_bit as usize {
            let expected = r & (1 << bit) != 0;
            let actual = self.levels().is_full(bit);
            if expected != actual {
                return Err(InvariantViolation(format!(
                    "level {bit} occupancy is {actual} but bit {bit} of r = {r} is {expected}"
                )));
            }
        }

        for (i, level) in self.levels().iter_occupied() {
            // Level sizes are b·2^i.
            let expected_len = b << i;
            if level.len() != expected_len {
                return Err(InvariantViolation(format!(
                    "level {i} has {} elements, expected {expected_len}",
                    level.len()
                )));
            }
            if level.keys().len() != level.values().len() {
                return Err(InvariantViolation(format!(
                    "level {i} has mismatched key/value array lengths"
                )));
            }
            // Sorted by original key.
            let keys = level.keys();
            if let Some(pos) = keys.windows(2).position(|w| (w[0] >> 1) > (w[1] >> 1)) {
                return Err(InvariantViolation(format!(
                    "level {i} is not sorted by original key at index {pos}"
                )));
            }
            // The fence min/max must bracket the level exactly — queries
            // prune levels and shards against them, so a stale fence would
            // silently drop results.
            if level.min_key() != keys[0] >> 1 || level.max_key() != keys[keys.len() - 1] >> 1 {
                return Err(InvariantViolation(format!(
                    "level {i} fence min/max ({}, {}) disagree with its keys ({}, {})",
                    level.min_key(),
                    level.max_key(),
                    keys[0] >> 1,
                    keys[keys.len() - 1] >> 1
                )));
            }
            // A level's filter must never produce a false negative: spot
            // check a deterministic sample of resident keys.
            if let Some(filter) = level.filter() {
                for &k in keys.iter().step_by((keys.len() / 64).max(1)) {
                    if !filter.contains(k >> 1) {
                        return Err(InvariantViolation(format!(
                            "level {i} filter reports resident key {} absent",
                            k >> 1
                        )));
                    }
                }
            }
            // A filled run digest cache must still describe the level: a
            // stale one would make the next snapshot reuse a run file that
            // no longer matches the level's contents.
            if let Some(digest) = level.cached_run_digest() {
                let actual = crate::wal::run_digest(keys, level.values());
                if actual != digest {
                    return Err(InvariantViolation(format!(
                        "level {i} cached run digest {digest:#x} is stale (contents hash to {actual:#x})"
                    )));
                }
            }
        }

        self.check_arena_invariants()
    }

    /// Check the slab-arena aliasing invariants (a no-op with the arena
    /// disabled): no two live levels' reserved regions overlap, and no live
    /// region aliases a span currently sitting on the arena's free lists —
    /// either would mean a recycled buffer was handed out while a level
    /// still reads through it.
    fn check_arena_invariants(&self) -> Result<(), InvariantViolation> {
        let Some(arena) = &self.arena else {
            return Ok(());
        };
        let live: Vec<(usize, crate::arena::RegionSpan)> = self
            .levels()
            .iter_occupied()
            .flat_map(|(i, level)| level.arena_spans().map(move |s| (i, s)))
            .collect();
        for (a, (i, sa)) in live.iter().enumerate() {
            for (j, sb) in live.iter().skip(a + 1) {
                if sa.overlaps(sb) {
                    return Err(InvariantViolation(format!(
                        "arena regions of levels {i} and {j} overlap \
                         (chunk {:#x}, offsets {} and {})",
                        sa.chunk, sa.offset, sb.offset
                    )));
                }
            }
        }
        for free in arena.free_spans() {
            for (i, sa) in &live {
                if sa.overlaps(&free) {
                    return Err(InvariantViolation(format!(
                        "level {i} reads a recycled arena span \
                         (chunk {:#x}, offset {}, len {})",
                        free.chunk, free.offset, free.len
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::batch::UpdateBatch;
    use crate::lsm::GpuLsm;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    #[test]
    fn empty_lsm_satisfies_invariants() {
        let lsm = GpuLsm::new(device(), 8).unwrap();
        assert!(lsm.check_invariants().is_ok());
    }

    #[test]
    fn invariants_hold_after_every_batch() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = 32usize;
        let mut lsm = GpuLsm::new(device(), b).unwrap();
        for _ in 0..17 {
            let mut batch = UpdateBatch::new();
            for _ in 0..b {
                let key = rng.gen_range(0..1000u32);
                if rng.gen_bool(0.25) {
                    batch.delete(key);
                } else {
                    batch.insert(key, rng.gen());
                }
            }
            lsm.update(&batch).unwrap();
            lsm.check_invariants().expect("invariants after batch");
        }
    }

    #[test]
    fn stale_run_digest_cache_is_caught() {
        let run = |digest| crate::wal::LoadedRun {
            level: 0,
            keys: vec![2, 4, 6, 8],
            values: vec![1, 2, 3, 4],
            digest,
        };
        let good = crate::wal::run_digest(&[2, 4, 6, 8], &[1, 2, 3, 4]);
        let lsm = GpuLsm::from_levels(device(), 4, vec![run(good)], &crate::LsmConfig::default())
            .unwrap();
        lsm.check_invariants().unwrap();
        let stale = GpuLsm::from_levels(
            device(),
            4,
            vec![run(good ^ 1)],
            &crate::LsmConfig::default(),
        )
        .unwrap();
        let err = stale.check_invariants().unwrap_err();
        assert!(err.0.contains("stale"), "{err}");
    }

    #[test]
    fn invariants_hold_after_cleanup_and_bulk_build() {
        let pairs: Vec<(u32, u32)> = (0..300).map(|k| (k * 3 % 257, k)).collect();
        let mut lsm = GpuLsm::bulk_build(device(), 16, &pairs).unwrap();
        lsm.check_invariants().unwrap();
        lsm.delete(&(0..16).collect::<Vec<u32>>()).unwrap();
        lsm.check_invariants().unwrap();
        lsm.cleanup();
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn violation_display_mentions_invariant() {
        let v = super::InvariantViolation("level 1 is bad".to_string());
        assert!(v.to_string().contains("invariant violated"));
    }
}
