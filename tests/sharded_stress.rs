//! Concurrency stress: reader threads hammer `lookup` / `count` / `range`
//! while writer threads apply update batches (and a janitor thread runs
//! cleanups), against both the sharded service and the single-lock wrapper.
//!
//! The checked property is the paper's phase semantics (§III-A rule 2)
//! applied per shard: every answer a reader observes must correspond to the
//! state after *some prefix* of the update batches applied to the queried
//! shard — never a torn batch, and never a state that later runs backwards.
//! The workload is constructed so prefixes are recognisable:
//!
//! * each writer owns a disjoint, single-shard block of keys;
//! * round `r` writes value `r` into the block (odd rounds insert every
//!   key; even rounds delete the block's first half and re-insert the
//!   second half), so each reachable state is exactly characterised by its
//!   round number;
//! * a single-block query therefore must observe one of the reachable
//!   states, and per-key values must be non-decreasing over time from any
//!   one reader's perspective (a shard's state only moves forward).
//!
//! Run with `LSM_PAR_CUTOFF=1` (the CI matrix does) to force every
//! internally parallel path through the worker pool even at these small
//! sizes, stressing nested-parallelism and pool reentrancy underneath the
//! shard locks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gpu_lsm::{
    AdmissionConfig, AdmittedLsm, ConcurrentGpuLsm, GpuLsm, ShardRouter, ShardedLsm, UpdateBatch,
};
use gpu_sim::{Device, DeviceConfig};

/// Keys per writer block (must be even; first half gets deleted on even
/// rounds).
const BLOCK: u32 = 64;
/// Update rounds per writer.
const ROUNDS: u32 = 24;
/// Reader threads per backend.
const READERS: usize = 3;
/// Writer threads (= key blocks) per backend.
const WRITERS: usize = 4;

/// The per-shard update/query surface every backend exposes.
trait Backend: Clone + Send + Sync + 'static {
    fn apply(&self, batch: &UpdateBatch);
    fn lookup(&self, keys: &[u32]) -> Vec<Option<u32>>;
    fn count(&self, intervals: &[(u32, u32)]) -> Vec<u32>;
    fn range_pairs(&self, lo: u32, hi: u32) -> Vec<(u32, u32)>;
    fn cleanup(&self);
    /// Drain any asynchronous write pipeline (no-op for synchronous
    /// backends); called once the writers finish, before the final
    /// quiescent-state assertions.
    fn quiesce(&self) {}
}

impl Backend for ShardedLsm {
    fn apply(&self, batch: &UpdateBatch) {
        self.update(batch).expect("valid batch");
    }
    fn lookup(&self, keys: &[u32]) -> Vec<Option<u32>> {
        ShardedLsm::lookup(self, keys)
    }
    fn count(&self, intervals: &[(u32, u32)]) -> Vec<u32> {
        ShardedLsm::count(self, intervals)
    }
    fn range_pairs(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        ShardedLsm::range(self, &[(lo, hi)]).iter_query(0).collect()
    }
    fn cleanup(&self) {
        ShardedLsm::cleanup(self);
    }
}

impl Backend for AdmittedLsm {
    fn apply(&self, batch: &UpdateBatch) {
        self.submit(batch).expect("valid batch");
    }
    fn lookup(&self, keys: &[u32]) -> Vec<Option<u32>> {
        AdmittedLsm::lookup(self, keys)
    }
    fn count(&self, intervals: &[(u32, u32)]) -> Vec<u32> {
        AdmittedLsm::count(self, intervals)
    }
    fn range_pairs(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        AdmittedLsm::range(self, &[(lo, hi)])
            .iter_query(0)
            .collect()
    }
    fn cleanup(&self) {
        AdmittedLsm::cleanup(self).expect("admission pipeline alive");
    }
    fn quiesce(&self) {
        self.flush().expect("admission pipeline alive");
    }
}

impl Backend for ConcurrentGpuLsm {
    fn apply(&self, batch: &UpdateBatch) {
        self.update(batch).expect("valid batch");
    }
    fn lookup(&self, keys: &[u32]) -> Vec<Option<u32>> {
        ConcurrentGpuLsm::lookup(self, keys)
    }
    fn count(&self, intervals: &[(u32, u32)]) -> Vec<u32> {
        ConcurrentGpuLsm::count(self, intervals)
    }
    fn range_pairs(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        ConcurrentGpuLsm::range(self, &[(lo, hi)])
            .iter_query(0)
            .collect()
    }
    fn cleanup(&self) {
        ConcurrentGpuLsm::cleanup(self);
    }
}

/// Low key of writer `w`'s block.  Blocks sit at distinct shard low bounds
/// (8-way sharding), so each block lives entirely inside one shard and
/// single-block queries are per-shard atomic.
fn block_base(w: usize) -> u32 {
    let router = ShardRouter::new(8).unwrap();
    router.shard_bounds(2 * w).0
}

/// The batch of round `r` (1-based) for the block at `base`:
/// odd rounds insert all `BLOCK` keys with value `r`; even rounds delete
/// the first half and re-insert the second half with value `r`.
fn round_batch(base: u32, r: u32) -> UpdateBatch {
    let mut batch = UpdateBatch::with_capacity(BLOCK as usize);
    if r % 2 == 1 {
        for k in 0..BLOCK {
            batch.insert(base + k, r);
        }
    } else {
        for k in 0..BLOCK / 2 {
            batch.delete(base + k);
        }
        for k in BLOCK / 2..BLOCK {
            batch.insert(base + k, r);
        }
    }
    batch
}

/// Check a single-block observation against the reachable round states.
/// Returns the round the observation corresponds to (0 = before round 1).
///
/// State after round `r`: odd `r` → all keys present with value `r`; even
/// `r` → first half absent, second half value `r`; `r = 0` → empty.
fn classify_block_state(pairs: &[(u32, u32)], base: u32) -> u32 {
    if pairs.is_empty() {
        return 0;
    }
    let values: Vec<u32> = pairs.iter().map(|&(_, v)| v).collect();
    let r = values[0];
    assert!(
        values.iter().all(|&v| v == r),
        "block {base}: a single-shard snapshot must be one round, got {values:?}"
    );
    assert!(
        (1..=ROUNDS).contains(&r),
        "block {base}: impossible round {r}"
    );
    let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    if r % 2 == 1 {
        let expected: Vec<u32> = (0..BLOCK).map(|k| base + k).collect();
        assert_eq!(
            keys, expected,
            "block {base}: odd round {r} must show every key"
        );
    } else {
        let expected: Vec<u32> = (BLOCK / 2..BLOCK).map(|k| base + k).collect();
        assert_eq!(
            keys, expected,
            "block {base}: even round {r} must show exactly the second half"
        );
    }
    r
}

fn stress<B: Backend>(backend: B) {
    stress_with(backend, None::<fn()>);
}

/// The stress harness, optionally with a **churn** thread that mutates the
/// shard topology (splits/merges) while the writers, readers and janitor
/// run — the rebalancing counterpart of the janitor's cleanup churn.  The
/// churn closure runs one split+merge cycle per call, so topology changes
/// always come in pairs and the final shard layout equals the initial one.
fn stress_with<B: Backend, F: Fn() + Send + Sync>(backend: B, churn: Option<F>) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writers: one block each, ROUNDS batches, applied in order.
        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let backend = backend.clone();
            writer_handles.push(scope.spawn(move || {
                let base = block_base(w);
                for r in 1..=ROUNDS {
                    backend.apply(&round_batch(base, r));
                }
            }));
        }

        // Janitor: cleanups interleave with everything else; cleanup is an
        // exclusive phase and must be invisible to query answers.
        let janitor = {
            let backend = backend.clone();
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    backend.cleanup();
                    std::thread::yield_now();
                }
            })
        };

        // Churn: split/merge cycles racing the traffic (when provided).
        let churn_handle = churn.as_ref().map(|churn| {
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    churn();
                    std::thread::yield_now();
                }
            })
        });

        // Readers: validate every observation against the reachable states
        // and require per-key monotonicity (states never run backwards).
        let mut reader_handles = Vec::new();
        for _ in 0..READERS {
            let backend = backend.clone();
            let done = &done;
            reader_handles.push(scope.spawn(move || {
                // Last observed round per block (observations are made
                // under a single shard's read lock, so they're ordered).
                let mut last_round = [0u32; WRITERS];
                let mut last_value: std::collections::HashMap<u32, u32> =
                    std::collections::HashMap::new();
                let mut observations = 0usize;
                loop {
                    for (w, last) in last_round.iter_mut().enumerate() {
                        let base = block_base(w);

                        // Range: a full single-shard snapshot of the block.
                        let pairs = backend.range_pairs(base, base + BLOCK - 1);
                        let r = classify_block_state(&pairs, base);
                        assert!(
                            r >= *last,
                            "block {w} ran backwards: round {r} after {last}"
                        );
                        *last = r;

                        // Count: must match a reachable state's cardinality.
                        let c = backend.count(&[(base, base + BLOCK - 1)])[0];
                        assert!(
                            c == 0 || c == BLOCK / 2 || c == BLOCK,
                            "block {w}: count {c} matches no round prefix"
                        );

                        // Lookups: per-key values only ever increase.
                        let keys: Vec<u32> = (0..BLOCK).map(|k| base + k).collect();
                        for (k, v) in keys.iter().zip(backend.lookup(&keys)) {
                            if let Some(v) = v {
                                assert!((1..=ROUNDS).contains(&v), "key {k}: bad value {v}");
                                let prev = last_value.entry(*k).or_insert(0);
                                assert!(v >= *prev, "key {k} ran backwards: {v} after {prev}");
                                *prev = v;
                            }
                        }
                        observations += 1;
                    }
                    // Check for shutdown only after a full sweep so every
                    // reader validates each block at least once, even when
                    // the writers drain before the readers get scheduled.
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
                observations
            }));
        }

        for h in writer_handles {
            h.join().expect("writer thread panicked");
        }
        backend.quiesce();
        done.store(true, Ordering::Release);
        janitor.join().expect("janitor thread panicked");
        if let Some(h) = churn_handle {
            h.join().expect("churn thread panicked");
        }
        for h in reader_handles {
            let obs = h.join().expect("reader thread panicked");
            assert!(obs > 0, "reader never got to observe anything");
        }
    });

    // Quiescent end state: every block at its final round (ROUNDS is even:
    // first half deleted, second half = ROUNDS).
    for w in 0..WRITERS {
        let base = block_base(w);
        let pairs = backend.range_pairs(base, base + BLOCK - 1);
        assert_eq!(classify_block_state(&pairs, base), ROUNDS);
        assert_eq!(backend.count(&[(base, base + BLOCK - 1)])[0], BLOCK / 2);
    }
}

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

#[test]
fn sharded_lsm_under_concurrent_mixed_fire() {
    let lsm = ShardedLsm::new(device(), BLOCK as usize, 8).unwrap();
    stress(lsm.clone());
    lsm.check_invariants().unwrap();
}

#[test]
fn single_lock_wrapper_under_concurrent_mixed_fire() {
    let lsm = ConcurrentGpuLsm::new(GpuLsm::new(device(), BLOCK as usize).unwrap());
    stress(lsm);
}

/// The admitted (pipelined) backend under the same fire: queued/coalesced
/// application must still only expose round-prefix states, with readers in
/// the eventually consistent mode racing the background applier.
#[test]
fn admitted_backend_under_concurrent_mixed_fire() {
    let lsm = AdmittedLsm::with_config(
        ShardedLsm::new(device(), BLOCK as usize, 8).unwrap(),
        AdmissionConfig {
            queue_capacity: 4,
            coalesce: true,
            read_your_writes: false,
            submit_deadline: None,
            flush_deadline: None,
        },
    );
    stress(lsm.clone());
    let stats = lsm.admission_stats();
    assert_eq!(stats.queued_batches, 0, "stress must end drained");
    lsm.check_invariants().unwrap();
}

/// Same fire with read-your-writes on and coalescing off: lookups overlay
/// the queues while interval queries drain, and the applier replays
/// batches exactly as submitted.
#[test]
fn admitted_read_your_writes_backend_under_concurrent_mixed_fire() {
    let lsm = AdmittedLsm::with_config(
        ShardedLsm::new(device(), BLOCK as usize, 8).unwrap(),
        AdmissionConfig {
            queue_capacity: 4,
            coalesce: false,
            read_your_writes: true,
            submit_deadline: None,
            flush_deadline: None,
        },
    );
    stress(lsm.clone());
    lsm.check_invariants().unwrap();
}

/// The key the rebalance-churn tests split at: the midpoint of writer 1's
/// shard, far above its 64-key block, so the block always stays whole
/// inside the left replacement shard and the round-prefix invariant keeps
/// holding across rebuilds.
fn churn_split_key() -> u32 {
    block_base(1) + (1 << 27)
}

/// Online split/merge churn against live traffic on the synchronous
/// sharded service: a churn thread repeatedly splits the shard holding
/// writer 1's block (at a key above the block) and merges the halves back,
/// while writers, readers and the cleanup janitor hammer the service.
/// Readers must keep observing only round-prefix states — the atomic
/// routing-table swap may never expose a torn domain, and the rebuild must
/// preserve the visible state exactly.
#[test]
fn sharded_rebalance_churn_under_concurrent_mixed_fire() {
    let lsm = ShardedLsm::new(device(), BLOCK as usize, 8).unwrap();
    let split_key = churn_split_key();
    let churn = {
        let lsm = lsm.clone();
        move || {
            // This thread is the only topology mutator, so the
            // router-derived indices are stable across the two calls.
            let s = lsm.router().shard_of(split_key);
            lsm.split_shard_at(s, split_key).expect("churn split");
            std::thread::yield_now();
            let s = lsm.router().shard_of(split_key);
            lsm.merge_shards(s - 1).expect("churn merge");
        }
    };
    stress_with(lsm.clone(), Some(churn));
    // Splits and merges came in pairs: the topology is back to 8 shards.
    assert_eq!(lsm.num_shards(), 8);
    let stats = lsm.stats();
    assert_eq!(stats.rebalance_splits, stats.rebalance_merges);
    assert_eq!(stats.epoch, stats.rebalance_splits + stats.rebalance_merges);
    lsm.check_invariants().unwrap();
}

/// The same rebalance churn through the admission layer's epoch-based
/// handoff: every split/merge drains the affected queues behind a targeted
/// flush barrier before the rebuild, concurrent submitters re-route, and
/// flush barriers survive queue re-layout.  Queue capacity is pinned small
/// to keep submitters sleeping on backpressure across handoffs; coalesce
/// mode comes from the service's resolved config, which follows
/// `LSM_ADMIT_COALESCE`, so the CI matrix exercises both the coalescing and
/// the replay applier.
#[test]
fn admitted_rebalance_churn_under_concurrent_mixed_fire() {
    let service = ShardedLsm::new(device(), BLOCK as usize, 8).unwrap();
    let admission = AdmissionConfig {
        queue_capacity: 4,
        ..service.config().admission()
    };
    let lsm = AdmittedLsm::with_config(service, admission);
    let split_key = churn_split_key();
    let churn = {
        let lsm = lsm.clone();
        move || {
            let s = lsm.service().router().shard_of(split_key);
            lsm.trigger_split_at(s, split_key).expect("churn split");
            std::thread::yield_now();
            let s = lsm.service().router().shard_of(split_key);
            lsm.trigger_merge(s - 1).expect("churn merge");
        }
    };
    stress_with(lsm.clone(), Some(churn));
    assert_eq!(lsm.service().num_shards(), 8);
    let stats = lsm.admission_stats();
    assert_eq!(stats.queued_batches, 0, "stress must end drained");
    assert_eq!(stats.rebalances % 2, 0, "splits and merges come in pairs");
    lsm.check_invariants().unwrap();
}
