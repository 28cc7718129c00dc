//! Pipelined batch admission in front of the sharded service.
//!
//! [`crate::ShardedLsm`] removed the cross-shard serialization of updates,
//! but a writer still blocks for the whole carry chain of every batch it
//! applies.  [`AdmittedLsm`] decouples the two: writers **validate and
//! enqueue** batches (split per shard, bounded queues) and return
//! immediately; a background **applier** drains the queues, **coalesces**
//! adjacent batches headed for the same shard into fewer, fuller batches,
//! and applies them through the service.  A `b`-sized batch split over `k`
//! shards otherwise pads each `b/k`-op sub-batch back to a full `b`
//! elements inside the shard — coalescing recovers exactly that waste under
//! sustained traffic, on top of taking the carry chain off the writers'
//! critical path.
//!
//! ## Ordering and exactness
//!
//! Admission never reorders: sub-batches preserve within-batch op order
//! (the split is stable) and per-shard queues are FIFO, so cross-batch
//! order per key is intact.  Coalescing `w` adjacent batches replaces them
//! with batches that are *visibly equivalent* to applying the `w` batches
//! in sequence: for every key, the **last** batch touching it decides —
//! a batch containing any deletion of the key deletes it (rule 6 exactly:
//! the tombstone shadows same-batch insertions), otherwise the batch's
//! first insertion wins (rule 4 exactly).  Queries therefore return
//! byte-identical answers to the synchronous path; the physical layout may
//! differ (fewer resident batches, fewer stale elements — coalescing is
//! also a micro-cleanup).  With coalescing disabled (`LSM_ADMIT_COALESCE=0`)
//! even the physical per-shard layout is byte-identical to synchronous
//! [`crate::ShardedLsm::update`] calls.
//!
//! ## Visibility
//!
//! The admitted view is eventually consistent: a query may miss batches
//! still in the queues.  [`AdmittedLsm::flush`] is the drain barrier
//! (returns once every previously enqueued batch is applied).  The
//! **read-your-writes** mode makes queued state visible without waiting:
//! point lookups overlay the pending per-shard queues (newest batch wins,
//! exactly the rules above) in front of the applied state, and interval /
//! order queries drain first.
//!
//! ## Rebalancing handoff
//!
//! The service can split and merge shards online (see
//! [`crate::ShardedLsm::split_shard`]); with an admission layer in front,
//! a rebalance must not strand or misroute queued batches.  The layer
//! therefore mirrors the service's routing table (router + per-shard
//! **stable queue ids** + epoch) inside its queue state and executes every
//! rebalance **on the applier thread** as an epoch-based handoff:
//!
//! 1. the affected shards' queues are drained inline (a *targeted* flush
//!    barrier — untouched shards keep queueing and applying),
//! 2. the service performs the structural split/merge (atomic table swap),
//! 3. the queue state is re-laid-out against the new table: surviving
//!    shard ids keep their queues and flush counters, replacement shards
//!    get fresh empty queues, and the mirrored router/epoch advance.
//!
//! Submitters route against the mirrored router under the queue lock, so a
//! batch is always enqueued consistently with one table generation; a
//! submitter sleeping on backpressure re-routes its remaining sub-batches
//! if the epoch moved while it slept.  Rebalances are requested with
//! [`AdmittedLsm::trigger_split`] / [`AdmittedLsm::trigger_merge`] (the
//! calls block until the applier has performed the handoff) or planned
//! automatically from hot-shard detection when the service was built with
//! [`crate::RebalanceConfig::enabled`].
//!
//! [`AdmittedLsm::flush`] stays correct across handoffs because barriers
//! wait on (queue id, enqueued count) pairs: a queue id that disappeared
//! was drained before removal, so its target is vacuously satisfied.
//!
//! ## Panic safety
//!
//! The applier runs arbitrary merge code; if it panics, the shared mutexes
//! it held are poisoned and the thread is gone.  Every lock acquisition in
//! this module recovers from poisoning (the queue state is a set of plain
//! counters and `VecDeque`s — there is no partially-applied invariant to
//! protect), the panic payload is captured, and every sleeping submitter /
//! flusher / rebalance requester is woken to observe the death.  From then
//! on [`AdmittedLsm::submit`] and [`AdmittedLsm::flush`] return
//! [`LsmError::ApplierPanicked`] instead of hanging or cascading the
//! panic, and dropping the last handle never double-panics (the join is
//! skipped while unwinding and its result is checked, not unwrapped).
//!
//! ## Durability
//!
//! Built through [`AdmittedLsm::open_durable`], the layer logs every
//! submitted batch to a write-ahead log *before* enqueueing it (same lock,
//! so log order equals admission order), writes crash-consistent snapshots
//! (manifest + immutable run files, see [`crate::wal`]) at quiescent flush
//! barriers and after rebalance epoch bumps, and on open replays the WAL
//! tail through this very admission path.  The default (no durability)
//! leaves the write path byte-identical to the in-memory layer.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::batch::{Op, UpdateBatch};
use crate::cleanup::CleanupReport;
use crate::config::LsmConfig;
use crate::error::{LsmError, Result};
use crate::key::{Key, Value, MAX_KEY};
use crate::latency::{LatencyHistogram, LatencySnapshot};
use crate::lsm::GpuLsm;
use crate::range::RangeResult;
use crate::router::ShardRouter;
use crate::shard::{RebalanceAction, ShardedLsm, ShardedStats};
use crate::validate::InvariantViolation;
use crate::vfs::Vfs;
use crate::wal::{
    self, DegradeMode, DurabilityStats, RecoveryReport, RunMap, SnapshotMeta, SnapshotRuns, Wal,
};

/// Lock, recovering from poisoning: an applier panic must not turn every
/// later `submit`/`flush`/`drop` into a cascading panic.  The guarded
/// state stays structurally valid across an unwind (plain queues and
/// counters), and the applier's death itself is surfaced as a typed error
/// by the callers' liveness checks.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poison recovery as [`lock_ignore_poison`].
fn wait_ignore_poison<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Bounded condvar wait with the same poison recovery; the caller rechecks
/// both its predicate and its own deadline after every wake, so the
/// timeout flag itself is not needed.
fn wait_timeout_ignore_poison<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Default bound of each shard's admission queue, in batches.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Most batches the applier pulls from one shard's queue per drain step —
/// the coalescing window.
pub const COALESCE_WINDOW: usize = 16;

/// Tuning of one admission layer.  [`crate::LsmConfig::admission`] derives
/// it from a config (the `LSM_ADMIT_*` knobs reach it through a service's
/// resolved config); `Default` is the built-in constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Bound of each shard's queue, in batches; submitters block when the
    /// target shard's queue is full (backpressure).
    pub queue_capacity: usize,
    /// Whether the applier coalesces adjacent same-shard batches.
    pub coalesce: bool,
    /// Whether queries observe queued (not yet applied) state: lookups
    /// overlay the queues, interval/order queries drain first.
    pub read_your_writes: bool,
    /// Upper bound on a `submit`'s backpressure wait; past it the call
    /// returns [`LsmError::SubmitTimedOut`] with nothing admitted or
    /// logged, so an overloaded service sheds load instead of wedging its
    /// writers.  `None` (default) waits forever.
    pub submit_deadline: Option<Duration>,
    /// Upper bound on a `flush` drain-barrier wait; past it the call
    /// returns [`LsmError::FlushTimedOut`] (already-admitted batches still
    /// apply eventually).  `None` (default) waits forever.
    pub flush_deadline: Option<Duration>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            coalesce: true,
            read_your_writes: false,
            submit_deadline: None,
            flush_deadline: None,
        }
    }
}

/// Lifetime admission counters (monotonic except the two depth gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Batches currently sitting in the per-shard queues.
    pub queued_batches: usize,
    /// Batches popped by the applier but not yet applied.
    pub in_flight_batches: usize,
    /// Whole batches accepted by [`AdmittedLsm::submit`].
    pub submitted_batches: u64,
    /// Operations across all submitted batches.
    pub submitted_ops: u64,
    /// Per-shard sub-batches enqueued (a batch spanning `k` shards counts
    /// `k` times).
    pub enqueued_sub_batches: u64,
    /// Batches the applier actually pushed into the shards.
    pub applied_batches: u64,
    /// Operations across all applied batches (after coalescing dropped
    /// superseded ops).
    pub applied_ops: u64,
    /// Sub-batches absorbed by coalescing (enqueued minus applied, counted
    /// as they happen).
    pub coalesced_batches: u64,
    /// Completed [`AdmittedLsm::flush`] barriers.
    pub flushes: u64,
    /// Rebalance handoffs (splits + merges) executed by the applier.
    pub rebalances: u64,
}

/// Per-operation latency attribution of the admission pipeline, split the
/// way a service needs it for SLO accounting: time a sub-batch spent
/// **waiting in its shard queue** (admission to applier pop — grows with
/// queue depth, the backpressure signal) versus time the applier spent
/// **applying** batches to the shards (the carry-chain cost itself).  Both
/// histograms record nanoseconds.
#[derive(Debug, Default)]
struct AdmissionLatency {
    queue_wait: LatencyHistogram,
    apply: LatencyHistogram,
}

/// Microsecond percentile summaries of the admission pipeline's two
/// latency components (see [`AdmittedLsm::latency_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionLatencyStats {
    /// Admission-to-pop wait per enqueued sub-batch.
    pub queue_wait: LatencySnapshot,
    /// Shard-apply time per batch the applier pushed (after coalescing).
    pub apply: LatencySnapshot,
}

/// A validated, shard-routed sub-batch plus the instant it was admitted —
/// the timestamp the applier turns into the queue-wait histogram.
#[derive(Debug)]
struct QueuedBatch {
    batch: UpdateBatch,
    admitted_at: Instant,
}

/// One shard's admission queue, identified by the shard's **stable id** so
/// a rebalance can re-layout the queue vector without losing queued work or
/// flush accounting for the shards it did not touch.
#[derive(Debug)]
struct ShardQueue {
    /// The service-assigned shard id this queue feeds (stable across
    /// rebalances that do not rebuild the shard).
    id: u64,
    /// FIFO of validated, shard-routed sub-batches.
    queue: VecDeque<QueuedBatch>,
    /// Batches the applier has popped but not yet applied — still pending,
    /// so the read-your-writes overlay must see them.  Populated only when
    /// read-your-writes is on (nothing else reads it).
    applying: Vec<UpdateBatch>,
    /// Lifetime batches enqueued (`submit` side of the flush barrier).
    enqueued_seq: u64,
    /// Lifetime batches fully applied.  The queue is FIFO, so
    /// `applied_seq >= e` proves the first `e` batches enqueued here are
    /// durable — what `flush` actually waits for.
    applied_seq: u64,
}

impl ShardQueue {
    fn new(id: u64) -> Self {
        ShardQueue {
            id,
            queue: VecDeque::new(),
            applying: Vec::new(),
            enqueued_seq: 0,
            applied_seq: 0,
        }
    }
}

/// A rebalance request for the applier to execute between drain windows.
#[derive(Debug, Clone, Copy)]
enum RebalanceCmd {
    /// Split shard `s` at a service-fitted key.
    Split(usize),
    /// Split shard `s` at an explicit key.
    SplitAt(usize, Key),
    /// Merge shards `s` and `s + 1`.
    Merge(usize),
    /// Run hot/cold-shard detection and execute its decision, if any.
    Plan,
}

/// Durability plumbing of one admitted service (present only when built
/// through [`AdmittedLsm::open_durable`]).
#[derive(Debug)]
struct DurabilityState {
    config: wal::DurabilityConfig,
    /// The effective filesystem (the [`crate::vfs::Vfs`] seam).
    vfs: Arc<dyn Vfs>,
    /// The active WAL segment.  Locked after `state` (append happens under
    /// the state lock so log order equals admission order), never before.
    wal: Mutex<Wal>,
    /// Records appended to the active segment since the last snapshot —
    /// the "anything to persist?" signal for flush barriers.
    records_since_snapshot: AtomicU64,
    /// Routing epoch captured by the last snapshot; a mismatch forces a
    /// snapshot even without new records (a split/merge changed the
    /// persistent layout).
    snapshot_epoch: AtomicU64,
    /// Sequence number of the newest durable manifest (0 = none yet).
    manifest_seq: AtomicU64,
    /// Snapshots written by this process.
    snapshots: AtomicU64,
    /// Lifetime record / fsync / retry counters of retired (rotated-away)
    /// segments.
    retired_records: AtomicU64,
    retired_syncs: AtomicU64,
    retired_retries: AtomicU64,
    /// Run files referenced by the newest manifest — the next snapshot's
    /// digest-reuse baseline.  Locked after `state`, like `wal`.
    prev_runs: Mutex<RunMap>,
    /// Runs carried over unchanged instead of rewritten.
    runs_reused: AtomicU64,
    /// Run bytes hashed by snapshots (levels without a cached digest).
    run_bytes_hashed: AtomicU64,
    /// Garbage-collection removals that failed (surfaced, not swallowed).
    gc_failures: AtomicU64,
    /// Sticky health flag ([`DegradeMode::DegradeToVolatile`]): a
    /// persistent IO failure sealed the WAL; the pipeline keeps admitting
    /// in-memory and skips all further logging and snapshots.
    degraded: AtomicBool,
    /// Off while recovery replays the log through `submit` (the replayed
    /// records are already durable; re-logging would duplicate them) —
    /// also gates snapshots, so a mid-replay flush cannot rotate away
    /// records that are still being replayed.
    logging: AtomicBool,
}

/// Everything the submitters, the applier and the queries share.
#[derive(Debug)]
struct Shared {
    service: ShardedLsm,
    config: AdmissionConfig,
    state: Mutex<QueueState>,
    /// Queue-wait and apply-time histograms (applier-written, low rate:
    /// one short lock per drained window).
    latency: Mutex<AdmissionLatency>,
    /// Applier waits here for queued work or rebalance requests.
    work: Condvar,
    /// Submitters wait here for queue space.
    space: Condvar,
    /// Flush barriers wait here for full drain.
    drained: Condvar,
    /// Rebalance requesters wait here for their request's result.
    rebalanced: Condvar,
    /// The applier's panic payload, set exactly once when it dies.
    applier_panic: Mutex<Option<String>>,
    /// Test hook: the applier panics at its next scheduling point.
    panic_injected: AtomicBool,
    /// Test hook: the applier sleeps this many milliseconds (lock
    /// released) at its next scheduling point, consuming the value —
    /// deterministic backpressure for the deadline tests.
    stall_injected: AtomicU64,
    /// WAL + snapshot machinery; `None` for in-memory layers.
    durability: Option<DurabilityState>,
    submitted_batches: AtomicU64,
    submitted_ops: AtomicU64,
    enqueued_sub_batches: AtomicU64,
    applied_batches: AtomicU64,
    applied_ops: AtomicU64,
    coalesced_batches: AtomicU64,
    flushes: AtomicU64,
    rebalances: AtomicU64,
}

impl Shared {
    /// The typed error to report if the applier thread has died.
    fn applier_failure(&self) -> Option<LsmError> {
        lock_ignore_poison(&self.applier_panic)
            .as_ref()
            .map(|payload| LsmError::ApplierPanicked {
                payload: payload.clone(),
            })
    }
}

/// Record the applier's panic payload and wake **every** waiter class:
/// blocked submitters, flush barriers and rebalance requesters must
/// observe the death instead of sleeping forever on a condvar nobody will
/// signal again.
fn record_applier_panic(shared: &Shared, payload: &(dyn std::any::Any + Send)) {
    let message = payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    *lock_ignore_poison(&shared.applier_panic) = Some(message);
    shared.work.notify_all();
    shared.space.notify_all();
    shared.drained.notify_all();
    shared.rebalanced.notify_all();
}

#[derive(Debug)]
struct QueueState {
    /// One queue per shard, in shard order — the layout always mirrors
    /// `router` (and thereby the service's current routing table).
    queues: Vec<ShardQueue>,
    /// Mirror of the service's router: submitters route against this under
    /// the state lock so every enqueue is consistent with one table
    /// generation.
    router: ShardRouter,
    /// Mirror of the service's routing epoch; bumped by every handoff.
    /// Sleeping submitters use it to detect that their routing went stale.
    epoch: u64,
    /// Total batches across the queues.
    queued: usize,
    /// Total batches popped but not yet applied.
    in_flight: usize,
    /// Round-robin cursor so no shard's queue starves.
    next_shard: usize,
    /// Rebalance requests awaiting the applier.  `None` sequence numbers
    /// are fire-and-forget (auto-planned); `Some(seq)` has a caller
    /// blocked in [`AdmittedLsm`] waiting for `rebalance_results[seq]`.
    pending_rebalances: VecDeque<(Option<u64>, RebalanceCmd)>,
    /// Completed request results, keyed by sequence number, removed by the
    /// waiting caller.
    rebalance_results: HashMap<u64, Result<Option<RebalanceAction>>>,
    /// Next rebalance request sequence number.
    next_rebalance_seq: u64,
    /// Applied windows since the last automatic detection check.
    windows_since_check: u64,
    /// Set once, by the last handle's drop; the applier drains and exits.
    shutdown: bool,
}

/// Joins the applier thread when the last user handle drops (the applier
/// drains all queued work first, so dropping implies a final flush).
#[derive(Debug)]
struct Lifecycle {
    shared: Arc<Shared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for Lifecycle {
    fn drop(&mut self) {
        lock_ignore_poison(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        // Never join while this thread is itself unwinding: any panic out
        // of a `Drop` during unwind aborts the process, and the join adds
        // nothing — the applier sees `shutdown`, drains and exits on its
        // own.
        if std::thread::panicking() {
            return;
        }
        if let Some(handle) = lock_ignore_poison(&self.handle).take() {
            if let Err(payload) = handle.join() {
                // The applier's catch-unwind wrapper normally records the
                // payload before the thread exits; this is the backstop
                // for panics outside it.  Check the result instead of
                // unwrapping — propagate the payload to any caller still
                // holding the service, never re-panic in teardown.
                record_applier_panic(&self.shared, payload.as_ref());
            }
        }
    }
}

/// A pipelined-admission handle over a [`ShardedLsm`].
///
/// Cloning is cheap; all clones share the queues, the applier and the
/// underlying service.  The applier thread shuts down (after draining)
/// when the last handle is dropped.
///
/// While an admission layer is attached, rebalance the service through
/// [`AdmittedLsm::trigger_split`] / [`AdmittedLsm::trigger_merge`] (or the
/// automatic planner), **not** by calling [`ShardedLsm::split_shard`]
/// directly on the wrapped service — the layer must drain the affected
/// queues first.
#[derive(Debug, Clone)]
pub struct AdmittedLsm {
    shared: Arc<Shared>,
    _lifecycle: Arc<Lifecycle>,
}

impl AdmittedLsm {
    /// Wrap `service` with the admission configuration of the service's
    /// resolved [`crate::LsmConfig`] (explicit knobs first, then the
    /// `LSM_ADMIT_*` environment the service was built under).
    pub fn new(service: ShardedLsm) -> Self {
        let config = service.config().admission();
        Self::with_config(service, config)
    }

    /// Wrap `service` with an explicit admission configuration.
    pub fn with_config(service: ShardedLsm, config: AdmissionConfig) -> Self {
        Self::build(service, config, None)
    }

    /// Shared constructor body: wire up the queue state and spawn the
    /// applier behind a panic-capturing wrapper.
    fn build(
        service: ShardedLsm,
        config: AdmissionConfig,
        durability: Option<DurabilityState>,
    ) -> Self {
        let table = service.table_snapshot();
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(QueueState {
                queues: table.ids.iter().map(|&id| ShardQueue::new(id)).collect(),
                router: table.router.clone(),
                epoch: table.epoch,
                queued: 0,
                in_flight: 0,
                next_shard: 0,
                pending_rebalances: VecDeque::new(),
                rebalance_results: HashMap::new(),
                next_rebalance_seq: 0,
                windows_since_check: 0,
                shutdown: false,
            }),
            service,
            latency: Mutex::new(AdmissionLatency::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            drained: Condvar::new(),
            rebalanced: Condvar::new(),
            applier_panic: Mutex::new(None),
            panic_injected: AtomicBool::new(false),
            stall_injected: AtomicU64::new(0),
            durability,
            submitted_batches: AtomicU64::new(0),
            submitted_ops: AtomicU64::new(0),
            enqueued_sub_batches: AtomicU64::new(0),
            applied_batches: AtomicU64::new(0),
            applied_ops: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
        });
        let applier_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("lsm-admission".into())
            .spawn(move || {
                // Contain any applier panic: capture the payload, wake
                // every waiter, and let the thread exit cleanly so the
                // joining `Drop` can never double-panic.  The queue state
                // is poison-tolerant (see `lock_ignore_poison`).
                let run = std::panic::AssertUnwindSafe(|| applier_loop(&applier_shared));
                if let Err(payload) = std::panic::catch_unwind(run) {
                    record_applier_panic(&applier_shared, payload.as_ref());
                }
            })
            .expect("spawn admission applier");
        AdmittedLsm {
            _lifecycle: Arc::new(Lifecycle {
                shared: Arc::clone(&shared),
                handle: Mutex::new(Some(handle)),
            }),
            shared,
        }
    }

    /// Open — or crash-recover — a **durable** admitted service.
    ///
    /// `config.durability` must be set; its directory is created if
    /// missing.  An empty directory starts an empty service with
    /// `num_shards` uniform shards.  Otherwise the newest manifest that
    /// fully validates is loaded (corrupt newer ones are skipped and
    /// counted), the shards are rebuilt element-identical from its run
    /// files, and every WAL record of that generation and later is
    /// replayed **through the normal admission path** in log order — a
    /// torn or corrupt tail ends the replay and is physically truncated,
    /// never applied.  `num_shards` only applies to a fresh directory; a
    /// recovered service keeps the sharding (and routing epoch) of its
    /// manifest.
    ///
    /// Returns the recovered handle plus a [`RecoveryReport`] describing
    /// what was found.  On return the service is fully caught up (the
    /// replay has been flushed) and logging is live.
    pub fn open_durable(
        device: Arc<gpu_sim::Device>,
        batch_size: usize,
        num_shards: usize,
        config: LsmConfig,
    ) -> Result<(AdmittedLsm, RecoveryReport)> {
        let config = config.resolve()?;
        let Some(dcfg) = config.durability.clone() else {
            return Err(LsmError::Durability {
                context: "open_durable requires LsmConfig::durability to be set".to_string(),
            });
        };
        let vfs = dcfg.vfs_impl();
        vfs.create_dir_all(&dcfg.dir)
            .map_err(|e| LsmError::Durability {
                context: format!("create durability dir {}: {e}", dcfg.dir.display()),
            })?;

        // A previous incarnation that degraded to volatile left a sticky
        // marker: report it, then clear it once this recovery succeeds.
        let prior_degraded = vfs
            .read_dir_names(&dcfg.dir)
            .map_err(|e| LsmError::Durability {
                context: format!("list durability dir {}: {e}", dcfg.dir.display()),
            })?
            .iter()
            .any(|name| name == wal::DEGRADED_MARKER);
        let mut report = RecoveryReport {
            prior_degraded,
            ..RecoveryReport::default()
        };
        let (service, base_seq, base_epoch, base_runs) =
            match wal::load_newest_snapshot(&vfs, &dcfg.dir)? {
                Some(snapshot) => {
                    if snapshot.batch_size != batch_size {
                        return Err(LsmError::Durability {
                            context: format!(
                                "manifest {} was written with batch size {}, not {batch_size}",
                                snapshot.seq, snapshot.batch_size
                            ),
                        });
                    }
                    report.manifest_seq = Some(snapshot.seq);
                    report.corrupt_manifests_skipped = snapshot.corrupt_skipped;
                    let router = ShardRouter::learned(snapshot.split_points.clone())?;
                    let run_refs = snapshot.run_refs;
                    let shards = snapshot
                        .shards
                        .into_iter()
                        .map(|levels| {
                            GpuLsm::from_levels(device.clone(), batch_size, levels, &config)
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let epoch = snapshot.epoch;
                    let service = ShardedLsm::from_parts(
                        device,
                        batch_size,
                        router,
                        config.clone(),
                        shards,
                        epoch,
                    )?;
                    (service, snapshot.seq, epoch, run_refs)
                }
                None => {
                    let router = ShardRouter::new(num_shards)?;
                    let service = ShardedLsm::build(device, batch_size, router, config, None)?;
                    let epoch = service.epoch();
                    (service, 0, epoch, RunMap::new())
                }
            };

        // Gather the WAL tail: every segment of the restored generation
        // and later, ascending.  (Generations older than the manifest
        // linger only when a crash interrupted garbage collection —
        // replaying them over the snapshot is idempotent, because per key
        // the last record wins and the snapshot already agrees with it.)
        let mut replay: Vec<UpdateBatch> = Vec::new();
        let mut active: Option<(u64, u64)> = None;
        for (seq, path) in wal::list_segments(&vfs, &dcfg.dir, base_seq)? {
            let scan = wal::scan_segment(&vfs, &path)?;
            report.torn_bytes += scan.torn_bytes;
            replay.extend(scan.records);
            active = Some((seq, scan.valid_len));
        }
        // Resume appending to the newest segment (discarding its torn tail
        // for good), or start this generation's first segment.
        let (wal_writer, active_seq) = match active {
            Some((seq, valid_len)) => (
                Wal::open_append(
                    &vfs,
                    wal::segment_path(&dcfg.dir, seq),
                    dcfg.fsync_interval,
                    valid_len,
                    dcfg.retry,
                )?,
                seq,
            ),
            None => (
                Wal::create(
                    &vfs,
                    wal::segment_path(&dcfg.dir, base_seq),
                    dcfg.fsync_interval,
                    dcfg.retry,
                )?,
                base_seq,
            ),
        };

        let admission = service.config().admission();
        let durability = DurabilityState {
            vfs: Arc::clone(&vfs),
            config: dcfg,
            wal: Mutex::new(wal_writer),
            records_since_snapshot: AtomicU64::new(0),
            snapshot_epoch: AtomicU64::new(base_epoch),
            // The next snapshot must outnumber every existing segment, not
            // just the restored manifest (a corrupt newer manifest leaves
            // its segment behind).
            manifest_seq: AtomicU64::new(base_seq.max(active_seq)),
            snapshots: AtomicU64::new(0),
            retired_records: AtomicU64::new(0),
            retired_syncs: AtomicU64::new(0),
            retired_retries: AtomicU64::new(0),
            prev_runs: Mutex::new(base_runs),
            runs_reused: AtomicU64::new(0),
            run_bytes_hashed: AtomicU64::new(0),
            gc_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            logging: AtomicBool::new(false),
        };
        let lsm = Self::build(service, admission, Some(durability));
        for batch in &replay {
            // Replay ignores the configured deadlines: recovery must not
            // shed its own log.
            lsm.submit_with_deadline(batch, None)?;
            report.replayed_batches += 1;
        }
        // Drain the replay before acknowledging recovery.  No snapshot
        // happens here (logging is still off), so the WAL keeps covering
        // the replayed records until the first post-recovery barrier.
        lsm.flush_with_deadline(None)?;
        let durability = lsm.shared.durability.as_ref().expect("durable build");
        if report.prior_degraded {
            // Recovery succeeded from the degraded generation's durable
            // prefix: this incarnation is healthy again.  A failed removal
            // keeps the marker (and the report flag) sticky.
            if durability
                .vfs
                .remove_file(&wal::degraded_marker_path(&durability.config.dir))
                .is_err()
            {
                durability.gc_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        durability.logging.store(true, Ordering::Relaxed);
        Ok((lsm, report))
    }

    /// The wrapped sharded service (answers reflect only *applied* state).
    pub fn service(&self) -> &ShardedLsm {
        &self.shared.service
    }

    /// The admission configuration in effect.
    pub fn config(&self) -> &AdmissionConfig {
        &self.shared.config
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Validate a mixed update batch and enqueue it, blocking while any
    /// target shard's queue is at capacity.  An invalid batch is rejected
    /// in full before anything is enqueued, exactly like the synchronous
    /// path.  Admission is all-or-nothing: the batch's sub-batches land in
    /// their queues in one critical section, so the WAL record written
    /// just before (when durability is on) has exactly the admission order
    /// of the whole batch.  Routing happens against the mirrored table
    /// under the queue lock and is recomputed after every backpressure
    /// wake, so a rebalance landing while the submitter sleeps re-routes
    /// the batch against the new table (per-key op order is unaffected:
    /// all ops on one key travel in one sub-batch).
    ///
    /// # Errors
    ///
    /// Besides batch validation, fails with
    /// [`LsmError::ApplierPanicked`] once the background applier has died
    /// (nothing is enqueued or logged in that case), with
    /// [`LsmError::SubmitTimedOut`] when a configured
    /// [`AdmissionConfig::submit_deadline`] expires on backpressure
    /// (nothing admitted or logged — a load-shedding caller can drop or
    /// retry), and with [`LsmError::Durability`] when the write-ahead log
    /// cannot be appended under [`DegradeMode::FailStop`] (the batch is
    /// then *not* admitted; under
    /// [`DegradeMode::DegradeToVolatile`] the pipeline instead seals the
    /// WAL, raises the sticky `durability_degraded` flag, and admits the
    /// batch in-memory).
    pub fn submit(&self, batch: &UpdateBatch) -> Result<()> {
        self.submit_with_deadline(batch, self.shared.config.submit_deadline)
    }

    /// [`submit`](Self::submit) with an explicit deadline override
    /// (`None` = wait forever; recovery replay uses that).
    fn submit_with_deadline(&self, batch: &UpdateBatch, deadline: Option<Duration>) -> Result<()> {
        if batch.is_empty() {
            return Err(LsmError::EmptyBatch);
        }
        if batch.len() > self.shared.service.batch_size() {
            return Err(LsmError::BatchTooLarge {
                supplied: batch.len(),
                batch_size: self.shared.service.batch_size(),
            });
        }
        if let Some(op) = batch.ops().iter().find(|op| op.key() > MAX_KEY) {
            return Err(LsmError::KeyOutOfRange { key: op.key() });
        }
        let started = Instant::now();
        let enqueued;
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            loop {
                if let Some(err) = self.shared.applier_failure() {
                    return Err(err);
                }
                let parts = route_parts(&state.router, batch);
                let fits = parts
                    .iter()
                    .all(|(s, _)| state.queues[*s].queue.len() < self.shared.config.queue_capacity);
                if !fits {
                    state = match deadline {
                        None => wait_ignore_poison(&self.shared.space, state),
                        Some(limit) => {
                            let waited = started.elapsed();
                            if waited >= limit {
                                return Err(LsmError::SubmitTimedOut {
                                    waited_ms: waited.as_millis() as u64,
                                });
                            }
                            wait_timeout_ignore_poison(&self.shared.space, state, limit - waited)
                        }
                    };
                    continue;
                }
                // Log ahead of enqueue, under the same lock: WAL record
                // order is admission order.  A failed append admits
                // nothing under fail-stop (the writer rolled the file
                // back); under degrade-to-volatile the WAL is sealed at
                // the last durable boundary and admission continues
                // in-memory.
                if let Some(d) = &self.shared.durability {
                    if d.logging.load(Ordering::Relaxed) && !d.degraded.load(Ordering::Relaxed) {
                        // Bind the result so the WAL guard drops before the
                        // degrade path re-locks it.
                        let appended = lock_ignore_poison(&d.wal).append(batch);
                        match appended {
                            Ok(()) => {
                                d.records_since_snapshot.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => match d.config.degrade {
                                DegradeMode::FailStop => return Err(e),
                                DegradeMode::DegradeToVolatile => degrade_to_volatile(d),
                            },
                        }
                    }
                }
                // The admission timestamp is taken *after* any
                // backpressure wait: queue-wait measures time spent in
                // the queue itself, while a blocked submit is visible to
                // the client's own clock.
                let admitted_at = Instant::now();
                enqueued = parts.len() as u64;
                for (s, part) in parts {
                    state.queues[s].queue.push_back(QueuedBatch {
                        batch: part,
                        admitted_at,
                    });
                    state.queued += 1;
                    state.queues[s].enqueued_seq += 1;
                }
                break;
            }
        }
        self.shared
            .submitted_batches
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .submitted_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.shared
            .enqueued_sub_batches
            .fetch_add(enqueued, Ordering::Relaxed);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Enqueue key–value insertions (at most `b`).
    pub fn insert(&self, pairs: &[(Key, Value)]) -> Result<()> {
        self.submit(&UpdateBatch::from_pairs(pairs))
    }

    /// Enqueue deletions (at most `b`).
    pub fn delete(&self, keys: &[Key]) -> Result<()> {
        self.submit(&UpdateBatch::from_deletions(keys))
    }

    /// Drain barrier: returns once every batch enqueued **before the
    /// call** has been applied to the shards.  The wait is against
    /// per-queue (id, enqueued) pairs snapshotted at entry, so concurrent
    /// submitters can keep the queues busy without starving the barrier
    /// (each queue is FIFO, so `applied >= snapshot` proves the snapshot
    /// prefix is durable).  A queue id that disappears was drained by a
    /// rebalance handoff before removal, satisfying its target.
    ///
    /// With durability on, a completed barrier over an idle pipeline also
    /// writes a crash-consistent snapshot and rotates the write-ahead log.
    ///
    /// # Errors
    ///
    /// [`LsmError::ApplierPanicked`] once the background applier has died
    /// — even if the snapshotted targets were already met, because the
    /// barrier can no longer promise anything about applied state;
    /// [`LsmError::FlushTimedOut`] when a configured
    /// [`AdmissionConfig::flush_deadline`] expires before the drain
    /// (admitted batches still apply eventually); and
    /// [`LsmError::Durability`] when the snapshot cannot be written under
    /// [`DegradeMode::FailStop`] (the drain itself still happened; the WAL
    /// keeps covering the drained records).
    pub fn flush(&self) -> Result<()> {
        self.flush_with_deadline(self.shared.config.flush_deadline)
    }

    /// [`flush`](Self::flush) with an explicit deadline override
    /// (`None` = wait forever; recovery replay uses that).
    fn flush_with_deadline(&self, deadline: Option<Duration>) -> Result<()> {
        let started = Instant::now();
        let mut state = lock_ignore_poison(&self.shared.state);
        let targets: Vec<(u64, u64)> = state
            .queues
            .iter()
            .map(|q| (q.id, q.enqueued_seq))
            .collect();
        loop {
            if let Some(err) = self.shared.applier_failure() {
                return Err(err);
            }
            let pending = targets.iter().any(|&(id, target)| {
                state
                    .queues
                    .iter()
                    .find(|q| q.id == id)
                    .is_some_and(|q| q.applied_seq < target)
            });
            if !pending {
                break;
            }
            state = match deadline {
                None => wait_ignore_poison(&self.shared.drained, state),
                Some(limit) => {
                    let waited = started.elapsed();
                    if waited >= limit {
                        return Err(LsmError::FlushTimedOut {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    wait_timeout_ignore_poison(&self.shared.drained, state, limit - waited)
                }
            };
        }
        maybe_snapshot(&self.shared, &state)?;
        drop(state);
        self.shared.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush, then run the service's cleanup on every shard.
    ///
    /// # Errors
    ///
    /// Propagates the [`flush`](Self::flush) failure modes; cleanup runs
    /// only after a successful drain.
    pub fn cleanup(&self) -> Result<CleanupReport> {
        self.flush()?;
        Ok(self.shared.service.cleanup())
    }

    // ------------------------------------------------------------------
    // Rebalancing
    // ------------------------------------------------------------------

    /// Ask the applier to split shard `s` at a service-fitted key (see
    /// [`ShardedLsm::split_shard`]), draining the shard's queue first.
    /// Blocks until the handoff completes; returns the action taken.
    pub fn trigger_split(&self, s: usize) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::Split(s))
    }

    /// Ask the applier to split shard `s` at an explicit `key` (see
    /// [`ShardedLsm::split_shard_at`]), draining the shard's queue first.
    pub fn trigger_split_at(&self, s: usize, key: Key) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::SplitAt(s, key))
    }

    /// Ask the applier to merge shards `s` and `s + 1` (see
    /// [`ShardedLsm::merge_shards`]), draining both queues first.
    pub fn trigger_merge(&self, s: usize) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::Merge(s))
    }

    /// Ask the applier to run hot/cold-shard detection now and execute its
    /// decision, if any.  Returns the action taken (`Ok(None)` when no
    /// threshold tripped).
    pub fn trigger_rebalance_check(&self) -> Result<Option<RebalanceAction>> {
        self.request_rebalance(RebalanceCmd::Plan)
    }

    /// Enqueue a rebalance request and block until the applier executed it.
    fn request_rebalance(&self, cmd: RebalanceCmd) -> Result<Option<RebalanceAction>> {
        let mut state = lock_ignore_poison(&self.shared.state);
        if let Some(err) = self.shared.applier_failure() {
            return Err(err);
        }
        let seq = state.next_rebalance_seq;
        state.next_rebalance_seq += 1;
        state.pending_rebalances.push_back((Some(seq), cmd));
        self.shared.work.notify_all();
        loop {
            if let Some(result) = state.rebalance_results.remove(&seq) {
                return result;
            }
            if let Some(err) = self.shared.applier_failure() {
                return Err(err);
            }
            state = wait_ignore_poison(&self.shared.rebalanced, state);
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Bulk point lookups.  In read-your-writes mode the pending queues are
    /// overlaid in front of the applied state (newest pending batch wins);
    /// otherwise only applied state is visible.
    pub fn lookup(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.lookup_with(queries, ShardedLsm::lookup)
    }

    /// Warp-style bulk lookups — [`ShardedLsm::bulk_get`] behind the same
    /// read-your-writes overlay as [`AdmittedLsm::lookup`]; results are
    /// identical to it.
    pub fn bulk_get(&self, queries: &[Key]) -> Vec<Option<Value>> {
        self.lookup_with(queries, ShardedLsm::bulk_get)
    }

    /// Shared read path: overlay the pending queues (in read-your-writes
    /// mode), resolve the fall-through keys against the applied state with
    /// `resolve`.
    fn lookup_with(
        &self,
        queries: &[Key],
        resolve: impl Fn(&ShardedLsm, &[Key]) -> Vec<Option<Value>>,
    ) -> Vec<Option<Value>> {
        if !self.shared.config.read_your_writes {
            return resolve(&self.shared.service, queries);
        }
        // Decide what the pending (queued + in-flight) ops say about each
        // query under one short lock; undecided keys fall through to the
        // applied state.  Each touched shard's pending batches are folded
        // into one key → decision map in a single pass, so the lock is
        // held for O(pending ops + queries), not their product.  Routing
        // uses the mirrored router so the overlay matches the enqueue
        // layout even across rebalances.
        let overlay: Vec<Option<Option<Value>>> = {
            let state = lock_ignore_poison(&self.shared.state);
            let mut maps: Vec<Option<HashMap<Key, Option<Value>>>> = vec![None; state.queues.len()];
            queries
                .iter()
                .map(|&q| {
                    let s = state.router.shard_of(q.min(MAX_KEY));
                    maps[s]
                        .get_or_insert_with(|| pending_decisions(&state, s))
                        .get(&q)
                        .copied()
                })
                .collect()
        };
        let undecided: Vec<Key> = queries
            .iter()
            .zip(&overlay)
            .filter(|(_, o)| o.is_none())
            .map(|(&q, _)| q)
            .collect();
        let applied = resolve(&self.shared.service, &undecided);
        let mut applied_iter = applied.into_iter();
        overlay
            .into_iter()
            .map(|o| match o {
                Some(decided) => decided,
                None => applied_iter.next().expect("one applied answer per miss"),
            })
            .collect()
    }

    /// Bulk count queries (read-your-writes mode drains first).
    pub fn count(&self, queries: &[(Key, Key)]) -> Vec<u32> {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.count(queries)
    }

    /// Bulk range queries (read-your-writes mode drains first).
    pub fn range(&self, queries: &[(Key, Key)]) -> RangeResult {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.range(queries)
    }

    /// Bulk successor queries (read-your-writes mode drains first).
    pub fn successor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.successor(queries)
    }

    /// Bulk predecessor queries (read-your-writes mode drains first).
    pub fn predecessor(&self, queries: &[Key]) -> Vec<Option<(Key, Value)>> {
        if self.shared.config.read_your_writes {
            // Best-effort drain: with a dead applier the answer honestly
            // reflects applied state only, matching non-RYW mode.
            let _ = self.flush();
        }
        self.shared.service.predecessor(queries)
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Admission-layer counters and queue gauges.
    pub fn admission_stats(&self) -> AdmissionStats {
        let (queued, in_flight) = {
            let state = lock_ignore_poison(&self.shared.state);
            (state.queued, state.in_flight)
        };
        AdmissionStats {
            queued_batches: queued,
            in_flight_batches: in_flight,
            submitted_batches: self.shared.submitted_batches.load(Ordering::Relaxed),
            submitted_ops: self.shared.submitted_ops.load(Ordering::Relaxed),
            enqueued_sub_batches: self.shared.enqueued_sub_batches.load(Ordering::Relaxed),
            applied_batches: self.shared.applied_batches.load(Ordering::Relaxed),
            applied_ops: self.shared.applied_ops.load(Ordering::Relaxed),
            coalesced_batches: self.shared.coalesced_batches.load(Ordering::Relaxed),
            flushes: self.shared.flushes.load(Ordering::Relaxed),
            rebalances: self.shared.rebalances.load(Ordering::Relaxed),
        }
    }

    /// Microsecond percentile summaries of the pipeline's queue-wait and
    /// apply-time histograms.
    pub fn latency_stats(&self) -> AdmissionLatencyStats {
        let latency = lock_ignore_poison(&self.shared.latency);
        AdmissionLatencyStats {
            queue_wait: latency.queue_wait.snapshot_us(),
            apply: latency.apply.snapshot_us(),
        }
    }

    /// Clones of the full queue-wait and apply-time histograms (nanosecond
    /// samples), for callers that need quantiles beyond the snapshot.
    pub fn latency_histograms(&self) -> (LatencyHistogram, LatencyHistogram) {
        let latency = lock_ignore_poison(&self.shared.latency);
        (latency.queue_wait.clone(), latency.apply.clone())
    }

    /// Service-wide statistics with the admission gauges folded in.
    pub fn stats(&self) -> ShardedStats {
        let mut stats = self.shared.service.stats();
        let admission = self.admission_stats();
        stats.admission_queued_batches = admission.queued_batches as u64;
        stats.admission_coalesced_batches = admission.coalesced_batches;
        stats.admission_applied_batches = admission.applied_batches;
        let latency = self.latency_stats();
        stats.admission_queue_wait = latency.queue_wait;
        stats.admission_apply = latency.apply;
        if let Some(d) = self.durability_stats() {
            stats.durability_degraded = d.degraded;
            stats.durability_gc_failures = d.gc_failures;
        }
        stats
    }

    /// Flush, then check every shard's invariants.
    pub fn check_invariants(&self) -> std::result::Result<(), InvariantViolation> {
        self.flush()
            .map_err(|e| InvariantViolation(format!("admission flush failed: {e}")))?;
        self.shared.service.check_invariants()
    }

    /// Durability counters, or `None` for an in-memory service.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let d = self.shared.durability.as_ref()?;
        let (records, syncs, retries) = {
            let wal = lock_ignore_poison(&d.wal);
            (wal.records, wal.syncs, wal.retries)
        };
        Some(DurabilityStats {
            wal_records: d.retired_records.load(Ordering::Relaxed) + records,
            wal_syncs: d.retired_syncs.load(Ordering::Relaxed) + syncs,
            wal_retries: d.retired_retries.load(Ordering::Relaxed) + retries,
            snapshots: d.snapshots.load(Ordering::Relaxed),
            runs_reused: d.runs_reused.load(Ordering::Relaxed),
            run_bytes_hashed: d.run_bytes_hashed.load(Ordering::Relaxed),
            gc_failures: d.gc_failures.load(Ordering::Relaxed),
            manifest_seq: d.manifest_seq.load(Ordering::Relaxed),
            degraded: d.degraded.load(Ordering::Relaxed),
        })
    }

    /// Test hook: make the applier thread panic at its next wakeup.
    #[doc(hidden)]
    pub fn inject_applier_panic(&self) {
        self.shared.panic_injected.store(true, Ordering::Relaxed);
        self.shared.work.notify_all();
    }

    /// Test hook: make the applier sleep `ms` milliseconds (locks
    /// released) at its next wakeup, before draining anything — a
    /// deterministic backpressure window for the deadline tests.
    #[doc(hidden)]
    pub fn inject_applier_stall(&self, ms: u64) {
        self.shared.stall_injected.store(ms, Ordering::Relaxed);
        self.shared.work.notify_all();
    }
}

/// Seal the WAL at the last durable record boundary, raise the sticky
/// degraded flag, and drop a best-effort on-disk marker for the next
/// recovery to report ([`DegradeMode::DegradeToVolatile`]).  Called with
/// the queue state lock held (the WAL lock nests inside it).
fn degrade_to_volatile(d: &DurabilityState) {
    {
        let mut wal = lock_ignore_poison(&d.wal);
        if !wal.is_sealed() {
            wal.seal();
        }
    }
    if !d.degraded.swap(true, Ordering::Relaxed) {
        let _ = d.vfs.write(
            &wal::degraded_marker_path(&d.config.dir),
            b"durability degraded: WAL sealed at last durable record\n",
        );
    }
}

/// Snapshot-on-barrier: called at the end of a successful flush with the
/// queue lock held.  A snapshot is taken only when logging is live, the
/// pipeline is fully idle (nothing queued, in flight, or awaiting a
/// rebalance), and something actually changed since the last snapshot
/// (records logged, or the routing epoch moved — a split/merge re-lays
/// the shards even without new records).  On success the WAL rotates to a
/// fresh segment keyed to the new manifest and older generations are
/// garbage-collected best-effort.
fn maybe_snapshot(shared: &Shared, state: &QueueState) -> Result<()> {
    let Some(d) = &shared.durability else {
        return Ok(());
    };
    if !d.logging.load(Ordering::Relaxed) {
        // Recovery replay in progress: the WAL on disk is still the only
        // durable copy of the replayed records — don't rotate it away.
        return Ok(());
    }
    let idle = state.queued == 0 && state.in_flight == 0 && state.pending_rebalances.is_empty();
    if !idle {
        return Ok(());
    }
    if d.degraded.load(Ordering::Relaxed) {
        // Degraded mode: the state being snapshotted includes batches that
        // were never logged, so a manifest would falsely claim durability
        // for them.  Keep serving from memory instead.
        return Ok(());
    }
    let dirty = d.records_since_snapshot.load(Ordering::Relaxed) > 0
        || d.snapshot_epoch.load(Ordering::Relaxed) != state.epoch;
    if !dirty {
        return Ok(());
    }
    match snapshot_now(shared, d) {
        Ok(()) => Ok(()),
        Err(e) => match d.config.degrade {
            DegradeMode::FailStop => Err(e),
            DegradeMode::DegradeToVolatile => {
                degrade_to_volatile(d);
                Ok(())
            }
        },
    }
}

/// The snapshot body proper: sync the WAL, write the next manifest
/// generation (reusing unchanged run files), rotate to a fresh segment,
/// and garbage-collect superseded generations.  Under each shard's read
/// lock only the levels' cached digests are compared with the previous
/// generation; a level is hashed only when it has no digest yet and
/// encoded only when it changed, so the work follows the changed levels,
/// not the resident size.
fn snapshot_now(shared: &Shared, d: &DurabilityState) -> Result<()> {
    // Everything logged so far must be on disk before the manifest can
    // supersede it (the manifest ends the previous generation).
    lock_ignore_poison(&d.wal).sync()?;
    let seq = d.manifest_seq.load(Ordering::Relaxed) + 1;
    let table = shared.service.table_snapshot();
    let prev = lock_ignore_poison(&d.prev_runs).clone();
    let mut snapshot = SnapshotRuns::default();
    let mut hashed = 0u64;
    for shard in &table.shards {
        shard.with_read(|lsm| {
            snapshot.begin_shard();
            for (i, level) in lsm.levels().iter_occupied() {
                if level.cached_run_digest().is_none() {
                    hashed += wal::run_file_len(level.len());
                }
                snapshot.push_level(&prev, i, level.keys(), level.values(), level.run_digest());
            }
        });
    }
    d.run_bytes_hashed.fetch_add(hashed, Ordering::Relaxed);
    let (runs, reused) = wal::write_snapshot(
        &d.vfs,
        &d.config.dir,
        SnapshotMeta {
            seq,
            epoch: table.epoch,
            batch_size: shared.service.batch_size(),
        },
        &table.router.split_points(),
        &snapshot,
    )?;
    let fresh = Wal::create(
        &d.vfs,
        wal::segment_path(&d.config.dir, seq),
        d.config.fsync_interval,
        d.config.retry,
    )?;
    let old = std::mem::replace(&mut *lock_ignore_poison(&d.wal), fresh);
    d.retired_records.fetch_add(old.records, Ordering::Relaxed);
    d.retired_syncs.fetch_add(old.syncs, Ordering::Relaxed);
    d.retired_retries.fetch_add(old.retries, Ordering::Relaxed);
    d.records_since_snapshot.store(0, Ordering::Relaxed);
    d.snapshot_epoch.store(table.epoch, Ordering::Relaxed);
    d.manifest_seq.store(seq, Ordering::Relaxed);
    d.snapshots.fetch_add(1, Ordering::Relaxed);
    d.runs_reused.fetch_add(reused, Ordering::Relaxed);
    let failures = wal::collect_garbage(&d.vfs, &d.config.dir, seq, &runs);
    d.gc_failures.fetch_add(failures, Ordering::Relaxed);
    *lock_ignore_poison(&d.prev_runs) = runs;
    Ok(())
}

/// Split a batch by shard and keep the non-empty parts in shard order.
fn route_parts(router: &ShardRouter, batch: &UpdateBatch) -> VecDeque<(usize, UpdateBatch)> {
    router
        .split_updates(batch)
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .collect()
}

/// Fold shard `s`'s pending batches — in-flight first (older), then the
/// queue oldest-to-newest — into one key → visible-outcome map: per batch
/// any deletion of a key shadows its insertions (rule 6) else the first
/// insertion wins (rule 4), and later batches overwrite earlier ones
/// (newest batch decides).
fn pending_decisions(state: &QueueState, s: usize) -> HashMap<Key, Option<Value>> {
    let mut decisions = HashMap::new();
    for batch in state.queues[s]
        .applying
        .iter()
        .chain(state.queues[s].queue.iter().map(|q| &q.batch))
    {
        for op in resolve_batch(batch) {
            let outcome = match op {
                Op::Insert(_, v) => Some(v),
                Op::Delete(_) => None,
            };
            decisions.insert(op.key(), outcome);
        }
    }
    decisions
}

/// The background applier: drain queues round-robin, coalesce, apply;
/// execute rebalance handoffs between windows.
fn applier_loop(shared: &Arc<Shared>) {
    loop {
        // Pop one shard's coalescing window under the lock; rebalance
        // requests take priority and run entirely under the lock (they
        // are a barrier for the affected shards by design).  With
        // read-your-writes on, the popped batches stay visible to the
        // overlay via `applying` until they are applied; otherwise nothing
        // reads `applying` and the clone is skipped.
        let (shard, window) = {
            let mut state = lock_ignore_poison(&shared.state);
            loop {
                if shared.panic_injected.swap(false, Ordering::Relaxed) {
                    panic!("injected applier panic (test hook)");
                }
                let stall = shared.stall_injected.swap(0, Ordering::Relaxed);
                if stall > 0 {
                    // Test hook: sleep with the lock released so submits
                    // can queue up against a provably idle applier.
                    drop(state);
                    std::thread::sleep(Duration::from_millis(stall));
                    state = lock_ignore_poison(&shared.state);
                    continue;
                }
                if let Some((seq, cmd)) = state.pending_rebalances.pop_front() {
                    let result = execute_rebalance(shared, &mut state, cmd);
                    if let Some(seq) = seq {
                        state.rebalance_results.insert(seq, result);
                        shared.rebalanced.notify_all();
                    }
                    continue;
                }
                if state.queued > 0 {
                    break;
                }
                if state.shutdown {
                    return; // queues fully drained: drop implies flush
                }
                state = wait_ignore_poison(&shared.work, state);
            }
            let num_shards = state.queues.len();
            let mut s = state.next_shard % num_shards;
            while state.queues[s].queue.is_empty() {
                s = (s + 1) % num_shards;
            }
            state.next_shard = (s + 1) % num_shards;
            let take = if shared.config.coalesce {
                COALESCE_WINDOW.min(state.queues[s].queue.len())
            } else {
                1
            };
            let window: Vec<QueuedBatch> = state.queues[s].queue.drain(..take).collect();
            state.queued -= take;
            state.in_flight += take;
            if shared.config.read_your_writes {
                state.queues[s].applying = window.iter().map(|q| q.batch.clone()).collect();
            }
            (s, window)
        };
        shared.space.notify_all();

        let taken = apply_window(shared, shard, window);

        let mut state = lock_ignore_poison(&shared.state);
        state.queues[shard].applying.clear();
        state.in_flight -= taken;
        state.queues[shard].applied_seq += taken as u64;
        // Every completed window can release a flush barrier (barriers
        // wait on per-queue epochs, not on full quiescence).
        shared.drained.notify_all();
        // Automatic hot/cold detection: piggybacked on the applier cadence
        // so it needs no extra thread and naturally sees applied traffic.
        let rebalance_cfg = &shared.service.config().rebalance;
        if rebalance_cfg.enabled {
            state.windows_since_check += 1;
            if state.windows_since_check >= rebalance_cfg.check_interval {
                state.windows_since_check = 0;
                // Planning failure (e.g. a lost race) is not fatal: the
                // next window plans again.
                let _ = execute_rebalance(shared, &mut state, RebalanceCmd::Plan);
            }
        }
    }
}

/// Coalesce (per config) and apply one popped window to `shard`, recording
/// the queue-wait and apply-time histograms and the lifetime counters.
/// Returns the number of batches consumed from the queue.
fn apply_window(shared: &Shared, shard: usize, window: Vec<QueuedBatch>) -> usize {
    // Queue-wait ends when the applier takes ownership of the window.
    let popped_at = Instant::now();
    let mut waits_ns: Vec<u64> = Vec::with_capacity(window.len());
    let mut batches: Vec<UpdateBatch> = Vec::with_capacity(window.len());
    for q in window {
        let wait = popped_at.saturating_duration_since(q.admitted_at);
        waits_ns.push(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        batches.push(q.batch);
    }

    let taken = batches.len();
    let to_apply = if shared.config.coalesce {
        coalesce_batches(&batches, shared.service.batch_size())
    } else {
        batches // replay mode applies the popped batch as-is
    };
    shared
        .coalesced_batches
        .fetch_add((taken - to_apply.len()) as u64, Ordering::Relaxed);
    let mut applies_ns: Vec<u64> = Vec::with_capacity(to_apply.len());
    for part in &to_apply {
        // Sub-batches were validated at submit time and coalescing keeps
        // them non-empty and within `b`; the apply holds the service's
        // table read lock so it cannot interleave with a table swap.
        let apply_start = Instant::now();
        shared
            .service
            .apply_routed(shard, part)
            .expect("validated admitted batch cannot be rejected");
        applies_ns.push(u64::try_from(apply_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        shared.applied_batches.fetch_add(1, Ordering::Relaxed);
        shared
            .applied_ops
            .fetch_add(part.len() as u64, Ordering::Relaxed);
    }
    {
        // One short lock per window keeps recording off the hot loop.
        let mut latency = lock_ignore_poison(&shared.latency);
        for ns in waits_ns {
            latency.queue_wait.record(ns);
        }
        for ns in applies_ns {
            latency.apply.record(ns);
        }
    }
    taken
}

/// Execute one rebalance handoff on the applier thread, with the queue
/// state lock held throughout: drain the affected shards' queues (a
/// targeted flush barrier), perform the structural change on the service,
/// then re-layout the queues against the new routing table.
fn execute_rebalance(
    shared: &Shared,
    state: &mut QueueState,
    cmd: RebalanceCmd,
) -> Result<Option<RebalanceAction>> {
    let action = match cmd {
        RebalanceCmd::Plan => match shared.service.plan_rebalance() {
            Some(action) => action,
            None => return Ok(None),
        },
        RebalanceCmd::Split(s) | RebalanceCmd::SplitAt(s, _) => RebalanceAction::Split(s),
        RebalanceCmd::Merge(s) => RebalanceAction::Merge(s),
    };
    let affected: Vec<usize> = match action {
        RebalanceAction::Split(s) => vec![s],
        RebalanceAction::Merge(s) => vec![s, s + 1],
    };
    if let Some(&bad) = affected.iter().find(|&&s| s >= state.queues.len()) {
        return Err(LsmError::InvalidRebalance {
            reason: format!("shard {bad} out of range for {} shards", state.queues.len()),
        });
    }
    // Targeted drain: every batch admitted for the affected shards must be
    // applied before the rebuild snapshots their contents.
    for &s in &affected {
        if state.queues[s].queue.is_empty() {
            continue;
        }
        let drained: Vec<QueuedBatch> = state.queues[s].queue.drain(..).collect();
        state.queued -= drained.len();
        let taken = apply_window(shared, s, drained);
        state.queues[s].applied_seq += taken as u64;
    }
    match cmd {
        RebalanceCmd::SplitAt(s, key) => shared.service.split_shard_at(s, key)?,
        RebalanceCmd::Split(s) => {
            shared.service.split_shard(s)?;
        }
        RebalanceCmd::Merge(s) => shared.service.merge_shards(s)?,
        RebalanceCmd::Plan => shared.service.apply_rebalance(action)?,
    }
    // Re-layout against the new table: surviving ids keep their queues and
    // flush counters, replacement shards start fresh.  The dropped queues
    // were just drained, so no admitted batch is lost.
    let table = shared.service.table_snapshot();
    let mut old: HashMap<u64, ShardQueue> = state.queues.drain(..).map(|q| (q.id, q)).collect();
    state.queues = table
        .ids
        .iter()
        .map(|&id| old.remove(&id).unwrap_or_else(|| ShardQueue::new(id)))
        .collect();
    debug_assert!(old.values().all(|q| q.queue.is_empty()));
    state.router = table.router.clone();
    state.epoch = table.epoch;
    state.queued = state.queues.iter().map(|q| q.queue.len()).sum();
    state.next_shard %= state.queues.len().max(1);
    shared.rebalances.fetch_add(1, Ordering::Relaxed);
    // Wake sleeping submitters (they must re-route) and flush barriers
    // (drained ids satisfy their targets).
    shared.space.notify_all();
    shared.drained.notify_all();
    // The routing epoch moved: persist the new shard layout if the
    // pipeline happens to be idle (otherwise the epoch-dirty check makes
    // the next flush barrier snapshot it).
    maybe_snapshot(shared, state)?;
    Ok(Some(action))
}

/// Replace a run of adjacent batches with visibly equivalent coalesced
/// batches of at most `batch_size` ops each: for every key the **last**
/// batch touching it decides (a deletion anywhere in that batch deletes,
/// otherwise its first insertion wins), and a new output batch starts
/// whenever the accumulated distinct keys would exceed `batch_size` —
/// so each output batch is exactly equivalent to a contiguous sub-run.
fn coalesce_batches(window: &[UpdateBatch], batch_size: usize) -> Vec<UpdateBatch> {
    let mut out = Vec::new();
    let mut acc: Vec<Op> = Vec::new();
    let mut index: HashMap<Key, usize> = HashMap::new();
    for batch in window {
        let resolved = resolve_batch(batch);
        let new_keys = resolved
            .iter()
            .filter(|op| !index.contains_key(&op.key()))
            .count();
        if !acc.is_empty() && acc.len() + new_keys > batch_size {
            let mut flushed = UpdateBatch::with_capacity(acc.len());
            for op in acc.drain(..) {
                flushed.push(op);
            }
            index.clear();
            out.push(flushed);
        }
        for op in resolved {
            match index.entry(op.key()) {
                std::collections::hash_map::Entry::Occupied(slot) => acc[*slot.get()] = op,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(acc.len());
                    acc.push(op);
                }
            }
        }
    }
    if !acc.is_empty() {
        let mut flushed = UpdateBatch::with_capacity(acc.len());
        for op in acc {
            flushed.push(op);
        }
        out.push(flushed);
    }
    out
}

/// One batch reduced to a single op per key, per the batch semantics: any
/// deletion of a key shadows the batch's insertions of it (rule 6), among
/// insertions the first wins (rule 4).  Op order follows first appearance,
/// keeping the reduction deterministic.
fn resolve_batch(batch: &UpdateBatch) -> Vec<Op> {
    let mut order: Vec<Key> = Vec::with_capacity(batch.len());
    let mut decision: HashMap<Key, Op> = HashMap::with_capacity(batch.len());
    for op in batch.ops() {
        match decision.entry(op.key()) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                order.push(op.key());
                slot.insert(*op);
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                if matches!(op, Op::Delete(_)) {
                    slot.insert(Op::Delete(op.key()));
                }
            }
        }
    }
    order.into_iter().map(|k| decision[&k]).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpu_sim::{Device, DeviceConfig};

    use super::*;
    use crate::config::{LsmConfig, RebalanceConfig};

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::small()))
    }

    fn admitted(batch_size: usize, shards: usize, config: AdmissionConfig) -> AdmittedLsm {
        AdmittedLsm::with_config(
            ShardedLsm::new(device(), batch_size, shards).unwrap(),
            config,
        )
    }

    fn config(coalesce: bool, ryw: bool) -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 8,
            coalesce,
            read_your_writes: ryw,
            submit_deadline: None,
            flush_deadline: None,
        }
    }

    #[test]
    fn submit_flush_query_round_trip() {
        let lsm = admitted(8, 2, config(true, false));
        lsm.insert(&[(1, 10), (1 << 30, 20)]).unwrap();
        lsm.delete(&[1 << 30]).unwrap();
        lsm.flush().unwrap();
        assert_eq!(lsm.lookup(&[1, 1 << 30]), vec![Some(10), None]);
        let stats = lsm.admission_stats();
        assert_eq!(stats.submitted_batches, 2);
        assert_eq!(stats.queued_batches, 0);
        assert!(stats.applied_batches >= 1);
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn validation_rejects_before_enqueueing() {
        let lsm = admitted(2, 2, config(true, false));
        assert_eq!(
            lsm.submit(&UpdateBatch::new()).unwrap_err(),
            LsmError::EmptyBatch
        );
        assert!(matches!(
            lsm.insert(&[(1, 1), (2, 2), (3, 3)]).unwrap_err(),
            LsmError::BatchTooLarge { .. }
        ));
        let mut batch = UpdateBatch::new();
        batch.insert(MAX_KEY + 1, 0);
        assert_eq!(
            lsm.submit(&batch).unwrap_err(),
            LsmError::KeyOutOfRange { key: MAX_KEY + 1 }
        );
        lsm.flush().unwrap();
        assert_eq!(lsm.admission_stats().submitted_batches, 0);
        assert_eq!(lsm.stats().total_elements, 0);
    }

    #[test]
    fn read_your_writes_sees_queued_state() {
        let lsm = admitted(4, 1, config(true, true));
        // Stall nothing: even before any flush, the overlay answers.
        lsm.insert(&[(5, 50), (6, 60)]).unwrap();
        assert_eq!(lsm.lookup(&[5, 6, 7]), vec![Some(50), Some(60), None]);
        lsm.delete(&[5]).unwrap();
        assert_eq!(lsm.lookup(&[5]), vec![None]);
        lsm.insert(&[(5, 51)]).unwrap();
        assert_eq!(lsm.lookup(&[5]), vec![Some(51)]);
        // Interval queries drain first in this mode.
        assert_eq!(lsm.count(&[(0, 100)]), vec![2]);
        assert_eq!(lsm.admission_stats().queued_batches, 0);
    }

    #[test]
    fn coalescing_preserves_rules_4_and_6() {
        // Same submissions through a coalescing and a replaying layer must
        // give identical answers (insert-after-delete, delete-after-insert,
        // duplicate inserts across and within batches).
        let a = admitted(8, 1, config(true, false));
        let b = admitted(8, 1, config(false, false));
        for lsm in [&a, &b] {
            lsm.insert(&[(1, 1), (2, 1), (3, 1)]).unwrap();
            lsm.delete(&[2]).unwrap();
            lsm.insert(&[(2, 7), (4, 7)]).unwrap();
            let mut mixed = UpdateBatch::new();
            mixed.insert(5, 9).delete(3).insert(5, 8).delete(5);
            lsm.submit(&mixed).unwrap();
            lsm.insert(&[(5, 42)]).unwrap();
            lsm.flush().unwrap();
        }
        let queries: Vec<u32> = (0..8).collect();
        assert_eq!(a.lookup(&queries), b.lookup(&queries));
        assert_eq!(a.count(&[(0, 100)]), b.count(&[(0, 100)]));
        assert_eq!(a.range(&[(0, 100)]), b.range(&[(0, 100)]));
        // The coalescing side actually coalesced something.
        assert!(a.admission_stats().coalesced_batches > 0);
        assert_eq!(b.admission_stats().coalesced_batches, 0);
    }

    #[test]
    fn coalesce_batches_respects_capacity_and_semantics() {
        let mut b1 = UpdateBatch::new();
        b1.insert(1, 10).insert(2, 20).delete(3);
        let mut b2 = UpdateBatch::new();
        b2.insert(3, 30).delete(1).insert(4, 40);
        let out = coalesce_batches(&[b1.clone(), b2.clone()], 8);
        assert_eq!(out.len(), 1);
        let ops = out[0].ops();
        // Last batch wins per key: 1 deleted, 3 re-inserted; 2 and 4 kept.
        assert!(ops.contains(&Op::Delete(1)));
        assert!(ops.contains(&Op::Insert(2, 20)));
        assert!(ops.contains(&Op::Insert(3, 30)));
        assert!(ops.contains(&Op::Insert(4, 40)));
        assert_eq!(ops.len(), 4);
        // A tight capacity splits instead of overflowing.
        let out = coalesce_batches(&[b1, b2], 3);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|b| b.len() <= 3));
    }

    #[test]
    fn resolve_batch_applies_rule_6() {
        let mut batch = UpdateBatch::new();
        batch
            .insert(7, 1)
            .insert(7, 2)
            .delete(8)
            .insert(8, 3)
            .delete(7);
        let resolved = resolve_batch(&batch);
        assert_eq!(resolved, vec![Op::Delete(7), Op::Delete(8)]);
    }

    #[test]
    fn backpressure_blocks_then_drains() {
        let lsm = admitted(
            4,
            1,
            AdmissionConfig {
                queue_capacity: 2,
                coalesce: true,
                read_your_writes: false,
                submit_deadline: None,
                flush_deadline: None,
            },
        );
        // Many more batches than the queue holds: submitters must block on
        // backpressure and still drain to a consistent end state.
        for i in 0..64u32 {
            lsm.insert(&[(i % 16, i)]).unwrap();
        }
        lsm.flush().unwrap();
        let got = lsm.lookup(&(0..16u32).collect::<Vec<_>>());
        for (k, v) in got.into_iter().enumerate() {
            // Key k was last written by batch 48 + k.
            assert_eq!(v, Some(48 + k as u32), "key {k}");
        }
    }

    #[test]
    fn submit_and_flush_deadlines_time_out_then_recover() {
        let lsm = admitted(
            4,
            1,
            AdmissionConfig {
                queue_capacity: 1,
                coalesce: true,
                read_your_writes: false,
                submit_deadline: Some(Duration::from_millis(40)),
                flush_deadline: Some(Duration::from_millis(40)),
            },
        );
        // Park the applier (lock released) so the queue provably backs up.
        lsm.inject_applier_stall(500);
        std::thread::sleep(Duration::from_millis(30));
        lsm.insert(&[(1, 1)]).unwrap(); // fills the capacity-1 queue
        assert!(matches!(
            lsm.insert(&[(2, 2)]).unwrap_err(),
            LsmError::SubmitTimedOut { .. }
        ));
        assert!(matches!(
            lsm.flush().unwrap_err(),
            LsmError::FlushTimedOut { .. }
        ));
        // Once the stall expires the admitted batch still applies; the
        // timed-out one was never admitted.
        std::thread::sleep(Duration::from_millis(550));
        lsm.flush().unwrap();
        assert_eq!(lsm.lookup(&[1, 2]), vec![Some(1), None]);
    }

    #[test]
    fn drop_drains_pending_work() {
        let service = ShardedLsm::new(device(), 4, 2).unwrap();
        {
            let lsm = AdmittedLsm::with_config(service.clone(), config(true, false));
            for i in 0..20u32 {
                lsm.insert(&[(i, i), ((1 << 30) + i, i)]).unwrap();
            }
            // No flush: dropping the last handle must drain the queues.
        }
        assert_eq!(
            service.lookup(&[19, (1 << 30) + 19]),
            vec![Some(19), Some(19)]
        );
    }

    #[test]
    fn clones_share_queues_and_counters() {
        let lsm = admitted(4, 1, config(true, false));
        let clone = lsm.clone();
        lsm.insert(&[(1, 1)]).unwrap();
        clone.flush().unwrap();
        assert_eq!(clone.lookup(&[1]), vec![Some(1)]);
        assert_eq!(clone.admission_stats().submitted_batches, 1);
    }

    #[test]
    fn triggered_split_and_merge_preserve_admitted_state() {
        let lsm = admitted(8, 1, config(true, false));
        for i in 0..8u32 {
            lsm.insert(&[(i * 100, i), (i * 100 + 1, i)]).unwrap();
        }
        // Split mid-stream, without flushing first: the handoff drains the
        // affected queue itself.
        let action = lsm.trigger_split_at(0, 350).unwrap();
        assert_eq!(action, Some(RebalanceAction::Split(0)));
        assert_eq!(lsm.service().num_shards(), 2);
        assert_eq!(lsm.admission_stats().rebalances, 1);
        // Traffic keeps flowing on both sides of the new boundary.
        lsm.insert(&[(349, 99), (351, 99)]).unwrap();
        lsm.flush().unwrap();
        let keys: Vec<u32> = (0..8).map(|i| i * 100).collect();
        assert_eq!(
            lsm.lookup(&keys),
            (0..8).map(Some).collect::<Vec<Option<u32>>>()
        );
        assert_eq!(lsm.lookup(&[349, 351]), vec![Some(99), Some(99)]);
        lsm.check_invariants().unwrap();
        // Merge back; answers unchanged.
        let action = lsm.trigger_merge(0).unwrap();
        assert_eq!(action, Some(RebalanceAction::Merge(0)));
        assert_eq!(lsm.service().num_shards(), 1);
        lsm.flush().unwrap();
        assert_eq!(
            lsm.lookup(&keys),
            (0..8).map(Some).collect::<Vec<Option<u32>>>()
        );
        // Invalid requests surface the service's error to the caller.
        assert!(lsm.trigger_merge(5).is_err());
        assert!(lsm.trigger_split_at(0, 0).is_err());
        lsm.check_invariants().unwrap();
    }

    #[test]
    fn auto_rebalance_splits_hot_shard_behind_admission() {
        let lsm_config = LsmConfig::default().rebalance(RebalanceConfig {
            enabled: true,
            min_ops: 32,
            hot_fraction: 0.5,
            cold_fraction: 0.0,
            max_shards: 4,
            min_shards: 1,
            check_interval: 1,
        });
        let service = ShardedLsm::with_config(device(), 16, 1, lsm_config).unwrap();
        let lsm = AdmittedLsm::with_config(service, config(true, false));
        for round in 0..16u32 {
            let pairs: Vec<(u32, u32)> = (0..16u32).map(|i| (round * 16 + i, i)).collect();
            lsm.insert(&pairs).unwrap();
        }
        lsm.flush().unwrap();
        assert!(
            lsm.service().num_shards() > 1,
            "hot shard should have been split behind admission, still at {}",
            lsm.service().num_shards()
        );
        assert!(lsm.stats().rebalance_splits >= 1);
        lsm.check_invariants().unwrap();
        assert_eq!(lsm.count(&[(0, MAX_KEY)]), vec![256]);
    }

    /// Bytes of the run files snapshot generation `seq` wrote itself.
    fn run_bytes_written(dir: &std::path::Path, seq: u64) -> u64 {
        let prefix = format!("run-{seq}-");
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    /// Submit batch `n` (one full batch), flush, and check that the
    /// flush's snapshot hashed exactly the run bytes it wrote and reused
    /// every level the carry chain left untouched.
    fn check_incremental_snapshot(lsm: &AdmittedLsm, dir: &std::path::Path, b: u32, n: u32) {
        let batches =
            || lsm.shared.service.table_snapshot().shards[0].with_read(|l| l.num_batches());
        let r = batches();
        let before = lsm.durability_stats().unwrap();
        let pairs: Vec<(u32, u32)> = (0..b).map(|i| (n * b + i, n)).collect();
        lsm.insert(&pairs).unwrap();
        lsm.flush().unwrap();
        assert_eq!(batches(), r + 1);
        let after = lsm.durability_stats().unwrap();
        assert_eq!(after.manifest_seq, before.manifest_seq + 1);
        let written = run_bytes_written(dir, after.manifest_seq);
        assert!(written > 0, "the new level 0 or carry output is written");
        assert_eq!(
            after.run_bytes_hashed - before.run_bytes_hashed,
            written,
            "batch {n}: only the written runs are hashed"
        );
        // The carry chain replaces the trailing set bits of r; every level
        // of r that r + 1 still holds is untouched and reused.
        let untouched = u64::from((r & (r + 1)).count_ones());
        assert_eq!(
            after.runs_reused - before.runs_reused,
            untouched,
            "batch {n}"
        );
    }

    #[test]
    fn snapshot_hashes_only_changed_levels_also_after_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "gpu-lsm-admission-incremental-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let b = 8u32;
        let lsm_config = LsmConfig::default()
            .admit_coalesce(false)
            .durability(wal::DurabilityConfig::new(&dir));
        let open = || {
            AdmittedLsm::open_durable(device(), b as usize, 1, lsm_config.clone())
                .unwrap()
                .0
        };
        let lsm = open();
        // Five batches: levels 0 and 2.  The checked batches then walk
        // r = 5..9, including the full cascade 7 -> 8.
        for n in 0..5 {
            let pairs: Vec<(u32, u32)> = (0..b).map(|i| (n * b + i, n)).collect();
            lsm.insert(&pairs).unwrap();
            lsm.flush().unwrap();
        }
        for n in 5..9 {
            check_incremental_snapshot(&lsm, &dir, b, n);
        }
        drop(lsm);
        // Recovery seeds every loaded level's digest: the first snapshot
        // after the reopen hashes only what it writes, not the recovered
        // structure.
        let lsm = open();
        assert_eq!(lsm.durability_stats().unwrap().run_bytes_hashed, 0);
        for n in 9..12 {
            check_incremental_snapshot(&lsm, &dir, b, n);
        }
        lsm.check_invariants().unwrap();
        drop(lsm);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
