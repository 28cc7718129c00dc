//! `ingest_durable`: one client writing through the whole durable write
//! path, then a restart that must read every write back.
//!
//! `AdmittedLsm::open_durable` with 4 uniform shards, b = 4096 and the WAL
//! synced every 8 records through `RealVfs` (the counting wrapper in
//! traced runs) into a fresh directory inside the checkout.  The client
//! submits 4096-op batches of uniform 31-bit keys, 20% of them deletes of
//! earlier keys, and closes every window of 4 submits with a flush
//! barrier.  No read runs until the reopen.  The applier replays batches
//! exactly as submitted (coalescing off), so the work of a window does not
//! depend on thread timing.
//!
//! The run is a sequence of epochs, each from a fresh directory: set-up
//! (open and preload 2^18 ops), a fixed number of timed windows, then drop,
//! reopen and verify.  Every epoch does the same amount of work, so the
//! per-window cost does not drift with the length of the run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gpu_lsm::{
    AdmittedLsm, DurabilityConfig, Key, LatencyHistogram, LsmConfig, UpdateBatch, Vfs, MAX_KEY,
};

use crate::common::{
    device, gpu_sim_record_ns, lsm_config, mismatch, overhead_frac, DevSnap, Mismatch, Outcome,
    RunCfg, Traffic,
};
use crate::model::Model;
use crate::trace::Tracer;
use crate::util::{median, ratio, Digest, Hist, Latency, Rng};
use crate::vfs::{Class, CountingVfs, VfsSnapshot, CLASSES};

const W: &str = "ingest_durable";
const TAIL_PCT: u32 = 95;
const SHARDS: usize = 4;
const BATCH: usize = 4096;
const WINDOW: usize = 4;
const FSYNC_EVERY: usize = 8;

struct Params {
    preload_windows: usize,
    epoch_windows: usize,
}

const FULL: Params = Params {
    preload_windows: 16,
    epoch_windows: 32,
};

const REDUCED: Params = Params {
    preload_windows: 2,
    epoch_windows: 6,
};

/// The next client batch: 4096 distinct keys, 20% of them deletes of live
/// keys once there are any; the model takes the batch at once.
fn next_batch(model: &mut Model, rng: &mut Rng, digest: &mut Digest) -> UpdateBatch {
    let deletes = if model.map.is_empty() { 0 } else { BATCH / 5 };
    let batch = model.update_batch(rng, BATCH, deletes, digest);
    model.apply(&batch);
    batch
}

fn config(dir: &Path, vfs: Option<&CountingVfs>) -> LsmConfig {
    let mut d = DurabilityConfig::new(dir).fsync_interval(FSYNC_EVERY);
    if let Some(v) = vfs {
        d = d.vfs(Arc::new(v.clone()) as Arc<dyn Vfs>);
    }
    // Coalescing off: how many sub-batches the applier finds queued, and so
    // how much padding and merging a window costs, follows thread wake-up
    // timing.  With it on, runs split into two modes (space_amp 2.4 or
    // 4.3, throughput 0.79 or 0.54 Mop/s on the reference host).
    lsm_config().admit_coalesce(false).durability(d)
}

/// A fresh WAL directory that is removed however the epoch ends.
struct DirGuard(PathBuf);

impl DirGuard {
    fn fresh(base: &Path, seed: u64, epoch: u64) -> Self {
        let dir = base.join(format!("wal-{}-{seed}-{epoch}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DirGuard(dir)
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn vfs_snap(vfs: &Option<CountingVfs>) -> VfsSnapshot {
    vfs.as_ref().map(|v| v.snapshot()).unwrap_or_default()
}

/// Layer counters summed over the timed windows of every epoch.
#[derive(Default)]
struct Layers {
    vfs: VfsSnapshot,
    enqueued: u64,
    coalesced: u64,
    runs_reused: u64,
    merge_steps: u64,
    wal_records: u64,
    wal_syncs: u64,
    recycled: u64,
    reserved: u64,
    high_water: usize,
    sort_s: f64,
    merge_s: f64,
    records: u64,
    traffic: Traffic,
    placebo: Vec<f64>,
    queue_wait: LatencyHistogram,
    apply: LatencyHistogram,
    replayed: u64,
    recovery_read: u64,
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, Mismatch> {
    let p = if cfg.reduced { &REDUCED } else { &FULL };
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut rng = Rng::new(cfg.seed, 2);
    let mut base = Model::default();
    let preload: Vec<UpdateBatch> = (0..p.preload_windows * WINDOW)
        .map(|_| next_batch(&mut base, &mut rng, &mut digest))
        .collect();

    let vfs = cfg.trace.then(CountingVfs::default);
    let mut tracer = Tracer::new();
    // Which windows are traced: a coin from its own stream, so the choice
    // cannot alias with the carry chain's binary counter.
    let mut pick = Rng::new(cfg.seed, 99);
    let mut layers = Layers::default();
    let (mut setup_s, mut recovery_s, mut space_amp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat_us, mut window_us) = (Hist::default(), 0.0);
    let (mut submit_span, mut flush_span, mut split_span) =
        (Hist::default(), Hist::default(), Hist::default());
    let (mut traced_w, mut untraced_w) = (Hist::default(), Hist::default());
    let mut threshold = 0;
    let (mut windows, mut epochs) = (0u64, 0u64);
    let started = Instant::now();
    while cfg.budget.more(epochs, started) {
        let mut model = base.clone();
        let guard = DirGuard::fresh(&cfg.out_dir, cfg.seed, epochs);
        let dev = device();
        let t = Instant::now();
        let (adm, _) = AdmittedLsm::open_durable(
            Arc::clone(&dev),
            BATCH,
            SHARDS,
            config(&guard.0, vfs.as_ref()),
        )?;
        for window in preload.chunks(WINDOW) {
            for b in window {
                adm.submit(b)?;
            }
            adm.flush()?;
        }
        setup_s.push(t.elapsed().as_secs_f64());

        let stats0 = cfg.trace.then(|| {
            (
                adm.stats(),
                adm.admission_stats(),
                adm.durability_stats().unwrap_or_default(),
            )
        });
        let snap0 = DevSnap::take(&dev);
        let vfs0 = vfs_snap(&vfs);
        let router = adm.service().router();
        for _ in 0..p.epoch_windows {
            let batches: Vec<UpdateBatch> = (0..WINDOW)
                .map(|_| next_batch(&mut model, &mut rng, &mut digest))
                .collect();
            let traced = cfg.trace && pick.below(2) == 1;
            tracer.set_on(traced);
            let req = windows;
            let root = traced.then(|| tracer.open(req, 0, "ingest.window"));
            let parent = root.map_or(0, |o| o.id());
            let w0 = Instant::now();
            let mut starts = [w0; WINDOW];
            for (i, b) in batches.iter().enumerate() {
                starts[i] = Instant::now();
                let (res, us) = tracer.span(req, parent, "admission.submit", || adm.submit(b));
                res?;
                if traced {
                    submit_span.push(us);
                }
            }
            let (res, us) = tracer.span(req, parent, "admission.flush", || adm.flush());
            res?;
            let end = Instant::now();
            if let Some(o) = root {
                tracer.close(o);
            }
            let w = (end - w0).as_secs_f64() * 1e6;
            window_us += w;
            for s in starts {
                lat_us.push((end - s).as_secs_f64() * 1e6);
            }
            if traced {
                flush_span.push(us);
                traced_w.push(w);
                // Replay one layer down: the router split of the same batches.
                for b in &batches {
                    let (parts, us) = tracer.span(req, parent, "router.split_updates", || {
                        router.split_updates(b)
                    });
                    std::hint::black_box(parts);
                    split_span.push(us);
                }
            } else if cfg.trace {
                untraced_w.push(w);
            }
            windows += 1;
        }
        tracer.set_on(false);
        let stats1 = adm.stats();
        let resident = (stats1.memory_bytes + stats1.filter_bytes + stats1.fence_bytes) as f64;
        space_amp.push(resident / (8.0 * model.map.len() as f64));
        threshold = adm
            .service()
            .shard(0)
            .with_read(|l| l.bulk_lookup_threshold());
        if let Some((s0, a0, d0)) = stats0 {
            let snap1 = DevSnap::take(&dev);
            let a1 = adm.admission_stats();
            let d1 = adm.durability_stats().unwrap_or_default();
            let (qw, ap) = adm.latency_histograms();
            let l = &mut layers;
            l.vfs = l.vfs.plus(&vfs_snap(&vfs).minus(&vfs0));
            l.enqueued += a1.enqueued_sub_batches - a0.enqueued_sub_batches;
            l.coalesced += a1.coalesced_batches - a0.coalesced_batches;
            l.runs_reused += d1.runs_reused - d0.runs_reused;
            l.wal_records += d1.wal_records - d0.wal_records;
            l.wal_syncs += d1.wal_syncs - d0.wal_syncs;
            l.merge_steps += stats1.merges.carry_merge_steps - s0.merges.carry_merge_steps;
            l.recycled += stats1.arena.recycled_regions - s0.arena.recycled_regions;
            l.reserved += stats1.arena.reserved_regions - s0.arena.reserved_regions;
            l.high_water = l.high_water.max(stats1.arena.high_water_bytes);
            l.sort_s += snap1.busy_s(&snap0, &["insert::sort_batch"]);
            l.merge_s += snap1.busy_s(&snap0, &["insert::merge"]);
            l.records += snap1.records(&snap0);
            l.traffic
                .add(&snap1, &snap0, (p.epoch_windows * WINDOW * BATCH) as u64);
            l.placebo.push(ratio(
                stats1.total_elements as f64 - a1.applied_ops as f64,
                stats1.total_elements as f64,
            ));
            l.queue_wait.merge(&qw);
            l.apply.merge(&ap);
        }

        // Restart: every acknowledged write must read back.
        drop(adm);
        let v_before = vfs_snap(&vfs);
        let t = Instant::now();
        let (adm, report) =
            AdmittedLsm::open_durable(device(), BATCH, SHARDS, config(&guard.0, vfs.as_ref()))?;
        recovery_s.push(t.elapsed().as_secs_f64());
        layers.replayed += report.replayed_batches;
        layers.recovery_read += vfs_snap(&vfs).minus(&v_before).total().read_bytes;
        verify(&adm, &model)?;
        drop(adm);
        drop(guard);
        epochs += 1;
    }
    let user_ops = windows * (WINDOW * BATCH) as u64;

    // End-to-end.
    let rep = &mut out.report;
    let lat = Latency::of(&lat_us, TAIL_PCT);
    rep.put("setup_s", median(&setup_s), "s");
    rep.put("throughput_mops", user_ops as f64 / window_us, "Mop/s");
    rep.put("request_p50_us", lat.p50, "us");
    rep.put("request_tail_us", lat.tail, "us");
    rep.put("space_amp", median(&space_amp), "ratio");
    rep.put("recovery_s", median(&recovery_s), "s");
    rep.put("update_mops", user_ops as f64 / window_us, "Mop/s");
    rep.put("update_p50_us", lat.p50, "us");
    rep.put("update_tail_us", lat.tail, "us");
    out.info
        .push(lat.describe("submit latency to its window's flush (request)"));
    out.info.push(format!(
        "info epochs {epochs}; windows {windows}; user ops {user_ops}; WAL fsync every {FSYNC_EVERY} records"
    ));
    out.info.push(format!(
        "info bulk_lookup_threshold (shard 0, last epoch) {threshold}"
    ));
    out.attempted = windows * (WINDOW as u64 + 1);

    // Per-layer.
    if cfg.trace {
        let l = &layers;
        let dv = &l.vfs;
        let wal = dv.class(Class::Wal);
        let runs = dv.class(Class::Run);
        let snapshot_bytes = dv.class(Class::Manifest).write_bytes + runs.write_bytes;
        let total = dv.total();
        let user_bytes = (user_ops * 8) as f64;
        let coalesce = ratio(l.coalesced as f64, l.enqueued as f64);
        let lsub = Latency::of(&submit_span, TAIL_PCT);
        let lflush = Latency::of(&flush_span, TAIL_PCT);
        rep.put("admission.submit_p50_us", lsub.p50, "us");
        rep.put("admission.flush_tail_us", lflush.tail, "us");
        rep.put(
            "admission.queue_wait_p99_us",
            l.queue_wait.p99() as f64 / 1e3,
            "us",
        );
        rep.put("admission.apply_p99_us", l.apply.p99() as f64 / 1e3, "us");
        rep.put("admission.coalesce_frac", coalesce, "frac");
        rep.put("shard.split_updates_us", split_span.median(), "us");
        rep.put("shard.placebo_frac", median(&l.placebo), "frac");
        rep.put(
            "vfs.wal_bytes_per_user_byte",
            wal.write_bytes as f64 / user_bytes,
            "ratio",
        );
        rep.put(
            "vfs.snapshot_bytes_per_user_byte",
            snapshot_bytes as f64 / user_bytes,
            "ratio",
        );
        rep.put("vfs.fsyncs", total.fsyncs as f64, "count");
        rep.put("vfs.fsync_busy_s", total.fsync_ns as f64 / 1e9, "s");
        rep.put("vfs.write_busy_s", total.write_ns as f64 / 1e9, "s");
        rep.put("vfs.errors", total.errors as f64, "count");
        for (class, name) in CLASSES {
            let c = dv.class(class);
            rep.put(format!("vfs.{name}.write_bytes"), c.write_bytes as f64, "B");
            rep.put(format!("vfs.{name}.ops"), c.ops as f64, "count");
            rep.put(format!("vfs.{name}.busy_s"), c.busy_ns as f64 / 1e9, "s");
            rep.put(format!("vfs.{name}.errors"), c.errors as f64, "count");
        }
        rep.put("vfs.recovery_read_bytes", l.recovery_read as f64, "B");
        rep.put(
            "wal.runs_reused_frac",
            ratio(
                l.runs_reused as f64,
                (l.runs_reused + runs.files_written) as f64,
            ),
            "frac",
        );
        rep.put("wal.replayed_records", l.replayed as f64, "count");
        rep.put("wal.recovery_s", median(&recovery_s), "s");
        rep.put("lsm.sort_busy_s", l.sort_s, "s");
        rep.put("compaction.merge_busy_s", l.merge_s, "s");
        rep.put("compaction.merge_steps", l.merge_steps as f64, "count");
        rep.put(
            "arena.high_water_mib",
            l.high_water as f64 / (1 << 20) as f64,
            "MiB",
        );
        rep.put(
            "arena.recycle_frac",
            ratio(l.recycled as f64, l.reserved as f64),
            "frac",
        );
        rep.put(
            "lookup.bulk_threshold",
            threshold.min(u32::MAX as usize) as f64,
            "count",
        );
        rep.put("gpu_sim.record_ns", gpu_sim_record_ns(), "ns");
        rep.put(
            "gpu_sim.records_per_request",
            ratio(l.records as f64, (windows * WINDOW as u64) as f64),
            "count",
        );
        rep.put(
            "gpu_sim.bytes_per_op.update",
            l.traffic.bytes_per_op(),
            "B/op",
        );
        rep.put(
            "gpu_sim.modelled_update_mops",
            l.traffic.modelled_mops(&device()),
            "Mop/s",
        );
        rep.put(
            "trace.overhead_frac",
            overhead_frac(&traced_w, &untraced_w),
            "frac",
        );
        out.info.push(lsub.describe("admission.submit span"));
        out.info.push(lflush.describe("admission.flush span"));
        out.info.push(format!(
            "info device traffic of the timed windows: {}",
            l.traffic.describe()
        ));
        out.info.push(
            "info compaction.rewrite_amp and lsm.update_p50_us are measured on core_mixed only: \
             here the carry chain runs on the admission applier thread, out of the client's reach"
                .to_string(),
        );
        out.exact = vec![
            ("vfs.wal.write_bytes", wal.write_bytes),
            ("vfs.snapshot_write_bytes", snapshot_bytes),
            ("vfs.fsyncs", total.fsyncs),
            ("wal.records", l.wal_records),
            ("wal.syncs", l.wal_syncs),
            ("wal.runs_reused", l.runs_reused),
            ("wal.replayed_records", l.replayed),
            ("admission.coalesced_batches", l.coalesced),
            ("compaction.merge_steps", l.merge_steps),
            ("gpu_sim.update_bytes", l.traffic.bytes()),
        ];
    }
    out.inputs = digest;
    out.tracer = Some(tracer);
    Ok(out)
}

/// Every live key reads back with its value, every deleted key is gone,
/// and the whole-domain count matches the model.
fn verify(adm: &AdmittedLsm, model: &Model) -> Result<(), Mismatch> {
    let keys: Vec<Key> = model.map.keys().copied().collect();
    for chunk in keys.chunks(1 << 16) {
        for (k, g) in chunk.iter().zip(adm.lookup(chunk)) {
            let want = model.map.get(k).copied();
            if g != want {
                return Err(mismatch(
                    W,
                    "lookup after reopen",
                    k,
                    format!("got {g:?}, model {want:?}"),
                ));
            }
        }
    }
    let deleted: Vec<Key> = model
        .inserted
        .iter()
        .copied()
        .filter(|k| !model.map.contains_key(k))
        .collect();
    for chunk in deleted.chunks(1 << 16) {
        for (k, g) in chunk.iter().zip(adm.lookup(chunk)) {
            if g.is_some() {
                return Err(mismatch(
                    W,
                    "lookup of a deleted key after reopen",
                    k,
                    format!("got {g:?}"),
                ));
            }
        }
    }
    let total = adm.count(&[(0, MAX_KEY)])[0] as usize;
    if total != model.map.len() {
        return Err(mismatch(
            W,
            "count after reopen",
            0,
            format!("[0, MAX_KEY] counted {total}, model {}", model.map.len()),
        ));
    }
    Ok(())
}
