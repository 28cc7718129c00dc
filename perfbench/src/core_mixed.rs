//! `core_mixed`: the paper's operation mix on one `GpuLsm`, out of cache.
//!
//! Set-up inserts 255 batches of b = 2^14 (8 occupied levels, ~4.2 M
//! elements, ~32 MiB of keys and values).  Each round then runs one update
//! batch (10% deletes of resident keys), one lookup batch (half hits), a
//! batch of count spans of ~8 expected keys, the same spans as range
//! queries, and a batch of successor queries.  No service layer is
//! involved: admission, router and WAL are bypassed.
//!
//! The run is a sequence of epochs of 64 rounds, each on a structure
//! freshly built from the set-up batches (one set-up sample per epoch), so
//! every epoch walks the same cycle of carry cascades and the figures do
//! not depend on how far a run got.

use std::time::Instant;

use gpu_lsm::{GpuLsm, Key, UpdateBatch, Value, MAX_KEY};

use crate::common::{
    device, gpu_sim_record_ns, lsm_config, mismatch, overhead_frac, DevSnap, Mismatch, Outcome,
    RunCfg, Traffic,
};
use crate::model::Model;
use crate::trace::Tracer;
use crate::util::{median, ratio, us_since, Digest, Hist, Latency, Rng};

const TAIL_PCT: u32 = 90;

struct Params {
    batch: usize,
    setup_batches: usize,
    lookups: usize,
    spans: usize,
    /// Rounds per epoch: a power of two, so every epoch walks the same
    /// cycle of carry cascades from the set-up state.
    epoch_rounds: usize,
}

const FULL: Params = Params {
    batch: 1 << 14,
    setup_batches: 255,
    lookups: 1 << 14,
    spans: 4096,
    epoch_rounds: 64,
};

// Large enough that the biggest level carries a Bloom filter.
const REDUCED: Params = Params {
    batch: 1 << 12,
    setup_batches: 63,
    lookups: 1 << 12,
    spans: 512,
    epoch_rounds: 8,
};

struct Round {
    batch: UpdateBatch,
    lookups: Vec<Key>,
    spans: Vec<(Key, Key)>,
    succ: Vec<Key>,
}

fn gen_round(model: &Model, rng: &mut Rng, p: &Params, digest: &mut Digest) -> Round {
    let batch = model.update_batch(rng, p.batch, p.batch / 10, digest);
    let mut lookups: Vec<Key> = (0..p.lookups)
        .map(|i| {
            if i % 2 == 0 {
                model.resident(rng)
            } else {
                model.absent(rng)
            }
        })
        .collect();
    for i in (1..lookups.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        lookups.swap(i, j);
    }
    // Spans hold ~8 live keys at the current density.
    let live = (model.map.len() + p.batch).max(1) as u64;
    let width = ((8u64 << 31) / live).max(1);
    let spans: Vec<(Key, Key)> = (0..p.spans)
        .map(|_| {
            let lo = rng.key();
            (
                lo,
                (u64::from(lo) + width - 1).min(u64::from(MAX_KEY)) as Key,
            )
        })
        .collect();
    let succ: Vec<Key> = (0..p.spans).map(|_| rng.key()).collect();
    for &k in lookups.iter().chain(&succ) {
        digest.add(k);
    }
    Round {
        batch,
        lookups,
        spans,
        succ,
    }
}

struct Answers {
    lookups: Vec<Option<Value>>,
    counts: Vec<u32>,
    ranges: gpu_lsm::RangeResult,
    succ: Vec<Option<(Key, Value)>>,
}

fn check(model: &Model, r: &Round, a: &Answers) -> Result<(), Mismatch> {
    const W: &str = "core_mixed";
    for (&k, got) in r.lookups.iter().zip(&a.lookups) {
        let want = model.map.get(&k).copied();
        if *got != want {
            return Err(mismatch(
                W,
                "lookup",
                k,
                format!("got {got:?}, model {want:?}"),
            ));
        }
    }
    for (q, &(lo, hi)) in r.spans.iter().enumerate() {
        let want: Vec<(Key, Value)> = model.map.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        if a.counts[q] as usize != want.len() {
            return Err(mismatch(
                W,
                "count",
                lo,
                format!(
                    "span [{lo}, {hi}]: got {}, model {}",
                    a.counts[q],
                    want.len()
                ),
            ));
        }
        if !a.ranges.iter_query(q).eq(want.iter().copied()) {
            return Err(mismatch(
                W,
                "range",
                lo,
                format!("span [{lo}, {hi}] differs from the model"),
            ));
        }
    }
    for (&k, got) in r.succ.iter().zip(&a.succ) {
        let want = model
            .map
            .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
            .next()
            .map(|(&k, &v)| (k, v));
        if *got != want {
            return Err(mismatch(
                W,
                "successor",
                k,
                format!("got {got:?}, model {want:?}"),
            ));
        }
    }
    Ok(())
}

/// Layer counters summed over the timed rounds of every epoch.
#[derive(Default)]
struct Layers {
    merge_steps: u64,
    incremental: u64,
    maintenance: u64,
    probes: u64,
    skips: u64,
    recycled: u64,
    reserved: u64,
    high_water: usize,
    records: u64,
    busy: [f64; 8],
}

const PHASES: [&[&str]; 8] = [
    &["insert::sort_batch"],
    &["insert::merge"],
    &["lookup", "lookup_bulk", "bulk_get"],
    &["count::gather"],
    &["count::validate"],
    &["range::gather"],
    &["range::validate"],
    &["successor"],
];

impl Layers {
    fn add(&mut self, s0: &gpu_lsm::LsmStats, s1: &gpu_lsm::LsmStats, d0: &DevSnap, d1: &DevSnap) {
        let maint = |m: &gpu_lsm::MergeCounters| {
            m.fence_merges + m.fence_rebuilds + m.filter_rehashes + m.filter_rebuilds
        };
        self.merge_steps += s1.merges.carry_merge_steps - s0.merges.carry_merge_steps;
        self.incremental += s1.merges.incremental_events() - s0.merges.incremental_events();
        self.maintenance += maint(&s1.merges) - maint(&s0.merges);
        self.probes += s1.filter_probes - s0.filter_probes;
        self.skips += s1.filter_skips - s0.filter_skips;
        self.recycled += s1.arena.recycled_regions - s0.arena.recycled_regions;
        self.reserved += s1.arena.reserved_regions - s0.arena.reserved_regions;
        self.high_water = self.high_water.max(s1.arena.high_water_bytes);
        self.records += d1.records(d0);
        for (busy, names) in self.busy.iter_mut().zip(PHASES) {
            *busy += d1.busy_s(d0, names);
        }
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, Mismatch> {
    let p = if cfg.reduced { &REDUCED } else { &FULL };
    let mut out = Outcome::default();
    let mut digest = Digest::default();

    // Set-up inputs, generated once and replayed into each epoch's fresh
    // structure.
    let mut rng = Rng::new(cfg.seed, 1);
    let mut base = Model::default();
    let mut setup_batches = Vec::with_capacity(p.setup_batches);
    for _ in 0..p.setup_batches {
        let b = base.update_batch(&mut rng, p.batch, 0, &mut digest);
        base.apply(&b);
        setup_batches.push(b);
    }

    let mut tracer = Tracer::new();
    // Which rounds are traced: a coin from its own stream, so the choice
    // cannot alias with the carry chain's binary counter.
    let mut pick = Rng::new(cfg.seed, 99);
    let mut layers = Layers::default();
    let (mut setup_s, mut space_amp) = (Vec::new(), Vec::new());
    let (mut upd_us, mut lkp_us, mut round_us) =
        (Hist::default(), Hist::default(), Hist::default());
    let (mut traced_round_us, mut untraced_round_us, mut lsm_update_us) =
        (Hist::default(), Hist::default(), Hist::default());
    let (mut t_upd, mut t_lkp, mut t_cnt, mut t_rng, mut t_suc) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut traffic: [Traffic; 5] = Default::default();
    let mut merged_elements = 0u64;
    let (mut threshold_start, mut threshold_end) = (None, 0);
    let (mut rounds, mut epochs) = (0u64, 0u64);
    let mut shape = String::new();
    let started = Instant::now();
    while cfg.budget.more(epochs, started) {
        let start = Instant::now();
        let mut lsm = GpuLsm::with_config(device(), p.batch, &lsm_config())?;
        for b in &setup_batches {
            lsm.update(b)?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        let dev = lsm.device().clone();
        threshold_start.get_or_insert_with(|| lsm.bulk_lookup_threshold());
        let mut model = base.clone();

        let stats0 = cfg.trace.then(|| lsm.stats());
        let snap0 = DevSnap::take(&dev);
        for _ in 0..p.epoch_rounds {
            let r = gen_round(&model, &mut rng, p, &mut digest);
            let traced = cfg.trace && pick.below(2) == 1;
            tracer.set_on(traced);
            if cfg.trace {
                merged_elements += lsm.plan_next_insert().merged_elements(p.batch) as u64;
            }
            let req = rounds;
            let round_start = Instant::now();
            let root = traced.then(|| tracer.open(req, 0, "core_mixed.round"));
            let parent = root.map_or(0, |o| o.id());
            let mut snaps = Vec::with_capacity(6);
            if traced {
                snaps.push(DevSnap::take(&dev));
            }

            let t = Instant::now();
            let (res, span_us) = tracer.span(req, parent, "lsm.update", || lsm.update(&r.batch));
            res?;
            let d_upd = us_since(t);
            if traced {
                lsm_update_us.push(span_us);
                snaps.push(DevSnap::take(&dev));
            }
            let t = Instant::now();
            let (lookups, _) = tracer.span(req, parent, "lookup.lookup", || lsm.lookup(&r.lookups));
            let d_lkp = us_since(t);
            if traced {
                snaps.push(DevSnap::take(&dev));
            }
            let t = Instant::now();
            let (counts, _) = tracer.span(req, parent, "count.count", || lsm.count(&r.spans));
            let d_cnt = us_since(t);
            if traced {
                snaps.push(DevSnap::take(&dev));
            }
            let t = Instant::now();
            let (ranges, _) = tracer.span(req, parent, "range.range", || lsm.range(&r.spans));
            let d_rng = us_since(t);
            if traced {
                snaps.push(DevSnap::take(&dev));
            }
            let t = Instant::now();
            let (succ, _) = tracer.span(req, parent, "order.successor", || lsm.successor(&r.succ));
            let d_suc = us_since(t);
            if traced {
                snaps.push(DevSnap::take(&dev));
            }
            if let Some(o) = root {
                tracer.close(o);
            }
            let total = d_upd + d_lkp + d_cnt + d_rng + d_suc;
            // Time spent taking device snapshots is tracing overhead too.
            let wall = us_since(round_start);
            if cfg.trace {
                if traced {
                    traced_round_us.push(wall);
                } else {
                    untraced_round_us.push(wall);
                }
            }
            if traced {
                let ops = [p.batch, p.lookups, p.spans, p.spans, p.spans];
                for (i, t) in traffic.iter_mut().enumerate() {
                    t.add(&snaps[i + 1], &snaps[i], ops[i] as u64);
                }
            }
            upd_us.push(d_upd);
            lkp_us.push(d_lkp);
            round_us.push(total);
            t_upd += d_upd;
            t_lkp += d_lkp;
            t_cnt += d_cnt;
            t_rng += d_rng;
            t_suc += d_suc;
            rounds += 1;

            model.apply(&r.batch);
            check(
                &model,
                &r,
                &Answers {
                    lookups,
                    counts,
                    ranges,
                    succ,
                },
            )?;
        }
        tracer.set_on(false);
        threshold_end = lsm.bulk_lookup_threshold();
        let stats1 = lsm.stats();
        let resident = (stats1.memory_bytes + stats1.filter_bytes + stats1.fence_bytes) as f64;
        space_amp.push(resident / (8.0 * model.map.len() as f64));
        shape = format!(
            "resident elements {} in {} levels, live keys {}",
            stats1.total_elements,
            stats1.occupied_levels,
            model.map.len()
        );
        if let Some(stats0) = stats0 {
            layers.add(&stats0, &stats1, &snap0, &DevSnap::take(&dev));
        }
        epochs += 1;
    }

    // End-to-end.
    let rep = &mut out.report;
    let n = rounds as f64;
    let ops_per_round = (p.batch + p.lookups + 3 * p.spans) as f64;
    let round_lat = Latency::of(&round_us, TAIL_PCT);
    let upd_lat = Latency::of(&upd_us, TAIL_PCT);
    let lkp_lat = Latency::of(&lkp_us, TAIL_PCT);
    rep.put("setup_s", median(&setup_s), "s");
    rep.put(
        "throughput_mops",
        n * ops_per_round / round_us.sum_us(),
        "Mop/s",
    );
    rep.put("request_p50_us", round_lat.p50, "us");
    rep.put("request_tail_us", round_lat.tail, "us");
    rep.put("space_amp", median(&space_amp), "ratio");
    rep.put("update_mops", n * p.batch as f64 / t_upd, "Mop/s");
    rep.put("update_p50_us", upd_lat.p50, "us");
    rep.put("update_tail_us", upd_lat.tail, "us");
    rep.put("lookup_mqps", n * p.lookups as f64 / t_lkp, "Mq/s");
    rep.put("lookup_p50_us", lkp_lat.p50, "us");
    rep.put("lookup_tail_us", lkp_lat.tail, "us");
    rep.put("count_mqps", n * p.spans as f64 / t_cnt, "Mq/s");
    rep.put("range_mqps", n * p.spans as f64 / t_rng, "Mq/s");
    rep.put("successor_mqps", n * p.spans as f64 / t_suc, "Mq/s");
    out.info.push(round_lat.describe("round latency (request)"));
    out.info.push(upd_lat.describe("update batch latency"));
    out.info.push(lkp_lat.describe("lookup batch latency"));
    out.info.push(format!(
        "info epochs {epochs}; rounds {rounds}; at the last epoch's end {shape}"
    ));
    out.info.push(format!(
        "info bulk_lookup_threshold start {} end {threshold_end}",
        threshold_start.unwrap_or(0)
    ));
    out.attempted = rounds * 5;

    // Per-layer.
    if cfg.trace {
        let l = &layers;
        let dev = device();
        let user_updates = rounds * p.batch as u64;
        let lookups = rounds * p.lookups as u64;
        rep.put("lsm.update_p50_us", lsm_update_us.median(), "us");
        rep.put("lsm.sort_busy_s", l.busy[0], "s");
        rep.put("compaction.merge_busy_s", l.busy[1], "s");
        rep.put("compaction.merge_steps", l.merge_steps as f64, "count");
        rep.put(
            "compaction.rewrite_amp",
            ratio(merged_elements as f64, user_updates as f64),
            "ratio",
        );
        rep.put(
            "compaction.incremental_frac",
            ratio(l.incremental as f64, l.maintenance as f64),
            "frac",
        );
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
        rep.put("lookup.busy_s", l.busy[2], "s");
        rep.put(
            "lookup.filter_skip_frac",
            ratio(l.skips as f64, l.probes as f64),
            "frac",
        );
        rep.put(
            "lookup.filter_probes_per_query",
            ratio(l.probes as f64, lookups as f64),
            "count",
        );
        rep.put(
            "lookup.bulk_threshold",
            threshold_end.min(u32::MAX as usize) as f64,
            "count",
        );
        rep.put("count.gather_busy_s", l.busy[3], "s");
        rep.put("count.validate_busy_s", l.busy[4], "s");
        rep.put("range.gather_busy_s", l.busy[5], "s");
        rep.put("range.validate_busy_s", l.busy[6], "s");
        rep.put("order.successor_busy_s", l.busy[7], "s");
        rep.put("gpu_sim.record_ns", gpu_sim_record_ns(), "ns");
        rep.put(
            "gpu_sim.records_per_request",
            ratio(l.records as f64, (rounds * 5) as f64),
            "count",
        );
        let names = ["update", "lookup", "count", "range", "successor"];
        for (name, t) in names.iter().zip(&traffic) {
            out.info.push(format!(
                "info device traffic of {name} calls: {}",
                t.describe()
            ));
            rep.put(
                format!("gpu_sim.bytes_per_op.{name}"),
                t.bytes_per_op(),
                "B/op",
            );
        }
        rep.put(
            "gpu_sim.modelled_update_mops",
            traffic[0].modelled_mops(&dev),
            "Mop/s",
        );
        rep.put(
            "gpu_sim.modelled_lookup_mqps",
            traffic[1].modelled_mops(&dev),
            "Mq/s",
        );
        rep.put(
            "gpu_sim.modelled_count_mqps",
            traffic[2].modelled_mops(&dev),
            "Mq/s",
        );
        rep.put(
            "gpu_sim.modelled_range_mqps",
            traffic[3].modelled_mops(&dev),
            "Mq/s",
        );
        rep.put(
            "trace.overhead_frac",
            overhead_frac(&traced_round_us, &untraced_round_us),
            "frac",
        );

        out.exact = vec![
            ("compaction.merge_steps", l.merge_steps),
            ("compaction.merged_elements", merged_elements),
            ("lookup.filter_probes", l.probes),
            ("lookup.filter_skips", l.skips),
            ("arena.recycled_regions", l.recycled),
            ("gpu_sim.update_bytes", traffic[0].bytes()),
            ("gpu_sim.lookup_bytes", traffic[1].bytes()),
            ("gpu_sim.count_bytes", traffic[2].bytes()),
            ("gpu_sim.range_bytes", traffic[3].bytes()),
            ("gpu_sim.successor_bytes", traffic[4].bytes()),
            (
                "gpu_sim.modelled_update_mops_x1e6",
                (traffic[0].modelled_mops(&dev) * 1e6) as u64,
            ),
            (
                "gpu_sim.modelled_lookup_mqps_x1e6",
                (traffic[1].modelled_mops(&dev) * 1e6) as u64,
            ),
        ];
    }
    out.inputs = digest;
    out.tracer = Some(tracer);
    Ok(out)
}
