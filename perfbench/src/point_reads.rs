//! `point_reads`: small lookup requests against an in-cache service, where
//! the fixed cost per request dominates.
//!
//! A volatile `AdmittedLsm` with 4 uniform shards and b = 4096 holds 2^18
//! keys (~2 MiB).  Set-up submits shard-aligned full batches, so no
//! padding is added and the resident shape does not depend on how the
//! applier coalesced.  The timed part has no writes: requests of 1, 8 and
//! 64 keys in rotation, keys Zipf(0.99) over the resident set, 10% absent.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use gpu_lsm::{AdmittedLsm, Key, ShardedLsm, UpdateBatch, Value};

use crate::common::{
    device, gpu_sim_record_ns, lsm_config, mismatch, overhead_frac, DevSnap, Mismatch, Outcome,
    RunCfg, Traffic,
};
use crate::trace::Tracer;
use crate::util::{median, ratio, us_since, Budget, Digest, Hist, Latency, Rng, Zipf};

const W: &str = "point_reads";
const TAIL_PCT: u32 = 99;
const SHARDS: usize = 4;
const BATCH: usize = 4096;
const SIZES: [usize; 3] = [1, 8, 64];
const BLOCK: u64 = 3 * 1024;

struct Params {
    keys: usize,
    /// Each segment builds a fresh service (one set-up sample) and runs
    /// its share of the timed requests on it.
    segments: u64,
}

const FULL: Params = Params {
    keys: 1 << 18,
    segments: 8,
};

const REDUCED: Params = Params {
    keys: 1 << 14,
    segments: 2,
};

fn check(
    model: &BTreeMap<Key, Value>,
    op: &str,
    q: &[Key],
    got: &[Option<Value>],
) -> Result<(), Mismatch> {
    for (&k, g) in q.iter().zip(got) {
        let want = model.get(&k).copied();
        if *g != want {
            return Err(mismatch(W, op, k, format!("got {g:?}, model {want:?}")));
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, Mismatch> {
    let p = if cfg.reduced { &REDUCED } else { &FULL };
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut rng = Rng::new(cfg.seed, 3);

    // Uniform keys, each batch inside one shard's key range and distinct
    // within it; a key drawn again by a later batch is overwritten.
    let shard_span = 1u64 << 31 >> SHARDS.trailing_zeros();
    let mut model = BTreeMap::new();
    let mut by_shard = vec![Vec::new(); SHARDS];
    let mut batches = Vec::new();
    for i in 0..p.keys / BATCH {
        let base = (i % SHARDS) as u64 * shard_span;
        let mut seen = HashSet::with_capacity(BATCH);
        let mut b = UpdateBatch::with_capacity(BATCH);
        while seen.len() < BATCH {
            let k = (base + rng.below(shard_span)) as Key;
            if seen.insert(k) {
                let v = rng.value();
                b.insert(k, v);
                model.insert(k, v);
                by_shard[i % SHARDS].push(k);
                digest.add(k);
            }
        }
        batches.push(b);
    }
    // Zipf rank r names a key of shard r mod 4, so the hot keys spread
    // over the shards the same way for every seed.
    let resident: Vec<Key> = (0..p.keys)
        .map(|r| by_shard[r % SHARDS][r / SHARDS])
        .collect();

    let zipf = Zipf::new(resident.len() as u64, 0.99);
    let mut tracer = Tracer::new();
    // Which requests are traced: a coin from its own stream.
    let mut pick = Rng::new(cfg.seed, 99);
    let (mut lat_us, mut busy_us) = (Hist::default(), 0.0);
    let (mut adm_self, mut shard_self, mut split_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_lat, mut untraced_lat) = (Hist::default(), Hist::default());
    let (mut setup_s, mut space_amp) = (Vec::new(), Vec::new());
    let (mut lookups, mut requests, mut replay_records) = (0u64, 0u64, 0u64);
    let (mut probes, mut skips, mut served, mut placebo) = (0u64, 0u64, 0u64, 0.0);
    let (mut records, mut busy_s, mut traffic) = (0u64, 0.0, Traffic::default());
    let (mut threshold_start, mut threshold_end) = (None, 0);
    let (mut keys, mut ends, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_reqs: Vec<(usize, u64, u64, f64)> = Vec::new();
    for segment in 0..p.segments {
        // Set-up: a fresh device and service for every segment.
        let dev = device();
        let start = Instant::now();
        let config = lsm_config();
        let service = ShardedLsm::with_config(dev.clone(), BATCH, SHARDS, config.clone())?;
        let adm = AdmittedLsm::with_config(service, config.admission());
        for b in &batches {
            adm.submit(b)?;
        }
        adm.flush()?;
        setup_s.push(start.elapsed().as_secs_f64());
        threshold_start.get_or_insert_with(|| {
            adm.service()
                .shard(0)
                .with_read(|l| l.bulk_lookup_threshold())
        });

        let stats0 = cfg.trace.then(|| adm.stats());
        let snap0 = DevSnap::take(&dev);
        let service = adm.service();
        let router = service.router();
        let shards: Vec<_> = (0..service.num_shards())
            .map(|s| service.shard(s))
            .collect();
        let budget = cfg.budget.share(segment, p.segments);
        let (mut done, started) = (0u64, Instant::now());
        while budget.more(done, started) {
            // Keys are drawn before a block and answers checked after it,
            // so the model stays out of the cache while the requests run.
            let block = match budget {
                Budget::Rounds(n) => BLOCK.min(n - done),
                Budget::Seconds(_) => BLOCK,
            };
            keys.clear();
            ends.clear();
            for r in 0..block {
                for _ in 0..SIZES[(requests + r) as usize % 3] {
                    let k = if rng.below(10) == 0 {
                        loop {
                            let k = rng.key();
                            if !model.contains_key(&k) {
                                break k;
                            }
                        }
                    } else {
                        resident[zipf.sample(&mut rng) as usize]
                    };
                    digest.add(k);
                    keys.push(k);
                }
                ends.push(keys.len());
            }
            answers.clear();
            traced_reqs.clear();
            let mut begin = 0;
            for (i, &end) in ends.iter().enumerate() {
                let q = &keys[begin..end];
                let traced = cfg.trace && pick.below(2) == 1;
                tracer.set_on(traced);
                let req = requests;
                let t = Instant::now();
                let root = traced.then(|| tracer.open(req, 0, "point_reads.request"));
                let parent = root.map_or(0, |o| o.id());
                let (got, a_us) = tracer.span(req, parent, "admission.lookup", || adm.lookup(q));
                if let Some(o) = root {
                    traced_reqs.push((i, req, o.id(), a_us));
                    tracer.close(o);
                }
                let d = us_since(t);
                answers.extend(got);
                lat_us.push(d);
                busy_us += d;
                if cfg.trace {
                    if traced {
                        traced_lat.push(d);
                    } else {
                        untraced_lat.push(d);
                    }
                }
                lookups += q.len() as u64;
                requests += 1;
                begin = end;
            }
            done += block;

            // Replays one layer down of the block's traced requests, before
            // the model checks evict the structure from the cache.  Each
            // layer's replays run as a sequence of their own, the way the
            // requests themselves ran.
            tracer.set_on(true);
            let before = DevSnap::take(&dev);
            let query = |i: usize| &keys[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
            let mut replays = Vec::with_capacity(traced_reqs.len());
            for &(i, req, parent, a_us) in &traced_reqs {
                let (svc, s_us) =
                    tracer.span(req, parent, "shard.lookup", || service.lookup(query(i)));
                adm_self.push(a_us - s_us);
                replays.push((i, svc, s_us, Vec::new()));
            }
            for (&(i, req, parent, _), (_, _, s_us, per_shard)) in
                traced_reqs.iter().zip(&mut replays)
            {
                let (parts, sp_us) = tracer.span(req, parent, "router.split_lookups", || {
                    router.split_lookups(query(i))
                });
                let mut inner = sp_us;
                for (s, (sub, _)) in parts.into_iter().enumerate() {
                    if !sub.is_empty() {
                        let (ans, us) =
                            tracer.span(req, parent, "lsm.lookup", || shards[s].lookup(&sub));
                        inner += us;
                        per_shard.push((sub, ans));
                    }
                }
                shard_self.push(*s_us - inner);
                split_us.push(sp_us);
            }
            replay_records += DevSnap::take(&dev).records(&before);
            tracer.set_on(false);
            for (i, svc, _, per_shard) in &replays {
                check(&model, "service lookup replay", query(*i), svc)?;
                for (sub, ans) in per_shard {
                    check(&model, "shard lookup replay", sub, ans)?;
                }
            }
            check(&model, "lookup", &keys, &answers)?;
        }
        let snap1 = DevSnap::take(&dev);
        threshold_end = adm
            .service()
            .shard(0)
            .with_read(|l| l.bulk_lookup_threshold());
        let stats1 = adm.stats();
        let resident_bytes =
            (stats1.memory_bytes + stats1.filter_bytes + stats1.fence_bytes) as f64;
        space_amp.push(resident_bytes / (8.0 * model.len() as f64));
        if let Some(s0) = stats0 {
            probes += stats1.filter_probes - s0.filter_probes;
            skips += stats1.filter_skips - s0.filter_skips;
            // Replays look up the same keys twice more in traced requests.
            served += stats1.lookup_ops - s0.lookup_ops;
            placebo = ratio(
                stats1.total_elements as f64 - adm.admission_stats().applied_ops as f64,
                stats1.total_elements as f64,
            );
            records += snap1.records(&snap0);
            busy_s += snap1.busy_s(&snap0, &["lookup", "lookup_bulk", "bulk_get"]);
            traffic.add(&snap1, &snap0, stats1.lookup_ops - s0.lookup_ops);
        }
    }

    let rep = &mut out.report;
    let lat = Latency::of(&lat_us, TAIL_PCT);
    rep.put("setup_s", median(&setup_s), "s");
    rep.put("throughput_mops", lookups as f64 / busy_us, "Mop/s");
    rep.put("request_p50_us", lat.p50, "us");
    rep.put("request_tail_us", lat.tail, "us");
    rep.put("space_amp", median(&space_amp), "ratio");
    rep.put("lookup_mqps", lookups as f64 / busy_us, "Mq/s");
    rep.put("lookup_p50_us", lat.p50, "us");
    rep.put("lookup_tail_us", lat.tail, "us");
    out.info
        .push(lat.describe("lookup request latency (request)"));
    out.info.push(format!(
        "info segments {}; requests {requests}; lookups {lookups}",
        p.segments
    ));
    out.info.push(format!(
        "info bulk_lookup_threshold (shard 0) start {} end {threshold_end}",
        threshold_start.unwrap_or(0)
    ));
    out.attempted = requests;

    if cfg.trace {
        rep.put("admission.read_self_us", median(&adm_self), "us");
        rep.put("shard.split_lookups_us", median(&split_us), "us");
        rep.put("shard.read_self_us", median(&shard_self), "us");
        rep.put("shard.placebo_frac", placebo, "frac");
        rep.put("lookup.busy_s", busy_s, "s");
        rep.put(
            "lookup.filter_skip_frac",
            ratio(skips as f64, probes as f64),
            "frac",
        );
        rep.put(
            "lookup.filter_probes_per_query",
            ratio(probes as f64, served as f64),
            "count",
        );
        rep.put(
            "lookup.bulk_threshold",
            threshold_end.min(u32::MAX as usize) as f64,
            "count",
        );
        rep.put("gpu_sim.record_ns", gpu_sim_record_ns(), "ns");
        rep.put(
            "gpu_sim.records_per_request",
            ratio((records - replay_records) as f64, requests as f64),
            "count",
        );
        rep.put(
            "gpu_sim.bytes_per_op.lookup",
            traffic.bytes_per_op(),
            "B/op",
        );
        rep.put(
            "gpu_sim.modelled_lookup_mqps",
            traffic.modelled_mops(&device()),
            "Mq/s",
        );
        rep.put(
            "trace.overhead_frac",
            overhead_frac(&traced_lat, &untraced_lat),
            "frac",
        );
        out.exact = vec![
            ("lookup.filter_probes", probes),
            ("lookup.filter_skips", skips),
            ("gpu_sim.lookup_bytes", traffic.bytes()),
        ];
    }
    out.inputs = digest;
    out.tracer = Some(tracer);
    Ok(out)
}
