//! Pieces every workload shares: the explicit configuration, device
//! counter deltas, the per-layer report and the correctness failure type.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_lsm::LsmConfig;
use gpu_sim::metrics::{AccessPattern, KernelMetricsSnapshot};
use gpu_sim::Device;

use crate::trace::Tracer;
use crate::util::{Budget, Digest, Report};

/// Settings of one workload run.
#[derive(Debug)]
pub struct RunCfg {
    pub workload: &'static str,
    pub seed: u64,
    pub budget: Budget,
    /// Traced run: alternate traced and untraced rounds, count storage
    /// through the counting `Vfs`, read the layers' counters.
    pub trace: bool,
    /// Reduced sizes for the determinism self-test.
    pub reduced: bool,
    /// Scratch directory inside the checkout (WAL directories, traces).
    pub out_dir: PathBuf,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the run measured, end-to-end and per-layer.
    pub report: Report,
    /// Requests attempted.  None may fail: a failed or refused request
    /// ends the run with an error, so the result line reports 0 failed.
    pub attempted: u64,
    /// Human-readable lines (sample counts, thresholds, notes).
    pub info: Vec<String>,
    /// Counts that must repeat exactly for one seed (self-test).
    pub exact: Vec<(&'static str, u64)>,
    /// Digest of the generated inputs.
    pub inputs: Digest,
    pub tracer: Option<Tracer>,
}

/// A wrong answer: names the workload, the operation and the key.
#[derive(Debug)]
pub struct Mismatch(pub String);

pub fn mismatch(workload: &str, op: &str, key: impl std::fmt::Display, detail: String) -> Mismatch {
    Mismatch(format!(
        "{workload}: wrong {op} answer for key {key}: {detail}"
    ))
}

impl From<gpu_lsm::LsmError> for Mismatch {
    fn from(e: gpu_lsm::LsmError) -> Self {
        Mismatch(format!("library error: {e}"))
    }
}

/// Every structure is built from this explicit configuration; nothing is
/// left to the `LSM_*` environment fallbacks (which `main` refuses).  The
/// values are the library's documented defaults; the worker-pool cutoff and
/// the lookup dispatch threshold stay calibrated per process and are
/// printed with every run.
pub fn lsm_config() -> LsmConfig {
    LsmConfig::default()
        .bloom_bits(8)
        .arena(true)
        .arena_chunk_words(1 << 18)
        .bulk_group(64)
        .admit_queue_capacity(64)
        .admit_coalesce(true)
}

pub fn device() -> Arc<Device> {
    Arc::new(Device::k40c())
}

/// PhaseTimer totals and per-kernel traffic at one instant.
#[derive(Debug)]
pub struct DevSnap {
    phases: BTreeMap<String, (Duration, u64)>,
    kernels: BTreeMap<String, KernelMetricsSnapshot>,
}

impl DevSnap {
    pub fn take(dev: &Device) -> Self {
        DevSnap {
            phases: dev
                .timer()
                .snapshot()
                .into_iter()
                .map(|(k, v)| (k, (v.total, v.count)))
                .collect(),
            kernels: dev.metrics().snapshot(),
        }
    }

    /// Seconds recorded under `names` since `before`.
    pub fn busy_s(&self, before: &DevSnap, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| {
                let now = self.phases.get(*n).map_or(Duration::ZERO, |p| p.0);
                let then = before.phases.get(*n).map_or(Duration::ZERO, |p| p.0);
                (now - then).as_secs_f64()
            })
            .sum()
    }

    /// Timer records plus kernel launches since `before`.
    pub fn records(&self, before: &DevSnap) -> u64 {
        let phases: u64 = self.phases.values().map(|p| p.1).sum::<u64>()
            - before.phases.values().map(|p| p.1).sum::<u64>();
        let launches: u64 = self.kernels.values().map(|k| k.launches).sum::<u64>()
            - before.kernels.values().map(|k| k.launches).sum::<u64>();
        phases + launches
    }
}

/// Accumulated device traffic of one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Traffic {
    kernels: BTreeMap<String, KernelMetricsSnapshot>,
    ops: u64,
}

impl Traffic {
    pub fn add(&mut self, after: &DevSnap, before: &DevSnap, ops: u64) {
        self.ops += ops;
        for (name, a) in &after.kernels {
            let b = before.kernels.get(name).copied().unwrap_or_default();
            let e = self.kernels.entry(name.clone()).or_default();
            e.launches += a.launches - b.launches;
            e.coalesced_read_bytes += a.coalesced_read_bytes - b.coalesced_read_bytes;
            e.coalesced_write_bytes += a.coalesced_write_bytes - b.coalesced_write_bytes;
            e.scattered_read_bytes += a.scattered_read_bytes - b.scattered_read_bytes;
            e.scattered_write_bytes += a.scattered_write_bytes - b.scattered_write_bytes;
            e.scattered_transactions += a.scattered_transactions - b.scattered_transactions;
        }
    }

    pub fn bytes(&self) -> u64 {
        self.kernels.values().map(|k| k.total_bytes()).sum()
    }

    /// `kernel bytes` pairs, for the run's info lines.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .kernels
            .iter()
            .filter(|(_, k)| k.total_bytes() > 0)
            .map(|(name, k)| format!("{name} {}", k.total_bytes()))
            .collect();
        format!("{} ops; {}", self.ops, parts.join(", "))
    }

    pub fn bytes_per_op(&self) -> f64 {
        crate::util::ratio(self.bytes() as f64, self.ops as f64)
    }

    /// The cost model's rate for this traffic, in millions of ops per
    /// modelled second (kernels run back to back).
    pub fn modelled_mops(&self, dev: &Device) -> f64 {
        let seconds: f64 = self
            .kernels
            .values()
            .map(|k| dev.cost_model().estimate_kernel(k).total_seconds)
            .sum();
        crate::util::ratio(self.ops as f64, seconds) / 1e6
    }
}

/// Nanoseconds per telemetry record on this host: a one-thread loop over
/// `timer().record` and `metrics().record_read`, on a private device.
pub fn gpu_sim_record_ns() -> f64 {
    let dev = Device::k40c();
    let rounds = 200_000u32;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..rounds {
            dev.timer()
                .record("perfbench::probe", Duration::from_nanos(u64::from(i & 7)));
            dev.metrics()
                .record_read("perfbench_probe", 64, AccessPattern::Coalesced);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(2 * rounds));
    }
    best
}

/// Traced-vs-untraced overhead of the round latencies of one run.
pub fn overhead_frac(traced: &crate::util::Hist, untraced: &crate::util::Hist) -> f64 {
    crate::util::ratio(traced.median(), untraced.median()) - 1.0
}
