//! Cost model: converting recorded memory traffic into an estimated device
//! time.
//!
//! GPU bulk primitives such as radix sort, merge and scan are bandwidth
//! bound: their running time is essentially (bytes moved) / (sustained DRAM
//! bandwidth).  Pointer-chasing style work such as per-thread binary search
//! is latency bound: each probe is an independent, uncoalesced transaction,
//! and the device hides that latency across the resident warps.  The model
//! here is the classical roofline-style combination of the two:
//!
//! ```text
//! t_kernel = max( coalesced_bytes / BW_eff,
//!                 scattered_txns · latency / (warps_in_flight) ,
//!                 scattered_bytes / BW_scattered )
//! ```
//!
//! The absolute numbers are only as good as the configuration, but the
//! *ratios* between data structures — which is what the paper's tables
//! compare — depend on the traffic counts, which are exact.

use crate::config::DeviceConfig;
use crate::metrics::{KernelMetricsSnapshot, MetricsRegistry};

/// Estimated device time, broken into its bounding components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Seconds the kernel would spend if purely bandwidth bound.
    pub bandwidth_seconds: f64,
    /// Seconds the kernel would spend if purely latency bound.
    pub latency_seconds: f64,
    /// The modelled kernel time: the maximum of the components.
    pub total_seconds: f64,
}

impl CostEstimate {
    /// A zero-cost estimate.
    pub fn zero() -> Self {
        CostEstimate {
            bandwidth_seconds: 0.0,
            latency_seconds: 0.0,
            total_seconds: 0.0,
        }
    }

    /// Sum two estimates (sequential kernels).
    pub fn add(&self, other: &CostEstimate) -> CostEstimate {
        CostEstimate {
            bandwidth_seconds: self.bandwidth_seconds + other.bandwidth_seconds,
            latency_seconds: self.latency_seconds + other.latency_seconds,
            total_seconds: self.total_seconds + other.total_seconds,
        }
    }
}

/// Converts metric snapshots into [`CostEstimate`]s for a given device.
#[derive(Debug, Clone)]
pub struct CostModel {
    config: DeviceConfig,
    /// Effective bandwidth for scattered traffic relative to coalesced; a
    /// warp whose 32 lanes each touch a different 128-byte segment wastes
    /// most of each transaction, so scattered traffic is charged at a
    /// fraction of streaming bandwidth.
    scattered_bandwidth_fraction: f64,
}

impl CostModel {
    /// Build a cost model for `config`.
    pub fn new(config: DeviceConfig) -> Self {
        CostModel {
            config,
            scattered_bandwidth_fraction: 0.125,
        }
    }

    /// The device configuration the model was built from.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Estimate the device time for a single kernel's traffic snapshot.
    pub fn estimate_kernel(&self, snap: &KernelMetricsSnapshot) -> CostEstimate {
        let bw = self.config.effective_bandwidth_bytes_per_sec();
        let coalesced = (snap.coalesced_read_bytes + snap.coalesced_write_bytes) as f64;
        let scattered = (snap.scattered_read_bytes + snap.scattered_write_bytes) as f64;

        let bandwidth_seconds =
            coalesced / bw + scattered / (bw * self.scattered_bandwidth_fraction);

        // Latency component: each scattered transaction pays DRAM latency,
        // hidden across all warps the device can keep in flight.
        let warps_in_flight = (self.config.num_sms * self.config.max_warps_per_sm) as f64;
        let latency_per_txn = self.config.dram_latency_cycles * self.config.cycle_seconds();
        let latency_seconds =
            snap.scattered_transactions as f64 * latency_per_txn / warps_in_flight;

        CostEstimate {
            bandwidth_seconds,
            latency_seconds,
            total_seconds: bandwidth_seconds.max(latency_seconds),
        }
    }

    /// Estimate the total device time across every kernel recorded in a
    /// registry (kernels are assumed to run back-to-back, as in the paper's
    /// bulk-synchronous phases).
    pub fn estimate_registry(&self, registry: &MetricsRegistry) -> CostEstimate {
        registry
            .snapshot()
            .values()
            .map(|s| self.estimate_kernel(s))
            .fold(CostEstimate::zero(), |acc, e| acc.add(&e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AccessPattern;

    fn snap(coalesced: u64, scattered: u64, txns: u64) -> KernelMetricsSnapshot {
        KernelMetricsSnapshot {
            launches: 1,
            coalesced_read_bytes: coalesced / 2,
            coalesced_write_bytes: coalesced - coalesced / 2,
            scattered_read_bytes: scattered,
            scattered_write_bytes: 0,
            scattered_transactions: txns,
        }
    }

    #[test]
    fn pure_streaming_is_bandwidth_bound() {
        let model = CostModel::new(DeviceConfig::k40c());
        let est = model.estimate_kernel(&snap(1 << 30, 0, 0));
        assert!(est.bandwidth_seconds > 0.0);
        assert_eq!(est.latency_seconds, 0.0);
        assert_eq!(est.total_seconds, est.bandwidth_seconds);
    }

    #[test]
    fn scattered_traffic_costs_more_per_byte() {
        let model = CostModel::new(DeviceConfig::k40c());
        let streaming = model.estimate_kernel(&snap(1 << 20, 0, 0));
        let scattered = model.estimate_kernel(&snap(0, 1 << 20, 1 << 14));
        assert!(scattered.total_seconds > streaming.total_seconds);
    }

    #[test]
    fn doubling_traffic_doubles_bandwidth_time() {
        let model = CostModel::new(DeviceConfig::k40c());
        let a = model.estimate_kernel(&snap(1 << 20, 0, 0));
        let b = model.estimate_kernel(&snap(1 << 21, 0, 0));
        assert!((b.bandwidth_seconds / a.bandwidth_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn registry_estimate_sums_kernels() {
        let model = CostModel::new(DeviceConfig::k40c());
        let reg = MetricsRegistry::new();
        reg.record_read("a", 1 << 20, AccessPattern::Coalesced);
        reg.record_write("b", 1 << 20, AccessPattern::Coalesced);
        let est = model.estimate_registry(&reg);
        let single = model.estimate_kernel(&snap(1 << 20, 0, 0));
        assert!((est.total_seconds - 2.0 * single.total_seconds).abs() < 1e-9);
    }
}
