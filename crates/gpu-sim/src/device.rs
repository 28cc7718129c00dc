//! The [`Device`]: configuration, traffic metrics, phase timers and the
//! cost model, bundled the way a CUDA context bundles a device's state.
//!
//! Kernels themselves are ordinary (rayon-parallel) Rust in the primitives
//! and the LSM; each one records the global-memory traffic it performs in
//! [`Device::metrics`], and [`Device::estimated_time`] turns that traffic
//! into modelled device time.

use crate::block::tile_size_for;
use crate::config::DeviceConfig;
use crate::cost::{CostEstimate, CostModel};
use crate::event::PhaseTimer;
use crate::metrics::MetricsRegistry;

/// A modelled GPU device: the entry point of the simulation substrate.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    metrics: MetricsRegistry,
    timer: PhaseTimer,
    cost_model: CostModel,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let cost_model = CostModel::new(config.clone());
        Device {
            config,
            metrics: MetricsRegistry::new(),
            timer: PhaseTimer::new(),
            cost_model,
        }
    }

    /// Create a device modelling the paper's Tesla K40c.
    pub fn k40c() -> Self {
        Self::new(DeviceConfig::k40c())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The per-kernel traffic metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The phase timer shared by operations on this device.
    pub fn timer(&self) -> &PhaseTimer {
        &self.timer
    }

    /// The cost model for this device.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Estimate the modelled device time of all traffic recorded so far.
    pub fn estimated_time(&self) -> CostEstimate {
        self.cost_model.estimate_registry(&self.metrics)
    }

    /// Reset metrics and timers (between experiment phases).
    pub fn reset_counters(&self) {
        self.metrics.reset();
        self.timer.reset();
    }

    /// The tile size (in elements of `elem_bytes` bytes) that fits this
    /// device's shared memory; primitives use it to pick their block tiles.
    pub fn preferred_tile(&self, elem_bytes: usize) -> usize {
        tile_size_for(&self.config, elem_bytes)
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::k40c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AccessPattern;

    #[test]
    fn kernel_launch_records_traffic() {
        let device = Device::new(DeviceConfig::small());
        let metrics = device.metrics();
        metrics.record_launch("touch");
        metrics.record_read("touch", 256 * 4, AccessPattern::Coalesced);
        metrics.record_write("touch", 256 * 4, AccessPattern::Coalesced);
        let snap = metrics.snapshot();
        assert_eq!(snap["touch"].launches, 1);
        assert_eq!(snap["touch"].coalesced_read_bytes, 256 * 4);
        assert_eq!(snap["touch"].coalesced_write_bytes, 256 * 4);
    }

    #[test]
    fn estimated_time_grows_with_traffic() {
        let device = Device::new(DeviceConfig::small());
        // One streaming pass over 2^16 eight-byte elements.
        let pass = |kernel| {
            let bytes = 8 << 16;
            device
                .metrics()
                .record_read(kernel, bytes, AccessPattern::Coalesced);
            device
                .metrics()
                .record_write(kernel, bytes, AccessPattern::Coalesced);
        };
        pass("pass1");
        let t1 = device.estimated_time().total_seconds;
        pass("pass2");
        let t2 = device.estimated_time().total_seconds;
        assert!(t2 > t1);
        device.reset_counters();
        assert_eq!(device.estimated_time().total_seconds, 0.0);
    }

    #[test]
    fn preferred_tile_is_positive_warp_multiple() {
        let device = Device::k40c();
        let tile = device.preferred_tile(8);
        assert!(tile > 0);
        assert_eq!(tile % device.config().warp_size, 0);
    }
}
