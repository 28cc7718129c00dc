//! Device configuration: the hardware parameters of the modelled GPU.
//!
//! The defaults mirror the NVIDIA Tesla K40c used in the paper's evaluation
//! (Kepler GK110B, 15 SMs, 12 GB GDDR5 at 288 GB/s, 1.5 MB L2, 48 KB shared
//! memory per SM).  All parameters are plain data so alternative devices can
//! be described for sensitivity studies.

/// Hardware description of the modelled GPU device.
///
/// Only parameters that the cost model or the shared-memory tile sizing
/// read are included.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name (for reports).
    pub name: String,
    /// Number of streaming multiprocessors (SMs).
    pub num_sms: usize,
    /// SIMD width of a warp (32 on all NVIDIA architectures).
    pub warp_size: usize,
    /// Core clock in GHz (used to convert latency cycles to time).
    pub clock_ghz: f64,
    /// Peak global-memory (DRAM) bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Fraction of peak bandwidth achievable by well-coalesced streaming
    /// kernels in practice (the paper's radix sort sustains ~770 M 8-byte
    /// pairs/s ≈ 0.17 of peak on a K40c once read+write traffic per pass is
    /// accounted for; 0.75 is a typical streaming efficiency).
    pub streaming_efficiency: f64,
    /// Global-memory access latency in cycles (uncoalesced accesses pay this
    /// per transaction when latency-bound).
    pub dram_latency_cycles: f64,
    /// Shared-memory capacity per SM in bytes (48 KB on the K40c).
    pub shared_mem_per_sm: usize,
    /// Maximum number of resident warps per SM (used to model latency
    /// hiding: more resident warps hide more latency).
    pub max_warps_per_sm: usize,
}

impl DeviceConfig {
    /// The NVIDIA Tesla K40c configuration used in the paper's evaluation.
    pub fn k40c() -> Self {
        DeviceConfig {
            name: "NVIDIA Tesla K40c (modelled)".to_string(),
            num_sms: 15,
            warp_size: 32,
            clock_ghz: 0.745,
            dram_bandwidth_gbps: 288.0,
            streaming_efficiency: 0.75,
            dram_latency_cycles: 350.0,
            shared_mem_per_sm: 48 * 1024, // 48 KB
            max_warps_per_sm: 64,
        }
    }

    /// A small generic device useful for tests: few SMs, small caches, so
    /// cache-capacity effects show up at test-sized inputs.
    pub fn small() -> Self {
        DeviceConfig {
            name: "small-test-device".to_string(),
            num_sms: 2,
            warp_size: 32,
            clock_ghz: 1.0,
            dram_bandwidth_gbps: 32.0,
            streaming_efficiency: 0.75,
            dram_latency_cycles: 200.0,
            shared_mem_per_sm: 16 * 1024,
            max_warps_per_sm: 32,
        }
    }

    /// Effective sustainable DRAM bandwidth in bytes per second.
    pub fn effective_bandwidth_bytes_per_sec(&self) -> f64 {
        self.dram_bandwidth_gbps * 1.0e9 * self.streaming_efficiency
    }

    /// Duration of one core clock cycle in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (self.clock_ghz * 1.0e9)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::k40c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40c_preset_matches_published_specs() {
        let cfg = DeviceConfig::k40c();
        assert_eq!(cfg.num_sms, 15);
        assert_eq!(cfg.warp_size, 32);
        assert_eq!(cfg.shared_mem_per_sm, 48 * 1024);
        assert!((cfg.dram_bandwidth_gbps - 288.0).abs() < f64::EPSILON);
    }

    #[test]
    fn effective_bandwidth_below_peak() {
        let cfg = DeviceConfig::k40c();
        assert!(cfg.effective_bandwidth_bytes_per_sec() < cfg.dram_bandwidth_gbps * 1e9);
        assert!(cfg.effective_bandwidth_bytes_per_sec() > 0.0);
    }

    #[test]
    fn cycle_time_is_reciprocal_of_clock() {
        let cfg = DeviceConfig::small();
        assert!((cfg.cycle_seconds() - 1e-9).abs() < 1e-15);
    }

    #[test]
    fn default_is_k40c() {
        assert_eq!(DeviceConfig::default(), DeviceConfig::k40c());
    }

    #[test]
    fn config_clone_is_equal() {
        let cfg = DeviceConfig::k40c();
        assert_eq!(cfg.clone(), cfg);
    }
}
