//! Thread-block tile sizing.
//!
//! A CUDA thread block cooperates through a small, fast, programmer-managed
//! shared memory (48 KB per SM on the K40c).  The paper's sort and merge
//! primitives "aggressively use shared memory to achieve coalesced global
//! memory accesses" (§IV-A): each block stages a tile of input in shared
//! memory, works on it locally, and writes the finished tile back in one
//! streaming pass.  The primitives use [`tile_size_for`] (through
//! [`crate::Device::preferred_tile`]) to pick tile sizes that would actually
//! fit in shared memory on the modelled hardware, so the decomposition (and
//! hence the number of global-memory passes) matches the real implementation.

use crate::config::DeviceConfig;

/// Choose a per-block tile size (in elements of `elem_bytes` each) such that
/// the tile plus a same-sized staging area fit in the device's shared
/// memory, rounded down to a multiple of the warp size.
///
/// This is how the real CUB/moderngpu kernels choose their VT×NT products;
/// keeping the same rule means our pass structure scales with the modelled
/// hardware the same way theirs does.
pub fn tile_size_for(config: &DeviceConfig, elem_bytes: usize) -> usize {
    let budget = config.shared_mem_per_sm / 2; // tile + staging area
    let raw = (budget / elem_bytes.max(1)).max(config.warp_size);
    (raw / config.warp_size) * config.warp_size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_size_is_warp_multiple_and_fits() {
        let cfg = DeviceConfig::k40c();
        let tile = tile_size_for(&cfg, 8);
        assert_eq!(tile % cfg.warp_size, 0);
        assert!(tile * 8 <= cfg.shared_mem_per_sm / 2);
        assert!(tile >= cfg.warp_size);
    }

    #[test]
    fn tile_size_never_below_warp() {
        let cfg = DeviceConfig::small();
        let tile = tile_size_for(&cfg, 4096);
        assert_eq!(tile, cfg.warp_size);
    }
}
