//! Parameter-sweep descriptors shared by the experiment harness.
//!
//! The paper sweeps batch sizes from 2^15 to 2^27 (Table II) and 2^16 to
//! 2^24 (Table III); running those sizes on a CPU-hosted simulation is
//! possible but slow, so every experiment accepts a *scale* that shifts the
//! whole sweep down while preserving the ratios between `b` and `n` — which
//! is what the shapes in the paper's tables depend on.

/// Configuration of one experiment sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Total number of elements `n` (paper: 2^27 for Table II, 2^24 for
    /// Tables III/IV).
    pub total_elements: usize,
    /// Batch sizes `b` to sweep.
    pub batch_sizes: Vec<usize>,
    /// Seed for workload generation.
    pub seed: u64,
}

impl SweepConfig {
    /// Number of batches (`n / b`) for a given batch size.
    pub fn num_batches(&self, batch_size: usize) -> usize {
        self.total_elements / batch_size
    }
}

/// The paper's Table II batch sizes: 2^15 … 2^27.
pub fn paper_batch_sizes() -> Vec<usize> {
    (15..=27).map(|p| 1usize << p).collect()
}

/// A scaled sweep: batch sizes 2^(15−shift) … 2^(27−shift), clamped below at
/// 2^6, with `n` = 2^(27−shift).  `shift = 0` reproduces the paper exactly.
pub fn scaled_batch_sizes(shift: u32) -> SweepConfig {
    let hi = 27u32.saturating_sub(shift).max(7);
    let lo = 15u32.saturating_sub(shift).max(6);
    SweepConfig {
        total_elements: 1usize << hi,
        batch_sizes: (lo..=hi).map(|p| 1usize << p).collect(),
        seed: 0xC0FFEE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_table_ii() {
        let sizes = paper_batch_sizes();
        assert_eq!(sizes.first(), Some(&(1 << 15)));
        assert_eq!(sizes.last(), Some(&(1 << 27)));
        assert_eq!(sizes.len(), 13);
    }

    #[test]
    fn unscaled_sweep_is_the_paper_sweep() {
        let cfg = scaled_batch_sizes(0);
        assert_eq!(cfg.total_elements, 1 << 27);
        assert_eq!(cfg.batch_sizes, paper_batch_sizes());
    }

    #[test]
    fn scaled_sweep_preserves_ratios() {
        let cfg = scaled_batch_sizes(8);
        assert_eq!(cfg.total_elements, 1 << 19);
        assert_eq!(cfg.batch_sizes.first(), Some(&(1 << 7)));
        assert_eq!(cfg.batch_sizes.last(), Some(&(1 << 19)));
        // The ratio n / b spans the same range as the paper's sweep.
        assert_eq!(cfg.num_batches(*cfg.batch_sizes.first().unwrap()), 1 << 12);
        assert_eq!(cfg.num_batches(*cfg.batch_sizes.last().unwrap()), 1);
    }

    #[test]
    fn extreme_shift_is_clamped() {
        let cfg = scaled_batch_sizes(30);
        assert!(cfg.total_elements >= 1 << 7);
        assert!(!cfg.batch_sizes.is_empty());
        assert!(cfg.batch_sizes.iter().all(|&b| b >= 1 << 6));
    }

    #[test]
    fn num_batches_divides() {
        let cfg = scaled_batch_sizes(10);
        for &b in &cfg.batch_sizes {
            assert_eq!(cfg.num_batches(b) * b, cfg.total_elements);
        }
    }
}
