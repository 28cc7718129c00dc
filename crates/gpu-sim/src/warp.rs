//! Warp-wide cooperative primitives.
//!
//! NVIDIA GPUs execute threads in SIMD groups of 32 ("warps") and expose
//! fast intra-warp communication such as `__ballot`.  The two-bucket
//! multisplit (reference \[20\]) builds on ballot + population count, which
//! is all this module provides.
//!
//! Here a *warp* is modelled as a group of `WARP_SIZE` lanes whose per-lane
//! values are materialised in small stack arrays; the cooperative operations
//! are then ordinary bit manipulation.  This keeps the lockstep semantics
//! (every lane sees the same ballot result) without simulating divergence.

/// Number of lanes in a warp on all modelled devices.
pub const WARP_SIZE: usize = 32;

/// Warp-wide operations over a group of at most [`WARP_SIZE`] lanes.
///
/// Lanes beyond the provided slice length behave as inactive (they contribute
/// `0`/`false`), matching how a partially filled warp behaves under a
/// predicated ballot.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarpOps;

impl WarpOps {
    /// `__ballot`: a bitmask with bit `i` set iff lane `i`'s predicate holds.
    pub fn ballot(predicates: &[bool]) -> u32 {
        debug_assert!(predicates.len() <= WARP_SIZE);
        predicates.iter().enumerate().fold(
            0u32,
            |mask, (lane, &p)| if p { mask | (1 << lane) } else { mask },
        )
    }

    /// Population count of a ballot mask restricted to lanes strictly below
    /// `lane` — the classic "rank within warp" idiom used by multisplit:
    /// a lane's output offset is the number of earlier lanes whose predicate
    /// also held.
    pub fn rank_below(ballot: u32, lane: usize) -> u32 {
        debug_assert!(lane <= WARP_SIZE);
        let mask = if lane == 0 { 0 } else { (1u64 << lane) - 1 } as u32;
        (ballot & mask).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_sets_expected_bits() {
        let preds = [true, false, true, true];
        assert_eq!(WarpOps::ballot(&preds), 0b1101);
    }

    #[test]
    fn ballot_full_warp() {
        let preds = [true; WARP_SIZE];
        assert_eq!(WarpOps::ballot(&preds), u32::MAX);
    }

    #[test]
    fn rank_below_counts_earlier_voters() {
        let ballot = 0b1011_0101u32;
        assert_eq!(WarpOps::rank_below(ballot, 0), 0);
        assert_eq!(WarpOps::rank_below(ballot, 1), 1);
        assert_eq!(WarpOps::rank_below(ballot, 3), 2);
        assert_eq!(WarpOps::rank_below(ballot, 8), 5);
        assert_eq!(WarpOps::rank_below(ballot, 32), 5);
    }

    #[test]
    fn rank_consistent_with_ballot() {
        // Property-style check: rank_below(ballot, lane) equals the number of
        // true predicates among lanes < lane.
        let preds: Vec<bool> = (0..WARP_SIZE).map(|i| i % 3 == 0).collect();
        let ballot = WarpOps::ballot(&preds);
        for lane in 0..WARP_SIZE {
            let expected = preds[..lane].iter().filter(|&&p| p).count() as u32;
            assert_eq!(WarpOps::rank_below(ballot, lane), expected);
        }
    }
}
