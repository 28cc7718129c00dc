//! Seeded input generation, order statistics and the metric report.

use std::time::Instant;

/// SplitMix64: a tiny, fast, seedable generator.  Each workload derives
/// independent streams from the run seed, so inputs depend on `--seed` only.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n <= 2^32`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n <= 1 << 32);
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform over the full 31-bit key domain.
    pub fn key(&mut self) -> u32 {
        (self.next_u64() >> 33) as u32
    }

    pub fn value(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(theta) ranks over `0..n` (Gray et al.'s method, as in YCSB).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Latency samples in a log-linear histogram of nanoseconds: 1024
/// sub-buckets per power of two, so every quantile is exact to 0.1%, and
/// the memory stays fixed however many samples a run takes (it would
/// otherwise show in `peak_rss_mib`).
#[derive(Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum_us: f64,
}

const SUB_BITS: u32 = 10;
const MAX_SHIFT: u32 = 31;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((MAX_SHIFT as usize) + 2) << SUB_BITS],
            n: 0,
            sum_us: 0.0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros() - SUB_BITS).min(MAX_SHIFT);
        let sub = ((ns >> shift) as usize).min((2 << SUB_BITS) - 1) - (1 << SUB_BITS);
        ((shift as usize + 1) << SUB_BITS) + sub
    }

    /// Bucket midpoint, in microseconds.
    fn value_us(i: usize) -> f64 {
        if i < 1 << SUB_BITS {
            return i as f64 / 1e3;
        }
        let shift = (i >> SUB_BITS) - 1;
        let low = ((1 << SUB_BITS) + (i & ((1 << SUB_BITS) - 1))) << shift;
        (low as f64 + (1u64 << shift) as f64 / 2.0) / 1e3
    }

    pub fn push(&mut self, us: f64) {
        self.counts[Self::index((us * 1e3).max(0.0) as u64)] += 1;
        self.n += 1;
        self.sum_us += us;
    }

    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Nearest-rank quantile (`p` in `(0, 1]`) and the bucket it fell in.
    fn quantile_at(&self, p: f64) -> (f64, usize) {
        if self.n == 0 {
            return (0.0, 0);
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (Self::value_us(i), i);
            }
        }
        unreachable!("rank is at most the sample count")
    }

    pub fn median(&self) -> f64 {
        self.quantile_at(0.5).0
    }
}

/// Median and a fixed tail percentile of a latency sample, with the number
/// of samples beyond the tail so the reader can tell whether it is backed.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: u32,
    pub samples: u64,
    pub beyond: u64,
}

impl Latency {
    pub fn of(h: &Hist, tail_pct: u32) -> Latency {
        let (tail, bucket) = h.quantile_at(f64::from(tail_pct) / 100.0);
        Latency {
            p50: h.median(),
            tail,
            tail_pct,
            samples: h.n,
            beyond: h.counts.iter().skip(bucket + 1).sum(),
        }
    }

    /// One human-readable line naming the percentile and its backing.
    pub fn describe(&self, what: &str) -> String {
        let warn = if self.beyond < 10 {
            "  WARNING: fewer than 10 samples beyond the tail"
        } else {
            ""
        };
        format!(
            "info {what}: p50 {:.3} us, p{} {:.3} us, {} samples, {} beyond the tail{warn}",
            self.p50, self.tail_pct, self.tail, self.samples, self.beyond
        )
    }
}

/// Lower median of a handful of values (0 when there are none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// Elapsed microseconds since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Report {
    pub entries: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How long a workload runs its timed loop.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Keep issuing rounds until this much wall time has passed.
    Seconds(f64),
    /// Run exactly this many rounds (the determinism self-test).
    Rounds(u64),
}

impl Budget {
    /// Segment `i` of `n`'s share of the budget.
    pub fn share(&self, i: u64, n: u64) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s / n as f64),
            Budget::Rounds(r) => Budget::Rounds(r / n + u64::from(i < r % n)),
        }
    }

    pub fn more(&self, rounds: u64, started: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => rounds < n,
        }
    }
}

/// A 64-bit FNV-1a digest, used to show that a seed changes the inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_track_exact_ranks_to_a_tenth_of_a_percent() {
        let mut rng = Rng::new(7, 0);
        let mut h = Hist::default();
        let mut exact = Vec::new();
        for _ in 0..50_000 {
            // Log-uniform from 0.1 us to 10 s.
            let us = 0.1 * 10f64.powf(8.0 * rng.unit());
            h.push(us);
            exact.push(us);
        }
        exact.sort_by(f64::total_cmp);
        for p in [0.5, 0.9, 0.95, 0.99] {
            let want = exact[(p * exact.len() as f64).ceil() as usize - 1];
            let got = h.quantile_at(p).0;
            assert!(
                (got - want).abs() <= want * 1e-3 + 1e-3,
                "p{p}: {got} vs {want}"
            );
        }
        assert_eq!(h.median(), h.quantile_at(0.5).0);
        let lat = Latency::of(&h, 99);
        assert_eq!(lat.samples, 50_000);
        assert!((490..=500).contains(&lat.beyond), "{}", lat.beyond);
    }

    #[test]
    fn budget_shares_add_up() {
        let total: u64 = (0..8)
            .map(|i| match Budget::Rounds(3001).share(i, 8) {
                Budget::Rounds(r) => r,
                Budget::Seconds(_) => unreachable!(),
            })
            .sum();
        assert_eq!(total, 3001);
    }

    #[test]
    fn zipf_ranks_stay_in_range_and_favour_the_head() {
        let z = Zipf::new(1 << 18, 0.99);
        let mut rng = Rng::new(3, 0);
        let draws: Vec<u64> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1 << 18));
        let head = draws.iter().filter(|&&r| r < 100).count();
        assert!(head > 30_000, "top 100 ranks drew {head}");
    }

    #[test]
    fn median_of_a_few_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
