//! Kernel-level memory-traffic metrics.
//!
//! Rather than instrumenting every element access (which would make the
//! simulation orders of magnitude slower than the algorithms it hosts), each
//! primitive *accounts analytically* for the global-memory traffic its kernel
//! performs — how many elements it reads and writes and whether the access
//! pattern is coalesced (streaming, neighbouring threads touch neighbouring
//! addresses) or scattered (random, e.g. binary-search probes).  The cost
//! model in [`crate::cost`] turns those counts into an estimated device time.
//!
//! All counters are lock-free atomics so kernels running across rayon worker
//! threads can record traffic concurrently.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// How a kernel touches global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Neighbouring threads access neighbouring addresses: the hardware
    /// coalesces a warp's accesses into a handful of wide transactions.
    Coalesced,
    /// Data-dependent / random accesses (binary search probes, hash probes):
    /// each access is its own transaction and is latency-bound.
    Scattered,
}

/// Traffic counters for a single named kernel.
#[derive(Debug, Default)]
struct KernelMetrics {
    /// Number of kernel launches recorded under this name.
    launches: AtomicU64,
    /// Bytes read from global memory with coalesced access.
    coalesced_read_bytes: AtomicU64,
    /// Bytes written to global memory with coalesced access.
    coalesced_write_bytes: AtomicU64,
    /// Bytes read from global memory with scattered access.
    scattered_read_bytes: AtomicU64,
    /// Bytes written to global memory with scattered access.
    scattered_write_bytes: AtomicU64,
    /// Number of scattered transactions (each pays latency).
    scattered_transactions: AtomicU64,
}

impl KernelMetrics {
    fn snapshot(&self) -> KernelMetricsSnapshot {
        KernelMetricsSnapshot {
            launches: self.launches.load(Ordering::Relaxed),
            coalesced_read_bytes: self.coalesced_read_bytes.load(Ordering::Relaxed),
            coalesced_write_bytes: self.coalesced_write_bytes.load(Ordering::Relaxed),
            scattered_read_bytes: self.scattered_read_bytes.load(Ordering::Relaxed),
            scattered_write_bytes: self.scattered_write_bytes.load(Ordering::Relaxed),
            scattered_transactions: self.scattered_transactions.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of one kernel's traffic counters, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMetricsSnapshot {
    /// Number of launches.
    pub launches: u64,
    /// Coalesced bytes read.
    pub coalesced_read_bytes: u64,
    /// Coalesced bytes written.
    pub coalesced_write_bytes: u64,
    /// Scattered bytes read.
    pub scattered_read_bytes: u64,
    /// Scattered bytes written.
    pub scattered_write_bytes: u64,
    /// Scattered transactions.
    pub scattered_transactions: u64,
}

impl KernelMetricsSnapshot {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.coalesced_read_bytes
            + self.coalesced_write_bytes
            + self.scattered_read_bytes
            + self.scattered_write_bytes
    }
}

/// Registry of per-kernel metrics, keyed by kernel name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    kernels: RwLock<BTreeMap<String, std::sync::Arc<KernelMetrics>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or create) the metrics entry for `kernel`.
    fn kernel(&self, kernel: &str) -> std::sync::Arc<KernelMetrics> {
        if let Some(m) = self.kernels.read().get(kernel) {
            return m.clone();
        }
        let mut w = self.kernels.write();
        w.entry(kernel.to_string())
            .or_insert_with(|| std::sync::Arc::new(KernelMetrics::default()))
            .clone()
    }

    /// Record a kernel launch.
    pub fn record_launch(&self, kernel: &str) {
        self.kernel(kernel).launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `bytes` read from global memory by `kernel` with the given
    /// access pattern.
    pub fn record_read(&self, kernel: &str, bytes: u64, pattern: AccessPattern) {
        let m = self.kernel(kernel);
        match pattern {
            AccessPattern::Coalesced => {
                m.coalesced_read_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            AccessPattern::Scattered => {
                m.scattered_read_bytes.fetch_add(bytes, Ordering::Relaxed);
                m.scattered_transactions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record `bytes` written to global memory by `kernel` with the given
    /// access pattern.
    pub fn record_write(&self, kernel: &str, bytes: u64, pattern: AccessPattern) {
        let m = self.kernel(kernel);
        match pattern {
            AccessPattern::Coalesced => {
                m.coalesced_write_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            AccessPattern::Scattered => {
                m.scattered_write_bytes.fetch_add(bytes, Ordering::Relaxed);
                m.scattered_transactions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record a number of scattered probe transactions of `bytes_each`
    /// (convenience for binary searches: `count` probes, each latency-bound).
    pub fn record_scattered_probes(&self, kernel: &str, count: u64, bytes_each: u64) {
        let m = self.kernel(kernel);
        m.scattered_read_bytes
            .fetch_add(count * bytes_each, Ordering::Relaxed);
        m.scattered_transactions.fetch_add(count, Ordering::Relaxed);
    }

    /// Record `count` single-block reads of `block_bytes` each (convenience
    /// for blocked Bloom-filter probes: every membership test touches
    /// exactly one cache-line-aligned block, which a warp of queries reads
    /// as wide coalesced transactions rather than per-bit scattered ones —
    /// the access pattern the blocked layout exists to buy).
    pub fn record_block_reads(&self, kernel: &str, count: u64, block_bytes: u64) {
        if count == 0 {
            return;
        }
        self.kernel(kernel)
            .coalesced_read_bytes
            .fetch_add(count * block_bytes, Ordering::Relaxed);
    }

    /// Snapshot all per-kernel counters (for reports).
    pub fn snapshot(&self) -> BTreeMap<String, KernelMetricsSnapshot> {
        self.kernels
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Aggregate snapshot over every kernel.
    pub fn total(&self) -> KernelMetricsSnapshot {
        let mut total = KernelMetricsSnapshot::default();
        for snap in self.snapshot().values() {
            total.launches += snap.launches;
            total.coalesced_read_bytes += snap.coalesced_read_bytes;
            total.coalesced_write_bytes += snap.coalesced_write_bytes;
            total.scattered_read_bytes += snap.scattered_read_bytes;
            total.scattered_write_bytes += snap.scattered_write_bytes;
            total.scattered_transactions += snap.scattered_transactions;
        }
        total
    }

    /// Reset every counter (useful between experiment phases).
    pub fn reset(&self) {
        self.kernels.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_accumulate() {
        let reg = MetricsRegistry::new();
        reg.record_read("sort", 1024, AccessPattern::Coalesced);
        reg.record_write("sort", 1024, AccessPattern::Coalesced);
        reg.record_read("lookup", 4, AccessPattern::Scattered);
        let snap = reg.snapshot();
        assert_eq!(snap["sort"].coalesced_read_bytes, 1024);
        assert_eq!(snap["sort"].coalesced_write_bytes, 1024);
        assert_eq!(snap["lookup"].scattered_read_bytes, 4);
        assert_eq!(snap["lookup"].scattered_transactions, 1);
    }

    #[test]
    fn total_aggregates_all_kernels() {
        let reg = MetricsRegistry::new();
        reg.record_read("a", 100, AccessPattern::Coalesced);
        reg.record_read("b", 200, AccessPattern::Scattered);
        reg.record_write("b", 50, AccessPattern::Scattered);
        let total = reg.total();
        assert_eq!(total.total_bytes(), 350);
        assert_eq!(total.scattered_transactions, 2);
    }

    #[test]
    fn scattered_probes_counts_transactions() {
        let reg = MetricsRegistry::new();
        reg.record_scattered_probes("binary_search", 24, 8);
        let snap = reg.snapshot();
        assert_eq!(snap["binary_search"].scattered_read_bytes, 192);
        assert_eq!(snap["binary_search"].scattered_transactions, 24);
    }

    #[test]
    fn block_reads_are_coalesced_not_scattered() {
        let reg = MetricsRegistry::new();
        reg.record_block_reads("filter_probe", 10, 64);
        reg.record_block_reads("filter_probe", 0, 64); // no-op
        let snap = reg.snapshot();
        assert_eq!(snap["filter_probe"].coalesced_read_bytes, 640);
        assert_eq!(snap["filter_probe"].scattered_transactions, 0);
    }

    #[test]
    fn launches_counted() {
        let reg = MetricsRegistry::new();
        reg.record_launch("merge");
        reg.record_launch("merge");
        assert_eq!(reg.snapshot()["merge"].launches, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        reg.record_read("a", 10, AccessPattern::Coalesced);
        reg.reset();
        assert!(reg.snapshot().is_empty());
        assert_eq!(reg.total().total_bytes(), 0);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let reg = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.record_read("k", 4, AccessPattern::Coalesced);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.snapshot()["k"].coalesced_read_bytes, 8 * 1000 * 4);
    }
}
