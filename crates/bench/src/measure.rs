//! Rate and timing helpers shared by every experiment.
//!
//! The paper reports element and query rates in "M elements/s" and
//! summarises sweeps with *harmonic* means (Table II/III), which weight each
//! configuration by the time it takes rather than by its rate — the right
//! mean for "how long does a fixed amount of work take on average".

use std::time::{Duration, Instant};

use gpu_sim::Device;

/// Minimum / maximum / harmonic-mean statistics of a set of rates,
/// the summary the paper reports per batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateStats {
    /// Smallest observed rate.
    pub min: f64,
    /// Largest observed rate.
    pub max: f64,
    /// Harmonic mean of all observed rates.
    pub harmonic_mean: f64,
    /// Number of observations.
    pub count: usize,
}

impl RateStats {
    /// Summarise a set of rates.  Returns zeros for an empty slice.
    pub fn from_rates(rates: &[f64]) -> Self {
        if rates.is_empty() {
            return RateStats {
                min: 0.0,
                max: 0.0,
                harmonic_mean: 0.0,
                count: 0,
            };
        }
        RateStats {
            min: rates.iter().copied().fold(f64::INFINITY, f64::min),
            max: rates.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            harmonic_mean: harmonic_mean(rates),
            count: rates.len(),
        }
    }
}

/// Harmonic mean of a set of rates (0 if empty or if any rate is 0).
pub fn harmonic_mean(rates: &[f64]) -> f64 {
    if rates.is_empty() || rates.iter().any(|&r| r <= 0.0) {
        return 0.0;
    }
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// Time a closure once, returning its result and the elapsed wall-clock time.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Measure a closure's *modelled device time* in seconds: the growth of the
/// device's estimated time (cost model applied to the recorded memory
/// traffic) across the call.
///
/// Unlike wall-clock time this is a pure function of the traffic the
/// operation records, so it is deterministic and immune to host load —
/// which is why the shape tests assert on it (see
/// `tests/experiment_shapes.rs`).  Traffic recorded by *other* threads
/// touching the same device during `f` would be attributed to `f`, so
/// callers measure on a device they exclusively own (every experiment
/// creates its own).
pub fn modelled_time_once<R>(device: &Device, f: impl FnOnce() -> R) -> (R, f64) {
    let before = device.estimated_time().total_seconds;
    let result = f();
    (result, device.estimated_time().total_seconds - before)
}

/// Convert an element count and modelled seconds into "M elements/s".
pub fn rate_m_from_seconds(elements: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::INFINITY;
    }
    elements as f64 / seconds / 1.0e6
}

/// Convert an element count and duration into "M elements/s".
pub fn elements_per_sec_m(elements: usize, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    elements as f64 / elapsed.as_secs_f64() / 1.0e6
}

/// Convert a query count and duration into "M queries/s" (same formula,
/// kept separate for readability at call sites).
pub fn queries_per_sec_m(queries: usize, elapsed: Duration) -> f64 {
    elements_per_sec_m(queries, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::AccessPattern;

    #[test]
    fn harmonic_mean_matches_hand_computation() {
        // HM of 2 and 6 is 3.
        assert!((harmonic_mean(&[2.0, 6.0]) - 3.0).abs() < 1e-12);
        assert!((harmonic_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_is_dominated_by_slow_rates() {
        let hm = harmonic_mean(&[1.0, 1000.0]);
        assert!(hm < 2.0);
    }

    #[test]
    fn harmonic_mean_edge_cases() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert_eq!(harmonic_mean(&[0.0, 5.0]), 0.0);
    }

    #[test]
    fn rate_stats_summarise_min_max_mean() {
        let stats = RateStats::from_rates(&[10.0, 20.0, 40.0]);
        assert_eq!(stats.min, 10.0);
        assert_eq!(stats.max, 40.0);
        assert_eq!(stats.count, 3);
        assert!(stats.harmonic_mean > 10.0 && stats.harmonic_mean < 40.0);
        let empty = RateStats::from_rates(&[]);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn rate_conversion() {
        let rate = elements_per_sec_m(2_000_000, Duration::from_secs(1));
        assert!((rate - 2.0).abs() < 1e-9);
        assert!(elements_per_sec_m(1, Duration::ZERO).is_infinite());
        assert_eq!(
            queries_per_sec_m(500_000, Duration::from_millis(500)),
            elements_per_sec_m(500_000, Duration::from_millis(500))
        );
    }

    #[test]
    fn modelled_time_tracks_recorded_traffic_only() {
        let device = Device::new(gpu_sim::DeviceConfig::small());
        let ((), idle) = modelled_time_once(&device, || {
            std::thread::sleep(Duration::from_millis(2)); // no device traffic
        });
        assert_eq!(idle, 0.0, "wall time without traffic is not modelled time");
        // One coalesced read and write of 2^12 eight-byte elements.
        let pass = || {
            let bytes = 8 << 12;
            device
                .metrics()
                .record_read("m", bytes, AccessPattern::Coalesced);
            device
                .metrics()
                .record_write("m", bytes, AccessPattern::Coalesced);
            1usize << 12
        };
        let (sum1, t1) = modelled_time_once(&device, pass);
        let (sum2, t2) = modelled_time_once(&device, || pass() + pass());
        assert_eq!(sum1, 1 << 12);
        assert_eq!(sum2, 2 << 12);
        assert!(t1 > 0.0);
        assert!(
            (t2 / t1 - 2.0).abs() < 1e-9,
            "twice the traffic, twice the time"
        );
        assert!(rate_m_from_seconds(1_000_000, 1.0) == 1.0);
        assert!(rate_m_from_seconds(5, 0.0).is_infinite());
    }

    #[test]
    fn time_once_returns_result_and_duration() {
        let (value, elapsed) = time_once(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert!(elapsed >= Duration::from_millis(1));
    }
}
