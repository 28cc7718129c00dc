//! # gpu-sim — a memory-traffic and cost model of the GPU
//!
//! The GPU LSM paper (Ashkiani et al., IPDPS 2018) was evaluated on an NVIDIA
//! Tesla K40c with CUDA.  This reproduction runs on CPUs, so this crate
//! models the two things the paper's results depend on:
//!
//! * **Memory traffic** — every kernel of the primitives and the LSM records
//!   the global-memory loads and stores it performs, and whether they are
//!   coalesced or scattered, in the device's [`MetricsRegistry`]
//!   ([`metrics`]).
//! * **A cost model** — [`CostModel`] ([`cost`]) turns that traffic into an
//!   estimated K40c time using the configured DRAM bandwidth and latency
//!   ([`DeviceConfig`]).
//!
//! Alongside them sit the wall-clock [`PhaseTimer`] ([`event`]), the
//! shared-memory tile sizing the primitives use ([`Device::preferred_tile`])
//! and the warp ballot the multisplit builds on ([`warp`]).
//!
//! The design goal is *shape preservation*: the relative costs of the GPU
//! LSM, the sorted-array baseline and the cuckoo hash table are governed by
//! how much data each one touches and in what pattern, which this model
//! captures, even though absolute throughput numbers are those of a CPU.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{AccessPattern, Device, DeviceConfig};
//!
//! let device = Device::new(DeviceConfig::k40c());
//! // A kernel streams 1 MiB in and out, then runs 4096 binary-search probes.
//! let metrics = device.metrics();
//! metrics.record_launch("sort_pass");
//! metrics.record_read("sort_pass", 1 << 20, AccessPattern::Coalesced);
//! metrics.record_write("sort_pass", 1 << 20, AccessPattern::Coalesced);
//! metrics.record_scattered_probes("search", 4096, 4);
//! assert_eq!(metrics.snapshot()["search"].scattered_transactions, 4096);
//!
//! // The cost model turns the recorded traffic into modelled device time.
//! let modelled = device.estimated_time();
//! assert!(modelled.total_seconds > 0.0);
//! device.reset_counters();
//! assert_eq!(device.estimated_time().total_seconds, 0.0);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod config;
pub mod cost;
pub mod device;
pub mod event;
pub mod metrics;
pub mod warp;

pub use config::DeviceConfig;
pub use cost::{CostEstimate, CostModel};
pub use device::Device;
pub use event::{PhaseStats, PhaseTimer};
pub use metrics::{AccessPattern, KernelMetricsSnapshot, MetricsRegistry};
pub use warp::{WarpOps, WARP_SIZE};
