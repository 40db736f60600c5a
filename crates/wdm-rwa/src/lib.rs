//! Dynamic routing and wavelength assignment (RWA) on top of the optimal
//! semilightpath router.
//!
//! The paper's introduction motivates semilightpaths with the online
//! circuit-switching problem: connection requests arrive over time, each
//! accepted connection occupies one wavelength on every link of its path
//! until released, and requests that cannot be routed with the remaining
//! resources are *blocked*. This crate turns that scenario into a library:
//!
//! * [`ConcurrentEngine`] — the one implementation of mutable
//!   (link, wavelength) resource state over a base
//!   [`wdm_core::WdmNetwork`]: provision/release, fibre cut and repair,
//!   runtime converter placement, blocked-cause classification and
//!   utilization accounting, shared by any number of threads through a
//!   sharded seqlock. Every request routes on one persistent auxiliary
//!   graph through an in-place busy mask instead of rebuilding it;
//! * [`ProvisioningEngine`] — the serial API: one [`ConcurrentHandle`]
//!   driven from one thread;
//! * [`SpecEngine`] — the executable specification the engine is checked
//!   against: plain data, rebuilding the routing structure per query;
//! * [`Policy`] — how a request is routed: the paper's optimal
//!   semilightpath, pure lightpath routing (no conversion), or the classic
//!   first-fit wavelength assignment baseline;
//! * [`workload`] — static and Poisson arrival/holding workload
//!   generators;
//! * [`simulate`] — an event-driven arrival/departure loop producing
//!   [`BlockingStats`].
//!
//! # Observability
//!
//! [`ConcurrentEngine::attach_metrics`] wires an engine into a
//! [`wdm_obs::MetricsRegistry`]: latency histograms
//! (`wdm_rwa_provision_latency_ns`, `wdm_rwa_release_latency_ns`,
//! `wdm_rwa_fail_link_latency_ns`), outcome counters
//! (`wdm_rwa_requests_total`, `wdm_rwa_accepted_total`,
//! `wdm_rwa_blocked_total{cause="no_path"|"capacity"}`,
//! `wdm_rwa_released_total`, `wdm_rwa_mask_flips_total`), occupancy
//! gauges (`wdm_rwa_active_connections`, `wdm_rwa_occupied_resources`,
//! `wdm_rwa_link_occupancy{link="i"}`), and per-request search-kernel
//! totals (`wdm_core_search_*_total`). A detached engine pays one
//! branch per operation; an attached one a few relaxed atomics.
//!
//! # Examples
//!
//! ```
//! use wdm_rwa::{Policy, ProvisioningEngine};
//! use wdm_core::{ConversionPolicy, WdmNetwork};
//! use wdm_graph::DiGraph;
//!
//! let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
//! let base = WdmNetwork::builder(g, 2)
//!     .link_wavelengths(0, [(0, 10), (1, 10)])
//!     .link_wavelengths(1, [(0, 10), (1, 10)])
//!     .uniform_conversion(ConversionPolicy::Free)
//!     .build()?;
//! let mut engine = ProvisioningEngine::new(&base);
//!
//! let c1 = engine.provision(0.into(), 2.into(), Policy::Optimal)?;
//! let c2 = engine.provision(0.into(), 2.into(), Policy::Optimal)?;
//! // Both wavelengths now busy end-to-end: the third request blocks.
//! assert!(engine.provision(0.into(), 2.into(), Policy::Optimal).is_err());
//! engine.release(c1)?;
//! assert!(engine.provision(0.into(), 2.into(), Policy::Optimal).is_ok());
//! # drop(c2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
mod engine;
mod metrics;
mod policy;
/// The rebuild-per-request executable specification ([`SpecEngine`]).
pub mod spec;
mod stats;
/// Synthetic request/workload generators (Poisson arrivals, hotspots,
/// failure scenarios).
pub mod workload;

pub use concurrent::{ConcurrentEngine, ConcurrentHandle, RaceInjection};
pub use engine::{ConnectionId, ProvisioningEngine, RoutingMode, RwaError};
pub use metrics::BlockCause;
pub use policy::Policy;
pub use spec::SpecEngine;
pub use stats::{simulate, BlockingStats};
