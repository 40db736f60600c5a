//! Event-driven provisioning simulation and blocking statistics.

use crate::engine::{ConnectionId, ProvisioningEngine};
use crate::policy::Policy;
use crate::workload::Request;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wdm_core::WdmNetwork;

/// Aggregate outcome of a provisioning simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockingStats {
    /// Requests offered.
    pub offered: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests blocked.
    pub blocked: u64,
    /// Total wavelength conversions across accepted paths.
    pub conversions: u64,
    /// Total links across accepted paths.
    pub links_used: u64,
    /// Peak simultaneous active connections.
    pub peak_active: usize,
    /// Blocked requests that no amount of free capacity would have
    /// routed (pair unroutable on the free network under the policy).
    pub blocked_no_path: u64,
    /// Blocked requests caused by occupancy: the free network routes
    /// the pair. Together with [`blocked_no_path`](Self::blocked_no_path)
    /// this sums to [`blocked`](Self::blocked).
    pub blocked_capacity: u64,
}

impl BlockingStats {
    /// Blocking probability `blocked / offered` (0 for an empty run).
    pub fn blocking_probability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.blocked as f64 / self.offered as f64
        }
    }

    /// Mean conversions per accepted connection.
    pub fn mean_conversions(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.conversions as f64 / self.accepted as f64
        }
    }

    /// Mean links (hops) per accepted connection.
    pub fn mean_links(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.links_used as f64 / self.accepted as f64
        }
    }

    /// Blocked totals split by cause: `(no_path, capacity)`.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        (self.blocked_no_path, self.blocked_capacity)
    }
}

/// Wall-clock-ordered departure event.
#[derive(Debug, PartialEq)]
struct Departure {
    at: f64,
    id: ConnectionId,
}

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let Some(by_time) = self.at.partial_cmp(&other.at) else {
            unreachable!("departure times are arrival + holding, never NaN")
        };
        by_time.then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Replays a workload against a fresh engine over `base` with `policy`;
/// see [`simulate_on`].
///
/// # Panics
///
/// Panics if the request list is not sorted by arrival.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wdm_rwa::{simulate, workload, Policy};
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let base = wdm_core::instance::random_network(
///     wdm_graph::topology::nsfnet(),
///     &wdm_core::instance::InstanceConfig::standard(8),
///     &mut rng,
/// ).expect("valid");
/// let reqs = workload::poisson_requests(base.node_count(), 200, 6.0, 1.0, &mut rng);
/// let stats = simulate(&base, &reqs, Policy::Optimal);
/// assert_eq!(stats.offered, 200);
/// assert_eq!(stats.accepted + stats.blocked, 200);
/// ```
pub fn simulate(base: &WdmNetwork, requests: &[Request], policy: Policy) -> BlockingStats {
    simulate_on(&mut ProvisioningEngine::new(base), requests, policy)
}

/// Replays a workload against a caller-prepared engine with `policy`:
/// the arrival/departure event loop behind [`simulate`] and the
/// campaign replicas.
///
/// Requests must be sorted by arrival time (as the [`crate::workload`]
/// generators produce them); departures are processed in (time, id)
/// order before an arrival at the same instant. The blocked-cause split
/// is read as a delta of the engine's counters, so an engine with
/// history is fine; connections this replay still holds at the end are
/// released, so the engine ends as it started when it started with no
/// active connections.
///
/// # Panics
///
/// Panics if the request list is not sorted by arrival.
pub fn simulate_on(
    engine: &mut ProvisioningEngine,
    requests: &[Request],
    policy: Policy,
) -> BlockingStats {
    let mut stats = BlockingStats::default();
    let (no_path0, capacity0) = engine.blocked_by_cause();
    let mut departures: BinaryHeap<Reverse<Departure>> = BinaryHeap::new();
    let mut last_arrival = f64::NEG_INFINITY;
    let release = |engine: &mut ProvisioningEngine, id| {
        if engine.release(id).is_err() {
            unreachable!("departing connections are still active");
        }
    };

    for req in requests {
        assert!(
            req.arrival >= last_arrival,
            "requests must be sorted by arrival"
        );
        last_arrival = req.arrival;
        // Process departures up to this arrival.
        while let Some(Reverse(dep)) = departures.peek() {
            if dep.at <= req.arrival {
                let Some(Reverse(dep)) = departures.pop() else {
                    unreachable!("peek returned an entry")
                };
                release(engine, dep.id);
            } else {
                break;
            }
        }
        stats.offered += 1;
        match engine.provision(req.s, req.t, policy) {
            Ok(id) => {
                stats.accepted += 1;
                let Some(path) = engine.path_of(id) else {
                    unreachable!("provision returned this id moments ago")
                };
                stats.conversions += path.conversion_count() as u64;
                stats.links_used += path.len() as u64;
                // An infinite holding time departs after every arrival.
                departures.push(Reverse(Departure {
                    at: req.arrival + req.holding,
                    id,
                }));
                stats.peak_active = stats.peak_active.max(engine.active_count());
            }
            Err(_) => {
                stats.blocked += 1;
            }
        }
    }
    while let Some(Reverse(dep)) = departures.pop() {
        release(engine, dep.id);
    }
    let (no_path, capacity) = engine.blocked_by_cause();
    stats.blocked_no_path = no_path - no_path0;
    stats.blocked_capacity = capacity - capacity0;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{poisson_requests, static_requests};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
    use wdm_graph::topology;

    fn base(k: usize) -> WdmNetwork {
        let mut rng = SmallRng::seed_from_u64(77);
        random_network(
            topology::nsfnet(),
            &InstanceConfig {
                k,
                availability: Availability::Full,
                link_cost: (10, 10),
                conversion: ConversionSpec::Uniform { lo: 1, hi: 1 },
            },
            &mut rng,
        )
        .expect("valid")
    }

    #[test]
    fn static_workload_eventually_blocks() {
        let mut rng = SmallRng::seed_from_u64(8);
        let net = base(2);
        let reqs = static_requests(net.node_count(), 100, &mut rng);
        let stats = simulate(&net, &reqs, Policy::Optimal);
        assert_eq!(stats.offered, 100);
        assert!(
            stats.blocked > 0,
            "2 wavelengths cannot carry 100 static circuits"
        );
        assert_eq!(stats.accepted + stats.blocked, stats.offered);
        assert!(stats.peak_active as u64 <= stats.accepted);
    }

    #[test]
    fn dynamic_workload_blocks_less_than_static() {
        let mut rng = SmallRng::seed_from_u64(9);
        let net = base(4);
        let n = net.node_count();
        let static_reqs = static_requests(n, 150, &mut rng);
        let dynamic_reqs = poisson_requests(n, 150, 4.0, 1.0, &mut rng);
        let s1 = simulate(&net, &static_reqs, Policy::Optimal);
        let s2 = simulate(&net, &dynamic_reqs, Policy::Optimal);
        assert!(
            s2.blocking_probability() < s1.blocking_probability(),
            "departures free capacity: {} vs {}",
            s2.blocking_probability(),
            s1.blocking_probability()
        );
    }

    #[test]
    fn optimal_policy_blocks_no_more_than_first_fit() {
        // First-fit cannot convert wavelengths, so on identical arrivals
        // the optimal policy accepts at least roughly as many. (Not a
        // theorem under resource contention — greedy acceptance can
        // occasionally hurt — but holds on this seeded workload and
        // documents the expected trend.)
        let mut rng = SmallRng::seed_from_u64(10);
        let net = {
            let mut rng2 = SmallRng::seed_from_u64(99);
            random_network(
                topology::nsfnet(),
                &InstanceConfig {
                    k: 6,
                    availability: Availability::Probability(0.6),
                    link_cost: (10, 10),
                    conversion: ConversionSpec::Uniform { lo: 1, hi: 1 },
                },
                &mut rng2,
            )
            .expect("valid")
        };
        let reqs = poisson_requests(net.node_count(), 300, 8.0, 1.0, &mut rng);
        let opt = simulate(&net, &reqs, Policy::Optimal);
        let ff = simulate(&net, &reqs, Policy::FirstFit);
        assert!(
            opt.blocking_probability() <= ff.blocking_probability() + 0.02,
            "optimal {} vs first-fit {}",
            opt.blocking_probability(),
            ff.blocking_probability()
        );
    }

    #[test]
    fn blocked_cause_split_sums_and_mean_links_averages() {
        let mut rng = SmallRng::seed_from_u64(8);
        let net = base(2);
        let reqs = static_requests(net.node_count(), 100, &mut rng);
        let stats = simulate(&net, &reqs, Policy::Optimal);
        assert!(stats.blocked > 0);
        assert_eq!(
            stats.blocked_no_path + stats.blocked_capacity,
            stats.blocked,
            "cause split must cover every block"
        );
        assert_eq!(
            stats.blocked_by_cause(),
            (stats.blocked_no_path, stats.blocked_capacity)
        );
        // NSFNET with full availability is strongly connected: every
        // block is a capacity block.
        assert_eq!(stats.blocked_no_path, 0);
        // Accepted paths each use at least one link.
        assert!(stats.mean_links() >= 1.0);
        assert!(
            (stats.mean_links() - stats.links_used as f64 / stats.accepted as f64).abs() < 1e-12
        );
    }

    #[test]
    fn zero_requests_zero_stats() {
        let net = base(2);
        let stats = simulate(&net, &[], Policy::Optimal);
        assert_eq!(stats, BlockingStats::default());
        assert_eq!(stats.blocking_probability(), 0.0);
        assert_eq!(stats.mean_conversions(), 0.0);
    }
}
