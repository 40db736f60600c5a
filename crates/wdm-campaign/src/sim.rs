//! One Monte-Carlo replica: Poisson arrivals with exponential holding
//! times, replayed through [`wdm_rwa::simulate_on`].

use rand::rngs::SmallRng;
use wdm_core::WdmNetwork;
use wdm_graph::NodeId;
use wdm_rwa::{simulate_on, workload, Policy, ProvisioningEngine};

/// Counts from one replica (or a sum over replicas — see
/// [`ReplicaStats::add`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Requests offered.
    pub requests: u64,
    /// Requests provisioned.
    pub accepted: u64,
    /// Requests blocked (`no_path + capacity`).
    pub blocked: u64,
    /// Blocked because the pair is unroutable even on the free network.
    pub no_path: u64,
    /// Blocked by current occupancy.
    pub capacity: u64,
}

impl ReplicaStats {
    /// Empirical blocking probability (0 when nothing was offered).
    pub fn blocking(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.blocked as f64 / self.requests as f64
        }
    }

    /// Accumulates another replica's counts into this one.
    pub fn add(&mut self, other: &ReplicaStats) {
        self.requests += other.requests;
        self.accepted += other.accepted;
        self.blocked += other.blocked;
        self.no_path += other.no_path;
        self.capacity += other.capacity;
    }
}

/// Runs one replica on a fresh engine over `net`, with free converters
/// enabled at `converters` through the engine's *runtime* placement
/// path ([`ProvisioningEngine::set_converter`]) — the same path the
/// greedy placer exercises.
///
/// `load` is the offered load in Erlangs with mean holding time 1; the
/// replica draws `requests` Poisson arrivals from `rng` and replays
/// them through [`simulate_on`]. Deterministic in
/// `(net, converters, load, requests, policy, rng state)`.
pub fn run_replica(
    net: &WdmNetwork,
    converters: &[NodeId],
    load: f64,
    requests: usize,
    policy: Policy,
    rng: &mut SmallRng,
) -> ReplicaStats {
    let mut engine = ProvisioningEngine::new(net);
    for &v in converters {
        match engine.set_converter(v, true) {
            Ok(_) => {}
            Err(e) => unreachable!("converter nodes come from the same network: {e}"),
        }
    }
    run_replica_on(&mut engine, load, requests, policy, rng)
}

/// As [`run_replica`], but drives a caller-prepared engine (counters
/// are read as deltas, so an engine with history is fine as long as no
/// connections are active when the replica starts; the replica releases
/// what it still holds at the end).
pub fn run_replica_on(
    engine: &mut ProvisioningEngine,
    load: f64,
    requests: usize,
    policy: Policy,
    rng: &mut SmallRng,
) -> ReplicaStats {
    let n = engine.base().node_count();
    assert!(n >= 2, "campaign instances need at least two nodes");
    let trace = workload::poisson_requests(n, requests, load, 1.0, rng);
    let stats = simulate_on(engine, &trace, policy);
    ReplicaStats {
        requests: stats.offered,
        accepted: stats.accepted,
        blocked: stats.blocked,
        no_path: stats.blocked_no_path,
        capacity: stats.blocked_capacity,
    }
}
