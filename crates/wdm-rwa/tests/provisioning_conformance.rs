//! Engine-vs-spec conformance suite.
//!
//! The production engine ([`wdm_rwa::ConcurrentEngine`], driven here
//! through one handle) routes every request over one persistent
//! auxiliary graph through an in-place busy mask; the reference
//! [`wdm_rwa::SpecEngine`] is plain data that reconstructs the same
//! structure from scratch per query and classifies blocked requests with
//! the legacy clone-and-rebuild router. The contract is
//! **bit-identical routing decisions**: same accept/block outcomes, same
//! connection ids, hop-for-hop identical paths, same blocked-cause
//! splits, totals and utilization — across arbitrary interleavings of
//! provision, release, fail_link, restore_link and set_converter, for
//! every policy, at one shard and at the automatic shard count.
//!
//! (In debug builds each provision additionally cross-checks the masked
//! answer's cost and blocked verdict against the legacy
//! clone-and-rebuild router, so this suite exercises that assertion on
//! random instances too.)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::WdmNetwork;
use wdm_graph::{topology, LinkId, NodeId};
use wdm_rwa::{ConcurrentEngine, ConcurrentHandle, Policy, SpecEngine};

fn instance(seed: u64, n: usize, k: usize, p: f64) -> WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = topology::random_sparse(n, n / 2, 4, &mut rng).expect("feasible");
    random_network(
        graph,
        &InstanceConfig {
            k,
            availability: Availability::Probability(p),
            link_cost: (1, 50),
            conversion: ConversionSpec::Uniform { lo: 1, hi: 4 },
        },
        &mut rng,
    )
    .expect("valid")
}

fn policy_of(idx: u8) -> Policy {
    match idx % 3 {
        0 => Policy::Optimal,
        1 => Policy::LightpathOnly,
        _ => Policy::FirstFit,
    }
}

/// Shard counts the production engine runs at: one global seqlock, and
/// the automatic `min(k, 8)`.
const SHARDS: [usize; 2] = [1, 0];

/// Asserts the engine and the spec agree on every aggregate.
fn same_aggregates(engine: &ConcurrentHandle, spec: &SpecEngine) -> Result<(), TestCaseError> {
    let e = engine.engine();
    prop_assert_eq!(e.totals(), spec.totals());
    prop_assert_eq!(e.blocked_by_cause(), spec.blocked_by_cause());
    prop_assert_eq!(e.active_count(), spec.active_count());
    prop_assert_eq!(e.utilization(), spec.utilization());
    prop_assert_eq!(e.failed_links(), spec.failed_links());
    Ok(())
}

/// Replays one op on the engine and the spec and asserts bit-identical
/// behaviour.
fn step(
    engine: &mut ConcurrentHandle,
    spec: &mut SpecEngine,
    live: &mut Vec<wdm_rwa::ConnectionId>,
    op: (u8, u64, u64),
    n: usize,
    m: usize,
    policy: Policy,
) -> Result<(), TestCaseError> {
    let (kind, a, b) = op;
    match kind {
        // Provision dominates the mix: that is the hot path under test.
        0..=4 => {
            let s = NodeId::new((a % n as u64) as usize);
            let t = NodeId::new((b % n as u64) as usize);
            let got = engine.provision(s, t, policy);
            let want = spec.provision(s, t, policy);
            prop_assert_eq!(&got, &want, "provision {} -> {}", s, t);
            if let Ok(id) = got {
                prop_assert_eq!(
                    engine.engine().path_of(id),
                    spec.path_of(id).cloned(),
                    "path of {} diverged",
                    id
                );
                live.push(id);
            }
        }
        5 | 6 => {
            if !live.is_empty() {
                let id = live.remove((a % live.len() as u64) as usize);
                prop_assert_eq!(engine.release(id), spec.release(id), "release {}", id);
            }
        }
        7 => {
            let link = LinkId::new((a % m as u64) as usize);
            let got = engine.fail_link(link, policy);
            let want = spec.fail_link(link, policy);
            prop_assert_eq!(&got, &want, "fail_link {}", link);
            // Update the live set: lost connections go away, restored
            // ones change id.
            for &(old, new) in &got {
                live.retain(|&c| c != old);
                if let Some(new) = new {
                    prop_assert_eq!(
                        engine.engine().path_of(new),
                        spec.path_of(new).cloned(),
                        "restored path of {} diverged",
                        new
                    );
                    live.push(new);
                }
            }
        }
        8 => {
            // Fibre repair: exercises both the real involution (when the
            // link is cut) and the double-restore no-op (when it isn't).
            let link = LinkId::new((a % m as u64) as usize);
            prop_assert_eq!(
                engine.restore_link(link),
                spec.restore_link(link),
                "restore_link {}",
                link
            );
        }
        _ => {
            // Runtime converter placement: a structural rebuild with the
            // busy state replayed and the blocked-cause memo invalidated.
            let node = NodeId::new((a % n as u64) as usize);
            let enabled = b % 2 == 0;
            prop_assert_eq!(
                engine.set_converter(node, enabled),
                spec.set_converter(node, enabled),
                "set_converter {} {}",
                node,
                enabled
            );
        }
    }
    same_aggregates(engine, spec)
}

/// Conformance pin for the retry-exhaustion outcome (required before
/// the control-plane daemon exposes `--sharded`): a bounded-retry
/// provision that exhausts its budget under injected validation
/// conflicts must surface [`wdm_rwa::RwaError::Contended`] — never a
/// fabricated `Blocked { .. }` — and must leave every engine total,
/// cause split, and resource untouched, because no verdict committed.
#[test]
fn sharded_retry_exhaustion_conforms() {
    use wdm_rwa::{concurrent::ConcurrentEngine, RaceInjection, RwaError};

    let net = instance(42, 8, 3, 0.7);
    let n = net.node_count();
    for budget in [0u64, 1, 5] {
        let conc =
            ConcurrentEngine::with_race_injection(&net, 2, RaceInjection::ForceValidationConflict);
        let mut h = conc.handle();
        for pair in 0..4u64 {
            let s = NodeId::new((pair % n as u64) as usize);
            let t = NodeId::new(((pair + 1) % n as u64) as usize);
            match h.provision_bounded(s, t, Policy::Optimal, budget) {
                Err(RwaError::Contended { conflicts, .. }) => {
                    assert!(conflicts >= budget, "{conflicts} < {budget}")
                }
                other => panic!("budget {budget}: expected Contended, got {other:?}"),
            }
        }
        assert_eq!(conc.totals(), (0, 0, 0), "budget {budget}");
        assert_eq!(conc.blocked_by_cause(), (0, 0), "budget {budget}");
        assert_eq!(conc.busy_count(), 0, "budget {budget}");
        assert_eq!(conc.active_count(), 0, "budget {budget}");
    }

    // And with the audited protocol the same bounded calls decide every
    // request (accept or genuinely block) without ever contending.
    let conc = ConcurrentEngine::new(&net, 2);
    let mut h = conc.handle();
    let mut decided = 0u64;
    for pair in 0..6u64 {
        let s = NodeId::new((pair % n as u64) as usize);
        let t = NodeId::new(((pair + 3) % n as u64) as usize);
        match h.provision_bounded(s, t, Policy::Optimal, 0) {
            Ok(_) | Err(RwaError::Blocked { .. }) => decided += 1,
            other => panic!("uncontended engine reported {other:?}"),
        }
    }
    let (accepted, blocked, _) = conc.totals();
    assert_eq!(accepted + blocked, decided);
    assert_eq!(conc.conflicts(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn masked_matches_rebuild_on_random_interleavings(
        seed in 0u64..10_000,
        n in 4usize..12,
        k in 2usize..5,
        policy_idx in 0u8..3,
        ops in prop::collection::vec((0u8..10, 0u64..1_000_000, 0u64..1_000_000), 1..30),
    ) {
        let net = instance(seed, n, k, 0.7);
        let m = net.link_count();
        let policy = policy_of(policy_idx);
        for shards in SHARDS {
            let mut engine = ConcurrentEngine::new(&net, shards).handle();
            let mut spec = SpecEngine::new(&net);
            let mut live = Vec::new();
            for &op in &ops {
                step(&mut engine, &mut spec, &mut live, op, n, m, policy)?;
            }
            // Drain everything: the engines must agree to the very end.
            for id in live {
                prop_assert_eq!(engine.release(id), spec.release(id));
            }
            // Cuts persist until repaired, so heal every fibre before
            // demanding an empty network.
            for link in spec.failed_links() {
                prop_assert!(engine.restore_link(link));
                prop_assert!(spec.restore_link(link));
            }
            prop_assert_eq!(engine.engine().utilization(), 0.0);
            same_aggregates(&engine, &spec)?;
        }
    }

    #[test]
    fn sparse_availability_blocking_agrees(
        seed in 0u64..10_000,
        n in 4usize..10,
        pairs in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000), 1..20),
    ) {
        // Low availability → plenty of blocked requests; the blocked
        // verdicts, their causes and the totals must still match exactly.
        let net = instance(seed, n, 2, 0.3);
        for shards in SHARDS {
            let mut engine = ConcurrentEngine::new(&net, shards).handle();
            let mut spec = SpecEngine::new(&net);
            for &(a, b) in &pairs {
                let s = NodeId::new((a % n as u64) as usize);
                let t = NodeId::new((b % n as u64) as usize);
                let got = engine.provision(s, t, Policy::Optimal);
                let want = spec.provision(s, t, Policy::Optimal);
                prop_assert_eq!(&got, &want, "{} -> {}", s, t);
                if let Ok(id) = got {
                    prop_assert_eq!(engine.engine().path_of(id), spec.path_of(id).cloned());
                }
                same_aggregates(&engine, &spec)?;
            }
        }
    }
}
