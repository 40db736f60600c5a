//! Differential test of the residual search kernel against independent
//! oracles.
//!
//! `ResidualState` answers every query with one masked Dijkstra over the
//! persistent `G_all`, driven by the monotone radix heap. Each answer here
//! is checked against a search that shares none of that machinery: the
//! Theorem-1 router (Fibonacci heap by default, binary heap for the
//! probes) on a freshly built `G_{s,t}` of the residual network obtained by
//! physically deleting the busy and cut resources. Instances mix every
//! conversion policy, zero-cost links and costs up to `2^40`, so ties and
//! the radix heap's high buckets both occur.
//!
//! The kernel is goal-directed by a free-network lower bound, so a wrong
//! bound shows only where the search has room to go astray: the second
//! property runs directed instances of 16–48 nodes with asymmetric link
//! costs and 40–90% of the resources busy, on sampled pairs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdm_core::{
    ConversionMatrix, ConversionPolicy, Cost, HeapKind, LiangShenRouter, ResidualState,
    SearchScratch, Semilightpath, Wavelength, WdmNetwork,
};
use wdm_graph::{DiGraph, LinkId, NodeId};

const BIG: u64 = 1 << 40;

/// A cost that is zero, small, or near `2^40`.
fn draw_cost(rng: &mut SmallRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => rng.gen_range(1..20),
        2 => rng.gen_range(1..1000),
        _ => BIG - rng.gen_range(0..1000u64),
    }
}

/// Every conversion policy, chosen per node.
fn draw_policy(rng: &mut SmallRng, k: usize) -> ConversionPolicy {
    match rng.gen_range(0..5) {
        0 => ConversionPolicy::Forbidden,
        1 => ConversionPolicy::Free,
        2 => ConversionPolicy::Uniform(Cost::new(draw_cost(rng))),
        3 => ConversionPolicy::Banded {
            radius: rng.gen_range(0..k),
            base: Cost::new(draw_cost(rng)),
            slope: Cost::new(rng.gen_range(0..3)),
        },
        _ => {
            let mut m = ConversionMatrix::forbidden(k);
            for p in 0..k {
                for q in (0..k).filter(|&q| q != p) {
                    if rng.gen_bool(0.6) {
                        m.set(
                            Wavelength::new(p),
                            Wavelength::new(q),
                            Cost::new(draw_cost(rng)),
                        );
                    }
                }
            }
            ConversionPolicy::Matrix(m)
        }
    }
}

fn instance(seed: u64, n: usize, k: usize) -> WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(n..=3 * n);
    let links: Vec<(usize, usize)> = (0..m)
        .map(|_| {
            let u = rng.gen_range(0..n);
            (u, (u + rng.gen_range(1..n)) % n)
        })
        .collect();
    let mut builder = WdmNetwork::builder(DiGraph::from_links(n, links), k);
    for link in 0..m {
        let mut entries: Vec<(usize, u64)> = Vec::new();
        for w in 0..k {
            if rng.gen_bool(0.7) {
                entries.push((w, draw_cost(&mut rng)));
            }
        }
        builder = builder.link_wavelengths(link, entries);
    }
    for v in 0..n {
        builder = builder.conversion(v, draw_policy(&mut rng, k));
    }
    builder.build().expect("valid instance")
}

fn route(net: &WdmNetwork, heap: HeapKind, s: NodeId, t: NodeId) -> Option<Semilightpath> {
    LiangShenRouter::with_heap(heap)
        .route(net, s, t)
        .expect("endpoints in range")
        .path
}

/// A path from `s` to `t` that is valid on `net` (contiguity,
/// availability, conversions, and recorded cost = recomputed cost).
fn assert_valid(p: &Semilightpath, net: &WdmNetwork, s: NodeId, t: NodeId, what: &str) {
    p.validate(net)
        .unwrap_or_else(|e| panic!("{what}: invalid path {p:?}: {e:?}"));
    assert_eq!(p.compute_cost(net), p.cost(), "{what}: recomputed cost");
    if let (Some(first), Some(last)) = (p.hops().first(), p.hops().last()) {
        assert_eq!(
            net.graph().link(first.link).tail(),
            s,
            "{what}: starts at s"
        );
        assert_eq!(net.graph().link(last.link).head(), t, "{what}: ends at t");
    } else {
        assert_eq!(s, t, "{what}: only s == t has an empty path");
    }
}

/// One instance with its busy and cut resources applied to a
/// `ResidualState`, and the physically restricted networks the oracles
/// route on.
struct Case {
    net: WdmNetwork,
    cut: Vec<LinkId>,
    busy: Vec<Vec<bool>>,
    state: ResidualState,
    /// The base minus every busy (and cut) resource.
    residual: WdmNetwork,
    /// The base minus the cut links.
    free_uncut: WdmNetwork,
}

fn case(seed: u64, n: usize, k: usize, busy_pct: u32, cut_count: usize) -> Case {
    let net = instance(seed, n, k);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let m = net.link_count();
    let cut: Vec<LinkId> = (0..cut_count.min(m))
        .map(|_| LinkId::new(rng.gen_range(0..m)))
        .collect();
    let busy: Vec<Vec<bool>> = (0..m)
        .map(|l| {
            (0..k)
                .map(|_| cut.contains(&LinkId::new(l)) || rng.gen_range(0..100u32) < busy_pct)
                .collect()
        })
        .collect();
    let mut state = ResidualState::new(&net);
    for (l, per_link) in busy.iter().enumerate() {
        for (w, _) in per_link.iter().enumerate().filter(|(_, &b)| b) {
            state.set_busy(LinkId::new(l), Wavelength::new(w), true);
        }
    }
    let residual = net.restrict(|l, w| !busy[l.index()][w.index()]);
    let free_uncut = net.restrict(|l, _| !cut.contains(&l));
    Case {
        net,
        cut,
        busy,
        state,
        residual,
        free_uncut,
    }
}

/// Checks every query of the residual kernel for `s → t` against the
/// oracles: the optimal route, both free-network probes with and without
/// the cut, and the route on each wavelength.
fn check_pair(
    c: &Case,
    scratch: &mut SearchScratch,
    s: NodeId,
    t: NodeId,
    what: &str,
) -> Result<(), TestCaseError> {
    let (net, state, k) = (&c.net, &c.state, c.net.k());
    let is_cut = |l: LinkId| c.cut.contains(&l);

    // Optimal route on the residual network: same cost and blocked
    // verdict as the Theorem-1 router on a rebuilt G_{s,t}, and a valid
    // path.
    let got = state.route_optimal(scratch, s, t);
    let want = route(&c.residual, HeapKind::Fibonacci, s, t);
    prop_assert_eq!(
        got.as_ref().map(Semilightpath::cost),
        want.as_ref().map(Semilightpath::cost),
        "{}: optimal cost",
        what
    );
    if let Some(p) = &got {
        assert_valid(p, &c.residual, s, t, what);
    }

    // Blocked-cause probes against binary-heap searches on the free
    // network with the cut links deleted.
    prop_assert_eq!(
        state.reachable_when_free(scratch, s, t, &[]),
        route(net, HeapKind::Binary, s, t).is_some(),
        "{}: reachable_when_free",
        what
    );
    prop_assert_eq!(
        state.reachable_when_free(scratch, s, t, &c.cut),
        route(&c.free_uncut, HeapKind::Binary, s, t).is_some(),
        "{}: reachable_when_free excluding the cut",
        what
    );
    let single_lambda = |w: usize, keep: &dyn Fn(LinkId) -> bool| {
        let only_w = net.restrict(|l, lam| lam.index() == w && keep(l));
        route(&only_w, HeapKind::Binary, s, t)
    };
    let any_lambda =
        |keep: &dyn Fn(LinkId) -> bool| s != t && (0..k).any(|w| single_lambda(w, keep).is_some());
    prop_assert_eq!(
        state.reachable_when_free_single_wavelength(scratch, s, t, &[]),
        any_lambda(&|_| true),
        "{}: single-λ probe",
        what
    );
    prop_assert_eq!(
        state.reachable_when_free_single_wavelength(scratch, s, t, &c.cut),
        any_lambda(&|l| !is_cut(l)),
        "{}: single-λ excluding probe",
        what
    );

    // Per-λ routes on the residual network.
    for w in 0..k {
        let lam = Wavelength::new(w);
        let got = state.route_single_wavelength(scratch, s, t, lam);
        let want = if s == t {
            None
        } else {
            single_lambda(w, &|l| !c.busy[l.index()][lam.index()])
        };
        prop_assert_eq!(
            got.as_ref().map(Semilightpath::cost),
            want.as_ref().map(Semilightpath::cost),
            "{}: λ{} route cost",
            what,
            w
        );
        if let Some(p) = &got {
            assert_valid(p, &c.residual, s, t, what);
            prop_assert!(p.hops().iter().all(|h| h.wavelength == lam));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn residual_kernel_matches_independent_oracles(
        seed in 0u64..1_000_000,
        n in 2usize..9,
        k in 1usize..5,
        busy_pct in 0u32..70,
        cut_count in 0usize..3,
    ) {
        let c = case(seed, n, k, busy_pct, cut_count);
        let mut scratch = SearchScratch::for_state(&c.state);
        for s in c.net.graph().nodes() {
            for t in c.net.graph().nodes() {
                check_pair(&c, &mut scratch, s, t, &format!("seed {seed} {s}->{t}"))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn guided_kernel_matches_oracles_on_larger_instances(
        seed in 0u64..1_000_000,
        n in 16usize..49,
        k in 1usize..5,
        busy_pct in 40u32..91,
        cut_count in 0usize..4,
    ) {
        let c = case(seed, n, k, busy_pct, cut_count);
        let mut scratch = SearchScratch::for_state(&c.state);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA57A);
        for _ in 0..32 {
            let s = NodeId::new(rng.gen_range(0..n));
            let t = NodeId::new(rng.gen_range(0..n));
            check_pair(&c, &mut scratch, s, t, &format!("seed {seed} n {n} {s}->{t}"))?;
        }
    }
}
