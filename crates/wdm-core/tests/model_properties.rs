//! Property-based tests of the model layer: cost algebra, wavelength-set
//! semantics against a reference model, conversion-policy laws,
//! path-validation soundness under mutation, and the Theorem-1
//! construction verifier (`wdm_core::verify`).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use wdm_core::csr::EdgeRole;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::verify::{
    verify_mask_involution, verify_network, verify_potential, verify_view, Check, ModelView,
};
use wdm_core::{
    paper_example, AuxNodeKind, AuxiliaryGraph, ConversionMatrix, ConversionPolicy, Cost, Hop,
    Semilightpath, Wavelength, WavelengthSet, WdmNetwork,
};
use wdm_graph::{topology, DiGraph, LinkId};

fn cost_strategy() -> impl Strategy<Value = Cost> {
    prop_oneof![
        8 => (0u64..1_000_000).prop_map(Cost::new),
        1 => Just(Cost::INFINITY),
    ]
}

proptest! {
    #[test]
    fn cost_addition_is_commutative_and_associative(
        a in cost_strategy(),
        b in cost_strategy(),
        c in cost_strategy(),
    ) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + Cost::ZERO, a);
    }

    #[test]
    fn cost_addition_is_monotone(
        a in cost_strategy(),
        b in cost_strategy(),
        c in cost_strategy(),
    ) {
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
    }

    #[test]
    fn infinity_is_absorbing(a in cost_strategy()) {
        prop_assert_eq!(a + Cost::INFINITY, Cost::INFINITY);
        prop_assert!(a <= Cost::INFINITY);
    }

    #[test]
    fn wavelength_set_matches_btreeset_model(
        ops in prop::collection::vec((0usize..100, prop::bool::ANY), 0..200),
    ) {
        let mut set = WavelengthSet::empty(100);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (idx, insert) in ops {
            let w = Wavelength::new(idx);
            if insert {
                prop_assert_eq!(set.insert(w), model.insert(idx));
            } else {
                prop_assert_eq!(set.remove(w), model.remove(&idx));
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let got: Vec<usize> = set.iter().map(|w| w.index()).collect();
        let want: Vec<usize> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn set_algebra_laws(
        a in prop::collection::btree_set(0usize..64, 0..40),
        b in prop::collection::btree_set(0usize..64, 0..40),
    ) {
        let sa = WavelengthSet::from_indices(64, a.iter().copied());
        let sb = WavelengthSet::from_indices(64, b.iter().copied());
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        // |A∪B| + |A∩B| = |A| + |B|
        prop_assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
        for i in 0..64 {
            let w = Wavelength::new(i);
            prop_assert_eq!(union.contains(w), a.contains(&i) || b.contains(&i));
            prop_assert_eq!(inter.contains(w), a.contains(&i) && b.contains(&i));
        }
    }

    #[test]
    fn conversion_policies_have_zero_diagonal(
        kind in 0u8..4,
        cost in 0u64..100,
        radius in 0usize..8,
        p in 0usize..8,
        q in 0usize..8,
    ) {
        let policy = match kind {
            0 => ConversionPolicy::Forbidden,
            1 => ConversionPolicy::Free,
            2 => ConversionPolicy::Uniform(Cost::new(cost)),
            _ => ConversionPolicy::Banded {
                radius,
                base: Cost::new(cost),
                slope: Cost::new(1),
            },
        };
        let (wp, wq) = (Wavelength::new(p), Wavelength::new(q));
        prop_assert_eq!(policy.cost(wp, wp), Cost::ZERO);
        // allows() agrees with finiteness of cost().
        prop_assert_eq!(policy.allows(wp, wq), policy.cost(wp, wq).is_finite());
    }

    #[test]
    fn banded_policy_is_symmetric_in_distance(
        radius in 0usize..6,
        base in 0u64..50,
        slope in 0u64..10,
        p in 0usize..12,
        q in 0usize..12,
    ) {
        let policy = ConversionPolicy::Banded {
            radius,
            base: Cost::new(base),
            slope: Cost::new(slope),
        };
        let (wp, wq) = (Wavelength::new(p), Wavelength::new(q));
        prop_assert_eq!(policy.cost(wp, wq), policy.cost(wq, wp));
    }

    #[test]
    fn matrix_set_then_get(
        entries in prop::collection::vec((0usize..6, 0usize..6, 0u64..100), 0..30),
    ) {
        let mut m = ConversionMatrix::forbidden(6);
        let mut model = std::collections::HashMap::new();
        for (p, q, c) in entries {
            if p != q {
                m.set(Wavelength::new(p), Wavelength::new(q), Cost::new(c));
                model.insert((p, q), Cost::new(c));
            }
        }
        for p in 0..6 {
            for q in 0..6 {
                let want = if p == q {
                    Cost::ZERO
                } else {
                    model.get(&(p, q)).copied().unwrap_or(Cost::INFINITY)
                };
                prop_assert_eq!(m.cost(Wavelength::new(p), Wavelength::new(q)), want);
            }
        }
    }
}

/// A small fixed network for path-mutation tests.
fn fixture() -> WdmNetwork {
    let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3), (1, 3)]);
    WdmNetwork::builder(g, 3)
        .link_wavelengths(0, [(0, 5), (1, 6)])
        .link_wavelengths(1, [(1, 7)])
        .link_wavelengths(2, [(1, 8), (2, 9)])
        .link_wavelengths(3, [(0, 20)])
        .uniform_conversion(ConversionPolicy::Uniform(Cost::new(2)))
        .build()
        .expect("valid")
}

proptest! {
    /// Any single mutation of a valid path's wavelength to an unavailable
    /// one must be caught by validation.
    #[test]
    fn validation_catches_wavelength_corruption(hop_idx in 0usize..3, new_lambda in 0usize..3) {
        let net = fixture();
        let valid = Semilightpath::new(
            vec![
                Hop { link: LinkId::new(0), wavelength: Wavelength::new(1) },
                Hop { link: LinkId::new(1), wavelength: Wavelength::new(1) },
                Hop { link: LinkId::new(2), wavelength: Wavelength::new(1) },
            ],
            Cost::new(21),
        );
        valid.validate(&net).expect("fixture path valid");

        let mut hops = valid.hops().to_vec();
        hops[hop_idx].wavelength = Wavelength::new(new_lambda);
        let mutated = Semilightpath::new(hops.clone(), Cost::new(21));
        if new_lambda == 1 {
            // Unchanged — still valid.
            mutated.validate(&net).expect("identity mutation valid");
        } else {
            // Either the wavelength is unavailable on that link, the cost
            // no longer matches, or a conversion got introduced; some
            // check must fire.
            prop_assert!(mutated.validate(&net).is_err());
        }
    }

    /// Swapping two hops of a multi-hop path breaks contiguity.
    #[test]
    fn validation_catches_reordering(i in 0usize..3, j in 0usize..3) {
        prop_assume!(i != j);
        let net = fixture();
        let mut hops = vec![
            Hop { link: LinkId::new(0), wavelength: Wavelength::new(1) },
            Hop { link: LinkId::new(1), wavelength: Wavelength::new(1) },
            Hop { link: LinkId::new(2), wavelength: Wavelength::new(1) },
        ];
        hops.swap(i, j);
        let mutated = Semilightpath::new(hops, Cost::new(21));
        prop_assert!(mutated.validate(&net).is_err());
    }

    /// The recomputed Equation-(1) cost of an arbitrary hop sequence is
    /// the sum of its parts (link costs + junction conversions).
    #[test]
    fn compute_cost_decomposes(lambdas in prop::collection::vec(0usize..3, 3)) {
        let net = fixture();
        let links = [LinkId::new(0), LinkId::new(1), LinkId::new(2)];
        let hops: Vec<Hop> = links
            .iter()
            .zip(&lambdas)
            .map(|(&link, &l)| Hop { link, wavelength: Wavelength::new(l) })
            .collect();
        let path = Semilightpath::new(hops.clone(), Cost::ZERO);
        let mut expected = Cost::ZERO;
        for (i, hop) in hops.iter().enumerate() {
            expected += net.link_cost(hop.link, hop.wavelength);
            if i + 1 < hops.len() {
                let junction = net.graph().link(hop.link).head();
                expected += net.conversion_cost(junction, hop.wavelength, hops[i + 1].wavelength);
            }
        }
        prop_assert_eq!(path.compute_cost(&net), expected);
    }
}

// ---------------------------------------------------------------------------
// The construction verifier, in three layers:
//
// 1. The paper's worked example (n = 7, m = 11, k = 4) verifies clean
//    AND its structure matches the Theorem 1 closed forms computed by
//    hand from the Fig. 1/2 link table.
// 2. Random valid instances always verify with zero violations
//    (soundness: the verifier never cries wolf on a correct build).
// 3. Random *mutations* of a valid view — a dropped gadget edge, a
//    corrupted cross-index slot — always produce the specific check
//    for the broken invariant (completeness on the seeded fault model).

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

fn view_of(network: &WdmNetwork) -> ModelView {
    let aux = AuxiliaryGraph::for_all_pairs(network);
    ModelView::capture(&aux, network)
}

/// Hand-computed Theorem 1 quantities for the paper's worked example.
///
/// From the Fig. 1/2 link table (`paper_example::LINKS`):
/// Λ_out/Λ_in sizes per node are (4,2), (4,2), (3,3), (1,4), (4,1),
/// (3,2), (0,4), so the gadget core has Σ(|Λ_in|+|Λ_out|) = 37 nodes;
/// with 2n = 14 terminals the view holds 51 nodes. Σ_e |Λ(e)| = 24
/// traversal edges; conversion pairs are all-pairs per node except the
/// single forbidden λ1 → λ2 at node 3 (0-indexed node 2), giving
/// 8+8+8+4+4+6+0 = 38; one tap per core node adds 37.
#[test]
fn paper_example_matches_theorem1_closed_forms() {
    let network = paper_example::network();
    let view = view_of(&network);

    assert_eq!(view.nodes.len(), 51, "|V'| + 2n");
    let terminals = view
        .nodes
        .iter()
        .filter(|k| matches!(k, AuxNodeKind::Source { .. } | AuxNodeKind::Sink { .. }))
        .count();
    assert_eq!(terminals, 14, "2n terminals");

    let mut conv = 0usize;
    let mut trav = 0usize;
    let mut taps = 0usize;
    for e in &view.edges {
        match e.role {
            EdgeRole::Conversion { .. } => conv += 1,
            EdgeRole::Traversal { .. } => trav += 1,
            EdgeRole::Tap => taps += 1,
        }
    }
    assert_eq!(conv, 38, "Σ_v |E_v|");
    assert_eq!(trav, 24, "|E_org| = Σ_e |Λ(e)|");
    assert_eq!(taps, 37, "one tap per gadget node");

    // Theorem 1 bounds: |V'| ≤ 2kn, Σ|E_v| ≤ k²n, |E_org| ≤ km.
    assert!(view.nodes.len() - terminals <= 2 * 4 * 7);
    assert!(conv <= 4 * 4 * 7);
    assert!(trav <= 4 * 11);

    assert_eq!(verify_network(&network), vec![]);
}

/// Three fixed generated instances verify clean end to end.
#[test]
fn generated_instances_verify_clean() {
    for (seed, n, k, p) in [(11, 8, 3, 0.7), (23, 12, 4, 0.5), (47, 16, 2, 0.9)] {
        let network = instance(seed, n, k, p);
        let label = format!("gen-{seed}");
        assert_eq!(verify_network(&network), vec![], "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: any valid build verifies with zero violations.
    #[test]
    fn random_valid_instances_produce_zero_findings(
        seed in 0u64..1_000,
        n in 4usize..14,
        k in 2usize..5,
        p in 0.4f64..1.0,
    ) {
        let network = instance(seed, n, k, p);
        prop_assert_eq!(verify_network(&network), vec![]);
    }

    /// Completeness: dropping any single gadget edge fires M3 (and the
    /// M2 count check).
    #[test]
    fn dropping_any_gadget_edge_fires_m3(
        seed in 0u64..200,
        victim in 0usize..10_000,
    ) {
        let network = instance(seed, 10, 3, 0.8);
        let mut view = view_of(&network);
        let gadget_edges: Vec<usize> = view
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.role, EdgeRole::Conversion { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!gadget_edges.is_empty());
        let drop_at = gadget_edges[victim % gadget_edges.len()];
        view.edges.remove(drop_at);
        // Re-point the cross-index at the shifted edge ids so only the
        // gadget fault is visible, not a cascading index fault.
        for slot in &mut view.cross_index {
            if slot.2 > drop_at {
                slot.2 -= 1;
            }
        }
        let violations = verify_view(&view, &network);
        prop_assert!(
            violations.iter().any(|f| f.check == Check::GadgetShape),
            "expected M3 in {violations:?}"
        );
        prop_assert!(
            violations.iter().any(|f| f.check == Check::Theorem1EdgeCount),
            "expected M2 in {violations:?}"
        );
    }

    /// Completeness: corrupting any cross-index slot fires M6.
    #[test]
    fn corrupting_any_mask_index_fires_m6(
        seed in 0u64..200,
        victim in 0usize..10_000,
    ) {
        let network = instance(seed, 10, 3, 0.8);
        let mut view = view_of(&network);
        prop_assume!(!view.cross_index.is_empty());
        let at = victim % view.cross_index.len();
        view.cross_index[at].2 = view.edges.len() + 7; // out of bounds
        let violations = verify_view(&view, &network);
        prop_assert!(
            violations.iter().any(|f| f.check == Check::MaskIndex),
            "expected M6 in {violations:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// M8 soundness and completeness: a state's potential row verifies
    /// clean, and raising any one finite entry fires M8 — as an inexact
    /// entry always, and as an inconsistent aux edge too when the raised
    /// node is not the target (its first link on a cheapest path to the
    /// target becomes too cheap for the bound).
    #[test]
    fn raising_any_potential_entry_fires_m8(
        seed in 0u64..200,
        n in 4usize..14,
        k in 1usize..4,
        victim in 0usize..10_000,
        raise in 1u64..1_000,
    ) {
        use wdm_core::{ResidualState, SearchScratch};

        let network = instance(seed, n, k, 0.7);
        let state = ResidualState::new(&network);
        let mut scratch = SearchScratch::for_state(&state);
        let view = ModelView::capture(state.aux(), &network);
        let target = wdm_graph::NodeId::new(victim % n);
        let mut row = state.potential(&mut scratch, target).to_vec();
        prop_assert_eq!(verify_potential(&view, &network, target, &row), vec![]);
        let finite: Vec<usize> = (0..n).filter(|&p| row[p].is_finite()).collect();
        let at = finite[(victim / n) % finite.len()];
        let raised = row[at].value().expect("finite") + raise;
        row[at] = Cost::new(raised);
        let violations = verify_potential(&view, &network, target, &row);
        prop_assert!(
            violations.iter().any(|v| v.check == Check::PotentialConsistency),
            "expected M8 in {violations:?}"
        );
        if at != target.index() {
            prop_assert!(
                violations.iter().any(|v| v.message.contains("inconsistent")),
                "expected an inconsistent edge in {violations:?}"
            );
        }
    }

    /// The atomic-mask half of M6, under interleaved shared flips: a
    /// seeded sequence of `try_acquire_shared` / `release_shared` calls
    /// (the concurrent engine's primitive operations) must behave as an
    /// involution on exactly the touched `(link, λ)` pair — acquire
    /// succeeds iff the pair is free, release succeeds iff it is busy,
    /// no flip ever leaks into another pair through the cross-index,
    /// and `busy_count` tracks the reference set exactly. Ends with the
    /// static M6 sweep (`verify_mask_involution`) on the drained state.
    #[test]
    fn shared_flips_are_involutive_and_cross_index_unique(
        seed in 0u64..200,
        ops in prop::collection::vec((0usize..10_000, 0usize..4, prop::bool::ANY), 1..120),
    ) {
        use wdm_core::{AcquireOutcome, ResidualState};

        let network = instance(seed, 8, 3, 0.8);
        let state = ResidualState::new(&network);
        // Only pairs the base network carries participate; the rest must
        // report NoSuchResource and never change any state.
        let mut carried: Vec<(usize, usize)> = Vec::new();
        for (e, _) in network.graph().links() {
            for li in 0..network.k() {
                if network.link_cost(e, Wavelength::new(li)).is_finite() {
                    carried.push((e.index(), li));
                }
            }
        }
        prop_assume!(!carried.is_empty());

        let mut reference: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (pick, lambda_raw, acquire) in ops {
            let (e, li) = carried[pick % carried.len()];
            // Occasionally hit a wavelength the link may not carry.
            let li = if lambda_raw == 3 { (li + 1) % network.k() } else { li };
            let link = LinkId::new(e);
            let w = Wavelength::new(li);
            let was_busy = reference.contains(&(e, li));
            let carried_pair = carried.contains(&(e, li));
            if acquire {
                let got = state.try_acquire_shared(link, w);
                let want = if !carried_pair {
                    AcquireOutcome::NoSuchResource
                } else if was_busy {
                    AcquireOutcome::Busy
                } else {
                    reference.insert((e, li));
                    AcquireOutcome::Acquired
                };
                prop_assert_eq!(got, want, "acquire ({e}, λ{li})");
            } else {
                // `release_shared` returns whether the base carries the
                // resource; releasing an already-free pair is a no-op.
                let got = state.release_shared(link, w);
                prop_assert_eq!(got, carried_pair, "release ({e}, λ{li})");
                reference.remove(&(e, li));
            }
            // The flip touched exactly one pair: every carried pair must
            // agree with the reference set (cross-index uniqueness — a
            // duplicate or aliased slot would flip a bystander).
            prop_assert_eq!(state.busy_count(), reference.len());
            for &(oe, oli) in &carried {
                prop_assert_eq!(
                    state.is_busy(LinkId::new(oe), Wavelength::new(oli)),
                    reference.contains(&(oe, oli)),
                    "bystander ({oe}, λ{oli}) changed"
                );
            }
        }

        // Drain and hand the state to the M6 sweep: a fresh-equivalent
        // mask must pass the full involution check with zero violations.
        for &(e, li) in &carried {
            state.release_shared(LinkId::new(e), Wavelength::new(li));
        }
        prop_assert_eq!(state.busy_count(), 0);
        let violations = verify_mask_involution(&network);
        prop_assert!(violations.is_empty(), "M6: {violations:?}");
    }
}
