//! The model engine: the construction checks of [`wdm_core::verify`]
//! (M1–M8) reported as deny findings against an instance label.

use crate::findings::Finding;
use wdm_core::verify::{self, Violation};
use wdm_core::WdmNetwork;

/// Verifies `network`'s built `G_all`, busy-flip involution and search
/// potential rows, labelling every violation with `instance`.
pub fn verify_network(network: &WdmNetwork, instance: &str) -> Vec<Finding> {
    findings(verify::verify_network(network), instance)
}

fn findings(violations: Vec<Violation>, instance: &str) -> Vec<Finding> {
    violations
        .into_iter()
        .map(|v| Finding::model(v, instance))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;
    use wdm_core::csr::EdgeRole;
    use wdm_core::verify::{Check, ModelView};
    use wdm_core::{
        paper_example, AuxiliaryGraph, ConversionPolicy, Cost, ResidualState, SearchScratch,
    };
    use wdm_graph::DiGraph;

    /// The lint's findings for a (possibly corrupted) view.
    fn verify_view(view: &ModelView, network: &WdmNetwork, instance: &str) -> Vec<Finding> {
        findings(verify::verify_view(view, network), instance)
    }

    fn chain() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn valid_instances_produce_zero_findings() {
        for (label, net) in [
            ("chain", chain()),
            ("paper-example", paper_example::network()),
        ] {
            let findings = verify_network(&net, label);
            assert!(findings.is_empty(), "{label}: {findings:?}");
        }
    }

    #[test]
    fn dropped_gadget_edge_fires_m3() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        let at = view
            .edges
            .iter()
            .position(|e| matches!(e.role, EdgeRole::Conversion { .. }))
            .expect("has gadget edges");
        view.edges.remove(at);
        // Removing shifts dense indices, so rebuild the cross-index the
        // way a (buggy) builder would have.
        view.cross_index = view
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.role {
                EdgeRole::Traversal { link, wavelength } => Some((link, wavelength, i)),
                _ => None,
            })
            .collect();
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Model(Check::GadgetShape) && f.message.contains("missing")),
            "{findings:?}"
        );
        // The count check notices too.
        assert!(findings
            .iter()
            .any(|f| f.rule == Rule::Model(Check::Theorem1EdgeCount)));
    }

    #[test]
    fn corrupted_mask_index_fires_m6() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        // Point the first cross-index entry at a non-traversal edge.
        let wrong = view
            .edges
            .iter()
            .position(|e| !matches!(e.role, EdgeRole::Traversal { .. }))
            .expect("has non-traversal edges");
        view.cross_index[0].2 = wrong;
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Model(Check::MaskIndex) && f.message.contains("role")),
            "{findings:?}"
        );

        // Out-of-bounds index.
        let mut view2 = ModelView::capture(&aux, &net);
        view2.cross_index[0].2 = view2.edges.len() + 7;
        let findings = verify_view(&view2, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Model(Check::MaskIndex)
                    && f.message.contains("points at edge")),
            "{findings:?}"
        );
    }

    #[test]
    fn wrong_restriction_gate_fires_m7() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        view.restriction2 = !view.restriction2;
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Model(Check::RestrictionGate)),
            "{findings:?}"
        );
    }

    #[test]
    fn nonzero_tap_cost_fires_m5() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        let at = view
            .edges
            .iter()
            .position(|e| e.role == EdgeRole::Tap)
            .expect("has taps");
        view.edges[at].cost = Cost::new(3);
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Model(Check::TerminalShape)
                    && f.message.contains("expected 0")),
            "{findings:?}"
        );
    }

    #[test]
    fn raised_potential_entry_fires_m8() {
        let net = chain();
        let state = ResidualState::new(&net);
        let mut scratch = SearchScratch::for_state(&state);
        let view = ModelView::capture(state.aux(), &net);
        let target = 2.into();
        let mut row = state.potential(&mut scratch, target).to_vec();
        assert!(findings(verify::verify_potential(&view, &net, target, &row), "chain").is_empty());
        // h(0) toward 2 is 20 (two links at 10); 25 overestimates.
        row[0] = Cost::new(25);
        let findings = findings(
            verify::verify_potential(&view, &net, target, &row),
            "mutated",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::Model(Check::PotentialConsistency)
                    && f.message.contains("inconsistent")),
            "{findings:?}"
        );
    }
}
