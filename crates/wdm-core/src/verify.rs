//! The Theorem-1 construction verifier (checks **M1–M8**).
//!
//! Verifies, without running any search, that a built `G_all`
//! ([`AuxiliaryGraph::for_all_pairs`]) has exactly the structure
//! Section III-A promises for its `(n, m, k)`:
//!
//! * **M1/M2** — node and edge counts match the closed-form Theorem 1
//!   formulas (`|V'| = Σ_v (|Λ_in(v)| + |Λ_out(v)|) ≤ 2kn`,
//!   `|E_org| = Σ_e |Λ(e)| ≤ km`, `Σ_v |E_v| ≤ k²n`);
//! * **M3** — every conversion gadget `G_v = (X_v, Y_v, E_v)` is bipartite
//!   `X_v → Y_v` with zero-cost `c_v(λ, λ)` diagonals and policy-matching
//!   off-diagonal costs, with no pair missing or duplicated;
//! * **M4** — every traversal edge `y_u(λ) → x_v(λ)` matches the base
//!   multigraph in endpoints, wavelength, cost, and multiplicity;
//! * **M5** — super-source/sink taps are zero-cost and sided correctly;
//! * **M6** — the `(link, λ) → edge` cross-index is in-bounds, unique, and
//!   complete, and [`PersistentAuxGraph`] busy flips are involutions with
//!   release;
//! * **M7** — the Restriction 1/2 gate agrees with an independent
//!   recomputation straight off the link table;
//! * **M8** — every goal-directed search potential row of
//!   [`ResidualState`] is consistent on every aux edge
//!   (`h(u) ≤ c(u, v) + h(v)`) and equals the free-network distance to
//!   its target with each link at its cheapest wavelength, recomputed by
//!   Bellman–Ford straight off the link table.
//!
//! The verifier is an oracle independent of the construction it checks:
//! Λ-sets, closed-form counts, gadget costs and the Restriction gates are
//! recomputed from the link table and the conversion policies, never read
//! from [`AuxiliaryGraph`] offsets or `WdmNetwork::lambda_in`/`lambda_out`.
//! The checks run against a [`ModelView`] — a plain-data extraction of the
//! built structure — so tests can corrupt a view (drop a gadget edge,
//! point a cross-index at the wrong edge) and assert the specific check
//! fires. Debug builds of the provisioning engines run
//! [`verify_network`] on every network they route on, and debug builds of
//! [`ResidualState`] check each potential row as they fill it; `wdm-lint`
//! reports the same checks as its `M*` rules.

use crate::csr::EdgeRole;
use crate::{
    restrictions, AuxNodeKind, AuxStats, AuxiliaryGraph, Cost, PersistentAuxGraph, ResidualState,
    SearchScratch, Wavelength, WdmNetwork,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use wdm_graph::{LinkId, NodeId};

/// Which construction invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// M1 — Theorem 1 node-count formula violated.
    Theorem1NodeCount,
    /// M2 — Theorem 1 edge-count formula violated.
    Theorem1EdgeCount,
    /// M3 — a conversion gadget `G_v` is not bipartite `X_v → Y_v`, or a
    /// diagonal `c_v(λ, λ)` edge has non-zero cost, or a gadget edge cost
    /// disagrees with the conversion policy.
    GadgetShape,
    /// M4 — a traversal edge disagrees with the base multigraph
    /// (endpoints, wavelength, cost, or multiplicity).
    TraversalShape,
    /// M5 — a super-source/sink tap arc is not zero-cost, or a terminal
    /// has edges on the wrong side.
    TerminalShape,
    /// M6 — an EdgeMask/CSR cross-index is out of bounds, points at the
    /// wrong edge, or a busy flip is not an involution with release.
    MaskIndex,
    /// M7 — the Restriction 1/2 gate (`restrictions.rs` fast-path
    /// preconditions) disagrees with an independent recomputation.
    RestrictionGate,
    /// M8 — a goal-directed search potential row is inconsistent on an
    /// aux edge, or differs from the free-network distance to its target
    /// at each link's cheapest wavelength.
    PotentialConsistency,
}

impl Check {
    /// Stable machine name (`wdm-lint` JSON output and suppressions).
    pub fn slug(self) -> &'static str {
        match self {
            Check::Theorem1NodeCount => "theorem1_node_count",
            Check::Theorem1EdgeCount => "theorem1_edge_count",
            Check::GadgetShape => "gadget_shape",
            Check::TraversalShape => "traversal_shape",
            Check::TerminalShape => "terminal_shape",
            Check::MaskIndex => "mask_index",
            Check::RestrictionGate => "restriction_gate",
            Check::PotentialConsistency => "potential_consistency",
        }
    }

    /// Short display code, `M1`..`M8`.
    pub fn code(self) -> &'static str {
        match self {
            Check::Theorem1NodeCount => "M1",
            Check::Theorem1EdgeCount => "M2",
            Check::GadgetShape => "M3",
            Check::TraversalShape => "M4",
            Check::TerminalShape => "M5",
            Check::MaskIndex => "M6",
            Check::RestrictionGate => "M7",
            Check::PotentialConsistency => "M8",
        }
    }

    /// One-line description.
    pub fn description(self) -> &'static str {
        match self {
            Check::Theorem1NodeCount => "Theorem 1 node-count closed form",
            Check::Theorem1EdgeCount => "Theorem 1 edge-count closed form",
            Check::GadgetShape => "conversion gadget bipartite shape and costs",
            Check::TraversalShape => "traversal edges match the base multigraph",
            Check::TerminalShape => "super-source/sink taps are zero-cost and one-sided",
            Check::MaskIndex => "EdgeMask/CSR cross-index integrity and busy-flip involution",
            Check::RestrictionGate => "Restriction 1/2 gates match independent recomputation",
            Check::PotentialConsistency => {
                "search potential rows are consistent and exact at each link's cheapest wavelength"
            }
        }
    }
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check that failed.
    pub check: Check,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    fn new(check: Check, message: String) -> Self {
        Violation { check, message }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check.code(), self.message)
    }
}

/// One edge of the extracted view, in dense-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEdge {
    /// Tail aux node id.
    pub source: usize,
    /// Head aux node id.
    pub target: usize,
    /// Edge weight.
    pub cost: Cost,
    /// Physical meaning.
    pub role: EdgeRole,
}

/// A plain-data snapshot of a built `G_all`, amenable to mutation in
/// tests.
#[derive(Debug, Clone)]
pub struct ModelView {
    /// Meaning of each aux node, by id.
    pub nodes: Vec<AuxNodeKind>,
    /// Every edge, by dense index.
    pub edges: Vec<ViewEdge>,
    /// The construction's own size accounting.
    pub stats: AuxStats,
    /// The `(link, λ) → dense edge index` cross-index the residual router
    /// flips through.
    pub cross_index: Vec<(LinkId, Wavelength, usize)>,
    /// What the builder believed about Restriction 1 (gate input for the
    /// `restrictions.rs` fast paths).
    pub restriction1: bool,
    /// What the builder believed about Restriction 2.
    pub restriction2: bool,
}

impl ModelView {
    /// Extracts a view from a built all-pairs auxiliary graph, recording
    /// the Restriction gates as `restrictions.rs` computes them.
    pub fn capture(aux: &AuxiliaryGraph, network: &WdmNetwork) -> Self {
        let g = aux.graph();
        let nodes = (0..g.node_count()).map(|i| aux.kind(i)).collect();
        let edges: Vec<ViewEdge> = (0..g.edge_count())
            .map(|i| {
                let (source, e) = g.edge(i);
                ViewEdge {
                    source,
                    target: e.target,
                    cost: e.cost,
                    role: e.role,
                }
            })
            .collect();
        let cross_index = edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.role {
                EdgeRole::Traversal { link, wavelength } => Some((link, wavelength, i)),
                _ => None,
            })
            .collect();
        ModelView {
            nodes,
            edges,
            stats: aux.stats(),
            cross_index,
            restriction1: restrictions::satisfies_restriction1(network),
            restriction2: restrictions::satisfies_restriction2(network),
        }
    }
}

/// Per-node wavelength sets recomputed straight off the link table —
/// independently of `WdmNetwork::lambda_in`/`lambda_out`, so a bug there
/// cannot hide a construction bug.
struct LambdaSets {
    lin: Vec<BTreeSet<Wavelength>>,
    lout: Vec<BTreeSet<Wavelength>>,
}

fn recompute_lambda_sets(network: &WdmNetwork) -> LambdaSets {
    let n = network.node_count();
    let mut lin = vec![BTreeSet::new(); n];
    let mut lout = vec![BTreeSet::new(); n];
    for (e, l) in network.graph().links() {
        for (w, _) in network.wavelengths_on(e).iter() {
            lout[l.tail().index()].insert(w);
            lin[l.head().index()].insert(w);
        }
    }
    LambdaSets { lin, lout }
}

/// Statically verifies a view against its base network; returns every
/// violated invariant.
pub fn verify_view(view: &ModelView, network: &WdmNetwork) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = network.node_count();
    let m = network.link_count();
    let k = network.k();
    let sets = recompute_lambda_sets(network);

    // ---- M1: node counts against the closed-form formulas. ----
    let expected_core: usize = (0..n).map(|v| sets.lin[v].len() + sets.lout[v].len()).sum();
    let expected_total = expected_core + 2 * n;
    if view.nodes.len() != expected_total {
        out.push(Violation::new(
            Check::Theorem1NodeCount,
            format!(
                "G_all has {} nodes; Theorem 1 gives Σ(|Λ_in|+|Λ_out|) + 2n = {} + {} = {}",
                view.nodes.len(),
                expected_core,
                2 * n,
                expected_total
            ),
        ));
    }
    let mut in_count = 0usize;
    let mut out_count = 0usize;
    let mut src_count = 0usize;
    let mut snk_count = 0usize;
    for kind in &view.nodes {
        match kind {
            AuxNodeKind::In { .. } => in_count += 1,
            AuxNodeKind::Out { .. } => out_count += 1,
            AuxNodeKind::Source { .. } => src_count += 1,
            AuxNodeKind::Sink { .. } => snk_count += 1,
        }
    }
    let expected_in: usize = sets.lin.iter().map(BTreeSet::len).sum();
    let expected_out: usize = sets.lout.iter().map(BTreeSet::len).sum();
    for (label, got, want) in [
        ("X", in_count, expected_in),
        ("Y", out_count, expected_out),
        ("source terminals", src_count, n),
        ("sink terminals", snk_count, n),
    ] {
        if got != want {
            out.push(Violation::new(
                Check::Theorem1NodeCount,
                format!("{label} node count is {got}, expected {want}"),
            ));
        }
    }
    if expected_core > 2 * k * n {
        out.push(Violation::new(
            Check::Theorem1NodeCount,
            format!(
                "|V'| = {expected_core} exceeds the Observation 2 bound 2kn = {}",
                2 * k * n
            ),
        ));
    }

    // ---- M2: edge counts. ----
    let mut conv_count = 0usize;
    let mut trav_count = 0usize;
    let mut tap_count = 0usize;
    for e in &view.edges {
        match e.role {
            EdgeRole::Conversion { .. } => conv_count += 1,
            EdgeRole::Traversal { .. } => trav_count += 1,
            EdgeRole::Tap => tap_count += 1,
        }
    }
    let expected_trav: usize = (0..m)
        .map(|e| network.wavelengths_on(LinkId::new(e)).len())
        .sum();
    let expected_conv: usize = (0..n)
        .map(|v| {
            let node = wdm_graph::NodeId::new(v);
            sets.lin[v]
                .iter()
                .flat_map(|&p| sets.lout[v].iter().map(move |&q| (p, q)))
                .filter(|&(p, q)| network.conversion_cost(node, p, q).is_finite())
                .count()
        })
        .sum();
    for (label, got, want) in [
        ("conversion (Σ|E_v|)", conv_count, expected_conv),
        ("traversal (|E_org| = Σ|Λ(e)|)", trav_count, expected_trav),
        ("tap", tap_count, expected_core),
    ] {
        if got != want {
            out.push(Violation::new(
                Check::Theorem1EdgeCount,
                format!("{label} edge count is {got}, expected {want}"),
            ));
        }
    }
    if expected_conv > k * k * n || expected_trav > k * m {
        out.push(Violation::new(
            Check::Theorem1EdgeCount,
            format!(
                "size bounds violated: Σ|E_v| = {expected_conv} (≤ k²n = {}), \
                 |E_org| = {expected_trav} (≤ km = {})",
                k * k * n,
                k * m
            ),
        ));
    }

    // ---- M3: gadget shape + completeness. ----
    let mut seen_conv: HashMap<(usize, Wavelength, Wavelength), usize> = HashMap::new();
    for e in &view.edges {
        let EdgeRole::Conversion { node, from, to } = e.role else {
            continue;
        };
        *seen_conv.entry((node.index(), from, to)).or_insert(0) += 1;
        let src_ok = matches!(
            view.nodes.get(e.source),
            Some(&AuxNodeKind::In { node: sn, wavelength: sw }) if sn == node && sw == from
        );
        let dst_ok = matches!(
            view.nodes.get(e.target),
            Some(&AuxNodeKind::Out { node: tn, wavelength: tw }) if tn == node && tw == to
        );
        if !src_ok || !dst_ok {
            out.push(Violation::new(
                Check::GadgetShape,
                format!(
                    "conversion edge at node {} ({} → {}) is not bipartite \
                     x_v(λp) → y_v(λq): endpoints are {:?} → {:?}",
                    node.index(),
                    from.index(),
                    to.index(),
                    view.nodes.get(e.source),
                    view.nodes.get(e.target)
                ),
            ));
        }
        if from == to && e.cost != Cost::ZERO {
            out.push(Violation::new(
                Check::GadgetShape,
                format!(
                    "diagonal gadget edge c_v(λ{0}, λ{0}) at node {1} costs {2}, expected 0",
                    from.index(),
                    node.index(),
                    e.cost
                ),
            ));
        } else if e.cost != network.conversion_cost(node, from, to) {
            out.push(Violation::new(
                Check::GadgetShape,
                format!(
                    "gadget edge at node {} costs {} but the conversion policy says {}",
                    node.index(),
                    e.cost,
                    network.conversion_cost(node, from, to)
                ),
            ));
        }
    }
    for v in 0..n {
        let node = wdm_graph::NodeId::new(v);
        for &p in &sets.lin[v] {
            for &q in &sets.lout[v] {
                if !network.conversion_cost(node, p, q).is_finite() {
                    continue;
                }
                match seen_conv.get(&(v, p, q)).copied().unwrap_or(0) {
                    1 => {}
                    0 => out.push(Violation::new(
                        Check::GadgetShape,
                        format!(
                            "gadget edge x_{v}(λ{}) → y_{v}(λ{}) is missing \
                             (conversion is allowed, so E_v must contain it)",
                            p.index(),
                            q.index()
                        ),
                    )),
                    c => out.push(Violation::new(
                        Check::GadgetShape,
                        format!(
                            "gadget edge x_{v}(λ{}) → y_{v}(λ{}) appears {c} times",
                            p.index(),
                            q.index()
                        ),
                    )),
                }
            }
        }
    }

    // ---- M4: traversal shape + multiplicity. ----
    let mut seen_trav: HashMap<(usize, Wavelength), usize> = HashMap::new();
    for e in &view.edges {
        let EdgeRole::Traversal { link, wavelength } = e.role else {
            continue;
        };
        if link.index() >= m {
            out.push(Violation::new(
                Check::TraversalShape,
                format!("traversal edge references link {} of {m}", link.index()),
            ));
            continue;
        }
        *seen_trav.entry((link.index(), wavelength)).or_insert(0) += 1;
        let l = network.graph().link(link);
        let want_cost = network.link_cost(link, wavelength);
        if e.cost != want_cost {
            out.push(Violation::new(
                Check::TraversalShape,
                format!(
                    "traversal edge for (link {}, λ{}) costs {}, base network says {}",
                    link.index(),
                    wavelength.index(),
                    e.cost,
                    want_cost
                ),
            ));
        }
        let src_ok = matches!(
            view.nodes.get(e.source),
            Some(&AuxNodeKind::Out { node, wavelength: w }) if node == l.tail() && w == wavelength
        );
        let dst_ok = matches!(
            view.nodes.get(e.target),
            Some(&AuxNodeKind::In { node, wavelength: w }) if node == l.head() && w == wavelength
        );
        if !src_ok || !dst_ok {
            out.push(Violation::new(
                Check::TraversalShape,
                format!(
                    "traversal edge for (link {}, λ{}) must run \
                     y_{}(λ) → x_{}(λ); endpoints are {:?} → {:?}",
                    link.index(),
                    wavelength.index(),
                    l.tail().index(),
                    l.head().index(),
                    view.nodes.get(e.source),
                    view.nodes.get(e.target)
                ),
            ));
        }
    }
    for e in 0..m {
        for (w, _) in network.wavelengths_on(LinkId::new(e)).iter() {
            let c = seen_trav.get(&(e, w)).copied().unwrap_or(0);
            if c != 1 {
                out.push(Violation::new(
                    Check::TraversalShape,
                    format!(
                        "(link {e}, λ{}) has {c} traversal edges, expected exactly 1",
                        w.index()
                    ),
                ));
            }
        }
    }

    // ---- M5: terminal taps. ----
    for e in &view.edges {
        if e.role != EdgeRole::Tap {
            // Terminals only ever touch tap edges.
            let touches_terminal = matches!(
                view.nodes.get(e.source),
                Some(AuxNodeKind::Source { .. } | AuxNodeKind::Sink { .. })
            ) || matches!(
                view.nodes.get(e.target),
                Some(AuxNodeKind::Source { .. } | AuxNodeKind::Sink { .. })
            );
            if touches_terminal {
                out.push(Violation::new(
                    Check::TerminalShape,
                    format!("non-tap edge {:?} touches a terminal node", e.role),
                ));
            }
            continue;
        }
        if e.cost != Cost::ZERO {
            out.push(Violation::new(
                Check::TerminalShape,
                format!(
                    "tap edge {} → {} costs {}, expected 0",
                    e.source, e.target, e.cost
                ),
            ));
        }
        let shape_ok = matches!(
            (view.nodes.get(e.source), view.nodes.get(e.target)),
            (
                Some(&AuxNodeKind::Source { node: sv }),
                Some(&AuxNodeKind::Out { node: tv, .. }),
            ) if sv == tv
        ) || matches!(
            (view.nodes.get(e.source), view.nodes.get(e.target)),
            (
                Some(&AuxNodeKind::In { node: sv, .. }),
                Some(&AuxNodeKind::Sink { node: tv }),
            ) if sv == tv
        );
        if !shape_ok {
            out.push(Violation::new(
                Check::TerminalShape,
                format!(
                    "tap edge must run v' → Y_v or X_v → v''; endpoints are {:?} → {:?}",
                    view.nodes.get(e.source),
                    view.nodes.get(e.target)
                ),
            ));
        }
    }

    // ---- M6: cross-index integrity. ----
    let mut seen_idx: HashSet<usize> = HashSet::new();
    let mut covered: HashSet<(usize, Wavelength)> = HashSet::new();
    for &(link, w, idx) in &view.cross_index {
        if idx >= view.edges.len() {
            out.push(Violation::new(
                Check::MaskIndex,
                format!(
                    "cross-index for (link {}, λ{}) points at edge {idx} of {}",
                    link.index(),
                    w.index(),
                    view.edges.len()
                ),
            ));
            continue;
        }
        if !seen_idx.insert(idx) {
            out.push(Violation::new(
                Check::MaskIndex,
                format!("edge index {idx} appears twice in the (link, λ) cross-index"),
            ));
        }
        covered.insert((link.index(), w));
        let role = view.edges[idx].role;
        if role
            != (EdgeRole::Traversal {
                link,
                wavelength: w,
            })
        {
            out.push(Violation::new(
                Check::MaskIndex,
                format!(
                    "cross-index for (link {}, λ{}) points at edge {idx} with role {role:?}; \
                     masking it would not free/occupy that resource",
                    link.index(),
                    w.index()
                ),
            ));
        }
    }
    for e in 0..m {
        for (w, _) in network.wavelengths_on(LinkId::new(e)).iter() {
            if !covered.contains(&(e, w)) {
                out.push(Violation::new(
                    Check::MaskIndex,
                    format!(
                        "(link {e}, λ{}) has no cross-index entry; it could never be \
                         marked busy",
                        w.index()
                    ),
                ));
            }
        }
    }

    // ---- M7: Restriction 1/2 gate vs. independent recomputation. ----
    let r1 = (0..n).all(|v| {
        let node = wdm_graph::NodeId::new(v);
        sets.lin[v].iter().all(|&p| {
            sets.lout[v]
                .iter()
                .all(|&q| network.conversion_cost(node, p, q).is_finite())
        })
    });
    let min_link: Option<Cost> = (0..m)
        .flat_map(|e| {
            network
                .wavelengths_on(LinkId::new(e))
                .iter()
                .map(|(_, c)| c)
                .collect::<Vec<_>>()
        })
        .min();
    let max_conv: Option<Cost> = (0..n)
        .flat_map(|v| {
            let node = wdm_graph::NodeId::new(v);
            sets.lin[v]
                .iter()
                .flat_map(|&p| {
                    sets.lout[v]
                        .iter()
                        .filter(move |&&q| q != p)
                        .map(move |&q| network.conversion_cost(node, p, q))
                })
                .collect::<Vec<_>>()
        })
        .max();
    let r2 = match (min_link, max_conv) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(link), Some(conv)) => conv < link,
    };
    if view.restriction1 != r1 {
        out.push(Violation::new(
            Check::RestrictionGate,
            format!(
                "Restriction 1 gate says {} but direct recomputation over the link \
                 table says {r1}",
                view.restriction1
            ),
        ));
    }
    if view.restriction2 != r2 {
        out.push(Violation::new(
            Check::RestrictionGate,
            format!(
                "Restriction 2 gate says {} but direct recomputation \
                 (max c_v = {max_conv:?}, min w = {min_link:?}) says {r2}",
                view.restriction2
            ),
        ));
    }

    out
}

/// Dynamically checks that [`PersistentAuxGraph`] busy flips are
/// involutions with release, over every `(link, λ)` pair of the base
/// network — the runtime half of M6.
pub fn verify_mask_involution(network: &WdmNetwork) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut residual = PersistentAuxGraph::new(network);
    for (e, _) in network.graph().links() {
        for li in 0..network.k() {
            let w = Wavelength::new(li);
            let available = network.link_cost(e, w).is_finite();
            if !available {
                if residual.set_busy(e, w, true) {
                    out.push(Violation::new(
                        Check::MaskIndex,
                        format!(
                            "set_busy acquired (link {}, λ{li}) which the base network \
                             does not carry",
                            e.index()
                        ),
                    ));
                }
                continue;
            }
            if residual.is_busy(e, w) {
                out.push(Violation::new(
                    Check::MaskIndex,
                    format!(
                        "(link {}, λ{li}) busy on a freshly built structure",
                        e.index()
                    ),
                ));
            }
            residual.set_busy(e, w, true);
            if !residual.is_busy(e, w) {
                out.push(Violation::new(
                    Check::MaskIndex,
                    format!(
                        "acquire of (link {}, λ{li}) did not mark it busy",
                        e.index()
                    ),
                ));
            }
            residual.set_busy(e, w, false);
            if residual.is_busy(e, w) {
                out.push(Violation::new(
                    Check::MaskIndex,
                    format!("release of (link {}, λ{li}) did not free it", e.index()),
                ));
            }
        }
    }
    if residual.busy_count() != 0 {
        out.push(Violation::new(
            Check::MaskIndex,
            format!(
                "acquire/release sweep left busy_count = {}, expected 0",
                residual.busy_count()
            ),
        ));
    }
    out
}

/// M8 for one potential row ([`ResidualState::potential`]) of a state
/// built on `network`: `row` must be consistent on every edge of `view`
/// (`h(u) ≤ c(u, v) + h(v)` between the edge's physical nodes) and equal,
/// entry for entry, to the cheapest free `p → target` cost with every
/// link at its cheapest wavelength. That distance is recomputed here by
/// Bellman–Ford straight off the link table, never by the reverse
/// Dijkstra that filled the row.
pub fn verify_potential(
    view: &ModelView,
    network: &WdmNetwork,
    target: NodeId,
    row: &[Cost],
) -> Vec<Violation> {
    let links: Vec<(usize, usize, Cost)> = network
        .graph()
        .links()
        .flat_map(|(e, l)| {
            let (u, v) = (l.tail().index(), l.head().index());
            network
                .wavelengths_on(e)
                .iter()
                .map(move |(_, c)| (u, v, c))
        })
        .collect();
    let edges = view.edges.iter().map(|e| {
        let phys = |i: usize| view.nodes.get(i).map_or(usize::MAX, |k| k.node().index());
        (phys(e.source), phys(e.target), e.cost)
    });
    potential_violations(network.node_count(), &links, edges, target, row)
}

/// M8 as [`ResidualState`]'s debug builds run it on each row they fill,
/// where the base network is not at hand: the links are read off `aux`'s
/// traversal edges, which M4 ties to the link table.
#[cfg(debug_assertions)]
pub(crate) fn verify_potential_row(
    aux: &AuxiliaryGraph,
    target: NodeId,
    row: &[Cost],
) -> Vec<Violation> {
    let g = aux.graph();
    let phys = |v: usize| aux.kind(v).node().index();
    let (mut links, mut edges) = (Vec::new(), Vec::new());
    for i in 0..g.edge_count() {
        let (u, e) = g.edge(i);
        let edge = (phys(u), phys(e.target), e.cost);
        if matches!(e.role, EdgeRole::Traversal { .. }) {
            links.push(edge);
        }
        edges.push(edge);
    }
    potential_violations(aux.stats().n, &links, edges.into_iter(), target, row)
}

/// The M8 core. `links` are physical `(tail, head, cost)` triples, one per
/// (link, λ) — the minimum over λ falls out of the relaxation — and
/// `edges` are the aux edges with their endpoints mapped to physical
/// nodes.
fn potential_violations(
    n: usize,
    links: &[(usize, usize, Cost)],
    edges: impl Iterator<Item = (usize, usize, Cost)>,
    target: NodeId,
    row: &[Cost],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let t = target.index();
    let mut exact = vec![Cost::INFINITY; n];
    let (Some(at_target), true) = (exact.get_mut(t), row.len() == n) else {
        out.push(Violation::new(
            Check::PotentialConsistency,
            format!(
                "potential row toward node {t} has {} entries for {n} nodes",
                row.len()
            ),
        ));
        return out;
    };
    *at_target = Cost::ZERO;
    // Bellman–Ford toward t: relax every link backwards until nothing
    // improves (at most n rounds, all costs being non-negative).
    let mut changed = true;
    while changed {
        changed = false;
        for &(u, v, c) in links {
            let (Some(&hv), Some(&hu)) = (exact.get(v), exact.get(u)) else {
                continue;
            };
            if hv + c < hu {
                exact[u] = hv + c;
                changed = true;
            }
        }
    }
    for (p, (&got, &want)) in row.iter().zip(&exact).enumerate() {
        if got != want {
            out.push(Violation::new(
                Check::PotentialConsistency,
                format!(
                    "h({p}) toward node {t} is {got}, but the cheapest free path at \
                     w_min costs {want}"
                ),
            ));
        }
    }
    for (u, v, c) in edges {
        let (Some(&hu), Some(&hv)) = (row.get(u), row.get(v)) else {
            out.push(Violation::new(
                Check::PotentialConsistency,
                format!("aux edge between physical nodes {u} → {v} has no potential entry"),
            ));
            continue;
        };
        if hu > c + hv {
            out.push(Violation::new(
                Check::PotentialConsistency,
                format!(
                    "potential toward node {t} is inconsistent on an aux edge of node {u} → \
                     node {v}: h = {hu} exceeds cost {c} + h = {hv}"
                ),
            ));
        }
    }
    out
}

/// Runs the full model verification for one network: builds `G_all`,
/// verifies the extracted view statically, checks mask involution, and
/// checks the potential row toward every node (M8).
pub fn verify_network(network: &WdmNetwork) -> Vec<Violation> {
    let state = ResidualState::new(network);
    let view = ModelView::capture(state.aux(), network);
    let mut violations = verify_view(&view, network);
    violations.extend(verify_mask_involution(network));
    let mut scratch = SearchScratch::for_state(&state);
    for t in network.graph().nodes() {
        let row = state.potential(&mut scratch, t);
        violations.extend(verify_potential(&view, network, t, row));
    }
    violations
}
