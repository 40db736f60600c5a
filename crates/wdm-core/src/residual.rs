//! Persistent residual routing: the auxiliary graph built once, searched
//! many times through an in-place edge mask.
//!
//! The provisioning hot loop of a dynamic-traffic RWA system answers one
//! question per request — "cheapest semilightpath on the *residual*
//! network" — while the residual network differs from the base only in
//! which (link, wavelength) pairs are currently occupied. Rebuilding
//! `G_{s,t}` per request costs the full Theorem-1 construction,
//! `O(k²n + km)`, plus the allocator traffic of a network clone. This
//! module instead builds the terminal-equipped all-pairs graph `G_all`
//! (Corollary 1) **once** and represents occupancy as an [`EdgeMask`] over
//! its traversal edges: acquiring or releasing a resource flips one bit,
//! and a request is answered by a single masked Dijkstra over the
//! persistent structure, allocation-free after warm-up.
//!
//! # Why masking a traversal edge is exactly residual routing
//!
//! Occupying `(e, λ)` removes exactly one edge from the paper's
//! wavelength-expanded multigraph `G_M`, which corresponds one-to-one to
//! the traversal edge `y_u(λ) → x_v(λ)` of `G'`. Conversion gadgets and
//! terminal taps never depend on availability, so the residual `G'` is the
//! persistent `G'` minus masked traversal edges. The masked graph retains
//! aux nodes whose wavelengths vanished from the residual Λ-sets, but such
//! nodes are dead ends (every edge that made them useful is masked) and
//! can never lie on a cheapest path, hence distances and blocked verdicts
//! match a from-scratch rebuild. A full rebuild is still required when the
//! *base* network changes — topology edits, added wavelengths, or altered
//! conversion policies — because those change the node set itself.
//!
//! # Sharing across threads
//!
//! The structure splits into two halves:
//!
//! * [`ResidualState`] — the graphs, busy masks, and (link, λ) index.
//!   Routing and reachability probes take `&self`; busy flips come in an
//!   exclusive flavour (`&mut self`, plain word ops — the
//!   single-threaded hot path) and a shared flavour
//!   ([`try_acquire_shared`](ResidualState::try_acquire_shared) /
//!   [`release_shared`](ResidualState::release_shared), atomic RMWs for
//!   the concurrent engine, which layers its own conflict protocol on
//!   top).
//! * [`SearchScratch`] — the per-thread Dijkstra workspace, heap, and
//!   probe masks. One per searching thread; never shared.
//!
//! [`PersistentAuxGraph`] bundles one of each behind the original
//! single-threaded API, so existing callers are untouched.

use crate::auxiliary::AuxiliaryGraph;
use crate::csr::{CsrBuilder, CsrGraph, EdgeMask, EdgeRole};
use crate::dijkstra::DijkstraWorkspace;
use crate::{Cost, Hop, Semilightpath, Wavelength, WdmNetwork};
use heaps::{BinaryHeap, IndexedPriorityQueue};
use wdm_graph::{LinkId, NodeId};

/// One per-wavelength view of the physical topology: the subgraph of links
/// carrying `λ`, with its own busy mask. Lets single-wavelength (lightpath)
/// policies go rebuild-free too.
#[derive(Debug, Clone)]
struct LambdaGraph {
    graph: CsrGraph,
    mask: EdgeMask,
    /// Dense edge index per link (`u32::MAX` when the link lacks this λ).
    edge_of_link: Vec<u32>,
}

const NO_EDGE: u32 = u32::MAX;

/// Outcome of a shared-mode resource acquisition
/// ([`ResidualState::try_acquire_shared`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The caller won the flip: the resource was free and is now busy,
    /// owned by the caller.
    Acquired,
    /// The resource was already busy (another owner holds it).
    Busy,
    /// The base network does not carry this wavelength on this link;
    /// nothing was changed.
    NoSuchResource,
}

/// The shareable half of the persistent residual structure: `G_all`
/// ([`AuxiliaryGraph::for_all_pairs`]), one per-wavelength link graph,
/// and the busy masks, with a (link, λ) → traversal-edge index.
///
/// All routing queries take `&self` plus a caller-owned
/// [`SearchScratch`], so any number of threads may search one state
/// concurrently while flipping busy bits through the shared-mode
/// methods. Consistency across multiple bits is the caller's protocol —
/// see `wdm_obs::ordering` for the seqlock audit the concurrent engine
/// builds on.
#[derive(Debug, Clone)]
pub struct ResidualState {
    aux: AuxiliaryGraph,
    /// Busy mask over the aux graph's edges (only traversal bits are set).
    mask: EdgeMask,
    /// Per link, sorted by wavelength: the aux traversal edge for
    /// `(link, λ)`.
    aux_edge: Vec<Vec<(Wavelength, u32)>>,
    lambda: Vec<LambdaGraph>,
}

/// The per-thread half: a reusable [`DijkstraWorkspace`]+heap pair and
/// lazily sized probe masks, so that after warm-up a request costs one
/// heap-driven Dijkstra and zero structural work.
///
/// The indexed binary heap wins over the Theorem-1 Fibonacci heap here:
/// per-request graphs are mid-sized, so the flat sift beats pointer
/// chasing, and it matches the legacy lightpath routine's heap for the
/// per-wavelength searches.
#[derive(Debug, Clone)]
pub struct SearchScratch {
    ws: DijkstraWorkspace,
    heap: BinaryHeap<Cost>,
    /// All-clear mask over the aux graph used by link-excluding probes;
    /// zero-length until first use.
    probe_aux: EdgeMask,
    /// All-clear masks over the per-λ graphs for link-excluding probes;
    /// empty until first use.
    probe_lambda: Vec<EdgeMask>,
}

impl SearchScratch {
    /// Scratch sized for searches over `state`.
    pub fn for_state(state: &ResidualState) -> Self {
        let n_phys = state
            .lambda
            .first()
            .map(|lg| lg.graph.node_count())
            .unwrap_or(0);
        let cap = state.aux.graph().node_count().max(n_phys).max(1);
        SearchScratch {
            ws: DijkstraWorkspace::with_capacity(cap),
            heap: BinaryHeap::with_capacity(cap),
            probe_aux: EdgeMask::all_clear(0),
            probe_lambda: Vec::new(),
        }
    }

    /// Drains the search-operation totals accumulated by every routing
    /// call through this scratch since the last drain.
    ///
    /// The underlying [`DijkstraWorkspace`] bumps plain fields during
    /// the search, so this is the zero-hot-path handoff point between
    /// the kernels and a metrics registry: call it per request (or per
    /// flush interval) and feed the deltas into shared counters.
    pub fn take_search_totals(&mut self) -> crate::SearchStats {
        self.ws.take_totals()
    }
}

impl ResidualState {
    /// Builds the state for `base` with every resource free. This is the
    /// once-per-engine `O(k²n + km)` cost the per-request path no longer
    /// pays.
    pub fn new(base: &WdmNetwork) -> Self {
        let aux = AuxiliaryGraph::for_all_pairs(base);
        let g = aux.graph();
        let m = base.link_count();
        let n = base.node_count();

        // Index the traversal edges by (link, λ) for O(log k0) flips.
        let mut aux_edge: Vec<Vec<(Wavelength, u32)>> = vec![Vec::new(); m];
        for i in 0..g.edge_count() {
            let (_, e) = g.edge(i);
            if let EdgeRole::Traversal { link, wavelength } = e.role {
                let Ok(ei) = u32::try_from(i) else {
                    unreachable!("aux edge count fits in u32 edge handles")
                };
                aux_edge[link.index()].push((wavelength, ei));
            }
        }
        for per_link in &mut aux_edge {
            per_link.sort_by_key(|&(w, _)| w);
        }

        // One physical-topology subgraph per wavelength, mirroring the
        // legacy per-λ rebuild's edge order (link order).
        let mut lambda = Vec::with_capacity(base.k());
        for li in 0..base.k() {
            let lam = Wavelength::new(li);
            let mut b = CsrBuilder::new(n);
            for (e, l) in base.graph().links() {
                let w = base.link_cost(e, lam);
                if w.is_finite() {
                    b.add_edge(
                        l.tail().index(),
                        l.head().index(),
                        w,
                        EdgeRole::Traversal {
                            link: e,
                            wavelength: lam,
                        },
                    );
                }
            }
            let graph = b.build();
            let mut edge_of_link = vec![NO_EDGE; m];
            for i in 0..graph.edge_count() {
                let (_, e) = graph.edge(i);
                if let EdgeRole::Traversal { link, .. } = e.role {
                    let Ok(ei) = u32::try_from(i) else {
                        unreachable!("aux edge count fits in u32 edge handles")
                    };
                    edge_of_link[link.index()] = ei;
                }
            }
            let mask = EdgeMask::all_clear(graph.edge_count());
            lambda.push(LambdaGraph {
                graph,
                mask,
                edge_of_link,
            });
        }

        ResidualState {
            mask: EdgeMask::all_clear(g.edge_count()),
            aux_edge,
            lambda,
            aux,
        }
    }

    /// The persistent `G_all` structure.
    pub fn aux(&self) -> &AuxiliaryGraph {
        &self.aux
    }

    /// The base network's global wavelength count `k`.
    pub fn k(&self) -> usize {
        self.lambda.len()
    }

    /// The aux traversal edge for `(link, λ)`, when the base carries it.
    fn aux_edge_of(&self, link: LinkId, wavelength: Wavelength) -> Option<usize> {
        let per_link = &self.aux_edge[link.index()];
        per_link
            .binary_search_by_key(&wavelength, |&(w, _)| w)
            .ok()
            .map(|pos| per_link[pos].1 as usize)
    }

    /// Marks `(link, λ)` busy (`true`) or free (`false`) in place
    /// through exclusive access — the single-threaded hot path (plain
    /// word ops, no atomic RMWs).
    ///
    /// Returns `false` — and changes nothing — when the base network does
    /// not carry `λ` on `link` (there is no corresponding traversal edge;
    /// an engine may still *account* such a pair as blocked, e.g. during a
    /// fibre cut, without consulting this structure). Setting a bit to its
    /// current value is a no-op. Either way the operation is `O(log k0)`
    /// and allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_busy(&mut self, link: LinkId, wavelength: Wavelength, busy: bool) -> bool {
        let Some(aux_idx) = self.aux_edge_of(link, wavelength) else {
            return false;
        };
        self.mask.set_to(aux_idx, busy);
        let lg = &mut self.lambda[wavelength.index()];
        let e = lg.edge_of_link[link.index()];
        debug_assert_ne!(e, NO_EDGE, "λ-graph edge exists whenever the aux edge does");
        lg.mask.set_to(e as usize, busy);
        true
    }

    /// Attempts to acquire `(link, λ)` through `&self` — the concurrent
    /// engine's flavour of [`set_busy`](Self::set_busy)`(…, true)`.
    ///
    /// On [`AcquireOutcome::Acquired`] the caller owns the resource and
    /// this call has flipped both the aux-graph bit and the λ-graph bit.
    /// The RMWs are relaxed (see `wdm_obs::ordering`): callers must
    /// bracket acquisitions with their own ordering protocol before
    /// concluding anything about *other* resources.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn try_acquire_shared(&self, link: LinkId, wavelength: Wavelength) -> AcquireOutcome {
        let Some(aux_idx) = self.aux_edge_of(link, wavelength) else {
            return AcquireOutcome::NoSuchResource;
        };
        if !self.mask.fetch_set(aux_idx) {
            return AcquireOutcome::Busy;
        }
        let lg = &self.lambda[wavelength.index()];
        let e = lg.edge_of_link[link.index()];
        debug_assert_ne!(e, NO_EDGE, "λ-graph edge exists whenever the aux edge does");
        // The caller now owns the resource, so this second flip cannot
        // race another owner of the same bit.
        lg.mask.fetch_set(e as usize);
        AcquireOutcome::Acquired
    }

    /// Releases `(link, λ)` through `&self` — the shared counterpart of
    /// [`set_busy`](Self::set_busy)`(…, false)`. Returns `false` when
    /// the base does not carry the resource (nothing changed). Releasing
    /// an already-free resource is a no-op; only the owner should call
    /// this (the concurrent engine's protocol guarantees it).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn release_shared(&self, link: LinkId, wavelength: Wavelength) -> bool {
        let Some(aux_idx) = self.aux_edge_of(link, wavelength) else {
            return false;
        };
        self.mask.fetch_clear(aux_idx);
        let lg = &self.lambda[wavelength.index()];
        let e = lg.edge_of_link[link.index()];
        debug_assert_ne!(e, NO_EDGE, "λ-graph edge exists whenever the aux edge does");
        lg.mask.fetch_clear(e as usize);
        true
    }

    /// Whether `(link, λ)` is currently masked busy.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn is_busy(&self, link: LinkId, wavelength: Wavelength) -> bool {
        match self.aux_edge_of(link, wavelength) {
            Some(idx) => self.mask.is_set(idx),
            None => false,
        }
    }

    /// Number of (link, λ) resources currently masked busy.
    pub fn busy_count(&self) -> usize {
        self.mask.set_count()
    }

    /// Frees every resource (e.g. after a full teardown).
    pub fn clear_busy(&mut self) {
        self.mask.clear_all();
        for lg in &mut self.lambda {
            lg.mask.clear_all();
        }
    }

    /// Cheapest semilightpath `s → t` on the residual network — the
    /// Theorem-1 query answered by one masked Dijkstra over the persistent
    /// `G_all`, with no construction and no allocation beyond the returned
    /// path. `s == t` yields the empty path; `None` means blocked.
    ///
    /// Costs (and blocked verdicts) are identical to routing on a freshly
    /// rebuilt residual `G_{s,t}`; see the module docs for the argument.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn route_optimal(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
    ) -> Option<Semilightpath> {
        if s == t {
            // An empty hop list never allocates (capacity 0).
            return Some(Semilightpath::new(Vec::default(), Cost::ZERO));
        }
        let (source, _) = self.aux.all_pairs_terminals(s);
        let (_, sink) = self.aux.all_pairs_terminals(t);
        scratch.ws.run_masked_to(
            self.aux.graph(),
            source,
            &mut scratch.heap,
            &self.mask,
            sink,
        );
        self.aux
            .extract_semilightpath_from(scratch.ws.dist(), scratch.ws.parent(), sink)
    }

    /// Whether `t` is reachable from `s` when **every** resource is
    /// free — i.e. on the unmasked persistent structure. Used to
    /// classify blocked requests: a pair that fails this probe is
    /// blocked by topology (`no_path`), anything else by occupancy.
    ///
    /// `s == t` is trivially reachable. The probe's search work is
    /// accumulated into the totals like any other run; callers that
    /// only meter hot-path searches should drain totals before probing
    /// and discard the probe's delta.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn reachable_when_free(&self, scratch: &mut SearchScratch, s: NodeId, t: NodeId) -> bool {
        if s == t {
            return true;
        }
        let (source, _) = self.aux.all_pairs_terminals(s);
        let (_, sink) = self.aux.all_pairs_terminals(t);
        scratch
            .ws
            .run_to(self.aux.graph(), source, &mut scratch.heap, sink);
        scratch.ws.dist()[sink].is_finite()
    }

    /// Like [`reachable_when_free`](Self::reachable_when_free) but with
    /// every wavelength of each link in `excluded` unavailable — the
    /// probe behind failed-link-aware blocked-cause classification:
    /// while fibres are cut, a pair whose only free-network routes
    /// crossed one of them is blocked by topology, not capacity.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or any excluded link is out of range.
    pub fn reachable_when_free_excluding(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        excluded: &[LinkId],
    ) -> bool {
        if s == t {
            return true;
        }
        if scratch.probe_aux.len() != self.aux.graph().edge_count() {
            scratch.probe_aux = EdgeMask::all_clear(self.aux.graph().edge_count());
        }
        for link in excluded {
            for &(_, idx) in &self.aux_edge[link.index()] {
                scratch.probe_aux.set(idx as usize);
            }
        }
        let (source, _) = self.aux.all_pairs_terminals(s);
        let (_, sink) = self.aux.all_pairs_terminals(t);
        scratch.ws.run_masked_to(
            self.aux.graph(),
            source,
            &mut scratch.heap,
            &scratch.probe_aux,
            sink,
        );
        let reachable = scratch.ws.dist()[sink].is_finite();
        for link in excluded {
            for &(_, idx) in &self.aux_edge[link.index()] {
                scratch.probe_aux.clear(idx as usize);
            }
        }
        reachable
    }

    /// Whether some **single** wavelength connects `s` to `t` when every
    /// resource is free — the no-conversion counterpart of
    /// [`reachable_when_free`](Self::reachable_when_free), matching what
    /// first-fit / lightpath-only policies could ever route.
    ///
    /// `s == t` returns `false`, mirroring
    /// [`route_single_wavelength`](Self::route_single_wavelength).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn reachable_when_free_single_wavelength(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
    ) -> bool {
        if s == t {
            return false;
        }
        for lg in &self.lambda {
            scratch
                .ws
                .run_to(&lg.graph, s.index(), &mut scratch.heap, t.index());
            if scratch.ws.dist()[t.index()].is_finite() {
                return true;
            }
        }
        false
    }

    /// The single-wavelength counterpart of
    /// [`reachable_when_free_excluding`](Self::reachable_when_free_excluding).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or any excluded link is out of range.
    pub fn reachable_when_free_single_wavelength_excluding(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        excluded: &[LinkId],
    ) -> bool {
        if s == t {
            return false;
        }
        if scratch.probe_lambda.len() != self.lambda.len() {
            scratch.probe_lambda = self
                .lambda
                .iter()
                .map(|lg| EdgeMask::all_clear(lg.graph.edge_count()))
                .collect();
        }
        for (lg, probe) in self.lambda.iter().zip(&mut scratch.probe_lambda) {
            for link in excluded {
                let e = lg.edge_of_link[link.index()];
                if e != NO_EDGE {
                    probe.set(e as usize);
                }
            }
            scratch
                .ws
                .run_masked_to(&lg.graph, s.index(), &mut scratch.heap, probe, t.index());
            let reachable = scratch.ws.dist()[t.index()].is_finite();
            for link in excluded {
                let e = lg.edge_of_link[link.index()];
                if e != NO_EDGE {
                    probe.clear(e as usize);
                }
            }
            if reachable {
                return true;
            }
        }
        false
    }

    /// Cheapest single-wavelength path `s → t` on wavelength `lambda` of
    /// the residual network (the lightpath-only building block). Mirrors
    /// the legacy per-λ rebuild exactly, including returning `None` for
    /// `s == t`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or `lambda` is out of range.
    pub fn route_single_wavelength(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        lambda: Wavelength,
    ) -> Option<Semilightpath> {
        if s == t {
            return None;
        }
        let lg = &self.lambda[lambda.index()];
        scratch
            .ws
            .run_masked_to(&lg.graph, s.index(), &mut scratch.heap, &lg.mask, t.index());
        let total = scratch.ws.dist()[t.index()];
        if total.is_infinite() {
            return None;
        }
        // One exact allocation for the returned path; the search itself
        // runs entirely in `scratch`.
        let mut hops = Vec::with_capacity(8);
        let mut at = t.index();
        while let Some((prev, edge_idx)) = scratch.ws.parent()[at] {
            let (_, edge) = lg.graph.edge(edge_idx);
            if let EdgeRole::Traversal { link, wavelength } = edge.role {
                hops.push(Hop { link, wavelength });
            }
            at = prev;
        }
        hops.reverse();
        Some(Semilightpath::new(hops, total))
    }
}

/// The persistent, maskable residual-routing structure for one base
/// network: one [`ResidualState`] bundled with one [`SearchScratch`]
/// behind a single-threaded API. After construction a request costs one
/// heap-driven Dijkstra and zero structural work.
///
/// Multi-threaded users split the halves instead: share the state (the
/// concurrent engine wraps it in an `Arc`) and give each thread its own
/// scratch via [`SearchScratch::for_state`].
///
/// # Examples
///
/// ```
/// use wdm_core::{Cost, PersistentAuxGraph, WdmNetwork, Wavelength};
/// use wdm_graph::{DiGraph, LinkId};
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let mut residual = PersistentAuxGraph::new(&net);
/// let p = residual.route_optimal(0.into(), 1.into()).expect("free");
/// assert_eq!(p.cost(), Cost::new(4));
/// residual.set_busy(LinkId::new(0), Wavelength::new(0), true);
/// assert!(residual.route_optimal(0.into(), 1.into()).is_none());
/// residual.set_busy(LinkId::new(0), Wavelength::new(0), false);
/// assert!(residual.route_optimal(0.into(), 1.into()).is_some());
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PersistentAuxGraph {
    state: ResidualState,
    scratch: SearchScratch,
}

impl PersistentAuxGraph {
    /// Builds the persistent structure for `base` with every resource
    /// free. This is the once-per-engine `O(k²n + km)` cost the per-request
    /// path no longer pays.
    pub fn new(base: &WdmNetwork) -> Self {
        let state = ResidualState::new(base);
        let scratch = SearchScratch::for_state(&state);
        PersistentAuxGraph { state, scratch }
    }

    /// Borrows both halves at once, for callers that route through the
    /// state API directly while holding the bundle.
    pub fn split_mut(&mut self) -> (&ResidualState, &mut SearchScratch) {
        (&self.state, &mut self.scratch)
    }

    /// The persistent `G_all` structure.
    pub fn aux(&self) -> &AuxiliaryGraph {
        self.state.aux()
    }

    /// Marks `(link, λ)` busy (`true`) or free (`false`) in place; see
    /// [`ResidualState::set_busy`].
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_busy(&mut self, link: LinkId, wavelength: Wavelength, busy: bool) -> bool {
        self.state.set_busy(link, wavelength, busy)
    }

    /// Whether `(link, λ)` is currently masked busy.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn is_busy(&self, link: LinkId, wavelength: Wavelength) -> bool {
        self.state.is_busy(link, wavelength)
    }

    /// Number of (link, λ) resources currently masked busy.
    pub fn busy_count(&self) -> usize {
        self.state.busy_count()
    }

    /// Frees every resource (e.g. after a full teardown).
    pub fn clear_busy(&mut self) {
        self.state.clear_busy();
    }

    /// Cheapest semilightpath `s → t` on the residual network; see
    /// [`ResidualState::route_optimal`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn route_optimal(&mut self, s: NodeId, t: NodeId) -> Option<Semilightpath> {
        self.state.route_optimal(&mut self.scratch, s, t)
    }

    /// Drains the search-operation totals accumulated by every routing
    /// call (optimal and per-λ alike) since the last drain; see
    /// [`SearchScratch::take_search_totals`].
    pub fn take_search_totals(&mut self) -> crate::SearchStats {
        self.scratch.take_search_totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, LiangShenRouter};
    use wdm_graph::DiGraph;

    /// 0 → 1 → 2 chain, two wavelengths everywhere, cheap conversion.
    fn chain() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    /// Routes on a freshly restricted clone — the legacy rebuild path.
    fn legacy_route(
        net: &WdmNetwork,
        busy: &[(usize, usize)],
        s: NodeId,
        t: NodeId,
    ) -> Option<Semilightpath> {
        let residual = net.restrict(|link, w| {
            !busy
                .iter()
                .any(|&(l, lam)| link.index() == l && w.index() == lam)
        });
        LiangShenRouter::new().route(&residual, s, t).ok()?.path
    }

    #[test]
    fn masked_route_matches_legacy_rebuild_costs() {
        let net = chain();
        let mut residual = PersistentAuxGraph::new(&net);
        let busy_sets: [&[(usize, usize)]; 4] = [
            &[],
            &[(0, 0)],
            &[(0, 0), (1, 1)],
            &[(0, 0), (0, 1)], // link 0 fully busy → blocked
        ];
        for busy in busy_sets {
            residual.clear_busy();
            for &(l, lam) in busy {
                assert!(residual.set_busy(LinkId::new(l), Wavelength::new(lam), true));
            }
            for (s, t) in [(0, 2), (0, 1), (1, 2), (2, 0)] {
                let masked = residual.route_optimal(NodeId::new(s), NodeId::new(t));
                let legacy = legacy_route(&net, busy, NodeId::new(s), NodeId::new(t));
                match (&masked, &legacy) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.cost(), b.cost(), "{busy:?} {s}->{t}");
                        a.validate(&net.restrict(|link, w| {
                            !busy
                                .iter()
                                .any(|&(l, lam)| link.index() == l && w.index() == lam)
                        }))
                        .expect("valid on residual");
                    }
                    (None, None) => {}
                    other => panic!("blocked-verdict mismatch for {busy:?} {s}->{t}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn flips_are_idempotent_and_reversible() {
        let net = chain();
        let mut residual = PersistentAuxGraph::new(&net);
        let link = LinkId::new(0);
        let lam = Wavelength::new(0);
        assert!(!residual.is_busy(link, lam));
        assert!(residual.set_busy(link, lam, true));
        assert!(residual.set_busy(link, lam, true), "idempotent set is ok");
        assert!(residual.is_busy(link, lam));
        assert_eq!(residual.busy_count(), 1);
        assert!(residual.set_busy(link, lam, false));
        assert_eq!(residual.busy_count(), 0);
        let before = residual.route_optimal(0.into(), 2.into()).expect("free");
        assert_eq!(before.cost(), Cost::new(20));
    }

    #[test]
    fn shared_acquire_matches_exclusive_set_busy() {
        let net = chain();
        let mut exclusive = PersistentAuxGraph::new(&net);
        let shared = ResidualState::new(&net);
        let mut scratch = SearchScratch::for_state(&shared);
        let link = LinkId::new(0);
        let lam = Wavelength::new(0);
        assert_eq!(
            shared.try_acquire_shared(link, lam),
            AcquireOutcome::Acquired
        );
        assert_eq!(shared.try_acquire_shared(link, lam), AcquireOutcome::Busy);
        exclusive.set_busy(link, lam, true);
        // Same busy state → same routes, both flavours.
        for (s, t) in [(0, 2), (0, 1), (1, 2)] {
            let a = exclusive.route_optimal(NodeId::new(s), NodeId::new(t));
            let b = shared.route_optimal(&mut scratch, NodeId::new(s), NodeId::new(t));
            assert_eq!(a.map(|p| p.cost()), b.map(|p| p.cost()), "{s}->{t}");
        }
        assert!(shared.release_shared(link, lam));
        assert_eq!(shared.busy_count(), 0);
        // Absent resources are reported, not flipped.
        let g = DiGraph::from_links(2, [(0, 1)]);
        let sparse = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(1, 5)])
            .build()
            .expect("valid");
        let st = ResidualState::new(&sparse);
        assert_eq!(
            st.try_acquire_shared(LinkId::new(0), Wavelength::new(0)),
            AcquireOutcome::NoSuchResource
        );
        assert!(!st.release_shared(LinkId::new(0), Wavelength::new(2)));
    }

    #[test]
    fn excluding_probes_mask_only_the_excluded_link() {
        let net = chain();
        let state = ResidualState::new(&net);
        let mut scratch = SearchScratch::for_state(&state);
        // Free network: 0 → 2 reachable, also on a single wavelength.
        assert!(state.reachable_when_free(&mut scratch, 0.into(), 2.into()));
        assert!(state.reachable_when_free_single_wavelength(&mut scratch, 0.into(), 2.into()));
        // Excluding the only middle link cuts 0 → 2 but not 0 → 1.
        let cut = [LinkId::new(1)];
        assert!(!state.reachable_when_free_excluding(&mut scratch, 0.into(), 2.into(), &cut));
        assert!(state.reachable_when_free_excluding(&mut scratch, 0.into(), 1.into(), &cut));
        assert!(!state.reachable_when_free_single_wavelength_excluding(
            &mut scratch,
            0.into(),
            2.into(),
            &cut
        ));
        assert!(state.reachable_when_free_single_wavelength_excluding(
            &mut scratch,
            0.into(),
            1.into(),
            &cut
        ));
        // An empty exclusion set degenerates to the plain probe; a
        // multi-link set masks every listed link at once.
        assert!(state.reachable_when_free_excluding(&mut scratch, 0.into(), 2.into(), &[]));
        assert!(!state.reachable_when_free_excluding(
            &mut scratch,
            0.into(),
            1.into(),
            &[LinkId::new(0), LinkId::new(1)]
        ));
        // The probe masks are scratch-local and restored after each call:
        // the same probes answer identically a second time, and normal
        // routing still sees a fully free network.
        assert!(!state.reachable_when_free_excluding(&mut scratch, 0.into(), 2.into(), &cut));
        assert!(state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .is_some());
        assert_eq!(state.busy_count(), 0);
    }

    #[test]
    fn absent_wavelength_flip_is_a_reported_no_op() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(1, 5)])
            .build()
            .expect("valid");
        let mut residual = PersistentAuxGraph::new(&net);
        // λ0 and λ2 are not carried by link 0: flips report false and
        // leave routing untouched (a fibre-cut engine may mark all k).
        assert!(!residual.set_busy(LinkId::new(0), Wavelength::new(0), true));
        assert!(!residual.set_busy(LinkId::new(0), Wavelength::new(2), true));
        assert_eq!(residual.busy_count(), 0);
        assert!(residual.route_optimal(0.into(), 1.into()).is_some());
    }

    #[test]
    fn single_wavelength_routes_respect_masks() {
        let net = chain();
        let mut state = ResidualState::new(&net);
        let mut scratch = SearchScratch::for_state(&state);
        let p = state
            .route_single_wavelength(&mut scratch, 0.into(), 2.into(), Wavelength::new(0))
            .expect("λ0 free");
        assert_eq!(p.cost(), Cost::new(20));
        assert!(p.is_lightpath());
        state.set_busy(LinkId::new(1), Wavelength::new(0), true);
        assert!(state
            .route_single_wavelength(&mut scratch, 0.into(), 2.into(), Wavelength::new(0))
            .is_none());
        let alt = state
            .route_single_wavelength(&mut scratch, 0.into(), 2.into(), Wavelength::new(1))
            .expect("λ1 free");
        assert_eq!(alt.cost(), Cost::new(24));
        // s == t mirrors the legacy routine's None.
        assert!(state
            .route_single_wavelength(&mut scratch, 1.into(), 1.into(), Wavelength::new(0))
            .is_none());
    }

    #[test]
    fn trivial_and_blocked_queries() {
        let net = chain();
        let mut residual = PersistentAuxGraph::new(&net);
        let empty = residual.route_optimal(1.into(), 1.into()).expect("s == t");
        assert!(empty.is_empty());
        assert_eq!(empty.cost(), Cost::ZERO);
        // 2 has no outgoing links.
        assert!(residual.route_optimal(2.into(), 0.into()).is_none());
    }

    #[test]
    fn search_totals_accumulate_across_requests_and_drain() {
        let net = chain();
        let mut residual = PersistentAuxGraph::new(&net);
        assert_eq!(residual.take_search_totals(), Default::default());
        residual.route_optimal(0.into(), 2.into()).expect("free");
        let one = residual.take_search_totals();
        assert!(one.settled > 0 && one.relaxed > 0 && one.pushes > 0);
        // Two identical requests cost exactly twice one request.
        residual.route_optimal(0.into(), 2.into()).expect("free");
        residual.route_optimal(0.into(), 2.into()).expect("free");
        let mut twice = crate::SearchStats::default();
        twice.accumulate(&one);
        twice.accumulate(&one);
        assert_eq!(residual.take_search_totals(), twice);
        // Masked searches report their skips.
        residual.set_busy(LinkId::new(0), Wavelength::new(0), true);
        residual.route_optimal(0.into(), 2.into()).expect("λ1 free");
        assert!(residual.take_search_totals().masked_skips > 0);
        // s == t short-circuits without touching the kernels.
        residual.route_optimal(1.into(), 1.into()).expect("trivial");
        assert_eq!(residual.take_search_totals(), Default::default());
    }

    #[test]
    fn free_reachability_ignores_masks() {
        let net = chain();
        let mut residual = PersistentAuxGraph::new(&net);
        // Saturate link 0 completely: routing blocks, but the free
        // topology still connects 0 → 2.
        residual.set_busy(LinkId::new(0), Wavelength::new(0), true);
        residual.set_busy(LinkId::new(0), Wavelength::new(1), true);
        assert!(residual.route_optimal(0.into(), 2.into()).is_none());
        let (state, scratch) = residual.split_mut();
        assert!(state.reachable_when_free(scratch, 0.into(), 2.into()));
        // Node 2 has no outgoing links: blocked by topology.
        assert!(!state.reachable_when_free(scratch, 2.into(), 0.into()));
        assert!(state.reachable_when_free(scratch, 1.into(), 1.into()));
    }

    #[test]
    fn clone_preserves_mask_state() {
        let net = chain();
        let mut residual = PersistentAuxGraph::new(&net);
        residual.set_busy(LinkId::new(0), Wavelength::new(0), true);
        let mut copy = residual.clone();
        assert!(copy.is_busy(LinkId::new(0), Wavelength::new(0)));
        assert_eq!(
            copy.route_optimal(0.into(), 2.into()).map(|p| p.cost()),
            residual.route_optimal(0.into(), 2.into()).map(|p| p.cost())
        );
    }

    #[test]
    fn concurrent_search_while_flipping_is_memory_safe() {
        // Two searcher threads route while a flipper thread toggles a
        // resource: every observed outcome must be one of the two legal
        // states (λ0 busy or free), never a torn hybrid.
        let net = chain();
        let state = ResidualState::new(&net);
        let link = LinkId::new(0);
        let lam = Wavelength::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut scratch = SearchScratch::for_state(&state);
                    for _ in 0..200 {
                        let p = state.route_optimal(&mut scratch, 0.into(), 2.into());
                        let cost = p.expect("λ1 always free").cost();
                        assert!(
                            cost == Cost::new(20) || cost == Cost::new(24) || cost == Cost::new(23),
                            "cost {cost:?} must come from a legal mask state"
                        );
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..200 {
                    if state.try_acquire_shared(link, lam) == AcquireOutcome::Acquired {
                        state.release_shared(link, lam);
                    }
                }
            });
        });
        assert!(!state.is_busy(link, lam) || state.busy_count() <= 1);
    }
}
