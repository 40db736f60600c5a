//! Dijkstra's algorithm over the CSR search graphs, generic in the heap.
//!
//! Theorem 1's running time rests on Dijkstra with a Fibonacci heap
//! (`O(m' + n'·log n')` on a graph with `n'` nodes and `m'` edges); the CFZ
//! baseline of Section III-C is charged with an array-scan Dijkstra
//! (`O(n'² + m')`). Both are the same relaxation loop over a different
//! [`IndexedPriorityQueue`], so this module implements it once, generically,
//! and dispatches on [`HeapKind`] for run-time selection.
//!
//! The same loop also runs goal-directed (A\*, Hart, Nilsson & Raphael
//! 1968) when handed a `Potential`: queue keys become `g + h`, while
//! [`DijkstraWorkspace::dist`] keeps holding `g`. With a consistent `h`
//! (`h(u) ≤ c(u, v) + h(v)` on every edge) the keys pop in
//! non-decreasing order, so every queue — the monotone radix heap
//! included — stays valid, and a truncated run's target distance and
//! path are exact.

use crate::csr::{CsrGraph, EdgeMask};
use crate::Cost;
use heaps::{
    ArrayHeap, BinaryHeap, FibonacciHeap, HeapKind, IndexedPriorityQueue, LeftistHeap, PairingHeap,
    RadixHeap, SkewHeap,
};

/// Operation counters from one search-kernel run, for the experiment
/// tables and the observability layer.
///
/// The heap-operation counts are derived inside the relaxation loop
/// rather than by instrumenting the [`IndexedPriorityQueue`] trait:
/// an improvement on a node whose tentative distance was still infinite
/// is a `push`, an improvement on a finite one is an effective
/// `decrease_key`, and `pop_min`s equal [`settled`](Self::settled).
/// Counting here keeps every heap implementation untouched and costs
/// one branch that the optimizer folds into the existing infinity
/// check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes settled (`pop_min` count).
    pub settled: usize,
    /// Edges relaxed (out-edges scanned from settled nodes).
    pub relaxed: usize,
    /// Successful queue improvements (`push` or effective `decrease_key`).
    pub improved: usize,
    /// Edges skipped because their dense index was set in the mask.
    pub masked_skips: usize,
    /// Queue insertions (first-time improvements plus the source push).
    pub pushes: usize,
    /// Effective key decreases (improvements on already-queued nodes).
    pub decrease_keys: usize,
}

impl SearchStats {
    /// Adds `other`'s counters into `self` (used for per-workspace
    /// running totals).
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.settled += other.settled;
        self.relaxed += other.relaxed;
        self.improved += other.improved;
        self.masked_skips += other.masked_skips;
        self.pushes += other.pushes;
        self.decrease_keys += other.decrease_keys;
    }
}

/// Former name of [`SearchStats`], kept for the experiment tables and
/// downstream callers.
pub type DijkstraStats = SearchStats;

/// A lower bound on the remaining cost to one target, shared by the
/// search-graph nodes that stand for one physical node: node `v`'s
/// bound is `h[node_of[v]]`.
///
/// The bound must be *consistent* — `h(u) ≤ c(u, v) + h(v)` on every
/// edge the search may relax, and `0` at the target — or the keys of a
/// monotone queue go backwards (the radix heap panics) and a truncated
/// run may settle the target too early. `Cost::INFINITY` marks a node
/// that cannot reach the target; the search never queues it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Potential<'a> {
    /// Physical node of each search-graph node.
    pub(crate) node_of: &'a [u32],
    /// Bound per physical node.
    pub(crate) h: &'a [Cost],
}

/// A shortest-path tree: per-node distance and parent pointers.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// `dist[v]` — cost of the shortest path from the source
    /// ([`Cost::INFINITY`] when unreachable).
    pub dist: Vec<Cost>,
    /// `parent[v] = (u, edge_index)` — the tree edge entering `v`.
    pub parent: Vec<Option<(usize, usize)>>,
    /// The source node the tree is rooted at.
    pub source: usize,
    /// Operation counters.
    pub stats: DijkstraStats,
}

impl ShortestPathTree {
    /// The aux-node path from the root to `target` (inclusive), or `None`
    /// when unreachable.
    pub fn path_to(&self, target: usize) -> Option<Vec<usize>> {
        if self.dist[target].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut at = target;
        while let Some((prev, _)) = self.parent[at] {
            path.push(prev);
            at = prev;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }
}

/// Reusable arenas for repeated Dijkstra runs over one graph.
///
/// Running `n` searches over the shared all-pairs auxiliary graph
/// (Corollary 1) allocates two `O(kn)` vectors per search when done
/// naively. A workspace keeps those arenas — distance and parent —
/// alive across runs so each subsequent search only pays an `O(kn)`
/// refill (a memset-speed fill, no allocator traffic).
/// Combined with a reused heap (see [`IndexedPriorityQueue::clear`]),
/// one source tree runs allocation-free after the first.
///
/// The computed tree is read in place via [`dist`](Self::dist) /
/// [`parent`](Self::parent), or materialized with
/// [`to_tree`](Self::to_tree) / [`into_tree`](Self::into_tree).
///
/// # Examples
///
/// ```
/// use heaps::{FibonacciHeap, IndexedPriorityQueue};
/// use wdm_core::{dijkstra::DijkstraWorkspace, AuxiliaryGraph, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let aux = AuxiliaryGraph::for_pair(&net, 0.into(), 1.into());
/// let mut ws = DijkstraWorkspace::new();
/// let mut queue = FibonacciHeap::with_capacity(aux.graph().node_count());
/// ws.run(aux.graph(), aux.super_source().unwrap(), &mut queue);
/// assert_eq!(ws.dist()[aux.super_sink().unwrap()], wdm_core::Cost::new(4));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<Cost>,
    parent: Vec<Option<(usize, usize)>>,
    stats: SearchStats,
    totals: SearchStats,
    source: usize,
}

impl DijkstraWorkspace {
    /// An empty workspace; arenas grow on first [`run`](Self::run).
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace with arenas pre-sized for an `n`-node graph.
    pub fn with_capacity(n: usize) -> Self {
        DijkstraWorkspace {
            dist: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            stats: SearchStats::default(),
            totals: SearchStats::default(),
            source: 0,
        }
    }

    /// Resets the arenas for a graph of `n` nodes.
    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, Cost::INFINITY);
        self.parent.clear();
        self.parent.resize(n, None);
        self.stats = SearchStats::default();
    }

    /// Runs Dijkstra from `source`, reusing this workspace's arenas and
    /// the caller's `queue` (cleared here before use).
    ///
    /// The result is identical to [`dijkstra`] with the same heap type:
    /// arena reuse changes where the vectors live, never the sequence of
    /// queue operations, so distances, parents, and stats are
    /// bit-for-bit the same.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `queue` was created with a
    /// capacity below the graph's node count (the indexed heaps address
    /// items `0..capacity` and do not grow).
    pub fn run<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
    ) {
        self.run_inner(graph, source, queue, None, None, None);
    }

    /// Runs Dijkstra from `source`, skipping edges whose dense index is
    /// set in `mask`.
    ///
    /// Equivalent to deleting the masked edges and running
    /// [`run`](Self::run): the relaxation visits the surviving edges in
    /// the same order either way, so distances and parents match a
    /// physically rebuilt subgraph with identical edge layout.
    ///
    /// # Panics
    ///
    /// Panics as [`run`](Self::run) does, and additionally if
    /// `mask.len()` differs from the graph's edge count.
    pub fn run_masked<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        mask: &EdgeMask,
    ) {
        self.run_inner(graph, source, queue, Some(mask), None, None);
    }

    /// Like [`run_masked`](Self::run_masked) but stops as soon as
    /// `target` is settled.
    ///
    /// `dist[target]`, and every parent pointer on the tree path from
    /// `source` to `target`, are final and identical to a full run —
    /// Dijkstra settles nodes in nondecreasing distance order, so the
    /// chain of parents behind a settled node never changes afterwards.
    /// Distances of nodes not yet settled at cut-off are unspecified;
    /// read only the target's path after a truncated run.
    // wdm-lint: hot-path
    pub fn run_masked_to<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        mask: &EdgeMask,
        target: usize,
    ) {
        self.run_inner(graph, source, queue, Some(mask), Some(target), None);
    }

    /// Goal-directed [`run_masked_to`](Self::run_masked_to): the queue is
    /// keyed by `g + h` for the consistent lower bound `potential`, and
    /// nodes whose bound is infinite are never queued.
    ///
    /// `dist[target]` and the parent chain behind it are exactly those
    /// of the unguided run up to ties among equal-cost paths; the
    /// search settles only the nodes whose `g + h` is below the target's
    /// distance (plus ties), rather than every node closer to `source`.
    ///
    /// # Panics
    ///
    /// Panics as [`run_masked_to`](Self::run_masked_to) does. An
    /// inconsistent potential makes a monotone queue panic on a
    /// backwards key.
    // wdm-lint: hot-path
    pub(crate) fn run_masked_guided_to<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        mask: &EdgeMask,
        target: usize,
        potential: Potential<'_>,
    ) {
        self.run_inner(
            graph,
            source,
            queue,
            Some(mask),
            Some(target),
            Some(potential),
        );
    }

    /// Like [`run`](Self::run) but stops as soon as `target` is settled
    /// — the unmasked counterpart of
    /// [`run_masked_to`](Self::run_masked_to), used for reachability
    /// probes on the free topology (blocked-cause classification).
    pub fn run_to<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        target: usize,
    ) {
        self.run_inner(graph, source, queue, None, Some(target), None);
    }

    // wdm-lint: hot-path
    fn run_inner<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        mask: Option<&EdgeMask>,
        until: Option<usize>,
        potential: Option<Potential<'_>>,
    ) {
        let n = graph.node_count();
        assert!(source < n, "source {source} out of range");
        assert!(
            queue.capacity() >= n,
            "queue capacity {} below node count {n}",
            queue.capacity()
        );
        if let Some(mask) = mask {
            assert_eq!(mask.len(), graph.edge_count(), "one mask bit per edge");
        }
        if let Some(p) = potential {
            assert_eq!(p.node_of.len(), n, "one potential slot per node");
        }
        self.reset(n);
        self.source = source;
        queue.clear();
        // Unguided runs key by `g` alone (h ≡ 0).
        let h = |v: usize| potential.map_or(Cost::ZERO, |p| p.h[p.node_of[v] as usize]);

        self.dist[source] = Cost::ZERO;
        let source_key = h(source);
        if source_key.is_finite() {
            queue.push(source, source_key);
            self.stats.pushes += 1;
        }

        while let Some((u, key)) = queue.pop_min() {
            // The queue holds g + h; the arena holds g.
            let du = self.dist[u];
            debug_assert_eq!(key, du + h(u));
            self.stats.settled += 1;
            if until == Some(u) {
                break;
            }
            let (first, targets, costs) = graph.out_slices(u);
            for (offset, (&v, &cost)) in targets.iter().zip(costs).enumerate() {
                let index = first + offset;
                if mask.is_some_and(|m| m.is_set(index)) {
                    self.stats.masked_skips += 1;
                    continue;
                }
                self.stats.relaxed += 1;
                let v = v as usize;
                // A settled v has dist[v] <= candidate, so it never
                // passes this test: costs are non-negative and h is
                // consistent, so keys pop in non-decreasing order.
                let candidate = du + cost;
                if candidate < self.dist[v] {
                    // A node that cannot reach the target is never
                    // queued (nor given a distance).
                    let hv = h(v);
                    if hv.is_infinite() {
                        continue;
                    }
                    // An unsettled node with a finite distance is already
                    // queued, so the improvement is a decrease-key; an
                    // infinite one means this is v's first insertion.
                    let queued = self.dist[v].is_finite();
                    self.dist[v] = candidate;
                    self.parent[v] = Some((u, index));
                    if queued {
                        queue.decrease_key(v, candidate + hv);
                        self.stats.decrease_keys += 1;
                    } else {
                        queue.push(v, candidate + hv);
                        self.stats.pushes += 1;
                    }
                    self.stats.improved += 1;
                }
            }
        }
        self.totals.accumulate(&self.stats);
    }

    /// Distances from the last run's source.
    pub fn dist(&self) -> &[Cost] {
        &self.dist
    }

    /// Parent pointers from the last run.
    pub fn parent(&self) -> &[Option<(usize, usize)>] {
        &self.parent
    }

    /// Operation counters from the last run.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Running totals accumulated over every run since the last
    /// [`take_totals`](Self::take_totals).
    ///
    /// The totals are plain workspace fields bumped alongside the
    /// per-run counters — no atomics on the search path. A metrics
    /// flush drains them with `take_totals` and feeds the deltas into
    /// shared `wdm-obs` counters at whatever cadence it likes.
    pub fn totals(&self) -> SearchStats {
        self.totals
    }

    /// Returns the running totals and resets them to zero.
    pub fn take_totals(&mut self) -> SearchStats {
        std::mem::take(&mut self.totals)
    }

    /// The source of the last run.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Clones the last run's result into an owned tree (the workspace
    /// stays usable).
    pub fn to_tree(&self) -> ShortestPathTree {
        ShortestPathTree {
            dist: self.dist.clone(),
            parent: self.parent.clone(),
            source: self.source,
            stats: self.stats,
        }
    }

    /// Moves the last run's result into an owned tree without copying.
    pub fn into_tree(self) -> ShortestPathTree {
        ShortestPathTree {
            dist: self.dist,
            parent: self.parent,
            source: self.source,
            stats: self.stats,
        }
    }
}

/// Runs Dijkstra from `source` using heap `Q`.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Examples
///
/// ```
/// use heaps::FibonacciHeap;
/// use wdm_core::{AuxiliaryGraph, dijkstra, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let aux = AuxiliaryGraph::for_pair(&net, 0.into(), 1.into());
/// let tree = dijkstra::<FibonacciHeap<_>>(aux.graph(), aux.super_source().unwrap());
/// assert_eq!(tree.dist[aux.super_sink().unwrap()], wdm_core::Cost::new(4));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn dijkstra<Q: IndexedPriorityQueue<Cost>>(
    graph: &CsrGraph,
    source: usize,
) -> ShortestPathTree {
    let mut ws = DijkstraWorkspace::with_capacity(graph.node_count());
    let mut queue = Q::with_capacity(graph.node_count());
    ws.run(graph, source, &mut queue);
    ws.into_tree()
}

/// Runs Dijkstra from `source` on the subgraph that excludes every edge
/// whose dense index is set in `mask`.
///
/// One-shot convenience over [`DijkstraWorkspace::run_masked`]; repeated
/// searches should hold a workspace and heap instead so the arenas are
/// reused.
///
/// # Panics
///
/// Panics if `source` is out of range or `mask.len()` differs from the
/// graph's edge count.
pub fn dijkstra_masked<Q: IndexedPriorityQueue<Cost>>(
    graph: &CsrGraph,
    source: usize,
    mask: &EdgeMask,
) -> ShortestPathTree {
    let mut ws = DijkstraWorkspace::with_capacity(graph.node_count());
    let mut queue = Q::with_capacity(graph.node_count());
    ws.run_masked(graph, source, &mut queue, mask);
    ws.into_tree()
}

/// Runs Dijkstra with a run-time-selected heap.
pub fn dijkstra_with(kind: HeapKind, graph: &CsrGraph, source: usize) -> ShortestPathTree {
    match kind {
        HeapKind::Fibonacci => dijkstra::<FibonacciHeap<Cost>>(graph, source),
        HeapKind::Pairing => dijkstra::<PairingHeap<Cost>>(graph, source),
        HeapKind::Binary => dijkstra::<BinaryHeap<Cost>>(graph, source),
        HeapKind::Array => dijkstra::<ArrayHeap<Cost>>(graph, source),
        HeapKind::Skew => dijkstra::<SkewHeap<Cost>>(graph, source),
        HeapKind::Leftist => dijkstra::<LeftistHeap<Cost>>(graph, source),
        HeapKind::Radix => dijkstra::<RadixHeap<Cost>>(graph, source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrBuilder, EdgeRole};

    /// Small weighted digraph with a known shortest-path structure.
    fn diamond() -> CsrGraph {
        //      1
        //   /     \
        //  0       3 — 4
        //   \     /
        //      2
        let mut b = CsrBuilder::new(5);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::new(1), t);
        b.add_edge(0, 2, Cost::new(4), t);
        b.add_edge(1, 3, Cost::new(10), t);
        b.add_edge(2, 3, Cost::new(2), t);
        b.add_edge(3, 4, Cost::new(3), t);
        b.add_edge(1, 2, Cost::new(1), t);
        b.build()
    }

    fn check_diamond(tree: &ShortestPathTree) {
        assert_eq!(tree.dist[0], Cost::ZERO);
        assert_eq!(tree.dist[1], Cost::new(1));
        assert_eq!(tree.dist[2], Cost::new(2)); // 0→1→2
        assert_eq!(tree.dist[3], Cost::new(4)); // 0→1→2→3
        assert_eq!(tree.dist[4], Cost::new(7));
        assert_eq!(tree.path_to(4), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn all_heaps_agree_on_diamond() {
        let g = diamond();
        for kind in HeapKind::ALL {
            let tree = dijkstra_with(kind, &g, 0);
            check_diamond(&tree);
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::new(1), EdgeRole::Tap);
        let g = b.build();
        let tree = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist[2], Cost::INFINITY);
        assert_eq!(tree.path_to(2), None);
        assert_eq!(tree.parent[2], None);
    }

    #[test]
    fn zero_cost_cycles_terminate() {
        let mut b = CsrBuilder::new(3);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::ZERO, t);
        b.add_edge(1, 2, Cost::ZERO, t);
        b.add_edge(2, 0, Cost::ZERO, t);
        let g = b.build();
        let tree = dijkstra::<BinaryHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist, vec![Cost::ZERO; 3]);
        assert_eq!(tree.stats.settled, 3);
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut b = CsrBuilder::new(2);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::new(9), t);
        b.add_edge(0, 1, Cost::new(2), t);
        b.add_edge(0, 1, Cost::new(5), t);
        let g = b.build();
        let tree = dijkstra::<PairingHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist[1], Cost::new(2));
        let (_, e) = g.edge(tree.parent[1].expect("has parent").1);
        assert_eq!(e.cost, Cost::new(2));
    }

    #[test]
    fn stats_count_work() {
        let g = diamond();
        let tree = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(tree.stats.settled, 5);
        assert_eq!(tree.stats.relaxed, 6);
        assert!(tree.stats.improved >= 5);
    }

    #[test]
    fn single_node_graph() {
        let g = CsrBuilder::new(1).build();
        let tree = dijkstra::<ArrayHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist, vec![Cost::ZERO]);
        assert_eq!(tree.path_to(0), Some(vec![0]));
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        // Several consecutive runs through the same arenas and heap must
        // reproduce the one-shot entry point exactly.
        for source in [0, 3, 0, 2, 4, 0] {
            ws.run(&g, source, &mut queue);
            let fresh = dijkstra::<FibonacciHeap<Cost>>(&g, source);
            assert_eq!(ws.dist(), &fresh.dist[..], "dist from {source}");
            assert_eq!(ws.parent(), &fresh.parent[..], "parent from {source}");
            assert_eq!(ws.stats(), fresh.stats, "stats from {source}");
            assert_eq!(ws.source(), source);
            let tree = ws.to_tree();
            assert_eq!(tree.dist, fresh.dist);
            assert_eq!(tree.path_to(4), fresh.path_to(4));
        }
    }

    #[test]
    fn masked_run_matches_rebuilt_subgraph() {
        let g = diamond();
        // Mask the 0→1 edge (index 0): shortest route to 4 becomes 0→2→3→4.
        let mut mask = EdgeMask::all_clear(g.edge_count());
        mask.set(0);
        let masked = dijkstra_masked::<FibonacciHeap<Cost>>(&g, 0, &mask);
        // Rebuild the same subgraph physically and compare dist values.
        let mut b = CsrBuilder::new(5);
        for i in 1..g.edge_count() {
            let (s, e) = g.edge(i);
            b.add_edge(s, e.target, e.cost, e.role);
        }
        let rebuilt = dijkstra::<FibonacciHeap<Cost>>(&b.build(), 0);
        assert_eq!(masked.dist, rebuilt.dist);
        assert_eq!(masked.dist[4], Cost::new(9));
        assert_eq!(masked.path_to(4), Some(vec![0, 2, 3, 4]));
        // An all-clear mask reproduces the unmasked run exactly.
        let clear = EdgeMask::all_clear(g.edge_count());
        let unmasked = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        let via_clear = dijkstra_masked::<FibonacciHeap<Cost>>(&g, 0, &clear);
        assert_eq!(via_clear.dist, unmasked.dist);
        assert_eq!(via_clear.parent, unmasked.parent);
        assert_eq!(via_clear.stats, unmasked.stats);
    }

    #[test]
    fn truncated_run_finalizes_target_path() {
        let g = diamond();
        let mask = EdgeMask::all_clear(g.edge_count());
        let full = dijkstra_masked::<FibonacciHeap<Cost>>(&g, 0, &mask);
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        for target in 0..g.node_count() {
            ws.run_masked_to(&g, 0, &mut queue, &mask, target);
            assert_eq!(ws.dist()[target], full.dist[target], "dist to {target}");
            // Walk the parent chain: it must reproduce the full run's path.
            let mut path = vec![target];
            let mut at = target;
            while let Some((prev, _)) = ws.parent()[at] {
                path.push(prev);
                at = prev;
            }
            path.reverse();
            assert_eq!(Some(path), full.path_to(target), "path to {target}");
            assert!(ws.stats().settled <= full.stats.settled);
        }
    }

    #[test]
    fn heap_op_counters_balance() {
        let g = diamond();
        for kind in HeapKind::ALL {
            let tree = dijkstra_with(kind, &g, 0);
            let s = tree.stats;
            // Every improvement is a push or a decrease-key; the source
            // push is the only queue insertion with no improvement.
            assert_eq!(s.pushes + s.decrease_keys, s.improved + 1, "{kind:?}");
            // Pops (settled) can never exceed insertions.
            assert!(s.settled <= s.pushes, "{kind:?}");
            assert_eq!(s.masked_skips, 0, "{kind:?}");
        }
    }

    #[test]
    fn masked_skips_count_suppressed_edges() {
        let g = diamond();
        // Mask 0→1 (index 0): it is scanned exactly once, from node 0.
        let mut mask = EdgeMask::all_clear(g.edge_count());
        mask.set(0);
        let tree = dijkstra_masked::<FibonacciHeap<Cost>>(&g, 0, &mask);
        assert_eq!(tree.stats.masked_skips, 1);
        let full = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(full.stats.masked_skips, 0);
    }

    #[test]
    fn workspace_totals_accumulate_and_drain() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        ws.run(&g, 0, &mut queue);
        let single = ws.stats();
        ws.run(&g, 0, &mut queue);
        let totals = ws.totals();
        assert_eq!(totals.settled, 2 * single.settled);
        assert_eq!(totals.relaxed, 2 * single.relaxed);
        assert_eq!(totals.pushes, 2 * single.pushes);
        let drained = ws.take_totals();
        assert_eq!(drained, totals);
        assert_eq!(ws.totals(), SearchStats::default());
        // Per-run stats are untouched by the drain.
        assert_eq!(ws.stats(), single);
    }

    #[test]
    fn run_to_matches_full_run_on_target() {
        let g = diamond();
        let full = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        for target in 0..g.node_count() {
            ws.run_to(&g, 0, &mut queue, target);
            assert_eq!(ws.dist()[target], full.dist[target], "dist to {target}");
            assert!(ws.stats().settled <= full.stats.settled);
        }
    }

    /// `h[v]` = exact distance `v → target` on `g` (node ids are their
    /// own physical nodes).
    fn exact_potential(g: &CsrGraph, target: usize) -> Vec<Cost> {
        (0..g.node_count())
            .map(|v| dijkstra::<BinaryHeap<Cost>>(g, v).dist[target])
            .collect()
    }

    #[test]
    fn zero_potential_reproduces_unguided_run() {
        let g = diamond();
        let ids: Vec<u32> = (0..5).collect();
        let zero = vec![Cost::ZERO; 5];
        let mut masks = vec![EdgeMask::all_clear(g.edge_count())];
        masks.push(EdgeMask::all_clear(g.edge_count()));
        masks[1].set(0);
        let mut plain = DijkstraWorkspace::new();
        let mut guided = DijkstraWorkspace::new();
        let mut queue: RadixHeap<Cost> = RadixHeap::with_capacity(g.node_count());
        for mask in &masks {
            for target in 0..g.node_count() {
                plain.run_masked_to(&g, 0, &mut queue, mask, target);
                let potential = Potential {
                    node_of: &ids,
                    h: &zero,
                };
                guided.run_masked_guided_to(&g, 0, &mut queue, mask, target, potential);
                assert_eq!(guided.dist(), plain.dist(), "dist to {target}");
                assert_eq!(guided.parent(), plain.parent(), "parent to {target}");
                assert_eq!(guided.stats(), plain.stats(), "stats to {target}");
            }
        }
        assert_eq!(guided.totals(), plain.totals());
    }

    #[test]
    fn guided_run_settles_no_more_than_unguided() {
        let g = diamond();
        let ids: Vec<u32> = (0..5).collect();
        let mask = EdgeMask::all_clear(g.edge_count());
        let mut plain = DijkstraWorkspace::new();
        let mut guided = DijkstraWorkspace::new();
        let mut queue: RadixHeap<Cost> = RadixHeap::with_capacity(g.node_count());
        for target in 0..g.node_count() {
            let h = exact_potential(&g, target);
            let potential = Potential {
                node_of: &ids,
                h: &h,
            };
            for source in 0..g.node_count() {
                plain.run_masked_to(&g, source, &mut queue, &mask, target);
                guided.run_masked_guided_to(&g, source, &mut queue, &mask, target, potential);
                assert_eq!(
                    guided.dist()[target],
                    plain.dist()[target],
                    "{source}->{target}"
                );
                assert!(
                    guided.stats().settled <= plain.stats().settled,
                    "{source}->{target}: guided {:?} vs plain {:?}",
                    guided.stats(),
                    plain.stats()
                );
            }
        }
    }

    #[test]
    fn infinite_potential_nodes_are_never_queued() {
        // Toward 2, nodes 3 and 4 are dead ends (3 → 4 only). The plain
        // run queues 3 (via 1 → 3) before settling 2; the guided run
        // never gives it a distance.
        let g = diamond();
        let ids: Vec<u32> = (0..5).collect();
        let mask = EdgeMask::all_clear(g.edge_count());
        let h = exact_potential(&g, 2);
        assert!(h[3].is_infinite() && h[4].is_infinite());
        let mut ws = DijkstraWorkspace::new();
        let mut queue: RadixHeap<Cost> = RadixHeap::with_capacity(g.node_count());
        ws.run_masked_to(&g, 0, &mut queue, &mask, 2);
        assert!(ws.dist()[3].is_finite());
        let plain = ws.stats();
        let potential = Potential {
            node_of: &ids,
            h: &h,
        };
        ws.run_masked_guided_to(&g, 0, &mut queue, &mask, 2, potential);
        assert_eq!(ws.dist()[2], Cost::new(2));
        assert!(ws.dist()[3].is_infinite(), "dead end was queued");
        assert_eq!(ws.stats().pushes, plain.pushes - 1);
        // A source that cannot reach the target is not queued either.
        ws.run_masked_guided_to(&g, 3, &mut queue, &mask, 2, potential);
        assert_eq!(ws.stats().settled, 0);
        assert!(ws.dist()[2].is_infinite());
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn inconsistent_potential_trips_radix_monotonicity() {
        // h(0) = 50 > c(0, 1) + h(1) = 1: node 0 pops at key 50, then 1 is
        // pushed at key 1 — backwards, which the radix heap refuses.
        let g = diamond();
        let ids: Vec<u32> = (0..5).collect();
        let mut h = exact_potential(&g, 4);
        h[0] = Cost::new(50);
        let mask = EdgeMask::all_clear(g.edge_count());
        let mut ws = DijkstraWorkspace::new();
        let mut queue: RadixHeap<Cost> = RadixHeap::with_capacity(g.node_count());
        let potential = Potential {
            node_of: &ids,
            h: &h,
        };
        ws.run_masked_guided_to(&g, 0, &mut queue, &mask, 4, potential);
    }

    #[test]
    fn workspace_adapts_to_graph_size() {
        let small = CsrBuilder::new(1).build();
        let big = diamond();
        let mut ws = DijkstraWorkspace::with_capacity(2);
        let mut queue: BinaryHeap<Cost> = BinaryHeap::with_capacity(big.node_count());
        ws.run(&big, 0, &mut queue);
        assert_eq!(ws.dist().len(), big.node_count());
        ws.run(&small, 0, &mut queue);
        assert_eq!(ws.dist(), &[Cost::ZERO]);
        let tree = ws.into_tree();
        assert_eq!(tree.dist, vec![Cost::ZERO]);
    }
}
