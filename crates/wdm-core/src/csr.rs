//! Compact CSR edge storage shared by the auxiliary graphs.
//!
//! Both the paper's layered graph `G_{s,t}`/`G_all` and the CFZ baseline's
//! wavelength graph `WG` are "built once, searched once" structures, so they
//! share this compressed-sparse-row representation and a single Dijkstra
//! implementation ([`crate::dijkstra()`]).

use crate::{Cost, Wavelength};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::RELAXED;

/// What a search-graph edge means in terms of the physical network.
///
/// Carried as a parallel payload array so that a shortest path in the
/// search graph can be decoded back into a [`crate::Semilightpath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRole {
    /// A wavelength conversion inside a physical node.
    Conversion {
        /// The node performing the conversion.
        node: NodeId,
        /// Incoming wavelength `λp`.
        from: Wavelength,
        /// Outgoing wavelength `λq`.
        to: Wavelength,
    },
    /// Traversal of a physical link on a specific wavelength.
    Traversal {
        /// The physical link.
        link: LinkId,
        /// The wavelength used on it.
        wavelength: Wavelength,
    },
    /// A zero-cost attachment edge from/to a super-terminal
    /// (`s' → Y_s`, `X_t → t''`, or the `v'`/`v''` taps of `G_all`).
    Tap,
}

/// One outgoing edge as yielded by [`CsrGraph::out_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Dense index of this edge in the graph.
    pub index: usize,
    /// Head node of the edge.
    pub target: usize,
    /// Edge weight.
    pub cost: Cost,
    /// Physical meaning of the edge.
    pub role: EdgeRole,
}

/// A directed graph in compressed-sparse-row form with [`Cost`] weights and
/// [`EdgeRole`] payloads.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    costs: Vec<Cost>,
    roles: Vec<EdgeRole>,
    sources: Vec<u32>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Iterates the outgoing edges of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_edges(&self, node: usize) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        assert!(node + 1 < self.offsets.len(), "node {node} out of range");
        let range = self.offsets[node]..self.offsets[node + 1];
        range.map(move |i| EdgeRef {
            index: i,
            target: self.targets[i] as usize,
            cost: self.costs[i],
            role: self.roles[i],
        })
    }

    /// The out-edges of `node` as the dense index of the first one plus
    /// their target and cost slices — the search kernel's view, which
    /// reads no [`EdgeRole`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn out_slices(&self, node: usize) -> (usize, &[u32], &[Cost]) {
        assert!(node + 1 < self.offsets.len(), "node {node} out of range");
        let (start, end) = (self.offsets[node], self.offsets[node + 1]);
        (start, &self.targets[start..end], &self.costs[start..end])
    }

    /// The edge with dense index `index`, as `(source, EdgeRef)`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn edge(&self, index: usize) -> (usize, EdgeRef) {
        (
            self.sources[index] as usize,
            EdgeRef {
                index,
                target: self.targets[index] as usize,
                cost: self.costs[index],
                role: self.roles[index],
            },
        )
    }
}

/// A bitmask over the dense edge indices of a [`CsrGraph`].
///
/// Set bits mark edges that are *excluded* from traversal (busy
/// wavelength-links in the residual view). Flipping a bit is `O(1)` and
/// allocation-free, which is what lets the provisioning engine keep one
/// persistent search graph instead of rebuilding it per request.
///
/// # Concurrency
///
/// The words are `AtomicU64`, so a mask may be shared across threads:
/// [`is_set`](Self::is_set) takes `&self` and the `fetch_set`/
/// `fetch_clear` pair flips bits through atomic RMWs. All accesses use
/// the relaxed ordering audited in `wdm_obs::ordering` — mask *bits*
/// never carry cross-thread consistency decisions on their own; the
/// concurrent engine layers a sharded seqlock on top (versions carry
/// the ordering), and single-threaded users see no atomics at all: the
/// `&mut self` methods ([`set`](Self::set), [`clear`](Self::clear),
/// [`set_to`](Self::set_to), [`clear_all`](Self::clear_all)) go through
/// `get_mut` and compile to the same plain word ops as before, so
/// single-threaded behaviour is bit-identical.
///
/// # Examples
///
/// ```
/// use wdm_core::csr::EdgeMask;
///
/// let mut mask = EdgeMask::all_clear(70);
/// assert!(mask.set(3));
/// assert!(!mask.set(3)); // already set
/// assert!(mask.is_set(3) && !mask.is_set(4));
/// assert_eq!(mask.set_count(), 1);
/// assert!(mask.clear(3));
/// assert_eq!(mask.set_count(), 0);
/// ```
#[derive(Debug)]
pub struct EdgeMask {
    bits: Vec<AtomicU64>,
    len: usize,
    set_count: AtomicUsize,
}

impl Clone for EdgeMask {
    fn clone(&self) -> Self {
        EdgeMask {
            bits: self
                .bits
                .iter()
                .map(|w| AtomicU64::new(w.load(RELAXED)))
                .collect(),
            len: self.len,
            set_count: AtomicUsize::new(self.set_count.load(RELAXED)),
        }
    }
}

impl PartialEq for EdgeMask {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .bits
                .iter()
                .zip(&other.bits)
                .all(|(a, b)| a.load(RELAXED) == b.load(RELAXED))
    }
}

impl Eq for EdgeMask {}

impl EdgeMask {
    /// A mask over `len` edges with every bit clear.
    pub fn all_clear(len: usize) -> Self {
        let mut bits = Vec::new();
        bits.resize_with(len.div_ceil(64), || AtomicU64::new(0));
        EdgeMask {
            bits,
            len,
            set_count: AtomicUsize::new(0),
        }
    }

    /// Number of edges the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mask covers zero edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (masked-out) bits.
    ///
    /// Exact whenever the mask is quiescent (no concurrent flips in
    /// flight); during concurrent mutation the count lags the individual
    /// bits by at most the number of in-flight flips.
    pub fn set_count(&self) -> usize {
        self.set_count.load(RELAXED)
    }

    /// Whether bit `index` is set.
    ///
    /// A relaxed atomic load — safe to call while other threads flip
    /// bits; consistency across *multiple* bits is the caller's
    /// protocol (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    // wdm-lint: hot-path
    pub fn is_set(&self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        self.bits[index / 64].load(RELAXED) & (1 << (index % 64)) != 0
    }

    /// Sets bit `index`; returns `true` when the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let word = self.bits[index / 64].get_mut();
        let bit = 1 << (index % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        *self.set_count.get_mut() += 1;
        true
    }

    /// Clears bit `index`; returns `true` when the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn clear(&mut self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let word = self.bits[index / 64].get_mut();
        let bit = 1 << (index % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        *self.set_count.get_mut() -= 1;
        true
    }

    /// Sets bit `index` to `value`; returns `true` when the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_to(&mut self, index: usize, value: bool) -> bool {
        if value {
            self.set(index)
        } else {
            self.clear(index)
        }
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        for w in &mut self.bits {
            *w.get_mut() = 0;
        }
        *self.set_count.get_mut() = 0;
    }

    /// Atomically sets bit `index` through `&self`; returns `true` when
    /// this call changed it (i.e. the caller won the flip).
    ///
    /// Relaxed RMW — callers that need set/observe ordering across bits
    /// must provide it themselves (the concurrent engine's shard
    /// versions do; see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn fetch_set(&self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let bit = 1 << (index % 64);
        let prev = self.bits[index / 64].fetch_or(bit, RELAXED);
        if prev & bit != 0 {
            return false;
        }
        self.set_count.fetch_add(1, RELAXED);
        true
    }

    /// Atomically clears bit `index` through `&self`; returns `true`
    /// when this call changed it. The shared counterpart of
    /// [`clear`](Self::clear); same ordering contract as
    /// [`fetch_set`](Self::fetch_set).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn fetch_clear(&self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let bit = 1 << (index % 64);
        let prev = self.bits[index / 64].fetch_and(!bit, RELAXED);
        if prev & bit == 0 {
            return false;
        }
        self.set_count.fetch_sub(1, RELAXED);
        true
    }
}

/// Incremental builder producing a [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    edges: Vec<(u32, u32, Cost, EdgeRole)>,
}

impl CsrBuilder {
    /// A builder for a graph with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` endpoint encoding.
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "CSR endpoints are u32-encoded; {n} nodes do not fit"
        );
        CsrBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates room for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Adds the directed edge `source → target`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, source: usize, target: usize, cost: Cost, role: EdgeRole) {
        assert!(source < self.n, "source {source} out of range");
        assert!(target < self.n, "target {target} out of range");
        // wdm-lint: cast-checked: endpoints < n, and new() asserts n fits u32
        self.edges.push((source as u32, target as u32, cost, role));
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes into CSR form (counting sort by source: `O(n + m)`).
    pub fn build(self) -> CsrGraph {
        let mut offsets = vec![0usize; self.n + 1];
        // `add_edge` bounds every endpoint below `n`, so `s + 1` indexes
        // in range here and in the counting-sort scatter below.
        debug_assert!(
            offsets.len() == self.n + 1,
            "one offset slot past each node"
        );
        for &(s, _, _, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let m = self.edges.len();
        let mut targets = vec![0u32; m];
        let mut costs = vec![Cost::ZERO; m];
        let mut roles = vec![EdgeRole::Tap; m];
        let mut sources = vec![0u32; m];
        let mut cursor = offsets.clone();
        for (s, t, c, r) in self.edges {
            let at = cursor[s as usize];
            cursor[s as usize] += 1;
            targets[at] = t;
            costs[at] = c;
            roles[at] = r;
            sources[at] = s;
        }
        CsrGraph {
            offsets,
            targets,
            costs,
            roles,
            sources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_iterates() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::new(5), EdgeRole::Tap);
        b.add_edge(0, 2, Cost::new(7), EdgeRole::Tap);
        b.add_edge(2, 1, Cost::new(1), EdgeRole::Tap);
        assert_eq!(b.edge_count(), 3);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let out0: Vec<usize> = g.out_edges(0).map(|e| e.target).collect();
        assert_eq!(out0, vec![1, 2]);
        assert_eq!(g.out_edges(1).len(), 0);
        let (src, e) = g.edge(2);
        assert_eq!(src, 2);
        assert_eq!(e.target, 1);
        assert_eq!(e.cost, Cost::new(1));
    }

    #[test]
    fn insertion_order_within_source_is_preserved() {
        let mut b = CsrBuilder::new(2);
        for i in 0..5u64 {
            b.add_edge(0, 1, Cost::new(i), EdgeRole::Tap);
        }
        let g = b.build();
        let costs: Vec<Cost> = g.out_edges(0).map(|e| e.cost).collect();
        assert_eq!(costs, (0..5).map(Cost::new).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_sources_are_sorted_into_rows() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(2, 0, Cost::new(1), EdgeRole::Tap);
        b.add_edge(0, 2, Cost::new(2), EdgeRole::Tap);
        b.add_edge(2, 1, Cost::new(3), EdgeRole::Tap);
        let g = b.build();
        assert_eq!(g.out_edges(2).len(), 2);
        assert_eq!(g.out_edges(0).len(), 1);
        let out2: Vec<usize> = g.out_edges(2).map(|e| e.target).collect();
        assert_eq!(out2, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut b = CsrBuilder::new(1);
        b.add_edge(0, 1, Cost::ZERO, EdgeRole::Tap);
    }

    #[test]
    fn mask_set_clear_roundtrip() {
        let mut mask = EdgeMask::all_clear(130);
        assert_eq!(mask.len(), 130);
        assert!(!mask.is_empty());
        assert_eq!(mask.set_count(), 0);
        for i in [0, 63, 64, 129] {
            assert!(mask.set(i));
            assert!(mask.is_set(i));
            assert!(!mask.set(i), "second set of {i} is a no-op");
        }
        assert_eq!(mask.set_count(), 4);
        assert!(!mask.is_set(65));
        assert!(mask.clear(64));
        assert!(!mask.clear(64), "second clear is a no-op");
        assert_eq!(mask.set_count(), 3);
        assert!(mask.set_to(64, true));
        assert!(!mask.set_to(0, true));
        mask.clear_all();
        assert_eq!(mask.set_count(), 0);
        assert!((0..130).all(|i| !mask.is_set(i)));
    }

    #[test]
    #[should_panic(expected = "mask index")]
    fn mask_out_of_range_panics() {
        let mask = EdgeMask::all_clear(3);
        mask.is_set(3);
    }

    #[test]
    fn shared_flips_match_exclusive_flips() {
        // fetch_set/fetch_clear through &self must agree bit-for-bit
        // with the &mut API, including the changed-bit return values.
        let mut a = EdgeMask::all_clear(130);
        let b = EdgeMask::all_clear(130);
        for i in [0, 63, 64, 129, 64, 0] {
            assert_eq!(a.set(i), b.fetch_set(i), "set {i}");
        }
        assert_eq!(a, b);
        assert_eq!(a.set_count(), b.set_count());
        for i in [63, 63, 129] {
            assert_eq!(a.clear(i), b.fetch_clear(i), "clear {i}");
        }
        assert_eq!(a, b);
        assert_eq!(a.set_count(), b.set_count());
    }

    #[test]
    fn shared_flips_from_threads_are_exclusive() {
        // Each of 4 threads tries to claim every bit; exactly one
        // claimant per bit may win, and the final set_count is exact
        // once the threads are joined.
        let mask = EdgeMask::all_clear(257);
        let winners: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..mask.len()).filter(|&i| mask.fetch_set(i)).count()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(winners.iter().sum::<usize>(), mask.len());
        assert_eq!(mask.set_count(), mask.len());
        assert!((0..mask.len()).all(|i| mask.is_set(i)));
    }

    #[test]
    fn clone_and_eq_see_current_bits() {
        let src = EdgeMask::all_clear(70);
        src.fetch_set(3);
        src.fetch_set(69);
        let copy = src.clone();
        assert_eq!(copy, src);
        assert!(copy.is_set(3) && copy.is_set(69) && !copy.is_set(4));
        assert_eq!(copy.set_count(), 2);
        copy.fetch_clear(3);
        assert_ne!(copy, src);
    }
}
