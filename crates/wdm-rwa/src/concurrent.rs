//! The provisioning engine: optimistic provisioning over one shared
//! [`ResidualState`], serialized per wavelength class by seqlock version
//! counters.
//!
//! wdm-lint: protocol: seqlock
//!
//! # Design
//!
//! This module is the crate's only implementation of provisioning
//! state: busy masks, the active-connection table, the failed-link set,
//! the blocked-cause memo and the outcome counters all live in one
//! `Shared` value. The serial
//! [`ProvisioningEngine`](crate::ProvisioningEngine) is a thin wrapper
//! around one [`ConcurrentHandle`]; the daemon's serial backend drives
//! the same transactions behind a mutex. The engine shares one
//! [`ResidualState`] (whose busy masks are atomic words) among any
//! number of threads and layers a **sharded seqlock** on top:
//!
//! * wavelengths are partitioned into `S` shards (`shard = λ mod S`),
//!   each guarded by one version counter (`AtomicU64`, odd = writer in
//!   its critical section);
//! * a **provision** reads every shard version, routes optimistically on
//!   the racy mask, then *claims* the shards its path touches (CAS even
//!   `v → v + 1`, ascending shard order) and *validates* that every
//!   untouched shard still holds its original version. Success proves
//!   the mask the route saw was a consistent global snapshot and is
//!   still current, so the path is exactly what a sequential engine
//!   would have picked at that instant; the bits are flipped and the
//!   claimed shards published at `v + 2`. Any version mismatch —
//!   somebody committed or is mid-commit — rolls back the claims,
//!   counts a conflict, and retries from scratch;
//! * a blocked verdict commits the same way (all versions unchanged)
//!   minus the claims — an occupancy state that blocked the request
//!   provably existed at the validation instant;
//! * a **release** only claims the shards of the connection it owns (no
//!   global validation — freeing owned bits commutes with everything
//!   that cannot see them), and a **fibre cut** claims *all* shards for
//!   its teardown–restore transaction.
//!
//! Because both accepted and blocked commits validate *every* shard,
//! commits are globally serialized at their validation instants — the
//! linearization witness — while routing (the expensive part) runs fully
//! in parallel and releases interleave freely. Connection ids are
//! allocated at commit time, so id order equals commit order.
//!
//! The memory-ordering protocol (acquire version reads, the
//! [`fence_acquire`] between racy mask loads and validation, acq-rel
//! claim CAS, release publication) is audited once in
//! [`wdm_obs::ordering`]; this module only imports the named constants.
//!
//! # Stepped execution
//!
//! Every operation is a state machine ([`ProvisionTxn`], [`ReleaseTxn`],
//! [`FailLinkTxn`], [`RestoreLinkTxn`]) advanced by `step()` calls; the
//! blocking methods on [`ConcurrentHandle`] just drive the machine to
//! completion. The `wdm-conformance` harness instead interleaves many
//! machines from one real thread under a seeded scheduler, which is what
//! makes concurrent histories replayable: no step ever holds an OS lock
//! across steps or spins internally — contention is reported as
//! [`Step::Contended`] and retried on the next step.
//!
//! On a blocked verdict the engine classifies the cause — topology-
//! blocked (`no_path`) when the pair is unroutable even on the free
//! network minus the failed links, occupancy-blocked (`capacity`)
//! otherwise — through an **epoch-tagged memo**: the epoch advances
//! whenever the failed-link set or the conversion layout changes (a
//! fibre is cut by [`FailLinkTxn`], repaired by [`RestoreLinkTxn`], or a
//! converter is placed by [`ConcurrentHandle::set_converter_policy`]),
//! entries are tagged with the epoch they were probed under, and a
//! stale entry is re-probed, never trusted. The probe itself runs
//! outside the memo lock.
//!
//! # Observability
//!
//! [`ConcurrentEngine::attach_metrics`] and
//! [`ConcurrentEngine::attach_tracer`] are write-once hooks; detached
//! engines pay one branch per operation. Teardowns inside a cut count as
//! releases and restorations count as provisions, so
//! `requests_total == accepted_total + blocked_total` always holds.

use crate::metrics::{BlockCause, EngineMetrics};
use crate::policy::Policy;
use crate::{ConnectionId, RwaError};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use wdm_core::{
    AcquireOutcome, ConversionPolicy, Hop, ResidualState, SearchScratch, Semilightpath, Wavelength,
    WdmNetwork,
};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::{fence_acquire, ACQUIRE, ACQ_REL, RELAXED, RELEASE};
use wdm_obs::trace::{FlightRecorder, RootVerdict, TraceEventKind, TraceId, TraceWriter};
use wdm_obs::MetricsRegistry;

/// Locks a mutex, recovering the data from a poisoned lock. Every
/// guarded section in this module performs a single map operation (an
/// insert, remove, lookup, or clone-out), so a panic mid-section cannot
/// leave partial state behind and the data stays usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A collection size as a gauge value, saturating at `i64::MAX`.
fn gauge_len(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// Debug builds run the Theorem-1 construction verifier
/// ([`wdm_core::verify`]) over every network an engine routes on: node
/// and edge counts, gadget shape, tap costs, mask cross-index, and the
/// Restriction 1/2 gates are checked against independent recomputation,
/// and any violation aborts.
#[cfg(debug_assertions)]
fn verify_network(net: &WdmNetwork, label: &str) {
    let violations = wdm_core::verify::verify_network(net);
    debug_assert!(
        violations.is_empty(),
        "auxiliary-graph construction of {label} failed verification:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Deliberate protocol corruption for conformance-harness validation.
///
/// The linearizability harness must be able to demonstrate that it
/// *catches* broken engines, not only that the real one passes. This
/// knob exists solely for that purpose — production code always uses
/// [`RaceInjection::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceInjection {
    /// The audited protocol: claim + validate before every commit.
    #[default]
    None,
    /// Skip the shard claim and validation entirely and ignore
    /// lost acquire races: routes commit on whatever (possibly torn,
    /// possibly stale) mask state they observed, so two transactions can
    /// both "win" the same (link, λ) — the classic check-then-act race a
    /// non-atomic mask flip would exhibit.
    SkipShardLock,
    /// Every provision validation fails as if a concurrent writer had
    /// committed underneath it, so the optimistic loop conflicts on
    /// every attempt and a bounded-retry driver is guaranteed to exhaust
    /// its budget. Exists to pin the retry-exhaustion outcome
    /// ([`RwaError::Contended`], never a fabricated
    /// `Blocked { cause }`): real contention heavy enough to exhaust a
    /// budget is timing-dependent, this knob makes it deterministic.
    ForceValidationConflict,
}

/// A provision's blocked-verdict memo entry: the epoch it was probed
/// under and the free-network reachability it found.
type MemoEntry = (u64, bool);
type MemoKey = (NodeId, NodeId, bool);

/// The state shared by every handle and transaction of one engine.
#[derive(Debug)]
struct Shared {
    base: WdmNetwork,
    state: ResidualState,
    /// Seqlock version counters, one per wavelength shard. Odd = a
    /// writer owns the shard's wavelengths.
    shards: Vec<AtomicU64>,
    /// Active connections and their paths. Locked only *within* a
    /// single transaction step, never across steps.
    active: Mutex<HashMap<ConnectionId, Semilightpath>>,
    next_id: AtomicU64,
    accepted: AtomicU64,
    blocked: AtomicU64,
    blocked_no_path: AtomicU64,
    blocked_capacity: AtomicU64,
    released: AtomicU64,
    /// Optimistic commits that failed validation and retried.
    conflicts: AtomicU64,
    /// Advances every time the free-network regime changes (the
    /// failed-link set or the conversion layout); tags memo entries so
    /// verdicts probed under another regime are re-probed.
    memo_epoch: AtomicU64,
    /// Links currently cut and not yet repaired, kept sorted. Mutated
    /// only by [`FailLinkTxn`] / [`RestoreLinkTxn`] while they hold
    /// every shard; read by blocked-cause classification (which locks
    /// only long enough to copy the set out).
    failed: Mutex<Vec<LinkId>>,
    /// Blocked-cause memo. Readers lock for one lookup; a miss probes
    /// unlocked and locks again for one insert.
    memo: Mutex<HashMap<MemoKey, MemoEntry>>,
    /// Base (link, λ) resource count, for utilization.
    total_resources: usize,
    race: RaceInjection,
    /// The flight recorder, once attached. Write-once so transactions
    /// can read it with a single lock-free load; unset engines pay one
    /// branch per transaction.
    tracer: OnceLock<Arc<FlightRecorder>>,
    /// The metric instruments, once attached; same write-once
    /// discipline as `tracer`.
    metrics: OnceLock<EngineMetrics>,
}

impl Shared {
    fn shard_of(&self, lambda: Wavelength) -> usize {
        lambda.index() % self.shards.len()
    }

    /// Sorted, deduplicated shard indices touched by `path`.
    fn touched_shards(&self, path: &Semilightpath) -> Vec<usize> {
        let mut touched: Vec<usize> = path
            .hops()
            .iter()
            .map(|h| self.shard_of(h.wavelength))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// A metrics clock start, when metrics are attached.
    fn clock(&self) -> Option<Instant> {
        self.metrics.get().map(|_| Instant::now())
    }

    /// One masked routing query on the shared residual state. The
    /// search-kernel totals it cost are drained from `scratch` and, when
    /// metrics are attached, flushed into the shared counters.
    // wdm-lint: hot-path
    fn route(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Option<Semilightpath> {
        let path = policy.route_shared(&self.state, scratch, s, t);
        let search = scratch.take_search_totals();
        if let Some(m) = self.metrics.get() {
            m.flush_search(&search);
        }
        path
    }

    /// The residual network: base availability minus busy resources
    /// (including the blanket markers of cut links). Materializes a
    /// fresh [`WdmNetwork`] — the cost the masked hot path avoids.
    fn residual_network(&self) -> WdmNetwork {
        self.base.restrict(|link, w| !self.state.is_busy(link, w))
    }

    /// Debug-build cross-check of a masked answer against the legacy
    /// clone-and-rebuild router ([`Policy::route`] on the residual
    /// network): both must agree on the blocked verdict and the optimal
    /// cost. (Under cost ties the two may pick different equal-cost
    /// paths, so hop sequences are not compared; hop identity against
    /// an independent reference is the conformance suite's job.) Only
    /// meaningful while the masks are stable — callers assert the
    /// answer once the commit has validated.
    #[cfg(debug_assertions)]
    fn legacy_agrees(
        &self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        got: &Option<Semilightpath>,
    ) -> bool {
        let legacy = policy.route(&self.residual_network(), s, t);
        match (got, &legacy) {
            (Some(a), Some(b)) => a.cost() == b.cost() && a.is_empty() == b.is_empty(),
            (None, None) => true,
            _ => false,
        }
    }

    /// Classifies a blocked request against the free network (minus the
    /// currently failed links), through the epoch-tagged memo.
    ///
    /// The epoch is read *before* the failed set is copied out: a
    /// concurrent cut/repair between the two bumps the epoch, so the
    /// entry this probe writes is already stale and will be re-probed —
    /// a harmless extra probe, never a wrong cached verdict. The probe
    /// runs without the memo lock; an insert never replaces an entry
    /// probed under a newer epoch.
    fn classify(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> BlockCause {
        if s == t {
            // The engine rejects s == t (an empty path carries nothing);
            // no amount of capacity changes that.
            return BlockCause::NoPath;
        }
        // LightpathOnly and FirstFit both route on a single wavelength
        // end-to-end, so they share one memo class.
        let converts = matches!(policy, Policy::Optimal);
        let epoch = self.memo_epoch.load(ACQUIRE);
        let key = (s, t, converts);
        let cached = lock(&self.memo).get(&key).copied();
        let reachable = match cached {
            Some((e, hit)) if e == epoch => hit,
            _ => {
                let failed = lock(&self.failed).clone();
                let probed = if converts {
                    self.state.reachable_when_free(scratch, s, t, &failed)
                } else {
                    self.state
                        .reachable_when_free_single_wavelength(scratch, s, t, &failed)
                };
                // Probe work is classification, not request routing.
                let _ = scratch.take_search_totals();
                let mut memo = lock(&self.memo);
                let entry = memo.entry(key).or_insert((epoch, probed));
                if entry.0 <= epoch {
                    *entry = (epoch, probed);
                }
                probed
            }
        };
        if reachable {
            BlockCause::Capacity
        } else {
            BlockCause::NoPath
        }
    }

    /// Accounts one decided request: the blocked counters (when
    /// `cause` is set), the request counter and its latency.
    fn note_request(&self, cause: Option<BlockCause>, started: Option<Instant>) {
        if let Some(cause) = cause {
            self.blocked.fetch_add(1, RELAXED);
            match cause {
                BlockCause::NoPath => self.blocked_no_path.fetch_add(1, RELAXED),
                BlockCause::Capacity => self.blocked_capacity.fetch_add(1, RELAXED),
            };
        }
        if let Some(m) = self.metrics.get() {
            m.requests.inc();
            if let Some(cause) = cause {
                m.record_blocked(cause);
            }
            if let Some(t0) = started {
                m.provision_latency.observe(ns_since(t0));
            }
        }
    }

    /// Accounts one effective busy-bit transition of `(link, λ)`: the
    /// flip counter and occupancy gauges when metrics are attached, and
    /// a `MaskFlip` instant under `trace`.
    fn note_flip(&self, trace: Option<&TxnTrace>, link: LinkId, lambda: Wavelength, busy: bool) {
        if let Some(m) = self.metrics.get() {
            m.mask_flips.inc();
            let delta = if busy { 1 } else { -1 };
            m.occupied.add(delta);
            m.link_occupancy[link.index()].add(delta);
        }
        if let Some(tr) = trace {
            tr.writer.instant(
                tr.id,
                TraceEventKind::MaskFlip,
                link.index() as u64,
                lambda.index() as u64,
            );
        }
    }

    /// Acquires one hop whose shard the caller owns. With the shards
    /// claimed and validated the bit must be free; only the injected
    /// race can lose it (and ignores the loss — that is the bug the
    /// harness must catch).
    fn acquire_hop(&self, trace: Option<&TxnTrace>, hop: Hop) {
        let outcome = self.state.try_acquire_shared(hop.link, hop.wavelength);
        debug_assert!(
            self.race == RaceInjection::SkipShardLock || outcome == AcquireOutcome::Acquired,
            "owned shard lost a bit at ({}, {})",
            hop.link,
            hop.wavelength
        );
        if outcome == AcquireOutcome::Acquired {
            self.note_flip(trace, hop.link, hop.wavelength, true);
        }
    }

    /// Frees one owned hop.
    fn release_hop(&self, trace: Option<&TxnTrace>, hop: Hop) {
        let released = self.state.release_shared(hop.link, hop.wavelength);
        debug_assert!(released, "released a hop the base does not carry");
        self.note_flip(trace, hop.link, hop.wavelength, false);
    }

    /// Publishes an accepted connection on `path` (its bits already
    /// flipped): allocates the id, inserts it into the active table,
    /// and counts the acceptance.
    fn commit_connection(&self, path: Semilightpath, started: Option<Instant>) -> ConnectionId {
        let id = ConnectionId::from_raw(self.next_id.fetch_add(1, RELAXED));
        let mut active = lock(&self.active);
        active.insert(id, path);
        if let Some(m) = self.metrics.get() {
            m.accepted.inc();
            m.active.set(gauge_len(active.len()));
        }
        drop(active);
        self.accepted.fetch_add(1, RELAXED);
        self.note_request(None, started);
        id
    }

    /// Removes `id` from the active table, returning its path; counts
    /// the release when it was present.
    fn remove_connection(
        &self,
        id: ConnectionId,
        started: Option<Instant>,
    ) -> Option<Semilightpath> {
        let mut active = lock(&self.active);
        let path = active.remove(&id)?;
        if let Some(m) = self.metrics.get() {
            m.released.inc();
            m.active.set(gauge_len(active.len()));
            if let Some(t0) = started {
                m.release_latency.observe(ns_since(t0));
            }
        }
        drop(active);
        self.released.fetch_add(1, RELAXED);
        Some(path)
    }
}

/// One `step()` of a transaction state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<T> {
    /// The transaction finished with this result.
    Done(T),
    /// The step did useful work; call `step()` again.
    Progress,
    /// The step found a shard claimed by another writer (or lost a CAS)
    /// and made no progress; yield to whoever holds it, then retry.
    Contended,
}

/// Drives a transaction to completion, yielding on contention (the host
/// has few cores; a spinning waiter on the holder's core is pure waste).
fn drive<T>(mut step: impl FnMut() -> Step<T>) -> T {
    loop {
        match step() {
            Step::Done(r) => return r,
            Step::Progress => {}
            Step::Contended => std::thread::yield_now(),
        }
    }
}

/// How one provision request concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionOutcome {
    /// The request was accepted: the connection is active on `path`.
    Accepted {
        /// Handle for releasing the connection.
        id: ConnectionId,
        /// The committed route (also retrievable via
        /// [`ConcurrentEngine::path_of`] while active).
        path: Semilightpath,
    },
    /// The request was blocked, with its cause classification.
    Blocked {
        /// Topology- vs capacity-blocked, per
        /// [`ConcurrentEngine::blocked_by_cause`].
        cause: BlockCause,
    },
}

/// One torn connection's fate in a [`FailLinkTxn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestorationOutcome {
    /// The connection torn down by the cut.
    pub torn: ConnectionId,
    /// The restored connection's id and path, or `None` when lost.
    pub restored: Option<(ConnectionId, Semilightpath)>,
    /// The blocked-cause classification when the restoration was lost
    /// (always `Some` iff `restored` is `None`).
    pub cause: Option<BlockCause>,
}

/// The provisioning engine. Cheaply cloneable; all clones share the same
/// state. Each thread works through its own [`ConcurrentHandle`] (see
/// [`ConcurrentEngine::handle`]).
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    shared: Arc<Shared>,
}

impl ConcurrentEngine {
    /// Creates an engine over `base` with every resource free, using
    /// `num_shards` wavelength shards (clamped to `1..=k`; `0` picks
    /// `min(k, 8)`). More shards admit more disjoint writers; a single
    /// shard degenerates to one global seqlock.
    pub fn new(base: &WdmNetwork, num_shards: usize) -> Self {
        Self::with_race_injection(base, num_shards, RaceInjection::None)
    }

    /// [`ConcurrentEngine::new`] with a deliberate protocol corruption —
    /// conformance-harness use only (see [`RaceInjection`]).
    pub fn with_race_injection(base: &WdmNetwork, num_shards: usize, race: RaceInjection) -> Self {
        #[cfg(debug_assertions)]
        verify_network(base, "provisioning-engine");
        let k = base.k().max(1);
        let num_shards = if num_shards == 0 {
            k.min(8)
        } else {
            num_shards.min(k)
        };
        let state = ResidualState::new(base);
        let total_resources = base
            .graph()
            .links()
            .map(|(e, _)| base.wavelengths_on(e).iter().count())
            .sum();
        ConcurrentEngine {
            shared: Arc::new(Shared {
                base: base.clone(),
                state,
                shards: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
                active: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
                blocked: AtomicU64::new(0),
                blocked_no_path: AtomicU64::new(0),
                blocked_capacity: AtomicU64::new(0),
                released: AtomicU64::new(0),
                conflicts: AtomicU64::new(0),
                memo_epoch: AtomicU64::new(0),
                failed: Mutex::new(Vec::new()),
                memo: Mutex::new(HashMap::new()),
                total_resources,
                race,
                tracer: OnceLock::new(),
                metrics: OnceLock::new(),
            }),
        }
    }

    /// Attaches a metrics registry: from now on every provision /
    /// release / fail_link / restore_link reports latency histograms,
    /// outcome counters (blocked split by cause), search-kernel totals,
    /// and occupancy gauges into `registry`'s shared instruments (see
    /// the crate docs for the metric names). Gauges are seeded from the
    /// current state, so attaching mid-run is coherent.
    ///
    /// Write-once: the first registry wins and later calls are ignored
    /// (transactions read the cell lock-free mid-flight).
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        if self.shared.metrics.get().is_some() {
            return;
        }
        let shared = &self.shared;
        let m = EngineMetrics::resolve(registry, shared.base.link_count());
        m.active.set(gauge_len(self.active_count()));
        let mut occupied = 0usize;
        for (e, _) in shared.base.graph().links() {
            let count = shared
                .base
                .wavelengths_on(e)
                .iter()
                .filter(|&(w, _)| shared.state.is_busy(e, w))
                .count();
            m.link_occupancy[e.index()].set(gauge_len(count));
            occupied += count;
        }
        m.occupied.set(gauge_len(occupied));
        let _ = shared.metrics.set(m);
    }

    /// Attaches a flight recorder: every transaction from now on records
    /// a per-request trace. A provision records the routing query as a
    /// span, one instant per shard claim and mask flip, the validation
    /// verdict, every conflict retry, and a root span carrying the
    /// outcome; releases, cuts and repairs record a root span plus
    /// their mask flips. This is what makes seqlock conflict churn
    /// visible *per request* instead of only as the aggregate
    /// [`conflicts`](Self::conflicts) counter.
    ///
    /// Write-once: the first recorder wins and later calls are ignored
    /// (transactions read the cell lock-free mid-flight, so swapping
    /// recorders underneath them is not supported). Unattached engines
    /// pay one branch per transaction.
    pub fn attach_tracer(&self, recorder: &Arc<FlightRecorder>) {
        let _ = self.shared.tracer.set(Arc::clone(recorder));
    }

    /// A per-thread handle bundling this engine with its own search
    /// scratch.
    pub fn handle(&self) -> ConcurrentHandle {
        ConcurrentHandle {
            engine: self.clone(),
            scratch: self.handle_scratch(),
        }
    }

    /// A bare per-thread [`SearchScratch`] sized for this engine, for
    /// callers that drive transactions directly (the conformance
    /// harness's simulated threads).
    pub fn handle_scratch(&self) -> SearchScratch {
        SearchScratch::for_state(&self.shared.state)
    }

    /// Busy (link, λ) resources right now (racy peek; exact at
    /// quiescence).
    pub fn busy_count(&self) -> usize {
        self.shared.state.busy_count()
    }

    /// The base network the engine routes on (including any converter
    /// placed at runtime).
    pub fn base(&self) -> &WdmNetwork {
        &self.shared.base
    }

    /// Number of wavelength shards.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Totals so far: `(accepted, blocked, released)`. Restorations
    /// count as accepted or blocked requests and cut teardowns as
    /// releases.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.shared.accepted.load(RELAXED),
            self.shared.blocked.load(RELAXED),
            self.shared.released.load(RELAXED),
        )
    }

    /// Blocked totals split by cause: `(no_path, capacity)`.
    ///
    /// `no_path` counts requests whose pair is unroutable even with
    /// every resource free (under the request's policy, on the network
    /// minus the currently failed links — conversion-free policies can
    /// be topology-blocked where [`Policy::Optimal`] would route);
    /// `capacity` counts requests a free network would have carried.
    /// The two always sum to the blocked total.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        (
            self.shared.blocked_no_path.load(RELAXED),
            self.shared.blocked_capacity.load(RELAXED),
        )
    }

    /// Optimistic commits that failed validation and retried. Zero in
    /// any single-threaded run; under contention each conflict is one
    /// wasted route computation.
    pub fn conflicts(&self) -> u64 {
        self.shared.conflicts.load(RELAXED)
    }

    /// Number of currently active connections.
    pub fn active_count(&self) -> usize {
        lock(&self.shared.active).len()
    }

    /// The path of an active connection (cloned out of the table).
    pub fn path_of(&self, id: ConnectionId) -> Option<Semilightpath> {
        lock(&self.shared.active).get(&id).cloned()
    }

    /// Fraction of base (link, wavelength) resources currently busy
    /// (cut links count as occupied until repaired).
    pub fn utilization(&self) -> f64 {
        if self.shared.total_resources == 0 {
            0.0
        } else {
            self.shared.state.busy_count() as f64 / self.shared.total_resources as f64
        }
    }

    /// Whether `(link, λ)` is currently masked busy (racy peek; the
    /// conformance harness reads it only at quiescent points).
    pub fn is_busy(&self, link: LinkId, lambda: Wavelength) -> bool {
        self.shared.state.is_busy(link, lambda)
    }

    /// Links currently failed and not yet repaired, sorted by id
    /// (copied out; exact at quiescence, racy mid-cut like every other
    /// aggregate peek).
    pub fn failed_links(&self) -> Vec<LinkId> {
        lock(&self.shared.failed).clone()
    }

    /// The residual network: base availability minus busy resources.
    ///
    /// This materializes a fresh [`WdmNetwork`] clone — the cost the
    /// masked hot path avoids. It remains the right tool for external
    /// snapshots (racy mid-commit, exact at quiescence).
    pub fn residual_network(&self) -> WdmNetwork {
        self.shared.residual_network()
    }

    fn shared(&self) -> &Shared {
        &self.shared
    }
}

/// A per-thread handle: the engine plus this thread's [`SearchScratch`].
/// The blocking methods drive the transaction state machines to
/// completion, yielding on contention.
#[derive(Debug)]
pub struct ConcurrentHandle {
    engine: ConcurrentEngine,
    scratch: SearchScratch,
}

impl ConcurrentHandle {
    /// The engine this handle works on.
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    /// Routes and, on success, locks `s → t` under `policy`, retrying
    /// validation conflicts until a verdict commits.
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Blocked`] when no route exists at the commit
    ///   instant.
    pub fn provision(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<ConnectionId, RwaError> {
        self.provision_bounded(s, t, policy, u64::MAX)
    }

    /// [`provision`](Self::provision) with a bounded retry budget: the
    /// transaction is abandoned once it has absorbed `max_conflicts`
    /// validation conflicts (or, with a budget of zero, on its first
    /// contended step of any kind).
    ///
    /// Retry exhaustion is **not** a blocked verdict. A blocked commit
    /// proves an occupancy state that rejected the request existed at
    /// the validation instant; an exhausted budget proves only that the
    /// engine was busy — the request was never decided, engine totals
    /// are untouched, and the caller may retry it verbatim. Long-lived
    /// callers that must not stall behind a hot engine (the
    /// control-plane daemon) use this and surface the distinction to
    /// their clients.
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Blocked`] when no route exists at the commit
    ///   instant;
    /// * [`RwaError::Contended`] when the retry budget is exhausted
    ///   before any verdict commits.
    pub fn provision_bounded(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        max_conflicts: u64,
    ) -> Result<ConnectionId, RwaError> {
        match self.provision_traced(s, t, policy, max_conflicts, None)? {
            ProvisionOutcome::Accepted { id, .. } => Ok(id),
            ProvisionOutcome::Blocked { .. } => Err(RwaError::Blocked { s, t }),
        }
    }

    /// The full-outcome provision driver behind
    /// [`provision_bounded`](Self::provision_bounded): a blocked request
    /// resolves to [`ProvisionOutcome::Blocked`] with its cause, an
    /// accepted one carries the committed path. When a recorder is
    /// attached the request's trace records under `wire` (or a freshly
    /// allocated id when `None`), so a daemon client that tagged its
    /// request can find the exact trace in the exported Chrome JSON.
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Contended`] when the retry budget is exhausted
    ///   before any verdict commits.
    pub fn provision_traced(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        max_conflicts: u64,
        wire: Option<TraceId>,
    ) -> Result<ProvisionOutcome, RwaError> {
        let mut txn = ProvisionTxn::new_traced(&self.engine, s, t, policy, wire)?;
        loop {
            match txn.step(&self.engine, &mut self.scratch) {
                Step::Done(outcome) => return Ok(outcome),
                Step::Progress => {}
                Step::Contended => {
                    // A contended step never leaves shard claims behind,
                    // so abandoning here is clean (see
                    // [`ProvisionTxn::conflicts`]).
                    if txn.conflicts() >= max_conflicts {
                        txn.trace_abandon();
                        return Err(RwaError::Contended {
                            s,
                            t,
                            conflicts: txn.conflicts(),
                        });
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Releases an active connection, freeing its resources.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), RwaError> {
        self.release_traced(id, None)
    }

    /// [`release`](Self::release) with an explicit wire trace id; see
    /// [`provision_traced`](Self::provision_traced). A release of an
    /// unknown connection still records a root span, with the `failed`
    /// verdict.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release_traced(
        &mut self,
        id: ConnectionId,
        wire: Option<TraceId>,
    ) -> Result<(), RwaError> {
        let mut txn = ReleaseTxn::new_traced(&self.engine, id, wire);
        drive(|| txn.step(&self.engine))
    }

    /// Simulates a fibre cut with restoration: tears down every
    /// connection crossing `link`, re-routes each under `policy` on the
    /// residual network with the cut excluded, and returns the affected
    /// ids paired with their restoration outcome (`Some(new_id)` when
    /// restored, `None` when lost), in connection-id order.
    ///
    /// The cut is **persistent**: the link's wavelengths stay marked
    /// busy — and count as occupied in
    /// [`utilization`](ConcurrentEngine::utilization) — until
    /// [`restore_link`](Self::restore_link) repairs it. Failing an
    /// already-failed link is an idempotent no-op returning nothing.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(
        &mut self,
        link: LinkId,
        policy: Policy,
    ) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        self.fail_link_outcomes(link, policy)
            .into_iter()
            .map(|o| (o.torn, o.restored.map(|(id, _)| id)))
            .collect()
    }

    /// [`fail_link`](Self::fail_link) with the full per-connection
    /// outcomes: restored paths and the blocked cause of every lost
    /// restoration.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link_outcomes(&mut self, link: LinkId, policy: Policy) -> Vec<RestorationOutcome> {
        let mut txn = FailLinkTxn::new(&self.engine, link, policy);
        drive(|| txn.step(&self.engine, &mut self.scratch))
    }

    /// Repairs a fibre previously cut by [`fail_link`](Self::fail_link):
    /// returns `true` when the link was failed and is now restored,
    /// `false` for the no-op repair of a healthy link (a blind unmark
    /// would free resources held by active connections). Existing
    /// connections are untouched either way — restoration re-routing
    /// happens at cut time, not at repair time.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        let mut txn = RestoreLinkTxn::new(&self.engine, link);
        drive(|| txn.step(&self.engine))
    }

    /// Adds (`enabled`) or removes (`enabled == false`) full-range
    /// wavelength conversion at `node` — the runtime converter-placement
    /// mutation behind sparse-placer searches. Shorthand for
    /// [`set_converter_policy`](Self::set_converter_policy) with
    /// [`ConversionPolicy::Free`] / [`ConversionPolicy::Forbidden`].
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] if `node` is not a node of the base
    /// network.
    ///
    /// # Panics
    ///
    /// See [`set_converter_policy`](Self::set_converter_policy).
    pub fn set_converter(&mut self, node: NodeId, enabled: bool) -> Result<bool, RwaError> {
        let policy = if enabled {
            ConversionPolicy::Free
        } else {
            ConversionPolicy::Forbidden
        };
        self.set_converter_policy(node, policy)
    }

    /// Replaces the conversion policy at `node`, rebuilding the routing
    /// structures around the new conversion gadget.
    ///
    /// Returns `Ok(true)` when the policy changed and `Ok(false)` for a
    /// no-op (the node already had exactly this policy). On change:
    ///
    /// * the base network's policy is swapped and the residual state is
    ///   rebuilt from it with every busy bit — including the blanket
    ///   markers of cut links — replayed, so resource occupancy
    ///   survives the mutation bit-for-bit;
    /// * the memo epoch advances: free-network reachability verdicts
    ///   probed under the old conversion layout are stale (a pair that
    ///   was `no_path` without conversion may be routable with it, and
    ///   vice versa) and are never trusted again.
    ///
    /// Active connections are grandfathered: their paths were valid when
    /// provisioned and their resources stay locked; removing a converter
    /// does not tear down connections that used it.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] if `node` is not a node of the base
    /// network.
    ///
    /// # Panics
    ///
    /// The rebuild needs exclusive access: panics on an actual change
    /// while another handle or clone of this engine is alive.
    pub fn set_converter_policy(
        &mut self,
        node: NodeId,
        policy: ConversionPolicy,
    ) -> Result<bool, RwaError> {
        let base = &self.engine.shared().base;
        if node.index() >= base.node_count() {
            return Err(RwaError::NodeOutOfRange(node));
        }
        if *base.conversion_at(node) == policy {
            return Ok(false);
        }
        let exclusive = Arc::get_mut(&mut self.engine.shared);
        assert!(
            exclusive.is_some(),
            "set_converter_policy needs exclusive access: another handle or clone shares this engine"
        );
        let Some(shared) = exclusive else {
            unreachable!("exclusive access asserted above")
        };
        shared.base.set_conversion_at(node, policy);
        #[cfg(debug_assertions)]
        verify_network(&shared.base, "set-converter");
        // Conversion gadgets are baked into the auxiliary graph at
        // construction; a policy change is a structural mutation, so
        // the state is rebuilt and the busy bits replayed.
        let mut state = ResidualState::new(&shared.base);
        for (e, _) in shared.base.graph().links() {
            for (w, _) in shared.base.wavelengths_on(e).iter() {
                if shared.state.is_busy(e, w) {
                    state.set_busy(e, w, true);
                }
            }
        }
        shared.state = state;
        *shared.memo_epoch.get_mut() += 1;
        self.scratch = SearchScratch::for_state(&shared.state);
        Ok(true)
    }
}

/// The trace bookkeeping one traced transaction carries: its writer,
/// its id, when the operation started, and when the current routing
/// attempt started.
#[derive(Debug)]
struct TxnTrace {
    writer: TraceWriter,
    id: TraceId,
    start_ns: u64,
    route_start: u64,
}

impl TxnTrace {
    /// Starts a trace under `wire` (or a fresh id) when the engine has a
    /// recorder attached.
    fn start(shared: &Shared, wire: Option<TraceId>) -> Option<TxnTrace> {
        shared.tracer.get().map(|rec| {
            let writer = rec.writer();
            let id = wire.unwrap_or_else(|| rec.next_trace_id());
            let start_ns = writer.now_ns();
            TxnTrace {
                writer,
                id,
                start_ns,
                route_start: 0,
            }
        })
    }

    /// Emits the root span and feeds the tail sampler.
    fn finish(&self, kind: TraceEventKind, verdict: RootVerdict, a: u64, b: u64) {
        let dur = self
            .writer
            .span(self.id, kind, self.start_ns, verdict.code(), a, b);
        self.writer.recorder().note_root(self.id, dur, verdict);
    }

    /// Emits the routing query's span, started at `route_start`.
    fn route_span(&self, s: NodeId, t: NodeId) {
        self.writer.span(
            self.id,
            TraceEventKind::Route,
            self.route_start,
            0,
            s.index() as u64,
            t.index() as u64,
        );
    }

    /// Emits the blocked-cause instant.
    fn blocked(&self, cause: BlockCause) {
        let code = match cause {
            BlockCause::NoPath => 0,
            BlockCause::Capacity => 1,
        };
        self.writer
            .instant(self.id, TraceEventKind::Blocked, code, 0);
    }
}

/// Provision transaction phases.
#[derive(Debug)]
enum ProvisionPhase {
    ReadVersions,
    Route,
    Claim,
    Validate,
    Flip,
    Publish,
    CommitBlocked,
    Done,
}

/// A stepped provision transaction; see the module docs for the
/// protocol. Create with [`ProvisionTxn::new`], drive with
/// [`ProvisionTxn::step`].
#[derive(Debug)]
pub struct ProvisionTxn {
    s: NodeId,
    t: NodeId,
    policy: Policy,
    /// Every shard's version at [`ProvisionPhase::ReadVersions`].
    versions: Vec<u64>,
    path: Option<Semilightpath>,
    touched: Vec<usize>,
    claimed: usize,
    flipped: usize,
    /// Validation conflicts this transaction has absorbed (each one a
    /// wasted route computation); the bounded-retry drivers read it to
    /// decide when to give up.
    conflicts: u64,
    phase: ProvisionPhase,
    /// Per-request trace state when the engine has a recorder attached.
    trace: Option<TxnTrace>,
    /// Latency clock start when the engine has metrics attached.
    started: Option<Instant>,
    /// Whether the last routing attempt agreed with the legacy router;
    /// asserted once the attempt's verdict commits (validated, so the
    /// masks both routers read were stable).
    #[cfg(debug_assertions)]
    legacy_agrees: bool,
}

impl ProvisionTxn {
    /// Starts a provision transaction, validating endpoints up front.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] for invalid endpoints.
    pub fn new(
        engine: &ConcurrentEngine,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<Self, RwaError> {
        Self::new_traced(engine, s, t, policy, None)
    }

    /// [`new`](Self::new) with an explicit wire trace id: when the
    /// engine has a recorder attached, the transaction's trace records
    /// under `wire` (or a freshly allocated id when `None`). Without a
    /// recorder, `wire` is ignored.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] for invalid endpoints.
    pub fn new_traced(
        engine: &ConcurrentEngine,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        wire: Option<TraceId>,
    ) -> Result<Self, RwaError> {
        let shared = engine.shared();
        for v in [s, t] {
            if v.index() >= shared.base.node_count() {
                return Err(RwaError::NodeOutOfRange(v));
            }
        }
        Ok(ProvisionTxn {
            s,
            t,
            policy,
            versions: vec![0; shared.shards.len()],
            path: None,
            touched: Vec::new(),
            claimed: 0,
            flipped: 0,
            conflicts: 0,
            phase: ProvisionPhase::ReadVersions,
            trace: TxnTrace::start(shared, wire),
            started: shared.clock(),
            #[cfg(debug_assertions)]
            legacy_agrees: true,
        })
    }

    /// Records the abandoned-root span for a transaction its driver is
    /// giving up on (retry budget exhausted): the trace ends with the
    /// `contended` verdict — always kept by tail sampling — so the
    /// request's wasted route attempts stay visible. No-op untraced.
    /// The driver must only call this after a [`Step::Contended`], when
    /// the transaction holds no shard claims.
    pub fn trace_abandon(&self) {
        self.finish_trace(RootVerdict::Contended);
    }

    /// Emits the request's root span with `verdict` (no-op untraced).
    fn finish_trace(&self, verdict: RootVerdict) {
        if let Some(tr) = &self.trace {
            tr.finish(
                TraceEventKind::Provision,
                verdict,
                self.s.index() as u64,
                self.t.index() as u64,
            );
        }
    }

    /// Validation conflicts absorbed so far. After any
    /// [`Step::Contended`] the transaction holds no shard claims, so a
    /// driver that decides this count has exhausted its budget can
    /// simply stop stepping and drop the transaction — reporting
    /// [`RwaError::Contended`], never a fabricated blocked verdict.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Counts one validation conflict (and traces it).
    fn note_conflict(&mut self, shared: &Shared) {
        shared.conflicts.fetch_add(1, RELAXED);
        self.conflicts += 1;
        if let Some(tr) = &self.trace {
            tr.writer
                .instant(tr.id, TraceEventKind::ShardRetry, self.conflicts, 0);
        }
    }

    /// Rolls claimed shards back to their pre-claim versions (no bits
    /// were flipped yet, so restoring the even value is exact) and
    /// restarts the optimistic loop.
    fn rollback_and_retry(&mut self, shared: &Shared) {
        for &sh in &self.touched[..self.claimed] {
            shared.shards[sh].store(self.versions[sh], RELEASE);
        }
        self.note_conflict(shared);
        self.claimed = 0;
        self.path = None;
        self.touched.clear();
        self.phase = ProvisionPhase::ReadVersions;
    }

    /// Debug builds: the committed verdict must match the legacy router.
    fn check_legacy(&self, shared: &Shared) {
        #[cfg(debug_assertions)]
        debug_assert!(
            shared.race != RaceInjection::None || self.legacy_agrees,
            "masked vs legacy-rebuild verdict or cost mismatch for {} -> {} under {}",
            self.s,
            self.t,
            self.policy
        );
        let _ = shared;
    }

    /// Commits the blocked verdict: classification, counters, trace.
    fn conclude_blocked(
        &mut self,
        shared: &Shared,
        scratch: &mut SearchScratch,
    ) -> Step<ProvisionOutcome> {
        let cause = shared.classify(scratch, self.s, self.t, self.policy);
        shared.note_request(Some(cause), self.started);
        if let Some(tr) = &self.trace {
            tr.blocked(cause);
        }
        self.finish_trace(RootVerdict::Blocked);
        self.phase = ProvisionPhase::Done;
        Step::Done(ProvisionOutcome::Blocked { cause })
    }

    /// Advances the transaction by one step. Call until [`Step::Done`];
    /// [`Step::Contended`] steps made no progress (another writer holds
    /// a needed shard) and should be retried after yielding.
    pub fn step(
        &mut self,
        engine: &ConcurrentEngine,
        scratch: &mut SearchScratch,
    ) -> Step<ProvisionOutcome> {
        let shared = engine.shared();
        match self.phase {
            ProvisionPhase::ReadVersions => {
                for (i, shard) in shared.shards.iter().enumerate() {
                    let v = shard.load(ACQUIRE);
                    if v % 2 == 1 {
                        return Step::Contended;
                    }
                    self.versions[i] = v;
                }
                self.phase = ProvisionPhase::Route;
                Step::Progress
            }
            ProvisionPhase::Route => {
                if let Some(tr) = &mut self.trace {
                    tr.route_start = tr.writer.now_ns();
                }
                let path = shared.route(scratch, self.s, self.t, self.policy);
                if let Some(tr) = &self.trace {
                    tr.route_span(self.s, self.t);
                }
                #[cfg(debug_assertions)]
                {
                    self.legacy_agrees = shared.legacy_agrees(self.s, self.t, self.policy, &path);
                }
                let skip_lock = shared.race == RaceInjection::SkipShardLock;
                match path {
                    Some(p) if !p.is_empty() => {
                        self.touched = shared.touched_shards(&p);
                        self.path = Some(p);
                        self.claimed = 0;
                        self.phase = if skip_lock {
                            // Injected race: commit on the racy read.
                            ProvisionPhase::Flip
                        } else {
                            ProvisionPhase::Claim
                        };
                    }
                    // Empty paths (s == t) block too.
                    _ if skip_lock => return self.conclude_blocked(shared, scratch),
                    _ => self.phase = ProvisionPhase::CommitBlocked,
                }
                Step::Progress
            }
            ProvisionPhase::Claim => {
                if self.claimed == self.touched.len() {
                    self.phase = ProvisionPhase::Validate;
                    return Step::Progress;
                }
                let sh = self.touched[self.claimed];
                let v = self.versions[sh];
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claimed += 1;
                        if let Some(tr) = &self.trace {
                            tr.writer
                                .instant(tr.id, TraceEventKind::ShardClaim, sh as u64, v);
                        }
                        Step::Progress
                    }
                    Err(_) => {
                        self.rollback_and_retry(shared);
                        Step::Contended
                    }
                }
            }
            ProvisionPhase::Validate => {
                // Order the route's relaxed mask loads before the
                // validating version loads (see wdm_obs::ordering).
                fence_acquire();
                let consistent = shared.race != RaceInjection::ForceValidationConflict
                    && shared
                        .shards
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !self.touched.contains(i))
                        .all(|(i, shard)| shard.load(RELAXED) == self.versions[i]);
                if consistent {
                    if let Some(tr) = &self.trace {
                        tr.writer
                            .instant(tr.id, TraceEventKind::ShardValidate, 1, 0);
                    }
                    self.phase = ProvisionPhase::Flip;
                    Step::Progress
                } else {
                    self.rollback_and_retry(shared);
                    Step::Contended
                }
            }
            ProvisionPhase::Flip => {
                let Some(path) = self.path.as_ref() else {
                    unreachable!("flip phase always holds a path")
                };
                if self.flipped == 0 {
                    self.check_legacy(shared);
                }
                shared.acquire_hop(self.trace.as_ref(), path.hops()[self.flipped]);
                self.flipped += 1;
                if self.flipped == path.hops().len() {
                    self.phase = ProvisionPhase::Publish;
                }
                Step::Progress
            }
            ProvisionPhase::Publish => {
                let Some(path) = self.path.take() else {
                    unreachable!("publish phase always holds a path")
                };
                let id = shared.commit_connection(path.clone(), self.started);
                if shared.race != RaceInjection::SkipShardLock {
                    for &sh in &self.touched {
                        shared.shards[sh].store(self.versions[sh] + 2, RELEASE);
                    }
                }
                self.finish_trace(RootVerdict::Ok);
                self.phase = ProvisionPhase::Done;
                Step::Done(ProvisionOutcome::Accepted { id, path })
            }
            ProvisionPhase::CommitBlocked => {
                fence_acquire();
                let consistent = shared.race != RaceInjection::ForceValidationConflict
                    && shared
                        .shards
                        .iter()
                        .enumerate()
                        .all(|(i, shard)| shard.load(RELAXED) == self.versions[i]);
                if !consistent {
                    self.note_conflict(shared);
                    self.phase = ProvisionPhase::ReadVersions;
                    return Step::Contended;
                }
                self.check_legacy(shared);
                self.conclude_blocked(shared, scratch)
            }
            ProvisionPhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

/// Release transaction phases.
#[derive(Debug)]
enum ReleasePhase {
    Lookup,
    Claim,
    Commit,
    Flip,
    Publish,
    Done,
}

/// A stepped release transaction: peeks the connection's path, claims
/// the shards the path touches, then — *under the claim* — removes the
/// connection from the active map and clears its bits. Releases never
/// conflict logically (the resources are owned), only contend on shard
/// claims.
///
/// The map removal must happen while the shards are held: a `fail_link`
/// holds every shard from its first claim through its publish, so
/// committing the removal under our own claim guarantees the release
/// linearizes entirely before or entirely after any cut. (An earlier
/// draft removed the entry during lookup, *before* claiming; the
/// conformance harness caught the resulting history — a cut and a
/// release both reporting they freed the same connection.) If the
/// connection is gone by the time we hold the shards, it was torn by a
/// concurrent cut: roll the claims back untouched and report
/// [`RwaError::UnknownConnection`].
#[derive(Debug)]
pub struct ReleaseTxn {
    id: ConnectionId,
    path: Option<Semilightpath>,
    touched: Vec<usize>,
    /// Per touched shard: the even version the claim CAS started from.
    claim_base: Vec<u64>,
    claimed: usize,
    flipped: usize,
    phase: ReleasePhase,
    trace: Option<TxnTrace>,
    started: Option<Instant>,
}

impl ReleaseTxn {
    /// Starts a release transaction for `id`.
    pub fn new(engine: &ConcurrentEngine, id: ConnectionId) -> Self {
        Self::new_traced(engine, id, None)
    }

    /// [`new`](Self::new) with an explicit wire trace id (see
    /// [`ProvisionTxn::new_traced`]).
    pub fn new_traced(engine: &ConcurrentEngine, id: ConnectionId, wire: Option<TraceId>) -> Self {
        let shared = engine.shared();
        ReleaseTxn {
            id,
            path: None,
            touched: Vec::new(),
            claim_base: Vec::new(),
            claimed: 0,
            flipped: 0,
            phase: ReleasePhase::Lookup,
            trace: TxnTrace::start(shared, wire),
            started: shared.clock(),
        }
    }

    /// Concludes the transaction with `result`, emitting its root span.
    fn finish(&mut self, result: Result<(), RwaError>) -> Step<Result<(), RwaError>> {
        if let Some(tr) = &self.trace {
            let verdict = if result.is_ok() {
                RootVerdict::Ok
            } else {
                RootVerdict::Failed
            };
            tr.finish(TraceEventKind::Release, verdict, self.id.as_u64(), 0);
        }
        self.phase = ReleasePhase::Done;
        Step::Done(result)
    }

    /// Advances the transaction by one step.
    pub fn step(&mut self, engine: &ConcurrentEngine) -> Step<Result<(), RwaError>> {
        let shared = engine.shared();
        match self.phase {
            ReleasePhase::Lookup => {
                let touched = lock(&shared.active)
                    .get(&self.id)
                    .map(|path| shared.touched_shards(path));
                match touched {
                    Some(touched) => {
                        self.claim_base = vec![0; touched.len()];
                        self.touched = touched;
                        self.phase = ReleasePhase::Claim;
                        Step::Progress
                    }
                    None => self.finish(Err(RwaError::UnknownConnection(self.id))),
                }
            }
            ReleasePhase::Claim => {
                if self.claimed == self.touched.len() {
                    self.phase = ReleasePhase::Commit;
                    return Step::Progress;
                }
                let sh = self.touched[self.claimed];
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1 {
                    return Step::Contended;
                }
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claim_base[self.claimed] = v;
                        self.claimed += 1;
                        Step::Progress
                    }
                    Err(_) => Step::Contended,
                }
            }
            ReleasePhase::Commit => {
                // Ids are never reused, so the path removed here is the
                // one whose shards we claimed.
                self.path = shared.remove_connection(self.id, self.started);
                if self.path.is_some() {
                    self.phase = ReleasePhase::Flip;
                    Step::Progress
                } else {
                    // Torn down by a cut that committed between our peek
                    // and our claim. Nothing was flipped: restore the
                    // claimed versions untouched.
                    for (i, &sh) in self.touched.iter().enumerate().take(self.claimed) {
                        shared.shards[sh].store(self.claim_base[i], RELEASE);
                    }
                    self.finish(Err(RwaError::UnknownConnection(self.id)))
                }
            }
            ReleasePhase::Flip => {
                let Some(path) = self.path.as_ref() else {
                    unreachable!("flip phase always holds a path")
                };
                shared.release_hop(self.trace.as_ref(), path.hops()[self.flipped]);
                self.flipped += 1;
                if self.flipped == path.hops().len() {
                    self.phase = ReleasePhase::Publish;
                }
                Step::Progress
            }
            ReleasePhase::Publish => {
                for (i, &sh) in self.touched.iter().enumerate() {
                    shared.shards[sh].store(self.claim_base[i] + 2, RELEASE);
                }
                self.finish(Ok(()))
            }
            ReleasePhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

/// Fail-link transaction phases.
#[derive(Debug)]
enum FailLinkPhase {
    ClaimAll,
    Snapshot,
    Teardown,
    MarkCut,
    Restore,
    PublishAll,
    Done,
}

/// A stepped fibre-cut transaction. Claims **every** shard (ascending —
/// the same global order provisions and releases use, so claim cycles
/// cannot form), then runs the teardown → mark → restore sequence
/// exclusively. The cut is persistent: the link's wavelengths stay
/// marked busy and the link stays in the failed set until a
/// [`RestoreLinkTxn`] repairs it; the memo epoch advances with every
/// such regime change so blocked-cause verdicts probed under one
/// failed-link set are never reused under another. Cutting an
/// already-failed link is an idempotent no-op (no teardown, no epoch
/// churn, empty outcomes, nothing metered or traced).
#[derive(Debug)]
pub struct FailLinkTxn {
    link: LinkId,
    policy: Policy,
    claim_base: Vec<u64>,
    claimed: usize,
    affected: Vec<(ConnectionId, Semilightpath)>,
    torn: usize,
    restored: usize,
    outcomes: Vec<RestorationOutcome>,
    /// Whether the link was healthy when the snapshot ran.
    cut: bool,
    phase: FailLinkPhase,
    trace: Option<TxnTrace>,
    started: Option<Instant>,
}

impl FailLinkTxn {
    /// Starts a fail-link transaction for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn new(engine: &ConcurrentEngine, link: LinkId, policy: Policy) -> Self {
        let shared = engine.shared();
        assert!(
            link.index() < shared.base.link_count(),
            "link {link} out of range"
        );
        FailLinkTxn {
            link,
            policy,
            claim_base: vec![0; shared.shards.len()],
            claimed: 0,
            affected: Vec::new(),
            torn: 0,
            restored: 0,
            outcomes: Vec::new(),
            cut: false,
            phase: FailLinkPhase::ClaimAll,
            trace: TxnTrace::start(shared, None),
            started: shared.clock(),
        }
    }

    /// Advances the transaction by one step.
    pub fn step(
        &mut self,
        engine: &ConcurrentEngine,
        scratch: &mut SearchScratch,
    ) -> Step<Vec<RestorationOutcome>> {
        let shared = engine.shared();
        match self.phase {
            FailLinkPhase::ClaimAll => {
                if self.claimed == shared.shards.len() {
                    self.phase = FailLinkPhase::Snapshot;
                    return Step::Progress;
                }
                let sh = self.claimed;
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1 {
                    return Step::Contended;
                }
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claim_base[sh] = v;
                        self.claimed += 1;
                        Step::Progress
                    }
                    Err(_) => Step::Contended,
                }
            }
            FailLinkPhase::Snapshot => {
                // Exclusive from here on.
                {
                    let mut failed = lock(&shared.failed);
                    if failed.contains(&self.link) {
                        // Already cut: nothing crosses a failed fibre,
                        // so there is nothing to tear down and the
                        // regime does not change — no epoch churn.
                        drop(failed);
                        self.phase = FailLinkPhase::PublishAll;
                        return Step::Progress;
                    }
                    failed.push(self.link);
                    failed.sort();
                }
                self.cut = true;
                // The failed set is updated *before* the epoch advances:
                // a classifier that acquires the new epoch is guaranteed
                // (release/acquire on memo_epoch) to also see the new
                // set, so no fresh-epoch entry can be probed against the
                // old regime.
                shared.memo_epoch.fetch_add(1, RELEASE);
                let active = lock(&shared.active);
                let mut affected: Vec<(ConnectionId, Semilightpath)> = active
                    .iter()
                    .filter(|(_, p)| p.hops().iter().any(|h| h.link == self.link))
                    .map(|(&id, p)| (id, p.clone()))
                    .collect();
                drop(active);
                affected.sort_by_key(|&(id, _)| id);
                self.affected = affected;
                self.phase = FailLinkPhase::Teardown;
                Step::Progress
            }
            FailLinkPhase::Teardown => {
                if self.torn == self.affected.len() {
                    self.phase = FailLinkPhase::MarkCut;
                    return Step::Progress;
                }
                let started = shared.clock();
                let (id, path) = &self.affected[self.torn];
                if shared.remove_connection(*id, started).is_some() {
                    for &hop in path.hops() {
                        shared.release_hop(self.trace.as_ref(), hop);
                    }
                }
                self.torn += 1;
                Step::Progress
            }
            FailLinkPhase::MarkCut => {
                // After the teardown no connection holds any of the cut
                // link's wavelengths, so every carried λ acquires; the
                // markers stay until a RestoreLinkTxn clears them.
                for lambda in 0..shared.base.k() {
                    let lam = Wavelength::new(lambda);
                    let got = shared.state.try_acquire_shared(self.link, lam);
                    debug_assert_ne!(
                        got,
                        AcquireOutcome::Busy,
                        "cut link ({}, {lam}) still held after teardown",
                        self.link
                    );
                    if got == AcquireOutcome::Acquired {
                        shared.note_flip(self.trace.as_ref(), self.link, lam, true);
                    }
                }
                self.phase = FailLinkPhase::Restore;
                Step::Progress
            }
            FailLinkPhase::Restore => {
                if self.restored == self.affected.len() {
                    self.phase = FailLinkPhase::PublishAll;
                    return Step::Progress;
                }
                let (torn, old_path) = &self.affected[self.restored];
                let (Some(s), Some(t)) =
                    (old_path.source(&shared.base), old_path.target(&shared.base))
                else {
                    unreachable!("active paths are non-empty")
                };
                let started = shared.clock();
                if let Some(tr) = &mut self.trace {
                    tr.route_start = tr.writer.now_ns();
                }
                let routed = shared.route(scratch, s, t, self.policy);
                if let Some(tr) = &self.trace {
                    tr.route_span(s, t);
                }
                #[cfg(debug_assertions)]
                debug_assert!(
                    shared.legacy_agrees(s, t, self.policy, &routed),
                    "masked vs legacy-rebuild restoration mismatch for {s} -> {t}"
                );
                let outcome = match routed {
                    Some(path) if !path.is_empty() => {
                        for &hop in path.hops() {
                            shared.acquire_hop(self.trace.as_ref(), hop);
                        }
                        let id = shared.commit_connection(path.clone(), started);
                        RestorationOutcome {
                            torn: *torn,
                            restored: Some((id, path)),
                            cause: None,
                        }
                    }
                    _ => {
                        let cause = shared.classify(scratch, s, t, self.policy);
                        shared.note_request(Some(cause), started);
                        if let Some(tr) = &self.trace {
                            tr.blocked(cause);
                        }
                        RestorationOutcome {
                            torn: *torn,
                            restored: None,
                            cause: Some(cause),
                        }
                    }
                };
                self.outcomes.push(outcome);
                self.restored += 1;
                Step::Progress
            }
            FailLinkPhase::PublishAll => {
                for (sh, shard) in shared.shards.iter().enumerate() {
                    shard.store(self.claim_base[sh] + 2, RELEASE);
                }
                if let (true, Some(m), Some(t0)) = (self.cut, shared.metrics.get(), self.started) {
                    m.fail_link_latency.observe(ns_since(t0));
                }
                if let (true, Some(tr)) = (self.cut, &self.trace) {
                    tr.finish(
                        TraceEventKind::FailLink,
                        RootVerdict::Ok,
                        self.link.index() as u64,
                        self.outcomes.len() as u64,
                    );
                }
                self.phase = FailLinkPhase::Done;
                Step::Done(std::mem::take(&mut self.outcomes))
            }
            FailLinkPhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

/// Restore-link transaction phases.
#[derive(Debug)]
enum RestorePhase {
    ClaimAll,
    Apply,
    PublishAll,
    Done,
}

/// A stepped fibre-repair transaction — the involution of
/// [`FailLinkTxn`]'s cut marking. Claims every shard (same ascending
/// order), then, exclusively: if the link is failed, clears the cut's
/// blanket busy markers, removes it from the failed set, and advances
/// the memo epoch; if it is not failed, does nothing (a blind unmark
/// would free wavelengths held by active connections). Resolves to
/// `true` iff the link was failed and is now repaired. Existing
/// connections are untouched either way — restoration re-routing
/// happens at cut time, not at repair time.
#[derive(Debug)]
pub struct RestoreLinkTxn {
    link: LinkId,
    claim_base: Vec<u64>,
    claimed: usize,
    restored: bool,
    phase: RestorePhase,
    trace: Option<TxnTrace>,
    started: Option<Instant>,
}

impl RestoreLinkTxn {
    /// Starts a restore-link transaction for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn new(engine: &ConcurrentEngine, link: LinkId) -> Self {
        let shared = engine.shared();
        assert!(
            link.index() < shared.base.link_count(),
            "link {link} out of range"
        );
        RestoreLinkTxn {
            link,
            claim_base: vec![0; shared.shards.len()],
            claimed: 0,
            restored: false,
            phase: RestorePhase::ClaimAll,
            trace: TxnTrace::start(shared, None),
            started: shared.clock(),
        }
    }

    /// Advances the transaction by one step.
    pub fn step(&mut self, engine: &ConcurrentEngine) -> Step<bool> {
        let shared = engine.shared();
        match self.phase {
            RestorePhase::ClaimAll => {
                if self.claimed == shared.shards.len() {
                    self.phase = RestorePhase::Apply;
                    return Step::Progress;
                }
                let sh = self.claimed;
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1 {
                    return Step::Contended;
                }
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claim_base[sh] = v;
                        self.claimed += 1;
                        Step::Progress
                    }
                    Err(_) => Step::Contended,
                }
            }
            RestorePhase::Apply => {
                let removed = {
                    let mut failed = lock(&shared.failed);
                    match failed.binary_search(&self.link) {
                        Ok(pos) => {
                            failed.remove(pos);
                            true
                        }
                        Err(_) => false,
                    }
                };
                if removed {
                    // Exact involution of MarkCut: only the cut's own
                    // markers exist on this link (its connections were
                    // torn at cut time and every later route excluded
                    // it), so releasing every carried λ un-flips
                    // precisely the bits the cut flipped.
                    for lambda in 0..shared.base.k() {
                        let lam = Wavelength::new(lambda);
                        if shared.state.release_shared(self.link, lam) {
                            shared.note_flip(self.trace.as_ref(), self.link, lam, false);
                        }
                    }
                    // Set first, then epoch — same publication order as
                    // the cut, for the same memo-correctness reason.
                    shared.memo_epoch.fetch_add(1, RELEASE);
                    self.restored = true;
                }
                self.phase = RestorePhase::PublishAll;
                Step::Progress
            }
            RestorePhase::PublishAll => {
                for (sh, shard) in shared.shards.iter().enumerate() {
                    shard.store(self.claim_base[sh] + 2, RELEASE);
                }
                if let (true, Some(m), Some(t0)) =
                    (self.restored, shared.metrics.get(), self.started)
                {
                    m.restore_link_latency.observe(ns_since(t0));
                }
                if let (true, Some(tr)) = (self.restored, &self.trace) {
                    tr.finish(
                        TraceEventKind::FailLink,
                        RootVerdict::Ok,
                        self.link.index() as u64,
                        0,
                    );
                }
                self.phase = RestorePhase::Done;
                Step::Done(self.restored)
            }
            RestorePhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecEngine;
    use wdm_core::Cost;
    use wdm_graph::DiGraph;

    fn base() -> WdmNetwork {
        let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .link_wavelengths(2, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn single_threaded_run_matches_sequential_engine() {
        // Same script through the engine (1 handle) and the
        // rebuild-per-request spec: identical outcomes, paths, totals,
        // cause splits, and utilization — and zero conflicts.
        let net = base();
        let conc = ConcurrentEngine::new(&net, 0);
        let mut h = conc.handle();
        let mut seq = SpecEngine::new(&net);
        let script = [(0, 3), (0, 2), (3, 0), (1, 3), (0, 3), (2, 2)];
        let mut pairs = Vec::new();
        for (s, t) in script {
            let a = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
            let b = seq.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
            assert_eq!(a.is_ok(), b.is_ok(), "{s}->{t}");
            if let (Ok(ca), Ok(cb)) = (a, b) {
                assert_eq!(conc.path_of(ca), seq.path_of(cb).cloned(), "{s}->{t} path");
                pairs.push((ca, cb));
            }
        }
        assert_eq!(conc.totals(), seq.totals());
        assert_eq!(conc.blocked_by_cause(), seq.blocked_by_cause());
        assert!((conc.utilization() - seq.utilization()).abs() < 1e-12);
        assert_eq!(conc.conflicts(), 0);
        let (ca, cb) = pairs[0];
        h.release(ca).expect("active");
        seq.release(cb).expect("active");
        assert_eq!(conc.totals(), seq.totals());
        assert_eq!(
            h.release(ca),
            Err(RwaError::UnknownConnection(ca)),
            "double release"
        );
    }

    #[test]
    fn fail_link_matches_sequential_engine() {
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let mut h = conc.handle();
        let mut seq = SpecEngine::new(&net);
        let a = h
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let b = seq
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let cut = conc.path_of(a).expect("active").hops()[1].link;
        let oa = h.fail_link(cut, Policy::Optimal);
        let ob = seq.fail_link(cut, Policy::Optimal);
        assert_eq!(oa.len(), ob.len());
        assert_eq!(oa[0].0, a);
        assert_eq!(ob[0].0, b);
        assert_eq!(oa[0].1.is_some(), ob[0].1.is_some());
        assert_eq!(conc.totals(), seq.totals());
        assert_eq!(conc.blocked_by_cause(), seq.blocked_by_cause());
        assert!((conc.utilization() - seq.utilization()).abs() < 1e-12);
        // The cut persists identically: the failed set matches, a
        // double-fail is an empty no-op in both engines, and requests
        // crossing the cut block in both.
        assert_eq!(conc.failed_links(), seq.failed_links());
        assert!(h.fail_link(cut, Policy::Optimal).is_empty());
        assert!(seq.fail_link(cut, Policy::Optimal).is_empty());
        let ra = h.provision(0.into(), 3.into(), Policy::Optimal);
        let rb = seq.provision(0.into(), 3.into(), Policy::Optimal);
        assert_eq!(ra.is_err(), rb.is_err());
        assert_eq!(conc.blocked_by_cause(), seq.blocked_by_cause());
        // Repair: both restore, both report the double-restore no-op,
        // and the pair routes again in both.
        assert_eq!(h.restore_link(cut), seq.restore_link(cut));
        assert!(!h.restore_link(cut));
        assert!(!seq.restore_link(cut));
        assert_eq!(conc.failed_links(), seq.failed_links());
        let ra = h
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("repaired fibre routes");
        let rb = seq
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("repaired fibre routes");
        assert_eq!(conc.path_of(ra), seq.path_of(rb).cloned());
        assert_eq!(conc.totals(), seq.totals());
        assert!((conc.utilization() - seq.utilization()).abs() < 1e-12);
    }

    #[test]
    fn threads_never_share_a_resource() {
        // 4 real threads hammer provision/release; afterwards the busy
        // count must equal exactly the hops of still-active paths and
        // no two active paths may share a (link, λ).
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let mut held: Vec<Vec<ConnectionId>> = Vec::new();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for worker in 0..4 {
                let engine = conc.clone();
                joins.push(scope.spawn(move || {
                    let mut h = engine.handle();
                    let mut mine = Vec::new();
                    for round in 0..50 {
                        let (s, t) = [(0, 3), (0, 2), (1, 3)][(worker + round) % 3];
                        if let Ok(id) = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal)
                        {
                            if round % 2 == 0 {
                                h.release(id).expect("own connection");
                            } else {
                                mine.push(id);
                            }
                        }
                    }
                    mine
                }));
            }
            for j in joins {
                held.push(j.join().expect("worker panicked"));
            }
        });
        let active: Vec<ConnectionId> = held.into_iter().flatten().collect();
        assert_eq!(conc.active_count(), active.len());
        let mut used = std::collections::HashSet::new();
        let mut hops = 0usize;
        for &id in &active {
            let path = conc.path_of(id).expect("active");
            for h in path.hops() {
                assert!(
                    used.insert((h.link, h.wavelength)),
                    "two active paths share ({}, {})",
                    h.link,
                    h.wavelength
                );
                assert!(conc.is_busy(h.link, h.wavelength));
                hops += 1;
            }
        }
        assert_eq!(conc.shared().state.busy_count(), hops);
        let (accepted, _, released) = conc.totals();
        assert_eq!(accepted - released, active.len() as u64);
        // Drain and verify the engine returns to empty.
        let mut h = conc.handle();
        for id in active {
            h.release(id).expect("active");
        }
        assert_eq!(conc.shared().state.busy_count(), 0);
        assert_eq!(conc.utilization(), 0.0);
    }

    #[test]
    fn shard_count_is_clamped() {
        let net = base();
        assert_eq!(ConcurrentEngine::new(&net, 0).num_shards(), 2);
        assert_eq!(ConcurrentEngine::new(&net, 1).num_shards(), 1);
        assert_eq!(ConcurrentEngine::new(&net, 64).num_shards(), 2);
    }

    /// The retry-exhaustion audit (ISSUE 7 satellite): when the bounded
    /// optimistic loop gives up, the caller must see a *contention*
    /// outcome — distinct from `Blocked { cause }` — and no engine
    /// totals may move, because no verdict ever committed.
    #[test]
    fn retry_exhaustion_is_contended_not_blocked() {
        let net = base();
        let conc =
            ConcurrentEngine::with_race_injection(&net, 2, RaceInjection::ForceValidationConflict);
        let mut h = conc.handle();
        let budget = 3;
        let got = h.provision_bounded(0.into(), 3.into(), Policy::Optimal, budget);
        match got {
            Err(RwaError::Contended { s, t, conflicts }) => {
                assert_eq!((s, t), (0.into(), 3.into()));
                assert!(conflicts >= budget, "gave up early: {conflicts} < {budget}");
            }
            other => panic!("expected Contended, got {other:?}"),
        }
        // Undecided means unaccounted: no accepted, no blocked (either
        // cause), no released — and no resources held.
        assert_eq!(conc.totals(), (0, 0, 0));
        assert_eq!(conc.blocked_by_cause(), (0, 0));
        assert_eq!(conc.active_count(), 0);
        assert_eq!(conc.busy_count(), 0);
        // The absorbed conflicts are visible in the engine-wide counter.
        assert_eq!(conc.conflicts(), budget);
        // The blocked-verdict path (s == t routes empty and must commit
        // through CommitBlocked) conflicts forever under the injection
        // too, so it must also exhaust as Contended rather than
        // fabricate a cause.
        let got = h.provision_bounded(2.into(), 2.into(), Policy::Optimal, 2);
        assert!(
            matches!(got, Err(RwaError::Contended { .. })),
            "blocked-verdict path must also exhaust as Contended: {got:?}"
        );
        assert_eq!(conc.blocked_by_cause(), (0, 0));
    }

    #[test]
    fn bounded_provision_behaves_normally_without_contention() {
        // With the audited protocol and a single thread the bounded
        // driver is byte-for-byte the unbounded one: accepts, blocks
        // with a real verdict, and never reports contention.
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let mut h = conc.handle();
        let a = h
            .provision_bounded(0.into(), 3.into(), Policy::Optimal, 0)
            .expect("routes");
        let _b = h
            .provision_bounded(0.into(), 3.into(), Policy::Optimal, 0)
            .expect("second wavelength");
        assert_eq!(
            h.provision_bounded(0.into(), 3.into(), Policy::Optimal, 0),
            Err(RwaError::Blocked {
                s: 0.into(),
                t: 3.into()
            })
        );
        assert_eq!(conc.conflicts(), 0);
        assert_eq!(conc.totals(), (2, 1, 0));
        h.release(a).expect("active");
    }

    #[test]
    fn out_of_range_endpoints_fail_fast() {
        let net = base();
        let conc = ConcurrentEngine::new(&net, 0);
        let mut h = conc.handle();
        assert!(matches!(
            h.provision(0.into(), 9.into(), Policy::Optimal),
            Err(RwaError::NodeOutOfRange(_))
        ));
        assert_eq!(conc.totals(), (0, 0, 0));
    }

    #[test]
    fn tracing_makes_seqlock_phases_visible_per_request() {
        use wdm_obs::trace::{FlightRecorder, TraceEventKind, TraceId};
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let recorder = FlightRecorder::new(1, 256);
        conc.attach_tracer(&recorder);
        let mut scratch = conc.handle_scratch();
        let mut txn = ProvisionTxn::new_traced(
            &conc,
            0.into(),
            3.into(),
            Policy::Optimal,
            Some(TraceId::from_u64(500)),
        )
        .expect("endpoints valid");
        loop {
            match txn.step(&conc, &mut scratch) {
                Step::Done(ProvisionOutcome::Accepted { .. }) => break,
                Step::Done(other) => panic!("unexpected outcome {other:?}"),
                Step::Progress => {}
                Step::Contended => panic!("uncontended single-threaded run"),
            }
        }
        let snap = recorder.snapshot();
        let of_500: Vec<_> = snap.records.iter().filter(|r| r.trace_id == 500).collect();
        let root = of_500
            .iter()
            .find(|r| r.kind == TraceEventKind::Provision)
            .expect("root span");
        assert_eq!(root.flags, wdm_obs::trace::RootVerdict::Ok.code());
        assert!(of_500.iter().any(|r| r.kind == TraceEventKind::Route));
        let claims: Vec<_> = of_500
            .iter()
            .filter(|r| r.kind == TraceEventKind::ShardClaim)
            .collect();
        assert!(!claims.is_empty(), "claims recorded per shard");
        assert!(of_500
            .iter()
            .any(|r| r.kind == TraceEventKind::ShardValidate));
        // Claimed shard versions were even (pre-claim values).
        for c in &claims {
            assert_eq!(c.b % 2, 0);
        }
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn tracing_records_conflict_retries_and_contended_abandonment() {
        use wdm_obs::trace::{FlightRecorder, RootVerdict, TraceEventKind};
        let net = base();
        let conc =
            ConcurrentEngine::with_race_injection(&net, 2, RaceInjection::ForceValidationConflict);
        let recorder = FlightRecorder::new(1, 512);
        conc.attach_tracer(&recorder);
        let mut h = conc.handle();
        let budget = 3;
        let got = h.provision_bounded(0.into(), 3.into(), Policy::Optimal, budget);
        assert!(matches!(got, Err(RwaError::Contended { .. })));
        let snap = recorder.snapshot();
        // Every absorbed conflict is visible as a ShardRetry instant on
        // one trace, and the abandoned request closes with a contended
        // root span.
        let root = snap
            .records
            .iter()
            .find(|r| r.kind == TraceEventKind::Provision)
            .expect("root span");
        assert_eq!(root.flags, RootVerdict::Contended.code());
        let retries: Vec<_> = snap
            .records
            .iter()
            .filter(|r| r.kind == TraceEventKind::ShardRetry && r.trace_id == root.trace_id)
            .collect();
        assert_eq!(retries.len() as u64, budget, "one instant per conflict");
        // Retry ordinals count up from 1.
        let mut ordinals: Vec<u64> = retries.iter().map(|r| r.a).collect();
        ordinals.sort_unstable();
        assert_eq!(ordinals, vec![1, 2, 3]);
        // One Route span per attempt: each attempt routes, claims, and
        // dies in validation; the budget check abandons *before* a
        // further routing pass, so attempts == conflicts == budget.
        let routes = snap
            .records
            .iter()
            .filter(|r| r.kind == TraceEventKind::Route && r.trace_id == root.trace_id)
            .count();
        assert_eq!(routes as u64, budget);
    }
}
