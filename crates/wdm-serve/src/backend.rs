//! The engine backend behind the daemon, and the reply renderer.
//!
//! [`EngineBackend`] fronts one [`ConcurrentEngine`] and runs every
//! request through one execute path. The two backends differ only in
//! how commits are ordered:
//!
//! * **serial** — every request runs under one mutex, so requests
//!   serialize in arrival order and never contend;
//! * **sharded** — no mutex: transactions commit lock-free, with a
//!   per-request retry budget after which the request is answered
//!   `contended` (undecided) instead of stalling the connection.
//!
//! Both render replies through the same hand-rolled JSON writer with a
//! fixed key order, so a recorded sequence of engine operations replayed
//! offline through a fresh serial backend reproduces the daemon's reply
//! bytes exactly — the conformance tests in `tests/daemon.rs` hold the
//! daemon to that.
//!
//! Every engine-touching reply carries a `seq` number: the position of
//! the operation in the engine's serialized history. For the serial
//! backend the number is assigned under the mutex, so sorting a
//! multi-connection session's replies by `seq` yields the exact replay
//! order. The sharded backend assigns `seq` from an atomic at dispatch;
//! it orders replies but does not promise commit-order replay (commits
//! interleave by design).

use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::RELAXED;
use wdm_obs::trace::{FlightRecorder, TraceId};
use wdm_obs::MetricsRegistry;
use wdm_rwa::concurrent::ProvisionOutcome;
use wdm_rwa::{
    BlockCause, ConcurrentEngine, ConcurrentHandle, ConnectionId, Policy, RaceInjection,
    RoutingMode, RwaError,
};

use crate::protocol::{escape_json, Frame, Request};

/// Locks a mutex, recovering the data from a poisoned lock. The guarded
/// value is the serial backend's sequence counter; every engine
/// operation leaves the engine consistent or untouched, so a panicking
/// peer cannot have left a half-applied update behind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How requests are ordered against each other, and the `seq` counter
/// that numbers them.
enum Order {
    /// One request at a time, under the mutex that also guards `seq`.
    Serial(Mutex<u64>),
    /// Lock-free commits; `seq` from an atomic at dispatch.
    Sharded(AtomicU64),
}

/// A provisioning engine wired for daemon use: thread-safe dispatch,
/// sequence numbering, and deterministic JSON reply rendering.
pub struct EngineBackend {
    engine: ConcurrentEngine,
    order: Order,
    /// Validation conflicts a provision may absorb before it is
    /// answered `contended`. Unbounded on the serial backend, which
    /// never contends.
    max_conflicts: u64,
    policy: Policy,
    /// The flight recorder behind request-scoped tracing, write-once.
    /// `None` means tracing is disabled and every request pays exactly
    /// one branch (inside the engine) for the privilege.
    tracer: OnceLock<Arc<FlightRecorder>>,
}

/// Per-connection execution state: the connection's engine handle,
/// which owns its search scratch, created on the first engine-touching
/// request.
pub struct ExecCtx {
    handle: Option<ConcurrentHandle>,
}

/// One provision verdict shaped for the renderer: on accept, the id
/// plus the committed path's `(hops, conversions, cost)`.
type ProvisionVerdict = Result<(ConnectionId, usize, usize, wdm_core::Cost), RwaError>;

impl EngineBackend {
    /// The serial backend: requests serialized behind a mutex. `policy`
    /// is the default for requests that carry no `policy` field.
    pub fn single(net: &wdm_core::WdmNetwork, mode: RoutingMode, policy: Policy) -> Self {
        let RoutingMode::Masked = mode;
        EngineBackend {
            engine: ConcurrentEngine::new(net, 1),
            order: Order::Serial(Mutex::new(0)),
            max_conflicts: u64::MAX,
            policy,
            tracer: OnceLock::new(),
        }
    }

    /// The sharded backend with `shards` wavelength shards (`0`
    /// auto-sizes) and a per-request retry budget of `max_conflicts`
    /// validation conflicts, after which the request is answered
    /// `contended` (undecided — the client may retry verbatim) instead
    /// of stalling the connection.
    pub fn sharded(
        net: &wdm_core::WdmNetwork,
        shards: usize,
        max_conflicts: u64,
        policy: Policy,
    ) -> Self {
        Self::sharded_with_race(net, shards, max_conflicts, policy, RaceInjection::None)
    }

    /// [`EngineBackend::sharded`] with a deliberate protocol corruption
    /// injected — conformance-test instrumentation only (it is the only
    /// way to make the `contended` reply deterministic).
    pub fn sharded_with_race(
        net: &wdm_core::WdmNetwork,
        shards: usize,
        max_conflicts: u64,
        policy: Policy,
        race: RaceInjection,
    ) -> Self {
        EngineBackend {
            engine: ConcurrentEngine::with_race_injection(net, shards, race),
            order: Order::Sharded(AtomicU64::new(0)),
            max_conflicts,
            policy,
            tracer: OnceLock::new(),
        }
    }

    /// Attaches the engine's instruments to `registry` (provision
    /// latency, accept/block counters, occupancy gauges, search-kernel
    /// totals). Write-once.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        self.engine.attach_metrics(registry);
    }

    /// Attaches `recorder` to the engine: every request now records
    /// request-scoped spans, labelled by the wire `trace_id` when the
    /// client sent one. Write-once — the first recorder wins and later
    /// calls are ignored (the engine reads the cell lock-free
    /// mid-transaction).
    pub fn attach_tracer(&self, recorder: &Arc<FlightRecorder>) {
        if self.tracer.set(Arc::clone(recorder)).is_ok() {
            self.engine.attach_tracer(recorder);
        }
    }

    /// The attached flight recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.tracer.get()
    }

    /// Creates the per-connection execution state for this backend.
    pub fn new_ctx(&self) -> ExecCtx {
        ExecCtx { handle: None }
    }

    /// Executes one parsed [`Frame`] and renders its reply line (without
    /// the trailing newline): the request runs with its wire
    /// `trace_id` labelling the recorded spans, and the reply echoes the
    /// id back as a final `"trace_id"` field — so the bytes a client
    /// correlates against are exactly the bytes it tagged.
    pub fn execute_frame(&self, ctx: &mut ExecCtx, frame: &Frame) -> String {
        let reply = self.execute_wired(ctx, &frame.req, frame.trace_id.map(TraceId::from_u64));
        match frame.trace_id {
            None => reply,
            Some(id) => echo_trace_id(reply, TraceId::from_u64(id)),
        }
    }

    /// The execution path behind [`execute_frame`](Self::execute_frame).
    ///
    /// `Drain` is a server-level operation, and `Trace` only reads
    /// recorder counters; at this layer both are acknowledged without
    /// touching the engine or consuming a `seq`, which keeps offline
    /// replay of recorded sessions trivial.
    fn execute_wired(&self, ctx: &mut ExecCtx, req: &Request, wire: Option<TraceId>) -> String {
        if matches!(req, Request::Drain) {
            return r#"{"ok":true,"op":"drain"}"#.to_string();
        }
        if matches!(req, Request::Trace) {
            return match self.tracer.get() {
                None => r#"{"ok":false,"op":"trace","error":"tracing_disabled"}"#.to_string(),
                Some(rec) => format!(
                    r#"{{"ok":true,"op":"trace","records":{},"dropped":{}}}"#,
                    rec.recorded_count(),
                    rec.drop_count()
                ),
            };
        }
        let trace_counts = self
            .tracer
            .get()
            .map(|rec| (rec.recorded_count(), rec.drop_count()));
        let handle = ctx.handle.get_or_insert_with(|| self.engine.handle());
        match &self.order {
            Order::Serial(seq) => {
                let mut seq = lock(seq);
                *seq += 1;
                self.run(handle, *seq, req, wire, trace_counts)
            }
            // Relaxed is enough: the counter only needs uniqueness and
            // atomicity, not ordering against engine commits.
            Order::Sharded(seq) => {
                let seq = seq.fetch_add(1, RELAXED) + 1;
                self.run(handle, seq, req, wire, trace_counts)
            }
        }
    }

    /// Parses and executes one request line — the offline-replay entry
    /// point used by the conformance tests. Malformed lines get the
    /// same `malformed` reply the server would send, and `trace_id`
    /// tags round-trip exactly as they do on a live connection.
    pub fn execute_line(&self, ctx: &mut ExecCtx, line: &str) -> String {
        match crate::protocol::parse_frame(line.trim()) {
            Ok(frame) => self.execute_frame(ctx, &frame),
            Err(detail) => render_malformed(&detail),
        }
    }

    /// Runs one engine-touching request through `h` and renders the
    /// reply numbered `seq`.
    fn run(
        &self,
        h: &mut ConcurrentHandle,
        seq: u64,
        req: &Request,
        wire: Option<TraceId>,
        trace_counts: Option<(u64, u64)>,
    ) -> String {
        let engine = &self.engine;
        let nodes = engine.base().node_count();
        let links = engine.base().link_count();
        match req {
            Request::Provision { s, t, policy } => {
                if let Some(bad) = node_out_of_range(*s, *t, nodes) {
                    return render_node_out_of_range(seq, bad);
                }
                let pol = policy.unwrap_or(self.policy);
                let (verdict, cause) = self.provision_one(h, *s, *t, pol, wire);
                render_provision(Some(seq), &verdict, cause)
            }
            Request::Release { id } => {
                let id = ConnectionId::from_u64(*id);
                render_release(seq, id, h.release_traced(id, wire).is_ok())
            }
            Request::FailLink { link } => {
                if *link >= links {
                    return render_link_out_of_range("fail-link", seq, *link, links);
                }
                let outcomes = h.fail_link(LinkId::new(*link), self.policy);
                render_fail_link(seq, *link, &outcomes)
            }
            Request::RestoreLink { link } => {
                if *link >= links {
                    return render_link_out_of_range("restore-link", seq, *link, links);
                }
                render_restore_link(seq, *link, h.restore_link(LinkId::new(*link)))
            }
            Request::Batch { pairs, policy } => {
                let pol = policy.unwrap_or(self.policy);
                let mut accepted = 0usize;
                let elements: Vec<String> = pairs
                    .iter()
                    .map(|&(s, t)| match node_out_of_range(s, t, nodes) {
                        Some(bad) => render_node_out_of_range_bare(bad),
                        None => {
                            let (verdict, _) = self.provision_one(h, s, t, pol, wire);
                            if verdict.is_ok() {
                                accepted += 1;
                            }
                            render_provision(None, &verdict, None)
                        }
                    })
                    .collect();
                render_batch(seq, &elements, accepted)
            }
            Request::Stats => {
                let (accepted, blocked, released) = engine.totals();
                let (no_path, capacity) = engine.blocked_by_cause();
                let mut s = format!(
                    r#"{{"ok":true,"op":"stats","seq":{seq},"accepted":{accepted},"blocked":{blocked},"blocked_no_path":{no_path},"blocked_capacity":{capacity},"released":{released},"active":{},"utilization":{},"conflicts":{}"#,
                    engine.active_count(),
                    engine.utilization(),
                    engine.conflicts()
                );
                push_stats_trace_fields(&mut s, trace_counts);
                s.push('}');
                s
            }
            // Handled in `execute_wired` before dispatch.
            Request::Drain => r#"{"ok":true,"op":"drain"}"#.to_string(),
            Request::Trace => r#"{"ok":false,"op":"trace","error":"tracing_disabled"}"#.to_string(),
        }
    }

    /// One bounded provision, shaped for the renderer together with the
    /// blocked cause. Retry exhaustion is answered `contended`, never a
    /// fabricated blocked verdict: the request was not decided and
    /// engine totals are untouched (pinned by the provisioning
    /// conformance suite).
    fn provision_one(
        &self,
        h: &mut ConcurrentHandle,
        s: usize,
        t: usize,
        policy: Policy,
        wire: Option<TraceId>,
    ) -> (ProvisionVerdict, Option<BlockCause>) {
        let (s, t) = (NodeId::new(s), NodeId::new(t));
        match h.provision_traced(s, t, policy, self.max_conflicts, wire) {
            Ok(ProvisionOutcome::Accepted { id, path }) => (
                Ok((id, path.len(), path.conversion_count(), path.cost())),
                None,
            ),
            Ok(ProvisionOutcome::Blocked { cause }) => {
                (Err(RwaError::Blocked { s, t }), Some(cause))
            }
            Err(e) => (Err(e), None),
        }
    }
}

/// Appends `"trace_id":N` as the final field of a rendered reply
/// object. Every reply renderer in this module ends with `}`, so the
/// echo is a truncate-and-extend, not a reparse.
pub(crate) fn echo_trace_id(mut reply: String, id: TraceId) -> String {
    debug_assert!(reply.ends_with('}'));
    reply.truncate(reply.len() - 1);
    let _ = write!(reply, r#","trace_id":{}}}"#, id.as_u64());
    reply
}

/// Renders the reply for a malformed frame.
pub(crate) fn render_malformed(detail: &str) -> String {
    format!(
        r#"{{"ok":false,"error":"malformed","detail":"{}"}}"#,
        escape_json(detail)
    )
}

/// Renders the admission-control rejection reply.
pub(crate) fn render_overloaded() -> String {
    r#"{"ok":false,"error":"overloaded"}"#.to_string()
}

fn cause_str(cause: BlockCause) -> &'static str {
    match cause {
        BlockCause::NoPath => "no_path",
        BlockCause::Capacity => "capacity",
    }
}

/// Renders a provision verdict: a full reply (with `op` and `seq`) when
/// `seq` is set, else a bare batch element (whose blocked verdicts carry
/// no cause — causes go to the engine counters, not per element).
fn render_provision(
    seq: Option<u64>,
    verdict: &ProvisionVerdict,
    cause: Option<BlockCause>,
) -> String {
    let mut s = format!(r#"{{"ok":{}"#, verdict.is_ok());
    if let Some(seq) = seq {
        let _ = write!(s, r#","op":"provision","seq":{seq}"#);
    }
    match verdict {
        Ok((id, hops, conversions, cost)) => {
            let _ = write!(
                s,
                r#","id":{},"cost":{},"hops":{},"conversions":{}"#,
                id.as_u64(),
                cost,
                hops,
                conversions
            );
        }
        Err(RwaError::Blocked { .. }) => {
            s.push_str(r#","error":"blocked""#);
            if let Some(cause) = cause {
                let _ = write!(s, r#","cause":"{}""#, cause_str(cause));
            }
        }
        Err(RwaError::NodeOutOfRange(v)) => {
            let _ = write!(s, r#","error":"node_out_of_range","node":{}"#, v.index());
        }
        Err(RwaError::Contended { conflicts, .. }) => {
            let _ = write!(s, r#","error":"contended","conflicts":{conflicts}"#);
        }
        Err(other) => {
            let _ = write!(
                s,
                r#","error":"internal","detail":"{}""#,
                escape_json(&other.to_string())
            );
        }
    }
    s.push('}');
    s
}

/// The first of `s`, `t` that is not a node of an `n`-node network.
///
/// Wire indices are range-checked *before* [`NodeId::new`] is called:
/// id construction panics above `u32::MAX`, and the daemon must answer
/// a typed error for any out-of-range index, however large.
fn node_out_of_range(s: usize, t: usize, nodes: usize) -> Option<usize> {
    if s >= nodes {
        Some(s)
    } else if t >= nodes {
        Some(t)
    } else {
        None
    }
}

fn render_node_out_of_range(seq: u64, node: usize) -> String {
    format!(
        r#"{{"ok":false,"op":"provision","seq":{seq},"error":"node_out_of_range","node":{node}}}"#
    )
}

fn render_node_out_of_range_bare(node: usize) -> String {
    format!(r#"{{"ok":false,"error":"node_out_of_range","node":{node}}}"#)
}

fn render_link_out_of_range(op: &str, seq: u64, link: usize, links: usize) -> String {
    format!(
        r#"{{"ok":false,"op":"{op}","seq":{seq},"error":"link_out_of_range","link":{link},"links":{links}}}"#
    )
}

fn render_fail_link(
    seq: u64,
    link: usize,
    outcomes: &[(ConnectionId, Option<ConnectionId>)],
) -> String {
    let restored = outcomes.iter().filter(|(_, o)| o.is_some()).count();
    let lost = outcomes.len() - restored;
    format!(
        r#"{{"ok":true,"op":"fail-link","seq":{seq},"link":{link},"restored":{restored},"lost":{lost}}}"#
    )
}

/// `restored` is false when the link was not cut — a reported no-op,
/// mirroring the engines' idempotent `restore_link`.
fn render_restore_link(seq: u64, link: usize, restored: bool) -> String {
    format!(r#"{{"ok":true,"op":"restore-link","seq":{seq},"link":{link},"restored":{restored}}}"#)
}

fn render_batch(seq: u64, elements: &[String], accepted: usize) -> String {
    format!(
        r#"{{"ok":true,"op":"batch","seq":{seq},"size":{},"accepted":{accepted},"results":[{}]}}"#,
        elements.len(),
        elements.join(",")
    )
}

/// Appends the flight-recorder fields to a `stats` reply, in the fixed
/// key order the replay-identity conformance test pins. Absent recorder
/// renders zeros, so traced and untraced daemons agree on the schema.
fn push_stats_trace_fields(s: &mut String, trace_counts: Option<(u64, u64)>) {
    let (records, dropped) = trace_counts.unwrap_or((0, 0));
    let _ = write!(s, r#","trace_records":{records},"trace_dropped":{dropped}"#);
}

fn render_release(seq: u64, id: ConnectionId, ok: bool) -> String {
    if ok {
        format!(
            r#"{{"ok":true,"op":"release","seq":{seq},"id":{}}}"#,
            id.as_u64()
        )
    } else {
        format!(
            r#"{{"ok":false,"op":"release","seq":{seq},"error":"unknown_connection","id":{}}}"#,
            id.as_u64()
        )
    }
}
