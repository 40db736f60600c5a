//! The traced run's per-layer split.
//!
//! The traced daemon run's frames are replayed in-process, in `seq`
//! order, with a timer around the public entry point of each layer:
//!
//! * `wdm-serve`: `protocol::parse_frame` and
//!   `EngineBackend::execute_frame` on a replica backend;
//! * `wdm-rwa`: `ProvisioningEngine` (or `ConcurrentHandle`) calls on a
//!   replica engine;
//! * `wdm-core`: `PersistentAuxGraph::route_optimal` on a shadow
//!   residual kept in lock-step with the replica engine through
//!   `set_busy`. It must return the engine's cost for every request.
//!
//! Each layer's self time is its span minus the next layer's span for
//! the same frame, and the client round trip minus the in-process serve
//! time is the unattributed connection remainder, so the five parts add
//! up to the mean provision round trip.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use wdm_core::{Hop, PersistentAuxGraph, SearchStats, Wavelength, WdmNetwork};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::MetricsRegistry;
use wdm_rwa::{ConcurrentEngine, ConcurrentHandle, ConnectionId, Policy, ProvisioningEngine};
use wdm_rwa::{RoutingMode, RwaError};
use wdm_serve::protocol::parse_frame;
use wdm_serve::EngineBackend;

use crate::alloc;
use crate::check::by_seq;
use crate::client::{parse_reply, Outcome, RunLog};
use crate::summary::{Ratio, Timing};
use crate::workload::{Op, Workload};
use crate::Metric;

/// Builds of `G_all` timed for `core.build_ms`.
const BUILD_REPS: usize = 5;

/// The replica engine behind the `wdm-rwa` spans.
enum Engine {
    Single(Box<ProvisioningEngine>),
    Sharded(Box<ConcurrentHandle>),
}

impl Engine {
    fn provision(&mut self, s: NodeId, t: NodeId) -> Result<ConnectionId, RwaError> {
        match self {
            Engine::Single(e) => e.provision(s, t, Policy::Optimal),
            Engine::Sharded(h) => h.provision(s, t, Policy::Optimal),
        }
    }

    fn release(&mut self, id: ConnectionId) -> bool {
        match self {
            Engine::Single(e) => e.release(id).is_ok(),
            Engine::Sharded(h) => h.release(id).is_ok(),
        }
    }

    fn fail_link(&mut self, link: LinkId) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        match self {
            Engine::Single(e) => e.fail_link(link, Policy::Optimal),
            Engine::Sharded(h) => h.fail_link(link, Policy::Optimal),
        }
    }

    fn restore_link(&mut self, link: LinkId) -> bool {
        match self {
            Engine::Single(e) => e.restore_link(link),
            Engine::Sharded(h) => h.restore_link(link),
        }
    }

    /// `(hops, cost)` of an active connection.
    fn path(&self, id: ConnectionId) -> Option<(Vec<Hop>, u64)> {
        let shape = |p: &wdm_core::Semilightpath| (p.hops().to_vec(), p.cost().value());
        let (hops, cost) = match self {
            Engine::Single(e) => e.path_of(id).map(shape)?,
            Engine::Sharded(h) => h.engine().path_of(id).as_ref().map(shape)?,
        };
        Some((hops, cost?))
    }
}

/// The shadow residual: the core search structure plus the hops each
/// replica connection occupies, so every engine op maps to `set_busy`.
struct Shadow {
    graph: PersistentAuxGraph,
    paths: HashMap<ConnectionId, Vec<Hop>>,
    k: usize,
}

impl Shadow {
    fn occupy(&mut self, id: ConnectionId, hops: Vec<Hop>) {
        for h in &hops {
            self.graph.set_busy(h.link, h.wavelength, true);
        }
        self.paths.insert(id, hops);
    }

    fn vacate(&mut self, id: ConnectionId) {
        for h in self.paths.remove(&id).unwrap_or_default() {
            self.graph.set_busy(h.link, h.wavelength, false);
        }
    }

    fn mark_link(&mut self, link: LinkId, busy: bool) {
        for w in 0..self.k {
            self.graph.set_busy(link, Wavelength::new(w), busy);
        }
    }
}

/// Per-provision span durations, in ns.
#[derive(Default)]
struct Spans {
    rtt: Vec<u64>,
    parse: Vec<u64>,
    frame: Vec<u64>,
    engine: Vec<u64>,
    route: Vec<u64>,
    blocked_self: Vec<u64>,
    release: Vec<u64>,
    fail_link: Vec<u64>,
    frames: u64,
    allocs: u64,
    search: SearchStats,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
    }
}

/// The per-layer metrics and the budget table of one traced run.
pub struct LayerReport {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// The human-readable budget table.
    pub budget: String,
}

/// Replays `log` in-process and splits the mean provision round trip by
/// layer. `trace_overhead_pct` compares the traced run's provision RTT
/// p50 with the untraced run's.
pub fn measure(
    workload: &Workload,
    net: &WdmNetwork,
    log: &RunLog,
    trace_overhead_pct: f64,
) -> Result<LayerReport, String> {
    let backend = if workload.sharded {
        EngineBackend::sharded(net, 0, 64, Policy::Optimal)
    } else {
        EngineBackend::single(net, RoutingMode::Masked, Policy::Optimal)
    };
    let registry = MetricsRegistry::new();
    backend.attach_metrics(&registry);
    let mut ctx = backend.new_ctx();
    let mut engine = if workload.sharded {
        Engine::Sharded(Box::new(ConcurrentEngine::new(net, 0).handle()))
    } else {
        let mut e = ProvisioningEngine::with_mode(net, RoutingMode::Masked);
        e.attach_metrics(&MetricsRegistry::new());
        Engine::Single(Box::new(e))
    };
    let mut shadow = Shadow {
        graph: PersistentAuxGraph::new(net),
        paths: HashMap::new(),
        k: net.k(),
    };
    // Daemon connection ids -> replica ids. They coincide on the single
    // backend; sharded commits interleave, so the replicas number apart.
    let mut ids_a: HashMap<u64, u64> = HashMap::new();
    let mut ids_b: HashMap<u64, ConnectionId> = HashMap::new();
    let mut sp = Spans::default();
    let mut line = String::with_capacity(64);

    for rec in by_seq(&log.recs)? {
        // The replicas follow the daemon's outcomes: a release the
        // daemon refused, or of an id a replica never matched, goes out
        // with an id no replica holds, so it stays a miss there too.
        let released = rec.outcome == Outcome::Released;
        let op = match rec.op {
            Op::Release { id } => Op::Release {
                id: ids_a
                    .get(&id)
                    .filter(|_| released)
                    .copied()
                    .unwrap_or(u64::MAX),
            },
            other => other,
        };
        line.clear();
        op.render(rec.trace_id, &mut line);
        let allocs = alloc::count();
        let t0 = Instant::now();
        let frame = parse_frame(line.trim_end()).map_err(|e| format!("{line}: {e}"))?;
        let parse_ns = ns(t0);
        let t1 = Instant::now();
        let reply = backend.execute_frame(&mut ctx, &frame);
        let frame_ns = ns(t1);
        if rec.measured {
            sp.allocs += alloc::count() - allocs;
            sp.frames += 1;
        }
        let daemon_id = match rec.outcome {
            Outcome::Accepted { id, .. } => Some(id),
            _ => None,
        };
        if let (Outcome::Accepted { id: a, .. }, _) = parse_reply(op, &reply) {
            match daemon_id {
                Some(d) => {
                    ids_a.insert(d, a);
                }
                // Sharded commits interleave, so a replica can accept
                // what the daemon blocked; undo it (untimed) so the
                // replica's occupancy keeps following the daemon's.
                None => {
                    let undo = format!("{{\"op\":\"release\",\"id\":{a}}}");
                    backend.execute_line(&mut ctx, &undo);
                }
            }
        }

        match rec.op {
            Op::Provision { s, t } => {
                let (s, t) = (NodeId::new(s as usize), NodeId::new(t as usize));
                let t2 = Instant::now();
                let got = engine.provision(s, t);
                let engine_ns = ns(t2);
                let t3 = Instant::now();
                let routed = shadow.graph.route_optimal(s, t);
                let route_ns = ns(t3);
                let search = shadow.graph.take_search_totals();
                let blocked = match (&got, &routed) {
                    (Ok(id), Some(p)) => {
                        let (hops, cost) = engine.path(*id).ok_or("accepted id has no path")?;
                        if p.cost().value() != Some(cost) {
                            return Err(format!(
                                "shadow route cost {} != engine cost {cost} for {s} -> {t}",
                                p.cost()
                            ));
                        }
                        match daemon_id {
                            Some(d) => {
                                shadow.occupy(*id, hops);
                                ids_b.insert(d, *id);
                            }
                            None => {
                                engine.release(*id);
                            }
                        }
                        false
                    }
                    (Err(RwaError::Blocked { .. }), None) => true,
                    (got, routed) => {
                        return Err(format!(
                            "engine {got:?} vs shadow {:?} for {s} -> {t}",
                            routed.as_ref().map(|p| p.cost())
                        ))
                    }
                };
                if rec.measured {
                    sp.rtt.push(rec.rtt_ns);
                    sp.parse.push(parse_ns);
                    sp.frame.push(frame_ns);
                    sp.engine.push(engine_ns);
                    sp.route.push(route_ns);
                    sp.search.accumulate(&search);
                    if blocked {
                        sp.blocked_self.push(engine_ns.saturating_sub(route_ns));
                    }
                }
            }
            Op::Release { id } => {
                let id = ids_b
                    .get(&id)
                    .filter(|_| released)
                    .copied()
                    .unwrap_or(ConnectionId::from_u64(u64::MAX));
                let t2 = Instant::now();
                let ok = engine.release(id);
                let release_ns = ns(t2);
                if ok {
                    shadow.vacate(id);
                }
                if rec.measured {
                    sp.release.push(release_ns);
                }
            }
            Op::FailLink { link } => {
                let link = LinkId::new(link as usize);
                let t2 = Instant::now();
                let outcomes = engine.fail_link(link);
                let fail_ns = ns(t2);
                for &(torn, _) in &outcomes {
                    shadow.vacate(torn);
                }
                shadow.mark_link(link, true);
                for (_, restored) in outcomes {
                    if let Some(id) = restored {
                        let (hops, _) = engine.path(id).ok_or("restored id has no path")?;
                        shadow.occupy(id, hops);
                    }
                }
                if rec.measured {
                    sp.fail_link.push(fail_ns);
                }
            }
            Op::RestoreLink { link } => {
                let link = LinkId::new(link as usize);
                if engine.restore_link(link) {
                    shadow.mark_link(link, false);
                }
            }
            Op::Stats | Op::Scrape => {}
        }
    }
    Ok(report(workload, net, log, &sp, &shadow, trace_overhead_pct))
}

/// Turns the spans into metrics and the budget table.
fn report(
    workload: &Workload,
    net: &WdmNetwork,
    log: &RunLog,
    sp: &Spans,
    shadow: &Shadow,
    trace_overhead_pct: f64,
) -> LayerReport {
    let n = sp.rtt.len();
    let rtt = mean(&sp.rtt);
    let parse = mean(&sp.parse);
    let frame = mean(&sp.frame);
    let engine = mean(&sp.engine);
    let route = mean(&sp.route);
    let remainder = rtt - parse - frame;
    let backend = frame - engine;
    let rwa = engine - route;
    let rwa_self: Vec<u64> = sp
        .engine
        .iter()
        .zip(&sp.route)
        .map(|(&e, &r)| e.saturating_sub(r))
        .collect();
    let rwa_self = Timing::new(rwa_self);
    let route_t = Timing::new(sp.route.clone());
    let per_route = |v: usize| v as f64 / n.max(1) as f64;
    let s = &sp.search;
    let provisions = log
        .recs
        .iter()
        .filter(|r| matches!(r.op, Op::Provision { .. }))
        .count() as f64;
    let aux = shadow.graph.aux().stats();
    let build_ms = {
        let mut builds: Vec<u64> = (0..BUILD_REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(PersistentAuxGraph::new(std::hint::black_box(net)));
                ns(t0)
            })
            .collect();
        builds.sort_unstable();
        builds[BUILD_REPS / 2] as f64 / 1e6
    };
    let scrape_ms = mean(&log.scrape_ns) / 1e6;
    let m = Metric::new;
    let metrics = vec![
        m("serve.conn_remainder_ns", remainder, "ns", n),
        m("serve.parse_ns", parse, "ns", n),
        m("serve.backend_ns", backend, "ns", n),
        m(
            "serve.allocs_per_frame",
            sp.allocs as f64 / sp.frames.max(1) as f64,
            "count",
            sp.frames as usize,
        ),
        m("rwa.provision_ns", rwa, "ns", n),
        m(
            "rwa.provision_ns_p99",
            rwa_self.at(99.0).unwrap_or(0) as f64,
            "ns",
            n,
        ),
        m(
            "rwa.blocked_ns",
            mean(&sp.blocked_self),
            "ns",
            sp.blocked_self.len(),
        ),
        m("rwa.release_ns", mean(&sp.release), "ns", sp.release.len()),
        m(
            "rwa.fail_link_ns",
            mean(&sp.fail_link),
            "ns",
            sp.fail_link.len(),
        ),
        m(
            "rwa.conflicts_per_1k",
            log.stats.conflicts as f64 * 1000.0 / provisions.max(1.0),
            "1/1000",
            provisions as usize,
        ),
        m(
            "rwa.orphaned_connections",
            log.stats.active as f64 - log.held as f64,
            "count",
            1,
        ),
        m("core.route_ns", route, "ns", n),
        m(
            "core.route_ns_p99",
            route_t.at(99.0).unwrap_or(0) as f64,
            "ns",
            n,
        ),
        m("core.settled_per_route", per_route(s.settled), "count", n),
        m("core.relaxed_per_route", per_route(s.relaxed), "count", n),
        m(
            "core.masked_skips_per_route",
            per_route(s.masked_skips),
            "count",
            n,
        ),
        m("core.pushes_per_route", per_route(s.pushes), "count", n),
        m(
            "core.decrease_keys_per_route",
            per_route(s.decrease_keys),
            "count",
            n,
        ),
        m(
            "core.improve_ratio",
            if s.relaxed == 0 {
                0.0
            } else {
                s.improved as f64 / s.relaxed as f64
            },
            "ratio",
            s.relaxed,
        ),
        m("core.aux_nodes", aux.total_nodes() as f64, "count", 1),
        m("core.aux_edges", aux.total_edges() as f64, "count", 1),
        m("core.build_ms", build_ms, "ms", BUILD_REPS),
        m("obs.scrape_ms", scrape_ms, "ms", log.scrape_ns.len()),
        m("bench.trace_overhead_pct", trace_overhead_pct, "%", n),
    ];

    let mut budget = String::new();
    let blocked = Ratio {
        part: sp.blocked_self.len() as u64,
        whole: n as u64,
    };
    let _ = writeln!(
        budget,
        "budget: {} mean provision RTT, traced run ({n} provisions; blocked in the replay {blocked})",
        workload.name
    );
    let rows = [
        (
            "serve.conn_remainder_ns",
            remainder,
            "unattributed: socket I/O, framing, wake-up, handle_frame",
        ),
        ("serve.parse_ns", parse, "protocol::parse_frame"),
        (
            "serve.backend_ns",
            backend,
            "execute_frame minus engine: dispatch, mutex, render",
        ),
        (
            "rwa.provision_ns",
            rwa,
            "engine provision minus route: commit, probe, memo",
        ),
        ("core.route_ns", route, "PersistentAuxGraph::route_optimal"),
    ];
    for (name, v, what) in rows {
        let share = if rtt > 0.0 { v / rtt * 100.0 } else { 0.0 };
        let _ = writeln!(budget, "  {name:<24} {v:>12.1} ns {share:>6.1}%  {what}");
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let _ = writeln!(budget, "  {:<24} {sum:>12.1} ns", "sum");
    let _ = writeln!(budget, "  {:<24} {rtt:>12.1} ns", "mean provision RTT");
    LayerReport { metrics, budget }
}
