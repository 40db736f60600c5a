//! The executable specification of provisioning: a plain-data engine
//! that rebuilds the routing structure for every query.
//!
//! [`SpecEngine`] is the one reference the production engine
//! ([`ConcurrentEngine`](crate::ConcurrentEngine), and the serial
//! [`ProvisioningEngine`](crate::ProvisioningEngine) wrapped around it)
//! is checked against — by the conformance proptests, by the
//! `wdm-conformance` linearizability checker, and by the E13 benchmark's
//! `rebuild` column. It shares no state-machine code with the engine it
//! checks:
//!
//! * state is a busy matrix, a `BTreeMap` of active paths and the
//!   failed-link set — no atomics, no shards, no metrics, no tracing,
//!   no memo, and the whole value is `Clone`;
//! * every routing query builds a fresh
//!   [`PersistentAuxGraph`](wdm_core::PersistentAuxGraph) and replays
//!   the busy matrix into it, so ties break exactly as in production
//!   and paths compare hop for hop;
//! * a blocked request's cause comes from an un-memoized
//!   [`Policy::route`] (the legacy clone-and-rebuild router) on the free
//!   network minus the failed links.

use crate::metrics::BlockCause;
use crate::policy::Policy;
use crate::{ConnectionId, RwaError};
use std::collections::{BTreeMap, BTreeSet};
use wdm_core::{ConversionPolicy, PersistentAuxGraph, Semilightpath, Wavelength, WdmNetwork};
use wdm_graph::{LinkId, NodeId};

/// The rebuild-per-request reference engine; see the module docs.
#[derive(Debug, Clone)]
pub struct SpecEngine {
    base: WdmNetwork,
    /// `busy[link][λ]` — occupied by an active connection or by the
    /// blanket marker of a cut link.
    busy: Vec<Vec<bool>>,
    active: BTreeMap<ConnectionId, Semilightpath>,
    failed: BTreeSet<LinkId>,
    next_id: u64,
    accepted: u64,
    blocked: u64,
    released: u64,
    blocked_no_path: u64,
    blocked_capacity: u64,
}

impl SpecEngine {
    /// A reference engine over `base` with every resource free.
    pub fn new(base: &WdmNetwork) -> Self {
        SpecEngine {
            base: base.clone(),
            busy: vec![vec![false; base.k()]; base.link_count()],
            active: BTreeMap::new(),
            failed: BTreeSet::new(),
            next_id: 0,
            accepted: 0,
            blocked: 0,
            released: 0,
            blocked_no_path: 0,
            blocked_capacity: 0,
        }
    }

    /// Totals so far: `(accepted, blocked, released)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.accepted, self.blocked, self.released)
    }

    /// Blocked totals split by cause: `(no_path, capacity)`.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        (self.blocked_no_path, self.blocked_capacity)
    }

    /// Number of active connections.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The path of an active connection.
    pub fn path_of(&self, id: ConnectionId) -> Option<&Semilightpath> {
        self.active.get(&id)
    }

    /// Failed links, sorted by id.
    pub fn failed_links(&self) -> Vec<LinkId> {
        self.failed.iter().copied().collect()
    }

    /// Fraction of base (link, λ) resources currently busy.
    pub fn utilization(&self) -> f64 {
        let (mut total, mut used) = (0usize, 0usize);
        for (e, _) in self.base.graph().links() {
            for (w, _) in self.base.wavelengths_on(e).iter() {
                total += 1;
                used += usize::from(self.busy[e.index()][w.index()]);
            }
        }
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }

    /// Routes `s → t` on a from-scratch structure with the busy matrix
    /// replayed.
    fn route(&self, s: NodeId, t: NodeId, policy: Policy) -> Option<Semilightpath> {
        let mut fresh = PersistentAuxGraph::new(&self.base);
        for (li, per_link) in self.busy.iter().enumerate() {
            for (w, _) in per_link.iter().enumerate().filter(|(_, &b)| b) {
                fresh.set_busy(LinkId::new(li), Wavelength::new(w), true);
            }
        }
        let (state, scratch) = fresh.split_mut();
        policy.route_shared(state, scratch, s, t)
    }

    /// Topology-blocked when the pair is unroutable on the free network
    /// minus the failed links (or `s == t`), capacity-blocked otherwise.
    fn classify(&self, s: NodeId, t: NodeId, policy: Policy) -> BlockCause {
        let free = self.base.restrict(|link, _| !self.failed.contains(&link));
        if s != t && policy.route(&free, s, t).is_some() {
            BlockCause::Capacity
        } else {
            BlockCause::NoPath
        }
    }

    /// Provisions `s → t` under `policy`.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] for invalid endpoints,
    /// [`RwaError::Blocked`] when no route exists.
    pub fn provision(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<ConnectionId, RwaError> {
        for v in [s, t] {
            if v.index() >= self.base.node_count() {
                return Err(RwaError::NodeOutOfRange(v));
            }
        }
        match self.route(s, t, policy) {
            Some(path) if !path.is_empty() => {
                for hop in path.hops() {
                    self.busy[hop.link.index()][hop.wavelength.index()] = true;
                }
                let id = ConnectionId::from_raw(self.next_id);
                self.next_id += 1;
                self.active.insert(id, path);
                self.accepted += 1;
                Ok(id)
            }
            _ => {
                self.blocked += 1;
                match self.classify(s, t, policy) {
                    BlockCause::NoPath => self.blocked_no_path += 1,
                    BlockCause::Capacity => self.blocked_capacity += 1,
                }
                Err(RwaError::Blocked { s, t })
            }
        }
    }

    /// Releases an active connection.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), RwaError> {
        let path = self
            .active
            .remove(&id)
            .ok_or(RwaError::UnknownConnection(id))?;
        for hop in path.hops() {
            self.busy[hop.link.index()][hop.wavelength.index()] = false;
        }
        self.released += 1;
        Ok(())
    }

    /// Cuts `link`: tears down every connection crossing it, marks the
    /// link busy on every wavelength, then re-provisions each torn
    /// connection in id order. Returns `(torn, restored)` pairs; empty
    /// when the link was already cut.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(
        &mut self,
        link: LinkId,
        policy: Policy,
    ) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        assert!(
            link.index() < self.base.link_count(),
            "link {link} out of range"
        );
        if !self.failed.insert(link) {
            return Vec::new();
        }
        let torn: Vec<(ConnectionId, Semilightpath)> = self
            .active
            .iter()
            .filter(|(_, p)| p.hops().iter().any(|h| h.link == link))
            .map(|(&id, p)| (id, p.clone()))
            .collect();
        for (id, _) in &torn {
            let _ = self.release(*id);
        }
        self.busy[link.index()].fill(true);
        torn.into_iter()
            .map(|(id, path)| {
                let (Some(s), Some(t)) = (path.source(&self.base), path.target(&self.base)) else {
                    unreachable!("active paths are non-empty")
                };
                (id, self.provision(s, t, policy).ok())
            })
            .collect()
    }

    /// Repairs a cut link; `false` (and no change) when it was not cut.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        assert!(
            link.index() < self.base.link_count(),
            "link {link} out of range"
        );
        if !self.failed.remove(&link) {
            return false;
        }
        self.busy[link.index()].fill(false);
        true
    }

    /// Adds (`enabled`) or removes full-range conversion at `node`;
    /// `Ok(false)` when the node already had exactly that policy.
    /// Active connections are kept.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] if `node` is not a node.
    pub fn set_converter(&mut self, node: NodeId, enabled: bool) -> Result<bool, RwaError> {
        let policy = if enabled {
            ConversionPolicy::Free
        } else {
            ConversionPolicy::Forbidden
        };
        if node.index() >= self.base.node_count() {
            return Err(RwaError::NodeOutOfRange(node));
        }
        if *self.base.conversion_at(node) == policy {
            return Ok(false);
        }
        self.base.set_conversion_at(node, policy);
        Ok(true)
    }
}
