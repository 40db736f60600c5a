//! The three traffic mixes, the seeded instance and op-stream generator.
//!
//! Every workload is a closed loop: each connection sends one frame,
//! waits for its reply, then sends the next, so a slower daemon receives
//! less load. Each connection churns provisions (uniform random pairs)
//! and releases (a uniform random held id) around a fixed target of
//! lightpaths it holds. Connection 0 also cuts a seeded link every
//! `cut_every` of its frames and restores it `restore_after` frames
//! later; on `geant-cuts-sharded` it also scrapes `GET /metrics` between
//! frames.
//!
//! Cuts run on every workload because each end-to-end metric is reported,
//! and is non-zero, on each of them: `fail_link_rtt_p50_us` needs cuts,
//! and `error_ratio` counts the releases that the known protocol defect
//! turns into `unknown_connection`. A `fail-link` reply gives only
//! `restored`/`lost` counts, so no client learns the ids of restored
//! connections: they stay active on the server as orphans, and the
//! client's later release of the old id misses. Orphans pile up until
//! cuts lose as many as they restore, so the occupancy each workload
//! settles at includes them. The benchmark shows this as measured. The
//! cut cadences are high enough that the pile-up settles within the
//! warm-up, so the timed window sees a steady state.
//!
//! The predictions below name, for each layer, the end-to-end metrics a
//! change to that layer should move on the workload, and those it should
//! leave unchanged. A later change to one layer cites them.
//!
//! ## `nsfnet-churn`
//! NSFNET-14, k = 6, single backend, 2 connections holding 5 lightpaths
//! each, about 4% blocking, one cut per 100 frames of connection 0
//! restored 25 frames later.
//! *Why:* the engine call is a small share of the round trip, so socket
//! I/O, framing, parse, registry lookups, render and the engine mutex do
//! most of the work.
//! *Stresses:* `wdm-serve`.
//! *Predictions:* `serve.conn_remainder_ns`, `serve.parse_ns`,
//! `serve.backend_ns` and `serve.allocs_per_frame` move
//! `provision_rtt_p50_us`, `release_rtt_p50_us` and `throughput_rps`
//! here. Search-kernel changes (`core.*`) move them only by the
//! `core.route_ns` share of the budget. `blocking_ratio`,
//! `error_ratio` and `mean_path_cost` stay unchanged under any change
//! that keeps routes bit-identical.
//!
//! ## `sparse64-search`
//! `sparse:64`, k = 8, full conversion, single backend, 1 connection
//! holding 40 lightpaths, about 9% blocking, one cut per 100 frames
//! restored 25 frames later.
//! *Why:* masked Dijkstra over `G_all` is most of the round trip, and the
//! conversion gadgets are most of its auxiliary edges.
//! *Stresses:* `wdm-core` and `heaps`.
//! *Predictions:* `core.route_ns`, `core.relaxed_per_route`,
//! `core.pushes_per_route` and `core.aux_edges` move
//! `provision_rtt_p50_us`, `provision_rtt_p99_us` and `throughput_rps`
//! here; `core.aux_edges` and `core.build_ms` also move `setup_s` and
//! `server_peak_rss_mb`. `wdm-serve` changes move it only by their few %
//! of the budget. An exact search change leaves `blocking_ratio` and
//! `mean_path_cost` unchanged.
//!
//! ## `geant-cuts-sharded`
//! GÉANT-22, k = 8, `--sharded` backend, 2 connections holding 40
//! lightpaths each, about 40% blocking, one cut per 250 frames of
//! connection 0 restored 60 frames later, one `GET /metrics` scrape per
//! 2000 frames.
//! *Why:* the only workload on `ConcurrentEngine`: shard claims and
//! conflicts from 2 real threads, the blocked-cause probe with a memo
//! that every cut invalidates, restoration reroutes, and registry reads
//! beside registry writes.
//! *Stresses:* `wdm-rwa` (concurrent engine) and `wdm-obs`.
//! *Predictions:* `rwa.blocked_ns` moves `provision_rtt_p99_us`;
//! `rwa.conflicts_per_1k` moves `error_ratio` (through `contended`) and
//! `provision_rtt_p99_us`; `rwa.fail_link_ns` moves
//! `fail_link_rtt_p50_us`; `rwa.orphaned_connections` moves
//! `blocking_ratio` and `error_ratio`; `obs.scrape_ms` moves
//! `throughput_rps` and `provision_rtt_p99_us`, because the registry
//! mutex is shared with every request. Single-engine changes leave it
//! unchanged.
//!
//! On every workload `rwa.provision_ns` moves `provision_rtt_p50_us`,
//! `rwa.release_ns` moves `release_rtt_p50_us`, and `core.build_ms`
//! moves `setup_s`.

use std::fmt::Write as _;

use rand::rngs::{stream_seed, SmallRng};
use rand::{Rng, SeedableRng};
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::{textfmt, WdmNetwork};
use wdm_graph::{topology, DiGraph};

/// The topology a workload's instance is drawn over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// NSFNET, 14 nodes.
    Nsfnet,
    /// GÉANT, 22 nodes.
    Geant,
    /// A sparse graph: Hamiltonian cycle plus `n / 2` chords, degree at
    /// most 6 (the `sparse:<n>` topology of `wdm gen`), drawn from
    /// [`SPARSE_TOPOLOGY_SEED`].
    Sparse(usize),
}

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Topology of the generated instance.
    pub topology: Topology,
    /// Wavelengths per link.
    pub k: usize,
    /// Whether the daemon runs the sharded concurrent engine.
    pub sharded: bool,
    /// Concurrent client connections.
    pub connections: usize,
    /// Lightpaths each connection holds before it releases.
    pub target: usize,
    /// Connection 0 cuts a link every `cut_every` of its frames.
    pub cut_every: u64,
    /// ... and restores it this many of its frames later.
    pub restore_after: u64,
    /// Connection 0 scrapes `GET /metrics` every this many frames (0: never).
    pub scrape_every: u64,
}

/// Every workload, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nsfnet-churn",
        topology: Topology::Nsfnet,
        k: 6,
        sharded: false,
        connections: 2,
        target: 5,
        cut_every: 100,
        restore_after: 25,
        scrape_every: 0,
    },
    Workload {
        name: "sparse64-search",
        topology: Topology::Sparse(64),
        k: 8,
        sharded: false,
        connections: 1,
        target: 40,
        cut_every: 100,
        restore_after: 25,
        scrape_every: 0,
    },
    Workload {
        name: "geant-cuts-sharded",
        topology: Topology::Geant,
        k: 8,
        sharded: true,
        connections: 2,
        target: 40,
        cut_every: 250,
        restore_after: 60,
        scrape_every: 2000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sparse topology is drawn once, from this fixed seed, so that it
/// is one fixed graph like the reference WANs: a run's seed draws the
/// costs and the traffic, and search work does not swing with the
/// graph's diameter from seed to seed.
const SPARSE_TOPOLOGY_SEED: u64 = 64;

/// Independent random streams derived from one seed.
const STREAM_INSTANCE: u64 = 0;
/// Connection `c` draws from stream `STREAM_CONN + c`.
const STREAM_CONN: u64 = 1;

impl Workload {
    /// The instance for `seed`, as `.wdm` text: every wavelength on
    /// every link, link costs 10..=100 and a uniform conversion cost of
    /// 1..=5 at every node (full conversion). Unlike `wdm gen`, which
    /// keeps each wavelength with probability 0.6, capacity is the same
    /// for every seed, so blocking does not swing with the draw.
    pub fn instance_text(&self, seed: u64) -> Result<String, String> {
        let graph: DiGraph = match self.topology {
            Topology::Nsfnet => topology::nsfnet(),
            Topology::Geant => topology::geant(),
            Topology::Sparse(n) => {
                let mut rng = SmallRng::seed_from_u64(SPARSE_TOPOLOGY_SEED);
                topology::random_sparse(n, n / 2, 6, &mut rng).map_err(|e| e.to_string())?
            }
        };
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, STREAM_INSTANCE));
        let config = InstanceConfig {
            k: self.k,
            availability: Availability::Full,
            link_cost: (10, 100),
            conversion: ConversionSpec::Uniform { lo: 1, hi: 5 },
        };
        let net = random_network(graph, &config, &mut rng).map_err(|e| e.to_string())?;
        Ok(textfmt::to_text(&net))
    }

    /// The traffic generator of connection `conn` for `seed`.
    pub fn traffic(&self, seed: u64, conn: usize, net: &WdmNetwork) -> Traffic {
        let lead = conn == 0;
        Traffic {
            rng: SmallRng::seed_from_u64(stream_seed(seed, STREAM_CONN + conn as u64)),
            nodes: net.node_count() as u64,
            links: net.link_count() as u64,
            target: self.target,
            held: Vec::with_capacity(self.target + 1),
            frames: 0,
            cut_every: if lead { self.cut_every } else { 0 },
            restore_after: self.restore_after,
            scrape_every: if lead { self.scrape_every } else { 0 },
            pending_restore: None,
        }
    }
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Route and lock `s → t`.
    Provision {
        /// Source node.
        s: u32,
        /// Destination node.
        t: u32,
    },
    /// Release a connection id from an earlier provision reply.
    Release {
        /// The id as the daemon reported it.
        id: u64,
    },
    /// Cut a link.
    FailLink {
        /// Link index.
        link: u32,
    },
    /// Repair a cut link.
    RestoreLink {
        /// Link index.
        link: u32,
    },
    /// Engine totals.
    Stats,
    /// `GET /metrics` on a fresh connection (not a JSON frame).
    Scrape,
}

impl Op {
    /// Appends the wire frame, newline included; `trace_id` tags it.
    pub fn render(self, trace_id: Option<u64>, out: &mut String) {
        let _ = match self {
            Op::Provision { s, t } => write!(out, r#"{{"op":"provision","s":{s},"t":{t}"#),
            Op::Release { id } => write!(out, r#"{{"op":"release","id":{id}"#),
            Op::FailLink { link } => write!(out, r#"{{"op":"fail-link","link":{link}"#),
            Op::RestoreLink { link } => write!(out, r#"{{"op":"restore-link","link":{link}"#),
            Op::Stats => write!(out, r#"{{"op":"stats""#),
            Op::Scrape => writeln!(out, "GET /metrics HTTP/1.1"),
        };
        if self == Op::Scrape {
            return;
        }
        if let Some(id) = trace_id {
            let _ = write!(out, r#","trace_id":{id}"#);
        }
        out.push_str("}\n");
    }
}

/// One connection's seeded op stream. Which op comes next depends only
/// on the seed and on the replies already seen, so a deterministic
/// daemon yields a byte-identical stream for the same seed.
#[derive(Debug, Clone)]
pub struct Traffic {
    rng: SmallRng,
    nodes: u64,
    links: u64,
    target: usize,
    held: Vec<u64>,
    frames: u64,
    cut_every: u64,
    restore_after: u64,
    scrape_every: u64,
    pending_restore: Option<(u64, u32)>,
}

impl Traffic {
    /// The next operation. A release forgets its id at once, whatever
    /// the reply.
    pub fn next_op(&mut self) -> Op {
        self.frames += 1;
        let f = self.frames;
        if self.scrape_every > 0 && f.is_multiple_of(self.scrape_every) {
            return Op::Scrape;
        }
        if let Some((due, link)) = self.pending_restore {
            if f >= due {
                self.pending_restore = None;
                return Op::RestoreLink { link };
            }
        }
        if self.cut_every > 0 && f.is_multiple_of(self.cut_every) && self.pending_restore.is_none()
        {
            let link = self.rng.gen_range(0..self.links) as u32;
            self.pending_restore = Some((f + self.restore_after, link));
            return Op::FailLink { link };
        }
        if self.held.len() < self.target {
            let s = self.rng.gen_range(0..self.nodes);
            let t = (s + self.rng.gen_range(1..self.nodes)) % self.nodes;
            return Op::Provision {
                s: s as u32,
                t: t as u32,
            };
        }
        let i = self.rng.gen_range(0..self.held.len());
        Op::Release {
            id: self.held.swap_remove(i),
        }
    }

    /// Records the id of an accepted provision.
    pub fn accepted(&mut self, id: u64) {
        self.held.push(id);
    }

    /// Connection ids this client still holds.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}
