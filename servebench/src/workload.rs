//! The three workloads: their instances, request streams and, for
//! `remap_1k`, the seeded network changes each controller applies.
//!
//! Everything here is a pure function of the `--seed`; the daemon only
//! ever sees the instances generated from it.

use crate::stats::{derive_seed, SplitMix64};
use elpc_mapping::{CostModel, EdgeId, NodeId};
use elpc_netgraph::csr::{Csr, SsspScratch};
use elpc_netsim::faults::healthy_component;
use elpc_netsim::{Link, Network};
use elpc_workloads::{InstanceSpec, ProblemInstance};

/// The solver every routed-DP request asks for.
pub const ELPC: &str = "elpc_delay_routed";
/// The eval-kernel local search.
pub const LNS: &str = "lns_delay";
/// The closure-free greedy baseline.
pub const GREEDY: &str = "greedy_delay";
/// The three solvers the workloads mix, in metric-name order.
pub const SOLVERS: [&str; 3] = [ELPC, LNS, GREEDY];

/// Cost model every request carries.
pub fn cost() -> CostModel {
    CostModel::default()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bank hits on 8 small topologies deposited during set-up.
    Hit200,
    /// Every topology new, as a burst of 3 requests; builds coalesce.
    Miss300,
    /// Two closed-loop controllers remapping their own 1000-node network.
    Remap1k,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hit_200" => Some(Workload::Hit200),
            "miss_300" => Some(Workload::Miss300),
            "remap_1k" => Some(Workload::Remap1k),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hit200 => "hit_200",
            Workload::Miss300 => "miss_300",
            Workload::Remap1k => "remap_1k",
        }
    }

    /// `(modules, nodes, links)` of every instance.
    pub fn dims(self) -> (usize, usize, usize) {
        match self {
            Workload::Hit200 => (5, 200, 460),
            Workload::Miss300 => (6, 300, 900),
            Workload::Remap1k => (6, 1000, 2300),
        }
    }

    /// Offered rate of the open-loop phase in topologies per second (each
    /// `miss_300` topology is a burst of 3 requests), or `None` for the
    /// closed-loop-only `remap_1k`. Fixed at roughly half the closed-loop
    /// throughput measured on a 2-CPU host.
    pub fn open_loop_rate(self) -> Option<f64> {
        match self {
            Workload::Hit200 => Some(HIT_RATE_RPS),
            Workload::Miss300 => Some(MISS_RATE_TOPOLOGIES_PER_S),
            Workload::Remap1k => None,
        }
    }

    /// Requests per topology burst.
    pub fn burst(self) -> usize {
        match self {
            Workload::Miss300 => 3,
            _ => 1,
        }
    }

    /// The `index`-th instance of this workload under `seed`.
    pub fn instance(self, seed: u64, index: usize) -> ProblemInstance {
        let (m, n, l) = self.dims();
        InstanceSpec::sized(m, n, l)
            .generate(derive_seed(seed, self as u64 + 1, index as u64))
            .expect("sized random-connected instances always have a feasible destination")
    }
}

/// `hit_200` open-loop rate, requests per second.
pub const HIT_RATE_RPS: f64 = 150.0;
/// `miss_300` open-loop rate, topologies (bursts of 3) per second.
pub const MISS_RATE_TOPOLOGIES_PER_S: f64 = 5.0;
/// Distinct `hit_200` topologies, all deposited during set-up.
pub const HIT_TOPOLOGIES: usize = 8;
/// `remap_1k` controllers, one per connection.
pub const CONTROLLERS: usize = 2;

/// One request of a `hit_200` / `miss_300` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReq {
    /// Index of the instance (topology) the request carries.
    pub topo: usize,
    /// Registry solver it asks for.
    pub solver: &'static str,
}

/// The first `len` requests of a workload's seeded request stream.
/// `phase` separates the open- and closed-loop streams of one run.
///
/// Mixes are exact per block, and only the order within a block is
/// seeded, so every run offers the same mix:
///
/// * `hit_200`: each block of 8 requests visits the 8 topologies once, and
///   2 of them ask for `lns_delay`, the rest for `elpc_delay_routed` (3:1).
/// * `miss_300`: topology `t` (from `first_topo` on) arrives as a burst of
///   3 requests, one per solver. Of each 8 topologies, 2 are led by
///   `greedy_delay`, 3 by `elpc_delay_routed` and 3 by `lns_delay`; the
///   two followers come in seeded order.
pub fn stream(w: Workload, seed: u64, phase: u64, first_topo: usize, len: usize) -> Vec<StreamReq> {
    const BLOCK: usize = 8;
    let mut rng = SplitMix64::new(seed, 100 + phase);
    let mut out = Vec::with_capacity(len + 3 * BLOCK);
    let mut topo = first_topo;
    while out.len() < len {
        match w {
            Workload::Hit200 => {
                let mut topos: Vec<usize> = (0..HIT_TOPOLOGIES).collect();
                let mut solvers = [LNS, LNS, ELPC, ELPC, ELPC, ELPC, ELPC, ELPC];
                rng.shuffle(&mut topos);
                rng.shuffle(&mut solvers);
                for (topo, solver) in topos.into_iter().zip(solvers) {
                    out.push(StreamReq { topo, solver });
                }
            }
            Workload::Miss300 => {
                let mut leaders = [GREEDY, GREEDY, ELPC, ELPC, ELPC, LNS, LNS, LNS];
                rng.shuffle(&mut leaders);
                for leader in leaders {
                    let mut rest: Vec<&'static str> =
                        SOLVERS.iter().copied().filter(|s| *s != leader).collect();
                    rng.shuffle(&mut rest);
                    for solver in std::iter::once(leader).chain(rest) {
                        out.push(StreamReq { topo, solver });
                    }
                    topo += 1;
                }
            }
            Workload::Remap1k => break,
        }
    }
    out.truncate(len);
    out
}

/// The three kinds of change a `remap_1k` epoch applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// A few of the slowest links that a detour beats lose bandwidth: they
    /// are on no shortest-path tree, so the repair only copies.
    Degrade,
    /// Random links get a fresh bandwidth: part of the trees rebuild.
    Bandwidth,
    /// A link cut or node crash away from the endpoints, or the repair of
    /// the one currently active.
    Fault,
}

impl ChangeKind {
    pub const ALL: [ChangeKind; 3] = [
        ChangeKind::Degrade,
        ChangeKind::Bandwidth,
        ChangeKind::Fault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ChangeKind::Degrade => "degrade",
            ChangeKind::Bandwidth => "bandwidth",
            ChangeKind::Fault => "fault",
        }
    }
}

/// A failure currently in effect, remembered so a later fault epoch can
/// restore exactly what it took down.
#[derive(Debug, Clone)]
enum ActiveFault {
    Cut {
        link: EdgeId,
        old: Link,
    },
    Crash {
        node: NodeId,
        power: f64,
        links: Vec<(EdgeId, Link)>,
    },
}

/// The order in which `remap_1k` epochs apply the change kinds.
pub const CYCLE: [ChangeKind; 4] = [
    ChangeKind::Degrade,
    ChangeKind::Bandwidth,
    ChangeKind::Fault,
    ChangeKind::Bandwidth,
];

/// Links changed per degrade / bandwidth epoch.
const LINKS_PER_CHANGE: usize = 3;

/// One controller's seeded change stream over its own network. At most
/// one failure is active at a time, so the network does not decay over a
/// long run: a fault epoch either injects one or restores it.
pub struct ChangeStream {
    rng: SplitMix64,
    epoch: usize,
    faults: usize,
    src: NodeId,
    dst: NodeId,
    /// Every payload size a closure of the pipeline keys trees by.
    payloads: Vec<f64>,
    active: Option<ActiveFault>,
}

impl ChangeStream {
    pub fn new(seed: u64, controller: usize, inst: &ProblemInstance) -> Self {
        ChangeStream {
            rng: SplitMix64::new(seed, 200 + controller as u64),
            epoch: controller,
            faults: 0,
            src: inst.src,
            dst: inst.dst,
            payloads: (1..inst.pipeline.len())
                .map(|j| inst.pipeline.input_bytes(j))
                .collect(),
            active: None,
        }
    }

    /// Draws the next change and returns it applied to a copy of `net`.
    ///
    /// The kinds take turns in the fixed cycle [`CYCLE`], and fault epochs
    /// cycle through cut, restore, crash, restore; only which links and
    /// nodes they hit is seeded. So every run applies the same mix, and
    /// the latency median falls inside the bandwidth epochs' narrow mode
    /// instead of on the edge between two modes.
    pub fn next(&mut self, net: &Network) -> (ChangeKind, Network) {
        let kind = CYCLE[self.epoch % CYCLE.len()];
        self.epoch += 1;
        let mut out = net.clone();
        match kind {
            ChangeKind::Degrade => {
                let mut healthy = healthy_links(net);
                healthy.sort_by(|a, b| {
                    let (la, lb) = (net.link(*a).expect("id"), net.link(*b).expect("id"));
                    la.bw_mbps.total_cmp(&lb.bw_mbps).then(a.0.cmp(&b.0))
                });
                // Only links a detour beats: a bridge or a link some tree
                // needs would rebuild trees, and whether the slowest links
                // include one would differ from seed to seed.
                let csr = Csr::from_graph(net.graph());
                let detoured = healthy
                    .into_iter()
                    .filter(|&e| self.payloads.iter().all(|&b| detour_beats(net, &csr, e, b)));
                for e in detoured.take(LINKS_PER_CHANGE) {
                    let old = net.link(e).expect("id").clone();
                    let factor = self.rng.range(0.5, 0.9);
                    out.set_link_symmetric(e, Link::new(old.bw_mbps * factor, old.mld_ms))
                        .expect("id");
                }
            }
            ChangeKind::Bandwidth => {
                let healthy = healthy_links(net);
                for _ in 0..LINKS_PER_CHANGE {
                    let e = healthy[self.rng.below(healthy.len())];
                    let old = net.link(e).expect("id").clone();
                    let bw = self.rng.range(1.0, 1000.0);
                    out.set_link_symmetric(e, Link::new(bw, old.mld_ms))
                        .expect("id");
                }
            }
            ChangeKind::Fault => match self.active.take() {
                Some(ActiveFault::Cut { link, old }) => {
                    out.set_link_symmetric(link, old).expect("id");
                }
                Some(ActiveFault::Crash { node, power, links }) => {
                    out.node_mut(node).expect("id").power = power;
                    for (e, old) in links {
                        out.set_link_symmetric(e, old).expect("id");
                    }
                }
                None => {
                    let crash = self.faults % 2 == 1;
                    self.faults += 1;
                    for _attempt in 0..32 {
                        let mut trial = net.clone();
                        let fault = if crash {
                            let node = NodeId(self.rng.below(net.node_count()) as u32);
                            if node == self.src || node == self.dst || net.node_is_failed(node) {
                                continue;
                            }
                            let (power, links) = trial.fail_node(node).expect("id");
                            ActiveFault::Crash { node, power, links }
                        } else {
                            let healthy = healthy_links(net);
                            let link = healthy[self.rng.below(healthy.len())];
                            let old = trial.fail_link_symmetric(link).expect("id");
                            ActiveFault::Cut { link, old }
                        };
                        if healthy_component(&trial, self.src)[self.dst.index()] {
                            self.active = Some(fault);
                            out = trial;
                            break;
                        }
                    }
                }
            },
        }
        (kind, out)
    }
}

/// Representative (even) ids of every healthy undirected link.
fn healthy_links(net: &Network) -> Vec<EdgeId> {
    (0..net.link_count())
        .map(|i| EdgeId(2 * i as u32))
        .filter(|e| !net.link(*e).expect("id").is_failed())
        .collect()
}

/// Whether, for a payload of `bytes`, each direction of the undirected link
/// `e` is strictly slower than the shortest path between its ends that
/// avoids the link. Such a link lies on no shortest-path tree (a tree
/// through it would have a shorter path to its head), and making it slower
/// keeps it off every tree.
fn detour_beats(net: &Network, csr: &Csr, e: EdgeId, bytes: f64) -> bool {
    let cost = cost();
    let pair = [EdgeId(e.0 & !1), EdgeId(e.0 | 1)];
    let costs = csr.cost_vector(|d| {
        if pair.contains(&d) {
            f64::INFINITY
        } else {
            cost.edge_transfer_ms(net, d, bytes)
        }
    });
    let mut scratch = SsspScratch::new();
    pair.iter().all(|&d| {
        let edge = net.graph().edge(d).expect("id");
        let detour = scratch.shortest_paths(csr, edge.src, &costs).dist[edge.dst.index()];
        detour < cost.edge_transfer_ms(net, d, bytes)
    })
}

/// `inst` with its network replaced.
pub fn with_network(inst: &ProblemInstance, network: Network) -> ProblemInstance {
    ProblemInstance {
        network,
        pipeline: inst.pipeline.clone(),
        src: inst.src,
        dst: inst.dst,
        label: inst.label.clone(),
    }
}
