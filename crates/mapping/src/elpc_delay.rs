//! ELPC minimum end-to-end delay with node reuse (§3.1.1).
//!
//! Fills the Fig. 1 two-dimensional table column by column: cell `T_j(v)`
//! holds the minimum total delay of mapping the first `j+1` modules (0-based
//! here) onto a walk from the source `vs` ending at `v`. Each new column
//! considers the two sub-cases of the paper's correctness proof:
//!
//! 1. **stay** — module `j` joins the group on the same node `v`
//!    (`T_{j-1}(v) + c_j·m_{j-1}/p_v`), and
//! 2. **move** — module `j` starts a new group on `v`, fed over an incoming
//!    link from a neighbor `u`
//!    (`T_{j-1}(u) + c_j·m_{j-1}/p_v + transfer(m_{j-1}, u→v)`).
//!
//! The base column pins module 0 (the data source) to `vs` with zero cost;
//! this deliberately *includes* `T_1(vs)` via the stay case, which the
//! paper's Eq. 4 omits but its own Fig. 3 solution requires (DESIGN.md
//! erratum 2).
//!
//! Complexity: `O(n·(k + |E|))` time, `O(n·k)` parent space — the paper's
//! `O(n·|E|)` with the `k` term made explicit for the stay scan.

use crate::{
    AssignmentSolution, CostModel, DelaySolution, Instance, Mapping, MappingError, Result,
    SolveContext,
};
use elpc_netgraph::NodeId;

/// Back-pointer for path reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Parent {
    /// Unreached cell.
    None,
    /// Stay on the same node as module `j-1`.
    Stay,
    /// Move from neighbor `u` (module `j-1` runs on `u`).
    Move(NodeId),
}

/// Solves the minimum end-to-end delay problem. Returns the optimal mapping
/// and its Eq. 1 delay.
///
/// Errors with [`MappingError::Infeasible`] when the destination cannot be
/// reached within `n - 1` hops (§4.3: "the shortest end-to-end path is
/// longer than the pipeline").
pub fn solve(inst: &Instance<'_>, cost: &CostModel) -> Result<DelaySolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();
    debug_assert!(n >= 2, "Pipeline guarantees >= 2 modules");

    // T[v] for the previous column; module 0 sits on src at zero cost.
    let mut prev = vec![f64::INFINITY; k];
    prev[inst.src.index()] = 0.0;
    // parents[j][v] for columns j = 1..n (column 0 is implicit).
    let mut parents: Vec<Vec<Parent>> = Vec::with_capacity(n - 1);

    let mut cur = vec![f64::INFINITY; k];
    for j in 1..n {
        let in_bytes = pipe.input_bytes(j);
        let work = pipe.compute_work(j);
        let mut parent = vec![Parent::None; k];
        // sub-case (i): stay on the node running module j-1
        for v in 0..k {
            cur[v] = if prev[v].is_finite() {
                let t = prev[v] + work / net.power(NodeId::from_index(v));
                parent[v] = Parent::Stay;
                t
            } else {
                f64::INFINITY
            };
        }
        // sub-case (ii): arrive over an incoming edge u → v
        for (eid, e) in net.graph().edges() {
            let u = e.src.index();
            if !prev[u].is_finite() {
                continue;
            }
            let v = e.dst.index();
            let t = prev[u] + work / net.power(e.dst) + cost.edge_transfer_ms(net, eid, in_bytes);
            if t < cur[v] {
                cur[v] = t;
                parent[v] = Parent::Move(e.src);
            }
        }
        parents.push(parent);
        std::mem::swap(&mut prev, &mut cur);
    }

    let total = prev[inst.dst.index()];
    if !total.is_finite() {
        return Err(MappingError::Infeasible(format!(
            "destination {} is more than {} hops from source {}",
            inst.dst,
            n - 1,
            inst.src
        )));
    }

    // walk parents back from (n-1, dst)
    let mut assignment = vec![inst.dst; n];
    let mut node = inst.dst;
    for j in (1..n).rev() {
        assignment[j] = node;
        match parents[j - 1][node.index()] {
            Parent::Stay => {}
            Parent::Move(u) => node = u,
            Parent::None => unreachable!("finite cells always have Stay/Move parents"),
        }
    }
    assignment[0] = node;
    debug_assert_eq!(assignment[0], inst.src, "module 0 must end on the source");

    let mapping = Mapping::from_assignment(&assignment)?;
    debug_assert!(
        {
            let check = cost.delay_ms(inst, &mapping)?;
            (check - total).abs() <= 1e-6 * total.max(1.0)
        },
        "DP objective must match Eq. 1 evaluation"
    );
    Ok(DelaySolution {
        mapping,
        delay_ms: total,
    })
}

/// ELPC-delay on the network's *metric closure* (routed-overlay variant).
///
/// The strict DP above charges transfers at direct-link cost and therefore
/// must place a module on every traversed node. Free-placement baselines
/// (Streamline) are instead evaluated under routed transport — the best
/// multi-hop route between consecutive hosts ([`crate::routed`]). This
/// variant runs the same dynamic program over the *complete overlay* whose
/// `u → v` cost is the routed transfer time, making it **optimal for the
/// routed objective**: no per-module placement, Streamline's included, can
/// beat it. Use it whenever baselines are compared under routed semantics
/// (the Fig. 2/5 tables do).
///
/// Complexity: `O(n · k · (|E| + k) log k)` Dijkstra work in the worst
/// case, but every (payload, host) shortest-path tree comes from the
/// context's shared [`crate::MetricClosure`], so repeated solves on one
/// instance — and sibling solvers in a comparison — pay it only once.
///
/// The `O(k²)` per-stage relax loop is source-major: sources outer, each
/// reading its tree's distance row contiguously, destination cells inner.
/// It runs on [`SolveContext::warm_threads`] chunked column workers (`0` =
/// all CPUs): each worker owns a contiguous block of destination cells and
/// takes every source row in ascending order, so each cell sees the stay
/// candidate first and then the sources in ascending order, exactly as a
/// cell-by-cell scan would, and the result is bit-for-bit identical at any
/// thread count. At `threads == 1` no worker threads are spawned and the
/// trees are still fetched lazily per stage.
pub fn solve_routed_ctx(ctx: &SolveContext<'_>) -> Result<AssignmentSolution> {
    let inst = ctx.instance();
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();
    // below the crossover size a per-stage scope spawn costs more than the
    // whole O(k²) relax; the serial path computes identical cells
    let threads = if k >= crate::context::MIN_PARALLEL_RELAX_NODES_DELAY {
        crate::context::effective_threads(ctx.warm_threads())
    } else {
        1
    };

    // pre-build the per-source trees in parallel when the context asks for
    // it (no-op on lazy serial contexts); the DP below then runs hot
    ctx.warm_routed_dp();

    let mut prev = vec![f64::INFINITY; k];
    prev[inst.src.index()] = 0.0;
    let mut parents: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(n - 1);
    // one cell per destination node: (best delay, parent host)
    let mut cur: Vec<(f64, Option<NodeId>)> = vec![(f64::INFINITY, None); k];

    for j in 1..n {
        let in_bytes = pipe.input_bytes(j);
        let work = pipe.compute_work(j);
        // the per-source trees this column consults, fetched in ascending
        // source order (the exact queries the serial loop used to make)
        let trees: Vec<Option<std::sync::Arc<elpc_netgraph::algo::ShortestPaths>>> = prev
            .iter()
            .enumerate()
            .map(|(u, &p)| {
                p.is_finite()
                    .then(|| ctx.routed_from(NodeId::from_index(u), in_bytes))
            })
            .collect();
        let compute: Vec<f64> = (0..k)
            .map(|v| work / net.power(NodeId::from_index(v)))
            .collect();
        // source-major: each chunk of destination cells starts from its
        // stay candidates, then takes every source's contiguous distance
        // row in ascending order — per cell the same float comparison
        // sequence as a cell-by-cell scan, whichever chunk it lands in
        let prev_col = &prev;
        crate::context::relax_chunked(threads, &mut cur, |lo, cells| {
            for (i, cell) in cells.iter_mut().enumerate() {
                let v = lo + i;
                *cell = if prev_col[v].is_finite() {
                    (prev_col[v] + compute[v], Some(NodeId::from_index(v)))
                } else {
                    (f64::INFINITY, None)
                };
            }
            let hi = lo + cells.len();
            for (u, tree) in trees.iter().enumerate() {
                let Some(tree) = tree else { continue };
                let from = prev_col[u];
                let rows = tree.dist[lo..hi].iter().zip(&compute[lo..hi]);
                for (i, (cell, (&d, &c))) in cells.iter_mut().zip(rows).enumerate() {
                    if lo + i == u || d.is_infinite() {
                        continue;
                    }
                    let t = from + d + c;
                    if t < cell.0 {
                        *cell = (t, Some(NodeId::from_index(u)));
                    }
                }
            }
        });
        parents.push(cur.iter().map(|&(_, par)| par).collect());
        for (p, &(best, _)) in prev.iter_mut().zip(&cur) {
            *p = best;
        }
    }

    let total = prev[inst.dst.index()];
    if !total.is_finite() {
        return Err(MappingError::Infeasible(format!(
            "destination {} is unreachable from source {}",
            inst.dst, inst.src
        )));
    }
    let mut assignment = vec![inst.dst; n];
    let mut node = inst.dst;
    for j in (1..n).rev() {
        assignment[j] = node;
        node = parents[j - 1][node.index()].expect("finite cells have parents");
    }
    assignment[0] = node;
    debug_assert_eq!(assignment[0], inst.src);
    debug_assert!({
        let re = crate::routed::routed_delay_ms_ctx(ctx, &assignment)?;
        (re - total).abs() <= 1e-6 * total.max(1.0)
    });
    Ok(AssignmentSolution {
        assignment,
        objective_ms: total,
    })
}

/// [`solve_routed_ctx`] with a transient context (cold path). Prefer the
/// context form when running several solvers on one instance.
pub fn solve_routed(inst: &Instance<'_>, cost: &CostModel) -> Result<AssignmentSolution> {
    solve_routed_ctx(&SolveContext::new(*inst, *cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// Fast source, weak middle, fast destination, on a 0-1-2 line.
    fn line_net() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(1.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 100.0, 0.1).unwrap();
        b.add_link(n1, n2, 100.0, 0.1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn groups_heavy_work_away_from_weak_nodes() {
        let net = line_net();
        // 4 modules: heavy stage work; the optimum keeps compute on the
        // fast endpoints and leaves only a light module on the weak relay.
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e4),
            Module::new(5.0, 1e4), // heavy
            Module::new(0.1, 1e4), // light
            Module::new(5.0, 0.0), // heavy sink (pinned to n2 anyway)
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        let a = sol.mapping.assignment();
        assert_eq!(a[0], NodeId(0));
        assert_eq!(a[3], NodeId(2));
        // heavy module 1 stays on the fast source, not the weak middle
        assert_eq!(a[1], NodeId(0));
        // module 2 (light) is the one that crosses the weak node
        assert_eq!(a[2], NodeId(1));
    }

    #[test]
    fn single_node_instance_runs_everything_locally() {
        // src == dst: optimal is q = 1, pure local compute
        let net = line_net();
        let pipe = Pipeline::from_stages(1e4, &[(1.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(0)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.q(), 1);
        assert_eq!(sol.mapping.path(), &[NodeId(0)]);
        // (1*1e4 + 1*1e3)/100 = 110 ms
        assert!((sol.delay_ms - 110.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_pipeline_shorter_than_shortest_path() {
        let net = line_net();
        let pipe = Pipeline::new(vec![Module::new(0.0, 1e3), Module::new(1.0, 0.0)]).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        assert!(matches!(
            solve(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn delay_equals_cost_model_reevaluation() {
        let net = line_net();
        let pipe = Pipeline::from_stages(1e5, &[(2.0, 5e4), (1.0, 2e4)], 0.5).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        let re = cost().delay_ms(&inst, &sol.mapping).unwrap();
        assert!((sol.delay_ms - re).abs() < 1e-9);
    }

    #[test]
    fn mld_toggle_changes_the_reported_delay() {
        let net = line_net();
        let pipe = Pipeline::from_stages(1e5, &[(2.0, 5e4), (1.0, 2e4)], 0.5).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let with = solve(&inst, &CostModel { include_mld: true }).unwrap();
        let without = solve(&inst, &CostModel { include_mld: false }).unwrap();
        assert!(with.delay_ms > without.delay_ms);
    }

    #[test]
    fn fast_relay_attracts_heavy_modules() {
        // star: src —— hub (very fast) —— dst; hub power dwarfs endpoints
        let mut b = Network::builder();
        let s = b.add_node(1.0).unwrap();
        let hub = b.add_node(1000.0).unwrap();
        let d = b.add_node(1.0).unwrap();
        b.add_link(s, hub, 1000.0, 0.01).unwrap();
        b.add_link(hub, d, 1000.0, 0.01).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(10.0, 1e6),
            Module::new(10.0, 1e4),
            Module::new(0.1, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, s, d).unwrap();
        let sol = solve(&inst, &CostModel::default()).unwrap();
        let a = sol.mapping.assignment();
        // both heavy middle modules run on the hub
        assert_eq!(a[1], hub);
        assert_eq!(a[2], hub);
    }

    #[test]
    fn loops_are_used_when_a_detour_node_is_fast() {
        // src=dst-adjacent triangle: src(slow) — helper(fast) — dst(slow),
        // plus src—dst direct. With 3 modules the optimum may bounce
        // src → helper → dst; verify the solver at least matches the
        // best enumerated alternative.
        let mut b = Network::builder();
        let s = b.add_node(1.0).unwrap();
        let h = b.add_node(500.0).unwrap();
        let d = b.add_node(1.0).unwrap();
        b.add_link(s, h, 1000.0, 0.01).unwrap();
        b.add_link(h, d, 1000.0, 0.01).unwrap();
        b.add_link(s, d, 1000.0, 0.01).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(20.0, 1e5),
            Module::new(0.5, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, s, d).unwrap();
        let sol = solve(&inst, &CostModel::default()).unwrap();
        // heavy module 1 must run on the helper
        assert_eq!(sol.mapping.assignment()[1], h);
    }

    #[test]
    fn two_module_pipeline_on_adjacent_endpoints() {
        let net = line_net();
        let pipe = Pipeline::new(vec![Module::new(0.0, 1e4), Module::new(1.0, 0.0)]).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(1)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.path(), &[NodeId(0), NodeId(1)]);
        // transfer 1e4 B over 100 Mbps = 0.8 ms + 0.1 MLD, compute 1e4/1
        assert!((sol.delay_ms - (0.9 + 1e4)).abs() < 1e-9);
    }

    #[test]
    fn solution_validates_under_the_instance() {
        let net = line_net();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4), (2.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        sol.mapping.validate(&inst, false).unwrap();
    }

    #[test]
    fn routed_variant_never_loses_to_strict_or_streamline() {
        use rand::{Rng, SeedableRng};
        for seed in 0..15u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let k = rng.gen_range(4..9);
            let links = rng.gen_range(k - 1..=k * (k - 1) / 2);
            let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
            let powers: Vec<f64> = (0..k).map(|_| rng.gen_range(10.0..1000.0)).collect();
            let mut lr = rand_chacha::ChaCha8Rng::seed_from_u64(seed + 77);
            let net = Network::from_topology(
                &topo,
                |i| elpc_netsim::Node::with_power(powers[i]),
                |_, _| elpc_netsim::Link::new(lr.gen_range(1.0..1000.0), lr.gen_range(0.1..5.0)),
            )
            .unwrap();
            let n = rng.gen_range(2..=k.min(6));
            let pipe = elpc_pipeline::gen::PipelineSpec {
                modules: n,
                ..Default::default()
            }
            .generate(&mut rng)
            .unwrap();
            let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((k - 1) as u32)).unwrap();
            let routed = solve_routed(&inst, &cost()).unwrap();
            // routed relaxation never loses to the strict optimum
            if let Ok(strict) = solve(&inst, &cost()) {
                assert!(
                    routed.objective_ms <= strict.delay_ms + 1e-9,
                    "seed {seed}: routed {} > strict {}",
                    routed.objective_ms,
                    strict.delay_ms
                );
            }
            // and provably dominates Streamline under the same semantics
            if let Ok(sl) = crate::streamline::solve_min_delay(&inst, &cost()) {
                assert!(
                    routed.objective_ms <= sl.objective_ms + 1e-9,
                    "seed {seed}: routed ELPC {} > Streamline {}",
                    routed.objective_ms,
                    sl.objective_ms
                );
            }
        }
    }

    #[test]
    fn routed_equals_strict_on_complete_networks() {
        // on a complete graph the best route between any pair is usually the
        // direct link, but multi-hop can still win when a relay pair of fat
        // links beats one thin link — so routed ≤ strict, with equality when
        // direct links dominate
        let mut b = Network::builder();
        let ns: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(100.0 * (i + 1) as f64).unwrap())
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_link(ns[i], ns[j], 100.0, 0.5).unwrap();
            }
        }
        let net = b.build().unwrap();
        let pipe = Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, ns[0], ns[3]).unwrap();
        let strict = solve(&inst, &cost()).unwrap();
        let routed = solve_routed(&inst, &cost()).unwrap();
        assert!((routed.objective_ms - strict.delay_ms).abs() < 1e-9);
    }

    /// The cell-by-cell relax the source-major loop replaced, kept as the
    /// test oracle: per destination cell, the stay candidate first, then
    /// every source in ascending order, one cell at a time.
    fn column_major_oracle(ctx: &SolveContext<'_>) -> Result<AssignmentSolution> {
        let inst = ctx.instance();
        let (net, pipe) = (inst.network, inst.pipeline);
        let (n, k) = (pipe.len(), net.node_count());
        let mut prev = vec![f64::INFINITY; k];
        prev[inst.src.index()] = 0.0;
        let mut parents: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(n - 1);
        for j in 1..n {
            let in_bytes = pipe.input_bytes(j);
            let work = pipe.compute_work(j);
            let trees: Vec<_> = (0..k)
                .map(|u| {
                    prev[u]
                        .is_finite()
                        .then(|| ctx.routed_from(NodeId::from_index(u), in_bytes))
                })
                .collect();
            let mut cur = vec![f64::INFINITY; k];
            let mut parent = vec![None; k];
            for v in 0..k {
                let vid = NodeId::from_index(v);
                let compute = work / net.power(vid);
                let (mut best, mut par) = if prev[v].is_finite() {
                    (prev[v] + compute, Some(vid))
                } else {
                    (f64::INFINITY, None)
                };
                for (u, tree) in trees.iter().enumerate() {
                    let Some(tree) = tree else { continue };
                    if u == v || tree.dist[v].is_infinite() {
                        continue;
                    }
                    let t = prev[u] + tree.dist[v] + compute;
                    if t < best {
                        best = t;
                        par = Some(NodeId::from_index(u));
                    }
                }
                cur[v] = best;
                parent[v] = par;
            }
            parents.push(parent);
            prev = cur;
        }
        let total = prev[inst.dst.index()];
        if !total.is_finite() {
            return Err(MappingError::Infeasible("unreachable".into()));
        }
        let mut assignment = vec![inst.dst; n];
        let mut node = inst.dst;
        for j in (1..n).rev() {
            assignment[j] = node;
            node = parents[j - 1][node.index()].expect("finite cells have parents");
        }
        assignment[0] = node;
        Ok(AssignmentSolution {
            assignment,
            objective_ms: total,
        })
    }

    /// A random connected network of `k` nodes. `ties` draws bandwidths
    /// from one value, MLDs from small integers and powers from two
    /// values, so equal-time moves (and equal stay/move cells) are common.
    fn oracle_network(seed: u64, k: usize, ties: bool) -> Network {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let links = rng.gen_range(k - 1..=(3 * k).min(k * (k - 1) / 2));
        let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
        let powers: Vec<f64> = (0..k)
            .map(|_| {
                if ties {
                    [100.0, 200.0][rng.gen_range(0..2usize)]
                } else {
                    rng.gen_range(10.0..1000.0)
                }
            })
            .collect();
        Network::from_topology(
            &topo,
            |i| elpc_netsim::Node::with_power(powers[i]),
            |_, _| {
                if ties {
                    elpc_netsim::Link::new(100.0, rng.gen_range(0..3) as f64)
                } else {
                    elpc_netsim::Link::new(rng.gen_range(1.0..1000.0), rng.gen_range(0.1..5.0))
                }
            },
        )
        .unwrap()
    }

    /// Source-major relax ≡ the cell-by-cell oracle, bit for bit, for
    /// every destination of random and tie-heavy instances, serial and
    /// chunked (the larger networks cross the parallel-relax crossover).
    #[test]
    fn source_major_relax_matches_the_column_major_oracle() {
        use rand::{Rng, SeedableRng};
        for (seed, k, ties) in [
            (1, 9, false),
            (2, 9, true),
            (3, 40, false),
            (4, 40, true),
            (5, 72, false),
            (6, 72, true),
            (7, 97, true),
        ] {
            let net = oracle_network(seed, k, ties);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed + 1000);
            let pipe = if ties {
                let stages: Vec<(f64, f64)> = (0..rng.gen_range(2..6))
                    .map(|_| (rng.gen_range(1..4) as f64, 1e4 * rng.gen_range(1..3) as f64))
                    .collect();
                Pipeline::from_stages(1e4, &stages, 1.0).unwrap()
            } else {
                elpc_pipeline::gen::PipelineSpec {
                    modules: rng.gen_range(3..8),
                    ..Default::default()
                }
                .generate(&mut rng)
                .unwrap()
            };
            let src = NodeId(0);
            let shared = SolveContext::new(Instance::new(&net, &pipe, src, src).unwrap(), cost());
            let mut compared = 0;
            for dst in net.node_ids() {
                let inst = Instance::new(&net, &pipe, src, dst).unwrap();
                let oracle = column_major_oracle(
                    &SolveContext::from_shared(inst, shared.closure_arc(), 1).unwrap(),
                );
                for threads in [1, 0, 3] {
                    let ctx =
                        SolveContext::from_shared(inst, shared.closure_arc(), threads).unwrap();
                    let got = solve_routed_ctx(&ctx);
                    match (&oracle, &got) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(
                                a.objective_ms.to_bits(),
                                b.objective_ms.to_bits(),
                                "seed {seed} dst {dst} threads {threads}"
                            );
                            assert_eq!(
                                a.assignment, b.assignment,
                                "seed {seed} dst {dst} threads {threads}"
                            );
                            compared += 1;
                        }
                        (Err(_), Err(_)) => {}
                        _ => {
                            panic!("seed {seed} dst {dst} threads {threads}: {oracle:?} vs {got:?}")
                        }
                    }
                }
            }
            assert!(
                compared >= 3 * k / 2,
                "seed {seed}: too few feasible destinations"
            );
        }
    }
}
