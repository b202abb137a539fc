//! Widest-path (maximum-bottleneck) computation.
//!
//! The streaming objective of the paper (Eq. 2) is governed by the smallest
//! capacity along the chosen route. The *unconstrained* widest path is
//! polynomial (this module, a Dijkstra variant maximizing the minimum edge
//! width); the paper's *exact-n-hop* variant is NP-complete and handled by
//! the exhaustive enumerator plus the ELPC-rate heuristic in `elpc-mapping`.
//! This adjacency-list version is the reference the CSR kernel
//! ([`crate::csr::SsspScratch::widest_paths`]) is pinned to bit for bit.

use crate::{Edge, EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a widest-path run.
#[derive(Debug, Clone)]
pub struct WidestPaths {
    /// `width[v]` is the best achievable bottleneck width from the source to
    /// `v` (`f64::INFINITY` for the source itself, `0.0` when unreachable).
    pub width: Vec<f64>,
    /// Predecessor links mirroring [`super::ShortestPaths::prev`].
    pub prev: Vec<Option<(NodeId, EdgeId)>>,
}

struct HeapEntry {
    width: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap on width: widest frontier first
        self.width
            .partial_cmp(&other.width)
            .expect("edge widths must not be NaN")
    }
}

/// Computes the maximum-bottleneck width from `src` to every node.
///
/// `width_of` maps each directed edge to its width (for networks: link
/// bandwidth); widths must be non-negative and non-NaN.
pub fn widest_paths<N, E>(
    g: &Graph<N, E>,
    src: NodeId,
    mut width_of: impl FnMut(EdgeId, &Edge<E>) -> f64,
) -> WidestPaths {
    let n = g.node_count();
    let mut width = vec![0.0_f64; n];
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    if g.check_node(src).is_err() {
        return WidestPaths { width, prev };
    }
    width[src.index()] = f64::INFINITY;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        width: f64::INFINITY,
        node: src,
    });
    while let Some(HeapEntry { width: w, node: u }) = heap.pop() {
        if w < width[u.index()] {
            continue; // stale
        }
        for (nb, e) in g.out_edges(u) {
            let ew = width_of(nb.edge, e);
            debug_assert!(ew >= 0.0 && !ew.is_nan(), "invalid edge width {ew}");
            let nw = w.min(ew);
            if nw > width[nb.node.index()] {
                width[nb.node.index()] = nw;
                prev[nb.node.index()] = Some((u, nb.edge));
                heap.push(HeapEntry {
                    width: nw,
                    node: nb.node,
                });
            }
        }
    }
    WidestPaths { width, prev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Two routes 0→3: narrow-fast (min width 2) and wide (min width 5).
    fn two_routes() -> (Graph<(), f64>, Vec<NodeId>) {
        let mut g = Graph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_undirected_edge(ns[0], ns[1], 10.0).unwrap();
        g.add_undirected_edge(ns[1], ns[3], 2.0).unwrap();
        g.add_undirected_edge(ns[0], ns[2], 5.0).unwrap();
        g.add_undirected_edge(ns[2], ns[3], 6.0).unwrap();
        (g, ns)
    }

    #[test]
    fn picks_the_route_with_larger_bottleneck() {
        let (g, ns) = two_routes();
        let wp = widest_paths(&g, ns[0], |_, e| e.payload);
        assert_eq!(wp.width[3], 5.0);
        // path reconstruction goes through node 2
        assert_eq!(wp.prev[3].unwrap().0, ns[2]);
    }

    #[test]
    fn source_width_is_infinite() {
        let (g, ns) = two_routes();
        let wp = widest_paths(&g, ns[0], |_, e| e.payload);
        assert!(wp.width[0].is_infinite());
    }

    #[test]
    fn unreachable_nodes_have_zero_width() {
        let (mut g, ns) = two_routes();
        let lonely = g.add_node(());
        let wp = widest_paths(&g, ns[0], |_, e| e.payload);
        assert_eq!(wp.width[lonely.index()], 0.0);
        assert!(wp.prev[lonely.index()].is_none());
    }

    #[test]
    fn single_edge_width_is_the_edge_width() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 3.5).unwrap();
        let wp = widest_paths(&g, a, |_, e| e.payload);
        assert_eq!(wp.width[b.index()], 3.5);
    }

    #[test]
    fn widest_matches_brute_force_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for _ in 0..25 {
            let n = rng.gen_range(3..8);
            let mut g: Graph<(), f64> = Graph::new();
            let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.6) {
                        g.add_undirected_edge(ns[i], ns[j], rng.gen_range(0.1..5.0))
                            .unwrap();
                    }
                }
            }
            let wp = widest_paths(&g, ns[0], |_, e| e.payload);
            // brute force: max-min relaxation until fixpoint
            let mut bf = vec![0.0_f64; n];
            bf[0] = f64::INFINITY;
            for _ in 0..n {
                for (_, e) in g.edges() {
                    let cand = bf[e.src.index()].min(e.payload);
                    if cand > bf[e.dst.index()] {
                        bf[e.dst.index()] = cand;
                    }
                }
            }
            for v in 0..n {
                assert!(
                    (wp.width[v] - bf[v]).abs() < 1e-9
                        || (wp.width[v].is_infinite() && bf[v].is_infinite()),
                    "mismatch at {v}: widest={} brute={}",
                    wp.width[v],
                    bf[v]
                );
            }
        }
    }

    #[test]
    fn parallel_edges_use_the_better_one() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0).unwrap();
        g.add_edge(a, b, 9.0).unwrap();
        let wp = widest_paths(&g, a, |_, e| e.payload);
        assert_eq!(wp.width[b.index()], 9.0);
    }
}
