//! Adjacency-list directed multigraph.
//!
//! The representation follows the perf-guide advice for hot data structures:
//! dense `u32` ids, contiguous `Vec` storage, and per-node out-edge lists so
//! the ELPC dynamic programs can scan `adj(v)` (the inner loop of Eq. 3/5)
//! without hashing.

use crate::{EdgeId, GraphError, NodeId, Result};
use serde::{Deserialize, Serialize};

/// A directed edge with its endpoints and user payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge<E> {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// User payload (for networks: bandwidth and minimum link delay).
    pub payload: E,
}

/// An out-neighbor of a node: the connecting edge and the node reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The edge leaving the queried node.
    pub edge: EdgeId,
    /// The node at the far end of `edge`.
    pub node: NodeId,
}

/// Adjacency-list directed multigraph, generic over node payload `N` and
/// edge payload `E`.
///
/// The paper's transport networks are undirected ("node vi ... is connected
/// to its neighbor node vj with a network link"), which we model as a
/// symmetric pair of directed edges created by
/// [`Graph::add_undirected_edge`]; directed graphs are also fully supported
/// because the DAG-workflow extension (§5 future work) needs them.
#[derive(Debug, Clone, Serialize)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// `out[v]` lists the ids of edges with `src == v`.
    out: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of *directed* edges. An undirected link counts twice.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node and returns its dense id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(payload);
        self.out.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst`.
    ///
    /// Self-loops are rejected: in the paper's model, intra-node transfers
    /// are free and are represented by module grouping, not by links.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> Result<EdgeId> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge { src, dst, payload });
        self.out[src.index()].push(id);
        Ok(id)
    }

    /// Validates a node id against the current node count.
    #[inline]
    pub fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                len: self.nodes.len(),
            })
        }
    }

    /// Validates an edge id against the current edge count.
    #[inline]
    pub fn check_edge(&self, edge: EdgeId) -> Result<()> {
        if edge.index() < self.edges.len() {
            Ok(())
        } else {
            Err(GraphError::EdgeOutOfBounds {
                edge,
                len: self.edges.len(),
            })
        }
    }

    /// Borrow a node payload.
    pub fn node(&self, id: NodeId) -> Result<&N> {
        self.check_node(id)?;
        Ok(&self.nodes[id.index()])
    }

    /// Mutably borrow a node payload.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut N> {
        self.check_node(id)?;
        Ok(&mut self.nodes[id.index()])
    }

    /// Borrow an edge.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge<E>> {
        self.check_edge(id)?;
        Ok(&self.edges[id.index()])
    }

    /// Mutably borrow an edge payload (endpoints are immutable once added).
    pub fn edge_payload_mut(&mut self, id: EdgeId) -> Result<&mut E> {
        self.check_edge(id)?;
        Ok(&mut self.edges[id.index()].payload)
    }

    /// Iterate over `(id, payload)` for all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterate over all node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over `(id, edge)` for all directed edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge<E>)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Out-neighbors of `node` (edge + far endpoint), in insertion order.
    ///
    /// This is the `adj(vi)` scan at the heart of the ELPC recursions, so it
    /// allocates nothing.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = Neighbor> + '_ {
        self.out
            .get(node.index())
            .into_iter()
            .flatten()
            .map(|&eid| Neighbor {
                edge: eid,
                node: self.edges[eid.index()].dst,
            })
    }

    /// Out-neighbors of `node` paired with their edge records, in insertion
    /// order. This is the relaxation-loop variant of [`Graph::neighbors`]:
    /// the edge data arrives with the neighbor, so hot loops don't re-run
    /// the bounds check in [`Graph::edge`] on an id this iterator already
    /// guarantees valid.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (Neighbor, &Edge<E>)> {
        self.out
            .get(node.index())
            .into_iter()
            .flatten()
            .map(|&eid| {
                let e = &self.edges[eid.index()];
                (
                    Neighbor {
                        edge: eid,
                        node: e.dst,
                    },
                    e,
                )
            })
    }

    /// Out-degree of `node`. Out-of-bounds ids have degree zero.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out.get(node.index()).map_or(0, Vec::len)
    }

    /// Finds the first edge `src -> dst`, if any.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out
            .get(src.index())?
            .iter()
            .copied()
            .find(|&eid| self.edges[eid.index()].dst == dst)
    }

    /// True if a directed edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }
}

/// The wire form of a [`Graph`]: read as it stands, then verified before
/// it becomes one.
#[derive(Deserialize)]
struct GraphWire<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    out: Vec<Vec<EdgeId>>,
}

/// Decoding verifies the wire form instead of trusting it. `out` repeats
/// what `edges` already says, and readers of either (neighbor scans and
/// CSR snapshots read `out`; fingerprints read `edges`) must see one
/// graph, so a decoded graph has to be one [`Graph::add_edge`] could have
/// built.
impl<N: Deserialize, E: Deserialize> Deserialize for Graph<N, E> {
    fn deserialize(r: &mut serde::Reader<'_>) -> std::result::Result<Self, serde::Error> {
        let GraphWire { nodes, edges, out } = GraphWire::deserialize(r)?;
        let graph = Graph { nodes, edges, out };
        graph
            .verify_adjacency()
            .map_err(|e| serde::Error(format!("invalid graph: {e}")))?;
        Ok(graph)
    }
}

impl<N, E> Graph<N, E> {
    /// Checks that every edge joins two distinct existing nodes and that
    /// `out[v]` lists exactly the edges leaving `v`, in id order.
    fn verify_adjacency(&self) -> std::result::Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            self.check_node(e.src)
                .and_then(|()| self.check_node(e.dst))
                .map_err(|err| format!("edge {i}: {err}"))?;
            if e.src == e.dst {
                return Err(format!("edge {i}: {}", GraphError::SelfLoop(e.src)));
            }
        }
        if self.out.len() != self.nodes.len() {
            return Err(format!(
                "{} adjacency lists for {} nodes",
                self.out.len(),
                self.nodes.len()
            ));
        }
        // Each listed id leaves its node and each list ascends, so no id is
        // listed twice; the count then shows that none is missing.
        let mut listed = 0usize;
        for (v, list) in self.out.iter().enumerate() {
            let leaves_v =
                |id: &EdgeId| self.edges.get(id.index()).map(|e| e.src.index()) == Some(v);
            if !list.iter().all(leaves_v) || !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "the adjacency list of node {v} does not match the edges"
                ));
            }
            listed += list.len();
        }
        if listed != self.edges.len() {
            return Err(format!(
                "the adjacency lists hold {listed} of {} edges",
                self.edges.len()
            ));
        }
        Ok(())
    }
}

impl<N, E: Clone> Graph<N, E> {
    /// Adds an undirected link as a symmetric pair of directed edges and
    /// returns `(forward, reverse)` ids. The two ids are always consecutive
    /// (`reverse.0 == forward.0 + 1`), so either direction can locate its
    /// twin without a lookup table.
    pub fn add_undirected_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        payload: E,
    ) -> Result<(EdgeId, EdgeId)> {
        let fwd = self.add_edge(a, b, payload.clone())?;
        let rev = self
            .add_edge(b, a, payload)
            .expect("reverse edge must be valid if forward edge was");
        debug_assert_eq!(rev.0, fwd.0 + 1);
        Ok((fwd, rev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph<&'static str, f64> {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_undirected_edge(a, b, 1.0).unwrap();
        g.add_undirected_edge(b, c, 2.0).unwrap();
        g.add_undirected_edge(c, a, 3.0).unwrap();
        g
    }

    #[test]
    fn nodes_get_dense_sequential_ids() {
        let mut g: Graph<u32, ()> = Graph::new();
        assert_eq!(g.add_node(10), NodeId(0));
        assert_eq!(g.add_node(20), NodeId(1));
        assert_eq!(g.add_node(30), NodeId(2));
        assert_eq!(g.node_count(), 3);
        assert_eq!(*g.node(NodeId(1)).unwrap(), 20);
    }

    #[test]
    fn undirected_edge_creates_consecutive_pair() {
        let g = triangle();
        assert_eq!(g.edge_count(), 6);
        // forward/reverse pairs share payload and flip endpoints
        let f = g.edge(EdgeId(0)).unwrap();
        let r = g.edge(EdgeId(1)).unwrap();
        assert_eq!((f.src, f.dst), (r.dst, r.src));
        assert_eq!(f.payload, r.payload);
    }

    #[test]
    fn neighbors_follow_insertion_order() {
        let g = triangle();
        let ns: Vec<NodeId> = g.neighbors(NodeId(0)).map(|n| n.node).collect();
        assert_eq!(ns, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn degree_counts_out_edges_only() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, c, ()).unwrap();
        g.add_edge(b, a, ()).unwrap();
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(b), 1);
        assert_eq!(g.degree(c), 0);
        assert_eq!(g.degree(NodeId(99)), 0);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        assert_eq!(g.add_edge(a, a, ()), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn out_of_bounds_endpoints_are_rejected() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let bogus = NodeId(7);
        assert!(matches!(
            g.add_edge(a, bogus, ()),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            g.add_edge(bogus, a, ()),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn find_edge_distinguishes_directions() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e = g.add_edge(a, b, 9).unwrap();
        assert_eq!(g.find_edge(a, b), Some(e));
        assert_eq!(g.find_edge(b, a), None);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn multigraph_parallel_edges_are_allowed() {
        // Real networks can have parallel links (e.g. dedicated + shared).
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, b, 2).unwrap();
        assert_eq!(g.degree(a), 2);
        // find_edge returns the first inserted
        assert_eq!(g.find_edge(a, b), Some(EdgeId(0)));
    }

    #[test]
    fn edge_payload_can_be_mutated_in_place() {
        let mut g = triangle();
        *g.edge_payload_mut(EdgeId(0)).unwrap() = 42.0;
        assert_eq!(g.edge(EdgeId(0)).unwrap().payload, 42.0);
        // the reverse twin is untouched (callers decide symmetric updates)
        assert_eq!(g.edge(EdgeId(1)).unwrap().payload, 1.0);
    }

    #[test]
    fn iterators_cover_everything_in_id_order() {
        let g = triangle();
        let ids: Vec<u32> = g.nodes().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let eids: Vec<u32> = g.edges().map(|(id, _)| id.0).collect();
        assert_eq!(eids, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let g = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph<String, f64> = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.edge_count(), 6);
        assert_eq!(g2.edge(EdgeId(2)).unwrap().payload, 2.0);
        assert_eq!(
            g2.neighbors(NodeId(1)).count(),
            g.neighbors(NodeId(1)).count()
        );
    }

    #[test]
    fn decoding_rejects_a_graph_its_edges_contradict() {
        let json = serde_json::to_string(&triangle()).unwrap();
        assert!(json.contains("\"out\":[[0,5],[1,2],[3,4]]"), "{json}");
        assert!(json.starts_with("{\"nodes\":[\"a\",\"b\",\"c\"],\"edges\":[{\"src\":0,\"dst\":1,"));
        let forged = [
            (
                "[[0,5],[1,2],[3,4]]",
                "[[5,0],[1,2],[3,4]]",
                "out of id order",
            ),
            (
                "[[0,5],[1,2],[3,4]]",
                "[[0],[1,2],[3,4]]",
                "an edge unlisted",
            ),
            (
                "[[0,5],[1,2],[3,4]]",
                "[[0,5,5],[1,2],[3,4]]",
                "an edge listed twice",
            ),
            (
                "[[0,5],[1,2],[3,4]]",
                "[[0,2],[1,5],[3,4]]",
                "edges under the wrong node",
            ),
            (
                "[[0,5],[1,2],[3,4]]",
                "[[0,5],[1,2],[3,4,6]]",
                "an edge id out of range",
            ),
            (
                "[[0,5],[1,2],[3,4]]",
                "[[0,5],[1,2]]",
                "a node without a list",
            ),
            (
                "\"src\":0,\"dst\":1,",
                "\"src\":0,\"dst\":3,",
                "an endpoint out of range",
            ),
            (
                "\"src\":0,\"dst\":1,",
                "\"src\":0,\"dst\":0,",
                "a self-loop",
            ),
        ];
        for (from, to, what) in forged {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json);
            let err = serde_json::from_str::<Graph<String, f64>>(&bad).unwrap_err();
            assert!(err.0.contains("invalid graph"), "{what}: {err}");
        }
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g: Graph<(), ()> = Graph::with_capacity(16, 64);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
