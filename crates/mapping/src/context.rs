//! Shared solver state: the thread-safe sharded routed metric closure.
//!
//! Every routed-semantics algorithm in this crate — the routed-overlay ELPC
//! DPs, Streamline's free placement, the routed evaluators, and the
//! local-search polish — needs the same quantity over and over: *the
//! cheapest multi-hop transfer time of `m` bytes from node `u` to every
//! other node*, i.e. one Dijkstra run over the §2.2 edge cost
//! `m/b (+ d)`. [`MetricClosure`] memoizes those runs per
//! `(payload size, source node)` for a fixed network and cost model;
//! [`SolveContext`] bundles a closure with a problem [`Instance`] and is the
//! single argument every registered [`crate::Solver`] receives.
//!
//! ## Concurrency model
//!
//! The closure is `Send + Sync`. Entries live in a small fixed array of
//! [`parking_lot::RwLock`]-guarded hash-map **shards** (selected by a hash
//! of the `(payload, source)` key), so concurrent readers never contend
//! with each other and concurrent writers rarely contend at all: a solve
//! running on one thread, a parallel sweep hammering the same closure from
//! many threads, and a background warm-up all observe one coherent cache.
//! Dijkstra itself runs *outside* any lock; when two threads race to build
//! the same tree the first insert wins and both receive the same `Arc`
//! (the trees are bit-identical either way — Dijkstra is deterministic per
//! key). Statistics are atomic counters, so `hits + misses` always equals
//! the number of [`MetricClosure::routed_from`] queries, even under
//! contention.
//!
//! ## One tree builder
//!
//! Every tree the closure holds comes out of one private builder, which
//! runs the CSR Dijkstra ([`SsspScratch::shortest_paths`]) on a flat
//! [`Csr`] snapshot of the adjacency (built once per closure) under a
//! slot-aligned vector of §2.2 edge costs for the key's payload. A lazy
//! [`MetricClosure::routed_from`] miss builds its one tree with a fresh
//! cost vector and scratch buffer. [`MetricClosure::par_warm`] builds a
//! whole `sources × payloads` block on scoped worker threads (the same
//! work-pulling pattern as `elpc_workloads::sweep::run_parallel`), with
//! one cost vector per payload and per-worker scratch recycled across
//! sources. The adjacency-list kernels in `elpc_netgraph::algo` are the
//! reference the tests compare the builder against, bit for bit.
//!
//! The routed DPs call [`SolveContext::warm_routed_dp`] on entry, which
//! turns a serial cold solve into a parallel-warm one when the context was
//! built with [`SolveContext::with_threads`]; with `threads == 1` the
//! solvers keep their lazy, minimal-work behavior and build only the trees
//! they touch. Warm-up changes *when* trees are built, never *what* they
//! contain, so results are bit-for-bit identical at any thread count.
//!
//! ## Cross-instance reuse
//!
//! A closure has two layers. Its **base** is an immutable, shared
//! [`ClosureSnapshot`]: a dense per-payload, per-source table of trees,
//! read without any lock. Its **overlay** is the sharded map above, which
//! holds only the trees built after the closure was created. A query reads
//! the base first, then the overlay, and builds into the overlay on a miss,
//! so the two layers never hold the same key.
//! [`MetricClosure::with_base`] attaches a snapshot by pointer, which is
//! how `elpc_workloads::ClosureBank`, the topology-keyed cache, checks a
//! banked closure out in O(1): nothing is copied. On the way back the bank
//! folds the context's [`MetricClosure::overlay`] into the banked snapshot
//! as a union. [`MetricClosure::export`] lists base ∪ overlay in key
//! order, whichever layer each tree came from.
//!
//! The closure is keyed by the exact payload byte count (`f64` bit
//! pattern): the §2.2 edge cost is `bytes·8/b + d`, so route choice
//! genuinely depends on the payload size, and consecutive pipeline stages
//! usually reuse only a handful of distinct sizes. Entries store the full
//! [`ShortestPaths`] (distances *and* predecessor links), so routed paths
//! can be reconstructed without a new traversal.

use crate::{CostModel, Instance, MappingError, Result};
use elpc_netgraph::algo::{extract_path, ShortestPaths};
use elpc_netgraph::csr::{Csr, SsspScratch};
use elpc_netgraph::NodeId;
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of lock shards. A small power of two: enough to make write
/// contention negligible at realistic thread counts, small enough that
/// iterating all shards (stats, export) stays trivial.
const SHARD_COUNT: usize = 16;

/// Cache key of one shortest-path tree: the payload's `f64` bit pattern and
/// the source node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeKey {
    /// `bytes.to_bits()` of the payload size.
    pub payload_bits: u64,
    /// Source node index.
    pub source: u32,
}

impl TreeKey {
    /// The key for a `(source, payload)` query.
    pub fn new(src: NodeId, bytes: f64) -> Self {
        TreeKey {
            payload_bits: bytes.to_bits(),
            source: src.index() as u32,
        }
    }

    /// The payload size in bytes.
    pub fn payload(&self) -> f64 {
        f64::from_bits(self.payload_bits)
    }

    /// The source node.
    pub fn source_node(&self) -> NodeId {
        NodeId::from_index(self.source as usize)
    }
}

/// One materialized cache entry, as listed by [`MetricClosure::export`]
/// and [`ClosureSnapshot::trees`].
#[derive(Debug, Clone)]
pub struct CachedTree {
    /// The `(payload, source)` key.
    pub key: TreeKey,
    /// The shared shortest-path tree.
    pub tree: Arc<ShortestPaths>,
}

/// One payload's trees of a [`ClosureSnapshot`], indexed by source node.
type SourceSlots = Box<[Option<Arc<ShortestPaths>>]>;

/// An immutable set of trees over one network and cost model, indexed
/// densely: one slot per source node for each payload. The unit the
/// cross-instance `ClosureBank` stores, and the read-only, lock-free base
/// of a checked-out [`MetricClosure`] (see the module docs).
#[derive(Debug, Clone)]
pub struct ClosureSnapshot {
    nodes: usize,
    /// Payload bit patterns in ascending order, each with its per-source
    /// tree slots (`nodes` long).
    rows: Vec<(u64, SourceSlots)>,
    len: usize,
}

impl ClosureSnapshot {
    /// The snapshot of `trees` over a network of `nodes` nodes. A tree
    /// whose shape does not fit (distance vector not `nodes` long, or
    /// source out of range) is dropped; of two trees with one key, the
    /// first is kept.
    pub fn new(nodes: usize, trees: impl IntoIterator<Item = CachedTree>) -> Self {
        let mut snap = ClosureSnapshot {
            nodes,
            rows: Vec::new(),
            len: 0,
        };
        for e in trees {
            snap.insert(e);
        }
        snap
    }

    /// Node count of the network the trees span.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the snapshot holds no tree.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree under `key`, if present.
    pub fn get(&self, key: &TreeKey) -> Option<&Arc<ShortestPaths>> {
        let row = self
            .rows
            .binary_search_by_key(&key.payload_bits, |r| r.0)
            .ok()?;
        self.rows[row].1.get(key.source as usize)?.as_ref()
    }

    /// Every tree in key order, as cheap `Arc` clones.
    pub fn trees(&self) -> impl Iterator<Item = CachedTree> + '_ {
        self.rows.iter().flat_map(|(bits, slots)| {
            slots.iter().enumerate().filter_map(move |(source, tree)| {
                tree.as_ref().map(|tree| CachedTree {
                    key: TreeKey {
                        payload_bits: *bits,
                        source: source as u32,
                    },
                    tree: Arc::clone(tree),
                })
            })
        })
    }

    /// `self` plus every tree of `more` it lacks (shape-checked as in
    /// [`ClosureSnapshot::new`]), or `None` when `more` adds nothing.
    /// Trees are deterministic per key, so the union is always a valid
    /// closure of the same network.
    pub fn union(&self, more: impl IntoIterator<Item = CachedTree>) -> Option<Self> {
        let mut fresh = more.into_iter().filter(|e| self.accepts(e)).peekable();
        fresh.peek()?;
        let mut out = self.clone();
        for e in fresh {
            out.insert(e);
        }
        Some(out)
    }

    /// True when `e` fits this snapshot's network and its key is absent.
    fn accepts(&self, e: &CachedTree) -> bool {
        e.tree.dist.len() == self.nodes
            && (e.key.source as usize) < self.nodes
            && self.get(&e.key).is_none()
    }

    fn insert(&mut self, e: CachedTree) {
        if !self.accepts(&e) {
            return;
        }
        let row = match self.rows.binary_search_by_key(&e.key.payload_bits, |r| r.0) {
            Ok(row) => row,
            Err(at) => {
                let slots = vec![None; self.nodes].into_boxed_slice();
                self.rows.insert(at, (e.key.payload_bits, slots));
                at
            }
        };
        self.rows[row].1[e.key.source as usize] = Some(e.tree);
        self.len += 1;
    }
}

/// Cache statistics, for tests and perf reports.
///
/// **Invariant:** every [`MetricClosure::routed_from`] query counts exactly
/// one hit or one miss — `hits + misses` always equals the number of
/// queries made so far, even under concurrent access (the counters are
/// atomic and racing builders each record their own miss). Attaching a
/// base via [`MetricClosure::with_base`] and probing via
/// [`MetricClosure::contains`] are *not* queries and leave the statistics
/// untouched; a query answered from the base counts as a hit.
///
/// ```
/// use elpc_mapping::{CostModel, MetricClosure, NodeId};
/// # let mut b = elpc_netsim::Network::builder();
/// # let a = b.add_node(100.0).unwrap();
/// # let c = b.add_node(100.0).unwrap();
/// # b.add_link(a, c, 100.0, 0.5).unwrap();
/// # let network = b.build().unwrap();
/// let closure = MetricClosure::new(&network, CostModel::default());
/// let queries = 5u64;
/// for _ in 0..queries {
///     closure.routed_from(NodeId(0), 1e6); // 1 miss, then 4 hits
/// }
/// let stats = closure.stats();
/// assert_eq!(stats.hits + stats.misses, queries);
/// assert_eq!(stats.misses, 1);
/// assert!(closure.contains(NodeId(0), 1e6)); // not a query
/// assert_eq!(closure.stats().hits + closure.stats().misses, queries);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClosureStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran a fresh Dijkstra.
    pub misses: u64,
}

impl ClosureStats {
    /// Fraction of queries served from cache (0 when nothing was queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type ShardMap = HashMap<TreeKey, Arc<ShortestPaths>>;

/// Shard index of a key: an FNV-1a mix over both key halves, so payloads
/// and sources spread independently.
fn shard_of(key: &TreeKey) -> usize {
    let mut h = elpc_netgraph::fnv::Fnv1a::new();
    h.write_u64(key.payload_bits).write_u64(key.source as u64);
    (h.finish() >> 32) as usize & (SHARD_COUNT - 1)
}

/// Minimum node count before the routed **delay** DP chunks its per-stage
/// relax loop across worker threads: below this, the `O(k²)` column update
/// is microseconds of float work and a per-stage scope spawn/join would
/// cost more than it saves. Results are identical either way — this is
/// purely a crossover point.
pub(crate) const MIN_PARALLEL_RELAX_NODES_DELAY: usize = 64;

/// Crossover for the routed **rate** DP's label relax. Its per-stage cost
/// is `O(k² × labels)` with bitmask cloning per extension — two orders of
/// magnitude heavier per cell than the delay DP (compare the
/// `reference_warm` entries in `BENCH_metaheuristics.json`) — so chunking
/// pays off at much smaller networks.
pub(crate) const MIN_PARALLEL_RELAX_NODES_RATE: usize = 24;

/// The chunked column-update scaffolding shared by the routed DPs'
/// per-stage relax loops: hands every contiguous chunk of cells to
/// `relax(first_index, chunk)`, one call covering all cells when
/// `threads <= 1`, otherwise one call per chunk on scoped worker threads.
/// A relax that computes every cell independently of the others, from
/// its index alone, cannot be affected by the chunk layout — serial and
/// chunked runs are bit-for-bit identical.
pub(crate) fn relax_chunked<T: Send, F>(threads: usize, cells: &mut [T], relax: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let k = cells.len();
    if threads <= 1 || k < 2 {
        relax(0, cells);
        return;
    }
    let chunk = k.div_ceil(threads.min(k));
    crossbeam::scope(|scope| {
        let relax = &relax;
        for (ci, cells_c) in cells.chunks_mut(chunk).enumerate() {
            scope.spawn(move |_| relax(ci * chunk, cells_c));
        }
    })
    .expect("relax workers must not panic");
}

/// Resolves a thread-count request: `0` means "all CPUs".
pub(crate) fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Lazily materialized routed metric closure of a network under one cost
/// model: per payload size, per source node, the single-source shortest
/// transfer-time tree. `Send + Sync`; see the module docs for the
/// concurrency model.
pub struct MetricClosure<'a> {
    net: &'a elpc_netsim::Network,
    cost: CostModel,
    /// Read-only trees shared with other closures (a bank checkout).
    base: Arc<ClosureSnapshot>,
    /// The overlay: trees built by this closure, never a key of `base`.
    shards: [RwLock<ShardMap>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Flat CSR snapshot of the network's adjacency, built once on the
    /// first tree build and shared by every build thereafter (the network
    /// behind a closure is immutable, so the snapshot never goes stale).
    csr: OnceLock<Csr>,
}

impl<'a> MetricClosure<'a> {
    /// An empty closure over `net` under `cost`.
    pub fn new(net: &'a elpc_netsim::Network, cost: CostModel) -> Self {
        Self::over(
            net,
            cost,
            Arc::new(ClosureSnapshot::new(net.node_count(), [])),
        )
    }

    /// A closure over `net` under `cost` whose queries first read the
    /// shared, immutable `base` (a pointer clone, nothing is copied); trees
    /// built later go to the closure's own overlay. The caller keys `base`
    /// on the same network and cost model (`ClosureBank` uses a structural
    /// fingerprint); a snapshot over a different node count is refused
    /// with [`MappingError::BadConfig`].
    pub fn with_base(
        net: &'a elpc_netsim::Network,
        cost: CostModel,
        base: Arc<ClosureSnapshot>,
    ) -> Result<Self> {
        if base.node_count() != net.node_count() {
            return Err(MappingError::BadConfig(format!(
                "closure snapshot spans {} nodes, the network {}",
                base.node_count(),
                net.node_count()
            )));
        }
        Ok(Self::over(net, cost, base))
    }

    fn over(net: &'a elpc_netsim::Network, cost: CostModel, base: Arc<ClosureSnapshot>) -> Self {
        MetricClosure {
            net,
            cost,
            base,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            csr: OnceLock::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &'a elpc_netsim::Network {
        self.net
    }

    /// The cost model the closure is computed under.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The routed shortest-path tree from `src` for a payload of `bytes`:
    /// `tree.dist[v]` is the cheapest multi-hop transfer time (ms), and
    /// `tree.prev` reconstructs the route. Cached after the first query.
    ///
    /// The result is identical (bit for bit) to calling
    /// [`elpc_netgraph::algo::dijkstra`] with the §2.2 edge cost directly —
    /// the cache-correctness property test pins this. Counts exactly one
    /// hit or one miss per call (a miss when this call ran Dijkstra, even
    /// if a racing thread's identical tree won the insert).
    pub fn routed_from(&self, src: NodeId, bytes: f64) -> Arc<ShortestPaths> {
        self.tree(TreeKey::new(src, bytes), None, &mut SsspScratch::new())
    }

    /// The one tree builder: returns the cached tree for `key` (a hit), or
    /// runs the CSR kernel outside any lock and inserts the result (a miss;
    /// when a racing builder inserted first, its identical tree wins).
    /// `costs` is the payload's slot-aligned cost vector when the caller
    /// already holds one; `None` resolves it here.
    fn tree(
        &self,
        key: TreeKey,
        costs: Option<&[f64]>,
        scratch: &mut SsspScratch,
    ) -> Arc<ShortestPaths> {
        if let Some(tree) = self.base.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(tree);
        }
        let shard = &self.shards[shard_of(&key)];
        if let Some(tree) = shard.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(tree);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let costs: Cow<[f64]> =
            costs.map_or_else(|| self.cost_vector(key.payload()).into(), Cow::from);
        let tree = Arc::new(scratch.shortest_paths(self.csr(), key.source_node(), &costs));
        Arc::clone(shard.write().entry(key).or_insert(tree))
    }

    /// The §2.2 edge cost of every CSR slot for a payload of `bytes`.
    fn cost_vector(&self, bytes: f64) -> Vec<f64> {
        self.csr()
            .cost_vector(|eid| self.cost.edge_transfer_ms(self.net, eid, bytes))
    }

    /// True when the `(src, bytes)` tree is already materialized. Does not
    /// count as a query.
    pub fn contains(&self, src: NodeId, bytes: f64) -> bool {
        self.has(&TreeKey::new(src, bytes))
    }

    fn has(&self, key: &TreeKey) -> bool {
        self.base.get(key).is_some() || self.shards[shard_of(key)].read().contains_key(key)
    }

    /// The flat CSR snapshot of the network's adjacency, built on first
    /// use. Slot order matches [`elpc_netgraph::Graph::neighbors`] order,
    /// which is what makes the CSR kernel bit-identical to
    /// [`elpc_netgraph::algo::dijkstra`].
    pub fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::from_graph(self.net.graph()))
    }

    /// Builds every missing `(source, payload)` tree of the cross product
    /// on `threads` worker threads (`0` = all CPUs, `1` = inline serial).
    /// Returns the number of trees this call set out to build.
    ///
    /// Misses are grouped per payload, so each payload's §2.2 cost vector
    /// is resolved once and shared by every worker, and each worker keeps
    /// one [`SsspScratch`] whose buffers are recycled across its sources.
    ///
    /// Each tree is an independent Dijkstra run through the same builder
    /// a lazy [`MetricClosure::routed_from`] miss uses, so neither the
    /// build order, the thread count, nor which call materialized an entry
    /// can affect its contents: `par_warm(s, p, 1)`, `par_warm(s, p, 0)`,
    /// and lazy queries leave bit-for-bit identical caches
    /// (property-tested in `tests/csr_equivalence.rs`). Every build counts
    /// as one miss (and a racing duplicate query as a hit), keeping
    /// `hits + misses == queries` exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use elpc_mapping::{CostModel, MetricClosure, NodeId};
    /// # let mut b = elpc_netsim::Network::builder();
    /// # let s = b.add_node(100.0).unwrap();
    /// # let m = b.add_node(100.0).unwrap();
    /// # let d = b.add_node(100.0).unwrap();
    /// # b.add_link(s, m, 100.0, 0.5).unwrap();
    /// # b.add_link(m, d, 100.0, 0.5).unwrap();
    /// # let network = b.build().unwrap();
    /// let closure = MetricClosure::new(&network, CostModel::default());
    /// let sources: Vec<NodeId> = network.node_ids().collect();
    /// // 3 sources × 2 payloads on all CPUs
    /// let built = closure.par_warm(&sources, &[1e5, 1e6], 0);
    /// assert_eq!(built, 6);
    /// assert_eq!(closure.cached_trees(), 6);
    /// // idempotent: everything is already materialized
    /// assert_eq!(closure.par_warm(&sources, &[1e5, 1e6], 1), 0);
    /// ```
    pub fn par_warm(&self, sources: &[NodeId], payloads: &[f64], threads: usize) -> usize {
        // gather missing keys grouped per payload, so each batch shares one
        // precomputed cost vector
        let mut seen = std::collections::HashSet::new();
        let mut batches: Vec<(f64, Vec<TreeKey>)> = Vec::with_capacity(payloads.len());
        for &bytes in payloads {
            let mut batch = Vec::new();
            for &src in sources {
                let key = TreeKey::new(src, bytes);
                if seen.insert(key) && !self.has(&key) {
                    batch.push(key);
                }
            }
            if !batch.is_empty() {
                batches.push((bytes, batch));
            }
        }
        if batches.is_empty() {
            return 0;
        }
        let costs: Vec<Vec<f64>> = batches
            .iter()
            .map(|(bytes, _)| self.cost_vector(*bytes))
            .collect();
        let work: Vec<(usize, TreeKey)> = batches
            .iter()
            .enumerate()
            .flat_map(|(bi, (_, keys))| keys.iter().map(move |&k| (bi, k)))
            .collect();
        let threads = effective_threads(threads).min(work.len());
        if threads <= 1 {
            let mut scratch = SsspScratch::new();
            for &(bi, key) in &work {
                self.tree(key, Some(&costs[bi]), &mut scratch);
            }
        } else {
            let next = AtomicUsize::new(0);
            crossbeam::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|_| {
                        let mut scratch = SsspScratch::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= work.len() {
                                break;
                            }
                            let (bi, key) = work[i];
                            self.tree(key, Some(&costs[bi]), &mut scratch);
                        }
                    });
                }
            })
            .expect("warm-up workers must not panic");
        }
        work.len()
    }

    /// Every materialized entry, base and overlay alike, sorted by key
    /// (deterministic order), as cheap `Arc` clones.
    pub fn export(&self) -> Vec<CachedTree> {
        let mut out: Vec<CachedTree> = self.base.trees().collect();
        out.extend(self.overlay());
        out.sort_by_key(|e| e.key);
        out
    }

    /// The trees this closure built itself (not read from its base),
    /// sorted by key: what a bank checkout adds to the banked snapshot.
    pub fn overlay(&self) -> Vec<CachedTree> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, tree) in shard.read().iter() {
                out.push(CachedTree {
                    key: *key,
                    tree: Arc::clone(tree),
                });
            }
        }
        out.sort_by_key(|e| e.key);
        out
    }

    /// The shared base snapshot this closure reads first (empty unless it
    /// was created by [`MetricClosure::with_base`]).
    pub fn base(&self) -> &Arc<ClosureSnapshot> {
        &self.base
    }

    /// Adds `entries` absent from both layers to the overlay, dropping
    /// trees that do not fit this network's node count. Not a query.
    /// Returns the number inserted. The churn repair's import of the trees
    /// a delta left valid.
    pub(crate) fn insert_overlay(&self, entries: &[CachedTree]) -> usize {
        let k = self.net.node_count();
        let mut inserted = 0;
        for e in entries {
            if e.tree.dist.len() != k
                || (e.key.source as usize) >= k
                || self.base.get(&e.key).is_some()
            {
                continue;
            }
            let mut shard = self.shards[shard_of(&e.key)].write();
            if let std::collections::hash_map::Entry::Vacant(v) = shard.entry(e.key) {
                v.insert(Arc::clone(&e.tree));
                inserted += 1;
            }
        }
        inserted
    }

    /// Minimum routed transport time of `bytes` from `a` to `b` (ms), zero
    /// when `a == b`, [`MappingError::Infeasible`] when no route exists.
    pub fn routed_transfer_ms(&self, a: NodeId, b: NodeId, bytes: f64) -> Result<f64> {
        if a == b {
            return Ok(0.0);
        }
        let tree = self.routed_from(a, bytes);
        let d = tree.dist[b.index()];
        if d.is_finite() {
            Ok(d)
        } else {
            Err(MappingError::Infeasible(format!(
                "no route from {a} to {b} in the network"
            )))
        }
    }

    /// The node sequence of the cheapest route `a → b` for `bytes`, from
    /// the cached predecessor map. `None` when unreachable.
    pub fn routed_path(&self, a: NodeId, b: NodeId, bytes: f64) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        let tree = self.routed_from(a, bytes);
        extract_path(&tree, a, b)
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> ClosureStats {
        ClosureStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of materialized `(payload, source)` trees, base included.
    pub fn cached_trees(&self) -> usize {
        self.base.len() + self.shards.iter().map(|s| s.read().len()).sum::<usize>()
    }
}

/// Everything a registered solver needs to run: the problem instance, the
/// cost model, and the shared metric closure (held behind an [`Arc`], so
/// the cache can also be shared across contexts and threads). Build one per
/// instance and pass it to every algorithm being compared.
///
/// # Examples
///
/// ```
/// use elpc_mapping::{solver, CostModel, Instance, SolveContext};
/// # let mut b = elpc_netsim::Network::builder();
/// # let s = b.add_node(100.0).unwrap();
/// # let m = b.add_node(1000.0).unwrap();
/// # let d = b.add_node(100.0).unwrap();
/// # b.add_link(s, m, 100.0, 0.5).unwrap();
/// # b.add_link(m, d, 100.0, 0.5).unwrap();
/// # let network = b.build().unwrap();
/// # let pipeline = elpc_pipeline::Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
/// let inst = Instance::new(&network, &pipeline, s, d).unwrap();
/// // `new` is the lazy serial constructor; `with_threads(inst, cost, 0)`
/// // would additionally pre-build the routed DPs' transfer trees on all
/// // CPUs — results are identical either way
/// let ctx = SolveContext::new(inst, CostModel::default());
/// let a = solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
/// let b = solver("streamline_delay").unwrap().solve(&ctx).unwrap();
/// // both solvers shared one metric closure: the second one hit the cache
/// assert!(ctx.closure().stats().hits > 0);
/// assert!(a.objective_ms <= b.objective_ms);
/// ```
#[derive(Clone)]
pub struct SolveContext<'a> {
    inst: Instance<'a>,
    closure: Arc<MetricClosure<'a>>,
    warm_threads: usize,
    /// Lazily built dense evaluation kernel (see [`crate::eval`]), shared
    /// across clones of this context so a compare row or portfolio slate
    /// snapshots the closure exactly once.
    kernel: Arc<std::sync::OnceLock<Arc<crate::eval::EvalKernel>>>,
}

impl<'a> SolveContext<'a> {
    /// A context for `inst` under `cost` with an empty closure cache and
    /// serial (lazy) tree builds — the minimal-work single-threaded
    /// configuration.
    pub fn new(inst: Instance<'a>, cost: CostModel) -> Self {
        Self::with_threads(inst, cost, 1)
    }

    /// A context whose routed solvers pre-build their transfer trees on
    /// `threads` worker threads (`0` = all CPUs, `1` = lazy serial).
    pub fn with_threads(inst: Instance<'a>, cost: CostModel, threads: usize) -> Self {
        Self::over(inst, MetricClosure::new(inst.network, cost), threads)
    }

    /// A [`SolveContext::with_threads`] context whose closure reads the
    /// shared snapshot `base` first ([`MetricClosure::with_base`]): the
    /// O(1) checkout path of a closure bank. Errors when the snapshot spans
    /// a different node count than the instance's network.
    pub fn with_base(
        inst: Instance<'a>,
        cost: CostModel,
        threads: usize,
        base: Arc<ClosureSnapshot>,
    ) -> Result<Self> {
        let closure = MetricClosure::with_base(inst.network, cost, base)?;
        Ok(Self::over(inst, closure, threads))
    }

    fn over(inst: Instance<'a>, closure: MetricClosure<'a>, threads: usize) -> Self {
        SolveContext {
            inst,
            closure: Arc::new(closure),
            warm_threads: threads,
            kernel: Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// A context sharing an existing closure (same network required —
    /// checked by identity). The intra-process sharing path: several
    /// contexts over one network see one cache.
    pub fn from_shared(
        inst: Instance<'a>,
        closure: Arc<MetricClosure<'a>>,
        threads: usize,
    ) -> Result<Self> {
        if !std::ptr::eq(closure.network(), inst.network) {
            return Err(MappingError::BadConfig(
                "shared closure was built over a different network".into(),
            ));
        }
        Ok(SolveContext {
            inst,
            closure,
            warm_threads: threads,
            kernel: Arc::new(std::sync::OnceLock::new()),
        })
    }

    /// The problem instance.
    pub fn instance(&self) -> &Instance<'a> {
        &self.inst
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        self.closure.cost()
    }

    /// The transport network.
    pub fn network(&self) -> &'a elpc_netsim::Network {
        self.inst.network
    }

    /// The computing pipeline.
    pub fn pipeline(&self) -> &'a elpc_pipeline::Pipeline {
        self.inst.pipeline
    }

    /// The shared metric closure.
    pub fn closure(&self) -> &MetricClosure<'a> {
        &self.closure
    }

    /// The closure as a cloneable handle, for sharing across contexts or
    /// threads.
    pub fn closure_arc(&self) -> Arc<MetricClosure<'a>> {
        Arc::clone(&self.closure)
    }

    /// The configured warm-up thread count (`0` = all CPUs, `1` = lazy).
    pub fn warm_threads(&self) -> usize {
        self.warm_threads
    }

    /// Pre-builds the transfer trees the routed DPs consult: the first
    /// boundary's payload from the source, and every later boundary's
    /// payload from every node. Called by the routed solvers on entry; a
    /// no-op at `warm_threads == 1`, where the solvers' lazy queries build
    /// strictly the trees they touch. Returns the number of trees built.
    pub fn warm_routed_dp(&self) -> usize {
        if self.warm_threads == 1 {
            return 0;
        }
        let pipe = self.inst.pipeline;
        let n = pipe.len();
        if n < 2 {
            return 0;
        }
        let mut built =
            self.closure
                .par_warm(&[self.inst.src], &[pipe.input_bytes(1)], self.warm_threads);
        if n > 2 {
            let sources: Vec<NodeId> = self.network().node_ids().collect();
            let payloads: Vec<f64> = (2..n).map(|j| pipe.input_bytes(j)).collect();
            built += self
                .closure
                .par_warm(&sources, &payloads, self.warm_threads);
        }
        built
    }

    /// The dense evaluation kernel for this instance (see [`crate::eval`]),
    /// built on first use — through [`MetricClosure::par_warm`] on the
    /// context's warm-thread count — and memoized, so every local-search
    /// solver and the rate polish running on this context (or a clone of
    /// it) share one snapshot. Contents are bit-identical at any thread
    /// count.
    pub fn eval_kernel(&self) -> Arc<crate::eval::EvalKernel> {
        Arc::clone(
            self.kernel
                .get_or_init(|| Arc::new(crate::eval::EvalKernel::build(self))),
        )
    }

    /// The kernel if some solver on this context already built it — the
    /// opportunistic fast path for callers (like the rate polish) whose own
    /// workload would not amortize a fresh snapshot.
    pub fn eval_kernel_cached(&self) -> Option<Arc<crate::eval::EvalKernel>> {
        self.kernel.get().cloned()
    }

    /// Pre-installs `kernel` as this context's memoized evaluation kernel,
    /// so [`Self::eval_kernel`] hands it out instead of building one.
    /// Returns `false` (and installs nothing) when a kernel is already
    /// memoized. This is how a churn loop reuses a row-patched kernel
    /// ([`crate::EvalKernel::patched_for_churn`]) on the next epoch's
    /// context: the caller owes the same contract the builder meets — the
    /// kernel must equal `EvalKernel::build(self)` bit-for-bit.
    pub fn install_eval_kernel(&self, kernel: Arc<crate::eval::EvalKernel>) -> bool {
        self.kernel.set(kernel).is_ok()
    }

    /// Shorthand for [`MetricClosure::routed_from`].
    pub fn routed_from(&self, src: NodeId, bytes: f64) -> Arc<ShortestPaths> {
        self.closure.routed_from(src, bytes)
    }

    /// Shorthand for [`MetricClosure::routed_transfer_ms`].
    pub fn routed_transfer_ms(&self, a: NodeId, b: NodeId, bytes: f64) -> Result<f64> {
        self.closure.routed_transfer_ms(a, b, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netgraph::algo::dijkstra;
    use elpc_netsim::Network;
    use elpc_pipeline::Pipeline;

    fn net3() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(100.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 1000.0, 0.1).unwrap();
        b.add_link(n1, n2, 1000.0, 0.1).unwrap();
        b.add_link(n0, n2, 1.0, 0.1).unwrap();
        b.build().unwrap()
    }

    fn assert_send_sync<T: Send + Sync>(_: &T) {}

    #[test]
    fn closure_and_context_are_send_and_sync() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        assert_send_sync(&mc);
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        assert_send_sync(&ctx);
    }

    #[test]
    fn closure_caches_per_payload_and_source() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        let a = mc.routed_from(NodeId(0), 1e6);
        let b = mc.routed_from(NodeId(0), 1e6);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same query must return the cached tree"
        );
        assert_eq!(mc.stats(), ClosureStats { hits: 1, misses: 1 });
        // different payload or source recomputes
        mc.routed_from(NodeId(0), 2e6);
        mc.routed_from(NodeId(1), 1e6);
        assert_eq!(mc.stats().misses, 3);
        assert_eq!(mc.cached_trees(), 3);
        assert!(mc.contains(NodeId(0), 2e6));
        assert!(!mc.contains(NodeId(2), 2e6));
    }

    #[test]
    fn closure_matches_fresh_dijkstra_bit_for_bit() {
        let net = net3();
        let cost = CostModel::default();
        let mc = MetricClosure::new(&net, cost);
        for bytes in [1.0, 1e4, 1e6] {
            for src in 0..3u32 {
                let cached = mc.routed_from(NodeId(src), bytes);
                let fresh = dijkstra(net.graph(), NodeId(src), |eid, _| {
                    cost.edge_transfer_ms(&net, eid, bytes)
                });
                for v in 0..3 {
                    assert_eq!(cached.dist[v].to_bits(), fresh.dist[v].to_bits());
                    assert_eq!(cached.prev[v], fresh.prev[v]);
                }
            }
        }
    }

    #[test]
    fn routed_transfer_prefers_multi_hop_over_slow_direct() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        // 1 MB over the direct 1 Mbps link = 8000 ms; via n1 = 16.2 ms
        let t = mc.routed_transfer_ms(NodeId(0), NodeId(2), 1e6).unwrap();
        assert!((t - 16.2).abs() < 1e-9, "got {t}");
        assert_eq!(
            mc.routed_path(NodeId(0), NodeId(2), 1e6).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(
            mc.routed_transfer_ms(NodeId(1), NodeId(1), 1e9).unwrap(),
            0.0
        );
    }

    #[test]
    fn par_warm_builds_the_cross_product_once() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        let sources = [NodeId(0), NodeId(1), NodeId(2)];
        let built = mc.par_warm(&sources, &[1e4, 1e6], 2);
        assert_eq!(built, 6);
        assert_eq!(mc.cached_trees(), 6);
        // a second warm builds nothing
        assert_eq!(mc.par_warm(&sources, &[1e4, 1e6], 0), 0);
        // duplicate inputs are deduplicated
        let built = mc.par_warm(&[NodeId(0), NodeId(0)], &[5e5, 5e5], 4);
        assert_eq!(built, 1);
    }

    #[test]
    fn par_warm_thread_counts_agree_bit_for_bit() {
        let net = net3();
        let cost = CostModel::default();
        let serial = MetricClosure::new(&net, cost);
        let parallel = MetricClosure::new(&net, cost);
        let sources = [NodeId(0), NodeId(1), NodeId(2)];
        let payloads = [1.0, 1e4, 2.5e5, 1e6];
        serial.par_warm(&sources, &payloads, 1);
        parallel.par_warm(&sources, &payloads, 0);
        for &src in &sources {
            for &bytes in &payloads {
                let a = serial.routed_from(src, bytes);
                let b = parallel.routed_from(src, bytes);
                for v in 0..3 {
                    assert_eq!(a.dist[v].to_bits(), b.dist[v].to_bits());
                    assert_eq!(a.prev[v], b.prev[v]);
                }
            }
        }
    }

    #[test]
    fn snapshot_base_is_shared_by_pointer_and_read_as_hits() {
        let net = net3();
        let cost = CostModel::default();
        let mc = MetricClosure::new(&net, cost);
        mc.par_warm(&[NodeId(0), NodeId(1)], &[1e4, 1e6], 1);
        let entries = mc.export();
        assert_eq!(entries.len(), 4);
        // deterministic order
        let again = mc.export();
        for (a, b) in entries.iter().zip(&again) {
            assert_eq!(a.key, b.key);
            assert!(Arc::ptr_eq(&a.tree, &b.tree));
        }
        let snap = Arc::new(ClosureSnapshot::new(3, entries.clone()));
        assert_eq!(snap.len(), 4);
        let listed: Vec<TreeKey> = snap.trees().map(|e| e.key).collect();
        let keys: Vec<TreeKey> = entries.iter().map(|e| e.key).collect();
        assert_eq!(listed, keys, "a snapshot lists its trees in key order");

        let fresh = MetricClosure::with_base(&net, cost, Arc::clone(&snap)).unwrap();
        assert!(Arc::ptr_eq(fresh.base(), &snap), "attaching copies nothing");
        assert_eq!(fresh.cached_trees(), 4);
        assert!(fresh.overlay().is_empty());
        // attaching is not a query
        assert_eq!(fresh.stats(), ClosureStats::default());
        // a base query is a hit on the identical Arc, and builds nothing
        let tree = fresh.routed_from(NodeId(0), 1e4);
        assert!(Arc::ptr_eq(&tree, &mc.routed_from(NodeId(0), 1e4)));
        assert_eq!(fresh.stats(), ClosureStats { hits: 1, misses: 0 });
        assert_eq!(fresh.par_warm(&[NodeId(0), NodeId(1)], &[1e4, 1e6], 2), 0);
        // a tree the base lacks is built into the overlay only
        fresh.routed_from(NodeId(2), 1e4);
        let overlay = fresh.overlay();
        assert_eq!(overlay.len(), 1);
        assert_eq!(overlay[0].key, TreeKey::new(NodeId(2), 1e4));
        assert_eq!(snap.len(), 4, "the shared base never changes");
        // export is base ∪ overlay, in key order
        let exported: Vec<TreeKey> = fresh.export().iter().map(|e| e.key).collect();
        let mut expect = keys.clone();
        expect.push(TreeKey::new(NodeId(2), 1e4));
        expect.sort();
        assert_eq!(exported, expect);
    }

    #[test]
    fn snapshot_union_adds_only_missing_trees() {
        let net = net3();
        let cost = CostModel::default();
        let a = MetricClosure::new(&net, cost);
        a.par_warm(&[NodeId(0), NodeId(1)], &[1e4], 1);
        let b = MetricClosure::new(&net, cost);
        b.par_warm(&[NodeId(1), NodeId(2)], &[1e4, 1e6], 1);
        let snap = ClosureSnapshot::new(3, a.export());
        let merged = snap.union(b.export()).expect("b adds trees");
        assert_eq!(merged.len(), 5);
        // the first-held tree of a shared key is kept
        let shared = TreeKey::new(NodeId(1), 1e4);
        assert!(Arc::ptr_eq(
            merged.get(&shared).unwrap(),
            snap.get(&shared).unwrap()
        ));
        // nothing new: no snapshot is made
        assert!(merged.union(a.export()).is_none());
        assert!(merged.union(Vec::new()).is_none());
    }

    #[test]
    fn snapshot_rejects_foreign_shaped_trees() {
        let net = net3();
        let cost = CostModel::default();
        let mut b = Network::builder();
        let a = b.add_node(1.0).unwrap();
        let c = b.add_node(1.0).unwrap();
        b.add_link(a, c, 10.0, 0.1).unwrap();
        let net2 = b.build().unwrap();
        let mc2 = MetricClosure::new(&net2, cost);
        mc2.routed_from(a, 1e4);
        // 2-node trees do not fit a 3-node snapshot ...
        let snap = ClosureSnapshot::new(3, mc2.export());
        assert!(snap.is_empty(), "2-node trees must be rejected");
        assert!(snap.union(mc2.export()).is_none());
        // ... and a 2-node snapshot does not attach to a 3-node network
        let foreign = Arc::new(ClosureSnapshot::new(2, mc2.export()));
        assert_eq!(foreign.len(), 1);
        assert!(matches!(
            MetricClosure::with_base(&net, cost, foreign),
            Err(MappingError::BadConfig(_))
        ));
    }

    #[test]
    fn context_exposes_instance_and_closure() {
        let net = net3();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        assert_eq!(ctx.pipeline().len(), 3);
        assert_eq!(ctx.network().node_count(), 3);
        assert_eq!(ctx.instance().src, NodeId(0));
        assert_eq!(ctx.warm_threads(), 1);
        ctx.routed_from(NodeId(0), 1e4);
        assert_eq!(ctx.closure().stats().misses, 1);
        // lazy contexts skip the DP warm-up entirely
        assert_eq!(ctx.warm_routed_dp(), 0);
    }

    #[test]
    fn parallel_context_prewarms_the_dp_trees() {
        let net = net3();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4), (1.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::with_threads(inst, CostModel::default(), 2);
        // boundary 1 from src only, boundaries 2..n from all 3 nodes
        let built = ctx.warm_routed_dp();
        assert_eq!(built, 1 + 3 * 2);
        // idempotent
        assert_eq!(ctx.warm_routed_dp(), 0);
    }

    #[test]
    fn shared_closure_contexts_enforce_network_identity() {
        let net = net3();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        ctx.routed_from(NodeId(1), 1e4);
        let shared = SolveContext::from_shared(inst, ctx.closure_arc(), 1).unwrap();
        assert_eq!(shared.closure().cached_trees(), 1);
        let other = net3();
        let inst2 = Instance::new(&other, &pipe, NodeId(0), NodeId(2)).unwrap();
        assert!(SolveContext::from_shared(inst2, ctx.closure_arc(), 1).is_err());
    }
}
