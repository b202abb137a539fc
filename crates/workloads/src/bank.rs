//! Cross-instance metric-closure reuse: the topology-keyed [`ClosureBank`].
//!
//! A `SolveContext` shares the routed all-pairs work across *solvers* on
//! one instance; consecutive suite cases, parameter sweeps that hold the
//! network fixed, and repeated experiment runs still rebuilt identical
//! closures from scratch because each case owns its own context. The bank
//! closes that gap: materialized shortest-path trees are banked under a key
//! derived from the **network fingerprint × cost model × payload set** as
//! one immutable [`ClosureSnapshot`], and any later instance with the same
//! key checks that snapshot out by pointer: the context's closure reads it
//! lock-free as its base and builds only what it lacks into its own
//! overlay ([`elpc_mapping::MetricClosure::with_base`]). A checkout copies
//! nothing, whatever the closure's size.
//!
//! A deposit **folds**: the context's overlay (plus its base, when that is
//! no longer the banked snapshot) is unioned with the snapshot banked
//! under the key, and the union replaces it. Trees are deterministic per
//! key, so the union is always a valid closure, a richer one never loses
//! trees to a poorer one, and two concurrent folds keep each other's
//! trees. A context that built nothing deposits nothing, in O(1).
//!
//! The key is deliberately strict — [`elpc_netsim::Network::fingerprint`]
//! covers every node power and every link's bandwidth/MLD bit pattern, so a
//! perturbed edge misses the bank instead of serving stale trees. Payload
//! sets are part of the key so an entry always contains exactly the trees
//! its pipeline's boundaries query (a snapshot is still shape-checked
//! against the network's node count on checkout). Correctness never
//! depends on the bank: a miss just means a cold closure, and checked-out
//! trees are bit-identical to freshly built ones (the bank-identity test
//! pins this).
//!
//! The bank is `Send + Sync` (one mutex around the store, atomic
//! statistics) so a parallel sweep can share a single bank across workers.

use elpc_mapping::delta::repair_closure;
use elpc_mapping::{
    ClosureSnapshot, CostModel, Instance, MetricClosure, NetworkDelta, RepairReport, SolveContext,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bank access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankStats {
    /// Checkouts that found a banked closure for the key.
    pub hits: u64,
    /// Checkouts that found nothing (cold context handed out).
    pub misses: u64,
    /// Deposits that stored an entry or folded new trees into one.
    pub deposits: u64,
    /// In-place repairs ([`ClosureBank::update_in_place`]) that migrated an
    /// entry to a perturbed topology's key. Not checkouts: `hits + misses`
    /// still equals the number of [`ClosureBank::context_for`] calls.
    pub repairs: u64,
}

impl BankStats {
    /// Fraction of checkouts served from the bank (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bank key of an instance: FNV-1a over the network fingerprint, the
/// cost-model fingerprint ([`CostModel::fingerprint`] — exhaustive over
/// the model's fields by construction), and the sorted distinct payload
/// sizes of the pipeline's stage boundaries (`f64` bit patterns).
pub fn bank_key(inst: &Instance<'_>, cost: &CostModel) -> u64 {
    let mut h = elpc_netgraph::fnv::Fnv1a::new();
    h.write_u64(inst.network.fingerprint());
    h.write_u64(cost.fingerprint());
    let n = inst.pipeline.len();
    let mut payloads: Vec<u64> = (1..n)
        .map(|j| inst.pipeline.input_bytes(j).to_bits())
        .collect();
    payloads.sort_unstable();
    payloads.dedup();
    h.write_usize(payloads.len());
    for p in payloads {
        h.write_u64(p);
    }
    h.finish()
}

/// Closure store plus FIFO eviction order, behind one mutex.
#[derive(Default)]
struct BankStore {
    entries: HashMap<u64, Arc<ClosureSnapshot>>,
    /// Keys in first-deposit order; front is evicted first once the
    /// capacity is reached. Folds into an existing key keep its slot.
    order: std::collections::VecDeque<u64>,
}

impl BankStore {
    /// Queues `key` as the youngest resident, first evicting the oldest
    /// keys until fewer than `capacity` remain.
    fn admit(&mut self, key: u64, capacity: usize) {
        while self.order.len() >= capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.entries.remove(&evicted);
            }
        }
        self.order.push_back(key);
    }
}

/// A topology-keyed cross-instance cache of materialized metric-closure
/// snapshots. Checkout hands a fresh context the banked snapshot by
/// pointer; deposit folds the trees a solved context built back in for
/// the next instance with the same key.
///
/// Capacity-bounded: once `capacity` distinct keys are on deposit, the
/// oldest-deposited key is evicted to make room (first-in, first-out —
/// sweeps revisit topologies in waves, so deposit age tracks usefulness
/// well enough without per-hit bookkeeping). An evicted topology simply
/// solves cold again and re-deposits.
pub struct ClosureBank {
    store: Mutex<BankStore>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    deposits: AtomicU64,
    repairs: AtomicU64,
}

impl Default for ClosureBank {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl ClosureBank {
    /// Default number of distinct topologies kept on deposit. Each banked
    /// closure holds all materialized all-pairs trees of one instance, so
    /// the cap bounds memory on sweeps over many distinct networks.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// An empty bank with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bank evicting beyond `capacity` keys (min 1).
    ///
    /// Eviction is **first-in, first-out on first deposit**: once
    /// `capacity` distinct keys are on deposit, the next *new* key evicts
    /// the oldest-deposited one. Re-depositing an existing key (even with a
    /// richer closure) keeps its original eviction slot, and an evicted
    /// topology simply solves cold and re-deposits at the back of the
    /// queue.
    ///
    /// ```
    /// use elpc_mapping::solver;
    /// use elpc_workloads::{ClosureBank, InstanceSpec};
    /// let cost = elpc_mapping::CostModel::default();
    /// let spec = InstanceSpec::sized(4, 8, 14);
    /// let bank = ClosureBank::with_capacity(2);
    /// // deposit three distinct topologies into a 2-slot bank
    /// let instances: Vec<_> = (0..3).map(|s| spec.generate(s).unwrap()).collect();
    /// for inst in &instances {
    ///     let ctx = bank.context_for(inst.as_instance(), cost, 1);
    ///     solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
    ///     bank.deposit(&ctx);
    /// }
    /// assert_eq!(bank.len(), 2);
    /// // the oldest deposit (seed 0) was evicted; the youngest two remain
    /// let cold = bank.context_for(instances[0].as_instance(), cost, 1);
    /// assert_eq!(cold.closure().cached_trees(), 0);
    /// let warm = bank.context_for(instances[2].as_instance(), cost, 1);
    /// assert!(warm.closure().cached_trees() > 0);
    /// ```
    pub fn with_capacity(capacity: usize) -> Self {
        ClosureBank {
            store: Mutex::new(BankStore::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            deposits: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
        }
    }

    /// The eviction threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A context for `inst` over the banked snapshot when a closure for the
    /// instance's topology/cost/payload key is on deposit (a hit), cold
    /// otherwise (a miss). `threads` configures the context's parallel
    /// warm-up exactly as [`SolveContext::with_threads`] does. The same
    /// checkout as [`ClosureBank::checkout`], without its outcome.
    ///
    /// # Examples
    ///
    /// Checkout → solve → deposit; the next instance with the same
    /// topology/cost/payload key starts with every tree already built:
    ///
    /// ```
    /// use elpc_mapping::solver;
    /// use elpc_workloads::{ClosureBank, InstanceSpec};
    /// let cost = elpc_mapping::CostModel::default();
    /// let inst = InstanceSpec::sized(5, 10, 20).generate(7).unwrap();
    /// let bank = ClosureBank::new();
    ///
    /// let ctx = bank.context_for(inst.as_instance(), cost, 1); // miss
    /// solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
    /// bank.deposit(&ctx);
    ///
    /// let warm = bank.context_for(inst.as_instance(), cost, 1); // hit
    /// let stats = bank.stats();
    /// assert_eq!((stats.hits, stats.misses), (1, 1));
    /// assert!(warm.closure().cached_trees() > 0);
    /// // the warm solve never runs a Dijkstra
    /// solver("elpc_delay_routed").unwrap().solve(&warm).unwrap();
    /// assert_eq!(warm.closure().stats().misses, 0);
    /// ```
    pub fn context_for<'a>(
        &self,
        inst: Instance<'a>,
        cost: CostModel,
        threads: usize,
    ) -> SolveContext<'a> {
        self.checkout(bank_key(&inst, &cost), inst, cost, threads).0
    }

    /// Checks out a context for `inst` under its bank `key` (which must be
    /// [`bank_key`] of `inst` × `cost`; a caller that already holds it
    /// skips hashing the network again) and reports whether it was a hit.
    /// On a hit the context's closure reads the banked snapshot as its
    /// base, shared by pointer (O(1), nothing copied); a banked snapshot
    /// whose node count does not fit the network is a miss. Counts exactly
    /// one hit or one miss, and the returned flag is that outcome.
    pub fn checkout<'a>(
        &self,
        key: u64,
        inst: Instance<'a>,
        cost: CostModel,
        threads: usize,
    ) -> (SolveContext<'a>, bool) {
        debug_assert_eq!(key, bank_key(&inst, &cost), "checkout under a foreign key");
        let banked = self.store.lock().entries.get(&key).cloned();
        match banked.and_then(|base| SolveContext::with_base(inst, cost, threads, base).ok()) {
            Some(ctx) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (ctx, true)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (SolveContext::with_threads(inst, cost, threads), false)
            }
        }
    }

    /// Folds the trees `ctx` built into the snapshot banked under its
    /// instance key, as a union; when the context's base is no longer the
    /// banked snapshot (another fold or an eviction landed meanwhile), its
    /// base trees join the union too. A context that built nothing
    /// deposits nothing (O(1)), and so does a fold that adds no tree. A
    /// first deposit beyond the capacity evicts the oldest-deposited key.
    pub fn deposit(&self, ctx: &SolveContext<'_>) {
        let closure = ctx.closure();
        let built = closure.overlay();
        if built.is_empty() {
            return;
        }
        let key = bank_key(ctx.instance(), ctx.cost());
        let base = closure.base();
        let mut store = self.store.lock();
        let merged = match store.entries.get(&key) {
            Some(banked) => {
                let stale_base = (!Arc::ptr_eq(banked, base)).then(|| base.trees());
                match banked.union(stale_base.into_iter().flatten().chain(built)) {
                    Some(merged) => merged,
                    None => return,
                }
            }
            None => {
                store.admit(key, self.capacity);
                ClosureSnapshot::new(base.node_count(), base.trees().chain(built))
            }
        };
        store.entries.insert(key, Arc::new(merged));
        drop(store);
        self.deposits.fetch_add(1, Ordering::Relaxed);
    }

    /// True when a closure is on deposit under `key` (see [`bank_key`]).
    ///
    /// A *probe*, not a checkout: it touches no statistics, so
    /// `hits + misses` still equals the number of [`ClosureBank::context_for`]
    /// calls. The serving layer's request coalescer uses it to decide
    /// whether a request can check out immediately or must elect a builder
    /// for the key first.
    pub fn contains_key(&self, key: u64) -> bool {
        self.store.lock().entries.contains_key(&key)
    }

    /// Repairs the entry banked under `old_key` into the key of `inst` ×
    /// `cost` — a perturbed topology becomes a bank *hit-with-repair*
    /// instead of the guaranteed miss the strict fingerprint key would
    /// force. The entry's trees are run through the churn invalidation rule
    /// ([`elpc_mapping::delta`]): untouched trees migrate as shared `Arc`s,
    /// stale sources are rebuilt on `threads` workers, and the repaired
    /// entry is stored under the new key **in the old key's eviction
    /// slot** (the topology aged as one resident; its identity moved, not
    /// its tenure).
    ///
    /// Returns the repair accounting, or `None` when nothing is banked
    /// under `old_key` (the caller falls back to a cold solve). `delta`
    /// must be the [`NetworkDelta`] from the old entry's network to
    /// `inst.network` — the caller vouches for that pairing exactly as it
    /// vouches for `old_key`. Not a checkout and not a deposit: only the
    /// `repairs` statistic moves, so `hits + misses` still equals the
    /// number of [`ClosureBank::context_for`] calls and a subsequent
    /// checkout of the new key counts its own hit.
    pub fn update_in_place(
        &self,
        old_key: u64,
        inst: Instance<'_>,
        cost: CostModel,
        delta: &NetworkDelta,
        threads: usize,
    ) -> Option<RepairReport> {
        let banked = self.store.lock().entries.get(&old_key).cloned()?;
        let new_key = bank_key(&inst, &cost);
        if new_key == old_key {
            // value-identical topology (empty delta): nothing to migrate
            self.repairs.fetch_add(1, Ordering::Relaxed);
            return Some(RepairReport {
                total: banked.len(),
                kept: banked.len(),
                rebuilt: 0,
            });
        }
        // repair outside the lock — stale-tree rebuilds can be expensive
        let entries: Vec<_> = banked.trees().collect();
        let closure = MetricClosure::new(inst.network, cost);
        let report = repair_closure(&closure, &entries, delta, threads);
        let repaired = ClosureSnapshot::new(inst.network.node_count(), closure.export());

        let mut store = self.store.lock();
        store.entries.remove(&old_key);
        let slot = store.order.iter().position(|&k| k == old_key);
        match store.entries.get(&new_key) {
            // the new key is somehow already banked: fold the repaired
            // trees into it, and the old key's slot simply retires
            Some(existing) => {
                if let Some(merged) = existing.union(repaired.trees()) {
                    store.entries.insert(new_key, Arc::new(merged));
                }
                if let Some(i) = slot {
                    store.order.remove(i);
                }
            }
            None => {
                match slot {
                    Some(i) => store.order[i] = new_key,
                    // the old entry was evicted while we repaired: the
                    // repaired closure is still valid, bank it as new
                    None => store.admit(new_key, self.capacity),
                }
                store.entries.insert(new_key, Arc::new(repaired));
            }
        }
        drop(store);
        self.repairs.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// Access statistics so far.
    pub fn stats(&self) -> BankStats {
        BankStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            deposits: self.deposits.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
        }
    }

    /// Number of banked closures (distinct keys).
    pub fn len(&self) -> usize {
        self.store.lock().entries.len()
    }

    /// True when nothing is on deposit.
    pub fn is_empty(&self) -> bool {
        self.store.lock().entries.is_empty()
    }

    /// Drops every banked closure (statistics are kept).
    pub fn clear(&self) {
        let mut store = self.store.lock();
        store.entries.clear();
        store.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceSpec;
    use elpc_mapping::solver;
    use elpc_netgraph::EdgeId;
    use elpc_netsim::Link;

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// The snapshot banked under `key`, read without a checkout.
    fn banked(bank: &ClosureBank, key: u64) -> Option<Arc<ClosureSnapshot>> {
        bank.store.lock().entries.get(&key).cloned()
    }

    #[test]
    fn same_topology_hits_perturbed_topology_misses() {
        let spec = InstanceSpec::sized(5, 10, 20);
        let a = spec.generate(3).unwrap();
        let b = spec.generate(3).unwrap(); // identical draw
        let bank = ClosureBank::new();

        let ctx = bank.context_for(a.as_instance(), cost(), 1);
        solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        bank.deposit(&ctx);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.stats().deposits, 1);

        // contains_key is a probe: true for the deposited key, and no
        // statistics move
        let stats_before = bank.stats();
        assert!(bank.contains_key(bank_key(&a.as_instance(), &cost())));
        assert!(!bank.contains_key(0xDEAD_BEEF));
        assert_eq!(bank.stats(), stats_before);

        // identical network + pipeline → hit, and the closure starts warm
        let warm = bank.context_for(b.as_instance(), cost(), 1);
        assert_eq!(bank.stats().hits, 1);
        assert!(warm.closure().cached_trees() > 0);

        // perturb one link bandwidth → fingerprint guard forces a miss
        let mut c = spec.generate(3).unwrap();
        let old = c.network.link(EdgeId(0)).unwrap().clone();
        c.network
            .set_link_symmetric(EdgeId(0), Link::new(old.bw_mbps * 1.001, old.mld_ms))
            .unwrap();
        let cold = bank.context_for(c.as_instance(), cost(), 1);
        assert_eq!(cold.closure().cached_trees(), 0);
        // a different cost model also misses
        bank.context_for(b.as_instance(), CostModel { include_mld: false }, 1);
        assert_eq!(bank.stats().misses, 3);
    }

    #[test]
    fn banked_solve_is_bit_identical_to_cold_solve() {
        let spec = InstanceSpec::sized(6, 12, 30);
        let owned = spec.generate(11).unwrap();
        let bank = ClosureBank::new();
        let s = solver("elpc_delay_routed").unwrap();

        let cold = s
            .solve(&bank.context_for(owned.as_instance(), cost(), 1))
            .unwrap();
        // redo with a deposited closure
        let ctx = bank.context_for(owned.as_instance(), cost(), 1);
        s.solve(&ctx).unwrap();
        bank.deposit(&ctx);
        let warm_ctx = bank.context_for(owned.as_instance(), cost(), 1);
        let warm = s.solve(&warm_ctx).unwrap();
        assert_eq!(cold.objective_ms.to_bits(), warm.objective_ms.to_bits());
        assert_eq!(cold.assignment, warm.assignment);
        // the warm solve never ran a Dijkstra
        assert_eq!(warm_ctx.closure().stats().misses, 0);
    }

    #[test]
    fn capacity_evicts_oldest_deposit_first() {
        let spec = InstanceSpec::sized(4, 8, 14);
        let instances: Vec<_> = (0..3).map(|s| spec.generate(s).unwrap()).collect();
        let bank = ClosureBank::with_capacity(2);
        assert_eq!(bank.capacity(), 2);
        for inst in &instances {
            let ctx = bank.context_for(inst.as_instance(), cost(), 1);
            solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
            bank.deposit(&ctx);
        }
        assert_eq!(bank.len(), 2, "third deposit must evict one");
        // the oldest (seed 0) is gone; the two youngest survive
        let c0 = bank.context_for(instances[0].as_instance(), cost(), 1);
        assert_eq!(c0.closure().cached_trees(), 0, "seed 0 was evicted");
        for inst in &instances[1..] {
            let c = bank.context_for(inst.as_instance(), cost(), 1);
            assert!(c.closure().cached_trees() > 0);
        }
        // an evicted topology re-deposits cleanly (evicting the next oldest)
        solver("elpc_delay_routed").unwrap().solve(&c0).unwrap();
        bank.deposit(&c0);
        assert_eq!(bank.len(), 2);
        assert!(
            bank.context_for(instances[0].as_instance(), cost(), 1)
                .closure()
                .cached_trees()
                > 0
        );
    }

    /// The re-deposit-after-eviction path, pinned at capacity 1: a new key
    /// evicts the only resident, the evicted topology checks out cold
    /// (miss), and its re-deposit cleanly evicts the usurper in turn —
    /// each eviction registers at the *back* of the FIFO queue, so the
    /// cycle never corrupts the order bookkeeping.
    #[test]
    fn capacity_one_evict_miss_redeposit_cycle() {
        let spec = InstanceSpec::sized(4, 8, 14);
        let a = spec.generate(0).unwrap();
        let b = spec.generate(1).unwrap();
        let bank = ClosureBank::with_capacity(1);
        let s = solver("elpc_delay_routed").unwrap();

        // deposit A (miss), then B (miss) — B's first deposit evicts A
        let ctx_a = bank.context_for(a.as_instance(), cost(), 1);
        s.solve(&ctx_a).unwrap();
        bank.deposit(&ctx_a);
        assert_eq!(bank.len(), 1);
        let ctx_b = bank.context_for(b.as_instance(), cost(), 1);
        s.solve(&ctx_b).unwrap();
        bank.deposit(&ctx_b);
        assert_eq!(bank.len(), 1, "capacity 1 keeps exactly one key");

        // A was evicted: its checkout is a miss and starts cold
        let cold_a = bank.context_for(a.as_instance(), cost(), 1);
        assert_eq!(cold_a.closure().cached_trees(), 0, "A must start cold");
        assert_eq!(
            bank.stats(),
            BankStats {
                hits: 0,
                misses: 3,
                deposits: 2,
                repairs: 0
            }
        );

        // re-deposit A: it evicts B and is immediately checkable-out again
        s.solve(&cold_a).unwrap();
        bank.deposit(&cold_a);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.stats().deposits, 3);
        let warm_a = bank.context_for(a.as_instance(), cost(), 1);
        assert!(warm_a.closure().cached_trees() > 0, "A is banked again");
        assert_eq!(bank.stats().hits, 1);
        // the re-deposited trees are the very Arcs A's solve built
        let solved = s.solve(&warm_a).unwrap();
        assert_eq!(
            warm_a.closure().stats().misses,
            0,
            "warm solve, no Dijkstra"
        );
        let reference = s
            .solve(&SolveContext::new(a.as_instance(), cost()))
            .unwrap();
        assert_eq!(
            solved.objective_ms.to_bits(),
            reference.objective_ms.to_bits()
        );
        // ... and B, evicted by the cycle, misses once more
        let cold_b = bank.context_for(b.as_instance(), cost(), 1);
        assert_eq!(cold_b.closure().cached_trees(), 0, "B was evicted in turn");
        assert_eq!(
            bank.stats(),
            BankStats {
                hits: 1,
                misses: 4,
                deposits: 3,
                repairs: 0
            }
        );
    }

    #[test]
    fn update_in_place_turns_a_perturbation_into_a_hit_with_repair() {
        let spec = InstanceSpec::sized(5, 12, 26);
        let base = spec.generate(21).unwrap();
        let bank = ClosureBank::new();
        let s = solver("elpc_delay_routed").unwrap();

        // bank the base topology
        let ctx = bank.context_for(base.as_instance(), cost(), 1);
        s.solve(&ctx).unwrap();
        bank.deposit(&ctx);
        let old_key = bank_key(&base.as_instance(), &cost());

        // perturb two links; the strict key would miss
        let mut pert = base.clone();
        for id in [EdgeId(0), EdgeId(4)] {
            let old = pert.network.link(id).unwrap().clone();
            pert.network
                .set_link_symmetric(id, Link::new(old.bw_mbps * 0.5, old.mld_ms))
                .unwrap();
        }
        let new_key = bank_key(&pert.as_instance(), &cost());
        assert_ne!(old_key, new_key);
        assert!(!bank.contains_key(new_key));

        let delta = NetworkDelta::between(&base.network, &pert.network).unwrap();
        let report = bank
            .update_in_place(old_key, pert.as_instance(), cost(), &delta, 1)
            .expect("old key is banked");
        assert_eq!(report.kept + report.rebuilt, report.total);
        assert!(report.total > 0);

        // the entry moved: new key banked, old key retired, same slot count
        assert!(bank.contains_key(new_key));
        assert!(!bank.contains_key(old_key));
        assert_eq!(bank.len(), 1);
        let stats = bank.stats();
        assert_eq!((stats.hits, stats.misses, stats.repairs), (0, 1, 1));

        // checking out the repaired entry is a plain hit, and the solve is
        // bit-identical to a cold solve of the perturbed instance
        let warm = bank.context_for(pert.as_instance(), cost(), 1);
        assert_eq!(bank.stats().hits, 1);
        let warm_sol = s.solve(&warm).unwrap();
        let cold_sol = s
            .solve(&SolveContext::new(pert.as_instance(), cost()))
            .unwrap();
        assert_eq!(warm_sol.assignment, cold_sol.assignment);
        assert_eq!(
            warm_sol.objective_ms.to_bits(),
            cold_sol.objective_ms.to_bits()
        );

        // repairing an unbanked key reports None and changes nothing
        assert!(bank
            .update_in_place(0xDEAD_BEEF, pert.as_instance(), cost(), &delta, 1)
            .is_none());
        assert_eq!(bank.stats().repairs, 1);
    }

    #[test]
    fn deposits_fold_as_a_union() {
        let spec = InstanceSpec::sized(5, 8, 16);
        let owned = spec.generate(1).unwrap();
        let bank = ClosureBank::new();
        let rich = bank.context_for(owned.as_instance(), cost(), 1);
        solver("elpc_delay_routed").unwrap().solve(&rich).unwrap();
        bank.deposit(&rich);
        let rich_count = rich.closure().cached_trees();

        // a sparser cold context whose one tree is already banked adds
        // nothing: no deposit, the banked snapshot stays as it was
        let poor = SolveContext::new(owned.as_instance(), cost());
        poor.routed_from(owned.src, owned.pipeline.input_bytes(1));
        let key = bank_key(&owned.as_instance(), &cost());
        let before = banked(&bank, key).unwrap();
        bank.deposit(&poor);
        assert_eq!(bank.stats().deposits, 1);
        assert!(Arc::ptr_eq(&banked(&bank, key).unwrap(), &before));

        // a tree the bank lacks is folded in, and no banked tree is lost
        poor.routed_from(owned.src, 12_345.0);
        bank.deposit(&poor);
        assert_eq!(bank.stats().deposits, 2);
        let again = bank.context_for(owned.as_instance(), cost(), 1);
        assert_eq!(again.closure().cached_trees(), rich_count + 1);
        assert!(again.closure().contains(owned.src, 12_345.0));

        bank.clear();
        assert!(bank.is_empty());
        // empty contexts deposit nothing
        bank.deposit(&SolveContext::new(owned.as_instance(), cost()));
        assert!(bank.is_empty());
    }

    /// A hit hands out the banked snapshot itself: every checkout's base is
    /// the very `Arc` the bank holds, and the returned outcome is the
    /// statistic the checkout counted.
    #[test]
    fn snapshot_checkout_shares_the_banked_snapshot_by_pointer() {
        let spec = InstanceSpec::sized(5, 12, 26);
        let a = spec.generate(4).unwrap();
        let b = spec.generate(5).unwrap();
        let bank = ClosureBank::new();
        let key = bank_key(&a.as_instance(), &cost());
        let (ctx, hit) = bank.checkout(key, a.as_instance(), cost(), 1);
        assert!(!hit);
        solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        bank.deposit(&ctx);

        let snap = banked(&bank, key).unwrap();
        assert_eq!(snap.len(), ctx.closure().cached_trees());
        for _ in 0..2 {
            let (warm, hit) = bank.checkout(key, a.as_instance(), cost(), 1);
            assert!(hit);
            assert!(Arc::ptr_eq(warm.closure().base(), &snap));
            assert!(warm.closure().overlay().is_empty());
        }
        let b_key = bank_key(&b.as_instance(), &cost());
        let (cold, hit) = bank.checkout(b_key, b.as_instance(), cost(), 1);
        assert!(!hit);
        assert!(cold.closure().base().is_empty());
        let stats = bank.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    /// The serving pattern: an `elpc_delay_routed` request banks its
    /// trees, the first `lns_delay` hit builds the rest of its kernel's
    /// trees and folds them back, and the second `lns_delay` hit builds
    /// none. Every request checks out once, and the folded answers equal
    /// cold ones bit for bit.
    #[test]
    fn snapshot_fold_lets_the_second_kernel_hit_build_nothing() {
        let owned = InstanceSpec::sized(6, 20, 44).generate(8).unwrap();
        let bank = ClosureBank::new();
        let key = bank_key(&owned.as_instance(), &cost());
        let mut executed = 0u64;
        let mut run = |name: &str| {
            let (ctx, _) = bank.checkout(key, owned.as_instance(), cost(), 1);
            let sol = solver(name).unwrap().solve(&ctx).unwrap();
            bank.deposit(&ctx);
            executed += 1;
            (sol, ctx.closure().stats().misses, bank.stats())
        };
        let (_, misses, stats) = run("elpc_delay_routed");
        assert!(misses > 0);
        assert_eq!(stats.deposits, 1);
        let (first, misses, stats) = run("lns_delay");
        assert!(misses > 0, "the first kernel hit builds trees");
        assert_eq!(stats.deposits, 2, "... and folds them");
        let (second, misses, stats) = run("lns_delay");
        assert_eq!(misses, 0, "the second kernel hit builds nothing");
        assert_eq!(stats.deposits, 2, "... and deposits nothing");
        assert_eq!(stats.hits + stats.misses, executed);
        assert_eq!((stats.hits, stats.misses), (2, 1));

        let cold = solver("lns_delay")
            .unwrap()
            .solve(&SolveContext::new(owned.as_instance(), cost()))
            .unwrap();
        for sol in [&first, &second] {
            assert_eq!(sol.assignment, cold.assignment);
            assert_eq!(sol.objective_ms.to_bits(), cold.objective_ms.to_bits());
        }
    }

    /// Two contexts checked out of one snapshot build different trees and
    /// deposit at the same time: the banked snapshot ends as the union.
    #[test]
    fn snapshot_racing_folds_keep_both_trees() {
        let owned = InstanceSpec::sized(5, 12, 26).generate(9).unwrap();
        let bank = ClosureBank::new();
        let ctx = bank.context_for(owned.as_instance(), cost(), 1);
        solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        bank.deposit(&ctx);
        let before = ctx.closure().cached_trees();

        let payloads = [11_111.0, 22_222.0];
        let racers: Vec<_> = payloads
            .iter()
            .map(|&bytes| {
                let racer = bank.context_for(owned.as_instance(), cost(), 1);
                racer.routed_from(owned.src, bytes);
                racer
            })
            .collect();
        let gate = std::sync::Barrier::new(racers.len());
        std::thread::scope(|s| {
            for racer in &racers {
                let (bank, gate) = (&bank, &gate);
                s.spawn(move || {
                    gate.wait();
                    bank.deposit(racer);
                });
            }
        });
        assert_eq!(bank.stats().deposits, 3);
        let snap = banked(&bank, bank_key(&owned.as_instance(), &cost())).unwrap();
        assert_eq!(snap.len(), before + payloads.len());
        for bytes in payloads {
            assert!(snap
                .get(&elpc_mapping::TreeKey::new(owned.src, bytes))
                .is_some());
        }
    }

    /// A context checked out of the bank and grown past its base exports
    /// exactly what a cold closure holding the same trees exports.
    #[test]
    fn snapshot_export_of_a_grown_checkout_equals_a_cold_export() {
        let owned = InstanceSpec::sized(6, 16, 36).generate(12).unwrap();
        let bank = ClosureBank::new();
        let ctx = bank.context_for(owned.as_instance(), cost(), 1);
        solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        bank.deposit(&ctx);

        let grown = bank.context_for(owned.as_instance(), cost(), 1);
        solver("lns_delay").unwrap().solve(&grown).unwrap();
        grown.routed_from(owned.dst, 4_321.0);
        assert!(!grown.closure().base().is_empty());
        assert!(!grown.closure().overlay().is_empty());
        let warm = grown.closure().export();

        let cold = MetricClosure::new(&owned.network, cost());
        for e in &warm {
            cold.routed_from(e.key.source_node(), e.key.payload());
        }
        let cold = cold.export();
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.key, c.key);
            let bits = |t: &elpc_netgraph::algo::ShortestPaths| {
                t.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&w.tree), bits(&c.tree), "{:?}", w.key);
            assert_eq!(w.tree.prev, c.tree.prev, "{:?}", w.key);
        }
    }
}
