//! The `elpc-serve` daemon core.
//!
//! One [`Server`] owns four kinds of threads:
//!
//! * an **acceptor** blocked on the Unix listener, spawning a connection
//!   reader per client;
//! * **connection readers** that decode frames, answer `Ping`/`Stats`
//!   inline, and enqueue solve/remap work;
//! * a **worker pool** pulling jobs from one crossbeam channel, so a slow
//!   solve never blocks the accept path or other requests;
//! * the caller's thread, which owns the [`Server`] handle and drives
//!   drain/shutdown.
//!
//! All workers share one [`ClosureBank`], and concurrent requests hitting
//! the same bank key (topology fingerprint × cost model × payload set)
//! are **coalesced**: the first such request is elected *leader* and
//! builds the all-pairs closure once; the rest wait on its completion and
//! then check the deposited closure out as a bank hit. Each request calls
//! [`ClosureBank::checkout`] exactly once, so the bank's `hits + misses`
//! always equals the number of executed solve requests, and the reply's
//! `banked` flag is that checkout's own outcome — the soak suite pins
//! this exactness. Every request, hits included, then deposits: a hit
//! whose solver built trees its checkout lacked (an eval kernel's, say)
//! folds them into the banked snapshot, and one that built nothing
//! deposits nothing.
//!
//! The work queue is **bounded** ([`ServerConfig::queue_capacity`]):
//! requests beyond the bound are shed with a typed
//! [`ServeError::Overloaded`] reply carrying a `retry_after_ms` hint
//! instead of queueing without limit, so an open-loop overload keeps
//! tail latency bounded. The counters keep two invariants exact:
//! `requests == accepted + shed` at all times, and once drained
//! `accepted == completed + timeouts + errors`.
//!
//! Shutdown is a **drain**: new work is refused with
//! [`ServeError::ShuttingDown`], connection readers notice the drain flag
//! within one read-timeout tick, queued work still completes and its
//! responses are written, then workers stop on sentinel jobs and the
//! socket file is removed.

use crate::histogram::LatencyHistogram;
use crate::protocol::{
    decode_request, encode_response, read_frame_poll, write_frame, LatencySummary, RemapReply,
    RemapRequest, Request, Response, ResponseFrame, ServeError, SolveFailure, SolveReply,
    SolveRequest, StatsReply,
};
use crossbeam::channel;
use elpc_mapping::{solver, Instance};
use elpc_workloads::bank::{bank_key, ClosureBank};
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the solve pool (0 = one per available CPU).
    pub workers: usize,
    /// [`ClosureBank`] capacity in distinct keys.
    pub bank_capacity: usize,
    /// Read-timeout tick on connection readers; bounds how long an idle
    /// connection takes to notice a drain.
    pub read_timeout: Duration,
    /// Admission bound on queued-plus-executing work (0 = unbounded).
    /// Requests arriving when the queue is full are **shed** with a typed
    /// [`ServeError::Overloaded`] carrying a `retry_after_ms` hint instead
    /// of growing the queue without limit.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            bank_capacity: 64,
            read_timeout: Duration::from_millis(50),
            queue_capacity: 1024,
        }
    }
}

enum Job {
    Work(Box<WorkItem>),
    Stop,
}

enum WorkKind {
    Solve(SolveRequest),
    Remap(RemapRequest),
}

struct WorkItem {
    id: u64,
    kind: WorkKind,
    submitted: Instant,
    deadline: Option<Instant>,
    writer: SharedWriter,
}

type SharedWriter = Arc<parking_lot::Mutex<UnixStream>>;

/// One in-flight closure build; followers block on the condvar until the
/// leader finishes (successfully or not).
#[derive(Default)]
struct InFlight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl InFlight {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    coalesced: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    /// Sum of completed-request latencies in microseconds; with
    /// `completed` this yields the mean latency the shed path's
    /// `retry_after_ms` hint is derived from without taking the
    /// latencies lock on the hot refusal path.
    latency_sum_us: AtomicU64,
    /// Completed-request latencies, in constant memory.
    latencies: parking_lot::Mutex<LatencyHistogram>,
}

struct Shared {
    path: PathBuf,
    bank: ClosureBank,
    tx: channel::Sender<Job>,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    conns: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    coalesce: StdMutex<HashMap<u64, Arc<InFlight>>>,
    read_timeout: Duration,
    workers: u64,
    queue_capacity: u64,
    stats: Counters,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// `retry_after_ms` hint answered with [`ServeError::Overloaded`]:
    /// roughly how long the current backlog takes to clear.
    fn retry_after_ms(&self) -> u64 {
        let completed = self.stats.completed.load(Ordering::Relaxed);
        let mean_ms = if completed == 0 {
            10.0
        } else {
            self.stats.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e3 / completed as f64
        };
        retry_after_hint(
            self.stats.queue_depth.load(Ordering::SeqCst),
            mean_ms,
            self.workers,
        )
    }

    fn stats_snapshot(&self) -> StatsReply {
        let bank = self.bank.stats();
        let latency = {
            let h = self.stats.latencies.lock();
            LatencySummary {
                count: h.count(),
                p50_ms: h.percentile(0.50),
                p99_ms: h.percentile(0.99),
                max_ms: h.max_ms(),
            }
        };
        StatsReply {
            requests: self.stats.requests.load(Ordering::Relaxed),
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            queue_depth: self.stats.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Relaxed),
            workers: self.workers,
            bank_hits: bank.hits,
            bank_misses: bank.misses,
            bank_deposits: bank.deposits,
            bank_repairs: bank.repairs,
            latency,
        }
    }
}

/// Backlog-drain estimate for shed replies: `depth` jobs at
/// `mean_latency_ms` each across `workers` lanes, clamped to
/// [10 ms, 10 s] so clients never busy-spin or stall for minutes on a
/// skewed sample.
fn retry_after_hint(depth: u64, mean_latency_ms: f64, workers: u64) -> u64 {
    let est = depth as f64 * mean_latency_ms / workers.max(1) as f64;
    (est.ceil() as u64).clamp(10, 10_000)
}

/// A running solve daemon bound to a Unix socket.
///
/// Dropping the handle performs a full drain/shutdown; call
/// [`Server::shutdown`] to do it explicitly and receive the final
/// statistics snapshot.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the daemon to `path` and starts its threads.
    ///
    /// A pre-existing file at `path` is removed first (a stale socket from
    /// a crashed daemon would otherwise make the bind fail forever).
    pub fn bind<P: AsRef<Path>>(path: P, config: ServerConfig) -> std::io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let (tx, rx) = channel::unbounded::<Job>();
        let shared = Arc::new(Shared {
            path,
            bank: ClosureBank::with_capacity(config.bank_capacity.max(1)),
            tx,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conns: parking_lot::Mutex::new(Vec::new()),
            coalesce: StdMutex::new(HashMap::new()),
            read_timeout: config.read_timeout,
            workers: workers as u64,
            queue_capacity: config.queue_capacity as u64,
            stats: Counters::default(),
        });
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("elpc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("elpc-serve-accept".into())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.shared.path
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len().max(self.shared.workers as usize)
    }

    /// The shared closure bank (exposed for the soak suite's exactness
    /// assertions).
    pub fn bank(&self) -> &ClosureBank {
        &self.shared.bank
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats_snapshot()
    }

    /// True once a client has asked the daemon to exit via
    /// [`Request::Shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Blocks until a client requests shutdown, then returns (the caller
    /// still owns the handle and performs the actual [`Server::shutdown`]).
    pub fn run_until_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Drains and stops the daemon: refuses new work, completes and
    /// answers everything already queued, joins every thread, removes the
    /// socket file, and returns the final statistics.
    pub fn shutdown(mut self) -> StatsReply {
        self.shutdown_impl();
        self.shared.stats_snapshot()
    }

    fn shutdown_impl(&mut self) {
        if self.acceptor.is_none() && self.workers.is_empty() {
            return; // already shut down
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the drain flag after every accept.
        let _ = UnixStream::connect(&self.shared.path);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Connection readers poll the drain flag through their read
        // timeout, so joining them bounds at one tick per connection.
        let conns: Vec<_> = std::mem::take(&mut *self.shared.conns.lock());
        for h in conns {
            let _ = h.join();
        }
        // No producers remain: everything queued ahead of the sentinels
        // still executes, then each worker consumes exactly one Stop.
        for _ in 0..self.workers.len() {
            let _ = self.shared.tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.shared.path);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------------
// Acceptor and connection readers
// ---------------------------------------------------------------------------

fn acceptor_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining() {
                    break; // the wake-up connection, or a drain race
                }
                let sh = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("elpc-serve-conn".into())
                    .spawn(move || connection_loop(&sh, stream));
                if let Ok(h) = spawned {
                    shared.conns.lock().push(h);
                }
            }
            Err(_) => {
                if shared.draining() {
                    break;
                }
            }
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(parking_lot::Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        let frame = match read_frame_poll(&mut reader, || shared.draining()) {
            Ok(Some(payload)) => payload,
            // Clean EOF or drain between frames; queued work for this
            // connection still answers through the writer clone.
            Ok(None) => break,
            // Truncated/oversized/io: the stream is no longer framed;
            // nothing can be answered reliably, so drop the connection.
            Err(_) => break,
        };
        let req = match decode_request(&frame) {
            Ok(f) => f,
            Err(e) => {
                // The frame boundary is intact, so answer the typed error
                // (id 0: the real id is unrecoverable) and keep serving.
                respond(
                    &writer,
                    0,
                    Response::Error(ServeError::Malformed {
                        detail: e.to_string(),
                    }),
                );
                continue;
            }
        };
        match req.body {
            Request::Ping => {
                respond(&writer, req.id, Response::Pong);
            }
            Request::Stats => {
                respond(&writer, req.id, Response::Stats(shared.stats_snapshot()));
            }
            Request::Shutdown => {
                respond(&writer, req.id, Response::ShuttingDown);
                shared.draining.store(true, Ordering::SeqCst);
                shared.shutdown_requested.store(true, Ordering::SeqCst);
                break;
            }
            Request::Solve(s) => enqueue(shared, req.id, WorkKind::Solve(s), &writer),
            Request::Remap(r) => enqueue(shared, req.id, WorkKind::Remap(r), &writer),
        }
    }
}

/// Admission control: reserves one queue slot, or refuses.
///
/// A compare-and-swap loop on `queue_depth` makes the bound exact under
/// concurrent readers — two connections racing for the last slot cannot
/// both win, so `max_queue_depth` never exceeds `queue_capacity`. On
/// refusal the caller sheds the request with [`ServeError::Overloaded`].
fn try_admit(shared: &Shared) -> Option<u64> {
    if shared.queue_capacity == 0 {
        return Some(shared.stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1);
    }
    let mut cur = shared.stats.queue_depth.load(Ordering::SeqCst);
    loop {
        if cur >= shared.queue_capacity {
            return None;
        }
        match shared.stats.queue_depth.compare_exchange(
            cur,
            cur + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Some(cur + 1),
            Err(actual) => cur = actual,
        }
    }
}

fn enqueue(shared: &Arc<Shared>, id: u64, kind: WorkKind, writer: &SharedWriter) {
    if shared.draining() {
        respond(writer, id, Response::Error(ServeError::ShuttingDown));
        return;
    }
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let Some(depth) = try_admit(shared) else {
        // Queue full: shed instead of queueing without bound. The typed
        // refusal carries a backlog-drain estimate so well-behaved
        // clients back off rather than hammer.
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        respond(
            writer,
            id,
            Response::Error(ServeError::Overloaded {
                retry_after_ms: shared.retry_after_ms(),
            }),
        );
        return;
    };
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .max_queue_depth
        .fetch_max(depth, Ordering::SeqCst);
    let submitted = Instant::now();
    let timeout_ms = match &kind {
        WorkKind::Solve(s) => s.timeout_ms,
        WorkKind::Remap(r) => r.solve.timeout_ms,
    };
    let deadline = timeout_ms.map(|ms| submitted + Duration::from_millis(ms));
    let item = Box::new(WorkItem {
        id,
        kind,
        submitted,
        deadline,
        writer: Arc::clone(writer),
    });
    if shared.tx.send(Job::Work(item)).is_err() {
        // Drain raced the admission: the job will never execute, so its
        // accepted slot settles as an error to keep
        // `accepted == completed + timeouts + errors` exact.
        shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        respond(writer, id, Response::Error(ServeError::ShuttingDown));
    }
}

fn respond(writer: &SharedWriter, id: u64, body: Response) {
    let json = encode_response(&ResponseFrame { id, body });
    let mut w = writer.lock();
    let _ = write_frame(&mut *w, json.as_bytes());
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, rx: &channel::Receiver<Job>) {
    // `Stop` sentinels (one per worker, queued behind the remaining work
    // during drain) and a closed channel both end the loop
    while let Ok(Job::Work(item)) = rx.recv() {
        let (id, writer) = (item.id, Arc::clone(&item.writer));
        // `handle_item` already converts solver panics into typed
        // `Internal` replies; this outer net catches a panic anywhere
        // else in the request path so a poisoned job can never shrink
        // the worker pool.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| handle_item(shared, *item)));
        if run.is_err() {
            // handle_item never reached its own accounting: settle the
            // slot as an error so queue_depth and the
            // accepted == completed + timeouts + errors invariant stay
            // exact, and still answer the client.
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
            respond(
                &writer,
                id,
                Response::Error(ServeError::Internal {
                    detail: "worker panicked outside the solve scope".to_string(),
                }),
            );
        }
    }
}

fn handle_item(shared: &Arc<Shared>, item: WorkItem) {
    let queue_ms = item.submitted.elapsed().as_secs_f64() * 1e3;
    let body = if expired(&item) {
        Response::Error(timeout_error(&item))
    } else {
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| match &item.kind {
            WorkKind::Solve(s) => run_solve(shared, s, &item, queue_ms).map(Response::Solved),
            WorkKind::Remap(r) => {
                let repaired = try_repair(shared, r);
                run_solve(shared, &r.solve, &item, queue_ms).map(|reply| {
                    let changed = reply.assignment != r.previous;
                    Response::Remapped(RemapReply {
                        reply,
                        changed,
                        repaired,
                    })
                })
            }
        }));
        match run {
            Ok(Ok(_)) if expired(&item) => Response::Error(timeout_error(&item)),
            Ok(Ok(response)) => response,
            Ok(Err(e)) => Response::Error(e),
            Err(panic) => Response::Error(ServeError::Internal {
                detail: panic_detail(panic.as_ref()),
            }),
        }
    };
    match &body {
        Response::Error(ServeError::Timeout { .. }) => {
            shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        Response::Error(_) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            let latency_ms = item.submitted.elapsed().as_secs_f64() * 1e3;
            shared
                .stats
                .latency_sum_us
                .fetch_add((latency_ms * 1e3) as u64, Ordering::Relaxed);
            shared.stats.latencies.lock().record(latency_ms);
        }
    }
    respond(&item.writer, item.id, body);
    shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
}

fn expired(item: &WorkItem) -> bool {
    item.deadline.is_some_and(|d| Instant::now() >= d)
}

fn timeout_error(item: &WorkItem) -> ServeError {
    ServeError::Timeout {
        waited_ms: item.submitted.elapsed().as_millis() as u64,
    }
}

fn panic_detail(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Attempts a remap's in-place bank repair: migrates the closure banked
/// under `previous_key` to the perturbed instance's key (rebuilding only
/// the trees the delta can affect), so the solve that follows checks out
/// a **hit**. Requests without the repair fields, naming an unbanked key,
/// or carrying an empty delta fall through to the normal path — a failed
/// repair is never an error, just a cold solve. The delta is the client's
/// contract: it must be the exact perturbation between the instance it
/// banked earlier and `solve.instance`.
fn try_repair(shared: &Arc<Shared>, r: &RemapRequest) -> bool {
    let (Some(prev_key), Some(delta)) = (r.previous_key, r.delta.as_ref()) else {
        return false;
    };
    if delta.is_empty() {
        return false;
    }
    let Ok(inst) = Instance::new(
        &r.solve.instance.network,
        &r.solve.instance.pipeline,
        r.solve.instance.src,
        r.solve.instance.dst,
    ) else {
        return false; // run_solve will surface the Malformed error
    };
    shared
        .bank
        .update_in_place(prev_key, inst, r.solve.cost, delta, r.solve.threads)
        .is_some()
}

/// Runs one solve request to a reply, coalescing closure builds.
fn run_solve(
    shared: &Arc<Shared>,
    sreq: &SolveRequest,
    item: &WorkItem,
    queue_ms: f64,
) -> Result<SolveReply, ServeError> {
    let entry = solver(&sreq.solver).ok_or_else(|| ServeError::UnknownSolver {
        name: sreq.solver.clone(),
    })?;
    let inst = Instance::new(
        &sreq.instance.network,
        &sreq.instance.pipeline,
        sreq.instance.src,
        sreq.instance.dst,
    )
    .map_err(|e| ServeError::Malformed {
        detail: e.to_string(),
    })?;
    let key = bank_key(&inst, &sreq.cost);
    let start = Instant::now();
    let (coalesced, leader) = coalesce(shared, key);
    // A coalesce follower blocks on the leader's closure build and can
    // out-wait its deadline in there — the dequeue-time expiry check has
    // already passed. Answer `Timeout` before the bank checkout below:
    // an expired request must not burn a solve, and hits + misses must
    // keep counting only executed solves. Dropping the guard lets any
    // remaining followers re-elect a leader.
    if expired(item) {
        drop(leader);
        return Err(timeout_error(item));
    }
    // The one and only checkout this request makes: the bank's
    // hits + misses stays exactly equal to executed solve requests, and
    // `banked` is this checkout's outcome even if an eviction raced it.
    let (ctx, banked) = shared.bank.checkout(key, inst, sreq.cost, sreq.threads);
    let result = entry.solve(&ctx);
    // Every request deposits; only trees the checkout lacked are folded
    // in, so a hit that built nothing leaves the bank untouched. A leader
    // deposits BEFORE its guard drops: a racer that sees the in-flight
    // entry gone must also see the deposited closure, or it would elect
    // itself leader and build the same closure a second time. A solver
    // that never touched the metric closure deposits nothing, so the next
    // request for the key is elected leader again.
    shared.bank.deposit(&ctx);
    drop(leader);
    let solution = result.map_err(|e| ServeError::Solve(SolveFailure::from_mapping(&e)))?;
    Ok(SolveReply {
        solver: sreq.solver.clone(),
        assignment: solution.assignment,
        objective_ms: solution.objective_ms,
        banked,
        coalesced,
        queue_ms,
        solve_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Removes the in-flight entry for `key` and wakes its followers when the
/// leader finishes — on success, error, or panic (the guard drops during
/// unwinding too).
struct LeaderGuard<'a> {
    shared: &'a Shared,
    key: u64,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        let entry = self
            .shared
            .coalesce
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
        if let Some(fl) = entry {
            fl.finish();
        }
    }
}

/// Coalesces this request onto any in-flight closure build for `key`.
///
/// Returns `(waited, leader_guard)`: `waited` is true when the request
/// blocked on another request's build; the guard is `Some` when this
/// request was elected leader and must build + deposit the closure.
fn coalesce<'a>(shared: &'a Shared, key: u64) -> (bool, Option<LeaderGuard<'a>>) {
    let mut waited = false;
    if shared.bank.contains_key(key) {
        return (waited, None);
    }
    loop {
        enum Role {
            Banked,
            Lead,
            Wait(Arc<InFlight>),
        }
        let role = {
            let mut map = shared.coalesce.lock().unwrap_or_else(|e| e.into_inner());
            if shared.bank.contains_key(key) {
                Role::Banked
            } else if let Some(fl) = map.get(&key) {
                Role::Wait(Arc::clone(fl))
            } else {
                map.insert(key, Arc::new(InFlight::default()));
                Role::Lead
            }
        };
        match role {
            Role::Banked => return (waited, None),
            Role::Lead => return (waited, Some(LeaderGuard { shared, key })),
            Role::Wait(fl) => {
                if !waited {
                    shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    waited = true;
                }
                fl.wait();
                // Re-check from the top: the leader may have failed before
                // depositing, in which case someone must rebuild.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_hint_scales_and_clamps() {
        // 8 queued × 50 ms each over 4 workers ≈ 100 ms of backlog
        assert_eq!(retry_after_hint(8, 50.0, 4), 100);
        // never below 10 ms (empty queue / tiny jobs)…
        assert_eq!(retry_after_hint(0, 50.0, 4), 10);
        assert_eq!(retry_after_hint(1, 0.001, 64), 10);
        // …never above 10 s (skewed first sample), and 0 workers is safe
        assert_eq!(retry_after_hint(10_000, 5_000.0, 0), 10_000);
    }

    #[test]
    fn admission_is_exact_at_the_bound() {
        let shared = Shared {
            path: PathBuf::new(),
            bank: ClosureBank::with_capacity(1),
            tx: channel::unbounded().0,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conns: parking_lot::Mutex::new(Vec::new()),
            coalesce: StdMutex::new(HashMap::new()),
            read_timeout: Duration::from_millis(1),
            workers: 1,
            queue_capacity: 3,
            stats: Counters::default(),
        };
        assert_eq!(try_admit(&shared), Some(1));
        assert_eq!(try_admit(&shared), Some(2));
        assert_eq!(try_admit(&shared), Some(3));
        assert_eq!(try_admit(&shared), None); // full: shed
        shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(try_admit(&shared), Some(3)); // slot freed: admitted again
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let shared = Shared {
            path: PathBuf::new(),
            bank: ClosureBank::with_capacity(1),
            tx: channel::unbounded().0,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conns: parking_lot::Mutex::new(Vec::new()),
            coalesce: StdMutex::new(HashMap::new()),
            read_timeout: Duration::from_millis(1),
            workers: 1,
            queue_capacity: 0,
            stats: Counters::default(),
        };
        for expect in 1..=4096u64 {
            assert_eq!(try_admit(&shared), Some(expect));
        }
    }

    #[test]
    fn in_flight_wakes_all_followers() {
        let fl = Arc::new(InFlight::default());
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let fl = Arc::clone(&fl);
                    s.spawn(move || {
                        fl.wait();
                        true
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            fl.finish();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(joined, vec![true; 4]);
    }
}
