//! `servebench` — the end-to-end and per-layer benchmark of `elpc-serve`.
//!
//! ```text
//! servebench --daemon PATH --workload hit_200|miss_300|remap_1k
//!            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! One run spawns `elpc-serve serve --workers 2` as a separate process
//! (five times, to take the median set-up time), drives it from this
//! process over at most two connections, checks every answer it can
//! against direct registry calls, and prints every metric by name and
//! unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under `--trace 1`.
//! See `README.md` next to this package for the workloads and metrics.

mod daemon;
mod gate;
mod load;
mod stats;
mod trace;
mod workload;

use daemon::Daemon;
use elpc_mapping::{NetworkDelta, NodeId};
use elpc_serving::protocol::{RemapRequest, Request, SolveRequest};
use elpc_serving::{Client, StatsReply};
use elpc_workloads::bank::bank_key;
use elpc_workloads::ProblemInstance;
use load::{Answer, Lane, Record};
use stats::{quantile, share, sorted, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::{ChangeKind, ChangeStream, StreamReq, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The unmeasured closed-loop segment before the first round.
const WARM_UP: Duration = Duration::from_secs(3);
/// Rounds the measured window is split into; each latency percentile that
/// every round supports is the median of the rounds' own.
const ROUNDS: usize = 8;
/// Parallel lanes of every stage in the closed loop.
const LANES: f64 = 2.0;
/// Samples a percentile needs beyond it before it is reported.
const BEYOND: f64 = 10.0;
/// Server-side budget every request carries.
const TIMEOUT_MS: u64 = 20_000;
/// How long the open-loop reader waits for replies past the last due time.
const GRACE: Duration = Duration::from_secs(30);
/// A run is invalid when the generator's p90 send lag exceeds this share
/// of the median latency: then the generator, not the daemon, is measured.
const LAG_LIMIT_SHARE: f64 = 0.5;
/// `miss_300` topologies generated for the closed-loop phase, per second
/// of it (well above the 2-worker daemon's build rate).
const MISS_CLOSED_TOPOLOGIES_PER_S: f64 = 30.0;
/// Stream index stride between `remap_1k` controllers.
const CONTROLLER_STRIDE: usize = 1 << 20;
/// Topologies per `miss_300` loop, and epochs per `remap_1k`
/// controller, whose answers the gate checks against direct calls.
const MISS_GATE_TOPOLOGIES: usize = 3;
const REMAP_GATE_EPOCHS: usize = 1;
/// Epochs a `remap_1k` gate sample is drawn from (each controller runs
/// many more within a run).
const REMAP_GATE_WINDOW: usize = 12;

struct Args {
    daemon: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let name = get("workload")?;
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        daemon: PathBuf::from(get("daemon")?),
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace,
        out_dir: flags
            .get("out-dir")
            .map_or_else(|| PathBuf::from(".bench_build/servebench"), PathBuf::from),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A `remap_1k` controller: one connection's own network and its chain
/// of remaps.
struct Controller {
    id: usize,
    current: ProblemInstance,
    assignment: Vec<NodeId>,
    changes: ChangeStream,
    epoch: usize,
    kinds: Vec<ChangeKind>,
    /// Epochs whose answer the gate checks, and their post-change instance.
    gate_epochs: BTreeSet<usize>,
    kept: Vec<(usize, ProblemInstance)>,
}

/// The daemon after set-up, with the inputs the run drives it with.
struct Env {
    daemon: Daemon,
    instances: Vec<ProblemInstance>,
    /// `miss_300`: topologies `[0, open_topos)` belong to the open loop.
    open_topos: usize,
    controllers: Vec<Controller>,
    /// Solve/remap requests sent during set-up.
    sent: u64,
}

fn solve_request(solver: &str, inst: &ProblemInstance) -> SolveRequest {
    SolveRequest {
        solver: solver.to_string(),
        cost: workload::cost(),
        threads: 1,
        timeout_ms: Some(TIMEOUT_MS),
        instance: inst.clone(),
    }
}

/// Seconds of the open- and closed-loop phases.
fn phases(w: Workload, seconds: f64) -> (f64, f64) {
    match w.open_loop_rate() {
        Some(_) => (seconds / 2.0, seconds / 2.0),
        None => (0.0, seconds),
    }
}

/// Spawns the daemon, generates the run's instances, and makes the
/// warm-up deposits users pay once.
fn setup(args: &Args, socket: &Path) -> Result<Env, String> {
    let w = args.workload;
    let daemon = Daemon::spawn(&args.daemon, socket)?;
    let (open_s, closed_s) = phases(w, args.seconds);
    let mut env = Env {
        daemon,
        instances: Vec::new(),
        open_topos: 0,
        controllers: Vec::new(),
        sent: 0,
    };
    match w {
        Workload::Hit200 => {
            env.instances = (0..workload::HIT_TOPOLOGIES)
                .map(|i| w.instance(args.seed, i))
                .collect();
            // elpc_delay_routed leads every topology, so the bank holds the
            // routed DP's trees. lns_delay's kernel also needs the first
            // payload from every source; a hit never re-deposits, so each
            // lns_delay request builds those trees again.
            let jobs: Vec<Vec<(String, ProblemInstance)>> = (0..2)
                .map(|c| {
                    env.instances
                        .iter()
                        .skip(c)
                        .step_by(2)
                        .flat_map(|inst| {
                            [workload::ELPC, workload::LNS].map(|s| (s.to_string(), inst.clone()))
                        })
                        .collect()
                })
                .collect();
            env.sent = warm_up(&env.daemon, jobs)?.len() as u64;
        }
        Workload::Miss300 => {
            let rate = w.open_loop_rate().expect("miss_300 has an open loop");
            env.open_topos = (rate * open_s).ceil() as usize;
            let closed_s = closed_s + WARM_UP.as_secs_f64();
            let closed = (MISS_CLOSED_TOPOLOGIES_PER_S * closed_s).ceil() as usize;
            env.instances = (0..env.open_topos + closed)
                .map(|i| w.instance(args.seed, i))
                .collect();
        }
        Workload::Remap1k => {
            env.instances = (0..workload::CONTROLLERS)
                .map(|i| w.instance(args.seed, i))
                .collect();
            let jobs = env
                .instances
                .iter()
                .map(|inst| vec![(workload::ELPC.to_string(), inst.clone())])
                .collect();
            let replies = warm_up(&env.daemon, jobs)?;
            env.sent = replies.len() as u64;
            for (id, (inst, assignment)) in env.instances.iter().zip(replies).enumerate() {
                let mut pick = SplitMix64::new(args.seed, 300 + id as u64);
                env.controllers.push(Controller {
                    id,
                    current: inst.clone(),
                    assignment,
                    changes: ChangeStream::new(args.seed, id, inst),
                    epoch: 0,
                    kinds: Vec::new(),
                    gate_epochs: (0..REMAP_GATE_EPOCHS)
                        .map(|_| pick.below(REMAP_GATE_WINDOW))
                        .collect(),
                    kept: Vec::new(),
                });
            }
        }
    }
    Ok(env)
}

/// Runs each job list on its own connection, in parallel; returns the
/// assignments in job order (connection by connection).
fn warm_up(
    daemon: &Daemon,
    jobs: Vec<Vec<(String, ProblemInstance)>>,
) -> Result<Vec<Vec<NodeId>>, String> {
    let results: Vec<Result<Vec<Vec<NodeId>>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|list| {
                s.spawn(move || {
                    let mut client = daemon.connect()?;
                    list.iter()
                        .map(|(solver, inst)| {
                            client
                                .solve(solve_request(solver, inst))
                                .map(|r| r.assignment)
                                .map_err(|e| format!("warm-up {solver} failed: {e}"))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Everything the load phases observed.
struct Observed {
    /// Per round: the latency samples (open loop, or the closed loop for
    /// `remap_1k`) and what each closed-loop connection got done.
    rounds: Vec<(Vec<f64>, Vec<Lane>)>,
    /// All latency-sample records, pooled over the rounds.
    latency_records: Vec<Record>,
    open: Vec<Record>,
    open_stream: Vec<StreamReq>,
    closed: Vec<Record>,
    closed_stream: Vec<StreamReq>,
    lag_ms: Vec<f64>,
    controllers: Vec<Controller>,
}

/// Runs the measured window as [`ROUNDS`] rounds, each an open-loop
/// segment (when the workload has one) followed by a closed-loop one, so
/// a burst of outside load lands in one round instead of one phase.
fn drive(args: &Args, env: &mut Env) -> Result<Observed, String> {
    let w = args.workload;
    let (open_s, closed_s) = phases(w, args.seconds);
    let socket = env.daemon.socket().to_path_buf();
    let instances = &env.instances;

    let rate = w.open_loop_rate().unwrap_or(0.0);
    let bursts = (rate * open_s).ceil() as usize;
    let open_stream = workload::stream(w, args.seed, 0, 0, bursts * w.burst());
    let closed_stream = match w {
        Workload::Hit200 => workload::stream(w, args.seed, 1, 0, 1 << 16),
        Workload::Miss300 => workload::stream(
            w,
            args.seed,
            1,
            env.open_topos,
            3 * (instances.len() - env.open_topos),
        ),
        Workload::Remap1k => Vec::new(),
    };
    let cursor = AtomicUsize::new(0);
    let stream_step = |_: &mut (), client: &mut Client| {
        let k = cursor.fetch_add(1, Ordering::SeqCst);
        let r = *closed_stream.get(k)?;
        let req = solve_request(r.solver, &instances[r.topo]);
        Some(
            load::timed(
                k,
                || client.solve(req).map_err(|e| e.to_string()),
                Answer::solved,
            )
            .0,
        )
    };

    let mut obs = Observed {
        rounds: Vec::new(),
        latency_records: Vec::new(),
        open: Vec::new(),
        open_stream: Vec::new(),
        closed: Vec::new(),
        closed_stream: Vec::new(),
        lag_ms: Vec::new(),
        controllers: std::mem::take(&mut env.controllers),
    };
    let closed_segment = |controllers: &mut Vec<Controller>,
                          until: Instant|
     -> Result<(Vec<Record>, Vec<Lane>), String> {
        if w == Workload::Remap1k {
            let seg = load::closed_loop(&socket, std::mem::take(controllers), until, &remap_step)?;
            *controllers = seg.states;
            Ok((seg.records, seg.lanes))
        } else {
            let seg = load::closed_loop(&socket, vec![(), ()], until, &stream_step)?;
            Ok((seg.records, seg.lanes))
        }
    };
    // An unmeasured closed-loop segment first, so the first round does not
    // pay for a fresh daemon. Its answers are still checked and counted.
    let (warm, _) = closed_segment(&mut obs.controllers, Instant::now() + WARM_UP)?;
    obs.closed.extend(warm);
    for round in 0..ROUNDS {
        let mut latency = Vec::new();
        let (first, last) = (round * bursts / ROUNDS, (round + 1) * bursts / ROUNDS);
        if last > first {
            let offset = first * w.burst();
            let due: Vec<Duration> = (offset..last * w.burst())
                .map(|k| Duration::from_secs_f64((k / w.burst() - first) as f64 / rate))
                .collect();
            let make = |k: usize| {
                let r = open_stream[offset + k];
                Request::Solve(solve_request(r.solver, &instances[r.topo]))
            };
            let mut seg = load::open_loop(&socket, &due, &make, GRACE)?;
            for r in &mut seg.records {
                r.index += offset;
            }
            latency.extend(seg.records.iter().map(|r| r.latency_ms));
            obs.latency_records.extend(seg.records.iter().cloned());
            obs.open.extend(seg.records);
            obs.lag_ms.extend(seg.lag_ms);
        }
        let deadline = Instant::now() + Duration::from_secs_f64(closed_s / ROUNDS as f64);
        let (records, lanes) = closed_segment(&mut obs.controllers, deadline)?;
        if w == Workload::Remap1k {
            latency.extend(records.iter().map(|r| r.latency_ms));
            obs.latency_records.extend(records.iter().cloned());
        }
        obs.rounds.push((latency, lanes));
        obs.closed.extend(records);
    }
    if cursor.load(Ordering::SeqCst) > closed_stream.len() {
        println!("# warning: the closed-loop request stream ran out before the deadline");
    }
    obs.closed.sort_by_key(|r| r.index);
    obs.open_stream = open_stream;
    obs.closed_stream = closed_stream;

    for solver in workload::SOLVERS {
        let lat = sorted(
            obs.open
                .iter()
                .filter(|r| obs.open_stream[r.index].solver == solver)
                .map(|r| r.latency_ms)
                .collect(),
        );
        if !lat.is_empty() {
            println!(
                "# open loop {solver}: {} requests, latency p50 {:.3} / p90 {:.3} ms",
                lat.len(),
                quantile(&lat, 0.5),
                quantile(&lat, 0.9)
            );
        }
    }
    for c in &obs.controllers {
        for kind in ChangeKind::ALL {
            let lat = sorted(
                obs.closed
                    .iter()
                    .filter(|r| r.index / CONTROLLER_STRIDE == c.id)
                    .filter(|r| c.kinds.get(r.index % CONTROLLER_STRIDE) == Some(&kind))
                    .map(|r| r.latency_ms)
                    .collect(),
            );
            println!(
                "# controller {} {}: {} remaps, latency p50 {:.3} / p90 {:.3} ms",
                c.id,
                kind.name(),
                lat.len(),
                quantile(&lat, 0.5),
                quantile(&lat, 0.9)
            );
        }
    }
    Ok(obs)
}

/// One `remap_1k` epoch: apply the next seeded change, send the remap
/// with the previous assignment, key and exact delta, and move on.
fn remap_step(ctl: &mut Controller, client: &mut Client) -> Option<Record> {
    let (kind, net) = ctl.changes.next(&ctl.current.network);
    let next = workload::with_network(&ctl.current, net);
    let delta = NetworkDelta::between(&ctl.current.network, &next.network).expect("same shape");
    let req = RemapRequest {
        solve: solve_request(workload::ELPC, &next),
        previous: ctl.assignment.clone(),
        previous_key: Some(bank_key(&ctl.current.as_instance(), &workload::cost())),
        delta: Some(delta),
    };
    let index = ctl.id * CONTROLLER_STRIDE + ctl.epoch;
    let (record, reply) = load::timed(
        index,
        || client.remap(req).map_err(|e| e.to_string()),
        Answer::remapped,
    );
    if let Some(r) = reply {
        ctl.assignment = r.reply.assignment;
    }
    if ctl.gate_epochs.contains(&ctl.epoch) {
        ctl.kept.push((ctl.epoch, next.clone()));
    }
    ctl.kinds.push(kind);
    ctl.current = next;
    ctl.epoch += 1;
    Some(record)
}

/// What the correctness gate found.
struct GateResult {
    checked: usize,
    mismatches: usize,
    broken_identities: Vec<String>,
}

fn run_gate(
    args: &Args,
    instances: &[ProblemInstance],
    obs: &Observed,
    stats: &StatsReply,
    sent: u64,
) -> Result<GateResult, String> {
    let w = args.workload;
    let mut checked = 0;
    let mut mismatches = 0;
    let mut tally = |(c, bad): (usize, Vec<usize>), phase: &str| {
        checked += c;
        mismatches += bad.len();
        for i in bad.iter().take(5) {
            println!("# gate mismatch: {phase} request {i}");
        }
    };
    match w {
        Workload::Hit200 | Workload::Miss300 => {
            let phases = [
                (&obs.open, &obs.open_stream, "open"),
                (&obs.closed, &obs.closed_stream, "closed"),
            ];
            // hit_200: every distinct instance x solver; miss_300: a
            // seeded sample of the topologies each phase served.
            let mut pick = SplitMix64::new(args.seed, 400);
            let mut direct = BTreeMap::new();
            for (records, stream, phase) in phases {
                let served: BTreeSet<usize> = records
                    .iter()
                    .filter(|r| r.outcome.is_ok())
                    .map(|r| stream[r.index].topo)
                    .collect();
                let topos: BTreeSet<usize> = if w == Workload::Hit200 {
                    served
                } else {
                    let served: Vec<usize> = served.into_iter().collect();
                    (0..MISS_GATE_TOPOLOGIES.min(served.len()))
                        .map(|_| served[pick.below(served.len())])
                        .collect()
                };
                for &t in &topos {
                    for s in workload::SOLVERS {
                        let used = w == Workload::Miss300 || s != workload::GREEDY;
                        if used && !direct.contains_key(&(t, s)) {
                            direct.insert((t, s), gate::direct(&instances[t], s)?);
                        }
                    }
                }
                tally(
                    gate::compare(records.iter(), |r| {
                        let q = stream[r.index];
                        direct.get(&(q.topo, q.solver)).cloned()
                    }),
                    phase,
                );
            }
        }
        Workload::Remap1k => {
            let mut direct = BTreeMap::new();
            for ctl in &obs.controllers {
                for (epoch, inst) in &ctl.kept {
                    direct.insert(
                        ctl.id * CONTROLLER_STRIDE + epoch,
                        gate::direct(inst, workload::ELPC)?,
                    );
                }
            }
            tally(
                gate::compare(obs.closed.iter(), |r| direct.get(&r.index).cloned()),
                "remap",
            );
        }
    }
    Ok(GateResult {
        checked,
        mismatches,
        broken_identities: gate::identities(stats, sent),
    })
}

/// The aggregate `cpu` line of `/proc/stat`: user, nice, system, idle,
/// iowait, irq, softirq, steal ticks.
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.len() == 8).then_some(ticks)
}

/// Statistics once the daemon has settled every request: a worker
/// answers before it releases its queue slot, so the last reply can
/// arrive a moment before the queue reads empty.
fn drained_stats(client: &mut Client) -> Result<StatsReply, String> {
    let start = Instant::now();
    loop {
        let s = client.stats().map_err(|e| e.to_string())?;
        if s.queue_depth == 0 || start.elapsed() > Duration::from_secs(5) {
            return Ok(s);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# run {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"profile\":\"release\",\"daemon_workers\":{},\"open_loop_rate\":{}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        daemon::WORKERS,
        w.open_loop_rate().map_or("null".to_string(), |r| r.to_string())
    );

    // Set up several times; the last daemon is the one measured.
    let mut setup_s = Vec::new();
    let mut env = None;
    for i in 0..SETUPS {
        let socket = PathBuf::from(format!(".servebench-{}-{i}.sock", std::process::id()));
        let t0 = Instant::now();
        let e = setup(args, &socket)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            e.daemon.shutdown()?;
        } else {
            env = Some(e);
        }
    }
    let mut env = env.expect("at least one set-up");

    let mut probe = env.daemon.connect()?;
    let before = probe.stats().map_err(|e| e.to_string())?;
    let cpu_before = cpu_ticks();
    let obs = drive(args, &mut env)?;
    if let (Some(a), Some(b)) = (cpu_before, cpu_ticks()) {
        let total: u64 = b.iter().zip(&a).map(|(x, y)| x - y).sum();
        let share = |i: usize| 100.0 * (b[i] - a[i]) as f64 / total.max(1) as f64;
        println!(
            "# host cpu during the window: {:.1} % busy, {:.1} % stolen by the hypervisor",
            100.0 - share(3) - share(4),
            share(7)
        );
    }
    let after = drained_stats(&mut probe)?;
    let rss_mb = env.daemon.peak_rss_mb()?;
    drop(probe);
    let sent = env.sent + (obs.open.len() + obs.closed.len()) as u64;
    let exit = env.daemon.shutdown()?;
    if !exit.success() {
        return Err(format!("daemon exited with {exit}"));
    }
    let instances = env.instances;
    let gate = run_gate(args, &instances, &obs, &after, sent)?;

    // End-to-end metrics.
    let all: Vec<&Record> = obs.open.iter().chain(&obs.closed).collect();
    let attempted = all.len();
    let errors = all.iter().filter(|r| r.outcome.is_err()).count();
    for (index, e) in all
        .iter()
        .filter_map(|r| r.outcome.as_ref().err().map(|e| (r.index, e)))
        .take(5)
    {
        println!("# failed request {index}: {e}");
    }
    let failed = errors + gate.mismatches + gate.broken_identities.len();
    for b in &gate.broken_identities {
        println!("# broken identity: {b}");
    }
    let latencies = sorted(obs.latency_records.iter().map(|r| r.latency_ms).collect());
    // A percentile is the median of the rounds' own percentiles when every
    // round has at least 10 samples beyond it, else that of all samples.
    let per_round = |q: f64| {
        obs.rounds
            .iter()
            .all(|r| r.0.len() as f64 * (1.0 - q) >= BEYOND)
    };
    let percentile = |q: f64| {
        if per_round(q) {
            let each: Vec<f64> = obs
                .rounds
                .iter()
                .map(|r| quantile(&sorted(r.0.clone()), q))
                .collect();
            stats::median(&each)
        } else {
            quantile(&latencies, q)
        }
    };
    let (p50, p90) = (percentile(0.5), percentile(0.9));
    let how = |q: f64| {
        if per_round(q) {
            "round median"
        } else {
            "pooled"
        }
    };
    let beyond_p90 = latencies.iter().filter(|&&l| l > p90).count();
    // Throughput pools every round: per connection, its successful replies
    // over the time up to its last one, so the whole run's request mix
    // weighs in instead of a round's share of slow and fast requests.
    let throughputs: Vec<f64> = obs
        .rounds
        .iter()
        .map(|r| load::throughput_rps(&r.1))
        .collect();
    let mut pooled: Vec<Lane> = Vec::new();
    for (_, lanes) in &obs.rounds {
        pooled.resize(pooled.len().max(lanes.len()), Lane::default());
        for (p, l) in pooled.iter_mut().zip(lanes) {
            *p = p.add(*l);
        }
    }
    let throughput = load::throughput_rps(&pooled);
    let ok_closed = obs.closed.iter().filter(|r| r.outcome.is_ok()).count();
    let lag = sorted(obs.lag_ms.clone());
    let lag_p90 = quantile(&lag, 0.9);
    let invalid = w.open_loop_rate().is_some() && lag_p90 > LAG_LIMIT_SHARE * p50;
    // `correct` is about the daemon's answers; a run the generator could
    // not drive on time is flagged on its own line instead.
    let correct = gate.mismatches == 0 && gate.broken_identities.is_empty();
    println!(
        "# samples: {} latency ({} beyond p90; p50 {}, p90 {}), {} closed-loop replies, {} answers gate-checked",
        latencies.len(),
        beyond_p90,
        how(0.5),
        how(0.9),
        ok_closed,
        gate.checked
    );
    println!(
        "# rounds: latency p50 {:?} ms, throughput {:?} /s",
        obs.rounds
            .iter()
            .map(|r| (quantile(&sorted(r.0.clone()), 0.5) * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        throughputs
            .iter()
            .map(|t| (t * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "# failed_share = {} ({failed} of {attempted} attempted)",
        share(failed as f64, attempted as f64)
    );
    if invalid {
        println!("# INVALID: generator send lag p90 {lag_p90:.3} ms exceeds half the median latency {p50:.3} ms");
    }

    let metrics = if !args.trace {
        vec![
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("throughput_rps", throughput, "1/s"),
            metric(
                "ok_share",
                1.0 - share(failed as f64, attempted as f64),
                "share",
            ),
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("daemon_peak_rss_mb", rss_mb, "MiB"),
        ]
    } else {
        per_layer(
            args, &instances, &obs, &before, &after, p50, throughput, lag_p90,
        )?
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    instances: &[ProblemInstance],
    obs: &Observed,
    before: &StatsReply,
    after: &StatsReply,
    latency_p50: f64,
    throughput: f64,
    lag_p90: f64,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spans = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    let t = trace::run(w, args.seed, instances, &spans)?;

    let answers: Vec<(&Record, &Answer)> = obs
        .latency_records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|a| (r, a)))
        .collect();
    let q = |f: &dyn Fn(&Record, &Answer) -> f64, p: f64| {
        quantile(&sorted(answers.iter().map(|(r, a)| f(r, a)).collect()), p)
    };
    let queue_p50 = q(&|_, a| a.queue_ms, 0.5);
    let every: Vec<&Answer> = obs
        .open
        .iter()
        .chain(&obs.closed)
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let frac = |f: &dyn Fn(&Answer) -> bool| {
        share(
            every.iter().filter(|a| f(a)).count() as f64,
            every.len() as f64,
        )
    };
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let checkouts = d(after.bank_hits, before.bank_hits) + d(after.bank_misses, before.bank_misses);

    // The delay model: the daemon's queue wait plus every replayed stage.
    let mut stages = vec![("server.queue_wait", queue_p50)];
    stages.extend(t.stage_ms.iter().copied());
    let stage_sum: f64 = stages.iter().map(|s| s.1).sum();
    let (bottleneck_stage, bottleneck) = stages
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("stages");
    let residual = share((latency_p50 - stage_sum).abs(), latency_p50);
    // The closed loop runs every stage on 2 lanes at once: 2 client
    // connections, 2 connection readers, 2 workers.
    let rate_bound = share(LANES * 1e3, bottleneck);
    for (name, v) in &stages {
        println!("# stage {name}: median {v:.4} ms");
    }
    println!(
        "# delay model: stage sum {stage_sum:.3} ms vs end-to-end p50 {latency_p50:.3} ms (residual {:.1} %)",
        residual * 100.0
    );
    if residual > 0.10 {
        println!(
            "# FINDING: the stage sum misses the end-to-end median by {:.1} % (> 10 %)",
            residual * 100.0
        );
    }
    println!(
        "# frame-rate model: slowest stage {bottleneck_stage} {bottleneck:.3} ms on {LANES} lanes bounds the rate at {rate_bound:.1} /s; {nproc} CPUs running the stage sum bound it at {:.1} /s; closed-loop throughput {throughput:.1} /s",
        share(nproc as f64 * 1e3, stage_sum)
    );
    println!("# spans written to {}", spans.display());

    let span = |name: &str| t.span_ms.get(name).copied().unwrap_or(0.0);
    let remap = w == Workload::Remap1k;
    let mut m = vec![
        metric("protocol.request_bytes", t.request_bytes, "bytes"),
        metric("protocol.response_bytes", t.response_bytes, "bytes"),
        metric(
            "protocol.encode_request_ms",
            span(trace::ENCODE_REQUEST),
            "ms",
        ),
        metric(
            "protocol.decode_request_ms",
            span(trace::DECODE_REQUEST),
            "ms",
        ),
        metric(
            "protocol.encode_response_ms",
            span(trace::ENCODE_RESPONSE),
            "ms",
        ),
        metric(
            "protocol.decode_response_ms",
            span(trace::DECODE_RESPONSE),
            "ms",
        ),
        metric("server.queue_ms.p50", queue_p50, "ms"),
        metric("server.queue_ms.p90", q(&|_, a| a.queue_ms, 0.9), "ms"),
        metric("server.solve_ms.p50", q(&|_, a| a.solve_ms, 0.5), "ms"),
        metric("server.solve_ms.p90", q(&|_, a| a.solve_ms, 0.9), "ms"),
        metric(
            "server.outside_ms.p50",
            q(&|r, a| r.latency_ms - a.queue_ms - a.solve_ms, 0.5),
            "ms",
        ),
        metric("server.coalesced_share", frac(&|a| a.coalesced), "share"),
        metric(
            "server.max_queue_depth",
            after.max_queue_depth as f64,
            "count",
        ),
        metric("server.shed", after.shed as f64, "count"),
        metric("server.timeouts", after.timeouts as f64, "count"),
        metric("server.errors", after.errors as f64, "count"),
        metric(
            "bank.hit_share",
            share(d(after.bank_hits, before.bank_hits), checkouts),
            "share",
        ),
        metric(
            "bank.cold_builds",
            d(after.bank_misses, before.bank_misses),
            "count",
        ),
        metric(
            "bank.deposits",
            d(after.bank_deposits, before.bank_deposits),
            "count",
        ),
        metric(
            "bank.repairs",
            d(after.bank_repairs, before.bank_repairs),
            "count",
        ),
        metric("bank.key_ms", span(trace::BANK_KEY), "ms"),
        metric("bank.checkout_ms", span(trace::BANK_CHECKOUT), "ms"),
        metric("bank.deposit_ms", span(trace::BANK_DEPOSIT), "ms"),
        metric("bank.repair_ms", span(trace::BANK_REPAIR), "ms"),
        metric("closure.warm_ms", t.closure_warm_ms, "ms"),
        metric("closure.trees", t.closure_trees, "count"),
        metric("csr.sssp_ms", t.sssp_ms, "ms"),
        metric("eval.kernel_build_ms", t.kernel_build_ms, "ms"),
    ];
    for (name, v) in workload::SOLVERS.iter().zip(&t.solver_ms) {
        m.push(metric(&format!("solver.{name}_ms"), *v, "ms"));
    }
    m.extend([
        metric("delta.between_ms", t.delta_between_ms, "ms"),
        metric("delta.rebuilt_share", t.rebuilt_share, "share"),
        metric(
            "remap.repaired_share",
            if remap { frac(&|a| a.repaired) } else { 0.0 },
            "share",
        ),
        metric(
            "remap.changed_share",
            if remap { frac(&|a| a.changed) } else { 0.0 },
            "share",
        ),
        metric("trace.stage_sum_ms", stage_sum, "ms"),
        metric("trace.residual_share", residual, "share"),
        metric("trace.bottleneck_ms", bottleneck, "ms"),
        metric("trace.rate_bound_rps", rate_bound, "1/s"),
        metric(
            "trace.overhead_share",
            share(t.traced_total_ms - t.untraced_total_ms, t.untraced_total_ms),
            "share",
        ),
        metric("loadgen.send_lag_p90_ms", lag_p90, "ms"),
    ]);
    println!("# trace replayed {} requests", t.requests);
    let kinds: Vec<&str> = obs
        .controllers
        .iter()
        .flat_map(|c| c.kinds.iter().map(|k| k.name()))
        .collect();
    if !kinds.is_empty() {
        for k in ChangeKind::ALL {
            println!(
                "# remap epochs of kind {}: {}",
                k.name(),
                kinds.iter().filter(|n| **n == k.name()).count()
            );
        }
    }
    Ok(m)
}
