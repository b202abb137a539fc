//! The traced run's in-process replay.
//!
//! A seeded sample of the workload's requests is replayed through the same
//! public calls the daemon makes for them — request codec, bank key,
//! repair, checkout, eval kernel, solver, deposit, response codec — with
//! one span around each call, all keyed by request id. The same sample is
//! also replayed with spans off, so the difference between the two per-
//! request totals is the tracing overhead.
//!
//! Layer micro-measurements that are not a stage of a request (a cold
//! closure build, one CSR Dijkstra, a kernel snapshot, each solver on a
//! warm context) are timed here too.

use crate::stats::{median, ms};
use crate::workload::{self, ChangeStream, Workload};
use elpc_mapping::{
    solver, CostModel, EvalKernel, Instance, NetworkDelta, NodeId, RepairReport, SolveContext,
};
use elpc_netgraph::csr::SsspScratch;
use elpc_serving::protocol::{
    decode_request, decode_response, encode_request, encode_response, RemapReply, RemapRequest,
    Request, RequestFrame, Response, ResponseFrame, SolveReply, SolveRequest,
};
use elpc_workloads::bank::{bank_key, ClosureBank};
use elpc_workloads::ProblemInstance;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

// Stage span names, in pipeline order.
pub const ENCODE_REQUEST: &str = "client.encode_request";
pub const DECODE_REQUEST: &str = "server.decode_request";
pub const BANK_KEY: &str = "server.bank_key";
pub const BANK_REPAIR: &str = "server.bank_repair";
pub const BANK_CHECKOUT: &str = "server.bank_checkout";
pub const KERNEL_BUILD: &str = "server.eval_kernel_build";
pub const SOLVE: &str = "server.solve";
pub const BANK_DEPOSIT: &str = "server.bank_deposit";
pub const ENCODE_RESPONSE: &str = "server.encode_response";
pub const DECODE_RESPONSE: &str = "client.decode_response";
/// Stages of a request in the order the daemon runs them.
pub const STAGES: [&str; 10] = [
    ENCODE_REQUEST,
    DECODE_REQUEST,
    BANK_KEY,
    BANK_REPAIR,
    BANK_CHECKOUT,
    KERNEL_BUILD,
    SOLVE,
    BANK_DEPOSIT,
    ENCODE_RESPONSE,
    DECODE_RESPONSE,
];

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// An in-memory span recorder; with `on == false` it only runs the calls.
pub struct Spans {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn time<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.spans.push(Span {
            req,
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
        });
        value
    }

    /// Total duration of `name` spans per request id.
    fn per_request(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0.0) += (s.end_us - s.start_us) / 1e3;
        }
        out
    }
}

/// The daemon's request path, replayed in-process: one bank, and the
/// keys whose leader built no closure (the daemon's `no_closure` set).
struct Replayer {
    bank: ClosureBank,
    no_closure: HashSet<u64>,
}

/// One replayed request and what the client does before sending it.
enum Replay {
    Solve(SolveRequest),
    Remap(RemapRequest),
}

/// What one replayed request reports besides its spans.
struct Replayed {
    /// The repair stage's accounting (remaps only).
    repair: Option<RepairReport>,
    request_bytes: usize,
    response_bytes: usize,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            bank: ClosureBank::new(),
            no_closure: HashSet::new(),
        }
    }

    /// Runs request `id` through the daemon's calls, in the daemon's order.
    fn run(&mut self, spans: &mut Spans, id: u64, req: Replay) -> Replayed {
        let body = match req {
            Replay::Solve(s) => Request::Solve(s),
            Replay::Remap(r) => Request::Remap(r),
        };
        let json = spans.time(id, ENCODE_REQUEST, || {
            encode_request(&RequestFrame { id, body })
        });
        let request_bytes = json.len();
        let frame = spans.time(id, DECODE_REQUEST, || {
            decode_request(json.as_bytes()).expect("an encoded request decodes")
        });
        let (sreq, remap) = match frame.body {
            Request::Solve(s) => (s, None),
            Request::Remap(r) => (r.solve, Some((r.previous, r.previous_key, r.delta))),
            _ => unreachable!("only solves and remaps are replayed"),
        };
        let (inst, key) = spans.time(id, BANK_KEY, || {
            let inst = Instance::new(
                &sreq.instance.network,
                &sreq.instance.pipeline,
                sreq.instance.src,
                sreq.instance.dst,
            )
            .expect("generated instances are valid");
            let key = bank_key(&inst, &sreq.cost);
            (inst, key)
        });
        let mut report = None;
        if let Some((_, Some(prev_key), Some(delta))) = &remap {
            report = spans.time(id, BANK_REPAIR, || {
                self.bank
                    .update_in_place(*prev_key, inst, sreq.cost, delta, sreq.threads)
            });
        }
        let banked = self.bank.contains_key(key);
        let leader = !banked && !self.no_closure.contains(&key);
        let ctx = spans.time(id, BANK_CHECKOUT, || {
            self.bank.context_for(inst, sreq.cost, sreq.threads)
        });
        let entry = solver(&sreq.solver).expect("workload solvers are registered");
        if entry.uses_eval_kernel() {
            spans.time(id, KERNEL_BUILD, || ctx.eval_kernel());
        }
        let solution = spans
            .time(id, SOLVE, || entry.solve(&ctx))
            .expect("workload instances are feasible");
        if leader {
            spans.time(id, BANK_DEPOSIT, || self.bank.deposit(&ctx));
            if !self.bank.contains_key(key) {
                self.no_closure.insert(key);
            }
        }
        let reply = SolveReply {
            solver: sreq.solver.clone(),
            assignment: solution.assignment,
            objective_ms: solution.objective_ms,
            banked,
            coalesced: false,
            queue_ms: 0.0,
            solve_ms: 0.0,
        };
        let body = match remap {
            None => Response::Solved(reply),
            Some((previous, _, _)) => Response::Remapped(RemapReply {
                changed: reply.assignment != previous,
                reply,
                repaired: report.is_some(),
            }),
        };
        let json = spans.time(id, ENCODE_RESPONSE, || {
            encode_response(&ResponseFrame { id, body })
        });
        spans.time(id, DECODE_RESPONSE, || {
            decode_response(json.as_bytes()).expect("an encoded response decodes")
        });
        Replayed {
            repair: report,
            request_bytes,
            response_bytes: json.len(),
        }
    }
}

/// A sample of requests to replay, with the bank state it starts from.
struct Sample<'a> {
    /// Solved contexts deposited into a fresh bank before each pass (the
    /// daemon's bank when these requests arrive).
    preload: Vec<SolveContext<'a>>,
    requests: Vec<(u64, Replay)>,
    /// Remaps: how long the client took to diff each pair of networks.
    delta_ms: Vec<f64>,
}

fn solve_request(solver: &str, inst: &ProblemInstance) -> SolveRequest {
    SolveRequest {
        solver: solver.to_string(),
        cost: workload::cost(),
        threads: 1,
        timeout_ms: None,
        instance: inst.clone(),
    }
}

/// Requests replayed per workload sample.
const HIT_SAMPLE: usize = 48;
const MISS_SAMPLE_TOPOLOGIES: usize = 4;
const REMAP_SAMPLE_EPOCHS: usize = 6;
/// Offset between the request ids of consecutive passes.
const PASS_STRIDE: u64 = 1 << 32;

/// Everything the traced run reports.
pub struct TraceReport {
    /// Median duration per stage over the sampled requests (0 for a
    /// request that skips the stage), in [`STAGES`] order.
    pub stage_ms: Vec<(&'static str, f64)>,
    /// Median per-request total with spans on / off.
    pub traced_total_ms: f64,
    pub untraced_total_ms: f64,
    /// Median of each named span over the requests that ran it.
    pub span_ms: BTreeMap<&'static str, f64>,
    pub request_bytes: f64,
    pub response_bytes: f64,
    pub delta_between_ms: f64,
    pub rebuilt_share: f64,
    pub closure_warm_ms: f64,
    pub closure_trees: f64,
    pub sssp_ms: f64,
    pub kernel_build_ms: f64,
    /// Per solver in [`workload::SOLVERS`] order, on a warm context.
    pub solver_ms: Vec<f64>,
    pub requests: usize,
}

/// Replays the workload's sample and times the layer micro-measurements.
/// Spans of the traced passes are written to `spans_out` as JSON lines.
pub fn run(
    w: Workload,
    seed: u64,
    instances: &[ProblemInstance],
    spans_out: &Path,
) -> Result<TraceReport, String> {
    let sample = build_sample(w, seed, instances);
    let cost = workload::cost();

    // A warm-up pass, then traced and untraced passes alternate.
    let passes = 5;
    let mut traced = Spans::new(true);
    let mut traced_ids = Vec::new();
    let mut traced_totals = Vec::new();
    let mut untraced_totals = Vec::new();
    let mut replayed = Vec::new();
    for pass in 0..passes {
        let on = pass % 2 == 1;
        let counted = pass > 0;
        let mut replayer = Replayer::new();
        for ctx in &sample.preload {
            replayer.bank.deposit(ctx);
        }
        let mut off = Spans::new(false);
        let spans = if on { &mut traced } else { &mut off };
        for (id, req) in &sample.requests {
            // span ids are unique across passes
            let id = pass as u64 * PASS_STRIDE + id;
            let req = match req {
                Replay::Solve(s) => Replay::Solve(s.clone()),
                Replay::Remap(r) => Replay::Remap(r.clone()),
            };
            let t0 = Instant::now();
            let outcome = replayer.run(spans, id, req);
            let total = ms(t0.elapsed());
            if on {
                traced_ids.push(id);
                traced_totals.push(total);
                replayed.push(outcome);
            } else if counted {
                untraced_totals.push(total);
            }
        }
    }
    write_spans(&traced.spans, spans_out)?;

    let n_req = sample.requests.len();
    let stage_ms = STAGES
        .iter()
        .map(|&name| {
            let per = traced.per_request(name);
            let v: Vec<f64> = traced_ids
                .iter()
                .map(|id| per.get(id).copied().unwrap_or(0.0))
                .collect();
            (name, median(&v))
        })
        .collect();
    let mut span_ms = BTreeMap::new();
    for name in STAGES {
        let per: Vec<f64> = traced.per_request(name).into_values().collect();
        span_ms.insert(name, median(&per));
    }

    let sizes = |f: fn(&Replayed) -> usize| {
        median(&replayed.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let rebuilt: Vec<f64> = replayed
        .iter()
        .filter_map(|r| r.repair)
        .map(|r| r.rebuilt as f64 / r.total.max(1) as f64)
        .collect();

    let micro = micro(w, &instances[0], cost);
    Ok(TraceReport {
        stage_ms,
        traced_total_ms: median(&traced_totals),
        untraced_total_ms: median(&untraced_totals),
        span_ms,
        request_bytes: sizes(|r| r.request_bytes),
        response_bytes: sizes(|r| r.response_bytes),
        delta_between_ms: median(&sample.delta_ms),
        rebuilt_share: median(&rebuilt),
        closure_warm_ms: micro.closure_warm_ms,
        closure_trees: micro.closure_trees,
        sssp_ms: micro.sssp_ms,
        kernel_build_ms: micro.kernel_build_ms,
        solver_ms: micro.solver_ms,
        requests: n_req,
    })
}

fn build_sample(w: Workload, seed: u64, instances: &[ProblemInstance]) -> Sample<'_> {
    let cost = workload::cost();
    let solve_requests = |phase: u64, len: usize| -> Vec<(u64, Replay)> {
        workload::stream(w, seed, phase, 0, len)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    i as u64,
                    Replay::Solve(solve_request(r.solver, &instances[r.topo])),
                )
            })
            .collect()
    };
    match w {
        Workload::Hit200 => Sample {
            // the set-up deposits, led by elpc_delay_routed
            preload: instances
                .iter()
                .map(|inst| solved(inst, workload::ELPC).0)
                .collect(),
            requests: solve_requests(2, HIT_SAMPLE),
            delta_ms: Vec::new(),
        },
        Workload::Miss300 => Sample {
            preload: Vec::new(),
            // the first bursts of the open-loop stream, in arrival order
            requests: solve_requests(0, 3 * MISS_SAMPLE_TOPOLOGIES),
            delta_ms: Vec::new(),
        },
        Workload::Remap1k => {
            // controller 0's first epochs, chained exactly as it sends
            // them; `previous` stays the set-up assignment (it only
            // decides the reply's `changed` flag)
            let base = &instances[0];
            let (ctx, previous) = solved(base, workload::ELPC);
            let mut changes = ChangeStream::new(seed, 0, base);
            let mut current = base.clone();
            let mut requests = Vec::new();
            let mut delta_ms = Vec::new();
            for epoch in 0..REMAP_SAMPLE_EPOCHS {
                let (_, net) = changes.next(&current.network);
                let next = workload::with_network(&current, net);
                let t0 = Instant::now();
                let delta =
                    NetworkDelta::between(&current.network, &next.network).expect("same shape");
                delta_ms.push(ms(t0.elapsed()));
                let previous_key = bank_key(&current.as_instance(), &cost);
                requests.push((
                    epoch as u64,
                    Replay::Remap(RemapRequest {
                        solve: solve_request(workload::ELPC, &next),
                        previous: previous.clone(),
                        previous_key: Some(previous_key),
                        delta: Some(delta),
                    }),
                ));
                current = next;
            }
            Sample {
                preload: vec![ctx],
                requests,
                delta_ms,
            }
        }
    }
}

/// A cold single-threaded context for `inst`, after one `name` solve.
fn solved<'a>(inst: &'a ProblemInstance, name: &str) -> (SolveContext<'a>, Vec<NodeId>) {
    let ctx = SolveContext::with_threads(inst.as_instance(), workload::cost(), 1);
    let solution = solver(name)
        .expect("registered")
        .solve(&ctx)
        .expect("feasible");
    (ctx, solution.assignment)
}

struct Micro {
    closure_warm_ms: f64,
    closure_trees: f64,
    sssp_ms: f64,
    kernel_build_ms: f64,
    solver_ms: Vec<f64>,
}

/// Layer micro-measurements on one instance of the workload's size.
fn micro(w: Workload, inst: &ProblemInstance, cost: CostModel) -> Micro {
    let reps = if w == Workload::Remap1k { 1 } else { 3 };
    let pipe = &inst.pipeline;
    let nodes: Vec<NodeId> = inst.network.node_ids().collect();
    let dp_payloads: Vec<f64> = (2..pipe.len()).map(|j| pipe.input_bytes(j)).collect();

    // A cold build of the trees SolveContext::warm_routed_dp builds, on
    // one thread as a `threads: 1` request builds them.
    let mut warm_ms = Vec::new();
    let mut trees = 0;
    for _ in 0..reps {
        let ctx = SolveContext::with_threads(inst.as_instance(), cost, 1);
        let t0 = Instant::now();
        trees = ctx
            .closure()
            .par_warm(&[inst.src], &[pipe.input_bytes(1)], 1)
            + ctx.closure().par_warm(&nodes, &dp_payloads, 1);
        warm_ms.push(ms(t0.elapsed()));
    }

    // One CSR Dijkstra per source, for the largest-payload boundary.
    let ctx = SolveContext::with_threads(inst.as_instance(), cost, 1);
    let csr = ctx.closure().csr();
    let bytes = pipe.input_bytes(1);
    let costs = csr.cost_vector(|e| cost.edge_transfer_ms(&inst.network, e, bytes));
    let mut scratch = SsspScratch::new();
    let sssp: Vec<f64> = nodes
        .iter()
        .take(64)
        .map(|&s| {
            let t0 = Instant::now();
            std::hint::black_box(scratch.shortest_paths(csr, s, &costs));
            ms(t0.elapsed())
        })
        .collect();

    // A kernel snapshot of a fully warm closure, then each solver on it.
    let all_payloads: Vec<f64> = (0..pipe.len() - 1)
        .map(|j| pipe.module(j).output_bytes)
        .collect();
    ctx.closure().par_warm(&nodes, &all_payloads, 1);
    let kernel: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(EvalKernel::build(&ctx));
            ms(t0.elapsed())
        })
        .collect();
    ctx.eval_kernel();
    let solver_ms = workload::SOLVERS
        .iter()
        .map(|name| {
            let entry = solver(name).expect("registered");
            let runs: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(entry.solve(&ctx).expect("feasible"));
                    ms(t0.elapsed())
                })
                .collect();
            median(&runs)
        })
        .collect();
    Micro {
        closure_warm_ms: median(&warm_ms),
        closure_trees: trees as f64,
        sssp_ms: median(&sssp),
        kernel_build_ms: median(&kernel),
        solver_ms,
    }
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
            s.req, s.name, s.start_us, s.end_us
        ));
    }
    let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(out.as_bytes())
        .and_then(|_| f.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}
