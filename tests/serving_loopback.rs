//! Deterministic loopback serving test: an in-process `elpc-serve` daemon
//! must answer exactly what the solver registry answers when called
//! directly — same assignment, bit-identical objective, same typed error
//! messages — no matter how many clients hammer it concurrently or how
//! many threads the solve context uses.
//!
//! Every (instance × solver) pair is solved twice per configuration:
//! once directly through [`elpc_mapping::registry`], once over the wire
//! by each of N concurrent clients. Any divergence — a different
//! assignment, a flipped error, a single objective bit — fails the test.

use elpc_mapping::{registry, CostModel, SolveContext};
use elpc_serving::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestFrame, Response,
};
use elpc_serving::{
    Client, ClientError, RemapRequest, ServeError, Server, ServerConfig, SolveRequest,
};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("elpc-loopback-{}-{tag}.sock", std::process::id()))
}

fn test_instances() -> Vec<ProblemInstance> {
    // Three comfortable instances plus one with more modules than nodes,
    // so the no-reuse (distinct-host) solvers exercise the typed error
    // path — a served Infeasible must match the direct one verbatim.
    vec![
        InstanceSpec::sized(4, 12, 26).generate(101).expect("gen"),
        InstanceSpec::sized(5, 14, 30).generate(202).expect("gen"),
        InstanceSpec::sized(3, 9, 16).generate(303).expect("gen"),
        InstanceSpec::sized(6, 5, 8).generate(404).expect("gen"),
    ]
}

/// What a solve produced, in directly comparable form: the assignment and
/// exact objective bits on success, or the typed error message.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok(Vec<u32>, u64),
    Err(String),
}

fn direct_outcome(inst: &ProblemInstance, solver_name: &str, threads: usize) -> Outcome {
    let ctx = SolveContext::with_threads(inst.as_instance(), CostModel::default(), threads);
    let entry = elpc_mapping::solver(solver_name).expect("registry solver");
    match entry.solve(&ctx) {
        Ok(sol) => Outcome::Ok(
            sol.assignment.iter().map(|n| n.0).collect(),
            sol.objective_ms.to_bits(),
        ),
        Err(e) => Outcome::Err(e.to_string()),
    }
}

fn served_outcome(
    client: &mut Client,
    inst: &ProblemInstance,
    solver_name: &str,
    threads: usize,
) -> Outcome {
    let req = SolveRequest {
        solver: solver_name.to_string(),
        cost: CostModel::default(),
        threads,
        timeout_ms: None,
        instance: inst.clone(),
    };
    match client.solve(req) {
        Ok(reply) => Outcome::Ok(
            reply.assignment.iter().map(|n| n.0).collect(),
            reply.objective_ms.to_bits(),
        ),
        Err(ClientError::Server(ServeError::Solve(failure))) => Outcome::Err(failure.message),
        Err(other) => panic!("unexpected client error for {solver_name}: {other}"),
    }
}

/// N concurrent clients, every registry solver, every instance: served
/// answers must be bit-identical to direct registry calls.
fn run_loopback(tag: &str, threads: usize, workers: usize, clients: usize) {
    let socket = socket_path(tag);
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let instances = test_instances();
    let names: Vec<&'static str> = registry().iter().map(|s| s.name()).collect();
    let expected: Vec<Vec<Outcome>> = instances
        .iter()
        .map(|inst| {
            names
                .iter()
                .map(|name| direct_outcome(inst, name, threads))
                .collect()
        })
        .collect();

    std::thread::scope(|s| {
        for c in 0..clients {
            let socket = &socket;
            let instances = &instances;
            let names = &names;
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(socket).expect("connect");
                // Stagger the iteration order per client so different
                // clients race different keys at any given moment.
                for step in 0..(instances.len() * names.len()) {
                    let idx = (step + c) % (instances.len() * names.len());
                    let (i, j) = (idx / names.len(), idx % names.len());
                    let got = served_outcome(&mut client, &instances[i], names[j], threads);
                    assert_eq!(
                        got, expected[i][j],
                        "client {c}: served {} on instance {i} diverged from direct call",
                        names[j]
                    );
                }
            });
        }
    });

    let stats = server.shutdown();
    let total = (clients * instances.len() * names.len()) as u64;
    assert_eq!(stats.requests, total, "every request must be accounted");
    assert_eq!(
        stats.completed + stats.errors,
        total,
        "every request must be answered"
    );
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.queue_depth, 0, "drain must leave an empty queue");
    assert!(!socket.exists(), "drain must remove the socket file");
}

#[test]
fn loopback_matches_direct_serial() {
    // threads=1 (lazy serial closure) on a single worker: the fully
    // deterministic baseline configuration.
    run_loopback("serial", 1, 1, 3);
}

#[test]
fn loopback_matches_direct_full_cpu() {
    // threads=0 (all CPUs) across a wide worker pool: solver determinism
    // at any thread count is what keeps this bit-identical.
    run_loopback("fullcpu", 0, 6, 4);
}

#[test]
fn unknown_solver_is_a_typed_error_not_a_hang() {
    let socket = socket_path("unknown");
    let server = Server::bind(&socket, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let inst = InstanceSpec::sized(3, 8, 14).generate(7).expect("gen");
    let err = client
        .solve(SolveRequest {
            solver: "definitely_not_registered".into(),
            cost: CostModel::default(),
            threads: 1,
            timeout_ms: None,
            instance: inst,
        })
        .expect_err("must fail");
    match err {
        ClientError::Server(ServeError::UnknownSolver { name }) => {
            assert_eq!(name, "definitely_not_registered");
        }
        other => panic!("expected UnknownSolver, got {other}"),
    }
    server.shutdown();
}

#[test]
fn remap_reports_movement_against_previous_assignment() {
    let socket = socket_path("remap");
    let server = Server::bind(&socket, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let inst = InstanceSpec::sized(4, 12, 26).generate(101).expect("gen");

    let fresh = match direct_outcome(&inst, "elpc_delay_routed", 1) {
        Outcome::Ok(assignment, _) => assignment,
        Outcome::Err(e) => panic!("fixture must solve: {e}"),
    };
    let solve = SolveRequest {
        solver: "elpc_delay_routed".into(),
        cost: CostModel::default(),
        threads: 1,
        timeout_ms: None,
        instance: inst,
    };

    // Previous == what the solver answers now: nothing moved.
    let same = client
        .remap(RemapRequest {
            solve: solve.clone(),
            previous: fresh.iter().map(|&n| elpc_mapping::NodeId(n)).collect(),
            previous_key: None,
            delta: None,
        })
        .expect("remap");
    assert!(!same.changed, "identical previous assignment cannot move");
    assert!(!same.repaired, "no repair fields, no repair");
    assert_eq!(
        same.reply
            .assignment
            .iter()
            .map(|n| n.0)
            .collect::<Vec<_>>(),
        fresh
    );

    // A previous assignment that cannot match (wrong length): moved.
    let moved = client
        .remap(RemapRequest {
            solve,
            previous: Vec::new(),
            previous_key: None,
            delta: None,
        })
        .expect("remap");
    assert!(moved.changed, "empty previous assignment always differs");

    server.shutdown();
}

/// Frames nesting 200 000 arrays deep are a few hundred KB, far under the
/// frame-size limit. The daemon answers each with a typed `Malformed`
/// error (id 0: the real id is unrecoverable) instead of overflowing a
/// stack, and the same connection goes on answering `Ping`. The second
/// frame hides the nesting under an unknown key, so only the decoder's
/// depth limit stops it.
#[test]
fn deeply_nested_frames_are_malformed_and_the_connection_survives() {
    let socket = socket_path("deep");
    let server = Server::bind(&socket, ServerConfig::default()).expect("bind");
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut exchange = |payload: &[u8]| {
        write_frame(&mut stream, payload).expect("send");
        let reply = read_frame(&mut stream).expect("read").expect("a reply");
        decode_response(&reply).expect("reply decodes")
    };
    let deep = "[".repeat(200_000);
    for (i, prefix) in ["{\"id\":1,\"body\":", "{\"id\":1,\"pad\":"]
        .into_iter()
        .enumerate()
    {
        let reply = exchange(format!("{prefix}{deep}").as_bytes());
        assert_eq!(reply.id, 0);
        match reply.body {
            Response::Error(ServeError::Malformed { detail }) => {
                if i == 1 {
                    assert!(detail.contains("nesting deeper than"), "{detail}");
                }
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let id = 10 + i as u64;
        let ping = encode_request(&RequestFrame {
            id,
            body: Request::Ping,
        });
        let pong = exchange(ping.as_bytes());
        assert_eq!((pong.id, pong.body), (id, Response::Pong));
    }
    server.shutdown();
}
