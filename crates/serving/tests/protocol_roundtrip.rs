//! Property tests for the `elpc-serve` wire protocol.
//!
//! Two families:
//!
//! * **round trips** — arbitrary solve/remap requests and every response
//!   variant (including each typed error) encode→decode bit-identically:
//!   decoding and re-encoding reproduces the exact JSON payload, and where
//!   the types carry `PartialEq` the decoded value equals the original;
//! * **hostile input** — arbitrary byte soup, truncated frames, and
//!   corrupt length prefixes must come back as typed [`FrameError`]s,
//!   never a panic.

use elpc_mapping::{
    CostModel, LinkFailure, LinkPerturbation, NetworkDelta, NodeFailure, NodeId, NodePerturbation,
};
use elpc_netgraph::EdgeId;
use elpc_netsim::Link;
use elpc_serving::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameError, LatencySummary, RemapReply, RemapRequest, Request, RequestFrame, Response,
    ResponseFrame, ServeError, SolveErrorKind, SolveFailure, SolveReply, SolveRequest, StatsReply,
    MAX_FRAME_LEN,
};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Finite (but otherwise wild) f64s: raw bit patterns when they happen to
/// be finite, a scaled fallback otherwise. Covers negatives, subnormals,
/// and huge magnitudes — everything the JSON codec must round-trip exactly.
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            (bits >> 11) as f64 * 1.25e-3
        }
    })
}

/// Strings with JSON-hostile content: quotes, backslashes, control
/// characters, non-ASCII.
fn arb_string() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'a', 'Z', '0', '_', ' ', '"', '\\', '\n', '\t', '/', '{', '}', 'é', '→', '𝕊', '\u{0}',
    ];
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    any::<u32>().prop_map(|n| NodeId(n % 1024))
}

fn arb_cost() -> impl Strategy<Value = CostModel> {
    any::<bool>().prop_map(|include_mld| CostModel { include_mld })
}

fn arb_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..=4, 6usize..=10, any::<u64>()).prop_map(|(m, n, seed)| {
        let links = n + (seed % n as u64) as usize;
        InstanceSpec::sized(m, n, links)
            .generate(seed)
            .expect("sized specs generate")
    })
}

fn arb_solve_request() -> impl Strategy<Value = SolveRequest> {
    (
        arb_string(),
        arb_cost(),
        0usize..=8,
        (any::<bool>(), any::<u64>()),
        arb_instance(),
    )
        .prop_map(
            |(solver, cost, threads, (has_timeout, ms), instance)| SolveRequest {
                solver,
                cost,
                threads,
                timeout_ms: has_timeout.then_some(ms % 1_000_000),
                instance,
            },
        )
}

/// Perturbation deltas with wild-but-finite link/power values — the remap
/// repair fields must round-trip exactly like every other payload.
fn arb_delta() -> impl Strategy<Value = NetworkDelta> {
    (
        prop::collection::vec(
            (
                any::<u32>(),
                arb_node(),
                arb_node(),
                arb_finite_f64(),
                arb_finite_f64(),
            ),
            0..3,
        ),
        prop::collection::vec((arb_node(), arb_finite_f64(), arb_finite_f64()), 0..3),
    )
        .prop_map(|(links, nodes)| NetworkDelta {
            links: links
                .into_iter()
                .map(|(e, src, dst, old_bw, new_bw)| LinkPerturbation {
                    edge: EdgeId(e % 64),
                    src,
                    dst,
                    old: Link::new(old_bw.abs().max(1.0), 0.1),
                    new: Link::new(new_bw.abs().max(1.0), 0.2),
                })
                .collect(),
            nodes: nodes
                .into_iter()
                .map(|(node, old_power, new_power)| NodePerturbation {
                    node,
                    old_power,
                    new_power,
                })
                .collect(),
            // Failure payloads ride the same wire; exercised separately in
            // arb_failure_delta to keep this generator's tuple small.
            link_failures: Vec::new(),
            node_failures: Vec::new(),
        })
}

/// Deltas carrying failure payloads: the failover repair fields must
/// round-trip exactly like perturbations do.
fn arb_failure_delta() -> impl Strategy<Value = NetworkDelta> {
    (
        prop::collection::vec(
            (any::<u32>(), arb_node(), arb_node(), arb_finite_f64()),
            0..3,
        ),
        prop::collection::vec((arb_node(), arb_finite_f64()), 0..3),
    )
        .prop_map(|(links, nodes)| NetworkDelta {
            links: Vec::new(),
            nodes: Vec::new(),
            link_failures: links
                .into_iter()
                .map(|(e, src, dst, old_bw)| LinkFailure {
                    edge: EdgeId(e % 64),
                    src,
                    dst,
                    old: Link::new(old_bw.abs().max(1.0), 0.1),
                })
                .collect(),
            node_failures: nodes
                .into_iter()
                .map(|(node, old_power)| NodeFailure {
                    node,
                    old_power: old_power.abs().max(1.0),
                })
                .collect(),
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        arb_solve_request(),
        prop::collection::vec(arb_node(), 0..6),
        (any::<bool>(), any::<u64>()),
        ((any::<bool>(), arb_delta()), arb_failure_delta()),
    )
        .prop_map(
            |(sel, solve, previous, (has_key, key), ((has_delta, delta), failures))| match sel {
                0 => Request::Ping,
                1 => Request::Solve(solve),
                2 => Request::Remap(RemapRequest {
                    solve,
                    previous,
                    previous_key: has_key.then_some(key),
                    delta: has_delta.then_some(delta),
                }),
                3 => Request::Remap(RemapRequest {
                    solve,
                    previous,
                    previous_key: has_key.then_some(key),
                    delta: Some(failures),
                }),
                4 => Request::Stats,
                _ => Request::Shutdown,
            },
        )
}

fn arb_solve_reply() -> impl Strategy<Value = SolveReply> {
    (
        arb_string(),
        prop::collection::vec(arb_node(), 0..8),
        (arb_finite_f64(), arb_finite_f64(), arb_finite_f64()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(solver, assignment, (objective_ms, queue_ms, solve_ms), (banked, coalesced))| {
                SolveReply {
                    solver,
                    assignment,
                    objective_ms,
                    banked,
                    coalesced,
                    queue_ms,
                    solve_ms,
                }
            },
        )
}

fn arb_stats_reply() -> impl Strategy<Value = StatsReply> {
    (
        prop::collection::vec(any::<u64>(), 14..15),
        (arb_finite_f64(), arb_finite_f64(), arb_finite_f64()),
        any::<u64>(),
    )
        .prop_map(|(counts, (p50_ms, p99_ms, max_ms), lat_count)| StatsReply {
            requests: counts[0],
            accepted: counts[1],
            shed: counts[2],
            completed: counts[3],
            errors: counts[4],
            timeouts: counts[5],
            coalesced: counts[6],
            queue_depth: counts[7],
            max_queue_depth: counts[8],
            workers: counts[9],
            bank_hits: counts[10],
            bank_misses: counts[11],
            bank_deposits: counts[12],
            bank_repairs: counts[13],
            latency: LatencySummary {
                count: lat_count,
                p50_ms,
                p99_ms,
                max_ms,
            },
        })
}

/// Every [`ServeError`] variant, every [`SolveErrorKind`] kind.
fn arb_serve_error() -> impl Strategy<Value = ServeError> {
    (0u8..7, arb_string(), any::<u64>(), 0u8..6).prop_map(|(sel, text, num, kind_sel)| {
        let kind = match kind_sel {
            0 => SolveErrorKind::Infeasible,
            1 => SolveErrorKind::InvalidMapping,
            2 => SolveErrorKind::Network,
            3 => SolveErrorKind::Pipeline,
            4 => SolveErrorKind::BadConfig,
            _ => SolveErrorKind::BudgetExhausted { budget: num },
        };
        match sel {
            0 => ServeError::UnknownSolver { name: text },
            1 => ServeError::Solve(SolveFailure {
                kind,
                message: text,
            }),
            2 => ServeError::Timeout { waited_ms: num },
            3 => ServeError::Malformed { detail: text },
            4 => ServeError::ShuttingDown,
            5 => ServeError::Overloaded {
                retry_after_ms: num,
            },
            _ => ServeError::Internal { detail: text },
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..6,
        arb_solve_reply(),
        arb_stats_reply(),
        arb_serve_error(),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(sel, reply, stats, error, (changed, repaired))| match sel {
                0 => Response::Pong,
                1 => Response::Solved(reply),
                2 => Response::Remapped(RemapReply {
                    reply,
                    changed,
                    repaired,
                }),
                3 => Response::Stats(stats),
                4 => Response::ShuttingDown,
                _ => Response::Error(error),
            },
        )
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Requests (which carry a whole `ProblemInstance` and thus have no
    /// `PartialEq`) round-trip bit-identically at the JSON level: decoding
    /// and re-encoding reproduces the exact payload string.
    #[test]
    fn requests_reencode_bit_identically(id in any::<u64>(), body in arb_request()) {
        let frame = RequestFrame { id, body };
        let json = encode_request(&frame);
        let decoded = decode_request(json.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(encode_request(&decoded), json);
    }

    /// Responses round-trip to equal values AND identical bytes.
    #[test]
    fn responses_roundtrip_exactly(id in any::<u64>(), body in arb_response()) {
        let frame = ResponseFrame { id, body };
        let json = encode_response(&frame);
        let decoded = decode_response(json.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(decoded.id, frame.id);
        prop_assert_eq!(&decoded.body, &frame.body);
        prop_assert_eq!(encode_response(&decoded), json);
    }

    /// A full frame survives the wire layer too: write_frame → read_frame
    /// hands back the exact payload bytes.
    #[test]
    fn framing_preserves_payload_bytes(id in any::<u64>(), body in arb_request()) {
        let json = encode_request(&RequestFrame { id, body });
        let mut wire = Vec::new();
        write_frame(&mut wire, json.as_bytes()).expect("vec write");
        let mut r = &wire[..];
        let payload = read_frame(&mut r).expect("framed").expect("one frame");
        prop_assert_eq!(payload, json.into_bytes());
        prop_assert!(read_frame(&mut r).expect("clean tail").is_none());
    }
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup through the frame reader: typed error or a
    /// (possibly nonsensical) frame, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Ok(_) => {}
            Err(FrameError::Truncated { expected, got }) => prop_assert!(got < expected),
            Err(FrameError::TooLarge { len, max }) => {
                prop_assert!(len > max);
                prop_assert_eq!(max, MAX_FRAME_LEN);
            }
            Err(e) => panic!("unexpected frame error from a byte slice: {e}"),
        }
    }

    /// Arbitrary byte soup through the JSON decoders: typed error, never a
    /// panic. (A random payload passing JSON + shape validation is
    /// astronomically unlikely; any error variant is acceptable.)
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Truncating a valid frame at any interior point yields `Truncated`
    /// with honest byte counts; truncating to zero bytes is a clean EOF.
    #[test]
    fn truncated_frames_are_rejected_with_typed_errors(
        id in any::<u64>(),
        body in arb_request(),
        cut_sel in any::<u64>(),
    ) {
        let json = encode_request(&RequestFrame { id, body });
        let mut wire = Vec::new();
        write_frame(&mut wire, json.as_bytes()).expect("vec write");
        let cut = (cut_sel % wire.len() as u64) as usize; // 0..wire.len()-1: always truncating
        let mut r = &wire[..cut];
        if cut == 0 {
            prop_assert!(read_frame(&mut r).expect("clean EOF").is_none());
        } else {
            match read_frame(&mut r) {
                Err(FrameError::Truncated { expected, got }) => {
                    prop_assert!(got < expected);
                    prop_assert_eq!(got, cut);
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
    }

    /// Corrupting the length prefix of a valid frame never panics: the
    /// reader answers TooLarge, Truncated, or (for a shorter-but-valid
    /// prefix) a reinterpreted frame — and in that last case the decoder
    /// still only returns typed errors.
    #[test]
    fn corrupt_length_prefixes_stay_typed(
        id in any::<u64>(),
        body in arb_request(),
        prefix in any::<u32>(),
    ) {
        let json = encode_request(&RequestFrame { id, body });
        let mut wire = Vec::new();
        write_frame(&mut wire, json.as_bytes()).expect("vec write");
        wire[..4].copy_from_slice(&prefix.to_be_bytes());
        let mut r = &wire[..];
        match read_frame(&mut r) {
            Ok(Some(payload)) => {
                let _ = decode_request(&payload); // typed result either way
            }
            Ok(None) => panic!("non-empty wire cannot be a clean EOF"),
            Err(FrameError::TooLarge { len, .. }) => {
                prop_assert!(len > MAX_FRAME_LEN);
            }
            Err(FrameError::Truncated { expected, got }) => {
                // counts include the 4 header bytes already consumed
                prop_assert_eq!(expected, prefix as usize + 4);
                prop_assert_eq!(got, json.len() + 4);
            }
            Err(e) => panic!("unexpected error for corrupt prefix: {e}"),
        }
    }
}

/// Non-property pin: the `u32::MAX` prefix (the classic fuzzer find) is
/// rejected before any allocation happens.
#[test]
fn max_prefix_is_rejected_cheaply() {
    let mut wire = u32::MAX.to_be_bytes().to_vec();
    wire.push(0);
    let mut r = &wire[..];
    assert!(matches!(
        read_frame(&mut r),
        Err(FrameError::TooLarge { .. })
    ));
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a: a stable digest of an exact byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn seeded_solve(modules: usize, nodes: usize, links: usize, seed: u64) -> SolveRequest {
    SolveRequest {
        solver: "elpc_delay_routed".into(),
        cost: CostModel::default(),
        threads: 1,
        timeout_ms: Some(2_500),
        instance: InstanceSpec::sized(modules, nodes, links)
            .generate(seed)
            .expect("sized specs generate"),
    }
}

fn golden_solve_reply() -> SolveReply {
    SolveReply {
        solver: "lns_delay".into(),
        assignment: vec![NodeId(0), NodeId(17), NodeId(199)],
        objective_ms: 123.456_789_012_345_6,
        banked: true,
        coalesced: false,
        queue_ms: 0.0,
        solve_ms: 2.8479602678411194e164,
    }
}

/// Every frame kind the protocol carries, encoded by the codec under test,
/// keyed by a name for the failure message.
fn golden_frames() -> Vec<(&'static str, String)> {
    let mut frames = vec![
        (
            "solve_200",
            encode_request(&RequestFrame {
                id: 1,
                body: Request::Solve(seeded_solve(5, 200, 460, 1)),
            }),
        ),
        (
            "solve_1000",
            encode_request(&RequestFrame {
                id: u64::MAX,
                body: Request::Solve(seeded_solve(6, 1000, 2300, 2)),
            }),
        ),
        (
            "remap_failure",
            encode_request(&RequestFrame {
                id: 3,
                body: Request::Remap(RemapRequest {
                    solve: seeded_solve(4, 12, 20, 3),
                    previous: vec![NodeId(0), NodeId(5), NodeId(11)],
                    previous_key: Some(0xdead_beef_cafe_f00d),
                    delta: Some(NetworkDelta {
                        links: vec![LinkPerturbation {
                            edge: EdgeId(4),
                            src: NodeId(2),
                            dst: NodeId(3),
                            old: Link::new(100.0, 0.1),
                            new: Link::new(62.5, 1e-7),
                        }],
                        nodes: vec![NodePerturbation {
                            node: NodeId(6),
                            old_power: 1e15,
                            new_power: 0.3,
                        }],
                        link_failures: vec![LinkFailure {
                            edge: EdgeId(9),
                            src: NodeId(7),
                            dst: NodeId(1),
                            old: Link::new(1e300, 2.0),
                        }],
                        node_failures: vec![NodeFailure {
                            node: NodeId(8),
                            old_power: -0.0,
                        }],
                    }),
                }),
            }),
        ),
        (
            "remap_plain",
            encode_request(&RequestFrame {
                id: 4,
                body: Request::Remap(RemapRequest {
                    solve: seeded_solve(3, 8, 10, 4),
                    previous: Vec::new(),
                    previous_key: None,
                    delta: None,
                }),
            }),
        ),
    ];
    for (name, body) in [
        ("ping", Request::Ping),
        ("stats", Request::Stats),
        ("shutdown", Request::Shutdown),
    ] {
        frames.push((name, encode_request(&RequestFrame { id: 5, body })));
    }
    let errors = [
        ServeError::UnknownSolver {
            name: "nö \"such\"\tsolver\u{1}".into(),
        },
        ServeError::Solve(SolveFailure {
            kind: SolveErrorKind::Infeasible,
            message: "dst unreachable".into(),
        }),
        ServeError::Solve(SolveFailure {
            kind: SolveErrorKind::BudgetExhausted { budget: u64::MAX },
            message: "budget → 🦀".into(),
        }),
        ServeError::Timeout { waited_ms: 250 },
        ServeError::Overloaded { retry_after_ms: 0 },
        ServeError::Malformed {
            detail: "back\\slash\r\n".into(),
        },
        ServeError::ShuttingDown,
        ServeError::Internal {
            detail: String::new(),
        },
    ];
    let mut responses = vec![
        ("pong", Response::Pong),
        ("solved", Response::Solved(golden_solve_reply())),
        (
            "remapped",
            Response::Remapped(RemapReply {
                reply: SolveReply {
                    objective_ms: f64::NAN,
                    queue_ms: f64::INFINITY,
                    solve_ms: -1e-300,
                    ..golden_solve_reply()
                },
                changed: true,
                repaired: false,
            }),
        ),
        (
            "stats",
            Response::Stats(StatsReply {
                requests: 1,
                accepted: 2,
                shed: 3,
                completed: 4,
                errors: 5,
                timeouts: 6,
                coalesced: 7,
                queue_depth: 8,
                max_queue_depth: 9,
                workers: 10,
                bank_hits: 11,
                bank_misses: 12,
                bank_deposits: 13,
                bank_repairs: u64::MAX,
                latency: LatencySummary {
                    count: 42,
                    p50_ms: 5.29,
                    p99_ms: 1.8e19,
                    max_ms: f64::NEG_INFINITY,
                },
            }),
        ),
        ("shutting_down", Response::ShuttingDown),
    ];
    responses.extend(errors.into_iter().map(|e| ("error", Response::Error(e))));
    for (name, body) in responses {
        frames.push((name, encode_response(&ResponseFrame { id: 6, body })));
    }
    frames
}

/// The exact bytes of every frame kind are pinned: a codec rewrite must
/// reproduce them, so a client and a server on either side of the change
/// still understand each other. The digests were captured from the
/// `Value`-tree codec that preceded the streaming one.
#[test]
fn wire_frames_match_their_golden_digests() {
    let frames = golden_frames();
    let got: Vec<(&str, usize, u64)> = frames
        .iter()
        .map(|(name, json)| (*name, json.len(), fnv1a(json.as_bytes())))
        .collect();
    let want: &[(&str, usize, u64)] = &[
        ("solve_200", 95941, 14141566420743294914),
        ("solve_1000", 485234, 16795124179995024655),
        ("remap_failure", 5388, 6294599643043901902),
        ("remap_plain", 2711, 16058724705547882951),
        ("ping", 22, 6234271239347523505),
        ("stats", 23, 3996861195192338866),
        ("shutdown", 26, 2925389487665102903),
        ("pong", 22, 2992853793306637784),
        ("solved", 330, 1553220857375035807),
        ("remapped", 500, 1590746413395869678),
        ("stats", 331, 16543730666243983185),
        ("shutting_down", 30, 6753862452153943376),
        ("error", 81, 17094239676795163563),
        ("error", 85, 17241550899493051273),
        ("error", 124, 8012225153945498024),
        ("error", 55, 10262771146803348281),
        ("error", 61, 1361762421145149953),
        ("error", 68, 13027823928791378170),
        ("error", 40, 1527902728999876696),
        ("error", 52, 8907171488014586804),
    ];
    assert_eq!(got, want);
}

/// The pretty printer behind every committed artifact is pinned the same
/// way, on a results row that exercises each `Outcome` shape, nested
/// arrays, an empty array, `None`, a tuple and a non-finite float.
#[test]
fn pretty_results_row_matches_its_golden_digest() {
    use elpc_workloads::compare::{CaseResult, MemberAttribution, Outcome};
    let solved = |ms: f64| Outcome::Solved { ms };
    let row = CaseResult {
        label: "case-7 (20×100×400)".into(),
        dims: (20, 100, 400),
        delay_elpc: solved(182.5),
        delay_elpc_strict: solved(190.000_000_000_1),
        delay_streamline: solved(1e15),
        delay_greedy: Outcome::Infeasible,
        rate_elpc: solved(0.1),
        rate_elpc_strict: solved(f64::NAN),
        rate_streamline: Outcome::Error("bad config: \"k\" must be ≥ 1".into()),
        rate_greedy: solved(3.0),
        delay_anneal: solved(183.25),
        delay_genetic: solved(2.8479602678411194e164),
        delay_tabu: solved(-0.0),
        delay_lns: solved(182.5),
        delay_portfolio: solved(182.5),
        rate_anneal: Outcome::Infeasible,
        rate_genetic: solved(4.4),
        rate_tabu: solved(4.5),
        rate_lns: solved(4.25),
        rate_portfolio: solved(4.25),
        delay_portfolio_members: Some(vec![
            MemberAttribution {
                name: "anneal_delay".into(),
                outcome: solved(183.25),
                elapsed_ms: 12.75,
                won: false,
            },
            MemberAttribution {
                name: "lns_delay".into(),
                outcome: Outcome::Error("budget".into()),
                elapsed_ms: 1e-9,
                won: true,
            },
        ]),
        rate_portfolio_members: Some(Vec::new()),
        quality_gap_delay: Some(1.0),
        quality_gap_rate: None,
    };
    let json = serde_json::to_string_pretty(&row).expect("serialize");
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (1801, 10793624316484327761)
    );
}

/// A frame that names one field twice is rejected rather than letting
/// either occurrence win, so no two decoders can read different ids or
/// bodies out of one frame. Unknown keys are still skipped.
#[test]
fn a_frame_with_a_repeated_field_is_rejected() {
    for json in [
        r#"{"id":1,"id":2,"body":"Ping"}"#,
        r#"{"id":1,"body":"Ping","body":"Stats"}"#,
    ] {
        match decode_request(json.as_bytes()) {
            Err(FrameError::Json(e)) => assert!(e.contains("duplicate field"), "{e}"),
            other => panic!("{json} must be rejected, got {other:?}"),
        }
    }
    let frame = decode_request(br#"{"id":1,"trace":{"x":[1,2]},"body":"Ping"}"#)
        .expect("unknown keys are skipped");
    assert_eq!(frame.id, 1);
    assert!(matches!(frame.body, Request::Ping));
}
