//! The load generator: one paced open-loop connection, and closed-loop
//! connections that each wait for their reply.
//!
//! At most two connections and two threads run at once. Open-loop
//! latency is timed from the moment a request was *due*, so a stalled
//! daemon (or a late generator) shows in every later request's latency;
//! how late the writer ran is reported separately as its send lag.

use elpc_mapping::NodeId;
use elpc_serving::protocol::{
    decode_response, encode_request, read_frame_poll, write_frame, RemapReply, Request,
    RequestFrame, Response, SolveReply,
};
use elpc_serving::Client;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A successful reply, reduced to what the gates and metrics read.
#[derive(Debug, Clone)]
pub struct Answer {
    pub assignment: Vec<NodeId>,
    pub objective_bits: u64,
    pub coalesced: bool,
    pub queue_ms: f64,
    pub solve_ms: f64,
    pub repaired: bool,
    pub changed: bool,
}

impl Answer {
    pub fn solved(r: &SolveReply) -> Answer {
        Answer {
            assignment: r.assignment.clone(),
            objective_bits: r.objective_ms.to_bits(),
            coalesced: r.coalesced,
            queue_ms: r.queue_ms,
            solve_ms: r.solve_ms,
            repaired: false,
            changed: false,
        }
    }

    pub fn remapped(r: &RemapReply) -> Answer {
        Answer {
            repaired: r.repaired,
            changed: r.changed,
            ..Answer::solved(&r.reply)
        }
    }
}

/// One attempted request: its index in the phase's request stream, its
/// latency, and the reply or why there was none.
#[derive(Debug, Clone)]
pub struct Record {
    pub index: usize,
    pub latency_ms: f64,
    pub outcome: Result<Answer, String>,
}

/// What one open-loop phase observed.
pub struct OpenLoop {
    /// One record per scheduled request, in schedule order. Requests never
    /// sent or never answered are failures with the phase length as their
    /// latency.
    pub records: Vec<Record>,
    /// Per sent request: how late the writer started it, in ms.
    pub lag_ms: Vec<f64>,
}

/// Read-timeout tick of the reply reader.
const TICK: Duration = Duration::from_millis(20);

/// Sends request `k` (built by `make`) at `start + due[k]` on one
/// connection while a second thread matches replies by id. Waits at most
/// `grace` past the last due time for outstanding replies.
pub fn open_loop(
    socket: &Path,
    due: &[Duration],
    make: &(dyn Fn(usize) -> Request + Sync),
    grace: Duration,
) -> Result<OpenLoop, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TICK))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = stream;

    let n = due.len();
    let phase_ms = due.last().map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let sent = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let received = AtomicUsize::new(0);
    let lag_ms = Mutex::new(Vec::with_capacity(n));
    let mut answers: Vec<Option<Record>> = vec![None; n];
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + due.last().copied().unwrap_or_default() + grace;

    std::thread::scope(|s| {
        s.spawn(|| {
            for (k, offset) in due.iter().enumerate() {
                let at = start + *offset;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let began = Instant::now();
                let json = encode_request(&RequestFrame {
                    id: k as u64,
                    body: make(k),
                });
                lag_ms
                    .lock()
                    .expect("lag lock")
                    .push(began.saturating_duration_since(at).as_secs_f64() * 1e3);
                if write_frame(&mut writer, json.as_bytes()).is_err() {
                    break;
                }
                sent.fetch_add(1, Ordering::SeqCst);
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        let stop = || {
            (writer_done.load(Ordering::SeqCst)
                && received.load(Ordering::SeqCst) >= sent.load(Ordering::SeqCst))
                || Instant::now() > give_up
        };
        while let Ok(Some(payload)) = read_frame_poll(&mut reader, stop) {
            let frame = decode_response(&payload);
            let arrived = Instant::now();
            let Ok(frame) = frame else { continue };
            let id = frame.id as usize;
            if id >= n || answers[id].is_some() {
                continue;
            }
            answers[id] = Some(Record {
                index: id,
                latency_ms: arrived
                    .saturating_duration_since(start + due[id])
                    .as_secs_f64()
                    * 1e3,
                outcome: outcome_of(frame.body),
            });
            received.fetch_add(1, Ordering::SeqCst);
        }
    });
    let sent = sent.load(Ordering::SeqCst);
    let records = answers
        .into_iter()
        .enumerate()
        .map(|(k, r)| {
            r.unwrap_or(Record {
                index: k,
                latency_ms: phase_ms,
                outcome: Err(if k < sent { "reply lost" } else { "never sent" }.into()),
            })
        })
        .collect();
    Ok(OpenLoop {
        records,
        lag_ms: lag_ms.into_inner().expect("lag lock"),
    })
}

fn outcome_of(body: Response) -> Result<Answer, String> {
    match body {
        Response::Solved(r) => Ok(Answer::solved(&r)),
        Response::Remapped(r) => Ok(Answer::remapped(&r)),
        Response::Error(e) => Err(e.to_string()),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// What one connection of a closed-loop phase got done before the
/// deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lane {
    /// Successful replies that arrived before the deadline.
    pub ok: usize,
    /// Seconds from the phase start to the last of them.
    pub busy_s: f64,
}

impl Lane {
    /// Adds another phase's lane of the same connection.
    pub fn add(self, other: Lane) -> Lane {
        Lane {
            ok: self.ok + other.ok,
            busy_s: self.busy_s + other.busy_s,
        }
    }
}

/// Successful replies per second over `lanes`, each connection's rate
/// taken up to its own last reply: unlike a count of the replies inside
/// a fixed window, it does not jump by one whole reply when a slow
/// request straddles the deadline.
pub fn throughput_rps(lanes: &[Lane]) -> f64 {
    lanes
        .iter()
        .filter(|l| l.ok > 0 && l.busy_s > 0.0)
        .map(|l| l.ok as f64 / l.busy_s)
        .sum()
}

/// What one closed-loop phase observed.
pub struct ClosedLoop<S> {
    pub records: Vec<Record>,
    /// Per connection, in the order of the states passed in.
    pub lanes: Vec<Lane>,
    /// Each connection's driver state, handed back for the gates.
    pub states: Vec<S>,
}

/// Runs one blocking [`Client`] per entry of `states`, each on its own
/// thread, calling `step` until `deadline` passes; `step` issues one
/// request and returns its record (or `None` to stop early).
pub fn closed_loop<S: Send>(
    socket: &Path,
    states: Vec<S>,
    deadline: Instant,
    step: &(dyn Fn(&mut S, &mut Client) -> Option<Record> + Sync),
) -> Result<ClosedLoop<S>, String> {
    let mut clients = Vec::with_capacity(states.len());
    for _ in 0..states.len() {
        clients.push(Client::connect(socket).map_err(|e| format!("connect: {e}"))?);
    }
    let start = Instant::now();
    let results: Vec<(Vec<Record>, Lane, S)> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .zip(clients)
            .map(|(mut state, mut client)| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut lane = Lane::default();
                    while Instant::now() < deadline {
                        match step(&mut state, &mut client) {
                            Some(r) => {
                                let now = Instant::now();
                                if r.outcome.is_ok() && now <= deadline {
                                    lane.ok += 1;
                                    lane.busy_s = (now - start).as_secs_f64();
                                }
                                records.push(r);
                            }
                            None => break,
                        }
                    }
                    (records, lane, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop driver panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut lanes = Vec::new();
    let mut states = Vec::new();
    for (r, lane, s) in results {
        records.extend(r);
        lanes.push(lane);
        states.push(s);
    }
    records.sort_by_key(|r| r.index);
    Ok(ClosedLoop {
        records,
        lanes,
        states,
    })
}

/// Times one blocking call; the record's latency covers encode, the round
/// trip and decode.
pub fn timed<T>(
    index: usize,
    call: impl FnOnce() -> Result<T, String>,
    answer: impl Fn(&T) -> Answer,
) -> (Record, Option<T>) {
    let t0 = Instant::now();
    let result = call();
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(v) => (
            Record {
                index,
                latency_ms,
                outcome: Ok(answer(&v)),
            },
            Some(v),
        ),
        Err(e) => (
            Record {
                index,
                latency_ms,
                outcome: Err(e),
            },
            None,
        ),
    }
}
