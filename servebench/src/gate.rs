//! The correctness gate, run after the timed window.
//!
//! Served assignments and objective bits must equal a direct registry
//! call on a cold context, and the daemon's drained counters must satisfy
//! its accounting identities. Every mismatch is a failed operation.

use crate::load::{Answer, Record};
use crate::workload;
use elpc_mapping::{solver, NodeId, SolveContext};
use elpc_serving::StatsReply;
use elpc_workloads::ProblemInstance;

/// A direct registry call's answer: assignment and objective bits.
pub type Direct = (Vec<NodeId>, u64);

/// Solves `inst` with `name` on a fresh single-threaded context.
pub fn direct(inst: &ProblemInstance, name: &str) -> Result<Direct, String> {
    let ctx = SolveContext::with_threads(inst.as_instance(), workload::cost(), 1);
    let s = solver(name)
        .ok_or_else(|| format!("unknown solver {name}"))?
        .solve(&ctx)
        .map_err(|e| format!("direct {name} failed: {e}"))?;
    Ok((s.assignment, s.objective_ms.to_bits()))
}

/// True when a served answer equals the direct one bit for bit.
pub fn agrees(a: &Answer, d: &Direct) -> bool {
    a.assignment == d.0 && a.objective_bits == d.1
}

/// Records whose successful answer disagrees with `expected(record)`
/// (`None` = not in the checked sample); returns how many were checked
/// and the indices of the mismatches.
pub fn compare<'a>(
    records: impl Iterator<Item = &'a Record>,
    mut expected: impl FnMut(&Record) -> Option<Direct>,
) -> (usize, Vec<usize>) {
    let mut checked = 0;
    let mut bad = Vec::new();
    for r in records {
        let Ok(a) = &r.outcome else { continue };
        if let Some(d) = expected(r) {
            checked += 1;
            if !agrees(a, &d) {
                bad.push(r.index);
            }
        }
    }
    (checked, bad)
}

/// The drained `StatsReply` identities. `sent` counts every solve/remap
/// request this benchmark sent the daemon over its lifetime.
pub fn identities(s: &StatsReply, sent: u64) -> Vec<String> {
    let mut broken = Vec::new();
    if s.requests != sent {
        broken.push(format!("requests {} != {} sent", s.requests, sent));
    }
    if s.requests != s.accepted + s.shed {
        broken.push(format!(
            "requests {} != accepted {} + shed {}",
            s.requests, s.accepted, s.shed
        ));
    }
    if s.accepted != s.completed + s.timeouts + s.errors {
        broken.push(format!(
            "accepted {} != completed {} + timeouts {} + errors {}",
            s.accepted, s.completed, s.timeouts, s.errors
        ));
    }
    // Every executed solve checks the bank out exactly once. Expired
    // requests may or may not have executed, so the identity is only
    // exact without timeouts.
    if s.timeouts == 0 && s.bank_hits + s.bank_misses != s.completed + s.errors {
        broken.push(format!(
            "bank hits {} + misses {} != executed solves {}",
            s.bank_hits,
            s.bank_misses,
            s.completed + s.errors
        ));
    }
    if s.queue_depth != 0 {
        broken.push(format!("queue depth {} after drain", s.queue_depth));
    }
    broken
}
