//! Per-run correctness checks, run after the timed window. A run that
//! fails its check reports failure and none of its numbers are used.

use wdm_core::WdmNetwork;
use wdm_rwa::{Policy, RoutingMode};
use wdm_serve::EngineBackend;

use crate::client::{reply_hash, ErrorKind, Outcome, Rec, RunLog};
use crate::workload::Workload;

/// Checks one run's outputs; `Err` says what was wrong.
pub fn check(workload: &Workload, net: &WdmNetwork, log: &RunLog) -> Result<(), String> {
    if log.bad_scrapes > 0 {
        return Err(format!("{} bad GET /metrics responses", log.bad_scrapes));
    }
    for rec in &log.recs {
        match rec.outcome {
            Outcome::Lost => return Err(format!("no reply to {:?}", rec.op)),
            Outcome::Error(ErrorKind::Other | ErrorKind::Overloaded) => {
                return Err(format!("unexpected error reply to {:?}", rec.op))
            }
            Outcome::Accepted { cost: 0, .. } => {
                return Err(format!("zero-cost path for {:?}", rec.op))
            }
            _ => {}
        }
    }
    if workload.sharded {
        reconcile(log)
    } else {
        replay(net, &log.recs)
    }
}

/// Sorts a single-backend session by `seq` and replays it through a
/// fresh offline backend: every reply must be byte-identical.
fn replay(net: &WdmNetwork, recs: &[Rec]) -> Result<(), String> {
    let ordered = by_seq(recs)?;
    let backend = EngineBackend::single(net, RoutingMode::Masked, Policy::Optimal);
    let mut ctx = backend.new_ctx();
    let mut line = String::with_capacity(64);
    for rec in ordered {
        line.clear();
        rec.op.render(rec.trace_id, &mut line);
        let reply = backend.execute_line(&mut ctx, &line);
        if reply_hash(reply.as_bytes()) != rec.hash {
            return Err(format!(
                "replay diverges at seq {:?}: {} -> {reply}",
                rec.seq,
                line.trim_end()
            ));
        }
    }
    Ok(())
}

/// `recs` in `seq` order; every `seq` from 1 up must appear once.
pub fn by_seq(recs: &[Rec]) -> Result<Vec<&Rec>, String> {
    let mut ordered: Vec<&Rec> = recs.iter().collect();
    ordered.sort_by_key(|r| r.seq);
    for (i, rec) in ordered.iter().enumerate() {
        if rec.seq != Some(i as u64 + 1) {
            return Err(format!("seq {:?} found where {} was due", rec.seq, i + 1));
        }
    }
    Ok(ordered)
}

/// Reconciles a sharded run's final `stats` with the client tallies.
/// Cuts move the engine totals too: each torn connection counts as
/// released, each restoration as accepted and each loss as blocked.
fn reconcile(log: &RunLog) -> Result<(), String> {
    by_seq(&log.recs)?;
    let (mut sent, mut accepted, mut blocked, mut contended) = (0u64, 0u64, 0u64, 0u64);
    let (mut released, mut restored, mut lost) = (0u64, 0u64, 0u64);
    for rec in &log.recs {
        match rec.outcome {
            Outcome::Accepted { .. } => accepted += 1,
            Outcome::Blocked => blocked += 1,
            Outcome::Error(ErrorKind::Contended) => contended += 1,
            Outcome::Released => released += 1,
            Outcome::Cut {
                restored: r,
                lost: l,
            } => {
                restored += r;
                lost += l;
            }
            _ => {}
        }
        if matches!(rec.op, crate::workload::Op::Provision { .. }) {
            sent += 1;
        }
    }
    let s = log.stats;
    let checks = [
        (
            "accepted + blocked + contended = provisions sent",
            accepted + blocked + contended == sent,
        ),
        (
            "stats accepted = client accepted + restored",
            s.accepted == accepted + restored,
        ),
        (
            "stats blocked = client blocked + lost",
            s.blocked == blocked + lost,
        ),
        (
            "stats released = successful releases + torn by cuts",
            s.released == released + restored + lost,
        ),
        (
            "stats active = accepted - released",
            s.accepted.checked_sub(s.released) == Some(s.active),
        ),
        (
            "active + lost >= held (a held id is live, restored or lost)",
            s.active + lost >= log.held,
        ),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        None => Ok(()),
        Some((what, _)) => Err(format!(
            "sharded reconcile failed: {what} (stats {s:?}; client sent {sent} accepted \
             {accepted} blocked {blocked} contended {contended} released {released}; cuts \
             restored {restored} lost {lost}; held {})",
            log.held
        )),
    }
}
