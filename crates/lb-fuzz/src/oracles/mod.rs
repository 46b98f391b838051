//! The differential oracles.
//!
//! Each submodule exposes `check(seed) -> Result<(), String>`: generate one
//! structured input from the seed, run the production kernel and an
//! independent reference (double-double arithmetic, a second solver, or an
//! invariant set), and report any disagreement. The harness treats both
//! `Err` and contained panics as findings.

pub mod alloc;
pub mod audit;
pub mod codec;
pub mod online;
pub mod payment;
pub mod prof;
pub mod recovery;
pub mod session;
pub mod shard;
pub mod sim;
pub mod telemetry;

use lb_proto::{Coordinator, CoordinatorPhase, Message};

/// Relative-error budget the numerical oracles enforce against the
/// double-double references (the acceptance bar for spreads up to 10¹²).
pub const REL_TOL: f64 = 1e-9;

/// `|got − want| ≤ REL_TOL · scale` with an explicit magnitude scale.
pub(crate) fn close(got: f64, want: f64, scale: f64) -> bool {
    (got - want).abs() <= REL_TOL * scale.abs().max(1e-300)
}

/// Drives a round to its seal as a reliable driver would: sends each of
/// `pending` the current phase's frame, hands every node reply (`reply`;
/// `None` for a node that stays silent) to the coordinator, and fires the
/// phase timeout whenever a pass sends nothing.
pub(crate) fn finish_round(
    c: &mut Coordinator<'_>,
    mut pending: Vec<u32>,
    actual: &[f64],
    reply: impl Fn(u32, &Message) -> Option<Message>,
) -> Result<(), String> {
    loop {
        let frames = c.outbound().map_err(|e| format!("outbound: {e}"))?;
        let sent: Vec<(u32, Message)> = pending.iter().map(|&m| (m, frames.frame(m))).collect();
        let mut next = Vec::new();
        for (machine, message) in sent {
            if let Some(reply) = reply(machine, &message) {
                next.extend(
                    c.handle(&reply, actual)
                        .map_err(|e| format!("handle: {e}"))?,
                );
            }
        }
        if next.is_empty() {
            next = match c.phase() {
                CoordinatorPhase::CollectingBids => c
                    .close_bidding(actual)
                    .map_err(|e| format!("close_bidding: {e}"))?,
                CoordinatorPhase::Executing => c
                    .close_execution()
                    .map_err(|e| format!("close_execution: {e}"))?,
                CoordinatorPhase::Done => break,
            };
        }
        pending = next;
    }
    c.seal().map_err(|e| format!("seal: {e}"))
}
