//! Sim/live parity certification.
//!
//! [`certify`] runs one [`ParityScript`] through the reactor loop over
//! both backends' transports and demands the transport-decision logs
//! match **event-for-event**:
//! scheduler picks, subflow state transitions, cwnd trajectory points,
//! retransmissions, delivered-byte accounting — every trace event, in
//! order, with identical virtual timestamps. This is deliberately much
//! stronger than comparing final goodput: two engines can agree on the
//! total while disagreeing on every decision along the way, and it is
//! the decisions the simulator's conclusions rest on.
//!
//! What must match: the full `(SimTime, TraceEvent)` sequence and the
//! per-path delivered-byte accounting. What may differ: nothing, under
//! the virtual clock — wall-clock timestamps only enter in `Wall` mode,
//! which is exactly why certification runs the live backend on
//! [`ClockSource::scripted`](crate::clock::ClockSource::scripted).

use crate::backend::{run_script, Backend, ParityScript};
use emptcp_sim::SimTime;
use emptcp_telemetry::TraceEvent;

/// Context lines shown around the first divergence.
const DIFF_CONTEXT: usize = 3;

/// A certified run: both logs were equal.
#[derive(Debug, Clone, Copy)]
pub struct ParityReport {
    /// Events in the (shared) decision log.
    pub events: usize,
    /// Bytes delivered to the client application (equal on both sides).
    pub delivered: u64,
    /// Delivered bytes that rode the WiFi path.
    pub delivered_wifi: u64,
    /// Delivered bytes that rode the cellular path.
    pub delivered_cellular: u64,
}

/// The first point where the two decision logs disagree.
#[derive(Debug, Clone)]
pub struct ParityDiff {
    /// Index of the first differing event (== common length when one log
    /// is a strict prefix of the other).
    pub index: usize,
    /// The simulator's event at `index`, if any.
    pub sim: Option<(SimTime, TraceEvent)>,
    /// The live backend's event at `index`, if any.
    pub live: Option<(SimTime, TraceEvent)>,
    /// Events leading up to the divergence (shared prefix tail).
    pub context: Vec<(SimTime, TraceEvent)>,
    /// Log lengths, for prefix diagnoses.
    pub sim_len: usize,
    /// See `sim_len`.
    pub live_len: usize,
}

impl std::fmt::Display for ParityDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sim/live decision logs diverge at event {} (sim has {}, live has {})",
            self.index, self.sim_len, self.live_len
        )?;
        for (t, ev) in &self.context {
            writeln!(f, "    ... {t:?} {ev:?}")?;
        }
        match &self.sim {
            Some((t, ev)) => writeln!(f, "    sim : {t:?} {ev:?}")?,
            None => writeln!(f, "    sim : <log ended>")?,
        }
        match &self.live {
            Some((t, ev)) => writeln!(f, "    live: {t:?} {ev:?}")?,
            None => writeln!(f, "    live: <log ended>")?,
        }
        Ok(())
    }
}

/// Run `script` on both backends and compare decision logs. `Ok` means
/// every event matched (and so did the byte accounting); `Err` pinpoints
/// the first divergence with context.
pub fn certify(script: &ParityScript) -> Result<ParityReport, Box<ParityDiff>> {
    let sim = run_script(Backend::Sim, script);
    let live = run_script(Backend::Live, script);
    let common = sim.decisions.len().min(live.decisions.len());
    for i in 0..common {
        if sim.decisions[i] != live.decisions[i] {
            return Err(diff_at(i, &sim.decisions, &live.decisions));
        }
    }
    if sim.decisions.len() != live.decisions.len() {
        return Err(diff_at(common, &sim.decisions, &live.decisions));
    }
    // Decision logs matched; the accounting is derived from the same
    // events, so these are invariants, not additional tolerance knobs.
    assert_eq!(sim.delivered, live.delivered, "delivered bytes diverge");
    assert_eq!(
        (sim.delivered_wifi, sim.delivered_cellular),
        (live.delivered_wifi, live.delivered_cellular),
        "per-path accounting diverges"
    );
    Ok(ParityReport {
        events: sim.decisions.len(),
        delivered: sim.delivered,
        delivered_wifi: sim.delivered_wifi,
        delivered_cellular: sim.delivered_cellular,
    })
}

fn diff_at(
    index: usize,
    sim: &[(SimTime, TraceEvent)],
    live: &[(SimTime, TraceEvent)],
) -> Box<ParityDiff> {
    Box::new(ParityDiff {
        index,
        sim: sim.get(index).cloned(),
        live: live.get(index).cloned(),
        context: sim[index.saturating_sub(DIFF_CONTEXT)..index].to_vec(),
        sim_len: sim.len(),
        live_len: live.len(),
    })
}
