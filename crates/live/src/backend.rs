//! Two transports under one engine.
//!
//! There is one pair pump in the workspace — the [`Reactor`] — and two
//! hermetic transports to put under it. [`Backend::Sim`] is the
//! simulator's deterministic network, the [`ChaosNet`] every chaos and
//! fault test rides ([`MpChaosRig`]): segments cross by value.
//! [`Backend::Live`] is the [`DuplexTransport`]: same state machines,
//! same loop, but every segment is encoded to wire bytes, carried through
//! a shaped byte channel and decoded, as a real deployment does.
//! [`run_script`] drives either from one [`ParityScript`] — the scripted
//! input (path delays and loss, fault windows, transfer size, seed) that
//! determines every arrival and ACK timing — and returns the
//! transport-decision log the run produced.

use crate::clock::ClockSource;
use crate::reactor::{Reactor, ReactorStats};
use crate::transport::{DuplexTransport, Transport};
use emptcp_faults::{ChaosNet, ChaosPath, FaultSpec};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{MemorySink, Telemetry, TraceEvent};
use std::sync::{Arc, Mutex};

/// The simulator-side rig every chaos and fault suite drives: a
/// two-host [`Reactor::pair`] on a scripted virtual clock over a
/// [`ChaosNet`].
pub type MpChaosRig = Reactor<ChaosNet>;

impl Reactor<ChaosNet> {
    /// A rig with one subflow per path on both ends, seeded
    /// deterministically.
    pub fn over(seed: u64, paths: Vec<ChaosPath>) -> MpChaosRig {
        Reactor::pair(ClockSource::scripted(), ChaosNet::new(seed, paths))
    }
}

/// Which transport carries the stacks' segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulator's [`ChaosNet`]: segments by value.
    Sim,
    /// The [`DuplexTransport`]: wire frames through the codec.
    Live,
}

/// One scripted input, sufficient to determine both backends' runs
/// completely: every arrival time, ACK timing and fault window follows
/// from these fields plus the seeded RNG streams.
#[derive(Clone, Debug)]
pub struct ParityScript {
    /// Seed for the shaping draws (split identically by both backends).
    pub seed: u64,
    /// Paths: WiFi first, then cellular — loss, one-way delay, jitter.
    pub paths: Vec<ChaosPath>,
    /// Bytes the server pushes to the client.
    pub total_bytes: u64,
    /// Fault windows replayed against the shaped paths as time passes.
    pub faults: Vec<FaultSpec>,
    /// Absolute cut-off.
    pub wall_limit: SimTime,
}

impl ParityScript {
    /// A clean two-path script: 12 ms WiFi, 35 ms cellular, no loss.
    pub fn two_path(seed: u64, total_bytes: u64) -> ParityScript {
        ParityScript {
            seed,
            paths: vec![
                ChaosPath::new(0.0, SimDuration::from_millis(12), 0),
                ChaosPath::new(0.0, SimDuration::from_millis(35), 0),
            ],
            total_bytes,
            faults: Vec::new(),
            wall_limit: SimTime::from_secs(900),
        }
    }
}

/// What a scripted run produced: the accounting and the decision log.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// Connection-level bytes the client delivered to the application.
    pub delivered: u64,
    /// Delivered bytes that rode the WiFi subflow.
    pub delivered_wifi: u64,
    /// Delivered bytes that rode the cellular subflow.
    pub delivered_cellular: u64,
    /// Every trace event both stacks emitted, in emission order — the
    /// transport-decision log (scheduler picks, subflow transitions, cwnd
    /// trajectory, retransmissions, delivered-byte coalescing).
    pub decisions: Vec<(SimTime, TraceEvent)>,
    /// What the reactor did.
    pub stats: ReactorStats,
}

/// Run `script` on `backend`, capturing the decision log through a
/// [`MemorySink`]. Client is telemetry conn 0, server conn 1, in both
/// backends — the logs are directly comparable.
pub fn run_script(backend: Backend, script: &ParityScript) -> ScriptOutcome {
    let paths = script.paths.clone();
    match backend {
        Backend::Sim => run_over(<ChaosNet>::new(script.seed, paths), script),
        Backend::Live => run_over(DuplexTransport::new(script.seed, paths), script),
    }
}

fn run_over<T: Transport>(transport: T, script: &ParityScript) -> ScriptOutcome {
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    let mut reactor = Reactor::pair(ClockSource::scripted(), transport);
    reactor.client().set_telemetry(telemetry.scope(0));
    reactor.server().set_telemetry(telemetry.scope(1));
    reactor.wall_limit = script.wall_limit;
    if !script.faults.is_empty() {
        reactor.attach_faults(&script.faults, &telemetry);
    }
    let delivered = reactor.transfer(script.total_bytes);
    let decisions = std::mem::take(&mut sink.lock().expect("sink poisoned").records);
    ScriptOutcome {
        delivered,
        delivered_wifi: reactor.client().delivered_by_iface(IfaceKind::Wifi),
        delivered_cellular: reactor.client().delivered_by_iface(IfaceKind::CellularLte),
        decisions,
        stats: reactor.stats(),
    }
}
