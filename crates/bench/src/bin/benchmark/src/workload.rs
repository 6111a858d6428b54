//! What the five workloads have in common: a scale, the outcome of one
//! pass, and the trait the run loop drives.

use crate::spans::Tracer;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The workloads, in the order `run` executes them. Later issues refer
/// to these names.
pub const NAMES: [&str; 5] = [
    "exhibits_quick",
    "fleet_packets",
    "fleet_population",
    "fleet_watched",
    "live_udp",
];

/// `Full` is what the numbers are quoted at. `Smoke` is the same code
/// paths and checks at about a twentieth of the size, for CI and for the
/// passes a traced run makes of the workloads it was not asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one pass of a workload did.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall seconds, engine construction and teardown included.
    pub wall_s: f64,
    /// User plus system CPU seconds over all threads.
    pub cpu_s: f64,
    /// Packets the fabric forwarded (fleets only).
    pub packets: u64,
    /// Payload bytes delivered to applications, headers and
    /// retransmissions excluded (fleets and `live_udp`).
    pub payload_bytes: u64,
    /// Hash of the pass's outputs, to show simulated statistics unchanged.
    pub digest: u64,
    /// Operations the output checks looked at, and the ones that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Layer metrics read from this pass.
    pub layers: BTreeMap<String, f64>,
}

/// A workload after set-up: inputs generated, warm-up done.
pub trait Workload {
    /// Client stacks alive at once, the divisor of `rss_bytes_per_client`.
    fn clients(&self) -> u64;

    /// One closed-loop pass over the fixed input. With a tracer the
    /// outside instrumentation is on and spans land under the tracer's
    /// innermost open span.
    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass;
}

/// Set a workload up: generate its inputs from `seed` and warm it up.
/// `scratch` is a directory the workload may fill.
pub fn prepare(
    name: &str,
    seed: u64,
    scale: Scale,
    scratch: &Path,
) -> io::Result<Box<dyn Workload>> {
    use crate::fleet::{Fleet, Variant};
    Ok(match name {
        "exhibits_quick" => Box::new(crate::exhibits::Exhibits::prepare(seed, scale, scratch)?),
        "fleet_packets" => Box::new(Fleet::prepare(Variant::Packets, seed, scale)),
        "fleet_population" => Box::new(Fleet::prepare(Variant::Population, seed, scale)),
        "fleet_watched" => Box::new(Fleet::prepare(Variant::Watched, seed, scale)),
        "live_udp" => Box::new(crate::live::LiveUdp::prepare(seed, scale)?),
        other => unreachable!("{other:?} is not one of {NAMES:?}; names are checked on entry"),
    })
}
