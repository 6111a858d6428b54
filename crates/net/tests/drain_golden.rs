//! Golden pin of the fleet drain path.
//!
//! A fixed-seed contended fleet run must deliver exactly the same bytes to
//! every client and record exactly the same trace — byte for byte — at
//! one shard and at four. Any behavioural drift in the queue merge order,
//! the drain loop, the ports or the barrier flush shows up here as a
//! changed byte count or a changed trace hash long before it would surface
//! as a subtle fairness or energy shift in an exhibit. The constants were
//! last re-captured when the sender stopped cutting runts (EXPERIMENTS.md,
//! "PR 23: whole segments", lists the old → new values and their causes).
//!
//! If this test fails after an intentional semantic change, re-capture with
//! `cargo test -p emptcp-net --test drain_golden -- --nocapture` and update
//! the constants together with a CHANGES.md note — never silently. The
//! contended constants live in `drain_golden/rig.rs`, which the root
//! package's `workspace_smoke` also runs.

#[path = "drain_golden/rig.rs"]
mod rig;

use emptcp_net::FleetConfig;
use rig::assert_golden;

#[test]
fn contended_fleet_drain_path_matches_goldens() {
    rig::contended_matches_goldens();
}

/// The do-no-harm cell runs the fairness-critical path: four LIA-coupled
/// MPTCP clients against four TCP clients on a tight core. Its trace pins
/// the coupled congestion-control decisions end to end.
#[test]
fn do_no_harm_cell_drain_path_matches_goldens() {
    assert_golden(
        "dnh",
        FleetConfig::do_no_harm_cell(3),
        &[
            6_160_392, 8_072_484, 6_301_764, 6_550_236, 7_591_248, 11_305_476, 6_881_532, 6_710_172,
        ],
        0x3b98_c988_80c7_112d,
        45_406,
    );
}
