//! LIA "do no harm" golden test (RFC 6356 goal 2, the paper's fairness
//! premise): at a shared bottleneck, MPTCP connections' aggregates must
//! not take (much) more capacity than single-path TCP flows — and the
//! uncoupled ablation shows that this is LIA's doing, not an accident of
//! the topology. The cell is four MPTCP clients against four TCP clients,
//! so each ratio is a population mean; it draws no randomness, so one run
//! per variant is the whole experiment.

use emptcp_net::{FleetConfig, ShardedFleetSim};

fn ratio(coupled: bool) -> f64 {
    let mut cfg = FleetConfig::do_no_harm_cell(1);
    cfg.coupled = coupled;
    let report = ShardedFleetSim::new(cfg, 1).run();
    assert!(
        report.mptcp_mean_mbps > 0.5 && report.tcp_mean_mbps > 0.5,
        "both populations must make real progress: {report:?}"
    );
    report.mptcp_tcp_ratio
}

#[test]
fn lia_does_no_harm_at_a_shared_bottleneck() {
    let lia = ratio(true);
    // The bound is deliberately loose — scheduling still jitters the
    // split — but it must hold from both sides: MPTCP neither starves
    // nor meaningfully beats the competing TCP flows.
    assert!(
        (0.6..=1.35).contains(&lia),
        "LIA ratio {lia} outside do-no-harm bounds"
    );
}

#[test]
fn uncoupled_subflows_take_more_than_lia() {
    let lia = ratio(true);
    let reno = ratio(false);
    // Two uncoupled Reno subflows behave like two flows against one.
    assert!(
        reno > lia + 0.2,
        "uncoupled {reno} not clearly above LIA {lia}"
    );
    assert!(reno > 1.25, "uncoupled ratio {reno} too tame");
}
