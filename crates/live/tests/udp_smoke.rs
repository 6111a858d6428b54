//! In-process UDP smoke: a serve/connect pair over real localhost
//! sockets, one thread per side — the same code path the `simulate
//! serve`/`simulate connect` CLI runs across two processes.

use emptcp_sim::SimDuration;
use emptcp_tcp::segment::DEFAULT_MSS;

#[path = "udp_smoke/rig.rs"]
mod rig;
use rig::transfer;

#[test]
fn serve_connect_transfer_over_localhost_udp() {
    let (client, server) = transfer(47310, 256 * 1024, |_| {});
    assert!(client.datagrams_received > 0 && server.datagrams_received > 0);
    // The engine's counters reach the metrics registry, and agree with
    // the struct fields they are published from.
    for report in [&client, &server] {
        let m = &report.metrics;
        assert_eq!(m.counter("live.reactor.arrivals"), report.stats.arrivals);
        assert_eq!(
            m.counter("live.reactor.yields") + m.counter("live.reactor.naps"),
            m.counter("live.reactor.idle_polls")
        );
        assert_eq!(
            m.counter("live.udp.datagrams_received"),
            report.datagrams_received
        );
        assert_eq!(m.counter("live.udp.malformed"), 0);
        assert_eq!(m.counter("live.udp.foreign"), 0);
        assert_eq!(m.counter("live.udp.send_errors"), 0);
        assert_eq!(m.counter("live.udp.recv_errors"), 0);
        assert!(m.gauge("live.mptcp.mapping_high_water").is_some());
        assert!(m.gauge("live.udp.rx_window").unwrap() >= 8.0 * DEFAULT_MSS as f64);
    }
}

/// The advertised window fits the socket, so a bulk transfer never
/// overflows it.
#[test]
fn an_unshaped_bulk_transfer_loses_nothing_to_its_own_socket() {
    rig::unshaped_transfer_loses_nothing(47330, 32 << 20);
}

/// The bound is a window, not a rate: a path with real delay carries
/// `rx_window` per round trip, so 4 MiB over two 10 ms-RTT paths is a
/// fraction of a second, not a stall.
#[test]
fn a_delayed_path_is_bounded_by_window_over_rtt_not_strangled() {
    let (client, _) = transfer(47350, 4 << 20, |cfg| {
        for path in &mut cfg.paths {
            path.base_delay = SimDuration::from_millis(5);
        }
    });
    // Two paths, each at most rx_window per 10 ms: the ceiling is real
    // (the transfer cannot beat it) and the transfer runs close to it.
    let window = client.metrics.gauge("live.udp.rx_window").unwrap();
    let floor_s = (4 << 20) as f64 / (2.0 * window / 0.010);
    let elapsed = client.elapsed.as_secs_f64();
    assert!(
        elapsed >= floor_s && elapsed < 10.0 * floor_s + 1.0,
        "elapsed {elapsed:.3} s against a window/RTT floor of {floor_s:.3} s"
    );
}
