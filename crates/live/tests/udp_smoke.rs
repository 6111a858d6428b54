//! In-process UDP smoke: a serve/connect pair over real localhost
//! sockets, one thread per side — the same code path the `simulate
//! serve`/`simulate connect` CLI runs across two processes.

use emptcp_live::{bind_serve, run_connect, SessionConfig};
use emptcp_sim::SimTime;

const SIZE: u64 = 256 * 1024;

#[test]
fn serve_connect_transfer_over_localhost_udp() {
    let mut serve_cfg = SessionConfig::new(47310, SIZE);
    serve_cfg.wall_limit = SimTime::from_secs(20);
    // Bound before the client's first SYN can leave: a SYN to a port
    // nobody holds yet is lost, and its subflow then sits out a 1 s SYN
    // timeout while the other path carries the whole transfer.
    let serving = bind_serve(&serve_cfg).expect("serve side bound");
    let server = std::thread::spawn(move || serving.run());

    let mut connect_cfg = SessionConfig::new(47320, SIZE);
    connect_cfg.peer = Some("127.0.0.1:47310".parse().unwrap());
    connect_cfg.wall_limit = SimTime::from_secs(20);
    let client = run_connect(&connect_cfg).expect("connect side ran");
    let server = server.join().expect("serve thread");

    assert!(client.complete, "client delivered everything: {client:?}");
    assert!(server.complete, "server saw everything ACKed: {server:?}");
    assert_eq!(client.bytes, SIZE);
    assert!(
        client.wifi > 0 && client.cellular > 0,
        "both subflows carried data (wifi {}, cellular {})",
        client.wifi,
        client.cellular
    );
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
        assert!(m.gauge("live.mptcp.mapping_high_water").is_some());
    }
}
