//! The two-thread serve/connect pair `udp_smoke` runs, shared with the
//! reduced case in the root package's `tests/workspace_smoke.rs`.

use emptcp_live::{bind_serve, run_connect, SessionConfig, TransferReport};
use emptcp_sim::SimTime;
use emptcp_tcp::segment::DEFAULT_MSS;

/// Move `size` bytes from a serving session on `port` to a connecting
/// one on `port + 10`, both shaped by `shape`; `(client, server)` reports.
pub fn transfer(
    port: u16,
    size: u64,
    shape: impl Fn(&mut SessionConfig),
) -> (TransferReport, TransferReport) {
    let mut serve_cfg = SessionConfig::new(port, size);
    serve_cfg.wall_limit = SimTime::from_secs(20);
    shape(&mut serve_cfg);
    // Bound before the client's first SYN can leave: a SYN to a port
    // nobody holds yet is lost, and its subflow then sits out a 1 s SYN
    // timeout while the other path carries the whole transfer.
    let serving = bind_serve(&serve_cfg).expect("serve side bound");
    let server = std::thread::spawn(move || serving.run());

    let mut connect_cfg = SessionConfig::new(port + 10, size);
    connect_cfg.peer = Some(([127, 0, 0, 1], port).into());
    connect_cfg.wall_limit = SimTime::from_secs(20);
    shape(&mut connect_cfg);
    let client = run_connect(&connect_cfg).expect("connect side ran");
    let server = server.join().expect("serve thread");

    assert!(client.complete, "client delivered everything: {client:?}");
    assert!(server.complete, "server saw everything ACKed: {server:?}");
    assert_eq!(client.bytes, size);
    assert!(
        client.wifi > 0 && client.cellular > 0,
        "both subflows carried data (wifi {}, cellular {})",
        client.wifi,
        client.cellular
    );
    (client, server)
}

/// An unshaped transfer of `size` bytes on `port` loses nothing to its
/// own receive buffers: no kernel drop, nothing sent twice, no timeout,
/// and the receiver sees one full-sized datagram per MSS of payload plus
/// the handshakes.
pub fn unshaped_transfer_loses_nothing(port: u16, size: u64) {
    let (client, server) = transfer(port, size, |_| {});
    for report in [&client, &server] {
        let m = &report.metrics;
        assert_eq!(m.counter("live.tcp.rto"), 0, "{m:?}");
        assert_eq!(m.counter("live.tcp.retransmits"), 0, "{m:?}");
        assert_eq!(m.counter("live.udp.rcvbuf_drops"), 0, "{m:?}");
        assert_eq!(m.counter("live.udp.frames_shaped_away"), 0, "{m:?}");
    }
    let arrivals = client.metrics.counter("live.reactor.arrivals");
    let segments = size / DEFAULT_MSS as u64;
    assert!(
        arrivals <= segments + 64,
        "no runts, no duplicates: {arrivals} arrivals for {segments} segments"
    );
}
