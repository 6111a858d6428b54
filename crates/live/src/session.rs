//! Serve/connect sessions: a real eMPTCP transfer between two processes.
//!
//! [`run_serve`] hosts the data *sender* (the `Role::Server` stack that
//! pushes `size` bytes), [`run_connect`] the *receiver* (the
//! `Role::Client` stack that initiates the subflow handshakes — its SYN
//! retransmissions double as rendezvous retries if the server process is
//! slower to start). Both sides run the same [`Reactor`] the parity
//! harness certifies, on a wall clock over [`UdpTransport`] — path *i*
//! rides local port `port_base + i`, so each subflow is separately
//! observable with ordinary packet tools.
//!
//! Telemetry flows through the ordinary [`TraceSink`] machinery: pass a
//! trace path and every transport decision lands in the same JSONL format
//! the simulator writes, flushed at a bounded cadence so `repro monitor
//! --follow` can dashboard the transfer while it runs (a flush that ends
//! mid-line is completed by the next one; the follower waits for it). The
//! engine's own counters — where the reactor's time went, what the
//! sockets and the kernel behind them dropped and why, the receive window
//! the transport advertised, what the subflows retransmitted, how large
//! the mapping and reorder tables grew — are published under `live.*` in
//! the session's [`MetricsRegistry`] and come back in the
//! [`TransferReport`].
//!
//! Binding is separate from reacting ([`bind_serve`] then
//! [`ServeSession::run`]) so a caller that starts both ends itself can
//! have the serving sockets exist before the first SYN leaves; a SYN sent
//! to an unbound port is simply lost, and costs its subflow a 1 s SYN
//! timeout while the other path carries the whole transfer.
//!
//! [`TraceSink`]: emptcp_telemetry::TraceSink

use crate::clock::ClockSource;
use crate::reactor::{ConnWorker, Reactor, ReactorStats};
use crate::udp::UdpTransport;
use emptcp_faults::{ChaosPath, FaultSpec};
use emptcp_mptcp::{MpConnection, Role};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::TcpConfig;
use emptcp_telemetry::{JsonlSink, MetricsRegistry, Telemetry, TraceSink, Violation};
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the trace sink is flushed mid-run so a follower sees events
/// promptly.
const TRACE_FLUSH_EVERY: Duration = Duration::from_millis(100);

/// Everything a serve or connect session needs.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// First local UDP port; path `i` binds `port_base + i`.
    pub port_base: u16,
    /// The serving side's first port (connect side only; path `i` targets
    /// `peer + i`).
    pub peer: Option<SocketAddr>,
    /// Sender-side shaping per path, WiFi first.
    pub paths: Vec<ChaosPath>,
    /// Seed for the shaping draws.
    pub seed: u64,
    /// Bytes the server pushes.
    pub size: u64,
    /// Fault windows applied to the shaped paths as wall time passes.
    pub faults: Vec<FaultSpec>,
    /// JSONL trace destination, follow-friendly (flushed every ~100 ms).
    pub trace: Option<PathBuf>,
    /// Give up after this much wall time.
    pub wall_limit: SimTime,
    /// Keep reacting this long after completion so the peer's final
    /// retransmissions still get answered.
    pub linger: SimDuration,
}

impl SessionConfig {
    /// A plain two-path localhost session.
    pub fn new(port_base: u16, size: u64) -> SessionConfig {
        SessionConfig {
            port_base,
            peer: None,
            paths: vec![
                ChaosPath::new(0.0, SimDuration::ZERO, 0),
                ChaosPath::new(0.0, SimDuration::ZERO, 0),
            ],
            seed: 1,
            size,
            faults: Vec::new(),
            trace: None,
            wall_limit: SimTime::from_secs(60),
            linger: SimDuration::from_millis(200),
        }
    }
}

/// What a session accomplished, for summaries and CI greps.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Bytes moved (delivered on connect, cumulatively ACKed on serve).
    pub bytes: u64,
    /// Of those, bytes that rode the WiFi path.
    pub wifi: u64,
    /// Of those, bytes that rode the cellular path.
    pub cellular: u64,
    /// Whether the transfer completed before the wall limit.
    pub complete: bool,
    /// Wall time from reactor start to completion check.
    pub elapsed: Duration,
    /// Reactor counters.
    pub stats: ReactorStats,
    /// Datagrams actually put on the wire.
    pub datagrams_sent: u64,
    /// Datagrams received and decoded.
    pub datagrams_received: u64,
    /// The session's metrics: the engine's `live.*` counters and gauges
    /// beside whatever the stacks recorded.
    pub metrics: MetricsRegistry,
    /// What the invariant observer caught (a traced session runs one); a
    /// run with any has no result worth trusting.
    pub violations: Vec<Violation>,
}

type SharedSink = Arc<Mutex<JsonlSink<File>>>;

/// The session's telemetry: always a metrics registry; with a trace path,
/// also the connection's events into a follow-friendly JSONL sink, whose
/// handle lets the run loop flush at a bounded cadence. Without one the
/// connection stays untraced and pays nothing.
fn telemetry_for(
    cfg: &SessionConfig,
    conn: &mut MpConnection,
) -> io::Result<(Telemetry, Option<SharedSink>)> {
    let Some(path) = &cfg.trace else {
        return Ok((Telemetry::builder().build(), None));
    };
    let sink = Arc::new(Mutex::new(JsonlSink::new(File::create(path)?)));
    let telemetry = Telemetry::builder()
        .sink(Box::new(Arc::clone(&sink)))
        .invariants(true)
        .build();
    conn.set_telemetry(telemetry.scope(0));
    Ok((telemetry, Some(sink)))
}

/// Publish what the engine counted under `live.*`: the reactor's
/// iterations and how the idle ones were spent, the transport's datagrams
/// and every reason it or the kernel dropped one, the window it
/// advertised, what the subflows had to send twice, and the high-water
/// marks of the connection's mapping and reorder tables.
fn publish_engine_metrics(
    metrics: &mut MetricsRegistry,
    stats: &ReactorStats,
    transport: &UdpTransport,
    conn: &MpConnection,
) {
    let (retransmits, timeouts) = conn.subflows().iter().fold((0, 0), |(r, t), sf| {
        (r + sf.tcp.retransmissions(), t + sf.tcp.timeouts())
    });
    for (name, value) in [
        ("live.reactor.iterations", stats.iterations),
        ("live.reactor.arrivals", stats.arrivals),
        ("live.reactor.sends", stats.sends),
        ("live.reactor.fault_events", stats.fault_events),
        ("live.reactor.unroutable", stats.unroutable),
        ("live.reactor.idle_polls", stats.idle_polls),
        ("live.reactor.yields", stats.yields),
        ("live.reactor.naps", stats.naps),
        ("live.reactor.nap_ns", stats.nap_ns),
        ("live.udp.datagrams_sent", transport.datagrams_sent),
        ("live.udp.datagrams_received", transport.datagrams_received),
        ("live.udp.frames_shaped_away", transport.frames_shaped_away),
        ("live.udp.malformed", transport.malformed),
        ("live.udp.unroutable", transport.unroutable),
        ("live.udp.send_errors", transport.send_errors),
        ("live.udp.foreign", transport.foreign),
        ("live.udp.recv_errors", transport.recv_errors),
        ("live.udp.rcvbuf_drops", transport.rcvbuf_drops()),
        ("live.tcp.retransmits", retransmits),
        ("live.tcp.rto", timeouts),
        ("live.mptcp.unknown_sf", conn.unknown_subflow_segments()),
    ] {
        metrics.counter_add(name, value);
    }
    let mapping = conn
        .subflows()
        .iter()
        .map(|sf| sf.mapping_high_water())
        .max()
        .unwrap_or(0);
    metrics.gauge_set("live.udp.rx_window", transport.rx_window() as f64);
    metrics.gauge_set("live.mptcp.mapping_high_water", mapping as f64);
    metrics.gauge_set(
        "live.mptcp.reorder_high_water",
        conn.reorder_high_water() as f64,
    );
}

/// Run the reactor until `finished` (or the wall limit), flushing the
/// trace on a timer, then linger to answer the peer's final
/// retransmissions.
fn drive(
    reactor: &mut Reactor<UdpTransport>,
    sink: Option<SharedSink>,
    linger: SimDuration,
    finished: impl Fn(&MpConnection) -> bool,
) -> ReactorStats {
    let mut last_flush = Instant::now();
    let mut flush = move |sink: &Option<SharedSink>| {
        if let Some(s) = sink {
            if last_flush.elapsed() >= TRACE_FLUSH_EVERY {
                last_flush = Instant::now();
                s.lock()
                    .expect("sink poisoned")
                    .flush()
                    .expect("trace flush");
            }
        }
    };
    let stats = reactor.run_until(|workers| {
        flush(&sink);
        finished(&workers[0].conn)
    });
    // Completion on our side does not mean the peer heard about it; keep
    // reacting briefly so its retransmissions get answered.
    let until = Instant::now() + Duration::from_nanos(linger.as_nanos());
    reactor.run_until(|_| {
        flush(&sink);
        Instant::now() >= until
    });
    if let Some(s) = &sink {
        s.lock()
            .expect("sink poisoned")
            .flush()
            .expect("trace flush");
    }
    stats
}

/// One end of a transfer: sockets bound, stack built, nothing sent yet.
struct Session {
    reactor: Reactor<UdpTransport>,
    telemetry: Telemetry,
    sink: Option<SharedSink>,
    size: u64,
    linger: SimDuration,
}

impl Session {
    /// Build `role`'s stack (one subflow per path, WiFi first) and bind
    /// path `i` to `cfg.port_base + i`.
    fn bind(cfg: &SessionConfig, role: Role) -> io::Result<Session> {
        let mut conn = MpConnection::new(role, TcpConfig::default());
        for idx in 0..cfg.paths.len() {
            let iface = if idx == 0 {
                IfaceKind::Wifi
            } else {
                IfaceKind::CellularLte
            };
            conn.add_subflow(SimTime::ZERO, iface);
        }
        let (telemetry, sink) = telemetry_for(cfg, &mut conn)?;
        let transport = UdpTransport::bind(cfg.port_base, cfg.paths.clone(), cfg.seed)?;
        let mut reactor = Reactor::new(ClockSource::wall(), transport);
        reactor.wall_limit = cfg.wall_limit;
        if !cfg.faults.is_empty() {
            reactor.attach_faults(&cfg.faults, &telemetry);
        }
        reactor.register(ConnWorker::new(conn, 0));
        Ok(Session {
            reactor,
            telemetry,
            sink,
            size: cfg.size,
            linger: cfg.linger,
        })
    }

    /// React until `finished` (or the wall limit), on a clock that starts
    /// now — however long ago the sockets were bound.
    fn run(&mut self, finished: impl Fn(&MpConnection) -> bool) -> ReactorStats {
        self.reactor.clock = ClockSource::wall();
        drive(&mut self.reactor, self.sink.take(), self.linger, finished)
    }

    fn report(self, stats: ReactorStats, bytes: u64, wifi: u64, cellular: u64) -> TransferReport {
        let transport = &self.reactor.transport;
        self.telemetry.with_metrics(|m| {
            publish_engine_metrics(m, &stats, transport, &self.reactor.workers[0].conn)
        });
        TransferReport {
            bytes,
            wifi,
            cellular,
            complete: bytes >= self.size,
            elapsed: Duration::from_nanos(stats.finished_at.as_nanos()),
            stats,
            datagrams_sent: transport.datagrams_sent,
            datagrams_received: transport.datagrams_received,
            metrics: self.telemetry.metrics().unwrap_or_default(),
            violations: self.telemetry.violations(),
        }
    }
}

/// A serving end whose sockets exist: peers may start connecting.
pub struct ServeSession(Session);

/// Bind the data sender's sockets (`port_base + i` per path) and queue
/// `cfg.size` bytes, without reacting yet.
pub fn bind_serve(cfg: &SessionConfig) -> io::Result<ServeSession> {
    let mut session = Session::bind(cfg, Role::Server)?;
    session.reactor.workers[0].conn.write(cfg.size);
    Ok(ServeSession(session))
}

impl ServeSession {
    /// Learn peers from the client's handshakes, push the bytes, finish
    /// when every one is cumulatively ACKed.
    pub fn run(self) -> TransferReport {
        let mut session = self.0;
        let size = session.size;
        let stats = session.run(|c| c.bytes_acked() >= size);
        let conn = &session.reactor.workers[0].conn;
        let (bytes, wifi, cellular) = (
            conn.bytes_acked(),
            conn.acked_by_iface(IfaceKind::Wifi),
            conn.acked_by_iface(IfaceKind::CellularLte),
        );
        session.report(stats, bytes, wifi, cellular)
    }
}

/// Host the data sender: [`bind_serve`], then [`ServeSession::run`].
pub fn run_serve(cfg: &SessionConfig) -> io::Result<TransferReport> {
    Ok(bind_serve(cfg)?.run())
}

/// Run the receiver: preset peers at `cfg.peer + i`, initiate the subflow
/// handshakes (SYN retransmission doubles as rendezvous retry), finish
/// when `cfg.size` bytes are delivered in order.
pub fn run_connect(cfg: &SessionConfig) -> io::Result<TransferReport> {
    let peer = cfg.peer.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "connect needs a peer address")
    })?;
    let mut session = Session::bind(cfg, Role::Client)?;
    for i in 0..cfg.paths.len() {
        let mut addr = peer;
        addr.set_port(peer.port() + i as u16);
        session.reactor.transport.set_peer(i, addr);
    }
    let size = session.size;
    let stats = session.run(|c| c.bytes_delivered() >= size);
    // Emit the final coalesced Delivered remainder so trace totals match
    // connection totals.
    let conn = &mut session.reactor.workers[0].conn;
    conn.flush_delivered_trace(stats.finished_at);
    let (bytes, wifi, cellular) = (
        conn.bytes_delivered(),
        conn.delivered_by_iface(IfaceKind::Wifi),
        conn.delivered_by_iface(IfaceKind::CellularLte),
    );
    Ok(session.report(stats, bytes, wifi, cellular))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_violation_the_observer_caught_reaches_the_report() {
        let trace =
            std::env::temp_dir().join(format!("emptcp-session-{}.jsonl", std::process::id()));
        let mut cfg = SessionConfig::new(46470, 1);
        cfg.trace = Some(trace.clone());
        let session = Session::bind(&cfg, Role::Client).expect("bind");
        session.telemetry.check_invariants(SimTime::ZERO, |obs| {
            obs.report(SimTime::ZERO, "dss_coverage", "injected".to_string())
        });
        let report = session.report(ReactorStats::default(), 0, 0, 0);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].name, "dss_coverage");
        assert_eq!(report.violations[0].detail, "injected");

        let clean = Session::bind(&cfg, Role::Client).expect("bind");
        let report = clean.report(ReactorStats::default(), 0, 0, 0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        std::fs::remove_file(&trace).ok();
    }
}
