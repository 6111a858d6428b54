//! `live_udp`: one flow-controlled eMPTCP transfer over real sockets.
//!
//! One process, two threads: the data sender (`Role::Server`) reacts on a
//! spawned thread, the receiver (`Role::Client`) on the calling one, each
//! a `Reactor<UdpTransport>` on a wall clock. Both clocks share one
//! epoch, so the sender's `ts_val` and the receiver's clock read are on
//! the same axis and their difference is a one-way latency. The paths
//! are two unshaped UDP 4-tuples on 127.0.0.1: loopback, not a real link.
//!
//! [`Timed`] is the outside instrumentation: a pass-through [`Transport`]
//! that reads the clock once per data arrival (always; it is the latency
//! metric) and, in a traced pass, times every call into the transport.

use crate::measure::{self, highest_supported_percentile, LogHistogram};
use crate::spans::{Folded, Tracer};
use crate::workload::{Pass, Scale, Workload};
use emptcp_live::{
    ChaosPath, ClockSource, ConnWorker, DuplexTransport, Reactor, ReactorStats, Transport,
    UdpTransport,
};
use emptcp_mptcp::{MpConnection, Role};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::{Segment, TcpConfig};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const MIB: u64 = 1 << 20;

/// First port tried; each attempt takes four consecutive ports (two
/// paths per side) and a busy one moves the attempt up by four.
const FIRST_PORT: u16 = 47400;
const PORT_ATTEMPTS: u16 = 500;

/// Pass-through transport that measures from outside.
pub struct Timed<T: Transport> {
    pub inner: T,
    epoch: Instant,
    spans: bool,
    /// One-way latency of every data segment received, nanoseconds.
    pub latency_ns: LogHistogram,
    pub send: Folded,
    pub recv: Folded,
    pub empty_poll: Folded,
}

impl<T: Transport> Timed<T> {
    /// Wrap `inner`. `epoch` is the shared zero of both sides' clocks;
    /// `spans` turns the per-call timing on.
    pub fn new(inner: T, epoch: Instant, spans: bool) -> Timed<T> {
        Timed {
            inner,
            epoch,
            spans,
            latency_ns: LogHistogram::new(),
            send: Folded::default(),
            recv: Folded::default(),
            empty_poll: Folded::default(),
        }
    }

    /// Seconds spent inside the wrapped transport (traced passes only).
    fn span_s(&self) -> f64 {
        self.send.total_s() + self.recv.total_s() + self.empty_poll.total_s()
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&mut self, now: SimTime, from: usize, path: u8, seg: &Segment) {
        if self.spans {
            let inner = &mut self.inner;
            self.send.time(|| inner.send(now, from, path, seg));
        } else {
            self.inner.send(now, from, path, seg);
        }
    }

    fn poll_recv(&mut self, now: SimTime) -> Option<(usize, u8, Segment)> {
        let start = self.spans.then(Instant::now);
        let got = self.inner.poll_recv(now);
        if let Some((_, _, seg)) = &got {
            if seg.payload > 0 {
                let arrived = self.epoch.elapsed().as_nanos() as u64;
                self.latency_ns
                    .record(arrived.saturating_sub(seg.ts_val.as_nanos()));
            }
        }
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            if got.is_some() {
                self.recv.record(ns);
            } else {
                self.empty_poll.record(ns);
            }
        }
        got
    }

    fn next_wakeup(&mut self) -> Option<SimTime> {
        self.inner.next_wakeup()
    }

    fn paths_mut(&mut self) -> &mut [ChaosPath] {
        self.inner.paths_mut()
    }
}

/// A two-subflow connection, WiFi first, as the sessions build it.
fn connection(role: Role) -> MpConnection {
    let mut conn = MpConnection::new(role, TcpConfig::default());
    conn.add_subflow(SimTime::ZERO, IfaceKind::Wifi);
    conn.add_subflow(SimTime::ZERO, IfaceKind::CellularLte);
    conn
}

fn unshaped_paths() -> Vec<ChaosPath> {
    vec![
        ChaosPath::new(0.0, SimDuration::ZERO, 0),
        ChaosPath::new(0.0, SimDuration::ZERO, 0),
    ]
}

/// Move `size` bytes server to client through one reactor on a scripted
/// clock, over whatever transport `wrap` makes of the duplex pair; the
/// finished reactor comes back for its counters. The
/// `live.duplex.virtual_bytes_per_s` probe and the wrapper's
/// transparency test both run this.
pub fn scripted_transfer<T: Transport>(
    seed: u64,
    size: u64,
    wrap: impl FnOnce(DuplexTransport) -> T,
) -> (ReactorStats, Reactor<T>) {
    let paths = vec![
        ChaosPath::new(0.0, SimDuration::from_millis(12), 0),
        ChaosPath::new(0.0, SimDuration::from_millis(35), 0),
    ];
    let mut server = connection(Role::Server);
    server.write(size);
    let mut reactor = Reactor::new(
        ClockSource::scripted(),
        wrap(DuplexTransport::new(seed, paths)),
    );
    // Client first: registration order is settle order.
    reactor.register(ConnWorker::new(connection(Role::Client), 0));
    reactor.register(ConnWorker::new(server, 1));
    let stats = reactor.run_until(|workers| workers[0].conn.bytes_delivered() >= size);
    (stats, reactor)
}

/// Both ends bound: the server on `port`, `port + 1`, the client on
/// `port + 2`, `port + 3`, peers preset on the client.
fn bind_pair(seed: u64) -> io::Result<(UdpTransport, UdpTransport)> {
    let mut last = None;
    for attempt in 0..PORT_ATTEMPTS {
        let port = FIRST_PORT + attempt * 4;
        let bound = UdpTransport::bind(port, unshaped_paths(), seed).and_then(|server| {
            let client = UdpTransport::bind(port + 2, unshaped_paths(), seed ^ 1)?;
            Ok((server, client))
        });
        match bound {
            Ok((server, mut client)) => {
                for path in 0..2 {
                    client.set_peer(path, SocketAddr::from(([127, 0, 0, 1], port + path as u16)));
                }
                return Ok((server, client));
            }
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no port attempt made")))
}

/// What one side of a transfer did.
struct Side {
    stats: ReactorStats,
    wall_s: f64,
    cpu_s: f64,
    reactor: Reactor<Timed<UdpTransport>>,
}

/// React until this side's own condition holds *and* the peer's does: a
/// finished receiver keeps acknowledging until the sender has seen every
/// byte acknowledged, so neither side needs a linger period.
fn react(
    mut reactor: Reactor<Timed<UdpTransport>>,
    mine: &AtomicBool,
    peer: &AtomicBool,
    finished: impl Fn(&MpConnection) -> bool,
) -> Side {
    let cpu0 = measure::thread_cpu_s();
    let start = Instant::now();
    let stats = reactor.run_until(|workers| {
        if !mine.load(Ordering::SeqCst) && finished(&workers[0].conn) {
            mine.store(true, Ordering::SeqCst);
        }
        mine.load(Ordering::SeqCst) && peer.load(Ordering::SeqCst)
    });
    Side {
        stats,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: measure::thread_cpu_s() - cpu0,
        reactor,
    }
}

/// One transfer of `size` bytes; `Err` only when no ports could be bound.
fn transfer(size: u64, seed: u64, limit: Duration, spans: bool) -> io::Result<(Side, Side)> {
    let (server_udp, client_udp) = bind_pair(seed)?;
    let epoch = Instant::now();
    let reactor_for = |conn: MpConnection, udp: UdpTransport| {
        let mut reactor = Reactor::new(ClockSource::Wall { epoch }, Timed::new(udp, epoch, spans));
        reactor.wall_limit = SimTime::from_nanos(limit.as_nanos() as u64);
        reactor.register(ConnWorker::new(conn, 0));
        reactor
    };
    let mut server_conn = connection(Role::Server);
    server_conn.write(size);
    let server = reactor_for(server_conn, server_udp);
    let client = reactor_for(connection(Role::Client), client_udp);
    let (server_done, client_done) = (AtomicBool::new(false), AtomicBool::new(false));
    Ok(std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            react(server, &server_done, &client_done, |c| {
                c.bytes_acked() >= size
            })
        });
        let receiver = react(client, &client_done, &server_done, |c| {
            c.bytes_delivered() >= size
        });
        let sender = sender.join().expect("server reactor thread panicked");
        (sender, receiver)
    }))
}

/// Sizes of the workload at one scale.
struct Sizes {
    transfer: u64,
    warm_up: u64,
    limit: Duration,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            // Transfers of 256 MiB and more repeat within a few percent;
            // at 16 MiB one retransmission timeout is half the run.
            Scale::Full => Sizes {
                transfer: 512 * MIB,
                warm_up: 64 * MIB,
                limit: Duration::from_secs(60),
            },
            Scale::Smoke => Sizes {
                transfer: 32 * MIB,
                warm_up: 4 * MIB,
                limit: Duration::from_secs(20),
            },
        }
    }
}

pub struct LiveUdp {
    seed: u64,
    sizes: Sizes,
}

impl LiveUdp {
    /// Set-up: bind, and move a warm-up transfer so the first measured
    /// pass does not pay for first-touch socket buffers and page faults.
    pub fn prepare(seed: u64, scale: Scale) -> io::Result<LiveUdp> {
        let sizes = Sizes::of(scale);
        let (_, receiver) = transfer(sizes.warm_up, seed, sizes.limit, false)?;
        let got = receiver.reactor.workers[0].conn.bytes_delivered();
        if got != sizes.warm_up {
            return Err(io::Error::other(format!(
                "warm-up transfer delivered {got} of {} bytes",
                sizes.warm_up
            )));
        }
        Ok(LiveUdp { seed, sizes })
    }
}

fn side_layers(out: &mut BTreeMap<String, f64>, suffix: &str, side: &Side, traced: bool) {
    let t = &side.reactor.transport;
    let mut put = |name: &str, value: f64| {
        out.insert(format!("{name}.{suffix}"), value);
    };
    let polls = t.recv.count + t.empty_poll.count;
    put("live.udp.send_ns", t.send.mean_ns());
    put("live.udp.recv_ns", t.recv.mean_ns());
    put(
        "live.udp.empty_poll_ratio",
        if polls == 0 {
            0.0
        } else {
            t.empty_poll.count as f64 / polls as f64
        },
    );
    put(
        "live.udp.wouldblock_drops",
        t.inner.frames_shaped_away as f64,
    );
    put("live.reactor.iterations", side.stats.iterations as f64);
    put("live.reactor.arrivals", side.stats.arrivals as f64);
    put("live.reactor.sends", side.stats.sends as f64);
    put(
        "live.reactor.sleep_iters",
        side.stats.iterations.saturating_sub(side.stats.arrivals) as f64,
    );
    put("live.reactor.busy_share", side.cpu_s / side.wall_s);
    if traced {
        put(
            "live.reactor.residual_ns_per_iter",
            (side.wall_s - t.span_s()).max(0.0) * 1e9 / side.stats.iterations.max(1) as f64,
        );
    }
}

impl Workload for LiveUdp {
    fn clients(&self) -> u64 {
        1
    }

    fn pass(&mut self, tracer: Option<&mut Tracer>) -> Pass {
        let size = self.sizes.transfer;
        let traced = tracer.is_some();
        let cpu0 = measure::process_cpu_s();
        let start = Instant::now();
        let outcome = transfer(size, self.seed, self.sizes.limit, traced);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = measure::process_cpu_s() - cpu0;
        let mut pass = Pass {
            wall_s,
            cpu_s,
            attempted: 1,
            ..Pass::default()
        };
        let (server, client) = match outcome {
            Ok(sides) => sides,
            Err(e) => {
                pass.failures.push(format!("transfer could not start: {e}"));
                return pass;
            }
        };
        let delivered = client.reactor.workers[0].conn.bytes_delivered();
        let malformed =
            server.reactor.transport.inner.malformed + client.reactor.transport.inner.malformed;
        if delivered != size {
            pass.failures
                .push(format!("delivered {delivered} of {size} bytes"));
        }
        if malformed != 0 {
            pass.failures
                .push(format!("{malformed} malformed datagrams"));
        }
        pass.payload_bytes = delivered;
        // Nothing simulated here: the digest is the byte count, which is
        // all two runs of a real transfer have in common.
        pass.digest = delivered;

        let lat = &client.reactor.transport.latency_ns;
        pass.layers
            .insert("live.seg_latency_samples".into(), lat.samples() as f64);
        if lat.samples() > 0 {
            // A percentile is quoted only with ten samples beyond it; a
            // pass too short for one reports the highest it supports.
            let highest = highest_supported_percentile(lat.samples() as usize).unwrap_or(50.0);
            for (name, p) in [("p50", 50.0_f64), ("p99", 99.0), ("p999", 99.9)] {
                pass.layers.insert(
                    format!("live.seg_latency_{name}_us"),
                    lat.percentile(p.min(highest)) as f64 / 1e3,
                );
            }
            pass.layers
                .insert("live.seg_latency_max_us".into(), lat.max() as f64 / 1e3);
        }
        side_layers(&mut pass.layers, "server", &server, traced);
        side_layers(&mut pass.layers, "client", &client, traced);
        let (retransmits, timeouts) = server.reactor.workers[0]
            .conn
            .subflows()
            .iter()
            .fold((0, 0), |(r, t), sf| {
                (r + sf.tcp.retransmissions(), t + sf.tcp.timeouts())
            });
        pass.layers.insert(
            "tcp.retransmit_ratio".into(),
            retransmits as f64 / server.stats.sends.max(1) as f64,
        );
        pass.layers.insert("live.tcp.rto".into(), timeouts as f64);

        if let Some(tracer) = tracer {
            // Two threads, so the share of the pass the spans cover is
            // taken over both threads' wall time, not the pass's.
            let covered = server.reactor.transport.span_s() + client.reactor.transport.span_s();
            pass.layers.insert(
                "bench.span_coverage".into(),
                covered / (server.wall_s + client.wall_s),
            );
            for (suffix, side) in [("server", &server), ("client", &client)] {
                let t = &side.reactor.transport;
                tracer.fold(&format!("live.udp.send.{suffix}"), &t.send);
                tracer.fold(&format!("live.udp.recv.{suffix}"), &t.recv);
                tracer.fold(&format!("live.udp.empty_poll.{suffix}"), &t.empty_poll);
            }
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrapper must not change what the reactor does: on a scripted
    /// clock the run is deterministic, so the stats and the delivered
    /// bytes have to match exactly with and without it.
    #[test]
    fn timing_wrapper_is_transparent() {
        let size = 2 * MIB;
        let (bare_stats, bare) = scripted_transfer(7, size, |t| t);
        let (timed_stats, timed) =
            scripted_transfer(7, size, |t| Timed::new(t, Instant::now(), true));
        assert_eq!(bare.workers[0].conn.bytes_delivered(), size);
        assert_eq!(timed.workers[0].conn.bytes_delivered(), size);
        assert_eq!(bare_stats.iterations, timed_stats.iterations);
        assert_eq!(bare_stats.arrivals, timed_stats.arrivals);
        assert_eq!(bare_stats.sends, timed_stats.sends);
        assert_eq!(bare_stats.fault_events, timed_stats.fault_events);
        assert_eq!(bare_stats.finished_at, timed_stats.finished_at);
        assert_eq!(
            bare.transport.bytes_carried,
            timed.transport.inner.bytes_carried
        );
        // And it saw every frame go by.
        assert_eq!(timed.transport.send.count, timed_stats.sends);
        assert_eq!(timed.transport.recv.count, timed_stats.arrivals);
        assert!(timed.transport.latency_ns.samples() >= size / 1428);
    }
}
