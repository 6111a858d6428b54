//! A peer cannot acknowledge what was never sent. A TCP ACK above
//! `snd_nxt` is dropped and answered with an ACK (RFC 9293 §3.10.7.4), a
//! handshake completes only on an ACK of the SYN-ACK itself, and an MPTCP
//! DATA_ACK above the data handed to the subflows is ignored. Simulated
//! peers never send such ACKs; these forge them.

use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimTime};
use emptcp_tcp::{Dss, Segment, TcpConfig, TcpEndpoint, TcpState};

const HALF_RTT: SimDuration = SimDuration::from_millis(5);

/// Carry every segment `from` has into `to`, half an RTT later.
fn pump_tcp(now: &mut SimTime, from: &mut TcpEndpoint, to: &mut TcpEndpoint) {
    from.on_deadline(*now);
    let segs: Vec<Segment> = std::iter::from_fn(|| from.poll_transmit(*now)).collect();
    *now += HALF_RTT;
    to.on_deadline(*now);
    for seg in segs {
        to.on_segment(*now, seg);
    }
}

/// A pure ACK from `to`'s peer acknowledging `ack`.
fn forged_ack(now: SimTime, ack: u64) -> Segment {
    let mut seg = Segment::empty(now);
    seg.seq = 1;
    seg.flags.ack = true;
    seg.ack = ack;
    seg.rwnd = 1 << 20;
    seg
}

#[test]
fn an_ack_of_data_never_sent_is_dropped_and_answered() {
    let mut now = SimTime::ZERO;
    let mut client = TcpEndpoint::client(TcpConfig::default());
    let mut server = TcpEndpoint::listener(TcpConfig::default());
    client.connect(now);
    pump_tcp(&mut now, &mut client, &mut server); // SYN
    pump_tcp(&mut now, &mut server, &mut client); // SYN-ACK
    pump_tcp(&mut now, &mut client, &mut server); // ACK
    assert_eq!(server.state(), TcpState::Established);

    let total = 100_000;
    server.write(total);
    pump_tcp(&mut now, &mut server, &mut client);
    let in_flight = server.bytes_in_flight();
    assert!(in_flight > 0 && in_flight < total);

    server.on_segment(now, forged_ack(now, 1_000_000));
    assert_eq!(
        server.bytes_in_flight(),
        in_flight,
        "nothing was acknowledged"
    );
    assert_eq!(server.bytes_acked_total(), 0);
    let answer = server
        .poll_transmit(now)
        .expect("the forged ACK is answered");
    assert!(answer.is_pure_ack());
    assert_eq!(answer.seq, 1 + in_flight);

    for _ in 0..200 {
        pump_tcp(&mut now, &mut server, &mut client);
        pump_tcp(&mut now, &mut client, &mut server);
        if server.bytes_acked_total() == total {
            break;
        }
    }
    assert_eq!(client.bytes_delivered_total(), total);
    assert_eq!(server.bytes_acked_total(), total);
}

#[test]
fn only_an_ack_of_the_syn_ack_completes_the_handshake() {
    let mut now = SimTime::ZERO;
    let mut client = TcpEndpoint::client(TcpConfig::default());
    let mut server = TcpEndpoint::listener(TcpConfig::default());
    client.connect(now);
    pump_tcp(&mut now, &mut client, &mut server); // SYN
    assert_eq!(server.state(), TcpState::SynRcvd);
    let outcome = server.on_segment(now, forged_ack(now, 5));
    assert!(!outcome.established_now);
    assert_eq!(server.state(), TcpState::SynRcvd);
    pump_tcp(&mut now, &mut server, &mut client); // SYN-ACK
    pump_tcp(&mut now, &mut client, &mut server); // ACK of 1
    assert_eq!(server.state(), TcpState::Established);
}

#[test]
fn a_data_ack_of_data_never_sent_is_ignored() {
    let mut now = SimTime::ZERO;
    let mut client = MpConnection::new(Role::Client, TcpConfig::default());
    let mut server = MpConnection::new(Role::Server, TcpConfig::default());
    client.add_subflow(now, IfaceKind::Wifi);
    server.add_subflow(now, IfaceKind::Wifi);
    let total = 1 << 20;
    server.write(total);
    let pump = |now: &mut SimTime, from: &mut MpConnection, to: &mut MpConnection| {
        from.on_deadline(*now);
        let segs: Vec<_> = std::iter::from_fn(|| from.poll_transmit(*now)).collect();
        *now += HALF_RTT;
        to.on_deadline(*now);
        for (id, seg) in segs {
            to.on_segment(*now, id, seg);
        }
    };
    let mut forged = false;
    for _ in 0..2_000 {
        pump(&mut now, &mut client, &mut server);
        pump(&mut now, &mut server, &mut client);
        if !forged && server.bytes_acked() > 0 {
            let mut seg = forged_ack(now, server.subflows()[0].tcp.snd_una());
            seg.dss = Some(Dss {
                data_seq: 0,
                len: 0,
                data_ack: 1 << 30,
            });
            server.on_segment(now, SubflowId(0), seg);
            assert!(server.bytes_acked() < total, "{}", server.bytes_acked());
            forged = true;
        }
        if client.bytes_delivered() == total && server.bytes_acked() == total {
            break;
        }
    }
    assert!(forged);
    assert_eq!(client.bytes_delivered(), total);
    assert_eq!(server.bytes_acked(), total);
}
