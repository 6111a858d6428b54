//! A scripted two-subflow pair for the cadence property: the same seeded
//! script (writes separated by idle gaps, random loss, link flaps) is run
//! once driven only when an event lands and once with extra
//! `poll_transmit` and `on_deadline` calls at arbitrary instants in
//! between. Shared with the root package's `workspace_smoke` through
//! `#[path]`.

use emptcp_faults::testnet::{ChaosNet, ChaosPath};
use emptcp_faults::FaultAction::{IfaceDown, IfaceUp};
use emptcp_mptcp::{MpConnection, Role, SubflowId};
use emptcp_phy::IfaceKind;
use emptcp_sim::{SimDuration, SimRng, SimTime};
use emptcp_tcp::TcpConfig;

#[derive(Clone, Copy, Debug)]
enum Action {
    Write(u64),
    /// Take a path down (or bring it back), with link-layer notification.
    Link(u8, bool),
    Close,
}

/// One emitted segment, with the window it left under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sent {
    at: SimTime,
    from_client: bool,
    subflow: u8,
    seq: u64,
    payload: u32,
    cwnd: u64,
}

struct Pair {
    client: MpConnection,
    server: MpConnection,
    net: ChaosNet,
    sent: Vec<Sent>,
    /// Compare the `Debug` rendering around every poll that returns `None`
    /// and every `on_deadline` with nothing due.
    check: bool,
}

/// Far above what any script needs: a deadline that survives its sweep
/// would otherwise spin the loop at one instant forever.
const MAX_ITERATIONS: usize = 1_000_000;

impl Pair {
    /// One `poll_transmit`; a `None` must leave the connection untouched.
    fn poll(&mut self, now: SimTime, from_client: bool) -> bool {
        let conn = if from_client {
            &mut self.client
        } else {
            &mut self.server
        };
        let before = self.check.then(|| format!("{conn:?}"));
        let Some((sf, seg)) = conn.poll_transmit(now) else {
            if let Some(before) = before {
                assert_eq!(before, format!("{conn:?}"), "a None poll at {now} mutated");
            }
            return false;
        };
        self.sent.push(Sent {
            at: now,
            from_client,
            subflow: sf.0,
            seq: seg.seq,
            payload: seg.payload,
            cwnd: conn.subflow(sf).tcp.cc().cwnd(),
        });
        self.net.send(now, !from_client, sf.0, seg);
        true
    }

    /// One `on_deadline`. With nothing due it must leave the connection
    /// untouched; a due deadline must be consumed.
    fn sweep(&mut self, now: SimTime, client: bool) {
        let conn = if client {
            &mut self.client
        } else {
            &mut self.server
        };
        let due = conn.next_deadline().is_some_and(|d| d <= now);
        let before = (self.check && !due).then(|| format!("{conn:?}"));
        conn.on_deadline(now);
        if let Some(before) = before {
            assert_eq!(
                before,
                format!("{conn:?}"),
                "an undue sweep at {now} mutated"
            );
        }
        let next = conn.next_deadline();
        assert!(next.is_none_or(|d| d > now), "{next:?} survived {now}");
    }

    fn drain(&mut self, now: SimTime) {
        while self.poll(now, true) {}
        while self.poll(now, false) {}
    }
}

/// The script a seed stands for: `(at, action)` in time order.
fn script(rng: &mut SimRng) -> Vec<(SimTime, Action)> {
    let mut at = SimTime::ZERO;
    let mut actions = Vec::new();
    for _ in 0..2 + rng.below(4) {
        actions.push((at, Action::Write((4 + rng.below(60)) << 10)));
        // Mostly idle gaps well past an RTO, sometimes back-to-back.
        at += SimDuration::from_millis(match rng.below(3) {
            0 => rng.below(200),
            _ => 1_000 + rng.below(8_000),
        });
        if rng.chance(0.5) {
            let path = rng.below(2) as u8;
            let down = at + SimDuration::from_millis(rng.below(400));
            let up = down + SimDuration::from_millis(50 + rng.below(3_000));
            actions.push((down, Action::Link(path, false)));
            actions.push((up, Action::Link(path, true)));
            at = at.max(up);
        }
    }
    if rng.chance(0.5) {
        actions.push((at, Action::Close));
    }
    actions.sort_by_key(|&(t, _)| t);
    actions
}

/// Run the script `seed` stands for and return every segment sent, in
/// order. With `extra_polls` the endpoints are also polled and swept at
/// arbitrary instants between events, and every `None` poll and undue
/// sweep is checked for `Debug`-identity; the returned log must not
/// depend on it.
pub fn run(seed: u64, loss: f64, jitter_ms: u64, extra_polls: bool) -> Vec<Sent> {
    let paths = vec![
        ChaosPath::new(loss, SimDuration::from_millis(12), jitter_ms),
        ChaosPath::new(loss, SimDuration::from_millis(35), jitter_ms),
    ];
    let net = ChaosNet::new(seed, paths);
    let actions = script(&mut net.fork("script"));
    let mut polls = net.fork("polls");
    let mut client = MpConnection::new(Role::Client, TcpConfig::default());
    let mut server = MpConnection::new(Role::Server, TcpConfig::default());
    for iface in [IfaceKind::Wifi, IfaceKind::CellularLte] {
        client.add_subflow(SimTime::ZERO, iface);
        server.add_subflow(SimTime::ZERO, iface);
    }
    let mut pair = Pair {
        client,
        server,
        net,
        sent: Vec::new(),
        check: extra_polls,
    };
    let mut pending = actions.iter().copied().peekable();
    let mut now = SimTime::ZERO;
    for iteration in 0.. {
        assert!(iteration < MAX_ITERATIONS, "spinning at {now}");
        let next = [
            pending.peek().map(|&(t, _)| t),
            pair.net.peek_time(),
            pair.client.next_deadline(),
            pair.server.next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(next) = next.filter(|&t| t <= SimTime::from_secs(600)) else {
            break;
        };
        let next = next.max(now);
        if extra_polls {
            let gap = next.saturating_since(now).as_nanos();
            let mut at: Vec<u64> = (0..polls.below(3)).map(|_| polls.below(gap + 1)).collect();
            at.sort_unstable();
            for offset in at {
                let t = now + SimDuration::from_nanos(offset);
                let client = polls.chance(0.5);
                if polls.chance(0.5) {
                    pair.poll(t, client);
                } else if t < next {
                    pair.sweep(t, client);
                }
            }
        }
        now = next;
        while let Some((_, action)) = pending.next_if(|&(t, _)| t <= now) {
            match action {
                Action::Write(bytes) => pair.server.write(bytes),
                Action::Link(path, up) => {
                    let action = if up { IfaceUp } else { IfaceDown };
                    pair.net.paths[path as usize].apply(action);
                    pair.client.set_subflow_link_up(now, SubflowId(path), up);
                    pair.server.set_subflow_link_up(now, SubflowId(path), up);
                }
                Action::Close => {
                    pair.server.close();
                    pair.client.close();
                }
            }
        }
        if let Some((to_client, path, seg)) = pair.net.pop_due(now) {
            let conn = if to_client {
                &mut pair.client
            } else {
                &mut pair.server
            };
            conn.on_segment(now, SubflowId(path), seg);
        }
        pair.sweep(now, true);
        pair.sweep(now, false);
        pair.drain(now);
    }
    let written = pair.server.bytes_written();
    assert_eq!(pair.client.bytes_delivered(), written, "stalled at {now}");
    assert_eq!(pair.server.bytes_acked(), written, "sender never learnt");
    pair.sent
}
