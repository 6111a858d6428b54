//! The driver-contract certificate for `TcpEndpoint`: `poll_transmit` and
//! `on_deadline` may be called at any cadence. A poll that returns `None`
//! and a sweep with nothing due leave the endpoint `Debug`-identical, a
//! due deadline never survives its sweep, and a pair polled and swept at
//! arbitrary extra instants sends the same segments, at the same instants,
//! under the same congestion window, as its twin driven only when an event
//! lands — through idle gaps longer than an RTO (RFC 2861 decay), loss,
//! reordering and blackouts.
//!
//! 256 cases by default; CI raises it through `PROPTEST_CASES`.

use emptcp_faults::testnet::{ChaosNet, ChaosPath};
use emptcp_faults::FaultAction::{IfaceDown, IfaceUp};
use emptcp_sim::{SimDuration, SimRng, SimTime};
use emptcp_tcp::{TcpConfig, TcpEndpoint};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Action {
    Write(u64),
    PathUp(bool),
    Close,
}

/// `(at, from_client, seq, payload, cwnd at send)`.
type Sent = (SimTime, bool, u64, u32, u64);

struct Pair {
    client: TcpEndpoint,
    server: TcpEndpoint,
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
    /// One `poll_transmit`; a `None` must leave the endpoint untouched.
    fn poll(&mut self, now: SimTime, from_client: bool) -> bool {
        let ep = if from_client {
            &mut self.client
        } else {
            &mut self.server
        };
        let before = self.check.then(|| format!("{ep:?}"));
        let Some(seg) = ep.poll_transmit(now) else {
            if let Some(before) = before {
                assert_eq!(before, format!("{ep:?}"), "a None poll at {now} mutated");
            }
            return false;
        };
        self.sent
            .push((now, from_client, seg.seq, seg.payload, ep.cc().cwnd()));
        self.net.send(now, !from_client, 0, seg);
        true
    }

    /// One `on_deadline`. With nothing due it must leave the endpoint
    /// untouched; a due deadline must be consumed.
    fn sweep(&mut self, now: SimTime, client: bool) {
        let ep = if client {
            &mut self.client
        } else {
            &mut self.server
        };
        let due = ep.next_deadline().is_some_and(|d| d <= now);
        let before = (self.check && !due).then(|| format!("{ep:?}"));
        ep.on_deadline(now);
        if let Some(before) = before {
            assert_eq!(before, format!("{ep:?}"), "an undue sweep at {now} mutated");
        }
        let next = ep.next_deadline();
        assert!(next.is_none_or(|d| d > now), "{next:?} survived {now}");
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
        if rng.chance(0.4) {
            let down = at + SimDuration::from_millis(rng.below(400));
            let up = down + SimDuration::from_millis(50 + rng.below(3_000));
            actions.push((down, Action::PathUp(false)));
            actions.push((up, Action::PathUp(true)));
            at = at.max(up);
        }
    }
    if rng.chance(0.5) {
        actions.push((at, Action::Close));
    }
    actions.sort_by_key(|&(t, _)| t);
    actions
}

/// Run the script `seed` stands for and return every segment sent. With
/// `extra_polls` the endpoints are also polled and swept at arbitrary
/// instants between events, and every `None` poll and undue sweep is
/// checked for `Debug`-identity; the returned log must not depend on it.
fn run(seed: u64, loss: f64, jitter_ms: u64, extra_polls: bool) -> Vec<Sent> {
    let path = ChaosPath::new(loss, SimDuration::from_millis(10), jitter_ms);
    let net = ChaosNet::new(seed, vec![path]);
    let actions = script(&mut net.fork("script"));
    let mut polls = net.fork("polls");
    let mut pair = Pair {
        client: TcpEndpoint::client(TcpConfig::default()),
        server: TcpEndpoint::listener(TcpConfig::default()),
        net,
        sent: Vec::new(),
        check: extra_polls,
    };
    pair.client.connect(SimTime::ZERO);
    let mut pending = actions.iter().copied().peekable();
    let mut written = 0;
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
                Action::Write(bytes) => {
                    pair.server.write(bytes);
                    written += bytes;
                }
                Action::PathUp(up) => {
                    pair.net.paths[0].apply(if up { IfaceUp } else { IfaceDown });
                }
                Action::Close => {
                    pair.server.close();
                    pair.client.close();
                }
            }
        }
        if let Some((to_client, _, seg)) = pair.net.pop_due(now) {
            if to_client {
                pair.client.on_segment(now, seg);
            } else {
                pair.server.on_segment(now, seg);
            }
        }
        pair.sweep(now, true);
        pair.sweep(now, false);
        while pair.poll(now, true) {}
        while pair.poll(now, false) {}
    }
    assert_eq!(pair.client.bytes_delivered_total(), written, "stalled");
    assert_eq!(
        pair.server.bytes_acked_total(),
        written,
        "sender never learnt"
    );
    pair.sent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(256)))]

    #[test]
    fn extra_polls_are_invisible(
        seed in 0u64..u64::MAX,
        loss in 0.0f64..0.1,
        jitter_ms in 0u64..30,
    ) {
        let twin = run(seed, loss, jitter_ms, false);
        prop_assert!(!twin.is_empty());
        prop_assert_eq!(run(seed, loss, jitter_ms, true), twin);
    }
}

/// The decay itself, pinned: the window at the first send after an idle
/// gap is the grown window halved once per idle RTO, whether or not the
/// endpoint was polled during the gap.
#[test]
fn idle_decay_is_a_function_of_elapsed_time_only() {
    let first_send_after_gap = |polled: bool| {
        let mut pair = Pair {
            client: TcpEndpoint::client(TcpConfig::default()),
            server: TcpEndpoint::listener(TcpConfig::default()),
            net: ChaosNet::new(
                1,
                vec![ChaosPath::new(0.0, SimDuration::from_millis(10), 0)],
            ),
            sent: Vec::new(),
            check: true,
        };
        pair.client.connect(SimTime::ZERO);
        pair.server.write(400_000);
        let mut now = SimTime::ZERO;
        while pair.server.bytes_acked_total() < 400_000 {
            while pair.poll(now, true) {}
            while pair.poll(now, false) {}
            now = [pair.net.peek_time(), pair.client.next_deadline()]
                .into_iter()
                .flatten()
                .min()
                .expect("transfer in progress");
            if let Some((to_client, _, seg)) = pair.net.pop_due(now) {
                if to_client {
                    pair.client.on_segment(now, seg);
                } else {
                    pair.server.on_segment(now, seg);
                }
            }
            pair.client.on_deadline(now);
        }
        let (grown, rto) = (pair.server.cc().cwnd(), pair.server.rtt().rto());
        let resume = now + rto * 2 + SimDuration::from_millis(1);
        if polled {
            for step in 1..40 {
                assert!(!pair.poll(now + rto * step / 20, false));
            }
        }
        pair.server.write(1428);
        assert!(pair.poll(resume, false));
        (grown, pair.server.cc().cwnd())
    };
    let (grown, unpolled) = first_send_after_gap(false);
    assert!(grown > 8 * 14_280, "window grew: {grown}");
    assert_eq!(unpolled, grown / 4, "two idle RTOs, two halvings");
    assert_eq!(first_send_after_gap(true).1, unpolled);
}
