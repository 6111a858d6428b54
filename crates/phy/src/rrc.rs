//! The cellular radio-resource-control (RRC) state machine.
//!
//! 3GPP defines per-device radio states; the paper (§2.3) describes the two
//! that dominate energy: the **promotion** — an idle radio must spend a fixed
//! delay (at high power) being promoted to the connected state before the
//! first packet flows — and the **tail** — after the last packet the radio
//! lingers at high power for 6–12 s before demoting to idle.
//!
//! eMPTCP's delayed subflow establishment exists precisely to avoid paying
//! promotion + tail for transfers that fit in WiFi alone, so this machine is
//! modelled explicitly rather than folded into an average power number.
//!
//! The machine is poll-style: callers notify it of traffic via
//! [`RrcMachine::on_activity`], ask for the pending deadline via
//! [`RrcMachine::next_deadline`], and let timers fire via
//! [`RrcMachine::poll`].

use emptcp_sim::{SimDuration, SimTime};
use emptcp_telemetry::{TelemetryScope, TraceEvent};
use serde::{Deserialize, Serialize};

/// Radio state as seen by the energy meter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RrcState {
    /// Low-power idle; no data can flow.
    Idle,
    /// Being promoted to connected: high power, data still blocked.
    Promotion,
    /// Connected and exchanging data.
    Active,
    /// Connected but idle: the high-power tail before demotion.
    Tail,
}

impl RrcState {
    /// Stable name for traces and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            RrcState::Idle => "Idle",
            RrcState::Promotion => "Promotion",
            RrcState::Active => "Active",
            RrcState::Tail => "Tail",
        }
    }

    /// All states, in residency-array order.
    pub const ALL: [RrcState; 4] = [
        RrcState::Idle,
        RrcState::Promotion,
        RrcState::Active,
        RrcState::Tail,
    ];

    fn index(self) -> usize {
        match self {
            RrcState::Idle => 0,
            RrcState::Promotion => 1,
            RrcState::Active => 2,
            RrcState::Tail => 3,
        }
    }

    /// True when data can traverse the radio.
    pub fn can_transfer(self) -> bool {
        matches!(self, RrcState::Active | RrcState::Tail)
    }
}

/// Timing of the RRC machine. Powers live in the energy crate's device
/// profiles; this is pure protocol timing.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct RrcConfig {
    /// Time from idle to connected once traffic wants to flow.
    pub promotion_delay: SimDuration,
    /// Inactivity period after the last packet before the radio enters the
    /// tail proper (connected-DRX style); kept small.
    pub inactivity_timeout: SimDuration,
    /// How long the high-power tail lasts before demotion to idle,
    /// measured from tail entry. The paper cites 6–12 s.
    pub tail_duration: SimDuration,
}

impl RrcConfig {
    /// LTE timing in the range measured by Huang et al. (MobiSys'12).
    pub fn lte() -> Self {
        RrcConfig {
            promotion_delay: SimDuration::from_millis(400),
            inactivity_timeout: SimDuration::from_millis(100),
            tail_duration: SimDuration::from_millis(10_500),
        }
    }

    /// 3G (HSPA) timing per Balasubramanian et al. (IMC'09).
    pub fn threeg() -> Self {
        RrcConfig {
            promotion_delay: SimDuration::from_millis(1_000),
            inactivity_timeout: SimDuration::from_millis(200),
            tail_duration: SimDuration::from_millis(8_100),
        }
    }
}

/// A state transition the machine performed, reported so the host can
/// account energy and release blocked traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RrcTransition {
    /// When the transition happened.
    pub at: SimTime,
    /// The state entered.
    pub to: RrcState,
}

/// The RRC state machine for one cellular interface.
#[derive(Clone, Debug)]
pub struct RrcMachine {
    config: RrcConfig,
    state: RrcState,
    /// When the current promotion completes (valid in `Promotion`).
    promotion_end: SimTime,
    /// Last time data moved (valid in `Active`/`Tail`).
    last_activity: SimTime,
    /// When the tail expires (valid in `Tail`).
    tail_end: SimTime,
    /// Cumulative number of promotions performed (each one costs fixed
    /// energy; the evaluation counts them).
    promotions: u64,
    /// Accumulated time spent in each state (indexed by
    /// [`RrcState::index`]), up to `state_entered_at`'s last update.
    residency_ns: [u64; 4],
    /// When the current state was entered; tracking starts at
    /// [`SimTime::ZERO`] (machines are created at simulation start).
    state_entered_at: SimTime,
    /// Telemetry scope for transition events and the promotions counter.
    scope: TelemetryScope,
}

impl RrcMachine {
    /// A machine starting idle.
    pub fn new(config: RrcConfig) -> Self {
        RrcMachine {
            config,
            state: RrcState::Idle,
            promotion_end: SimTime::ZERO,
            last_activity: SimTime::ZERO,
            tail_end: SimTime::ZERO,
            promotions: 0,
            residency_ns: [0; 4],
            state_entered_at: SimTime::ZERO,
            scope: TelemetryScope::disabled(),
        }
    }

    /// Attach a telemetry scope; transitions emit
    /// [`TraceEvent::RrcTransition`] and promotions are counted.
    pub fn set_telemetry(&mut self, scope: TelemetryScope) {
        self.scope = scope;
    }

    /// Switch to `to` at time `at`, closing out the residency of the state
    /// being left and reporting the transition.
    fn transition(&mut self, at: SimTime, to: RrcState, out: &mut Vec<RrcTransition>) {
        let from = self.state;
        self.residency_ns[from.index()] += at.saturating_since(self.state_entered_at).as_nanos();
        self.state_entered_at = at;
        self.state = to;
        self.scope.emit(at, |_| TraceEvent::RrcTransition {
            from: from.name(),
            to: to.name(),
        });
        if to == RrcState::Promotion {
            self.scope
                .with_metrics(|_, m| m.counter_add("rrc.promotions", 1));
        }
        out.push(RrcTransition { at, to });
    }

    /// Time spent in `state` through `now` (including the currently running
    /// stint when `state` is the current state).
    pub fn residency_ns(&self, state: RrcState, now: SimTime) -> u64 {
        let mut ns = self.residency_ns[state.index()];
        if state == self.state {
            ns += now.saturating_since(self.state_entered_at).as_nanos();
        }
        ns
    }

    /// Sum of all state residencies through `now`. Tracking starts at
    /// [`SimTime::ZERO`], so this must equal `now.as_nanos()` — the
    /// `residency_sum` invariant.
    pub fn residency_sum_ns(&self, now: SimTime) -> u64 {
        RrcState::ALL
            .iter()
            .map(|&s| self.residency_ns(s, now))
            .sum()
    }

    /// Current state.
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// The machine's timing configuration.
    pub fn config(&self) -> &RrcConfig {
        &self.config
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Data wants to flow (a packet was sent or received, or a subflow is
    /// being established). Returns the transitions performed, if any, and
    /// the time at which the data can actually flow (promotion may delay it).
    /// Due timers are fired first, so the result is correct even if the
    /// caller has not polled recently.
    pub fn on_activity(&mut self, now: SimTime) -> (Vec<RrcTransition>, SimTime) {
        let mut transitions = self.poll(now);
        match self.state {
            RrcState::Idle => {
                self.promotion_end = now + self.config.promotion_delay;
                self.promotions += 1;
                self.transition(now, RrcState::Promotion, &mut transitions);
                (transitions, self.promotion_end)
            }
            RrcState::Promotion => (transitions, self.promotion_end),
            RrcState::Active => {
                self.last_activity = now;
                (transitions, now)
            }
            RrcState::Tail => {
                // Data during the tail reactivates without promotion cost.
                self.last_activity = now;
                self.transition(now, RrcState::Active, &mut transitions);
                (transitions, now)
            }
        }
    }

    /// The next time at which [`poll`](Self::poll) could change state, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self.state {
            RrcState::Idle => None,
            RrcState::Promotion => Some(self.promotion_end),
            RrcState::Active => Some(self.last_activity + self.config.inactivity_timeout),
            RrcState::Tail => Some(self.tail_end),
        }
    }

    /// Advance timers to `now`, performing any due transitions in order.
    pub fn poll(&mut self, now: SimTime) -> Vec<RrcTransition> {
        let mut transitions = Vec::new();
        loop {
            match self.state {
                RrcState::Promotion if now >= self.promotion_end => {
                    self.last_activity = self.promotion_end;
                    let at = self.promotion_end;
                    self.transition(at, RrcState::Active, &mut transitions);
                }
                RrcState::Active if now >= self.last_activity + self.config.inactivity_timeout => {
                    let tail_start = self.last_activity + self.config.inactivity_timeout;
                    self.tail_end = tail_start + self.config.tail_duration;
                    self.transition(tail_start, RrcState::Tail, &mut transitions);
                }
                RrcState::Tail if now >= self.tail_end => {
                    let at = self.tail_end;
                    self.transition(at, RrcState::Idle, &mut transitions);
                }
                _ => break,
            }
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn machine() -> RrcMachine {
        RrcMachine::new(RrcConfig {
            promotion_delay: SimDuration::from_millis(400),
            inactivity_timeout: SimDuration::from_millis(100),
            tail_duration: SimDuration::from_secs(10),
        })
    }

    #[test]
    fn idle_to_promotion_to_active() {
        let mut m = machine();
        assert_eq!(m.state(), RrcState::Idle);
        assert_eq!(m.next_deadline(), None);

        let (tr, ready) = m.on_activity(s(1));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].to, RrcState::Promotion);
        assert_eq!(ready, s(1) + SimDuration::from_millis(400));
        assert_eq!(m.promotions(), 1);

        // Poll before the promotion ends: nothing happens.
        assert!(m.poll(s(1) + SimDuration::from_millis(100)).is_empty());
        assert_eq!(m.state(), RrcState::Promotion);

        let tr = m.poll(ready);
        assert_eq!(
            tr,
            vec![RrcTransition {
                at: ready,
                to: RrcState::Active
            }]
        );
        assert_eq!(m.state(), RrcState::Active);
    }

    #[test]
    fn activity_during_promotion_does_not_restart_it() {
        let mut m = machine();
        let (_, ready1) = m.on_activity(s(1));
        let (tr, ready2) = m.on_activity(s(1) + SimDuration::from_millis(50));
        assert!(tr.is_empty());
        assert_eq!(ready1, ready2);
        assert_eq!(m.promotions(), 1);
    }

    #[test]
    fn inactivity_enters_tail_then_idle() {
        let mut m = machine();
        let (_, ready) = m.on_activity(s(0));
        m.poll(ready); // Active at 0.4 s
                       // No further activity: tail starts at 0.5 s, idle at 10.5 s.
        let tr = m.poll(s(20));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].to, RrcState::Tail);
        assert_eq!(tr[0].at, SimTime::from_millis(500));
        assert_eq!(tr[1].to, RrcState::Idle);
        assert_eq!(tr[1].at, SimTime::from_millis(10_500));
        assert_eq!(m.state(), RrcState::Idle);
    }

    #[test]
    fn activity_in_tail_reactivates_without_promotion() {
        let mut m = machine();
        let (_, ready) = m.on_activity(s(0));
        m.poll(ready);
        m.poll(s(1)); // now in Tail (entered at 0.5 s)
        assert_eq!(m.state(), RrcState::Tail);
        let (tr, ready) = m.on_activity(s(1));
        assert_eq!(tr[0].to, RrcState::Active);
        assert_eq!(ready, s(1)); // immediate, no promotion
        assert_eq!(m.promotions(), 1);
    }

    #[test]
    fn ongoing_activity_keeps_active() {
        let mut m = machine();
        let (_, ready) = m.on_activity(s(0));
        m.poll(ready);
        for ms in (450..5_000).step_by(50) {
            let t = SimTime::from_millis(ms);
            assert!(m.poll(t).is_empty(), "unexpected transition at {t}");
            m.on_activity(t);
        }
        assert_eq!(m.state(), RrcState::Active);
        assert_eq!(m.promotions(), 1);
    }

    #[test]
    fn full_cycle_costs_second_promotion() {
        let mut m = machine();
        let (_, ready) = m.on_activity(s(0));
        m.poll(ready);
        m.poll(s(30)); // all the way back to idle
        let (tr, _) = m.on_activity(s(30));
        assert_eq!(tr[0].to, RrcState::Promotion);
        assert_eq!(m.promotions(), 2);
    }

    #[test]
    fn state_predicates() {
        assert!(!RrcState::Promotion.can_transfer());
        assert!(RrcState::Active.can_transfer());
        assert!(RrcState::Tail.can_transfer());
    }

    #[test]
    fn residencies_partition_elapsed_time() {
        let mut m = machine();
        let (_, ready) = m.on_activity(s(1));
        m.poll(ready);
        m.poll(s(30)); // through the tail, back to idle
        let now = s(40);
        assert_eq!(m.residency_sum_ns(now), now.as_nanos());
        assert_eq!(
            m.residency_ns(RrcState::Promotion, now),
            SimDuration::from_millis(400).as_nanos()
        );
        assert_eq!(
            m.residency_ns(RrcState::Tail, now),
            SimDuration::from_secs(10).as_nanos()
        );
    }

    #[test]
    fn deadlines_track_state() {
        let mut m = machine();
        let (_, ready) = m.on_activity(s(2));
        assert_eq!(m.next_deadline(), Some(ready));
        m.poll(ready);
        assert_eq!(
            m.next_deadline(),
            Some(ready + SimDuration::from_millis(100))
        );
    }
}
