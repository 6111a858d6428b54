#![forbid(unsafe_code)]
//! Deterministic observability for the eMPTCP reproduction.
//!
//! Three facilities, all driven by the simulated clock and therefore
//! reproducible bit-for-bit across runs with the same seed:
//!
//! * **event tracing** — typed [`TraceEvent`]s emitted from every layer of
//!   the stack into a [`TraceSink`] (JSONL file, memory buffer, or nothing);
//! * **metrics** — a [`MetricsRegistry`] of counters/gauges/histograms
//!   snapshottable at any [`SimTime`] as deterministic JSON;
//! * **invariants** — an [`InvariantObserver`] that checks stack-wide
//!   conservation properties online and records violations.
//!
//! The entry point is the [`Telemetry`] handle: cheap to clone, thread-safe,
//! and in one of three states, each paying only for what is read:
//!
//! * **disabled** ([`Telemetry::disabled`]) — a single `Option` check; event
//!   construction, metric-name formatting and invariant arithmetic are all
//!   skipped via closures, so an uninstrumented run pays essentially nothing;
//! * **metrics + invariants** (built without a recording sink) — counters,
//!   histograms and invariant checks run, but no event is ever constructed:
//!   [`TelemetryScope::emit`] skips its closure, since a [`NullSink`]
//!   would drop whatever it built;
//! * **traced** (built with a recording sink, [`Telemetry::tracing_active`])
//!   — events are built and recorded as well.
//!
//! Instrumented components hold a [`TelemetryScope`] (a handle plus the
//! connection/subflow ids identifying the component), defaulting to
//! disabled so constructors don't change; the host simulation wires real
//! scopes in when tracing is requested.

mod events;
pub mod invariant;
pub mod log;
pub mod metrics;
mod sink;

pub use events::{TraceEvent, DELIVERED_EMIT_BYTES};
pub use invariant::{InvariantObserver, Violation};
pub use metrics::{
    parse_router_port_metric, parse_shard_metric, router_port_metric, shard_metric, Histogram,
    MetricsRegistry,
};
pub use sink::{jsonl_line, parse_jsonl_line, JsonlSink, MemorySink, NullSink, TeeSink, TraceSink};

use emptcp_sim::SimTime;
use std::sync::{Arc, Mutex};

struct Inner {
    sink: Mutex<Box<dyn TraceSink>>,
    metrics: Mutex<MetricsRegistry>,
    invariants: Option<Mutex<InvariantObserver>>,
    /// True when the sink actually records events (not a [`NullSink`]).
    traced: bool,
}

/// Handle to a telemetry pipeline. Clones share the same sink, metrics
/// registry and invariant observer.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Configures and builds a [`Telemetry`] pipeline.
pub struct Builder {
    sink: Box<dyn TraceSink>,
    invariants: bool,
}

impl Telemetry {
    /// A telemetry handle that records nothing; the emit path is a single
    /// branch and event closures never run.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Start building an enabled pipeline (defaults: no trace sink,
    /// metrics on, invariants off).
    pub fn builder() -> Builder {
        Builder {
            sink: Box::new(NullSink),
            invariants: false,
        }
    }

    /// True when any telemetry facility is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when emitted events are actually recorded somewhere (the
    /// pipeline was built with a non-null sink). Parallel harnesses use
    /// this to serialize work whose trace ordering must be reproducible.
    #[inline]
    pub fn tracing_active(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.traced)
    }

    /// Emit a trace event; the closure only runs when the sink records
    /// (see [`tracing_active`](Self::tracing_active)).
    #[inline]
    fn emit_with(&self, t: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = self.inner.as_ref().filter(|inner| inner.traced) {
            let event = make();
            inner
                .sink
                .lock()
                .expect("trace sink poisoned")
                .record(t, &event);
        }
    }

    /// Emit an already-constructed trace event.
    pub fn emit(&self, t: SimTime, event: TraceEvent) {
        self.emit_with(t, || event);
    }

    /// Run `f` against the metrics registry; skipped when disabled, so
    /// metric-name formatting stays off the disabled hot path.
    #[inline]
    pub fn with_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.metrics.lock().expect("metrics poisoned"));
        }
    }

    /// True when invariant checking was enabled at build time.
    #[inline]
    pub fn invariants_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.invariants.is_some())
    }

    /// Run `f` against the invariant observer (skipped unless invariants
    /// are enabled). Any violations `f` records are also emitted as
    /// [`TraceEvent::InvariantViolated`] events and counted under the
    /// `invariants.violations` metric.
    pub fn check_invariants(&self, t: SimTime, f: impl FnOnce(&mut InvariantObserver)) {
        let Some(inner) = &self.inner else { return };
        let Some(observer) = &inner.invariants else {
            return;
        };
        let new: Vec<Violation> = {
            let mut obs = observer.lock().expect("invariant observer poisoned");
            let before = obs.violations().len();
            f(&mut obs);
            obs.violations()[before..].to_vec()
        };
        for v in new {
            self.with_metrics(|m| m.counter_add("invariants.violations", 1));
            self.emit(
                t,
                TraceEvent::InvariantViolated {
                    name: v.name,
                    detail: v.detail,
                },
            );
        }
    }

    /// All invariant violations recorded so far (empty when checking is
    /// disabled).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.invariants.as_ref())
            .map(|obs| {
                obs.lock()
                    .expect("invariant observer poisoned")
                    .violations()
                    .to_vec()
            })
            .unwrap_or_default()
    }

    /// A deterministic JSON snapshot of the metrics registry at time `at`,
    /// or `None` when telemetry is disabled.
    pub fn metrics_snapshot(&self, at: SimTime) -> Option<serde_json::Value> {
        self.inner
            .as_ref()
            .map(|inner| inner.metrics.lock().expect("metrics poisoned").snapshot(at))
    }

    /// Fold a finished run's private pipeline into this one: counters and
    /// histograms sum, violations join the observer's list. `metrics`
    /// already carries the run's `invariants.violations` count, so nothing
    /// is counted twice; no event is emitted (callers use this only where
    /// no trace is recorded).
    pub fn absorb(&self, metrics: &MetricsRegistry, violations: &[Violation]) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics poisoned")
            .merge(metrics);
        if let Some(observer) = &inner.invariants {
            let mut obs = observer.lock().expect("invariant observer poisoned");
            for v in violations {
                obs.report(v.at, v.name, v.detail.clone());
            }
        }
    }

    /// Clone out the current metrics registry (for merging across runs).
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.inner
            .as_ref()
            .map(|inner| inner.metrics.lock().expect("metrics poisoned").clone())
    }

    /// Flush the trace sink (call once at end of run).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.sink.lock().expect("trace sink poisoned").flush(),
            None => Ok(()),
        }
    }

    /// Derive a scope for connection `conn`.
    pub fn scope(&self, conn: u32) -> TelemetryScope {
        TelemetryScope {
            telemetry: self.clone(),
            conn,
            subflow: 0,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Builder {
    /// Attach a trace sink receiving every emitted event.
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Builder {
        self.sink = sink;
        self
    }

    /// Enable online invariant checking.
    pub fn invariants(mut self, on: bool) -> Builder {
        self.invariants = on;
        self
    }

    /// Build the enabled telemetry handle.
    pub fn build(self) -> Telemetry {
        let traced = !self.sink.is_null();
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(self.sink),
                metrics: Mutex::new(MetricsRegistry::new()),
                invariants: self
                    .invariants
                    .then(|| Mutex::new(InvariantObserver::new())),
                traced,
            })),
        }
    }
}

/// A [`Telemetry`] handle plus the identity of the component emitting
/// through it: connection id and (where applicable) subflow id.
///
/// `Default`/[`TelemetryScope::disabled`] produce an inert scope, so
/// instrumented structs can hold one unconditionally.
#[derive(Clone, Default)]
pub struct TelemetryScope {
    telemetry: Telemetry,
    /// Connection id this scope reports under.
    pub conn: u32,
    /// Subflow id this scope reports under (0 when not subflow-specific).
    pub subflow: u8,
}

impl std::fmt::Debug for TelemetryScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryScope")
            .field("enabled", &self.enabled())
            .field("conn", &self.conn)
            .field("subflow", &self.subflow)
            .finish()
    }
}

impl TelemetryScope {
    /// An inert scope: nothing is recorded through it.
    pub fn disabled() -> TelemetryScope {
        TelemetryScope::default()
    }

    /// A copy of this scope labelled with a subflow id.
    pub fn with_subflow(&self, subflow: u8) -> TelemetryScope {
        TelemetryScope {
            telemetry: self.telemetry.clone(),
            conn: self.conn,
            subflow,
        }
    }

    /// True when metrics (and invariant checks, if built in) reported
    /// through this scope are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// True when events emitted through this scope are recorded. Sites
    /// that prepare an event's inputs ahead of [`emit`](Self::emit) gate
    /// that work on this, not on [`enabled`](Self::enabled).
    #[inline]
    pub fn tracing_active(&self) -> bool {
        self.telemetry.tracing_active()
    }

    /// Emit an event built by `make`, which receives the scope to pick up
    /// `conn`/`subflow` labels. Runs only when the sink records.
    #[inline]
    pub fn emit(&self, t: SimTime, make: impl FnOnce(&TelemetryScope) -> TraceEvent) {
        self.telemetry.emit_with(t, || make(self));
    }

    /// Access the metrics registry; the closure receives the scope so
    /// metric names can carry `conn`/`subflow` labels. Skipped (no name
    /// formatting) when disabled.
    #[inline]
    pub fn with_metrics(&self, f: impl FnOnce(&TelemetryScope, &mut MetricsRegistry)) {
        self.telemetry.with_metrics(|m| f(self, m));
    }

    /// Run invariant checks through the underlying handle.
    pub fn check_invariants(&self, t: SimTime, f: impl FnOnce(&mut InvariantObserver)) {
        self.telemetry.check_invariants(t, f);
    }

    /// The underlying telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

// ---------------------------------------------------------------------------
// Per-thread default pipeline
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread pipeline override; see [`with_current`].
    static THREAD_OVERRIDE: std::cell::RefCell<Option<Telemetry>> =
        const { std::cell::RefCell::new(None) };
}

/// The pipeline simulations created on this thread should report into:
/// the innermost [`with_current`] override if one is active, otherwise
/// [`Telemetry::disabled`].
///
/// The experiment engine installs a per-exhibit pipeline around each
/// exhibit with [`with_current`], so exhibits running concurrently on
/// several threads keep their metrics and traces separated exactly as a
/// serial one-exhibit-at-a-time loop would.
pub fn current() -> Telemetry {
    THREAD_OVERRIDE
        .with(|o| o.borrow().clone())
        .unwrap_or_default()
}

/// Run `f` with `telemetry` installed as this thread's [`current`]
/// pipeline, restoring the previous override afterwards (also on panic).
pub fn with_current<R>(telemetry: Telemetry, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Telemetry>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            THREAD_OVERRIDE.with(|o| *o.borrow_mut() = prev);
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.borrow_mut().replace(telemetry));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn disabled_telemetry_never_runs_closures() {
        let tel = Telemetry::disabled();
        tel.emit_with(SimTime::ZERO, || unreachable!("must not construct"));
        tel.with_metrics(|_| unreachable!("must not run"));
        tel.check_invariants(SimTime::ZERO, |_| unreachable!("must not run"));
        assert!(!tel.enabled());
        assert!(tel.metrics_snapshot(SimTime::ZERO).is_none());
    }

    #[test]
    fn events_reach_a_shared_memory_sink() {
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let tel = Telemetry::builder().sink(Box::new(sink.clone())).build();
        tel.emit(
            SimTime::from_millis(5),
            TraceEvent::RrcTransition {
                from: "Idle",
                to: "Promotion",
            },
        );
        assert_eq!(sink.lock().unwrap().records.len(), 1);
    }

    #[test]
    fn invariant_violations_surface_as_events_and_metrics() {
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let tel = Telemetry::builder()
            .sink(Box::new(sink.clone()))
            .invariants(true)
            .build();
        tel.check_invariants(SimTime::from_secs(1), |obs| {
            obs.check_ack_conservation(SimTime::from_secs(1), "sf0", 10, 5);
        });
        assert_eq!(tel.violations().len(), 1);
        assert_eq!(tel.metrics().unwrap().counter("invariants.violations"), 1);
        let records = &sink.lock().unwrap().records;
        assert!(matches!(
            records[0].1,
            TraceEvent::InvariantViolated {
                name: "ack_conservation",
                ..
            }
        ));
    }

    #[test]
    fn an_untraced_pipeline_never_builds_an_event() {
        let tel = Telemetry::builder().invariants(true).build();
        let scope = tel.scope(3).with_subflow(1);
        assert!(scope.enabled() && !scope.tracing_active());
        tel.emit_with(SimTime::ZERO, || unreachable!("no sink records"));
        scope.emit(SimTime::ZERO, |_| unreachable!("no sink records"));
        // What is read is still paid for and kept: counters...
        scope.with_metrics(|s, m| m.counter_add(&format!("conn{}.x", s.conn), 2));
        assert_eq!(tel.metrics().unwrap().counter("conn3.x"), 2);
        // ...and invariant checks, violation event dropped unbuilt.
        let t = SimTime::from_secs(1);
        scope.check_invariants(t, |obs| obs.check_ack_conservation(t, "sf1", 10, 5));
        assert_eq!(tel.violations().len(), 1);
        assert_eq!(tel.metrics().unwrap().counter("invariants.violations"), 1);
    }

    #[test]
    fn absorb_folds_a_finished_run_in_without_recounting() {
        let t = SimTime::from_secs(1);
        let run = Telemetry::builder().invariants(true).build();
        run.with_metrics(|m| m.counter_add("tcp.rto", 3));
        run.check_invariants(t, |obs| obs.check_ack_conservation(t, "sf0", 10, 5));
        let (metrics, violations) = (run.metrics().unwrap(), run.violations());

        let job = Telemetry::builder().invariants(true).build();
        job.with_metrics(|m| m.counter_add("tcp.rto", 1));
        job.absorb(&metrics, &violations);
        job.absorb(&metrics, &violations);
        let merged = job.metrics().unwrap();
        assert_eq!(merged.counter("tcp.rto"), 7);
        assert_eq!(merged.counter("invariants.violations"), 2);
        assert_eq!(job.violations(), [violations.clone(), violations].concat());
        // A pipeline without an observer keeps the counters only.
        let bare = Telemetry::builder().build();
        bare.absorb(&metrics, &job.violations());
        assert_eq!(bare.metrics().unwrap().counter("tcp.rto"), 3);
        assert!(bare.violations().is_empty());
        Telemetry::disabled().absorb(&metrics, &[]);
    }

    #[test]
    fn tracing_active_tracks_the_sink() {
        assert!(!Telemetry::disabled().tracing_active());
        assert!(!Telemetry::builder().build().tracing_active());
        let traced = Telemetry::builder()
            .sink(Box::new(MemorySink::new()))
            .build();
        assert!(traced.tracing_active());
    }

    #[test]
    fn with_current_shadows_and_restores() {
        let outer = Telemetry::builder().build();
        let inner = Telemetry::builder().build();
        with_current(outer.clone(), || {
            current().with_metrics(|m| m.counter_add("outer", 1));
            with_current(inner.clone(), || {
                current().with_metrics(|m| m.counter_add("inner", 1));
            });
            current().with_metrics(|m| m.counter_add("outer", 1));
        });
        assert_eq!(outer.metrics().unwrap().counter("outer"), 2);
        assert_eq!(outer.metrics().unwrap().counter("inner"), 0);
        assert_eq!(inner.metrics().unwrap().counter("inner"), 1);
    }

    #[test]
    fn scopes_carry_ids() {
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let tel = Telemetry::builder().sink(Box::new(sink.clone())).build();
        let scope = tel.scope(3).with_subflow(1);
        scope.emit(SimTime::ZERO, |s| TraceEvent::SubflowClosed {
            conn: s.conn,
            subflow: s.subflow,
            reason: "fin",
        });
        assert_eq!(
            sink.lock().unwrap().records[0].1,
            TraceEvent::SubflowClosed {
                conn: 3,
                subflow: 1,
                reason: "fin"
            }
        );
    }
}
