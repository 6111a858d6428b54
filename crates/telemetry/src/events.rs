//! Typed trace events.
//!
//! Every event is stamped with the simulation clock at emission and carries
//! only plain data (ids, names, byte counts) so the telemetry crate stays at
//! the bottom of the dependency graph — instrumented crates depend on it,
//! never the other way around.
//!
//! Serialized shape (one JSON object per line in a `.jsonl` trace):
//!
//! ```json
//! {"t_ns": 1500000, "event": {"TcpState": {"conn": 0, "subflow": 1, "from": "SynSent", "to": "Established"}}}
//! ```

use serde::{Deserialize, Error, Serialize};
use serde_json::{Map, Value};

/// Coalescing threshold for [`TraceEvent::Delivered`] emissions: connections
/// accumulate delivered bytes and emit one event per this many bytes (plus a
/// final flush), so the throughput signal stays cheap on the hot path.
pub const DELIVERED_EMIT_BYTES: u64 = 64 * 1024;

/// A structured, simulation-time-stamped event.
///
/// Variants mirror the observable state machines of the stack, bottom-up:
/// radio (RRC, energy), single-path TCP, MPTCP scheduling, and the eMPTCP
/// path-usage controller.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A TCP endpoint moved between protocol states.
    TcpState {
        conn: u32,
        subflow: u8,
        from: &'static str,
        to: &'static str,
    },
    /// Congestion window / slow-start threshold changed materially
    /// (emissions are coalesced to at most one per MSS of cwnd movement).
    CwndChange {
        conn: u32,
        subflow: u8,
        cwnd: u64,
        ssthresh: u64,
        reason: &'static str,
    },
    /// A segment was retransmitted. `kind` is `"fast"` or `"rto"`.
    Retransmit {
        conn: u32,
        subflow: u8,
        seq: u64,
        len: u32,
        kind: &'static str,
    },
    /// The retransmission timer fired.
    RtoFired { conn: u32, subflow: u8, rto_ns: u64 },
    /// In-order payload was delivered to the application. Emissions are
    /// coalesced to one per [`DELIVERED_EMIT_BYTES`] of progress (plus a
    /// final flush when the run ends), so `bytes` is a delta, not a total.
    /// This is the throughput signal the observability pipeline bins.
    Delivered { conn: u32, subflow: u8, bytes: u64 },
    /// The MPTCP scheduler picked a subflow for the next chunk of data.
    SchedPick {
        conn: u32,
        picked: u8,
        /// Subflow ids that were eligible candidates for this pick.
        candidates: Vec<u8>,
        /// Why the pick won: `"min_rtt"`, `"only_candidate"`,
        /// `"unprobed_rtt"` (a zero RTT sorts first, §3.6 resume) or
        /// `"backup_fallback"`.
        reason: &'static str,
        /// Smoothed RTT of the winner at pick time (0 = unmeasured).
        srtt_ns: u64,
    },
    /// A subflow finished its handshake.
    SubflowEstablished {
        conn: u32,
        subflow: u8,
        iface: &'static str,
    },
    /// A subflow was closed or torn down.
    SubflowClosed {
        conn: u32,
        subflow: u8,
        reason: &'static str,
    },
    /// A subflow's MP_PRIO backup flag flipped.
    MpPrio {
        conn: u32,
        subflow: u8,
        backup: bool,
    },
    /// The cellular RRC state machine transitioned.
    RrcTransition {
        from: &'static str,
        to: &'static str,
    },
    /// An energy-meter component changed its draw level.
    EnergyLevel { component: &'static str, watts: f64 },
    /// The eMPTCP path-usage controller changed its decision.
    PathUsage { conn: u32, decision: &'static str },
    /// An invariant observer caught a violated conservation property.
    InvariantViolated { name: &'static str, detail: String },
    /// The fault injector applied a scripted fault to a target interface.
    FaultInjected {
        /// Interface label the fault applies to (`"wifi"`, `"cellular"`).
        target: &'static str,
        /// Human-readable action, e.g. `"iface_down"`, `"rate=500000"`.
        action: String,
    },
    /// Failure detection declared a subflow dead (consecutive RTOs) or a
    /// link-down notification arrived; its in-flight data was queued for
    /// reinjection on surviving subflows.
    SubflowDead {
        conn: u32,
        subflow: u8,
        /// `"rto_threshold"` or `"link_down"`.
        reason: &'static str,
        /// Consecutive RTO expirations observed at declaration time.
        consecutive_rtos: u64,
        /// Bytes of unacknowledged data queued for reinjection.
        reinjected_bytes: u64,
    },
    /// A subflow previously declared dead became usable again (link
    /// restored or acknowledgements resumed).
    SubflowRevived {
        conn: u32,
        subflow: u8,
        reason: &'static str,
    },
    /// A backup subflow was promoted to regular because no regular subflow
    /// survived (MP_PRIO is sent to the peer alongside).
    BackupPromoted { conn: u32, subflow: u8 },
    /// A router output port dropped a packet. `reason` is `"queue_full"`,
    /// `"channel"`, or `"link_down"`.
    RouterDrop {
        router: u32,
        port: u32,
        reason: &'static str,
    },
    /// A router output port's queue crossed its ECN marking threshold
    /// (emissions are edge-triggered on threshold crossings, not
    /// per-enqueue, so quiet ports cost nothing).
    QueueDepth {
        router: u32,
        port: u32,
        /// Bytes queued awaiting serialization at emission time.
        bytes: u64,
        /// Drop-tail capacity of the port queue.
        capacity: u64,
    },
}

impl TraceEvent {
    /// Short kind tag, useful for filtering traces.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TcpState { .. } => "TcpState",
            TraceEvent::CwndChange { .. } => "CwndChange",
            TraceEvent::Retransmit { .. } => "Retransmit",
            TraceEvent::RtoFired { .. } => "RtoFired",
            TraceEvent::Delivered { .. } => "Delivered",
            TraceEvent::SchedPick { .. } => "SchedPick",
            TraceEvent::SubflowEstablished { .. } => "SubflowEstablished",
            TraceEvent::SubflowClosed { .. } => "SubflowClosed",
            TraceEvent::MpPrio { .. } => "MpPrio",
            TraceEvent::RrcTransition { .. } => "RrcTransition",
            TraceEvent::EnergyLevel { .. } => "EnergyLevel",
            TraceEvent::PathUsage { .. } => "PathUsage",
            TraceEvent::InvariantViolated { .. } => "InvariantViolated",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::SubflowDead { .. } => "SubflowDead",
            TraceEvent::SubflowRevived { .. } => "SubflowRevived",
            TraceEvent::BackupPromoted { .. } => "BackupPromoted",
            TraceEvent::RouterDrop { .. } => "RouterDrop",
            TraceEvent::QueueDepth { .. } => "QueueDepth",
        }
    }
}

/// Intern a parsed string into a `&'static str`.
///
/// Every label the stack emits is drawn from a small closed vocabulary, so
/// replaying a trace almost always hits the table below. Strings outside the
/// table (e.g. traces from a newer emitter) are leaked once and cached, so
/// replay memory stays bounded by the number of *distinct* labels, not the
/// trace length.
pub fn intern(s: &str) -> &'static str {
    // Closed vocabulary of every `&'static str` field the emitters use,
    // grouped by the state machine that produces it.
    const KNOWN: &[&str] = &[
        // TCP protocol states.
        "Closed",
        "Listen",
        "SynSent",
        "SynRcvd",
        "Established",
        // cwnd-change / retransmit reasons.
        "ack",
        "fast_retransmit",
        "rto",
        "fast",
        // scheduler pick reasons.
        "min_rtt",
        "only_candidate",
        "backup_fallback",
        // interface labels.
        "WiFi",
        "3G",
        "LTE",
        "wifi",
        "cellular",
        "cell",
        "core",
        "mptcp",
        // subflow lifecycle reasons.
        "fin",
        "link_down",
        "rto_threshold",
        "stalled",
        "link_restored",
        "ack_progress",
        // RRC states.
        "Idle",
        "Promotion",
        "Active",
        "Tail",
        // path-usage decisions.
        "WiFi-only",
        "Cellular-only",
        "Both",
        // invariant names.
        "ack_conservation",
        "dss_coverage",
        "energy_monotone",
        "residency_sum",
        // router drop reasons.
        "queue_full",
        "channel",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == s) {
        return k;
    }
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("intern cache poisoned");
    if let Some(v) = cache.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    cache.insert(s.to_owned(), leaked);
    leaked
}

fn obj<'a>(v: &'a Value, what: &str) -> Result<&'a Map, Error> {
    v.as_object()
        .ok_or_else(|| Error::new(format!("{what}: expected object, got {v:?}")))
}

fn field<'a>(m: &'a Map, variant: &str, key: &str) -> Result<&'a Value, Error> {
    m.get(key)
        .ok_or_else(|| Error::new(format!("{variant}: missing field `{key}`")))
}

fn u64_field(m: &Map, variant: &str, key: &str) -> Result<u64, Error> {
    field(m, variant, key)?
        .as_u64()
        .ok_or_else(|| Error::new(format!("{variant}.{key}: expected u64")))
}

fn u32_field(m: &Map, variant: &str, key: &str) -> Result<u32, Error> {
    u64_field(m, variant, key)?
        .try_into()
        .map_err(|_| Error::new(format!("{variant}.{key}: out of range for u32")))
}

fn u8_field(m: &Map, variant: &str, key: &str) -> Result<u8, Error> {
    u64_field(m, variant, key)?
        .try_into()
        .map_err(|_| Error::new(format!("{variant}.{key}: out of range for u8")))
}

fn f64_field(m: &Map, variant: &str, key: &str) -> Result<f64, Error> {
    field(m, variant, key)?
        .as_f64()
        .ok_or_else(|| Error::new(format!("{variant}.{key}: expected f64")))
}

fn bool_field(m: &Map, variant: &str, key: &str) -> Result<bool, Error> {
    field(m, variant, key)?
        .as_bool()
        .ok_or_else(|| Error::new(format!("{variant}.{key}: expected bool")))
}

fn string_field(m: &Map, variant: &str, key: &str) -> Result<String, Error> {
    field(m, variant, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| Error::new(format!("{variant}.{key}: expected string")))
}

/// Parse a string field into the interned `&'static str` vocabulary.
fn label_field(m: &Map, variant: &str, key: &str) -> Result<&'static str, Error> {
    field(m, variant, key)?
        .as_str()
        .map(intern)
        .ok_or_else(|| Error::new(format!("{variant}.{key}: expected string")))
}

fn u8_vec_field(m: &Map, variant: &str, key: &str) -> Result<Vec<u8>, Error> {
    field(m, variant, key)?
        .as_array()
        .ok_or_else(|| Error::new(format!("{variant}.{key}: expected array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| Error::new(format!("{variant}.{key}: expected u8 element")))
        })
        .collect()
}

/// Hand-rolled inverse of the derived `Serialize` (externally-tagged enum:
/// `{"Variant": {fields}}`). Manual because several fields are `&'static
/// str`, which the derive cannot reconstruct — [`intern`] can.
impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let outer = obj(v, "TraceEvent")?;
        let (tag, body) = outer
            .iter()
            .next()
            .ok_or_else(|| Error::new("TraceEvent: empty object"))?;
        if outer.len() != 1 {
            return Err(Error::new("TraceEvent: expected single-key variant object"));
        }
        let t = tag.as_str();
        let m = obj(body, t)?;
        let ev = match t {
            "TcpState" => TraceEvent::TcpState {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                from: label_field(m, t, "from")?,
                to: label_field(m, t, "to")?,
            },
            "CwndChange" => TraceEvent::CwndChange {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                cwnd: u64_field(m, t, "cwnd")?,
                ssthresh: u64_field(m, t, "ssthresh")?,
                reason: label_field(m, t, "reason")?,
            },
            "Retransmit" => TraceEvent::Retransmit {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                seq: u64_field(m, t, "seq")?,
                len: u32_field(m, t, "len")?,
                kind: label_field(m, t, "kind")?,
            },
            "RtoFired" => TraceEvent::RtoFired {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                rto_ns: u64_field(m, t, "rto_ns")?,
            },
            "Delivered" => TraceEvent::Delivered {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                bytes: u64_field(m, t, "bytes")?,
            },
            "SchedPick" => TraceEvent::SchedPick {
                conn: u32_field(m, t, "conn")?,
                picked: u8_field(m, t, "picked")?,
                candidates: u8_vec_field(m, t, "candidates")?,
                reason: label_field(m, t, "reason")?,
                srtt_ns: u64_field(m, t, "srtt_ns")?,
            },
            "SubflowEstablished" => TraceEvent::SubflowEstablished {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                iface: label_field(m, t, "iface")?,
            },
            "SubflowClosed" => TraceEvent::SubflowClosed {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                reason: label_field(m, t, "reason")?,
            },
            "MpPrio" => TraceEvent::MpPrio {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                backup: bool_field(m, t, "backup")?,
            },
            "RrcTransition" => TraceEvent::RrcTransition {
                from: label_field(m, t, "from")?,
                to: label_field(m, t, "to")?,
            },
            "EnergyLevel" => TraceEvent::EnergyLevel {
                component: label_field(m, t, "component")?,
                watts: f64_field(m, t, "watts")?,
            },
            "PathUsage" => TraceEvent::PathUsage {
                conn: u32_field(m, t, "conn")?,
                decision: label_field(m, t, "decision")?,
            },
            "InvariantViolated" => TraceEvent::InvariantViolated {
                name: label_field(m, t, "name")?,
                detail: string_field(m, t, "detail")?,
            },
            "FaultInjected" => TraceEvent::FaultInjected {
                target: label_field(m, t, "target")?,
                action: string_field(m, t, "action")?,
            },
            "SubflowDead" => TraceEvent::SubflowDead {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                reason: label_field(m, t, "reason")?,
                consecutive_rtos: u64_field(m, t, "consecutive_rtos")?,
                reinjected_bytes: u64_field(m, t, "reinjected_bytes")?,
            },
            "SubflowRevived" => TraceEvent::SubflowRevived {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
                reason: label_field(m, t, "reason")?,
            },
            "BackupPromoted" => TraceEvent::BackupPromoted {
                conn: u32_field(m, t, "conn")?,
                subflow: u8_field(m, t, "subflow")?,
            },
            "RouterDrop" => TraceEvent::RouterDrop {
                router: u32_field(m, t, "router")?,
                port: u32_field(m, t, "port")?,
                reason: label_field(m, t, "reason")?,
            },
            "QueueDepth" => TraceEvent::QueueDepth {
                router: u32_field(m, t, "router")?,
                port: u32_field(m, t, "port")?,
                bytes: u64_field(m, t, "bytes")?,
                capacity: u64_field(m, t, "capacity")?,
            },
            other => return Err(Error::new(format!("unknown TraceEvent variant `{other}`"))),
        };
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_table_entry_for_known_labels() {
        assert_eq!(intern("Established"), "Established");
        assert_eq!(intern("queue_full"), "queue_full");
    }

    #[test]
    fn intern_caches_unknown_labels() {
        let a = intern("some_label_not_in_the_table");
        let b = intern("some_label_not_in_the_table");
        assert_eq!(a, b);
        assert!(
            std::ptr::eq(a, b),
            "unknown labels must be cached, not re-leaked"
        );
    }

    #[test]
    fn deserialize_rejects_unknown_variant() {
        let v: Value = serde_json::from_str(r#"{"NoSuchEvent":{"x":1}}"#).unwrap();
        assert!(TraceEvent::from_value(&v).is_err());
    }

    #[test]
    fn deserialize_rejects_missing_field() {
        let v: Value = serde_json::from_str(r#"{"RtoFired":{"conn":1,"subflow":0}}"#).unwrap();
        let err = TraceEvent::from_value(&v).unwrap_err();
        assert!(format!("{err:?}").contains("rto_ns"));
    }
}
