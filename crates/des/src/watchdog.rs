//! Handshake deadlock watchdog.
//!
//! The kernel itself cannot know which signals form a handshake, so
//! link-level construction code registers each req/ack (or
//! VALID/ack) pair with [`crate::Simulator::watch_handshake`]. When a
//! run goes quiet — the event queue drains, a wall budget expires, or
//! the event limit trips — [`crate::Simulator::deadlock_report`]
//! inspects every registered pair and reports the ones caught
//! mid-protocol as a structured [`DeadlockReport`]: which handshake,
//! the levels and last transition times of both wires, and the
//! components waiting on them. A four-phase handshake at rest has
//! req == ack; anything else at quiescence is a stall.

use std::fmt;

use crate::{Time, Value};

/// One handshake caught mid-protocol: the request and acknowledge
/// levels disagree, so one side is waiting on a transition that never
/// arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct StalledHandshake {
    /// Label given at registration (e.g. `"i2.buf2"`).
    pub label: String,
    /// Full path of the request (or VALID) wire.
    pub req_path: String,
    /// Full path of the acknowledge wire.
    pub ack_path: String,
    /// Committed value of the request wire.
    pub req_value: Value,
    /// Committed value of the acknowledge wire.
    pub ack_value: Value,
    /// Last committed transition of the request wire.
    pub req_last_change: Time,
    /// Last committed transition of the acknowledge wire.
    pub ack_last_change: Time,
    /// Names of the components listening on either wire — the parties
    /// stuck waiting for the missing transition.
    pub waiting: Vec<String>,
}

impl fmt::Display for StalledHandshake {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] req {}={:?} (last change {}) vs ack {}={:?} (last change {})",
            self.label,
            self.req_path,
            self.req_value,
            self.req_last_change,
            self.ack_path,
            self.ack_value,
            self.ack_last_change,
        )?;
        if !self.waiting.is_empty() {
            write!(f, "; waiting: {}", self.waiting.join(", "))?;
        }
        Ok(())
    }
}

/// Structured diagnosis of a simulation that stopped with handshakes
/// mid-protocol. Produced by [`crate::Simulator::deadlock_report`] and
/// attached to [`crate::SimError::EventLimitExceeded`] when available.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockReport {
    /// Simulation time of the diagnosis.
    pub at: Time,
    /// Every registered handshake found stalled, in registration order.
    pub stalled: Vec<StalledHandshake>,
}

impl DeadlockReport {
    /// The label of the first stalled handshake — a convenient short
    /// culprit name for log lines and assertions.
    pub fn first_label(&self) -> Option<&str> {
        self.stalled.first().map(|s| s.label.as_str())
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock diagnosis at {}: {} stalled handshake(s)",
            self.at,
            self.stalled.len()
        )?;
        for s in &self.stalled {
            write!(f, "\n  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_names_the_stalled_pair() {
        let report = DeadlockReport {
            at: Time::from_ns(3),
            stalled: vec![StalledHandshake {
                label: "i2.buf2".to_string(),
                req_path: "link.wire.seg_r2".to_string(),
                ack_path: "link.ack_in2".to_string(),
                req_value: Value::one(1),
                ack_value: Value::zero(1),
                req_last_change: Time::from_ns(2),
                ack_last_change: Time::from_ps(500),
                waiting: vec!["buf2.lt_c".to_string()],
            }],
        };
        let text = report.to_string();
        assert!(text.contains("1 stalled handshake"));
        assert!(text.contains("i2.buf2"));
        assert!(text.contains("link.wire.seg_r2"));
        assert!(text.contains("link.ack_in2"));
        assert!(text.contains("buf2.lt_c"));
        assert_eq!(report.first_label(), Some("i2.buf2"));
    }
}
