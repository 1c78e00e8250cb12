//! Kernel error types.

use std::fmt;

use crate::watchdog::DeadlockReport;
use crate::{ComponentId, SignalId, Time};

/// Result alias for kernel operations.
pub type SimResult<T> = Result<T, SimError>;

/// Errors reported by the simulation kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A second component tried to drive a signal that already has a
    /// driver. Every net in the kernel is single-driver.
    MultipleDrivers {
        /// The contested signal.
        signal: SignalId,
        /// The driver already registered.
        existing: ComponentId,
        /// The component that attempted to attach.
        attempted: ComponentId,
    },
    /// A drive was issued with a value whose width differs from the
    /// signal's declared width.
    WidthMismatch {
        /// The signal driven.
        signal: SignalId,
        /// Declared signal width.
        expected: u8,
        /// Width of the driven value.
        actual: u8,
    },
    /// The event limit (see
    /// [`Simulator::set_max_events`](crate::Simulator::set_max_events))
    /// was exceeded, which almost always indicates an oscillating
    /// zero-delay loop or a runaway ring oscillator without a stop
    /// condition.
    EventLimitExceeded {
        /// The simulated time at which the limit tripped.
        at: Time,
        /// The configured limit.
        limit: u64,
        /// Watchdog diagnosis of the stall, when handshake watches
        /// were registered and at least one was caught mid-protocol.
        diagnosis: Option<Box<DeadlockReport>>,
    },
    /// A fault plan named a signal path that does not exist in the
    /// netlist.
    UnknownFaultTarget {
        /// The path that failed to resolve.
        path: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MultipleDrivers { signal, existing, attempted } => write!(
                f,
                "signal {signal:?} already driven by component {existing:?}; \
                 component {attempted:?} cannot also drive it"
            ),
            SimError::WidthMismatch { signal, expected, actual } => write!(
                f,
                "signal {signal:?} has width {expected} but was driven with width {actual}"
            ),
            SimError::EventLimitExceeded { at, limit, diagnosis } => {
                write!(
                    f,
                    "event limit of {limit} events exceeded at t={at}; \
                     possible oscillation or missing stop condition"
                )?;
                if let Some(report) = diagnosis {
                    write!(f, "\n{report}")?;
                }
                Ok(())
            }
            SimError::UnknownFaultTarget { path } => {
                write!(f, "fault plan targets unknown signal path '{path}'")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;

    #[test]
    fn error_messages_are_informative() {
        let e = SimError::MultipleDrivers {
            signal: SignalId(3),
            existing: ComponentId(1),
            attempted: ComponentId(2),
        };
        assert!(e.to_string().contains("already driven"));
        let e = SimError::WidthMismatch { signal: SignalId(0), expected: 8, actual: 4 };
        assert!(e.to_string().contains("width 8"));
        let e = SimError::EventLimitExceeded { at: Time::from_ns(5), limit: 100, diagnosis: None };
        let msg = e.to_string();
        assert!(msg.contains("100") && msg.contains("5ns"));
        let e = SimError::UnknownFaultTarget { path: "link.nope".to_string() };
        assert!(e.to_string().contains("link.nope"));
    }

    #[test]
    fn event_limit_display_includes_diagnosis() {
        use crate::watchdog::{DeadlockReport, StalledHandshake};
        use crate::Value;
        let e = SimError::EventLimitExceeded {
            at: Time::from_ns(9),
            limit: 1000,
            diagnosis: Some(Box::new(DeadlockReport {
                at: Time::from_ns(9),
                stalled: vec![StalledHandshake {
                    label: "hs".to_string(),
                    req_path: "a.req".to_string(),
                    ack_path: "a.ack".to_string(),
                    req_value: Value::one(1),
                    ack_value: Value::zero(1),
                    req_last_change: Time::from_ns(1),
                    ack_last_change: Time::ZERO,
                    waiting: vec![],
                }],
            })),
        };
        let msg = e.to_string();
        assert!(msg.contains("stalled handshake"));
        assert!(msg.contains("a.req"));
    }
}
