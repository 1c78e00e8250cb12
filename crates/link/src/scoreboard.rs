//! End-to-end data-integrity scoreboard.
//!
//! The fault-injection experiments need a sharper verdict than "the
//! run finished": a marginal link can deliver the right *number* of
//! words with the wrong *contents* (bundled-data skew corrupting late
//! bits), deliver a word twice (a re-fired handshake), drop one, or
//! reorder neighbours. [`check_integrity`] compares the sent and
//! received word streams and classifies every discrepancy.

/// Counts of end-to-end delivery failures for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounts {
    /// Words offered by the sending switch.
    pub sent: usize,
    /// Words delivered to the receiving switch.
    pub received: usize,
    /// Delivered words whose payload matches no pending sent word at
    /// that position (bit errors in flight).
    pub corrupted: usize,
    /// Sent words that never arrived.
    pub lost: usize,
    /// Words delivered more times than they were sent.
    pub duplicated: usize,
    /// Words delivered out of order relative to the send stream.
    pub reordered: usize,
}

impl IntegrityCounts {
    /// `true` when every word arrived exactly once, in order, intact.
    pub fn is_clean(&self) -> bool {
        self.sent == self.received
            && self.corrupted == 0
            && self.lost == 0
            && self.duplicated == 0
            && self.reordered == 0
    }

    /// Total number of integrity violations of any class.
    pub fn violations(&self) -> usize {
        self.corrupted + self.lost + self.duplicated + self.reordered
    }
}

impl std::fmt::Display for IntegrityCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} delivered, {} corrupted, {} lost, {} duplicated, {} reordered",
            self.received, self.sent, self.corrupted, self.lost, self.duplicated, self.reordered
        )
    }
}

/// Counters from the protection/recovery layer's observability taps,
/// collected per run when [`LinkSpec::protection`] is enabled (see
/// [`LinkRun::recovery`]).
///
/// These complete the scoreboard's NACK accounting: a word the
/// checker rejected shows up here as a NACK (and usually a retry),
/// while its eventual fate shows up in [`IntegrityCounts`] — clean if
/// a retransmission got it through, `lost` if the transmitter gave
/// up, never silently `corrupted` while detection holds.
///
/// [`LinkSpec::protection`]: crate::LinkSpec::protection
/// [`LinkRun::recovery`]: crate::LinkRun::recovery
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// NACK pulses heard at the transmitter (words the receive-side
    /// checker consumed as corrupted).
    pub nacks: u64,
    /// Backoff episodes (each one is a retransmission attempt, by
    /// NACK or by timeout).
    pub retries: u64,
    /// Retransmissions triggered by the ring-oscillator timeout
    /// rather than an explicit NACK.
    pub timeouts: u64,
    /// Watchdog-triggered resync drains of the link core.
    pub resyncs: u64,
    /// Words abandoned after six consecutive failures
    /// (each one is a `lost` word in [`IntegrityCounts`]).
    pub gave_up: u64,
    /// `true` if the I3 link degraded to per-transfer-ack pacing at
    /// any point (sticky for the rest of the run).
    pub degraded: bool,
}

impl RecoveryCounts {
    /// `true` when the recovery layer never had to act: no NACKs, no
    /// retries, no resyncs, no abandoned words.
    pub fn is_quiet(&self) -> bool {
        self.nacks == 0
            && self.retries == 0
            && self.timeouts == 0
            && self.resyncs == 0
            && self.gave_up == 0
            && !self.degraded
    }
}

impl std::fmt::Display for RecoveryCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nacks, {} retries ({} by timeout), {} resyncs, {} abandoned{}",
            self.nacks,
            self.retries,
            self.timeouts,
            self.resyncs,
            self.gave_up,
            if self.degraded { ", degraded" } else { "" }
        )
    }
}

/// Compares the received word stream against the sent stream.
///
/// Classification walks both streams with a matching window:
///
/// * a received word equal to the next unmatched sent word is a clean,
///   in-order delivery;
/// * a received word equal to a *later* pending sent word is counted
///   as `reordered` (the skipped sent words stay pending);
/// * a received word equal to an *already matched* sent word is
///   `duplicated`;
/// * anything else is `corrupted`;
/// * pending sent words left at the end are `lost`.
pub fn check_integrity(sent: &[u64], received: &[u64]) -> IntegrityCounts {
    let mut counts = IntegrityCounts {
        sent: sent.len(),
        received: received.len(),
        ..IntegrityCounts::default()
    };
    let mut matched = vec![false; sent.len()];
    // Next in-order candidate: first unmatched sent index.
    let mut cursor = 0usize;
    for &w in received {
        while cursor < sent.len() && matched[cursor] {
            cursor += 1;
        }
        if cursor < sent.len() && sent[cursor] == w {
            matched[cursor] = true;
            continue;
        }
        // Out-of-order: some later pending word?
        if let Some(j) = (cursor..sent.len()).find(|&j| !matched[j] && sent[j] == w) {
            matched[j] = true;
            counts.reordered += 1;
            continue;
        }
        // Re-delivery of something already matched?
        if sent.iter().zip(&matched).any(|(&s, &m)| m && s == w) {
            counts.duplicated += 1;
            continue;
        }
        counts.corrupted += 1;
    }
    counts.lost = matched.iter().filter(|&&m| !m).count();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_is_clean() {
        let words = [1u64, 2, 3, 4];
        let c = check_integrity(&words, &words);
        assert!(c.is_clean(), "{c}");
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn corruption_detected() {
        let c = check_integrity(&[1, 2, 3], &[1, 0xBAD, 3]);
        assert_eq!(c.corrupted, 1);
        assert_eq!(c.lost, 1); // the real word 2 never arrived
        assert!(!c.is_clean());
    }

    #[test]
    fn loss_detected() {
        let c = check_integrity(&[1, 2, 3], &[1, 3]);
        assert_eq!(c.lost, 1);
        assert_eq!(c.reordered, 1); // 3 arrived while 2 was pending
        assert_eq!(c.corrupted, 0);
    }

    #[test]
    fn duplication_detected() {
        let c = check_integrity(&[1, 2], &[1, 1, 2]);
        assert_eq!(c.duplicated, 1);
        assert_eq!(c.lost, 0);
    }

    #[test]
    fn reorder_detected() {
        let c = check_integrity(&[1, 2, 3, 4], &[1, 3, 2, 4]);
        assert_eq!(c.reordered, 1);
        assert_eq!(c.lost, 0);
        assert_eq!(c.corrupted, 0);
    }

    #[test]
    fn repeated_payloads_match_pairwise() {
        // The same value sent twice and received twice is clean even
        // though the payloads are indistinguishable.
        let c = check_integrity(&[7, 7, 8], &[7, 7, 8]);
        assert!(c.is_clean(), "{c}");
    }
}
