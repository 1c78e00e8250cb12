//! Value-change-dump (VCD) export.
//!
//! A thin convenience wrapper over the trace subsystem: when the
//! simulator carries a record-retaining [`TraceSink`](crate::trace::TraceSink)
//! (installed by
//! [`Simulator::set_trace_sink`](crate::Simulator::set_trace_sink)),
//! [`write_vcd`] captures a [`TraceDump`] and serialises it in the
//! standard IEEE 1364 VCD format readable by GTKWave and most EDA
//! waveform viewers.

use std::io::{self, Write};

use crate::trace::TraceDump;
use crate::Simulator;

/// Writes the recorded trace of `sim` as a VCD document.
///
/// Scopes are flattened into one VCD module per hierarchical scope
/// path. The timescale is 1 fs, matching the kernel's resolution.
///
/// # Errors
///
/// Returns any I/O error from the writer. Returns
/// [`io::ErrorKind::InvalidInput`] if the simulator carries no trace
/// sink that retains records.
///
/// # Examples
///
/// ```
/// use sal_des::{MemoryTrace, Simulator, Time, Value};
/// let mut sim = Simulator::new();
/// let a = sim.add_signal("a", 1);
/// sim.set_trace_sink(Box::new(MemoryTrace::new()));
/// sim.stimulus(a, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(5), Value::one(1))]);
/// sim.run_to_quiescence()?;
/// let mut out = Vec::new();
/// sal_des::vcd::write_vcd(&sim, &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("$timescale 1 fs $end"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_vcd<W: Write>(sim: &Simulator, w: W) -> io::Result<()> {
    let dump = TraceDump::capture(sim).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "simulator carries no record-retaining trace sink \
             (install a MemoryTrace or RingTrace with set_trace_sink)",
        )
    })?;
    dump.write_vcd(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::idcode;
    use crate::trace::MemoryTrace;
    use crate::{Time, Value};

    #[test]
    fn idcodes_are_unique_and_printable() {
        let codes: Vec<String> = (0..500).map(idcode).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
        assert!(codes.iter().all(|c| c.bytes().all(|b| (b'!'..=b'~').contains(&b))));
    }

    #[test]
    fn writes_header_and_changes() {
        let mut sim = Simulator::new();
        sim.push_scope("blk");
        let a = sim.add_signal("a", 4);
        sim.pop_scope();
        sim.set_trace_sink(Box::new(MemoryTrace::new()));
        sim.stimulus(
            a,
            &[(Time::ZERO, Value::from_u64(4, 0)), (Time::from_ps(3), Value::from_u64(4, 0b1010))],
        );
        sim.run_to_quiescence().unwrap();
        let mut out = Vec::new();
        write_vcd(&sim, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$scope module blk $end"));
        assert!(text.contains("$var wire 4"));
        assert!(text.contains("#3000"));
        assert!(text.contains("b1010 "));
    }

    #[test]
    fn errors_without_trace() {
        let sim = Simulator::new();
        let mut out = Vec::new();
        let err = write_vcd(&sim, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
