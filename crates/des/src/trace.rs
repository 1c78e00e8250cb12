//! Structured transition tracing with pluggable sinks.
//!
//! Every committed signal change, whether a drive landing from the
//! event queue or a fault force, goes through the kernel's one commit
//! core, which carries an optional trace hook.
//! When a [`TraceSink`] is installed (via
//! [`Simulator::set_trace_sink`](crate::Simulator::set_trace_sink)),
//! each commit is reported as a [`TraceRecord`] — time, signal, old →
//! new value — so a sink sees exactly the transitions the energy
//! ledger charges for. When no sink is installed the hook is a single
//! predictable `None` branch, exactly like the fault hook, so untraced
//! runs stay allocation-free and bit-identical.
//!
//! Two sinks cover the common needs:
//!
//! * [`MemoryTrace`] — records everything in memory, in commit order.
//! * [`RingTrace`] — keeps only the last *N* records (bounded memory
//!   for long runs and tests that only care about the tail).
//!
//! A [`TraceDump`] decouples the recording from the `Simulator`'s
//! lifetime: [`TraceDump::capture`] takes the sink's records together
//! with the signal table (paths, widths, per-toggle energies) as it
//! stands at capture time, and the dump writes an IEEE 1364 VCD
//! document ([`TraceDump::write_vcd`], readable by GTKWave) or JSON
//! lines ([`TraceDump::write_jsonl`]) long after the simulator is
//! gone.

use std::io::{self, Write};

use crate::json::Quoted;
use crate::{Logic, SignalId, Simulator, Time, Value};

/// One committed signal transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Commit time.
    pub time: Time,
    /// The signal that changed.
    pub signal: SignalId,
    /// Committed value before the transition.
    pub old: Value,
    /// Committed value after the transition.
    pub new: Value,
}

/// Static description of one traced signal, captured with a
/// [`TraceDump`], indexed by [`SignalId::index`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSignalMeta {
    /// Full hierarchical path (`scope.name`).
    pub path: String,
    /// Width in bits.
    pub width: u8,
    /// Switching energy charged per bit toggle, femtojoules. Lets
    /// trace consumers attribute energy per transition without asking
    /// the simulator.
    pub energy_per_toggle_fj: f64,
}

/// A consumer of committed-transition records.
///
/// Install one with
/// [`Simulator::set_trace_sink`](crate::Simulator::set_trace_sink).
/// [`TraceSink::record`] runs on the kernel's commit path, so sinks
/// should do bounded work per call; anything expensive belongs in a
/// post-run pass over [`TraceSink::records`].
pub trait TraceSink: 'static {
    /// Called for every committed signal change.
    fn record(&mut self, rec: &TraceRecord);

    /// The retained records as a contiguous in-order slice, if this
    /// sink keeps them that way ([`RingTrace`] does not).
    fn records(&self) -> Option<&[TraceRecord]> {
        None
    }

    /// The retained records in commit order, if this sink keeps any.
    /// The default clones [`TraceSink::records`]; ring sinks override
    /// it to unroll their buffer.
    fn snapshot(&self) -> Option<Vec<TraceRecord>> {
        self.records().map(<[TraceRecord]>::to_vec)
    }
}

/// Unbounded in-memory sink: keeps every record, in commit order.
#[derive(Debug, Default)]
pub struct MemoryTrace {
    records: Vec<TraceRecord>,
}

impl MemoryTrace {
    /// Creates an empty memory sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for MemoryTrace {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(*rec);
    }

    fn records(&self) -> Option<&[TraceRecord]> {
        Some(&self.records)
    }
}

/// Bounded in-memory sink: keeps the most recent `capacity` records
/// and counts the ones it dropped. Useful for tests and for "what
/// happened just before the deadlock" forensics on long runs.
#[derive(Debug)]
pub struct RingTrace {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest retained record once the buffer wrapped.
    head: usize,
    dropped: u64,
}

impl RingTrace {
    /// Creates a ring keeping at most `capacity` records (≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingTrace { buf: Vec::new(), capacity: capacity.max(1), head: 0, dropped: 0 }
    }

    /// Number of records pushed out of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingTrace {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(*rec);
        } else {
            self.buf[self.head] = *rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Option<Vec<TraceRecord>> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        Some(out)
    }
}

/// Formats a value as a fixed-width MSB-first bit string (`x` for
/// unknown bits).
pub fn fmt_bits(v: &Value) -> String {
    let mut s = String::with_capacity(v.width() as usize);
    for i in (0..v.width()).rev() {
        s.push(match v.bit(i) {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
        });
    }
    s
}

fn signal_path(signals: &[TraceSignalMeta], sig: SignalId) -> &str {
    signals.get(sig.index()).map_or("?", |m| m.path.as_str())
}

/// Writes one record as a compact JSON line:
/// `{"t_fs":N,"sig":"path","old":"bits","new":"bits"}`, with the
/// signal path escaped (`Simulator::add_signal` accepts any name).
pub fn write_jsonl_record<W: Write>(
    w: &mut W,
    signals: &[TraceSignalMeta],
    rec: &TraceRecord,
) -> io::Result<()> {
    writeln!(
        w,
        "{{\"t_fs\":{},\"sig\":{},\"old\":\"{}\",\"new\":\"{}\"}}",
        rec.time.as_fs(),
        Quoted(signal_path(signals, rec.signal)),
        fmt_bits(&rec.old),
        fmt_bits(&rec.new),
    )
}

/// A self-contained trace: the signal table plus the recorded
/// transitions, detached from the `Simulator` that produced them.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// Signal metadata, indexed by [`SignalId::index`].
    pub signals: Vec<TraceSignalMeta>,
    /// Recorded transitions, in commit order.
    pub records: Vec<TraceRecord>,
}

impl TraceDump {
    /// Captures the installed sink's retained records together with
    /// the simulator's signal table. Returns `None` if no sink is
    /// installed or the sink retains no records.
    pub fn capture(sim: &Simulator) -> Option<TraceDump> {
        let records = sim.trace_sink()?.snapshot()?;
        Some(TraceDump { signals: sim.trace_signal_metas(), records })
    }

    /// The full path of a recorded signal.
    pub fn path(&self, sig: SignalId) -> &str {
        signal_path(&self.signals, sig)
    }

    /// Writes the trace as JSON lines, one record per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for rec in &self.records {
            write_jsonl_record(&mut w, &self.signals, rec)?;
        }
        Ok(())
    }

    /// Writes the trace as an IEEE 1364 VCD document (timescale 1 fs),
    /// one VCD module per hierarchical scope path.
    pub fn write_vcd<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "$date reproduction of Ogg et al. DATE 2008 $end")?;
        writeln!(w, "$version sal-des $end")?;
        writeln!(w, "$timescale 1 fs $end")?;

        // Group signals by scope path (everything before the last dot)
        // to emit VCD scopes, preserving first-seen order.
        fn scope_of(path: &str) -> &str {
            match path.rfind('.') {
                Some(i) => &path[..i],
                None => "",
            }
        }
        let mut by_scope: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, meta) in self.signals.iter().enumerate() {
            let scope = scope_of(&meta.path);
            match by_scope.iter_mut().find(|(s, _)| *s == scope) {
                Some((_, v)) => v.push(i),
                None => by_scope.push((scope, vec![i])),
            }
        }
        for (scope, sigs) in &by_scope {
            let name = if scope.is_empty() { "top" } else { scope };
            // VCD module names cannot contain dots; replace them.
            writeln!(w, "$scope module {} $end", name.replace('.', "_"))?;
            for &i in sigs {
                let meta = &self.signals[i];
                let leaf = meta.path.rsplit('.').next().unwrap_or(&meta.path);
                writeln!(w, "$var wire {} {} {} $end", meta.width, idcode(i), leaf)?;
            }
            writeln!(w, "$upscope $end")?;
        }
        writeln!(w, "$enddefinitions $end")?;

        writeln!(w, "$dumpvars")?;
        for (i, meta) in self.signals.iter().enumerate() {
            let v = Value::all_x(meta.width);
            writeln!(w, "{}{}", fmt_vcd_value(&v), idcode(i))?;
        }
        writeln!(w, "$end")?;

        let mut last_time = None;
        for rec in &self.records {
            if last_time != Some(rec.time) {
                writeln!(w, "#{}", rec.time.as_fs())?;
                last_time = Some(rec.time);
            }
            writeln!(w, "{}{}", fmt_vcd_value(&rec.new), idcode(rec.signal.index()))?;
        }
        Ok(())
    }
}

fn idcode(mut n: usize) -> String {
    // Printable VCD identifier codes: '!'..='~'.
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

fn fmt_vcd_value(v: &Value) -> String {
    if v.width() == 1 {
        match v.bit(0) {
            Logic::Zero => "0".to_string(),
            Logic::One => "1".to_string(),
            Logic::X => "x".to_string(),
        }
    } else {
        let mut s = String::from("b");
        s.push_str(&fmt_bits(v));
        s.push(' ');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_fs: u64, idx: u32, old: u64, new: u64) -> TraceRecord {
        TraceRecord {
            time: Time::from_fs(t_fs),
            signal: SignalId(idx),
            old: Value::from_u64(4, old),
            new: Value::from_u64(4, new),
        }
    }

    fn metas() -> Vec<TraceSignalMeta> {
        vec![
            TraceSignalMeta { path: "a".into(), width: 4, energy_per_toggle_fj: 1.0 },
            TraceSignalMeta { path: "blk.b".into(), width: 4, energy_per_toggle_fj: 2.0 },
        ]
    }

    #[test]
    fn memory_trace_keeps_everything_in_order() {
        let mut sink = MemoryTrace::new();
        for i in 0..5 {
            sink.record(&rec(i, 0, i, i + 1));
        }
        let records = sink.records().unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3].time, Time::from_fs(3));
        assert_eq!(sink.snapshot().unwrap(), records);
    }

    #[test]
    fn ring_trace_keeps_the_tail() {
        let mut sink = RingTrace::new(3);
        for i in 0..7 {
            sink.record(&rec(i, 0, i, i + 1));
        }
        assert_eq!(sink.dropped(), 4);
        let snap = sink.snapshot().unwrap();
        let times: Vec<u64> = snap.iter().map(|r| r.time.as_fs()).collect();
        assert_eq!(times, vec![4, 5, 6]);
    }

    #[test]
    fn jsonl_line_format() {
        let mut out = Vec::new();
        write_jsonl_record(&mut out, &metas(), &rec(1500, 1, 0b1010, 0b0101)).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"t_fs\":1500,\"sig\":\"blk.b\",\"old\":\"1010\",\"new\":\"0101\"}\n"
        );
    }

    #[test]
    fn jsonl_escapes_signal_paths() {
        // `add_signal` accepts any name; the line must stay valid JSON.
        let mut sim = Simulator::new();
        let s = sim.add_signal("odd\"name\\", 1);
        sim.stimulus(s, &[(Time::from_ps(2), Value::one(1))]);
        sim.set_trace_sink(Box::new(MemoryTrace::new()));
        sim.run_to_quiescence().unwrap();
        let mut out = Vec::new();
        TraceDump::capture(&sim).expect("sink retains records").write_jsonl(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            concat!(r#"{"t_fs":2000,"sig":"odd\"name\\","old":"x","new":"1"}"#, "\n")
        );
    }

    #[test]
    fn dump_vcd_round_trip_structure() {
        let dump = TraceDump { signals: metas(), records: vec![rec(3000, 1, 0, 0b1010)] };
        let mut out = Vec::new();
        dump.write_vcd(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$scope module blk $end"));
        assert!(text.contains("$var wire 4"));
        assert!(text.contains("#3000"));
        assert!(text.contains("b1010 "));
    }

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
    fn fmt_bits_marks_unknowns() {
        assert_eq!(fmt_bits(&Value::all_x(3)), "xxx");
        assert_eq!(fmt_bits(&Value::from_u64(4, 0b0110)), "0110");
    }
}
