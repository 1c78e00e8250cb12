//! The observability metrics layer: structured measurements computed
//! from a run's transition trace.
//!
//! The paper's entire evaluation is "read the waveforms and count
//! transitions" — this module automates that reading. Given the
//! [`TraceDump`] of a measured run plus the handshake pairs the
//! assembly registered with the kernel watchdog, it derives:
//!
//! * per-handshake-pair **latency histograms** (req↑ → ack↑) and
//!   **cycle-time histograms** (req↑ → next req↑);
//! * per-block **energy/power attribution** in the paper's Fig 14
//!   categories, reconciled against the live energy ledger;
//! * link **occupancy** (busy/idle fraction of the averaging window)
//!   and **in-flight word depth** over time (the combined interface
//!   FIFO pressure);
//! * **serializer burst timing**: the gaps between slice strobes on
//!   the first wire segment, the paper's `Tburst` measured directly.
//!
//! Everything here is deterministic: two identical runs produce
//! byte-identical [`LinkMetrics::to_json`] output.

use sal_des::json::Json;
use sal_des::{Logic, NetWatch, Time};
use sal_des::TraceDump;

use crate::LinkFamily;

/// A deterministic latency histogram with logarithmic (power-of-two
/// femtosecond) buckets plus exact count/min/max/sum.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum_fs: u64,
    min_fs: u64,
    max_fs: u64,
    /// `buckets[i]` counts samples with `2^i <= fs < 2^(i+1)`
    /// (bucket 0 also holds zero-duration samples).
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { count: 0, sum_fs: 0, min_fs: u64::MAX, max_fs: 0, buckets: [0; 64] }
    }

    /// Records one sample, a duration in femtoseconds.
    pub fn record_fs(&mut self, fs: u64) {
        self.count += 1;
        self.sum_fs += fs;
        self.min_fs = self.min_fs.min(fs);
        self.max_fs = self.max_fs.max(fs);
        let idx = if fs == 0 { 0 } else { 63 - fs.leading_zeros() as usize };
        self.buckets[idx] += 1;
    }

    /// Records one sample given as a [`Time`] duration.
    pub fn record(&mut self, d: Time) {
        self.record_fs(d.as_fs());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.min_fs as f64 * 1e-6 }
    }

    /// Largest sample in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.max_fs as f64 * 1e-6 }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_fs as f64 / self.count as f64 * 1e-6
        }
    }

    /// The non-empty buckets as `(lower bound fs, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }

    /// Writes the histogram as a one-line object: the count, the three
    /// nanosecond statistics formatted by `ns`, and the non-empty
    /// buckets as compact `[lower_fs,count]` pairs.
    pub fn write_json<'j>(
        &self,
        j: &'j mut Json,
        ns: impl Fn(&mut Json, f64) -> &mut Json,
    ) -> &'j mut Json {
        j.obj();
        j.key("count").num(self.count);
        ns(j.key("min_ns"), self.min_ns());
        ns(j.key("mean_ns"), self.mean_ns());
        ns(j.key("max_ns"), self.max_ns());
        j.key("buckets_fs").arr();
        for (lo, c) in self.buckets() {
            j.raw(&format!("[{lo},{c}]"));
        }
        j.end();
        j.end()
    }
}

/// Latency statistics of one watched req/ack pair.
#[derive(Debug, Clone)]
pub struct HandshakeStats {
    /// Label given at watchdog registration (e.g. `"link.ser slice"`).
    pub label: String,
    /// Full path of the request (or VALID) wire.
    pub req_path: String,
    /// Full path of the acknowledge wire.
    pub ack_path: String,
    /// Completed request→acknowledge transactions.
    pub completed: u64,
    /// req↑ → ack↑ forward latency.
    pub latency: Histogram,
    /// req↑ → next req↑ cycle time.
    pub cycle: Histogram,
    /// True if the pair ended the trace mid-protocol (levels
    /// disagree) — the deadlock watchdog's stall criterion.
    pub open: bool,
}

/// Switching power attributed per block from the trace, in the
/// paper's Fig 14 categories — same convention as
/// [`BlockPower`](crate::measure::BlockPower): `conv_uw` includes the
/// analytical clock power.
#[derive(Debug, Clone, Copy)]
pub struct BlockAttribution {
    /// Sync↔async conversion interfaces: switching energy, fJ.
    pub conv_fj: f64,
    /// Serializer + deserializer switching energy, fJ.
    pub serdes_fj: f64,
    /// Wire buffers / pipeline registers switching energy, fJ.
    pub buffers_fj: f64,
    /// Link-scope glue not attributable to a named block, fJ.
    pub other_fj: f64,
    /// Analytical clock power, µW.
    pub clock_uw: f64,
    /// Conversion interfaces averaged over the window + clock, µW.
    pub conv_uw: f64,
    /// Serializer + deserializer averaged over the window, µW.
    pub serdes_uw: f64,
    /// Wire buffers averaged over the window, µW.
    pub buffers_uw: f64,
    /// Glue averaged over the window, µW.
    pub other_uw: f64,
    /// Whole link averaged over the window, µW.
    pub total_uw: f64,
}

/// Link occupancy over the averaging window.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// First-flit-in to last-flit-out.
    pub in_use: Time,
    /// The averaging window.
    pub window: Time,
    /// Total time at least one word was in flight.
    pub busy: Time,
    /// `busy / window`.
    pub busy_fraction: f64,
    /// `1 - busy_fraction`.
    pub idle_fraction: f64,
}

/// Words in flight (sent but not yet delivered) over time — the
/// combined pressure on the two interface FIFOs and the wire.
#[derive(Debug, Clone, Copy)]
pub struct InFlightDepth {
    /// Peak number of words in flight.
    pub max: u32,
    /// Time-weighted mean depth over the averaging window.
    pub mean: f64,
}

/// Serializer burst timing, measured at the first wire segment.
#[derive(Debug, Clone)]
pub struct BurstStats {
    /// The strobe wire the slices were counted on.
    pub strobe_path: String,
    /// Slice strobes observed (rising edges).
    pub slices: u64,
    /// Gap between consecutive slice strobes (the paper's intra-burst
    /// pacing; inter-word gaps land in the top buckets).
    pub gap: Histogram,
}

/// The full metrics report of one traced link run, surfaced by
/// [`LinkRun::metrics`](crate::measure::LinkRun::metrics).
#[derive(Debug, Clone)]
pub struct LinkMetrics {
    /// The paper's link label (I1/I2/I3).
    pub link: String,
    /// Per-handshake-pair latency statistics, in registration order.
    pub handshakes: Vec<HandshakeStats>,
    /// Per-block energy/power attribution from the trace.
    pub blocks: BlockAttribution,
    /// Busy/idle split of the averaging window.
    pub occupancy: Occupancy,
    /// Words-in-flight depth statistics.
    pub in_flight: InFlightDepth,
    /// Burst timing, when the link serializes (absent for I1).
    pub burst: Option<BurstStats>,
    /// Kernel events processed over the run.
    pub events: u64,
}

/// Everything `compute` needs from the measured run.
pub(crate) struct MetricsInputs<'a> {
    pub family: LinkFamily,
    pub scope: &'a str,
    pub dump: &'a TraceDump,
    /// The handshakes registered with the kernel watchdog.
    pub watches: &'a [NetWatch],
    pub sent: &'a [(Time, u64)],
    pub received: &'a [(Time, u64)],
    pub in_use: Time,
    pub window: Time,
    pub clock_uw: f64,
    pub events: u64,
}

pub(crate) fn compute(inp: &MetricsInputs<'_>) -> LinkMetrics {
    let (occupancy, in_flight) = word_depth(inp.sent, inp.received, inp.in_use, inp.window);
    LinkMetrics {
        link: inp.family.label().to_string(),
        handshakes: handshake_stats(inp.dump, inp.watches),
        blocks: block_attribution(inp.dump, inp.scope, inp.window, inp.clock_uw),
        occupancy,
        in_flight,
        burst: burst_stats(inp.dump, inp.family, inp.scope),
        events: inp.events,
    }
}

fn rising(old: &sal_des::Value, new: &sal_des::Value) -> bool {
    new.as_logic() == Logic::One && old.as_logic() != Logic::One
}

fn handshake_stats(dump: &TraceDump, watches: &[NetWatch]) -> Vec<HandshakeStats> {
    struct State {
        last_req_rise: Option<Time>,
        pending_req: Option<Time>,
        req_level: Logic,
        ack_level: Logic,
        stats: HandshakeStats,
    }
    let mut states: Vec<State> = watches
        .iter()
        .map(|w| State {
            last_req_rise: None,
            pending_req: None,
            req_level: Logic::X,
            ack_level: Logic::X,
            stats: HandshakeStats {
                label: w.label.clone(),
                req_path: dump.path(w.req).to_string(),
                ack_path: dump.path(w.ack).to_string(),
                completed: 0,
                latency: Histogram::new(),
                cycle: Histogram::new(),
                open: false,
            },
        })
        .collect();
    // Signal index -> watches listening to it as req / as ack.
    let nsig = dump.signals.len();
    let mut as_req: Vec<Vec<usize>> = vec![Vec::new(); nsig];
    let mut as_ack: Vec<Vec<usize>> = vec![Vec::new(); nsig];
    for (k, w) in watches.iter().enumerate() {
        if w.req.index() < nsig {
            as_req[w.req.index()].push(k);
        }
        if w.ack.index() < nsig {
            as_ack[w.ack.index()].push(k);
        }
    }
    for rec in &dump.records {
        let idx = rec.signal.index();
        if idx >= nsig {
            continue;
        }
        for &k in &as_req[idx] {
            let st = &mut states[k];
            st.req_level = rec.new.as_logic();
            if rising(&rec.old, &rec.new) {
                if let Some(prev) = st.last_req_rise {
                    st.stats.cycle.record(rec.time.saturating_sub(prev));
                }
                st.last_req_rise = Some(rec.time);
                if st.pending_req.is_none() {
                    st.pending_req = Some(rec.time);
                }
            }
        }
        for &k in &as_ack[idx] {
            let st = &mut states[k];
            st.ack_level = rec.new.as_logic();
            if rising(&rec.old, &rec.new) {
                if let Some(t0) = st.pending_req.take() {
                    st.stats.latency.record(rec.time.saturating_sub(t0));
                    st.stats.completed += 1;
                }
            }
        }
    }
    states
        .into_iter()
        .map(|mut st| {
            st.stats.open = st.req_level != st.ack_level;
            st.stats
        })
        .collect()
}

/// The paper's Fig 14 blocks as the link scopes that make them up:
/// the conversion interfaces, the serializer and deserializer, and the
/// wire buffers or pipeline registers. The rest of a link is glue.
pub(crate) const FIG14_BLOCKS: [[&str; 2]; 3] =
    [["tx_if", "rx_if"], ["ser", "des"], ["wire", "buffers"]];

/// Which Fig 14 category a link-scope signal belongs to: its index in
/// [`FIG14_BLOCKS`], or 3 for glue.
fn classify(path: &str, scope: &str, buf: &mut String) -> Option<usize> {
    buf.clear();
    buf.push_str(scope);
    buf.push('.');
    let rest = path.strip_prefix(buf.as_str())?;
    for (i, prefixes) in FIG14_BLOCKS.iter().enumerate() {
        for p in prefixes {
            if let Some(tail) = rest.strip_prefix(p) {
                if tail.is_empty() || tail.starts_with('.') {
                    return Some(i);
                }
            }
        }
    }
    Some(3)
}

fn block_attribution(
    dump: &TraceDump,
    scope: &str,
    window: Time,
    clock_uw: f64,
) -> BlockAttribution {
    // Category per signal: 0 conv, 1 serdes, 2 buffers, 3 other link
    // glue, None outside the link scope (testbench, clock source).
    let mut buf = String::new();
    let cats: Vec<Option<usize>> =
        dump.signals.iter().map(|m| classify(&m.path, scope, &mut buf)).collect();
    let mut fj = [0.0f64; 4];
    for rec in &dump.records {
        let idx = rec.signal.index();
        let Some(Some(cat)) = cats.get(idx) else {
            continue;
        };
        let toggles = rec.old.toggles_to(&rec.new);
        if toggles != 0 {
            fj[*cat] += toggles as f64 * dump.signals[idx].energy_per_toggle_fj;
        }
    }
    // 1 fJ per ns is exactly 1 µW.
    let window_ns = window.as_ns();
    let uw = |e: f64| if window_ns > 0.0 { e / window_ns } else { 0.0 };
    BlockAttribution {
        conv_fj: fj[0],
        serdes_fj: fj[1],
        buffers_fj: fj[2],
        other_fj: fj[3],
        clock_uw,
        conv_uw: uw(fj[0]) + clock_uw,
        serdes_uw: uw(fj[1]),
        buffers_uw: uw(fj[2]),
        other_uw: uw(fj[3]),
        total_uw: uw(fj[0] + fj[1] + fj[2] + fj[3]) + clock_uw,
    }
}

/// The busy/idle split and the words-in-flight depth over the window,
/// from one sweep of the sent/received word streams merged into
/// depth-change events.
fn word_depth(
    sent: &[(Time, u64)],
    received: &[(Time, u64)],
    in_use: Time,
    window: Time,
) -> (Occupancy, InFlightDepth) {
    let mut busy = Time::ZERO;
    let mut peak: u32 = 0;
    let mut area_ns = 0.0; // depth × ns
    let mut depth: i64 = 0;
    let (mut i, mut j) = (0, 0);
    let mut last: Option<Time> = None;
    while i < sent.len() || j < received.len() {
        // Deliveries first at equal timestamps, so a same-instant
        // send+receive never shows as a phantom depth spike.
        let take_recv = match (sent.get(i), received.get(j)) {
            (Some(&(ts, _)), Some(&(tr, _))) => tr <= ts,
            (None, Some(_)) => true,
            _ => false,
        };
        let t = if take_recv { received[j].0 } else { sent[i].0 };
        if let Some(prev) = last {
            let dt = t.saturating_sub(prev);
            if depth > 0 {
                busy += dt;
                area_ns += depth as f64 * dt.as_ns();
            }
        }
        last = Some(t);
        if take_recv {
            depth -= 1;
            j += 1;
        } else {
            depth += 1;
            i += 1;
            peak = peak.max(depth.max(0) as u32);
        }
    }
    let wsecs = window.as_secs();
    let busy_fraction = if wsecs > 0.0 { (busy.as_secs() / wsecs).min(1.0) } else { 0.0 };
    let window_ns = window.as_ns();
    (
        Occupancy { in_use, window, busy, busy_fraction, idle_fraction: 1.0 - busy_fraction },
        InFlightDepth {
            max: peak,
            mean: if window_ns > 0.0 { area_ns / window_ns } else { 0.0 },
        },
    )
}

fn burst_stats(dump: &TraceDump, family: LinkFamily, scope: &str) -> Option<BurstStats> {
    // The slice strobe as it enters the wire: the transported request
    // (I2, four-phase — one rising edge per slice) or the transported
    // VALID strobe (I3, one pulse per slice). I1 does not serialize.
    let leaf = match family {
        LinkFamily::Sync => return None,
        LinkFamily::PerTransfer => "seg_r0",
        LinkFamily::PerWord => "seg_v0",
    };
    let strobe_path = format!("{scope}.wire.{leaf}");
    let idx = dump.signals.iter().position(|m| m.path == strobe_path)?;
    let mut gap = Histogram::new();
    let mut slices = 0u64;
    let mut last_rise: Option<Time> = None;
    for rec in &dump.records {
        if rec.signal.index() != idx || !rising(&rec.old, &rec.new) {
            continue;
        }
        slices += 1;
        if let Some(prev) = last_rise {
            gap.record(rec.time.saturating_sub(prev));
        }
        last_rise = Some(rec.time);
    }
    Some(BurstStats { strobe_path, slices, gap })
}

impl LinkMetrics {
    /// Serialises the report as deterministic JSON: two identical runs
    /// produce byte-identical output (no wall-clock terms appear).
    pub fn to_json(&self) -> String {
        let mut j = Json::new();
        j.obj_block();
        j.key("link").str(&self.link);
        j.key("events").num(self.events);
        let b = &self.blocks;
        j.key("blocks").obj();
        j.key("conv_fj").f64(b.conv_fj);
        j.key("serdes_fj").f64(b.serdes_fj);
        j.key("buffers_fj").f64(b.buffers_fj);
        j.key("other_fj").f64(b.other_fj);
        j.key("clock_uw").f64(b.clock_uw);
        j.key("conv_uw").f64(b.conv_uw);
        j.key("serdes_uw").f64(b.serdes_uw);
        j.key("buffers_uw").f64(b.buffers_uw);
        j.key("other_uw").f64(b.other_uw);
        j.key("total_uw").f64(b.total_uw);
        j.end();
        let o = &self.occupancy;
        j.key("occupancy").obj();
        j.key("in_use_ns").f64(o.in_use.as_ns());
        j.key("window_ns").f64(o.window.as_ns());
        j.key("busy_ns").f64(o.busy.as_ns());
        j.key("busy_fraction").f64(o.busy_fraction);
        j.key("idle_fraction").f64(o.idle_fraction);
        j.end();
        j.key("in_flight").obj();
        j.key("max").num(self.in_flight.max);
        j.key("mean").f64(self.in_flight.mean);
        j.end();
        j.key("burst").opt(self.burst.as_ref(), |j, bu| {
            j.obj();
            j.key("strobe").str(&bu.strobe_path);
            j.key("slices").num(bu.slices);
            bu.gap.write_json(j.key("gap"), Json::f64);
            j.end()
        });
        j.key("handshakes").arr_block();
        for h in &self.handshakes {
            j.obj();
            j.key("label").str(&h.label);
            j.key("req").str(&h.req_path);
            j.key("ack").str(&h.ack_path);
            j.key("completed").num(h.completed);
            j.key("open").bool(h.open);
            h.latency.write_json(j.key("latency"), Json::f64);
            h.cycle.write_json(j.key("cycle"), Json::f64);
            j.end();
        }
        j.end();
        j.end();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty_run_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), 0.0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0.0);
        assert!(h.buckets().is_empty());
        let mut j = Json::new();
        h.write_json(&mut j, Json::f64);
        assert_eq!(
            j.finish(),
            "{\"count\": 0, \"min_ns\": 0.0, \"mean_ns\": 0.0, \"max_ns\": 0.0, \"buckets_fs\": []}\n"
        );
    }

    #[test]
    fn histogram_single_transfer() {
        let mut h = Histogram::new();
        h.record(Time::from_ns(2));
        assert_eq!(h.count(), 1);
        assert!((h.min_ns() - 2.0).abs() < 1e-12);
        assert!((h.mean_ns() - 2.0).abs() < 1e-12);
        assert!((h.max_ns() - 2.0).abs() < 1e-12);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 1);
        // 2 ns = 2e6 fs lands in the [2^20, 2^21) bucket.
        assert_eq!(buckets[0], (1 << 20, 1));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        h.record_fs(0);
        h.record_fs(1);
        h.record_fs(2);
        h.record_fs(3);
        h.record_fs(4);
        assert_eq!(h.buckets(), vec![(0, 2), (2, 2), (4, 1)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 4e-6);
    }

    #[test]
    fn depth_sweep_tracks_outstanding_words() {
        let sent = vec![
            (Time::from_ns(10), 1u64),
            (Time::from_ns(20), 2),
            (Time::from_ns(30), 3),
        ];
        let received = vec![
            (Time::from_ns(25), 1u64),
            (Time::from_ns(40), 2),
            (Time::from_ns(50), 3),
        ];
        let (o, d) = word_depth(&sent, &received, Time::from_ns(40), Time::from_ns(100));
        assert_eq!(o.busy, Time::from_ns(40)); // 10..50 continuously busy
        assert!((o.busy_fraction - 0.4).abs() < 1e-12, "busy {}", o.busy_fraction);
        assert_eq!(d.max, 2);
        // 1·(20-10) + 2·(25-20) + 1·(30-25) + 2·(40-30) + 1·(50-40)
        // = 55 word·ns over the 100 ns window.
        assert!((d.mean - 0.55).abs() < 1e-9, "mean {}", d.mean);
    }

    #[test]
    fn occupancy_of_idle_window() {
        let (o, d) = word_depth(&[], &[], Time::ZERO, Time::from_ns(100));
        assert_eq!(o.busy, Time::ZERO);
        assert_eq!(o.busy_fraction, 0.0);
        assert_eq!(o.idle_fraction, 1.0);
        assert_eq!((d.max, d.mean), (0, 0.0));
    }

    #[test]
    fn classify_splits_fig14_categories() {
        let mut buf = String::new();
        assert_eq!(classify("link.tx_if.fifo.d0", "link", &mut buf), Some(0));
        assert_eq!(classify("link.rx_if.sync", "link", &mut buf), Some(0));
        assert_eq!(classify("link.ser.dout", "link", &mut buf), Some(1));
        assert_eq!(classify("link.des.word", "link", &mut buf), Some(1));
        assert_eq!(classify("link.wire.seg_d0", "link", &mut buf), Some(2));
        assert_eq!(classify("link.buffers.st0.q", "link", &mut buf), Some(2));
        assert_eq!(classify("link.ack_in0", "link", &mut buf), Some(3));
        // Outside the link scope entirely.
        assert_eq!(classify("link_clk", "link", &mut buf), None);
        assert_eq!(classify("other.tx_if.x", "link", &mut buf), None);
        // Prefixes must match whole path components.
        assert_eq!(classify("link.serx.y", "link", &mut buf), Some(3));
    }
}
