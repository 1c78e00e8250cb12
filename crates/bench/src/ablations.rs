//! Ablation studies of the design choices DESIGN.md calls out:
//! early word acknowledgement (the paper's stated future work), slice
//! width, receiver datapath style, and technology corners.

use sal_des::Time;
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkSpec, WordRxStyle};
use sal_tech::{Corner, St012Library};

use crate::sweep::parallel_map;

/// Early-ack ablation row: saturation throughput of I3 with and
/// without the early word acknowledgement, per buffer count.
#[derive(Debug, Clone)]
pub struct EarlyAckRow {
    /// Wire buffer stations.
    pub buffers: u32,
    /// Baseline I3 saturation, MFlit/s.
    pub baseline_mflits: f64,
    /// Early-ack I3 saturation, MFlit/s.
    pub early_mflits: f64,
}

fn saturation(spec: &LinkSpec) -> f64 {
    // Overdrive with a 1 GHz switch clock; the link throttles to its
    // self-timed rate.
    let fast = LinkConfig { clk_period: Time::from_ps(1000), ..LinkConfig::default() };
    let words: Vec<u64> = (0..24).map(|i| (i * 0x0F1E_2D3C) & 0xFFFF_FFFF).collect();
    let run = run_spec(spec, &fast, &words, &MeasureOptions::default()).expect("clean run");
    assert_eq!(run.received.len(), words.len(), "saturation run incomplete");
    run.throughput_mflits()
}

/// The paper's I3 with `buffers` stations and the `style` receiver.
fn i3(buffers: u32, style: WordRxStyle) -> LinkSpec {
    LinkSpec::builder()
        .family(LinkFamily::PerWord)
        .buffer_depth(buffers)
        .word_rx_style(style)
        .build()
        .expect("an unprotected I3 takes every receiver")
}

/// The paper's future-work claim, quantified: "further improvements to
/// the upper bound throughput could be achieved by earlier
/// acknowledging".
pub fn early_ack() -> Vec<EarlyAckRow> {
    parallel_map(vec![2u32, 4, 8], |buffers| EarlyAckRow {
        buffers,
        baseline_mflits: saturation(&i3(buffers, WordRxStyle::ShiftRegister)),
        early_mflits: saturation(&i3(buffers, WordRxStyle::EarlyAck)),
    })
}

/// Slice-width ablation row (§III: "the circuit can easily be modified
/// to serialize less … by decreasing the number of David-Cells").
#[derive(Debug, Clone)]
pub struct SliceRow {
    /// Serial slice width, bits.
    pub slice_width: u8,
    /// Link wires (data + strobe + acknowledge).
    pub wires: u32,
    /// I3 saturation throughput, MFlit/s.
    pub saturation_mflits: f64,
    /// I3 power at 100 MHz, 4 buffers, 50 % usage, µW.
    pub power_uw: f64,
}

/// Wires vs. throughput vs. power across serialization factors
/// (serial ratios 2:1, 4:1 and 8:1 over the 32-bit paper word).
pub fn slice_width() -> Vec<SliceRow> {
    parallel_map(vec![2u8, 4, 8], |ratio| {
        let spec = LinkSpec::builder()
            .family(LinkFamily::PerWord)
            .serial_ratio(ratio)
            .build()
            .expect("the ratio sweep stays inside the validated lattice");
        let power = run_spec(
            &spec,
            &LinkConfig::default(),
            &worst_case_pattern(4, 32),
            &MeasureOptions::default(),
        ).expect("clean run")
        .total_power_uw();
        SliceRow {
            slice_width: spec.slice_width(),
            wires: spec.wires(),
            saturation_mflits: saturation(&spec),
            power_uw: power,
        }
    })
}

/// Receiver-style ablation row: shift register vs. demux (the paper's
/// Fig 14 discussion).
#[derive(Debug, Clone)]
pub struct RxStyleRow {
    /// Receiver datapath style.
    pub style: WordRxStyle,
    /// Deserializer block power at 100 MHz, 4 buffers, µW.
    pub des_power_uw: f64,
    /// Whole-link power, µW.
    pub total_power_uw: f64,
}

/// The shift register latches every stage on every strobe; the demux
/// latches one. The paper: "all four registers are being latched every
/// time a slice of the flit arrives opposed to just one register".
pub fn rx_style() -> Vec<RxStyleRow> {
    parallel_map(vec![WordRxStyle::ShiftRegister, WordRxStyle::Demux], |style| {
        let run = run_spec(
            &i3(4, style),
            &LinkConfig::default(),
            &worst_case_pattern(4, 32),
            &MeasureOptions::default(),
        ).expect("clean run");
        RxStyleRow {
            style,
            des_power_uw: run.sim_power_uw("link.des"),
            total_power_uw: run.total_power_uw(),
        }
    })
}

/// Technology-corner ablation row.
#[derive(Debug, Clone)]
pub struct CornerRow {
    /// The process corner.
    pub corner: Corner,
    /// I3 saturation throughput at that corner, MFlit/s.
    pub i3_saturation_mflits: f64,
    /// I1 throughput at a 300 MHz clock (fixed by the clock, provided
    /// the corner closes timing), MFlit/s.
    pub i1_mflits: f64,
}

/// Self-timed links track the silicon: faster corners run faster,
/// slower corners run slower — while the synchronous link is pinned to
/// its clock at every corner.
pub fn corners() -> Vec<CornerRow> {
    parallel_map(vec![Corner::Fast, Corner::Typical, Corner::Slow], |corner| {
        let lib = St012Library::at_corner(corner);
        let opts = MeasureOptions { lib: lib.clone(), ..MeasureOptions::default() };
        let fast_cfg = LinkConfig {
            clk_period: Time::from_ps(1000),
            ..LinkConfig::default()
        };
        let words: Vec<u64> = (0..24).map(|i| (i * 0x0F1E_2D3C) & 0xFFFF_FFFF).collect();
        let i3 = run_spec(&LinkSpec::paper(LinkFamily::PerWord), &fast_cfg, &words, &opts)
            .expect("clean run")
            .throughput_mflits();
        let sync_cfg = LinkConfig {
            clk_period: Time::from_ns_f64(10.0 / 3.0),
            ..LinkConfig::default()
        };
        let i1 = run_spec(&LinkSpec::paper(LinkFamily::Sync), &sync_cfg, &words, &opts)
            .expect("clean run")
            .throughput_mflits();
        CornerRow { corner, i3_saturation_mflits: i3, i1_mflits: i1 }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn early_ack_raises_the_upper_bound() {
        for row in early_ack() {
            assert!(
                row.early_mflits > row.baseline_mflits * 1.02,
                "{} buffers: early {:.0} vs baseline {:.0}",
                row.buffers,
                row.early_mflits,
                row.baseline_mflits
            );
        }
    }

    #[test]
    fn wider_slices_run_faster_but_cost_wires() {
        let rows = slice_width();
        // Rows are ordered 16, 8, 4 bits.
        assert!(rows[0].wires > rows[1].wires);
        assert!(rows[1].wires > rows[2].wires);
        assert!(
            rows[0].saturation_mflits > rows[2].saturation_mflits,
            "16-bit slices {:.0} should beat 4-bit {:.0}",
            rows[0].saturation_mflits,
            rows[2].saturation_mflits
        );
    }

    #[test]
    fn demux_receiver_burns_less_in_the_deserializer() {
        let rows = rx_style();
        let shift = &rows[0];
        let demux = &rows[1];
        assert!(
            demux.des_power_uw < shift.des_power_uw,
            "demux {:.1} µW should undercut shift {:.1} µW",
            demux.des_power_uw,
            shift.des_power_uw
        );
    }

    #[test]
    fn self_timed_links_track_the_corner() {
        let rows = corners();
        let fast = &rows[0];
        let slow = &rows[2];
        assert!(fast.i3_saturation_mflits > slow.i3_saturation_mflits * 1.2);
        // The synchronous link is clock-bound at every corner.
        for r in &rows {
            assert!((r.i1_mflits - 300.0).abs() < 15.0, "I1 {}", r.i1_mflits);
        }
    }
}
