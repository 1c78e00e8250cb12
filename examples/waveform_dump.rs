//! Waveform dump: trace one word crossing the per-word (I3)
//! serializer/deserializer pair at gate level and write a VCD file you
//! can open in GTKWave — the ring-oscillator burst, the four VALID
//! strobes and the word-level acknowledge are all visible.
//!
//! Run with: `cargo run --example waveform_dump --release`
//! Then:     gtkwave i3_word.vcd

use std::fs::File;
use std::io::{BufWriter, Write};

use sal::cells::CircuitBuilder;
use sal::des::{MemoryTrace, Simulator, Time, TraceDump, Value};
use sal::link::testbench::{
    attach_consumer, attach_producer, HsConsumer, HsProducer,
};
use sal::link::{build_word_deserializer, build_word_serializer, LinkConfig, LinkFamily, LinkSpec};
use sal::tech::St012Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's I3: its spec names the receiver, the merged config
    // the word and slice widths.
    let spec = LinkSpec::paper(LinkFamily::PerWord);
    let cfg = spec.apply(&LinkConfig::default());
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);

    let rstn = b.input("rstn", 1);
    let din = b.input("din", cfg.flit_width);
    let reqin = b.input("reqin", 1);
    let ack_back = b.net("ack_back", 1);
    let ser = build_word_serializer(&mut b, "wser", &cfg, din, reqin, ack_back, rstn);
    let ackin = b.input("ackin", 1);
    let style = spec.word_rx_style();
    let des = build_word_deserializer(&mut b, "wdes", &cfg, style, ser.dout, ser.valid, ackin, rstn);
    b.buf_into("ab_loop", ack_back, des.ack_back);
    b.finish();

    sim.stimulus(
        rstn,
        &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
    );
    let words = vec![0xDEAD_BEEF, 0xA5A5_5A5A];
    let (p, _) = HsProducer::new(reqin, din, ser.ackout, cfg.flit_width, words.clone());
    attach_producer(&mut sim, "prod", p, Time::from_ns(1));
    let (c, rx) = HsConsumer::new(des.reqout, des.dout, ackin);
    attach_consumer(&mut sim, "cons", c);
    sim.set_trace_sink(Box::new(MemoryTrace::new()));
    sim.run_until(Time::from_ns(20))?;

    let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
    assert_eq!(got, words, "round trip failed");

    let path = "i3_word.vcd";
    let mut file = BufWriter::new(File::create(path)?);
    TraceDump::capture(&sim).ok_or("the memory trace keeps every record")?.write_vcd(&mut file)?;
    file.flush()?;
    println!(
        "transferred {:#010x} and {:#010x} bit-exact over the word-level link",
        words[0], words[1]
    );
    println!(
        "wrote {path} ({} signals, {} events processed) — open it in GTKWave",
        sim.signal_count(),
        sim.events_processed()
    );
    Ok(())
}
