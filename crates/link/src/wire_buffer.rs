//! The asynchronous wire buffer of link I2: a simple four-phase latch
//! controller (Furber & Day 1996) around a word-wide data latch.
//!
//! Per the paper (§III): *"It essentially latches the data on the
//! falling edge of REQIN. The C-Element regulates the request and
//! acknowledge handshaking safely. … the REQIN/ACKOUT side is not
//! fully de-coupled from REQOUT/ACKIN side. If several of the
//! wire-buffers are chained together then at best only every other
//! buffer in the chain will be in use at a time."* Both properties
//! hold for this implementation (the half-occupancy is exercised in
//! the tests below).

use sal_cells::CircuitBuilder;
use sal_des::SignalId;

/// Ports of one wire buffer stage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireBufferPorts {
    /// Acknowledge to the previous stage (the controller state).
    pub ack_to_prev: SignalId,
    /// Latched data to the next stage.
    pub dout: SignalId,
    /// Request to the next stage.
    pub reqout: SignalId,
}

/// Builds one four-phase wire buffer inside its own scope.
///
/// `din`/`reqin` come from the previous stage; `ack_from_next` is the
/// next stage's acknowledge (pre-declare it when building a chain —
/// acknowledge wires point against the build direction).
///
/// The controller is a single resettable C-element: its output rises
/// when a request is present and the downstream acknowledge has
/// returned to zero, which simultaneously closes the data latch
/// (capture), acknowledges upstream and forwards the request; it
/// falls when the request is withdrawn and downstream has
/// acknowledged, reopening the latch.
pub(crate) fn build_wire_buffer(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    din: SignalId,
    reqin: SignalId,
    ack_from_next: SignalId,
    rstn: SignalId,
) -> WireBufferPorts {
    b.push_scope(name);
    let nack = b.inv("nack", ack_from_next);
    // Latch controller state: rises on (reqin high, ack_next low);
    // doubles as the acknowledge to the previous stage.
    let lt = b.celement2("lt", reqin, nack, Some(rstn), false);
    // Latch is transparent while the controller is low. The enable is
    // delayed through a small matched chain: when the controller
    // *falls* (handshake complete) the latch must not reopen — letting
    // the next word race through — before the request's falling edge
    // has propagated downstream and closed the receiver's capture
    // window (the hold-time side of the bundled-data constraint).
    let en_i = b.inv("en_i", lt);
    let en = b.buf_chain("en", en_i, 2);
    let dout = b.dlatch("dout", din, en, None);
    // Static-timing capture point: `en` falling closes the latch over
    // `din`; the lint's timing pass checks the slice data beats it
    // here from the serializer's launch.
    b.sim().register_capture(din, en);
    // Matched delay on the forwarded request: the request must reach
    // the next stage no earlier than the data it is bundled with.
    let reqout = b.buf_chain("req_dly", lt, 2);
    b.pop_scope();
    WireBufferPorts { ack_to_prev: lt, dout, reqout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{attach_consumer, attach_producer, HsConsumer, HsProducer};
    use sal_des::{Simulator, Time, Value};
    use sal_tech::St012Library;

    /// Builds a chain of `n` wire buffers with direct (zero-length)
    /// connections. Returns the downstream end's ports, the
    /// acknowledge heard by the chain's *driver*, and the acknowledge
    /// port the last stage listens to (driven by the consumer).
    fn build_wire_buffer_chain(
        b: &mut CircuitBuilder<'_>,
        name: &str,
        din: SignalId,
        reqin: SignalId,
        rstn: SignalId,
        n: u32,
    ) -> (WireBufferPorts, SignalId, SignalId) {
        assert!(n >= 1, "chain needs at least one buffer");
        // Pre-declare the ack each stage listens to; acks_in[k] is driven
        // by stage k+1 (or by the receiver for the last stage, the
        // chain's port).
        let mut acks_in: Vec<SignalId> =
            (0..n - 1).map(|k| b.net(&format!("{name}_ackin{k}"), 1)).collect();
        acks_in.push(b.input(&format!("{name}_ackin{}", n - 1), 1));
        let mut d = din;
        let mut r = reqin;
        let mut first_ack = None;
        let mut last = None;
        for k in 0..n as usize {
            let ports = build_wire_buffer(b, &format!("{name}{k}"), d, r, acks_in[k], rstn);
            if k == 0 {
                first_ack = Some(ports.ack_to_prev);
            } else {
                b.buf_into(&format!("{name}_ackdrv{k}"), acks_in[k - 1], ports.ack_to_prev);
            }
            d = ports.dout;
            r = ports.reqout;
            last = Some(ports);
        }
        (last.expect("n >= 1"), first_ack.expect("n >= 1"), acks_in[n as usize - 1])
    }

    fn reset(sim: &mut Simulator, rstn: SignalId) {
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
        );
    }

    #[test]
    fn single_buffer_passes_words() {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", 8);
        let reqin = b.input("reqin", 1);
        let ack_next = b.input("ack_next", 1);
        let ports = build_wire_buffer(&mut b, "buf0", din, reqin, ack_next, rstn);
        b.finish();
        reset(&mut sim, rstn);
        let words = vec![0xA5, 0x5A, 0x0F, 0xF0, 0x81];
        let (p, _) = HsProducer::new(reqin, din, ports.ack_to_prev, 8, words.clone());
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        let (c, rx) = HsConsumer::new(ports.reqout, ports.dout, ack_next);
        attach_consumer(&mut sim, "cons", c);
        sim.run_until(Time::from_ns(100)).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
    }

    #[test]
    fn chain_of_buffers_preserves_order_and_data() {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", 8);
        let reqin = b.input("reqin", 1);
        let (end, ack_first, ack_end) =
            build_wire_buffer_chain(&mut b, "buf", din, reqin, rstn, 4);
        b.finish();
        reset(&mut sim, rstn);
        let words = vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66];
        let (p, _) = HsProducer::new(reqin, din, ack_first, 8, words.clone());
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        let (c, rx) = HsConsumer::new(end.reqout, end.dout, ack_end);
        attach_consumer(&mut sim, "cons", c);
        sim.run_until(Time::from_ns(300)).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
    }

    #[test]
    fn slow_consumer_backpressures_chain() {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", 8);
        let reqin = b.input("reqin", 1);
        let (end, ack_first, ack_end) =
            build_wire_buffer_chain(&mut b, "buf", din, reqin, rstn, 2);
        b.finish();
        reset(&mut sim, rstn);
        let words = vec![1, 2, 3];
        let (p, sent) = HsProducer::new(reqin, din, ack_first, 8, words.clone());
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        let (c, rx) = HsConsumer::new(end.reqout, end.dout, ack_end);
        let c = c.with_ack_delay(Time::from_ns(20));
        attach_consumer(&mut sim, "cons", c);
        sim.run_until(Time::from_ns(400)).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
        // Producer had to pace to the consumer's ~40 ns handshake.
        let times: Vec<Time> = sent.borrow().iter().map(|&(t, _)| t).collect();
        assert!(times[2] - times[1] >= Time::from_ns(20), "no backpressure observed");
    }

    #[test]
    fn half_occupancy_of_adjacent_buffers() {
        // The paper notes adjacent buffers are never both "full":
        // with a stalled consumer, a 4-deep chain holds at most 2 words
        // in alternating stages (controller high = holding).
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", 8);
        let reqin = b.input("reqin", 1);
        let (_end, ack_first, ack_end) =
            build_wire_buffer_chain(&mut b, "buf", din, reqin, rstn, 4);
        b.finish();
        reset(&mut sim, rstn);
        // Consumer absent: never acknowledge (keep the line at 0).
        sim.stimulus(ack_end, &[(Time::ZERO, Value::zero(1))]);
        let words = vec![1, 2, 3, 4];
        let (p, sent) = HsProducer::new(reqin, din, ack_first, 8, words);
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        sim.run_until(Time::from_ns(200)).unwrap();
        // Count holding stages: controller outputs high.
        let holding: u32 = (0..4)
            .map(|k| {
                let lt = sim.signal_by_path(&format!("buf{k}.lt")).unwrap();
                u32::from(sim.value(lt).is_high())
            })
            .sum();
        assert_eq!(holding, 2, "expected exactly every other buffer occupied");
        // The producer got 2 words in; its 3rd request hangs unacked
        // (the log records request attempts, so it shows 3).
        assert_eq!(sent.borrow().len(), 3);
    }
}
