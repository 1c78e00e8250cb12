//! Behavioural testbench components: asynchronous handshake drivers
//! and synchronous switch models.
//!
//! These model the paper's surrounding NoC switches and the stimulus
//! environment. They are *testbench* elements: they occupy no area and
//! burn no energy, so measurements only see the link under test.

use std::cell::RefCell;
use std::rc::Rc;

use sal_des::{CellClass, Component, ComponentId, Ctx, Logic, SignalId, Simulator, Time, Value};

/// A shared recording of `(time, word)` observations.
pub type Record = Rc<RefCell<Vec<(Time, u64)>>>;

/// Creates an empty [`Record`].
pub fn record() -> Record {
    Rc::new(RefCell::new(Vec::new()))
}

/// A four-phase bundled-data producer: drives `data` then raises
/// `req`, completing the return-to-zero handshake on `ack`, for each
/// queued word.
pub struct HsProducer {
    req: SignalId,
    data: SignalId,
    ack: SignalId,
    width: u8,
    words: Vec<u64>,
    next: usize,
    /// Margin between driving data and raising req (bundling).
    bundle: Time,
    state: ProducerState,
    sent: Record,
    /// When to start sending (idle levels are driven at t = 0 so the
    /// circuit is never exposed to undriven `X` control inputs).
    start: Time,
    initialized: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ProducerState {
    Idle,
    DataDriven,
    ReqHigh,
    WaitAckLow,
}

impl HsProducer {
    /// Creates a producer and returns it with its send log. Attach
    /// with [`attach_producer`].
    pub fn new(req: SignalId, data: SignalId, ack: SignalId, width: u8, words: Vec<u64>) -> (Self, Record) {
        let sent = record();
        (
            HsProducer {
                req,
                data,
                ack,
                width,
                words,
                next: 0,
                bundle: Time::from_ps(60),
                state: ProducerState::Idle,
                sent: sent.clone(),
                start: Time::ZERO,
                initialized: false,
            },
            sent,
        )
    }
}

impl Component for HsProducer {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        match (self.state, ctx.read(self.ack).as_logic()) {
            (ProducerState::ReqHigh, Logic::One) => {
                ctx.drive(self.req, Value::zero(1), Time::from_ps(20));
                self.state = ProducerState::WaitAckLow;
            }
            (ProducerState::WaitAckLow, Logic::Zero) => {
                self.state = ProducerState::Idle;
                ctx.wake_after(Time::from_ps(1));
            }
            _ => {}
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        if !self.initialized {
            // Establish idle levels immediately (undriven X on a
            // request line would poison the asynchronous state cells).
            self.initialized = true;
            ctx.drive(self.req, Value::zero(1), Time::ZERO);
            let now = ctx.now();
            if self.start > now {
                ctx.wake_after(self.start - now);
                return;
            }
        }
        match self.state {
            ProducerState::Idle
                if self.next < self.words.len() => {
                    let w = self.words[self.next];
                    ctx.drive(self.data, Value::from_u64(self.width, w), Time::ZERO);
                    self.state = ProducerState::DataDriven;
                    ctx.wake_after(self.bundle);
                }
            ProducerState::DataDriven => {
                let w = self.words[self.next];
                self.next += 1;
                let now = ctx.now();
                self.sent.borrow_mut().push((now, w));
                ctx.drive(self.req, Value::one(1), Time::ZERO);
                self.state = ProducerState::ReqHigh;
            }
            _ => {}
        }
    }
}

/// Attaches a producer to the simulator, registering it as the driver
/// of its `req` and `data` signals. Idle levels are driven at t = 0;
/// sending begins at `start`.
pub fn attach_producer(
    sim: &mut Simulator,
    name: &str,
    mut p: HsProducer,
    start: Time,
) -> ComponentId {
    p.start = start;
    let req = p.req;
    let data = p.data;
    let ack = p.ack;
    let id = sim.add_component(name, p, &[ack]);
    sim.set_component_class(id, CellClass::Env);
    sim.connect_driver(id, req).expect("producer req already driven");
    sim.connect_driver(id, data).expect("producer data already driven");
    sim.schedule_wake(id, Time::ZERO);
    id
}

/// A four-phase bundled-data consumer: acknowledges each `req` after a
/// configurable latency and records the word seen on `data`.
pub struct HsConsumer {
    req: SignalId,
    data: SignalId,
    ack: SignalId,
    /// Delay from req edge to ack edge (models receiver readiness /
    /// deliberate stalling in backpressure tests).
    ack_delay: Time,
    received: Record,
}

impl HsConsumer {
    /// Creates a consumer and returns it with its receive log. Attach
    /// with [`attach_consumer`].
    pub fn new(req: SignalId, data: SignalId, ack: SignalId) -> (Self, Record) {
        let received = record();
        (
            HsConsumer { req, data, ack, ack_delay: Time::from_ps(40), received: received.clone() },
            received,
        )
    }

    /// Sets the request-to-acknowledge latency.
    pub fn with_ack_delay(mut self, d: Time) -> Self {
        self.ack_delay = d;
        self
    }
}

impl Component for HsConsumer {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        match ctx.read(self.req).as_logic() {
            Logic::One => {
                if !ctx.read(self.ack).is_high() {
                    let v = ctx.read(self.data);
                    let now = ctx.now();
                    self.received
                        .borrow_mut()
                        .push((now, v.to_u64().unwrap_or(u64::MAX)));
                    ctx.drive(self.ack, Value::one(1), self.ack_delay);
                }
            }
            Logic::Zero => {
                ctx.drive(self.ack, Value::zero(1), self.ack_delay);
            }
            Logic::X => {}
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        // Initial kick: idle ack low.
        ctx.drive(self.ack, Value::zero(1), Time::ZERO);
    }
}

/// Attaches a consumer, registering it as the driver of `ack`.
pub fn attach_consumer(sim: &mut Simulator, name: &str, c: HsConsumer, start: Time) -> ComponentId {
    let req = c.req;
    let ack = c.ack;
    let _ = start;
    let id = sim.add_component(name, c, &[req]);
    sim.set_component_class(id, CellClass::Env);
    sim.connect_driver(id, ack).expect("consumer ack already driven");
    // Idle levels must be driven from t = 0 (see attach_producer).
    sim.schedule_wake(id, Time::ZERO);
    id
}

/// A synchronous switch output: presents flits on `flit`/`valid` and
/// advances on each rising clock edge where `valid && !stall`
/// (ready/valid elastic protocol, as between a NoC switch and the
/// paper's sync→async interface).
pub struct SyncFlitSource {
    clk: SignalId,
    stall: SignalId,
    flit: SignalId,
    valid: SignalId,
    width: u8,
    words: Vec<u64>,
    next: usize,
    presented: bool,
    prev_clk: Logic,
    /// Clock-to-output delay of the switch's output register.
    t_co: Time,
    sent: Record,
    /// Optional reset: the switch presents nothing while rstn is low.
    rstn: Option<SignalId>,
}

impl SyncFlitSource {
    /// Creates a source and its send log (a flit is logged at the edge
    /// where the interface accepts it). Attach with [`attach_sync_source`].
    pub fn new(
        clk: SignalId,
        stall: SignalId,
        flit: SignalId,
        valid: SignalId,
        width: u8,
        words: Vec<u64>,
    ) -> (Self, Record) {
        let sent = record();
        (
            SyncFlitSource {
                clk,
                stall,
                flit,
                valid,
                width,
                words,
                next: 0,
                presented: false,
                prev_clk: Logic::X,
                t_co: Time::from_ps(100),
                sent: sent.clone(),
                rstn: None,
            },
            sent,
        )
    }

    /// Makes the source honour an active-low reset: while `rstn` is
    /// low it presents nothing (a real switch does not drive flits
    /// into a link still in reset).
    pub fn with_rstn(mut self, rstn: SignalId) -> Self {
        self.rstn = Some(rstn);
        self
    }
}

impl Component for SyncFlitSource {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let clk = ctx.read(self.clk).as_logic();
        let rising = self.prev_clk == Logic::Zero && clk == Logic::One;
        self.prev_clk = clk;
        if !rising {
            return;
        }
        if let Some(rstn) = self.rstn {
            if !ctx.read(rstn).is_high() {
                ctx.drive(self.valid, Value::zero(1), self.t_co);
                self.presented = false;
                return;
            }
        }
        let stalled = ctx.read(self.stall).is_high();
        if self.presented && !stalled {
            // The word on the pins was accepted at this edge.
            let now = ctx.now();
            self.sent.borrow_mut().push((now, self.words[self.next]));
            self.next += 1;
            self.presented = false;
        }
        if !self.presented {
            if self.next < self.words.len() {
                let w = Value::from_u64(self.width, self.words[self.next]);
                ctx.drive(self.flit, w, self.t_co);
                ctx.drive(self.valid, Value::one(1), self.t_co);
                self.presented = true;
            } else {
                ctx.drive(self.valid, Value::zero(1), self.t_co);
            }
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        ctx.drive(self.valid, Value::zero(1), Time::ZERO);
        ctx.drive(self.flit, Value::zero(self.width), Time::ZERO);
    }
}

/// Attaches a synchronous source, driving `flit` and `valid`.
pub fn attach_sync_source(
    sim: &mut Simulator,
    name: &str,
    s: SyncFlitSource,
    start: Time,
) -> ComponentId {
    let clk = s.clk;
    let flit = s.flit;
    let valid = s.valid;
    let _ = start;
    let id = sim.add_component(name, s, &[clk]);
    sim.set_component_class(id, CellClass::Env);
    sim.connect_driver(id, flit).expect("source flit already driven");
    sim.connect_driver(id, valid).expect("source valid already driven");
    sim.schedule_wake(id, Time::ZERO);
    id
}

/// A synchronous switch input: samples `flit` whenever `valid && !stall`
/// at a rising clock edge, optionally stalling according to a pattern.
pub struct SyncFlitSink {
    clk: SignalId,
    valid: SignalId,
    flit: SignalId,
    stall: SignalId,
    prev_clk: Logic,
    cycle: u64,
    stall_fn: Box<dyn FnMut(u64) -> bool>,
    received: Record,
}

impl SyncFlitSink {
    /// Creates an always-ready sink and its receive log. Attach with
    /// [`attach_sync_sink`].
    pub fn new(clk: SignalId, valid: SignalId, flit: SignalId, stall: SignalId) -> (Self, Record) {
        Self::with_stall_fn(clk, valid, flit, stall, Box::new(|_| false))
    }

    /// Creates a sink whose stall output on cycle `i` is `stall_fn(i)`.
    pub fn with_stall_fn(
        clk: SignalId,
        valid: SignalId,
        flit: SignalId,
        stall: SignalId,
        stall_fn: Box<dyn FnMut(u64) -> bool>,
    ) -> (Self, Record) {
        let received = record();
        (
            SyncFlitSink {
                clk,
                valid,
                flit,
                stall,
                prev_clk: Logic::X,
                cycle: 0,
                stall_fn,
                received: received.clone(),
            },
            received,
        )
    }
}

impl Component for SyncFlitSink {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let clk = ctx.read(self.clk).as_logic();
        let rising = self.prev_clk == Logic::Zero && clk == Logic::One;
        self.prev_clk = clk;
        if !rising {
            return;
        }
        let stalled = ctx.read(self.stall).is_high();
        if !stalled && ctx.read(self.valid).is_high() {
            let v = ctx.read(self.flit);
            let now = ctx.now();
            self.received.borrow_mut().push((now, v.to_u64().unwrap_or(u64::MAX)));
        }
        self.cycle += 1;
        let st = (self.stall_fn)(self.cycle);
        ctx.drive(self.stall, Value::from_bool(st), Time::from_ps(100));
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        ctx.drive(self.stall, Value::zero(1), Time::ZERO);
    }
}

/// Attaches a synchronous sink, driving its `stall` output.
pub fn attach_sync_sink(
    sim: &mut Simulator,
    name: &str,
    s: SyncFlitSink,
    start: Time,
) -> ComponentId {
    let clk = s.clk;
    let stall = s.stall;
    let _ = start;
    let id = sim.add_component(name, s, &[clk]);
    sim.set_component_class(id, CellClass::Env);
    sim.connect_driver(id, stall).expect("sink stall already driven");
    sim.schedule_wake(id, Time::ZERO);
    id
}

/// The paper's worst-case data pattern: alternating `0xA5A5A5A5` /
/// `0x5A5A5A5A` words "which exercise the data wires as much as
/// possible and give worst case data activity" (§V), truncated to the
/// requested width and repeated to `count` items.
pub fn worst_case_pattern(count: usize, width: u8) -> Vec<u64> {
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                0xA5A5_A5A5_A5A5_A5A5 & mask
            } else {
                0x5A5A_5A5A_5A5A_5A5A & mask
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_pattern_alternates_and_masks() {
        let p = worst_case_pattern(4, 32);
        assert_eq!(p, vec![0xA5A5_A5A5, 0x5A5A_5A5A, 0xA5A5_A5A5, 0x5A5A_5A5A]);
        let p8 = worst_case_pattern(2, 8);
        assert_eq!(p8, vec![0xA5, 0x5A]);
        // Adjacent words toggle every bit — worst-case activity.
        assert_eq!((p[0] ^ p[1]).count_ones(), 32);
    }

    #[test]
    fn producer_to_consumer_direct() {
        // Wire a producer straight into a consumer: the handshake
        // protocol itself must deliver all words in order.
        let mut sim = Simulator::new();
        let req = sim.add_signal("req", 1);
        let ack = sim.add_signal("ack", 1);
        let data = sim.add_signal("data", 16);
        let words = vec![0xDEAD, 0xBEEF, 0x0101];
        let (p, _sent) = HsProducer::new(req, data, ack, 16, words.clone());
        attach_producer(&mut sim, "prod", p, Time::ZERO);
        let (c, received) = HsConsumer::new(req, data, ack);
        attach_consumer(&mut sim, "cons", c, Time::ZERO);
        sim.run_until(Time::from_ns(100)).unwrap();
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
    }

    #[test]
    fn producer_respects_slow_consumer() {
        let mut sim = Simulator::new();
        let req = sim.add_signal("req", 1);
        let ack = sim.add_signal("ack", 1);
        let data = sim.add_signal("data", 8);
        let words = vec![1, 2, 3, 4];
        let (p, _) = HsProducer::new(req, data, ack, 8, words.clone());
        attach_producer(&mut sim, "prod", p, Time::ZERO);
        let (c, received) =
            HsConsumer::new(req, data, ack);
        let c = c.with_ack_delay(Time::from_ns(5));
        attach_consumer(&mut sim, "cons", c, Time::ZERO);
        sim.run_until(Time::from_ns(100)).unwrap();
        let times: Vec<Time> = received.borrow().iter().map(|&(t, _)| t).collect();
        assert_eq!(times.len(), 4);
        // Each word is paced by the consumer's 2 × 5 ns handshake.
        for pair in times.windows(2) {
            assert!(pair[1] - pair[0] >= Time::from_ns(10));
        }
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
    }

    #[test]
    fn sync_source_feeds_sync_sink_through_wires() {
        // Source drives flit/valid; sink samples them on the same clock.
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let ck = sim.add_component(
            "ck",
            sal_cells::ClockGen::new(clk, Time::from_ns(10)),
            &[],
        );
        sim.connect_driver(ck, clk).unwrap();
        sim.schedule_wake(ck, Time::ZERO);
        let flit = sim.add_signal("flit", 32);
        let valid = sim.add_signal("valid", 1);
        let stall = sim.add_signal("stall", 1);
        let words = worst_case_pattern(4, 32);
        let (src, sent) = SyncFlitSource::new(clk, stall, flit, valid, 32, words.clone());
        attach_sync_source(&mut sim, "src", src, Time::ZERO);
        let (snk, received) = SyncFlitSink::new(clk, valid, flit, stall);
        attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
        sim.run_until(Time::from_ns(100)).unwrap();
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
        assert_eq!(sent.borrow().len(), 4);
    }

    #[test]
    fn sync_sink_stall_pattern_throttles() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let ck = sim.add_component(
            "ck",
            sal_cells::ClockGen::new(clk, Time::from_ns(10)),
            &[],
        );
        sim.connect_driver(ck, clk).unwrap();
        sim.schedule_wake(ck, Time::ZERO);
        let flit = sim.add_signal("flit", 8);
        let valid = sim.add_signal("valid", 1);
        let stall = sim.add_signal("stall", 1);
        let words = vec![1, 2, 3];
        let (src, _) = SyncFlitSource::new(clk, stall, flit, valid, 8, words.clone());
        attach_sync_source(&mut sim, "src", src, Time::ZERO);
        // Stall on every odd cycle: throughput halves but data intact.
        let (snk, received) =
            SyncFlitSink::with_stall_fn(clk, valid, flit, stall, Box::new(|c| c % 2 == 1));
        attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
        sim.run_until(Time::from_ns(200)).unwrap();
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words);
    }
}
