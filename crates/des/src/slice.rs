//! Bit-sliced multi-seed campaign engine.
//!
//! A glitch-robustness campaign runs the *same* netlist with the
//! *same* stimulus many times, varying only which bits each storm
//! flips. Those runs share almost everything: topology, delays,
//! handshake timing, the stimulus schedule. The sliced engine
//! exploits that by packing up to 64 campaign seeds ("lanes") into
//! the bit-planes of one **carrier** simulation:
//!
//! - the carrier executes one lane's glitches, the *pilot*'s: at each
//!   site, the lowest lane that glitches it. When every site has the
//!   same pilot the carrier *is* that lane's scalar run, and the
//!   other lanes ride along as planes. (The union of all lanes'
//!   masks is no lane's disturbance: at 64 lanes it flips every wire
//!   bit, and a carrier running it skips edges no real lane skips.)
//! - every tracked signal additionally carries a [`LaneValues`]
//!   plane set, advanced lane-parallel through the compiled nodes by
//!   the same evaluator the carrier runs — one bitwise operation per
//!   plane advances all 64 lanes at once;
//! - glitch injection XORs each lane's own mask into that lane only,
//!   and state-cell outputs follow their registered capture rules
//!   (`q` inherits `d`'s planes when the carrier latched `d`
//!   through).
//!
//! The fidelity contract is *per-lane value equivalence at carrier
//! commit times*: as long as a lane's values only differ from the
//! carrier where the plane algebra can follow them, its committed
//! value trajectory is bit-identical to a scalar run seeded with that
//! lane's masks. Where timing itself would change — a lane whose
//! inertial skip decision differs from the carrier's, a capture whose
//! per-lane input cannot be inferred, a force cancelling an in-flight
//! drive only some lanes had — the affected lanes are **diverged**
//! and the campaign driver replays them scalar. Divergence detection
//! is conservative: a false positive costs one scalar replay, never a
//! wrong result.

use crate::{ComponentId, LaneValues, SignalId, Time, Value};

/// `rule_of`/`tap_of` sentinel: no entry.
const NONE: u32 = u32::MAX;

/// One registered glitch site: the per-lane masks of a shared
/// `(signal, at, width)` storm event.
#[derive(Debug)]
struct Site {
    signal: SignalId,
    at: Time,
    width: Time,
    /// XOR mask per lane (index = lane).
    masks: Vec<u64>,
    /// Lanes with a non-zero mask (they force in their scalar run).
    nonzero: u64,
    /// Planes captured just before the glitch was applied, restored
    /// by the paired restore force.
    saved: Option<LaneValues>,
}

/// One expected carrier force: a site's application or restoration.
#[derive(Debug, Clone, Copy)]
struct Expected {
    time: Time,
    site: u32,
    restore: bool,
    done: bool,
}

/// A state-cell capture rule `q <- d` with its launch snapshots: the
/// planes of `d` as of its last two commits. A passthrough capture
/// (`q` committing the value `d` held when the cell evaluated)
/// inherits the matching snapshot's planes; anything else demotes the
/// lanes whose `d` the carrier cannot vouch for.
#[derive(Debug)]
struct Capture {
    launched: Option<Launched>,
    prev: Option<Launched>,
}

/// One launch snapshot: `d`'s planes (`None` = all lanes equal the
/// carrier) and carrier value at a commit of `d`.
#[derive(Debug)]
struct Launched {
    plane: Option<LaneValues>,
    value: Value,
}

/// The active sliced campaign pass attached to a compiled simulator.
#[derive(Debug)]
pub(crate) struct Sliced {
    lanes: u8,
    /// Committed planes per signal; `None` = all lanes hold the
    /// carrier's committed value.
    committed: Vec<Option<LaneValues>>,
    /// In-flight planes of pending compiled drives.
    pending: Vec<Option<LaneValues>>,
    /// Capture-rule index per signal (`NONE` = no rule).
    rule_of: Vec<u32>,
    rules: Vec<Capture>,
    /// Capture rules fed by each signal (launch-snapshot refresh).
    rules_by_input: Vec<Vec<u32>>,
    /// Input signals read by each *non-member* component — the
    /// conservative divergence probe for commits and skips the plane
    /// algebra cannot follow. Empty for compiled members.
    reads: Vec<Vec<SignalId>>,
    sites: Vec<Site>,
    /// Expected carrier forces, sorted by time; `cursor` trails the
    /// carrier's commit stream.
    sched: Vec<Expected>,
    cursor: usize,
    /// Tap-log index per signal (`NONE` = untapped).
    tap_of: Vec<u32>,
    tap_logs: Vec<Vec<(Time, LaneValues)>>,
    /// Lanes demoted to scalar replay.
    pub diverged: u64,
}

impl Sliced {
    /// Builds a pass over `nsignals` signals, with the registered
    /// capture rules and the per-component non-member read lists.
    pub fn new(
        lanes: u8,
        nsignals: usize,
        capture_rules: &[(SignalId, SignalId)],
        reads: Vec<Vec<SignalId>>,
    ) -> Sliced {
        assert!((1..=64).contains(&lanes), "lanes must be 1..=64");
        let mut rule_of = vec![NONE; nsignals];
        let mut rules_by_input: Vec<Vec<u32>> = vec![Vec::new(); nsignals];
        let mut rules = Vec::with_capacity(capture_rules.len());
        for &(q, d) in capture_rules {
            let idx = rules.len() as u32;
            assert_eq!(rule_of[q.index()], NONE, "duplicate capture rule for one signal");
            rule_of[q.index()] = idx;
            rules_by_input[d.index()].push(idx);
            rules.push(Capture { launched: None, prev: None });
        }
        Sliced {
            lanes,
            committed: vec![None; nsignals],
            pending: vec![None; nsignals],
            rule_of,
            rules,
            rules_by_input,
            reads,
            sites: Vec::new(),
            sched: Vec::new(),
            cursor: 0,
            tap_of: vec![NONE; nsignals],
            tap_logs: Vec::new(),
            diverged: 0,
        }
    }

    fn lane_mask(&self) -> u64 {
        Value::width_mask(self.lanes)
    }

    /// Registers a glitch site: at `at`, XOR `masks[k]` into lane `k`
    /// of `signal` for `width`. The carrier must separately execute
    /// the pilot's glitch at the same site (the simulator's
    /// `slice_glitch` wrapper schedules both halves).
    ///
    /// # Panics
    ///
    /// Panics if `masks` doesn't match the lane count, `width` is
    /// zero, or the site overlaps an earlier one on the same signal.
    pub fn add_glitch(&mut self, at: Time, signal: SignalId, width: Time, masks: &[u64]) {
        assert_eq!(masks.len(), self.lanes as usize, "one mask per lane");
        assert!(!width.is_zero(), "sliced glitch width must be non-zero");
        let end = at + width;
        for s in &self.sites {
            if s.signal == signal {
                let s_end = s.at + s.width;
                assert!(
                    end < s.at || s_end < at,
                    "sliced glitches on one signal must not overlap"
                );
            }
        }
        let nonzero = masks
            .iter()
            .enumerate()
            .fold(0u64, |acc, (k, &m)| if m != 0 { acc | 1 << k } else { acc });
        let site = self.sites.len() as u32;
        self.sites.push(Site { signal, at, width, masks: masks.to_vec(), nonzero, saved: None });
        for (time, restore) in [(at, false), (end, true)] {
            let e = Expected { time, site, restore, done: false };
            let i = self.sched.partition_point(|x| x.time <= time);
            self.sched.insert(i, e);
        }
    }

    /// Registers a tap on `signal`, seeding its log with the current
    /// planes so reconstruction has a value at every time.
    pub fn add_tap(&mut self, signal: SignalId, now: Time, current: &Value) {
        if self.tap_of[signal.index()] != NONE {
            return;
        }
        let idx = self.tap_logs.len() as u32;
        self.tap_of[signal.index()] = idx;
        let snap = self.effective(signal, current);
        self.tap_logs.push(vec![(now, snap)]);
    }

    /// The per-lane commit history of a tapped signal.
    pub fn tap_history(&self, signal: SignalId) -> Option<&[(Time, LaneValues)]> {
        match self.tap_of.get(signal.index()) {
            Some(&idx) if idx != NONE => Some(&self.tap_logs[idx as usize]),
            _ => None,
        }
    }

    /// The committed planes of `signal`, materialising the broadcast
    /// of the carrier value for untracked signals.
    pub fn effective(&self, signal: SignalId, carrier: &Value) -> LaneValues {
        match self.committed.get(signal.index()) {
            Some(Some(p)) => p.clone(),
            _ => LaneValues::broadcast(carrier, self.lanes),
        }
    }

    /// Reads a member input's planes over the compiled engine's dense
    /// committed-value shadow.
    pub fn read_plane(&self, signal: SignalId, values: &[Value]) -> LaneValues {
        self.effective(signal, &values[signal.index()])
    }

    /// Records a compiled drive push. `superseded` carries the old
    /// pending carrier value when the push cancelled an in-flight
    /// drive: lanes whose pending value already equals their new one
    /// would have *skipped* in their scalar run — kept the earlier
    /// landing time the carrier just rescheduled — so they diverge.
    pub fn note_drive(&mut self, out: SignalId, plane: LaneValues, superseded: Option<&Value>) {
        if let Some(old_pending) = superseded {
            let ne = match &self.pending[out.index()] {
                Some(p) => plane.lanes_ne(p),
                None => plane.lanes_ne_value(old_pending),
            };
            self.diverged |= !ne & self.lane_mask();
        }
        self.pending[out.index()] = Some(plane);
    }

    /// Records a skipped compiled drive: lanes whose computed value
    /// differs from what the carrier's skip compared against would
    /// *not* have skipped in their scalar run — they diverge.
    pub fn note_skip(
        &mut self,
        out: SignalId,
        plane: &LaneValues,
        against_pending: bool,
        carrier: &Value,
    ) {
        let tbl = if against_pending { &self.pending } else { &self.committed };
        let ne = match &tbl[out.index()] {
            Some(p) => plane.lanes_ne(p),
            None => plane.lanes_ne_value(carrier),
        };
        self.diverged |= ne;
    }

    /// Records a *dynamic* (interpreted) drive the inertial protocol
    /// skipped. For a capture-ruled output committing its launch
    /// snapshot through, the per-lane desired values are known: lanes
    /// whose captured `d` differs from their current `q` wanted an
    /// edge the carrier will not deliver. Anything else falls back to
    /// the conservative input probe.
    pub fn dyn_skip<F: Fn(SignalId) -> Value>(
        &mut self,
        comp: ComponentId,
        out: SignalId,
        v: &Value,
        read: F,
    ) {
        let r = self.rule_of.get(out.index()).copied().unwrap_or(NONE);
        if r != NONE {
            let rule = &self.rules[r as usize];
            if let Some(l) = &rule.launched {
                if l.value == *v {
                    let desired = match &l.plane {
                        Some(p) => p.clone(),
                        None => LaneValues::broadcast(v, self.lanes),
                    };
                    let cur_q = self.effective(out, &read(out));
                    self.diverged |= desired.lanes_ne(&cur_q);
                    return;
                }
            }
            self.diverge_rule_conservative(r as usize, out, &read);
            return;
        }
        self.diverge_reads(comp, &read);
    }

    /// Records a dynamic drive that superseded an in-flight one.
    /// Per-lane pending state isn't tracked for interpreted cells, so
    /// any lane the cell's output or inputs cannot vouch for demotes.
    pub fn dyn_supersede<F: Fn(SignalId) -> Value>(
        &mut self,
        comp: ComponentId,
        out: SignalId,
        read: F,
    ) {
        let r = self.rule_of.get(out.index()).copied().unwrap_or(NONE);
        if r != NONE {
            self.diverge_rule_conservative(r as usize, out, &read);
        } else {
            self.diverge_reads(comp, &read);
        }
    }

    /// Conservative demotion for a capture-ruled output: lanes whose
    /// tracked `q` or launch snapshots differ from the carrier.
    fn diverge_rule_conservative<F: Fn(SignalId) -> Value>(
        &mut self,
        rule: usize,
        out: SignalId,
        read: &F,
    ) {
        if let Some(p) = &self.committed[out.index()] {
            self.diverged |= p.lanes_ne_value(&read(out));
        }
        let r = &self.rules[rule];
        let mut ne = 0u64;
        for snap in [&r.launched, &r.prev].into_iter().flatten() {
            if let Some(p) = &snap.plane {
                ne |= p.lanes_ne_value(&snap.value);
            }
        }
        self.diverged |= ne;
    }

    /// Conservative demotion via a component's read list: lanes
    /// tracking a different value on any input cannot be followed.
    fn diverge_reads<F: Fn(SignalId) -> Value>(&mut self, comp: ComponentId, read: &F) {
        if let Some(ins) = self.reads.get(comp.index()) {
            let mut ne = 0u64;
            for &i in ins {
                if let Some(p) = &self.committed[i.index()] {
                    ne |= p.lanes_ne_value(&read(i));
                }
            }
            self.diverged |= ne;
        }
    }

    /// Advances the plane state across one carrier commit. `forced`
    /// is `Some(was_pending)` for force commits (fault actions) and
    /// `None` for driver commits; `driver` is the signal's registered
    /// driver; `read` yields any signal's committed carrier value.
    pub fn on_commit<F: Fn(SignalId) -> Value>(
        &mut self,
        time: Time,
        signal: SignalId,
        old: &Value,
        new: &Value,
        forced: Option<bool>,
        driver: Option<ComponentId>,
        read: F,
    ) {
        self.sweep(time, &read);
        let si = signal.index();
        if let Some(was_pending) = forced {
            // Any in-flight compiled drive was epoch-cancelled.
            self.pending[si] = None;
            match self.match_expected(time, signal) {
                Some(i) => self.apply_expected(i, old, was_pending),
                // A plain shared force: every lane takes the value.
                None => self.committed[si] = None,
            }
        } else if let Some(p) = self.pending[si].take() {
            // A compiled drive landing: the planes were computed
            // lane-exact at evaluation time. Collapse the ubiquitous
            // all-equal case back to the broadcast representation.
            debug_assert_eq!(p.unpack(0).width(), new.width());
            self.committed[si] = if p.all_equal() { None } else { Some(p) };
        } else if self.rule_of[si] != NONE {
            self.apply_capture(self.rule_of[si] as usize, si, new);
        } else {
            // A commit the plane algebra cannot follow (stimulus,
            // environment model, state cell without a capture rule):
            // all lanes take the carrier value, and lanes that were
            // tracking a different value on any input of the driving
            // cell can no longer be vouched for.
            if let Some(comp) = driver {
                self.diverge_reads(comp, &read);
            }
            self.committed[si] = None;
        }
        // Refresh launch snapshots of captures fed by this signal.
        if !self.rules_by_input[si].is_empty() {
            let snap_plane = self.committed[si].clone();
            for r in self.rules_by_input[si].clone() {
                let rule = &mut self.rules[r as usize];
                rule.prev = rule.launched.take();
                rule.launched = Some(Launched { plane: snap_plane.clone(), value: *new });
            }
        }
        if self.tap_of[si] != NONE {
            let snap = self.effective(signal, new);
            self.tap_logs[self.tap_of[si] as usize].push((time, snap));
        }
    }

    /// Records a carrier force that committed nothing — the signal
    /// already held the forced value — yet cancelled an in-flight
    /// drive. Lanes without a force at this site keep that drive in
    /// their scalar runs and diverge, the rule a committing force
    /// applies too; the lanes whose own force would have committed are
    /// settled as a missed force. A force no site expects hits every
    /// lane alike and demotes nothing.
    pub fn on_silent_force<F: Fn(SignalId) -> Value>(
        &mut self,
        time: Time,
        signal: SignalId,
        read: F,
    ) {
        self.sweep(time, &read);
        self.pending[signal.index()] = None;
        if let Some(i) = self.match_expected(time, signal) {
            let e = self.sched[i];
            self.diverged |= !self.sites[e.site as usize].nonzero & self.lane_mask();
            self.miss(e, &read);
        }
    }

    /// Finds the not-yet-done expected force matching this commit.
    fn match_expected(&mut self, time: Time, signal: SignalId) -> Option<usize> {
        let mut i = self.cursor;
        while i < self.sched.len() && self.sched[i].time <= time {
            let e = self.sched[i];
            if e.time == time && !e.done && self.sites[e.site as usize].signal == signal {
                self.sched[i].done = true;
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Applies a matched glitch force to the planes.
    fn apply_expected(&mut self, idx: usize, old: &Value, was_pending: bool) {
        let Expected { site, restore, .. } = self.sched[idx];
        let lanes = self.lanes;
        let lane_mask = self.lane_mask();
        let site = &mut self.sites[site as usize];
        let si = site.signal.index();
        if was_pending {
            // The carrier force cancelled an in-flight drive; lanes
            // that would not have forced here keep theirs.
            self.diverged |= !site.nonzero & lane_mask;
        }
        if !restore {
            let pre = self.committed[si]
                .take()
                .unwrap_or_else(|| LaneValues::broadcast(old, lanes));
            let mut post = pre.clone();
            for (k, &m) in site.masks.iter().enumerate() {
                if m != 0 {
                    post.xor_lanes(m, 1 << k);
                }
            }
            site.saved = Some(pre);
            self.committed[si] = Some(post);
        } else {
            match site.saved.take() {
                Some(saved) => {
                    // Lanes without their own restore force keep
                    // whatever a mid-glitch recommit left behind; if
                    // that differs from the restored value they
                    // cannot be followed.
                    let cur = self.committed[si]
                        .take()
                        .unwrap_or_else(|| LaneValues::broadcast(old, lanes));
                    self.diverged |= cur.lanes_ne(&saved) & !site.nonzero;
                    self.committed[si] = Some(saved);
                }
                None => {
                    self.diverged |= site.nonzero;
                    self.committed[si] = None;
                }
            }
        }
    }

    /// Settles every expected force before `now` that the carrier
    /// never committed.
    fn sweep<F: Fn(SignalId) -> Value>(&mut self, now: Time, read: &F) {
        while self.cursor < self.sched.len() && self.sched[self.cursor].time < now {
            let e = self.sched[self.cursor];
            self.cursor += 1;
            if !e.done {
                self.miss(e, read);
            }
        }
    }

    /// Settles one expected force the carrier never committed (none
    /// was scheduled, or it found the value already equal):
    /// conservative divergence for the lanes whose scalar runs *would*
    /// have committed.
    fn miss<F: Fn(SignalId) -> Value>(&mut self, e: Expected, read: &F) {
        let site = &mut self.sites[e.site as usize];
        if !e.restore {
            self.diverged |= site.nonzero;
        } else if let Some(saved) = site.saved.take() {
            let ne = match &self.committed[site.signal.index()] {
                Some(cur) => cur.lanes_ne(&saved),
                None => saved.lanes_ne_value(&read(site.signal)),
            };
            self.diverged |= ne & site.nonzero;
        }
    }

    /// Marks every remaining expected force as missed and returns the
    /// final diverged-lane mask. Call once the campaign run is over.
    pub fn seal<F: Fn(SignalId) -> Value>(&mut self, read: F) -> u64 {
        self.sweep(Time::MAX, &read);
        self.diverged & self.lane_mask()
    }

    /// Applies a capture rule at a state-cell output commit.
    fn apply_capture(&mut self, rule: usize, si: usize, new: &Value) {
        enum Outcome {
            Inherit(Option<LaneValues>),
            Demote(u64),
        }
        let r = &self.rules[rule];
        let outcome = match (&r.launched, &r.prev) {
            (Some(l), _) if l.value == *new => Outcome::Inherit(l.plane.clone()),
            (_, Some(p)) if p.value == *new => Outcome::Inherit(p.plane.clone()),
            (launched, prev) => {
                // A transformed or reset capture: all lanes take the
                // carrier value; lanes whose `d` differed from the
                // carrier's in either snapshot cannot be vouched for.
                let mut ne = 0u64;
                for snap in [launched, prev].into_iter().flatten() {
                    if let Some(p) = &snap.plane {
                        ne |= p.lanes_ne_value(&snap.value);
                    }
                }
                Outcome::Demote(ne)
            }
        };
        match outcome {
            Outcome::Inherit(plane) => {
                debug_assert!(
                    plane.as_ref().is_none_or(|p| p.unpack(0).width() == new.width()),
                    "capture rule width mismatch"
                );
                self.committed[si] = plane.filter(|p| !p.all_equal());
            }
            Outcome::Demote(ne) => {
                self.diverged |= ne;
                self.committed[si] = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(i: u32) -> SignalId {
        SignalId(i)
    }

    #[test]
    fn glitch_apply_and_restore_round_trip() {
        let mut sl = Sliced::new(4, 3, &[], vec![]);
        let v = Value::from_u64(8, 0xA5);
        let read = |_: SignalId| Value::from_u64(8, 0xA5);
        sl.add_glitch(Time::from_ps(10), sig(1), Time::from_ps(5), &[0, 0x0F, 0xF0, 0]);
        // Carrier applies the pilot's (lane 1's) glitch at t=10.
        let glitched = v.xor(&Value::from_u64(8, 0x0F));
        sl.on_commit(Time::from_ps(10), sig(1), &v, &glitched, Some(false), None, read);
        let p = sl.committed[1].as_ref().expect("planes tracked");
        assert_eq!(p.unpack(0), v, "unglitched lane keeps its value");
        assert_eq!(p.unpack(1), v.xor(&Value::from_u64(8, 0x0F)));
        assert_eq!(p.unpack(2), v.xor(&Value::from_u64(8, 0xF0)));
        assert_eq!(sl.diverged, 0);
        // Restore force at t=15 brings every lane back.
        sl.on_commit(Time::from_ps(15), sig(1), &glitched, &v, Some(false), None, read);
        let p = sl.committed[1].as_ref().expect("restored planes");
        assert!(p.all_equal());
        assert_eq!(p.unpack(3), v);
        assert_eq!(sl.seal(read), 0, "clean round trip diverges nothing");
    }

    #[test]
    fn missed_apply_diverges_masked_lanes_only() {
        let mut sl = Sliced::new(3, 2, &[], vec![]);
        let read = |_: SignalId| Value::zero(4);
        sl.add_glitch(Time::from_ps(5), sig(0), Time::from_ps(2), &[0b01, 0, 0b10]);
        // No force ever committed; a later commit sweeps past both
        // expected events.
        sl.on_commit(Time::from_ps(20), sig(1), &Value::zero(4), &Value::ones(4), None, None, read);
        assert_eq!(sl.diverged, 0b101, "only lanes with a mask diverge");
    }

    #[test]
    fn force_cancelling_inflight_drive_diverges_unmasked_lanes() {
        let mut sl = Sliced::new(2, 1, &[], vec![]);
        let read = |_: SignalId| Value::zero(1);
        sl.add_glitch(Time::from_ps(5), sig(0), Time::from_ps(2), &[1, 0]);
        sl.on_commit(
            Time::from_ps(5),
            sig(0),
            &Value::zero(1),
            &Value::one(1),
            Some(true), // an in-flight drive was cancelled
            None,
            read,
        );
        assert_eq!(sl.diverged, 0b10, "the lane that would not force keeps its drive");
    }

    #[test]
    fn capture_rule_inherits_launch_planes() {
        let q = sig(0);
        let d = sig(1);
        let mut sl = Sliced::new(2, 2, &[(q, d)], vec![]);
        let read = |_: SignalId| Value::zero(4);
        // d commits with lane-divergent planes (e.g. downstream of a
        // glitch), landing them through the compiled-drive path: a
        // passthrough q commit inherits them.
        let dv = Value::from_u64(4, 0b0011);
        let mut p = LaneValues::broadcast(&dv, 2);
        p.set_lane(1, &Value::from_u64(4, 0b1100));
        sl.note_drive(d, p, None);
        sl.on_commit(Time::from_ps(1), d, &Value::zero(4), &dv, None, None, read);
        sl.on_commit(Time::from_ps(3), q, &Value::zero(4), &dv, None, None, read);
        let p = sl.committed[0].as_ref().expect("q inherits planes");
        assert_eq!(p.unpack(0), dv);
        assert_eq!(p.unpack(1), Value::from_u64(4, 0b1100));
        assert_eq!(sl.diverged, 0);
    }

    #[test]
    fn transformed_capture_demotes_differing_lanes() {
        let q = sig(0);
        let d = sig(1);
        let mut sl = Sliced::new(2, 2, &[(q, d)], vec![]);
        let read = |_: SignalId| Value::zero(4);
        let dv = Value::from_u64(4, 0b0011);
        let mut p = LaneValues::broadcast(&dv, 2);
        p.set_lane(1, &Value::from_u64(4, 0b1100));
        sl.note_drive(d, p, None);
        sl.on_commit(Time::from_ps(1), d, &Value::zero(4), &dv, None, None, read);
        // q commits something that is *not* d (reset, inversion…).
        sl.on_commit(Time::from_ps(3), q, &Value::zero(4), &Value::ones(4), None, None, read);
        assert!(sl.committed[0].is_none());
        assert_eq!(sl.diverged, 0b10, "the lane with different d demotes");
    }

    #[test]
    fn dyn_skip_on_passthrough_flags_lanes_wanting_an_edge() {
        let q = sig(0);
        let d = sig(1);
        let mut sl = Sliced::new(2, 2, &[(q, d)], vec![]);
        let dv = Value::one(1);
        let read = move |s: SignalId| if s == q { Value::one(1) } else { dv };
        // Lane 1's d differs from the carrier's when d commits.
        let mut p = LaneValues::broadcast(&dv, 2);
        p.set_lane(1, &Value::zero(1));
        sl.note_drive(d, p, None);
        sl.on_commit(Time::from_ps(1), d, &Value::zero(1), &dv, None, None, read);
        // The latch drives q = d = 1 but the carrier q is already 1 →
        // skip. Lane 1 wanted the edge to 0 and must demote.
        sl.dyn_skip(ComponentId(7), q, &dv, read);
        assert_eq!(sl.diverged, 0b10);
    }

    #[test]
    fn taps_log_plane_snapshots_at_commits() {
        let mut sl = Sliced::new(2, 1, &[], vec![]);
        let read = |_: SignalId| Value::zero(8);
        sl.add_tap(sig(0), Time::ZERO, &Value::zero(8));
        let v1 = Value::from_u64(8, 0x11);
        sl.on_commit(Time::from_ps(4), sig(0), &Value::zero(8), &v1, None, None, read);
        let h = sl.tap_history(sig(0)).expect("tapped");
        assert_eq!(h.len(), 2);
        assert_eq!(h[1].0, Time::from_ps(4));
        assert_eq!(h[1].1.unpack(1), v1);
        assert_eq!(sl.tap_history(sig(1)), None, "out-of-range signal is untapped");
    }
}
