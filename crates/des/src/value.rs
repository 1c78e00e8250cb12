//! Multi-bit signal values with unknown (`X`) propagation.

use std::fmt;

/// A single-bit logic level: `0`, `1` or unknown.
///
/// The kernel uses three-state logic: every signal starts as [`Logic::X`]
/// until something drives it, and `X` propagates pessimistically through
/// combinational operators exactly as in an HDL simulator. There is no
/// high-impedance state because every net in the reproduced circuits has
/// exactly one driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / uninitialised.
    X,
}

impl Logic {
    /// Converts a boolean into a known logic level.
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Logic::Zero => write!(f, "0"),
            Logic::One => write!(f, "1"),
            Logic::X => write!(f, "x"),
        }
    }
}

/// A bit-vector value of width 1..=64 with a per-bit unknown mask.
///
/// Whole datapath buses are modelled as single signals carrying a
/// `Value`; transition counting works on bit toggles so activity-based
/// power estimation stays exact. Bits above `width` are always zero in
/// both `bits` and `x`.
///
/// # Examples
///
/// ```
/// use sal_des::Value;
/// let a = Value::from_u64(8, 0xA5);
/// let b = Value::from_u64(8, 0x5A);
/// assert_eq!(a.xor(&b), Value::from_u64(8, 0xFF));
/// assert_eq!(a.toggles_to(&b), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    width: u8,
    bits: u64,
    x: u64,
}

impl Value {
    /// Maximum supported bus width.
    pub const MAX_WIDTH: u8 = 64;

    /// The bit mask covering exactly `width` low bits — the invariant
    /// mask every [`Value`] keeps its `bits`/`x` words confined to.
    ///
    /// Exposed so lane-packing code (the bit-sliced campaign engine)
    /// and fault-plan resolution share one definition instead of
    /// re-deriving `(1 << width) - 1` with its own 64-bit edge case.
    #[inline]
    pub fn width_mask(width: u8) -> u64 {
        debug_assert!((1..=64).contains(&width));
        if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    #[inline]
    fn mask(width: u8) -> u64 {
        Self::width_mask(width)
    }

    /// An all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn zero(width: u8) -> Value {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        Value { width, bits: 0, x: 0 }
    }

    /// An all-ones value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn ones(width: u8) -> Value {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        Value { width, bits: Self::mask(width), x: 0 }
    }

    /// An all-unknown value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn all_x(width: u8) -> Value {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        Value { width, bits: 0, x: Self::mask(width) }
    }

    /// A single-bit `1`.
    pub fn one(width: u8) -> Value {
        Value::from_u64(width, 1)
    }

    /// A fully-known value from an integer; bits above `width` are
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn from_u64(width: u8, v: u64) -> Value {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        Value { width, bits: v & Self::mask(width), x: 0 }
    }

    /// A single-bit value from a [`Logic`] level.
    pub fn from_logic(l: Logic) -> Value {
        match l {
            Logic::Zero => Value::zero(1),
            Logic::One => Value::ones(1),
            Logic::X => Value::all_x(1),
        }
    }

    /// A single-bit value from a boolean.
    pub fn from_bool(b: bool) -> Value {
        Value::from_logic(Logic::from_bool(b))
    }

    /// The declared width in bits.
    #[inline]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The integer value if every bit is known, else `None`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.x == 0 {
            Some(self.bits)
        } else {
            None
        }
    }

    /// The raw known-bit pattern (unknown bits read as zero).
    pub fn raw_bits(&self) -> u64 {
        self.bits
    }

    /// The unknown-bit mask.
    pub fn x_mask(&self) -> u64 {
        self.x
    }

    /// True when no bit is `X`.
    pub fn is_fully_known(&self) -> bool {
        self.x == 0
    }

    /// The logic level of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u8) -> Logic {
        assert!(i < self.width, "bit index out of range");
        if self.x >> i & 1 == 1 {
            Logic::X
        } else if self.bits >> i & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// The value as a single logic level.
    ///
    /// # Panics
    ///
    /// Panics if the width is not 1.
    pub fn as_logic(&self) -> Logic {
        assert_eq!(self.width, 1, "as_logic requires a 1-bit value");
        self.bit(0)
    }

    /// True if this is a 1-bit known `1`.
    #[inline]
    pub fn is_high(&self) -> bool {
        self.width == 1 && self.x == 0 && self.bits == 1
    }

    /// True if this is a 1-bit known `0`.
    #[inline]
    pub fn is_low(&self) -> bool {
        self.width == 1 && self.x == 0 && self.bits == 0
    }

    /// Extracts bits `[lo, lo+width)` as a new value.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds this value's width or `width` is 0.
    pub fn slice(&self, lo: u8, width: u8) -> Value {
        assert!(width >= 1, "slice width must be at least 1");
        assert!(
            lo.checked_add(width).is_some_and(|hi| hi <= self.width),
            "slice out of range"
        );
        let m = Self::mask(width);
        Value { width, bits: (self.bits >> lo) & m, x: (self.x >> lo) & m }
    }

    /// Concatenates `hi` above `self` (`self` occupies the low bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64.
    pub fn concat(&self, hi: &Value) -> Value {
        let w = self
            .width
            .checked_add(hi.width)
            .filter(|&w| w <= 64)
            .expect("concatenated width exceeds 64");
        Value {
            width: w,
            bits: self.bits | (hi.bits << self.width),
            x: self.x | (hi.x << self.width),
        }
    }

    /// Bitwise NOT with X propagation.
    #[inline]
    pub fn not(&self) -> Value {
        let m = Self::mask(self.width);
        Value { width: self.width, bits: !self.bits & m & !self.x, x: self.x }
    }

    fn check_width(&self, other: &Value) {
        assert_eq!(self.width, other.width, "width mismatch in bitwise op");
    }

    /// Bitwise AND: a known `0` on either side dominates an `X`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    #[inline]
    pub fn and(&self, other: &Value) -> Value {
        self.check_width(other);
        let zero_a = !self.bits & !self.x;
        let zero_b = !other.bits & !other.x;
        let m = Self::mask(self.width);
        let x = (self.x | other.x) & !(zero_a | zero_b) & m;
        Value { width: self.width, bits: self.bits & other.bits & !x, x }
    }

    /// Bitwise OR: a known `1` on either side dominates an `X`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    #[inline]
    pub fn or(&self, other: &Value) -> Value {
        self.check_width(other);
        let one_a = self.bits & !self.x;
        let one_b = other.bits & !other.x;
        let x = (self.x | other.x) & !(one_a | one_b);
        Value { width: self.width, bits: (self.bits | other.bits | one_a | one_b) & !x, x }
    }

    /// Bitwise XOR: any `X` input makes the output bit `X`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    #[inline]
    pub fn xor(&self, other: &Value) -> Value {
        self.check_width(other);
        let x = self.x | other.x;
        Value { width: self.width, bits: (self.bits ^ other.bits) & !x, x }
    }

    /// Two-way multiplexer with X-pessimism: an unknown select yields
    /// `X` wherever the two data inputs disagree or are unknown.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` widths differ or `sel` is not 1 bit wide.
    pub fn mux(sel: &Value, a: &Value, b: &Value) -> Value {
        a.check_width(b);
        assert_eq!(sel.width(), 1, "mux select must be 1 bit");
        match sel.as_logic() {
            Logic::Zero => *a,
            Logic::One => *b,
            Logic::X => {
                let agree = !(a.bits ^ b.bits) & !a.x & !b.x;
                let m = Self::mask(a.width);
                Value { width: a.width, bits: a.bits & agree, x: m & !agree }
            }
        }
    }

    /// The number of bit positions whose *known* level differs between
    /// `self` and `next`, i.e. the toggle count charged by the power
    /// model for a `self → next` commit. A bit entering or leaving the
    /// `X` state counts as one toggle (pessimistic but consistent).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    #[inline]
    pub fn toggles_to(&self, next: &Value) -> u32 {
        self.check_width(next);
        let x_change = self.x ^ next.x;
        let both_known = !self.x & !next.x;
        (((self.bits ^ next.bits) & both_known) | x_change).count_ones()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

impl From<Logic> for Value {
    fn from(l: Logic) -> Value {
        Value::from_logic(l)
    }
}

/// Up to 64 independent lane values of one signal, stored *bit-sliced*:
/// plane `b` holds bit `b` of every lane, one lane per plane bit. This
/// is the storage layout of the bit-sliced campaign engine — a bitwise
/// gate evaluated once per plane advances all lanes in parallel.
///
/// Planes mirror the [`Value`] invariant: only the low [`LaneValues::lanes`]
/// bits of each plane word are meaningful, and [`LaneValues::unpack`]
/// re-masks through [`Value`] constructors so garbage can never leak
/// out of dead lanes or out of bits above the signal width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneValues {
    /// Known-one planes: `ones[b]` bit `k` set iff lane `k` bit `b` is 1.
    ones: Vec<u64>,
    /// Unknown planes: `xs[b]` bit `k` set iff lane `k` bit `b` is X.
    xs: Vec<u64>,
    width: u8,
    lanes: u8,
}

impl LaneValues {
    /// Maximum number of lanes (one per plane bit).
    pub const MAX_LANES: u8 = 64;

    /// All lanes carrying the same value (the carrier broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 64.
    pub fn broadcast(v: &Value, lanes: u8) -> LaneValues {
        assert!((1..=64).contains(&lanes), "lanes must be 1..=64");
        let lane_mask = Value::width_mask(lanes);
        let width = v.width();
        let mut ones = vec![0u64; width as usize];
        let mut xs = vec![0u64; width as usize];
        for b in 0..width {
            if v.raw_bits() >> b & 1 == 1 {
                ones[b as usize] = lane_mask;
            }
            if v.x_mask() >> b & 1 == 1 {
                xs[b as usize] = lane_mask;
            }
        }
        LaneValues { ones, xs, width, lanes }
    }

    /// Packs one [`Value`] per lane into planes. All values must share
    /// one width; `values.len()` sets the lane count.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, longer than 64, or mixes widths.
    pub fn pack(values: &[Value]) -> LaneValues {
        assert!(
            (1..=64).contains(&values.len()),
            "lane count must be 1..=64, got {}",
            values.len()
        );
        let width = values[0].width();
        let mut lv = LaneValues::broadcast(&Value::zero(width), values.len() as u8);
        for (k, v) in values.iter().enumerate() {
            assert_eq!(v.width(), width, "lane {k} width mismatch");
            lv.set_lane(k as u8, v);
        }
        lv
    }

    /// The signal width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The number of packed lanes.
    pub fn lanes(&self) -> u8 {
        self.lanes
    }

    /// Extracts lane `k` back into a [`Value`].
    ///
    /// # Panics
    ///
    /// Panics if `k >= lanes`.
    pub fn unpack(&self, k: u8) -> Value {
        assert!(k < self.lanes, "lane {k} out of {}", self.lanes);
        let mut bits = 0u64;
        let mut x = 0u64;
        for b in 0..self.width {
            bits |= (self.ones[b as usize] >> k & 1) << b;
            x |= (self.xs[b as usize] >> k & 1) << b;
        }
        // Re-mask on the way out: an X bit is never simultaneously a
        // known 1, and nothing survives above the width.
        let m = Value::width_mask(self.width);
        let x = x & m;
        Value { width: self.width, bits: bits & m & !x, x }
    }

    /// Overwrites lane `k` with `v` (same width as the planes).
    ///
    /// # Panics
    ///
    /// Panics if `k >= lanes` or widths mismatch.
    pub fn set_lane(&mut self, k: u8, v: &Value) {
        assert!(k < self.lanes, "lane {k} out of {}", self.lanes);
        assert_eq!(v.width(), self.width, "lane width mismatch");
        let bit = 1u64 << k;
        for b in 0..self.width {
            let one = v.raw_bits() >> b & 1 == 1;
            let x = v.x_mask() >> b & 1 == 1;
            set_plane_bit(&mut self.ones[b as usize], bit, one && !x);
            set_plane_bit(&mut self.xs[b as usize], bit, x);
        }
    }

    /// XORs `mask` into the known bits of the lanes selected by
    /// `lane_sel` (bit `k` of `lane_sel` selects lane `k`); X bits stay
    /// X. This is the per-lane glitch-injection primitive.
    pub fn xor_lanes(&mut self, mask: u64, lane_sel: u64) {
        let lane_sel = lane_sel & Value::width_mask(self.lanes);
        let mask = mask & Value::width_mask(self.width);
        for b in 0..self.width {
            if mask >> b & 1 == 1 {
                // Flip only where the bit is known.
                self.ones[b as usize] ^= lane_sel & !self.xs[b as usize];
            }
        }
    }

    /// True when every lane holds the same value (bitwise, X included).
    pub fn all_equal(&self) -> bool {
        let lane_mask = Value::width_mask(self.lanes);
        for b in 0..self.width {
            for plane in [self.ones[b as usize], self.xs[b as usize]] {
                let p = plane & lane_mask;
                if p != 0 && p != lane_mask {
                    return false;
                }
            }
        }
        true
    }

    /// Read-only plane access for lane-parallel gate evaluation:
    /// `(ones, xs)` of bit `b`.
    pub fn plane(&self, b: u8) -> (u64, u64) {
        (self.ones[b as usize], self.xs[b as usize])
    }
}

/// Lane-parallel mirrors of the scalar [`Value`] operators. Each
/// method computes, for every lane `k`, exactly what the scalar op
/// would produce from that lane's unpacked values — the formulas are
/// the [`Value`] ones applied per bit-plane, with the *lane* mask
/// playing the role the *width* mask plays in the scalar algebra
/// (a plane word indexes lanes where a value word indexes bits).
/// `unpack(op_lanes(..), k) == op(unpack(.., k), ..)` is the
/// equivalence the sliced campaign engine rests on, and is what the
/// tests below check.
impl LaneValues {
    fn check_like(&self, other: &LaneValues) {
        assert_eq!(self.width, other.width, "width mismatch in lane op");
        assert_eq!(self.lanes, other.lanes, "lane count mismatch in lane op");
    }

    /// Lane-parallel [`Value::not`].
    pub fn not(&self) -> LaneValues {
        let lm = Value::width_mask(self.lanes);
        let mut out = self.clone();
        for b in 0..self.width as usize {
            out.ones[b] = !self.ones[b] & lm & !self.xs[b];
            out.xs[b] = self.xs[b] & lm;
        }
        out
    }

    /// Lane-parallel [`Value::and`].
    ///
    /// # Panics
    ///
    /// Panics on width or lane-count mismatch.
    pub fn and(&self, other: &LaneValues) -> LaneValues {
        self.check_like(other);
        let lm = Value::width_mask(self.lanes);
        let mut out = self.clone();
        for b in 0..self.width as usize {
            let (oa, xa) = (self.ones[b], self.xs[b]);
            let (ob, xb) = (other.ones[b], other.xs[b]);
            let zero_a = !oa & !xa;
            let zero_b = !ob & !xb;
            let x = (xa | xb) & !(zero_a | zero_b) & lm;
            out.ones[b] = oa & ob & !x;
            out.xs[b] = x;
        }
        out
    }

    /// Lane-parallel [`Value::or`].
    ///
    /// # Panics
    ///
    /// Panics on width or lane-count mismatch.
    pub fn or(&self, other: &LaneValues) -> LaneValues {
        self.check_like(other);
        let lm = Value::width_mask(self.lanes);
        let mut out = self.clone();
        for b in 0..self.width as usize {
            let (oa, xa) = (self.ones[b], self.xs[b]);
            let (ob, xb) = (other.ones[b], other.xs[b]);
            let one_a = oa & !xa;
            let one_b = ob & !xb;
            let x = (xa | xb) & !(one_a | one_b) & lm;
            out.ones[b] = (oa | ob | one_a | one_b) & !x & lm;
            out.xs[b] = x;
        }
        out
    }

    /// Lane-parallel [`Value::xor`].
    ///
    /// # Panics
    ///
    /// Panics on width or lane-count mismatch.
    pub fn xor(&self, other: &LaneValues) -> LaneValues {
        self.check_like(other);
        let lm = Value::width_mask(self.lanes);
        let mut out = self.clone();
        for b in 0..self.width as usize {
            let x = (self.xs[b] | other.xs[b]) & lm;
            out.ones[b] = (self.ones[b] ^ other.ones[b]) & !x & lm;
            out.xs[b] = x;
        }
        out
    }

    /// Lane-parallel [`Value::mux`]: each lane selects with *its own*
    /// select bit, so lanes with known selects pass data through while
    /// lanes with an X select get the X-pessimistic merge.
    ///
    /// # Panics
    ///
    /// Panics if `a`/`b` differ in shape or `sel` is not 1 bit wide.
    pub fn mux(sel: &LaneValues, a: &LaneValues, b: &LaneValues) -> LaneValues {
        a.check_like(b);
        assert_eq!(sel.width, 1, "mux select must be 1 bit");
        assert_eq!(sel.lanes, a.lanes, "lane count mismatch in lane op");
        let lm = Value::width_mask(a.lanes);
        let sel1 = sel.ones[0] & !sel.xs[0];
        let sel0 = !sel.ones[0] & !sel.xs[0];
        let selx = sel.xs[0];
        let mut out = a.clone();
        for bit in 0..a.width as usize {
            let (oa, xa) = (a.ones[bit], a.xs[bit]);
            let (ob, xb) = (b.ones[bit], b.xs[bit]);
            let agree = !(oa ^ ob) & !xa & !xb;
            let x = ((xa & sel0) | (xb & sel1) | (selx & !agree)) & lm;
            out.ones[bit] = ((oa & sel0) | (ob & sel1) | (selx & agree & oa)) & !x & lm;
            out.xs[bit] = x;
        }
        out
    }

    /// Lane-parallel [`Value::slice`].
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds this value's width or `width` is 0.
    pub fn slice(&self, lo: u8, width: u8) -> LaneValues {
        assert!(width >= 1, "slice width must be at least 1");
        assert!(
            lo.checked_add(width).is_some_and(|hi| hi <= self.width),
            "slice out of range"
        );
        let lo = lo as usize;
        let hi = lo + width as usize;
        LaneValues {
            ones: self.ones[lo..hi].to_vec(),
            xs: self.xs[lo..hi].to_vec(),
            width,
            lanes: self.lanes,
        }
    }

    /// Lane-parallel [`Value::concat`] (`self` occupies the low bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 or lane counts differ.
    pub fn concat(&self, hi: &LaneValues) -> LaneValues {
        assert_eq!(self.lanes, hi.lanes, "lane count mismatch in lane op");
        let w = self
            .width
            .checked_add(hi.width)
            .filter(|&w| w <= 64)
            .expect("concatenated width exceeds 64");
        let mut ones = Vec::with_capacity(w as usize);
        let mut xs = Vec::with_capacity(w as usize);
        ones.extend_from_slice(&self.ones);
        ones.extend_from_slice(&hi.ones);
        xs.extend_from_slice(&self.xs);
        xs.extend_from_slice(&hi.xs);
        LaneValues { ones, xs, width: w, lanes: self.lanes }
    }

    /// Spreads a 1-bit lane set across `width` bits — the
    /// lane-parallel form of a gate's 1-bit-to-word input broadcast
    /// (a lane's known 0 becomes all-zeros, known 1 all-ones, X
    /// all-X).
    ///
    /// # Panics
    ///
    /// Panics if this value is not 1 bit wide.
    pub fn broadcast_to(&self, width: u8) -> LaneValues {
        assert_eq!(self.width, 1, "broadcast_to requires a 1-bit lane set");
        LaneValues {
            ones: vec![self.ones[0]; width as usize],
            xs: vec![self.xs[0]; width as usize],
            width,
            lanes: self.lanes,
        }
    }

    /// The set of lanes (as a bit mask) whose value differs between
    /// `self` and `other`, bitwise with X included.
    ///
    /// # Panics
    ///
    /// Panics on width or lane-count mismatch.
    pub fn lanes_ne(&self, other: &LaneValues) -> u64 {
        self.check_like(other);
        let mut diff = 0u64;
        for b in 0..self.width as usize {
            diff |= (self.ones[b] ^ other.ones[b]) | (self.xs[b] ^ other.xs[b]);
        }
        diff & Value::width_mask(self.lanes)
    }

    /// The set of lanes whose value differs from the scalar `v` — the
    /// cheap form of [`LaneValues::lanes_ne`] against a broadcast.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn lanes_ne_value(&self, v: &Value) -> u64 {
        assert_eq!(v.width(), self.width, "width mismatch in lane op");
        let lm = Value::width_mask(self.lanes);
        let mut diff = 0u64;
        for b in 0..self.width {
            let refo = if v.raw_bits() >> b & 1 == 1 { lm } else { 0 };
            let refx = if v.x_mask() >> b & 1 == 1 { lm } else { 0 };
            diff |= (self.ones[b as usize] ^ refo) | (self.xs[b as usize] ^ refx);
        }
        diff & lm
    }
}

#[inline]
fn set_plane_bit(plane: &mut u64, bit: u64, on: bool) {
    if on {
        *plane |= bit;
    } else {
        *plane &= !bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_masking() {
        let v = Value::from_u64(4, 0xFF);
        assert_eq!(v.to_u64(), Some(0xF));
        assert_eq!(Value::zero(64).width(), 64);
        assert_eq!(Value::ones(64).to_u64(), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "width must be 1..=64")]
    fn zero_width_rejected() {
        let _ = Value::zero(0);
    }

    #[test]
    fn bit_access() {
        let v = Value::from_u64(4, 0b1010);
        assert_eq!(v.bit(0), Logic::Zero);
        assert_eq!(v.bit(1), Logic::One);
        assert_eq!(v.bit(3), Logic::One);
        assert!(Value::all_x(4).bit(2) == Logic::X);
    }

    #[test]
    fn not_with_x() {
        let v = Value::from_u64(2, 0b01);
        assert_eq!(v.not().to_u64(), Some(0b10));
        let x = Value::all_x(2);
        assert_eq!(x.not().x_mask(), 0b11);
    }

    #[test]
    fn and_dominant_zero() {
        let zero = Value::zero(1);
        let x = Value::all_x(1);
        assert!(zero.and(&x).is_low());
        assert_eq!(x.and(&Value::ones(1)).as_logic(), Logic::X);
    }

    #[test]
    fn or_dominant_one() {
        let one = Value::ones(1);
        let x = Value::all_x(1);
        assert!(one.or(&x).is_high());
        assert_eq!(x.or(&Value::zero(1)).as_logic(), Logic::X);
    }

    #[test]
    fn xor_propagates_x() {
        let x = Value::all_x(1);
        assert_eq!(x.xor(&Value::zero(1)).as_logic(), Logic::X);
        let a = Value::from_u64(8, 0xA5);
        let b = Value::from_u64(8, 0x5A);
        assert_eq!(a.xor(&b).to_u64(), Some(0xFF));
    }

    #[test]
    fn mux_known_and_unknown_select() {
        let a = Value::from_u64(4, 0b1100);
        let b = Value::from_u64(4, 0b1010);
        let s0 = Value::zero(1);
        let s1 = Value::ones(1);
        let sx = Value::all_x(1);
        assert_eq!(Value::mux(&s0, &a, &b), a);
        assert_eq!(Value::mux(&s1, &a, &b), b);
        let m = Value::mux(&sx, &a, &b);
        // bits 3 and 1 agree (1 and 1? 1100 vs 1010: bit3 1/1 agree, bit2 1/0
        // differ, bit1 0/1 differ, bit0 0/0 agree)
        assert_eq!(m.bit(3), Logic::One);
        assert_eq!(m.bit(0), Logic::Zero);
        assert_eq!(m.bit(2), Logic::X);
        assert_eq!(m.bit(1), Logic::X);
    }

    #[test]
    fn toggle_counting() {
        let a = Value::from_u64(8, 0xA5);
        let b = Value::from_u64(8, 0x5A);
        assert_eq!(a.toggles_to(&b), 8);
        assert_eq!(a.toggles_to(&a), 0);
        // X transitions count once per bit.
        assert_eq!(Value::all_x(8).toggles_to(&a), 8);
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let v = Value::from_u64(32, 0xDEAD_BEEF);
        let lo = v.slice(0, 16);
        let hi = v.slice(16, 16);
        assert_eq!(lo.to_u64(), Some(0xBEEF));
        assert_eq!(hi.to_u64(), Some(0xDEAD));
        assert_eq!(lo.concat(&hi), v);
    }

    #[test]
    fn display_binary() {
        assert_eq!(Value::from_u64(4, 0b1010).to_string(), "1010");
        assert_eq!(Value::all_x(2).to_string(), "xx");
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let _ = Value::from_u64(8, 0).slice(4, 5);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn concat_overflow_panics() {
        let _ = Value::zero(40).concat(&Value::zero(40));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn and_width_mismatch_panics() {
        let _ = Value::zero(4).and(&Value::zero(8));
    }

    #[test]
    #[should_panic(expected = "1 bit")]
    fn mux_wide_select_panics() {
        let s = Value::zero(2);
        let _ = Value::mux(&s, &Value::zero(4), &Value::zero(4));
    }

    #[test]
    fn logic_conversions() {
        assert_eq!(Logic::from_bool(true), Logic::One);
        assert_eq!(Logic::X.to_string(), "x");
    }

    #[test]
    fn is_high_low_only_for_one_bit() {
        assert!(Value::one(1).is_high());
        assert!(!Value::from_u64(2, 0b01).is_high());
        assert!(Value::zero(1).is_low());
        assert!(!Value::zero(2).is_low());
        assert!(!Value::all_x(1).is_low());
    }

    #[test]
    fn from_logic_round_trip() {
        for l in [Logic::Zero, Logic::One, Logic::X] {
            assert_eq!(Value::from_logic(l).as_logic(), l);
            let v: Value = l.into();
            assert_eq!(v.as_logic(), l);
        }
    }

    #[test]
    fn width_mask_edge_widths() {
        assert_eq!(Value::width_mask(1), 0b1);
        assert_eq!(Value::width_mask(63), u64::MAX >> 1);
        assert_eq!(Value::width_mask(64), u64::MAX);
    }

    /// Forces bit `b` of `v` to X (tests live inside the module, so
    /// they may poke the planes directly).
    fn set_x(v: &mut Value, b: u8) {
        v.x |= 1u64 << b;
        v.bits &= !(1u64 << b);
    }

    /// A deterministic per-lane value mixing known and X bits, with
    /// deliberate garbage above the width that the constructors strip.
    fn lane_sample(width: u8, k: u64) -> Value {
        let bits = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left((k % 63) as u32);
        let x = k.wrapping_mul(0xBF58_476D_1CE4_E5B9) & bits >> 1;
        let mut v = Value::from_u64(width, bits);
        for b in 0..width {
            if x >> b & 1 == 1 {
                set_x(&mut v, b);
            }
        }
        v
    }

    #[test]
    fn lane_pack_unpack_round_trips_at_edge_widths() {
        for width in [1u8, 63, 64] {
            for lanes in [1usize, 63, 64] {
                let vals: Vec<Value> =
                    (0..lanes as u64).map(|k| lane_sample(width, k)).collect();
                let lv = LaneValues::pack(&vals);
                assert_eq!(lv.width(), width);
                assert_eq!(lv.lanes(), lanes as u8);
                for (k, v) in vals.iter().enumerate() {
                    let u = lv.unpack(k as u8);
                    assert_eq!(&u, v, "width {width}, lanes {lanes}, lane {k}");
                    // The masking invariant: nothing above the width,
                    // no bit both X and known-1.
                    assert_eq!(u.raw_bits() & !Value::width_mask(width), 0);
                    assert_eq!(u.x_mask() & !Value::width_mask(width), 0);
                    assert_eq!(u.raw_bits() & u.x_mask(), 0);
                }
            }
        }
    }

    #[test]
    fn lane_broadcast_equalizes_and_set_lane_diverges() {
        let v = lane_sample(63, 7);
        let mut lv = LaneValues::broadcast(&v, 64);
        assert!(lv.all_equal());
        assert_eq!(lv.lanes_ne_value(&v), 0);
        assert_eq!(lv.unpack(63), v);
        let w = lane_sample(63, 8);
        assert_ne!(w, v);
        lv.set_lane(5, &w);
        assert!(!lv.all_equal());
        assert_eq!(lv.lanes_ne_value(&v), 1 << 5);
        assert_eq!(lv.lanes_ne_value(&w), !(1u64 << 5));
        assert_eq!(lv.unpack(5), w);
        assert_eq!(lv.unpack(4), v);
    }

    #[test]
    fn lane_xor_flips_only_selected_known_bits() {
        // Width 64, a known-zero value with one X bit: the xor must
        // flip selected lanes' known bits and leave the X bit X.
        let mut v = Value::zero(64);
        set_x(&mut v, 63);
        let mut lv = LaneValues::broadcast(&v, 64);
        lv.xor_lanes(u64::MAX, 0b1010);
        for k in [1u8, 3] {
            let u = lv.unpack(k);
            assert_eq!(u.raw_bits(), u64::MAX >> 1, "lane {k} known bits flip");
            assert_eq!(u.x_mask(), 1 << 63, "lane {k} X stays X");
        }
        for k in [0u8, 2, 4, 63] {
            assert_eq!(lv.unpack(k), v, "unselected lane {k} untouched");
        }
    }

    /// A packed lane set of `lanes` deterministic sample values.
    fn lane_set(width: u8, lanes: u8, salt: u64) -> LaneValues {
        let vals: Vec<Value> =
            (0..lanes).map(|k| lane_sample(width, salt ^ (k as u64 + 1))).collect();
        LaneValues::pack(&vals)
    }

    #[test]
    fn lane_ops_match_scalar_ops_per_lane() {
        // The sliced engine's foundation: every lane-parallel operator
        // must agree with the scalar Value op applied to each unpacked
        // lane, X semantics included.
        for &(width, lanes) in &[(1u8, 1u8), (1, 64), (7, 5), (32, 63), (64, 64)] {
            let a = lane_set(width, lanes, 0x1111);
            let b = lane_set(width, lanes, 0x2222);
            for k in 0..lanes {
                let (ak, bk) = (a.unpack(k), b.unpack(k));
                assert_eq!(a.not().unpack(k), ak.not(), "not w{width} l{k}");
                assert_eq!(a.and(&b).unpack(k), ak.and(&bk), "and w{width} l{k}");
                assert_eq!(a.or(&b).unpack(k), ak.or(&bk), "or w{width} l{k}");
                assert_eq!(a.xor(&b).unpack(k), ak.xor(&bk), "xor w{width} l{k}");
            }
        }
    }

    #[test]
    fn lane_mux_selects_per_lane() {
        // Lanes 0..: sel known-0, known-1, X — each lane must follow
        // its own select, including the X-pessimistic merge.
        let sels = [
            Value::zero(1),
            Value::one(1),
            Value::all_x(1),
            Value::one(1),
            Value::all_x(1),
        ];
        let sel = LaneValues::pack(&sels);
        let a = lane_set(16, 5, 0xAAAA);
        let b = lane_set(16, 5, 0xBBBB);
        let m = LaneValues::mux(&sel, &a, &b);
        for k in 0..5 {
            assert_eq!(
                m.unpack(k),
                Value::mux(&sels[k as usize], &a.unpack(k), &b.unpack(k)),
                "mux lane {k}"
            );
        }
    }

    #[test]
    fn lane_slice_concat_broadcast_match_scalar() {
        let a = lane_set(24, 9, 0x3333);
        let b = lane_set(8, 9, 0x4444);
        for k in 0..9 {
            assert_eq!(a.slice(5, 13).unpack(k), a.unpack(k).slice(5, 13));
            assert_eq!(a.concat(&b).unpack(k), a.unpack(k).concat(&b.unpack(k)));
        }
        let bit = LaneValues::pack(&[Value::zero(1), Value::one(1), Value::all_x(1)]);
        let wide = bit.broadcast_to(11);
        assert_eq!(wide.unpack(0), Value::zero(11));
        assert_eq!(wide.unpack(1), Value::ones(11));
        assert_eq!(wide.unpack(2), Value::all_x(11));
    }

    #[test]
    fn lanes_ne_and_ne_value_find_divergent_lanes() {
        let v = lane_sample(16, 3);
        let mut lv = LaneValues::broadcast(&v, 8);
        assert_eq!(lv.lanes_ne(&lv.clone()), 0);
        assert_eq!(lv.lanes_ne_value(&v), 0);
        let w = lane_sample(16, 4);
        lv.set_lane(6, &w);
        assert_eq!(lv.lanes_ne_value(&v), 1 << 6);
        let other = LaneValues::broadcast(&v, 8);
        assert_eq!(lv.lanes_ne(&other), 1 << 6);
        assert_eq!(other.lanes_ne(&lv), 1 << 6);
    }
}
