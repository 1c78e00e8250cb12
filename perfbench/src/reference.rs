//! A fixed reference computation that gauges the host's current speed.
//!
//! The machines this benchmark runs on drift in speed by tens of
//! percent over minutes (frequency and shared-core contention; thread
//! CPU time tracks wall time, so it is not descheduling). The benchmark
//! runs this computation between operations — it belongs to the
//! benchmark, so no change to the program can speed it up or slow it
//! down — and scales each operation's host time, and the set-up's, by
//! how fast the reference ran nearby. Like the simulator it churns a
//! small hash map and a queue, cache-resident, so the two slow down
//! together.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Host seconds one [`measure`] takes on the reference machine (a
/// typical figure on a 2-vCPU x86-64 VM). Fixed forever: it only sets
/// the scale that speed-scaled rates are reported at.
pub const NOMINAL_S: f64 = 0.014;

/// Iterations of the reference computation.
const STEPS: u64 = 200_000;

fn churn(seed: u64) -> u64 {
    let mut map: HashMap<u32, u64, BuildHasherDefault<std::hash::DefaultHasher>> =
        HashMap::with_capacity_and_hasher(2048, BuildHasherDefault::default());
    let mut queue: VecDeque<u32> = VecDeque::with_capacity(2048);
    let (mut x, mut acc) = (seed | 1, 0u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % 1500) as u32;
        *map.entry(key).or_insert(0) += x & 0xff;
        queue.push_back(key);
        if queue.len() > 1000 {
            let old = queue.pop_front().expect("queue holds 1000 keys");
            acc = acc.wrapping_add(map.get(&old).copied().unwrap_or(0));
            if x & 1 == 0 {
                map.remove(&old);
            }
        }
    }
    acc
}

/// Runs the reference computation once; returns its host seconds.
pub fn measure() -> f64 {
    let t = Instant::now();
    std::hint::black_box(churn(std::hint::black_box(0x5EED)));
    t.elapsed().as_secs_f64()
}
