//! Chaos-soak recovery campaign (`--bin recovery`).
//!
//! The protection layer's claim is falsifiable: under a storm of
//! seeded transient glitches on the serialized data wires, a
//! CRC-protected link must deliver every word intact (retries
//! allowed), while the unprotected link demonstrably corrupts. This
//! module runs that claim as a campaign — every cell of
//! {I2, I3} × {off, parity, crc} × storm seed — through
//! [`sweep::parallel_map`], classifies each run against the
//! scoreboard and the recovery counters, and reports:
//!
//! * per-cell outcomes (`recovered`, `untouched`, `undetected`,
//!   `deadlock`) with the recovery counters and a word-delivery
//!   latency histogram whose log-bucket tail makes retry episodes
//!   visible;
//! * for any *protected* cell that fails, a greedily shrunk minimal
//!   storm — the smallest glitch subset that still reproduces the
//!   failure, ready to paste into a regression test;
//! * the protection energy tax: total link power of the parity and
//!   CRC variants against the unprotected baseline on a clean run.
//!
//! Storm widths stay below I2's ~370 ps slice cadence on purpose: a
//! wider upset can cancel a word's *only* data transition and replay
//! the previous (self-consistently coded) word wholesale, which no
//! word-local check can catch — that residual class is exactly what
//! the `undetected` bucket exists to count, and the parity rows
//! demonstrate a milder version of it (a stale slice is parity-valid,
//! so slice replacement slips past parity but not past the CRC). The
//! bound holds for I2 only: I3's cadence is ~280 ps, so the upper part
//! of the range can touch two of its slices, and I3's fault model
//! waits on the CRC-8 exactly-once work in ROADMAP.md.

use sal_des::json::Json;
use sal_des::{FaultPlan, Time};
use sal_link::measure::{run_spec, MeasureOptions, RunFailure};
use sal_link::metrics::Histogram;
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkSpec, ProtectionMode, RecoveryCounts};

use crate::sweep;

/// Link families the campaign exercises (the storms target the
/// serialized wire, so the parallel I1 is out of scope).
pub const FAMILIES: [LinkFamily; 2] = [LinkFamily::PerTransfer, LinkFamily::PerWord];

/// Protection modes per family.
pub const MODES: [ProtectionMode; 3] =
    [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8];

/// Storm seeds (determinism is part of the artifact's contract).
pub const STORM_SEEDS: [u64; 4] = [11, 23, 37, 41];

/// Words per soak run.
pub const SOAK_WORDS: usize = 16;

/// Glitches per storm.
pub const STORM_GLITCHES: usize = 6;

/// One transient glitch of a storm, kept as plain numbers so a
/// shrunk repro can be printed and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Glitch {
    /// Data segment index (`link.wire.seg_d{seg}`).
    pub seg: u8,
    /// Upset start, picoseconds.
    pub at_ps: u64,
    /// Upset width, picoseconds.
    pub width_ps: u64,
    /// Flipped wire bit.
    pub bit: u8,
}

impl Glitch {
    fn apply(self, plan: FaultPlan) -> FaultPlan {
        plan.glitch(
            &format!("link.wire.seg_d{}", self.seg),
            Time::from_ps(self.at_ps),
            Time::from_ps(self.width_ps),
            1u64 << self.bit,
        )
    }
}

/// Deterministic xorshift64* stream for storm and site synthesis
/// (campaign artifacts must be reproducible from the seed alone); the
/// state must be non-zero.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Synthesizes the seeded storm: [`STORM_GLITCHES`] single-bit upsets
/// spread across the pattern's in-use window (one word launch per
/// 10 ns switch period), widths between 150 ps and 350 ps — under I2's
/// ~370 ps slice cadence, so each upset corrupts at most one of its
/// latched slices. I3's cadence is ~280 ps, so the upper part of the
/// range can touch two of its slices; I3's fault model waits on the
/// CRC-8 exactly-once work in ROADMAP.md.
pub fn storm(seed: u64) -> Vec<Glitch> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let window_ps = 10_000 * SOAK_WORDS as u64;
    (0..STORM_GLITCHES)
        .map(|_| Glitch {
            seg: rng.below(5) as u8,
            at_ps: 20_000 + rng.below(window_ps),
            width_ps: 150 + rng.below(200),
            bit: rng.below(8) as u8,
        })
        .collect()
}

fn plan_of(glitches: &[Glitch], seed: u64) -> FaultPlan {
    glitches.iter().fold(FaultPlan::new(seed), |p, &g| g.apply(p))
}

/// How one soak cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Soak {
    /// Clean delivery with at least one recovery episode — the storm
    /// hit and the protection healed it.
    Recovered,
    /// Clean delivery with no recovery activity (every glitch fell
    /// between latch windows). Honest but unexciting.
    Untouched,
    /// The run completed with scoreboard violations the link did not
    /// flag — corruption slipped through.
    Undetected {
        /// Total integrity violations.
        violations: usize,
    },
    /// The link never finished: a glitch wedged the protocol beyond
    /// what retry/resync could heal.
    ResidualDeadlock {
        /// Watchdog label of the first stalled handshake, if any.
        stalled: Option<String>,
    },
    /// The probe could not run at all.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Soak {
    /// Tag used in JSON and tables.
    pub fn tag(&self) -> &'static str {
        match self {
            Soak::Recovered => "recovered",
            Soak::Untouched => "untouched",
            Soak::Undetected { .. } => "undetected",
            Soak::ResidualDeadlock { .. } => "deadlock",
            Soak::Error { .. } => "error",
        }
    }

    /// A failure for a *protected* cell (for `off` every outcome is
    /// an accepted control result).
    pub fn is_failure(&self) -> bool {
        matches!(self, Soak::Undetected { .. } | Soak::ResidualDeadlock { .. } | Soak::Error { .. })
    }
}

/// One campaign cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Link under test.
    pub family: LinkFamily,
    /// Protection mode under test.
    pub protection: ProtectionMode,
    /// Storm seed.
    pub seed: u64,
    /// Outcome classification.
    pub outcome: Soak,
    /// Recovery counters (protected cells only).
    pub recovery: Option<RecoveryCounts>,
    /// Word-delivery latency (send accept → delivery), log-bucketed;
    /// retry episodes show up as the tail.
    pub latency: Histogram,
    /// For failing protected cells: the greedily shrunk minimal storm
    /// that still reproduces the failure.
    pub shrunk: Option<Vec<Glitch>>,
}

/// Clean-run (no storm) energy comparison of one protection mode.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Link measured.
    pub family: LinkFamily,
    /// Protection mode measured.
    pub protection: ProtectionMode,
    /// Total link power on the clean 16-word pattern, µW.
    pub total_uw: f64,
    /// Overhead over the unprotected link, percent (0 for `off`).
    pub overhead_pct: f64,
}

/// Everything `--bin recovery` reports.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// All campaign cells, in family-major, mode-middle, seed-minor
    /// order.
    pub cells: Vec<Cell>,
    /// The protection energy tax on a clean run.
    pub energy: Vec<EnergyRow>,
}

fn soak_words() -> Vec<u64> {
    worst_case_pattern(SOAK_WORDS, 32)
}

fn soak_opts(plan: FaultPlan) -> MeasureOptions {
    MeasureOptions {
        // ~50× the nominal in-use time of the 16-word pattern: enough
        // for every backoff ladder the controller can legally climb,
        // small enough that a residual deadlock is diagnosed quickly.
        timeout: Time::from_us(40),
        fault_plan: Some(plan),
        ..MeasureOptions::default()
    }
}

fn classify(
    family: LinkFamily,
    protection: ProtectionMode,
    glitches: &[Glitch],
    seed: u64,
    words: &[u64],
) -> (Soak, Option<RecoveryCounts>, Histogram) {
    let spec = LinkSpec::builder()
        .family(family)
        .protection(protection)
        .build()
        .expect("every campaign cell is a valid spec");
    match run_spec(&spec, &LinkConfig::default(), words, &soak_opts(plan_of(glitches, seed))) {
        Ok(r) => {
            let mut latency = Histogram::new();
            for ((t_in, _), (t_out, _)) in r.sent.iter().zip(&r.received) {
                latency.record(t_out.saturating_sub(*t_in));
            }
            let outcome = if r.integrity.is_clean() {
                match &r.recovery {
                    Some(rec) if !rec.is_quiet() => Soak::Recovered,
                    _ => Soak::Untouched,
                }
            } else {
                Soak::Undetected { violations: r.integrity.violations() }
            };
            (outcome, r.recovery, latency)
        }
        Err(RunFailure::Deadlock { diagnosis, recovery, .. }) => (
            Soak::ResidualDeadlock {
                stalled: diagnosis.and_then(|d| d.first_label().map(str::to_string)),
            },
            recovery,
            Histogram::new(),
        ),
        Err(e) => (Soak::Error { message: e.to_string() }, None, Histogram::new()),
    }
}

/// Greedy storm shrink: repeatedly try dropping each glitch; keep any
/// drop that still reproduces a failure, until no single drop does.
/// At most `O(n²)` replays for an `n`-glitch storm.
pub fn shrink(
    family: LinkFamily,
    protection: ProtectionMode,
    glitches: &[Glitch],
    seed: u64,
    words: &[u64],
) -> Vec<Glitch> {
    let mut current = glitches.to_vec();
    'outer: loop {
        for i in 0..current.len() {
            if current.len() == 1 {
                break 'outer;
            }
            let mut candidate = current.clone();
            candidate.remove(i);
            let (outcome, _, _) = classify(family, protection, &candidate, seed, words);
            if outcome.is_failure() {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current
}

/// Runs the full campaign plus the energy comparison. Deterministic:
/// all randomness flows from [`STORM_SEEDS`].
pub fn campaign() -> RecoveryReport {
    let words = soak_words();
    let mut items: Vec<(LinkFamily, ProtectionMode, u64)> = Vec::new();
    for family in FAMILIES {
        for protection in MODES {
            for seed in STORM_SEEDS {
                items.push((family, protection, seed));
            }
        }
    }
    let cells = sweep::parallel_map(items, |(family, protection, seed)| {
        let glitches = storm(seed);
        let (outcome, recovery, latency) = classify(family, protection, &glitches, seed, &words);
        let shrunk = (protection != ProtectionMode::Off && outcome.is_failure())
            .then(|| shrink(family, protection, &glitches, seed, &words));
        Cell { family, protection, seed, outcome, recovery, latency, shrunk }
    });

    let energy = sweep::parallel_map(
        FAMILIES.iter().flat_map(|&f| MODES.map(|m| (f, m))).collect::<Vec<_>>(),
        |(family, protection)| {
            let spec = LinkSpec::builder()
                .family(family)
                .protection(protection)
                .build()
                .expect("every energy cell is a valid spec");
            let opts = MeasureOptions { timeout: Time::from_us(40), ..MeasureOptions::default() };
            let total_uw = run_spec(&spec, &LinkConfig::default(), &soak_words(), &opts)
                .map_or(f64::NAN, |r| r.total_power_uw());
            EnergyRow { family, protection, total_uw, overhead_pct: 0.0 }
        },
    );
    let energy = with_overheads(energy);

    RecoveryReport { cells, energy }
}

fn with_overheads(mut rows: Vec<EnergyRow>) -> Vec<EnergyRow> {
    for family in FAMILIES {
        let base = rows
            .iter()
            .find(|r| r.family == family && r.protection == ProtectionMode::Off)
            .map(|r| r.total_uw);
        if let Some(base) = base {
            for r in rows.iter_mut().filter(|r| r.family == family) {
                r.overhead_pct = (r.total_uw / base - 1.0) * 100.0;
            }
        }
    }
    rows
}

/// Count of cells per `(family, protection)` with the given tag.
pub fn tally(cells: &[Cell], family: LinkFamily, protection: ProtectionMode, tag: &str) -> usize {
    cells
        .iter()
        .filter(|c| c.family == family && c.protection == protection && c.outcome.tag() == tag)
        .count()
}

fn glitch_json(j: &mut Json, g: Glitch) {
    j.obj();
    j.key("seg").num(g.seg);
    j.key("at_ps").num(g.at_ps);
    j.key("width_ps").num(g.width_ps);
    j.key("bit").num(g.bit);
    j.end();
}

fn recovery_json<'j>(j: &'j mut Json, rec: &RecoveryCounts) -> &'j mut Json {
    j.obj();
    j.key("nacks").num(rec.nacks);
    j.key("retries").num(rec.retries);
    j.key("timeouts").num(rec.timeouts);
    j.key("resyncs").num(rec.resyncs);
    j.key("gave_up").num(rec.gave_up);
    j.key("degraded").bool(rec.degraded);
    j.end()
}

fn cell_json(j: &mut Json, c: &Cell) {
    j.obj();
    j.key("kind").str(c.family.label());
    j.key("protection").str(c.protection.label());
    j.key("seed").num(c.seed);
    j.key("outcome").str(c.outcome.tag());
    match &c.outcome {
        Soak::Undetected { violations } => {
            j.key("violations").num(violations);
        }
        Soak::ResidualDeadlock { stalled } => {
            j.key("stalled").opt(stalled.as_deref(), Json::str);
        }
        Soak::Error { message } => {
            j.key("message").str(message);
        }
        Soak::Recovered | Soak::Untouched => {}
    }
    j.key("recovery").opt(c.recovery.as_ref(), recovery_json);
    c.latency.write_json(j.key("latency"), |j, ns| j.fixed(ns, 3));
    j.key("shrunk_storm").opt(c.shrunk.as_ref(), |j, gs| {
        j.arr();
        for &g in gs {
            glitch_json(j, g);
        }
        j.end()
    });
    j.end();
}

/// Serialises the report as the `BENCH_recovery.json` artifact.
pub fn to_json(r: &RecoveryReport) -> String {
    let mut j = Json::new();
    j.obj_block();
    j.key("experiment").str("recovery");
    j.key("words").num(SOAK_WORDS);
    j.key("storm").obj();
    j.key("glitches").num(STORM_GLITCHES);
    j.key("width_ps").arr().num(150).num(350).end();
    j.key("seeds").arr();
    for seed in STORM_SEEDS {
        j.num(seed);
    }
    j.end();
    j.end();
    j.key("summary").obj_block();
    for family in FAMILIES {
        j.key(family.label()).obj();
        for protection in MODES {
            j.key(protection.label()).obj();
            for tag in ["recovered", "untouched", "undetected", "deadlock", "error"] {
                j.key(tag).num(tally(&r.cells, family, protection, tag));
            }
            j.end();
        }
        j.end();
    }
    j.end();
    j.key("energy").arr_block();
    for e in &r.energy {
        j.obj();
        j.key("kind").str(e.family.label());
        j.key("protection").str(e.protection.label());
        j.key("total_uw").fixed(e.total_uw, 3);
        j.key("overhead_pct").fixed(e.overhead_pct, 2);
        j.end();
    }
    j.end();
    j.key("cells").arr_block();
    for c in &r.cells {
        cell_json(&mut j, c);
    }
    j.end();
    j.end();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_are_deterministic_and_in_spec() {
        assert_eq!(storm(11), storm(11), "same seed, same storm");
        assert_ne!(storm(11), storm(23), "different seeds differ");
        for g in storm(37) {
            assert!(g.seg < 5, "segment {} out of range", g.seg);
            assert!((150..350).contains(&g.width_ps), "width {} out of spec", g.width_ps);
            assert!(g.bit < 8, "bit {} out of range", g.bit);
            assert!(g.at_ps >= 20_000, "upset {} before traffic", g.at_ps);
        }
    }

    #[test]
    fn crc_cells_never_pass_corruption_through() {
        // The acceptance criterion, in miniature: one storm seed,
        // both kinds, CRC protection — zero undetected corruptions
        // and every word delivered.
        let words = soak_words();
        for family in FAMILIES {
            let glitches = storm(11);
            let (outcome, _, latency) =
                classify(family, ProtectionMode::Crc8, &glitches, 11, &words);
            assert!(
                matches!(outcome, Soak::Recovered | Soak::Untouched),
                "{family:?} under seed-11 storm: {outcome:?}"
            );
            assert_eq!(latency.count(), SOAK_WORDS as u64, "every word delivered");
        }
    }

    #[test]
    fn shrink_finds_a_minimal_failing_storm() {
        // Shrink against the *unprotected* link (cheap, reliably
        // failing): the result must still fail and be at most the
        // original size.
        let words = soak_words();
        let full = storm(23);
        let (outcome, _, _) = classify(LinkFamily::PerTransfer, ProtectionMode::Off, &full, 23, &words);
        if !outcome.is_failure() {
            // The control cell happening to pass is possible in
            // principle; the campaign would report it as untouched.
            return;
        }
        let minimal = shrink(LinkFamily::PerTransfer, ProtectionMode::Off, &full, 23, &words);
        assert!(!minimal.is_empty() && minimal.len() <= full.len());
        let (still, _, _) =
            classify(LinkFamily::PerTransfer, ProtectionMode::Off, &minimal, 23, &words);
        assert!(still.is_failure(), "shrunk storm must still reproduce: {still:?}");
    }

    #[test]
    fn json_shape_is_stable() {
        let r = RecoveryReport {
            cells: vec![Cell {
                family: LinkFamily::PerTransfer,
                protection: ProtectionMode::Crc8,
                seed: 11,
                outcome: Soak::Recovered,
                recovery: Some(RecoveryCounts { nacks: 1, retries: 1, ..RecoveryCounts::default() }),
                latency: Histogram::new(),
                shrunk: None,
            }],
            energy: vec![EnergyRow {
                family: LinkFamily::PerTransfer,
                protection: ProtectionMode::Off,
                total_uw: 123.4,
                overhead_pct: 0.0,
            }],
        };
        let j = to_json(&r);
        assert!(j.contains("\"outcome\": \"recovered\""), "{j}");
        assert!(j.contains("\"nacks\": 1"), "{j}");
        assert!(j.contains("\"I2\": {\"off\":"), "{j}");
        assert!(j.contains("\"overhead_pct\": 0.00"), "{j}");
    }
}
