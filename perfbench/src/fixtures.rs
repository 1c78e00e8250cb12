//! The committed campaign fixtures, indexed by cell.
//!
//! An operation that is a cell of `BENCH_pareto.json`,
//! `BENCH_flows.json` or `BENCH_reroute.json` must reproduce that
//! fixture's record byte for byte. The fixtures are compiled in, so
//! the benchmark checks against exactly the files of the checkout it
//! was built from.

use std::collections::HashMap;

const PARETO: &str = include_str!("../../crates/bench/fixtures/BENCH_pareto.json");
const FLOWS: &str = include_str!("../../crates/bench/fixtures/BENCH_flows.json");
const REROUTE: &str = include_str!("../../crates/bench/fixtures/BENCH_reroute.json");

/// Fixture records by cell key, borrowed from the compiled-in texts.
#[derive(Debug)]
pub struct Fixtures {
    /// Pareto records by `spec_hash`.
    pub pareto: HashMap<&'static str, &'static str>,
    /// Flow-campaign cells by coordinate prefix (see [`cell_key`]).
    pub flows: HashMap<&'static str, &'static str>,
    /// Reroute-campaign cells by coordinate prefix.
    pub reroute: HashMap<&'static str, &'static str>,
}

/// One record line of a fixture: trimmed, trailing comma dropped.
fn record(line: &str) -> &str {
    line.trim().trim_end_matches(',')
}

/// The coordinate part of a campaign cell record: everything before
/// its `"outcome"` field (layout/process/protection/rate/seed for flow
/// cells, scenario/layout/mode/seed for reroute cells).
pub fn cell_key(record: &str) -> Option<&str> {
    record.find(", \"outcome\"").map(|at| &record[..at])
}

/// The value of a record's `"spec_hash"` field.
fn spec_hash(record: &str) -> Option<&str> {
    let at = record.find("\"spec_hash\": \"")? + 14;
    record.get(at..at + 16)
}

/// Indexes campaign cell records (lines opening with `prefix` that
/// carry an outcome) by [`cell_key`].
fn index_cells(text: &'static str, prefix: &str) -> HashMap<&'static str, &'static str> {
    text.lines()
        .map(record)
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| Some((cell_key(l)?, l)))
        .collect()
}

impl Fixtures {
    /// The fixtures this benchmark was built against.
    pub fn committed() -> Fixtures {
        Fixtures {
            pareto: PARETO
                .lines()
                .map(record)
                .filter(|l| l.starts_with("{\"family\""))
                .filter_map(|l| Some((spec_hash(l)?, l)))
                .collect(),
            flows: index_cells(FLOWS, "{\"layout\""),
            reroute: index_cells(REROUTE, "{\"scenario\""),
        }
    }
}

/// Compares a freshly produced record with the fixture's record of
/// the same cell, if the fixture has one. `Ok(true)` means checked and
/// equal, `Ok(false)` that the cell is not in the fixture.
pub fn check(expected: Option<&str>, produced: &str, fixture: &str) -> Result<bool, String> {
    match expected {
        None => Ok(false),
        Some(expected) if expected == produced => Ok(true),
        Some(expected) => Err(format!(
            "{fixture} cell differs:\n  fixture:  {expected}\n  produced: {produced}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_fixtures_index_every_cell() {
        let f = Fixtures::committed();
        assert_eq!(f.pareto.len(), 26, "quick Pareto grid");
        assert_eq!(f.flows.len(), 68, "64 sweep cells + 4 link-killer cells");
        assert_eq!(f.reroute.len(), 12, "quick reroute grid");
        let key = "{\"layout\": \"corners\", \"process\": \"iid\", \"protection\": \"crc8\", \
                   \"rate\": 0.000, \"seed\": 29, \"kill_links\": false";
        assert!(f.flows[key].contains("\"cycles\": 955"));
    }

    #[test]
    fn a_mutated_row_fails_the_check() {
        let f = Fixtures::committed();
        let (&key, &row) = f.flows.iter().next().expect("fixture has cells");
        assert_eq!(check(f.flows.get(key).copied(), row, "flows"), Ok(true));
        let mutated = row.replacen("\"cycles\": ", "\"cycles\": 1", 1);
        assert!(check(f.flows.get(key).copied(), &mutated, "flows").is_err());
        assert_eq!(
            check(f.flows.get("not a cell").copied(), row, "flows"),
            Ok(false)
        );
    }
}
