//! Baseline tests PARBOR is compared against.
//!
//! * **Random-pattern testing** (paper §7.2, Fig 12/13): write random data,
//!   wait, read, repeat — the state of the art for system-level detection
//!   before PARBOR, given an equal test budget.
//! * **Solid-pattern testing**: the all-0s/all-1s tests many prior
//!   system-level schemes assume are sufficient (§3, challenge 2).
//! * **Linear / exhaustive neighbor search**: the `O(n)` and `O(n²)` oracle
//!   searches whose infeasible runtimes (49 days per row for `O(n²)`)
//!   motivate PARBOR (paper appendix).

use std::collections::HashSet;

use parbor_dram::{BitAddr, PatternKind, PatternSet, RowBits, RowId};
use parbor_hal::{RoundExecutor, RoundPlan, TestPort};

use crate::error::ParborError;
use crate::victim::Victim;

/// Rounds per engine batch for the one-write-per-round oracle searches: big
/// enough to amortize batch dispatch, small enough to keep memory flat on the
/// `O(n²)` search.
const SEARCH_BATCH_ROUNDS: usize = 512;

/// Result of a baseline test campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Distinct failing bits, keyed by (unit, address).
    pub failing: HashSet<(u32, BitAddr)>,
}

impl BaselineOutcome {
    /// Number of distinct failing bits.
    pub fn failure_count(&self) -> usize {
        self.failing.len()
    }
}

fn run_patterned_rounds<P: TestPort + ?Sized>(
    port: &mut P,
    rows: &[RowId],
    patterns: &[PatternKind],
    with_inverses: bool,
) -> Result<BaselineOutcome, ParborError> {
    let width = port.geometry().cols_per_row as usize;
    let units = port.units();
    let inverse_passes: &[bool] = if with_inverses {
        &[false, true]
    } else {
        &[false]
    };
    let mut plans = Vec::with_capacity(patterns.len() * inverse_passes.len());
    for pattern in patterns {
        for &invert in inverse_passes {
            plans.push(RoundPlan::broadcast(units, rows, |row| {
                if invert {
                    pattern.inverse().row_bits(row.row, width)
                } else {
                    pattern.row_bits(row.row, width)
                }
            }));
        }
    }
    let mut exec = RoundExecutor::new(port);
    let mut failing = HashSet::new();
    for flips in exec.run_batch(plans)? {
        for flip in flips {
            failing.insert((flip.unit, flip.flip.addr));
        }
    }
    Ok(BaselineOutcome {
        rounds: exec.rounds_executed(),
        failing,
    })
}

/// Random-pattern testing with a fixed round budget: each round writes fresh
/// pseudo-random data (distinct per row) to every row of every unit.
///
/// # Errors
///
/// Propagates device errors from the port.
pub fn random_pattern_test<P: TestPort + ?Sized>(
    port: &mut P,
    rows: &[RowId],
    rounds: usize,
    seed: u64,
) -> Result<BaselineOutcome, ParborError> {
    let set = PatternSet::random(seed, rounds);
    run_patterned_rounds(port, rows, set.patterns(), false)
}

/// The naive all-0s / all-1s test (2 rounds).
///
/// # Errors
///
/// Propagates device errors from the port.
pub fn solid_pattern_test<P: TestPort + ?Sized>(
    port: &mut P,
    rows: &[RowId],
) -> Result<BaselineOutcome, ParborError> {
    run_patterned_rounds(port, rows, &[PatternKind::Solid(false)], true)
}

/// The classic *walking-1* memory test adapted to row-round semantics: in
/// round `k`, every bit at position `k (mod period)` is set against a zero
/// background, plus the inverse rounds (walking-0). Covers every cell as a
/// "victim" once per polarity like PARBOR's chip-wide test, but with *one*
/// victim per `period` instead of neighbor-aware packing — `2·period`
/// rounds versus PARBOR's 28–40.
///
/// # Errors
///
/// Propagates device errors; rejects a zero or row-exceeding period.
pub fn walking_pattern_test<P: TestPort + ?Sized>(
    port: &mut P,
    rows: &[RowId],
    period: usize,
) -> Result<BaselineOutcome, ParborError> {
    let width = port.geometry().cols_per_row as usize;
    if period == 0 || period > width {
        return Err(ParborError::InvalidConfig(format!(
            "walking period {period} invalid for row width {width}"
        )));
    }
    let patterns: Vec<PatternKind> = (0..period as u32)
        .map(|phase| PatternKind::Walking {
            period: period as u32,
            phase,
        })
        .collect();
    run_patterned_rounds(port, rows, &patterns, true)
}

/// The victim's charged background: the failing value everywhere.
fn victim_background(victim: &Victim, width: usize) -> RowBits {
    if victim.fail_value {
        RowBits::ones(width)
    } else {
        RowBits::zeros(width)
    }
}

/// Runs one single-write round per candidate image of the victim's row and
/// reports, per image in order, whether the victim bit flipped. Rounds go to
/// the engine in [`SEARCH_BATCH_ROUNDS`]-sized batches so images can be
/// streamed (the exhaustive search would not fit in memory otherwise).
fn victim_probe_rounds<P: TestPort + ?Sized>(
    port: &mut P,
    victim: &Victim,
    mut images: impl Iterator<Item = RowBits>,
) -> Result<Vec<bool>, ParborError> {
    let mut exec = RoundExecutor::new(port);
    let mut out = Vec::new();
    loop {
        let batch: Vec<RoundPlan> = images
            .by_ref()
            .take(SEARCH_BATCH_ROUNDS)
            .map(|image| {
                let mut plan = RoundPlan::with_capacity(1);
                plan.write(victim.unit, victim.row, image);
                plan
            })
            .collect();
        if batch.is_empty() {
            break;
        }
        for flips in exec.run_batch(batch)? {
            out.push(
                flips
                    .iter()
                    .any(|f| f.unit == victim.unit && f.flip.addr.col == victim.col),
            );
        }
    }
    Ok(out)
}

/// The `O(n)` linear search: flips one candidate bit at a time opposite to
/// the victim and reports every bit whose flip alone makes the victim fail
/// (i.e. finds *strongly coupled* neighbors only). `within` restricts the
/// candidate range to keep runtimes sane.
///
/// # Errors
///
/// Propagates device errors; returns [`ParborError::InvalidConfig`] if
/// `within` exceeds the row.
pub fn linear_neighbor_search<P: TestPort + ?Sized>(
    port: &mut P,
    victim: &Victim,
    within: std::ops::Range<usize>,
) -> Result<Vec<i64>, ParborError> {
    let width = port.geometry().cols_per_row as usize;
    if within.end > width {
        return Err(ParborError::InvalidConfig(format!(
            "search range {within:?} exceeds row width {width}"
        )));
    }
    let candidates: Vec<usize> = within.filter(|&c| c != victim.col as usize).collect();
    let images = candidates.iter().map(|&candidate| {
        let mut data = victim_background(victim, width);
        data.set(candidate, !victim.fail_value);
        data
    });
    let failed = victim_probe_rounds(port, victim, images)?;
    Ok(candidates
        .iter()
        .zip(failed)
        .filter(|&(_, fail)| fail)
        .map(|(&c, _)| c as i64 - i64::from(victim.col))
        .collect())
}

/// The `O(n²)` exhaustive pair search: flips every pair of candidate bits
/// opposite to the victim and reports the pairs that make it fail — the
/// naive scheme that would take 49 days per 8 K row on real hardware
/// (paper appendix). Finds weakly coupled cells too. `within` restricts the
/// candidate range (mandatory sanity: the full row would be 33 M rounds).
///
/// # Errors
///
/// Propagates device errors; returns [`ParborError::InvalidConfig`] if
/// `within` exceeds the row.
pub fn exhaustive_neighbor_search<P: TestPort + ?Sized>(
    port: &mut P,
    victim: &Victim,
    within: std::ops::Range<usize>,
) -> Result<Vec<(i64, i64)>, ParborError> {
    let width = port.geometry().cols_per_row as usize;
    if within.end > width {
        return Err(ParborError::InvalidConfig(format!(
            "search range {within:?} exceeds row width {width}"
        )));
    }
    let candidates: Vec<usize> = within.filter(|&c| c != victim.col as usize).collect();
    let pairs: Vec<(usize, usize)> = candidates
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| candidates[i + 1..].iter().map(move |&b| (a, b)))
        .collect();
    let images = pairs.iter().map(|&(a, b)| {
        let mut data = victim_background(victim, width);
        data.set(a, !victim.fail_value);
        data.set(b, !victim.fail_value);
        data
    });
    let failed = victim_probe_rounds(port, victim, images)?;
    Ok(pairs
        .iter()
        .zip(failed)
        .filter(|&(_, fail)| fail)
        .map(|(&(a, b), _)| {
            (
                a as i64 - i64::from(victim.col),
                b as i64 - i64::from(victim.col),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_dram::{ChipGeometry, DramChip, Vendor};

    fn chip(vendor: Vendor, rows: u32, seed: u64) -> DramChip {
        DramChip::new(ChipGeometry::new(1, rows, 8192).unwrap(), vendor, seed).unwrap()
    }

    #[test]
    fn random_test_finds_failures_and_counts_rounds() {
        let mut c = chip(Vendor::C, 32, 5);
        let rows: Vec<RowId> = (0..32).map(|r| RowId::new(0, r)).collect();
        let out = random_pattern_test(&mut c, &rows, 20, 9).unwrap();
        assert_eq!(out.rounds, 20);
        assert!(out.failure_count() > 0);
    }

    #[test]
    fn solid_test_runs_two_rounds() {
        let mut c = chip(Vendor::A, 8, 5);
        let rows: Vec<RowId> = (0..8).map(|r| RowId::new(0, r)).collect();
        let out = solid_pattern_test(&mut c, &rows).unwrap();
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn solid_test_misses_coupling_failures() {
        // The whole point of the paper: solid patterns never put opposite
        // values in neighboring cells of the same polarity block, so they
        // find far fewer failures than random testing.
        let mut c1 = chip(Vendor::C, 64, 5);
        let mut c2 = chip(Vendor::C, 64, 5);
        let rows: Vec<RowId> = (0..64).map(|r| RowId::new(0, r)).collect();
        let solid = solid_pattern_test(&mut c1, &rows).unwrap();
        let random = random_pattern_test(&mut c2, &rows, 20, 3).unwrap();
        assert!(
            random.failure_count() > 2 * solid.failure_count(),
            "random {} vs solid {}",
            random.failure_count(),
            solid.failure_count()
        );
    }

    #[test]
    fn walking_test_runs_expected_rounds() {
        let mut c = chip(Vendor::A, 16, 5);
        let rows: Vec<RowId> = (0..16).map(|r| RowId::new(0, r)).collect();
        let out = walking_pattern_test(&mut c, &rows, 8).unwrap();
        assert_eq!(out.rounds, 16); // 8 phases x 2 polarities
        assert!(out.failure_count() > 0);
    }

    #[test]
    fn walking_test_validates_period() {
        let mut c = chip(Vendor::A, 4, 5);
        let rows = [RowId::new(0, 0)];
        assert!(walking_pattern_test(&mut c, &rows, 0).is_err());
        assert!(walking_pattern_test(&mut c, &rows, 9000).is_err());
    }

    #[test]
    fn linear_search_finds_a_strong_neighbor() {
        use crate::{Parbor, ParborConfig};
        let mut c = chip(Vendor::B, 64, 8);
        let set = Parbor::new(ParborConfig {
            discovery_seed: 1,
            ..ParborConfig::default()
        })
        .discover(&mut c)
        .unwrap();
        // Restrict to victims the device oracle confirms as coupling cells
        // (discovery also catches marginal/VRT cells, whose intermittent
        // failures would pollute a bit-by-bit scan with spurious distances).
        let mut hits = 0;
        for v in set.select_for_recursion(Some(48)) {
            if !c
                .oracle_data_dependent(v.row)
                .iter()
                .any(|&(sys, _)| sys == v.col)
            {
                continue;
            }
            let lo = (v.col as usize).saturating_sub(80);
            let hi = (v.col as usize + 80).min(8192);
            let found = linear_neighbor_search(&mut c, &v, lo..hi).unwrap();
            for d in found {
                assert!(
                    [1, 64].contains(&d.unsigned_abs()),
                    "unexpected distance {d} for coupling victim"
                );
                hits += 1;
            }
        }
        assert!(hits > 0, "no strongly coupled victim responded");
    }

    #[test]
    fn search_range_validated() {
        let mut c = chip(Vendor::A, 4, 1);
        let v = Victim {
            unit: 0,
            row: RowId::new(0, 0),
            col: 0,
            fail_value: true,
        };
        assert!(linear_neighbor_search(&mut c, &v, 0..9999).is_err());
        assert!(exhaustive_neighbor_search(&mut c, &v, 0..9999).is_err());
    }
}
