//! Step 5: neighbor-aware chip-wide testing (paper §5.2.5).
//!
//! Once the neighbor distances are known, every cell must be put into its
//! worst case: the cell charged while every cell at a neighbor distance is
//! discharged. Testing one bit at a time would waste the bus; instead,
//! positions that cannot interfere are tested in the same round. The pattern
//! repeats with a fixed *chunk* period (128 bits for all of the paper's
//! vendors, since every distance is within ±64), so scheduling reduces to
//! coloring the circulant conflict graph on chunk positions: positions `i`
//! and `j` conflict when `(i − j) mod chunk` hits a neighbor distance.
//!
//! Each color class becomes one round: victims are written `1` and the rest
//! of the row `0` (maximizing interference, including second-order window
//! coupling); the inverse round covers anti-cells. Our greedy coloring needs
//! no more rounds than the paper's hand scheduling (16–32 including
//! inverses) and often fewer; coverage is equivalent — every cell is a
//! victim exactly once per polarity.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use parbor_dram::{BitAddr, RowBits, RowId};
use parbor_hal::hash::Mix64Map;
use parbor_hal::{RoundExecutor, RoundPlan, TestPort};
use parbor_obs::metrics;
use parbor_obs::{span, RecorderHandle};

use crate::error::{check_round, ParborError};
use crate::pipeline::Parbor;
use crate::victim::{merge_sorted, CellKey};

/// A schedule of parallel-victim rounds with a repeating chunk period.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundSchedule {
    chunk: usize,
    rounds: Vec<Vec<u32>>,
}

impl RoundSchedule {
    /// Builds a schedule protecting first- and higher-order neighborhoods
    /// (order 3 by default — see [`RoundSchedule::with_order`]).
    ///
    /// # Errors
    ///
    /// Returns [`ParborError::InvalidConfig`] if `distances` is empty or a
    /// distance is zero or at least half the row width.
    pub fn build(distances: &[i64], row_bits: usize) -> Result<Self, ParborError> {
        Self::with_order(distances, row_bits, 3)
    }

    /// Builds a schedule for the given neighbor distance magnitudes.
    ///
    /// The chunk is the smallest power of two at least twice the maximum
    /// distance (128 for every vendor in the paper). Conflicts are evaluated
    /// modulo the chunk so the pattern can repeat across the row without
    /// cross-chunk interference.
    ///
    /// `order` controls how far the worst-case guarantee reaches: two
    /// victims may not sit within any signed combination of up to `order`
    /// neighbor distances of each other. Order 1 guarantees only the
    /// immediate neighbors are opposite; higher orders additionally keep
    /// concurrent victims out of each other's second-order coupling windows
    /// (which real worst-case NPSF patterns require). For vendor A's
    /// distances this produces exactly the paper's 16 rounds per polarity.
    ///
    /// # Errors
    ///
    /// Returns [`ParborError::InvalidConfig`] if `distances` is empty, a
    /// distance is zero or at least half the row width, or `order` is zero.
    pub fn with_order(distances: &[i64], row_bits: usize, order: u32) -> Result<Self, ParborError> {
        if order == 0 {
            return Err(ParborError::InvalidConfig("order must be nonzero".into()));
        }
        if distances.is_empty() {
            return Err(ParborError::InvalidConfig(
                "cannot schedule with no neighbor distances".into(),
            ));
        }
        let mags: Vec<u64> = {
            let mut m: Vec<u64> = distances.iter().map(|d| d.unsigned_abs()).collect();
            m.sort_unstable();
            m.dedup();
            m
        };
        if mags[0] == 0 {
            return Err(ParborError::InvalidConfig(
                "neighbor distance 0 is meaningless".into(),
            ));
        }
        let dmax = *mags.last().expect("nonempty") as usize;
        if 2 * dmax >= row_bits {
            return Err(ParborError::InvalidConfig(format!(
                "distance {dmax} too large for row width {row_bits}"
            )));
        }
        // Separation set: every nonzero offset reachable as a signed sum of
        // up to `order` neighbor distances. These are the positions of a
        // victim's physical neighbors out to `order` hops, so concurrent
        // victims never contaminate each other's worst-case neighborhood.
        let mut reachable: HashSet<i64> = HashSet::new();
        reachable.insert(0);
        for _ in 0..order {
            let mut next = reachable.clone();
            for &r in &reachable {
                for &d in distances {
                    next.insert(r + d);
                }
            }
            reachable = next;
        }
        let sums: Vec<i64> = reachable.into_iter().filter(|&r| r != 0).collect();
        // The pattern repeats with the chunk period, so a reachable offset
        // that is a multiple of the chunk would alias a victim onto its own
        // neighborhood; grow the chunk until none does.
        let mut chunk = (2 * dmax).next_power_of_two();
        while chunk < row_bits && sums.iter().any(|&s| s % chunk as i64 == 0) {
            chunk *= 2;
        }
        let chunk = chunk.min(row_bits);
        let separation: HashSet<u64> = sums
            .iter()
            .map(|&s| s.rem_euclid(chunk as i64) as u64)
            .filter(|&s| s != 0)
            .collect();
        // Greedy sequential coloring of the circulant conflict graph.
        let conflict = |i: usize, j: usize| -> bool {
            let d = (i as i64 - j as i64).rem_euclid(chunk as i64) as u64;
            separation.contains(&d) || separation.contains(&(chunk as u64 - d))
        };
        let mut color = vec![usize::MAX; chunk];
        let mut n_colors = 0usize;
        for p in 0..chunk {
            let mut used = vec![false; n_colors + 1];
            for q in 0..chunk {
                if color[q] != usize::MAX && conflict(p, q) {
                    used[color[q]] = true;
                }
            }
            let c = (0..=n_colors)
                .find(|&c| !used[c])
                .expect("a free color always exists");
            color[p] = c;
            n_colors = n_colors.max(c + 1);
        }
        let mut rounds = vec![Vec::new(); n_colors];
        for (p, &c) in color.iter().enumerate() {
            rounds[c].push(p as u32);
        }
        Ok(RoundSchedule { chunk, rounds })
    }

    /// The repeating pattern period.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Number of rounds per polarity (colors of the conflict graph).
    pub fn rounds_per_polarity(&self) -> usize {
        self.rounds.len()
    }

    /// Victim chunk-positions of one round.
    pub fn victims(&self, round: usize) -> &[u32] {
        &self.rounds[round]
    }

    /// The row image of one round: victims `1`, everything else `0`
    /// (`invert` flips it for the anti-cell polarity pass).
    fn round_pattern(&self, round: usize, width: usize, invert: bool) -> RowBits {
        let mut data = RowBits::zeros(width);
        for &v in &self.rounds[round] {
            let mut p = v as usize;
            while p < width {
                data.set(p, true);
                p += self.chunk;
            }
        }
        if invert {
            data.invert();
        }
        data
    }

    /// Checks the two schedule invariants: every chunk position is a victim
    /// in exactly one round, and no round contains two conflicting victims.
    pub fn verify(&self, distances: &[i64]) -> bool {
        let mags: HashSet<u64> = distances.iter().map(|d| d.unsigned_abs()).collect();
        let mut seen = vec![0usize; self.chunk];
        for round in &self.rounds {
            for (a_i, &a) in round.iter().enumerate() {
                seen[a as usize] += 1;
                for &b in &round[a_i + 1..] {
                    let d = (i64::from(a) - i64::from(b)).rem_euclid(self.chunk as i64) as u64;
                    if mags.contains(&d) || mags.contains(&(self.chunk as u64 - d)) {
                        return false;
                    }
                }
            }
        }
        seen.iter().all(|&c| c == 1)
    }
}

/// The neighbor-aware chip-wide test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipwideTest {
    schedule: RoundSchedule,
}

impl ChipwideTest {
    /// Builds the test from the recursion's final distances.
    ///
    /// # Errors
    ///
    /// See [`RoundSchedule::build`].
    pub fn new(distances: &[i64], row_bits: usize) -> Result<Self, ParborError> {
        let schedule = RoundSchedule::build(distances, row_bits)?;
        Ok(ChipwideTest { schedule })
    }

    /// Builds the test from an explicit schedule (e.g. one built with a
    /// custom separation order via [`RoundSchedule::with_order`]).
    pub fn with_schedule(schedule: RoundSchedule) -> Self {
        ChipwideTest { schedule }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &RoundSchedule {
        &self.schedule
    }

    /// Total rounds including the inverse-polarity pass.
    pub fn rounds(&self) -> usize {
        self.schedule.rounds_per_polarity() * 2
    }

    /// Builds round `index` of the test — the true-cell polarity pass
    /// first, then the inverse pass. The round's one image is built once and
    /// shared by every row of every unit. Any round can be built on its own,
    /// so a checkpointed scan resumes mid-stage without materializing the
    /// prefix it already ran.
    fn round_plan(&self, index: usize, units: u32, rows: &[RowId], width: usize) -> RoundPlan {
        let per = self.schedule.rounds_per_polarity();
        let image = Arc::new(
            self.schedule
                .round_pattern(index % per, width, index >= per),
        );
        RoundPlan::broadcast(units, rows, |_| Arc::clone(&image))
    }
}

/// Checkpointable progress of the chip-wide test: the only place its rounds
/// run. [`Parbor::chip_test`](crate::Parbor::chip_test) steps one of these
/// to completion in a single call; a checkpointed scan
/// ([`ScanMachine`](crate::ScanMachine)) serializes it between steps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChipwideState {
    next_round: usize,
    /// First-failure polarity per failing cell of the rounds run so far.
    /// Each step keeps the first flip of each cell in round order before it
    /// enters the map, and a cell already in the map keeps its value, so
    /// any split of the rounds into steps gives the same map.
    failing: BTreeMap<CellKey, bool>,
}

impl ChipwideState {
    /// Executes up to `budget` of the test's remaining rounds as one batch
    /// in one `pipeline.chipwide` span, on `parbor`'s rows and arena.
    /// Returns the rounds executed and, once the last round has run, the
    /// outcome.
    pub(crate) fn step<P: TestPort + ?Sized>(
        &mut self,
        parbor: &Parbor,
        test: &ChipwideTest,
        port: &mut P,
        budget: usize,
    ) -> Result<(usize, Option<ChipwideOutcome>), ParborError> {
        let _span = span!(parbor.rec, metrics::pipeline::CHIPWIDE);
        let rows = parbor.config().rows_for(port);
        let total = test.rounds();
        check_round("chipwide next_round", self.next_round, total)?;
        let width = port.geometry().cols_per_row as usize;
        let units = port.units();
        let end = self.next_round.saturating_add(budget).min(total);
        let mut exec = RoundExecutor::new(port)
            .with_recorder(parbor.rec.clone())
            .with_arena(parbor.arena.clone())
            .count_rounds_as(metrics::chipwide::ROUNDS)
            .observe_flips_as(metrics::chipwide::ROUND_FLIPS);
        let batch: Vec<RoundPlan> = (self.next_round..end)
            .map(|i| test.round_plan(i, units, &rows, width))
            .collect();
        let mut step: Mix64Map<CellKey, bool> = Mix64Map::default();
        for flips in exec.run_batch(batch)? {
            for flip in flips {
                step.entry(CellKey::new(flip.unit, flip.flip.addr))
                    .or_insert(flip.flip.expected);
            }
        }
        // An earlier step's entry holds the earlier first failure.
        merge_sorted(&mut self.failing, step, |_, _| {});
        let executed = end - self.next_round;
        self.next_round = end;
        let outcome = (end == total).then(|| std::mem::take(self).into_outcome(&parbor.rec));
        Ok((executed, outcome))
    }

    /// The finished outcome; records the failure count on `rec`. The two
    /// keys order alike, so the map is rebuilt from an already sorted run.
    fn into_outcome(self, rec: &RecorderHandle) -> ChipwideOutcome {
        rec.incr(metrics::chipwide::FAILURES, self.failing.len() as u64);
        ChipwideOutcome {
            rounds: self.next_round,
            failing: self
                .failing
                .into_iter()
                .map(|(k, v)| ((k.unit, k.addr()), v))
                .collect(),
        }
    }
}

/// Result of a chip-wide test: the distinct failing bits and the rounds
/// spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipwideOutcome {
    /// Test rounds executed (including inverse passes).
    pub rounds: usize,
    /// Distinct failing bits, keyed and ordered by (unit, address); the
    /// value is the data the cell held when it failed (its charged
    /// polarity) — the input DC-REF's content check needs.
    pub failing: BTreeMap<(u32, BitAddr), bool>,
}

impl ChipwideOutcome {
    /// Number of distinct failing bits.
    pub fn failure_count(&self) -> usize {
        self.failing.len()
    }

    /// The failing bits as a set of (unit, address) keys.
    pub fn failing_bits(&self) -> HashSet<(u32, BitAddr)> {
        self.failing.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_write_of_a_round_shares_one_image() {
        let test = ChipwideTest::new(&[-48, -16, -8, 8, 16, 48], 8192).unwrap();
        let rows: Vec<RowId> = (0..16).map(|r| RowId::new(0, r)).collect();
        for index in [0, test.rounds() - 1] {
            let plan = test.round_plan(index, 8, &rows, 8192);
            let writes = plan.writes();
            assert_eq!(writes.len(), 8 * 16);
            assert!(writes.iter().all(|w| Arc::ptr_eq(&w.data, &writes[0].data)));
            let per = test.schedule().rounds_per_polarity();
            let expected = test
                .schedule()
                .round_pattern(index % per, 8192, index >= per);
            assert_eq!(*writes[0].data, expected);
        }
    }

    #[test]
    fn schedule_covers_and_separates_vendor_a() {
        let d = [-48, -16, -8, 8, 16, 48];
        let s = RoundSchedule::build(&d, 8192).unwrap();
        assert_eq!(s.chunk(), 128);
        assert!(s.verify(&d));
        // Paper's hand schedule uses 16 rounds/polarity; greedy must not be
        // worse.
        assert!(
            s.rounds_per_polarity() <= 16,
            "rounds = {}",
            s.rounds_per_polarity()
        );
    }

    #[test]
    fn schedule_covers_and_separates_vendor_b() {
        let d = [-64, -1, 1, 64];
        let s = RoundSchedule::build(&d, 8192).unwrap();
        // 64 + 64 = 128 would alias a victim onto its own second-order
        // neighborhood at chunk 128, so the chunk grows to 256.
        assert_eq!(s.chunk(), 256);
        assert!(s.verify(&d));
        assert!(s.rounds_per_polarity() <= 16);
    }

    #[test]
    fn schedule_covers_and_separates_vendor_c() {
        let d = [-49, -33, -16, 16, 33, 49];
        let s = RoundSchedule::build(&d, 8192).unwrap();
        assert_eq!(s.chunk(), 128);
        assert!(s.verify(&d));
        // Vendor C's dense third-order sums need more colors than the
        // paper's first-order-only schedule (8/polarity).
        assert!(
            s.rounds_per_polarity() <= 24,
            "rounds = {}",
            s.rounds_per_polarity()
        );
        // At the paper's first-order separation, the count matches Fig's 8.
        let first = RoundSchedule::with_order(&d, 8192, 1).unwrap();
        assert!(first.rounds_per_polarity() <= 8);
    }

    #[test]
    fn round_pattern_places_victims_periodically() {
        let s = RoundSchedule::build(&[8, -8], 1024).unwrap();
        let image = s.round_pattern(0, 1024, false);
        let victims = s.victims(0);
        for &v in victims {
            let mut p = v as usize;
            while p < 1024 {
                assert!(image.get(p), "victim at {p} not set");
                p += s.chunk();
            }
        }
        let inv = s.round_pattern(0, 1024, true);
        assert_eq!(image.count_ones() + inv.count_ones(), 1024);
    }

    #[test]
    fn every_position_is_victim_once() {
        let s = RoundSchedule::build(&[-3, 3, 7, -7], 256).unwrap();
        let mut count = vec![0; s.chunk()];
        for r in 0..s.rounds_per_polarity() {
            for &v in s.victims(r) {
                count[v as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn invalid_distance_sets_rejected() {
        assert!(RoundSchedule::build(&[], 8192).is_err());
        assert!(RoundSchedule::build(&[0], 8192).is_err());
        assert!(RoundSchedule::build(&[5000], 8192).is_err());
    }

    #[test]
    fn victims_in_round_zero_all_get_worst_case() {
        // In any round, every victim's ±d positions must be zero in the
        // round pattern (worst-case guarantee).
        let d = [-64i64, -1, 1, 64];
        let s = RoundSchedule::build(&d, 8192).unwrap();
        for r in 0..s.rounds_per_polarity() {
            let image = s.round_pattern(r, 8192, false);
            for &v in s.victims(r) {
                let mut p = v as usize;
                while p < 8192 {
                    for &dist in &d {
                        let n = p as i64 + dist;
                        if n >= 0 && (n as usize) < 8192 {
                            assert!(
                                !image.get(n as usize),
                                "round {r}: neighbor of victim {p} at {n} not opposite"
                            );
                        }
                    }
                    p += s.chunk();
                }
            }
        }
    }
}
