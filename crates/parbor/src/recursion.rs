//! Steps 2–4: the parallel recursive neighbor test (paper §5.2.3) with
//! noise filtering (§5.2.4).
//!
//! Each *round* writes, in every victim's row simultaneously, the victim's
//! failing value everywhere except one candidate region, which gets the
//! opposite value; if the victim's strongly coupled neighbor lies in that
//! region, the victim flips. Rounds are counted exactly as the paper counts
//! tests (Table 1): the first level splits the row in half (2 rounds), and
//! every kept region splits into 8 subregions at each later level
//! (`kept × 8` rounds). Distances are recorded *relative to the victim's own
//! region*, which is what makes rows testable in parallel and results
//! aggregatable across the whole chip (§5.2.2).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use parbor_hal::hash::Mix64Map;
use parbor_hal::{RoundExecutor, RoundPlan, RowBits, TestPort};
use parbor_obs::metrics;
use parbor_obs::{span, RecorderHandle};

use crate::aggregate::DistanceHistogram;
use crate::error::{check_round, ParborError};
use crate::pipeline::Parbor;
use crate::region::LevelPlan;
use crate::victim::{Victim, VictimKey};

/// Tuning knobs of the recursion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecursionConfig {
    /// Region-size plan; `None` derives the paper plan from the row width.
    pub plan: Option<LevelPlan>,
    /// Keep a distance only if its magnitude count is at least this fraction
    /// of the most frequent magnitude (paper §5.2.4 ranking).
    pub rank_threshold: f64,
    /// Discard a victim (as marginal/weak/VRT) if it failed in more than
    /// `max(discard_fail_fraction × eligible_rounds, 1)` rounds at a level.
    /// Genuinely coupled victims fail in at most a couple of regions per
    /// level; intermittent cells fail in ~30-50 % of all rounds regardless
    /// of region and must be rejected (paper §5.2.4, first filter).
    pub discard_fail_fraction: f64,
}

impl Default for RecursionConfig {
    fn default() -> Self {
        RecursionConfig {
            plan: None,
            rank_threshold: 0.2,
            discard_fail_fraction: 0.25,
        }
    }
}

/// What happened at one recursion level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelOutcome {
    /// Region size at this level.
    pub region_size: usize,
    /// Test rounds executed at this level (the paper's Table 1 columns).
    pub tests: usize,
    /// Distance observations after victim discard, before ranking.
    pub histogram: DistanceHistogram,
    /// Signed region distances kept by ranking.
    pub kept: Vec<i64>,
    /// Victims discarded as marginal at this level.
    pub discarded_victims: usize,
}

/// The result of the full recursion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecursionOutcome {
    /// Per-level outcomes, coarsest first.
    pub levels: Vec<LevelOutcome>,
    /// Final signed neighbor distances in bits (the last level's kept set).
    pub distances: Vec<i64>,
    /// Total rounds across all levels (Table 1's rightmost column).
    pub total_tests: usize,
}

impl RecursionOutcome {
    /// Tests per level, coarsest first (one Table 1 row).
    pub fn tests_per_level(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.tests).collect()
    }
}

/// Checkpointable progress of the recursion: everything the level loop
/// accumulates across rounds, and nothing derivable from the config and
/// victim list.
///
/// [`Parbor::locate`](crate::Parbor::locate) drives one of these to
/// completion; a checkpointed scan ([`ScanMachine`](crate::ScanMachine))
/// serializes the state between [`step`](RecursionState::step) calls and
/// later resumes against a port fast-forwarded by the rounds already run —
/// the remaining rounds and the final outcome are bit-identical to the
/// uninterrupted run because every round's content is a pure function of
/// (config, victims, kept distances so far).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecursionState {
    /// Current level (index into the level plan).
    level: usize,
    /// Rounds of the current level already executed.
    next_round: usize,
    /// Per-victim liveness (false once discarded as marginal).
    alive: Vec<bool>,
    /// Per-victim fail counts at the current level.
    fails: Vec<usize>,
    /// Per-victim distances observed at the current level, sorted and
    /// deduplicated (set semantics).
    observed: Vec<Vec<i64>>,
    /// Completed level outcomes.
    levels: Vec<LevelOutcome>,
    /// Distances kept at the previous level.
    kept_parents: Vec<i64>,
    /// Rounds executed across all completed levels.
    total_tests: usize,
    /// Whether the final level has completed.
    done: bool,
}

/// The per-round victim regions and per-victim eligibility counts of one
/// level — pure functions of (plan, victims, liveness, kept distances).
struct LevelGeometry {
    round_regions: Vec<Vec<Option<usize>>>,
    eligible: Vec<usize>,
}

impl RecursionState {
    /// Validates the inputs and positions the state before round 0 of
    /// level 0.
    ///
    /// # Errors
    ///
    /// * [`ParborError::NoVictims`] if `victims` is empty.
    /// * [`ParborError::InvalidConfig`] if two victims share a row or the
    ///   row width has no valid level plan.
    pub fn start(
        config: &RecursionConfig,
        width: usize,
        victims: &[Victim],
    ) -> Result<Self, ParborError> {
        if victims.is_empty() {
            return Err(ParborError::NoVictims);
        }
        Self::resolve_plan(config, width)?;
        let mut keys = std::collections::HashSet::new();
        for v in victims {
            if !keys.insert(v.key()) {
                return Err(ParborError::InvalidConfig(format!(
                    "two victims share unit {} {}",
                    v.unit, v.row
                )));
            }
        }
        Ok(RecursionState {
            level: 0,
            next_round: 0,
            alive: vec![true; victims.len()],
            fails: vec![0; victims.len()],
            observed: vec![Vec::new(); victims.len()],
            levels: Vec::new(),
            kept_parents: Vec::new(),
            total_tests: 0,
            done: false,
        })
    }

    /// The outcome of the levels completed so far.
    fn outcome(&self) -> RecursionOutcome {
        let distances = self
            .levels
            .last()
            .map(|l| l.kept.clone())
            .unwrap_or_default();
        RecursionOutcome {
            levels: self.levels.clone(),
            distances,
            total_tests: self.total_tests,
        }
    }

    fn resolve_plan(config: &RecursionConfig, width: usize) -> Result<LevelPlan, ParborError> {
        match &config.plan {
            Some(p) => {
                if p.row_bits() != width {
                    return Err(ParborError::InvalidConfig(format!(
                        "plan built for {} bits, port rows have {width}",
                        p.row_bits()
                    )));
                }
                Ok(p.clone())
            }
            None => LevelPlan::paper(width),
        }
    }

    /// Recomputes each round's victim regions and the per-victim eligible
    /// counts for the current level. Candidate generators are (parent
    /// distance, child offset) pairs; level 0 has a single virtual parent
    /// covering the whole row.
    fn level_geometry(&self, plan: &LevelPlan, victims: &[Victim]) -> LevelGeometry {
        let level = self.level;
        let fanout = plan.fanout(level);
        let region_count = plan.region_count(level);
        let parents: Vec<Option<i64>> = if level == 0 {
            vec![None]
        } else {
            self.kept_parents.iter().copied().map(Some).collect()
        };
        let mut round_regions = Vec::with_capacity(parents.len() * fanout);
        let mut eligible = vec![0usize; victims.len()];
        for parent in &parents {
            for child in 0..fanout {
                let mut regions: Vec<Option<usize>> = vec![None; victims.len()];
                for (i, v) in victims.iter().enumerate() {
                    if !self.alive[i] {
                        continue;
                    }
                    let own_parent = match parent {
                        None => 0i64,
                        Some(d) => plan.region_of(v.col as usize, level - 1) as i64 + d,
                    };
                    if parent.is_some()
                        && (own_parent < 0 || own_parent as usize >= plan.region_count(level - 1))
                    {
                        continue; // parent region off the row edge
                    }
                    let region = if level == 0 {
                        child
                    } else {
                        own_parent as usize * fanout + child
                    };
                    if region < region_count {
                        regions[i] = Some(region);
                        eligible[i] += 1;
                    }
                }
                round_regions.push(regions);
            }
        }
        LevelGeometry {
            round_regions,
            eligible,
        }
    }

    /// The flip-attribution index: row-space key → position in the victim
    /// slice. A pure function of the victim list, so callers build it once
    /// per stage and reuse it across every [`step`](RecursionState::step).
    pub fn victim_lookup(victims: &[Victim]) -> Mix64Map<VictimKey, usize> {
        victims
            .iter()
            .enumerate()
            .map(|(i, v)| (v.key(), i))
            .collect()
    }

    /// Materializes the row images of a batch of rounds from their victim
    /// regions; returns the plans and the number of images built.
    ///
    /// A victim's image is its failing value everywhere except the
    /// candidate region `[lo, hi)`, which gets the opposite value, and then
    /// its own cell set back to the failing value. When the victim's column
    /// lies outside the region that last write changes nothing, so the
    /// image depends only on (fail value, region): the batch builds it on
    /// first use and every such victim row of every round shares it. A
    /// victim tested in its own region gets an image of its own.
    fn build_batch(
        plan: &LevelPlan,
        level: usize,
        width: usize,
        victims: &[Victim],
        round_regions: &[Vec<Option<usize>>],
    ) -> (Vec<RoundPlan>, usize) {
        let region_image = |fail_value: bool, lo: usize, hi: usize| {
            let mut data = RowBits::filled(width, fail_value);
            data.set_range(lo, hi, !fail_value);
            data
        };
        let mut shared: Mix64Map<(bool, usize), Arc<RowBits>> = Mix64Map::default();
        let mut own = 0usize;
        let plans = round_regions
            .iter()
            .map(|regions| {
                let mut round = RoundPlan::with_capacity(victims.len());
                for (v, &region) in victims.iter().zip(regions) {
                    let Some(region) = region else { continue };
                    let (lo, hi) = plan
                        .region_range(region, level)
                        .expect("region index validated during geometry");
                    let col = v.col as usize;
                    if (lo..hi).contains(&col) {
                        let mut data = region_image(v.fail_value, lo, hi);
                        data.set(col, v.fail_value);
                        own += 1;
                        round.write(v.unit, v.row, data);
                    } else {
                        let data = shared
                            .entry((v.fail_value, region))
                            .or_insert_with(|| Arc::new(region_image(v.fail_value, lo, hi)));
                        round.write(v.unit, v.row, Arc::clone(data));
                    }
                }
                round
            })
            .collect();
        (plans, own + shared.len())
    }

    /// Executes up to `budget` rounds of the current level in one
    /// `pipeline.recursion` span, on `parbor`'s recursion config and arena;
    /// when the level's last round completes, runs the discard/aggregate/rank
    /// step and advances to the next level (or marks the recursion done).
    /// Returns the rounds executed and, once the last level has completed,
    /// the outcome.
    ///
    /// Within a level every round's content is fixed by the previous level's
    /// kept distances, so any split of the level into consecutive batches is
    /// bit-identical to one batch (an empty plan still costs one round —
    /// exactly how the paper counts tests).
    ///
    /// # Errors
    ///
    /// * [`ParborError::NoDistances`] if every distance was filtered as
    ///   noise at the completed level (the state is dead afterwards).
    /// * Device errors from the port.
    pub fn step<P: TestPort + ?Sized>(
        &mut self,
        parbor: &Parbor,
        port: &mut P,
        victims: &[Victim],
        lookup: &Mix64Map<VictimKey, usize>,
        budget: usize,
    ) -> Result<(usize, Option<RecursionOutcome>), ParborError> {
        if self.done {
            return Ok((0, Some(self.outcome())));
        }
        let _span = span!(parbor.rec, metrics::pipeline::RECURSION);
        let (config, rec) = (&parbor.config().recursion, &parbor.rec);
        let width = port.geometry().cols_per_row as usize;
        let plan = Self::resolve_plan(config, width)?;
        self.check_shape(&plan, victims)?;
        let level = self.level;
        let size = plan.sizes()[level];
        let _level_span = span!(*rec, metrics::recursion::LEVEL, size);
        let geometry = self.level_geometry(&plan, victims);
        let rounds_at_level = geometry.round_regions.len();
        check_round("recursion next_round", self.next_round, rounds_at_level)?;

        let end = self.next_round.saturating_add(budget).min(rounds_at_level);
        let mut exec = RoundExecutor::new(port)
            .with_recorder(rec.clone())
            .with_arena(parbor.arena.clone())
            .count_rounds_as(metrics::recursion::TESTS);
        let (plans, images) = Self::build_batch(
            &plan,
            level,
            width,
            victims,
            &geometry.round_regions[self.next_round..end],
        );
        rec.incr(metrics::recursion::IMAGES_BUILT, images as u64);
        for (flips, regions) in exec
            .run_batch(plans)?
            .into_iter()
            .zip(&geometry.round_regions[self.next_round..end])
        {
            for flip in flips {
                let key = VictimKey {
                    unit: flip.unit,
                    row: flip.flip.addr.row(),
                };
                let Some(&i) = lookup.get(&key) else { continue };
                if flip.flip.addr.col != victims[i].col {
                    continue;
                }
                let Some(region) = regions[i] else { continue };
                self.fails[i] += 1;
                let distance =
                    region as i64 - plan.region_of(victims[i].col as usize, level) as i64;
                if let Err(pos) = self.observed[i].binary_search(&distance) {
                    self.observed[i].insert(pos, distance);
                }
            }
        }
        let executed = end - self.next_round;
        self.next_round = end;
        if end == rounds_at_level {
            self.complete_level(
                config,
                rec,
                size,
                rounds_at_level,
                &geometry.eligible,
                plan.levels(),
            )?;
        }
        Ok((executed, self.done.then(|| self.outcome())))
    }

    /// Checks that a (possibly deserialized) unfinished state fits the plan
    /// and the victim list, so a corrupted checkpoint fails with an error
    /// naming the field instead of indexing out of bounds.
    fn check_shape(&self, plan: &LevelPlan, victims: &[Victim]) -> Result<(), ParborError> {
        if self.level >= plan.levels() {
            return Err(ParborError::InvalidConfig(format!(
                "checkpoint recursion level is {}, past the plan's {} levels",
                self.level,
                plan.levels()
            )));
        }
        for (field, len) in [
            ("alive", self.alive.len()),
            ("fails", self.fails.len()),
            ("observed", self.observed.len()),
        ] {
            if len != victims.len() {
                return Err(ParborError::InvalidConfig(format!(
                    "checkpoint recursion {field} has {len} entries for {} selected victims",
                    victims.len()
                )));
            }
        }
        Ok(())
    }

    /// The discard/aggregate/rank step at the end of a level.
    fn complete_level(
        &mut self,
        config: &RecursionConfig,
        rec: &RecorderHandle,
        size: usize,
        rounds_at_level: usize,
        eligible: &[usize],
        total_levels: usize,
    ) -> Result<(), ParborError> {
        // Victim discard: marginal/weak cells fail in most regions.
        let mut discarded = 0usize;
        for (i, &elig) in eligible.iter().enumerate().take(self.alive.len()) {
            let cutoff = (config.discard_fail_fraction * elig as f64).max(1.0);
            if self.alive[i] && elig > 0 && self.fails[i] as f64 > cutoff {
                self.alive[i] = false;
                self.observed[i].clear();
                discarded += 1;
            }
        }

        // Aggregate the surviving observations and rank.
        let mut histogram = DistanceHistogram::new();
        for set in &self.observed {
            for &d in set {
                histogram.record(d);
            }
        }
        let ranked = histogram.rank(config.rank_threshold);
        rec.incr(
            metrics::aggregate::DISTANCES_KEPT,
            ranked.kept().len() as u64,
        );
        rec.incr(
            metrics::aggregate::DISTANCES_DROPPED,
            ranked.dropped().len() as u64,
        );
        rec.incr(metrics::recursion::VICTIMS_DISCARDED, discarded as u64);
        let kept = ranked.kept().to_vec();
        self.total_tests += rounds_at_level;
        self.levels.push(LevelOutcome {
            region_size: size,
            tests: rounds_at_level,
            histogram,
            kept: kept.clone(),
            discarded_victims: discarded,
        });
        self.next_round = 0;
        self.fails.iter_mut().for_each(|f| *f = 0);
        self.observed.iter_mut().for_each(Vec::clear);
        if kept.is_empty() {
            self.done = true; // dead state: no distances survived
            return Err(ParborError::NoDistances);
        }
        self.kept_parents = kept;
        self.level += 1;
        if self.level == total_levels {
            self.done = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParborConfig;
    use parbor_dram::{ChipGeometry, DramChip, RowId, Vendor};

    fn run_vendor(vendor: Vendor, rows: u32, seed: u64) -> (RecursionOutcome, DramChip) {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, rows, 8192).unwrap(), vendor, seed).unwrap();
        let parbor = Parbor::new(ParborConfig {
            discovery_seed: 3,
            ..ParborConfig::default()
        });
        let victims = parbor.discover(&mut chip).unwrap();
        let outcome = parbor.locate(&mut chip, &victims).unwrap();
        (outcome, chip)
    }

    #[test]
    fn vendor_a_finds_paper_distances_and_counts() {
        let (outcome, _) = run_vendor(Vendor::A, 256, 11);
        assert_eq!(outcome.distances, vec![-48, -16, -8, 8, 16, 48]);
        assert_eq!(outcome.tests_per_level(), vec![2, 8, 8, 24, 48]);
        assert_eq!(outcome.total_tests, 90);
    }

    #[test]
    fn vendor_b_finds_paper_distances_and_counts() {
        let (outcome, _) = run_vendor(Vendor::B, 256, 12);
        assert_eq!(outcome.distances, vec![-64, -1, 1, 64]);
        assert_eq!(outcome.tests_per_level(), vec![2, 8, 8, 24, 24]);
        assert_eq!(outcome.total_tests, 66);
    }

    #[test]
    fn vendor_c_finds_paper_distances_and_counts() {
        let (outcome, _) = run_vendor(Vendor::C, 256, 13);
        assert_eq!(outcome.distances, vec![-49, -33, -16, 16, 33, 49]);
        assert_eq!(outcome.tests_per_level(), vec![2, 8, 8, 24, 48]);
        assert_eq!(outcome.total_tests, 90);
    }

    #[test]
    fn empty_victims_rejected() {
        let err = RecursionState::start(&RecursionConfig::default(), 8192, &[]).unwrap_err();
        assert!(matches!(err, ParborError::NoVictims));
    }

    #[test]
    fn duplicate_victim_rows_rejected() {
        let v = |col| Victim {
            unit: 0,
            row: RowId::new(0, 0),
            col,
            fail_value: true,
        };
        let err =
            RecursionState::start(&RecursionConfig::default(), 8192, &[v(1), v(2)]).unwrap_err();
        assert!(matches!(err, ParborError::InvalidConfig(_)));
    }

    /// The per-victim construction that [`RecursionState::build_batch`]
    /// replaced, kept as the oracle of its images.
    fn per_victim_image(
        plan: &LevelPlan,
        level: usize,
        width: usize,
        v: &Victim,
        region: usize,
    ) -> RowBits {
        let (lo, hi) = plan.region_range(region, level).unwrap();
        let mut data = RowBits::filled(width, v.fail_value);
        data.set_range(lo, hi, !v.fail_value);
        data.set(v.col as usize, v.fail_value);
        data
    }

    #[test]
    fn recursion_images_match_the_per_victim_build() {
        use std::collections::HashMap;
        for (vendor, seed) in [(Vendor::A, 11), (Vendor::B, 12), (Vendor::C, 13)] {
            let mut chip =
                DramChip::new(ChipGeometry::new(1, 256, 8192).unwrap(), vendor, seed).unwrap();
            let parbor = Parbor::new(ParborConfig {
                discovery_seed: 3,
                ..ParborConfig::default()
            });
            let found = parbor.discover(&mut chip).unwrap();
            let (victims, mut state, lookup) = parbor.start_recursion(&chip, &found).unwrap();
            let plan = RecursionState::resolve_plan(&parbor.config().recursion, 8192).unwrap();
            for level in 0..plan.levels() {
                assert_eq!(state.level, level, "{vendor:?}");
                let geometry = state.level_geometry(&plan, &victims);
                let (plans, built) = RecursionState::build_batch(
                    &plan,
                    level,
                    8192,
                    &victims,
                    &geometry.round_regions,
                );
                let mut shared: HashMap<(bool, usize), Arc<RowBits>> = HashMap::new();
                let mut own = 0usize;
                for (round, regions) in plans.iter().zip(&geometry.round_regions) {
                    let tested: Vec<(&Victim, usize)> = victims
                        .iter()
                        .zip(regions)
                        .filter_map(|(v, r)| r.map(|r| (v, r)))
                        .collect();
                    assert_eq!(round.len(), tested.len(), "{vendor:?} level {level}");
                    for (write, (v, region)) in round.writes().iter().zip(tested) {
                        assert_eq!((write.unit, write.row), (v.unit, v.row));
                        assert_eq!(
                            *write.data,
                            per_victim_image(&plan, level, 8192, v, region),
                            "{vendor:?} level {level} region {region}"
                        );
                        let (lo, hi) = plan.region_range(region, level).unwrap();
                        if (lo..hi).contains(&(v.col as usize)) {
                            own += 1;
                            continue;
                        }
                        let first = shared
                            .entry((v.fail_value, region))
                            .or_insert_with(|| Arc::clone(&write.data));
                        assert!(
                            Arc::ptr_eq(first, &write.data),
                            "{vendor:?} level {level}: two images of region {region}"
                        );
                    }
                }
                assert_eq!(built, own + shared.len(), "{vendor:?} level {level}");
                state
                    .step(&parbor, &mut chip, &victims, &lookup, usize::MAX)
                    .unwrap();
            }
            assert!(state.done, "{vendor:?}");
        }
    }

    #[test]
    fn images_built_stay_below_the_row_writes() {
        use parbor_obs::ShardedRecorder;
        let recorder = ShardedRecorder::handle();
        let rec = RecorderHandle::from(recorder.clone());
        let mut chip = DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::A, 1)
            .unwrap()
            .with_recorder(rec.clone());
        let parbor = Parbor::new(ParborConfig::default()).with_recorder(rec);
        let found = parbor.discover(&mut chip).unwrap();
        let (victims, mut state, lookup) = parbor.start_recursion(&chip, &found).unwrap();
        let counts = || {
            let snap = recorder.snapshot();
            (
                snap.counter(metrics::recursion::IMAGES_BUILT),
                snap.counter(metrics::dram::ROW_WRITES),
            )
        };
        while !state.done {
            let (images_before, writes_before) = counts();
            state
                .step(&parbor, &mut chip, &victims, &lookup, 4)
                .unwrap();
            let (images, writes) = counts();
            let (images, writes) = (images - images_before, writes - writes_before);
            assert!(
                images > 0 && images < writes,
                "{images} images for {writes} row writes"
            );
        }
    }

    #[test]
    fn level_histograms_follow_figure_11_shape() {
        // Vendor A: L1/L2 keep only distance 0, L3 keeps {0, ±1},
        // L4 keeps {±1, ±2, ±6} (Fig 11a).
        let (outcome, _) = run_vendor(Vendor::A, 256, 21);
        assert_eq!(outcome.levels[0].kept, vec![0]);
        assert_eq!(outcome.levels[1].kept, vec![0]);
        assert_eq!(outcome.levels[2].kept, vec![-1, 0, 1]);
        assert_eq!(outcome.levels[3].kept, vec![-6, -2, -1, 1, 2, 6]);
    }
}
