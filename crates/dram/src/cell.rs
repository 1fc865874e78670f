//! Per-cell fault population: coupling-vulnerable cells, retention-weak
//! cells, marginal cells, and VRT cells.
//!
//! The model follows the paper's taxonomy (§2.3, §5.2.1, §5.2.4):
//!
//! * **Data-dependent (coupling) failures** — a charged victim is disturbed
//!   by discharged physical neighbors through bitline coupling. We model the
//!   total interference on a victim as
//!   `I = w_l·opp_l + w_r·opp_r + w_win·max(0, 2·(frac_opp(window) − ½))`,
//!   where `opp_*` indicate immediate physical neighbors in the opposite
//!   charge state and the *window* term captures weaker second-order
//!   coupling from nearby bitlines — it only contributes once the window is
//!   majority-opposite (balanced windows cancel). The victim flips when
//!   `I ≥ θ`, its
//!   per-cell interference margin. Process variation (random `w_l`, `w_r`,
//!   `θ`) yields the paper's cell classes organically: *strongly coupled*
//!   cells (`θ ≤ max(w_l, w_r)`) fail from one neighbor alone, *weakly
//!   coupled* cells need both, and *deep* cells additionally need a biased
//!   window — the population only a neighbor-aware worst-case pattern finds
//!   reliably (the paper's Fig 13 "only PARBOR" slice).
//! * **Retention-weak** cells (`θ ≤ 0`) fail whenever charged, regardless of
//!   neighbors.
//! * **Marginal** cells fail intermittently with a fixed probability.
//! * **VRT** cells toggle between a leaky and a healthy state across epochs.
//!
//! All populations are drawn statelessly by hashing `(seed, bank, row,
//! physical column)`, so fault maps can be rebuilt at any time and are
//! identical across runs.

use serde::{Deserialize, Serialize};

use crate::hash::{cell_hash01, finish_tag, hash01, mix64, prefix_col, stream_prefix};
use crate::retention::RetentionModel;
use crate::scrambler::Scrambler;
use parbor_hal::unit_threshold;
use parbor_hal::DramError;
use parbor_hal::RowBits;
use parbor_hal::RowId;

// Hash stream tags. Each independent per-cell draw uses its own tag.
const TAG_INTERESTING: u64 = 1;
const TAG_THETA: u64 = 2;
const TAG_WL: u64 = 3;
const TAG_WR: u64 = 4;
const TAG_MARGINAL: u64 = 5;
const TAG_VRT: u64 = 6;
const TAG_ANTI: u64 = 7;
const TAG_WEAK: u64 = 8;

/// Population rates and shape parameters of the fault model.
///
/// The defaults are calibrated so an [`experiment_slice`] module produces
/// failure counts with the paper's Fig 12 shape; vendors override
/// `interesting` (see [`Vendor::default_rates`](crate::Vendor::default_rates)).
///
/// [`experiment_slice`]: crate::ChipGeometry::experiment_slice
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability that a cell is retention-marginal enough to participate
    /// in the coupling model at all ("interesting").
    pub interesting: f64,
    /// Fraction of interesting cells that are retention-weak (fail whenever
    /// charged, with no neighbor help).
    pub weak_share: f64,
    /// Probability that a cell is marginal (intermittent failure).
    pub marginal: f64,
    /// Per-round failure probability of a charged marginal cell.
    pub marginal_fail_prob: f64,
    /// Probability that a cell exhibits variable retention time.
    pub vrt: f64,
    /// Number of test rounds per VRT epoch (the leaky/healthy state is
    /// redrawn each epoch).
    pub vrt_epoch_rounds: u64,
    /// Soft-error probability per bit per round.
    pub soft_per_bit_per_round: f64,
    /// Width (physical columns) of the true-/anti-cell polarity blocks.
    pub anti_block: usize,
    /// Half-width of the second-order coupling window (physical cells at
    /// distance `2..=window_radius` on each side contribute).
    pub window_radius: usize,
    /// Maximum interference contributed by a fully opposite window.
    pub window_weight: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            interesting: 2.0e-3,
            weak_share: 0.12,
            marginal: 4.0e-5,
            marginal_fail_prob: 0.3,
            vrt: 1.5e-5,
            vrt_epoch_rounds: 5,
            soft_per_bit_per_round: 1.0e-9,
            anti_block: 512,
            window_radius: 4,
            window_weight: 0.6,
        }
    }
}

impl FaultRates {
    /// Validates that all probabilities are in `[0, 1]` and shape parameters
    /// are sane.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] describing the first offending
    /// field.
    pub fn validate(&self) -> Result<(), DramError> {
        for (name, p) in [
            ("interesting", self.interesting),
            ("weak_share", self.weak_share),
            ("marginal", self.marginal),
            ("marginal_fail_prob", self.marginal_fail_prob),
            ("vrt", self.vrt),
            ("soft_per_bit_per_round", self.soft_per_bit_per_round),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(DramError::InvalidConfig(format!(
                    "rate {name} = {p} outside [0, 1]"
                )));
            }
        }
        if self.anti_block == 0 {
            return Err(DramError::InvalidConfig(
                "anti_block must be nonzero".into(),
            ));
        }
        if self.window_radius < 2 {
            return Err(DramError::InvalidConfig(
                "window_radius must be at least 2".into(),
            ));
        }
        if self.window_radius > 32 {
            // Keeps the full window (2·(radius−1) cells) under 64, so the
            // compiled coupling stencil can hold a per-count failure mask in
            // one word (see `CouplingStencil`).
            return Err(DramError::InvalidConfig(
                "window_radius must be at most 32".into(),
            ));
        }
        if self.vrt_epoch_rounds == 0 {
            return Err(DramError::InvalidConfig(
                "vrt_epoch_rounds must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// Whether a cell stores logical `1` as the discharged state (anti-cell)
/// rather than the charged state (true cell). Drawn per polarity block.
pub(crate) fn is_anti(seed: u64, bank: u32, phys: usize, anti_block: usize) -> bool {
    let block = (phys / anti_block) as u64;
    cell_hash01(seed, u64::from(bank), 0, block, TAG_ANTI) < 0.5
}

/// A cell referenced by a coupling profile: its system column and polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRef {
    /// System column of the referenced cell.
    pub sys: u32,
    /// `true` if the cell is an anti-cell (stores `1` discharged).
    pub anti: bool,
}

/// The coupling-failure profile of one interesting cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellProfile {
    /// Reference-condition interference margin; effective margin is
    /// `theta_ref - theta_shift` (see [`RetentionModel::theta_at`]).
    pub theta_ref: f64,
    /// Interference weight of the left physical neighbor.
    pub w_left: f64,
    /// Interference weight of the right physical neighbor.
    pub w_right: f64,
    /// Left physical neighbor (absent at tile edges).
    pub left: Option<CellRef>,
    /// Right physical neighbor (absent at tile edges).
    pub right: Option<CellRef>,
    /// Second-order window cells (physical distance `2..=window_radius`).
    pub window: Vec<CellRef>,
    /// Maximum interference a fully opposite window can contribute.
    pub window_weight: f64,
    /// Size of a full (non-edge) window; the opposite-fraction denominator.
    pub window_full: usize,
}

impl CellProfile {
    /// The largest interference the cell's (possibly edge-truncated) window
    /// can contribute.
    pub(crate) fn max_window_interference(&self) -> f64 {
        if self.window_full == 0 {
            return 0.0;
        }
        let frac = self.window.len() as f64 / self.window_full as f64;
        self.window_weight * ((frac - 0.5).max(0.0) * 2.0)
    }

    /// Classifies the cell at an effective margin `θ = theta_ref − shift`.
    pub fn classify(&self, theta_shift: f64) -> CellClass {
        let theta = self.theta_ref - theta_shift;
        let wl = if self.left.is_some() {
            self.w_left
        } else {
            0.0
        };
        let wr = if self.right.is_some() {
            self.w_right
        } else {
            0.0
        };
        if theta <= 0.0 {
            CellClass::RetentionWeak
        } else if theta <= wl && theta <= wr {
            CellClass::StrongBoth
        } else if theta <= wl {
            CellClass::StrongLeft
        } else if theta <= wr {
            CellClass::StrongRight
        } else if theta <= wl + wr {
            CellClass::WeaklyCoupled
        } else if theta <= wl + wr + self.max_window_interference() {
            CellClass::DeepCoupled
        } else {
            CellClass::Robust
        }
    }
}

/// Coupling-sensitivity classes (paper §4.1, extended with the window-driven
/// `DeepCoupled` class and the non-data-dependent populations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellClass {
    /// Never fails at the operating conditions.
    Robust,
    /// Fails whenever charged, regardless of neighbors.
    RetentionWeak,
    /// Fails when the left physical neighbor alone is opposite.
    StrongLeft,
    /// Fails when the right physical neighbor alone is opposite.
    StrongRight,
    /// Fails when either neighbor alone is opposite.
    StrongBoth,
    /// Fails only when both immediate neighbors are opposite.
    WeaklyCoupled,
    /// Fails only when both neighbors *and* most of the surrounding window
    /// are opposite — reliably triggered only by worst-case patterns.
    DeepCoupled,
}

impl CellClass {
    /// Whether the class represents a data-dependent (coupling) failure.
    pub fn is_data_dependent(self) -> bool {
        matches!(
            self,
            CellClass::StrongLeft
                | CellClass::StrongRight
                | CellClass::StrongBoth
                | CellClass::WeaklyCoupled
                | CellClass::DeepCoupled
        )
    }
}

/// One faulty cell in a row's fault map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFault {
    /// System column of the faulty cell.
    pub sys: u32,
    /// `true` if the cell is an anti-cell.
    pub anti: bool,
    /// The failure mechanism.
    pub kind: FaultKind,
}

/// Failure mechanisms attached to cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Data-dependent coupling (includes retention-weak as `θ ≤ 0`).
    Coupling(CellProfile),
    /// Intermittent failure with a fixed per-round probability.
    Marginal {
        /// Per-round failure probability when charged.
        fail_prob: f64,
    },
    /// Variable retention time: leaky during randomly drawn epochs.
    Vrt,
}

/// All faulty cells of one row, in ascending physical order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowFaultMap {
    /// The faulty cells.
    pub entries: Vec<CellFault>,
}

impl RowFaultMap {
    /// Builds the fault map for one row by screening every physical position
    /// against the seeded Bernoulli streams.
    ///
    /// This is the sparse sampler: the three population screens (interesting,
    /// marginal, VRT) share one row-constant hash prefix and one per-column
    /// fold (`stream_prefix`/`prefix_col`), and each screen is a single
    /// integer compare against a precomputed `unit_threshold` — 4 `mix64`
    /// calls per position instead of the reference path's 15, with all float
    /// work deferred to the handful of positions that pass a screen. The
    /// drawn population is bit-identical to
    /// [`build_reference`](RowFaultMap::build_reference) (each stream is the
    /// same random-access hash, so cells stay independently addressable; a
    /// gap-skipping sampler would redefine the population and break every
    /// pinned figure).
    pub fn build(
        seed: u64,
        row: RowId,
        scrambler: &dyn Scrambler,
        rates: &FaultRates,
        retention: &RetentionModel,
    ) -> RowFaultMap {
        let n = scrambler.row_bits();
        let bank = u64::from(row.bank);
        let r = u64::from(row.row);
        let prefix = stream_prefix(seed, bank, r);
        let t_interesting = unit_threshold(rates.interesting);
        let t_marginal = unit_threshold(rates.marginal);
        let t_vrt = unit_threshold(rates.vrt);
        let mut entries = Vec::new();
        for phys in 0..n {
            let mid = prefix_col(prefix, phys as u64);
            let interesting = (finish_tag(mid, TAG_INTERESTING) >> 11) < t_interesting;
            let marginal = (finish_tag(mid, TAG_MARGINAL) >> 11) < t_marginal;
            let vrt = (finish_tag(mid, TAG_VRT) >> 11) < t_vrt;
            if !(interesting || marginal || vrt) {
                continue;
            }
            let sys = scrambler.physical_to_system(phys) as u32;
            let anti = is_anti(seed, row.bank, phys, rates.anti_block);
            if interesting {
                let w_left = 0.8 + hash01(finish_tag(mid, TAG_WL));
                let w_right = 0.8 + hash01(finish_tag(mid, TAG_WR));
                let (lo, hi) = scrambler.tile_bounds(phys);
                let cell_ref = |q: usize| CellRef {
                    sys: scrambler.physical_to_system(q) as u32,
                    anti: is_anti(seed, row.bank, q, rates.anti_block),
                };
                let left = (phys > lo).then(|| cell_ref(phys - 1));
                let right = (phys + 1 < hi).then(|| cell_ref(phys + 1));
                let mut window = Vec::with_capacity(2 * (rates.window_radius - 1));
                for d in 2..=rates.window_radius {
                    if phys >= lo + d {
                        window.push(cell_ref(phys - d));
                    }
                    if phys + d < hi {
                        window.push(cell_ref(phys + d));
                    }
                }
                let mut profile = CellProfile {
                    theta_ref: 0.0,
                    w_left,
                    w_right,
                    left,
                    right,
                    window,
                    window_weight: rates.window_weight,
                    window_full: 2 * (rates.window_radius - 1),
                };
                // Margin draw: retention-weak cells fail unaided; the rest
                // sit between 0 and their worst-case interference maximum,
                // concentrated near the maximum (steep retention tail).
                profile.theta_ref = if hash01(finish_tag(mid, TAG_WEAK)) < rates.weak_share {
                    -0.1
                } else {
                    let wl = if profile.left.is_some() { w_left } else { 0.0 };
                    let wr = if profile.right.is_some() {
                        w_right
                    } else {
                        0.0
                    };
                    let i_max = wl + wr + profile.max_window_interference();
                    retention.theta_ref(hash01(finish_tag(mid, TAG_THETA)), i_max)
                };
                entries.push(CellFault {
                    sys,
                    anti,
                    kind: FaultKind::Coupling(profile),
                });
            }
            if marginal {
                entries.push(CellFault {
                    sys,
                    anti,
                    kind: FaultKind::Marginal {
                        fail_prob: rates.marginal_fail_prob,
                    },
                });
            }
            if vrt {
                entries.push(CellFault {
                    sys,
                    anti,
                    kind: FaultKind::Vrt,
                });
            }
        }
        // Cached maps live as long as their rows: drop the growth slack.
        entries.shrink_to_fit();
        RowFaultMap { entries }
    }

    /// The retained reference sampler: draws every stream with a full
    /// five-word `cell_hash01` and float compares, exactly as shipped
    /// before the sparse sampler existed.
    ///
    /// Kept as the correctness oracle for [`build`](RowFaultMap::build)
    /// (equivalence is pinned by unit tests and proptests) and as the
    /// baseline side of the fault-map benchmarks.
    pub fn build_reference(
        seed: u64,
        row: RowId,
        scrambler: &dyn Scrambler,
        rates: &FaultRates,
        retention: &RetentionModel,
    ) -> RowFaultMap {
        let n = scrambler.row_bits();
        let bank = u64::from(row.bank);
        let r = u64::from(row.row);
        let mut entries = Vec::new();
        for phys in 0..n {
            let p = phys as u64;
            let interesting = cell_hash01(seed, bank, r, p, TAG_INTERESTING) < rates.interesting;
            let marginal = cell_hash01(seed, bank, r, p, TAG_MARGINAL) < rates.marginal;
            let vrt = cell_hash01(seed, bank, r, p, TAG_VRT) < rates.vrt;
            if !(interesting || marginal || vrt) {
                continue;
            }
            let sys = scrambler.physical_to_system(phys) as u32;
            let anti = is_anti(seed, row.bank, phys, rates.anti_block);
            if interesting {
                let w_left = 0.8 + cell_hash01(seed, bank, r, p, TAG_WL);
                let w_right = 0.8 + cell_hash01(seed, bank, r, p, TAG_WR);
                let (lo, hi) = scrambler.tile_bounds(phys);
                let cell_ref = |q: usize| CellRef {
                    sys: scrambler.physical_to_system(q) as u32,
                    anti: is_anti(seed, row.bank, q, rates.anti_block),
                };
                let left = (phys > lo).then(|| cell_ref(phys - 1));
                let right = (phys + 1 < hi).then(|| cell_ref(phys + 1));
                let mut window = Vec::with_capacity(2 * (rates.window_radius - 1));
                for d in 2..=rates.window_radius {
                    if phys >= lo + d {
                        window.push(cell_ref(phys - d));
                    }
                    if phys + d < hi {
                        window.push(cell_ref(phys + d));
                    }
                }
                let mut profile = CellProfile {
                    theta_ref: 0.0,
                    w_left,
                    w_right,
                    left,
                    right,
                    window,
                    window_weight: rates.window_weight,
                    window_full: 2 * (rates.window_radius - 1),
                };
                profile.theta_ref = if cell_hash01(seed, bank, r, p, TAG_WEAK) < rates.weak_share {
                    -0.1
                } else {
                    let wl = if profile.left.is_some() { w_left } else { 0.0 };
                    let wr = if profile.right.is_some() {
                        w_right
                    } else {
                        0.0
                    };
                    let i_max = wl + wr + profile.max_window_interference();
                    retention.theta_ref(cell_hash01(seed, bank, r, p, TAG_THETA), i_max)
                };
                entries.push(CellFault {
                    sys,
                    anti,
                    kind: FaultKind::Coupling(profile),
                });
            }
            if marginal {
                entries.push(CellFault {
                    sys,
                    anti,
                    kind: FaultKind::Marginal {
                        fail_prob: rates.marginal_fail_prob,
                    },
                });
            }
            if vrt {
                entries.push(CellFault {
                    sys,
                    anti,
                    kind: FaultKind::Vrt,
                });
            }
        }
        // Cached maps live as long as their rows: drop the growth slack.
        entries.shrink_to_fit();
        RowFaultMap { entries }
    }

    /// The scrambler translations [`build`](RowFaultMap::build) and
    /// [`build_reference`](RowFaultMap::build_reference) made for this map:
    /// one per screened survivor, plus one per neighbor and window cell of
    /// each coupling cell. A survivor's entries are adjacent and share its
    /// column, so survivors are where the column changes.
    pub(crate) fn translations(&self) -> u64 {
        let mut prev = None;
        self.entries
            .iter()
            .map(|e| {
                let survivor = u64::from(prev.replace(e.sys) != Some(e.sys));
                let refs = match &e.kind {
                    FaultKind::Coupling(p) => {
                        p.left.iter().chain(&p.right).chain(&p.window).count() as u64
                    }
                    _ => 0,
                };
                survivor + refs
            })
            .sum()
    }

    /// Scalar reference evaluation of the coupling model: indices (into
    /// `entries`) of the coupling entries that fail for this exact row
    /// content at this margin shift.
    ///
    /// Coupling outcomes are pure in `(row data, margin shift)` — unlike the
    /// marginal/VRT/soft kinds they do not depend on the round counter.
    /// The shipped hot path is the compiled
    /// [`CouplingStencil`](crate::CouplingStencil); this per-entry loop is
    /// retained as its correctness oracle and benchmark baseline.
    pub fn coupling_fail_indices(&self, data: &RowBits, theta_shift: f64) -> Vec<u32> {
        let charged = |r: &CellRef| (data.get(r.sys as usize)) != r.anti;
        let mut out = Vec::new();
        for (idx, e) in self.entries.iter().enumerate() {
            let FaultKind::Coupling(p) = &e.kind else {
                continue;
            };
            let victim_charged = data.get(e.sys as usize) != e.anti;
            if !victim_charged {
                continue;
            }
            let theta = p.theta_ref - theta_shift;
            let mut interference = 0.0;
            if let Some(l) = &p.left {
                if !charged(l) {
                    interference += p.w_left;
                }
            }
            if let Some(rr) = &p.right {
                if !charged(rr) {
                    interference += p.w_right;
                }
            }
            if !p.window.is_empty() {
                // Second-order coupling only matters when the window is
                // substantially biased against the victim: below
                // half-opposite the contributions cancel. The denominator is
                // the *full* window size, so cells at tile edges (fewer
                // aggressors) feel less coupling.
                let frac =
                    p.window.iter().filter(|c| !charged(c)).count() as f64 / p.window_full as f64;
                interference += p.window_weight * ((frac - 0.5).max(0.0) * 2.0);
            }
            if interference >= theta {
                out.push(idx as u32);
            }
        }
        out
    }

    /// Number of faulty cells (entries) in the row.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the row has no faulty cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Histogram of cell classes at the given margin shift.
    #[cfg(test)]
    fn class_counts(&self, theta_shift: f64) -> Vec<(CellClass, usize)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<&'static str, (CellClass, usize)> = BTreeMap::new();
        for e in &self.entries {
            if let FaultKind::Coupling(p) = &e.kind {
                let c = p.classify(theta_shift);
                let key = class_name(c);
                counts.entry(key).or_insert((c, 0)).1 += 1;
            }
        }
        counts.into_values().collect()
    }
}

#[cfg(test)]
fn class_name(c: CellClass) -> &'static str {
    match c {
        CellClass::Robust => "robust",
        CellClass::RetentionWeak => "retention-weak",
        CellClass::StrongLeft => "strong-left",
        CellClass::StrongRight => "strong-right",
        CellClass::StrongBoth => "strong-both",
        CellClass::WeaklyCoupled => "weakly-coupled",
        CellClass::DeepCoupled => "deep-coupled",
    }
}

/// Per-round VRT epoch state: `true` if the cell is in its leaky state.
pub(crate) fn vrt_leaky(seed: u64, row: RowId, sys: u32, round: u64, epoch_rounds: u64) -> bool {
    let epoch = round / epoch_rounds;
    cell_hash01(
        seed,
        u64::from(row.bank),
        u64::from(row.row),
        u64::from(sys),
        mix64(epoch ^ 0xE70C),
    ) < 0.5
}

/// Per-round marginal draw: `true` if a marginal cell fails this round.
pub(crate) fn marginal_fails(seed: u64, row: RowId, sys: u32, round: u64, fail_prob: f64) -> bool {
    cell_hash01(
        seed,
        u64::from(row.bank),
        u64::from(row.row),
        u64::from(sys),
        mix64(round ^ 0x3A26),
    ) < fail_prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrambler::IdentityScrambler;
    use crate::vendor::Vendor;

    fn build_map(rate: f64) -> RowFaultMap {
        let s = IdentityScrambler::new(4096);
        RowFaultMap::build(
            42,
            RowId::new(0, 0),
            &s,
            &FaultRates {
                interesting: rate,
                ..FaultRates::default()
            },
            &RetentionModel::default(),
        )
    }

    #[test]
    fn fault_map_is_deterministic() {
        assert_eq!(build_map(0.01).entries, build_map(0.01).entries);
    }

    #[test]
    fn sparse_build_matches_reference_build() {
        let retention = RetentionModel::default();
        for vendor in Vendor::ALL {
            let s = vendor.scrambler(8192);
            for seed in [0u64, 1, 42, u64::MAX] {
                for row in [RowId::new(0, 0), RowId::new(3, 17), RowId::new(1, 8191)] {
                    for rates in [
                        FaultRates::default(),
                        FaultRates {
                            interesting: 0.0,
                            marginal: 0.0,
                            vrt: 0.0,
                            ..FaultRates::default()
                        },
                        FaultRates {
                            interesting: 1.0,
                            weak_share: 0.5,
                            ..FaultRates::default()
                        },
                        FaultRates {
                            interesting: 0.05,
                            marginal: 0.5,
                            vrt: 0.5,
                            window_radius: 2,
                            ..FaultRates::default()
                        },
                    ] {
                        let fast = RowFaultMap::build(seed, row, &*s, &rates, &retention);
                        let reference =
                            RowFaultMap::build_reference(seed, row, &*s, &rates, &retention);
                        assert_eq!(fast, reference, "{vendor:?} seed {seed} row {row:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn fault_map_density_tracks_rate() {
        let map = build_map(0.05);
        let coupling = map
            .entries
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Coupling(_)))
            .count();
        // Expected 4096 × 0.05 ≈ 205; allow generous slack.
        assert!((100..350).contains(&coupling), "count = {coupling}");
    }

    #[test]
    fn classification_thresholds() {
        let wref = CellRef {
            sys: 9,
            anti: false,
        };
        let profile = CellProfile {
            theta_ref: 0.9,
            w_left: 1.0,
            w_right: 0.7,
            left: Some(CellRef {
                sys: 0,
                anti: false,
            }),
            right: Some(CellRef {
                sys: 2,
                anti: false,
            }),
            window: vec![wref; 10],
            window_weight: 0.6,
            window_full: 10,
        };
        assert_eq!(profile.classify(0.0), CellClass::StrongLeft);
        assert_eq!(profile.classify(-0.2), CellClass::WeaklyCoupled); // θ = 1.1
        assert_eq!(profile.classify(-1.0), CellClass::DeepCoupled); // θ = 1.9
        assert_eq!(profile.classify(-1.5), CellClass::Robust); // θ = 2.4
        assert_eq!(profile.classify(1.0), CellClass::RetentionWeak); // θ = -0.1
        assert_eq!(profile.classify(0.3), CellClass::StrongBoth); // θ = 0.6
    }

    #[test]
    fn classify_handles_missing_neighbors() {
        let profile = CellProfile {
            theta_ref: 0.9,
            w_left: 1.5,
            w_right: 1.5,
            left: None,
            right: None,
            window: vec![],
            window_weight: 0.6,
            window_full: 10,
        };
        // No neighbors exist, so no interference can reach θ = 0.9 > 0.6.
        assert_eq!(profile.classify(0.0), CellClass::Robust);
    }

    #[test]
    fn all_classes_appear_in_large_population() {
        use std::collections::HashSet;
        let s = Vendor::A.scrambler(8192);
        let mut seen = HashSet::new();
        for r in 0..64 {
            let map = RowFaultMap::build(
                7,
                RowId::new(0, r),
                &*s,
                &FaultRates {
                    interesting: 0.02,
                    ..FaultRates::default()
                },
                &RetentionModel::default(),
            );
            for (class, _) in map.class_counts(0.0) {
                seen.insert(class);
            }
        }
        for c in [
            CellClass::RetentionWeak,
            CellClass::StrongLeft,
            CellClass::StrongRight,
            CellClass::WeaklyCoupled,
            CellClass::DeepCoupled,
        ] {
            assert!(seen.contains(&c), "class {c:?} never drawn");
        }
        // Robust is unreachable at reference stress (every interesting cell
        // fails under its own full worst case by construction), but appears
        // once the stress drops (shorter interval / lower temperature).
        let map = RowFaultMap::build(
            7,
            RowId::new(0, 0),
            &*s,
            &FaultRates {
                interesting: 0.02,
                ..FaultRates::default()
            },
            &RetentionModel::default(),
        );
        let relaxed = map.class_counts(-0.5);
        assert!(
            relaxed
                .iter()
                .any(|&(c, n)| c == CellClass::Robust && n > 0),
            "no Robust cells even at relaxed stress"
        );
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let bad = [
            FaultRates {
                interesting: 1.5,
                ..FaultRates::default()
            },
            FaultRates {
                anti_block: 0,
                ..FaultRates::default()
            },
            FaultRates {
                window_radius: 1,
                ..FaultRates::default()
            },
        ];
        for r in bad {
            assert!(r.validate().is_err(), "{r:?} should be invalid");
        }
        assert!(FaultRates::default().validate().is_ok());
    }

    #[test]
    fn vrt_state_changes_across_epochs() {
        let row = RowId::new(0, 0);
        let mut states = HashSetLike::default();
        for round in 0..100 {
            states.observe(vrt_leaky(1, row, 5, round, 5));
        }
        assert!(states.saw_true && states.saw_false, "VRT never toggled");
    }

    #[derive(Default)]
    struct HashSetLike {
        saw_true: bool,
        saw_false: bool,
    }
    impl HashSetLike {
        fn observe(&mut self, v: bool) {
            if v {
                self.saw_true = true;
            } else {
                self.saw_false = true;
            }
        }
    }

    /// A scrambler that counts the `physical_to_system` calls it serves.
    #[derive(Debug)]
    struct CountingScrambler {
        inner: std::sync::Arc<dyn Scrambler>,
        calls: std::sync::atomic::AtomicU64,
    }

    impl Scrambler for CountingScrambler {
        fn row_bits(&self) -> usize {
            self.inner.row_bits()
        }
        fn system_to_physical(&self, col: usize) -> usize {
            self.inner.system_to_physical(col)
        }
        fn physical_to_system(&self, pos: usize) -> usize {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.physical_to_system(pos)
        }
        fn tile_bounds(&self, pos: usize) -> (usize, usize) {
            self.inner.tile_bounds(pos)
        }
    }

    #[test]
    fn translations_count_the_builds_scrambler_calls() {
        // Raised marginal and VRT rates put cells that are both coupling
        // and marginal/VRT at one position, which translates once.
        let rates = FaultRates {
            interesting: 0.02,
            marginal: 0.01,
            vrt: 0.01,
            ..FaultRates::default()
        };
        for vendor in Vendor::ALL {
            for build in [RowFaultMap::build, RowFaultMap::build_reference] {
                let counting = CountingScrambler {
                    inner: vendor.scrambler(8192),
                    calls: Default::default(),
                };
                let row = RowId::new(0, 5);
                let map = build(9, row, &counting, &rates, &RetentionModel::default());
                let calls = counting.calls.into_inner();
                assert_eq!(map.translations(), calls, "{vendor:?}");
                assert!(calls < 8192 / 4, "{vendor:?}: {calls} translations");
            }
        }
    }

    #[test]
    fn is_data_dependent_matches_taxonomy() {
        assert!(CellClass::StrongLeft.is_data_dependent());
        assert!(CellClass::DeepCoupled.is_data_dependent());
        assert!(!CellClass::RetentionWeak.is_data_dependent());
        assert!(!CellClass::Robust.is_data_dependent());
    }
}
