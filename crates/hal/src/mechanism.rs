//! Composable device failure mechanisms.
//!
//! PARBOR's claim is that system-level testing detects *data-dependent
//! failures* in general, not just the bitline-coupling population it was
//! calibrated on. This module is the extension point that lets the claim be
//! measured: a [`FailureMechanism`] observes what a system-level round
//! exposes about each written row — activation counts, aggregate row-open
//! time, elapsed retention time, and the content of the row and its
//! row-address neighbors — and deterministically emits extra bit flips.
//!
//! Three literature mechanisms ship here:
//!
//! * [`HammerMechanism`] — RowHammer-style read disturb: flips trigger once
//!   the neighbor rows' activation count crosses a threshold (Kim et al.,
//!   "RowHammer: Reliability Analysis and Security Implications").
//! * [`PressMechanism`] — RowPress-style disturbance: flips trigger once a
//!   neighbor row's aggregate open time crosses a threshold ("Revisiting
//!   DRAM Read Disturbance").
//! * [`DriftMechanism`] — time-varying retention drift: susceptible cells
//!   come online over the first `period_s` seconds of elapsed retention
//!   time, then leak whenever they hold their charged polarity.
//!
//! The simulator's bitline-coupling model is the fourth implementation
//! (`parbor_dram::CouplingMechanism`); it stays the *base* model inside the
//! device, while a stack of extras composes on top — installed on a chip
//! (`DramChip::set_mechanisms`) or wrapped around any port
//! ([`MechanismInjectingPort`](crate::MechanismInjectingPort)).
//!
//! Everything is a pure hash of `(mechanism seed, bank, row, column)` plus
//! the observed round state, so a stack's flips are independent of batching,
//! scheduling, and worker counts, and an empty stack is bit-identical to no
//! stack at all.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::bits::RowBits;
use crate::error::DramError;
use crate::geometry::{BitAddr, RowId};
use crate::hash::{hash01, hash_words, mix64, unit_threshold};
use crate::port::{BitFlip, Flip, RowWrite};

/// Aggregate row-open time one port-level row write represents, in
/// nanoseconds.
///
/// The round primitive hides individual ACT/PRE timing, so the view models
/// each write of a row as the pattern-hold window a system-level tester
/// keeps the row's wordline active for in aggregate (30 ms). Mechanisms that
/// care about open time ([`PressMechanism`]) threshold against this scale.
pub const ROW_OPEN_NS_PER_ACT: f64 = 30_000_000.0;

// Per-mechanism hash domains, so the same user seed draws independent cell
// populations for each mechanism.
const SALT_HAMMER: u64 = 0x4d45_4348_4841_4d01;
const SALT_PRESS: u64 = 0x4d45_4348_5052_4501;
const SALT_DRIFT: u64 = 0x4d45_4348_4452_4601;

// Per-property streams within one mechanism's domain.
const TAG_SUSCEPT: u64 = 1;
const TAG_POLARITY: u64 = 2;
const TAG_SIDE: u64 = 3;
const TAG_AGGRESSOR: u64 = 4;
const TAG_ONSET: u64 = 5;

/// Deterministic per-cell hash in one mechanism's domain: the definition
/// every per-cell draw here must reproduce.
#[cfg(test)]
fn cell_hash(seed: u64, salt: u64, tag: u64, bank: u32, row: u32, col: u32) -> u64 {
    hash_words(&[
        mix64(seed ^ salt),
        tag,
        u64::from(bank),
        u64::from(row),
        u64::from(col),
    ])
}

/// One `(mechanism, tag)` stream over the cells of one row.
///
/// `cell_hash` folds `[mix64(seed ^ salt), tag, bank, row, col]`; the
/// first four words are row-constant, so the stream folds them once and
/// each column costs one `mix64` — bit-identical to `cell_hash`. The
/// device's fault-map sampler hoists its `[seed, bank, row]` prefix the
/// same way.
#[derive(Clone, Copy)]
struct RowStream(u64);

impl RowStream {
    fn new(seed: u64, salt: u64, tag: u64, bank: u32, row: u32) -> Self {
        RowStream(hash_words(&[
            mix64(seed ^ salt),
            tag,
            u64::from(bank),
            u64::from(row),
        ]))
    }

    #[inline]
    fn at(self, col: u32) -> u64 {
        mix64(self.0 ^ u64::from(col))
    }
}

/// What a mechanism observes about one row-address neighbor of a written
/// row, within the same unit and bank.
#[derive(Debug)]
pub struct NeighborView<'a> {
    /// The neighbor row.
    pub row: RowId,
    /// How many times the neighbor was written (activated) this round.
    pub activations: u64,
    /// Aggregate open time of the neighbor this round, in nanoseconds.
    pub open_ns: f64,
    /// The neighbor's written content, when it was written this round.
    pub data: Option<&'a RowBits>,
}

/// What a mechanism observes about one written row in one round.
///
/// Views are built per round from the round's write set alone, so a
/// mechanism's output is a pure function of `(writes, round counter)` — the
/// same invariance contract the fault injector keeps (batched rounds, serial
/// rounds, and resumed-after-`fast_forward` rounds all see identical views).
#[derive(Debug)]
pub struct RowView<'a> {
    /// Unit (chip) index the row belongs to.
    pub unit: u32,
    /// The written row.
    pub row: RowId,
    /// The row's final written content this round.
    pub data: &'a RowBits,
    /// How many times the row was written (activated) this round.
    pub activations: u64,
    /// Aggregate open time of the row this round, in nanoseconds.
    pub open_ns: f64,
    /// The port round counter at evaluation.
    pub round: u64,
    /// Elapsed retention time at read-back, in seconds (rounds × refresh
    /// interval).
    pub elapsed_s: f64,
    /// The row-address predecessor (`row - 1`), if written this round.
    pub left: Option<NeighborView<'a>>,
    /// The row-address successor (`row + 1`), if written this round.
    pub right: Option<NeighborView<'a>>,
}

/// A composable device failure mechanism.
///
/// Implementations must be deterministic: flips are a pure function of the
/// view and the mechanism's own parameters/seed, never of call order or
/// thread schedule. That is what keeps the whole stack bit-identical across
/// [`ParallelMode`](crate::ParallelMode)s, batching, and checkpoint/resume.
pub trait FailureMechanism: fmt::Debug + Send + Sync {
    /// Short stable name (`"hammer"`, `"press"`, `"drift"`, `"coupling"`).
    fn name(&self) -> &'static str;

    /// The flips this mechanism adds to one observed row this round.
    fn flips(&self, view: &RowView<'_>) -> Vec<BitFlip>;

    /// Ground truth: the susceptible columns of a row — every cell this
    /// mechanism *can* fail given enough rounds. Efficacy harnesses use this
    /// as the recall denominator; the detection pipeline never calls it.
    fn truth(&self, bank: u32, row: u32, cols: u32) -> Vec<u32>;

    /// True when the current parameters can never emit a flip, so an
    /// installed-but-inert mechanism is bit-identical to no mechanism.
    fn is_inert(&self) -> bool;
}

/// Susceptible columns for the `hash01 < rate` populations all three
/// mechanisms here draw from.
fn susceptible_cols(seed: u64, salt: u64, rate: f64, bank: u32, row: u32, cols: u32) -> Vec<u32> {
    // `(h >> 11) < t` is exactly `hash01(h) < rate`; `t == 0` covers
    // `rate <= 0` (and NaN), which can never pass.
    let t = unit_threshold(rate);
    if t == 0 {
        return Vec::new();
    }
    let stream = RowStream::new(seed, salt, TAG_SUSCEPT, bank, row);
    (0..cols)
        .filter(|&col| (stream.at(col) >> 11) < t)
        .collect()
}

/// Shared flip core for the two read-disturb mechanisms: once a trigger has
/// fired, a susceptible cell flips when it holds its charged polarity *and*
/// its aggressor bitline (one in-row neighbor column at `dist`, side chosen
/// per cell) holds the aggravating polarity. The content gate is what makes
/// these failures *data-dependent* — the property PARBOR detects — rather
/// than unconditional disturbance.
fn disturb_flips(view: &RowView<'_>, seed: u64, salt: u64, rate: f64, dist: u32) -> Vec<BitFlip> {
    let bank = view.row.bank;
    let row = view.row.row;
    let width = view.data.len() as u32;
    let polarity = RowStream::new(seed, salt, TAG_POLARITY, bank, row);
    let side = RowStream::new(seed, salt, TAG_SIDE, bank, row);
    let aggravation = RowStream::new(seed, salt, TAG_AGGRESSOR, bank, row);
    let mut out = Vec::new();
    for col in susceptible_cols(seed, salt, rate, bank, row, width) {
        let charged = polarity.at(col) & 1 == 1;
        if view.data.get(col as usize) != charged {
            continue;
        }
        let prefer_left = side.at(col) & 1 == 0;
        let left = col.checked_sub(dist);
        let right = (col.saturating_add(dist) < width).then(|| col + dist);
        let aggressor = if prefer_left {
            left.or(right)
        } else {
            right.or(left)
        };
        let Some(aggressor) = aggressor else { continue };
        let aggravating = aggravation.at(col) & 1 == 1;
        if view.data.get(aggressor as usize) != aggravating {
            continue;
        }
        out.push(BitFlip {
            addr: BitAddr::new(bank, row, col),
            expected: charged,
        });
    }
    out
}

/// RowHammer-style read disturb: flips trigger once the combined activation
/// count of the two row-address neighbors crosses `thresh`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammerMechanism {
    /// Activation threshold (the literature's per-vendor `HC_first`).
    pub thresh: u64,
    /// Activations one port-level row write represents (a write+wait round
    /// hides tens of thousands of ACTs behind the round primitive).
    pub acts_per_write: u64,
    /// Fraction of cells susceptible to disturbance.
    pub rate: f64,
    /// Aggressor bitline distance within the row (system columns).
    pub dist: u32,
    /// Mechanism seed; draws the susceptible population.
    pub seed: u64,
}

impl Default for HammerMechanism {
    fn default() -> Self {
        HammerMechanism {
            thresh: 50_000,
            acts_per_write: 32_000,
            rate: 1e-3,
            dist: 1,
            seed: 0x5eed,
        }
    }
}

impl FailureMechanism for HammerMechanism {
    fn name(&self) -> &'static str {
        "hammer"
    }

    fn flips(&self, view: &RowView<'_>) -> Vec<BitFlip> {
        if self.is_inert() {
            return Vec::new();
        }
        let neighbor_acts = view
            .left
            .as_ref()
            .map_or(0, |n| n.activations)
            .saturating_add(view.right.as_ref().map_or(0, |n| n.activations));
        if neighbor_acts.saturating_mul(self.acts_per_write) < self.thresh {
            return Vec::new();
        }
        disturb_flips(view, self.seed, SALT_HAMMER, self.rate, self.dist)
    }

    fn truth(&self, bank: u32, row: u32, cols: u32) -> Vec<u32> {
        susceptible_cols(self.seed, SALT_HAMMER, self.rate, bank, row, cols)
    }

    fn is_inert(&self) -> bool {
        self.rate <= 0.0
    }
}

/// RowPress-style disturbance: flips trigger once a neighbor row's aggregate
/// open time crosses `thresh_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressMechanism {
    /// Open-time threshold in nanoseconds.
    pub thresh_ns: f64,
    /// Fraction of cells susceptible to disturbance.
    pub rate: f64,
    /// Aggressor bitline distance within the row (system columns).
    pub dist: u32,
    /// Mechanism seed; draws the susceptible population.
    pub seed: u64,
}

impl Default for PressMechanism {
    fn default() -> Self {
        PressMechanism {
            thresh_ns: 25_000_000.0,
            rate: 5e-4,
            dist: 1,
            seed: 0x5eed,
        }
    }
}

impl FailureMechanism for PressMechanism {
    fn name(&self) -> &'static str {
        "press"
    }

    fn flips(&self, view: &RowView<'_>) -> Vec<BitFlip> {
        if self.is_inert() {
            return Vec::new();
        }
        let open = view
            .left
            .as_ref()
            .map_or(0.0, |n| n.open_ns)
            .max(view.right.as_ref().map_or(0.0, |n| n.open_ns));
        if open < self.thresh_ns {
            return Vec::new();
        }
        disturb_flips(view, self.seed, SALT_PRESS, self.rate, self.dist)
    }

    fn truth(&self, bank: u32, row: u32, cols: u32) -> Vec<u32> {
        susceptible_cols(self.seed, SALT_PRESS, self.rate, bank, row, cols)
    }

    fn is_inert(&self) -> bool {
        self.rate <= 0.0
    }
}

/// Time-varying retention drift: each susceptible cell has a hash-drawn
/// onset time in `[0, period_s)`; once elapsed retention time passes its
/// onset, the cell leaks whenever it holds its charged polarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftMechanism {
    /// Fraction of cells that eventually drift.
    pub rate: f64,
    /// Onset window in seconds: all susceptible cells are active once
    /// elapsed retention time reaches `period_s`.
    pub period_s: f64,
    /// Mechanism seed; draws the susceptible population and onsets.
    pub seed: u64,
}

impl Default for DriftMechanism {
    fn default() -> Self {
        DriftMechanism {
            rate: 1e-3,
            period_s: 120.0,
            seed: 0x5eed,
        }
    }
}

impl FailureMechanism for DriftMechanism {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn flips(&self, view: &RowView<'_>) -> Vec<BitFlip> {
        if self.is_inert() {
            return Vec::new();
        }
        let bank = view.row.bank;
        let row = view.row.row;
        let width = view.data.len() as u32;
        let onset = RowStream::new(self.seed, SALT_DRIFT, TAG_ONSET, bank, row);
        let polarity = RowStream::new(self.seed, SALT_DRIFT, TAG_POLARITY, bank, row);
        let mut out = Vec::new();
        for col in susceptible_cols(self.seed, SALT_DRIFT, self.rate, bank, row, width) {
            if view.elapsed_s < hash01(onset.at(col)) * self.period_s {
                continue;
            }
            let charged = polarity.at(col) & 1 == 1;
            if view.data.get(col as usize) != charged {
                continue;
            }
            out.push(BitFlip {
                addr: BitAddr::new(bank, row, col),
                expected: charged,
            });
        }
        out
    }

    fn truth(&self, bank: u32, row: u32, cols: u32) -> Vec<u32> {
        susceptible_cols(self.seed, SALT_DRIFT, self.rate, bank, row, cols)
    }

    fn is_inert(&self) -> bool {
        self.rate <= 0.0
    }
}

/// A serializable description of one mechanism — the CLI / spec form of the
/// stack, so fleet journals and checkpoints can rebuild identical devices.
///
/// Spec grammar (the `--mechanisms` flag): mechanisms are separated by `;`,
/// each is `name` or `name=key:value,key:value,...`, and numeric values take
/// `k`/`m`/`g` suffixes (×10³/10⁶/10⁹):
///
/// ```text
/// hammer=thresh:50k,seed:7;press=thresh_ns:25m;drift=rate:1e-3,period:120
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MechanismSpec {
    /// [`HammerMechanism`] parameters.
    Hammer {
        /// Activation threshold.
        thresh: u64,
        /// Activations one row write represents.
        acts: u64,
        /// Susceptible-cell rate.
        rate: f64,
        /// Aggressor bitline distance.
        dist: u32,
        /// Mechanism seed.
        seed: u64,
    },
    /// [`PressMechanism`] parameters.
    Press {
        /// Open-time threshold in nanoseconds.
        thresh_ns: f64,
        /// Susceptible-cell rate.
        rate: f64,
        /// Aggressor bitline distance.
        dist: u32,
        /// Mechanism seed.
        seed: u64,
    },
    /// [`DriftMechanism`] parameters.
    Drift {
        /// Susceptible-cell rate.
        rate: f64,
        /// Onset window in seconds.
        period_s: f64,
        /// Mechanism seed.
        seed: u64,
    },
}

/// Parses a `u64` with optional `k`/`m`/`g` suffix.
fn parse_scaled_u64(key: &str, value: &str) -> Result<u64, DramError> {
    let (digits, scale) = split_suffix(value);
    digits
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(scale))
        .ok_or_else(|| {
            DramError::InvalidConfig(format!("mechanism {key} must be a non-negative integer"))
        })
}

/// Parses an `f64` with optional `k`/`m`/`g` suffix.
fn parse_scaled_f64(key: &str, value: &str) -> Result<f64, DramError> {
    let (digits, scale) = split_suffix(value);
    digits
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(|v| v * scale as f64)
        .ok_or_else(|| DramError::InvalidConfig(format!("mechanism {key} must be a finite number")))
}

fn split_suffix(value: &str) -> (&str, u64) {
    match value.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&value[..value.len() - 1], 1_000),
        Some(b'm') | Some(b'M') => (&value[..value.len() - 1], 1_000_000),
        Some(b'g') | Some(b'G') => (&value[..value.len() - 1], 1_000_000_000),
        _ => (value, 1),
    }
}

fn check_rate(rate: f64) -> Result<f64, DramError> {
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(DramError::InvalidConfig(format!(
            "mechanism rate {rate} outside [0, 1]"
        )))
    }
}

impl MechanismSpec {
    /// The spec's mechanism name (`"hammer"` / `"press"` / `"drift"`).
    pub fn name(&self) -> &'static str {
        match self {
            MechanismSpec::Hammer { .. } => "hammer",
            MechanismSpec::Press { .. } => "press",
            MechanismSpec::Drift { .. } => "drift",
        }
    }

    /// Parses one mechanism spec (`name` or `name=key:value,...`).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] on unknown names or keys,
    /// unparsable values, or out-of-range rates.
    pub fn parse(s: &str) -> Result<Self, DramError> {
        let s = s.trim();
        let (name, params) = match s.split_once('=') {
            Some((name, params)) => (name.trim(), params.trim()),
            None => (s, ""),
        };
        let mut spec = match name {
            "hammer" => {
                let d = HammerMechanism::default();
                MechanismSpec::Hammer {
                    thresh: d.thresh,
                    acts: d.acts_per_write,
                    rate: d.rate,
                    dist: d.dist,
                    seed: d.seed,
                }
            }
            "press" => {
                let d = PressMechanism::default();
                MechanismSpec::Press {
                    thresh_ns: d.thresh_ns,
                    rate: d.rate,
                    dist: d.dist,
                    seed: d.seed,
                }
            }
            "drift" => {
                let d = DriftMechanism::default();
                MechanismSpec::Drift {
                    rate: d.rate,
                    period_s: d.period_s,
                    seed: d.seed,
                }
            }
            other => {
                return Err(DramError::InvalidConfig(format!(
                    "unknown mechanism {other:?} (expected hammer|press|drift)"
                )))
            }
        };
        for kv in params.split(',').filter(|kv| !kv.trim().is_empty()) {
            let (key, value) = kv.split_once(':').ok_or_else(|| {
                DramError::InvalidConfig(format!(
                    "mechanism parameter {kv:?} is not key:value syntax"
                ))
            })?;
            let (key, value) = (key.trim(), value.trim());
            spec.set_param(key, value)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    fn set_param(&mut self, key: &str, value: &str) -> Result<(), DramError> {
        let mech_name = self.name();
        let unknown = move |valid: &str| {
            Err(DramError::InvalidConfig(format!(
                "unknown {mech_name} parameter {key:?} (expected {valid})"
            )))
        };
        match self {
            MechanismSpec::Hammer {
                thresh,
                acts,
                rate,
                dist,
                seed,
            } => match key {
                "thresh" => *thresh = parse_scaled_u64(key, value)?,
                "acts" => *acts = parse_scaled_u64(key, value)?,
                "rate" => *rate = check_rate(parse_scaled_f64(key, value)?)?,
                "dist" => *dist = parse_scaled_u64(key, value)? as u32,
                "seed" => *seed = parse_scaled_u64(key, value)?,
                _ => return unknown("thresh|acts|rate|dist|seed"),
            },
            MechanismSpec::Press {
                thresh_ns,
                rate,
                dist,
                seed,
            } => match key {
                "thresh_ns" | "thresh" => *thresh_ns = parse_scaled_f64(key, value)?,
                "rate" => *rate = check_rate(parse_scaled_f64(key, value)?)?,
                "dist" => *dist = parse_scaled_u64(key, value)? as u32,
                "seed" => *seed = parse_scaled_u64(key, value)?,
                _ => return unknown("thresh_ns|rate|dist|seed"),
            },
            MechanismSpec::Drift {
                rate,
                period_s,
                seed,
            } => match key {
                "rate" => *rate = check_rate(parse_scaled_f64(key, value)?)?,
                "period" | "period_s" => *period_s = parse_scaled_f64(key, value)?,
                "seed" => *seed = parse_scaled_u64(key, value)?,
                _ => return unknown("rate|period|seed"),
            },
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), DramError> {
        match *self {
            MechanismSpec::Hammer { dist, .. } | MechanismSpec::Press { dist, .. } if dist == 0 => {
                Err(DramError::InvalidConfig(
                    "mechanism dist must be at least 1".into(),
                ))
            }
            MechanismSpec::Press { thresh_ns, .. } if thresh_ns < 0.0 => Err(
                DramError::InvalidConfig("mechanism thresh_ns must be non-negative".into()),
            ),
            MechanismSpec::Drift { period_s, .. } if period_s <= 0.0 => Err(
                DramError::InvalidConfig("mechanism period must be positive".into()),
            ),
            _ => Ok(()),
        }
    }

    /// Parses a `;`-separated stack of mechanism specs. Empty input (or only
    /// separators) is the empty stack.
    ///
    /// # Errors
    ///
    /// Same as [`parse`](MechanismSpec::parse), for the first bad entry.
    pub fn parse_stack(s: &str) -> Result<Vec<Self>, DramError> {
        s.split(';')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .map(Self::parse)
            .collect()
    }

    /// Builds the mechanism this spec describes.
    pub fn build(&self) -> Arc<dyn FailureMechanism> {
        match *self {
            MechanismSpec::Hammer {
                thresh,
                acts,
                rate,
                dist,
                seed,
            } => Arc::new(HammerMechanism {
                thresh,
                acts_per_write: acts,
                rate,
                dist,
                seed,
            }),
            MechanismSpec::Press {
                thresh_ns,
                rate,
                dist,
                seed,
            } => Arc::new(PressMechanism {
                thresh_ns,
                rate,
                dist,
                seed,
            }),
            MechanismSpec::Drift {
                rate,
                period_s,
                seed,
            } => Arc::new(DriftMechanism {
                rate,
                period_s,
                seed,
            }),
        }
    }

    /// Builds a whole stack in spec order.
    pub fn build_stack(specs: &[MechanismSpec]) -> Vec<Arc<dyn FailureMechanism>> {
        specs.iter().map(MechanismSpec::build).collect()
    }
}

impl fmt::Display for MechanismSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MechanismSpec::Hammer {
                thresh,
                acts,
                rate,
                dist,
                seed,
            } => write!(
                f,
                "hammer=thresh:{thresh},acts:{acts},rate:{rate},dist:{dist},seed:{seed}"
            ),
            MechanismSpec::Press {
                thresh_ns,
                rate,
                dist,
                seed,
            } => write!(
                f,
                "press=thresh_ns:{thresh_ns},rate:{rate},dist:{dist},seed:{seed}"
            ),
            MechanismSpec::Drift {
                rate,
                period_s,
                seed,
            } => write!(f, "drift=rate:{rate},period:{period_s},seed:{seed}"),
        }
    }
}

/// Applies a mechanism stack to one unit's writes for one round, returning
/// the stack's flips deduplicated by address (first mechanism wins).
///
/// `writes` is the round's write list for the unit in execution order; rows
/// written more than once count each write as one activation and expose
/// their final content. Pure in its arguments, so results are independent of
/// batching and thread counts.
pub fn unit_stack_flips(
    mechanisms: &[Arc<dyn FailureMechanism>],
    writes: &[(RowId, &RowBits)],
    unit: u32,
    round: u64,
    elapsed_s: f64,
) -> Vec<BitFlip> {
    if mechanisms.is_empty() || writes.is_empty() {
        return Vec::new();
    }
    let mut activations: HashMap<RowId, u64> = HashMap::with_capacity(writes.len());
    let mut content: HashMap<RowId, &RowBits> = HashMap::with_capacity(writes.len());
    let mut order: Vec<RowId> = Vec::with_capacity(writes.len());
    for &(row, data) in writes {
        let count = activations.entry(row).or_insert(0);
        if *count == 0 {
            order.push(row);
        }
        *count += 1;
        content.insert(row, data);
    }
    let mut out = Vec::new();
    let mut seen: HashSet<BitAddr> = HashSet::new();
    for row in order {
        let neighbor = |neighbor_row: Option<u32>| -> Option<NeighborView<'_>> {
            let id = RowId::new(row.bank, neighbor_row?);
            let acts = *activations.get(&id)?;
            Some(NeighborView {
                row: id,
                activations: acts,
                open_ns: acts as f64 * ROW_OPEN_NS_PER_ACT,
                data: content.get(&id).copied(),
            })
        };
        let acts = activations[&row];
        let view = RowView {
            unit,
            row,
            data: content[&row],
            activations: acts,
            open_ns: acts as f64 * ROW_OPEN_NS_PER_ACT,
            round,
            elapsed_s,
            left: neighbor(row.row.checked_sub(1)),
            right: neighbor(row.row.checked_add(1)),
        };
        for mech in mechanisms {
            for flip in mech.flips(&view) {
                if seen.insert(flip.addr) {
                    out.push(flip);
                }
            }
        }
    }
    out
}

/// Applies a mechanism stack to a whole port round (all units), returning
/// flips in ascending unit order.
pub fn stack_flips(
    mechanisms: &[Arc<dyn FailureMechanism>],
    writes: &[RowWrite],
    round: u64,
    elapsed_s: f64,
) -> Vec<Flip> {
    if mechanisms.is_empty() || writes.is_empty() {
        return Vec::new();
    }
    let mut per_unit: HashMap<u32, Vec<(RowId, &RowBits)>> = HashMap::new();
    for w in writes {
        per_unit.entry(w.unit).or_default().push((w.row, &w.data));
    }
    let mut units: Vec<u32> = per_unit.keys().copied().collect();
    units.sort_unstable();
    let mut out = Vec::new();
    for unit in units {
        out.extend(
            unit_stack_flips(mechanisms, &per_unit[&unit], unit, round, elapsed_s)
                .into_iter()
                .map(|flip| Flip { unit, flip }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(width: usize) -> RowBits {
        let mut bits = RowBits::zeros(width);
        for i in (0..width).step_by(2) {
            bits.flip(i);
        }
        bits
    }

    fn view_writes(rows: u32, width: usize) -> Vec<(RowId, RowBits)> {
        (0..rows)
            .map(|r| (RowId::new(0, r), stripe(width)))
            .collect()
    }

    fn run_stack(
        mechanisms: &[Arc<dyn FailureMechanism>],
        rows: u32,
        round: u64,
        elapsed_s: f64,
    ) -> Vec<BitFlip> {
        let owned = view_writes(rows, 4096);
        let refs: Vec<(RowId, &RowBits)> = owned.iter().map(|(r, d)| (*r, d)).collect();
        unit_stack_flips(mechanisms, &refs, 0, round, elapsed_s)
    }

    #[test]
    fn row_stream_matches_cell_hash_oracle() {
        let tags = [
            TAG_SUSCEPT,
            TAG_POLARITY,
            TAG_SIDE,
            TAG_AGGRESSOR,
            TAG_ONSET,
        ];
        let salts = [SALT_HAMMER, SALT_PRESS, SALT_DRIFT];
        let mut z = 0x0123_4567_89ab_cdefu64;
        let mut next = || {
            z = mix64(z);
            z
        };
        for _ in 0..2_000 {
            let (seed, salt, tag) = (
                next(),
                salts[next() as usize % 3],
                tags[next() as usize % 5],
            );
            let (bank, row, col) = (next() as u32, next() as u32, next() as u32);
            assert_eq!(
                RowStream::new(seed, salt, tag, bank, row).at(col),
                cell_hash(seed, salt, tag, bank, row, col),
                "seed {seed}, salt {salt:#x}, tag {tag}, bank {bank}, row {row}, col {col}"
            );
        }
    }

    #[test]
    fn hammer_triggers_past_threshold_only() {
        let hot: Arc<dyn FailureMechanism> = Arc::new(HammerMechanism {
            rate: 0.05,
            ..HammerMechanism::default()
        });
        // Both neighbors written once: 2 × 32k ≥ 50k fires.
        let fired = run_stack(&[Arc::clone(&hot)], 16, 1, 4.0);
        assert!(!fired.is_empty(), "hammer produced no flips past threshold");
        // A threshold no write count reaches never fires.
        let cold: Arc<dyn FailureMechanism> = Arc::new(HammerMechanism {
            rate: 0.05,
            thresh: u64::MAX,
            ..HammerMechanism::default()
        });
        assert!(run_stack(&[cold], 16, 1, 4.0).is_empty());
    }

    #[test]
    fn press_triggers_on_neighbor_open_time() {
        let hot: Arc<dyn FailureMechanism> = Arc::new(PressMechanism {
            rate: 0.05,
            ..PressMechanism::default()
        });
        assert!(!run_stack(&[hot], 16, 1, 4.0).is_empty());
        let cold: Arc<dyn FailureMechanism> = Arc::new(PressMechanism {
            rate: 0.05,
            thresh_ns: f64::MAX,
            ..PressMechanism::default()
        });
        assert!(run_stack(&[cold], 16, 1, 4.0).is_empty());
    }

    #[test]
    fn drift_population_grows_with_elapsed_time() {
        let drift: Arc<dyn FailureMechanism> = Arc::new(DriftMechanism {
            rate: 0.02,
            ..DriftMechanism::default()
        });
        let early = run_stack(&[Arc::clone(&drift)], 16, 1, 4.0).len();
        let late = run_stack(&[drift], 16, 100, 400.0).len();
        assert!(
            late > early,
            "drift population did not grow: {early} -> {late}"
        );
    }

    #[test]
    fn zero_rate_mechanisms_are_inert() {
        let stack: Vec<Arc<dyn FailureMechanism>> = vec![
            Arc::new(HammerMechanism {
                rate: 0.0,
                ..HammerMechanism::default()
            }),
            Arc::new(PressMechanism {
                rate: 0.0,
                ..PressMechanism::default()
            }),
            Arc::new(DriftMechanism {
                rate: 0.0,
                ..DriftMechanism::default()
            }),
        ];
        for mech in &stack {
            assert!(mech.is_inert());
            assert!(mech.truth(0, 0, 8192).is_empty());
        }
        assert!(run_stack(&stack, 16, 5, 20.0).is_empty());
    }

    #[test]
    fn flips_are_deterministic_and_content_dependent() {
        let mech: Arc<dyn FailureMechanism> = Arc::new(HammerMechanism {
            rate: 0.05,
            ..HammerMechanism::default()
        });
        let a = run_stack(&[Arc::clone(&mech)], 16, 1, 4.0);
        let b = run_stack(&[Arc::clone(&mech)], 16, 1, 4.0);
        assert_eq!(a, b);
        // Inverted content flips a different cell set.
        let owned = view_writes(16, 4096);
        let inverted: Vec<(RowId, RowBits)> = owned
            .iter()
            .map(|(r, d)| {
                let mut inv = d.clone();
                for i in 0..4096 {
                    inv.flip(i);
                }
                (*r, inv)
            })
            .collect();
        let refs: Vec<(RowId, &RowBits)> = inverted.iter().map(|(r, d)| (*r, d)).collect();
        let c = unit_stack_flips(&[mech], &refs, 0, 1, 4.0);
        assert_ne!(a, c, "hammer flips ignored row content");
    }

    #[test]
    fn truth_covers_every_emitted_flip() {
        let mech = HammerMechanism {
            rate: 0.05,
            ..HammerMechanism::default()
        };
        let arc: Arc<dyn FailureMechanism> = Arc::new(mech);
        let flips = run_stack(&[Arc::clone(&arc)], 16, 1, 4.0);
        assert!(!flips.is_empty());
        for f in flips {
            let truth = arc.truth(f.addr.bank, f.addr.row, 4096);
            assert!(truth.contains(&f.addr.col), "flip outside truth set");
        }
    }

    #[test]
    fn spec_grammar_round_trips() {
        let specs = MechanismSpec::parse_stack("hammer=thresh:50k,seed:7; press=thresh:25m ;drift")
            .unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(
            specs[0],
            MechanismSpec::Hammer {
                thresh: 50_000,
                acts: 32_000,
                rate: 1e-3,
                dist: 1,
                seed: 7,
            }
        );
        assert!(matches!(
            specs[1],
            MechanismSpec::Press { thresh_ns, .. } if thresh_ns == 25_000_000.0
        ));
        // Display emits the canonical grammar, which parses back identically.
        for spec in &specs {
            assert_eq!(&MechanismSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert!(MechanismSpec::parse_stack(" ; ").unwrap().is_empty());
    }

    #[test]
    fn spec_grammar_rejects_bad_input() {
        assert!(MechanismSpec::parse("warp").is_err());
        assert!(MechanismSpec::parse("hammer=thresh").is_err());
        assert!(MechanismSpec::parse("hammer=warp:1").is_err());
        assert!(MechanismSpec::parse("hammer=rate:1.5").is_err());
        assert!(MechanismSpec::parse("hammer=dist:0").is_err());
        assert!(MechanismSpec::parse("drift=period:0").is_err());
        assert!(MechanismSpec::parse("hammer=thresh:4x").is_err());
    }

    #[test]
    fn spec_serde_round_trips() {
        let specs = MechanismSpec::parse_stack("hammer;press;drift=rate:0.002").unwrap();
        let json = serde_json::to_string(&specs).unwrap();
        let back: Vec<MechanismSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, specs);
    }

    #[test]
    fn stack_dedups_across_mechanisms() {
        // Two copies of the same mechanism emit the same flips; the stack
        // must keep one copy of each.
        let mech: Arc<dyn FailureMechanism> = Arc::new(HammerMechanism {
            rate: 0.05,
            ..HammerMechanism::default()
        });
        let single = run_stack(&[Arc::clone(&mech)], 16, 1, 4.0);
        let doubled = run_stack(&[Arc::clone(&mech), mech], 16, 1, 4.0);
        assert_eq!(single, doubled);
    }

    #[test]
    fn port_stack_flips_cover_all_units() {
        let mech: Arc<dyn FailureMechanism> = Arc::new(HammerMechanism {
            rate: 0.05,
            ..HammerMechanism::default()
        });
        let mut writes = Vec::new();
        for unit in [1u32, 0] {
            for (row, data) in view_writes(16, 4096) {
                writes.push(RowWrite { unit, row, data });
            }
        }
        let flips = stack_flips(&[mech], &writes, 1, 4.0);
        assert!(!flips.is_empty());
        // Ascending unit order regardless of write order.
        let units: Vec<u32> = flips.iter().map(|f| f.unit).collect();
        let mut sorted = units.clone();
        sorted.sort_unstable();
        assert_eq!(units, sorted);
        assert!(flips.iter().any(|f| f.unit == 0));
        assert!(flips.iter().any(|f| f.unit == 1));
    }
}
