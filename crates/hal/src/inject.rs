//! A fault-injecting port decorator: the paper's "random failure" adversary.
//!
//! PARBOR's filtering stage exists to separate true data-dependent coupling
//! failures from the random and intermittent failures every real module also
//! exhibits (variable retention time, marginal cells, disturbances the test
//! pattern didn't cause). [`FaultInjectingPort`] layers exactly those
//! nuisance failures over any inner [`TestPort`], so the filter can be
//! tested against the adversary it was designed for:
//!
//! * **Random flips** — each written row flips an independently drawn
//!   uniform column with probability `rate` per round. Uncorrelated with row
//!   content or neighbors, so a correct filter must reject them.
//! * **Intermittent flips** — each written row has one fixed, seed-derived
//!   "weak column" that flips with probability `intermittent` per round.
//!   This models a marginal cell that fails *repeatedly at the same address*
//!   regardless of data — the harder case, because repetition mimics a real
//!   coupling victim until the distance filter notices the failure does not
//!   track neighbor content.
//!
//! Injection is fully deterministic in `(seed, round index, unit, row)`: the
//! per-write RNG is derived from those coordinates alone, so results are
//! independent of batching, chip scheduling, and resume points
//! (`fast_forward` keeps the schedule aligned).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::RoundPlan;
use crate::error::DramError;
use crate::geometry::{BitAddr, ChipGeometry};
use crate::hash::hash_words;
use crate::port::{BitFlip, Flip, KernelMode, ParallelMode, RowWrite, TestPort};

/// Domain-separation salts so the random draw, the weak-column choice, and
/// the intermittent draw never share an RNG stream.
const SALT_ROUND: u64 = 0x5261_6e64_0000_0001;
const SALT_WEAK_COL: u64 = 0x5765_616b_0000_0002;

/// Parameters for [`FaultInjectingPort`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionConfig {
    /// Per-written-row probability of one random uniform-column flip per
    /// round. Must be in `[0, 1]`.
    pub rate: f64,
    /// Seed for the injection schedule; same seed, same flips.
    pub seed: u64,
    /// Per-written-row probability that the row's fixed weak column flips in
    /// a round. Must be in `[0, 1]`; defaults to `rate / 2`.
    pub intermittent: f64,
}

impl InjectionConfig {
    /// Creates a config with the default intermittent rate (`rate / 2`).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if `rate` is outside `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Result<Self, DramError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(DramError::InvalidConfig(format!(
                "injection rate must be in [0, 1], got {rate}"
            )));
        }
        Ok(InjectionConfig {
            rate,
            seed,
            intermittent: rate / 2.0,
        })
    }

    /// Parses the CLI flag syntax: `rate=<p>,seed=<s>[,intermittent=<q>]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use parbor_hal::InjectionConfig;
    ///
    /// let cfg = InjectionConfig::parse("rate=0.01,seed=7").unwrap();
    /// assert_eq!(cfg.rate, 0.01);
    /// assert_eq!(cfg.seed, 7);
    /// assert_eq!(cfg.intermittent, 0.005);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] on unknown keys, missing `rate`
    /// or `seed`, or out-of-range probabilities.
    pub fn parse(s: &str) -> Result<Self, DramError> {
        let bad = |msg: String| DramError::InvalidConfig(msg);
        let mut rate = None;
        let mut seed = None;
        let mut intermittent = None;
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("injection spec part {part:?} is not key=value")))?;
            match key.trim() {
                "rate" => {
                    rate = Some(value.trim().parse::<f64>().map_err(|e| {
                        bad(format!("injection rate {value:?} is not a number: {e}"))
                    })?);
                }
                "seed" => {
                    seed =
                        Some(value.trim().parse::<u64>().map_err(|e| {
                            bad(format!("injection seed {value:?} is not a u64: {e}"))
                        })?);
                }
                "intermittent" => {
                    intermittent = Some(value.trim().parse::<f64>().map_err(|e| {
                        bad(format!("intermittent rate {value:?} is not a number: {e}"))
                    })?);
                }
                other => {
                    return Err(bad(format!(
                        "unknown injection key {other:?} (expected rate|seed|intermittent)"
                    )));
                }
            }
        }
        let rate = rate.ok_or_else(|| bad("injection spec is missing rate=<p>".into()))?;
        let seed = seed.ok_or_else(|| bad("injection spec is missing seed=<s>".into()))?;
        let mut cfg = InjectionConfig::new(rate, seed)?;
        if let Some(q) = intermittent {
            if !(0.0..=1.0).contains(&q) {
                return Err(bad(format!("intermittent rate must be in [0, 1], got {q}")));
            }
            cfg.intermittent = q;
        }
        Ok(cfg)
    }
}

/// A [`TestPort`] decorator that injects random and intermittent bit flips
/// over an inner port. See the module docs for the failure model.
///
/// # Examples
///
/// ```
/// use parbor_hal::{
///     ChipGeometry, FaultInjectingPort, InjectionConfig, LoopbackPort, RowBits, RowId,
///     RowWrite, TestPort,
/// };
///
/// # fn main() -> Result<(), parbor_hal::DramError> {
/// let inner = LoopbackPort::new(ChipGeometry::tiny(), 1);
/// let cfg = InjectionConfig::new(1.0, 42)?; // flip something every round
/// let mut port = FaultInjectingPort::new(inner, cfg);
/// let flips = port.run_round(vec![RowWrite {
///     unit: 0,
///     row: RowId::new(0, 0),
///     data: RowBits::zeros(1024),
/// }])?;
/// assert!(!flips.is_empty());
/// assert_eq!(port.injected_flips(), flips.len() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjectingPort<P> {
    inner: P,
    config: InjectionConfig,
    injected: u64,
}

impl<P: TestPort> FaultInjectingPort<P> {
    /// Wraps `inner`, injecting faults per `config`.
    pub fn new(inner: P, config: InjectionConfig) -> Self {
        FaultInjectingPort {
            inner,
            config,
            injected: 0,
        }
    }

    /// Total flips this decorator has injected (after deduplication against
    /// the inner port's genuine flips).
    pub fn injected_flips(&self) -> u64 {
        self.injected
    }

    /// The wrapped port.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the decorator, returning the wrapped port.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The injections for one round, computed from the writes *before* they
    /// move into the inner port (the injected `expected` value is the bit
    /// that was written).
    fn injections_for(&self, round: u64, writes: &[RowWrite]) -> Vec<Flip> {
        let cols = self.inner.geometry().cols_per_row as u64;
        let mut out = Vec::new();
        for w in writes {
            let coords = [
                u64::from(w.unit),
                u64::from(w.row.bank),
                u64::from(w.row.row),
            ];
            let mut rng = StdRng::seed_from_u64(hash_words(&[
                self.config.seed ^ SALT_ROUND,
                round,
                coords[0],
                coords[1],
                coords[2],
            ]));
            // Fixed draw order (random first, then intermittent) keeps the
            // schedule stable as rates change independently.
            let random_col = if self.config.rate > 0.0 && rng.gen_bool(self.config.rate) {
                Some(rng.gen_range(0..cols) as u32)
            } else {
                None
            };
            let weak_col = (hash_words(&[
                self.config.seed ^ SALT_WEAK_COL,
                coords[0],
                coords[1],
                coords[2],
            ]) % cols) as u32;
            let intermittent_col =
                if self.config.intermittent > 0.0 && rng.gen_bool(self.config.intermittent) {
                    Some(weak_col)
                } else {
                    None
                };
            for col in [random_col, intermittent_col].into_iter().flatten() {
                let idx = col as usize;
                if idx >= w.data.len() {
                    continue;
                }
                let flip = Flip {
                    unit: w.unit,
                    flip: BitFlip {
                        addr: BitAddr::new(w.row.bank, w.row.row, col),
                        expected: w.data.get(idx),
                    },
                };
                if !out.contains(&flip) {
                    out.push(flip);
                }
            }
        }
        out
    }

    /// Merges genuine flips (first) with injected ones, dropping injected
    /// flips that duplicate a genuine failure at the same bit.
    fn merge(&mut self, genuine: Vec<Flip>, injected: Vec<Flip>) -> Vec<Flip> {
        let mut out = genuine;
        for flip in injected {
            if !out
                .iter()
                .any(|g| g.unit == flip.unit && g.flip.addr == flip.flip.addr)
            {
                out.push(flip);
                self.injected += 1;
            }
        }
        out
    }
}

impl<P: TestPort> TestPort for FaultInjectingPort<P> {
    fn geometry(&self) -> ChipGeometry {
        self.inner.geometry()
    }

    fn units(&self) -> u32 {
        self.inner.units()
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        let round = self.inner.rounds_run();
        let injected = self.injections_for(round, &writes);
        let genuine = self.inner.run_round(writes)?;
        Ok(self.merge(genuine, injected))
    }

    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        // Injection is indexed off the inner round clock *before* the batch,
        // so a batched run injects exactly what the serial loop would.
        let base = self.inner.rounds_run();
        let injected: Vec<Vec<Flip>> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| self.injections_for(base + i as u64, plan.writes()))
            .collect();
        let genuine = self.inner.run_rounds(plans)?;
        Ok(genuine
            .into_iter()
            .zip(injected)
            .map(|(g, inj)| self.merge(g, inj))
            .collect())
    }

    fn rounds_run(&self) -> u64 {
        self.inner.rounds_run()
    }

    fn fast_forward(&mut self, rounds: u64) {
        self.inner.fast_forward(rounds);
    }

    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.inner.set_parallel_mode(mode);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.inner.set_kernel_mode(mode);
    }

    fn set_recorder(&mut self, rec: parbor_obs::RecorderHandle) {
        self.inner.set_recorder(rec);
    }

    fn set_arena(&mut self, arena: crate::arena::RoundArena) {
        self.inner.set_arena(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::RowBits;
    use crate::geometry::RowId;
    use crate::loopback::LoopbackPort;

    fn writes(rows: u32) -> Vec<RowWrite> {
        (0..rows)
            .map(|r| RowWrite {
                unit: 0,
                row: RowId::new(0, r),
                data: RowBits::zeros(1024),
            })
            .collect()
    }

    fn port(rate: f64, seed: u64) -> FaultInjectingPort<LoopbackPort> {
        FaultInjectingPort::new(
            LoopbackPort::new(ChipGeometry::tiny(), 1),
            InjectionConfig::new(rate, seed).unwrap(),
        )
    }

    #[test]
    fn parse_accepts_full_and_minimal_specs() {
        let cfg = InjectionConfig::parse("rate=0.25,seed=9,intermittent=0.5").unwrap();
        assert_eq!((cfg.rate, cfg.seed, cfg.intermittent), (0.25, 9, 0.5));
        assert!(InjectionConfig::parse("rate=0.25").is_err());
        assert!(InjectionConfig::parse("seed=9").is_err());
        assert!(InjectionConfig::parse("rate=2.0,seed=1").is_err());
        assert!(InjectionConfig::parse("rate=0.1,seed=1,color=red").is_err());
        assert!(InjectionConfig::parse("garbage").is_err());
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut port = port(0.0, 1);
        for _ in 0..32 {
            assert!(port.run_round(writes(8)).unwrap().is_empty());
        }
        assert_eq!(port.injected_flips(), 0);
    }

    #[test]
    fn same_seed_same_flips_different_seed_different_flips() {
        let run = |seed: u64| -> Vec<Vec<Flip>> {
            let mut port = port(0.5, seed);
            (0..16)
                .map(|_| port.run_round(writes(8)).unwrap())
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn batched_and_serial_injection_agree() {
        let plans: Vec<RoundPlan> = (0..12).map(|_| RoundPlan::from_writes(writes(8))).collect();
        let mut batched = port(0.5, 3);
        let got_batched = batched.run_rounds(plans.clone()).unwrap();
        let mut serial = port(0.5, 3);
        let got_serial: Vec<Vec<Flip>> = plans
            .into_iter()
            .map(|p| serial.run_round(p.into_writes()).unwrap())
            .collect();
        assert_eq!(got_batched, got_serial);
    }

    #[test]
    fn fast_forward_keeps_the_schedule_aligned() {
        let mut full = port(0.5, 11);
        let mut all = Vec::new();
        for _ in 0..10 {
            all.push(full.run_round(writes(4)).unwrap());
        }
        let mut resumed = port(0.5, 11);
        resumed.fast_forward(6);
        for expected in &all[6..] {
            assert_eq!(&resumed.run_round(writes(4)).unwrap(), expected);
        }
    }

    #[test]
    fn intermittent_flips_hit_one_fixed_column_per_row() {
        let mut cfg = InjectionConfig::new(0.0, 5).unwrap();
        cfg.intermittent = 1.0; // the weak column fires every round
        let mut port = FaultInjectingPort::new(LoopbackPort::new(ChipGeometry::tiny(), 1), cfg);
        let mut cols = std::collections::HashSet::new();
        for _ in 0..8 {
            for flip in port.run_round(writes(1)).unwrap() {
                cols.insert(flip.flip.addr.col);
            }
        }
        assert_eq!(cols.len(), 1);
    }

    #[test]
    fn expected_value_is_the_written_bit() {
        let mut port = port(1.0, 2);
        let flips = port
            .run_round(vec![RowWrite {
                unit: 0,
                row: RowId::new(0, 0),
                data: RowBits::ones(1024),
            }])
            .unwrap();
        assert!(!flips.is_empty());
        assert!(flips.iter().all(|f| f.flip.expected));
    }
}
