//! The bitline-coupling failure model as a composable [`FailureMechanism`].
//!
//! PARBOR's device model — seeded per-cell coupling profiles, scrambled
//! neighborhoods, retention-margin physics — used to live spread across
//! [`DramChip`](crate::DramChip)'s fields. [`CouplingMechanism`] gathers
//! that state (seed, scrambler + compiled LUT, fault rates, retention
//! model, derived margin shift) behind one struct so the chip composes it
//! like any other mechanism, and so efficacy harnesses can ask it the same
//! questions they ask a [`HammerMechanism`](parbor_hal::HammerMechanism):
//! "what flips do you emit?" and "which cells *can* you fail?".
//!
//! The chip still evaluates coupling through its own cached fast path
//! (fault maps, compiled stencils) — the trait's
//! [`flips`](FailureMechanism::flips) here is the uncached reference route,
//! used by harnesses that evaluate mechanisms standalone. Both routes build
//! the same [`RowFaultMap`], so they agree bit for bit.

use std::sync::Arc;

use parbor_hal::{BitAddr, BitFlip, DramError, FailureMechanism, KernelMode, RowId, RowView};

use crate::cell::{CellClass, FaultKind, FaultRates, RowFaultMap};
use crate::config::{Celsius, Seconds};
use crate::retention::RetentionModel;
use crate::scrambler::{Scrambler, ScramblerLut};
use crate::stencil::CouplingStencil;

/// The paper's data-dependent failure model, packaged as one mechanism.
///
/// Owns everything coupling evaluation needs and nothing else: the fault
/// seed, the vendor scrambler (plus the LUT it compiles to), the fault-rate
/// knobs, the retention model, and the margin shift derived from operating
/// conditions. Fault maps are pure in `(seed, row, scrambler, rates,
/// retention)`; the margin shift folds temperature and refresh interval in
/// at evaluation time.
#[derive(Debug, Clone)]
pub struct CouplingMechanism {
    seed: u64,
    scrambler: Arc<dyn Scrambler>,
    // The scrambler compiled into dense tables at construction; the stencil
    // (shipped) kernel builds fault maps through it, the reference kernel
    // keeps the arithmetic path as the measurement baseline.
    lut: Arc<ScramblerLut>,
    rates: FaultRates,
    retention: RetentionModel,
    theta_shift: f64,
}

impl CouplingMechanism {
    /// Builds the mechanism, validating the rates and deriving the margin
    /// shift from the operating conditions.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the rates are invalid.
    pub fn new(
        seed: u64,
        scrambler: Arc<dyn Scrambler>,
        rates: FaultRates,
        retention: RetentionModel,
        temperature: Celsius,
        refresh_interval: Seconds,
    ) -> Result<Self, DramError> {
        rates.validate()?;
        let lut = Arc::new(ScramblerLut::build(&*scrambler));
        let theta_shift = theta_shift_for(&retention, temperature, refresh_interval);
        Ok(CouplingMechanism {
            seed,
            scrambler,
            lut,
            rates,
            retention,
            theta_shift,
        })
    }

    /// The fault seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The vendor scrambler (shared, read-only).
    pub fn scrambler(&self) -> &Arc<dyn Scrambler> {
        &self.scrambler
    }

    /// The scrambler compiled into dense lookup tables at construction.
    pub fn lut(&self) -> &Arc<ScramblerLut> {
        &self.lut
    }

    /// The fault-rate knobs.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// The retention model.
    pub fn retention(&self) -> &RetentionModel {
        &self.retention
    }

    /// Current effective margin shift (`κ · log2(stress factor)`).
    pub fn theta_shift(&self) -> f64 {
        self.theta_shift
    }

    /// Re-derives the margin shift for new operating conditions. Fault maps
    /// are shift-independent and stay valid; anything compiled against the
    /// shift (stencils) must be invalidated by the caller.
    pub fn set_conditions(&mut self, temperature: Celsius, refresh_interval: Seconds) {
        self.theta_shift = theta_shift_for(&self.retention, temperature, refresh_interval);
    }

    /// Builds a row's fault map with the sampler matching the kernel mode.
    /// Pure (`&self`): safe to run for many rows on concurrent threads.
    ///
    /// The stencil (shipped) path translates through the compiled LUT —
    /// indexed loads instead of the div/mod chains — while the reference
    /// path keeps the arithmetic scrambler as the measurement baseline.
    /// Both produce identical maps: the LUT's tables are filled from the
    /// same scrambler.
    pub fn build_fault_map(&self, row: RowId, kernel: KernelMode) -> RowFaultMap {
        match kernel {
            KernelMode::Stencil => {
                RowFaultMap::build(self.seed, row, &*self.lut, &self.rates, &self.retention)
            }
            KernelMode::Reference => RowFaultMap::build_reference(
                self.seed,
                row,
                &*self.scrambler,
                &self.rates,
                &self.retention,
            ),
        }
    }

    /// Compiles a fresh [`CouplingStencil`] for a row at the current margin
    /// shift, bypassing any caches.
    pub fn compile_stencil(&self, row: RowId) -> CouplingStencil {
        let map = RowFaultMap::build(self.seed, row, &*self.lut, &self.rates, &self.retention);
        CouplingStencil::compile(&map, self.theta_shift)
    }
}

/// The margin shift operating conditions induce: `κ · log2(stress factor)`.
fn theta_shift_for(
    retention: &RetentionModel,
    temperature: Celsius,
    refresh_interval: Seconds,
) -> f64 {
    retention.kappa
        * retention
            .stress_factor(refresh_interval, temperature)
            .log2()
}

/// Ground-truth oracle for one fault map: every data-dependent cell with
/// its class at margin shift `theta_shift`. For validation and coverage
/// accounting only — PARBOR itself never calls this.
pub fn oracle_cells(map: &RowFaultMap, theta_shift: f64) -> Vec<(u32, CellClass)> {
    map.entries
        .iter()
        .filter_map(|e| match &e.kind {
            FaultKind::Coupling(p) => {
                let c = p.classify(theta_shift);
                c.is_data_dependent().then_some((e.sys, c))
            }
            _ => None,
        })
        .collect()
}

impl FailureMechanism for CouplingMechanism {
    fn name(&self) -> &'static str {
        "coupling"
    }

    /// The uncached reference route: build the row's fault map and evaluate
    /// the coupling population against the row content. Deliberately limited
    /// to the *data-dependent* kinds — marginal, VRT, and soft-noise draws
    /// key on a round clock this standalone view does not model.
    fn flips(&self, view: &RowView<'_>) -> Vec<BitFlip> {
        let map = self.build_fault_map(view.row, KernelMode::Stencil);
        let coupled = map.coupling_fail_indices(view.data, self.theta_shift);
        let mut flips = Vec::with_capacity(coupled.len());
        let mut ci = 0usize;
        for (idx, e) in map.entries.iter().enumerate() {
            if !matches!(e.kind, FaultKind::Coupling(_)) {
                continue;
            }
            if coupled.get(ci) == Some(&(idx as u32)) {
                ci += 1;
                flips.push(BitFlip {
                    addr: BitAddr::new(view.row.bank, view.row.row, e.sys),
                    expected: view.data.get(e.sys as usize),
                });
            }
        }
        flips
    }

    /// Every coupling cell that can fail at the current margin shift under
    /// *some* content — the data-dependent classes plus retention-weak cells
    /// (which fail whenever charged). A superset of
    /// [`oracle_cells`], which keeps only the data-dependent classes.
    fn truth(&self, bank: u32, row: u32, _cols: u32) -> Vec<u32> {
        let map = self.build_fault_map(RowId::new(bank, row), KernelMode::Stencil);
        map.entries
            .iter()
            .filter_map(|e| match &e.kind {
                FaultKind::Coupling(p) => {
                    (p.classify(self.theta_shift) != CellClass::Robust).then_some(e.sys)
                }
                _ => None,
            })
            .collect()
    }

    fn is_inert(&self) -> bool {
        self.rates.interesting <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use crate::vendor::Vendor;
    use parbor_hal::{ChipGeometry, RowBits};

    fn mech(seed: u64) -> CouplingMechanism {
        let geometry = ChipGeometry::new(1, 16, 8192).unwrap();
        CouplingMechanism::new(
            seed,
            Vendor::A.scrambler(geometry.cols_per_row as usize),
            Vendor::A.default_rates(),
            RetentionModel::default(),
            Celsius(45.0),
            Seconds(4.0),
        )
        .unwrap()
    }

    fn view<'a>(row: RowId, data: &'a RowBits) -> RowView<'a> {
        RowView {
            unit: 0,
            row,
            data,
            activations: 1,
            open_ns: 0.0,
            round: 0,
            elapsed_s: 4.0,
            left: None,
            right: None,
        }
    }

    #[test]
    fn standalone_flips_match_fault_map_eval() {
        let m = mech(11);
        let mut seen = 0usize;
        for r in 0..16u32 {
            let row = RowId::new(0, r);
            let data = PatternKind::ColStripe { period: 1 }.row_bits(r, 8192);
            let flips = m.flips(&view(row, &data));
            let map = m.build_fault_map(row, KernelMode::Stencil);
            let direct = map.coupling_fail_indices(&data, m.theta_shift());
            assert_eq!(flips.len(), direct.len(), "row {r}");
            seen += flips.len();
        }
        assert!(seen > 0, "no coupling flips across 16 striped rows");
    }

    #[test]
    fn truth_contains_every_emitted_flip() {
        let m = mech(7);
        for r in 0..8u32 {
            let row = RowId::new(0, r);
            let data = PatternKind::ColStripe { period: 1 }.row_bits(r, 8192);
            let truth: std::collections::HashSet<u32> = m.truth(0, r, 8192).into_iter().collect();
            for f in m.flips(&view(row, &data)) {
                assert!(
                    truth.contains(&f.addr.col),
                    "flip at col {} outside truth set",
                    f.addr.col
                );
            }
        }
    }

    #[test]
    fn kernel_modes_build_identical_maps() {
        let m = mech(3);
        for r in 0..4u32 {
            let row = RowId::new(0, r);
            assert_eq!(
                m.build_fault_map(row, KernelMode::Stencil),
                m.build_fault_map(row, KernelMode::Reference)
            );
        }
    }

    #[test]
    fn conditions_move_the_margin_shift() {
        let mut m = mech(5);
        let base = m.theta_shift();
        m.set_conditions(Celsius(75.0), Seconds(4.0));
        assert!(m.theta_shift() > base, "hotter must raise the shift");
    }

    #[test]
    fn inert_only_at_zero_interesting_rate() {
        let m = mech(1);
        assert!(!m.is_inert());
        let zero = CouplingMechanism::new(
            1,
            Vendor::A.scrambler(8192),
            FaultRates {
                interesting: 0.0,
                ..Vendor::A.default_rates()
            },
            RetentionModel::default(),
            Celsius(45.0),
            Seconds(4.0),
        )
        .unwrap();
        assert!(zero.is_inert());
    }
}
