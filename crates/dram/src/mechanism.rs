//! The bitline-coupling failure model, gathered behind one struct.
//!
//! PARBOR's device model — seeded per-cell coupling profiles, scrambled
//! neighborhoods, retention-margin physics — used to live spread across
//! [`DramChip`](crate::DramChip)'s fields. [`CouplingMechanism`] gathers
//! that state (seed, scrambler + compiled LUT, fault rates, retention
//! model, derived margin shift) so the chip owns one base model and
//! composes the extra [`FailureMechanism`](parbor_hal::FailureMechanism)
//! stack on top of it.
//!
//! Coupling is evaluated only through the chip's cached fast path (fault
//! maps, compiled stencils); efficacy harnesses take its ground truth from
//! [`oracle_cells`] via
//! [`DramChip::oracle_data_dependent`](crate::DramChip::oracle_data_dependent).

use std::sync::Arc;

use parbor_hal::{DramError, KernelMode, RowId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use parbor_hal::ChipGeometry;

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
}
