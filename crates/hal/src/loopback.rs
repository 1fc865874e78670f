//! A perfect-memory backend: every read returns exactly what was written.
//!
//! [`LoopbackPort`] is the trivial [`TestPort`]: it validates and stores row
//! writes, never flips a bit, and counts rounds. It exists for tests and
//! doctests that need a real port without the device model.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bits::RowBits;
use crate::error::DramError;
use crate::geometry::{ChipGeometry, RowId};
use crate::port::{Flip, RowWrite, TestPort};

/// A [`TestPort`] over perfect memory: writes are stored, reads never flip.
///
/// # Examples
///
/// ```
/// use parbor_hal::{ChipGeometry, LoopbackPort, RowBits, RowId, RowWrite, TestPort};
///
/// # fn main() -> Result<(), parbor_hal::DramError> {
/// let mut port = LoopbackPort::new(ChipGeometry::tiny(), 1);
/// let flips = port.run_round(vec![RowWrite {
///     unit: 0,
///     row: RowId::new(0, 0),
///     data: RowBits::ones(1024).into(),
/// }])?;
/// assert!(flips.is_empty());
/// assert_eq!(port.rounds_run(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LoopbackPort {
    geometry: ChipGeometry,
    units: u32,
    rows: HashMap<(u32, RowId), Arc<RowBits>>,
    rounds: u64,
}

impl LoopbackPort {
    /// Creates a loopback port with `units` independent units of `geometry`.
    pub fn new(geometry: ChipGeometry, units: u32) -> Self {
        LoopbackPort {
            geometry,
            units: units.max(1),
            rows: HashMap::new(),
            rounds: 0,
        }
    }

    /// The last image written to `(unit, row)`, if any.
    pub fn row(&self, unit: u32, row: RowId) -> Option<&RowBits> {
        self.rows.get(&(unit, row)).map(Arc::as_ref)
    }

    fn check(&self, w: &RowWrite) -> Result<(), DramError> {
        if w.unit >= self.units {
            return Err(DramError::AddressOutOfRange {
                what: format!("unit {}", w.unit),
                limit: format!("{} units", self.units),
            });
        }
        self.geometry.check_row(w.row)?;
        if w.data.len() != self.geometry.cols_per_row as usize {
            return Err(DramError::WidthMismatch {
                got: w.data.len(),
                expected: self.geometry.cols_per_row as usize,
            });
        }
        Ok(())
    }
}

impl TestPort for LoopbackPort {
    fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    fn units(&self) -> u32 {
        self.units
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        for w in &writes {
            self.check(w)?;
        }
        for w in writes {
            self.rows.insert((w.unit, w.row), w.data);
        }
        self.rounds += 1;
        Ok(Vec::new())
    }

    fn rounds_run(&self) -> u64 {
        self.rounds
    }

    fn fast_forward(&mut self, rounds: u64) {
        self.rounds += rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(unit: u32, row: u32) -> RowWrite {
        RowWrite {
            unit,
            row: RowId::new(0, row),
            data: RowBits::zeros(1024).into(),
        }
    }

    #[test]
    fn stores_rows_and_never_flips() {
        let mut port = LoopbackPort::new(ChipGeometry::tiny(), 2);
        assert!(port
            .run_round(vec![write(0, 1), write(1, 2)])
            .unwrap()
            .is_empty());
        assert!(port.row(0, RowId::new(0, 1)).is_some());
        assert!(port.row(1, RowId::new(0, 1)).is_none());
        assert_eq!(port.rounds_run(), 1);
    }

    #[test]
    fn rejects_bad_addresses_and_widths() {
        let mut port = LoopbackPort::new(ChipGeometry::tiny(), 1);
        assert!(port.run_round(vec![write(1, 0)]).is_err());
        assert!(port
            .run_round(vec![RowWrite {
                unit: 0,
                row: RowId::new(0, 99),
                data: RowBits::zeros(1024).into(),
            }])
            .is_err());
        assert!(port
            .run_round(vec![RowWrite {
                unit: 0,
                row: RowId::new(0, 0),
                data: RowBits::zeros(64).into(),
            }])
            .is_err());
        // Failed rounds don't advance the clock.
        assert_eq!(port.rounds_run(), 0);
    }
}
