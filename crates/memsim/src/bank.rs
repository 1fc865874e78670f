//! Bank state: the open row and timing availability.

use serde::{Deserialize, Serialize};

use crate::timing::DramTiming;

/// What a bank is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankState {
    /// All rows closed.
    Precharged,
    /// A row is latched in the row buffer.
    Open(u32),
}

/// One DRAM bank: open-row tracking plus the cycle it next becomes ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bank {
    state: BankState,
    ready_at: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            state: BankState::Precharged,
            ready_at: 0,
        }
    }
}

impl Bank {
    /// Creates a precharged, idle bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// Whether an access to `row` would hit the row buffer.
    pub fn is_hit(&self, row: u32) -> bool {
        self.state == BankState::Open(row)
    }

    /// The first cycle at which the bank can accept a command.
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    /// Services an access to `row` starting at `start`, returning the cycle
    /// the data burst completes. Updates the open row and readiness.
    pub fn service(&mut self, row: u32, start: u64, timing: &DramTiming) -> u64 {
        let latency = match self.state {
            BankState::Open(open) if open == row => timing.hit_latency(),
            BankState::Open(_) => timing.miss_latency(),
            BankState::Precharged => timing.t_rcd + timing.t_cl + timing.t_burst,
        };
        let done = start + latency;
        self.state = BankState::Open(row);
        // The bank can take its next column command after tCCD, or a
        // precharge-bound command once the access completes.
        self.ready_at = start + timing.t_ccd.max(latency - timing.t_burst);
        done
    }

    /// Blocks the bank until `until` (refresh), closing the row buffer.
    pub fn block_until(&mut self, until: u64) {
        self.state = BankState::Precharged;
        self.ready_at = self.ready_at.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{Density, DramTiming};

    fn t() -> DramTiming {
        DramTiming::ddr3_1600(Density::Gb16)
    }

    #[test]
    fn first_access_opens_row() {
        let mut b = Bank::new();
        let done = b.service(5, 100, &t());
        assert_eq!(done, 100 + 11 + 11 + 4);
        assert_eq!(b.state(), BankState::Open(5));
    }

    #[test]
    fn hit_is_faster_than_miss() {
        let timing = t();
        let mut b = Bank::new();
        b.service(5, 0, &timing);
        let hit = b.service(5, 1000, &timing) - 1000;
        let miss = b.service(9, 2000, &timing) - 2000;
        assert!(hit < miss);
        assert_eq!(hit, timing.hit_latency());
        assert_eq!(miss, timing.miss_latency());
    }

    #[test]
    fn refresh_blocks_and_closes() {
        let mut b = Bank::new();
        b.service(5, 0, &t());
        b.block_until(500);
        assert_eq!(b.ready_at(), 500);
        assert_eq!(b.state(), BankState::Precharged);
        assert!(!b.is_hit(5));
    }
}
