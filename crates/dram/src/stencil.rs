//! The compiled, word-parallel coupling kernel.
//!
//! [`RowFaultMap::coupling_fail_indices`] walks every coupling entry with
//! per-bit `RowBits::get` calls, an `Option` branch per neighbor, and a float
//! accumulation per victim — all of it re-derived on every evaluation even
//! though the fault map and margin shift are fixed across thousands of reads.
//! [`CouplingStencil`] moves that work to compile time:
//!
//! * **Gather planes.** Each victim is one *bit lane* (64 victims per `u64`
//!   word). Its victim, left and right system columns sit side by side; the
//!   polarities and neighbor existence are packed into per-word planes.
//!   Evaluation gathers three data bits per victim straight from the row's
//!   words (an absent neighbor gathers column 0, which its existence bit
//!   then discards) and resolves charge state, neighbor opposition, and
//!   neighbor existence with pure AND/XOR word operations — no branches, no
//!   `Option`s, no floats.
//! * **Threshold buckets.** For each victim there are only four possible
//!   immediate-neighbor outcomes (left/right opposite or not) and at most
//!   `window.len() + 1` possible window counts. The compiler evaluates the
//!   *exact* scalar interference expression for every such combination once
//!   and stores the verdicts as bitmasks: an `all_fail` plane per combo
//!   (victim fails at any window count — no window gather needed), a
//!   `window_need` plane per combo (outcome depends on the count), and a
//!   per-victim per-combo mask with bit *c* set iff a count of exactly *c*
//!   opposite window cells fails. Evaluation classifies 64 victims per word
//!   and only touches window cells for the (rare) `window_need` lanes.
//!
//! Because every threshold is derived by running the identical float
//! expression the scalar kernel would run — same accumulation order, same
//! `max`/division semantics, including edge cases like empty or truncated
//! windows — the stencil's output is bit-identical to the reference kernel
//! for every possible row content, not just statistically equivalent. That
//! equivalence is pinned by unit tests here and proptests in the suite.

use parbor_hal::RowBits;

use crate::cell::{FaultKind, RowFaultMap};

/// High bit of a packed window reference marks an anti-cell.
const WINDOW_ANTI: u32 = 1 << 31;

/// A fault map's coupling entries compiled against a fixed margin shift.
///
/// Built once per `(row fault map, theta_shift)` by
/// [`CouplingStencil::compile`] and evaluated against arbitrary row contents
/// with [`CouplingStencil::eval`], which returns exactly what
/// [`RowFaultMap::coupling_fail_indices`] would. See the module docs for the
/// plane layout. Four allocations hold it all: the gather columns, the
/// per-lane verdicts, the per-word planes and the window cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingStencil {
    /// Per lane, the system columns gathered for it: victim, left and right
    /// neighbor (0 for an absent neighbor).
    gather: Vec<[u32; 3]>,
    /// Per lane, ascending in entry order: what the word planes leave open.
    lanes: Vec<Lane>,
    /// Per 64 lanes: polarity, existence and verdict planes.
    words: Vec<LaneWord>,
    /// Packed window cells of every lane: low 31 bits system column, high
    /// bit anti flag.
    window_refs: Vec<u32>,
    /// One past the highest column the stencil reads: the shortest row
    /// image it can evaluate.
    min_width: usize,
}

/// One coupling entry's lane, beyond its gather columns.
#[derive(Debug, Clone, PartialEq)]
struct Lane {
    /// Index of the entry in the fault map.
    entry: u32,
    /// The lane's cells in `window_refs`.
    window: (u32, u32),
    /// Per neighbor combo: bit `c` set iff exactly `c` opposite window
    /// cells fail the victim. Windows hold at most 62 cells
    /// (`window_radius ≤ 32`, enforced by `FaultRates::validate`).
    count_fail: [u64; 4],
}

/// The bit planes of 64 lanes (bit `k` is lane `64·w + k`).
#[derive(Debug, Clone, PartialEq, Default)]
struct LaneWord {
    /// Victim polarity (bit set = anti-cell).
    victim_anti: u64,
    /// Left-neighbor polarity.
    left_anti: u64,
    /// Left-neighbor existence.
    left_exists: u64,
    /// Right-neighbor polarity.
    right_anti: u64,
    /// Right-neighbor existence.
    right_exists: u64,
    /// Per neighbor combo (bit 0 = left opposite, bit 1 = right opposite):
    /// lanes that fail regardless of the window count.
    all_fail: [u64; 4],
    /// Per combo: lanes whose outcome depends on the window count.
    window_need: [u64; 4],
}

impl CouplingStencil {
    /// Compiles the map's coupling entries against a fixed margin shift.
    ///
    /// Cost is proportional to the number of coupling entries (typically a
    /// few per row), so compiling piggybacks cheaply on fault-map builds.
    pub fn compile(map: &RowFaultMap, theta_shift: f64) -> CouplingStencil {
        let slots = map
            .entries
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Coupling(_)))
            .count();
        let mut st = CouplingStencil {
            gather: Vec::with_capacity(slots),
            lanes: Vec::with_capacity(slots),
            words: vec![LaneWord::default(); slots.div_ceil(64)],
            window_refs: Vec::new(),
            min_width: 0,
        };
        for (idx, e) in map.entries.iter().enumerate() {
            let FaultKind::Coupling(p) = &e.kind else {
                continue;
            };
            let slot = st.lanes.len();
            let (word, bit) = (&mut st.words[slot / 64], 1u64 << (slot % 64));
            if e.anti {
                word.victim_anti |= bit;
            }
            if let Some(l) = &p.left {
                word.left_exists |= bit;
                if l.anti {
                    word.left_anti |= bit;
                }
            }
            if let Some(r) = &p.right {
                word.right_exists |= bit;
                if r.anti {
                    word.right_anti |= bit;
                }
            }
            st.gather.push([
                e.sys,
                p.left.map_or(0, |l| l.sys),
                p.right.map_or(0, |r| r.sys),
            ]);
            let start = st.window_refs.len() as u32;
            for c in &p.window {
                debug_assert_eq!(c.sys & WINDOW_ANTI, 0, "system column overflows packing");
                st.window_refs
                    .push(c.sys | if c.anti { WINDOW_ANTI } else { 0 });
            }

            // Threshold buckets: run the exact scalar expression for every
            // reachable (neighbor combo, window count) pair. A combo with an
            // absent neighbor can never be selected at eval time (the
            // existence mask zeroes its opposition bit), so its verdicts are
            // computed but never consulted.
            let theta = p.theta_ref - theta_shift;
            let wlen = p.window.len();
            debug_assert!(wlen < 64, "window too wide for count mask");
            let mut masks = [0u64; 4];
            for (combo, mask) in masks.iter_mut().enumerate() {
                let mut base = 0.0;
                if p.left.is_some() && combo & 1 != 0 {
                    base += p.w_left;
                }
                if p.right.is_some() && combo & 2 != 0 {
                    base += p.w_right;
                }
                if wlen == 0 {
                    // The scalar kernel skips the window term entirely for
                    // empty windows; replicate that exact expression.
                    if base >= theta {
                        *mask = 1;
                    }
                } else {
                    for cnt in 0..=wlen {
                        let frac = cnt as f64 / p.window_full as f64;
                        let interference = base + p.window_weight * ((frac - 0.5).max(0.0) * 2.0);
                        if interference >= theta {
                            *mask |= 1u64 << cnt;
                        }
                    }
                }
                let full: u64 = if wlen == 0 {
                    1
                } else {
                    (1u64 << (wlen + 1)) - 1
                };
                if *mask == full {
                    word.all_fail[combo] |= bit;
                } else if *mask != 0 {
                    word.window_need[combo] |= bit;
                }
            }
            st.lanes.push(Lane {
                entry: idx as u32,
                window: (start, st.window_refs.len() as u32),
                count_fail: masks,
            });
        }
        st.min_width = st
            .gather
            .iter()
            .flatten()
            .chain(&st.window_refs)
            .map(|&c| (c & !WINDOW_ANTI) as usize + 1)
            .max()
            .unwrap_or(0);
        st
    }

    /// Number of coupling entries compiled into the stencil.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Evaluates the stencil against one row image.
    ///
    /// Returns exactly the failing-entry indices (ascending) that
    /// [`RowFaultMap::coupling_fail_indices`] returns for the same map,
    /// content, and margin shift.
    pub fn eval(&self, data: &RowBits) -> Vec<u32> {
        let mut out = Vec::new();
        self.eval_into(data, &mut out);
        out
    }

    /// [`eval`](CouplingStencil::eval) into a caller-supplied buffer
    /// (cleared first) — the arena-pooled form `parbor-serve` uses.
    pub fn eval_into(&self, data: &RowBits, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_fail(data, |entry, _| out.push(entry));
    }

    /// Calls `fail(entry, column)` for every failing lane, in ascending
    /// entry order: the lane's `entries` index and its victim's system
    /// column, so a reader never goes back to the fault map.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than a column the stencil reads.
    pub(crate) fn for_each_fail(&self, data: &RowBits, mut fail: impl FnMut(u32, u32)) {
        assert!(
            data.len() >= self.min_width,
            "row of {} bits is shorter than the stencil's {} columns",
            data.len(),
            self.min_width
        );
        let words = data.words();
        let bit = |col: u32| (words[col as usize / 64] >> (col % 64)) & 1;
        for (w, word) in self.words.iter().enumerate() {
            let lo = w * 64;
            // Gather the three data bits of each lane into word lanes; the
            // existence masks below discard an absent neighbor's column 0.
            let (mut v, mut l, mut r) = (0u64, 0u64, 0u64);
            for (k, &[victim, left, right]) in self.gather[lo..].iter().take(64).enumerate() {
                v |= bit(victim) << k;
                l |= bit(left) << k;
                r |= bit(right) << k;
            }
            // Word-parallel classification: charge state, opposition, combo.
            let charged = v ^ word.victim_anti;
            let lop = !(l ^ word.left_anti) & word.left_exists;
            let rop = !(r ^ word.right_anti) & word.right_exists;
            let combos = [!lop & !rop, lop & !rop, !lop & rop, lop & rop];
            let mut fails = 0u64;
            let mut need = 0u64;
            for (c, &combo) in combos.iter().enumerate() {
                fails |= combo & word.all_fail[c];
                need |= combo & word.window_need[c];
            }
            fails &= charged;
            need &= charged;
            // Only count-dependent lanes gather their window cells.
            while need != 0 {
                let b = need.trailing_zeros() as usize;
                need &= need - 1;
                let lane = &self.lanes[lo + b];
                let combo = (((lop >> b) & 1) | (((rop >> b) & 1) << 1)) as usize;
                let (s, e) = (lane.window.0 as usize, lane.window.1 as usize);
                // Opposite means discharged: stored bit equals polarity.
                let cnt = self.window_refs[s..e]
                    .iter()
                    .filter(|&&wref| bit(wref & !WINDOW_ANTI) == u64::from(wref >> 31))
                    .count();
                if (lane.count_fail[combo] >> cnt) & 1 == 1 {
                    fails |= 1u64 << b;
                }
            }
            // Emit in ascending lane order = ascending entry order.
            while fails != 0 {
                let j = lo + fails.trailing_zeros() as usize;
                fails &= fails - 1;
                fail(self.lanes[j].entry, self.gather[j][0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{FaultRates, RowFaultMap};
    use crate::pattern::PatternKind;
    use crate::retention::RetentionModel;
    use crate::vendor::Vendor;
    use parbor_hal::RowId;

    fn dense_map(vendor: Vendor, seed: u64, row: u32) -> RowFaultMap {
        let s = vendor.scrambler(8192);
        RowFaultMap::build(
            seed,
            RowId::new(0, row),
            &*s,
            &FaultRates {
                interesting: 0.02,
                ..FaultRates::default()
            },
            &RetentionModel::default(),
        )
    }

    #[test]
    fn stencil_matches_scalar_reference() {
        for vendor in Vendor::ALL {
            for row in 0..8u32 {
                let map = dense_map(vendor, 11, row);
                for shift in [0.0, 0.4, -0.6] {
                    let st = CouplingStencil::compile(&map, shift);
                    for seed in 0..6u64 {
                        let data = PatternKind::Random { seed }.row_bits(row, 8192);
                        assert_eq!(
                            st.eval(&data),
                            map.coupling_fail_indices(&data, shift),
                            "{vendor:?} row {row} shift {shift} seed {seed}"
                        );
                    }
                    for pattern in [
                        PatternKind::Solid(true),
                        PatternKind::Solid(false),
                        PatternKind::ColStripe { period: 1 },
                        PatternKind::Checkerboard,
                    ] {
                        let data = pattern.row_bits(row, 8192);
                        assert_eq!(st.eval(&data), map.coupling_fail_indices(&data, shift));
                    }
                }
            }
        }
    }

    #[test]
    fn stencil_on_empty_map_returns_nothing() {
        let st = CouplingStencil::compile(&RowFaultMap::default(), 0.0);
        assert_eq!(st.lanes(), 0);
        assert!(st.eval(&RowBits::ones(8192)).is_empty());
    }

    #[test]
    #[should_panic(expected = "shorter than the stencil")]
    fn stencil_rejects_a_row_shorter_than_its_columns() {
        let st = CouplingStencil::compile(&dense_map(Vendor::A, 11, 0), 0.0);
        st.eval(&RowBits::zeros(100));
    }

    #[test]
    fn stencil_covers_more_than_64_lanes() {
        // A dense population forces multiple lane words, exercising the
        // word-boundary paths of the gather and emit loops.
        let s = Vendor::B.scrambler(8192);
        let map = RowFaultMap::build(
            5,
            RowId::new(0, 3),
            &*s,
            &FaultRates {
                interesting: 0.05,
                ..FaultRates::default()
            },
            &RetentionModel::default(),
        );
        let st = CouplingStencil::compile(&map, 0.0);
        assert!(st.lanes() > 64, "lanes = {}", st.lanes());
        for seed in 0..4u64 {
            let data = PatternKind::Random { seed }.row_bits(3, 8192);
            assert_eq!(st.eval(&data), map.coupling_fail_indices(&data, 0.0));
        }
    }
}
