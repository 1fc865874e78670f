//! Deterministic trace generation from an [`AppProfile`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profiles::AppProfile;

/// Size of one memory access (a cache line).
const LINE_BYTES: u64 = 64;

/// One post-LLC trace entry: `nonmem_insts` non-memory instructions followed
/// by a single memory access. This is the format Ramulator's standalone CPU
/// traces use, which the paper's evaluation is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceOp {
    /// Non-memory instructions executed before the access.
    pub nonmem_insts: u32,
    /// Byte address of the access (line-aligned).
    pub addr: u64,
    /// Whether the access is a write (store / dirty writeback).
    pub is_write: bool,
}

/// A deterministic, infinite trace stream for one application.
///
/// Address behaviour: with probability `row_locality`, the next access is
/// the sequential next line (staying in the same DRAM row); otherwise it
/// jumps to a uniformly random line within the footprint. Instruction gaps
/// are geometric-like around `mean_gap()`, so the long-run MPKI matches the
/// profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AppProfile,
    rng: StdRng,
    cursor: u64,
    footprint_lines: u64,
}

impl TraceGenerator {
    /// Creates a generator for the application with a given seed. Identical
    /// `(profile, seed)` pairs yield identical traces.
    pub fn new(profile: &AppProfile, seed: u64) -> Self {
        let footprint_lines = u64::from(profile.footprint_mib) * 1024 * 1024 / LINE_BYTES;
        let mut rng = StdRng::seed_from_u64(seed);
        let cursor = rng.gen_range(0..footprint_lines);
        TraceGenerator {
            profile: profile.clone(),
            rng,
            cursor,
            footprint_lines,
        }
    }

    /// The application profile this generator follows.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Produces the next trace entry.
    pub fn next_op(&mut self) -> TraceOp {
        let gap = self.profile.mean_gap();
        // Geometric-ish gap: exponential with the target mean, at least 1.
        let u: f64 = self.rng.gen_range(1e-12..1.0f64);
        let nonmem_insts = (-u.ln() * gap).ceil().max(1.0).min(u32::MAX as f64) as u32;

        if self.rng.gen_bool(self.profile.row_locality) {
            self.cursor = (self.cursor + 1) % self.footprint_lines;
        } else {
            self.cursor = self.rng.gen_range(0..self.footprint_lines);
        }
        TraceOp {
            nonmem_insts,
            addr: self.cursor * LINE_BYTES,
            is_write: self.rng.gen_bool(self.profile.write_frac),
        }
    }

    /// Generates a batch of `n` entries.
    #[cfg(test)]
    fn take_ops(&mut self, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(name: &'static str) -> AppProfile {
        AppProfile::spec2006()
            .into_iter()
            .find(|a| a.name == name)
            .expect("known benchmark")
    }

    #[test]
    fn generator_is_deterministic() {
        let a = app("mcf");
        let x = TraceGenerator::new(&a, 9).take_ops(1000);
        let y = TraceGenerator::new(&a, 9).take_ops(1000);
        assert_eq!(x, y);
        let z = TraceGenerator::new(&a, 10).take_ops(1000);
        assert_ne!(x, z);
    }

    #[test]
    fn addresses_stay_in_footprint_and_are_aligned() {
        let a = app("hmmer");
        let limit = u64::from(a.footprint_mib) * 1024 * 1024;
        let mut g = TraceGenerator::new(&a, 1);
        for op in g.take_ops(10_000) {
            assert!(op.addr < limit);
            assert_eq!(op.addr % LINE_BYTES, 0);
        }
    }

    #[test]
    fn long_run_mpki_matches_profile() {
        for name in ["mcf", "libquantum", "sjeng"] {
            let a = app(name);
            let mut g = TraceGenerator::new(&a, 3);
            let ops = g.take_ops(20_000);
            let insts: u64 = ops.iter().map(|o| u64::from(o.nonmem_insts) + 1).sum();
            let mpki = ops.len() as f64 * 1000.0 / insts as f64;
            let rel = (mpki - a.mpki).abs() / a.mpki;
            assert!(
                rel < 0.15,
                "{name}: generated MPKI {mpki} vs target {}",
                a.mpki
            );
        }
    }

    #[test]
    fn write_fraction_matches_profile() {
        let a = app("lbm");
        let mut g = TraceGenerator::new(&a, 5);
        let ops = g.take_ops(20_000);
        let wf = ops.iter().filter(|o| o.is_write).count() as f64 / ops.len() as f64;
        assert!((wf - a.write_frac).abs() < 0.02, "write fraction {wf}");
    }

    #[test]
    fn locality_shows_up_as_sequential_runs() {
        let hi = app("libquantum"); // 0.88 locality
        let lo = app("mcf"); // 0.15 locality
        let seq = |a: &AppProfile| {
            let mut g = TraceGenerator::new(a, 7);
            let ops = g.take_ops(10_000);
            ops.windows(2)
                .filter(|w| w[1].addr == w[0].addr + LINE_BYTES)
                .count()
        };
        assert!(seq(&hi) > 4 * seq(&lo));
    }
}
