//! The paper's 32 random 8-core multiprogrammed mixes (§8: "We evaluate 32
//! 8-core multi-programmed workloads by randomly assigning one application
//! to each core").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::profiles::AppProfile;

/// One multiprogrammed workload: an application per core.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadMix {
    /// Mix index (0-based; the paper numbers them 1–32).
    pub id: u32,
    /// One application per core.
    pub apps: Vec<AppProfile>,
}

impl WorkloadMix {
    /// Short description like `mix07[mcf,lbm,...]`.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.apps.iter().map(|a| a.name).collect();
        format!("mix{:02}[{}]", self.id + 1, names.join(","))
    }
}

/// Generates `count` random mixes of `cores` applications each, drawn
/// uniformly (with replacement) from the 17-benchmark population — the
/// paper uses `count = 32`, `cores = 8`.
pub fn paper_mixes(count: usize, cores: usize, seed: u64) -> Vec<WorkloadMix> {
    let apps = AppProfile::spec2006();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|id| WorkloadMix {
            id: id as u32,
            apps: (0..cores)
                .map(|_| apps[rng.gen_range(0..apps.len())].clone())
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_two_mixes_of_eight() {
        let mixes = paper_mixes(32, 8, 1);
        assert_eq!(mixes.len(), 32);
        for m in &mixes {
            assert_eq!(m.apps.len(), 8);
        }
    }

    #[test]
    fn mixes_are_deterministic_per_seed() {
        assert_eq!(paper_mixes(8, 8, 5), paper_mixes(8, 8, 5));
        assert_ne!(paper_mixes(8, 8, 5), paper_mixes(8, 8, 6));
    }

    #[test]
    fn mixes_are_diverse() {
        let mixes = paper_mixes(32, 8, 1);
        let mean_mpkis: std::collections::BTreeSet<u64> = mixes
            .iter()
            .map(|m| {
                let mean = m.apps.iter().map(|a| a.mpki).sum::<f64>() / m.apps.len() as f64;
                (mean * 100.0) as u64
            })
            .collect();
        assert!(mean_mpkis.len() > 20, "mixes too uniform");
    }

    #[test]
    fn label_format() {
        let mixes = paper_mixes(1, 2, 3);
        let l = mixes[0].label();
        assert!(l.starts_with("mix01["));
        assert!(l.ends_with(']'));
    }
}
