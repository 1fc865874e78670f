//! Command-line glue for the `parbor serve` subcommand: its flag schema,
//! its module-population scheme (which `bench_report`'s serve section also
//! builds from), and its grep-stable summary format.
//!
//! The module population follows the fleet CLI's naming and seeding scheme
//! (`{vendor}{idx}` with seed `base + idx*997 + vendor*131071`), so a store
//! written by `parbor fleet run` with the same `--vendors/--modules/--chips/
//! --rows/--cols/--seed` flags lines up with the served snapshot segment for
//! segment.

use std::collections::HashMap;

use parbor_dram::{ChipGeometry, DramModule, ModuleConfig, ModuleId, Vendor};
use parbor_fleet::ProfileStore;
use parbor_serve::{Engine, LoadConfig, LoadMode, LoadReport, ServeConfig, ServeSnapshot};

/// Everything a load run needs, assembled from `--flag value` pairs.
#[derive(Debug)]
pub struct ServeSetup {
    /// The compiled serving snapshot.
    pub snapshot: ServeSnapshot,
    /// Server sizing and policy.
    pub config: ServeConfig,
    /// Which engine carries the load.
    pub engine: Engine,
    /// Arrival discipline and run length.
    pub load: LoadConfig,
}

fn get_u64(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
    }
}

fn get_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
    }
}

fn get_bool(flags: &HashMap<String, String>, name: &str, default: bool) -> Result<bool, String> {
    match flags.get(name).map(String::as_str) {
        None => Ok(default),
        Some("true") | Some("1") | Some("yes") => Ok(true),
        Some("false") | Some("0") | Some("no") => Ok(false),
        Some(other) => Err(format!("--{name} must be true or false, got {other}")),
    }
}

fn parse_vendors(list: &str) -> Result<Vec<Vendor>, String> {
    list.split(',')
        .map(|v| match v.trim() {
            "A" | "a" => Ok(Vendor::A),
            "B" | "b" => Ok(Vendor::B),
            "C" | "c" => Ok(Vendor::C),
            other => Err(format!("unknown vendor {other} (use A, B, or C)")),
        })
        .collect()
}

/// Builds the served module population from the shared flag schema
/// (`--vendors A,B,C --modules N --chips N --rows N --cols N --seed N`).
///
/// # Errors
///
/// Returns a message for unparsable flags or invalid geometry.
pub fn build_modules(flags: &HashMap<String, String>) -> Result<Vec<DramModule>, String> {
    let vendors = parse_vendors(flags.get("vendors").map(String::as_str).unwrap_or("A"))?;
    let modules = get_u64(flags, "modules", 1)?;
    let chips = get_u64(flags, "chips", 1)? as usize;
    let rows = get_u64(flags, "rows", 64)? as u32;
    let cols = get_u64(flags, "cols", 8192)? as u32;
    let base_seed = get_u64(flags, "seed", 1)?;
    let geometry = ChipGeometry::new(1, rows, cols).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for vendor in vendors {
        let vendor_code = match vendor {
            Vendor::A => 0u64,
            Vendor::B => 1,
            Vendor::C => 2,
        };
        for idx in 0..modules {
            out.push(
                ModuleConfig::new(vendor)
                    .geometry(geometry)
                    .chips(chips)
                    .seed(base_seed + idx * 997 + vendor_code * 131_071)
                    .module_id(ModuleId(idx as u32))
                    .build()
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    Ok(out)
}

/// Assembles the snapshot, server config, engine, and load plan from the
/// shared flag schema (see the `parbor` usage text). With `--store D` the
/// snapshot compiles only the rows each module's stored profile tracks;
/// without it every row compiles (ground-truth scope).
///
/// # Errors
///
/// Returns a message for unparsable flags, invalid geometry, or a store
/// that cannot be read.
pub fn setup(flags: &HashMap<String, String>) -> Result<ServeSetup, String> {
    let modules = build_modules(flags)?;
    let snapshot = match flags.get("store") {
        Some(dir) => {
            let store = ProfileStore::open(dir.as_str()).map_err(|e| e.to_string())?;
            ServeSnapshot::compile_with_store(&modules, &store).map_err(|e| e.to_string())?
        }
        None => ServeSnapshot::compile(&modules),
    };
    let config = ServeConfig {
        workers: get_u64(flags, "workers", 1)? as usize,
        queue_capacity: get_u64(flags, "queue-capacity", 1024)? as usize,
        rescan_hot_threshold: get_u64(flags, "rescan-hot-threshold", 1024)?,
        ..ServeConfig::default()
    };
    let engine = match flags.get("engine").map(String::as_str) {
        None | Some("inline") => Engine::Inline,
        Some("threads") => Engine::Threads,
        Some(other) => return Err(format!("unknown engine {other} (use inline or threads)")),
    };
    let (mode, latency_default) = match flags.get("mode").map(String::as_str) {
        None | Some("closed") => (
            LoadMode::Closed {
                inflight: get_u64(flags, "inflight", 256)? as usize,
            },
            false,
        ),
        Some("open") => (
            LoadMode::Open {
                rate_per_s: get_f64(flags, "rate", 500_000.0)?,
            },
            true,
        ),
        Some(other) => return Err(format!("unknown mode {other} (use open or closed)")),
    };
    let load = LoadConfig {
        mode,
        seconds: get_f64(flags, "seconds", 0.5)?,
        seed: get_u64(flags, "load-seed", 1)?,
        rescan_every: get_u64(flags, "rescan-every", 0)?,
        stats_every: get_u64(flags, "stats-every", 0)?,
        measure_latency: get_bool(flags, "measure-latency", latency_default)?,
        ..LoadConfig::default()
    };
    Ok(ServeSetup {
        snapshot,
        config,
        engine,
        load,
    })
}

/// The stable, grep-able run summary: a header line plus a verdict line
/// starting `serve OK:` (everything accounted for) or `serve FAILED:`
/// (accepted requests vanished).
pub fn summary(report: &LoadReport) -> String {
    let verdict = if report.clean_shutdown {
        "serve OK:"
    } else {
        "serve FAILED:"
    };
    format!(
        "serve {}/{}: workers={} window_s={:.3} checks_per_s={:.0}\n\
         {verdict} answered={} dropped={} busy={} unexplained={} \
         p50_us={:.2} p99_us={:.2} p999_us={:.2} arena_hit_rate={:.4}\n",
        report.engine,
        report.mode,
        report.serve.workers,
        report.window_s,
        report.checks_per_s,
        report.answered,
        report.dropped,
        report.busy,
        report.unexplained_drops,
        report.p50_us,
        report.p99_us,
        report.p999_us,
        report.serve.arena_hit_rate,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn modules_follow_the_fleet_naming_scheme() {
        let m = build_modules(&flags(&[
            ("vendors", "A,B"),
            ("modules", "2"),
            ("rows", "8"),
            ("cols", "1024"),
        ]))
        .unwrap();
        let names: Vec<String> = m.iter().map(DramModule::name).collect();
        assert_eq!(names, ["A0", "A1", "B0", "B1"]);
    }

    #[test]
    fn setup_defaults_to_inline_closed_without_latency() {
        let s = setup(&flags(&[("rows", "8"), ("cols", "1024")])).unwrap();
        assert_eq!(s.engine, Engine::Inline);
        assert!(!s.load.measure_latency);
        assert_eq!(s.snapshot.stencil_count(), 8);
    }

    #[test]
    fn open_mode_measures_latency_by_default() {
        let s = setup(&flags(&[
            ("rows", "8"),
            ("cols", "1024"),
            ("mode", "open"),
            ("rate", "1000"),
        ]))
        .unwrap();
        assert!(s.load.measure_latency);
        assert!(matches!(s.load.mode, LoadMode::Open { rate_per_s } if rate_per_s == 1000.0));
    }

    #[test]
    fn bad_flags_are_rejected_with_messages() {
        assert!(setup(&flags(&[("engine", "warp")])).is_err());
        assert!(setup(&flags(&[("mode", "sideways")])).is_err());
        assert!(build_modules(&flags(&[("vendors", "Z")])).is_err());
    }
}
