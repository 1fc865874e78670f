//! `perfbench --workload <detect|store|serve|memsim> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. Scratch files
//! (stores, the trace) go to `.bench_out/` under the working directory.
//! Exits 1 when an output check failed, 2 on bad arguments or set-up
//! failure.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{report, RunConfig, Scale, Workload};

/// Scratch directory for stores and the trace file, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.parse::<Workload>()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload detect|store|serve|memsim --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# {}", report::host_facts(cfg.workload));
    println!(
        "# workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
    }
    println!("{}", report::result_line(&outcome, cfg.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
