//! Integration tests for the `parbor` CLI: flag handling, `--help`, and the
//! fleet crash/resume workflow driven through the real binary.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

const BIN: &str = env!("CARGO_BIN_EXE_parbor");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn parbor binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("parbor-cli-{}-{tag}-{n}", std::process::id()))
}

/// Every file under `root`, as sorted (relative path, contents) pairs.
fn dir_snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn help_documents_the_subcommands() {
    for args in [&["--help"][..], &["-h"], &["detect", "--help"]] {
        let out = run(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        let text = stdout(&out);
        assert!(!text.contains("--parallel"), "{args:?}");
        assert!(!text.contains("--kernel"), "{args:?}");
        assert!(text.contains("fleet run"), "{args:?}");
    }
}

#[test]
fn removed_mode_flags_are_rejected_by_name() {
    for (args, flag) in [
        (
            &["detect", "--rows", "48", "--parallel", "auto"][..],
            "--parallel",
        ),
        (&["fleet", "run", "--kernel", "stencil"], "--kernel"),
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} was removed")),
            "{args:?}: {err}"
        );
    }
}

/// A scratch working directory with a `results/` subdir so `detect` can
/// write its trace without touching the repo checkout.
fn scratch_cwd(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    fs::create_dir_all(dir.join("results")).expect("create scratch cwd");
    dir
}

fn run_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn parbor binary")
}

#[test]
fn help_documents_the_backend_flags() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("--backend sim|replay:PATH"), "{text}");
    assert!(text.contains("--record PATH"), "{text}");
    assert!(text.contains("inject=rate:P,seed:S"), "{text}");
}

#[test]
fn detect_record_then_replay_reproduces_the_report() {
    let cwd = scratch_cwd("detect-replay");
    let transcript = cwd.join("run.pbt");
    let base = &["detect", "--vendor", "B", "--rows", "32", "--chips", "1"][..];

    let mut args = base.to_vec();
    let t = transcript.display().to_string();
    args.extend_from_slice(&["--record", &t]);
    let recorded = run_in(&cwd, &args);
    assert!(recorded.status.success(), "record run failed: {recorded:?}");
    let bytes = fs::read(&transcript).expect("transcript written");
    assert!(bytes.starts_with(b"PBHALTB1"), "transcript missing magic");

    let replay_backend = format!("replay:{t}");
    let mut args = base.to_vec();
    args.extend_from_slice(&["--backend", &replay_backend]);
    let replayed = run_in(&cwd, &args);
    assert!(replayed.status.success(), "replay run failed: {replayed:?}");

    let head =
        |out: &Output| -> Vec<String> { stdout(out).lines().take(7).map(String::from).collect() };
    assert_eq!(
        head(&recorded),
        head(&replayed),
        "replayed report differs from the recorded run"
    );

    // The human-readable view: a header line, then one line per round.
    let dump = run_in(&cwd, &["transcript", "dump", &t]);
    assert!(dump.status.success(), "transcript dump failed: {dump:?}");
    let text = stdout(&dump);
    let lines: Vec<&str> = text.lines().collect();
    let rounds: u64 = lines[0]
        .split("\"rounds\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .expect("rounds field in the header line");
    assert!(rounds > 0);
    assert_eq!(lines.len() as u64, rounds + 1, "{text}");
    assert!(lines[1].contains("\"writes_digest\""), "{}", lines[1]);

    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn fleet_record_then_replay_produces_a_byte_identical_store() {
    let cwd = scratch_cwd("fleet-replay");
    let base = "fleet run --vendors A,B --rows 32 --workers 1 --dir";

    let out = run_line(&cwd, &format!("{base} recorded --record transcripts"));
    assert!(out.status.success(), "recorded run failed: {out:?}");
    assert!(cwd.join("transcripts/A0.pbt").is_file());
    assert!(cwd.join("transcripts/B0.pbt").is_file());

    let out = run_line(
        &cwd,
        &format!("{base} replayed --backend replay:transcripts"),
    );
    assert!(out.status.success(), "replayed run failed: {out:?}");

    assert_eq!(
        dir_snapshot(&cwd.join("recorded").join("store")),
        dir_snapshot(&cwd.join("replayed").join("store")),
        "replayed store differs from the recorded run"
    );

    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn inject_changes_results_deterministically() {
    let cwd = scratch_cwd("inject");
    let base = &["detect", "--vendor", "B", "--rows", "32", "--chips", "1"][..];
    let clean = run_in(&cwd, base);
    assert!(clean.status.success());

    let mut args = base.to_vec();
    args.extend_from_slice(&["--mechanisms", "inject=rate:0.002,seed:11"]);
    let injected = run_in(&cwd, &args);
    assert!(
        injected.status.success(),
        "injected run failed: {injected:?}"
    );
    let injected_again = run_in(&cwd, &args);
    assert!(injected_again.status.success());

    let failures = |out: &Output| -> String {
        stdout(out)
            .lines()
            .find(|l| l.starts_with("failures found"))
            .expect("failures line")
            .to_string()
    };
    assert_ne!(
        failures(&clean),
        failures(&injected),
        "injection at rate=0.002 must change the failure count"
    );
    assert_eq!(
        failures(&injected),
        failures(&injected_again),
        "same injection seed must reproduce the same failures"
    );

    fs::remove_dir_all(&cwd).ok();
}

/// Runs `line`, space-separated arguments, in `cwd`.
fn run_line(cwd: &Path, line: &str) -> Output {
    run_in(cwd, &line.split(' ').collect::<Vec<_>>())
}

#[test]
fn bad_backend_and_inject_specs_are_rejected() {
    let cwd = scratch_cwd("bad-specs");
    for line in [
        "detect --rows 32 --backend fpga",
        "detect --rows 32 --backend replay:",
        "detect --rows 32 --mechanisms inject=rate:2,seed:1",
        "detect --rows 32 --mechanisms inject=seed:1",
        "detect --rows 32 --mechanisms inject=rate:0.1,seed:1,volume:9",
        // The retired flag fails loudly instead of being ignored.
        "detect --rows 32 --inject rate=0.1,seed=1",
    ] {
        assert!(!run_line(&cwd, line).status.success(), "{line} must fail");
    }
    // A transcript replays recorded flips, so a mechanism stack next to a
    // replay backend would be silently dropped: an error names both flags.
    for line in [
        "detect --rows 32 --backend replay:x.pbt --mechanisms inject=rate:0.1,seed:1",
        "fleet run --dir unused --backend replay:x --mechanisms hammer",
        "fleet resume --dir unused --backend replay:x --mechanisms hammer",
    ] {
        let out = run_line(&cwd, line);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{line} must fail");
        assert!(
            err.contains("--mechanisms") && err.contains("--backend replay:"),
            "{line}: {err}"
        );
    }
    assert!(
        !cwd.join("unused").exists(),
        "a rejected fleet touched its dir"
    );
    fs::remove_dir_all(&cwd).ok();
}

/// `fleet run` of one module per vendor A and B into `cwd/<dir>`, plus the
/// `extra` flags (each with a leading space).
fn fleet_run(cwd: &Path, dir: &str, extra: &str) -> Output {
    run_line(
        cwd,
        &format!(
            "fleet run --dir {dir} --vendors A,B --modules 1 --rows 48 --workers 1 \
             --checkpoint-every 16{extra}"
        ),
    )
}

const FLEET_RESUME: &str = "fleet resume --dir crashed --workers 1 --checkpoint-every 16";

#[test]
fn fleet_crash_resume_store_is_byte_identical_to_clean_run() {
    let cwd = scratch_cwd("fleet-crash");
    let out = fleet_run(&cwd, "clean", "");
    assert!(out.status.success(), "clean run failed: {out:?}");

    // Kill the fleet after two checkpoints, mid-scan.
    let out = fleet_run(&cwd, "crashed", " --crash-after 2");
    assert_eq!(
        out.status.code(),
        Some(42),
        "crash hook must exit with the sentinel code"
    );

    // The journal survives and status sees the in-flight jobs.
    let out = run_line(&cwd, "fleet status --dir crashed");
    assert!(out.status.success());
    assert!(stdout(&out).contains("in-flight"), "{}", stdout(&out));

    // Resume and compare the stores byte for byte.
    let out = run_line(&cwd, FLEET_RESUME);
    assert!(out.status.success(), "resume failed: {out:?}");
    assert!(stdout(&out).contains("(resumed)"));

    assert_eq!(
        dir_snapshot(&cwd.join("crashed").join("store")),
        dir_snapshot(&cwd.join("clean").join("store")),
        "resumed store differs from the uninterrupted run"
    );

    // Show reads a stored profile back.
    let out = run_line(&cwd, "fleet show --dir crashed --module A0");
    assert!(out.status.success());
    assert!(stdout(&out).contains("total budget"));

    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn injected_fleet_resumes_its_noise_from_the_journal() {
    // The injection lives in the journaled module spec, so a crashed run
    // resumed with no mechanism flag still finishes with its noise.
    let cwd = scratch_cwd("fleet-inject");
    let inject = " --mechanisms inject=rate:0.01,seed:3";
    assert!(fleet_run(&cwd, "plain", "").status.success());
    assert!(fleet_run(&cwd, "clean", inject).status.success());
    let out = fleet_run(&cwd, "crashed", &format!("{inject} --crash-after 2"));
    assert_eq!(out.status.code(), Some(42), "crash hook must fire: {out:?}");
    let out = run_line(&cwd, FLEET_RESUME);
    assert!(out.status.success(), "resume failed: {out:?}");
    assert!(stdout(&out).contains("(resumed)"));

    let store = |dir: &str| dir_snapshot(&cwd.join(dir).join("store"));
    assert_ne!(store("plain"), store("clean"), "injection changed nothing");
    assert_eq!(
        store("crashed"),
        store("clean"),
        "resumed injected store differs from the uninterrupted injected run"
    );
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn obs_report_prints_stage_table_and_writes_folded_stacks() {
    let cwd = scratch_cwd("obs-report");
    let detect = run_in(
        &cwd,
        &["detect", "--vendor", "A", "--rows", "48", "--chips", "1"],
    );
    assert!(detect.status.success(), "detect failed: {detect:?}");

    let out = run_in(&cwd, &["obs", "report"]);
    assert!(
        out.status.success(),
        "obs report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("pipeline.discover"), "{text}");
    assert!(text.contains("self%"), "{text}");

    let folded = fs::read_to_string(cwd.join("results/profile.folded")).expect("folded stacks");
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("pipeline.run;pipeline.discover ")),
        "folded stacks must nest stages under pipeline.run:\n{folded}"
    );
    // Every folded line is `semicolon-joined-stack <self_us>`.
    for line in folded.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("stack and count");
        assert!(!stack.is_empty() && n.parse::<u64>().is_ok(), "{line}");
    }
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn help_documents_the_serve_subcommand() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("serve"), "{text}");
    assert!(text.contains("--engine inline|threads"), "{text}");
    assert!(text.contains("--mode open|closed"), "{text}");
}

#[test]
fn serve_closed_loop_balances_the_ledger_and_writes_status() {
    let cwd = scratch_cwd("serve-closed");
    let out = run_in(
        &cwd,
        &[
            "serve",
            "--rows",
            "8",
            "--cols",
            "1024",
            "--seconds",
            "0.05",
            "--status-out",
            "results/serve_status.json",
        ],
    );
    assert!(out.status.success(), "serve failed: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("serve OK:"), "{text}");
    assert!(text.contains("unexplained=0"), "{text}");
    let status =
        fs::read_to_string(cwd.join("results/serve_status.json")).expect("status JSON written");
    assert!(status.contains("\"clean_shutdown\": true"), "{status}");
    assert!(status.contains("\"per_worker\""), "{status}");
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn serve_from_fleet_store_restricts_to_profiled_rows() {
    let cwd = scratch_cwd("serve-store");
    let dir = cwd.join("fleet").display().to_string();
    let ran = run_in(
        &cwd,
        &[
            "fleet",
            "run",
            "--dir",
            &dir,
            "--vendors",
            "A",
            "--modules",
            "1",
            "--rows",
            "32",
            "--cols",
            "1024",
            "--workers",
            "1",
        ],
    );
    assert!(ran.status.success(), "fleet run failed: {ran:?}");

    let store = format!("{dir}/store");
    // 1024 columns keeps the fault population sparse enough that some rows
    // have no failing cell — the profiled scope must shrink below the
    // ground-truth row count.
    let common = &[
        "--vendors",
        "A",
        "--modules",
        "1",
        "--rows",
        "32",
        "--cols",
        "1024",
        "--seconds",
        "0.05",
    ][..];
    let stencils = |out: &Output| -> u64 {
        stdout(out)
            .lines()
            .find(|l| l.starts_with("serve:"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|n| n.parse().ok())
            .expect("serve header with stencil count")
    };

    let mut args = vec!["serve"];
    args.extend_from_slice(common);
    let ground_truth = run_in(&cwd, &args);
    assert!(ground_truth.status.success(), "{ground_truth:?}");
    assert_eq!(
        stencils(&ground_truth),
        32,
        "ground truth compiles every row"
    );

    args.extend_from_slice(&["--store", &store]);
    let profiled = run_in(&cwd, &args);
    assert!(profiled.status.success(), "{profiled:?}");
    assert!(stdout(&profiled).contains("serve OK:"), "{profiled:?}");
    assert!(
        stencils(&profiled) < 32,
        "store-backed scope must track fewer rows than ground truth"
    );
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn fleet_top_once_renders_the_status_surface() {
    let cwd = scratch_cwd("fleet-top");
    let dir = cwd.join("fleet").display().to_string();

    // Before any campaign there is no surface; --once says so and fails.
    let missing = run_in(&cwd, &["fleet", "top", "--dir", &dir, "--once"]);
    assert!(!missing.status.success(), "must fail without status.json");

    let ran = run_in(
        &cwd,
        &[
            "fleet",
            "run",
            "--dir",
            &dir,
            "--vendors",
            "A",
            "--modules",
            "1",
            "--rows",
            "48",
            "--workers",
            "1",
        ],
    );
    assert!(ran.status.success(), "fleet run failed: {ran:?}");

    let out = run_in(&cwd, &["fleet", "top", "--dir", &dir, "--once"]);
    assert!(
        out.status.success(),
        "fleet top failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("fleet done"), "{text}");
    assert!(text.contains("1/1 jobs done"), "{text}");
    assert!(text.contains("rounds/s"), "{text}");
    assert!(text.contains("eta"), "{text}");
    fs::remove_dir_all(&cwd).ok();
}
