//! The repo benchmark: four closed-loop workloads against the real
//! `fgs-oodb` engine, timed from outside. See `benchmark/README.md`.
//!
//! ```text
//! fgs-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! fgs-benchmark suite [--seed N] [--seconds S] [--smoke] [--out FILE]
//! fgs-benchmark compare BASE.json NEW.json
//! ```

mod layers;
mod probes;
mod proc;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::{Results, RunRecord, OUT_DIR};
use run::RunOpts;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// figure is `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
/// Two-second windows: hundreds (`hicon_contend`) to tens of thousands
/// (`commit_short`) of transactions each, and ten of them for the median
/// to shrug off a disturbed stretch of the run.
const DEFAULT_WINDOWS: usize = 10;
/// `--smoke`: one three-second window, no probes.
const SMOKE_SECONDS: f64 = 3.0;
/// Untraced runs of each workload in a suite. `compare` judges the
/// median of a side's runs and calls a row `unresolved` when the runs
/// scatter by more than the bound; two is the fewest that scatter.
const SUITE_REPEATS: usize = 5;
const SMOKE_REPEATS: usize = 2;

/// The options that take a value.
const FLAGS: [&str; 5] = ["workload", "seed", "seconds", "trace", "out"];

struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        flags: Vec::new(),
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            flag if flag.starts_with("--") => {
                if !FLAGS.contains(&&flag[2..]) {
                    return Err(format!("unknown option {flag}"));
                }
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                out.flags.push((flag[2..].to_string(), value.clone()));
            }
            other => out.positional.push(other.to_string()),
        }
    }
    Ok(out)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let s = self.get("seconds")?.unwrap_or(default);
        if s > 0.0 {
            Ok(s)
        } else {
            Err("--seconds must be positive".into())
        }
    }
}

fn record_path(workload: Workload, traced: bool) -> PathBuf {
    let pass = if traced { "traced" } else { "untraced" };
    Path::new(OUT_DIR).join(format!("run-{}-{pass}.json", workload.name()))
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs this same command again under `taskset`, confined to the last
/// CPU this process is allowed (CPU 0 gets the machine's housekeeping),
/// and returns its exit code. `None` when this process already has a
/// single CPU, or `taskset` cannot be run: the caller carries on here,
/// and the record's `affinity_cpus` says which it was.
fn rerun_pinned() -> Option<ExitCode> {
    let cpus = proc::allowed_cpus();
    let cpu = match cpus.as_slice() {
        [_, .., last] => last.to_string(),
        _ => return None,
    };
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .status();
    match status {
        Ok(status) => Some(ExitCode::from(status.code().map_or(1, |c| c as u8))),
        Err(e) => {
            eprintln!("warning: taskset: {e}; running on {} CPUs", cpus.len());
            None
        }
    }
}

/// One `(workload, pass)` run in this process.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {known:?}")
    })?;
    if workload.pinned() {
        if let Some(code) = rerun_pinned() {
            return Ok(code);
        }
    }
    let traced = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let record = run::run(&RunOpts {
        workload,
        seed: args.get("seed")?.unwrap_or(1),
        seconds: args.seconds()?,
        traced,
        windows: if args.smoke { 1 } else { DEFAULT_WINDOWS },
        probes: !args.smoke,
    });
    record.print();
    if let Err(e) = write_json(&record_path(workload, traced), &record) {
        eprintln!("warning: {e}");
    }
    println!("{}", record.result_line());
    Ok(if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child run of the suite. A child that exits non-zero after
/// writing its record failed its output checks; one that left no record
/// did not run at all, and that aborts the suite.
fn suite_run(args: &Args, workload: Workload, traced: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = record_path(workload, traced);
    // A record left by an earlier run must not pass for this one's.
    let _ = std::fs::remove_file(&path);
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload.name()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &args.get::<u64>("seed")?.unwrap_or(1).to_string()])
        .args(["--seconds", &args.seconds()?.to_string()]);
    if args.smoke {
        child.arg("--smoke");
    }
    let status = child.status().map_err(|e| format!("spawn run: {e}"))?;
    let mut record: RunRecord = read_json(&path)
        .map_err(|e| format!("{} run exited with {status}: {e}", workload.name()))?;
    if !status.success() && record.correct {
        record.correct = false;
        record.problems.push(format!("run exited with {status}"));
    }
    Ok(record)
}

/// Every workload, [`SUITE_REPEATS`] untraced runs and one traced, each
/// in a process of its own (so CPU time, RSS and thread counts are one
/// run's), merged into one results file. The repeats go round the
/// workloads, not workload by workload, so each workload's runs are
/// spread over the whole suite and a slow drift of the host shows up in
/// their spread.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let out: PathBuf = args
        .get("out")?
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    let repeats = if args.smoke {
        SMOKE_REPEATS
    } else {
        SUITE_REPEATS
    };
    let mut runs: Vec<RunRecord> = Vec::new();
    for _ in 0..repeats {
        for workload in Workload::ALL {
            runs.push(suite_run(args, workload, false)?);
        }
    }
    for workload in Workload::ALL {
        runs.push(suite_run(args, workload, true)?);
    }
    let results = Results { runs };
    results.print_summary();
    write_json(&out, &results)?;
    println!("wrote {}", out.display());
    Ok(if results.runs.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, base, new] = args.positional.as_slice() else {
        return Err("usage: compare BASE.json NEW.json".into());
    };
    let base: Results = read_json(Path::new(base))?;
    let new: Results = read_json(Path::new(new))?;
    Ok(if report::compare(&base, &new)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| match args.positional.first().map(String::as_str) {
        None => single(&args),
        Some("suite") => suite(&args),
        Some("compare") => compare(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("fgs-benchmark: {e}");
        ExitCode::from(2)
    })
}
