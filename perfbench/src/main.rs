//! Host wall-clock benchmark of the FabricCRDT reproduction.
//!
//! Every other number this repository reports is *simulated* time: a
//! deterministic work counter times a `CostModel::calibrated` constant,
//! the same on every machine. This benchmark measures the real code on
//! the host instead. It runs one workload per process (see
//! `README.md` beside this crate for why each exists and what it
//! stresses), through public crate APIs only:
//!
//! ```text
//! perfbench --workload <commit-crdt|fig3-sweep|zipf-gossip-raft>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--rustc <version>] [--revision <id>]
//! ```
//!
//! With `--trace 0` it times the workload for `--seconds` and reports the
//! end-to-end metrics; with `--trace 1` it re-drives the workload's own
//! inputs through each layer's public functions and reports the
//! per-layer metrics. Either way every run checks its deterministic
//! outputs, and the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Simulated numbers
//! appear only as checked outputs, never as metrics.

mod commit;
mod layers;
mod report;
mod stats;
mod sweep;
mod zipf;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;

/// Directory, relative to the checkout root, for files a run writes.
const WORK_ROOT: &str = ".perfbench_work";

/// A fresh directory under [`WORK_ROOT`] for this process's files.
fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rustc: "unknown".into(),
        revision: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--rustc" => args.rustc = value,
            "--revision" => args.revision = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    report.fingerprint(&args.rustc, &args.revision);
    match (args.workload.as_str(), args.trace) {
        ("commit-crdt", false) => commit::timed(args.seed, args.seconds, &mut report),
        ("commit-crdt", true) => commit::traced(args.seed, &mut report),
        ("fig3-sweep", false) => sweep::timed(args.seed, args.seconds, &mut report),
        ("fig3-sweep", true) => sweep::traced(args.seed, &mut report),
        ("zipf-gossip-raft", false) => zipf::timed(args.seed, args.seconds, &mut report),
        ("zipf-gossip-raft", true) => zipf::traced(args.seed, &mut report),
        (other, _) => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (commit-crdt, fig3-sweep, zipf-gossip-raft)"
            );
            return ExitCode::from(2);
        }
    }
    // Each workload removes its own files; drop the emptied parent.
    let _ = std::fs::remove_dir(WORK_ROOT);
    report.finish()
}
