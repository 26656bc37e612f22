//! Shared harness for the figure-regeneration binaries.
//!
//! One binary per figure of the paper's evaluation (`fig3` … `fig7`,
//! plus `tables`); each prints the same series the corresponding figure
//! plots — throughput of successful transactions (panel a), average
//! latency of successful transactions (panel b), and number of
//! successful transactions (panel c) — for both FabricCRDT and Fabric.
//!
//! Every binary accepts:
//!
//! - `--txs N` — transactions per cell (default 10 000, the paper's
//!   count; lower for a quick look),
//! - `--seed S` — PRNG seed (default 42).

use fabriccrdt_workload::experiment::{ExperimentConfig, ExperimentResult, SystemKind};
use fabriccrdt_workload::report::{figure_headers, figure_row, render_table};

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Transactions per experiment cell.
    pub total_txs: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Optional CSV output path for plotting pipelines.
    pub csv: Option<String>,
    /// Arrival rate override in transactions per second (binaries that
    /// hardcode a rate use this instead when set).
    pub rate_tps: Option<f64>,
    /// Block-cut size override (max transactions per block).
    pub block_cut: Option<usize>,
    /// Key-space size override for contention sweeps.
    pub keys: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            total_txs: 10_000,
            seed: 42,
            csv: None,
            rate_tps: None,
            block_cut: None,
            keys: None,
        }
    }
}

/// Flags shared by the figure binaries, for usage messages.
pub const USAGE: &str =
    "[--txs N] [--seed S] [--csv PATH] [--rate TPS] [--block-cut N] [--keys N] [--help]";

/// Parses the value following flag `args[i]`, or names what it needs.
fn flag_value<T: std::str::FromStr>(args: &[String], i: usize, needs: &str) -> Result<T, String> {
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{} requires {needs}", args[i]))
}

impl HarnessOptions {
    /// Parses `--txs N`, `--seed S`, `--csv PATH`, `--rate TPS`,
    /// `--block-cut N` and `--keys N` from the process arguments.
    ///
    /// `--help` prints the usage and exits with code 0; an unknown or
    /// malformed argument prints the error and the usage to stderr and
    /// exits with code 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let bin = args.first().map_or("bench", |path| {
            path.rsplit(std::path::MAIN_SEPARATOR)
                .next()
                .unwrap_or(path)
        });
        match Self::parse(args.get(1..).unwrap_or_default()) {
            Ok(Some(options)) => options,
            Ok(None) => {
                println!("usage: {bin} {USAGE}");
                std::process::exit(0)
            }
            Err(error) => {
                eprintln!("error: {error}\nusage: {bin} {USAGE}");
                std::process::exit(2)
            }
        }
    }

    /// Parses `args` (without the program name): `Ok(None)` when they
    /// ask for help.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Option<Self>, String> {
        let mut options = HarnessOptions::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--help" => return Ok(None),
                "--txs" => options.total_txs = flag_value(args, i, "a positive integer")?,
                "--seed" => options.seed = flag_value(args, i, "an integer")?,
                "--csv" => options.csv = Some(flag_value(args, i, "a file path")?),
                "--rate" => {
                    let rate: f64 = flag_value(args, i, "a positive number (tps)")?;
                    if rate.is_nan() || rate <= 0.0 {
                        return Err("--rate requires a positive number (tps)".into());
                    }
                    options.rate_tps = Some(rate);
                }
                "--block-cut" => {
                    options.block_cut = Some(flag_value(args, i, "a positive integer")?);
                }
                "--keys" => options.keys = Some(flag_value(args, i, "a positive integer")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
            i += 2;
        }
        Ok(Some(options))
    }

    /// The base experiment configuration under these options.
    pub fn base_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            total_txs: self.total_txs,
            seed: self.seed,
            ..ExperimentConfig::paper_defaults()
        }
    }
}

/// Runs a sweep for both systems and prints the standard figure table.
///
/// `cells` yields `(x-label, config-for-that-x)` given a base config for
/// the system; rows print incrementally so long sweeps show progress.
pub fn run_figure<F>(title: &str, options: &HarnessOptions, systems: &[SystemKind], cells: F)
where
    F: Fn(SystemKind) -> Vec<(String, ExperimentConfig)>,
{
    println!("=== {title} ===");
    println!(
        "(10k-tx paper setup; running {} txs/cell, seed {})\n",
        options.total_txs, options.seed
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &system in systems {
        for (label, config) in cells(system) {
            let result = config.run();
            let row = figure_row(&label, &result);
            eprintln!(
                "  done: {} x={} -> {:.1} tps, {} ok",
                system.label(),
                label,
                result.throughput_tps,
                result.successful
            );
            rows.push(row);
        }
    }
    println!("{}", render_table(&figure_headers(), &rows));

    if let Some(path) = &options.csv {
        let mut csv = figure_headers().join(",");
        csv.push('\n');
        for row in &rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        match std::fs::write(path, csv) {
            Ok(()) => eprintln!("wrote CSV to {path}"),
            Err(e) => eprintln!("could not write CSV to {path}: {e}"),
        }
    }
}

/// Convenience: run one cell.
pub fn run_cell(config: ExperimentConfig) -> ExperimentResult {
    config.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_match_paper() {
        let o = HarnessOptions::default();
        assert_eq!(o.total_txs, 10_000);
        assert_eq!(o.seed, 42);
    }

    fn parse(args: &[&str]) -> Result<Option<HarnessOptions>, String> {
        HarnessOptions::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_reads_every_flag() {
        let o = parse(&[
            "--txs",
            "50",
            "--seed",
            "7",
            "--csv",
            "out.csv",
            "--rate",
            "12.5",
            "--block-cut",
            "9",
            "--keys",
            "3",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            o,
            HarnessOptions {
                total_txs: 50,
                seed: 7,
                csv: Some("out.csv".into()),
                rate_tps: Some(12.5),
                block_cut: Some(9),
                keys: Some(3),
            }
        );
        assert_eq!(parse(&[]).unwrap(), Some(HarnessOptions::default()));
    }

    #[test]
    fn parse_reports_help_and_bad_arguments() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert_eq!(parse(&["--txs", "5", "--help"]).unwrap(), None);
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument \"--bogus\""
        );
        assert_eq!(
            parse(&["--txs", "many"]).unwrap_err(),
            "--txs requires a positive integer"
        );
        assert!(parse(&["--seed"]).is_err(), "missing value");
        assert!(parse(&["--rate", "0"]).is_err());
        assert!(parse(&["--rate", "NaN"]).is_err());
    }

    #[test]
    fn base_config_threads_options() {
        let o = HarnessOptions {
            total_txs: 123,
            seed: 9,
            ..HarnessOptions::default()
        };
        let cfg = o.base_config();
        assert_eq!(cfg.total_txs, 123);
        assert_eq!(cfg.seed, 9);
    }
}
