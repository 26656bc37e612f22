//! What a run prints: host fingerprint, workload facts, correctness
//! checks, a human-readable metric table and the final JSON line.

use std::process::ExitCode;

use crate::stats::{count_above, median, peak_rss_mib, quantile, result_line, Metric};

/// Every per-layer metric a traced run reports, with its unit. The
/// list is shared by all three workloads: a layer a workload bypasses
/// end to end is still replayed standalone over that workload's own
/// blocks, so each figure is a real measurement.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("fabric.peer.prevalidate_us", "us"),
    ("fabric.peer.finalize_us", "us"),
    ("fabric.peer.commit_us", "us"),
    ("ledger.worldstate.clone_us", "us"),
    ("ledger.worldstate.keys", "count"),
    ("crypto.verify_us_per_sig", "us"),
    ("crypto.sigs_verified", "count"),
    ("crypto.sign_us_per_endorsement", "us"),
    ("jsoncrdt.merge_us_per_write", "us"),
    ("core.merge_units", "count"),
    ("core.merge_quad", "count"),
    ("fabric.orderer.cut_us_per_block", "us"),
    ("fabric.chaincode.exec_us_per_tx", "us"),
    ("fabric.validator.reads_checked", "count"),
    ("ledger.codec.encode_us_per_block", "us"),
    ("ledger.codec.decode_us_per_block", "us"),
    ("ledger.store.append_us_per_block", "us"),
    ("gossip.us_per_block", "us"),
    ("gossip.messages_sent", "count"),
    ("gossip.redundant_messages", "count"),
    ("gossip.anti_entropy_bytes", "bytes"),
    ("ordering.raft_us_per_block", "us"),
    ("ordering.messages_sent", "count"),
    ("sim.driver_residual_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.tx_per_s", "tx/s"),
    ("trace.overhead", "ratio"),
];

/// Raw end-to-end measurements of one timed run.
#[derive(Default)]
pub struct E2e {
    /// Transactions submitted during the timed phase.
    pub txs: u64,
    /// Share of the workload's transactions decided invalid (MVCC
    /// conflict, endorsement failure); deterministic for a seed.
    pub failed_frac: f64,
    /// Of those, not decided exactly once — always 0 in a correct run.
    pub lost: u64,
    /// One entry per unit of work (a replay, a sweep, a simulation).
    pub units: Vec<Unit>,
    /// Wall seconds of each set-up performed in the run.
    pub setup_secs: Vec<f64>,
}

/// One timed unit of work.
pub struct Unit {
    /// Transactions decided in the unit.
    pub txs: u64,
    /// Wall seconds of the unit.
    pub wall: f64,
    /// Host milliseconds per block, one sample per block (or per cell).
    pub block_ms: Vec<f64>,
}

impl E2e {
    /// Block samples recorded so far.
    pub fn block_samples(&self) -> usize {
        self.units.iter().map(|u| u.block_ms.len()).sum()
    }

    pub fn unit(&mut self, txs: u64, wall: f64, block_ms: Vec<f64>) {
        self.units.push(Unit {
            txs,
            wall,
            block_ms,
        });
    }
}

/// Fewest block samples in one p99 window: ten or more lie beyond its
/// p99.
pub const P99_WINDOW: usize = 1000;

/// The run's block samples in run order, cut at unit boundaries into
/// windows of at least [`P99_WINDOW`] samples. A short remainder joins
/// the last full window; a run shorter than one window is one window.
fn p99_windows(units: &[Unit]) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for u in units {
        open.extend_from_slice(&u.block_ms);
        if open.len() >= P99_WINDOW {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.append(&mut open),
        None => windows.push(open),
    }
    windows
}

pub struct Report {
    trace: bool,
    checks: Vec<(String, bool)>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        println!(
            "perfbench workload={workload} seed={seed} trace={}",
            u8::from(trace)
        );
        Report {
            trace,
            checks: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Prints the host fingerprint. Numbers taken under different
    /// fingerprints are not comparable.
    pub fn fingerprint(&self, rustc: &str, revision: &str) {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        println!(
            "fingerprint: available_parallelism={threads} cpu=\"{cpu}\" rustc=\"{rustc}\" \
             revision={revision}"
        );
    }

    /// Prints one fact about the workload (seed, sizes, notes).
    pub fn note(&self, line: impl AsRef<str>) {
        println!("  {}", line.as_ref());
    }

    /// Records a correctness check; any failed check makes the run
    /// incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Converts a timed run into the six end-to-end metrics. Throughput
    /// is the median over the run's units of work, so one unit disturbed
    /// by the host does not move it. p50 pools every block; p99 is the
    /// median over windows of at least [`P99_WINDOW`] consecutive block
    /// samples, so each window's p99 has at least ten samples beyond it
    /// and one disturbed stretch of the run does not set the tail.
    pub fn e2e(&mut self, e: &E2e) {
        let blocks: Vec<f64> = e
            .units
            .iter()
            .flat_map(|u| u.block_ms.iter().copied())
            .collect();
        let windows = p99_windows(&e.units);
        let window_p99: Vec<f64> = windows.iter().map(|w| quantile(w, 0.99)).collect();
        let p99 = median(&window_p99);
        let beyond = windows
            .iter()
            .zip(&window_p99)
            .map(|(w, &q)| count_above(w, q))
            .min()
            .unwrap_or(0);
        let unit_tps: Vec<f64> = e.units.iter().map(|u| u.txs as f64 / u.wall).collect();
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.note(format!(
            "timed phase: {} txs in {} units, {:.3} s; {} block samples in {} p99 windows, \
             at least {beyond} above each window's p99; {} set-ups",
            e.txs,
            e.units.len(),
            e.units.iter().map(|u| u.wall).sum::<f64>(),
            blocks.len(),
            windows.len(),
            e.setup_secs.len()
        ));
        self.note(format!("unit tx/s: {}", list(&unit_tps)));
        self.note(format!("window p99 ms: {}", list(&window_p99)));
        self.note(format!("set-up s: {}", list(&e.setup_secs)));
        self.attempted = e.txs;
        self.failed = e.lost;
        self.check("every submitted tx decided exactly once", e.lost == 0);
        self.metrics = vec![
            Metric::new("tx_per_s", "tx/s", median(&unit_tps)),
            Metric::new("block_p50_ms", "ms", median(&blocks)),
            Metric::new("block_p99_ms", "ms", p99),
            Metric::new("setup_s", "s", median(&e.setup_secs)),
            Metric::new("peak_rss_mib", "MiB", peak_rss_mib()),
            Metric::new("tx_failed_frac", "ratio", e.failed_frac),
        ];
    }

    /// Records one per-layer metric (traced runs).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Sets the transaction counts of a traced run.
    pub fn traced_counts(&mut self, attempted: u64, lost: u64) {
        self.attempted = attempted;
        self.failed = lost;
        self.check("every traced tx decided exactly once", lost == 0);
    }

    /// Prints checks, the metric table and the JSON result line.
    pub fn finish(mut self) -> ExitCode {
        let expected: Vec<&str> = if self.trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            vec![
                "tx_per_s",
                "block_p50_ms",
                "block_p99_ms",
                "setup_s",
                "peak_rss_mib",
                "tx_failed_frac",
            ]
        };
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let mut want = expected.clone();
        want.sort_unstable();
        self.check("every declared metric reported once", names == want);
        self.check(
            "every metric finite",
            self.metrics.iter().all(|m| m.value.is_finite()),
        );
        self.check("at least one tx attempted", self.attempted >= 1);
        // Report in declaration order.
        self.metrics
            .sort_by_key(|m| expected.iter().position(|n| *n == m.name));
        for (name, ok) in &self.checks {
            println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
        }
        for m in &self.metrics {
            println!("metric {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        println!(
            "{}",
            result_line(correct, self.attempted, self.failed, &self.metrics)
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_windows_cut_at_unit_boundaries() {
        let unit = |n: usize| Unit {
            txs: 1,
            wall: 1.0,
            block_ms: vec![1.0; n],
        };
        let lens =
            |units: &[Unit]| -> Vec<usize> { p99_windows(units).iter().map(Vec::len).collect() };
        assert_eq!(
            lens(&[unit(1000), unit(1000), unit(1000)]),
            [1000, 1000, 1000]
        );
        assert_eq!(lens(&[unit(600), unit(600), unit(600)]), [1800]);
        assert_eq!(lens(&[unit(1570), unit(1570), unit(300)]), [1570, 1870]);
        assert_eq!(lens(&[unit(60), unit(60)]), [120]);
    }
}
