//! `fig3-sweep`: the Figure 3 / Table 1 sweep through
//! `ExperimentConfig::run` — FabricCRDT and Fabric at block sizes 25 …
//! 1000, 10 000 transactions per cell, all on one hot key, at a 300
//! tx/s simulated open loop.
//!
//! Why: regenerating the paper's figures is what this repository's
//! users run. At large blocks, merging into one growing document
//! (`jsoncrdt`, `core`) dominates; the Fabric half fails by MVCC on the
//! same key. The world state holds one key, so this workload is the
//! bypass side for any per-block state cost.
//!
//! `ExperimentConfig::run` exposes no per-block hook, so for
//! `block_p50_ms` and `block_p99_ms` each block stands for its cell's
//! host time divided by the cell's block count.

use std::sync::Arc;
use std::time::Instant;

use fabriccrdt::{fabric_simulation, fabriccrdt_simulation, CrdtValidator};
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeRegistry};
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_fabric::metrics::RunMetrics;
use fabriccrdt_fabric::simulation::{Simulation, TxRequest};
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_ledger::block::Block;
use fabriccrdt_sim::arrivals::{ArrivalKind, ArrivalProcess};
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::experiment::{ExperimentConfig, ExperimentResult, SystemKind};
use fabriccrdt_workload::generator::shaped_payload;
use fabriccrdt_workload::iot::IotChaincode;

use crate::layers::{self, LayerInput, LayerTimes};
use crate::report::{E2e, Report};
use crate::stats::secs_since;

const BLOCK_SIZES: [usize; 6] = [25, 50, 100, 200, 400, 1000];
const SYSTEMS: [SystemKind; 2] = [SystemKind::FabricCrdt, SystemKind::Fabric];
const TXS_PER_CELL: usize = 10_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The reference sweep run as set-up: the paper's seed, 500
/// transactions per cell.
const REFERENCE_SEED: u64 = 42;
const REFERENCE_TXS: usize = 500;
/// `(successful, throughput_tps, p95_latency_secs)` per cell of the
/// reference sweep, in sweep order, as `ExperimentConfig::run` gave
/// them when this benchmark was defined. Compared exactly.
const REFERENCE: [(usize, f64, f64); 12] = [
    (500, 260.941948244774, 0.301362),
    (500, 244.0400538059511, 0.500901),
    (500, 200.16221145616407, 1.081307),
    (500, 132.56660345007236, 2.355022),
    (500, 98.05715437745768, 4.583599),
    (500, 72.99866850428647, 6.766107),
    (20, 11.627095784015069, 0.084731),
    (10, 5.686457814444058, 0.258194),
    (5, 2.7248193989702365, 0.502079),
    (3, 0.8560827820635818, 1.851001),
    (1, 0.28539545821667794, 1.957172),
    (1, 0.3597711136175165, 2.779545),
];

fn cells(seed: u64, txs: usize) -> Vec<ExperimentConfig> {
    SYSTEMS
        .iter()
        .flat_map(|&system| {
            BLOCK_SIZES.iter().map(move |&block_size| ExperimentConfig {
                system,
                block_size,
                total_txs: txs,
                seed,
                ..ExperimentConfig::paper_defaults()
            })
        })
        .collect()
}

fn label(c: &ExperimentConfig) -> String {
    format!("{}@{}", c.system.label(), c.block_size)
}

/// Runs every cell once; returns results and per-cell wall seconds.
fn sweep(cells: &[ExperimentConfig]) -> (Vec<ExperimentResult>, Vec<f64>) {
    cells
        .iter()
        .map(|&c| {
            let start = Instant::now();
            let r = c.run();
            (r, secs_since(start))
        })
        .unzip()
}

/// Set-up: the reference sweep, checked against the recorded values
/// (it also lets lazy process state settle before timing).
fn setup(report: &mut Report, setup_secs: &mut Vec<f64>) {
    let cells = cells(REFERENCE_SEED, REFERENCE_TXS);
    let mut all = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (results, _) = sweep(&cells);
        setup_secs.push(secs_since(start));
        all.push(results);
    }
    let got: Vec<(usize, f64, f64)> = all[0]
        .iter()
        .map(|r| (r.successful, r.throughput_tps, r.p95_latency_secs))
        .collect();
    if got != REFERENCE {
        report.note(format!("reference sweep gave {got:?}"));
    }
    report.check(
        "fig3-sweep: reference cells' success count, goodput and p95 equal the recorded values",
        got == REFERENCE && all.iter().all(|r| *r == all[0]),
    );
}

fn describe(report: &Report, seed: u64, results: &[ExperimentResult]) {
    report.note(format!(
        "fig3-sweep: seed {seed}, {} cells x {TXS_PER_CELL} txs, one hot key, 300 tx/s simulated",
        results.len()
    ));
    for r in results {
        report.note(format!(
            "  {:<16} {:>6} ok {:>6} failed {:>5} blocks  goodput {:>7.1} tx/s  p95 {:.3} s",
            label(&r.config),
            r.successful,
            r.failed,
            r.blocks,
            r.throughput_tps,
            r.p95_latency_secs
        ));
    }
}

/// Counts a sweep's outcome: (submitted, invalid, not decided).
fn tally(results: &[ExperimentResult]) -> (u64, u64, u64) {
    results.iter().fold((0, 0, 0), |(s, i, l), r| {
        let total = r.config.total_txs as u64;
        let decided = (r.successful + r.failed) as u64;
        (s + total, i + r.failed as u64, l + total.abs_diff(decided))
    })
}

pub fn timed(seed: u64, seconds: f64, report: &mut Report) {
    let mut e = E2e::default();
    setup(report, &mut e.setup_secs);
    let cells = cells(seed, TXS_PER_CELL);
    let mut sweeps: Vec<Vec<ExperimentResult>> = Vec::new();
    let phase = Instant::now();
    while sweeps.is_empty() || secs_since(phase) < seconds {
        let (results, walls) = sweep(&cells);
        let (submitted, invalid, lost) = tally(&results);
        e.txs += submitted;
        e.failed_frac = invalid as f64 / submitted as f64;
        e.lost += lost;
        // Each block stands for its cell's mean host time per block.
        let block_ms = results.iter().zip(&walls).flat_map(|(r, w)| {
            let blocks = r.blocks.max(1);
            std::iter::repeat_n(w * 1e3 / blocks as f64, blocks as usize)
        });
        e.unit(submitted, walls.iter().sum(), block_ms.collect());
        sweeps.push(results);
    }
    describe(report, seed, &sweeps[0]);
    report.note(format!("{} sweeps", sweeps.len()));
    report.check(
        "fig3-sweep: every sweep gives identical cells",
        sweeps.iter().all(|s| *s == sweeps[0]),
    );
    report.check(
        "fig3-sweep: FabricCRDT commits every transaction in every cell",
        sweeps[0]
            .iter()
            .filter(|r| r.config.system == SystemKind::FabricCrdt)
            .all(|r| r.successful == TXS_PER_CELL),
    );
    report.e2e(&e);
}

type Schedule = Vec<(SimTime, TxRequest)>;
type SeedState = Vec<(String, Vec<u8>)>;

/// Rebuilds the inputs `ExperimentConfig::run` generates for a cell of
/// this sweep (one shared key, every transaction conflicting), so the
/// traced run can build the same simulation and take its block log.
fn cell_inputs(c: &ExperimentConfig) -> (Schedule, SeedState) {
    assert!(c.conflict_pct == 100 && c.read_keys == 1 && c.write_keys == 1);
    let key = vec!["shared-0".to_string()];
    let chaincode = iot(c.system);
    let mut rng = SimRng::seed_from(c.seed ^ 0x9e37_79b9);
    let arrivals =
        ArrivalProcess::new(c.rate_tps, c.total_txs, ArrivalKind::Uniform).generate(&mut rng);
    let schedule = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let payload = shaped_payload(c.shape, &key[0], i).to_compact_string();
            let args = IotChaincode::args(&key, &key, &payload);
            (at, TxRequest::new(chaincode.name(), args))
        })
        .collect();
    let seed_value = shaped_payload(c.shape, "seed", usize::MAX).to_compact_string();
    (schedule, vec![(key[0].clone(), seed_value.into_bytes())])
}

fn iot(system: SystemKind) -> IotChaincode {
    match system {
        SystemKind::FabricCrdt => IotChaincode::crdt(),
        _ => IotChaincode::plain(),
    }
}

/// One cell's traced run: its own simulation with the block log on,
/// then the layer replay of that log.
fn traced_cell<V: BlockValidator + 'static>(
    mut sim: Simulation<V>,
    make: fn() -> V,
    c: &ExperimentConfig,
    report: &mut Report,
) -> (RunMetrics, f64, LayerTimes) {
    let (schedule, seed_state) = cell_inputs(c);
    let invocations: Vec<Vec<String>> = schedule.iter().map(|(_, r)| r.args.clone()).collect();
    for (k, v) in &seed_state {
        sim.seed_state(k.clone(), v.clone());
    }
    sim.enable_block_log();
    let start = Instant::now();
    let metrics = sim.run(schedule);
    let wall = secs_since(start);
    let blocks: Vec<(SimTime, Block)> = sim.take_block_log();
    let work_dir = crate::work_dir("fig3-trace");
    let replayed = layers::replay(
        &LayerInput {
            blocks: &blocks,
            seed_state: &seed_state,
            config: &PipelineConfig::paper(c.block_size, c.seed),
            chaincode: &iot(c.system),
            invocations: &invocations,
            replicated: false,
            work_dir: &work_dir,
        },
        make,
    );
    let _ = std::fs::remove_dir_all(&work_dir);
    report.check(
        format!(
            "fig3-sweep: {} replayed block log reproduces the success count",
            label(c)
        ),
        replayed.times.successes == metrics.successful() as u64,
    );
    (metrics, wall, replayed.times)
}

pub fn traced(seed: u64, report: &mut Report) {
    let cells = cells(seed, TXS_PER_CELL);
    let (results, walls) = sweep(&cells);
    let untraced_wall: f64 = walls.iter().sum();
    describe(report, seed, &results);

    let mut total = LayerTimes::default();
    let mut traced_wall = 0.0;
    let mut submitted = 0u64;
    let mut lost = 0u64;
    for (c, r) in cells.iter().zip(&results) {
        let mut registry = ChaincodeRegistry::new();
        registry.deploy(Arc::new(iot(c.system)));
        let pipeline = PipelineConfig::paper(c.block_size, c.seed);
        let (metrics, wall, times) = match c.system {
            SystemKind::FabricCrdt => traced_cell(
                fabriccrdt_simulation(pipeline, registry),
                CrdtValidator::new,
                c,
                report,
            ),
            _ => traced_cell(
                fabric_simulation(pipeline, registry),
                FabricValidator::new,
                c,
                report,
            ),
        };
        report.check(
            format!(
                "fig3-sweep: {} traced simulation reproduces ExperimentConfig::run",
                label(c)
            ),
            metrics.successful() == r.successful
                && metrics.blocks_committed == r.blocks
                && metrics.successful_throughput_tps() == r.throughput_tps,
        );
        submitted += c.total_txs as u64;
        lost += (c.total_txs as u64).abs_diff(times.decided);
        traced_wall += wall;
        total.absorb(&times);
    }
    report.traced_counts(submitted, lost);
    let on_path = total.peer_s() + total.endorse_s() + total.orderer_s;
    layers::emit(
        report,
        &total,
        traced_wall,
        on_path,
        submitted as f64 / traced_wall,
        submitted as f64 / untraced_wall,
    );
}
