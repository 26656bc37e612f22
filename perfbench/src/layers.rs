//! The traced replay: re-drives a workload's own block stream through
//! each layer's public functions, with a timer around every call.
//!
//! The simulated workloads cannot be timed from inside (the benchmark
//! adds no spans to the program), so their `Simulation::take_block_log`
//! is replayed through standalone layers instead. Every layer replays
//! the whole log, except that gossip and Raft, the costly replays,
//! replay only a prefix on workloads that bypass them; either way each
//! figure is measured on the workload's own blocks. The caller sums the
//! layers on its end-to-end path into `trace.coverage`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use fabriccrdt_crypto::sha256;
use fabriccrdt_crypto::{Identity, KeyPair};
use fabriccrdt_fabric::chaincode::{Chaincode, ChaincodeStub};
use fabriccrdt_fabric::config::{GossipConfig, PipelineConfig, RaftConfig};
use fabriccrdt_fabric::cost::{CostModel, ValidationWork};
use fabriccrdt_fabric::orderer::Orderer;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::storage::{DurableLedger, StorageBackend, StorageConfig};
use fabriccrdt_fabric::validator::BlockValidator;
use fabriccrdt_gossip::GossipNetwork;
use fabriccrdt_jsoncrdt::json::Value;
use fabriccrdt_jsoncrdt::{JsonCrdt, ReplicaId};
use fabriccrdt_ledger::block::Block;
use fabriccrdt_ledger::codec;
use fabriccrdt_ledger::transaction::Transaction;
use fabriccrdt_ledger::version::Height;
use fabriccrdt_ledger::worldstate::WorldState;
use fabriccrdt_ordering::RaftCluster;
use fabriccrdt_sim::time::SimTime;

use crate::report::Report;
use crate::stats::{median, secs_since};

/// Transactions (whole blocks, at least one) replayed through gossip
/// and Raft when the workload bypasses them.
pub const OFF_PATH_TXS: usize = 1000;

/// One workload's inputs to the replay.
pub struct LayerInput<'a> {
    /// Orderer-cut blocks, unvalidated, with their cut times.
    pub blocks: &'a [(SimTime, Block)],
    /// The world state every replica starts from.
    pub seed_state: &'a [(String, Vec<u8>)],
    /// The workload's pipeline: policy, block cutting, validation
    /// pipeline, and the gossip, Raft and storage settings if it uses
    /// them.
    pub config: &'a PipelineConfig,
    /// The chaincode and one argument list per transaction, for the
    /// execution replay.
    pub chaincode: &'a dyn Chaincode,
    pub invocations: &'a [Vec<String>],
    /// Whether the workload's end-to-end path runs through gossip and
    /// Raft (full-log replay) or bypasses them (prefix replay).
    pub replicated: bool,
    /// Scratch directory for append-only files; emptied afterwards.
    pub work_dir: &'a Path,
}

/// Summed timings (seconds) and counts of one or more replays.
#[derive(Default, Clone)]
pub struct LayerTimes {
    pub blocks: u64,
    pub txs: u64,
    pub decided: u64,
    pub successes: u64,
    pub peer_loop_s: f64,
    pub prevalidate_s: f64,
    pub finalize_s: f64,
    pub commit_s: f64,
    pub work: ValidationWork,
    pub clone_us: Vec<f64>,
    pub keys: u64,
    pub verify_s: f64,
    pub sign_s: f64,
    pub endorsements: u64,
    pub merge_s: f64,
    pub merge_writes: u64,
    pub merge_units: u64,
    pub read_check_s: f64,
    pub reads: u64,
    pub write_apply_s: f64,
    pub writes: u64,
    pub orderer_s: f64,
    pub orderer_blocks: u64,
    pub exec_s: f64,
    pub execs: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub append_s: f64,
    pub codec_blocks: u64,
    pub gossip_s: f64,
    pub gossip_blocks: u64,
    pub gossip_messages: u64,
    pub gossip_redundant: u64,
    pub gossip_ae_bytes: u64,
    pub raft_s: f64,
    pub raft_blocks: u64,
    pub raft_messages: u64,
}

impl LayerTimes {
    pub fn absorb(&mut self, o: &LayerTimes) {
        self.blocks += o.blocks;
        self.txs += o.txs;
        self.decided += o.decided;
        self.successes += o.successes;
        self.peer_loop_s += o.peer_loop_s;
        self.prevalidate_s += o.prevalidate_s;
        self.finalize_s += o.finalize_s;
        self.commit_s += o.commit_s;
        self.work.absorb(o.work);
        self.clone_us.extend_from_slice(&o.clone_us);
        self.keys = self.keys.max(o.keys);
        self.verify_s += o.verify_s;
        self.sign_s += o.sign_s;
        self.endorsements += o.endorsements;
        self.merge_s += o.merge_s;
        self.merge_writes += o.merge_writes;
        self.merge_units += o.merge_units;
        self.read_check_s += o.read_check_s;
        self.reads += o.reads;
        self.write_apply_s += o.write_apply_s;
        self.writes += o.writes;
        self.orderer_s += o.orderer_s;
        self.orderer_blocks += o.orderer_blocks;
        self.exec_s += o.exec_s;
        self.execs += o.execs;
        self.encode_s += o.encode_s;
        self.decode_s += o.decode_s;
        self.append_s += o.append_s;
        self.codec_blocks += o.codec_blocks;
        self.gossip_s += o.gossip_s;
        self.gossip_blocks += o.gossip_blocks;
        self.gossip_messages += o.gossip_messages;
        self.gossip_redundant += o.gossip_redundant;
        self.gossip_ae_bytes += o.gossip_ae_bytes;
        self.raft_s += o.raft_s;
        self.raft_blocks += o.raft_blocks;
        self.raft_messages += o.raft_messages;
    }

    /// Seconds of the committing peer's three stages.
    pub fn peer_s(&self) -> f64 {
        self.prevalidate_s + self.finalize_s + self.commit_s
    }

    /// Host seconds of the endorsement path: chaincode execution plus
    /// one signature per endorsement.
    pub fn endorse_s(&self) -> f64 {
        self.exec_s + self.sign_s
    }
}

/// The result of one replay: timings plus the replay peer's final
/// ledger digest, for the equality checks.
pub struct Replayed {
    pub times: LayerTimes,
    pub ledger_digest: [u8; 32],
}

/// SHA-256 over a peer's encoded chain and world state.
pub fn ledger_digest<V: BlockValidator>(peer: &Peer<V>) -> [u8; 32] {
    let snapshot = peer.snapshot();
    let mut h = sha256::Sha256::new();
    h.update(&snapshot.chain);
    h.update(&snapshot.state);
    h.finalize()
}

fn us(secs: f64, n: u64) -> f64 {
    secs * 1e6 / n.max(1) as f64
}

/// Replays `input` through every layer; `make` builds the workload's
/// validator (one per replica).
pub fn replay<V: BlockValidator + 'static>(input: &LayerInput<'_>, make: fn() -> V) -> Replayed {
    let mut t = LayerTimes::default();
    let mut peer =
        Peer::new(make(), input.config.policy.clone()).with_pipeline(input.config.validation);
    for (key, value) in input.seed_state {
        peer.seed_state(key.clone(), value.clone());
    }

    exec_replay(input, peer.state(), &mut t);
    mvcc_units(input.blocks, peer.state(), &mut t);
    crypto_replay(input.blocks, &mut t);
    merge_replay(input.blocks, &mut t);

    // The committing peer, timed per stage.
    let loop_start = Instant::now();
    for (_, block) in input.blocks {
        let block = block.clone();
        t.txs += block.transactions.len() as u64;
        let s = Instant::now();
        let prep = peer.prevalidate(block);
        let f = Instant::now();
        let staged = peer.finish_block(prep);
        let c = Instant::now();
        t.work.absorb(staged.work);
        peer.commit(staged)
            .expect("replayed blocks extend the chain");
        let e = Instant::now();
        t.prevalidate_s += (f - s).as_secs_f64();
        t.finalize_s += (c - f).as_secs_f64();
        t.commit_s += (e - c).as_secs_f64();
        t.blocks += 1;
    }
    t.peer_loop_s = secs_since(loop_start);
    let chain = peer.chain();
    for block in chain.iter() {
        t.decided += block.validation_codes.len() as u64;
        t.successes += block.successful_count() as u64;
    }
    t.keys = peer.state().len() as u64;
    t.clone_us = (0..5)
        .map(|_| {
            let s = Instant::now();
            let copy = std::hint::black_box(peer.state().clone());
            let elapsed = secs_since(s) * 1e6;
            drop(copy);
            elapsed
        })
        .collect();

    let validated: Vec<&Block> = chain.iter().filter(|b| b.header.number > 0).collect();
    codec_replay(&validated, &mut t);
    store_replay(&validated, input.work_dir, &mut t);
    orderer_replay(input, &mut t);
    let prefix = if input.replicated {
        input.blocks.len()
    } else {
        off_path_prefix(input.blocks)
    };
    gossip_replay(input, make, prefix, &mut t);
    raft_replay(input, prefix, &mut t);

    Replayed {
        times: t,
        ledger_digest: ledger_digest(&peer),
    }
}

/// Number of leading blocks that hold [`OFF_PATH_TXS`] transactions.
fn off_path_prefix(blocks: &[(SimTime, Block)]) -> usize {
    let mut txs = 0;
    for (i, (_, block)) in blocks.iter().enumerate() {
        txs += block.transactions.len();
        if txs >= OFF_PATH_TXS {
            return i + 1;
        }
    }
    blocks.len()
}

/// Each standalone replay except the peer's and gossip's (the costly
/// ones) runs this many times and reports its median.
const REPS: usize = 3;

/// Median of `REPS` calls of `timed`, each returning the seconds its
/// measured part took.
fn median_secs(mut timed: impl FnMut() -> f64) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|_| timed()).collect();
    median(&secs)
}

/// `Chaincode::invoke` on a stub over the seeded state, once per
/// transaction.
fn exec_replay(input: &LayerInput<'_>, state: &WorldState, t: &mut LayerTimes) {
    t.exec_s += median_secs(|| {
        let start = Instant::now();
        for args in input.invocations {
            let mut stub = ChaincodeStub::new(state);
            input
                .chaincode
                .invoke(&mut stub, args)
                .expect("workload invocations execute");
            std::hint::black_box(stub.into_result());
        }
        secs_since(start)
    });
    t.execs += input.invocations.len() as u64;
}

/// Standalone MVCC read checks and write applies against the seeded
/// state, for the cost-model side-by-side.
fn mvcc_units(blocks: &[(SimTime, Block)], state: &WorldState, t: &mut LayerTimes) {
    let reads: Vec<(&String, Option<Height>)> = blocks
        .iter()
        .flat_map(|(_, b)| b.transactions.iter())
        .flat_map(|tx| tx.rwset.reads.iter().map(|(k, e)| (k, e.version)))
        .collect();
    t.read_check_s += median_secs(|| {
        let start = Instant::now();
        let matched = reads
            .iter()
            .filter(|(key, version)| state.version(key) == *version)
            .count();
        std::hint::black_box(matched);
        secs_since(start)
    });
    t.reads += reads.len() as u64;

    let mut writes: Vec<(String, Vec<u8>, Height)> = Vec::new();
    for (_, block) in blocks {
        for (i, tx) in block.transactions.iter().enumerate() {
            for (key, entry) in tx.rwset.writes.iter() {
                let at = Height::new(block.header.number, i as u64);
                writes.push((key.clone(), entry.value.clone(), at));
            }
        }
    }
    t.write_apply_s += median_secs(|| {
        let mut target = state.clone();
        let batch = writes.clone();
        let start = Instant::now();
        for (key, value, at) in batch {
            target.put(key, value, at);
        }
        let elapsed = secs_since(start);
        std::hint::black_box(target);
        elapsed
    });
    t.writes += writes.len() as u64;
}

/// `KeyPair::verify` and `KeyPair::sign` over every endorsement.
fn crypto_replay(blocks: &[(SimTime, Block)], t: &mut LayerTimes) {
    let mut keys: HashMap<Identity, KeyPair> = HashMap::new();
    let mut items = Vec::new();
    for (_, block) in blocks {
        for tx in &block.transactions {
            let payload = tx.response_payload();
            for e in &tx.endorsements {
                keys.entry(e.endorser.clone())
                    .or_insert_with(|| KeyPair::derive(e.endorser.clone()));
                items.push((e.endorser.clone(), payload.clone(), e.signature));
            }
        }
    }
    t.verify_s += median_secs(|| {
        let start = Instant::now();
        let ok = items
            .iter()
            .filter(|(who, payload, sig)| keys[who].verify(payload, sig).is_ok())
            .count();
        std::hint::black_box(ok);
        secs_since(start)
    });
    t.sign_s += median_secs(|| {
        let start = Instant::now();
        for (who, payload, _) in &items {
            std::hint::black_box(keys[who].sign(payload));
        }
        secs_since(start)
    });
    t.endorsements += items.len() as u64;
}

/// `JsonCrdt::merge_value` of every map-valued write into its key's
/// document for the block, the way Algorithm 1 groups a block's writes
/// per key. Writes the workload commits plainly (vanilla Fabric) are
/// merged too, so the figure is measured on every workload.
fn merge_replay(blocks: &[(SimTime, Block)], t: &mut LayerTimes) {
    // Per block, its map-valued writes in order.
    let per_block: Vec<Vec<(&str, Value)>> = blocks
        .iter()
        .map(|(_, block)| {
            block
                .transactions
                .iter()
                .flat_map(|tx| tx.rwset.writes.iter())
                .filter_map(|(key, entry)| {
                    let value = Value::from_bytes(&entry.value).ok()?;
                    value.as_map().is_some().then_some((key.as_str(), value))
                })
                .collect()
        })
        .collect();
    let mut units = 0u64;
    t.merge_s += median_secs(|| {
        units = 0;
        let mut elapsed = 0.0;
        for writes in &per_block {
            let mut docs: BTreeMap<&str, JsonCrdt> = BTreeMap::new();
            for (key, value) in writes {
                let doc = docs
                    .entry(key)
                    .or_insert_with(|| JsonCrdt::new(ReplicaId(1)));
                let start = Instant::now();
                let work = doc.merge_value(value).expect("map values merge");
                elapsed += secs_since(start);
                units += work.units();
            }
        }
        elapsed
    });
    t.merge_units += units;
    t.merge_writes += per_block.iter().map(|w| w.len() as u64).sum::<u64>();
}

/// `codec::encode_block` and `codec::decode_block` of every validated
/// block.
fn codec_replay(validated: &[&Block], t: &mut LayerTimes) {
    let encoded: Vec<Vec<u8>> = validated.iter().map(|b| codec::encode_block(b)).collect();
    t.encode_s += median_secs(|| {
        let start = Instant::now();
        for block in validated {
            std::hint::black_box(codec::encode_block(block));
        }
        secs_since(start)
    });
    t.decode_s += median_secs(|| {
        let start = Instant::now();
        for bytes in &encoded {
            std::hint::black_box(codec::decode_block(bytes).expect("own encoding decodes"));
        }
        secs_since(start)
    });
    t.codec_blocks += validated.len() as u64;
}

/// `DurableLedger::append_block` of every validated block on a fresh
/// append-only file (no fsync).
fn store_replay(validated: &[&Block], work_dir: &Path, t: &mut LayerTimes) {
    let dir = work_dir.join("store-replay");
    t.append_s += median_secs(|| {
        let _ = std::fs::remove_dir_all(&dir);
        let config = StorageConfig::append_only(&dir);
        let mut ledger = DurableLedger::open(&config, 0).expect("open append-only ledger");
        let start = Instant::now();
        for block in validated {
            ledger
                .append_block(block)
                .expect("append to append-only ledger");
        }
        secs_since(start)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every transaction of `blocks` with its block's cut time, in order.
fn cut_txs(blocks: &[(SimTime, Block)]) -> Vec<(SimTime, Transaction)> {
    blocks
        .iter()
        .flat_map(|(at, b)| b.transactions.iter().map(move |tx| (*at, tx.clone())))
        .collect()
}

/// `Orderer::receive` for every transaction in cut order, then
/// `timeout_fired` for the trailing batch.
fn orderer_replay(input: &LayerInput<'_>, t: &mut LayerTimes) {
    let txs = cut_txs(input.blocks);
    let mut cut = 0u64;
    t.orderer_s += median_secs(|| {
        let batch = txs.clone();
        let mut orderer = Orderer::new(input.config.block_cut);
        let mut pending_timeout = None;
        cut = 0;
        let start = Instant::now();
        for (at, tx) in batch {
            let (block, timeout) = orderer.receive(tx, at);
            cut += u64::from(block.is_some());
            if timeout.is_some() {
                pending_timeout = timeout;
            }
        }
        if let Some(timeout) = pending_timeout {
            cut += u64::from(orderer.timeout_fired(timeout).is_some());
        }
        secs_since(start)
    });
    t.orderer_blocks += cut;
}

/// `GossipNetwork::publish` + `drain` of the first `prefix` blocks
/// across the paper topology, with the workload's storage settings.
fn gossip_replay<V: BlockValidator + 'static>(
    input: &LayerInput<'_>,
    make: fn() -> V,
    prefix: usize,
    t: &mut LayerTimes,
) {
    let mut config = input.config.clone();
    if config.gossip.is_none() {
        config.gossip = Some(GossipConfig::calibrated(&config.topology));
    }
    let dir = input.work_dir.join("gossip-replay");
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(storage) = &mut config.storage {
        if let StorageBackend::AppendOnlyFile { dir: d } = &mut storage.backend {
            d.clone_from(&dir);
        }
    }
    let mut network = GossipNetwork::new(&config, make);
    for (key, value) in input.seed_state {
        network.seed_state(key, value);
    }
    let blocks: Vec<(SimTime, Block)> = input.blocks[..prefix].to_vec();
    let start = Instant::now();
    for (at, block) in blocks {
        network.publish(at, block);
    }
    network.drain();
    t.gossip_s += secs_since(start);
    let metrics = network.take_metrics();
    t.gossip_blocks += prefix as u64;
    t.gossip_messages += metrics.messages_sent;
    t.gossip_redundant += metrics.redundant_messages;
    t.gossip_ae_bytes += metrics.anti_entropy_bytes;
    drop(network);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `RaftCluster::enqueue` of the first `prefix` blocks' transactions
/// at their cut times, then `drain` until every entry commits.
fn raft_replay(input: &LayerInput<'_>, prefix: usize, t: &mut LayerTimes) {
    let mut config = input.config.clone();
    if config.ordering.is_none() {
        config.ordering = Some(RaftConfig::calibrated(5));
    }
    let txs = cut_txs(&input.blocks[..prefix]);
    let mut emitted = 0u64;
    let mut messages = 0u64;
    t.raft_s += median_secs(|| {
        let batch = txs.clone();
        let mut cluster = RaftCluster::new(&config);
        let start = Instant::now();
        for (at, tx) in batch {
            cluster.enqueue(at, tx);
        }
        cluster.drain();
        let elapsed = secs_since(start);
        emitted = cluster.emitted().len() as u64;
        messages = cluster.take_metrics().messages_sent;
        elapsed
    });
    t.raft_blocks += emitted;
    t.raft_messages += messages;
}

/// Emits the per-layer metrics, given the traced end-to-end wall time,
/// the seconds the on-path layers account for, and the traced and
/// untraced throughputs.
pub fn emit(
    report: &mut Report,
    t: &LayerTimes,
    traced_wall_s: f64,
    on_path_s: f64,
    traced_tps: f64,
    untraced_tps: f64,
) {
    report.layer("fabric.peer.prevalidate_us", us(t.prevalidate_s, t.blocks));
    report.layer("fabric.peer.finalize_us", us(t.finalize_s, t.blocks));
    report.layer("fabric.peer.commit_us", us(t.commit_s, t.blocks));
    report.layer("ledger.worldstate.clone_us", median(&t.clone_us));
    report.layer("ledger.worldstate.keys", t.keys as f64);
    report.layer("crypto.verify_us_per_sig", us(t.verify_s, t.endorsements));
    report.layer("crypto.sigs_verified", t.work.sigs_verified as f64);
    report.layer(
        "crypto.sign_us_per_endorsement",
        us(t.sign_s, t.endorsements),
    );
    report.layer("jsoncrdt.merge_us_per_write", us(t.merge_s, t.merge_writes));
    report.layer("core.merge_units", t.work.merge_units as f64);
    report.layer("core.merge_quad", t.work.merge_quad as f64);
    report.layer(
        "fabric.orderer.cut_us_per_block",
        us(t.orderer_s, t.orderer_blocks),
    );
    report.layer("fabric.chaincode.exec_us_per_tx", us(t.exec_s, t.execs));
    report.layer(
        "fabric.validator.reads_checked",
        t.work.reads_checked as f64,
    );
    report.layer(
        "ledger.codec.encode_us_per_block",
        us(t.encode_s, t.codec_blocks),
    );
    report.layer(
        "ledger.codec.decode_us_per_block",
        us(t.decode_s, t.codec_blocks),
    );
    report.layer(
        "ledger.store.append_us_per_block",
        us(t.append_s, t.codec_blocks),
    );
    report.layer("gossip.us_per_block", us(t.gossip_s, t.gossip_blocks));
    report.layer("gossip.messages_sent", t.gossip_messages as f64);
    report.layer("gossip.redundant_messages", t.gossip_redundant as f64);
    report.layer("gossip.anti_entropy_bytes", t.gossip_ae_bytes as f64);
    report.layer("ordering.raft_us_per_block", us(t.raft_s, t.raft_blocks));
    report.layer("ordering.messages_sent", t.raft_messages as f64);
    report.layer("sim.driver_residual_s", traced_wall_s - on_path_s);
    report.layer("trace.coverage", on_path_s / traced_wall_s);
    report.layer("trace.tx_per_s", traced_tps);
    report.layer("trace.overhead", traced_tps / untraced_tps);
    report.note(format!(
        "trace: {} blocks, {} txs replayed; traced wall {traced_wall_s:.3} s, on-path layers \
         {on_path_s:.3} s; gossip over {} blocks, Raft over {} blocks",
        t.blocks, t.txs, t.gossip_blocks, t.raft_blocks
    ));
    cost_model_side_by_side(report, t);
}

/// Host nanoseconds per work unit beside the `CostModel::calibrated`
/// constants. A report only: the model is calibrated to the paper's
/// testbed, not to this host.
fn cost_model_side_by_side(report: &Report, t: &LayerTimes) {
    let model = CostModel::calibrated();
    let ns = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let sig = ns(t.verify_s, t.endorsements);
    let read = ns(t.read_check_s, t.reads);
    let write = ns(t.write_apply_s, t.writes);
    let merge = ns(t.merge_s, t.merge_units);
    // What a block costs beyond its per-unit terms: the peer stages
    // minus the unit costs the model charges separately.
    let w = &t.work;
    let unit_s = (sig * w.sigs_verified as f64
        + read * w.reads_checked as f64
        + write * w.writes_applied as f64
        + merge * w.merge_units as f64)
        / 1e9;
    let block = ns(t.peer_s() - unit_s, t.blocks);
    report.note(
        "cost model: host ns per unit vs CostModel::calibrated() (report, not a recalibration)",
    );
    for (name, host, model_us) in [
        ("sig verify", sig, model.per_sig_verify_us),
        ("read check", read, model.per_read_check_us),
        ("write apply", write, model.per_write_commit_us),
        ("merge unit", merge, model.per_merge_unit_us),
        ("block overhead", block, model.block_overhead_us),
    ] {
        report.note(format!(
            "  {name:<15} host {host:>14.1} ns   model {:>14.1} ns",
            model_us * 1e3
        ));
    }
}
