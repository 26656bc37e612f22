//! `commit-crdt`: closed-loop replay of a pre-endorsed CRDT block
//! stream through one `Peer<CrdtValidator>` at its default pipeline.
//!
//! Why: it is the committer's own throughput and latency, the loop the
//! repository's `commit_path` bench drives. Most of its time goes to
//! `fabric::peer`, `ledger::worldstate` and `crypto`; it bypasses `sim`,
//! the orderer, `gossip` and `ordering`. Keys repeat (`k{i mod 10 000}`
//! over a state seeded with those 10 000 keys), so the state size stays
//! fixed and block latency is stationary.
//!
//! Inputs: 1000 blocks of 25 transactions; each transaction writes an
//! 8-reading JSON document and carries 4 endorsements. One transaction
//! in every 50, at a seed-chosen position, carries a forged
//! endorsement, so the invalid path runs and `tx_failed_frac` is
//! exactly 0.02 rather than 0.

use std::fmt::Write as _;
use std::time::Instant;

use fabriccrdt::CrdtValidator;
use fabriccrdt_crypto::{hex, Identity, KeyPair};
use fabriccrdt_fabric::config::PipelineConfig;
use fabriccrdt_fabric::peer::Peer;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_jsoncrdt::cache;
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_sim::rng::SimRng;
use fabriccrdt_sim::time::SimTime;
use fabriccrdt_workload::iot::IotChaincode;

use crate::layers::{self, ledger_digest, LayerInput};
use crate::report::{E2e, Report};
use crate::stats::secs_since;

const BLOCKS: usize = 1000;
const BLOCK_TXS: usize = 25;
const KEYS: usize = 10_000;
const READINGS: usize = 8;
const ORGS: [&str; 4] = ["org1", "org2", "org3", "org4"];
/// One forged endorsement per this many transactions.
const FORGED_EVERY: usize = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Pads each reading to about 60 bytes.
const PAD: &str = "0123456789abcdef0123456789abcdef";

/// The reference stream: seed 0, 40 blocks, replayed in every run.
const GOLDEN_SEED: u64 = 0;
const GOLDEN_BLOCKS: usize = 40;
/// SHA-256 of the reference stream's encoded chain and state, as the
/// committer produced it when this benchmark was defined.
const GOLDEN_DIGEST: &str = "3b645df710b7830a4530040d1cbd27592d88e5acfc72a33c4306790e0d2ca60a";

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(ORGS)
}

/// The generated inputs: blocks, the seeded keys and, per transaction,
/// the chaincode arguments that would have produced its write set.
struct Inputs {
    blocks: Vec<Block>,
    seed_state: Vec<(String, Vec<u8>)>,
    invocations: Vec<Vec<String>>,
    forged: usize,
}

fn key(i: usize) -> String {
    format!("k{}", i % KEYS)
}

fn generate(seed: u64, blocks: usize) -> Inputs {
    let mut rng = SimRng::seed_from(seed);
    let client = Identity::new("client", "org1");
    let signers: Vec<KeyPair> = ORGS
        .iter()
        .map(|org| KeyPair::derive(Identity::new("peer0", *org)))
        .collect();
    let total = blocks * BLOCK_TXS;
    let forged_at: Vec<usize> = (0..total.div_ceil(FORGED_EVERY))
        .map(|g| g * FORGED_EVERY + rng.gen_range(0, FORGED_EVERY as u64) as usize)
        .collect();
    let mut invocations = Vec::with_capacity(total);
    let mut txs = Vec::with_capacity(total);
    for i in 0..total {
        let k = key(i);
        let mut doc = format!(r#"{{"deviceID":"{k}","readings":["#);
        for j in 0..READINGS {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(doc, r#"{sep}"{:016x}-{j}-{PAD}""#, rng.next_u64());
        }
        doc.push_str("]}");
        let mut rwset = ReadWriteSet::new();
        rwset.writes.put_crdt(k.clone(), doc.clone().into_bytes());
        invocations.push(IotChaincode::args(&[], std::slice::from_ref(&k), &doc));
        let mut tx = Transaction {
            id: TxId::derive(&client, seed.wrapping_mul(1 << 32) + i as u64, "iot-crdt"),
            client: client.clone(),
            chaincode: "iot-crdt".into(),
            rwset,
            endorsements: Vec::new(),
        };
        let payload = tx.response_payload();
        for kp in &signers {
            tx.endorsements.push(Endorsement {
                endorser: kp.identity().clone(),
                signature: kp.sign(&payload),
            });
        }
        if forged_at.binary_search(&i).is_ok() {
            // Signed over other bytes: the signature does not verify.
            let last = tx.endorsements.last_mut().expect("four endorsements");
            last.signature = signers[ORGS.len() - 1].sign(b"forged");
        }
        txs.push(tx);
    }
    let mut it = txs.into_iter();
    let blocks = (1..=blocks as u64)
        .map(|number| Block::assemble(number, [0; 32], it.by_ref().take(BLOCK_TXS).collect()))
        .collect();
    let seed_state = (0..KEYS)
        .map(|i| {
            let k = key(i);
            let value = format!(r#"{{"deviceID":"{k}","readings":[]}}"#).into_bytes();
            (k, value)
        })
        .collect();
    Inputs {
        blocks,
        seed_state,
        invocations,
        forged: forged_at.iter().filter(|&&i| i < total).count(),
    }
}

fn seeded_peer(inputs: &Inputs) -> Peer<CrdtValidator> {
    let mut peer = Peer::new(CrdtValidator::new(), policy());
    for (k, v) in &inputs.seed_state {
        peer.seed_state(k.clone(), v.clone());
    }
    peer
}

/// One replay of the whole stream through a fresh peer; returns the
/// peer and each block's host milliseconds.
fn replay(inputs: &Inputs) -> (Peer<CrdtValidator>, Vec<f64>, f64) {
    // Every replay pays the same decode bill, like a committer that
    // sees each payload for the first time.
    cache::clear();
    let mut peer = seeded_peer(inputs);
    let mut block_ms = Vec::with_capacity(inputs.blocks.len());
    let start = Instant::now();
    for block in &inputs.blocks {
        let block = block.clone();
        let t0 = Instant::now();
        let staged = peer.process_block(block);
        peer.commit(staged).expect("blocks arrive in chain order");
        block_ms.push(secs_since(t0) * 1e3);
    }
    let wall = secs_since(start);
    (peer, block_ms, wall)
}

/// Counts a replayed peer's invalid transactions and checks that
/// exactly the forged ones failed, all others merged, and the state
/// holds exactly the seeded keys.
fn outcome(peer: &Peer<CrdtValidator>, inputs: &Inputs) -> (u64, bool) {
    let chain = peer.chain();
    let mut invalid = 0u64;
    // The chain also holds the genesis block.
    let mut ok = chain.height() == inputs.blocks.len() as u64 + 1 && peer.state().len() == KEYS;
    for block in chain.iter() {
        for code in &block.validation_codes {
            match code {
                ValidationCode::EndorsementPolicyFailure => invalid += 1,
                c if c.is_success() => {}
                _ => ok = false,
            }
        }
    }
    (invalid, ok && invalid == inputs.forged as u64)
}

const OUTCOME_CHECK: &str =
    "commit-crdt: exactly the forged txs fail, all others merge, state keeps its 10000 keys";

/// Replays the reference stream and compares its digest with the
/// recorded one.
fn golden_check(report: &mut Report) {
    let inputs = generate(GOLDEN_SEED, GOLDEN_BLOCKS);
    let (peer, _, _) = replay(&inputs);
    let digest = hex::encode(&ledger_digest(&peer));
    report.note(format!("reference stream digest {digest}"));
    report.check(
        "commit-crdt: reference stream digest equals the recorded value",
        digest == GOLDEN_DIGEST,
    );
}

fn describe(report: &Report, seed: u64, inputs: &Inputs) {
    report.note(format!(
        "commit-crdt: seed {seed}, {} txs in {} blocks of {BLOCK_TXS}, {} endorsements/tx, \
         {KEYS} keys, {READINGS} readings/doc, {} forged endorsements",
        inputs.blocks.len() * BLOCK_TXS,
        inputs.blocks.len(),
        ORGS.len(),
        inputs.forged
    ));
}

/// Set-up: generate and sign the stream and seed one peer's state.
fn setup(seed: u64, setup_secs: &mut Vec<f64>) -> Inputs {
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let generated = generate(seed, BLOCKS);
        drop(std::hint::black_box(seeded_peer(&generated)));
        setup_secs.push(secs_since(start));
        inputs = Some(generated);
    }
    inputs.expect("at least one set-up")
}

pub fn timed(seed: u64, seconds: f64, report: &mut Report) {
    let mut e = E2e::default();
    let inputs = setup(seed, &mut e.setup_secs);
    describe(report, seed, &inputs);
    // One untimed replay first, so the allocator's heap and the
    // process's pages are in place before timing; its ledger joins the
    // repeat check.
    let (warm, _, _) = replay(&inputs);
    let mut outcomes_ok = outcome(&warm, &inputs).1;
    let mut digests = vec![ledger_digest(&warm)];
    drop(warm);
    let phase = Instant::now();
    while e.units.is_empty() || secs_since(phase) < seconds {
        let (peer, block_ms, wall) = replay(&inputs);
        let (invalid, ok) = outcome(&peer, &inputs);
        outcomes_ok &= ok;
        let txs = (inputs.blocks.len() * BLOCK_TXS) as u64;
        e.failed_frac = invalid as f64 / txs as f64;
        e.txs += txs;
        e.unit(txs, wall, block_ms);
        digests.push(ledger_digest(&peer));
    }
    report.note(format!(
        "{} replays (1 untimed); ledger digest {}",
        digests.len(),
        hex::encode(&digests[0])
    ));
    report.check(OUTCOME_CHECK, outcomes_ok);
    report.check(
        "commit-crdt: ledger digest equal across repeats",
        digests.iter().all(|d| *d == digests[0]),
    );
    golden_check(report);
    report.e2e(&e);
}

pub fn traced(seed: u64, report: &mut Report) {
    let mut setup_secs = Vec::new();
    let inputs = setup(seed, &mut setup_secs);
    describe(report, seed, &inputs);
    let (peer, _, untraced_wall) = replay(&inputs);
    let txs = (inputs.blocks.len() * BLOCK_TXS) as u64;
    report.check(OUTCOME_CHECK, outcome(&peer, &inputs).1);
    let untraced_digest = ledger_digest(&peer);
    drop(peer);

    let cut: Vec<(SimTime, Block)> = inputs
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (SimTime::from_secs_f64(i as f64 * 0.1), b.clone()))
        .collect();
    let mut config = PipelineConfig::paper(BLOCK_TXS, seed);
    config.policy = policy();
    let work_dir = crate::work_dir("commit-crdt-trace");
    cache::clear();
    let replayed = layers::replay(
        &LayerInput {
            blocks: &cut,
            seed_state: &inputs.seed_state,
            config: &config,
            chaincode: &IotChaincode::crdt(),
            invocations: &inputs.invocations,
            replicated: false,
            work_dir: &work_dir,
        },
        CrdtValidator::new,
    );
    let _ = std::fs::remove_dir_all(&work_dir);
    let t = &replayed.times;
    report.check(
        "commit-crdt: traced replay reproduces the untraced ledger digest",
        replayed.ledger_digest == untraced_digest,
    );
    report.traced_counts(txs, txs.abs_diff(t.decided));
    layers::emit(
        report,
        t,
        t.peer_loop_s,
        t.peer_s(),
        txs as f64 / t.peer_loop_s,
        txs as f64 / untraced_wall,
    );
}
