//! The committing peer's ledger, pinned and checked against the
//! reference finalize.
//!
//! - **Golden digests.** Fixed seeded block streams run through
//!   `Sequential`, `Parallel(2)` and `Pipelined(2)` peers. Every peer
//!   must end with the same ledger, and the SHA-256 of its encoded chain
//!   followed by its encoded world state must equal the recorded digest:
//!   a FabricCRDT hot key, a Fabric MVCC conflict stream, and a mix of
//!   CRDT and plain writes, deletes, duplicates, policy failures and one
//!   tampered block (under both validators).
//! - **Oracle sweep.** Seeded mixed streams run through every pipeline
//!   and both validators. Before each block, the test clones the peer's
//!   committed `WorldState` and runs `BlockValidator::validate_and_commit`
//!   on it with independently derived pre-decided codes. Codes, rewritten
//!   transactions, `ValidationWork` and the committed state must match.
//!   `Peer::finalize` runs the same comparison as a shadow run, but only
//!   under `debug_assertions`; `ci.sh` also runs this file with
//!   `--release`, so the check holds in optimised builds too.

use std::collections::HashSet;

use fabriccrdt::validator::CrdtValidator;
use fabriccrdt_crypto::{hex, sha256, Identity, KeyPair};
use fabriccrdt_fabric::cost::ValidationWork;
use fabriccrdt_fabric::peer::{Peer, StagedBlock};
use fabriccrdt_fabric::pipeline::ValidationPipeline;
use fabriccrdt_fabric::policy::EndorsementPolicy;
use fabriccrdt_fabric::validator::{BlockValidator, FabricValidator};
use fabriccrdt_ledger::block::{Block, ValidationCode};
use fabriccrdt_ledger::rwset::ReadWriteSet;
use fabriccrdt_ledger::transaction::{Endorsement, Transaction, TxId};
use fabriccrdt_ledger::version::Height;
use fabriccrdt_sim::gen::Gen;

const ORGS: [&str; 2] = ["org1", "org2"];

fn policy() -> EndorsementPolicy {
    EndorsementPolicy::all_of(ORGS)
}

fn pipelines() -> [ValidationPipeline; 3] {
    [
        ValidationPipeline::Sequential,
        ValidationPipeline::parallel(2),
        ValidationPipeline::pipelined(2),
    ]
}

/// A block stream plus what an oracle needs to know about it.
struct Workload {
    /// Keys seeded at genesis height before the first block.
    seeds: Vec<(String, Vec<u8>)>,
    /// Blocks numbered from 1, as an orderer would cut them.
    blocks: Vec<Block>,
    /// Transactions endorsed by too few organizations.
    under_endorsed: HashSet<TxId>,
}

/// Builds transactions for one stream: a nonce counter, the generator
/// and every transaction emitted so far (the pool duplicates come from).
struct Builder {
    gen: Gen,
    nonce: u64,
    emitted: Vec<Transaction>,
    under_endorsed: HashSet<TxId>,
}

impl Builder {
    fn new(seed: u64) -> Self {
        Builder {
            gen: Gen::new(seed),
            nonce: 0,
            emitted: Vec::new(),
            under_endorsed: HashSet::new(),
        }
    }

    /// Endorses `rwset` as a fresh transaction; with probability
    /// `p_fail` only `org1` endorses, so the policy fails.
    fn tx(&mut self, rwset: ReadWriteSet, p_fail: f64) -> Transaction {
        self.nonce += 1;
        let client = Identity::new("client", "org1");
        let mut tx = Transaction {
            id: TxId::derive(&client, self.nonce, "cc"),
            client,
            chaincode: "cc".into(),
            rwset,
            endorsements: Vec::new(),
        };
        let orgs: &[&str] = if self.gen.prob(p_fail) {
            self.under_endorsed.insert(tx.id);
            &ORGS[..1]
        } else {
            &ORGS
        };
        let payload = tx.response_payload();
        for org in orgs {
            let kp = KeyPair::derive(Identity::new("peer0", *org));
            tx.endorsements.push(Endorsement {
                endorser: kp.identity().clone(),
                signature: kp.sign(&payload),
            });
        }
        self.emitted.push(tx.clone());
        tx
    }

    /// A read version an endorser of block `block` might have seen:
    /// absent, genesis, or one of the previous block's first heights.
    fn read_version(&mut self, block: u64) -> Option<Height> {
        match self.gen.range(0, 4) {
            0 => None,
            1 => Some(Height::genesis()),
            _ => Some(Height::new(block - 1, self.gen.range(0, 4))),
        }
    }

    fn reading(&mut self, block: u64) -> Vec<u8> {
        let n = self.gen.range(0, 1000);
        format!(r#"{{"readings":["b{block}r{n}"]}}"#).into_bytes()
    }

    /// One transaction of the mixed stream.
    fn mixed_tx(&mut self, block: u64) -> Transaction {
        let doc = format!("doc{}", self.gen.range(0, 3));
        let plain = format!("p{}", self.gen.range(0, 5));
        let mut rw = ReadWriteSet::new();
        match self.gen.range(0, 10) {
            0..=3 => {
                rw.reads.record(doc.clone(), None);
                rw.writes.put_crdt(doc, self.reading(block));
            }
            4..=6 => {
                let version = self.read_version(block);
                rw.reads.record(plain.clone(), version);
                rw.writes
                    .put(plain, format!("v{}", self.nonce).into_bytes());
            }
            7 => {
                let key = if self.gen.flip() { plain } else { doc };
                let version = self.read_version(block);
                rw.reads.record(key.clone(), version);
                rw.writes.delete(key);
            }
            8 => {
                let version = self.read_version(block);
                rw.reads.record(plain.clone(), version);
                rw.writes
                    .put(plain, format!("v{}", self.nonce).into_bytes());
                rw.writes.put_crdt(doc, self.reading(block));
            }
            _ if !self.emitted.is_empty() => {
                let pick = self.gen.range(0, self.emitted.len() as u64) as usize;
                return self.emitted[pick].clone();
            }
            _ => {
                rw.writes.put_crdt(doc, self.reading(block));
            }
        }
        self.tx(rw, 0.1)
    }
}

fn crdt_hot_key(seed: u64) -> Workload {
    let mut b = Builder::new(seed);
    let blocks = (1..=6u64)
        .map(|number| {
            let size = b.gen.size(6, 14);
            let txs = (0..size)
                .map(|_| {
                    let mut rw = ReadWriteSet::new();
                    rw.reads.record("hot", Some(Height::genesis()));
                    rw.writes.put_crdt("hot", b.reading(number));
                    b.tx(rw, 0.0)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();
    Workload {
        seeds: vec![("hot".into(), br#"{"readings":[]}"#.to_vec())],
        blocks,
        under_endorsed: b.under_endorsed,
    }
}

fn fabric_mvcc(seed: u64) -> Workload {
    let mut b = Builder::new(seed);
    let blocks = (1..=6u64)
        .map(|number| {
            let size = b.gen.size(6, 14);
            let txs = (0..size)
                .map(|_| {
                    let read = format!("k{}", b.gen.range(0, 4));
                    let write = format!("k{}", b.gen.range(0, 4));
                    let version = b.read_version(number);
                    let mut rw = ReadWriteSet::new();
                    rw.reads.record(read, version);
                    rw.writes.put(write, format!("v{}", b.nonce).into_bytes());
                    b.tx(rw, 0.0)
                })
                .collect();
            Block::assemble(number, [0; 32], txs)
        })
        .collect();
    Workload {
        seeds: (0..4).map(|k| (format!("k{k}"), b"0".to_vec())).collect(),
        blocks,
        under_endorsed: b.under_endorsed,
    }
}

/// The mixed stream: `blocks` blocks, block `tampered` altered after the
/// orderer sealed it.
fn mixed(seed: u64, blocks: u64, tampered: u64) -> Workload {
    let mut b = Builder::new(seed);
    let blocks = (1..=blocks)
        .map(|number| {
            let size = b.gen.size(4, 16);
            let txs = (0..size).map(|_| b.mixed_tx(number)).collect();
            let mut block = Block::assemble(number, [0; 32], txs);
            if number == tampered {
                block.transactions[0]
                    .rwset
                    .writes
                    .put("p0", b"evil".to_vec());
            }
            block
        })
        .collect();
    let mut seeds: Vec<(String, Vec<u8>)> = (0..3)
        .map(|d| (format!("doc{d}"), br#"{"readings":[]}"#.to_vec()))
        .collect();
    seeds.extend((0..5).map(|p| (format!("p{p}"), b"0".to_vec())));
    Workload {
        seeds,
        blocks,
        under_endorsed: b.under_endorsed,
    }
}

/// Drives `workload` through a fresh peer on `pipeline`, calling
/// `observe` with the committed state before each block, the block as
/// delivered, and the staged outcome (before it commits).
fn drive<V: BlockValidator>(
    validator: V,
    pipeline: ValidationPipeline,
    workload: &Workload,
    mut observe: impl FnMut(&Peer<V>, &Block, &StagedBlock),
) -> Peer<V> {
    let mut peer = Peer::new(validator, policy()).with_pipeline(pipeline);
    for (key, value) in &workload.seeds {
        peer.seed_state(key.clone(), value.clone());
    }
    let blocks = &workload.blocks;
    if pipeline.is_pipelined() {
        let mut prep = Some(peer.prevalidate(blocks[0].clone()));
        for (n, block) in blocks.iter().enumerate() {
            let current = prep.take().expect("one block in flight");
            let staged = match blocks.get(n + 1) {
                Some(next) => {
                    let (staged, next_prep) = peer.finish_block_with_next(current, next.clone());
                    prep = Some(next_prep);
                    staged
                }
                None => peer.finish_block(current),
            };
            observe(&peer, block, &staged);
            peer.commit(staged).expect("blocks arrive in chain order");
        }
    } else {
        for block in blocks {
            let staged = peer.process_block(block.clone());
            observe(&peer, block, &staged);
            peer.commit(staged).expect("blocks arrive in chain order");
        }
    }
    peer
}

/// SHA-256 of the encoded chain followed by the encoded world state.
fn ledger_digest<V: BlockValidator>(peer: &Peer<V>) -> String {
    let snapshot = peer.snapshot();
    hex::encode(&sha256::digest(&[snapshot.chain, snapshot.state].concat()))
}

/// Runs `workload` on every pipeline, checks the runs agree block by
/// block, and returns the shared ledger digest plus every code seen.
fn digest_on_every_pipeline<V: BlockValidator + Clone>(
    validator: V,
    workload: &Workload,
) -> (String, HashSet<ValidationCode>) {
    let mut reference: Option<(String, Vec<ValidationWork>)> = None;
    let mut codes = HashSet::new();
    for pipeline in pipelines() {
        let mut works = Vec::new();
        let peer = drive(validator.clone(), pipeline, workload, |_, _, staged| {
            works.push(staged.work);
            codes.extend(staged.block.validation_codes.iter().copied());
        });
        let digest = ledger_digest(&peer);
        match &reference {
            None => reference = Some((digest, works)),
            Some((want, want_works)) => {
                assert_eq!(&digest, want, "{}: ledger diverged", pipeline.label());
                assert_eq!(&works, want_works, "{}: work diverged", pipeline.label());
            }
        }
    }
    (reference.expect("three pipelines ran").0, codes)
}

#[test]
fn golden_crdt_hot_key() {
    let (digest, codes) = digest_on_every_pipeline(CrdtValidator::new(), &crdt_hot_key(11));
    assert_eq!(
        codes,
        HashSet::from([ValidationCode::ValidMerged]),
        "every CRDT write merges"
    );
    assert_eq!(digest, GOLDEN_CRDT_HOT_KEY);
}

#[test]
fn golden_fabric_mvcc_conflict() {
    let (digest, codes) = digest_on_every_pipeline(FabricValidator::new(), &fabric_mvcc(12));
    assert!(codes.contains(&ValidationCode::Valid));
    assert!(codes.contains(&ValidationCode::MvccConflict));
    assert_eq!(digest, GOLDEN_FABRIC_MVCC);
}

#[test]
fn golden_mixed_stream() {
    let workload = mixed(13, 8, 4);
    let want = [
        ValidationCode::MvccConflict,
        ValidationCode::DuplicateTxId,
        ValidationCode::EndorsementPolicyFailure,
        ValidationCode::TamperedBlock,
    ];
    let (crdt, codes) = digest_on_every_pipeline(CrdtValidator::new(), &workload);
    assert!(codes.contains(&ValidationCode::ValidMerged));
    assert!(want.iter().all(|c| codes.contains(c)), "{codes:?}");
    assert_eq!(crdt, GOLDEN_MIXED_CRDT);

    let (fabric, codes) = digest_on_every_pipeline(FabricValidator::new(), &workload);
    assert!(codes.contains(&ValidationCode::Valid));
    assert!(want.iter().all(|c| codes.contains(c)), "{codes:?}");
    assert_eq!(fabric, GOLDEN_MIXED_FABRIC);
}

// Recorded on the two-path finalize (whole-state clone per block),
// before the single overlay finalize replaced it.
const GOLDEN_CRDT_HOT_KEY: &str =
    "bd37b42075eea75d7dc77d865eed6e854af04c0b44d31053463a7970c2274d46";
const GOLDEN_FABRIC_MVCC: &str = "403076b9ea3dfcbdeaac14b1b12374ae93b1734acfb447e2081aabc2293b76d4";
const GOLDEN_MIXED_CRDT: &str = "de099b1c65397925bbbbf0e9d28fe65d83ac78ad5a8e1535d6ebbc3326d6e7c5";
const GOLDEN_MIXED_FABRIC: &str =
    "a6b40d23527718b320053b4d5f80650439b4be610337f5a6fc2c8bb512a9e6ec";

/// Checks one staged block against `validate_and_commit` run on a clone
/// of the committed state. `committed` holds every transaction id of
/// every earlier block, valid or not.
fn assert_matches_oracle<V: BlockValidator>(
    peer: &Peer<V>,
    delivered: &Block,
    staged: &StagedBlock,
    committed: &mut HashSet<TxId>,
    under_endorsed: &HashSet<TxId>,
) -> fabriccrdt_ledger::WorldState {
    let mut state = peer.state().clone();
    let mut block = delivered.clone();
    let label = format!("block {}", block.header.number);
    if !block.data_hash_is_valid() {
        block.validation_codes = vec![ValidationCode::TamperedBlock; block.transactions.len()];
        assert_eq!(staged.work, ValidationWork::default(), "{label}");
    } else {
        let mut seen = HashSet::new();
        let mut sigs = 0u64;
        let pre: Vec<Option<ValidationCode>> = block
            .transactions
            .iter()
            .map(|tx| {
                if committed.contains(&tx.id) || !seen.insert(tx.id) {
                    return Some(ValidationCode::DuplicateTxId);
                }
                sigs += tx.endorsements.len() as u64;
                under_endorsed
                    .contains(&tx.id)
                    .then_some(ValidationCode::EndorsementPolicyFailure)
            })
            .collect();
        let mut work = peer
            .validator()
            .validate_and_commit(&mut block, &mut state, &pre);
        work.sigs_verified = sigs;
        assert_eq!(staged.work, work, "{label}: work");
    }
    assert_eq!(
        staged.block.validation_codes, block.validation_codes,
        "{label}: codes"
    );
    assert_eq!(
        staged.block.transactions, block.transactions,
        "{label}: rewritten transactions"
    );
    committed.extend(block.transactions.iter().map(|t| t.id));
    state
}

fn oracle_sweep<V: BlockValidator + Clone>(validator: V, seeds: u64) {
    for seed in 0..seeds {
        let blocks = 3 + seed % 5;
        let workload = mixed(1000 + seed, blocks, 1 + seed % (blocks + 2));
        for pipeline in pipelines() {
            let mut committed = HashSet::new();
            let mut expected: Vec<fabriccrdt_ledger::WorldState> = Vec::new();
            let peer = drive(
                validator.clone(),
                pipeline,
                &workload,
                |peer, block, staged| {
                    if let Some(state) = expected.last() {
                        assert_eq!(peer.state(), state, "seed {seed}: committed state");
                    }
                    expected.push(assert_matches_oracle(
                        peer,
                        block,
                        staged,
                        &mut committed,
                        &workload.under_endorsed,
                    ));
                },
            );
            assert_eq!(
                peer.state(),
                expected.last().expect("at least one block"),
                "seed {seed} {}: final state",
                pipeline.label()
            );
            assert_eq!(peer.chain().height() as usize, workload.blocks.len() + 1);
        }
    }
}

#[test]
fn crdt_finalize_matches_validate_and_commit_oracle() {
    oracle_sweep(CrdtValidator::new(), 24);
}

#[test]
fn fabric_finalize_matches_validate_and_commit_oracle() {
    oracle_sweep(FabricValidator::new(), 24);
}
