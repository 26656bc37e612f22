#!/usr/bin/env bash
# Tier-1 gate, fully offline: the workspace has no external
# dependencies, so every step runs with networking disabled.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The finalize oracle compares every staged block with the reference
# `validate_and_commit`; `Peer::finalize` runs the same check only under
# debug_assertions, so run it in an optimised build as well.
echo "==> finalize oracle (release)"
cargo test -q --release -p fabriccrdt --test finalize_oracle

# perfbench is a cargo workspace of its own over crates/*: build it and
# run its unit tests so an API change in crates/* cannot silently break
# the benchmark.
echo "==> perfbench build + unit tests (release)"
cargo build --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
cargo test -q --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Smoke-run the experiment binaries with tiny configs: they assert
# their own invariants (convergence, byte-identical ledgers, failover
# recovery), so a panic here fails the gate.
echo "==> experiment smoke runs"
cargo run --release -q -p fabriccrdt-bench --bin partition_heal
cargo run --release -q -p fabriccrdt-bench --bin orderer_failover -- --txs 300
cargo run --release -q -p fabriccrdt-bench --bin ablation -- --txs 200

# The commit-path wall-clock bench asserts parallel == sequential and
# pipelined == sequential ledgers internally, checks that the pipelined
# driver overlapped every chained block, and re-parses its own JSON
# artifact; the gate additionally checks the artifact landed and
# carries the expected fields — including the pipelined cells and their
# measured stage-overlap windows (well-formedness beyond "the bin did
# not crash").
echo "==> commit_path smoke run + artifact check"
rm -f BENCH_commit_path.json
cargo run --release -q -p fabriccrdt-bench --bin commit_path -- --txs 200
test -s BENCH_commit_path.json
grep -q '"bench": "commit_path"' BENCH_commit_path.json
grep -q '"sequential_baseline_tps"' BENCH_commit_path.json
grep -q '"speedup_at_4_workers"' BENCH_commit_path.json
grep -q '"finalize_speedup_at_4_workers"' BENCH_commit_path.json
grep -q '"pipelined_speedup_at_4_workers"' BENCH_commit_path.json
grep -q '"blocks_overlapped"' BENCH_commit_path.json
grep -q '"speculative_reads_checked"' BENCH_commit_path.json
grep -q '"pre_validate_secs"' BENCH_commit_path.json
grep -q '"finalize_secs"' BENCH_commit_path.json
grep -q '"overlap_secs"' BENCH_commit_path.json
grep -q '"pipeline": "pipelined(4)"' BENCH_commit_path.json

# The catch-up storage bench asserts snapshot transfers beat full
# replay at the 100-block chain and that the append-only-file backend
# is byte-identical to the in-memory one; the gate checks the artifact.
echo "==> catchup_storage smoke run + artifact check"
rm -f BENCH_catchup_storage.json
cargo run --release -q -p fabriccrdt-bench --bin catchup_storage -- --txs 300
test -s BENCH_catchup_storage.json
grep -q '"bench": "catchup_storage"' BENCH_catchup_storage.json
grep -q '"replay_bytes"' BENCH_catchup_storage.json
grep -q '"snapshot_bytes"' BENCH_catchup_storage.json
grep -q '"snapshot_saving_at_100_blocks"' BENCH_catchup_storage.json
grep -q '"used_snapshot": true' BENCH_catchup_storage.json

# The multi-channel bench asserts 1-channel bit-identity to the seed
# gossip pipeline, per-channel replica convergence, aggregate-TPS
# scaling and transfer exactly-once internally; the gate checks the
# artifact landed with the aggregate-TPS and channel-count fields.
echo "==> multi_channel smoke run + artifact check"
rm -f BENCH_multi_channel.json
cargo run --release -q -p fabriccrdt-bench --bin multi_channel -- --txs 2000
test -s BENCH_multi_channel.json
grep -q '"bench": "multi_channel"' BENCH_multi_channel.json
grep -q '"aggregate_tps"' BENCH_multi_channel.json
grep -q '"aggregate_tps_speedup_4ch"' BENCH_multi_channel.json
grep -q '"channels": 1' BENCH_multi_channel.json
grep -q '"channels": 4' BENCH_multi_channel.json
grep -q '"clients_per_channel"' BENCH_multi_channel.json
grep -q '"single_channel_identity": true' BENCH_multi_channel.json
grep -q '"transfers_committed"' BENCH_multi_channel.json

# The conflict-strategy bench sweeps CRDT merge-commit vs
# abort-and-retry vs reorder+early-abort vs adaptive ordering across
# Zipf skews and retry budgets; it self-asserts the acceptance shape
# (FabricCRDT >= all at s=1.2, adaptive >= reorder at s=0.0) and
# re-parses its own JSON. The gate checks the goodput/retry/wasted-work
# fields landed in the artifact.
echo "==> zipf_conflict smoke run + artifact check"
rm -f BENCH_zipf_conflict.json
cargo run --release -q -p fabriccrdt-bench --bin zipf -- --txs 600
test -s BENCH_zipf_conflict.json
grep -q '"bench": "zipf_conflict"' BENCH_zipf_conflict.json
grep -q '"goodput_tps"' BENCH_zipf_conflict.json
grep -q '"retries"' BENCH_zipf_conflict.json
grep -q '"wasted_validation_work"' BENCH_zipf_conflict.json
grep -q '"strategy": "fabriccrdt"' BENCH_zipf_conflict.json
grep -q '"strategy": "fabric-retry"' BENCH_zipf_conflict.json
grep -q '"strategy": "fabric-reorder"' BENCH_zipf_conflict.json
grep -q '"strategy": "fabric-adaptive"' BENCH_zipf_conflict.json
grep -q '"skew": 1.2' BENCH_zipf_conflict.json

# The adversarial bench runs the byzantine attack schedule, 100 hostile
# fuzz streams, and the offline merge-storm probes; it asserts honest
# convergence, equivocation detection, and incremental < full-replay
# internally. The gate checks the detection and merge-storm fields
# landed in the artifact.
echo "==> adversarial smoke run + artifact check"
rm -f BENCH_adversarial.json
cargo run --release -q -p fabriccrdt-bench --bin adversarial -- --txs 1500
test -s BENCH_adversarial.json
grep -q '"bench": "adversarial"' BENCH_adversarial.json
grep -q '"equivocations_detected"' BENCH_adversarial.json
grep -q '"tampered_rejected"' BENCH_adversarial.json
grep -q '"forged_rejected"' BENCH_adversarial.json
grep -q '"honest_replicas_converged": true' BENCH_adversarial.json
grep -q '"incremental_merge_ops"' BENCH_adversarial.json
grep -q '"full_replay_ops"' BENCH_adversarial.json
grep -q '"merge_storm_catch_up_secs"' BENCH_adversarial.json
grep -q '"offline_rejoin_reconverged": true' BENCH_adversarial.json

echo "==> OK"
