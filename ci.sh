#!/usr/bin/env bash
# Local CI: exactly the checks .github/workflows/ci.yml runs.
#
# `./ci.sh --chaos` additionally replays the chaos suites under a
# fixed seed matrix (the `chaos` job in CI); a failure prints the
# IBDT_CHAOS_SEED value that reproduces it.
#
# `./ci.sh --bench-gate` compares a fresh hotpath run against the
# committed BENCH_hotpath.json and fails on a >15% regression of any
# gated metric (the `bench-gate` job in CI).
#
# `./ci.sh --soak` replays the incast/oversubscription soak suite
# (64→1 fan-in and 8×8 all-to-all, flow-control invariant auditor on)
# under the same fixed seed matrix (the `soak` job in CI).
#
# `./ci.sh --scale` runs the sharded scale-driver smoke: a 1024-rank
# vector Alltoall must finish inside its wall-clock and per-rank
# state budgets, and the 8-shard run must be bit-identical to the
# sequential reference (DESIGN.md §14, EXPERIMENTS.md X14).
#
# `./ci.sh --chaos-scale` runs the crash-stop chaos matrix (the
# `chaos-scale` job in CI): the chaos_scale suite under the fixed seed
# matrix, plus the 4096-rank chaos smoke — a seeded crash-stop run
# must fingerprint bit-identically across 1/2/8 shards (DESIGN.md §15,
# EXPERIMENTS.md X15).
#
# `./ci.sh --lint` runs only the grep lints below and stops (the
# workflow's build-test-lint job runs them this way).
#
# `./ci.sh --shm` runs the shared-memory transport smoke: regenerates
# figure x17 (DDT vs manual pack across transports) and enforces the
# arXiv:1607.00178 guideline bounds — the datatype path must not lose
# to pack+send from 32 KiB up on any transport, and must stay within
# 1.2x below that (DESIGN.md §17, EXPERIMENTS.md X17).
set -euo pipefail
cd "$(dirname "$0")"

CHAOS=0
BENCH_GATE=0
SOAK=0
SCALE=0
CHAOS_SCALE=0
SHM=0
LINT_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --chaos) CHAOS=1 ;;
    --bench-gate) BENCH_GATE=1 ;;
    --soak) SOAK=1 ;;
    --scale) SCALE=1 ;;
    --chaos-scale) CHAOS_SCALE=1 ;;
    --shm) SHM=1 ;;
    --lint) LINT_ONLY=1 ;;
    *) echo "unknown argument: $arg (supported: --chaos, --bench-gate, --soak, --scale, --chaos-scale, --shm, --lint)" >&2; exit 2 ;;
  esac
done

echo "==> lint: no HashMap on the hot path"
# The steady-state request path is dense-table/slab only (see DESIGN.md
# §12); a HashMap reintroduces per-message hashing and rehash
# allocation. Escape hatch for a justified exception: put the token
# allow-hashmap in a comment on the same line.
if grep -n "HashMap" crates/mpicore/src/progress.rs crates/ibsim/src/fabric.rs \
    | grep -v "allow-hashmap"; then
  echo "error: HashMap used in a hot-path module; use the dense tables" \
       "in mpicore::table / a simcore::Slab, or annotate the line with" \
       "an allow-hashmap comment explaining why." >&2
  exit 1
fi

echo "==> lint: Segment stays a test oracle"
# Production code runs one datatype representation, the cached
# TransferPlan; ibdt_datatype::Segment survives only as the oracle the
# plan-equivalence tests compare plans against (DESIGN.md §3). Comment
# lines are exempt, so prose may still say "segment".
if grep -rnw "Segment" crates/mpicore/src crates/ibsim/src crates/workloads/src \
    | grep -vE '^[^:]+:[0-9]+:\s*//'; then
  echo "error: Segment named in production code; use the rank's cached" \
       "TransferPlan (RankState::plan_for) instead." >&2
  exit 1
fi

echo "==> lint: no thread-local spares"
# State is reused between runs in one place, the whole-cluster pool
# (mpicore/src/cluster.rs), and per-message payload slabs in another
# (ibsim/src/payload.rs); a thread-local anywhere else in the
# simulator crates carries state from one cluster to the next behind
# that pool's back (DESIGN.md §17). Comment lines are exempt.
if grep -rn "thread_local!" crates/simcore/src crates/memreg/src crates/ibsim/src crates/mpicore/src \
    | grep -v -e "^crates/ibsim/src/payload.rs:" -e "^crates/mpicore/src/cluster.rs:" \
    | grep -vE '^[^:]+:[0-9]+:\s*//'; then
  echo "error: thread_local! outside the cluster and payload pools; keep" \
       "reusable state inside the Cluster, which recycles it whole." >&2
  exit 1
fi

if [[ "$LINT_ONLY" == 1 ]]; then
  echo "LINTS OK"
  exit 0
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> figures byte-identical to results/"
# The committed figures are the reproduced result; a change that moves
# any of them must regenerate results/ and say why.
rm -rf target/figcheck
mkdir -p target/figcheck
./target/release/figures all --csv target/figcheck > target/figcheck/figures.txt 2> /dev/null
n=0
for f in target/figcheck/*; do
  cmp "$f" "results/$(basename "$f")"
  n=$((n + 1))
done
if [[ "$n" != 22 ]]; then
  echo "error: expected 21 figure CSVs plus figures.txt, got $n files" >&2
  exit 1
fi

echo "==> bench smoke (hotpath -> BENCH_hotpath.json)"
./target/release/hotpath > /dev/null
python3 - <<'EOF'
import json
d = json.load(open("BENCH_hotpath.json"))
assert d, "BENCH_hotpath.json is empty"
for name, v in d.items():
    assert "ns_per_op" in v and "bytes_per_sec" in v and "allocs_per_op" in v, \
        f"bad entry {name}"
steady = next(v for k, v in d.items()
              if k.startswith("repeated_send/persistent_eager/"))
assert steady["allocs_per_op"] == 0, \
    f"steady-state sends allocate: {steady['allocs_per_op']}/op"
# The hotpath binary itself asserts 3 spellings -> 1 plan compile;
# here we hold the canonical-hit lookup to its zero-alloc contract.
canon = next(v for k, v in d.items()
             if k.startswith("canon/respelled_lookup/"))
assert canon["allocs_per_op"] == 0, \
    f"canonical-hit lookup allocates: {canon['allocs_per_op']}/op"
print(f"BENCH_hotpath.json OK ({len(d)} entries, "
      f"repeated-send speedup {d['repeated_send/speedup']['ns_per_op']:.2f}x, "
      f"steady-state allocs/op 0, canonical-hit allocs/op 0)")
EOF

if [[ "$BENCH_GATE" == 1 ]]; then
  echo "==> bench gate (>15% regression vs committed BENCH_hotpath.json fails)"
  # The smoke run above overwrote the working-tree JSON; gate against
  # the committed baseline, which is what every refresh was measured
  # into.
  git show HEAD:BENCH_hotpath.json > target/bench_baseline.json
  python3 tools/bench_gate.py target/bench_baseline.json BENCH_hotpath.json
fi

if [[ "$CHAOS" == 1 ]]; then
  # Same matrix as the `chaos` CI job: each seed re-derives every
  # fault plan in the chaos suites, so four seeds exercise four
  # disjoint fault schedules per test.
  for seed in 0x1 0xBEEF 0xC4A0 0xFEED; do
    echo "==> chaos matrix: IBDT_CHAOS_SEED=$seed"
    IBDT_CHAOS_SEED=$seed cargo test -q --test chaos --test chaos_coll
  done
fi

if [[ "$SOAK" == 1 ]]; then
  # Incast soak matrix (the `soak` CI job): 64→1 eager incast and 8×8
  # all-to-all oversubscription with credits, bounded CQs, and the
  # flow-control invariant auditor enabled. Each seed re-derives the
  # per-case credit budgets, message sizes, and jitter plans.
  for seed in 0x1 0xBEEF 0xC4A0 0xFEED; do
    echo "==> incast soak matrix: IBDT_CHAOS_SEED=$seed"
    IBDT_CHAOS_SEED=$seed cargo test -q --test incast
  done
fi

if [[ "$SCALE" == 1 ]]; then
  echo "==> scale smoke (1024-rank Alltoall within budget, bit-identical shards)"
  ./target/release/scale --smoke
fi

if [[ "$CHAOS_SCALE" == 1 ]]; then
  # Crash-stop chaos matrix (the `chaos-scale` CI job): each seed
  # re-derives the node-failure plans in the chaos_scale suite
  # (membership, drain/recover, shrinker) and the seeded plan of the
  # 4096-rank chaos smoke.
  for seed in 0x1 0xBEEF 0xC4A0 0xFEED; do
    echo "==> chaos-scale matrix: IBDT_CHAOS_SEED=$seed"
    IBDT_CHAOS_SEED=$seed cargo test -q --test chaos_scale
  done
  echo "==> chaos smoke (4096-rank crash-stop run bit-identical across shards)"
  ./target/release/scale --chaos-smoke
fi

if [[ "$SHM" == 1 ]]; then
  echo "==> shm transport smoke (x17 guideline bounds)"
  mkdir -p target/shm_smoke
  ./target/release/figures x17 --csv target/shm_smoke > /dev/null
  python3 tools/x17_gate.py target/shm_smoke/x17.csv
fi

echo "CI OK"
