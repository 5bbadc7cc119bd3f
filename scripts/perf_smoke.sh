#!/usr/bin/env bash
# Release perf smoke for the batch kernels and the incremental serving
# path (docs/perf.md). Runs in seconds, so CI can afford it on every
# push:
#
#   0. bench_e1_property_matrix and bench_a4_adversary — the property
#      matrix (every mechanism against every checker, SL's outsider
#      mutations included) and the Sybil-attack tables; their digests
#      must equal scripts/perf_goldens/{e1,a4}_digests.golden (identical
#      at every --threads count). Together about a second.
#   1. bench_e13_scalability --scale small — the 10k-node determinism
#      probe computes every feasible mechanism's total-reward digest;
#      the digests must equal scripts/perf_goldens/e13_digests.golden
#      byte-for-byte. Any batch-kernel change that alters reward bits
#      (the arena sweeps of tree/subtree_sums.h and Mechanism::compute)
#      fails here before it can silently rewrite the BENCH_* trajectory.
#   1b. bench_e13_scalability --scale giant --giant-nodes 200000 — the
#      SoA-arena giant-tree sweep at a CI-sized node count: builds the
#      arena, writes its snapshot image, mmap-adopts it back and fails
#      on any bit divergence from the in-memory source tree; the
#      adopted tree's reward digest must equal
#      scripts/perf_goldens/e13_giant_digest.golden.
#   1c. (opt-in: PERF_SMOKE_V5_GATE=1) the same sweep at 10M nodes,
#      where the bench enforces the mmap-adopt >= 3x load-speedup gate
#      over an add_node rebuild of the same tree — what a recovery
#      without an image pays (docs/perf.md). Takes ~30s and is
#      timing-sensitive, so it is not part of the default CI run.
#   2. bench_e14_service_throughput --mechanism {tdrm,cdrm1,geometric}
#      — drives the epoll daemon's *incremental* serving paths (the
#      virtual-RCT chain state and the generalized ancestor-aggregate
#      engine) with the deterministic per-campaign load; each
#      final_rewards digest must equal its golden under
#      scripts/perf_goldens/, and the bench itself fails on audit
#      divergence >= 1e-9.
#   3. bench_e15_durability at its defaults — one writes-only ingest
#      stream per campaign through each fsync policy, then WAL-replay vs
#      snapshot-tail recovery; both reward digests must equal
#      scripts/perf_goldens/e15_digests.golden (they are identical at
#      every --threads count).
#   4. bench_a3_incremental --scale small — self-gating: fails below a
#      10x incremental-vs-batch speedup for any served mechanism, above
#      1e-9 divergence, or on a cross-thread-count digest mismatch.
#
# Digests gate, timings do not: CI machines are too noisy to assert
# wall time, so slowdowns are tracked via the BENCH_*.json trajectory
# instead while *behaviour* drift fails the build. A number without its
# machine says nothing, so every JSON written here must also carry the
# harness's host object (host.nproc and host.cpu_model at least).
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
GOLDENS="$(dirname "$0")/perf_goldens"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Pulls the "digests" entries out of a BENCH-format JSON file, one
# `name 0x...` pair per line (our own writer's stable formatting).
digests_of() {
  check_host "$1"
  grep -o '"[^"]*": "0x[0-9a-f]\{16\}"' "$1" | tr -d '",:'
}

# Fails unless the BENCH-format JSON file names its host: the harness
# writes `"host": {"nproc": N, ..., "cpu_model": "...", ...}`.
check_host() {
  grep -q '"host": {"nproc": [0-9][0-9]*,.*"cpu_model": "[^"]' "$1" || {
    echo "$1 lacks host.nproc or host.cpu_model" >&2
    exit 1
  }
}

for bench in e1:bench_e1_property_matrix a4:bench_a4_adversary; do
  name="${bench%%:*}"
  echo "== $name digest probe =="
  "$BUILD_DIR/bench/${bench#*:}" --threads 2 --json "$WORK/$name.json" \
      > /dev/null
  digests_of "$WORK/$name.json" | tee "$WORK/${name}_digests.txt"
  diff -u "$GOLDENS/${name}_digests.golden" "$WORK/${name}_digests.txt" || {
    echo "$name digests drifted from the checked-in golden" >&2
    exit 1
  }
done

echo "== e13 small-scale digest probe =="
"$BUILD_DIR/bench/bench_e13_scalability" --scale small --threads 2 \
    --json "$WORK/e13.json"
digests_of "$WORK/e13.json" | tee "$WORK/e13_digests.txt"
diff -u "$GOLDENS/e13_digests.golden" "$WORK/e13_digests.txt" || {
  echo "e13 reward digests drifted from the checked-in goldens" >&2
  exit 1
}

echo "== e13 giant-tree mmap-load digest probe =="
"$BUILD_DIR/bench/bench_e13_scalability" --scale giant \
    --giant-nodes 200000 --threads 2 --json "$WORK/e13_giant.json"
digests_of "$WORK/e13_giant.json" | grep '^giant_' \
    | tee "$WORK/e13_giant_digest.txt"
diff -u "$GOLDENS/e13_giant_digest.golden" "$WORK/e13_giant_digest.txt" || {
  echo "e13 giant mmap-load digest drifted from the golden" >&2
  exit 1
}

if [[ "${PERF_SMOKE_V5_GATE:-0}" == "1" ]]; then
  echo "== e13 10M-node v5 mmap-adopt speedup gate (opt-in) =="
  # The bench exits non-zero when the mmap-adopt load is not >= 3x faster
  # than the add_node rebuild at the 10M-node scale, or on any bit
  # divergence.
  "$BUILD_DIR/bench/bench_e13_scalability" --scale giant \
      --giant-nodes 10000000 --json "$WORK/e13_gate.json"
  check_host "$WORK/e13_gate.json"
fi

# Each mechanism runs twice: the classic single-reactor per-frame mode
# and the multi-reactor batched+pipelined wire path. Both must hit the
# SAME golden — the determinism contract says the reactor count, the
# EVENT_BATCH framing and pipelining change throughput, never reward
# bits (docs/protocol.md).
for mechanism in tdrm cdrm1 geometric; do
  for variant in "classic:--threads 2" \
                 "reactors2:--reactors 2 --batch 64 --pipeline 8"; do
    name="${variant%%:*}"
    flags="${variant#*:}"
    echo "== e14 $mechanism incremental serving path ($name) =="
    # shellcheck disable=SC2086  # flags are intentionally word-split
    "$BUILD_DIR/bench/bench_e14_service_throughput" \
        --mechanism "$mechanism" --campaigns 4 --requests 4000 $flags \
        --json "$WORK/e14_$mechanism.json"
    digests_of "$WORK/e14_$mechanism.json" | grep '^final_rewards ' \
        | tee "$WORK/e14_${mechanism}_digest.txt"
    diff -u "$GOLDENS/e14_${mechanism}_digest.golden" \
        "$WORK/e14_${mechanism}_digest.txt" || {
      echo "e14 $mechanism ($name) rewards digest drifted from the golden" >&2
      exit 1
    }
  done
done

echo "== e15 durability: ingest + recovery digests =="
"$BUILD_DIR/bench/bench_e15_durability" --threads 2 --json "$WORK/e15.json"
digests_of "$WORK/e15.json" | tee "$WORK/e15_digests.txt"
diff -u "$GOLDENS/e15_digests.golden" "$WORK/e15_digests.txt" || {
  echo "e15 reward digests drifted from the golden" >&2
  exit 1
}

echo "== a3 incremental-engine speedup + determinism gates =="
"$BUILD_DIR/bench/bench_a3_incremental" --scale small --threads 2 \
    --json "$WORK/a3.json"
check_host "$WORK/a3.json"

echo "perf smoke passed"
