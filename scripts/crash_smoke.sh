#!/usr/bin/env bash
# Crash-recovery smoke for the storage engine (docs/storage.md).
#
# Variant 1 — durability of acknowledged state: run a full workload
# against `itree-served --fsync always`, SIGKILL the daemon, and
# require `itree recover` to reproduce the loadgen's final per-campaign
# lines (participants, events, total reward, audit, rewards digest)
# byte-for-byte. With fsync=always every acknowledged event is on disk,
# so any difference is a recovery bug.
#
# Variant 2 — crash resilience mid-stream: SIGKILL the daemon while a
# loadgen is still writing, restart it over the same data directory
# (recovery + torn-tail truncation), and require a fresh loadgen
# --check pass plus a clean graceful drain.
#
# Variant 3 — snapshot image adoption: the drain snapshot must be an
# ITSNAP05 full-arena image, and `itree recover --digest` over it (mmap
# + zero-rebuild column adoption, empty WAL tail) must reproduce the
# campaign lines of a pre-drain recovery (snapshot + WAL-tail replay)
# byte-for-byte.
#
# Variant 4 — text export: `itree recover --export` writes each
# campaign as its compacted event log, and `itree replay` of every
# exported log must rebuild as many participants as `recover` reports
# for that campaign.
#
# Variant 5 — writes over a mapped image: restart `--fsync always` over
# the variant 3 drain image (every campaign adopted in place from the
# mapping, empty WAL tail), run a loadgen --check that writes to every
# campaign (each write privatizes mapped columns, and the copied pages
# are given back to the kernel), SIGKILL the daemon, and require
# `itree recover` to reproduce the loadgen's final campaign lines
# byte-for-byte.
#
# Usage: scripts/crash_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/tools/itree-served"
LOADGEN="$BUILD_DIR/tools/itree-loadgen"
ITREE="$BUILD_DIR/tools/itree"
WORK="$(mktemp -d)"
PID=""
trap 'kill -KILL "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

start_daemon() {
  : > "$WORK/served.log"
  "$SERVED" --port 0 --campaigns 3 --threads 2 \
      --data-dir "$WORK/data" "$@" > "$WORK/served.log" 2>&1 &
  PID=$!
  for _ in $(seq 1 150); do
    grep -q 'listening on' "$WORK/served.log" && break
    sleep 0.1
  done
  PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$WORK/served.log")
  if [ -z "$PORT" ]; then
    echo "daemon failed to start:" >&2
    cat "$WORK/served.log" >&2
    exit 1
  fi
}

echo "== variant 1: acknowledged state survives SIGKILL bit-for-bit =="
start_daemon --fsync always
"$LOADGEN" --port "$PORT" --connections 3 --campaigns 3 \
    --requests 400 --check | tee "$WORK/loadgen.log"
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
grep '^campaign ' "$WORK/loadgen.log" | sort > "$WORK/expected.txt"
"$ITREE" recover "$WORK/data" | tee "$WORK/recover.log"
grep '^campaign ' "$WORK/recover.log" | sort > "$WORK/actual.txt"
diff -u "$WORK/expected.txt" "$WORK/actual.txt"
echo "-- recovered state identical to the acknowledged state"

echo "== variant 2: mid-stream SIGKILL, restart, invariants hold =="
rm -rf "$WORK/data"
start_daemon --fsync interval --snapshot-every 500
"$LOADGEN" --port "$PORT" --connections 3 --campaigns 3 \
    --requests 20000 > "$WORK/loadgen2.log" 2>&1 &
LG=$!
sleep 1
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
wait "$LG" 2>/dev/null || true  # its connections died with the daemon
start_daemon --fsync interval --snapshot-every 500
grep 'recovered from' "$WORK/served.log"
"$LOADGEN" --port "$PORT" --connections 3 --campaigns 3 \
    --requests 300 --check

echo "== variant 3: v5 snapshot adoption matches WAL-tail replay =="
# The daemon is idle now: recover the committed state the slow way
# (older snapshot + WAL-tail replay) before the drain compacts it.
"$ITREE" recover "$WORK/data" --digest | grep '^campaign ' | sort \
    > "$WORK/pre_drain.txt"
kill -TERM "$PID"
wait "$PID"  # non-zero unless the drain (snapshot + compaction) succeeded
SNAP=$(ls "$WORK/data"/snap-*.snap | sort | tail -1)
if [ "$(head -c 8 "$SNAP")" != "ITSNAP05" ]; then
  echo "drain snapshot is not a v5 image: $SNAP" >&2
  exit 1
fi
"$ITREE" recover "$WORK/data" --digest | tee "$WORK/recover_v5.log"
grep '^campaign ' "$WORK/recover_v5.log" | sort > "$WORK/post_drain.txt"
diff -u "$WORK/pre_drain.txt" "$WORK/post_drain.txt"
echo "-- v5 image adoption reproduces the replayed state bit-for-bit"

echo "== variant 4: exported logs replay to the recovered campaigns =="
"$ITREE" recover "$WORK/data" --export "$WORK/export" \
    | tee "$WORK/recover_export.log"
MECHANISM=$(sed -n 's/^mechanism //p' "$WORK/data/MANIFEST")
PARAMS=$(sed -n 's/^params //p' "$WORK/data/MANIFEST")
for C in 0 1 2; do
  WANT=$(sed -n "s/^campaign $C: participants \([0-9]*\),.*/\1/p" \
      "$WORK/recover_export.log")
  GOT=$("$ITREE" replay "$WORK/export/campaign_$C.log" "$MECHANISM" \
      --params "$PARAMS" | sed -n 's/^participants \([0-9]*\),.*/\1/p')
  if [ -z "$WANT" ] || [ "$GOT" != "$WANT" ]; then
    echo "campaign $C: export replays to '$GOT' participants," \
        "recover reports '$WANT'" >&2
    exit 1
  fi
  echo "-- campaign $C: $GOT participants after export and replay"
done

echo "== variant 5: writes over a mapped image survive SIGKILL bit-for-bit =="
start_daemon --fsync always
grep 'recovered from' "$WORK/served.log" | tee "$WORK/recovered5.txt"
if ! grep -q 'WAL tail records 0,' "$WORK/recovered5.txt"; then
  echo "variant 5 must start from the drain image alone" >&2
  exit 1
fi
"$LOADGEN" --port "$PORT" --connections 3 --campaigns 3 \
    --requests 400 --check | tee "$WORK/loadgen5.log"
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
grep '^campaign ' "$WORK/loadgen5.log" | sort > "$WORK/expected5.txt"
"$ITREE" recover "$WORK/data" | tee "$WORK/recover5.log"
grep '^campaign ' "$WORK/recover5.log" | sort > "$WORK/actual5.txt"
diff -u "$WORK/expected5.txt" "$WORK/actual5.txt"
echo "-- state written over released mapped columns recovered identically"
echo "crash smoke passed"
