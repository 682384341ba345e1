#!/usr/bin/env bash
# determinism.sh — assert that qosbench emits byte-identical tables at
# -parallel 1 and -parallel 8 for the experiments that exercise each
# layer of the concurrency stack:
#
#   E1   the sweep runner (replication fan-out, PR 1)
#   E17  the open-system session engine under the sweep runner (PR 3)
#   E20  the city fabric's shard pool nested inside the sweep (PR 4)
#   E22-E24  the mid-session adaptation engine, which must stay a pure
#            function of (cluster, config, seed) at any width (PR 5)
#   E25-E27  the chaos experiments: the fault injector and the
#            reliability layer draw only from private seeded rngs, so
#            faulted tables pin like clean ones (PR 7)
#   E29-E30  the admission-policy layer: queue retry timers and yield
#            journals must admit/expire in the same order at any width
#
# Usage: scripts/determinism.sh [EXPERIMENT...]   (default: E1 E17 E20 E22-E27 E29-E30)
#
# Only wall-clock lines ("elapsed") may differ between the two runs; any
# other byte is a determinism regression in a worker pool, an
# accumulator, or an experiment body drawing randomness outside its
# replication's rng.
#
# Each invocation also records the flight-recorder trace (-trace-out)
# and the same diff applies to the JSONL traces: a trace that differs
# across pool widths means a journal scope leaked between replications.
#
# The session engine's pooled loop is held to the answers of its former
# unpooled reference loop by the recorded-reference tests in
# internal/session, internal/fabric and internal/xp, not here.
set -euo pipefail
cd "$(dirname "$0")/.."

exps=("$@")
if [ "${#exps[@]}" -eq 0 ]; then
  exps=(E1 E17 E20 E22 E23 E24 E25 E26 E27 E29 E30)
fi

bin="$(mktemp -d)/qosbench"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/qosbench

status=0
for e in "${exps[@]}"; do
  p1="$(dirname "$bin")/$e.p1.txt"
  p8="$(dirname "$bin")/$e.p8.txt"
  t1="$(dirname "$bin")/$e.p1.jsonl"
  t8="$(dirname "$bin")/$e.p8.jsonl"
  "$bin" -run "$e" -quick -parallel 1 -trace-out "$t1" | grep -v elapsed > "$p1"
  "$bin" -run "$e" -quick -parallel 8 -trace-out "$t8" | grep -v elapsed > "$p8"
  if diff -u "$p1" "$p8"; then
    echo "determinism: $e OK (parallel 1 == parallel 8)"
  else
    echo "determinism: $e FAILED — table depends on worker-pool width" >&2
    status=1
  fi
  if cmp -s "$t1" "$t8"; then
    echo "determinism: $e OK (trace parallel 1 == parallel 8, $(wc -l < "$t1") events)"
  else
    echo "determinism: $e FAILED — flight-recorder trace depends on worker-pool width" >&2
    status=1
  fi
done
exit $status
