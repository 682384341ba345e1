#!/usr/bin/env bash
# bench.sh — snapshot the hot-path micro-benchmarks and the sweep
# benchmarks into a JSON document for the perf trajectory.
#
# Usage: scripts/bench.sh [OUT.json] [BENCHTIME] [STORE.jsonl]
#
#   OUT.json     output path (default BENCH.json)
#   BENCHTIME    go test -benchtime value (default 1s; use 1x for a smoke
#                run, which is what CI does)
#   STORE.jsonl  optional results store (cmd/qostrend): when given, the
#                snapshot is also appended to it via qostrend -import,
#                extending the recorded trajectory
#
# BENCH_PR2.json in the repo root is the first committed point of this
# trajectory: the same benchmarks captured immediately before and after
# the PR-2 compiled-hot-path refactor. BENCH_PR3.json is the second
# point, adding the E17 open-system sweep. BENCH_PR4.json is the third,
# adding the city-fabric weak-scaling benchmark and the E20 shard sweep.
# BENCH_PR5.json is the fourth, adding the E22 adaptation-under-churn
# sweep. BENCH_PR6.json is the fifth, capturing the pooled session
# engine: the E17 allocation drop and the new sessions-per-second
# weak-scaling benchmark. BENCH_PR8.json is the sixth, adding the sweep
# runner's weak-scaling benchmark and the nil-sink flight-recorder
# overhead benchmark; since PR 8 every snapshot can also land in the
# append-only results store (RESULTS.jsonl) that cmd/qostrend renders.
# BENCH_PR10.json adds the E29 admission-policy sweep. Since PR 15 the
# snapshot also carries the wire path (internal/proto, internal/net),
# since PR 16 with the loopback formation's frames/op and retx/op.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
benchtime="${2:-1s}"
store="${3:-}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

run_bench() { # pkg, pattern
  go test -run '^$' -bench "$2" -benchmem -benchtime "$benchtime" "$1" | tee -a "$tmp" >&2
}

# Micro-benchmarks of the three compiled inner loops, their pre-compile
# counterparts, the end-to-end E1/E5/E16 sweeps, the E17 open-system
# (session churn) sweep, the city fabric (E20 shard sweep plus the
# weak-scaling benchmark at 1 and 8 shards), and the E22 mid-session
# adaptation sweep, and the sessions-per-second weak-scaling benchmark
# (the pooled engine's throughput headline, at 1 and 8 workers);
# since PR 10 the E29 admission-policy sweep (session engine + the
# clairvoyant bound per replication) rides along.
run_bench . 'BenchmarkFormulate$|BenchmarkFormulateOneShot$|BenchmarkFormulateExhaustive$|BenchmarkDistanceEval$|BenchmarkE1AcceptanceVsNodes$|BenchmarkE5HeuristicVsOptimal$|BenchmarkE16OptimalScaling$|BenchmarkE17OfferedLoad$|BenchmarkE20ShardScaling$|BenchmarkE22AdaptChurn$|BenchmarkE29AdmissionPolicies$|BenchmarkCityFabric/shards=1$|BenchmarkCityFabric/shards=8$|BenchmarkSessionsPerSecond/workers=1$|BenchmarkSessionsPerSecond/workers=8$|BenchmarkSweepParallel/workers=1$|BenchmarkSweepParallel/workers=8$'
run_bench ./internal/qos 'BenchmarkDistance$|BenchmarkDistanceCompiled$|BenchmarkReward$|BenchmarkRewardCompiled$|BenchmarkBuildLadder$'
run_bench ./internal/baseline 'BenchmarkOptimal$|BenchmarkOptimalExhaustive$|BenchmarkOptimalLarge$'
run_bench ./internal/trace 'BenchmarkRecorderNil$|BenchmarkRecorderBufferPoint$'
# The wire path (since PR 15): a recorded formation's frames through the
# per-connection decoder next to the stateless codec, and one whole
# formation over loopback TCP (its ns/op is mostly the mandated windows;
# allocs/op is the figure that moves).
run_bench ./internal/proto 'BenchmarkStreamDecode$'
run_bench ./internal/net 'BenchmarkLoopbackFormation$'

awk -v commit="$(git describe --always --dirty 2>/dev/null || echo unknown)" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v gover="$(go version | awk '{print $3}')" '
BEGIN {
  printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": {\n", commit, date, gover
  sep = ""
}
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns = ""; bytes = ""; allocs = ""; extra = ""
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    else if ($(i+1) == "B/op") bytes = $i
    else if ($(i+1) == "allocs/op") allocs = $i
    else if ($(i+1) ~ /^[a-z]+\/op$/) {
      # b.ReportMetric columns (rounds/op, frames/op, retx/op): they say
      # why allocs/op moved; the store importer ignores keys it does not know.
      key = $(i+1); sub(/\/op$/, "_op", key)
      extra = extra sprintf(", \"%s\": %s", key, $i)
    }
  }
  if (ns == "") next
  printf "%s    \"%s\": {\"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s%s}", sep, name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs, extra
  sep = ",\n"
}
END { printf "\n  }\n}\n" }
' "$tmp" > "$out"

echo "wrote $out" >&2

if [ -n "$store" ]; then
  go run ./cmd/qostrend -store "$store" -import "$out"
fi
