#!/usr/bin/env bash
# loc.sh — non-test Go lines of code outside benchmark/, the tracked
# metric of ROADMAP aim 2 (the same tree, smaller). Prints one number;
# CHANGES.md entries quote it for the parent and for the change.
#
# Usage: scripts/loc.sh [DIR]   (default: the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
  xargs -0 cat | wc -l
