#!/usr/bin/env bash
# Build the provbench CLI and the benchmark driver from this checkout,
# then run the driver with the given arguments:
#
#   bash perfbench/bench.sh run --workload serve-join --seed 42 --seconds 12 --trace 0
#   bash perfbench/bench.sh compare BASE.json... -- NEW.json...
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`). Build output goes to stderr; stdout carries only the
# driver's report, whose last line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline --bin provbench >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: the driver reads its children's peak RSS from
# getrusage(RUSAGE_CHILDREN), which must not include the compilers.
PERFBENCH_PROVBENCH="$target/release/provbench" "$target/release/benchmark" "$@"
