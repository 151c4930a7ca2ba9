#!/usr/bin/env bash
# The driver's entry point (the `command` of BENCHMARK.json): builds both
# binaries of the benchmark package from source, then hands every
# argument to `bench`. Run from anywhere:
#
#   bash benchmark/bench.sh --workload paper_cold --seed 1 --seconds 10 --trace 0
#   bash benchmark/bench.sh run
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench" "$@"
