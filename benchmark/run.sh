#!/usr/bin/env bash
# The repo benchmark: build the harness in release, then run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--repeat K] [--quick]
#   benchmark/run.sh --compare A.json B.json
#
# With no arguments all four workloads run untraced at the default seed.
# See benchmark/README.md and BENCHMARK.json.
set -euo pipefail

# Always run from the repository root: the harness reads BENCHMARK.json and
# writes benchmark/results/ relative to it.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both binaries, inside the checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The build's chatter goes to stderr; stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/sr-benchmark" "$@"
