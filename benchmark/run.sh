#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. With --workload/--seed/--seconds/--trace it is BENCHMARK.json's
# command; with no --workload it runs every workload in both passes and
# prints one table. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
# Build output goes to stderr so stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/hotc-benchmark" "$@"
