#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark package against the
# repository's crates (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace 1            every workload, per-crate metrics + trace.json
#   benchmark/run.sh --workload W ...     one workload; last stdout line is the result object
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md; `run.sh --help` lists every flag.
set -euo pipefail

# Paths in results and defaults are relative to the repository root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's own progress goes to stderr; stdout stays the benchmark's.
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/benchmark" "$@"
